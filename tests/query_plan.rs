//! The per-level query plan memo must never change an answer.
//!
//! Each one-pass heavy-hitter level computes its g-independent query plan
//! (the CountSketch's top candidates and the residual error bound) once per
//! state and shares it across every function queried against that state.
//! These tests hold the memo to the contract that makes it invisible, for
//! both `OnePassGSumSketch` and the serving `SketchRegistry`, under both
//! hash backends and both hint regimes (hint scan and saturated domain
//! scan):
//!
//! * query, then `update` / `update_batch` / `merge`, then query again:
//!   the bits equal a never-queried replay of the same input;
//! * the three functions queried in any order give identical bits;
//! * checkpoint bytes do not depend on whether the state was queried;
//! * a clone of a warm state that is then mutated does not answer from the
//!   stale plan, and the original keeps answering for its own state.

use proptest::prelude::*;
use zerolaw::prelude::*;

const DOMAIN: u64 = 512;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
/// A cap the test streams exceed (saturated: domain scans) and one they
/// never reach (hint scans).
const HINT_CAPS: [usize; 2] = [8, 4096];
/// Every order of the three functions.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn config(backend: HashBackend, hint_cap: usize) -> GSumConfig {
    GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 23)
        .with_hash_backend(backend)
        .with_hint_cap(hint_cap)
}

/// x², min(x, 100) and the non-monotone (2 + sin ln(1+x))·x².
fn functions() -> [DynG; 3] {
    [
        DynG::new(PowerFunction::new(2.0)),
        DynG::new(CappedLinear::new(100)),
        DynG::new(OscillatingQuadratic::log()),
    ]
}

/// A state that answers for all three functions.
trait Queried: StreamSink + MergeableSketch + Checkpoint + Clone {
    /// Estimate bits for the three functions, queried in `order` and
    /// reported in canonical order.
    fn answers_in(&self, order: [usize; 3]) -> [u64; 3];

    fn answers(&self) -> [u64; 3] {
        self.answers_in([0, 1, 2])
    }
}

impl Queried for OnePassGSumSketch<DynG> {
    fn answers_in(&self, order: [usize; 3]) -> [u64; 3] {
        let functions = functions();
        let mut bits = [0u64; 3];
        for i in order {
            bits[i] = self.estimate_with(&functions[i]).to_bits();
        }
        bits
    }
}

impl Queried for SketchRegistry {
    fn answers_in(&self, order: [usize; 3]) -> [u64; 3] {
        let names = self.function_names();
        let mut bits = [0u64; 3];
        for i in order {
            bits[i] = self
                .estimate_for(&names[i])
                .expect("registered function")
                .to_bits();
        }
        bits
    }
}

fn gsum_sketch(backend: HashBackend, hint_cap: usize) -> OnePassGSumSketch<DynG> {
    let [first, ..] = functions();
    OnePassGSumSketch::new(first, &config(backend, hint_cap))
}

fn registry(backend: HashBackend, hint_cap: usize) -> SketchRegistry {
    let config = config(backend, hint_cap);
    let mut registry = SketchRegistry::new();
    for function in functions() {
        registry.register_dyn(function, &config).expect("register");
    }
    registry
}

/// Strategy: a turnstile stream over [`DOMAIN`] and a split point.
fn split_stream() -> impl Strategy<Value = (Vec<Update>, usize)> {
    (
        prop::collection::vec((0..DOMAIN, -40i64..60), 2..400),
        0usize..10_000,
    )
        .prop_map(|(pairs, cut)| {
            let updates: Vec<Update> = pairs.into_iter().map(|(i, d)| Update::new(i, d)).collect();
            let cut = cut * updates.len() / 10_000;
            (updates, cut)
        })
}

/// The never-queried reference: a fresh state fed `updates` in one batch.
fn cold<S: Queried>(proto: &S, updates: &[Update]) -> S {
    let mut s = proto.clone();
    s.update_batch(updates);
    s
}

/// Query a state fed the prefix, mutate it with the suffix three ways
/// (`update`, `update_batch`, `merge`), and require every answer after the
/// mutation to equal the never-queried replay of the whole input.
fn check_invalidation<S: Queried>(
    proto: &S,
    updates: &[Update],
    cut: usize,
) -> Result<(), TestCaseError> {
    let (prefix, suffix) = updates.split_at(cut);
    let want_prefix = cold(proto, prefix).answers();
    let want = cold(proto, updates).answers();

    let warm = cold(proto, prefix);
    prop_assert_eq!(warm.answers(), want_prefix);

    let mut by_update = warm.clone();
    by_update.answers();
    for &u in suffix {
        by_update.update(u);
    }
    prop_assert_eq!(by_update.answers(), want, "query, update, query");

    let mut by_batch = cold(proto, prefix);
    by_batch.answers();
    by_batch.update_batch(suffix);
    prop_assert_eq!(by_batch.answers(), want, "query, update_batch, query");

    let mut by_merge = cold(proto, prefix);
    by_merge.answers();
    let other = cold(proto, suffix);
    other.answers();
    by_merge.merge(&other).expect("same seeds merge");
    prop_assert_eq!(by_merge.answers(), want, "query, merge, query");

    // A clone of a warm state, then mutated, answers for its own state;
    // the original keeps answering for the prefix.
    let mut warm_clone = warm.clone();
    warm_clone.update_batch(suffix);
    prop_assert_eq!(warm_clone.answers(), want, "warm clone, then mutated");
    prop_assert_eq!(
        warm.answers(),
        want_prefix,
        "original after its clone moved on"
    );
    Ok(())
}

/// Any query order gives the same bits, repeated queries give the same
/// bits, and checkpoint bytes ignore whether the state was ever queried.
fn check_order_and_bytes<S: Queried>(proto: &S, updates: &[Update]) -> Result<(), TestCaseError> {
    let never_queried = cold(proto, updates);
    let want_bytes = never_queried.to_checkpoint_bytes().expect("checkpoint");
    let want = cold(proto, updates).answers();
    for order in ORDERS {
        let state = cold(proto, updates);
        prop_assert_eq!(state.answers_in(order), want, "order {:?}", order);
        prop_assert_eq!(state.answers_in(order), want, "order {:?}, repeated", order);
        prop_assert_eq!(
            state.to_checkpoint_bytes().expect("checkpoint"),
            want_bytes.clone(),
            "checkpoint bytes after queries in order {:?}",
            order
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn query_plan_memo_invalidates_on_every_mutation(input in split_stream()) {
        let (updates, cut) = input;
        for backend in BACKENDS {
            for hint_cap in HINT_CAPS {
                check_invalidation(&gsum_sketch(backend, hint_cap), &updates, cut)?;
                check_invalidation(&registry(backend, hint_cap), &updates, cut)?;
            }
        }
    }

    #[test]
    fn query_plan_memo_is_order_free_and_never_checkpointed(input in split_stream()) {
        let (updates, _) = input;
        for backend in BACKENDS {
            for hint_cap in HINT_CAPS {
                check_order_and_bytes(&gsum_sketch(backend, hint_cap), &updates)?;
                check_order_and_bytes(&registry(backend, hint_cap), &updates)?;
            }
        }
    }
}

/// A restored state starts without a plan and answers like the state it
/// was saved from, warm or cold.
#[test]
fn query_plan_memo_restored_state_answers_like_the_saved_one() {
    let updates: Vec<Update> = (0..300u64)
        .map(|i| Update::new((i * 37) % DOMAIN, 1 + (i % 5) as i64))
        .collect();
    for backend in BACKENDS {
        for hint_cap in HINT_CAPS {
            let warm = cold(&registry(backend, hint_cap), &updates);
            let want = warm.answers();
            let bytes = warm.to_checkpoint_bytes().expect("checkpoint");
            let restored = SketchRegistry::from_checkpoint_bytes(&bytes).expect("restore");
            assert_eq!(restored.answers(), want);
            assert_eq!(restored.to_checkpoint_bytes().expect("checkpoint"), bytes);
        }
    }
}
