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
//!
//! The `level_cover_*` tests hold every level's candidates to the level's
//! own substream: level `j`'s CountSketch only ever saw the items the
//! recursive sketch routes to it, so an item outside that substream has a
//! pure-noise estimate and must never be covered (one-pass) or frozen as a
//! candidate (two-pass), whether the level scanned its hints or, once they
//! saturated, the domain.

use proptest::prelude::*;
use zerolaw::core::HeavyHitterSketch;
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

/// Zipf streams over [`DOMAIN`] whose support saturates the small hint cap
/// at the shallow levels while the deep levels stay under it.
fn zipf_streams() -> Vec<TurnstileStream> {
    (1..=3)
        .map(|seed| {
            ZipfStreamGenerator::new(StreamConfig::new(DOMAIN, 6_000), 1.1, seed).generate()
        })
        .collect()
}

/// Per level `j`, whether more distinct items of `stream` are routed to
/// `j` than `hint_cap` holds (the level's hints saturated).
fn saturated_levels<S: HeavyHitterSketch>(
    recursive: &RecursiveSketch<S>,
    stream: &TurnstileStream,
    hint_cap: usize,
) -> Vec<bool> {
    let support: std::collections::HashSet<u64> = stream.iter().map(|u| u.item).collect();
    (0..recursive.levels())
        .map(|j| {
            support
                .iter()
                .filter(|&&i| recursive.selected_at(i, j))
                .count()
                > hint_cap
        })
        .collect()
}

/// Every item of every level's cover, for every function, is in that
/// level's substream — under both backends, with hint caps that leave
/// every level unsaturated and that saturate the shallow levels.
#[test]
fn level_cover_items_are_in_the_level_substream() {
    let mut seen_saturated = [false; 2];
    for stream in zipf_streams() {
        for backend in BACKENDS {
            for hint_cap in HINT_CAPS {
                let mut sketch = gsum_sketch(backend, hint_cap);
                sketch.update_batch(stream.updates());
                let recursive = sketch.recursive();
                let saturated = saturated_levels(recursive, &stream, hint_cap);
                for (j, level) in recursive.level_sketches().iter().enumerate() {
                    seen_saturated[usize::from(saturated[j])] = true;
                    for g in &functions() {
                        for (item, _) in level.cover_with(g, DOMAIN).iter() {
                            assert!(
                                recursive.selected_at(item, j),
                                "{backend:?}, cap {hint_cap}, {}: level {j} (saturated: {}) \
                                 covers item {item}, which is not routed to it",
                                g.name(),
                                saturated[j]
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(seen_saturated, [true, true], "both hint regimes exercised");
}

/// The two-pass heavy hitter freezes its candidates from the same
/// substream scan: on every saturated level `j > 0`, each frozen candidate
/// is routed to level `j`.
#[test]
fn level_cover_two_pass_candidates_are_in_the_level_substream() {
    let g = PowerFunction::new(2.0);
    let mut saturated_deep_levels = 0;
    for stream in zipf_streams() {
        for backend in BACKENDS {
            let config = config(backend, HINT_CAPS[0]);
            let mut sketch = TwoPassGSumSketch::new(g, &config);
            sketch.update_batch(stream.updates());
            sketch.begin_second_pass();
            let recursive = sketch.recursive();
            let saturated = saturated_levels(recursive, &stream, HINT_CAPS[0]);
            for (j, level) in recursive.level_sketches().iter().enumerate().skip(1) {
                if !saturated[j] {
                    continue;
                }
                saturated_deep_levels += 1;
                for item in level.candidates() {
                    assert!(
                        recursive.selected_at(item, j),
                        "{backend:?}: saturated level {j} froze item {item}, \
                         which is not routed to it"
                    );
                }
            }
        }
    }
    assert!(saturated_deep_levels > 0, "some level j > 0 saturated");
}
