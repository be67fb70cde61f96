//! Property tests for the batched-ingestion fast paths.
//!
//! The contract of `StreamSink::update_batch` — including the coalescing
//! overrides introduced by the hot-path overhaul — is that it is
//! *semantically identical* to updating one at a time, in order.  For
//! integer-valued turnstile streams the sketches' counters hold integers
//! that `f64` represents exactly, so the agreement must be **bit-for-bit**:
//! these tests drive every `StreamSink` in the workspace three ways
//! (per-update, one whole-stream batch, small chunked batches) and compare
//! every query down to the bits, under both the polynomial and the
//! tabulation hash backends.  The merge laws are re-checked under the
//! tabulation backend too.  The `scan_kernel_*` tests hold the batched
//! candidate scan (`CountSketch::top_candidates`) to the per-item scan it
//! replaced, kept below as an oracle.

use proptest::prelude::*;
use zerolaw::core::{
    DistCounter, GnpHeavyHitter, HeavyHitterSketch, NearlyPeriodicGSum, OnePassHeavyHitter,
    OnePassHeavyHitterConfig, RecursiveSketch, TwoPassHeavyHitter, TwoPassHeavyHitterConfig,
};
use zerolaw::prelude::*;
use zerolaw::sketch::{CountSketch, CountSketchConfig, HashBackend};

const DOMAIN: u64 = 64;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
const SIGN_FAMILIES: [SignFamily; 2] = [SignFamily::Polynomial4, SignFamily::Tabulation];

/// Strategy: a small turnstile stream described as (item, delta) pairs
/// (delta 0 allowed — sinks must tolerate it).
fn stream_strategy(domain: u64, max_len: usize) -> impl Strategy<Value = TurnstileStream> {
    prop::collection::vec((0..domain, -50i64..50), 1..max_len).prop_map(move |pairs| {
        let mut s = TurnstileStream::new(domain);
        for (item, delta) in pairs {
            if delta != 0 {
                s.push_delta(item, delta);
            }
        }
        s
    })
}

/// Drive a fresh clone of `proto` three ways over `s` and hand each result
/// to `check` for bitwise query comparison against the per-update reference.
fn assert_batch_equivalent<S: StreamSink + Clone>(
    proto: &S,
    s: &TurnstileStream,
    check: impl Fn(&S, &S) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let mut per_update = proto.clone();
    for &u in s.iter() {
        per_update.update(u);
    }

    let mut whole_batch = proto.clone();
    whole_batch.update_batch(s.updates());
    check(&per_update, &whole_batch)?;

    let mut chunked = proto.clone();
    for chunk in s.updates().chunks(7) {
        chunked.update_batch(chunk);
    }
    check(&per_update, &chunked)
}

/// Drive a fresh clone of `proto` three ways over `s` — per-update,
/// one whole-stream batch, and *interleaved* (alternating single updates
/// and batched chunks) — and require the checkpoint byte streams to be
/// identical.  This is the strongest form of the batching contract: the
/// reusable ingestion scratch and the i64/branchless fast paths must not
/// leak one bit into serialized state.
fn assert_checkpoint_byte_equivalent<S: StreamSink + Checkpoint + Clone>(
    proto: &S,
    s: &TurnstileStream,
) -> Result<(), TestCaseError> {
    let mut per_update = proto.clone();
    for &u in s.iter() {
        per_update.update(u);
    }
    let reference = per_update.to_checkpoint_bytes().expect("checkpoint");

    let mut whole_batch = proto.clone();
    whole_batch.update_batch(s.updates());
    prop_assert_eq!(
        &reference,
        &whole_batch.to_checkpoint_bytes().expect("checkpoint"),
        "whole-batch checkpoint bytes diverge from per-update"
    );

    let mut interleaved = proto.clone();
    for (i, chunk) in s.updates().chunks(5).enumerate() {
        if i % 2 == 0 {
            for &u in chunk {
                interleaved.update(u);
            }
        } else {
            interleaved.update_batch(chunk);
        }
    }
    prop_assert_eq!(
        &reference,
        &interleaved.to_checkpoint_bytes().expect("checkpoint"),
        "interleaved update/update_batch checkpoint bytes diverge from per-update"
    );
    Ok(())
}

fn check_estimates<S: FrequencySketch>(a: &S, b: &S) -> Result<(), TestCaseError> {
    for item in 0..DOMAIN {
        prop_assert_eq!(
            a.estimate(item).to_bits(),
            b.estimate(item).to_bits(),
            "estimates diverge on item {}",
            item
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CountSketch: coalesced batches agree bit-for-bit under both backends,
    /// including the residual-F2 query (which exercises the scratch buffer).
    #[test]
    fn countsketch_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        for backend in BACKENDS {
            let proto = CountSketch::new(
                CountSketchConfig::new(3, 32).with_backend(backend),
                seed,
            );
            assert_batch_equivalent(&proto, &s, |a, b| {
                check_estimates(a, b)?;
                prop_assert_eq!(
                    a.residual_f2_excluding(&[]).to_bits(),
                    b.residual_f2_excluding(&[]).to_bits()
                );
                prop_assert_eq!(
                    a.residual_f2_excluding(&[1, 5, 9]).to_bits(),
                    b.residual_f2_excluding(&[1, 5, 9]).to_bits()
                );
                Ok(())
            })?;
        }
    }

    /// AMS: the F2 estimate agrees bit-for-bit, under both sign families.
    #[test]
    fn ams_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        for family in SIGN_FAMILIES {
            let proto = AmsF2Sketch::with_sign_family(8, 3, seed, family).unwrap();
            assert_batch_equivalent(&proto, &s, |a, b| {
                prop_assert_eq!(a.estimate_f2().to_bits(), b.estimate_f2().to_bits());
                Ok(())
            })?;
        }
    }

    /// Exact tracker (default batch path).
    #[test]
    fn exact_batch_equals_single(s in stream_strategy(DOMAIN, 120)) {
        let proto = ExactFrequencies::new(DOMAIN);
        assert_batch_equivalent(&proto, &s, |a, b| {
            prop_assert_eq!(a.vector(), b.vector());
            Ok(())
        })?;
    }

    /// DIST counter: coalesced batches give the same verdict state.
    #[test]
    fn dist_counter_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        let proto = DistCounter::new(DOMAIN, 1, 4, 2, seed);
        assert_batch_equivalent(&proto, &s, |a, b| {
            prop_assert_eq!(a.verdict(), b.verdict());
            Ok(())
        })?;
    }

    /// g_np heavy hitter: the cover (which depends on the update-time
    /// reverse hints as well as the counters) agrees exactly.
    #[test]
    fn gnp_heavy_hitter_batch_equals_single(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        let proto = GnpHeavyHitter::new(16, 12, seed);
        assert_batch_equivalent(&proto, &s, |a, b| {
            prop_assert_eq!(a.cover(DOMAIN), b.cover(DOMAIN));
            prop_assert_eq!(a.space_words(), b.space_words());
            Ok(())
        })?;
    }

    /// Algorithm-2 heavy hitter (CountSketch + AMS pair), both backends.
    #[test]
    fn one_pass_heavy_hitter_batch_equals_single(
        s in stream_strategy(DOMAIN, 120),
        seed in 0u64..200,
    ) {
        for backend in BACKENDS {
            let config = OnePassHeavyHitterConfig {
                rows: 3,
                columns: 32,
                candidates: 8,
                epsilon: 0.2,
                envelope_factor: 1.0,
                backend,
                sign_family: SignFamily::default(),
                hint_cap: 512,
            };
            let proto = OnePassHeavyHitter::new(PowerFunction::new(2.0), config, seed);
            assert_batch_equivalent(&proto, &s, |a, b| {
                prop_assert_eq!(a.cover(DOMAIN), b.cover(DOMAIN));
                prop_assert_eq!(
                    a.frequency_error_bound().to_bits(),
                    b.frequency_error_bound().to_bits()
                );
                Ok(())
            })?;
        }
    }

    /// The full one-pass g-SUM stack: recursive-sketch level routing plus
    /// per-level coalescing, both backends.
    #[test]
    fn one_pass_gsum_batch_equals_single(s in stream_strategy(DOMAIN, 100), seed in 0u64..100) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            assert_batch_equivalent(&proto, &s, |a, b| {
                prop_assert_eq!(a.estimate().to_bits(), b.estimate().to_bits());
                Ok(())
            })?;
        }
    }

    /// Recursive sketch: checkpoint bytes are identical whichever ingestion
    /// path filled it — the routing scratch (depth partitioning, memoized
    /// selector hashes) is pure working memory.
    #[test]
    fn recursive_sketch_checkpoint_bytes_agree(
        s in stream_strategy(DOMAIN, 100),
        seed in 0u64..100,
    ) {
        let proto = RecursiveSketch::new(DOMAIN, 4, seed, |_, level_seed| {
            GnpHeavyHitter::new(16, 12, level_seed)
        });
        assert_checkpoint_byte_equivalent(&proto, &s)?;
    }

    /// Full one-pass g-SUM stack: checkpoint bytes are identical whichever
    /// ingestion path filled it, under both hash backends — the per-level
    /// coalesce buffers, the CountSketch column scratch and the AMS
    /// i64/branchless fast path all stay out of serialized state.
    #[test]
    fn one_pass_gsum_checkpoint_bytes_agree(
        s in stream_strategy(DOMAIN, 100),
        seed in 0u64..100,
    ) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            assert_checkpoint_byte_equivalent(&proto, &s)?;
        }
    }

    /// The recursive g_np stack (Proposition 54 per level).
    #[test]
    fn nearly_periodic_sketch_batch_equals_single(
        s in stream_strategy(DOMAIN, 100),
        seed in 0u64..100,
    ) {
        let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed));
        let proto = est.sketch();
        assert_batch_equivalent(&proto, &s, |a, b| {
            prop_assert_eq!(a.estimate().to_bits(), b.estimate().to_bits());
            Ok(())
        })?;
    }

    /// Two-pass heavy hitter: batch equivalence holds in both phases, and
    /// the phase transition picks identical candidate sets.
    #[test]
    fn two_pass_heavy_hitter_batch_equals_single(
        s in stream_strategy(DOMAIN, 100),
        seed in 0u64..100,
    ) {
        for backend in BACKENDS {
            let config = TwoPassHeavyHitterConfig {
                rows: 3,
                columns: 32,
                candidates: 8,
                backend,
                hint_cap: 512,
            };
            let build = || TwoPassHeavyHitter::new(PowerFunction::new(2.0), config, seed);

            let mut per_update = build();
            for &u in s.iter() {
                per_update.update(u);
            }
            per_update.begin_second_pass(DOMAIN);
            for &u in s.iter() {
                per_update.update(u);
            }

            let mut batched = build();
            batched.update_batch(s.updates());
            batched.begin_second_pass(DOMAIN);
            batched.update_batch(s.updates());

            prop_assert_eq!(per_update.candidates(), batched.candidates());
            prop_assert_eq!(per_update.cover(DOMAIN), batched.cover(DOMAIN));
        }
    }

    /// The fused hash-stage kernel itself: batched `(column, sign)`
    /// evaluation is bit-identical to the per-key `column_sign` call it
    /// replaces, under both backends,
    /// over key slices that mix duplicates, key 0, the domain boundary and
    /// arbitrary 64-bit keys (exercising the reduction folds), at column
    /// counts spanning the Lemire bucketing range the sketches use.
    #[test]
    fn row_hasher_batch_kernels_equal_per_key(
        keys in prop::collection::vec((0u64..DOMAIN, 0u64..8), 0..80).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(key, variant)| match variant {
                    // Boundary keys and a fixed key (forcing duplicates)
                    // are interleaved with in-domain and arbitrary 64-bit
                    // keys so one slice exercises every reduction path.
                    0 => 0u64,
                    1 => DOMAIN - 1,
                    2 => 7,
                    3 => key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | (1 << 63),
                    _ => key,
                })
                .collect::<Vec<u64>>()
        }),
        columns in 1u64..2048,
        seed in 0u64..200,
    ) {
        for backend in BACKENDS {
            let hasher = RowHasher::new(backend, columns, seed);
            let mut cols = Vec::new();
            let mut signs = Vec::new();
            hasher.column_sign_batch(&keys, &mut cols, &mut signs);
            prop_assert_eq!(cols.len(), keys.len());
            prop_assert_eq!(signs.len(), keys.len());
            for (i, &key) in keys.iter().enumerate() {
                let (col, sign) = hasher.column_sign(key);
                prop_assert_eq!(
                    (cols[i] as u64, signs[i]),
                    (col, sign),
                    "fused batch kernel diverges at key {} under {:?}",
                    key,
                    backend
                );
            }
        }
    }

    /// The item-outer sign block kernels themselves: for both sign families,
    /// the packed `items × counters` sign matrix is bit-identical to per-item
    /// evaluation (`SignHashBank::eval_with` for the polynomial family,
    /// `TabSignBank::sign_at` for tabulation) over adversarial key slices —
    /// key 0, the domain boundary, high-bit patterns and forced duplicates —
    /// at bank sizes off the 8-wide block boundary and batch lengths from 1
    /// through odd non-powers-of-two.
    #[test]
    fn sign_block_kernels_equal_per_item(
        keys in prop::collection::vec((0u64..DOMAIN, 0u64..8), 1..81).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(key, variant)| match variant {
                    // Boundary keys and a fixed key (forcing duplicates)
                    // interleaved with in-domain and arbitrary high-bit
                    // 64-bit keys, so one slice stresses every fold path.
                    0 => 0u64,
                    1 => DOMAIN - 1,
                    2 => 7,
                    3 => key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | (1 << 63),
                    4 => u64::MAX - key,
                    _ => key,
                })
                .collect::<Vec<u64>>()
        }),
        bank_len in 1usize..40,
        seed in 0u64..200,
    ) {
        use zerolaw::hash::SIGN_BLOCK;
        let n = keys.len();
        for family in SIGN_FAMILIES {
            let bank = SignBank::from_seed(family, seed, bank_len);
            let mut sign_bytes = Vec::new();
            match &bank {
                SignBank::Polynomial(poly) => {
                    let (mut x1, mut x2, mut x3) = (Vec::new(), Vec::new(), Vec::new());
                    for &k in &keys {
                        let (a, b, c) = SignHashBank::key_powers(k);
                        x1.push(a);
                        x2.push(b);
                        x3.push(c);
                    }
                    poly.eval_block(&x1, &x2, &x3, &mut sign_bytes);
                    // The packed bits must be the parity of the exact field
                    // element `eval_with` computes, not merely sign-equal.
                    for i in 0..bank_len {
                        let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
                        for (t, &key) in keys.iter().enumerate() {
                            let value = SignHashBank::eval_with(
                                poly.coefficients_at(i),
                                SignHashBank::key_powers(key),
                            );
                            prop_assert_eq!(
                                u64::from((row[t] >> (i % SIGN_BLOCK)) & 1),
                                value & 1,
                                "polynomial block bit diverges at hash {}, key {}",
                                i,
                                key
                            );
                        }
                    }
                }
                SignBank::Tabulation(tab) => {
                    let mut hv = Vec::new();
                    tab.eval_block(&keys, &mut hv, &mut sign_bytes);
                    for i in 0..bank_len {
                        let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
                        for (t, &key) in keys.iter().enumerate() {
                            let got = (((row[t] >> (i % SIGN_BLOCK)) & 1) as i64) * 2 - 1;
                            prop_assert_eq!(
                                got,
                                tab.sign_at(i, key),
                                "tabulation block bit diverges at hash {}, key {}",
                                i,
                                key
                            );
                        }
                    }
                }
            }
            prop_assert_eq!(sign_bytes.len(), bank.blocks() * n);
            // Every bank-level query agrees with the packed matrix too.
            for i in [0, bank_len - 1] {
                let row = &sign_bytes[(i / SIGN_BLOCK) * n..(i / SIGN_BLOCK) * n + n];
                for (t, &key) in keys.iter().enumerate() {
                    let got = (((row[t] >> (i % SIGN_BLOCK)) & 1) as i64) * 2 - 1;
                    prop_assert_eq!(got, bank.sign_at_key(i, key));
                }
            }
        }
    }

    /// The merge laws hold under the tabulation backend too: merging shard
    /// sketches equals the sketch of the concatenated stream, and the full
    /// g-SUM sketch merges to the single-threaded state.
    #[test]
    fn tabulation_merge_laws(s in stream_strategy(DOMAIN, 120), seed in 0u64..200) {
        let mid = s.len() / 2;
        let (front, back) = s.updates().split_at(mid);

        let cfg = CountSketchConfig::new(3, 32)
            .with_backend(HashBackend::Tabulation);
        let mut whole = CountSketch::new(cfg, seed);
        whole.process_stream(&s);
        let mut a = CountSketch::new(cfg, seed);
        a.update_batch(front);
        let mut b = CountSketch::new(cfg, seed);
        b.update_batch(back);
        a.merge(&b).unwrap();
        check_estimates(&whole, &a)?;

        let gs_config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
            .with_hash_backend(HashBackend::Tabulation);
        let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &gs_config);
        let mut single = proto.clone();
        single.process_stream(&s);
        let mut left = proto.clone();
        left.update_batch(front);
        let mut right = proto.clone();
        right.update_batch(back);
        left.merge(&right).unwrap();
        prop_assert_eq!(left.estimate().to_bits(), single.estimate().to_bits());
    }
}

/// Extreme deltas defeat the `max|Δ|·n < 2^52` gate, so the CountSketch
/// batch path must take its `f64` fallback branch — and still
/// agree with per-update ingestion on every estimate, bit for bit.  Outside
/// the exact-integer regime f64 addition is order-sensitive, so the batches
/// use distinct items in ascending order: coalescing is then a no-op and
/// each counter sees the identical addend sequence on both paths, which is
/// the strongest claim that survives non-exact magnitudes.  A second small
/// batch checks the gate decision is per-batch: the same sketch flips from
/// fallback to fast path across calls without divergence.
#[test]
fn huge_deltas_take_the_fallback_and_still_agree() {
    let huge: Vec<Update> = vec![
        Update::new(3, i64::MIN + 1),
        Update::new(9, (1i64 << 53) + 1),
        Update::new(40, -(1i64 << 60)),
    ];
    let small: Vec<Update> = (0..32u64).map(|i| Update::new(i, 3 - i as i64)).collect();

    for backend in BACKENDS {
        let cs_proto = CountSketch::new(CountSketchConfig::new(3, 32).with_backend(backend), 11);

        let mut cs_ref = cs_proto.clone();
        for &u in huge.iter().chain(small.iter()) {
            cs_ref.update(u);
        }

        // One batch per regime: fallback for the huge half, fast path for
        // the small half.
        let mut cs_batched = cs_proto.clone();
        cs_batched.update_batch(&huge);
        cs_batched.update_batch(&small);

        for item in 0..DOMAIN {
            assert_eq!(
                cs_ref.estimate(item).to_bits(),
                cs_batched.estimate(item).to_bits(),
                "CountSketch {backend:?} diverges on item {item} with extreme deltas"
            );
        }
    }
}

/// `i64::MAX`-scale deltas: `max|Δ| · n` overflows a `u64` product outright,
/// so this is the regression test that the gate computation itself survives
/// pathological magnitudes (it must *answer* `false`, not wrap around to a
/// small product and take the overflowing i64 path).  `±(i64::MAX − 1)`
/// converts to the exact f64 `2^63`, so every fallback addend is exact and
/// per-update and batched ingestion still agree bit for bit — for AMS under
/// both sign families and CountSketch under both backends.
#[test]
fn max_scale_deltas_overflow_proof_gate_and_agree() {
    let extreme: Vec<Update> = vec![
        Update::new(3, i64::MAX - 1),
        Update::new(40, -(i64::MAX - 1)),
    ];

    for family in SIGN_FAMILIES {
        let ams_proto = AmsF2Sketch::with_sign_family(8, 3, 17, family).unwrap();
        let mut ams_ref = ams_proto.clone();
        for &u in &extreme {
            ams_ref.update(u);
        }
        let mut ams_batched = ams_proto.clone();
        ams_batched.update_batch(&extreme);
        assert_eq!(
            ams_ref.estimate_f2().to_bits(),
            ams_batched.estimate_f2().to_bits(),
            "AMS {} diverges under i64::MAX-scale deltas",
            family.name()
        );
    }

    for backend in BACKENDS {
        let cs_proto = CountSketch::new(CountSketchConfig::new(3, 32).with_backend(backend), 17);
        let mut cs_ref = cs_proto.clone();
        for &u in &extreme {
            cs_ref.update(u);
        }
        let mut cs_batched = cs_proto.clone();
        cs_batched.update_batch(&extreme);
        for item in 0..DOMAIN {
            assert_eq!(
                cs_ref.estimate(item).to_bits(),
                cs_batched.estimate(item).to_bits(),
                "CountSketch {backend:?} diverges on item {item} at i64::MAX scale"
            );
        }
    }
}

/// Backend mismatches are merge errors: a polynomial sketch must refuse a
/// tabulation sketch even when shape and seed agree.
#[test]
fn merge_rejects_backend_mismatch() {
    let poly = CountSketch::new(CountSketchConfig::new(3, 32), 7);
    let tab = CountSketch::new(
        CountSketchConfig::new(3, 32).with_backend(HashBackend::Tabulation),
        7,
    );
    let mut a = poly.clone();
    assert!(a.merge(&tab).is_err());
}

/// Sign-family mismatches are merge errors too, at every layer that embeds
/// an AMS bank: the raw sketch and the one-pass heavy hitter (whose config
/// inequality catches it) must both refuse, even with identical shapes and
/// seeds.
#[test]
fn merge_rejects_sign_family_mismatch() {
    let mut ams_poly = AmsF2Sketch::with_sign_family(8, 3, 7, SignFamily::Polynomial4).unwrap();
    let ams_tab = AmsF2Sketch::with_sign_family(8, 3, 7, SignFamily::Tabulation).unwrap();
    assert!(ams_poly.merge(&ams_tab).is_err());

    let config = OnePassHeavyHitterConfig::new(3, 32, 8, 0.2, 1.0);
    let mut hh_poly = OnePassHeavyHitter::new(PowerFunction::new(2.0), config, 7);
    let hh_tab = OnePassHeavyHitter::new(
        PowerFunction::new(2.0),
        config.with_sign_family(SignFamily::Tabulation),
        7,
    );
    assert!(hh_poly.merge(&hh_tab).is_err());
}

/// Sharded ingestion stays exact under the tabulation backend end to end.
#[test]
fn sharded_tabulation_ingest_matches_single_threaded() {
    let domain = 1u64 << 8;
    let config = GSumConfig::with_space_budget(domain, 0.2, 64, 29)
        .with_hash_backend(HashBackend::Tabulation);
    let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);

    let mut gen = ZipfStreamGenerator::new(StreamConfig::new(domain, 20_000), 1.2, 3);
    let mut single = prototype.clone();
    gen.feed(&mut single);

    for shard_count in [2usize, 4] {
        gen.reset();
        let merged = ShardedIngest::new(shard_count)
            .with_batch_size(512)
            .ingest(&mut gen, &prototype)
            .unwrap();
        assert_eq!(
            merged.estimate().to_bits(),
            single.estimate().to_bits(),
            "sharded ({shard_count}) tabulation ingestion must match single-threaded"
        );
    }
}

/// Domain of the candidate-scan tests: wide enough that a full-domain scan
/// spans several of the kernel's key blocks.
const SCAN_DOMAIN: u64 = 3_000;
/// Row counts for the scan tests: even counts take the averaging median.
const SCAN_ROWS: [usize; 5] = [1, 2, 4, 5, 7];

/// The candidate scan before it was batched, kept as the oracle for
/// `CountSketch::top_candidates`: one per-item `estimate` (a median over
/// rows) per candidate, then a full sort by decreasing magnitude with ties
/// broken by increasing item, truncated to `k`.
fn top_candidates_oracle(
    cs: &CountSketch,
    candidates: impl Iterator<Item = u64>,
    k: usize,
) -> Vec<(u64, f64)> {
    let mut scored: Vec<(u64, f64)> = candidates.map(|i| (i, cs.estimate(i))).collect();
    scored.sort_unstable_by(|a, b| {
        b.1.abs()
            .partial_cmp(&a.1.abs())
            .expect("estimates are finite")
            .then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

/// `(item, estimate bits)` pairs, so comparisons are bit-exact.
fn as_bits(pairs: &[(u64, f64)]) -> Vec<(u64, u64)> {
    pairs.iter().map(|&(i, e)| (i, e.to_bits())).collect()
}

/// The stream's distinct items in first-appearance order — the shape of a
/// reverse-hint set.
fn distinct_items(s: &TurnstileStream) -> Vec<u64> {
    let mut seen = std::collections::HashSet::new();
    s.iter()
        .map(|u| u.item)
        .filter(|&i| seen.insert(i))
        .collect()
}

/// Compare the batched scan to the oracle over one candidate set at every
/// interesting `k`: none, one, a few (forcing repeated buffer cuts), all,
/// and more than there are.
fn assert_scan_matches_oracle(cs: &CountSketch, candidates: &[u64]) -> Result<(), TestCaseError> {
    let n = candidates.len();
    for k in [0, 1, 3, n, n + 7] {
        let got = cs.top_candidates(candidates.iter().copied(), k);
        let want = top_candidates_oracle(cs, candidates.iter().copied(), k);
        prop_assert_eq!(
            as_bits(&got),
            as_bits(&want),
            "rows {} / {:?}: batched scan diverges from the per-item oracle at k = {} of {}",
            cs.config().rows,
            cs.config().backend,
            k,
            n
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The batched candidate scan returns exactly the per-item oracle's
    /// items and estimate bits, under both backends, for 1, 2, 4, 5 and 7
    /// rows, over an empty candidate set, the stream's hint-shaped support,
    /// a strided subset walked backwards, and the full domain.
    #[test]
    fn scan_kernel_top_candidates_equal_per_item_oracle(
        s in stream_strategy(SCAN_DOMAIN, 400),
        seed in 0u64..200,
        columns in 4usize..40,
        stride in 2u64..9,
    ) {
        let support = distinct_items(&s);
        let strided: Vec<u64> = (0..SCAN_DOMAIN).rev().filter(|i| i % stride == 1).collect();
        let full: Vec<u64> = (0..SCAN_DOMAIN).collect();
        for backend in BACKENDS {
            for rows in SCAN_ROWS {
                let mut cs = CountSketch::new(
                    CountSketchConfig::new(rows, columns).with_backend(backend),
                    seed,
                );
                cs.update_batch(s.updates());
                assert_scan_matches_oracle(&cs, &[])?;
                assert_scan_matches_oracle(&cs, &support)?;
                assert_scan_matches_oracle(&cs, &strided)?;
                assert_scan_matches_oracle(&cs, &full)?;
            }
        }
    }

    /// The two-pass heavy hitter freezes the batched scan's candidates: its
    /// candidate set equals the oracle's top identities over the hint scan
    /// (cap held) or the domain scan (cap exceeded), and its cover reports
    /// exact g-values for those items only.
    #[test]
    fn scan_kernel_two_pass_cover_equals_oracle(
        s in stream_strategy(SCAN_DOMAIN, 300),
        seed in 0u64..100,
        hint_cap in 1usize..400,
    ) {
        let g = PowerFunction::new(2.0);
        let support = distinct_items(&s);
        let fv = s.frequency_vector();
        for backend in BACKENDS {
            let config = TwoPassHeavyHitterConfig {
                rows: 5,
                columns: 16,
                candidates: 12,
                backend,
                hint_cap,
            };
            let mut hh = TwoPassHeavyHitter::new(g, config, seed);
            // The two-pass sketch's CountSketch seed derivation.
            let mut reference = CountSketch::new(
                CountSketchConfig::new(5, 16).with_backend(backend),
                seed ^ 0x2da5_5e1f,
            );
            hh.update_batch(s.updates());
            reference.update_batch(s.updates());
            hh.begin_second_pass(SCAN_DOMAIN);
            hh.update_batch(s.updates());

            let mut want: Vec<u64> = if support.len() > hint_cap {
                top_candidates_oracle(&reference, 0..SCAN_DOMAIN, config.candidates)
            } else {
                top_candidates_oracle(&reference, support.iter().copied(), config.candidates)
            }
            .into_iter()
            .map(|(i, _)| i)
            .collect();
            want.sort_unstable();
            prop_assert_eq!(hh.candidates(), want.clone());
            for (item, weight) in hh.cover(SCAN_DOMAIN).iter() {
                prop_assert!(want.binary_search(&item).is_ok(), "cover item {} not a candidate", item);
                prop_assert_eq!(weight.to_bits(), g.eval_signed(fv.get(item)).to_bits());
            }
        }
    }
}

/// Domain of the skewed scan case: four of the kernel's key blocks.
const SKEW_DOMAIN: u64 = 4_096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A skewed stream puts a few heavy items above a sea of light ones, so
    /// once the first blocks raise the top-k floor above zero most keys
    /// drop out before their last row.  The pruned scan must still equal
    /// the per-item oracle bit for bit, walked forwards and backwards over
    /// the full domain, for every row count and both backends.
    #[test]
    fn scan_kernel_skewed_stream_prunes_like_the_oracle(
        seed in 0u64..200,
        columns in 32usize..256,
    ) {
        let s = ZipfStreamGenerator::new(StreamConfig::new(SKEW_DOMAIN, 20_000), 1.2, seed)
            .generate();
        let forwards: Vec<u64> = (0..SKEW_DOMAIN).collect();
        let backwards: Vec<u64> = (0..SKEW_DOMAIN).rev().collect();
        for backend in BACKENDS {
            for rows in SCAN_ROWS {
                let mut cs = CountSketch::new(
                    CountSketchConfig::new(rows, columns).with_backend(backend),
                    seed,
                );
                cs.update_batch(s.updates());
                for candidates in [&forwards, &backwards] {
                    for k in [1, 8, 128] {
                        let got = cs.top_candidates(candidates.iter().copied(), k);
                        let want = top_candidates_oracle(&cs, candidates.iter().copied(), k);
                        prop_assert_eq!(
                            as_bits(&got),
                            as_bits(&want),
                            "rows {} / {:?} / k = {}: pruned scan diverges from the oracle",
                            rows,
                            backend,
                            k
                        );
                    }
                }
            }
        }
    }
}

/// The sign row `row` of a `CountSketch::new(config, seed)` gives `item`.
fn row_sign(config: CountSketchConfig, seed: u64, row: usize, item: u64) -> i64 {
    let seeds = zerolaw::hash::derive_seeds(seed, config.rows);
    RowHasher::new(config.backend, config.columns as u64, seeds[row])
        .column_sign(item)
        .1
}

/// Values sitting exactly on `±floor`: with one column and one updated
/// item, every key's row values are `±d`, every odd-row median is `±d`,
/// and the floor is `d` after the first cut.  A key whose rows are all
/// *at* the floor must survive the early rejection.  The candidates are
/// walked backwards so the winners (smallest items among equal
/// magnitudes) arrive in the last block, long after the floor rose.
#[test]
fn scan_kernel_values_at_the_floor_match_oracle() {
    let backwards: Vec<u64> = (0..SCAN_DOMAIN).rev().collect();
    for backend in BACKENDS {
        for rows in SCAN_ROWS {
            let mut cs = CountSketch::new(CountSketchConfig::new(rows, 1).with_backend(backend), 5);
            cs.update(Update::new(17, 6));
            for k in [1, 3, 8] {
                let got = cs.top_candidates(backwards.iter().copied(), k);
                let want = top_candidates_oracle(&cs, backwards.iter().copied(), k);
                assert_eq!(
                    as_bits(&got),
                    as_bits(&want),
                    "rows {rows} / {backend:?} / k = {k}"
                );
                if rows % 2 == 1 {
                    assert!(got.iter().all(|&(_, e)| e.abs() == 6.0));
                }
            }
        }
    }
}

/// An even row count whose two middle values straddle the floor: with one
/// column and two rows, two updated items whose sign patterns disagree
/// leave counters of magnitudes 9 and 5, so the keys signed like the
/// counters read `(5, 9)` (or `(-5, -9)`): median 7, the floor, with one
/// middle value below it.  Such a key reaches the floor and must not be
/// rejected for having only one row past it.
#[test]
fn scan_kernel_even_rows_straddling_the_floor_match_oracle() {
    let backwards: Vec<u64> = (0..SCAN_DOMAIN).rev().collect();
    for backend in BACKENDS {
        let config = CountSketchConfig::new(2, 1).with_backend(backend);
        let seed = 9;
        let sign = |row, item| row_sign(config, seed, row, item);
        let other = (1..SCAN_DOMAIN)
            .find(|&b| sign(0, 0) * sign(0, b) != sign(1, 0) * sign(1, b))
            .expect("an item whose sign pattern disagrees with item 0's");
        let mut cs = CountSketch::new(config, seed);
        cs.update(Update::new(0, 7));
        cs.update(Update::new(other, 2));
        let counters: Vec<i64> = (0..2)
            .map(|row| sign(row, 0) * 7 + sign(row, other) * 2)
            .collect();
        let mut magnitudes: Vec<i64> = counters.iter().map(|c| c.abs()).collect();
        magnitudes.sort_unstable();
        assert_eq!(magnitudes, [5, 9]);
        for k in [1, 3, 8] {
            let got = cs.top_candidates(backwards.iter().copied(), k);
            let want = top_candidates_oracle(&cs, backwards.iter().copied(), k);
            assert_eq!(as_bits(&got), as_bits(&want), "{backend:?} / k = {k}");
            // The winners sit at the floor with one row on each side of it.
            for &(item, estimate) in &got {
                assert_eq!(estimate.abs(), 7.0);
                let mut values: Vec<i64> = (0..2).map(|r| sign(r, item) * counters[r]).collect();
                values.sort_unstable_by_key(|v| v.abs());
                assert_eq!(values.iter().map(|v| v.abs()).collect::<Vec<_>>(), [5, 9]);
            }
        }
    }
}

/// Ties everywhere: an empty sketch estimates every item as a signed zero,
/// and a sketch whose two items cancel row by row leaves many equal
/// magnitudes.  The scan must order them exactly like the oracle —
/// increasing item among equal magnitudes, `-0.0` and `0.0` kept bit for
/// bit — whatever order the candidates arrive in.
#[test]
fn scan_kernel_ties_and_signed_zeros_match_oracle() {
    let backwards: Vec<u64> = (0..SCAN_DOMAIN).rev().collect();
    for backend in BACKENDS {
        for rows in SCAN_ROWS {
            let config = CountSketchConfig::new(rows, 8).with_backend(backend);
            let empty = CountSketch::new(config, 3);
            let mut cancelling = CountSketch::new(config, 3);
            cancelling.update(Update::new(10, 7));
            cancelling.update(Update::new(11, -7));
            cancelling.update(Update::new(12, 7));
            for cs in [&empty, &cancelling] {
                assert_scan_matches_oracle(cs, &backwards).expect("tie order");
            }
        }
    }
}
