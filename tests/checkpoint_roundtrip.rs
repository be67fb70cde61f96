//! Property tests for the versioned snapshot/restore layer.
//!
//! The checkpoint contract is *bit-exactness*: for every estimator state
//! object, `save` at an arbitrary stream prefix + `restore` + replay of the
//! suffix must yield the identical estimate (and identical counters) to the
//! uninterrupted run.  These tests drive every `StreamSink` in the workspace
//! through that interruption, under both hash backends and — for the
//! two-pass states — in both phases.  Corruption tests check that truncated
//! bytes, a wrong format version, a wrong state kind and a mangled
//! hash-backend tag surface as errors instead of panics.
//!
//! The sharded two-pass coordinator's acceptance criterion is also proven
//! here: phase 1 sharded, one transition on the merged state, phase-2 shards
//! rehydrated from the frozen state's checkpoint bytes — bit-identical to
//! the single-threaded two-pass run on Zipf and adversarial workloads.

use proptest::prelude::*;
use zerolaw::core::{
    Checkpoint, DistCounter, GnpHeavyHitter, HeavyHitterSketch, NearlyPeriodicGSum,
    OnePassHeavyHitter, OnePassHeavyHitterConfig, RecursiveSketch, ShardedTwoPassCoordinator,
    TwoPassHeavyHitter, TwoPassHeavyHitterConfig,
};
use zerolaw::prelude::*;
use zerolaw::sketch::CountSketchConfig;
use zerolaw::streams::checkpoint::CheckpointError;
use zerolaw::streams::AdversarialCollisionGenerator;

const DOMAIN: u64 = 64;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
const SIGN_FAMILIES: [SignFamily; 2] = [SignFamily::Polynomial4, SignFamily::Tabulation];

/// Strategy: a small turnstile stream described as (item, delta) pairs.
fn stream_strategy(domain: u64, max_len: usize) -> impl Strategy<Value = TurnstileStream> {
    prop::collection::vec((0..domain, -50i64..50), 2..max_len).prop_map(move |pairs| {
        let mut s = TurnstileStream::new(domain);
        for (item, delta) in pairs {
            if delta != 0 {
                s.push_delta(item, delta);
            }
        }
        s
    })
}

/// Interrupt ingestion at `cut`: feed the prefix, checkpoint, restore,
/// feed the suffix to the restored copy — while an uninterrupted clone of
/// `proto` absorbs the whole stream.  `check` compares the two bitwise.
fn assert_roundtrip_continues<S>(
    proto: &S,
    s: &TurnstileStream,
    cut: usize,
    check: impl Fn(&S, &S) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError>
where
    S: StreamSink + Checkpoint + Clone,
{
    let cut = cut.min(s.len());
    let (prefix, suffix) = s.updates().split_at(cut);

    let mut uninterrupted = proto.clone();
    for &u in s.iter() {
        uninterrupted.update(u);
    }

    let mut partial = proto.clone();
    for &u in prefix {
        partial.update(u);
    }
    let bytes = partial
        .to_checkpoint_bytes()
        .map_err(|e| TestCaseError::fail(format!("save failed: {e}")))?;
    let mut restored = S::from_checkpoint_bytes(&bytes)
        .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
    for &u in suffix {
        restored.update(u);
    }
    check(&uninterrupted, &restored)?;

    // Truncations of the checkpoint must fail cleanly, never panic.
    // Probing every prefix would make the suite quadratic in checkpoint
    // size, so sample a spread of cut points plus the boundaries.
    let len = bytes.len();
    for frac in 0..=16usize {
        let cut = (len - 1) * frac / 16;
        if S::from_checkpoint_bytes(&bytes[..cut]).is_ok() {
            return Err(TestCaseError::fail(format!(
                "truncation at {cut}/{len} bytes restored successfully"
            )));
        }
    }
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CountSketch: save → restore → continue is bit-for-bit, both backends.
    #[test]
    fn countsketch_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        for backend in BACKENDS {
            let proto = CountSketch::new(
                CountSketchConfig::new(3, 32).with_backend(backend),
                seed,
            );
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                check_estimates(a, b)?;
                prop_assert_eq!(
                    a.residual_f2_excluding(&[1, 5]).to_bits(),
                    b.residual_f2_excluding(&[1, 5]).to_bits()
                );
                Ok(())
            })?;
        }
    }

    /// AMS (both sign families) and the exact tracker.
    #[test]
    fn ams_and_exact_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        for family in SIGN_FAMILIES {
            let proto = AmsF2Sketch::with_sign_family(8, 3, seed, family).unwrap();
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                prop_assert_eq!(a.sign_family(), family);
                prop_assert_eq!(b.sign_family(), family);
                prop_assert_eq!(a.estimate_f2().to_bits(), b.estimate_f2().to_bits());
                Ok(())
            })?;
        }

        let proto = ExactFrequencies::new(DOMAIN);
        assert_roundtrip_continues(&proto, &s, cut, |a, b| {
            prop_assert_eq!(a.vector(), b.vector());
            Ok(())
        })?;
    }

    /// DIST counter: verdict state is preserved across the interruption.
    #[test]
    fn dist_counter_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        let proto = DistCounter::new(DOMAIN, 11, 9, 1, seed);
        assert_roundtrip_continues(&proto, &s, cut, |a, b| {
            prop_assert_eq!(a.verdict(), b.verdict());
            prop_assert_eq!(a.space_words(), b.space_words());
            Ok(())
        })?;
    }

    /// g_np heavy hitter: counters *and* reverse hints survive (covers
    /// depend on both).  A tight hint cap exercises the saturated branch.
    #[test]
    fn gnp_heavy_hitter_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..200, cut in 0usize..100) {
        for hint_cap in [4usize, 512] {
            let proto = GnpHeavyHitter::with_hint_cap(16, 12, hint_cap, seed);
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                prop_assert_eq!(a.cover(DOMAIN), b.cover(DOMAIN));
                prop_assert_eq!(a.space_words(), b.space_words());
                Ok(())
            })?;
        }
    }

    /// Algorithm-2 heavy hitter (CountSketch + AMS + hints), every
    /// backend × sign-family combination: the sign-family tag must ride the
    /// checkpoint and reconstruct the identical bank.
    #[test]
    fn one_pass_heavy_hitter_roundtrip(
        s in stream_strategy(DOMAIN, 80),
        seed in 0u64..100,
        cut in 0usize..80,
    ) {
        for backend in BACKENDS {
            for sign_family in SIGN_FAMILIES {
                let config = OnePassHeavyHitterConfig {
                    rows: 3,
                    columns: 32,
                    candidates: 8,
                    epsilon: 0.2,
                    envelope_factor: 1.0,
                    backend,
                    sign_family,
                    hint_cap: 24,
                };
                let proto = OnePassHeavyHitter::new(PowerFunction::new(2.0), config, seed);
                assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                    prop_assert_eq!(b.config().sign_family, sign_family);
                    prop_assert_eq!(a.cover(DOMAIN), b.cover(DOMAIN));
                    prop_assert_eq!(
                        a.frequency_error_bound().to_bits(),
                        b.frequency_error_bound().to_bits()
                    );
                    prop_assert_eq!(a.space_words(), b.space_words());
                    Ok(())
                })?;
            }
        }
    }

    /// The full one-pass g-SUM stack (recursive sketch of Algorithm-2
    /// levels), both backends.
    #[test]
    fn one_pass_gsum_roundtrip(s in stream_strategy(DOMAIN, 80), seed in 0u64..100, cut in 0usize..80) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                prop_assert_eq!(a.estimate().to_bits(), b.estimate().to_bits());
                prop_assert_eq!(a.space_words(), b.space_words());
                Ok(())
            })?;
        }
    }

    /// The recursive g_np stack (Proposition 54 per level).
    #[test]
    fn nearly_periodic_roundtrip(s in stream_strategy(DOMAIN, 80), seed in 0u64..100, cut in 0usize..80) {
        let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed));
        let proto = est.sketch();
        assert_roundtrip_continues(&proto, &s, cut, |a, b| {
            prop_assert_eq!(a.estimate().to_bits(), b.estimate().to_bits());
            Ok(())
        })?;
    }

    /// Two-pass heavy hitter: interrupted in the FIRST pass — the restored
    /// state finishes pass 1, transitions and tabulates identically.
    #[test]
    fn two_pass_heavy_hitter_roundtrip_first_phase(
        s in stream_strategy(DOMAIN, 80),
        seed in 0u64..100,
        cut in 0usize..80,
    ) {
        for backend in BACKENDS {
            let config = TwoPassHeavyHitterConfig {
                rows: 3,
                columns: 32,
                candidates: 8,
                backend,
                hint_cap: 24,
            };
            let proto = TwoPassHeavyHitter::new(PowerFunction::new(2.0), config, seed);
            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                prop_assert_eq!(a.candidates(), b.candidates());
                Ok(())
            })?;
        }
    }

    /// The full two-pass g-SUM stack, interrupted in BOTH phases: once
    /// mid-pass-1 and once mid-pass-2 (after the frozen candidate sets
    /// exist).  The final estimate matches the uninterrupted protocol
    /// bit for bit.
    #[test]
    fn two_pass_gsum_roundtrip_both_phases(
        s in stream_strategy(DOMAIN, 60),
        seed in 0u64..100,
        cut in 0usize..60,
    ) {
        for backend in BACKENDS {
            let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let g = PowerFunction::new(2.0);

            // Uninterrupted reference run.
            let mut reference = TwoPassGSumSketch::new(g, &config);
            reference.process_stream(&s);
            reference.begin_second_pass();
            reference.process_stream(&s);

            let cut = cut.min(s.len());
            let (prefix, suffix) = s.updates().split_at(cut);

            // Interrupt mid-pass-1.
            let mut sketch = TwoPassGSumSketch::new(g, &config);
            sketch.update_batch(prefix);
            let bytes = sketch.to_checkpoint_bytes().unwrap();
            let mut sketch = TwoPassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&bytes).unwrap();
            prop_assert!(!sketch.in_second_pass());
            sketch.update_batch(suffix);
            sketch.begin_second_pass();

            // Interrupt mid-pass-2 as well.
            sketch.update_batch(prefix);
            let bytes = sketch.to_checkpoint_bytes().unwrap();
            let mut sketch = TwoPassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&bytes).unwrap();
            prop_assert!(sketch.in_second_pass());
            sketch.update_batch(suffix);

            prop_assert_eq!(sketch.estimate().to_bits(), reference.estimate().to_bits());
        }
    }

    /// `ShardedIngest::ingest_limited` + `resume` from checkpoint bytes is
    /// bit-identical to uninterrupted sharded ingestion.
    #[test]
    fn sharded_resume_roundtrip(s in stream_strategy(DOMAIN, 100), seed in 0u64..50, cut in 0usize..100) {
        let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed);
        let proto = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);

        let mut reference = proto.clone();
        reference.process_stream(&s);

        let ingest = ShardedIngest::new(2).with_batch_size(16);
        let (partial, consumed) = ingest
            .ingest_limited(&mut s.source(), &proto, cut)
            .expect("clones always merge");
        prop_assert_eq!(consumed, cut.min(s.len()));
        let bytes = partial.to_checkpoint_bytes().unwrap();

        // Continue from the bytes with the rest of the stream.
        let mut rest = s.source();
        for _ in 0..consumed {
            rest.next_update();
        }
        let resumed = ingest
            .resume(&mut rest, &proto, &mut bytes.as_slice())
            .expect("resume from own checkpoint");
        prop_assert_eq!(resumed.estimate().to_bits(), reference.estimate().to_bits());
    }

    /// The estimator registry's composite checkpoint: three functions over
    /// two substrates (two share a configuration, one has its own seed),
    /// interrupted mid-stream.  Save → restore → replay must land every
    /// registered function's estimate *and* its per-function checkpoint
    /// bytes ([`SketchRegistry::checkpoint_for`]) bit-identical to the
    /// uninterrupted run, under both backends.
    #[test]
    fn sketch_registry_roundtrip(s in stream_strategy(DOMAIN, 80), seed in 0u64..100, cut in 0usize..80) {
        for backend in BACKENDS {
            let shared = GSumConfig::with_space_budget(DOMAIN, 0.25, 32, seed)
                .with_hash_backend(backend);
            let mut lone = shared.clone();
            lone.seed = seed.wrapping_add(1);

            let mut proto = SketchRegistry::new();
            proto.register(PowerFunction::new(2.0), &shared).unwrap();
            proto.register(CappedLinear::new(100), &shared).unwrap();
            proto.register(PolylogFunction::new(2.0), &lone).unwrap();
            prop_assert_eq!(proto.substrate_count(), 2);
            let names = proto.function_names();

            assert_roundtrip_continues(&proto, &s, cut, |a, b| {
                for name in &names {
                    prop_assert_eq!(
                        a.estimate_for(name).map(f64::to_bits),
                        b.estimate_for(name).map(f64::to_bits),
                        "estimate for {} diverges after restore + replay",
                        name
                    );
                    let saved = a.checkpoint_for(name).unwrap().unwrap();
                    let restored = b.checkpoint_for(name).unwrap().unwrap();
                    prop_assert_eq!(
                        saved, restored,
                        "per-function checkpoint bytes for {} diverge",
                        name
                    );
                }
                prop_assert_eq!(
                    a.to_checkpoint_bytes().unwrap(),
                    b.to_checkpoint_bytes().unwrap(),
                    "the composite checkpoint diverges"
                );
                Ok(())
            })?;
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption: malformed bytes are errors, never panics.
// ---------------------------------------------------------------------------

#[test]
fn wrong_version_wrong_kind_and_bad_backend_are_errors() {
    let cs = CountSketch::new(CountSketchConfig::new(3, 32), 7);
    let bytes = cs.to_checkpoint_bytes().unwrap();

    // Wrong format version (byte 4 is the version LSB).
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xFE;
    assert!(matches!(
        CountSketch::from_checkpoint_bytes(&wrong_version),
        Err(CheckpointError::UnsupportedVersion { .. })
    ));

    // CountSketch bytes handed to an AMS restore: wrong kind.
    assert!(matches!(
        AmsF2Sketch::from_checkpoint_bytes(&bytes),
        Err(CheckpointError::WrongKind { .. })
    ));

    // A mangled hash-backend tag (first payload byte after rows+columns).
    let mut bad_backend = bytes.clone();
    bad_backend[8 + 16] = 0x7F;
    assert!(matches!(
        CountSketch::from_checkpoint_bytes(&bad_backend),
        Err(CheckpointError::Corrupt(_))
    ));

    // Not a checkpoint at all.
    assert!(matches!(
        CountSketch::from_checkpoint_bytes(b"definitely not a checkpoint"),
        Err(CheckpointError::BadMagic)
    ));
    assert!(CountSketch::from_checkpoint_bytes(&[]).is_err());
}

#[test]
fn retired_kind_tags_are_refused_and_never_reused() {
    use zerolaw::streams::checkpoint::kind;

    // 3 (Count-Min) and 6 (uniform sampling) belonged to retired states.
    const RETIRED: [u16; 2] = [3, 6];
    let live = [
        kind::ROW_HASHER,
        kind::COUNT_SKETCH,
        kind::AMS_F2,
        kind::EXACT_FREQUENCIES,
        kind::DIST_COUNTER,
        kind::GNP_HEAVY_HITTER,
        kind::RECURSIVE_SKETCH,
        kind::ONE_PASS_HEAVY_HITTER,
        kind::TWO_PASS_HEAVY_HITTER,
        kind::ONE_PASS_GSUM,
        kind::TWO_PASS_GSUM,
        kind::SKETCH_REGISTRY,
    ];
    for tag in RETIRED {
        assert!(!live.contains(&tag), "retired kind {tag} was reused");
    }

    // A checkpoint an older build wrote under a retired tag restores as no
    // live state: every restore reports the tag it found.
    let bytes = CountSketch::new(CountSketchConfig::new(3, 32), 7)
        .to_checkpoint_bytes()
        .unwrap();
    for tag in RETIRED {
        let mut old = bytes.clone();
        // Bytes 6..8 hold the little-endian kind tag after magic + version.
        old[6..8].copy_from_slice(&tag.to_le_bytes());
        assert!(matches!(
            CountSketch::from_checkpoint_bytes(&old),
            Err(CheckpointError::WrongKind { found, .. }) if found == tag
        ));
        assert!(matches!(
            AmsF2Sketch::from_checkpoint_bytes(&old),
            Err(CheckpointError::WrongKind { found, .. }) if found == tag
        ));
        assert!(matches!(
            ExactFrequencies::from_checkpoint_bytes(&old),
            Err(CheckpointError::WrongKind { found, .. }) if found == tag
        ));
    }
}

#[test]
fn mismatched_backend_checkpoint_refuses_to_merge_not_panic() {
    // Restore is self-describing (the backend rides in the bytes), so a
    // tabulation checkpoint restores fine — but folding it into a polynomial
    // pipeline is a merge error, exactly like live sketches.
    let mut tab = CountSketch::new(
        CountSketchConfig::new(3, 32).with_backend(HashBackend::Tabulation),
        7,
    );
    tab.update(Update::new(3, 5));
    let bytes = tab.to_checkpoint_bytes().unwrap();
    let restored = CountSketch::from_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(restored.config().backend, HashBackend::Tabulation);

    let mut poly = CountSketch::new(CountSketchConfig::new(3, 32), 7);
    assert!(poly.merge(&restored).is_err());

    // The same at the resume layer: a sharded resume whose prototype was
    // built with the other backend surfaces the mismatch as an error.
    let proto = OnePassGSumSketch::new(
        PowerFunction::new(2.0),
        &GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 1),
    );
    let tab_proto = OnePassGSumSketch::new(
        PowerFunction::new(2.0),
        &GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 1)
            .with_hash_backend(HashBackend::Tabulation),
    );
    let bytes = proto.to_checkpoint_bytes().unwrap();
    let mut s = TurnstileStream::new(DOMAIN);
    s.push_delta(3, 5);
    let err = ShardedIngest::new(2).resume(&mut s.source(), &tab_proto, &mut bytes.as_slice());
    assert!(matches!(err, Err(CheckpointError::Merge(_))));
}

#[test]
fn mismatched_sign_family_checkpoint_refuses_to_merge_not_panic() {
    // A tabulation-family AMS checkpoint restores fine (the tag rides in the
    // bytes) — but folding it into a polynomial-family sketch is a merge
    // error, exactly like live sketches and like hash-backend mismatches.
    let mut tab = AmsF2Sketch::with_sign_family(8, 3, 7, SignFamily::Tabulation).unwrap();
    tab.update(Update::new(3, 5));
    let bytes = tab.to_checkpoint_bytes().unwrap();
    let restored = AmsF2Sketch::from_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(restored.sign_family(), SignFamily::Tabulation);

    let mut poly = AmsF2Sketch::new(8, 3, 7).unwrap();
    assert!(poly.merge(&restored).is_err());

    // A mangled sign-family tag is a corruption error, never a panic or a
    // silently-guessed family.  Layout: 8-byte header, then
    // averages/medians/seed (8 bytes each), then the tag.
    let mut bad_tag = bytes.clone();
    bad_tag[8 + 24] = 0x7F;
    assert!(matches!(
        AmsF2Sketch::from_checkpoint_bytes(&bad_tag),
        Err(CheckpointError::Corrupt(_))
    ));

    // The same at the estimator layer: a tabulation-family one-pass g-SUM
    // checkpoint refuses to resume into a polynomial-family pipeline.
    let tab_config =
        GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 1).with_sign_family(SignFamily::Tabulation);
    let mut tab_gsum = OnePassGSumSketch::new(PowerFunction::new(2.0), &tab_config);
    tab_gsum.update(Update::new(3, 5));
    let bytes = tab_gsum.to_checkpoint_bytes().unwrap();
    let poly_proto = OnePassGSumSketch::new(
        PowerFunction::new(2.0),
        &GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 1),
    );
    let mut s = TurnstileStream::new(DOMAIN);
    s.push_delta(3, 5);
    let err = ShardedIngest::new(2).resume(&mut s.source(), &poly_proto, &mut bytes.as_slice());
    assert!(matches!(err, Err(CheckpointError::Merge(_))));
}

#[test]
fn recursive_sketch_restore_validates_structure() {
    let est = NearlyPeriodicGSum::new(GSumConfig::with_space_budget(DOMAIN, 0.25, 32, 3));
    let sketch = est.sketch();
    let bytes = sketch.to_checkpoint_bytes().unwrap();
    // Zero the level count (bytes 8..16 are the domain, 16..24 the seed,
    // 24..32 the level count).
    let mut no_levels = bytes.clone();
    no_levels[24..32].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(
        RecursiveSketch::<GnpHeavyHitter>::from_checkpoint_bytes(&no_levels),
        Err(CheckpointError::Corrupt(_) | CheckpointError::Io(_))
    ));
}

// ---------------------------------------------------------------------------
// The sharded two-pass coordinator: bit-identical to single-threaded.
// ---------------------------------------------------------------------------

fn single_threaded_two_pass(
    g: PowerFunction,
    config: &GSumConfig,
    stream: &TurnstileStream,
) -> TwoPassGSumSketch<PowerFunction> {
    let mut sketch = TwoPassGSumSketch::new(g, config);
    sketch.process_stream(stream);
    sketch.begin_second_pass();
    sketch.process_stream(stream);
    sketch
}

fn assert_coordinator_matches(stream: &TurnstileStream, config: &GSumConfig, label: &str) {
    let g = PowerFunction::new(2.0);
    let reference = single_threaded_two_pass(g, config, stream);
    for shards in [1usize, 2, 4] {
        let prototype = TwoPassGSumSketch::new(g, config);
        let (result, frozen) = ShardedTwoPassCoordinator::new(shards)
            .with_batch_size(256)
            .run(&prototype, &mut stream.source(), &mut stream.source())
            .expect("coordinator run");
        assert_eq!(
            result.estimate().to_bits(),
            reference.estimate().to_bits(),
            "{label}: {shards}-shard coordinator must match single-threaded two-pass"
        );
        // The broadcast frozen state is the just-transitioned phase-2 seed.
        let rehydrated =
            TwoPassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&frozen).unwrap();
        assert!(rehydrated.in_second_pass(), "{label}: frozen state phase");
    }
}

#[test]
fn coordinator_matches_single_threaded_on_zipf() {
    let domain = 1u64 << 8;
    let stream = ZipfStreamGenerator::new(StreamConfig::new(domain, 12_000), 1.2, 7).generate();
    let config = GSumConfig::with_space_budget(domain, 0.2, 64, 23);
    assert_coordinator_matches(&stream, &config, "zipf");

    // Tabulation backend too.
    let config = config.with_hash_backend(HashBackend::Tabulation);
    assert_coordinator_matches(&stream, &config, "zipf/tabulation");
}

#[test]
fn coordinator_matches_single_threaded_on_adversarial_workload() {
    let domain = 1u64 << 8;
    let stream = AdversarialCollisionGenerator::new(domain, 6, 40, 900, true, 11).generate();
    let config = GSumConfig::with_space_budget(domain, 0.2, 64, 31);
    assert_coordinator_matches(&stream, &config, "adversarial");
}
