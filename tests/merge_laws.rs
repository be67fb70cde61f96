//! Property tests for the merge algebra behind sharded ingestion.
//!
//! Linear sketches form a commutative monoid under `merge` (for fixed
//! configuration and seed): these tests check commutativity and
//! associativity on random turnstile streams, that sharded ingestion of a
//! shuffled stream agrees exactly with single-threaded ingestion, and that
//! the push-based g-SUM sketch driven from a lazy source — no
//! `TurnstileStream` ever materialized on the estimator side — reproduces
//! the batch estimator bit for bit.

use proptest::prelude::*;
use zerolaw::prelude::*;
use zerolaw::sketch::CountSketchConfig;

/// Strategy: a small turnstile stream described as (item, delta) pairs.
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

/// Split a stream's updates into `parts` round-robin shards.
fn shards(stream: &TurnstileStream, parts: usize) -> Vec<Vec<Update>> {
    let mut out = vec![Vec::new(); parts];
    for (i, &u) in stream.updates().iter().enumerate() {
        out[i % parts].push(u);
    }
    out
}

fn countsketch(seed: u64) -> CountSketch {
    CountSketch::new(CountSketchConfig::new(3, 32), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// merge is commutative: a ⊔ b and b ⊔ a answer every query identically.
    #[test]
    fn countsketch_merge_commutes(s1 in stream_strategy(64, 60), s2 in stream_strategy(64, 60)) {
        let mut a = countsketch(9);
        a.process_stream(&s1);
        let mut b = countsketch(9);
        b.process_stream(&s2);

        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        for item in 0..64u64 {
            prop_assert_eq!(ab.estimate(item).to_bits(), ba.estimate(item).to_bits());
        }
    }

    /// merge is associative: (a ⊔ b) ⊔ c equals a ⊔ (b ⊔ c).
    #[test]
    fn countsketch_merge_is_associative(
        s1 in stream_strategy(64, 40),
        s2 in stream_strategy(64, 40),
        s3 in stream_strategy(64, 40),
    ) {
        let build = |s: &TurnstileStream| {
            let mut cs = countsketch(5);
            cs.process_stream(s);
            cs
        };
        let (a, b, c) = (build(&s1), build(&s2), build(&s3));

        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();

        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut right = a.clone();
        right.merge(&bc).unwrap();

        for item in 0..64u64 {
            prop_assert_eq!(left.estimate(item).to_bits(), right.estimate(item).to_bits());
        }
    }

    /// merge equals concatenation: merging shard sketches gives the sketch
    /// of the whole stream (the defining linearity law).
    #[test]
    fn ams_merge_equals_concatenation(
        s in stream_strategy(64, 80),
        seed in 0u64..500,
    ) {
        let mid = s.len() / 2;
        let (front, back) = s.updates().split_at(mid);

        let mut whole_ams = AmsF2Sketch::new(8, 3, seed).unwrap();
        whole_ams.process_stream(&s);
        let mut a = AmsF2Sketch::new(8, 3, seed).unwrap();
        a.update_batch(front);
        let mut b = AmsF2Sketch::new(8, 3, seed).unwrap();
        b.update_batch(back);
        a.merge(&b).unwrap();
        prop_assert_eq!(a.estimate_f2().to_bits(), whole_ams.estimate_f2().to_bits());
    }

    /// Sharded ingestion (2, 4, 8 shards) of a shuffled stream yields the
    /// identical estimate to single-threaded ingestion for the same seeds.
    #[test]
    fn sharded_ingestion_matches_single_threaded(
        s in stream_strategy(128, 120),
        shuffle_seed in 0u64..1000,
        sketch_seed in 0u64..1000,
    ) {
        let shuffled = s.shuffled(shuffle_seed);
        let prototype = countsketch(sketch_seed);

        let mut single = prototype.clone();
        single.process_stream(&shuffled);

        for shard_count in [2usize, 4, 8] {
            let merged = ShardedIngest::new(shard_count)
                .with_batch_size(16)
                .ingest(&mut shuffled.source(), &prototype)
                .unwrap();
            for item in 0..128u64 {
                prop_assert_eq!(
                    merged.estimate(item).to_bits(),
                    single.estimate(item).to_bits(),
                    "shards = {}, item = {}", shard_count, item
                );
            }
        }
    }

    /// The same sharded-vs-single agreement holds for the full one-pass
    /// g-SUM sketch (recursive sketch over Algorithm-2 levels).
    #[test]
    fn sharded_gsum_sketch_matches_single_threaded(
        s in stream_strategy(64, 80),
        seed in 0u64..200,
    ) {
        let config = GSumConfig::with_space_budget(64, 0.25, 32, seed);
        let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);

        let mut single = prototype.clone();
        single.process_stream(&s);

        for shard_count in [2usize, 4] {
            let mut merged = prototype.clone();
            for shard in shards(&s, shard_count) {
                let mut worker = prototype.clone();
                worker.update_batch(&shard);
                merged.merge(&worker).unwrap();
            }
            prop_assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
        }
    }

    /// Exact trackers obey the same law.
    #[test]
    fn exact_merge_equals_concatenation(s in stream_strategy(64, 80)) {
        let mid = s.len() / 2;
        let (front, back) = s.updates().split_at(mid);

        let mut whole = ExactFrequencies::new(64);
        whole.process_stream(&s);
        let mut a = ExactFrequencies::new(64);
        a.update_batch(front);
        let mut b = ExactFrequencies::new(64);
        b.update_batch(back);
        a.merge(&b).unwrap();
        prop_assert_eq!(a.vector(), whole.vector());
    }
}

/// Incompatible merges are rejected across the stack.
#[test]
fn incompatible_merges_are_rejected() {
    let mut cs = countsketch(1);
    assert!(cs.merge(&countsketch(2)).is_err());

    let mut ams = AmsF2Sketch::new(4, 3, 1).unwrap();
    assert!(ams.merge(&AmsF2Sketch::new(4, 3, 2).unwrap()).is_err());
    assert!(ams.merge(&AmsF2Sketch::new(8, 3, 1).unwrap()).is_err());

    let mut exact = ExactFrequencies::new(8);
    assert!(exact.merge(&ExactFrequencies::new(9)).is_err());

    let config = GSumConfig::with_space_budget(64, 0.2, 32, 1);
    let mut gs = OnePassGSumSketch::with_seed(PowerFunction::new(2.0), &config, 1);
    let other = OnePassGSumSketch::with_seed(PowerFunction::new(2.0), &config, 2);
    assert!(gs.merge(&other).is_err());
}

/// The acceptance criterion of the push-based refactor: a g-SUM estimate
/// computed by feeding updates one at a time through
/// `OnePassGSumSketch::update` — pulled from a lazy generator, never
/// constructing a `TurnstileStream` on the estimator side — matches
/// `OnePassGSum::estimate` on the materialized stream bit for bit for the
/// same seed.
#[test]
fn push_ingestion_from_lazy_source_matches_batch_estimator_bit_for_bit() {
    let domain = 1u64 << 9;
    let config = GSumConfig::with_space_budget(domain, 0.2, 128, 41);
    let g = PowerFunction::new(2.0);

    // Batch world: materialize the stream, run the wrapper.
    let stream = ZipfStreamGenerator::new(StreamConfig::new(domain, 10_000), 1.2, 17).generate();
    let batch = OnePassGSum::new(g, config.clone()).estimate(&stream);

    // Push world: pull updates lazily from an identically seeded generator
    // and push them into the long-lived sketch one at a time.
    let mut source = ZipfStreamGenerator::new(StreamConfig::new(domain, 10_000), 1.2, 17);
    let mut sketch = OnePassGSumSketch::new(g, &config);
    let mut pushed = 0usize;
    while let Some(u) = source.next_update() {
        sketch.update(u);
        pushed += 1;
    }
    assert_eq!(pushed, 10_000);
    assert_eq!(sketch.estimate().to_bits(), batch.to_bits());
}

/// `ShardedIngest` drives the full estimator stack end to end: generator →
/// sharded workers → merge → estimate, agreeing exactly with one thread.
#[test]
fn sharded_ingest_of_gsum_sketch_end_to_end() {
    let domain = 1u64 << 8;
    let config = GSumConfig::with_space_budget(domain, 0.2, 64, 29);
    let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);

    let mut gen = ZipfStreamGenerator::new(StreamConfig::new(domain, 20_000), 1.1, 3);
    let mut single = prototype.clone();
    gen.feed(&mut single);

    for shard_count in [2usize, 4, 8] {
        gen.reset();
        let merged = ShardedIngest::new(shard_count)
            .with_batch_size(512)
            .ingest(&mut gen, &prototype)
            .unwrap();
        assert_eq!(
            merged.estimate().to_bits(),
            single.estimate().to_bits(),
            "sharded ({shard_count}) g-SUM ingestion must match single-threaded"
        );
    }
}
