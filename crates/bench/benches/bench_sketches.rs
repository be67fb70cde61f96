//! Throughput of the sketch substrates: CountSketch / AMS updates
//! and CountSketch heavy-hitter extraction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gsum_sketch::{AmsF2Sketch, CountSketch, CountSketchConfig, StreamSink};
use gsum_streams::{StreamConfig, StreamGenerator, ZipfStreamGenerator};

fn stream() -> gsum_streams::TurnstileStream {
    ZipfStreamGenerator::new(StreamConfig::new(1 << 12, 50_000), 1.2, 7).generate()
}

fn bench_updates(c: &mut Criterion) {
    let s = stream();
    let mut group = c.benchmark_group("sketch_update_50k");
    group.bench_function("countsketch_5x1024", |b| {
        b.iter_batched(
            || CountSketch::new(CountSketchConfig::new(5, 1024), 3),
            |mut cs| cs.process_stream(&s),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("ams_64x5", |b| {
        b.iter_batched(
            || AmsF2Sketch::new(64, 5, 3).unwrap(),
            |mut ams| ams.process_stream(&s),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let s = stream();
    let mut cs = CountSketch::new(CountSketchConfig::new(5, 1024), 3);
    cs.process_stream(&s);
    c.bench_function("countsketch_top64_of_4096", |b| {
        b.iter(|| cs.top_candidates(0..(1u64 << 12), 64))
    });
}

criterion_group!(benches, bench_updates, bench_extraction);
criterion_main!(benches);
