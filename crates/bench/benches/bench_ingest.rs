//! Ingestion throughput: the hot-path matrix the repo's perf trajectory is
//! measured against.
//!
//! Variants, on the same Zipf(1.2) workload:
//!
//! * `per_update` — one `update` call per stream update (the baseline the
//!   division-free hashing speeds up).
//! * `batched_chunks` — `update_batch` in fixed-size chunks, the shape live
//!   ingestion has: per-chunk coalescing of duplicate items plus row-major
//!   counter walks.
//! * `coalesced_full` — one `update_batch` over the whole stream: the upper
//!   envelope of what coalescing buys (a Zipf head item is hashed once
//!   instead of thousands of times).
//! * `…/tabulation` — the same, with the tabulation hash backend instead of
//!   the polynomial family.
//! * `sharded_N` — `ShardedIngest` across N worker threads (wall-clock
//!   speedup needs a multi-core host; on one core it measures channel
//!   overhead).  The `onepass_gsum` sharded rows sweep both hash backends;
//!   the `countsketch` sharded rows run polynomial only (the backend sweep
//!   lives in the single-threaded countsketch rows).
//! * `hash_stage` / `apply_stage` — the coalesced CountSketch hot loop split
//!   at the precompute-then-apply seam: `hash_stage` runs only the batched
//!   `column_sign_batch` kernels over the coalesced keys (all rows),
//!   `apply_stage` only the signed counter scatter from precomputed
//!   columns/signs, so a regression in either kernel is attributable from
//!   the artifact alone.
//! * `ams/eval_stage/{family}` — the AMS sign-hash evaluation stage in
//!   isolation (new in v6): one 320-counter sign bank — the shape the
//!   one-pass heavy hitter's `AmsF2Sketch` carries — evaluated over the
//!   coalesced keys with the item-outer block kernel, per sign family
//!   (`polynomial4` and `tabulation`).  This is the kernel hot-path round 4
//!   restructured, so the row makes a regression in the SoA/AVX-512 lowering
//!   attributable without rerunning the whole estimator.
//!
//! Besides the console table, the bench writes `BENCH_ingest.json` at the
//! workspace root (override the path with the `BENCH_INGEST_JSON` env var)
//! so CI can gate and upload it.  Its fields, required rows and the
//! inequalities between rows are stated once, in the
//! `gsum_bench::artifact::INGEST` schema table.  Set `BENCH_INGEST_QUICK=1`
//! for a fast smoke run.  The bench exits non-zero if it cannot write.

use gsum_bench::artifact::{rounded, Artifact, INGEST};
use gsum_core::{GSumConfig, OnePassGSumSketch};
use gsum_gfunc::library::PowerFunction;
use gsum_hash::{HashBackend, RowHasher, SignBank, SignFamily, SignHashBank};
use gsum_sketch::{CountSketch, CountSketchConfig};
use gsum_streams::{
    coalesce_updates, MergeableSketch, ShardedIngest, StreamConfig, StreamGenerator, StreamSink,
    TurnstileStream, ZipfStreamGenerator,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const DOMAIN: u64 = 1 << 12;
/// Floor on measured iterations per variant, regardless of time budget.
const MIN_ITERATIONS: u64 = 8;
const ZIPF_ALPHA: f64 = 1.2;
const CHUNK: usize = 4096;

/// Counters in the sign bank the `ams/eval_stage` rows evaluate: the
/// 64 averages × 5 medians the one-pass heavy hitter's `AmsF2Sketch`
/// carries, so the row times exactly the bank shape the estimator pays.
const AMS_BANK_COUNTERS: usize = 64 * 5;

/// `onepass_gsum/coalesced_full/polynomial` updates/sec from the committed
/// hot-path round 3 artifact (PR 8's `BENCH_ingest.json`), the baseline the
/// `speedup_gsum_round4_vs_round3` field divides against.  A hardcoded
/// constant rather than a file read so the field stays finite and
/// meaningful even when the old artifact is no longer checked out.
const ROUND3_GSUM_COALESCED_UPD_PER_SEC: f64 = 6_512_090.0;

struct BenchResult {
    name: String,
    ns_per_iter: f64,
    updates_per_sec: f64,
    iterations: u64,
}

impl BenchResult {
    /// The coalescing mode, parsed from the `family/mode/backend` name —
    /// recorded per result so the JSON is self-describing.
    fn mode(&self) -> &str {
        self.name.split('/').nth(1).unwrap_or("unknown")
    }

    /// The hash backend, parsed from the variant name (the countsketch
    /// sharded variants run the polynomial backend only).
    fn backend(&self) -> &str {
        self.name.split('/').nth(2).unwrap_or("unknown")
    }
}

/// Time `routine` with a per-iteration `setup` whose cost (sketch
/// construction — for the tabulation backend that is filling 8 × 256
/// lookup tables per hash) is *excluded* from the measurement, so the
/// reported numbers are ingestion only.  One warm-up run, then as many
/// measured runs as fit in the budget, with a floor of
/// [`MIN_ITERATIONS`] so slow variants still average over enough runs for
/// `ns_per_iter` to be comparable across PRs (a 3-iteration sample was
/// dominated by scheduling noise).  Returns mean ns/iteration and the
/// iteration count.
fn measure<T>(
    budget: Duration,
    mut setup: impl FnMut() -> T,
    mut routine: impl FnMut(T),
) -> (f64, u64) {
    routine(setup());
    let mut measured = Duration::ZERO;
    let mut iterations = 0u64;
    let wall = Instant::now();
    while iterations < MIN_ITERATIONS || (wall.elapsed() < budget && iterations < 1_000_000) {
        let input = setup();
        let t = Instant::now();
        routine(input);
        measured += t.elapsed();
        iterations += 1;
    }
    (measured.as_nanos() as f64 / iterations as f64, iterations)
}

/// The workload every variant ingests, the time budget per variant, and
/// the rows measured so far.
struct Bench<'a> {
    s: &'a TurnstileStream,
    budget: Duration,
    results: Vec<BenchResult>,
}

impl Bench<'_> {
    /// Measure one variant (see [`measure`]) and record its row.
    fn run<T>(&mut self, name: &str, setup: impl FnMut() -> T, routine: impl FnMut(T)) {
        let (ns_per_iter, iterations) = measure(self.budget, setup, routine);
        let updates_per_sec = self.s.updates().len() as f64 / (ns_per_iter / 1e9);
        println!(
            "{name:<44} {ns_per_iter:>14.0} ns/iter  {updates_per_sec:>12.3e} upd/s  ({iterations} iters)"
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            ns_per_iter,
            updates_per_sec,
            iterations,
        });
    }
}

fn countsketch(backend: HashBackend) -> CountSketch {
    CountSketch::new(CountSketchConfig::new(5, 1024).with_backend(backend), 3)
}

fn gsum_sketch(backend: HashBackend) -> OnePassGSumSketch<PowerFunction> {
    let config = GSumConfig::with_space_budget(DOMAIN, 0.2, 512, 11).with_hash_backend(backend);
    OnePassGSumSketch::new(PowerFunction::new(2.0), &config)
}

/// The single-threaded modes of one sketch family across both backends:
/// one `update` per stream update, `update_batch` over fixed-size chunks,
/// and one `update_batch` over the whole stream.
fn bench_modes<S: StreamSink>(bench: &mut Bench, family: &str, make: fn(HashBackend) -> S) {
    let s = bench.s;
    for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
        let b = backend.name();
        bench.run(
            &format!("{family}/per_update/{b}"),
            || make(backend),
            |mut sk| {
                for &u in s.iter() {
                    sk.update(u);
                }
                std::hint::black_box(&sk);
            },
        );
        bench.run(
            &format!("{family}/batched_chunks/{b}"),
            || make(backend),
            |mut sk| {
                for chunk in s.updates().chunks(CHUNK) {
                    sk.update_batch(chunk);
                }
                std::hint::black_box(&sk);
            },
        );
        bench.run(
            &format!("{family}/coalesced_full/{b}"),
            || make(backend),
            |mut sk| {
                sk.update_batch(s.updates());
                std::hint::black_box(&sk);
            },
        );
    }
}

/// `ShardedIngest` across `shards` workers from a prototype sketch.
fn bench_sharded<S: StreamSink + MergeableSketch + Clone + Send>(
    bench: &mut Bench,
    name: &str,
    shards: usize,
    prototype: impl FnMut() -> S,
) {
    let s = bench.s;
    bench.run(name, prototype, |prototype| {
        let merged = ShardedIngest::new(shards)
            .with_batch_size(2048)
            .ingest(&mut s.source(), &prototype)
            .unwrap();
        std::hint::black_box(&merged);
    });
}

/// Split the coalesced CountSketch hot loop at its precompute-then-apply
/// seam and time each half in isolation, per backend, over the same
/// coalesced workload `coalesced_full` ingests.  The hash stage runs the
/// batched `column_sign_batch` kernel for every row over the coalesced
/// keys; the apply stage scatters precomputed (column, sign) pairs into the
/// counter matrix with branchless signed deltas — the same i64 fast path
/// the sketch takes on small-magnitude streams.  The two halves bound the
/// `coalesced_full` row from below (it additionally pays the coalescing
/// sort), which the artifact's schema checks.
fn bench_stage_split(bench: &mut Bench) {
    const ROWS: usize = 5;
    const COLUMNS: u64 = 1024;
    let coalesced = coalesce_updates(bench.s.updates());
    let keys: Vec<u64> = coalesced.iter().map(|u| u.item).collect();
    let deltas: Vec<i64> = coalesced.iter().map(|u| u.delta).collect();
    for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
        let b = backend.name();
        let hashers: Vec<RowHasher> = (0..ROWS)
            .map(|row| RowHasher::new(backend, COLUMNS, row as u64))
            .collect();
        let mut cols: Vec<u32> = Vec::new();
        let mut signs: Vec<i64> = Vec::new();
        bench.run(
            &format!("countsketch/hash_stage/{b}"),
            || (),
            |()| {
                for hasher in &hashers {
                    hasher.column_sign_batch(&keys, &mut cols, &mut signs);
                    std::hint::black_box((&cols, &signs));
                }
            },
        );
        // Precompute every row's columns and signed deltas once; the apply
        // stage then measures only the counter scatter.
        let precomputed: Vec<(Vec<u32>, Vec<i64>)> = hashers
            .iter()
            .map(|hasher| {
                let mut c = Vec::new();
                let mut sg = Vec::new();
                hasher.column_sign_batch(&keys, &mut c, &mut sg);
                let signed: Vec<i64> = sg
                    .iter()
                    .zip(&deltas)
                    .map(|(&sign, &delta)| {
                        let m = (sign - 1) >> 1;
                        (delta ^ m) - m
                    })
                    .collect();
                (c, signed)
            })
            .collect();
        bench.run(
            &format!("countsketch/apply_stage/{b}"),
            || vec![0.0f64; ROWS * COLUMNS as usize],
            |mut counters| {
                for (row, (row_cols, row_deltas)) in precomputed.iter().enumerate() {
                    let row_counters =
                        &mut counters[row * COLUMNS as usize..(row + 1) * COLUMNS as usize];
                    for (&col, &delta) in row_cols.iter().zip(row_deltas) {
                        row_counters[col as usize] += delta as f64;
                    }
                }
                std::hint::black_box(&counters);
            },
        );
    }
}

/// Time the AMS sign-hash evaluation stage in isolation, per sign family:
/// the item-outer block kernel of one heavy-hitter-shaped sign bank
/// ([`AMS_BANK_COUNTERS`] counters) over the coalesced keys, including the
/// per-item key-power precompute the polynomial family pays (that is part
/// of the stage in the real `update_batch` hot loop).  Scratch buffers are
/// reused across iterations exactly as `AmsScratch` reuses them, so the
/// row measures steady-state kernel cost, not allocation.
fn bench_ams_eval_stage(bench: &mut Bench) {
    let coalesced = coalesce_updates(bench.s.updates());
    let keys: Vec<u64> = coalesced.iter().map(|u| u.item).collect();
    for family in [SignFamily::Polynomial4, SignFamily::Tabulation] {
        let bank = SignBank::from_seed(family, 0xA115_F2F2, AMS_BANK_COUNTERS);
        let mut x1: Vec<u64> = Vec::new();
        let mut x2: Vec<u64> = Vec::new();
        let mut x3: Vec<u64> = Vec::new();
        let mut hv: Vec<u64> = Vec::new();
        let mut sign_bytes: Vec<u8> = Vec::new();
        bench.run(
            &format!("ams/eval_stage/{}", family.name()),
            || (),
            |()| {
                match &bank {
                    SignBank::Polynomial(bank) => {
                        x1.clear();
                        x2.clear();
                        x3.clear();
                        for &key in &keys {
                            let (p1, p2, p3) = SignHashBank::key_powers(key);
                            x1.push(p1);
                            x2.push(p2);
                            x3.push(p3);
                        }
                        bank.eval_block(&x1, &x2, &x3, &mut sign_bytes);
                    }
                    SignBank::Tabulation(bank) => {
                        bank.eval_block(&keys, &mut hv, &mut sign_bytes);
                    }
                }
                std::hint::black_box(&sign_bytes);
            },
        );
    }
}

/// Fetch a named result; a missing name is a bug in this bench (the name
/// tables drifted), and silently emitting NaN would corrupt the JSON
/// artifact CI uploads — fail loudly instead.
fn lookup<'a>(results: &'a [BenchResult], name: &str) -> &'a BenchResult {
    results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("bench result {name:?} missing — variant names drifted"))
}

/// The distinct values of one name part, in first-seen order, so the
/// `meta` lists follow the recorded rows without a literal to update.
fn distinct(results: &[BenchResult], part: fn(&BenchResult) -> &str) -> Vec<&str> {
    let mut seen = Vec::new();
    for r in results {
        if !seen.contains(&part(r)) {
            seen.push(part(r));
        }
    }
    seen
}

fn main() -> ExitCode {
    let quick = std::env::var("BENCH_INGEST_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let (updates, budget) = if quick {
        (20_000usize, Duration::from_millis(60))
    } else {
        (50_000usize, Duration::from_millis(300))
    };
    let s = ZipfStreamGenerator::new(StreamConfig::new(DOMAIN, updates), ZIPF_ALPHA, 7).generate();

    println!("bench_ingest: zipf({ZIPF_ALPHA}) domain={DOMAIN} updates={updates} quick={quick}\n");
    let mut bench = Bench {
        s: &s,
        budget,
        results: Vec::new(),
    };
    bench_modes(&mut bench, "countsketch", countsketch);
    bench_stage_split(&mut bench);
    for shards in [2, 4] {
        let name = format!("countsketch/sharded_{shards}/polynomial");
        bench_sharded(&mut bench, &name, shards, || {
            countsketch(HashBackend::Polynomial)
        });
    }
    bench_ams_eval_stage(&mut bench);
    bench_modes(&mut bench, "onepass_gsum", gsum_sketch);
    for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
        let name = format!("onepass_gsum/sharded_2/{}", backend.name());
        bench_sharded(&mut bench, &name, 2, || gsum_sketch(backend));
    }
    let results = bench.results;

    let ns = |name| lookup(&results, name).ns_per_iter;
    let ratio = |slow, fast| rounded(ns(slow) / ns(fast), 3);
    let cs_per_update = "countsketch/per_update/polynomial";
    let speedup = ratio(cs_per_update, "countsketch/coalesced_full/polynomial");
    let tab_speedup = ratio(cs_per_update, "countsketch/per_update/tabulation");
    let gsum_speedup = ratio(
        "onepass_gsum/per_update/polynomial",
        "onepass_gsum/coalesced_full/polynomial",
    );
    let gsum_rate = lookup(&results, "onepass_gsum/coalesced_full/polynomial").updates_per_sec;
    let round4_speedup = rounded(gsum_rate / ROUND3_GSUM_COALESCED_UPD_PER_SEC, 3);
    println!("\ncoalesced-batched vs per-update CountSketch speedup: {speedup:.2}x");
    println!("tabulation vs polynomial per-update speedup: {tab_speedup:.2}x");
    println!("coalesced vs per-update onepass_gsum speedup: {gsum_speedup:.2}x");
    println!("onepass_gsum coalesced_full, round 4 vs round 3 artifact: {round4_speedup:.2}x");

    let modes = distinct(&results, BenchResult::mode);
    Artifact {
        schema: &INGEST,
        quick,
        meta: vec![
            ("backends", distinct(&results, BenchResult::backend).into()),
            ("default_backend", HashBackend::default().name().into()),
            ("coalescing_modes", modes.into()),
        ],
        workload: vec![
            ("distribution", "zipf".into()),
            ("alpha", ZIPF_ALPHA.into()),
            ("domain", DOMAIN.into()),
            ("updates", updates.into()),
            ("chunk", CHUNK.into()),
        ],
        summary: vec![
            ("speedup_coalesced_vs_per_update", speedup.into()),
            (
                "speedup_tabulation_vs_polynomial_per_update",
                tab_speedup.into(),
            ),
            ("speedup_gsum_coalesced_vs_per_update", gsum_speedup.into()),
            ("speedup_gsum_round4_vs_round3", round4_speedup.into()),
        ],
        rows: results
            .iter()
            .map(|r| {
                vec![
                    ("name", r.name.as_str().into()),
                    ("mode", r.mode().into()),
                    ("backend", r.backend().into()),
                    ("ns_per_iter", rounded(r.ns_per_iter, 1).into()),
                    ("updates_per_sec", rounded(r.updates_per_sec, 1).into()),
                    ("iterations", r.iterations.into()),
                ]
            })
            .collect(),
    }
    .save()
}
