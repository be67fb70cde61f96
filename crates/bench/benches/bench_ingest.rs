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
//!   columns/signs.  Their ns/iter must sum to at most the
//!   `coalesced_full` row (which additionally pays the coalescing sort) —
//!   `check_bench_schema` enforces that, so a regression in either kernel
//!   is attributable from the artifact alone.
//! * `ams/eval_stage/{family}` — the AMS sign-hash evaluation stage in
//!   isolation (new in v6): one 320-counter sign bank — the shape the
//!   one-pass heavy hitter's `AmsF2Sketch` carries — evaluated over the
//!   coalesced keys with the item-outer block kernel, per sign family
//!   (`polynomial4` and `tabulation`).  This is the kernel hot-path round 4
//!   restructured, so the row makes a regression in the SoA/AVX-512 lowering
//!   attributable without rerunning the whole estimator.  The polynomial4
//!   row is bounded above by `onepass_gsum/coalesced_full/*` (the full
//!   pipeline pays at least one such bank pass), which `check_bench_schema`
//!   enforces.
//!
//! Besides the console table, the bench writes a machine-readable
//! `BENCH_ingest.json` at the workspace root (override the path with the
//! `BENCH_INGEST_JSON` env var) so CI can upload it and perf regressions are
//! visible per PR.  Set `BENCH_INGEST_QUICK=1` for a fast smoke run.

use gsum_core::{GSumConfig, OnePassGSumSketch};
use gsum_gfunc::library::PowerFunction;
use gsum_hash::{HashBackend, RowHasher, SignBank, SignFamily, SignHashBank};
use gsum_sketch::{CountSketch, CountSketchConfig};
use gsum_streams::{
    coalesce_updates, ShardedIngest, StreamConfig, StreamGenerator, StreamSink, TurnstileStream,
    ZipfStreamGenerator,
};
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

/// The git commit the bench ran against, so `BENCH_ingest.json` artifacts
/// are comparable across the PR trajectory.  Tries the `GITHUB_SHA` /
/// `BENCH_GIT_COMMIT` environment (CI), then `git rev-parse HEAD`, and
/// reports `"unknown"` when neither works (e.g. a source tarball).
fn git_commit() -> String {
    for var in ["BENCH_GIT_COMMIT", "GITHUB_SHA"] {
        if let Ok(sha) = std::env::var(var) {
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|sha| sha.trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
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

fn run<T>(
    results: &mut Vec<BenchResult>,
    name: &str,
    updates: usize,
    budget: Duration,
    setup: impl FnMut() -> T,
    routine: impl FnMut(T),
) {
    let (ns_per_iter, iterations) = measure(budget, setup, routine);
    let updates_per_sec = updates as f64 / (ns_per_iter / 1e9);
    println!(
        "{name:<44} {ns_per_iter:>14.0} ns/iter  {updates_per_sec:>12.3e} upd/s  ({iterations} iters)"
    );
    results.push(BenchResult {
        name: name.to_string(),
        ns_per_iter,
        updates_per_sec,
        iterations,
    });
}

fn countsketch(backend: HashBackend) -> CountSketch {
    CountSketch::new(CountSketchConfig::new(5, 1024).with_backend(backend), 3)
}

fn gsum_sketch(backend: HashBackend) -> OnePassGSumSketch<PowerFunction> {
    let config = GSumConfig::with_space_budget(DOMAIN, 0.2, 512, 11).with_hash_backend(backend);
    OnePassGSumSketch::new(PowerFunction::new(2.0), &config)
}

fn bench_countsketch(
    results: &mut Vec<BenchResult>,
    s: &TurnstileStream,
    updates: usize,
    budget: Duration,
) {
    for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
        let b = backend.name();
        run(
            results,
            &format!("countsketch/per_update/{b}"),
            updates,
            budget,
            || countsketch(backend),
            |mut cs| {
                for &u in s.iter() {
                    cs.update(u);
                }
                std::hint::black_box(&cs);
            },
        );
        run(
            results,
            &format!("countsketch/batched_chunks/{b}"),
            updates,
            budget,
            || countsketch(backend),
            |mut cs| {
                for chunk in s.updates().chunks(CHUNK) {
                    cs.update_batch(chunk);
                }
                std::hint::black_box(&cs);
            },
        );
        run(
            results,
            &format!("countsketch/coalesced_full/{b}"),
            updates,
            budget,
            || countsketch(backend),
            |mut cs| {
                cs.update_batch(s.updates());
                std::hint::black_box(&cs);
            },
        );
    }
    bench_stage_split(results, s, updates, budget);
    for shards in [2usize, 4] {
        run(
            results,
            &format!("countsketch/sharded_{shards}/polynomial"),
            updates,
            budget,
            || countsketch(HashBackend::Polynomial),
            |prototype| {
                let merged = ShardedIngest::new(shards)
                    .with_batch_size(2048)
                    .ingest(&mut s.source(), &prototype)
                    .unwrap();
                std::hint::black_box(&merged);
            },
        );
    }
}

/// Split the coalesced CountSketch hot loop at its precompute-then-apply
/// seam and time each half in isolation, per backend, over the same
/// coalesced workload `coalesced_full` ingests.  The hash stage runs the
/// batched `column_sign_batch` kernel for every row over the coalesced
/// keys; the apply stage scatters precomputed (column, sign) pairs into the
/// counter matrix with branchless signed deltas — the same i64 fast path
/// the sketch takes on small-magnitude streams.  The two halves bound the
/// `coalesced_full` row from below (it additionally pays the coalescing
/// sort), which `check_bench_schema` verifies.
fn bench_stage_split(
    results: &mut Vec<BenchResult>,
    s: &TurnstileStream,
    updates: usize,
    budget: Duration,
) {
    const ROWS: usize = 5;
    const COLUMNS: u64 = 1024;
    let coalesced = coalesce_updates(s.updates());
    let keys: Vec<u64> = coalesced.iter().map(|u| u.item).collect();
    let deltas: Vec<i64> = coalesced.iter().map(|u| u.delta).collect();
    for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
        let b = backend.name();
        let hashers: Vec<RowHasher> = (0..ROWS)
            .map(|row| RowHasher::new(backend, COLUMNS, row as u64))
            .collect();
        let mut cols: Vec<u32> = Vec::new();
        let mut signs: Vec<i64> = Vec::new();
        run(
            results,
            &format!("countsketch/hash_stage/{b}"),
            updates,
            budget,
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
        run(
            results,
            &format!("countsketch/apply_stage/{b}"),
            updates,
            budget,
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
fn bench_ams_eval_stage(
    results: &mut Vec<BenchResult>,
    s: &TurnstileStream,
    updates: usize,
    budget: Duration,
) {
    let coalesced = coalesce_updates(s.updates());
    let keys: Vec<u64> = coalesced.iter().map(|u| u.item).collect();
    for family in [SignFamily::Polynomial4, SignFamily::Tabulation] {
        let bank = SignBank::from_seed(family, 0xA115_F2F2, AMS_BANK_COUNTERS);
        let mut x1: Vec<u64> = Vec::new();
        let mut x2: Vec<u64> = Vec::new();
        let mut x3: Vec<u64> = Vec::new();
        let mut hv: Vec<u64> = Vec::new();
        let mut sign_bytes: Vec<u8> = Vec::new();
        run(
            results,
            &format!("ams/eval_stage/{}", family.name()),
            updates,
            budget,
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

fn bench_gsum(
    results: &mut Vec<BenchResult>,
    s: &TurnstileStream,
    updates: usize,
    budget: Duration,
) {
    for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
        let b = backend.name();
        run(
            results,
            &format!("onepass_gsum/per_update/{b}"),
            updates,
            budget,
            || gsum_sketch(backend),
            |mut sk| {
                for &u in s.iter() {
                    sk.update(u);
                }
                std::hint::black_box(&sk);
            },
        );
        run(
            results,
            &format!("onepass_gsum/batched_chunks/{b}"),
            updates,
            budget,
            || gsum_sketch(backend),
            |mut sk| {
                for chunk in s.updates().chunks(CHUNK) {
                    sk.update_batch(chunk);
                }
                std::hint::black_box(&sk);
            },
        );
        run(
            results,
            &format!("onepass_gsum/coalesced_full/{b}"),
            updates,
            budget,
            || gsum_sketch(backend),
            |mut sk| {
                sk.update_batch(s.updates());
                std::hint::black_box(&sk);
            },
        );
    }
    for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
        let b = backend.name();
        run(
            results,
            &format!("onepass_gsum/sharded_2/{b}"),
            updates,
            budget,
            || gsum_sketch(backend),
            |prototype| {
                let merged = ShardedIngest::new(2)
                    .with_batch_size(2048)
                    .ingest(&mut s.source(), &prototype)
                    .unwrap();
                std::hint::black_box(&merged);
            },
        );
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The headline speedup ratios the artifact carries alongside the raw rows.
struct Speedups {
    coalesced_vs_per_update: f64,
    tabulation_vs_polynomial: f64,
    gsum_coalesced_vs_per_update: f64,
    gsum_round4_vs_round3: f64,
}

fn write_json(
    path: &std::path::Path,
    results: &[BenchResult],
    updates: usize,
    quick: bool,
    speedups: &Speedups,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"bench_ingest\",\n");
    out.push_str("  \"schema_version\": 6,\n");
    // Provenance metadata: which commit produced these numbers, which hash
    // backends and coalescing modes the matrix swept, how many hardware
    // threads the host offered (sharded numbers are meaningless
    // without it — a single-core host measures channel overhead, not
    // speedup), and whether this was a quick smoke run — so the bench
    // trajectory across PRs is self-describing without consulting CI logs.
    // The backend and mode lists are collected from the recorded results,
    // so adding or dropping a bench variant keeps the meta honest without a
    // string literal to update.
    let distinct = |f: fn(&BenchResult) -> &str| {
        let mut seen: Vec<&str> = Vec::new();
        for r in results {
            let v = f(r);
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen.iter()
            .map(|v| format!("\"{}\"", json_escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str("  \"meta\": {\n");
    out.push_str(&format!(
        "    \"git_commit\": \"{}\",\n",
        json_escape(&git_commit())
    ));
    out.push_str(&format!(
        "    \"backends\": [{}],\n",
        distinct(BenchResult::backend)
    ));
    out.push_str(&format!(
        "    \"default_backend\": \"{}\",\n",
        HashBackend::default().name()
    ));
    out.push_str(&format!(
        "    \"coalescing_modes\": [{}],\n",
        distinct(BenchResult::mode)
    ));
    out.push_str(&format!(
        "    \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    out.push_str(&format!("    \"quick\": {quick}\n"));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"workload\": {{\"distribution\": \"zipf\", \"alpha\": {ZIPF_ALPHA}, \"domain\": {DOMAIN}, \"updates\": {updates}, \"chunk\": {CHUNK}}},\n"
    ));
    out.push_str(&format!(
        "  \"speedup_coalesced_vs_per_update\": {:.3},\n",
        speedups.coalesced_vs_per_update
    ));
    out.push_str(&format!(
        "  \"speedup_tabulation_vs_polynomial_per_update\": {:.3},\n",
        speedups.tabulation_vs_polynomial
    ));
    out.push_str(&format!(
        "  \"speedup_gsum_coalesced_vs_per_update\": {:.3},\n",
        speedups.gsum_coalesced_vs_per_update
    ));
    out.push_str(&format!(
        "  \"speedup_gsum_round4_vs_round3\": {:.3},\n",
        speedups.gsum_round4_vs_round3
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mode\": \"{}\", \"backend\": \"{}\", \"ns_per_iter\": {:.1}, \"updates_per_sec\": {:.1}, \"iterations\": {}}}{}\n",
            json_escape(&r.name),
            json_escape(r.mode()),
            json_escape(r.backend()),
            r.ns_per_iter,
            r.updates_per_sec,
            r.iterations,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Fetch a named result; a missing name is a bug in this bench (the name
/// tables drifted), and silently emitting NaN would corrupt the JSON
/// artifact CI uploads — fail loudly instead.
fn lookup(results: &[BenchResult], name: &str) -> f64 {
    results
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.ns_per_iter)
        .unwrap_or_else(|| panic!("bench result {name:?} missing — variant names drifted"))
}

/// Like [`lookup`], but returns the updates/sec rate — the unit the
/// cross-artifact round-over-round comparison is phrased in.
fn lookup_rate(results: &[BenchResult], name: &str) -> f64 {
    results
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.updates_per_sec)
        .unwrap_or_else(|| panic!("bench result {name:?} missing — variant names drifted"))
}

fn main() {
    let quick = std::env::var("BENCH_INGEST_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let (updates, budget) = if quick {
        (20_000usize, Duration::from_millis(60))
    } else {
        (50_000usize, Duration::from_millis(300))
    };
    let s = ZipfStreamGenerator::new(StreamConfig::new(DOMAIN, updates), ZIPF_ALPHA, 7).generate();

    let mut results = Vec::new();
    println!("bench_ingest: zipf({ZIPF_ALPHA}) domain={DOMAIN} updates={updates} quick={quick}\n");
    bench_countsketch(&mut results, &s, updates, budget);
    bench_ams_eval_stage(&mut results, &s, updates, budget);
    bench_gsum(&mut results, &s, updates, budget);

    let per_update = lookup(&results, "countsketch/per_update/polynomial");
    let coalesced = lookup(&results, "countsketch/coalesced_full/polynomial");
    let per_update_tab = lookup(&results, "countsketch/per_update/tabulation");
    let gsum_per_update = lookup(&results, "onepass_gsum/per_update/polynomial");
    let gsum_coalesced = lookup(&results, "onepass_gsum/coalesced_full/polynomial");
    let speedup = per_update / coalesced;
    let tab_speedup = per_update / per_update_tab;
    let gsum_speedup = gsum_per_update / gsum_coalesced;
    let round4_speedup = lookup_rate(&results, "onepass_gsum/coalesced_full/polynomial")
        / ROUND3_GSUM_COALESCED_UPD_PER_SEC;
    println!("\ncoalesced-batched vs per-update CountSketch speedup: {speedup:.2}x");
    println!("tabulation vs polynomial per-update speedup: {tab_speedup:.2}x");
    println!("coalesced vs per-update onepass_gsum speedup: {gsum_speedup:.2}x");
    println!("onepass_gsum coalesced_full, round 4 vs round 3 artifact: {round4_speedup:.2}x");

    let path = std::env::var("BENCH_INGEST_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingest.json")
        });
    let speedups = Speedups {
        coalesced_vs_per_update: speedup,
        tabulation_vs_polynomial: tab_speedup,
        gsum_coalesced_vs_per_update: gsum_speedup,
        gsum_round4_vs_round3: round4_speedup,
    };
    match write_json(&path, &results, updates, quick, &speedups) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
