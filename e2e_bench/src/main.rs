//! End-to-end serving benchmark.
//!
//! ```text
//! e2e_bench --workload <ingest|query|mixed> --seed <n> --seconds <n> --trace <0|1>
//! e2e_bench --selfcheck <K> [--workload <w>] [--seed <n>] [--seconds <n>]
//! e2e_bench serve --domain <n> --sketch-seed <n> --checkpoint <path>
//! ```
//!
//! The first form runs one workload once (all three, one after another,
//! when `--workload` is left out) and prints, last on stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`.  It exits non-zero when any operation failed or any answer
//! differed from the in-process replay.  The second runs each workload K
//! times on one seed and prints each end-to-end metric's median and
//! quartiles, flagging a spread wider than its bound as unresolved.  The
//! third is the server launcher the first two spawn.
//!
//! Scratch files go to `.bench_tmp/` and results (provenance, spans,
//! per-layer rows) to `.bench_out/`, both under the working directory.

use gsum_e2e_bench::report::{self, Measured, END_TO_END};
use gsum_e2e_bench::stats::{median, nearest_rank, quartiles, relative_spread};
use gsum_e2e_bench::workload::{Plan, Workload};
use gsum_e2e_bench::{ledger, run, server};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: false,
        selfcheck: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                out.workloads = vec![w];
            }
            "--seed" => out.seed = num()?,
            "--seconds" => out.seconds = num()?.clamp(1, 60),
            "--trace" => out.trace = num()? != 0,
            "--selfcheck" => out.selfcheck = Some(num()?.max(2) as usize),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

/// A per-run scratch directory under `.bench_tmp/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    Ok(dir)
}

/// One run of one workload: the result line's parts.
fn run_once(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let tag = format!("{}-{seed}", workload.name());
    let scratch = Scratch::new(&tag)?;
    let plan = Plan::new(workload, seed, seconds);
    let outcome = run::run(&plan, &scratch.0)?;
    let e2e = report::end_to_end(&outcome);
    let mut correct = outcome.failed == 0;
    for f in &outcome.failures {
        eprintln!("failed: {f}");
    }
    if outcome.stale_acks > 0 {
        eprintln!(
            "{} OK acks lagged a concurrent EST flush",
            outcome.stale_acks
        );
    }

    let provenance = report::provenance(&plan, seconds, trace, &e2e, outcome.stale_acks);
    println!("{provenance}");
    for m in &e2e {
        println!("{}", report::describe(m));
    }
    if let Some((p50, _)) = nearest_rank(&outcome.est_ms, 50) {
        println!("est_ms_p50 {p50:>25.6} ms  (printed, not bounded)");
    }
    let errors: Vec<String> = outcome
        .rel_err
        .iter()
        .map(|(tag, e)| format!("{tag} {e:.6}"))
        .collect();
    println!(
        "rel_err_max {:.6} ratio  ({})",
        report::rel_err_max(&outcome),
        errors.join(", ")
    );
    println!(
        "failed_frac {:.6} ratio  ({} of {} ops)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let out = out_dir()?;
    std::fs::write(out.join(format!("provenance-{tag}.json")), &provenance)
        .map_err(|e| e.to_string())?;
    let samples = |name: &str, v: &[f64]| {
        let body: Vec<String> = v.iter().map(f64::to_string).collect();
        format!("\"{name}\": [{}]", body.join(", "))
    };
    std::fs::write(
        out.join(format!("samples-{tag}.json")),
        format!(
            "{{{}, {}, {}, {}}}\n",
            samples("stream_ms", &outcome.stream_ms),
            samples("est_ms", &outcome.est_ms),
            samples("setup_s", &outcome.setup_s),
            samples("lag_ms", &outcome.lag_ms)
        ),
    )
    .map_err(|e| e.to_string())?;

    let metrics: Vec<(&str, f64, &str)> = if trace {
        let spans = out.join(format!("spans-{tag}.jsonl"));
        let (rows, matched) = ledger::measure(&plan, &outcome, &scratch.0, &spans)?;
        if !matched {
            eprintln!("the decomposed EST ledger does not reproduce the registry's estimate");
            correct = false;
        }
        let table: String = rows
            .iter()
            .map(|(n, v, u)| format!("{}\t{n}\t{v}\t{u}\n", workload.name()))
            .collect();
        std::fs::write(out.join(format!("layers-{tag}.tsv")), &table).map_err(|e| e.to_string())?;
        for (n, v, u) in &rows {
            println!("{n:<38} {v:>14.6} {u}");
        }
        rows
    } else {
        e2e.iter().map(|m| (m.name, m.value, m.unit)).collect()
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("metric {name} is not a finite number");
        correct = false;
    }
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}

/// Run each workload `k` times on one seed; print each end-to-end metric's
/// median and quartiles, flag spreads wider than the bound as unresolved,
/// and require the deterministic metrics to be bit-identical.
fn selfcheck(args: &Args, k: usize) -> Result<bool, String> {
    let mut ok = true;
    for &w in &args.workloads {
        let mut runs: Vec<Vec<Measured>> = Vec::with_capacity(k);
        let mut errors: Vec<Vec<u64>> = Vec::with_capacity(k);
        for i in 0..k {
            let scratch = Scratch::new(&format!("selfcheck-{}-{i}", w.name()))?;
            let plan = Plan::new(w, args.seed, args.seconds);
            let outcome = run::run(&plan, &scratch.0)?;
            if outcome.failed > 0 {
                eprintln!("{} run {i}: {} failed ops", w.name(), outcome.failed);
                ok = false;
            }
            runs.push(report::end_to_end(&outcome));
            errors.push(outcome.rel_err.iter().map(|(_, e)| e.to_bits()).collect());
        }
        println!("workload {} (seed {}, {k} runs)", w.name(), args.seed);
        for (j, d) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r[j].value).collect();
            let med = median(&values).unwrap_or(f64::NAN);
            let (q1, q3) = quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
            let spread = relative_spread(&values).unwrap_or(f64::NAN);
            let verdict = if d.deterministic {
                if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
                    "identical"
                } else {
                    ok = false;
                    "NOT IDENTICAL"
                }
            } else if spread > d.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "  {:<20} median {med:>14.6} {:<7} q1 {q1:>14.6} q3 {q3:>14.6} spread {spread:.4} bound {} {verdict}",
                d.name, d.unit, d.bound
            );
        }
        let identical = errors.iter().all(|e| *e == errors[0]);
        ok &= identical;
        println!(
            "  {:<20} {}",
            "rel_err (per function)",
            if identical {
                "identical"
            } else {
                "NOT IDENTICAL"
            }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match server::launch(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match parsed.selfcheck {
        Some(k) => selfcheck(&parsed, k),
        None => parsed.workloads.iter().try_fold(true, |ok, &w| {
            Ok(run_once(w, parsed.seed, parsed.seconds, parsed.trace)? && ok)
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
