//! CI gate: validate committed bench artifacts against their schemas.
//!
//! The throughput benches write machine-readable artifacts that CI uploads
//! per PR; the whole point of those trajectories is comparability, so schema
//! drift (a dropped `meta` block, a result missing its `mode`/`backend`
//! fields, a NaN that corrupts the numbers) must fail the build rather than
//! ship a silently unusable artifact.  This binary parses the JSON with the
//! in-tree parser (no external deps) and dispatches on the top-level
//! `bench` field.
//!
//! For `bench_ingest` (schema v6) it checks:
//!
//! * top level: `schema_version == 6`, a `workload` object, finite positive
//!   `speedup_*` summary fields (including
//!   `speedup_gsum_coalesced_vs_per_update`, new in v4 — the
//!   recursive-sketch hot path is the number the perf trajectory is about —
//!   and `speedup_gsum_round4_vs_round3`, new in v6: the headline
//!   `onepass_gsum/coalesced_full/polynomial` rate against the committed
//!   round-3 artifact's, so the round-over-round claim is a checked number
//!   in the artifact rather than prose);
//! * `meta`: non-empty `git_commit`, non-empty `backends` and
//!   `coalescing_modes` string arrays, a `default_backend` contained in
//!   `backends`, an integral `available_parallelism ≥ 1` (new in v3 —
//!   sharded numbers are uninterpretable without the host's
//!   hardware-thread count), boolean `quick`;
//! * `results`: non-empty; every entry carries `name` (shaped
//!   `family/mode/backend`), `mode` and `backend` fields that agree with the
//!   name and with the `meta` lists, finite positive `ns_per_iter` /
//!   `updates_per_sec`, and an integral `iterations ≥ 1`;
//! * required rows: the `onepass_gsum` whole-batch and parallel variants
//!   across *both* hash backends, the countsketch `hash_stage` /
//!   `apply_stage` stage-split rows and the `coalesced_full` rows they
//!   decompose (v5), plus (new in v6) the `ams/eval_stage/{family}` rows
//!   for both sign families ([`REQUIRED_RESULTS`]) — so neither the
//!   headline estimator's ingestion numbers nor the stage-attribution rows
//!   can silently drop out of the artifact;
//! * stage-split sanity (new in v5): per backend, `hash_stage` plus
//!   `apply_stage` ns/iter must not exceed the `coalesced_full` row (plus a
//!   small timer-noise tolerance) — the whole pipeline also pays the
//!   coalescing sort the stage rows skip, so a sum above the total means
//!   the rows measure different workloads and the attribution is wrong;
//! * AMS stage sanity (new in v6): `ams/eval_stage/polynomial4` ns/iter
//!   must not exceed the `onepass_gsum/coalesced_full/polynomial` row (plus
//!   the same tolerance) — the full pipeline pays at least one pass of that
//!   sign bank over the coalesced keys, so an eval-stage row above the
//!   whole-pipeline row means the rows measure different workloads.
//!
//! For `bench_serve` (schema v2) it checks:
//!
//! * top level: `schema_version == 2` and a `workload` object;
//! * `meta`: non-empty `git_commit`, integral `workers ≥ 1` and
//!   `max_connections ≥ 1` (the reactor knobs the numbers were taken
//!   under), non-empty `policy`, a `functions` string array with at least
//!   two entries (new in v2 — the bench serves a multi-function estimator
//!   registry, and the per-function rows are unreadable without the
//!   names), integral `available_parallelism ≥ 1`, boolean `quick`;
//! * `results`: non-empty; every row carries a non-empty `name` and `unit`,
//!   a `kind` that is `"throughput"` or `"latency"`, a finite positive
//!   `value`, and an integral `samples ≥ 1`;
//! * required rows ([`REQUIRED_SERVE_RESULTS`]): connections/sec, the
//!   concurrent-ingest throughput row, and the p99 `EST`/`COUNT` latency
//!   rows — plus (new in v2) a `serve/est_latency_p99/<function>` row for
//!   every name in `meta.functions`, so the named-estimator path can
//!   never silently drop out of the artifact;
//! * every `*_latency_p50*` row's value must not exceed its `p99`
//!   counterpart, including the per-function pairs (a swapped pair is the
//!   easiest way to ship a wrong artifact that still parses).
//!
//! Usage: `check_bench_schema [path]` (default: `$BENCH_INGEST_JSON`, then
//! `./BENCH_ingest.json`).  Exits non-zero listing every violation.

use gsum_bench::json::{parse_json, JsonValue};
use std::path::PathBuf;
use std::process::ExitCode;

/// The `bench_ingest` schema version this gate understands.
const EXPECTED_SCHEMA_VERSION: f64 = 6.0;

/// The `bench_serve` schema version this gate understands.
const EXPECTED_SERVE_SCHEMA_VERSION: f64 = 2.0;

/// Result rows that must be present in a v6 artifact: the recursive-sketch
/// hot-path variants across both hash backends, the countsketch
/// stage-split rows and the `coalesced_full` totals they decompose, and
/// the AMS sign-kernel rows for both sign families.
const REQUIRED_RESULTS: [&str; 12] = [
    "ams/eval_stage/polynomial4",
    "ams/eval_stage/tabulation",
    "onepass_gsum/coalesced_full/polynomial",
    "onepass_gsum/coalesced_full/tabulation",
    "onepass_gsum/sharded_2/polynomial",
    "onepass_gsum/sharded_2/tabulation",
    "countsketch/coalesced_full/polynomial",
    "countsketch/coalesced_full/tabulation",
    "countsketch/hash_stage/polynomial",
    "countsketch/hash_stage/tabulation",
    "countsketch/apply_stage/polynomial",
    "countsketch/apply_stage/tabulation",
];

/// Timer-noise headroom for the stage-split sanity rule: the stage rows and
/// the whole-pipeline row are measured independently, so their means can
/// jitter a few percent on a loaded CI host even though the inequality
/// holds in expectation (the whole pipeline additionally pays the
/// coalescing sort).
const STAGE_SUM_TOLERANCE: f64 = 1.05;

/// Result rows that must be present in a serve v2 artifact: the headline
/// reactor serving numbers.  Per-function `EST` latency rows are required
/// on top of these, one `serve/est_latency_p99/<function>` row per name in
/// `meta.functions`.
const REQUIRED_SERVE_RESULTS: [&str; 4] = [
    "serve/connections_per_sec",
    "serve/ingest_updates_per_sec/clients_4",
    "serve/est_latency_p99",
    "serve/count_latency_p99",
];

struct Violations(Vec<String>);

impl Violations {
    fn push(&mut self, v: impl Into<String>) {
        self.0.push(v.into());
    }
}

fn str_field<'a>(
    obj: &'a JsonValue,
    key: &str,
    where_: &str,
    out: &mut Violations,
) -> Option<&'a str> {
    match obj.get(key).and_then(JsonValue::as_str) {
        Some(s) if !s.is_empty() => Some(s),
        Some(_) => {
            out.push(format!("{where_}: \"{key}\" is empty"));
            None
        }
        None => {
            out.push(format!("{where_}: missing string field \"{key}\""));
            None
        }
    }
}

fn positive_number(obj: &JsonValue, key: &str, where_: &str, out: &mut Violations) -> Option<f64> {
    match obj.get(key).and_then(JsonValue::as_f64) {
        Some(n) if n.is_finite() && n > 0.0 => Some(n),
        Some(n) => {
            out.push(format!(
                "{where_}: \"{key}\" must be finite and > 0, got {n}"
            ));
            None
        }
        None => {
            out.push(format!("{where_}: missing numeric field \"{key}\""));
            None
        }
    }
}

fn string_list(obj: &JsonValue, key: &str, where_: &str, out: &mut Violations) -> Vec<String> {
    let Some(items) = obj.get(key).and_then(JsonValue::as_array) else {
        out.push(format!("{where_}: missing array field \"{key}\""));
        return Vec::new();
    };
    if items.is_empty() {
        out.push(format!("{where_}: \"{key}\" must not be empty"));
    }
    items
        .iter()
        .enumerate()
        .filter_map(|(i, v)| match v.as_str() {
            Some(s) => Some(s.to_string()),
            None => {
                out.push(format!("{where_}: \"{key}\"[{i}] is not a string"));
                None
            }
        })
        .collect()
}

fn check_meta(root: &JsonValue, out: &mut Violations) -> (Vec<String>, Vec<String>) {
    let Some(meta) = root.get("meta") else {
        out.push("missing \"meta\" provenance block (required since schema v2)");
        return (Vec::new(), Vec::new());
    };
    if !matches!(meta, JsonValue::Object(_)) {
        out.push("\"meta\" is not an object");
        return (Vec::new(), Vec::new());
    }
    str_field(meta, "git_commit", "meta", out);
    let backends = string_list(meta, "backends", "meta", out);
    let modes = string_list(meta, "coalescing_modes", "meta", out);
    if let Some(default) = str_field(meta, "default_backend", "meta", out) {
        if !backends.is_empty() && !backends.iter().any(|b| b == default) {
            out.push(format!(
                "meta: default_backend {default:?} is not in backends {backends:?}"
            ));
        }
    }
    if meta.get("quick").and_then(JsonValue::as_bool).is_none() {
        out.push("meta: missing boolean field \"quick\"");
    }
    match meta
        .get("available_parallelism")
        .and_then(JsonValue::as_f64)
    {
        Some(n) if n >= 1.0 && n.fract() == 0.0 => {}
        Some(n) => out.push(format!(
            "meta: available_parallelism must be an integer ≥ 1, got {n}"
        )),
        None => {
            out.push("meta: missing numeric field \"available_parallelism\" (required since v3)")
        }
    }
    (backends, modes)
}

fn check_result(
    result: &JsonValue,
    index: usize,
    backends: &[String],
    modes: &[String],
    out: &mut Violations,
) {
    let where_ = format!("results[{index}]");
    let name = str_field(result, "name", &where_, out);
    let mode = str_field(result, "mode", &where_, out);
    let backend = str_field(result, "backend", &where_, out);

    if let Some(name) = name {
        let parts: Vec<&str> = name.split('/').collect();
        if parts.len() != 3 || parts.iter().any(|p| p.is_empty()) {
            out.push(format!(
                "{where_}: name {name:?} is not shaped family/mode/backend"
            ));
        } else {
            if let Some(mode) = mode {
                if mode != parts[1] {
                    out.push(format!(
                        "{where_}: mode {mode:?} disagrees with name {name:?}"
                    ));
                }
            }
            if let Some(backend) = backend {
                if backend != parts[2] {
                    out.push(format!(
                        "{where_}: backend {backend:?} disagrees with name {name:?}"
                    ));
                }
            }
        }
    }
    if let Some(mode) = mode {
        if !modes.is_empty() && !modes.iter().any(|m| m == mode) {
            out.push(format!(
                "{where_}: mode {mode:?} is not in meta.coalescing_modes"
            ));
        }
    }
    if let Some(backend) = backend {
        if !backends.is_empty() && !backends.iter().any(|b| b == backend) {
            out.push(format!(
                "{where_}: backend {backend:?} is not in meta.backends"
            ));
        }
    }
    positive_number(result, "ns_per_iter", &where_, out);
    positive_number(result, "updates_per_sec", &where_, out);
    match result.get("iterations").and_then(JsonValue::as_f64) {
        Some(n) if n >= 1.0 && n.fract() == 0.0 => {}
        Some(n) => out.push(format!(
            "{where_}: iterations must be an integer ≥ 1, got {n}"
        )),
        None => out.push(format!("{where_}: missing numeric field \"iterations\"")),
    }
}

/// Check that `obj[key]` is an integral number ≥ 1 (counts serialized
/// through the float-only JSON number type).
fn integral_count(obj: &JsonValue, key: &str, where_: &str, out: &mut Violations) {
    match obj.get(key).and_then(JsonValue::as_f64) {
        Some(n) if n >= 1.0 && n.fract() == 0.0 => {}
        Some(n) => out.push(format!(
            "{where_}: \"{key}\" must be an integer ≥ 1, got {n}"
        )),
        None => out.push(format!("{where_}: missing numeric field \"{key}\"")),
    }
}

fn validate_ingest(root: &JsonValue) -> Violations {
    let mut out = Violations(Vec::new());

    match root.get("schema_version").and_then(JsonValue::as_f64) {
        Some(v) if v == EXPECTED_SCHEMA_VERSION => {}
        Some(v) => out.push(format!(
            "schema_version is {v}, this gate validates v{EXPECTED_SCHEMA_VERSION}"
        )),
        None => out.push("missing numeric field \"schema_version\""),
    }
    if !matches!(root.get("workload"), Some(JsonValue::Object(_))) {
        out.push("missing \"workload\" object");
    }
    positive_number(
        root,
        "speedup_coalesced_vs_per_update",
        "top level",
        &mut out,
    );
    positive_number(
        root,
        "speedup_tabulation_vs_polynomial_per_update",
        "top level",
        &mut out,
    );
    positive_number(
        root,
        "speedup_gsum_coalesced_vs_per_update",
        "top level",
        &mut out,
    );
    positive_number(root, "speedup_gsum_round4_vs_round3", "top level", &mut out);

    let (backends, modes) = check_meta(root, &mut out);

    match root.get("results").and_then(JsonValue::as_array) {
        Some([]) => out.push("\"results\" must not be empty"),
        Some(results) => {
            for (i, result) in results.iter().enumerate() {
                check_result(result, i, &backends, &modes, &mut out);
            }
            for required in REQUIRED_RESULTS {
                let present = results
                    .iter()
                    .any(|r| r.get("name").and_then(JsonValue::as_str) == Some(required));
                if !present {
                    out.push(format!(
                        "results: required row {required:?} is missing (required since v5)"
                    ));
                }
            }
            let ns_of = |name: &str| {
                results
                    .iter()
                    .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
                    .and_then(|r| r.get("ns_per_iter"))
                    .and_then(JsonValue::as_f64)
            };
            for backend in ["polynomial", "tabulation"] {
                let hash = ns_of(&format!("countsketch/hash_stage/{backend}"));
                let apply = ns_of(&format!("countsketch/apply_stage/{backend}"));
                let total = ns_of(&format!("countsketch/coalesced_full/{backend}"));
                if let (Some(hash), Some(apply), Some(total)) = (hash, apply, total) {
                    if hash + apply > total * STAGE_SUM_TOLERANCE {
                        out.push(format!(
                            "results: {backend} hash_stage + apply_stage ({:.1} ns) exceeds \
                             coalesced_full ({total:.1} ns) — stage rows must decompose the \
                             whole-pipeline row",
                            hash + apply
                        ));
                    }
                }
            }
            // The onepass_gsum pipeline pays at least one pass of the
            // default (polynomial4) AMS sign bank over the coalesced keys,
            // so the isolated eval-stage row must sit below the
            // whole-pipeline row.  The tabulation-family row has no full
            // counterpart (the full rows sweep the *hash* backend, the
            // sign family stays at its default), so only presence and
            // finiteness apply to it.
            if let (Some(eval), Some(total)) = (
                ns_of("ams/eval_stage/polynomial4"),
                ns_of("onepass_gsum/coalesced_full/polynomial"),
            ) {
                if eval > total * STAGE_SUM_TOLERANCE {
                    out.push(format!(
                        "results: ams/eval_stage/polynomial4 ({eval:.1} ns) exceeds \
                         onepass_gsum/coalesced_full/polynomial ({total:.1} ns) — the \
                         isolated sign-kernel row must bound the whole-pipeline row \
                         from below"
                    ));
                }
            }
        }
        None => out.push("missing \"results\" array"),
    }
    out
}

fn check_serve_result(result: &JsonValue, index: usize, out: &mut Violations) {
    let where_ = format!("results[{index}]");
    str_field(result, "name", &where_, out);
    str_field(result, "unit", &where_, out);
    match str_field(result, "kind", &where_, out) {
        Some("throughput" | "latency") | None => {}
        Some(kind) => out.push(format!(
            "{where_}: kind {kind:?} is not \"throughput\" or \"latency\""
        )),
    }
    positive_number(result, "value", &where_, out);
    integral_count(result, "samples", &where_, out);
}

fn validate_serve(root: &JsonValue) -> Violations {
    let mut out = Violations(Vec::new());

    match root.get("schema_version").and_then(JsonValue::as_f64) {
        Some(v) if v == EXPECTED_SERVE_SCHEMA_VERSION => {}
        Some(v) => out.push(format!(
            "schema_version is {v}, this gate validates serve v{EXPECTED_SERVE_SCHEMA_VERSION}"
        )),
        None => out.push("missing numeric field \"schema_version\""),
    }
    if !matches!(root.get("workload"), Some(JsonValue::Object(_))) {
        out.push("missing \"workload\" object");
    }

    let mut functions = Vec::new();
    match root.get("meta") {
        Some(meta @ JsonValue::Object(_)) => {
            str_field(meta, "git_commit", "meta", &mut out);
            str_field(meta, "policy", "meta", &mut out);
            integral_count(meta, "workers", "meta", &mut out);
            integral_count(meta, "max_connections", "meta", &mut out);
            integral_count(meta, "available_parallelism", "meta", &mut out);
            if meta.get("quick").and_then(JsonValue::as_bool).is_none() {
                out.push("meta: missing boolean field \"quick\"");
            }
            functions = string_list(meta, "functions", "meta", &mut out);
            if functions.len() == 1 {
                out.push(
                    "meta: \"functions\" must list at least two registered estimators \
                     (required since serve v2)",
                );
            }
        }
        Some(_) => out.push("\"meta\" is not an object"),
        None => out.push("missing \"meta\" provenance block"),
    }

    match root.get("results").and_then(JsonValue::as_array) {
        Some([]) => out.push("\"results\" must not be empty"),
        Some(results) => {
            for (i, result) in results.iter().enumerate() {
                check_serve_result(result, i, &mut out);
            }
            let value_of = |name: &str| {
                results
                    .iter()
                    .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
                    .and_then(|r| r.get("value"))
                    .and_then(JsonValue::as_f64)
            };
            for required in REQUIRED_SERVE_RESULTS {
                if value_of(required).is_none() {
                    out.push(format!("results: required row {required:?} is missing"));
                }
            }
            for function in &functions {
                let required = format!("serve/est_latency_p99/{function}");
                if value_of(&required).is_none() {
                    out.push(format!(
                        "results: required per-function row {required:?} is missing \
                         (required since serve v2)"
                    ));
                }
            }
            // Every p50 row — the bare families and the per-function ones
            // alike — must not exceed its p99 counterpart.
            for result in results {
                let Some(name) = result.get("name").and_then(JsonValue::as_str) else {
                    continue;
                };
                if !name.contains("_latency_p50") {
                    continue;
                }
                let counterpart = name.replacen("_latency_p50", "_latency_p99", 1);
                if let (Some(p50), Some(p99)) = (
                    result.get("value").and_then(JsonValue::as_f64),
                    value_of(&counterpart),
                ) {
                    if p50 > p99 {
                        out.push(format!(
                            "results: {name} ({p50}) exceeds {counterpart} ({p99})"
                        ));
                    }
                }
            }
        }
        None => out.push("missing \"results\" array"),
    }
    out
}

fn validate(root: &JsonValue) -> Violations {
    match root.get("bench").and_then(JsonValue::as_str) {
        Some("bench_ingest") => validate_ingest(root),
        Some("bench_serve") => validate_serve(root),
        Some(other) => Violations(vec![format!(
            "\"bench\" is {other:?}, expected \"bench_ingest\" or \"bench_serve\""
        )]),
        None => Violations(vec!["missing string field \"bench\"".to_string()]),
    }
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("BENCH_INGEST_JSON").ok())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_ingest.json"));

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_bench_schema: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let root = match parse_json(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "check_bench_schema: {} is not valid JSON: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let bench = root
        .get("bench")
        .and_then(JsonValue::as_str)
        .unwrap_or("bench_ingest");
    let violations = validate(&root);
    if violations.0.is_empty() {
        let results = root
            .get("results")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len);
        println!(
            "check_bench_schema: {} conforms to the {bench} schema ({results} results)",
            path.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "check_bench_schema: {} violates the {bench} schema:",
            path.display()
        );
        for v in &violations.0 {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> String {
        r#"{
          "bench": "bench_ingest",
          "schema_version": 6,
          "meta": {
            "git_commit": "abc123",
            "backends": ["polynomial", "tabulation", "polynomial4"],
            "default_backend": "polynomial",
            "coalescing_modes": ["per_update", "sharded_2", "coalesced_full",
                                 "hash_stage", "apply_stage", "eval_stage"],
            "available_parallelism": 4,
            "quick": true
          },
          "workload": {"distribution": "zipf"},
          "speedup_coalesced_vs_per_update": 5.1,
          "speedup_tabulation_vs_polynomial_per_update": 3.9,
          "speedup_gsum_coalesced_vs_per_update": 11.5,
          "speedup_gsum_round4_vs_round3": 1.6,
          "results": [
            {"name": "ams/eval_stage/polynomial4", "mode": "eval_stage",
             "backend": "polynomial4", "ns_per_iter": 6.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "ams/eval_stage/tabulation", "mode": "eval_stage",
             "backend": "tabulation", "ns_per_iter": 6.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "countsketch/per_update/polynomial", "mode": "per_update",
             "backend": "polynomial", "ns_per_iter": 10.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "countsketch/sharded_2/tabulation", "mode": "sharded_2",
             "backend": "tabulation", "ns_per_iter": 10.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "countsketch/coalesced_full/polynomial", "mode": "coalesced_full",
             "backend": "polynomial", "ns_per_iter": 10.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "countsketch/coalesced_full/tabulation", "mode": "coalesced_full",
             "backend": "tabulation", "ns_per_iter": 10.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "countsketch/hash_stage/polynomial", "mode": "hash_stage",
             "backend": "polynomial", "ns_per_iter": 4.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "countsketch/hash_stage/tabulation", "mode": "hash_stage",
             "backend": "tabulation", "ns_per_iter": 4.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "countsketch/apply_stage/polynomial", "mode": "apply_stage",
             "backend": "polynomial", "ns_per_iter": 3.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "countsketch/apply_stage/tabulation", "mode": "apply_stage",
             "backend": "tabulation", "ns_per_iter": 3.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "onepass_gsum/coalesced_full/polynomial", "mode": "coalesced_full",
             "backend": "polynomial", "ns_per_iter": 10.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "onepass_gsum/coalesced_full/tabulation", "mode": "coalesced_full",
             "backend": "tabulation", "ns_per_iter": 10.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "onepass_gsum/sharded_2/polynomial", "mode": "sharded_2",
             "backend": "polynomial", "ns_per_iter": 10.0, "updates_per_sec": 100.0,
             "iterations": 8},
            {"name": "onepass_gsum/sharded_2/tabulation", "mode": "sharded_2",
             "backend": "tabulation", "ns_per_iter": 10.0, "updates_per_sec": 100.0,
             "iterations": 8}
          ]
        }"#
        .to_string()
    }

    fn valid_serve_doc() -> String {
        r#"{
          "bench": "bench_serve",
          "schema_version": 2,
          "meta": {
            "git_commit": "abc123",
            "workers": 2,
            "max_connections": 64,
            "policy": "merge_completed",
            "functions": ["x^2", "min(x, 100)"],
            "available_parallelism": 4,
            "quick": false
          },
          "workload": {"distribution": "zipf", "alpha": 1.2},
          "results": [
            {"name": "serve/connections_per_sec", "kind": "throughput",
             "value": 3000.0, "unit": "conn/s", "samples": 2000},
            {"name": "serve/ingest_updates_per_sec/clients_1", "kind": "throughput",
             "value": 900000.0, "unit": "upd/s", "samples": 500000},
            {"name": "serve/ingest_updates_per_sec/clients_4", "kind": "throughput",
             "value": 1100000.0, "unit": "upd/s", "samples": 2000000},
            {"name": "serve/est_latency_p50", "kind": "latency",
             "value": 2000.0, "unit": "us", "samples": 2000},
            {"name": "serve/est_latency_p99", "kind": "latency",
             "value": 3500.0, "unit": "us", "samples": 2000},
            {"name": "serve/count_latency_p50", "kind": "latency",
             "value": 10.0, "unit": "us", "samples": 2000},
            {"name": "serve/count_latency_p99", "kind": "latency",
             "value": 300.0, "unit": "us", "samples": 2000},
            {"name": "serve/est_latency_p50/x^2", "kind": "latency",
             "value": 2100.0, "unit": "us", "samples": 2000},
            {"name": "serve/est_latency_p99/x^2", "kind": "latency",
             "value": 3600.0, "unit": "us", "samples": 2000},
            {"name": "serve/est_latency_p50/min(x, 100)", "kind": "latency",
             "value": 2200.0, "unit": "us", "samples": 2000},
            {"name": "serve/est_latency_p99/min(x, 100)", "kind": "latency",
             "value": 3700.0, "unit": "us", "samples": 2000}
          ]
        }"#
        .to_string()
    }

    fn violations_of(doc: &str) -> Vec<String> {
        validate(&parse_json(doc).unwrap()).0
    }

    #[test]
    fn the_valid_document_passes() {
        assert_eq!(violations_of(&valid_doc()), Vec::<String>::new());
    }

    #[test]
    fn the_valid_serve_document_passes() {
        assert_eq!(violations_of(&valid_serve_doc()), Vec::<String>::new());
    }

    #[test]
    fn the_committed_serve_artifact_passes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_serve.json");
        assert_eq!(violations_of(&text), Vec::<String>::new());
    }

    #[test]
    fn unknown_bench_kind_is_caught() {
        let doc = valid_serve_doc().replace("\"bench\": \"bench_serve\"", "\"bench\": \"bench_x\"");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("bench_x") && v.contains("expected")));
    }

    #[test]
    fn wrong_serve_schema_version_is_caught() {
        let doc = valid_serve_doc().replace("\"schema_version\": 2", "\"schema_version\": 1");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("schema_version")));
    }

    #[test]
    fn missing_or_single_function_meta_is_caught() {
        let doc = valid_serve_doc().replace("\"functions\": [\"x^2\", \"min(x, 100)\"],", "");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("functions") && v.contains("meta")));

        let doc = valid_serve_doc().replace(
            "\"functions\": [\"x^2\", \"min(x, 100)\"],",
            "\"functions\": [\"x^2\"],",
        );
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("at least two")));
    }

    #[test]
    fn missing_per_function_latency_row_is_caught() {
        let doc = valid_serve_doc().replace(
            "serve/est_latency_p99/min(x, 100)",
            "serve/est_latency_p99/min(x, 999)",
        );
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("serve/est_latency_p99/min(x, 100)") && v.contains("missing")));
    }

    #[test]
    fn swapped_per_function_percentiles_are_caught() {
        let doc = valid_serve_doc().replacen("\"value\": 3600.0", "\"value\": 1.0", 1);
        let violations = violations_of(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("serve/est_latency_p50/x^2") && v.contains("exceeds")),
            "{violations:?}"
        );
    }

    #[test]
    fn missing_serve_worker_pool_meta_is_caught() {
        let doc = valid_serve_doc().replace("\"workers\": 2,", "");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("workers") && v.contains("meta")));

        let doc = valid_serve_doc().replace("\"max_connections\": 64,", "\"max_connections\": 0,");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("max_connections")));
    }

    #[test]
    fn missing_required_serve_row_is_caught() {
        let doc = valid_serve_doc().replace(
            "serve/ingest_updates_per_sec/clients_4",
            "serve/ingest_updates_per_sec/clients_9",
        );
        assert!(
            violations_of(&doc)
                .iter()
                .any(|v| v.contains("serve/ingest_updates_per_sec/clients_4")
                    && v.contains("missing"))
        );
    }

    #[test]
    fn unknown_serve_result_kind_is_caught() {
        let doc = valid_serve_doc().replacen("\"kind\": \"latency\"", "\"kind\": \"speed\"", 1);
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("\"speed\"") && v.contains("throughput")));
    }

    #[test]
    fn nonpositive_serve_value_is_caught() {
        let doc = valid_serve_doc().replacen("\"value\": 3000.0", "\"value\": 0", 1);
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("value") && v.contains("results[0]")));
    }

    #[test]
    fn swapped_latency_percentiles_are_caught() {
        let doc = valid_serve_doc().replacen("\"value\": 3500.0", "\"value\": 1.0", 1);
        let violations = violations_of(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("est_latency_p50") && v.contains("exceeds")),
            "{violations:?}"
        );
    }

    #[test]
    fn the_committed_artifact_passes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_ingest.json");
        assert_eq!(violations_of(&text), Vec::<String>::new());
    }

    #[test]
    fn missing_meta_block_is_caught() {
        let doc = valid_doc().replace("\"meta\"", "\"meta_gone\"");
        assert!(violations_of(&doc).iter().any(|v| v.contains("meta")));
    }

    #[test]
    fn wrong_schema_version_is_caught() {
        let doc = valid_doc().replace("\"schema_version\": 6", "\"schema_version\": 5");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("schema_version")));
    }

    #[test]
    fn missing_ams_eval_stage_row_is_caught() {
        let doc = valid_doc().replace("ams/eval_stage/tabulation", "ams/eval_stage/oops");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("ams/eval_stage/tabulation") && v.contains("missing")));
    }

    #[test]
    fn missing_round4_speedup_field_is_caught() {
        let doc = valid_doc().replace("\"speedup_gsum_round4_vs_round3\": 1.6,", "");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("speedup_gsum_round4_vs_round3")));
    }

    #[test]
    fn ams_eval_stage_exceeding_the_pipeline_total_is_caught() {
        // An isolated sign-kernel row slower than the whole onepass_gsum
        // pipeline (10.0 ns here) cannot be measuring the same workload.
        let doc = valid_doc().replacen(
            r#"{"name": "ams/eval_stage/polynomial4", "mode": "eval_stage",
             "backend": "polynomial4", "ns_per_iter": 6.0"#,
            r#"{"name": "ams/eval_stage/polynomial4", "mode": "eval_stage",
             "backend": "polynomial4", "ns_per_iter": 11.0"#,
            1,
        );
        let violations = violations_of(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("ams/eval_stage/polynomial4") && v.contains("exceeds")),
            "{violations:?}"
        );
    }

    #[test]
    fn missing_stage_split_row_is_caught() {
        let doc = valid_doc().replace(
            "countsketch/hash_stage/tabulation",
            "countsketch/hash_stage/oops",
        );
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("countsketch/hash_stage/tabulation") && v.contains("missing")));
    }

    #[test]
    fn stage_sum_exceeding_the_total_is_caught() {
        // Inflate the polynomial hash stage past what the whole pipeline
        // took: the decomposition no longer adds up, so the gate rejects.
        let doc = valid_doc().replacen(
            r#"{"name": "countsketch/hash_stage/polynomial", "mode": "hash_stage",
             "backend": "polynomial", "ns_per_iter": 4.0"#,
            r#"{"name": "countsketch/hash_stage/polynomial", "mode": "hash_stage",
             "backend": "polynomial", "ns_per_iter": 9.0"#,
            1,
        );
        let violations = violations_of(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("polynomial hash_stage + apply_stage")
                    && v.contains("exceeds")),
            "{violations:?}"
        );
        // The tolerance absorbs sub-5% jitter: 4.0 + 3.0 against a total of
        // 6.9 stays within 1.05x and must pass.
        let doc = valid_doc().replacen(
            r#"{"name": "countsketch/coalesced_full/polynomial", "mode": "coalesced_full",
             "backend": "polynomial", "ns_per_iter": 10.0"#,
            r#"{"name": "countsketch/coalesced_full/polynomial", "mode": "coalesced_full",
             "backend": "polynomial", "ns_per_iter": 6.9"#,
            1,
        );
        assert_eq!(violations_of(&doc), Vec::<String>::new());
    }

    #[test]
    fn missing_required_gsum_row_is_caught() {
        let doc = valid_doc().replace(
            "onepass_gsum/sharded_2/polynomial",
            "onepass_gsum/sharded_9/polynomial",
        );
        let violations = violations_of(&doc);
        assert!(violations
            .iter()
            .any(|v| v.contains("onepass_gsum/sharded_2/polynomial") && v.contains("missing")));
    }

    #[test]
    fn missing_gsum_speedup_field_is_caught() {
        let doc = valid_doc().replace("\"speedup_gsum_coalesced_vs_per_update\": 11.5,", "");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("speedup_gsum_coalesced_vs_per_update")));
    }

    #[test]
    fn missing_or_fractional_available_parallelism_is_caught() {
        let doc = valid_doc().replace("\"available_parallelism\": 4,", "");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("available_parallelism")));

        let doc = valid_doc().replace(
            "\"available_parallelism\": 4,",
            "\"available_parallelism\": 2.5,",
        );
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("available_parallelism")));
    }

    #[test]
    fn result_mode_and_name_disagreement_is_caught() {
        let doc = valid_doc().replace("\"mode\": \"per_update\"", "\"mode\": \"sharded_2\"");
        assert!(violations_of(&doc).iter().any(|v| v.contains("disagrees")));
    }

    #[test]
    fn missing_per_result_backend_is_caught() {
        let doc = valid_doc().replace("\"backend\": \"tabulation\",", "");
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("backend") && v.contains("results[1]")));
    }

    #[test]
    fn nonfinite_and_nonpositive_numbers_are_caught() {
        let doc = valid_doc().replacen(
            "\"ns_per_iter\": 10.0, \"updates_per_sec\": 100.0,\n             \"iterations\": 8},",
            "\"ns_per_iter\": -1, \"updates_per_sec\": 100.0,\n             \"iterations\": 2.5},",
            1,
        );
        let violations = violations_of(&doc);
        assert!(violations.iter().any(|v| v.contains("ns_per_iter")));
        assert!(violations.iter().any(|v| v.contains("iterations")));
    }

    #[test]
    fn unknown_backend_against_meta_is_caught() {
        let doc = valid_doc().replace(
            "\"backends\": [\"polynomial\", \"tabulation\", \"polynomial4\"]",
            "\"backends\": [\"polynomial\", \"polynomial4\"]",
        );
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("not in meta.backends")));
    }

    #[test]
    fn empty_results_are_caught() {
        let start = valid_doc().find("\"results\"").unwrap();
        let doc = format!("{}\"results\": []\n        }}", &valid_doc()[..start]);
        assert!(violations_of(&doc)
            .iter()
            .any(|v| v.contains("results") && v.contains("empty")));
    }
}
