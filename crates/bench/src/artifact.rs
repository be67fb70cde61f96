//! The bench artifact format, stated once.
//!
//! The throughput benches write machine-readable artifacts that CI gates
//! and uploads per PR, and those trajectories are only worth keeping while
//! they stay comparable: schema drift (a dropped `meta` block, a row missing
//! a field, a NaN) must fail the build rather than ship.  One [`Schema`]
//! table per bench states its required fields, rows and relational rules;
//! [`validate`] checks a parsed document against the table its `bench`
//! field names (the `check_bench_schema` binary drives it); and
//! [`Artifact`] is the one writer the benches share.

use crate::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What a required field must hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A non-empty string.
    Text,
    /// One of these strings.
    OneOf(&'static [&'static str]),
    /// A list of at least this many strings.
    Texts(usize),
    /// A finite number > 0.
    Positive,
    /// An integer ≥ 1 (counts travel as JSON numbers).
    Count,
    /// `true` or `false`.
    Bool,
    /// An object.
    Object,
}

impl Kind {
    fn accepts(self, value: &JsonValue) -> bool {
        match (self, value) {
            (Kind::Text, JsonValue::String(s)) => !s.is_empty(),
            (Kind::OneOf(options), JsonValue::String(s)) => options.contains(&s.as_str()),
            (Kind::Texts(min), JsonValue::Array(items)) => {
                items.len() >= min && items.iter().all(|item| item.as_str().is_some())
            }
            (Kind::Positive, JsonValue::Number(n)) => n.is_finite() && *n > 0.0,
            (Kind::Count, JsonValue::Number(n)) => *n >= 1.0 && n.fract() == 0.0,
            (Kind::Bool, JsonValue::Bool(_)) | (Kind::Object, JsonValue::Object(_)) => true,
            _ => false,
        }
    }

    fn describe(self) -> String {
        match self {
            Kind::Text => "a non-empty string".into(),
            Kind::OneOf(options) => format!("one of {options:?}"),
            Kind::Texts(min) => format!("{min} or more strings"),
            Kind::Positive => "a finite number > 0".into(),
            Kind::Count => "an integer ≥ 1".into(),
            Kind::Bool => "a boolean".into(),
            Kind::Object => "an object".into(),
        }
    }
}

/// A rule relating fields and rows.  Rows are named by their `name` field,
/// and the numeric rules compare each row's [`Schema::value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Row names split on `/` into exactly these non-empty parts; a part
    /// labelled with a row field's name must equal that field.
    NameParts(&'static [&'static str]),
    /// The `meta` field `.0` is an entry of the `meta` list `.1`.
    MetaIn(&'static str, &'static str),
    /// Every row's field `.0` is an entry of the `meta` list `.1`.
    RowsIn(&'static str, &'static str),
    /// For each entry of the `meta` list `.0`, a row named `.1` + entry.
    RowPerEntry(&'static str, &'static str),
    /// The rows `.0` sum to at most [`STAGE_TOLERANCE`] × the row `.1`.
    SumAtMost(&'static [&'static str], &'static str),
    /// Every row whose name contains `.0` is at most the row named with
    /// `.1` in its place.
    Ordered(&'static str, &'static str),
}

/// Headroom of [`Rule::SumAtMost`]: the rows are measured independently,
/// so their means jitter a few percent on a loaded host even where the
/// inequality holds in expectation.
pub const STAGE_TOLERANCE: f64 = 1.05;

/// One bench's artifact format.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// The top-level `bench` field, which selects this schema.
    pub bench: &'static str,
    /// The top-level `schema_version` field.
    pub version: u32,
    /// The env var that overrides the artifact path.
    pub path_var: &'static str,
    /// The artifact's file name at the workspace root.
    pub file: &'static str,
    /// Required top-level fields besides `bench`, `schema_version` and the
    /// non-empty `results` row list.
    pub top: &'static [(&'static str, Kind)],
    /// Required `meta` (provenance) fields.
    pub meta: &'static [(&'static str, Kind)],
    /// Required fields of every row.
    pub row: &'static [(&'static str, Kind)],
    /// The row field the numeric rules compare.
    pub value: &'static str,
    /// Rows that must be present, by name.
    pub required_rows: &'static [&'static str],
    /// Relational rules.
    pub rules: &'static [Rule],
}

/// `bench_ingest`: the ingestion hot-path matrix, one row per
/// `family/mode/backend` variant; the sharded rows are unreadable without
/// the host's `available_parallelism`.  The required rows are the headline
/// estimator's whole-batch and sharded variants, the countsketch
/// stage-split rows with the `coalesced_full` totals they decompose, and
/// the AMS sign-kernel rows.  A whole pipeline also pays the coalescing
/// sort the stage rows skip, and at least one pass of the default
/// (`polynomial4`) sign bank, so a stage row above its total means the rows
/// measure different workloads.
pub static INGEST: Schema = Schema {
    bench: "bench_ingest",
    version: 6,
    path_var: "BENCH_INGEST_JSON",
    file: "BENCH_ingest.json",
    top: &[
        ("meta", Kind::Object),
        ("workload", Kind::Object),
        ("speedup_coalesced_vs_per_update", Kind::Positive),
        (
            "speedup_tabulation_vs_polynomial_per_update",
            Kind::Positive,
        ),
        ("speedup_gsum_coalesced_vs_per_update", Kind::Positive),
        ("speedup_gsum_round4_vs_round3", Kind::Positive),
    ],
    meta: &[
        ("git_commit", Kind::Text),
        ("backends", Kind::Texts(1)),
        ("default_backend", Kind::Text),
        ("coalescing_modes", Kind::Texts(1)),
        ("available_parallelism", Kind::Count),
        ("quick", Kind::Bool),
    ],
    row: &[
        ("name", Kind::Text),
        ("mode", Kind::Text),
        ("backend", Kind::Text),
        ("ns_per_iter", Kind::Positive),
        ("updates_per_sec", Kind::Positive),
        ("iterations", Kind::Count),
    ],
    value: "ns_per_iter",
    required_rows: &[
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
    ],
    rules: &[
        Rule::NameParts(&["family", "mode", "backend"]),
        Rule::MetaIn("default_backend", "backends"),
        Rule::RowsIn("mode", "coalescing_modes"),
        Rule::RowsIn("backend", "backends"),
        Rule::SumAtMost(
            &[
                "countsketch/hash_stage/polynomial",
                "countsketch/apply_stage/polynomial",
            ],
            "countsketch/coalesced_full/polynomial",
        ),
        Rule::SumAtMost(
            &[
                "countsketch/hash_stage/tabulation",
                "countsketch/apply_stage/tabulation",
            ],
            "countsketch/coalesced_full/tabulation",
        ),
        Rule::SumAtMost(
            &["ams/eval_stage/polynomial4"],
            "onepass_gsum/coalesced_full/polynomial",
        ),
    ],
};

/// `bench_serve`: loopback serving throughput and latency under the
/// reactor knobs recorded in `meta`.  The server registers at least two
/// estimators, and each gets its own `EST` latency row; a p50 above its p99
/// is a swapped pair.
pub static SERVE: Schema = Schema {
    bench: "bench_serve",
    version: 2,
    path_var: "BENCH_SERVE_JSON",
    file: "BENCH_serve.json",
    top: &[("meta", Kind::Object), ("workload", Kind::Object)],
    meta: &[
        ("git_commit", Kind::Text),
        ("workers", Kind::Count),
        ("max_connections", Kind::Count),
        ("policy", Kind::Text),
        ("functions", Kind::Texts(2)),
        ("available_parallelism", Kind::Count),
        ("quick", Kind::Bool),
    ],
    row: &[
        ("name", Kind::Text),
        ("kind", Kind::OneOf(&["throughput", "latency"])),
        ("value", Kind::Positive),
        ("unit", Kind::Text),
        ("samples", Kind::Count),
    ],
    value: "value",
    required_rows: &[
        "serve/connections_per_sec",
        "serve/ingest_updates_per_sec/clients_4",
        "serve/est_latency_p99",
        "serve/count_latency_p99",
    ],
    rules: &[
        Rule::RowPerEntry("functions", "serve/est_latency_p99/"),
        Rule::Ordered("_latency_p50", "_latency_p99"),
    ],
};

/// Every schema the gate knows, selected by the `bench` field.
static SCHEMAS: [&Schema; 2] = [&INGEST, &SERVE];

/// Every way `root` departs from the schema its `bench` field names.
pub fn validate(root: &JsonValue) -> Vec<String> {
    match SCHEMAS
        .iter()
        .find(|s| text(root, "bench") == Some(s.bench))
    {
        Some(schema) => schema.violations(root),
        None => {
            let (bench, known) = (shown(root.get("bench")), SCHEMAS.map(|s| s.bench));
            vec![format!("\"bench\" is {bench}, expected one of {known:?}")]
        }
    }
}

/// A field's value as written, or `missing`.
fn shown(value: Option<&JsonValue>) -> String {
    value.map_or("missing".into(), JsonValue::to_string)
}

fn text<'a>(obj: &'a JsonValue, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(JsonValue::as_str)
}

/// The array at `key`, or an empty one.
fn items<'a>(obj: Option<&'a JsonValue>, key: &str) -> &'a [JsonValue] {
    obj.and_then(|o| o.get(key)?.as_array()).unwrap_or_default()
}

fn check_fields(obj: &JsonValue, table: &[(&str, Kind)], at: &str, out: &mut Vec<String>) {
    for &(key, kind) in table {
        let wanted = kind.describe();
        match obj.get(key) {
            None => out.push(format!("{at}: missing {key:?} ({wanted})")),
            Some(v) if !kind.accepts(v) => {
                out.push(format!("{at}: {key:?} must be {wanted}, got {v}"))
            }
            Some(_) => {}
        }
    }
}

impl Schema {
    /// Every way `root` departs from this schema.
    fn violations(&self, root: &JsonValue) -> Vec<String> {
        let mut out = Vec::new();
        let version = root.get("schema_version");
        if version.and_then(JsonValue::as_f64) != Some(self.version.into()) {
            let (got, v) = (shown(version), self.version);
            out.push(format!("schema_version is {got}, expected v{v}"));
        }
        check_fields(root, self.top, "top level", &mut out);
        let meta = root.get("meta").filter(|m| Kind::Object.accepts(m));
        if let Some(meta) = meta {
            check_fields(meta, self.meta, "meta", &mut out);
        }
        let rows = items(Some(root), "results");
        if rows.is_empty() {
            out.push("\"results\" must be a non-empty array".into());
        }
        for (i, row) in rows.iter().enumerate() {
            check_fields(row, self.row, &format!("results[{i}]"), &mut out);
        }
        let named = |name: &str| rows.iter().find(|r| text(r, "name") == Some(name));
        let value = |row: &JsonValue| row.get(self.value).and_then(JsonValue::as_f64);
        let value_of = |name: &str| named(name).and_then(value);
        let rows_with = |field| {
            rows.iter()
                .enumerate()
                .filter_map(move |(i, r)| Some((i, text(r, field)?)))
        };
        // A value outside a `meta` list; an empty list was reported above.
        let outside = |key, v: &str| {
            let entries = items(meta, key);
            !entries.is_empty() && !entries.iter().any(|e| e.as_str() == Some(v))
        };
        for name in self.required_rows.iter().filter(|n| named(n).is_none()) {
            out.push(format!("results: required row {name:?} is missing"));
        }
        for rule in self.rules {
            match *rule {
                Rule::NameParts(labels) => {
                    for (i, name) in rows_with("name") {
                        let parts: Vec<&str> = name.split('/').collect();
                        if parts.len() != labels.len() || parts.contains(&"") {
                            let shape = labels.join("/");
                            out.push(format!("results[{i}]: name {name:?} is not shaped {shape}"));
                            continue;
                        }
                        for (label, part) in labels.iter().zip(parts) {
                            if let Some(field) = text(&rows[i], label).filter(|f| *f != part) {
                                out.push(format!(
                                    "results[{i}]: {label} {field:?} disagrees with name {name:?}"
                                ));
                            }
                        }
                    }
                }
                Rule::MetaIn(field, key) => {
                    if let Some(v) = meta
                        .and_then(|m| text(m, field))
                        .filter(|v| outside(key, v))
                    {
                        out.push(format!("meta: {field} {v:?} is not in meta.{key}"));
                    }
                }
                Rule::RowsIn(field, key) => {
                    for (i, v) in rows_with(field).filter(|(_, v)| outside(key, v)) {
                        out.push(format!("results[{i}]: {field} {v:?} is not in meta.{key}"));
                    }
                }
                Rule::RowPerEntry(key, prefix) => {
                    let names = items(meta, key)
                        .iter()
                        .filter_map(|e| Some(format!("{prefix}{}", e.as_str()?)));
                    for name in names.filter(|n| named(n).is_none()) {
                        out.push(format!(
                            "results: required row {name:?} is missing (one per meta.{key} entry)"
                        ));
                    }
                }
                Rule::SumAtMost(parts, total) => {
                    let sum: Option<f64> = parts.iter().map(|p| value_of(p)).sum();
                    let whole = value_of(total);
                    if let Some((sum, whole)) =
                        sum.zip(whole).filter(|(s, w)| *s > w * STAGE_TOLERANCE)
                    {
                        let (parts, tol) = (parts.join(" + "), STAGE_TOLERANCE);
                        out.push(format!(
                            "results: {parts} ({sum}) exceeds {tol} × {total} ({whole})"
                        ));
                    }
                }
                Rule::Ordered(lo, hi) => {
                    for (i, name) in rows_with("name").filter(|(_, n)| n.contains(lo)) {
                        let other = name.replacen(lo, hi, 1);
                        if let Some((a, b)) =
                            value(&rows[i]).zip(value_of(&other)).filter(|(a, b)| a > b)
                        {
                            out.push(format!("results: {name} ({a}) exceeds {other} ({b})"));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Named fields, in the order they are written.
pub type Fields = Vec<(&'static str, JsonValue)>;

/// One bench run, ready to write in its schema's format.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The format; supplies the `bench` and `schema_version` fields.
    pub schema: &'static Schema,
    /// Whether this was a quick smoke run (`meta.quick`).
    pub quick: bool,
    /// Bench-specific `meta` fields.  The writer adds `git_commit` before
    /// them and `available_parallelism` and `quick` after them.
    pub meta: Fields,
    /// Workload parameters.
    pub workload: Fields,
    /// Summary fields, written between `workload` and `results`.
    pub summary: Fields,
    /// The result rows.
    pub rows: Vec<Fields>,
}

impl Artifact {
    /// The document this artifact writes.
    pub fn into_json(self) -> JsonValue {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let host = [
            ("available_parallelism", threads.into()),
            ("quick", self.quick.into()),
        ];
        let meta = [("git_commit", git_commit().into())]
            .into_iter()
            .chain(self.meta)
            .chain(host);
        let rows = JsonValue::Array(self.rows.into_iter().map(JsonValue::object).collect());
        let head = [
            ("bench", self.schema.bench.into()),
            ("schema_version", self.schema.version.into()),
            ("meta", JsonValue::object(meta)),
            ("workload", JsonValue::object(self.workload)),
        ];
        JsonValue::object(
            head.into_iter()
                .chain(self.summary)
                .chain([("results", rows)]),
        )
    }

    /// Write the artifact to `$<path_var>`, or to its file at the workspace
    /// root.  Fails when the write fails, so a bench that could not write
    /// never leaves an older artifact to pass for this run's.
    pub fn save(self) -> ExitCode {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let path = std::env::var_os(self.schema.path_var)
            .map_or_else(|| root.join(self.schema.file), PathBuf::from);
        if let Err(e) = std::fs::write(&path, format!("{}\n", self.into_json())) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
        ExitCode::SUCCESS
    }
}

/// `x` rounded to `places` decimal places, to keep artifacts readable.
pub fn rounded(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// The commit a bench ran against, so artifacts are comparable across the
/// PR trajectory: `$BENCH_GIT_COMMIT` or `$GITHUB_SHA` (CI), then
/// `git rev-parse HEAD`, then `"unknown"` (e.g. a source tarball).
fn git_commit() -> String {
    let git = || {
        let out = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    ["BENCH_GIT_COMMIT", "GITHUB_SHA"]
        .into_iter()
        .filter_map(|var| std::env::var(var).ok())
        .find(|sha| !sha.is_empty())
        .or_else(git)
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

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
        validate(&parse_json(doc).unwrap())
    }

    #[test]
    fn a_written_artifact_passes_its_gate_and_keeps_its_names() {
        let name = "f\n\t\"q\"\\";
        let rows = SERVE.required_rows.iter().map(|r| r.to_string());
        let rows = rows.chain(["x^2", name].map(|f| format!("serve/est_latency_p99/{f}")));
        let artifact = Artifact {
            schema: &SERVE,
            quick: true,
            meta: vec![
                ("workers", 2u64.into()),
                ("max_connections", 64u64.into()),
                ("policy", "merge_completed".into()),
                ("functions", vec!["x^2", name].into()),
            ],
            workload: vec![("domain", 64u64.into())],
            summary: Vec::new(),
            rows: rows
                .map(|r| {
                    vec![
                        ("name", r.into()),
                        ("kind", "latency".into()),
                        ("value", 1.5.into()),
                        ("unit", "us".into()),
                        ("samples", 3u64.into()),
                    ]
                })
                .collect(),
        };
        let doc = parse_json(&artifact.into_json().to_string()).unwrap();
        assert_eq!(validate(&doc), Vec::<String>::new());
        let functions = doc.get("meta").and_then(|m| m.get("functions")).unwrap();
        assert_eq!(functions, &JsonValue::from(vec!["x^2", name]));
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
            .any(|v| v.contains("functions") && v.contains("2 or more")));
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
            violations.iter().any(|v| v.contains(
                "countsketch/hash_stage/polynomial + countsketch/apply_stage/polynomial"
            ) && v.contains("exceeds")),
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
