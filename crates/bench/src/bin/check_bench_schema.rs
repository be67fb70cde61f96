//! CI gate: validate bench artifacts against their schemas.
//!
//! Parses the file with the in-tree JSON parser and checks it against the
//! `gsum_bench::artifact` schema table its `bench` field selects; that table
//! is where the required fields, rows and rules are stated.
//!
//! Usage: `check_bench_schema [path]` (default: `$BENCH_INGEST_JSON`, then
//! `./BENCH_ingest.json`).  Exits non-zero listing every violation.

use gsum_bench::artifact::{validate, INGEST};
use gsum_bench::json::parse_json;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let path = std::env::args_os()
        .nth(1)
        .or_else(|| std::env::var_os(INGEST.path_var))
        .map_or_else(|| PathBuf::from(INGEST.file), PathBuf::from);
    let shown = path.display();
    let violations = match std::fs::read_to_string(&path).map(|text| parse_json(&text)) {
        Ok(Ok(root)) => validate(&root),
        Ok(Err(e)) => vec![format!("not valid JSON: {e}")],
        Err(e) => vec![format!("cannot be read: {e}")],
    };
    if violations.is_empty() {
        println!("check_bench_schema: {shown} conforms to its schema");
        return ExitCode::SUCCESS;
    }
    eprintln!("check_bench_schema: {shown} violates its schema:");
    for v in &violations {
        eprintln!("  - {v}");
    }
    ExitCode::FAILURE
}
