//! Run the experiment suite (E1–E10) and print each table as Markdown.
//!
//! ```text
//! cargo run --release -p gsum-bench --bin exp_all            # all experiments
//! cargo run --release -p gsum-bench --bin exp_all -- E4 e6   # a subset
//! ```
//!
//! Ids are case-insensitive.  Only the selected experiments run, in suite
//! order; an unknown id runs nothing and exits non-zero with the valid ids.
//! Its output is the experiment record.

use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    match gsum_bench::select_experiments(&ids) {
        Ok(selected) => {
            for (_, run) in selected {
                println!("{}", run().to_markdown());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("exp_all: {e}");
            ExitCode::FAILURE
        }
    }
}
