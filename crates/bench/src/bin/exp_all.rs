//! Run the full experiment suite (E1–E10) and print every table as Markdown.
//!
//! ```text
//! cargo run --release -p gsum-bench --bin exp_all            # all experiments
//! cargo run --release -p gsum-bench --bin exp_all -- E4 E6   # a subset
//! ```
//!
//! Its output is the experiment record: each `exp_e*` binary prints one of
//! these tables.

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).map(|s| s.to_uppercase()).collect();
    for table in gsum_bench::run_all() {
        if filters.is_empty() || filters.iter().any(|f| f == &table.id) {
            println!("{}", table.to_markdown());
        }
    }
}
