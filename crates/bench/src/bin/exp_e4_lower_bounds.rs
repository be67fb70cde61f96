//! Experiment E4 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!("{}", gsum_bench::e4_lower_bounds(20).to_markdown());
}
