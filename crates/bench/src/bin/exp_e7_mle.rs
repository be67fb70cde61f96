//! Experiment E7 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!("{}", gsum_bench::e7_mle(2_000, 3).to_markdown());
}
