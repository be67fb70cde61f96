//! Experiment E6 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!("{}", gsum_bench::e6_shortlinear(20).to_markdown());
}
