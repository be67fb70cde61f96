//! Experiment E10 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!("{}", gsum_bench::e10_applications(3).to_markdown());
}
