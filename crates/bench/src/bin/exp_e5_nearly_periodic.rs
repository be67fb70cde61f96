//! Experiment E5 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!("{}", gsum_bench::e5_nearly_periodic(5).to_markdown());
}
