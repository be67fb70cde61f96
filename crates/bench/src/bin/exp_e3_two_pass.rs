//! Experiment E3 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!("{}", gsum_bench::e3_two_pass_separation(3).to_markdown());
}
