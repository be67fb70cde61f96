//! Experiment E2 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!(
        "{}",
        gsum_bench::e2_one_pass_accuracy(1 << 10, 30_000, 3).to_markdown()
    );
}
