//! Experiment E9 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!(
        "{}",
        gsum_bench::e9_recursive_ablation(1 << 10, 30_000, 3).to_markdown()
    );
}
