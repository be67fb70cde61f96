//! Experiment E1 table emitter (one of the tables `exp_all` prints). Prints Markdown to stdout.

fn main() {
    println!(
        "{}",
        gsum_bench::e1_classification(&gsum_gfunc::PropertyConfig::default()).to_markdown()
    );
}
