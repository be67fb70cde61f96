//! The served one-pass estimator is accurate at a wide domain.
//!
//! At domain 2^16 the shallow levels' reverse hints saturate, so their
//! candidates come from a scan of the level's substream.  A level that
//! scanned the whole domain instead picked up items it never saw, whose
//! noise estimates the recursive assembly adds once per level and doubles:
//! a one-sided bias that swamps functions linear near zero, such as
//! `min(x, 100)`, while x² hides it under its heavy mass.  This test pins
//! the signed error of both on the served configuration over a panel of
//! sketch seeds:
//!
//! * `min(x, 100)`: the median over seeds is within `±ε/2` (no bias) and
//!   every seed is within `±ε` (the paper's `(1 ± ε)` contract);
//! * x²: every seed stays within `±0.06`.

use zerolaw::prelude::*;

const DOMAIN: u64 = 1 << 16;
const EPSILON: f64 = 0.2;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=7;

/// Signed relative error of `estimate` against `truth`.
fn signed_error(estimate: f64, truth: f64) -> f64 {
    (estimate - truth) / truth
}

#[test]
fn served_config_is_unbiased_at_domain_2_16() {
    // One stream, coalesced once, shared by every seed.
    let stream = ZipfStreamGenerator::new(StreamConfig::new(DOMAIN, 1_000_000), 1.2, 1).generate();
    let coalesced = coalesce_updates(stream.updates());
    let frequencies = stream.frequency_vector();
    let capped = DynG::new(CappedLinear::new(100));
    let square = DynG::new(PowerFunction::new(2.0));
    let capped_truth = exact_gsum(&capped, &frequencies);
    let square_truth = exact_gsum(&square, &frequencies);

    let mut capped_errors = Vec::new();
    let mut square_errors = Vec::new();
    for seed in SEEDS {
        let config = GSumConfig::with_space_budget(DOMAIN, EPSILON, 512, seed);
        let mut sketch = OnePassGSumSketch::new(capped.clone(), &config);
        sketch.update_batch(&coalesced);
        capped_errors.push(signed_error(sketch.estimate_with(&capped), capped_truth));
        square_errors.push(signed_error(sketch.estimate_with(&square), square_truth));
    }
    let report =
        format!("min(x, 100) errors {capped_errors:+.3?}, x^2 errors {square_errors:+.3?}");
    let mut sorted = capped_errors.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    assert!(
        median.abs() <= EPSILON / 2.0,
        "biased median {median:+.3}: {report}"
    );
    assert!(capped_errors.iter().all(|e| e.abs() <= EPSILON), "{report}");
    assert!(square_errors.iter().all(|e| e.abs() <= 0.06), "{report}");
}
