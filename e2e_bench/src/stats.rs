//! Summary statistics with the benchmark's reporting rules.
//!
//! A timing percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it — above a percentile from the median up, below
//! one under the median — so a p90 needs 100 samples and a p10 101.  Quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
//! method), which is how run-to-run spread is judged.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).  `None` for
/// an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `pct` (1..=99) among `n` samples:
/// `ceil(pct·n / 100)`, in integers so no rounding can move it.
fn rank_of(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile `pct` (1..=99): the sample at rank
/// `ceil(pct·n/100)`, together with the number of samples beyond it (above
/// it for `pct ≥ 50`, below it otherwise).
pub fn nearest_rank(values: &[f64], pct: usize) -> Option<(f64, usize)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = rank_of(pct, n);
    Some((sorted[rank - 1], beyond(pct, rank, n)))
}

/// Samples beyond the sample at `rank` of `n`, on the side away from the
/// median.
fn beyond(pct: usize, rank: usize, n: usize) -> usize {
    if pct >= 50 {
        n - rank
    } else {
        rank - 1
    }
}

/// The smallest sample count that puts at least [`MIN_BEYOND`] samples
/// beyond percentile `pct` (100 for a p90, 20 for a p50, 101 for a p10).
pub fn samples_needed(pct: usize) -> usize {
    (1..)
        .find(|&n| beyond(pct, rank_of(pct, n), n) >= MIN_BEYOND)
        .expect("every percentile below 100 resolves eventually")
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them.  Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread a bound is
/// compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(50), 20);
        // At the threshold exactly ten samples lie beyond the p90.
        assert_eq!(nearest_rank(&ramp(99), 90), Some((90.0, 9)));
        assert_eq!(nearest_rank(&ramp(100), 90), Some((90.0, 10)));
        assert_eq!(nearest_rank(&ramp(250), 90), Some((225.0, 25)));
        // A p10 counts the samples below it.
        assert_eq!(samples_needed(10), 101);
        assert_eq!(nearest_rank(&ramp(100), 10), Some((10.0, 9)));
        assert_eq!(nearest_rank(&ramp(101), 10), Some((11.0, 10)));
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(nearest_rank(&v, 50), Some((100.0, 100)));
        assert_eq!(median(&v), Some(100.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&ramp(10)).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
