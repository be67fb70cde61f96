//! The exact g-SUM reference the estimates are scored against.

use gsum_gfunc::GFunction;
use gsum_streams::Update;

/// A dense frequency vector over `[0, domain)`, accumulated from the
/// generated streams (each stream counted once per time it was sent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseFrequencies {
    counts: Vec<i64>,
}

impl DenseFrequencies {
    /// The zero vector over `[0, domain)`.
    pub fn new(domain: u64) -> Self {
        Self {
            counts: vec![0; usize::try_from(domain).expect("domain fits in memory")],
        }
    }

    /// Add `times` copies of `updates`.
    ///
    /// # Panics
    /// Panics on an item outside the domain — the generators never emit
    /// one, so that would be a benchmark bug.
    pub fn add(&mut self, updates: &[Update], times: i64) {
        for u in updates {
            self.counts[u.item as usize] += u.delta * times;
        }
    }

    /// The frequencies, indexed by item.
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// `Σ_i g(|f_i|)` over the items with non-zero frequency (`g(0) = 0`
    /// for every function in the class).
    pub fn gsum(&self, g: &dyn GFunction) -> f64 {
        self.counts
            .iter()
            .filter(|&&f| f != 0)
            .map(|&f| g.eval_signed(f))
            .sum()
    }
}

/// `|estimate − exact| / exact`.
pub fn relative_error(estimate: f64, exact: f64) -> f64 {
    (estimate - exact).abs() / exact
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_gfunc::library::{CappedLinear, OscillatingQuadratic, PowerFunction};

    #[test]
    fn gsum_matches_hand_computed_values() {
        let mut f = DenseFrequencies::new(8);
        let stream = [
            Update::new(1, 3),
            Update::new(2, 150),
            Update::new(1, 1),
            Update::new(5, -2),
            Update::new(7, 4),
            Update::new(7, -4),
        ];
        f.add(&stream, 1);
        assert_eq!(f.counts(), &[0, 4, 150, 0, 0, -2, 0, 0]);
        // x²: 16 + 22500 + 4 (the symmetric extension g(-2) = g(2)).
        assert_eq!(f.gsum(&PowerFunction::new(2.0)), 22_520.0);
        // min(x, 100): 4 + 100 + 2.
        assert_eq!(f.gsum(&CappedLinear::new(100)), 106.0);
        // (2 + sin ln(1+x)) x², term by term.
        let osc = OscillatingQuadratic::log();
        let by_hand: f64 = [4u64, 150, 2]
            .iter()
            .map(|&x| (2.0 + ((1.0 + x as f64).ln()).sin()) * (x * x) as f64)
            .sum();
        assert!((f.gsum(&osc) - by_hand).abs() <= 1e-9 * by_hand);
    }

    #[test]
    fn repeated_sends_scale_the_vector() {
        let stream = [Update::new(0, 2), Update::new(3, 5)];
        let mut twice = DenseFrequencies::new(4);
        twice.add(&stream, 2);
        let mut once_each = DenseFrequencies::new(4);
        once_each.add(&stream, 1);
        once_each.add(&stream, 1);
        assert_eq!(twice, once_each);
        assert_eq!(twice.gsum(&PowerFunction::new(2.0)), 16.0 + 100.0);
        assert_eq!(relative_error(110.0, 100.0), 0.1);
    }
}
