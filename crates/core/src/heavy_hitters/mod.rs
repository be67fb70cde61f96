//! `(g, λ, ε, δ)`-heavy-hitter algorithms (Definitions 11–12, Algorithms 1–2).
//!
//! An item `j` is a `(g, λ)`-heavy hitter of `V` if
//! `g(|v_j|) ≥ λ Σ_{i≠j} g(|v_i|)`.  A `(g, λ, ε)`-cover is a set of pairs
//! `(i, w)` that contains every `(g, λ)`-heavy hitter and whose weights are
//! `(1 ± ε)`-approximations of `g(|v_i|)`.  The recursive sketch of
//! Theorem 13 reduces g-SUM to producing such covers.

pub mod one_pass;
pub mod two_pass;

pub use one_pass::{OnePassHeavyHitter, OnePassHeavyHitterConfig};
pub use two_pass::{TwoPassHeavyHitter, TwoPassHeavyHitterConfig};

use crate::hints::ReverseHints;
use crate::recursive_sketch::Substream;
use gsum_sketch::CountSketch;
use gsum_streams::{FrequencyVector, StreamSink};

/// A `(g, λ, ε)`-cover: `(item, approximate g-value)` pairs
/// (Definition 12).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GCover {
    entries: Vec<(u64, f64)>,
}

impl GCover {
    /// Create an empty cover.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a cover from raw pairs.
    pub fn from_pairs(mut entries: Vec<(u64, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        entries.dedup_by_key(|&mut (i, _)| i);
        Self { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cover is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the cover contains an item.
    pub fn contains(&self, item: u64) -> bool {
        self.entries
            .binary_search_by_key(&item, |&(i, _)| i)
            .is_ok()
    }

    /// The approximate g-value recorded for an item, if present.
    pub fn weight(&self, item: u64) -> Option<f64> {
        self.entries
            .binary_search_by_key(&item, |&(i, _)| i)
            .ok()
            .map(|idx| self.entries[idx].1)
    }

    /// Iterate over `(item, weight)` pairs in increasing item order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sum of the recorded weights.
    pub fn total_weight(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }
}

/// A one-pass streaming algorithm producing a `(g, λ, ε)`-cover.
///
/// Updates are pushed through the [`StreamSink`] supertrait.
/// Implementations are *linear sketches over a fixed hash seed*: processing a
/// stream and then querying gives the cover of the stream's frequency vector,
/// and the same structure can be reused across recursion levels of the
/// recursive sketch.
///
/// **Linearity is a requirement, not a convention.**  The recursive sketch's
/// batched ingestion path coalesces duplicate items (summing their deltas in
/// `i64`, reordering by item) before routing a batch to the level sketches —
/// exact for any sketch whose state is a linear function of the frequency
/// vector, which is what [Li–Nguyen–Woodruff 2014] shows is WLOG for
/// turnstile algorithms.  An implementation that is order- or
/// occurrence-sensitive (per-update decay, update counting, max-delta
/// tracking, ...) would observe different batches than a per-update replay
/// and must not be driven through
/// [`RecursiveSketch`](crate::RecursiveSketch) batching.
pub trait HeavyHitterSketch: StreamSink {
    /// Produce a cover of the stream processed so far.  `domain` bounds the
    /// item identifiers that may be reported.
    fn cover(&self, domain: u64) -> GCover;

    /// Number of 64-bit words of state (the space the zero-one laws count).
    fn space_words(&self) -> usize;

    /// Tell the sketch which substream it is fed.
    /// [`RecursiveSketch`](crate::RecursiveSketch) calls this on every level
    /// when it builds or restores it.  A sketch that scans the domain for
    /// item identities restricts the scan to its substream; the default
    /// ignores the binding.
    fn bind_substream(&mut self, _substream: Substream) {}
}

/// The candidate scan both heavy-hitter algorithms run over their
/// CountSketch: the top `k` of the observed support (the reverse hints)
/// while the hint budget holds.  Past it, the top `k` of the items of
/// `0..domain` in `substream` — a recursive-sketch level's CountSketch only
/// ever saw its substream, so any other item's estimate is collision noise —
/// or of the whole domain for a sketch bound to no substream.
pub(crate) fn scan_candidates(
    countsketch: &CountSketch,
    hints: &ReverseHints,
    substream: Option<&Substream>,
    domain: u64,
    k: usize,
) -> Vec<(u64, f64)> {
    if !hints.is_saturated() {
        countsketch.top_candidates(hints.iter().filter(|&item| item < domain), k)
    } else if let Some(substream) = substream {
        countsketch.top_candidates(substream.items_below(domain), k)
    } else {
        countsketch.top_candidates(0..domain, k)
    }
}

/// The exact `(g, λ)`-heavy hitters of a frequency vector, used as ground
/// truth in tests and experiments (Definition 11).
pub fn exact_heavy_hitters<G: gsum_gfunc::GFunction + ?Sized>(
    g: &G,
    vector: &FrequencyVector,
    lambda: f64,
) -> Vec<u64> {
    let total: f64 = vector.iter().map(|(_, v)| g.eval_signed(v)).sum();
    let mut out: Vec<u64> = vector
        .iter()
        .filter(|&(_, v)| {
            let gv = g.eval_signed(v);
            gv >= lambda * (total - gv)
        })
        .map(|(i, _)| i)
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_gfunc::library::PowerFunction;

    #[test]
    fn cover_basic_operations() {
        let cover = GCover::from_pairs(vec![(5, 10.0), (1, 2.0), (5, 11.0), (9, 3.0)]);
        assert_eq!(cover.len(), 3);
        assert!(cover.contains(1) && cover.contains(5) && cover.contains(9));
        assert!(!cover.contains(2));
        assert_eq!(cover.weight(1), Some(2.0));
        assert_eq!(cover.weight(2), None);
        assert!((cover.total_weight() - 15.0).abs() < 1e-12);
        let items: Vec<u64> = cover.iter().map(|(i, _)| i).collect();
        assert_eq!(items, vec![1, 5, 9]);
    }

    #[test]
    fn empty_cover() {
        let cover = GCover::new();
        assert!(cover.is_empty());
        assert_eq!(cover.len(), 0);
        assert_eq!(cover.total_weight(), 0.0);
    }

    #[test]
    fn exact_heavy_hitters_ground_truth() {
        let g = PowerFunction::new(2.0);
        let mut fv = FrequencyVector::new(100);
        fv.apply(7, 100);
        for i in 10..30 {
            fv.apply(i, 2);
        }
        // g(100) = 10^4, rest = 20·4 = 80; item 7 is heavy for λ up to 125.
        assert_eq!(exact_heavy_hitters(&g, &fv, 0.1), vec![7]);
        assert_eq!(exact_heavy_hitters(&g, &fv, 100.0), vec![7]);
        assert!(exact_heavy_hitters(&g, &fv, 200.0).is_empty());
        // With a tiny λ everything is heavy.
        assert_eq!(exact_heavy_hitters(&g, &fv, 1e-9).len(), 21);
    }
}
