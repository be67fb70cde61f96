//! Capped reverse hints: the distinct items a sketch has observed.
//!
//! The heavy-hitter sketches face the same identification problem: their
//! counters summarize frequencies, but reporting a cover (or freezing a
//! candidate set) needs item *identities*, and scanning the whole `[0, n)`
//! domain for them costs `O(n)` at query time.  Reverse hints fix that: each
//! sketch remembers the distinct items it has seen, capped at a configurable
//! budget.  While under the cap, identification scans the observed support;
//! a sketch that crosses the cap *saturates* — its hints are discarded (the
//! memory is freed) and queries fall back to the domain scan (for a
//! recursive-sketch level, the scan of its substream), so the space stays
//! bounded by the cap regardless of the stream's support size.
//!
//! Saturation depends only on the **set** of distinct items observed, never
//! on arrival order, so batched, sharded and per-update ingestion agree
//! bit-for-bit, and [`merge_from`](ReverseHints::merge_from) reproduces
//! exactly the state single-threaded ingestion of the concatenated stream
//! reaches.

use gsum_streams::checkpoint::{self, CheckpointError};
use std::collections::HashSet;
use std::io::{Read, Write};

/// A capped set of distinct observed items with saturation fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct ReverseHints {
    cap: usize,
    seen: HashSet<u64>,
    saturated: bool,
}

impl ReverseHints {
    /// Create an empty hint set with the given cap.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "hint cap must be at least 1");
        Self {
            cap,
            seen: HashSet::new(),
            saturated: false,
        }
    }

    /// The cap this hint set was built with.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Record an observed item, saturating (and freeing the hint memory)
    /// once the number of distinct items crosses the cap.
    pub fn record(&mut self, item: u64) {
        if self.saturated {
            return;
        }
        self.seen.insert(item);
        if self.seen.len() > self.cap {
            self.seen = HashSet::new();
            self.saturated = true;
        }
    }

    /// Record a batch of observed items with one saturation early-exit for
    /// the whole batch: once saturated, recording is O(1) per *batch* — no
    /// per-item call, no hash-set probe — which is the steady state of any
    /// stream whose support exceeds the cap.  Saturation depends only on the
    /// distinct-item set, so this is state-identical to per-item
    /// [`record`](Self::record) in any order.
    pub fn record_batch(&mut self, items: impl IntoIterator<Item = u64>) {
        if self.saturated {
            return;
        }
        for item in items {
            self.seen.insert(item);
            if self.seen.len() > self.cap {
                self.seen = HashSet::new();
                self.saturated = true;
                return;
            }
        }
    }

    /// Whether the hint budget was exhausted (queries must fall back to the
    /// domain scan).
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Number of stored hints (zero once saturated).
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no hints are stored.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Iterate over the stored hints (arbitrary order; callers that need
    /// determinism must impose their own total order, as the heavy
    /// hitters' candidate scan
    /// [`CountSketch::top_candidates`](gsum_sketch::CountSketch::top_candidates)
    /// does — decreasing `|estimate|`, then increasing item — so its output
    /// is independent of the order the hints arrive in).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.seen.iter().copied()
    }

    /// Unite another hint set into this one.  Saturation is a function of
    /// the union of distinct items, so the merged state matches what
    /// single-threaded ingestion of the concatenated stream would have
    /// produced.  Callers must have verified the caps agree (it is part of
    /// the sketches' configuration equality check).
    pub fn merge_from(&mut self, other: &Self) {
        debug_assert_eq!(self.cap, other.cap, "hint caps must agree");
        if other.saturated {
            self.seen = HashSet::new();
            self.saturated = true;
        } else if !self.saturated {
            for &item in &other.seen {
                self.record(item);
            }
        }
    }

    /// Serialize the hint body (saturation flag plus the sorted items).  The
    /// cap itself is part of the owning sketch's configuration and is
    /// written by the caller.
    pub fn save_body(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_u8(w, u8::from(self.saturated))?;
        let mut items: Vec<u64> = self.seen.iter().copied().collect();
        items.sort_unstable();
        checkpoint::write_len(w, items.len())?;
        for item in items {
            checkpoint::write_u64(w, item)?;
        }
        Ok(())
    }

    /// Restore a hint body written by [`save_body`](Self::save_body) under
    /// the given cap.
    pub fn restore_body(r: &mut impl Read, cap: usize) -> Result<Self, CheckpointError> {
        if cap == 0 {
            return Err(CheckpointError::Corrupt("zero hint cap".into()));
        }
        let saturated = match checkpoint::read_u8(r)? {
            0 => false,
            1 => true,
            tag => {
                return Err(CheckpointError::Corrupt(format!(
                    "invalid hint saturation flag {tag}"
                )))
            }
        };
        let len = checkpoint::read_len(r)?;
        if saturated && len != 0 {
            return Err(CheckpointError::Corrupt(
                "saturated hint set must be empty".into(),
            ));
        }
        if len > cap {
            return Err(CheckpointError::Corrupt(format!(
                "{len} hints exceed the cap {cap}"
            )));
        }
        let mut seen = HashSet::with_capacity(len);
        for _ in 0..len {
            seen.insert(checkpoint::read_u64(r)?);
        }
        Ok(Self {
            cap,
            seen,
            saturated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_until_cap_then_saturates_and_frees() {
        let mut hints = ReverseHints::new(4);
        for item in 0..4 {
            hints.record(item);
        }
        assert!(!hints.is_saturated());
        assert_eq!(hints.len(), 4);
        // Re-recording known items never saturates.
        hints.record(2);
        assert!(!hints.is_saturated());
        // A fifth distinct item crosses the cap.
        hints.record(99);
        assert!(hints.is_saturated());
        assert!(hints.is_empty());
        hints.record(100); // no-op
        assert!(hints.is_empty());
    }

    #[test]
    fn exactly_cap_distinct_items_does_not_saturate() {
        // The boundary contract: saturation triggers strictly *past* the cap.
        let cap = 7;
        let mut single = ReverseHints::new(cap);
        let mut batched = ReverseHints::new(cap);
        for item in 0..cap as u64 {
            single.record(item);
        }
        batched.record_batch(0..cap as u64);
        for hints in [&single, &batched] {
            assert!(!hints.is_saturated());
            assert_eq!(hints.len(), cap);
            let mut items: Vec<u64> = hints.iter().collect();
            items.sort_unstable();
            assert_eq!(items, (0..cap as u64).collect::<Vec<_>>());
        }
        assert_eq!(single, batched);
        // One more distinct item tips both over; duplicates never do.
        single.record(3);
        batched.record_batch([3, 3, 0]);
        assert!(!single.is_saturated() && !batched.is_saturated());
        single.record(cap as u64);
        batched.record_batch([cap as u64]);
        assert!(single.is_saturated() && batched.is_saturated());
        assert!(single.is_empty() && batched.is_empty());
        assert_eq!(single, batched);
    }

    #[test]
    fn record_batch_matches_per_item_recording() {
        for upper in [0u64, 1, 5, 6, 7, 30] {
            let mut per_item = ReverseHints::new(6);
            let mut batch = ReverseHints::new(6);
            let items: Vec<u64> = (0..upper).map(|i| i % 11).collect();
            for &item in &items {
                per_item.record(item);
            }
            batch.record_batch(items.iter().copied());
            assert_eq!(per_item, batch, "upper = {upper}");
            // A further item keeps the two in lockstep, whether it lands in
            // an unsaturated set or no-ops against a saturated one.
            per_item.record(999);
            batch.record_batch([999]);
            assert_eq!(per_item, batch, "upper = {upper} after extra item");
        }
    }

    #[test]
    fn merge_matches_sequential_recording() {
        for (left, right) in [(0u64..3, 3u64..6), (0..5, 2..9), (0..1, 0..1)] {
            let mut sequential = ReverseHints::new(6);
            let mut a = ReverseHints::new(6);
            let mut b = ReverseHints::new(6);
            for item in left.clone() {
                sequential.record(item);
                a.record(item);
            }
            for item in right.clone() {
                sequential.record(item);
                b.record(item);
            }
            a.merge_from(&b);
            assert_eq!(a, sequential, "{left:?} ++ {right:?}");
        }
    }

    #[test]
    fn merge_propagates_saturation() {
        let mut saturated = ReverseHints::new(2);
        for item in 0..5 {
            saturated.record(item);
        }
        let mut fresh = ReverseHints::new(2);
        fresh.record(9);
        fresh.merge_from(&saturated);
        assert!(fresh.is_saturated());
        assert!(fresh.is_empty());
    }

    #[test]
    fn body_roundtrips() {
        let mut hints = ReverseHints::new(8);
        for item in [5u64, 1, 7] {
            hints.record(item);
        }
        let mut bytes = Vec::new();
        hints.save_body(&mut bytes).unwrap();
        let restored = ReverseHints::restore_body(&mut bytes.as_slice(), 8).unwrap();
        assert_eq!(hints, restored);

        // Saturated state roundtrips too.
        for item in 0..20 {
            hints.record(item);
        }
        assert!(hints.is_saturated());
        let mut bytes = Vec::new();
        hints.save_body(&mut bytes).unwrap();
        let restored = ReverseHints::restore_body(&mut bytes.as_slice(), 8).unwrap();
        assert_eq!(hints, restored);
    }

    #[test]
    fn corrupt_bodies_are_rejected() {
        let mut hints = ReverseHints::new(2);
        hints.record(1);
        let mut bytes = Vec::new();
        hints.save_body(&mut bytes).unwrap();
        // Truncations fail.
        for cut in 0..bytes.len() {
            assert!(ReverseHints::restore_body(&mut &bytes[..cut], 2).is_err());
        }
        // A hint count above the cap is corrupt.
        assert!(ReverseHints::restore_body(&mut bytes.as_slice(), 0).is_err());
        let mut flagged = bytes.clone();
        flagged[0] = 7;
        assert!(ReverseHints::restore_body(&mut flagged.as_slice(), 2).is_err());
    }
}
