//! Push-based ingestion: the [`StreamSink`] and [`MergeableSketch`] traits.
//!
//! The paper's algorithms are one-pass state machines: they observe updates
//! `(i, δ)` one at a time and never see the stream again.  `StreamSink` is
//! that contract.  Every sketch and estimator state object in the workspace
//! implements it, so live traffic can be pushed straight into an estimator
//! without ever materializing a [`TurnstileStream`]
//! in memory.
//!
//! `MergeableSketch` captures the *linearity* that [Li–Nguyen–Woodruff 2014]
//! shows is essentially without loss of generality for turnstile algorithms:
//! two sketches built with identical configuration and seeds can be merged
//! into the sketch of the concatenated stream.  Linearity is what makes
//! sharded parallel ingestion ([`crate::ShardedIngest`]) and distributed
//! aggregation possible.

use crate::stream::TurnstileStream;
use crate::update::Update;
use std::collections::HashMap;
use std::fmt;

/// Coalesce a batch of updates: one entry per distinct item, carrying the
/// item's total delta over the batch, in increasing item order.
///
/// Turnstile deltas add exactly in `i64`, and [Li–Nguyen–Woodruff 2014] shows
/// linear sketches are WLOG for turnstile algorithms — so for every linear
/// sketch, feeding the coalesced batch is *bit-for-bit* equivalent to feeding
/// the original updates one at a time (counters hold integer values that
/// `f64` represents exactly).  A Zipf head item appearing thousands of times
/// in a batch is then hashed once instead of thousands of times, which is the
/// heart of the sketches' `update_batch` fast path.
///
/// Items whose deltas cancel to zero are kept (with delta 0) so that sinks
/// which track the *set* of touched items — not just linear counters —
/// observe exactly the items a per-update replay would have observed.
pub fn coalesce_updates(updates: &[Update]) -> Vec<Update> {
    let mut totals: HashMap<u64, i64> = HashMap::with_capacity(updates.len().min(1024));
    for u in updates {
        *totals.entry(u.item).or_insert(0) += u.delta;
    }
    let mut out: Vec<Update> = totals
        .into_iter()
        .map(|(item, delta)| Update { item, delta })
        .collect();
    out.sort_unstable_by_key(|u| u.item);
    out
}

/// Check a batch against the turnstile model's magnitude promise:
/// `Ok(Σ|δ|)` when the batch's Σ|δ| is at most `i64::MAX`, otherwise
/// `Err(item)` naming the update at which the running Σ|δ| first passes it.
///
/// Under that bound no summation order can overflow an item's `i64` total,
/// so a batch that passes can be coalesced ([`coalesce_into`]) and applied
/// by any worker without panicking (debug) or wrapping (release).  The same
/// holds for any union of checked batches whose returned sums add up to at
/// most `i64::MAX`, which is how a worker that coalesces several batches
/// into one decides where to stop.  Updates that cross a trust boundary — a
/// wire frame can legally carry any `i64` deltas — must pass this check
/// before a sketch sees them; both [`ShardedIngest`](crate::ShardedIngest)
/// and the serving reactor call it on every batch.
pub fn check_delta_magnitudes(updates: &[Update]) -> Result<u64, u64> {
    let mut sum = 0u64;
    for u in updates {
        // `sum ≤ i64::MAX` and `|δ| ≤ 2^63`, so the addition cannot wrap.
        sum += u.delta.unsigned_abs();
        if sum > i64::MAX as u64 {
            return Err(u.item);
        }
    }
    Ok(sum)
}

/// Whether a batch is already in coalesced form (strictly increasing item
/// identifiers — which implies one entry per item), i.e. a possible output of
/// [`coalesce_updates`].  The sketches' `update_batch` fast paths use this
/// O(len) check to skip re-coalescing batches that a wrapper (recursive
/// sketch, heavy-hitter pair) already coalesced.
pub fn is_coalesced(updates: &[Update]) -> bool {
    updates.windows(2).all(|w| w[0].item < w[1].item)
}

/// Borrow `updates` in coalesced form: the slice itself when it is already
/// coalesced (or too short to matter), otherwise a freshly coalesced copy
/// parked in `scratch`.  This is the shared preamble of every sketch's
/// `update_batch` fast path — one place to fix instead of six.
///
/// The scratch path is allocation-free at steady state: it sorts a copy of
/// the batch in place and compacts equal-item runs, so a sketch that reuses
/// the same scratch vector across batches stops paying the
/// hash-map-plus-fresh-`Vec` cost of [`coalesce_updates`] on every call.
/// The output is identical to [`coalesce_updates`] — one entry per distinct
/// item in increasing item order, net-zero items kept — because `i64`
/// addition is commutative, so summing a run of equal items in sorted order
/// yields the same total as summing them in stream order.
pub fn coalesce_into<'a>(updates: &'a [Update], scratch: &'a mut Vec<Update>) -> &'a [Update] {
    if updates.len() <= 1 || is_coalesced(updates) {
        return updates;
    }
    scratch.clear();
    scratch.extend_from_slice(updates);
    scratch.sort_unstable_by_key(|u| u.item);
    // Compact equal-item runs in place: `write` trails `read`, summing runs.
    let mut write = 0usize;
    for read in 1..scratch.len() {
        if scratch[read].item == scratch[write].item {
            scratch[write].delta += scratch[read].delta;
        } else {
            write += 1;
            scratch[write] = scratch[read];
        }
    }
    scratch.truncate(write + 1);
    scratch
}

/// A push-based consumer of turnstile updates.
///
/// Implementations must be *online*: `update` may be called any number of
/// times, in any order relative to queries, and queries (`estimate`,
/// `cover`, ...) reflect exactly the prefix pushed so far.
pub trait StreamSink {
    /// Process one turnstile update.
    fn update(&mut self, update: Update);

    /// Process a batch of updates (amortizes per-call overhead; semantically
    /// identical to updating one at a time, in order).
    fn update_batch(&mut self, updates: &[Update]) {
        for &u in updates {
            self.update(u);
        }
    }

    /// Process an entire materialized stream (batch convenience; equivalent
    /// to pushing every update in order).
    fn process_stream(&mut self, stream: &TurnstileStream) {
        self.update_batch(stream.updates());
    }
}

/// Error returned when two sketches cannot be merged (different shapes,
/// seeds, domains, or phases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// Human-readable reason.
    pub reason: String,
}

impl MergeError {
    /// Create a merge error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot merge sketches: {}", self.reason)
    }
}

impl std::error::Error for MergeError {}

/// A linear sketch: merging two copies built with identical configuration and
/// seeds yields the sketch of the concatenated input streams.
///
/// Laws (checked by the workspace's property tests):
/// * **concatenation**: `a.process(s1); a.merge(&b_with(s2))` equals
///   `a.process(s1 ++ s2)` for query purposes;
/// * **commutativity**: `a.merge(&b)` and `b.merge(&a)` answer queries
///   identically;
/// * **associativity**: `(a ⊔ b) ⊔ c` equals `a ⊔ (b ⊔ c)`.
pub trait MergeableSketch: StreamSink {
    /// Fold another sketch's state into this one.
    ///
    /// Fails if the two sketches were not built with identical configuration
    /// and seeds (so their hash functions disagree) — merging such sketches
    /// would silently corrupt estimates.
    fn merge(&mut self, other: &Self) -> Result<(), MergeError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial sink counting total |δ| pushed.
    struct AbsMass(i64);

    impl StreamSink for AbsMass {
        fn update(&mut self, u: Update) {
            self.0 += u.delta.abs();
        }
    }

    impl MergeableSketch for AbsMass {
        fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
            self.0 += other.0;
            Ok(())
        }
    }

    #[test]
    fn default_batch_and_stream_methods_feed_update() {
        let mut sink = AbsMass(0);
        sink.update_batch(&[Update::new(0, 3), Update::new(1, -2)]);
        assert_eq!(sink.0, 5);

        let mut s = TurnstileStream::new(4);
        s.push_delta(2, 7);
        sink.process_stream(&s);
        assert_eq!(sink.0, 12);
    }

    #[test]
    fn coalesce_sums_deltas_per_item_in_item_order() {
        let batch = [
            Update::new(5, 3),
            Update::new(1, -2),
            Update::new(5, 4),
            Update::new(9, 1),
            Update::new(1, 2),
        ];
        let coalesced = coalesce_updates(&batch);
        assert_eq!(
            coalesced,
            vec![Update::new(1, 0), Update::new(5, 7), Update::new(9, 1)]
        );
    }

    #[test]
    fn coalesce_keeps_cancelled_items_and_handles_empty() {
        assert!(coalesce_updates(&[]).is_empty());
        let coalesced = coalesce_updates(&[Update::new(3, 10), Update::new(3, -10)]);
        assert_eq!(coalesced, vec![Update::new(3, 0)]);
    }

    #[test]
    fn is_coalesced_detects_coalesce_output() {
        assert!(is_coalesced(&[]));
        assert!(is_coalesced(&[Update::new(5, 1)]));
        let batch = [Update::new(5, 3), Update::new(1, -2), Update::new(5, 4)];
        assert!(!is_coalesced(&batch));
        assert!(is_coalesced(&coalesce_updates(&batch)));
        // Duplicates and out-of-order items are both rejected.
        assert!(!is_coalesced(&[Update::new(2, 1), Update::new(2, 1)]));
        assert!(!is_coalesced(&[Update::new(3, 1), Update::new(1, 1)]));
    }

    #[test]
    fn coalesce_into_matches_coalesce_updates() {
        let mut scratch = Vec::new();
        // Uncoalesced input goes through the scratch path.
        let batch = [
            Update::new(5, 3),
            Update::new(1, -2),
            Update::new(5, 4),
            Update::new(9, 1),
            Update::new(1, 2),
            Update::new(7, -7),
            Update::new(7, 7),
        ];
        assert_eq!(
            coalesce_into(&batch, &mut scratch),
            &coalesce_updates(&batch)[..]
        );
        // Reusing the same scratch across batches stays correct.
        let batch2 = [Update::new(2, 1), Update::new(2, -1), Update::new(0, 5)];
        assert_eq!(
            coalesce_into(&batch2, &mut scratch),
            &coalesce_updates(&batch2)[..]
        );
        // Already-coalesced input is returned as-is without touching scratch.
        let sorted = coalesce_updates(&batch);
        scratch.clear();
        let out = coalesce_into(&sorted, &mut scratch);
        assert_eq!(out, &sorted[..]);
        assert!(scratch.is_empty());
    }

    #[test]
    fn delta_magnitude_check_accepts_batches_up_to_the_bound() {
        assert_eq!(check_delta_magnitudes(&[]), Ok(0));
        let batch = [Update::new(5, 3), Update::new(1, -2), Update::new(5, -3)];
        assert_eq!(check_delta_magnitudes(&batch), Ok(8));
        // Σ|δ| = i64::MAX exactly is still in range.
        let edge = [Update::new(1, i64::MAX - 1), Update::new(2, -1)];
        assert_eq!(check_delta_magnitudes(&edge), Ok(i64::MAX as u64));
        assert_eq!(
            check_delta_magnitudes(&[Update::new(3, i64::MIN + 1)]),
            Ok(i64::MAX as u64)
        );
    }

    #[test]
    fn delta_magnitude_check_reports_the_first_item_past_the_bound() {
        let overflow_pos = [Update::new(9, i64::MAX), Update::new(9, 1)];
        assert_eq!(check_delta_magnitudes(&overflow_pos), Err(9));
        // |i64::MIN| alone already exceeds the bound.
        let overflow_neg = [Update::new(4, i64::MIN), Update::new(4, -1)];
        assert_eq!(check_delta_magnitudes(&overflow_neg), Err(4));
        // Magnitudes add whatever the signs: extremes that would cancel are
        // rejected, and the reported item is where the running sum crossed.
        let cancel = [Update::new(2, i64::MAX), Update::new(2, i64::MIN)];
        assert_eq!(check_delta_magnitudes(&cancel), Err(2));
        let spread = [
            Update::new(1, i64::MAX / 2),
            Update::new(2, -(i64::MAX / 2)),
            Update::new(3, 2),
        ];
        assert_eq!(check_delta_magnitudes(&spread), Err(3));
    }

    #[test]
    fn merge_error_display() {
        let e = MergeError::new("seed mismatch");
        assert!(e.to_string().contains("seed mismatch"));
    }

    #[test]
    fn trivial_merge() {
        let mut a = AbsMass(3);
        let b = AbsMass(4);
        a.merge(&b).unwrap();
        assert_eq!(a.0, 7);
    }
}
