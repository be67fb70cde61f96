//! The failure policy for partially-delivered client streams.

/// What the serving state keeps from a client stream that dies before its
/// explicit end-of-stream frame (connection reset, producer crash, a
/// mid-stream decode error).
///
/// Linearity makes both choices exact: every worker shard and
/// per-connection accumulator is a clone with the serving prototype's
/// seeds, so whatever subset of a client's updates the policy folds in, the
/// serving state equals a single-threaded sketch of exactly the kept
/// updates — bit for bit, in any fold order.
///
/// The policies differ in *when* a client's updates become part of the
/// serving state, which is also what decides their fate on failure:
///
/// | policy           | a stream's updates fold                  | a dead stream keeps       |
/// |------------------|------------------------------------------|---------------------------|
/// | `DiscardPartial` | once, at its end frame                   | nothing                   |
/// | `MergeCompleted` | with its worker's shard: once the shard, after absorbing everything queued, holds ≥ K updates; on a query; or at a stream end | every update of its completed frames |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServePolicy {
    /// All-or-nothing streams: a client's updates accumulate in its
    /// per-client sketch and fold into the serving state only when the
    /// end-of-stream frame arrives.  A stream that dies mid-flight is
    /// discarded whole.
    ///
    /// This is the safe default for **at-least-once** producers: a client
    /// that retries its entire stream after a failure can never double-count
    /// updates, because the failed attempt contributed nothing.
    #[default]
    DiscardPartial,
    /// Mid-stream durability: each fold worker absorbs its connections'
    /// decoded updates into one shard sketch, taking every batch queued for
    /// it as one coalesced batch.  The shard folds into the serving state
    /// once, after such an absorb, it holds at least K (`checkpoint_every`)
    /// updates, on a query, and at a stream's end frame.  Durable counts
    /// are therefore not K-aligned.  A stream that dies mid-frame keeps
    /// every update of its completed frames, and the serving state
    /// checkpoints mid-stream; the snapshots are written by the server's
    /// publisher thread, so the envelope on disk can trail the durable
    /// count by the snapshot in flight.
    /// That is the kill/resume contract: after a restart, a single writer
    /// reads the durable count `D` (`COUNT`) and replays only the updates
    /// from offset `D` on.
    ///
    /// Suits **offset-replay** producers (replay from the durable count, not
    /// from zero) and at-most-once producers that never retry; a client that
    /// blindly resends a whole failed stream under this policy would
    /// double-count the updates of its completed frames.
    MergeCompleted,
}

impl ServePolicy {
    /// Whether a stream's decoded updates fold into the serving state while
    /// the stream is still in flight.
    pub fn folds_mid_stream(self) -> bool {
        matches!(self, ServePolicy::MergeCompleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_no_double_count_policy() {
        assert_eq!(ServePolicy::default(), ServePolicy::DiscardPartial);
        assert!(!ServePolicy::DiscardPartial.folds_mid_stream());
        assert!(ServePolicy::MergeCompleted.folds_mid_stream());
    }
}
