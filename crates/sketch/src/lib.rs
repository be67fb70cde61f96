//! # gsum-sketch
//!
//! The linear-sketch substrates the paper builds on (§3.1):
//!
//! * [`CountSketch`] — Charikar–Chen–Farach-Colton.  Given heaviness `λ`,
//!   accuracy `ε` and failure probability `δ`, a `CountSketch` with
//!   `O(1/(λ ε²))` columns and `O(log(n/δ))` rows returns, for every item, a
//!   frequency estimate with additive error `ε √(λ F₂)` (more precisely,
//!   error bounded by the residual second moment after removing the top
//!   `O(1/λ)` items).  Both of the paper's heavy-hitter algorithms
//!   (Algorithms 1 and 2) are wrappers around this structure.
//! * [`AmsF2Sketch`] — the Alon–Matias–Szegedy "tug of war" estimator of
//!   `F₂ = Σ v_i²`, used by Algorithm 2's pruning stage to normalize the
//!   CountSketch error.
//! * [`ExactFrequencies`] — the exact (linear space) baseline.
//!
//! All sketches implement the push-based
//! [`StreamSink`] contract (updates are pushed one
//! at a time or in batches; queries reflect the prefix absorbed so far) plus
//! [`FrequencySketch`] for per-item estimates, and all are linear: they
//! implement [`MergeableSketch`], and
//! processing a stream is equivalent to processing any reordering or
//! resharding of it.

pub mod ams;
pub mod countsketch;
pub mod error;
pub mod exact;
pub(crate) mod util;

pub use ams::AmsF2Sketch;
pub use countsketch::{CountSketch, CountSketchConfig};
pub use error::SketchError;
pub use exact::ExactFrequencies;

// The hash-backend switch, the push-based ingestion contract and the
// snapshot/restore layer, re-exported so sketch users need only this crate.
pub use gsum_hash::{HashBackend, SignFamily};
pub use gsum_streams::{Checkpoint, CheckpointError, MergeError, MergeableSketch, StreamSink};

/// A frequency sketch: a compact summary of a turnstile stream from which
/// per-item frequency estimates can be extracted.  Updates are pushed through
/// the [`StreamSink`] supertrait.
pub trait FrequencySketch: StreamSink {
    /// Estimated frequency of `item`.
    fn estimate(&self, item: u64) -> f64;

    /// Number of 64-bit words of state the sketch occupies (the "space" that
    /// the zero-one laws are about). Hash-function descriptions are counted.
    fn space_words(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_streams::{StreamConfig, StreamGenerator, UniformStreamGenerator, Update};

    /// The sink plumbing should feed every update to `update`.
    #[test]
    fn process_stream_feeds_update() {
        struct Counter {
            n: usize,
        }
        impl StreamSink for Counter {
            fn update(&mut self, _u: Update) {
                self.n += 1;
            }
        }
        impl FrequencySketch for Counter {
            fn estimate(&self, _item: u64) -> f64 {
                self.n as f64
            }
            fn space_words(&self) -> usize {
                1
            }
        }
        let mut c = Counter { n: 0 };
        let s = UniformStreamGenerator::new(StreamConfig::new(16, 250), 1).generate();
        c.process_stream(&s);
        assert_eq!(c.n, 250);
        c.update_batch(s.updates());
        assert_eq!(c.n, 500);
    }
}
