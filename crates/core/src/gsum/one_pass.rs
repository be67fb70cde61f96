//! The one-pass g-SUM estimator (Theorem 2's upper bound): Algorithm 2 per
//! level inside the recursive sketch.

use super::{median_over_repetitions, GSumEstimator};
use crate::config::GSumConfig;
use crate::heavy_hitters::{OnePassHeavyHitter, OnePassHeavyHitterConfig};
use crate::recursive_sketch::RecursiveSketch;
use gsum_gfunc::{FunctionCodec, GFunction};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{MergeError, MergeableSketch, StreamSink, TurnstileStream, Update};
use std::io::{Read, Write};

/// Long-lived one-pass g-SUM state: the per-level Algorithm-2 sketches inside
/// the recursive reduction, driven push-style.
///
/// Updates are pushed through [`StreamSink`]; [`estimate`](Self::estimate)
/// can be queried at any prefix.  Clones share hash seeds, so clones that
/// absorbed disjoint shards of a stream [`merge`](MergeableSketch::merge)
/// into exactly the state a single sketch would have reached — the backbone
/// of [`gsum_streams::ShardedIngest`] ingestion.
#[derive(Debug, Clone)]
pub struct OnePassGSumSketch<G> {
    inner: RecursiveSketch<OnePassHeavyHitter<G>>,
}

impl<G: GFunction + Clone> OnePassGSumSketch<G> {
    /// Build the sketch state for function `g` under `config`, with an
    /// explicit seed.
    pub fn with_seed(g: G, config: &GSumConfig, seed: u64) -> Self {
        let hh_config = OnePassHeavyHitterConfig {
            rows: config.countsketch_rows,
            columns: config.countsketch_columns,
            candidates: config.candidates_per_level,
            epsilon: config.epsilon,
            envelope_factor: config.envelope_factor,
            backend: config.hash_backend,
            sign_family: config.sign_family,
            hint_cap: config.hint_cap,
        };
        let inner = RecursiveSketch::new(
            config.domain,
            config.levels,
            seed,
            move |_level, level_seed| OnePassHeavyHitter::new(g.clone(), hh_config, level_seed),
        );
        Self { inner }
    }

    /// Build the sketch state with the configuration's own seed.
    pub fn new(g: G, config: &GSumConfig) -> Self {
        Self::with_seed(g, config, config.seed)
    }

    /// The g-SUM estimate of the prefix absorbed so far (clamped at zero —
    /// `g ≥ 0` so negative combinations are pure noise).
    pub fn estimate(&self) -> f64 {
        self.inner.estimate().max(0.0)
    }

    /// The g-SUM estimate under an *external* function instead of the
    /// wrapped one.
    ///
    /// The absorbed state is pure frequency structure — the wrapped `g`
    /// enters only at query time, inside the per-level covers — so a single
    /// substrate can answer for any function in the class.  For the wrapped
    /// function this is bit-identical to [`estimate`](Self::estimate).
    ///
    /// **Memoized per level.** Each level computes its g-independent query
    /// plan (top candidates, their estimates and the residual error bound)
    /// on the first query of a state and keeps it for every later query,
    /// whatever the function — see [`OnePassHeavyHitter::cover_with`].  A
    /// state queried for K functions therefore scans its candidates once,
    /// not K times.  `update`, `update_batch` and `merge` drop the plans
    /// of the levels they reach; clones and restored states start without
    /// them.  Answers are bit-identical to a never-queried state.
    pub fn estimate_with<F: GFunction + ?Sized>(&self, g: &F) -> f64 {
        let domain = self.inner.domain();
        let covers: Vec<_> = self
            .inner
            .level_sketches()
            .iter()
            .map(|level| level.cover_with(g, domain))
            .collect();
        self.inner.estimate_from_covers(&covers).max(0.0)
    }

    /// The wrapped function.
    pub fn function(&self) -> &G {
        self.inner.level_sketches()[0].function()
    }

    /// The recursive reduction underneath: the level sketches and the
    /// routing predicate that feeds them.
    pub fn recursive(&self) -> &RecursiveSketch<OnePassHeavyHitter<G>> {
        &self.inner
    }

    /// [`Checkpoint::save`] with the function-parameter bytes replaced by
    /// `params` in every level.
    ///
    /// Because the counters, seeds and hints are function-independent, the
    /// output is exactly the checkpoint a sketch *built with that function*
    /// (same configuration, same seed) would write after the same stream —
    /// how the serving registry emits per-function checkpoints from one
    /// shared substrate.
    pub fn save_with_params(
        &self,
        w: &mut impl Write,
        params: &[u8],
    ) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::ONE_PASS_GSUM)?;
        self.inner
            .save_levels_with(w, |level, w| level.save_with_params(w, params))
    }

    /// The domain size.
    pub fn domain(&self) -> u64 {
        self.inner.domain()
    }

    /// Sketch state in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.inner.space_words()
    }
}

impl<G: GFunction + Clone> StreamSink for OnePassGSumSketch<G> {
    fn update(&mut self, update: Update) {
        self.inner.update(update);
    }

    fn update_batch(&mut self, updates: &[Update]) {
        self.inner.update_batch(updates);
    }
}

impl<G: GFunction + Clone> MergeableSketch for OnePassGSumSketch<G> {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        self.inner.merge(&other.inner)
    }
}

/// The whole estimator state — every level's CountSketch + AMS counters,
/// their seeds, and the function's parameters — serializes through the
/// nested recursive-sketch checkpoint, so a long-running ingestion can be
/// snapshotted at any prefix and resumed bit-for-bit (see
/// `gsum_streams::ShardedIngest::resume`).
impl<G: GFunction + Clone + FunctionCodec> Checkpoint for OnePassGSumSketch<G> {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::ONE_PASS_GSUM)?;
        self.inner.save(w)
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::ONE_PASS_GSUM)?;
        Ok(Self {
            inner: RecursiveSketch::restore(r)?,
        })
    }
}

/// One-pass `(g, ε)`-SUM estimator for a slow-jumping, slow-dropping,
/// predictable function.
///
/// This is the batch-world wrapper around [`OnePassGSumSketch`]: each
/// [`estimate`](GSumEstimator::estimate) builds a fresh sketch from the
/// configured seed, pushes the input through it once, and queries it.  This
/// makes it cheap to sweep configurations in the experiments and keeps
/// repeated estimates independent given different seeds.  Live ingestion
/// should hold an [`OnePassGSumSketch`] instead and push updates as they
/// arrive.
#[derive(Debug, Clone)]
pub struct OnePassGSum<G> {
    g: G,
    config: GSumConfig,
}

impl<G: GFunction + Clone> OnePassGSum<G> {
    /// Create the estimator for function `g` under `config`.
    pub fn new(g: G, config: GSumConfig) -> Self {
        Self { g, config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &GSumConfig {
        &self.config
    }

    /// A fresh long-lived sketch state with the configured seed (the
    /// push-based entry point).
    pub fn sketch(&self) -> OnePassGSumSketch<G> {
        self.sketch_with_seed(self.config.seed)
    }

    /// A fresh long-lived sketch state with an explicit seed.
    pub fn sketch_with_seed(&self, seed: u64) -> OnePassGSumSketch<G> {
        OnePassGSumSketch::with_seed(self.g.clone(), &self.config, seed)
    }

    /// Estimate with an explicit seed override (used by the median
    /// amplification and by the experiments' repeated trials).
    pub fn estimate_with_seed(&self, stream: &TurnstileStream, seed: u64) -> f64 {
        let mut sketch = self.sketch_with_seed(seed);
        sketch.process_stream(stream);
        sketch.estimate()
    }
}

impl<G: GFunction + Clone> GSumEstimator for OnePassGSum<G> {
    fn estimate(&self, stream: &TurnstileStream) -> f64 {
        self.estimate_with_seed(stream, self.config.seed)
    }

    fn passes(&self) -> usize {
        1
    }

    fn space_words(&self) -> usize {
        self.sketch().space_words()
    }

    fn estimate_median(&self, stream: &TurnstileStream, repetitions: usize) -> f64 {
        median_over_repetitions(repetitions, |r| {
            self.estimate_with_seed(stream, self.config.seed.wrapping_add(r as u64 * 7919))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsum::{exact_gsum, relative_error};
    use gsum_gfunc::library::{PowerFunction, SpamDiscountUtility};
    use gsum_streams::{StreamConfig, StreamGenerator, ZipfStreamGenerator};

    fn zipf_stream(domain: u64, len: usize, seed: u64) -> gsum_streams::TurnstileStream {
        ZipfStreamGenerator::new(StreamConfig::new(domain, len), 1.2, seed).generate()
    }

    #[test]
    fn approximates_f2_on_skewed_stream() {
        let stream = zipf_stream(1 << 10, 30_000, 3);
        let g = PowerFunction::new(2.0);
        let truth = exact_gsum(&g, &stream.frequency_vector());
        let est = OnePassGSum::new(g, GSumConfig::with_space_budget(1 << 10, 0.2, 1024, 11));
        let approx = est.estimate_median(&stream, 3);
        let rel = relative_error(approx, truth);
        assert!(
            rel < 0.3,
            "relative error {rel} too large ({approx} vs {truth})"
        );
    }

    #[test]
    fn approximates_sqrt_moment() {
        let stream = zipf_stream(1 << 10, 30_000, 5);
        let g = PowerFunction::new(0.5);
        let truth = exact_gsum(&g, &stream.frequency_vector());
        let est = OnePassGSum::new(g, GSumConfig::with_space_budget(1 << 10, 0.2, 1024, 17));
        let approx = est.estimate_median(&stream, 3);
        let rel = relative_error(approx, truth);
        assert!(
            rel < 0.35,
            "relative error {rel} too large ({approx} vs {truth})"
        );
    }

    #[test]
    fn approximates_non_monotone_utility() {
        let stream = zipf_stream(1 << 10, 30_000, 9);
        let g = SpamDiscountUtility::new(20);
        let truth = exact_gsum(&g, &stream.frequency_vector());
        let est = OnePassGSum::new(g, GSumConfig::with_space_budget(1 << 10, 0.2, 1024, 23));
        let approx = est.estimate_median(&stream, 3);
        let rel = relative_error(approx, truth);
        assert!(
            rel < 0.35,
            "relative error {rel} too large ({approx} vs {truth})"
        );
    }

    #[test]
    fn uses_one_pass_and_reports_space() {
        let g = PowerFunction::new(2.0);
        let est = OnePassGSum::new(g, GSumConfig::with_space_budget(256, 0.2, 64, 1));
        assert_eq!(est.passes(), 1);
        // Space scales with levels × (columns + AMS); far below the domain
        // for wide domains, but positive.
        assert!(est.space_words() > 64);
        assert_eq!(est.config().countsketch_columns, 64);
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let g = PowerFunction::new(2.0);
        let est = OnePassGSum::new(g, GSumConfig::with_space_budget(64, 0.2, 64, 1));
        let stream = gsum_streams::TurnstileStream::new(64);
        assert_eq!(est.estimate(&stream), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let stream = zipf_stream(256, 5_000, 2);
        let g = PowerFunction::new(1.5);
        let est = OnePassGSum::new(g, GSumConfig::with_space_budget(256, 0.2, 256, 5));
        assert_eq!(est.estimate(&stream), est.estimate(&stream));
        assert_ne!(
            est.estimate_with_seed(&stream, 1),
            est.estimate_with_seed(&stream, 2)
        );
    }

    /// The acceptance criterion of the push refactor: feeding updates one at
    /// a time through the long-lived sketch — never materializing a stream on
    /// the estimator side — matches the batch wrapper bit for bit.
    #[test]
    fn incremental_updates_match_batch_estimate_bit_for_bit() {
        let stream = zipf_stream(512, 8_000, 7);
        let g = PowerFunction::new(2.0);
        let config = GSumConfig::with_space_budget(512, 0.2, 256, 13);
        let batch = OnePassGSum::new(g, config.clone()).estimate(&stream);

        let mut sketch = OnePassGSumSketch::new(g, &config);
        for &u in stream.iter() {
            sketch.update(u);
        }
        assert_eq!(sketch.estimate().to_bits(), batch.to_bits());
    }

    #[test]
    fn estimate_at_prefixes_is_monotone_in_information() {
        // Queries at any prefix are legal; the empty prefix estimates zero.
        let g = PowerFunction::new(2.0);
        let config = GSumConfig::with_space_budget(64, 0.2, 64, 3);
        let mut sketch = OnePassGSumSketch::new(g, &config);
        assert_eq!(sketch.estimate(), 0.0);
        sketch.update(gsum_streams::Update::new(5, 10));
        assert!(sketch.estimate() > 0.0);
        assert_eq!(sketch.domain(), 64);
    }

    #[test]
    fn sharded_clones_merge_to_the_single_threaded_state() {
        let stream = zipf_stream(256, 6_000, 9);
        let g = PowerFunction::new(2.0);
        let config = GSumConfig::with_space_budget(256, 0.2, 128, 17);

        let mut whole = OnePassGSumSketch::new(g, &config);
        whole.process_stream(&stream);

        let prototype = OnePassGSumSketch::new(g, &config);
        let (front, back) = stream.updates().split_at(stream.len() / 3);
        let mut a = prototype.clone();
        a.update_batch(front);
        let mut b = prototype;
        b.update_batch(back);
        a.merge(&b).unwrap();

        assert_eq!(a.estimate().to_bits(), whole.estimate().to_bits());
    }

    #[test]
    fn merge_rejects_different_seeds() {
        let g = PowerFunction::new(2.0);
        let config = GSumConfig::with_space_budget(64, 0.2, 64, 3);
        let mut a = OnePassGSumSketch::with_seed(g, &config, 1);
        let b = OnePassGSumSketch::with_seed(g, &config, 2);
        assert!(a.merge(&b).is_err());
    }
}
