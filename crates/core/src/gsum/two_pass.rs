//! The two-pass g-SUM estimator (Theorem 3's upper bound): Algorithm 1 per
//! level inside the recursive sketch.

use super::{median_over_repetitions, GSumEstimator};
use crate::config::GSumConfig;
use crate::heavy_hitters::two_pass::TwoPassHeavyHitterConfig;
use crate::heavy_hitters::TwoPassHeavyHitter;
use crate::recursive_sketch::RecursiveSketch;
use gsum_gfunc::{FunctionCodec, GFunction};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{
    MergeError, MergeableSketch, StreamSink, TurnstileStream, TwoPhaseSketch, Update,
};
use std::io::{Read, Write};

/// Long-lived two-pass g-SUM state: Algorithm-1 level sketches inside the
/// recursive reduction, driven push-style.
///
/// The state machine mirrors the two passes: push the first pass's updates,
/// call [`begin_second_pass`](Self::begin_second_pass) to freeze each level's
/// candidate set, push the second pass's updates (the same stream, replayed),
/// then [`estimate`](Self::estimate).  Merging requires both sketches to be
/// in the same phase.
#[derive(Debug, Clone)]
pub struct TwoPassGSumSketch<G> {
    inner: RecursiveSketch<TwoPassHeavyHitter<G>>,
}

impl<G: GFunction + Clone> TwoPassGSumSketch<G> {
    /// Build the sketch state for function `g` under `config`, with an
    /// explicit seed.
    pub fn with_seed(g: G, config: &GSumConfig, seed: u64) -> Self {
        let hh_config = TwoPassHeavyHitterConfig {
            rows: config.countsketch_rows,
            columns: config.countsketch_columns,
            candidates: config.candidates_per_level,
            backend: config.hash_backend,
            hint_cap: config.hint_cap,
        };
        let inner = RecursiveSketch::new(
            config.domain,
            config.levels,
            seed,
            move |_level, level_seed| TwoPassHeavyHitter::new(g.clone(), hh_config, level_seed),
        );
        Self { inner }
    }

    /// Build the sketch state with the configuration's own seed.
    pub fn new(g: G, config: &GSumConfig) -> Self {
        Self::with_seed(g, config, config.seed)
    }

    /// Close the first pass: freeze each level's candidate set, after which
    /// pushed updates tabulate candidate frequencies exactly.  Idempotent.
    pub fn begin_second_pass(&mut self) {
        let domain = self.inner.domain();
        for level in self.inner.levels_mut() {
            level.begin_second_pass(domain);
        }
    }

    /// Whether the first pass has been closed.
    pub fn in_second_pass(&self) -> bool {
        self.inner
            .level_sketches()
            .first()
            .map(|l| l.in_second_pass())
            .unwrap_or(false)
    }

    /// The g-SUM estimate of the prefix absorbed so far (meaningful after the
    /// second pass; clamped at zero).
    pub fn estimate(&self) -> f64 {
        self.inner.estimate().max(0.0)
    }

    /// The domain size.
    pub fn domain(&self) -> u64 {
        self.inner.domain()
    }

    /// The recursive reduction underneath: the level sketches and the
    /// routing predicate that feeds them.
    pub fn recursive(&self) -> &RecursiveSketch<TwoPassHeavyHitter<G>> {
        &self.inner
    }

    /// Sketch state in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.inner.space_words()
    }
}

impl<G: GFunction + Clone> StreamSink for TwoPassGSumSketch<G> {
    fn update(&mut self, update: Update) {
        self.inner.update(update);
    }

    fn update_batch(&mut self, updates: &[Update]) {
        self.inner.update_batch(updates);
    }
}

impl<G: GFunction + Clone> MergeableSketch for TwoPassGSumSketch<G> {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        self.inner.merge(&other.inner)
    }
}

/// The two-phase contract the sharded coordinator
/// (`gsum_streams::ShardedTwoPassCoordinator`) drives: one transition on the
/// merged phase-1 state, phase-2 workers rehydrated from its checkpoint.
impl<G: GFunction + Clone> TwoPhaseSketch for TwoPassGSumSketch<G> {
    fn begin_second_pass(&mut self) {
        TwoPassGSumSketch::begin_second_pass(self);
    }

    fn in_second_pass(&self) -> bool {
        TwoPassGSumSketch::in_second_pass(self)
    }
}

/// Seeds + counters + **phase**: each level's checkpoint carries its phase
/// tag and (after the transition) its frozen candidate set, so a state saved
/// between the passes rehydrates ready for the second pass — the
/// clone-after-transition distribution the sharded coordinator performs.
impl<G: GFunction + Clone + FunctionCodec> Checkpoint for TwoPassGSumSketch<G> {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::TWO_PASS_GSUM)?;
        self.inner.save(w)
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::TWO_PASS_GSUM)?;
        let inner: RecursiveSketch<TwoPassHeavyHitter<G>> = RecursiveSketch::restore(r)?;
        // A valid checkpoint has every level in the same phase (the
        // transition is atomic across levels).
        let phases: Vec<bool> = inner
            .level_sketches()
            .iter()
            .map(|l| l.in_second_pass())
            .collect();
        if phases.windows(2).any(|w| w[0] != w[1]) {
            return Err(CheckpointError::Corrupt(
                "levels disagree about the two-pass phase".into(),
            ));
        }
        Ok(Self { inner })
    }
}

/// Two-pass `(g, ε)`-SUM estimator for a slow-jumping, slow-dropping function
/// (predictability not required — the second pass tabulates candidate
/// frequencies exactly).
///
/// Batch wrapper around [`TwoPassGSumSketch`]: it drives the two passes over
/// a materialized stream.  Live ingestion with a replayable source should
/// hold a [`TwoPassGSumSketch`] and drive the phase transition itself.
#[derive(Debug, Clone)]
pub struct TwoPassGSum<G> {
    g: G,
    config: GSumConfig,
}

impl<G: GFunction + Clone> TwoPassGSum<G> {
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
    pub fn sketch(&self) -> TwoPassGSumSketch<G> {
        self.sketch_with_seed(self.config.seed)
    }

    /// A fresh long-lived sketch state with an explicit seed.
    pub fn sketch_with_seed(&self, seed: u64) -> TwoPassGSumSketch<G> {
        TwoPassGSumSketch::with_seed(self.g.clone(), &self.config, seed)
    }

    /// Estimate with an explicit seed override.
    pub fn estimate_with_seed(&self, stream: &TurnstileStream, seed: u64) -> f64 {
        let mut sketch = self.sketch_with_seed(seed);
        // Pass 1: CountSketch per level.
        sketch.process_stream(stream);
        // Between passes: fix each level's candidate set.
        sketch.begin_second_pass();
        // Pass 2: exact tabulation of the candidates (the recursive sketch
        // routes each update to the levels whose substream contains it, and
        // the level sketches are now in their second phase).
        sketch.process_stream(stream);
        sketch.estimate()
    }
}

impl<G: GFunction + Clone> GSumEstimator for TwoPassGSum<G> {
    fn estimate(&self, stream: &TurnstileStream) -> f64 {
        self.estimate_with_seed(stream, self.config.seed)
    }

    fn passes(&self) -> usize {
        2
    }

    fn space_words(&self) -> usize {
        self.sketch().space_words()
    }

    fn estimate_median(&self, stream: &TurnstileStream, repetitions: usize) -> f64 {
        median_over_repetitions(repetitions, |r| {
            self.estimate_with_seed(stream, self.config.seed.wrapping_add(r as u64 * 104_729))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsum::{exact_gsum, relative_error, OnePassGSum};
    use gsum_gfunc::library::{OscillatingQuadratic, PowerFunction};
    use gsum_streams::{
        PlantedStreamGenerator, StreamConfig, StreamGenerator, ZipfStreamGenerator,
    };

    #[test]
    fn approximates_quadratic_sum() {
        let stream =
            ZipfStreamGenerator::new(StreamConfig::new(1 << 10, 30_000), 1.2, 7).generate();
        let g = PowerFunction::new(2.0);
        let truth = exact_gsum(&g, &stream.frequency_vector());
        let est = TwoPassGSum::new(g, GSumConfig::with_space_budget(1 << 10, 0.2, 1024, 3));
        let rel = relative_error(est.estimate_median(&stream, 3), truth);
        assert!(rel < 0.3, "relative error {rel}");
    }

    #[test]
    fn handles_unpredictable_function_better_than_one_pass_on_adversarial_input() {
        // A stream dominated by one huge item whose frequency the one-pass
        // CountSketch can only estimate approximately. For the erratic
        // (2 + sin x)x² even a ±1 error changes g by a constant factor, while
        // the two-pass algorithm measures the frequency exactly.
        let domain = 1u64 << 10;
        let stream =
            PlantedStreamGenerator::new(StreamConfig::new(domain, 50_000), vec![(5, 100_000)], 21)
                .generate();
        let g = OscillatingQuadratic::direct();
        let truth = exact_gsum(&g, &stream.frequency_vector());

        // Modest space so the one-pass frequency estimates carry error.
        let cfg = GSumConfig::with_space_budget(domain, 0.1, 128, 5);
        let two_pass = TwoPassGSum::new(g, cfg.clone());
        let one_pass = OnePassGSum::new(OscillatingQuadratic::direct(), cfg);

        let two_err = relative_error(two_pass.estimate_median(&stream, 3), truth);
        let one_err = relative_error(one_pass.estimate_median(&stream, 3), truth);
        assert!(
            two_err < 0.25,
            "two-pass error {two_err} should be small (truth {truth})"
        );
        // The one-pass estimator is allowed to fail here; it must not beat
        // the two-pass algorithm by much (sanity check of the separation).
        assert!(two_err <= one_err + 0.05, "one: {one_err}, two: {two_err}");
    }

    #[test]
    fn passes_and_space() {
        let g = PowerFunction::new(2.0);
        let est = TwoPassGSum::new(g, GSumConfig::with_space_budget(256, 0.2, 64, 1));
        assert_eq!(est.passes(), 2);
        assert!(est.space_words() > 64);
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let g = PowerFunction::new(2.0);
        let est = TwoPassGSum::new(g, GSumConfig::with_space_budget(64, 0.2, 64, 1));
        assert_eq!(est.estimate(&gsum_streams::TurnstileStream::new(64)), 0.0);
    }

    /// Driving the passes by hand through the long-lived sketch matches the
    /// batch wrapper bit for bit.
    #[test]
    fn incremental_two_pass_matches_batch_estimate_bit_for_bit() {
        let stream = ZipfStreamGenerator::new(StreamConfig::new(512, 8_000), 1.2, 3).generate();
        let g = PowerFunction::new(2.0);
        let config = GSumConfig::with_space_budget(512, 0.2, 128, 19);
        let batch = TwoPassGSum::new(g, config.clone()).estimate(&stream);

        let mut sketch = TwoPassGSumSketch::new(g, &config);
        assert!(!sketch.in_second_pass());
        for &u in stream.iter() {
            sketch.update(u);
        }
        sketch.begin_second_pass();
        assert!(sketch.in_second_pass());
        for &u in stream.iter() {
            sketch.update(u);
        }
        assert_eq!(sketch.estimate().to_bits(), batch.to_bits());
    }

    /// Sharded first and second passes merge to the single-threaded state
    /// (merging is phase-aware: both shards close their first pass before
    /// merging second-pass tabulations).
    #[test]
    fn sharded_two_pass_merges_per_phase() {
        let stream = ZipfStreamGenerator::new(StreamConfig::new(256, 6_000), 1.2, 5).generate();
        let g = PowerFunction::new(2.0);
        let config = GSumConfig::with_space_budget(256, 0.2, 128, 23);

        let mut whole = TwoPassGSumSketch::new(g, &config);
        whole.process_stream(&stream);
        whole.begin_second_pass();
        whole.process_stream(&stream);

        // Phase 1 sharded.
        let prototype = TwoPassGSumSketch::new(g, &config);
        let (front, back) = stream.updates().split_at(stream.len() / 2);
        let mut a = prototype.clone();
        a.update_batch(front);
        let mut b = prototype.clone();
        b.update_batch(back);
        a.merge(&b).unwrap();
        // Phase transition on the merged state, then phase 2 sharded from
        // clones of it (so the candidate sets agree).
        a.begin_second_pass();
        let mut p2a = a.clone();
        p2a.update_batch(front);
        let mut p2b = a.clone();
        p2b.update_batch(back);
        p2a.merge(&p2b).unwrap();

        assert_eq!(p2a.estimate().to_bits(), whole.estimate().to_bits());

        // Mixed-phase merges are rejected.
        let mut fresh = prototype.clone();
        assert!(fresh.merge(&p2a).is_err());
    }
}
