//! Algorithm 1: the 2-pass `(g, λ, 0, δ)`-heavy-hitter algorithm.
//!
//! ```text
//! 2-Pass Heavy Hitters(g, λ, ε, δ):
//!   First pass:  S ← CountSketch(λ / 2H(M), 1/3, δ), keep the identities of
//!                the top O(H(M)/λ) estimated items, discard the estimates
//!   Second pass: tabulate v_j exactly for every j ∈ S
//!   return (j, g(v_j)) for j ∈ S
//! ```
//!
//! Because the second pass measures the candidate frequencies exactly, local
//! variability of `g` is irrelevant — this is precisely why predictability
//! drops out of the two-pass zero-one law (Theorem 3).

use super::{scan_candidates, GCover, HeavyHitterSketch};
use crate::config::invalid;
use crate::error::CoreError;
use crate::hints::ReverseHints;
use crate::recursive_sketch::Substream;
use gsum_gfunc::{FunctionCodec, GFunction};
use gsum_hash::HashBackend;
use gsum_sketch::{CountSketch, CountSketchConfig, FrequencySketch};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{IngestScratch, MergeError, MergeableSketch, StreamSink, Update};
use std::collections::HashMap;
use std::io::{Read, Write};

/// Configuration knobs for [`TwoPassHeavyHitter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPassHeavyHitterConfig {
    /// CountSketch rows (first pass).
    pub rows: usize,
    /// CountSketch columns (first pass).
    pub columns: usize,
    /// Number of candidates whose frequencies the second pass tabulates.
    pub candidates: usize,
    /// Hash family for the first-pass CountSketch rows.
    pub backend: HashBackend,
    /// Cap on the reverse hints (distinct observed items) kept during the
    /// first pass: under the cap, [`begin_second_pass`](TwoPassHeavyHitter::begin_second_pass)
    /// picks its candidates by scanning the observed support instead of the
    /// whole domain; past it the sketch saturates and falls back to scanning
    /// its substream of the domain.  Defaults to [`crate::config::DEFAULT_HINT_CAP`] when
    /// derived from a [`crate::GSumConfig`].
    pub hint_cap: usize,
}

impl TwoPassHeavyHitterConfig {
    /// Shape constructor with the default backend and hint cap.
    ///
    /// # Panics
    /// Panics on degenerate dimensions; use [`try_new`](Self::try_new) for a
    /// fallible constructor.
    pub fn new(rows: usize, columns: usize, candidates: usize) -> Self {
        Self::try_new(rows, columns, candidates).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects zero rows, columns, or candidates with
    /// a typed [`CoreError`].
    pub fn try_new(rows: usize, columns: usize, candidates: usize) -> Result<Self, CoreError> {
        if rows == 0 {
            return Err(invalid("rows", "need at least one row"));
        }
        if columns == 0 {
            return Err(invalid("columns", "need at least one column"));
        }
        if candidates == 0 {
            return Err(invalid("candidates", "need at least one candidate"));
        }
        Ok(Self {
            rows,
            columns,
            candidates,
            backend: HashBackend::default(),
            hint_cap: crate::config::DEFAULT_HINT_CAP,
        })
    }

    /// Select the hash backend.
    pub fn with_backend(mut self, backend: HashBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the reverse-hint cap.
    ///
    /// # Panics
    /// Panics if `hint_cap == 0`; use
    /// [`try_with_hint_cap`](Self::try_with_hint_cap) for a fallible setter.
    pub fn with_hint_cap(self, hint_cap: usize) -> Self {
        self.try_with_hint_cap(hint_cap)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible hint-cap setter: rejects a zero cap with a typed
    /// [`CoreError`].
    pub fn try_with_hint_cap(mut self, hint_cap: usize) -> Result<Self, CoreError> {
        if hint_cap == 0 {
            return Err(invalid("hint_cap", "hint cap must be at least 1"));
        }
        self.hint_cap = hint_cap;
        Ok(self)
    }
}

/// Which pass the algorithm is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    First,
    Second,
}

/// The Algorithm-1 heavy-hitter algorithm for a function `g`.
///
/// Unlike the one-pass sketch this type is driven through
/// [`TwoPassHeavyHitter::update_pass1`], [`TwoPassHeavyHitter::begin_second_pass`]
/// and [`TwoPassHeavyHitter::update_pass2`]; the [`HeavyHitterSketch`]
/// implementation maps `update` onto the current phase so the recursive
/// sketch can drive it uniformly.
#[derive(Debug, Clone)]
pub struct TwoPassHeavyHitter<G> {
    g: G,
    config: TwoPassHeavyHitterConfig,
    countsketch: CountSketch,
    phase: Phase,
    /// Exact counters for the candidate set (second pass).
    exact: HashMap<u64, i64>,
    /// Distinct items observed during the first pass, capped at
    /// `config.hint_cap`: the phase transition scans these instead of the
    /// whole domain when picking candidates.
    hints: ReverseHints,
    /// The substream this sketch is fed, when it is a recursive-sketch
    /// level: a saturated scan walks only its items.  Derived state, bound
    /// by the owner and never checkpointed.
    substream: Option<Substream>,
    /// Reused coalesce scratch for first-pass `update_batch`.
    scratch: IngestScratch<Vec<Update>>,
}

impl<G: GFunction> TwoPassHeavyHitter<G> {
    /// Create the algorithm.
    pub fn new(g: G, config: TwoPassHeavyHitterConfig, seed: u64) -> Self {
        let cs_config =
            CountSketchConfig::new(config.rows, config.columns).with_backend(config.backend);
        let countsketch = CountSketch::new(cs_config, seed ^ 0x2da5_5e1f);
        Self::from_parts(
            g,
            config,
            countsketch,
            Phase::First,
            HashMap::new(),
            ReverseHints::new(config.hint_cap),
        )
    }

    /// Assemble the algorithm from explicit components — the single code
    /// path shared by fresh construction ([`new`](Self::new)) and checkpoint
    /// rehydration ([`Checkpoint::restore`]).
    fn from_parts(
        g: G,
        config: TwoPassHeavyHitterConfig,
        countsketch: CountSketch,
        phase: Phase,
        exact: HashMap<u64, i64>,
        hints: ReverseHints,
    ) -> Self {
        Self {
            g,
            config,
            countsketch,
            phase,
            exact,
            hints,
            substream: None,
            scratch: IngestScratch::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> TwoPassHeavyHitterConfig {
        self.config
    }

    /// Process an update during the first pass.
    pub fn update_pass1(&mut self, update: Update) {
        debug_assert_eq!(self.phase, Phase::First, "first pass already closed");
        self.hints.record(update.item);
        self.countsketch.update(update);
    }

    /// Close the first pass: fix the candidate set whose frequencies the
    /// second pass will tabulate exactly (identities only; the CountSketch
    /// estimates are discarded, as in the paper).  Candidate identification
    /// scans the observed support (the reverse hints) when the hint budget
    /// held; after saturation it scans the items of `0..domain` in the
    /// bound [`Substream`] (the whole domain when unbound), so no slot goes
    /// to an item this level never saw.
    pub fn begin_second_pass(&mut self, domain: u64) {
        if self.phase == Phase::Second {
            return;
        }
        let candidates = scan_candidates(
            &self.countsketch,
            &self.hints,
            self.substream.as_ref(),
            domain,
            self.config.candidates,
        );
        self.exact = candidates.into_iter().map(|(i, _)| (i, 0i64)).collect();
        // Nothing reads the hints after the candidate set is frozen: free
        // them so the second pass (and every frozen-state checkpoint the
        // sharded coordinator broadcasts) does not carry dead state.
        self.hints = ReverseHints::new(self.config.hint_cap);
        self.phase = Phase::Second;
    }

    /// Process an update during the second pass (only candidate items are
    /// counted).
    pub fn update_pass2(&mut self, update: Update) {
        debug_assert_eq!(self.phase, Phase::Second, "second pass not started");
        if let Some(count) = self.exact.get_mut(&update.item) {
            *count += update.delta;
        }
    }

    /// Whether the first pass has been closed.
    pub fn in_second_pass(&self) -> bool {
        self.phase == Phase::Second
    }

    /// The candidate set fixed at the end of the first pass.
    pub fn candidates(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.exact.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

impl<G: GFunction> StreamSink for TwoPassHeavyHitter<G> {
    fn update(&mut self, update: Update) {
        match self.phase {
            Phase::First => self.update_pass1(update),
            Phase::Second => self.update_pass2(update),
        }
    }

    /// Phase-aware batching: the first pass coalesces once, records the
    /// distinct items as reverse hints in one batch insert (a single
    /// saturation check covers the whole batch) and forwards the coalesced
    /// batch to the CountSketch's fast path; the second pass tabulates in
    /// exact `i64` arithmetic where batching has nothing left to amortize.
    fn update_batch(&mut self, updates: &[Update]) {
        match self.phase {
            Phase::First => {
                let coalesced = gsum_streams::coalesce_into(updates, &mut self.scratch.buf);
                self.hints.record_batch(coalesced.iter().map(|u| u.item));
                self.countsketch.update_batch(coalesced);
            }
            Phase::Second => {
                for &u in updates {
                    self.update_pass2(u);
                }
            }
        }
    }
}

/// Both phases are mergeable: first-pass states merge their CountSketches;
/// second-pass states merge their exact tabulations, provided the candidate
/// sets (fixed when the first pass closed) agree.
///
/// In the second phase the CountSketch is deliberately *not* summed: the
/// sharding protocol clones one post-transition state per worker, so both
/// sides already hold the identical full first-pass counters, and adding
/// them would double every frequency.  Pass-2 updates never touch the
/// CountSketch, so keeping `self`'s copy preserves exactly the
/// single-threaded state.
impl<G: GFunction> MergeableSketch for TwoPassHeavyHitter<G> {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.config != other.config {
            return Err(MergeError::new(
                "two-pass heavy-hitter merge requires identical configuration",
            ));
        }
        if self.phase != other.phase {
            return Err(MergeError::new(
                "two-pass heavy-hitter merge requires matching phases",
            ));
        }
        match self.phase {
            Phase::First => {
                self.countsketch.merge(&other.countsketch)?;
                self.hints.merge_from(&other.hints);
            }
            Phase::Second => {
                if self.exact.len() != other.exact.len()
                    || !other.exact.keys().all(|k| self.exact.contains_key(k))
                {
                    return Err(MergeError::new(
                        "second-pass merge requires identical candidate sets",
                    ));
                }
                for (item, v) in &other.exact {
                    *self.exact.get_mut(item).expect("checked above") += v;
                }
            }
        }
        Ok(())
    }
}

impl<G: GFunction> HeavyHitterSketch for TwoPassHeavyHitter<G> {
    fn cover(&self, _domain: u64) -> GCover {
        // Exact frequencies, hence exact g-values (the ε = 0 of Algorithm 1).
        let pairs = self
            .exact
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(&i, &v)| (i, self.g.eval_signed(v)))
            .collect();
        GCover::from_pairs(pairs)
    }

    fn space_words(&self) -> usize {
        self.countsketch.space_words() + 2 * self.config.candidates + self.hints.len()
    }

    fn bind_substream(&mut self, substream: Substream) {
        self.substream = Some(substream);
    }
}

/// The two-pass state is seeds + counters + **phase**: the checkpoint
/// records which pass the algorithm is in and, once the first pass has been
/// closed, the frozen candidate set with its exact tabulations — so a state
/// saved between the passes (or mid-second-pass) rehydrates ready to
/// continue exactly where it stopped.  The function checkpoints as its
/// [`FunctionCodec`] parameters.
impl<G: GFunction + FunctionCodec> Checkpoint for TwoPassHeavyHitter<G> {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::TWO_PASS_HEAVY_HITTER)?;
        checkpoint::write_u64(w, self.config.rows as u64)?;
        checkpoint::write_u64(w, self.config.columns as u64)?;
        checkpoint::write_u64(w, self.config.candidates as u64)?;
        checkpoint::write_backend(w, self.config.backend)?;
        checkpoint::write_u64(w, self.config.hint_cap as u64)?;
        checkpoint::write_bytes(w, &self.g.encode_params())?;
        self.countsketch.save(w)?;
        checkpoint::write_u8(w, u8::from(self.phase == Phase::Second))?;
        let mut frozen: Vec<(u64, i64)> = self.exact.iter().map(|(&i, &v)| (i, v)).collect();
        frozen.sort_unstable_by_key(|&(i, _)| i);
        checkpoint::write_len(w, frozen.len())?;
        for (item, count) in frozen {
            checkpoint::write_u64(w, item)?;
            checkpoint::write_i64(w, count)?;
        }
        self.hints.save_body(w)?;
        Ok(())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::TWO_PASS_HEAVY_HITTER)?;
        let config = TwoPassHeavyHitterConfig {
            rows: checkpoint::read_len(r)?,
            columns: checkpoint::read_len(r)?,
            candidates: checkpoint::read_len(r)?,
            backend: checkpoint::read_backend(r)?,
            hint_cap: checkpoint::read_len(r)?,
        };
        let params = checkpoint::read_bounded_bytes(r, 1 << 16, "function parameters")?;
        let g = G::decode_params(&params)
            .ok_or_else(|| CheckpointError::Corrupt("invalid function parameters".into()))?;
        let countsketch = CountSketch::restore(r)?;
        let phase = match checkpoint::read_u8(r)? {
            0 => Phase::First,
            1 => Phase::Second,
            tag => {
                return Err(CheckpointError::Corrupt(format!(
                    "invalid two-pass phase tag {tag}"
                )))
            }
        };
        let frozen_len = checkpoint::read_len(r)?;
        if phase == Phase::First && frozen_len != 0 {
            return Err(CheckpointError::Corrupt(
                "first-pass state cannot carry frozen candidates".into(),
            ));
        }
        let mut exact = HashMap::with_capacity(frozen_len.min(1 << 16));
        for _ in 0..frozen_len {
            let item = checkpoint::read_u64(r)?;
            let count = checkpoint::read_i64(r)?;
            if exact.insert(item, count).is_some() {
                return Err(CheckpointError::Corrupt(format!(
                    "duplicate frozen candidate {item}"
                )));
            }
        }
        let hints = ReverseHints::restore_body(r, config.hint_cap)?;
        let cs_config = countsketch.config();
        if cs_config.rows != config.rows
            || cs_config.columns != config.columns
            || cs_config.backend != config.backend
        {
            return Err(CheckpointError::Corrupt(
                "nested CountSketch disagrees with the heavy-hitter configuration".into(),
            ));
        }
        Ok(Self::from_parts(
            g,
            config,
            countsketch,
            phase,
            exact,
            hints,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heavy_hitters::exact_heavy_hitters;
    use gsum_gfunc::library::{OscillatingQuadratic, PowerFunction};
    use gsum_streams::{PlantedStreamGenerator, StreamConfig, StreamGenerator};

    fn config() -> TwoPassHeavyHitterConfig {
        TwoPassHeavyHitterConfig {
            rows: 5,
            columns: 256,
            candidates: 24,
            backend: gsum_hash::HashBackend::Polynomial,
            hint_cap: crate::config::DEFAULT_HINT_CAP,
        }
    }

    #[test]
    fn two_passes_report_exact_values_even_for_erratic_functions() {
        // The whole point of Algorithm 1: the reported weights are exact, so
        // even an unpredictable function gets a perfect cover.
        let stream = PlantedStreamGenerator::new(
            StreamConfig::new(1 << 10, 20_000),
            vec![(100, 4000), (321, 2500)],
            13,
        )
        .generate();
        let fv = stream.frequency_vector();
        let g = OscillatingQuadratic::direct();

        let mut hh = TwoPassHeavyHitter::new(g, config(), 99);
        for &u in stream.iter() {
            hh.update_pass1(u);
        }
        hh.begin_second_pass(1 << 10);
        assert!(hh.in_second_pass());
        for &u in stream.iter() {
            hh.update_pass2(u);
        }
        let cover = hh.cover(1 << 10);

        for item in exact_heavy_hitters(&OscillatingQuadratic::direct(), &fv, 0.05) {
            assert!(cover.contains(item), "missing heavy hitter {item}");
            let truth = OscillatingQuadratic::direct().eval_signed(fv.get(item));
            let w = cover.weight(item).unwrap();
            assert!(
                (w - truth).abs() < 1e-9,
                "two-pass weight should be exact: {w} vs {truth}"
            );
        }
    }

    #[test]
    fn trait_driver_switches_phase() {
        let stream = PlantedStreamGenerator::new(StreamConfig::new(256, 2_000), vec![(7, 500)], 3)
            .generate();
        let mut hh = TwoPassHeavyHitter::new(PowerFunction::new(2.0), config(), 5);
        for &u in stream.iter() {
            StreamSink::update(&mut hh, u);
        }
        hh.begin_second_pass(256);
        for &u in stream.iter() {
            StreamSink::update(&mut hh, u);
        }
        let cover = hh.cover(256);
        assert!(cover.contains(7));
        let truth = PowerFunction::new(2.0).eval_signed(stream.frequency_vector().get(7));
        assert!((cover.weight(7).unwrap() - truth).abs() < 1e-9);
    }

    #[test]
    fn candidate_set_bounded() {
        let stream =
            PlantedStreamGenerator::new(StreamConfig::new(1 << 12, 8_000), vec![(1, 100)], 5)
                .generate();
        let mut hh = TwoPassHeavyHitter::new(PowerFunction::new(2.0), config(), 1);
        for &u in stream.iter() {
            hh.update_pass1(u);
        }
        hh.begin_second_pass(1 << 12);
        assert!(hh.candidates().len() <= config().candidates);
        assert!(hh.space_words() > 0);
    }

    #[test]
    fn begin_second_pass_is_idempotent() {
        let mut hh = TwoPassHeavyHitter::new(PowerFunction::new(2.0), config(), 1);
        hh.update_pass1(Update::new(3, 10));
        hh.begin_second_pass(16);
        let before = hh.candidates();
        hh.begin_second_pass(16);
        assert_eq!(before, hh.candidates());
    }

    #[test]
    fn cover_before_second_pass_is_empty() {
        let mut hh = TwoPassHeavyHitter::new(PowerFunction::new(2.0), config(), 1);
        hh.update_pass1(Update::new(3, 10));
        // No second pass yet: no exact counts, so no cover entries.
        assert!(hh.cover(16).is_empty());
    }

    #[test]
    fn capped_hints_fall_back_to_the_domain_scan_for_candidates() {
        let stream = PlantedStreamGenerator::new(
            StreamConfig::new(1 << 10, 20_000),
            vec![(100, 4000), (321, 2500)],
            13,
        )
        .generate();
        let mut capped_cfg = config();
        capped_cfg.hint_cap = 2; // saturates immediately
        let mut capped = TwoPassHeavyHitter::new(PowerFunction::new(2.0), capped_cfg, 99);
        let mut uncapped = TwoPassHeavyHitter::new(PowerFunction::new(2.0), config(), 99);
        for &u in stream.iter() {
            capped.update_pass1(u);
            uncapped.update_pass1(u);
        }
        capped.begin_second_pass(1 << 10);
        uncapped.begin_second_pass(1 << 10);
        // Planted heavy hitters survive either identification path.
        for candidates in [capped.candidates(), uncapped.candidates()] {
            assert!(candidates.contains(&100) && candidates.contains(&321));
        }
    }

    #[test]
    fn checkpoint_roundtrip_in_both_phases() {
        let stream = PlantedStreamGenerator::new(StreamConfig::new(256, 4_000), vec![(7, 900)], 5)
            .generate();
        let mut hh = TwoPassHeavyHitter::new(PowerFunction::new(2.0), config(), 3);
        for &u in stream.iter() {
            hh.update_pass1(u);
        }
        // Mid-pass-1 checkpoint: restore and finish the protocol.
        let bytes = hh.to_checkpoint_bytes().unwrap();
        let mut restored =
            TwoPassHeavyHitter::<PowerFunction>::from_checkpoint_bytes(&bytes).unwrap();
        assert!(!restored.in_second_pass());
        restored.begin_second_pass(256);
        hh.begin_second_pass(256);
        assert_eq!(restored.candidates(), hh.candidates());

        // Between-pass checkpoint: the frozen candidate set survives.
        let frozen = hh.to_checkpoint_bytes().unwrap();
        let mut rehydrated =
            TwoPassHeavyHitter::<PowerFunction>::from_checkpoint_bytes(&frozen).unwrap();
        assert!(rehydrated.in_second_pass());
        for &u in stream.iter() {
            rehydrated.update_pass2(u);
            restored.update_pass2(u);
            hh.update_pass2(u);
        }
        assert_eq!(rehydrated.cover(256), hh.cover(256));
        assert_eq!(restored.cover(256), hh.cover(256));
    }
}
