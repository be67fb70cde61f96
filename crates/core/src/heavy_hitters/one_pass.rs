//! Algorithm 2: the 1-pass `(g, λ, ε, δ)`-heavy-hitter algorithm.
//!
//! ```text
//! 1-Pass Heavy Hitters(g, λ, ε, δ):
//!   Ŝ, V̂ ← CountSketch(λ / 3H(M), ε / 2H(M), δ/2)
//!   F̂₂  ← AMS(ε, δ/2)
//!   S ← { i ∈ Ŝ : |g(v̂_i) − g(v̂_i + y)| ≤ ε g(v̂_i + y)
//!                   for all |y| ≤ (ε / 2H(M)) √F̂₂ }
//!   return (j, g(v̂_j)) for j ∈ S
//! ```
//!
//! The CountSketch identifies every `λ`-heavy hitter for `g` because a
//! slow-jumping, slow-dropping function makes each of them `λ/H(M)`-heavy for
//! `F₂` (Lemma 17/18).  The pruning stage is where predictability enters: an
//! item survives only if `g` is stable under the CountSketch's frequency
//! error, which Theorem 2's proof shows is guaranteed for every genuine heavy
//! hitter when `g` is predictable.  For unpredictable functions the pruning
//! may discard genuine heavy hitters (or keep items whose reported weight is
//! off), which is exactly the failure mode experiment E3 measures.

use super::{scan_candidates, GCover, HeavyHitterSketch};
use crate::config::invalid;
use crate::error::CoreError;
use crate::hints::ReverseHints;
use crate::recursive_sketch::Substream;
use gsum_gfunc::{FunctionCodec, GFunction};
use gsum_hash::{HashBackend, SignFamily};
use gsum_sketch::{AmsF2Sketch, CountSketch, CountSketchConfig, FrequencySketch};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{IngestScratch, MergeError, MergeableSketch, StreamSink, Update};
use std::fmt;
use std::io::{Read, Write};
use std::sync::OnceLock;

/// Configuration knobs for [`OnePassHeavyHitter`] (usually derived from
/// [`crate::GSumConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePassHeavyHitterConfig {
    /// CountSketch rows.
    pub rows: usize,
    /// CountSketch columns.
    pub columns: usize,
    /// Number of candidate items extracted from the CountSketch.
    pub candidates: usize,
    /// The pruning accuracy `ε`.
    pub epsilon: f64,
    /// The envelope factor `H(M)` scaling the tolerated frequency error.
    pub envelope_factor: f64,
    /// Hash family for the CountSketch rows.
    pub backend: HashBackend,
    /// Sign family for the embedded AMS tug-of-war bank (4-wise polynomial
    /// by default; tabulation trades the provable variance constant for
    /// speed — see `gsum_hash::sign`).
    pub sign_family: SignFamily,
    /// Cap on the reverse hints (distinct observed items) kept for candidate
    /// identification: under the cap, [`cover`](HeavyHitterSketch::cover)
    /// scans the observed support instead of the whole domain; past it the
    /// sketch saturates and falls back to scanning its substream of the
    /// domain.  Defaults to
    /// [`crate::config::DEFAULT_HINT_CAP`] when derived from a
    /// [`crate::GSumConfig`].
    pub hint_cap: usize,
}

impl OnePassHeavyHitterConfig {
    /// Shape constructor with the default backend, default hint cap, and the
    /// given pruning parameters.
    ///
    /// # Panics
    /// Panics on degenerate dimensions; use [`try_new`](Self::try_new) for a
    /// fallible constructor.
    pub fn new(
        rows: usize,
        columns: usize,
        candidates: usize,
        epsilon: f64,
        envelope_factor: f64,
    ) -> Self {
        Self::try_new(rows, columns, candidates, epsilon, envelope_factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects zero rows/columns/candidates, an
    /// `epsilon` outside `(0, 1)`, and an envelope factor below 1 with a
    /// typed [`CoreError`].
    pub fn try_new(
        rows: usize,
        columns: usize,
        candidates: usize,
        epsilon: f64,
        envelope_factor: f64,
    ) -> Result<Self, CoreError> {
        if rows == 0 {
            return Err(invalid("rows", "need at least one row"));
        }
        if columns == 0 {
            return Err(invalid("columns", "need at least one column"));
        }
        if candidates == 0 {
            return Err(invalid("candidates", "need at least one candidate"));
        }
        if epsilon.is_nan() || epsilon <= 0.0 || epsilon >= 1.0 {
            return Err(invalid("epsilon", "epsilon must be in (0,1)"));
        }
        if envelope_factor.is_nan() || envelope_factor < 1.0 {
            return Err(invalid(
                "envelope_factor",
                "the envelope factor is at least 1",
            ));
        }
        Ok(Self {
            rows,
            columns,
            candidates,
            epsilon,
            envelope_factor,
            backend: HashBackend::default(),
            sign_family: SignFamily::default(),
            hint_cap: crate::config::DEFAULT_HINT_CAP,
        })
    }

    /// Select the hash backend.
    pub fn with_backend(mut self, backend: HashBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Select the AMS sign family.
    pub fn with_sign_family(mut self, family: SignFamily) -> Self {
        self.sign_family = family;
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

/// A level's g-independent query plan: Algorithm 2's candidate set `Ŝ`
/// with its estimates `V̂`, and the residual error bound they leave.  Only
/// the stability pruning and the weights `g(v̂)` depend on the function, so
/// one plan serves every function queried against the same state.
#[derive(Debug)]
struct QueryPlan {
    /// The domain the candidates were drawn from (the memo's key).
    domain: u64,
    candidates: Vec<(u64, f64)>,
    error: f64,
}

/// The computed-once [`QueryPlan`] cell.  Transient by type, like
/// [`IngestScratch`]: it is never saved, merged or compared, its `Clone`
/// starts empty and its `Debug` elides the contents.  Every `&mut self`
/// path of the owning sketch clears it, and restore builds a fresh one.
#[derive(Default)]
struct PlanMemo(OnceLock<QueryPlan>);

impl PlanMemo {
    fn clear(&mut self) {
        self.0.take();
    }
}

impl Clone for PlanMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl fmt::Debug for PlanMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PlanMemo { .. }")
    }
}

/// The Algorithm-2 heavy-hitter sketch for a function `g`.
#[derive(Debug, Clone)]
pub struct OnePassHeavyHitter<G> {
    g: G,
    config: OnePassHeavyHitterConfig,
    countsketch: CountSketch,
    ams: AmsF2Sketch,
    /// Distinct items observed at update time, capped at
    /// `config.hint_cap`: candidate identification scans these instead of
    /// the whole domain until the sketch saturates.
    hints: ReverseHints,
    /// The substream this sketch is fed, when it is a recursive-sketch
    /// level: a saturated scan walks only its items.  Derived state, bound
    /// by the owner and never checkpointed.
    substream: Option<Substream>,
    /// Reused coalesce scratch for `update_batch`.
    scratch: IngestScratch<Vec<Update>>,
    /// The memoized query plan of the current state.
    plan: PlanMemo,
}

impl<G: GFunction> OnePassHeavyHitter<G> {
    /// Create the sketch.
    ///
    /// # Panics
    /// Panics if the CountSketch or AMS dimensions or the hint cap are
    /// degenerate.
    pub fn new(g: G, config: OnePassHeavyHitterConfig, seed: u64) -> Self {
        let cs_config =
            CountSketchConfig::new(config.rows, config.columns).with_backend(config.backend);
        let countsketch = CountSketch::new(cs_config, seed ^ 0x0c5e_7c11);
        // A fixed, modest AMS sketch: the F2 estimate only calibrates the
        // pruning tolerance, so ±25% accuracy is plenty.
        let ams = AmsF2Sketch::with_sign_family(64, 5, seed ^ 0xa355_f2f2, config.sign_family)
            .expect("valid AMS dimensions");
        Self::from_parts(
            g,
            config,
            countsketch,
            ams,
            ReverseHints::new(config.hint_cap),
        )
    }

    /// Assemble the sketch from explicit components — the single code path
    /// shared by fresh construction ([`new`](Self::new)) and checkpoint
    /// rehydration ([`Checkpoint::restore`]).
    fn from_parts(
        g: G,
        config: OnePassHeavyHitterConfig,
        countsketch: CountSketch,
        ams: AmsF2Sketch,
        hints: ReverseHints,
    ) -> Self {
        Self {
            g,
            config,
            countsketch,
            ams,
            hints,
            substream: None,
            scratch: IngestScratch::default(),
            plan: PlanMemo::default(),
        }
    }

    /// The wrapped function.
    pub fn function(&self) -> &G {
        &self.g
    }

    /// The configuration in force.
    pub fn config(&self) -> OnePassHeavyHitterConfig {
        self.config
    }

    /// A conservative additive frequency-error bound for the CountSketch:
    /// `2·√(F̂₂ / b) + 1`, i.e. twice the root-mean-square mass landing in a
    /// single bucket.  [`cover`](HeavyHitterSketch::cover) tightens this by
    /// subtracting the candidates' own contribution from `F̂₂` (the residual
    /// `F₂^{res}` that the CountSketch guarantee is actually stated in terms
    /// of).
    pub fn frequency_error_bound(&self) -> f64 {
        let f2 = self.ams.estimate_f2().max(0.0);
        2.0 * (f2 / self.config.columns as f64).sqrt() + 1.0
    }

    /// The residual-aware error bound: like
    /// [`frequency_error_bound`](Self::frequency_error_bound) but computed
    /// from the CountSketch's own counters with the candidate items' buckets
    /// removed, matching the `√(λ F₂^{res})`-type error the paper's analysis
    /// uses (and avoiding the AMS sketch's additive noise, which scales with
    /// the *full* `F₂`).
    fn residual_error_bound(&self, candidates: &[(u64, f64)]) -> f64 {
        let excluded: Vec<u64> = candidates.iter().map(|&(i, _)| i).collect();
        let residual = self.countsketch.residual_f2_excluding(&excluded).max(0.0);
        2.0 * (residual / self.config.columns as f64).sqrt()
    }

    /// The weight `g(v̂)` if `g` is stable (within relative `ε`) around the
    /// estimated frequency `v̂` under perturbations of size up to `error`,
    /// else `None`.
    fn stable_weight<F: GFunction + ?Sized>(&self, g: &F, v_hat: i64, error: f64) -> Option<f64> {
        let base = g.eval_signed(v_hat);
        if base <= 0.0 {
            // g(0) = 0 items contribute nothing; keep them out of the cover.
            return None;
        }
        let eps = self.config.epsilon;
        // An error below half a unit means the rounded estimate is the exact
        // integer frequency, so the reported weight is exact and no pruning
        // is needed.
        if error < 0.5 {
            return Some(base);
        }
        let err = error.ceil() as i64;
        // Probe a handful of perturbations across the error interval,
        // including its endpoints (the worst case for monotone-ish g).
        let probes = [-err, -(err / 2).max(1), -1, 1, (err / 2).max(1), err];
        for &y in &probes {
            let shifted = g.eval_signed(v_hat + y);
            if (base - shifted).abs() > eps * shifted.max(base) {
                return None;
            }
        }
        Some(base)
    }

    /// The g-independent half of Algorithm 2 over `domain`: the top
    /// candidates and the residual error bound.  Candidate identification
    /// scans the observed support (the reverse hints) instead of the whole
    /// domain whenever the hint budget held; only the items that actually
    /// carry mass can be heavy, and `top_candidates` imposes a total order,
    /// so the selection is deterministic regardless of hint iteration
    /// order.  A saturated sketch scans the items of `0..domain` in its
    /// bound [`Substream`] — exactly those the routing predicate
    /// ([`RecursiveSketch::selected_at`](crate::RecursiveSketch::selected_at))
    /// sends to this level, about `domain / 2^j` keys at level `j` — or the
    /// whole domain when it is not a recursive-sketch level.
    fn compute_plan(&self, domain: u64) -> QueryPlan {
        let candidates = scan_candidates(
            &self.countsketch,
            &self.hints,
            self.substream.as_ref(),
            domain,
            self.config.candidates,
        );
        let error = self.residual_error_bound(&candidates);
        QueryPlan {
            domain,
            candidates,
            error,
        }
    }

    /// [`cover`](HeavyHitterSketch::cover) evaluated under an *external*
    /// function instead of the wrapped one.
    ///
    /// The ingest path never touches `g` — the CountSketch, AMS sketch and
    /// reverse hints are pure frequency structure — so one absorbed substream
    /// can answer the heavy-hitter question for any function in `G`.  This is
    /// the primitive the serving layer's multi-function registry builds on:
    /// one shared substrate, K query-time functions.
    ///
    /// Every reported item is a candidate of the plan, so on a
    /// recursive-sketch level every item of the cover is in the level's
    /// substream, whether the candidates came from the hints (which only
    /// ever record routed items) or from the saturated substream scan.
    ///
    /// **Memoized.** The g-independent query plan — the CountSketch's top
    /// candidates with their estimates and the residual error bound — is
    /// computed by the first call on a state and reused by every later call
    /// with the same `domain`, whatever the function; each call then only
    /// runs the stability pruning, which yields `g(v̂)`, over at most
    /// `config.candidates` items.  `update`, `update_batch` and `merge`
    /// invalidate the plan, a clone or a restored sketch starts without one,
    /// and a call with another `domain` computes its plan without caching
    /// it.  The memo never changes an answer: the covers are bit-identical
    /// to a sketch that was never queried.
    pub fn cover_with<F: GFunction + ?Sized>(&self, g: &F, domain: u64) -> GCover {
        let cached = self.plan.0.get_or_init(|| self.compute_plan(domain));
        let uncached;
        let plan = if cached.domain == domain {
            cached
        } else {
            uncached = self.compute_plan(domain);
            &uncached
        };
        let mut pairs = Vec::with_capacity(plan.candidates.len());
        for &(item, estimate) in &plan.candidates {
            let v_hat = estimate.round() as i64;
            if v_hat == 0 {
                continue;
            }
            if let Some(weight) = self.stable_weight(g, v_hat, plan.error) {
                pairs.push((item, weight));
            }
        }
        GCover::from_pairs(pairs)
    }

    /// [`Checkpoint::save`] with the function-parameter bytes replaced by
    /// `params`.
    ///
    /// The state bytes (counters, seeds, hints) are function-independent, so
    /// substituting another function's [`FunctionCodec`] encoding yields
    /// exactly the checkpoint a sketch *built with that function* would have
    /// written after the same stream — the bit-exactness contract behind the
    /// serving registry's per-function checkpoints.
    pub fn save_with_params(
        &self,
        w: &mut impl Write,
        params: &[u8],
    ) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::ONE_PASS_HEAVY_HITTER)?;
        checkpoint::write_u64(w, self.config.rows as u64)?;
        checkpoint::write_u64(w, self.config.columns as u64)?;
        checkpoint::write_u64(w, self.config.candidates as u64)?;
        checkpoint::write_f64(w, self.config.epsilon)?;
        checkpoint::write_f64(w, self.config.envelope_factor)?;
        checkpoint::write_backend(w, self.config.backend)?;
        checkpoint::write_sign_family(w, self.config.sign_family)?;
        checkpoint::write_u64(w, self.config.hint_cap as u64)?;
        checkpoint::write_bytes(w, params)?;
        self.countsketch.save(w)?;
        self.ams.save(w)?;
        self.hints.save_body(w)?;
        Ok(())
    }
}

impl<G: GFunction> StreamSink for OnePassHeavyHitter<G> {
    fn update(&mut self, update: Update) {
        self.plan.clear();
        self.hints.record(update.item);
        self.countsketch.update(update);
        self.ams.update(update);
    }

    /// Forward the batch to both component sketches so their coalescing
    /// fast paths engage (instead of degrading to per-update dispatch).
    /// Coalescing happens at most once on this path: the item→delta map is
    /// built here (unless the caller — e.g. the recursive sketch — already
    /// passed a coalesced batch), and the inner sketches detect the
    /// coalesced form and use it as-is.  Hints are recorded once per
    /// coalesced batch with a single saturation check (a saturated sketch —
    /// the steady state of any over-cap stream — skips the pass outright);
    /// coalescing keeps net-zero items and saturation is order-insensitive,
    /// so the observed set matches a per-update replay exactly.
    fn update_batch(&mut self, updates: &[Update]) {
        self.plan.clear();
        let coalesced = gsum_streams::coalesce_into(updates, &mut self.scratch.buf);
        self.hints.record_batch(coalesced.iter().map(|u| u.item));
        self.countsketch.update_batch(coalesced);
        self.ams.update_batch(coalesced);
    }
}

/// Algorithm 2's state is a pair of linear sketches, so it merges
/// component-wise (the two sketches enforce seed/shape compatibility).
impl<G: GFunction> MergeableSketch for OnePassHeavyHitter<G> {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.config != other.config {
            return Err(MergeError::new(
                "one-pass heavy-hitter merge requires identical configuration",
            ));
        }
        self.plan.clear();
        self.countsketch.merge(&other.countsketch)?;
        self.ams.merge(&other.ams)?;
        self.hints.merge_from(&other.hints);
        Ok(())
    }
}

impl<G: GFunction> HeavyHitterSketch for OnePassHeavyHitter<G> {
    fn cover(&self, domain: u64) -> GCover {
        self.cover_with(&self.g, domain)
    }

    fn space_words(&self) -> usize {
        self.countsketch.space_words() + self.ams.space_words() + self.hints.len()
    }

    fn bind_substream(&mut self, substream: Substream) {
        self.plan.clear();
        self.substream = Some(substream);
    }
}

/// Algorithm 2's state is its two linear sketches plus the reverse hints;
/// the function itself is configuration and checkpoints as its
/// [`FunctionCodec`] parameters, so restore is fully self-contained.
impl<G: GFunction + FunctionCodec> Checkpoint for OnePassHeavyHitter<G> {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        self.save_with_params(w, &self.g.encode_params())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::ONE_PASS_HEAVY_HITTER)?;
        let config = OnePassHeavyHitterConfig {
            rows: checkpoint::read_len(r)?,
            columns: checkpoint::read_len(r)?,
            candidates: checkpoint::read_len(r)?,
            epsilon: checkpoint::read_f64(r)?,
            envelope_factor: checkpoint::read_f64(r)?,
            backend: checkpoint::read_backend(r)?,
            sign_family: checkpoint::read_sign_family(r)?,
            hint_cap: checkpoint::read_len(r)?,
        };
        let params = checkpoint::read_bounded_bytes(r, 1 << 16, "function parameters")?;
        let g = G::decode_params(&params)
            .ok_or_else(|| CheckpointError::Corrupt("invalid function parameters".into()))?;
        let countsketch = CountSketch::restore(r)?;
        let ams = AmsF2Sketch::restore(r)?;
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
        if ams.sign_family() != config.sign_family {
            return Err(CheckpointError::Corrupt(
                "nested AMS sign family disagrees with the heavy-hitter configuration".into(),
            ));
        }
        Ok(Self::from_parts(g, config, countsketch, ams, hints))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heavy_hitters::exact_heavy_hitters;
    use gsum_gfunc::library::{OscillatingQuadratic, PowerFunction};
    use gsum_streams::{PlantedStreamGenerator, StreamConfig, StreamGenerator, TurnstileStream};

    fn config() -> OnePassHeavyHitterConfig {
        OnePassHeavyHitterConfig {
            rows: 5,
            columns: 512,
            candidates: 32,
            epsilon: 0.2,
            envelope_factor: 1.0,
            backend: gsum_hash::HashBackend::Polynomial,
            sign_family: SignFamily::Polynomial4,
            hint_cap: crate::config::DEFAULT_HINT_CAP,
        }
    }

    fn planted_stream() -> TurnstileStream {
        PlantedStreamGenerator::new(
            StreamConfig::new(1 << 10, 20_000),
            vec![(100, 4000), (200, 2500)],
            9,
        )
        .generate()
    }

    #[test]
    fn finds_planted_heavy_hitters_for_quadratic() {
        let stream = planted_stream();
        let fv = stream.frequency_vector();
        let g = PowerFunction::new(2.0);

        let mut hh = OnePassHeavyHitter::new(g, config(), 41);
        for &u in stream.iter() {
            hh.update(u);
        }
        let cover = hh.cover(1 << 10);

        // Every true (g, 0.05)-heavy hitter must appear with an accurate weight.
        for item in exact_heavy_hitters(&PowerFunction::new(2.0), &fv, 0.05) {
            assert!(cover.contains(item), "missing heavy hitter {item}");
            let truth = PowerFunction::new(2.0).eval_signed(fv.get(item));
            let w = cover.weight(item).unwrap();
            assert!(
                (w - truth).abs() <= 0.25 * truth,
                "weight {w} far from {truth} for item {item}"
            );
        }
    }

    #[test]
    fn cover_size_bounded_by_candidates() {
        let stream = planted_stream();
        let mut hh = OnePassHeavyHitter::new(PowerFunction::new(2.0), config(), 5);
        for &u in stream.iter() {
            hh.update(u);
        }
        assert!(hh.cover(1 << 10).len() <= config().candidates);
    }

    #[test]
    fn unpredictable_function_drops_unstable_items() {
        // (2 + sin x) x² swings by a constant factor under ±1 frequency
        // error, so the pruning stage rejects items whose estimate is not
        // exact. Plant noise so the CountSketch error is non-zero.
        let stream =
            PlantedStreamGenerator::new(StreamConfig::new(1 << 10, 60_000), vec![(100, 3000)], 3)
                .generate();
        let g = OscillatingQuadratic::direct();
        let mut cfg = config();
        cfg.columns = 32; // deliberately tight: estimates carry error
        let mut hh = OnePassHeavyHitter::new(g, cfg, 7);
        for &u in stream.iter() {
            hh.update(u);
        }
        let cover = hh.cover(1 << 10);
        // Either the heavy item was dropped, or (if kept) its weight may be
        // unreliable — the point of E3. We only check the sketch ran and the
        // pruning machinery engaged (the cover is not the full candidate set).
        assert!(cover.len() < cfg.candidates);
    }

    #[test]
    fn empty_stream_gives_empty_cover() {
        let hh = OnePassHeavyHitter::new(PowerFunction::new(2.0), config(), 1);
        assert!(hh.cover(1 << 10).is_empty());
        assert!(hh.space_words() > 0);
    }

    #[test]
    fn frequency_error_bound_grows_with_stream_mass() {
        let mut hh = OnePassHeavyHitter::new(PowerFunction::new(2.0), config(), 1);
        let before = hh.frequency_error_bound();
        for i in 0..200u64 {
            hh.update(Update::new(i, 50));
        }
        let after = hh.frequency_error_bound();
        assert!(after > before);
    }

    #[test]
    fn hint_scan_and_domain_scan_agree_on_heavy_items() {
        // A tight hint cap forces saturation; the saturated (domain-scan)
        // cover and an uncapped (hint-scan) cover must both report the
        // planted heavy hitters.
        let stream = planted_stream();
        let fv = stream.frequency_vector();
        let mut capped_cfg = config();
        capped_cfg.hint_cap = 4; // far below the stream's support: saturates
        let mut capped = OnePassHeavyHitter::new(PowerFunction::new(2.0), capped_cfg, 41);
        let mut uncapped = OnePassHeavyHitter::new(PowerFunction::new(2.0), config(), 41);
        for &u in stream.iter() {
            capped.update(u);
            uncapped.update(u);
        }
        let capped_cover = capped.cover(1 << 10);
        let uncapped_cover = uncapped.cover(1 << 10);
        for item in exact_heavy_hitters(&PowerFunction::new(2.0), &fv, 0.05) {
            assert!(capped_cover.contains(item), "saturated cover lost {item}");
            assert!(uncapped_cover.contains(item), "hint cover lost {item}");
            assert_eq!(capped_cover.weight(item), uncapped_cover.weight(item));
        }
    }

    #[test]
    fn memoized_plan_is_keyed_on_the_domain() {
        // A capped hint set forces the domain scan, where the domain
        // argument decides the candidate set.
        let stream = planted_stream();
        let mut cfg = config();
        cfg.hint_cap = 4;
        let mut warm = OnePassHeavyHitter::new(PowerFunction::new(2.0), cfg, 41);
        warm.update_batch(stream.updates());
        let cold = warm.clone();
        let g = PowerFunction::new(2.0);
        let full = warm.cover_with(&g, 1 << 10);
        let narrow = warm.cover_with(&g, 150);
        assert_eq!(narrow, cold.cover_with(&g, 150));
        assert!(!narrow.contains(200) && full.contains(200));
        assert_eq!(warm.cover_with(&g, 1 << 10), full);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_cover_and_bounds() {
        let stream = planted_stream();
        let mut hh = OnePassHeavyHitter::new(PowerFunction::new(2.0), config(), 41);
        for &u in stream.iter() {
            hh.update(u);
        }
        let bytes = hh.to_checkpoint_bytes().unwrap();
        let restored = OnePassHeavyHitter::<PowerFunction>::from_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(restored.cover(1 << 10), hh.cover(1 << 10));
        assert_eq!(
            restored.frequency_error_bound().to_bits(),
            hh.frequency_error_bound().to_bits()
        );
        assert_eq!(restored.space_words(), hh.space_words());
        assert_eq!(restored.config(), hh.config());
    }
}
