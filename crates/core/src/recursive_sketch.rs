//! The Recursive Sketch of Braverman and Ostrovsky (Theorem 13).
//!
//! The reduction from g-SUM to heavy hitters works by subsampling: level `j`
//! of the sketch sees each item independently-ish with probability `2^{-j}`
//! (nested subsets drawn from one pairwise-independent hash).  Each level
//! runs a `(g, λ, ε, δ)`-heavy-hitter algorithm on its substream.  Writing
//! `cover_j` for level `j`'s cover and `sel_{j+1}(i)` for the indicator that
//! item `i` survives to level `j+1`, the estimator is assembled bottom-up:
//!
//! ```text
//! Y_L = Σ_{(i,w) ∈ cover_L} w
//! Y_j = 2·Y_{j+1} + Σ_{(i,w) ∈ cover_j} w · (1 − 2·sel_{j+1}(i))
//! ```
//!
//! and `Y_0` is the g-SUM estimate.  Intuitively, the items too light to be
//! caught at level `j` have their mass estimated by doubling the next level's
//! estimate, while the heavy items (whose sampling noise would dominate) are
//! accounted for exactly by their covers.  The paper uses this reduction with
//! heaviness `λ = ε²/log³ n`, giving an `O(log n)` space overhead over the
//! heavy-hitter routine (Theorem 13).
//!
//! The formula is only sound if `cover_j` holds items of level `j`'s
//! substream: an item the level never saw has a pure-noise estimate, is not
//! selected at level `j+1` either, and so adds its weight once per level
//! while the recursion doubles it.  Each level therefore knows its
//! substream: the sketch hands level `j` a [`Substream`] (the level index
//! plus the selector, both derived from the master seed and never
//! checkpointed) whenever it builds or restores the level
//! ([`HeavyHitterSketch::bind_substream`]), and a level that has to scan
//! the domain for candidates scans only the items routed to it.

use crate::heavy_hitters::{GCover, HeavyHitterSketch};
use gsum_hash::KWiseHash;
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{IngestScratch, MergeError, MergeableSketch, StreamSink, Update};
use std::io::{Read, Write};

/// Reusable routing scratch for [`RecursiveSketch::update_batch`]: the
/// coalesce buffer plus the depth-partitioned sub-batch threaded down the
/// levels.  Transient — never part of checkpoint/merge/clone identity.
#[derive(Debug, Default)]
pub struct RouteScratch {
    coalesce: Vec<Update>,
    /// Distinct keys of the coalesced batch, handed to the selector's
    /// batched polynomial kernel.
    keys: Vec<u64>,
    /// Selector hash values, one per distinct key.
    hashes: Vec<u64>,
    /// Updates still alive at the current level, in item order.
    routed: Vec<Update>,
    /// `depths[t]` is the deepest level including `routed[t]`'s item
    /// (`trailing_zeros` of a 64-bit hash, clamped to the level count — fits
    /// `u8` with room to spare).
    depths: Vec<u8>,
}

/// Keys whose selector hashes [`Substream::items_below`] evaluates per
/// batched call.
const SUBSTREAM_BLOCK: u64 = 1024;

/// The routing predicate's mask: level `level` keeps the items whose
/// selector hash `h` has `h & mask == 0`, i.e. is divisible by `2^level`.
/// Levels from 64 on select nothing (`None`).
fn level_mask(level: usize) -> Option<u64> {
    (level < 64).then(|| (1u64 << level) - 1)
}

/// Level `j`'s substream of a [`RecursiveSketch`]: the items the reduction
/// routes to that level (selector hash divisible by `2^j`, exactly
/// [`RecursiveSketch::selected_at`]).
///
/// Derived from the master seed, so it is never checkpointed;
/// [`RecursiveSketch`] binds it to each level when it builds or restores
/// the level.
#[derive(Debug, Clone)]
pub struct Substream {
    level: usize,
    selector: KWiseHash,
}

impl Substream {
    /// The items of `0..domain` in this substream, in increasing order: the
    /// candidate source of a level whose reverse hints saturated.  The
    /// selector is evaluated over blocks of keys with the batched kernel
    /// ([`KWiseHash::hash_many`], bit-identical to per-key hashing); level 0
    /// yields every item without hashing.
    pub fn items_below(&self, domain: u64) -> impl Iterator<Item = u64> + '_ {
        let mask = level_mask(self.level);
        let end = if mask.is_some() { domain } else { 0 };
        let mask = mask.unwrap_or(0);
        (0..end)
            .step_by(SUBSTREAM_BLOCK as usize)
            .flat_map(move |start| {
                let keys: Vec<u64> =
                    (start..end.min(start.saturating_add(SUBSTREAM_BLOCK))).collect();
                let mut hashes = Vec::new();
                if mask == 0 {
                    hashes.resize(keys.len(), 0);
                } else {
                    self.selector.hash_many(&keys, &mut hashes);
                }
                keys.into_iter()
                    .zip(hashes)
                    .filter(move |&(_, h)| h & mask == 0)
                    .map(|(key, _)| key)
            })
    }
}

/// The recursive g-SUM estimator, generic over the per-level heavy-hitter
/// sketch.
///
/// The sketch is a push-based [`StreamSink`]: each update is routed to every
/// level whose substream contains its item, and [`RecursiveSketch::estimate`]
/// can be queried at any prefix.  When the per-level sketches are
/// [`MergeableSketch`]es the whole structure is too, enabling sharded
/// ingestion.
#[derive(Debug, Clone)]
pub struct RecursiveSketch<S> {
    domain: u64,
    levels: Vec<S>,
    selector: KWiseHash,
    /// Master seed, kept so merges can verify hash compatibility.
    seed: u64,
    /// Reused routing scratch for `update_batch`.
    scratch: IngestScratch<RouteScratch>,
}

impl<S: HeavyHitterSketch> RecursiveSketch<S> {
    /// Create a recursive sketch with `levels` levels over `[0, domain)`.
    /// The `factory` builds the heavy-hitter sketch for each level (it
    /// receives the level index and a derived seed).
    ///
    /// # Panics
    /// Panics if `levels == 0` or `domain == 0`.
    pub fn new(
        domain: u64,
        levels: usize,
        seed: u64,
        mut factory: impl FnMut(usize, u64) -> S,
    ) -> Self {
        assert!(levels >= 1, "need at least one level");
        let seeds = gsum_hash::derive_seeds(seed, levels + 1);
        let level_sketches = (0..levels).map(|j| factory(j, seeds[j])).collect();
        Self::from_parts(
            domain,
            seed,
            KWiseHash::new(2, seeds[levels]),
            level_sketches,
        )
    }

    /// Assemble the sketch from already-built level sketches, re-deriving
    /// the subsampling selector from the master seed exactly as
    /// [`new`](Self::new) does — the checkpoint-rehydration entry point.
    ///
    /// # Panics
    /// Panics if `levels` is empty or `domain == 0`.
    fn assemble(domain: u64, seed: u64, levels: Vec<S>) -> Self {
        let seeds = gsum_hash::derive_seeds(seed, levels.len() + 1);
        let selector = KWiseHash::new(2, seeds[levels.len()]);
        Self::from_parts(domain, seed, selector, levels)
    }

    /// The shared final constructor behind [`new`](Self::new) (which already
    /// holds the derived seed array) and [`assemble`](Self::assemble).  It
    /// binds each level to its [`Substream`].
    fn from_parts(domain: u64, seed: u64, selector: KWiseHash, mut levels: Vec<S>) -> Self {
        assert!(!levels.is_empty(), "need at least one level");
        assert!(domain > 0, "domain must be positive");
        for (level, sketch) in levels.iter_mut().enumerate() {
            sketch.bind_substream(Substream {
                level,
                selector: selector.clone(),
            });
        }
        Self {
            domain,
            levels,
            selector,
            seed,
            scratch: IngestScratch::default(),
        }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// The domain size.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Whether `item` is included in level `level`'s substream.
    /// Level 0 contains every item; level `j` keeps items whose hash value is
    /// divisible by `2^j` (so the level-`j` inclusion probability is
    /// `2^{-j}`, and the subsets are nested).
    pub fn selected_at(&self, item: u64, level: usize) -> bool {
        match level_mask(level) {
            Some(0) => true,
            Some(mask) => self.selector.hash(item) & mask == 0,
            None => false,
        }
    }

    /// The deepest level that still includes `item`.
    pub fn deepest_level(&self, item: u64) -> usize {
        let h = self.selector.hash(item);
        (h.trailing_zeros() as usize).min(self.levels.len() - 1)
    }

    /// The per-level covers (useful for diagnostics and the ablation
    /// experiment E9).
    pub fn covers(&self) -> Vec<GCover> {
        self.levels.iter().map(|s| s.cover(self.domain)).collect()
    }

    /// Read access to the per-level sketches.
    pub fn level_sketches(&self) -> &[S] {
        &self.levels
    }

    /// Access the per-level sketches (e.g. to drive a two-pass algorithm's
    /// phase transition).
    pub fn levels_mut(&mut self) -> &mut [S] {
        &mut self.levels
    }

    /// Assemble the g-SUM estimate from the per-level covers.
    pub fn estimate(&self) -> f64 {
        let covers = self.covers();
        self.estimate_from_covers(&covers)
    }

    /// Assemble the estimate from externally produced covers (one per level).
    ///
    /// # Panics
    /// Panics if `covers.len()` differs from the number of levels.
    pub fn estimate_from_covers(&self, covers: &[GCover]) -> f64 {
        assert_eq!(covers.len(), self.levels.len(), "one cover per level");
        let top = covers.len() - 1;
        let mut estimate = covers[top].total_weight();
        for level in (0..top).rev() {
            let mut correction = 0.0;
            for (item, weight) in covers[level].iter() {
                let survives = self.selected_at(item, level + 1);
                correction += weight * (1.0 - 2.0 * f64::from(u8::from(survives)));
            }
            estimate = 2.0 * estimate + correction;
        }
        estimate
    }

    /// Total space across all levels, in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.levels.iter().map(|s| s.space_words()).sum::<usize>() + 4
    }

    /// Write the recursive-sketch checkpoint frame (header, domain, seed,
    /// level count) with each level serialized by `save_level` instead of
    /// its own [`Checkpoint::save`].
    ///
    /// This is the substitution point the serving registry uses to emit
    /// per-function checkpoints from one shared substrate: the frame and
    /// level order are exactly what [`Checkpoint::save`] writes, so a
    /// closure that saves each level with different function parameters
    /// produces bytes indistinguishable from a sketch built with that
    /// function.
    pub fn save_levels_with<W: Write>(
        &self,
        w: &mut W,
        mut save_level: impl FnMut(&S, &mut W) -> Result<(), CheckpointError>,
    ) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::RECURSIVE_SKETCH)?;
        checkpoint::write_u64(w, self.domain)?;
        checkpoint::write_u64(w, self.seed)?;
        checkpoint::write_len(w, self.levels.len())?;
        for level in &self.levels {
            save_level(level, w)?;
        }
        Ok(())
    }
}

impl<S: HeavyHitterSketch> StreamSink for RecursiveSketch<S> {
    /// Feed one update to every level whose substream includes the item —
    /// the incremental per-update subsampling of the recursive reduction.
    fn update(&mut self, update: Update) {
        let deepest = self.deepest_level(update.item);
        for level in &mut self.levels[..=deepest] {
            level.update(update);
        }
    }

    /// Route the batch level by level instead of update by update: each
    /// level receives, in one `update_batch` call, exactly the sub-batch its
    /// substream contains — in coalesced (item-sorted, deduplicated) form,
    /// which is exact for the linear level sketches [`HeavyHitterSketch`]
    /// requires — so the per-level sketches' fast paths engage across the
    /// whole batch instead of degrading to per-update dispatch here.
    ///
    /// One pass computes each distinct item's subsampling depth (the
    /// selector's pairwise polynomial is evaluated over the whole distinct-
    /// key slice with hoisted coefficients — [`KWiseHash::hash_many`], the
    /// batched hash kernel — once per batch, not once per level), and
    /// the levels peel the partition in place: level `j` consumes the
    /// current sub-batch, then entries too shallow for level `j+1` are
    /// compacted away.  The compaction preserves item order, so every level
    /// sees an already-coalesced slice and total routing work is the sum of
    /// the (geometrically shrinking) level sizes instead of levels × batch.
    fn update_batch(&mut self, updates: &[Update]) {
        if updates.len() <= 1 {
            for &u in updates {
                self.update(u);
            }
            return;
        }
        let top = self.levels.len() - 1;
        let RouteScratch {
            coalesce,
            keys,
            hashes,
            routed,
            depths,
        } = &mut self.scratch.buf;
        // Coalesce once, up front: the depth computation below then runs
        // over distinct items only, and the per-level sketches detect the
        // coalesced form and skip their own passes.
        let coalesced = gsum_streams::coalesce_into(updates, coalesce);
        // Level 0 sees every item.
        self.levels[0].update_batch(coalesced);
        if top == 0 {
            return;
        }
        // Batched selector evaluation: one hoisted-coefficient pass over the
        // distinct keys, bit-identical to per-key `selector.hash`.
        keys.clear();
        keys.extend(coalesced.iter().map(|u| u.item));
        self.selector.hash_many(keys, hashes);
        routed.clear();
        depths.clear();
        for (u, &h) in coalesced.iter().zip(hashes.iter()) {
            let d = (h.trailing_zeros() as usize).min(top);
            if d >= 1 {
                routed.push(*u);
                depths.push(d as u8);
            }
        }
        for j in 1..=top {
            if routed.is_empty() {
                // Deeper levels see nested subsets: nothing survives below.
                break;
            }
            self.levels[j].update_batch(routed);
            // Keep only the entries that survive to level j+1, in order.
            let keep = (j + 1) as u8;
            let mut write = 0usize;
            for read in 0..routed.len() {
                if depths[read] >= keep {
                    routed[write] = routed[read];
                    depths[write] = depths[read];
                    write += 1;
                }
            }
            routed.truncate(write);
            depths.truncate(write);
        }
    }
}

/// The recursive sketch of mergeable level sketches is itself mergeable:
/// matching seeds guarantee the subsampling selectors agree, and the levels
/// merge pairwise.
impl<S: HeavyHitterSketch + MergeableSketch> MergeableSketch for RecursiveSketch<S> {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.domain != other.domain
            || self.levels.len() != other.levels.len()
            || self.seed != other.seed
        {
            return Err(MergeError::new(
                "recursive-sketch merge requires identical domain, levels and seed",
            ));
        }
        for (mine, theirs) in self.levels.iter_mut().zip(other.levels.iter()) {
            mine.merge(theirs)?;
        }
        Ok(())
    }
}

/// A recursive sketch of checkpointable levels is itself checkpointable:
/// the subsampling selector re-derives from the master seed (the same
/// derivation [`RecursiveSketch::new`] uses), so the checkpoint is the
/// domain, the seed and the nested per-level checkpoints.
impl<S: HeavyHitterSketch + Checkpoint> Checkpoint for RecursiveSketch<S> {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        self.save_levels_with(w, |level, w| level.save(w))
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::RECURSIVE_SKETCH)?;
        let domain = checkpoint::read_u64(r)?;
        let seed = checkpoint::read_u64(r)?;
        let count = checkpoint::read_len(r)?;
        if domain == 0 || count == 0 {
            return Err(CheckpointError::Corrupt(
                "recursive sketch needs a positive domain and at least one level".into(),
            ));
        }
        let mut levels = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            levels.push(S::restore(r)?);
        }
        Ok(Self::assemble(domain, seed, levels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_streams::{
        StreamConfig, StreamGenerator, UniformStreamGenerator, ZipfStreamGenerator,
    };

    /// A heavy-hitter oracle that tracks everything exactly and reports every
    /// item as its cover.  With exact per-level covers the recursive
    /// estimator must reproduce the g-SUM (here g = x²) exactly, which pins
    /// down the combination formula.
    struct ExactOracle {
        counts: std::collections::HashMap<u64, i64>,
    }

    impl ExactOracle {
        fn new() -> Self {
            Self {
                counts: std::collections::HashMap::new(),
            }
        }
    }

    impl StreamSink for ExactOracle {
        fn update(&mut self, update: Update) {
            *self.counts.entry(update.item).or_insert(0) += update.delta;
        }
    }

    impl HeavyHitterSketch for ExactOracle {
        fn cover(&self, _domain: u64) -> GCover {
            GCover::from_pairs(
                self.counts
                    .iter()
                    .filter(|(_, &v)| v != 0)
                    .map(|(&i, &v)| (i, (v as f64) * (v as f64)))
                    .collect(),
            )
        }
        fn space_words(&self) -> usize {
            2 * self.counts.len()
        }
    }

    impl MergeableSketch for ExactOracle {
        fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
            for (&i, &v) in &other.counts {
                *self.counts.entry(i).or_insert(0) += v;
            }
            Ok(())
        }
    }

    /// An oracle that only reports the `k` largest-magnitude items of its own
    /// substream — exercises the "light mass is extrapolated from deeper
    /// levels" path (shallow levels cover only a fraction of their mass,
    /// deep levels are covered completely).
    struct TopKOracle {
        k: usize,
        counts: std::collections::HashMap<u64, i64>,
    }

    impl StreamSink for TopKOracle {
        fn update(&mut self, update: Update) {
            *self.counts.entry(update.item).or_insert(0) += update.delta;
        }
    }

    impl HeavyHitterSketch for TopKOracle {
        fn cover(&self, _domain: u64) -> GCover {
            let mut items: Vec<(u64, i64)> = self
                .counts
                .iter()
                .filter(|(_, &v)| v != 0)
                .map(|(&i, &v)| (i, v))
                .collect();
            items.sort_unstable_by_key(|&(_, v)| std::cmp::Reverse(v.abs()));
            items.truncate(self.k);
            GCover::from_pairs(
                items
                    .into_iter()
                    .map(|(i, v)| (i, (v as f64) * (v as f64)))
                    .collect(),
            )
        }
        fn space_words(&self) -> usize {
            2 * self.counts.len()
        }
    }

    #[test]
    fn exact_covers_give_exact_estimate() {
        let stream = ZipfStreamGenerator::new(StreamConfig::new(512, 20_000), 1.2, 3).generate();
        let truth: f64 = stream
            .frequency_vector()
            .iter()
            .map(|(_, v)| (v as f64) * (v as f64))
            .sum();
        let mut rs = RecursiveSketch::new(512, 10, 77, |_, _| ExactOracle::new());
        rs.process_stream(&stream);
        let est = rs.estimate();
        assert!(
            (est - truth).abs() < 1e-6 * truth,
            "estimate {est} should equal the truth {truth} with exact covers"
        );
    }

    #[test]
    fn selection_is_nested_and_halving() {
        let rs = RecursiveSketch::new(1 << 16, 12, 5, |_, _| ExactOracle::new());
        let n = 1u64 << 14;
        let mut prev_count = n;
        for level in 1..8usize {
            let count = (0..n).filter(|&i| rs.selected_at(i, level)).count() as u64;
            // Nested: every item at level j is at level j-1.
            for i in 0..n {
                if rs.selected_at(i, level) {
                    assert!(rs.selected_at(i, level - 1));
                }
            }
            // Roughly halving.
            let expect = n as f64 / 2f64.powi(level as i32);
            assert!(
                (count as f64 - expect).abs() < 0.25 * expect + 20.0,
                "level {level}: {count} selected, expected about {expect}"
            );
            assert!(count <= prev_count);
            prev_count = count;
        }
        // Level 0 includes everything.
        assert!((0..100u64).all(|i| rs.selected_at(i, 0)));
    }

    #[test]
    fn substream_items_are_exactly_the_routed_items() {
        let rs = RecursiveSketch::new(1 << 16, 12, 5, |_, _| ExactOracle::new());
        // A domain that ends mid-block.
        let domain = 3 * SUBSTREAM_BLOCK + 17;
        for level in [0, 1, 2, 5, 11, 63, 64, 70] {
            let substream = Substream {
                level,
                selector: rs.selector.clone(),
            };
            let want: Vec<u64> = (0..domain).filter(|&i| rs.selected_at(i, level)).collect();
            assert_eq!(substream.items_below(domain).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn partial_covers_still_track_the_sum() {
        // With only the top-k items of each substream covered, individual
        // estimates are noisy but the median over independent seeds
        // concentrates around the truth (the content of Theorem 13).
        let stream = UniformStreamGenerator::new(StreamConfig::new(1 << 10, 40_000), 11).generate();
        let truth: f64 = stream
            .frequency_vector()
            .iter()
            .map(|(_, v)| (v as f64) * (v as f64))
            .sum();
        let trials = 9;
        let mut estimates: Vec<f64> = Vec::new();
        for seed in 0..trials {
            let mut rs = RecursiveSketch::new(1 << 10, 11, seed * 13 + 1, |_, _| TopKOracle {
                k: 16,
                counts: std::collections::HashMap::new(),
            });
            rs.process_stream(&stream);
            estimates.push(rs.estimate());
        }
        estimates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = estimates[trials as usize / 2];
        let rel = (median - truth).abs() / truth;
        assert!(
            rel < 0.35,
            "median estimate {median} too far from truth {truth} (rel {rel})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let stream = ZipfStreamGenerator::new(StreamConfig::new(256, 5_000), 1.1, 9).generate();
        let run = |seed| {
            let mut rs = RecursiveSketch::new(256, 9, seed, |_, _| ExactOracle::new());
            rs.process_stream(&stream);
            rs.estimate()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn covers_and_space_accessors() {
        let mut rs = RecursiveSketch::new(64, 4, 0, |_, _| ExactOracle::new());
        rs.update(Update::new(3, 5));
        assert_eq!(rs.covers().len(), 4);
        assert_eq!(rs.levels(), 4);
        assert_eq!(rs.domain(), 64);
        assert!(rs.space_words() >= 4);
        assert!(rs.deepest_level(3) < 4);
    }

    #[test]
    fn merged_halves_estimate_like_the_whole() {
        let stream = ZipfStreamGenerator::new(StreamConfig::new(256, 8_000), 1.2, 5).generate();
        let build = || RecursiveSketch::new(256, 8, 21, |_, _| ExactOracle::new());

        let mut whole = build();
        whole.process_stream(&stream);

        let (front, back) = stream.updates().split_at(stream.len() / 2);
        let mut a = build();
        a.update_batch(front);
        let mut b = build();
        b.update_batch(back);
        a.merge(&b).unwrap();

        assert_eq!(a.estimate(), whole.estimate());
    }

    #[test]
    fn merge_rejects_mismatched_seed() {
        let mut a = RecursiveSketch::new(64, 4, 1, |_, _| ExactOracle::new());
        let b = RecursiveSketch::new(64, 4, 2, |_, _| ExactOracle::new());
        assert!(a.merge(&b).is_err());
        let c = RecursiveSketch::new(32, 4, 1, |_, _| ExactOracle::new());
        assert!(a.merge(&c).is_err());
    }

    #[test]
    #[should_panic(expected = "one cover per level")]
    fn estimate_from_covers_checks_length() {
        let rs = RecursiveSketch::new(64, 4, 0, |_, _| ExactOracle::new());
        let _ = rs.estimate_from_covers(&[GCover::new()]);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        let _ = RecursiveSketch::new(64, 0, 0, |_, _| ExactOracle::new());
    }
}
