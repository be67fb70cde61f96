//! CountSketch (Charikar, Chen, Farach-Colton 2002).
//!
//! The sketch is an `r × b` array of counters.  Row `j` has a pairwise
//! independent bucket hash `h_j : [n] → [b]` and a 4-wise independent sign
//! hash `σ_j : [n] → {±1}`; an update `(i, δ)` adds `σ_j(i)·δ` to counter
//! `(j, h_j(i))` in every row.  The estimate of `v_i` is the median over rows
//! of `σ_j(i) · C[j][h_j(i)]`.
//!
//! Guarantee (as used in §3.1): with `b = O(k/ε²)` columns and
//! `r = O(log(n/δ))` rows, with probability `1 − δ` every item satisfies
//! `|v̂_i − v_i| ≤ (ε/√k) · sqrt(F₂^{res(k)})` where `F₂^{res(k)}` is the
//! residual second moment excluding the top `k` items.  The paper invokes it
//! through the parameterization `CountSketch(λ, ε, δ)` — a structure able to
//! identify all `λ`-heavy hitters for `F₂` and estimate their frequencies to
//! within `ε √(λ F₂)`.

use crate::error::SketchError;
use crate::util::{exact_i64_gate, median_in_place};
use crate::FrequencySketch;
use gsum_hash::{derive_seeds, HashBackend, RowHasher};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{coalesce_into, IngestScratch, MergeError, MergeableSketch, StreamSink, Update};
use std::io::{Read, Write};
use std::sync::Mutex;

/// Reusable working memory for [`CountSketch::update_batch`]: the coalesce
/// buffer, the distinct-key slice handed to the batched hash kernel (filled
/// once per batch, shared by every row), and the per-row `(column, sign,
/// signed delta)` columns the kernel and the sign-apply pass fill — the
/// signed deltas live in `ideltas` on the exact-`i64` fast path and in
/// `fdeltas` on the extreme-delta fallback.  Transient — never part of
/// checkpoint/merge/clone identity.
#[derive(Debug, Default)]
pub struct CountSketchScratch {
    coalesce: Vec<Update>,
    keys: Vec<u64>,
    cols: Vec<u32>,
    signs: Vec<i64>,
    fdeltas: Vec<f64>,
    ideltas: Vec<i64>,
}

/// Reusable query-side scratch for
/// [`CountSketch::residual_f2_excluding`]: the per-column exclusion flags,
/// the batched hash kernel's outputs (the signs are not read) and the
/// per-row sums, so residual queries on the cover hot path stop allocating.
#[derive(Debug, Default)]
struct ResidualScratch {
    excluded_cols: Vec<bool>,
    cols: Vec<u32>,
    signs: Vec<i64>,
    row_sums: Vec<f64>,
}

/// Candidate keys pulled from the iterator per block of the batched scan:
/// large enough to amortize the per-row kernel setup, small enough that the
/// block's `rows × SCAN_BLOCK` signed counters stay in L1/L2.
const SCAN_BLOCK: usize = 1024;

/// The candidate order: decreasing `|estimate|`, ties broken by increasing
/// item.  Total over distinct items, so every selection strategy that
/// respects it returns the same items in the same order.
fn by_magnitude_then_item(a: &(u64, f64), b: &(u64, f64)) -> std::cmp::Ordering {
    b.1.abs()
        .partial_cmp(&a.1.abs())
        .expect("estimates are finite")
        .then(a.0.cmp(&b.0))
}

/// Configuration for a [`CountSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountSketchConfig {
    /// Number of rows (independent repetitions; the median is taken across
    /// rows).
    pub rows: usize,
    /// Number of columns (buckets per row).
    pub columns: usize,
    /// Hash family the per-row bucket and sign hashes are drawn from.
    pub backend: HashBackend,
}

impl CountSketchConfig {
    /// Direct `(rows, columns)` configuration with the default
    /// ([`HashBackend::Polynomial`]) backend.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `columns == 0`; use
    /// [`try_new`](Self::try_new) for a fallible constructor.
    pub fn new(rows: usize, columns: usize) -> Self {
        Self::try_new(rows, columns).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects zero rows or columns with a typed
    /// [`SketchError`].
    pub fn try_new(rows: usize, columns: usize) -> Result<Self, SketchError> {
        if rows == 0 {
            return Err(SketchError::EmptyDimension { parameter: "rows" });
        }
        if columns == 0 {
            return Err(SketchError::EmptyDimension {
                parameter: "columns",
            });
        }
        Ok(Self {
            rows,
            columns,
            backend: HashBackend::default(),
        })
    }

    /// Select the hash backend (sketches merge only with matching backends).
    pub fn with_backend(mut self, backend: HashBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The paper's parameterization `CountSketch(λ, ε, δ)`: enough columns to
    /// isolate `1/λ` heavy items and estimate them to within `ε·√(λ F₂)`, and
    /// enough rows for failure probability `δ` over a domain of size `n`.
    ///
    /// Concretely: `columns = ceil(6 / (λ ε²))`, `rows = ceil(4 ln(n/δ))`.
    pub fn for_heavy_hitters(
        lambda: f64,
        epsilon: f64,
        delta: f64,
        domain: u64,
    ) -> Result<Self, SketchError> {
        if !(lambda > 0.0 && lambda.is_finite()) {
            return Err(SketchError::InvalidProbability {
                parameter: "lambda",
                value: lambda,
            });
        }
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(SketchError::InvalidProbability {
                parameter: "epsilon",
                value: epsilon,
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(SketchError::InvalidProbability {
                parameter: "delta",
                value: delta,
            });
        }
        let columns = (6.0 / (lambda * epsilon * epsilon)).ceil() as usize;
        let rows = (4.0 * ((domain.max(2) as f64) / delta).ln()).ceil() as usize;
        Self::try_new(rows.max(1), columns.max(1))
    }
}

/// A CountSketch over a turnstile stream.
#[derive(Debug)]
pub struct CountSketch {
    config: CountSketchConfig,
    /// Row-major counters, length `rows * columns`.
    counters: Vec<f64>,
    /// Per-row fused bucket+sign hash state.
    rows: Vec<RowHasher>,
    /// Reused scratch for [`residual_f2_excluding`](Self::residual_f2_excluding)
    /// (per-column flags + per-row sums), so queries on the hot path do not
    /// allocate.  A `Mutex` rather than a `RefCell` so the sketch stays
    /// `Sync` — a serving state is queried from concurrent connection
    /// threads — at the cost of one uncontended lock per residual query.
    residual_scratch: Mutex<ResidualScratch>,
    /// Reused ingestion scratch for `update_batch`.
    scratch: IngestScratch<CountSketchScratch>,
    seed: u64,
}

impl Clone for CountSketch {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            counters: self.counters.clone(),
            rows: self.rows.clone(),
            // Scratch holds no sketch state; a clone starts with a fresh one.
            residual_scratch: Mutex::new(ResidualScratch::default()),
            scratch: IngestScratch::default(),
            seed: self.seed,
        }
    }
}

impl CountSketch {
    /// Create a CountSketch with the given configuration and seed.
    pub fn new(config: CountSketchConfig, seed: u64) -> Self {
        let seeds = derive_seeds(seed, config.rows);
        let rows = seeds
            .iter()
            .map(|&s| RowHasher::new(config.backend, config.columns as u64, s))
            .collect();
        Self {
            config,
            counters: vec![0.0; config.rows * config.columns],
            rows,
            residual_scratch: Mutex::new(ResidualScratch::default()),
            scratch: IngestScratch::default(),
            seed,
        }
    }

    /// Convenience constructor using the paper's `(λ, ε, δ)` parameterization.
    pub fn for_heavy_hitters(
        lambda: f64,
        epsilon: f64,
        delta: f64,
        domain: u64,
        seed: u64,
    ) -> Result<Self, SketchError> {
        Ok(Self::new(
            CountSketchConfig::for_heavy_hitters(lambda, epsilon, delta, domain)?,
            seed,
        ))
    }

    /// The configuration this sketch was built with.
    pub fn config(&self) -> CountSketchConfig {
        self.config
    }

    /// The seed this sketch was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[inline]
    fn cell(&self, row: usize, col: usize) -> usize {
        row * self.config.columns + col
    }

    /// The top-`k` items (by estimated magnitude) among the given candidate
    /// item identifiers.  Returned as `(item, estimate)` sorted by decreasing
    /// `|estimate|`, ties broken by increasing item; each estimate is
    /// bit-identical to [`FrequencySketch::estimate`] of that item.
    ///
    /// One batched scan: keys are pulled from the iterator in blocks of
    /// 1024 and the block is walked row by row.  Per row, the ingest path's
    /// batched hash kernel ([`RowHasher::column_sign_batch`]) fills the
    /// surviving keys' columns and signs and their signed counters are
    /// gathered; each survivor's median over rows is then taken exactly as
    /// [`FrequencySketch::estimate`] takes it.  Survivors live in a bounded
    /// buffer of at most `2k` entries that is cut back to the best `k`
    /// whenever it fills; the worst kept magnitude is then the *floor* a
    /// later key must reach.
    ///
    /// **Cost.**  Once the floor is positive, a key is dropped as soon as
    /// its remaining rows can no longer lift its median to it, and the
    /// block's survivors are compacted before the next row is hashed.  A
    /// median of magnitude at least `f > 0` needs `⌈rows/2⌉` row values on
    /// one side of `±f` (for an even row count too, because
    /// `0.5·(a + b)` is monotone in both arguments), so the drop only
    /// removes keys the exact test would reject: the buffer sees the same
    /// pushes, and the output is unchanged.  The floor used for dropping is
    /// the one at the block's start, never above the current one.  On a
    /// skewed stream most keys go after `⌈rows/2⌉` of their rows.  The
    /// block buffers are freed on return, so memory is
    /// `O(k + rows · SCAN_BLOCK)` whatever the candidate count.
    pub fn top_candidates(
        &self,
        mut candidates: impl Iterator<Item = u64>,
        k: usize,
    ) -> Vec<(u64, f64)> {
        let mut top: Vec<(u64, f64)> = Vec::new();
        if k == 0 {
            return top;
        }
        let limit = k.saturating_mul(2);
        // After the first cut, anything strictly smaller in magnitude than
        // the worst survivor can never enter the top `k`.
        let mut floor = 0.0f64;
        let rows = self.config.rows;
        // Rows that must lie on one side of ±floor for a median to reach it.
        let need = rows.div_ceil(2);
        let mut keys = Vec::with_capacity(SCAN_BLOCK);
        let mut cols = Vec::with_capacity(SCAN_BLOCK);
        let mut signs = Vec::with_capacity(SCAN_BLOCK);
        // Key-major signed counters: key `j`'s row `r` at `j * rows + r`.
        let mut values = Vec::with_capacity(rows * SCAN_BLOCK);
        // Per key, its rows at or above `floor` and at or below `-floor`.
        let mut above: Vec<usize> = Vec::with_capacity(SCAN_BLOCK);
        let mut below: Vec<usize> = Vec::with_capacity(SCAN_BLOCK);
        loop {
            keys.clear();
            keys.extend(candidates.by_ref().take(SCAN_BLOCK));
            if keys.is_empty() {
                break;
            }
            let block_floor = floor;
            values.clear();
            values.resize(keys.len() * rows, 0.0);
            above.clear();
            above.resize(keys.len(), 0);
            below.clear();
            below.resize(keys.len(), 0);
            for (r, (row_counters, hasher)) in self
                .counters
                .chunks_exact(self.config.columns)
                .zip(self.rows.iter())
                .enumerate()
            {
                hasher.column_sign_batch(&keys, &mut cols, &mut signs);
                for (j, (&col, &sign)) in cols.iter().zip(signs.iter()).enumerate() {
                    let value = sign as f64 * row_counters[col as usize];
                    values[j * rows + r] = value;
                    above[j] += usize::from(value >= block_floor);
                    below[j] += usize::from(value <= -block_floor);
                }
                let left = rows - r - 1;
                if block_floor > 0.0 && left < need {
                    let mut kept = 0;
                    for j in 0..keys.len() {
                        if above[j].max(below[j]) + left >= need {
                            keys[kept] = keys[j];
                            above[kept] = above[j];
                            below[kept] = below[j];
                            values.copy_within(j * rows..j * rows + r + 1, kept * rows);
                            kept += 1;
                        }
                    }
                    keys.truncate(kept);
                    if kept == 0 {
                        break;
                    }
                }
            }
            for (j, &item) in keys.iter().enumerate() {
                let estimate = median_in_place(&mut values[j * rows..(j + 1) * rows]);
                if estimate.abs() < floor {
                    continue;
                }
                top.push((item, estimate));
                if top.len() >= limit {
                    top.select_nth_unstable_by(k - 1, by_magnitude_then_item);
                    top.truncate(k);
                    floor = top[k - 1].1.abs();
                }
            }
        }
        if top.len() > k {
            top.select_nth_unstable_by(k - 1, by_magnitude_then_item);
            top.truncate(k);
        }
        top.sort_unstable_by(by_magnitude_then_item);
        top
    }

    /// Estimate the residual second moment `F₂^{res}` of the summarized
    /// vector after excluding the given (typically heavy) items: for each
    /// row, sum the squared counters of every bucket that none of the
    /// excluded items hashes to, and take the median across rows.
    ///
    /// Each row's sum is, in expectation, the `F₂` of the non-excluded items
    /// that avoid the excluded buckets (cross terms vanish under the sign
    /// hashes), so the median is a robust stand-in for the residual `F₂` that
    /// the CountSketch error guarantee is stated in terms of — without
    /// needing a separate AMS sketch whose additive error would be
    /// proportional to the *full* `F₂`.
    pub fn residual_f2_excluding(&self, excluded: &[u64]) -> f64 {
        let mut scratch = self
            .residual_scratch
            .lock()
            .expect("residual-F2 scratch lock poisoned");
        let ResidualScratch {
            excluded_cols,
            cols,
            signs,
            row_sums,
        } = &mut *scratch;
        row_sums.clear();
        if excluded.is_empty() {
            // Nothing to mask: every bucket contributes, no flag pass needed.
            for row_counters in self.counters.chunks_exact(self.config.columns) {
                row_sums.push(row_counters.iter().map(|&c| c * c).sum());
            }
            return median_in_place(row_sums);
        }
        excluded_cols.resize(self.config.columns, false);
        for row in 0..self.config.rows {
            for flag in excluded_cols.iter_mut() {
                *flag = false;
            }
            // Hash every excluded item through the row's batched kernel
            // (coefficients hoisted / blocked table lookups) instead of one
            // scalar call per item; only the buckets are needed.
            self.rows[row].column_sign_batch(excluded, cols, signs);
            for &col in cols.iter() {
                excluded_cols[col as usize] = true;
            }
            let mut sum = 0.0;
            for (col, &is_excluded) in excluded_cols.iter().enumerate() {
                if !is_excluded {
                    let c = self.counters[self.cell(row, col)];
                    sum += c * c;
                }
            }
            row_sums.push(sum);
        }
        median_in_place(row_sums)
    }
}

impl StreamSink for CountSketch {
    fn update(&mut self, update: Update) {
        let columns = self.config.columns;
        let delta = update.delta as f64;
        for (row_counters, hasher) in self
            .counters
            .chunks_exact_mut(columns)
            .zip(self.rows.iter())
        {
            let (col, sign) = hasher.column_sign(update.item);
            // Apply the sign in f64: `sign * delta` in i64 would overflow
            // for delta = i64::MIN.
            row_counters[col as usize] += sign as f64 * delta;
        }
    }

    /// Batched ingestion fast path: duplicate items in the batch are
    /// coalesced exactly in `i64` (the sketch is linear, so the result is
    /// bit-for-bit identical to per-update ingestion), each distinct item is
    /// hashed once per row instead of once per occurrence, and the counters
    /// are walked row-major so each row's counter segment stays cache-hot.
    /// The distinct keys are gathered once per batch; each row then runs the
    /// backend's batched hash kernel ([`RowHasher::column_sign_batch`] —
    /// coefficients hoisted for the polynomial family, blocked pipelined
    /// lookups for tabulation) over the whole slice, applies the signs in a
    /// branchless pass with no hashing in it, and finishes with a tight
    /// scatter loop.  When every delta provably converts to `f64` exactly,
    /// the sign select runs in `i64` (`(δ ^ m) − m`, the same select the AMS
    /// batch path uses); extreme deltas fall back to the bit-identical `f64`
    /// multiply.
    fn update_batch(&mut self, updates: &[Update]) {
        let CountSketchScratch {
            coalesce,
            keys,
            cols,
            signs,
            fdeltas,
            ideltas,
        } = &mut self.scratch.buf;
        let coalesced = coalesce_into(updates, coalesce);
        if coalesced.is_empty() {
            return;
        }
        // One gather of the distinct keys feeds the hash kernel of every row.
        keys.clear();
        keys.extend(coalesced.iter().map(|u| u.item));
        let max_abs = coalesced
            .iter()
            .map(|u| u.delta.unsigned_abs())
            .fold(0u64, u64::max);
        // Same doctrine gate as the AMS fast path: below 2^52 every signed
        // delta is an exact f64 integer, so negating in i64 and converting
        // at apply time is bit-identical to the f64 multiply.
        let exact_i64 = exact_i64_gate(max_abs, coalesced.len());
        let columns = self.config.columns;
        for (row_counters, hasher) in self
            .counters
            .chunks_exact_mut(columns)
            .zip(self.rows.iter())
        {
            hasher.column_sign_batch(keys, cols, signs);
            if exact_i64 {
                ideltas.clear();
                for (&sign, u) in signs.iter().zip(coalesced) {
                    // sign ∈ {+1, −1}: m is 0 for +δ and −1 for −δ, and
                    // `(δ ^ m) − m` is two's-complement negation when
                    // m = −1 — no mispredictable branch on a fair coin.
                    let m = (sign - 1) >> 1;
                    ideltas.push((u.delta ^ m) - m);
                }
                for (&col, &id) in cols.iter().zip(ideltas.iter()) {
                    row_counters[col as usize] += id as f64;
                }
            } else {
                fdeltas.clear();
                for (&sign, u) in signs.iter().zip(coalesced) {
                    fdeltas.push(sign as f64 * u.delta as f64);
                }
                for (&col, &fd) in cols.iter().zip(fdeltas.iter()) {
                    row_counters[col as usize] += fd;
                }
            }
        }
    }
}

/// CountSketch is a linear sketch: merging two copies built with the same
/// configuration and seed (so the hash functions agree) summarizes the
/// concatenation of the two input streams — the property that makes the
/// sketch usable in distributed settings and that [Li–Nguyen–Woodruff 2014]
/// shows is essentially without loss of generality.
impl MergeableSketch for CountSketch {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.config != other.config || self.seed != other.seed {
            return Err(MergeError::new(
                "CountSketch merge requires identical configuration and seed",
            ));
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        Ok(())
    }
}

/// A CountSketch's state is seeds + counters: the per-row hashers re-expand
/// from the master seed (the same derivation [`CountSketch::new`] uses), so
/// the checkpoint stores only the configuration, the seed and the raw
/// counter array.
impl Checkpoint for CountSketch {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        checkpoint::write_header(w, kind::COUNT_SKETCH)?;
        checkpoint::write_u64(w, self.config.rows as u64)?;
        checkpoint::write_u64(w, self.config.columns as u64)?;
        checkpoint::write_backend(w, self.config.backend)?;
        checkpoint::write_u64(w, self.seed)?;
        checkpoint::write_f64_slice(w, &self.counters)?;
        Ok(())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        checkpoint::read_header(r, kind::COUNT_SKETCH)?;
        let rows = checkpoint::read_len(r)?;
        let columns = checkpoint::read_len(r)?;
        let backend = checkpoint::read_backend(r)?;
        let seed = checkpoint::read_u64(r)?;
        let config = CountSketchConfig::try_new(rows, columns)
            .map_err(|e| CheckpointError::Corrupt(e.to_string()))?
            .with_backend(backend);
        let cells = rows
            .checked_mul(columns)
            .ok_or_else(|| CheckpointError::Corrupt("rows × columns overflows".into()))?;
        // Read the counters before expanding the hashers, so absurd corrupt
        // dimensions fail on EOF instead of attempting a giant allocation.
        let counters = checkpoint::read_f64_counters(r, cells, "CountSketch counters")?;
        let mut sketch = Self::new(config, seed);
        sketch.counters = counters;
        Ok(sketch)
    }
}

impl FrequencySketch for CountSketch {
    fn estimate(&self, item: u64) -> f64 {
        let mut row_estimates: Vec<f64> = self
            .rows
            .iter()
            .enumerate()
            .map(|(row, hasher)| {
                let (col, sign) = hasher.column_sign(item);
                sign as f64 * self.counters[self.cell(row, col as usize)]
            })
            .collect();
        median_in_place(&mut row_estimates)
    }

    fn space_words(&self) -> usize {
        self.counters.len() + self.rows.iter().map(|r| r.space_words()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_streams::{
        FrequencyPrescribedGenerator, PlantedStreamGenerator, StreamConfig, StreamGenerator,
        TurnstileStream,
    };

    #[test]
    fn config_validation() {
        assert!(CountSketchConfig::try_new(0, 5).is_err());
        assert!(CountSketchConfig::try_new(5, 0).is_err());
        assert!(CountSketchConfig::try_new(3, 7).is_ok());
        assert!(CountSketchConfig::for_heavy_hitters(0.0, 0.1, 0.1, 100).is_err());
        assert!(CountSketchConfig::for_heavy_hitters(0.1, 0.0, 0.1, 100).is_err());
        assert!(CountSketchConfig::for_heavy_hitters(0.1, 0.1, 1.5, 100).is_err());
        let c = CountSketchConfig::for_heavy_hitters(0.01, 0.5, 0.05, 1 << 16).unwrap();
        assert!(c.columns >= (6.0 / (0.01 * 0.25)) as usize);
        assert!(c.rows >= 1);
    }

    #[test]
    fn exact_on_single_item_stream() {
        let mut cs = CountSketch::new(CountSketchConfig::new(5, 64), 9);
        let mut s = TurnstileStream::new(100);
        s.push_delta(42, 17);
        s.push_delta(42, -3);
        cs.process_stream(&s);
        assert!((cs.estimate(42) - 14.0).abs() < 1e-9);
        // Untouched items estimate near zero (they collide only with item 42).
        let zero_est = cs.estimate(7);
        assert!(zero_est.abs() <= 14.0);
    }

    #[test]
    fn heavy_item_recovered_within_error_bound() {
        // Plant a dominant item among uniform noise; estimate error should be
        // far below the planted frequency.
        let planted = vec![(13u64, 5_000u64)];
        let stream =
            PlantedStreamGenerator::new(StreamConfig::new(1 << 12, 40_000), planted, 7).generate();
        let fv = stream.frequency_vector();
        let mut cs = CountSketch::new(CountSketchConfig::new(7, 512), 11);
        cs.process_stream(&stream);
        let err = (cs.estimate(13) - fv.get(13) as f64).abs();
        // Residual F2 per bucket ~ F2_res/512; the error should be a small
        // fraction of the planted value.
        assert!(err < 500.0, "error {err} too large");
    }

    #[test]
    fn estimates_unbiased_on_average_over_seeds() {
        let mut s = TurnstileStream::new(64);
        for i in 0..64 {
            s.push_delta(i, (i as i64 % 7) + 1);
        }
        let truth = s.frequency_vector().get(5) as f64;
        let trials = 200;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut cs = CountSketch::new(CountSketchConfig::new(1, 16), seed);
            cs.process_stream(&s);
            sum += cs.estimate(5);
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() < 1.5,
            "single-row estimator should be nearly unbiased: mean {mean} vs {truth}"
        );
    }

    #[test]
    fn order_insensitive() {
        let stream = FrequencyPrescribedGenerator::new(256, vec![(50, 4), (3, 30)], 5).generate();
        let shuffled = stream.shuffled(99);
        let mut a = CountSketch::new(CountSketchConfig::new(5, 128), 3);
        let mut b = CountSketch::new(CountSketchConfig::new(5, 128), 3);
        a.process_stream(&stream);
        b.process_stream(&shuffled);
        for item in 0..256u64 {
            assert!((a.estimate(item) - b.estimate(item)).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let s1 = FrequencyPrescribedGenerator::new(128, vec![(10, 5)], 1).generate();
        let s2 = FrequencyPrescribedGenerator::new(128, vec![(20, 3)], 2).generate();
        let cfg = CountSketchConfig::new(4, 64);

        let mut merged = CountSketch::new(cfg, 42);
        merged.process_stream(&s1);
        let mut other = CountSketch::new(cfg, 42);
        other.process_stream(&s2);
        merged.merge(&other).unwrap();

        let mut concat_sketch = CountSketch::new(cfg, 42);
        let mut concat = s1.clone();
        concat.extend_from(&s2);
        concat_sketch.process_stream(&concat);

        for item in 0..128u64 {
            assert!((merged.estimate(item) - concat_sketch.estimate(item)).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_rejects_mismatched_seed() {
        let cfg = CountSketchConfig::new(2, 8);
        let mut a = CountSketch::new(cfg, 1);
        let b = CountSketch::new(cfg, 2);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn top_candidates_orders_by_magnitude() {
        let mut s = TurnstileStream::new(64);
        s.push_delta(1, 100);
        s.push_delta(2, -500);
        s.push_delta(3, 10);
        let mut cs = CountSketch::new(CountSketchConfig::new(5, 64), 8);
        cs.process_stream(&s);
        let top = cs.top_candidates(0..64u64, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 1);
    }

    #[test]
    fn residual_f2_excluding_heavy_items_tracks_the_tail() {
        // One dominant item plus light background: excluding the dominant
        // item, the residual should be near the background F2 and far below
        // the full F2.
        let planted = vec![(9u64, 10_000u64)];
        let stream =
            PlantedStreamGenerator::new(StreamConfig::new(1 << 10, 20_000), planted, 3).generate();
        let fv = stream.frequency_vector();
        let full_f2 = fv.f2();
        let true_residual = full_f2 - (fv.get(9) as f64).powi(2);

        let mut cs = CountSketch::new(CountSketchConfig::new(7, 1024), 19);
        cs.process_stream(&stream);
        let est = cs.residual_f2_excluding(&[9]);
        assert!(
            est < 0.05 * full_f2,
            "residual {est} not far below full {full_f2}"
        );
        assert!(
            est < 2.0 * true_residual + 1.0,
            "residual {est} vs true tail {true_residual}"
        );
        // Excluding nothing gives roughly the full F2.
        let all = cs.residual_f2_excluding(&[]);
        assert!((all - full_f2).abs() < 0.3 * full_f2, "{all} vs {full_f2}");
    }

    #[test]
    fn tabulation_backend_tracks_frequencies() {
        let cfg = CountSketchConfig::new(5, 64).with_backend(HashBackend::Tabulation);
        let mut cs = CountSketch::new(cfg, 9);
        let mut s = TurnstileStream::new(100);
        s.push_delta(42, 17);
        s.push_delta(42, -3);
        cs.process_stream(&s);
        assert!((cs.estimate(42) - 14.0).abs() < 1e-9);
        assert_eq!(cs.config().backend, HashBackend::Tabulation);
    }

    #[test]
    fn merge_rejects_mismatched_backend() {
        let cfg = CountSketchConfig::new(2, 8);
        let mut a = CountSketch::new(cfg, 1);
        let b = CountSketch::new(cfg.with_backend(HashBackend::Tabulation), 1);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn space_words_scales_with_dimensions() {
        let small = CountSketch::new(CountSketchConfig::new(2, 16), 0);
        let large = CountSketch::new(CountSketchConfig::new(8, 256), 0);
        assert!(large.space_words() > 10 * small.space_words());
        assert!(small.space_words() >= 2 * 16);
    }
}
