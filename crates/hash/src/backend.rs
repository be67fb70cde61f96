//! Pluggable per-row hash backends for the sketches.
//!
//! Every sketch row needs the same two primitives: a bucket map
//! `h : u64 → [0, columns)` and a sign map `σ : u64 → {−1, +1}`.  The
//! workspace ships two interchangeable implementations:
//!
//! * [`HashBackend::Polynomial`] — the provable default: one polynomial per
//!   row drawn from the 4-wise independent family over `GF(2^61 − 1)` (the
//!   independence the CountSketch/AMS variance analyses require).
//! * [`HashBackend::Tabulation`] — Pătraşcu–Thorup simple tabulation: eight
//!   table lookups and xors per evaluation, no multiplications.  Only 3-wise
//!   independent, but known to behave like a fully random function for
//!   hashing-based sketches; measurably faster on the ingestion hot path.
//!
//! Both backends reduce hash values into `[0, columns)` with a division-free
//! multiply-shift (Lemire) reduction — the hardware `%` the sketches used to
//! pay per row per update is gone.  [`RowHasher::column_sign`] derives the
//! bucket (high bits, multiply-shift) and the sign (low bit) from a *single*
//! hash evaluation, so the ingestion loop obtains `(column, sign)` for a row
//! from one pass over the key per row state.

use crate::kwise::KWiseHash;
use crate::prime::{mul, reduce, reduce128};
use crate::tabulation::TabulationHash;

/// Block size for the batched tabulation kernel: enough independent lookup
/// chains in flight to hide table-load latency, small enough that the
/// accumulator array lives in registers / L1.
const TAB_BLOCK: usize = 16;

/// Which hash family a sketch draws its per-row bucket and sign hashes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashBackend {
    /// Polynomial hashing over `GF(2^61 − 1)`: pairwise independent buckets,
    /// 4-wise independent signs.  The provable default.
    #[default]
    Polynomial,
    /// Simple tabulation hashing (Pătraşcu–Thorup): 3-wise independent,
    /// multiplication-free, fastest per evaluation.
    Tabulation,
}

impl HashBackend {
    /// A short stable name (used by benchmark reports and config dumps).
    pub fn name(self) -> &'static str {
        match self {
            HashBackend::Polynomial => "polynomial",
            HashBackend::Tabulation => "tabulation",
        }
    }

    /// A stable single-byte tag for binary encodings (checkpoint format).
    /// Tags are append-only: existing values never change meaning.
    pub fn tag(self) -> u8 {
        match self {
            HashBackend::Polynomial => 0,
            HashBackend::Tabulation => 1,
        }
    }

    /// Decode a backend from its [`tag`](Self::tag); `None` for unknown tags
    /// (e.g. a checkpoint written by a newer version, or corrupt bytes).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(HashBackend::Polynomial),
            1 => Some(HashBackend::Tabulation),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum RowState {
    Polynomial(KWiseHash),
    Tabulation(TabulationHash),
}

/// One sketch row's hashing state: a bucket hash into `[0, columns)` and a
/// sign hash into `{−1, +1}`, derived from a *single* hash evaluation per
/// key, drawn from the chosen [`HashBackend`].
///
/// The bucket is the multiply-shift (Lemire) reduction of the hash value —
/// its high bits — and the sign is the hash value's lowest bit, so
/// [`column_sign`](Self::column_sign) really is one fused pass: one
/// polynomial evaluation (3 field multiplies for the 4-wise family) or one
/// tabulation lookup chain (8 table reads) yields both outputs.
///
/// Independence: the polynomial backend draws from the 4-wise family, so the
/// sign (low bit) is 4-wise independent — what the CountSketch/AMS variance
/// analyses need — and the bucket (a projection of the same values) is at
/// least pairwise.  Per key, bucket and sign come from disjoint ends of one
/// field value; over any bucket's ~`p/columns`-sized preimage interval the
/// low bit balances to within `columns/2^61`, a bias far below the sketches'
/// error terms.
#[derive(Debug, Clone, PartialEq)]
pub struct RowHasher {
    state: RowState,
    columns: u64,
    /// The seed the row state was expanded from.  Kept so the row is
    /// reconstructible from `(backend, columns, seed)` alone — the whole
    /// hashing state of a sketch row checkpoints as three integers instead of
    /// an opaque coefficient/table dump.
    seed: u64,
}

impl RowHasher {
    /// Build a row's hash state from a seed.
    ///
    /// # Panics
    /// Panics if `columns == 0`.
    pub fn new(backend: HashBackend, columns: u64, seed: u64) -> Self {
        assert!(columns > 0, "column count must be positive");
        let state = match backend {
            HashBackend::Polynomial => RowState::Polynomial(KWiseHash::new(4, seed)),
            HashBackend::Tabulation => RowState::Tabulation(TabulationHash::new(seed)),
        };
        Self {
            state,
            columns,
            seed,
        }
    }

    /// The backend this row was drawn from.
    pub fn backend(&self) -> HashBackend {
        match self.state {
            RowState::Polynomial(_) => HashBackend::Polynomial,
            RowState::Tabulation(_) => HashBackend::Tabulation,
        }
    }

    /// Number of columns `b` the bucket hash maps into.
    pub fn columns(&self) -> u64 {
        self.columns
    }

    /// The seed this row's state was expanded from.
    /// `RowHasher::new(self.backend(), self.columns(), self.seed())`
    /// reconstructs an identical row.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fused evaluation: `(column, sign)` for a key from one hash pass.
    /// The column lies in `[0, columns)` and is reduced division-free.
    #[inline]
    pub fn column_sign(&self, key: u64) -> (u64, i64) {
        // The raw hash value and the width (in bits) of its uniform range:
        // 61 for the polynomial field `[0, 2^61 − 1)`, 64 for tabulation.
        let (value, bits) = match &self.state {
            RowState::Polynomial(h) => (h.hash(key), 61),
            RowState::Tabulation(h) => (h.hash(key), 64),
        };
        let sign = if value & 1 == 1 { 1 } else { -1 };
        (
            ((value as u128 * self.columns as u128) >> bits) as u64,
            sign,
        )
    }

    /// Batched fused evaluation: `(column, sign)` for every key in a slice,
    /// appended to `cols_out`/`signs_out` (both cleared first).
    ///
    /// This is the hash-stage kernel the sketches' coalesced ingestion loops
    /// call once per row per batch, replacing a per-distinct-item
    /// [`column_sign`](Self::column_sign) call.  The backend dispatch and the
    /// polynomial coefficients (or table base pointers) are hoisted out of
    /// the key loop:
    ///
    /// * **Polynomial** — the 4-wise polynomial is evaluated over the slice
    ///   in structure-of-arrays shape (`x, x², x³` then one fused
    ///   sum-of-products per key), the same proven-bit-identical evaluation
    ///   order as [`crate::SignHashBank::eval_with`], with the division-free
    ///   Lemire bucketing inlined in the same pass.
    /// * **Tabulation** — keys are processed in blocks of `TAB_BLOCK` so
    ///   the eight data-dependent table lookups of neighbouring keys
    ///   pipeline instead of serializing per call.
    ///
    /// Both paths produce exactly the per-key outputs: the same canonical
    /// field value / XOR accumulation, the same `(value · columns) >> bits`
    /// bucket and the same low-bit sign, so batched and per-key ingestion
    /// are bit-identical (proptested in `tests/batch_equivalence.rs`).
    ///
    /// Columns are emitted as `u32` — the sketches' column-index scratch
    /// width; rows are constructed with far fewer than `2^32` columns.
    pub fn column_sign_batch(
        &self,
        keys: &[u64],
        cols_out: &mut Vec<u32>,
        signs_out: &mut Vec<i64>,
    ) {
        debug_assert!(self.columns <= u32::MAX as u64 + 1);
        cols_out.clear();
        signs_out.clear();
        cols_out.reserve(keys.len());
        signs_out.reserve(keys.len());
        let columns = self.columns as u128;
        match &self.state {
            RowState::Polynomial(h) => {
                if let [c0, c1, c2, c3] = *h.coefficients() {
                    for &key in keys {
                        let x = reduce(key);
                        let x2 = mul(x, x);
                        let x3 = mul(x2, x);
                        let value = reduce128(
                            (c3 as u128) * (x3 as u128)
                                + (c2 as u128) * (x2 as u128)
                                + (c1 as u128) * (x as u128)
                                + c0 as u128,
                        );
                        cols_out.push((((value as u128) * columns) >> 61) as u32);
                        signs_out.push(((value & 1) as i64) * 2 - 1);
                    }
                } else {
                    for &key in keys {
                        let value = h.hash(key);
                        cols_out.push((((value as u128) * columns) >> 61) as u32);
                        signs_out.push(((value & 1) as i64) * 2 - 1);
                    }
                }
            }
            RowState::Tabulation(h) => {
                let mut chunks = keys.chunks_exact(TAB_BLOCK);
                for block in chunks.by_ref() {
                    let mut values = [0u64; TAB_BLOCK];
                    h.hash_into(block, &mut values);
                    for &value in &values {
                        cols_out.push((((value as u128) * columns) >> 64) as u32);
                        signs_out.push(((value & 1) as i64) * 2 - 1);
                    }
                }
                for &key in chunks.remainder() {
                    let value = h.hash(key);
                    cols_out.push((((value as u128) * columns) >> 64) as u32);
                    signs_out.push(((value & 1) as i64) * 2 - 1);
                }
            }
        }
    }

    /// Rough size of the row state in 64-bit words (for space accounting).
    pub fn space_words(&self) -> usize {
        match &self.state {
            // 4 polynomial coefficients plus the column count.
            RowState::Polynomial(_) => 5,
            // One 8 × 256 table of u64 plus the column count.
            RowState::Tabulation(_) => 8 * 256 + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seeds() {
        for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
            let a = RowHasher::new(backend, 64, 1);
            let b = RowHasher::new(backend, 64, 1);
            for key in 0..512u64 {
                assert_eq!(a.column_sign(key), b.column_sign(key));
            }
            assert_eq!(a.backend(), backend);
            assert_eq!(a.columns(), 64);
        }
    }

    #[test]
    fn columns_in_range_and_signs_valid() {
        for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
            for columns in [1u64, 2, 7, 64, 1000] {
                let h = RowHasher::new(backend, columns, 99);
                for key in 0..2000u64 {
                    let (col, sign) = h.column_sign(key);
                    assert!(col < columns);
                    assert!(sign == 1 || sign == -1);
                }
            }
        }
    }

    #[test]
    fn batch_kernels_match_per_key_exactly() {
        // Duplicates, key 0, max-key and field-boundary keys, plus lengths
        // that are not a multiple of the tabulation block size.
        let keys: Vec<u64> = (0..533u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .chain([
                0,
                0,
                1,
                7,
                7,
                u64::MAX,
                u64::MAX - 1,
                (1 << 61) - 1,
                1 << 61,
            ])
            .collect();
        let mut cols = Vec::new();
        let mut signs = Vec::new();
        for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
            for columns in [1u64, 2, 64, 1000, 1 << 20] {
                let h = RowHasher::new(backend, columns, 0xBEE5);
                for len in [0usize, 1, 15, 16, 17, keys.len()] {
                    let slice = &keys[..len];
                    h.column_sign_batch(slice, &mut cols, &mut signs);
                    assert_eq!(cols.len(), len);
                    assert_eq!(signs.len(), len);
                    for (i, &key) in slice.iter().enumerate() {
                        let (col, sign) = h.column_sign(key);
                        assert_eq!(cols[i] as u64, col, "{}: col mismatch", backend.name());
                        assert_eq!(signs[i], sign, "{}: sign mismatch", backend.name());
                    }
                }
            }
        }
    }

    #[test]
    fn buckets_roughly_balanced_both_backends() {
        for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
            let columns = 16u64;
            let h = RowHasher::new(backend, columns, 4242);
            let n = 64_000u64;
            let mut counts = vec![0usize; columns as usize];
            for key in 0..n {
                counts[h.column_sign(key).0 as usize] += 1;
            }
            let expect = n as f64 / columns as f64;
            for &c in &counts {
                assert!(
                    (c as f64 - expect).abs() < 0.1 * expect,
                    "{}: bucket {c} deviates from {expect}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn signs_roughly_balanced_both_backends() {
        for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
            let h = RowHasher::new(backend, 8, 2025);
            let sum: i64 = (0..100_000u64).map(|k| h.column_sign(k).1).sum();
            assert!(sum.abs() < 2000, "{}: sign sum {sum}", backend.name());
        }
    }

    #[test]
    fn backends_differ() {
        let p = RowHasher::new(HashBackend::Polynomial, 1024, 3);
        let t = RowHasher::new(HashBackend::Tabulation, 1024, 3);
        let same = (0..256u64)
            .filter(|&k| p.column_sign(k).0 == t.column_sign(k).0)
            .count();
        assert!(same < 32, "backends should hash differently ({same} agree)");
    }

    #[test]
    fn backend_names() {
        assert_eq!(HashBackend::Polynomial.name(), "polynomial");
        assert_eq!(HashBackend::Tabulation.name(), "tabulation");
        assert_eq!(HashBackend::default(), HashBackend::Polynomial);
    }

    #[test]
    fn backend_tags_roundtrip_and_unknown_tags_fail() {
        for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
            assert_eq!(HashBackend::from_tag(backend.tag()), Some(backend));
        }
        assert_eq!(HashBackend::from_tag(2), None);
        assert_eq!(HashBackend::from_tag(255), None);
    }

    #[test]
    fn reconstructible_from_seed() {
        for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
            let original = RowHasher::new(backend, 128, 0xDEAD_BEEF);
            assert_eq!(original.seed(), 0xDEAD_BEEF);
            let rebuilt = RowHasher::new(original.backend(), original.columns(), original.seed());
            assert_eq!(original, rebuilt);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_columns_panics() {
        let _ = RowHasher::new(HashBackend::Polynomial, 0, 1);
    }

    #[test]
    fn space_words_positive() {
        assert!(RowHasher::new(HashBackend::Polynomial, 4, 0).space_words() >= 5);
        assert!(RowHasher::new(HashBackend::Tabulation, 4, 0).space_words() >= 2048);
    }
}
