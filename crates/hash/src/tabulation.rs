//! Simple tabulation hashing.
//!
//! Tabulation hashing splits a 64-bit key into 8 bytes and xors together one
//! random table entry per byte.  It is 3-wise independent, extremely fast
//! (eight table lookups, no multiplications), and is known to behave like a
//! fully random function for many algorithms (Pătraşcu–Thorup).
//!
//! The sketches select their hash family through
//! [`HashBackend`](crate::HashBackend) /[`RowHasher`](crate::RowHasher):
//! `HashBackend::Tabulation` plugs this implementation into CountSketch via
//! `CountSketchConfig::with_backend` (and from there into the whole g-SUM
//! estimator stack through `GSumConfig::with_hash_backend`).  The benchmark
//! crate's `bench_ingest` uses the same switch for the hashing-cost ablation.

use crate::rng::SplitMix64;

const BYTES: usize = 8;
const TABLE_SIZE: usize = 256;

/// A simple tabulation hash over 64-bit keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    tables: Box<[[u64; TABLE_SIZE]; BYTES]>,
}

impl TabulationHash {
    /// Build the 8 × 256 random tables from a seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut tables = Box::new([[0u64; TABLE_SIZE]; BYTES]);
        for table in tables.iter_mut() {
            for slot in table.iter_mut() {
                *slot = rng.next_u64();
            }
        }
        Self { tables }
    }

    /// Hash a key to a 64-bit value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        let mut acc = 0u64;
        let bytes = key.to_le_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            acc ^= self.tables[i][b as usize];
        }
        acc
    }

    /// Hash a slice of keys into an equal-length output slice, walking the
    /// byte position in the *outer* loop: all of `out` accumulates table 0,
    /// then table 1, and so on.  The eight data-dependent table loads for
    /// different keys are independent, so they pipeline instead of
    /// serializing per call, and each 2 KiB table stays hot while it is
    /// walked.  XOR is commutative and associative, so the accumulated value
    /// is bit-identical to [`hash`](Self::hash) per key.
    ///
    /// `out` must be zeroed by the caller (values are XOR-accumulated).
    ///
    /// # Panics
    /// Panics if `keys` and `out` have different lengths.
    #[inline]
    pub fn hash_into(&self, keys: &[u64], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "key/output length mismatch");
        for (i, table) in self.tables.iter().enumerate() {
            let shift = 8 * i as u32;
            for (acc, &key) in out.iter_mut().zip(keys) {
                *acc ^= table[((key >> shift) & 0xFF) as usize];
            }
        }
    }

    /// Hash into `[0, range)`.
    #[inline]
    pub fn hash_to_range(&self, key: u64, range: u64) -> u64 {
        assert!(range > 0, "range must be positive");
        // Multiply-shift to avoid the slight modulo bias and the division.
        (((self.hash(key) as u128) * (range as u128)) >> 64) as u64
    }

    /// Sign in `{-1, +1}` derived from the hash parity.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        if self.hash(key) & 1 == 1 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = TabulationHash::new(12);
        let b = TabulationHash::new(12);
        for key in 0..1000u64 {
            assert_eq!(a.hash(key), b.hash(key));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TabulationHash::new(1);
        let b = TabulationHash::new(2);
        let same = (0..256u64).filter(|&k| a.hash(k) == b.hash(k)).count();
        assert!(same < 4);
    }

    #[test]
    fn hash_into_matches_per_key() {
        let h = TabulationHash::new(99);
        let keys: Vec<u64> = (0..257u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .chain([0, 1, u64::MAX, u64::MAX - 1, 0])
            .collect();
        let mut out = vec![0u64; keys.len()];
        h.hash_into(&keys, &mut out);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(out[i], h.hash(key), "mismatch at index {i}, key {key}");
        }
        // Empty slices are a no-op, not a panic.
        h.hash_into(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hash_into_length_mismatch_panics() {
        let h = TabulationHash::new(1);
        let mut out = vec![0u64; 2];
        h.hash_into(&[1, 2, 3], &mut out);
    }

    #[test]
    fn range_hash_in_range() {
        let h = TabulationHash::new(3);
        for range in [1u64, 5, 100, 4096] {
            for key in 0..1000u64 {
                assert!(h.hash_to_range(key, range) < range);
            }
        }
    }

    #[test]
    fn buckets_roughly_balanced() {
        let h = TabulationHash::new(777);
        let range = 16u64;
        let n = 64_000u64;
        let mut counts = vec![0usize; range as usize];
        for key in 0..n {
            counts[h.hash_to_range(key, range) as usize] += 1;
        }
        let expect = n as f64 / range as f64;
        for &c in &counts {
            assert!((c as f64 - expect).abs() < 0.1 * expect);
        }
    }

    #[test]
    fn signs_balanced() {
        let h = TabulationHash::new(2025);
        let sum: i64 = (0..100_000u64).map(|k| h.sign(k)).sum();
        assert!(sum.abs() < 2000);
    }
}
