//! Versioned snapshot/restore for sketch state.
//!
//! The paper's algorithms are linear sketches, and linearity means a sketch's
//! entire state is *seeds + counters + phase*: the hash functions are
//! re-derivable from their seeds, the counters are a linear function of the
//! frequency vector, and the only non-linear bit of state (the two-pass
//! algorithms' frozen candidate sets) is a small explicit map.  This module
//! makes that state explicit: the [`Checkpoint`] trait serializes a sketch to
//! a compact little-endian binary format and rehydrates it bit-for-bit, so
//! that
//!
//! * a long ingestion can be stopped and resumed from bytes on disk
//!   ([`crate::ShardedIngest::resume`]),
//! * frozen two-pass state can be redistributed to phase-2 shard workers
//!   ([`crate::ShardedTwoPassCoordinator`]),
//! * a serving deployment can snapshot its queryable state for fault
//!   tolerance.
//!
//! ## Format
//!
//! Every checkpoint starts with the same header:
//!
//! ```text
//! magic   b"ZLCK"          4 bytes
//! version u16 LE           format version (currently 1)
//! kind    u16 LE           state-kind tag (one per checkpointable type)
//! ```
//!
//! followed by a kind-specific payload.  All integers are little-endian;
//! `f64` counters are serialized via [`f64::to_bits`] so restore is
//! bit-exact; sequences are length-prefixed (`u64` count).  Restoring never
//! panics on malformed input: truncated bytes, an unknown magic/version/kind,
//! an unknown hash-backend tag or inconsistent dimensions all surface as
//! [`CheckpointError`]s.

use crate::sharded::IngestError;
use crate::sink::MergeError;
use std::fmt;
use std::io::{self, Read, Write};

/// The 4-byte magic prefix of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"ZLCK";

/// The current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// State-kind tags, one per checkpointable type.  Append-only: a tag's
/// meaning never changes across versions, and a retired tag is never
/// reused.
pub mod kind {
    /// [`gsum_hash::RowHasher`].
    pub const ROW_HASHER: u16 = 1;
    /// `gsum_sketch::CountSketch`.
    pub const COUNT_SKETCH: u16 = 2;
    // 3 was the retired Count-Min sketch; never reuse it.
    /// `gsum_sketch::AmsF2Sketch`.
    pub const AMS_F2: u16 = 4;
    /// `gsum_sketch::ExactFrequencies`.
    pub const EXACT_FREQUENCIES: u16 = 5;
    // 6 was the retired uniform-sampling baseline; never reuse it.
    /// `gsum_core::DistCounter`.
    pub const DIST_COUNTER: u16 = 7;
    /// `gsum_core::GnpHeavyHitter`.
    pub const GNP_HEAVY_HITTER: u16 = 8;
    /// `gsum_core::RecursiveSketch` (levels carry their own nested kinds).
    pub const RECURSIVE_SKETCH: u16 = 9;
    /// `gsum_core::OnePassHeavyHitter`.
    pub const ONE_PASS_HEAVY_HITTER: u16 = 10;
    /// `gsum_core::TwoPassHeavyHitter`.
    pub const TWO_PASS_HEAVY_HITTER: u16 = 11;
    /// `gsum_core::OnePassGSumSketch`.
    pub const ONE_PASS_GSUM: u16 = 12;
    /// `gsum_core::TwoPassGSumSketch`.
    pub const TWO_PASS_GSUM: u16 = 13;
    /// `gsum_serve::SketchRegistry` (composite: shared substrates plus the
    /// estimator table).
    pub const SKETCH_REGISTRY: u16 = 14;
}

/// Error raised while saving or restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying I/O failure (including truncated input: restoring past
    /// the end of the bytes surfaces as `UnexpectedEof`).
    Io(io::Error),
    /// The bytes do not start with the checkpoint magic.
    BadMagic,
    /// The checkpoint was written with a format version this build does not
    /// understand.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The checkpoint holds a different kind of state than the one being
    /// restored (e.g. CountSketch bytes handed to an AMS sketch).
    WrongKind {
        /// The kind tag the restoring type expected.
        expected: u16,
        /// The kind tag found in the header.
        found: u16,
    },
    /// The payload is structurally invalid: unknown hash-backend tag,
    /// inconsistent dimensions, counter array of the wrong length, ...
    Corrupt(String),
    /// A merge performed while resuming or coordinating failed (seed, shape
    /// or phase mismatch between the checkpoint and the live state).
    Merge(MergeError),
    /// An ingest performed while resuming or coordinating rejected a batch
    /// whose Σ|δ| passes `i64::MAX` (see [`IngestError::DeltaOverflow`]).
    DeltaOverflow {
        /// The item at which the batch's running Σ|δ| passed `i64::MAX`.
        item: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint format version {found} (this build reads {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::WrongKind { expected, found } => {
                write!(
                    f,
                    "checkpoint holds state kind {found}, expected kind {expected}"
                )
            }
            CheckpointError::Corrupt(reason) => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::Merge(e) => write!(f, "checkpoint merge failed: {e}"),
            CheckpointError::DeltaOverflow { item } => write!(
                f,
                "ingest rejected a batch: its delta magnitudes sum past i64::MAX at item {item}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Merge(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<MergeError> for CheckpointError {
    fn from(e: MergeError) -> Self {
        CheckpointError::Merge(e)
    }
}

impl From<IngestError> for CheckpointError {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Merge(e) => CheckpointError::Merge(e),
            IngestError::DeltaOverflow { item } => CheckpointError::DeltaOverflow { item },
        }
    }
}

/// Snapshot/restore of a sketch's state.
///
/// The contract is *bit-exactness*: `save` at an arbitrary stream prefix,
/// `restore`, and replay of the suffix must leave the sketch in exactly the
/// state an uninterrupted run reaches — identical counters, identical
/// estimates, identical merge behaviour.  Every estimator state object in
/// the workspace implements this trait; the property tests in
/// `tests/checkpoint_roundtrip.rs` enforce the contract for each of them
/// under both hash backends.
pub trait Checkpoint: Sized {
    /// Serialize the complete state (header + seeds + counters + phase).
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError>;

    /// Rehydrate a state from bytes written by [`save`](Checkpoint::save).
    /// Hash functions are re-derived from their encoded seeds through the
    /// same code path the fresh constructors use.
    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError>;

    /// Convenience: serialize into a fresh byte vector.
    fn to_checkpoint_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut bytes = Vec::new();
        self.save(&mut bytes)?;
        Ok(bytes)
    }

    /// Convenience: restore from an in-memory byte slice.
    fn from_checkpoint_bytes(mut bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::restore(&mut bytes)
    }
}

// ---------------------------------------------------------------------------
// Little-endian codec helpers shared by every `Checkpoint` implementation.
// ---------------------------------------------------------------------------

/// Write the common header (magic, format version, state kind).
pub fn write_header(w: &mut impl Write, kind: u16) -> Result<(), CheckpointError> {
    w.write_all(&CHECKPOINT_MAGIC)?;
    write_u16(w, CHECKPOINT_VERSION)?;
    write_u16(w, kind)?;
    Ok(())
}

/// Read and validate the common header, expecting the given state kind.
/// Returns the format version (currently always [`CHECKPOINT_VERSION`]).
pub fn read_header(r: &mut impl Read, expected_kind: u16) -> Result<u16, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = read_u16(r)?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let found = read_u16(r)?;
    if found != expected_kind {
        return Err(CheckpointError::WrongKind {
            expected: expected_kind,
            found,
        });
    }
    Ok(version)
}

/// Write a single byte.
pub fn write_u8(w: &mut impl Write, v: u8) -> Result<(), CheckpointError> {
    w.write_all(&[v])?;
    Ok(())
}

/// Read a single byte.
pub fn read_u8(r: &mut impl Read) -> Result<u8, CheckpointError> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

/// Write a `u16` little-endian.
pub fn write_u16(w: &mut impl Write, v: u16) -> Result<(), CheckpointError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Read a `u16` little-endian.
pub fn read_u16(r: &mut impl Read) -> Result<u16, CheckpointError> {
    let mut buf = [0u8; 2];
    r.read_exact(&mut buf)?;
    Ok(u16::from_le_bytes(buf))
}

/// Write a `u64` little-endian.
pub fn write_u64(w: &mut impl Write, v: u64) -> Result<(), CheckpointError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Read a `u64` little-endian.
pub fn read_u64(r: &mut impl Read) -> Result<u64, CheckpointError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Write an `i64` little-endian.
pub fn write_i64(w: &mut impl Write, v: i64) -> Result<(), CheckpointError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Read an `i64` little-endian.
pub fn read_i64(r: &mut impl Read) -> Result<i64, CheckpointError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(i64::from_le_bytes(buf))
}

/// Write an `f64` as its bit pattern (restore is bit-exact, NaNs included).
pub fn write_f64(w: &mut impl Write, v: f64) -> Result<(), CheckpointError> {
    write_u64(w, v.to_bits())
}

/// Read an `f64` from its bit pattern.
pub fn read_f64(r: &mut impl Read) -> Result<f64, CheckpointError> {
    Ok(f64::from_bits(read_u64(r)?))
}

/// Write a `usize` as `u64` (checkpoints are portable across word sizes).
pub fn write_len(w: &mut impl Write, v: usize) -> Result<(), CheckpointError> {
    write_u64(w, v as u64)
}

/// Read a length written by [`write_len`], rejecting values that do not fit
/// the platform's `usize`.
pub fn read_len(r: &mut impl Read) -> Result<usize, CheckpointError> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| CheckpointError::Corrupt(format!("length {v} overflows usize")))
}

/// Read a length and validate it against an expected value derived from the
/// checkpoint's own dimensions (counter arrays, per-row structures, ...).
pub fn read_exact_len(
    r: &mut impl Read,
    expected: usize,
    what: &str,
) -> Result<(), CheckpointError> {
    let len = read_len(r)?;
    if len != expected {
        return Err(CheckpointError::Corrupt(format!(
            "{what}: expected {expected} entries, found {len}"
        )));
    }
    Ok(())
}

/// Write a slice of `f64` counters, length-prefixed.
pub fn write_f64_slice(w: &mut impl Write, values: &[f64]) -> Result<(), CheckpointError> {
    write_len(w, values.len())?;
    for &v in values {
        write_f64(w, v)?;
    }
    Ok(())
}

/// Read a counter array whose length must equal `expected` (derived from the
/// dimensions read earlier — a mismatch means corrupt bytes, not a panic).
pub fn read_f64_counters(
    r: &mut impl Read,
    expected: usize,
    what: &str,
) -> Result<Vec<f64>, CheckpointError> {
    read_exact_len(r, expected, what)?;
    let mut out = Vec::with_capacity(expected.min(1 << 20));
    for _ in 0..expected {
        out.push(read_f64(r)?);
    }
    Ok(out)
}

/// Write a slice of `i64` counters, length-prefixed.
pub fn write_i64_slice(w: &mut impl Write, values: &[i64]) -> Result<(), CheckpointError> {
    write_len(w, values.len())?;
    for &v in values {
        write_i64(w, v)?;
    }
    Ok(())
}

/// Read an `i64` counter array of exactly `expected` entries.
pub fn read_i64_counters(
    r: &mut impl Read,
    expected: usize,
    what: &str,
) -> Result<Vec<i64>, CheckpointError> {
    read_exact_len(r, expected, what)?;
    let mut out = Vec::with_capacity(expected.min(1 << 20));
    for _ in 0..expected {
        out.push(read_i64(r)?);
    }
    Ok(out)
}

/// Write a length-prefixed byte block (e.g. encoded function parameters).
pub fn write_bytes(w: &mut impl Write, bytes: &[u8]) -> Result<(), CheckpointError> {
    write_len(w, bytes.len())?;
    w.write_all(bytes)?;
    Ok(())
}

/// Read a length-prefixed byte block written by [`write_bytes`], rejecting
/// blocks larger than `max` (corrupt lengths must not drive allocation).
pub fn read_bounded_bytes(
    r: &mut impl Read,
    max: usize,
    what: &str,
) -> Result<Vec<u8>, CheckpointError> {
    let len = read_len(r)?;
    if len > max {
        return Err(CheckpointError::Corrupt(format!(
            "{what}: {len}-byte block exceeds the {max}-byte bound"
        )));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Write a hash backend as its stable tag.
pub fn write_backend(
    w: &mut impl Write,
    backend: gsum_hash::HashBackend,
) -> Result<(), CheckpointError> {
    write_u8(w, backend.tag())
}

/// Read a hash backend tag, failing on unknown tags instead of guessing.
pub fn read_backend(r: &mut impl Read) -> Result<gsum_hash::HashBackend, CheckpointError> {
    let tag = read_u8(r)?;
    gsum_hash::HashBackend::from_tag(tag)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown hash-backend tag {tag}")))
}

/// Write an AMS sign family as its stable tag.
pub fn write_sign_family(
    w: &mut impl Write,
    family: gsum_hash::SignFamily,
) -> Result<(), CheckpointError> {
    write_u8(w, family.tag())
}

/// Read a sign-family tag, failing on unknown tags instead of guessing.
pub fn read_sign_family(r: &mut impl Read) -> Result<gsum_hash::SignFamily, CheckpointError> {
    let tag = read_u8(r)?;
    gsum_hash::SignFamily::from_tag(tag)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown sign-family tag {tag}")))
}

/// A parked, mergeable sketch state: checkpoint bytes plus the number of
/// updates the state absorbed.
///
/// Linearity means a sketch serialized at any prefix can later be folded
/// into any live sketch built with the same configuration and seeds — the
/// checkpoint bytes *are* a mergeable handle.  `ParkedState` makes that
/// pattern first-class for fan-in topologies: a serving coordinator parks a
/// completed client's state (possibly received from another machine — the
/// bytes travel), and [`merge_into`](Self::merge_into) folds it into the
/// long-lived serving state without the caller juggling restore, merge and
/// error mapping by hand.  The update count rides along so durable-offset
/// accounting survives the park.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParkedState {
    bytes: Vec<u8>,
    updates: u64,
}

impl ParkedState {
    /// Park a sketch state: serialize it and record how many updates it
    /// absorbed.
    pub fn park<S: Checkpoint>(state: &S, updates: u64) -> Result<Self, CheckpointError> {
        Ok(Self {
            bytes: state.to_checkpoint_bytes()?,
            updates,
        })
    }

    /// Reassemble a parked state from bytes that traveled (a socket, disk).
    pub fn from_parts(bytes: Vec<u8>, updates: u64) -> Self {
        Self { bytes, updates }
    }

    /// The checkpoint bytes of the parked state.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of updates the parked state absorbed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Rehydrate the parked sketch.
    pub fn restore<S: Checkpoint>(&self) -> Result<S, CheckpointError> {
        S::from_checkpoint_bytes(&self.bytes)
    }

    /// Fold the parked state into a live sketch.  Fails with the checkpoint
    /// layer's taxonomy: corrupt bytes surface as their decode error, and a
    /// seed/shape/phase mismatch with the target surfaces as
    /// [`CheckpointError::Merge`].
    pub fn merge_into<S>(&self, target: &mut S) -> Result<(), CheckpointError>
    where
        S: Checkpoint + crate::sink::MergeableSketch,
    {
        let restored: S = self.restore()?;
        target.merge(&restored).map_err(CheckpointError::Merge)
    }
}

/// A [`RowHasher`](gsum_hash::RowHasher) checkpoints as exactly the triple it
/// is reconstructible from: backend tag, column count, seed.  No coefficient
/// or table dump — the state is re-expanded through `RowHasher::new`, the
/// same code path fresh construction uses.
impl Checkpoint for gsum_hash::RowHasher {
    fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        write_header(w, kind::ROW_HASHER)?;
        write_backend(w, self.backend())?;
        write_u64(w, self.columns())?;
        write_u64(w, self.seed())?;
        Ok(())
    }

    fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
        read_header(r, kind::ROW_HASHER)?;
        let backend = read_backend(r)?;
        let columns = read_u64(r)?;
        let seed = read_u64(r)?;
        if columns == 0 {
            return Err(CheckpointError::Corrupt(
                "row hasher with zero columns".into(),
            ));
        }
        Ok(gsum_hash::RowHasher::new(backend, columns, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_hash::{HashBackend, RowHasher};

    /// A frequency-counting sink that checkpoints through the exact-
    /// frequencies codec helpers — just enough state to exercise
    /// `ParkedState` end to end inside this crate.
    #[derive(Debug, Clone, PartialEq)]
    struct TallySink {
        domain: u64,
        counts: Vec<i64>,
    }

    impl TallySink {
        fn new(domain: u64) -> Self {
            Self {
                domain,
                counts: vec![0; domain as usize],
            }
        }
    }

    impl crate::sink::StreamSink for TallySink {
        fn update(&mut self, u: crate::update::Update) {
            self.counts[u.item as usize] += u.delta;
        }
    }

    impl crate::sink::MergeableSketch for TallySink {
        fn merge(&mut self, other: &Self) -> Result<(), crate::sink::MergeError> {
            if self.domain != other.domain {
                return Err(crate::sink::MergeError::new("domain mismatch"));
            }
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
            Ok(())
        }
    }

    impl Checkpoint for TallySink {
        fn save(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
            write_header(w, kind::EXACT_FREQUENCIES)?;
            write_u64(w, self.domain)?;
            write_i64_slice(w, &self.counts)?;
            Ok(())
        }

        fn restore(r: &mut impl Read) -> Result<Self, CheckpointError> {
            read_header(r, kind::EXACT_FREQUENCIES)?;
            let domain = read_u64(r)?;
            let counts = read_i64_counters(r, domain as usize, "tally")?;
            Ok(Self { domain, counts })
        }
    }

    #[test]
    fn parked_state_folds_into_a_live_sketch() {
        use crate::sink::StreamSink;

        let mut client = TallySink::new(8);
        client.update(crate::update::Update::new(3, 5));
        client.update(crate::update::Update::new(7, -2));
        let parked = ParkedState::park(&client, 2).unwrap();
        assert_eq!(parked.updates(), 2);

        // The bytes travel (clone simulates a socket hop), then fold.
        let wired = ParkedState::from_parts(parked.bytes().to_vec(), parked.updates());
        let mut serving = TallySink::new(8);
        serving.update(crate::update::Update::new(3, 1));
        wired.merge_into(&mut serving).unwrap();
        assert_eq!(serving.counts[3], 6);
        assert_eq!(serving.counts[7], -2);

        // Restore alone reproduces the parked sketch exactly.
        let restored: TallySink = parked.restore().unwrap();
        assert_eq!(restored, client);
    }

    #[test]
    fn parked_state_surfaces_decode_and_merge_failures() {
        let parked = ParkedState::park(&TallySink::new(4), 0).unwrap();

        // Corrupt bytes: the decode error comes through.
        let corrupt = ParkedState::from_parts(parked.bytes()[..3].to_vec(), 0);
        let mut target = TallySink::new(4);
        assert!(corrupt.merge_into(&mut target).is_err());

        // Shape mismatch: surfaces as CheckpointError::Merge.
        let mut wrong_domain = TallySink::new(16);
        assert!(matches!(
            parked.merge_into(&mut wrong_domain),
            Err(CheckpointError::Merge(_))
        ));
    }

    #[test]
    fn row_hasher_roundtrip_both_backends() {
        for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
            let original = RowHasher::new(backend, 64, 1234);
            let bytes = original.to_checkpoint_bytes().unwrap();
            let restored = RowHasher::from_checkpoint_bytes(&bytes).unwrap();
            assert_eq!(original, restored);
            for key in 0..512u64 {
                assert_eq!(original.column_sign(key), restored.column_sign(key));
            }
        }
    }

    #[test]
    fn truncated_bytes_error_instead_of_panicking() {
        let bytes = RowHasher::new(HashBackend::Polynomial, 8, 7)
            .to_checkpoint_bytes()
            .unwrap();
        for cut in 0..bytes.len() {
            let err = RowHasher::from_checkpoint_bytes(&bytes[..cut]);
            assert!(err.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn bad_magic_and_version_and_kind_are_rejected() {
        let good = RowHasher::new(HashBackend::Polynomial, 8, 7)
            .to_checkpoint_bytes()
            .unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            RowHasher::from_checkpoint_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            RowHasher::from_checkpoint_bytes(&bad_version),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));

        let mut bad_kind = good.clone();
        bad_kind[6] = 0xEE;
        assert!(matches!(
            RowHasher::from_checkpoint_bytes(&bad_kind),
            Err(CheckpointError::WrongKind { .. })
        ));
    }

    #[test]
    fn unknown_backend_tag_is_corrupt() {
        let mut bytes = RowHasher::new(HashBackend::Tabulation, 8, 7)
            .to_checkpoint_bytes()
            .unwrap();
        bytes[8] = 99; // the backend tag byte, straight after the header
        assert!(matches!(
            RowHasher::from_checkpoint_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn codec_roundtrips() {
        let mut buf = Vec::new();
        write_u8(&mut buf, 250).unwrap();
        write_u16(&mut buf, 65_000).unwrap();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        write_i64(&mut buf, i64::MIN).unwrap();
        write_f64(&mut buf, -0.0).unwrap();
        write_f64_slice(&mut buf, &[1.5, f64::NAN]).unwrap();
        write_i64_slice(&mut buf, &[-3, 9]).unwrap();

        let r = &mut buf.as_slice();
        assert_eq!(read_u8(r).unwrap(), 250);
        assert_eq!(read_u16(r).unwrap(), 65_000);
        assert_eq!(read_u64(r).unwrap(), u64::MAX - 1);
        assert_eq!(read_i64(r).unwrap(), i64::MIN);
        assert_eq!(read_f64(r).unwrap().to_bits(), (-0.0f64).to_bits());
        let floats = read_f64_counters(r, 2, "floats").unwrap();
        assert_eq!(floats[0], 1.5);
        assert!(floats[1].is_nan());
        assert_eq!(read_i64_counters(r, 2, "ints").unwrap(), vec![-3, 9]);
    }

    #[test]
    fn length_mismatches_are_corrupt() {
        let mut buf = Vec::new();
        write_f64_slice(&mut buf, &[1.0, 2.0]).unwrap();
        let err = read_f64_counters(&mut buf.as_slice(), 3, "counters");
        assert!(matches!(err, Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(CheckpointError::WrongKind {
            expected: 2,
            found: 3
        }
        .to_string()
        .contains('3'));
        assert!(CheckpointError::Corrupt("bad tag".into())
            .to_string()
            .contains("bad tag"));
        assert!(
            CheckpointError::Merge(crate::MergeError::new("seed mismatch"))
                .to_string()
                .contains("seed mismatch")
        );
    }
}
