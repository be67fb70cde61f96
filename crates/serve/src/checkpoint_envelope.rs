//! The durable-offset checkpoint envelope: serving-state bytes plus the
//! update count they are durable through.
//!
//! A serving deployment's checkpoint is more than sketch state — clients
//! need to know *how much* of the traffic the snapshot covers, so that
//! after a crash an offset-replay producer resends exactly the non-durable
//! suffix.  The envelope binds the two together in one atomically-published
//! file:
//!
//! ```text
//! envelope = magic version durable_count state
//! magic    = b"ZLSV"         4 bytes ("ZeroLaw SerVing state")
//! version  = u16 LE          envelope format version (currently 1)
//! durable  = u64 LE          updates merged into the enclosed state
//! state    = bytes           a checkpoint (see gsum_streams::checkpoint)
//! ```
//!
//! [`save_atomic`](CheckpointEnvelope::save_atomic) publishes via a temp
//! file renamed over the target, so a killed process can never leave a
//! torn checkpoint.  It does not `fsync`, so that guarantee does not
//! extend to power loss or an operating-system crash.

use crate::error::ServeError;
use gsum_streams::checkpoint::{read_u16, read_u64, write_u16, write_u64};
use gsum_streams::{Checkpoint, CheckpointError, ParkedState};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// The 4-byte magic prefix of every serving-state envelope.
pub const ENVELOPE_MAGIC: [u8; 4] = *b"ZLSV";

/// The current envelope format version.
pub const ENVELOPE_VERSION: u16 = 1;

/// Serving-state checkpoint bytes bound to the update count they are
/// durable through.
///
/// The in-memory half is exactly a [`ParkedState`] — the mergeable
/// bytes-plus-count handle the checkpoint layer defines — so an envelope
/// loaded from disk can be handed straight to a fan-in coordinator
/// ([`parked`](Self::parked)).  What the envelope adds is the durable
/// *file* discipline: the magic/version header and the atomic publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEnvelope {
    inner: ParkedState,
}

impl CheckpointEnvelope {
    /// Envelope a live sketch: serialize it and record the update count it
    /// has durably absorbed.
    pub fn park<S: Checkpoint>(durable_count: u64, state: &S) -> Result<Self, CheckpointError> {
        Ok(Self {
            inner: ParkedState::park(state, durable_count)?,
        })
    }

    /// Reassemble an envelope from parts that traveled separately.
    pub fn from_parts(durable_count: u64, state: Vec<u8>) -> Self {
        Self {
            inner: ParkedState::from_parts(state, durable_count),
        }
    }

    /// The number of updates merged into the enclosed state — the replay
    /// offset the server acknowledges to offset-replay clients.
    pub fn durable_count(&self) -> u64 {
        self.inner.updates()
    }

    /// The enclosed checkpoint bytes.
    pub fn state_bytes(&self) -> &[u8] {
        self.inner.bytes()
    }

    /// The envelope's payload as the mergeable handle it is: fold it into a
    /// live serving state via
    /// [`MergeCoordinator::fold_parked`](crate::MergeCoordinator::fold_parked).
    pub fn parked(&self) -> &ParkedState {
        &self.inner
    }

    /// Rehydrate the enclosed sketch.
    pub fn restore_state<S: Checkpoint>(&self) -> Result<S, CheckpointError> {
        self.inner.restore()
    }

    /// Serialize the envelope (header, durable count, state bytes).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), CheckpointError> {
        w.write_all(&ENVELOPE_MAGIC).map_err(CheckpointError::Io)?;
        write_u16(w, ENVELOPE_VERSION)?;
        write_u64(w, self.durable_count())?;
        w.write_all(self.state_bytes())
            .map_err(CheckpointError::Io)?;
        Ok(())
    }

    /// Deserialize an envelope, validating magic and version.  The state
    /// bytes run to the end of the input; their own integrity is checked
    /// when [`restore_state`](Self::restore_state) decodes them.
    pub fn read_from(r: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(CheckpointError::Io)?;
        if magic != ENVELOPE_MAGIC {
            return Err(CheckpointError::Corrupt(
                "not a serving-state envelope (bad magic)".into(),
            ));
        }
        let version = read_u16(r)?;
        if version != ENVELOPE_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let durable_count = read_u64(r)?;
        let mut state = Vec::new();
        r.read_to_end(&mut state).map_err(CheckpointError::Io)?;
        Ok(Self::from_parts(durable_count, state))
    }

    /// Publish the envelope to `path`: write a sibling temp file, then
    /// rename it over the target.  If the process is killed mid-write, the
    /// previous checkpoint stays intact, never a torn one.  Neither the
    /// file nor its directory is `fsync`ed, so after power loss or an
    /// operating-system crash the target may hold the previous envelope,
    /// the new one, or a torn or empty file.
    ///
    /// The header and the state bytes go straight into the temp file; the
    /// envelope is never copied into a second buffer first.
    pub fn save_atomic(&self, path: &Path) -> Result<(), ServeError> {
        let tmp = path.with_extension("tmp");
        let mut file = BufWriter::new(File::create(&tmp)?);
        self.write_to(&mut file).map_err(|e| match e {
            CheckpointError::Io(e) => ServeError::Io(e),
            other => ServeError::Checkpoint(other),
        })?;
        file.flush()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load the envelope at `path`.  Returns `Ok(None)` when no checkpoint
    /// exists yet (a fresh boot), an error when one exists but cannot be
    /// decoded — a torn or foreign file must never silently boot fresh and
    /// forget durable state.
    pub fn load(path: &Path) -> Result<Option<Self>, ServeError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(Self::read_from(&mut bytes.as_slice())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "gsum_serve_envelope_{tag}_{}.ckpt",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrips_through_bytes() {
        let env = CheckpointEnvelope::from_parts(12_345, vec![1, 2, 3, 4, 5]);
        let mut bytes = Vec::new();
        env.write_to(&mut bytes).unwrap();
        let back = CheckpointEnvelope::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.durable_count(), 12_345);
        assert_eq!(back.state_bytes(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn bad_magic_version_and_truncation_are_typed_errors() {
        let env = CheckpointEnvelope::from_parts(7, vec![9; 8]);
        let mut bytes = Vec::new();
        env.write_to(&mut bytes).unwrap();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            CheckpointEnvelope::read_from(&mut bad_magic.as_slice()),
            Err(CheckpointError::Corrupt(_))
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            CheckpointEnvelope::read_from(&mut bad_version.as_slice()),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));

        // Truncating inside the fixed header is an I/O (EOF) error; the
        // variable-length state tail legitimately runs to EOF.
        for cut in 0..14 {
            assert!(
                CheckpointEnvelope::read_from(&mut &bytes[..cut]).is_err(),
                "header cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn save_atomic_then_load_roundtrips_and_missing_is_none() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        assert!(CheckpointEnvelope::load(&path).unwrap().is_none());

        let env = CheckpointEnvelope::from_parts(42, vec![0xAB; 32]);
        env.save_atomic(&path).unwrap();
        assert_eq!(CheckpointEnvelope::load(&path).unwrap(), Some(env.clone()));

        // Overwrite is atomic-publish too: the new envelope fully replaces
        // the old one.
        let newer = CheckpointEnvelope::from_parts(43, vec![0xCD; 16]);
        newer.save_atomic(&path).unwrap();
        assert_eq!(CheckpointEnvelope::load(&path).unwrap(), Some(newer));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_file_is_an_error_not_a_fresh_boot() {
        let path = temp_path("torn");
        std::fs::write(&path, b"ZL").unwrap();
        assert!(CheckpointEnvelope::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
