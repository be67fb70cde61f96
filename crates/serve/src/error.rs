//! The serving layer's error taxonomy.

use gsum_streams::{CheckpointError, MergeError};
use std::fmt;
use std::io;

/// A rejected serving configuration value, mirroring the ingestion layer's
/// [`IngestConfigError`](gsum_streams::IngestConfigError) style: validated,
/// typed, never asserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `checkpoint_every == 0`: the serving state must become durable in
    /// positive-size slices.
    ZeroCheckpointEvery,
    /// `workers == 0`: the reactor needs at least one fold worker.
    ZeroWorkers,
    /// `max_connections == 0`: a server that sheds every connection serves
    /// nobody.
    ZeroMaxConnections,
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::ZeroCheckpointEvery => {
                write!(f, "checkpoint interval must be positive")
            }
            ServeConfigError::ZeroWorkers => {
                write!(f, "worker pool size must be positive")
            }
            ServeConfigError::ZeroMaxConnections => {
                write!(f, "connection cap must be positive")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Error raised by the serving layer.
///
/// Stream-level failures (a client that dies mid-frame, a crafted overflow
/// batch) are *not* errors at this level — they are routine events the
/// configured [`ServePolicy`](crate::ServePolicy) absorbs, answered with an
/// `ERR` reply on the stream's connection and counted in
/// [`ServeStats`](crate::ServeStats).  `ServeError` is for
/// faults of the serving process itself: a socket that cannot be accepted,
/// a checkpoint that cannot be written, a merge that should be impossible
/// for clones of one prototype.
#[derive(Debug)]
pub enum ServeError {
    /// An underlying I/O failure (socket accept/read/write, checkpoint
    /// file I/O).
    Io(io::Error),
    /// Folding a client state into the serving state failed, or a restored
    /// checkpoint does not belong to the boot prototype: the states were
    /// not built from the same prototype (seeds/shape/phase mismatch).
    Merge(MergeError),
    /// Saving or restoring the serving-state checkpoint envelope failed.
    Checkpoint(CheckpointError),
    /// A serving configuration value was rejected.
    Config(ServeConfigError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Merge(e) => write!(f, "serve merge error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "serve checkpoint error: {e}"),
            ServeError::Config(e) => write!(f, "serve configuration error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Merge(e) => Some(e),
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Config(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<MergeError> for ServeError {
    fn from(e: MergeError) -> Self {
        ServeError::Merge(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<ServeConfigError> for ServeError {
    fn from(e: ServeConfigError) -> Self {
        ServeError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeConfigError::ZeroCheckpointEvery
            .to_string()
            .contains("positive"));
        assert!(ServeConfigError::ZeroWorkers.to_string().contains("worker"));
        assert!(ServeConfigError::ZeroMaxConnections
            .to_string()
            .contains("connection cap"));
        assert!(ServeError::Config(ServeConfigError::ZeroCheckpointEvery)
            .to_string()
            .contains("configuration"));
        assert!(ServeError::Merge(MergeError::new("seed mismatch"))
            .to_string()
            .contains("seed mismatch"));
        let io = ServeError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "gone"));
        assert!(io.to_string().contains("gone"));
    }
}
