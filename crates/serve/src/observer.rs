//! Observable serving-loop events.
//!
//! The accept loop and the per-connection state machines emit structured
//! [`ServeEvent`]s through a pluggable callback on
//! [`ServeConfig`](crate::ServeConfig) instead of writing bare lines to
//! stderr: `bench_serve` counts sheds and drops, tests assert on exact
//! event streams, and an operator can route them into real telemetry —
//! nobody scrapes stderr.  The default observer prints accept failures,
//! connection errors and failed snapshot writes to stderr with the
//! `[gsum-serve]` prefix; load sheds, idle timeouts and stream failures
//! are routine events and stay silent.

use std::fmt;
use std::sync::Arc;

/// One observable event from the serving loop.
///
/// Events are diagnostics, not control flow: the server behaves identically
/// whatever the observer does.  The callback runs on the reactor thread
/// (and, for [`SnapshotFailed`](Self::SnapshotFailed), on the snapshot
/// publisher thread), so it should return quickly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEvent {
    /// `accept` itself failed; the listener keeps running.
    AcceptFailed {
        /// The accept error, rendered.
        reason: String,
    },
    /// A connection arrived while the server was at `max_connections`; it
    /// was refused with a typed `BUSY` reply instead of waiting in the
    /// accept queue.
    ConnectionShed {
        /// Connections being served at the moment of the shed.
        active: usize,
        /// The configured connection cap.
        max_connections: usize,
    },
    /// A connection died of an I/O error (read or write failed with
    /// something other than `WouldBlock`).
    ConnectionError {
        /// The I/O error, rendered.
        reason: String,
    },
    /// A connection sat idle past the configured client read timeout and
    /// was dropped.
    ConnectionTimedOut {
        /// How long the connection was idle, in milliseconds.
        idle_ms: u64,
    },
    /// A client stream ended without its end-of-stream frame (truncation,
    /// a decode error, an idle timeout mid-stream).  What the stream keeps
    /// is the [`ServePolicy`](crate::ServePolicy)'s call; this event is the
    /// count-without-scraping-stderr hook.
    StreamFailed {
        /// Why the stream failed, rendered.
        reason: String,
    },
    /// Writing a due snapshot envelope failed.  The previous envelope stays
    /// on disk, the server keeps serving, and the next due snapshot tries
    /// again; only the final snapshot of a clean shutdown fails
    /// [`GsumServer::serve`](crate::GsumServer::serve).
    SnapshotFailed {
        /// The write error, rendered.
        reason: String,
    },
}

impl fmt::Display for ServeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeEvent::AcceptFailed { reason } => write!(f, "accept failed: {reason}"),
            ServeEvent::ConnectionShed {
                active,
                max_connections,
            } => write!(
                f,
                "connection shed: {active} active at the cap of {max_connections}"
            ),
            ServeEvent::ConnectionError { reason } => write!(f, "connection error: {reason}"),
            ServeEvent::ConnectionTimedOut { idle_ms } => {
                write!(f, "connection idle for {idle_ms}ms, dropped")
            }
            ServeEvent::StreamFailed { reason } => write!(f, "stream failed: {reason}"),
            ServeEvent::SnapshotFailed { reason } => write!(f, "snapshot write failed: {reason}"),
        }
    }
}

/// The observer callback type carried by [`ServeConfig`](crate::ServeConfig).
pub type ServeObserver = Arc<dyn Fn(&ServeEvent) + Send + Sync>;

/// The default observer: accept failures, connection errors and failed
/// snapshot writes to stderr, everything else silent.
pub(crate) fn default_observer() -> ServeObserver {
    Arc::new(|event| match event {
        ServeEvent::AcceptFailed { .. }
        | ServeEvent::ConnectionError { .. }
        | ServeEvent::SnapshotFailed { .. } => {
            eprintln!("[gsum-serve] {event}");
        }
        _ => {}
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeEvent::AcceptFailed {
            reason: "fd limit".into()
        }
        .to_string()
        .contains("fd limit"));
        let shed = ServeEvent::ConnectionShed {
            active: 4,
            max_connections: 4,
        };
        assert!(shed.to_string().contains('4'));
        assert!(ServeEvent::ConnectionTimedOut { idle_ms: 250 }
            .to_string()
            .contains("250"));
        assert!(ServeEvent::StreamFailed {
            reason: "truncated".into()
        }
        .to_string()
        .contains("truncated"));
        assert!(ServeEvent::SnapshotFailed {
            reason: "disk full".into()
        }
        .to_string()
        .contains("disk full"));
    }
}
