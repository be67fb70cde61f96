//! The merge coordinator: fold completed client states into the long-lived
//! serving state, snapshot every K merged updates.
//!
//! Every worker shard and per-connection accumulator is a
//! clone-with-shared-seeds sketch; linearity guarantees that folding those
//! states into the serving sketch — in *any* order, from any number of
//! threads — lands in exactly the single-threaded state of the
//! concatenated streams, bit for bit (integer-valued `f64` counters add
//! exactly).  The coordinator is the one place that fold happens: it owns
//! the serving sketch behind a lock, applies the durable-count accounting,
//! counts the streams the configured
//! [`ServePolicy`](crate::ServePolicy) kept or dropped, and makes a
//! [`CheckpointEnvelope`] snapshot due every `checkpoint_every` merged
//! updates (atomic temp-file + rename).
//!
//! A due snapshot is parked under the state lock, so it is a consistent
//! cut, and written outside it.  [`fold`](MergeCoordinator::fold) writes it
//! before returning.  While [`GsumServer::serve`](crate::GsumServer::serve)
//! runs, the serving path only parks: one publisher thread writes every
//! envelope, so neither a fold worker nor the reactor waits on the disk,
//! and the envelope on disk can trail the acknowledged durable count by
//! the snapshot in flight.
//!
//! The coordinator is deliberately transport-free: the TCP server's fold
//! workers hand it per-worker shards and per-connection accumulators, the
//! property tests hand it states decoded from in-memory byte slices, and a
//! cross-machine deployment can fold [`ParkedState`] checkpoint bytes that
//! arrived from another process — all three paths converge on the same
//! [`fold`](MergeCoordinator::fold).

use crate::checkpoint_envelope::CheckpointEnvelope;
use crate::error::{ServeConfigError, ServeError};
use crate::ServableSketch;
use gsum_streams::ParkedState;
use std::path::PathBuf;
use std::sync::Mutex;

/// Counters describing a coordinator's lifetime so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Updates durably merged into the serving state.
    pub durable_count: u64,
    /// Client streams folded to clean completion (end-of-stream frame seen).
    pub streams_completed: u64,
    /// Client streams that died before their end-of-stream frame.  Under
    /// [`MergeCompleted`](crate::ServePolicy::MergeCompleted) their decoded
    /// prefix was kept; under
    /// [`DiscardPartial`](crate::ServePolicy::DiscardPartial) they
    /// contributed nothing.
    pub streams_failed: u64,
    /// Updates decoded from clients but dropped by the failure policy.
    pub updates_discarded: u64,
    /// Checkpoint envelopes published to disk.
    pub snapshots_written: u64,
}

struct CoordinatorState<S> {
    sketch: S,
    durable_count: u64,
    since_snapshot: usize,
    stats: ServeStats,
}

/// Tracks the durable count of the last envelope written to disk, so
/// concurrent publishers keep the on-disk checkpoint monotone.
struct SnapshotPublisher {
    last_published: Option<u64>,
}

/// The serving state's single point of mutation — see the module docs.
pub struct MergeCoordinator<S> {
    inner: Mutex<CoordinatorState<S>>,
    publisher: Mutex<SnapshotPublisher>,
    checkpoint_every: usize,
    checkpoint_path: Option<PathBuf>,
}

impl<S: ServableSketch> MergeCoordinator<S> {
    /// Build a coordinator around an initial serving state (a fresh
    /// prototype clone, or a sketch restored from a checkpoint envelope)
    /// already durable through `durable_count` updates.
    ///
    /// `checkpoint_every` is the snapshot cadence: a [`CheckpointEnvelope`]
    /// is published once at least that many updates merged since the last
    /// snapshot.
    pub fn new(
        initial: S,
        durable_count: u64,
        checkpoint_every: usize,
        checkpoint_path: Option<PathBuf>,
    ) -> Result<Self, ServeError> {
        if checkpoint_every == 0 {
            return Err(ServeConfigError::ZeroCheckpointEvery.into());
        }
        Ok(Self {
            inner: Mutex::new(CoordinatorState {
                sketch: initial,
                durable_count,
                since_snapshot: 0,
                stats: ServeStats {
                    durable_count,
                    ..ServeStats::default()
                },
            }),
            publisher: Mutex::new(SnapshotPublisher {
                last_published: None,
            }),
            checkpoint_every,
            checkpoint_path,
        })
    }

    /// The current g-SUM estimate of the serving state (the default
    /// function).
    pub fn estimate(&self) -> f64 {
        self.lock().sketch.estimate()
    }

    /// The estimate under a named registered function, or `None` for an
    /// unknown name (see [`ServableSketch::estimate_named`]).
    pub fn estimate_named(&self, name: &str) -> Option<f64> {
        self.lock().sketch.estimate_named(name)
    }

    /// The function names the serving state answers for, default first.
    pub fn function_names(&self) -> Vec<String> {
        self.lock().sketch.function_names()
    }

    /// Updates durably merged so far.
    pub fn durable_count(&self) -> u64 {
        self.lock().durable_count
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.lock().stats
    }

    /// Fold one client state (which absorbed `updates` updates) into the
    /// serving state, snapshotting if the cadence came due.  Thread-safe:
    /// concurrent folds serialize on the state lock, and linearity makes
    /// their order irrelevant to the resulting bytes.  Returns the durable
    /// update count after the fold.
    pub fn fold(&self, client: &S, updates: u64) -> Result<u64, ServeError> {
        let (durable, due) = self.merge(client, updates)?;
        if let Some(envelope) = due {
            self.publish(&envelope)?;
        }
        Ok(durable)
    }

    /// The in-memory half of [`fold`](Self::fold): merge under the state
    /// lock and return the durable count after the merge, plus the snapshot
    /// envelope if the cadence came due, without writing it.  The serving
    /// path hands the envelope to its publisher thread, which
    /// [`publish`](Self::publish)es it.
    pub(crate) fn merge(
        &self,
        client: &S,
        updates: u64,
    ) -> Result<(u64, Option<CheckpointEnvelope>), ServeError> {
        let mut st = self.lock();
        st.sketch.merge(client)?;
        st.durable_count += updates;
        st.stats.durable_count = st.durable_count;
        st.since_snapshot += updates as usize;
        let durable = st.durable_count;
        let due = if st.since_snapshot >= self.checkpoint_every {
            st.since_snapshot = 0;
            // Serialize under the lock (memory-only) so the envelope is a
            // consistent cut; the disk write happens after the lock drops.
            self.checkpoint_path
                .is_some()
                .then(|| CheckpointEnvelope::park(durable, &st.sketch))
                .transpose()?
        } else {
            None
        };
        Ok((durable, due))
    }

    /// Record a client stream folded to clean completion.  Folds and stream
    /// ends are separate events (a stream's updates may reach the serving
    /// state over several shard folds, mixed with other streams' updates),
    /// so stream bookkeeping is its own step.
    pub fn note_stream_completed(&self) {
        self.lock().stats.streams_completed += 1;
    }

    /// Record a client stream that died before its end-of-stream frame,
    /// with `discarded` decoded-but-dropped updates (zero under
    /// [`MergeCompleted`](crate::ServePolicy::MergeCompleted), which keeps
    /// the decoded prefix).
    pub fn note_stream_failed(&self, discarded: u64) {
        let mut st = self.lock();
        st.stats.streams_failed += 1;
        st.stats.updates_discarded += discarded;
    }

    /// Fold a [`ParkedState`] — client state that traveled as checkpoint
    /// bytes, e.g. from an ingest tier on another machine.  Equivalent to
    /// rehydrating and [`fold`](Self::fold)ing: the bytes *are* a mergeable
    /// handle.  Returns the durable update count after the fold.
    pub fn fold_parked(&self, parked: &ParkedState) -> Result<u64, ServeError> {
        let restored: S = parked.restore()?;
        self.fold(&restored, parked.updates())
    }

    /// Publish a snapshot now, regardless of cadence, and return the
    /// envelope.  Used for the final checkpoint of a clean shutdown and by
    /// tests that compare serving-state bytes.
    pub fn snapshot(&self) -> Result<CheckpointEnvelope, ServeError> {
        let env = {
            let mut st = self.lock();
            st.since_snapshot = 0;
            CheckpointEnvelope::park(st.durable_count, &st.sketch)?
        };
        if self.checkpoint_path.is_some() {
            self.publish(&env)?;
        }
        Ok(env)
    }

    /// The disk half of [`fold`](Self::fold): write an envelope to the
    /// checkpoint path, holding only the publisher lock — folds and queries
    /// proceed during the disk I/O.  Concurrent publishers race benignly:
    /// the durable-count check keeps the on-disk envelope monotone, so a
    /// stale snapshot can never overwrite a newer one.  A failed write
    /// leaves the previous envelope in place.
    pub(crate) fn publish(&self, envelope: &CheckpointEnvelope) -> Result<(), ServeError> {
        let path = self
            .checkpoint_path
            .as_deref()
            .expect("publish is only called with a checkpoint path configured");
        let mut publisher = self
            .publisher
            .lock()
            .expect("snapshot publisher lock poisoned");
        if publisher
            .last_published
            .is_some_and(|last| envelope.durable_count() < last)
        {
            return Ok(());
        }
        envelope.save_atomic(path)?;
        publisher.last_published = Some(envelope.durable_count());
        drop(publisher);
        self.lock().stats.snapshots_written += 1;
        Ok(())
    }

    /// Run `f` while holding the publisher lock, standing in for a
    /// snapshot write that is slow to reach the disk.
    #[cfg(test)]
    pub(crate) fn with_publisher_held<R>(&self, f: impl FnOnce() -> R) -> R {
        let _publishing = self
            .publisher
            .lock()
            .expect("snapshot publisher lock poisoned");
        f()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CoordinatorState<S>> {
        self.inner.lock().expect("serving state lock poisoned")
    }
}
