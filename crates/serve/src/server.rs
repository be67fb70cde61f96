//! The concurrent TCP serving loop.
//!
//! [`GsumServer`] is the serving front-end over the workspace's linear
//! sketches.  Since PR 7 it runs on a **reactor + bounded worker pool**
//! (the private `reactor` module — previously each connection got its
//! own thread): one readiness loop owns the non-blocking listener and every
//! connection, decoding framed streams incrementally and answering point
//! queries, while a fixed pool of fold workers absorbs decoded batches
//! into per-worker shard sketches that fold into the published serving
//! state on query, checkpoint cadence, or stream completion.  Concurrency
//! is now a knob ([`ServeConfig::with_workers`]) instead of a function of
//! client count, and connections past [`ServeConfig::with_max_connections`]
//! are shed with a typed [`Response::Busy`](crate::Response::Busy) refusal
//! instead of queueing unboundedly.

use crate::checkpoint_envelope::CheckpointEnvelope;
use crate::coordinator::MergeCoordinator;
use crate::coordinator::ServeStats;
use crate::error::ServeError;
use crate::observer::{default_observer, ServeEvent, ServeObserver};
use crate::policy::ServePolicy;
use crate::reactor;
use crate::ServableSketch;
use gsum_streams::ShardedIngest;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration for a [`GsumServer`].
#[derive(Clone)]
pub struct ServeConfig {
    policy: ServePolicy,
    checkpoint_every: usize,
    pipeline: ShardedIngest,
    client_read_timeout: Option<std::time::Duration>,
    workers: usize,
    max_connections: usize,
    observer: ServeObserver,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("policy", &self.policy)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("pipeline", &self.pipeline)
            .field("client_read_timeout", &self.client_read_timeout)
            .field("workers", &self.workers)
            .field("max_connections", &self.max_connections)
            .finish_non_exhaustive() // the observer callback is not Debug
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeConfig {
    /// The default configuration: [`ServePolicy::DiscardPartial`], a
    /// snapshot every 512 merged updates, the default [`ShardedIngest`]
    /// batch size and channel depth, a 30-second client read timeout, 2
    /// fold workers, a 256-connection cap.
    pub fn new() -> Self {
        Self {
            policy: ServePolicy::default(),
            checkpoint_every: 512,
            pipeline: ShardedIngest::new(2),
            client_read_timeout: Some(std::time::Duration::from_secs(30)),
            workers: 2,
            max_connections: 256,
            observer: default_observer(),
        }
    }

    /// Choose the failure policy for partially-delivered streams.
    pub fn with_policy(mut self, policy: ServePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Snapshot cadence, in updates: a [`CheckpointEnvelope`] is made due
    /// once at least this many updates have merged since the last one, and
    /// the server's publisher thread writes it.  The envelope on disk can
    /// therefore trail the durable count an `OK` acknowledged by the one
    /// snapshot in flight.  Under [`ServePolicy::MergeCompleted`] it is
    /// also the fold trigger: a fold worker absorbs everything queued for
    /// its shard, then folds the shard into the serving state once it holds
    /// at least this many unfolded updates (as well as on a query or at a
    /// stream's end), so durable counts are in general not multiples of it.
    ///
    /// # Panics
    /// Panics if `every == 0`; use
    /// [`try_with_checkpoint_every`](Self::try_with_checkpoint_every) for a
    /// fallible builder.
    pub fn with_checkpoint_every(self, every: usize) -> Self {
        self.try_with_checkpoint_every(every)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `every == 0`.
    pub fn try_with_checkpoint_every(mut self, every: usize) -> Result<Self, ServeError> {
        if every == 0 {
            return Err(crate::error::ServeConfigError::ZeroCheckpointEvery.into());
        }
        self.checkpoint_every = every;
        Ok(self)
    }

    /// The reactor reads two values from this topology: its
    /// [`batch_size`](ShardedIngest::batch_size) is the dispatch granularity
    /// (decoded updates per worker message) and its
    /// [`channel_depth`](ShardedIngest::channel_depth) is each fold worker's
    /// queue bound.  Its `shards()` is ignored;
    /// [`with_workers`](Self::with_workers) sizes the fold pool.
    pub fn with_pipeline(mut self, pipeline: ShardedIngest) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Size of the fold-worker pool: how many threads absorb decoded
    /// batches concurrently.  Connections are routed to workers round-robin
    /// and stick to one worker for their lifetime.  Worth raising toward
    /// the core count on multi-core ingest-heavy hosts; the default of 2
    /// keeps a decode/fold overlap even on small machines.
    ///
    /// # Panics
    /// Panics if `workers == 0`; use
    /// [`try_with_workers`](Self::try_with_workers) for a fallible builder.
    pub fn with_workers(self, workers: usize) -> Self {
        self.try_with_workers(workers)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `workers == 0`.
    pub fn try_with_workers(mut self, workers: usize) -> Result<Self, ServeError> {
        if workers == 0 {
            return Err(crate::error::ServeConfigError::ZeroWorkers.into());
        }
        self.workers = workers;
        Ok(self)
    }

    /// Load-shedding cap: connections accepted while this many are already
    /// being served receive a typed `BUSY <max>` refusal and are closed —
    /// a signal the client can retry on, instead of an unbounded accept
    /// queue hiding the overload.
    ///
    /// # Panics
    /// Panics if `max == 0`; use
    /// [`try_with_max_connections`](Self::try_with_max_connections) for a
    /// fallible builder.
    pub fn with_max_connections(self, max: usize) -> Self {
        self.try_with_max_connections(max)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible builder: rejects `max == 0`.
    pub fn try_with_max_connections(mut self, max: usize) -> Result<Self, ServeError> {
        if max == 0 {
            return Err(crate::error::ServeConfigError::ZeroMaxConnections.into());
        }
        self.max_connections = max;
        Ok(self)
    }

    /// Route serving-loop events ([`ServeEvent`]) through `observer`
    /// instead of the default stderr printer.  The callback runs on the
    /// reactor thread, and on the snapshot publisher thread for
    /// [`ServeEvent::SnapshotFailed`]: count, forward, return — never block.
    pub fn with_observer(mut self, observer: impl Fn(&ServeEvent) + Send + Sync + 'static) -> Self {
        self.observer = Arc::new(observer);
        self
    }

    /// How long a connection may sit idle (no bytes arriving) before the
    /// server gives up on it.  The timeout is what keeps one stalled client
    /// from pinning a connection slot forever — and, since a clean shutdown
    /// drains in-flight streams, from wedging `QUIT` indefinitely.  `None`
    /// disables it (a stalled client then holds its slot until the peer
    /// closes; use only on trusted networks).  The timeout bounds *idle*
    /// time, not stream length: a slow stream that keeps trickling bytes is
    /// never cut off, and server-side backpressure blocks the *client's*
    /// writes, not the server's reads.
    pub fn with_client_read_timeout(mut self, timeout: Option<std::time::Duration>) -> Self {
        self.client_read_timeout = timeout;
        self
    }

    /// The configured failure policy.
    pub fn policy(&self) -> ServePolicy {
        self.policy
    }

    /// The configured snapshot cadence.
    pub fn checkpoint_every(&self) -> usize {
        self.checkpoint_every
    }

    /// The configured ingest topology, whose batch size and channel depth
    /// the reactor reads (see [`with_pipeline`](Self::with_pipeline)).
    pub fn pipeline(&self) -> ShardedIngest {
        self.pipeline
    }

    /// The configured fold-worker pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured load-shedding connection cap.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// The configured idle timeout.
    pub fn client_read_timeout(&self) -> Option<std::time::Duration> {
        self.client_read_timeout
    }

    pub(crate) fn emit(&self, event: &ServeEvent) {
        (self.observer)(event);
    }
}

/// How a [`GsumServer::serve`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Always `true` when [`GsumServer::serve`] returns `Ok`: the only way
    /// out of the serving loop is a `QUIT`-triggered drain, after which
    /// the final snapshot is written (when a checkpoint path is
    /// configured).  A killed process returns nothing; what survives it is
    /// the last published [`CheckpointEnvelope`].
    pub clean_shutdown: bool,
    /// The coordinator's lifetime counters at shutdown.
    pub stats: ServeStats,
}

/// A long-lived serving process: concurrent framed ingest with sharded
/// fan-in, point queries, load shedding, and durable checkpointing.
pub struct GsumServer<S> {
    prototype: S,
    config: ServeConfig,
    coordinator: MergeCoordinator<S>,
}

impl<S: ServableSketch> GsumServer<S> {
    /// Boot a server around `prototype` (the serving sketch, reconstructed
    /// identically on every boot: same function, same configuration, same
    /// seed).  When `checkpoint_path` holds a previous incarnation's
    /// [`CheckpointEnvelope`], the serving state restores from it — a
    /// checkpoint taken by one incarnation resumes seamlessly, and
    /// bit-exactly, in the next.
    ///
    /// A restored state must belong to `prototype`: it is merged into a
    /// clone of the prototype, so a checkpoint written under a different
    /// seed, configuration or function table fails the boot with
    /// [`ServeError::Merge`] instead of failing every later fold.
    pub fn boot(
        prototype: S,
        config: ServeConfig,
        checkpoint_path: Option<PathBuf>,
    ) -> Result<Self, ServeError> {
        let restored = match checkpoint_path.as_deref() {
            Some(path) => CheckpointEnvelope::load(path)?
                .map(|env| Ok::<_, ServeError>((env.restore_state::<S>()?, env.durable_count())))
                .transpose()?,
            None => None,
        };
        if let Some((state, _)) = &restored {
            prototype.clone().merge(state)?;
        }
        let (initial, durable) = restored.unwrap_or_else(|| (prototype.clone(), 0));
        let coordinator =
            MergeCoordinator::new(initial, durable, config.checkpoint_every, checkpoint_path)?;
        Ok(Self {
            prototype,
            config,
            coordinator,
        })
    }

    /// Updates durably merged so far (non-zero after a checkpoint restore).
    pub fn durable_count(&self) -> u64 {
        self.coordinator.durable_count()
    }

    /// The current estimate of the serving state (the default function).
    pub fn estimate(&self) -> f64 {
        self.coordinator.estimate()
    }

    /// The estimate under a named registered function, or `None` for an
    /// unknown name — what an `EST <function>` query answers.
    pub fn estimate_named(&self, name: &str) -> Option<f64> {
        self.coordinator.estimate_named(name)
    }

    /// The function names the serving state answers for, default first —
    /// what a `FUNCS` query lists.
    pub fn function_names(&self) -> Vec<String> {
        self.coordinator.function_names()
    }

    /// The coordinator, for direct (non-TCP) fan-in: folding
    /// [`ParkedState`](gsum_streams::ParkedState) bytes from another
    /// machine, or driving in-memory streams in tests.
    pub fn coordinator(&self) -> &MergeCoordinator<S> {
        &self.coordinator
    }

    /// Accept connections until a `QUIT` command.  A single reactor thread
    /// multiplexes every connection — framed streams decode incrementally
    /// as bytes arrive and their batches fan out to the bounded fold-worker
    /// pool; command lines answer from the published serving state.
    /// In-flight streams run to completion before a clean shutdown returns,
    /// and a final snapshot is published.
    ///
    /// While serving, a snapshot write that fails is reported as a
    /// [`ServeEvent::SnapshotFailed`] and retried at the next due snapshot;
    /// it fails neither a stream nor the server.  A failed final snapshot
    /// is returned as the error.
    pub fn serve(&self, listener: TcpListener) -> Result<ServeSummary, ServeError> {
        reactor::run(&self.prototype, &self.config, &self.coordinator, listener)?;
        self.coordinator.snapshot()?;
        Ok(ServeSummary {
            clean_shutdown: true,
            stats: self.coordinator.stats(),
        })
    }
}
