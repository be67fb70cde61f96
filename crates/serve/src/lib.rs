//! # gsum-serve
//!
//! The serving layer: a concurrent multi-client TCP front-end over the
//! workspace's linear sketches.
//!
//! The paper's sketches are **linear**, so independently-built per-client
//! states merge into exactly the single-threaded state — the property
//! [`ShardedIngest`](gsum_streams::ShardedIngest) (including over framed
//! wire streams) and the checkpoint layer both exploit.  This crate turns
//! that property into a serving topology (the standard mergeable-sketch
//! fan-in, cf. the universal-sketch line of work): a single **reactor**
//! thread multiplexes every connection over a non-blocking listener,
//! decoding framed streams incrementally through the resumable
//! [`FrameDecoder`](gsum_streams::FrameDecoder), and fans decoded batches
//! out to a **bounded pool of fold workers** whose per-worker shard
//! sketches fold into the long-lived serving state on query, checkpoint
//! cadence, or stream completion — in any order, with a **bit-identical**
//! result (integer-valued `f64` counters add exactly;
//! `tests/serve_fan_in.rs` proptests the fan-in permutation invariance,
//! `tests/serve_reactor.rs` proptests sharded serving ≡ single-threaded
//! concat replay — load shedding included — and
//! `examples/multi_client.rs` demonstrates it over real concurrent
//! sockets).
//!
//! The pieces:
//!
//! * [`GsumServer`] / [`ServeConfig`] — the TCP serving loop: reactor-
//!   multiplexed framed ingest over a bounded worker pool,
//!   `EST`/`EST <function>`/`FUNCS`/`COUNT`/`QUIT` point queries, `BUSY`
//!   load shedding past the connection cap, clean shutdown with a final
//!   snapshot.
//! * [`ServableSketch`] — the served-state contract: everything fan-in
//!   needs (push, merge, checkpoint — never a G evaluation) plus named
//!   estimate queries.
//! * [`SketchRegistry`] — many named G functions served from one ingest
//!   path: estimators registered with an identical configuration share
//!   one substrate sketch, every decoded batch is routed to each
//!   substrate exactly once, and per-function estimates and checkpoint
//!   bytes are bit-identical to single-function replays
//!   (`tests/serve_registry.rs` proptests this over real sockets).
//! * [`ServeEvent`] / [`ServeConfig::with_observer`] — structured
//!   serving-loop telemetry (sheds, timeouts, stream failures) through a
//!   pluggable callback instead of stderr.
//! * [`MergeCoordinator`] — the transport-free fan-in core: fold live
//!   states, fold [`ParkedState`](gsum_streams::ParkedState) checkpoint
//!   bytes from another machine, fold states decoded from in-memory
//!   streams in tests.
//! * [`ServePolicy`] — what a stream that dies mid-frame keeps: nothing
//!   ([`DiscardPartial`](ServePolicy::DiscardPartial), the no-double-count
//!   default) or every update of its completed frames
//!   ([`MergeCompleted`](ServePolicy::MergeCompleted), the offset-replay
//!   contract).
//! * [`CheckpointEnvelope`] — serving-state bytes bound to the durable
//!   update count, published atomically (temp-file + rename).
//! * [`protocol`] — the text query grammar, parsed and formatted in one
//!   unit-tested place.
//! * [`ServeError`] — the typed error taxonomy; stream-level failures are
//!   policy events answered `ERR` and counted in [`ServeStats`], never
//!   `Err`s.

pub mod checkpoint_envelope;
pub mod coordinator;
pub mod error;
pub mod observer;
pub mod policy;
pub mod protocol;
mod reactor;
pub mod registry;
pub mod server;

pub use checkpoint_envelope::{CheckpointEnvelope, ENVELOPE_MAGIC, ENVELOPE_VERSION};
pub use coordinator::{MergeCoordinator, ServeStats};
pub use error::{ServeConfigError, ServeError};
pub use observer::{ServeEvent, ServeObserver};
pub use policy::ServePolicy;
pub use protocol::{Command, ProtocolError, Response};
pub use registry::{RegistryError, SketchRegistry};
pub use server::{GsumServer, ServeConfig, ServeSummary};

use gsum_core::OnePassGSumSketch;
use gsum_gfunc::{FunctionCodec, GFunction};
use gsum_streams::{Checkpoint, MergeableSketch, StreamSink};

/// A servable state: push-ingestible, linear (mergeable across per-client
/// clones), checkpointable (for durable snapshots and parked-state fan-in),
/// and answering estimate queries for one or more named G functions.
///
/// The supertraits are everything the fan-in machinery — the reactor's
/// shards, the [`MergeCoordinator`]'s folds, the [`CheckpointEnvelope`]
/// snapshots — needs; none of it ever evaluates a G function.
///
/// Implemented for [`OnePassGSumSketch`] (one function) and
/// [`SketchRegistry`] (any number of registered functions over shared
/// substrates) out of the box; any long-lived estimator state satisfying
/// the bounds can implement it and be served unchanged.
pub trait ServableSketch: StreamSink + MergeableSketch + Checkpoint + Clone + Send + Sync {
    /// The domain size the state serves; incoming wire streams must
    /// declare exactly this domain (validated at header decode).
    fn domain(&self) -> u64;

    /// The default estimate of the absorbed prefix (the first — for a
    /// single-function sketch, the only — registered function).
    fn estimate(&self) -> f64;

    /// The estimate under the named function, or `None` if no estimator
    /// with that name is registered.  The default answers exactly the
    /// names in [`function_names`](Self::function_names) with the default
    /// estimate — correct for any single-function state.
    fn estimate_named(&self, name: &str) -> Option<f64> {
        self.function_names()
            .iter()
            .any(|n| n == name)
            .then(|| self.estimate())
    }

    /// The names this state answers [`estimate_named`](Self::estimate_named)
    /// for, default first.  This is what the `FUNCS` protocol reply lists.
    fn function_names(&self) -> Vec<String>;
}

impl<G> ServableSketch for OnePassGSumSketch<G>
where
    G: GFunction + Clone + FunctionCodec + Send + Sync,
{
    fn domain(&self) -> u64 {
        OnePassGSumSketch::domain(self)
    }

    fn estimate(&self) -> f64 {
        OnePassGSumSketch::estimate(self)
    }

    fn function_names(&self) -> Vec<String> {
        vec![self.function().name()]
    }
}
