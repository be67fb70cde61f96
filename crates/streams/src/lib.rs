//! # gsum-streams
//!
//! The data-stream model of the paper (§1.2) and the workload generators used
//! by the experiment suite.
//!
//! A *turnstile stream* of length `m` over the domain `[n]` is a list of
//! updates `(i, δ)` with `i ∈ [n]` and `δ ∈ Z`; the *frequency vector*
//! `V(D) ∈ Z^n` has `v_i = Σ_{j : i_j = i} δ_j`.  The model promises
//! `|v_i| ≤ M` for every prefix.  The paper's algorithms run in the turnstile
//! model; its lower bounds already hold for insertion-only streams (`δ = 1`).
//!
//! This crate provides:
//! * [`Update`] / [`TurnstileStream`] — the stream representation, with
//!   prefix-bound (`M`) tracking and insertion-only detection.
//! * [`StreamSink`] / [`MergeableSketch`] — the push-based ingestion
//!   contract every sketch and estimator state object implements: constant
//!   work per [`StreamSink::update`], queryable at any prefix, and (for
//!   linear sketches) mergeable across shards.
//! * [`UpdateSource`] — the lazy, pull-based dual: workload generators yield
//!   updates one at a time without materializing a `Vec<Update>`.
//! * [`ShardedIngest`] — the one in-process concurrent-ingest topology: the
//!   caller thread batches an [`UpdateSource`] and feeds N worker clones of
//!   a prototype sketch over *bounded* channels of configurable depth (a
//!   fast producer blocks instead of buffering unboundedly), then merges;
//!   the result is bit-identical to single-threaded ingestion.  Every batch
//!   passes [`check_delta_magnitudes`] first, so hostile deltas surface as
//!   [`IngestError::DeltaOverflow`].  Supports checkpointed stop/resume
//!   ([`ShardedIngest::ingest_limited`] / [`ShardedIngest::resume`]);
//!   configuration is validated with typed [`IngestConfigError`]s.
//! * [`wire`] — the framed wire format for update streams in motion:
//!   [`FrameWriter`] / [`FrameReader`] speak a versioned little-endian
//!   magic/length-prefixed framing with an explicit end-of-stream frame;
//!   `FrameReader` implements [`UpdateSource`], so a socket plugs into any
//!   sink unchanged, and malformed bytes are typed [`WireError`]s.
//! * [`checkpoint`] — the versioned snapshot/restore layer: the
//!   [`Checkpoint`] trait, its little-endian binary format, and the
//!   [`CheckpointError`] taxonomy.  A linear sketch's whole state is
//!   seeds + counters + phase, so every estimator in the workspace
//!   serializes to a compact byte string and rehydrates bit-for-bit.
//! * [`ShardedTwoPassCoordinator`] / [`TwoPhaseSketch`] — the sharded
//!   two-phase protocol: pass 1 sharded, one transition on the merged state,
//!   pass-2 workers rehydrated from the frozen state's checkpoint bytes.
//! * [`FrequencyVector`] — the exact frequency vector with the norms and
//!   order statistics the analyses refer to (`F_2`, tail mass, heavy-hitter
//!   queries).
//! * [`generator`] — workload generators: uniform and Zipf item popularity,
//!   planted heavy-hitter streams, frequency-prescribed streams (used by the
//!   communication reductions), and adversarial collision workloads.

pub mod checkpoint;
pub mod coordinator;
pub mod error;
pub mod frequency;
pub mod generator;
pub mod scratch;
pub mod sharded;
pub mod sink;
pub mod source;
pub mod stream;
pub mod update;
pub mod wire;

pub use checkpoint::{Checkpoint, CheckpointError, ParkedState};
pub use coordinator::{ShardedTwoPassCoordinator, TwoPhaseSketch};
pub use error::StreamError;
pub use frequency::FrequencyVector;
pub use generator::{
    AdversarialCollisionGenerator, FrequencyPrescribedGenerator, PlantedStreamGenerator,
    StreamConfig, StreamGenerator, UniformStreamGenerator, ZipfStreamGenerator,
};
pub use scratch::IngestScratch;
pub use sharded::{IngestConfigError, IngestError, ShardedIngest};
pub use sink::{
    check_delta_magnitudes, coalesce_into, coalesce_updates, is_coalesced, MergeError,
    MergeableSketch, StreamSink,
};
pub use source::{IterSource, StreamSource, UpdateSource};
pub use stream::TurnstileStream;
pub use update::Update;
pub use wire::{FrameDecoder, FrameReader, FrameWriter, WireError, WireProgress};
