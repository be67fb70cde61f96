//! # zerolaw — umbrella crate
//!
//! `zerolaw` is a from-scratch Rust reproduction of
//! *"Streaming Space Complexity of Nearly All Functions of One Variable on
//! Frequency Vectors"* (Braverman, Chestnut, Woodruff, Yang — PODS 2016).
//!
//! The workspace is split into focused crates; this umbrella crate re-exports
//! their public APIs so that downstream users (and the examples and
//! integration tests in this repository) can depend on a single crate.
//!
//! * [`hash`] — k-wise independent hashing, sign/bucket hashes, seeded RNG.
//! * [`streams`] — the turnstile stream model, frequency vectors and
//!   workload generators.
//! * [`sketch`] — CountSketch, the AMS F₂ sketch and the exact baseline.
//! * [`gfunc`] — the function class `G`, the slow-jumping / slow-dropping /
//!   predictable analyzers and the zero-one-law classifier.
//! * [`core`] — the g-SUM algorithms (recursive sketch, 1-pass and 2-pass
//!   heavy hitters, the nearly-periodic special case, the DIST counter
//!   algorithm) and the paper's applications.
//! * [`comm`] — communication-problem instances (INDEX, DISJ, DISJ+IND,
//!   ShortLinearCombination) and their stream reductions, used to exercise
//!   the lower-bound side of the zero-one laws.
//! * [`serve`] — the serving layer: a concurrent multi-client TCP server
//!   with merge-on-ingest fan-in, failure policies for partial streams,
//!   durable checkpoint envelopes, and a multi-function estimator registry
//!   answering `EST <function>` for any registered G over one shared
//!   ingest path.
//!
//! ## Quickstart — push-based ingestion
//!
//! Estimators are long-lived [`StreamSink`](prelude::StreamSink) state
//! objects: push updates as they arrive (no materialized stream needed) and
//! query the estimate at any prefix.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! // Approximate Σ g(|v_i|) for g(x) = x^1.5 with a one-pass universal sketch.
//! let g = PowerFunction::new(1.5);
//! let cfg = GSumConfig::with_space_budget(1 << 10, 0.2, 4096, 11);
//! let mut sketch = OnePassGSumSketch::new(g.clone(), &cfg);
//!
//! // A lazy Zipf workload over a universe of 1024 items: updates are pulled
//! // one at a time and pushed straight into the sketch.
//! let mut source = ZipfStreamGenerator::new(StreamConfig::new(1 << 10, 20_000), 1.2, 7);
//! while let Some(update) = source.next_update() {
//!     sketch.update(update);
//! }
//! let est = sketch.estimate();
//!
//! // Ground truth from a materialized copy of the same stream.
//! source.reset();
//! let stream = source.collect_stream();
//! let exact = exact_gsum(&g, &stream.frequency_vector());
//! let rel = (est - exact).abs() / exact.max(1.0);
//! assert!(rel < 0.5, "relative error {rel} too large");
//! ```
//!
//! ### Batched ingestion and hash backends
//!
//! The per-update hot path is tunable on two axes:
//!
//! * **Batching.** [`StreamSink::update_batch`](prelude::StreamSink::update_batch)
//!   is overridden by every linear sketch to *coalesce* duplicate items
//!   exactly in `i64` before touching the counters: a Zipf head item
//!   appearing thousands of times in a batch is hashed once per row instead
//!   of thousands of times, and counters are walked row-major for cache
//!   locality.  The result is bit-for-bit identical to per-update ingestion
//!   (linearity makes coalescing exact), checked by the
//!   `batch_equivalence` property tests.  The batch paths are
//!   **allocation-free in steady state**: every sketch owns a reusable
//!   ingestion scratch (coalesce buffers, per-row column indices, routing
//!   depths) that is working memory only — it is excluded from clones,
//!   merges and checkpoints, so checkpoint bytes are identical whichever
//!   ingestion path filled the sketch.  When batch deltas are small enough
//!   that every partial sum is exactly representable, counter application
//!   runs in `i64` with branchless sign selection — bit-identical to the
//!   `f64` path, but vectorizable (build with `RUSTFLAGS="-C
//!   target-cpu=native"` to let the compiler use wider SIMD lanes).
//! * **Batched hash kernels.** Under the batch paths the hash stage itself
//!   is batch-shaped: [`RowHasher`](prelude::RowHasher) exposes a
//!   `column_sign_batch` kernel that takes a slice of keys and fills
//!   structure-of-arrays column/sign buffers.  The polynomial
//!   backend hoists the row's coefficients out of the key loop and
//!   accumulates each degree-3 dot product lazily in `u128` with a single
//!   reduction; the tabulation backend walks keys in blocks of 16 so table
//!   lookups pipeline.  Both are bit-identical to the per-key calls they
//!   replace (proptested in `tests/batch_equivalence.rs`), so checkpoint
//!   bytes never depend on which path ran.  These kernels are plain
//!   autovectorizable scalar loops — `RUSTFLAGS="-C target-cpu=native"` is
//!   the build floor for the throughput numbers quoted in `ROADMAP.md`.
//! * **Item-outer AMS sign kernels.** The AMS tug-of-war sketch inside the
//!   one-pass heavy hitter evaluates *hundreds* of sign hashes per item, so
//!   its hot loop is shaped differently: the sign bank
//!   ([`SignBank`](prelude::SignBank)) fills a packed `items × counters`
//!   sign matrix once per coalesced batch — key powers amortize across
//!   counters, coefficient loads amortize across items, and an AVX-512
//!   limb-decomposed lowering is dispatched at runtime where the CPU has it
//!   — and the counters then stream their packed bit rows with fused
//!   whole-block ± accumulation.  Every lowering is bit-identical to
//!   per-item evaluation (proptested in `tests/batch_equivalence.rs`), and
//!   the per-update path is literally the block kernel at length 1.
//! * **Hash backend.** Sketch rows draw their bucket and sign hashes from a
//!   pluggable [`HashBackend`](prelude::HashBackend): `Polynomial` (the
//!   provable default — pairwise/4-wise independent polynomials over
//!   `GF(2^61 − 1)`) or `Tabulation` (Pătraşcu–Thorup simple tabulation —
//!   3-wise independent, multiplication-free, measurably faster).  Both use
//!   division-free multiply-shift bucket reduction.  Select it with
//!   `CountSketchConfig::with_backend`, or for the whole estimator stack
//!   with `GSumConfig::with_hash_backend`;
//!   merges refuse sketches built with different backends.
//! * **Sign family.** The AMS sign source has the analogous knob,
//!   [`SignFamily`](prelude::SignFamily): `Polynomial4` (the default —
//!   4-wise independent, exactly the independence the `Var[Z²] ≤ 2F₂²`
//!   variance bound consumes) or `Tabulation` (3-wise independent and
//!   faster; the mean `E[Z²] = F₂` stays exact but the variance constant
//!   becomes heuristic).  Select it with `GSumConfig::with_sign_family`;
//!   checkpoints carry the family tag and merges refuse mismatched
//!   families.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 256, 3)
//!     .with_hash_backend(HashBackend::Tabulation);
//! let mut sketch = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! let batch: Vec<Update> = (0..1000).map(|i| Update::new(i % 17, 1)).collect();
//! sketch.update_batch(&batch); // 17 distinct items hashed, not 1000
//! assert!(sketch.estimate() > 0.0);
//! ```
//!
//! ### Sharded ingestion
//!
//! Every sketch is linear ([`MergeableSketch`](prelude::MergeableSketch)):
//! clones absorb disjoint shards of the traffic on separate threads and merge
//! into exactly the single-threaded state.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 256, 3);
//! let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! let mut source = ZipfStreamGenerator::new(StreamConfig::new(1 << 8, 10_000), 1.2, 5);
//! let sketch = ShardedIngest::new(4)
//!     .ingest(&mut source, &prototype)
//!     .expect("clones always merge");
//! assert!(sketch.estimate() > 0.0);
//! ```
//!
//! ### Checkpoint lifecycle — stop, snapshot, resume
//!
//! A linear sketch's entire state is *seeds + counters + phase*, so every
//! estimator implements [`Checkpoint`](prelude::Checkpoint): `save` writes a
//! compact, versioned little-endian byte string (hash functions as their
//! seeds, counters verbatim, two-pass phase tags and frozen candidate sets
//! explicitly) and `restore` rehydrates it **bit-for-bit** — saving at an
//! arbitrary stream prefix, restoring, and replaying the suffix lands in
//! exactly the state an uninterrupted run reaches.  Malformed bytes
//! (truncation, wrong version, wrong state kind, unknown hash backend) are
//! [`CheckpointError`](prelude::CheckpointError)s, never panics.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 256, 3);
//! let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! let ingest = ShardedIngest::new(2);
//!
//! // Ingest a bounded slice of the stream, then stop and snapshot.
//! let mut source = ZipfStreamGenerator::new(StreamConfig::new(1 << 8, 10_000), 1.2, 5);
//! let (partial, consumed) = ingest
//!     .ingest_limited(&mut source, &prototype, 4_000)
//!     .expect("clones always merge");
//! assert_eq!(consumed, 4_000);
//! let bytes = partial.to_checkpoint_bytes().expect("serialize");
//!
//! // ...later (possibly elsewhere): restore and continue with the rest.
//! let resumed = ingest
//!     .resume(&mut source, &prototype, &mut bytes.as_slice())
//!     .expect("resume");
//! assert!(resumed.estimate() > 0.0);
//! ```
//!
//! ### The sharded two-pass protocol
//!
//! Two-pass estimators are a three-step state machine (pass 1 →
//! `begin_second_pass()` → pass 2, a replay), and sharding the second pass
//! requires every worker to hold the *same* frozen candidate sets.  The
//! [`ShardedTwoPassCoordinator`](prelude::ShardedTwoPassCoordinator)
//! automates the protocol: phase 1 is ordinary sharded ingestion, the
//! transition happens exactly once on the merged state, and the frozen state
//! is redistributed to the phase-2 workers as checkpoint bytes
//! (clone-after-transition — what a multi-machine coordinator broadcasts).
//! The result is bit-identical to a single-threaded two-pass run.
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 128, 3);
//! let stream = ZipfStreamGenerator::new(StreamConfig::new(1 << 8, 8_000), 1.2, 5).generate();
//! let prototype = TwoPassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! let (sketch, frozen_bytes) = ShardedTwoPassCoordinator::new(2)
//!     .run(&prototype, &mut stream.source(), &mut stream.source())
//!     .expect("coordinator run");
//! assert!(sketch.in_second_pass());
//! assert!(!frozen_bytes.is_empty()); // persist to restart phase 2 at will
//! ```
//!
//! ### Wire ingestion — framed streams through the sharded topology
//!
//! Updates arriving from the outside world travel as a **framed wire
//! stream** ([`FrameWriter`](prelude::FrameWriter) /
//! [`FrameReader`](prelude::FrameReader)): a versioned little-endian header,
//! length-prefixed frames of `(item, delta)` batches, and an explicit
//! end-of-stream frame, so truncation is always distinguishable from clean
//! completion and malformed bytes are typed
//! [`WireError`](prelude::WireError)s.  `FrameReader` implements
//! [`UpdateSource`](prelude::UpdateSource), so a socket feeds any sink
//! unchanged — and feeds [`ShardedIngest`](prelude::ShardedIngest), whose
//! caller thread batches the stream into N worker clones over *bounded*
//! channels: when workers lag, the producer blocks (on a socket that
//! propagates to the peer via TCP flow control), and the merged result is
//! bit-identical to single-threaded ingestion.  Every batch is checked
//! against the magnitude promise first, so a hostile frame whose Σ|δ|
//! passes `i64::MAX` is a typed
//! [`IngestError::DeltaOverflow`](prelude::IngestError::DeltaOverflow),
//! never a panic or a wrapped counter.
//! `examples/ingest_server.rs` serves these layers over TCP from a child
//! process, SIGKILLs it mid-stream, reboots it from its last checkpoint
//! and replays from the durable count — landing bit-exactly on the
//! uninterrupted estimate.
//!
//! ```
//! use zerolaw::prelude::*;
//! use zerolaw::streams::wire::encode_updates;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 128, 3);
//! let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//!
//! // Producer side: frame a batch of updates (any Write works — here a Vec,
//! // in production a socket).
//! let updates: Vec<Update> = (0..4_000).map(|i| Update::new(i % 97, 1)).collect();
//! let bytes = encode_updates(1 << 8, &updates).expect("encode");
//!
//! // Consumer side: decode + shard the stream into worker clones, then
//! // require the explicit end-of-stream frame.
//! let mut reader = FrameReader::new(bytes.as_slice()).expect("wire header");
//! let sketch = ShardedIngest::new(2)
//!     .with_batch_size(512)
//!     .with_channel_depth(4)
//!     .ingest(&mut reader, &prototype)
//!     .expect("no batch's Σ|δ| passes i64::MAX");
//! assert_eq!(reader.updates_read(), 4_000);
//! reader.finish().expect("stream ended cleanly");
//!
//! // Bit-identical to the single-threaded run.
//! let mut single = prototype.clone();
//! for &u in &updates {
//!     single.update(u);
//! }
//! assert_eq!(sketch.estimate().to_bits(), single.estimate().to_bits());
//! ```
//!
//! ### The serving layer — reactor-multiplexed multi-client merge-on-ingest
//!
//! [`GsumServer`](prelude::GsumServer) is the long-lived process the wire,
//! pipeline and checkpoint layers feed: a single reactor thread multiplexes
//! every TCP connection over a non-blocking listener, decoding framed
//! streams incrementally ([`FrameDecoder`](prelude::FrameDecoder) resumes
//! mid-frame across readiness events), and a **bounded pool of fold
//! workers** absorbs decoded batches into per-worker shard sketches that a
//! [`MergeCoordinator`](prelude::MergeCoordinator) folds into the serving
//! state on query, checkpoint cadence, or stream completion.  Linearity
//! makes the sharded fan-in exact: any number of concurrent clients, folded
//! in any order, land in a state **bit-identical** to a single-threaded
//! replay of the concatenated streams (`examples/multi_client.rs` proves
//! this over real sockets; `tests/serve_reactor.rs` proptests it under
//! load shedding).  The knobs live on [`ServeConfig`](prelude::ServeConfig):
//! `with_workers` sizes the fold pool, `with_max_connections` caps
//! concurrent connections — excess clients get a typed `BUSY <max>` refusal
//! to retry on, never a silently growing accept queue — and
//! `with_observer` routes serving-loop events
//! ([`ServeEvent`](prelude::ServeEvent): sheds, timeouts, stream failures,
//! failed snapshot writes) into telemetry instead of stderr.  A stream that
//! dies mid-frame is resolved by the configured
//! [`ServePolicy`](prelude::ServePolicy) — discarded whole, or merged up to
//! its decoded prefix — and the serving state snapshots to a
//! [`CheckpointEnvelope`](prelude::CheckpointEnvelope) (state bytes bound to
//! the durable update count, published atomically by a publisher thread)
//! every K merged updates.
//! Serving throughput numbers live in `BENCH_serve.json` (see
//! `crates/bench/benches/bench_serve.rs`): connections/sec, concurrent
//! ingest throughput, and p99 `EST`/`COUNT` latency — including, since
//! serve schema v2, per-function `EST <function>` latency rows against a
//! served registry.
//!
//! The coordinator is transport-free, so fan-in does not require sockets —
//! or even one machine: parked checkpoint bytes fold too.
//!
//! ```
//! use zerolaw::prelude::*;
//! use zerolaw::streams::wire::encode_updates;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 128, 3);
//! let prototype = OnePassGSumSketch::new(PowerFunction::new(2.0), &cfg);
//! let coordinator = MergeCoordinator::new(prototype.clone(), 0, 256, None).expect("config");
//!
//! // Two "clients", each a framed stream (in production: sockets) decoded
//! // into its own clone of the prototype, then folded.
//! let a: Vec<Update> = (0..900).map(|i| Update::new(i % 97, 1)).collect();
//! let b: Vec<Update> = (0..700).map(|i| Update::new(i % 31, -1)).collect();
//! for stream in [&a, &b] {
//!     let bytes = encode_updates(1 << 8, stream).expect("encode");
//!     let mut frames = FrameReader::new(bytes.as_slice()).expect("header");
//!     let mut client = prototype.clone();
//!     let decoded = frames.feed(&mut client) as u64;
//!     frames.finish().expect("stream ended cleanly");
//!     coordinator.fold(&client, decoded).expect("fold");
//! }
//!
//! // Bit-identical to one sketch absorbing both streams back to back.
//! let mut single = prototype.clone();
//! for &u in a.iter().chain(&b) {
//!     single.update(u);
//! }
//! assert_eq!(
//!     coordinator.snapshot().expect("snapshot").state_bytes(),
//!     single.to_checkpoint_bytes().expect("save").as_slice()
//! );
//! ```
//!
//! ### Multi-statistic serving — one ingest stream, many estimators
//!
//! The one-pass sketch's ingest path never evaluates its G function: the
//! absorbed state is pure frequency structure, and `g` enters only at
//! query time (per-level covers) and checkpoint time (encoded
//! parameters).  [`SketchRegistry`](prelude::SketchRegistry) exploits
//! that to turn one server into a multi-statistic analytics service:
//! register any number of named G functions
//! ([`DynG`](prelude::DynG)-erased, so the set is chosen at runtime),
//! ingest the stream **once**, and answer every registered function at
//! any prefix.  Estimators registered with an identical
//! [`GSumConfig`](prelude::GSumConfig) (dimensions, backend, *and* seed —
//! the substrate key) share a single CountSketch/heavy-hitter substrate,
//! so ingest cost scales with distinct configurations, never with
//! registered functions.  The registry implements the full
//! [`ServableSketch`](prelude::ServableSketch) contract — a
//! [`GsumServer`](prelude::GsumServer) serves it unchanged, answering
//! `EST` (the default function), `EST <function>` (any registered name;
//! unknown names get a typed `ERR` without closing the connection) and
//! `FUNCS` (the registered names), and checkpoints it as one versioned
//! composite.  Per-function answers and per-function checkpoint bytes
//! are **bit-identical** to a single-function sketch of the same
//! configuration replaying the same stream (`tests/serve_registry.rs`
//! proptests this over real sockets under both hash backends and both
//! failure policies; `examples/multi_client.rs` demonstrates it).
//!
//! ```
//! use zerolaw::prelude::*;
//!
//! let cfg = GSumConfig::with_space_budget(1 << 8, 0.2, 128, 3);
//! let mut registry = SketchRegistry::new();
//! registry.register(PowerFunction::new(2.0), &cfg).expect("register");
//! registry.register(CappedLinear::new(100), &cfg).expect("register");
//! registry.register(PolylogFunction::new(2.0), &cfg).expect("register");
//! assert_eq!(registry.substrate_count(), 1); // one shared ingest substrate
//!
//! // Ingest once; every registered function answers at any prefix.
//! let updates: Vec<Update> = (0..2_000).map(|i| Update::new(i % 97, 1)).collect();
//! registry.update_batch(&updates);
//! assert_eq!(registry.function_names()[0], "x^2"); // bare-EST default
//! for name in registry.function_names() {
//!     assert!(registry.estimate_for(&name).is_some());
//! }
//!
//! // Bit-identical to a single-function sketch replaying the same stream.
//! let mut single =
//!     OnePassGSumSketch::with_seed(DynG::new(CappedLinear::new(100)), &cfg, cfg.seed);
//! single.update_batch(&updates);
//! assert_eq!(
//!     registry.estimate_for("min(x, 100)").map(f64::to_bits),
//!     Some(single.estimate().to_bits())
//! );
//! assert_eq!(
//!     registry.checkpoint_for("min(x, 100)").expect("registered").expect("save"),
//!     single.to_checkpoint_bytes().expect("save")
//! );
//! ```

pub use gsum_comm as comm;
pub use gsum_core as core;
pub use gsum_gfunc as gfunc;
pub use gsum_hash as hash;
pub use gsum_serve as serve;
pub use gsum_sketch as sketch;
pub use gsum_streams as streams;

/// A convenience prelude re-exporting the most commonly used types.
pub mod prelude {
    pub use gsum_comm::{
        DisjIndInstance, DisjInstance, DistInstance, IndexInstance, SketchDistinguisher,
    };
    pub use gsum_core::{
        exact_gsum, DistCounter, GSumConfig, GSumEstimator, NearlyPeriodicGSum, OnePassGSum,
        OnePassGSumSketch, RecursiveSketch, TwoPassGSum, TwoPassGSumSketch, DEFAULT_HINT_CAP,
    };
    pub use gsum_gfunc::{
        classify::{OnePassVerdict, TractabilityReport, TwoPassVerdict},
        decode_function,
        library::{
            CappedLinear, GnpFunction, OscillatingQuadratic, PoissonMixtureNll, PolylogFunction,
            PowerFunction, SpamDiscountUtility,
        },
        properties::PropertyConfig,
        registry::FunctionRegistry,
        DynFunction, DynG, FunctionCodec, GFunction,
    };
    pub use gsum_hash::{HashBackend, RowHasher, SignBank, SignFamily, SignHashBank, TabSignBank};
    pub use gsum_serve::{
        protocol, CheckpointEnvelope, Command, GsumServer, MergeCoordinator, ProtocolError,
        RegistryError, Response, ServableSketch, ServeConfig, ServeConfigError, ServeError,
        ServeEvent, ServeObserver, ServePolicy, ServeStats, ServeSummary, SketchRegistry,
    };
    pub use gsum_sketch::{
        AmsF2Sketch, CountSketch, CountSketchConfig, ExactFrequencies, FrequencySketch,
    };
    pub use gsum_streams::{
        coalesce_updates, Checkpoint, CheckpointError, FrameDecoder, FrameReader, FrameWriter,
        FrequencyVector, IngestConfigError, IngestError, IterSource, MergeError, MergeableSketch,
        ParkedState, PlantedStreamGenerator, ShardedIngest, ShardedTwoPassCoordinator,
        StreamConfig, StreamGenerator, StreamSink, TurnstileStream, TwoPhaseSketch,
        UniformStreamGenerator, Update, UpdateSource, WireError, WireProgress, ZipfStreamGenerator,
    };
}
