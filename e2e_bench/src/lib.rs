//! # gsum-e2e-bench
//!
//! The repository's end-to-end benchmark.  A load generator (this
//! process) drives a `GsumServer` running in a process of its own over
//! loopback, on three workloads — `ingest`, `query`, `mixed` — and checks
//! every answer against an in-process replay.  A separate traced run
//! replays the same inputs in-process with spans around each layer's calls
//! and reports the per-layer ledger.
//!
//! Modules:
//!
//! * [`workload`] — the workloads and their seed-derived, fixed-work plans.
//! * [`serving`] — the served system's fixed configuration.
//! * [`server`] — the server launcher and the load generator's process handle.
//! * [`client`] — one loopback connection.
//! * [`run`] — one untraced run: set-ups, timed phase, correctness gate.
//! * [`ledger`] — the traced in-process replay and per-layer metrics.
//! * [`report`] — metric definitions, the result line, provenance.
//! * [`stats`], [`trace`], [`procfs`], [`exact`], [`schedule`] — helpers.

pub mod client;
pub mod exact;
pub mod ledger;
pub mod procfs;
pub mod report;
pub mod run;
pub mod schedule;
pub mod server;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod workload;
