//! # gsum-bench
//!
//! The experiment harness: every experiment E1–E10 is a function in this
//! crate returning an [`ExperimentTable`], listed with its default
//! parameters in [`EXPERIMENTS`]; the `exp_all` binary prints the selected
//! tables as Markdown (all of them by default, and its output is the
//! experiment record), and the benches under `benches/`
//! measure the throughput of the underlying data structures.  The
//! throughput benches' JSON artifacts are written and gated by
//! [`artifact`].
//!
//! The paper itself has no measured tables or figures (it is a theory
//! paper), so the experiment suite is designed to check each *claim*:
//! classification of the worked examples, accuracy/space behaviour of the
//! upper-bound algorithms, failure of bounded-space sketches on the
//! lower-bound reduction streams, the nearly periodic special case, the
//! ShortLinearCombination threshold, and the §1.1 applications.

pub mod artifact;
pub mod experiments;
pub mod json;
pub mod table;

pub use experiments::*;
pub use table::ExperimentTable;
