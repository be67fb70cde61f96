//! # gsum-core
//!
//! The paper's algorithms: everything needed to go from a turnstile stream to
//! a `(1 ± ε)`-approximation of `g(V) = Σ_i g(|v_i|)`.
//!
//! ## Architecture (mirrors §3.1 and §4 of the paper)
//!
//! Everything is *push-based*: estimator state objects implement
//! [`StreamSink`] (`update` / `update_batch`), absorb live updates in
//! constant work per update, and answer [`estimate`](OnePassGSumSketch::estimate)
//! queries at any prefix.  Linear states also implement [`MergeableSketch`],
//! so N ingest workers can each feed a clone and merge
//! ([`ShardedIngest`]).
//!
//! ```text
//!  UpdateSource (lazy generators, live traffic, stream replay)
//!       │ update(i, δ)                          ... shard 1..N ─┐
//!       ▼                                                       ▼
//!  ┌───────────────────────────────────────────────┐   ┌────────────────┐
//!  │ OnePassGSumSketch / TwoPassGSumSketch /       │   │ clone sketches │
//!  │ NearlyPeriodicGSum::sketch()                  │◀──│ …then merge()  │
//!  │                                               │   └────────────────┘
//!  │  RecursiveSketch: routes the update to every  │
//!  │  level j whose substream samples the item     │   L = O(log n) levels,
//!  │  (inclusion probability 2^-j, nested)         │   Theorem 13
//!  │        │                                      │
//!  │        ▼                                      │
//!  │  per-level heavy-hitter sketches              │   Algorithm 1 or 2,
//!  │  (CountSketch + AMS + pruning, or g_np)       │   or Proposition 54
//!  └───────────────────┬───────────────────────────┘
//!                      │ cover() → (g, λ, ε)-covers   (query time, any prefix)
//!                      ▼
//!              ĝ ≈ Σ g(|v_i|)
//! ```
//!
//! * [`heavy_hitters`] — the `(g, λ, ε, δ)`-heavy-hitter algorithms:
//!   [`OnePassHeavyHitter`] (Algorithm 2: CountSketch + AMS + predictability
//!   pruning) and [`TwoPassHeavyHitter`] (Algorithm 1: CountSketch candidates,
//!   exact second-pass tabulation), plus the [`HeavyHitterSketch`] trait and
//!   the [`GCover`] type (Definition 12).
//! * [`recursive_sketch`] — the recursive estimator combining per-level
//!   covers into a g-SUM estimate; a [`StreamSink`] and (over mergeable
//!   levels) a [`MergeableSketch`].
//! * [`gsum`] — the long-lived sketch states [`OnePassGSumSketch`] /
//!   [`TwoPassGSumSketch`] plus the batch wrappers [`OnePassGSum`] /
//!   [`TwoPassGSum`], [`exact_gsum`] and the [`GSumEstimator`] trait.
//! * [`np_algorithm`] — the bespoke 1-pass algorithm for the nearly periodic
//!   function `g_np` (Proposition 54).
//! * [`dist_counter`] — the `O(n/q²)`-space algorithm for the
//!   ShortLinearCombination problem (Proposition 49); push-based and
//!   mergeable like the rest.
//! * [`moments`] — frequency-moment (`F_k`) convenience wrappers.
//! * [`apps`] — the §1.1 applications: approximate MLE over a parameter grid,
//!   utility aggregates, sketchable distances and the higher-order encoding.

pub mod apps;
pub mod config;
pub mod dist_counter;
pub mod error;
pub mod gsum;
pub mod heavy_hitters;
pub mod hints;
pub mod moments;
pub mod np_algorithm;
pub mod recursive_sketch;

pub use config::{GSumConfig, DEFAULT_HINT_CAP};
pub use dist_counter::{DistCounter, DistVerdict};
pub use error::CoreError;
pub use gsum::{
    exact_gsum, GSumEstimator, OnePassGSum, OnePassGSumSketch, TwoPassGSum, TwoPassGSumSketch,
};
pub use heavy_hitters::{
    GCover, HeavyHitterSketch, OnePassHeavyHitter, OnePassHeavyHitterConfig, TwoPassHeavyHitter,
    TwoPassHeavyHitterConfig,
};
pub use hints::ReverseHints;
pub use moments::MomentEstimator;
pub use np_algorithm::{GnpHeavyHitter, NearlyPeriodicGSum};
pub use recursive_sketch::{RecursiveSketch, Substream};

// The push-based ingestion contract and the snapshot/restore layer,
// re-exported so estimator users need only this crate.
pub use gsum_streams::{
    Checkpoint, CheckpointError, MergeError, MergeableSketch, ShardedIngest,
    ShardedTwoPassCoordinator, StreamSink, TwoPhaseSketch, UpdateSource,
};
