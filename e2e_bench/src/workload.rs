//! The three workloads and the inputs each one sends, all derived from the
//! workload seed.
//!
//! Every run is **fixed work**: the number of streams and closed-loop
//! queries is a function of `--seconds` (sized so the timed work takes
//! about that long on a 2-core host; set-ups and checks come on top) and
//! never of how fast the server happens to be,
//! so the final state — and with it `state_bytes` and `rel_err_max` — is
//! the same on every run with the same seed and seconds.  Only the
//! open-loop `EST`s of `mixed` run for as long as its streams take; a
//! query never changes the state.
//!
//! Inputs are a **pool** of distinct framed streams cut from one Zipf
//! stream (so every stream shares the same popular items), pre-encoded to
//! wire bytes before any timing starts.  A workload sends pool streams by
//! index; the final frequency vector is the pool weighted by how often
//! each stream was sent.

use crate::serving::{function_names, SKETCH_SEED, ZIPF_EXPONENT};
use crate::stats::samples_needed;
use gsum_hash::Xoshiro256;
use gsum_streams::wire::encode_updates;
use gsum_streams::Update;

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Write path only: two closed-loop connections of long streams.
    Ingest,
    /// Read path only: `EST` round-robin over a restored, saturated state.
    Query,
    /// Short streams and open-loop cold `EST`s contending.
    Mixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Query, Workload::Mixed];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Query => "query",
            Workload::Mixed => "mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Timed-phase streams per second of `--seconds` on `ingest`.
const INGEST_STREAMS_PER_S: f64 = 30.0;
/// Timed-phase `EST`s per second of `--seconds` on `query`.
const QUERY_ESTS_PER_S: f64 = 10.0;
/// Streams `query` sends to its side set-ups' servers, over the whole run.
const QUERY_SIDE_STREAMS: usize = 300;
/// Timed-phase streams per second of `--seconds` on `mixed`.
const MIXED_STREAMS_PER_S: f64 = 650.0;
/// Consecutive segments the timed phase is cut into.  One set-up precedes
/// the timed phase and serves it; one more, on a server of its own, follows
/// each segment, so `setup_s` (the median of all of them) samples the whole
/// run rather than its first seconds.
pub const SEGMENTS: usize = 6;
/// Set-ups per run.
pub const SETUPS: usize = SEGMENTS + 1;
/// The open-loop `EST` rate on `mixed`.
pub const MIXED_EST_RATE: f64 = 25.0;

/// Every stream, query and count one run performs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The sketch seed the server (and every replay) builds with — part of
    /// the server's fixed configuration, not of the traffic.
    pub sketch_seed: u64,
    /// Domain size.
    pub domain: u64,
    /// The distinct generated streams.
    pub pool: Vec<Vec<Update>>,
    /// `pool[i]` framed for the wire.
    pub encoded: Vec<Vec<u8>>,
    /// `query` only: streams sent on one connection, to a server of their
    /// own, to build the envelope the setups restore.
    pub prep: Vec<usize>,
    /// `query` only: streams sent after each side set-up is timed, to that
    /// set-up's server (split evenly over the segments).  They are where a
    /// workload without timed streams gets its stream samples; they never
    /// reach the served state.
    pub side_streams: Vec<usize>,
    /// Streams each setup sends during warm-up, per stream connection.
    pub warmup: Vec<Vec<usize>>,
    /// `EST` rounds (one per function) each setup sends during warm-up.
    pub warmup_est_rounds: usize,
    /// Timed-phase streams, per stream connection.
    pub timed: Vec<Vec<usize>>,
    /// `query` only: timed-phase closed-loop `EST`s (round-robin over the
    /// functions).
    pub timed_ests: usize,
    /// `mixed` only: the rate of the open-loop `EST`s sent while the timed
    /// streams are in flight.  They stop when the streams end, so every one
    /// of them contends with ingest however fast ingest runs.
    pub est_rate: Option<f64>,
    /// Closed-loop `EST`s (round-robin over the functions) on the final
    /// state, after the timed phase and outside it.  Only a workload
    /// without timed queries sends them: they are where its `est_ms`
    /// samples come from, and each must equal the replay's bits.
    pub final_ests: usize,
}

impl Plan {
    /// The plan for `workload` at `seed`, sized for `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Self {
        let s = seconds.max(1) as f64;
        // Every timing with a reported p90 gets enough samples to resolve it,
        // and `EST` timings their p10 too.
        let p90_samples = samples_needed(90);
        let est_samples = p90_samples.max(samples_needed(10));
        let (domain, stream_len, pool_len) = match workload {
            Workload::Ingest => (1u64 << 16, 1usize << 17, 16usize),
            Workload::Query => (1 << 16, 1 << 16, 32),
            Workload::Mixed => (1 << 12, 4096, 64),
        };
        let pool = generate_pool(domain, stream_len, pool_len, seed);
        let encoded = pool
            .iter()
            .map(|u| encode_updates(domain, u).expect("generated items lie in the domain"))
            .collect();
        let cycle = |count: usize, offset: usize| -> Vec<usize> {
            (0..count).map(|k| (k + offset) % pool_len).collect()
        };
        let mut plan = Plan {
            workload,
            seed,
            sketch_seed: SKETCH_SEED,
            domain,
            pool,
            encoded,
            prep: Vec::new(),
            side_streams: Vec::new(),
            warmup: Vec::new(),
            warmup_est_rounds: 0,
            timed: Vec::new(),
            timed_ests: 0,
            est_rate: None,
            final_ests: 0,
        };
        match workload {
            Workload::Ingest => {
                let n = ((s * INGEST_STREAMS_PER_S).round() as usize).max(p90_samples);
                let all = cycle(n, 0);
                plan.warmup = vec![vec![0], vec![1]];
                plan.timed = vec![
                    all.iter().step_by(2).copied().collect(),
                    all.iter().skip(1).step_by(2).copied().collect(),
                ];
                plan.final_ests = est_samples.next_multiple_of(3);
            }
            Workload::Query => {
                plan.prep = cycle((3 * pool_len).max(p90_samples), 0);
                // Enough that the stream p90 has 30 samples beyond it.
                plan.side_streams = cycle(QUERY_SIDE_STREAMS, 0);
                plan.warmup_est_rounds = 1;
                let per_fn = (s * QUERY_ESTS_PER_S / 3.0).ceil() as usize;
                plan.timed_ests = (3 * per_fn).max(est_samples).next_multiple_of(3);
            }
            Workload::Mixed => {
                plan.warmup = vec![cycle(8, 0)];
                plan.warmup_est_rounds = 1;
                let n = ((s * MIXED_STREAMS_PER_S).round() as usize).max(p90_samples);
                plan.timed = vec![cycle(n, 8)];
                plan.est_rate = Some(MIXED_EST_RATE);
            }
        }
        plan
    }

    /// How many times each pool stream is part of the final served state:
    /// the prep streams, the warm-up of the set-up that serves the timed
    /// phase, and the timed phase.
    pub fn multiplicities(&self) -> Vec<i64> {
        let mut times = vec![0i64; self.pool.len()];
        let sent = self
            .prep
            .iter()
            .chain(self.warmup.iter().flatten())
            .chain(self.timed.iter().flatten());
        for &i in sent {
            times[i] += 1;
        }
        times
    }

    /// Total updates in the final served state.
    pub fn total_updates(&self) -> u64 {
        self.multiplicities()
            .iter()
            .zip(&self.pool)
            .map(|(&t, s)| t as u64 * s.len() as u64)
            .sum()
    }

    /// Function name of the `k`-th `EST` in a round-robin.
    pub fn est_name(k: usize) -> String {
        let names = function_names();
        names[k % names.len()].clone()
    }
}

/// Which items are popular is a property of the served population, not
/// of one run: ranks map to items through one fixed permutation, and the
/// workload seed draws the traffic from that distribution.
const POPULARITY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// `count` streams of `len` unit insertions, consecutive slices of one
/// Zipf(`ZIPF_EXPONENT`) stream drawn with `seed`.
fn generate_pool(domain: u64, len: usize, count: usize, seed: u64) -> Vec<Vec<Update>> {
    let n = usize::try_from(domain).expect("domain fits in memory");
    let mut cdf: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_EXPONENT)).collect();
    let mut acc = 0.0;
    for w in cdf.iter_mut() {
        acc += *w;
        *w = acc;
    }
    for w in cdf.iter_mut() {
        *w /= acc;
    }
    let mut shuffle = Xoshiro256::new(POPULARITY_SEED);
    let mut rank_to_item: Vec<u64> = (0..domain).collect();
    for i in (1..n).rev() {
        let j = shuffle.next_below(i as u64 + 1) as usize;
        rank_to_item.swap(i, j);
    }
    let mut rng = Xoshiro256::new(seed);
    (0..count)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let u = rng.next_f64();
                    let rank = cdf.partition_point(|&c| c < u).min(n - 1);
                    Update::insert(rank_to_item[rank])
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_seed_and_seconds() {
        let a = Plan::new(Workload::Mixed, 9, 2);
        let b = Plan::new(Workload::Mixed, 9, 2);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.timed, b.timed);
        assert_eq!(a.encoded, b.encoded);
        let c = Plan::new(Workload::Mixed, 10, 2);
        assert_ne!(a.pool, c.pool);
    }

    #[test]
    fn multiplicities_count_prep_last_warmup_and_timed() {
        let p = Plan::new(Workload::Mixed, 1, 1);
        let sent: i64 = p.multiplicities().iter().sum();
        assert_eq!(sent as usize, 8 + p.timed[0].len());
        let q = Plan::new(Workload::Query, 1, 1);
        // 100 prep streams (a p90 needs 100 samples) cycle a pool of 32;
        // the side streams never reach the served state.
        let mut times = vec![3; q.pool.len()];
        times[..4].fill(4);
        assert_eq!(q.multiplicities(), times);
        assert_eq!(q.total_updates(), 100 << 16);
        assert_eq!(q.side_streams.len(), 300);
        assert!(q.timed_ests >= 100 && q.timed_ests.is_multiple_of(3));
    }

    #[test]
    fn only_ingest_queries_its_final_state_and_enough_for_a_p90() {
        let i = Plan::new(Workload::Ingest, 1, 1);
        assert!(i.final_ests >= 100 && i.final_ests.is_multiple_of(3));
        assert_eq!((i.timed_ests, i.est_rate), (0, None));
        for w in [Workload::Query, Workload::Mixed] {
            assert_eq!(Plan::new(w, 1, 1).final_ests, 0);
        }
    }
}
