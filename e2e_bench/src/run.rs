//! One run of one workload over loopback sockets: set-up, timed phase,
//! correctness gate.  Nothing here records spans — the end-to-end numbers
//! never pay for tracing.

use crate::client::{Conn, OpFailure};
use crate::exact::{relative_error, DenseFrequencies};
use crate::procfs;
use crate::schedule::{ms_between, OpenLoop, Timed};
use crate::server::ServerProcess;
use crate::serving::{build_registry, functions};
use crate::workload::{Plan, Workload, SEGMENTS, SETUPS};
use gsum_serve::SketchRegistry;
use gsum_streams::{MergeableSketch, StreamSink};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Failure bookkeeping shared by every connection of a run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    first_failures: Mutex<Vec<String>>,
    /// `OK <n>` acks whose count is short of this connection's own sent
    /// updates (yet never below its previous ack, never above what all
    /// connections sent).  The server can produce these when a query's
    /// shard flush races a stream's end: the query takes the shard, the
    /// stream's own flush then finds it empty and acks the durable count
    /// before the query's fold lands.  The final `COUNT` and `EST` bits
    /// still have to match exactly, so these are not failures: they are
    /// counted in every run's provenance and logged.
    pub stale_acks: AtomicU64,
}

impl Tally {
    /// Count one operation; record it as failed when `error` is `Some`.
    pub fn op(&self, what: &str, error: Option<String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = error {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut first = self.first_failures.lock().expect("tally lock poisoned");
            if first.len() < 8 {
                first.push(format!("{what}: {e}"));
            }
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// The first few failure descriptions.
    pub fn first_failures(&self) -> Vec<String> {
        self.first_failures
            .lock()
            .expect("tally lock poisoned")
            .clone()
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations that failed (`ERR`, `BUSY`, timeouts, bad acks, bit
    /// mismatches).
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Acks that lagged a racing query flush (see `Tally::stale_acks`).
    pub stale_acks: u64,
    /// Seconds from spawn to warmed up, one per set-up.
    pub setup_s: Vec<f64>,
    /// Per-stream latency (first byte written → `OK` read), ms.
    pub stream_ms: Vec<f64>,
    /// Updates acknowledged in the phase `stream_ms` comes from.
    pub stream_updates: u64,
    /// Wall time of that phase, seconds.
    pub stream_wall_s: f64,
    /// Per-`EST` latency, ms (from the due time in an open loop).
    pub est_ms: Vec<f64>,
    /// How late the generator issued each request, ms.
    pub lag_ms: Vec<f64>,
    /// Server `VmHWM` just before `QUIT`, MiB.
    pub peak_rss_mib: f64,
    /// Server user + system CPU seconds during the timed phase.
    pub server_cpu_s: f64,
    /// Size of the final checkpoint envelope, bytes.
    pub state_bytes: u64,
    /// `(tag, relative error)` of the final estimate, per function.
    pub rel_err: Vec<(&'static str, f64)>,
    /// The final checkpoint envelope the server wrote at `QUIT`.
    pub final_envelope: PathBuf,
    /// The in-process single-threaded replay of the final state.
    pub replay: SketchRegistry,
}

/// The expected final state: every pool stream ingested once
/// single-threaded, then folded into a fresh registry once per time it was
/// sent — exactly the server's linear fan-in, without sockets or threads.
pub fn replay_final_state(plan: &Plan) -> SketchRegistry {
    let prototype = build_registry(plan.domain, plan.sketch_seed);
    let mut state = prototype.clone();
    for (stream, &times) in plan.pool.iter().zip(&plan.multiplicities()) {
        if times == 0 {
            continue;
        }
        let mut part = prototype.clone();
        part.update_batch(stream);
        for _ in 0..times {
            state
                .merge(&part)
                .expect("clones of one prototype always merge");
        }
    }
    state
}

/// The exact frequency vector of the final state.
pub fn exact_frequencies(plan: &Plan) -> DenseFrequencies {
    let mut f = DenseFrequencies::new(plan.domain);
    for (stream, &times) in plan.pool.iter().zip(&plan.multiplicities()) {
        f.add(stream, times);
    }
    f
}

/// One connection's closed loop of streams.  `base` is the durable count
/// before the phase; `started` counts updates every connection has begun
/// sending, so each `OK <n>` must satisfy
/// `base + mine ≤ n ≤ base + started`.
struct StreamLoop<'a> {
    plan: &'a Plan,
    tally: &'a Tally,
    started: &'a AtomicU64,
    base: u64,
}

#[derive(Default)]
struct LoopResult {
    stream_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    acked: u64,
    end: Option<Instant>,
}

impl StreamLoop<'_> {
    fn run(&self, conn: &mut Conn, streams: &[usize]) -> LoopResult {
        let mut out = LoopResult::default();
        let mut mine = 0u64;
        let mut last_ack = self.base;
        let mut prev_done: Option<Instant> = None;
        for (k, &idx) in streams.iter().enumerate() {
            let len = self.plan.pool[idx].len() as u64;
            self.started.fetch_add(len, Ordering::SeqCst);
            let t0 = Instant::now();
            if let Some(p) = prev_done {
                out.lag_ms.push(ms_between(p, t0));
            }
            let reply = conn.send_stream(&self.plan.encoded[idx]);
            let done = Instant::now();
            prev_done = Some(done);
            mine += len;
            let error = match reply {
                Ok(n) => {
                    let hi = self.base + self.started.load(Ordering::SeqCst);
                    let lo = self.base + mine;
                    if n < lo && n >= last_ack {
                        // See `Tally::stale_acks`.
                        self.tally.stale_acks.fetch_add(1, Ordering::Relaxed);
                        last_ack = n;
                        None
                    } else {
                        last_ack = n;
                        (n < lo || n > hi).then(|| format!("OK {n} outside [{lo}, {hi}]"))
                    }
                }
                Err(e) => Some(e.to_string()),
            };
            let failed = error.is_some();
            self.tally.op("stream", error);
            if failed {
                // The connection's framing is gone; the rest of its streams
                // count as failed too.
                for _ in k + 1..streams.len() {
                    self.tally.op("stream", Some("connection abandoned".into()));
                }
                break;
            }
            out.stream_ms.push(ms_between(t0, done));
            out.acked += len;
        }
        out.end = prev_done;
        out
    }
}

/// Send `rounds` rounds of one `EST` per function, closed loop, untimed.
/// When `expect` is given, every reply must equal its bits.
fn est_rounds(conn: &mut Conn, rounds: usize, expect: Option<&[u64]>, tally: &Tally) -> Vec<u64> {
    let names = crate::serving::function_names();
    let mut last = vec![0u64; names.len()];
    for _ in 0..rounds {
        for (i, name) in names.iter().enumerate() {
            let error = match conn.est(name) {
                Ok(bits) => {
                    last[i] = bits;
                    expect.and_then(|e| {
                        (e[i] != bits).then(|| {
                            format!(
                                "EST {name} = {} but the replay gives {}",
                                f64::from_bits(bits),
                                f64::from_bits(e[i])
                            )
                        })
                    })
                }
                Err(e) => Some(e.to_string()),
            };
            tally.op("est", error);
        }
    }
    last
}

fn fail_all(tally: &Tally, what: &str, n: usize, e: &OpFailure) {
    for _ in 0..n {
        tally.op(what, Some(e.to_string()));
    }
}

/// A warmed-up server and the connections the timed phase uses.
struct Served {
    server: ServerProcess,
    conns: Vec<Conn>,
    est_conn: Conn,
    /// The durable count once warm-up is in.
    durable: u64,
}

impl Served {
    fn quit(self) -> Result<(), String> {
        drop(self.conns);
        drop(self.est_conn);
        self.server.quit()
    }
}

/// One set-up, timed: spawn → boot (restoring a copy of `prep_envelope`,
/// when the workload has one) → warm-up.  `ckpt` is the new server's
/// checkpoint file.
fn set_up(
    plan: &Plan,
    tally: &Tally,
    expected_bits: &[u64],
    prep_envelope: Option<&Path>,
    ckpt: &Path,
) -> Result<(Served, f64), String> {
    if let Some(prep) = prep_envelope {
        std::fs::copy(prep, ckpt).map_err(|e| format!("copy envelope: {e}"))?;
    }
    let t0 = Instant::now();
    let server = ServerProcess::spawn(plan.domain, plan.sketch_seed, ckpt)?;
    let base = server.durable_at_boot();
    let mut conns = Vec::new();
    for _ in 0..plan.warmup.len().max(plan.timed.len()) {
        conns.push(Conn::connect(server.addr()).map_err(|e| e.to_string())?);
    }
    let mut est_conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let started = AtomicU64::new(0);
    let lp = StreamLoop {
        plan,
        tally,
        started: &started,
        base,
    };
    let mut warm_updates = 0;
    for (conn, streams) in conns.iter_mut().zip(&plan.warmup) {
        warm_updates += lp.run(conn, streams).acked;
    }
    let expect = (plan.workload == Workload::Query).then_some(expected_bits);
    est_rounds(&mut est_conn, plan.warmup_est_rounds, expect, tally);
    let secs = t0.elapsed().as_secs_f64();
    let served = Served {
        server,
        conns,
        est_conn,
        durable: base + warm_updates,
    };
    Ok((served, secs))
}

/// Run `plan` once over loopback.  `dir` is a scratch directory inside the
/// checkout for checkpoint envelopes.
pub fn run(plan: &Plan, dir: &Path) -> Result<Outcome, String> {
    let tally = Tally::default();
    let replay = replay_final_state(plan);
    let expected_bits: Vec<u64> = functions()
        .iter()
        .map(|(_, g)| {
            replay
                .estimate_for(&gsum_gfunc::GFunction::name(g))
                .expect("registered")
                .to_bits()
        })
        .collect();

    let mut stream_ms = Vec::new();
    let mut est_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let mut stream_updates = 0u64;
    let mut stream_wall_s = 0.0;

    // `query` only: stream the prep streams once to a server of their own;
    // its final envelope is what every set-up restores.
    let prep_path = dir.join("prep.ckpt");
    let prep_envelope = (!plan.prep.is_empty()).then_some(prep_path.as_path());
    if let Some(prep) = prep_envelope {
        let server = ServerProcess::spawn(plan.domain, plan.sketch_seed, prep)?;
        let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
        let started = AtomicU64::new(0);
        let lp = StreamLoop {
            plan,
            tally: &tally,
            started: &started,
            base: 0,
        };
        lp.run(&mut conn, &plan.prep);
        drop(conn);
        server.quit()?;
    }

    // The first set-up's server serves the timed phase.
    let final_envelope = dir.join("serve.ckpt");
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (served, secs) = set_up(plan, &tally, &expected_bits, prep_envelope, &final_envelope)?;
    setup_s.push(secs);
    let Served {
        server,
        mut conns,
        mut est_conn,
        durable,
    } = served;

    // Timed phase, in `SEGMENTS` consecutive segments.  After each one, one
    // more set-up is timed on a server of its own.
    let pid = server.pid();
    let cpu0 = procfs::cpu_seconds(pid).ok_or("read server /proc stat")?;
    let mut cpu_s = 0.0;
    let mut seg_base = durable;
    for seg in 0..SEGMENTS {
        // Acks of earlier segments are all in: each segment's bounds start
        // from the durable count they reached.
        let started = AtomicU64::new(0);
        let lp = StreamLoop {
            plan,
            tally: &tally,
            started: &started,
            base: seg_base,
        };
        let streaming = AtomicUsize::new(plan.timed.len());
        let t0 = Instant::now();
        let (loops, ests) = std::thread::scope(|scope| {
            let stream_threads: Vec<_> = conns
                .iter_mut()
                .zip(&plan.timed)
                .map(|(conn, streams)| {
                    let (lp, streaming) = (&lp, &streaming);
                    let part = segment(streams, seg);
                    scope.spawn(move || {
                        let r = lp.run(conn, part);
                        streaming.fetch_sub(1, Ordering::SeqCst);
                        r
                    })
                })
                .collect();
            let ests = match plan.est_rate {
                Some(rate) => open_loop_ests(&mut est_conn, rate, t0, &streaming, &tally),
                None => closed_loop_ests(
                    &mut est_conn,
                    segment_range(plan.timed_ests, seg),
                    &expected_bits,
                    &tally,
                ),
            };
            let loops: Vec<LoopResult> = stream_threads
                .into_iter()
                .map(|h| h.join().expect("stream thread panicked"))
                .collect();
            (loops, ests)
        });
        let mut end = t0;
        for r in loops {
            stream_ms.extend(r.stream_ms);
            lag_ms.extend(r.lag_ms);
            stream_updates += r.acked;
            seg_base += r.acked;
            end = end.max(r.end.unwrap_or(t0));
        }
        stream_wall_s += ms_between(t0, end) / 1e3;
        est_ms.extend(ests.0);
        lag_ms.extend(ests.1);
        // The timed server's CPU time covers its segments, not the set-ups
        // that follow them nor the `EST`s on the final state.
        let cpu = procfs::cpu_seconds(pid).ok_or("read server /proc stat")?;
        cpu_s = cpu - cpu0;

        let ckpt = dir.join(format!("setup-{seg}.ckpt"));
        let (mut side, secs) = set_up(plan, &tally, &expected_bits, prep_envelope, &ckpt)?;
        setup_s.push(secs);
        // A read-only workload's stream samples: sent to the side server
        // once its set-up is timed, so they spread over the run as its
        // queries do instead of sharing one window of it.
        let side_part = segment(&plan.side_streams, seg);
        if !side_part.is_empty() {
            let started = AtomicU64::new(0);
            let lp = StreamLoop {
                plan,
                tally: &tally,
                started: &started,
                base: side.durable,
            };
            let t0 = Instant::now();
            let r = lp.run(&mut side.est_conn, side_part);
            stream_wall_s += ms_between(t0, r.end.unwrap_or(t0)) / 1e3;
            stream_ms.extend(r.stream_ms);
            lag_ms.extend(r.lag_ms);
            stream_updates += r.acked;
        }
        side.quit()?;
        std::fs::remove_file(&ckpt).map_err(|e| format!("remove {ckpt:?}: {e}"))?;
    }

    // A write-only workload's query samples: closed loop on the final
    // state, which the replay's bits describe exactly.
    let (lat, lag) = closed_loop_ests(&mut est_conn, 0..plan.final_ests, &expected_bits, &tally);
    est_ms.extend(lat);
    lag_ms.extend(lag);

    // Correctness gate: the durable count, then every function's bits
    // against the single-threaded replay.
    let total = plan.total_updates();
    let count = est_conn.count();
    tally.op(
        "count",
        match count {
            Ok(n) if n == total => None,
            Ok(n) => Some(format!("COUNT {n}, expected {total}")),
            Err(e) => Some(e.to_string()),
        },
    );
    let finals = est_rounds(&mut est_conn, 1, Some(&expected_bits), &tally);
    let peak_rss_mib = procfs::peak_rss_mib(pid).ok_or("read server /proc status")?;
    drop(conns);
    drop(est_conn);
    if let Err(e) = server.quit() {
        tally.op("quit", Some(e));
    }
    let state_bytes = std::fs::metadata(&final_envelope)
        .map_err(|e| format!("final envelope: {e}"))?
        .len();

    let exact = exact_frequencies(plan);
    let rel_err = functions()
        .iter()
        .zip(&finals)
        .map(|((tag, g), &bits)| (*tag, relative_error(f64::from_bits(bits), exact.gsum(g))))
        .collect();

    Ok(Outcome {
        attempted: tally.attempted(),
        failed: tally.failed(),
        failures: tally.first_failures(),
        stale_acks: tally.stale_acks.load(Ordering::Relaxed),
        setup_s,
        stream_ms,
        stream_updates,
        stream_wall_s,
        est_ms,
        lag_ms,
        peak_rss_mib,
        server_cpu_s: cpu_s,
        state_bytes,
        rel_err,
        final_envelope,
        replay,
    })
}

/// Segment `seg` of [`SEGMENTS`] equal consecutive parts of `0..n`.
fn segment_range(n: usize, seg: usize) -> Range<usize> {
    n * seg / SEGMENTS..n * (seg + 1) / SEGMENTS
}

/// Segment `seg` of [`SEGMENTS`] equal consecutive parts of `streams`.
fn segment(streams: &[usize], seg: usize) -> &[usize] {
    &streams[segment_range(streams.len(), seg)]
}

/// The `EST`s numbered `ks` of the round-robin, closed loop, each checked
/// against the replay (the `query` state never changes).  Returns
/// (latencies, lags).
fn closed_loop_ests(
    conn: &mut Conn,
    ks: Range<usize>,
    expected: &[u64],
    tally: &Tally,
) -> (Vec<f64>, Vec<f64>) {
    let mut lat = Vec::with_capacity(ks.len());
    let mut lag = Vec::with_capacity(ks.len());
    let mut prev_done: Option<Instant> = None;
    for k in ks.clone() {
        let name = Plan::est_name(k);
        let t0 = Instant::now();
        if let Some(p) = prev_done {
            lag.push(ms_between(p, t0));
        }
        let reply = conn.est(&name);
        let done = Instant::now();
        prev_done = Some(done);
        let error = match reply {
            Ok(bits) if bits == expected[k % expected.len()] => {
                lat.push(ms_between(t0, done));
                None
            }
            Ok(bits) => Some(format!("EST {name} bits {bits} differ from the replay")),
            Err(e) => Some(e.to_string()),
        };
        let failed = error.is_some();
        tally.op("est", error);
        if failed {
            fail_all(
                tally,
                "est",
                ks.end - k - 1,
                &OpFailure::Io("abandoned".into()),
            );
            break;
        }
    }
    (lat, lag)
}

/// `EST`s round-robin on a fixed-rate schedule from `start`, each timed
/// from its due time, until no stream connection is `streaming` any more.
/// Returns (latencies, lags).
fn open_loop_ests(
    conn: &mut Conn,
    rate: f64,
    start: Instant,
    streaming: &AtomicUsize,
    tally: &Tally,
) -> (Vec<f64>, Vec<f64>) {
    let schedule = OpenLoop::new(start, rate);
    let mut lat = Vec::new();
    let mut lag = Vec::new();
    for k in 0.. {
        schedule.wait_for(k);
        if streaming.load(Ordering::SeqCst) == 0 {
            break;
        }
        let sent = Instant::now();
        let reply = conn.est(&Plan::est_name(k as usize));
        let t = Timed {
            due: schedule.due(k),
            sent,
            done: Instant::now(),
        };
        lag.push(t.lag_ms());
        let failed = reply.is_err();
        tally.op("est", reply.err().map(|e| e.to_string()));
        if failed {
            break;
        }
        lat.push(t.latency_ms());
    }
    (lat, lag)
}
