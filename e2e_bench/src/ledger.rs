//! The traced run's per-layer ledger.
//!
//! The workload's generated inputs are replayed **in-process**, single
//! threaded, through the same public calls the server makes, in the same
//! order — wire decode in socket-read-sized chunks, `update_batch` at the
//! reactor's dispatch size, shard clone + fold + snapshot + envelope save
//! at the server's cadence, and `EST` — with a span around each call.
//!
//! `EST` is replayed twice: once through the opaque
//! [`SketchRegistry::estimate_for`] (timed, untraced), and once as the
//! library calls it is made of — per level `cover_with`, then the recursive
//! assembly `estimate_from_covers` — on the sketch restored from its own
//! checkpoint bytes.  The two estimates must agree bit for bit, which is
//! what licenses reading the spans as the query's ledger.
//!
//! Sub-layers are timed outside the request spans.  Those of `update_batch`
//! (coalesce, row hash, sign hash, CountSketch and AMS counter updates) run
//! on a fresh state's level components, fed the same dispatch batches: the
//! row hashers re-derived from the level-0 CountSketch's own seed and
//! configuration, the sign bank with the level AMS's family and size and
//! an arbitrary seed (the sketch does not expose it, and the cost of a sign
//! evaluation does not depend on it).  Those of `cover_with` (CountSketch
//! candidate selection and the residual-F₂ bound) run on the final state's
//! level components.

use crate::run::Outcome;
use crate::serving::{build_registry, functions, serve_config, CHECKPOINT_EVERY};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Plan;
use gsum_core::heavy_hitters::{GCover, OnePassHeavyHitter};
use gsum_core::{OnePassGSumSketch, RecursiveSketch, ReverseHints};
use gsum_gfunc::{DynG, GFunction};
use gsum_hash::{derive_seeds, RowHasher, SignBank, SignHashBank};
use gsum_serve::{CheckpointEnvelope, SketchRegistry};
use gsum_sketch::{AmsF2Sketch, CountSketch};
use gsum_streams::checkpoint::{self, kind, Checkpoint, CheckpointError};
use gsum_streams::{coalesce_into, FrameDecoder, MergeableSketch, StreamSink, Update};
use std::cell::Cell;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

/// Bytes handed to the decoder per socket read (the reactor's read size).
const READ_CHUNK: usize = 64 * 1024;

/// Most updates kept for the standalone sub-layer timings.
const PROBE_UPDATES: usize = 1 << 21;

/// Sign hashes in a level's AMS sketch (64 averages × 5 medians, as
/// `OnePassHeavyHitter::new` builds it).
const AMS_COUNTERS: usize = 64 * 5;

/// One per-layer metric: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// One heavy-hitter level taken apart from its checkpoint bytes.
struct LevelParts {
    candidates: usize,
    countsketch: CountSketch,
    ams: AmsF2Sketch,
    hints: ReverseHints,
}

/// The recursive sketch (for routing and assembly) and its levels'
/// components, both rebuilt from one function's checkpoint bytes.
struct Decomposed {
    recursive: RecursiveSketch<OnePassHeavyHitter<DynG>>,
    levels: Vec<LevelParts>,
}

fn decompose(bytes: &[u8]) -> Result<Decomposed, CheckpointError> {
    let mut r = bytes;
    checkpoint::read_header(&mut r, kind::ONE_PASS_GSUM)?;
    let after_header = r;
    let recursive = RecursiveSketch::<OnePassHeavyHitter<DynG>>::restore(&mut r)?;

    let mut r = after_header;
    checkpoint::read_header(&mut r, kind::RECURSIVE_SKETCH)?;
    let _domain = checkpoint::read_u64(&mut r)?;
    let _seed = checkpoint::read_u64(&mut r)?;
    let count = checkpoint::read_len(&mut r)?;
    let mut levels = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        levels.push(level_parts(&mut r)?);
    }
    Ok(Decomposed { recursive, levels })
}

/// Parse one `OnePassHeavyHitter` checkpoint field by field, in the order
/// its `save` writes them.
fn level_parts(r: &mut impl Read) -> Result<LevelParts, CheckpointError> {
    checkpoint::read_header(r, kind::ONE_PASS_HEAVY_HITTER)?;
    let _rows = checkpoint::read_len(r)?;
    let _columns = checkpoint::read_len(r)?;
    let candidates = checkpoint::read_len(r)?;
    let _epsilon = checkpoint::read_f64(r)?;
    let _envelope_factor = checkpoint::read_f64(r)?;
    let _backend = checkpoint::read_backend(r)?;
    let _sign_family = checkpoint::read_sign_family(r)?;
    let hint_cap = checkpoint::read_len(r)?;
    let _params = checkpoint::read_bounded_bytes(r, 1 << 16, "function parameters")?;
    Ok(LevelParts {
        candidates,
        countsketch: CountSketch::restore(r)?,
        ams: AmsF2Sketch::restore(r)?,
        hints: ReverseHints::restore_body(r, hint_cap)?,
    })
}

fn decompose_function(state: &SketchRegistry, name: &str) -> Decomposed {
    let bytes = state
        .checkpoint_for(name)
        .expect("registered function")
        .expect("in-memory checkpoint");
    decompose(&bytes).expect("a registry checkpoint decomposes")
}

/// A g that counts its evaluations.
struct Counting<'a> {
    inner: &'a DynG,
    evals: Cell<u64>,
}

impl GFunction for Counting<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn eval(&self, x: u64) -> f64 {
        self.evals.set(self.evals.get() + 1);
        self.inner.eval(x)
    }
    fn eval_signed(&self, v: i64) -> f64 {
        self.evals.set(self.evals.get() + 1);
        self.inner.eval_signed(v)
    }
}

/// One `EST` as a span tree under the open span: the library's own
/// per-level `cover_with`, then the recursive assembly.
fn traced_estimate(t: &mut Tracer, d: &Decomposed, g: &DynG, domain: u64) -> f64 {
    let covers: Vec<GCover> = d
        .recursive
        .level_sketches()
        .iter()
        .map(|level| t.span("core.cover", |_| level.cover_with(g, domain)))
        .collect();
    t.span("core.assemble", |_| {
        d.recursive.estimate_from_covers(&covers).max(0.0)
    })
}

/// `cover_with`'s function-independent sub-layers, `reps` times over every
/// level of `d`: CountSketch candidate selection, then the residual-F₂
/// bound over the items it left out.
fn probe_cover_sublayers(t: &mut Tracer, d: &Decomposed, domain: u64, reps: usize) {
    t.set_request(u64::MAX);
    for _ in 0..reps {
        for level in &d.levels {
            let cs = &level.countsketch;
            let candidates = t.span("sketch.countsketch.top_candidates", |_| {
                if level.hints.is_saturated() {
                    cs.top_candidates(0..domain, level.candidates)
                } else {
                    cs.top_candidates(level.hints.iter().filter(|&i| i < domain), level.candidates)
                }
            });
            let excluded: Vec<u64> = candidates.iter().map(|&(i, _)| i).collect();
            let residual = t.span("sketch.countsketch.residual_f2", |_| {
                cs.residual_f2_excluding(&excluded)
            });
            std::hint::black_box(residual);
        }
    }
}

/// The server's per-stream path, replayed in-process.
struct StreamReplay<'a> {
    prototype: SketchRegistry,
    state: SketchRegistry,
    shard: SketchRegistry,
    pending: u64,
    since_snapshot: u64,
    durable: u64,
    dispatch_at: usize,
    batch: Vec<Update>,
    decoded: u64,
    dispatched: u64,
    save_path: &'a Path,
    probe_batches: Vec<Vec<Update>>,
    probe_updates: usize,
    stream_wall_ns: Vec<u64>,
}

impl<'a> StreamReplay<'a> {
    fn new(plan: &Plan, save_path: &'a Path) -> Self {
        let prototype = build_registry(plan.domain, plan.sketch_seed);
        Self {
            state: prototype.clone(),
            shard: prototype.clone(),
            prototype,
            pending: 0,
            since_snapshot: 0,
            durable: 0,
            dispatch_at: serve_config().pipeline().batch_size().max(1),
            batch: Vec::new(),
            decoded: 0,
            dispatched: 0,
            save_path,
            probe_batches: Vec::new(),
            probe_updates: 0,
            stream_wall_ns: Vec::new(),
        }
    }

    fn stream(&mut self, t: &mut Tracer, bytes: &[u8], domain: u64) {
        let t0 = Instant::now();
        t.span("stream", |t| {
            let mut decoder = FrameDecoder::new().with_expected_domain(domain);
            let mut inbuf: Vec<u8> = Vec::new();
            for chunk in bytes.chunks(READ_CHUNK) {
                inbuf.extend_from_slice(chunk);
                let decoded = t.span("streams.wire.decode", |_| {
                    let consumed = decoder.feed(&inbuf);
                    inbuf.drain(..consumed);
                    decoder.drain_into(&mut self.batch)
                });
                self.decoded += decoded as u64;
                if self.batch.len() >= self.dispatch_at {
                    self.dispatch(t);
                }
            }
            assert!(
                decoder.finished() && decoder.error().is_none(),
                "a generated stream decodes to its end frame"
            );
            self.dispatch(t);
            self.flush(t);
        });
        self.stream_wall_ns.push(t0.elapsed().as_nanos() as u64);
    }

    fn dispatch(&mut self, t: &mut Tracer) {
        if self.batch.is_empty() {
            return;
        }
        let updates = std::mem::take(&mut self.batch);
        t.span("core.gsum.update_batch", |_| {
            self.shard.update_batch(&updates)
        });
        self.pending += updates.len() as u64;
        self.dispatched += updates.len() as u64;
        if self.probe_updates < PROBE_UPDATES {
            self.probe_updates += updates.len();
            self.probe_batches.push(updates);
        }
        if self.pending >= CHECKPOINT_EVERY as u64 {
            self.flush(t);
        }
    }

    /// The reactor's `flush_shard`: swap a fresh clone in, fold the taken
    /// shard, snapshot and publish when the cadence comes due.
    fn flush(&mut self, t: &mut Tracer) {
        if self.pending == 0 {
            return;
        }
        let taken = t.span("core.gsum.clone", |_| {
            std::mem::replace(&mut self.shard, self.prototype.clone())
        });
        t.span("serve.coordinator.fold", |t| {
            t.span("core.gsum.merge", |_| self.state.merge(&taken))
                .expect("clones of one prototype always merge");
            self.durable += self.pending;
            self.since_snapshot += self.pending;
            self.pending = 0;
            if self.since_snapshot >= CHECKPOINT_EVERY as u64 {
                self.since_snapshot = 0;
                let envelope = t.span("serve.coordinator.snapshot", |_| {
                    CheckpointEnvelope::park(self.durable, &self.state).expect("in-memory snapshot")
                });
                t.span("serve.envelope.save", |_| {
                    envelope.save_atomic(self.save_path)
                })
                .expect("envelope write inside the checkout");
            }
        });
    }
}

/// Standalone sub-layer timings over the kept dispatch batches.
struct Probes {
    updates: u64,
    distinct: u64,
    row_keys: u64,
}

fn probe_sublayers(t: &mut Tracer, plan: &Plan, batches: &[Vec<Update>]) -> Probes {
    let fresh = build_registry(plan.domain, plan.sketch_seed);
    let name = functions()[0].1.name();
    let mut parts = decompose_function(&fresh, &name);
    // `CountSketch::new`'s derivation, from the level-0 sketch's own seed.
    let cs0 = &parts.levels[0].countsketch;
    let cs_config = cs0.config();
    let rows: Vec<RowHasher> = derive_seeds(cs0.seed(), cs_config.rows)
        .into_iter()
        .map(|s| RowHasher::new(cs_config.backend, cs_config.columns as u64, s))
        .collect();
    let family = parts.levels[0].ams.sign_family();
    let bank = SignBank::from_seed(family, plan.sketch_seed, AMS_COUNTERS);
    let levels = parts.levels.len();
    let mut p = Probes {
        updates: 0,
        distinct: 0,
        row_keys: 0,
    };
    let mut scratch = Vec::new();
    let (mut cols, mut signs, mut sign_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut x1, mut x2, mut x3, mut hv) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut routed: Vec<Vec<Update>> = vec![Vec::new(); levels];
    t.set_request(u64::MAX);
    for batch in batches {
        let coalesced: Vec<Update> = t.span("streams.coalesce", |_| {
            coalesce_into(batch, &mut scratch).to_vec()
        });
        let keys: Vec<u64> = coalesced.iter().map(|u| u.item).collect();
        p.updates += batch.len() as u64;
        p.distinct += keys.len() as u64;
        p.row_keys += (keys.len() * rows.len()) as u64;
        t.span("hash.row", |_| {
            for row in &rows {
                row.column_sign_batch(&keys, &mut cols, &mut signs);
            }
        });
        // Both hash stages are timed at level 0, which sees every distinct
        // key of the batch; deeper levels hash geometrically fewer.
        t.span("hash.sign", |_| match &bank {
            SignBank::Polynomial(b) => {
                x1.clear();
                x2.clear();
                x3.clear();
                for &k in &keys {
                    let (a, b, c) = SignHashBank::key_powers(k);
                    x1.push(a);
                    x2.push(b);
                    x3.push(c);
                }
                b.eval_block(&x1, &x2, &x3, &mut sign_bytes);
            }
            SignBank::Tabulation(b) => b.eval_block(&keys, &mut hv, &mut sign_bytes),
        });
        for level in routed.iter_mut() {
            level.clear();
        }
        for u in &coalesced {
            let deepest = parts.recursive.deepest_level(u.item);
            for level in routed.iter_mut().take(deepest + 1) {
                level.push(*u);
            }
        }
        t.span("sketch.countsketch.update", |_| {
            for (level, sub) in parts.levels.iter_mut().zip(&routed) {
                level.countsketch.update_batch(sub);
            }
        });
        t.span("sketch.ams.update", |_| {
            for (level, sub) in parts.levels.iter_mut().zip(&routed) {
                level.ams.update_batch(sub);
            }
        });
    }
    std::hint::black_box(&parts.levels);
    p
}

/// Opaque and decomposed `EST` timings over the final state.
struct EstLedger {
    estimate_for_ms: Vec<f64>,
    estimate_with_ms: Vec<f64>,
    cover_ms: Vec<f64>,
    evals: Vec<f64>,
    mismatches: usize,
}

fn replay_ests(t: &mut Tracer, plan: &Plan, state: &SketchRegistry, reps: usize) -> EstLedger {
    let mut out = EstLedger {
        estimate_for_ms: Vec::new(),
        estimate_with_ms: Vec::new(),
        cover_ms: Vec::new(),
        evals: Vec::new(),
        mismatches: 0,
    };
    let per_function: Vec<(DynG, Decomposed, OnePassGSumSketch<DynG>)> = functions()
        .into_iter()
        .map(|(_, g)| {
            let name = g.name();
            let bytes = state
                .checkpoint_for(&name)
                .expect("registered")
                .expect("in-memory checkpoint");
            let sketch = OnePassGSumSketch::<DynG>::restore(&mut bytes.as_slice())
                .expect("checkpoint restores");
            (g, decompose_function(state, &name), sketch)
        })
        .collect();
    let ms = |t0: Instant| t0.elapsed().as_nanos() as f64 / 1e6;
    let mut request = 0u64;
    for _ in 0..reps {
        for (g, d, sketch) in &per_function {
            let name = g.name();
            let t0 = Instant::now();
            let opaque = state.estimate_for(&name).expect("registered");
            out.estimate_for_ms.push(ms(t0));

            let counting = Counting {
                inner: g,
                evals: Cell::new(0),
            };
            let t0 = Instant::now();
            let with = sketch.estimate_with(&counting);
            out.estimate_with_ms.push(ms(t0));
            out.evals.push(counting.evals.get() as f64);

            let t0 = Instant::now();
            for level in d.recursive.level_sketches() {
                std::hint::black_box(level.cover_with(g, plan.domain));
            }
            out.cover_ms.push(ms(t0));

            t.set_request(request);
            request += 1;
            let decomposed = t.span("est", |t| traced_estimate(t, d, g, plan.domain));
            if decomposed.to_bits() != opaque.to_bits() || with.to_bits() != opaque.to_bits() {
                out.mismatches += 1;
            }
        }
    }
    out
}

/// How many streams and `EST` repetitions the ledger replays.
fn replay_sizes(plan: &Plan) -> (usize, usize) {
    match plan.workload {
        crate::workload::Workload::Ingest => (24, 2),
        crate::workload::Workload::Query => (100, 2),
        crate::workload::Workload::Mixed => (400, 10),
    }
}

/// The streams the ledger replays: the phase `stream_ms` came from, in
/// send order.  `query`'s side streams replay into an empty state, not the
/// restored one they met on the socket: the per-update work does not
/// depend on the counters it adds to.
fn replayed_streams(plan: &Plan, max: usize) -> Vec<usize> {
    if !plan.side_streams.is_empty() {
        return plan.side_streams.iter().copied().take(max).collect();
    }
    let longest = plan.timed.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| plan.timed.iter().filter_map(move |c| c.get(k).copied()))
        .take(max)
        .collect()
}

/// Measure every per-layer metric for `plan`, given the socket run's
/// outcome.  Writes the spans (one JSON object per line) to `spans_out`.
/// Returns the rows and whether the decomposed ledger matched the opaque
/// calls bit for bit.
pub fn measure(
    plan: &Plan,
    outcome: &Outcome,
    dir: &Path,
    spans_out: &Path,
) -> Result<(Vec<Row>, bool), String> {
    let (n_streams, reps) = replay_sizes(plan);
    let streams = replayed_streams(plan, n_streams);
    let save_path = dir.join("ledger.ckpt");

    // Untraced pass: the in-process end-to-end time the ledger must cover.
    let mut off = Tracer::disabled();
    let mut untraced = StreamReplay::new(plan, &save_path);
    let t0 = Instant::now();
    for &i in &streams {
        untraced.stream(&mut off, &plan.encoded[i], plan.domain);
    }
    let untraced_stream_ns = t0.elapsed().as_nanos() as f64;
    let untraced_stream_wall = untraced.stream_wall_ns.clone();
    drop(untraced);

    // Traced pass.
    let mut t = Tracer::new();
    let mut traced = StreamReplay::new(plan, &save_path);
    for (req, &i) in streams.iter().enumerate() {
        t.set_request(req as u64);
        traced.stream(&mut t, &plan.encoded[i], plan.domain);
    }
    let ests = replay_ests(&mut t, plan, &outcome.replay, reps);
    let stream_and_est = t.by_name();
    let probe_batches = std::mem::take(&mut traced.probe_batches);
    let probes = probe_sublayers(&mut t, plan, &probe_batches);
    let first = functions()[0].1.name();
    let d = decompose_function(&outcome.replay, &first);
    probe_cover_sublayers(&mut t, &d, plan.domain, reps);
    let by = t.by_name();

    let mut restore_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let env = CheckpointEnvelope::load(&outcome.final_envelope)
            .map_err(|e| e.to_string())?
            .ok_or("final envelope missing")?;
        let restored: SketchRegistry = env.restore_state().map_err(|e| e.to_string())?;
        restore_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
        std::hint::black_box(restored);
    }

    let mut file = std::fs::File::create(spans_out).map_err(|e| e.to_string())?;
    t.write_jsonl(&mut file).map_err(|e| e.to_string())?;

    let total = |name: &str| by.get(name).map_or(0.0, |l| l.total_ns as f64);
    let med_ms = |name: &str| {
        let d: Vec<f64> = t
            .durations_ns(name)
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect();
        median(&d).unwrap_or(0.0)
    };
    // The cover sub-layer probes ran once per repetition: one `EST`'s worth.
    let n_cover_probes = reps as f64;

    // Saturation and scan work come from the final state's hints.
    let saturated = d.levels.iter().filter(|l| l.hints.is_saturated()).count();
    let scanned: usize = d
        .levels
        .iter()
        .map(|l| {
            if l.hints.is_saturated() {
                plan.domain as usize
            } else {
                l.hints.len()
            }
        })
        .sum();

    // Coverage: the self times of every layer span under the stream and
    // est roots, over the untraced in-process time of the same requests.
    let layer_self_ns: f64 = stream_and_est
        .iter()
        .filter(|(name, _)| **name != "stream" && **name != "est")
        .map(|(_, l)| l.self_ns as f64)
        .sum();
    let untraced_est_ns: f64 = ests.estimate_for_ms.iter().sum::<f64>() * 1e6;
    let coverage = layer_self_ns / (untraced_stream_ns + untraced_est_ns);

    let in_process_stream_ms = median(
        &untraced_stream_wall
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let socket_stream_ms = median(&outcome.stream_ms).unwrap_or(0.0);
    let socket_est_ms = median(&outcome.est_ms).unwrap_or(0.0);
    let in_process_est_ms = median(&ests.estimate_for_ms).unwrap_or(0.0);
    let rel = |tag: &str| {
        outcome
            .rel_err
            .iter()
            .find(|(t, _)| *t == tag)
            .map_or(f64::NAN, |&(_, e)| e)
    };
    let lag_max = outcome.lag_ms.iter().copied().fold(0.0, f64::max);

    let rows = vec![
        (
            "streams.wire.decode_ns_per_upd",
            total("streams.wire.decode") / traced.decoded as f64,
            "ns",
        ),
        (
            "streams.coalesce_ns_per_upd",
            total("streams.coalesce") / probes.updates as f64,
            "ns",
        ),
        (
            "streams.coalesce.distinct_per_upd",
            probes.distinct as f64 / probes.updates as f64,
            "ratio",
        ),
        (
            "hash.row_ns_per_key",
            total("hash.row") / probes.row_keys as f64,
            "ns",
        ),
        (
            "hash.sign_ns_per_key",
            total("hash.sign") / probes.distinct as f64,
            "ns",
        ),
        (
            "sketch.countsketch.update_ns_per_upd",
            total("sketch.countsketch.update") / probes.updates as f64,
            "ns",
        ),
        (
            "sketch.ams.update_ns_per_upd",
            total("sketch.ams.update") / probes.updates as f64,
            "ns",
        ),
        (
            "sketch.countsketch.top_candidates_ms",
            total("sketch.countsketch.top_candidates") / 1e6 / n_cover_probes,
            "ms",
        ),
        (
            "sketch.countsketch.residual_f2_ms",
            total("sketch.countsketch.residual_f2") / 1e6 / n_cover_probes,
            "ms",
        ),
        (
            "core.gsum.update_batch_ns_per_upd",
            total("core.gsum.update_batch") / traced.dispatched as f64,
            "ns",
        ),
        ("core.gsum.clone_ms", med_ms("core.gsum.clone"), "ms"),
        ("core.gsum.merge_ms", med_ms("core.gsum.merge"), "ms"),
        ("core.cover_ms", median(&ests.cover_ms).unwrap_or(0.0), "ms"),
        (
            "core.estimate_with_ms",
            median(&ests.estimate_with_ms).unwrap_or(0.0),
            "ms",
        ),
        ("core.levels_saturated", saturated as f64, "count"),
        ("core.items_scanned_per_est", scanned as f64, "count"),
        (
            "gfunc.evals_per_est",
            ests.evals.iter().sum::<f64>() / ests.evals.len() as f64,
            "count",
        ),
        ("gfunc.rel_err.x2", rel("x2"), "ratio"),
        ("gfunc.rel_err.cap100", rel("cap100"), "ratio"),
        ("gfunc.rel_err.osc_log", rel("osc_log"), "ratio"),
        ("serve.registry.estimate_for_ms", in_process_est_ms, "ms"),
        (
            "serve.coordinator.fold_ms",
            med_ms("serve.coordinator.fold"),
            "ms",
        ),
        (
            "serve.coordinator.snapshot_ms",
            med_ms("serve.coordinator.snapshot"),
            "ms",
        ),
        (
            "serve.envelope.save_ms",
            med_ms("serve.envelope.save"),
            "ms",
        ),
        (
            "serve.envelope.restore_ms",
            median(&restore_ms).unwrap_or(0.0),
            "ms",
        ),
        (
            "serve.unattributed_ms_per_stream",
            socket_stream_ms - in_process_stream_ms,
            "ms",
        ),
        (
            "serve.unattributed_ms_per_est",
            socket_est_ms - in_process_est_ms,
            "ms",
        ),
        ("server.cpu_s", outcome.server_cpu_s, "s"),
        ("loadgen.lag_ms_max", lag_max, "ms"),
        ("trace.coverage", coverage, "ratio"),
    ];
    let _ = std::fs::remove_file(&save_path);
    Ok((rows, ests.mismatches == 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn decomposed_estimate_matches_the_registry_bit_for_bit() {
        let plan = Plan::new(Workload::Mixed, 3, 1);
        let mut state = build_registry(plan.domain, plan.sketch_seed);
        for s in plan.pool.iter().take(16) {
            state.update_batch(s);
        }
        let mut t = Tracer::new();
        let ests = replay_ests(&mut t, &plan, &state, 1);
        assert_eq!(ests.mismatches, 0);
        assert!(ests.evals.iter().all(|&e| e > 0.0));
        let by = t.by_name();
        assert_eq!(by["est"].count, 3);
        assert!(by["core.cover"].count >= 3);
    }
}
