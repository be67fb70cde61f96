//! The readiness loop and bounded worker pool behind [`GsumServer::serve`].
//!
//! Thread-per-connection pays a thread spawn per client and funnels every
//! decoded batch through the serving-state lock.  This module replaces both
//! costs with a std-only reactor shape:
//!
//! * **One reactor thread** owns the non-blocking listener and every
//!   non-blocking connection.  It accepts, sheds past `max_connections`
//!   with a typed [`Response::Busy`] refusal, reads whatever bytes are
//!   ready, and advances a per-connection state machine (sniff → command
//!   line or framed ingest via the resumable
//!   [`FrameDecoder`](gsum_streams::FrameDecoder), which picks up
//!   mid-frame exactly where the previous readiness event stopped).
//! * **A bounded pool of fold workers** receives decoded update batches
//!   over bounded channels (depth = the pipeline config's channel depth) —
//!   a flooding client backpressures the reactor's reads, never memory.
//!   Connections are sticky (`conn_id % workers`), so each stream's
//!   batches arrive at one worker in order.
//! * **Per-worker shards**: under [`ServePolicy::MergeCompleted`] each
//!   worker absorbs batches into its own accumulator sketch and folds into
//!   the published serving state only on query, once the shard holds at
//!   least K (`checkpoint_every`) updates after absorbing everything
//!   queued, or at stream completion (the `OK` ack must carry a durable
//!   count that includes the stream).  Linearity licenses the sharding:
//!   integer-valued `f64` counters add exactly, so shards folded in any
//!   order land on the single-threaded concat-replay state bit for bit —
//!   `tests/serve_reactor.rs` proptests exactly that claim, load shedding
//!   included.  [`ServePolicy::DiscardPartial`] is all-or-nothing, so there
//!   is nothing to share mid-stream: the per-connection accumulator *is*
//!   the shard, folded once at the end frame or dropped on failure.
//! * **Drained batches**: a worker that receives a batch also takes every
//!   batch already queued behind it for the same sketch (any connection's
//!   into a shard, the same connection's otherwise), keeps their union
//!   coalesced, and applies it with one `update_batch`.  Linearity makes
//!   the union exact, so this changes no state byte; it spends the worker's
//!   time on updates instead of on per-batch calls, folds and snapshots.
//! * **One publisher thread** writes every snapshot envelope the serving
//!   path makes due.  The [`MergeCoordinator`] parks a due envelope under
//!   its state lock, so the envelope is a consistent cut; a depth-1 channel
//!   carries it to the publisher, and neither a fold worker nor the reactor
//!   waits on the disk.  The envelope on disk can therefore trail the
//!   durable count an `OK` acknowledged by the snapshot in flight.  A
//!   failed write is a [`ServeEvent::SnapshotFailed`], not a failed stream
//!   or a stopped server; the next due snapshot retries.
//! * **Waking on work**: the std-only loop has no readiness syscall, so it
//!   polls.  After a tick that made progress it keeps ticking, yielding the
//!   CPU on idle ticks for [`IDLE_SLEEP`]; a request that follows a reply
//!   is read without a timer's wait.  Past that window it blocks on the
//!   worker reply channel, so an `OK` or `ERR` wakes it at once and a new
//!   request waits at most [`IDLE_SLEEP`].  All ticks share one read
//!   buffer.
//!
//! Hostile deltas are stopped at dispatch: a batch that fails
//! [`check_delta_magnitudes`] (Σ|δ| past `i64::MAX`) fails its stream
//! before any worker coalesces it, and a worker stops draining before the
//! union's Σ|δ| would pass `i64::MAX`, so no summation order can overflow
//! an item's `i64` total.

use crate::checkpoint_envelope::CheckpointEnvelope;
use crate::coordinator::MergeCoordinator;
use crate::error::ServeError;
use crate::observer::ServeEvent;
use crate::protocol::{Command, Response};
use crate::server::ServeConfig;
use crate::ServableSketch;
use gsum_streams::wire::WIRE_MAGIC;
use gsum_streams::{check_delta_magnitudes, coalesce_into, FrameDecoder, Update};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest accepted command line, in bytes.  A real command is a keyword
/// plus at most one registered function name (`EST <function>`); a line
/// beyond this is garbage and earns a typed rejection instead of unbounded
/// buffering.
const MAX_COMMAND_BYTES: usize = 256;

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Reads per connection per reactor tick — bounds how long one firehose
/// connection can monopolize the loop.
const READS_PER_TICK: usize = 4;

/// How the reactor waits when a tick made no progress (nothing accepted,
/// readable, writable or replied).  For `IDLE_SLEEP` after the last tick
/// that made progress, each idle tick only yields the CPU, so a
/// closed-loop client's next request is read as soon as it lands.  Past
/// that window the reactor blocks on the reply channel for up to
/// `IDLE_SLEEP`, so a worker's reply wakes it at once while a new request
/// waits at most this long.  The window costs CPU: about `IDLE_SLEEP` of
/// polling after every reply, read or accept.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// A fold worker's shard.  Two locks with two jobs: `acc` guards the
/// accumulator the worker absorbs into (held only for one absorb or one
/// take), and `fold_lock` serializes take→fold, so a flush that finds the
/// shard empty knows every earlier take has already landed in the
/// published serving state.
struct Shard<S> {
    acc: Mutex<ShardAcc<S>>,
    fold_lock: Mutex<()>,
}

/// A shard's accumulator sketch plus how many updates it holds that the
/// published serving state does not.
struct ShardAcc<S> {
    sketch: S,
    pending: u64,
}

/// What the reactor sends a fold worker.  All messages for one connection
/// go to one worker (sticky routing), in order.
enum WorkerMsg {
    /// Decoded updates from one connection's stream, with their Σ|δ| as
    /// [`check_delta_magnitudes`] returned it (at most `i64::MAX`).
    Batch {
        conn: u64,
        updates: Vec<Update>,
        magnitude: u64,
    },
    /// The connection's stream reached its end-of-stream frame; fold, then
    /// acknowledge with `OK <durable>`.
    End { conn: u64 },
    /// The connection's stream died (truncation, decode error, idle
    /// timeout).  Resolve per policy, then reply `ERR <reason>`.
    Fail { conn: u64, reason: String },
}

/// Where a connection is in its current request.
enum Phase {
    /// Sniffing / accumulating: bytes so far are either a wire-magic
    /// prefix (→ `Ingest`) or part of a command line.
    Text,
    /// Mid framed stream; the decoder resumes wherever the last readiness
    /// event stopped.
    Ingest(Box<FrameDecoder>),
    /// The worker owes this connection a reply; input is left buffered (a
    /// pipelined next request) until the reply is on the wire.
    AwaitReply,
}

struct Conn {
    id: u64,
    stream: TcpStream,
    worker: usize,
    phase: Phase,
    /// Bytes read but not yet consumed by the state machine.
    inbuf: Vec<u8>,
    /// Bytes owed to the peer.
    outbuf: Vec<u8>,
    /// Decoded updates not yet dispatched to the worker.
    batch: Vec<Update>,
    last_activity: Instant,
    close_after_flush: bool,
    eof: bool,
    dead: bool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream, worker: usize, now: Instant) -> Self {
        Self {
            id,
            stream,
            worker,
            phase: Phase::Text,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            batch: Vec::new(),
            last_activity: now,
            close_after_flush: false,
            eof: false,
            dead: false,
        }
    }

    fn mid_request(&self) -> bool {
        matches!(self.phase, Phase::Ingest(_) | Phase::AwaitReply)
    }
}

/// Queue a worker's reply on its connection's write buffer.  A reply for a
/// connection that is already gone is dropped.
fn route_reply(conns: &mut HashMap<u64, Conn>, id: u64, response: &Response) {
    let Some(conn) = conns.get_mut(&id) else {
        return;
    };
    if matches!(response, Response::Err(_)) {
        // A failed request poisons the connection: the framing can no
        // longer be trusted.
        conn.close_after_flush = true;
    }
    conn.outbuf
        .extend_from_slice(response.to_string().as_bytes());
    conn.outbuf.push(b'\n');
    if matches!(conn.phase, Phase::AwaitReply) {
        // Persistent connection: the next request (possibly already
        // buffered in inbuf) may proceed.
        conn.phase = Phase::Text;
    }
}

/// Run the serving loop: spawn the snapshot publisher and the worker pool,
/// drive the reactor until a clean `QUIT` drain, then fold any shard
/// remainders.  The publisher has written every due envelope and exited
/// before this returns; the caller takes the final snapshot.
pub(crate) fn run<S: ServableSketch>(
    prototype: &S,
    config: &ServeConfig,
    coordinator: &MergeCoordinator<S>,
    listener: TcpListener,
) -> Result<(), ServeError> {
    listener.set_nonblocking(true)?;
    let workers = config.workers();
    // `MergeCompleted` gives every worker a shard; `DiscardPartial` gives
    // none, and its workers keep per-connection accumulators instead.
    let shards: Vec<Arc<Shard<S>>> = if config.policy().folds_mid_stream() {
        (0..workers)
            .map(|_| {
                Arc::new(Shard {
                    acc: Mutex::new(ShardAcc {
                        sketch: prototype.clone(),
                        pending: 0,
                    }),
                    fold_lock: Mutex::new(()),
                })
            })
            .collect()
    } else {
        Vec::new()
    };

    std::thread::scope(|publishing| {
        let (publish_tx, publish_rx) = mpsc::sync_channel::<CheckpointEnvelope>(1);
        publishing.spawn(move || publish_loop(publish_rx, coordinator, config));
        let (reply_tx, reply_rx) = mpsc::channel::<(u64, Response)>();
        std::thread::scope(|scope| {
            let mut txs = Vec::with_capacity(workers);
            for w in 0..workers {
                let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(config.pipeline().channel_depth());
                txs.push(tx);
                let replies = reply_tx.clone();
                let shard = shards.get(w).cloned();
                let publish = publish_tx.clone();
                scope.spawn(move || {
                    worker_loop(rx, replies, shard, prototype, coordinator, publish, config)
                });
            }
            drop(reply_tx);
            let mut reactor = Reactor {
                prototype,
                config,
                coordinator,
                txs: &txs,
                shards: &shards,
                publish: &publish_tx,
                dispatch_at: config.pipeline().batch_size().max(1),
                domain: prototype.domain(),
                draining: false,
            };
            reactor.serve_loop(&listener, &reply_rx)
            // `txs` drops here: the workers drain their queues and exit,
            // and the scope joins them before anything below runs.
        })?;

        // Shard remainders exist only for streams that failed mid-flight
        // (completed streams flush at their end frame); fold them before
        // the caller takes the final snapshot.
        for shard in &shards {
            flush_shard(shard, prototype, coordinator, &publish_tx)?;
        }
        Ok(())
        // `publish_tx` drops here: the publisher writes what is queued and
        // exits, and the scope joins it before `run` returns.
    })
}

/// The publisher thread: write every envelope the serving path made due,
/// in order, until every sender is gone.  A failed write is reported as a
/// [`ServeEvent::SnapshotFailed`] and leaves the previous envelope on disk;
/// the next due snapshot retries.
fn publish_loop<S: ServableSketch>(
    envelopes: Receiver<CheckpointEnvelope>,
    coordinator: &MergeCoordinator<S>,
    config: &ServeConfig,
) {
    for envelope in envelopes {
        if let Err(e) = coordinator.publish(&envelope) {
            config.emit(&ServeEvent::SnapshotFailed {
                reason: e.to_string(),
            });
        }
    }
}

/// Hand a due snapshot envelope to the publisher thread.  The channel holds
/// one envelope, so a sender waits only while the publisher is behind by a
/// whole snapshot.
fn publish_due(publish: &SyncSender<CheckpointEnvelope>, due: Option<CheckpointEnvelope>) {
    if let Some(envelope) = due {
        // An Err means the publisher is gone, which happens only if it
        // panicked; the scope join surfaces that panic.
        let _ = publish.send(envelope);
    }
}

/// Take a shard's accumulator (swapping in a fresh prototype clone) and
/// fold it into the published serving state.  The fold happens outside the
/// accumulator lock, so the owning worker keeps absorbing while the fold
/// runs.  The fold lock is held across take and merge: a flush racing
/// another (a worker's stream end against a query's flush) waits for the
/// other's merge to land instead of returning early on an empty shard, so
/// the durable count read after any flush covers everything the shard had
/// absorbed when the flush began.  A snapshot the merge made due goes to
/// the publisher thread after the fold lock drops, so a query's flush never
/// waits on another flush's hand-over, and nothing here waits on the disk.
fn flush_shard<S: ServableSketch>(
    shard: &Shard<S>,
    prototype: &S,
    coordinator: &MergeCoordinator<S>,
    publish: &SyncSender<CheckpointEnvelope>,
) -> Result<(), ServeError> {
    let due = {
        let _folding = shard.fold_lock.lock().expect("shard fold lock poisoned");
        let (taken, pending) = {
            let mut guard = shard.acc.lock().expect("shard lock poisoned");
            if guard.pending == 0 {
                return Ok(());
            }
            let taken = std::mem::replace(&mut guard.sketch, prototype.clone());
            let pending = std::mem::take(&mut guard.pending);
            (taken, pending)
        };
        coordinator.merge(&taken, pending)?.1
    };
    publish_due(publish, due);
    Ok(())
}

/// The union of the batches a fold worker drains in one round, kept
/// coalesced: one entry per distinct item in increasing item order, the
/// form [`coalesce_into`] produces and every sketch's `update_batch`
/// applies without coalescing again.  The buffers are reused across rounds,
/// and the union never holds more entries than the distinct items of the
/// drained batches.
#[derive(Default)]
struct Drain {
    /// The coalesced union.
    union: Vec<Update>,
    /// Where the union and the next batch merge; swapped with `union`.
    merged: Vec<Update>,
    /// Coalescing scratch for one incoming batch.
    scratch: Vec<Update>,
    /// Raw updates absorbed this round: what the durable count advances by.
    raw: u64,
    /// Σ|δ| of the absorbed batches.  Kept at most `i64::MAX`, so no item's
    /// total in the union can overflow.
    magnitude: u64,
}

impl Drain {
    /// Start a round with its first batch.
    fn start(&mut self, updates: &[Update], magnitude: u64) {
        self.union.clear();
        self.raw = 0;
        self.magnitude = 0;
        self.absorb(updates, magnitude);
    }

    /// Whether a batch of Σ|δ| `magnitude` can join the union without its
    /// Σ|δ| passing `i64::MAX`.
    fn fits(&self, magnitude: u64) -> bool {
        // Both terms are at most `i64::MAX`, so the sum cannot wrap.
        self.magnitude + magnitude <= i64::MAX as u64
    }

    /// Coalesce one batch and merge it into the union.
    fn absorb(&mut self, updates: &[Update], magnitude: u64) {
        self.raw += updates.len() as u64;
        self.magnitude += magnitude;
        let batch = coalesce_into(updates, &mut self.scratch);
        let union = &self.union;
        let merged = &mut self.merged;
        merged.clear();
        let (mut i, mut j) = (0, 0);
        while i < union.len() && j < batch.len() {
            let (a, b) = (union[i], batch[j]);
            match a.item.cmp(&b.item) {
                Ordering::Less => {
                    merged.push(a);
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push(b);
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push(Update::new(a.item, a.delta + b.delta));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&union[i..]);
        merged.extend_from_slice(&batch[j..]);
        std::mem::swap(&mut self.union, &mut self.merged);
    }
}

/// One fold worker: absorb batches, resolve stream ends and failures, send
/// replies back to the reactor.
///
/// A received batch opens a round: the worker also takes every batch
/// already queued behind it for the same sketch, at most the channel depth
/// of them, keeps their union coalesced ([`Drain`]) and applies it with one
/// `update_batch`.  With a shard (`MergeCompleted`) every queued batch
/// qualifies; without one (`DiscardPartial`) only the same connection's.
/// The round stops at the first other message, which the worker handles
/// next, so each connection's messages keep their order.  It also stops
/// before the union's Σ|δ| would pass `i64::MAX`.
///
/// With a shard, the round's union absorbs into it, and only then does the
/// worker check the cadence: it folds once the shard holds at least
/// `checkpoint_every` updates, as well as on a query or at a stream end.
/// Without one, each connection accumulates alone, folds once at its end
/// frame, and is dropped on failure.  Due snapshots go to the publisher
/// thread.  Exits when the reactor drops the sending half.
fn worker_loop<S: ServableSketch>(
    rx: Receiver<WorkerMsg>,
    replies: mpsc::Sender<(u64, Response)>,
    shard: Option<Arc<Shard<S>>>,
    prototype: &S,
    coordinator: &MergeCoordinator<S>,
    publish: SyncSender<CheckpointEnvelope>,
    config: &ServeConfig,
) {
    // Per-connection accumulators; empty whenever the worker has a shard.
    struct ConnAcc<S> {
        acc: S,
        count: u64,
    }
    let fresh = || ConnAcc {
        acc: prototype.clone(),
        count: 0,
    };
    let mut conns: HashMap<u64, ConnAcc<S>> = HashMap::new();
    let k = config.checkpoint_every() as u64;
    let drain_cap = config.pipeline().channel_depth();
    let mut drain = Drain::default();
    // A message taken while draining that ends the round; handled next.
    let mut next: Option<WorkerMsg> = None;

    while let Some(msg) = next.take().or_else(|| rx.recv().ok()) {
        match msg {
            WorkerMsg::Batch {
                conn,
                updates,
                magnitude,
            } => {
                drain.start(&updates, magnitude);
                // The round holds coalesced updates only.
                drop(updates);
                for _ in 0..drain_cap {
                    match rx.try_recv() {
                        Ok(WorkerMsg::Batch {
                            conn: queued,
                            updates,
                            magnitude,
                        }) if (shard.is_some() || queued == conn) && drain.fits(magnitude) => {
                            drain.absorb(&updates, magnitude);
                        }
                        Ok(other) => {
                            next = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                match &shard {
                    Some(shard) => {
                        let due = {
                            let mut guard = shard.acc.lock().expect("shard lock poisoned");
                            guard.sketch.update_batch(&drain.union);
                            guard.pending += drain.raw;
                            guard.pending >= k
                        };
                        if due {
                            if let Err(e) = flush_shard(shard, prototype, coordinator, &publish) {
                                let _ = replies.send((conn, Response::Err(e.to_string())));
                            }
                        }
                    }
                    None => {
                        let st = conns.entry(conn).or_insert_with(fresh);
                        st.acc.update_batch(&drain.union);
                        st.count += drain.raw;
                    }
                }
            }
            WorkerMsg::End { conn } => {
                let folded = match &shard {
                    Some(shard) => flush_shard(shard, prototype, coordinator, &publish)
                        .map(|()| coordinator.durable_count()),
                    None => {
                        let st = conns.remove(&conn).unwrap_or_else(fresh);
                        coordinator.merge(&st.acc, st.count).map(|(durable, due)| {
                            publish_due(&publish, due);
                            durable
                        })
                    }
                };
                match folded {
                    Ok(durable) => {
                        coordinator.note_stream_completed();
                        let _ = replies.send((conn, Response::Ok(durable)));
                    }
                    Err(e) => {
                        let _ = replies.send((conn, Response::Err(e.to_string())));
                    }
                }
            }
            WorkerMsg::Fail { conn, reason } => {
                // A shard keeps the stream's decoded prefix: it is already
                // absorbed and folds on the next flush.  A per-connection
                // accumulator is dropped whole.
                let discarded = conns.remove(&conn).map_or(0, |st| st.count);
                coordinator.note_stream_failed(discarded);
                let _ = replies.send((conn, Response::Err(reason)));
            }
        }
    }
}

/// What [`Reactor::advance`] decided a connection needs next; actions are
/// applied after the phase borrow ends.
enum Act {
    /// Nothing (or nothing more) to do this tick.
    Wait,
    /// The sniffed prefix is the wire magic: start a framed stream.
    StartIngest,
    /// A complete command line arrived.
    Command(String),
    /// The accumulated line exceeds [`MAX_COMMAND_BYTES`].
    Oversized,
    /// The stream decoder parked an error.
    StreamError(String),
    /// The stream reached its end-of-stream frame.
    StreamEnd,
    /// Mid-stream: dispatch the buffered batch if it is large enough.
    StreamFlow,
}

struct Reactor<'a, S: ServableSketch> {
    prototype: &'a S,
    config: &'a ServeConfig,
    coordinator: &'a MergeCoordinator<S>,
    txs: &'a [SyncSender<WorkerMsg>],
    shards: &'a [Arc<Shard<S>>],
    publish: &'a SyncSender<CheckpointEnvelope>,
    dispatch_at: usize,
    domain: u64,
    draining: bool,
}

impl<S: ServableSketch> Reactor<'_, S> {
    /// The readiness loop.  Returns once a `QUIT` drain has finished every
    /// in-flight request.
    fn serve_loop(
        &mut self,
        listener: &TcpListener,
        replies: &Receiver<(u64, Response)>,
    ) -> Result<(), ServeError> {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id: u64 = 0;
        let timeout = self.config.client_read_timeout();
        let max_connections = self.config.max_connections();
        let mut read_buf = vec![0u8; READ_CHUNK];
        let mut last_progress = Instant::now();

        loop {
            let mut progress = false;
            let now = Instant::now();

            // Accept everything pending: register, shed, or (while
            // draining) refuse silently.
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        if self.draining {
                            drop(stream);
                        } else if conns.len() >= max_connections {
                            self.config.emit(&ServeEvent::ConnectionShed {
                                active: conns.len(),
                                max_connections,
                            });
                            // Typed refusal, best effort.  Accepted sockets
                            // are blocking (they do not inherit the
                            // listener's non-blocking flag on the platforms
                            // we target), and a fresh socket's send buffer
                            // swallows this short line without blocking.
                            let mut stream = stream;
                            let _ = writeln!(stream, "{}", Response::Busy(max_connections as u64));
                        } else if let Err(e) = stream.set_nonblocking(true) {
                            self.config.emit(&ServeEvent::ConnectionError {
                                reason: e.to_string(),
                            });
                        } else {
                            let id = next_id;
                            next_id += 1;
                            let worker = (id as usize) % self.txs.len();
                            conns.insert(id, Conn::new(id, stream, worker, now));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => {
                        self.config.emit(&ServeEvent::AcceptFailed {
                            reason: e.to_string(),
                        });
                        break;
                    }
                }
            }

            // Route worker replies into their connections' write buffers.
            while let Ok((id, response)) = replies.try_recv() {
                progress = true;
                route_reply(&mut conns, id, &response);
            }

            // Per-connection I/O and state machines.
            for conn in conns.values_mut() {
                progress |= self.step_conn(conn, &mut read_buf, now, timeout)?;
            }
            conns.retain(|_, c| !c.dead);

            if self.draining {
                // Keep only connections in the middle of a request (their
                // streams drain to completion) or with unflushed replies;
                // idle and stalled connections drop immediately, so one
                // silent peer cannot wedge a clean shutdown.
                conns.retain(|_, c| c.mid_request() || !c.outbuf.is_empty());
                if conns.is_empty() {
                    return Ok(());
                }
            }

            if progress {
                last_progress = now;
            } else if now.duration_since(last_progress) < IDLE_SLEEP {
                std::thread::yield_now();
            } else {
                // A reply taken here is routed before any later one, so
                // each connection's replies keep their order.
                match replies.recv_timeout(IDLE_SLEEP) {
                    Ok((id, response)) => route_reply(&mut conns, id, &response),
                    Err(RecvTimeoutError::Timeout) => {}
                    // Every worker has panicked; the scope join surfaces
                    // it.  Sleep so the loop does not spin meanwhile.
                    Err(RecvTimeoutError::Disconnected) => std::thread::sleep(IDLE_SLEEP),
                }
            }
        }
    }

    /// Advance one connection: flush owed bytes, read ready bytes, run the
    /// request state machine, resolve EOF, apply the idle timeout.
    fn step_conn(
        &mut self,
        conn: &mut Conn,
        buf: &mut [u8],
        now: Instant,
        timeout: Option<Duration>,
    ) -> Result<bool, ServeError> {
        let mut progress = false;

        // Flush owed bytes.
        while !conn.outbuf.is_empty() {
            match conn.stream.write(&conn.outbuf) {
                Ok(0) => {
                    conn.dead = true;
                    return Ok(true);
                }
                Ok(n) => {
                    conn.outbuf.drain(..n);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.config.emit(&ServeEvent::ConnectionError {
                        reason: e.to_string(),
                    });
                    self.abort_conn(conn);
                    return Ok(true);
                }
            }
        }
        if conn.close_after_flush
            && conn.outbuf.is_empty()
            && !matches!(conn.phase, Phase::AwaitReply)
        {
            conn.dead = true;
            return Ok(true);
        }

        // Read ready bytes — unless a reply is owed (ordering: buffered
        // pipelined requests wait their turn) or the connection is closing.
        if !conn.eof && !conn.close_after_flush && !matches!(conn.phase, Phase::AwaitReply) {
            let mut reads = 0;
            loop {
                match conn.stream.read(buf) {
                    Ok(0) => {
                        conn.eof = true;
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        conn.inbuf.extend_from_slice(&buf[..n]);
                        conn.last_activity = now;
                        progress = true;
                        reads += 1;
                        if n < buf.len() || reads >= READS_PER_TICK {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => {
                        self.config.emit(&ServeEvent::ConnectionError {
                            reason: e.to_string(),
                        });
                        self.abort_conn(conn);
                        return Ok(true);
                    }
                }
            }
        }

        progress |= self.advance(conn)?;

        // EOF resolution, once the state machine has consumed what it can.
        if conn.eof && !conn.close_after_flush && !conn.dead {
            match conn.phase {
                Phase::AwaitReply => conn.close_after_flush = true,
                Phase::Ingest(_) => {
                    self.fail_ingest(
                        conn,
                        "wire stream closed before its end-of-stream frame".to_string(),
                    );
                    progress = true;
                }
                Phase::Text => {
                    if conn.inbuf.is_empty() {
                        if conn.outbuf.is_empty() {
                            conn.dead = true;
                            progress = true;
                        } else {
                            conn.close_after_flush = true;
                        }
                    } else {
                        // A final line the peer never newline-terminated.
                        let line = std::mem::take(&mut conn.inbuf);
                        let line = String::from_utf8_lossy(&line).to_string();
                        self.handle_command(conn, &line)?;
                        conn.close_after_flush = true;
                        progress = true;
                    }
                }
            }
        }

        // Idle timeout (never while a reply is owed — that wait is ours).
        if let Some(t) = timeout {
            if !conn.dead
                && !matches!(conn.phase, Phase::AwaitReply)
                && now.duration_since(conn.last_activity) > t
            {
                let idle_ms = now.duration_since(conn.last_activity).as_millis() as u64;
                self.config
                    .emit(&ServeEvent::ConnectionTimedOut { idle_ms });
                if matches!(conn.phase, Phase::Ingest(_)) {
                    self.fail_ingest(conn, format!("client idle for {idle_ms}ms mid-stream"));
                } else {
                    conn.dead = true;
                }
                progress = true;
            }
        }

        Ok(progress)
    }

    /// Run the request state machine over whatever `inbuf` holds.
    fn advance(&mut self, conn: &mut Conn) -> Result<bool, ServeError> {
        let mut progress = false;
        loop {
            let act = match &mut conn.phase {
                Phase::Text => {
                    if conn.close_after_flush {
                        Act::Wait
                    } else if conn.inbuf.len() >= WIRE_MAGIC.len()
                        && conn.inbuf[..WIRE_MAGIC.len()] == WIRE_MAGIC
                    {
                        Act::StartIngest
                    } else if let Some(pos) = conn.inbuf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = conn.inbuf.drain(..=pos).collect();
                        Act::Command(String::from_utf8_lossy(&line[..pos]).to_string())
                    } else if conn.inbuf.len() > MAX_COMMAND_BYTES {
                        Act::Oversized
                    } else {
                        Act::Wait
                    }
                }
                Phase::Ingest(decoder) => {
                    let consumed = decoder.feed(&conn.inbuf);
                    if consumed > 0 {
                        conn.inbuf.drain(..consumed);
                        progress = true;
                    }
                    if decoder.drain_into(&mut conn.batch) > 0 {
                        progress = true;
                    }
                    if let Some(e) = decoder.take_error() {
                        Act::StreamError(e.to_string())
                    } else if decoder.finished() {
                        Act::StreamEnd
                    } else {
                        Act::StreamFlow
                    }
                }
                Phase::AwaitReply => Act::Wait,
            };
            match act {
                Act::Wait => break,
                Act::StartIngest => {
                    conn.phase = Phase::Ingest(Box::new(
                        FrameDecoder::new().with_expected_domain(self.domain),
                    ));
                    progress = true;
                }
                Act::Command(line) => {
                    self.handle_command(conn, &line)?;
                    progress = true;
                }
                Act::Oversized => {
                    self.reply(conn, &Response::Err("command line too long".into()));
                    conn.inbuf.clear();
                    conn.close_after_flush = true;
                    progress = true;
                    break;
                }
                Act::StreamError(reason) => {
                    self.fail_ingest(conn, reason);
                    progress = true;
                    break;
                }
                Act::StreamEnd => {
                    match self.dispatch_batch(conn) {
                        Ok(()) => {
                            self.send(conn.worker, WorkerMsg::End { conn: conn.id });
                            conn.phase = Phase::AwaitReply;
                        }
                        Err(reason) => self.fail_ingest(conn, reason),
                    }
                    progress = true;
                    break;
                }
                Act::StreamFlow => {
                    if conn.batch.len() >= self.dispatch_at {
                        if let Err(reason) = self.dispatch_batch(conn) {
                            self.fail_ingest(conn, reason);
                        }
                        progress = true;
                    }
                    break;
                }
            }
        }
        Ok(progress)
    }

    /// Answer one command line on the reactor thread.  Queries fold the
    /// shards first: "published state" means *everything decoded and
    /// acknowledged so far*, as if one serving sketch had absorbed it all.
    fn handle_command(&mut self, conn: &mut Conn, line: &str) -> Result<(), ServeError> {
        match Command::parse(line) {
            Ok(Command::Est { function }) => {
                self.flush_serving_state()?;
                let estimate = match &function {
                    None => Some(self.coordinator.estimate()),
                    Some(name) => self.coordinator.estimate_named(name),
                };
                match estimate {
                    Some(value) => self.reply(
                        conn,
                        &Response::Est {
                            bits: value.to_bits(),
                        },
                    ),
                    None => {
                        // A well-formed query for a function the registry
                        // does not hold: a typed refusal, but the line
                        // framing is intact — the connection stays usable
                        // (`FUNCS` tells the client what is registered).
                        let name = function.expect("bare EST always answers");
                        self.reply(conn, &Response::Err(format!("unknown function {name:?}")));
                    }
                }
            }
            Ok(Command::Funcs) => {
                // Names are registration-time configuration, not absorbed
                // state: no shard flush needed.
                self.reply(conn, &Response::Funcs(self.coordinator.function_names()));
            }
            Ok(Command::Count) => {
                self.flush_serving_state()?;
                self.reply(conn, &Response::Count(self.coordinator.durable_count()));
            }
            Ok(Command::Quit) => {
                self.reply(conn, &Response::Bye);
                conn.close_after_flush = true;
                self.draining = true;
            }
            Err(e) => {
                self.reply(conn, &Response::Err(e.to_string()));
                conn.close_after_flush = true;
            }
        }
        Ok(())
    }

    /// Fold every worker shard into the published serving state.
    fn flush_serving_state(&self) -> Result<(), ServeError> {
        for shard in self.shards {
            flush_shard(shard, self.prototype, self.coordinator, self.publish)?;
        }
        Ok(())
    }

    /// A stream died on the reactor's side of the fence (decode error,
    /// truncation, idle timeout, hostile deltas): ship the decoded
    /// remainder plus the failure to the worker, which resolves it per
    /// policy and replies.
    fn fail_ingest(&mut self, conn: &mut Conn, reason: String) {
        self.config.emit(&ServeEvent::StreamFailed {
            reason: reason.clone(),
        });
        // A hostile remainder is dropped; the stream fails either way.
        let _ = self.dispatch_batch(conn);
        self.send(
            conn.worker,
            WorkerMsg::Fail {
                conn: conn.id,
                reason,
            },
        );
        conn.phase = Phase::AwaitReply;
        conn.close_after_flush = true;
    }

    /// The connection itself died (I/O error): no reply is deliverable,
    /// but the worker still needs the failure for policy + bookkeeping.
    fn abort_conn(&mut self, conn: &mut Conn) {
        if matches!(conn.phase, Phase::Ingest(_)) {
            let reason = "connection lost mid-stream".to_string();
            self.config.emit(&ServeEvent::StreamFailed {
                reason: reason.clone(),
            });
            let _ = self.dispatch_batch(conn);
            self.send(
                conn.worker,
                WorkerMsg::Fail {
                    conn: conn.id,
                    reason,
                },
            );
        }
        conn.dead = true;
    }

    /// Ship the connection's decoded batch to its worker.  A batch that
    /// fails [`check_delta_magnitudes`] is dropped instead and the reason
    /// returned, so hostile deltas can neither panic a worker nor wrap
    /// silently into its sketch.
    fn dispatch_batch(&self, conn: &mut Conn) -> Result<(), String> {
        if conn.batch.is_empty() {
            return Ok(());
        }
        let updates = std::mem::take(&mut conn.batch);
        let magnitude = check_delta_magnitudes(&updates).map_err(|_| {
            format!(
                "rejected a batch of {} updates: its delta magnitudes sum past i64::MAX",
                updates.len()
            )
        })?;
        self.send(
            conn.worker,
            WorkerMsg::Batch {
                conn: conn.id,
                updates,
                magnitude,
            },
        );
        Ok(())
    }

    /// Blocking send: a full worker queue backpressures the reactor (and
    /// through unread sockets, the clients) instead of growing a buffer.
    /// Workers never wait on the reactor, so this cannot deadlock.
    fn send(&self, worker: usize, msg: WorkerMsg) {
        // An Err means the worker is gone, which happens only if it
        // panicked.  The message is then lost: its connection never gets a
        // reply, and a `QUIT` drain waits on it.
        let _ = self.txs[worker].send(msg);
    }

    fn reply(&self, conn: &mut Conn, response: &Response) {
        conn.outbuf
            .extend_from_slice(response.to_string().as_bytes());
        conn.outbuf.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsum_core::{GSumConfig, OnePassGSumSketch};
    use gsum_gfunc::library::PowerFunction;
    use gsum_streams::StreamSink;
    use gsum_streams::{Checkpoint, CheckpointError, MergeError, MergeableSketch, ShardedIngest};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    const UPDATES: u64 = 100;

    type Sketch = OnePassGSumSketch<PowerFunction>;

    fn prototype() -> Sketch {
        let config = GSumConfig::with_space_budget(64, 0.25, 64, 11);
        OnePassGSumSketch::new(PowerFunction::new(2.0), &config)
    }

    /// A shard that has absorbed `UPDATES` updates not yet folded.
    fn loaded_shard(prototype: &Sketch) -> Shard<Sketch> {
        let mut sketch = prototype.clone();
        let updates: Vec<Update> = (0..UPDATES).map(|i| Update::new(i % 64, 1)).collect();
        sketch.update_batch(&updates);
        Shard {
            acc: Mutex::new(ShardAcc {
                sketch,
                pending: UPDATES,
            }),
            fold_lock: Mutex::new(()),
        }
    }

    /// Run `flush_shard` on its own thread; the receiver yields once it
    /// has returned.
    fn spawn_flush<'s, S: ServableSketch>(
        scope: &'s std::thread::Scope<'s, '_>,
        shard: &'s Shard<S>,
        prototype: &'s S,
        coordinator: &'s MergeCoordinator<S>,
        publish: SyncSender<CheckpointEnvelope>,
    ) -> Receiver<()> {
        let (tx, rx) = mpsc::channel();
        scope.spawn(move || {
            flush_shard(shard, prototype, coordinator, &publish).expect("flush");
            tx.send(()).expect("test thread alive");
        });
        rx
    }

    #[test]
    fn flush_waits_for_an_in_flight_fold_of_the_same_shard() {
        let prototype = prototype();
        let shard = loaded_shard(&prototype);
        let coordinator =
            MergeCoordinator::new(prototype.clone(), 0, 1 << 20, None).expect("coordinator");
        // No checkpoint path: nothing is ever due, so nothing is published.
        let (publish, _envelopes) = mpsc::sync_channel(1);
        // Stand in for another flush that has taken the accumulator and
        // not yet merged it: the shard reads empty, but its updates are
        // not durable.
        let folding = shard.fold_lock.lock().unwrap();
        let (taken, pending) = {
            let mut guard = shard.acc.lock().unwrap();
            let taken = std::mem::replace(&mut guard.sketch, prototype.clone());
            (taken, std::mem::take(&mut guard.pending))
        };
        std::thread::scope(|scope| {
            let flushed = spawn_flush(scope, &shard, &prototype, &coordinator, publish);
            assert!(
                flushed.recv_timeout(Duration::from_millis(200)).is_err(),
                "a flush must not return while another fold of its shard is in flight"
            );
            coordinator.merge(&taken, pending).expect("merge");
            drop(folding);
            flushed
                .recv_timeout(Duration::from_secs(30))
                .expect("flush returns once the in-flight fold lands");
            assert_eq!(coordinator.durable_count(), UPDATES);
        });
    }

    /// No serving thread writes snapshots: a fold that makes one due hands
    /// it to the publisher and returns, and so does a query's flush, while
    /// the publisher is held.  Once it is released, the envelope on disk is
    /// durable through everything the fold merged.
    #[test]
    fn flushes_do_not_wait_on_the_publisher() {
        let prototype = prototype();
        let shard = loaded_shard(&prototype);
        let path = std::env::temp_dir().join(format!(
            "gsum_serve_reactor_flush_{}.ckpt",
            std::process::id()
        ));
        // A cadence of 1: the fold below makes a snapshot due.
        let coordinator = MergeCoordinator::new(prototype.clone(), 0, 1, Some(path.clone()))
            .expect("coordinator");
        let config = ServeConfig::new();
        let (publish, envelopes) = mpsc::sync_channel(1);
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| publish_loop(envelopes, &coordinator, &config));
            coordinator.with_publisher_held(|| {
                let folded = spawn_flush(scope, &shard, &prototype, &coordinator, publish.clone());
                folded
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a fold must not wait for its snapshot to be written");
                assert_eq!(coordinator.durable_count(), UPDATES);
                // A query's flush of the same (now empty) shard returns too.
                let queried = spawn_flush(scope, &shard, &prototype, &coordinator, publish.clone());
                queried
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a query's flush must not wait for a snapshot write");
                assert_eq!(coordinator.stats().snapshots_written, 0);
            });
            drop(publish);
            publisher.join().expect("publisher");
        });
        assert_eq!(coordinator.stats().snapshots_written, 1);
        let on_disk = CheckpointEnvelope::load(&path)
            .expect("load")
            .expect("the publisher wrote the envelope");
        assert_eq!(on_disk.durable_count(), UPDATES);
        let _ = std::fs::remove_file(&path);
    }

    /// A served sketch that counts its `update_batch` calls; clones share
    /// the count, so it covers a shard's accumulator across takes.
    #[derive(Clone)]
    struct Counting {
        inner: Sketch,
        batches: Arc<AtomicUsize>,
    }

    impl Counting {
        fn new(inner: Sketch) -> Self {
            Self {
                inner,
                batches: Arc::new(AtomicUsize::new(0)),
            }
        }

        fn batches(&self) -> usize {
            self.batches.load(AtomicOrdering::SeqCst)
        }
    }

    impl StreamSink for Counting {
        fn update(&mut self, update: Update) {
            self.inner.update(update);
        }

        fn update_batch(&mut self, updates: &[Update]) {
            self.batches.fetch_add(1, AtomicOrdering::SeqCst);
            self.inner.update_batch(updates);
        }
    }

    impl MergeableSketch for Counting {
        fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
            self.inner.merge(&other.inner)
        }
    }

    impl Checkpoint for Counting {
        fn save(&self, w: &mut impl std::io::Write) -> Result<(), CheckpointError> {
            self.inner.save(w)
        }

        fn restore(r: &mut impl std::io::Read) -> Result<Self, CheckpointError> {
            Ok(Self::new(Sketch::restore(r)?))
        }
    }

    impl ServableSketch for Counting {
        fn domain(&self) -> u64 {
            self.inner.domain()
        }

        fn estimate(&self) -> f64 {
            ServableSketch::estimate(&self.inner)
        }

        fn function_names(&self) -> Vec<String> {
            ServableSketch::function_names(&self.inner)
        }
    }

    /// Queue `batches` on connection 0, then its `End`, before a
    /// `MergeCompleted` worker starts; run the worker to completion.
    /// Returns the prototype (whose shared count saw every `update_batch`),
    /// the coordinator, and the worker's replies.
    fn drain_queued(
        batches: &[Vec<Update>],
    ) -> (Counting, MergeCoordinator<Counting>, Vec<(u64, Response)>) {
        let prototype = Counting::new(prototype());
        let coordinator =
            MergeCoordinator::new(prototype.clone(), 0, 1 << 30, None).expect("coordinator");
        let config = ServeConfig::new()
            .with_policy(crate::ServePolicy::MergeCompleted)
            .with_checkpoint_every(1 << 30)
            .with_pipeline(ShardedIngest::new(1).with_channel_depth(batches.len() + 1));
        let (tx, rx) = mpsc::sync_channel(batches.len() + 1);
        for updates in batches {
            let magnitude = check_delta_magnitudes(updates).expect("each batch is in range");
            tx.send(WorkerMsg::Batch {
                conn: 0,
                updates: updates.clone(),
                magnitude,
            })
            .expect("queue");
        }
        tx.send(WorkerMsg::End { conn: 0 }).expect("queue");
        drop(tx);
        let shard = Arc::new(Shard {
            acc: Mutex::new(ShardAcc {
                sketch: prototype.clone(),
                pending: 0,
            }),
            fold_lock: Mutex::new(()),
        });
        let (replies_tx, replies) = mpsc::channel();
        let (publish, _envelopes) = mpsc::sync_channel(1);
        worker_loop(
            rx,
            replies_tx,
            Some(shard),
            &prototype,
            &coordinator,
            publish,
            &config,
        );
        (prototype, coordinator, replies.try_iter().collect())
    }

    /// Checkpoint bytes of a single-threaded sketch fed `batches` one
    /// `update_batch` at a time.
    fn replay_bytes(batches: &[Vec<Update>]) -> Vec<u8> {
        let mut single = prototype();
        for updates in batches {
            single.update_batch(updates);
        }
        single.to_checkpoint_bytes().expect("save")
    }

    #[test]
    fn a_worker_applies_every_queued_batch_as_one_coalesced_batch() {
        // Overlapping items across batches, cancelling deltas included.
        let updates: Vec<Update> = (0..1000u64)
            .map(|i| {
                let item = if i % 3 == 0 { 5 } else { (i * 13 + i / 7) % 64 };
                Update::new(item, if i % 4 == 0 { -2 } else { 1 + (i % 5) as i64 })
            })
            .collect();
        let batches: Vec<Vec<Update>> = updates.chunks(97).map(<[_]>::to_vec).collect();
        let total = updates.len() as u64;
        let (prototype, coordinator, replies) = drain_queued(&batches);
        assert_eq!(replies, vec![(0, Response::Ok(total))]);
        assert_eq!(
            prototype.batches(),
            1,
            "the queued batches must reach the sketch as one update_batch"
        );
        let folded = coordinator.snapshot().expect("snapshot");
        assert_eq!(folded.durable_count(), total);
        assert_eq!(folded.state_bytes(), replay_bytes(&batches).as_slice());
    }

    #[test]
    fn a_worker_stops_draining_before_the_union_could_overflow() {
        // Each batch passes the magnitude check alone; their union would
        // hold item 7 at 2 · i64::MAX.
        let batches = vec![vec![Update::new(7, i64::MAX)]; 2];
        let (prototype, coordinator, replies) = drain_queued(&batches);
        assert_eq!(replies, vec![(0, Response::Ok(2))]);
        assert_eq!(prototype.batches(), 2, "the batches must be applied apart");
        let folded = coordinator.snapshot().expect("snapshot");
        assert_eq!(folded.state_bytes(), replay_bytes(&batches).as_slice());
    }
}
