//! Property and protocol tests for the reactor serving loop.
//!
//! The tentpole claim of the reactor rewrite is that **sharding changed
//! nothing observable**: per-worker shard sketches folding into the
//! published serving state on query/checkpoint/stream-end land in
//! checkpoint bytes **bit-identical** to a single-threaded replay of the
//! concatenated kept updates — for both hash backends, both
//! [`ServePolicy`] values, any worker-pool size, and with load shedding
//! (`BUSY` refusals) happening along the way.  Linearity licenses the
//! claim (integer-valued `f64` counters add exactly, so the multiset of
//! increments determines the counters regardless of which shard absorbed
//! what); the proptest here enforces it over real loopback sockets.
//!
//! Also covered, over the reactor path specifically: command lines split
//! across readiness events, wire frames split mid-frame across writes,
//! oversized command lines, interleaved queries and ingest streams
//! pipelined on one connection, the deterministic `BUSY` shed reply,
//! stream acks that stay durable while queries flush the same shard, a
//! stream of hostile deltas failing alone without taking the server down,
//! a restart from a mid-stream envelope that replays the non-durable
//! suffix back to the uninterrupted state, a boot that refuses an
//! envelope written by another prototype, snapshot writes that fail
//! while serving without failing a stream or the server, and a test body
//! that panics before its `QUIT` failing instead of hanging.

mod common;

use common::QuitOnDrop;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use zerolaw::prelude::*;
use zerolaw::streams::wire::encode_updates;

const DOMAIN: u64 = 64;
const BACKENDS: [HashBackend; 2] = [HashBackend::Polynomial, HashBackend::Tabulation];
const POLICIES: [ServePolicy; 2] = [ServePolicy::DiscardPartial, ServePolicy::MergeCompleted];
/// The item the tests' streams make heavy.  On flat streams this config
/// estimates 0.0, so an `EST` bit comparison would show nothing; with one
/// heavy item the estimate is non-zero and moves with the ingested state.
const HEAVY: u64 = 5;

fn proto(backend: HashBackend) -> OnePassGSumSketch<PowerFunction> {
    let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 11).with_hash_backend(backend);
    OnePassGSumSketch::new(PowerFunction::new(2.0), &config)
}

/// Encode one client stream.  `truncate_at: Some(k)` emits the first `k`
/// updates in complete frames and then just stops — no end-of-stream
/// frame, the wire shape of a producer crash.
fn encode_client(updates: &[Update], truncate_at: Option<usize>) -> Vec<u8> {
    match truncate_at {
        None => encode_updates(DOMAIN, updates).expect("encode"),
        Some(k) => {
            let mut buf = Vec::new();
            let mut writer = FrameWriter::new(&mut buf, DOMAIN)
                .expect("header")
                .with_frame_updates(16)
                .expect("frame size");
            writer.write_batch(&updates[..k]).expect("prefix");
            writer.flush_frame().expect("flush");
            drop(writer); // no finish(): the stream is truncated
            buf
        }
    }
}

/// What the policy keeps of a client stream.
fn kept(updates: &[Update], cut: Option<usize>, policy: ServePolicy) -> &[Update] {
    match (cut, policy) {
        (None, _) => updates,
        (Some(k), ServePolicy::MergeCompleted) => &updates[..k],
        (Some(_), ServePolicy::DiscardPartial) => &[],
    }
}

type ClientSpec = (Vec<Update>, Option<usize>);
type RawClient = (Vec<(u64, i64)>, u64, u64);

/// The generated clients, in order, then one complete client that streams
/// only [`HEAVY`]: whatever the cuts and the policy discard, the kept
/// state has a heavy item, so `EST` answers from a non-zero estimate.
fn client_specs(raw: &[RawClient]) -> Vec<ClientSpec> {
    let mut specs: Vec<ClientSpec> = raw
        .iter()
        .map(|(pairs, fail_die, cut_frac)| {
            let updates: Vec<Update> = pairs.iter().map(|&(i, d)| Update::new(i, d)).collect();
            let cut = (fail_die % 3 == 0).then(|| (*cut_frac as usize * updates.len()) / 10_000);
            (updates, cut)
        })
        .collect();
    specs.push(((1..=32).map(|d| Update::new(HEAVY, d)).collect(), None));
    specs
}

/// Single-threaded reference: one sketch absorbing every client's kept
/// updates in canonical order (the fold order the sharded server uses is
/// arbitrary — linearity makes it irrelevant, and the bit-equality below
/// is the proof).
fn reference(
    specs: &[ClientSpec],
    policy: ServePolicy,
    backend: HashBackend,
) -> (OnePassGSumSketch<PowerFunction>, u64) {
    let mut single = proto(backend);
    let mut durable = 0u64;
    for (updates, cut) in specs {
        let keep = kept(updates, *cut, policy);
        for &u in keep {
            single.update(u);
        }
        durable += keep.len() as u64;
    }
    (single, durable)
}

/// Send one framed client stream and return the server's verdict,
/// retrying whenever the connection was load-shed (a `BUSY` reply — or a
/// reset that wiped it) instead of served.
fn run_client(addr: SocketAddr, bytes: &[u8], complete: bool) -> Response {
    for _ in 0..2_000 {
        let retry = || std::thread::sleep(Duration::from_millis(2));
        let Ok(mut stream) = TcpStream::connect(addr) else {
            retry();
            continue;
        };
        // On a shed connection the server has already hung up; the write
        // then fails or lands in the void, and the read below settles it.
        let _ = stream.write_all(bytes);
        if !complete {
            // A truncated producer "crashes": half-close the write side so
            // the server sees EOF mid-stream, then collect the verdict.
            let _ = stream.shutdown(Shutdown::Write);
        }
        let mut line = String::new();
        match BufReader::new(&stream).read_line(&mut line) {
            Ok(n) if n > 0 => {}
            // EOF or reset: the shed path's RST can wipe the BUSY line.
            _ => {
                retry();
                continue;
            }
        }
        match Response::parse(&line) {
            Ok(Response::Busy(_)) => retry(),
            Ok(resp) => return resp,
            Err(_) => retry(),
        }
    }
    panic!("client never got a verdict from the server");
}

/// Open a connection, confirm the server registered it (an answered `EST`
/// proves it occupies a connection slot), and keep it open.
fn holder(addr: SocketAddr) -> TcpStream {
    for _ in 0..2_000 {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        let mut line = String::new();
        // A shed connection closes with our `EST` unread, so the reset can
        // wipe its BUSY line: a failed exchange is a shed too.
        if writeln!(stream, "EST").is_err()
            || BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut line)
                .is_err()
        {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        match Response::parse(&line) {
            Ok(Response::Est { .. }) => return stream,
            Ok(Response::Busy(_)) | Err(_) => std::thread::sleep(Duration::from_millis(2)),
            Ok(other) => panic!("unexpected holder reply {other:?}"),
        }
    }
    panic!("holder connection never registered");
}

/// Run `EST`, `COUNT`, `QUIT` over one persistent connection, retrying the
/// connect while lingering client slots drain.
fn query_and_quit(addr: SocketAddr) -> (u64, u64) {
    let stream = holder(addr); // the answered EST proves we hold a slot
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    writeln!(stream, "EST").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let Ok(Response::Est { bits }) = Response::parse(&line) else {
        panic!("expected EST reply, got {line:?}");
    };

    writeln!(stream, "COUNT").expect("send");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let Ok(Response::Count(count)) = Response::parse(&line) else {
        panic!("expected COUNT reply, got {line:?}");
    };

    writeln!(stream, "QUIT").expect("send");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert_eq!(Response::parse(&line), Ok(Response::Bye));
    (bits, count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole bit-exactness claim: N loopback clients through the
    /// reactor — a random subset dying mid-stream, every server first
    /// driven to its connection cap so at least one `BUSY` shed happens —
    /// land the serving state in checkpoint bytes identical to the
    /// single-threaded concat replay of the kept updates, under both hash
    /// backends, both policies, and varying worker-pool sizes.
    #[test]
    fn sharded_serving_equals_concat_replay_under_load_shedding(
        raw in prop::collection::vec(
            (prop::collection::vec((0..DOMAIN, -20i64..21), 1..80), 0u64..1_000, 0u64..10_000),
            1..5,
        ),
        workers in 1usize..4,
    ) {
        const MAX_CONNECTIONS: usize = 2;
        let specs = client_specs(&raw);
        for backend in BACKENDS {
            for policy in POLICIES {
                let (single, expect_durable) = reference(&specs, policy, backend);
                let expect_bytes = single.to_checkpoint_bytes().expect("save reference");
                prop_assert!(
                    single.estimate() > 0.0,
                    "{:?}/{:?}: a zero reference estimate makes the EST check vacuous",
                    policy, backend
                );

                let sheds = Arc::new(AtomicU64::new(0));
                let sheds_in_observer = Arc::clone(&sheds);
                let config = ServeConfig::new()
                    .with_policy(policy)
                    .with_checkpoint_every(37)
                    .with_workers(workers)
                    .with_max_connections(MAX_CONNECTIONS)
                    .with_pipeline(ShardedIngest::new(2).with_batch_size(31))
                    .with_observer(move |event| {
                        if matches!(event, ServeEvent::ConnectionShed { .. }) {
                            sheds_in_observer.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                let server = GsumServer::boot(proto(backend), config, None).expect("boot");
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                let addr = listener.local_addr().expect("addr");

                std::thread::scope(|scope| {
                    let server = &server;
                    let handle = scope.spawn(move || server.serve(listener).expect("serve"));
                    let quit = QuitOnDrop { addr, server: &handle };

                    // Force a deterministic shed: fill every connection
                    // slot, then watch one more connection get the typed
                    // refusal.
                    let holders: Vec<TcpStream> =
                        (0..MAX_CONNECTIONS).map(|_| holder(addr)).collect();
                    let shed = TcpStream::connect(addr).expect("connect");
                    let mut line = String::new();
                    BufReader::new(shed).read_line(&mut line).expect("read");
                    assert_eq!(
                        Response::parse(&line),
                        Ok(Response::Busy(MAX_CONNECTIONS as u64)),
                        "a connection past the cap must get the typed refusal"
                    );
                    drop(holders);

                    // The client fleet; contention past the cap resolves
                    // through BUSY-and-retry inside run_client.
                    let verdicts: Vec<Response> = std::thread::scope(|clients| {
                        let handles: Vec<_> = specs
                            .iter()
                            .map(|(updates, cut)| {
                                let bytes = encode_client(updates, *cut);
                                clients.spawn(move || run_client(addr, &bytes, cut.is_none()))
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().expect("client")).collect()
                    });
                    for ((_, cut), verdict) in specs.iter().zip(&verdicts) {
                        match cut {
                            None => prop_assert!(
                                matches!(verdict, Response::Ok(_)),
                                "complete stream must be acknowledged, got {:?}", verdict
                            ),
                            Some(_) => prop_assert!(
                                matches!(verdict, Response::Err(_)),
                                "truncated stream must be refused, got {:?}", verdict
                            ),
                        }
                    }

                    let (est_bits, count) = query_and_quit(addr);
                    prop_assert_eq!(count, expect_durable);
                    prop_assert_eq!(
                        est_bits, single.estimate().to_bits(),
                        "EST must answer from exactly the reference state"
                    );

                    drop(quit);
                    let summary = handle.join().expect("server thread");
                    prop_assert!(summary.clean_shutdown);
                    let cut_count = specs.iter().filter(|(_, c)| c.is_some()).count() as u64;
                    prop_assert_eq!(summary.stats.streams_completed,
                        specs.len() as u64 - cut_count);
                    prop_assert_eq!(summary.stats.streams_failed, cut_count);
                    if policy == ServePolicy::DiscardPartial {
                        let discarded: u64 =
                            specs.iter().filter_map(|(_, c)| *c).map(|c| c as u64).sum();
                        prop_assert_eq!(summary.stats.updates_discarded, discarded);
                    } else {
                        prop_assert_eq!(summary.stats.updates_discarded, 0);
                    }
                    prop_assert!(
                        sheds.load(Ordering::Relaxed) >= 1,
                        "the forced shed must be observed"
                    );
                    Ok(())
                })?;

                let snapshot = server.coordinator().snapshot().expect("snapshot");
                prop_assert_eq!(snapshot.durable_count(), expect_durable);
                prop_assert_eq!(
                    snapshot.state_bytes(),
                    expect_bytes.as_slice(),
                    "{:?}/{:?}/{} workers: sharded serving state must equal \
                     the single-threaded concat replay bit for bit",
                    policy, backend, workers
                );
            }
        }
    }
}

/// Boot a server, hand its address to the body, and join the server once
/// the body returns.  The body must end with a `QUIT`; if it panics first,
/// a [`QuitOnDrop`] guard shuts the server down so the test fails instead
/// of hanging.
fn with_server<T>(
    config: ServeConfig,
    body: impl FnOnce(SocketAddr) -> T,
) -> (
    T,
    ServeSummary,
    GsumServer<OnePassGSumSketch<PowerFunction>>,
) {
    let server = GsumServer::boot(proto(HashBackend::Polynomial), config, None).expect("boot");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (out, summary) = std::thread::scope(|scope| {
        let server = &server;
        let handle = scope.spawn(move || server.serve(listener).expect("serve"));
        let out = {
            let _quit = QuitOnDrop {
                addr,
                server: &handle,
            };
            body(addr)
        };
        (out, handle.join().expect("server thread"))
    });
    (out, summary, server)
}

/// A body that panics before its `QUIT`, here with a stream left half
/// sent, fails the test: the guard in [`with_server`] shuts the server
/// down, so the scope's join returns and the panic propagates.
#[test]
#[should_panic(expected = "the body failed before QUIT")]
fn a_body_that_panics_before_quit_fails_instead_of_hanging() {
    let updates: Vec<Update> = (0..100u64).map(|i| Update::new(i % DOMAIN, 1)).collect();
    let bytes = encode_client(&updates, None);
    with_server(ServeConfig::new(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&bytes[..bytes.len() / 2])
            .expect("half a stream");
        panic!("the body failed before QUIT");
    });
}

/// A command line that arrives in two readiness events ("ES", pause, "T\n")
/// must parse exactly like one write — and the connection stays usable.
#[test]
fn command_split_across_readiness_events_parses_whole() {
    let ((), summary, _server) = with_server(ServeConfig::new(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        stream.write_all(b"ES").expect("first half");
        std::thread::sleep(Duration::from_millis(30));
        stream.write_all(b"T\n").expect("second half");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(
            matches!(Response::parse(&line), Ok(Response::Est { .. })),
            "split EST must answer: {line:?}"
        );

        // Same connection, next request: COUNT split byte by byte.
        for b in b"COUNT\n" {
            stream.write_all(&[*b]).expect("byte");
        }
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert_eq!(Response::parse(&line), Ok(Response::Count(0)));

        writeln!(stream, "QUIT").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert_eq!(Response::parse(&line), Ok(Response::Bye));
    });
    assert!(summary.clean_shutdown);
}

/// A framed wire stream dribbled out in arbitrary small chunks — cutting
/// headers, frame headers and update payloads mid-field — decodes to the
/// same acknowledged stream as one contiguous write.
#[test]
fn wire_stream_split_mid_frame_decodes_whole() {
    // Every other update hits the heavy item, so the estimate is non-zero.
    let updates: Vec<Update> = (0..100u64)
        .map(|i| match i % 2 {
            0 => Update::new(HEAVY, 7 + (i % 5) as i64),
            _ => Update::new(i % DOMAIN, 3 - (i / 2) as i64),
        })
        .collect();
    let mut single = proto(HashBackend::Polynomial);
    for &u in &updates {
        single.update(u);
    }
    assert!(single.estimate() > 0.0, "a degenerate stream");
    let bytes = encode_client(&updates, None);
    let ((verdict, (est_bits, count)), summary, server) = with_server(ServeConfig::new(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for chunk in bytes.chunks(7) {
            stream.write_all(chunk).expect("chunk");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("read");
        let verdict = Response::parse(&line).expect("parse");
        drop(stream);
        (verdict, query_and_quit(addr))
    });
    assert_eq!(verdict, Response::Ok(updates.len() as u64));
    assert_eq!(count, updates.len() as u64);
    assert_eq!(est_bits, single.estimate().to_bits(), "EST over the socket");
    assert!(summary.clean_shutdown);
    assert_eq!(
        server.estimate().to_bits(),
        single.estimate().to_bits(),
        "dribbled ingest must land on the single-shot state"
    );
    assert_eq!(
        server
            .coordinator()
            .snapshot()
            .expect("snapshot")
            .state_bytes(),
        single.to_checkpoint_bytes().expect("save").as_slice(),
        "dribbled ingest must land on the single-shot state bit for bit"
    );
}

/// Garbage that never newline-terminates is rejected with a typed error
/// once it exceeds the command-line bound, and the connection is closed —
/// not buffered forever.
#[test]
fn oversized_command_line_is_rejected_and_closed() {
    let ((), summary, _server) = with_server(ServeConfig::new(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&[b'X'; 300]).expect("garbage");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        match Response::parse(&line) {
            Ok(Response::Err(reason)) => {
                assert!(reason.contains("too long"), "reason: {reason:?}")
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        line.clear();
        let n = reader.read_line(&mut line).expect("read");
        assert_eq!(n, 0, "the connection must be closed after the rejection");
        drop(stream);
        query_and_quit(addr);
    });
    assert!(summary.clean_shutdown);
}

/// One connection, everything pipelined in a single write: a query, a full
/// ingest stream, another query, a second stream, QUIT.  The reactor must
/// preserve request boundaries (the decoder stops consuming at each END
/// frame) and answer in order.
#[test]
fn interleaved_queries_and_ingest_pipeline_on_one_connection() {
    let first: Vec<Update> = (0..40u64).map(|i| Update::new(i % DOMAIN, 2)).collect();
    let second: Vec<Update> = (0..25u64)
        .map(|i| Update::new((i * 3) % DOMAIN, -1))
        .collect();
    let mut wire = Vec::new();
    wire.extend_from_slice(b"EST\n");
    wire.extend_from_slice(&encode_client(&first, None));
    wire.extend_from_slice(b"COUNT\n");
    wire.extend_from_slice(&encode_client(&second, None));
    wire.extend_from_slice(b"QUIT\n");

    let (lines, summary, server) = with_server(ServeConfig::new(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&wire).expect("pipelined write");
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read") == 0 {
                break;
            }
            lines.push(Response::parse(&line).expect("parse"));
        }
        lines
    });
    let total = (first.len() + second.len()) as u64;
    assert!(
        matches!(lines[0], Response::Est { .. }),
        "first reply answers the leading EST: {lines:?}"
    );
    assert_eq!(lines[1], Response::Ok(first.len() as u64));
    assert_eq!(lines[2], Response::Count(first.len() as u64));
    assert_eq!(lines[3], Response::Ok(total));
    assert_eq!(lines[4], Response::Bye);
    assert_eq!(lines.len(), 5);
    assert!(summary.clean_shutdown);
    assert_eq!(server.durable_count(), total);
    assert_eq!(summary.stats.streams_completed, 2);
}

/// The shed reply is deterministic: with every slot provably occupied, the
/// next connection reads exactly `BUSY <cap>` and nothing is ingested.
#[test]
fn connection_past_the_cap_reads_busy_deterministically() {
    let sheds = Arc::new(AtomicU64::new(0));
    let sheds_in_observer = Arc::clone(&sheds);
    let config = ServeConfig::new()
        .with_max_connections(1)
        .with_observer(move |event| {
            if matches!(event, ServeEvent::ConnectionShed { .. }) {
                sheds_in_observer.fetch_add(1, Ordering::Relaxed);
            }
        });
    let sheds_in_body = Arc::clone(&sheds);
    let ((), summary, server) = with_server(config, |addr| {
        let occupant = holder(addr);
        for _ in 0..3 {
            let shed = TcpStream::connect(addr).expect("connect");
            let mut line = String::new();
            BufReader::new(shed).read_line(&mut line).expect("read");
            assert_eq!(Response::parse(&line), Ok(Response::Busy(1)));
        }
        // A received BUSY line means its shed was fully processed, so the
        // count is exact here; the retrying shutdown query below may race
        // the reaping of `occupant` and shed a few more times.
        assert_eq!(sheds_in_body.load(Ordering::Relaxed), 3);
        drop(occupant);
        query_and_quit(addr);
    });
    assert!(summary.clean_shutdown);
    assert!(sheds.load(Ordering::Relaxed) >= 3);
    assert_eq!(server.durable_count(), 0);
    assert_eq!(summary.stats.streams_failed, 0);
}

/// Sets the flag when dropped, so a helper thread polling it stops even if
/// the test body panics.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// An `OK n` ack must count the stream it acknowledges.  One connection
/// sends many short streams back to back while another sends `EST` as fast
/// as it is answered, so query flushes keep taking the worker's shard while
/// the worker is flushing it for a stream end.  The stream end must wait
/// for the racing fold to land before it reads the durable count.  With a
/// single ingest client the count at each ack is exactly what that client
/// has sent so far.
#[test]
fn stream_acks_stay_durable_while_queries_flush_the_shard() {
    const STREAMS: u64 = 400;
    const STREAM_LEN: u64 = 8;
    let config = ServeConfig::new()
        .with_policy(ServePolicy::MergeCompleted)
        .with_workers(1);
    let done = AtomicBool::new(false);
    let ((short, sent, queries), summary, server) = with_server(config, |addr| {
        std::thread::scope(|scope| {
            let querier = scope.spawn(|| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                let mut queries = 0u64;
                while !done.load(Ordering::Acquire) {
                    writeln!(stream, "EST").expect("send");
                    line.clear();
                    reader.read_line(&mut line).expect("read");
                    assert!(
                        matches!(Response::parse(&line), Ok(Response::Est { .. })),
                        "expected EST reply, got {line:?}"
                    );
                    queries += 1;
                }
                queries
            });
            let _stop_querier = SetOnDrop(&done);
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            let mut sent = 0u64;
            let mut short = Vec::new();
            for s in 0..STREAMS {
                let updates: Vec<Update> = (0..STREAM_LEN)
                    .map(|i| Update::new((s * STREAM_LEN + i) % DOMAIN, 1 + (i as i64 % 3)))
                    .collect();
                stream
                    .write_all(&encode_client(&updates, None))
                    .expect("stream");
                sent += STREAM_LEN;
                line.clear();
                reader.read_line(&mut line).expect("read");
                match Response::parse(&line) {
                    Ok(Response::Ok(n)) if n == sent => {}
                    Ok(Response::Ok(n)) => short.push((s, n, sent)),
                    other => panic!("expected OK for stream {s}, got {other:?}"),
                }
            }
            drop(_stop_querier);
            let queries = querier.join().expect("querier thread");
            drop(stream);
            query_and_quit(addr);
            (short, sent, queries)
        })
    });
    assert!(
        short.is_empty(),
        "{} of {STREAMS} acks (stream, acked, sent) undercount the stream: {:?}",
        short.len(),
        &short[..short.len().min(8)]
    );
    assert!(queries > 0, "the querier must have raced the streams");
    assert!(summary.clean_shutdown);
    assert_eq!(server.durable_count(), sent);
    assert_eq!(summary.stats.streams_completed, STREAMS);
}

/// Write `request` and read one reply line; the socket's read timeout
/// turns a reply that never comes into a test failure.
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &[u8]) -> Response {
    stream.write_all(request).expect("send");
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("reply within the read timeout");
    Response::parse(&line).unwrap_or_else(|e| panic!("unparsable reply {line:?}: {e}"))
}

/// A stream whose delta magnitudes sum past `i64::MAX` within one batch is
/// refused with `ERR` under either policy, and the server stays whole:
/// nothing of the stream reaches the serving state, `EST` still answers,
/// and `QUIT` still shuts the server down.  Every wait is bounded, so a
/// dead fold worker or a `serve` that never returns fails the test instead
/// of hanging it.
#[test]
fn hostile_delta_total_fails_the_stream_not_the_server() {
    const BOUND: Duration = Duration::from_secs(20);
    let benign = [Update::new(3, 5), Update::new(9, -2), Update::new(3, 1)];
    let hostile = [Update::new(7, i64::MAX), Update::new(7, 1)];
    for policy in POLICIES {
        let config = ServeConfig::new().with_policy(policy).with_workers(1);
        let server =
            Arc::new(GsumServer::boot(proto(HashBackend::Polynomial), config, None).expect("boot"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A detached server thread: a `serve` that never returns fails the
        // bounded wait below instead of wedging a scope join.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let serving = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = done_tx.send(serving.serve(listener).expect("serve"));
        });
        let connect = || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(BOUND)).expect("read timeout");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            (stream, reader)
        };

        let (mut stream, mut reader) = connect();
        let ack = exchange(&mut stream, &mut reader, &encode_client(&benign, None));
        assert_eq!(ack, Response::Ok(benign.len() as u64), "{policy:?}");
        match exchange(&mut stream, &mut reader, &encode_client(&hostile, None)) {
            Response::Err(reason) => assert!(reason.contains("i64"), "{policy:?}: {reason:?}"),
            other => panic!("{policy:?}: expected ERR for the hostile stream, got {other:?}"),
        }
        drop((stream, reader));

        let (mut stream, mut reader) = connect();
        assert!(
            matches!(
                exchange(&mut stream, &mut reader, b"EST\n"),
                Response::Est { .. }
            ),
            "{policy:?}: EST must still answer"
        );
        assert_eq!(
            exchange(&mut stream, &mut reader, b"COUNT\n"),
            Response::Count(benign.len() as u64),
            "{policy:?}: the hostile stream must leave the durable count unchanged"
        );
        assert_eq!(exchange(&mut stream, &mut reader, b"QUIT\n"), Response::Bye);
        let summary = done_rx
            .recv_timeout(BOUND)
            .unwrap_or_else(|_| panic!("{policy:?}: serve did not return after QUIT"));
        assert!(summary.clean_shutdown);
        assert_eq!(summary.stats.streams_completed, 1);
        assert_eq!(summary.stats.streams_failed, 1);
        assert_eq!(server.durable_count(), benign.len() as u64);
    }
}

/// The durable count of the envelope at `path` (0 before the first one).
fn durable_on_disk(path: &Path) -> u64 {
    CheckpointEnvelope::load(path)
        .expect("load envelope")
        .map_or(0, |env| env.durable_count())
}

/// Serve on a detached thread, so a failing test cannot wedge a join; the
/// receiver yields the summary once `serve` returns.
fn serve_detached(
    server: &Arc<GsumServer<OnePassGSumSketch<PowerFunction>>>,
) -> (SocketAddr, std::sync::mpsc::Receiver<ServeSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let serving = Arc::clone(server);
    std::thread::spawn(move || {
        let _ = done_tx.send(serving.serve(listener).expect("serve"));
    });
    (addr, done_rx)
}

/// Kill/resume on the production shard path.  A `MergeCompleted` server
/// with a checkpoint acknowledges one complete stream, then absorbs frames
/// of a second stream that never ends.  A copy of its envelope file taken
/// while it serves is exactly what a SIGKILL at that moment would leave,
/// because envelopes are published by temp file and rename.  A second
/// server booted from the copy reports the durable count `D`, and
/// replaying `updates[D..]` must land on the uninterrupted single-threaded
/// replay: the same `EST` bits and the same final snapshot bytes.
#[test]
fn restart_from_a_mid_stream_envelope_replays_to_the_uninterrupted_state() {
    const BOUND: Duration = Duration::from_secs(30);
    const TOTAL: usize = 600;
    const FIRST: usize = 200;
    // `updates[SENT..]` never reach the first server.
    const SENT: usize = 500;
    // Half the updates hit one heavy item.  Without one, this config
    // estimates 0 for the uninterrupted and the resumed state alike, and
    // comparing `EST` bits would show nothing.
    let updates: Vec<Update> = (0..TOTAL as u64)
        .map(|i| {
            let item = if i % 2 == 0 {
                HEAVY
            } else {
                (i * 7 + i / 5) % DOMAIN
            };
            let delta = 1 + (i % 5) as i64;
            Update::new(item, if i % 3 == 0 { -delta } else { delta })
        })
        .collect();
    let config = || {
        ServeConfig::new()
            .with_policy(ServePolicy::MergeCompleted)
            .with_checkpoint_every(37)
            .with_pipeline(ShardedIngest::new(2).with_batch_size(31))
    };
    let connect = |addr: SocketAddr| {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(BOUND)).expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };
    for backend in BACKENDS {
        let mut single = proto(backend);
        for &u in &updates {
            single.update(u);
        }
        assert!(single.estimate() > 0.0, "{backend:?}: a degenerate stream");
        let stem = format!("gsum_serve_restart_{}_{backend:?}", std::process::id());
        let live = std::env::temp_dir().join(format!("{stem}_live.ckpt"));
        let killed = std::env::temp_dir().join(format!("{stem}_killed.ckpt"));

        // Incarnation 1: serves until its envelope is durable past the
        // first stream, mid-way through the second.
        let server =
            Arc::new(GsumServer::boot(proto(backend), config(), Some(live.clone())).expect("boot"));
        let (addr, done) = serve_detached(&server);
        let (mut stream, mut reader) = connect(addr);
        assert_eq!(
            exchange(
                &mut stream,
                &mut reader,
                &encode_client(&updates[..FIRST], None)
            ),
            Response::Ok(FIRST as u64),
            "{backend:?}"
        );
        let second = encode_client(&updates[FIRST..SENT], Some(SENT - FIRST));
        let mut chunks = second.chunks(64);
        let deadline = std::time::Instant::now() + BOUND;
        while durable_on_disk(&live) <= FIRST as u64 {
            assert!(
                std::time::Instant::now() < deadline,
                "{backend:?}: no envelope durable past the first stream"
            );
            if let Some(chunk) = chunks.next() {
                stream.write_all(chunk).expect("send chunk");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        std::fs::copy(&live, &killed).expect("copy the envelope");
        // The copy is all that survives; incarnation 1's later state is moot.
        drop((stream, reader));
        let (mut stream, mut reader) = connect(addr);
        assert_eq!(exchange(&mut stream, &mut reader, b"QUIT\n"), Response::Bye);
        assert!(
            done.recv_timeout(BOUND)
                .expect("serve returns")
                .clean_shutdown
        );

        // Incarnation 2: boots from the copy and takes the replayed suffix.
        let server = Arc::new(
            GsumServer::boot(proto(backend), config(), Some(killed.clone())).expect("reboot"),
        );
        let (addr, done) = serve_detached(&server);
        let (mut stream, mut reader) = connect(addr);
        let durable = match exchange(&mut stream, &mut reader, b"COUNT\n") {
            Response::Count(n) => n as usize,
            other => panic!("{backend:?}: expected COUNT reply, got {other:?}"),
        };
        assert!(
            durable > FIRST && durable <= SENT,
            "{backend:?}: durable count {durable} must lie inside the second stream's sent part"
        );
        assert_eq!(
            exchange(
                &mut stream,
                &mut reader,
                &encode_client(&updates[durable..], None)
            ),
            Response::Ok(TOTAL as u64),
            "{backend:?}"
        );
        assert_eq!(
            exchange(&mut stream, &mut reader, b"EST\n"),
            Response::Est {
                bits: single.estimate().to_bits()
            },
            "{backend:?}: resumed EST must equal the uninterrupted replay's bits"
        );
        assert_eq!(exchange(&mut stream, &mut reader, b"QUIT\n"), Response::Bye);
        assert!(
            done.recv_timeout(BOUND)
                .expect("serve returns")
                .clean_shutdown
        );

        let snapshot = CheckpointEnvelope::load(&killed)
            .expect("load final snapshot")
            .expect("a clean shutdown publishes a final snapshot");
        assert_eq!(snapshot.durable_count(), TOTAL as u64);
        assert_eq!(
            snapshot.state_bytes(),
            single.to_checkpoint_bytes().expect("save").as_slice(),
            "{backend:?}: resumed state must equal the uninterrupted replay bit for bit"
        );
        for path in [&live, &killed] {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(path.with_extension("tmp"));
        }
    }
}

/// An envelope written by another prototype — here, another seed — is
/// refused at boot with a typed merge error, instead of booting and then
/// failing every fold.  The envelope's own prototype still boots from it.
#[test]
fn boot_rejects_an_envelope_from_another_prototype() {
    let config = GSumConfig::with_space_budget(DOMAIN, 0.25, 64, 11);
    let seeded = |seed| OnePassGSumSketch::with_seed(PowerFunction::new(2.0), &config, seed);
    let mut written = seeded(2);
    written.update(Update::new(HEAVY, 3));
    let path = std::env::temp_dir().join(format!(
        "gsum_serve_foreign_envelope_{}.ckpt",
        std::process::id()
    ));
    CheckpointEnvelope::park(1, &written)
        .expect("park")
        .save_atomic(&path)
        .expect("save");

    match GsumServer::boot(seeded(1), ServeConfig::new(), Some(path.clone())) {
        Err(ServeError::Merge(_)) => {}
        Err(other) => panic!("expected a merge error, got {other}"),
        Ok(_) => panic!("a seed-1 server booted from a seed-2 envelope"),
    }
    let server = GsumServer::boot(seeded(2), ServeConfig::new(), Some(path.clone())).expect("boot");
    assert_eq!(server.durable_count(), 1);
    assert_eq!(server.estimate().to_bits(), written.estimate().to_bits());
    let _ = std::fs::remove_file(&path);
}

/// A snapshot write that fails while serving fails neither the stream that
/// made it due nor the server.  The checkpoint path lies under a missing
/// directory, so every write fails.  Each stream still gets `OK`, `EST`
/// still answers, the observer sees `SnapshotFailed`, and only the final
/// snapshot's failure reaches the caller: `QUIT` makes `serve` return an
/// I/O error.
#[test]
fn a_failed_snapshot_write_fails_neither_the_stream_nor_the_server() {
    const BOUND: Duration = Duration::from_secs(20);
    const K: usize = 16;
    let updates: Vec<Update> = (0..10 * K as u64)
        .map(|i| Update::new(if i % 2 == 0 { HEAVY } else { i % DOMAIN }, 1))
        .collect();
    let path = std::env::temp_dir()
        .join(format!("gsum_serve_missing_dir_{}", std::process::id()))
        .join("state.ckpt");
    for policy in POLICIES {
        let failures = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&failures);
        let config = ServeConfig::new()
            .with_policy(policy)
            .with_workers(1)
            .with_checkpoint_every(K)
            .with_pipeline(ShardedIngest::new(1).with_batch_size(K / 2))
            .with_observer(move |event| {
                if matches!(event, ServeEvent::SnapshotFailed { .. }) {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
            });
        let server = Arc::new(
            GsumServer::boot(proto(HashBackend::Polynomial), config, Some(path.clone()))
                .expect("boot"),
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let serving = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = done_tx.send(serving.serve(listener));
        });
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(BOUND)).expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;

        for round in 1..=2u64 {
            assert_eq!(
                exchange(&mut stream, &mut reader, &encode_client(&updates, None)),
                Response::Ok(round * updates.len() as u64),
                "{policy:?}: a failed snapshot write must not fail the stream"
            );
            assert!(
                matches!(
                    exchange(&mut stream, &mut reader, b"EST\n"),
                    Response::Est { .. }
                ),
                "{policy:?}: EST must still answer"
            );
        }
        assert!(
            failures.load(Ordering::SeqCst) > 0,
            "{policy:?}: the failed writes must be observed"
        );
        assert_eq!(exchange(&mut stream, &mut reader, b"QUIT\n"), Response::Bye);
        match done_rx
            .recv_timeout(BOUND)
            .expect("serve returns after QUIT")
        {
            Err(ServeError::Io(_)) => {}
            Err(other) => panic!("{policy:?}: expected an I/O error, got {other}"),
            Ok(_) => panic!("{policy:?}: the final snapshot cannot have been written"),
        }
        assert_eq!(server.durable_count(), 2 * updates.len() as u64);
    }
}
