//! N concurrent clients, one serving state — the merge-on-ingest proof.
//!
//! PR 4's server serialized connections: a second client waited in
//! `accept`.  The `gsum_serve` layer hands every connection its own thread
//! and folds per-client sketches into the serving state as they complete,
//! and *linearity makes the concurrency invisible in the result*: this demo
//! drives N loopback writers simultaneously and asserts the final serving
//! state is **bit-identical** to a single-threaded replay of the
//! concatenated client streams — checkpoint bytes and estimate bits, not
//! just approximately equal numbers.  (Any concatenation order gives the
//! same bytes: merging is exact integer addition in `f64`.)
//!
//! A second phase aborts one client mid-stream (connection dropped before
//! the end-of-stream frame) under [`ServePolicy::DiscardPartial`] and
//! asserts the all-or-nothing contract: the dead stream contributes
//! nothing, and the serving state equals the replay of the surviving
//! streams alone.
//!
//! Both phases run under **both hash backends** (polynomial and
//! tabulation) — determinism is a property of linearity, not of one hash
//! family.  The client count defaults to 4 and is bounded by the
//! `MULTI_CLIENT_CLIENTS` environment variable (1..=16), so the demo
//! terminates quickly on single-core CI runners.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Barrier;
use zerolaw::prelude::*;

const DOMAIN: u64 = 1 << 10;
const SEED: u64 = 42;
const UPDATES_PER_CLIENT: usize = 2_000;
const CHECKPOINT_EVERY: usize = 400;

fn prototype(backend: HashBackend) -> OnePassGSumSketch<PowerFunction> {
    let config = GSumConfig::with_space_budget(DOMAIN, 0.2, 256, SEED).with_hash_backend(backend);
    OnePassGSumSketch::new(PowerFunction::new(2.0), &config)
}

fn client_count() -> usize {
    std::env::var("MULTI_CLIENT_CLIENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .clamp(1, 16)
}

fn client_stream(client: usize) -> Vec<Update> {
    ZipfStreamGenerator::new(
        StreamConfig::new(DOMAIN, UPDATES_PER_CLIENT),
        1.2,
        1_000 + client as u64,
    )
    .collect_stream()
    .updates()
    .to_vec()
}

fn spawn_server_with<S: ServableSketch + 'static>(
    proto: S,
    policy: ServePolicy,
    checkpoint_path: PathBuf,
) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let config = ServeConfig::new()
            .with_policy(policy)
            .with_checkpoint_every(CHECKPOINT_EVERY)
            .with_pipeline(ShardedIngest::new(2).with_batch_size(256));
        GsumServer::boot(proto, config, Some(checkpoint_path))
            .expect("boot server")
            .serve(listener)
            .expect("serve")
    });
    (addr, handle)
}

fn spawn_server(
    backend: HashBackend,
    policy: ServePolicy,
    checkpoint_path: PathBuf,
) -> (String, std::thread::JoinHandle<ServeSummary>) {
    spawn_server_with(prototype(backend), policy, checkpoint_path)
}

/// Send one framed stream and return the server's acknowledgement.
fn send_stream(addr: &str, updates: &[Update]) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut read_half = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = FrameWriter::new(BufWriter::new(stream), DOMAIN)
        .expect("stream header")
        .with_frame_updates(128)
        .expect("frame size");
    writer.write_batch(updates).expect("send updates");
    writer.finish().expect("end-of-stream frame");
    let mut response = String::new();
    read_half.read_line(&mut response).expect("read ack");
    Response::parse(&response).expect("parse ack")
}

/// Send a stream prefix and drop the connection *without* the end-of-stream
/// frame — a producer crash as the server sees it.
fn abort_stream(addr: &str, updates: &[Update]) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = FrameWriter::new(BufWriter::new(stream), DOMAIN)
        .expect("stream header")
        .with_frame_updates(64)
        .expect("frame size");
    writer.write_batch(updates).expect("send prefix");
    writer.flush_frame().expect("flush");
    // Dropping the writer closes the socket mid-stream: truncation.
}

fn query(addr: &str, cmd: Command) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{cmd}").expect("send command");
    stream.flush().expect("flush");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read response");
    Response::parse(&response).expect("parse response")
}

/// Single-threaded reference: one sketch absorbing the given streams back
/// to back, and its checkpoint bytes.
fn reference_bytes(backend: HashBackend, streams: &[Vec<Update>]) -> (u64, Vec<u8>) {
    let mut single = prototype(backend);
    for stream in streams {
        for &u in stream {
            single.update(u);
        }
    }
    (
        single.estimate().to_bits(),
        single.to_checkpoint_bytes().expect("save reference"),
    )
}

fn temp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "zerolaw_multi_client_{tag}_{}.ckpt",
        std::process::id()
    ))
}

/// Phase A: N concurrent clean clients must merge to exactly the
/// single-threaded replay of their concatenated streams — for each hash
/// backend.
fn concurrent_clean_clients(backend: HashBackend, clients: usize) {
    let checkpoint_path = temp_checkpoint("clean");
    let _ = std::fs::remove_file(&checkpoint_path);
    let (addr, server) = spawn_server(
        backend,
        ServePolicy::MergeCompleted,
        checkpoint_path.clone(),
    );

    let streams: Vec<Vec<Update>> = (0..clients).map(client_stream).collect();
    let barrier = Barrier::new(clients);
    std::thread::scope(|scope| {
        for stream in &streams {
            let addr = addr.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait(); // all clients hit the server at once
                match send_stream(&addr, stream) {
                    Response::Ok(_) => {}
                    other => panic!("ingest ack shape: {other:?}"),
                }
            });
        }
    });

    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let (expect_bits, expect_bytes) = reference_bytes(backend, &streams);

    match query(&addr, Command::Count) {
        Response::Count(n) => assert_eq!(n, total, "every client update must be durable"),
        other => panic!("COUNT reply shape: {other:?}"),
    }
    match query(&addr, Command::est()) {
        Response::Est { bits } => assert_eq!(
            bits, expect_bits,
            "concurrent merge must equal the single-threaded estimate bit-for-bit"
        ),
        other => panic!("EST reply shape: {other:?}"),
    }

    assert_eq!(query(&addr, Command::Quit), Response::Bye);
    let summary = server.join().expect("server thread");
    assert!(summary.clean_shutdown);
    assert_eq!(summary.stats.streams_completed, clients as u64);

    let envelope = CheckpointEnvelope::load(&checkpoint_path)
        .expect("load final checkpoint")
        .expect("final checkpoint exists");
    assert_eq!(envelope.durable_count(), total);
    assert_eq!(
        envelope.state_bytes(),
        expect_bytes.as_slice(),
        "serving-state checkpoint bytes must equal the single-threaded replay"
    );
    let _ = std::fs::remove_file(&checkpoint_path);
    println!(
        "multi_client: {clients} concurrent clients == single-threaded replay \
         (bit-exact, {backend:?}) ✓"
    );
}

/// Phase B: an aborted client under the all-or-nothing policy contributes
/// nothing; the survivors' merge is still bit-exact.
fn aborted_client_is_discarded_whole(backend: HashBackend, clients: usize) {
    let checkpoint_path = temp_checkpoint("abort");
    let _ = std::fs::remove_file(&checkpoint_path);
    let (addr, server) = spawn_server(
        backend,
        ServePolicy::DiscardPartial,
        checkpoint_path.clone(),
    );

    let streams: Vec<Vec<Update>> = (0..clients).map(client_stream).collect();
    let doomed = client_stream(clients + 7);
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        for stream in &streams {
            let addr = addr.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                match send_stream(&addr, stream) {
                    Response::Ok(_) => {}
                    other => panic!("ingest ack shape: {other:?}"),
                }
            });
        }
        let addr = addr.clone();
        let barrier = &barrier;
        let doomed = &doomed;
        scope.spawn(move || {
            barrier.wait();
            // Send most of the stream, then vanish before the end frame.
            abort_stream(&addr, &doomed[..doomed.len() / 2]);
        });
    });

    // The aborted connection may still be draining server-side; QUIT waits
    // for in-flight handlers (scope join inside serve), so the summary and
    // final checkpoint below see its resolution.
    assert_eq!(query(&addr, Command::Quit), Response::Bye);
    let summary = server.join().expect("server thread");
    assert!(summary.clean_shutdown);
    assert_eq!(summary.stats.streams_completed, clients as u64);
    assert_eq!(
        summary.stats.streams_failed, 1,
        "the aborted stream must be observed as failed"
    );
    assert!(summary.stats.updates_discarded > 0);

    let (_, expect_bytes) = reference_bytes(backend, &streams);
    let envelope = CheckpointEnvelope::load(&checkpoint_path)
        .expect("load final checkpoint")
        .expect("final checkpoint exists");
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    assert_eq!(
        envelope.durable_count(),
        total,
        "discarded stream must not count as durable"
    );
    assert_eq!(
        envelope.state_bytes(),
        expect_bytes.as_slice(),
        "the aborted client must leave no trace in the serving state"
    );
    let _ = std::fs::remove_file(&checkpoint_path);
    println!(
        "multi_client: aborted stream discarded whole; {clients} survivors still bit-exact \
         ({backend:?}) ✓"
    );
}

/// Phase C: multi-statistic serving.  Two G functions registered in one
/// [`SketchRegistry`] over the *same* configuration share a single ingest
/// substrate; the stream flows once, and each `EST <function>` answer must
/// equal a single-threaded, single-function replay bit-for-bit.
fn multi_statistic_serving(backend: HashBackend, clients: usize) {
    let checkpoint_path = temp_checkpoint("registry");
    let _ = std::fs::remove_file(&checkpoint_path);

    let config = GSumConfig::with_space_budget(DOMAIN, 0.2, 256, SEED).with_hash_backend(backend);
    let mut registry = SketchRegistry::new();
    registry
        .register(PowerFunction::new(2.0), &config)
        .expect("register x^2");
    registry
        .register(CappedLinear::new(100), &config)
        .expect("register capped linear");
    assert_eq!(
        registry.substrate_count(),
        1,
        "identical configurations must share one ingest substrate"
    );
    let names = registry.function_names();

    let (addr, server) = spawn_server_with(
        registry,
        ServePolicy::MergeCompleted,
        checkpoint_path.clone(),
    );

    let streams: Vec<Vec<Update>> = (0..clients).map(client_stream).collect();
    let barrier = Barrier::new(clients);
    std::thread::scope(|scope| {
        for stream in &streams {
            let addr = addr.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                match send_stream(&addr, stream) {
                    Response::Ok(_) => {}
                    other => panic!("ingest ack shape: {other:?}"),
                }
            });
        }
    });

    match query(&addr, Command::Funcs) {
        Response::Funcs(listed) => assert_eq!(listed, names, "FUNCS must list both estimators"),
        other => panic!("FUNCS reply shape: {other:?}"),
    }

    // Per-function references: each function's own single-threaded sketch
    // replaying the concatenated streams.
    for (name, reference) in [
        (names[0].as_str(), {
            let mut s = OnePassGSumSketch::new(PowerFunction::new(2.0), &config);
            streams.iter().for_each(|st| s.update_batch(st));
            s.estimate().to_bits()
        }),
        (names[1].as_str(), {
            let mut s = OnePassGSumSketch::new(CappedLinear::new(100), &config);
            streams.iter().for_each(|st| s.update_batch(st));
            s.estimate().to_bits()
        }),
    ] {
        match query(&addr, Command::est_named(name)) {
            Response::Est { bits } => assert_eq!(
                bits, reference,
                "EST {name} must equal that function's single-threaded replay bit-for-bit"
            ),
            other => panic!("EST {name} reply shape: {other:?}"),
        }
    }

    // An unregistered name earns a typed refusal, and the connection-level
    // grammar still works afterwards (the refusal does not poison parsing).
    match query(&addr, Command::est_named("no-such-g")) {
        Response::Err(reason) => assert!(reason.contains("no-such-g")),
        other => panic!("unknown-function reply shape: {other:?}"),
    }

    assert_eq!(query(&addr, Command::Quit), Response::Bye);
    let summary = server.join().expect("server thread");
    assert!(summary.clean_shutdown);
    let _ = std::fs::remove_file(&checkpoint_path);
    println!(
        "multi_client: 2 statistics served from 1 substrate, both bit-exact \
         ({backend:?}) ✓"
    );
}

fn main() {
    let clients = client_count();
    for backend in [HashBackend::Polynomial, HashBackend::Tabulation] {
        concurrent_clean_clients(backend, clients);
        aborted_client_is_discarded_whole(backend, clients);
        multi_statistic_serving(backend, clients);
    }
    println!("multi_client demo: concurrent merge-on-ingest is deterministic ✓");
}
