//! Serving-layer throughput and latency: the reactor trajectory's numbers.
//!
//! Drives a real [`GsumServer`] over loopback TCP and measures the three
//! quantities the reactor rewrite is about:
//!
//! * `serve/connections_per_sec` — sequential connect → `COUNT` → close
//!   round trips: accept + register + parse + reply + reap, the per-
//!   connection overhead that used to be a thread spawn.
//! * `serve/ingest_updates_per_sec/clients_N` — N concurrent clients each
//!   streaming a framed Zipf workload to completion (`OK` acknowledged),
//!   under `ServePolicy::MergeCompleted` so the per-worker shard path — the
//!   tentpole — is the one being measured.
//! * `serve/{est,count}_latency_{p50,p99}` — point-query round-trip
//!   latency over one persistent connection against a server holding
//!   ingested state, in microseconds.
//! * `serve/est_latency_{p50,p99}/<function>` (schema v2) — the same
//!   round trip through the named-estimator path: the server serves a
//!   [`SketchRegistry`] with two G functions sharing one ingest
//!   substrate, and each registered function gets its own
//!   `EST <function>` latency rows, so a regression in the registry
//!   lookup or the per-function cover shows up per function.
//!
//! **Caveat for reading the numbers:** on a single-core CI host the
//! loopback numbers measure reactor and channel overhead, not parallel
//! speedup — client threads, the reactor and the fold workers all share
//! one core.  Compare runs only against the same `available_parallelism`
//! (recorded in `meta`).
//!
//! Besides the console table, the bench writes `BENCH_serve.json` at the
//! workspace root (override the path with the `BENCH_SERVE_JSON` env var)
//! so CI can gate and upload it.  Its fields, required rows and the
//! inequalities between rows are stated once, in the
//! `gsum_bench::artifact::SERVE` schema table.  Set `BENCH_SERVE_QUICK=1`
//! for a fast smoke run.  The bench exits non-zero if it cannot write.

use gsum_bench::artifact::{rounded, Artifact, Fields, SERVE};
use gsum_core::GSumConfig;
use gsum_gfunc::library::{CappedLinear, PowerFunction};
use gsum_hash::HashBackend;
use gsum_serve::{GsumServer, Response, ServeConfig, ServePolicy, SketchRegistry};
use gsum_streams::wire::encode_updates;
use gsum_streams::{StreamConfig, StreamGenerator, ZipfStreamGenerator};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const DOMAIN: u64 = 1 << 12;
const ZIPF_ALPHA: f64 = 1.2;
const WORKERS: usize = 2;
const MAX_CONNECTIONS: usize = 64;

/// The served state: a registry with two G functions over one shared
/// substrate, so the named-estimator rows measure the registry path and
/// ingest throughput still pays for exactly one CountSketch stack.
fn proto() -> SketchRegistry {
    let config = GSumConfig::with_space_budget(DOMAIN, 0.2, 512, 11)
        .with_hash_backend(HashBackend::Polynomial);
    let mut registry = SketchRegistry::new();
    registry
        .register(PowerFunction::new(2.0), &config)
        .expect("register default function");
    registry
        .register(CappedLinear::new(100), &config)
        .expect("register second function");
    assert_eq!(registry.substrate_count(), 1, "one shared substrate");
    registry
}

/// The registered function names, registration order (default first).
fn function_names() -> Vec<String> {
    proto().function_names()
}

fn serve_config() -> ServeConfig {
    ServeConfig::new()
        .with_policy(ServePolicy::MergeCompleted)
        .with_workers(WORKERS)
        .with_max_connections(MAX_CONNECTIONS)
        .with_checkpoint_every(1 << 14)
        // Errors are unexpected in a bench; surface instead of counting.
        .with_observer(|event| eprintln!("[bench_serve] {event}"))
}

/// Boot a server, run `body` against its address, `QUIT` it, and return
/// the body's output.
fn with_server<T>(body: impl FnOnce(SocketAddr) -> T) -> T {
    let server = GsumServer::boot(proto(), serve_config(), None).expect("boot");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let server = &server;
        let handle = scope.spawn(move || server.serve(listener).expect("serve"));
        let out = body(addr);
        let mut quit = TcpStream::connect(addr).expect("connect");
        writeln!(quit, "QUIT").expect("send");
        let mut line = String::new();
        BufReader::new(quit).read_line(&mut line).expect("read");
        assert!(handle.join().expect("server thread").clean_shutdown);
        out
    })
}

/// One command round trip on an established connection.  The command goes
/// out in a single `write` call: two small writes ("EST" then "\n") would
/// let Nagle hold the newline until the peer's delayed ACK, and the bench
/// would measure the kernel's 40ms timer instead of the server.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, command: &str) -> Response {
    stream
        .write_all(format!("{command}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    Response::parse(&line).expect("parse")
}

/// Stream pre-encoded bytes and wait for the `OK` acknowledgement.
fn stream_client(addr: SocketAddr, bytes: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("stream");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    assert!(
        matches!(Response::parse(&line), Ok(Response::Ok(_))),
        "ingest must be acknowledged, got {line:?}"
    );
}

fn encode_workload(updates: usize, seed: u64) -> Vec<u8> {
    let stream =
        ZipfStreamGenerator::new(StreamConfig::new(DOMAIN, updates), ZIPF_ALPHA, seed).generate();
    encode_updates(DOMAIN, stream.updates()).expect("encode")
}

/// Print one result row and add it to the artifact's rows.  `kind` is
/// `"throughput"` or `"latency"`.
fn record(rows: &mut Vec<Fields>, name: String, kind: &str, value: f64, unit: &str, samples: u64) {
    println!("{name:<44} {value:>14.1} {unit:<7} ({samples} samples)");
    rows.push(vec![
        ("name", name.into()),
        ("kind", kind.into()),
        ("value", rounded(value, 2).into()),
        ("unit", unit.into()),
        ("samples", samples.into()),
    ]);
}

/// Sequential connect → `COUNT` → close churn.
fn bench_connections(rows: &mut Vec<Fields>, connections: u64) {
    let elapsed = with_server(|addr| {
        let start = Instant::now();
        for _ in 0..connections {
            let mut stream = TcpStream::connect(addr).expect("connect");
            writeln!(stream, "COUNT").expect("send");
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).expect("read");
        }
        start.elapsed()
    });
    let name = "serve/connections_per_sec".to_string();
    let rate = connections as f64 / elapsed.as_secs_f64();
    record(rows, name, "throughput", rate, "conn/s", connections);
}

/// `clients` concurrent framed streams to completion, averaged over
/// `iterations` rounds against one server.
fn bench_ingest(rows: &mut Vec<Fields>, clients: usize, updates: usize, iterations: u64) {
    let workloads: Vec<Vec<u8>> = (0..clients)
        .map(|c| encode_workload(updates, 7 + c as u64))
        .collect();
    let mut total = Duration::ZERO;
    with_server(|addr| {
        for _ in 0..iterations {
            let barrier = std::sync::Barrier::new(clients);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for bytes in &workloads {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        stream_client(addr, bytes);
                    });
                }
            });
            total += start.elapsed();
        }
    });
    let streamed = (clients * updates) as u64 * iterations;
    let name = format!("serve/ingest_updates_per_sec/clients_{clients}");
    let rate = streamed as f64 / total.as_secs_f64();
    record(rows, name, "throughput", rate, "upd/s", streamed);
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// Query latency percentiles over one persistent connection, against a
/// server that has already ingested a workload (so `EST` answers from
/// non-trivial state).
fn bench_query_latency(rows: &mut Vec<Fields>, warm_updates: usize, queries: usize) {
    // Each probe is (command line, latency family, row suffix): the bare
    // queries keep their v1 row names, and every registered function adds
    // `EST <function>` probes whose rows carry the name as a suffix.
    let mut probes: Vec<(String, &'static str, String)> = vec![
        ("EST".into(), "est", String::new()),
        ("COUNT".into(), "count", String::new()),
    ];
    for name in function_names() {
        probes.push((format!("EST {name}"), "est", format!("/{name}")));
    }
    let samples = with_server(|addr| {
        stream_client(addr, &encode_workload(warm_updates, 3));
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut latencies: Vec<Vec<f64>> = Vec::new();
        for (command, _, _) in &probes {
            let mut us: Vec<f64> = (0..queries)
                .map(|_| {
                    let t = Instant::now();
                    let response = roundtrip(&mut stream, &mut reader, command);
                    let elapsed = t.elapsed().as_secs_f64() * 1e6;
                    assert!(
                        !matches!(response, Response::Err(_)),
                        "query failed: {response:?}"
                    );
                    elapsed
                })
                .collect();
            us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            latencies.push(us);
        }
        latencies
    });
    for ((_, family, suffix), us) in probes.iter().zip(&samples) {
        for (p, label) in [(0.5, "p50"), (0.99, "p99")] {
            let name = format!("serve/{family}_latency_{label}{suffix}");
            record(
                rows,
                name,
                "latency",
                percentile(us, p),
                "us",
                us.len() as u64,
            );
        }
    }
}

fn main() -> ExitCode {
    let quick = std::env::var("BENCH_SERVE_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let (connections, updates, iterations, queries) = if quick {
        (200u64, 10_000usize, 2u64, 300usize)
    } else {
        (2_000u64, 100_000usize, 5u64, 2_000usize)
    };
    println!(
        "bench_serve: zipf({ZIPF_ALPHA}) domain={DOMAIN} workers={WORKERS} \
         updates_per_client={updates} quick={quick}\n"
    );

    let mut rows = Vec::new();
    bench_connections(&mut rows, connections);
    for clients in [1usize, 4] {
        bench_ingest(&mut rows, clients, updates, iterations);
    }
    bench_query_latency(&mut rows, updates, queries);

    Artifact {
        schema: &SERVE,
        quick,
        meta: vec![
            ("workers", WORKERS.into()),
            ("max_connections", MAX_CONNECTIONS.into()),
            ("policy", "merge_completed".into()),
            ("functions", function_names().into()),
        ],
        workload: vec![
            ("distribution", "zipf".into()),
            ("alpha", ZIPF_ALPHA.into()),
            ("domain", DOMAIN.into()),
            ("updates_per_client", updates.into()),
            ("connections", connections.into()),
            ("query_samples", queries.into()),
        ],
        summary: Vec::new(),
        rows,
    }
    .save()
}
