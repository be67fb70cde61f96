//! A checkpointing TCP ingest server — now thin wiring over [`gsum_serve`].
//!
//! PR 4 prototyped this serving loop as ~380 lines of example code; the
//! serving layer has since been promoted into the `gsum_serve` crate
//! ([`GsumServer`], [`MergeCoordinator`](zerolaw::serve::MergeCoordinator),
//! [`CheckpointEnvelope`], the `EST`/`COUNT`/`QUIT` protocol module), and
//! this example is what remains: choosing a sketch, a policy and a
//! checkpoint path, then handing the listener over.  Connections are now
//! served **concurrently** — see `examples/multi_client.rs` for the
//! multi-client fan-in demo.
//!
//! Run with `cargo run --example ingest_server` for a self-terminating
//! loopback demo that actually kills the server mid-stream (the
//! fault-injection hook) and proves the resumed estimate matches an
//! uninterrupted single-threaded reference to the bit.  Run with
//! `--serve <addr>` to keep a server up for manual use:
//!
//! ```text
//! cargo run --example ingest_server -- --serve 127.0.0.1:7171
//! ```
//!
//! The demo uses [`ServePolicy::MergeCompleted`], the offset-replay
//! contract: completed K-slices become durable mid-stream, and after a
//! crash the client asks `COUNT` for the durable offset and replays exactly
//! the non-durable suffix.

use std::io::{BufRead, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use zerolaw::prelude::*;

const DOMAIN: u64 = 1 << 10;
const SEED: u64 = 42;
const CHECKPOINT_EVERY: usize = 500;

/// The serving sketch, reconstructed identically on every boot: same
/// function, same configuration, same seed — so a checkpoint taken by one
/// incarnation restores seamlessly into the next.
fn prototype() -> OnePassGSumSketch<PowerFunction> {
    let config = GSumConfig::with_space_budget(DOMAIN, 0.2, 256, SEED);
    OnePassGSumSketch::new(PowerFunction::new(2.0), &config)
}

fn server_config() -> ServeConfig {
    ServeConfig::new()
        .with_policy(ServePolicy::MergeCompleted)
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .with_pipeline(
            ShardedIngest::new(2)
                .with_batch_size(256)
                .with_channel_depth(4),
        )
}

// ---------------------------------------------------------------------------
// Loopback client used by the demo.
// ---------------------------------------------------------------------------

fn send_updates(addr: &str, updates: &[Update]) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut read_half = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = FrameWriter::new(BufWriter::new(stream), DOMAIN)
        .map_err(|e| e.to_string())?
        .with_frame_updates(128)
        .map_err(|e| e.to_string())?;
    writer.write_batch(updates).map_err(|e| e.to_string())?;
    writer.finish().map_err(|e| e.to_string())?;
    let mut response = String::new();
    read_half
        .read_line(&mut response)
        .map_err(|e| e.to_string())?;
    if response.is_empty() {
        return Err("connection closed without a response".into());
    }
    Response::parse(&response).map_err(|e| e.to_string())
}

fn query(addr: &str, cmd: Command) -> Response {
    use std::io::Write;
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{cmd}").expect("send command");
    stream.flush().expect("flush");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read response");
    Response::parse(&response).expect("parse response")
}

fn spawn_server(
    checkpoint_path: PathBuf,
    crash_after: Option<u64>,
) -> (String, std::thread::JoinHandle<bool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let mut config = server_config();
        if let Some(limit) = crash_after {
            config = config.with_crash_after(limit);
        }
        let server =
            GsumServer::boot(prototype(), config, Some(checkpoint_path)).expect("boot server");
        eprintln!(
            "[server] listening; {} updates durable from checkpoint",
            server.durable_count()
        );
        server.serve(listener).expect("serve").clean_shutdown
    });
    (addr, handle)
}

/// The self-terminating loopback demo: stream → kill → restore → replay →
/// prove bit-exactness against an uninterrupted reference.
fn loopback_demo() {
    let checkpoint_path =
        std::env::temp_dir().join(format!("zerolaw_ingest_server_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint_path);

    let updates =
        ZipfStreamGenerator::new(StreamConfig::new(DOMAIN, 6_000), 1.2, 7).collect_stream();
    let updates = updates.updates().to_vec();

    // Uninterrupted single-threaded reference.
    let mut reference = prototype();
    for &u in &updates {
        reference.update(u);
    }
    let reference_bits = reference.estimate().to_bits();

    // Incarnation 1: dies mid-stream, a little after update 2300 — not a
    // multiple of the checkpoint period, so un-checkpointed tail updates
    // are genuinely lost with it.
    let (addr, server) = spawn_server(checkpoint_path.clone(), Some(2_300));
    match send_updates(&addr, &updates) {
        Ok(resp) => panic!("server was supposed to die mid-stream, got {resp:?}"),
        Err(e) => println!("client: server died mid-stream as planned ({e})"),
    }
    assert!(
        !server.join().expect("server thread"),
        "incarnation 1 must report the simulated crash"
    );

    // Incarnation 2: restores the checkpoint, tells the client how much is
    // durable, and ingests the replayed suffix.
    let (addr, server) = spawn_server(checkpoint_path.clone(), None);
    let durable = match query(&addr, Command::Count) {
        Response::Count(n) => n as usize,
        other => panic!("COUNT reply shape: {other:?}"),
    };
    println!("client: {durable} updates survived the kill; replaying the rest");
    assert!(durable < updates.len(), "the kill must lose some tail");
    assert_eq!(
        durable % CHECKPOINT_EVERY,
        0,
        "durability moves in K-slices"
    );

    let ok = send_updates(&addr, &updates[durable..]).expect("replay suffix");
    assert_eq!(
        ok,
        Response::Ok(updates.len() as u64),
        "full stream durable"
    );

    let bits = match query(&addr, Command::est()) {
        Response::Est { bits } => bits,
        other => panic!("EST reply shape: {other:?}"),
    };
    assert_eq!(
        bits, reference_bits,
        "kill-then-resume must reproduce the uninterrupted estimate bit-for-bit"
    );
    println!(
        "client: resumed estimate {} == uninterrupted reference (bit-exact)",
        f64::from_bits(bits)
    );

    assert_eq!(query(&addr, Command::Quit), Response::Bye);
    assert!(server.join().expect("server thread"), "clean shutdown");
    let _ = std::fs::remove_file(&checkpoint_path);
    println!("ingest_server demo: kill + resume is bit-exact ✓");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--serve") => {
            let addr = args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7171");
            let checkpoint_path = std::env::var("INGEST_CHECKPOINT")
                .map(PathBuf::from)
                .unwrap_or_else(|_| std::env::temp_dir().join("zerolaw_ingest_server.ckpt"));
            let listener = TcpListener::bind(addr).expect("bind");
            eprintln!(
                "[server] listening on {} (checkpoints at {})",
                listener.local_addr().expect("local addr"),
                checkpoint_path.display()
            );
            let server = GsumServer::boot(prototype(), server_config(), Some(checkpoint_path))
                .expect("boot server");
            server.serve(listener).expect("serve");
        }
        _ => loopback_demo(),
    }
}
