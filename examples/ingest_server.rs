//! A checkpointing TCP ingest server — thin wiring over [`gsum_serve`].
//!
//! The serving layer lives in the `gsum_serve` crate ([`GsumServer`],
//! [`MergeCoordinator`](zerolaw::serve::MergeCoordinator),
//! [`CheckpointEnvelope`], the `EST`/`COUNT`/`QUIT` protocol module), and
//! this example is what remains: choosing a sketch, a policy and a
//! checkpoint path, then handing the listener over.  See
//! `examples/multi_client.rs` for the concurrent multi-client fan-in demo.
//!
//! Run with `cargo run --example ingest_server` for a self-terminating
//! kill/resume demo.  It re-executes itself in `--serve` mode as a child
//! process, streams to it, SIGKILLs it mid-stream, reboots it from its
//! checkpoint, replays the non-durable suffix and proves the resumed
//! estimate matches an uninterrupted single-threaded reference to the bit.
//! Run with `--serve <addr>` to keep a server up for manual use; it prints
//! `READY <addr>` on stdout once it accepts connections, and checkpoints to
//! `$INGEST_CHECKPOINT`:
//!
//! ```text
//! cargo run --example ingest_server -- --serve 127.0.0.1:7171
//! ```
//!
//! The demo uses [`ServePolicy::MergeCompleted`], the offset-replay
//! contract: updates become durable mid-stream, and after a crash the
//! client asks `COUNT` for the durable offset `D` and replays exactly
//! `updates[D..]`.  Linearity is what makes any `D` work: every published
//! envelope is exactly the sketch of the first `D` updates, whenever the
//! process dies.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use zerolaw::prelude::*;
use zerolaw::streams::wire::encode_updates;

const DOMAIN: u64 = 1 << 10;
const SEED: u64 = 42;
const CHECKPOINT_EVERY: usize = 500;
const STREAM_LEN: usize = 6_000;
/// The first stream completes before the kill; the second never does.
const FIRST_STREAM: usize = 2_000;
/// Updates per frame of the second stream.
const FRAME_UPDATES: usize = 128;
/// Bytes of the second stream sent per write, paced so the kill lands
/// while the stream is in flight.
const CHUNK_BYTES: usize = 2048;
/// Updates of the second stream never sent before the kill.
const UNSENT_TAIL: usize = 1_000;

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

/// `--serve` mode: boot from the checkpoint, announce the bound address,
/// serve until `QUIT`.
fn serve(addr: &str, checkpoint_path: PathBuf) {
    let server = GsumServer::boot(prototype(), server_config(), Some(checkpoint_path.clone()))
        .expect("boot server");
    let listener = TcpListener::bind(addr).expect("bind");
    let local = listener.local_addr().expect("local addr");
    eprintln!(
        "[server] listening on {local} (checkpoints at {}); {} updates durable from checkpoint",
        checkpoint_path.display(),
        server.durable_count()
    );
    println!("READY {local}");
    std::io::stdout().flush().expect("flush stdout");
    server.serve(listener).expect("serve");
}

// ---------------------------------------------------------------------------
// The demo's side: a server child process and a loopback client.
// ---------------------------------------------------------------------------

/// A server running in a child process.  Dropping it kills and reaps the
/// child, so no exit path — a failed assertion included — leaves a server
/// listening.
struct ServerProcess {
    child: Child,
    addr: String,
}

impl ServerProcess {
    /// Re-execute this binary in `--serve` mode on an ephemeral loopback
    /// port and wait for its `READY <addr>` line.
    fn spawn(checkpoint_path: &Path) -> Self {
        let child = std::process::Command::new(std::env::current_exe().expect("current exe"))
            .args(["--serve", "127.0.0.1:0"])
            .env("INGEST_CHECKPOINT", checkpoint_path)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server process");
        let mut server = Self {
            child,
            addr: String::new(),
        };
        let stdout = server.child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the server's READY line");
        server.addr = line
            .strip_prefix("READY ")
            .unwrap_or_else(|| panic!("expected `READY <addr>`, got {line:?}"))
            .trim()
            .to_string();
        server
    }

    /// SIGKILL the server: no shutdown path runs, no final snapshot is
    /// written — only envelopes it already published survive.
    fn kill(mut self) -> ExitStatus {
        self.child.kill().expect("kill server process");
        self.child.wait().expect("reap server process")
    }

    /// Wait for the server to exit on its own (after `QUIT`).
    fn wait(mut self) -> ExitStatus {
        self.child.wait().expect("wait for server process")
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Both fail harmlessly on a child that was already reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Read one reply line from `stream`.
fn read_reply(stream: &TcpStream) -> Response {
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read reply");
    Response::parse(&line).unwrap_or_else(|e| panic!("unparsable reply {line:?}: {e}"))
}

/// Send one complete framed stream and return the server's verdict.
fn send_stream(addr: &str, updates: &[Update]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&encode_updates(DOMAIN, updates).expect("encode"))
        .expect("send stream");
    read_reply(&stream)
}

fn query(addr: &str, cmd: Command) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{cmd}").expect("send command");
    read_reply(&stream)
}

/// The durable count of the envelope on disk (0 before the first one).
fn durable_on_disk(path: &Path) -> u64 {
    CheckpointEnvelope::load(path)
        .expect("load checkpoint")
        .map_or(0, |env| env.durable_count())
}

/// Open a stream of `updates` and send its bytes a chunk at a time —
/// complete frames, never the end-of-stream frame — until the server has
/// published an envelope durable past `past`.  Returns the still-open
/// connection: the stream is in flight.
fn stream_until_durable_past(
    addr: &str,
    updates: &[Update],
    checkpoint_path: &Path,
    past: u64,
) -> TcpStream {
    let mut bytes = Vec::new();
    let mut writer = FrameWriter::new(&mut bytes, DOMAIN)
        .expect("header")
        .with_frame_updates(FRAME_UPDATES)
        .expect("frame size");
    writer.write_batch(updates).expect("frames");
    writer.flush_frame().expect("last frame");
    drop(writer); // no finish(): the stream never ends

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut chunks = bytes.chunks(CHUNK_BYTES);
    let deadline = Instant::now() + Duration::from_secs(60);
    while durable_on_disk(checkpoint_path) <= past {
        assert!(
            Instant::now() < deadline,
            "the server never checkpointed past {past}"
        );
        if let Some(chunk) = chunks.next() {
            stream.write_all(chunk).expect("send chunk");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    stream
}

/// The self-terminating demo: stream → SIGKILL → reboot → replay → prove
/// bit-exactness against an uninterrupted reference.
fn kill_resume_demo() {
    let checkpoint_path =
        std::env::temp_dir().join(format!("zerolaw_ingest_server_{}.ckpt", std::process::id()));
    let remove_checkpoint = || {
        let _ = std::fs::remove_file(&checkpoint_path);
        let _ = std::fs::remove_file(checkpoint_path.with_extension("tmp"));
    };
    remove_checkpoint();

    let updates = ZipfStreamGenerator::new(StreamConfig::new(DOMAIN, STREAM_LEN), 1.2, 7)
        .collect_stream()
        .updates()
        .to_vec();

    // Uninterrupted single-threaded reference.
    let mut reference = prototype();
    for &u in &updates {
        reference.update(u);
    }
    let reference_bits = reference.estimate().to_bits();

    // Incarnation 1: one complete stream, then a second stream that is
    // still in flight when the process is killed.  Its last updates are
    // never even sent, so the kill always loses a tail.
    let server = ServerProcess::spawn(&checkpoint_path);
    assert_eq!(
        send_stream(&server.addr, &updates[..FIRST_STREAM]),
        Response::Ok(FIRST_STREAM as u64)
    );
    let in_flight = stream_until_durable_past(
        &server.addr,
        &updates[FIRST_STREAM..STREAM_LEN - UNSENT_TAIL],
        &checkpoint_path,
        FIRST_STREAM as u64,
    );
    let status = server.kill();
    assert!(!status.success(), "a killed server cannot exit cleanly");
    drop(in_flight);
    let durable_at_kill = durable_on_disk(&checkpoint_path);
    println!(
        "client: server killed mid-stream ({status}); \
         the envelope on disk is durable through {durable_at_kill}"
    );

    // Incarnation 2: restores the envelope, tells the client how much is
    // durable, and ingests the replayed suffix.
    let server = ServerProcess::spawn(&checkpoint_path);
    let durable = match query(&server.addr, Command::Count) {
        Response::Count(n) => n,
        other => panic!("COUNT reply shape: {other:?}"),
    };
    assert_eq!(
        durable, durable_at_kill,
        "the reboot restores exactly the envelope the kill left"
    );
    assert!(
        durable > FIRST_STREAM as u64 && durable <= (STREAM_LEN - UNSENT_TAIL) as u64,
        "durable count {durable} must lie inside the second stream's sent part"
    );
    println!("client: {durable} of {STREAM_LEN} updates survived the kill; replaying the rest");

    let durable = durable as usize;
    assert_eq!(
        send_stream(&server.addr, &updates[durable..]),
        Response::Ok(STREAM_LEN as u64),
        "full stream durable"
    );
    let bits = match query(&server.addr, Command::est()) {
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

    assert_eq!(query(&server.addr, Command::Quit), Response::Bye);
    assert!(server.wait().success(), "clean shutdown after QUIT");
    remove_checkpoint();
    println!("ingest_server demo: SIGKILL + resume is bit-exact ✓");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--serve") => {
            let addr = args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7171");
            let checkpoint_path = std::env::var("INGEST_CHECKPOINT")
                .map(PathBuf::from)
                .unwrap_or_else(|_| std::env::temp_dir().join("zerolaw_ingest_server.ckpt"));
            serve(addr, checkpoint_path);
        }
        _ => kill_resume_demo(),
    }
}
