//! The server under test, in a process of its own.
//!
//! [`launch`] is the launcher: the benchmark binary re-executes itself with
//! the `serve` subcommand, and that process boots a [`GsumServer`] over
//! the registry from [`crate::serving`], binds a loopback port, announces
//! `READY <port> <durable>` on stdout, and serves until `QUIT`.
//! [`ServerProcess`] is the load generator's handle on such a process: spawn and
//! wait for `READY`, read its `/proc` counters, and shut it down — killing
//! and reaping it on drop if a run bails out early, so no server outlives
//! the benchmark.

use crate::client::Conn;
use crate::serving::{build_registry, serve_config};
use gsum_serve::GsumServer;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Run the launcher: `serve --domain <n> --sketch-seed <s> --checkpoint <path>`.
pub fn launch(args: &[String]) -> Result<(), String> {
    let mut domain = None;
    let mut sketch_seed = None;
    let mut checkpoint = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--domain" => domain = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--sketch-seed" => sketch_seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value)),
            other => return Err(format!("unknown launcher flag {other}")),
        }
    }
    let domain = domain.ok_or("--domain is required")?;
    let sketch_seed = sketch_seed.ok_or("--sketch-seed is required")?;
    let checkpoint = checkpoint.ok_or("--checkpoint is required")?;

    let server = GsumServer::boot(
        build_registry(domain, sketch_seed),
        serve_config(),
        Some(checkpoint),
    )
    .map_err(|e| format!("boot: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {port} {}", server.durable_count()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    drop(out);
    let summary = server.serve(listener).map_err(|e| format!("serve: {e}"))?;
    let s = summary.stats;
    println!(
        "DONE clean={} streams_completed={} streams_failed={} snapshots={}",
        summary.clean_shutdown, s.streams_completed, s.streams_failed, s.snapshots_written
    );
    Ok(())
}

/// A running server process.
pub struct ServerProcess {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    durable_at_boot: u64,
}

impl ServerProcess {
    /// Spawn the launcher (this executable, `serve` subcommand) and block
    /// until it has booted — restoring `checkpoint` if it exists — and
    /// bound its port.
    pub fn spawn(domain: u64, sketch_seed: u64, checkpoint: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(["--domain", &domain.to_string()])
            .args(["--sketch-seed", &sketch_seed.to_string()])
            .arg("--checkpoint")
            .arg(checkpoint)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = Self {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            durable_at_boot: 0,
        };
        let mut line = String::new();
        proc.stdout
            .read_line(&mut line)
            .map_err(|e| format!("read READY: {e}"))?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["READY", port, durable] => {
                let port: u16 = port.parse().map_err(|_| format!("bad READY {line:?}"))?;
                proc.addr = SocketAddr::from(([127, 0, 0, 1], port));
                proc.durable_at_boot =
                    durable.parse().map_err(|_| format!("bad READY {line:?}"))?;
                Ok(proc)
            }
            _ => Err(format!("server did not start: {line:?}")),
        }
    }

    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The durable count the server booted with (non-zero after a
    /// checkpoint restore).
    pub fn durable_at_boot(&self) -> u64 {
        self.durable_at_boot
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running until quit").id()
    }

    /// Send `QUIT` and wait for the process to exit cleanly: its `DONE`
    /// line comes after the final snapshot is written.
    pub fn quit(mut self) -> Result<(), String> {
        let conn = Conn::connect(self.addr).map_err(|e| format!("connect for QUIT: {e}"))?;
        conn.quit().map_err(|e| format!("QUIT: {e}"))?;
        let mut done = String::new();
        self.stdout
            .read_line(&mut done)
            .map_err(|e| format!("read DONE: {e}"))?;
        let status = self
            .child
            .take()
            .expect("running until quit")
            .wait()
            .map_err(|e| format!("wait: {e}"))?;
        if !status.success() || !done.starts_with("DONE clean=true") {
            return Err(format!("server exited with {status}: {done:?}"));
        }
        Ok(())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            // Best effort: a run that bails out early must not leave a
            // server behind.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
