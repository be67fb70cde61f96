//! The load generator's side of one loopback connection.

use gsum_serve::{Command, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a reply may take before the operation counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Why one operation failed.  Every variant counts toward `failed`.
#[derive(Debug, Clone, PartialEq)]
pub enum OpFailure {
    /// No reply within [`REPLY_TIMEOUT`].
    Timeout,
    /// Any other socket error, or the server closed the connection.
    Io(String),
    /// The server answered `ERR`.
    Err(String),
    /// The server shed the connection with `BUSY`.
    Busy,
    /// A reply of the wrong kind, or one that does not parse.
    Unexpected(String),
}

impl std::fmt::Display for OpFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpFailure::Timeout => write!(f, "timed out after {REPLY_TIMEOUT:?}"),
            OpFailure::Io(e) => write!(f, "i/o: {e}"),
            OpFailure::Err(e) => write!(f, "ERR {e}"),
            OpFailure::Busy => f.write_str("BUSY"),
            OpFailure::Unexpected(r) => write!(f, "unexpected reply {r:?}"),
        }
    }
}

fn io_failure(e: std::io::Error) -> OpFailure {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => OpFailure::Timeout,
        _ => OpFailure::Io(e.to_string()),
    }
}

/// A persistent connection: framed streams and command lines both run
/// back to back on it, one outstanding request at a time.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connect with `TCP_NODELAY` (command lines are tiny) and reply
    /// timeouts.
    pub fn connect(addr: SocketAddr) -> Result<Self, OpFailure> {
        let stream = TcpStream::connect(addr).map_err(io_failure)?;
        stream.set_nodelay(true).map_err(io_failure)?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(io_failure)?;
        stream
            .set_write_timeout(Some(REPLY_TIMEOUT))
            .map_err(io_failure)?;
        let reader = BufReader::new(stream.try_clone().map_err(io_failure)?);
        Ok(Self {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    fn read_reply(&mut self) -> Result<Response, OpFailure> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).map_err(io_failure)?;
        if n == 0 {
            return Err(OpFailure::Io("connection closed before the reply".into()));
        }
        match Response::parse(&self.line) {
            Ok(Response::Err(reason)) => Err(OpFailure::Err(reason)),
            Ok(Response::Busy(_)) => Err(OpFailure::Busy),
            Ok(r) => Ok(r),
            Err(e) => Err(OpFailure::Unexpected(e.to_string())),
        }
    }

    fn command(&mut self, cmd: &Command) -> Result<Response, OpFailure> {
        let line = format!("{cmd}\n");
        self.writer.write_all(line.as_bytes()).map_err(io_failure)?;
        self.read_reply()
    }

    /// Send one pre-encoded framed stream and return the durable count its
    /// `OK` acknowledged.
    pub fn send_stream(&mut self, bytes: &[u8]) -> Result<u64, OpFailure> {
        self.writer.write_all(bytes).map_err(io_failure)?;
        match self.read_reply()? {
            Response::Ok(n) => Ok(n),
            other => Err(OpFailure::Unexpected(other.to_string())),
        }
    }

    /// `EST <function>`: the estimate's exact bit pattern.
    pub fn est(&mut self, function: &str) -> Result<u64, OpFailure> {
        match self.command(&Command::est_named(function))? {
            Response::Est { bits } => Ok(bits),
            other => Err(OpFailure::Unexpected(other.to_string())),
        }
    }

    /// `COUNT`: the durable update count.
    pub fn count(&mut self) -> Result<u64, OpFailure> {
        match self.command(&Command::Count)? {
            Response::Count(n) => Ok(n),
            other => Err(OpFailure::Unexpected(other.to_string())),
        }
    }

    /// `QUIT`: ask the server to shut down cleanly.
    pub fn quit(mut self) -> Result<(), OpFailure> {
        match self.command(&Command::Quit)? {
            Response::Bye => Ok(()),
            other => Err(OpFailure::Unexpected(other.to_string())),
        }
    }
}
