//! Framed wire format for turnstile update streams.
//!
//! A long-running ingest service accepts updates from the outside world over
//! a byte stream (a TCP socket, a pipe, a file being tailed).  This module
//! defines the versioned little-endian framing that byte stream uses — the
//! same codec discipline as the [`checkpoint`](crate::checkpoint) layer, but
//! for *data in motion* instead of state at rest:
//!
//! ```text
//! stream  = magic version domain frame* end-frame
//! magic   = b"ZLWU"                      4 bytes
//! version = u16 LE                       format version (currently 1)
//! domain  = u64 LE                       domain size n; items are in [0, n)
//! frame   = tag len payload
//! tag     = u8                           1 = updates, 2 = end of stream
//! len     = u32 LE                       payload length in bytes
//! payload = (item: u64 LE, delta: i64 LE)*   for updates frames (len % 16 == 0)
//!         = empty                            for the end-of-stream frame
//! ```
//!
//! Design points:
//!
//! * **Length-prefixed frames.** A receiver always knows how many bytes the
//!   next frame occupies, so it can enforce a frame-size bound *before*
//!   allocating ([`WireError::OversizedFrame`]) and a slow consumer
//!   backpressures the socket instead of buffering unboundedly.
//! * **Explicit end-of-stream.** A stream that simply stops (connection
//!   reset, producer crash) is distinguishable from one that finished
//!   cleanly: missing the end frame surfaces as
//!   [`WireError::Io`]/`UnexpectedEof` — truncation, never silent success.
//! * **Coalescable batches.** Frames carry `(item, delta)` batches, and
//!   turnstile deltas add exactly in `i64`, so any stage downstream of the
//!   decoder may [`coalesce`](crate::coalesce_updates) a frame without
//!   changing what a linear sketch computes — the property every sketch's
//!   `update_batch` fast path exploits.
//! * **Typed errors, never panics.** Truncation, a bad magic, an unsupported
//!   version, an unknown frame tag, an oversized length prefix and a
//!   malformed payload all surface as [`WireError`]s.
//!
//! [`FrameWriter`] produces the format.  [`FrameDecoder`] is the one
//! decoder: a push state machine that validates every byte.
//! [`FrameReader`] pulls from a [`Read`] into it and implements
//! [`UpdateSource`], so every existing sink — and
//! [`ShardedIngest`](crate::ShardedIngest) — ingests a wire stream
//! unchanged.

use crate::source::UpdateSource;
use crate::update::Update;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};

/// The 4-byte magic prefix of every wire stream ("ZeroLaw Wire Updates").
pub const WIRE_MAGIC: [u8; 4] = *b"ZLWU";

/// The current wire format version.
pub const WIRE_VERSION: u16 = 1;

/// Frame tags.  Append-only: a tag's meaning never changes across versions.
pub mod frame_tag {
    /// A batch of `(item, delta)` updates.
    pub const UPDATES: u8 = 1;
    /// Explicit end of stream; its payload is empty.
    pub const END: u8 = 2;
}

/// Bytes per encoded update on the wire (`u64` item + `i64` delta).
pub const WIRE_UPDATE_BYTES: usize = 16;

/// Default cap on a single frame's payload, in bytes (64 Ki updates).
/// Writers chunk larger batches; readers reject larger length prefixes
/// before allocating.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = (1 << 16) * WIRE_UPDATE_BYTES as u32;

/// Error raised while writing or reading a wire stream.
#[derive(Debug)]
pub enum WireError {
    /// An underlying I/O failure.  Truncation — bytes ending before the
    /// explicit end-of-stream frame — surfaces here as `UnexpectedEof`.
    Io(io::Error),
    /// The stream does not start with the wire magic.
    BadMagic,
    /// The stream was written with a format version this build does not
    /// understand.
    UnsupportedVersion {
        /// The version found in the stream header.
        found: u16,
    },
    /// A frame carries a tag this build does not know.
    UnknownFrameTag {
        /// The tag byte found on the wire.
        found: u8,
    },
    /// A frame's length prefix exceeds the receiver's frame-size bound —
    /// rejected before any allocation happens.
    OversizedFrame {
        /// The length prefix found on the wire.
        len: u32,
        /// The receiver's configured bound.
        max: u32,
    },
    /// The stream header declares a different domain than the receiver
    /// serves.  Checked once, at header decode
    /// ([`FrameReader::with_expected_domain`]), so an item that is legal for
    /// the *declared* domain but out of range for the *serving* domain can
    /// never survive decoding and reach a sketch at apply time.
    DomainMismatch {
        /// The domain size declared in the stream header.
        declared: u64,
        /// The domain size the receiver serves.
        expected: u64,
    },
    /// The frame payload is structurally invalid: an updates payload whose
    /// length is not a multiple of the encoded update size, a non-empty
    /// end-of-stream frame, an item outside the stream's declared domain.
    Corrupt(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::BadMagic => write!(f, "not a wire stream (bad magic)"),
            WireError::UnsupportedVersion { found } => write!(
                f,
                "unsupported wire format version {found} (this build reads {WIRE_VERSION})"
            ),
            WireError::UnknownFrameTag { found } => {
                write!(f, "unknown wire frame tag {found}")
            }
            WireError::OversizedFrame { len, max } => write!(
                f,
                "frame length prefix {len} exceeds the {max}-byte frame bound"
            ),
            WireError::DomainMismatch { declared, expected } => write!(
                f,
                "stream declares domain {declared} but the receiver serves domain {expected}"
            ),
            WireError::Corrupt(reason) => write!(f, "corrupt wire frame: {reason}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether the error is a truncation: the bytes ended before the
    /// explicit end-of-stream frame.
    pub fn is_truncation(&self) -> bool {
        matches!(self, WireError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }
}

/// Writes a framed wire stream of updates to any [`Write`].
///
/// The stream header is written on construction; updates are buffered and
/// flushed as length-prefixed frames of at most
/// [`frame_updates`](FrameWriter::frame_updates) entries; [`finish`](FrameWriter::finish)
/// writes the explicit end-of-stream frame.  Dropping
/// a writer without calling `finish` leaves the stream truncated — which the
/// reader reports as an error, exactly as intended for a crashed producer.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    buf: Vec<Update>,
    frame_updates: usize,
    frames_written: u64,
    updates_written: u64,
    domain: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Start a wire stream over the domain `[0, domain)`: writes the
    /// magic/version/domain header immediately.
    pub fn new(mut inner: W, domain: u64) -> Result<Self, WireError> {
        if domain == 0 {
            return Err(WireError::Corrupt(
                "wire stream domain size must be positive".into(),
            ));
        }
        inner.write_all(&WIRE_MAGIC)?;
        inner.write_all(&WIRE_VERSION.to_le_bytes())?;
        inner.write_all(&domain.to_le_bytes())?;
        Ok(Self {
            inner,
            buf: Vec::new(),
            frame_updates: DEFAULT_MAX_FRAME_BYTES as usize / WIRE_UPDATE_BYTES,
            frames_written: 0,
            updates_written: 0,
            domain,
        })
    }

    /// Cap the number of updates per frame (smaller frames mean earlier
    /// flushes and finer-grained receiver backpressure; larger frames
    /// amortize the 5-byte frame header).  Values are clamped to the
    /// receiver-side default frame bound.
    ///
    /// Returns an error when `frame_updates == 0`.
    pub fn with_frame_updates(mut self, frame_updates: usize) -> Result<Self, WireError> {
        if frame_updates == 0 {
            return Err(WireError::Corrupt(
                "frame update capacity must be positive".into(),
            ));
        }
        self.frame_updates =
            frame_updates.min(DEFAULT_MAX_FRAME_BYTES as usize / WIRE_UPDATE_BYTES);
        Ok(self)
    }

    /// Updates-per-frame cap currently in force.
    pub fn frame_updates(&self) -> usize {
        self.frame_updates
    }

    /// Domain size declared in the stream header.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Number of updates written so far (buffered ones included).
    pub fn updates_written(&self) -> u64 {
        self.updates_written + self.buf.len() as u64
    }

    /// Number of frames flushed so far.
    pub fn frames_written(&self) -> u64 {
        self.frames_written
    }

    /// Append one update, flushing a frame when the buffer fills.
    pub fn write_update(&mut self, u: Update) -> Result<(), WireError> {
        if u.item >= self.domain {
            return Err(WireError::Corrupt(format!(
                "item {} outside the stream domain [0, {})",
                u.item, self.domain
            )));
        }
        self.buf.push(u);
        if self.buf.len() >= self.frame_updates {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Append a batch of updates (chunked into frames as needed).
    pub fn write_batch(&mut self, updates: &[Update]) -> Result<(), WireError> {
        for &u in updates {
            self.write_update(u)?;
        }
        Ok(())
    }

    /// Drain an [`UpdateSource`] into the stream.  Returns the number of
    /// updates written.
    pub fn write_source<Src: UpdateSource>(&mut self, source: &mut Src) -> Result<u64, WireError> {
        let mut written = 0u64;
        while let Some(u) = source.next_update() {
            self.write_update(u)?;
            written += 1;
        }
        Ok(written)
    }

    /// Flush any buffered updates as one frame (a no-op on an empty buffer).
    pub fn flush_frame(&mut self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let payload_len = (self.buf.len() * WIRE_UPDATE_BYTES) as u32;
        self.inner.write_all(&[frame_tag::UPDATES])?;
        self.inner.write_all(&payload_len.to_le_bytes())?;
        for u in &self.buf {
            self.inner.write_all(&u.item.to_le_bytes())?;
            self.inner.write_all(&u.delta.to_le_bytes())?;
        }
        self.updates_written += self.buf.len() as u64;
        self.frames_written += 1;
        self.buf.clear();
        Ok(())
    }

    /// Flush buffered updates, write the explicit end-of-stream frame, flush
    /// the underlying writer and hand it back (so e.g. a socket can be
    /// reused for a response).
    pub fn finish(mut self) -> Result<W, WireError> {
        self.flush_frame()?;
        self.inner.write_all(&[frame_tag::END])?;
        self.inner.write_all(&0u32.to_le_bytes())?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// A point-in-time progress report for a [`FrameReader`] — the counters a
/// serving loop consults when deciding what to do with a stream that died
/// mid-flight (how far did it get? did it end cleanly or was it cut off?).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireProgress {
    /// Frames consumed so far (the end-of-stream frame included).
    pub frames_read: u64,
    /// Updates yielded to the consumer so far.
    pub updates_read: u64,
    /// Whether the explicit end-of-stream frame was consumed.
    pub finished: bool,
    /// Whether a decode error ended the stream early.
    pub errored: bool,
}

/// Reads a framed wire stream from any [`Read`] and yields its updates.
///
/// A pull adapter over [`FrameDecoder`]: it reads exactly the bytes the
/// decoder's current unit still needs and feeds them in, so every check
/// the format has lives in the decoder alone, and [`finish`](Self::finish)
/// hands the reader back positioned just past the end frame.  The header
/// is read and validated on construction.  `FrameReader` implements
/// [`UpdateSource`], so a wire stream plugs into every existing sink and
/// [`ShardedIngest`](crate::ShardedIngest) unchanged.
///
/// `UpdateSource::next_update` has no error channel, so a decode failure
/// mid-stream ends the source (returns `None`) and parks the error; callers
/// that need the distinction check [`finish`](FrameReader::finish) (or
/// [`take_error`](FrameReader::take_error)) after draining — exactly like
/// checking a socket's close status.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    decoder: FrameDecoder,
    /// Read buffer, at most [`READ_CHUNK`] bytes whatever the frame bound.
    scratch: Vec<u8>,
}

/// Largest single `read` a [`FrameReader`] issues; a bigger payload
/// arrives over several reads.
const READ_CHUNK: usize = 64 * 1024;

/// The error for bytes that stopped before the end-of-stream frame.
fn truncated() -> WireError {
    WireError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "wire stream closed before its end-of-stream frame",
    ))
}

impl<R: Read> FrameReader<R> {
    /// Open a wire stream: reads and validates the magic/version/domain
    /// header before returning.
    pub fn new(inner: R) -> Result<Self, WireError> {
        let mut reader = Self {
            inner,
            decoder: FrameDecoder::new(),
            scratch: Vec::new(),
        };
        while reader.decoder.domain.is_none() && reader.fill() {}
        match reader.decoder.take_error() {
            Some(e) => Err(e),
            None => Ok(reader),
        }
    }

    /// Require the stream's declared domain to be exactly `expected` — the
    /// single decode-time gate a receiver serving a fixed domain uses.
    ///
    /// Without this check a stream declaring a *larger* domain than the
    /// receiver serves decodes cleanly (every item is validated against the
    /// declared domain only) and the out-of-range items surface wherever the
    /// sketch happens to notice them, at apply time.  Checking the header
    /// once moves that failure to decode, as a typed
    /// [`WireError::DomainMismatch`].
    pub fn with_expected_domain(mut self, expected: u64) -> Result<Self, WireError> {
        self.decoder.expected_domain = Some(expected);
        self.decoder.check_domain(self.domain())?;
        Ok(self)
    }

    /// Tighten or loosen the frame-size bound (an incoming length prefix
    /// beyond it is rejected before allocation).
    ///
    /// Returns an error when `max_frame_bytes` cannot hold even one update.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: u32) -> Result<Self, WireError> {
        self.decoder = self.decoder.with_max_frame_bytes(max_frame_bytes)?;
        Ok(self)
    }

    /// Whether the explicit end-of-stream frame has been consumed.
    pub fn finished(&self) -> bool {
        self.decoder.finished()
    }

    /// The decode error that ended the stream early, if any.
    pub fn error(&self) -> Option<&WireError> {
        self.decoder.error()
    }

    /// Take ownership of the decode error, if any.
    pub fn take_error(&mut self) -> Option<WireError> {
        self.decoder.take_error()
    }

    /// Number of frames consumed so far (the end-of-stream frame included).
    pub fn frames_read(&self) -> u64 {
        self.decoder.frames_read
    }

    /// Number of updates yielded so far.
    pub fn updates_read(&self) -> u64 {
        self.decoder.updates_read
    }

    /// Point-in-time progress: frame/update counters plus whether the stream
    /// reached its end frame or died on a decode error.  A serving loop uses
    /// this to report how far a failed client stream got before its failure
    /// policy decides what to keep.
    pub fn progress(&self) -> WireProgress {
        self.decoder.progress()
    }

    /// Close out the stream: succeeds only when the explicit end-of-stream
    /// frame was consumed and no decode error occurred, handing back the
    /// underlying reader (so e.g. a socket can be reused for a response).
    /// A stream that merely ran out of bytes is a truncation error.
    pub fn finish(mut self) -> Result<R, WireError> {
        if let Some(e) = self.decoder.take_error() {
            return Err(e);
        }
        if !self.decoder.finished() {
            return Err(truncated());
        }
        Ok(self.inner)
    }

    /// Read what the decoder's current unit still needs and feed it.
    /// Returns `false` once the stream is over: end frame consumed, decode
    /// error parked, or the bytes ran out (parked as a truncation).
    fn fill(&mut self) -> bool {
        let want = self.decoder.bytes_needed().min(READ_CHUNK);
        if want == 0 {
            return false;
        }
        self.scratch.resize(want, 0);
        loop {
            let error = match self.inner.read(&mut self.scratch[..want]) {
                Ok(0) => truncated(),
                Ok(n) => {
                    self.decoder.feed(&self.scratch[..n]);
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => WireError::Io(e),
            };
            self.decoder.error = Some(error);
            return false;
        }
    }
}

impl<R: Read> UpdateSource for FrameReader<R> {
    fn domain(&self) -> u64 {
        self.decoder
            .domain()
            .expect("FrameReader::new decodes the header")
    }

    fn next_update(&mut self) -> Option<Update> {
        loop {
            if let Some(u) = self.decoder.next_update() {
                return Some(u);
            }
            if !self.fill() {
                return None;
            }
        }
    }

    fn remaining_hint(&self) -> (usize, Option<usize>) {
        let buffered = self.decoder.pending.len();
        if self.decoder.bytes_needed() == 0 {
            (buffered, Some(buffered))
        } else {
            (buffered, None)
        }
    }
}

/// Total bytes of the stream header: magic + version + domain.
const HEADER_BYTES: usize = 4 + 2 + 8;

/// Bytes of a frame header: one tag byte + the `u32` length prefix.
const FRAME_HEADER_BYTES: usize = 1 + 4;

/// Where a [`FrameDecoder`] is in the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeState {
    /// Accumulating the 14-byte magic/version/domain stream header.
    Header,
    /// Accumulating a 5-byte tag + length-prefix frame header.
    FrameHeader,
    /// Accumulating a non-empty updates payload of exactly `len` bytes.
    Payload { len: usize },
}

/// Push-based, resumable frame decoder: the one place wire bytes are
/// validated.
///
/// A non-blocking reactor cannot block, so it owns the socket reads and
/// *pushes* whatever bytes arrived into a `FrameDecoder` via
/// [`feed`](FrameDecoder::feed).  The decoder is a byte-level state machine
/// that stops and resumes anywhere — mid-header, mid-length-prefix,
/// mid-payload — which is exactly the shape `WouldBlock` slices a TCP
/// stream into.  [`FrameReader`], the pull side over a blocking [`Read`],
/// is built on it.
///
/// Errors are typed [`WireError`]s, parked so the owner decides how a
/// broken stream dies.  [`feed`](Self::feed) **stops consuming at the
/// end-of-stream frame** (and on a parked error), so bytes after the
/// stream's end are reported unconsumed — on a persistent connection they
/// belong to the *next* request, not to this stream.
///
/// ```
/// use gsum_streams::wire::{encode_updates, FrameDecoder};
/// use gsum_streams::Update;
///
/// let bytes = encode_updates(64, &[Update::new(3, 5), Update::new(9, -2)]).unwrap();
/// let mut decoder = FrameDecoder::new().with_expected_domain(64);
/// // Feed one byte at a time — worst-case readiness slicing.
/// let mut decoded = Vec::new();
/// for &b in &bytes {
///     decoder.feed(&[b]);
///     decoder.drain_into(&mut decoded);
/// }
/// assert!(decoder.finished());
/// assert_eq!(decoded, vec![Update::new(3, 5), Update::new(9, -2)]);
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    state: DecodeState,
    expected_domain: Option<u64>,
    max_frame_bytes: u32,
    /// The domain declared by the stream header, once decoded.
    domain: Option<u64>,
    /// Partial bytes of the unit currently being decoded.
    buf: Vec<u8>,
    pending: VecDeque<Update>,
    finished: bool,
    error: Option<WireError>,
    frames_read: u64,
    updates_read: u64,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder at the start of a stream (header not yet seen).
    pub fn new() -> Self {
        Self {
            state: DecodeState::Header,
            expected_domain: None,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            domain: None,
            buf: Vec::new(),
            pending: VecDeque::new(),
            finished: false,
            error: None,
            frames_read: 0,
            updates_read: 0,
        }
    }

    /// Require the stream's declared domain to be exactly `expected` (see
    /// [`FrameReader::with_expected_domain`]).  The mismatch surfaces as a
    /// parked [`WireError::DomainMismatch`] the moment the header is
    /// decoded.
    pub fn with_expected_domain(mut self, expected: u64) -> Self {
        self.expected_domain = Some(expected);
        self
    }

    /// Tighten or loosen the frame-size bound (an incoming length prefix
    /// beyond it is rejected before allocation).
    ///
    /// Returns an error when `max_frame_bytes` cannot hold even one update.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: u32) -> Result<Self, WireError> {
        if (max_frame_bytes as usize) < WIRE_UPDATE_BYTES {
            return Err(WireError::Corrupt(format!(
                "frame bound {max_frame_bytes} cannot hold one {WIRE_UPDATE_BYTES}-byte update"
            )));
        }
        self.max_frame_bytes = max_frame_bytes;
        Ok(self)
    }

    /// Push bytes into the decoder; returns how many were consumed.
    ///
    /// Consumption stops at the end-of-stream frame and on a parked decode
    /// error — the unconsumed tail is the caller's to re-route (the next
    /// request on a persistent connection) or discard (a poisoned stream).
    /// Decoded updates accumulate internally; drain them with
    /// [`next_update`](Self::next_update) or [`drain_into`](Self::drain_into).
    pub fn feed(&mut self, input: &[u8]) -> usize {
        let mut consumed = 0;
        while consumed < input.len() {
            let need = self.bytes_needed();
            if need == 0 {
                break;
            }
            let take = need.min(input.len() - consumed);
            self.buf
                .extend_from_slice(&input[consumed..consumed + take]);
            consumed += take;
            if take < need {
                break;
            }
            let step = match self.state {
                DecodeState::Header => self.decode_header(),
                DecodeState::FrameHeader => self.decode_frame_header(),
                DecodeState::Payload { .. } => self.decode_payload(),
            };
            self.buf.clear();
            if let Err(e) = step {
                self.error = Some(e);
            }
        }
        consumed
    }

    /// Bytes the unit being decoded still needs; zero once the end frame
    /// is consumed or an error is parked.  A pull reader reads at most this
    /// much, so it never reads past the stream's end.
    pub(crate) fn bytes_needed(&self) -> usize {
        if self.finished || self.error.is_some() {
            return 0;
        }
        let unit = match self.state {
            DecodeState::Header => HEADER_BYTES,
            DecodeState::FrameHeader => FRAME_HEADER_BYTES,
            DecodeState::Payload { len } => len,
        };
        unit - self.buf.len()
    }

    /// The header's domain gates: positive, and the expected domain when
    /// one is set.
    fn check_domain(&self, declared: u64) -> Result<(), WireError> {
        if declared == 0 {
            return Err(WireError::Corrupt(
                "wire stream domain size must be positive".into(),
            ));
        }
        match self.expected_domain {
            Some(expected) if expected != declared => {
                Err(WireError::DomainMismatch { declared, expected })
            }
            _ => Ok(()),
        }
    }

    fn decode_header(&mut self) -> Result<(), WireError> {
        if self.buf[..4] != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u16::from_le_bytes(self.buf[4..6].try_into().expect("2 bytes"));
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let domain = u64::from_le_bytes(self.buf[6..14].try_into().expect("8 bytes"));
        self.check_domain(domain)?;
        self.domain = Some(domain);
        self.state = DecodeState::FrameHeader;
        Ok(())
    }

    fn decode_frame_header(&mut self) -> Result<(), WireError> {
        let tag = self.buf[0];
        let len = u32::from_le_bytes(self.buf[1..5].try_into().expect("4 bytes"));
        match tag {
            frame_tag::END => {
                if len != 0 {
                    return Err(WireError::Corrupt(format!(
                        "end-of-stream frame with a {len}-byte payload"
                    )));
                }
                self.frames_read += 1;
                self.finished = true;
                Ok(())
            }
            frame_tag::UPDATES => {
                if len > self.max_frame_bytes {
                    return Err(WireError::OversizedFrame {
                        len,
                        max: self.max_frame_bytes,
                    });
                }
                if !(len as usize).is_multiple_of(WIRE_UPDATE_BYTES) {
                    return Err(WireError::Corrupt(format!(
                        "updates payload of {len} bytes is not a multiple of {WIRE_UPDATE_BYTES}"
                    )));
                }
                if len == 0 {
                    // An empty updates frame carries no payload to wait for.
                    self.frames_read += 1;
                } else {
                    self.state = DecodeState::Payload { len: len as usize };
                }
                Ok(())
            }
            other => Err(WireError::UnknownFrameTag { found: other }),
        }
    }

    fn decode_payload(&mut self) -> Result<(), WireError> {
        let domain = self.domain.expect("payload state implies a decoded header");
        for entry in self.buf.chunks_exact(WIRE_UPDATE_BYTES) {
            let item = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
            let delta = i64::from_le_bytes(entry[8..].try_into().expect("8 bytes"));
            if item >= domain {
                return Err(WireError::Corrupt(format!(
                    "item {item} outside the stream domain [0, {domain})"
                )));
            }
            self.pending.push_back(Update { item, delta });
        }
        self.frames_read += 1;
        self.state = DecodeState::FrameHeader;
        Ok(())
    }

    /// Pop the next decoded update, if one is buffered.
    pub fn next_update(&mut self) -> Option<Update> {
        let u = self.pending.pop_front()?;
        self.updates_read += 1;
        Some(u)
    }

    /// Move every buffered update into `out`; returns how many moved.
    pub fn drain_into(&mut self, out: &mut Vec<Update>) -> usize {
        let n = self.pending.len();
        self.updates_read += n as u64;
        out.extend(self.pending.drain(..));
        n
    }

    /// The domain the stream header declared, once the header is decoded.
    pub fn domain(&self) -> Option<u64> {
        self.domain
    }

    /// Whether the explicit end-of-stream frame has been consumed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Whether the decoder is mid-stream: past the header, end frame not
    /// yet seen, no parked error.  A connection that goes away in this
    /// state died a truncation death.
    pub fn mid_stream(&self) -> bool {
        self.domain.is_some() && !self.finished && self.error.is_none()
    }

    /// The decode error that poisoned the stream, if any.
    pub fn error(&self) -> Option<&WireError> {
        self.error.as_ref()
    }

    /// Take ownership of the decode error, if any.
    pub fn take_error(&mut self) -> Option<WireError> {
        self.error.take()
    }

    /// Point-in-time progress counters (what [`FrameReader::progress`]
    /// reports too).
    pub fn progress(&self) -> WireProgress {
        WireProgress {
            frames_read: self.frames_read,
            updates_read: self.updates_read,
            finished: self.finished,
            errored: self.error.is_some(),
        }
    }
}

/// Convenience: frame a whole batch of updates into a fresh byte vector
/// (header, frames, end-of-stream).
pub fn encode_updates(domain: u64, updates: &[Update]) -> Result<Vec<u8>, WireError> {
    let mut writer = FrameWriter::new(Vec::new(), domain)?;
    writer.write_batch(updates)?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_updates() -> Vec<Update> {
        vec![
            Update::new(0, 5),
            Update::new(7, -3),
            Update::new(7, 1),
            Update::new(63, i64::MAX),
            Update::new(2, i64::MIN),
        ]
    }

    #[test]
    fn roundtrip_preserves_the_update_sequence() {
        let updates = sample_updates();
        let bytes = encode_updates(64, &updates).unwrap();
        let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.domain(), 64);
        let decoded: Vec<Update> = reader.updates().collect();
        assert_eq!(decoded, updates);
        assert!(reader.finished());
        assert!(reader.error().is_none());
        reader.finish().unwrap();
    }

    #[test]
    fn small_frames_chunk_and_roundtrip() {
        let updates: Vec<Update> = (0..100u64).map(|i| Update::new(i % 32, 1)).collect();
        let mut writer = FrameWriter::new(Vec::new(), 32)
            .unwrap()
            .with_frame_updates(7)
            .unwrap();
        writer.write_batch(&updates).unwrap();
        let bytes = writer.finish().unwrap();
        let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
        let decoded: Vec<Update> = reader.updates().collect();
        assert_eq!(decoded, updates);
        // 100 updates in frames of 7 = 15 update frames + the end frame.
        assert_eq!(reader.frames_read(), 16);
    }

    #[test]
    fn empty_stream_roundtrips() {
        let bytes = encode_updates(8, &[]).unwrap();
        let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.next_update(), None);
        assert!(reader.finished());
        reader.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode_updates(64, &sample_updates()).unwrap();
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            match FrameReader::new(truncated) {
                Err(e) => assert!(e.is_truncation(), "header cut at {cut}"),
                Ok(mut reader) => {
                    while reader.next_update().is_some() {}
                    assert!(
                        !reader.finished(),
                        "cut at {cut} must not look like a clean end"
                    );
                    let err = reader.finish().expect_err("truncated stream must fail");
                    assert!(err.is_truncation(), "cut at {cut}: {err}");
                }
            }
        }
    }

    #[test]
    fn bad_magic_version_domain_are_rejected() {
        let good = encode_updates(8, &[Update::insert(1)]).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            FrameReader::new(bad_magic.as_slice()),
            Err(WireError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            FrameReader::new(bad_version.as_slice()),
            Err(WireError::UnsupportedVersion { found }) if found != WIRE_VERSION
        ));

        let mut zero_domain = good.clone();
        zero_domain[6..14].fill(0);
        assert!(matches!(
            FrameReader::new(zero_domain.as_slice()),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_tag_oversized_and_misaligned_frames_are_rejected() {
        let header_len = 14; // magic + version + domain
        let good = encode_updates(8, &[Update::insert(1)]).unwrap();

        let mut unknown_tag = good.clone();
        unknown_tag[header_len] = 9;
        let mut r = FrameReader::new(unknown_tag.as_slice()).unwrap();
        assert_eq!(r.next_update(), None);
        assert!(matches!(
            r.take_error(),
            Some(WireError::UnknownFrameTag { found: 9 })
        ));

        let mut oversized = good.clone();
        oversized[header_len + 1..header_len + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = FrameReader::new(oversized.as_slice()).unwrap();
        assert_eq!(r.next_update(), None);
        assert!(matches!(
            r.error(),
            Some(WireError::OversizedFrame { len: u32::MAX, .. })
        ));

        let mut misaligned = good.clone();
        misaligned[header_len + 1..header_len + 5].copy_from_slice(&15u32.to_le_bytes());
        let mut r = FrameReader::new(misaligned.as_slice()).unwrap();
        assert_eq!(r.next_update(), None);
        assert!(matches!(r.error(), Some(WireError::Corrupt(_))));
    }

    #[test]
    fn items_outside_the_declared_domain_are_corrupt() {
        // Writer refuses them up front...
        let mut w = FrameWriter::new(Vec::new(), 4).unwrap();
        assert!(matches!(
            w.write_update(Update::insert(4)),
            Err(WireError::Corrupt(_))
        ));
        // ...and the reader catches a forged payload.
        let mut bytes = FrameWriter::new(Vec::new(), 4).unwrap();
        bytes.write_update(Update::insert(3)).unwrap();
        let mut bytes = bytes.finish().unwrap();
        // Patch the item id (first payload field after header + frame header).
        bytes[14 + 5..14 + 13].copy_from_slice(&99u64.to_le_bytes());
        let mut r = FrameReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.next_update(), None);
        assert!(matches!(r.error(), Some(WireError::Corrupt(_))));
    }

    #[test]
    fn tight_reader_bound_rejects_legal_but_large_frames() {
        let updates: Vec<Update> = (0..8u64).map(Update::insert).collect();
        let bytes = encode_updates(8, &updates).unwrap();
        let mut r = FrameReader::new(bytes.as_slice())
            .unwrap()
            .with_max_frame_bytes(2 * WIRE_UPDATE_BYTES as u32)
            .unwrap();
        assert_eq!(r.next_update(), None);
        assert!(matches!(r.error(), Some(WireError::OversizedFrame { .. })));
    }

    #[test]
    fn zero_config_values_are_rejected() {
        assert!(matches!(
            FrameWriter::new(Vec::new(), 0),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            FrameWriter::new(Vec::new(), 8)
                .unwrap()
                .with_frame_updates(0),
            Err(WireError::Corrupt(_))
        ));
        let good = encode_updates(8, &[]).unwrap();
        assert!(matches!(
            FrameReader::new(good.as_slice())
                .unwrap()
                .with_max_frame_bytes(3),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn domain_mismatch_is_rejected_at_header_decode() {
        // A stream legally declaring a larger domain than the receiver
        // serves: every item passes the declared-domain check, so without
        // the expected-domain gate the out-of-range items would only
        // surface at apply time, inside whatever sketch consumed them.
        let bytes = encode_updates(1 << 20, &[Update::insert(70_000)]).unwrap();
        let reader = FrameReader::new(bytes.as_slice()).unwrap();
        match reader.with_expected_domain(1 << 10) {
            Err(WireError::DomainMismatch { declared, expected }) => {
                assert_eq!(declared, 1 << 20);
                assert_eq!(expected, 1 << 10);
            }
            other => panic!("expected DomainMismatch, got {other:?}"),
        }

        // A matching declaration passes through untouched.
        let bytes = encode_updates(64, &sample_updates()).unwrap();
        let mut reader = FrameReader::new(bytes.as_slice())
            .unwrap()
            .with_expected_domain(64)
            .unwrap();
        let decoded: Vec<Update> = reader.updates().collect();
        assert_eq!(decoded, sample_updates());
    }

    #[test]
    fn progress_tracks_frames_updates_and_termination() {
        let updates: Vec<Update> = (0..20u64).map(|i| Update::new(i % 8, 1)).collect();
        let mut writer = FrameWriter::new(Vec::new(), 8)
            .unwrap()
            .with_frame_updates(6)
            .unwrap();
        writer.write_batch(&updates).unwrap();
        let bytes = writer.finish().unwrap();

        let mut reader = FrameReader::new(bytes.as_slice()).unwrap();
        assert_eq!(
            reader.progress(),
            WireProgress {
                frames_read: 0,
                updates_read: 0,
                finished: false,
                errored: false
            }
        );
        for _ in 0..7 {
            reader.next_update().unwrap();
        }
        let mid = reader.progress();
        assert_eq!(mid.updates_read, 7);
        assert!(mid.frames_read >= 2 && !mid.finished && !mid.errored);
        while reader.next_update().is_some() {}
        assert_eq!(
            reader.progress(),
            WireProgress {
                frames_read: 5, // 4 update frames of ≤6 + the end frame
                updates_read: 20,
                finished: true,
                errored: false
            }
        );

        // A truncated stream reports errored instead of finished.
        let mut reader = FrameReader::new(&bytes[..bytes.len() - 3]).unwrap();
        while reader.next_update().is_some() {}
        let end = reader.progress();
        assert!(end.errored && !end.finished);
    }

    #[test]
    fn finish_hands_back_the_inner_io_object() {
        let updates = sample_updates();
        let bytes = encode_updates(64, &updates).unwrap();
        // Append trailing bytes after the end frame: a response phase on the
        // same connection.  The reader must stop at the end frame and hand
        // the rest back untouched.
        let mut on_the_wire = bytes.clone();
        on_the_wire.extend_from_slice(b"OK\n");
        let mut reader = FrameReader::new(on_the_wire.as_slice()).unwrap();
        while reader.next_update().is_some() {}
        let rest = reader.finish().unwrap();
        assert_eq!(rest, b"OK\n");
    }

    /// Feed `bytes` to a decoder sliced at `cut`, the worst-case readiness
    /// boundary, and return everything it decoded.
    fn decode_split(decoder: &mut FrameDecoder, bytes: &[u8], cut: usize) -> Vec<Update> {
        let mut out = Vec::new();
        let mut fed = decoder.feed(&bytes[..cut]);
        decoder.drain_into(&mut out);
        fed += decoder.feed(&bytes[fed..]);
        decoder.drain_into(&mut out);
        // Anything unconsumed must be explained by an end frame or an error.
        assert!(fed == bytes.len() || decoder.finished() || decoder.error().is_some());
        out
    }

    /// One stream per error class the decoder parks, plus a clean one:
    /// `(name, bytes, expected domain)`.
    fn error_class_streams() -> Vec<(&'static str, Vec<u8>, Option<u64>)> {
        let header_len = 14;
        let good = encode_updates(8, &[Update::insert(1)]).unwrap();
        let patched = |at: usize, with: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + with.len()].copy_from_slice(with);
            bytes
        };
        let mut fat_end = encode_updates(8, &[]).unwrap();
        let end_frame = fat_end.len() - 5;
        fat_end[end_frame + 1..end_frame + 5].copy_from_slice(&16u32.to_le_bytes());
        vec![
            ("clean", good.clone(), Some(8)),
            ("bad magic", patched(0, &[good[0] ^ 0xFF]), None),
            ("bad version", patched(4, &[0xFF]), None),
            ("zero domain", patched(6, &[0; 8]), None),
            ("domain mismatch", good.clone(), Some(64)),
            ("unknown tag", patched(header_len, &[9]), None),
            (
                "oversized",
                patched(header_len + 1, &u32::MAX.to_le_bytes()),
                None,
            ),
            (
                "misaligned",
                patched(header_len + 1, &15u32.to_le_bytes()),
                None,
            ),
            (
                "forged item",
                patched(header_len + 5, &99u64.to_le_bytes()),
                None,
            ),
            ("fat end frame", fat_end, None),
        ]
    }

    /// Drain a [`FrameReader`] over `bytes`: the updates it yields, the
    /// error it ends on, and its final progress.  A header error comes back
    /// from `new` (or `with_expected_domain`) before any frame is read.
    fn read_all(
        bytes: &[u8],
        expected: Option<u64>,
    ) -> (Vec<Update>, Option<WireError>, WireProgress) {
        let opened = FrameReader::new(bytes).and_then(|r| match expected {
            Some(domain) => r.with_expected_domain(domain),
            None => Ok(r),
        });
        match opened {
            Err(e) => (
                Vec::new(),
                Some(e),
                WireProgress {
                    frames_read: 0,
                    updates_read: 0,
                    finished: false,
                    errored: true,
                },
            ),
            Ok(mut reader) => {
                let updates: Vec<Update> = reader.updates().collect();
                let progress = reader.progress();
                (updates, reader.take_error(), progress)
            }
        }
    }

    #[test]
    fn decoder_agrees_with_reader_at_every_split_point() {
        let updates: Vec<Update> = (0..20u64)
            .map(|i| Update::new(i % 8, 3 - i as i64))
            .collect();
        let mut writer = FrameWriter::new(Vec::new(), 8)
            .unwrap()
            .with_frame_updates(6)
            .unwrap();
        writer.write_batch(&updates).unwrap();
        let multi_frame = writer.finish().unwrap();

        let mut streams = error_class_streams();
        streams.push(("multi-frame", multi_frame, Some(8)));
        for (name, bytes, expected) in streams {
            let (reference, reference_error, reference_progress) = read_all(&bytes, expected);
            for cut in 0..=bytes.len() {
                let mut decoder = FrameDecoder::new();
                if let Some(domain) = expected {
                    decoder = decoder.with_expected_domain(domain);
                }
                let decoded = decode_split(&mut decoder, &bytes, cut);
                assert_eq!(decoded, reference, "{name}: split at {cut}");
                assert_eq!(
                    decoder.progress(),
                    reference_progress,
                    "{name}: split at {cut}"
                );
                assert!(!decoder.mid_stream(), "{name}: split at {cut}");
                if reference_error.is_none() {
                    assert_eq!(decoder.domain(), expected, "{name}: split at {cut}");
                }
                let error = decoder.take_error();
                assert_eq!(
                    error.as_ref().map(std::mem::discriminant),
                    reference_error.as_ref().map(std::mem::discriminant),
                    "{name}: split at {cut}: decoder {error:?}, reader {reference_error:?}"
                );
            }
        }
    }

    /// A reader that hands out one byte per `read` call.
    struct OneByteReads<'a>(&'a [u8]);

    impl Read for OneByteReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn reader_leaves_bytes_after_the_end_frame_unread() {
        let mut on_the_wire = encode_updates(64, &sample_updates()).unwrap();
        on_the_wire.extend_from_slice(b"EST 0\n");
        let mut reader = FrameReader::new(OneByteReads(&on_the_wire)).unwrap();
        let decoded: Vec<Update> = reader.updates().collect();
        assert_eq!(decoded, sample_updates());
        let rest = reader.finish().unwrap();
        assert_eq!(rest.0, b"EST 0\n");
    }

    #[test]
    fn decoder_stops_consuming_at_the_end_frame() {
        let bytes = encode_updates(64, &sample_updates()).unwrap();
        let mut on_the_wire = bytes.clone();
        on_the_wire.extend_from_slice(b"EST 0\n");
        let mut decoder = FrameDecoder::new();
        let consumed = decoder.feed(&on_the_wire);
        assert!(decoder.finished());
        assert_eq!(&on_the_wire[consumed..], b"EST 0\n");
        // A finished decoder consumes nothing further.
        assert_eq!(decoder.feed(b"more"), 0);
        let mut out = Vec::new();
        decoder.drain_into(&mut out);
        assert_eq!(out, sample_updates());
    }

    #[test]
    fn decoder_truncation_is_visible_not_silent() {
        let bytes = encode_updates(64, &sample_updates()).unwrap();
        for cut in 0..bytes.len() {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bytes[..cut]);
            assert!(
                !decoder.finished() && decoder.error().is_none(),
                "cut at {cut} must look like an unfinished stream, not an error or a clean end"
            );
            // Past the header the decoder knows it is mid-stream: a
            // connection dying here is a truncation death.
            if cut >= 14 {
                assert!(decoder.mid_stream(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn decoder_parks_every_error_class_and_stops_consuming() {
        let header_len = 14;
        let good = encode_updates(8, &[Update::insert(1)]).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        let mut d = FrameDecoder::new();
        d.feed(&bad_magic);
        assert!(matches!(d.take_error(), Some(WireError::BadMagic)));

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        let mut d = FrameDecoder::new();
        d.feed(&bad_version);
        assert!(matches!(
            d.error(),
            Some(WireError::UnsupportedVersion { found }) if *found != WIRE_VERSION
        ));

        let mut zero_domain = good.clone();
        zero_domain[6..14].fill(0);
        let mut d = FrameDecoder::new();
        d.feed(&zero_domain);
        assert!(matches!(d.error(), Some(WireError::Corrupt(_))));

        let mut d = FrameDecoder::new().with_expected_domain(64);
        let consumed = d.feed(&good);
        assert!(matches!(
            d.error(),
            Some(WireError::DomainMismatch {
                declared: 8,
                expected: 64
            })
        ));
        assert_eq!(consumed, header_len, "feed must stop at the parked error");
        assert!(!d.mid_stream());

        let mut unknown_tag = good.clone();
        unknown_tag[header_len] = 9;
        let mut d = FrameDecoder::new();
        d.feed(&unknown_tag);
        assert!(matches!(
            d.error(),
            Some(WireError::UnknownFrameTag { found: 9 })
        ));

        let mut oversized = good.clone();
        oversized[header_len + 1..header_len + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.feed(&oversized);
        assert!(matches!(
            d.error(),
            Some(WireError::OversizedFrame { len: u32::MAX, .. })
        ));

        let mut misaligned = good.clone();
        misaligned[header_len + 1..header_len + 5].copy_from_slice(&15u32.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.feed(&misaligned);
        assert!(matches!(d.error(), Some(WireError::Corrupt(_))));

        // Forged out-of-domain item in the payload.
        let mut forged = good.clone();
        forged[header_len + 5..header_len + 13].copy_from_slice(&99u64.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.feed(&forged);
        assert!(matches!(d.error(), Some(WireError::Corrupt(_))));

        // Non-empty end frame.
        let mut fat_end = encode_updates(8, &[]).unwrap();
        let end_frame = fat_end.len() - 5;
        fat_end[end_frame + 1..end_frame + 5].copy_from_slice(&16u32.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.feed(&fat_end);
        assert!(matches!(d.error(), Some(WireError::Corrupt(_))));
        assert!(!d.finished());
    }

    #[test]
    fn decoder_handles_empty_streams_and_empty_frames() {
        let bytes = encode_updates(8, &[]).unwrap();
        let mut d = FrameDecoder::new().with_expected_domain(8);
        d.feed(&bytes);
        assert!(d.finished());
        assert_eq!(d.next_update(), None);

        // A hand-built empty updates frame before the end frame is legal and
        // must not stall the state machine waiting for a zero-byte payload.
        let mut with_empty_frame = encode_updates(8, &[]).unwrap();
        let end = with_empty_frame.split_off(14);
        with_empty_frame.push(frame_tag::UPDATES);
        with_empty_frame.extend_from_slice(&0u32.to_le_bytes());
        with_empty_frame.extend_from_slice(&end);
        for cut in 0..=with_empty_frame.len() {
            let mut d = FrameDecoder::new();
            let decoded = decode_split(&mut d, &with_empty_frame, cut);
            assert!(decoded.is_empty());
            assert!(d.finished(), "split at {cut}");
            assert_eq!(d.progress().frames_read, 2);
        }
    }

    #[test]
    fn decoder_enforces_its_frame_bound() {
        let updates: Vec<Update> = (0..8u64).map(Update::insert).collect();
        let bytes = encode_updates(8, &updates).unwrap();
        let mut d = FrameDecoder::new()
            .with_max_frame_bytes(2 * WIRE_UPDATE_BYTES as u32)
            .unwrap();
        d.feed(&bytes);
        assert!(matches!(d.error(), Some(WireError::OversizedFrame { .. })));
        assert!(FrameDecoder::new().with_max_frame_bytes(3).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WireError::BadMagic.to_string().contains("magic"));
        assert!(WireError::UnsupportedVersion { found: 7 }
            .to_string()
            .contains('7'));
        assert!(WireError::UnknownFrameTag { found: 9 }
            .to_string()
            .contains('9'));
        assert!(WireError::OversizedFrame { len: 10, max: 4 }
            .to_string()
            .contains("10"));
        assert!(WireError::Corrupt("odd payload".into())
            .to_string()
            .contains("odd payload"));
        let mismatch = WireError::DomainMismatch {
            declared: 1024,
            expected: 64,
        };
        assert!(mismatch.to_string().contains("1024"));
        assert!(mismatch.to_string().contains("64"));
    }
}
