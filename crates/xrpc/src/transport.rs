//! Transport abstraction over the XRPC envelope protocol.
//!
//! Every envelope exchange — request/response, doc fetch, fault — goes
//! through the [`Transport`] trait: the deterministic in-process simulated
//! transport (the chaos oracle, unchanged behind this seam) and the real
//! TCP transport ([`crate::tcp`]) implement the same one-exchange contract,
//! so the coordinator above cannot tell a simulated federation from a
//! multi-process one.
//!
//! The module also owns the **length-prefixed framing** both ends of the
//! socket speak: a 4-byte big-endian length followed by that many bytes of
//! UTF-8 envelope text. Framing is where a real network's failure modes
//! live — truncated prefixes, oversized declared lengths, mid-frame EOF —
//! and every one of them maps to a *typed* error
//! (`xrpc:transport-corrupt`), never a panic and never an allocation sized
//! by an untrusted length field. A read deadline covers a whole read
//! (`DeadlineReader`), so neither end can be held by a trickling peer.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::net::XrpcError;

/// Hard cap on a frame's declared payload length. A peer declaring more is
/// answered with a typed fault, and — crucially — the declared length is
/// validated *before* any allocation, so a hostile 4-byte prefix cannot
/// reserve gigabytes.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Why a frame could not be read. Carries enough detail for an honest
/// fault message; [`FrameError::into_xrpc`] maps every variant into the
/// typed taxonomy.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF before the first prefix byte: the peer closed the
    /// connection between frames. Not corruption — connection lifecycle.
    Closed,
    /// EOF after 1–3 prefix bytes: the length header itself was cut.
    TruncatedPrefix(usize),
    /// The prefix declared more than the frame cap. Rejected before any
    /// buffer is sized from it.
    Oversized { declared: u64, max: usize },
    /// EOF mid-payload: `got` of `declared` bytes arrived.
    MidFrameEof { got: usize, declared: usize },
    /// The payload is not valid UTF-8 (XRPC envelopes are XML text).
    Utf8 { valid_up_to: usize },
    /// An I/O error during the read; `timed_out` distinguishes a read
    /// deadline from a reset/refused connection.
    Io { detail: String, timed_out: bool },
}

impl FrameError {
    /// True when the failure was a read deadline expiring.
    pub fn timed_out(&self) -> bool {
        matches!(self, FrameError::Io { timed_out: true, .. })
    }

    /// Lifts the framing failure into the typed taxonomy, attributed to
    /// `peer`. Read deadlines become [`XrpcError::Timeout`]; everything
    /// else — including a clean close where a reply was still owed — is
    /// [`XrpcError::TransportCorrupt`].
    pub fn into_xrpc(self, peer: &str, deadline: Duration) -> XrpcError {
        let peer = peer.to_string();
        match self {
            FrameError::Io { timed_out: true, .. } => XrpcError::Timeout { peer, deadline },
            FrameError::Closed => XrpcError::TransportCorrupt {
                peer,
                detail: "connection closed before a reply frame".to_string(),
            },
            FrameError::TruncatedPrefix(got) => XrpcError::TransportCorrupt {
                peer,
                detail: format!("length prefix truncated after {got} byte(s)"),
            },
            FrameError::Oversized { declared, max } => XrpcError::TransportCorrupt {
                peer,
                detail: format!("declared frame length {declared} exceeds the {max}-byte cap"),
            },
            FrameError::MidFrameEof { got, declared } => XrpcError::TransportCorrupt {
                peer,
                detail: format!("frame truncated mid-payload ({got} of {declared} bytes)"),
            },
            FrameError::Utf8 { valid_up_to } => XrpcError::TransportCorrupt {
                peer,
                detail: format!("frame payload byte {valid_up_to} is not valid UTF-8"),
            },
            FrameError::Io { detail, .. } => XrpcError::TransportCorrupt { peer, detail },
        }
    }
}

fn io_frame_err(e: std::io::Error) -> FrameError {
    let timed_out = matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    );
    FrameError::Io { detail: format!("read failed: {e}"), timed_out }
}

/// Writes one length-prefixed frame and flushes it. Prefix and payload
/// leave in a single vectored write: on a `TCP_NODELAY` stream two writes
/// are two segments and two syscalls, and the reader can wake on the 4-byte
/// prefix alone only to block again for the payload. Gathering instead of
/// assembling keeps an MB-sized payload from being copied just to be sent.
pub fn write_frame(w: &mut dyn Write, payload: &str) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload exceeds u32 length")
    })?;
    let prefix = len.to_be_bytes();
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(payload.as_bytes())];
    let mut left = &mut parts[..];
    // an empty payload leaves an empty slice behind the prefix: done when
    // no byte is left, not when no slice is
    while left.iter().any(|part| !part.is_empty()) {
        match w.write_vectored(left) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads the 4-byte length prefix. `Ok(None)` is a clean close (EOF before
/// the first byte); a partial prefix is [`FrameError::TruncatedPrefix`].
pub fn read_prefix(r: &mut dyn Read) -> Result<Option<u32>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::TruncatedPrefix(got)),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_frame_err(e)),
        }
    }
    Ok(Some(u32::from_be_bytes(prefix)))
}

/// Reads a frame payload of `declared` bytes, capped by `max_len`. The
/// declared length is validated before any buffer is sized from it, and
/// the read itself is bounded, so a lying prefix can neither allocate nor
/// stream without limit.
pub fn read_payload(
    r: &mut dyn Read,
    declared: u32,
    max_len: usize,
) -> Result<String, FrameError> {
    let declared = declared as usize;
    if declared > max_len {
        return Err(FrameError::Oversized { declared: declared as u64, max: max_len });
    }
    // grow towards the declared size instead of trusting it up front
    let mut buf = Vec::with_capacity(declared.min(64 * 1024));
    let mut limited = r.take(declared as u64);
    match limited.read_to_end(&mut buf) {
        Ok(_) => {}
        Err(e) => return Err(io_frame_err(e)),
    }
    if buf.len() < declared {
        return Err(FrameError::MidFrameEof { got: buf.len(), declared });
    }
    String::from_utf8(buf)
        .map_err(|e| FrameError::Utf8 { valid_up_to: e.utf8_error().valid_up_to() })
}

/// A socket read under one deadline for the whole read, however many
/// `recv`s it takes: the socket timeout is re-armed with what is left
/// before each one, so a peer trickling bytes just inside a per-`recv`
/// timeout cannot hold the reader past `deadline`. At zero the read fails
/// with `TimedOut`, which [`FrameError::timed_out`] reports like any other
/// expired read deadline.
pub(crate) struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> DeadlineReader<'a> {
    pub(crate) fn new(stream: &'a TcpStream, deadline: Instant) -> Self {
        DeadlineReader { stream, deadline }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one whole frame: prefix plus payload. `Ok(None)` is a clean
/// close between frames.
pub fn read_frame(r: &mut dyn Read, max_len: usize) -> Result<Option<String>, FrameError> {
    match read_prefix(r)? {
        None => Ok(None),
        Some(declared) => read_payload(r, declared, max_len).map(Some),
    }
}

/// One envelope exchange with a named peer.
///
/// The reply is always an envelope — `<response>`, `<doc>`, or a typed
/// `<fault>` the caller decodes — mirroring the simulated transport's
/// contract that remote failures travel as wire bytes. `Err` is reserved
/// for failures with no reply envelope at all: an unknown peer, a refused
/// or reset connection, a frame that could not be read within `budget`.
pub trait Transport: Send + Sync {
    /// Ships `request` to `peer` and returns the reply envelope, spending
    /// at most `budget` wall clock on this one attempt.
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "<env><request/></env>").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME_LEN).unwrap().as_deref(),
            Some("<env><request/></env>")
        );
        // a second read sees the clean close
        assert!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap().is_none());
    }

    /// Counts write calls of either kind; takes at most `max` bytes per
    /// call, like a socket with that much send-buffer room.
    struct CountingWriter {
        calls: usize,
        max: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for buf in bufs {
                let room = self.max - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let payload = "x".repeat(512);
        let mut w = CountingWriter { calls: 0, max: usize::MAX, bytes: Vec::new() };
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.calls, 1, "prefix and payload must share one write");
        assert_eq!(
            read_frame(&mut Cursor::new(w.bytes), MAX_FRAME_LEN).unwrap().as_deref(),
            Some(payload.as_str())
        );
    }

    /// Short writes — mid-prefix, on the prefix/payload seam, mid-payload —
    /// resume where they stopped, and an empty payload terminates.
    #[test]
    fn short_writes_resume_without_loss_or_repeat() {
        for payload in ["", "abcdefghij"] {
            for max in [1, 3, 4, 5, 7] {
                let mut w = CountingWriter { calls: 0, max, bytes: Vec::new() };
                write_frame(&mut w, payload).unwrap();
                assert_eq!(w.calls, (4 + payload.len()).div_ceil(max), "{payload:?} max={max}");
                assert_eq!(
                    read_frame(&mut Cursor::new(w.bytes), MAX_FRAME_LEN).unwrap().as_deref(),
                    Some(payload)
                );
            }
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.extend_from_slice(b"tiny");
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err:?}");
        assert_eq!(err.into_xrpc("p", Duration::from_secs(1)).code(), "xrpc:transport-corrupt");
    }
}
