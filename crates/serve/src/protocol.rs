//! The `rapid serve` wire protocol: length-framed binary messages over
//! one TCP connection per live trace session.
//!
//! Every message is one frame: a one-byte kind, a little-endian `u32`
//! payload length, then the payload — see `docs/SERVICE.md` for the
//! normative layout, examples and the session state machine. Event and
//! name payloads reuse the [`tracelog::wire`] codec, so the bytes a
//! client puts on the socket are exactly the bytes the server decodes
//! straight into an [`tracelog::stream::EventBatch`].
//!
//! This module is pure bytes — encoders append to `Vec<u8>`, the
//! [`FrameBuf`] decoder carves frames out of whatever the socket
//! delivered — so the same code serves the server, the client library
//! and the tests without any I/O coupling.

use std::fmt;

/// Protocol version carried by `HELLO` / `WELCOME`.
pub const VERSION: u8 = 1;

/// Frame header size: kind byte + `u32` payload length.
pub const HEADER_BYTES: usize = 5;

/// Upper bound on a frame payload. Larger announced lengths are a
/// protocol error — the peer is garbage or hostile, not just chatty —
/// and poison the session before any allocation happens.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Frame kinds. Client→server kinds have the high bit clear,
/// server→client kinds have it set. Stable protocol constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Client hello: `[version u8]`. Must be the first frame.
    Hello = 0x01,
    /// Name definitions: [`tracelog::wire`] name records.
    Names = 0x02,
    /// Event chunk: [`tracelog::wire`] event records.
    Events = 0x03,
    /// End of the current trace; the server replies [`Kind::Summary`]
    /// and resets the session for the connection's next trace.
    End = 0x04,
    /// Server statistics request (empty payload).
    Stats = 0x05,
    /// Server hello: `[version u8]`.
    Welcome = 0x81,
    /// Online verdict push: a checker fired mid-stream.
    Verdict = 0x82,
    /// End-of-trace summary with every checker's verdict.
    Summary = 0x83,
    /// Terminal session error; the server closes after sending it.
    Error = 0x84,
    /// Reply to [`Kind::Stats`].
    StatsReply = 0x85,
}

impl Kind {
    /// Decodes a kind byte.
    #[must_use]
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => Self::Hello,
            0x02 => Self::Names,
            0x03 => Self::Events,
            0x04 => Self::End,
            0x05 => Self::Stats,
            0x81 => Self::Welcome,
            0x82 => Self::Verdict,
            0x83 => Self::Summary,
            0x84 => Self::Error,
            0x85 => Self::StatsReply,
            _ => return None,
        })
    }
}

/// Error codes carried by [`Kind::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The byte stream violated the protocol (bad frame, bad handshake,
    /// oversized payload, unknown kind).
    Protocol = 1,
    /// The trace itself is ill-formed (well-formedness validation
    /// failed); the message carries event attribution.
    Malformed = 2,
    /// The session was evicted under the server's retained-memory
    /// budget while a trace was live.
    Evicted = 3,
    /// Server-side failure unrelated to this client's bytes.
    Internal = 4,
}

impl ErrorCode {
    /// Decodes an error-code byte.
    #[must_use]
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => Self::Protocol,
            2 => Self::Malformed,
            3 => Self::Evicted,
            4 => Self::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Protocol => "protocol",
            Self::Malformed => "malformed",
            Self::Evicted => "evicted",
            Self::Internal => "internal",
        })
    }
}

/// A peer sent bytes this side cannot accept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// Appends a frame (header + payload) to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — encoders chunk their
/// data well below it.
pub fn put_frame(kind: Kind, payload: &[u8], out: &mut Vec<u8>) {
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload over protocol limit");
    out.push(kind as u8);
    out.extend_from_slice(&u32::try_from(payload.len()).expect("checked above").to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incremental frame decoder: feed it whatever the socket delivered,
/// take complete frames out. The buffer compacts itself, so steady
/// state is allocation-free once grown to the largest in-flight frame.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix; compacted lazily to keep `next_frame` O(1)
    /// amortised.
    head: usize,
}

impl FrameBuf {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Buffered bytes not yet consumed as frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Carves the next complete frame off the buffer: `Ok(Some((kind,
    /// payload)))`, `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// An unknown kind byte or an over-limit announced length is a
    /// [`ProtocolError`]: framing sync is lost for good, the caller
    /// must poison the connection.
    pub fn next_frame(&mut self) -> Result<Option<(Kind, &[u8])>, ProtocolError> {
        if self.head > 0 && (self.head == self.buf.len() || self.head >= MAX_PAYLOAD) {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let rest = &self.buf[self.head..];
        if rest.len() < HEADER_BYTES {
            return Ok(None);
        }
        let kind = Kind::from_byte(rest[0])
            .ok_or_else(|| err(format!("unknown frame kind {:#04x}", rest[0])))?;
        let len = u32::from_le_bytes(rest[1..5].try_into().expect("4-byte slice")) as usize;
        if len > MAX_PAYLOAD {
            return Err(err(format!("frame payload {len} bytes exceeds limit {MAX_PAYLOAD}")));
        }
        if rest.len() < HEADER_BYTES + len {
            return Ok(None);
        }
        let start = self.head + HEADER_BYTES;
        self.head = start + len;
        Ok(Some((kind, &self.buf[start..start + len])))
    }
}

/// A pushed verdict: checker `checker` (panel index) detected a
/// violation at trace event `event`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictFrame {
    /// Panel index of the checker that fired.
    pub checker: u16,
    /// Zero-based trace index of the violating event.
    pub event: u64,
    /// Human-readable rendering (names resolved server-side).
    pub message: String,
}

/// Encodes a [`VerdictFrame`] payload.
pub fn encode_verdict(v: &VerdictFrame, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.checker.to_le_bytes());
    out.extend_from_slice(&v.event.to_le_bytes());
    put_str(&v.message, out);
}

/// Decodes a [`VerdictFrame`] payload.
///
/// # Errors
///
/// Truncated or over-long payloads are a [`ProtocolError`].
pub fn decode_verdict(payload: &[u8]) -> Result<VerdictFrame, ProtocolError> {
    let mut r = Reader(payload);
    let v = VerdictFrame { checker: r.u16()?, event: r.u64()?, message: r.str()? };
    r.finish()?;
    Ok(v)
}

/// One checker's line of a [`SummaryFrame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryRun {
    /// The checker's name.
    pub name: String,
    /// Violating event index; `None` = serializable.
    pub violation: Option<u64>,
    /// Clock heap allocations this trace charged to the checker — the
    /// wire face of the zero-allocation steady-state invariant (flat at
    /// zero from a warm session's second trace).
    pub clock_allocs: u64,
}

/// End-of-trace summary: the service-side equivalent of a sealed
/// reference verdict, carrying exactly the ingredients of
/// [`aerodrome_suite::pipeline::seal_text`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryFrame {
    /// Events checked.
    pub events: u64,
    /// Distinct thread names.
    pub threads: u32,
    /// Distinct lock names.
    pub locks: u32,
    /// Distinct variable names.
    pub vars: u32,
    /// Per-checker verdicts in panel order.
    pub runs: Vec<SummaryRun>,
}

impl SummaryFrame {
    /// Renders the summary in the canonical sealed-reference text
    /// format ([`aerodrome_suite::pipeline::seal_text`]), which is what
    /// the differential tests diff against offline `rapid check`.
    #[must_use]
    pub fn seal_text(&self) -> String {
        aerodrome_suite::pipeline::seal_text(
            self.events,
            self.threads as usize,
            self.locks as usize,
            self.vars as usize,
            self.runs.iter().map(|run| (run.name.as_str(), run.violation)),
        )
    }
}

/// Encodes a [`SummaryFrame`] payload.
pub fn encode_summary(s: &SummaryFrame, out: &mut Vec<u8>) {
    out.extend_from_slice(&s.events.to_le_bytes());
    out.extend_from_slice(&s.threads.to_le_bytes());
    out.extend_from_slice(&s.locks.to_le_bytes());
    out.extend_from_slice(&s.vars.to_le_bytes());
    out.extend_from_slice(&u16::try_from(s.runs.len()).expect("panel is small").to_le_bytes());
    for run in &s.runs {
        put_str(&run.name, out);
        match run.violation {
            None => out.push(0),
            Some(e) => {
                out.push(1);
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
        out.extend_from_slice(&run.clock_allocs.to_le_bytes());
    }
}

/// Decodes a [`SummaryFrame`] payload.
///
/// # Errors
///
/// Truncated or over-long payloads are a [`ProtocolError`].
pub fn decode_summary(payload: &[u8]) -> Result<SummaryFrame, ProtocolError> {
    let mut r = Reader(payload);
    let (events, threads, locks, vars) = (r.u64()?, r.u32()?, r.u32()?, r.u32()?);
    let n = r.u16()?;
    let mut runs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = r.str()?;
        let violation = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            other => return Err(err(format!("bad verdict status byte {other}"))),
        };
        runs.push(SummaryRun { name, violation, clock_allocs: r.u64()? });
    }
    r.finish()?;
    Ok(SummaryFrame { events, threads, locks, vars, runs })
}

/// A terminal session error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// What went wrong, coarsely.
    pub code: ErrorCode,
    /// Attribution: frame number, event index, validator message.
    pub message: String,
}

/// Encodes an [`ErrorFrame`] payload.
pub fn encode_error(e: &ErrorFrame, out: &mut Vec<u8>) {
    out.push(e.code as u8);
    put_str(&e.message, out);
}

/// Decodes an [`ErrorFrame`] payload.
///
/// # Errors
///
/// Truncated or over-long payloads are a [`ProtocolError`].
pub fn decode_error(payload: &[u8]) -> Result<ErrorFrame, ProtocolError> {
    let mut r = Reader(payload);
    let code = r.u8()?;
    let code = ErrorCode::from_byte(code).ok_or_else(|| err(format!("bad error code {code}")))?;
    let e = ErrorFrame { code, message: r.str()? };
    r.finish()?;
    Ok(e)
}

/// Server statistics, as returned for [`Kind::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsFrame {
    /// Live sessions server-wide.
    pub sessions: u32,
    /// Clock bytes currently retained across all resident sessions —
    /// the gauge the `--max-retained-bytes` budget is enforced against.
    pub retained_bytes: u64,
    /// Sessions evicted under the budget since the server started.
    pub evictions: u64,
}

/// Encodes a [`StatsFrame`] payload.
pub fn encode_stats(s: &StatsFrame, out: &mut Vec<u8>) {
    out.extend_from_slice(&s.sessions.to_le_bytes());
    out.extend_from_slice(&s.retained_bytes.to_le_bytes());
    out.extend_from_slice(&s.evictions.to_le_bytes());
}

/// Decodes a [`StatsFrame`] payload.
///
/// # Errors
///
/// Truncated or over-long payloads are a [`ProtocolError`].
pub fn decode_stats(payload: &[u8]) -> Result<StatsFrame, ProtocolError> {
    let mut r = Reader(payload);
    let s = StatsFrame { sessions: r.u32()?, retained_bytes: r.u64()?, evictions: r.u64()? };
    r.finish()?;
    Ok(s)
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&u16::try_from(len).expect("clamped").to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

/// Tiny cursor for decoding fixed layouts; every read is bounds-checked
/// because the bytes come from the peer.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ProtocolError> {
        if self.0.len() < n {
            return Err(err("truncated frame payload"));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String, ProtocolError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("frame string is not UTF-8"))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(err(format!("{} unexpected trailing payload byte(s)", self.0.len())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_reassemble_from_arbitrary_splits() {
        let mut stream = Vec::new();
        put_frame(Kind::Hello, &[VERSION], &mut stream);
        put_frame(Kind::Events, &[0; 18], &mut stream);
        put_frame(Kind::End, &[], &mut stream);

        // Feed one byte at a time: framing must not depend on read
        // boundaries.
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for &b in &stream {
            fb.extend(&[b]);
            while let Some((kind, payload)) = fb.next_frame().unwrap() {
                got.push((kind, payload.len()));
            }
        }
        assert_eq!(got, vec![(Kind::Hello, 1), (Kind::Events, 18), (Kind::End, 0)]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn unknown_kind_and_oversized_length_poison_the_stream() {
        let mut fb = FrameBuf::new();
        fb.extend(&[0x7F, 0, 0, 0, 0]);
        assert!(fb.next_frame().is_err());

        let mut fb = FrameBuf::new();
        let mut huge = vec![Kind::Events as u8];
        huge.extend_from_slice(&u32::try_from(MAX_PAYLOAD + 1).unwrap().to_le_bytes());
        fb.extend(&huge);
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn verdict_summary_error_stats_roundtrip() {
        let v = VerdictFrame { checker: 2, event: 981, message: "write of `x`".into() };
        let mut p = Vec::new();
        encode_verdict(&v, &mut p);
        assert_eq!(decode_verdict(&p).unwrap(), v);

        let s = SummaryFrame {
            events: 1_000_000,
            threads: 8,
            locks: 3,
            vars: 64,
            runs: vec![
                SummaryRun { name: "aerodrome".into(), violation: None, clock_allocs: 0 },
                SummaryRun { name: "velodrome".into(), violation: Some(17), clock_allocs: 4 },
            ],
        };
        let mut p = Vec::new();
        encode_summary(&s, &mut p);
        assert_eq!(decode_summary(&p).unwrap(), s);

        let e = ErrorFrame { code: ErrorCode::Malformed, message: "event 3: bad".into() };
        let mut p = Vec::new();
        encode_error(&e, &mut p);
        assert_eq!(decode_error(&p).unwrap(), e);

        let st = StatsFrame { sessions: 16, retained_bytes: 1 << 22, evictions: 3 };
        let mut p = Vec::new();
        encode_stats(&st, &mut p);
        assert_eq!(decode_stats(&p).unwrap(), st);
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let s = SummaryFrame { events: 1, threads: 1, locks: 0, vars: 1, runs: vec![] };
        let mut p = Vec::new();
        encode_summary(&s, &mut p);
        assert!(decode_summary(&p[..p.len() - 1]).is_err());
        p.push(0xFF);
        assert!(decode_summary(&p).is_err());
    }

    #[test]
    fn seal_text_matches_the_reference_format() {
        let s = SummaryFrame {
            events: 42,
            threads: 2,
            locks: 1,
            vars: 3,
            runs: vec![
                SummaryRun { name: "aerodrome".into(), violation: Some(7), clock_allocs: 0 },
                SummaryRun { name: "velodrome".into(), violation: None, clock_allocs: 0 },
            ],
        };
        assert_eq!(
            s.seal_text(),
            "# rapid seal v1\nevents: 42\nthreads: 2\nlocks: 1\nvars: 3\n\
             aerodrome: violation@7\nvelodrome: serializable\n"
        );
    }
}
