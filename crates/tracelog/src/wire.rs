//! Binary wire codec for event chunks — the payload format of the
//! `rapid serve` service protocol (see `docs/SERVICE.md`).
//!
//! The `.std` text format is the *interchange* format; it is the wrong
//! thing to push through a socket per event (a parse per line, a name
//! lookup per field). This module defines the compact on-the-wire form
//! the checking service uses instead:
//!
//! * **Event records** — fixed-width ([`EVENT_RECORD_BYTES`] bytes each):
//!   a one-byte operation tag, the thread index and the operand index,
//!   little-endian. A chunk of records decodes straight into an
//!   [`EventBatch`] with no per-event allocation or string handling —
//!   [`decode_events_within`] is a length check and an [`IdBounds`]
//!   check per event, so no decoded id exceeds its name table.
//! * **Name records** — variable-width definitions binding a dense index
//!   to a UTF-8 name, per id space (threads, locks, variables). A client
//!   sends each name **once**, before the first event that references
//!   it; [`decode_names`] enforces the dense-allocation invariant the
//!   checkers rely on (index `n` must be defined when the table holds
//!   exactly `n` names).
//!
//! Both directions are pure functions over byte slices — no I/O — so the
//! codec is usable from the server, the client library and the tests
//! without dragging sockets in. Encoding and decoding round-trip
//! bit-identically; every decoder rejects truncated and malformed input
//! with a typed [`WireError`] instead of panicking, because the bytes
//! come from the network.

use std::fmt;

use crate::ids::{Interner, LockId, ThreadId, VarId};
use crate::stream::{EventBatch, SourceNames};
use crate::trace::{Event, Op};

/// Size of one encoded event record, in bytes: `[op u8][thread u32 LE]
/// [operand u32 LE]`.
pub const EVENT_RECORD_BYTES: usize = 9;

/// A malformed wire payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload length is not a whole number of records, or a record
    /// was cut short.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes left over.
        at: usize,
    },
    /// An event record carried an unknown operation tag.
    BadOpTag(u8),
    /// A name record carried an unknown id-space tag.
    BadNameKind(u8),
    /// A name definition arrived out of dense order (index ≠ current
    /// table size) or redefined an existing index with a different name.
    NonDenseName {
        /// The id space of the offending record.
        kind: NameKind,
        /// The index the record tried to define.
        index: u32,
        /// The table size at that point (the only legal index).
        expected: u32,
    },
    /// A name was not valid UTF-8.
    BadUtf8,
    /// An event record referenced an id its name table does not define
    /// (fork and join targets are thread ids).
    UnboundId {
        /// The id space of the offending id.
        kind: NameKind,
        /// The offending id.
        id: u32,
        /// How many names of that kind are defined.
        defined: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { what, at } => {
                write!(f, "truncated {what} record ({at} trailing byte(s))")
            }
            Self::BadOpTag(t) => write!(f, "unknown event op tag {t:#04x}"),
            Self::BadNameKind(k) => write!(f, "unknown name-space tag {k:#04x}"),
            Self::NonDenseName { kind, index, expected } => write!(
                f,
                "non-dense {kind} name definition: got index {index}, expected {expected}"
            ),
            Self::BadUtf8 => write!(f, "name is not valid UTF-8"),
            Self::UnboundId { kind, id, defined } => {
                write!(f, "unbound {kind} id {id} (only {defined} {kind} name(s) defined)")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The id space a name record defines into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NameKind {
    /// Thread names.
    Thread,
    /// Lock names.
    Lock,
    /// Variable names.
    Var,
}

impl NameKind {
    fn tag(self) -> u8 {
        match self {
            Self::Thread => 0,
            Self::Lock => 1,
            Self::Var => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Self::Thread),
            1 => Ok(Self::Lock),
            2 => Ok(Self::Var),
            other => Err(WireError::BadNameKind(other)),
        }
    }
}

impl fmt::Display for NameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Thread => "thread",
            Self::Lock => "lock",
            Self::Var => "var",
        })
    }
}

/// The name-table sizes decoded ids must stay below. Every index must be
/// defined before an event references it; enforcing that where the bytes
/// enter keeps a hostile id from sizing a checker's clocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdBounds {
    threads: usize,
    locks: usize,
    vars: usize,
}

impl IdBounds {
    /// Accepts every id: for replaying records this program encoded.
    const UNBOUNDED: Self = Self { threads: usize::MAX, locks: usize::MAX, vars: usize::MAX };

    /// The bounds set by the name tables defined so far.
    #[must_use]
    pub fn of(names: SourceNames<'_>) -> Self {
        Self { threads: names.threads.len(), locks: names.locks.len(), vars: names.vars.len() }
    }

    /// The one id check of every decoder: `id` must be below the count
    /// of defined `kind` names.
    fn check(self, kind: NameKind, id: u32) -> Result<usize, WireError> {
        let defined = match kind {
            NameKind::Thread => self.threads,
            NameKind::Lock => self.locks,
            NameKind::Var => self.vars,
        };
        let index = id as usize;
        if index < defined {
            Ok(index)
        } else {
            Err(WireError::UnboundId { kind, id, defined })
        }
    }
}

/// Operation tags. Stable protocol constants — append-only.
const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_ACQUIRE: u8 = 2;
const OP_RELEASE: u8 = 3;
const OP_FORK: u8 = 4;
const OP_JOIN: u8 = 5;
const OP_BEGIN: u8 = 6;
const OP_END: u8 = 7;

fn op_parts(op: Op) -> (u8, u32) {
    match op {
        Op::Read(x) => (OP_READ, x.index() as u32),
        Op::Write(x) => (OP_WRITE, x.index() as u32),
        Op::Acquire(l) => (OP_ACQUIRE, l.index() as u32),
        Op::Release(l) => (OP_RELEASE, l.index() as u32),
        Op::Fork(t) => (OP_FORK, t.index() as u32),
        Op::Join(t) => (OP_JOIN, t.index() as u32),
        Op::Begin => (OP_BEGIN, 0),
        Op::End => (OP_END, 0),
    }
}

fn op_from_parts(tag: u8, arg: u32, bounds: IdBounds) -> Result<Op, WireError> {
    let var = || bounds.check(NameKind::Var, arg).map(VarId::from_index);
    let lock = || bounds.check(NameKind::Lock, arg).map(LockId::from_index);
    let thread = || bounds.check(NameKind::Thread, arg).map(ThreadId::from_index);
    Ok(match tag {
        OP_READ => Op::Read(var()?),
        OP_WRITE => Op::Write(var()?),
        OP_ACQUIRE => Op::Acquire(lock()?),
        OP_RELEASE => Op::Release(lock()?),
        OP_FORK => Op::Fork(thread()?),
        OP_JOIN => Op::Join(thread()?),
        OP_BEGIN => Op::Begin,
        OP_END => Op::End,
        other => return Err(WireError::BadOpTag(other)),
    })
}

/// Appends one encoded event record to `out`.
pub fn encode_event(event: Event, out: &mut Vec<u8>) {
    let (tag, arg) = op_parts(event.op);
    out.push(tag);
    out.extend_from_slice(&(event.thread.index() as u32).to_le_bytes());
    out.extend_from_slice(&arg.to_le_bytes());
}

/// Appends the encoded records of `events` to `out`
/// (`events.len() * EVENT_RECORD_BYTES` bytes).
pub fn encode_events(events: &[Event], out: &mut Vec<u8>) {
    out.reserve(events.len() * EVENT_RECORD_BYTES);
    for &event in events {
        encode_event(event, out);
    }
}

/// Decodes a chunk of event records this program encoded, without id
/// bounds; untrusted bytes go through [`decode_events_within`].
///
/// # Errors
///
/// As [`decode_events_within`], minus [`WireError::UnboundId`].
pub fn decode_events(payload: &[u8], batch: &mut EventBatch) -> Result<usize, WireError> {
    decode_events_within(payload, IdBounds::UNBOUNDED, batch)
}

/// Decodes a chunk of event records, **appending** to `batch` (the
/// caller clears it; the service appends a socket read's worth of frames
/// into one batch before feeding the checkers). Returns the number of
/// events appended.
///
/// # Errors
///
/// [`WireError::Truncated`] if `payload` is not a whole number of
/// records; [`WireError::BadOpTag`] on an unknown tag;
/// [`WireError::UnboundId`] on an id outside `bounds`. On error the
/// batch keeps the records decoded before the failure — callers
/// poisoning a session on error must not feed that prefix.
pub fn decode_events_within(
    payload: &[u8],
    bounds: IdBounds,
    batch: &mut EventBatch,
) -> Result<usize, WireError> {
    if !payload.len().is_multiple_of(EVENT_RECORD_BYTES) {
        return Err(WireError::Truncated { what: "event", at: payload.len() % EVENT_RECORD_BYTES });
    }
    let n = payload.len() / EVENT_RECORD_BYTES;
    for record in payload.chunks_exact(EVENT_RECORD_BYTES) {
        batch.push(decode_record(record, bounds)?);
    }
    Ok(n)
}

/// Decodes exactly one [`EVENT_RECORD_BYTES`]-byte event record. Shared
/// by [`decode_events_within`] and the `binfmt` on-disk reader, so the
/// two decoders cannot drift.
pub(crate) fn decode_record(record: &[u8], bounds: IdBounds) -> Result<Event, WireError> {
    debug_assert_eq!(record.len(), EVENT_RECORD_BYTES, "callers slice whole records");
    let tag = record[0];
    let thread = u32::from_le_bytes(record[1..5].try_into().expect("4-byte slice"));
    let arg = u32::from_le_bytes(record[5..9].try_into().expect("4-byte slice"));
    let thread = bounds.check(NameKind::Thread, thread)?;
    let op = op_from_parts(tag, arg, bounds)?;
    Ok(Event::new(ThreadId::from_index(thread), op))
}

/// Appends one encoded name record to `out`: `[kind u8][index u32 LE]
/// [len u16 LE][utf8 bytes]`.
pub fn encode_name(kind: NameKind, index: u32, name: &str, out: &mut Vec<u8>) {
    debug_assert!(name.len() <= u16::MAX as usize, "interned names are short");
    out.push(kind.tag());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Decodes a chunk of name records into the three interners, enforcing
/// dense allocation order per id space. Returns the number of records
/// decoded. Re-definitions of an existing index with the **same** name
/// are idempotent no-ops (a retransmitted frame must not poison a
/// session); a different name is [`WireError::NonDenseName`].
///
/// # Errors
///
/// Truncated records, unknown kind tags, non-UTF-8 names and non-dense
/// indices are all rejected.
pub fn decode_names(
    payload: &[u8],
    threads: &mut Interner,
    locks: &mut Interner,
    vars: &mut Interner,
) -> Result<usize, WireError> {
    let mut rest = payload;
    let mut decoded = 0;
    while !rest.is_empty() {
        if rest.len() < 7 {
            return Err(WireError::Truncated { what: "name", at: rest.len() });
        }
        let kind = NameKind::from_tag(rest[0])?;
        let index = u32::from_le_bytes(rest[1..5].try_into().expect("4-byte slice"));
        let len = u16::from_le_bytes(rest[5..7].try_into().expect("2-byte slice")) as usize;
        if rest.len() < 7 + len {
            return Err(WireError::Truncated { what: "name", at: rest.len() });
        }
        let name = std::str::from_utf8(&rest[7..7 + len]).map_err(|_| WireError::BadUtf8)?;
        let table = match kind {
            NameKind::Thread => &mut *threads,
            NameKind::Lock => locks,
            NameKind::Var => vars,
        };
        let expected = table.len() as u32;
        if index < expected {
            // Idempotent retransmit — only if it binds the same name.
            if table.name(index as usize) != name {
                return Err(WireError::NonDenseName { kind, index, expected });
            }
        } else if index == expected {
            table.intern(name);
        } else {
            return Err(WireError::NonDenseName { kind, index, expected });
        }
        rest = &rest[7 + len..];
        decoded += 1;
    }
    Ok(decoded)
}

/// Encodes the tail of an interner (entries from `from` on) as name
/// records — the incremental "send each name once" sync a streaming
/// client performs before each event chunk. Returns the new table size
/// to remember as the next `from`.
pub fn encode_new_names(kind: NameKind, table: &Interner, from: usize, out: &mut Vec<u8>) -> usize {
    for (i, name) in table.iter().enumerate().skip(from) {
        encode_name(kind, i as u32, name, out);
    }
    table.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn sample_events() -> Vec<Event> {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("x");
        tb.fork(t1, t2)
            .begin(t1)
            .acquire(t1, l)
            .read(t1, x)
            .write(t1, x)
            .release(t1, l)
            .end(t1)
            .begin(t2)
            .read(t2, x)
            .end(t2)
            .join(t1, t2);
        tb.finish().events().to_vec()
    }

    #[test]
    fn events_roundtrip_bit_identically() {
        let events = sample_events();
        let mut payload = Vec::new();
        encode_events(&events, &mut payload);
        assert_eq!(payload.len(), events.len() * EVENT_RECORD_BYTES);

        let mut batch = EventBatch::with_target(events.len().max(1));
        let n = decode_events(&payload, &mut batch).unwrap();
        assert_eq!(n, events.len());
        assert_eq!(batch.events(), events.as_slice());
    }

    #[test]
    fn decode_appends_across_chunks() {
        let events = sample_events();
        let mut batch = EventBatch::with_target(events.len().max(1));
        for chunk in events.chunks(3) {
            let mut payload = Vec::new();
            encode_events(chunk, &mut payload);
            decode_events(&payload, &mut batch).unwrap();
        }
        assert_eq!(batch.events(), events.as_slice());
    }

    #[test]
    fn truncated_and_bad_tag_records_are_rejected() {
        let events = sample_events();
        let mut payload = Vec::new();
        encode_events(&events, &mut payload);

        let mut batch = EventBatch::new();
        let err = decode_events(&payload[..EVENT_RECORD_BYTES + 3], &mut batch).unwrap_err();
        assert!(matches!(err, WireError::Truncated { what: "event", at: 3 }));

        let mut bad = payload.clone();
        bad[0] = 0xEE;
        let err = decode_events(&bad, &mut batch).unwrap_err();
        assert_eq!(err, WireError::BadOpTag(0xEE));
    }

    #[test]
    fn names_roundtrip_and_enforce_density() {
        let mut payload = Vec::new();
        encode_name(NameKind::Thread, 0, "main", &mut payload);
        encode_name(NameKind::Thread, 1, "worker", &mut payload);
        encode_name(NameKind::Lock, 0, "m", &mut payload);
        encode_name(NameKind::Var, 0, "x", &mut payload);

        let (mut t, mut l, mut v) = (Interner::new(), Interner::new(), Interner::new());
        assert_eq!(decode_names(&payload, &mut t, &mut l, &mut v).unwrap(), 4);
        assert_eq!(t.name(1), "worker");
        assert_eq!(l.name(0), "m");
        assert_eq!(v.name(0), "x");

        // Same-name retransmit is idempotent …
        assert_eq!(decode_names(&payload, &mut t, &mut l, &mut v).unwrap(), 4);
        assert_eq!(t.len(), 2);

        // … a hole is not.
        let mut gap = Vec::new();
        encode_name(NameKind::Var, 5, "y", &mut gap);
        let err = decode_names(&gap, &mut t, &mut l, &mut v).unwrap_err();
        assert!(matches!(
            err,
            WireError::NonDenseName { kind: NameKind::Var, index: 5, expected: 1 }
        ));

        // … and neither is rebinding index 0 to a different name.
        let mut rebind = Vec::new();
        encode_name(NameKind::Var, 0, "z", &mut rebind);
        assert!(decode_names(&rebind, &mut t, &mut l, &mut v).is_err());
    }

    #[test]
    fn truncated_name_records_are_rejected() {
        let mut payload = Vec::new();
        encode_name(NameKind::Lock, 0, "lock-with-a-name", &mut payload);
        let (mut t, mut l, mut v) = (Interner::new(), Interner::new(), Interner::new());
        for cut in [1, 4, 9, payload.len() - 1] {
            assert!(
                decode_names(&payload[..cut], &mut t, &mut l, &mut v).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        let mut bad_kind = payload.clone();
        bad_kind[0] = 9;
        assert!(matches!(
            decode_names(&bad_kind, &mut t, &mut l, &mut v).unwrap_err(),
            WireError::BadNameKind(9)
        ));
    }

    #[test]
    fn encode_new_names_sends_each_name_once() {
        let mut table = Interner::new();
        table.intern("a");
        table.intern("b");
        let mut out = Vec::new();
        let mut sent = encode_new_names(NameKind::Thread, &table, 0, &mut out);
        assert_eq!(sent, 2);
        table.intern("c");
        let before = out.len();
        sent = encode_new_names(NameKind::Thread, &table, sent, &mut out);
        assert_eq!(sent, 3);

        let (mut t, mut l, mut v) = (Interner::new(), Interner::new(), Interner::new());
        decode_names(&out, &mut t, &mut l, &mut v).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.name(2), "c");

        // The second sync encoded only the new name: decoding just that
        // tail into an empty table trips the density check at index 2.
        let mut fresh = Interner::new();
        let err = decode_names(&out[before..], &mut fresh, &mut l, &mut v).unwrap_err();
        assert!(matches!(
            err,
            WireError::NonDenseName { kind: NameKind::Thread, index: 2, expected: 0 }
        ));
    }
}
