//! Streaming event sources — the constant-memory ingestion API.
//!
//! The paper's headline claim is *online* checking: AeroDrome touches each
//! event once, in constant per-event work. This module makes the front
//! half of the tool match: an [`EventSource`] yields events one at a time
//! without ever materialising the whole trace, so a multi-gigabyte `.std`
//! log (or an arbitrarily large generated workload) can flow straight
//! into a checker in constant memory.
//!
//! Implementations provided here:
//!
//! * [`StdReader`] — an incremental `.std` parser over any
//!   [`io::BufRead`]; [`crate::parse_trace`] is a thin collect over it,
//!   so there is exactly one parser.
//! * [`TraceSource`] — an adapter replaying an in-memory [`Trace`]
//!   (see [`Trace::stream`]).
//!
//! Generator-backed sources live in the `workloads` crate; the umbrella
//! crate's `pipeline` module composes source → validator → checker,
//! running the Section 2 [`Validator`](crate::Validator) over each batch
//! it pulls.
//!
//! # Batches
//!
//! Pulling one event per call is the natural unit for the *checkers*
//! (they are online by definition), but it is the wrong unit for
//! everything around them: dynamic dispatch, wall-clock budget checks
//! and — above all — cross-thread hand-off cost per *call*, so the
//! parallel runtime would drown in synchronisation. [`EventSource::
//! next_batch`] amortises that per-call cost over a reusable,
//! arena-backed [`EventBatch`] (default [`DEFAULT_BATCH_EVENTS`] ≈ 4096
//! events): the sources in this crate and the `workloads` generators
//! fill batches natively, per-event [`EventSource::next_event`] remains
//! the thin adapter for online consumers, and the two iteration modes
//! yield byte-identical event sequences and identical errors.
//!
//! # Examples
//!
//! ```
//! use tracelog::stream::{EventSource, StdReader};
//!
//! let log = "t1|begin|0\nt1|w(x)|1\nt1|end|2\n";
//! let mut source = StdReader::new(log.as_bytes());
//! let mut n = 0;
//! while let Some(event) = source.next_event()? {
//!     let _ = source.names().display_event(&event);
//!     n += 1;
//! }
//! assert_eq!(n, 3);
//! # Ok::<(), tracelog::stream::SourceError>(())
//! ```

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::ids::{Interner, LockId, ThreadId, VarId};
use crate::parser::{parse_event_line, ParseTraceError};
use crate::trace::{Event, Op, Trace};
use crate::validate::WellFormedError;

/// An error while pulling events out of a source.
#[derive(Debug)]
pub enum SourceError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line of the `.std` format did not parse.
    Parse(ParseTraceError),
    /// The well-formedness [`Validator`](crate::Validator) rejected an
    /// event as ill-formed.
    Malformed(WellFormedError),
    /// A `.rbt` binary trace was structurally invalid
    /// (see [`crate::binfmt`]).
    Binary(crate::binfmt::BinfmtError),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "{e}"),
            Self::Parse(e) => write!(f, "{e}"),
            Self::Malformed(e) => write!(f, "not well-formed: {e}"),
            Self::Binary(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Parse(e) => Some(e),
            Self::Malformed(e) => Some(e),
            Self::Binary(e) => Some(e),
        }
    }
}

impl From<io::Error> for SourceError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ParseTraceError> for SourceError {
    fn from(e: ParseTraceError) -> Self {
        Self::Parse(e)
    }
}

impl From<WellFormedError> for SourceError {
    fn from(e: WellFormedError) -> Self {
        Self::Malformed(e)
    }
}

impl From<crate::binfmt::BinfmtError> for SourceError {
    fn from(e: crate::binfmt::BinfmtError) -> Self {
        Self::Binary(e)
    }
}

/// Borrowed name tables of a source: everything needed to render ids
/// (threads, locks, variables) back to the original identifiers.
///
/// The tables grow as the source runs — a name is guaranteed present once
/// an event mentioning it has been yielded.
#[derive(Clone, Copy, Debug)]
pub struct SourceNames<'a> {
    /// Thread name table.
    pub threads: &'a Interner,
    /// Lock name table.
    pub locks: &'a Interner,
    /// Variable name table.
    pub vars: &'a Interner,
}

impl SourceNames<'_> {
    /// Human-readable name of a thread.
    #[must_use]
    pub fn thread_name(&self, t: ThreadId) -> &str {
        self.threads.name(t.index())
    }

    /// Human-readable name of a lock.
    #[must_use]
    pub fn lock_name(&self, l: LockId) -> &str {
        self.locks.name(l.index())
    }

    /// Human-readable name of a variable.
    #[must_use]
    pub fn var_name(&self, x: VarId) -> &str {
        self.vars.name(x.index())
    }

    /// Renders an event with original names, e.g. `⟨t1, w(x)⟩`.
    #[must_use]
    pub fn display_event(&self, e: &Event) -> String {
        let op = match e.op {
            Op::Read(x) => format!("r({})", self.var_name(x)),
            Op::Write(x) => format!("w({})", self.var_name(x)),
            Op::Acquire(l) => format!("acq({})", self.lock_name(l)),
            Op::Release(l) => format!("rel({})", self.lock_name(l)),
            Op::Fork(t) => format!("fork({})", self.thread_name(t)),
            Op::Join(t) => format!("join({})", self.thread_name(t)),
            Op::Begin => "▷".to_owned(),
            Op::End => "◁".to_owned(),
        };
        format!("⟨{}, {}⟩", self.thread_name(e.thread), op)
    }
}

/// Default target capacity of an [`EventBatch`] — large enough to
/// amortise per-batch costs (dynamic dispatch, channel hand-off) into
/// noise, small enough that a batch of `Event`s stays cache-friendly.
pub const DEFAULT_BATCH_EVENTS: usize = 4096;

/// A reusable, arena-backed batch of events.
///
/// The backing `Vec<Event>` is the arena: [`EventBatch::clear`] keeps
/// its capacity, so a batch refilled in a loop — or recycled through the
/// parallel runtime's channels — allocates exactly once and is reused
/// for the rest of the run. The *target* is the fill level
/// [`EventSource::next_batch`] aims for; it is a soft cap on refills,
/// not a hard limit on [`EventBatch::push`].
///
/// # Examples
///
/// ```
/// use tracelog::stream::{EventBatch, EventSource, StdReader};
///
/// let log = "t1|begin|0\nt1|w(x)|1\nt1|end|2\n";
/// let mut source = StdReader::new(log.as_bytes());
/// let mut batch = EventBatch::with_target(2);
/// assert_eq!(source.next_batch(&mut batch)?, 2);
/// assert_eq!(source.next_batch(&mut batch)?, 1);
/// assert_eq!(source.next_batch(&mut batch)?, 0); // exhausted
/// # Ok::<(), tracelog::stream::SourceError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EventBatch {
    events: Vec<Event>,
    target: usize,
}

impl Default for EventBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBatch {
    /// An empty batch with the default target ([`DEFAULT_BATCH_EVENTS`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_target(DEFAULT_BATCH_EVENTS)
    }

    /// An empty batch aiming for `target` events per refill.
    ///
    /// # Panics
    ///
    /// Panics if `target == 0` (a refill could never make progress).
    #[must_use]
    pub fn with_target(target: usize) -> Self {
        assert!(target > 0, "batch target must be positive");
        Self { events: Vec::with_capacity(target), target }
    }

    /// The fill level refills aim for.
    #[must_use]
    pub fn target(&self) -> usize {
        self.target
    }

    /// Empties the batch, keeping the arena's capacity.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Appends one event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Appends a run of events.
    pub fn extend_from_slice(&mut self, events: &[Event]) {
        self.events.extend_from_slice(events);
    }

    /// Shortens the batch to its first `len` events.
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }

    /// Whether the batch has reached its target fill level.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.events.len() >= self.target
    }

    /// Number of events currently in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The batched events, in trace order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

impl<'a> IntoIterator for &'a EventBatch {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// A streaming producer of trace events.
///
/// The online counterpart of [`Trace`]: events arrive one at a time in
/// trace order, identifiers are interned densely on first occurrence, and
/// the name tables are available at any point through [`names`]
/// (covering at least every event yielded so far).
///
/// Consumers that care about hand-off cost (the parallel runtime, budget
/// drivers) should pull [`next_batch`] instead of per-event
/// [`next_event`]; the two modes yield identical event sequences and
/// identical errors, batching only changes the call granularity.
///
/// [`names`]: EventSource::names
/// [`next_batch`]: EventSource::next_batch
/// [`next_event`]: EventSource::next_event
pub trait EventSource {
    /// Pulls the next event, or `None` at the end of the trace.
    ///
    /// # Errors
    ///
    /// Returns a [`SourceError`] if the underlying reader fails, a line
    /// does not parse, or a validating stage rejects the event.
    fn next_event(&mut self) -> Result<Option<Event>, SourceError>;

    /// Clears `batch` and refills it up to its target, returning the
    /// number of events appended; `Ok(0)` means the source is exhausted.
    ///
    /// The provided implementation is the thin adapter over
    /// [`next_event`]; the sources of this crate and the workload
    /// generators override it to fill the arena natively (one virtual
    /// call and one channel hand-off per ~4096 events instead of per
    /// event).
    ///
    /// [`next_event`]: EventSource::next_event
    ///
    /// # Errors
    ///
    /// Propagates the first [`SourceError`]. On error, `batch` holds the
    /// valid events read *before* the failure (possibly none): a caller
    /// that wants per-event-identical semantics processes them first and
    /// surfaces the error after.
    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        batch.clear();
        while !batch.is_full() {
            match self.next_event()? {
                Some(event) => batch.push(event),
                None => break,
            }
        }
        Ok(batch.len())
    }

    /// The name tables accumulated so far.
    fn names(&self) -> SourceNames<'_>;

    /// Approximate number of events this source expects to yield in
    /// total, when known — a pre-allocation hint, not a contract.
    fn size_hint(&self) -> Option<u64> {
        None
    }

    /// Human-readable position of a recently yielded event in the
    /// source's own coordinates — `line N` for the text parser,
    /// `record N (chunk C)` for the binary reader — used by consumers
    /// that batch ahead of the checkers to attribute an event rejected
    /// after the source already read past it. `None` when the source has
    /// no positional notion (in-memory replays, generators) or the event
    /// is outside the attribution window.
    fn position_of(&self, event: crate::EventId) -> Option<String> {
        let _ = event;
        None
    }
}

impl<S: EventSource + ?Sized> EventSource for &mut S {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        (**self).next_event()
    }

    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        (**self).next_batch(batch)
    }

    fn names(&self) -> SourceNames<'_> {
        (**self).names()
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
    }

    fn position_of(&self, event: crate::EventId) -> Option<String> {
        (**self).position_of(event)
    }
}

impl<S: EventSource + ?Sized> EventSource for Box<S> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        (**self).next_event()
    }

    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        (**self).next_batch(batch)
    }

    fn names(&self) -> SourceNames<'_> {
        (**self).names()
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
    }

    fn position_of(&self, event: crate::EventId) -> Option<String> {
        (**self).position_of(event)
    }
}

/// Incremental `.std` parser over any buffered reader.
///
/// Reads one line per event, interning names as they first occur; memory
/// use is bounded by the name tables plus a single line buffer, never by
/// the trace length. Errors carry the 1-based line number and are
/// **fatal**: after one, the reader reports end-of-stream rather than
/// resuming past the malformed line.
///
/// # Examples
///
/// ```
/// use tracelog::stream::{EventSource, StdReader};
///
/// let mut r = StdReader::new("main|fork(w)|0\nw|begin|1\n".as_bytes());
/// while let Some(e) = r.next_event()? { let _ = e; }
/// assert_eq!(r.names().threads.len(), 2);
/// assert_eq!(r.line(), 2);
/// # Ok::<(), tracelog::stream::SourceError>(())
/// ```
#[derive(Debug)]
pub struct StdReader<R> {
    reader: R,
    threads: Interner,
    locks: Interner,
    vars: Interner,
    line: usize,
    buf: String,
    done: bool,
    /// Events yielded so far (either iteration mode).
    events: u64,
    /// Line numbers of the most recent run of yielded events (the last
    /// batch, or the last single event) — backs [`StdReader::line_of`].
    recent_lines: Vec<usize>,
}

impl<R: BufRead> StdReader<R> {
    /// Wraps a buffered reader positioned at the start of a `.std` log.
    #[must_use]
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            threads: Interner::new(),
            locks: Interner::new(),
            vars: Interner::new(),
            line: 0,
            buf: String::new(),
            done: false,
            events: 0,
            recent_lines: Vec::new(),
        }
    }

    /// One-based number of the last line read. In per-event iteration
    /// this is the line of the most recently yielded event; after a
    /// [`EventSource::next_batch`] refill it is the last line of the
    /// batch — use [`StdReader::line_of`] to attribute an event inside
    /// the batch.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }

    /// The 1-based line a recently yielded event was parsed from, when
    /// it is still in the attribution window (the most recent batch, or
    /// the most recent per-event yield). This is how a consumer that
    /// batches ahead — the pipeline validator, the parallel runtime —
    /// reports the *offending line* of an event rejected after the
    /// reader already read past it.
    #[must_use]
    pub fn line_of(&self, event: crate::EventId) -> Option<usize> {
        let index = event.index() as u64;
        let start = self.events - self.recent_lines.len() as u64;
        index
            .checked_sub(start)
            .filter(|_| index < self.events)
            .map(|offset| self.recent_lines[usize::try_from(offset).expect("batch-sized offset")])
    }

    /// Consumes the reader, yielding its `(threads, locks, vars)` name
    /// tables by value — the zero-copy alternative to cloning through
    /// [`EventSource::names`] once the stream is drained (this is how
    /// [`crate::parse_trace`] avoids duplicating the tables).
    #[must_use]
    pub fn into_names(self) -> (Interner, Interner, Interner) {
        (self.threads, self.locks, self.vars)
    }
}

impl<R: BufRead> StdReader<R> {
    /// Reads and parses the next event-bearing line, skipping blanks and
    /// comments. `Ok(None)` at end of input; errors are **fatal** (the
    /// stream has lost alignment, so resuming would silently drop the
    /// malformed event).
    #[inline]
    fn read_one(&mut self) -> Result<Option<Event>, SourceError> {
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                self.done = true;
                return Ok(None);
            }
            self.line += 1;
            let line = self.buf.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_event_line(
                line,
                self.line,
                &mut self.threads,
                &mut self.locks,
                &mut self.vars,
            ) {
                Ok(event) => {
                    self.events += 1;
                    self.recent_lines.push(self.line);
                    return Ok(Some(event));
                }
                Err(e) => {
                    self.done = true;
                    return Err(e.into());
                }
            }
        }
    }
}

impl<R: BufRead> EventSource for StdReader<R> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        if self.done {
            return Ok(None);
        }
        self.recent_lines.clear();
        self.read_one()
    }

    /// Native batch parse: one monomorphic line loop per refill, so a
    /// `&mut dyn EventSource` consumer pays one virtual call per batch
    /// rather than per line. A parse error surfaces on the call that
    /// hits it, with the already-parsed prefix left in `batch`.
    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        batch.clear();
        if self.done {
            return Ok(0);
        }
        self.recent_lines.clear();
        while !batch.is_full() {
            match self.read_one()? {
                Some(event) => batch.push(event),
                None => break,
            }
        }
        Ok(batch.len())
    }

    fn names(&self) -> SourceNames<'_> {
        SourceNames { threads: &self.threads, locks: &self.locks, vars: &self.vars }
    }

    /// Text positions are 1-based source lines: [`StdReader::line_of`]
    /// inside the attribution window, the last line read otherwise.
    fn position_of(&self, event: crate::EventId) -> Option<String> {
        Some(format!("line {}", self.line_of(event).unwrap_or(self.line)))
    }
}

/// Replays an in-memory [`Trace`] as a stream (see [`Trace::stream`]).
#[derive(Clone, Debug)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceSource<'a> {
    /// Creates a source replaying `trace` from the beginning.
    #[must_use]
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace, pos: 0 }
    }
}

impl EventSource for TraceSource<'_> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        let event = self.trace.events().get(self.pos).copied();
        self.pos += usize::from(event.is_some());
        Ok(event)
    }

    /// Native batch replay: one `memcpy` of the next chunk.
    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        batch.clear();
        let events = self.trace.events();
        let n = batch.target().min(events.len() - self.pos);
        batch.extend_from_slice(&events[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn names(&self) -> SourceNames<'_> {
        self.trace.names()
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }
}

/// Replays an owned [`Trace`] as a stream (see [`Trace::into_stream`]).
///
/// The `'static` counterpart of [`TraceSource`]: generated traces (the
/// scenario engine's schedules, fuzzing mutants) can be handed to
/// consumers that require `Box<dyn EventSource>` without keeping the
/// trace alive elsewhere.
#[derive(Clone, Debug)]
pub struct OwnedTraceSource {
    trace: Trace,
    pos: usize,
}

impl OwnedTraceSource {
    /// Creates a source replaying `trace` from the beginning.
    #[must_use]
    pub fn new(trace: Trace) -> Self {
        Self { trace, pos: 0 }
    }

    /// The trace being replayed.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Rewinds to the beginning, making the source replayable.
    pub fn rewind(&mut self) {
        self.pos = 0;
    }

    /// Releases the trace.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl EventSource for OwnedTraceSource {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        let event = self.trace.events().get(self.pos).copied();
        self.pos += usize::from(event.is_some());
        Ok(event)
    }

    /// Native batch replay: one `memcpy` of the next chunk.
    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        batch.clear();
        let events = self.trace.events();
        let n = batch.target().min(events.len() - self.pos);
        batch.extend_from_slice(&events[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn names(&self) -> SourceNames<'_> {
        self.trace.names()
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }
}

impl Trace {
    /// Streams this trace's events through the [`EventSource`] interface.
    #[must_use]
    pub fn stream(&self) -> TraceSource<'_> {
        TraceSource::new(self)
    }

    /// Converts this trace into a self-contained [`EventSource`] (the
    /// owning form of [`Trace::stream`], for `'static` consumers).
    #[must_use]
    pub fn into_stream(self) -> OwnedTraceSource {
        OwnedTraceSource::new(self)
    }

    /// The trace's name tables as [`SourceNames`].
    #[must_use]
    pub fn names(&self) -> SourceNames<'_> {
        SourceNames { threads: &self.threads, locks: &self.locks, vars: &self.vars }
    }
}

/// Drains a source into an in-memory [`Trace`].
///
/// This is the bridge from the streaming world back to the batch one.
/// The name tables are **cloned** out of the source (the trait only
/// hands out borrows); sources that can be consumed — [`StdReader`] via
/// [`StdReader::into_names`], the workloads generator — pair a manual
/// drain with [`Trace::from_parts`] instead to move the tables.
///
/// # Errors
///
/// Propagates the first [`SourceError`] of the source.
pub fn collect_trace<S: EventSource + ?Sized>(source: &mut S) -> Result<Trace, SourceError> {
    let mut events = Vec::new();
    if let Some(n) = source.size_hint() {
        events.reserve(usize::try_from(n).unwrap_or(0));
    }
    while let Some(event) = source.next_event()? {
        events.push(event);
    }
    let names = source.names();
    Ok(Trace {
        events,
        threads: names.threads.clone(),
        locks: names.locks.clone(),
        vars: names.vars.clone(),
    })
}

/// Streams a source to a writer in the `.std` text format, one event per
/// line with the event's trace offset as the `<loc>` field; returns the
/// number of events written. [`crate::write_trace`] is a thin wrapper, so
/// there is exactly one serialiser.
///
/// # Errors
///
/// Propagates source errors and write failures.
pub fn copy_events<S, W>(source: &mut S, out: &mut W) -> Result<u64, SourceError>
where
    S: EventSource + ?Sized,
    W: Write,
{
    let mut i = 0u64;
    while let Some(e) = source.next_event()? {
        let names = source.names();
        let t = names.thread_name(e.thread);
        match e.op {
            Op::Read(x) => writeln!(out, "{t}|r({})|{i}", names.var_name(x))?,
            Op::Write(x) => writeln!(out, "{t}|w({})|{i}", names.var_name(x))?,
            Op::Acquire(l) => writeln!(out, "{t}|acq({})|{i}", names.lock_name(l))?,
            Op::Release(l) => writeln!(out, "{t}|rel({})|{i}", names.lock_name(l))?,
            Op::Fork(u) => writeln!(out, "{t}|fork({})|{i}", names.thread_name(u))?,
            Op::Join(u) => writeln!(out, "{t}|join({})|{i}", names.thread_name(u))?,
            Op::Begin => writeln!(out, "{t}|begin|{i}")?,
            Op::End => writeln!(out, "{t}|end|{i}")?,
        }
        i += 1;
    }
    out.flush()?;
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_trace, write_trace, ParseErrorKind};
    use crate::trace::TraceBuilder;

    fn sample() -> Trace {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("x");
        tb.fork(t1, t2)
            .begin(t1)
            .acquire(t1, l)
            .write(t1, x)
            .release(t1, l)
            .end(t1)
            .begin(t2)
            .read(t2, x)
            .end(t2)
            .join(t1, t2);
        tb.finish()
    }

    #[test]
    fn std_reader_yields_same_events_as_batch_parser() {
        let text = write_trace(&sample());
        let batch = parse_trace(&text).unwrap();
        let mut reader = StdReader::new(text.as_bytes());
        let mut events = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            events.push(e);
        }
        assert_eq!(events.as_slice(), batch.events());
        assert_eq!(reader.names().threads, batch.thread_names());
        assert_eq!(reader.names().locks, batch.lock_names());
        assert_eq!(reader.names().vars, batch.var_names());
    }

    #[test]
    fn std_reader_reports_line_numbers() {
        let mut reader = StdReader::new("# header\n\nt1|begin|0\nt1|bogus|1\n".as_bytes());
        assert!(reader.next_event().unwrap().is_some());
        assert_eq!(reader.line(), 3);
        let err = reader.next_event().unwrap_err();
        match err {
            SourceError::Parse(p) => {
                assert_eq!(p.line, 4);
                assert!(matches!(p.kind, ParseErrorKind::UnknownOp(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(reader.line(), 4);
    }

    #[test]
    fn trace_source_roundtrips_through_collect() {
        let trace = sample();
        let back = collect_trace(&mut trace.stream()).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.num_threads(), trace.num_threads());
        assert_eq!(trace.stream().size_hint(), Some(trace.len() as u64));
    }

    #[test]
    fn copy_events_matches_write_trace() {
        let trace = sample();
        let mut buf = Vec::new();
        let n = copy_events(&mut trace.stream(), &mut buf).unwrap();
        assert_eq!(n, trace.len() as u64);
        assert_eq!(String::from_utf8(buf).unwrap(), write_trace(&trace));
    }

    #[test]
    fn source_names_render_events() {
        let trace = sample();
        let names = trace.names();
        assert_eq!(names.display_event(&trace[3]), trace.display_event(&trace[3]));
        assert_eq!(names.thread_name(trace[0].thread), "t1");
    }

    #[test]
    fn next_batch_equals_per_event_iteration() {
        let text = write_trace(&sample());
        for target in [1, 2, 3, 64] {
            let mut per_event = StdReader::new(text.as_bytes());
            let mut batched = StdReader::new(text.as_bytes());
            let mut batch = EventBatch::with_target(target);
            let mut streamed = Vec::new();
            while batched.next_batch(&mut batch).unwrap() > 0 {
                streamed.extend_from_slice(batch.events());
            }
            let mut events = Vec::new();
            while let Some(e) = per_event.next_event().unwrap() {
                events.push(e);
            }
            assert_eq!(streamed, events, "target {target}");
            assert_eq!(batched.line(), per_event.line());
        }
    }

    #[test]
    fn next_batch_surfaces_parse_errors_with_the_prefix() {
        let log = "t1|begin|0\nt1|w(x)|1\nt1|bogus|2\nt1|end|3\n";
        let mut reader = StdReader::new(log.as_bytes());
        let mut batch = EventBatch::new();
        let err = reader.next_batch(&mut batch).unwrap_err();
        assert_eq!(batch.len(), 2, "the parsed prefix stays in the batch");
        match err {
            SourceError::Parse(p) => assert_eq!(p.line, 3),
            other => panic!("unexpected {other:?}"),
        }
        // Errors are fatal, exactly as in per-event mode.
        assert_eq!(reader.next_batch(&mut batch).unwrap(), 0);
    }

    #[test]
    fn trace_source_batches_in_chunks() {
        let trace = sample();
        let mut source = trace.stream();
        let mut batch = EventBatch::with_target(4);
        let mut streamed = Vec::new();
        loop {
            let n = source.next_batch(&mut batch).unwrap();
            assert!(n <= 4);
            if n == 0 {
                break;
            }
            streamed.extend_from_slice(batch.events());
        }
        assert_eq!(streamed.as_slice(), trace.events());
    }

    #[test]
    fn batch_arena_is_reused_across_refills() {
        let trace = sample();
        let mut batch = EventBatch::with_target(3);
        let mut source = trace.stream();
        source.next_batch(&mut batch).unwrap();
        let cap = batch.events.capacity();
        let ptr = batch.events.as_ptr();
        while source.next_batch(&mut batch).unwrap() > 0 {}
        assert_eq!(batch.events.capacity(), cap);
        assert_eq!(batch.events.as_ptr(), ptr, "refills must reuse the arena");
    }

    #[test]
    #[should_panic(expected = "batch target must be positive")]
    fn zero_target_batches_are_rejected() {
        let _ = EventBatch::with_target(0);
    }

    #[test]
    fn mut_ref_sources_forward() {
        let trace = sample();
        let mut s = trace.stream();
        let via_ref: &mut TraceSource<'_> = &mut s;
        assert_eq!(via_ref.size_hint(), Some(trace.len() as u64));
        let collected = collect_trace(&mut &mut s).unwrap();
        assert_eq!(collected.len(), trace.len());
    }

    #[test]
    fn owned_source_matches_borrowed_and_rewinds() {
        let trace = sample();
        let borrowed = collect_trace(&mut trace.stream()).unwrap();
        // The owned source is 'static: boxable as a trait object with no
        // lifetime tying it to the original trace.
        let mut owned: Box<dyn EventSource> = Box::new(trace.clone().into_stream());
        assert_eq!(owned.size_hint(), Some(trace.len() as u64));
        let collected = collect_trace(&mut owned).unwrap();
        assert_eq!(collected.events(), borrowed.events());

        let mut source = trace.clone().into_stream();
        while source.next_event().unwrap().is_some() {}
        source.rewind();
        let replay = collect_trace(&mut source).unwrap();
        assert_eq!(replay.len(), trace.len());
        assert_eq!(source.trace().len(), trace.len());
        assert_eq!(source.into_trace().events(), trace.events());
    }
}
