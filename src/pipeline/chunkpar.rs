//! Chunk-parallel `.rbt` ingest behind the ordinary [`EventSource`]
//! interface.
//!
//! [`ChunkParSource`] owns reader threads that claim chunks off the
//! trace's chunk index and decode them concurrently (sharing one mapping
//! through the `Arc`), restitches their batches into trace order, and
//! *presents* the result as a plain [`EventSource`]. Any consumer — a
//! single-checker [`super::Pipeline`], the [`super::par::check_all`]
//! fan-out, `rapid metainfo`/`validate`/`check`/`compare --ingest-jobs
//! N` — gets parallel decode without knowing about chunks at all, with
//! verdicts, counters and error attribution identical to a single
//! [`MmapSource`] over the same file.
//!
//! Batches are handed over by swapping arenas (`std::mem::swap`), so
//! the decode output reaches the consumer without copying events; the
//! consumer's previous arena flows back to the readers through an
//! unbounded recycle channel and is reused for the next decode.
//!
//! The fixed-width record layout of the `.rbt` format is what makes
//! the parallel decode sound: a chunk boundary can never split a
//! record, so each reader decodes its chunk with no context from the
//! bytes before it (see `docs/TRACE_FORMAT.md`). Reordering is
//! bounded: a reader stalls (cheap sleep-poll) once it runs more than
//! a small window of chunks ahead of the consumption point, so
//! buffered out-of-order batches stay `O(readers · chunk size)`.
//!
//! A reader panic is re-raised on the consumer's thread — by the refill
//! that finds the readers gone, or at drop — never turned into an early
//! end-of-stream, which would certify a prefix as the whole trace.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use tracelog::binfmt::{BinTrace, MmapSource};
use tracelog::stream::{EventBatch, EventSource, SourceNames};
use tracelog::{Event, EventId, SourceError};

/// One decoded batch in reader → consumer flight, or the decoded
/// prefix of a batch whose tail failed to decode.
enum ChunkMsg {
    Batch(EventBatch),
    Fail(EventBatch, SourceError),
}

/// An [`EventSource`] that decodes an `.rbt` trace with several reader
/// threads and yields the batches in exact trace order.
///
/// With one reader (or a single-chunk trace) prefer a plain
/// [`MmapSource`] — it has no threads to pay for. [`ChunkParSource::new`]
/// does not make that substitution itself so callers keep an honest
/// handle on which path they measured.
#[derive(Debug)]
pub struct ChunkParSource {
    trace: Arc<BinTrace>,
    /// `None` only during teardown ([`Drop`] takes it to unblock
    /// readers parked in `send`).
    data_rx: Option<Receiver<(usize, usize, ChunkMsg)>>,
    recycle_tx: Sender<EventBatch>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    /// Out-of-order batches parked until their turn, keyed by
    /// `(chunk, sub-batch)`.
    pending: BTreeMap<(usize, usize), ChunkMsg>,
    /// The next `(chunk, sub-batch)` to hand out.
    next: (usize, usize),
    /// Sub-batches each chunk decodes into, derived from the chunk
    /// index alone so the expected sequence needs no side channel.
    subs: Vec<usize>,
    consumed: Arc<AtomicUsize>,
    done: bool,
    /// Per-event adapter state ([`EventSource::next_event`]): the batch
    /// being walked, the walk cursor, and an error held back until the
    /// decoded prefix before it has been yielded.
    carry: EventBatch,
    cursor: usize,
    carry_err: Option<SourceError>,
}

impl std::fmt::Debug for ChunkMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkMsg::Batch(b) => write!(f, "Batch({} events)", b.len()),
            ChunkMsg::Fail(b, e) => write!(f, "Fail({} events, {e})", b.len()),
        }
    }
}

impl ChunkParSource {
    /// Spawns `readers` decode threads over `trace`, each claiming
    /// chunks off the shared index and decoding them into batches of
    /// `batch_events` events.
    ///
    /// `readers` is clamped to the trace's chunk count and to at least
    /// one. The swap hand-off makes `batch_events` the granularity the
    /// consumer sees, whatever the size of the arenas it refills.
    #[must_use]
    pub fn new(trace: Arc<BinTrace>, readers: usize, batch_events: usize) -> Self {
        let chunk_count = trace.chunks().len();
        let readers = readers.clamp(1, chunk_count.max(1));
        // How far (in chunks) a reader may run ahead of the consumer:
        // enough that no reader idles while the window holds undecoded
        // chunks, small enough to bound reordering memory.
        let window = readers * 2 + 2;
        let subs: Vec<usize> = trace
            .chunks()
            .iter()
            .map(|c| (c.events as usize).div_ceil(batch_events.max(1)))
            .collect();
        let claim = Arc::new(AtomicUsize::new(0));
        let consumed = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (recycle_tx, recycle_rx) = mpsc::channel::<EventBatch>();
        let recycle_rx = Arc::new(Mutex::new(recycle_rx));
        let (data_tx, data_rx) = mpsc::sync_channel::<(usize, usize, ChunkMsg)>(readers * 2);
        let mut handles = Vec::with_capacity(readers);
        for _ in 0..readers {
            let trace = Arc::clone(&trace);
            let data_tx = data_tx.clone();
            let claim = Arc::clone(&claim);
            let consumed = Arc::clone(&consumed);
            let stop = Arc::clone(&stop);
            let recycle_rx = Arc::clone(&recycle_rx);
            handles.push(thread::spawn(move || {
                reader(
                    &trace,
                    &data_tx,
                    &claim,
                    &consumed,
                    &stop,
                    &recycle_rx,
                    batch_events,
                    window,
                );
            }));
        }
        drop(data_tx); // readers hold the only senders
        Self {
            trace,
            data_rx: Some(data_rx),
            recycle_tx,
            stop,
            handles,
            pending: BTreeMap::new(),
            next: (0, 0),
            subs,
            consumed,
            done: false,
            carry: EventBatch::default(),
            cursor: 0,
            carry_err: None,
        }
    }

    /// Reader threads spawned (after clamping).
    #[must_use]
    pub fn readers(&self) -> usize {
        self.handles.len()
    }

    /// Joins every reader thread, re-raising the first reader panic on
    /// the calling thread.
    fn join_readers(&mut self) {
        for handle in self.handles.drain(..) {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Advances the expected `(chunk, sub)` cursor, skipping chunks
    /// that decode into zero batches and bumping the consumption point
    /// readers stall against.
    fn advance(&mut self) {
        self.next.1 += 1;
        while self.next.0 < self.subs.len() && self.next.1 >= self.subs[self.next.0] {
            self.next = (self.next.0 + 1, 0);
            self.consumed.fetch_add(1, Ordering::Release);
        }
    }
}

/// One reader thread: claim a chunk, decode it to sub-batches, ship
/// them tagged with their trace-order key.
#[allow(clippy::too_many_arguments)]
fn reader(
    trace: &Arc<BinTrace>,
    data_tx: &mpsc::SyncSender<(usize, usize, ChunkMsg)>,
    claim: &AtomicUsize,
    consumed: &AtomicUsize,
    stop: &AtomicBool,
    recycle_rx: &Mutex<Receiver<EventBatch>>,
    batch_events: usize,
    window: usize,
) {
    let chunk_count = trace.chunks().len();
    let mut source: Option<MmapSource> = None;
    while !stop.load(Ordering::Relaxed) {
        let chunk = claim.fetch_add(1, Ordering::Relaxed);
        if chunk >= chunk_count {
            break;
        }
        // Stay within the reordering window of the consumer; teardown
        // raises `stop`, so this cannot spin forever.
        while chunk >= consumed.load(Ordering::Acquire) + window {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            thread::sleep(Duration::from_micros(100));
        }
        let src = match &mut source {
            Some(src) => {
                src.reset_to_chunk(chunk);
                src
            }
            None => source.get_or_insert(MmapSource::for_chunk(Arc::clone(trace), chunk)),
        };
        let mut sub = 0;
        loop {
            // A recycled arena's target sets the refill size, so only
            // arenas of this source's size keep the sub-batch sequence
            // the consumer expects.
            let mut batch = recycle_rx
                .lock()
                .expect("recycle receiver lock")
                .try_recv()
                .ok()
                .filter(|b| b.target() == batch_events)
                .unwrap_or_else(|| EventBatch::with_target(batch_events));
            match src.next_batch(&mut batch) {
                Ok(0) => break,
                Ok(_) => {
                    if data_tx.send((chunk, sub, ChunkMsg::Batch(batch))).is_err() {
                        return; // consumer gone
                    }
                    sub += 1;
                }
                Err(e) => {
                    // The decoded prefix rides along, exactly as a
                    // single-reader refill would leave it.
                    let _ = data_tx.send((chunk, sub, ChunkMsg::Fail(batch, e)));
                    return;
                }
            }
        }
    }
}

impl EventSource for ChunkParSource {
    /// Per-event view over the same in-order stream, for consumers that
    /// step one event at a time. Don't interleave with
    /// [`EventSource::next_batch`] calls on the same source — each mode
    /// assumes it owns the cursor.
    ///
    /// # Errors
    ///
    /// As [`EventSource::next_batch`], after the decoded prefix before
    /// the failure has been yielded (per-event-identical semantics).
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        loop {
            if self.cursor < self.carry.len() {
                let event = self.carry.events()[self.cursor];
                self.cursor += 1;
                return Ok(Some(event));
            }
            if let Some(e) = self.carry_err.take() {
                return Err(e);
            }
            let mut batch = std::mem::take(&mut self.carry);
            self.cursor = 0;
            let refill = self.next_batch(&mut batch);
            self.carry = batch;
            match refill {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) => self.carry_err = Some(e),
            }
        }
    }

    /// The next in-order batch, swapped in from the reader that decoded
    /// it; the caller's previous arena is recycled to the readers.
    ///
    /// # Errors
    ///
    /// The first decode failure in trace order, surfaced on the call
    /// that reaches it with the failing batch's decoded prefix left in
    /// `batch` (the [`EventSource`] contract). Later calls report
    /// end-of-stream.
    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        batch.clear();
        if self.done || self.next.0 >= self.subs.len() {
            return Ok(0);
        }
        let msg = loop {
            if let Some(msg) = self.pending.remove(&self.next) {
                break msg;
            }
            let rx = self.data_rx.as_ref().expect("readers live until drop");
            match rx.recv() {
                Ok((chunk, sub, msg)) if (chunk, sub) == self.next => break msg,
                Ok((chunk, sub, msg)) => {
                    self.pending.insert((chunk, sub), msg);
                }
                // All readers gone with batches outstanding: a reader
                // panicked. Re-raise it rather than end the stream early.
                Err(_) => {
                    self.done = true;
                    self.join_readers();
                    unreachable!("chunk readers exited with batches outstanding");
                }
            }
        };
        match msg {
            ChunkMsg::Batch(mut decoded) => {
                std::mem::swap(batch, &mut decoded);
                let _ = self.recycle_tx.send(decoded); // arena back to the readers
                self.advance();
                Ok(batch.len())
            }
            ChunkMsg::Fail(mut prefix, e) => {
                std::mem::swap(batch, &mut prefix);
                self.done = true;
                Err(e)
            }
        }
    }

    fn names(&self) -> SourceNames<'_> {
        self.trace.names()
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.trace.event_count())
    }

    /// Record positions, as [`MmapSource`] reports them.
    fn position_of(&self, event: EventId) -> Option<String> {
        let record = event.index() as u64;
        (record < self.trace.event_count())
            .then(|| format!("record {record} (chunk {})", self.trace.chunk_of(record)))
    }
}

impl Drop for ChunkParSource {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        drop(self.data_rx.take()); // unblocks any reader mid-send
        if thread::panicking() {
            // Already unwinding (perhaps from a reader panic re-raised
            // by `next_batch`): a second panic would abort.
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        } else {
            self.join_readers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::{BufWriter, Write as _};
    use tracelog::binfmt::write_binary;
    use tracelog::Op;
    use workloads::{GenConfig, GenSource};

    fn small_rbt(name: &str, chunk_events: u32) -> Arc<BinTrace> {
        let cfg = GenConfig { threads: 4, vars: 16, locks: 2, events: 600, ..GenConfig::default() };
        let dir = std::env::temp_dir().join("rapid-chunkpar-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}.rbt"));
        let mut out = BufWriter::new(File::create(&path).expect("create .rbt"));
        write_binary(&mut GenSource::new(&cfg), &mut out, chunk_events).expect("write .rbt");
        out.flush().expect("flush .rbt");
        Arc::new(BinTrace::open(&path).expect("reopen .rbt"))
    }

    #[test]
    fn parallel_readers_yield_the_exact_event_sequence() {
        let trace = small_rbt("sequence", 64);
        assert!(trace.chunks().len() > 4, "trace must span several chunks");
        let mut expected = Vec::new();
        let mut single = MmapSource::new(Arc::clone(&trace));
        let mut batch = EventBatch::with_target(50);
        while single.next_batch(&mut batch).expect("decode") > 0 {
            expected.extend_from_slice(batch.events());
        }
        for readers in [1, 2, 3, 7] {
            let mut par = ChunkParSource::new(Arc::clone(&trace), readers, 50);
            let mut got = Vec::new();
            let mut batch = EventBatch::with_target(50);
            while par.next_batch(&mut batch).expect("decode") > 0 {
                got.extend_from_slice(batch.events());
            }
            assert_eq!(got.len(), expected.len(), "{readers} readers: length");
            assert!(got == expected, "{readers} readers: event sequence");
        }
    }

    #[test]
    fn consumer_arenas_of_another_size_keep_the_sequence_exact() {
        // The consumer's arenas flow back to the readers; one smaller
        // than the readers' batches must not split chunks into more
        // sub-batches than the reorder cursor expects.
        let trace = small_rbt("foreign-arenas", 64);
        let mut single = MmapSource::new(Arc::clone(&trace));
        let mut batch = EventBatch::with_target(32);
        let mut expected = Vec::new();
        while single.next_batch(&mut batch).expect("decode") > 0 {
            expected.extend_from_slice(batch.events());
        }
        let mut par = ChunkParSource::new(trace, 3, 32);
        let mut small = EventBatch::with_target(16);
        let mut got = Vec::new();
        while par.next_batch(&mut small).expect("decode") > 0 {
            got.extend_from_slice(small.events());
        }
        assert!(got == expected, "{} events vs {}", got.len(), expected.len());
    }

    #[test]
    fn names_and_size_hint_come_from_the_trace() {
        let trace = small_rbt("names", 128);
        let src = ChunkParSource::new(Arc::clone(&trace), 2, 64);
        assert_eq!(src.size_hint(), Some(trace.event_count()));
        assert_eq!(src.names().threads.len(), 4);
        assert!(src.position_of(EventId(0)).expect("record 0").contains("record 0"));
    }

    #[test]
    #[should_panic(expected = "batch target must be positive")]
    fn reader_panic_is_re_raised_not_a_short_stream() {
        // A zero batch target panics inside every reader thread; the
        // consumer must see that panic, not an empty (certified) trace.
        let mut par = ChunkParSource::new(small_rbt("panic", 64), 2, 0);
        let mut batch = EventBatch::with_target(16);
        let _ = par.next_batch(&mut batch);
    }

    #[test]
    fn early_drop_tears_readers_down() {
        let trace = small_rbt("teardown", 32);
        let mut par = ChunkParSource::new(trace, 4, 16);
        let mut batch = EventBatch::with_target(16);
        let _ = par.next_batch(&mut batch).expect("first batch");
        assert!(matches!(batch.events().first().map(|e| e.op), Some(Op::Fork(_) | Op::Begin)));
        drop(par); // must join promptly with most of the trace unread
    }
}
