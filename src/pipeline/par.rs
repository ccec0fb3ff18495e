//! The multi-threaded checking runtime: one parse pass, N checkers.
//!
//! A differential run (`rapid compare`, the differential test suites,
//! any "check this trace under every variant" workload) used to re-read
//! and re-parse the trace once per checker — a multi-million-event log
//! paid the parser four times to produce four verdicts. This module
//! fans a **single** ingest pass out to any number of checkers running
//! concurrently:
//!
//! * the calling thread ingests [`EventBatch`]es from the source (and
//!   runs the online well-formedness validator, when enabled) — the
//!   parse pass happens exactly once;
//! * each of up to [`ParConfig::jobs`] worker threads owns its checkers
//!   outright — including each vector-clock checker's shard-local
//!   [`vc::ClockPool`] — so no clock state is ever shared across
//!   threads and the zero-allocation steady state survives intact;
//! * batches flow through bounded [`std::sync::mpsc`] channels
//!   (depth [`CHANNEL_BATCHES`]) as [`Arc`]s; the last
//!   worker to finish with a batch recycles its arena back to the
//!   ingest thread. Total buffers are bounded by `CHANNEL_BATCHES + 2`
//!   regardless of how slow a worker is — backpressure, not buffering.
//!
//! The same ingest loop drives single-checker [`super::Pipeline::run`]:
//! one worker whose checker stops at its first violation, after which
//! ingest stops too instead of draining the source.
//!
//! Every checker sees every event in trace order, so verdicts and
//! [`CheckerReport`] counters are bit-identical to running that checker
//! standalone; only the wall time changes. Workers run under
//! [`std::thread::scope`], so the source may borrow freely and no
//! `'static` bound is needed.
//!
//! Coarse batches are the point (McKenney's batching playbook): the
//! per-event cost of a channel hand-off would dwarf a vector-clock
//! update, while one hand-off per ~4096 events is noise.
//!
//! # Examples
//!
//! ```
//! use aerodrome_suite::pipeline::par::{check_all, standard_checkers, ParConfig};
//! use tracelog::stream::StdReader;
//!
//! let log = "t1|begin|0\nt1|r(x)|1\nt2|w(x)|2\nt1|w(x)|3\nt1|end|4\n";
//! let mut source = StdReader::new(log.as_bytes());
//! let report = check_all(&mut source, standard_checkers(), &ParConfig::default())?;
//!
//! assert_eq!(report.runs.len(), 4); // basic, readopt, optimized, velodrome
//! assert!(report.runs.iter().all(|run| run.outcome.is_violation()));
//! # Ok::<(), tracelog::SourceError>(())
//! ```

use std::ops::ControlFlow;
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use aerodrome::basic::BasicChecker;
use aerodrome::optimized::OptimizedChecker;
use aerodrome::readopt::ReadOptChecker;
use aerodrome::{Checker, CheckerReport, Outcome, Violation};
use tracelog::stream::{EventBatch, EventSource, DEFAULT_BATCH_EVENTS};
use tracelog::{SourceError, Validator, ValiditySummary};
use velodrome::VelodromeChecker;

/// A checker that can be moved onto a worker thread.
pub type SendChecker = Box<dyn Checker + Send>;

/// Bounded channel depth, in batches, per worker: how far ingest may run
/// ahead of the slowest worker.
pub const CHANNEL_BATCHES: usize = 2;

/// Tuning knobs of the parallel runtime. The defaults are right for
/// "check one big trace under all variants on a multicore box"; the
/// benches sweep `batch_events` (see docs/PERF.md).
#[derive(Clone, Debug)]
pub struct ParConfig {
    /// Worker threads to spawn; `0` (the default) means one per
    /// available CPU. Capped at the number of checkers — an idle worker
    /// would only cost a channel.
    pub jobs: usize,
    /// Events per [`EventBatch`] refill (default
    /// [`DEFAULT_BATCH_EVENTS`]).
    pub batch_events: usize,
    /// Run the online well-formedness validator on the ingest thread
    /// (default `true`, matching [`super::Pipeline`]).
    pub validate: bool,
}

impl Default for ParConfig {
    fn default() -> Self {
        Self { jobs: 0, batch_events: DEFAULT_BATCH_EVENTS, validate: true }
    }
}

impl ParConfig {
    /// Sets the worker-thread count (`0` = one per available CPU).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the per-refill batch size.
    ///
    /// # Panics
    ///
    /// Panics if `events == 0`.
    #[must_use]
    pub fn batch_events(mut self, events: usize) -> Self {
        assert!(events > 0, "batch size must be positive");
        self.batch_events = events;
        self
    }

    /// Enables or disables the ingest-side validator.
    #[must_use]
    pub fn validate(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// The worker count actually used for `checkers` checkers.
    #[must_use]
    pub fn effective_jobs(&self, checkers: usize) -> usize {
        let auto = if self.jobs == 0 {
            thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        };
        auto.min(checkers).max(1)
    }
}

/// One checker's end-to-end result out of a parallel run.
#[derive(Clone, Debug)]
pub struct CheckerRun {
    /// The checker's [`Checker::name`].
    pub name: &'static str,
    /// Verdict — bit-identical to a standalone run of the same checker
    /// over the same source.
    pub outcome: Outcome,
    /// End-of-run metrics, including the worker's shard-local clock-pool
    /// counters.
    pub report: CheckerReport,
}

impl CheckerRun {
    /// Events this checker processed (its stopping event included).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.report.events
    }
}

/// Runtime counters of a parallel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Worker threads spawned.
    pub workers: usize,
    /// Batches fanned out to the workers.
    pub batches: u64,
    /// Distinct [`EventBatch`] arenas allocated over the whole run.
    /// Bounded by `CHANNEL_BATCHES + 2` no matter how slow a worker is —
    /// the backpressure invariant asserted in the tests.
    pub batch_buffers: usize,
}

/// The outcome of [`check_all`].
#[derive(Clone, Debug)]
pub struct ParReport {
    /// Per-checker results, in the order the checkers were supplied.
    pub runs: Vec<CheckerRun>,
    /// Events ingested and fanned out (every worker saw all of them).
    pub events: u64,
    /// Validator residue, as in [`super::PipelineReport::summary`];
    /// `None` when validation was disabled.
    pub summary: Option<ValiditySummary>,
    /// Runtime counters.
    pub stats: ParStats,
}

impl ParReport {
    /// Whether any checker reported a violation.
    #[must_use]
    pub fn any_violation(&self) -> bool {
        self.runs.iter().any(|r| r.outcome.is_violation())
    }
}

/// The full checker panel: all three AeroDrome variants plus Velodrome —
/// what `rapid compare` runs.
#[must_use]
pub fn standard_checkers() -> Vec<SendChecker> {
    vec![
        Box::new(BasicChecker::new()),
        Box::new(ReadOptChecker::new()),
        Box::new(OptimizedChecker::new()),
        Box::new(VelodromeChecker::new()),
    ]
}

/// A worker's share of the panel: its checkers, owned outright, and
/// their violation slots, beside each checker's index in the input panel.
#[derive(Default)]
struct Shard {
    indices: Vec<usize>,
    checkers: Vec<SendChecker>,
    violations: Vec<Option<Violation>>,
}

/// Runs every checker over one ingest pass of `source`, in parallel.
///
/// The calling thread parses and validates; workers check. Returns the
/// per-checker runs in input order once the source is drained and every
/// worker has finished.
///
/// # Errors
///
/// Propagates the first [`SourceError`]; an ill-formed event surfaces
/// as [`SourceError::Malformed`] before any checker sees it, and events
/// preceding the failure have been fanned out — as in
/// [`super::Pipeline::run`]. One deliberate difference: the ingest pass
/// always drains the source (checkers stop individually at their first
/// violation, but the run certifies the *whole* log), so an input that
/// is malformed *after* every checker has already stopped still fails
/// here, where a single-checker `Pipeline::run` would have returned its
/// violation without ever reading that far.
///
/// # Panics
///
/// Propagates a panic of a checker on a worker thread.
pub fn check_all<S: EventSource + ?Sized>(
    source: &mut S,
    checkers: Vec<SendChecker>,
    config: &ParConfig,
) -> Result<ParReport, SourceError> {
    if checkers.is_empty() {
        return Ok(ParReport {
            runs: Vec::new(),
            events: 0,
            summary: config.validate.then(|| Validator::new().finish()),
            stats: ParStats::default(),
        });
    }
    let workers = config.effective_jobs(checkers.len());

    // Round-robin the panel over the workers, remembering input order.
    let mut shards: Vec<Shard> = (0..workers).map(|_| Shard::default()).collect();
    for (index, checker) in checkers.into_iter().enumerate() {
        let shard = &mut shards[index % workers];
        shard.indices.push(index);
        shard.checkers.push(checker);
        shard.violations.push(None);
    }

    let (shards, ingest) =
        fan_out(source, shards, config.batch_events, config.validate, |shard, batch| {
            super::feed_panel(&mut shard.checkers, &mut shard.violations, batch, |_, _| {});
            ControlFlow::Continue(())
        });
    if let Some(e) = ingest.error {
        return Err(e);
    }
    let mut runs: Vec<(usize, CheckerRun)> = Vec::new();
    for Shard { indices, checkers, violations } in shards {
        for (index, (checker, violation)) in
            indices.into_iter().zip(checkers.into_iter().zip(violations))
        {
            let outcome = violation.map_or(Outcome::Serializable, Outcome::Violation);
            runs.push((
                index,
                CheckerRun { name: checker.name(), outcome, report: checker.report() },
            ));
        }
    }
    runs.sort_by_key(|(index, _)| *index); // recover input order
    let runs = runs.into_iter().map(|(_, run)| run).collect();
    Ok(ParReport { runs, events: ingest.events, summary: ingest.summary, stats: ingest.stats })
}

/// What one [`fan_out`] ingest pass leaves behind beside the workers'
/// states.
pub(super) struct Ingest {
    /// Events ingested and sent to the workers.
    pub(super) events: u64,
    /// Validator residue over the events ingested, `None` when
    /// validation was disabled.
    pub(super) summary: Option<ValiditySummary>,
    /// The first source or validation failure; every event before it
    /// was sent to the workers.
    pub(super) error: Option<SourceError>,
    /// Runtime counters.
    pub(super) stats: ParStats,
}

/// The one ingest loop of the runtime, shared by [`check_all`] and
/// [`super::Pipeline::run`]: the calling thread refills arenas from
/// `source` and validates them (when `validate` is on) while one scoped
/// thread per entry of `workers` feeds every batch to `feed`. Batches
/// reach each worker in trace order through a bounded channel of depth
/// [`CHANNEL_BATCHES`], and the last worker done with a batch recycles
/// its arena, so at most `CHANNEL_BATCHES + 2` arenas ever exist.
///
/// A worker whose `feed` returns [`ControlFlow::Break`] stops receiving;
/// ingest then stops at its next send (or arena wait) instead of
/// draining the source, which is how a single checker stops at its
/// first violation. Returns the workers' states, in input order, once
/// ingest has stopped and every worker has finished.
///
/// # Panics
///
/// Re-raises the panic of a worker on the calling thread; panics if
/// `workers` is empty.
pub(super) fn fan_out<S, W, F>(
    source: &mut S,
    workers: Vec<W>,
    batch_events: usize,
    validate: bool,
    feed: F,
) -> (Vec<W>, Ingest)
where
    S: EventSource + ?Sized,
    W: Send,
    F: Fn(&mut W, &EventBatch) -> ControlFlow<()> + Sync,
{
    assert!(!workers.is_empty(), "fan_out needs at least one worker");
    // One batch being filled + up to `CHANNEL_BATCHES` queued + one in a
    // worker's hands: the whole run never needs more arenas than this,
    // however slow the slowest worker is (fan-out shares one Arc per
    // batch, so the slowest worker's channel is the global bound).
    let buffer_cap = CHANNEL_BATCHES + 2;
    let mut validator = validate.then(Validator::new);
    let mut ingest = Ingest {
        events: 0,
        summary: None,
        error: None,
        stats: ParStats { workers: workers.len(), ..ParStats::default() },
    };
    let feed = &feed;

    let states = thread::scope(|s| {
        let (recycle_tx, recycle_rx) = mpsc::channel::<EventBatch>();
        let mut batch_txs = Vec::with_capacity(workers.len());
        let mut handles = Vec::with_capacity(workers.len());
        for mut state in workers {
            let (tx, rx) = mpsc::sync_channel::<Arc<EventBatch>>(CHANNEL_BATCHES);
            let recycle = recycle_tx.clone();
            batch_txs.push(tx);
            handles.push(s.spawn(move || {
                for batch in rx.iter() {
                    let flow = feed(&mut state, &batch);
                    if let Some(arena) = Arc::into_inner(batch) {
                        // Last holder: hand the arena back for the next
                        // refill. Ingest may already be gone on early
                        // exit; that's fine.
                        let _ = recycle.send(arena);
                    }
                    if flow.is_break() {
                        break;
                    }
                }
                state
            }));
        }
        // Workers hold the only recycle senders: when they are all gone
        // (finished early or panicked), the blocking recv below errors
        // instead of hanging.
        drop(recycle_tx);

        'ingest: loop {
            let mut batch = match recycle_rx.try_recv() {
                Ok(recycled) => recycled,
                Err(TryRecvError::Empty) if ingest.stats.batch_buffers < buffer_cap => {
                    ingest.stats.batch_buffers += 1;
                    EventBatch::with_target(batch_events)
                }
                Err(TryRecvError::Empty) => {
                    // Pool exhausted: wait for a worker to recycle an
                    // arena. A worker finishing *before* the channels
                    // close either stopped early or panicked — and a
                    // panicking worker can strand arenas in its queue
                    // instead of recycling them, so a plain recv() could
                    // hang. Poll with a timeout and abort ingest once any
                    // worker is gone; join below re-raises its panic.
                    let mut recovered = None;
                    loop {
                        match recycle_rx.recv_timeout(Duration::from_millis(50)) {
                            Ok(recycled) => {
                                recovered = Some(recycled);
                                break;
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                if handles.iter().any(thread::ScopedJoinHandle::is_finished) {
                                    break;
                                }
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    match recovered {
                        Some(recycled) => recycled,
                        None => break 'ingest,
                    }
                }
                Err(TryRecvError::Disconnected) => break 'ingest,
            };
            let refill = source.next_batch(&mut batch);
            if let Some(v) = validator.as_mut() {
                if let Some(e) = super::validate_batch(v, &mut batch) {
                    ingest.error = Some(e.into());
                }
            }
            let exhausted = match refill {
                // A validation failure inside the batch precedes a source
                // failure past its end; keep the earlier error.
                Err(e) if ingest.error.is_none() => {
                    ingest.error = Some(e);
                    true
                }
                Err(_) => true,
                Ok(n) => n == 0 || ingest.error.is_some(),
            };
            ingest.events += batch.len() as u64;
            if !batch.is_empty() {
                ingest.stats.batches += 1;
                // Hand the *original* Arc to the last worker so the
                // ingest thread never retains a reference: the last
                // worker to drop is then always a worker, and its
                // `Arc::into_inner` recycles the arena. (If ingest kept
                // a clone, workers could all finish first, every
                // `into_inner` would see a live ingest reference, and
                // the arena would leak — starving the bounded pool.)
                let mut shared = Some(Arc::new(batch));
                let last = batch_txs.len() - 1;
                let mut worker_gone = false;
                for (i, tx) in batch_txs.iter().enumerate() {
                    let arc = if i == last {
                        shared.take().expect("original Arc handed out once")
                    } else {
                        Arc::clone(shared.as_ref().expect("original kept until last"))
                    };
                    worker_gone |= tx.send(arc).is_err();
                }
                if worker_gone {
                    // A send fails only when that worker stopped early
                    // or panicked: stop feeding everyone and let join
                    // sort out which (continuing could deadlock on
                    // arenas stranded in a dead worker's queue).
                    break 'ingest;
                }
            }
            if exhausted {
                break;
            }
        }

        drop(batch_txs); // end-of-stream for every worker
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    ingest.summary = validator.map(Validator::finish);
    (states, ingest)
}
