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

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
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
    // One batch being filled + up to `CHANNEL_BATCHES` queued + one in a
    // worker's hands: the whole run never needs more arenas than this,
    // however slow the slowest worker is (fan-out shares one Arc per
    // batch, so the slowest worker's channel is the global bound).
    let buffer_cap = CHANNEL_BATCHES + 2;

    // Round-robin the panel over the workers, remembering input order.
    let mut shards: Vec<Shard> = (0..workers).map(|_| Shard::default()).collect();
    for (index, checker) in checkers.into_iter().enumerate() {
        let shard = &mut shards[index % workers];
        shard.indices.push(index);
        shard.checkers.push(checker);
        shard.violations.push(None);
    }

    let mut validator = config.validate.then(Validator::new);
    let mut stats = ParStats { workers, ..ParStats::default() };
    let mut events = 0u64;
    let mut error: Option<SourceError> = None;

    let mut runs: Vec<(usize, CheckerRun)> = Vec::new();
    thread::scope(|s| {
        let (recycle_tx, recycle_rx) = mpsc::channel::<EventBatch>();
        let mut batch_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in shards {
            let (tx, rx) = mpsc::sync_channel::<Arc<EventBatch>>(CHANNEL_BATCHES);
            let recycle = recycle_tx.clone();
            batch_txs.push(tx);
            handles.push(s.spawn(move || worker(shard, &rx, &recycle)));
        }
        // Workers hold the only recycle senders: when they are all gone
        // (panic), the blocking recv below errors instead of hanging.
        drop(recycle_tx);

        'ingest: loop {
            let mut batch = match recycle_rx.try_recv() {
                Ok(recycled) => recycled,
                Err(TryRecvError::Empty) if stats.batch_buffers < buffer_cap => {
                    stats.batch_buffers += 1;
                    EventBatch::with_target(config.batch_events)
                }
                Err(TryRecvError::Empty) => {
                    // Pool exhausted: wait for a worker to recycle an
                    // arena. A worker finishing *before* the channels
                    // close can only mean it panicked — and a panicking
                    // worker can strand arenas in its queue instead of
                    // recycling them, so a plain recv() could hang. Poll
                    // with a timeout and abort ingest once any worker is
                    // gone; join below re-raises its panic.
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
                    error = Some(e.into());
                }
            }
            let exhausted = match refill {
                // A validation failure inside the batch precedes a source
                // failure past its end; keep the earlier error.
                Err(e) if error.is_none() => {
                    error = Some(e);
                    true
                }
                Err(_) => true,
                Ok(n) => n == 0 || error.is_some(),
            };
            events += batch.len() as u64;
            if !batch.is_empty() {
                stats.batches += 1;
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
                    // A send fails only when that worker panicked. Its
                    // results are lost, so the run is doomed: stop
                    // feeding everyone and let join re-raise the panic
                    // (continuing could deadlock on arenas stranded in
                    // the dead worker's queue).
                    break 'ingest;
                }
            }
            if exhausted {
                break;
            }
        }

        drop(batch_txs); // end-of-stream for every worker
        for handle in handles {
            match handle.join() {
                Ok(mut shard_runs) => runs.append(&mut shard_runs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    if let Some(e) = error {
        return Err(e);
    }
    runs.sort_by_key(|(index, _)| *index); // recover input order
    let runs = runs.into_iter().map(|(_, run)| run).collect();
    Ok(ParReport { runs, events, summary: validator.map(Validator::finish), stats })
}

/// Drains one worker's channel, feeding every batch to the worker's
/// checkers and recycling the arena when this worker is the last holder.
fn worker(
    mut shard: Shard,
    rx: &Receiver<Arc<EventBatch>>,
    recycle: &Sender<EventBatch>,
) -> Vec<(usize, CheckerRun)> {
    for batch in rx.iter() {
        super::feed_panel(&mut shard.checkers, &mut shard.violations, &batch, |_, _| {});
        if let Some(arena) = Arc::into_inner(batch) {
            // Last holder: hand the arena back for the next refill. The
            // ingest side may already be gone on early exit; that's fine.
            let _ = recycle.send(arena);
        }
    }
    let Shard { indices, checkers, violations } = shard;
    indices
        .into_iter()
        .zip(checkers.into_iter().zip(violations))
        .map(|(index, (checker, violation))| {
            let run = CheckerRun {
                name: checker.name(),
                outcome: violation.map_or(Outcome::Serializable, Outcome::Violation),
                report: checker.report(),
            };
            (index, run)
        })
        .collect()
}
