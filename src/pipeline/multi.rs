//! The resident multi-trace runtime: one process, many traces, zero
//! steady-state construction.
//!
//! [`super::par`] parallelises *within* one trace (one ingest pass
//! fanned out to N checkers); this module parallelises *across* traces.
//! A [`check_corpus`] call discovers a corpus of `.std` / `.rbt` logs
//! (directory walk or manifest, see [`discover`]), dispatches whole
//! traces to at most [`ParConfig::jobs`] resident workers over a
//! shared queue, and
//! aggregates per-trace verdicts plus corpus-level
//! [`CheckerReport`] totals.
//!
//! The point is the *resident session*: each worker constructs its
//! checker [`Panel`] (checkers, verdict slots and validator) **once**
//! and reuses it trace after trace through [`Panel::reset`] — checkers
//! keep their recycled clock buffers, capped by
//! [`aerodrome::state::DEFAULT_RETAINED_CLOCK_BYTES`], and the validator
//! its tables. Every trace is opened with [`AnySource::open`], so text
//! and binary logs take one ingest path. Once a worker is warm, checking the next trace
//! performs zero clock heap allocations — the within-trace invariant of
//! `tests/pool_alloc.rs`, lifted across traces (asserted in
//! `tests/session_reuse.rs`). Verdicts and per-trace report counters
//! are bit-identical to constructing a fresh checker per trace.
//!
//! Scheduling follows the one-dispatcher/worker-owned-state shape of
//! McKenney's parallel-programming playbook: traces are claimed off one
//! atomic cursor (dynamic load balancing — trace sizes vary wildly),
//! every worker owns its sessions outright, and nothing is shared but
//! the read-only path list.
//!
//! # Examples
//!
//! ```no_run
//! use aerodrome_suite::pipeline::multi::{check_corpus, discover};
//! use aerodrome_suite::pipeline::par::{standard_checkers, ParConfig};
//!
//! let paths = discover("corpus/".as_ref())?;
//! let report = check_corpus(&paths, standard_checkers, &ParConfig::default());
//! for trace in &report.traces {
//!     println!("{}: {} events", trace.path.display(), trace.events);
//! }
//! assert_eq!(report.traces.len(), paths.len());
//! # Ok::<(), String>(())
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use aerodrome::CheckerReport;
use tracelog::stream::EventBatch;
use tracelog::{AnySource, EventSource, SourceError};

use super::par::{CheckerRun, ParConfig, SendChecker};
use super::Panel;

/// The corpus scheduler's tuning knobs are [`ParConfig`]'s: `jobs`
/// resident workers (capped at the corpus size), `batch_events` per
/// refill and the per-trace `validate` switch.
pub use super::par::ParConfig as MultiConfig;

/// One trace's end-to-end result out of a corpus run.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// Position in the discovered corpus (reports are returned in this
    /// order regardless of which worker ran the trace when).
    pub index: usize,
    /// The trace log's path.
    pub path: PathBuf,
    /// Events ingested (on error: the well-formed prefix).
    pub events: u64,
    /// Distinct thread names seen.
    pub threads: usize,
    /// Distinct lock names seen.
    pub locks: usize,
    /// Distinct variable names seen.
    pub vars: usize,
    /// Per-checker verdicts in panel order — bit-identical to running a
    /// fresh checker panel over this trace alone.
    pub runs: Vec<CheckerRun>,
    /// Open/parse/validation failure, with the offending line when known.
    /// The `runs` then cover the prefix before the failure.
    pub error: Option<String>,
    /// Wall time this trace took on its worker.
    pub wall: Duration,
}

impl TraceRun {
    /// Whether any checker reported a violation.
    #[must_use]
    pub fn any_violation(&self) -> bool {
        self.runs.iter().any(|r| r.outcome.is_violation())
    }
}

/// The outcome of [`check_corpus`].
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// Per-trace results, in discovery order.
    pub traces: Vec<TraceRun>,
    /// Resident workers used.
    pub workers: usize,
    /// End-to-end wall time of the whole corpus.
    pub wall: Duration,
}

impl CorpusReport {
    /// Total events ingested over the corpus.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.traces.iter().map(|t| t.events).sum()
    }

    /// Number of traces on which at least one checker reported a
    /// violation.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.traces.iter().filter(|t| t.any_violation()).count()
    }

    /// Number of traces that failed to ingest (open/parse/validation).
    #[must_use]
    pub fn errors(&self) -> usize {
        self.traces.iter().filter(|t| t.error.is_some()).count()
    }

    /// Corpus-level totals per panel position: per-trace events and
    /// clock-join counters summed, clock-storage counters summed, the
    /// point-in-time gauges (`retained_bytes`, slot counts) taken at
    /// their maximum — the resident footprint high-water mark.
    #[must_use]
    pub fn checker_totals(&self) -> Vec<CheckerReport> {
        let mut totals: Vec<CheckerReport> = Vec::new();
        for trace in &self.traces {
            for (i, run) in trace.runs.iter().enumerate() {
                if totals.len() <= i {
                    totals.push(CheckerReport { name: run.name, ..CheckerReport::default() });
                }
                let t = &mut totals[i];
                t.events += run.report.events;
                t.clock_joins += run.report.clock_joins;
                t.clocks.accumulate(&run.report.clocks);
            }
        }
        totals
    }
}

/// Discovers the traces of a corpus — text `.std` and binary `.rbt`
/// alike.
///
/// * A **directory** is walked recursively, without following directory
///   symlinks; every `*.std` and `*.rbt` file is collected, sorted by
///   path for a deterministic order.
/// * A file named `*.std` or `*.rbt` is a single-trace corpus.
/// * Any **other file** is read as a manifest: one trace path per line
///   (relative paths resolve against the manifest's directory), blank
///   lines and `#` comments skipped, order preserved.
///
/// # Errors
///
/// Reports unreadable paths and empty corpora as display strings.
pub fn discover(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    if root.is_dir() {
        walk(root, &mut paths).map_err(|e| format!("{}: {e}", root.display()))?;
        paths.sort();
    } else if root.extension().is_some_and(|e| e == "std" || e == "rbt") {
        if !root.is_file() {
            return Err(format!("{}: no such trace", root.display()));
        }
        paths.push(root.to_path_buf());
    } else {
        let text = std::fs::read_to_string(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let base = root.parent().unwrap_or_else(|| Path::new("."));
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let p = Path::new(line);
            paths.push(if p.is_absolute() { p.to_path_buf() } else { base.join(p) });
        }
    }
    if paths.is_empty() {
        return Err(format!("{}: no .std or .rbt traces found", root.display()));
    }
    Ok(paths)
}

/// Collects the traces under `dir`. Directory symlinks are not followed
/// (`DirEntry::file_type` does not traverse links): a link back up the
/// tree would otherwise revisit the corpus once per path to it.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "std" || e == "rbt") {
            out.push(path);
        }
    }
    Ok(())
}

/// One trace's ingest-and-feed loop, whatever its encoding: drains
/// `source` batch by batch through [`super::refill`] into the panel,
/// matching `par::check_all` semantics exactly — the whole log is
/// drained (the run certifies it) and each checker stops individually
/// at its first violation. Returns the events ingested and the first
/// failure; the events before it were fed.
fn ingest_one(
    source: &mut dyn EventSource,
    panel: &mut Panel,
    batch: &mut EventBatch,
) -> (u64, Option<SourceError>) {
    let mut events = 0u64;
    loop {
        let refilled = super::refill(source, batch, |batch| panel.validate(batch));
        panel.feed(batch, |_, _| {});
        events += batch.len() as u64;
        match refilled {
            Ok(true) => {}
            Ok(false) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}

/// One worker's resident state: the checker panel and the batch arena,
/// constructed once and reset between traces. Each trace gets its own
/// reader: keeping a `.std` parser warm across traces was measured and
/// never won (docs/PERF.md).
struct Session {
    panel: Panel,
    batch: EventBatch,
}

impl Session {
    fn run_trace(&mut self, index: usize, path: &Path) -> TraceRun {
        let started = Instant::now();
        // Reset *before* running (not after): idempotent, and it holds
        // even when the previous trace aborted mid-ingest on an error.
        self.panel.reset();
        let (events, error, (threads, locks, vars)) = match AnySource::open(path) {
            Ok(mut source) => {
                let (events, failure) = ingest_one(&mut source, &mut self.panel, &mut self.batch);
                // Attribute an ill-formed event with the source's own
                // position (`line N` / `record N (chunk C)`).
                let error = failure.map(|e| {
                    let position = match &e {
                        SourceError::Malformed(err) => source
                            .position_of(err.event())
                            .map_or_else(String::new, |p| format!("{p}: ")),
                        _ => String::new(),
                    };
                    format!("{}: {position}{e}", path.display())
                });
                let names = source.names();
                (events, error, (names.threads.len(), names.locks.len(), names.vars.len()))
            }
            Err(e) => (0, Some(format!("{}: {e}", path.display())), (0, 0, 0)),
        };
        TraceRun {
            index,
            path: path.to_path_buf(),
            events,
            threads,
            locks,
            vars,
            runs: self.panel.runs(),
            error,
            wall: started.elapsed(),
        }
    }
}

/// Checks every trace of `paths` on a pool of resident workers.
///
/// `make_panel` is called once per worker to construct its checker
/// panel (e.g. [`super::par::standard_checkers`]); the panel is then
/// reused for every trace the worker claims, reset between traces.
/// Per-trace failures (unreadable file, parse error, ill-formed events)
/// are recorded in the corresponding [`TraceRun::error`] — they never
/// abort the rest of the corpus.
///
/// # Panics
///
/// Propagates a panic of a checker on a worker thread.
pub fn check_corpus<F>(paths: &[PathBuf], make_panel: F, config: &ParConfig) -> CorpusReport
where
    F: Fn() -> Vec<SendChecker> + Sync,
{
    let started = Instant::now();
    let workers = config.effective_jobs(paths.len());
    let cursor = AtomicUsize::new(0);
    let mut traces: Vec<TraceRun> = Vec::with_capacity(paths.len());
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut session = Session {
                        panel: Panel::new(make_panel(), config.validate),
                        batch: EventBatch::with_target(config.batch_events),
                    };
                    let mut out = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(path) = paths.get(index) else { break };
                        out.push(session.run_trace(index, path));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mut runs) => traces.append(&mut runs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    traces.sort_by_key(|t| t.index);
    CorpusReport { traces, workers, wall: started.elapsed() }
}
