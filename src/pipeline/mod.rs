//! The streaming analysis pipeline: source → validator → checker.
//!
//! This is the one event path of the suite. A [`Pipeline`] composes any
//! [`EventSource`] (an incremental `.std` parse, an in-memory trace, a
//! lazy workload generator) with the optional online well-formedness
//! validator and drives any [`Checker`] — or the Velodrome two-phase
//! analysis — over it. With a streaming source the whole run is constant
//! memory: no `Trace` is ever materialised, which is what lets 10⁶–10⁷
//! event logs exercise the paper's linear-time claim for real.
//!
//! Ingestion is batch-oriented: the pipeline pulls arena-backed
//! [`EventBatch`]es and walks them event-by-event, so boxed sources
//! cost one virtual call per ~4096 events. The [`par`] submodule builds
//! on the same seam to fan **one** ingest pass out to many checkers on
//! worker threads, and the [`multi`] submodule lifts the discipline one
//! level up: a corpus scheduler driving an unbounded stream of traces
//! through *resident* checker sessions (`rapid batch`) — see their
//! docs.
//!
//! Validation is **on by default**: the checkers assume the Section 2
//! well-formedness conditions, so verdicts on ill-formed traces are
//! meaningless. Opt out with [`Pipeline::validate`] when the input is
//! already trusted (e.g. it came from our own generator).
//!
//! # Examples
//!
//! Check a `.std` log straight from a reader, in constant memory:
//!
//! ```
//! use aerodrome_suite::pipeline::Pipeline;
//! use aerodrome_suite::prelude::*;
//! use tracelog::stream::StdReader;
//!
//! // t1's transaction reads `x`, t2 overwrites it, t1 writes it back:
//! // not conflict serializable (the ρ2 shape of Figure 2).
//! let log = "t1|begin|0\nt1|r(x)|1\nt2|w(x)|2\nt1|w(x)|3\nt1|end|4\n";
//!
//! let mut pipeline = Pipeline::new(StdReader::new(log.as_bytes()));
//! let mut checker = OptimizedChecker::new();
//! let report = pipeline.run(&mut checker)?;
//!
//! assert!(report.outcome.is_violation());
//! let names = pipeline.source().names();
//! let v = report.outcome.violation().unwrap();
//! assert!(v.display_with_names(&names).contains("`x`"));
//! # Ok::<(), tracelog::SourceError>(())
//! ```

use aerodrome::{Checker, Outcome};
use tracelog::stream::{EventBatch, EventSource, DEFAULT_BATCH_EVENTS};
use tracelog::{SourceError, Trace, Validator, ValiditySummary};
use velodrome::twophase::TwoPhaseReport;
use velodrome::Config as VelodromeConfig;

pub mod adversarial;
pub mod chunkpar;
pub mod multi;
pub mod par;

/// One ingest step's validation, shared by the [`par`] fan-out, the
/// [`multi`] corpus scheduler and the serving runtime so their
/// valid-prefix semantics cannot drift: runs the validator over `batch`
/// in order and, at the first ill-formed event, truncates the batch to
/// the well-formed prefix and returns the error. The contract all the
/// runtimes rely on — checkers see exactly the events per-event
/// iteration would have yielded before the failure — lives here once.
pub fn validate_batch(
    validator: &mut Validator,
    batch: &mut EventBatch,
) -> Option<tracelog::WellFormedError> {
    for (i, &event) in batch.events().iter().enumerate() {
        if let Err(e) = validator.observe(event) {
            batch.truncate(i);
            return Some(e);
        }
    }
    None
}

/// One batch's worth of the resident worker loop, shared by the
/// [`multi`] corpus scheduler and the serving runtime: feeds `batch` to
/// every checker of a panel that has not already fired, latching each
/// checker's first [`aerodrome::Violation`] into its `violations`
/// slot. A checker
/// that fires *during this call* is reported through `on_violation`
/// with its panel index — the hook the service uses to push a verdict
/// frame back to the client mid-stream, the moment the online checker
/// detects it, rather than at EOF.
///
/// Semantics match [`par::check_all`] and single-checker
/// [`Pipeline::run`] exactly: every checker stops individually at its
/// first violation and sees every event up to it in trace order, so a
/// panel fed batch-by-batch through this function produces verdicts
/// bit-identical to fresh one-shot runs.
///
/// # Panics
///
/// Panics if `violations.len() != checkers.len()`.
pub fn feed_panel(
    checkers: &mut [par::SendChecker],
    violations: &mut [Option<aerodrome::Violation>],
    batch: &EventBatch,
    mut on_violation: impl FnMut(usize, &aerodrome::Violation),
) {
    assert_eq!(checkers.len(), violations.len(), "one violation slot per checker");
    for (i, (checker, violation)) in checkers.iter_mut().zip(violations.iter_mut()).enumerate() {
        if violation.is_some() {
            continue;
        }
        for &event in batch.events() {
            if let Err(v) = checker.process(event) {
                on_violation(i, &v);
                *violation = Some(v);
                break;
            }
        }
    }
}

/// The outcome of a [`Pipeline::run`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PipelineReport {
    /// The checker's verdict on the streamed prefix.
    pub outcome: Outcome,
    /// Events fed to the checker (the violating event included).
    pub events: u64,
    /// Residual open transactions / held locks observed by the validator
    /// over the processed prefix; `None` when validation was disabled.
    pub summary: Option<ValiditySummary>,
}

/// The outcome of a [`Pipeline::run_twophase`].
#[derive(Clone, Debug)]
pub struct TwoPhaseRun {
    /// Phase-1/phase-2 report (identical verdict to single-pass
    /// Velodrome).
    pub report: TwoPhaseReport,
    /// The materialised trace the two passes ran over (two-phase
    /// analysis inherently replays a prefix, so it cannot stream).
    pub trace: Trace,
    /// Validator residue, as in [`PipelineReport::summary`].
    pub summary: Option<ValiditySummary>,
}

/// Builder composing an event source, the optional streaming validator
/// and a checker into one run.
#[derive(Debug)]
pub struct Pipeline<S> {
    source: S,
    validate: bool,
    batch_events: usize,
}

impl<S: EventSource> Pipeline<S> {
    /// Starts a pipeline over `source` with validation enabled.
    #[must_use]
    pub fn new(source: S) -> Self {
        Self { source, validate: true, batch_events: DEFAULT_BATCH_EVENTS }
    }

    /// Enables or disables the online well-formedness stage (default:
    /// enabled).
    #[must_use]
    pub fn validate(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// Sets the events pulled per source refill (default
    /// [`DEFAULT_BATCH_EVENTS`]) — the same knob as `rapid`'s uniform
    /// `--batch` flag and [`par::ParConfig::batch_events`]. Semantics
    /// never depend on it; only the call granularity does.
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

    /// The underlying source — use after a run to reach the name tables
    /// for rendering verdicts.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Unwraps the pipeline back into its source.
    pub fn into_source(self) -> S {
        self.source
    }

    /// Streams every event through the validator (if enabled) into
    /// `checker`, stopping at the first violation.
    ///
    /// # Errors
    ///
    /// Propagates source failures; an ill-formed event surfaces as
    /// [`SourceError::Malformed`] before the checker sees it.
    pub fn run<C: Checker + ?Sized>(
        &mut self,
        checker: &mut C,
    ) -> Result<PipelineReport, SourceError> {
        // Batch-driven since the parallel-runtime refactor: the source
        // refills one arena-backed batch per pull, so a boxed source
        // costs one virtual call per ~4096 events. Event-level semantics
        // are unchanged — validator and checker still see every event in
        // order, and a violation or error surfaces at the same event as
        // per-event iteration would (a source error only surfaces after
        // the events preceding it have been processed).
        let mut validator = self.validate.then(Validator::new);
        let mut events = 0u64;
        let mut batch = EventBatch::with_target(self.batch_events);
        loop {
            let refill = self.source.next_batch(&mut batch);
            for &event in batch.events() {
                if let Some(v) = validator.as_mut() {
                    v.observe(event)?;
                }
                events += 1;
                if let Err(violation) = checker.process(event) {
                    return Ok(PipelineReport {
                        outcome: Outcome::Violation(violation),
                        events,
                        summary: validator.map(Validator::finish),
                    });
                }
            }
            if refill? == 0 {
                break;
            }
        }
        Ok(PipelineReport {
            outcome: Outcome::Serializable,
            events,
            summary: validator.map(Validator::finish),
        })
    }

    /// Drains the source (validating by default) into an in-memory
    /// [`Trace`] — the bridge to the analyses that genuinely need random
    /// access (the quadratic oracle, two-phase replay). Batch-driven
    /// like [`Pipeline::run`]: events preceding a failure are collected,
    /// then the error surfaces.
    ///
    /// # Errors
    ///
    /// Propagates source failures and validation rejections.
    pub fn collect(&mut self) -> Result<(Trace, Option<ValiditySummary>), SourceError> {
        let mut validator = self.validate.then(Validator::new);
        let mut events = Vec::new();
        if let Some(n) = self.source.size_hint() {
            events.reserve(usize::try_from(n).unwrap_or(0));
        }
        let mut batch = EventBatch::with_target(self.batch_events);
        loop {
            let refill = self.source.next_batch(&mut batch);
            for &event in batch.events() {
                if let Some(v) = validator.as_mut() {
                    v.observe(event)?;
                }
                events.push(event);
            }
            if refill? == 0 {
                break;
            }
        }
        let names = self.source.names();
        let trace = Trace::from_parts(
            events,
            names.threads.clone(),
            names.locks.clone(),
            names.vars.clone(),
        );
        Ok((trace, validator.map(Validator::finish)))
    }

    /// Runs the DoubleChecker-style two-phase Velodrome analysis; the
    /// phase-1 batch size comes from
    /// [`Config::twophase_batch`](velodrome::Config::twophase_batch).
    ///
    /// # Errors
    ///
    /// Propagates source failures and validation rejections.
    pub fn run_twophase(&mut self, config: &VelodromeConfig) -> Result<TwoPhaseRun, SourceError> {
        let (trace, summary) = self.collect()?;
        let report = velodrome::twophase::check(&trace, config);
        Ok(TwoPhaseRun { report, trace, summary })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerodrome::optimized::OptimizedChecker;
    use aerodrome::run_checker;
    use tracelog::paper_traces;
    use tracelog::stream::StdReader;

    #[test]
    fn run_matches_run_checker_on_paper_traces() {
        for trace in
            [paper_traces::rho1(), paper_traces::rho2(), paper_traces::rho3(), paper_traces::rho4()]
        {
            let batch = run_checker(&mut OptimizedChecker::new(), &trace);
            let mut pipeline = Pipeline::new(trace.stream());
            let report = pipeline.run(&mut OptimizedChecker::new()).unwrap();
            assert_eq!(report.outcome, batch);
        }
    }

    #[test]
    fn validation_rejects_ill_formed_input_before_the_checker() {
        let log = "t1|rel(m)|0\n";
        let mut pipeline = Pipeline::new(StdReader::new(log.as_bytes()));
        let err = pipeline.run(&mut OptimizedChecker::new()).unwrap_err();
        assert!(matches!(err, SourceError::Malformed(_)), "{err}");

        let mut pipeline = Pipeline::new(StdReader::new(log.as_bytes())).validate(false);
        let report = pipeline.run(&mut OptimizedChecker::new()).unwrap();
        assert!(report.summary.is_none());
    }

    #[test]
    fn collect_reproduces_the_trace() {
        let trace = paper_traces::rho2();
        let (collected, summary) = Pipeline::new(trace.stream()).collect().unwrap();
        assert_eq!(collected.events(), trace.events());
        assert!(summary.unwrap().is_closed());
    }

    #[test]
    fn twophase_run_agrees_with_direct_check() {
        let trace = paper_traces::rho2();
        let config = velodrome::Config::default();
        let direct = velodrome::twophase::check(&trace, &config);
        let run = Pipeline::new(trace.stream()).run_twophase(&config).unwrap();
        assert_eq!(run.report, direct);
        assert_eq!(run.trace.len(), trace.len());
    }
}
