//! The streaming analysis pipeline: source → validator → checker.
//!
//! This is the one event path of the suite. A [`Pipeline`] composes any
//! [`EventSource`] (an incremental `.std` parse, an in-memory trace, a
//! lazy workload generator) with the optional online well-formedness
//! validator and drives any [`Checker`] over it. With a streaming
//! source the whole run is constant memory: no `Trace` is ever
//! materialised, which is what lets 10⁶–10⁷ event logs exercise the
//! paper's linear-time claim for real.
//!
//! Ingestion is batch-oriented: the pipeline pulls arena-backed
//! [`EventBatch`]es, so boxed sources cost one virtual call per ~4096
//! events. [`Pipeline::run`] overlaps ingest with checking: the calling
//! thread decodes and validates batches while one scoped worker thread
//! runs the checker (hence its `C: Send` bound), fed through the same
//! bounded, arena-recycling channel the [`par`] fan-out uses to send
//! **one** ingest pass to many checkers on worker threads. Read-ahead
//! is bounded by the channel, so a run that stops at a violation has
//! ingested at most a few batches past it. The [`multi`] submodule
//! lifts the discipline one level up: a corpus scheduler driving an
//! unbounded stream of traces through *resident* checker sessions
//! (`rapid batch`) — see their docs. A [`Panel`] is the checker state
//! those runtimes and the service own: checkers, verdict slots and the
//! optional validator, fed batch by batch and reset between traces.
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

use std::ops::ControlFlow;

use aerodrome::{Checker, Outcome, Violation};
use tracelog::stream::{EventBatch, EventSource, DEFAULT_BATCH_EVENTS};
use tracelog::{SourceError, Trace, Validator, ValiditySummary, WellFormedError};

use par::{CheckerRun, SendChecker};

pub mod adversarial;
pub mod multi;
pub mod par;

/// Runs `validator` over `batch` in order and, at the first ill-formed
/// event, truncates the batch to the well-formed prefix and returns the
/// error — the valid-prefix contract every runtime relies on: checkers
/// see exactly the events per-event iteration would have yielded before
/// the failure.
pub fn validate_batch(
    validator: &mut Validator,
    batch: &mut EventBatch,
) -> Option<WellFormedError> {
    for (i, &event) in batch.events().iter().enumerate() {
        if let Err(e) = validator.observe(event) {
            batch.truncate(i);
            return Some(e);
        }
    }
    None
}

/// One ingest step, shared by the [`par`] fan-out and the [`multi`]
/// corpus scheduler: refills `batch` from `source`, then runs `validate`
/// over it (e.g. [`Panel::validate`]). Returns whether the source may
/// hold more events; on `Err` the batch holds the events before the
/// failure, ready to feed. An ill-formed event inside the batch wins
/// over a source failure past its end, so the earlier error is the one
/// reported.
///
/// # Errors
///
/// The validation failure as [`SourceError::Malformed`], else the
/// source's own failure.
pub fn refill<S: EventSource + ?Sized>(
    source: &mut S,
    batch: &mut EventBatch,
    validate: impl FnOnce(&mut EventBatch) -> Option<WellFormedError>,
) -> Result<bool, SourceError> {
    let refilled = source.next_batch(batch);
    if let Some(e) = validate(batch) {
        return Err(e.into());
    }
    Ok(refilled? > 0)
}

/// Renders the canonical sealed-reference text (`# rapid seal v1`): the
/// event and name-table counts, then one `<checker>: serializable` or
/// `<checker>: violation@<event index>` line per verdict, in panel
/// order. `rapid generate --seal` sidecars, `rapid batch --seal-verify`
/// and the service's end-of-trace summary all render through here, so
/// offline and socket verdicts compare byte for byte.
#[must_use]
pub fn seal_text<'a>(
    events: u64,
    threads: usize,
    locks: usize,
    vars: usize,
    verdicts: impl IntoIterator<Item = (&'a str, Option<u64>)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "# rapid seal v1\nevents: {events}\nthreads: {threads}\nlocks: {locks}\nvars: {vars}\n"
    );
    for (name, violation) in verdicts {
        let _ = match violation {
            None => writeln!(out, "{name}: serializable"),
            Some(event) => writeln!(out, "{name}: violation@{event}"),
        };
    }
    out
}

/// A checker panel: the checkers, one verdict slot per checker and the
/// optional online validator — the resident state a [`par`] worker, a
/// [`multi`] session and a service connection each own outright, feed
/// batch by batch and reset between traces.
///
/// Every checker stops individually at its first violation and sees
/// every event up to it in trace order, so a panel fed batch by batch
/// produces verdicts bit-identical to fresh one-shot runs of
/// [`par::check_all`] or single-checker [`Pipeline::run`].
pub struct Panel {
    checkers: Vec<SendChecker>,
    violations: Vec<Option<Violation>>,
    validator: Option<Validator>,
}

impl Panel {
    /// A panel over `checkers`, validating (when `validate` is on) with
    /// its own [`Validator`].
    #[must_use]
    pub fn new(checkers: Vec<SendChecker>, validate: bool) -> Self {
        let violations = vec![None; checkers.len()];
        Self { checkers, violations, validator: validate.then(Validator::new) }
    }

    /// Validates `batch` as [`validate_batch`] does; `None` without a
    /// validator.
    pub fn validate(&mut self, batch: &mut EventBatch) -> Option<WellFormedError> {
        self.validator.as_mut().and_then(|v| validate_batch(v, batch))
    }

    /// Feeds `batch` to every checker that has not fired yet, latching
    /// each checker's first [`Violation`]. A checker that fires *during
    /// this call* is reported through `on_violation` with its panel
    /// index — the hook the service uses to push a verdict frame the
    /// moment the online checker detects it, rather than at EOF.
    pub fn feed(&mut self, batch: &EventBatch, mut on_violation: impl FnMut(usize, &Violation)) {
        for (i, (checker, violation)) in
            self.checkers.iter_mut().zip(&mut self.violations).enumerate()
        {
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

    /// Session reset for the next trace: checkers keep their recycled
    /// clock buffers (capped by [`Checker::reset`]'s default retention),
    /// verdict slots clear, and the validator keeps its table capacity.
    pub fn reset(&mut self) {
        for checker in &mut self.checkers {
            checker.reset();
        }
        self.violations.fill(None);
        if let Some(v) = self.validator.as_mut() {
            v.reset();
        }
    }

    /// Trims every checker's retained clock storage to `bytes`
    /// ([`Checker::trim`]).
    pub fn trim(&mut self, bytes: usize) {
        for checker in &mut self.checkers {
            checker.trim(bytes);
        }
    }

    /// Clock bytes the panel currently retains.
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        self.checkers.iter().map(|c| c.report().clocks.retained_bytes as u64).sum()
    }

    /// Per-checker verdicts and reports, in panel order.
    #[must_use]
    pub fn runs(&self) -> Vec<CheckerRun> {
        self.checkers
            .iter()
            .zip(&self.violations)
            .map(|(checker, violation)| CheckerRun {
                name: checker.name(),
                outcome: violation.clone().map_or(Outcome::Serializable, Outcome::Violation),
                report: checker.report(),
            })
            .collect()
    }
}

/// [`Pipeline::run`]'s worker state: the checker, the events fed to it
/// and its violation, if it fired.
struct RunState<'a, C: ?Sized> {
    checker: &'a mut C,
    events: u64,
    violation: Option<Violation>,
}

impl<C: Checker + ?Sized> RunState<'_, C> {
    /// Feeds `batch` in order, breaking at the first violation.
    fn feed(&mut self, batch: &EventBatch) -> ControlFlow<()> {
        for (i, &event) in batch.events().iter().enumerate() {
            if let Err(violation) = self.checker.process(event) {
                self.events += i as u64 + 1;
                self.violation = Some(violation);
                return ControlFlow::Break(());
            }
        }
        self.events += batch.len() as u64;
        ControlFlow::Continue(())
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
    /// over the whole log; `None` when validation was disabled or the
    /// run stopped at a violation (the validator reads ahead of the
    /// checker, so a residue there would depend on timing).
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
    /// Ingest and checking overlap: the calling thread refills batches
    /// from the source and validates them while one scoped worker thread
    /// runs `checker` — hence `C: Send` — over the same bounded,
    /// arena-recycling channel as [`par::check_all`]. The checker still
    /// sees every event in trace order, so verdicts and counters are
    /// those of a sequential run. Read-ahead is bounded: a run that
    /// stops at a violation has decoded and validated at most
    /// [`par::CHANNEL_BATCHES`] `+ 1` batches beyond the violating one,
    /// and never reports an error found there — a violation wins over
    /// any later ingest failure. [`PipelineReport::summary`] is `None`
    /// after a violation.
    ///
    /// # Errors
    ///
    /// Propagates source failures once the events before them have been
    /// checked; an ill-formed event surfaces as
    /// [`SourceError::Malformed`] before the checker sees it.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the checker on the calling thread.
    pub fn run<C: Checker + Send + ?Sized>(
        &mut self,
        checker: &mut C,
    ) -> Result<PipelineReport, SourceError> {
        let (mut runs, ingest) = par::fan_out(
            &mut self.source,
            vec![RunState { checker, events: 0, violation: None }],
            self.batch_events,
            self.validate,
            RunState::feed,
        );
        let RunState { events, violation, .. } = runs.pop().expect("one state per worker");
        if let Some(violation) = violation {
            // The validator has read ahead of the checker by now, so its
            // residue would depend on timing: report none.
            return Ok(PipelineReport {
                outcome: Outcome::Violation(violation),
                events,
                summary: None,
            });
        }
        if let Some(e) = ingest.error {
            return Err(e);
        }
        Ok(PipelineReport { outcome: Outcome::Serializable, events, summary: ingest.summary })
    }

    /// Drains the source (validating by default) into an in-memory
    /// [`Trace`] of at most `limit` events — the bridge to the quadratic
    /// analyses that need random access (the causal-atomicity oracle).
    /// Returns `Ok(None)` as soon as event `limit + 1` arrives, so an
    /// oversized log is refused after about `limit` events of ingest and
    /// memory, not after all of it. Batch-driven like [`Pipeline::run`]:
    /// events preceding a failure are collected, then the error surfaces.
    ///
    /// # Errors
    ///
    /// Propagates source failures and validation rejections.
    pub fn collect(
        &mut self,
        limit: usize,
    ) -> Result<Option<(Trace, Option<ValiditySummary>)>, SourceError> {
        let mut validator = self.validate.then(Validator::new);
        let mut events = Vec::new();
        if let Some(n) = self.source.size_hint() {
            events.reserve(usize::try_from(n).unwrap_or(usize::MAX).min(limit));
        }
        let mut batch = EventBatch::with_target(self.batch_events);
        loop {
            let refill = self.source.next_batch(&mut batch);
            for &event in batch.events() {
                if events.len() == limit {
                    return Ok(None);
                }
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
        Ok(Some((trace, validator.map(Validator::finish))))
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

    /// The ρ2 shape of Figure 2: a violation at its fourth event.
    const VIOLATING: &str = "t1|begin|0\nt1|r(x)|1\nt2|w(x)|2\nt1|w(x)|3\nt1|end|4\n";

    #[test]
    fn validation_rejects_ill_formed_input_before_the_checker() {
        let log = "t1|rel(m)|0\n";
        let mut pipeline = Pipeline::new(StdReader::new(log.as_bytes()));
        let err = pipeline.run(&mut OptimizedChecker::new()).unwrap_err();
        assert!(matches!(err, SourceError::Malformed(_)), "{err}");

        let mut pipeline = Pipeline::new(StdReader::new(log.as_bytes())).validate(false);
        let report = pipeline.run(&mut OptimizedChecker::new()).unwrap();
        assert!(report.summary.is_none());

        // A violation wins over an ill-formed event after it, at the
        // event the sequential reference reports, whatever the batching.
        let (trace, _) = Pipeline::new(StdReader::new(VIOLATING.as_bytes()))
            .collect(usize::MAX)
            .unwrap()
            .unwrap();
        let reference = run_checker(&mut OptimizedChecker::new(), &trace);
        let log = format!("{VIOLATING}t3|rel(m)|5\n");
        for batch in [1, 2, 4096] {
            let mut pipeline = Pipeline::new(StdReader::new(log.as_bytes())).batch_events(batch);
            let report = pipeline.run(&mut OptimizedChecker::new()).unwrap();
            assert_eq!(report.outcome, reference, "batch {batch}");
            assert_eq!(report.events, 4, "batch {batch}");
            assert!(report.summary.is_none(), "batch {batch}: no residue after a violation");
        }

        // An ill-formed event before any violation is an error, and the
        // checker saw exactly the events before it — not the violation
        // that follows.
        let log = format!("t3|begin|0\nt3|end|1\nt3|rel(m)|2\n{VIOLATING}");
        for batch in [1, 2, 4096] {
            let mut checker = OptimizedChecker::new();
            let mut pipeline = Pipeline::new(StdReader::new(log.as_bytes())).batch_events(batch);
            let err = pipeline.run(&mut checker).unwrap_err();
            assert!(matches!(err, SourceError::Malformed(_)), "batch {batch}: {err}");
            assert_eq!(checker.events_processed(), 2, "batch {batch}");
        }
    }

    /// Counts [`EventSource::next_batch`] calls.
    struct Counting<S> {
        inner: S,
        refills: usize,
    }

    impl<S: EventSource> EventSource for Counting<S> {
        fn next_event(&mut self) -> Result<Option<tracelog::Event>, SourceError> {
            self.inner.next_event()
        }

        fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
            self.refills += 1;
            self.inner.next_batch(batch)
        }

        fn names(&self) -> tracelog::stream::SourceNames<'_> {
            self.inner.names()
        }
    }

    #[test]
    fn read_ahead_past_a_violation_is_bounded() {
        // A million-event trace violating inside its first batch: ingest
        // must stop within the channel's reach, not drain the source.
        let cfg = workloads::GenConfig {
            events: 1_000_000,
            violation_at: Some(0.001),
            ..workloads::GenConfig::default()
        };
        let source = Counting { inner: workloads::GenSource::new(&cfg), refills: 0 };
        let mut pipeline = Pipeline::new(source);
        let report = pipeline.run(&mut OptimizedChecker::new()).unwrap();
        assert!(report.outcome.is_violation());
        assert!(report.events <= DEFAULT_BATCH_EVENTS as u64, "violation at {}", report.events);
        let refills = pipeline.source().refills;
        assert!(refills <= par::CHANNEL_BATCHES + 3, "{refills} refills");
    }

    /// A checker that panics on its first event.
    struct Exploding;

    impl Checker for Exploding {
        fn process(&mut self, _: tracelog::Event) -> Result<(), aerodrome::Violation> {
            panic!("checker exploded");
        }

        fn events_processed(&self) -> u64 {
            0
        }

        fn name(&self) -> &'static str {
            "exploding"
        }

        fn reset(&mut self) {}
    }

    #[test]
    #[should_panic(expected = "checker exploded")]
    fn checker_panic_is_re_raised_on_the_caller() {
        // Long enough that ingest fills the channel and blocks on the
        // dead worker: the run must end in the panic, not hang.
        let cfg = workloads::GenConfig { events: 200_000, ..workloads::GenConfig::default() };
        let _ = Pipeline::new(workloads::GenSource::new(&cfg)).run(&mut Exploding);
    }

    /// Accepts every event, counting them: shows exactly what a panel fed.
    #[derive(Default)]
    struct Accepting(u64);

    impl Checker for Accepting {
        fn process(&mut self, _: tracelog::Event) -> Result<(), Violation> {
            self.0 += 1;
            Ok(())
        }

        fn events_processed(&self) -> u64 {
            self.0
        }

        fn name(&self) -> &'static str {
            "accepting"
        }

        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    /// Drives `panel` over `source` in 1-event batches, as the resident
    /// runtimes do; returns the final refill result and every
    /// `(panel index, violating event)` reported mid-stream.
    fn drive_by_one(
        panel: &mut Panel,
        source: &mut dyn EventSource,
    ) -> (Result<bool, SourceError>, EventBatch, Vec<(usize, usize)>) {
        let mut batch = EventBatch::with_target(1);
        let mut fired = Vec::new();
        loop {
            let refilled = refill(source, &mut batch, |batch| panel.validate(batch));
            panel.feed(&batch, |i, v| fired.push((i, v.event.index())));
            if refilled.as_ref().map_or(true, |more| !more) {
                return (refilled, batch, fired);
            }
        }
    }

    #[test]
    fn panel_feeds_the_valid_prefix_and_resets() {
        // ρ2 (violation at e6, index 5), then t3 releases a lock it never
        // acquired: event 8 is ill-formed.
        let rho2 = paper_traces::rho2();
        let log = format!("{}t3|rel(m)|8\n", tracelog::write_trace(&rho2));
        let mut panel = Panel::new(
            vec![Box::new(Accepting::default()), Box::new(OptimizedChecker::new())],
            true,
        );

        let (refilled, batch, fired) =
            drive_by_one(&mut panel, &mut StdReader::new(log.as_bytes()));
        match refilled {
            Err(SourceError::Malformed(e)) => assert_eq!(e.event().index(), 8),
            other => panic!("expected the ill-formed tail, got {other:?}"),
        }
        assert!(batch.is_empty(), "validate truncates the failing batch to its prefix");
        let runs = panel.runs();
        assert_eq!(runs[0].events(), rho2.len() as u64, "feed saw only the well-formed prefix");
        assert!(!runs[0].outcome.is_violation());
        assert_eq!(fired, [(1, 5)], "the violation is reported with its panel index");
        assert_eq!(runs[1].outcome.violation().map(|v| v.event.index()), Some(5));

        panel.reset();
        let rho1 = paper_traces::rho1();
        let (refilled, _, fired) = drive_by_one(&mut panel, &mut rho1.stream());
        assert!(matches!(refilled, Ok(false)), "{refilled:?}");
        assert!(fired.is_empty());
        let runs = panel.runs();
        assert!(runs.iter().all(|run| run.outcome == Outcome::Serializable), "{runs:?}");
        assert!(runs.iter().all(|run| run.events() == rho1.len() as u64));
    }

    #[test]
    fn collect_reproduces_the_trace() {
        let trace = paper_traces::rho2();
        let (collected, summary) =
            Pipeline::new(trace.stream()).collect(trace.len()).unwrap().unwrap();
        assert_eq!(collected.events(), trace.events());
        assert!(summary.unwrap().is_closed());
        assert!(Pipeline::new(trace.stream()).collect(trace.len() - 1).unwrap().is_none());
    }

    #[test]
    fn collect_stops_pulling_past_its_limit() {
        // A million-event source refused at 20k events: ingest must stop
        // within one batch of the limit, not drain the source.
        let cfg = workloads::GenConfig { events: 1_000_000, ..workloads::GenConfig::default() };
        let source = Counting { inner: workloads::GenSource::new(&cfg), refills: 0 };
        let mut pipeline = Pipeline::new(source);
        assert!(pipeline.collect(20_000).unwrap().is_none());
        let refills = pipeline.source().refills;
        assert!(refills <= 20_000 / DEFAULT_BATCH_EVENTS + 1, "{refills} refills");
    }
}
