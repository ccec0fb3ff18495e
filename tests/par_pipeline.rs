//! Differential and acceptance tests for the parallel checking runtime
//! (`pipeline::par`): one parse pass fanned out to all checkers must be
//! *bit-identical* to running each checker standalone — same verdicts,
//! same violation coordinates, same clock-core counters — and the
//! bounded channels must keep memory flat however slow a worker is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aerodrome::CheckerReport;
use aerodrome_suite::pipeline::par::{self, check_all, standard_checkers, ParConfig, SendChecker};
use aerodrome_suite::prelude::*;
use workloads::shapes;

/// Standalone reference: each checker of the standard panel run on its
/// own sequential pipeline over a fresh copy of the same source.
fn standalone_panel(
    mut fresh_source: impl FnMut() -> Box<dyn EventSource>,
    validate: bool,
) -> Vec<(Outcome, CheckerReport)> {
    standard_checkers()
        .into_iter()
        .map(|mut checker| {
            let mut pipeline = Pipeline::new(fresh_source()).validate(validate);
            let report = pipeline.run(checker.as_mut()).expect("well-formed source");
            (report.outcome, checker.report())
        })
        .collect()
}

/// Asserts one parallel run against the standalone panel, bit for bit.
fn assert_par_matches_standalone(
    mut fresh_source: impl FnMut() -> Box<dyn EventSource>,
    config: &ParConfig,
    label: &str,
) {
    let reference = standalone_panel(&mut fresh_source, config.validate);
    let mut source = fresh_source();
    let report = check_all(source.as_mut(), standard_checkers(), config).expect("well-formed");
    assert_eq!(report.runs.len(), reference.len(), "{label}");
    for (run, (outcome, reference_report)) in report.runs.iter().zip(&reference) {
        assert_eq!(&run.outcome, outcome, "{label}/{}: verdict", run.name);
        assert_eq!(&run.report, reference_report, "{label}/{}: checker report", run.name);
    }
}

#[test]
fn parallel_run_is_bit_identical_on_shapes_and_workloads() {
    let mut cases: Vec<(String, GenConfig, Option<&str>)> = Vec::new();
    for name in shapes::SHAPE_NAMES {
        let cfg = GenConfig {
            events: 8_000,
            threads: if name == "fanout" { 17 } else { 6 },
            ..GenConfig::default()
        };
        cases.push((format!("shape:{name}"), cfg, Some(name)));
    }
    for violation_at in [None, Some(0.5)] {
        // Retention kept small: it is the quadratic regime for the
        // Velodrome panel member, and it runs 4 standalone + 1 parallel
        // pass per configuration here.
        let cfg = GenConfig {
            events: if violation_at.is_none() { 3_000 } else { 8_000 },
            threads: 6,
            retention: violation_at.is_none(),
            probe_period: 60,
            violation_at,
            ..GenConfig::default()
        };
        cases.push((format!("gen:violation={violation_at:?}"), cfg, None));
    }

    for (label, cfg, shape) in cases {
        let fresh = || -> Box<dyn EventSource> {
            match shape {
                Some(name) => shapes::source(name, &cfg).expect("known shape"),
                None => Box::new(GenSource::new(&cfg)),
            }
        };
        for (jobs, batch) in [(1, 512), (2, 4096), (4, 257), (8, 1024)] {
            let config = ParConfig::default().jobs(jobs).batch_events(batch);
            assert_par_matches_standalone(fresh, &config, &format!("{label}/j{jobs}/b{batch}"));
        }
    }
}

#[test]
fn parallel_run_reports_ill_formed_input_like_the_sequential_pipeline() {
    let log = "t1|begin|0\nt1|w(x)|1\nt1|rel(m)|2\n";
    let mut source = StdReader::new(log.as_bytes());
    let err = check_all(&mut source, standard_checkers(), &ParConfig::default()).unwrap_err();
    assert!(matches!(err, SourceError::Malformed(_)), "{err}");

    // Opting out matches Pipeline::validate(false): the checkers accept
    // the events (verdicts on ill-formed traces are meaningless but the
    // run must not crash).
    let mut source = StdReader::new(log.as_bytes());
    let report =
        check_all(&mut source, standard_checkers(), &ParConfig::default().validate(false)).unwrap();
    assert_eq!(report.events, 3);
    assert!(report.summary.is_none());
}

/// A checker that throttles its worker: the ingest thread would fill
/// memory with parsed batches if the bounded channels did not push back.
struct SlowChecker {
    inner: Box<dyn Checker + Send>,
    stall_every: u64,
}

impl Checker for SlowChecker {
    fn process(&mut self, event: Event) -> Result<(), aerodrome::Violation> {
        if self.inner.events_processed().is_multiple_of(self.stall_every) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.process(event)
    }

    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn report(&self) -> CheckerReport {
        self.inner.report()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Backpressure: with a deliberately slow worker next to fast ones, the
/// run still allocates only `channel_batches + 2` batch arenas — ingest
/// waits for recycled arenas instead of buffering the trace.
#[test]
fn slow_worker_never_grows_memory() {
    let cfg = GenConfig { events: 60_000, threads: 6, ..GenConfig::default() };
    let checkers: Vec<SendChecker> = vec![
        Box::new(OptimizedChecker::new()),
        Box::new(SlowChecker { inner: Box::new(BasicChecker::new()), stall_every: 512 }),
        Box::new(ReadOptChecker::new()),
    ];
    let config = ParConfig::default().jobs(3).batch_events(256);
    let mut source = GenSource::new(&cfg);
    let report = check_all(&mut source, checkers, &config).unwrap();
    assert!(report.stats.batches > 100, "enough batches to make buffering observable");
    assert!(
        report.stats.batch_buffers <= par::CHANNEL_BATCHES + 2,
        "bounded channels must bound the arena pool: {:?}",
        report.stats
    );
    assert!(report.runs.iter().all(|r| !r.outcome.is_violation()));
}

/// An `OptimizedChecker` that samples its own pool's heap-allocation
/// counter at a warm-up point *on the worker thread* — the
/// `tests/pool_alloc.rs` invariant, measured where the shard-local pool
/// actually lives.
struct WarmupProbe {
    inner: OptimizedChecker,
    warmup: u64,
    at_warmup: Arc<AtomicU64>,
}

impl Checker for WarmupProbe {
    fn process(&mut self, event: Event) -> Result<(), aerodrome::Violation> {
        let result = self.inner.process(event);
        if self.inner.events_processed() == self.warmup {
            self.at_warmup.store(self.inner.report().clocks.heap_allocs(), Ordering::Relaxed);
        }
        result
    }

    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn report(&self) -> CheckerReport {
        self.inner.report()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Each worker's shard-local pool reaches the zero-allocation steady
/// state inside the parallel runtime, exactly as in the sequential
/// `tests/pool_alloc.rs` run.
#[test]
fn worker_local_pools_reach_zero_alloc_steady_state() {
    let cfg = GenConfig { seed: 42, threads: 8, events: 200_000, ..GenConfig::default() };
    let at_warmup = Arc::new(AtomicU64::new(u64::MAX));
    let probe = WarmupProbe {
        inner: OptimizedChecker::new(),
        warmup: 100_000,
        at_warmup: Arc::clone(&at_warmup),
    };
    let checkers: Vec<SendChecker> = vec![Box::new(probe), Box::new(OptimizedChecker::new())];
    let mut source = shapes::ConvoySource::new(&cfg);
    let report = check_all(&mut source, checkers, &ParConfig::default().jobs(2)).unwrap();
    let warm = at_warmup.load(Ordering::Relaxed);
    let end = report.runs[0].report.clocks.heap_allocs();
    assert_ne!(warm, u64::MAX, "warm-up point must be reached");
    assert_eq!(
        end, warm,
        "steady-state checking on a worker thread must not allocate clock buffers"
    );
}

/// The acceptance criterion of the parallel-runtime refactor, full
/// scale: on 1M-event convoy/fanout/nesting traces, `compare`-style
/// parallel runs are bit-identical to standalone runs, finish in less
/// wall time than the standalone runs summed, and the worker-local
/// pools stay allocation-free after warm-up. Multi-minute in debug
/// builds:
///
/// ```console
/// cargo test --release --test par_pipeline -- --ignored
/// ```
#[test]
#[ignore = "multi-minute in debug builds; run with --release -- --ignored"]
fn million_event_single_pass_fanout_beats_standalone_reruns() {
    let jobs = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get).min(4);
    for name in shapes::SHAPE_NAMES {
        let cfg = GenConfig {
            seed: 42,
            events: 1_000_000,
            threads: if name == "fanout" { 33 } else { 8 },
            ..GenConfig::default()
        };
        let fresh = || shapes::source(name, &cfg).expect("known shape");

        // Standalone: one full pass per checker (re-reading the source
        // each time, as `rapid aerodrome` × 3 + `rapid velodrome` would).
        let standalone_started = Instant::now();
        let reference = standalone_panel(&mut || fresh(), true);
        let standalone_wall = standalone_started.elapsed();

        // Parallel: one pass, all checkers.
        let config = ParConfig::default().jobs(jobs);
        let par_started = Instant::now();
        let mut source = fresh();
        let report = check_all(source.as_mut(), standard_checkers(), &config).unwrap();
        let par_wall = par_started.elapsed();

        for (run, (outcome, reference_report)) in report.runs.iter().zip(&reference) {
            assert_eq!(&run.outcome, outcome, "{name}/{}", run.name);
            assert_eq!(&run.report, reference_report, "{name}/{}", run.name);
        }
        assert!(report.events >= 1_000_000, "{name}: ran {} events", report.events);
        assert!(
            jobs < 2 || par_wall < standalone_wall,
            "{name}: single-pass fan-out ({par_wall:?}, {jobs} jobs) must beat \
             the standalone runs summed ({standalone_wall:?})"
        );
    }

    // Zero-alloc steady state on the worker, pool_alloc-style — on the
    // same workloads tests/pool_alloc.rs pins (the convoy's high-water
    // mark settles by the half-way warm-up; wider shapes keep inching up
    // past any fixed warm-up point, so they are not part of the
    // sequential invariant either).
    let probe_cfg = GenConfig { seed: 42, threads: 8, events: 1_000_000, ..GenConfig::default() };
    let at_warmup = Arc::new(AtomicU64::new(u64::MAX));
    let probe = WarmupProbe {
        inner: OptimizedChecker::new(),
        warmup: 500_000,
        at_warmup: Arc::clone(&at_warmup),
    };
    let mut source = shapes::ConvoySource::new(&probe_cfg);
    let probe_report =
        check_all(&mut source, vec![Box::new(probe)], &ParConfig::default()).unwrap();
    let warm = at_warmup.load(Ordering::Relaxed);
    assert_ne!(warm, u64::MAX, "warm-up point must be reached");
    assert_eq!(
        probe_report.runs[0].report.clocks.heap_allocs(),
        warm,
        "worker-local pool must stop allocating after warm-up"
    );
}
