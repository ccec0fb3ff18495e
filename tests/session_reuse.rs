//! Session-reuse differentials: a checker that is `reset()` and reused
//! across traces must be observationally identical to constructing a
//! fresh checker per trace — same verdicts, same violation coordinates,
//! same per-trace event/join counters — and, once warm, must perform
//! **zero** clock heap allocations across traces (the `pool_alloc.rs`
//! invariant lifted to the resident multi-trace runtime).

use aerodrome::CheckerReport;
use aerodrome_suite::pipeline::par::{standard_checkers, SendChecker};
use aerodrome_suite::prelude::*;
use proptest::prelude::*;
use tracelog::paper_traces;
use velodrome::VelodromeChecker;
use workloads::shapes;

/// Drives one source through `checker` (validation off: generator
/// sources are well-formed by construction, and the paper traces are
/// prefixes in some cases), returning the verdict and report.
fn drive(
    checker: &mut (dyn Checker + Send),
    source: Box<dyn EventSource>,
) -> (Outcome, CheckerReport) {
    let mut pipeline = Pipeline::new(source).validate(false);
    let outcome = pipeline.run(checker).expect("sources are well-formed").outcome;
    (outcome, checker.report())
}

/// Asserts the reused-session result equals the fresh-checker result on
/// everything a reset promises: verdict, events, conflict-handler joins,
/// and the *operation* counters of the clock core (pointwise joins,
/// shares, copy-on-writes). Allocation counters are exactly the ones a
/// warm session improves, so they are asserted separately (to be zero),
/// not equal.
fn assert_identical(
    label: &str,
    session: &(Outcome, CheckerReport),
    fresh: &(Outcome, CheckerReport),
) {
    assert_eq!(session.0, fresh.0, "{label}: verdict");
    assert_eq!(session.1.events, fresh.1.events, "{label}: events");
    assert_eq!(session.1.clock_joins, fresh.1.clock_joins, "{label}: clock joins");
    assert_eq!(session.1.clocks.joins, fresh.1.clocks.joins, "{label}: pointwise joins");
    assert_eq!(session.1.clocks.shares, fresh.1.clocks.shares, "{label}: shares");
    assert_eq!(session.1.clocks.cow_copies, fresh.1.clocks.cow_copies, "{label}: cow copies");
}

/// One panel reused over a sequence of sources vs a fresh panel per
/// trace.
fn assert_session_matches_fresh(label: &str, sources: &[&dyn Fn() -> Box<dyn EventSource>]) {
    let mut session: Vec<SendChecker> = standard_checkers();
    for (t, fresh_source) in sources.iter().enumerate() {
        let fresh_panel = standard_checkers();
        for (reused, mut fresh) in session.iter_mut().zip(fresh_panel) {
            reused.reset();
            let name = fresh.name();
            let s = drive(reused.as_mut(), fresh_source());
            let f = drive(fresh.as_mut(), fresh_source());
            assert_identical(&format!("{label}/trace{t}/{name}"), &s, &f);
        }
    }
}

#[test]
fn reused_sessions_match_fresh_checkers_on_paper_traces_and_shapes() {
    let paper =
        [paper_traces::rho1(), paper_traces::rho2(), paper_traces::rho3(), paper_traces::rho4()];
    let mut sources: Vec<Box<dyn Fn() -> Box<dyn EventSource>>> = Vec::new();
    for trace in paper {
        let text = write_trace(&trace);
        sources.push(Box::new(move || {
            Box::new(StdReader::new(std::io::Cursor::new(text.clone().into_bytes())))
        }));
    }
    for name in shapes::SHAPE_NAMES {
        let cfg = GenConfig {
            events: 3_000,
            threads: if name == "fanout" { 13 } else { 5 },
            ..GenConfig::default()
        };
        sources.push(Box::new(move || shapes::source(name, &cfg).expect("known shape")));
    }
    for violation_at in [None, Some(0.4)] {
        let cfg = GenConfig { events: 4_000, threads: 6, violation_at, ..GenConfig::default() };
        sources.push(Box::new(move || Box::new(GenSource::new(&cfg))));
    }
    let refs: Vec<&dyn Fn() -> Box<dyn EventSource>> = sources.iter().map(AsRef::as_ref).collect();
    assert_session_matches_fresh("fixed", &refs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The corpus differential: a random *sequence* of trace configs
    /// (generated with the shim's `vec` combinator, which shrinks a
    /// failing corpus by dropping traces and then minimising each) is
    /// checked through one reused session and through per-trace fresh
    /// checkers; every trace of the sequence must agree bit for bit.
    #[test]
    fn reused_session_is_identical_over_random_corpora(
        specs in prop::collection::vec(
            (0u64..1_000, 2usize..7, 0u32..4, any::<bool>()),
            2..5,
        )
    ) {
        let mut session: Vec<SendChecker> = standard_checkers();
        for (t, &(seed, threads, kind, violate)) in specs.iter().enumerate() {
            let cfg = GenConfig {
                seed,
                threads,
                events: 1_200,
                violation_at: (violate && kind == 0).then_some(0.5),
                ..GenConfig::default()
            };
            let fresh_source = || -> Box<dyn EventSource> {
                match kind {
                    0 => Box::new(GenSource::new(&cfg)),
                    1 => shapes::source("convoy", &cfg).expect("convoy"),
                    2 => shapes::source("fanout", &cfg).expect("fanout"),
                    _ => shapes::source("nesting", &cfg).expect("nesting"),
                }
            };
            for (reused, mut fresh) in session.iter_mut().zip(standard_checkers()) {
                reused.reset();
                let name = fresh.name();
                let s = drive(reused.as_mut(), fresh_source());
                let f = drive(fresh.as_mut(), fresh_source());
                prop_assert_eq!(&s.0, &f.0, "trace {} {}: verdict", t, name);
                prop_assert_eq!(s.1.events, f.1.events, "trace {} {}: events", t, name);
                prop_assert_eq!(s.1.clock_joins, f.1.clock_joins, "trace {} {}: joins", t, name);
                prop_assert_eq!(s.1.clocks.joins, f.1.clocks.joins, "trace {} {}: vc joins", t, name);
            }
        }
    }
}

/// Velodrome's graph statistics are part of the session contract too:
/// the reset graph recycles node slots in fresh order, so even the DFS
/// visit counters of a reused checker match a fresh one exactly.
#[test]
fn velodrome_session_reports_fresh_identical_graph_stats() {
    let mut reused = VelodromeChecker::new();
    for seed in [3u64, 7, 11] {
        let cfg = GenConfig {
            seed,
            events: 3_000,
            threads: 5,
            retention: seed == 7,
            violation_at: (seed == 11).then_some(0.5),
            ..GenConfig::default()
        };
        reused.reset();
        let mut fresh = VelodromeChecker::new();
        let (so, _) = drive(&mut reused, Box::new(GenSource::new(&cfg)));
        let (fo, _) = drive(&mut fresh, Box::new(GenSource::new(&cfg)));
        assert_eq!(so, fo, "seed {seed}: verdict");
        assert_eq!(reused.stats(), fresh.stats(), "seed {seed}: graph statistics");
        assert_eq!(reused.witness(), fresh.witness(), "seed {seed}: witness cycle");
    }
}

/// The cross-trace zero-allocation probe: after one warm-up round over
/// the corpus working set, re-checking the same mix of traces through
/// the reused session performs no clock heap allocations at all —
/// `heap_allocs` (reported per trace since the reset) is flat at zero
/// from the second round onward.
#[test]
fn cross_trace_checking_is_allocation_free_once_warm() {
    let configs = [
        ("convoy", GenConfig { seed: 42, threads: 8, events: 60_000, ..GenConfig::default() }),
        (
            "gen",
            GenConfig { seed: 7, threads: 8, vars: 64, events: 40_000, ..GenConfig::default() },
        ),
        ("nesting", GenConfig { seed: 5, threads: 6, events: 30_000, ..GenConfig::default() }),
    ];
    let source = |name: &str, cfg: &GenConfig| -> Box<dyn EventSource> {
        match name {
            "gen" => Box::new(GenSource::new(cfg)),
            shape => shapes::source(shape, cfg).expect("known shape"),
        }
    };
    let mut checker = OptimizedChecker::new();
    for round in 0..3 {
        for (name, cfg) in &configs {
            checker.reset();
            let (_, report) = drive(&mut checker, source(name, cfg));
            assert!(report.events >= cfg.events as u64, "{name}: ran {} events", report.events);
            if round > 0 {
                assert_eq!(
                    report.clocks.heap_allocs(),
                    0,
                    "round {round} {name}: a warm resident session must not allocate \
                     clock buffers across traces ({:?})",
                    report.clocks
                );
            }
        }
    }
}

/// The retained-storage budget is enforced at the session seam: a trace
/// with a pathological thread count inflates the pool, and the next
/// reset trims it back under the default budget (visible in
/// `retained_bytes`) without disturbing verdicts.
#[test]
fn reset_trims_adversarial_pool_growth() {
    use aerodrome::state::DEFAULT_RETAINED_CLOCK_BYTES;

    let mut checker = OptimizedChecker::new();
    // A wide fanout: thousands of threads → max-width clock buffers.
    let wide = GenConfig { seed: 1, threads: 2_000, events: 30_000, ..GenConfig::default() };
    let (_, wide_report) = drive(&mut checker, shapes::source("fanout", &wide).expect("fanout"));
    assert!(wide_report.events > 0);
    let inflated = checker.clock_stats().retained_bytes;
    assert!(
        inflated > DEFAULT_RETAINED_CLOCK_BYTES,
        "the adversarial trace must actually inflate the pool ({inflated} bytes)"
    );
    checker.reset();
    let retained = checker.clock_stats().retained_bytes;
    assert!(
        retained <= DEFAULT_RETAINED_CLOCK_BYTES,
        "reset must trim the pool under the documented budget: {retained} bytes retained"
    );
    // The session still checks correctly after the trim.
    let small = GenConfig { seed: 2, threads: 4, events: 2_000, ..GenConfig::default() };
    let s = drive(&mut checker, Box::new(GenSource::new(&small)));
    let f = drive(&mut OptimizedChecker::new(), Box::new(GenSource::new(&small)));
    assert_identical("post-trim", &s, &f);
}
