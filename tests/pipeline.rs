//! Differential tests for the streaming pipeline: every verdict produced
//! through `Pipeline` (source → validator → checker) must equal the
//! batch `run_checker` verdict on the same events — on the paper traces,
//! on every benchmark profile, on the extra shapes, and on random
//! generator configurations.

use aerodrome_suite::pipeline::Pipeline;
use aerodrome_suite::prelude::*;
use proptest::prelude::*;
use tracelog::paper_traces;
use workloads::shapes;

/// All checkers under one name each, fresh per call.
fn checkers() -> Vec<(&'static str, Box<dyn Checker + Send>)> {
    vec![
        ("basic", Box::new(BasicChecker::new())),
        ("readopt", Box::new(ReadOptChecker::new())),
        ("optimized", Box::new(OptimizedChecker::new())),
        ("velodrome", Box::new(VelodromeChecker::new())),
    ]
}

fn pipeline_outcome(trace: &Trace, checker: &mut (dyn Checker + Send)) -> Outcome {
    Pipeline::new(trace.stream()).run(checker).expect("well-formed in-memory trace").outcome
}

#[test]
fn pipeline_matches_run_checker_on_every_paper_trace() {
    for (name, trace) in [
        ("rho1", paper_traces::rho1()),
        ("rho2", paper_traces::rho2()),
        ("rho3", paper_traces::rho3()),
        ("rho4", paper_traces::rho4()),
    ] {
        for (cname, mut checker) in checkers() {
            let batch = {
                let mut reference: Box<dyn Checker> = match cname {
                    "basic" => Box::new(BasicChecker::new()),
                    "readopt" => Box::new(ReadOptChecker::new()),
                    "optimized" => Box::new(OptimizedChecker::new()),
                    _ => Box::new(VelodromeChecker::new()),
                };
                run_checker(reference.as_mut(), &trace)
            };
            let streamed = pipeline_outcome(&trace, checker.as_mut());
            assert_eq!(streamed, batch, "{name}/{cname}");
        }
    }
}

#[test]
fn pipeline_matches_run_checker_on_every_profile() {
    // Reduced scale keeps the debug-build test fast; the bench harness
    // exercises full scale.
    for mut profile in workloads::table1().into_iter().chain(workloads::table2()) {
        profile.cfg.events = profile.cfg.events.min(4_000);
        let trace = generate(&profile.cfg);
        let batch = run_checker(&mut OptimizedChecker::new(), &trace);
        let report = Pipeline::new(trace.stream())
            .run(&mut OptimizedChecker::new())
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
        assert_eq!(report.outcome, batch, "{}", profile.name);
        if !report.outcome.is_violation() {
            assert_eq!(report.events, trace.len() as u64, "{}", profile.name);
            assert!(report.summary.unwrap().is_closed(), "{}", profile.name);
        }
    }
}

#[test]
fn generator_source_streams_the_exact_generate_events() {
    for cfg in [
        GenConfig { events: 3_000, ..GenConfig::default() },
        GenConfig { events: 3_000, violation_at: Some(0.4), ..GenConfig::default() },
        GenConfig { events: 5_000, retention: true, probe_period: 50, ..GenConfig::default() },
        GenConfig { events: 500, threads: 1, ..GenConfig::default() },
    ] {
        let trace = generate(&cfg);
        let mut source = GenSource::new(&cfg);
        let mut streamed = Vec::new();
        while let Some(e) = source.next_event().unwrap() {
            streamed.push(e);
        }
        assert_eq!(streamed.as_slice(), trace.events());
        assert_eq!(source.names().threads.len(), trace.num_threads());
        assert_eq!(source.names().vars.len(), trace.num_vars());
    }
}

#[test]
fn shapes_are_serializable_under_every_checker() {
    for name in shapes::SHAPE_NAMES {
        let cfg = GenConfig {
            events: 3_000,
            threads: if name == "fanout" { 17 } else { 5 },
            ..GenConfig::default()
        };
        let trace = shapes::collect(name, &cfg).expect("known shape");
        assert!(validate(&trace).unwrap().is_closed(), "{name}");
        for (cname, mut checker) in checkers() {
            let outcome = pipeline_outcome(&trace, checker.as_mut());
            assert!(!outcome.is_violation(), "{name}/{cname} must be serializable");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random generator configurations: the streamed pipeline verdict
    /// (with validation on) equals the in-memory `run_checker` verdict.
    #[test]
    fn pipeline_equals_run_checker_on_random_workloads(
        seed in 0u64..1_000,
        threads in 1usize..7,
        inject in any::<bool>(),
        violation_tenths in 1u32..9,
        retention in any::<bool>(),
    ) {
        let violation_frac = f64::from(violation_tenths) / 10.0;
        let cfg = GenConfig {
            seed,
            threads,
            events: 1_200,
            vars: 64,
            locks: 2,
            retention,
            probe_period: 40,
            violation_at: inject.then_some(violation_frac),
            ..GenConfig::default()
        };
        let trace = generate(&cfg);
        let batch = run_checker(&mut OptimizedChecker::new(), &trace);
        // Stream straight from the generator, not from the trace.
        let mut pipeline = Pipeline::new(GenSource::new(&cfg));
        let report = pipeline.run(&mut OptimizedChecker::new()).expect("generated traces are well-formed");
        prop_assert_eq!(report.outcome, batch);
    }
}

/// The acceptance check of the streaming redesign: a ≥5M-event `.std`
/// log analysed end to end through the constant-memory path, verdict
/// identical to the in-memory path. Expensive in debug builds, so it is
/// ignored by default:
///
/// ```console
/// cargo test --release --test pipeline -- --ignored
/// ```
#[test]
#[ignore = "multi-minute in debug builds; run with --release -- --ignored"]
fn five_million_event_std_log_streams_through_the_pipeline() {
    use std::io::BufReader;
    use tracelog::stream::copy_events;

    let cfg = GenConfig { events: 5_000_000, vars: 4_096, ..GenConfig::default() };
    let dir = std::env::temp_dir().join("aerodrome-suite-5m");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("5m.std");

    // Generator → disk, streaming.
    let file = std::fs::File::create(&path).unwrap();
    let mut out = std::io::BufWriter::new(file);
    let written = copy_events(&mut GenSource::new(&cfg), &mut out).unwrap();
    drop(out);
    assert!(written >= 5_000_000);

    // Disk → checker, streaming (validator on), no Trace materialised.
    let reader = StdReader::new(BufReader::new(std::fs::File::open(&path).unwrap()));
    let mut pipeline = Pipeline::new(reader);
    let report = pipeline.run(&mut OptimizedChecker::new()).unwrap();
    assert_eq!(report.events, written);
    assert!(report.summary.unwrap().is_closed());

    // Same verdict as the in-memory path over the same events.
    let batch = run_checker(&mut OptimizedChecker::new(), &generate(&cfg));
    assert_eq!(report.outcome, batch);
    let _ = std::fs::remove_file(&path);
}
