//! Error isolation in the resident multi-trace runtime under
//! adversarial input: ill-formed traces produced by the mutation fuzzer
//! must fail *individually* — with line-attributed errors — while the
//! valid traces around them keep their exact verdicts, and the resident
//! sessions stay reusable (warm, allocation-free) afterwards.

use aerodrome_suite::pipeline::multi::check_corpus;
use aerodrome_suite::pipeline::par::standard_checkers;
use aerodrome_suite::prelude::*;
use scenarios::Mutator;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fuzz-multi-isolation");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A closed, well-formed working-set trace with some lock traffic.
fn seed_trace() -> Trace {
    let cfg = GenConfig { events: 8_000, threads: 6, vars: 24, seed: 13, ..GenConfig::default() };
    generate(&cfg)
}

/// Fuzzes `trace` until the mutator produces an *ill-formed* mutant.
fn ill_formed_mutant(trace: &Trace, seed: u64) -> Trace {
    let mut mutator = Mutator::new(seed);
    for _ in 0..10_000 {
        if let Some(mutant) = mutator.mutate(trace) {
            if !mutant.valid {
                return mutant.trace;
            }
        }
    }
    panic!("mutator never produced an ill-formed mutant");
}

/// The corpus: [good, bad, good, good] — the same valid trace scheduled
/// around a fuzzed ill-formed one, so the run exercises both error
/// attribution and session reuse across the failure.
#[test]
fn ill_formed_mutants_fail_alone_and_sessions_stay_warm() {
    let good = seed_trace();
    let bad = ill_formed_mutant(&good, 99);

    let good_path = tmp("good.std");
    let bad_path = tmp("bad.std");
    std::fs::write(&good_path, write_trace(&good)).unwrap();
    std::fs::write(&bad_path, write_trace(&bad)).unwrap();

    let expected: Vec<Outcome> = standard_checkers()
        .into_iter()
        .map(|mut c| {
            let mut pipeline = aerodrome_suite::Pipeline::new(good.stream());
            pipeline.run(c.as_mut()).unwrap().outcome
        })
        .collect();

    let paths = vec![good_path.clone(), bad_path.clone(), good_path.clone(), good_path.clone()];
    for jobs in [1, 2] {
        let report = check_corpus(&paths, standard_checkers, &ParConfig::default().jobs(jobs));
        assert_eq!(report.workers, jobs.min(paths.len()));
        assert_eq!(report.traces.len(), 4);

        // The fuzzed trace fails with a line-attributed error…
        let failed = &report.traces[1];
        let error = failed.error.as_ref().expect("ill-formed mutant must error");
        assert!(error.contains("not well-formed"), "{error}");
        assert!(error.contains("line "), "error lacks line attribution: {error}");
        assert!(error.contains(&bad_path.display().to_string()), "{error}");

        // …while every occurrence of the valid trace is untouched by it.
        for index in [0, 2, 3] {
            let run = &report.traces[index];
            assert!(run.error.is_none(), "jobs={jobs} trace {index}: {:?}", run.error);
            assert_eq!(run.events, good.len() as u64, "jobs={jobs} trace {index}");
            let verdicts: Vec<&Outcome> = run.runs.iter().map(|r| &r.outcome).collect();
            assert_eq!(
                verdicts,
                expected.iter().collect::<Vec<_>>(),
                "jobs={jobs} trace {index}: verdicts must match a fresh panel"
            );
        }
    }

    // Warm-session probe: on one worker the corpus is processed in
    // order, so by its third occurrence the valid trace runs entirely
    // out of pooled clock storage — zero heap allocations — even though
    // an ill-formed trace was ingested (and rejected) in between.
    let report = check_corpus(&paths, standard_checkers, &ParConfig::default().jobs(1));
    for run in &report.traces[3].runs {
        assert_eq!(
            run.report.clocks.heap_allocs(),
            0,
            "{}: a warm resident session must not allocate across traces ({:?})",
            run.name,
            run.report.clocks
        );
    }
}
