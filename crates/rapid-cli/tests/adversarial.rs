//! The sealed adversarial corpus: minimized reproducers, explored
//! schedules and a fuzz-derived mutant live in
//! `tests/fixtures/adversarial/`, each with an `.expect` sidecar. The
//! gating tests replay the whole corpus through `rapid batch
//! --seal-verify` at several worker counts and pin the pooled checkers
//! to their `Cloned*` twins fixture by fixture. The `--ignored` budget
//! test is the scheduled-CI sweep: a fixed-seed exploration plus a
//! 1000-mutant differential fuzz that must come back clean.

use aerodrome::basic::{BasicChecker, ClonedBasicChecker};
use aerodrome::optimized::{ClonedOptimizedChecker, OptimizedChecker};
use aerodrome::readopt::{ClonedReadOptChecker, ReadOptChecker};
use aerodrome::run_checker;
use rapid_cli::{run, CheckerChoice, Command};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/adversarial");

fn fixture_traces() -> Vec<(String, tracelog::Trace)> {
    let mut traces = Vec::new();
    for entry in std::fs::read_dir(FIXTURES).expect("fixture corpus present") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("std") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let trace =
            tracelog::parse_trace(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        traces.push((path.display().to_string(), trace));
    }
    traces.sort_by(|a, b| a.0.cmp(&b.0));
    traces
}

/// Every sealed fixture verifies against its sidecar under 1, 2 and 4
/// workers — the corpus is the regression net for the scenario engine.
/// Each fixture is sealed in BOTH encodings (`.std` text and `.rbt`
/// binary twins), so the sweep also pins verdict equality across the
/// two ingest paths.
#[test]
fn sealed_corpus_verifies_at_every_worker_count() {
    for jobs in [1, 2, 4] {
        let out = run(Command::Batch {
            path: FIXTURES.into(),
            jobs,
            checker: CheckerChoice::All,
            seal_verify: true,
            validate: true,
        })
        .unwrap_or_else(|e| panic!("jobs={jobs}: {e}"));
        assert!(out.contains("traces: 18"), "jobs={jobs}: both encodings expected: {out}");
        assert!(out.contains("0 seal mismatch(es)"), "jobs={jobs}: {out}");
        assert!(out.contains("0 ingest error(s)"), "jobs={jobs}: {out}");
    }
}

/// Every `.std` fixture has a sealed `.rbt` twin: same events after
/// decoding, byte-identical `.expect` sidecar (seal text is
/// encoding-independent), and the binary round-trips back to the exact
/// text bytes.
#[test]
fn binary_fixture_twins_match_their_text_originals() {
    let mut checked = 0;
    for (path, trace) in fixture_traces() {
        let rbt = path.replace(".std", ".rbt");
        let bin = tracelog::binfmt::BinTrace::open(std::path::Path::new(&rbt))
            .unwrap_or_else(|e| panic!("{rbt}: missing or unreadable twin: {e}"));
        assert_eq!(bin.event_count(), trace.len() as u64, "{rbt}: event count drifted");
        let mut source = tracelog::binfmt::MmapSource::new(std::sync::Arc::new(bin));
        let mut text = Vec::new();
        tracelog::stream::copy_events(&mut source, &mut text).unwrap();
        assert_eq!(
            String::from_utf8(text).unwrap(),
            std::fs::read_to_string(&path).unwrap(),
            "{rbt}: round-trip is not byte-exact"
        );
        assert_eq!(
            std::fs::read_to_string(format!("{path}.expect")).unwrap(),
            std::fs::read_to_string(format!("{rbt}.expect")).unwrap(),
            "{rbt}: seal sidecars must be identical across encodings"
        );
        checked += 1;
    }
    assert!(checked >= 9, "twin corpus went missing: {checked} fixtures");
}

/// Pooled and clone-per-transaction checkers must be bit-identical on
/// every fixture: same verdict, same violating event, same kind.
#[test]
fn pooled_and_cloned_checkers_agree_on_every_fixture() {
    let traces = fixture_traces();
    assert!(traces.len() >= 9, "corpus went missing: {} fixtures", traces.len());
    for (path, trace) in &traces {
        assert_eq!(
            run_checker(&mut BasicChecker::new(), trace),
            run_checker(&mut ClonedBasicChecker::new(), trace),
            "{path}: basic pooled vs cloned"
        );
        assert_eq!(
            run_checker(&mut ReadOptChecker::new(), trace),
            run_checker(&mut ClonedReadOptChecker::new(), trace),
            "{path}: readopt pooled vs cloned"
        );
        assert_eq!(
            run_checker(&mut OptimizedChecker::new(), trace),
            run_checker(&mut ClonedOptimizedChecker::new(), trace),
            "{path}: optimized pooled vs cloned"
        );
    }
}

/// The minimized reproducers stay minimal: deleting any single event
/// from a `-min` fixture breaks well-formedness, leaves the trace open
/// (the minimizer requires closed reproducers), or loses the violation.
#[test]
fn minimized_fixtures_are_one_minimal() {
    for (path, trace) in fixture_traces() {
        if !path.contains("-min") {
            continue;
        }
        assert!(
            run_checker(&mut BasicChecker::new(), &trace).is_violation(),
            "{path}: a -min fixture must still violate"
        );
        let events = trace.events();
        for skip in 0..events.len() {
            let reduced: Vec<_> =
                events.iter().enumerate().filter(|&(i, _)| i != skip).map(|(_, &e)| e).collect();
            let candidate = tracelog::Trace::from_parts(
                reduced,
                trace.thread_names().clone(),
                trace.lock_names().clone(),
                trace.var_names().clone(),
            );
            let still_interesting = tracelog::validate(&candidate)
                .is_ok_and(|summary| summary.is_closed())
                && run_checker(&mut BasicChecker::new(), &candidate).is_violation();
            assert!(!still_interesting, "{path}: event {skip} is deletable — not 1-minimal");
        }
    }
}

/// Scheduled-CI budget sweep (release builds): fixed-seed exploration
/// over every builtin and a 1000-mutant differential fuzz per paper
/// trace, all refereed across the full checker panel.
#[test]
#[ignore = "budget sweep for the scheduled CI job; run with --ignored"]
fn adversarial_budget() {
    use scenarios::{builtin, explore, fuzz, ExploreConfig, FuzzConfig};

    let explore_cfg =
        ExploreConfig { max_schedules: 20_000, samples: 512, seed: 1, ..Default::default() };
    for (name, _, _) in scenarios::BUILTINS {
        let report = explore(&builtin(name).unwrap(), &explore_cfg);
        assert_eq!(report.mismatching, 0, "{name}: differential mismatch while exploring");
        match *name {
            "racy-pair" | "rho2-hidden" => {
                assert!(report.violating > 0, "{name}: the seeded race went undetected")
            }
            "guarded-pair" | "fork-chain" => {
                assert_eq!(report.violating, 0, "{name}: false positive")
            }
            _ => {}
        }
    }

    // The racy builtin's first violation must minimize to the 8-event
    // kernel (two overlapping transactions, two conflicting variables).
    let program = builtin("racy-pair").unwrap();
    let report = explore(&program, &explore_cfg);
    let found = report.violations.first().expect("at least one violating schedule");
    let trace = scenarios::schedule_trace(&program, &found.schedule);
    let min = scenarios::minimize(&trace, true, |t| {
        run_checker(&mut BasicChecker::new(), t).is_violation()
    });
    assert_eq!(min.len(), 8, "racy-pair kernel regressed:\n{}", tracelog::write_trace(&min));

    for (label, trace) in [
        ("rho1", tracelog::paper_traces::rho1()),
        ("rho2", tracelog::paper_traces::rho2()),
        ("rho3", tracelog::paper_traces::rho3()),
        ("rho4", tracelog::paper_traces::rho4()),
    ] {
        let report = fuzz(&trace, &FuzzConfig { mutants: 1_000, seed: 7, ..Default::default() });
        assert_eq!(report.attempted, 1_000, "{label}");
        assert!(report.clean(), "{label}: {} differential mismatch(es)", report.mismatching);
    }
}
