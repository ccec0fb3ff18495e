//! Differential and acceptance tests for the resident corpus scheduler
//! (`pipeline::multi`): verdicts over a corpus must be bit-identical to
//! running a fresh checker panel per trace, per-trace failures must not
//! poison the rest of the corpus, and the resident sessions must beat
//! per-trace re-construction in wall time (the `--ignored` acceptance
//! run).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use aerodrome_suite::pipeline::multi::{check_corpus, discover, MultiConfig};
use aerodrome_suite::pipeline::par::standard_checkers;
use aerodrome_suite::prelude::*;
use workloads::corpus::{write_corpus, CorpusConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("aerodrome-multi-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The old way: a fresh checker panel constructed per trace, run
/// sequentially over the file.
fn respawn_panel(path: &Path, validate: bool) -> Vec<(Outcome, u64, u64)> {
    standard_checkers()
        .into_iter()
        .map(|mut checker| {
            let file = std::fs::File::open(path).unwrap();
            let mut pipeline =
                Pipeline::new(StdReader::new(std::io::BufReader::new(file))).validate(validate);
            let outcome = pipeline.run(checker.as_mut()).expect("corpus traces are well-formed");
            let report = checker.report();
            (outcome.outcome, report.events, report.clock_joins)
        })
        .collect()
}

#[test]
fn corpus_run_is_bit_identical_to_per_trace_fresh_checkers() {
    let dir = temp_dir("differential");
    let spec = CorpusConfig { traces: 9, events: 1_500, ..CorpusConfig::default() };
    let paths = write_corpus(&dir, &spec).unwrap();

    for jobs in [1, 2, 4] {
        let config = MultiConfig::default().jobs(jobs).batch_events(257);
        let report = check_corpus(&paths, standard_checkers, &config);
        assert_eq!(report.traces.len(), paths.len());
        for (trace, path) in report.traces.iter().zip(&paths) {
            assert_eq!(&trace.path, path, "discovery order preserved");
            assert!(trace.error.is_none(), "{:?}", trace.error);
            let reference = respawn_panel(path, true);
            assert_eq!(trace.runs.len(), reference.len());
            for (run, (outcome, events, joins)) in trace.runs.iter().zip(&reference) {
                let label = format!("j{jobs}/{}/{}", path.display(), run.name);
                assert_eq!(&run.outcome, outcome, "{label}: verdict");
                assert_eq!(run.report.events, *events, "{label}: events");
                assert_eq!(run.report.clock_joins, *joins, "{label}: clock joins");
            }
        }
        // The corpus injects violations into some generator traces.
        assert!(report.violations() > 0, "corpus must contain violating traces");
        assert!(report.violations() < report.traces.len(), "and serializable ones");
    }
}

#[test]
fn discovery_walks_directories_and_reads_manifests() {
    let dir = temp_dir("discovery");
    let spec = CorpusConfig { traces: 4, events: 300, ..CorpusConfig::default() };
    let written = write_corpus(&dir, &spec).unwrap();
    // Nested traces are found too.
    let nested = dir.join("sub");
    fs::create_dir_all(&nested).unwrap();
    fs::copy(&written[0], nested.join("extra.std")).unwrap();

    let from_dir = discover(&dir).unwrap();
    assert_eq!(from_dir.len(), 5, "{from_dir:?}");
    assert!(from_dir.windows(2).all(|w| w[0] < w[1]), "sorted: {from_dir:?}");

    // A directory symlink back up the tree is not followed: the walk
    // returns exactly the real traces instead of revisiting them.
    #[cfg(unix)]
    {
        std::os::unix::fs::symlink("..", nested.join("up")).unwrap();
        assert_eq!(discover(&dir).unwrap(), from_dir);
    }

    let from_manifest = discover(&dir.join("manifest.txt")).unwrap();
    assert_eq!(from_manifest.len(), 4, "manifest lists only the written corpus");
    assert!(from_manifest.iter().all(|p| p.is_file()), "{from_manifest:?}");

    let single = discover(&written[1]).unwrap();
    assert_eq!(single, vec![written[1].clone()]);

    assert!(discover(&dir.join("nothing-here")).is_err());
    let empty = temp_dir("discovery-empty");
    assert!(discover(&empty).unwrap_err().contains("no .std or .rbt traces"));
}

#[test]
fn per_trace_failures_do_not_poison_the_corpus() {
    let dir = temp_dir("failures");
    let spec = CorpusConfig { traces: 3, events: 400, ..CorpusConfig::default() };
    let mut paths = write_corpus(&dir, &spec).unwrap();
    // One ill-formed trace (release of an unheld lock) and one missing
    // file, interleaved with the good ones.
    let bad = dir.join("bad.std");
    fs::write(&bad, "t1|begin|0\nt1|w(x)|1\nt1|rel(m)|2\nt1|end|3\n").unwrap();
    paths.insert(1, bad);
    paths.insert(3, dir.join("missing.std"));

    let report = check_corpus(&paths, standard_checkers, &MultiConfig::default().jobs(2));
    assert_eq!(report.traces.len(), 5);
    assert_eq!(report.errors(), 2);
    let bad_run = &report.traces[1];
    let error = bad_run.error.as_ref().unwrap();
    assert!(error.contains("not well-formed"), "{error}");
    assert!(error.contains("line 3"), "ill-formed line attributed: {error}");
    assert_eq!(bad_run.events, 2, "well-formed prefix was fed to the checkers");
    assert!(report.traces[3].error.is_some(), "missing file recorded");
    // The good traces (0, 2, 4) are unaffected — including ones run by
    // the same session *after* an error.
    for i in [0usize, 2, 4] {
        let t = &report.traces[i];
        assert!(t.error.is_none(), "trace {i}: {:?}", t.error);
        let reference = respawn_panel(&t.path, true);
        for (run, (outcome, events, _)) in t.runs.iter().zip(&reference) {
            assert_eq!(&run.outcome, outcome, "trace {i} {}", run.name);
            assert_eq!(run.report.events, *events, "trace {i} {}", run.name);
        }
    }
}

#[test]
fn corpus_totals_aggregate_per_panel_position() {
    let dir = temp_dir("totals");
    let spec = CorpusConfig { traces: 4, events: 800, ..CorpusConfig::default() };
    let paths = write_corpus(&dir, &spec).unwrap();
    let report = check_corpus(&paths, standard_checkers, &MultiConfig::default().jobs(1));
    let totals = report.checker_totals();
    assert_eq!(totals.len(), 4, "one total per panel position");
    for (i, total) in totals.iter().enumerate() {
        let summed: u64 = report.traces.iter().map(|t| t.runs[i].report.events).sum();
        assert_eq!(total.events, summed, "{}", total.name);
        assert_eq!(total.name, report.traces[0].runs[i].name);
    }
    // The vector-clock checkers did real work.
    assert!(totals.iter().any(|t| t.clock_joins > 0));
}

/// The acceptance criterion of the resident runtime, full scale: a
/// 100-trace corpus checked through resident sessions is bit-identical
/// to 100 standalone runs and, at `jobs ≥ 2`, beats per-trace
/// re-construction in wall time. Multi-second in debug builds:
///
/// ```console
/// cargo test --release --test multi_pipeline -- --ignored
/// ```
#[test]
#[ignore = "multi-second in debug builds; run with --release -- --ignored"]
fn hundred_trace_corpus_resident_beats_respawn() {
    let dir = temp_dir("acceptance");
    let spec = CorpusConfig { traces: 100, events: 50_000, ..CorpusConfig::default() };
    let paths = write_corpus(&dir, &spec).unwrap();
    let jobs =
        std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get).clamp(2, 4);

    // Respawn baseline: a fresh panel constructed per trace, verdicts
    // recorded for the differential.
    let respawn_started = Instant::now();
    let reference: Vec<Vec<(Outcome, u64, u64)>> =
        paths.iter().map(|p| respawn_panel(p, true)).collect();
    let respawn_wall = respawn_started.elapsed();

    // Resident corpus run.
    let config = MultiConfig::default().jobs(jobs);
    let resident_started = Instant::now();
    let report = check_corpus(&paths, standard_checkers, &config);
    let resident_wall = resident_started.elapsed();

    assert_eq!(report.traces.len(), 100);
    let mut violating = 0;
    for (trace, reference) in report.traces.iter().zip(&reference) {
        assert!(trace.error.is_none(), "{:?}", trace.error);
        violating += usize::from(trace.any_violation());
        for (run, (outcome, events, joins)) in trace.runs.iter().zip(reference) {
            let label = format!("{}/{}", trace.path.display(), run.name);
            assert_eq!(&run.outcome, outcome, "{label}: verdict");
            assert_eq!(run.report.events, *events, "{label}: events");
            assert_eq!(run.report.clock_joins, *joins, "{label}: clock joins");
        }
    }
    assert!(violating > 0 && violating < 100, "mixed corpus: {violating}/100 violating");
    assert!(
        resident_wall < respawn_wall,
        "resident corpus run ({resident_wall:?}, {jobs} jobs) must beat per-trace \
         re-construction ({respawn_wall:?})"
    );
    println!(
        "resident j{jobs}: {resident_wall:?} vs respawn j1: {respawn_wall:?} \
         over {} events",
        report.events()
    );
}
