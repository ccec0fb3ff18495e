//! End-to-end tests of the `rapid batch` resident corpus runtime and
//! the `rapid generate --corpus` emitter, including the `--ignored`
//! sealed-corpus verification run the scheduled CI job executes.

use std::fs;
use std::path::PathBuf;

use rapid_cli::{parse_args, run, CheckerChoice, Command};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rapid-batch-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn parses_batch_command() {
    let cmd = parse_args(&args(&[
        "batch",
        "corpus/",
        "--jobs",
        "3",
        "--checker",
        "velodrome",
        "--no-validate",
    ]))
    .unwrap();
    assert_eq!(
        cmd,
        Command::Batch {
            path: "corpus/".into(),
            jobs: 3,
            checker: CheckerChoice::Velodrome,
            seal_verify: false,
            validate: false,
        }
    );
    let cmd = parse_args(&args(&["batch", "corpus/", "--seal-verify"])).unwrap();
    assert_eq!(
        cmd,
        Command::Batch {
            path: "corpus/".into(),
            jobs: 0,
            checker: CheckerChoice::All,
            seal_verify: true,
            validate: true,
        }
    );
    assert!(parse_args(&args(&["batch"])).is_err());
    assert!(parse_args(&args(&["batch", "c/", "--checker", "bogus"])).is_err());
    assert!(parse_args(&args(&["batch", "c/", "--batch", "0"])).is_err());
    // Seal sidecars record the full panel; a partial panel cannot verify.
    assert!(parse_args(&args(&["batch", "c/", "--seal-verify", "--checker", "basic"])).is_err());
}

#[test]
fn corpus_generation_and_batch_run_end_to_end() {
    let dir = temp_dir("e2e");
    let dir_s = dir.to_string_lossy().into_owned();
    let out = run(parse_args(&args(&[
        "generate", &dir_s, "--corpus", "6", "--events", "600", "--seed", "11",
    ]))
    .unwrap())
    .unwrap();
    assert!(out.contains("wrote 6 traces"), "{out}");
    assert!(dir.join("manifest.txt").is_file());

    // The corpus contains injected violations, so a plain batch run
    // reports them and exits non-zero (Err).
    let err = run(parse_args(&args(&["batch", &dir_s, "--jobs", "2"])).unwrap()).unwrap_err();
    assert!(err.contains("resident batch:"), "{err}");
    assert!(err.contains("violating trace(s)"), "{err}");
    assert!(err.contains('✗') && err.contains('✓'), "mixed verdicts: {err}");
    assert!(err.contains("corpus totals per checker:"), "{err}");

    // Through the manifest, with a single checker: same traces, 1-wide
    // verdict columns.
    let manifest = dir.join("manifest.txt").to_string_lossy().into_owned();
    let err = run(parse_args(&args(&["batch", &manifest, "--checker", "optimized"])).unwrap())
        .unwrap_err();
    assert!(err.contains("checkers: aerodrome\n"), "{err}");

    // An all-serializable subset exits zero: point batch at one
    // violation-free trace.
    let clean = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "std") && !p.to_string_lossy().contains("gen"))
        .expect("corpus contains shape traces");
    let out = run(parse_args(&args(&["batch", &clean.to_string_lossy()])).unwrap()).unwrap();
    assert!(out.contains("0 violating trace(s), 0 ingest error(s)"), "{out}");
}

#[test]
fn seal_verify_expects_sealed_violations_and_catches_tampering() {
    let dir = temp_dir("seal");
    let dir_s = dir.to_string_lossy().into_owned();
    run(parse_args(&args(&["generate", &dir_s, "--corpus", "4", "--events", "500", "--seal"]))
        .unwrap())
    .unwrap();

    // Sealed corpus verifies clean — violations are *expected* by their
    // sidecars, so the exit is zero.
    let out = run(parse_args(&args(&["batch", &dir_s, "--seal-verify"])).unwrap()).unwrap();
    assert!(out.contains("seal ✓"), "{out}");
    assert!(out.contains("0 seal mismatch(es)"), "{out}");

    // Tamper with one sidecar: the batch run must fail and say where.
    let sidecar = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().ends_with(".expect"))
        .unwrap();
    let tampered = fs::read_to_string(&sidecar).unwrap().replace("events:", "events: 9");
    fs::write(&sidecar, tampered).unwrap();
    let err = run(parse_args(&args(&["batch", &dir_s, "--seal-verify"])).unwrap()).unwrap_err();
    assert!(err.contains("SEAL MISMATCH"), "{err}");
    assert!(err.contains("1 seal mismatch(es)"), "{err}");

    // A missing sidecar also fails the verification run.
    fs::remove_file(&sidecar).unwrap();
    let err = run(parse_args(&args(&["batch", &dir_s, "--seal-verify"])).unwrap()).unwrap_err();
    assert!(err.contains("SEAL MISMATCH"), "{err}");
}

#[test]
fn ingest_errors_fail_the_batch_but_not_other_traces() {
    let dir = temp_dir("errors");
    let dir_s = dir.to_string_lossy().into_owned();
    run(parse_args(&args(&["generate", &dir_s, "--corpus", "3", "--events", "400"])).unwrap())
        .unwrap();
    fs::write(dir.join("zz-bad.std"), "t1|begin|0\nt1|rel(m)|1\n").unwrap();
    let err = run(parse_args(&args(&["batch", &dir_s])).unwrap()).unwrap_err();
    assert!(err.contains("1 ingest error(s)"), "{err}");
    assert!(err.contains("not well-formed"), "{err}");
    assert!(err.contains("line 2"), "{err}");
}

/// The sealed-corpus batch-verify the scheduled CI job runs: regenerate
/// a 100-trace × 50k-event corpus deterministically, seal every trace,
/// then verify the whole corpus through the resident runtime. Takes
/// minutes in debug builds:
///
/// ```console
/// cargo test --release -p rapid-cli --test batch -- --ignored
/// ```
#[test]
#[ignore = "100×50k-event corpus; run with --release -- --ignored"]
fn sealed_hundred_trace_corpus_batch_verifies() {
    let dir = temp_dir("sealed-acceptance");
    let dir_s = dir.to_string_lossy().into_owned();
    let out = run(parse_args(&args(&[
        "generate", &dir_s, "--corpus", "100", "--events", "50000", "--seal",
    ]))
    .unwrap())
    .unwrap();
    assert!(out.contains("wrote 100 traces"), "{out}");
    assert!(out.contains("sealed 100 .expect sidecar(s)"), "{out}");

    let out = run(parse_args(&args(&["batch", &dir_s, "--seal-verify"])).unwrap()).unwrap();
    assert!(out.contains("traces: 100"), "{out}");
    assert!(out.contains("0 seal mismatch(es)"), "{out}");
    assert!(out.contains("0 ingest error(s)"), "{out}");
}
