//! End-to-end tests of the `rapid` binary itself (spawned as a process),
//! mirroring the artifact workflow of Appendix D: generate a trace log,
//! compute metainfo, run both analyses, compare verdicts.

use std::path::PathBuf;
use std::process::Command;

fn rapid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rapid"))
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rapid-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_ok(args: &[&str]) -> String {
    let out = rapid().args(args).output().expect("spawn rapid");
    assert!(
        out.status.success(),
        "rapid {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn help_prints_usage() {
    let text = run_ok(&["help"]);
    assert!(text.contains("USAGE"));
    assert!(text.contains("metainfo"));
    // No arguments behaves like help.
    let text = run_ok(&[]);
    assert!(text.contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let out = rapid().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn artifact_workflow_generate_metainfo_analyze() {
    let path = tmpfile("wf.std");
    let path_s = path.to_str().unwrap();

    let text = run_ok(&[
        "generate",
        path_s,
        "--events",
        "2000",
        "--threads",
        "5",
        "--seed",
        "7",
        "--violation-at",
        "0.5",
    ]);
    assert!(text.contains("wrote"));
    assert!(path.exists());

    let info = run_ok(&["metainfo", path_s]);
    assert!(info.contains("events:"));
    assert!(info.contains("threads:      5"));

    let aero = run_ok(&["aerodrome", path_s]);
    assert!(aero.contains('✗'), "{aero}");
    let aero_basic = run_ok(&["aerodrome", path_s, "--algorithm", "basic"]);
    assert!(aero_basic.contains('✗'));

    let velo = run_ok(&["velodrome", path_s]);
    assert!(velo.contains('✗'));
    assert!(velo.contains("graph:"));
    let velo_no_gc = run_ok(&["velodrome", path_s, "--no-gc"]);
    assert!(velo_no_gc.contains('✗'));

    // `check` is the streaming default path (aerodrome optimized).
    let check = run_ok(&["check", path_s]);
    assert!(check.contains('✗'));

    // The log is well-formed and closed.
    let val = run_ok(&["validate", path_s]);
    assert!(val.contains("well-formed"), "{val}");
    assert!(val.contains("closed"), "{val}");
}

#[test]
fn ill_formed_log_fails_validation_but_analyzes_with_opt_out() {
    let path = tmpfile("ill.std");
    let path_s = path.to_str().unwrap();
    std::fs::write(&path, "t1|begin|0\nt1|rel(m)|1\nt1|end|2\n").unwrap();

    let out = rapid().args(["validate", path_s]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("not well-formed"), "{err}");
    assert!(err.contains("line 2"), "{err}");

    // Analyses reject it by default, analyse it with --no-validate.
    let out = rapid().args(["aerodrome", path_s]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = run_ok(&["aerodrome", path_s, "--no-validate"]);
    assert!(text.contains("analysis:"), "{text}");
}

#[test]
fn generate_shapes_and_check_them() {
    for name in ["convoy", "fanout"] {
        let path = tmpfile(&format!("{name}.std"));
        let path_s = path.to_str().unwrap();
        let text = run_ok(&["generate", path_s, "--profile", name, "--events", "2000"]);
        assert!(text.contains("wrote"), "{text}");
        let check = run_ok(&["check", path_s]);
        assert!(check.contains('✓'), "{name}: {check}");
    }
}

#[test]
fn compare_runs_every_checker_in_one_pass() {
    let path = tmpfile("cmp.std");
    let path_s = path.to_str().unwrap();
    run_ok(&["generate", path_s, "--events", "3000", "--seed", "11", "--violation-at", "0.5"]);

    let text = run_ok(&["compare", path_s, "--jobs", "2"]);
    for checker in ["aerodrome-basic", "aerodrome-readopt", "aerodrome", "velodrome"] {
        assert!(text.contains(checker), "{checker} row missing:\n{text}");
    }
    assert!(text.contains("single-pass comparison"), "{text}");
    assert!(text.contains("workers: 2"), "{text}");
    assert!(text.contains("consensus: ✗"), "{text}");
    assert!(text.contains("first violation"), "{text}");

    // Serializable input: consensus flips, verdict column is clean.
    let clean = tmpfile("cmp_clean.std");
    let clean_s = clean.to_str().unwrap();
    run_ok(&["generate", clean_s, "--profile", "convoy", "--events", "3000"]);
    let text = run_ok(&["compare", clean_s, "--jobs", "4", "--batch", "512"]);
    assert!(text.contains("consensus: ✓"), "{text}");

    // Bad flags fail with usage.
    let out = rapid().args(["compare", path_s, "--batch", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn generate_seal_writes_sidecar() {
    let path = tmpfile("sealed.std");
    let path_s = path.to_str().unwrap();
    let text = run_ok(&["generate", path_s, "--events", "2000", "--seal", "--jobs", "2"]);
    assert!(text.contains("sealed"), "{text}");
    let sidecar = std::fs::read_to_string(format!("{path_s}.expect")).unwrap();
    assert!(sidecar.contains("events: "), "{sidecar}");
    assert!(sidecar.contains("velodrome: "), "{sidecar}");
}

#[test]
fn serializable_trace_reports_clean_everywhere() {
    let path = tmpfile("clean.std");
    let path_s = path.to_str().unwrap();
    run_ok(&["generate", path_s, "--events", "1500", "--seed", "3"]);
    for args in [vec!["aerodrome", path_s], vec!["velodrome", path_s], vec!["causal", path_s]] {
        let text = run_ok(&args);
        assert!(text.contains('✓'), "{args:?}: {text}");
    }
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let out = rapid().args(["aerodrome", "/nonexistent/x.std"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn generate_with_profile() {
    let path = tmpfile("philo.std");
    let path_s = path.to_str().unwrap();
    let text = run_ok(&["generate", path_s, "--profile", "philo"]);
    assert!(text.contains("wrote"));
    let info = run_ok(&["metainfo", path_s]);
    assert!(info.contains("transactions: 0"), "{info}");
}
