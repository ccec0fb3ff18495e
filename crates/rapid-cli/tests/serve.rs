//! Service-vs-offline differential tests and the `rapid serve` /
//! `rapid loadgen` binary round-trip.
//!
//! The tentpole invariant: a trace streamed over the socket produces
//! verdicts **bit-identical** to `rapid check`/`rapid compare` on the
//! same `.std` file — the wire summary's canonical seal text equals the
//! offline [`rapid_cli::compute_seal_with`] text, for every paper trace
//! and workload shape, across `--jobs 1/2/4` and differing batch sizes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use serve::client::Client;
use serve::server::{ServeConfig, Server};
use tracelog::{paper_traces, write_trace, Trace};
use workloads::gen::GenConfig;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rapid-serve-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The differential corpus: the four paper traces plus every workload
/// shape and a violating generated trace, written as real `.std` files.
fn write_corpus(dir: &Path) -> Vec<PathBuf> {
    let mut traces: Vec<(String, Trace)> = vec![
        ("rho1".into(), paper_traces::rho1()),
        ("rho2".into(), paper_traces::rho2()),
        ("rho3".into(), paper_traces::rho3()),
        ("rho4".into(), paper_traces::rho4()),
    ];
    let gen = GenConfig { events: 4000, ..GenConfig::default() };
    for shape in ["convoy", "fanout", "nesting"] {
        let mut source = workloads::shapes::source(shape, &gen).unwrap();
        let trace = tracelog::stream::collect_trace(&mut *source).unwrap();
        traces.push((shape.to_owned(), trace));
    }
    let violating = GenConfig { violation_at: Some(0.5), ..gen };
    traces.push(("violating".into(), workloads::generate(&violating)));

    traces
        .into_iter()
        .map(|(name, trace)| {
            let path = dir.join(format!("{name}.std"));
            std::fs::write(&path, write_trace(&trace)).unwrap();
            path
        })
        .collect()
}

#[test]
fn socket_verdicts_are_bit_identical_to_offline_seals() {
    let dir = temp_dir("differential");
    let corpus = write_corpus(&dir);
    for (jobs, batch) in [(1usize, 512usize), (2, 4096), (4, 1024)] {
        let config = ServeConfig { jobs, ..ServeConfig::default() };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let (handle, join) = server.spawn().unwrap();
        {
            let mut client = Client::connect(handle.local_addr()).unwrap();
            for path in &corpus {
                let path_s = path.to_str().unwrap();
                // Offline reference: the exact text `rapid generate
                // --seal` would persist for this file.
                let offline = rapid_cli::compute_seal_with(path_s, jobs, Some(batch)).unwrap();
                let mut source = rapid_cli::open_source(path_s).unwrap();
                let result = client.check_source(&mut source, batch).unwrap();
                assert_eq!(
                    result.summary.seal_text(),
                    offline,
                    "socket and offline verdicts diverge on {path_s} (jobs {jobs}, batch {batch})"
                );
            }
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}

/// Kills the server child even when the test panics.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn rapid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rapid"))
}

#[test]
fn serve_and_loadgen_binaries_round_trip() {
    let mut child = KillOnDrop(
        rapid()
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rapid serve"),
    );
    // The server prints its bound (ephemeral) address before blocking.
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("rapid serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_owned();

    let out = rapid()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--traces",
            "4",
            "--events",
            "2000",
            "--events-per-sec",
            "20000",
            "--batch",
            "256",
        ])
        .output()
        .expect("spawn rapid loadgen");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "loadgen failed: {text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("loadgen: 2 connection(s), 8 trace(s)"), "{text}");
    assert!(text.contains("verdict latency: p50"), "{text}");
}

#[test]
fn serve_rejects_zero_jobs_with_usage_error() {
    let out = rapid().args(["serve", "--jobs", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs must be positive"), "{err}");
}
