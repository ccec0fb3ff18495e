//! End-to-end service tests: real sockets, real worker threads.
//!
//! Everything here runs against a [`Server`] spawned on an ephemeral
//! port — the same code path `rapid serve` runs — with [`Client`] as
//! the peer. The invariants under test are the tentpole claims:
//! verdict fidelity vs the offline checkers, online push before EOF,
//! per-connection error isolation, the retained-memory budget, and the
//! warm-session zero-allocation probe, now across a wire.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use aerodrome::optimized::OptimizedChecker;
use aerodrome::run_checker;
use serve::client::Client;
use serve::protocol::ErrorCode;
use serve::server::{ServeConfig, Server, ServerHandle};
use serve::ClientError;
use tracelog::paper_traces;
use tracelog::stream::OwnedTraceSource;
use workloads::gen::{GenConfig, GenSource};

fn spawn_server(
    config: ServeConfig,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    server.spawn().expect("spawn server")
}

fn small_config(jobs: usize) -> ServeConfig {
    ServeConfig { jobs, ..ServeConfig::default() }
}

#[test]
fn verdict_roundtrip_matches_offline_checkers() {
    let (handle, join) = spawn_server(small_config(2));
    {
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        for trace in
            [paper_traces::rho1(), paper_traces::rho2(), paper_traces::rho3(), paper_traces::rho4()]
        {
            let offline = run_checker(&mut OptimizedChecker::new(), &trace);
            let mut source = OwnedTraceSource::new(trace);
            let result = client.check_source(&mut source, 512).expect("check trace");
            // Panel order: basic, readopt, optimized, velodrome.
            let optimized = &result.summary.runs[2];
            assert_eq!(optimized.name, "aerodrome");
            match offline.violation() {
                None => assert_eq!(optimized.violation, None),
                Some(v) => assert_eq!(optimized.violation, Some(v.event.index() as u64)),
            }
        }
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn violations_push_before_eof() {
    let (handle, join) = spawn_server(small_config(1));
    {
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        // 20k events with the conflict injected 10% in, paced well
        // below what the server can check: the verdict must come back
        // while the client is still streaming the remaining 90%. (An
        // unpaced loopback client can park an entire small trace in
        // kernel buffers before the server touches frame one, which
        // would make "before EOF" vacuous, not false.)
        let cfg = GenConfig { events: 20_000, violation_at: Some(0.1), ..GenConfig::default() };
        let mut source = workloads::Paced::new(GenSource::new(&cfg), 100_000.0);
        let result = client.check_source(&mut source, 512).expect("check trace");
        assert!(result.any_violation(), "no checker fired on an injected violation");
        assert!(
            result.verdicts.iter().any(|v| v.before_eof),
            "no verdict arrived before the stream's end: {:?}",
            result.verdicts.iter().map(|v| v.before_eof).collect::<Vec<_>>()
        );
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_client_poisons_only_its_own_session() {
    let (handle, join) = spawn_server(small_config(1));
    {
        // Client A completes a trace before, B poisons itself, then A
        // checks another trace after — on the SAME worker (jobs = 1),
        // with verdicts identical to a clean server.
        let mut a = Client::connect(handle.local_addr()).expect("connect a");
        let before = a
            .check_source(&mut OwnedTraceSource::new(paper_traces::rho2()), 512)
            .expect("trace before poison");

        let mut bad = TcpStream::connect(handle.local_addr()).expect("connect bad");
        bad.write_all(&[0xFF; 32]).expect("write garbage");
        // The server must hang up on the bad client.
        bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        use std::io::Read as _;
        let _ = bad.read_to_end(&mut buf);

        let after = a
            .check_source(&mut OwnedTraceSource::new(paper_traces::rho2()), 512)
            .expect("trace after poison");
        assert_eq!(before.summary.seal_text(), after.summary.seal_text());
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn ill_formed_trace_reports_event_attribution() {
    let (handle, join) = spawn_server(small_config(1));
    {
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        // Build a trace container bypassing validation: release with no
        // acquire at event 1.
        let mut tb = tracelog::TraceBuilder::new();
        let t1 = tb.thread("t1");
        let m = tb.lock("m");
        tb.begin(t1).release(t1, m);
        let mut source = OwnedTraceSource::new(tb.finish());
        let err = client.check_source(&mut source, 512).expect_err("must poison");
        match err {
            ClientError::Server(e) => {
                assert_eq!(e.code, ErrorCode::Malformed);
                assert!(e.message.contains("event 1"), "attribution missing: {}", e.message);
            }
            other => panic!("expected server error, got {other}"),
        }
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn warm_session_checks_across_traces_without_clock_allocs() {
    let (handle, join) = spawn_server(small_config(1));
    {
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let cfg = GenConfig { events: 20_000, ..GenConfig::default() };
        for round in 0..3 {
            let mut source = GenSource::new(&cfg);
            let result = client.check_source(&mut source, 1024).expect("check trace");
            if round > 0 {
                for run in &result.summary.runs {
                    assert_eq!(
                        run.clock_allocs, 0,
                        "round {round}: `{}` allocated clock buffers on a warm session",
                        run.name
                    );
                }
            }
        }
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn eviction_keeps_the_server_under_budget_and_sessions_recover() {
    // A budget small enough that one warm session cannot stay under it:
    // every End triggers an idle eviction (transparent to the client).
    let config = ServeConfig { jobs: 1, max_retained_bytes: 1024, ..ServeConfig::default() };
    let (handle, join) = spawn_server(config);
    {
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let cfg = GenConfig { events: 20_000, ..GenConfig::default() };
        let mut seals = Vec::new();
        for _ in 0..3 {
            let mut source = GenSource::new(&cfg);
            let result =
                client.check_source(&mut source, 1024).expect("evicted session must recover");
            seals.push(result.summary.seal_text());
        }
        // Evicted-and-readmitted sessions produce identical verdicts.
        assert!(seals.windows(2).all(|w| w[0] == w[1]), "verdicts drifted across evictions");

        let stats = client.stats().expect("stats");
        assert!(stats.evictions > 0, "tiny budget never triggered eviction");
        assert!(
            stats.retained_bytes <= 1024,
            "retained {} bytes exceeds the 1024-byte budget between traces",
            stats.retained_bytes
        );
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn sixteen_concurrent_sessions_all_get_correct_verdicts() {
    let (handle, join) = spawn_server(small_config(4));
    let addr = handle.local_addr();
    std::thread::scope(|s| {
        for i in 0..16 {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let cfg = GenConfig {
                    seed: 1000 + i,
                    events: 10_000,
                    violation_at: (i % 2 == 0).then_some(0.5),
                    ..GenConfig::default()
                };
                // Offline reference on exactly the same event stream.
                let trace = workloads::generate(&cfg);
                let offline = run_checker(&mut OptimizedChecker::new(), &trace);
                let mut source = GenSource::new(&cfg);
                let result = client.check_source(&mut source, 2048).expect("check trace");
                let optimized = &result.summary.runs[2];
                match offline.violation() {
                    None => assert_eq!(optimized.violation, None, "conn {i}"),
                    Some(v) => {
                        assert_eq!(optimized.violation, Some(v.event.index() as u64), "conn {i}");
                    }
                }
            });
        }
    });
    assert!(handle.stats().evictions == 0, "default budget must not evict this load");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn loadgen_closed_loop_smoke() {
    let (handle, join) = spawn_server(small_config(2));
    {
        let config = serve::LoadConfig {
            addr: handle.local_addr().to_string(),
            connections: 4,
            traces_per_connection: serve::loadgen::VIOLATION_EVERY,
            events_per_trace: 5_000,
            // Small frames, paced well below checking speed — even a
            // debug-build server must finish a frame's checking inside
            // the pacing gap for the push to be observable before EOF
            // (see `violations_push_before_eof`).
            events_per_sec: 20_000.0,
            batch_events: 512,
            ..serve::LoadConfig::default()
        };
        let report = serve::loadgen::run(&config).expect("loadgen run");
        assert_eq!(report.traces, 4 * serve::loadgen::VIOLATION_EVERY as u64);
        assert_eq!(report.violations, 4, "one injected violation per connection");
        assert!(report.verdicts_before_eof >= 1, "no verdict pushed before EOF under load");
        assert!(report.events >= 4 * 4 * 5_000 - 4 * 4 * 100, "events under-counted");
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The scheduled closed-loop load run: 32 connections × 50k events,
/// the acceptance-criteria scale. `--ignored` keeps it off the gating
/// path; CI runs it nightly (see `.github/workflows/ci.yml`).
#[test]
#[ignore = "heavy: scheduled-CI closed-loop load run"]
fn closed_loop_32_connections() {
    let (handle, join) = spawn_server(small_config(4));
    {
        let config = serve::LoadConfig {
            addr: handle.local_addr().to_string(),
            connections: 32,
            traces_per_connection: 2,
            events_per_trace: 50_000,
            // Aggregate demand (32 × 10k/s) sits well under the 4-worker
            // release-build checking capacity, so verdict pushes land
            // while their traces are still streaming.
            events_per_sec: 10_000.0,
            ..serve::LoadConfig::default()
        };
        let report = serve::loadgen::run(&config).expect("loadgen run");
        assert_eq!(report.traces, 64);
        assert!(report.verdicts_before_eof >= 1);
        assert!(report.events_per_sec > 0.0);
        let stats = handle.stats();
        assert!(
            stats.retained_bytes <= serve::DEFAULT_MAX_RETAINED_BYTES,
            "retained {} over default budget",
            stats.retained_bytes
        );
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}
