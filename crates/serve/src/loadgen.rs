//! Closed-loop load generator: the benchmark half of the service.
//!
//! `rapid loadgen` drives a running `rapid serve` with N concurrent
//! connections, each streaming deterministic `workloads` traces
//! end-to-end and waiting for every verdict — closed loop, so the
//! measured latencies include the server's checking work, not just its
//! socket stack. Per-connection pacing (`--events-per-sec`, via
//! [`workloads::pace::Paced`]) turns it into a fixed-rate open-ish loop
//! when a target rate, rather than max throughput, is the question.
//!
//! Each connection checks [`LoadConfig::traces_per_connection`] traces
//! in sequence over one session, exercising the server's resident
//! reuse exactly like a long-lived monitoring client would. Traces are
//! seeded per (connection, iteration), so a run is deterministic in
//! content while no two sessions stream identical bytes. A slice of
//! traces (every [`VIOLATION_EVERY`]th) carries an injected conflict,
//! so verdict *pushes* — not just summaries — are exercised and timed.
//!
//! The aggregated [`LoadReport`] is what `rapid loadgen` prints and what
//! `docs/PERF.md`'s service section records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use tracelog::stream::EventSource;
use workloads::gen::{GenConfig, GenSource};
use workloads::pace::Paced;
use workloads::shapes;

use crate::client::{Client, ClientError};
use crate::protocol::StatsFrame;

/// Every Nth trace carries an injected violation (staggered across
/// connections), so mid-stream verdict pushes are part of every run's
/// sample set — even runs with a single trace per connection.
pub const VIOLATION_EVERY: usize = 4;

/// Load-generator parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent connections (= live sessions).
    pub connections: usize,
    /// Per-connection event rate; `0.0` = unpaced (max throughput).
    pub events_per_sec: f64,
    /// Workload shape: `convoy`, `fanout` or `nesting`.
    pub shape: String,
    /// Events per trace.
    pub events_per_trace: usize,
    /// Traces each connection streams over its session.
    pub traces_per_connection: usize,
    /// Events per `EVENTS` frame.
    pub batch_events: usize,
    /// Base seed; per-trace seeds derive from it.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            connections: 16,
            events_per_sec: 0.0,
            shape: "convoy".to_owned(),
            events_per_trace: 50_000,
            traces_per_connection: 4,
            batch_events: 4096,
            seed: 42,
        }
    }
}

/// Aggregated results of one load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Connections driven.
    pub connections: usize,
    /// Traces completed (summaries received).
    pub traces: u64,
    /// Events streamed and checked.
    pub events: u64,
    /// Traces on which at least one checker reported a violation.
    pub violations: u64,
    /// Mid-stream verdicts that arrived before the client sent `END`.
    pub verdicts_before_eof: u64,
    /// End-to-end wall time.
    pub wall: Duration,
    /// `events / wall` — aggregate checked-event throughput.
    pub events_per_sec: f64,
    /// Median verdict latency (summary and mid-stream pushes pooled).
    pub p50_latency: Duration,
    /// 99th-percentile verdict latency.
    pub p99_latency: Duration,
    /// Server stats sampled right after the run (retained bytes,
    /// evictions) — `None` if the final stats query failed.
    pub server: Option<StatsFrame>,
}

impl LoadReport {
    /// Renders the human-readable report `rapid loadgen` prints.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} connection(s), {} trace(s), {} events in {:.2?}",
            self.connections, self.traces, self.events, self.wall
        );
        let _ = writeln!(out, "  throughput:     {:.0} events/s", self.events_per_sec);
        let _ = writeln!(
            out,
            "  verdict latency: p50 {:.3} ms, p99 {:.3} ms",
            self.p50_latency.as_secs_f64() * 1e3,
            self.p99_latency.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            out,
            "  violations:     {} trace(s), {} verdict(s) pushed before EOF",
            self.violations, self.verdicts_before_eof
        );
        if let Some(s) = &self.server {
            let _ = writeln!(
                out,
                "  server:         {} session(s), {} retained bytes, {} eviction(s)",
                s.sessions, s.retained_bytes, s.evictions
            );
        }
        out
    }
}

/// The per-(connection, iteration) trace source: deterministic seed,
/// an injected violation on every [`VIOLATION_EVERY`]th iteration.
fn trace_source(
    config: &LoadConfig,
    connection: usize,
    iteration: usize,
) -> Result<Box<dyn EventSource>, String> {
    // Staggered by connection so short runs (one or two traces per
    // connection) still carry violations on a quarter of the fleet.
    let inject = (connection + iteration) % VIOLATION_EVERY == VIOLATION_EVERY - 1;
    let gen = GenConfig {
        seed: config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((connection as u64) << 20)
            .wrapping_add(iteration as u64),
        events: config.events_per_trace,
        ..GenConfig::default()
    };
    if inject {
        // The structural shapes are serializable by construction; the
        // violating traces come from the general generator, with the
        // conflict injected a third of the way in so the
        // push-before-EOF observable has room.
        let gen = GenConfig { violation_at: Some(1.0 / 3.0), ..gen };
        return Ok(Box::new(GenSource::new(&gen)));
    }
    shapes::source(&config.shape, &gen)
        .ok_or_else(|| format!("unknown shape `{}` (try convoy|fanout|nesting)", config.shape))
}

/// Runs the closed loop: `connections` client threads, each streaming
/// `traces_per_connection` traces over one session.
///
/// # Errors
///
/// Configuration errors (unknown shape, no connections) and total
/// connection failure report as display strings. Individual trace
/// failures (e.g. a mid-run eviction) are tolerated and counted — a
/// load generator must survive the server shedding load.
pub fn run(config: &LoadConfig) -> Result<LoadReport, String> {
    if config.connections == 0 {
        return Err("need at least one connection".to_owned());
    }
    if config.traces_per_connection == 0 {
        return Err("need at least one trace per connection".to_owned());
    }
    // Validate the shape before spawning anything.
    trace_source(config, 0, 0)?;

    let started = Instant::now();
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let traces = AtomicU64::new(0);
    let events = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let verdicts_before_eof = AtomicU64::new(0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    thread::scope(|s| {
        for connection in 0..config.connections {
            let latencies = &latencies;
            let traces = &traces;
            let events = &events;
            let violations = &violations;
            let verdicts_before_eof = &verdicts_before_eof;
            let errors = &errors;
            s.spawn(move || {
                let mut client = match Client::connect(&config.addr) {
                    Ok(c) => c,
                    Err(e) => {
                        errors.lock().unwrap().push(format!("connection {connection}: {e}"));
                        return;
                    }
                };
                for iteration in 0..config.traces_per_connection {
                    let mut source = match trace_source(config, connection, iteration) {
                        Ok(s) => s,
                        Err(e) => {
                            errors.lock().unwrap().push(e);
                            return;
                        }
                    };
                    let result = if config.events_per_sec > 0.0 {
                        let mut paced = Paced::new(source, config.events_per_sec);
                        client.check_source(&mut paced, config.batch_events)
                    } else {
                        client.check_source(&mut *source, config.batch_events)
                    };
                    match result {
                        Ok(result) => {
                            traces.fetch_add(1, Ordering::Relaxed);
                            events.fetch_add(result.events_sent, Ordering::Relaxed);
                            if result.any_violation() {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                            let mut lat = latencies.lock().unwrap();
                            lat.push(result.summary_latency);
                            for v in &result.verdicts {
                                lat.push(v.latency);
                                if v.before_eof {
                                    verdicts_before_eof.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(ClientError::Server(e)) => {
                            // Eviction / malformed: this session is done,
                            // the run carries on — count and reconnect.
                            errors.lock().unwrap().push(format!(
                                "connection {connection}: [{}] {}",
                                e.code, e.message
                            ));
                            match Client::connect(&config.addr) {
                                Ok(c) => client = c,
                                Err(_) => return,
                            }
                        }
                        Err(e) => {
                            errors.lock().unwrap().push(format!("connection {connection}: {e}"));
                            return;
                        }
                    }
                }
            });
        }
    });

    let traces = traces.into_inner();
    if traces == 0 {
        let errs = errors.into_inner().unwrap();
        return Err(format!(
            "no trace completed; first error: {}",
            errs.first().map_or("none recorded", String::as_str)
        ));
    }
    let wall = started.elapsed();
    let events = events.into_inner();

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    let pick = |q: f64| {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let i = ((lat.len() as f64 * q) as usize).min(lat.len() - 1);
        lat[i]
    };
    let (p50, p99) = (pick(0.50), pick(0.99));

    // Final stats snapshot over a fresh connection.
    let server = Client::connect(&config.addr).and_then(|mut c| c.stats()).ok();

    #[allow(clippy::cast_precision_loss)]
    Ok(LoadReport {
        connections: config.connections,
        traces,
        events,
        violations: violations.into_inner(),
        verdicts_before_eof: verdicts_before_eof.into_inner(),
        wall,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        p50_latency: p50,
        p99_latency: p99,
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_iterations_use_the_generator() {
        let config = LoadConfig { events_per_trace: 3000, ..LoadConfig::default() };
        // Iteration VIOLATION_EVERY-1 must inject a violation.
        let mut source = trace_source(&config, 0, VIOLATION_EVERY - 1).unwrap();
        let trace = tracelog::stream::collect_trace(&mut *source).unwrap();
        let outcome =
            aerodrome::run_checker(&mut aerodrome::optimized::OptimizedChecker::new(), &trace);
        assert!(outcome.is_violation(), "violation iteration produced a serializable trace");
    }

    #[test]
    fn unknown_shape_is_rejected_up_front() {
        let config = LoadConfig { shape: "zigzag".into(), ..LoadConfig::default() };
        assert!(run(&config).unwrap_err().contains("unknown shape"));
    }
}
