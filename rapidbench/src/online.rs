//! The `serve-online` driver: two connections to a running `rapid serve`,
//! built on `serve::client`, in two phases.
//!
//! * **Saturating, closed loop.** Each connection streams convoy traces
//!   back to back, the next one as soon as the previous SUMMARY arrives,
//!   until the phase's time is up. Its events per second are the
//!   workload's throughput.
//! * **Paced, open loop.** Each connection follows a fixed schedule:
//!   event `k` of the connection is due at `t0 + k / rate`, and a frame
//!   leaves once its last event is due. The schedule never waits for the
//!   server; a late generator sends at once and its lateness is recorded.
//!   Every verdict is timed from when its deciding event was due: the
//!   violating event for a mid-stream push, the last event for the
//!   SUMMARY that follows `END`.
//!
//! Every SUMMARY must equal the trace's offline seal, computed in setup.

use std::path::Path;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use aerodrome_suite::pipeline::validate_batch;
use serve::client::{Client, TraceResult};
use serve::StatsFrame;
use tracelog::binfmt::MmapSource;
use tracelog::stream::{
    collect_trace, EventBatch, EventSource, SourceError, SourceNames, TraceSource,
};
use tracelog::{wire, Trace, Validator};

use crate::inputs::read_expect;
use crate::timed::{Json, Panel, TimedSource, Totals, ALL};

pub const CONNECTIONS: usize = 2;
/// Events per EVENTS frame in the saturating phase (`rapid loadgen`'s
/// default).
pub const SAT_BATCH: usize = 4096;
/// Per-connection rate of the paced phase: the two connections together
/// offer about a fifth of what the saturating phase reaches even when the
/// shared host runs slow, so the paced phase never queues.
pub const PACED_RATE: f64 = 100_000.0;
/// Events per frame in the paced phase: 0.64 ms of schedule, so batching
/// adds little to the verdict latency.
pub const PACED_BATCH: usize = 64;

struct PoolTrace {
    name: String,
    violating: bool,
    trace: Trace,
    seal: String,
}

struct Pool {
    sat: Vec<PoolTrace>,
    paced: Vec<PoolTrace>,
}

fn load_pool(dir: &Path) -> Result<Pool, String> {
    let mut pool = Pool { sat: Vec::new(), paced: Vec::new() };
    for e in read_expect(dir)? {
        let path = dir.join(&e.path);
        let mut source =
            MmapSource::open(&path).map_err(|err| format!("{}: {err}", path.display()))?;
        let trace =
            collect_trace(&mut source).map_err(|err| format!("{}: {err}", path.display()))?;
        let seal_path = format!("{}.seal", path.display());
        let seal =
            std::fs::read_to_string(&seal_path).map_err(|err| format!("{seal_path}: {err}"))?;
        let t = PoolTrace { name: e.path, violating: e.violating, trace, seal };
        if e.role == "sat" {
            pool.sat.push(t);
        } else {
            pool.paced.push(t);
        }
    }
    Ok(pool)
}

impl Pool {
    fn sat_trace(&self, conn: usize, i: usize) -> usize {
        (conn + i) % self.sat.len()
    }

    /// Every fourth paced trace violates, staggered across connections
    /// as `rapid loadgen` staggers them.
    fn paced_trace(&self, conn: usize, i: usize) -> usize {
        let (clean, dirty): (Vec<usize>, Vec<usize>) =
            (0..self.paced.len()).partition(|&t| !self.paced[t].violating);
        if (conn + i) % 4 == 3 {
            dirty[((conn + i) / 4) % dirty.len()]
        } else {
            clean[(conn * 3 + i) % clean.len()]
        }
    }
}

/// A trace replayed on a connection's open-loop schedule.
struct Scheduled<'a> {
    inner: TraceSource<'a>,
    t0: Instant,
    rate: f64,
    /// Schedule index of this trace's first event.
    base: u64,
    released: u64,
    /// `(end event index, instant handed to the client)` per frame.
    frames: Vec<(u64, Instant)>,
    lags: Vec<f64>,
    end_handed: Option<Instant>,
}

impl Scheduled<'_> {
    fn due(&self, index: u64) -> Instant {
        self.t0 + Duration::from_secs_f64(index as f64 / self.rate)
    }
}

impl EventSource for Scheduled<'_> {
    fn next_event(&mut self) -> Result<Option<tracelog::Event>, SourceError> {
        unreachable!("the client pulls whole batches")
    }

    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        let n = self.inner.next_batch(batch)?;
        if n == 0 {
            self.end_handed = Some(Instant::now());
            return Ok(0);
        }
        self.released += n as u64;
        let due = self.due(self.base + self.released - 1);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let handed = Instant::now();
        self.lags.push(handed.saturating_duration_since(due).as_secs_f64());
        self.frames.push((self.released, handed));
        Ok(n)
    }

    fn names(&self) -> SourceNames<'_> {
        self.inner.names()
    }
}

/// What one connection saw in one phase.
#[derive(Default)]
struct ConnRun {
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
    events: u64,
    /// Events per second of each trace completed.
    rates: Vec<f64>,
    /// Pool index of every trace completed, in order.
    sent: Vec<usize>,
    latencies: Vec<f64>,
    injected: u64,
    pushed_before_end: u64,
    lags: Vec<f64>,
    send_gaps: Duration,
    stats: Option<StatsFrame>,
}

impl ConnRun {
    /// Checks a finished trace against its seal; returns whether it passed.
    fn record(
        &mut self,
        pool: &[PoolTrace],
        index: usize,
        result: Result<TraceResult, String>,
    ) -> Option<TraceResult> {
        self.attempted += 1;
        let t = &pool[index];
        match result {
            Ok(r) if r.summary.seal_text() == t.seal => {
                self.events += r.events_sent;
                self.rates.push(r.events_sent as f64 / r.wall.as_secs_f64());
                self.sent.push(index);
                Some(r)
            }
            Ok(r) => {
                self.failed += 1;
                self.faults.push(format!(
                    "{}: SUMMARY\n{}differs from the offline seal\n{}",
                    t.name,
                    r.summary.seal_text(),
                    t.seal
                ));
                None
            }
            Err(e) => {
                self.failed += 1;
                self.faults.push(format!("{}: {e}", t.name));
                None
            }
        }
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// One trace per connection, unpaced, so the server's workers and their
/// panels are warm before anything is timed.
pub fn warm(addr: &str, dir: &Path) -> Result<String, String> {
    let pool = load_pool(dir)?;
    for conn in 0..CONNECTIONS {
        let mut client = connect(addr)?;
        for t in [&pool.sat[pool.sat_trace(conn, 0)], &pool.paced[pool.paced_trace(conn, 3)]] {
            let r =
                client.check_source(&mut t.trace.stream(), SAT_BATCH).map_err(|e| e.to_string())?;
            if r.summary.seal_text() != t.seal {
                return Err(format!("{}: warm-up SUMMARY differs from the offline seal", t.name));
            }
        }
    }
    Ok("{}".to_owned())
}

fn saturating(
    addr: &str,
    pool: &Pool,
    conn: usize,
    barrier: &Barrier,
    seconds: f64,
) -> Result<ConnRun, String> {
    let client = connect(addr);
    barrier.wait();
    let (mut client, mut run) = (client?, ConnRun::default());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let index = pool.sat_trace(conn, i);
        let mut source = TimedSource::new(pool.sat[index].trace.stream());
        let result = client.check_source(&mut source, SAT_BATCH).map_err(|e| e.to_string());
        run.send_gaps += source.gaps;
        if run.record(&pool.sat, index, result).is_none() {
            client = connect(addr)?;
        }
        i += 1;
    }
    Ok(run)
}

fn paced(
    addr: &str,
    pool: &Pool,
    conn: usize,
    barrier: &Barrier,
    t0: Instant,
    seconds: f64,
) -> Result<ConnRun, String> {
    let client = connect(addr);
    barrier.wait();
    let (mut client, mut run) = (client?, ConnRun::default());
    let mut base = 0u64;
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut i = 0;
    loop {
        let index = pool.paced_trace(conn, i);
        let t = &pool.paced[index];
        let mut source = Scheduled {
            inner: t.trace.stream(),
            t0,
            rate: PACED_RATE,
            base,
            released: 0,
            frames: Vec::new(),
            lags: Vec::new(),
            end_handed: None,
        };
        if source.due(base) > end {
            break;
        }
        let result = client.check_source(&mut source, PACED_BATCH).map_err(|e| e.to_string());
        run.lags.extend(&source.lags);
        if let Some(r) = run.record(&pool.paced, index, result) {
            // A violating trace's verdict reaches the user with its first
            // push; the other checkers' pushes repeat it. Receipt ≈ when
            // the frame was handed to the client plus the client's own
            // flush→receipt latency.
            if let Some(v) = r.verdicts.first() {
                let e = v.verdict.event;
                let handed =
                    source.frames.iter().find(|(end, _)| e < *end).map_or(source.t0, |f| f.1);
                let due = source.due(base + e);
                run.latencies
                    .push((handed + v.latency).saturating_duration_since(due).as_secs_f64());
            }
            let end_handed = source.end_handed.expect("END follows the last frame");
            let due_end = source.due(base + r.events_sent.saturating_sub(1));
            run.latencies.push(
                (end_handed + r.summary_latency).saturating_duration_since(due_end).as_secs_f64(),
            );
            if t.violating {
                run.injected += 1;
                run.pushed_before_end += u64::from(r.verdicts.iter().any(|v| v.before_eof));
            }
        } else {
            client = connect(addr)?;
        }
        base += t.trace.len() as u64;
        i += 1;
    }
    if conn == 0 {
        run.stats = Some(client.stats().map_err(|e| format!("STATS: {e}"))?);
    }
    Ok(run)
}

fn phase<F>(f: F) -> Result<(Vec<ConnRun>, Duration), String>
where
    F: Fn(usize, &Barrier) -> Result<ConnRun, String> + Sync,
{
    // The driver joins the barrier too, so the wall starts when every
    // connection is open.
    let barrier = Barrier::new(CONNECTIONS + 1);
    thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (f, barrier) = (&f, &barrier);
                s.spawn(move || f(c, barrier))
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let runs: Result<Vec<ConnRun>, String> =
            handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect();
        Ok((runs?, started.elapsed()))
    })
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Runs both phases and prints throughput, verdict latencies and, with
/// `traced`, the per-layer metrics.
pub fn run(
    addr: &str,
    dir: &Path,
    sat_seconds: f64,
    paced_seconds: f64,
    traced: bool,
) -> Result<String, String> {
    let pool = load_pool(dir)?;
    let (sat, sat_wall) = phase(|c, b| saturating(addr, &pool, c, b, sat_seconds))?;
    // The schedule starts a little after the connections open; the
    // connections are independent users, so their frames are offset by
    // half a frame rather than sent in lockstep.
    let t0 = Instant::now() + Duration::from_millis(50);
    let offset = Duration::from_secs_f64(PACED_BATCH as f64 / PACED_RATE / CONNECTIONS as f64);
    let (paced_runs, _) =
        phase(|c, b| paced(addr, &pool, c, b, t0 + offset * c as u32, paced_seconds))?;

    let all = || sat.iter().chain(&paced_runs);
    let sat_events: u64 = sat.iter().map(|r| r.events).sum();
    let mut out = Json::default();
    out.int("attempted", all().map(|r| r.attempted).sum());
    out.int("failed", all().map(|r| r.failed).sum());
    out.int("sat_events", sat_events);
    // Throughput: the connections' median per-trace rate, summed; a
    // median keeps a short stall of the shared host from moving it.
    let mut rates: Vec<f64> = sat.iter().flat_map(|r| r.rates.iter().copied()).collect();
    rates.sort_by(f64::total_cmp);
    out.num("events_per_sec", quantile(&rates, 0.5) * CONNECTIONS as f64);
    let latencies: Vec<f64> =
        paced_runs.iter().flat_map(|r| r.latencies.iter().map(|s| s * 1e3)).collect();
    out.list("latencies_ms", &latencies);
    out.int("injected", paced_runs.iter().map(|r| r.injected).sum());
    out.int("pushed_before_end", paced_runs.iter().map(|r| r.pushed_before_end).sum());

    // Generator lag: how late frames left against the schedule. A
    // backlog that grows shows as a late tail far above the early lag.
    let mut lag_growth: f64 = 0.0;
    for r in &paced_runs {
        let n = r.lags.len();
        if n >= 20 {
            let mut head: Vec<f64> = r.lags[..n / 10].to_vec();
            let mut tail: Vec<f64> = r.lags[n - n / 10..].to_vec();
            head.sort_by(f64::total_cmp);
            tail.sort_by(f64::total_cmp);
            lag_growth = lag_growth.max(quantile(&tail, 0.5) - quantile(&head, 0.5));
        }
    }
    out.num("lag_growth_ms", lag_growth * 1e3);
    out.bool("backlog_growing", lag_growth > 0.005);
    let faults: Vec<String> = all().flat_map(|r| r.faults.iter().cloned()).collect();
    out.strings("faults", &faults);

    if traced {
        layers(&pool, &sat, &paced_runs, sat_wall, &mut out);
    }
    Ok(out.render())
}

/// The traced run's per-layer metrics: server stats, client send time
/// and generator lag, then, for the saturating phase whose wall they are
/// set against, its frames replayed through the wire codec and a
/// standalone panel pass per distinct trace weighted by how often it was
/// sent.
fn layers(pool: &Pool, sat: &[ConnRun], paced: &[ConnRun], sat_wall: Duration, out: &mut Json) {
    let stats = paced.iter().find_map(|r| r.stats.as_ref());
    out.int("serve.sessions", stats.map_or(0, |s| u64::from(s.sessions)));
    out.int("serve.retained_bytes", stats.map_or(0, |s| s.retained_bytes));
    out.int("serve.evictions", stats.map_or(0, |s| s.evictions));
    out.secs("serve.client.send_blocked_s", sat.iter().map(|r| r.send_gaps).sum());
    let lag_max = paced.iter().flat_map(|r| &r.lags).fold(0.0_f64, |a, &b| a.max(b));
    out.num("serve.generator_lag_ms", lag_max * 1e3);
    let injected: u64 = paced.iter().map(|r| r.injected).sum();
    let pushed: u64 = paced.iter().map(|r| r.pushed_before_end).sum();
    out.num(
        "serve.pushed_before_end_ratio",
        if injected == 0 { 0.0 } else { pushed as f64 / injected as f64 },
    );

    let mut totals = Totals::default();
    let (mut encode, mut decode, mut validate) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut panel = Panel::new();
    let mut validator = Validator::new();
    // Per connection: the server-side work of its traces, which one
    // worker's session does in sequence.
    let mut conn_work = vec![Duration::ZERO; sat.len()];
    for (index, t) in pool.sat.iter().enumerate() {
        let sends: Vec<u32> =
            sat.iter().map(|r| r.sent.iter().filter(|&&i| i == index).count() as u32).collect();
        let times: u32 = sends.iter().sum();
        if times == 0 {
            continue;
        }
        let (mut enc, mut dec, mut val) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut payload = Vec::new();
        let mut batch = EventBatch::with_target(SAT_BATCH);
        validator.reset();
        for chunk in t.trace.events().chunks(SAT_BATCH) {
            payload.clear();
            let start = Instant::now();
            wire::encode_events(chunk, &mut payload);
            enc += start.elapsed();
            batch.clear();
            let start = Instant::now();
            wire::decode_events(&payload, &mut batch).expect("replayed frames decode");
            dec += start.elapsed();
            let start = Instant::now();
            let bad = validate_batch(&mut validator, &mut batch);
            val += start.elapsed();
            assert!(bad.is_none(), "pool traces are well-formed");
            panel.feed(&batch, &ALL);
        }
        let server_work = dec + val + panel.busy.iter().sum::<Duration>();
        for (work, &n) in conn_work.iter_mut().zip(&sends) {
            *work += server_work * n;
        }
        encode += enc * times;
        decode += dec * times;
        validate += val * times;
        panel.finish_trace(&mut totals, &ALL, u64::from(times));
    }
    out.secs("tracelog.wire.encode.busy_s", encode);
    out.secs("tracelog.wire.decode.busy_s", decode);
    out.secs("tracelog.validate.busy_s", validate);
    totals.emit(out);
    let path_s = conn_work.iter().copied().max().unwrap_or_default();
    out.secs("serve.critical_path_s", path_s);
    out.secs("path_s", path_s);
    out.secs("traced_wall_s", sat_wall);
}
