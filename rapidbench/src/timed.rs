//! Spans taken from outside the program, around calls into each layer's
//! public API, and the counters read at the same boundaries.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use aerodrome::basic::BasicChecker;
use aerodrome::optimized::OptimizedChecker;
use aerodrome::readopt::ReadOptChecker;
use aerodrome::Checker;
use tracelog::stream::{EventBatch, EventSource, SourceError, SourceNames};
use tracelog::Event;
use velodrome::VelodromeChecker;

/// An [`EventSource`] adapter that times every refill of the wrapped
/// source (`busy`) and the time its consumer spends between refills
/// (`gaps`). Per-event pulls are served from an internal batch, so a
/// consumer that pulls one event at a time is still timed per batch.
pub struct TimedSource<S> {
    inner: S,
    pub busy: Duration,
    pub gaps: Duration,
    last_return: Option<Instant>,
    buf: EventBatch,
    pos: usize,
}

impl<S: EventSource> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            busy: Duration::ZERO,
            gaps: Duration::ZERO,
            last_return: None,
            buf: EventBatch::new(),
            pos: 0,
        }
    }
}

impl<S: EventSource> EventSource for TimedSource<S> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        if self.pos == self.buf.len() {
            let mut buf = std::mem::take(&mut self.buf);
            let refill = self.next_batch(&mut buf);
            self.buf = buf;
            self.pos = 0;
            if refill? == 0 {
                return Ok(None);
            }
        }
        self.pos += 1;
        Ok(Some(self.buf.events()[self.pos - 1]))
    }

    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        let start = Instant::now();
        if let Some(last) = self.last_return {
            self.gaps += start - last;
        }
        let refill = self.inner.next_batch(batch);
        let end = Instant::now();
        self.busy += end - start;
        self.last_return = Some(end);
        refill
    }

    fn names(&self) -> SourceNames<'_> {
        self.inner.names()
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }

    fn position_of(&self, event: tracelog::EventId) -> Option<String> {
        self.inner.position_of(event)
    }
}

/// Metric-name stems of the panel, in `standard_checkers` order.
pub const CHECKERS: [&str; 4] = ["basic", "readopt", "optimized", "velodrome"];
pub const BASIC: usize = 0;
pub const READOPT: usize = 1;
pub const OPTIMIZED: usize = 2;
pub const VELODROME: usize = 3;
pub const ALL: [usize; 4] = [0, 1, 2, 3];

/// The four checkers of `rapid compare`, owned concretely so Velodrome's
/// graph statistics stay reachable, each timed per batch.
pub struct Panel {
    basic: BasicChecker,
    readopt: ReadOptChecker,
    optimized: OptimizedChecker,
    velodrome: VelodromeChecker,
    /// Busy time per checker over the current trace.
    pub busy: [Duration; 4],
    /// First violating event index per checker over the current trace.
    pub violations: [Option<u64>; 4],
}

impl Panel {
    pub fn new() -> Self {
        Self {
            basic: BasicChecker::new(),
            readopt: ReadOptChecker::new(),
            optimized: OptimizedChecker::new(),
            velodrome: VelodromeChecker::new(),
            busy: [Duration::ZERO; 4],
            violations: [None; 4],
        }
    }

    fn checker(&mut self, i: usize) -> &mut dyn Checker {
        match i {
            BASIC => &mut self.basic,
            READOPT => &mut self.readopt,
            OPTIMIZED => &mut self.optimized,
            VELODROME => &mut self.velodrome,
            _ => unreachable!("panel index {i}"),
        }
    }

    /// Feeds `batch` to each checker in `which` that has not stopped,
    /// timing `Checker::process` over the whole batch.
    pub fn feed(&mut self, batch: &EventBatch, which: &[usize]) {
        for &i in which {
            if self.violations[i].is_some() {
                continue;
            }
            let start = Instant::now();
            let mut fired = None;
            let checker = self.checker(i);
            for &event in batch.events() {
                if let Err(v) = checker.process(event) {
                    fired = Some(v.event.index() as u64);
                    break;
                }
            }
            self.busy[i] += start.elapsed();
            self.violations[i] = fired;
        }
    }

    /// Adds this trace's busy times and counters to `totals`, then resets
    /// every checker for the next trace; returns the time the resets took.
    pub fn finish_trace(&mut self, totals: &mut Totals, which: &[usize], times: u64) -> Duration {
        for &i in which {
            totals.busy[i] += self.busy[i] * u32::try_from(times).expect("send count fits u32");
            let report = self.checker(i).report();
            totals.joins[i] += report.clock_joins * times;
            totals.heap_allocs[i] += report.clocks.heap_allocs() * times;
            totals.cow_copies[i] += report.clocks.cow_copies * times;
            totals.retained_bytes[i] = totals.retained_bytes[i].max(report.clocks.retained_bytes);
        }
        if which.contains(&VELODROME) {
            let s = self.velodrome.stats();
            totals.edges += s.edges_created * times;
            totals.dfs_visits += s.dfs_visits * times;
            totals.peak_live_nodes = totals.peak_live_nodes.max(s.peak_live_nodes);
        }
        let start = Instant::now();
        for i in ALL {
            self.checker(i).reset();
        }
        let reset = start.elapsed();
        self.busy = [Duration::ZERO; 4];
        self.violations = [None; 4];
        reset
    }
}

/// Per-checker sums over every trace a workload checked.
#[derive(Default)]
pub struct Totals {
    pub busy: [Duration; 4],
    pub joins: [u64; 4],
    pub heap_allocs: [u64; 4],
    pub cow_copies: [u64; 4],
    pub retained_bytes: [usize; 4],
    pub edges: u64,
    pub dfs_visits: u64,
    pub peak_live_nodes: usize,
}

impl Totals {
    /// Writes the checker and clock-pool metrics.
    pub fn emit(&self, out: &mut Json) {
        for i in [OPTIMIZED, BASIC, READOPT] {
            let c = CHECKERS[i];
            out.secs(&format!("aerodrome.{c}.busy_s"), self.busy[i]);
            out.int(&format!("aerodrome.{c}.clock_joins"), self.joins[i]);
            out.int(&format!("vc.pool.{c}.heap_allocs"), self.heap_allocs[i]);
            out.int(&format!("vc.pool.{c}.cow_copies"), self.cow_copies[i]);
            out.int(&format!("vc.pool.{c}.retained_bytes"), self.retained_bytes[i] as u64);
        }
        out.secs("velodrome.busy_s", self.busy[VELODROME]);
        out.int("velodrome.edges_created", self.edges);
        out.int("velodrome.dfs_visits", self.dfs_visits);
        out.int("velodrome.peak_live_nodes", self.peak_live_nodes as u64);
    }
}

/// Checks one trace's panel verdicts against the ground truth: every
/// checker in `which` flags a violation exactly when one was injected,
/// Basic and ReadOpt flag the same event, and Optimized never flags later
/// than Basic. Returns the broken rules.
pub fn verdict_faults(
    violations: &[Option<u64>; 4],
    which: &[usize],
    violating: bool,
) -> Vec<String> {
    let mut faults = Vec::new();
    for &i in which {
        if violations[i].is_some() != violating {
            faults.push(format!(
                "{} says {:?}, expected {}",
                CHECKERS[i],
                violations[i],
                if violating { "a violation" } else { "serializable" }
            ));
        }
    }
    if which.contains(&BASIC)
        && which.contains(&READOPT)
        && violations[BASIC] != violations[READOPT]
    {
        faults.push(format!("basic {:?} != readopt {:?}", violations[BASIC], violations[READOPT]));
    }
    if let (true, Some(b), Some(o)) =
        (which.contains(&BASIC), violations[BASIC], violations[OPTIMIZED])
    {
        if o > b {
            faults.push(format!("optimized flags e{o} after basic e{b}"));
        }
    }
    faults
}

/// A flat JSON object built field by field.
#[derive(Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    pub fn num(&mut self, key: &str, value: f64) {
        let v = if value.is_finite() { format!("{value}") } else { "null".to_owned() };
        self.fields.push((key.to_owned(), v));
    }

    pub fn secs(&mut self, key: &str, value: Duration) {
        self.num(key, value.as_secs_f64());
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.fields.push((key.to_owned(), value.to_string()));
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.fields.push((key.to_owned(), value.to_string()));
    }

    pub fn list(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        self.fields.push((key.to_owned(), format!("[{}]", items.join(","))));
    }

    pub fn strings(&mut self, key: &str, values: &[String]) {
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        self.fields.push((key.to_owned(), format!("[{}]", items.join(","))));
    }

    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let _ = write!(s, "{}{}: {v}", if i == 0 { "" } else { ", " }, quote(k));
        }
        s.push('}');
        s
    }
}

fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}
