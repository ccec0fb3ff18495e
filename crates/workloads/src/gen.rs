//! Deterministic synthetic trace generator.
//!
//! The generator interleaves per-thread state machines under a seeded
//! scheduler. Every produced trace is well-formed (validated in tests) and
//! *closed*: all critical sections released, all transactions ended, all
//! workers joined — the precondition under which Theorem 3 makes the
//! verdicts of all checkers comparable.
//!
//! Two knobs shape the relative cost of graph-based checking:
//!
//! * **Retention** (`retention = true`) reproduces the Table 1 regime
//!   where realistic atomicity specs leave transactions live and
//!   Velodrome's graph grows without bound (sunflow ≈ 9 000 nodes,
//!   avrora > 393 K). Getting there against a *correct* garbage collector
//!   requires a specific shape — a completed transaction with no incoming
//!   edges is always collectable, so naive "publish once, read forever"
//!   hubs don't work. The generator uses two long-lived active
//!   transactions and two disjoint worker groups:
//!
//!   - the **main thread** (retainer) publishes `hot` inside a
//!     transaction that spans the trace; every *report-writer*
//!     transaction reads `hot` first and is therefore retained;
//!   - the **subscriber** worker publishes `hot2` inside its own
//!     trace-long transaction; every *normal* transaction reads `hot2`
//!     first and is therefore retained (the subscriber's successor set
//!     grows linearly);
//!   - each report-writer transaction finishes by writing a fresh
//!     write-once `report` variable; every [`GenConfig::probe_period`]
//!     steps the subscriber reads the latest report. That edge points
//!     *into* the subscriber, whose successor set is the whole normal
//!     group, so Velodrome's cycle check walks an ever-growing graph —
//!     quadratic work overall — while the groups stay acyclic (reports
//!     and `hot`/`hot2` flow in one direction only).
//!
//! * **Violation injection** (`violation_at = Some(p)`): at fraction `p`
//!   of the trace two workers execute the ρ2 pattern (Figure 2) on two
//!   dedicated variables, making the trace non-serializable from that
//!   point on. `None` produces a serializable trace.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tracelog::stream::{EventBatch, EventSource, SourceError, SourceNames};
use tracelog::{Event, Interner, LockId, Op, ThreadId, Trace, VarId};

/// Configuration for [`generate`].
///
/// # Examples
///
/// ```
/// let cfg = workloads::GenConfig {
///     events: 2_000,
///     violation_at: Some(0.5),
///     ..workloads::GenConfig::default()
/// };
/// let trace = workloads::generate(&cfg);
/// assert!(tracelog::validate(&trace).unwrap().is_closed());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GenConfig {
    /// PRNG seed; identical configs generate identical traces.
    pub seed: u64,
    /// Total threads including the forking main thread (≥ 1).
    pub threads: usize,
    /// Distinct locks (≥ 1). Lock 0 guards the shared pool; the rest are
    /// assigned to shared variables round-robin.
    pub locks: usize,
    /// Distinct memory locations (a few are reserved for the hot/probe/
    /// injection variables; the rest split into shared and local pools).
    pub vars: usize,
    /// Approximate number of events to generate (the drain phase that
    /// closes transactions may add a few per thread).
    pub events: usize,
    /// Mean number of *atoms* (an atom is one local access or one guarded
    /// group of 3–5 events) per transaction.
    pub avg_txn_len: usize,
    /// Probability that an idle worker starts a transaction instead of
    /// performing a unary access; controls transaction density.
    pub txn_fraction: f64,
    /// Probability that an atom inside a transaction is a lock-guarded
    /// shared-pool group rather than a local access.
    pub shared_fraction: f64,
    /// Probability that a memory access is a write.
    pub write_fraction: f64,
    /// Enable the Velodrome-GC-defeating retention pattern (needs ≥ 3
    /// worker threads; silently disabled otherwise).
    pub retention: bool,
    /// Retained transaction reads the probe variable every this many of
    /// its scheduler steps.
    pub probe_period: usize,
    /// Inject a ρ2-shaped violation at this fraction of the trace (a
    /// fraction in `[0, 1)`; needs [`GenConfig::can_inject`]).
    pub violation_at: Option<f64>,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            seed: 0xAE20_2020,
            threads: 8,
            locks: 4,
            vars: 256,
            events: 10_000,
            avg_txn_len: 6,
            txn_fraction: 0.9,
            shared_fraction: 0.3,
            write_fraction: 0.4,
            retention: false,
            probe_period: 200,
            violation_at: None,
        }
    }
}

impl GenConfig {
    /// Whether [`GenConfig::violation_at`] can take effect: the ρ2
    /// injection needs two distinct workers besides the main thread, so
    /// with fewer than 3 threads the trace stays serializable.
    #[must_use]
    pub fn can_inject(&self) -> bool {
        injection_pair(self.threads.saturating_sub(1), self.retention_active()).is_some()
    }

    /// Whether the retention pattern runs: it needs ≥ 3 workers.
    fn retention_active(&self) -> bool {
        self.retention && self.threads.saturating_sub(1) >= 3
    }
}

/// The two workers that execute the injected ρ2 pattern, by worker
/// index. Under retention workers 0 and 1 are the subscriber and the
/// report-writer and the rest are normal; the first and last normal
/// workers pair up, and a lone normal worker pairs with the
/// report-writer.
fn injection_pair(workers: usize, retention: bool) -> Option<(usize, usize)> {
    if retention {
        Some((2, if workers == 3 { 1 } else { workers - 1 }))
    } else {
        (workers >= 2).then(|| (0, workers - 1))
    }
}

/// Worker roles under the retention pattern (the main thread plays the
/// fourth role, *retainer*, publishing `hot`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// Ordinary worker: short transactions / unary accesses; reads `hot2`
    /// at transaction start under retention.
    Normal,
    /// Holds one transaction open for the whole trace, publishes `hot2`
    /// and periodically reads the latest `report` variable.
    Subscriber,
    /// Short transactions that read `hot` first and finish by writing a
    /// fresh write-once `report` variable.
    ReportWriter,
}

/// Per-worker state machine.
#[derive(Debug)]
struct Worker {
    id: ThreadId,
    role: Role,
    /// Remaining atoms in the current transaction (0 = idle).
    remaining: usize,
    in_txn: bool,
    /// Whether the current transaction already used its (single) guarded
    /// group. A transaction with two critical sections of the same lock is
    /// not two-phase and would make the background non-serializable.
    used_shared: bool,
    steps: usize,
    locals: Vec<VarId>,
}

/// Variable/lock layout shared by all workers.
#[derive(Debug)]
struct Layout {
    /// Published once by the main thread's retained transaction.
    hot: VarId,
    /// Published once by the subscriber's retained transaction.
    hot2: VarId,
    /// Rotating report variables: each is written exactly once by a
    /// report-writer transaction and read afterwards by the subscriber.
    /// Re-using one variable would let the long-lived subscriber read
    /// before *and* after a writer transaction — a genuine cycle, not the
    /// serializable-but-expensive pattern we want.
    reports: Vec<VarId>,
    inj_a: VarId,
    inj_b: VarId,
    shared: Vec<(VarId, LockId)>,
}

/// A bounded queue of generated-but-not-yet-consumed events plus the
/// total emitted count — the generator's stand-in for `TraceBuilder`.
/// One scheduler step emits at most a handful of events, so the queue
/// stays O(1) regardless of trace length.
#[derive(Default, Debug)]
pub(crate) struct EventBuf {
    pub(crate) queue: VecDeque<Event>,
    emitted: usize,
}

impl EventBuf {
    /// Total events emitted so far (consumed or queued) — the streaming
    /// equivalent of `TraceBuilder::len`, which the event budget and the
    /// injection threshold are measured against.
    pub(crate) fn len(&self) -> usize {
        self.emitted
    }

    /// Moves queued events into `batch` until the batch is full or the
    /// queue empties; returns whether the batch still has room. The
    /// shared drain of every generator's native `next_batch`.
    pub(crate) fn drain_into(&mut self, batch: &mut EventBatch) -> bool {
        while let Some(event) = self.queue.pop_front() {
            batch.push(event);
            if batch.is_full() {
                return false;
            }
        }
        true
    }

    pub(crate) fn push(&mut self, t: ThreadId, op: Op) {
        self.queue.push_back(Event::new(t, op));
        self.emitted += 1;
    }

    pub(crate) fn read(&mut self, t: ThreadId, x: VarId) {
        self.push(t, Op::Read(x));
    }

    pub(crate) fn write(&mut self, t: ThreadId, x: VarId) {
        self.push(t, Op::Write(x));
    }

    pub(crate) fn acquire(&mut self, t: ThreadId, l: LockId) {
        self.push(t, Op::Acquire(l));
    }

    pub(crate) fn release(&mut self, t: ThreadId, l: LockId) {
        self.push(t, Op::Release(l));
    }

    pub(crate) fn fork(&mut self, t: ThreadId, u: ThreadId) {
        self.push(t, Op::Fork(u));
    }

    pub(crate) fn join(&mut self, t: ThreadId, u: ThreadId) {
        self.push(t, Op::Join(u));
    }

    pub(crate) fn begin(&mut self, t: ThreadId) {
        self.push(t, Op::Begin);
    }

    pub(crate) fn end(&mut self, t: ThreadId) {
        self.push(t, Op::End);
    }
}

/// Which part of the generation schedule the machine is in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Single-threaded degenerate case: main emits local transactions.
    Solo,
    /// Worker scheduling loop (forks and the retention prologue are
    /// emitted at construction).
    Main,
    /// Everything emitted.
    Done,
}

/// The generator as a lazy [`EventSource`]: events are produced on
/// demand, so profiles can run at arbitrary scale (10⁶–10⁹ events)
/// without ever materialising a [`Trace`].
///
/// All thread/lock/variable names are interned at construction, so
/// [`EventSource::names`] is complete before the first event; the event
/// sequence is byte-for-byte the one [`generate`] builds (which is
/// itself a collect over this source).
///
/// # Examples
///
/// ```
/// use tracelog::stream::EventSource;
/// use workloads::{GenConfig, GenSource};
///
/// let cfg = GenConfig { events: 1_000, ..GenConfig::default() };
/// let mut source = GenSource::new(&cfg);
/// let mut n = 0;
/// while source.next_event().unwrap().is_some() {
///     n += 1;
/// }
/// assert!(n >= 1_000);
/// ```
#[derive(Debug)]
pub struct GenSource {
    cfg: GenConfig,
    rng: StdRng,
    threads: Interner,
    locks: Interner,
    vars: Interner,
    main: ThreadId,
    layout: Layout,
    workers: Vec<Worker>,
    retention: bool,
    inj_threshold: Option<usize>,
    inj_pair: Option<(usize, usize)>,
    injected: bool,
    probe_written: usize,
    /// Main's local pool in the single-threaded case.
    solo_locals: Vec<VarId>,
    buf: EventBuf,
    phase: Phase,
}

impl GenSource {
    /// Sets up the generator state machine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.threads == 0`, `cfg.locks == 0` or
    /// `cfg.events == 0`.
    #[must_use]
    pub fn new(cfg: &GenConfig) -> Self {
        assert!(cfg.threads > 0, "need at least one thread");
        assert!(cfg.locks > 0, "need at least one lock");
        assert!(cfg.events > 0, "need a positive event budget");

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut threads = Interner::new();
        let mut locks = Interner::new();
        let mut vars = Interner::new();
        let mut var = |name: &str| VarId::from_index(vars.intern(name));

        let main = ThreadId::from_index(threads.intern("main"));
        let worker_count = cfg.threads.saturating_sub(1);

        // Reserved + shared + local variable pools.
        let layout = {
            let hot = var("hot");
            let hot2 = var("hot2");
            let inj_a = var("inj_a");
            let inj_b = var("inj_b");
            let report_budget =
                if cfg.retention { (cfg.events / 4 + 8).min(cfg.events) } else { 0 };
            let reports = (0..report_budget).map(|i| var(&format!("report{i}"))).collect();
            let shared_count = (cfg.vars / 8).clamp(1, 4096);
            let shared = (0..shared_count)
                .map(|i| {
                    let v = var(&format!("s{i}"));
                    // Lock 0 is reserved as the generic guard; spread the rest.
                    let l = LockId::from_index(locks.intern(&format!("l{}", i % cfg.locks)));
                    (v, l)
                })
                .collect();
            Layout { hot, hot2, reports, inj_a, inj_b, shared }
        };

        let retention = cfg.retention_active();
        let locals_per_worker = if worker_count > 0 {
            (cfg.vars.saturating_sub(4 + layout.shared.len()) / worker_count.max(1)).max(1)
        } else {
            1
        };

        let mut workers: Vec<Worker> = (0..worker_count)
            .map(|w| {
                let id = ThreadId::from_index(threads.intern(&format!("w{w}")));
                let role = match w {
                    0 if retention => Role::Subscriber,
                    1 if retention => Role::ReportWriter,
                    _ => Role::Normal,
                };
                let locals = (0..locals_per_worker).map(|i| var(&format!("w{w}_v{i}"))).collect();
                Worker {
                    id,
                    role,
                    remaining: 0,
                    in_txn: false,
                    used_shared: false,
                    steps: 0,
                    locals,
                }
            })
            .collect();

        // Single-threaded degenerate case: main does everything.
        let solo_locals: Vec<VarId> = if workers.is_empty() {
            (0..cfg.vars.max(1)).map(|i| var(&format!("m_v{i}"))).collect()
        } else {
            Vec::new()
        };

        let mut buf = EventBuf::default();
        let mut probe_written = 0usize;

        let (phase, inj_threshold, inj_pair) = if workers.is_empty() {
            (Phase::Solo, None, None)
        } else {
            for w in &workers {
                buf.fork(main, w.id);
            }

            let inj_threshold =
                cfg.violation_at.map(|p| ((cfg.events as f64) * p.clamp(0.0, 1.0)) as usize);
            let inj_pair = injection_pair(worker_count, retention);

            // The retained transactions must publish `hot`/`hot2` before
            // any worker can read them: a read *before* the write is a
            // conflict edge pointing INTO a still-running retained
            // transaction, which would make the background genuinely
            // non-serializable.
            if retention {
                // Main thread: one transaction spanning the whole trace.
                buf.begin(main);
                buf.write(main, layout.hot);
                // Subscriber: its own trace-long transaction.
                step_worker(
                    &mut buf,
                    &mut rng,
                    cfg,
                    &layout,
                    retention,
                    &mut probe_written,
                    &mut workers[0],
                );
            }
            (Phase::Main, inj_threshold, inj_pair)
        };

        Self {
            cfg: cfg.clone(),
            rng,
            threads,
            locks,
            vars,
            main,
            layout,
            workers,
            retention,
            inj_threshold,
            inj_pair,
            injected: false,
            probe_written,
            solo_locals,
            buf,
            phase,
        }
    }

    /// Consumes the source, yielding its `(threads, locks, vars)` name
    /// tables by value (complete since construction) — lets [`generate`]
    /// assemble a [`Trace`] without cloning the tables.
    #[must_use]
    pub fn into_names(self) -> (Interner, Interner, Interner) {
        (self.threads, self.locks, self.vars)
    }

    /// Runs the schedule far enough to queue at least one more event (or
    /// reach the end of the trace). Each call performs one scheduler
    /// iteration — one worker step, the injection, one solo transaction
    /// or the final drain — mirroring one iteration of the batch
    /// generator's main loop.
    fn pump(&mut self) {
        match self.phase {
            Phase::Done => {}
            Phase::Solo => {
                if self.buf.len() >= self.cfg.events {
                    self.phase = Phase::Done;
                    return;
                }
                self.buf.begin(self.main);
                let len = self.rng.gen_range(1..=self.cfg.avg_txn_len.max(1) * 2);
                for _ in 0..len {
                    let v = self.solo_locals[self.rng.gen_range(0..self.solo_locals.len())];
                    if self.rng.gen_bool(self.cfg.write_fraction) {
                        self.buf.write(self.main, v);
                    } else {
                        self.buf.read(self.main, v);
                    }
                }
                self.buf.end(self.main);
            }
            Phase::Main => {
                if self.buf.len() >= self.cfg.events {
                    // Drain: close critical work, end transactions, join.
                    for w in &mut self.workers {
                        if w.in_txn {
                            self.buf.end(w.id);
                            w.in_txn = false;
                        }
                    }
                    if self.retention {
                        self.buf.end(self.main);
                    }
                    for w in &self.workers {
                        self.buf.join(self.main, w.id);
                    }
                    self.phase = Phase::Done;
                    return;
                }
                // Violation injection takes priority once the threshold
                // passes.
                if !self.injected {
                    if let (Some(th), Some((ia, ib))) = (self.inj_threshold, self.inj_pair) {
                        if self.buf.len() >= th {
                            inject_rho2(&mut self.buf, &mut self.workers, ia, ib, &self.layout);
                            self.injected = true;
                            return;
                        }
                    }
                }
                let wi = self.rng.gen_range(0..self.workers.len());
                step_worker(
                    &mut self.buf,
                    &mut self.rng,
                    &self.cfg,
                    &self.layout,
                    self.retention,
                    &mut self.probe_written,
                    &mut self.workers[wi],
                );
            }
        }
    }
}

impl EventSource for GenSource {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        while self.buf.queue.is_empty() && self.phase != Phase::Done {
            self.pump();
        }
        Ok(self.buf.queue.pop_front())
    }

    /// Native batch generation: pump the scheduler state machine straight
    /// into the batch arena, one queue drain per scheduler step.
    fn next_batch(&mut self, batch: &mut EventBatch) -> Result<usize, SourceError> {
        batch.clear();
        loop {
            if !self.buf.drain_into(batch) {
                return Ok(batch.len());
            }
            if self.phase == Phase::Done {
                return Ok(batch.len());
            }
            self.pump();
        }
    }

    fn names(&self) -> SourceNames<'_> {
        SourceNames { threads: &self.threads, locks: &self.locks, vars: &self.vars }
    }

    fn size_hint(&self) -> Option<u64> {
        // The drain phase adds a few events per thread past the budget.
        Some((self.cfg.events + 2 * self.cfg.threads + 2) as u64)
    }
}

/// Generates a well-formed, closed trace per `cfg` — a collect over
/// [`GenSource`], so the batch and streaming paths emit identical event
/// sequences (the name tables are moved out of the source, not cloned).
///
/// # Panics
///
/// Panics if `cfg.threads == 0`, `cfg.locks == 0` or `cfg.events == 0`.
#[must_use]
pub fn generate(cfg: &GenConfig) -> Trace {
    let mut source = GenSource::new(cfg);
    let mut events = Vec::with_capacity(cfg.events + 2 * cfg.threads + 2);
    while let Some(event) = source.next_event().expect("generator sources cannot fail") {
        events.push(event);
    }
    let (threads, locks, vars) = source.into_names();
    Trace::from_parts(events, threads, locks, vars)
}

/// Advances one worker by one scheduler step, emitting 1–7 events.
fn step_worker(
    tb: &mut EventBuf,
    rng: &mut StdRng,
    cfg: &GenConfig,
    layout: &Layout,
    retention: bool,
    probe_written: &mut usize,
    w: &mut Worker,
) {
    w.steps += 1;
    match w.role {
        Role::Subscriber => {
            if !w.in_txn {
                // One transaction for (nearly) the whole trace; publish
                // hot2 so every normal transaction is retained below it.
                tb.begin(w.id);
                tb.write(w.id, layout.hot2);
                w.in_txn = true;
                return;
            }
            if w.steps.is_multiple_of(cfg.probe_period.max(1)) && *probe_written > 0 {
                // Report read of the freshest (write-once) report
                // variable: an edge *into* this node, whose successor set
                // is every normal transaction so far — the expensive
                // cycle check Velodrome cannot avoid.
                tb.read(w.id, layout.reports[*probe_written - 1]);
            } else {
                local_access(tb, rng, cfg, w);
            }
        }
        Role::ReportWriter => {
            if !w.in_txn {
                tb.begin(w.id);
                // Reading `hot` retains this transaction (incoming edge
                // from the live main-thread transaction), so Velodrome
                // cannot collect it and must honour the report edge.
                tb.read(w.id, layout.hot);
                w.in_txn = true;
                w.remaining = txn_len(rng, cfg);
                return;
            }
            w.remaining = w.remaining.saturating_sub(1);
            if w.remaining == 0 {
                // Close the transaction with (at most) one fresh report
                // write: each report variable is written exactly once, so
                // the subscriber's later read adds an edge *into* the
                // subscriber without ever creating a cycle.
                if *probe_written < layout.reports.len() {
                    tb.write(w.id, layout.reports[*probe_written]);
                    *probe_written += 1;
                }
                tb.end(w.id);
                w.in_txn = false;
            } else {
                local_access(tb, rng, cfg, w);
            }
        }
        Role::Normal => {
            if !w.in_txn {
                if rng.gen_bool(cfg.txn_fraction.clamp(0.0, 1.0)) {
                    tb.begin(w.id);
                    w.in_txn = true;
                    w.used_shared = false;
                    w.remaining = txn_len(rng, cfg);
                    if retention {
                        // First action: observe the subscriber's
                        // publication — the retention edge.
                        tb.read(w.id, layout.hot2);
                    }
                } else {
                    local_access(tb, rng, cfg, w); // unary transaction
                }
                return;
            }
            if !w.used_shared
                && rng.gen_bool(cfg.shared_fraction.clamp(0.0, 1.0))
                && !layout.shared.is_empty()
            {
                // At most one critical section per transaction keeps the
                // background two-phase locked, hence serializable.
                w.used_shared = true;
                guarded_group(tb, rng, cfg, layout, w);
            } else {
                local_access(tb, rng, cfg, w);
            }
            finish_atom(tb, w);
        }
    }
}

fn finish_atom(tb: &mut EventBuf, w: &mut Worker) {
    w.remaining = w.remaining.saturating_sub(1);
    if w.remaining == 0 && w.in_txn {
        tb.end(w.id);
        w.in_txn = false;
    }
}

fn txn_len(rng: &mut StdRng, cfg: &GenConfig) -> usize {
    rng.gen_range(1..=cfg.avg_txn_len.max(1) * 2 - 1)
}

fn local_access(tb: &mut EventBuf, rng: &mut StdRng, cfg: &GenConfig, w: &Worker) {
    let v = w.locals[rng.gen_range(0..w.locals.len())];
    if rng.gen_bool(cfg.write_fraction.clamp(0.0, 1.0)) {
        tb.write(w.id, v);
    } else {
        tb.read(w.id, v);
    }
}

/// A two-phase-locked access group on the shared pool: serializable by
/// construction.
fn guarded_group(
    tb: &mut EventBuf,
    rng: &mut StdRng,
    cfg: &GenConfig,
    layout: &Layout,
    w: &Worker,
) {
    let (v, l) = layout.shared[rng.gen_range(0..layout.shared.len())];
    tb.acquire(w.id, l);
    for _ in 0..rng.gen_range(1..=3) {
        if rng.gen_bool(cfg.write_fraction.clamp(0.0, 1.0)) {
            tb.write(w.id, v);
        } else {
            tb.read(w.id, v);
        }
    }
    tb.release(w.id, l);
}

/// Emits the ρ2 pattern (Figure 2) across workers `ia` and `ib`:
/// `a:w(va)  b:r(va)  b:w(vb)  a:r(vb)` inside both workers' transactions.
fn inject_rho2(tb: &mut EventBuf, workers: &mut [Worker], ia: usize, ib: usize, layout: &Layout) {
    debug_assert_ne!(ia, ib);
    for wi in [ia, ib] {
        let w = &mut workers[wi];
        if !w.in_txn {
            tb.begin(w.id);
            w.in_txn = true;
            w.remaining = w.remaining.max(2);
        }
    }
    let (a, b) = (workers[ia].id, workers[ib].id);
    tb.write(a, layout.inj_a);
    tb.read(b, layout.inj_a);
    tb.write(b, layout.inj_b);
    tb.read(a, layout.inj_b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelog::{validate, MetaInfo};

    #[test]
    fn default_config_generates_closed_well_formed_trace() {
        let trace = generate(&GenConfig::default());
        let summary = validate(&trace).expect("well-formed");
        assert!(summary.is_closed());
        assert!(trace.len() >= 10_000);
        let info = MetaInfo::of(&trace);
        assert_eq!(info.threads, 8);
        assert!(info.transactions > 100);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig { events: 3_000, ..GenConfig::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig { events: 3_000, ..GenConfig::default() };
        let a = generate(&cfg);
        let b = generate(&GenConfig { seed: 99, ..cfg });
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn retention_trace_is_well_formed() {
        let cfg =
            GenConfig { events: 5_000, retention: true, probe_period: 50, ..GenConfig::default() };
        let trace = generate(&cfg);
        assert!(validate(&trace).unwrap().is_closed());
        // hot/hot2/report variables must actually be used.
        let text = tracelog::write_trace(&trace);
        assert!(text.contains("w(hot)"));
        assert!(text.contains("r(hot)"));
        assert!(text.contains("w(hot2)"));
        assert!(text.contains("r(hot2)"));
        assert!(text.contains("r(report"));
        assert!(text.contains("w(report"));
    }

    #[test]
    fn injection_emits_rho2_pattern() {
        let cfg = GenConfig { events: 2_000, violation_at: Some(0.5), ..GenConfig::default() };
        let trace = generate(&cfg);
        assert!(validate(&trace).unwrap().is_closed());
        let text = tracelog::write_trace(&trace);
        assert!(text.contains("w(inj_a)"));
        assert!(text.contains("r(inj_b)"));
    }

    #[test]
    fn single_thread_config_works() {
        let cfg = GenConfig { threads: 1, events: 500, ..GenConfig::default() };
        let trace = generate(&cfg);
        assert!(validate(&trace).unwrap().is_closed());
        assert_eq!(MetaInfo::of(&trace).threads, 1);
    }

    #[test]
    fn two_thread_config_works() {
        let cfg =
            GenConfig { threads: 2, events: 500, violation_at: Some(0.2), ..GenConfig::default() };
        let trace = generate(&cfg);
        assert!(validate(&trace).unwrap().is_closed());
    }

    #[test]
    fn can_inject_says_whether_the_generator_injects() {
        for threads in 1..=6 {
            for retention in [false, true] {
                let cfg = GenConfig {
                    threads,
                    retention,
                    events: 1_000,
                    violation_at: Some(0.5),
                    ..GenConfig::default()
                };
                let injected = tracelog::write_trace(&generate(&cfg)).contains("w(inj_a)");
                assert_eq!(cfg.can_inject(), injected, "threads {threads}, retention {retention}");
            }
        }
    }

    #[test]
    fn zero_txn_fraction_gives_mostly_unary_events() {
        let cfg = GenConfig {
            txn_fraction: 0.0,
            events: 2_000,
            violation_at: None,
            ..GenConfig::default()
        };
        let info = MetaInfo::of(&generate(&cfg));
        assert_eq!(info.transactions, 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = generate(&GenConfig { threads: 0, ..GenConfig::default() });
    }
}
