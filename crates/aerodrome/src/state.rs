//! The shared checker state machine.
//!
//! Algorithms 1–3 differ only in how they represent *read clocks* and in
//! how eagerly they propagate timestamps; everything else — event
//! dispatch, the per-thread clocks `C_t`/`C⊲_t`, per-lock clocks `L_ℓ`,
//! per-variable write clocks `W_x`, last-writer/last-releaser markers,
//! transaction nesting, the end-event thread sweep — is identical. The
//! pre-refactor code triplicated that skeleton; this module holds it
//! once:
//!
//! * [`Core`] owns the common clock tables on top of a
//!   [`ClockStore`] — the pooled, clone-free store in production
//!   ([`vc::ClockPool`]) or the clone-happy baseline ([`vc::Cloned`])
//!   for ablation benches;
//! * [`Rules`] is the per-algorithm transfer-rule plug-in: read/write
//!   handling and the end-event pushes;
//! * [`Engine`] wires a `Rules` implementation into the [`Checker`]
//!   trait, handling event ids, the stopped state and reporting.
//!
//! The concrete checkers are type aliases:
//! [`crate::basic::BasicChecker`], [`crate::readopt::ReadOptChecker`]
//! and [`crate::optimized::OptimizedChecker`] (pooled), plus `Cloned*`
//! baselines instantiated from the same rules.

use tracelog::{Event, EventId, LockId, Op, ThreadId, VarId};
use vc::store::{ClockStore, ClockView};
use vc::{Epoch, PoolStats, VectorClock};

use vc::Time;

use crate::util::{ensure_with, TxnTracker};
use crate::violation::{Violation, ViolationKind};
use crate::Checker;

/// End-of-run metrics of a checker: event count plus the clock-core
/// counters that back the zero-allocation steady-state invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerReport {
    /// The checker's [`Checker::name`].
    pub name: &'static str,
    /// Events processed (the stopping event included).
    pub events: u64,
    /// Vector-clock joins performed through the conflict handlers — the
    /// dominant `O(|Thr|)` operation, bounded per event.
    pub clock_joins: u64,
    /// Clock-storage counters ([`PoolStats::heap_allocs`] must stay flat
    /// after warm-up on the pooled store).
    pub clocks: PoolStats,
}

/// Splits `(&mut v[a], &v[b])` out of one slice (`a != b`).
fn index_pair<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

/// The `C⊲_t ⊑ clk` half of `checkAndGet`: full pointwise `⊑` for
/// Algorithms 1–2, the O(1) epoch comparison (Appendix C.1) for
/// Algorithm 3 (against the cached begin epoch — no clock read at all).
fn begin_reaches<S: ClockStore>(
    store: &S,
    cbegin: &S::Clock,
    begin_epoch: Epoch,
    clk: &S::Clock,
    epoch: bool,
) -> bool {
    if epoch {
        store.contains_epoch(clk, begin_epoch)
    } else {
        store.leq(cbegin, clk)
    }
}

/// The `C_t := C_t ⊔ clk` half, with the unary-taint bookkeeping of the
/// Algorithm 3 GC (harmlessly maintained for all variants) and the
/// conflict-handler join counter.
fn join_ct<S: ClockStore>(
    store: &mut S,
    ct: &mut S::Clock,
    tainted: &mut bool,
    joins: &mut u64,
    active: bool,
    clk: &S::Clock,
) {
    if !active && !store.leq(clk, ct) {
        *tainted = true;
    }
    *joins += 1;
    store.join_into(ct, clk);
}

/// Which common clock table a `checkAndGet` reads its `clk` from.
#[derive(Clone, Copy, Debug)]
pub enum Src {
    /// The last-release clock `L_ℓ` (by lock index).
    Lock(usize),
    /// The last-write clock `W_x` (by variable index).
    WriteClock(usize),
    /// Another thread's current clock `C_u` (by thread index).
    Thread(usize),
}

/// The state shared by every AeroDrome variant, on top of a pluggable
/// [`ClockStore`].
#[derive(Debug, Default)]
pub struct Core<S: ClockStore> {
    /// The clock storage backend.
    pub(crate) store: S,
    /// `C_t`, initialised to `⊥[1/t]` (an epoch — no buffer until a join).
    pub(crate) ct: Vec<S::Clock>,
    /// `C⊲_t`, initialised to `⊥`.
    pub(crate) cbegin: Vec<S::Clock>,
    /// `L_ℓ`.
    pub(crate) lrel: Vec<S::Clock>,
    /// `lastRelThr_ℓ`.
    pub(crate) last_rel_thr: Vec<Option<ThreadId>>,
    /// `W_x`.
    pub(crate) wx: Vec<S::Clock>,
    /// `lastWThr_x`.
    pub(crate) last_w_thr: Vec<Option<ThreadId>>,
    /// Whether each thread has performed at least one event (join-check
    /// guard: a joined child that never ran must not trigger the check).
    pub(crate) seen: Vec<bool>,
    /// GC taint per thread (see [`crate::optimized`] for the invariant).
    pub(crate) tainted: Vec<bool>,
    /// Cached `C⊲_t(t)` per thread — the begin *epoch*. `C⊲_t` only
    /// changes at begin events, so the O(1) epoch checks of Algorithm 3
    /// read this flat array instead of chasing the clock handle.
    pub(crate) begin_epochs: Vec<Time>,
    /// Transaction nesting (§4.1.4).
    pub(crate) txns: TxnTracker,
    /// Conflict-handler joins performed.
    pub(crate) clock_joins: u64,
}

impl<S: ClockStore> Core<S> {
    /// Session reset: returns every clock to the store wholesale and
    /// empties the tables, keeping their capacity. The next trace regrows
    /// them exactly as a fresh checker would — same lengths, same initial
    /// values — so verdicts and per-trace counters are indistinguishable
    /// from a freshly constructed core, while the clock store keeps its
    /// warm recycled buffers.
    pub(crate) fn reset(&mut self) {
        // The store reset invalidates all handles at once; clearing the
        // tables drops them without per-handle release.
        self.store.reset();
        self.ct.clear();
        self.cbegin.clear();
        self.lrel.clear();
        self.last_rel_thr.clear();
        self.wx.clear();
        self.last_w_thr.clear();
        self.seen.clear();
        self.tainted.clear();
        self.begin_epochs.clear();
        self.txns.reset();
        self.clock_joins = 0;
    }

    pub(crate) fn ensure_thread(&mut self, t: ThreadId) {
        let i = t.index();
        let Core { store, ct, cbegin, seen, tainted, begin_epochs, txns, .. } = self;
        while ct.len() <= i {
            let clock = store.epoch(ct.len(), 1);
            ct.push(clock);
        }
        ensure_with(cbegin, i, |_| S::bottom());
        ensure_with(seen, i, |_| false);
        ensure_with(tainted, i, |_| false);
        ensure_with(begin_epochs, i, |_| 0);
        txns.ensure(i);
    }

    pub(crate) fn ensure_lock(&mut self, l: LockId) {
        ensure_with(&mut self.lrel, l.index(), |_| S::bottom());
        ensure_with(&mut self.last_rel_thr, l.index(), |_| None);
    }

    pub(crate) fn ensure_var(&mut self, x: VarId) {
        ensure_with(&mut self.wx, x.index(), |_| S::bottom());
        ensure_with(&mut self.last_w_thr, x.index(), |_| None);
    }

    /// `checkAndGet(clk, t)` against a clock in one of the common tables.
    /// Returns `true` on violation (the caller stops; `C_t` stays
    /// untouched, matching "the algorithm exits").
    pub(crate) fn check_and_get(
        &mut self,
        ti: usize,
        active_check: bool,
        active_join: bool,
        src: Src,
        epoch: bool,
    ) -> bool {
        let Core { store, ct, cbegin, lrel, wx, tainted, begin_epochs, clock_joins, .. } = self;
        let be = Epoch::new(ti, begin_epochs[ti]);
        match src {
            Src::Lock(li) => {
                let clk = &lrel[li];
                if active_check && begin_reaches(&*store, &cbegin[ti], be, clk, epoch) {
                    return true;
                }
                join_ct(store, &mut ct[ti], &mut tainted[ti], clock_joins, active_join, clk);
            }
            Src::WriteClock(xi) => {
                let clk = &wx[xi];
                if active_check && begin_reaches(&*store, &cbegin[ti], be, clk, epoch) {
                    return true;
                }
                join_ct(store, &mut ct[ti], &mut tainted[ti], clock_joins, active_join, clk);
            }
            Src::Thread(ui) => {
                if active_check && begin_reaches(&*store, &cbegin[ti], be, &ct[ui], epoch) {
                    return true;
                }
                if ui != ti {
                    let (dst, clk) = index_pair(ct, ti, ui);
                    join_ct(store, dst, &mut tainted[ti], clock_joins, active_join, clk);
                }
            }
        }
        false
    }

    /// The cached begin epoch `C⊲_t(t) @ t`.
    pub(crate) fn begin_epoch(&self, ti: usize) -> Epoch {
        Epoch::new(ti, self.begin_epochs[ti])
    }

    /// `checkAndGet` against a clock owned by the per-algorithm rules
    /// (read clocks).
    pub(crate) fn check_and_get_clk(
        &mut self,
        ti: usize,
        active_check: bool,
        active_join: bool,
        clk: &S::Clock,
        epoch: bool,
    ) -> bool {
        let Core { store, ct, cbegin, tainted, begin_epochs, clock_joins, .. } = self;
        let be = Epoch::new(ti, begin_epochs[ti]);
        if active_check && begin_reaches(&*store, &cbegin[ti], be, clk, epoch) {
            return true;
        }
        join_ct(store, &mut ct[ti], &mut tainted[ti], clock_joins, active_join, clk);
        false
    }

    /// Unconditional `C_t := C_t ⊔ clk` (write events joining the
    /// aggregated read clock).
    pub(crate) fn join_ct_clk(&mut self, ti: usize, active: bool, clk: &S::Clock) {
        let Core { store, ct, tainted, clock_joins, .. } = self;
        join_ct(store, &mut ct[ti], &mut tainted[ti], clock_joins, active, clk);
    }

    /// Lines 34–36 of Algorithm 1: outermost begin bumps `C_t(t)` and
    /// snapshots `C⊲_t := C_t` (an O(1) share on the pooled store).
    pub(crate) fn begin(&mut self, t: ThreadId) {
        if self.txns.on_begin(t) {
            let ti = t.index();
            let Core { store, ct, cbegin, begin_epochs, .. } = self;
            store.increment(&mut ct[ti], ti);
            // Eager copy: `C_t` is mutated by the very next event of the
            // transaction, so sharing here would only defer (and
            // pessimise) the copy — see `ClockPool::copy_assign`.
            store.copy_assign(&mut cbegin[ti], &ct[ti]);
            begin_epochs[ti] = store.component(&cbegin[ti], ti);
        }
    }

    /// Lines 16–18: `L_ℓ := C_t` (O(1) share), `lastRelThr_ℓ := t`.
    pub(crate) fn release_lock(&mut self, t: ThreadId, l: LockId) {
        let (ti, li) = (t.index(), l.index());
        let Core { store, ct, lrel, last_rel_thr, .. } = self;
        store.assign(&mut lrel[li], &ct[ti]);
        last_rel_thr[li] = Some(t);
    }

    /// Lines 19–20: `C_u := C_u ⊔ C_t`, plus the fork-taint of the
    /// Algorithm 3 GC (a child forked from inside a transaction can
    /// always be entered by a cycle).
    pub(crate) fn fork(&mut self, t: ThreadId, u: ThreadId) {
        let (ti, ui) = (t.index(), u.index());
        let Core { store, ct, tainted, txns, .. } = self;
        if ti != ui {
            let (dst, src) = index_pair(ct, ui, ti);
            store.join_into(dst, src);
        }
        if txns.active(t) {
            tainted[ui] = true;
        }
    }

    /// `W_x := C_t` (O(1) share) and `lastWThr_x := t`.
    pub(crate) fn set_write_clock(&mut self, xi: usize, t: ThreadId) {
        let ti = t.index();
        let Core { store, ct, wx, last_w_thr, .. } = self;
        store.assign(&mut wx[xi], &ct[ti]);
        last_w_thr[xi] = Some(t);
    }

    /// `W_x := W_x ⊔ C_t` (end-event refresh through the update sets).
    pub(crate) fn join_wx_from_ct(&mut self, xi: usize, ti: usize) {
        let Core { store, ct, wx, .. } = self;
        store.join_into(&mut wx[xi], &ct[ti]);
    }

    /// Lines 38–42 of Algorithm 1: check the ending transaction's clock
    /// against every other thread's active transaction and push it into
    /// their clocks. These passive pushes update neither the GC taint nor
    /// the join counter (the receiving thread performed no event).
    pub(crate) fn end_check_threads(
        &mut self,
        eid: EventId,
        t: ThreadId,
        epoch: bool,
    ) -> Result<(), Violation> {
        let ti = t.index();
        let ct_t = self.store.clone_ref(&self.ct[ti]);
        let cb_epoch = self.begin_epoch(ti);
        let mut result = Ok(());
        for u in 0..self.ct.len() {
            if u == ti {
                continue;
            }
            let skip = if epoch {
                !self.store.contains_epoch(&self.ct[u], cb_epoch)
            } else {
                !self.store.leq(&self.cbegin[ti], &self.ct[u])
            };
            if skip {
                continue;
            }
            let u_id = ThreadId::from_index(u);
            let active_u = self.txns.active(u_id);
            let be_u = Epoch::new(u, self.begin_epochs[u]);
            let Core { store, ct, cbegin, .. } = self;
            if active_u && begin_reaches(&*store, &cbegin[u], be_u, &ct_t, epoch) {
                result = Err(Violation {
                    event: eid,
                    thread: u_id,
                    kind: ViolationKind::AtEnd { ending: t },
                });
                break;
            }
            store.join_into(&mut ct[u], &ct_t);
        }
        self.store.release(ct_t);
        result
    }

    /// Lines 43–44: push the ending clock into every lock clock the
    /// transaction's begin reaches.
    pub(crate) fn push_locks(&mut self, ti: usize, epoch: bool) {
        let Core { store, ct, cbegin, lrel, begin_epochs, .. } = self;
        let (ct_t, cb) = (&ct[ti], &cbegin[ti]);
        let cb_epoch = Epoch::new(ti, begin_epochs[ti]);
        for l in lrel.iter_mut() {
            let hit = if epoch { store.contains_epoch(l, cb_epoch) } else { store.leq(cb, l) };
            if hit {
                store.join_into(l, ct_t);
            }
        }
    }

    /// Lines 45–46 (Algorithms 1–2): push into every reached write clock.
    pub(crate) fn push_write_clocks(&mut self, ti: usize) {
        let Core { store, ct, cbegin, wx, .. } = self;
        let (ct_t, cb) = (&ct[ti], &cbegin[ti]);
        for w in wx.iter_mut() {
            if store.leq(cb, w) {
                store.join_into(w, ct_t);
            }
        }
    }

    /// `hasIncomingEdge(t)` of the Algorithm 3 GC, strengthened with the
    /// fork/program-order taint.
    pub(crate) fn has_incoming_edge(&self, ti: usize) -> bool {
        if self.tainted[ti] {
            return true;
        }
        let cb = self.store.view(&self.cbegin[ti]);
        let ct = self.store.view(&self.ct[ti]);
        let dim = ct.dim().max(cb.dim());
        (0..dim).any(|v| v != ti && ct.component(v) > cb.component(v))
    }
}

/// Per-algorithm transfer rules plugged into [`Engine`]: read/write
/// conflict handling and the end-event clock pushes. Everything else is
/// [`Core`].
pub trait Rules: Default {
    /// The clock storage backend this instantiation runs on.
    type Store: ClockStore;

    /// The [`Checker::name`] of the instantiated checker.
    const NAME: &'static str;

    /// Whether `⊑` checks use the O(1) epoch comparison (Algorithm 3)
    /// instead of the full pointwise order.
    const EPOCH_CHECKS: bool;

    /// Handles `⟨t, r(x)⟩`.
    ///
    /// # Errors
    ///
    /// Returns the violation declared by `checkAndGet`, if any.
    fn on_read(
        &mut self,
        core: &mut Core<Self::Store>,
        eid: EventId,
        t: ThreadId,
        x: VarId,
    ) -> Result<(), Violation>;

    /// Handles `⟨t, w(x)⟩`.
    ///
    /// # Errors
    ///
    /// Returns the violation declared by `checkAndGet`, if any.
    fn on_write(
        &mut self,
        core: &mut Core<Self::Store>,
        eid: EventId,
        t: ThreadId,
        x: VarId,
    ) -> Result<(), Violation>;

    /// Handles the *outermost* `⟨t, ⊳⟩` (nested ends are filtered by the
    /// engine).
    ///
    /// # Errors
    ///
    /// Returns the violation declared against another thread's active
    /// transaction, if any.
    fn on_end(
        &mut self,
        core: &mut Core<Self::Store>,
        eid: EventId,
        t: ThreadId,
    ) -> Result<(), Violation>;

    /// Session reset: empties the per-algorithm state so the next trace
    /// observes a freshly constructed rule set. Called by
    /// [`Engine::reset`] *after* the store reset has invalidated every
    /// clock handle — implementations overwrite or drop their handles
    /// without releasing them, keeping buffer capacity where the regrown
    /// state is observationally identical to a fresh one.
    fn reset(&mut self);
}

/// Default budget for clock storage retained across [`Engine::reset`]
/// calls, in bytes (per checker session).
///
/// Generous enough that every realistic working set survives a reset
/// untouched (the 1M-event acceptance workloads retain well under 64 KiB),
/// small enough that one adversarial trace with a six-figure thread count
/// cannot pin max-width buffers on a resident worker forever. Sessions
/// with special needs call [`Engine::reset_with_limit`].
pub const DEFAULT_RETAINED_CLOCK_BYTES: usize = 4 << 20;

/// The generic AeroDrome checker: common dispatch and bookkeeping from
/// [`Core`], per-algorithm behaviour from a [`Rules`] implementation.
#[derive(Debug, Default)]
pub struct Engine<R: Rules> {
    pub(crate) core: Core<R::Store>,
    pub(crate) rules: R,
    events: u64,
    stopped: Option<Violation>,
    /// Clock-store counters sampled at the last session reset; reports
    /// subtract it so a reused session reports per-trace numbers.
    clock_base: PoolStats,
}

impl<R: Rules> Engine<R> {
    /// Creates a checker with empty state; threads, locks and variables
    /// are allocated on first appearance.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Session reset with the default retained-storage budget
    /// ([`DEFAULT_RETAINED_CLOCK_BYTES`]); see
    /// [`Engine::reset_with_limit`].
    pub fn reset(&mut self) {
        self.reset_with_limit(DEFAULT_RETAINED_CLOCK_BYTES);
    }

    /// Resets the checker into a reusable *session* for the next trace:
    /// all per-trace state (clocks, tables, nesting, violation latch,
    /// counters) is cleared while the clock pool keeps its recycled
    /// buffers — capped at `max_retained_bytes` — so steady-state
    /// checking performs zero clock heap allocations **across** traces,
    /// not just within one. Verdicts and [`CheckerReport`] event/join
    /// counters over the next trace are bit-identical to a freshly
    /// constructed checker's; only the cumulative pool gauges differ.
    pub fn reset_with_limit(&mut self, max_retained_bytes: usize) {
        self.core.reset();
        self.core.store.trim(max_retained_bytes);
        self.rules.reset();
        self.events = 0;
        self.stopped = None;
        self.clock_base = self.core.store.stats();
    }

    /// The current clock `C_t` (a snapshot), if thread `t` has appeared.
    #[must_use]
    pub fn thread_clock(&self, t: ThreadId) -> Option<VectorClock> {
        self.core.ct.get(t.index()).map(|c| self.core.store.snapshot(c))
    }

    /// The begin clock `C⊲_t` (a snapshot), if thread `t` has appeared.
    #[must_use]
    pub fn begin_clock(&self, t: ThreadId) -> Option<VectorClock> {
        self.core.cbegin.get(t.index()).map(|c| self.core.store.snapshot(c))
    }

    /// The last-write clock `W_x` (a snapshot), if variable `x` has
    /// appeared.
    #[must_use]
    pub fn write_clock(&self, x: VarId) -> Option<VectorClock> {
        self.core.wx.get(x.index()).map(|c| self.core.store.snapshot(c))
    }

    /// The last-release clock `L_ℓ` (a snapshot), if lock `ℓ` has
    /// appeared.
    #[must_use]
    pub fn lock_clock(&self, l: LockId) -> Option<VectorClock> {
        self.core.lrel.get(l.index()).map(|c| self.core.store.snapshot(c))
    }

    /// Conflict-handler vector-clock joins performed so far —
    /// AeroDrome's work metric: bounded per event, so it grows linearly
    /// in the trace, unlike Velodrome's DFS visit count.
    #[must_use]
    pub fn clock_joins(&self) -> u64 {
        self.core.clock_joins
    }

    /// Clock-storage counters (allocations, copies, shares, joins),
    /// cumulative over the whole session — across resets. The per-trace
    /// view lives in [`Checker::report`].
    #[must_use]
    pub fn clock_stats(&self) -> PoolStats {
        self.core.store.stats()
    }

    fn handle(&mut self, event: Event, eid: EventId) -> Result<(), Violation> {
        let t = event.thread;
        let ti = t.index();
        let core = &mut self.core;
        core.ensure_thread(t);
        core.seen[ti] = true;
        match event.op {
            Op::Acquire(l) => {
                core.ensure_lock(l);
                // Lines 13–15.
                if core.last_rel_thr[l.index()] != Some(t) {
                    let active = core.txns.active(t);
                    if core.check_and_get(ti, active, active, Src::Lock(l.index()), R::EPOCH_CHECKS)
                    {
                        return Err(Violation {
                            event: eid,
                            thread: t,
                            kind: ViolationKind::AtAcquire(l),
                        });
                    }
                }
            }
            Op::Release(l) => {
                core.ensure_lock(l);
                core.release_lock(t, l);
            }
            Op::Fork(u) => {
                core.ensure_thread(u);
                core.fork(t, u);
            }
            Op::Join(u) => {
                core.ensure_thread(u);
                // Lines 21–22. The check only applies when the child
                // performed an event (see `seen`); the join always does.
                let active = core.txns.active(t);
                let check = active && core.seen[u.index()];
                if core.check_and_get(ti, check, active, Src::Thread(u.index()), R::EPOCH_CHECKS) {
                    return Err(Violation {
                        event: eid,
                        thread: t,
                        kind: ViolationKind::AtJoin(u),
                    });
                }
            }
            Op::Read(x) => {
                core.ensure_var(x);
                self.rules.on_read(core, eid, t, x)?;
            }
            Op::Write(x) => {
                core.ensure_var(x);
                self.rules.on_write(core, eid, t, x)?;
            }
            Op::Begin => core.begin(t),
            Op::End => {
                if core.txns.on_end(t) {
                    self.rules.on_end(core, eid, t)?;
                }
            }
        }
        Ok(())
    }
}

/// Checker engines are moved onto worker threads by the parallel
/// runtime: every store instantiation of every rule set must stay
/// `Send` (no `Rc`, no interior pointers into shared state). Asserted
/// at compile time so a regression fails the build, not a bench.
#[allow(dead_code)]
const fn assert_send<T: Send>() {}
const _: () = assert_send::<Engine<crate::basic::BasicRules<vc::ClockPool>>>();
const _: () = assert_send::<Engine<crate::basic::BasicRules<vc::store::Cloned>>>();
const _: () = assert_send::<Engine<crate::readopt::ReadOptRules<vc::ClockPool>>>();
const _: () = assert_send::<Engine<crate::readopt::ReadOptRules<vc::store::Cloned>>>();
const _: () = assert_send::<Engine<crate::optimized::OptimizedRules<vc::ClockPool>>>();
const _: () = assert_send::<Engine<crate::optimized::OptimizedRules<vc::store::Cloned>>>();

impl<R: Rules> Checker for Engine<R> {
    fn process(&mut self, event: Event) -> Result<(), Violation> {
        if let Some(v) = &self.stopped {
            return Err(v.clone());
        }
        let eid = EventId(self.events);
        self.events += 1;
        match self.handle(event, eid) {
            Ok(()) => Ok(()),
            Err(v) => {
                self.stopped = Some(v.clone());
                Err(v)
            }
        }
    }

    fn events_processed(&self) -> u64 {
        self.events
    }

    fn name(&self) -> &'static str {
        R::NAME
    }

    fn report(&self) -> CheckerReport {
        CheckerReport {
            name: R::NAME,
            events: self.events,
            clock_joins: self.core.clock_joins,
            // Per-trace: counters since the last session reset (the whole
            // run for a never-reset checker). Flat at zero from the second
            // trace of a warm resident session — the cross-trace
            // zero-allocation invariant.
            clocks: self.core.store.stats().delta_since(&self.clock_base),
        }
    }

    fn reset(&mut self) {
        Engine::reset(self);
    }

    fn trim(&mut self, max_retained_bytes: usize) {
        self.core.store.trim(max_retained_bytes);
    }
}
