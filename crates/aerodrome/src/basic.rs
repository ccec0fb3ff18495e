//! Algorithm 1 — the basic AeroDrome vector-clock algorithm, verbatim.
//!
//! State (§4.1.1): per-thread clocks `C_t` (timestamp of the thread's last
//! event) and `C⊲_t` (timestamp of its last begin event); per-lock clocks
//! `L_ℓ` (last release); per-variable write clocks `W_x` (last write) and
//! per-(thread, variable) read clocks `R_{t,x}`; scalar last-writer /
//! last-releaser thread markers so consecutive transactions along a
//! `∗→` path stay distinct.
//!
//! Violations are declared by `checkAndGet` per Theorem 2: at a conflict
//! event `e` of thread `t` when `C⊲_t ⊑ clk` (the begin of `t`'s active
//! transaction `⋖_E`-reaches an event that `⋖_E`-reaches `e`), and at end
//! events against every other thread's active transaction.
//!
//! The common clocks and event dispatch live in [`crate::state`]; this
//! module contributes only Algorithm 1's read-clock table and transfer
//! rules. [`BasicChecker`] runs on the pooled clock store (clone-free);
//! [`ClonedBasicChecker`] is the clone-per-transfer baseline kept for the
//! ablation benches.

use tracelog::{EventId, ThreadId, VarId};
use vc::store::ClockStore;
use vc::{ClockPool, Cloned};

use crate::state::{Core, Engine, Rules, Src};
use crate::util::ensure_with;
use crate::violation::{Violation, ViolationKind};

/// Algorithm 1's transfer rules: the full `R_{t,x}` table —
/// `O(|Thr|·V)` clocks — and eager pushes at end events.
#[derive(Debug)]
pub struct BasicRules<S: ClockStore> {
    /// `R_{t,x}` stored as `rx[x][t]`.
    rx: Vec<Vec<S::Clock>>,
}

impl<S: ClockStore> Default for BasicRules<S> {
    fn default() -> Self {
        Self { rx: Vec::new() }
    }
}

/// The basic AeroDrome checker (Algorithm 1) on the pooled clock store.
///
/// Space is `O(|Thr|·(|Thr| + V + L))` vector-clock entries — the
/// `R_{t,x}` table dominates; see [`crate::readopt`] for the `O(V)`
/// variant and [`crate::optimized`] for the benchmarked one.
///
/// # Examples
///
/// ```
/// use aerodrome::{basic::BasicChecker, run_checker};
///
/// let mut checker = BasicChecker::new();
/// let outcome = run_checker(&mut checker, &tracelog::paper_traces::rho4());
/// assert_eq!(outcome.violation().unwrap().event.index(), 10); // e11
/// ```
pub type BasicChecker = Engine<BasicRules<ClockPool>>;

/// Algorithm 1 on the clone-happy baseline store (ablation benches and
/// pooled-vs-cloned differential tests only).
pub type ClonedBasicChecker = Engine<BasicRules<Cloned>>;

impl<S: ClockStore> BasicRules<S> {
    fn ensure(&mut self, xi: usize, ti: usize) {
        ensure_with(&mut self.rx, xi, |_| Vec::new());
        ensure_with(&mut self.rx[xi], ti, |_| S::bottom());
    }
}

impl<S: ClockStore> Rules for BasicRules<S> {
    type Store = S;

    const NAME: &'static str = "aerodrome-basic";
    const EPOCH_CHECKS: bool = false;

    fn on_read(
        &mut self,
        core: &mut Core<S>,
        eid: EventId,
        t: ThreadId,
        x: VarId,
    ) -> Result<(), Violation> {
        let (ti, xi) = (t.index(), x.index());
        self.ensure(xi, ti);
        // Lines 23–26.
        if core.last_w_thr[xi] != Some(t) {
            let active = core.txns.active(t);
            if core.check_and_get(ti, active, active, Src::WriteClock(xi), false) {
                return Err(Violation { event: eid, thread: t, kind: ViolationKind::AtRead(x) });
            }
        }
        // R_{t,x} := C_t (an O(1) share on the pooled store).
        let Core { store, ct, .. } = core;
        store.assign(&mut self.rx[xi][ti], &ct[ti]);
        Ok(())
    }

    fn on_write(
        &mut self,
        core: &mut Core<S>,
        eid: EventId,
        t: ThreadId,
        x: VarId,
    ) -> Result<(), Violation> {
        let (ti, xi) = (t.index(), x.index());
        self.ensure(xi, ti);
        let active = core.txns.active(t);
        // Lines 27–29: write/write conflict.
        if core.last_w_thr[xi] != Some(t)
            && core.check_and_get(ti, active, active, Src::WriteClock(xi), false)
        {
            return Err(Violation {
                event: eid,
                thread: t,
                kind: ViolationKind::AtWriteVsWrite(x),
            });
        }
        // Lines 30–31: read/write conflicts with every other thread.
        for u in 0..self.rx[xi].len() {
            if u == ti {
                continue;
            }
            if core.check_and_get_clk(ti, active, active, &self.rx[xi][u], false) {
                return Err(Violation {
                    event: eid,
                    thread: t,
                    kind: ViolationKind::AtWriteVsRead(x),
                });
            }
        }
        // Lines 32–33.
        core.set_write_clock(xi, t);
        Ok(())
    }

    fn on_end(&mut self, core: &mut Core<S>, eid: EventId, t: ThreadId) -> Result<(), Violation> {
        let ti = t.index();
        // Lines 37–42.
        core.end_check_threads(eid, t, false)?;
        // Lines 43–46.
        core.push_locks(ti, false);
        core.push_write_clocks(ti);
        let Core { store, ct, cbegin, .. } = core;
        let (ct_t, cb) = (&ct[ti], &cbegin[ti]);
        for row in &mut self.rx {
            for r in row.iter_mut() {
                if store.leq(cb, r) {
                    store.join_into(r, ct_t);
                }
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        // Keep the outer per-variable rows (empty rows are invisible to
        // the transfer rules) so their inner buffers survive the reset;
        // the handles they held were invalidated by the store reset.
        for row in &mut self.rx {
            row.clear();
        }
    }
}

impl<S: ClockStore> Engine<BasicRules<S>> {
    /// The read clock `R_{t,x}` (a snapshot), if allocated.
    #[must_use]
    pub fn read_clock(&self, t: ThreadId, x: VarId) -> Option<vc::VectorClock> {
        self.rules
            .rx
            .get(x.index())
            .and_then(|row| row.get(t.index()))
            .map(|c| self.core.store.snapshot(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_checker, Checker, Outcome};
    use tracelog::paper_traces::{rho1, rho2, rho3, rho4};
    use tracelog::TraceBuilder;
    use vc::VectorClock;

    fn check(trace: &tracelog::Trace) -> Outcome {
        run_checker(&mut BasicChecker::new(), trace)
    }

    #[test]
    fn rho1_is_serializable() {
        assert_eq!(check(&rho1()), Outcome::Serializable);
    }

    #[test]
    fn rho2_violation_at_e6() {
        let v = check(&rho2()).violation().cloned().unwrap();
        assert_eq!(v.event.index(), 5);
        assert_eq!(v.thread.index(), 0); // t1's active transaction
        assert!(matches!(v.kind, ViolationKind::AtRead(_)));
    }

    #[test]
    fn rho3_violation_at_end_e7() {
        let v = check(&rho3()).violation().cloned().unwrap();
        assert_eq!(v.event.index(), 6);
        assert_eq!(v.thread.index(), 1); // t2's active transaction
        assert!(matches!(v.kind, ViolationKind::AtEnd { ending } if ending.index() == 0));
    }

    #[test]
    fn rho4_violation_at_e11() {
        let v = check(&rho4()).violation().cloned().unwrap();
        assert_eq!(v.event.index(), 10);
        assert_eq!(v.thread.index(), 0);
        assert!(matches!(v.kind, ViolationKind::AtRead(_)));
    }

    /// Compares a clock against expected components, ignoring trailing
    /// zeros (Eq on [`VectorClock`] is structural).
    fn assert_clock(actual: &VectorClock, expected: &[u32]) {
        let dim = expected.len().max(actual.dim());
        for t in 0..dim {
            assert_eq!(
                actual.component(t),
                expected.get(t).copied().unwrap_or(0),
                "component {t} of {actual} != expected {expected:?}"
            );
        }
    }

    #[test]
    fn figure5_clock_evolution_on_rho2() {
        // Replays Figure 5 event by event.
        let trace = rho2();
        let mut c = BasicChecker::new();
        let t1 = ThreadId::from_index(0);
        let t2 = ThreadId::from_index(1);
        let x = VarId::from_index(0);
        let y = VarId::from_index(1);

        c.process(trace[0]).unwrap(); // e1 ⊲ t1
        assert_clock(&c.thread_clock(t1).unwrap(), &[2, 0]);
        c.process(trace[1]).unwrap(); // e2 ⊲ t2
        assert_clock(&c.thread_clock(t2).unwrap(), &[0, 2]);
        c.process(trace[2]).unwrap(); // e3 w(x) t1
        assert_clock(&c.write_clock(x).unwrap(), &[2, 0]);
        c.process(trace[3]).unwrap(); // e4 r(x) t2
        assert_clock(&c.thread_clock(t2).unwrap(), &[2, 2]);
        c.process(trace[4]).unwrap(); // e5 w(y) t2
        assert_clock(&c.write_clock(y).unwrap(), &[2, 2]);
        let err = c.process(trace[5]).unwrap_err(); // e6 r(y) t1: violation
        assert_eq!(err.event.index(), 5);
    }

    #[test]
    fn figure7_clock_evolution_on_rho4() {
        let trace = rho4();
        let mut c = BasicChecker::new();
        let t3 = ThreadId::from_index(2);
        let y = VarId::from_index(1);
        let z = VarId::from_index(2);
        for e in trace.events().iter().take(6) {
            c.process(*e).unwrap(); // e1..e6
        }
        // After e6 (end of t2), W_y is pushed to ⟨2,2,0⟩ (line 44).
        assert_clock(&c.write_clock(y).unwrap(), &[2, 2, 0]);
        for e in trace.events().iter().skip(6).take(3) {
            c.process(*e).unwrap(); // e7..e9
        }
        assert_clock(&c.thread_clock(t3).unwrap(), &[2, 2, 2]);
        assert_clock(&c.write_clock(z).unwrap(), &[2, 2, 2]);
        c.process(trace[9]).unwrap(); // e10
        let err = c.process(trace[10]).unwrap_err(); // e11: violation
        assert_eq!(err.event.index(), 10);
    }

    #[test]
    fn lock_protected_cycle_is_detected_at_acquire() {
        // T1 releases a lock mid-transaction; T2 updates x under the lock;
        // T1 re-acquires: classic non-atomic read-modify-write.
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("x");
        tb.begin(t1).acquire(t1, l).read(t1, x).release(t1, l);
        tb.begin(t2).acquire(t2, l).write(t2, x).release(t2, l).end(t2);
        tb.acquire(t1, l);
        tb.write(t1, x).release(t1, l).end(t1);
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtAcquire(_)));
        assert_eq!(v.thread, t1);
        assert_eq!(v.event.index(), 9);
    }

    #[test]
    fn fork_join_spanning_transaction_is_a_cycle() {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let x = tb.var("x");
        tb.begin(t1).fork(t1, t2);
        tb.begin(t2).write(t2, x).end(t2);
        tb.join(t1, t2).end(t1);
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtJoin(u) if u == t2));
    }

    #[test]
    fn fork_join_outside_transactions_is_fine() {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let x = tb.var("x");
        tb.fork(t1, t2);
        tb.begin(t2).write(t2, x).end(t2);
        tb.join(t1, t2);
        tb.begin(t1).read(t1, x).end(t1);
        assert_eq!(check(&tb.finish()), Outcome::Serializable);
    }

    #[test]
    fn unary_transactions_never_trigger_violations() {
        // Same access pattern as ρ2 but t1 has no transaction: the cycle
        // would need two non-unary transactions.
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let (x, y) = (tb.var("x"), tb.var("y"));
        tb.begin(t2);
        tb.write(t1, x);
        tb.read(t2, x);
        tb.write(t2, y);
        tb.read(t1, y);
        tb.end(t2);
        assert_eq!(check(&tb.finish()), Outcome::Serializable);
    }

    #[test]
    fn nested_transactions_use_outermost_boundaries() {
        // ρ2 with an extra nested block inside t1's transaction: same
        // violation, same event position shifted by the two inner events.
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let (x, y) = (tb.var("x"), tb.var("y"));
        tb.begin(t1);
        tb.begin(t1); // nested: ignored
        tb.begin(t2);
        tb.write(t1, x);
        tb.read(t2, x);
        tb.write(t2, y);
        tb.end(t1); // nested: ignored
        tb.read(t1, y);
        tb.end(t1);
        tb.end(t2);
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtRead(_)));
        assert_eq!(v.thread, t1);
    }

    #[test]
    fn write_write_cycle_detected() {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let (x, y) = (tb.var("x"), tb.var("y"));
        tb.begin(t1).write(t1, x);
        tb.begin(t2).write(t2, x).write(t2, y).end(t2);
        tb.write(t1, y).end(t1);
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtWriteVsWrite(_)));
        assert_eq!(v.thread, t1);
    }

    #[test]
    fn read_write_conflict_at_write_detected() {
        // t2 reads x inside its txn; t1 then writes x inside its txn after
        // having already been observed by t2 through y.
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let (x, y) = (tb.var("x"), tb.var("y"));
        tb.begin(t1).write(t1, y);
        tb.begin(t2).read(t2, y).read(t2, x).end(t2);
        tb.write(t1, x).end(t1);
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtWriteVsRead(_)));
        assert_eq!(v.thread, t1);
    }

    #[test]
    fn checker_stays_stopped_after_violation() {
        let trace = rho2();
        let mut c = BasicChecker::new();
        let mut first = None;
        for &e in &trace {
            if let Err(v) = c.process(e) {
                first = Some(v);
                break;
            }
        }
        let first = first.unwrap();
        // Feeding more events keeps returning the same violation.
        let again = c.process(trace[6]).unwrap_err();
        assert_eq!(again, first);
        assert_eq!(c.events_processed(), 6);
    }

    #[test]
    fn serializable_lock_discipline_passes() {
        // Two threads incrementing a counter, each transaction fully
        // protected by the same lock: serializable.
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("ctr");
        for _ in 0..3 {
            tb.begin(t1).acquire(t1, l).read(t1, x).write(t1, x).release(t1, l).end(t1);
            tb.begin(t2).acquire(t2, l).read(t2, x).write(t2, x).release(t2, l).end(t2);
        }
        assert_eq!(check(&tb.finish()), Outcome::Serializable);
    }

    #[test]
    fn same_thread_rewrite_skips_check() {
        // lastWThr_x == t: no self-conflict, even inside a transaction.
        let mut tb = TraceBuilder::new();
        let t1 = tb.thread("t1");
        let x = tb.var("x");
        tb.begin(t1).write(t1, x).write(t1, x).read(t1, x).end(t1);
        assert_eq!(check(&tb.finish()), Outcome::Serializable);
    }

    #[test]
    fn cloned_baseline_matches_pooled_exactly() {
        for trace in [rho1(), rho2(), rho3(), rho4()] {
            let pooled = run_checker(&mut BasicChecker::new(), &trace);
            let cloned = run_checker(&mut ClonedBasicChecker::new(), &trace);
            assert_eq!(pooled, cloned);
        }
    }
}
