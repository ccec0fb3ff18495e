//! Algorithm 2 — AeroDrome with the read-clock optimization (§4.3).
//!
//! Algorithm 1 keeps a clock `R_{t,x}` per (thread, variable) pair —
//! `O(|Thr|·V)` clocks. This variant keeps exactly two per variable:
//!
//! * `R_x`, maintaining `⊔_u R_{u,x}` (used to *update* the writer's
//!   clock), and
//! * `chR_x` ("check-read"), maintaining `⊔_u R_{u,x}[0/u]` (used to
//!   *check* for violations: zeroing each reader's own component makes a
//!   thread's begin never "see" its own reads, so
//!   `C⊲_t ⊑ chR_x ⟺ ∃u≠t. C⊲_t ⊑ R_{u,x}` under the algorithm's
//!   invariant, Appendix C.1).
//!
//! Common clocks and dispatch live in [`crate::state`]; this module
//! contributes the two-clock read table and its transfer rules.
//!
//! ### Deviation note
//!
//! The appendix pseudocode writes `R_x := C_t` / `chR_x := C_t[0/t]` at a
//! read event (plain assignment). Concurrent reads of the same variable by
//! different threads are unordered, so assignment would drop the earlier
//! reader's timestamp and break the stated invariant `R_x = ⊔_u R_{u,x}`;
//! we implement the join (`R_x := R_x ⊔ C_t`), which the invariant
//! requires. The differential test suite checks this variant against
//! Algorithm 1 event-for-event.

use tracelog::{EventId, ThreadId, VarId};
use vc::store::ClockStore;
use vc::{ClockPool, Cloned};

use crate::state::{Core, Engine, Rules, Src};
use crate::util::ensure_with;
use crate::violation::{Violation, ViolationKind};

/// Algorithm 2's transfer rules: the aggregated `R_x`/`chR_x` pair per
/// variable.
#[derive(Debug)]
pub struct ReadOptRules<S: ClockStore> {
    /// `R_x = ⊔_u R_{u,x}`.
    rx: Vec<S::Clock>,
    /// `chR_x = ⊔_u R_{u,x}[0/u]`.
    chrx: Vec<S::Clock>,
}

impl<S: ClockStore> Default for ReadOptRules<S> {
    fn default() -> Self {
        Self { rx: Vec::new(), chrx: Vec::new() }
    }
}

/// AeroDrome with `O(V)` read clocks (Algorithm 2) on the pooled store.
///
/// # Examples
///
/// ```
/// use aerodrome::{readopt::ReadOptChecker, run_checker};
///
/// let outcome = run_checker(&mut ReadOptChecker::new(), &tracelog::paper_traces::rho3());
/// assert_eq!(outcome.violation().unwrap().event.index(), 6); // e7
/// ```
pub type ReadOptChecker = Engine<ReadOptRules<ClockPool>>;

/// Algorithm 2 on the clone-happy baseline store (ablations only).
pub type ClonedReadOptChecker = Engine<ReadOptRules<Cloned>>;

impl<S: ClockStore> ReadOptRules<S> {
    fn ensure(&mut self, xi: usize) {
        ensure_with(&mut self.rx, xi, |_| S::bottom());
        ensure_with(&mut self.chrx, xi, |_| S::bottom());
    }
}

impl<S: ClockStore> Rules for ReadOptRules<S> {
    type Store = S;

    const NAME: &'static str = "aerodrome-readopt";
    const EPOCH_CHECKS: bool = false;

    fn on_read(
        &mut self,
        core: &mut Core<S>,
        eid: EventId,
        t: ThreadId,
        x: VarId,
    ) -> Result<(), Violation> {
        let (ti, xi) = (t.index(), x.index());
        self.ensure(xi);
        if core.last_w_thr[xi] != Some(t) {
            let active = core.txns.active(t);
            if core.check_and_get(ti, active, active, Src::WriteClock(xi), false) {
                return Err(Violation { event: eid, thread: t, kind: ViolationKind::AtRead(x) });
            }
        }
        // See the module-level deviation note: joins, not stores.
        let Core { store, ct, .. } = core;
        store.join_into(&mut self.rx[xi], &ct[ti]);
        store.join_into_zeroed(&mut self.chrx[xi], &ct[ti], ti);
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
        self.ensure(xi);
        let active = core.txns.active(t);
        if core.last_w_thr[xi] != Some(t)
            && core.check_and_get(ti, active, active, Src::WriteClock(xi), false)
        {
            return Err(Violation {
                event: eid,
                thread: t,
                kind: ViolationKind::AtWriteVsWrite(x),
            });
        }
        // The chR_x check is the single-component (epoch) test
        // `C⊲_t(t) ≤ chR_x(t)`: §4.3 derives it from
        // `∃u≠t. C⊲_t ⊑ R_{u,x}` through the invariant of Appendix C.1,
        // and a full `⊑` against the *aggregated* clock would be strictly
        // stronger (it can miss cycles whose witness read absorbed other
        // threads' components).
        if active && core.store.contains_epoch(&self.chrx[xi], core.begin_epoch(ti)) {
            return Err(Violation { event: eid, thread: t, kind: ViolationKind::AtWriteVsRead(x) });
        }
        core.join_ct_clk(ti, active, &self.rx[xi]);
        core.set_write_clock(xi, t);
        Ok(())
    }

    fn on_end(&mut self, core: &mut Core<S>, eid: EventId, t: ThreadId) -> Result<(), Violation> {
        let ti = t.index();
        core.end_check_threads(eid, t, false)?;
        core.push_locks(ti, false);
        core.push_write_clocks(ti);
        // Push condition on the aggregated read clock is also the epoch
        // test (`∃u. C⊲_t ⊑ R_{u,x}`), see `on_write`.
        let cb_epoch = core.begin_epoch(ti);
        let Core { store, ct, .. } = core;
        let ct_t = &ct[ti];
        for (rx, chrx) in self.rx.iter_mut().zip(&mut self.chrx) {
            if store.contains_epoch(rx, cb_epoch) {
                store.join_into(rx, ct_t);
                store.join_into_zeroed(chrx, ct_t, ti);
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        // Flat tables: clearing keeps capacity, and the dropped handles
        // were already invalidated by the store reset.
        self.rx.clear();
        self.chrx.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_checker, Outcome};
    use tracelog::paper_traces::{rho1, rho2, rho3, rho4};
    use tracelog::TraceBuilder;

    fn check(trace: &tracelog::Trace) -> Outcome {
        run_checker(&mut ReadOptChecker::new(), trace)
    }

    #[test]
    fn paper_traces_match_figures() {
        assert_eq!(check(&rho1()), Outcome::Serializable);
        assert_eq!(check(&rho2()).violation().unwrap().event.index(), 5);
        assert_eq!(check(&rho3()).violation().unwrap().event.index(), 6);
        assert_eq!(check(&rho4()).violation().unwrap().event.index(), 10);
    }

    #[test]
    fn concurrent_readers_are_both_remembered() {
        // Two threads read x inside transactions; a third writes x after
        // observing the second reader's transaction through y — the check
        // clock must still contain the FIRST reader (a plain store at the
        // read event would have dropped it).
        let mut tb = TraceBuilder::new();
        let (t1, t2, t3) = (tb.thread("t1"), tb.thread("t2"), tb.thread("t3"));
        let (x, y) = (tb.var("x"), tb.var("y"));
        tb.begin(t3).write(t3, y);
        tb.begin(t1).read(t1, x); // first reader …
        tb.read(t1, y); // … ordered after t3's begin via y
        tb.end(t1);
        tb.begin(t2).read(t2, x).end(t2); // second reader (independent)
        tb.write(t3, x); // rw conflict with BOTH readers
        tb.end(t3);
        // Cycle: T3 ⋖ T1 (via y) and T1 ⋖ T3 (via x) ⇒ violation at the
        // write, discoverable only through reader t1's clock.
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtWriteVsRead(_)));
        assert_eq!(v.thread, t3);
    }

    #[test]
    fn own_reads_never_trigger_own_write_check() {
        let mut tb = TraceBuilder::new();
        let t1 = tb.thread("t1");
        let x = tb.var("x");
        tb.begin(t1).read(t1, x).write(t1, x).end(t1);
        assert_eq!(check(&tb.finish()), Outcome::Serializable);
    }

    #[test]
    fn same_thread_write_after_other_read_still_checked() {
        // t1 wrote x last, but t2 read x in between; t1's second write
        // conflicts with t2's read even though lastWThr == t1.
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let (x, y) = (tb.var("x"), tb.var("y"));
        tb.begin(t1).write(t1, x).write(t1, y);
        tb.begin(t2).read(t2, y).read(t2, x).end(t2);
        tb.write(t1, x).end(t1); // lastWThr_x == t1, but t2's read intervened
        let v = check(&tb.finish()).violation().cloned().unwrap();
        assert!(matches!(v.kind, ViolationKind::AtWriteVsRead(_)));
        assert_eq!(v.thread, t1);
    }

    #[test]
    fn cloned_baseline_matches_pooled_exactly() {
        for trace in [rho1(), rho2(), rho3(), rho4()] {
            let pooled = run_checker(&mut ReadOptChecker::new(), &trace);
            let cloned = run_checker(&mut ClonedReadOptChecker::new(), &trace);
            assert_eq!(pooled, cloned);
        }
    }
}
