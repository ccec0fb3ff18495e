//! **AeroDrome** — single-pass, linear-time conflict-serializability
//! checking with vector clocks.
//!
//! This crate is the primary contribution of *Atomicity Checking in Linear
//! Time using Vector Clocks* (Mathur & Viswanathan, ASPLOS 2020),
//! implemented in three fidelity levels:
//!
//! * [`basic::BasicChecker`] — Algorithm 1 verbatim: per-thread clocks
//!   `C_t`/`C⊲_t`, per-lock clocks `L_ℓ`, per-variable write clocks `W_x`
//!   and per-(thread, variable) read clocks `R_{t,x}`.
//! * [`readopt::ReadOptChecker`] — Algorithm 2 (§4.3): the read clocks
//!   collapse to two per variable (`R_x`, `chR_x`), shrinking state from
//!   `O(|Thr|·V)` to `O(V)`.
//! * [`optimized::OptimizedChecker`] — Algorithm 3 (Appendix C.2): lazy
//!   clock updates via stale sets, per-thread update sets so end events
//!   touch only relevant variables, Velodrome-style garbage collection
//!   (`hasIncomingEdge`), and O(1) epoch comparisons justified by the
//!   algorithm's invariant (Appendix C.1). This is the variant the paper
//!   benchmarks.
//!
//! All three implement [`Checker`], the streaming event interface shared
//! with the Velodrome baseline, and report [`Violation`]s per Theorem 2.
//!
//! # Quickstart
//!
//! ```
//! use aerodrome::{optimized::OptimizedChecker, run_checker, Outcome};
//! use tracelog::paper_traces;
//!
//! let trace = paper_traces::rho2(); // Figure 2: not serializable
//! let mut checker = OptimizedChecker::new();
//! match run_checker(&mut checker, &trace) {
//!     Outcome::Violation(v) => assert_eq!(v.event.index(), 5), // e6
//!     Outcome::Serializable => unreachable!("ρ2 violates atomicity"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basic;
pub mod optimized;
pub mod readopt;
pub mod state;
mod util;
mod violation;

pub use state::CheckerReport;
pub use violation::{Violation, ViolationKind};

use tracelog::{Event, Trace};

/// A streaming conflict-serializability checker.
///
/// Implementations consume one event at a time (the online setting of the
/// paper) and return the first violation they detect. Once a violation has
/// been returned the checker is *stopped*: further calls keep returning the
/// same violation, mirroring the paper's "the algorithm exits".
pub trait Checker {
    /// Processes the next event of the trace.
    ///
    /// # Errors
    ///
    /// Returns the detected [`Violation`] as soon as the processed prefix
    /// is not conflict serializable (per the completeness guarantee of
    /// Theorem 3).
    fn process(&mut self, event: Event) -> Result<(), Violation>;

    /// Number of events processed so far (the stopping event included).
    fn events_processed(&self) -> u64;

    /// A short human-readable name for reports (e.g. `"aerodrome"`).
    fn name(&self) -> &'static str;

    /// End-of-run metrics. The default carries only the name and event
    /// count; the vector-clock checkers override it with their clock-core
    /// counters (joins, pool allocations) so callers can assert the
    /// zero-allocation steady-state invariant.
    fn report(&self) -> CheckerReport {
        CheckerReport {
            name: self.name(),
            events: self.events_processed(),
            ..CheckerReport::default()
        }
    }

    /// Session reset: returns the checker to its just-constructed
    /// behaviour — next trace's verdicts and per-trace report counters
    /// are bit-identical to a fresh checker's — while retaining warm
    /// internal storage (clock pools, table capacity, DFS scratch). This
    /// is what lets a resident process check an unbounded stream of
    /// traces through one set of checkers instead of constructing and
    /// tearing one down per trace.
    fn reset(&mut self);

    /// Storage trim: drops retained internal storage (recycled clock
    /// buffers) down to at most `max_retained_bytes`. Memory-budgeted
    /// hosts — the serving runtime's LRU session eviction — call this on
    /// an *idle* checker, right after [`Checker::reset`], to push a
    /// session's footprint below what the reset's default retention cap
    /// keeps. The default is a no-op for checkers without a retained
    /// pool.
    fn trim(&mut self, _max_retained_bytes: usize) {}
}

/// The verdict of running a checker over a complete trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// No violation detected: every witness of Definition 1 with at most
    /// one incomplete transaction is absent.
    Serializable,
    /// The trace is not conflict serializable; the violation records where
    /// detection happened.
    Violation(Violation),
}

impl Outcome {
    /// Whether the outcome is a violation.
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(self, Outcome::Violation(_))
    }

    /// The violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Outcome::Violation(v) => Some(v),
            Outcome::Serializable => None,
        }
    }
}

/// Runs `checker` over all events of `trace`, stopping at the first
/// violation.
///
/// # Examples
///
/// ```
/// use aerodrome::{basic::BasicChecker, run_checker};
///
/// let trace = tracelog::paper_traces::rho1(); // Figure 1: serializable
/// assert!(!run_checker(&mut BasicChecker::new(), &trace).is_violation());
/// ```
pub fn run_checker<C: Checker + ?Sized>(checker: &mut C, trace: &Trace) -> Outcome {
    for &event in trace {
        if let Err(v) = checker.process(event) {
            return Outcome::Violation(v);
        }
    }
    Outcome::Serializable
}
