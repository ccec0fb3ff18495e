//! **aerodrome-suite** — umbrella crate for the reproduction of
//! *Atomicity Checking in Linear Time using Vector Clocks*
//! (Mathur & Viswanathan, ASPLOS 2020).
//!
//! The workspace is organised as one crate per subsystem; this crate
//! re-exports the public API, hosts the runnable examples and the
//! cross-crate integration tests:
//!
//! * [`vc`] — vector clocks and epochs;
//! * [`tracelog`] — the execution-trace model, `.std` parser, validator,
//!   statistics and the paper's example traces ρ1–ρ4;
//! * [`aerodrome`] — the paper's contribution: three fidelity levels of
//!   the linear-time vector-clock checker (Algorithms 1–3);
//! * [`velodrome`] — the cubic transaction-graph baseline;
//! * [`digraph`] — the graph substrate with DFS cycle detection;
//! * [`workloads`] — deterministic trace generators and the Table 1/2
//!   benchmark profiles;
//! * [`oracle`] — a quadratic, Definition-1-faithful decision procedure
//!   used as differential-testing ground truth.
//!
//! # Quickstart
//!
//! ```
//! use aerodrome_suite::prelude::*;
//!
//! // Record (or log) an execution trace…
//! let mut tb = TraceBuilder::new();
//! let (t1, t2) = (tb.thread("worker-1"), tb.thread("worker-2"));
//! let balance = tb.var("balance");
//! tb.begin(t1);
//! tb.read(t1, balance); //   t1 reads …
//! tb.begin(t2);
//! tb.write(t2, balance); //  … t2 updates in between …
//! tb.end(t2);
//! tb.write(t1, balance); //  … t1 writes a stale value.
//! tb.end(t1);
//! let trace = tb.finish();
//!
//! // … and check it for conflict-serializability violations online.
//! let mut checker = OptimizedChecker::new();
//! match run_checker(&mut checker, &trace) {
//!     Outcome::Violation(v) => println!("{}", v.display_with(&trace)),
//!     Outcome::Serializable => println!("atomic ✓"),
//! }
//! # assert!(run_checker(&mut OptimizedChecker::new(), &trace).is_violation());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aerodrome;
pub use digraph;
pub use oracle;
pub use scenarios;
pub use tracelog;
pub use vc;
pub use velodrome;
pub use workloads;

pub mod pipeline;

pub use pipeline::{Pipeline, PipelineReport};

/// One-stop imports for the common checking workflow.
pub mod prelude {
    pub use crate::pipeline::par::{check_all, standard_checkers, ParConfig, ParReport};
    pub use crate::pipeline::{Pipeline, PipelineReport};
    pub use aerodrome::basic::BasicChecker;
    pub use aerodrome::optimized::OptimizedChecker;
    pub use aerodrome::readopt::ReadOptChecker;
    pub use aerodrome::{run_checker, Checker, Outcome, Violation, ViolationKind};
    pub use tracelog::stream::{collect_trace, Validated};
    pub use tracelog::{
        parse_trace, validate, write_trace, Event, EventId, EventSource, LockId, MetaInfo, Op,
        SourceError, StdReader, ThreadId, Trace, TraceBuilder, Validator, VarId,
    };
    pub use vc::{Epoch, VectorClock};
    pub use velodrome::VelodromeChecker;
    pub use workloads::{generate, GenConfig, GenSource};
}
