//! Execution-trace model for the AeroDrome atomicity checker.
//!
//! Implements the preliminaries of Section 2 of *Atomicity Checking in
//! Linear Time using Vector Clocks* (ASPLOS 2020): traces as sequences of
//! events `⟨t, op⟩` where `op` is one of `r(x)`, `w(x)`, `acq(ℓ)`,
//! `rel(ℓ)`, `fork(u)`, `join(u)`, `⊲` (begin) and `⊳` (end), together
//! with
//!
//! * interned, dense identifiers for threads, locks and variables
//!   ([`ids`]),
//! * a growable [`Trace`] container and ergonomic [`TraceBuilder`]
//!   ([`trace`]),
//! * well-formedness validation per the paper's assumptions, both batch
//!   ([`validate::validate`]) and streaming ([`validate::Validator`]),
//! * transaction segmentation, including nested and unary transactions
//!   ([`txn`]),
//! * the RAPID-style `.std` text format ([`parser`]), and the streaming
//!   event-source API it is built on ([`stream`]): constant-memory
//!   ingestion from readers, in-memory traces or generators,
//! * the `MetaInfo` statistics of Tables 1–2, columns 2–6 ([`stats`]),
//! * the paper's example traces ρ1–ρ4 ([`paper_traces`]).
//!
//! # Examples
//!
//! ```
//! use tracelog::{Op, TraceBuilder};
//!
//! let mut tb = TraceBuilder::new();
//! let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
//! let x = tb.var("x");
//! tb.begin(t1);
//! tb.write(t1, x);
//! tb.begin(t2);
//! tb.read(t2, x);
//! tb.end(t2);
//! tb.end(t1);
//! let trace = tb.finish();
//! assert_eq!(trace.len(), 6);
//! assert!(matches!(trace[1].op, Op::Write(v) if v == x));
//! ```

// `deny`, not `forbid`: the one place unsafe exists is the contained
// `binfmt::map` mmap FFI module, which opts back in explicitly.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod ids;
pub mod paper_traces;
pub mod parser;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod txn;
pub mod validate;
pub mod wire;

pub use binfmt::{AnySource, BinTrace, BinfmtError, MmapSource};
pub use ids::{Interner, LockId, ThreadId, VarId};
pub use parser::{parse_trace, write_trace, ParseTraceError};
pub use stats::{MetaCollector, MetaInfo};
pub use stream::{
    EventBatch, EventSource, OwnedTraceSource, SourceError, SourceNames, StdReader, TraceSource,
};
pub use trace::{Event, EventId, Op, Trace, TraceBuilder};
pub use txn::{Transaction, TransactionId, Transactions};
pub use validate::{validate, Validator, ValiditySummary, WellFormedError};
