//! Vector clock substrate for the AeroDrome atomicity checker.
//!
//! This crate implements the vector-time machinery of Section 4 of
//! *Atomicity Checking in Linear Time using Vector Clocks* (ASPLOS 2020):
//! vector times over a fixed set of threads, the pointwise partial order
//! `⊑`, the join `⊔`, and the substitution `V[c/t]`.
//!
//! A [`VectorClock`] is a dense vector of non-negative integers indexed by a
//! *thread index* (`usize`). The dimension is the number of threads `|Thr|`.
//! Clocks grow on demand so traces that fork threads mid-stream do not need
//! the final thread count up front; absent components read as `0`, matching
//! the paper's minimum time `⊥ = λt.0`.
//!
//! # Examples
//!
//! ```
//! use vc::VectorClock;
//!
//! // C_{t0} is initialised to ⊥[1/t0] in Algorithm 1.
//! let mut c0 = VectorClock::bottom().with_component(0, 1);
//! let c1 = VectorClock::bottom().with_component(1, 1);
//!
//! assert!(!c0.leq(&c1));
//! c0.join_from(&c1); // C_{t0} := C_{t0} ⊔ C_{t1}
//! assert!(c1.leq(&c0));
//! assert_eq!(c0.component(1), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod epoch;
pub mod pool;
pub mod store;

pub use clock::VectorClock;
pub use epoch::Epoch;
pub use pool::{ClockId, ClockPool, PoolClock, PoolStats};
pub use store::{ClockStore, Cloned};

/// The scalar type of a single vector-clock component.
///
/// The paper (footnote 2) argues word-sized components suffice even for
/// traces with billions of events; a thread would need to execute more than
/// `u32::MAX` *begin* events for a component to overflow. Overflow is
/// checked in debug builds.
pub type Time = u32;
