//! **Velodrome** — the transaction-graph baseline (Flanagan–Freund–Yi,
//! PLDI 2008) the paper compares against.
//!
//! Velodrome maintains a directed graph whose nodes are transactions
//! (including *unary* transactions for events outside atomic blocks) and
//! whose edges are the `⋖_Txn` dependencies induced by conflicting
//! events: program order, read/write conflicts via last-writer and
//! last-readers metadata, lock release→acquire, and fork/join. An edge
//! insertion that closes a cycle is a conflict-serializability violation
//! (Definition 1).
//!
//! Each insertion triggers a depth-first reachability query over the
//! current graph — the number of edges can grow quadratically with the
//! trace, giving the overall cubic bound that motivates AeroDrome.
//! **Garbage collection** ([`Config::gc`], on by default — the paper's
//! Velodrome implements it too) keeps the graph small: completed
//! transactions with no incoming edges cannot participate in cycles and
//! are removed, with cascading deletion of newly sourceless successors.
//!
//! [`VelodromeChecker`] implements the same [`aerodrome::Checker`] trait
//! as the vector-clock algorithms so the two families are benchmarked and
//! differentially tested on identical traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;

pub use checker::{Config, VelodromeChecker, VelodromeStats};

/// The parallel runtime runs Velodrome on a worker thread next to the
/// vector-clock checkers; the graph substrate (arena handles, DFS
/// scratch) must stay `Send`. Compile-time assert so a regression fails
/// the build.
#[allow(dead_code)]
const fn assert_send<T: Send>() {}
const _: () = assert_send::<VelodromeChecker>();
