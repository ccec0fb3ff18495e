//! Directed-graph substrate for the Velodrome baseline.
//!
//! The Velodrome algorithm (Flanagan–Freund–Yi, PLDI 2008) maintains a
//! *transaction graph* — transactions as nodes, `⋖_Txn` dependencies as
//! edges — and reports an atomicity violation when an edge insertion
//! closes a cycle. The paper's Rapid implementation uses JGraphT for this;
//! we build the same operations natively:
//!
//! * [`DiGraph`] — slot-map directed graph with O(1) node insert/remove,
//!   per-node adjacency, and duplicate-edge detection;
//! * [`dfs`] — reachability/cycle queries by depth-first search (the
//!   strategy whose worst case gives Velodrome its cubic bound).
//!
//! # Examples
//!
//! ```
//! use digraph::DiGraph;
//!
//! let mut g: DiGraph<&str> = DiGraph::new();
//! let a = g.add_node("T0");
//! let b = g.add_node("T1");
//! g.add_edge(a, b);
//! assert!(digraph::dfs::reaches(&g, a, b));
//! assert!(!digraph::dfs::creates_cycle(&g, a, b)); // duplicate edge: fine
//! assert!(digraph::dfs::creates_cycle(&g, b, a)); // back edge: cycle
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dfs;
mod graph;

pub use graph::{DiGraph, NodeId, NodeRef};

/// Velodrome engines move across threads in the parallel runtime; the
/// whole substrate (arena graph, DFS scratch) must stay `Send`. Asserted
/// at compile time.
#[allow(dead_code)]
const fn assert_send<T: Send>() {}
const _: () = assert_send::<DiGraph<u64>>();
const _: () = assert_send::<dfs::Searcher>();
