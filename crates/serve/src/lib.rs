//! The long-lived trace-checking service: `rapid serve` and its
//! closed-loop load generator `rapid loadgen`.
//!
//! The resident multi-trace runtime (`pipeline::multi`) made every
//! stateful layer a warm, reusable *session*; this crate puts a network
//! front end on those sessions — the ROADMAP's "millions of users"
//! item. One TCP connection is one live trace session: a client streams
//! name and event frames (the [`tracelog::wire`] binary codec inside a
//! length-framed protocol, [`protocol`]), a resident worker feeds them
//! straight into its checker panel batch by batch, and **verdicts are
//! pushed the moment a checker fires** — the checkers are online, so a
//! violation frame goes back mid-stream, not at end of trace.
//!
//! The moving parts:
//!
//! * [`protocol`] — frames, payload codecs, the incremental
//!   [`protocol::FrameBuf`] decoder. Pure bytes; normative spec in
//!   `docs/SERVICE.md`.
//! * [`session`] — the per-connection state machine over the
//!   `pipeline` seams ([`session::Session`]): handshake, name sync,
//!   batch feeding with online verdict push, end-of-trace summaries
//!   (the wire twin of a sealed reference verdict), per-session
//!   poisoning with frame/event attribution.
//! * [`server`] — std-only acceptor + ≤ `--jobs` resident workers
//!   ([`server::Server`]); least-loaded admission, worker-owned
//!   connections, a global retained-clock budget enforced by LRU
//!   eviction ([`server::ServeConfig::max_retained_bytes`]).
//! * [`client`] — the blocking client library ([`client::Client`]):
//!   streams any `EventSource`, measures per-verdict latency
//!   closed-loop.
//! * [`loadgen`] — N-connection closed-loop driver ([`loadgen::run`])
//!   reporting connections × events/s × p50/p99 verdict latency.
//!
//! Verdict fidelity is the design invariant everything here preserves:
//! a trace streamed over the socket produces **bit-identical** verdicts
//! to `rapid check` / `rapid compare` on the same events, because the
//! session drives the same checkers through the same
//! `pipeline::feed_panel` loop the offline runtimes use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, TraceResult};
pub use loadgen::{LoadConfig, LoadReport};
pub use protocol::{ErrorCode, StatsFrame, SummaryFrame, VerdictFrame};
pub use server::{ServeConfig, Server, ServerHandle, DEFAULT_MAX_RETAINED_BYTES};
pub use session::{FrameOutcome, Session};
