//! One live trace session: the per-connection protocol state machine.
//!
//! A [`Session`] owns exactly the resident state a `pipeline::multi`
//! worker owns — a checker panel, a validator, a reusable
//! [`EventBatch`] arena and the three name tables — and advances it one
//! *frame* at a time instead of one file at a time. It is pure with
//! respect to I/O: the server (and the tests) hand it decoded frames
//! and collect the bytes it wants sent back, so every protocol rule
//! here is exercised without a socket.
//!
//! The state machine (normative version in `docs/SERVICE.md`):
//!
//! ```text
//! AwaitHello --HELLO--> Streaming --END--> (SUMMARY, reset) Streaming …
//!      |                    |
//!      +---anything else----+--bad frame / ill-formed event--> Poisoned
//! ```
//!
//! Poisoning is **per session**: the server sends the [`ErrorFrame`]
//! this module produced — with frame and event attribution — and closes
//! that one connection; neighbouring sessions never observe it.
//! Verdicts are pushed the moment a checker fires mid-batch
//! ([`pipeline::feed_panel`]'s `on_violation` hook), not at end of
//! trace — the online half of the paper's claim, surfaced on the wire.

use aerodrome::Violation;
use aerodrome_suite::pipeline::{self, par::SendChecker};
use tracelog::stream::{EventBatch, SourceNames};
use tracelog::wire::{self, IdBounds};
use tracelog::{Interner, Validator};

use crate::protocol::{
    self, encode_error, encode_summary, encode_verdict, put_frame, ErrorCode, ErrorFrame, Kind,
    SummaryFrame, SummaryRun, VerdictFrame,
};

/// What a frame did to the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Session advanced; nothing for the host to do.
    Progress,
    /// An `END` frame completed a trace: the summary is in the output
    /// and the session has already reset for the connection's next
    /// trace.
    TraceDone,
    /// The client asked for server statistics — only the host knows
    /// them, so it must append the `STATS_REPLY` frame itself.
    StatsRequested,
    /// The session is poisoned: an error frame is in the output, the
    /// host should flush it and close the connection.
    Poisoned,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    AwaitHello,
    Streaming,
    Poisoned,
}

/// A resident checking session bound to one connection.
pub struct Session {
    checkers: Vec<SendChecker>,
    violations: Vec<Option<Violation>>,
    validator: Validator,
    validate: bool,
    batch: EventBatch,
    threads: Interner,
    locks: Interner,
    vars: Interner,
    /// Events fed to the panel this trace (the well-formed prefix on a
    /// poisoned trace).
    events: u64,
    /// Frames received on this connection, for error attribution.
    frames: u64,
    /// Whether the current trace has started arriving (names or
    /// events since the last reset) — an evicted mid-trace session
    /// cannot be resumed, an idle one can be re-admitted fresh.
    mid_trace: bool,
    state: State,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("state", &self.state)
            .field("events", &self.events)
            .field("frames", &self.frames)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Creates a session owning `checkers` as its panel.
    #[must_use]
    pub fn new(checkers: Vec<SendChecker>, validate: bool, batch_events: usize) -> Self {
        let violations = vec![None; checkers.len()];
        Self {
            checkers,
            violations,
            validator: Validator::new(),
            validate,
            batch: EventBatch::with_target(batch_events),
            threads: Interner::new(),
            locks: Interner::new(),
            vars: Interner::new(),
            events: 0,
            frames: 0,
            mid_trace: false,
            state: State::AwaitHello,
        }
    }

    /// Whether the session is past the handshake and alive.
    #[must_use]
    pub fn is_streaming(&self) -> bool {
        self.state == State::Streaming
    }

    /// Whether a trace is currently arriving (frames seen since the
    /// last trace boundary).
    #[must_use]
    pub fn is_mid_trace(&self) -> bool {
        self.mid_trace
    }

    /// Whether the session has been poisoned.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.state == State::Poisoned
    }

    /// Clock bytes this session's panel currently retains — the gauge
    /// the server sums against its `--max-retained-bytes` budget.
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        self.checkers.iter().map(|c| c.report().clocks.retained_bytes as u64).sum()
    }

    /// Idle eviction: drops all retained storage (reset + trim to
    /// zero). Only meaningful between traces — the per-trace name/reset
    /// contract means a correct client cannot observe it except as cold
    /// clock pools on its next trace ("re-admitted fresh").
    ///
    /// The host must not call this mid-trace; mid-trace eviction is
    /// [`Session::poison_evicted`] instead.
    pub fn evict_idle(&mut self) {
        debug_assert!(!self.mid_trace, "idle eviction on a live trace");
        self.reset_for_next_trace();
        for checker in &mut self.checkers {
            checker.trim(0);
        }
    }

    /// Mid-trace eviction: appends the documented `EVICTED` error frame
    /// and poisons the session. The host flushes and closes; a client
    /// that reconnects starts a fresh session.
    pub fn poison_evicted(&mut self, out: &mut Vec<u8>) {
        self.fail(
            ErrorCode::Evicted,
            "session evicted under the server's retained-memory budget; reconnect to resume"
                .to_owned(),
            out,
        );
    }

    /// Feeds one decoded frame through the state machine, appending any
    /// server frames (welcome, verdicts, summary, errors) to `out`.
    pub fn handle_frame(&mut self, kind: Kind, payload: &[u8], out: &mut Vec<u8>) -> FrameOutcome {
        self.frames += 1;
        match self.state {
            // A poisoned session ignores everything; the host is
            // already tearing the connection down.
            State::Poisoned => FrameOutcome::Poisoned,
            State::AwaitHello => self.handle_hello(kind, payload, out),
            State::Streaming => match kind {
                Kind::Hello => {
                    self.protocol_error("repeated HELLO".to_owned(), out);
                    FrameOutcome::Poisoned
                }
                Kind::Names => self.handle_names(payload, out),
                Kind::Events => self.handle_events(payload, out),
                Kind::End => self.handle_end(payload, out),
                Kind::Stats => {
                    if payload.is_empty() {
                        FrameOutcome::StatsRequested
                    } else {
                        self.protocol_error("STATS carries no payload".to_owned(), out);
                        FrameOutcome::Poisoned
                    }
                }
                other => {
                    self.protocol_error(format!("unexpected {other:?} frame from client"), out);
                    FrameOutcome::Poisoned
                }
            },
        }
    }

    fn handle_hello(&mut self, kind: Kind, payload: &[u8], out: &mut Vec<u8>) -> FrameOutcome {
        if kind != Kind::Hello {
            self.protocol_error(format!("expected HELLO, got {kind:?}"), out);
            return FrameOutcome::Poisoned;
        }
        if payload != [protocol::VERSION] {
            self.protocol_error(
                format!(
                    "unsupported protocol version {payload:?} (server speaks {})",
                    protocol::VERSION
                ),
                out,
            );
            return FrameOutcome::Poisoned;
        }
        self.state = State::Streaming;
        put_frame(Kind::Welcome, &[protocol::VERSION], out);
        FrameOutcome::Progress
    }

    fn handle_names(&mut self, payload: &[u8], out: &mut Vec<u8>) -> FrameOutcome {
        self.mid_trace = true;
        match wire::decode_names(payload, &mut self.threads, &mut self.locks, &mut self.vars) {
            Ok(_) => FrameOutcome::Progress,
            Err(e) => {
                self.protocol_error(format!("bad NAMES payload: {e}"), out);
                FrameOutcome::Poisoned
            }
        }
    }

    fn handle_events(&mut self, payload: &[u8], out: &mut Vec<u8>) -> FrameOutcome {
        self.mid_trace = true;
        self.batch.clear();
        let names = SourceNames { threads: &self.threads, locks: &self.locks, vars: &self.vars };
        if let Err(e) = wire::decode_events_within(payload, IdBounds::of(names), &mut self.batch) {
            self.protocol_error(format!("bad EVENTS payload: {e}"), out);
            return FrameOutcome::Poisoned;
        }
        // Validation first: on an ill-formed event the batch is
        // truncated to the well-formed prefix, the checkers see exactly
        // that prefix (the offline pipelines' contract), and the error
        // frame carries the event index.
        let validation = if self.validate {
            pipeline::validate_batch(&mut self.validator, &mut self.batch)
        } else {
            None
        };
        // Destructured so the verdict hook can render names while the
        // panel is mutably borrowed.
        let Self { checkers, violations, batch, threads, locks, vars, .. } = self;
        let names = SourceNames { threads, locks, vars };
        pipeline::feed_panel(checkers, violations, batch, |checker, violation| {
            let frame = VerdictFrame {
                checker: u16::try_from(checker).expect("panel is small"),
                event: violation.event.index() as u64,
                message: violation.display_with_names(&names),
            };
            let mut payload = Vec::new();
            encode_verdict(&frame, &mut payload);
            put_frame(Kind::Verdict, &payload, out);
        });
        self.events += self.batch.len() as u64;
        match validation {
            None => FrameOutcome::Progress,
            Some(e) => {
                self.fail(
                    ErrorCode::Malformed,
                    format!("event {}: not well-formed: {e}", e.event().index()),
                    out,
                );
                FrameOutcome::Poisoned
            }
        }
    }

    fn handle_end(&mut self, payload: &[u8], out: &mut Vec<u8>) -> FrameOutcome {
        if !payload.is_empty() {
            self.protocol_error("END carries no payload".to_owned(), out);
            return FrameOutcome::Poisoned;
        }
        let summary = self.summary();
        let mut encoded = Vec::new();
        encode_summary(&summary, &mut encoded);
        put_frame(Kind::Summary, &encoded, out);
        self.reset_for_next_trace();
        FrameOutcome::TraceDone
    }

    /// The end-of-trace summary — the same ingredients `rapid-cli`'s
    /// `seal_text` renders, plus the per-trace clock-allocation counter
    /// for the warm zero-alloc probe.
    fn summary(&self) -> SummaryFrame {
        let runs = self
            .checkers
            .iter()
            .zip(&self.violations)
            .map(|(checker, violation)| SummaryRun {
                name: checker.name().to_owned(),
                violation: violation.as_ref().map(|v| v.event.index() as u64),
                clock_allocs: checker.report().clocks.heap_allocs(),
            })
            .collect();
        SummaryFrame {
            events: self.events,
            threads: u32::try_from(self.threads.len()).unwrap_or(u32::MAX),
            locks: u32::try_from(self.locks.len()).unwrap_or(u32::MAX),
            vars: u32::try_from(self.vars.len()).unwrap_or(u32::MAX),
            runs,
        }
    }

    /// The between-traces session reset: exactly the `pipeline::multi`
    /// seams — checkers keep their recycled clock buffers (capped by the
    /// reset's default retention), the validator and name tables keep
    /// their capacity. The next trace on this connection reuses all of
    /// it; from the second trace on, clock heap allocations are zero.
    fn reset_for_next_trace(&mut self) {
        for checker in &mut self.checkers {
            checker.reset();
        }
        self.violations.iter_mut().for_each(|v| *v = None);
        self.validator.reset();
        self.threads.clear();
        self.locks.clear();
        self.vars.clear();
        self.events = 0;
        self.mid_trace = false;
    }

    fn protocol_error(&mut self, message: String, out: &mut Vec<u8>) {
        self.fail(ErrorCode::Protocol, message, out);
    }

    fn fail(&mut self, code: ErrorCode, message: String, out: &mut Vec<u8>) {
        let frame = ErrorFrame { code, message: format!("frame {}: {message}", self.frames) };
        let mut payload = Vec::new();
        encode_error(&frame, &mut payload);
        put_frame(Kind::Error, &payload, out);
        self.state = State::Poisoned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_error, decode_summary, decode_verdict, FrameBuf};
    use aerodrome_suite::pipeline::par::standard_checkers;
    use tracelog::wire::NameKind;
    use tracelog::Trace;

    fn hello(session: &mut Session) -> Vec<u8> {
        let mut out = Vec::new();
        let outcome = session.handle_frame(Kind::Hello, &[protocol::VERSION], &mut out);
        assert_eq!(outcome, FrameOutcome::Progress);
        out
    }

    /// Encodes a whole in-memory trace as NAMES + EVENTS payload pairs.
    fn trace_payloads(trace: &Trace) -> (Vec<u8>, Vec<u8>) {
        let mut names = Vec::new();
        wire::encode_new_names(NameKind::Thread, trace.thread_names(), 0, &mut names);
        wire::encode_new_names(NameKind::Lock, trace.lock_names(), 0, &mut names);
        wire::encode_new_names(NameKind::Var, trace.var_names(), 0, &mut names);
        let mut events = Vec::new();
        wire::encode_events(trace.events(), &mut events);
        (names, events)
    }

    fn frames_of(bytes: &[u8]) -> Vec<(Kind, Vec<u8>)> {
        let mut fb = FrameBuf::new();
        fb.extend(bytes);
        let mut out = Vec::new();
        while let Some((kind, payload)) = fb.next_frame().unwrap() {
            out.push((kind, payload.to_vec()));
        }
        out
    }

    #[test]
    fn handshake_then_trace_then_summary() {
        let mut session = Session::new(standard_checkers(), true, 512);
        let out = hello(&mut session);
        assert_eq!(frames_of(&out)[0].0, Kind::Welcome);

        let trace = tracelog::paper_traces::rho2();
        let (names, events) = trace_payloads(&trace);
        let mut out = Vec::new();
        session.handle_frame(Kind::Names, &names, &mut out);
        assert_eq!(session.handle_frame(Kind::Events, &events, &mut out), {
            FrameOutcome::Progress
        });
        assert_eq!(session.handle_frame(Kind::End, &[], &mut out), FrameOutcome::TraceDone);

        let frames = frames_of(&out);
        // ρ2 is a violation: at least one mid-stream verdict must
        // precede the summary.
        assert!(frames.iter().any(|(k, _)| *k == Kind::Verdict), "no verdict pushed");
        let (last_kind, last_payload) = frames.last().unwrap();
        assert_eq!(*last_kind, Kind::Summary);
        let summary = decode_summary(last_payload).unwrap();
        assert_eq!(summary.events, trace.len() as u64);
        assert!(summary.runs.iter().all(|r| r.violation.is_some()));

        // Verdict frames agree with the summary.
        for (kind, payload) in &frames {
            if *kind == Kind::Verdict {
                let v = decode_verdict(payload).unwrap();
                let run = &summary.runs[v.checker as usize];
                assert_eq!(run.violation, Some(v.event));
                assert!(v.message.contains('`'), "names not rendered: {}", v.message);
            }
        }
    }

    #[test]
    fn second_trace_on_a_warm_session_allocates_no_clocks() {
        let mut session = Session::new(standard_checkers(), true, 512);
        hello(&mut session);
        let trace = tracelog::paper_traces::rho1();
        for round in 0..3 {
            let (names, events) = trace_payloads(&trace);
            let mut out = Vec::new();
            session.handle_frame(Kind::Names, &names, &mut out);
            session.handle_frame(Kind::Events, &events, &mut out);
            session.handle_frame(Kind::End, &[], &mut out);
            let frames = frames_of(&out);
            let summary = decode_summary(&frames.last().unwrap().1).unwrap();
            if round > 0 {
                for run in &summary.runs {
                    assert_eq!(
                        run.clock_allocs, 0,
                        "round {round}: {} allocated clocks on a warm session",
                        run.name
                    );
                }
            }
        }
    }

    #[test]
    fn ill_formed_event_poisons_with_attribution() {
        let mut session = Session::new(standard_checkers(), true, 512);
        hello(&mut session);
        // rel(m) with no acquire: event 0 is ill-formed.
        let mut names = Vec::new();
        wire::encode_name(NameKind::Thread, 0, "t1", &mut names);
        wire::encode_name(NameKind::Lock, 0, "m", &mut names);
        let mut events = Vec::new();
        wire::encode_events(
            &[tracelog::Event::new(
                tracelog::ThreadId::from_index(0),
                tracelog::Op::Release(tracelog::LockId::from_index(0)),
            )],
            &mut events,
        );
        let mut out = Vec::new();
        session.handle_frame(Kind::Names, &names, &mut out);
        let outcome = session.handle_frame(Kind::Events, &events, &mut out);
        assert_eq!(outcome, FrameOutcome::Poisoned);
        assert!(session.is_poisoned());
        let frames = frames_of(&out);
        let (kind, payload) = frames.last().unwrap();
        assert_eq!(*kind, Kind::Error);
        let e = decode_error(payload).unwrap();
        assert_eq!(e.code, ErrorCode::Malformed);
        assert!(e.message.contains("event 0"), "no attribution: {}", e.message);
        assert!(e.message.contains("frame 3"), "no frame attribution: {}", e.message);
    }

    #[test]
    fn unbound_event_id_is_a_protocol_error() {
        let mut session = Session::new(standard_checkers(), true, 512);
        hello(&mut session);
        let mut names = Vec::new();
        wire::encode_name(NameKind::Thread, 0, "t1", &mut names);
        let mut events = Vec::new();
        wire::encode_events(
            &[tracelog::Event::new(
                tracelog::ThreadId::from_index(400_000_000),
                tracelog::Op::Begin,
            )],
            &mut events,
        );
        let mut out = Vec::new();
        session.handle_frame(Kind::Names, &names, &mut out);
        let outcome = session.handle_frame(Kind::Events, &events, &mut out);
        assert_eq!(outcome, FrameOutcome::Poisoned);
        let frames = frames_of(&out);
        let (kind, payload) = frames.last().unwrap();
        assert_eq!(*kind, Kind::Error);
        let e = decode_error(payload).unwrap();
        assert_eq!(e.code, ErrorCode::Protocol);
        assert!(e.message.contains("frame 3"), "no frame attribution: {}", e.message);
        assert!(e.message.contains("unbound thread id 400000000"), "{}", e.message);
    }

    #[test]
    fn frames_before_hello_are_rejected() {
        let mut session = Session::new(standard_checkers(), true, 512);
        let mut out = Vec::new();
        let outcome = session.handle_frame(Kind::Events, &[], &mut out);
        assert_eq!(outcome, FrameOutcome::Poisoned);
        let frames = frames_of(&out);
        assert_eq!(decode_error(&frames[0].1).unwrap().code, ErrorCode::Protocol);
    }

    #[test]
    fn idle_eviction_readmits_fresh() {
        let mut session = Session::new(standard_checkers(), true, 512);
        hello(&mut session);
        let trace = tracelog::paper_traces::rho3();
        let (names, events) = trace_payloads(&trace);
        let mut out = Vec::new();
        session.handle_frame(Kind::Names, &names, &mut out);
        session.handle_frame(Kind::Events, &events, &mut out);
        session.handle_frame(Kind::End, &[], &mut out);
        let baseline = {
            let frames = frames_of(&out);
            decode_summary(&frames.last().unwrap().1).unwrap()
        };
        assert!(session.retained_bytes() > 0, "warm session retains clock buffers");

        session.evict_idle();
        assert_eq!(session.retained_bytes(), 0, "eviction must drop all retained clocks");
        assert!(!session.is_poisoned());

        // The next trace behaves like a fresh session: identical
        // verdicts, cold pools (allocations non-zero again).
        let (names, events) = trace_payloads(&trace);
        let mut out = Vec::new();
        session.handle_frame(Kind::Names, &names, &mut out);
        session.handle_frame(Kind::Events, &events, &mut out);
        session.handle_frame(Kind::End, &[], &mut out);
        let fresh = {
            let frames = frames_of(&out);
            decode_summary(&frames.last().unwrap().1).unwrap()
        };
        assert_eq!(fresh.seal_text(), baseline.seal_text());
    }

    #[test]
    fn mid_trace_eviction_sends_the_documented_error() {
        let mut session = Session::new(standard_checkers(), true, 512);
        hello(&mut session);
        let trace = tracelog::paper_traces::rho1();
        let (names, events) = trace_payloads(&trace);
        let mut out = Vec::new();
        session.handle_frame(Kind::Names, &names, &mut out);
        session.handle_frame(Kind::Events, &events, &mut out);
        assert!(session.is_mid_trace());
        let mut out = Vec::new();
        session.poison_evicted(&mut out);
        let frames = frames_of(&out);
        let e = decode_error(&frames[0].1).unwrap();
        assert_eq!(e.code, ErrorCode::Evicted);
        assert!(session.is_poisoned());
    }
}
