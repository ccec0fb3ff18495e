//! The long-lived checking server: acceptor + resident worker pool.
//!
//! Std-only TCP (the build environment is offline — no async runtime):
//! one accept loop and at most `jobs` worker threads. The acceptor's
//! only job is *admission*: pick the least-loaded worker and hand the
//! socket over a channel. From then on everything about the connection
//! — its [`Session`], its buffers, its eviction fate — is owned by that
//! one worker, which multiplexes its connections over non-blocking
//! sockets in a poll loop. That is the McKenney partitioning rule the
//! resident runtime already follows: the per-event hot path touches
//! worker-local state only; cross-thread synchronization happens at
//! admission, eviction accounting and the stats gauges, all of them
//! per-connection-rare.
//!
//! **Memory budget.** Warm sessions retain recycled clock buffers
//! between traces — that is what makes them fast — so a server holding
//! thousands of sessions needs a global cap:
//! [`ServeConfig::max_retained_bytes`]. Every worker publishes its
//! sessions' retained-bytes gauge; when the global sum is over budget a
//! worker evicts its least-recently-active sessions, transparently
//! (reset + trim to zero — "re-admitted fresh") when the session is
//! between traces, with the documented `EVICTED` error frame when a
//! trace is live. The most-recently-active session is exempt from
//! mid-trace poisoning, so a lone hot session always finishes its trace
//! and is reclaimed at the boundary. See `docs/SERVICE.md` § Eviction.
//!
//! **Backpressure.** A worker stops *reading* from a connection whose
//! outbound buffer is above [`OUTBUF_SOFT_CAP`] until the peer drains
//! it — per-connection flow control with no global locks, and the
//! reason one slow client cannot wedge its neighbours.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use aerodrome_suite::pipeline::par::standard_checkers;

use crate::protocol::{encode_stats, put_frame, FrameBuf, Kind, StatsFrame};
use crate::session::{FrameOutcome, Session};

/// Default global retained-clock budget: 64 MiB across all sessions.
pub const DEFAULT_MAX_RETAINED_BYTES: u64 = 64 << 20;

/// Stop reading from a connection whose unsent output exceeds this.
pub const OUTBUF_SOFT_CAP: usize = 256 << 10;

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 64 << 10;

/// Poll-loop sleep when no connection made progress.
const IDLE_SLEEP: Duration = Duration::from_micros(300);

/// Server tuning knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Worker threads; `0` (default) means one per available CPU.
    pub jobs: usize,
    /// Run the online well-formedness validator (default `true`).
    pub validate: bool,
    /// Global retained-clock budget in bytes
    /// ([`DEFAULT_MAX_RETAINED_BYTES`]); `0` disables eviction.
    pub max_retained_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { jobs: 0, validate: true, max_retained_bytes: DEFAULT_MAX_RETAINED_BYTES }
    }
}

impl ServeConfig {
    /// The worker count actually spawned.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        }
    }
}

/// Cross-thread server state: admission counts, retained-bytes gauges,
/// the eviction counter and the shutdown flag. Everything here is a
/// plain atomic — workers touch it O(frames), not O(events).
#[derive(Debug)]
struct Shared {
    shutdown: AtomicBool,
    sessions: AtomicUsize,
    evictions: AtomicU64,
    /// Per-worker live-connection counts (least-loaded admission).
    conn_counts: Vec<AtomicUsize>,
    /// Per-worker retained-clock gauges; the budget is enforced against
    /// their sum.
    retained: Vec<AtomicU64>,
    /// Monotone activity tick for LRU ordering.
    clock: AtomicU64,
}

impl Shared {
    fn new(workers: usize) -> Self {
        Self {
            shutdown: AtomicBool::new(false),
            sessions: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            conn_counts: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            retained: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
        }
    }

    fn retained_total(&self) -> u64 {
        self.retained.iter().map(|r| r.load(Ordering::Relaxed)).sum()
    }

    fn stats(&self) -> StatsFrame {
        StatsFrame {
            sessions: u32::try_from(self.sessions.load(Ordering::Relaxed)).unwrap_or(u32::MAX),
            retained_bytes: self.retained_total(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable handle for observing and stopping a running server.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server statistics (same numbers as the `STATS` frame).
    #[must_use]
    pub fn stats(&self) -> StatsFrame {
        self.shared.stats()
    }

    /// Asks the server to stop: the acceptor and every worker exit
    /// their poll loops and open connections are dropped.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7447"`; port `0` picks an
    /// ephemeral port) with the standard four-checker panel per
    /// session.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(config.effective_jobs()));
        Ok(Self { listener, config, shared })
    }

    /// The bound address (read the ephemeral port here).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for stats and shutdown, usable from any thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket address query failure.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle { shared: Arc::clone(&self.shared), addr: self.local_addr()? })
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`], blocking
    /// the calling thread. Worker threads are joined before returning.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures (per-connection failures are
    /// isolated to their connection).
    pub fn run(self) -> io::Result<()> {
        let workers = self.config.effective_jobs();
        let shared = Arc::clone(&self.shared);
        let mut senders = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let shared = Arc::clone(&self.shared);
            let config = self.config.clone();
            joins.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{index}"))
                    .spawn(move || worker_main(index, &rx, &shared, &config))
                    .expect("spawn worker thread"),
            );
        }

        while !shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Least-loaded admission; the count is bumped here so
                    // back-to-back accepts spread even before the worker
                    // picks the connection up.
                    let target = (0..workers)
                        .min_by_key(|&w| shared.conn_counts[w].load(Ordering::Relaxed))
                        .unwrap_or(0);
                    shared.conn_counts[target].fetch_add(1, Ordering::Relaxed);
                    shared.sessions.fetch_add(1, Ordering::Relaxed);
                    if senders[target].send(stream).is_err() {
                        break; // worker died; shutting down
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    drop(senders);
                    for join in joins {
                        let _ = join.join();
                    }
                    return Err(e);
                }
            }
        }
        drop(senders);
        for join in joins {
            let _ = join.join();
        }
        Ok(())
    }

    /// Convenience for tests and embedding: runs the server on a
    /// background thread, returning the handle and the join handle.
    ///
    /// # Errors
    ///
    /// Propagates the socket address query failure.
    pub fn spawn(self) -> io::Result<(ServerHandle, thread::JoinHandle<io::Result<()>>)> {
        let handle = self.handle()?;
        let join = thread::Builder::new()
            .name("serve-acceptor".to_owned())
            .spawn(move || self.run())
            .expect("spawn acceptor thread");
        Ok((handle, join))
    }
}

/// One worker-owned connection.
struct Conn {
    stream: TcpStream,
    session: Session,
    frames: FrameBuf,
    outbuf: Vec<u8>,
    /// Flushed prefix of `outbuf`.
    out_pos: usize,
    /// LRU tick of the last inbound frame.
    last_active: u64,
    /// Retained bytes last published for this session.
    retained_cache: u64,
    /// Flush what's queued, then drop the connection.
    closing: bool,
    /// Ready to be reaped.
    dead: bool,
}

impl Conn {
    /// Flushes pending output; returns whether bytes moved.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return progressed;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return progressed;
                }
            }
        }
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
            if self.closing {
                self.dead = true;
            }
        }
        progressed
    }

    /// One service turn: flush, read, decode, advance the session.
    fn pump(&mut self, shared: &Shared, scratch: &mut [u8]) -> bool {
        let mut progressed = self.flush();
        if self.dead || self.closing {
            return progressed;
        }
        // Backpressure: no reads while the peer lags on our output.
        if self.outbuf.len() - self.out_pos > OUTBUF_SOFT_CAP {
            return progressed;
        }
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    // Peer closed; whatever is queued still flushes.
                    self.closing = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    self.frames.extend(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return progressed;
                }
            }
        }
        loop {
            match self.frames.next_frame() {
                Ok(None) => break,
                Ok(Some((kind, payload))) => {
                    // The decoder borrows the inbound buffer while the
                    // session reads the payload; output goes to the
                    // connection's own buffer.
                    self.last_active = shared.clock.fetch_add(1, Ordering::Relaxed);
                    let outcome = self.session.handle_frame(kind, payload, &mut self.outbuf);
                    progressed = true;
                    match outcome {
                        FrameOutcome::Progress | FrameOutcome::TraceDone => {}
                        FrameOutcome::StatsRequested => {
                            let mut payload = Vec::new();
                            encode_stats(&shared.stats(), &mut payload);
                            put_frame(Kind::StatsReply, &payload, &mut self.outbuf);
                        }
                        FrameOutcome::Poisoned => {
                            self.closing = true;
                            break;
                        }
                    }
                }
                Err(e) => {
                    // Framing sync lost: not even a session-level error —
                    // report and hang up.
                    let frame = crate::protocol::ErrorFrame {
                        code: crate::protocol::ErrorCode::Protocol,
                        message: e.to_string(),
                    };
                    let mut payload = Vec::new();
                    crate::protocol::encode_error(&frame, &mut payload);
                    put_frame(Kind::Error, &payload, &mut self.outbuf);
                    self.closing = true;
                    break;
                }
            }
        }
        self.flush();
        progressed
    }
}

/// Configures a freshly admitted socket and wraps it in a [`Conn`];
/// `None` (socket options failed) undoes the admission accounting.
fn admit(index: usize, stream: TcpStream, shared: &Shared, config: &ServeConfig) -> Option<Conn> {
    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
        shared.conn_counts[index].fetch_sub(1, Ordering::Relaxed);
        shared.sessions.fetch_sub(1, Ordering::Relaxed);
        return None;
    }
    Some(Conn {
        stream,
        session: Session::new(standard_checkers(), config.validate),
        frames: FrameBuf::new(),
        outbuf: Vec::new(),
        out_pos: 0,
        last_active: shared.clock.fetch_add(1, Ordering::Relaxed),
        retained_cache: 0,
        closing: false,
        dead: false,
    })
}

fn worker_main(
    index: usize,
    rx: &mpsc::Receiver<TcpStream>,
    shared: &Shared,
    config: &ServeConfig,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    loop {
        let mut progressed = false;
        // Admission.
        while let Ok(stream) = rx.try_recv() {
            conns.extend(admit(index, stream, shared, config));
            progressed = true;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }

        // Service.
        for conn in &mut conns {
            progressed |= conn.pump(shared, &mut scratch);
        }

        // Publish retained-bytes and enforce the budget.
        publish_retained(index, shared, &mut conns);
        if config.max_retained_bytes > 0 {
            while shared.retained_total() > config.max_retained_bytes
                && evict_one(index, shared, &mut conns)
            {
                progressed = true;
            }
        }

        // Reap.
        let before = conns.len();
        conns.retain(|c| !c.dead);
        let reaped = before - conns.len();
        if reaped > 0 {
            shared.conn_counts[index].fetch_sub(reaped, Ordering::Relaxed);
            shared.sessions.fetch_sub(reaped, Ordering::Relaxed);
            publish_retained(index, shared, &mut conns);
            progressed = true;
        }

        if !progressed {
            if conns.is_empty() {
                // Nothing to poll: park on the admission channel. A
                // disconnect means the acceptor is gone — clean exit.
                match rx.recv_timeout(Duration::from_millis(10)) {
                    Ok(stream) => {
                        conns.extend(admit(index, stream, shared, config));
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                }
            } else {
                thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

/// Refreshes the worker's retained-bytes gauge from its live sessions.
fn publish_retained(index: usize, shared: &Shared, conns: &mut [Conn]) {
    let mut total = 0u64;
    for conn in conns.iter_mut() {
        if !conn.dead {
            conn.retained_cache = conn.session.retained_bytes();
            total += conn.retained_cache;
        }
    }
    shared.retained[index].store(total, Ordering::Relaxed);
}

/// Evicts this worker's least-recently-active session; idle sessions go
/// first (transparent reset+trim), live ones get the `EVICTED` error.
/// The worker's most-recently-active session is never poisoned — a sole
/// over-budget session keeps making progress and is reclaimed
/// transparently at its next trace boundary instead of being killed
/// mid-stream. Returns whether anything was evicted.
fn evict_one(index: usize, shared: &Shared, conns: &mut [Conn]) -> bool {
    let mru = conns
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.dead && !c.closing)
        .max_by_key(|(_, c)| c.last_active)
        .map(|(i, _)| i);
    let candidate = |mid_trace: bool, conns: &mut [Conn]| -> Option<usize> {
        conns
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                !c.dead
                    && !c.closing
                    && c.retained_cache > 0
                    && c.session.is_mid_trace() == mid_trace
                    && !(mid_trace && Some(*i) == mru)
            })
            .min_by_key(|(_, c)| c.last_active)
            .map(|(i, _)| i)
    };
    if let Some(i) = candidate(false, conns) {
        conns[i].session.evict_idle();
    } else if let Some(i) = candidate(true, conns) {
        let conn = &mut conns[i];
        conn.session.poison_evicted(&mut conn.outbuf);
        conn.closing = true;
        conn.flush();
    } else {
        return false;
    }
    shared.evictions.fetch_add(1, Ordering::Relaxed);
    publish_retained(index, shared, conns);
    true
}
