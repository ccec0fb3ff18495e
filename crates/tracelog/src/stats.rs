//! Trace statistics — the `MetaInfo` analysis of the Rapid artifact.
//!
//! Computes columns 2–6 of Tables 1 and 2 of the paper: number of events,
//! threads, locks, variables and transactions, plus a per-operation
//! breakdown used by the workload generators to match benchmark shapes.

use std::fmt;

use crate::stream::{EventSource, SourceError};
use crate::trace::{Op, Trace};
use crate::txn::Transactions;

/// Aggregate statistics of a trace.
///
/// # Examples
///
/// ```
/// use tracelog::{MetaInfo, TraceBuilder};
///
/// let mut tb = TraceBuilder::new();
/// let t = tb.thread("t1");
/// let x = tb.var("x");
/// tb.begin(t).write(t, x).read(t, x).end(t);
/// let info = MetaInfo::of(&tb.finish());
/// assert_eq!(info.events, 4);
/// assert_eq!(info.transactions, 1);
/// assert_eq!(info.writes, 1);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MetaInfo {
    /// Total number of events (column 2).
    pub events: usize,
    /// Distinct threads (column 3).
    pub threads: usize,
    /// Distinct locks (column 4).
    pub locks: usize,
    /// Distinct memory locations (column 5).
    pub vars: usize,
    /// Non-unary transactions (column 6).
    pub transactions: usize,
    /// `r(x)` events.
    pub reads: usize,
    /// `w(x)` events.
    pub writes: usize,
    /// `acq(ℓ)` events.
    pub acquires: usize,
    /// `rel(ℓ)` events.
    pub releases: usize,
    /// `fork(u)` events.
    pub forks: usize,
    /// `join(u)` events.
    pub joins: usize,
    /// `⊲` events (inner ones of nested blocks included).
    pub begins: usize,
    /// `⊳` events (inner ones of nested blocks included).
    pub ends: usize,
}

impl MetaInfo {
    /// Computes the statistics of `trace` in one pass (plus transaction
    /// segmentation).
    #[must_use]
    pub fn of(trace: &Trace) -> Self {
        let mut info = Self {
            events: trace.len(),
            threads: trace.num_threads(),
            locks: trace.num_locks(),
            vars: trace.num_vars(),
            transactions: Transactions::segment(trace).non_unary_count(),
            ..Self::default()
        };
        for e in trace {
            match e.op {
                Op::Read(_) => info.reads += 1,
                Op::Write(_) => info.writes += 1,
                Op::Acquire(_) => info.acquires += 1,
                Op::Release(_) => info.releases += 1,
                Op::Fork(_) => info.forks += 1,
                Op::Join(_) => info.joins += 1,
                Op::Begin => info.begins += 1,
                Op::End => info.ends += 1,
            }
        }
        info
    }

    /// Computes the statistics of a streaming source in constant memory
    /// (name tables aside), without materialising a [`Trace`] —
    /// [`MetaCollector`] driven per event.
    ///
    /// Transactions are counted as outermost `⊲` events, which on
    /// well-formed traces equals the segmentation-based count of
    /// [`MetaInfo::of`] (property-tested in `tests/proptests.rs`).
    ///
    /// Events preceding a source failure are folded in before the error
    /// surfaces, exactly as per-event iteration would.
    ///
    /// # Errors
    ///
    /// Propagates the first error of the source.
    pub fn collect<S: EventSource + ?Sized>(source: &mut S) -> Result<Self, SourceError> {
        let mut collector = MetaCollector::default();
        let mut batch = crate::stream::EventBatch::new();
        loop {
            let refill = source.next_batch(&mut batch);
            for &event in batch.events() {
                collector.observe(event);
            }
            match refill {
                Err(e) => return Err(e),
                Ok(0) => break,
                Ok(_) => {}
            }
        }
        Ok(collector.finish(&source.names()))
    }

    /// Memory accesses (`reads + writes`).
    #[must_use]
    pub fn accesses(&self) -> usize {
        self.reads + self.writes
    }
}

/// The streaming state behind [`MetaInfo::collect`], exposed so callers
/// that already iterate events (or batches of them) can fold statistics
/// in without handing over the source.
///
/// # Examples
///
/// ```
/// use tracelog::{MetaCollector, TraceBuilder};
///
/// let mut tb = TraceBuilder::new();
/// let t = tb.thread("t1");
/// let x = tb.var("x");
/// tb.begin(t).write(t, x).end(t);
/// let trace = tb.finish();
/// let mut collector = MetaCollector::default();
/// for &e in &trace {
///     collector.observe(e);
/// }
/// let info = collector.finish(&trace.names());
/// assert_eq!((info.events, info.transactions), (3, 1));
/// ```
#[derive(Clone, Default, Debug)]
pub struct MetaCollector {
    info: MetaInfo,
    /// Per-thread nesting depth (outermost begins count as transactions).
    depth: Vec<usize>,
}

impl MetaCollector {
    /// Folds one event into the statistics.
    pub fn observe(&mut self, e: crate::Event) {
        let ti = e.thread.index();
        if self.depth.len() <= ti {
            self.depth.resize(ti + 1, 0);
        }
        let info = &mut self.info;
        info.events += 1;
        match e.op {
            Op::Read(_) => info.reads += 1,
            Op::Write(_) => info.writes += 1,
            Op::Acquire(_) => info.acquires += 1,
            Op::Release(_) => info.releases += 1,
            Op::Fork(_) => info.forks += 1,
            Op::Join(_) => info.joins += 1,
            Op::Begin => {
                info.begins += 1;
                if self.depth[ti] == 0 {
                    info.transactions += 1;
                }
                self.depth[ti] += 1;
            }
            Op::End => {
                info.ends += 1;
                self.depth[ti] = self.depth[ti].saturating_sub(1);
            }
        }
    }

    /// Finalises with the source's name tables.
    #[must_use]
    pub fn finish(mut self, names: &crate::stream::SourceNames<'_>) -> MetaInfo {
        self.info.threads = names.threads.len();
        self.info.locks = names.locks.len();
        self.info.vars = names.vars.len();
        self.info
    }
}

impl fmt::Display for MetaInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events:       {}", self.events)?;
        writeln!(f, "threads:      {}", self.threads)?;
        writeln!(f, "locks:        {}", self.locks)?;
        writeln!(f, "variables:    {}", self.vars)?;
        writeln!(f, "transactions: {}", self.transactions)?;
        writeln!(
            f,
            "ops:          r={} w={} acq={} rel={} fork={} join={} begin={} end={}",
            self.reads,
            self.writes,
            self.acquires,
            self.releases,
            self.forks,
            self.joins,
            self.begins,
            self.ends
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    #[test]
    fn counts_every_operation_kind() {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("x");
        tb.fork(t1, t2);
        tb.begin(t1).acquire(t1, l).write(t1, x).read(t1, x).release(t1, l).end(t1);
        tb.begin(t2).end(t2);
        tb.join(t1, t2);
        let info = MetaInfo::of(&tb.finish());
        assert_eq!(info.events, 10);
        assert_eq!(info.threads, 2);
        assert_eq!(info.locks, 1);
        assert_eq!(info.vars, 1);
        assert_eq!(info.transactions, 2);
        assert_eq!((info.reads, info.writes), (1, 1));
        assert_eq!((info.acquires, info.releases), (1, 1));
        assert_eq!((info.forks, info.joins), (1, 1));
        assert_eq!((info.begins, info.ends), (2, 2));
        assert_eq!(info.accesses(), 2);
    }

    #[test]
    fn streaming_collect_matches_batch_of() {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("x");
        tb.fork(t1, t2);
        // Nested begin/end: only the outermost pair is a transaction.
        tb.begin(t1).begin(t1).acquire(t1, l).write(t1, x).release(t1, l).end(t1).end(t1);
        tb.begin(t2).read(t2, x).end(t2);
        tb.join(t1, t2);
        let trace = tb.finish();
        let streamed = MetaInfo::collect(&mut trace.stream()).unwrap();
        assert_eq!(streamed, MetaInfo::of(&trace));
        assert_eq!(streamed.transactions, 2);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let info = MetaInfo::of(&TraceBuilder::new().finish());
        assert_eq!(info, MetaInfo::default());
    }

    #[test]
    fn display_mentions_every_count() {
        let mut tb = TraceBuilder::new();
        let t = tb.thread("t1");
        tb.begin(t).end(t);
        let s = MetaInfo::of(&tb.finish()).to_string();
        assert!(s.contains("events:       2"));
        assert!(s.contains("transactions: 1"));
    }
}
