//! Pooled, clone-free vector-clock storage.
//!
//! The checkers of Algorithms 1–3 assign, join and compare clocks on
//! almost every event. With plain [`VectorClock`] values every transfer
//! edge (`L_ℓ := C_t`, `W_x := C_t`, `C⊲_t := C_t`, …) is a heap-allocating
//! clone, which dominates the hot path long before the `O(|Thr|)` joins
//! do. [`ClockPool`] removes those allocations with three mechanisms:
//!
//! * **Slab of reusable buffers.** Every materialised clock lives in a
//!   pool slot addressed by [`ClockId`]. Freed slots keep their buffer
//!   capacity and are recycled, so steady-state checking performs zero
//!   clock heap allocations once the pool is warm (asserted by
//!   [`PoolStats::heap_allocs`] in the acceptance tests).
//! * **Copy-on-write sharing.** [`ClockPool::assign`] makes the paper's
//!   clock *assignments* O(1): the destination handle points at the
//!   source's slot and a reference count is bumped. A later mutation of a
//!   shared slot first copies it into a recycled buffer
//!   ([`PoolStats::cow_copies`]), so one copy is amortised over any
//!   number of assignments.
//! * **Epoch fast path.** A [`PoolClock`] starts as `⊥` or as a single
//!   epoch `c@t` (`⊥[c/t]`, the paper's `V[c/t]` substitution applied to
//!   bottom) and only *promotes* to a full pooled buffer when a second
//!   component appears. Thread clocks are born `1@t`, per-lock and
//!   per-variable clocks are born `⊥`; none of them costs a buffer until
//!   a genuine multi-component timestamp flows in.
//!
//! Substitutions and copies never materialise temporaries: the `V[0/u]`
//! join ([`ClockPool::join_into_zeroed`]) skips the zeroed component
//! in-flight, and copy-on-write unsharing is a single-pass copy between
//! two slab buffers — both on recycled storage.
//!
//! # Examples
//!
//! ```
//! use vc::pool::{ClockPool, PoolClock};
//!
//! let mut pool = ClockPool::new();
//! let mut ct = PoolClock::epoch(0, 1); // C_t := ⊥[1/t], no buffer yet
//! let mut lrel = PoolClock::default(); // L_ℓ := ⊥
//!
//! pool.increment(&mut ct, 0); // begin: still an epoch, still no buffer
//! pool.assign(&mut lrel, &ct); // release: O(1) share
//! assert_eq!(pool.component(&lrel, 0), 2);
//! assert_eq!(pool.stats().buffers_allocated, 0);
//! ```

use crate::clock::VectorClock;
use crate::epoch::Epoch;
use crate::Time;

/// Index of a materialised clock buffer inside a [`ClockPool`].
///
/// Handles are only meaningful for the pool that issued them; they are
/// deliberately not constructible outside this module.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClockId(u32);

impl ClockId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A pooled vector time: `⊥`, a single epoch `c@t`, or a full clock in
/// the pool.
///
/// The handle is deliberately neither `Copy` nor `Clone`: a `Full`
/// variant owns one reference to its pool slot, and duplicating it
/// without [`ClockPool::clone_ref`] would corrupt the reference count.
/// Dropping a `Full` handle without [`ClockPool::release`] leaks its slot
/// (harmless but wasteful); the checkers route every overwrite through
/// [`ClockPool::assign`].
#[derive(Debug, Default)]
pub enum PoolClock {
    /// The minimum time `⊥ = λt.0`.
    #[default]
    Bottom,
    /// `⊥[c/t]` — exactly one non-zero component, no backing buffer.
    Epoch(Epoch),
    /// A full clock stored in the pool.
    Full(ClockId),
}

impl PoolClock {
    /// The epoch clock `⊥[time/thread]` (no pool interaction needed).
    #[must_use]
    pub fn epoch(thread: usize, time: Time) -> Self {
        if time == 0 {
            PoolClock::Bottom
        } else {
            PoolClock::Epoch(Epoch::new(thread, time))
        }
    }
}

/// One slab entry: a component buffer plus its reference count.
#[derive(Debug, Default)]
struct Slot {
    buf: Vec<Time>,
    /// `0` = vacant (on the free list).
    refs: u32,
}

/// Allocation and operation counters for a [`ClockPool`] (also reported
/// by the clone-happy baseline store for comparison).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh buffers created (a heap allocation each).
    pub buffers_allocated: u64,
    /// Buffers whose capacity had to grow (a heap reallocation each).
    pub buffer_grows: u64,
    /// Freed buffers handed out again (no allocation).
    pub buffer_reuses: u64,
    /// Copy-on-write unsharings (buffer-to-buffer copies, no allocation
    /// unless the target buffer also had to grow).
    pub cow_copies: u64,
    /// O(1) handle assignments that shared an existing slot.
    pub shares: u64,
    /// Pointwise join operations performed.
    pub joins: u64,
    /// Live (referenced) slots.
    pub live_slots: usize,
    /// Vacant slots available for reuse.
    pub free_slots: usize,
    /// Bytes of component-buffer capacity currently retained by the pool
    /// (live and vacant slots alike) — the footprint a resident session
    /// carries from trace to trace, bounded by [`ClockPool::trim`].
    pub retained_bytes: usize,
}

impl PoolStats {
    /// Total clock heap allocations: fresh buffers plus capacity grows.
    ///
    /// This is the counter the zero-alloc steady-state invariant is
    /// asserted against: after warm-up it must stop moving.
    #[must_use]
    pub fn heap_allocs(&self) -> u64 {
        self.buffers_allocated + self.buffer_grows
    }

    /// Adds `other`'s monotone counters into `self` and keeps the
    /// maximum of the point-in-time gauges (`live_slots`, `free_slots`,
    /// `retained_bytes`) — the aggregation for corpus-level totals over
    /// many per-trace reports (the gauges then read as high-water
    /// marks). The counter-vs-gauge split lives here, next to
    /// [`PoolStats::delta_since`], so new fields are classified once.
    pub fn accumulate(&mut self, other: &PoolStats) {
        self.buffers_allocated += other.buffers_allocated;
        self.buffer_grows += other.buffer_grows;
        self.buffer_reuses += other.buffer_reuses;
        self.cow_copies += other.cow_copies;
        self.shares += other.shares;
        self.joins += other.joins;
        self.live_slots = self.live_slots.max(other.live_slots);
        self.free_slots = self.free_slots.max(other.free_slots);
        self.retained_bytes = self.retained_bytes.max(other.retained_bytes);
    }

    /// The counters accumulated since `baseline` was sampled from the
    /// same pool: monotone counters are subtracted, the point-in-time
    /// gauges (`live_slots`, `free_slots`, `retained_bytes`) pass through
    /// unchanged. This is how a resident checker session reports
    /// *per-trace* clock work while its pool counts cumulatively.
    #[must_use]
    pub fn delta_since(&self, baseline: &PoolStats) -> PoolStats {
        PoolStats {
            buffers_allocated: self.buffers_allocated - baseline.buffers_allocated,
            buffer_grows: self.buffer_grows - baseline.buffer_grows,
            buffer_reuses: self.buffer_reuses - baseline.buffer_reuses,
            cow_copies: self.cow_copies - baseline.cow_copies,
            shares: self.shares - baseline.shares,
            joins: self.joins - baseline.joins,
            live_slots: self.live_slots,
            free_slots: self.free_slots,
            retained_bytes: self.retained_bytes,
        }
    }
}

/// A resolved, borrowed view of a [`PoolClock`] (see
/// [`ClockPool::view`]).
#[derive(Clone, Copy, Debug)]
pub enum PoolView<'a> {
    /// The minimum time `⊥`.
    Bottom,
    /// A single-epoch clock.
    Epoch(Epoch),
    /// A full clock's component slice.
    Slice(&'a [Time]),
}

impl PoolView<'_> {
    /// Reads component `t` (absent components are `0`).
    #[must_use]
    #[inline]
    pub fn component(&self, t: usize) -> Time {
        match *self {
            PoolView::Bottom => 0,
            PoolView::Epoch(e) => {
                if e.thread() == t {
                    e.time()
                } else {
                    0
                }
            }
            PoolView::Slice(buf) => buf.get(t).copied().unwrap_or(0),
        }
    }

    /// Whether `e.time ≤ self(e.thread)`.
    #[must_use]
    #[inline]
    pub fn contains_epoch(&self, e: Epoch) -> bool {
        e.time() <= self.component(e.thread())
    }

    /// Number of explicitly stored components.
    #[must_use]
    #[inline]
    pub fn dim(&self) -> usize {
        match *self {
            PoolView::Bottom => 0,
            PoolView::Epoch(e) => e.thread() + 1,
            PoolView::Slice(buf) => buf.len(),
        }
    }
}

/// A slab of reusable vector-clock buffers with copy-on-write sharing.
///
/// See the [module docs](self) for the design; [`crate::store::ClockStore`]
/// is the checker-facing abstraction implemented by this pool and by the
/// clone-happy baseline.
#[derive(Debug, Default)]
pub struct ClockPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Largest buffer length seen; fresh and growing buffers reserve this
    /// much up front so each buffer reallocates at most once per
    /// dimension increase (threads only ever get added).
    hint_len: usize,
    stats: PoolStats,
}

impl ClockPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let mut s = self.stats;
        s.free_slots = self.free.len();
        s.live_slots = self.slots.len() - self.free.len();
        s.retained_bytes =
            self.slots.iter().map(|s| s.buf.capacity() * size_of::<Time>()).sum::<usize>();
        s
    }

    /// Recycles every slot — live handles included — back onto the free
    /// list, keeping all buffer capacity. This is the *session* reset: a
    /// resident checker calls it between traces so the next trace reuses
    /// the warm buffers instead of allocating a fresh working set.
    ///
    /// Every outstanding [`PoolClock`] handle is invalidated wholesale:
    /// after `reset` the owner must overwrite its handles (e.g. with
    /// [`PoolClock::default`]) without calling [`ClockPool::release`] on
    /// them — their slots have already been reclaimed. The cumulative
    /// counters are *not* reset, so the zero-allocation steady state is
    /// observable **across** traces: once warm, [`PoolStats::heap_allocs`]
    /// stays flat from one trace to the next.
    pub fn reset(&mut self) {
        self.free.clear();
        // Descending push so `alloc` pops ascending slot ids — the same
        // id sequence a freshly constructed pool would produce.
        for (i, slot) in self.slots.iter_mut().enumerate().rev() {
            slot.refs = 0;
            self.free.push(u32::try_from(i).expect("slot count fits the id space"));
        }
    }

    /// Frees vacant buffers (largest first) until the pool retains at most
    /// `max_bytes` of buffer capacity, returning the bytes released.
    ///
    /// Reset alone never shrinks: after one adversarial trace with a huge
    /// thread count every recycled buffer keeps its max-width capacity
    /// forever. A resident session calls `trim` right after
    /// [`ClockPool::reset`] (when all slots are vacant) with a documented
    /// budget so a single monster trace cannot pin that working set for
    /// the rest of the process. Live slots are never touched, and the
    /// pre-reserve width hint shrinks to the widest surviving buffer so
    /// freshly allocated buffers stop inheriting the monster width.
    pub fn trim(&mut self, max_bytes: usize) -> usize {
        let unit = size_of::<Time>();
        let mut retained: usize = self.slots.iter().map(|s| s.buf.capacity() * unit).sum();
        if retained <= max_bytes {
            return 0;
        }
        let mut vacant: Vec<u32> = self
            .free
            .iter()
            .copied()
            .filter(|&i| self.slots[i as usize].buf.capacity() > 0)
            .collect();
        vacant.sort_by_key(|&i| std::cmp::Reverse(self.slots[i as usize].buf.capacity()));
        let mut freed = 0usize;
        for i in vacant {
            if retained <= max_bytes {
                break;
            }
            let bytes = self.slots[i as usize].buf.capacity() * unit;
            self.slots[i as usize].buf = Vec::new();
            retained -= bytes;
            freed += bytes;
        }
        let widest = self.slots.iter().map(|s| s.buf.capacity()).max().unwrap_or(0);
        self.hint_len = self.hint_len.min(widest);
        freed
    }

    /// Grabs a vacant slot (recycled buffer) or allocates a fresh one.
    /// The returned slot's buffer is empty with its capacity retained.
    #[inline]
    fn alloc(&mut self) -> ClockId {
        if let Some(i) = self.free.pop() {
            self.stats.buffer_reuses += 1;
            let slot = &mut self.slots[i as usize];
            debug_assert_eq!(slot.refs, 0);
            slot.buf.clear();
            slot.refs = 1;
            ClockId(i)
        } else {
            self.stats.buffers_allocated += 1;
            self.slots.push(Slot { buf: Vec::with_capacity(self.hint_len), refs: 1 });
            ClockId(u32::try_from(self.slots.len() - 1).expect("clock pool slot overflow"))
        }
    }

    /// Grows `buf` to at least `len` components, counting a heap
    /// reallocation when the capacity was insufficient. An actual grow
    /// reserves the pool-wide length hint so the buffer will not grow
    /// again until the dimension does.
    #[inline]
    fn ensure_len(stats: &mut PoolStats, hint_len: &mut usize, buf: &mut Vec<Time>, len: usize) {
        *hint_len = (*hint_len).max(len);
        if len > buf.len() {
            if len > buf.capacity() {
                stats.buffer_grows += 1;
                buf.reserve_exact(*hint_len - buf.len());
            }
            buf.resize(len, 0);
        }
    }

    /// Drops one reference to `c`'s slot (no-op for `⊥`/epochs). The slot
    /// is recycled once its last reference is gone.
    #[inline]
    pub fn release(&mut self, c: PoolClock) {
        if let PoolClock::Full(id) = c {
            let slot = &mut self.slots[id.index()];
            debug_assert!(slot.refs > 0, "release of a vacant pool slot");
            slot.refs -= 1;
            if slot.refs == 0 {
                self.free.push(id.0);
            }
        }
    }

    /// Duplicates the handle in O(1), bumping the slot reference count.
    #[must_use]
    #[inline]
    pub fn clone_ref(&mut self, c: &PoolClock) -> PoolClock {
        match *c {
            PoolClock::Bottom => PoolClock::Bottom,
            PoolClock::Epoch(e) => PoolClock::Epoch(e),
            PoolClock::Full(id) => {
                self.slots[id.index()].refs += 1;
                PoolClock::Full(id)
            }
        }
    }

    /// The paper's clock assignment `dst := src` in O(1): the old `dst`
    /// reference is dropped and `src`'s representation is shared.
    #[inline]
    pub fn assign(&mut self, dst: &mut PoolClock, src: &PoolClock) {
        let new = self.clone_ref(src);
        if let PoolClock::Full(_) = new {
            self.stats.shares += 1;
        }
        let old = std::mem::replace(dst, new);
        self.release(old);
    }

    /// The assignment `dst := src` materialised into `dst`'s *own*
    /// buffer (reused when exclusive) instead of sharing `src`'s slot.
    ///
    /// Copy-on-write [`ClockPool::assign`] is the right call when the
    /// destination outlives the source's next mutation (lock-release and
    /// write clocks). For `C⊲_t := C_t` at a begin event the opposite
    /// holds: `C_t` is mutated by the very next event of the
    /// transaction, so sharing only moves the copy there *and* forces
    /// the slower shared-path join until it happens. Eager copying keeps
    /// `C_t` exclusive for the whole transaction.
    #[inline]
    pub fn copy_assign(&mut self, dst: &mut PoolClock, src: &PoolClock) {
        match *src {
            PoolClock::Bottom | PoolClock::Epoch(_) => {
                let old = std::mem::replace(dst, self.clone_ref(src));
                self.release(old);
            }
            PoolClock::Full(s) => {
                let d = match *dst {
                    PoolClock::Full(d) if d != s && self.slots[d.index()].refs == 1 => d,
                    _ => {
                        let old = std::mem::take(dst);
                        self.release(old);
                        let d = self.alloc();
                        *dst = PoolClock::Full(d);
                        d
                    }
                };
                let Self { slots, stats, hint_len, .. } = self;
                let (dbuf, sbuf) = Self::two_bufs(slots, d, s);
                dbuf.clear();
                if sbuf.len() > dbuf.capacity() {
                    stats.buffer_grows += 1;
                    dbuf.reserve_exact((*hint_len).max(sbuf.len()));
                }
                *hint_len = (*hint_len).max(sbuf.len());
                dbuf.extend_from_slice(sbuf);
                stats.cow_copies += 1;
            }
        }
    }

    /// Ensures `c` is an unshared `Full` slot and returns its id —
    /// promoting `⊥`/epochs and copy-on-write-unsharing shared slots.
    #[inline]
    fn make_mut(&mut self, c: &mut PoolClock) -> ClockId {
        match *c {
            PoolClock::Bottom => {
                let id = self.alloc();
                *c = PoolClock::Full(id);
                id
            }
            PoolClock::Epoch(e) => {
                let id = self.alloc();
                let Self { slots, stats, hint_len, .. } = self;
                let buf = &mut slots[id.index()].buf;
                Self::ensure_len(stats, hint_len, buf, e.thread() + 1);
                buf[e.thread()] = e.time();
                *c = PoolClock::Full(id);
                id
            }
            PoolClock::Full(id) if self.slots[id.index()].refs == 1 => id,
            PoolClock::Full(id) => {
                // Shared: single-pass copy into a recycled slot.
                self.stats.cow_copies += 1;
                self.slots[id.index()].refs -= 1;
                debug_assert!(self.slots[id.index()].refs > 0);
                let new = self.alloc();
                let Self { slots, stats, hint_len, .. } = self;
                let (dst, src) = Self::two_bufs(slots, new, id);
                debug_assert!(dst.is_empty(), "alloc returns a cleared buffer");
                if src.len() > dst.capacity() {
                    stats.buffer_grows += 1;
                    dst.reserve_exact((*hint_len).max(src.len()));
                }
                *hint_len = (*hint_len).max(src.len());
                dst.extend_from_slice(src);
                *c = PoolClock::Full(new);
                new
            }
        }
    }

    /// Splits `(&mut slots[a].buf, &slots[b].buf)` out of the slab
    /// (`a != b`).
    #[inline]
    fn two_bufs(slots: &mut [Slot], a: ClockId, b: ClockId) -> (&mut Vec<Time>, &Vec<Time>) {
        debug_assert_ne!(a, b);
        let (lo, hi) = (a.index().min(b.index()), a.index().max(b.index()));
        let (head, tail) = slots.split_at_mut(hi);
        if a.index() < b.index() {
            (&mut head[lo].buf, &tail[0].buf)
        } else {
            (&mut tail[0].buf, &head[lo].buf)
        }
    }

    /// Number of explicitly stored components of `c` — an upper bound on
    /// the highest non-zero thread index.
    #[must_use]
    #[inline]
    pub fn dim(&self, c: &PoolClock) -> usize {
        match *c {
            PoolClock::Bottom => 0,
            PoolClock::Epoch(e) => e.thread() + 1,
            PoolClock::Full(id) => self.slots[id.index()].buf.len(),
        }
    }

    /// Reads component `t` of `c` (absent components are `0`).
    #[must_use]
    #[inline]
    pub fn component(&self, c: &PoolClock, t: usize) -> Time {
        match *c {
            PoolClock::Bottom => 0,
            PoolClock::Epoch(e) => {
                if e.thread() == t {
                    e.time()
                } else {
                    0
                }
            }
            PoolClock::Full(id) => self.slots[id.index()].buf.get(t).copied().unwrap_or(0),
        }
    }

    /// Component `t` of `c` viewed as an [`Epoch`].
    #[must_use]
    #[inline]
    pub fn epoch_of(&self, c: &PoolClock, t: usize) -> Epoch {
        Epoch::new(t, self.component(c, t))
    }

    /// Whether epoch `e` is below `c`: `e.time ≤ c(e.thread)`.
    #[must_use]
    #[inline]
    pub fn contains_epoch(&self, c: &PoolClock, e: Epoch) -> bool {
        e.time() <= self.component(c, e.thread())
    }

    /// The pointwise order `a ⊑ b`.
    #[must_use]
    #[inline]
    pub fn leq(&self, a: &PoolClock, b: &PoolClock) -> bool {
        match (a, b) {
            (PoolClock::Bottom, _) => true,
            (PoolClock::Epoch(e), _) => self.contains_epoch(b, *e),
            (PoolClock::Full(ia), PoolClock::Full(ib)) if ia == ib => true,
            (PoolClock::Full(ia), _) => {
                let buf = &self.slots[ia.index()].buf;
                buf.iter().enumerate().all(|(t, &v)| v <= self.component(b, t))
            }
        }
    }

    /// `C_t(t) := C_t(t) + 1` — stays on the epoch fast path when `c` is
    /// `⊥` or an epoch of the same thread.
    #[inline]
    pub fn increment(&mut self, c: &mut PoolClock, t: usize) {
        match *c {
            PoolClock::Bottom => *c = PoolClock::Epoch(Epoch::new(t, 1)),
            PoolClock::Epoch(e) if e.thread() == t => {
                debug_assert!(e.time() < Time::MAX, "vector clock component overflow");
                *c = PoolClock::Epoch(Epoch::new(t, e.time().wrapping_add(1)));
            }
            _ => {
                let id = self.make_mut(c);
                let Self { slots, stats, hint_len, .. } = self;
                let buf = &mut slots[id.index()].buf;
                Self::ensure_len(stats, hint_len, buf, t + 1);
                debug_assert!(buf[t] < Time::MAX, "vector clock component overflow");
                buf[t] = buf[t].wrapping_add(1);
            }
        }
    }

    /// One fused pass computing `(a ⊑ b, b ⊑ a)` over two slot buffers.
    #[inline]
    fn cmp_bufs(a: &[Time], b: &[Time]) -> (bool, bool) {
        let (mut le, mut ge) = (true, true);
        let n = a.len().max(b.len());
        for t in 0..n {
            let (x, y) = (a.get(t).copied().unwrap_or(0), b.get(t).copied().unwrap_or(0));
            le &= x <= y;
            ge &= y <= x;
            if !le && !ge {
                break;
            }
        }
        (le, ge)
    }

    /// The join `dst := dst ⊔ src` without ever allocating: shares when
    /// the result equals one side, otherwise joins in place after a
    /// copy-on-write unshare.
    #[inline]
    pub fn join_into(&mut self, dst: &mut PoolClock, src: &PoolClock) {
        self.stats.joins += 1;
        match (&*dst, src) {
            (_, PoolClock::Bottom) => {}
            (PoolClock::Bottom, _) => self.assign(dst, src),
            (_, PoolClock::Epoch(e)) => {
                let e = *e;
                if !self.contains_epoch(dst, e) {
                    let id = self.make_mut(dst);
                    let Self { slots, stats, hint_len, .. } = self;
                    let buf = &mut slots[id.index()].buf;
                    Self::ensure_len(stats, hint_len, buf, e.thread() + 1);
                    buf[e.thread()] = buf[e.thread()].max(e.time());
                }
            }
            (PoolClock::Epoch(d), PoolClock::Full(_)) => {
                let d = *d;
                if self.contains_epoch(src, d) {
                    self.assign(dst, src); // result is exactly src: share
                } else {
                    let id = self.make_mut(dst);
                    self.join_full(id, src);
                }
            }
            (PoolClock::Full(id_d), PoolClock::Full(id_s)) => {
                let (id_d, id_s) = (*id_d, *id_s);
                if id_d == id_s {
                    return;
                }
                if self.slots[id_d.index()].refs == 1 {
                    // Sole owner: join in place directly, exactly the
                    // baseline's cost — no compare pre-pass.
                    self.join_full(id_d, src);
                    return;
                }
                // Shared destination: a copy is otherwise unavoidable, so
                // one compare pass to detect the two share-instead cases
                // (result == dst: keep; result == src: re-point) pays off.
                let (d_le_s, s_le_d) =
                    Self::cmp_bufs(&self.slots[id_d.index()].buf, &self.slots[id_s.index()].buf);
                if s_le_d {
                    return; // already ⊒ src
                }
                if d_le_s {
                    self.assign(dst, src); // result is exactly src: share
                    return;
                }
                let id = self.make_mut(dst);
                self.join_full(id, src);
            }
        }
    }

    /// `slots[dst] ⊔= src` where `dst` is known unshared and distinct
    /// from `src`'s slot. Single pass: the overlapping prefix is maxed in
    /// place and any longer suffix of `src` is appended directly (no
    /// zero-fill-then-overwrite).
    #[inline]
    fn join_full(&mut self, dst: ClockId, src: &PoolClock) {
        let PoolClock::Full(s) = *src else { unreachable!("join_full takes a full source") };
        debug_assert_ne!(dst, s);
        let Self { slots, stats, hint_len, .. } = self;
        let (d, s_buf) = Self::two_bufs(slots, dst, s);
        let n = d.len().min(s_buf.len());
        for (a, &b) in d.iter_mut().zip(&s_buf[..n]) {
            *a = (*a).max(b);
        }
        if s_buf.len() > d.len() {
            if s_buf.len() > d.capacity() {
                stats.buffer_grows += 1;
                d.reserve_exact((*hint_len).max(s_buf.len()) - d.len());
            }
            d.extend_from_slice(&s_buf[n..]);
            *hint_len = (*hint_len).max(d.len());
        }
    }

    /// `dst := dst ⊔ src[0/zeroed]` — the Algorithm 2/3 check-read update
    /// — without materialising the substituted clock.
    #[inline]
    pub fn join_into_zeroed(&mut self, dst: &mut PoolClock, src: &PoolClock, zeroed: usize) {
        match *src {
            PoolClock::Bottom => {}
            PoolClock::Epoch(e) => {
                if e.thread() != zeroed {
                    self.join_into(dst, &PoolClock::Epoch(e));
                }
            }
            PoolClock::Full(s) => {
                self.stats.joins += 1;
                if matches!(*dst, PoolClock::Full(d) if d == s) {
                    return; // x ⊔ x[0/z] = x
                }
                let id = self.make_mut(dst);
                debug_assert_ne!(id, s, "make_mut returns an unshared slot");
                let (lo, hi) = (id.index().min(s.index()), id.index().max(s.index()));
                let (head, tail) = self.slots.split_at_mut(hi);
                let (d, s_buf) = if id.index() < s.index() {
                    (&mut head[lo].buf, &tail[0].buf)
                } else {
                    (&mut tail[0].buf, &head[lo].buf)
                };
                Self::ensure_len(&mut self.stats, &mut self.hint_len, d, s_buf.len());
                for (t, (a, &b)) in d.iter_mut().zip(s_buf.iter()).enumerate() {
                    if t != zeroed {
                        *a = (*a).max(b);
                    }
                }
            }
        }
    }

    /// A borrowed view of `c` for repeated component reads: resolves the
    /// slab indirection once so scan loops (update-set marking, the GC
    /// incoming-edge test) pay one pointer chase per clock, not per
    /// component.
    #[must_use]
    #[inline]
    pub fn view<'a>(&'a self, c: &'a PoolClock) -> PoolView<'a> {
        match *c {
            PoolClock::Bottom => PoolView::Bottom,
            PoolClock::Epoch(e) => PoolView::Epoch(e),
            PoolClock::Full(id) => PoolView::Slice(&self.slots[id.index()].buf),
        }
    }

    /// Materialises `c` as a plain [`VectorClock`] (diagnostics and
    /// tests; the hot path never needs this).
    #[must_use]
    pub fn snapshot(&self, c: &PoolClock) -> VectorClock {
        match *c {
            PoolClock::Bottom => VectorClock::bottom(),
            PoolClock::Epoch(e) => VectorClock::bottom().with_component(e.thread(), e.time()),
            PoolClock::Full(id) => {
                VectorClock::from_components(self.slots[id.index()].buf.iter().copied())
            }
        }
    }
}

/// The parallel runtime hands each checker worker its own shard-local
/// pool; losing `Send` here would silently serialise the whole pipeline,
/// so the bound is asserted at compile time.
#[allow(dead_code)]
const fn assert_send<T: Send>() {}
const _: () = assert_send::<ClockPool>();
const _: () = assert_send::<PoolClock>();

#[cfg(test)]
mod tests {
    use super::*;

    fn full(pool: &mut ClockPool, comps: &[Time]) -> PoolClock {
        let mut c = PoolClock::Bottom;
        for (t, &v) in comps.iter().enumerate() {
            if v > 0 {
                pool.join_into(&mut c, &PoolClock::epoch(t, v));
            }
        }
        c
    }

    #[test]
    fn epoch_fast_path_never_allocates() {
        let mut pool = ClockPool::new();
        let mut c = PoolClock::epoch(3, 1);
        pool.increment(&mut c, 3);
        pool.increment(&mut c, 3);
        assert_eq!(pool.component(&c, 3), 3);
        assert_eq!(pool.component(&c, 0), 0);
        assert!(pool.contains_epoch(&c, Epoch::new(3, 3)));
        assert_eq!(pool.stats().heap_allocs(), 0);
        assert!(matches!(c, PoolClock::Epoch(_)));
    }

    #[test]
    fn promotion_happens_on_second_component() {
        let mut pool = ClockPool::new();
        let mut c = PoolClock::epoch(0, 2);
        pool.join_into(&mut c, &PoolClock::epoch(1, 5));
        assert!(matches!(c, PoolClock::Full(_)));
        assert_eq!(pool.snapshot(&c), VectorClock::from_components([2, 5]));
    }

    #[test]
    fn assign_shares_and_cow_unshares() {
        let mut pool = ClockPool::new();
        let mut a = full(&mut pool, &[1, 2]);
        let mut b = PoolClock::Bottom;
        pool.assign(&mut b, &a);
        let before = pool.stats();
        assert_eq!(before.shares, 1);
        // Mutating the shared clock must not disturb the other handle.
        pool.increment(&mut a, 0);
        assert_eq!(pool.component(&a, 0), 2);
        assert_eq!(pool.component(&b, 0), 1);
        assert_eq!(pool.stats().cow_copies, before.cow_copies + 1);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.stats().live_slots, 0);
    }

    #[test]
    fn join_shares_when_result_equals_source() {
        let mut pool = ClockPool::new();
        let big = full(&mut pool, &[3, 3, 3]);
        let mut small = full(&mut pool, &[1, 0, 2]);
        // Make `small` shared: a copy would otherwise be unavoidable, so
        // the join must notice result == src and share instead.
        let alias = pool.clone_ref(&small);
        let allocs = pool.stats().heap_allocs();
        let copies = pool.stats().cow_copies;
        pool.join_into(&mut small, &big);
        assert_eq!(pool.stats().heap_allocs(), allocs, "result == src must share, not copy");
        assert_eq!(pool.stats().cow_copies, copies, "no copy-on-write either");
        assert_eq!(pool.snapshot(&small), pool.snapshot(&big));
        assert!(pool.stats().shares >= 1);
        assert_eq!(pool.snapshot(&alias), VectorClock::from_components([1, 0, 2]));
        pool.release(small);
        pool.release(big);
        pool.release(alias);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut pool = ClockPool::new();
        let a = full(&mut pool, &[1, 5, 0]);
        let mut b = full(&mut pool, &[2, 3, 1]);
        pool.join_into(&mut b, &a);
        assert_eq!(pool.snapshot(&b), VectorClock::from_components([2, 5, 1]));
        pool.release(a);
        pool.release(b);
    }

    #[test]
    fn join_zeroed_skips_component() {
        let mut pool = ClockPool::new();
        let a = full(&mut pool, &[9, 9, 9]);
        let mut b = full(&mut pool, &[1, 1, 1]);
        pool.join_into_zeroed(&mut b, &a, 1);
        assert_eq!(pool.snapshot(&b), VectorClock::from_components([9, 1, 9]));
        // Epoch source of the zeroed thread is a no-op.
        let mut c = PoolClock::Bottom;
        pool.join_into_zeroed(&mut c, &PoolClock::epoch(2, 7), 2);
        assert!(matches!(c, PoolClock::Bottom));
        pool.release(a);
        pool.release(b);
    }

    #[test]
    fn leq_across_representations() {
        let mut pool = ClockPool::new();
        let bot = PoolClock::Bottom;
        let e = PoolClock::epoch(1, 2);
        let f = full(&mut pool, &[1, 2, 3]);
        let g = full(&mut pool, &[1, 1, 3]);
        assert!(pool.leq(&bot, &e));
        assert!(pool.leq(&bot, &f));
        assert!(pool.leq(&e, &f));
        assert!(!pool.leq(&f, &e));
        assert!(!pool.leq(&e, &g));
        assert!(pool.leq(&g, &f));
        assert!(!pool.leq(&f, &g));
        assert!(pool.leq(&f, &f));
        pool.release(f);
        pool.release(g);
    }

    #[test]
    fn released_buffers_are_recycled_without_allocating() {
        let mut pool = ClockPool::new();
        let a = full(&mut pool, &[1, 2, 3, 4]);
        pool.release(a);
        let allocs = pool.stats().heap_allocs();
        for _ in 0..100 {
            let c = full(&mut pool, &[4, 3, 2, 1]);
            pool.release(c);
        }
        assert_eq!(pool.stats().heap_allocs(), allocs, "recycled buffers must not reallocate");
        assert!(pool.stats().buffer_reuses >= 100);
    }

    #[test]
    fn self_join_is_a_no_op() {
        let mut pool = ClockPool::new();
        let mut a = full(&mut pool, &[2, 1]);
        let alias = pool.clone_ref(&a);
        pool.join_into(&mut a, &alias);
        assert_eq!(pool.snapshot(&a), VectorClock::from_components([2, 1]));
        pool.join_into_zeroed(&mut a, &alias, 0);
        assert_eq!(pool.snapshot(&a), VectorClock::from_components([2, 1]));
        pool.release(a);
        pool.release(alias);
    }

    #[test]
    fn reset_recycles_live_handles_and_keeps_buffers() {
        let mut pool = ClockPool::new();
        let a = full(&mut pool, &[1, 2, 3]);
        let b = full(&mut pool, &[4, 5, 6, 7]);
        let allocs = pool.stats().heap_allocs();
        assert_eq!(pool.stats().live_slots, 2);
        pool.reset();
        // Handles invalidated wholesale: forget them without release.
        let _ = (a, b);
        assert_eq!(pool.stats().live_slots, 0);
        assert_eq!(pool.stats().free_slots, 2);
        assert!(pool.stats().retained_bytes >= 7 * size_of::<Time>());
        // The next trace's working set comes out of the recycled buffers
        // (slot ids are recycled in fresh-pool order: a's slot, then b's).
        let c = full(&mut pool, &[7, 7, 7]);
        let d = full(&mut pool, &[1, 1, 1, 1]);
        assert_eq!(pool.stats().heap_allocs(), allocs, "reset must keep warm buffers");
        assert_eq!(pool.snapshot(&c), VectorClock::from_components([7, 7, 7]));
        pool.release(c);
        pool.release(d);
    }

    #[test]
    fn trim_bounds_retained_bytes_largest_first() {
        let mut pool = ClockPool::new();
        let small = full(&mut pool, &[1, 1]);
        let big = full(&mut pool, &(0..1000).collect::<Vec<Time>>());
        pool.reset();
        let _ = (small, big);
        let before = pool.stats().retained_bytes;
        assert!(before >= 1000 * size_of::<Time>());
        let freed = pool.trim(16 * size_of::<Time>());
        let after = pool.stats().retained_bytes;
        assert!(after <= 16 * size_of::<Time>(), "retained {after} bytes after trim");
        assert_eq!(before - after, freed);
        // Under budget: a no-op.
        assert_eq!(pool.trim(usize::MAX), 0);
        // The width hint must not re-inflate fresh buffers to the old max.
        let c = full(&mut pool, &[1, 1]);
        assert!(pool.stats().retained_bytes < 1000 * size_of::<Time>());
        pool.release(c);
    }

    #[test]
    fn delta_since_reports_per_trace_counters() {
        let mut pool = ClockPool::new();
        let a = full(&mut pool, &[1, 2]);
        pool.release(a);
        let base = pool.stats();
        let b = full(&mut pool, &[3, 4]);
        let d = pool.stats().delta_since(&base);
        assert_eq!(d.heap_allocs(), 0, "second trace reuses the warm buffer");
        assert!(d.buffer_reuses >= 1);
        assert!(d.joins >= 1);
        assert_eq!(d.live_slots, 1, "gauges pass through");
        pool.release(b);
    }

    #[test]
    fn snapshot_matches_componentwise_reads() {
        let mut pool = ClockPool::new();
        let c = full(&mut pool, &[0, 7, 0, 9]);
        let snap = pool.snapshot(&c);
        for t in 0..6 {
            assert_eq!(snap.component(t), pool.component(&c, t));
        }
        pool.release(c);
    }
}
