//! The kernel event queue: a two-level calendar queue with a retained
//! heap reference implementation.
//!
//! The simulator's event population is strongly bimodal: deliveries, NIC
//! completions and submission continuations land within milliseconds of
//! `now`, while heartbeats, suspicion timeouts and replication rounds sit
//! seconds out.  A single global `BinaryHeap` pays `O(log n)` sift cost —
//! over entries carrying whole protocol messages — for every one of them.
//! The calendar queue splits the population, and keeps the payloads out
//! of all three levels: an event is written **once** into a chunked
//! [`Arena`] and the levels below order 24-byte `(at, seq, slot)`
//! [`Handle`]s, so a sift, a bucket promotion or a B-tree node split moves
//! handles, never whole protocol messages.
//!
//! * **`cur`** — a small binary heap holding every handle at or below the
//!   promotion frontier (`base`, a slot index).  All pops come from here,
//!   so the sift working set tracks the *per-slot* population, not the
//!   whole backlog.
//! * **ring** — `NSLOTS` buckets of `SLOT_NANOS` width covering the open
//!   window `(base, base + NSLOTS)`.  A push inside the window is an
//!   `O(1)` `Vec::push`; bucket contents are promoted wholesale into
//!   `cur` when the frontier reaches them, and the emptied `Vec` goes to a
//!   small pool the next bucket to fill draws from (steady state allocates
//!   nothing).
//! * **overflow** — a `BTreeSet` of handles for events beyond the window
//!   horizon (far timers).  Promotion pops exactly the slot being entered
//!   off the front, so a far event costs one set insert + one removal —
//!   the same `O(log n)` it cost in the old heap, amortized over far
//!   fewer entries.
//!
//! The arena hands memory back: a chunk whose last event left is released
//! (one empty chunk is kept as a spare so a queue hovering around a chunk
//! boundary does not thrash), so resident memory follows the *current*
//! backlog, not the deepest one the run ever saw.
//!
//! **Ordering invariant** (what makes the swap trace-invisible): every
//! entry with slot ≤ `base` lives in `cur`; the ring covers `(base,
//! base + NSLOTS)`; promotion advances `base` to the *minimum* of the
//! next non-empty ring slot and the first overflow slot, draining both
//! sources for that slot into `cur`.  Pops therefore observe the exact
//! global `(at, seq)` total order the heap produced — FIFO by `seq`
//! within an instant — and the golden-trace and queue-equivalence suites
//! hold the two implementations to it event for event.
//!
//! [`ReferenceHeap`] is the original single-heap kernel, retained as the
//! executable specification (same discipline as `delta_since_scan` next
//! to `delta_since` in `rpcv-store`).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crate::time::SimTime;

/// Width of one calendar slot, in nanoseconds (1 ms).
const SLOT_NANOS: u64 = 1_000_000;
/// Number of ring slots (window horizon ≈ 4.1 s of virtual time).
const NSLOTS: u64 = 4096;

/// One queued event of the reference heap, carried inline: total order is
/// `(at, seq)`.
struct Ent<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Ent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Ent<T> {}
impl<T> PartialOrd for Ent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Ent<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[inline]
fn slot_of(at: SimTime) -> u64 {
    at.0 / SLOT_NANOS
}

/// Slots per arena chunk.
const CHUNK: usize = 256;
/// Emptied bucket `Vec`s kept for reuse.
const BUCKET_POOL: usize = 64;

/// One arena chunk: `CHUNK` slots plus its own LIFO free list, so a chunk
/// can be released as a unit the moment its last event leaves.
struct Chunk<T> {
    slots: Box<[Option<T>]>,
    free: Vec<u16>,
}

/// Chunked slab holding every queued event exactly once.
struct Arena<T> {
    /// Chunk storage; `None` marks a released position (see `vacant`).
    chunks: Vec<Option<Chunk<T>>>,
    /// Allocated chunks with at least one free slot (LIFO, so inserts reuse
    /// the most recently vacated — cache-warm — chunk).
    open: Vec<u32>,
    /// Released chunk positions, reused before `chunks` grows.
    vacant: Vec<u32>,
    live: usize,
}

impl<T> Arena<T> {
    fn new() -> Self {
        Arena { chunks: Vec::new(), open: Vec::new(), vacant: Vec::new(), live: 0 }
    }

    /// Allocates a fresh chunk and returns its (open) position.
    fn grow(&mut self) -> u32 {
        let chunk = Chunk {
            slots: (0..CHUNK).map(|_| None).collect(),
            free: (0..CHUNK as u16).rev().collect(),
        };
        let c = match self.vacant.pop() {
            Some(c) => {
                self.chunks[c as usize] = Some(chunk);
                c
            }
            None => {
                self.chunks.push(Some(chunk));
                (self.chunks.len() - 1) as u32
            }
        };
        self.open.push(c);
        c
    }

    fn insert(&mut self, item: T) -> u32 {
        let c = match self.open.last() {
            Some(&c) => c,
            None => self.grow(),
        };
        let chunk = self.chunks[c as usize].as_mut().expect("open chunks are allocated");
        let s = chunk.free.pop().expect("open chunks have a free slot");
        chunk.slots[s as usize] = Some(item);
        if chunk.free.is_empty() {
            self.open.pop();
        }
        self.live += 1;
        c * CHUNK as u32 + s as u32
    }

    fn remove(&mut self, slot: u32) -> T {
        let (c, s) = (slot / CHUNK as u32, slot % CHUNK as u32);
        let chunk = self.chunks[c as usize].as_mut().expect("handles point into allocated chunks");
        let item = chunk.slots[s as usize].take().expect("handles point at live slots");
        chunk.free.push(s as u16);
        self.live -= 1;
        if chunk.free.len() == 1 {
            self.open.push(c); // was full
        } else if chunk.free.len() == CHUNK && self.open.len() > 1 {
            // Drained empty while another chunk can take the next insert:
            // hand the memory back.
            self.open.retain(|&o| o != c);
            self.chunks[c as usize] = None;
            self.vacant.push(c);
        }
        item
    }

    fn allocated_chunks(&self) -> usize {
        self.chunks.len() - self.vacant.len()
    }

    fn free_slots(&self) -> usize {
        self.chunks.iter().flatten().map(|c| c.free.len()).sum()
    }
}

/// Where one queued event sits: its `(at, seq)` rank plus its arena slot.
/// This — not the event — is what the heap, the ring and the overflow set
/// order and move.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Handle {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// Internal-consistency readout of the calendar queue, for the
/// equivalence property tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueAudit {
    /// Handles held across `cur`, the ring and the overflow set.
    pub handles: usize,
    /// Arena slots holding an event.
    pub live_slots: usize,
    /// Arena slots on a free list.
    pub free_slots: usize,
    /// Arena chunks currently allocated.
    pub chunks: usize,
    /// Slots per chunk.
    pub chunk_slots: usize,
}

/// Two-level bucketed calendar queue (see module docs).
pub(crate) struct CalendarQueue<T> {
    arena: Arena<T>,
    /// Handles at or below the frontier slot, popped in `(at, seq)` order.
    cur: BinaryHeap<Reverse<Handle>>,
    /// Near-term buckets for slots in `(base, base + NSLOTS)`, indexed by
    /// absolute slot mod `NSLOTS`.  Within a bucket handles sit in push =
    /// `seq` order; the promotion heapify restores `(at, seq)`.
    ring: Vec<Vec<Handle>>,
    /// Total handles across all ring buckets.
    ring_len: usize,
    /// Promotion frontier: absolute slot index covered by `cur`.
    base: u64,
    /// Events beyond the window horizon, sorted by `(at, seq)`.
    overflow: BTreeSet<Handle>,
    /// Emptied bucket `Vec`s (capacity kept) awaiting reuse.
    spare_buckets: Vec<Vec<Handle>>,
}

impl<T> CalendarQueue<T> {
    fn new() -> Self {
        CalendarQueue {
            arena: Arena::new(),
            cur: BinaryHeap::new(),
            ring: (0..NSLOTS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            base: 0,
            overflow: BTreeSet::new(),
            spare_buckets: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.arena.live
    }

    fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let h = Handle { at, seq, slot: self.arena.insert(item) };
        let s = slot_of(at);
        if s <= self.base {
            self.cur.push(Reverse(h));
        } else if s < self.base + NSLOTS {
            let bucket = &mut self.ring[(s % NSLOTS) as usize];
            if bucket.capacity() == 0 {
                if let Some(spare) = self.spare_buckets.pop() {
                    *bucket = spare;
                }
            }
            bucket.push(h);
            self.ring_len += 1;
        } else {
            self.overflow.insert(h);
        }
    }

    /// Advances the frontier until `cur` holds the globally earliest
    /// entry (no-op while `cur` is non-empty — everything elsewhere is in
    /// a strictly later slot).
    fn ensure_cur(&mut self) {
        if !self.cur.is_empty() || self.len() == 0 {
            return;
        }
        let ring_next = (self.ring_len > 0).then(|| {
            (1..=NSLOTS)
                .map(|k| self.base + k)
                .find(|s| !self.ring[(s % NSLOTS) as usize].is_empty())
                .expect("ring_len > 0 means some bucket is non-empty")
        });
        let over_next = self.overflow.first().map(|h| slot_of(h.at));
        let s = match (ring_next, over_next) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0"),
        };
        self.base = s;
        if ring_next == Some(s) {
            let mut bucket = std::mem::take(&mut self.ring[(s % NSLOTS) as usize]);
            self.ring_len -= bucket.len();
            self.cur.extend(bucket.drain(..).map(Reverse));
            if self.spare_buckets.len() < BUCKET_POOL {
                self.spare_buckets.push(bucket);
            }
        }
        if over_next == Some(s) {
            while self.overflow.first().is_some_and(|h| slot_of(h.at) == s) {
                let h = self.overflow.pop_first().expect("just peeked");
                self.cur.push(Reverse(h));
            }
        }
    }

    fn next_at(&mut self) -> Option<SimTime> {
        self.ensure_cur();
        self.cur.peek().map(|Reverse(h)| h.at)
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.ensure_cur();
        let Reverse(h) = self.cur.pop()?;
        Some((h.at, h.seq, self.arena.remove(h.slot)))
    }

    fn pop_at_most(&mut self, t: SimTime) -> Option<(SimTime, u64, T)> {
        if self.next_at()? > t {
            return None;
        }
        self.pop()
    }

    /// Non-mutating earliest-instant scan (`&self`, for idle callers like
    /// the realtime driver; the dispatch loop uses [`Self::next_at`]).
    fn peek_next_time(&self) -> Option<SimTime> {
        let mut best = self.cur.peek().map(|Reverse(h)| h.at);
        if best.is_none() && self.ring_len > 0 {
            // Only consulted when `cur` is empty: the first non-empty
            // bucket strictly precedes every other bucket, but its own
            // entries are unsorted, so take the bucket-local minimum.
            best = (1..=NSLOTS)
                .map(|k| self.base + k)
                .find(|s| !self.ring[(s % NSLOTS) as usize].is_empty())
                .and_then(|s| self.ring[(s % NSLOTS) as usize].iter().map(|h| h.at).min());
        }
        match (best, self.overflow.first().map(|h| h.at)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn audit(&self) -> QueueAudit {
        QueueAudit {
            handles: self.cur.len() + self.ring_len + self.overflow.len(),
            live_slots: self.arena.live,
            free_slots: self.arena.free_slots(),
            chunks: self.arena.allocated_chunks(),
            chunk_slots: CHUNK,
        }
    }
}

/// The original single-heap kernel, retained as the executable reference
/// for the calendar queue (swap in via `World::use_reference_queue`).
pub(crate) struct ReferenceHeap<T> {
    heap: BinaryHeap<Reverse<Ent<T>>>,
}

/// The kernel event queue behind `push_event`/`peek_next_time`/`step`.
pub(crate) enum EventQueue<T> {
    /// Production implementation.
    Calendar(CalendarQueue<T>),
    /// Scan-style reference implementation (the pre-calendar kernel).
    Reference(ReferenceHeap<T>),
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue::Calendar(CalendarQueue::new())
    }

    pub(crate) fn reference() -> Self {
        EventQueue::Reference(ReferenceHeap { heap: BinaryHeap::new() })
    }

    pub(crate) fn is_reference(&self) -> bool {
        matches!(self, EventQueue::Reference(_))
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::Reference(q) => q.heap.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consistency readout of the calendar queue (`None` on the reference
    /// heap, which has no arena).
    pub(crate) fn audit(&self) -> Option<QueueAudit> {
        match self {
            EventQueue::Calendar(q) => Some(q.audit()),
            EventQueue::Reference(_) => None,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, item: T) {
        match self {
            EventQueue::Calendar(q) => q.push(at, seq, item),
            EventQueue::Reference(q) => q.heap.push(Reverse(Ent { at, seq, item })),
        }
    }

    /// Earliest queued instant; may advance internal bookkeeping but never
    /// observable order.
    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Calendar(q) => q.next_at(),
            EventQueue::Reference(q) => q.heap.peek().map(|Reverse(e)| e.at),
        }
    }

    /// Earliest queued instant without mutation (slower for the calendar:
    /// a bucket scan instead of a promotion).
    pub(crate) fn peek_next_time(&self) -> Option<SimTime> {
        match self {
            EventQueue::Calendar(q) => q.peek_next_time(),
            EventQueue::Reference(q) => q.heap.peek().map(|Reverse(e)| e.at),
        }
    }

    /// Pops the globally earliest entry.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::Reference(q) => q.heap.pop().map(|Reverse(e)| (e.at, e.seq, e.item)),
        }
    }

    /// Pops the earliest entry if it is due at or before `t`.
    pub(crate) fn pop_at_most(&mut self, t: SimTime) -> Option<(SimTime, u64, T)> {
        match self {
            EventQueue::Calendar(q) => q.pop_at_most(t),
            EventQueue::Reference(q) => {
                if q.heap.peek().is_none_or(|Reverse(e)| e.at > t) {
                    return None;
                }
                q.heap.pop().map(|Reverse(e)| (e.at, e.seq, e.item))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, item)) = q.pop() {
            out.push((at.0, seq, item));
        }
        out
    }

    #[test]
    fn pops_in_at_seq_order_across_levels() {
        for make in [EventQueue::<u32>::new as fn() -> _, EventQueue::<u32>::reference] {
            let mut q = make();
            // Same instant (FIFO by seq), near window, far overflow, and a
            // far event that lands earlier than a near bucket's tail.
            q.push(SimTime(5), 1, 10);
            q.push(SimTime(5), 2, 11);
            q.push(SimTime(3 * SLOT_NANOS), 3, 12);
            q.push(SimTime((NSLOTS + 7) * SLOT_NANOS), 4, 13);
            q.push(SimTime(2), 5, 14);
            let got = drain(&mut q);
            assert_eq!(
                got,
                vec![
                    (2, 5, 14),
                    (5, 1, 10),
                    (5, 2, 11),
                    (3 * SLOT_NANOS, 3, 12),
                    ((NSLOTS + 7) * SLOT_NANOS, 4, 13),
                ]
            );
            assert!(q.is_empty());
        }
    }

    #[test]
    fn overflow_and_ring_same_slot_interleave() {
        let mut q = EventQueue::new();
        let far_slot = NSLOTS + 2;
        // First an overflow entry for `far_slot`...
        q.push(SimTime(far_slot * SLOT_NANOS + 50), 1, 1);
        // ...advance the frontier so `far_slot` enters the window...
        q.push(SimTime(3 * SLOT_NANOS), 2, 2);
        assert_eq!(q.pop().unwrap().2, 2);
        // ...then a ring entry in the same slot, *earlier* than the
        // overflow one: promotion must merge both sources.
        q.push(SimTime(far_slot * SLOT_NANOS + 10), 3, 3);
        assert_eq!(q.pop().unwrap(), (SimTime(far_slot * SLOT_NANOS + 10), 3, 3));
        assert_eq!(q.pop().unwrap(), (SimTime(far_slot * SLOT_NANOS + 50), 1, 1));
    }

    #[test]
    fn pop_at_most_respects_bound() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), 1, 1);
        q.push(SimTime(2 * SLOT_NANOS), 2, 2);
        assert_eq!(q.pop_at_most(SimTime(99)), None);
        assert_eq!(q.pop_at_most(SimTime(100)).unwrap().1, 1);
        assert_eq!(q.pop_at_most(SimTime(SLOT_NANOS)), None);
        assert_eq!(q.pop_at_most(SimTime(3 * SLOT_NANOS)).unwrap().1, 2);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn arena_tracks_the_backlog_and_returns_drained_chunks() {
        let mut q = EventQueue::new();
        let n = 4 * CHUNK as u64;
        // Near, ring and overflow entries alike live in the arena.
        for i in 0..n {
            q.push(SimTime(i * 3 * SLOT_NANOS), i + 1, i as u32);
        }
        let a = q.audit().unwrap();
        assert_eq!((a.handles, a.live_slots, a.chunks), (n as usize, n as usize, 4));
        assert_eq!(a.free_slots, 0);
        for popped in 1..=n as usize {
            q.pop().unwrap();
            let a = q.audit().unwrap();
            let live = n as usize - popped;
            assert_eq!((a.handles, a.live_slots), (live, live));
            assert_eq!(a.live_slots + a.free_slots, a.chunks * CHUNK);
            // FIFO drain empties chunks in fill order: everything beyond
            // the backlog (plus the one kept spare) went back.
            assert!(a.chunks <= live.div_ceil(CHUNK) + 1, "{a:?}");
        }
        let a = q.audit().unwrap();
        assert_eq!((a.live_slots, a.chunks, a.free_slots), (0, 1, CHUNK));
        // A released position is reused before the chunk table grows.
        for i in 0..n {
            q.push(SimTime(n * 3 * SLOT_NANOS + i), n + i + 1, 0);
        }
        assert_eq!(q.audit().unwrap().chunks, 4);
        assert!(EventQueue::<u32>::reference().audit().is_none());
    }

    #[test]
    fn emptied_buckets_are_recycled() {
        let mut q = CalendarQueue::new();
        for round in 0..3u64 {
            q.push(SimTime((2 * round + 1) * SLOT_NANOS), round + 1, 0u32);
            q.pop().unwrap();
        }
        // One bucket `Vec` circulates: promoted, pooled, reused.
        assert_eq!(q.spare_buckets.len(), 1);
        assert!(q.spare_buckets[0].capacity() > 0);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = EventQueue::new();
        for (i, at) in [7u64, 3, SLOT_NANOS * 9, SLOT_NANOS * (NSLOTS + 1), 4].iter().enumerate() {
            q.push(SimTime(*at), i as u64 + 1, i as u32);
        }
        while !q.is_empty() {
            let scanned = q.peek_next_time().unwrap();
            let lazy = q.next_at().unwrap();
            let (at, _, _) = q.pop().unwrap();
            assert_eq!(scanned, at);
            assert_eq!(lazy, at);
        }
        assert_eq!(q.peek_next_time(), None);
    }
}
