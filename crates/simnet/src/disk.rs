//! Disk model: per-operation latency, sequential bandwidth, write-back cache.
//!
//! Fig. 4 of the paper distinguishes three client logging strategies purely
//! by *when* the disk cost is paid:
//!
//! * **blocking pessimistic** waits for durability before communicating
//!   (≈ +30% for large messages: the paper's IDE disk writes at roughly 3×
//!   the 100 Mbit/s wire rate);
//! * **non-blocking pessimistic** overlaps logging with communication and
//!   only waits at the end — "it adds small and variable overhead due to
//!   disc cache management", which is exactly the write-back cache effect
//!   modelled here;
//! * **optimistic** never waits (background, low priority).
//!
//! The model: writes enter a write-back cache at `cache_bw`; the cache
//! drains to the platter at `platter_bw`; when a write does not fit in the
//! remaining cache space it stalls until enough has drained.  Durability is
//! reached when the write has fully drained.  A blocking write (fsync)
//! returns at its durability point; a cached write returns at cache-insert
//! completion while also reporting its durability point.
//!
//! # Group commit
//!
//! The write queue is a group-commit queue: the disk takes everything that
//! queued up while it was busy in **one** operation.  The join rule, stated
//! once:
//!
//! > A write joins the latest op iff that op has not started yet
//! > (`op_start > now`); otherwise it opens a new op at
//! > `max(now, write_frontier)`.
//!
//! An op pays `per_op` (seek + syscall) once; its writes append their bytes
//! in arrival order, and each write's `returned_at`/`durable_at` is its own
//! position in that batch.  A write to an idle disk opens an op that starts
//! at `now`, so nothing can ever join it — not even a write issued at the
//! same instant — and it costs exactly one `per_op` plus its transfer.  At
//! most one op is ever pending (every write issued while it waits joins
//! it), so the batch is whatever arrived during the previous op: there is
//! no batch size, no flush timer and no knob, and the frontier is never
//! further from `now` than the executing op's remainder plus that one
//! pending op, however fast writes arrive.  Everything is computed at issue
//! time; the kernel sees no extra event.

use crate::time::{SimDuration, SimTime};

/// Disk cost-model parameters.
#[derive(Debug, Clone)]
pub struct DiskSpec {
    /// Fixed cost per operation (seek + syscall + sync overhead).
    pub per_op: SimDuration,
    /// Platter (drain) bandwidth, bytes/sec.
    pub platter_bw: f64,
    /// Write-back cache size in bytes.
    pub cache_bytes: u64,
    /// Cache insertion bandwidth (memcpy speed), bytes/sec.
    pub cache_bw: f64,
    /// Fractional deterministic jitter on `per_op` (cache/scheduler noise;
    /// 0.0 = none).  This is the paper's "small and variable overhead due
    /// to disc cache management" seen by non-blocking pessimistic logging.
    pub per_op_jitter: f64,
}

impl Default for DiskSpec {
    /// Calibrated to the paper's 2004-era IDE disk (DESIGN.md §6).
    fn default() -> Self {
        DiskSpec {
            per_op: SimDuration::from_millis(4),
            platter_bw: 40.0e6,
            cache_bytes: 64 * 1024,
            cache_bw: 500.0e6,
            per_op_jitter: 0.0,
        }
    }
}

/// Completion report for a disk write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// When the issuing thread regains control.
    pub returned_at: SimTime,
    /// When the data is durable on the platter.
    pub durable_at: SimTime,
}

/// Stateful disk: tracks cache fill and platter drain progress.
#[derive(Debug, Clone)]
pub struct Disk {
    spec: DiskSpec,
    /// Bytes in the cache not yet drained, valid as of `as_of`.
    cache_fill: f64,
    as_of: SimTime,
    /// Completion time of the last queued platter write (drain frontier).
    drain_done: SimTime,
    /// Total bytes ever written (accounting).
    bytes_written: u64,
    /// Operations started: write batches plus reads.
    ops: u64,
    /// Write requests issued (each rides exactly one op).
    writes: u64,
    /// Total service time of every op (per-op cost plus transfer).
    busy_total: SimDuration,
    /// Deterministic jitter stream.
    jitter_state: u64,
    /// Completion frontier of the last write issued (writes from the same
    /// caller serialize even when issued at the same instant).
    write_frontier: SimTime,
    /// When the latest write op starts (or started) executing — the join
    /// rule's only state.
    op_start: SimTime,
}

impl Disk {
    /// Idle disk with the given cost model.
    pub fn new(spec: DiskSpec) -> Self {
        Disk {
            spec,
            cache_fill: 0.0,
            as_of: SimTime::ZERO,
            drain_done: SimTime::ZERO,
            bytes_written: 0,
            ops: 0,
            writes: 0,
            busy_total: SimDuration::ZERO,
            jitter_state: 0x9E37_79B9_7F4A_7C15,
            write_frontier: SimTime::ZERO,
            op_start: SimTime::ZERO,
        }
    }

    /// Per-op cost with deterministic jitter applied.
    fn op_cost(&mut self) -> SimDuration {
        if self.spec.per_op_jitter <= 0.0 {
            return self.spec.per_op;
        }
        // xorshift64* stream, uniform in [0, 1).
        self.jitter_state ^= self.jitter_state >> 12;
        self.jitter_state ^= self.jitter_state << 25;
        self.jitter_state ^= self.jitter_state >> 27;
        let u = (self.jitter_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
            / (1u64 << 53) as f64;
        SimDuration::from_secs_f64(
            self.spec.per_op.as_secs_f64() * (1.0 + self.spec.per_op_jitter * u),
        )
    }

    /// The cost model in use.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Total bytes written since creation/reset.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total operations since creation: write ops (batches — one per
    /// group commit, however many writes rode it) plus reads.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total write requests since creation; `writes() / ops()` on a
    /// write-only disk is the batching factor.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total time the disk spent servicing ops (per-op cost plus transfer,
    /// reads included) — the utilization numerator.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    fn advance(&mut self, now: SimTime) {
        let elapsed = now.since(self.as_of).as_secs_f64();
        self.cache_fill = (self.cache_fill - elapsed * self.spec.platter_bw).max(0.0);
        self.as_of = now;
    }

    /// Cached (write-back) write of `bytes` issued at `now`.
    ///
    /// Returns when the caller regains control and when the bytes are
    /// durable.  Insertion is pipelined with draining: bytes that fit in
    /// the free cache space go in at memcpy speed; the remainder proceeds
    /// at platter speed (steady state of a full write-back cache).
    ///
    /// Writes group-commit (see the module docs for the join rule): a
    /// write issued while an op executes rides the one op that starts when
    /// it ends, appended behind the writes already waiting there.
    pub fn write_cached(&mut self, now: SimTime, bytes: u64) -> WriteOutcome {
        // The join rule.  Either way the bytes go in at the frontier:
        // behind the batch's earlier writes, or after the executing op.
        let joins = self.op_start > now;
        let start = now.max(self.write_frontier);
        self.advance(start);
        self.writes += 1;
        self.bytes_written += bytes;
        let op_cost = if joins {
            SimDuration::ZERO
        } else {
            self.ops += 1;
            self.op_start = start;
            self.op_cost()
        };

        let free = (self.spec.cache_bytes as f64 - self.cache_fill).max(0.0);
        let fast_bytes = (bytes as f64).min(free);
        let slow_bytes = bytes as f64 - fast_bytes;
        let t_fast = SimDuration::from_secs_f64(fast_bytes / self.spec.cache_bw);
        let t_slow = SimDuration::from_secs_f64(slow_bytes / self.spec.platter_bw);
        let insert_done = start + op_cost + t_fast + t_slow;
        self.busy_total += insert_done.since(start);
        // While inserting, the platter drained concurrently.
        self.advance(insert_done);
        self.cache_fill = (self.cache_fill + fast_bytes).min(self.spec.cache_bytes as f64);

        // Durable once everything currently in the cache has drained
        // (slow-path bytes hit the platter during insertion already).
        let drain = SimDuration::from_secs_f64(self.cache_fill / self.spec.platter_bw);
        let durable_at = insert_done + drain;
        self.drain_done = self.drain_done.max(durable_at);
        self.write_frontier = insert_done;

        WriteOutcome { returned_at: insert_done, durable_at }
    }

    /// Synchronous (fsync'd) write: the caller waits for durability.
    pub fn write_sync(&mut self, now: SimTime, bytes: u64) -> WriteOutcome {
        let out = self.write_cached(now, bytes);
        WriteOutcome { returned_at: out.durable_at, durable_at: out.durable_at }
    }

    /// Sequential read of `bytes`: per-op cost plus platter bandwidth,
    /// serialized after any pending drain.
    pub fn read(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.advance(now);
        self.ops += 1;
        let service = self.op_cost() + SimDuration::for_bytes(bytes, self.spec.platter_bw);
        self.busy_total += service;
        let end = self.drain_done.max(now) + service;
        self.drain_done = end;
        end
    }

    /// Crash semantics: cache contents are lost, platter state keeps only
    /// what had drained.  The *caller* (logging layer) tracks per-record
    /// `durable_at` watermarks; the disk just resets its transient state.
    pub fn reset(&mut self, now: SimTime) {
        self.cache_fill = 0.0;
        self.as_of = now;
        self.drain_done = now;
        self.write_frontier = now;
        self.op_start = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DiskSpec {
        DiskSpec {
            per_op: SimDuration::from_millis(4),
            platter_bw: 40.0e6,
            cache_bytes: 64 * 1024,
            cache_bw: 500.0e6,
            per_op_jitter: 0.0,
        }
    }

    #[test]
    fn small_write_returns_fast_durable_later() {
        let mut d = Disk::new(spec());
        let out = d.write_cached(SimTime::ZERO, 1000);
        // Returns after per-op + memcpy; durable after platter drain.
        assert!(out.returned_at < out.durable_at);
        let returned = out.returned_at.as_secs_f64();
        assert!((returned - (0.004 + 1000.0 / 500.0e6)).abs() < 1e-9);
    }

    #[test]
    fn sync_write_waits_for_durability() {
        let mut d = Disk::new(spec());
        let out = d.write_sync(SimTime::ZERO, 1_000_000);
        assert_eq!(out.returned_at, out.durable_at);
        // 1 MB > cache, so duration is platter-bound: ≈ 25 ms + per-op.
        assert!(out.durable_at.as_secs_f64() > 0.024);
    }

    #[test]
    fn large_write_stalls_on_cache() {
        let mut d = Disk::new(spec());
        // First write fills the cache.
        let a = d.write_cached(SimTime::ZERO, 64 * 1024);
        // Immediately issue another large write: must stall for drain.
        let b = d.write_cached(a.returned_at, 64 * 1024);
        let insert_gap = b.returned_at.since(a.returned_at);
        // The stall should be roughly cache_size/platter_bw ≈ 1.6 ms.
        assert!(insert_gap > SimDuration::from_millis(1), "gap {insert_gap}");
    }

    #[test]
    fn idle_time_drains_cache() {
        let mut d = Disk::new(spec());
        d.write_cached(SimTime::ZERO, 64 * 1024);
        // After a long idle period the cache is empty: no stall.
        let late = SimTime::from_secs(10);
        let out = d.write_cached(late, 64 * 1024);
        let insert_cost = out.returned_at.since(late);
        let expected = SimDuration::from_millis(4) + SimDuration::for_bytes(64 * 1024, 500.0e6);
        assert_eq!(insert_cost, expected);
    }

    #[test]
    fn durability_ordering_is_monotone() {
        let mut d = Disk::new(spec());
        let mut prev = SimTime::ZERO;
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            let out = d.write_cached(t, 10_000);
            assert!(out.durable_at >= prev, "durability must be FIFO");
            prev = out.durable_at;
            t = out.returned_at;
        }
    }

    #[test]
    fn read_serializes_after_writes() {
        let mut d = Disk::new(spec());
        let w = d.write_cached(SimTime::ZERO, 1_000_000);
        let r = d.read(w.returned_at, 1_000_000);
        assert!(r >= w.durable_at);
    }

    #[test]
    fn reset_clears_transients_and_counts_persist() {
        let mut d = Disk::new(spec());
        d.write_cached(SimTime::ZERO, 5000);
        assert_eq!(d.ops(), 1);
        d.reset(SimTime::from_secs(1));
        let out = d.write_cached(SimTime::from_secs(1), 100);
        assert!(out.returned_at < SimTime::from_secs(1) + SimDuration::from_millis(5));
        assert_eq!(d.ops(), 2);
    }

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn writes_issued_during_an_op_share_the_next_one() {
        let mut d = Disk::new(spec());
        let a = d.write_cached(MS(0), 1000);
        // Three writes while `a` executes: one op, bytes in arrival order.
        let b = d.write_cached(MS(1), 1000);
        let c = d.write_cached(MS(2), 1000);
        let e = d.write_cached(MS(3), 1000);
        assert_eq!((d.ops(), d.writes()), (2, 4));
        let copy = SimDuration::for_bytes(1000, 500.0e6);
        // The opener pays the seek after `a` returns; joiners only append.
        assert_eq!(b.returned_at, a.returned_at + SimDuration::from_millis(4) + copy);
        assert_eq!(c.returned_at, b.returned_at + copy);
        assert_eq!(e.returned_at, c.returned_at + copy);
        assert!(b.durable_at <= c.durable_at && c.durable_at <= e.durable_at);
        assert_eq!(d.busy_total(), SimDuration::from_millis(8) + copy * 4);
    }

    #[test]
    fn an_op_issued_this_instant_cannot_be_joined() {
        let mut d = Disk::new(spec());
        // Idle disk: the first write's op starts now, so the second write
        // of the same instant opens the next op — which the third joins.
        d.write_cached(MS(0), 100);
        assert_eq!(d.ops(), 1);
        d.write_cached(MS(0), 100);
        assert_eq!(d.ops(), 2);
        d.write_cached(MS(0), 100);
        assert_eq!((d.ops(), d.writes()), (2, 3));
    }

    #[test]
    fn a_started_op_takes_no_more_writes() {
        let mut d = Disk::new(spec());
        let a = d.write_cached(MS(0), 100);
        let b = d.write_cached(MS(1), 100); // pending behind `a`
        assert_eq!(d.ops(), 2);
        // `b`'s op started when `a` returned: a write at that very instant
        // (or later) opens a third op behind it.
        let c = d.write_cached(a.returned_at, 100);
        assert_eq!(d.ops(), 3);
        assert!(c.returned_at >= b.returned_at + SimDuration::from_millis(4));
    }

    #[test]
    fn reset_forgets_the_pending_batch() {
        let mut d = Disk::new(spec());
        d.write_cached(MS(0), 100);
        d.write_cached(MS(1), 100); // pending op, starts at ~4 ms
        d.reset(MS(2));
        // The pending op died with the cache: this write opens its own.
        let out = d.write_cached(MS(2), 100);
        assert_eq!(d.ops(), 3);
        let cost = SimDuration::from_millis(4) + SimDuration::for_bytes(100, 500.0e6);
        assert_eq!(out.returned_at, MS(2) + cost);
    }
}
