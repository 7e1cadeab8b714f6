//! The client-side sender log: monotone timestamps, crash survival,
//! synchronization against the coordinator's high-water mark.

use std::collections::BTreeMap;

use rpcv_simnet::{Disk, SimTime};

use crate::gc::{GcOutcome, GcPolicy};
use crate::strategy::{LogStrategy, StrategyOutcome};

/// One logged submission.
#[derive(Debug, Clone)]
pub struct SenderEntry<T> {
    /// The submission timestamp (unique counter value, paper §4.2).
    pub seq: u64,
    /// Logged value (the RPC call).
    pub value: T,
    /// Bytes this entry occupies in the log.
    pub size: u64,
    /// When the entry is (or became) durable.
    pub durable_at: SimTime,
    /// Set once the coordinator acknowledged registering this submission.
    pub acked: bool,
}

/// Timing outcome of an append, combining strategy semantics with the
/// allocated timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Timestamp allocated to the submission.
    pub seq: u64,
    /// Strategy timing (when communication may start / must barrier).
    pub timing: StrategyOutcome,
}

/// Sender-based message log with monotone sequence numbers.
#[derive(Debug, Clone)]
pub struct SenderLog<T> {
    strategy: LogStrategy,
    gc: GcPolicy,
    entries: BTreeMap<u64, SenderEntry<T>>,
    next_seq: u64,
    bytes: u64,
    /// Highest timestamp every entry at or below which is already acked —
    /// the resume point for [`Self::ack_up_to`], which would otherwise
    /// re-walk the whole acknowledged prefix on every acknowledgement
    /// (O(total log) per ack, quadratic over a long run).
    acked_hw: u64,
    /// Maintained sum of `size` over unacknowledged entries, so the
    /// resend-backlog estimate is O(1) instead of a suffix walk per ack.
    unacked_bytes: u64,
}

impl<T: Clone> SenderLog<T> {
    /// Empty log using `strategy` and `gc`.
    pub fn new(strategy: LogStrategy, gc: GcPolicy) -> Self {
        SenderLog {
            strategy,
            gc,
            entries: BTreeMap::new(),
            next_seq: 1,
            bytes: 0,
            acked_hw: 0,
            unacked_bytes: 0,
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently retained.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Highest timestamp ever allocated (0 if none).
    pub fn max_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The timestamp the next append will receive.
    pub fn peek_seq(&self) -> u64 {
        self.next_seq
    }

    /// Advances the counter so the next append receives at least
    /// `seq + 1`.  Used when synchronization reveals the coordinator
    /// registered submissions this log lost (optimistic logging + crash):
    /// the client "rolls forward" past them instead of re-allocating their
    /// timestamps with different content.
    pub fn fast_forward(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Appends a submission of `size` bytes, paying the strategy's disk
    /// cost on `disk` at `now`.
    pub fn append(&mut self, value: T, size: u64, now: SimTime, disk: &mut Disk) -> AppendOutcome {
        let seq = self.next_seq;
        self.next_seq += 1;
        let timing = self.strategy.write(disk, now, size);
        self.entries.insert(
            seq,
            SenderEntry { seq, value, size, durable_at: timing.durable_at, acked: false },
        );
        self.bytes += size;
        self.unacked_bytes += size;
        AppendOutcome { seq, timing }
    }

    /// Highest timestamp at or below which everything is acknowledged.
    pub fn acked_hw(&self) -> u64 {
        self.acked_hw
    }

    /// Bytes retained in unacknowledged entries (maintained counter —
    /// O(1); equals `entries_after(acked_hw()).map(|e| e.size).sum()`).
    pub fn unacked_bytes(&self) -> u64 {
        self.unacked_bytes
    }

    /// Marks all entries with `seq <= up_to` as registered on the
    /// coordinator (its synchronization replies carry its max timestamp).
    ///
    /// O(newly acked): acknowledgements arrive with monotonically growing
    /// high-water marks, so only the range above the previous mark is
    /// walked.
    pub fn ack_up_to(&mut self, up_to: u64) {
        if up_to <= self.acked_hw {
            return;
        }
        for (_, e) in self.entries.range_mut(self.acked_hw + 1..=up_to) {
            if !e.acked {
                e.acked = true;
                self.unacked_bytes -= e.size;
            }
        }
        self.acked_hw = up_to;
    }

    /// Entries strictly after `seq`, in order — the resend set for
    /// client→coordinator synchronization.
    pub fn entries_after(&self, seq: u64) -> impl Iterator<Item = &SenderEntry<T>> {
        self.entries.range(seq + 1..).map(|(_, e)| e)
    }

    /// Looks up one entry.
    pub fn get(&self, seq: u64) -> Option<&SenderEntry<T>> {
        self.entries.get(&seq)
    }

    /// Crash semantics: entries whose write had not drained by `now` are
    /// lost; the timestamp counter restarts after the highest *surviving*
    /// entry (re-executions re-submit with fresh timestamps, preserving
    /// at-least-once semantics).
    pub fn survive_crash(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.durable_at <= now);
        self.bytes = self.entries.values().map(|e| e.size).sum();
        self.unacked_bytes = self.entries.values().filter(|e| !e.acked).map(|e| e.size).sum();
        self.next_seq = self.entries.keys().next_back().map_or(1, |&s| s + 1);
        // The restarted counter may re-allocate timestamps at or below the
        // old mark (acked-but-undurable entries died with the cache); the
        // per-entry flags survive, so restarting the resume point only
        // costs one re-walk of the acknowledged prefix at the next ack.
        self.acked_hw = 0;
        before - self.entries.len()
    }

    /// Runs garbage collection under the configured policy.
    ///
    /// Only acknowledged entries are eligible: dropping an un-registered
    /// submission would violate the no-lost-call invariant.
    pub fn collect_garbage(&mut self) -> GcOutcome {
        let mut out = GcOutcome::default();
        if self.bytes <= self.gc.max_bytes {
            return out;
        }
        let eligible: Vec<u64> = self.entries.values().filter(|e| e.acked).map(|e| e.seq).collect();
        for seq in eligible {
            if self.bytes <= self.gc.target_bytes() {
                break;
            }
            if let Some(e) = self.entries.remove(&seq) {
                self.bytes -= e.size;
                out.dropped += 1;
                out.bytes_freed += e.size;
            }
        }
        out
    }

    /// Iterates all retained entries in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &SenderEntry<T>> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_simnet::{DiskSpec, SimDuration};

    fn mklog(strategy: LogStrategy) -> (SenderLog<String>, Disk) {
        (SenderLog::new(strategy, GcPolicy::unbounded()), Disk::new(DiskSpec::default()))
    }

    #[test]
    fn seq_is_monotone_from_one() {
        let (mut log, mut disk) = mklog(LogStrategy::Optimistic);
        for i in 1..=5u64 {
            let out = log.append(format!("m{i}"), 100, SimTime::ZERO, &mut disk);
            assert_eq!(out.seq, i);
        }
        assert_eq!(log.max_seq(), 5);
        assert_eq!(log.len(), 5);
        assert_eq!(log.bytes(), 500);
    }

    #[test]
    fn blocking_append_defers_comm_start() {
        let (mut log, mut disk) = mklog(LogStrategy::BlockingPessimistic);
        let out = log.append("big".into(), 4_000_000, SimTime::ZERO, &mut disk);
        assert!(out.timing.comm_may_start_at > SimTime::ZERO);
        assert_eq!(out.timing.comm_may_start_at, out.timing.durable_at);
    }

    #[test]
    fn ack_and_entries_after() {
        let (mut log, mut disk) = mklog(LogStrategy::NonBlockingPessimistic);
        for i in 0..4 {
            log.append(format!("m{i}"), 10, SimTime::ZERO, &mut disk);
        }
        log.ack_up_to(2);
        assert!(log.get(1).unwrap().acked);
        assert!(log.get(2).unwrap().acked);
        assert!(!log.get(3).unwrap().acked);
        let resend: Vec<u64> = log.entries_after(2).map(|e| e.seq).collect();
        assert_eq!(resend, vec![3, 4]);
        assert_eq!(log.entries_after(99).count(), 0);
    }

    #[test]
    fn crash_loses_undurable_tail_optimistic() {
        let (mut log, mut disk) = mklog(LogStrategy::Optimistic);
        // First write at t=0 becomes durable quickly; crash right after
        // issuing a second large write.
        let a = log.append("early".into(), 1000, SimTime::ZERO, &mut disk);
        let settle = a.timing.durable_at + SimDuration::from_secs(1);
        let b = log.append("late".into(), 10_000_000, settle, &mut disk);
        assert!(b.timing.durable_at > settle);
        // Crash before the big write drains.
        let crash_at = settle + SimDuration::from_millis(1);
        let lost = log.survive_crash(crash_at);
        assert_eq!(lost, 1);
        assert!(log.get(1).is_some());
        assert!(log.get(2).is_none());
        // Next append reuses timestamp 2 — the old one never reached anyone
        // durable, and the counter restarts after the highest survivor.
        let c = log.append("retry".into(), 10, crash_at, &mut disk);
        assert_eq!(c.seq, 2);
    }

    #[test]
    fn crash_loses_nothing_when_blocking() {
        let (mut log, mut disk) = mklog(LogStrategy::BlockingPessimistic);
        let mut t = SimTime::ZERO;
        for i in 0..5 {
            let out = log.append(format!("m{i}"), 100_000, t, &mut disk);
            t = out.timing.durable_at;
        }
        // Crash at any instant after the last append returned: everything
        // blocked on durability, so everything survives.
        assert_eq!(log.survive_crash(t), 0);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn gc_only_drops_acked() {
        let gc = GcPolicy::bounded(250);
        let mut log: SenderLog<String> = SenderLog::new(LogStrategy::Optimistic, gc);
        let mut disk = Disk::new(DiskSpec::default());
        for i in 0..5 {
            log.append(format!("m{i}"), 100, SimTime::ZERO, &mut disk);
        }
        // Nothing acked: GC must not drop anything even though over budget.
        let out = log.collect_garbage();
        assert_eq!(out.dropped, 0);
        assert_eq!(log.len(), 5);
        // Ack 3 of them: GC may now free down to the target.
        log.ack_up_to(3);
        let out = log.collect_garbage();
        assert!(out.dropped >= 2, "dropped {}", out.dropped);
        assert!(log.bytes() <= 250);
        // Unacked entries always retained.
        assert!(log.get(4).is_some());
        assert!(log.get(5).is_some());
    }

    #[test]
    fn survive_crash_recomputes_bytes() {
        let (mut log, mut disk) = mklog(LogStrategy::Optimistic);
        log.append("a".into(), 100, SimTime::ZERO, &mut disk);
        let late = SimTime::from_secs(100);
        log.append("b".into(), 900, late, &mut disk);
        log.survive_crash(late); // second not yet durable
        assert_eq!(log.bytes(), 100);
    }
}
