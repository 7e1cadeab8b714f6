//! The client-side sender log: monotone timestamps, crash survival,
//! synchronization against the coordinator's high-water mark.
//!
//! Timestamps are dense by protocol (each append takes the next one), so
//! the log is a [`SeqWindow`]: the seq is the index and a row holds only
//! what an entry says about it.

use rpcv_simnet::{Disk, SimTime};

use crate::gc::GcPolicy;
use crate::strategy::{LogStrategy, StrategyOutcome};
use crate::window::SeqWindow;

/// One logged submission; its timestamp is the seq it is stored under.
#[derive(Debug, Clone)]
pub struct SenderEntry<T> {
    /// Logged value (the RPC call).
    pub value: T,
    /// Bytes this entry occupies in the log.
    pub size: u64,
    /// When the entry is (or became) durable.
    pub durable_at: SimTime,
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
    entries: SeqWindow<SenderEntry<T>>,
    next_seq: u64,
    /// The acknowledgement: an entry is acked iff its seq is at or below
    /// this mark.  Never above [`Self::max_seq`].
    acked_hw: u64,
    /// Maintained sum of `size` over unacknowledged entries, so the
    /// resend-backlog estimate is O(1) instead of a suffix walk per ack.
    unacked_bytes: u64,
}

impl<T> SenderLog<T> {
    /// Empty log using `strategy`.  The policy is unread: the log keeps
    /// every entry that survives a crash.
    pub fn new(strategy: LogStrategy, _gc: GcPolicy) -> Self {
        SenderLog {
            strategy,
            entries: SeqWindow::new(),
            next_seq: 1,
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
        self.entries.insert(seq, SenderEntry { value, size, durable_at: timing.durable_at });
        self.unacked_bytes += size;
        AppendOutcome { seq, timing }
    }

    /// Highest timestamp at or below which everything is acknowledged —
    /// the only acknowledgement state: an entry is acked iff its seq is at
    /// or below this mark.
    pub fn acked_hw(&self) -> u64 {
        self.acked_hw
    }

    /// Bytes retained in unacknowledged entries (maintained counter —
    /// O(1); equals `entries_after(acked_hw()).map(|(_, e)| e.size).sum()`).
    pub fn unacked_bytes(&self) -> u64 {
        self.unacked_bytes
    }

    /// Marks all entries with `seq <= up_to` as registered on the
    /// coordinator (its synchronization replies carry its max timestamp).
    ///
    /// O(newly acked): only the range above the previous mark is walked,
    /// to subtract its bytes from the unacked counter.
    pub fn ack_up_to(&mut self, up_to: u64) {
        // Never past the last allocated seq: an append must land above the
        // mark, or it would read as acked.
        let up_to = up_to.min(self.max_seq());
        if up_to <= self.acked_hw {
            return;
        }
        let newly: u64 = self.entries.range(self.acked_hw + 1..=up_to).map(|(_, e)| e.size).sum();
        self.unacked_bytes -= newly;
        self.acked_hw = up_to;
    }

    /// Entries strictly after `seq` as `(seq, entry)`, in order — the
    /// resend set for client→coordinator synchronization.
    pub fn entries_after(&self, seq: u64) -> impl Iterator<Item = (u64, &SenderEntry<T>)> {
        self.entries.range(seq + 1..=u64::MAX)
    }

    /// Looks up one entry.
    pub fn get(&self, seq: u64) -> Option<&SenderEntry<T>> {
        self.entries.get(seq)
    }

    /// When the interaction that sent `seq` completes, its communication
    /// having ended at `comm_end`: the strategy's rule applied to the
    /// logged row's durability.
    pub fn interaction_end(&self, seq: u64, comm_end: SimTime) -> SimTime {
        let e = self.entries.get(seq).expect("a sent submission is logged");
        self.strategy.interaction_end(e.durable_at, comm_end)
    }

    /// Crash semantics: entries whose write had not drained by `now` are
    /// lost; the timestamp counter restarts after the highest *surviving*
    /// entry (re-executions re-submit with fresh timestamps, preserving
    /// at-least-once semantics), and the mark drops to it if it was
    /// higher — a re-allocated timestamp is a new, unacknowledged entry.
    pub fn survive_crash(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.durable_at <= now);
        self.next_seq = self.entries.last_seq().map_or(1, |s| s + 1);
        self.acked_hw = self.acked_hw.min(self.max_seq());
        self.unacked_bytes = self.entries_after(self.acked_hw).map(|(_, e)| e.size).sum();
        before - self.entries.len()
    }

    /// Iterates all retained entries as `(seq, entry)` in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SenderEntry<T>)> {
        self.entries.iter()
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
        assert_eq!(log.unacked_bytes(), 500);
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
        assert_eq!((log.acked_hw(), log.unacked_bytes()), (2, 20));
        let resend: Vec<u64> = log.entries_after(2).map(|(seq, _)| seq).collect();
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
}
