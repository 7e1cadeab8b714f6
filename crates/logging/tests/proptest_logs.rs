//! Property tests for the logging substrate: no submission is ever lost or
//! duplicated by sync/crash interactions, and each log matches its
//! reference model op for op.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rpcv_log::{AppendOutcome, GcPolicy, LogStrategy, PeerKey, PeerLog, SenderEntry, SenderLog};
use rpcv_simnet::{Disk, DiskSpec, SimDuration, SimTime};

/// The sender log as an ordered map, one node per entry, each carrying its
/// own acknowledgement flag, and a crash that restarts the resume point at
/// 0: the definition the seq-window [`SenderLog`] — whose only
/// acknowledgement is its mark — is held to, op for op, by
/// `sender_log_matches_ordered_map_reference`.
struct RefSenderLog {
    strategy: LogStrategy,
    entries: BTreeMap<u64, RefEntry>,
    next_seq: u64,
    acked_hw: u64,
    unacked_bytes: u64,
}

/// A reference row: what a [`SenderEntry`] says, plus its flag.
struct RefEntry {
    value: u64,
    size: u64,
    durable_at: SimTime,
    acked: bool,
}

impl RefSenderLog {
    fn new(strategy: LogStrategy) -> Self {
        RefSenderLog {
            strategy,
            entries: BTreeMap::new(),
            next_seq: 1,
            acked_hw: 0,
            unacked_bytes: 0,
        }
    }

    fn append(&mut self, value: u64, size: u64, now: SimTime, disk: &mut Disk) -> AppendOutcome {
        let seq = self.next_seq;
        self.next_seq += 1;
        let timing = self.strategy.write(disk, now, size);
        let entry = RefEntry { value, size, durable_at: timing.durable_at, acked: false };
        self.entries.insert(seq, entry);
        self.unacked_bytes += size;
        AppendOutcome { seq, timing }
    }

    fn ack_up_to(&mut self, up_to: u64) {
        if up_to <= self.acked_hw {
            return;
        }
        for e in self.entries.range_mut(self.acked_hw + 1..=up_to).map(|(_, e)| e) {
            if !e.acked {
                e.acked = true;
                self.unacked_bytes -= e.size;
            }
        }
        self.acked_hw = up_to.min(self.next_seq - 1);
    }

    fn fast_forward(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    fn survive_crash(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.durable_at <= now);
        self.unacked_bytes = self.entries.values().filter(|e| !e.acked).map(|e| e.size).sum();
        self.next_seq = self.entries.keys().next_back().map_or(1, |&s| s + 1);
        self.acked_hw = 0;
        before - self.entries.len()
    }
}

/// What a sender-log entry says, comparable.
fn row(e: &SenderEntry<u64>) -> (u64, u64, SimTime) {
    (e.value, e.size, e.durable_at)
}

/// What a reference row says, its flag aside.
fn ref_row(e: &RefEntry) -> (u64, u64, SimTime) {
    (e.value, e.size, e.durable_at)
}

proptest! {
    /// Timestamps are unique and dense regardless of strategy.
    #[test]
    fn sender_seq_dense(n in 1usize..200, strat_idx in 0usize..3) {
        let strategy = LogStrategy::ALL[strat_idx];
        let mut log = SenderLog::new(strategy, GcPolicy::unbounded());
        let mut disk = Disk::new(DiskSpec::default());
        let mut seqs = Vec::new();
        for i in 0..n {
            let out = log.append(i as u64, 100, SimTime::ZERO, &mut disk);
            seqs.push(out.seq);
        }
        let expect: Vec<u64> = (1..=n as u64).collect();
        prop_assert_eq!(seqs, expect);
    }

    /// entries_after(k) ∪ [1..=k] covers every retained entry exactly once.
    #[test]
    fn entries_after_partitions(n in 1u64..100, k in 0u64..120) {
        let mut log = SenderLog::new(LogStrategy::Optimistic, GcPolicy::unbounded());
        let mut disk = Disk::new(DiskSpec::default());
        for i in 0..n {
            log.append(i, 10, SimTime::ZERO, &mut disk);
        }
        let after: Vec<u64> = log.entries_after(k).map(|(seq, _)| seq).collect();
        for &s in &after {
            prop_assert!(s > k);
        }
        let total_before = log.iter().filter(|&(seq, _)| seq <= k).count();
        prop_assert_eq!(total_before + after.len(), n as usize);
    }

    /// Crash survival: survivors are exactly the entries durable by the
    /// crash instant, and with a blocking-pessimistic strategy that is all
    /// of them (when the crash happens after the last append returned).
    #[test]
    fn blocking_crash_never_loses(n in 1usize..50) {
        let mut log = SenderLog::new(LogStrategy::BlockingPessimistic, GcPolicy::unbounded());
        let mut disk = Disk::new(DiskSpec::default());
        let mut t = SimTime::ZERO;
        for i in 0..n {
            let out = log.append(i as u64, 1000, t, &mut disk);
            t = out.timing.comm_may_start_at;
        }
        prop_assert_eq!(log.survive_crash(t), 0);
        prop_assert_eq!(log.len(), n);
    }

    /// The seq-window sender log is the ordered-map log: random appends
    /// (every strategy, sizes from a few bytes to megabytes, so optimistic
    /// writes are still in the cache when a crash lands), acks, roll
    /// forwards and crashes leave both with the same counters and the same
    /// entry at every seq, and every reference row's flag saying exactly
    /// `seq <= acked_hw()`, after every op.
    #[test]
    fn sender_log_matches_ordered_map_reference(
        strat_idx in 0usize..3,
        ops in proptest::collection::vec((0u8..5, 0u64..64, 0u64..3, 0u64..400), 1..120),
    ) {
        let strategy = LogStrategy::ALL[strat_idx];
        let mut log = SenderLog::new(strategy, GcPolicy::unbounded());
        let mut reference = RefSenderLog::new(strategy);
        let (mut disk, mut ref_disk) =
            (Disk::new(DiskSpec::default()), Disk::new(DiskSpec::default()));
        let mut now = SimTime::ZERO;
        for (i, (action, arg, size_class, dt_ms)) in ops.into_iter().enumerate() {
            now += SimDuration::from_millis(dt_ms);
            let max = reference.next_seq - 1;
            match action {
                0 | 1 => {
                    let size = [arg, 64 * 1024 + arg, 4_000_000 + arg][size_class as usize];
                    let a = log.append(i as u64, size, now, &mut disk);
                    prop_assert_eq!(a, reference.append(i as u64, size, now, &mut ref_disk));
                }
                2 => {
                    log.ack_up_to(arg % (max + 3));
                    reference.ack_up_to(arg % (max + 3));
                }
                3 => {
                    log.fast_forward(arg % (max + 4));
                    reference.fast_forward(arg % (max + 4));
                }
                _ => prop_assert_eq!(log.survive_crash(now), reference.survive_crash(now)),
            }
            prop_assert_eq!(log.len(), reference.entries.len());
            prop_assert_eq!(log.unacked_bytes(), reference.unacked_bytes);
            prop_assert_eq!(log.max_seq(), reference.next_seq - 1);
            let hw = log.acked_hw();
            for (&seq, e) in &reference.entries {
                prop_assert!(e.acked == (seq <= hw), "seq {} against mark {}", seq, hw);
            }
            for seq in 0..=log.max_seq() + 1 {
                prop_assert_eq!(log.get(seq).map(row), reference.entries.get(&seq).map(ref_row));
                let after: Vec<_> = log.entries_after(seq).map(|(s, e)| (s, row(e))).collect();
                let expect: Vec<_> =
                    reference.entries.range(seq + 1..).map(|(&s, e)| (s, ref_row(e))).collect();
                prop_assert_eq!(after, expect);
            }
        }
    }

    /// The peer log holds exactly the archives no coordinator
    /// acknowledged: random appends (repeated keys, sizes from a few bytes
    /// to megabytes, instants that leave writes in flight when a crash
    /// lands), acks and crashes leave it equal to an ordered map of
    /// `key → (value, durable_at)`, after every op.
    #[test]
    fn peer_log_holds_exactly_the_unacknowledged_entries(ops in proptest::collection::vec(
        ((0u64..3, 0u64..8), 0u8..4, 0u64..3, 0u64..400), 1..120)) {
        let mut log: PeerLog<u64> = PeerLog::new(GcPolicy::unbounded());
        let mut model: BTreeMap<PeerKey, (u64, SimTime)> = BTreeMap::new();
        let mut disk = Disk::new(DiskSpec::default());
        let mut now = SimTime::ZERO;
        for (i, (key, action, size_class, dt_ms)) in ops.into_iter().enumerate() {
            now += SimDuration::from_millis(dt_ms);
            match action {
                0 | 1 => {
                    let size = [30 + dt_ms, 64 * 1024 + dt_ms, 4_000_000 + dt_ms][size_class as usize];
                    let durable_at = log.append(key, i as u64, size, now, &mut disk);
                    prop_assert!(durable_at > now);
                    model.insert(key, (i as u64, durable_at));
                }
                2 => {
                    let acked = log.ack(key).map(|e| (e.value, e.durable_at));
                    prop_assert_eq!(acked, model.remove(&key));
                }
                _ => {
                    let before = model.len();
                    model.retain(|_, &mut (_, durable_at)| durable_at <= now);
                    prop_assert_eq!(log.survive_crash(now), before - model.len());
                }
            }
            let held: Vec<_> = log.iter_unacked().map(|e| (e.value, e.durable_at)).collect();
            prop_assert_eq!(held, model.values().copied().collect::<Vec<_>>());
            prop_assert_eq!(log.unacked_len(), model.len());
            for k in (0..3).flat_map(|c| (0..8).map(move |s| (c, s))) {
                prop_assert_eq!(log.get(k).map(|e| (e.value, e.durable_at)), model.get(&k).copied());
            }
        }
    }
}
