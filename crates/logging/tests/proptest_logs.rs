//! Property tests for the logging substrate: no submission is ever lost or
//! duplicated by sync/GC/crash interactions.

use proptest::prelude::*;
use rpcv_log::{GcPolicy, LogStrategy, PeerLog, SenderLog};
use rpcv_simnet::{Disk, DiskSpec, SimTime};

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
        let after: Vec<u64> = log.entries_after(k).map(|e| e.seq).collect();
        for &s in &after {
            prop_assert!(s > k);
        }
        let total_before = log.iter().filter(|e| e.seq <= k).count();
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

    /// GC never drops unacked entries and always respects the target.
    #[test]
    fn gc_preserves_unacked(
        n in 1usize..100,
        acked_upto in 0u64..120,
        budget in 50u64..2000,
    ) {
        let mut log = SenderLog::new(LogStrategy::Optimistic, GcPolicy::bounded(budget));
        let mut disk = Disk::new(DiskSpec::default());
        for i in 0..n {
            log.append(i as u64, 50, SimTime::ZERO, &mut disk);
        }
        log.ack_up_to(acked_upto);
        let unacked_before: Vec<u64> =
            log.iter().filter(|e| !e.acked).map(|e| e.seq).collect();
        log.collect_garbage();
        let unacked_after: Vec<u64> =
            log.iter().filter(|e| !e.acked).map(|e| e.seq).collect();
        prop_assert_eq!(unacked_before, unacked_after);
    }

    /// The maintained unacked index equals its scan reference through
    /// arbitrary append/ack/crash/GC interleavings (the index serves the
    /// server's per-beat archive offer, so a divergence would silently
    /// strand or duplicate result deliveries).
    #[test]
    fn peer_unacked_index_matches_scan(ops in proptest::collection::vec(
        ((0u64..4, 0u64..8), 0u8..4), 1..80)) {
        let mut log: PeerLog<u64> = PeerLog::new(GcPolicy::bounded(200));
        let mut disk = Disk::new(DiskSpec::default());
        let mut t = SimTime::ZERO;
        for (key, action) in ops {
            match action {
                0 | 1 => {
                    t = log.append(key, 0, 30, t, &mut disk);
                }
                2 => log.ack(key),
                _ => {
                    // Crash at the current durable horizon, then GC.
                    log.survive_crash(t);
                    log.collect_garbage();
                }
            }
            let via_index: Vec<_> = log.iter_unacked().map(|e| e.key).collect();
            prop_assert_eq!(&via_index, &log.unacked_scan());
            prop_assert_eq!(log.unacked_len(), via_index.len());
        }
    }

    /// Peer log byte accounting stays consistent through replaces and GC.
    #[test]
    fn peer_bytes_consistent(ops in proptest::collection::vec(
        ((0u64..5, 0u64..5), 1u64..1000), 1..60)) {
        let mut log: PeerLog<u64> = PeerLog::new(GcPolicy::unbounded());
        let mut disk = Disk::new(DiskSpec::default());
        for (key, size) in ops {
            log.append(key, 0, size, SimTime::ZERO, &mut disk);
        }
        let expected: u64 = log.iter().map(|e| e.size).sum();
        prop_assert_eq!(log.bytes(), expected);
    }
}
