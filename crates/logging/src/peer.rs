//! The server-side peer log: result archives keyed by `(client, seq)`.
//!
//! A server executes tasks originating from many clients with gaps in each
//! client's sequence (other tasks went to other servers), so the paper's
//! client-style high-water-mark synchronization does not apply: "Since
//! servers may have non-contiguous timestamps for a given client, the
//! synchronization is more complicated, involving a peer-wise comparison
//! of logs" (§4.2).  The server's half of that comparison is
//! [`PeerLog::iter_unacked`], offered in every beat; the coordinator's
//! half runs in `CoordinatorActor::handle_server_beat` (`rpcv-core`),
//! which splits the offer with `CoordinatorDb::wants_archive` into the
//! archives it needs and the ones already settled.
//!
//! Server logging is *necessarily pessimistic*: "The file archives built
//! as the results of the executions represents the server logs.  Thus the
//! logging protocol is necessarily pessimistic" — the archive only exists
//! once it is fully written.

use std::collections::{BTreeMap, BTreeSet};

use rpcv_simnet::{Disk, SimTime};

use crate::gc::{GcOutcome, GcPolicy};

/// Identifies one logged result: `(client id, submission timestamp)`.
pub type PeerKey = (u64, u64);

/// One retained result archive.
#[derive(Debug, Clone)]
pub struct PeerEntry<T> {
    /// Owning key.
    pub key: PeerKey,
    /// The archive (result payload).
    pub value: T,
    /// Bytes on disk.
    pub size: u64,
    /// Durability instant (always awaited before the result is sent).
    pub durable_at: SimTime,
    /// Set once a coordinator confirmed storing this result.
    pub acked: bool,
}

/// Pessimistic log of result archives keyed by `(client, seq)`.
#[derive(Debug, Clone)]
pub struct PeerLog<T> {
    entries: BTreeMap<PeerKey, PeerEntry<T>>,
    /// Keys of entries no coordinator acknowledged yet — maintained at
    /// every append/ack/crash so the per-beat offer scan is O(unacked),
    /// not O(log entries).  Scan reference: [`Self::unacked_scan`].
    unacked: BTreeSet<PeerKey>,
    gc: GcPolicy,
    bytes: u64,
}

impl<T: Clone> PeerLog<T> {
    /// Empty log under `gc`.
    pub fn new(gc: GcPolicy) -> Self {
        PeerLog { entries: BTreeMap::new(), unacked: BTreeSet::new(), gc, bytes: 0 }
    }

    /// Number of retained archives.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes retained.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends (or replaces) the archive for `key`, paying a synchronous
    /// disk write (server logging is necessarily pessimistic).
    ///
    /// Returns the durability instant; the result message may only be sent
    /// at or after it.
    pub fn append(
        &mut self,
        key: PeerKey,
        value: T,
        size: u64,
        now: SimTime,
        disk: &mut Disk,
    ) -> SimTime {
        let out = disk.write_sync(now, size);
        if let Some(old) = self
            .entries
            .insert(key, PeerEntry { key, value, size, durable_at: out.durable_at, acked: false })
        {
            self.bytes -= old.size;
        }
        self.unacked.insert(key);
        self.bytes += size;
        out.durable_at
    }

    /// Looks up an archive.
    pub fn get(&self, key: PeerKey) -> Option<&PeerEntry<T>> {
        self.entries.get(&key)
    }

    /// Marks `key` as stored on a coordinator.
    pub fn ack(&mut self, key: PeerKey) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.acked = true;
            self.unacked.remove(&key);
        }
    }

    /// Crash semantics: archives not yet durable are lost.
    pub fn survive_crash(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.durable_at <= now);
        self.bytes = self.entries.values().map(|e| e.size).sum();
        let entries = &self.entries;
        self.unacked.retain(|k| entries.contains_key(k));
        before - self.entries.len()
    }

    /// Garbage collection: drops acknowledged archives above the budget.
    pub fn collect_garbage(&mut self) -> GcOutcome {
        let mut out = GcOutcome::default();
        if self.bytes <= self.gc.max_bytes {
            return out;
        }
        let eligible: Vec<PeerKey> =
            self.entries.values().filter(|e| e.acked).map(|e| e.key).collect();
        for key in eligible {
            if self.bytes <= self.gc.target_bytes() {
                break;
            }
            if let Some(e) = self.entries.remove(&key) {
                self.bytes -= e.size;
                out.dropped += 1;
                out.bytes_freed += e.size;
            }
        }
        out
    }

    /// Iterates retained entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &PeerEntry<T>> {
        self.entries.values()
    }

    /// Iterates entries not yet acknowledged by any coordinator, in key
    /// order — the server's per-beat archive offer.  Served from the
    /// maintained unacked index: O(unacked), never a walk of the whole log.
    pub fn iter_unacked(&self) -> impl Iterator<Item = &PeerEntry<T>> {
        self.unacked.iter().filter_map(|k| self.entries.get(k))
    }

    /// Number of unacknowledged entries (O(1)).
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Scan-based reference definition of [`Self::iter_unacked`]'s key
    /// set, kept for the equivalence property tests.
    #[doc(hidden)]
    pub fn unacked_scan(&self) -> Vec<PeerKey> {
        self.entries.values().filter(|e| !e.acked).map(|e| e.key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_simnet::DiskSpec;

    fn setup() -> (PeerLog<String>, Disk) {
        (PeerLog::new(GcPolicy::unbounded()), Disk::new(DiskSpec::default()))
    }

    #[test]
    fn append_is_pessimistic() {
        let (mut log, mut disk) = setup();
        let durable = log.append((1, 5), "result".into(), 1_000_000, SimTime::ZERO, &mut disk);
        assert!(durable > SimTime::ZERO);
        assert_eq!(log.len(), 1);
        // Durable immediately: crash at `durable` loses nothing.
        assert_eq!(log.survive_crash(durable), 0);
    }

    #[test]
    fn replace_updates_bytes() {
        let (mut log, mut disk) = setup();
        log.append((1, 1), "v1".into(), 500, SimTime::ZERO, &mut disk);
        log.append((1, 1), "v2".into(), 700, SimTime::from_secs(1), &mut disk);
        assert_eq!(log.len(), 1);
        assert_eq!(log.bytes(), 700);
        assert_eq!(log.get((1, 1)).unwrap().value, "v2");
    }

    #[test]
    fn gc_respects_ack_and_budget() {
        let mut log: PeerLog<String> = PeerLog::new(GcPolicy::bounded(25));
        let mut disk = Disk::new(DiskSpec::default());
        for i in 0..5u64 {
            log.append((1, i), "r".into(), 10, SimTime::ZERO, &mut disk);
        }
        assert_eq!(log.collect_garbage().dropped, 0, "nothing acked yet");
        for i in 0..5u64 {
            log.ack((1, i));
        }
        let out = log.collect_garbage();
        assert!(out.dropped >= 4);
        assert!(log.bytes() <= 25);
    }

    #[test]
    fn unacked_index_matches_scan_through_lifecycle() {
        let mut log: PeerLog<String> = PeerLog::new(GcPolicy::bounded(25));
        let mut disk = Disk::new(DiskSpec::default());
        let check = |log: &PeerLog<String>| {
            let via_index: Vec<PeerKey> = log.iter_unacked().map(|e| e.key).collect();
            assert_eq!(via_index, log.unacked_scan(), "index == scan");
            assert_eq!(log.unacked_len(), via_index.len());
        };
        for i in 0..5u64 {
            log.append((1, i), "r".into(), 10, SimTime::ZERO, &mut disk);
            check(&log);
        }
        log.ack((1, 1));
        log.ack((1, 3));
        log.ack((9, 9)); // unknown key: no-op
        check(&log);
        assert_eq!(log.unacked_len(), 3);
        // Re-appending an acked key makes it unacked again (fresh archive).
        let settled = log.append((1, 1), "r2".into(), 10, SimTime::ZERO, &mut disk);
        check(&log);
        assert_eq!(log.unacked_len(), 4);
        // GC only reclaims acked entries; the index must not change.
        log.collect_garbage();
        check(&log);
        assert_eq!(log.unacked_len(), 4);
        // A crash drops non-durable entries from index and log alike (the
        // FIFO disk makes every earlier append durable by `settled`).
        let late = log.append((2, 1), "r".into(), 50_000_000, settled, &mut disk);
        assert!(late > settled);
        log.survive_crash(settled);
        check(&log);
        assert_eq!(log.unacked_len(), 4, "only the in-flight append was lost");
        assert!(!log.iter_unacked().any(|e| e.key == (2, 1)));
    }

    #[test]
    fn crash_drops_tail() {
        let (mut log, mut disk) = setup();
        let d1 = log.append((1, 1), "a".into(), 100, SimTime::ZERO, &mut disk);
        // Issue second append but crash before its durability.
        let d2 = log.append((1, 2), "b".into(), 50_000_000, d1, &mut disk);
        assert!(d2 > d1);
        let lost = log.survive_crash(d1);
        assert_eq!(lost, 1);
        assert!(log.get((1, 1)).is_some());
        assert!(log.get((1, 2)).is_none());
    }
}
