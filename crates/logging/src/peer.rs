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
//!
//! The log holds exactly the archives no coordinator has acknowledged.
//! An acknowledgement (`TaskDoneAck`, `ArchivesSettled`) says the entry
//! can no longer prevent a re-execution, so [`PeerLog::ack`] removes it:
//! the log follows the results in delivery, not the jobs the server ever
//! ran.

use std::collections::BTreeMap;

use rpcv_simnet::{Disk, SimTime};

use crate::gc::GcPolicy;

/// Identifies one logged result: `(client id, submission timestamp)`.
pub type PeerKey = (u64, u64);

/// One unacknowledged result archive.
#[derive(Debug, Clone)]
pub struct PeerEntry<T> {
    /// The archive (result payload).
    pub value: T,
    /// Durability instant (always awaited before the result is sent).
    pub durable_at: SimTime,
}

/// Pessimistic log of unacknowledged result archives keyed by
/// `(client, seq)`.
#[derive(Debug, Clone)]
pub struct PeerLog<T> {
    entries: BTreeMap<PeerKey, PeerEntry<T>>,
}

impl<T> PeerLog<T> {
    /// Empty log.  The policy is unread: an acknowledgement reclaims its
    /// entry, so no retained history is left to budget.  The argument stays
    /// only for the callers that still pass one.
    pub fn new(_gc: GcPolicy) -> Self {
        PeerLog { entries: BTreeMap::new() }
    }

    /// Appends (or replaces) the archive for `key`, paying a synchronous
    /// disk write of `size` bytes (server logging is necessarily
    /// pessimistic).
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
        let durable_at = disk.write_sync(now, size).durable_at;
        self.entries.insert(key, PeerEntry { value, durable_at });
        durable_at
    }

    /// Looks up an archive.
    pub fn get(&self, key: PeerKey) -> Option<&PeerEntry<T>> {
        self.entries.get(&key)
    }

    /// Looks up an archive for update.
    pub fn get_mut(&mut self, key: PeerKey) -> Option<&mut PeerEntry<T>> {
        self.entries.get_mut(&key)
    }

    /// A coordinator stored `key`'s archive (or will never need it): the
    /// entry leaves the log and is returned.
    pub fn ack(&mut self, key: PeerKey) -> Option<PeerEntry<T>> {
        self.entries.remove(&key)
    }

    /// Crash semantics: archives not yet durable are lost.
    pub fn survive_crash(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.durable_at <= now);
        before - self.entries.len()
    }

    /// Iterates the unacknowledged entries in key order — the server's
    /// per-beat archive offer.
    pub fn iter_unacked(&self) -> impl Iterator<Item = &PeerEntry<T>> {
        self.entries.values()
    }

    /// [`Self::iter_unacked`], for update.
    pub fn iter_unacked_mut(&mut self) -> impl Iterator<Item = &mut PeerEntry<T>> {
        self.entries.values_mut()
    }

    /// Number of unacknowledged entries.
    pub fn unacked_len(&self) -> usize {
        self.entries.len()
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
        assert_eq!(log.unacked_len(), 1);
        // Durable immediately: crash at `durable` loses nothing.
        assert_eq!(log.survive_crash(durable), 0);
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
