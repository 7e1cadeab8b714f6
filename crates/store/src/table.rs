//! The job table: one seq-indexed window per client.
//!
//! A client's seqs are contiguous by protocol — gap refusal registers only
//! `client_max + 1`, and retention retires a contiguous delivered prefix —
//! so each client's rows live in a [`SeqWindow`] (`rpcv-log`'s, the one
//! the client's own sender log is built on): the seq is the index, rows
//! sit in fixed chunks, and a chunk leaves with its last row.  A row
//! arriving out of seq order (a re-stamped job replicated after later
//! seqs) simply fills its slot.

use std::collections::BTreeMap;

use rpcv_log::SeqWindow;
use rpcv_xw::{ClientKey, JobKey};

/// Rows keyed by [`JobKey`], iterated in `(client, seq)` order.
#[derive(Debug, Clone)]
pub(crate) struct SeqTable<T> {
    windows: BTreeMap<ClientKey, SeqWindow<T>>,
}

impl<T> SeqTable<T> {
    /// Empty table.
    pub(crate) fn new() -> Self {
        SeqTable { windows: BTreeMap::new() }
    }

    /// The row of `key`, if its slot is occupied.
    pub(crate) fn get(&self, key: &JobKey) -> Option<&T> {
        self.windows.get(&key.client)?.get(key.seq)
    }

    /// Mutable form of [`Self::get`].
    pub(crate) fn get_mut(&mut self, key: &JobKey) -> Option<&mut T> {
        self.windows.get_mut(&key.client)?.get_mut(key.seq)
    }

    /// Puts `row` in `key`'s slot, which is vacant.
    pub(crate) fn insert(&mut self, key: JobKey, row: T) {
        let old = self.windows.entry(key.client).or_default().insert(key.seq, row);
        debug_assert!(old.is_none(), "{key:?}: a row inserted over a resident one");
    }

    /// Vacates `key`'s slot, freeing its chunk (and the client's window)
    /// when that was the last row in it.
    pub(crate) fn remove(&mut self, key: &JobKey) -> Option<T> {
        let window = self.windows.get_mut(&key.client)?;
        let row = window.remove(key.seq)?;
        if window.is_empty() {
            self.windows.remove(&key.client);
        }
        Some(row)
    }

    /// `client`'s rows as `(seq, row)`, in seq order.
    pub(crate) fn client(&self, client: ClientKey) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.windows.get(&client).into_iter().flat_map(SeqWindow::iter)
    }

    /// Every row, in `(client, seq)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (JobKey, &T)> + '_ {
        self.windows
            .iter()
            .flat_map(|(&client, w)| w.iter().map(move |(seq, r)| (JobKey { client, seq }, r)))
    }

    /// Each client's window as `(client, highest seq)` after auditing its
    /// chunks ([`SeqWindow::audit`]): no window is held empty.  Panics on
    /// a violation.
    pub(crate) fn audit(&self) -> Vec<(ClientKey, u64)> {
        self.windows
            .iter()
            .map(|(&client, w)| (client, w.audit().expect("a window holds at least one row")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(client: u64, seq: u64) -> JobKey {
        JobKey::new(ClientKey::new(client, 1), seq)
    }

    #[test]
    fn slots_fill_out_of_order_and_iterate_by_key() {
        let mut t: SeqTable<u64> = SeqTable::new();
        for seq in [40, 3, 70, 1] {
            t.insert(key(2, seq), seq);
        }
        t.insert(key(1, 5), 5);
        assert_eq!(t.get(&key(2, 2)), None, "a vacant slot reads as absent");
        assert_eq!(t.get(&key(2, 40)), Some(&40));
        let keys: Vec<(u64, u64)> = t.iter().map(|(k, _)| (k.client.user.0, k.seq)).collect();
        assert_eq!(keys, vec![(1, 5), (2, 1), (2, 3), (2, 40), (2, 70)]);
        assert_eq!(
            t.client(ClientKey::new(2, 1)).map(|(s, _)| s).collect::<Vec<_>>(),
            [1, 3, 40, 70]
        );
        assert_eq!(t.audit(), vec![(ClientKey::new(1, 1), 5), (ClientKey::new(2, 1), 70)]);
    }

    #[test]
    fn a_chunk_leaves_with_its_last_row() {
        let n = rpcv_log::window::CHUNK as u64;
        let mut t: SeqTable<u64> = SeqTable::new();
        for seq in 1..=n + n / 2 {
            t.insert(key(1, seq), seq);
        }
        let window =
            |t: &SeqTable<u64>| t.windows.get(&ClientKey::new(1, 1)).map(SeqWindow::chunk_count);
        assert_eq!(window(&t), Some(2));
        for seq in 1..n {
            assert_eq!(t.remove(&key(1, seq)), Some(seq));
        }
        assert_eq!(window(&t), Some(1), "seqs 1..CHUNK filled chunk 0 alone");
        assert_eq!(t.remove(&key(1, 1)), None);
        assert_eq!(t.audit(), vec![(ClientKey::new(1, 1), n + n / 2)]);
        for seq in n..=n + n / 2 {
            t.remove(&key(1, seq));
        }
        assert_eq!(window(&t), None, "the empty window is gone too");
        // A far key costs one chunk, not a window across the gap.
        t.insert(key(1, u64::MAX), 7);
        assert_eq!(window(&t), Some(1));
        assert_eq!(t.audit(), vec![(ClientKey::new(1, 1), u64::MAX)]);
    }
}
