//! The job table: one seq-indexed window per client.
//!
//! A client's seqs are contiguous by protocol — gap refusal registers only
//! `client_max + 1`, and retention retires a contiguous delivered prefix —
//! so a job's row needs no per-entry key and no ordered-map node around
//! it: the seq *is* the index.  Each client's window groups its slots in
//! fixed chunks of [`CHUNK`] rows, keyed by `seq / CHUNK`; a chunk is
//! allocated when its first row lands and freed when its last row leaves,
//! so a window costs its live rows plus at most a partly filled chunk at
//! each end.  A vacant slot reads as absent, and a row arriving out of seq
//! order (a re-stamped job replicated after later seqs) simply fills its
//! slot.  Chunks rather than one doubling buffer: a doubling buffer of
//! job-sized rows leaves its outgrown copies touched in the heap, and a
//! chunk map lets a stray key (a result reported under a key never
//! registered here) cost one chunk, never a window stretched across the
//! gap.

use std::collections::BTreeMap;

use rpcv_xw::{ClientKey, JobKey};

/// Rows per chunk.  The partly filled chunks at a window's two ends are
/// what a window costs beyond its rows, and most windows are shallow — a
/// client with a handful of live jobs on each of three coordinators
/// (`churn_mixed`): 32-row chunks read +0.45 MB of peak RSS there against
/// the ordered map they replaced, 16 rows +0.2 MB, 8 rows nothing
/// measurable.  Smaller still, the chunk index and one allocation header
/// per chunk start to show on a deep window (`batch_wide`).
const CHUNK: usize = 8;

/// `CHUNK` rows of one client, `live` of them occupied.
#[derive(Debug, Clone)]
struct Chunk<T> {
    live: u32,
    rows: [Option<T>; CHUNK],
}

/// One client's rows, chunked by `seq / CHUNK`.
#[derive(Debug, Clone)]
struct Window<T> {
    chunks: BTreeMap<u64, Box<Chunk<T>>>,
}

/// Rows keyed by [`JobKey`], iterated in `(client, seq)` order.
#[derive(Debug, Clone)]
pub(crate) struct SeqTable<T> {
    windows: BTreeMap<ClientKey, Window<T>>,
}

/// `seq`'s chunk number and slot.
fn split(seq: u64) -> (u64, usize) {
    (seq / CHUNK as u64, (seq % CHUNK as u64) as usize)
}

impl<T> Window<T> {
    /// Occupied slots as `(seq, row)`, ascending.
    fn rows(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.chunks.iter().flat_map(|(&c, chunk)| {
            let base = c * CHUNK as u64;
            chunk
                .rows
                .iter()
                .enumerate()
                .filter_map(move |(s, r)| Some((base + s as u64, r.as_ref()?)))
        })
    }
}

impl<T> SeqTable<T> {
    /// Empty table.
    pub(crate) fn new() -> Self {
        SeqTable { windows: BTreeMap::new() }
    }

    /// The row of `key`, if its slot is occupied.
    pub(crate) fn get(&self, key: &JobKey) -> Option<&T> {
        let (c, s) = split(key.seq);
        self.windows.get(&key.client)?.chunks.get(&c)?.rows[s].as_ref()
    }

    /// Mutable form of [`Self::get`].
    pub(crate) fn get_mut(&mut self, key: &JobKey) -> Option<&mut T> {
        let (c, s) = split(key.seq);
        self.windows.get_mut(&key.client)?.chunks.get_mut(&c)?.rows[s].as_mut()
    }

    /// The row of `key`, a default one filling its slot if it was vacant.
    pub(crate) fn get_or_default(&mut self, key: JobKey) -> &mut T
    where
        T: Default,
    {
        let (c, s) = split(key.seq);
        let window =
            self.windows.entry(key.client).or_insert_with(|| Window { chunks: BTreeMap::new() });
        let chunk = window
            .chunks
            .entry(c)
            .or_insert_with(|| Box::new(Chunk { live: 0, rows: std::array::from_fn(|_| None) }));
        let chunk = &mut **chunk;
        if chunk.rows[s].is_none() {
            chunk.live += 1;
        }
        chunk.rows[s].get_or_insert_with(T::default)
    }

    /// Vacates `key`'s slot, freeing its chunk (and the client's window)
    /// when that was the last row in it.
    pub(crate) fn remove(&mut self, key: &JobKey) -> Option<T> {
        let (c, s) = split(key.seq);
        let window = self.windows.get_mut(&key.client)?;
        let chunk = window.chunks.get_mut(&c)?;
        let row = chunk.rows[s].take()?;
        chunk.live -= 1;
        if chunk.live == 0 {
            window.chunks.remove(&c);
            if window.chunks.is_empty() {
                self.windows.remove(&key.client);
            }
        }
        Some(row)
    }

    /// `client`'s rows as `(seq, row)`, in seq order.
    pub(crate) fn client(&self, client: ClientKey) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.windows.get(&client).into_iter().flat_map(Window::rows)
    }

    /// Every row, in `(client, seq)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (JobKey, &T)> + '_ {
        self.windows
            .iter()
            .flat_map(|(&client, w)| w.rows().map(move |(seq, r)| (JobKey { client, seq }, r)))
    }

    /// Each client's window as `(client, highest seq)` after auditing its
    /// chunks: every chunk's count matches its occupied slots and none is
    /// held empty — a chunk leaves with its last row, so every window
    /// starts (and ends) on an occupied slot.  Panics on a violation.
    pub(crate) fn audit(&self) -> Vec<(ClientKey, u64)> {
        self.windows
            .iter()
            .map(|(&client, w)| {
                for (c, chunk) in &w.chunks {
                    let occupied = chunk.rows.iter().filter(|r| r.is_some()).count();
                    assert!(occupied > 0, "{client:?}: empty chunk {c} held");
                    assert_eq!(chunk.live as usize, occupied, "{client:?}: chunk {c} count");
                }
                (client, w.rows().last().expect("a window holds at least one chunk").0)
            })
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
            *t.get_or_default(key(2, seq)) = seq;
        }
        *t.get_or_default(key(1, 5)) = 5;
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
        let n = CHUNK as u64;
        let mut t: SeqTable<u64> = SeqTable::new();
        for seq in 1..=n + n / 2 {
            *t.get_or_default(key(1, seq)) = seq;
        }
        let window =
            |t: &SeqTable<u64>| t.windows.get(&ClientKey::new(1, 1)).map(|w| w.chunks.len());
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
        // A stray far key costs one chunk, not a window across the gap.
        *t.get_or_default(key(1, u64::MAX)) = 7;
        assert_eq!(window(&t), Some(1));
        assert_eq!(t.audit(), vec![(ClientKey::new(1, 1), u64::MAX)]);
    }
}
