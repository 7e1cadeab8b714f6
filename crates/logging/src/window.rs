//! A seq-indexed window: rows keyed by a dense `u64` sequence number.
//!
//! A sender's seqs are contiguous by protocol — a client numbers its calls
//! 1, 2, 3, …, a coordinator registers only `client_max + 1`, and retention
//! retires a contiguous prefix — so a row needs no per-entry key and no
//! ordered-map node around it: the seq *is* the index.  The window groups
//! its slots in fixed chunks of [`CHUNK`] rows, keyed by `seq / CHUNK`; a
//! chunk is allocated when its first row lands and freed when its last row
//! leaves, so a window costs its live rows plus at most a partly filled
//! chunk at each end.  A vacant slot reads as absent, and a row arriving out
//! of seq order simply fills its slot.  Chunks rather than one doubling
//! buffer: a doubling buffer of large rows leaves its outgrown copies
//! touched in the heap, and a chunk map lets a stray seq cost one chunk,
//! never a window stretched across the gap.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// Rows per chunk.  The partly filled chunks at a window's two ends are
/// what a window costs beyond its rows, and most of the coordinator's
/// windows are shallow — a client with a handful of live jobs on each of
/// three coordinators (`churn_mixed`): 32-row chunks read +0.45 MB of peak
/// RSS there against the ordered map they replaced, 16 rows +0.2 MB, 8 rows
/// nothing measurable.  Smaller still, the chunk index and one allocation
/// header per chunk start to show on a deep window (`batch_wide`).
pub const CHUNK: usize = 8;

/// `CHUNK` rows, `live` of them occupied.
#[derive(Debug, Clone)]
struct Chunk<T> {
    live: u32,
    rows: [Option<T>; CHUNK],
}

/// Rows keyed by seq, chunked by `seq / CHUNK`, iterated in seq order.
#[derive(Debug, Clone)]
pub struct SeqWindow<T> {
    chunks: BTreeMap<u64, Box<Chunk<T>>>,
    len: usize,
}

/// `seq`'s chunk number and slot.
fn split(seq: u64) -> (u64, usize) {
    (seq / CHUNK as u64, (seq % CHUNK as u64) as usize)
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        SeqWindow { chunks: BTreeMap::new(), len: 0 }
    }
}

impl<T> SeqWindow<T> {
    /// Empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunks held (each holds at least one row).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The row at `seq`, if its slot is occupied.
    pub fn get(&self, seq: u64) -> Option<&T> {
        let (c, s) = split(seq);
        self.chunks.get(&c)?.rows[s].as_ref()
    }

    /// Mutable form of [`Self::get`].
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let (c, s) = split(seq);
        self.chunks.get_mut(&c)?.rows[s].as_mut()
    }

    /// True when `seq`'s slot is occupied.
    pub fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// Chunk `c`, allocated empty if it was not held.
    fn open(chunks: &mut BTreeMap<u64, Box<Chunk<T>>>, c: u64) -> &mut Chunk<T> {
        chunks
            .entry(c)
            .or_insert_with(|| Box::new(Chunk { live: 0, rows: std::array::from_fn(|_| None) }))
    }

    /// The row at `seq`, `make`'s row filling the slot if it was vacant.
    pub fn get_or_insert_with(&mut self, seq: u64, make: impl FnOnce() -> T) -> &mut T {
        let (c, s) = split(seq);
        let chunk = Self::open(&mut self.chunks, c);
        if chunk.rows[s].is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        chunk.rows[s].get_or_insert_with(make)
    }

    /// Puts `row` at `seq`, returning the row it replaced.
    pub fn insert(&mut self, seq: u64, row: T) -> Option<T> {
        let (c, s) = split(seq);
        let chunk = Self::open(&mut self.chunks, c);
        let old = chunk.rows[s].replace(row);
        if old.is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        old
    }

    /// Vacates `seq`'s slot, freeing its chunk when that was the last row
    /// in it.
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        let (c, s) = split(seq);
        let chunk = self.chunks.get_mut(&c)?;
        let row = chunk.rows[s].take()?;
        chunk.live -= 1;
        self.len -= 1;
        if chunk.live == 0 {
            self.chunks.remove(&c);
        }
        Some(row)
    }

    /// Occupied slots with seq in `seqs`, as `(seq, row)`, ascending.
    pub fn range(&self, seqs: RangeInclusive<u64>) -> impl Iterator<Item = (u64, &T)> + '_ {
        let (lo, hi) = (*seqs.start(), *seqs.end());
        (lo <= hi)
            .then(|| self.chunks.range(lo / CHUNK as u64..=hi / CHUNK as u64))
            .into_iter()
            .flatten()
            .flat_map(move |(&c, chunk)| {
                let base = c * CHUNK as u64;
                chunk.rows.iter().enumerate().filter_map(move |(s, r)| {
                    let seq = base + s as u64;
                    (lo..=hi).contains(&seq).then_some((seq, r.as_ref()?))
                })
            })
    }

    /// Every occupied slot as `(seq, row)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.range(0..=u64::MAX)
    }

    /// The highest occupied seq.
    pub fn last_seq(&self) -> Option<u64> {
        let (&c, chunk) = self.chunks.last_key_value()?;
        let s = chunk.rows.iter().rposition(Option::is_some).expect("a held chunk holds a row");
        Some(c * CHUNK as u64 + s as u64)
    }

    /// Keeps only the rows `keep` accepts, freeing every chunk it empties.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &T) -> bool) {
        let mut len = 0;
        self.chunks.retain(|&c, chunk| {
            for (s, slot) in chunk.rows.iter_mut().enumerate() {
                if slot.as_ref().is_some_and(|r| !keep(c * CHUNK as u64 + s as u64, r)) {
                    *slot = None;
                    chunk.live -= 1;
                }
            }
            len += chunk.live as usize;
            chunk.live > 0
        });
        self.len = len;
    }

    /// Audits the chunks and returns the highest occupied seq: every
    /// chunk's count matches its occupied slots, none is held empty — a
    /// chunk leaves with its last row, so a window starts (and ends) on an
    /// occupied slot — and the window's count is their sum.  Panics on a
    /// violation.
    pub fn audit(&self) -> Option<u64> {
        let mut total = 0;
        for (c, chunk) in &self.chunks {
            let occupied = chunk.rows.iter().filter(|r| r.is_some()).count();
            assert!(occupied > 0, "empty chunk {c} held");
            assert_eq!(chunk.live as usize, occupied, "chunk {c} count");
            total += occupied;
        }
        assert_eq!(self.len, total, "window count");
        self.last_seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Slot filling, chunk freeing and far seqs are `SeqTable`'s unit tests
    // (`rpcv-store`); ranges, retain and the counts are held against an
    // ordered map by `proptest_logs.rs`.  What neither reaches:
    #[test]
    fn insert_returns_the_row_it_replaced_and_retain_frees_chunks() {
        let mut w: SeqWindow<u64> = SeqWindow::new();
        assert_eq!(w.insert(3, 3), None);
        assert_eq!(w.insert(3, 33), Some(3));
        w.insert(2 * CHUNK as u64, 9);
        let (lo, hi) = (5, 4);
        assert_eq!(w.range(lo..=hi).count(), 0, "an empty range reads nothing");
        w.retain(|seq, _| seq != 3);
        assert_eq!((w.len(), w.chunk_count(), w.audit()), (1, 1, Some(2 * CHUNK as u64)));
    }
}
