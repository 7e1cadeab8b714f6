//! Per-job lifecycle spans.
//!
//! A job's life is a timeline of edges — submitted → dispatched → first-unit
//! → checkpointed×N → finished → archive-stored → collected → gc'd — and the
//! coordinator stamps each edge with the virtual instant it was observed.
//! Failovers and re-executions annotate the span rather than restarting it,
//! which is what makes the detect→recover gap *measurable* instead of
//! inferred from makespans.  [`SpanBook::fold_into`] turns the raw timelines
//! into per-edge latency histograms for a [`crate::TelemetrySnapshot`].

use std::collections::BTreeMap;

use rpcv_log::SeqWindow;
use rpcv_simnet::{SimDuration, SimTime};
use rpcv_xw::{ClientKey, JobKey};

use crate::hist::Histogram;
use crate::snapshot::TelemetrySnapshot;

/// A lifecycle edge in a job's span timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanEdge {
    /// Job registered at the coordinator.
    Submitted,
    /// First task instance handed to a server.
    Dispatched,
    /// First unit of progress checkpointed or reported.
    FirstUnit,
    /// A checkpoint advanced the resume point (repeatable edge).
    Checkpointed,
    /// A server reported the final result.
    Finished,
    /// The result archive was persisted in the coordinator store.
    ArchiveStored,
    /// The owning client pulled the result.
    Collected,
    /// The archive was garbage-collected after collection.
    Gc,
}

/// Number of [`SpanEdge`] variants.
const EDGES: usize = SpanEdge::ALL.len();

impl SpanEdge {
    /// Every edge, in declaration (ordinal) order.
    pub const ALL: [SpanEdge; 8] = [
        SpanEdge::Submitted,
        SpanEdge::Dispatched,
        SpanEdge::FirstUnit,
        SpanEdge::Checkpointed,
        SpanEdge::Finished,
        SpanEdge::ArchiveStored,
        SpanEdge::Collected,
        SpanEdge::Gc,
    ];

    /// Stable lowercase name used in histogram keys.
    pub const fn name(&self) -> &'static str {
        match self {
            SpanEdge::Submitted => "submitted",
            SpanEdge::Dispatched => "dispatched",
            SpanEdge::FirstUnit => "first_unit",
            SpanEdge::Checkpointed => "checkpointed",
            SpanEdge::Finished => "finished",
            SpanEdge::ArchiveStored => "archive_stored",
            SpanEdge::Collected => "collected",
            SpanEdge::Gc => "gc",
        }
    }
}

/// A failover annotation on a job's span: the coordinator suspected the
/// executing server and re-queued the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverNote {
    /// Virtual instant the suspicion fired (scan tick).
    pub suspected_at: SimTime,
    /// Silence observed at suspicion time: `suspected_at − last heartbeat`.
    /// Bounded below by the suspicion timeout and above by timeout + one
    /// scan period (the coordinator only looks once per heartbeat).
    pub detect_gap: SimDuration,
    /// Virtual instant the replacement instance was handed to a server,
    /// `None` while the job is still waiting in the pending queue.
    pub recovered_at: Option<SimTime>,
}

impl FailoverNote {
    /// Suspicion → re-dispatch gap, if recovery has happened.
    pub fn recovery_gap(&self) -> Option<SimDuration> {
        self.recovered_at.map(|at| at.since(self.suspected_at))
    }
}

/// Bits of a packed mark that hold the edge; the instant takes the rest.
const EDGE_BITS: u32 = 3;
/// Bits of a packed mark that hold the instant, in nanoseconds.
const AT_BITS: u32 = u64::BITS - EDGE_BITS;
/// The instant's bits of a packed mark.
const AT_MASK: u64 = (1 << AT_BITS) - 1;
const _: () = assert!(EDGES <= 1 << EDGE_BITS, "every edge ordinal fits the edge bits");

/// One edge mark in one word: the edge ordinal in the top [`EDGE_BITS`]
/// bits, the instant's nanoseconds in the low [`AT_BITS`] (2^61 ns is
/// over 73 years of virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark(u64);

impl Mark {
    /// Packs `edge` at `at`.  Panics on an instant at or past 2^61 ns.
    fn pack(edge: SpanEdge, at: SimTime) -> Mark {
        assert!(at.0 <= AT_MASK, "{at:?} is past a span mark's {AT_BITS}-bit instant");
        Mark((edge as u64) << AT_BITS | at.0)
    }

    fn edge(self) -> SpanEdge {
        SpanEdge::ALL[(self.0 >> AT_BITS) as usize]
    }

    fn at(self) -> SimTime {
        SimTime(self.0 & AT_MASK)
    }
}

/// Appends `item` to an exact-size slice: the slice grows by one slot
/// and keeps no spare capacity.
fn push_exact<T>(slice: &mut Box<[T]>, item: T) {
    let mut grown = std::mem::take(slice).into_vec();
    grown.reserve_exact(1);
    grown.push(item);
    *slice = grown.into_boxed_slice();
}

/// One job's span: the edge timeline plus failover annotations.  Both sit
/// in exact-size slices — a book holds every span of every lifetime job,
/// so a span keeps no spare capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobSpan {
    /// Edge marks in observation order (virtual time is non-decreasing).
    marks: Box<[Mark]>,
    /// Failover annotations, in suspicion order: one per replacement
    /// instance queued for this job.
    pub failovers: Box<[FailoverNote]>,
}

impl JobSpan {
    /// Edge marks in observation order (virtual time is non-decreasing).
    pub fn marks(&self) -> impl ExactSizeIterator<Item = (SpanEdge, SimTime)> + '_ {
        self.marks.iter().map(|&m| (m.edge(), m.at()))
    }

    /// First mark of `edge`, if stamped.
    pub fn at(&self, edge: SpanEdge) -> Option<SimTime> {
        self.marks().find(|&(e, _)| e == edge).map(|(_, t)| t)
    }

    /// Number of [`SpanEdge::Checkpointed`] marks.
    pub fn checkpoints(&self) -> u64 {
        self.marks().filter(|&(e, _)| e == SpanEdge::Checkpointed).count() as u64
    }
}

/// The coordinator's book of job spans, keyed by the paper's RPC identity.
///
/// A client's seqs are dense, so the book keeps one [`SeqWindow`] per
/// client (the layout of the coordinator's job table): a span costs its
/// window slot — the span and its key, which [`SpanBook::iter`] lends out
/// — plus one word per mark, not an ordered-map entry.
#[derive(Debug, Clone, Default)]
pub struct SpanBook {
    spans: BTreeMap<ClientKey, SeqWindow<Slot>>,
}

/// A window slot: the span and the key [`SpanBook::iter`] lends out.
type Slot = (JobKey, JobSpan);

impl SpanBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// `key`'s span, opened empty if nothing was recorded for it yet.
    fn open(&mut self, key: JobKey) -> &mut JobSpan {
        let window = self.spans.entry(key.client).or_default();
        &mut window.get_or_insert_with(key.seq, || (key, JobSpan::default())).1
    }

    /// Stamps `edge` on `key`'s span at `now`.  Every edge except
    /// [`SpanEdge::Checkpointed`] is stamped at most once (re-executions do
    /// not restart the timeline — they annotate it via
    /// [`SpanBook::note_failover`]).  Panics on an instant at or past
    /// 2^61 ns.
    pub fn mark(&mut self, key: JobKey, edge: SpanEdge, now: SimTime) {
        let mark = Mark::pack(edge, now);
        let span = self.open(key);
        if edge != SpanEdge::Checkpointed && span.at(edge).is_some() {
            return;
        }
        push_exact(&mut span.marks, mark);
    }

    /// Annotates `key`'s span with a failover: the executing server was
    /// suspected at `suspected_at` after `detect_gap` of silence, and a
    /// replacement instance was queued.
    pub fn note_failover(&mut self, key: JobKey, suspected_at: SimTime, detect_gap: SimDuration) {
        let note = FailoverNote { suspected_at, detect_gap, recovered_at: None };
        push_exact(&mut self.open(key).failovers, note);
    }

    /// Stamps the earliest unresolved failover of `key` as recovered at
    /// `now` (the replacement instance was handed to a server).
    pub fn note_recovered(&mut self, key: JobKey, now: SimTime) {
        let span = self.spans.get_mut(&key.client).and_then(|w| w.get_mut(key.seq));
        if let Some((_, span)) = span {
            if let Some(f) = span.failovers.iter_mut().find(|f| f.recovered_at.is_none()) {
                f.recovered_at = Some(now);
            }
        }
    }

    /// The span of `key`, if any edge or annotation was recorded.
    pub fn span(&self, key: &JobKey) -> Option<&JobSpan> {
        self.spans.get(&key.client)?.get(key.seq).map(|(_, span)| span)
    }

    /// Number of jobs with a span.
    pub fn len(&self) -> usize {
        self.spans.values().map(SeqWindow::len).sum()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates spans in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&JobKey, &JobSpan)> {
        self.spans.values().flat_map(SeqWindow::iter).map(|(_, (key, span))| (key, span))
    }

    /// Folds every span into per-edge histograms and counters on `reg`.
    ///
    /// For each consecutive pair of marks `(a, b)` the gap `b − a` is
    /// recorded into `span.{a}_to_{b}`; the end-to-end submit→collect
    /// latency lands in `span.submit_to_collect`, failover annotations in
    /// `span.failover_detect_gap` / `span.failover_recovery_gap`, and the
    /// totals in `span.jobs` / `span.failovers` / `span.checkpoints`
    /// counters.
    ///
    /// The walk folds into local histograms — one per `(a, b)` edge pair,
    /// indexed by the two edge ordinals — and names each non-empty one
    /// once at the end, so a fold over a plan-sized book formats a handful
    /// of names, not one per mark pair per span.  (Merging is exact:
    /// buckets and counts add, and the saturating sum of non-negative gaps
    /// does not depend on grouping.)
    pub fn fold_into(&self, reg: &mut TelemetrySnapshot) {
        reg.add_counter("span.jobs", self.len() as u64);
        if self.is_empty() {
            return;
        }
        let mut pairs = vec![Histogram::new(); EDGES * EDGES];
        let [mut submit_to_collect, mut detect_gap, mut recovery_gap] =
            std::array::from_fn(|_| Histogram::new());
        let (mut failovers, mut checkpoints) = (0, 0);
        for (_, span) in self.iter() {
            for pair in span.marks.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                pairs[a.edge() as usize * EDGES + b.edge() as usize]
                    .record_gap(b.at().since(a.at()));
            }
            if let (Some(sub), Some(col)) =
                (span.at(SpanEdge::Submitted), span.at(SpanEdge::Collected))
            {
                submit_to_collect.record_gap(col.since(sub));
            }
            failovers += span.failovers.len() as u64;
            checkpoints += span.checkpoints();
            for f in &span.failovers {
                detect_gap.record_gap(f.detect_gap);
                if let Some(gap) = f.recovery_gap() {
                    recovery_gap.record_gap(gap);
                }
            }
        }
        for (i, h) in pairs.iter().enumerate().filter(|(_, h)| !h.is_empty()) {
            let (a, b) = (SpanEdge::ALL[i / EDGES], SpanEdge::ALL[i % EDGES]);
            reg.hist_mut(&format!("span.{}_to_{}", a.name(), b.name())).merge(h);
        }
        for (name, h) in [
            ("span.submit_to_collect", &submit_to_collect),
            ("span.failover_detect_gap", &detect_gap),
            ("span.failover_recovery_gap", &recovery_gap),
        ] {
            if !h.is_empty() {
                reg.hist_mut(name).merge(h);
            }
        }
        reg.add_counter("span.failovers", failovers);
        reg.add_counter("span.checkpoints", checkpoints);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seq: u64) -> JobKey {
        JobKey::new(ClientKey::default(), seq)
    }

    #[test]
    fn edges_stamp_once_except_checkpointed() {
        let mut book = SpanBook::new();
        let k = key(1);
        book.mark(k, SpanEdge::Submitted, SimTime::from_millis(1));
        book.mark(k, SpanEdge::Submitted, SimTime::from_millis(9));
        book.mark(k, SpanEdge::Checkpointed, SimTime::from_millis(2));
        book.mark(k, SpanEdge::Checkpointed, SimTime::from_millis(3));
        let span = book.span(&k).unwrap();
        assert_eq!(span.at(SpanEdge::Submitted), Some(SimTime::from_millis(1)));
        assert_eq!(span.checkpoints(), 2);
        assert_eq!(span.marks().len(), 3);
    }

    #[test]
    fn failover_annotations_resolve_in_order() {
        let mut book = SpanBook::new();
        let k = key(7);
        book.note_failover(k, SimTime::from_secs(10), SimDuration::from_secs(5));
        book.note_failover(k, SimTime::from_secs(40), SimDuration::from_secs(6));
        book.note_recovered(k, SimTime::from_secs(12));
        let span = book.span(&k).unwrap();
        assert_eq!(span.failovers[0].recovered_at, Some(SimTime::from_secs(12)));
        assert_eq!(span.failovers[0].recovery_gap(), Some(SimDuration::from_secs(2)));
        assert_eq!(span.failovers[1].recovered_at, None);
        assert_eq!(span.failovers.len(), 2);
    }

    #[test]
    fn fold_produces_edge_histograms() {
        let mut book = SpanBook::new();
        let k = key(3);
        book.mark(k, SpanEdge::Submitted, SimTime::from_millis(0));
        book.mark(k, SpanEdge::Dispatched, SimTime::from_millis(10));
        book.mark(k, SpanEdge::Finished, SimTime::from_millis(250));
        book.mark(k, SpanEdge::Collected, SimTime::from_millis(400));
        let mut snap = TelemetrySnapshot::new();
        book.fold_into(&mut snap);
        assert_eq!(snap.counter("span.jobs"), 1);
        let h = snap.hist("span.submit_to_collect").unwrap();
        assert_eq!(h.count(), 1);
        assert!(snap.hist("span.submitted_to_dispatched").is_some());
        assert!(snap.hist("span.dispatched_to_finished").is_some());
    }

    #[test]
    fn edge_table_is_in_ordinal_order() {
        for (i, e) in SpanEdge::ALL.iter().enumerate() {
            assert_eq!(*e as usize, i, "{}", e.name());
        }
    }

    #[test]
    fn span_layouts_are_pinned() {
        // The book holds a span for every lifetime job: a new field is a
        // decision.  A span is two exact-size slices; its window slot adds
        // the key and nothing more, and a mark is one word.
        assert!(size_of::<JobSpan>() <= 32, "JobSpan: {}", size_of::<JobSpan>());
        assert!(size_of::<Slot>() <= 56, "slot: {}", size_of::<Slot>());
        assert_eq!(size_of::<Mark>(), 8);
        // A vacant window slot costs the slot's bytes and nothing more.
        assert_eq!(size_of::<Option<JobSpan>>(), size_of::<JobSpan>());
        assert_eq!(size_of::<Option<Slot>>(), size_of::<Slot>());
    }

    #[test]
    fn a_mark_keeps_the_last_61_bit_instant() {
        let mut book = SpanBook::new();
        let last = SimTime((1 << 61) - 1);
        book.mark(key(1), SpanEdge::Gc, last);
        assert_eq!(book.span(&key(1)).unwrap().marks().collect::<Vec<_>>(), [(SpanEdge::Gc, last)]);
    }

    #[test]
    #[should_panic(expected = "61-bit instant")]
    fn a_mark_past_61_bits_panics() {
        SpanBook::new().mark(key(1), SpanEdge::Submitted, SimTime(1 << 61));
    }

    #[test]
    fn fold_matches_the_per_pair_definition() {
        // The definition the local-table fold replaced: one named
        // histogram lookup per mark pair per span, counters per span.
        fn fold_by_name(book: &SpanBook, reg: &mut TelemetrySnapshot) {
            reg.add_counter("span.jobs", book.len() as u64);
            for (_, span) in book.iter() {
                let marks: Vec<_> = span.marks().collect();
                for pair in marks.windows(2) {
                    let name = format!("span.{}_to_{}", pair[0].0.name(), pair[1].0.name());
                    reg.hist_mut(&name).record_gap(pair[1].1.since(pair[0].1));
                }
                if let (Some(sub), Some(col)) =
                    (span.at(SpanEdge::Submitted), span.at(SpanEdge::Collected))
                {
                    reg.hist_mut("span.submit_to_collect").record_gap(col.since(sub));
                }
                reg.add_counter("span.failovers", span.failovers.len() as u64);
                reg.add_counter("span.checkpoints", span.checkpoints());
                for f in &span.failovers {
                    reg.hist_mut("span.failover_detect_gap").record_gap(f.detect_gap);
                    if let Some(gap) = f.recovery_gap() {
                        reg.hist_mut("span.failover_recovery_gap").record_gap(gap);
                    }
                }
            }
        }
        let check = |book: &SpanBook, what: &str| {
            let (mut a, mut b) = (TelemetrySnapshot::new(), TelemetrySnapshot::new());
            book.fold_into(&mut a);
            fold_by_name(book, &mut b);
            assert_eq!(a.seal(), b.seal(), "{what}");
        };
        let at = SimTime::from_millis;
        let mut book = SpanBook::new();
        check(&book, "empty book");
        // Three clients (two sessions of one user among them), each
        // marking its seqs out of order: 17 steps through 1..=40 mod 41.
        let clients = [ClientKey::new(2, 1), ClientKey::new(1, 2), ClientKey::new(1, 1)];
        let mut keys = std::collections::BTreeSet::new();
        for (c, &client) in clients.iter().enumerate() {
            for seq in (1..=40u64).map(|i| i * 17 % 41) {
                let k = JobKey::new(client, seq);
                keys.insert(k);
                let t = seq + c as u64;
                book.mark(k, SpanEdge::Submitted, at(t));
                book.mark(k, SpanEdge::Dispatched, at(t * 3));
                if seq % 3 == 0 {
                    book.mark(k, SpanEdge::Checkpointed, at(t * 4));
                    book.mark(k, SpanEdge::Checkpointed, at(t * 5));
                }
                if seq % 4 == 0 {
                    book.note_failover(k, at(t * 6), SimDuration::from_millis(t));
                    if seq % 8 == 0 {
                        book.note_recovered(k, at(t * 7));
                    }
                }
                if seq % 5 != 0 {
                    book.mark(k, SpanEdge::Finished, at(t * 9));
                    book.mark(k, SpanEdge::Collected, at(t * 11));
                }
            }
        }
        check(&book, "dense spans");
        // What a replica holds: one `ArchiveStored` mark on every third
        // seq, highest first.
        let replica = ClientKey::new(3, 1);
        for seq in (1..=20u64).rev().map(|i| i * 3) {
            let k = JobKey::new(replica, seq);
            keys.insert(k);
            book.mark(k, SpanEdge::ArchiveStored, at(seq));
        }
        // A span holding only a failover note, recovered.
        let noted = JobKey::new(ClientKey::new(0, 7), 5);
        keys.insert(noted);
        book.note_failover(noted, at(50), SimDuration::from_millis(4));
        book.note_recovered(noted, at(60));
        assert_eq!(book.span(&noted).unwrap().marks().len(), 0);
        check(&book, "sparse and failover-only spans");
        assert_eq!(book.len(), keys.len());
        assert!(
            book.iter().map(|(k, _)| *k).eq(keys.iter().copied()),
            "iter() yields keys in (client, seq) order"
        );
        assert!(book.iter().all(|(k, _)| book.span(k).is_some()));
    }
}
