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

use rpcv_simnet::{SimDuration, SimTime};
use rpcv_xw::JobKey;

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

impl SpanEdge {
    /// Stable lowercase name used in histogram keys and JSON.
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

/// One job's span: the edge timeline plus failover annotations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobSpan {
    /// Edge marks in observation order (virtual time is non-decreasing).
    pub marks: Vec<(SpanEdge, SimTime)>,
    /// Failover annotations, in suspicion order.
    pub failovers: Vec<FailoverNote>,
    /// Replacement task instances created for this job.
    pub reexecutions: u64,
}

impl JobSpan {
    /// First mark of `edge`, if stamped.
    pub fn at(&self, edge: SpanEdge) -> Option<SimTime> {
        self.marks.iter().find(|(e, _)| *e == edge).map(|&(_, t)| t)
    }

    /// Number of [`SpanEdge::Checkpointed`] marks.
    pub fn checkpoints(&self) -> u64 {
        self.marks.iter().filter(|(e, _)| *e == SpanEdge::Checkpointed).count() as u64
    }
}

/// The coordinator's book of job spans, keyed by the paper's RPC identity.
#[derive(Debug, Clone, Default)]
pub struct SpanBook {
    spans: BTreeMap<JobKey, JobSpan>,
}

impl SpanBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps `edge` on `key`'s span at `now`.  Every edge except
    /// [`SpanEdge::Checkpointed`] is stamped at most once (re-executions do
    /// not restart the timeline — they annotate it via
    /// [`SpanBook::note_failover`]).
    pub fn mark(&mut self, key: JobKey, edge: SpanEdge, now: SimTime) {
        let span = self.spans.entry(key).or_default();
        if edge != SpanEdge::Checkpointed && span.at(edge).is_some() {
            return;
        }
        span.marks.push((edge, now));
    }

    /// Annotates `key`'s span with a failover: the executing server was
    /// suspected at `suspected_at` after `detect_gap` of silence, and a
    /// replacement instance was queued.
    pub fn note_failover(&mut self, key: JobKey, suspected_at: SimTime, detect_gap: SimDuration) {
        let span = self.spans.entry(key).or_default();
        span.failovers.push(FailoverNote { suspected_at, detect_gap, recovered_at: None });
        span.reexecutions += 1;
    }

    /// Stamps the earliest unresolved failover of `key` as recovered at
    /// `now` (the replacement instance was handed to a server).
    pub fn note_recovered(&mut self, key: JobKey, now: SimTime) {
        if let Some(span) = self.spans.get_mut(&key) {
            if let Some(f) = span.failovers.iter_mut().find(|f| f.recovered_at.is_none()) {
                f.recovered_at = Some(now);
            }
        }
    }

    /// The span of `key`, if any edge or annotation was recorded.
    pub fn span(&self, key: &JobKey) -> Option<&JobSpan> {
        self.spans.get(key)
    }

    /// Number of jobs with a span.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates spans in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&JobKey, &JobSpan)> {
        self.spans.iter()
    }

    /// Folds every span into per-edge histograms and counters on `reg`.
    ///
    /// For each consecutive pair of marks `(a, b)` the gap `b − a` is
    /// recorded into `span.{a}_to_{b}`; the end-to-end submit→collect
    /// latency lands in `span.submit_to_collect`, failover annotations in
    /// `span.failover_detect_gap` / `span.failover_recovery_gap`, and the
    /// totals in `span.jobs` / `span.failovers` / `span.reexecutions` /
    /// `span.checkpoints` counters.
    pub fn fold_into(&self, reg: &mut TelemetrySnapshot) {
        reg.add_counter("span.jobs", self.spans.len() as u64);
        for span in self.spans.values() {
            for pair in span.marks.windows(2) {
                let (a, ta) = pair[0];
                let (b, tb) = pair[1];
                let name = format!("span.{}_to_{}", a.name(), b.name());
                reg.hist_mut(&name).record_gap(tb.since(ta));
            }
            if let (Some(sub), Some(col)) =
                (span.at(SpanEdge::Submitted), span.at(SpanEdge::Collected))
            {
                reg.hist_mut("span.submit_to_collect").record_gap(col.since(sub));
            }
            reg.add_counter("span.failovers", span.failovers.len() as u64);
            reg.add_counter("span.reexecutions", span.reexecutions);
            reg.add_counter("span.checkpoints", span.checkpoints());
            for f in &span.failovers {
                reg.hist_mut("span.failover_detect_gap").record_gap(f.detect_gap);
                if let Some(gap) = f.recovery_gap() {
                    reg.hist_mut("span.failover_recovery_gap").record_gap(gap);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_xw::ClientKey;

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
        assert_eq!(span.marks.len(), 3);
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
        assert_eq!(span.reexecutions, 2);
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
}
