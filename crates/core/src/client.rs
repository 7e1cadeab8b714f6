//! The RPC-V client actor.
//!
//! Responsibilities (paper §4.1/§4.2):
//!
//! * tag every submission with a unique monotone counter value and log it
//!   locally under the configured strategy *before* it leaves (sender-based
//!   message logging; Fig. 4 compares the strategies);
//! * talk only to its *preferred coordinator*, switching to the next one in
//!   the known list on suspicion, then running the timestamp
//!   synchronization ("the client and coordinator synchronize their state
//!   from their local logs");
//! * pull results periodically (connection-less, client-initiated);
//! * survive crashes: restart from the durable log, roll forward past
//!   whatever the coordinator already registered.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use rpcv_detect::CoordLink;
use rpcv_log::{GcPolicy, SenderLog, SeqWindow};
use rpcv_obs::{Histogram, TelemetrySnapshot};
use rpcv_simnet::{Actor, Ctx, DurableImage, NodeId, SimTime, TimerId};
use rpcv_wire::Blob;
use rpcv_xw::{ClientKey, CoordId, JobKey};

use crate::calibration::MARSHAL_BW;
use crate::config::ProtocolConfig;
use crate::frontier::{PullFrontier, RetryPolicy};
use crate::msg::Msg;
use crate::util::{CallSpec, Directory};

const K_BEAT: u64 = 1;
/// A logged submission whose communication may start now (its log write or
/// marshalling finished): the send's NIC end closes the interaction.
const K_SUBMIT: u64 = 2;
const K_NEXT: u64 = 3;

/// Observation record for one submission.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitTiming {
    /// When the application requested the call.
    pub requested_at: SimTime,
    /// When the submission interaction completed (communication done and,
    /// for non-blocking pessimistic logging, the durability barrier
    /// passed) — the quantity Fig. 4 plots.
    pub interaction_end: Option<SimTime>,
}

rpcv_simnet::counters! {
    /// Client-side observations read by experiment harnesses.
    #[derive(Debug, Clone, Default)]
    pub struct ClientMetrics {
        /// Coordinator switches performed.
        pub coordinator_switches,
        /// Synchronizations that had to resend log entries.
        pub log_replays,
        /// Frames that arrived unreadable (wire corruption) and were dropped
        /// without touching protocol state.
        pub bad_frames,
    }
    + {
        /// Per-seq submission timings.
        pub submissions: BTreeMap<u64, SubmitTiming>,
        /// Result arrival times per seq.
        pub results_received: BTreeMap<u64, SimTime>,
        /// When every planned call had its result.
        pub done_at: Option<SimTime>,
    }
}

impl ClientMetrics {
    /// End-to-end job latency (submission requested → result held),
    /// folded into a virtual-time histogram.  Only completed jobs
    /// contribute; in-flight ones are invisible until their result lands.
    pub fn job_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for (seq, &received) in &self.results_received {
            if let Some(t) = self.submissions.get(seq) {
                h.record_gap(received.since(t.requested_at));
            }
        }
        h
    }

    /// Submission interaction latency (requested → interaction complete),
    /// the quantity the paper's Fig. 4 plots, as a histogram.
    pub fn interaction_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for t in self.submissions.values() {
            if let Some(end) = t.interaction_end {
                h.record_gap(end.since(t.requested_at));
            }
        }
        h
    }

    /// Pours the counters, the map sizes and both latency histograms into
    /// `reg` under `client.`; poured from every client, the fleet's totals.
    pub(crate) fn fold_into(&self, reg: &mut TelemetrySnapshot) {
        let sizes = [
            ("submissions", self.submissions.len() as u64),
            ("results_received", self.results_received.len() as u64),
        ];
        reg.add_counters("client", self.counters().chain(sizes));
        reg.hist_mut("client.job_latency").merge(&self.job_latency());
        reg.hist_mut("client.interaction_latency").merge(&self.interaction_latency());
    }
}

/// A received result retained by the client.
#[derive(Debug, Clone)]
struct ResultRec {
    archive: Blob,
    durable_at: SimTime,
}

/// State that survives a client crash (its disk).
struct ClientDurable {
    log: SenderLog<CallSpec>,
    results: SeqWindow<ResultRec>,
    metrics: ClientMetrics,
}

/// Construction parameters (shared by first start and restarts).
#[derive(Debug, Clone)]
pub struct ClientParams {
    /// Identity.
    pub key: ClientKey,
    /// Protocol configuration.
    pub cfg: ProtocolConfig,
    /// Coordinator directory.
    pub directory: Directory,
    /// The workload: calls submitted sequentially (each when the previous
    /// submission interaction completes).  One copy, shared by the factory
    /// and every incarnation; call `i` is submitted as seq `i + 1`.
    pub plan: Arc<[CallSpec]>,
}

/// The client state machine.
pub struct ClientActor {
    params: ClientParams,
    /// The preferred coordinator and the list it was picked from: the
    /// directory's group owning this client's job space.
    link: CoordLink<CoordId>,
    /// Every submitted call, at its seq: the log holds the call, not the
    /// submission — [`CallSpec::job`] rebuilds that wherever one is sent.
    log: SenderLog<CallSpec>,
    /// Plan calls submitted (or rolled forward past) so far.
    next_plan_idx: usize,
    /// Calls made through the API ([`Msg::ApiSubmit`]) that are not logged
    /// yet: the plan's tail, queued only until [`Self::submit_next`] logs
    /// them, since the log is where a submitted call lives.
    api_queue: VecDeque<CallSpec>,
    /// Held results, at their seqs.
    results: SeqWindow<ResultRec>,
    /// Seqs of held results not yet acknowledged to the current
    /// coordinator incarnation — the index behind the per-beat collected
    /// list, so a steady-state beat is O(unacked), never a walk of the
    /// whole result history (the client-side mirror of `PeerLog`'s
    /// unacked index).
    unacked_results: BTreeSet<u64>,
    /// When each submission above the acknowledged mark last left this
    /// client (replay throttle); [`Self::ack_up_to`] drops the rest.
    sent_at: BTreeMap<u64, SimTime>,
    /// Highest seq ever sent to the current coordinator incarnation.
    /// Submission is sequential, so every logged entry at or below this
    /// mark has a `sent_at` stamp — the replay scan skips the whole
    /// in-flight prefix instead of re-checking it entry by entry.
    sent_hw: u64,
    /// `(coordinator, boot epoch)` of the last reply, plus the highest
    /// `coord_max` observed within it.
    coord_epoch: Option<(CoordId, u64)>,
    acked_max: u64,
    /// When `acked_max` last advanced (registration progress watermark).
    progress_at: SimTime,
    /// Catalogued seqs whose payloads are not held yet, with their request
    /// state (re-requests back off exponentially so large archives in
    /// flight are not requested again every beat).  Built incrementally
    /// from per-beat catalog deltas and indexed by due time, so a pull
    /// round touches only its window — never everything the coordinator
    /// advertises (every collected-but-unreclaimed result), nor the
    /// in-backoff backlog.
    frontier: PullFrontier,
    /// Catalog high-water mark at the current coordinator incarnation: the
    /// highest catalog version already merged.  Echoed in every beat so
    /// the sync reply carries only what changed since.
    catalog_hw: u64,
    /// Last ResultsRequest instant (pull pacing).
    last_pull: Option<SimTime>,
    /// Submissions whose interaction has not completed yet (keeps the
    /// sequential submission pump alive across API calls).
    in_flight_submissions: usize,
    /// Armed `K_SUBMIT` timers: the coordinator each submission goes to and
    /// its seq (the spec is read back from the log when the timer fires).
    submitting: BTreeMap<TimerId, (NodeId, u64)>,
    /// Telemetry snapshots pulled from coordinators via
    /// [`Msg::StatusRequest`], keyed by coordinator id.  A volatile cache:
    /// not part of the durable image.
    snapshots: BTreeMap<CoordId, TelemetrySnapshot>,
    /// Highest [`Msg::StatusReply`] nonce successfully decoded — lets a
    /// live-grid poller tell a fresh snapshot from a cached one.
    status_nonce_hw: u64,
    /// Public observations.
    pub metrics: ClientMetrics,
}

impl ClientActor {
    /// Builds the actor factory used by `World::install`: restores from the
    /// durable image on restart.
    pub fn factory(
        params: ClientParams,
    ) -> impl FnMut(DurableImage) -> Box<dyn Actor<Msg> + Send> + Send + 'static {
        move |image| {
            let mut actor = ClientActor::fresh(params.clone());
            if let Some(d) = image.take::<ClientDurable>() {
                actor.next_plan_idx = d.log.max_seq() as usize;
                actor.log = d.log;
                // Acknowledgements are volatile: every held result is
                // re-announced to whoever answers the restart.
                actor.unacked_results = d.results.iter().map(|(seq, _)| seq).collect();
                actor.results = d.results;
                actor.metrics = d.metrics;
            }
            Box::new(actor)
        }
    }

    fn fresh(params: ClientParams) -> Self {
        let members = params.directory.group_of(params.key).iter().copied();
        let link = CoordLink::new(members);
        let log = SenderLog::new(params.cfg.log_strategy, GcPolicy::unbounded());
        ClientActor {
            params,
            link,
            log,
            next_plan_idx: 0,
            api_queue: VecDeque::new(),
            results: SeqWindow::new(),
            unacked_results: BTreeSet::new(),
            sent_at: BTreeMap::new(),
            sent_hw: 0,
            coord_epoch: None,
            acked_max: 0,
            progress_at: SimTime::ZERO,
            frontier: PullFrontier::new(),
            catalog_hw: 0,
            last_pull: None,
            in_flight_submissions: 0,
            submitting: BTreeMap::new(),
            snapshots: BTreeMap::new(),
            status_nonce_hw: 0,
            metrics: ClientMetrics::default(),
        }
    }

    /// Results received so far.
    pub fn results_count(&self) -> usize {
        self.results.len()
    }

    /// Per-entity records resident here, the submission log and the held
    /// results excluded: they follow the work in flight, not the jobs this
    /// client ever submitted.
    #[doc(hidden)]
    pub fn resident_records(&self) -> usize {
        (self.unacked_results.len() + self.sent_at.len())
            + (self.frontier.len() + self.submitting.len())
    }

    /// The coordinator currently preferred, if any.
    pub fn current_coordinator(&self) -> Option<CoordId> {
        self.link.current()
    }

    /// Address of the preferred coordinator (picking one if need be).
    fn coordinator(&mut self, now: SimTime) -> Option<NodeId> {
        self.params.directory.node_of(self.link.pick(now)?)
    }

    /// The submission of the logged call at `seq`.
    fn submission(&self, seq: u64) -> Msg {
        let call = &self.log.get(seq).expect("a submitted seq is logged").value;
        Msg::Submit { spec: call.job(JobKey { client: self.params.key, seq }) }
    }

    /// Logs and sends the next call: the plan's next one, else the oldest
    /// queued API call.
    fn submit_next(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let call = match self.params.plan.get(self.next_plan_idx) {
            Some(call) => {
                self.next_plan_idx += 1;
                call.clone()
            }
            None => match self.api_queue.pop_front() {
                Some(call) => call,
                None => return,
            },
        };
        let now = ctx.now();
        let seq = self.log.peek_seq();
        self.in_flight_submissions += 1;
        // Marshalling cost, then the strategy-mediated log write.
        let marshal_done = ctx.cpu(call.params.len() as f64 / MARSHAL_BW);
        let logged_bytes = call.params.len() + 64; // params + call frame
        let out = self.log.append(call, logged_bytes, now, ctx.disk_mut());
        debug_assert_eq!(out.seq, seq);
        self.metrics
            .submissions
            .insert(seq, SubmitTiming { requested_at: now, interaction_end: None });
        let comm_start = out.timing.comm_may_start_at.max(marshal_done);
        // Mark the submission as in flight from the moment it is scheduled
        // (the send may leave a little later); a crash wipes this map, so
        // restored log entries correctly look never-sent.
        self.sent_at.insert(seq, now);
        self.sent_hw = self.sent_hw.max(seq);
        if let Some(node) = self.coordinator(now) {
            if comm_start <= now {
                let comm_end = ctx.send(node, self.submission(seq));
                self.finish_submission(ctx, seq, comm_end);
            } else {
                let id = ctx.set_timer_at(comm_start, K_SUBMIT);
                self.submitting.insert(id, (node, seq));
            }
        } else {
            // No coordinator known: the interaction ends locally; the log
            // replay at the next synchronization will deliver it.
            self.finish_submission(ctx, seq, comm_start);
        }
    }

    fn finish_submission(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64, comm_end: SimTime) {
        self.sent_at.insert(seq, ctx.now());
        self.sent_hw = self.sent_hw.max(seq);
        let end = self.log.interaction_end(seq, comm_end);
        if let Some(t) = self.metrics.submissions.get_mut(&seq) {
            t.interaction_end = Some(end);
        }
        self.in_flight_submissions = self.in_flight_submissions.saturating_sub(1);
        // Sequential submission: the next call starts when this interaction
        // completes.  Always schedule the continuation — an API call may
        // arrive between now and the timer firing.
        ctx.set_timer_at(end, K_NEXT);
    }

    fn beat(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        if self.link.give_up_if_silent(now, self.params.cfg.suspicion).is_some() {
            ctx.note("client suspects coordinator");
            self.metrics.coordinator_switches += 1;
        }
        let Some(node) = self.coordinator(now) else { return };
        // Ack results that are durable locally and not yet acked — served
        // from the unacked index, O(unacked) per beat.  Windowed: after an
        // incarnation change every held result is re-announced, and a
        // long-lived client must not fold its whole history into one beat —
        // the remainder rides the following beats (only what this beat
        // carries is marked acked below).
        const MAX_COLLECTED_PER_BEAT: usize = 512;
        let collected: Vec<u64> = self
            .unacked_results
            .iter()
            .filter(|&&s| self.results.get(s).is_some_and(|r| r.durable_at <= now))
            .copied()
            .take(MAX_COLLECTED_PER_BEAT)
            .collect();
        for s in &collected {
            self.unacked_results.remove(s);
        }
        ctx.send(
            node,
            Msg::ClientBeat {
                client: self.params.key,
                max_seq: self.log.max_seq(),
                collected,
                catalog_seq: self.catalog_hw,
            },
        );
    }

    fn ingest_results(&mut self, ctx: &mut Ctx<'_, Msg>, results: Vec<crate::msg::RpcResult>) {
        let now = ctx.now();
        // Results are made durable locally (cached write) so a crash after
        // acking cannot lose them.  The result store is an append-only
        // log: one reply is one write (a 32-byte record header per
        // archive), not a seek per result on the disk the submission log
        // shares — and the collected ack of every result in it waits for
        // that one write's durability.
        let bytes: u64 = results
            .iter()
            .filter(|r| !self.results.contains(r.job.seq))
            .map(|r| r.archive.len() + 32)
            .sum();
        let durable_at = if bytes > 0 { ctx.disk_write(bytes, false).durable_at } else { now };
        for r in results {
            let seq = r.job.seq;
            self.frontier.remove(seq);
            if self.results.contains(seq) {
                continue;
            }
            self.results.insert(seq, ResultRec { archive: r.archive, durable_at });
            self.unacked_results.insert(seq);
            self.metrics.results_received.insert(seq, now);
        }
        // Done once every call made (the plan, then the API's) is logged
        // and each logged seq has its result.
        let calls = self.log.max_seq();
        if self.metrics.done_at.is_none()
            && self.next_plan_idx >= self.params.plan.len()
            && self.api_queue.is_empty()
            && calls > 0
            && self.results.len() as u64 >= calls
        {
            self.metrics.done_at = Some(now);
            ctx.note("client workload complete");
        }
    }

    /// The coordinator registered everything up to `coord_max`: the log
    /// marks it acknowledged, and its send stamps have no reader left (the replay scans
    /// above the mark, the refusal test reads `coord_max + 1` and beyond).
    /// Popped from the front — `split_off` would allocate a root per ack.
    fn ack_up_to(&mut self, coord_max: u64) {
        self.log.ack_up_to(coord_max);
        while self.sent_at.first_key_value().is_some_and(|(&seq, _)| seq <= coord_max) {
            self.sent_at.pop_first();
        }
    }

    /// Reconciles the coordinator boot epoch; returns false when the reply
    /// is a stale reordering (same epoch, lower high-water mark) whose sync
    /// content must be ignored.
    fn reconcile_epoch(&mut self, now: SimTime, epoch: u64, coord_max: u64) -> bool {
        let current = self.link.current().map(|c| (c, epoch));
        if self.coord_epoch != current {
            // A *different* incarnation than the one previously observed:
            // everything acknowledged is up for re-verification and the
            // in-flight bookkeeping addressed the old incarnation.  (The
            // very first contact is not a change — messages already in
            // flight to it are genuine.)
            if self.coord_epoch.is_some() {
                self.sent_at.clear();
                self.sent_hw = 0;
                self.frontier.forget_requests();
                // Re-announce every durably held result as collected: a
                // promoted successor (or a restarted primary whose last GC
                // predates our acks) may have missed the collection
                // acknowledgements, and without them it would queue the
                // delivered jobs for pointless re-execution.  Re-acking is
                // idempotent on the coordinator side.
                self.unacked_results = self.results.iter().map(|(seq, _)| seq).collect();
            }
            self.coord_epoch = current;
            self.acked_max = 0;
            // Catalog versions are meaningless across incarnations: start
            // from scratch (the frontier itself stays — seqs are
            // incarnation-independent identities).
            self.catalog_hw = 0;
            self.progress_at = now;
        }
        if coord_max < self.acked_max {
            return false; // stale reordered reply
        }
        if coord_max > self.acked_max {
            self.acked_max = coord_max;
            self.progress_at = now;
        }
        true
    }

    // One parameter per `ClientSyncReply` field: the signature *is* the
    // wire frame, destructured at the dispatch site.
    #[allow(clippy::too_many_arguments)]
    fn handle_sync_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        coord_max: u64,
        epoch: u64,
        catalog_base: u64,
        catalog_head: u64,
        available: Vec<(u64, u64)>,
        removed: Vec<u64>,
    ) {
        let now = ctx.now();
        self.link.heard(now, true);
        let prev_incarnation = self.coord_epoch;
        if !self.reconcile_epoch(now, epoch, coord_max) {
            return;
        }
        // Did *this very reply* rebase us onto a new coordinator
        // incarnation?  Then its catalog delta was computed against the
        // old incarnation's high-water mark and may silently omit history
        // below that mark — discard it; the next beat (carrying the reset
        // mark) fetches the full catalog.
        let rebased = prev_incarnation.is_some() && prev_incarnation != self.coord_epoch;
        let local_max = self.log.max_seq();
        if coord_max > local_max {
            // The coordinator knows submissions our (optimistic) log lost:
            // roll forward past them — their plan entries were submitted
            // with exactly these timestamps before the crash.
            self.log.fast_forward(coord_max);
            self.next_plan_idx = self.next_plan_idx.max(coord_max as usize);
        }
        // Ack first: the replay's backlog estimate reads the maintained
        // unacked counter, which is exact once the mark is applied.
        self.ack_up_to(coord_max);
        if coord_max < local_max {
            self.replay_missing(ctx, coord_max);
        }
        // Merge the catalog *delta* — O(changed), never a rescan, and
        // only if it is *contiguous*: its base must not be ahead of our
        // mark (`catalog_base <= catalog_hw`), else the span between the
        // mark and the base would be skipped forever — a duplicated or
        // reordered pre-rebase reply landing after the mark was reset is
        // exactly such a gapped delta.  A reply older than what we
        // already merged (`catalog_head < catalog_hw`) is skipped
        // wholesale: its additions are already here and replaying its
        // removals could undo a newer addition.
        if !rebased && catalog_base <= self.catalog_hw && catalog_head >= self.catalog_hw {
            let policy = self.retry_policy(ctx);
            for &(seq, size) in &available {
                if !self.results.contains(seq) {
                    self.frontier.announce(seq, size, policy);
                }
            }
            for &seq in &removed {
                self.frontier.remove(seq);
            }
            self.catalog_hw = catalog_head;
        }
        self.pull_missing(ctx, false);
    }

    /// Replays the log suffix the coordinator is missing (it failed over,
    /// lost state, or we reconnected after a partition) — but only entries
    /// that are not simply still in flight (the coordinator registers
    /// submissions asynchronously; re-sending them on every beat would
    /// multiply the transferred volume).  The retransmit horizon scales
    /// with the entry size: a 100 MB submission legitimately spends many
    /// seconds in NIC queues and the coordinator's database before
    /// registering.  The replay is windowed; each acknowledgement
    /// continues it without waiting for a heartbeat.
    fn replay_missing(&mut self, ctx: &mut Ctx<'_, Msg>, coord_max: u64) {
        let now = ctx.now();
        let policy = RetryPolicy::of(self.params.cfg.heartbeat, ctx.spec().nic_bw);
        // Registration can lag by the whole in-flight volume (NIC queues on
        // both sides plus the coordinator's database).  Entries never sent
        // to the *current* coordinator incarnation (an epoch change wiped
        // their in-flight marks) replay immediately; entries sent to this
        // incarnation replay only when both their own horizon passed AND
        // the acknowledged high-water mark has stalled longer than the
        // estimated drain of everything outstanding — otherwise a lagging
        // but live pipeline gets its queue doubled.
        let pending_bytes: u64 = if coord_max >= self.log.acked_hw() {
            // Callers ack before replaying, so the suffix after `coord_max`
            // is exactly the unacked set — a maintained O(1) counter.
            self.log.unacked_bytes()
        } else {
            self.log.entries_after(coord_max).map(|(_, e)| e.size).sum()
        };
        let stalled = now.since(self.progress_at) > policy.horizon(0, pending_bytes);
        let mut budget: i64 = 32 * 1024 * 1024;
        let mut specs = Vec::new();
        // Without a stall, an entry already sent to this incarnation is
        // never replayable — skip the whole contiguous sent prefix instead
        // of re-testing every in-flight entry on every acknowledgement.
        let scan_from = if stalled { coord_max } else { coord_max.max(self.sent_hw) };
        for (seq, e) in self.log.entries_after(scan_from) {
            if specs.len() >= 64 || budget < 0 {
                break;
            }
            let replayable = match self.sent_at.get(&seq) {
                Some(&sent) => stalled && now.since(sent) > policy.horizon(0, e.size),
                None => true,
            };
            if replayable {
                budget -= e.size as i64;
                specs.push(e.value.job(JobKey { client: self.params.key, seq }));
            }
        }
        if !specs.is_empty() {
            for spec in &specs {
                self.sent_at.insert(spec.key.seq, now);
                self.sent_hw = self.sent_hw.max(spec.key.seq);
            }
            self.metrics.log_replays += 1;
            // Reading the replayed entries back from the local log is one
            // sequential disk access (paper: "retrieves the logs list from
            // a local disc access").
            let bytes: u64 = specs.iter().map(|s| s.params.len() + 64).sum();
            let read_done = ctx.disk_read(bytes);
            if let Some(node) = self.coordinator(now) {
                ctx.send_at(read_done, node, Msg::SubmitBatch { specs });
            }
        }
    }

    /// Requests the next window of catalogued results we don't hold yet.
    ///
    /// The catalog covers collected-but-retained archives too, so a client
    /// that lost its disk recovers everything not yet garbage-collected.
    /// The re-request horizon is size-aware — a multi-megabyte archive
    /// legitimately spends transfer-time in flight — and backs off
    /// exponentially on top.  The pull is windowed (≤ 64 archives, ≤
    /// ~32 MB per request).
    ///
    /// A `continuation` is chained to a just-completed
    /// [`Msg::ResultsReply`] round trip, so the pacing floor does not
    /// apply — a windowed transfer must run at line rate, one request in
    /// flight at a time, or a backlogged client drains at 64 results per
    /// heartbeat and the collection tail dominates the whole run's
    /// makespan (identically at every shard count).
    fn pull_missing(&mut self, ctx: &mut Ctx<'_, Msg>, continuation: bool) {
        let now = ctx.now();
        // Pace the fresh pulls: without a floor on the request interval,
        // each freshly finished task triggers a full fetch round trip,
        // and at hundreds of outstanding calls the *coordinator* drowns
        // in list scans and archive fetches (its database is the shared
        // bottleneck — exactly why the paper prioritizes "its basic
        // forwarding functionality ... compared to other mechanisms").
        // A continuation rides an answered request, so it keeps exactly
        // one round trip in flight and skips the floor.
        let pacing = rpcv_simnet::SimDuration::from_millis(250).max(self.params.cfg.heartbeat / 8);
        if !continuation && self.last_pull.is_some_and(|last| now.since(last) < pacing) {
            return; // the next beat or reply re-triggers the pull
        }
        // O(window): the frontier is indexed by due time, so the (much
        // larger) set of requested seqs still inside their re-request
        // horizon is never walked.
        let want = self.frontier.window(now, self.retry_policy(ctx));
        if !want.is_empty() {
            debug_assert!(want.iter().all(|&s| !self.results.contains(s)), "held result pulled");
            self.last_pull = Some(now);
            if let Some(node) = self.coordinator(now) {
                ctx.send(node, Msg::ResultsRequest { client: self.params.key, want });
            }
        }
    }

    /// The re-request horizon parameters: size-aware — a multi-megabyte
    /// archive legitimately spends transfer-time in flight — on top of an
    /// exponential backoff from two heartbeats.
    fn retry_policy(&self, ctx: &Ctx<'_, Msg>) -> RetryPolicy {
        RetryPolicy::of(self.params.cfg.heartbeat, ctx.spec().nic_bw)
    }

    /// A received result's archive (for the API layer).
    pub fn result_archive(&self, seq: u64) -> Option<&Blob> {
        self.results.get(seq).map(|r| &r.archive)
    }

    /// The last telemetry snapshot received from `coord`, if any.
    pub fn telemetry_of(&self, coord: CoordId) -> Option<&TelemetrySnapshot> {
        self.snapshots.get(&coord)
    }

    /// Every telemetry snapshot held, keyed by coordinator id.
    pub fn telemetry_snapshots(&self) -> impl Iterator<Item = (CoordId, &TelemetrySnapshot)> {
        self.snapshots.iter().map(|(&c, s)| (c, s))
    }

    /// Highest status-request nonce a decoded [`Msg::StatusReply`]
    /// acknowledged (0 before the first reply).
    pub fn status_nonce(&self) -> u64 {
        self.status_nonce_hw
    }
}

impl Actor<Msg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Immediate beat (first contact doubles as synchronization), then
        // periodic; the first planned submission follows the beat.
        self.beat(ctx);
        ctx.set_timer(self.params.cfg.heartbeat, K_BEAT);
        self.submit_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::SubmitAck { job, coord_max, epoch } => {
                if job.client == self.params.key {
                    self.link.heard(ctx.now(), true);
                    if self.reconcile_epoch(ctx.now(), epoch, coord_max) {
                        self.ack_up_to(coord_max);
                        // A refusal: `job` reached the coordinator behind a
                        // hole (a frame lost, or overtaken within the link's
                        // jitter), so nothing we believed in flight above
                        // the mark is registered.  Forget those stamps: the
                        // replay below refills the hole now, not after a
                        // stall during which every later submission would
                        // be refused too.  Once, per hole: a refusal says
                        // the hole's copy is lost or late only if that copy
                        // left before the refused frame did — everything a
                        // refill re-sent shares one stamp, so the refusals
                        // still in flight behind the first one are spent.
                        let hole_sent = self.sent_at.get(&(coord_max + 1));
                        if coord_max < job.seq && hole_sent < self.sent_at.get(&job.seq) {
                            self.sent_at.split_off(&(coord_max + 1));
                            self.sent_hw = coord_max;
                        }
                        // Continuation replay: the acknowledged batch may
                        // have been one window of a longer resync.
                        if coord_max < self.log.max_seq() {
                            self.replay_missing(ctx, coord_max);
                        }
                    }
                }
            }
            Msg::ClientSyncReply {
                coord_max,
                epoch,
                catalog_base,
                catalog_head,
                available,
                removed,
            } => {
                self.handle_sync_reply(
                    ctx,
                    coord_max,
                    epoch,
                    catalog_base,
                    catalog_head,
                    available,
                    removed,
                );
            }
            Msg::ResultsReply { results } => {
                self.link.heard(ctx.now(), false);
                self.ingest_results(ctx, results);
                // Continuation pull: fetch the next window right away.
                self.pull_missing(ctx, true);
            }
            Msg::ApiSubmit { service, params, exec_cost, result_size, replication, work_units } => {
                self.api_queue.push_back(
                    CallSpec::new(service, params, exec_cost, result_size)
                        .with_replication(replication)
                        .with_work_units(work_units),
                );
                // Restart the pump only when no completion continuation is
                // pending; otherwise that continuation submits this call.
                if self.in_flight_submissions == 0 {
                    self.submit_next(ctx);
                }
            }
            Msg::StatusRequest { nonce } => {
                // Introspection trigger (injected by a harness or the API
                // layer): forward to the preferred coordinator, which
                // replies with its sealed snapshot addressed back here.
                if let Some(node) = self.coordinator(ctx.now()) {
                    ctx.send(node, Msg::StatusRequest { nonce });
                }
            }
            Msg::StatusReply { coord, nonce, sealed } => {
                self.link.heard(ctx.now(), false);
                // The seal (CRC-64 tail) plus the strict histogram decoder
                // reject anything corrupted in flight; a bad frame is
                // counted and dropped without touching the cache.
                match TelemetrySnapshot::open(&sealed.materialize()) {
                    Ok(snap) => {
                        self.snapshots.insert(coord, snap);
                        self.status_nonce_hw = self.status_nonce_hw.max(nonce);
                    }
                    Err(_) => self.metrics.bad_frames += 1,
                }
            }
            Msg::Corrupt { .. } => {
                // Unreadable bytes: count and drop.  No protocol state may
                // change off a frame that failed to decode.
                self.metrics.bad_frames += 1;
            }
            other => {
                // Unexpected message (e.g. stale reply from a demoted
                // coordinator): note and drop — the network is asynchronous.
                let _ = (from, other);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, id: TimerId, kind: u64) {
        match kind {
            K_BEAT => {
                self.beat(ctx);
                ctx.set_timer(self.params.cfg.heartbeat, K_BEAT);
            }
            K_SUBMIT => {
                if let Some((node, seq)) = self.submitting.remove(&id) {
                    let comm_end = ctx.send(node, self.submission(seq));
                    self.finish_submission(ctx, seq, comm_end);
                }
            }
            K_NEXT => self.submit_next(ctx),
            _ => {}
        }
    }

    fn on_crash(self: Box<Self>, now: SimTime) -> DurableImage {
        let ClientActor { mut log, mut results, metrics, .. } = *self;
        log.survive_crash(now);
        results.retain(|_, r| r.durable_at <= now);
        DurableImage::of(ClientDurable { log, results, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn client_row_layouts_are_pinned() {
        // The client's twin of the store's `row_layouts_are_pinned`: one
        // log row per call it ever made and one result row per result it
        // holds, neither collected yet — a new field is a decision.
        type LogRow = rpcv_log::SenderEntry<CallSpec>;
        assert!(size_of::<LogRow>() <= 88, "log row: {}", size_of::<LogRow>());
        assert!(size_of::<ResultRec>() <= 32, "result row: {}", size_of::<ResultRec>());
        // A vacant window slot costs the row's bytes and nothing more.
        assert_eq!(size_of::<Option<LogRow>>(), size_of::<LogRow>());
        assert_eq!(size_of::<Option<ResultRec>>(), size_of::<ResultRec>());
    }
}
