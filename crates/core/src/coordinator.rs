//! The RPC-V coordinator actor (the middle tier).
//!
//! The coordinator virtualizes the grid for clients (they never talk to
//! servers), schedules tasks FCFS, suspects servers via heartbeat
//! timeouts, and passively replicates its state to its successor on the
//! virtual ring (paper §4.2).  It never initiates contact with clients or
//! servers — every client/server-facing message here is a *reply*, possibly
//! deferred until the database operation backing it completed (which is
//! how database cost shows up in every latency the paper measures).

use std::collections::{BTreeMap, BTreeSet};

use rpcv_detect::{CoordinatorList, HeartbeatMonitor};
use rpcv_obs::{Histogram, SpanBook, SpanEdge, TelemetrySnapshot};
use rpcv_simnet::{Actor, Ctx, DurableImage, NodeId, SimTime, TimerId, WireSized};
use rpcv_store::{Applied, Charge, CoordinatorDb, ReplicationDelta};
use rpcv_wire::WireEncode;
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId};

use crate::config::ProtocolConfig;
use crate::msg::{Msg, RpcResult};
use crate::util::{Deferred, Directory};

const K_SCAN: u64 = 1;
const K_REPL: u64 = 2;
const K_SEND: u64 = 3;

/// One replication round's observations (drives Fig. 5).
#[derive(Debug, Clone, Copy)]
pub struct ReplRound {
    /// Successor targeted.
    pub to: CoordId,
    /// Round start (delta built and handed to the network).
    pub started: SimTime,
    /// Acknowledgement arrival.
    pub acked_at: Option<SimTime>,
    /// Delta rows carried (jobs, tasks, marks, collection acks, checkpoints;
    /// a from-zero round leads with the retired watermarks).
    pub records: u64,
    /// Modelled bytes transferred.
    pub bytes: u64,
}

rpcv_simnet::counters! {
    /// Coordinator-side observations.
    #[derive(Debug, Clone, Default)]
    pub struct CoordMetrics {
        /// Client sync replies sent (one per handled beat).
        pub sync_replies,
        /// Total wire bytes of the catalog delta portions (available +
        /// removed) across all sync replies — divide by `sync_replies` for the
        /// per-beat catalog cost the scale bench watches.
        pub catalog_bytes,
        /// Server suspicions raised.
        pub server_suspicions,
        /// Coordinator (predecessor) suspicions raised.
        pub coordinator_suspicions,
        /// Jobs re-executed because their archive was unrecoverable.
        pub reexecutions,
        /// Collection acknowledgements learned through replication deltas —
        /// jobs this coordinator, once promoted, will neither re-execute nor
        /// re-acquire because the old primary's client already collected them.
        pub collected_marks_applied,
        /// Checkpoint uploads recorded (the mark advanced and is durable).
        pub ckpt_records,
        /// Checkpoint uploads rejected for a digest/range failure — counted,
        /// never silently dropped.
        pub ckpt_rejected,
        /// Assignments dispatched with a resume point attached.
        pub resumes_dispatched,
        /// Assignments of a task another coordinator minted (learned through
        /// replication and relayed from here): the work its server will carry
        /// home.  Zero on a grid whose servers and clients share a coordinator.
        pub relayed_dispatches,
        /// Frames that arrived unreadable (wire corruption) and were dropped
        /// without touching protocol state.
        pub bad_frames,
        /// Rounds that had to start over from zero: the successor's acked
        /// base was below the retention floor (it fell behind, was written
        /// off, or asked for a reseed after losing its disk).
        pub snapshots_sent,
        /// Live-introspection requests answered with a sealed snapshot.
        pub status_replies,
        /// Writes issued to the archive store (result archives, checkpoint
        /// blobs, replicated archive rows — every [`Charge`] with disk bytes).
        pub archive_writes,
        /// Disk ops those writes opened.  The archive store is a single-writer
        /// segment log whose disk group-commits, so under backlog this grows
        /// with ops, not archives: `archive_writes / archive_write_ops` is the
        /// batching factor (1 on an idle disk).
        pub archive_write_ops,
    }
    + {
        /// Replication rounds in start order.
        pub repl_rounds: Vec<ReplRound>,
        /// Completed-task count over time: `(time, total-finished)` staircase,
        /// the series Figs. 9–11 plot.
        pub completion_timeline: Vec<(SimTime, u64)>,
        /// Issue → return of each archive write: what a deferred reply (e.g.
        /// `TaskDoneAck`) waited on the disk for.
        pub archive_write_wait: Histogram,
    }
}

impl CoordMetrics {
    /// Pours the counters and the series derived from the round log into
    /// `reg` under `coord.`.
    fn fold_into(&self, reg: &mut TelemetrySnapshot) {
        let rounds = &self.repl_rounds;
        let derived = [
            ("repl_rounds", rounds.len() as u64),
            ("repl_bytes", rounds.iter().map(|r| r.bytes).sum()),
            ("repl_records", rounds.iter().map(|r| r.records).sum()),
        ];
        reg.add_counters("coord", self.counters().chain(derived));
        let h = reg.hist_mut("coord.repl_ack_latency");
        for r in rounds {
            if let Some(acked) = r.acked_at {
                h.record_gap(acked.since(r.started));
            }
        }
        reg.hist_mut("coord.archive_write_wait").merge(&self.archive_write_wait);
    }
}

/// One watched missing archive: a job this coordinator knows finished
/// whose archive it neither holds nor knows delivered.
#[derive(Debug)]
struct Missing {
    /// First noticed; the re-execution horizon counts from here.
    since: SimTime,
    /// Overdue, but its client is *not* served here (no traffic from it
    /// yet): a replica must not re-execute work the live primary is already
    /// recovering — delivery is the primary's job until the client's
    /// traffic actually lands here.  A parked entry keeps its stamp and
    /// re-arms the moment the client's first message arrives (failover),
    /// so promotion pays no fresh horizon.
    parked: bool,
}

/// State surviving a coordinator crash: the database (MySQL + archive
/// filesystem are durable); volatile suspicion state is rebuilt.
struct CoordDurable {
    db: CoordinatorDb,
    acked_version: BTreeMap<CoordId, u64>,
    applied_head: BTreeMap<CoordId, u64>,
    metrics: CoordMetrics,
    spans: SpanBook,
}

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct CoordParams {
    /// Identity.
    pub me: CoordId,
    /// Protocol configuration.
    pub cfg: ProtocolConfig,
    /// Coordinator directory (the ring membership).
    pub directory: Directory,
}

/// The coordinator state machine.
pub struct CoordinatorActor {
    params: CoordParams,
    db: CoordinatorDb,
    /// This coordinator's shard index in the directory (0 on a flat map).
    /// The replication ring, successor choice, and release scope below are
    /// all restricted to this shard's group — shards never exchange state.
    my_shard: usize,
    coords: CoordinatorList<CoordId>,
    server_mon: HeartbeatMonitor<ServerId>,
    /// Last delta received per peer coordinator (predecessor liveness).
    peer_mon: HeartbeatMonitor<CoordId>,
    /// Clients whose traffic lands here (replies go to the sender of the
    /// message at hand, so no address is kept).
    clients: BTreeSet<ClientKey>,
    /// Per-successor acknowledged replication version.
    acked_version: BTreeMap<CoordId, u64>,
    /// Highest delta head applied *from* each predecessor (the peer's own
    /// version space).  A delta whose `base_version` is ahead of this has
    /// a gap — rows the sender pruned believing we held them — and must
    /// not be applied; we ask to be reseeded from zero instead.
    applied_head: BTreeMap<CoordId, u64>,
    /// Outstanding replication round: `(successor, head, started)`.
    inflight_repl: Option<(CoordId, u64, SimTime)>,
    /// Missing-archive watch list, mirroring the database's missing set:
    /// created by [`Self::watch_missing`], destroyed by [`Self::settle`].
    missing: BTreeMap<JobKey, Missing>,
    /// The un-parked entries of `missing` in stamp order, so the periodic
    /// scan reads only entries whose re-execution horizon could have passed
    /// instead of filtering the whole watch list every heartbeat.
    missing_order: BTreeSet<(SimTime, JobKey)>,
    /// Origins already released after predecessor suspicion.
    released: BTreeSet<CoordId>,
    deferred: Deferred,
    /// Boot epoch: regenerated on every (re)start so clients can tell
    /// state-losing restarts from reordered stale replies.
    epoch: u64,
    /// Public observations.
    pub metrics: CoordMetrics,
    /// Received-message counts by kind (observability; catching traffic
    /// amplification bugs like unbounded heartbeat chains).
    pub rx_counts: BTreeMap<&'static str, u64>,
    /// Per-job lifecycle spans (durable with the database: spans survive a
    /// crash exactly as far as the state they describe does).
    spans: SpanBook,
    /// Virtual instant of the latest handled event — gives harness-invoked
    /// methods (e.g. [`Self::gc_now`]) a clock without a `Ctx`.
    clock: SimTime,
}

impl CoordinatorActor {
    /// Actor factory for `World::install`.
    pub fn factory(
        params: CoordParams,
    ) -> impl FnMut(DurableImage) -> Box<dyn Actor<Msg> + Send> + Send + 'static {
        move |image| {
            let mut actor = CoordinatorActor::fresh(params.clone());
            if let Some(d) = image.take::<CoordDurable>() {
                actor.db = d.db;
                actor.acked_version = d.acked_version;
                actor.applied_head = d.applied_head;
                actor.metrics = d.metrics;
                actor.spans = d.spans;
            }
            Box::new(actor)
        }
    }

    fn fresh(params: CoordParams) -> Self {
        // The ring is shard-local: each shard's group replicates among
        // itself only, with its own successor chain, delta feed and
        // retention floor.  On a flat (1-shard) directory the
        // group is the whole plane — the historical ring, unchanged.
        let my_shard = params
            .directory
            .shard_of_coord(params.me)
            .expect("the directory lists this coordinator");
        let ring = params.directory.group(my_shard).iter().copied();
        let coords = CoordinatorList::new(ring.filter(|&c| c != params.me), params.cfg.coord_retry);
        let db = CoordinatorDb::new(params.me);
        let suspicion = params.cfg.suspicion;
        // Coordinator-to-coordinator traffic only flows at the replication
        // period; a peer is healthy as long as deltas keep arriving at
        // that cadence, so the suspicion horizon must scale with it.
        let peer_suspicion = suspicion.max(params.cfg.replication_period * 3);
        CoordinatorActor {
            db,
            my_shard,
            coords,
            server_mon: HeartbeatMonitor::new(suspicion),
            peer_mon: HeartbeatMonitor::new(peer_suspicion),
            params,
            clients: BTreeSet::new(),
            acked_version: BTreeMap::new(),
            applied_head: BTreeMap::new(),
            inflight_repl: None,
            missing: BTreeMap::new(),
            missing_order: BTreeSet::new(),
            released: BTreeSet::new(),
            deferred: Deferred::new(),
            epoch: 0,
            metrics: CoordMetrics::default(),
            rx_counts: BTreeMap::new(),
            spans: SpanBook::new(),
            clock: SimTime::ZERO,
        }
    }

    /// The shard this coordinator's group serves (0 on a 1-shard plane).
    pub fn shard(&self) -> usize {
        self.my_shard
    }

    /// Records that `client`'s traffic lands here.  On first contact any
    /// parked missing-archive watches for their jobs re-arm — this
    /// coordinator now serves them, so their unrecovered work enters the
    /// re-execution pipeline with its original stamps (a failover pays no
    /// fresh horizon).
    fn greet_client(&mut self, client: ClientKey) {
        // Which group owns a client is the directory's decision, read by
        // the client from the same list: it addresses no other group.
        debug_assert_eq!(self.params.directory.shard_of(client), self.my_shard);
        if !self.clients.insert(client) {
            return;
        }
        let lo = JobKey { client, seq: 0 };
        let hi = JobKey { client, seq: u64::MAX };
        for (job, m) in self.missing.range_mut(lo..=hi) {
            if std::mem::take(&mut m.parked) {
                self.missing_order.insert((m.since, *job));
            }
        }
    }

    /// How many leading entries of `specs` — one client's submissions in
    /// seq order — extend its contiguous registration `1..=client_max`
    /// (duplicates below the mark count: re-registering is idempotent).
    /// A hole ends the prefix: links lose frames, and registering past the
    /// hole would let the high-water acknowledgement (`coord_max`) talk
    /// the client into dropping the missing entries from its log.  The
    /// caller registers the prefix only; its ack reports the true
    /// contiguous mark and the client's replay refills the hole in order.
    fn contiguous_prefix(&self, client: ClientKey, specs: &[JobSpec]) -> usize {
        let mut next = self.db.client_max(client) + 1;
        let extends = |s: &&JobSpec| {
            let ok = s.key.seq <= next;
            next = next.max(s.key.seq + 1);
            ok
        };
        specs.iter().take_while(extends).count()
    }

    /// Acknowledges a submission frame once its registration landed.
    fn ack_submission(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, job: JobKey, done: SimTime) {
        let coord_max = self.db.client_max(job.client);
        let ack = Msg::SubmitAck { job, coord_max, epoch: self.epoch };
        self.deferred.send_at(ctx, done, to, ack, K_SEND, 0);
    }

    /// Per-entity records resident here outside the database: they follow
    /// the recoveries in flight, not the jobs this coordinator ever saw.
    #[doc(hidden)]
    pub fn resident_records(&self) -> usize {
        self.missing.len() + self.missing_order.len()
    }

    /// Read access to the database (harness inspection).
    pub fn db(&self) -> &CoordinatorDb {
        &self.db
    }

    /// Explicitly triggered garbage collection (paper §4.2: the GC "can be
    /// triggered locally according to some conditions, or explicitly by
    /// the user").  Drops archives the client confirmed collecting;
    /// returns bytes freed.
    pub fn gc_now(&mut self) -> u64 {
        let flagged = self.db.collected_flagged();
        let (freed, _charge) = self.db.gc_collected();
        for job in flagged {
            self.spans.mark(job, SpanEdge::Gc, self.clock);
        }
        freed
    }

    /// The per-job lifecycle span book (harness inspection).
    pub fn spans(&self) -> &SpanBook {
        &self.spans
    }

    /// This coordinator's full telemetry as a deterministic snapshot: the
    /// typed metrics structs' counters under `coord.` / `db.`,
    /// received-message counts under `rx.`, and every job span folded into
    /// per-edge latency histograms under `span.`.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut reg = TelemetrySnapshot::new();
        self.metrics.fold_into(&mut reg);
        reg.add_counters("db", self.db.stats().counters());
        reg.set_gauge("db.resident_rows", self.db.resident_rows() as i64);
        reg.set_gauge("coord.shard", self.my_shard as i64);
        reg.add_counters("rx", self.rx_counts.iter().map(|(kind, n)| (*kind, *n)));
        self.spans.fold_into(&mut reg);
        reg
    }

    /// Charges a storage [`Charge`] to this node's resources; returns when
    /// everything lands.  Disk bytes are one append to the archive store's
    /// segment log: the write rides whatever op the disk's group-commit
    /// queue puts it in, and the caller's reply is deferred to *this*
    /// write's return — never to an earlier member of its batch.
    fn pay(&mut self, ctx: &mut Ctx<'_, Msg>, charge: Charge) -> SimTime {
        let db_done = ctx.db(charge.db_ops, charge.db_bytes);
        if charge.disk_bytes == 0 {
            return db_done;
        }
        let ops_before = ctx.disk_mut().ops();
        let disk = ctx.disk_write(charge.disk_bytes, false);
        self.metrics.archive_writes += 1;
        self.metrics.archive_write_ops += ctx.disk_mut().ops() - ops_before;
        self.metrics.archive_write_wait.record_gap(disk.returned_at.since(ctx.now()));
        db_done.max(disk.returned_at)
    }

    /// Reads `jobs`' archives back from the store and sends them to `to`
    /// once fetched: 2 db ops per archive (index + row) after one for the
    /// request, plus the payload read from the archive filesystem.  Jobs
    /// without a stored archive are skipped.
    fn serve_archives(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        to: NodeId,
        jobs: impl Iterator<Item = JobKey>,
        reply: impl FnOnce(Vec<RpcResult>) -> Option<Msg>,
    ) {
        let mut results = Vec::new();
        let mut payload = 0;
        for job in jobs {
            if let Some(blob) = self.db.archive(&job) {
                payload += blob.len();
                results.push(RpcResult { job, archive: blob.clone() });
            }
        }
        let ops = 1 + 2 * results.len() as u64;
        let Some(msg) = reply(results) else { return };
        let done = ctx.db(ops, 0).max(ctx.disk_read(payload));
        self.deferred.send_at(ctx, done, to, msg, K_SEND, 0);
    }

    fn record_completion(&mut self, now: SimTime) {
        let finished = self.db.finished_count();
        self.metrics.completion_timeline.push((now, finished));
    }

    /// Stamps `job` as missing-since-`now` unless already watched (parked
    /// or not — an entry keeps its older stamp).
    fn watch_missing(&mut self, job: JobKey, now: SimTime) {
        if let std::collections::btree_map::Entry::Vacant(e) = self.missing.entry(job) {
            e.insert(Missing { since: now, parked: false });
            self.missing_order.insert((now, job));
        }
    }

    /// `job` leaves the watch list for good: its archive was recovered, its
    /// result delivered, or its re-execution is about to be queued.
    fn settle(&mut self, job: &JobKey) {
        if let Some(m) = self.missing.remove(job) {
            self.missing_order.remove(&(m.since, *job));
        }
    }

    /// Full resync of the watch list against the database's missing set
    /// (startup, where the restored database may hold entries that predate
    /// this incarnation's journal): O(missing), never a finished-jobs scan.
    fn refresh_missing(&mut self, now: SimTime) {
        let _ = self.db.drain_missing_added();
        let jobs: Vec<JobKey> = self.db.missing_archives_iter().collect();
        for job in jobs {
            self.watch_missing(job, now);
        }
    }

    /// Incremental refresh from the database's addition journal: O(newly
    /// missing) per applied delta instead of O(missing).
    fn refresh_missing_new(&mut self, now: SimTime) {
        for job in self.db.drain_missing_added() {
            // A key can leave the missing set again within the same delta
            // (a later collected row); stamping it would strand a stale
            // watch entry until its horizon fires a refused re-execution.
            if self.db.is_missing_archive(&job) {
                self.watch_missing(job, now);
            }
        }
    }

    fn handle_server_beat(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        server: ServerId,
        want_work: u32,
        running: Vec<rpcv_xw::TaskId>,
        offered: Vec<JobKey>,
    ) {
        let now = ctx.now();
        self.server_mon.observe(server, now);
        // Intermittent-crash reconciliation: tasks this server should be
        // running but does not report were lost in a restart too quick for
        // the suspicion timeout.  The grace period covers assignments
        // still in flight (their dispatch stamp counts from the moment the
        // Assign actually left).
        let grace = (self.params.cfg.heartbeat * 3).max(self.params.cfg.suspicion);
        let (_lost, charge) = self.db.reconcile_server(server, &running, now, grace);
        if charge.db_ops > 1 {
            self.pay(ctx, charge);
        }
        let mut replied = false;
        // Peer-wise comparison: of the offered archives, which do we lack?
        // (`wants_archive` also rules out `Collected` jobs — a delivered
        // and reclaimed result must not be re-acquired.)  Offers that are
        // settled — archive already stored here, or the client durably
        // collected the result — are acknowledged explicitly: the server's
        // only other ack path is the archive request we will never send,
        // so staying silent would strand its log entry (re-offered forever,
        // never GC-eligible).  Offers for jobs unknown here stay pending:
        // replication may still teach us we need them.
        if !offered.is_empty() {
            let mut needed = Vec::new();
            let mut settled = Vec::new();
            for job in offered {
                if self.db.wants_archive(&job) {
                    needed.push(job);
                } else if self.db.has_collected_knowledge(&job) || self.db.archive(&job).is_some() {
                    settled.push(job);
                }
            }
            // Both halves of the verdict leave in a single frame: one
            // datagram (header + transfer) instead of two back-to-back
            // sends to the same server.  The receiver unpacks the parts
            // in order, so behaviour matches the separate sends exactly.
            let mut parts = Vec::new();
            if !needed.is_empty() {
                parts.push(Msg::NeedArchives { jobs: needed });
            }
            if !settled.is_empty() {
                parts.push(Msg::ArchivesSettled { jobs: settled });
            }
            if parts.len() > 1 {
                ctx.send(from, Msg::Batch { parts });
                replied = true;
            } else if let Some(only) = parts.pop() {
                ctx.send(from, only);
                replied = true;
            }
        }
        // Work assignment (pull model).
        for _ in 0..want_work {
            let (task, charge) = self.db.next_pending(server, now);
            let done = self.pay(ctx, charge);
            match task {
                Some(desc) => {
                    // Span: first dispatch stamps the edge; a re-instance
                    // dispatch (attempts are 0-based) resolves the pending
                    // failover annotation instead (the mark dedups, the
                    // note no-ops when no failover is outstanding).
                    self.spans.mark(desc.job, SpanEdge::Dispatched, now);
                    if desc.attempt > 0 {
                        self.spans.note_recovered(desc.job, now);
                    }
                    if desc.id.coord() != self.params.me {
                        self.metrics.relayed_dispatches += 1;
                    }
                    // A durable checkpoint for the job rides along: the
                    // (successor) instance resumes from the recorded unit
                    // high-water mark instead of unit zero.  Reading the
                    // state blob back is one archive-filesystem access.
                    let resume = self.db.resume_point(&desc.job).map(|(unit_hw, blob)| {
                        crate::msg::ResumeFrom { unit_hw, blob: blob.clone() }
                    });
                    let done = match &resume {
                        Some(r) => {
                            self.metrics.resumes_dispatched += 1;
                            done.max(ctx.disk_read(r.blob.len()))
                        }
                        None => done,
                    };
                    // The assignment leaves once the database write lands;
                    // the reconciliation grace must count from then.
                    self.db.restamp_ongoing(desc.id, done);
                    self.deferred.send_at(
                        ctx,
                        done,
                        from,
                        Msg::Assign { task: desc, resume },
                        K_SEND,
                        0,
                    );
                    replied = true;
                }
                None => break,
            }
        }
        if !replied {
            ctx.send(from, Msg::NoWork);
        }
    }

    fn handle_task_done(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        server: ServerId,
        task: rpcv_xw::TaskId,
        job: JobKey,
        archive: rpcv_wire::Blob,
    ) {
        let now = ctx.now();
        self.server_mon.observe(server, now);
        let (_outcome, charge) = self.db.complete_task(task, job, archive, server);
        let done = self.pay(ctx, charge);
        self.settle(&job);
        self.spans.mark(job, SpanEdge::Finished, now);
        if self.db.archive(&job).is_some() {
            self.spans.mark(job, SpanEdge::ArchiveStored, now);
        }
        self.record_completion(now);
        self.deferred.send_at(ctx, done, from, Msg::TaskDoneAck { task, job }, K_SEND, 0);
    }

    fn handle_ckpt_offer(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        server: ServerId,
        frame: rpcv_ckpt::CheckpointFrame,
    ) {
        let now = ctx.now();
        self.server_mon.observe(server, now);
        // Integrity gate (shared digest discipline with result archives):
        // a frame whose digest or unit range fails verification is
        // rejected with the typed error — counted, logged, never recorded
        // and never silently dropped.
        if let Err(e) = frame.verify() {
            ctx.note(format!("checkpoint rejected: {e}"));
            self.metrics.ckpt_rejected += 1;
            return;
        }
        // The frame's own `units_total` is uploader-declared; the
        // *registered* job is the authority.  A frame that disagrees with
        // it — or claims completion-level progress — is an over-claim from
        // a weakly controlled node, not a resume point.
        if let Some(units) = self.db.job_work_units(&frame.job) {
            if frame.units_total != units || frame.unit_hw >= units {
                ctx.note("checkpoint rejected: progress out of range for the registered job");
                self.metrics.ckpt_rejected += 1;
                return;
            }
        }
        let (advanced, charge) = self.db.record_checkpoint(frame.job, frame.unit_hw, frame.blob);
        let done = self.pay(ctx, charge);
        if advanced {
            self.metrics.ckpt_records += 1;
            // First durable progress mark stamps the first-unit edge; every
            // advancing upload stamps a (repeatable) checkpointed edge.
            self.spans.mark(frame.job, SpanEdge::FirstUnit, now);
            self.spans.mark(frame.job, SpanEdge::Checkpointed, now);
        }
        // Acknowledge only marks we actually hold durably (even when this
        // upload did not advance one — the server may be retrying after a
        // lost ack and needs the high-water mark to stop re-offering).  No
        // row means nothing to acknowledge: claiming durability for an
        // unknown job (a promoted successor ahead of its replication
        // delta) would permanently suppress the server's re-offer of a
        // mark nobody holds; staying silent lets the retry horizon land it
        // once the delta teaches us the job.
        let Some(hw) = self.db.ckpt_high_water(&frame.job) else {
            ctx.note("checkpoint offer held: job unknown here (awaiting replication)");
            return;
        };
        self.deferred.send_at(
            ctx,
            done,
            from,
            Msg::CkptAck { task: frame.task, job: frame.job, unit_hw: hw },
            K_SEND,
            0,
        );
    }

    fn handle_client_beat(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        client: ClientKey,
        collected: Vec<u64>,
        catalog_seq: u64,
    ) {
        self.greet_client(client);
        let mut charge = Charge::ZERO;
        if !collected.is_empty() {
            let now = ctx.now();
            for &seq in &collected {
                let job = JobKey { client, seq };
                self.spans.mark(job, SpanEdge::Collected, now);
                // Delivered: nothing is left to recover, whatever this
                // coordinator had noticed missing before the client spoke.
                self.settle(&job);
            }
            charge += self.db.mark_collected(client, &collected);
        }
        // The beat acknowledges everything up to `catalog_seq`: removal
        // tombstones at or below it have served their single consumer and
        // are dropped, keeping the catalog index bounded by live entries
        // plus the un-acked window.
        let pruned = self.db.prune_catalog_acked(client, catalog_seq);
        if pruned > 0 {
            charge += Charge::ops(1 + pruned / 4);
        }
        let coord_max = self.db.client_max(client);
        // The catalog *delta* since the client's high-water mark: a range
        // read over the per-client catalog change index, so a steady-state
        // beat pays for the results that actually changed, never for the
        // client's whole backlog.  The per-archive *fetch* in
        // `serve_archives` still pays per row — that asymmetry
        // plus the extra round trip is Fig. 6's "additional overhead" of
        // coordinator-side logs.
        let delta = self.db.results_catalog_since(client, catalog_seq);
        let changed = (delta.added.len() + delta.removed.len()) as u64;
        charge += Charge::ops(1 + changed / 4);
        let done = self.pay(ctx, charge);
        let epoch = self.epoch;
        self.metrics.sync_replies += 1;
        self.metrics.catalog_bytes += delta.added.encoded_len() + delta.removed.encoded_len();
        self.deferred.send_at(
            ctx,
            done,
            from,
            Msg::ClientSyncReply {
                coord_max,
                epoch,
                catalog_base: catalog_seq,
                catalog_head: delta.head,
                available: delta.added,
                removed: delta.removed,
            },
            K_SEND,
            0,
        );
    }

    /// The tail of applying a feed from `peer` (head `head` in the peer's
    /// version space): jobs the frame taught us were delivered — by a
    /// collection ack or under a retired watermark — leave the
    /// missing-archive watch list for good (delivered work must not sit in
    /// the re-execution pipeline), the applied head moves, the store's
    /// charge is paid, and the head is acknowledged once the write lands.
    fn finish_apply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        peer: CoordId,
        head: u64,
        applied: Applied,
    ) {
        for job in &applied.newly_collected {
            self.settle(job);
        }
        self.metrics.collected_marks_applied += applied.newly_collected.len() as u64;
        let e = self.applied_head.entry(peer).or_insert(0);
        *e = (*e).max(head);
        let done = self.pay(ctx, applied.charge);
        self.refresh_missing_new(ctx.now());
        self.record_completion(ctx.now());
        let ack = Msg::ReplAck { from: self.params.me, head_version: head };
        self.deferred.send_at(ctx, done, from, ack, K_SEND, 0);
    }

    fn handle_repl_delta(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        delta: ReplicationDelta,
        want_archives: Vec<JobKey>,
    ) {
        let now = ctx.now();
        let peer = delta.from;
        self.peer_mon.observe(peer, now);
        self.coords.trust(peer);
        // A peer we had written off is alive again: future ongoing tasks of
        // its origin are held once more.
        self.released.remove(&peer);
        // Gap detection: the delta claims a base we never applied from this
        // peer (its retention pruned rows believing we held them — a stale
        // ack record after its failover, or we are a fresh joiner).
        // Applying it would silently skip history, so drop it unacked and
        // ask to be reseeded from zero.
        let applied = self.applied_head.get(&peer).copied().unwrap_or(0);
        if delta.base_version > applied {
            ctx.note("replication gap: requesting reseed");
            ctx.send(from, Msg::SnapshotRequest { from: self.params.me });
            return;
        }
        let head = delta.head_version;
        let applied = self.db.apply_delta_owned(delta);
        self.finish_apply(ctx, from, peer, head, applied);
        // Serve requested archives from our store (capped per round); a
        // round that finds none sends nothing.
        let me = self.params.me;
        self.serve_archives(ctx, from, want_archives.into_iter().take(64), |results| {
            (!results.is_empty()).then_some(Msg::ReplArchives { from: me, results })
        });
    }

    fn replicate(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        // Outstanding round unanswered for a suspicion period (scaled to
        // the replication cadence) ⇒ suspect the successor and recompute
        // the ring.
        let ack_horizon = self.params.cfg.suspicion.max(self.params.cfg.replication_period);
        if let Some((succ, _, started)) = self.inflight_repl {
            if now.since(started) > ack_horizon {
                ctx.note("coordinator suspects ring successor");
                self.coords.suspect(succ, now);
                // Its ack record is stale the moment it's suspected: if it
                // ever becomes our successor again, reseed it from zero
                // rather than assume it still holds everything it acked.
                self.acked_version.remove(&succ);
                self.inflight_repl = None;
            } else {
                return; // one round in flight at a time
            }
        }
        let Some(succ) = self.coords.successor_of(self.params.me, now) else {
            return;
        };
        let Some(node) = self.params.directory.node_of(succ) else { return };
        let base = self.acked_version.get(&succ).copied().unwrap_or(0);
        // The successor's own rows stay home: what it taught us it holds,
        // so the feed skips those entries straight off the change index.
        // A base retention pruned past cannot be tailed: the store serves
        // it from zero, complete, and the successor tails on from its head.
        let delta = self.db.feed_for(succ, base);
        if base < self.db.delta_floor() {
            self.metrics.snapshots_sent += 1;
            ctx.note("replication: successor base below retention floor; reseeding from zero");
        }
        // Building the delta reads every shipped row (and only those: the
        // version index makes this O(changed), not O(tables), and a
        // skipped entry is never looked up).
        let read_ops = 1 + delta.len() as u64;
        let records = delta.len() as u64;
        let done = ctx.db(read_ops, 0);
        let head = delta.head_version;
        self.inflight_repl = Some((succ, head, now));
        // Ask the peer for archives we know exist but do not hold.
        let want_archives: Vec<JobKey> = self.db.missing_archives_iter().take(64).collect();
        let msg = Msg::ReplDelta { delta, want_archives };
        // One encode-count serves both the transfer metric and the send.
        let bytes = msg.wire_size();
        self.metrics.repl_rounds.push(ReplRound {
            to: succ,
            started: now,
            acked_at: None,
            records,
            bytes,
        });
        self.deferred.send_at_sized(ctx, done, node, msg, bytes, K_SEND, 0);
    }

    fn scan(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        // Server suspicion ⇒ new instances of everything it was running.
        // `suspects` pops only expired deadlines off the monitor's heap
        // and returns without allocating in the common all-alive case.
        for s in self.server_mon.suspects(now) {
            ctx.note("coordinator suspects server");
            self.metrics.server_suspicions += 1;
            let (created, charge) = self.db.server_suspected(s);
            // Failover annotation: each re-queued job's span records the
            // true detection gap (silence observed at suspicion time —
            // bounded by the suspicion timeout plus one scan period) and
            // is stamped recovered when its replacement dispatches.
            let detect_gap = self
                .server_mon
                .last_seen(s)
                .map_or(self.params.cfg.suspicion, |seen| now.since(seen));
            for id in created {
                if let Some(row) = self.db.task(id) {
                    self.spans.note_failover(row.desc.job, now, detect_gap);
                }
            }
            self.pay(ctx, charge);
            self.server_mon.forget(s);
        }
        // Predecessor suspicion ⇒ release its held ongoing tasks.
        for peer in self.peer_mon.suspects(now) {
            if self.released.insert(peer) {
                ctx.note("coordinator suspects predecessor; releasing its tasks");
                self.metrics.coordinator_suspicions += 1;
                self.coords.suspect(peer, now);
                let (_created, charge) = self.db.release_origin(peer);
                self.pay(ctx, charge);
            }
        }
        // Retention: retire the delivered prefix whose rows the ring
        // successor has acknowledged.  With no successor there is nothing
        // to keep a feed complete for — any future joiner is bootstrapped
        // from zero — so everything delivered is prunable.
        let min_acked = match self.coords.successor_of(self.params.me, now) {
            Some(succ) => self.acked_version.get(&succ).copied().unwrap_or(0),
            None => u64::MAX,
        };
        let pruned = self.db.prune_retired(min_acked);
        if pruned > 0 {
            self.pay(ctx, Charge::ops(1 + pruned));
        }
        // Unrecoverable archives ⇒ at-least-once re-execution.  The
        // horizon must outlast the archive pull over the replication ring
        // (one round to ask, one to receive), else re-execution races the
        // recovery it is meant to back up.  The stamp-ordered mirror makes
        // this a prefix read of entries whose horizon passed — O(overdue),
        // not a filter over the whole watch list every heartbeat.
        if self.missing_order.is_empty() {
            return;
        }
        let reexec_horizon =
            self.params.cfg.missing_archive_timeout.max(self.params.cfg.replication_period * 3);
        let mut overdue: Vec<JobKey> = self
            .missing_order
            .iter()
            .take_while(|&&(since, _)| now.since(since) > reexec_horizon)
            .map(|&(_, j)| j)
            .collect();
        // Key order, exactly as the old whole-list filter produced it (the
        // re-execution order assigns task ids, so it must not change).
        overdue.sort_unstable();
        for job in overdue {
            if !self.clients.contains(&job.client) {
                // Not serving this job's client: the coordinator that is
                // owns recovery, and re-executing here would duplicate
                // work grid-wide every horizon.  Park the watch; it
                // re-arms (original stamp) when the client's traffic
                // lands here after a failover.
                if let Some(m) = self.missing.get_mut(&job) {
                    m.parked = true;
                    self.missing_order.remove(&(m.since, job));
                }
                continue;
            }
            self.settle(&job);
            let (created, charge) = self.db.reexecute_job(job);
            if created.is_some() {
                self.metrics.reexecutions += 1;
            }
            self.pay(ctx, charge);
        }
    }
}

impl Actor<Msg> for CoordinatorActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.clock = ctx.now();
        self.epoch = ctx.rng().next_u64() | 1;
        ctx.set_timer(self.params.cfg.heartbeat, K_SCAN);
        ctx.set_timer(self.params.cfg.replication_period, K_REPL);
        self.refresh_missing(ctx.now());
        // The dispatch index is durable, the monitor is not: a server this
        // coordinator forwarded work to before the crash may beat another
        // coordinator by now and never be heard here again.  Watching it
        // from the restart on keeps "suspect ⇒ re-instance everything
        // forwarded to it" true; one that still beats here is re-observed
        // within the timeout.
        for server in self.db.indexed_servers() {
            self.server_mon.observe(server, ctx.now());
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        self.clock = ctx.now();
        *self.rx_counts.entry(msg.kind()).or_insert(0) += 1;
        match msg {
            Msg::Submit { spec } => {
                self.greet_client(spec.key.client);
                let job = spec.key;
                let gap = self.contiguous_prefix(job.client, std::slice::from_ref(&spec)) == 0;
                let done = if gap {
                    ctx.now()
                } else {
                    self.spans.mark(job, SpanEdge::Submitted, ctx.now());
                    let (_new, charge) = self.db.register_job(spec);
                    self.pay(ctx, charge)
                };
                self.ack_submission(ctx, from, job, done);
            }
            Msg::SubmitBatch { mut specs } => {
                let Some(job) = specs.last().map(|s| s.key) else { return };
                self.greet_client(job.client);
                specs.truncate(self.contiguous_prefix(job.client, &specs));
                let done = if specs.is_empty() {
                    ctx.now()
                } else {
                    for spec in &specs {
                        self.spans.mark(spec.key, SpanEdge::Submitted, ctx.now());
                    }
                    let (_n, charge) = self.db.register_jobs_bulk(specs);
                    self.pay(ctx, charge)
                };
                self.ack_submission(ctx, from, job, done);
            }
            // (`max_seq` is unread: the client decides resend/fast-forward
            // from the `coord_max` of the reply.)
            Msg::ClientBeat { client, max_seq: _, collected, catalog_seq } => {
                self.handle_client_beat(ctx, from, client, collected, catalog_seq);
            }
            Msg::ResultsRequest { client, want } => {
                let jobs = want.into_iter().map(|seq| JobKey { client, seq });
                self.serve_archives(ctx, from, jobs, |results| Some(Msg::ResultsReply { results }));
            }
            Msg::ServerBeat { server, want_work, running, offered } => {
                self.handle_server_beat(ctx, from, server, want_work, running, offered);
            }
            Msg::TaskDone { server, task, job, archive } => {
                self.handle_task_done(ctx, from, server, task, job, archive);
            }
            Msg::CkptOffer { server, frame } => {
                self.handle_ckpt_offer(ctx, from, server, frame);
            }
            Msg::ReplDelta { delta, want_archives } => {
                self.handle_repl_delta(ctx, from, delta, want_archives)
            }
            Msg::ReplArchives { from: peer, results } => {
                self.peer_mon.observe(peer, ctx.now());
                let mut charge = Charge::ZERO;
                for r in results {
                    self.settle(&r.job);
                    self.spans.mark(r.job, SpanEdge::ArchiveStored, ctx.now());
                    charge += self.db.store_archive(r.job, r.archive);
                }
                self.pay(ctx, charge);
                self.record_completion(ctx.now());
            }
            Msg::ReplAck { from: peer, head_version } => {
                self.peer_mon.observe(peer, ctx.now());
                self.coords.trust(peer);
                let e = self.acked_version.entry(peer).or_insert(0);
                *e = (*e).max(head_version);
                if let Some((succ, head, started)) = self.inflight_repl {
                    if succ == peer && head_version >= head {
                        self.inflight_repl = None;
                        let acked_at = ctx.now();
                        if let Some(round) = self
                            .metrics
                            .repl_rounds
                            .iter_mut()
                            .rev()
                            .find(|r| r.to == peer && r.started == started)
                        {
                            round.acked_at = Some(acked_at);
                        }
                    }
                }
            }
            Msg::Batch { parts } => {
                for part in parts {
                    self.on_message(ctx, from, part);
                }
            }
            Msg::SnapshotRequest { from: peer } => {
                self.peer_mon.observe(peer, ctx.now());
                // Forget what we believed the requester held: the next
                // round to it starts from base 0, complete.
                self.acked_version.remove(&peer);
                if let Some((succ, _, _)) = self.inflight_repl {
                    if succ == peer {
                        self.inflight_repl = None;
                    }
                }
                self.replicate(ctx);
            }
            Msg::StatusRequest { nonce } => {
                // Live introspection: fill a snapshot, seal it (same
                // CRC-64 frame discipline as checkpoints), and reply.  Building the snapshot reads the stats tables
                // — charged as one indexed read.
                self.metrics.status_replies += 1;
                let snap = self.telemetry_snapshot();
                let sealed = rpcv_wire::Blob::from_vec(snap.seal());
                let done = ctx.db(1, 0);
                self.deferred.send_at(
                    ctx,
                    done,
                    from,
                    Msg::StatusReply { coord: self.params.me, nonce, sealed },
                    K_SEND,
                    0,
                );
            }
            Msg::Corrupt { .. } => {
                // Unreadable bytes: count and drop.  No protocol state may
                // change off a frame that failed to decode.
                self.metrics.bad_frames += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, id: TimerId, kind: u64) {
        self.clock = ctx.now();
        match kind {
            K_SCAN => {
                self.scan(ctx);
                ctx.set_timer(self.params.cfg.heartbeat, K_SCAN);
            }
            K_REPL => {
                self.replicate(ctx);
                ctx.set_timer(self.params.cfg.replication_period, K_REPL);
            }
            K_SEND => {
                let _ = self.deferred.fire(ctx, id);
            }
            _ => {}
        }
    }

    fn on_crash(self: Box<Self>, _now: SimTime) -> DurableImage {
        let CoordinatorActor { db, acked_version, applied_head, metrics, spans, .. } = *self;
        DurableImage::of(CoordDurable { db, acked_version, applied_head, metrics, spans })
    }
}
