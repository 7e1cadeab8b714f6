//! The RPC-V server actor (the XtremWeb worker).
//!
//! Pull model: the server initiates every interaction (connection-less,
//! §4.2) — heartbeats double as work requests and archive offers.  Results
//! are logged pessimistically ("The file archives built as the results of
//! the executions represents the server logs.  Thus the logging protocol
//! is necessarily pessimistic") and offered to coordinators until
//! acknowledged, which implements the peer-wise synchronization: after a
//! coordinator failover the new coordinator learns which finished results
//! it lacks and asks for exactly those.
//!
//! Off-line computing is native to the model: a server keeps executing
//! while disconnected and re-delivers when a coordinator becomes reachable
//! again ("The same server may disconnect the coordinator, continue the
//! execution and re-connect the coordinator later for sending RPC
//! results").
//!
//! EXTENSION (paper §6 future work): task checkpointing — running tasks
//! declare progress in work units, snapshot at a [`CheckpointPolicy`]'s
//! cadence (fixed, or adapted to this node's observed volatility), persist
//! locally *and* upload the snapshot to the coordinator as a
//! CRC-64-verified frame, so a successor instance on any server resumes
//! from the last durable unit instead of unit zero.
//!
//! [`CheckpointPolicy`]: rpcv_ckpt::CheckpointPolicy

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rpcv_ckpt::{CheckpointFrame, VolatilityObserver};
use rpcv_detect::CoordLink;
use rpcv_log::{GcPolicy, PeerLog};
use rpcv_simnet::{Actor, Ctx, DurableImage, NodeId, SimTime, TimerId};
use rpcv_wire::Blob;
use rpcv_xw::{
    CoordId, JobKey, SandboxLimits, ServerId, ServiceRegistry, TaskDesc, TaskId, WorkerExecutor,
};

use crate::config::ProtocolConfig;
use crate::frontier::RetryPolicy;
use crate::msg::Msg;
use crate::util::Directory;

const K_BEAT: u64 = 1;
const K_EXEC: u64 = 2;
const K_CKPT: u64 = 4;
/// One-shot beat (e.g. right after a completion): does NOT re-arm the
/// periodic schedule — re-arming from every nudge would multiply the
/// heartbeat chains without bound.
const K_NUDGE: u64 = 5;

rpcv_simnet::counters! {
    /// Server-side observations.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ServerMetrics {
        /// Tasks whose execution completed here.
        pub executed,
        /// Executions lost to crashes (no checkpoint).
        pub lost_executions,
        /// Executions resumed from a checkpoint after a restart.
        pub resumed,
        /// Archives re-sent from the local log during synchronization.
        pub archives_resent,
        /// Coordinator switches: moved on by suspicion.
        pub coordinator_switches,
        /// Re-homes: a finished relayed task attached this server to the
        /// coordinator that minted it (never a suspicion — kept apart from
        /// `coordinator_switches`).
        pub rehomes,
        /// Work units actually computed here: completions count the units each
        /// execution ran (total minus its resume bank), crashes count the
        /// partial progress thrown away.  `Σ units_spent − Σ job units` across
        /// the grid is exactly the wasted work the checkpoint bench reports.
        pub units_spent,
        /// Work units skipped thanks to a resume point (local or shipped by
        /// the coordinator with the assignment).
        pub units_resumed,
        /// Checkpoint frames uploaded to a coordinator.
        pub ckpt_uploads,
        /// Checkpoint uploads acknowledged as durable by a coordinator.
        pub ckpt_acks,
        /// Modelled checkpoint state bytes shipped (the byte budget the
        /// adaptive policy is judged against).
        pub ckpt_bytes,
        /// Frames that arrived unreadable (wire corruption) and were dropped
        /// without touching protocol state.
        pub bad_frames,
    }
}

/// A result retained in the server's (pessimistic) log until a coordinator
/// acknowledges it.
#[derive(Debug, Clone)]
struct StoredResult {
    task: TaskId,
    job: JobKey,
    archive: Blob,
    /// Its delivery record.  It rides the durable log with the archive but
    /// is reset when the log is restored: after a restart every surviving
    /// archive is eligible for (re)offer immediately.
    offer: Offer,
}

/// A running execution, progressing through declared work units.
#[derive(Debug, Clone)]
struct Exec {
    desc: TaskDesc,
    /// Units already banked by a resume point when this execution started.
    banked_units: u32,
    /// Seconds of simulated CPU per unit.
    secs_per_unit: f64,
    /// When the (remaining) execution started.
    started: SimTime,
    /// Result archive if the service really ran (a server built with services).
    real_archive: Option<Blob>,
    /// Unit mark of the locally durable snapshot (same-node resume after a
    /// restart); `None` until the first checkpoint tick.
    local_mark: Option<u32>,
    /// Unit mark the coordinator *acknowledged* as durable: the upload
    /// path offers only snapshots that moved past this, so a
    /// steady-interval snapshot of an idle-progress task costs nothing on
    /// the wire.  Zeroed on a coordinator switch — the successor may not
    /// have the predecessor's rows yet, and re-uploading is idempotent
    /// (monotone merge), exactly like the client's collected re-announce.
    acked_mark: u32,
    /// Upload in flight: `(mark, sent at)`.  Dedups re-sends while an
    /// acknowledgement is plausibly still travelling, but — unlike an
    /// optimistic "shipped" mark — an offer lost to a coordinator crash is
    /// retried once the horizon passes, even when the mark can no longer
    /// move (e.g. the last unit boundary of the task).
    in_flight: Option<(u32, SimTime)>,
}

impl Exec {
    /// Units completed by `now` (banked + elapsed whole units, capped).
    ///
    /// The 1 µs grace only absorbs the nanosecond rounding of the
    /// completion timer (so the K_EXEC instant credits its final unit) —
    /// it can never credit a whole unit of work that was not computed,
    /// which matters because these marks end up in checkpoint frames the
    /// coordinator treats as durable progress.
    fn progress_units(&self, now: SimTime) -> u32 {
        let elapsed = now.since(self.started).as_secs_f64() + 1e-6;
        let done = (elapsed / self.secs_per_unit.max(1e-12)) as u64;
        (self.banked_units as u64 + done).min(self.desc.units() as u64) as u32
    }
}

/// Delivery state of one unacknowledged result archive.
#[derive(Debug, Default, Clone, Copy)]
struct Offer {
    /// Times the archive left for a coordinator (0 = never sent).
    attempts: u32,
    /// The instant after which it may be (re)offered/(re)sent: the last
    /// send plus a size-aware, exponentially backed-off horizon, so a
    /// multi-second archive transfer is not re-sent on every beat
    /// (`SimTime::ZERO` for an archive never sent).
    eligible_at: SimTime,
}

/// The sender-log key of `job`'s archive.
fn log_key(job: &JobKey) -> (u64, u64) {
    (job.client.as_peer(), job.seq)
}

/// State that survives a server crash.
struct ServerDurable {
    plog: PeerLog<StoredResult>,
    /// The locally durable snapshot of the task that was running (the
    /// checkpoint extension), with its banked unit mark.
    checkpoint: Option<(TaskDesc, u32)>,
    metrics: ServerMetrics,
    volatility: VolatilityObserver,
    /// Each shard link's current coordinator: a restart resumes talking
    /// to it instead of re-attaching to the first-listed one.
    homes: Vec<Option<CoordId>>,
}

/// Construction parameters.
#[derive(Clone)]
pub struct ServerParams {
    /// Identity.
    pub id: ServerId,
    /// Protocol configuration.
    pub cfg: ProtocolConfig,
    /// Coordinator directory.
    pub directory: Directory,
    /// Stateless services this server can run.  With none, executions are
    /// simulated: the declared `exec_cost` is charged to the CPU and a
    /// result of the declared size synthesized (experiments).  With any, the
    /// named service is really invoked and its output is the result archive;
    /// the declared cost still shapes the task's timeline.
    pub registry: ServiceRegistry,
    /// Sandbox limits.
    pub limits: SandboxLimits,
}

/// The server state machine.
pub struct ServerActor {
    params: ServerParams,
    executor: WorkerExecutor,
    /// Per-shard coordinator links, indexed by shard: a server talks to
    /// every shard it holds work from, and each shard fails over
    /// independently — suspicion of one shard's primary must not re-target
    /// (or re-announce state to) the others.
    links: Vec<CoordLink<CoordId>>,
    /// Last beat sent per shard: a link quiet by *our* choice must re-arm
    /// its suspicion window before being judged again.
    last_sent: Vec<Option<SimTime>>,
    /// Rotating work-request target (a shard index): each beat asks
    /// exactly one shard for new work (over-asking every shard would
    /// systematically over-assign), advancing per request; servers start
    /// offset by id so an idle fleet spreads its pull pressure across all
    /// shards at once.
    work_shard: usize,
    /// Consecutive `NoWork` replies this rotation lap: an idle server
    /// immediately retries the next shard until one lap comes up empty,
    /// then waits for the periodic beat.
    nowork_streak: usize,
    plog: PeerLog<StoredResult>,
    /// The one task in execution (the paper's worker runs one at a time).
    running: Option<Exec>,
    /// Assignments accepted while a task runs (a beat/assignment
    /// race can over-assign; the worker queues and drains them rather than
    /// dropping work that the coordinator believes is ongoing here), each
    /// with the resume bank it arrived with.
    backlog: VecDeque<(TaskDesc, u32)>,
    /// The snapshot restored from the durable image, resumed (and taken) by
    /// `on_start`: a restart on the *same* node continues from its own
    /// checkpoint without waiting for the coordinator.
    restored: Option<(TaskDesc, u32)>,
    /// Tasks whose execution finished here but whose result delivery is
    /// not acknowledged yet.  Beats keep reporting them as running: a
    /// periodic beat in the durability/transfer window would otherwise
    /// show the task as gone and trigger a spurious reconcile
    /// re-execution of work that is already done.
    completing: BTreeMap<TaskId, JobKey>,
    /// Whether a checkpoint timer chain is live (one chain per server, not
    /// one per task start — the adaptive policy can pick short intervals).
    ckpt_armed: bool,
    /// This node's own crash history — drives the adaptive policy's
    /// interval (survives restarts via the durable image).
    volatility: VolatilityObserver,
    /// When this incarnation started (uptime accounting for volatility).
    boot_at: SimTime,
    /// Public observations.
    pub metrics: ServerMetrics,
}

impl ServerActor {
    /// Actor factory for `World::install`.
    pub fn factory(
        params: ServerParams,
    ) -> impl FnMut(DurableImage) -> Box<dyn Actor<Msg> + Send> + Send + 'static {
        move |image| {
            let mut actor = ServerActor::fresh(params.clone());
            if let Some(d) = image.take::<ServerDurable>() {
                actor.plog = d.plog;
                actor.restored = d.checkpoint;
                actor.metrics = d.metrics;
                actor.volatility = d.volatility;
                // Home is remembered, trust is not: the pick stays unjudged
                // (the quiet-link re-arm opens a fresh suspicion window at
                // the first beat) and ordinary suspicion moves the link on
                // if home died in the meantime.
                for (link, home) in actor.links.iter_mut().zip(d.homes) {
                    link.set_current(home);
                }
                for e in actor.plog.iter_unacked_mut() {
                    e.value.offer = Offer::default();
                }
            }
            Box::new(actor)
        }
    }

    fn fresh(params: ServerParams) -> Self {
        let shards = params.directory.shard_count();
        let links = (0..shards)
            .map(|s| CoordLink::new(params.directory.group(s).iter().copied()))
            .collect();
        let work_shard = (params.id.0 as usize) % shards;
        let executor = WorkerExecutor::new(params.registry.clone(), params.limits);
        ServerActor {
            params,
            executor,
            links,
            last_sent: vec![None; shards],
            work_shard,
            nowork_streak: 0,
            plog: PeerLog::new(GcPolicy::unbounded()),
            running: None,
            backlog: VecDeque::new(),
            restored: None,
            completing: BTreeMap::new(),
            ckpt_armed: false,
            volatility: VolatilityObserver::new(),
            boot_at: SimTime::ZERO,
            metrics: ServerMetrics::default(),
        }
    }

    /// Number of currently running tasks.
    pub fn running_count(&self) -> usize {
        usize::from(self.running.is_some())
    }

    /// Result archives retained in the log without a coordinator
    /// acknowledgement (harness inspection).
    pub fn unacked_results(&self) -> usize {
        self.plog.unacked_len()
    }

    /// Per-entity records resident here, the result log excluded: they
    /// follow the work in flight, not the jobs this server ever ran.
    #[doc(hidden)]
    pub fn resident_records(&self) -> usize {
        (self.running_count() + self.backlog.len() + usize::from(self.restored.is_some()))
            + self.completing.len()
    }

    /// The shard owning `job` (0 on a 1-shard grid).
    fn shard_of(&self, job: &JobKey) -> usize {
        self.params.directory.shard_of(job.client)
    }

    /// Credits a coordinator reply to the shard link whose *current*
    /// coordinator sent it: the suspicion window moves and — when the reply
    /// proves the coordinator is serving us, not just draining a backlog —
    /// the pick is re-trusted.  A late reply from a coordinator its link
    /// has left is proof of life of nobody we are judging: it credits
    /// nothing (the caller still acks whatever log entry it carries).
    fn note_reply(&mut self, from: NodeId, now: SimTime, trust: bool) {
        let directory = &self.params.directory;
        let sender = |l: &&mut CoordLink<CoordId>| {
            l.current().is_some_and(|c| directory.node_of(c) == Some(from))
        };
        if let Some(link) = self.links.iter_mut().find(sender) {
            link.heard(now, trust);
        }
    }

    /// Address of shard `s`'s current coordinator (picking one if need be).
    fn coordinator_for(&mut self, s: usize, now: SimTime) -> Option<NodeId> {
        self.params.directory.node_of(self.links[s].pick(now)?)
    }

    /// Results go home.  A finished task minted by a coordinator of shard
    /// `s`'s group other than the link's current one reached us through a
    /// relay: its job's client talks to the minting coordinator, and so
    /// should we — the result, the want-work beat that follows and every
    /// later beat then land where the client is, instead of replication
    /// carrying the job out and the archive back.  Only with idle hands
    /// (another task running or queued here is monitored by the current
    /// coordinator, which would suspect us) and only toward a coordinator
    /// we do not ourselves hold suspected.  A wrong guess — the owner died
    /// while the task ran — costs one suspicion timeout: the unacknowledged
    /// archive stays in the log and is re-offered to whoever answers next.
    fn carry_home(&mut self, s: usize, task: TaskId, now: SimTime) {
        let owner = task.coord();
        let link = &mut self.links[s];
        if link.current() == Some(owner)
            || !(self.running.is_none() && self.backlog.is_empty())
            || !link.is_eligible(owner, now)
        {
            return;
        }
        link.set_current(Some(owner));
        link.heard(now, false);
        self.metrics.rehomes += 1;
    }

    fn check_shard_liveness(&mut self, ctx: &mut Ctx<'_, Msg>, s: usize) {
        if self.links[s].give_up_if_silent(ctx.now(), self.params.cfg.suspicion).is_none() {
            return;
        }
        ctx.note("server suspects coordinator");
        self.metrics.coordinator_switches += 1;
        // The successor may lack the dead coordinator's checkpoint rows:
        // re-announce the running marks of *this shard's* tasks to whoever
        // answers next (idempotent — the merge is monotone).  Other shards'
        // marks stay acknowledged: their coordinators are not in question.
        let directory = &self.params.directory;
        if let Some(e) =
            self.running.as_mut().filter(|e| directory.shard_of(e.desc.job.client) == s)
        {
            (e.acked_mark, e.in_flight) = (0, None);
        }
    }

    /// `job`'s `size`-byte archive just left for a coordinator: counts the
    /// attempt and pushes the offer behind the backed-off horizon (capped:
    /// coordinators flap, and a stranded result blocks the client forever
    /// if the horizon runs away).
    fn sent(&mut self, ctx: &Ctx<'_, Msg>, job: JobKey, size: u64) {
        let policy = RetryPolicy::of(self.params.cfg.heartbeat, ctx.spec().nic_bw);
        let Some(entry) = self.plog.get_mut(log_key(&job)) else { return };
        let offer = &mut entry.value.offer;
        offer.attempts += 1;
        offer.eligible_at = ctx.now() + policy.horizon(offer.attempts, size);
    }

    /// A coordinator acknowledged `job`'s archive (stored it, or said it
    /// never will need it): the log entry goes, and its offer with it.
    fn acked(&mut self, job: &JobKey) {
        self.plog.ack(log_key(job));
    }

    /// Task slots free for new work: one, unless a task runs or waits.
    fn spare_capacity(&self) -> u32 {
        u32::from(self.running.is_none() && self.backlog.is_empty())
    }

    /// Every task this server answers for — running, queued, or finished
    /// but not yet acknowledged — with its owning shard, in beat order.
    fn held_tasks(&self) -> impl Iterator<Item = (usize, TaskId)> + '_ {
        let running = self.running.iter().map(|e| (e.desc.job.client, e.desc.id));
        let backlog = self.backlog.iter().map(|(t, _)| (t.job.client, t.id));
        let completing = self.completing.iter().map(|(id, job)| (job.client, *id));
        (running.chain(backlog).chain(completing))
            .map(|(client, id)| (self.params.directory.shard_of(client), id))
    }

    /// One beat to shard `s`'s coordinator, after judging the link: the
    /// tasks this server holds for the shard and its eligible offers (the
    /// peer-wise comparison half — archives whose delivery is plausibly
    /// still in flight wait out their horizon), asking for `want_work` new
    /// tasks.  A beat with nothing to report and no work to ask for is not
    /// sent.
    fn beat_shard(&mut self, ctx: &mut Ctx<'_, Msg>, s: usize, want_work: u32) {
        let now = ctx.now();
        let running: Vec<TaskId> =
            self.held_tasks().filter(|&(shard, _)| shard == s).map(|(_, id)| id).collect();
        // The log iterates in key order, so the offer needs no sort.
        let offered: Vec<JobKey> = (self.plog.iter_unacked())
            .map(|e| &e.value)
            .filter(|r| r.offer.eligible_at < now && self.shard_of(&r.job) == s)
            .map(|r| r.job)
            .take(64)
            .collect();
        if running.is_empty() && offered.is_empty() && want_work == 0 {
            return;
        }
        // A link we have not beaten within the suspicion window was quiet
        // by *our* choice (no state held there, rotation elsewhere) —
        // judging its stale reply stamp would condemn a healthy
        // coordinator.  Re-arm the window before re-engaging.  (On a
        // 1-shard grid beats land every heartbeat, so this never fires.)
        if self.last_sent[s].is_none_or(|at| now.since(at) > self.params.cfg.suspicion) {
            self.links[s].heard(now, false);
        }
        self.check_shard_liveness(ctx, s);
        let Some(node) = self.coordinator_for(s, now) else { return };
        ctx.send(node, Msg::ServerBeat { server: self.params.id, want_work, running, offered });
        self.last_sent[s] = Some(now);
    }

    /// One beat per shard holding state here, plus — when capacity is
    /// spare — the rotating work-request target (asking every shard at
    /// once would systematically over-assign S instances per slot).
    fn beat(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let want = self.spare_capacity();
        for s in 0..self.links.len() {
            self.beat_shard(ctx, s, if s == self.work_shard { want } else { 0 });
        }
        if want > 0 {
            self.work_shard = (self.work_shard + 1) % self.links.len();
        }
    }

    fn start_task(&mut self, ctx: &mut Ctx<'_, Msg>, desc: TaskDesc, banked_units: u32) {
        let now = ctx.now();
        if self.running.as_ref().is_some_and(|e| e.desc.id == desc.id) {
            return;
        }
        if self.running.is_some() {
            // Over-assignment race: queue locally and drain after the
            // current execution — the coordinator believes this instance is
            // ongoing here, so dropping it would stall the job until a
            // (never-coming) suspicion.
            if !self.backlog.iter().any(|(t, _)| t.id == desc.id) {
                self.backlog.push_back((desc, banked_units));
            }
            return;
        }
        let (work_total, _) = self.executor.simulate(&desc);
        let units_total = desc.units();
        let banked_units = banked_units.min(units_total);
        let secs_per_unit = work_total / units_total as f64;
        let remaining = ((units_total - banked_units) as f64 * secs_per_unit).max(1e-9);
        if banked_units > 0 {
            self.metrics.units_resumed += banked_units as u64;
        }
        let real_archive = (!self.params.registry.is_empty()).then(|| {
            match self.executor.execute(&desc) {
                Ok(a) => Blob::from_vec(a.pack()),
                Err(e) => {
                    // Execution failures (unknown service, sandbox kill)
                    // are reported as error archives — the call completes
                    // with a diagnosable result instead of hanging.
                    let mut a = rpcv_xw::Archive::new();
                    a.push("error.txt", Blob::from_vec(e.to_string().into_bytes()));
                    Blob::from_vec(a.pack())
                }
            }
        });
        let done_at = ctx.cpu(remaining);
        ctx.set_timer_at(done_at, K_EXEC);
        self.arm_checkpoint_timer(ctx);
        self.running = Some(Exec {
            desc,
            banked_units,
            secs_per_unit,
            started: now,
            real_archive,
            local_mark: None,
            acked_mark: 0,
            in_flight: None,
        });
    }

    /// Takes the running execution if it has finished by `now`.
    fn pop_finished(&mut self, now: SimTime) -> Option<Exec> {
        self.running
            .take_if(|e| e.progress_units(now) >= e.desc.units())
            .inspect(|e| self.metrics.units_spent += (e.desc.units() - e.banked_units) as u64)
    }

    fn complete(&mut self, ctx: &mut Ctx<'_, Msg>, exec: Exec) {
        let now = ctx.now();
        let archive =
            exec.real_archive.unwrap_or_else(|| self.executor.simulate_result(&exec.desc));
        let job = exec.desc.job;
        // A re-execution replacing a still-unacknowledged entry keeps its
        // delivery record: the earlier archive's send is still backing off.
        let offer = self.plog.get(log_key(&job)).map_or_else(Offer::default, |e| e.value.offer);
        let stored = StoredResult { task: exec.desc.id, job, archive: archive.clone(), offer };
        // Necessarily pessimistic: the archive only counts once durable.
        let size = archive.len();
        let durable_at = self.plog.append(log_key(&job), stored, size + 64, now, ctx.disk_mut());
        self.metrics.executed += 1;
        // Reported as running until the coordinator acknowledges delivery
        // (see the `completing` field).
        self.completing.insert(exec.desc.id, job);
        let shard = self.shard_of(&job);
        self.carry_home(shard, exec.desc.id, now);
        if let Some(node) = self.coordinator_for(shard, now) {
            self.sent(ctx, job, size);
            let done = Msg::TaskDone { server: self.params.id, task: exec.desc.id, job, archive };
            ctx.send_at(durable_at, node, done);
        }
        // Drain the local backlog before asking for more work.
        if let Some((desc, banked)) = self.backlog.pop_front() {
            self.start_task(ctx, desc, banked);
        }
        // Ask for more work as soon as the result is out.
        ctx.set_timer_at(durable_at, K_NUDGE);
    }

    fn resend_archives(&mut self, ctx: &mut Ctx<'_, Msg>, jobs: Vec<JobKey>) {
        let now = ctx.now();
        for job in jobs {
            // A NeedArchives batch comes from one coordinator, but each job
            // is still routed by its own shard — the authoritative home for
            // the archive even if a mis-addressed request slipped in.
            let shard = self.shard_of(&job);
            let Some(node) = self.coordinator_for(shard, now) else { continue };
            // An acknowledged archive has left the log and is not resent:
            // the asking coordinator recovers it over the ring or
            // re-executes it.
            if let Some(entry) = self.plog.get(log_key(&job)) {
                if now <= entry.value.offer.eligible_at {
                    continue; // still in flight; the coordinator asked on stale info
                }
                let StoredResult { task, job, archive, .. } = entry.value.clone();
                self.sent(ctx, job, archive.len());
                // Reading the archive back from the local log.
                let read_done = ctx.disk_read(archive.len() + 64);
                self.metrics.archives_resent += 1;
                let done = Msg::TaskDone { server: self.params.id, task, job, archive };
                ctx.send_at(read_done, node, done);
            }
        }
    }

    /// Arms the next checkpoint tick at the policy's current interval —
    /// re-evaluated every time so the adaptive policy's narrowing/widening
    /// takes effect at the very next tick, not the next restart.  At most
    /// one chain is live per server; it dies on an idle tick and is
    /// re-armed by the next task start.
    fn arm_checkpoint_timer(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.ckpt_armed {
            return;
        }
        let uptime = ctx.now().since(self.boot_at);
        if let Some(interval) = self.params.cfg.checkpoint.next_interval(&self.volatility, uptime) {
            ctx.set_timer(interval, K_CKPT);
            self.ckpt_armed = true;
        }
    }

    /// The modelled size of one task's checkpoint state: a compact
    /// progress record plus a slice of its working set.
    fn ckpt_state_bytes(desc: &TaskDesc) -> u64 {
        256 + desc.result_size_hint / 4 + desc.params.len() / 64
    }

    /// Snapshots the running task at its current unit boundary: the
    /// snapshot is made locally durable (same-node resume), and a mark
    /// that moved past what the coordinator acknowledged is uploaded as a
    /// sealed [`CheckpointFrame`] (different-node resume after a
    /// suspicion).  An unmoved mark costs nothing on the wire.
    fn checkpoint_running(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let retry_horizon = self.params.cfg.heartbeat * 4;
        let Some(exec) = &mut self.running else { return };
        let state_bytes = Self::ckpt_state_bytes(&exec.desc);
        let progress = exec.progress_units(now).min(exec.desc.units().saturating_sub(1));
        let hw = progress.max(exec.local_mark.unwrap_or(0));
        // Local snapshot (and its disk write — checkpoints must be durable
        // to be worth anything) only when a whole unit finished since the
        // last one.
        if exec.local_mark != Some(hw) {
            exec.local_mark = Some(hw);
            ctx.disk_write(state_bytes, true);
        }
        // The upload decision runs moved or not: ship a mark past the last
        // *acknowledged* one.  An upload with an acknowledgement plausibly
        // still travelling is not re-sent; one lost to a coordinator crash
        // is retried once the horizon passes — even when the mark itself
        // can never move again (the task's last unit boundary) — and a
        // coordinator switch (which zeroes the acked mark) re-announces it
        // here.
        let in_flight = exec
            .in_flight
            .is_some_and(|(sent_hw, at)| sent_hw >= hw && now.since(at) <= retry_horizon);
        if hw <= exec.acked_mark || hw == 0 || in_flight {
            return;
        }
        let blob = Blob::synthetic(state_bytes, Blob::derive_seed(exec.desc.id.0, hw as u64));
        let frame = CheckpointFrame::seal(
            exec.desc.job,
            exec.desc.id,
            exec.desc.attempt,
            hw,
            exec.desc.units(),
            blob,
        );
        // The frame goes to its job's shard: a resume point is only useful
        // on the coordinator group that can re-dispatch the task.
        let shard = self.shard_of(&frame.job);
        let Some(node) = self.coordinator_for(shard, now) else { return };
        if let Some(exec) = &mut self.running {
            exec.in_flight = Some((frame.unit_hw, now));
        }
        self.metrics.ckpt_uploads += 1;
        self.metrics.ckpt_bytes += frame.blob.len();
        ctx.send(node, Msg::CkptOffer { server: self.params.id, frame });
    }
}

impl Actor<Msg> for ServerActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.boot_at = ctx.now();
        if let Some((desc, banked_units)) = self.restored.take() {
            self.metrics.resumed += 1;
            self.start_task(ctx, desc, banked_units);
        }
        self.beat(ctx);
        ctx.set_timer(self.params.cfg.heartbeat, K_BEAT);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Assign { task, resume } => {
                self.note_reply(_from, ctx.now(), true);
                self.nowork_streak = 0;
                // A successor instance starts from the coordinator's
                // durable resume point instead of unit zero.  The state
                // blob's restore is modelled by the bank itself; a local
                // checkpoint (same-node restart race) wins if higher.
                let banked = resume.map(|r| r.unit_hw).unwrap_or(0);
                self.start_task(ctx, task, banked);
            }
            Msg::CkptAck { task, job: _, unit_hw } => {
                self.note_reply(_from, ctx.now(), true);
                self.metrics.ckpt_acks += 1;
                // A late ack for a completed task has no record to land on.
                if let Some(exec) = self.running.as_mut().filter(|e| e.desc.id == task) {
                    if exec.in_flight.is_some_and(|(sent_hw, _)| unit_hw >= sent_hw) {
                        exec.in_flight = None;
                    }
                    exec.acked_mark = exec.acked_mark.max(unit_hw);
                }
            }
            Msg::NoWork => {
                self.note_reply(_from, ctx.now(), true);
                // An idle server rotates its work request across shards:
                // NoWork retargets the next shard right away with a single
                // targeted beat, bounded to one lap per heartbeat so an
                // empty grid is not a beat storm.  Strictly one message
                // deep — re-running the full `beat` fan-out here would let
                // every sync-beat `NoWork` reply spawn up to S more beats.
                // On a 1-shard grid the streak cap is 0 retries — exactly
                // the historical "wait for the next heartbeat".
                let (want, shards) = (self.spare_capacity(), self.links.len());
                if want > 0 && self.nowork_streak + 1 < shards {
                    self.nowork_streak += 1;
                    self.beat_shard(ctx, self.work_shard, want);
                    self.work_shard = (self.work_shard + 1) % shards;
                } else {
                    self.nowork_streak = 0;
                }
            }
            Msg::TaskDoneAck { task, job } => {
                self.note_reply(_from, ctx.now(), false);
                self.acked(&job);
                self.completing.remove(&task);
            }
            Msg::NeedArchives { jobs } => {
                self.note_reply(_from, ctx.now(), false);
                self.resend_archives(ctx, jobs);
            }
            Msg::ArchivesSettled { jobs } => {
                // The coordinator will never request these (stored there or
                // delivered to the client): acknowledge them so the log can
                // reclaim the archives and the offer window frees up.
                self.note_reply(_from, ctx.now(), true);
                for job in &jobs {
                    self.acked(job);
                }
                // One retain over the batch instead of one O(completing)
                // retain per settled job.
                let settled: BTreeSet<JobKey> = jobs.into_iter().collect();
                self.completing.retain(|_, j| !settled.contains(j));
            }
            Msg::Corrupt { .. } => {
                // Unreadable bytes: count and drop.  No protocol state may
                // change off a frame that failed to decode.
                self.metrics.bad_frames += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _id: TimerId, kind: u64) {
        match kind {
            K_BEAT => {
                // A fresh heartbeat starts a fresh rotation lap.
                self.nowork_streak = 0;
                self.beat(ctx);
                ctx.set_timer(self.params.cfg.heartbeat, K_BEAT);
            }
            K_NUDGE => self.beat(ctx),
            K_EXEC => {
                if let Some(exec) = self.pop_finished(ctx.now()) {
                    self.complete(ctx, exec);
                }
            }
            K_CKPT => {
                self.ckpt_armed = false;
                if self.running.is_some() {
                    self.checkpoint_running(ctx);
                    self.arm_checkpoint_timer(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_crash(self: Box<Self>, now: SimTime) -> DurableImage {
        let ServerActor { mut plog, running, links, boot_at, mut metrics, mut volatility, .. } =
            *self;
        plog.survive_crash(now);
        metrics.lost_executions += running.iter().filter(|e| e.local_mark.is_none()).count() as u64;
        // Partial progress dies with the crash: charge the units this
        // incarnation computed but never completed (a resumed successor
        // re-pays only what was not checkpointed — the accounting shows
        // exactly that recompute as spent twice).
        metrics.units_spent +=
            running.iter().map(|e| (e.progress_units(now) - e.banked_units) as u64).sum::<u64>();
        // The node's own crash history feeds the adaptive policy.
        volatility.record_crash(now.since(boot_at));
        let checkpoint = running.and_then(|e| Some((e.desc, e.local_mark?)));
        let homes = links.iter().map(|l| l.current()).collect();
        DurableImage::of(ServerDurable { plog, checkpoint, metrics, volatility, homes })
    }
}
