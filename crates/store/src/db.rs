//! The coordinator database: jobs, tasks, archives, scheduling queue.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rpcv_simnet::SimTime;
use rpcv_wire::Blob;
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId, TaskDesc, TaskId, TaskState};

use crate::charge::Charge;
use crate::delta::{DeltaRow, ReplicationDelta, TaskRecord};

/// One stored task row.
#[derive(Debug, Clone)]
pub struct TaskRow {
    /// Instance description (what a server receives).
    pub desc: TaskDesc,
    /// Scheduling state.
    pub state: TaskState,
    /// Creating coordinator.
    pub origin: CoordId,
    /// Whether *this* coordinator dispatched the instance (vs. learned of
    /// it through replication) — drives the replica scheduling rule.
    pub locally_dispatched: bool,
    /// Version stamp of the last mutation (replication watermark).
    pub version: u64,
}

/// A job's task-instance ids.  Nearly every job has exactly one instance
/// (no redundancy, no re-execution), so the first id sits inline and only
/// further instances touch the heap.
#[derive(Debug, Clone, Default)]
struct TaskIds {
    first: Option<TaskId>,
    rest: Vec<TaskId>,
}

impl TaskIds {
    fn push(&mut self, id: TaskId) {
        match self.first {
            None => self.first = Some(id),
            Some(_) => self.rest.push(id),
        }
    }

    fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.first.into_iter().chain(self.rest.iter().copied())
    }
}

/// Everything the database holds about one job, in one B-tree entry: a
/// job's life (register → dispatch → complete → collect → GC → prune)
/// probes this one row where it used to probe a side table per attribute.
///
/// A row normally starts at registration (`spec` set).  Two attributes can
/// exist *without* a registered job, and then live in a **stub** row
/// (`spec == None`):
///
/// * an archive (with its finished flag, catalog entry and collected
///   knowledge) stored by [`CoordinatorDb::complete_task`] for a known
///   task whose reported job key is not registered here, or left behind
///   when a bootstrap feed's retired watermark prunes a lagging replica's
///   not-yet-collected job;
/// * a catalog tombstone (`catalog_pos`) that outlives
///   [`CoordinatorDb::prune_retired`] until the client acknowledges it
///   ([`CoordinatorDb::prune_catalog_acked`]).
///
/// A stub that lost its last attribute is removed, so the table holds
/// live jobs plus the unacknowledged tombstone window — never lifetime
/// jobs.
#[derive(Debug, Clone, Default)]
struct JobRow {
    /// The registered description (`None` = stub, see above).
    spec: Option<JobSpec>,
    /// Change-index version of the job row (0 while a stub).
    version: u64,
    /// Next attempt number (folded with replicated attempt numbers on
    /// delta application).
    next_attempt: u32,
    /// Live FCFS-queue entries (instances still `Pending`), to adjust
    /// [`CoordinatorDb::pending_count`] in O(1) when the whole job flips
    /// (un)finished.
    pending: u32,
    /// A result exists somewhere (archive stored here, or replicated
    /// finished-knowledge).
    finished: bool,
    /// `Collected` terminal state: the client durably pulled the result
    /// and no archive is retained.  Terminal means the job is exempt from
    /// missing-archive re-execution and from archive re-acquisition — the
    /// result was *delivered*; nothing is missing.
    collected: bool,
    /// Change-index version of the collected-knowledge row (0 = no
    /// collection acknowledged yet); moved, never duplicated, on re-stamp.
    collected_pos: u64,
    /// Version of the job's single catalog-index entry (0 = none): in
    /// `catalog` while the archive is held, in `catalog_removed` after.
    catalog_pos: u64,
    /// Task instances, so retention prunes them without a table scan.
    tasks: TaskIds,
    /// The result archive, while retained.
    archive: Option<ArchiveRow>,
    /// Checkpoint row (boxed: only checkpointing workloads have one).
    ckpt: Option<Box<CkptRow>>,
}

impl JobRow {
    /// Known, not held, and not already delivered to the client: an
    /// archive for this job would be news.
    fn wants_archive(&self) -> bool {
        self.spec.is_some() && self.archive.is_none() && !self.collected
    }

    /// True when a stub holds nothing any more and can leave the table.
    fn is_vacant(&self) -> bool {
        self.spec.is_none()
            && self.archive.is_none()
            && self.catalog_pos == 0
            && self.collected_pos == 0
            && !self.finished
            && !self.collected
    }
}

/// Per-client registration high-water mark, versioned so replication
/// deltas can carry only the marks that changed since the base version
/// (instead of re-sending every known client's mark each round).
#[derive(Debug, Clone, Copy)]
struct MarkRow {
    mark: u64,
    version: u64,
}

/// What a replication-version index entry points at.  Every mutation
/// re-stamps its row with a fresh version and moves the row's single
/// index entry, so `changed` always holds exactly one entry per live
/// row and `delta_since(base)` is a range read over `(base, head]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Changed {
    Job(JobKey),
    Task(TaskId),
    Mark(ClientKey),
    /// The client durably acknowledged collecting this job's result —
    /// replicated so a promoted successor treats the job as delivered.
    Collected(JobKey),
    /// The job's checkpoint high-water mark moved — replicated so a
    /// promoted successor inherits the resume point.
    Ckpt(JobKey),
}

/// Where a change-index entry's current contents came from.  A row learned
/// from a ring peer is one that peer already holds (at an equal or higher
/// state), so the incremental feed *to that same peer* skips it — a wave is
/// never forwarded on the edge it arrived on.  Any local mutation re-stamps
/// the row as [`Provenance::LOCAL`], which puts it back on every feed.
///
/// One word per index entry: the teaching peer's id, or [`Self::LOCAL`].
/// (A coordinator whose id *is* the sentinel would read as local and merely
/// get its echoes back — the safe direction.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Provenance(u64);

impl Provenance {
    /// Written by this coordinator's own operation.
    const LOCAL: Provenance = Provenance(u64::MAX);

    /// Last written while applying a feed from `peer`.
    fn peer(peer: CoordId) -> Self {
        Provenance(peer.0)
    }
}

/// One change-index entry: the row it points at, and who wrote it last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChangeEntry {
    row: Changed,
    from: Provenance,
}

/// One stored checkpoint: the highest durable work-unit mark a successor
/// instance of the job may resume from, plus the opaque resume state.
#[derive(Debug, Clone)]
struct CkptRow {
    unit_hw: u32,
    blob: Blob,
    version: u64,
}

#[derive(Debug, Clone)]
struct ArchiveRow {
    payload: Blob,
    /// The client acknowledged collection: GC-eligible.
    collected: bool,
}

/// Incremental view of one client's result catalog since a version the
/// client already holds: the additions and removals to merge, plus the new
/// high-water mark to beat with next time.  This is what
/// [`CoordinatorDb::results_catalog_since`] returns and what
/// `ClientSyncReply` ships instead of the full catalog.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CatalogDelta {
    /// Version high-water mark after this delta; the client echoes it in
    /// its next beat.
    pub head: u64,
    /// Results that became available since the base: `(seq, size)`.
    pub added: Vec<(u64, u64)>,
    /// Result seqs no longer retained (garbage-collected after collection).
    pub removed: Vec<u64>,
}

/// Result of registering a completed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// First result for this job: stored.
    NewResult,
    /// The job already had a result (at-least-once duplicate): dropped.
    Duplicate,
    /// Neither the task nor its job is known here.
    UnknownJob,
}

/// What applying one replication feed did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Applied {
    /// Storage cost of the merge.
    pub charge: Charge,
    /// Jobs the feed taught this database were delivered — a collection
    /// acknowledgement that was news, or a resident job a retired watermark
    /// pruned — in frame order: work the owner takes out of its
    /// re-execution pipeline.
    pub newly_collected: Vec<JobKey>,
}

rpcv_simnet::counters! {
    /// Aggregate counters for reporting.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DbStats {
        /// Registered jobs — lifetime count (live rows plus jobs retired
        /// after delivery), monotone across retention.
        pub jobs,
        /// Task instances — lifetime count, monotone across retention.
        pub tasks,
        /// Tasks pending dispatch.
        pub pending,
        /// Tasks ongoing on servers.
        pub ongoing,
        /// Jobs with a stored result archive.
        pub archived,
        /// Duplicate results dropped (at-least-once re-executions).
        pub duplicate_results,
        /// Jobs in the `Collected` terminal state (client pulled the result,
        /// archive garbage-collected) — lifetime count, including retired.
        pub collected,
        /// Jobs with a stored checkpoint (resume point).
        pub ckpts,
    }
}

/// The coordinator's durable state: job/task tables, FCFS queue, archive
/// store, client timestamp marks, replication version counter.
#[derive(Debug, Clone)]
pub struct CoordinatorDb {
    me: CoordId,
    version: u64,
    /// One row per job: description, flags, counters, archive, checkpoint
    /// (see [`JobRow`] for what lives here and what a stub row is).
    jobs: BTreeMap<JobKey, JobRow>,
    tasks: BTreeMap<TaskId, TaskRow>,
    pending: VecDeque<TaskId>,
    by_server: BTreeMap<ServerId, BTreeSet<TaskId>>,
    /// When each server last spoke *here* (stamped by
    /// [`Self::reconcile_server`], i.e. on every beat): what this
    /// coordinator's suspicion of the server can testify about.  One entry
    /// per server ever heard — fleet-sized, not lifetime.
    server_heard: BTreeMap<ServerId, SimTime>,
    client_max: BTreeMap<ClientKey, MarkRow>,
    task_counter: u64,
    duplicate_results: u64,
    /// Version-ordered change index: one entry per live row, keyed by the
    /// row's current version, carrying the row's [`Provenance`].  Backs
    /// O(changed) [`Self::delta_since`] and the echo-free [`Self::feed_for`].
    changed: BTreeMap<u64, ChangeEntry>,
    /// Finished jobs whose archive is not held here — maintained at every
    /// archive/finished transition so the periodic refresh never scans.
    /// A worklist, not an attribute: membership ≡ the row is finished,
    /// holds no archive and is not `Collected`.
    missing: BTreeSet<JobKey>,
    /// Append-only journal of additions to `missing` since the last
    /// [`Self::drain_missing_added`]: the owner's watch list updates from
    /// the drained increment instead of re-walking the whole missing set
    /// after every applied delta.  (Entries may have left `missing` again
    /// by drain time; consumers tolerate stale keys.)
    missing_added: Vec<JobKey>,
    /// Retained archives whose client acknowledged collection (the
    /// GC-eligible worklist).  Maintained at flag/reclaim transitions so
    /// explicit GC is O(flagged), never a table scan; scan reference:
    /// [`Self::collected_flagged_scan`].
    collected_flagged: BTreeSet<JobKey>,
    /// Per-client catalog change index: `(client, version) → seq`, one
    /// entry per *live* archive, re-stamped with a fresh version on every
    /// catalog transition.  Backs O(changed)
    /// [`Self::results_catalog_since`].
    catalog: BTreeMap<(ClientKey, u64), u64>,
    /// Removal tombstones: `(client, version) → seq` for archives
    /// garbage-collected after collection.  Kept separate from the live
    /// index so acknowledged tombstones can be pruned in O(pruned)
    /// ([`Self::prune_catalog_acked`]) without walking live entries.
    catalog_removed: BTreeMap<(ClientKey, u64), u64>,
    /// Queue entries whose task is still in the `Pending` state (dead
    /// entries — popped-state rows — are what compaction drops).
    queued_live: usize,
    /// Dispatchable queue entries: live entries of unfinished jobs.  This
    /// *is* `pending_count()`, maintained instead of recomputed.
    pending_live: usize,
    /// Registered jobs resident (rows with a description).
    registered_rows: u64,
    /// Rows carrying the finished flag.
    finished_rows: u64,
    /// Rows in the `Collected` terminal state.
    collected_rows: u64,
    /// Rows holding an archive.
    archived_rows: u64,
    /// Rows holding a checkpoint.
    ckpt_rows: u64,
    /// Per-client contiguous-collected watermark: the largest `w` such
    /// that every seq `1..=w` reached the `Collected` terminal state.
    /// Collection knowledge at or below the watermark is summarized here,
    /// which is what lets retention drop the per-job rows.
    collected_contig: BTreeMap<ClientKey, u64>,
    /// Per-client retired prefix: every seq `1..=r` had *all* of its rows
    /// (job, tasks, collected, ckpt) pruned from the tables and the
    /// change index.  Invariant: `retired_below ≤ collected_contig` —
    /// only delivered work retires.  `Σ retired_below` is the lifetime
    /// retired-job count (seqs are 1-based and contiguous), so the
    /// cumulative stats need no separate counter for jobs.
    retired_below: BTreeMap<ClientKey, u64>,
    /// Task rows pruned by retention (lifetime), folded back into
    /// [`Self::stats`] so observers see monotone counts across pruning.
    retired_tasks: u64,
    /// Highest change-index version ever pruned: `delta_since(base)` is
    /// complete only for `base >= delta_floor` — [`Self::feed_for`] serves
    /// a lower base from zero instead.
    delta_floor: u64,
}

impl CoordinatorDb {
    /// Empty database owned by coordinator `me`.
    pub fn new(me: CoordId) -> Self {
        CoordinatorDb {
            me,
            version: 0,
            jobs: BTreeMap::new(),
            tasks: BTreeMap::new(),
            pending: VecDeque::new(),
            by_server: BTreeMap::new(),
            server_heard: BTreeMap::new(),
            client_max: BTreeMap::new(),
            task_counter: 0,
            duplicate_results: 0,
            changed: BTreeMap::new(),
            missing: BTreeSet::new(),
            missing_added: Vec::new(),
            collected_flagged: BTreeSet::new(),
            catalog: BTreeMap::new(),
            catalog_removed: BTreeMap::new(),
            queued_live: 0,
            pending_live: 0,
            registered_rows: 0,
            finished_rows: 0,
            collected_rows: 0,
            archived_rows: 0,
            ckpt_rows: 0,
            collected_contig: BTreeMap::new(),
            retired_below: BTreeMap::new(),
            retired_tasks: 0,
            delta_floor: 0,
        }
    }

    /// Owning coordinator.
    pub fn me(&self) -> CoordId {
        self.me
    }

    /// Current replication version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Advances the version counter and moves a row's single change-index
    /// entry from `old_version` (0 = new row) to the fresh version, stamped
    /// with who wrote the row (`from`).  Takes the two fields explicitly so
    /// callers holding a `&mut` row borrow can still re-stamp it.
    fn touch(
        changed: &mut BTreeMap<u64, ChangeEntry>,
        version: &mut u64,
        old_version: u64,
        row: Changed,
        from: Provenance,
    ) -> u64 {
        if old_version != 0 {
            changed.remove(&old_version);
        }
        *version += 1;
        changed.insert(*version, ChangeEntry { row, from });
        *version
    }

    /// Raises `client`'s registration high-water mark to `mark` (no-op if
    /// not higher), versioning the change so deltas carry only moved marks.
    fn note_mark(&mut self, client: ClientKey, mark: u64, from: Provenance) {
        let row = self.client_max.entry(client).or_insert(MarkRow { mark: 0, version: 0 });
        if mark > row.mark || row.version == 0 {
            row.mark = mark;
            row.version = Self::touch(
                &mut self.changed,
                &mut self.version,
                row.version,
                Changed::Mark(client),
                from,
            );
        }
    }

    /// The registered description of `job`, if any (stub rows have none).
    fn spec(&self, job: &JobKey) -> Option<&JobSpec> {
        self.jobs.get(job)?.spec.as_ref()
    }

    /// Re-stamps `job`'s single catalog-index entry with a fresh version
    /// after an archive transition, moving it between the live index and
    /// the tombstone index.  Every call follows a flip of
    /// `row.archive` (stored ↔ reclaimed), so the previous entry — if one
    /// exists — sits in the index the new one does *not* go to.
    fn touch_catalog(
        catalog: &mut BTreeMap<(ClientKey, u64), u64>,
        catalog_removed: &mut BTreeMap<(ClientKey, u64), u64>,
        version: &mut u64,
        row: &mut JobRow,
        job: JobKey,
    ) {
        let (to, from) = if row.archive.is_some() {
            (catalog, catalog_removed)
        } else {
            (catalog_removed, catalog)
        };
        if row.catalog_pos != 0 {
            let moved = from.remove(&(job.client, row.catalog_pos));
            debug_assert!(moved.is_some(), "catalog entry sits opposite its new index");
        }
        *version += 1;
        to.insert((job.client, *version), job.seq);
        row.catalog_pos = *version;
    }

    /// Re-stamps `job`'s single collected-knowledge row in the change
    /// index (0 = first acknowledgement), so replication deltas carry it.
    fn touch_collected(
        changed: &mut BTreeMap<u64, ChangeEntry>,
        version: &mut u64,
        row: &mut JobRow,
        job: JobKey,
        from: Provenance,
    ) {
        row.collected_pos =
            Self::touch(changed, version, row.collected_pos, Changed::Collected(job), from);
    }

    /// True when this coordinator knows `job`'s result was delivered to
    /// the client: the seq sits at or below the client's
    /// contiguous-collected watermark, the retained archive carries the
    /// collected flag (GC-eligible), or the job already reached the
    /// `Collected` terminal state (archive reclaimed).
    pub fn has_collected_knowledge(&self, job: &JobKey) -> bool {
        job.seq <= self.contig_watermark(job.client)
            || self
                .jobs
                .get(job)
                .is_some_and(|r| r.collected || r.archive.as_ref().is_some_and(|a| a.collected))
    }

    /// `client`'s contiguous-collected watermark: the largest `w` with
    /// every seq `1..=w` in the `Collected` terminal state (0 if none).
    pub fn contig_watermark(&self, client: ClientKey) -> u64 {
        self.collected_contig.get(&client).copied().unwrap_or(0)
    }

    /// `client`'s retired prefix: every seq `1..=r` was delivered and had
    /// all of its rows pruned (0 if none).  Always ≤
    /// [`Self::contig_watermark`].
    pub fn retired_watermark(&self, client: ClientKey) -> u64 {
        self.retired_below.get(&client).copied().unwrap_or(0)
    }

    /// Advances `client`'s contiguous-collected watermark over any newly
    /// contiguous prefix of the `Collected` terminal set.
    fn advance_collected_contig(&mut self, client: ClientKey) {
        let mut w = self.contig_watermark(client);
        let start = w;
        while self.is_collected(&JobKey { client, seq: w + 1 }) {
            w += 1;
        }
        if w > start {
            self.collected_contig.insert(client, w);
        }
    }

    /// Records the client's durable collection acknowledgement for `job`
    /// as replicable knowledge.  Idempotent; ignored for jobs unknown here
    /// (the job row always precedes its collected row in a version-ordered
    /// delta, so this only drops acks for jobs we never heard of at all).
    /// Returns true when the knowledge is news.
    fn note_collected(&mut self, job: JobKey, from: Provenance) -> bool {
        if job.seq <= self.contig_watermark(job.client) {
            return false; // summarized by the watermark already
        }
        let Some(row) = self.jobs.get_mut(&job) else { return false };
        if row.collected {
            return false;
        }
        if let Some(archive) = row.archive.as_mut() {
            if archive.collected {
                return false;
            }
            // Archive retained here: flag it GC-eligible and replicate the
            // acknowledgement.  The flag set keeps explicit GC O(flagged).
            archive.collected = true;
            self.collected_flagged.insert(job);
            Self::touch_collected(&mut self.changed, &mut self.version, row, job, from);
            return true;
        }
        if row.spec.is_none() {
            return false;
        }
        // No archive held: delivered knowledge is terminal — the job must
        // never be re-executed or re-acquired just because the archive is
        // elsewhere (or gone).
        row.collected = true;
        self.collected_rows += 1;
        Self::mark_finished(
            row,
            job,
            &mut self.finished_rows,
            &mut self.pending_live,
            &mut self.missing,
            &mut self.missing_added,
        );
        self.missing.remove(&job);
        Self::touch_collected(&mut self.changed, &mut self.version, row, job, from);
        self.advance_collected_contig(job.client);
        true
    }

    /// A queue entry of `job` left the `Pending` state without being
    /// popped: the entry is now dead and stops counting.
    fn entry_died(queued_live: &mut usize, pending_live: &mut usize, row: &mut JobRow) {
        *queued_live = queued_live.saturating_sub(1);
        row.pending = row.pending.saturating_sub(1);
        if !row.finished {
            *pending_live = pending_live.saturating_sub(1);
        }
    }

    /// Enqueues a freshly inserted `Pending` task of `row`'s job.
    fn push_pending(
        pending: &mut VecDeque<TaskId>,
        queued_live: &mut usize,
        pending_live: &mut usize,
        row: &mut JobRow,
        id: TaskId,
    ) {
        pending.push_back(id);
        *queued_live += 1;
        row.pending += 1;
        if !row.finished {
            *pending_live += 1;
        }
    }

    /// Records `job` as finished, retiring its still-queued live instances
    /// from the dispatchable count and flagging the archive as missing when
    /// it is not held here.
    fn mark_finished(
        row: &mut JobRow,
        job: JobKey,
        finished_rows: &mut u64,
        pending_live: &mut usize,
        missing: &mut BTreeSet<JobKey>,
        missing_added: &mut Vec<JobKey>,
    ) {
        if row.finished {
            return;
        }
        row.finished = true;
        *finished_rows += 1;
        *pending_live = pending_live.saturating_sub(row.pending as usize);
        if row.archive.is_none() && missing.insert(job) {
            missing_added.push(job);
        }
        // The result exists, so the resume state is dead weight: drop
        // the blob in place.  The varint mark and the row's version
        // stay — the monotone merge and `ckpt_scan` still see the
        // mark; only the payload bytes are reclaimed.
        if let Some(ckpt) = row.ckpt.as_mut() {
            ckpt.blob = Blob::empty();
        }
    }

    /// Drops dead entries (tasks no longer `Pending`) once they outnumber
    /// live ones: the FCFS queue stays within 2× of its useful length, so
    /// `next_pending` never grinds through an old stale prefix.
    fn maybe_compact_pending(&mut self) {
        let len = self.pending.len();
        if len < 64 || (len - self.queued_live) * 2 <= len {
            return;
        }
        let tasks = &self.tasks;
        self.pending
            .retain(|id| tasks.get(id).is_some_and(|r| matches!(r.state, TaskState::Pending)));
        debug_assert_eq!(self.pending.len(), self.queued_live);
    }

    // --- job registration -------------------------------------------------

    /// Inserts `spec` as a new registered job (upgrading a stub row if one
    /// exists) and creates its `spec.replication` task instances.  The
    /// caller checked the job is neither registered nor retired.
    fn insert_job(&mut self, spec: JobSpec) {
        let key = spec.key;
        let replication = spec.replication.max(1);
        let v = Self::touch(
            &mut self.changed,
            &mut self.version,
            0,
            Changed::Job(key),
            Provenance::LOCAL,
        );
        self.note_mark(key.client, key.seq, Provenance::LOCAL);
        let row = self.jobs.entry(key).or_default();
        row.spec = Some(spec);
        row.version = v;
        self.registered_rows += 1;
        for _ in 0..replication {
            self.create_instance(key);
        }
    }

    /// True when `key` may not be registered (again): it is registered, or
    /// it is retired — a retired seq was delivered and pruned, and
    /// re-registering would resurrect a zombie row set.
    fn refuses_registration(&self, key: &JobKey) -> bool {
        self.knows_job(key) || key.seq <= self.retired_watermark(key.client)
    }

    /// Registers a job submitted by a client; translates it into
    /// `spec.replication` task instances (paper: "jobs ... are translated
    /// as tasks (instances of jobs)").  Duplicate registrations (client
    /// resend after sync) are recognized and ignored.
    pub fn register_job(&mut self, spec: JobSpec) -> (bool, Charge) {
        if self.refuses_registration(&spec.key) {
            return (false, Charge::ops(1));
        }
        let charge = Charge::db(1, spec.params.len()) + Charge::ops(spec.replication.max(1) as u64);
        self.insert_job(spec);
        (true, charge)
    }

    /// Bulk registration (client log replay during synchronization).
    ///
    /// Row inserts amortize in a bulk statement, which is what makes
    /// client-side-log synchronization markedly cheaper than the
    /// coordinator-side direction in Fig. 6: the charge is
    /// `1 + ceil(n/4)` operations instead of `n`.
    pub fn register_jobs_bulk(&mut self, specs: Vec<JobSpec>) -> (u64, Charge) {
        let mut new_count: u64 = 0;
        let mut bytes = 0;
        for spec in specs {
            if self.refuses_registration(&spec.key) {
                continue;
            }
            bytes += spec.params.len();
            self.insert_job(spec);
            new_count += 1;
        }
        let charge = Charge::db(1 + new_count.div_ceil(4), bytes);
        (new_count, charge)
    }

    /// True if the job is known (registered — a stub row does not count).
    pub fn knows_job(&self, key: &JobKey) -> bool {
        self.spec(key).is_some()
    }

    /// Highest registered submission timestamp for `client` (0 if none) —
    /// the coordinator's half of the client synchronization handshake.
    pub fn client_max(&self, client: ClientKey) -> u64 {
        self.client_max.get(&client).map(|r| r.mark).unwrap_or(0)
    }

    /// Builds the task description of instance `id` (attempt `attempt`) of
    /// `spec`'s job: each payload field is cloned exactly once, straight
    /// from the stored row.
    fn describe(spec: &JobSpec, id: TaskId, attempt: u32) -> TaskDesc {
        TaskDesc {
            id,
            job: spec.key,
            attempt,
            service: spec.service.clone(),
            cmdline: spec.cmdline.clone(),
            params: spec.params.clone(),
            exec_cost: spec.exec_cost,
            result_size_hint: spec.result_size_hint,
            work_units: spec.work_units,
        }
    }

    fn create_instance(&mut self, job: JobKey) -> Option<TaskId> {
        let row = self.jobs.get_mut(&job)?;
        let spec = row.spec.as_ref()?;
        let attempt = row.next_attempt;
        row.next_attempt += 1;
        self.task_counter += 1;
        let id = TaskId::compose(self.me, self.task_counter);
        let v = Self::touch(
            &mut self.changed,
            &mut self.version,
            0,
            Changed::Task(id),
            Provenance::LOCAL,
        );
        self.tasks.insert(
            id,
            TaskRow {
                desc: Self::describe(spec, id, attempt),
                state: TaskState::Pending,
                origin: self.me,
                locally_dispatched: false,
                version: v,
            },
        );
        row.tasks.push(id);
        Self::push_pending(
            &mut self.pending,
            &mut self.queued_live,
            &mut self.pending_live,
            row,
            id,
        );
        Some(id)
    }

    // --- scheduling --------------------------------------------------------

    /// FCFS dispatch: next runnable pending task for `server`, or `None`.
    ///
    /// Skips tasks of already-finished jobs (a sibling instance or another
    /// replica's execution produced the result first).
    pub fn next_pending(&mut self, server: ServerId, now: SimTime) -> (Option<TaskDesc>, Charge) {
        self.maybe_compact_pending();
        let mut ops = 1; // the queue lookup itself
        while let Some(id) = self.pending.pop_front() {
            ops += 1;
            let Some(row) = self.tasks.get_mut(&id) else { continue };
            if !matches!(row.state, TaskState::Pending) {
                continue; // dead entry: stopped counting when its state moved
            }
            // A live entry leaves the queue here, dispatched or skipped.
            self.queued_live = self.queued_live.saturating_sub(1);
            let finished = self.jobs.get_mut(&row.desc.job).is_some_and(|job| {
                job.pending = job.pending.saturating_sub(1);
                job.finished
            });
            if finished {
                // Sibling instance already produced the result: retire the
                // instance outright.  Its queue entry is gone, so the row
                // must leave the `Pending` state too — a later transition
                // (duplicate completion, replicated state upgrade) would
                // otherwise run the entry-died accounting a second time
                // and corrupt the maintained pending counters.
                row.state = TaskState::Finished { result_size: 0 };
                let v = Self::touch(
                    &mut self.changed,
                    &mut self.version,
                    row.version,
                    Changed::Task(id),
                    Provenance::LOCAL,
                );
                row.version = v;
                continue;
            }
            self.pending_live = self.pending_live.saturating_sub(1);
            row.state = TaskState::Ongoing { server, since: now };
            row.locally_dispatched = true;
            let desc = row.desc.clone();
            let params = desc_params(&desc);
            let v = Self::touch(
                &mut self.changed,
                &mut self.version,
                row.version,
                Changed::Task(id),
                Provenance::LOCAL,
            );
            row.version = v;
            self.by_server.entry(server).or_default().insert(id);
            return (Some(desc), Charge::db(ops, params));
        }
        (None, Charge::ops(ops))
    }

    /// Number of dispatchable pending tasks (a maintained counter — O(1)).
    pub fn pending_count(&self) -> usize {
        self.pending_live
    }

    /// Scan-based reference definition of [`Self::pending_count`], kept for
    /// the equivalence property tests and perf comparisons.
    #[doc(hidden)]
    pub fn pending_count_scan(&self) -> usize {
        self.pending
            .iter()
            .filter(|id| {
                self.tasks
                    .get(id)
                    .map(|r| {
                        matches!(r.state, TaskState::Pending) && !self.is_finished(&r.desc.job)
                    })
                    .unwrap_or(false)
            })
            .count()
    }

    /// True when `job` carries the finished flag.
    fn is_finished(&self, job: &JobKey) -> bool {
        self.jobs.get(job).is_some_and(|r| r.finished)
    }

    // --- completion ---------------------------------------------------------

    /// Stores `archive` in `row` (which holds none and is not `Collected`):
    /// catalog entry, missing-set exit, finished flag.
    fn put_archive(&mut self, job: JobKey, archive: Blob) {
        let row = self.jobs.entry(job).or_default();
        row.archive = Some(ArchiveRow { payload: archive, collected: false });
        self.archived_rows += 1;
        Self::touch_catalog(
            &mut self.catalog,
            &mut self.catalog_removed,
            &mut self.version,
            row,
            job,
        );
        if row.finished {
            self.missing.remove(&job);
        }
        Self::mark_finished(
            row,
            job,
            &mut self.finished_rows,
            &mut self.pending_live,
            &mut self.missing,
            &mut self.missing_added,
        );
    }

    /// Registers a task result arriving from `server`.
    ///
    /// At-least-once semantics: the first result for a job wins; duplicates
    /// from racing instances are counted and dropped.
    pub fn complete_task(
        &mut self,
        task: TaskId,
        job: JobKey,
        archive: Blob,
        server: ServerId,
    ) -> (CompleteOutcome, Charge) {
        let size = archive.len();
        // Clear the server index and mark the instance finished if known.
        if let Some(row) = self.tasks.get_mut(&task) {
            match row.state {
                TaskState::Ongoing { server: s, .. } => {
                    if let Some(set) = self.by_server.get_mut(&s) {
                        set.remove(&task);
                    }
                }
                TaskState::Pending => {
                    // Its queue entry dies in place (never popped).
                    if let Some(owner) = self.jobs.get_mut(&row.desc.job) {
                        Self::entry_died(&mut self.queued_live, &mut self.pending_live, owner);
                    }
                }
                TaskState::Finished { .. } => {}
            }
            row.state = TaskState::Finished { result_size: size };
            let v = Self::touch(
                &mut self.changed,
                &mut self.version,
                row.version,
                Changed::Task(task),
                Provenance::LOCAL,
            );
            row.version = v;
        } else {
            let Some(owner) = self.jobs.get(&job).filter(|r| r.spec.is_some()) else {
                return (CompleteOutcome::UnknownJob, Charge::ops(1));
            };
            // The job is known, the instance is not: its dispatcher's row
            // has not replicated here yet (and, as `Ongoing`, will change
            // nothing when it does).  Merge the row `Finished` as this
            // coordinator's own, or the result below would be stored with
            // no versioned row and no peer would ever learn the job
            // finished.
            let attempt = owner.next_attempt;
            let state = TaskState::Finished { result_size: size };
            let row = TaskRecord { id: task, job, attempt, state, origin: task.coord() };
            self.apply_task_row(&row, Provenance::LOCAL);
        }
        // A known task may report a job key that is not registered here
        // (mismatched pair): the archive is stored all the same, in a stub
        // row.
        if self.jobs.get(&job).is_some_and(|r| r.archive.is_some() || r.collected) {
            self.duplicate_results += 1;
            return (CompleteOutcome::Duplicate, Charge::ops(2));
        }
        self.put_archive(job, archive);
        self.maybe_compact_pending();
        let _ = server;
        // 2 db ops (task + job rows) plus the archive write to the
        // filesystem store.
        (CompleteOutcome::NewResult, Charge::db(2, 0) + Charge::disk(size))
    }

    /// Jobs finished according to replicated state but whose archive we do
    /// not hold (archives are never replicated) — these are requested back
    /// from servers during synchronization.  Served from a maintained set:
    /// O(missing), not O(finished).
    pub fn missing_archives(&self) -> Vec<JobKey> {
        self.missing.iter().copied().collect()
    }

    /// Iterator form of [`Self::missing_archives`] (no allocation).
    pub fn missing_archives_iter(&self) -> impl Iterator<Item = JobKey> + '_ {
        self.missing.iter().copied()
    }

    /// Drains the journal of additions to the missing set since the last
    /// call.  Keys may have left `missing` again in the meantime —
    /// consumers must tolerate stale entries (they do their own lookups).
    pub fn drain_missing_added(&mut self) -> Vec<JobKey> {
        std::mem::take(&mut self.missing_added)
    }

    /// Whether `job` is currently in the missing-archive set.
    pub fn is_missing_archive(&self, job: &JobKey) -> bool {
        self.missing.contains(job)
    }

    /// Scan-based reference definition of [`Self::missing_archives`], kept
    /// for the equivalence property tests.  `Collected` is terminal: a
    /// delivered-then-GC'd result is not missing.
    #[doc(hidden)]
    pub fn missing_archives_scan(&self) -> Vec<JobKey> {
        self.jobs
            .iter()
            .filter(|(_, r)| r.finished && r.archive.is_none() && !r.collected)
            .map(|(&k, _)| k)
            .collect()
    }

    /// Stores an archive re-sent by a server for a job finished elsewhere.
    /// A `Collected` job's result was already delivered and reclaimed —
    /// re-storing it would only resurrect a dead catalog entry.  Archives
    /// for unknown jobs are refused: every archive pull originates from a
    /// known finished job, so an unknown key is a stale or misdirected
    /// hand-off (and an archive row without its job row would break the
    /// job-before-collected ordering of the replication feed).
    pub fn store_archive(&mut self, job: JobKey, archive: Blob) -> Charge {
        if !self.wants_archive(&job) {
            return Charge::ops(1);
        }
        let size = archive.len();
        self.put_archive(job, archive);
        Charge::db(1, 0) + Charge::disk(size)
    }

    /// True when this coordinator would benefit from receiving `job`'s
    /// archive (known, not held, and not already delivered to the client).
    pub fn wants_archive(&self, job: &JobKey) -> bool {
        self.jobs.get(job).is_some_and(JobRow::wants_archive)
    }

    /// True when `job` reached the `Collected` terminal state.
    pub fn is_collected(&self, job: &JobKey) -> bool {
        self.jobs.get(job).is_some_and(|r| r.collected)
    }

    /// Reverts a job to pending execution because its result archive is
    /// unrecoverable (server lost its log): at-least-once re-execution.
    /// Refused for `Collected` jobs — the client already holds the result,
    /// so there is nothing to recover (the post-GC re-execution leak).
    pub fn reexecute_job(&mut self, job: JobKey) -> (Option<TaskId>, Charge) {
        let Some(row) = self.jobs.get_mut(&job).filter(|r| r.wants_archive()) else {
            return (None, Charge::ops(1));
        };
        if row.finished {
            row.finished = false;
            self.finished_rows -= 1;
            // Still-queued live instances of the job become dispatchable
            // again, exactly as the scan-based count would see them.
            self.pending_live += row.pending as usize;
            self.missing.remove(&job);
        }
        let id = self.create_instance(job);
        (id, Charge::ops(2))
    }

    // --- fault handling -----------------------------------------------------

    /// True when `job` already has a dispatchable queued instance.  The
    /// recovery paths (server suspicion, beat reconciliation, predecessor
    /// release) can all conclude the same job needs a new instance in the
    /// same failover window; one queued instance is recovery enough.
    fn has_live_pending(&self, job: &JobKey) -> bool {
        self.jobs.get(job).is_some_and(|r| !r.finished && r.pending > 0)
    }

    /// The common tail of the three recovery paths: one new instance per
    /// job of `jobs` that has none queued, after one op for the lookup that
    /// found them.
    fn reinstance(&mut self, jobs: impl IntoIterator<Item = JobKey>) -> (Vec<TaskId>, Charge) {
        let mut created = Vec::new();
        let mut charge = Charge::ops(1);
        for job in jobs {
            if self.has_live_pending(&job) {
                continue;
            }
            if let Some(id) = self.create_instance(job) {
                created.push(id);
                charge += Charge::ops(2);
            }
        }
        (created, charge)
    }

    /// Whether this coordinator's silence from a server says anything about
    /// `row`, an instance indexed on it: yes for a row dispatched from here
    /// (the server answered *us* to get it), and for a replicated row whose
    /// dispatch predates the server's last word here (it held the task
    /// while it was still talking to us).  A task some other coordinator
    /// gave the server after it stopped talking to us is that
    /// coordinator's to watch — silence testifies only about what came
    /// before it.
    fn silence_covers(row: &TaskRow, heard: Option<SimTime>) -> bool {
        row.locally_dispatched
            || match row.state {
                TaskState::Ongoing { since, .. } => heard.is_some_and(|at| since < at),
                _ => true,
            }
    }

    /// Server suspected: schedule new instances of its ongoing tasks
    /// ("when a coordinator suspects a server failure, it schedules new
    /// instances of all RPC calls forwarded to the suspect") — of those the
    /// suspicion covers (dispatched from here, or dispatched anywhere before
    /// the server last spoke here — `silence_covers`); the rest stay indexed
    /// for the beat-driven [`Self::reconcile_server`].  The old instances
    /// stay ongoing — off-line computing means the server may still
    /// deliver them later; duplicates are dropped at completion.
    pub fn server_suspected(&mut self, server: ServerId) -> (Vec<TaskId>, Charge) {
        let heard = self.server_heard.get(&server).copied();
        let (tasks, jobs) = (&self.tasks, &self.jobs);
        let mut victims: Vec<JobKey> = Vec::new();
        if let Some(set) = self.by_server.get_mut(&server) {
            set.retain(|id| {
                let Some(row) = tasks.get(id) else { return false };
                if !Self::silence_covers(row, heard) {
                    return true;
                }
                if !jobs.get(&row.desc.job).is_some_and(|j| j.finished) {
                    victims.push(row.desc.job);
                }
                false
            });
            if set.is_empty() {
                self.by_server.remove(&server);
            }
        }
        self.reinstance(victims)
    }

    /// The instances indexed on `server` (ongoing there as far as this
    /// coordinator knows, and not yet given up on), in id order.
    #[doc(hidden)]
    pub fn indexed_on(&self, server: ServerId) -> Vec<TaskId> {
        self.by_server.get(&server).map(|set| set.iter().copied().collect()).unwrap_or_default()
    }

    /// The servers some instance is indexed on: every server this
    /// coordinator still answers for, whoever it beats now.
    #[doc(hidden)]
    pub fn indexed_servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.by_server.keys().copied()
    }

    /// When `server` last spoke to this coordinator, if ever.
    #[doc(hidden)]
    pub fn server_heard(&self, server: ServerId) -> Option<SimTime> {
        self.server_heard.get(&server).copied()
    }

    /// Re-stamps an ongoing task's dispatch instant (the `Assign` message
    /// may leave well after `next_pending` when the database is backlogged;
    /// reconciliation grace periods must count from the actual send).
    pub fn restamp_ongoing(&mut self, task: TaskId, at: SimTime) {
        if let Some(row) = self.tasks.get_mut(&task) {
            if let TaskState::Ongoing { server, .. } = row.state {
                row.state = TaskState::Ongoing { server, since: at };
            }
        }
    }

    /// Reconciles a server's beat against its assigned tasks: any task
    /// dispatched to `server` longer than `grace` ago that the server does
    /// not report as running (or queued) was lost in an intermittent crash
    /// the suspicion timeout never saw ("components may leave the system
    /// for any period of time without prior notification ... and may
    /// restart in a state inconsistent with the rest of the system",
    /// §2.2).  New instances are created for the lost jobs.
    pub fn reconcile_server(
        &mut self,
        server: ServerId,
        running: &[TaskId],
        now: SimTime,
        grace: rpcv_simnet::SimDuration,
    ) -> (Vec<TaskId>, Charge) {
        self.server_heard.insert(server, now);
        // Sorted copy + binary search: same membership test as a set, no
        // per-node allocations on this per-beat hot path.
        let mut running: Vec<TaskId> = running.to_vec();
        running.sort_unstable();
        let lost: Vec<(TaskId, JobKey)> = self
            .by_server
            .get(&server)
            .map(|set| {
                set.iter()
                    .filter(|id| running.binary_search(id).is_err())
                    .filter_map(|id| self.tasks.get(id))
                    .filter(|r| match r.state {
                        TaskState::Ongoing { since, .. } => now.since(since) > grace,
                        _ => false,
                    })
                    .filter(|r| !self.is_finished(&r.desc.job))
                    .map(|r| (r.desc.id, r.desc.job))
                    .collect()
            })
            .unwrap_or_default();
        if let Some(set) = self.by_server.get_mut(&server) {
            for (old, _) in &lost {
                set.remove(old);
            }
        }
        self.reinstance(lost.into_iter().map(|(_, job)| job))
    }

    /// Predecessor coordinator suspected: replicated *ongoing* tasks of
    /// that origin become schedulable here ("ongoing tasks are not
    /// scheduled until the coordinator replica suspects the disconnection
    /// of its predecessor").
    pub fn release_origin(&mut self, origin: CoordId) -> (Vec<TaskId>, Charge) {
        let held: BTreeSet<JobKey> = self
            .tasks
            .values()
            .filter(|r| {
                r.origin == origin
                    && !r.locally_dispatched
                    && matches!(r.state, TaskState::Ongoing { .. })
                    && !self.is_finished(&r.desc.job)
            })
            .map(|r| r.desc.job)
            .collect();
        self.reinstance(held)
    }

    // --- client result collection --------------------------------------------

    /// `client`'s retained archives as `(seq, row)`, in seq order: a range
    /// read over the client's contiguous key range (`JobKey` orders by
    /// client first) — cost follows the client's own resident rows, not
    /// the whole table.
    fn client_archives(&self, client: ClientKey) -> impl Iterator<Item = (u64, &ArchiveRow)> + '_ {
        self.jobs
            .range(JobKey { client, seq: 0 }..=JobKey { client, seq: u64::MAX })
            .filter_map(|(job, row)| Some((job.seq, row.archive.as_ref()?)))
    }

    /// Scan-based reference definition of the full result catalog — every
    /// retained result for `client`, collected or not; only archives
    /// already garbage-collected are truly gone — kept for the equivalence
    /// property tests (a client merging [`Self::results_catalog_since`]
    /// deltas from base 0 must converge to exactly this).
    #[doc(hidden)]
    pub fn results_catalog_scan(&self, client: ClientKey) -> Vec<(u64, u64)> {
        self.client_archives(client).map(|(seq, a)| (seq, a.payload.len())).collect()
    }

    /// Incremental result catalog: everything that changed in `client`'s
    /// catalog since version `since` (0 = full catalog).  A range read over
    /// the per-client catalog change index — O(changed · log n), never a
    /// rescan of the archive table.  The client echoes the returned `head`
    /// in its next beat, so a steady-state beat carries only the results
    /// that finished (or were reclaimed) since the previous one.
    pub fn results_catalog_since(&self, client: ClientKey, since: u64) -> CatalogDelta {
        let mut delta = CatalogDelta { head: self.version, ..CatalogDelta::default() };
        if since >= self.version {
            return delta;
        }
        let lo = (client, since + 1);
        let hi = (client, u64::MAX);
        for (&(_, _), &seq) in self.catalog.range(lo..=hi) {
            if let Some(payload) = self.archive(&JobKey { client, seq }) {
                delta.added.push((seq, payload.len()));
            }
        }
        for (&(_, _), &seq) in self.catalog_removed.range(lo..=hi) {
            delta.removed.push(seq);
        }
        delta
    }

    /// Drops removal tombstones `client` has already merged (catalog
    /// versions ≤ `upto`, its acknowledged high-water mark).  The catalog
    /// index is single-consumer — client `C` is the only reader of `C`'s
    /// range — so an acknowledged removal record can never be needed
    /// again; without pruning, the index (and every post-epoch-change
    /// full catalog fetch) would grow with the lifetime GC count instead
    /// of staying bounded by live entries + the un-acked window.
    /// Returns the number of tombstones dropped.
    pub fn prune_catalog_acked(&mut self, client: ClientKey, upto: u64) -> u64 {
        if upto == 0 {
            return 0;
        }
        let mut dropped = 0;
        while let Some(entry) = self.catalog_removed.range((client, 1)..=(client, upto)).next() {
            let (&at, &seq) = entry;
            self.catalog_removed.remove(&at);
            dropped += 1;
            // The tombstone was the last thing a pruned job's stub row
            // held: the row leaves with it.
            let job = JobKey { client, seq };
            if let Some(row) = self.jobs.get_mut(&job) {
                row.catalog_pos = 0;
                if row.is_vacant() {
                    self.jobs.remove(&job);
                }
            }
        }
        dropped
    }

    /// The archive payload for one job.
    pub fn archive(&self, job: &JobKey) -> Option<&Blob> {
        self.jobs.get(job)?.archive.as_ref().map(|a| &a.payload)
    }

    /// Marks results as collected by the client (GC eligibility), recording
    /// the acknowledgement as replicable knowledge.  A known job without a
    /// retained archive goes straight to the `Collected` terminal state —
    /// this is how a promoted successor learns collection directly from a
    /// client's re-acknowledgement when the old primary died before
    /// replicating it.
    pub fn mark_collected(&mut self, client: ClientKey, seqs: &[u64]) -> Charge {
        let mut ops = 0;
        for &seq in seqs {
            if self.note_collected(JobKey { client, seq }, Provenance::LOCAL) {
                ops += 1;
            }
        }
        Charge::ops(ops.max(1))
    }

    /// Drops collected archives (triggered GC); returns bytes freed.
    ///
    /// The reclaimed jobs enter the `Collected` terminal state: the client
    /// confirmed durably holding the result, so the job is *delivered*, not
    /// missing — it must never be re-executed or re-acquired from servers
    /// just because its archive is gone.
    ///
    /// Served from the maintained collected-flag set: O(flagged), never an
    /// archive-table scan (reference: [`Self::collected_flagged_scan`]).
    pub fn gc_collected(&mut self) -> (u64, Charge) {
        let victims = std::mem::take(&mut self.collected_flagged);
        let mut freed = 0;
        for &k in &victims {
            let Some(row) = self.jobs.get_mut(&k) else { continue };
            let Some(archive) = row.archive.take() else { continue };
            freed += archive.payload.len();
            self.archived_rows -= 1;
            if !row.collected {
                row.collected = true;
                self.collected_rows += 1;
            }
            // The entry flips to a removal record for catalog deltas.
            Self::touch_catalog(
                &mut self.catalog,
                &mut self.catalog_removed,
                &mut self.version,
                row,
                k,
            );
            self.advance_collected_contig(k.client);
        }
        (freed, Charge::ops(victims.len() as u64 + 1))
    }

    /// The GC-eligible set: retained archives whose collection the client
    /// acknowledged (maintained incrementally — O(flagged) to read).
    pub fn collected_flagged(&self) -> Vec<JobKey> {
        self.collected_flagged.iter().copied().collect()
    }

    /// Scan-based reference definition of [`Self::collected_flagged`],
    /// kept for the equivalence property tests: what a pre-index GC would
    /// find by walking the archive table.
    #[doc(hidden)]
    pub fn collected_flagged_scan(&self) -> Vec<JobKey> {
        self.jobs
            .iter()
            .filter(|(_, r)| r.archive.as_ref().is_some_and(|a| a.collected))
            .map(|(k, _)| *k)
            .collect()
    }

    // --- task checkpoints (extension) -------------------------------------------

    /// Monotone checkpoint merge shared by the upload path and delta
    /// application: records `unit_hw`/`blob` for `job` unless an equal or
    /// higher mark is already held (replaying any prefix of uploads, in
    /// any order, therefore yields a non-decreasing resume mark).  Returns
    /// true when the row moved (and was re-stamped into the change index).
    fn note_ckpt(&mut self, job: JobKey, unit_hw: u32, blob: Blob, from: Provenance) -> bool {
        let Some(row) = self.jobs.get_mut(&job).filter(|r| r.spec.is_some()) else {
            return false; // a job row always precedes its ckpt rows
        };
        let old = match row.ckpt.as_ref() {
            Some(ckpt) if ckpt.unit_hw >= unit_hw => return false,
            Some(ckpt) => ckpt.version,
            None => 0,
        };
        // Finished ⇒ no resume-state payload is ever retained (mirrors
        // the in-place clearing of `mark_finished` on the apply path).
        let blob = if row.finished { Blob::empty() } else { blob };
        let version =
            Self::touch(&mut self.changed, &mut self.version, old, Changed::Ckpt(job), from);
        match row.ckpt.as_mut() {
            Some(ckpt) => **ckpt = CkptRow { unit_hw, blob, version },
            None => {
                row.ckpt = Some(Box::new(CkptRow { unit_hw, blob, version }));
                self.ckpt_rows += 1;
            }
        }
        true
    }

    /// The registered work-unit count of `job` (the authority a checkpoint
    /// upload's self-declared progress is checked against).
    pub fn job_work_units(&self, job: &JobKey) -> Option<u32> {
        self.spec(job).map(|s| s.work_units.max(1))
    }

    /// True when `job` already has its result (finished or `Collected`):
    /// nothing of it will be dispatched again, so a resume point is dead
    /// weight.
    fn has_result(&self, job: &JobKey) -> bool {
        self.jobs.get(job).is_some_and(|r| r.finished || r.collected)
    }

    /// Records a checkpoint uploaded by a server.  Refused (beyond the
    /// monotone rule) for jobs already finished or collected — their
    /// result exists, so a resume point is dead weight — for unknown
    /// jobs, and for marks at or past the job's *registered* unit count:
    /// the frame's own `units_total` is uploader-declared, and a weakly
    /// controlled node must not be able to over-claim progress and hand a
    /// successor a near-complete bank for work never computed.  Returns
    /// whether the mark advanced, plus the storage cost.
    pub fn record_checkpoint(&mut self, job: JobKey, unit_hw: u32, blob: Blob) -> (bool, Charge) {
        if self.has_result(&job) {
            return (false, Charge::ops(1));
        }
        match self.job_work_units(&job) {
            Some(units) if unit_hw < units => {}
            _ => return (false, Charge::ops(1)),
        }
        let size = blob.len();
        if self.note_ckpt(job, unit_hw, blob, Provenance::LOCAL) {
            // One row update plus the state blob to the archive filesystem.
            (true, Charge::db(1, 0) + Charge::disk(size))
        } else {
            (false, Charge::ops(1))
        }
    }

    /// The resume point a fresh instance of `job` should start from:
    /// `(unit high-water mark, state)`.  `None` when there is no useful
    /// point — no checkpoint recorded, or the job already has its result
    /// (finished/collected), so nothing will be dispatched anyway.
    pub fn resume_point(&self, job: &JobKey) -> Option<(u32, &Blob)> {
        let row = self.jobs.get(job)?;
        if row.finished || row.collected {
            return None;
        }
        let ckpt = row.ckpt.as_ref()?;
        (ckpt.unit_hw > 0).then_some((ckpt.unit_hw, &ckpt.blob))
    }

    /// Raw checkpoint high-water mark for `job`, finished or not
    /// (introspection/harness use; dispatch goes through
    /// [`Self::resume_point`]).
    pub fn ckpt_high_water(&self, job: &JobKey) -> Option<u32> {
        self.jobs.get(job)?.ckpt.as_ref().map(|c| c.unit_hw)
    }

    /// Scan-based reference view of every checkpoint row, kept for the
    /// equivalence property tests: `(job, unit high-water mark)` in key
    /// order.
    #[doc(hidden)]
    pub fn ckpt_scan(&self) -> Vec<(JobKey, u32)> {
        self.jobs.iter().filter_map(|(&j, r)| Some((j, r.ckpt.as_ref()?.unit_hw))).collect()
    }

    // --- replication -----------------------------------------------------------

    /// Builds the delta of everything changed since `base` version.
    ///
    /// A range read over the version-ordered change index: only rows with
    /// `version > base` are visited — O(changed · log n), independent of
    /// table size.  Client marks and collection acknowledgements are
    /// versioned like any other row, so a steady-state round carries only
    /// the marks that actually moved and the collections acknowledged
    /// since the last round (the full-table predecessor re-sent every
    /// known client each round).  Rows come out in version order, which
    /// guarantees a job row precedes its task and collected rows.
    ///
    /// This is the *complete* feed — bootstraps and the scan references
    /// are all defined by it — for `base == 0` and for every `base` at or
    /// above [`Self::delta_floor`].  From zero it leads with one
    /// [`DeltaRow::Retired`] row per client, the summary of everything
    /// retention pruned: whoever applies it holds all this database knows.
    /// The round to a ring peer is [`Self::feed_for`], the same builder
    /// with that peer's own rows left out.
    pub fn delta_since(&self, base: u64) -> ReplicationDelta {
        self.build_delta(base, None)
    }

    /// The feed for ring peer `to`, which acknowledged `base`:
    /// [`Self::delta_since`]`(base)` minus the entries last written by a
    /// feed *from* `to` — a row is never sent back to the peer it was
    /// learned from (that peer holds it at an equal or higher state, so
    /// re-applying it there is a no-op the sender would still pay to read,
    /// size and ship).  Skipped entries cost one index step each: no row
    /// lookup, no clone.
    ///
    /// A base below [`Self::delta_floor`] cannot be tailed — retention
    /// pruned rows past it — so the feed starts over from zero
    /// (`base_version` says which base was served).  And a from-zero feed
    /// is a bootstrap, complete by definition: nothing is skipped and the
    /// retired watermarks lead.  That is what keeps a disk wipe safe — a
    /// wiped peer lost its applied-head record along with its rows, so it
    /// refuses every `base > 0` feed as a gap, and the reseed it asks for
    /// carries every row, its own included, and every watermark, however
    /// this database came to know it.
    pub fn feed_for(&self, to: CoordId, base: u64) -> ReplicationDelta {
        let base = if base < self.delta_floor { 0 } else { base };
        self.build_delta(base, (base > 0).then_some(Provenance::peer(to)))
    }

    /// The one feed builder: the retired watermarks when `base` is 0, then
    /// the rows changed since `base`, in version order, leaving out entries
    /// whose provenance is `skip`.
    fn build_delta(&self, base: u64, skip: Option<Provenance>) -> ReplicationDelta {
        let mut rows = Vec::new();
        if base == 0 {
            rows.extend(self.retired_rows());
        }
        for (_, entry) in
            self.changed.range((std::ops::Bound::Excluded(base), std::ops::Bound::Unbounded))
        {
            if Some(entry.from) == skip {
                continue;
            }
            match entry.row {
                Changed::Job(key) => {
                    if let Some(spec) = self.spec(&key) {
                        rows.push(DeltaRow::Job(spec.clone()));
                    }
                }
                Changed::Task(id) => {
                    if let Some(row) = self.tasks.get(&id) {
                        rows.push(DeltaRow::Task(TaskRecord {
                            id: row.desc.id,
                            job: row.desc.job,
                            attempt: row.desc.attempt,
                            state: row.state,
                            origin: row.origin,
                        }));
                    }
                }
                Changed::Mark(client) => {
                    if let Some(row) = self.client_max.get(&client) {
                        rows.push(DeltaRow::Mark { client, mark: row.mark });
                    }
                }
                Changed::Collected(job) => {
                    if self.has_collected_knowledge(&job) {
                        rows.push(DeltaRow::Collected { job });
                    }
                }
                Changed::Ckpt(job) => {
                    if let Some(ckpt) = self.jobs.get(&job).and_then(|r| r.ckpt.as_ref()) {
                        rows.push(DeltaRow::Ckpt {
                            job,
                            unit_hw: ckpt.unit_hw,
                            blob: ckpt.blob.clone(),
                        });
                    }
                }
            }
        }
        ReplicationDelta { from: self.me, base_version: base, head_version: self.version, rows }
    }

    /// One [`DeltaRow::Retired`] row per client with a retired prefix.
    fn retired_rows(&self) -> impl Iterator<Item = DeltaRow> + '_ {
        self.retired_below.iter().map(|(&client, &through)| DeltaRow::Retired { client, through })
    }

    /// Full-table-scan reference definition of [`Self::delta_since`], kept
    /// for the equivalence property tests.
    /// (Marks, collection acknowledgements and checkpoints carry no
    /// per-row version in this definition, so it re-sends every known
    /// client's mark, every collected job and every checkpoint row, as a
    /// pre-index implementation would.)
    #[doc(hidden)]
    pub fn delta_since_scan(&self, base: u64) -> ReplicationDelta {
        let retired = self.retired_rows().filter(|_| base == 0);
        let jobs = self
            .jobs
            .values()
            .filter(|r| r.version > base)
            .filter_map(|r| r.spec.clone())
            .map(DeltaRow::Job);
        let tasks = self.tasks.values().filter(|r| r.version > base).map(|r| {
            DeltaRow::Task(TaskRecord {
                id: r.desc.id,
                job: r.desc.job,
                attempt: r.desc.attempt,
                state: r.state,
                origin: r.origin,
            })
        });
        let marks =
            self.client_max.iter().map(|(&c, r)| DeltaRow::Mark { client: c, mark: r.mark });
        let terminal = self.jobs.iter().filter(|(_, r)| r.collected);
        let flagged =
            self.jobs.iter().filter(|(_, r)| r.archive.as_ref().is_some_and(|a| a.collected));
        let collected = terminal.chain(flagged).map(|(&job, _)| DeltaRow::Collected { job });
        let ckpts = self.jobs.iter().filter_map(|(&job, r)| {
            let ckpt = r.ckpt.as_ref()?;
            Some(DeltaRow::Ckpt { job, unit_hw: ckpt.unit_hw, blob: ckpt.blob.clone() })
        });
        ReplicationDelta {
            from: self.me,
            base_version: base,
            head_version: self.version,
            rows: retired
                .chain(jobs)
                .chain(tasks)
                .chain(marks)
                .chain(collected)
                .chain(ckpts)
                .collect(),
        }
    }

    /// Applies one replicated job description learned from `from`.
    fn apply_job_row(&mut self, spec: JobSpec, from: Provenance) -> Charge {
        let key = spec.key;
        if key.seq <= self.retired_watermark(key.client) {
            // A stale feed must not resurrect a retired job's rows; the
            // mark still merges (marks are never pruned).
            self.note_mark(key.client, key.seq, from);
            return Charge::ops(1);
        }
        let charge = if !self.knows_job(&key) {
            let params_len = spec.params.len();
            let v = Self::touch(&mut self.changed, &mut self.version, 0, Changed::Job(key), from);
            let row = self.jobs.entry(key).or_default();
            row.spec = Some(spec);
            row.version = v;
            self.registered_rows += 1;
            Charge::db(1, params_len)
        } else {
            Charge::ops(1)
        };
        self.note_mark(key.client, key.seq, from);
        charge
    }

    /// Applies one replicated task row under the paper's merge rules.
    fn apply_task_row(&mut self, rec: &TaskRecord, from: Provenance) {
        let Some(job) = self.jobs.get_mut(&rec.job) else { return };
        // Task for an unknown job: ignore (will come later).
        let Some(spec) = job.spec.as_ref() else { return };
        let mut newly_finished = false;
        match self.tasks.get_mut(&rec.id) {
            None => {
                // The payload clones (service/cmdline/params) are only
                // needed to mint a new row — the far more common
                // state-update path below stays allocation-free.
                let desc = Self::describe(spec, rec.id, rec.attempt);
                let v = Self::touch(
                    &mut self.changed,
                    &mut self.version,
                    0,
                    Changed::Task(rec.id),
                    from,
                );
                job.next_attempt = job.next_attempt.max(rec.attempt + 1);
                self.tasks.insert(
                    rec.id,
                    TaskRow {
                        desc,
                        state: rec.state,
                        origin: rec.origin,
                        locally_dispatched: false,
                        version: v,
                    },
                );
                job.tasks.push(rec.id);
                match rec.state {
                    TaskState::Pending => Self::push_pending(
                        &mut self.pending,
                        &mut self.queued_live,
                        &mut self.pending_live,
                        job,
                        rec.id,
                    ),
                    TaskState::Ongoing { server, .. } => {
                        // Held until release_origin — but indexed by server,
                        // so the beat-driven reconciliation can reclaim it if
                        // that server reports the task lost.  Without the
                        // index, a task dispatched by a live-but-demoted
                        // predecessor is unrecoverable: the dispatcher no
                        // longer hears the server's beats, and this node
                        // would hold the row forever out of respect for the
                        // live peer.
                        self.by_server.entry(server).or_default().insert(rec.id);
                    }
                    TaskState::Finished { .. } => newly_finished = true,
                }
            }
            Some(row) => {
                if state_rank(&rec.state) > state_rank(&row.state) {
                    if matches!(row.state, TaskState::Pending) {
                        Self::entry_died(&mut self.queued_live, &mut self.pending_live, job);
                    }
                    // Keep the per-server index in step with the state
                    // transition (Pending→Ongoing indexes, Ongoing→Finished
                    // un-indexes; `complete_task` doing the same removal for
                    // locally finished rows is an idempotent no-op here).
                    if let TaskState::Ongoing { server, .. } = row.state {
                        if let Some(set) = self.by_server.get_mut(&server) {
                            set.remove(&rec.id);
                        }
                    }
                    if let TaskState::Ongoing { server, .. } = rec.state {
                        self.by_server.entry(server).or_default().insert(rec.id);
                    }
                    row.state = rec.state;
                    let v = Self::touch(
                        &mut self.changed,
                        &mut self.version,
                        row.version,
                        Changed::Task(rec.id),
                        from,
                    );
                    row.version = v;
                    if matches!(rec.state, TaskState::Finished { .. }) {
                        newly_finished = true;
                    }
                }
            }
        }
        // Any replicated Finished row is finished-knowledge, whatever its
        // size: `result_size: 0` is only ever written by a coordinator
        // retiring an instance *because its own finished set holds the
        // job*.  Discarding it wedges re-execution: the re-executing
        // coordinator's fresh instance gets retired by a peer that
        // remembers the job as finished, the retire row replicates back
        // as Finished{0}, and without this mark the re-executor never
        // relearns the job is done — so it never lists the archive as
        // missing and never pulls it from the peer that has it.
        if newly_finished {
            Self::mark_finished(
                job,
                rec.job,
                &mut self.finished_rows,
                &mut self.pending_live,
                &mut self.missing,
                &mut self.missing_added,
            );
        }
    }

    /// Applies a delta from a peer; returns the cost.
    ///
    /// Merge rules (paper §4.2): finished is terminal; ongoing from the
    /// peer is *held* (not schedulable) until [`Self::release_origin`];
    /// pending becomes locally schedulable.  State precedence
    /// finished > ongoing > pending prevents downgrades from stale deltas.
    /// Collection acknowledgements are terminal knowledge: a collected job
    /// is exempt from re-execution and archive re-acquisition here exactly
    /// as it was on the sender.  Rows are applied in the sender's version
    /// order, which places every job before the task/collected rows that
    /// reference it.
    pub fn apply_delta(&mut self, delta: &ReplicationDelta) -> Charge {
        self.apply_rows(delta.from, delta.rows.iter().cloned()).charge
    }

    /// [`Self::apply_delta`] for a caller that owns the frame: job
    /// descriptions and checkpoint state move into the tables instead of
    /// being cloned, and the collection acknowledgements that were news
    /// come back with the cost.
    pub fn apply_delta_owned(&mut self, delta: ReplicationDelta) -> Applied {
        self.apply_rows(delta.from, delta.rows.into_iter())
    }

    /// The row-application loop: rows are merged under the receiver's own
    /// version counter, and every row the merge writes is stamped as
    /// learned from `peer`.
    fn apply_rows(&mut self, peer: CoordId, rows: impl Iterator<Item = DeltaRow>) -> Applied {
        let from = Provenance::peer(peer);
        let mut applied = Applied { charge: Charge::ops(1), newly_collected: Vec::new() };
        for row in rows {
            applied.charge += match row {
                DeltaRow::Job(spec) => self.apply_job_row(spec, from),
                DeltaRow::Task(rec) => {
                    self.apply_task_row(&rec, from);
                    Charge::ops(1)
                }
                DeltaRow::Mark { client, mark } => {
                    self.note_mark(client, mark, from);
                    Charge::ZERO
                }
                DeltaRow::Collected { job } => {
                    if self.note_collected(job, from) {
                        applied.newly_collected.push(job);
                    }
                    Charge::ops(1)
                }
                DeltaRow::Ckpt { job, unit_hw, blob } => {
                    // Knowledge merge (not an upload gate): monotone on the
                    // mark, accepted even for locally finished jobs so a
                    // delta-fed replica holds exactly the sender's rows.
                    let size = blob.len();
                    if self.note_ckpt(job, unit_hw, blob, from) {
                        Charge::db(1, 0) + Charge::disk(size)
                    } else {
                        Charge::ops(1)
                    }
                }
                DeltaRow::Retired { client, through } => {
                    self.retire_through(client, through, from, &mut applied.newly_collected)
                }
            };
        }
        self.maybe_compact_pending();
        applied
    }

    // --- retention and bootstrap -------------------------------------------

    /// Retires delivered jobs whose every row has replicated: for each
    /// client, walks the contiguous-collected prefix above the retired
    /// watermark and prunes each job's rows (job, tasks, collected, ckpt)
    /// from the tables and the change index, provided no row's version
    /// exceeds `min_acked` (the feed consumer's acknowledged version — a
    /// replica with `acked ≥ v` already holds every row stamped ≤ `v`:
    /// it was sent the row, or [`Self::feed_for`] skipped it because the
    /// replica is the one that taught it).
    /// Client marks are never pruned: the retained mark keeps
    /// `client_max ≥ seq` for every retired job, so the owning client's
    /// log GC/replay protocol (replay only above `coord_max`) can never
    /// resubmit one.
    ///
    /// Pruning raises [`Self::delta_floor`]; a consumer whose base falls
    /// below the floor is bootstrapped from zero ([`Self::feed_for`]).
    ///
    /// O(clients) when nothing is retirable; otherwise O(rows pruned).
    /// Returns the number of jobs retired.
    pub fn prune_retired(&mut self, min_acked: u64) -> u64 {
        if self.collected_contig.is_empty() {
            return 0;
        }
        let clients: Vec<ClientKey> = self.collected_contig.keys().copied().collect();
        let mut pruned = 0;
        for client in clients {
            let w = self.contig_watermark(client);
            let start = self.retired_watermark(client);
            let mut r = start;
            while r < w {
                let k = JobKey { client, seq: r + 1 };
                if !self.job_prunable(&k, min_acked) {
                    break;
                }
                self.prune_job(&k);
                r += 1;
                pruned += 1;
            }
            if r > start {
                self.retired_below.insert(client, r);
            }
        }
        pruned
    }

    /// True when every row of `k` — a `Collected`-terminal job — has a
    /// version at or below `min_acked`, i.e. the feed consumer already
    /// holds all of them and the rows can be dropped from the feed.
    fn job_prunable(&self, k: &JobKey, min_acked: u64) -> bool {
        let Some(row) = self.jobs.get(k) else { return false };
        // Only delivered, registered work retires.
        row.collected
            && row.spec.is_some()
            && row.version <= min_acked
            && row.collected_pos <= min_acked
            && row.ckpt.as_ref().is_none_or(|c| c.version <= min_acked)
            && row.tasks.iter().filter_map(|id| self.tasks.get(&id)).all(|t| t.version <= min_acked)
    }

    /// Removes every row of retired job `k` from the tables and the
    /// change index, maintaining the secondary indexes and the pending
    /// accounting, and raises the delta floor past the pruned versions.
    ///
    /// Two attributes are *not* a retired job's to take along and stay
    /// behind in a stub row: its catalog tombstone (the client has not
    /// acknowledged the removal yet) and — when a feed's watermark
    /// retires a lagging replica's job that was never collected here — a
    /// still-retained archive with its catalog entry and GC flag.
    fn prune_job(&mut self, k: &JobKey) {
        let Some(row) = self.jobs.get_mut(k) else { return };
        let gone = std::mem::take(row);
        row.archive = gone.archive;
        row.catalog_pos = gone.catalog_pos;
        let vacant = row.is_vacant();
        for id in gone.tasks.iter() {
            let Some(task) = self.tasks.remove(&id) else { continue };
            self.changed.remove(&task.version);
            self.delta_floor = self.delta_floor.max(task.version);
            self.retired_tasks += 1;
            match task.state {
                TaskState::Ongoing { server, .. } => {
                    if let Some(set) = self.by_server.get_mut(&server) {
                        set.remove(&id);
                    }
                }
                TaskState::Pending => {
                    // Its queue entry dies in place exactly like a
                    // popped-state row's; compaction drops it later.
                    self.queued_live = self.queued_live.saturating_sub(1);
                    if !gone.finished {
                        self.pending_live = self.pending_live.saturating_sub(1);
                    }
                }
                TaskState::Finished { .. } => {}
            }
        }
        if gone.collected_pos != 0 {
            self.changed.remove(&gone.collected_pos);
            self.delta_floor = self.delta_floor.max(gone.collected_pos);
        }
        if gone.collected {
            self.collected_rows -= 1;
        }
        if let Some(ckpt) = gone.ckpt {
            self.changed.remove(&ckpt.version);
            self.delta_floor = self.delta_floor.max(ckpt.version);
            self.ckpt_rows -= 1;
        }
        if gone.spec.is_some() {
            self.changed.remove(&gone.version);
            self.delta_floor = self.delta_floor.max(gone.version);
            self.registered_rows -= 1;
        }
        if gone.finished {
            self.finished_rows -= 1;
            self.missing.remove(k);
        }
        if vacant {
            self.jobs.remove(k);
        }
    }

    /// Raises `client`'s retired prefix to `w` on the authority of a feed's
    /// [`DeltaRow::Retired`] row, pruning any still-resident rows of the
    /// retired jobs (a lagging replica may hold rows the sender already
    /// pruned).  Pruned jobs not known delivered before join `news`.
    fn retire_through(
        &mut self,
        client: ClientKey,
        w: u64,
        from: Provenance,
        news: &mut Vec<JobKey>,
    ) -> Charge {
        let start = self.retired_watermark(client);
        if w <= start {
            return Charge::ops(1);
        }
        let mut ops = 1;
        for seq in start + 1..=w {
            let k = JobKey { client, seq };
            if self.knows_job(&k) {
                if !self.has_collected_knowledge(&k) {
                    news.push(k);
                }
                self.prune_job(&k);
                ops += 1;
            }
        }
        self.retired_below.insert(client, w);
        let c = self.collected_contig.entry(client).or_insert(0);
        *c = (*c).max(w);
        // Terminal-collected rows just above the new prefix may have
        // become contiguous with it.
        self.advance_collected_contig(client);
        self.note_mark(client, w, from);
        Charge::ops(ops)
    }

    /// Alias of [`Self::delta_since`]`(0)`, the complete feed a peer that
    /// holds nothing is bootstrapped from; the frozen `benchmark/` package
    /// spells this name.
    pub fn snapshot(&self) -> ReplicationDelta {
        self.delta_since(0)
    }

    /// Highest change-index version ever pruned (0 = nothing pruned).
    /// [`Self::delta_since`] is complete only from zero and for bases at
    /// or above this floor; [`Self::feed_for`] restarts a consumer below it
    /// from zero.
    pub fn delta_floor(&self) -> u64 {
        self.delta_floor
    }

    /// Live change-index entries — one per resident row.  The
    /// bounded-memory gate: steady state tracks *live* jobs (plus one
    /// mark row per client), not lifetime jobs.
    pub fn resident_rows(&self) -> u64 {
        self.changed.len() as u64
    }

    /// Lifetime count of retired (pruned-after-delivery) jobs: seqs are
    /// 1-based and contiguous below each retired watermark, so the sum of
    /// watermarks *is* the count.
    pub fn retired_count(&self) -> u64 {
        self.retired_below.values().sum()
    }

    // --- introspection ------------------------------------------------------

    /// Looks up one task row.
    pub fn task(&self, id: TaskId) -> Option<&TaskRow> {
        self.tasks.get(&id)
    }

    /// Counters for reporting.
    pub fn stats(&self) -> DbStats {
        let mut pending = 0;
        let mut ongoing = 0;
        for r in self.tasks.values() {
            match r.state {
                TaskState::Pending => pending += 1,
                TaskState::Ongoing { .. } => ongoing += 1,
                TaskState::Finished { .. } => {}
            }
        }
        // Jobs / tasks / collected are lifetime counts: retention prunes
        // the rows of delivered jobs, and observers (completion
        // timelines, safety oracles) rely on these never dipping.
        DbStats {
            jobs: self.registered_rows + self.retired_count(),
            tasks: self.tasks.len() as u64 + self.retired_tasks,
            pending,
            ongoing,
            archived: self.archived_rows,
            duplicate_results: self.duplicate_results,
            collected: self.collected_rows + self.retired_count(),
            ckpts: self.ckpt_rows,
        }
    }

    /// Jobs finished (archive present, replicated-finished, or retired
    /// after delivery) — a lifetime count, monotone across retention.
    pub fn finished_count(&self) -> u64 {
        self.finished_rows + self.retired_count()
    }

    /// Jobs with an archive actually present here.
    pub fn archived_count(&self) -> u64 {
        self.archived_rows
    }

    /// Recount-based audit of everything [`JobRow`] maintains
    /// incrementally — per-row flags and counters against the task table,
    /// the table-wide counters (what `stats()`, `finished_count()` and
    /// `archived_count()` report) against a walk of the rows, and every
    /// side index against the row attribute it mirrors.  For the
    /// equivalence property tests; panics on the first violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut by_job: BTreeMap<JobKey, Vec<&TaskRow>> = BTreeMap::new();
        for t in self.tasks.values() {
            by_job.entry(t.desc.job).or_default().push(t);
        }
        let (mut registered, mut finished, mut collected, mut archived, mut ckpts) =
            (0, 0, 0, 0, 0);
        let (mut queued_live, mut pending_live, mut versioned) = (0, 0, 0);
        for (k, row) in &self.jobs {
            assert!(!row.is_vacant(), "{k:?}: vacant stub left in the table");
            let tasks = by_job.remove(k).unwrap_or_default();
            let mut ids: Vec<TaskId> = row.tasks.iter().collect();
            ids.sort_unstable();
            assert_eq!(ids, tasks.iter().map(|t| t.desc.id).collect::<Vec<_>>(), "{k:?}: tasks");
            let live = tasks.iter().filter(|t| matches!(t.state, TaskState::Pending)).count();
            assert_eq!(row.pending as usize, live, "{k:?}: live queue entries");
            assert!(tasks.iter().all(|t| t.desc.attempt < row.next_attempt), "{k:?}: attempts");
            queued_live += live;
            if !row.finished {
                pending_live += live;
            }
            let stamped = |v: u64, what: Changed| {
                let entry = self.changed.get(&v).map(|e| e.row);
                assert_eq!(entry, Some(what), "{k:?}: change-index entry");
                1
            };
            match &row.spec {
                Some(spec) => {
                    assert_eq!(spec.key, *k);
                    registered += 1;
                    versioned += stamped(row.version, Changed::Job(*k));
                    // What this node knows finished, the ring can learn:
                    // from a `Finished` instance row, or the collected row.
                    let told = row.collected_pos != 0
                        || tasks.iter().any(|t| matches!(t.state, TaskState::Finished { .. }));
                    assert!(!row.finished || told, "{k:?}: finished, and no feed row says so");
                }
                None => {
                    assert!(tasks.is_empty() && row.ckpt.is_none(), "{k:?}: stub owns rows");
                    assert_eq!((row.version, row.next_attempt), (0, 0), "{k:?}: stub state");
                }
            }
            if row.collected_pos != 0 {
                versioned += stamped(row.collected_pos, Changed::Collected(*k));
            }
            if let Some(ckpt) = &row.ckpt {
                ckpts += 1;
                versioned += stamped(ckpt.version, Changed::Ckpt(*k));
                assert!(!row.finished || ckpt.blob.is_empty(), "{k:?}: finished job kept state");
            }
            finished += row.finished as u64;
            collected += row.collected as u64;
            archived += row.archive.is_some() as u64;
            assert!(!(row.collected && row.archive.is_some()), "{k:?}: collected yet retained");
            let flagged = row.archive.as_ref().is_some_and(|a| a.collected);
            assert_eq!(self.collected_flagged.contains(k), flagged, "{k:?}: GC worklist");
            let missing = row.finished && row.archive.is_none() && !row.collected;
            assert_eq!(self.missing.contains(k), missing, "{k:?}: missing worklist");
            if row.catalog_pos != 0 {
                let (here, other) = if row.archive.is_some() {
                    (&self.catalog, &self.catalog_removed)
                } else {
                    (&self.catalog_removed, &self.catalog)
                };
                let at = (k.client, row.catalog_pos);
                assert_eq!(here.get(&at), Some(&k.seq), "{k:?}: catalog entry");
                assert!(!other.contains_key(&at), "{k:?}: catalog entry in both indexes");
            } else {
                assert!(row.archive.is_none(), "{k:?}: archive without a catalog entry");
            }
        }
        assert!(by_job.is_empty(), "task rows without a job row: {:?}", by_job.keys());
        // The per-server index holds only instances still ongoing on that
        // server: suspicion and reconciliation un-index the rows they gave
        // up on, and a row suspicion left behind must still be there for
        // the reconcile to find.
        for (server, set) in &self.by_server {
            for id in set {
                let state = self.tasks.get(id).map(|t| t.state);
                assert!(
                    matches!(state, Some(TaskState::Ongoing { server: s, .. }) if s == *server),
                    "{id:?} indexed on {server:?} in state {state:?}"
                );
            }
        }
        // Provenance: an entry is local or names a *peer*, and a row whose
        // last mutation can only have been this coordinator's own keeps no
        // peer stamp — a task still in the `Ongoing` state this node
        // dispatched it into was last written by that dispatch (the merge
        // only ever moves an ongoing row to finished).
        for (v, entry) in &self.changed {
            assert_ne!(entry.from, Provenance::peer(self.me), "v{v}: learned from itself");
            if let Changed::Task(id) = entry.row {
                let own_dispatch = self.tasks.get(&id).is_some_and(|t| {
                    t.locally_dispatched && matches!(t.state, TaskState::Ongoing { .. })
                });
                assert!(
                    !own_dispatch || entry.from == Provenance::LOCAL,
                    "{id:?}: locally dispatched row kept a peer provenance"
                );
            }
        }
        let catalogued = self.jobs.values().filter(|r| r.catalog_pos != 0).count();
        assert_eq!(self.catalog.len() + self.catalog_removed.len(), catalogued, "catalog size");
        assert_eq!(self.registered_rows, registered, "registered counter");
        assert_eq!(self.finished_rows, finished, "finished counter");
        assert_eq!(self.collected_rows, collected, "collected counter");
        assert_eq!(self.archived_rows, archived, "archived counter");
        assert_eq!(self.ckpt_rows, ckpts, "checkpoint counter");
        assert_eq!(self.queued_live, queued_live, "live queue entries");
        assert_eq!(self.pending_live, pending_live, "dispatchable queue entries");
        assert_eq!(
            self.changed.len(),
            versioned + self.tasks.len() + self.client_max.len(),
            "one change-index entry per live row"
        );
        let stats = self.stats();
        let retired = self.retired_count();
        assert_eq!((stats.jobs, stats.collected), (registered + retired, collected + retired));
        assert_eq!((stats.archived, stats.ckpts), (archived, ckpts));
        assert_eq!(self.finished_count(), finished + retired);
        assert_eq!(self.archived_count(), archived);
    }
}

fn state_rank(s: &TaskState) -> u8 {
    match s {
        TaskState::Pending => 0,
        TaskState::Ongoing { .. } => 1,
        TaskState::Finished { .. } => 2,
    }
}

fn desc_params(desc: &TaskDesc) -> u64 {
    desc.params.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_wire::{from_bytes, to_bytes};

    fn job(seq: u64) -> JobSpec {
        JobSpec::new(JobKey::new(ClientKey::new(1, 1), seq), "svc", Blob::synthetic(1000, seq))
            .with_exec_cost(5.0)
            .with_result_size(64)
            .with_work_units(64)
    }

    fn db() -> CoordinatorDb {
        CoordinatorDb::new(CoordId(1))
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn register_creates_task_and_is_idempotent() {
        let mut d = db();
        let (new, charge) = d.register_job(job(1));
        assert!(new);
        assert_eq!(charge.db_bytes, 1000);
        assert_eq!(d.stats().tasks, 1);
        assert_eq!(d.stats().pending, 1);
        let (again, _) = d.register_job(job(1));
        assert!(!again, "duplicate registration rejected");
        assert_eq!(d.stats().tasks, 1);
        assert_eq!(d.client_max(ClientKey::new(1, 1)), 1);
    }

    #[test]
    fn replication_flag_creates_redundant_instances() {
        let mut d = db();
        d.register_job(job(1).with_replication(3));
        assert_eq!(d.stats().tasks, 3);
        assert_eq!(d.stats().pending, 3);
    }

    #[test]
    fn fcfs_dispatch_order() {
        let mut d = db();
        d.register_job(job(1));
        d.register_job(job(2));
        let (t1, _) = d.next_pending(ServerId(9), T0);
        let (t2, _) = d.next_pending(ServerId(9), T0);
        assert_eq!(t1.unwrap().job.seq, 1);
        assert_eq!(t2.unwrap().job.seq, 2);
        let (t3, _) = d.next_pending(ServerId(9), T0);
        assert!(t3.is_none());
    }

    #[test]
    fn complete_dedups_at_least_once() {
        let mut d = db();
        d.register_job(job(1).with_replication(2));
        let (a, _) = d.next_pending(ServerId(1), T0);
        let (b, _) = d.next_pending(ServerId(2), T0);
        let (o1, c1) = d.complete_task(
            a.unwrap().id,
            JobKey::new(ClientKey::new(1, 1), 1),
            Blob::synthetic(64, 1),
            ServerId(1),
        );
        assert_eq!(o1, CompleteOutcome::NewResult);
        assert_eq!(c1.disk_bytes, 64);
        let (o2, _) = d.complete_task(
            b.unwrap().id,
            JobKey::new(ClientKey::new(1, 1), 1),
            Blob::synthetic(64, 2),
            ServerId(2),
        );
        assert_eq!(o2, CompleteOutcome::Duplicate);
        assert_eq!(d.stats().duplicate_results, 1);
        assert_eq!(d.archived_count(), 1);
    }

    #[test]
    fn unknown_job_result_rejected() {
        let mut d = db();
        let (o, _) = d.complete_task(
            TaskId::compose(CoordId(9), 1),
            JobKey::new(ClientKey::new(9, 9), 1),
            Blob::empty(),
            ServerId(1),
        );
        assert_eq!(o, CompleteOutcome::UnknownJob);
    }

    #[test]
    fn server_suspicion_creates_new_instances() {
        let mut d = db();
        d.register_job(job(1));
        d.register_job(job(2));
        let _ = d.next_pending(ServerId(5), T0);
        let _ = d.next_pending(ServerId(5), T0);
        assert_eq!(d.stats().ongoing, 2);
        let (created, _) = d.server_suspected(ServerId(5));
        assert_eq!(created.len(), 2);
        assert_eq!(d.stats().pending, 2, "fresh instances pending");
        assert_eq!(d.stats().ongoing, 2, "old instances may still complete off-line");
        // The late result from the suspect still lands (first wins).
        let job1 = JobKey::new(ClientKey::new(1, 1), 1);
        let old_task = d
            .tasks
            .values()
            .find(|r| r.desc.job == job1 && matches!(r.state, TaskState::Ongoing { .. }))
            .map(|r| r.desc.id)
            .unwrap();
        let (o, _) = d.complete_task(old_task, job1, Blob::synthetic(64, 0), ServerId(5));
        assert_eq!(o, CompleteOutcome::NewResult);
        // Its fresh sibling is now skipped by the scheduler.
        let mut dispatched = Vec::new();
        while let (Some(t), _) = d.next_pending(ServerId(6), T0) {
            dispatched.push(t.job.seq);
        }
        assert_eq!(dispatched, vec![2], "job 1's redundant instance skipped");
    }

    #[test]
    fn silence_testifies_only_about_what_came_before_it() {
        let at = SimTime::from_secs;
        let (server, grace) = (ServerId(5), rpcv_simnet::SimDuration::from_secs(5));
        let mut here = db();
        let mut there = CoordinatorDb::new(CoordId(2));
        for seq in 1..=3 {
            there.register_job(job(seq));
        }
        // The server took job 1 from the peer, spoke here at t = 10 (while
        // holding it), left, and took job 2 from the peer at t = 12.
        let (held, _) = there.next_pending(server, at(8));
        here.apply_delta(&there.delta_since(0));
        here.reconcile_server(server, &[held.unwrap().id], at(10), grace);
        let (later, _) = there.next_pending(server, at(12));
        here.apply_delta(&there.delta_since(0));
        assert_eq!(here.indexed_on(server).len(), 2);
        // Suspicion here covers job 1 only; job 2 stays indexed for the
        // beat-driven reconcile and gets no replacement.
        let (created, _) = here.server_suspected(server);
        assert_eq!(created.len(), 1);
        assert_eq!(here.task(created[0]).unwrap().desc.job.seq, 1);
        assert_eq!(here.indexed_on(server), vec![later.unwrap().id]);
        // The peer, which the server beats now, recovers both.
        there.reconcile_server(server, &there.indexed_on(server), at(13), grace);
        assert_eq!(there.server_suspected(server).0.len(), 2);
        assert!(there.indexed_on(server).is_empty());
        here.check_invariants();
        there.check_invariants();
    }

    #[test]
    fn delta_roundtrip_and_replica_rules() {
        let mut primary = db();
        primary.register_job(job(1)); // stays pending
        primary.register_job(job(2)); // will be ongoing
        primary.register_job(job(3)); // will be finished
        let (_t2, _) = {
            // dispatch job 1 first (FCFS), complete job 3's task via sibling
            let (ta, _) = primary.next_pending(ServerId(1), T0); // job1 -> ongoing
            (ta, ())
        };
        // job 1 ongoing; dispatch job 2 then finish it:
        let (tb, _) = primary.next_pending(ServerId(2), T0); // job2
        let tb = tb.unwrap();
        primary.complete_task(tb.id, tb.job, Blob::synthetic(10, 0), ServerId(2));

        let delta = primary.delta_since(0);
        assert_eq!(delta.jobs().count(), 3);
        assert_eq!(delta.tasks().count(), 3);

        let mut backup = CoordinatorDb::new(CoordId(2));
        backup.apply_delta(&delta);
        // Pending task (job 3) schedulable on the backup.
        // Ongoing task (job 1) held. Finished (job 2) never scheduled.
        let mut seen = Vec::new();
        while let (Some(t), _) = backup.next_pending(ServerId(7), T0) {
            seen.push(t.job.seq);
        }
        assert_eq!(seen, vec![3], "only the pending task is schedulable on a replica");
        // Predecessor suspected: held ongoing task released as new instance.
        let (released, _) = backup.release_origin(CoordId(1));
        assert_eq!(released.len(), 1);
        let (t, _) = backup.next_pending(ServerId(7), T0);
        assert_eq!(t.unwrap().job.seq, 1);
        // Released instance carries the backup's id space.
        assert!(backup.missing_archives().contains(&JobKey::new(ClientKey::new(1, 1), 2)));
    }

    #[test]
    fn delta_is_incremental() {
        let mut d = db();
        d.register_job(job(1));
        let v1 = d.version();
        let delta1 = d.delta_since(0);
        assert_eq!(delta1.jobs().count(), 1);
        d.register_job(job(2));
        let delta2 = d.delta_since(v1);
        assert_eq!(delta2.jobs().count(), 1, "only the new job since v1");
        assert_eq!(delta2.jobs().next().unwrap().key.seq, 2);
    }

    #[test]
    fn feed_never_returns_a_row_to_the_peer_that_taught_it() {
        let (peer, other) = (CoordId(1), CoordId(3));
        let mut primary = db();
        primary.register_job(job(1));
        let mut replica = CoordinatorDb::new(CoordId(2));
        replica.register_job(job(9)); // one row of its own
        let base = replica.version();
        replica.apply_delta_owned(primary.delta_since(0));
        // Job, task and mark all came from `peer`: nothing goes back there,
        // everything goes on to a third member, and a from-zero feed —
        // what a wiped `peer` would be reseeded from — is complete.
        assert!(replica.feed_for(peer, base).is_empty());
        assert_eq!(replica.feed_for(peer, base).head_version, replica.version());
        assert_eq!(replica.feed_for(other, base), replica.delta_since(base));
        assert_eq!(replica.feed_for(peer, 0), replica.delta_since(0));
        // A local mutation re-stamps a learned row as the replica's own:
        // dispatching the peer's task (after job 9's) puts it on the feed.
        let _ = replica.next_pending(ServerId(1), T0);
        let learned = replica.next_pending(ServerId(1), T0).0.expect("the peer's task");
        assert_eq!(learned.job.seq, 1);
        let feed = replica.feed_for(peer, base);
        assert_eq!(feed.tasks().last().map(|r| r.id), Some(learned.id));
        assert_eq!(feed.jobs().count(), 0, "the job row is still the peer's");
        replica.check_invariants();
    }

    #[test]
    fn apply_delta_never_downgrades_state() {
        let mut primary = db();
        primary.register_job(job(1));
        let (t, _) = primary.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        primary.complete_task(t.id, t.job, Blob::synthetic(10, 0), ServerId(1));
        let full = primary.delta_since(0);

        // Build a stale delta claiming the task is still pending.
        let mut stale = full.clone();
        for row in &mut stale.rows {
            if let DeltaRow::Task(rec) = row {
                rec.state = TaskState::Pending;
            }
        }

        let mut backup = CoordinatorDb::new(CoordId(2));
        backup.apply_delta(&full); // finished
        backup.apply_delta(&stale); // must not downgrade
        assert!(backup.task(t.id).map(|r| r.state.is_finished()).unwrap_or(false));
        // And nothing became schedulable.
        let (none, _) = backup.next_pending(ServerId(3), T0);
        assert!(none.is_none());
    }

    #[test]
    fn result_collection_and_gc() {
        let mut d = db();
        d.register_job(job(1));
        let (t, _) = d.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        d.complete_task(t.id, t.job, Blob::synthetic(500, 0), ServerId(1));
        let client = ClientKey::new(1, 1);
        assert_eq!(d.results_catalog_since(client, 0).added, vec![(1, 500)]);
        assert!(d.archive(&t.job).is_some());
        assert!(d.collected_flagged().is_empty());
        d.mark_collected(client, &[1]);
        assert_eq!(d.collected_flagged(), vec![t.job]);
        let (freed, _) = d.gc_collected();
        assert_eq!(freed, 500);
        assert!(d.archive(&t.job).is_none());
        // Finished state survives GC (no re-execution).
        assert_eq!(d.finished_count(), 1);
    }

    #[test]
    fn collected_is_terminal_no_reexecution_leak() {
        // A GC'd job whose client already pulled the result must never
        // return to the missing-archive set (the post-GC re-execution
        // leak) nor be re-executable or re-acquirable.
        let mut d = db();
        d.register_job(job(1));
        let (t, _) = d.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        d.complete_task(t.id, t.job, Blob::synthetic(500, 0), ServerId(1));
        let client = ClientKey::new(1, 1);
        d.mark_collected(client, &[1]);
        d.gc_collected();
        assert!(d.is_collected(&t.job));
        assert_eq!(d.stats().collected, 1);
        assert!(d.missing_archives().is_empty(), "collected ⇒ not missing");
        assert_eq!(d.missing_archives(), d.missing_archives_scan());
        let (tid, _) = d.reexecute_job(t.job);
        assert!(tid.is_none(), "re-execution refused for collected jobs");
        assert!(!d.wants_archive(&t.job), "no archive re-acquisition either");
        let c = d.store_archive(t.job, Blob::synthetic(500, 0));
        assert_eq!(c.disk_bytes, 0, "re-store is a no-op");
        assert_eq!(d.archived_count(), 0);
        // A late duplicate from a still-running replica instance is
        // recognized as a duplicate, not a fresh result.
        let (o, _) = d.complete_task(t.id, t.job, Blob::synthetic(500, 1), ServerId(2));
        assert_eq!(o, CompleteOutcome::Duplicate);
    }

    #[test]
    fn catalog_delta_tracks_store_and_gc() {
        let client = ClientKey::new(1, 1);
        let mut d = db();
        d.register_job(job(1));
        d.register_job(job(2));
        let mut hw = 0;
        let d0 = d.results_catalog_since(client, hw);
        assert!(d0.added.is_empty() && d0.removed.is_empty());
        hw = d0.head;
        // First result lands: delta carries exactly it.
        let (t, _) = d.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        d.complete_task(t.id, t.job, Blob::synthetic(100, 0), ServerId(1));
        let d1 = d.results_catalog_since(client, hw);
        assert_eq!(d1.added, vec![(1, 100)]);
        assert!(d1.removed.is_empty());
        hw = d1.head;
        // Nothing changed: empty delta, head stable for the catalog.
        let d2 = d.results_catalog_since(client, hw);
        assert!(d2.added.is_empty() && d2.removed.is_empty());
        // Collect + GC: the same seq comes back as a removal.
        d.mark_collected(client, &[1]);
        d.gc_collected();
        let d3 = d.results_catalog_since(client, hw);
        assert!(d3.added.is_empty());
        assert_eq!(d3.removed, vec![1]);
        // From base 0 the merged delta equals the scan reference.
        let full = d.results_catalog_since(client, 0);
        let mut merged: std::collections::BTreeMap<u64, u64> = full.added.into_iter().collect();
        for s in full.removed {
            merged.remove(&s);
        }
        let merged: Vec<(u64, u64)> = merged.into_iter().collect();
        assert_eq!(merged, d.results_catalog_scan(client));
    }

    #[test]
    fn catalog_delta_is_per_client() {
        let c1 = ClientKey::new(1, 1);
        let c2 = ClientKey::new(2, 1);
        let mut d = db();
        d.register_job(job(1)); // client 1
        d.register_job(JobSpec::new(JobKey::new(c2, 1), "svc", Blob::synthetic(10, 9)));
        while let (Some(t), _) = d.next_pending(ServerId(1), T0) {
            d.complete_task(t.id, t.job, Blob::synthetic(64, t.job.seq), ServerId(1));
        }
        let d1 = d.results_catalog_since(c1, 0);
        let d2 = d.results_catalog_since(c2, 0);
        assert_eq!(d1.added.len(), 1, "client 1 sees only its own result");
        assert_eq!(d2.added.len(), 1, "client 2 sees only its own result");
        assert_eq!(d.results_catalog_scan(c1), d1.added);
        assert_eq!(d.results_catalog_scan(c2), d2.added);
    }

    #[test]
    fn skipped_sibling_instance_is_retired_not_left_pending() {
        // Regression: `next_pending`'s finished-job skip consumed the
        // queue entry but left the task row `Pending`; a later replicated
        // state upgrade then re-ran the entry-died accounting, stealing a
        // fresh instance's counts and desynchronizing `pending_count`
        // from its scan reference.
        let job1 = JobKey::new(ClientKey::new(1, 1), 1);
        let mut a = db();
        a.register_job(job(1).with_replication(2)); // T1, T2 queued at A
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&a.delta_since(0));
        // B executes T1; A learns the job finished (archive missing at A).
        let (t1, _) = b.next_pending(ServerId(1), T0);
        let t1 = t1.unwrap();
        b.complete_task(t1.id, job1, Blob::synthetic(8, 1), ServerId(1));
        let v_b = b.version();
        a.apply_delta(&b.delta_since(0));
        // A pops T2's still-live entry and skips it (job finished).
        let (none, _) = a.next_pending(ServerId(9), T0);
        assert!(none.is_none());
        assert_eq!(a.pending_count(), a.pending_count_scan());
        // A re-executes the missing-archive job: fresh instance T3.
        let (t3, _) = a.reexecute_job(job1);
        assert!(t3.is_some());
        assert_eq!(a.pending_count(), 1);
        // An off-line server delivers T2's result late to B (at-least-once
        // duplicate; B still marks the instance Finished).  The replicated
        // upgrade must not steal T3's pending accounting at A.
        let t2_id = if t1.id == TaskId::compose(CoordId(1), 1) {
            TaskId::compose(CoordId(1), 2)
        } else {
            TaskId::compose(CoordId(1), 1)
        };
        let (o, _) = b.complete_task(t2_id, job1, Blob::synthetic(8, 2), ServerId(1));
        assert_eq!(o, CompleteOutcome::Duplicate);
        a.apply_delta(&b.delta_since(v_b));
        assert_eq!(a.pending_count(), a.pending_count_scan(), "maintained == scan");
        // Another re-execution round: with corrupted counters this is
        // where the maintained count and the scan diverged.
        let first_missing = a.missing_archives().first().copied();
        if let Some(j) = first_missing {
            a.reexecute_job(j);
        }
        assert_eq!(a.pending_count(), a.pending_count_scan(), "post-reexec: maintained == scan");
        assert_eq!(a.missing_archives(), a.missing_archives_scan());
    }

    #[test]
    fn acked_tombstones_are_pruned() {
        let client = ClientKey::new(1, 1);
        let mut d = db();
        for seq in 1..=3 {
            d.register_job(job(seq));
        }
        while let (Some(t), _) = d.next_pending(ServerId(1), T0) {
            d.complete_task(t.id, t.job, Blob::synthetic(100, t.job.seq), ServerId(1));
        }
        let hw = d.results_catalog_since(client, 0).head;
        d.mark_collected(client, &[1, 2]);
        d.gc_collected();
        // The removals are still pending delivery: pruning at the old
        // high-water mark must not drop them.
        assert_eq!(d.prune_catalog_acked(client, hw), 0);
        let delta = d.results_catalog_since(client, hw);
        assert_eq!(delta.removed, vec![1, 2]);
        // Once the client beats with the new head, the tombstones die.
        assert_eq!(d.prune_catalog_acked(client, delta.head), 2);
        assert_eq!(d.prune_catalog_acked(client, delta.head), 0, "idempotent");
        // Post-prune, a from-zero fetch ships only live entries.
        let full = d.results_catalog_since(client, 0);
        assert_eq!(full.added, vec![(3, 100)]);
        assert!(full.removed.is_empty());
        assert_eq!(full.added, d.results_catalog_scan(client));
    }

    #[test]
    fn reexecute_missing_archive() {
        // Replica learned "finished" but holds no archive and the server
        // lost its log: the job must be re-executable.
        let mut primary = db();
        primary.register_job(job(1));
        let (t, _) = primary.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        primary.complete_task(t.id, t.job, Blob::synthetic(10, 0), ServerId(1));
        let mut backup = CoordinatorDb::new(CoordId(2));
        backup.apply_delta(&primary.delta_since(0));
        assert_eq!(backup.missing_archives(), vec![t.job]);
        let (tid, _) = backup.reexecute_job(t.job);
        assert!(tid.is_some());
        let (next, _) = backup.next_pending(ServerId(8), T0);
        assert_eq!(next.unwrap().job, t.job);
        // Once the archive arrives, re-execution is refused.
        backup.store_archive(t.job, Blob::synthetic(10, 0));
        let (none, _) = backup.reexecute_job(t.job);
        assert!(none.is_none());
        assert!(backup.missing_archives().is_empty());
    }

    #[test]
    fn store_archive_idempotent() {
        let mut d = db();
        d.register_job(job(1));
        let key = JobKey::new(ClientKey::new(1, 1), 1);
        let c1 = d.store_archive(key, Blob::synthetic(100, 0));
        assert_eq!(c1.disk_bytes, 100);
        let c2 = d.store_archive(key, Blob::synthetic(100, 0));
        assert_eq!(c2.disk_bytes, 0, "second store is a no-op");
        assert_eq!(d.archived_count(), 1);
    }

    #[test]
    fn client_marks_merge_via_delta() {
        let mut a = db();
        a.register_job(job(5));
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&a.delta_since(0));
        assert_eq!(b.client_max(ClientKey::new(1, 1)), 5);
    }

    /// Runs one job to completion on `d` and returns its key.
    fn complete_one(d: &mut CoordinatorDb, size: u64) -> JobKey {
        let (t, _) = d.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        d.complete_task(t.id, t.job, Blob::synthetic(size, 0), ServerId(1));
        t.job
    }

    #[test]
    fn collected_knowledge_replicates_after_gc() {
        // The ROADMAP "Collected is local knowledge" leak: the primary's
        // client collected and GC reclaimed; the replica must learn it
        // through the delta and refuse re-execution/re-acquisition.
        let client = ClientKey::new(1, 1);
        let mut primary = db();
        primary.register_job(job(1));
        let key = complete_one(&mut primary, 500);
        primary.mark_collected(client, &[1]);
        primary.gc_collected();
        let delta = primary.delta_since(0);
        assert_eq!(delta.collected().collect::<Vec<_>>(), vec![key]);
        let mut backup = CoordinatorDb::new(CoordId(2));
        backup.apply_delta(&delta);
        assert!(backup.is_collected(&key));
        assert!(backup.missing_archives().is_empty(), "delivered is not missing");
        assert_eq!(backup.missing_archives(), backup.missing_archives_scan());
        assert!(!backup.wants_archive(&key), "no archive re-acquisition");
        let (tid, _) = backup.reexecute_job(key);
        assert!(tid.is_none(), "re-execution refused for replicated-collected jobs");
        let (none, _) = backup.next_pending(ServerId(7), T0);
        assert!(none.is_none(), "nothing schedulable");
    }

    #[test]
    fn collected_flag_replicates_before_gc() {
        // Collection acks travel as soon as the client acknowledged —
        // before any GC ran on the primary (the archive is still held
        // there, merely flagged).
        let client = ClientKey::new(1, 1);
        let mut primary = db();
        primary.register_job(job(1));
        let key = complete_one(&mut primary, 100);
        primary.mark_collected(client, &[1]);
        assert!(primary.has_collected_knowledge(&key));
        assert!(!primary.is_collected(&key), "archive still retained on the primary");
        let mut backup = CoordinatorDb::new(CoordId(2));
        backup.apply_delta(&primary.delta_since(0));
        assert!(backup.is_collected(&key), "no archive here ⇒ terminal collected");
        assert!(!backup.wants_archive(&key));
        assert!(backup.missing_archives().is_empty());
    }

    #[test]
    fn collected_rows_are_incremental_and_idempotent() {
        let client = ClientKey::new(1, 1);
        let mut primary = db();
        primary.register_job(job(1));
        complete_one(&mut primary, 100);
        let v = primary.version();
        primary.mark_collected(client, &[1]);
        let delta = primary.delta_since(v);
        assert_eq!(delta.collected().count(), 1, "only the fresh acknowledgement");
        assert_eq!(delta.jobs().count(), 0, "the job row did not move");
        // Re-acknowledging changes nothing: no version churn, empty delta.
        let v2 = primary.version();
        primary.mark_collected(client, &[1]);
        assert_eq!(primary.version(), v2, "idempotent re-ack does not re-stamp");
        assert!(primary.delta_since(v2).is_empty());
        // Applying the same collected row twice on a replica is a no-op.
        let mut backup = CoordinatorDb::new(CoordId(2));
        backup.apply_delta(&primary.delta_since(0));
        let v3 = backup.version();
        backup.apply_delta(&primary.delta_since(0));
        assert_eq!(backup.version(), v3);
    }

    #[test]
    fn client_reack_on_successor_records_collected() {
        // A promoted successor that only knows "finished without archive"
        // learns delivery straight from the client's re-acknowledgement.
        let client = ClientKey::new(1, 1);
        let mut primary = db();
        primary.register_job(job(1));
        let key = complete_one(&mut primary, 100);
        let mut backup = CoordinatorDb::new(CoordId(2));
        // Replicate *without* the collection (the primary died first).
        backup.apply_delta(&primary.delta_since(0));
        assert_eq!(backup.missing_archives(), vec![key]);
        backup.mark_collected(client, &[1]);
        assert!(backup.is_collected(&key));
        assert!(backup.missing_archives().is_empty());
        assert_eq!(backup.missing_archives(), backup.missing_archives_scan());
        let (tid, _) = backup.reexecute_job(key);
        assert!(tid.is_none());
        // Acks for jobs never heard of are dropped, not recorded.
        backup.mark_collected(client, &[99]);
        assert!(!backup.is_collected(&JobKey { client, seq: 99 }));
    }

    #[test]
    fn checkpoint_records_are_monotone() {
        let mut d = db();
        d.register_job(job(1));
        let key = JobKey::new(ClientKey::new(1, 1), 1);
        let (adv, c) = d.record_checkpoint(key, 4, Blob::synthetic(100, 1));
        assert!(adv);
        assert_eq!(c.disk_bytes, 100);
        assert_eq!(d.resume_point(&key).map(|(hw, _)| hw), Some(4));
        // A stale (lower) or equal mark never wins.
        let (adv, c) = d.record_checkpoint(key, 3, Blob::synthetic(80, 2));
        assert!(!adv);
        assert_eq!(c.disk_bytes, 0);
        let (adv, _) = d.record_checkpoint(key, 4, Blob::synthetic(80, 3));
        assert!(!adv);
        assert_eq!(d.resume_point(&key).map(|(hw, _)| hw), Some(4));
        // A higher mark advances it.
        let (adv, _) = d.record_checkpoint(key, 9, Blob::synthetic(120, 4));
        assert!(adv);
        assert_eq!(d.resume_point(&key).map(|(hw, _)| hw), Some(9));
        assert_eq!(d.stats().ckpts, 1, "one row per job, re-stamped not duplicated");
        // Unknown jobs are refused.
        let (adv, _) = d.record_checkpoint(JobKey::new(ClientKey::new(9, 9), 1), 1, Blob::empty());
        assert!(!adv);
        // Over-claims are refused: the registered job has 64 units, so a
        // mark at/past that could hand a successor a fabricated
        // near-complete bank.
        let key2 = JobKey::new(ClientKey::new(1, 1), 2);
        d.register_job(job(2));
        let (adv, _) = d.record_checkpoint(key2, 64, Blob::synthetic(10, 0));
        assert!(!adv, "unit_hw == registered units is an over-claim");
        let (adv, _) = d.record_checkpoint(key2, 999, Blob::synthetic(10, 0));
        assert!(!adv);
        assert_eq!(d.resume_point(&key2), None);
        let (adv, _) = d.record_checkpoint(key2, 63, Blob::synthetic(10, 0));
        assert!(adv, "the last unit boundary is the highest honest mark");
    }

    #[test]
    fn finished_jobs_take_no_checkpoints_and_offer_no_resume() {
        let mut d = db();
        d.register_job(job(1));
        let key = complete_one(&mut d, 64);
        let (adv, _) = d.record_checkpoint(key, 5, Blob::synthetic(10, 0));
        assert!(!adv, "a finished job's resume point is dead weight");
        assert_eq!(d.resume_point(&key), None);
        // But a checkpoint recorded *before* the finish stays readable raw.
        d.register_job(job(2));
        let k2 = JobKey::new(ClientKey::new(1, 1), 2);
        d.record_checkpoint(k2, 7, Blob::synthetic(10, 1));
        let key2 = complete_one(&mut d, 64);
        assert_eq!(key2, k2);
        assert_eq!(d.resume_point(&k2), None, "finished ⇒ nothing to resume");
        assert_eq!(d.ckpt_high_water(&k2), Some(7), "row retained for introspection");
    }

    #[test]
    fn resume_points_ride_the_delta_and_survive_failover() {
        let mut primary = db();
        primary.register_job(job(1));
        let key = JobKey::new(ClientKey::new(1, 1), 1);
        primary.record_checkpoint(key, 12, Blob::synthetic(300, 7));
        let v = primary.version();
        let mut backup = CoordinatorDb::new(CoordId(2));
        backup.apply_delta(&primary.delta_since(0));
        let (hw, blob) = backup.resume_point(&key).expect("resume point replicated");
        assert_eq!(hw, 12);
        assert_eq!(blob.len(), 300);
        // Steady state: a round where no checkpoint moved carries none.
        assert_eq!(primary.delta_since(v).ckpts().count(), 0);
        // The mark advances ⇒ exactly one ckpt row rides the next delta.
        primary.record_checkpoint(key, 20, Blob::synthetic(300, 8));
        let delta = primary.delta_since(v);
        assert_eq!(delta.ckpts().count(), 1);
        assert_eq!(delta.jobs().count(), 0, "the job row did not move");
        backup.apply_delta(&delta);
        assert_eq!(backup.resume_point(&key).map(|(hw, _)| hw), Some(20));
        // A stale delta replayed out of order cannot regress the mark.
        backup.apply_delta(&primary.delta_since(0));
        assert_eq!(backup.resume_point(&key).map(|(hw, _)| hw), Some(20));
    }

    #[test]
    fn gc_uses_the_maintained_flag_set() {
        let client = ClientKey::new(1, 1);
        let mut d = db();
        for seq in 1..=3 {
            d.register_job(job(seq));
        }
        while let (Some(t), _) = d.next_pending(ServerId(1), T0) {
            d.complete_task(t.id, t.job, Blob::synthetic(100, t.job.seq), ServerId(1));
        }
        assert!(d.collected_flagged().is_empty());
        d.mark_collected(client, &[1, 3]);
        assert_eq!(d.collected_flagged().len(), 2);
        assert_eq!(d.collected_flagged(), d.collected_flagged_scan());
        let (freed, charge) = d.gc_collected();
        assert_eq!(freed, 200);
        assert_eq!(charge.db_ops, 3, "O(flagged): 2 victims + 1");
        assert!(d.collected_flagged().is_empty(), "flag set drained by GC");
        assert_eq!(d.collected_flagged(), d.collected_flagged_scan());
        // Idempotent: nothing flagged, nothing freed, O(1).
        let (freed, charge) = d.gc_collected();
        assert_eq!(freed, 0);
        assert_eq!(charge.db_ops, 1);
        // Re-execution of the re-acquirable survivor keeps the sets honest.
        assert_eq!(d.archived_count(), 1);
        d.mark_collected(client, &[2]);
        assert_eq!(d.collected_flagged(), d.collected_flagged_scan());
        d.gc_collected();
        assert_eq!(d.stats().collected, 3);
    }

    /// Registers `n` jobs, runs each to completion, collects and GCs —
    /// every job ends `Collected`-terminal with the watermark advanced.
    fn run_to_collected(d: &mut CoordinatorDb, n: u64) {
        let client = ClientKey::new(1, 1);
        for seq in 1..=n {
            d.register_job(job(seq));
        }
        while let (Some(t), _) = d.next_pending(ServerId(1), T0) {
            d.complete_task(t.id, t.job, Blob::synthetic(64, t.job.seq), ServerId(1));
        }
        let seqs: Vec<u64> = (1..=n).collect();
        d.mark_collected(client, &seqs);
        d.gc_collected();
        assert_eq!(d.contig_watermark(client), n);
    }

    #[test]
    fn finished_jobs_drop_checkpoint_blobs_but_keep_marks() {
        let mut d = db();
        d.register_job(job(1));
        let key = JobKey::new(ClientKey::new(1, 1), 1);
        d.record_checkpoint(key, 7, Blob::synthetic(5000, 1));
        complete_one(&mut d, 64);
        // The mark survives for the monotone merge and ckpt_scan …
        assert_eq!(d.ckpt_high_water(&key), Some(7));
        assert_eq!(d.ckpt_scan(), vec![(key, 7)]);
        // … but the resume-state payload is gone, here and on the feed.
        let carried: Vec<u64> = d.delta_since(0).ckpts().map(|(_, _, b)| b.len()).collect();
        assert_eq!(carried, vec![0], "no blob bytes ride the delta after finish");
        // A replica that already finished the job never stores the bytes
        // either, even from a stale feed carrying the full blob.
        let mut b = CoordinatorDb::new(CoordId(2));
        b.register_job(job(1));
        b.store_archive(key, Blob::synthetic(64, 1));
        let stale = ReplicationDelta {
            from: CoordId(1),
            base_version: 0,
            head_version: 1,
            rows: vec![DeltaRow::Ckpt { job: key, unit_hw: 9, blob: Blob::synthetic(5000, 2) }],
        };
        b.apply_delta(&stale);
        assert_eq!(b.ckpt_high_water(&key), Some(9), "the mark still merges monotone");
        let held: Vec<u64> = b.delta_since(0).ckpts().map(|(_, _, blob)| blob.len()).collect();
        assert_eq!(held, vec![0], "finished ⇒ no resume payload retained");
    }

    #[test]
    fn prune_retires_collected_prefix_and_is_gated_by_acks() {
        let mut d = db();
        run_to_collected(&mut d, 3);
        let rows_before = d.resident_rows();
        // Nothing acked: nothing prunable.
        assert_eq!(d.prune_retired(0), 0);
        assert_eq!(d.resident_rows(), rows_before);
        assert_eq!(d.delta_floor(), 0);
        // Everything acked: the whole delivered prefix retires.
        let head = d.version();
        assert_eq!(d.prune_retired(head), 3);
        assert_eq!(d.retired_watermark(ClientKey::new(1, 1)), 3);
        assert!(d.delta_floor() > 0);
        // Only the mark row remains resident.
        assert_eq!(d.resident_rows(), 1);
        assert_eq!(d.delta_since(0).marks().count(), 1);
        // Lifetime counters never dip.
        assert_eq!(d.finished_count(), 3);
        assert_eq!(d.stats().jobs, 3);
        assert_eq!(d.stats().collected, 3);
        assert_eq!(d.retired_count(), 3);
        // Idempotent.
        assert_eq!(d.prune_retired(d.version()), 0);
    }

    #[test]
    fn retired_knowledge_survives_pruning() {
        let client = ClientKey::new(1, 1);
        let mut d = db();
        run_to_collected(&mut d, 2);
        d.prune_retired(d.version());
        let k1 = JobKey::new(client, 1);
        // Delivered knowledge holds without any per-job row.
        assert!(d.has_collected_knowledge(&k1));
        assert!(!d.wants_archive(&k1));
        assert_eq!(d.missing_archives(), vec![]);
        // The client's replay protocol can't resubmit: the mark survived.
        assert_eq!(d.client_max(client), 2);
        let (fresh, _) = d.register_job(job(1));
        assert!(!fresh, "retired seqs refuse re-registration");
        let (n, _) = d.register_jobs_bulk(vec![job(2)]);
        assert_eq!(n, 0);
        // A stale replication feed can't resurrect the rows either.
        let stale = ReplicationDelta {
            from: CoordId(9),
            base_version: 0,
            head_version: 1,
            rows: vec![DeltaRow::Job(job(1)), DeltaRow::Collected { job: k1 }],
        };
        d.apply_delta(&stale);
        assert_eq!(d.stats().jobs, 2, "no zombie row set");
        assert!(!d.knows_job(&k1));
        // New work above the watermark proceeds normally.
        let (fresh, _) = d.register_job(job(3));
        assert!(fresh);
        assert_eq!(d.pending_count(), d.pending_count_scan());
    }

    #[test]
    fn prune_waits_for_the_unacked_suffix() {
        let mut d = db();
        run_to_collected(&mut d, 2);
        let mid = d.version();
        // Job 3 collects *after* `mid`, so its rows are past the ack.
        d.register_job(job(3));
        while let (Some(t), _) = d.next_pending(ServerId(1), T0) {
            d.complete_task(t.id, t.job, Blob::synthetic(64, 3), ServerId(1));
        }
        d.mark_collected(ClientKey::new(1, 1), &[3]);
        d.gc_collected();
        assert_eq!(d.contig_watermark(ClientKey::new(1, 1)), 3);
        // Hmm: collecting seq 3 re-stamped its rows past mid, but jobs
        // 1–2 were fully stamped before mid and retire now.
        assert_eq!(d.prune_retired(mid), 2);
        assert_eq!(d.retired_watermark(ClientKey::new(1, 1)), 2);
        // Once the consumer acks the head, the rest follows.
        assert_eq!(d.prune_retired(d.version()), 1);
        assert_eq!(d.retired_watermark(ClientKey::new(1, 1)), 3);
    }

    #[test]
    fn snapshot_plus_tail_matches_live_feed() {
        let client = ClientKey::new(1, 1);
        let mut a = db();
        run_to_collected(&mut a, 3);
        a.prune_retired(a.version());
        // Live work on top of the retired prefix.
        a.register_job(job(4));
        a.register_job(job(5));
        // Through the wire: the bootstrap is the frame any round is.
        let boot: ReplicationDelta = from_bytes(&to_bytes(&a.delta_since(0))).unwrap();
        assert_eq!(boot.retired().collect::<Vec<_>>(), vec![(client, 3)]);
        assert_eq!(boot.rows[0], DeltaRow::Retired { client, through: 3 }, "watermarks lead");
        // Tail: changes after the capture.
        let tail_base = boot.head_version;
        while let (Some(t), _) = a.next_pending(ServerId(2), T0) {
            a.complete_task(t.id, t.job, Blob::synthetic(64, t.job.seq), ServerId(2));
        }
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&boot);
        assert_eq!(b.retired_watermark(client), 3);
        assert!(b.has_collected_knowledge(&JobKey::new(client, 2)));
        assert_eq!(b.client_max(client), 5);
        b.apply_delta(&a.delta_since(tail_base));
        // The bootstrapped replica mirrors the live feed's view.
        assert_eq!(b.stats().jobs, a.stats().jobs);
        assert_eq!(b.finished_count(), a.finished_count());
        assert_eq!(b.ckpt_scan(), a.ckpt_scan());
        // Archives never replicate (paper §4.2): the bootstrapped side
        // knows the finished jobs whose payloads it still has to fetch.
        assert_eq!(b.missing_archives(), b.missing_archives_scan());
        assert_eq!(b.missing_archives().len(), 2);
        assert_eq!(a.missing_archives(), vec![]);
        for seq in 4..=5 {
            let k = JobKey::new(client, seq);
            assert!(b.task(a.delta_since(0).tasks().find(|t| t.job == k).unwrap().id).is_some());
        }
        // And re-executes nothing delivered.
        for seq in 1..=3 {
            let (tid, _) = b.reexecute_job(JobKey::new(client, seq));
            assert!(tid.is_none());
        }
    }

    #[test]
    fn snapshot_prunes_a_lagging_receiver_past_the_senders_floor() {
        // The receiver holds rows the sender already retired: applying
        // the bootstrap's watermark must prune them here too, not leave
        // zombies outside the feed.
        let mut a = db();
        run_to_collected(&mut a, 2);
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&a.delta_since(0)); // b holds live rows for 1..=2
        assert_eq!(b.stats().jobs, 2);
        a.prune_retired(a.version());
        let applied = b.apply_delta_owned(a.feed_for(CoordId(2), 0));
        assert_eq!(applied.newly_collected, vec![], "both were known delivered already");
        assert_eq!(b.retired_watermark(ClientKey::new(1, 1)), 2);
        assert!(!b.knows_job(&JobKey::new(ClientKey::new(1, 1), 1)));
        assert_eq!(b.resident_rows(), 1, "only the mark row remains");
        assert_eq!(b.stats().jobs, 2, "lifetime count intact");
        assert_eq!(b.pending_count(), b.pending_count_scan());
    }

    #[test]
    fn retired_knowledge_survives_the_second_hop() {
        // Two successive wipes: `b` learns `a`'s retired prefix from a
        // bootstrap and prunes nothing itself (no floor of its own), then
        // is the only place the wiped `a` can relearn it from.
        let client = ClientKey::new(1, 1);
        let mut a = db();
        run_to_collected(&mut a, 3);
        a.prune_retired(a.version());
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&a.feed_for(CoordId(2), 0));
        assert_eq!((b.retired_count(), b.delta_floor()), (3, 0));
        let mut a2 = db();
        a2.apply_delta(&b.feed_for(CoordId(1), 0));
        a2.check_invariants();
        assert_eq!(a2.retired_watermark(client), a.retired_watermark(client));
        for seq in 1..=3 {
            let k = JobKey::new(client, seq);
            assert_eq!(a2.has_collected_knowledge(&k), a.has_collected_knowledge(&k), "{k:?}");
        }
        let (fresh, _) = a2.register_job(job(2));
        assert!(!fresh, "retired seqs refuse re-registration after any number of hops");
    }

    #[test]
    fn pruning_a_job_with_queued_instances_keeps_the_queue_honest() {
        // A collected job can still have live Pending queue entries (a
        // recovery instance raced the collection).  Pruning must run the
        // entry-died accounting or compaction's invariant trips.
        let client = ClientKey::new(1, 1);
        let mut d = db();
        d.register_job(job(1).with_replication(3)); // 3 queued instances
        let (t, _) = d.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        d.complete_task(t.id, t.job, Blob::synthetic(64, 1), ServerId(1));
        d.mark_collected(client, &[1]);
        d.gc_collected();
        assert_eq!(d.contig_watermark(client), 1);
        assert_eq!(d.prune_retired(d.version()), 1);
        assert_eq!(d.pending_count(), 0);
        assert_eq!(d.pending_count(), d.pending_count_scan());
        // The stale queue entries drain without dispatching anything.
        let (none, _) = d.next_pending(ServerId(2), T0);
        assert!(none.is_none());
        assert_eq!(d.pending_count(), d.pending_count_scan());
    }
    #[test]
    fn mismatched_task_job_pair_archives_into_a_stub_row() {
        // A known task reporting a job key that is not registered here:
        // the archive is stored all the same (it precedes its job row),
        // lives through flag → GC like any other, and a later
        // registration adopts what the stub already knows.
        let client = ClientKey::new(1, 1);
        let stray = JobKey::new(client, 7);
        let mut d = db();
        d.register_job(job(1));
        let (t, _) = d.next_pending(ServerId(1), T0);
        let (o, _) = d.complete_task(t.unwrap().id, stray, Blob::synthetic(48, 7), ServerId(1));
        assert_eq!(o, CompleteOutcome::NewResult);
        d.check_invariants();
        assert!(!d.knows_job(&stray));
        assert_eq!(d.archive(&stray).map(Blob::len), Some(48));
        assert_eq!(d.results_catalog_scan(client), vec![(7, 48)]);
        assert_eq!((d.finished_count(), d.archived_count(), d.stats().jobs), (1, 1, 1));
        assert!(!d.wants_archive(&stray), "unregistered: nothing to want");
        d.mark_collected(client, &[7]);
        assert_eq!(d.collected_flagged(), vec![stray]);
        assert_eq!(d.gc_collected().0, 48);
        assert!(d.is_collected(&stray));
        d.check_invariants();
        // Never prunable (no job row to retire), and a registration of
        // the same key inherits the delivered state.
        assert_eq!(d.prune_retired(u64::MAX), 0);
        let (new, _) = d.register_job(job(7));
        assert!(new);
        assert!(d.knows_job(&stray) && d.is_collected(&stray));
        assert_eq!(d.store_archive(stray, Blob::synthetic(48, 7)), Charge::ops(1));
        d.check_invariants();
    }

    #[test]
    fn result_under_an_unlearned_instance_id_enters_the_feed() {
        // C1 registers the job, its job row reaches C2, C1 dispatches — and
        // the server delivers to C2 before C1's task row got there.  C2
        // stores the archive; the ring must learn the job finished from
        // C2's feed, or it stays "ongoing" at every peer for good.
        let key = JobKey::new(ClientKey::new(1, 1), 1);
        let mut c1 = db();
        c1.register_job(job(1));
        let mut jobs_only = c1.delta_since(0);
        jobs_only.rows.retain(|r| matches!(r, DeltaRow::Job(_)));
        let mut c2 = CoordinatorDb::new(CoordId(2));
        c2.apply_delta(&jobs_only);
        let (t, _) = c1.next_pending(ServerId(5), T0);
        let (o, _) = c2.complete_task(t.unwrap().id, key, Blob::synthetic(64, 1), ServerId(5));
        assert_eq!(o, CompleteOutcome::NewResult);
        c2.check_invariants();
        // The dispatcher's own row arrives late and changes nothing.
        c2.apply_delta(&c1.delta_since(0));
        c2.check_invariants();
        assert_eq!(c2.finished_count(), 1);
        // C1 (and any third peer) learns it from C2's feed.
        let mut c3 = CoordinatorDb::new(CoordId(3));
        for peer in [&mut c1, &mut c3] {
            peer.apply_delta(&c2.delta_since(0));
            assert_eq!(peer.missing_archives(), vec![key], "finished, archive to pull");
            peer.check_invariants();
        }
    }

    #[test]
    fn catalog_tombstone_outlives_the_pruned_job_until_acked() {
        let client = ClientKey::new(1, 1);
        let mut d = db();
        run_to_collected(&mut d, 2);
        let head = d.version();
        assert_eq!(d.prune_retired(head), 2);
        d.check_invariants();
        assert_eq!(d.resident_rows(), 1, "only the mark row is versioned");
        // The client has not merged the removals yet: they must still be
        // served, although every row of both jobs is gone.
        assert_eq!(d.results_catalog_since(client, 0).removed, vec![1, 2]);
        assert!(!d.knows_job(&JobKey::new(client, 1)));
        assert_eq!(d.prune_catalog_acked(client, head), 2);
        assert!(d.results_catalog_since(client, 0).removed.is_empty());
        d.check_invariants();
    }

    #[test]
    fn snapshot_watermark_leaves_an_uncollected_archive_behind() {
        // The receiver stored job 1's archive but never learned it was
        // collected; the sender retired it.  The watermark prunes the
        // job's rows here — the retained archive stays servable and
        // GC-able, as it always did.
        let client = ClientKey::new(1, 1);
        let mut a = db();
        run_to_collected(&mut a, 1);
        a.prune_retired(a.version());
        let mut b = CoordinatorDb::new(CoordId(2));
        b.register_job(job(1));
        let (t, _) = b.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        b.complete_task(t.id, t.job, Blob::synthetic(64, 1), ServerId(1));
        let k = JobKey::new(client, 1);
        let applied = b.apply_delta_owned(a.feed_for(CoordId(2), 0));
        assert_eq!(
            applied.newly_collected,
            vec![k],
            "delivered is news here: the owner settles it"
        );
        b.check_invariants();
        assert!(!b.knows_job(&k));
        assert_eq!(b.archive(&k).map(Blob::len), Some(64));
        assert_eq!(b.results_catalog_scan(client), vec![(1, 64)]);
        assert!(b.has_collected_knowledge(&k), "summarized by the watermark");
        assert_eq!((b.archived_count(), b.finished_count()), (1, 1));
    }
}
