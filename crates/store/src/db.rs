//! The coordinator database: jobs, tasks, archives, scheduling queue.

use std::collections::{BTreeMap, BTreeSet};

use rpcv_log::SeqWindow;
use rpcv_simnet::{SimDuration, SimTime};
use rpcv_wire::Blob;
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId, TaskDesc, TaskId, TaskState};

use crate::charge::Charge;
use crate::delta::{DeltaRow, ReplicationDelta, TaskRecord};

/// One stored task row: the replicated record itself plus the two local
/// attributes.  The description a server receives is not stored — it is
/// assembled at dispatch from the job's registered spec, which every task
/// row's job holds ([`CoordinatorDb::check_invariants`]).
///
/// Layout is pinned (`row_layouts_are_pinned`): every byte here is paid
/// twice — primary and replica — for every live instance, so a new field
/// is a decision, not a convenience.
#[derive(Debug, Clone)]
pub struct TaskRow {
    /// What replicates: id, job, attempt, scheduling state, origin.
    pub rec: TaskRecord,
    /// This coordinator answers for the instance here (local, durable with
    /// the row, never replicated): it dispatched it (the server answered
    /// *us* to get it), or adopted it under the custody rule
    /// ([`CoordinatorDb::adopt`]).  Its server's silence covers a watched
    /// row, which is re-instanced when that server goes silent or stops
    /// listing it.  Watched ⇒ `Ongoing` and indexed on its server;
    /// `Ongoing`, indexed and written here ⇒ watched.
    pub watched: bool,
    /// Version stamp of the last mutation (replication watermark).
    pub version: u64,
}

/// A job's task-instance ids.  Nearly every job has exactly one instance
/// (no redundancy, no re-execution), so one id sits inline and only a
/// second instance moves the list to the heap: 16 bytes in the row, where
/// an inline id beside an empty `Vec` took 40.
#[derive(Debug, Clone, Default)]
enum TaskIds {
    #[default]
    None,
    One(TaskId),
    // Boxed: a bare `Vec` would make every row's list 32 bytes to serve
    // the rare job with a second instance.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<TaskId>>),
}

impl TaskIds {
    fn push(&mut self, id: TaskId) {
        match self {
            TaskIds::None => *self = TaskIds::One(id),
            TaskIds::One(first) => *self = TaskIds::Many(Box::new(vec![*first, id])),
            TaskIds::Many(ids) => ids.push(id),
        }
    }

    fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        let ids: &[TaskId] = match self {
            TaskIds::None => &[],
            TaskIds::One(id) => std::slice::from_ref(id),
            TaskIds::Many(ids) => ids,
        };
        ids.iter().copied()
    }
}

/// Everything the database holds about one job, in one slot of its
/// client's window ([`ClientRow::jobs`]): a job's life (register → dispatch →
/// complete → collect → GC → prune) probes this one row where it used to
/// probe a side table per attribute.  Like [`TaskRow`], its size is pinned:
/// each byte is held by two coordinators for every live job.
///
/// A row starts at registration (local or replicated) and holds nothing
/// without it: every attribute belongs to a registered job.  The windows
/// hold live jobs — never lifetime jobs: no row sits at or below its
/// client's retired watermark (retirement takes the whole row, archive
/// included), and none above its client's registration mark.
#[derive(Debug, Clone)]
struct JobRow {
    /// The registered description.
    spec: JobSpec,
    /// Change-index version of the job row.
    version: u64,
    /// Next attempt number (folded with replicated attempt numbers on
    /// delta application).
    next_attempt: u32,
    /// Task instances, so retention prunes them without a table scan.
    tasks: TaskIds,
    /// What is known of the result; written by [`CoordinatorDb::settle`]
    /// alone.
    result: JobResult,
    /// Checkpoint row (boxed: only checkpointing workloads have one).
    ckpt: Option<Box<CkptRow>>,
}

impl JobRow {
    /// The row of `spec`'s job, registered at change-index `version`.
    fn new(spec: JobSpec, version: u64) -> Self {
        JobRow {
            spec,
            version,
            next_attempt: 0,
            tasks: TaskIds::default(),
            result: JobResult::Open,
            ckpt: None,
        }
    }
}

/// What a job row knows of its result: the paper's finished state, told
/// apart by where the archive is.  [`CoordinatorDb::settle`] is the only
/// writer.
#[derive(Debug, Clone)]
enum JobResult {
    /// No result is known here.
    Open,
    /// A feed said the job finished, but the archive is not held here: the
    /// missing worklist's rows.
    Missing,
    /// The archive is held, its catalog entry stamped `catalog_pos`.
    Held { payload: Blob, catalog_pos: u64 },
    /// Held, and the client acknowledged collecting it (its collected row
    /// stamped `collected_pos`): GC-eligible.
    Flagged { payload: Blob, catalog_pos: u64, collected_pos: u64 },
    /// Delivered: the client durably pulled the result and no archive is
    /// held.  Terminal — exempt from missing-archive re-execution and from
    /// archive re-acquisition: nothing is missing.
    Delivered { collected_pos: u64 },
}

impl JobResult {
    /// A result exists somewhere: every state but `Open`.
    fn finished(&self) -> bool {
        !matches!(self, JobResult::Open)
    }

    /// The archive held here, if any.
    fn archive(&self) -> Option<&Blob> {
        match self {
            JobResult::Held { payload, .. } | JobResult::Flagged { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// The change-index version of the job's collected-knowledge row, once
    /// the client acknowledged the result (`Flagged` or `Delivered`).
    fn collected_pos(&self) -> Option<u64> {
        match *self {
            JobResult::Flagged { collected_pos, .. } | JobResult::Delivered { collected_pos } => {
                Some(collected_pos)
            }
            _ => None,
        }
    }
}

/// What moves a job's result; [`CoordinatorDb::settle`] holds the table.
enum Settle {
    /// Re-execution or retirement forgets the result: `→ Open`.
    Forget,
    /// A feed's `Finished` row, applied at this instant: `Open → Missing`.
    Finished(SimTime),
    /// The archive stored here: `Open | Missing → Held`.
    Store(Blob),
    /// The client's acknowledgement, its collected row stamped at this
    /// version: `Held → Flagged`, `Open | Missing → Delivered`.
    Ack(u64),
    /// GC reclaimed the archive: `Flagged → Delivered`.
    Reclaim,
}

/// A per-client watermark — the registration high-water mark, or the
/// retired prefix — versioned so replication deltas carry only the
/// watermarks that moved since the base version (instead of re-sending
/// every known client's each round).  Version 0: never stamped.
#[derive(Debug, Clone, Copy, Default)]
struct MarkRow {
    mark: u64,
    version: u64,
}

/// A client as the database names it: its row's index in the
/// [`ClientTable`], four bytes where the key takes sixteen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClientSlot(u32);

/// Everything the database holds about one client, in one row of the
/// [`ClientTable`]: a job's life probes its client's row once where it
/// used to probe a side table per attribute.  A row is created by the
/// first operation that writes something about its client, and that
/// operation stamps its registration mark before it returns: no row is
/// held without one.  An idle client keeps its row (fleet-sized, like the
/// marks), emptied maps included.
#[derive(Debug, Clone)]
struct ClientRow {
    key: ClientKey,
    /// One row per live job, seq-indexed ([`JobRow`]): a client's seqs are
    /// contiguous by protocol — gap refusal registers only `mark + 1`, and
    /// retention retires a contiguous delivered prefix — so the seq is the
    /// index, and a row arriving out of seq order (a re-stamped job
    /// replicated after later seqs) simply fills its slot.
    jobs: SeqWindow<JobRow>,
    /// Registration high-water mark ([`Changed::Mark`]): the highest
    /// registered submission timestamp, what client synchronization reads.
    /// Never pruned: it keeps `mark ≥ seq` for every retired job, so the
    /// client's log replay (only above the mark) can never resubmit one.
    mark: MarkRow,
    /// Retired prefix ([`Changed::Retired`]): every seq `1..=r` had *all*
    /// of its rows (job, tasks, collected, ckpt, archive) pruned from the
    /// tables and the change index.  `retired ≤ contig` — only delivered
    /// work retires — and `Σ retired` over the rows is the lifetime retired
    /// job count (seqs are 1-based and contiguous).  Re-stamped whenever it
    /// rises, so a feed from any base carries every watermark stamped
    /// above it.
    retired: MarkRow,
    /// Contiguous-collected watermark: the largest `w` such that every seq
    /// `1..=w` reached the `Collected` terminal state.  Collection
    /// knowledge at or below it is summarized here, which is what lets
    /// retention drop the job rows.
    contig: u64,
    /// The GC-eligible worklist: seqs whose archive is held and whose
    /// collection the client acknowledged (`Flagged`), so explicit GC is
    /// O(flagged), never a table scan; scan reference:
    /// [`CoordinatorDb::collected_flagged_scan`].
    flagged: BTreeSet<u64>,
    /// The catalog index, `version → seq`: one entry per held archive,
    /// stamped when the archive is stored and dropped when it leaves.
    /// Backs O(changed) [`CoordinatorDb::results_catalog_since`].
    catalog: BTreeMap<u64, u64>,
}

/// The client table: one [`ClientRow`] per client ever met, in a `Vec`
/// indexed by [`ClientSlot`], and the one key → slot index, which serves
/// both lookup and every walk across clients (in key order).  The only
/// place the database interns or keys a client.
#[derive(Debug, Clone, Default)]
struct ClientTable {
    rows: Vec<ClientRow>,
    slots: BTreeMap<ClientKey, ClientSlot>,
}

impl ClientTable {
    /// `client`'s slot, if it has a row.  A read never creates one.
    fn slot(&self, client: ClientKey) -> Option<ClientSlot> {
        self.slots.get(&client).copied()
    }

    /// `client`'s row, if it has one.
    fn get(&self, client: ClientKey) -> Option<&ClientRow> {
        self.slot(client).map(|slot| &self[slot])
    }

    /// `client`'s slot, its row created if new.  The caller stamps the
    /// row's registration mark before its operation returns.
    fn intern(&mut self, client: ClientKey) -> ClientSlot {
        let next = ClientSlot(self.rows.len() as u32);
        let slot = *self.slots.entry(client).or_insert(next);
        if slot == next {
            self.rows.push(ClientRow {
                key: client,
                jobs: SeqWindow::new(),
                mark: MarkRow::default(),
                retired: MarkRow::default(),
                contig: 0,
                flagged: BTreeSet::new(),
                catalog: BTreeMap::new(),
            });
        }
        slot
    }

    /// The row of job `key`, if resident.
    fn job(&self, key: &JobKey) -> Option<&JobRow> {
        self.get(key.client)?.jobs.get(key.seq)
    }

    /// Mutable form of [`Self::job`].
    fn job_mut(&mut self, key: &JobKey) -> Option<&mut JobRow> {
        let slot = self.slot(key.client)?;
        self[slot].jobs.get_mut(key.seq)
    }

    /// Every row with its slot, in key order.
    fn iter(&self) -> impl Iterator<Item = (ClientSlot, &ClientRow)> + '_ {
        self.slots.values().map(|&slot| (slot, &self[slot]))
    }

    /// Every job row, in `(client, seq)` order.
    fn jobs(&self) -> impl Iterator<Item = (JobKey, &JobRow)> + '_ {
        self.iter().flat_map(|(_, c)| {
            c.jobs.iter().map(move |(seq, row)| (JobKey { client: c.key, seq }, row))
        })
    }
}

impl std::ops::Index<ClientSlot> for ClientTable {
    type Output = ClientRow;

    fn index(&self, slot: ClientSlot) -> &ClientRow {
        &self.rows[slot.0 as usize]
    }
}

impl std::ops::IndexMut<ClientSlot> for ClientTable {
    fn index_mut(&mut self, slot: ClientSlot) -> &mut ClientRow {
        &mut self.rows[slot.0 as usize]
    }
}

/// What a replication-version index entry points at, its client named by
/// slot.  Every mutation re-stamps its row with a fresh version and moves
/// the row's single index entry, so `changed` always holds exactly one
/// entry per live row and `delta_since(base)` is a range read over
/// `(base, head]`.  16 bytes, where a key-carrying form takes 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Changed {
    Job(ClientSlot, u64),
    Task(TaskId),
    Mark(ClientSlot),
    /// The client durably acknowledged collecting this job's result —
    /// replicated so a promoted successor treats the job as delivered.
    Collected(ClientSlot, u64),
    /// The job's checkpoint high-water mark moved — replicated so a
    /// promoted successor inherits the resume point.
    Ckpt(ClientSlot, u64),
    /// The client's retired watermark rose — replicated so every peer
    /// that tails this feed learns what retention pruned.
    Retired(ClientSlot),
}

/// Who wrote a change-index entry's current contents: the coordinator
/// whose own operation produced the row's current state, in the
/// incarnation it did so.  A writer holds its row at an equal or higher
/// state for as long as that incarnation lasts (row states only move up,
/// and a pruned row is covered by the retired watermark), so the
/// incremental feed to a peer skips the rows that peer wrote in the
/// incarnation it confirmed — a row is never carried back to where it
/// started, however many hops it took around the ring.  Any local mutation
/// re-stamps the row [`Provenance::LOCAL`], which puts it back on every
/// feed.
///
/// An index into the database's interned `(writer, incarnation)` pairs, so
/// an index entry pays four bytes for it, not sixteen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Provenance(u32);

impl Provenance {
    /// Written by this coordinator's own operation, in its incarnation.
    const LOCAL: Provenance = Provenance(0);
}

/// One change-index entry: the row it points at, and who wrote it.  Both
/// name their party by an interned slot, so an entry is 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChangeEntry {
    row: Changed,
    from: Provenance,
}

/// The version-ordered change index: one entry per live row, keyed by the
/// row's current version, carrying the row's [`Provenance`].
#[derive(Debug, Clone, Default)]
struct ChangeIndex {
    entries: BTreeMap<u64, ChangeEntry>,
}

impl ChangeIndex {
    /// Advances the version counter and moves a row's single entry from
    /// `old_version` (0 = new row) to the fresh version, stamped with who
    /// wrote the row (`from`).  Takes the counter explicitly so callers
    /// holding a `&mut` row borrow can still re-stamp it.
    fn touch(
        &mut self,
        version: &mut u64,
        old_version: u64,
        row: Changed,
        from: Provenance,
    ) -> u64 {
        if old_version != 0 {
            self.entries.remove(&old_version);
        }
        *version += 1;
        self.entries.insert(*version, ChangeEntry { row, from });
        *version
    }

    /// The entry at version `v`.
    fn get(&self, v: u64) -> Option<(Changed, Provenance)> {
        self.entries.get(&v).map(|e| (e.row, e.from))
    }
}

/// One stored checkpoint: the highest durable work-unit mark a successor
/// instance of the job may resume from, plus the opaque resume state.
#[derive(Debug, Clone)]
struct CkptRow {
    unit_hw: u32,
    blob: Blob,
    version: u64,
}

/// One entry of the missing-archive worklist.
#[derive(Debug, Clone, Copy)]
struct Watch {
    /// Entered (or last re-armed): the re-execution horizon counts from here.
    since: SimTime,
    /// Overdue while its client is not served here: the client's own
    /// coordinator recovers it, until the client's first message lands
    /// here (failover) and un-parks it under the same stamp.
    parked: bool,
}

/// The missing-archive worklist, which is the at-least-once re-execution
/// watch too: each finished job whose archive is not held here, with its
/// [`Watch`], and the un-parked entries once more in `(since, job)` order so
/// the periodic overdue read is a prefix, never a filter over the set.
#[derive(Debug, Clone, Default)]
struct ReexecWatch {
    entries: BTreeMap<JobKey, Watch>,
    due: BTreeSet<(SimTime, JobKey)>,
}

impl ReexecWatch {
    /// A job enters once, when a feed teaches it finished.
    fn enter(&mut self, job: JobKey, now: SimTime) {
        self.entries.insert(job, Watch { since: now, parked: false });
        self.due.insert((now, job));
    }

    /// `job` leaves (archive stored, delivery learned, re-executed, pruned).
    fn leave(&mut self, job: &JobKey) {
        if let Some(w) = self.entries.remove(job) {
            self.due.remove(&(w.since, *job));
        }
    }
}

/// Where each task row's state files it: a dispatchable `Pending` row in
/// the FCFS queue, an `Ongoing` row in its server's set.  A row moves
/// between them by [`TaskIndex::refile`] only; dispatch pops the queue and
/// ripening fills it.
#[derive(Debug, Clone, Default)]
struct TaskIndex {
    /// The FCFS queue: the dispatchable `Pending` rows, popped by
    /// [`CoordinatorDb::next_pending`] and keyed by version.  A row is
    /// stamped just before it is queued and keeps that version while it
    /// stays `Pending`, so version order is queue order.
    ///
    /// A `Pending` row is dispatched where it was written, and elsewhere
    /// only once its writer had a whole replication round to claim it: a
    /// feed's `Pending` rows are not queued but *unripe* — exactly the
    /// `Pending` rows stamped inside [`CoordinatorDb::fed`] and not queued,
    /// since an apply ripens every earlier unripe row before it stamps its
    /// own and no local operation stamps a `Pending` row outside the queue.
    /// They ripen when the next feed is applied here and still shows them
    /// `Pending`, or when their writer is written off here
    /// ([`CoordinatorDb::adopt`]); a row a later feed shows taken never
    /// enters — one instance, one dispatcher.  The clock is the feed
    /// itself, which every round sends, empty or not: no timer.
    pending: BTreeMap<u64, TaskId>,
    /// The instances ongoing on each server as far as this coordinator
    /// knows, and not yet given up on.
    by_server: BTreeMap<ServerId, BTreeSet<TaskId>>,
}

impl TaskIndex {
    /// The one index move of a task row: takes `row` out of the index its
    /// state files it in — its queue entry if `Pending`, its server's set
    /// (dropped once empty) if `Ongoing` — and clears `watched`; then,
    /// given a state `to`, moves the row to it, filing it on its server if
    /// `Ongoing`.  Whether a `Pending` row is queued (written here) or
    /// unripe (fed) is the caller's to decide.
    fn refile(&mut self, row: &mut TaskRow, to: Option<TaskState>) {
        match row.rec.state {
            TaskState::Pending => {
                self.pending.remove(&row.version);
            }
            TaskState::Ongoing { server, .. } => {
                if let Some(set) = self.by_server.get_mut(&server) {
                    set.remove(&row.rec.id);
                    if set.is_empty() {
                        self.by_server.remove(&server);
                    }
                }
            }
            TaskState::Finished { .. } => {}
        }
        row.watched = false;
        if let Some(to) = to {
            row.rec.state = to;
            if let TaskState::Ongoing { server, .. } = to {
                self.by_server.entry(server).or_default().insert(row.rec.id);
            }
        }
    }
}

/// Incremental view of one client's result catalog since a version the
/// client already holds: the additions to merge, plus the new high-water
/// mark to beat with next time.  This is what
/// [`CoordinatorDb::results_catalog_since`] returns and what
/// `ClientSyncReply` ships instead of the full catalog.
///
/// A reclaimed archive leaves no record: GC only reclaims what the client
/// acknowledged holding, so the client has nothing to withdraw.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CatalogDelta {
    /// Version high-water mark after this delta; the client echoes it in
    /// its next beat.
    pub head: u64,
    /// Results that became available since the base: `(seq, size)`.
    pub added: Vec<(u64, u64)>,
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
    /// Jobs the feed taught this database were delivered: a collection
    /// acknowledgement that was news, or a resident job a retired watermark
    /// pruned.
    pub newly_collected: u64,
    /// Rows that were unripe when the feed arrived and that it showed taken
    /// elsewhere (dispatched, finished or retired): each is a second
    /// dispatch of one instance that did not happen.
    pub superseded: u64,
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
    /// This database's incarnation: the boot instant it was created at (0
    /// at first boot).  A disk wipe creates a new one.
    incarnation: u64,
    /// The interned `(writer, incarnation)` pairs a [`Provenance`] indexes;
    /// slot 0 is this coordinator's own, and no other slot names it.  One
    /// slot per pair ever met: ring members × their incarnations.
    writers: Vec<(CoordId, u64)>,
    /// The incarnation each peer confirmed — announced on a reseed request,
    /// or named for itself on its own feed — and the one this database's
    /// feed to it names.  Absent is 0.
    incarnations: BTreeMap<CoordId, u64>,
    version: u64,
    /// One row per client (see [`ClientRow`]): its marks and worklists,
    /// and its jobs' rows in a seq-indexed window.
    clients: ClientTable,
    /// One row per task instance, keyed by the raw [`TaskId`]: a window,
    /// since instance ids are dense in mint order.
    tasks: SeqWindow<TaskRow>,
    /// Where each task row's state files it: the FCFS queue and the
    /// per-server sets.
    index: TaskIndex,
    /// `(lo, hi]`: the versions the last applied feed stamped.
    fed: (u64, u64),
    /// When each server last spoke *here* (stamped by
    /// [`Self::reconcile_server`], i.e. on every beat): what this
    /// coordinator's suspicion of the server can testify about.  One entry
    /// per server ever heard — fleet-sized, not lifetime.
    server_heard: BTreeMap<ServerId, SimTime>,
    /// The last instance counter minted ([`TaskId::compose`]).  It starts
    /// at the incarnation, so a wiped coordinator never mints an id its
    /// earlier incarnations handed out: their ranges could meet only if
    /// one minted more than one instance per nanosecond it lived.  The
    /// counter has 48 bits: a boot instant past 2^48 ns (≈ 78 h of run
    /// time) overflows it, which `compose`'s debug assertion catches.
    task_counter: u64,
    duplicate_results: u64,
    /// Version-ordered change index ([`ChangeIndex`]).  Backs O(changed)
    /// [`Self::delta_since`] and the echo-free [`Self::feed_for`].
    changed: ChangeIndex,
    /// Finished jobs whose archive is not held here — maintained at every
    /// archive/finished transition so neither the archive pull nor the
    /// re-execution scan walks the table.  A worklist, not an attribute:
    /// membership ≡ the row is finished, holds no archive and is not
    /// `Collected`.  Entries enter only in [`Self::apply_delta_owned`].
    missing: ReexecWatch,
    /// Rows carrying the finished flag: [`Self::finished_count`] is read
    /// after every completion and applied feed.
    finished_rows: u64,
    /// Task rows pruned by retention (lifetime), folded back into
    /// [`Self::stats`] so observers see monotone counts across pruning.
    retired_tasks: u64,
}

impl CoordinatorDb {
    /// Empty database owned by coordinator `me`, at its first boot
    /// (incarnation 0).
    pub fn new(me: CoordId) -> Self {
        Self::with_incarnation(me, 0)
    }

    /// Empty database owned by coordinator `me`, created in `incarnation`:
    /// the boot instant (in ns) of a coordinator that lost its disk, and
    /// where its instance counter starts.
    pub fn with_incarnation(me: CoordId, incarnation: u64) -> Self {
        CoordinatorDb {
            me,
            incarnation,
            writers: vec![(me, incarnation)],
            incarnations: BTreeMap::new(),
            version: 0,
            clients: ClientTable::default(),
            tasks: SeqWindow::new(),
            index: TaskIndex::default(),
            fed: (0, 0),
            server_heard: BTreeMap::new(),
            task_counter: incarnation,
            duplicate_results: 0,
            changed: ChangeIndex::default(),
            missing: ReexecWatch::default(),
            finished_rows: 0,
            retired_tasks: 0,
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

    /// This database's incarnation (0 at first boot).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Records that `peer` confirmed `incarnation` (incarnations are boot
    /// instants, so a lower one is stale and changes nothing).  The feed to
    /// `peer` names it from now on, and skips only rows `peer` wrote in it.
    pub fn note_incarnation(&mut self, peer: CoordId, incarnation: u64) {
        if peer != self.me && incarnation > self.incarnation_known(peer) {
            self.incarnations.insert(peer, incarnation);
        }
    }

    /// The incarnation `peer` confirmed to this database (0 if none).
    fn incarnation_known(&self, peer: CoordId) -> u64 {
        self.incarnations.get(&peer).copied().unwrap_or(0)
    }

    /// The interned provenance of rows `writer` wrote in `incarnation`; a
    /// row this coordinator holds is its own in any case.
    fn writer(&mut self, writer: CoordId, incarnation: u64) -> Provenance {
        if writer == self.me {
            return Provenance::LOCAL;
        }
        let pair = (writer, incarnation);
        let slot = match self.writers.iter().position(|&w| w == pair) {
            Some(slot) => slot,
            None => {
                self.writers.push(pair);
                self.writers.len() - 1
            }
        };
        Provenance(slot as u32)
    }

    /// Raises the registration high-water mark of the client in `slot` to
    /// `mark` (no-op if not higher, once stamped), versioning the change
    /// so deltas carry only moved marks.
    fn note_mark(&mut self, slot: ClientSlot, mark: u64, from: Provenance) {
        let row = &mut self.clients[slot].mark;
        if mark > row.mark || row.version == 0 {
            row.mark = mark;
            row.version =
                self.changed.touch(&mut self.version, row.version, Changed::Mark(slot), from);
        }
    }

    /// True when this coordinator knows `job`'s result was delivered to
    /// the client: the seq sits at or below the client's
    /// contiguous-collected watermark, or the job's result is `Flagged`
    /// (GC-eligible) or `Delivered` (archive reclaimed).
    pub fn has_collected_knowledge(&self, job: &JobKey) -> bool {
        self.clients.get(job.client).is_some_and(|c| {
            job.seq <= c.contig
                || c.jobs.get(job.seq).is_some_and(|r| {
                    matches!(r.result, JobResult::Flagged { .. } | JobResult::Delivered { .. })
                })
        })
    }

    /// `client`'s contiguous-collected watermark: the largest `w` with
    /// every seq `1..=w` in the `Collected` terminal state (0 if none).
    pub fn contig_watermark(&self, client: ClientKey) -> u64 {
        self.clients.get(client).map_or(0, |c| c.contig)
    }

    /// `client`'s retired prefix: every seq `1..=r` was delivered and had
    /// all of its rows pruned (0 if none).  Always ≤
    /// [`Self::contig_watermark`].
    pub fn retired_watermark(&self, client: ClientKey) -> u64 {
        self.clients.get(client).map_or(0, |c| c.retired.mark)
    }

    /// Raises the retired prefix of the client in `slot` to `through`
    /// (above the current one) and re-stamps its watermark row, written by
    /// `from`: every feed whose base lies below the new stamp carries it.
    fn raise_retired(&mut self, slot: ClientSlot, through: u64, from: Provenance) {
        let row = &mut self.clients[slot].retired;
        row.mark = through;
        row.version =
            self.changed.touch(&mut self.version, row.version, Changed::Retired(slot), from);
    }

    /// Advances the contiguous-collected watermark of the client in `slot`
    /// over any newly contiguous prefix of the `Collected` terminal set.
    fn advance_collected_contig(&mut self, slot: ClientSlot) {
        let c = &mut self.clients[slot];
        let delivered = |r: &JobRow| matches!(r.result, JobResult::Delivered { .. });
        while c.jobs.get(c.contig + 1).is_some_and(delivered) {
            c.contig += 1;
        }
    }

    /// Records the client's durable collection acknowledgement for `job`
    /// as replicable knowledge.  Idempotent; ignored for jobs unknown here
    /// (the job row always precedes its collected row in a version-ordered
    /// delta, so this only drops acks for jobs we never heard of at all).
    /// Returns true when the knowledge is news.
    fn note_collected(&mut self, job: JobKey, from: Provenance) -> bool {
        let Some(slot) = self.clients.slot(job.client) else { return false };
        let c = &self.clients[slot];
        // Known already: under the watermark or acked on the row (what
        // `has_collected_knowledge` reads); unknown: no resident row.
        let news = job.seq > c.contig
            && c.jobs.get(job.seq).is_some_and(|r| r.result.collected_pos().is_none());
        if !news {
            return false;
        }
        let pos = self.changed.touch(&mut self.version, 0, Changed::Collected(slot, job.seq), from);
        self.settle_in(slot, job.seq, Settle::Ack(pos));
        true
    }

    /// The one writer of `job`'s result ([`JobResult`]), and of everything
    /// kept in step with it: the finished count, the missing worklist, the
    /// GC worklist, the catalog index (a stored archive is stamped a fresh
    /// version) and the checkpoint blob, dead weight once a result exists.
    /// An acknowledged archive held here is flagged GC-eligible; with none
    /// held, the acknowledgement is terminal — the job must never be
    /// re-executed or re-acquired just because the archive is elsewhere
    /// (or gone).
    fn settle(&mut self, job: JobKey, how: Settle) {
        let slot = self.clients.slot(job.client).expect("a result's job is resident");
        self.settle_in(slot, job.seq, how);
    }

    /// [`Self::settle`] of seq `seq` of the client in `slot`.
    fn settle_in(&mut self, slot: ClientSlot, seq: u64, how: Settle) {
        let client = &mut self.clients[slot];
        let job = JobKey { client: client.key, seq };
        let row = client.jobs.get_mut(seq).expect("a result's job is resident");
        let old = std::mem::replace(&mut row.result, JobResult::Open);
        let (was_finished, acked) = (old.finished(), old.collected_pos());
        row.result = match (how, old) {
            (Settle::Ack(collected_pos), JobResult::Held { payload, catalog_pos }) => {
                client.flagged.insert(job.seq);
                JobResult::Flagged { payload, catalog_pos, collected_pos }
            }
            (how, old) => {
                match old {
                    JobResult::Missing => self.missing.leave(&job),
                    JobResult::Held { catalog_pos, .. }
                    | JobResult::Flagged { catalog_pos, .. } => {
                        client.catalog.remove(&catalog_pos);
                        client.flagged.remove(&job.seq);
                    }
                    JobResult::Open | JobResult::Delivered { .. } => {}
                }
                match how {
                    Settle::Forget => JobResult::Open,
                    Settle::Finished(now) => {
                        self.missing.enter(job, now);
                        JobResult::Missing
                    }
                    Settle::Store(payload) => {
                        self.version += 1;
                        client.catalog.insert(self.version, job.seq);
                        JobResult::Held { payload, catalog_pos: self.version }
                    }
                    Settle::Ack(collected_pos) => JobResult::Delivered { collected_pos },
                    Settle::Reclaim => JobResult::Delivered {
                        collected_pos: acked.expect("a flagged row was acked"),
                    },
                }
            }
        };
        match (was_finished, row.result.finished()) {
            (false, true) => {
                self.finished_rows += 1;
                // The varint mark and the row's version stay — the monotone
                // merge and `ckpt_scan` still see the mark; only the payload
                // bytes are reclaimed.
                if let Some(ckpt) = row.ckpt.as_mut() {
                    ckpt.blob = Blob::empty();
                }
            }
            (true, false) => self.finished_rows -= 1,
            _ => {}
        }
        if matches!(row.result, JobResult::Delivered { .. }) {
            self.advance_collected_contig(slot);
        }
    }

    // --- job registration -------------------------------------------------

    /// Stamps and stores the row of `spec`, written by `from`, in its
    /// client's vacant slot, then raises the client's registration mark
    /// over it.
    fn add_job(&mut self, slot: ClientSlot, spec: JobSpec, from: Provenance) {
        let seq = spec.key.seq;
        let v = self.changed.touch(&mut self.version, 0, Changed::Job(slot, seq), from);
        let old = self.clients[slot].jobs.insert(seq, JobRow::new(spec, v));
        debug_assert!(old.is_none(), "seq {seq}: a row inserted over a resident one");
        self.note_mark(slot, seq, from);
    }

    /// True when `key` may not be registered (again): it is registered, or
    /// it is retired — a retired seq was delivered and pruned, and
    /// re-registering would resurrect a zombie row set.
    fn refuses_registration(&self, key: &JobKey) -> bool {
        self.knows_job(key) || key.seq <= self.retired_watermark(key.client)
    }

    /// Registers the jobs a client submitted, in the order given; translates
    /// each into `spec.replication` task instances (paper: "jobs ... are
    /// translated as tasks (instances of jobs)").  Duplicate registrations
    /// (client resend after sync) and retired seqs are recognized and
    /// skipped.  Returns how many jobs were new.
    ///
    /// A submission frame is one statement: row inserts amortize four to
    /// an operation, which is what makes client-side-log synchronization (a
    /// log replay, registered in bulk) markedly cheaper than the
    /// coordinator-side direction in Fig. 6, and each instance past a job's
    /// first costs one more.  Over the new jobs, the charge is
    /// `1 + ⌈new/4⌉ + Σ(max(r, 1) − 1)` operations and their parameter
    /// bytes: one operation when nothing is new, `1 + r` for one new job.
    pub fn register_jobs(&mut self, specs: impl IntoIterator<Item = JobSpec>) -> (u64, Charge) {
        let (mut new, mut extra, mut bytes) = (0, 0, 0);
        for spec in specs {
            if self.refuses_registration(&spec.key) {
                continue;
            }
            let (key, replication) = (spec.key, u64::from(spec.replication.max(1)));
            new += 1;
            extra += replication - 1;
            bytes += spec.params.len();
            let slot = self.clients.intern(key.client);
            self.add_job(slot, spec, Provenance::LOCAL);
            for _ in 0..replication {
                self.create_instance(key);
            }
        }
        (new, Charge::db(1 + new.div_ceil(4) + extra, bytes))
    }

    /// Registers one job: [`Self::register_jobs`] of a batch of one.
    /// Returns whether it was new.
    pub fn register_job(&mut self, spec: JobSpec) -> (bool, Charge) {
        let (new, charge) = self.register_jobs([spec]);
        (new == 1, charge)
    }

    /// True if the job is known (registered).
    pub fn knows_job(&self, key: &JobKey) -> bool {
        self.clients.job(key).is_some()
    }

    /// Highest registered submission timestamp for `client` (0 if none) —
    /// the coordinator's half of the client synchronization handshake.
    pub fn client_max(&self, client: ClientKey) -> u64 {
        self.clients.get(client).map_or(0, |c| c.mark.mark)
    }

    /// Builds the task description of instance `id` (attempt `attempt`) of
    /// `spec`'s job at dispatch: each payload field is cloned exactly once,
    /// straight from the job row (task rows hold no copy of it).
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
        let row = self.clients.job_mut(&job)?;
        let attempt = row.next_attempt;
        row.next_attempt += 1;
        self.task_counter += 1;
        let id = TaskId::compose(self.me, self.task_counter);
        let v = self.changed.touch(&mut self.version, 0, Changed::Task(id), Provenance::LOCAL);
        let rec = TaskRecord { id, job, attempt, state: TaskState::Pending, origin: self.me };
        self.tasks.insert(id.0, TaskRow { rec, watched: false, version: v });
        row.tasks.push(id);
        self.index.pending.insert(v, id);
        Some(id)
    }

    // --- scheduling --------------------------------------------------------

    /// FCFS dispatch: next runnable pending task for `server`, or `None`.
    /// Only ripe rows are runnable: a peer's row waits out one feed here.
    ///
    /// Skips tasks of already-finished jobs (a sibling instance or another
    /// replica's execution produced the result first).
    pub fn next_pending(&mut self, server: ServerId, now: SimTime) -> (Option<TaskDesc>, Charge) {
        let mut ops = 1; // the queue lookup itself
        while let Some((_, id)) = self.index.pending.pop_first() {
            ops += 1;
            let row = self.tasks.get_mut(id.0).expect("a queued task row exists");
            let job = self.clients.job(&row.rec.job).expect("a task row's job is registered");
            if job.result.finished() {
                // Sibling instance already produced the result: retire the
                // instance outright.  Its queue entry is gone, so the row
                // leaves `Pending` too: the queue holds every `Pending` row.
                self.index.refile(row, Some(TaskState::Finished { result_size: 0 }));
                let v = self.changed.touch(
                    &mut self.version,
                    row.version,
                    Changed::Task(id),
                    Provenance::LOCAL,
                );
                row.version = v;
                continue;
            }
            self.index.refile(row, Some(TaskState::Ongoing { server, since: now }));
            row.watched = true;
            let desc = Self::describe(&job.spec, id, row.rec.attempt);
            let params = job.spec.params.len();
            let v = self.changed.touch(
                &mut self.version,
                row.version,
                Changed::Task(id),
                Provenance::LOCAL,
            );
            row.version = v;
            return (Some(desc), Charge::db(ops, params));
        }
        (None, Charge::ops(ops))
    }

    // --- completion ---------------------------------------------------------

    /// Registers a task result arriving from `server`.
    ///
    /// At-least-once semantics: the first result for a job wins; duplicates
    /// from racing instances are counted and dropped.  An instance id names
    /// one job ring-wide (ids are never minted twice, wipes included), so
    /// a known task reporting another job comes from a faulty server: it
    /// is refused as [`CompleteOutcome::UnknownJob`] and changes nothing.
    pub fn complete_task(
        &mut self,
        task: TaskId,
        job: JobKey,
        archive: Blob,
        server: ServerId,
    ) -> (CompleteOutcome, Charge) {
        let size = archive.len();
        // Un-index the instance and mark it finished if known.
        if let Some(row) = self.tasks.get_mut(task.0) {
            if row.rec.job != job {
                return (CompleteOutcome::UnknownJob, Charge::ops(1));
            }
            self.index.refile(row, Some(TaskState::Finished { result_size: size }));
            let v = self.changed.touch(
                &mut self.version,
                row.version,
                Changed::Task(task),
                Provenance::LOCAL,
            );
            row.version = v;
        } else {
            let Some(owner) = self.clients.job(&job) else {
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
        // Either way the job is resident (a task row's job always is), and
        // an archive held or delivered already makes this one a duplicate.
        if !self.wants_archive(&job) {
            self.duplicate_results += 1;
            return (CompleteOutcome::Duplicate, Charge::ops(2));
        }
        self.settle(job, Settle::Store(archive));
        let _ = server;
        // 2 db ops (task + job rows) plus the archive write to the
        // filesystem store.
        (CompleteOutcome::NewResult, Charge::db(2, 0) + Charge::disk(size))
    }

    /// Jobs finished according to replicated state but whose archive we do
    /// not hold (archives are never replicated) — these are requested back
    /// from servers during synchronization.  Served from a maintained set:
    /// O(missing), not O(finished), in key order.
    pub fn missing_archives(&self) -> impl Iterator<Item = JobKey> + '_ {
        self.missing.entries.keys().copied()
    }

    /// When `job` entered the missing set (or was last re-armed), if in it.
    pub fn missing_since(&self, job: &JobKey) -> Option<SimTime> {
        self.missing.entries.get(job).map(|w| w.since)
    }

    /// Re-arms every missing entry at `now`, restamped and un-parked: what a
    /// (re)started coordinator owes before any client has spoken to it.
    pub fn rearm_missing(&mut self, now: SimTime) {
        let m = &mut self.missing;
        m.due.clear();
        for (job, w) in &mut m.entries {
            *w = Watch { since: now, parked: false };
            m.due.insert((now, *job));
        }
    }

    /// Un-parks `client`'s missing entries with their original stamps: its
    /// traffic now lands here, so their recovery is this coordinator's.
    pub fn unpark_missing(&mut self, client: ClientKey) {
        let m = &mut self.missing;
        let (lo, hi) = (JobKey { client, seq: 0 }, JobKey { client, seq: u64::MAX });
        for (job, w) in m.entries.range_mut(lo..=hi) {
            if std::mem::take(&mut w.parked) {
                m.due.insert((w.since, *job));
            }
        }
    }

    /// The un-parked missing entries older than `horizon` at `now`, in key
    /// order (the order re-execution assigns task ids in), parking instead
    /// those whose client is not in `served`.  They stay in the set until
    /// [`Self::reexecute_job`] takes them out.  O(overdue).
    pub fn overdue_missing(
        &mut self,
        now: SimTime,
        horizon: SimDuration,
        served: &BTreeSet<ClientKey>,
    ) -> Vec<JobKey> {
        let m = &mut self.missing;
        let mut overdue: Vec<JobKey> = m
            .due
            .iter()
            .take_while(|&&(since, _)| now.since(since) > horizon)
            .map(|&(_, job)| job)
            .collect();
        overdue.sort_unstable();
        overdue.retain(|job| {
            if served.contains(&job.client) {
                return true;
            }
            let w = m.entries.get_mut(job).expect("due entries are in the set");
            w.parked = true;
            m.due.remove(&(w.since, *job));
            false
        });
        overdue
    }

    /// Scan-based reference definition of [`Self::missing_archives`], kept
    /// for the equivalence property tests.  `Collected` is terminal: a
    /// delivered-then-GC'd result is not missing.
    #[doc(hidden)]
    pub fn missing_archives_scan(&self) -> Vec<JobKey> {
        self.clients
            .jobs()
            .filter(|(_, r)| matches!(r.result, JobResult::Missing))
            .map(|(k, _)| k)
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
        self.settle(job, Settle::Store(archive));
        Charge::db(1, 0) + Charge::disk(size)
    }

    /// True when this coordinator would benefit from receiving `job`'s
    /// archive (known, not held, and not already delivered to the client).
    pub fn wants_archive(&self, job: &JobKey) -> bool {
        self.clients
            .job(job)
            .is_some_and(|r| matches!(r.result, JobResult::Open | JobResult::Missing))
    }

    /// True when `job` reached the `Collected` terminal state.
    pub fn is_collected(&self, job: &JobKey) -> bool {
        self.clients.job(job).is_some_and(|r| matches!(r.result, JobResult::Delivered { .. }))
    }

    /// Reverts a job to pending execution because its result archive is
    /// unrecoverable (server lost its log): at-least-once re-execution.
    /// Refused for `Collected` jobs — the client already holds the result,
    /// so there is nothing to recover (the post-GC re-execution leak).
    pub fn reexecute_job(&mut self, job: JobKey) -> (Option<TaskId>, Charge) {
        if !self.wants_archive(&job) {
            return (None, Charge::ops(1));
        }
        self.settle(job, Settle::Forget);
        let id = self.create_instance(job);
        (id, Charge::ops(2))
    }

    // --- fault handling -----------------------------------------------------

    /// True when `job` already has a dispatchable queued instance.  The
    /// two recovery paths (server suspicion, beat reconciliation) can both
    /// conclude the same job needs a new instance in the same failover
    /// window; one queued instance is recovery enough.
    fn has_live_pending(&self, job: &JobKey) -> bool {
        self.clients.job(job).is_some_and(|r| {
            !r.result.finished()
                && r.tasks.iter().any(|id| {
                    self.tasks.get(id.0).is_some_and(|t| matches!(t.rec.state, TaskState::Pending))
                })
        })
    }

    /// The common tail of the two recovery paths, and the one place they
    /// mint: one new instance per job of `jobs` that has none queued, after
    /// one op for the lookup that found them.
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
    /// (the server answered *us* to get it) or adopted here (we watch its
    /// server since), and for a replicated row whose dispatch predates the
    /// server's last word here (it held the task while it was still talking
    /// to us).  A task some other coordinator gave the server after it
    /// stopped talking to us is that coordinator's to watch — silence
    /// testifies only about what came before it.
    fn silence_covers(row: &TaskRow, heard: Option<SimTime>) -> bool {
        row.watched
            || match row.rec.state {
                TaskState::Ongoing { since, .. } => heard.is_some_and(|at| since < at),
                _ => true,
            }
    }

    /// Server suspected: schedule new instances of its ongoing tasks
    /// ("when a coordinator suspects a server failure, it schedules new
    /// instances of all RPC calls forwarded to the suspect") — of those the
    /// suspicion covers (dispatched or adopted here, or dispatched anywhere
    /// before the server last spoke here — `silence_covers`); the rest stay
    /// indexed for the beat-driven [`Self::reconcile_server`].  The old
    /// instances stay ongoing — off-line computing means the server may
    /// still deliver them later; duplicates are dropped at completion.
    pub fn server_suspected(&mut self, server: ServerId) -> (Vec<TaskId>, Charge) {
        let heard = self.server_heard.get(&server).copied();
        let mut victims: Vec<JobKey> = Vec::new();
        for id in self.indexed_on(server) {
            let Some(row) = self.tasks.get_mut(id.0) else { continue };
            if !Self::silence_covers(row, heard) {
                continue;
            }
            self.index.refile(row, None);
            if !self.clients.job(&row.rec.job).is_some_and(|j| j.result.finished()) {
                victims.push(row.rec.job);
            }
        }
        self.reinstance(victims)
    }

    /// The instances indexed on `server` (ongoing there as far as this
    /// coordinator knows, and not yet given up on), in id order.
    #[doc(hidden)]
    pub fn indexed_on(&self, server: ServerId) -> Vec<TaskId> {
        self.index
            .by_server
            .get(&server)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The servers some instance is indexed on: every server this
    /// coordinator still answers for, whoever it beats now.
    #[doc(hidden)]
    pub fn indexed_servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.index.by_server.keys().copied()
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
        if let Some(row) = self.tasks.get_mut(task.0) {
            if let TaskState::Ongoing { server, .. } = row.rec.state {
                row.rec.state = TaskState::Ongoing { server, since: at };
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
            .index
            .by_server
            .get(&server)
            .map(|set| {
                set.iter()
                    .filter(|id| running.binary_search(id).is_err())
                    .filter_map(|id| self.tasks.get(id.0))
                    .filter(|r| match r.rec.state {
                        TaskState::Ongoing { since, .. } => now.since(since) > grace,
                        _ => false,
                    })
                    .filter(|r| !self.clients.job(&r.rec.job).is_some_and(|j| j.result.finished()))
                    .map(|r| (r.rec.id, r.rec.job))
                    .collect()
            })
            .unwrap_or_default();
        for (old, _) in &lost {
            if let Some(row) = self.tasks.get_mut(old.0) {
                self.index.refile(row, None);
            }
        }
        self.reinstance(lost.into_iter().map(|(_, job)| job))
    }

    /// The custody rule, keyed on each task row's writer (the coordinator
    /// that wrote its current state), for both row states a peer can hand
    /// over, in one walk of the task rows stamped above `since` (0: every
    /// row).  An unripe `Pending` row (a peer's, not yet dispatchable here)
    /// ripens when its writer is `written_off` here.  An unwatched
    /// `Ongoing` row still indexed on its server, of an unfinished job
    /// whose client is in `served`, is adopted (watched) when its
    /// dispatcher (the writer of its `Ongoing` state) is another
    /// coordinator, and that dispatcher is `written_off` here or the row's
    /// client is `contact`, the one making first contact.  Nothing is
    /// minted: the servers are usually alive, so their silence or beats
    /// re-instance what is lost ([`Self::server_suspected`],
    /// [`Self::reconcile_server`]).  The caller runs it wherever an input
    /// changes: a peer written off, a first contact (every row), a feed
    /// applied (the rows it stamped, above the version it found: every
    /// unripe row is one of those).  Returns the adopted rows' servers, one
    /// per row, in server order, and one op per row adopted (ripening
    /// moves an index entry only).
    pub fn adopt(
        &mut self,
        since: u64,
        contact: Option<ClientKey>,
        served: &BTreeSet<ClientKey>,
        written_off: impl Fn(CoordId) -> bool,
    ) -> (Vec<ServerId>, Charge) {
        debug_assert!(since <= self.fed.0, "the walk must cover every unripe row");
        let (tasks, clients, by_server) = (&mut self.tasks, &self.clients, &self.index.by_server);
        let mut watch = Vec::new();
        for (&v, entry) in self
            .changed
            .entries
            .range((std::ops::Bound::Excluded(since), std::ops::Bound::Unbounded))
        {
            let Changed::Task(id) = entry.row else { continue };
            let Some(row) = tasks.get_mut(id.0) else { continue };
            let (writer, job) = (self.writers[entry.from.0 as usize].0, row.rec.job);
            match row.rec.state {
                TaskState::Pending if written_off(writer) => {
                    self.index.pending.insert(v, id);
                }
                TaskState::Ongoing { server, .. }
                    if !row.watched
                        && writer != self.me
                        && (written_off(writer) || contact == Some(job.client))
                        && served.contains(&job.client)
                        && by_server.get(&server).is_some_and(|set| set.contains(&id))
                        && !clients.job(&job).is_some_and(|j| j.result.finished()) =>
                {
                    row.watched = true;
                    watch.push(server);
                }
                _ => {}
            }
        }
        watch.sort_unstable();
        let charge = Charge::ops(watch.len() as u64);
        (watch, charge)
    }

    /// The unripe rows: the `Pending` rows the last applied feed stamped
    /// that are not queued, as `(version, id)` in queue order.
    fn unripe(&self) -> impl Iterator<Item = (u64, TaskId)> + '_ {
        let pending =
            |id: TaskId| self.tasks.get(id.0).is_some_and(|t| t.rec.state == TaskState::Pending);
        let fed = (std::ops::Bound::Excluded(self.fed.0), std::ops::Bound::Included(self.fed.1));
        self.changed.entries.range(fed).filter_map(move |(&v, e)| match e.row {
            Changed::Task(id) if pending(id) && !self.index.pending.contains_key(&v) => {
                Some((v, id))
            }
            _ => None,
        })
    }

    /// The `Pending` rows held back until they ripen, in queue order.
    #[doc(hidden)]
    pub fn unripe_rows(&self) -> Vec<TaskId> {
        self.unripe().map(|(_, id)| id).collect()
    }

    /// The coordinator that wrote `task`'s current state (its dispatcher,
    /// while the row is `Ongoing`), if the row is live here.
    #[doc(hidden)]
    pub fn writer_of(&self, task: TaskId) -> Option<CoordId> {
        let (_, from) = self.changed.get(self.tasks.get(task.0)?.version)?;
        Some(self.writers[from.0 as usize].0)
    }

    // --- client result collection --------------------------------------------

    /// `client`'s retained archives as `(seq, payload)`, in seq order: a
    /// walk of the client's own window — cost follows the client's own
    /// resident rows, not the whole table.
    fn client_archives(&self, client: ClientKey) -> impl Iterator<Item = (u64, &Blob)> + '_ {
        let jobs = self.clients.get(client).into_iter().flat_map(|c| c.jobs.iter());
        jobs.filter_map(|(seq, row)| Some((seq, row.result.archive()?)))
    }

    /// Scan-based reference definition of the full result catalog — every
    /// retained result for `client`, collected or not; only archives
    /// already garbage-collected are truly gone — kept for the equivalence
    /// property tests (a client merging [`Self::results_catalog_since`]
    /// deltas from base 0 must converge to exactly this).
    #[doc(hidden)]
    pub fn results_catalog_scan(&self, client: ClientKey) -> Vec<(u64, u64)> {
        self.client_archives(client).map(|(seq, payload)| (seq, payload.len())).collect()
    }

    /// Incremental result catalog: the archives stored for `client` since
    /// version `since` (0 = full catalog) and still held.  A range read
    /// over the per-client catalog index — O(changed · log n), never a
    /// rescan of the archive table.  The client echoes the returned `head`
    /// in its next beat, so a steady-state beat carries only the results
    /// that finished since the previous one.
    pub fn results_catalog_since(&self, client: ClientKey, since: u64) -> CatalogDelta {
        let mut delta = CatalogDelta { head: self.version, ..CatalogDelta::default() };
        if since >= self.version {
            return delta;
        }
        let Some(c) = self.clients.get(client) else { return delta };
        for (_, &seq) in c.catalog.range(since + 1..) {
            if let Some(payload) = c.jobs.get(seq).and_then(|r| r.result.archive()) {
                delta.added.push((seq, payload.len()));
            }
        }
        delta
    }

    /// The archive payload for one job.
    pub fn archive(&self, job: &JobKey) -> Option<&Blob> {
        self.clients.job(job)?.result.archive()
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
        let victims = self.collected_flagged();
        let mut freed = 0;
        for &k in &victims {
            freed += self.archive(&k).map_or(0, Blob::len);
            self.settle(k, Settle::Reclaim);
        }
        (freed, Charge::ops(victims.len() as u64 + 1))
    }

    /// The GC-eligible set: retained archives whose collection the client
    /// acknowledged (maintained incrementally — O(flagged) to read).
    pub fn collected_flagged(&self) -> Vec<JobKey> {
        (self.clients.iter())
            .flat_map(|(_, c)| c.flagged.iter().map(move |&seq| JobKey { client: c.key, seq }))
            .collect()
    }

    /// Scan-based reference definition of [`Self::collected_flagged`],
    /// kept for the equivalence property tests: what a pre-index GC would
    /// find by walking the archive table.
    #[doc(hidden)]
    pub fn collected_flagged_scan(&self) -> Vec<JobKey> {
        self.clients
            .jobs()
            .filter(|(_, r)| matches!(r.result, JobResult::Flagged { .. }))
            .map(|(k, _)| k)
            .collect()
    }

    // --- task checkpoints (extension) -------------------------------------------

    /// Monotone checkpoint merge shared by the upload path and delta
    /// application: records `unit_hw`/`blob` for `job` unless an equal or
    /// higher mark is already held (replaying any prefix of uploads, in
    /// any order, therefore yields a non-decreasing resume mark).  Returns
    /// true when the row moved (and was re-stamped into the change index).
    fn note_ckpt(&mut self, job: JobKey, unit_hw: u32, blob: Blob, from: Provenance) -> bool {
        let Some(slot) = self.clients.slot(job.client) else { return false };
        let Some(row) = self.clients[slot].jobs.get_mut(job.seq) else {
            return false; // a job row always precedes its ckpt rows
        };
        let old = match row.ckpt.as_ref() {
            Some(ckpt) if ckpt.unit_hw >= unit_hw => return false,
            Some(ckpt) => ckpt.version,
            None => 0,
        };
        // Finished ⇒ no resume-state payload is ever retained (mirrors
        // the in-place clearing of `settle` on the apply path).
        let blob = if row.result.finished() { Blob::empty() } else { blob };
        let version =
            self.changed.touch(&mut self.version, old, Changed::Ckpt(slot, job.seq), from);
        match row.ckpt.as_mut() {
            Some(ckpt) => **ckpt = CkptRow { unit_hw, blob, version },
            None => row.ckpt = Some(Box::new(CkptRow { unit_hw, blob, version })),
        }
        true
    }

    /// The registered work-unit count of `job` (the authority a checkpoint
    /// upload's self-declared progress is checked against).
    pub fn job_work_units(&self, job: &JobKey) -> Option<u32> {
        self.clients.job(job).map(|r| r.spec.work_units.max(1))
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
        if self.clients.job(&job).is_some_and(|r| r.result.finished()) {
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
        let row = self.clients.job(job)?;
        if row.result.finished() {
            return None;
        }
        let ckpt = row.ckpt.as_ref()?;
        (ckpt.unit_hw > 0).then_some((ckpt.unit_hw, &ckpt.blob))
    }

    /// Raw checkpoint high-water mark for `job`, finished or not
    /// (introspection/harness use; dispatch goes through
    /// [`Self::resume_point`]).
    pub fn ckpt_high_water(&self, job: &JobKey) -> Option<u32> {
        self.clients.job(job)?.ckpt.as_ref().map(|c| c.unit_hw)
    }

    /// Scan-based reference view of every checkpoint row, kept for the
    /// equivalence property tests: `(job, unit high-water mark)` in key
    /// order.
    #[doc(hidden)]
    pub fn ckpt_scan(&self) -> Vec<(JobKey, u32)> {
        self.clients.jobs().filter_map(|(j, r)| Some((j, r.ckpt.as_ref()?.unit_hw))).collect()
    }

    // --- replication -----------------------------------------------------------

    /// Builds the delta of everything changed since `base` version.
    ///
    /// A range read over the version-ordered change index: only rows with
    /// `version > base` are visited — O(changed · log n), independent of
    /// table size.  Client marks, collection acknowledgements and retired
    /// watermarks are versioned like any other row, so a steady-state
    /// round carries only the marks that actually moved, the collections
    /// acknowledged and the watermarks raised since the last round (the
    /// full-table predecessor re-sent every known client each round).
    /// Rows come out in version order, which guarantees a job row precedes
    /// its task and collected rows.
    ///
    /// This is the *complete* feed — bootstraps and the scan references
    /// are all defined by it — from every base: a row retention pruned
    /// left the index, but the [`DeltaRow::Retired`] watermark that covers
    /// it was re-stamped above every version pruned, so a feed from any
    /// base carries every watermark stamped above it, and whoever held
    /// `base` and applies the feed holds all this database knows.  The
    /// round to a ring peer is [`Self::feed_for`], the same builder with
    /// that peer's own rows left out.
    pub fn delta_since(&self, base: u64) -> ReplicationDelta {
        self.build_delta(base, None)
    }

    /// The feed for ring peer `to`, which acknowledged `base`:
    /// [`Self::delta_since`]`(base)` minus the entries `to` itself wrote in
    /// the incarnation it confirmed ([`Self::note_incarnation`]) — a row is
    /// never carried back to the coordinator it started from (that peer
    /// holds it at an equal or higher state, so re-applying it there is a
    /// no-op the sender would still pay to read, size and ship).  Skipped
    /// entries cost one index step each: no row lookup, no clone.  The
    /// feed names the writer of every relayed row ([`DeltaRow::Writer`]),
    /// so the receiver keeps the provenance for the next hop; rows `to`
    /// wrote in an earlier incarnation travel as this coordinator's own.
    ///
    /// A from-zero feed is a bootstrap, complete by definition: nothing is
    /// skipped.  That is what keeps a disk wipe safe — a wiped peer lost
    /// its applied-head record along with its rows, and its new database
    /// has a new incarnation.  It refuses every `base > 0` feed that is a
    /// gap or names another incarnation than its own, so no feed it accepts
    /// skips a row only its lost disk held; the reseed it asks for
    /// announces the new incarnation and carries every row, its own
    /// included, and every watermark, however this database came to know
    /// it.
    pub fn feed_for(&self, to: CoordId, base: u64) -> ReplicationDelta {
        self.build_delta(base, Some(to))
    }

    /// The one feed builder: the rows changed since `base`, in version
    /// order.  Fed to peer `to`, it opens with the two ends' incarnations
    /// (each when not 0), leaves out (when `base > 0`) the entries `to`
    /// wrote in the incarnation it confirmed, and marks the writer wherever
    /// it changes; fed to no one in particular, every row is this
    /// coordinator's own and it marks nothing.
    fn build_delta(&self, base: u64, to: Option<CoordId>) -> ReplicationDelta {
        let mut rows = Vec::new();
        // `skip`: the rows the receiver wrote in the incarnation it
        // confirmed.  `theirs`: the rows it wrote in any other (in every
        // one, from zero), which travel as ours.
        let (mut current, mut skip, mut theirs) = (Provenance::LOCAL, None, Vec::new());
        if let Some(to) = to {
            let known = self.incarnation_known(to);
            if known != 0 {
                rows.push(DeltaRow::Writer { coord: to, incarnation: known });
            }
            if self.incarnation != 0 {
                rows.push(DeltaRow::Writer { coord: self.me, incarnation: self.incarnation });
            }
            for (slot, &(_, inc)) in self.writers.iter().enumerate().filter(|(_, w)| w.0 == to) {
                let from = Provenance(slot as u32);
                if base > 0 && inc == known {
                    skip = Some(from);
                } else {
                    theirs.push(from);
                }
            }
        }
        for (_, entry) in self
            .changed
            .entries
            .range((std::ops::Bound::Excluded(base), std::ops::Bound::Unbounded))
        {
            if Some(entry.from) == skip {
                continue;
            }
            let Some(row) = self.feed_row(entry.row) else { continue };
            let from = if to.is_none() || theirs.contains(&entry.from) {
                Provenance::LOCAL
            } else {
                entry.from
            };
            if from != current {
                let (coord, incarnation) = self.writers[from.0 as usize];
                rows.push(DeltaRow::Writer { coord, incarnation });
                current = from;
            }
            rows.push(row);
        }
        ReplicationDelta { from: self.me, base_version: base, head_version: self.version, rows }
    }

    /// The current contents of the row a change-index entry points at, as
    /// a feed row (`None` when nothing of it is left to send).
    fn feed_row(&self, changed: Changed) -> Option<DeltaRow> {
        let client = |slot: ClientSlot| &self.clients[slot];
        let key = |slot, seq| JobKey { client: client(slot).key, seq };
        match changed {
            Changed::Job(slot, seq) => {
                client(slot).jobs.get(seq).map(|r| DeltaRow::Job(r.spec.clone()))
            }
            Changed::Task(id) => self.tasks.get(id.0).map(|row| DeltaRow::Task(row.rec)),
            Changed::Mark(slot) => {
                let c = client(slot);
                Some(DeltaRow::Mark { client: c.key, mark: c.mark.mark })
            }
            Changed::Collected(slot, seq) => {
                let job = key(slot, seq);
                self.has_collected_knowledge(&job).then_some(DeltaRow::Collected { job })
            }
            Changed::Ckpt(slot, seq) => {
                let ckpt = client(slot).jobs.get(seq)?.ckpt.as_ref()?;
                let (job, unit_hw, blob) = (key(slot, seq), ckpt.unit_hw, ckpt.blob.clone());
                Some(DeltaRow::Ckpt { job, unit_hw, blob })
            }
            Changed::Retired(slot) => {
                let c = client(slot);
                Some(DeltaRow::Retired { client: c.key, through: c.retired.mark })
            }
        }
    }

    /// Full-table-scan reference definition of [`Self::delta_since`], kept
    /// for the equivalence property tests.
    /// (Marks, collection acknowledgements and checkpoints carry no
    /// per-row version in this definition, so it re-sends every known
    /// client's mark, every collected job and every checkpoint row, as a
    /// pre-index implementation would.  A retired watermark is one row per
    /// client, emitted when it was stamped above `base`.)
    #[doc(hidden)]
    pub fn delta_since_scan(&self, base: u64) -> ReplicationDelta {
        let retired = (self.clients.iter())
            .filter(|(_, c)| c.retired.version > base)
            .map(|(_, c)| DeltaRow::Retired { client: c.key, through: c.retired.mark });
        let jobs = (self.clients.jobs())
            .filter(|(_, r)| r.version > base)
            .map(|(_, r)| DeltaRow::Job(r.spec.clone()));
        let tasks = self
            .tasks
            .iter()
            .map(|(_, r)| r)
            .filter(|r| r.version > base)
            .map(|r| DeltaRow::Task(r.rec));
        let marks =
            (self.clients.iter()).map(|(_, c)| DeltaRow::Mark { client: c.key, mark: c.mark.mark });
        let terminal =
            self.clients.jobs().filter(|(_, r)| matches!(r.result, JobResult::Delivered { .. }));
        let flagged =
            self.clients.jobs().filter(|(_, r)| matches!(r.result, JobResult::Flagged { .. }));
        let collected = terminal.chain(flagged).map(|(job, _)| DeltaRow::Collected { job });
        let ckpts = self.clients.jobs().filter_map(|(job, r)| {
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

    /// Applies one replicated job description written by `from`.
    fn apply_job_row(&mut self, spec: JobSpec, from: Provenance) -> Charge {
        let key = spec.key;
        let slot = self.clients.intern(key.client);
        let c = &self.clients[slot];
        // A stale feed must not resurrect a retired job's rows; the mark
        // still merges (marks are never pruned).
        if key.seq <= c.retired.mark || c.jobs.contains(key.seq) {
            self.note_mark(slot, key.seq, from);
            return Charge::ops(1);
        }
        let params_len = spec.params.len();
        self.add_job(slot, spec, from);
        Charge::db(1, params_len)
    }

    /// Applies one replicated task row under the paper's merge rules.
    /// Returns true when the row taught this database that its job finished
    /// while the archive is not held here.
    fn apply_task_row(&mut self, rec: &TaskRecord, from: Provenance) -> bool {
        // Task for an unknown job: ignore (will come later).
        let Some(job) = self.clients.job_mut(&rec.job) else {
            return false;
        };
        match self.tasks.get_mut(rec.id.0) {
            None => {
                let v = self.changed.touch(&mut self.version, 0, Changed::Task(rec.id), from);
                job.next_attempt = job.next_attempt.max(rec.attempt + 1);
                // A feed's row is another coordinator's: it arrives as an
                // unqueued (unripe) `Pending` row and takes the feed's
                // state.  An `Ongoing` one is unwatched (until adopted) —
                // but indexed by server, so the beat-driven reconciliation
                // can reclaim it if that server reports the task lost, and
                // adoption finds it.  Without the index, a task dispatched
                // by a live-but-demoted predecessor is unrecoverable: the
                // dispatcher no longer hears the server's beats, and this
                // node would hold the row forever out of respect for the
                // live peer.
                let unripe = TaskRecord { state: TaskState::Pending, ..*rec };
                let mut row = TaskRow { rec: unripe, watched: false, version: v };
                self.index.refile(&mut row, Some(rec.state));
                self.tasks.insert(rec.id.0, row);
                job.tasks.push(rec.id);
            }
            Some(row) => {
                if state_rank(&rec.state) <= state_rank(&row.rec.state) {
                    return false;
                }
                self.index.refile(row, Some(rec.state));
                let v =
                    self.changed.touch(&mut self.version, row.version, Changed::Task(rec.id), from);
                row.version = v;
            }
        }
        // Any replicated Finished row is finished-knowledge, whatever its
        // size: `result_size: 0` is only ever written by a coordinator
        // retiring an instance *because its own finished set holds the
        // job*.  Discarding it wedges re-execution: the re-executing
        // coordinator's fresh instance gets retired by a peer that
        // remembers the job as finished, the retire row replicates back
        // as Finished{0}, and without this knowledge the re-executor never
        // relearns the job is done — so it never lists the archive as
        // missing and never pulls it from the peer that has it.
        rec.state.is_finished() && !job.result.finished()
    }

    /// Applies a delta from a peer; returns the cost.
    ///
    /// Merge rules (paper §4.2): finished is terminal; ongoing from the
    /// peer is *held* — never schedulable here; once the custody rule
    /// ([`Self::adopt`]) makes this coordinator answer for it, it is
    /// adopted, and re-instanced only when its server's silence or beats
    /// show it lost; pending becomes locally schedulable one feed later
    /// (it is unripe until the next feed), or once the rule finds its
    /// writer written off.  State precedence
    /// finished > ongoing > pending prevents downgrades from stale deltas.
    /// Collection acknowledgements are terminal knowledge: a collected job
    /// is exempt from re-execution and archive re-acquisition here exactly
    /// as it was on the sender.  Rows are applied in the sender's version
    /// order, which places every job before the task/collected rows that
    /// reference it.
    /// Archives it leaves missing are stamped [`SimTime::ZERO`], which is
    /// safe for a caller that never asks [`Self::overdue_missing`].
    pub fn apply_delta(&mut self, delta: &ReplicationDelta) -> Charge {
        self.apply_rows(delta.from, delta.rows.iter().cloned(), SimTime::ZERO).charge
    }

    /// [`Self::apply_delta`] for a caller that owns the frame, at `now`:
    /// job descriptions and checkpoint state move into the tables instead
    /// of being cloned, archives the feed leaves missing enter the worklist
    /// stamped `now`, and the deliveries learned come back with the cost.
    pub fn apply_delta_owned(&mut self, delta: ReplicationDelta, now: SimTime) -> Applied {
        self.apply_rows(delta.from, delta.rows.into_iter(), now)
    }

    /// The row-application loop: the rows the previous feed left unripe
    /// ripen first (their writers had a round to claim them), then rows are
    /// merged under the receiver's own version counter, every row the merge
    /// writes is stamped with the writer the feed names for it (unmarked
    /// rows are `peer`'s own), and every job it finishes without an archive
    /// enters the missing worklist at `now`.
    fn apply_rows(
        &mut self,
        peer: CoordId,
        rows: impl Iterator<Item = DeltaRow>,
        now: SimTime,
    ) -> Applied {
        // Ripening keeps each row's version key, so FCFS order holds.
        let ripened: Vec<(u64, TaskId)> = self.unripe().collect();
        self.index.pending.extend(ripened.iter().copied());
        let lo = self.version;
        let mut sender = self.writer(peer, 0);
        let mut from = sender;
        let mut applied = Applied { charge: Charge::ops(1), newly_collected: 0, superseded: 0 };
        for row in rows {
            applied.charge += match row {
                DeltaRow::Writer { coord, incarnation } => {
                    // What the receiver wrote comes back as the sender's; a
                    // marker naming the sender confirms its incarnation.
                    from = if coord == self.me { sender } else { self.writer(coord, incarnation) };
                    if coord == peer {
                        self.note_incarnation(peer, incarnation);
                        sender = from;
                    }
                    Charge::ZERO
                }
                DeltaRow::Job(spec) => self.apply_job_row(spec, from),
                DeltaRow::Task(rec) => {
                    if self.apply_task_row(&rec, from) {
                        self.settle(rec.job, Settle::Finished(now));
                    }
                    Charge::ops(1)
                }
                DeltaRow::Mark { client, mark } => {
                    let slot = self.clients.intern(client);
                    self.note_mark(slot, mark, from);
                    Charge::ZERO
                }
                DeltaRow::Collected { job } => {
                    if self.note_collected(job, from) {
                        applied.newly_collected += 1;
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
        self.fed = (lo, self.version);
        applied.superseded =
            ripened.iter().filter(|(v, _)| !self.index.pending.contains_key(v)).count() as u64;
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
    /// replica wrote it in the incarnation that acknowledged).
    /// Client marks are never pruned: the retained mark keeps
    /// `client_max ≥ seq` for every retired job, so the owning client's
    /// log GC/replay protocol (replay only above `coord_max`) can never
    /// resubmit one.
    ///
    /// Pruning re-stamps the client's retired watermark row, so a consumer
    /// tailing the feed from any base it acknowledged learns the pruned
    /// prefix as one [`DeltaRow::Retired`] row.  Clients are walked in key
    /// order, which is the order their watermarks are stamped in.
    ///
    /// O(clients) when nothing is retirable; otherwise O(rows pruned).
    /// Returns the number of jobs retired.
    pub fn prune_retired(&mut self, min_acked: u64) -> u64 {
        let mut pruned = 0;
        let mut after = std::ops::Bound::Unbounded;
        while let Some((&client, &slot)) =
            self.clients.slots.range((after, std::ops::Bound::Unbounded)).next()
        {
            after = std::ops::Bound::Excluded(client);
            let (w, start) = (self.clients[slot].contig, self.clients[slot].retired.mark);
            let mut r = start;
            while r < w && self.job_prunable(&JobKey { client, seq: r + 1 }, min_acked) {
                self.prune_job(&JobKey { client, seq: r + 1 });
                r += 1;
            }
            if r > start {
                self.raise_retired(slot, r, Provenance::LOCAL);
                pruned += r - start;
            }
        }
        pruned
    }

    /// True when every row of `k` — a `Collected`-terminal job — has a
    /// version at or below `min_acked`, i.e. the feed consumer already
    /// holds all of them and the rows can be dropped from the feed.
    fn job_prunable(&self, k: &JobKey, min_acked: u64) -> bool {
        let Some(row) = self.clients.job(k) else { return false };
        // Only delivered work retires.
        matches!(row.result, JobResult::Delivered { .. })
            && row.version <= min_acked
            && row.result.collected_pos().is_some_and(|pos| pos <= min_acked)
            && row.ckpt.as_ref().is_none_or(|c| c.version <= min_acked)
            && row
                .tasks
                .iter()
                .filter_map(|id| self.tasks.get(id.0))
                .all(|t| t.version <= min_acked)
    }

    /// Removes job `k`'s row and every row of it — tasks, collected
    /// knowledge, checkpoint, and a still-retained archive with its
    /// catalog entry and GC flag — from the tables and the change index,
    /// maintaining the secondary indexes and the FCFS queue.  A retired
    /// job was delivered: when a feed's watermark retires a lagging
    /// replica's job that was never collected here, the client holds the
    /// result all the same, so the archive goes with the rest.
    fn prune_job(&mut self, k: &JobKey) {
        let collected_pos = self.clients.job(k).and_then(|r| r.result.collected_pos());
        self.settle(*k, Settle::Forget);
        let slot = self.clients.slot(k.client).expect("a pruned job's client has a row");
        let gone = self.clients[slot].jobs.remove(k.seq).expect("a pruned job is resident");
        for id in gone.tasks.iter() {
            let Some(mut task) = self.tasks.remove(id.0) else { continue };
            self.changed.entries.remove(&task.version);
            self.retired_tasks += 1;
            self.index.refile(&mut task, None);
        }
        if let Some(pos) = collected_pos {
            self.changed.entries.remove(&pos);
        }
        if let Some(ckpt) = gone.ckpt {
            self.changed.entries.remove(&ckpt.version);
        }
        self.changed.entries.remove(&gone.version);
    }

    /// Raises `client`'s retired prefix to `w` on the authority of a feed's
    /// [`DeltaRow::Retired`] row written by `from`, pruning every
    /// still-resident row of the retired jobs (a lagging replica may hold
    /// rows the sender already pruned), and re-stamps the watermark so this
    /// database's own feeds pass it on.  Pruned jobs not known delivered
    /// before count into `news`.
    fn retire_through(
        &mut self,
        client: ClientKey,
        w: u64,
        from: Provenance,
        news: &mut u64,
    ) -> Charge {
        if w <= self.retired_watermark(client) {
            return Charge::ops(1);
        }
        let slot = self.clients.intern(client);
        // No row sits at or below the current watermark, so the window's
        // rows up to `w` are exactly the ones to prune.
        let doomed: Vec<u64> = self.clients[slot].jobs.range(0..=w).map(|(seq, _)| seq).collect();
        for &seq in &doomed {
            let k = JobKey { client, seq };
            if !self.has_collected_knowledge(&k) {
                *news += 1;
            }
            self.prune_job(&k);
        }
        self.raise_retired(slot, w, from);
        let c = &mut self.clients[slot];
        c.contig = c.contig.max(w);
        // Terminal-collected rows just above the new prefix may have
        // become contiguous with it.
        self.advance_collected_contig(slot);
        self.note_mark(slot, w, from);
        Charge::ops(1 + doomed.len() as u64)
    }

    /// Alias of [`Self::delta_since`]`(0)`, the complete feed a peer that
    /// holds nothing is bootstrapped from; the frozen `benchmark/` package
    /// spells this name.
    pub fn snapshot(&self) -> ReplicationDelta {
        self.delta_since(0)
    }

    /// Live change-index entries — one per resident row.  The
    /// bounded-memory gate: steady state tracks *live* jobs (plus one
    /// mark row and at most one watermark row per client), not lifetime
    /// jobs.
    pub fn resident_rows(&self) -> u64 {
        self.changed.entries.len() as u64
    }

    /// Lifetime count of retired (pruned-after-delivery) jobs: seqs are
    /// 1-based and contiguous below each retired watermark, so the sum of
    /// watermarks *is* the count.
    pub fn retired_count(&self) -> u64 {
        self.clients.rows.iter().map(|c| c.retired.mark).sum()
    }

    // --- introspection ------------------------------------------------------

    /// Looks up one task row.
    pub fn task(&self, id: TaskId) -> Option<&TaskRow> {
        self.tasks.get(id.0)
    }

    /// Counters for reporting: one walk of the task table and one of the
    /// job table (no hot path reads them).
    pub fn stats(&self) -> DbStats {
        // Jobs / tasks / collected are lifetime counts: retention prunes
        // the rows of delivered jobs, and observers (completion
        // timelines, safety oracles) rely on these never dipping.
        let retired = self.retired_count();
        let mut stats = DbStats {
            jobs: retired,
            tasks: self.tasks.len() as u64 + self.retired_tasks,
            duplicate_results: self.duplicate_results,
            collected: retired,
            ..DbStats::default()
        };
        for r in self.tasks.iter().map(|(_, r)| r) {
            match r.rec.state {
                TaskState::Pending => stats.pending += 1,
                TaskState::Ongoing { .. } => stats.ongoing += 1,
                TaskState::Finished { .. } => {}
            }
        }
        for (_, r) in self.clients.jobs() {
            stats.jobs += 1;
            stats.archived += r.result.archive().is_some() as u64;
            stats.collected += matches!(r.result, JobResult::Delivered { .. }) as u64;
            stats.ckpts += r.ckpt.is_some() as u64;
        }
        stats
    }

    /// Jobs finished (archive present, replicated-finished, or retired
    /// after delivery) — a lifetime count, monotone across retention.
    pub fn finished_count(&self) -> u64 {
        self.finished_rows + self.retired_count()
    }

    /// Recount-based audit of everything [`JobRow`] maintains
    /// incrementally — per-row flags and counters against the task table,
    /// the table-wide counts (what `stats()` and `finished_count()` report)
    /// against a walk of the rows, and every side index against the row
    /// attribute it mirrors.  For the equivalence property tests; panics on
    /// the first violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut by_job: BTreeMap<JobKey, Vec<&TaskRow>> = BTreeMap::new();
        // The task window is chunk-exact, as each client's job window is.
        self.tasks.audit();
        for (id, t) in self.tasks.iter() {
            assert_eq!(id, t.rec.id.0, "task row filed under another id");
            // Dispatch assembles the description from the job's spec.
            assert!(self.knows_job(&t.rec.job), "{id:?}: task row of an unregistered job");
            by_job.entry(t.rec.job).or_default().push(t);
        }
        let (mut registered, mut finished, mut collected, mut archived, mut ckpts) =
            (0, 0, 0, 0, 0);
        let (mut versioned, mut missing_rows, mut watermarks) = (0, 0, 0);
        let stamped = |v: u64, what: Changed, owner: &dyn std::fmt::Debug| {
            let entry = self.changed.get(v).map(|(row, _)| row);
            assert_eq!(entry, Some(what), "{owner:?}: change-index entry");
            1
        };
        assert_eq!(self.clients.rows.len(), self.clients.slots.len(), "one row per client");
        for (slot, c) in self.clients.iter() {
            let client = c.key;
            assert_eq!(self.clients.slot(client), Some(slot), "{client:?}: filed elsewhere");
            // Every row holds a stamped registration mark; a retired
            // watermark is stamped once it rose, over delivered work only.
            stamped(c.mark.version, Changed::Mark(slot), &client);
            if c.retired.version != 0 {
                watermarks += stamped(c.retired.version, Changed::Retired(slot), &client);
            }
            assert!(c.retired.version != 0 || c.retired.mark == 0, "{client:?}: unstamped");
            assert!(c.retired.mark <= c.contig, "{client:?}: retired undelivered work");
            // The window is chunk-exact — no chunk held empty, so it starts
            // on an occupied slot — and, seqs being contiguous by protocol,
            // reaches no higher than the registration mark.
            if let Some(last) = c.jobs.audit() {
                assert!(last <= c.mark.mark, "{client:?}: row {last} above mark {:?}", c.mark);
            }
            // The catalog and the GC set hold exactly the row states they
            // mirror.
            let (mut catalog, mut flagged) = (BTreeMap::new(), BTreeSet::new());
            for (seq, row) in c.jobs.iter() {
                let k = JobKey { client, seq };
                // Retirement takes the whole row: nothing stays resident
                // below the watermark.
                let w = c.retired.mark;
                assert!(seq > w, "{k:?}: row resident at or below the retired watermark {w}");
                if let JobResult::Held { catalog_pos, .. }
                | JobResult::Flagged { catalog_pos, .. } = row.result
                {
                    catalog.insert(catalog_pos, seq);
                }
                if matches!(row.result, JobResult::Flagged { .. }) {
                    flagged.insert(seq);
                }
                let tasks = by_job.remove(&k).unwrap_or_default();
                let mut ids: Vec<TaskId> = row.tasks.iter().collect();
                ids.sort_unstable();
                assert_eq!(ids, tasks.iter().map(|t| t.rec.id).collect::<Vec<_>>(), "{k:?}: tasks");
                assert!(tasks.iter().all(|t| t.rec.attempt < row.next_attempt), "{k:?}: attempts");
                assert_eq!(row.spec.key, k);
                registered += 1;
                versioned += stamped(row.version, Changed::Job(slot, seq), &k);
                // What this node knows finished, the ring can learn: from a
                // `Finished` instance row, or the collected row.
                let collected_pos = row.result.collected_pos();
                let told =
                    collected_pos.is_some() || tasks.iter().any(|t| t.rec.state.is_finished());
                let finished_here = row.result.finished();
                assert!(!finished_here || told, "{k:?}: finished, and no feed row says so");
                if let Some(pos) = collected_pos {
                    versioned += stamped(pos, Changed::Collected(slot, seq), &k);
                }
                if let Some(ckpt) = &row.ckpt {
                    ckpts += 1;
                    versioned += stamped(ckpt.version, Changed::Ckpt(slot, seq), &k);
                    assert!(
                        !finished_here || ckpt.blob.is_empty(),
                        "{k:?}: finished job kept state"
                    );
                }
                finished += finished_here as u64;
                collected += matches!(row.result, JobResult::Delivered { .. }) as u64;
                archived += row.result.archive().is_some() as u64;
                let missing = matches!(row.result, JobResult::Missing);
                assert_eq!(
                    self.missing.entries.contains_key(&k),
                    missing,
                    "{k:?}: missing worklist"
                );
                missing_rows += missing as usize;
            }
            assert_eq!(c.catalog, catalog, "{client:?}: one catalog entry per held archive");
            assert_eq!(c.flagged, flagged, "{client:?}: the GC set holds its flagged rows");
        }
        // The per-server index holds only instances still ongoing on that
        // server: suspicion and reconciliation un-index the rows they gave
        // up on, and a row suspicion left behind must still be there for
        // the reconcile to find.  No set is held empty: every server in it
        // is one this coordinator answers for.
        for (server, set) in &self.index.by_server {
            assert!(!set.is_empty(), "{server:?}: empty set held in the server index");
            for id in set {
                let state = self.tasks.get(id.0).map(|t| t.rec.state);
                assert!(
                    matches!(state, Some(TaskState::Ongoing { server: s, .. }) if s == *server),
                    "{id:?} indexed on {server:?} in state {state:?}"
                );
            }
        }
        // A row is watched through its server: watched, it is `Ongoing`
        // and indexed there; `Ongoing`, indexed there and written here (a
        // dispatch from here, which only a finish re-stamps), it is watched.
        for (_, t) in self.tasks.iter() {
            let id = &t.rec.id;
            let indexed =
                |server| self.index.by_server.get(&server).is_some_and(|s| s.contains(id));
            let local =
                self.changed.get(t.version).map(|(_, from)| from) == Some(Provenance::LOCAL);
            match t.rec.state {
                TaskState::Ongoing { server, .. } if indexed(server) => {
                    assert!(t.watched || !local, "{id:?} dispatched here, not watched");
                }
                state => assert!(!t.watched, "{id:?} watched, unindexed, in state {state:?}"),
            }
        }
        // Provenance: the interned writers are distinct, and slot 0 alone
        // names this coordinator (in its own incarnation).
        assert_eq!(self.writers[0], (self.me, self.incarnation), "slot 0 is this coordinator");
        for (slot, w) in self.writers.iter().enumerate().skip(1) {
            assert_ne!(w.0, self.me, "slot {slot} names this coordinator");
            assert!(!self.writers[..slot].contains(w), "slot {slot} interned twice");
        }
        assert!(!self.incarnations.contains_key(&self.me), "its own incarnation is no peer's");
        for (v, entry) in &self.changed.entries {
            assert!((entry.from.0 as usize) < self.writers.len(), "v{v}: unknown writer");
        }
        // The due order holds exactly the un-parked entries, by their stamps.
        let m = &self.missing;
        assert_eq!(m.entries.len(), missing_rows, "missing worklist holds rows only");
        let unparked = m.entries.iter().filter(|(_, w)| !w.parked);
        assert!(unparked.clone().all(|(k, w)| m.due.contains(&(w.since, *k))), "due order");
        assert_eq!(m.due.len(), unparked.count(), "due order holds the un-parked entries");
        assert_eq!(self.finished_rows, finished, "finished counter");
        // The queue and the unripe rows hold exactly the pending rows
        // between them, by version, and a row waits to ripen only while
        // another coordinator's write is its last.
        let queue: BTreeMap<u64, TaskId> = self
            .tasks
            .iter()
            .map(|(_, t)| t)
            .filter(|t| t.rec.state == TaskState::Pending)
            .map(|t| (t.version, t.rec.id))
            .collect();
        let mut both = self.index.pending.clone();
        for (v, id) in self.unripe() {
            let from = self.changed.get(v).map(|(_, from)| from);
            assert_ne!(from, Some(Provenance::LOCAL), "{id:?}: unripe, and written here");
            both.insert(v, id);
        }
        assert_eq!(both, queue, "the queue holds pending rows, the rest are unripe");
        assert_eq!(
            self.changed.entries.len(),
            versioned + self.tasks.len() + self.clients.rows.len() + watermarks,
            "one change-index entry per live row"
        );
        let stats = self.stats();
        let retired = self.retired_count();
        assert_eq!((stats.jobs, stats.collected), (registered + retired, collected + retired));
        assert_eq!((stats.archived, stats.ckpts), (archived, ckpts));
        assert_eq!(self.finished_count(), finished + retired);
    }
}

fn state_rank(s: &TaskState) -> u8 {
    match s {
        TaskState::Pending => 0,
        TaskState::Ongoing { .. } => 1,
        TaskState::Finished { .. } => 2,
    }
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

    /// The missing-archive worklist, collected.
    fn missing(d: &CoordinatorDb) -> Vec<JobKey> {
        d.missing_archives().collect()
    }

    /// Dispatchable instances: what `next_pending` hands out, drained on a
    /// clone.
    fn dispatchable(d: &CoordinatorDb) -> usize {
        let mut d = d.clone();
        std::iter::from_fn(|| d.next_pending(ServerId(0), T0).0).count()
    }

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

    /// One charge rule, `1 + ⌈new/4⌉ + Σ(max(r, 1) − 1)` operations over
    /// the new jobs' parameter bytes, whether a job arrives alone or in a
    /// batch: `1 + r` for one new job, one operation when nothing is new.
    #[test]
    fn registration_charges_one_rule() {
        for (r, ops) in [(1, 2), (2, 3), (3, 4)] {
            let (mut single, mut batch) = (db(), db());
            let (_, alone) = single.register_job(job(1).with_replication(r));
            let (n, of_one) = batch.register_jobs([job(1).with_replication(r)]);
            assert_eq!(alone, Charge::db(ops, 1000), "r = {r}");
            assert_eq!((n, of_one), (1, alone), "r = {r}: a batch of one");
        }
        let mut d = db();
        d.register_job(job(1));
        assert_eq!(d.register_job(job(1)), (false, Charge::ops(1)), "a refused duplicate");
        run_to_collected(&mut d, 2);
        d.prune_retired(d.version());
        assert!(!d.knows_job(&JobKey::new(ClientKey::new(1, 1), 2)));
        assert_eq!(d.register_job(job(2)), (false, Charge::ops(1)), "a retired seq");
        assert_eq!(db().register_jobs((1..=5).map(job)), (5, Charge::db(3, 5000)));
        let one_doubled = (1..=5).map(|seq| job(seq).with_replication(1 + u32::from(seq == 3)));
        assert_eq!(db().register_jobs(one_doubled), (5, Charge::db(4, 5000)));
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
        assert_eq!(d.stats().archived, 1);
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
            .iter()
            .map(|(_, r)| r)
            .find(|r| r.rec.job == job1 && matches!(r.rec.state, TaskState::Ongoing { .. }))
            .map(|r| r.rec.id)
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
        assert_eq!(here.task(created[0]).unwrap().rec.job.seq, 1);
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
        // The primary's pending row waits out its next round: the primary
        // may still dispatch it, and that round would say so.
        assert_eq!(backup.unripe_rows().len(), 1);
        assert_eq!(dispatchable(&backup), 0, "a live peer's pending row is unripe");
        backup.apply_delta(&primary.delta_since(primary.version()));
        // Pending task (job 3) schedulable on the backup.
        // Ongoing task (job 1) held. Finished (job 2) never scheduled.
        let mut seen = Vec::new();
        while let (Some(t), _) = backup.next_pending(ServerId(7), T0) {
            seen.push(t.job.seq);
        }
        assert_eq!(seen, vec![3], "only the pending task is schedulable on a replica");
        assert!(missing(&backup).contains(&JobKey::new(ClientKey::new(1, 1), 2)));
        // Held, the row is no business of the backup's silence: it never
        // heard server 1.
        let held = backup.indexed_on(ServerId(1));
        assert_eq!(held.len(), 1);
        assert!(backup.clone().server_suspected(ServerId(1)).0.is_empty());
        // The dispatcher written off: a client served elsewhere keeps the
        // row held; for a served client the row is adopted and nothing is
        // minted.
        let tasks = backup.stats().tasks;
        let primary_gone = |c: CoordId| c == CoordId(1);
        assert!(backup.adopt(0, None, &BTreeSet::new(), primary_gone).0.is_empty());
        assert!(!backup.task(held[0]).unwrap().watched);
        let served = BTreeSet::from([ClientKey::new(1, 1)]);
        assert!(backup.adopt(0, None, &served, |_| false).0.is_empty(), "the dispatcher lives");
        let (watch, charge) = backup.adopt(0, None, &served, primary_gone);
        assert_eq!((watch, charge), (vec![ServerId(1)], Charge::ops(1)));
        assert!(backup.task(held[0]).unwrap().watched);
        assert_eq!(
            (backup.stats().tasks, dispatchable(&backup)),
            (tasks, 0),
            "adoption mints nothing"
        );
        // A second evaluation adopts nothing new and charges nothing.
        assert_eq!(backup.adopt(0, None, &served, primary_gone), (vec![], Charge::ZERO));
        backup.check_invariants();
        // Its server goes silent: the adopted row is re-instanced in the
        // backup's id space, and leaves the index with nothing to watch.
        let (created, _) = backup.server_suspected(ServerId(1));
        assert_eq!(created.len(), 1);
        assert_eq!(created[0].coord(), CoordId(2));
        assert!(!backup.task(held[0]).unwrap().watched);
        let (t, _) = backup.next_pending(ServerId(7), T0);
        assert_eq!(t.unwrap().job.seq, 1);
        backup.check_invariants();
    }

    #[test]
    fn a_clients_first_contact_adopts_its_running_rows() {
        let client = ClientKey::new(1, 1);
        let mut there = CoordinatorDb::new(CoordId(2));
        for seq in 1..=3 {
            there.register_job(job(seq));
        }
        // Job 1 runs on server 5, job 2 finished on server 6, job 3 waits.
        let running = there.next_pending(ServerId(5), T0).0.unwrap().id;
        let (done, _) = there.next_pending(ServerId(6), T0);
        let done = done.unwrap();
        there.complete_task(done.id, done.job, Blob::synthetic(8, 2), ServerId(6));
        let mut here = db();
        here.apply_delta(&there.delta_since(0));
        // A row this coordinator minted and the peer dispatched is the
        // peer's to answer for: first contact adopts it too.
        here.register_job(job(4));
        there.apply_delta(&here.delta_since(0));
        there.apply_delta(&here.delta_since(here.version())); // job 4 ripens
        let _ = there.next_pending(ServerId(7), T0); // job 3
        let (relayed, _) = there.next_pending(ServerId(7), T0);
        assert_eq!(relayed.unwrap().job.seq, 4);
        here.apply_delta(&there.delta_since(0));
        // Another client's running row stays held.
        let other = JobSpec::new(JobKey::new(ClientKey::new(2, 1), 1), "svc", Blob::empty());
        there.register_job(other);
        let theirs = there.next_pending(ServerId(8), T0).0.unwrap().id;
        here.apply_delta(&there.delta_since(0));
        assert_eq!(here.indexed_servers().count(), 3);

        let tasks = here.stats().tasks;
        let served = BTreeSet::from([client]);
        let (watch, charge) = here.adopt(0, Some(client), &served, |_| false);
        // Jobs 1, 3 and 4, all dispatched by the peer (job 4 minted here).
        assert_eq!(watch, vec![ServerId(5), ServerId(7), ServerId(7)]);
        assert_eq!(charge, Charge::ops(3));
        let watched = |d: &CoordinatorDb, id: TaskId| d.task(id).unwrap().watched;
        assert!(watched(&here, running));
        assert!(!watched(&here, theirs));
        let own = here.indexed_on(ServerId(7)).into_iter().find(|id| id.coord() == CoordId(1));
        assert_eq!(here.writer_of(own.unwrap()), Some(CoordId(2)));
        assert!(watched(&here, own.unwrap()));
        assert_eq!(here.stats().tasks, tasks, "adoption mints nothing");
        // A second contact adopts nothing and costs nothing.
        assert_eq!(here.adopt(0, Some(client), &served, |_| false), (vec![], Charge::ZERO));
        here.check_invariants();
        // Silence now covers an adopted row (server 5 never spoke here).
        let (created, _) = here.server_suspected(ServerId(5));
        assert_eq!(created.len(), 1);
        assert!(!watched(&here, running));
        here.check_invariants();
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
    fn feed_never_returns_a_row_to_its_writer() {
        let (peer, other) = (CoordId(1), CoordId(3));
        let mut primary = db();
        primary.register_job(job(1));
        let mut replica = CoordinatorDb::new(CoordId(2));
        replica.register_job(job(9)); // one row of its own
        let base = replica.version();
        replica.apply_delta_owned(primary.delta_since(0), T0);
        // Job, task and mark were all written by `peer`: nothing goes back
        // there, everything goes on to a third member under a marker
        // naming the writer, and a from-zero feed — what a wiped `peer`
        // would be reseeded from — is complete, its rows the replica's own.
        assert!(replica.feed_for(peer, base).is_empty());
        assert_eq!(replica.feed_for(peer, base).head_version, replica.version());
        let relayed = replica.feed_for(other, base);
        assert_eq!(relayed.rows[0], DeltaRow::Writer { coord: peer, incarnation: 0 });
        assert_eq!(relayed.rows[1..], replica.delta_since(base).rows[..]);
        assert_eq!(replica.feed_for(peer, 0), replica.delta_since(0));
        // A local mutation re-stamps a learned row as the replica's own:
        // dispatching the peer's task (after job 9's, once the peer is
        // written off) puts it on the feed.
        assert_eq!(replica.adopt(0, None, &BTreeSet::new(), |c| c == peer), (vec![], Charge::ZERO));
        let _ = replica.next_pending(ServerId(1), T0);
        let learned = replica.next_pending(ServerId(1), T0).0.expect("the peer's task");
        assert_eq!(learned.job.seq, 1);
        let feed = replica.feed_for(peer, base);
        assert_eq!(feed.tasks().last().map(|r| r.id), Some(learned.id));
        assert_eq!(feed.jobs().count(), 0, "the job row is still the peer's");
        replica.check_invariants();
    }

    #[test]
    fn a_relayed_row_stops_one_hop_short_of_its_writer() {
        // The ring 1 → 2 → 3 → 1: member 1's rows reach member 3 through
        // member 2, and member 3's round to member 1 leaves them out.
        let ids = [CoordId(1), CoordId(2), CoordId(3)];
        let mut m: Vec<CoordinatorDb> = ids.iter().map(|&id| CoordinatorDb::new(id)).collect();
        m[0].register_job(job(1));
        let feed = m[0].feed_for(ids[1], 0);
        assert!(!feed.rows.iter().any(|r| matches!(r, DeltaRow::Writer { .. })), "own rows");
        m[1].apply_delta_owned(feed, T0);
        let relay = m[1].feed_for(ids[2], 0);
        assert_eq!(relay.rows[0], DeltaRow::Writer { coord: ids[0], incarnation: 0 });
        assert_eq!(relay.len(), 3, "job, task and mark; the marker is not a row");
        assert!(m[2].register_job(job(2)).0, "member 3's own job");
        let base = m[2].version();
        m[2].apply_delta_owned(relay, T0);
        let back = m[2].feed_for(ids[0], base);
        assert!(back.is_empty(), "member 1 wrote all of it: {back:?}");
        // A feed to no one in particular marks nothing.
        let complete = m[2].delta_since(base);
        assert_eq!((complete.len(), complete.rows.len()), (2, 2), "job and task: {complete:?}");
        m.iter().for_each(CoordinatorDb::check_invariants);
    }

    #[test]
    fn a_row_its_writer_lost_to_a_wipe_is_carried_back_to_it() {
        // The ring 1 → 2 → 3 → 1.  Member 3 writes a row, and member 1
        // learns it.
        let ids = [CoordId(1), CoordId(2), CoordId(3)];
        let mut m: Vec<CoordinatorDb> = ids.iter().map(|&id| CoordinatorDb::new(id)).collect();
        let key = job(1).key;
        m[1].register_job(job(2)); // so the reseed below is no empty one
        m[2].register_job(job(1));
        let feed = m[2].feed_for(ids[0], 0);
        m[0].apply_delta_owned(feed, T0);
        // Member 3 loses its disk while the row is on its way round.  Its
        // reseed request announces the new incarnation to member 2, which
        // holds nothing of the row yet.
        let wiped_at = 40_000_000_000;
        m[2] = CoordinatorDb::with_incarnation(ids[2], wiped_at);
        m[1].note_incarnation(ids[2], wiped_at);
        let reseed = m[1].feed_for(ids[2], 0);
        assert_eq!(reseed.incarnation_of(ids[2]), wiped_at, "the reseed names it");
        let acked = reseed.head_version;
        assert!(acked > 0);
        m[2].apply_delta_owned(reseed, T0);
        // Member 1 relays the row, naming its writer in the lost
        // incarnation; member 2's next round to member 3 carries it.
        let relay = m[0].feed_for(ids[1], 0);
        assert_eq!(relay.rows[0], DeltaRow::Writer { coord: ids[2], incarnation: 0 });
        m[1].apply_delta_owned(relay, T0);
        let tail = m[1].feed_for(ids[2], acked);
        assert_eq!(tail.incarnation_of(ids[2]), wiped_at);
        assert!(tail.jobs().any(|s| s.key == key), "the lost row goes back: {tail:?}");
        let acked = tail.head_version;
        m[2].apply_delta_owned(tail, T0);
        assert!(m[2].knows_job(&key), "member 3 holds its row again");
        // What the new incarnation writes stops short of it as before: it
        // dispatches the task, and the round reaches member 2 through
        // member 1 under the new incarnation's marker.
        let (task, _) = m[2].next_pending(ServerId(1), T0);
        let task = task.expect("the pending instance").id;
        let (before, feed) = (m[0].version(), m[2].feed_for(ids[0], 0));
        assert_eq!(feed.incarnation_of(ids[2]), wiped_at, "a sender names its own");
        m[0].apply_delta_owned(feed, T0);
        assert_eq!(m[0].incarnation_known(ids[2]), wiped_at);
        let (before2, feed) = (m[1].version(), m[0].feed_for(ids[1], before));
        m[1].apply_delta_owned(feed, T0);
        let ongoing = |t: &TaskRow| matches!(t.rec.state, TaskState::Ongoing { .. });
        assert!(m[1].task(task).is_some_and(ongoing), "member 2 learned the dispatch");
        let tail = m[1].feed_for(ids[2], acked.max(before2));
        assert!(tail.tasks().all(|t| t.id != task), "the dispatch stays home: {tail:?}");
        m.iter().for_each(CoordinatorDb::check_invariants);
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
        assert!(backup.task(t.id).map(|r| r.rec.state.is_finished()).unwrap_or(false));
        // And nothing became schedulable.
        let (none, _) = backup.next_pending(ServerId(3), T0);
        assert!(none.is_none());
    }

    #[test]
    fn a_dispatch_pays_nothing_for_rows_a_peer_moved_on() {
        // The replica queues the peer's eight pending rows, learns the peer
        // dispatched them, then learns one fresh pending row: the queue holds
        // that row alone, so dispatching it is the lookup and the row.
        let mut primary = db();
        let mut replica = CoordinatorDb::new(CoordId(2));
        for seq in 1..=8 {
            primary.register_job(job(seq));
        }
        replica.apply_delta(&primary.delta_since(0));
        let base = primary.version();
        while primary.next_pending(ServerId(1), T0).0.is_some() {}
        let applied = replica.apply_delta_owned(primary.delta_since(base), T0);
        assert_eq!(applied.superseded, 8, "all eight were taken before they ripened");
        let base = primary.version();
        primary.register_job(job(9));
        replica.apply_delta(&primary.delta_since(base));
        replica.apply_delta(&primary.delta_since(primary.version())); // job 9 ripens
        replica.check_invariants();
        let (t, charge) = replica.next_pending(ServerId(2), T0);
        assert_eq!(t.map(|t| t.job), Some(job(9).key));
        assert_eq!(charge, Charge::db(2, job(9).params.len()));
    }

    #[test]
    fn a_peers_pending_row_ripens_after_one_round_or_a_write_off() {
        let peer = CoordId(1);
        let mut primary = db();
        let mut replica = CoordinatorDb::new(CoordId(2));
        for seq in 1..=3 {
            primary.register_job(job(seq));
        }
        replica.apply_delta(&primary.delta_since(0));
        let own = JobSpec::new(JobKey::new(ClientKey::new(2, 1), 1), "svc", Blob::empty());
        replica.register_job(own.clone());
        // The replica's own row is dispatchable at once, the peer's wait.
        assert_eq!(replica.unripe_rows().len(), 3);
        assert_eq!(dispatchable(&replica), 1);
        replica.check_invariants();
        // The peer dispatches job 1 before its next round, which shows it
        // taken; the other two ripen, ahead of the replica's own (FCFS).
        let base = primary.version();
        let _ = primary.next_pending(ServerId(1), T0);
        let applied = replica.apply_delta_owned(primary.delta_since(base), T0);
        assert_eq!(applied.superseded, 1);
        replica.check_invariants();
        let mut d = replica.clone();
        let order: Vec<JobKey> =
            std::iter::from_fn(|| d.next_pending(ServerId(0), T0).0).map(|t| t.job).collect();
        assert_eq!(order, [job(2).key, job(3).key, own.key]);
        // A row whose writer is written off here ripens at once.
        let base = primary.version();
        primary.register_job(job(4));
        replica.apply_delta(&primary.delta_since(base));
        let served = BTreeSet::new();
        let _ = replica.adopt(0, None, &served, |_| false);
        assert_eq!(replica.unripe_rows().len(), 1, "a live writer's row stays unripe");
        assert_eq!(replica.adopt(0, None, &served, |c| c == peer), (vec![], Charge::ZERO));
        assert!(replica.unripe_rows().is_empty(), "its writer written off, it ripens");
        assert_eq!(dispatchable(&replica), 4);
        replica.check_invariants();
    }

    #[test]
    fn a_row_finished_here_while_unripe_never_enters_the_queue() {
        let mut primary = db();
        let mut replica = CoordinatorDb::new(CoordId(2));
        primary.register_job(job(1));
        primary.register_job(job(2));
        replica.apply_delta(&primary.delta_since(0));
        let unripe = replica.unripe_rows();
        assert_eq!(unripe.len(), 2);
        // A server hands job 1's result here before the writer's next round.
        let done = replica.complete_task(unripe[0], job(1).key, Blob::synthetic(8, 1), ServerId(3));
        assert_eq!(done.0, CompleteOutcome::NewResult);
        assert_eq!(replica.unripe_rows(), [unripe[1]]);
        assert_eq!(dispatchable(&replica), 0);
        replica.check_invariants();
        // The next feed ripens only the row still pending.
        let applied = replica.apply_delta_owned(primary.delta_since(primary.version()), T0);
        assert_eq!(applied.superseded, 0);
        assert!(replica.unripe_rows().is_empty());
        replica.check_invariants();
        let (t, _) = replica.next_pending(ServerId(4), T0);
        assert_eq!(t.map(|t| t.id), Some(unripe[1]));
        assert_eq!(replica.next_pending(ServerId(4), T0).0, None, "job 1 never queued");
        replica.check_invariants();
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
        assert!(missing(&d).is_empty(), "collected ⇒ not missing");
        assert_eq!(missing(&d), d.missing_archives_scan());
        let (tid, _) = d.reexecute_job(t.job);
        assert!(tid.is_none(), "re-execution refused for collected jobs");
        assert!(!d.wants_archive(&t.job), "no archive re-acquisition either");
        let c = d.store_archive(t.job, Blob::synthetic(500, 0));
        assert_eq!(c.disk_bytes, 0, "re-store is a no-op");
        assert_eq!(d.stats().archived, 0);
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
        assert!(d0.added.is_empty());
        hw = d0.head;
        // First result lands: delta carries exactly it.
        let (t, _) = d.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        d.complete_task(t.id, t.job, Blob::synthetic(100, 0), ServerId(1));
        let d1 = d.results_catalog_since(client, hw);
        assert_eq!(d1.added, vec![(1, 100)]);
        hw = d1.head;
        // Nothing changed: empty delta, head stable for the catalog.
        let d2 = d.results_catalog_since(client, hw);
        assert!(d2.added.is_empty());
        // Collect + GC: the seq leaves the catalog and the delta is empty.
        d.mark_collected(client, &[1]);
        d.gc_collected();
        assert!(d.results_catalog_since(client, hw).added.is_empty());
        // From base 0 the delta equals the scan reference.
        assert_eq!(d.results_catalog_since(client, 0).added, d.results_catalog_scan(client));
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
        // queue entry but left the task row `Pending`, a row the queue no
        // longer held; a later replicated state upgrade then took a fresh
        // instance's place in the queue's accounting.
        let job1 = JobKey::new(ClientKey::new(1, 1), 1);
        let mut a = db();
        a.register_job(job(1).with_replication(2)); // T1, T2 queued at A
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&a.delta_since(0));
        // T1 and T2 ripen at B; B executes T1; A learns the job finished
        // (archive missing at A).
        b.apply_delta(&a.delta_since(a.version()));
        let (t1, _) = b.next_pending(ServerId(1), T0);
        let t1 = t1.unwrap();
        b.complete_task(t1.id, job1, Blob::synthetic(8, 1), ServerId(1));
        let v_b = b.version();
        a.apply_delta(&b.delta_since(0));
        // A pops T2's still-live entry and skips it (job finished).
        let (none, _) = a.next_pending(ServerId(9), T0);
        assert!(none.is_none());
        a.check_invariants();
        // A re-executes the missing-archive job: fresh instance T3.
        let (t3, _) = a.reexecute_job(job1);
        assert!(t3.is_some());
        assert_eq!(dispatchable(&a), 1);
        // An off-line server delivers T2's result late to B (at-least-once
        // duplicate; B still marks the instance Finished).  The replicated
        // upgrade must not take T3's queue entry at A.
        let t2_id = if t1.id == TaskId::compose(CoordId(1), 1) {
            TaskId::compose(CoordId(1), 2)
        } else {
            TaskId::compose(CoordId(1), 1)
        };
        let (o, _) = b.complete_task(t2_id, job1, Blob::synthetic(8, 2), ServerId(1));
        assert_eq!(o, CompleteOutcome::Duplicate);
        a.apply_delta(&b.delta_since(v_b));
        a.check_invariants();
        assert_eq!(dispatchable(&a), 1);
        // Another re-execution round: with a corrupted queue this is where
        // the queue and a recount of the pending rows diverged.
        let first_missing = missing(&a).first().copied();
        if let Some(j) = first_missing {
            a.reexecute_job(j);
        }
        a.check_invariants();
        assert_eq!(missing(&a), a.missing_archives_scan());
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
        assert_eq!(missing(&backup), vec![t.job]);
        let (tid, _) = backup.reexecute_job(t.job);
        assert!(tid.is_some());
        let (next, _) = backup.next_pending(ServerId(8), T0);
        assert_eq!(next.unwrap().job, t.job);
        // Once the archive arrives, re-execution is refused.
        backup.store_archive(t.job, Blob::synthetic(10, 0));
        let (none, _) = backup.reexecute_job(t.job);
        assert!(none.is_none());
        assert!(missing(&backup).is_empty());
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
        assert_eq!(d.stats().archived, 1);
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
        assert!(missing(&backup).is_empty(), "delivered is not missing");
        assert_eq!(missing(&backup), backup.missing_archives_scan());
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
        assert!(missing(&backup).is_empty());
    }

    #[test]
    fn collection_acks_are_incremental_and_idempotent() {
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
        assert_eq!(missing(&backup), vec![key]);
        backup.mark_collected(client, &[1]);
        assert!(backup.is_collected(&key));
        assert!(missing(&backup).is_empty());
        assert_eq!(missing(&backup), backup.missing_archives_scan());
        let (tid, _) = backup.reexecute_job(key);
        assert!(tid.is_none());
        // Acks for jobs never heard of are dropped, not recorded.
        backup.mark_collected(client, &[99]);
        assert!(!backup.is_collected(&JobKey { client, seq: 99 }));
    }

    #[test]
    fn the_missing_worklist_is_the_reexecution_watch() {
        let at = SimTime::from_secs;
        let (mine, theirs) = (ClientKey::new(1, 1), ClientKey::new(2, 1));
        let (a, b, c) = (JobKey::new(mine, 1), JobKey::new(mine, 2), JobKey::new(theirs, 1));
        let mut primary = db();
        for key in [c, b, a] {
            primary.register_job(JobSpec::new(key, "svc", Blob::synthetic(10, key.seq)));
        }
        // Finished elsewhere in two waves (`c` and `b`, then `a`); the
        // archives stay there.
        complete_one(&mut primary, 64);
        complete_one(&mut primary, 64);
        let first = primary.delta_since(0);
        let mut backup = CoordinatorDb::new(CoordId(2));
        backup.apply_delta_owned(first.clone(), at(10));
        complete_one(&mut primary, 64);
        backup.apply_delta_owned(primary.delta_since(first.head_version), at(20));
        // An apply stamps what it adds with its own `now`; an entry already
        // in keeps its stamp.
        backup.apply_delta_owned(primary.delta_since(0), at(30));
        let stamps = |d: &CoordinatorDb| -> Vec<(JobKey, SimTime)> {
            d.missing_archives().map(|j| (j, d.missing_since(&j).unwrap())).collect()
        };
        assert_eq!(stamps(&backup), [(a, at(20)), (b, at(10)), (c, at(10))]);
        let served = BTreeSet::from([mine]);
        let horizon = SimDuration::from_secs(15);
        assert!(backup.overdue_missing(at(25), horizon, &served).is_empty(), "none overdue yet");
        // Overdue entries come back in key order, not stamp order; one
        // whose client is not served here is parked under its stamp.
        assert_eq!(backup.overdue_missing(at(40), horizon, &served), [a, b]);
        assert!(backup.missing.entries[&c].parked);
        assert_eq!(backup.missing_since(&c), Some(at(10)));
        assert_eq!(backup.overdue_missing(at(40), horizon, &served), [a, b], "taking is reading");
        backup.check_invariants();
        // Un-parking restores the original stamp: a failover pays no fresh
        // horizon.
        backup.unpark_missing(theirs);
        assert!(!backup.missing.entries[&c].parked);
        assert_eq!(
            backup.overdue_missing(at(40), horizon, &BTreeSet::from([mine, theirs])),
            [a, b, c]
        );
        // Re-arming restamps and un-parks every entry.
        backup.overdue_missing(at(40), horizon, &served);
        backup.rearm_missing(at(50));
        assert_eq!(stamps(&backup), [(a, at(50)), (b, at(50)), (c, at(50))]);
        assert!(backup.missing.entries.values().all(|w| !w.parked));
        assert!(backup.overdue_missing(at(60), horizon, &served).is_empty());
        backup.check_invariants();
        // A re-execution takes its entry out of both views.
        backup.reexecute_job(a);
        assert_eq!(missing(&backup), [b, c]);
        backup.check_invariants();
        // Finished, then collected, in one frame: the entry leaves within
        // the apply that added it.
        primary.mark_collected(mine, &[1]);
        let mut late = CoordinatorDb::new(CoordId(3));
        let applied = late.apply_delta_owned(primary.delta_since(0), at(70));
        assert_eq!(applied.newly_collected, 1);
        assert_eq!(late.missing_since(&a), None);
        late.check_invariants();
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
        assert_eq!(d.stats().archived, 1);
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
        assert_eq!(d.retired_count(), 0);
        // Everything acked: the whole delivered prefix retires.
        let head = d.version();
        assert_eq!(d.prune_retired(head), 3);
        assert_eq!(d.retired_watermark(ClientKey::new(1, 1)), 3);
        // Only the mark row and the watermark row remain resident, and the
        // watermark rides the tail from the acked head.
        assert_eq!(d.resident_rows(), 2);
        assert_eq!(d.delta_since(0).marks().count(), 1);
        let tail = d.delta_since(head);
        assert_eq!(tail.rows, vec![DeltaRow::Retired { client: ClientKey::new(1, 1), through: 3 }]);
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
        assert_eq!(missing(&d), vec![]);
        // The client's replay protocol can't resubmit: the mark survived.
        assert_eq!(d.client_max(client), 2);
        let (fresh, _) = d.register_job(job(1));
        assert!(!fresh, "retired seqs refuse re-registration");
        let (n, _) = d.register_jobs([job(2)]);
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
        assert_eq!(dispatchable(&d), 1);
        d.check_invariants();
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
        let acked = a.version();
        a.prune_retired(acked);
        // Live work on top of the retired prefix.
        a.register_job(job(4));
        a.register_job(job(5));
        // Through the wire: the bootstrap is the frame any round is.
        let boot: ReplicationDelta = from_bytes(&to_bytes(&a.delta_since(0))).unwrap();
        assert_eq!(boot.retired().collect::<Vec<_>>(), vec![(client, 3)]);
        // A feed carries every watermark stamped above its base: the tail
        // from the head the pruning waited on carries it too.
        let since_ack = a.delta_since(acked);
        assert_eq!(since_ack.retired().collect::<Vec<_>>(), vec![(client, 3)]);
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
        assert_eq!(missing(&b), b.missing_archives_scan());
        assert_eq!(missing(&b).len(), 2);
        assert_eq!(missing(&a), vec![]);
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
    fn a_watermark_prunes_a_lagging_receivers_rows() {
        // The receiver holds rows the sender already retired: applying
        // the bootstrap's watermark must prune them here too, not leave
        // zombies outside the feed.
        let mut a = db();
        run_to_collected(&mut a, 2);
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&a.delta_since(0)); // b holds live rows for 1..=2
        assert_eq!(b.stats().jobs, 2);
        a.prune_retired(a.version());
        let applied = b.apply_delta_owned(a.feed_for(CoordId(2), 0), T0);
        assert_eq!(applied.newly_collected, 0, "both were known delivered already");
        assert_eq!(b.retired_watermark(ClientKey::new(1, 1)), 2);
        assert!(!b.knows_job(&JobKey::new(ClientKey::new(1, 1), 1)));
        assert_eq!(b.resident_rows(), 2, "only the mark and watermark rows remain");
        assert_eq!(b.stats().jobs, 2, "lifetime count intact");
        b.check_invariants();
    }

    #[test]
    fn retired_knowledge_survives_the_second_hop() {
        // Two successive wipes: `b` learns `a`'s retired prefix from a
        // bootstrap and prunes nothing itself, then is the only place the
        // wiped `a` can relearn it from.
        let client = ClientKey::new(1, 1);
        let mut a = db();
        run_to_collected(&mut a, 3);
        a.prune_retired(a.version());
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&a.feed_for(CoordId(2), 0));
        assert_eq!((b.retired_count(), b.resident_rows()), (3, 2), "learned: mark and watermark");
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
        // recovery instance raced the collection).  Pruning must take them
        // out of the queue with their rows.
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
        assert_eq!(dispatchable(&d), 0);
        d.check_invariants();
        // Nothing is left to dispatch.
        let (none, _) = d.next_pending(ServerId(2), T0);
        assert!(none.is_none());
        d.check_invariants();
    }
    #[test]
    fn a_task_reporting_another_job_is_refused() {
        // An instance id names one job ring-wide, so a known task reporting
        // another job's key comes from a faulty server: the result is
        // refused and nothing moves — whether the reported key is
        // registered here or not.
        let client = ClientKey::new(1, 1);
        let (stray, other) = (JobKey::new(client, 7), JobKey::new(client, 2));
        let mut d = db();
        d.register_job(job(1));
        d.register_job(job(2));
        let (t, _) = d.next_pending(ServerId(1), T0);
        let t = t.unwrap();
        let (before, version) = (d.task(t.id).unwrap().rec, d.version());
        for reported in [stray, other] {
            let (o, _) = d.complete_task(t.id, reported, Blob::synthetic(48, 7), ServerId(1));
            assert_eq!(o, CompleteOutcome::UnknownJob, "{reported:?}");
            d.check_invariants();
        }
        assert!(
            !d.knows_job(&stray) && d.clients.job(&stray).is_none(),
            "no row for the stray key"
        );
        assert_eq!(d.results_catalog_scan(client), vec![], "no catalog entry");
        assert_eq!((d.archive(&stray), d.archive(&other)), (None, None));
        assert_eq!(d.task(t.id).unwrap().rec, before, "the task's state is unchanged");
        assert_eq!(d.indexed_on(ServerId(1)), vec![t.id], "still ongoing on its server");
        assert_eq!((d.version(), d.finished_count()), (version, 0));
        // The true pair still lands.
        let (o, _) = d.complete_task(t.id, t.job, Blob::synthetic(48, 1), ServerId(1));
        assert_eq!(o, CompleteOutcome::NewResult);
        d.check_invariants();
    }

    #[test]
    fn a_wiped_database_mints_above_its_incarnation() {
        // The instance counter starts at the incarnation (the boot instant
        // in ns), so a database wiped at 35 s mints nothing its first
        // incarnation could have handed out.
        let wiped_at = SimTime::from_secs(35).0;
        let mut d = CoordinatorDb::with_incarnation(CoordId(1), wiped_at);
        d.register_job(job(1).with_replication(2));
        let ids: Vec<TaskId> = d.delta_since(0).tasks().map(|t| t.id).collect();
        assert_eq!(ids.len(), 2);
        for id in ids {
            assert_eq!(id.coord(), CoordId(1));
            assert!(id.counter() > 35_000_000_000, "{id:?} minted at or below the incarnation");
        }
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
            assert_eq!(missing(peer), vec![key], "finished, archive to pull");
            peer.check_invariants();
        }
    }

    #[test]
    fn gc_forgets_the_catalog_entry_and_retirement_leaves_no_row() {
        let client = ClientKey::new(1, 1);
        let mut d = db();
        for seq in 1..=3 {
            d.register_job(job(seq));
        }
        while let (Some(t), _) = d.next_pending(ServerId(1), T0) {
            d.complete_task(t.id, t.job, Blob::synthetic(100, t.job.seq), ServerId(1));
        }
        d.mark_collected(client, &[1, 2]);
        let before = d.results_catalog_since(client, 0).head;
        d.gc_collected();
        d.check_invariants();
        // GC took no version and left no record: seqs 1 and 2 are in no
        // delta, from zero or from the pre-GC head.
        assert_eq!(d.version(), before);
        assert_eq!(d.clients.get(client).unwrap().catalog.len(), 1, "only job 3's entry is live");
        assert_eq!(d.results_catalog_since(client, 0).added, vec![(3, 100)]);
        assert!(d.results_catalog_since(client, before).added.is_empty());
        // Retiring the delivered jobs removes their rows outright.
        assert_eq!(d.prune_retired(d.version()), 2);
        d.check_invariants();
        for seq in 1..=2 {
            assert!(d.clients.job(&JobKey::new(client, seq)).is_none(), "seq {seq}: row left");
        }
        assert_eq!(d.results_catalog_since(client, 0).added, d.results_catalog_scan(client));
    }

    #[test]
    fn a_watermark_reclaims_an_uncollected_archive() {
        // The receiver stored job 1's archive but never learned it was
        // collected; the sender retired it.  Retired means collected at the
        // writer: the client holds the result, so the watermark takes the
        // job's archive with its catalog entry here too — nothing stays
        // resident below the watermark.
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
        let applied = b.apply_delta_owned(a.feed_for(CoordId(2), 0), T0);
        assert_eq!(applied.newly_collected, 1, "delivered is news here");
        b.check_invariants();
        assert!(!b.knows_job(&k) && b.clients.job(&k).is_none(), "no row");
        assert_eq!(b.archive(&k), None);
        assert_eq!(b.results_catalog_scan(client), vec![]);
        assert!(b.has_collected_knowledge(&k), "summarized by the watermark");
        assert_eq!((b.stats().archived, b.finished_count()), (0, 1));
        // A known task reporting the retired key is refused like any task
        // reporting another job: no row comes back below the watermark, and
        // the task stays ongoing.
        b.register_job(job(2));
        let (t2, _) = b.next_pending(ServerId(1), T0);
        let t2 = t2.unwrap();
        let (o, _) = b.complete_task(t2.id, k, Blob::synthetic(64, 1), ServerId(1));
        assert_eq!(o, CompleteOutcome::UnknownJob);
        assert!(b.clients.job(&k).is_none());
        assert!(matches!(b.task(t2.id).unwrap().rec.state, TaskState::Ongoing { .. }));
        assert_eq!((b.stats().archived, b.finished_count()), (0, 1));
        b.check_invariants();
    }

    #[test]
    fn gc_after_a_watermark_leaves_no_row() {
        // The receiver holds job 1's archive flagged for GC (its client
        // acked here) when the sender's watermark retires the job.  GC must
        // not turn what is left into a resident `Collected` row below the
        // watermark: the row, its archive and its GC flag are gone already.
        let client = ClientKey::new(1, 1);
        let k = JobKey::new(client, 1);
        let mut a = db();
        run_to_collected(&mut a, 1);
        a.prune_retired(a.version());
        let mut b = CoordinatorDb::new(CoordId(2));
        b.register_job(job(1));
        let (t, _) = b.next_pending(ServerId(1), T0);
        b.complete_task(t.unwrap().id, k, Blob::synthetic(64, 1), ServerId(1));
        b.mark_collected(client, &[1]);
        assert_eq!(b.collected_flagged(), vec![k]);
        b.apply_delta_owned(a.feed_for(CoordId(2), 0), T0);
        assert_eq!(b.collected_flagged(), vec![], "the GC flag left with the row");
        assert_eq!(b.gc_collected().0, 0, "nothing left to reclaim");
        b.check_invariants();
        assert!(b.clients.job(&k).is_none(), "row left below the watermark");
        assert_eq!(b.resident_rows(), 2, "only the mark and watermark rows remain");
    }

    #[test]
    fn an_incremental_feed_relays_a_watermark_learned_from_zero() {
        // A 3-ring a → b → c.  `c` tails `b` from an acked base; `b` then
        // learns `a`'s watermark from a from-zero round and prunes its rows
        // of the retired jobs.  `b`'s next incremental feed must hand the
        // watermark on: `c` holds those rows too, and would otherwise keep
        // them live — undelivered, dispatchable — for good.
        let client = ClientKey::new(1, 1);
        let mut a = db();
        let mut b = CoordinatorDb::new(CoordId(2));
        let mut c = CoordinatorDb::new(CoordId(3));
        for seq in 1..=2 {
            a.register_job(job(seq));
        }
        b.apply_delta(&a.feed_for(CoordId(2), 0));
        c.apply_delta_owned(b.feed_for(CoordId(3), 0), T0);
        let c_acked = b.version();
        while let (Some(t), _) = a.next_pending(ServerId(1), T0) {
            a.complete_task(t.id, t.job, Blob::synthetic(64, t.job.seq), ServerId(1));
        }
        a.mark_collected(client, &[1, 2]);
        a.gc_collected();
        a.prune_retired(a.version());
        assert_eq!(a.retired_watermark(client), 2);
        // `b` was written off and back: `a` reseeds it from zero.
        b.apply_delta(&a.feed_for(CoordId(2), 0));
        assert_eq!(b.retired_watermark(client), 2);
        let tail = b.feed_for(CoordId(3), c_acked);
        assert_eq!(tail.retired().collect::<Vec<_>>(), vec![(client, 2)]);
        let applied = c.apply_delta_owned(tail, T0);
        assert_eq!(applied.newly_collected, 2, "delivered is news at the third member");
        assert_eq!(c.retired_watermark(client), 2);
        assert_eq!(dispatchable(&c), 0, "nothing delivered stays dispatchable");
        for d in [&a, &b, &c] {
            d.check_invariants();
        }
    }

    #[test]
    fn row_layouts_are_pinned() {
        // Every byte of these rows is held twice — by the primary and by
        // its replica — for every live job and instance: a new field is a
        // decision, and moving either number needs a reason.
        assert!(
            std::mem::size_of::<TaskRow>() <= 88,
            "TaskRow: {}",
            std::mem::size_of::<TaskRow>()
        );
        assert!(std::mem::size_of::<JobRow>() <= 192, "JobRow: {}", std::mem::size_of::<JobRow>());
        let ids = std::mem::size_of::<TaskIds>();
        assert!(ids <= 16, "TaskIds: {ids}");
        // One row per client ever met, on every coordinator: its key, job
        // window, two marks, watermark and two worklists.
        let client = std::mem::size_of::<ClientRow>();
        assert!(client <= 136, "ClientRow: {client}");
        // One change-index entry per live row: the writer and the client
        // are interned slots, so naming them costs an entry four bytes each.
        assert_eq!(std::mem::size_of::<ChangeEntry>(), 24);
        // A vacant window slot costs the row's bytes and nothing more.
        assert_eq!(std::mem::size_of::<Option<JobRow>>(), std::mem::size_of::<JobRow>());
        assert_eq!(std::mem::size_of::<Option<TaskRow>>(), std::mem::size_of::<TaskRow>());
    }

    #[test]
    fn each_database_interns_its_own_clients() {
        // A client is interned by the first write that names it: a clone
        // goes on interning past what it copied, a wiped database starts
        // afresh, and a read interns nothing.  Walks across clients follow
        // the key whatever the slots, and every entry reads back its
        // client through its slot.
        let spec = |client, seq| JobSpec::new(JobKey::new(client, seq), "svc", Blob::empty());
        let (first, second, third) =
            (ClientKey::new(1, 1), ClientKey::new(2, 1), ClientKey::new(1, 2));
        let mut d = db();
        d.register_job(spec(first, 1));
        let mut copy = d.clone();
        copy.register_job(spec(second, 1));
        copy.register_job(spec(first, 2));
        let mut wiped = CoordinatorDb::with_incarnation(CoordId(1), 5_000);
        for seq in [40, 3] {
            wiped.register_job(spec(third, seq));
        }
        wiped.register_job(spec(first, 1));
        let k = JobKey::new(second, 1);
        assert!(!wiped.knows_job(&k) && !wiped.has_collected_knowledge(&k));
        assert_eq!(wiped.mark_collected(second, &[1]), Charge::ops(1));
        assert_eq!(wiped.results_catalog_since(second, 0).added, []);
        let keys = |d: &CoordinatorDb| d.clients.rows.iter().map(|c| c.key).collect::<Vec<_>>();
        assert_eq!(keys(&d), [first]);
        assert_eq!(keys(&copy), [first, second]);
        assert_eq!(keys(&wiped), [third, first], "the reads interned nothing");
        let jobs: Vec<(ClientKey, u64)> =
            wiped.clients.jobs().map(|(k, _)| (k.client, k.seq)).collect();
        assert_eq!(jobs, [(first, 1), (third, 3), (third, 40)]);
        for (d, marks) in [(&d, vec![(first, 1)]), (&copy, vec![(second, 1), (first, 2)])] {
            d.check_invariants();
            assert_eq!(d.delta_since(0).marks().collect::<Vec<_>>(), marks);
        }
        wiped.check_invariants();
        assert_eq!(wiped.delta_since(0).marks().collect::<Vec<_>>(), [(third, 40), (first, 1)]);
    }

    #[test]
    fn every_edge_of_the_result_state_table() {
        // `b` replicates `a` and walks its jobs through each move `settle`
        // makes; after every step the worklists, the catalog and the
        // finished count read what the states say.
        let client = ClientKey::new(1, 1);
        let k = |seq| JobKey::new(client, seq);
        let mut a = db();
        let mut b = CoordinatorDb::new(CoordId(2));
        for seq in 1..=5 {
            a.register_job(job(seq));
        }
        for _ in 1..=3 {
            complete_one(&mut a, 64);
        }
        let check = |d: &CoordinatorDb, missing: &[u64], flagged: &[u64], held: &[u64], n: u64| {
            let keys = |seqs: &[u64]| seqs.iter().map(|&s| k(s)).collect::<Vec<_>>();
            assert_eq!(d.missing_archives().collect::<Vec<_>>(), keys(missing), "missing");
            assert_eq!(d.collected_flagged(), keys(flagged), "flagged");
            let catalog: Vec<(u64, u64)> = held.iter().map(|&s| (s, 64)).collect();
            assert_eq!(d.results_catalog_since(client, 0).added, catalog, "catalog");
            assert_eq!(d.finished_count(), n, "finished");
            d.check_invariants();
        };
        // Open → Missing: the feed's `Finished` rows of jobs 1–3.
        b.apply_delta(&a.delta_since(0));
        check(&b, &[1, 2, 3], &[], &[], 3);
        // Missing → Open: re-execution.
        let (id, _) = b.reexecute_job(k(1));
        check(&b, &[2, 3], &[], &[], 2);
        // Open → Held: the new instance completes here.
        let done = b.complete_task(id.unwrap(), k(1), Blob::synthetic(64, 1), ServerId(1)).0;
        assert_eq!(done, CompleteOutcome::NewResult);
        check(&b, &[2, 3], &[], &[1], 3);
        // Missing → Held: a server re-sends job 2's archive.
        b.store_archive(k(2), Blob::synthetic(64, 2));
        check(&b, &[3], &[], &[1, 2], 3);
        // Held → Flagged: the client acknowledges job 1.
        b.mark_collected(client, &[1]);
        check(&b, &[3], &[1], &[1, 2], 3);
        // Flagged → Delivered: GC reclaims its archive.
        assert_eq!(b.gc_collected().0, 64);
        check(&b, &[3], &[], &[2], 3);
        // Missing → Delivered: the feed's `Collected` row of job 3.
        a.mark_collected(client, &[3]);
        b.apply_delta(&a.delta_since(0));
        check(&b, &[], &[], &[2], 3);
        // Open → Delivered: the client re-acks job 4, not finished here.
        b.mark_collected(client, &[4]);
        check(&b, &[], &[], &[2], 4);
        // Retirement: `a`'s watermark through 3 takes `b`'s held job 2.
        a.mark_collected(client, &[1, 2]);
        a.gc_collected();
        assert_eq!(a.prune_retired(a.version()), 3);
        b.apply_delta(&a.delta_since(0));
        assert_eq!(b.retired_watermark(client), 3);
        check(&b, &[], &[], &[], 4);
    }

    #[test]
    fn a_restamped_job_arriving_after_higher_seqs_fills_its_slot() {
        // `b` learns `a`'s jobs without seq 3, then seq 3 in a later round:
        // seq 3's row carries `b`'s newest version, so `b`'s from-zero feed
        // delivers it after seqs 4..=70 (many chunks' worth).  A replica
        // fed that lands row for row where in-order application does.
        let client = ClientKey::new(1, 1);
        let late = JobKey::new(client, 3);
        let mut a = db();
        for seq in 1..=70 {
            a.register_job(job(seq));
        }
        for _ in 0..5 {
            complete_one(&mut a, 64);
        }
        let _ = a.next_pending(ServerId(2), T0);
        a.mark_collected(client, &[1, 2]);
        a.gc_collected();
        let mut first = a.delta_since(0);
        first.rows.retain(|r| match r {
            DeltaRow::Job(spec) => spec.key != late,
            DeltaRow::Task(rec) => rec.job != late,
            DeltaRow::Collected { job } | DeltaRow::Ckpt { job, .. } => *job != late,
            _ => true,
        });
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&first);
        b.apply_delta(&a.delta_since(0));
        let feed = b.delta_since(0);
        let at =
            |k: JobKey| feed.rows.iter().position(|r| matches!(r, DeltaRow::Job(s) if s.key == k));
        assert!(at(late) > at(JobKey::new(client, 70)), "seq 3 rides after the higher seqs");
        let mut in_order = CoordinatorDb::new(CoordId(3));
        in_order.apply_delta(&a.delta_since(0));
        let mut out_of_order = CoordinatorDb::new(CoordId(3));
        out_of_order.apply_delta(&feed);
        let rows = |d: &CoordinatorDb| {
            let delta = d.delta_since(0);
            let mut jobs: Vec<JobSpec> = delta.jobs().cloned().collect();
            jobs.sort_by_key(|s| s.key);
            let mut tasks: Vec<TaskRecord> = delta.tasks().copied().collect();
            tasks.sort_by_key(|t| t.id);
            let mut collected: Vec<JobKey> = delta.collected().collect();
            collected.sort();
            (jobs, tasks, delta.marks().collect::<Vec<_>>(), collected, d.ckpt_scan())
        };
        for d in [&in_order, &out_of_order] {
            d.check_invariants();
        }
        assert_eq!(rows(&out_of_order), rows(&in_order));
        assert_eq!(out_of_order.missing_archives_scan(), in_order.missing_archives_scan());
        assert_eq!(out_of_order.stats(), in_order.stats());
        assert_eq!(dispatchable(&out_of_order), dispatchable(&in_order));
        assert_eq!(out_of_order.contig_watermark(client), in_order.contig_watermark(client));
    }
}
