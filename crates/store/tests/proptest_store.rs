//! Property tests for the coordinator database: replication convergence,
//! scheduling safety, at-least-once accounting.

use proptest::prelude::*;
use rpcv_simnet::{SimDuration, SimTime};
use rpcv_store::{CoordinatorDb, DeltaRow, ReplicationDelta};
use rpcv_wire::{from_bytes, to_bytes, Blob};
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId, TaskId, TaskState};

fn job(seq: u64, size: u64) -> JobSpec {
    JobSpec::new(JobKey::new(ClientKey::new(1, 1), seq), "svc", Blob::synthetic(size, seq))
        .with_exec_cost(1.0)
        .with_result_size(32)
        .with_work_units(100)
}

/// One local (non-replication) operation of the op generator shared by
/// `indexed_views_match_scan_definitions` and the ring twins: actions
/// 0–3, 5–9 and 12 of its `(seq, action, aux)` tuples.  The op's instant is
/// drawn with it (not monotone): dispatch stamps and "heard here" stamps
/// fall on either side of each other, which is what the suspicion rule
/// reads.
fn local_op(db: &mut CoordinatorDb, seq: u64, action: u8, aux: u8) {
    let client = ClientKey::new(1, 1);
    let now = SimTime::from_secs(seq);
    match action {
        0 | 1 => {
            db.register_job(job(seq, 50).with_replication(1 + (aux % 2) as u32));
        }
        2 => {
            let _ = db.next_pending(ServerId((aux % 3) as u64 + 1), now);
        }
        3 => {
            if let (Some(d), _) = db.next_pending(ServerId(9), now) {
                db.complete_task(d.id, d.job, Blob::synthetic(16, seq), ServerId(9));
            }
        }
        5 => {
            let first_missing = db.missing_archives_iter().next();
            if let Some(j) = first_missing {
                db.reexecute_job(j);
            }
        }
        6 => {
            // Sometimes ack-without-GC: the flagged-but-retained
            // archive state must also surface as a collected row.
            db.mark_collected(client, &[seq]);
            if aux.is_multiple_of(2) {
                let _ = db.gc_collected();
            }
        }
        7 => {
            // An archive hand-off answers a pull, and a pull names a job
            // the puller's own feed says finished — or the hand-off is
            // refused.  (A job nobody finished is never handed an archive.)
            let key = JobKey::new(client, seq);
            let finished = |t: &rpcv_store::TaskRecord| {
                t.job == key && matches!(t.state, TaskState::Finished { .. })
            };
            if !db.wants_archive(&key) || db.delta_since(0).tasks().any(finished) {
                db.store_archive(key, Blob::synthetic(8, seq));
            }
        }
        8 => {
            let server = ServerId((aux % 3) as u64 + 1);
            match aux {
                0..=3 => suspect_checked(db, server),
                // The server speaks here: a beat reporting everything
                // indexed on it — or, after a restart, nothing.
                7 => drop(db.reconcile_server(server, &[], now, SimDuration::ZERO)),
                _ => {
                    let running = db.indexed_on(server);
                    db.reconcile_server(server, &running, now, SimDuration::ZERO);
                }
            }
        }
        12 => {
            // A result under an instance id this database has not learned
            // (its dispatcher's row is still on its way), for a possibly
            // known job.
            let id = TaskId::compose(CoordId(9), seq << 8 | aux as u64);
            db.complete_task(id, JobKey::new(client, seq), Blob::synthetic(16, seq), ServerId(9));
        }
        _ => {
            // Checkpoint upload for a (possibly finished, possibly
            // unknown) job: the monotone merge and the finished-job
            // gate both get exercised.
            db.record_checkpoint(
                JobKey::new(client, seq),
                (aux as u32 % 6) + 1,
                Blob::synthetic(32, seq ^ 0xCC),
            );
        }
    }
}

/// [`CoordinatorDb::server_suspected`] against the definition of its rule,
/// read off the rows: of the instances indexed on the server, this
/// coordinator's silence covers those it dispatched itself and those
/// dispatched — by anyone — before the server last spoke *here*.  Exactly
/// those leave the index, the rest stay for the beat-driven reconcile,
/// and every instance minted replaces a covered one (one per job).
fn suspect_checked(db: &mut CoordinatorDb, server: ServerId) {
    let heard = db.server_heard(server);
    let (mut covered_jobs, mut skipped) = (Vec::new(), Vec::new());
    for id in db.indexed_on(server) {
        let row = db.task(id).expect("indexed rows are live");
        let TaskState::Ongoing { server: on, since } = row.rec.state else {
            panic!("{id:?} indexed on {server:?} in state {:?}", row.rec.state)
        };
        assert_eq!(on, server);
        if row.locally_dispatched || heard.is_some_and(|at| since < at) {
            covered_jobs.push(row.rec.job);
        } else {
            skipped.push(id);
        }
    }
    let (created, _) = db.server_suspected(server);
    assert_eq!(db.indexed_on(server), skipped, "silence un-indexes what it covers, nothing else");
    let minted_for: Vec<JobKey> = created.iter().map(|id| db.task(*id).unwrap().rec.job).collect();
    let mut distinct = minted_for.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), minted_for.len(), "one replacement per job");
    for job in &minted_for {
        assert!(
            covered_jobs.contains(job),
            "{job:?} re-instanced on silence that does not cover it"
        );
    }
}

/// Applies `feed` to `db` at `now` and holds the missing worklist's stamps
/// to their definition: every entry the apply added carries `now`, and
/// every entry already present keeps its own.
fn apply_checked(db: &mut CoordinatorDb, feed: ReplicationDelta, now: SimTime) {
    let stamps = |db: &CoordinatorDb| -> std::collections::BTreeMap<JobKey, SimTime> {
        db.missing_archives_iter().map(|j| (j, db.missing_since(&j).unwrap())).collect()
    };
    let before = stamps(db);
    db.apply_delta_owned(feed, now);
    for (job, since) in stamps(db) {
        let want = before.get(&job).copied().unwrap_or(now);
        assert_eq!(since, want, "{job:?}: stamped at {since:?}, entered at {want:?}");
    }
}

/// A ring of coordinator databases replicating the way `CoordinatorActor`
/// does — successor feed from the acked base (from zero when the store
/// finds the base below its retention floor), gap refusal above the
/// consumer's applied head, ack records dropped on suspicion — with the
/// feed either echo-free ([`CoordinatorDb::feed_for`]) or the complete
/// reference ([`CoordinatorDb::delta_since`]) from the same base.
struct Ring {
    filtered: bool,
    members: Vec<CoordinatorDb>,
    /// `acked[i][j]`: the version of `i`'s feed that `j` acknowledged.
    acked: Vec<Vec<u64>>,
    /// `applied[j][i]`: the highest head of `i`'s feed applied at `j`.
    applied: Vec<Vec<u64>>,
    /// A crashed member: skipped by the ring until it returns.
    down: Option<usize>,
    /// Members that lost their disk.  A wiped database restarts its task
    /// counter, and instance ids minted again would alias the first
    /// incarnation's rows at the peers — a hazard of wiping the id
    /// authority that is not this property's subject — so a wiped member
    /// stops minting (no registration, re-execution or suspicion).
    wiped: Vec<bool>,
}

impl Ring {
    fn new(k: usize, filtered: bool) -> Self {
        Ring {
            filtered,
            members: (0..k).map(|i| CoordinatorDb::new(Self::id(i))).collect(),
            acked: vec![vec![0; k]; k],
            applied: vec![vec![0; k]; k],
            down: None,
            wiped: vec![false; k],
        }
    }

    fn id(i: usize) -> CoordId {
        CoordId(i as u64 + 1)
    }

    /// `i`'s live ring successor.
    fn successor(&self, i: usize) -> Option<usize> {
        let k = self.members.len();
        (1..k).map(|d| (i + d) % k).find(|&j| Some(j) != self.down)
    }

    /// The version retention at `i` may prune up to.
    fn min_acked(&self, i: usize) -> u64 {
        self.successor(i).map_or(u64::MAX, |j| self.acked[i][j])
    }

    /// One replication round from `i` to its successor; `ack` says whether
    /// the acknowledgement makes it back.
    fn exchange(&mut self, i: usize, ack: bool) {
        if Some(i) == self.down {
            return;
        }
        let Some(j) = self.successor(i) else { return };
        let base = self.acked[i][j];
        let client = ClientKey::new(1, 1);
        let retired = |m: &CoordinatorDb| m.retired_watermark(client);
        let reseeded = retired(&self.members[j]).max(retired(&self.members[i]));
        let sender = &self.members[i];
        let mut feed = sender.feed_for(Self::id(j), base);
        if !self.filtered {
            feed = sender.delta_since(feed.base_version);
        }
        if feed.base_version > self.applied[j][i] {
            // Gap: the consumer refuses the feed and asks for a reseed.
            self.acked[i][j] = 0;
            return;
        }
        let (base, head) = (feed.base_version, feed.head_version);
        self.members[j].apply_delta_owned(feed, SimTime::ZERO);
        // A reseed — any round served from base 0 — is complete: what the
        // sender retired, the receiver holds retired too, however the
        // sender came to know it.
        if base == 0 {
            assert_eq!(retired(&self.members[j]), reseeded, "reseed {i} -> {j} lost the watermark");
        }
        self.applied[j][i] = self.applied[j][i].max(head);
        if ack {
            self.acked[i][j] = self.acked[i][j].max(head);
        }
    }

    /// `d` crashes (its peers suspect it and drop its ack records), or the
    /// crashed member returns with its durable state.
    fn toggle_down(&mut self, d: usize) {
        if self.down.take().is_none() {
            self.down = Some(d);
            for row in &mut self.acked {
                row[d] = 0;
            }
        }
    }

    /// `d` loses its disk: database, ack records and applied heads go
    /// together; its peers are not told.
    fn wipe(&mut self, d: usize) {
        self.members[d] = CoordinatorDb::new(Self::id(d));
        self.acked[d].fill(0);
        self.applied[d].fill(0);
        self.wiped[d] = true;
    }

    /// The run starts with a retired prefix that one member only *learned*:
    /// with the last member down, member 0 takes seqs `1..=n` to
    /// delivered-and-reclaimed, an acked round goes round, and everyone up
    /// prunes what its successor acknowledged; then the last member
    /// returns and is reseeded.  It holds the watermark and pruned nothing.
    fn warm_up(&mut self, n: u64) {
        let k = self.members.len();
        self.toggle_down(k - 1);
        for seq in 1..=n {
            for action in [0, 3, 6] {
                local_op(&mut self.members[0], seq, action, 0);
            }
        }
        (0..k).for_each(|m| self.exchange(m, true));
        for i in 0..k - 1 {
            let min_acked = self.min_acked(i);
            self.members[i].prune_retired(min_acked);
        }
        self.toggle_down(k - 1);
        (0..k).for_each(|m| self.exchange(m, true));
    }

    /// One step of the `indexed_views_match_scan_definitions` generator.
    fn step(&mut self, seq: u64, action: u8, aux: u8) {
        let k = self.members.len();
        let i = (seq as usize + aux as usize) % k;
        match action {
            4 => (0..k).for_each(|m| self.exchange(m, true)),
            11 => match aux {
                0..=3 => self.exchange(i, aux < 2),
                4 | 5 => self.toggle_down(i),
                _ => self.wipe(i),
            },
            _ if Some(i) == self.down => {}
            0 | 1 | 5 | 8 if self.wiped[i] => {}
            10 => {
                let min_acked = self.min_acked(i);
                self.members[i].prune_retired(min_acked);
            }
            _ => local_op(&mut self.members[i], seq, action, aux),
        }
    }
}

fn state_rank(s: &TaskState) -> u8 {
    match s {
        TaskState::Pending => 0,
        TaskState::Ongoing { .. } => 1,
        TaskState::Finished { .. } => 2,
    }
}

/// True when `peer` holds `row` at an equal or higher state (or retired the
/// job it belongs to): what makes leaving `row` out of its feed safe.
fn holds(peer: &CoordinatorDb, row: &DeltaRow) -> bool {
    let retired = |j: &JobKey| j.seq <= peer.retired_watermark(j.client);
    match row {
        DeltaRow::Job(spec) => peer.knows_job(&spec.key) || retired(&spec.key),
        DeltaRow::Task(rec) => {
            retired(&rec.job)
                || peer
                    .task(rec.id)
                    .is_some_and(|t| state_rank(&t.rec.state) >= state_rank(&rec.state))
        }
        DeltaRow::Mark { client, mark } => peer.client_max(*client) >= *mark,
        DeltaRow::Collected { job } => peer.has_collected_knowledge(job),
        DeltaRow::Ckpt { job, unit_hw, .. } => {
            retired(job) || peer.ckpt_high_water(job).is_some_and(|hw| hw >= *unit_hw)
        }
        DeltaRow::Retired { client, through } => peer.retired_watermark(*client) >= *through,
    }
}

proptest! {
    /// Echo-free replication is invisible to the replicated state: a
    /// 2-ring and a 3-ring exchanging *filtered* feeds hold, member for
    /// member and row for row, exactly what twin rings exchanging the
    /// complete reference feed hold — after every step of an arbitrary
    /// run of local operations, replication rounds (acked or not),
    /// retention, crashes that reshape the ring, and disk wipes.  Along
    /// the way the rules themselves are pinned: a from-zero feed is
    /// complete; whatever a local operation stamps is on every peer's
    /// feed again; and an entry a feed skips is never the only copy.
    #[test]
    fn filtered_feeds_match_unfiltered_twins(
        retired in 0u64..4,
        ops in proptest::collection::vec((1u64..25, 0u8..13, 0u8..8), 1..60),
    ) {
        for k in [2usize, 3] {
            let mut ring = Ring::new(k, true);
            let mut twin = Ring::new(k, false);
            ring.warm_up(retired);
            twin.warm_up(retired);
            for &(seq, action, aux) in &ops {
                let before: Vec<u64> = ring.members.iter().map(CoordinatorDb::version).collect();
                ring.step(seq, action, aux);
                twin.step(seq, action, aux);
                let local_op = !matches!(action, 4 | 11);
                for (i, m) in ring.members.iter().enumerate() {
                    m.check_invariants();
                    prop_assert_eq!(m.delta_since(0), twin.members[i].delta_since(0));
                    for p in (0..k).filter(|&p| p != i) {
                        let to = Ring::id(p);
                        prop_assert_eq!(m.feed_for(to, 0), m.delta_since(0));
                        if local_op {
                            prop_assert_eq!(m.feed_for(to, before[i]), m.delta_since(before[i]));
                        }
                        // A feed `p` would accept leaves out only rows `p` holds.
                        let base = ring.acked[i][p];
                        if base > 0 && base <= ring.applied[p][i] {
                            let sent = m.feed_for(to, base);
                            for row in m.delta_since(base).rows {
                                prop_assert!(
                                    sent.rows.contains(&row) || holds(&ring.members[p], &row),
                                    "{:?} skipped toward {:?}, which does not hold it", row, to
                                );
                            }
                        }
                    }
                }
                prop_assert_eq!(&ring.acked, &twin.acked);
            }
        }
    }

    /// Replication convergence: after exchanging deltas in both directions,
    /// both databases agree on jobs, finished jobs, and client marks —
    /// regardless of how work was interleaved on the primary.
    #[test]
    fn deltas_converge_both_ways(
        ops in proptest::collection::vec((1u64..30, 0u8..3), 1..60),
    ) {
        let mut a = CoordinatorDb::new(CoordId(1));
        let mut b = CoordinatorDb::new(CoordId(2));
        let now = SimTime::ZERO;
        for (seq, action) in ops {
            match action {
                0 => {
                    a.register_job(job(seq, 100));
                }
                1 => {
                    let _ = a.next_pending(ServerId(1), now);
                }
                _ => {
                    // Complete whatever is ongoing first, if anything.
                    if let (Some(desc), _) = a.next_pending(ServerId(2), now) {
                        a.complete_task(desc.id, desc.job, Blob::synthetic(32, seq), ServerId(2));
                    }
                }
            }
        }
        // One full exchange each way.
        b.apply_delta(&a.delta_since(0));
        a.apply_delta(&b.delta_since(0));
        prop_assert_eq!(a.stats().jobs, b.stats().jobs);
        prop_assert_eq!(a.finished_count(), b.finished_count());
        prop_assert_eq!(
            a.client_max(ClientKey::new(1, 1)),
            b.client_max(ClientKey::new(1, 1))
        );
    }

    /// Delta application is idempotent: applying the same delta twice
    /// changes nothing the second time.
    #[test]
    fn delta_apply_idempotent(n in 1u64..40) {
        let mut a = CoordinatorDb::new(CoordId(1));
        for seq in 1..=n {
            a.register_job(job(seq, 50));
        }
        let delta = a.delta_since(0);
        let mut b = CoordinatorDb::new(CoordId(2));
        b.apply_delta(&delta);
        let jobs1 = b.stats().jobs;
        let tasks1 = b.stats().tasks;
        b.apply_delta(&delta);
        prop_assert_eq!(b.stats().jobs, jobs1);
        prop_assert_eq!(b.stats().tasks, tasks1);
    }

    /// Scheduling safety: the same task instance is never dispatched twice,
    /// and every dispatched task belongs to a registered job.
    #[test]
    fn dispatch_is_exactly_once_per_instance(
        n_jobs in 1u64..30,
        pulls in 1usize..80,
    ) {
        let mut db = CoordinatorDb::new(CoordId(1));
        for seq in 1..=n_jobs {
            db.register_job(job(seq, 10));
        }
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..pulls {
            let server = ServerId((i % 5) as u64 + 1);
            let (task, _) = db.next_pending(server, SimTime::ZERO);
            if let Some(desc) = task {
                prop_assert!(seen.insert(desc.id), "instance dispatched twice");
                prop_assert!(desc.job.seq >= 1 && desc.job.seq <= n_jobs);
            }
        }
        prop_assert!(seen.len() as u64 <= n_jobs);
    }

    /// Index/scan equivalence: for arbitrary op sequences (registration,
    /// dispatch, completion, replication from a peer, archive hand-off,
    /// GC, re-execution, server beats and suspicion, checkpoint upload,
    /// retention pruning), the incremental structures must agree with
    /// their full-scan reference definitions at every step —
    /// `missing_archives`/`collected_flagged` and the per-server index
    /// continuously, the stamps of every apply's missing entries
    /// (`apply_checked`), every suspicion against the rule's
    /// definition (`suspect_checked`), and `delta_since(base)` for every
    /// base version the run passed through.
    /// A mid-run from-zero feed plus the tail of the feed must bootstrap
    /// a replica that matches a from-scratch application row-for-row.
    /// The feed's shape is held too: retired watermarks lead, only a
    /// from-zero feed carries them, and applying one twice — or over a
    /// replica that is ahead — changes nothing.
    #[test]
    fn indexed_views_match_scan_definitions(
        ops in proptest::collection::vec((1u64..25, 0u8..13, 0u8..8), 1..60),
        snap_at in 0usize..60,
    ) {
        let client = ClientKey::new(1, 1);
        let mut a = CoordinatorDb::new(CoordId(1));
        let mut b = CoordinatorDb::new(CoordId(2));
        // Mirror replica fed exclusively with incremental deltas — if an
        // indexed delta ever omits a changed row or moved client mark, the
        // mirror diverges from the full-state reference below.
        let mut mirror = CoordinatorDb::new(CoordId(3));
        let mut mirror_base = 0u64;
        // Client-side catalog mirror fed exclusively with incremental
        // catalog deltas (the ClientSyncReply path) — it must cover the
        // full-scan catalog through stores, collections and GCs.
        let mut cat_mirror: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut cat_hw = 0u64;
        let now = SimTime::ZERO;
        let mut bases = vec![0u64];
        // Mid-run from-zero feed (taken at a generated step, through the
        // wire): the `bootstrap + tail` source below.
        let through_the_wire =
            |feed: ReplicationDelta| from_bytes::<ReplicationDelta>(&to_bytes(&feed)).unwrap();
        let mut snap: Option<ReplicationDelta> = None;
        for (step, (seq, action, aux)) in ops.into_iter().enumerate() {
            let at = SimTime::from_secs(step as u64 + 1);
            match action {
                4 => {
                    // Peer work replicated in: held ongoing tasks, foreign
                    // origins, finished-without-archive rows, and the
                    // peer's checkpoint knowledge.
                    b.register_job(job(100 + seq, 30));
                    b.record_checkpoint(
                        JobKey::new(client, 100 + seq),
                        (aux as u32 % 5) + 1,
                        Blob::synthetic(24, seq),
                    );
                    // (Held on a server this coordinator also hears from,
                    // stamped on either side of its last word here.)
                    let _ = b.next_pending(ServerId((aux % 3) as u64 + 1), SimTime::from_secs(seq));
                    if let (Some(d), _) = b.next_pending(ServerId(5), now) {
                        b.complete_task(d.id, d.job, Blob::synthetic(16, seq), ServerId(5));
                    }
                    apply_checked(&mut a, b.delta_since(0), at);
                }
                10 => {
                    // Retention, gated exactly as the coordinator gates
                    // it: never past what the slowest feed consumer (the
                    // mirror, or the mid-run bootstrap's tail base) holds.
                    let min_acked =
                        mirror_base.min(snap.as_ref().map_or(u64::MAX, |s| s.head_version));
                    a.prune_retired(min_acked);
                    prop_assert!(a.delta_floor() <= min_acked, "floor never passes the gate");
                }
                11 => {
                    let (_, _) = a.next_pending(ServerId(2), now);
                    apply_checked(&mut a, b.delta_since((aux as u64) * 5), at);
                }
                _ => local_op(&mut a, seq, action, aux),
            }
            // Row flags/counters and side indexes against a full recount
            // (the peer and the delta-fed mirror get audited too — apply
            // paths maintain the same rows).
            a.check_invariants();
            b.check_invariants();
            mirror.check_invariants();
            // Continuous equivalence of the maintained structures.
            prop_assert_eq!(a.missing_archives(), a.missing_archives_scan());
            prop_assert_eq!(a.collected_flagged(), a.collected_flagged_scan());
            // Merge the incremental catalog delta exactly as a client does
            // (additions only: GC leaves no record) and compare against the
            // full-scan reference catalog.  The mirror holds every
            // catalogued result at its size; anything more is a result GC
            // reclaimed, which the store knows was delivered.
            let cd = a.results_catalog_since(client, cat_hw);
            prop_assert!(cd.head >= cat_hw);
            cat_mirror.extend(cd.added.iter().copied());
            cat_hw = cd.head;
            let scan = a.results_catalog_scan(client);
            for &(seq, size) in &scan {
                prop_assert!(cat_mirror.get(&seq) == Some(&size), "seq {} not mirrored", seq);
            }
            for &seq in cat_mirror.keys() {
                let held = scan.iter().any(|&(s, _)| s == seq);
                prop_assert!(
                    held || a.has_collected_knowledge(&JobKey::new(client, seq)),
                    "seq {} left the catalog undelivered",
                    seq
                );
            }
            // A from-scratch merge (base 0) equals the scan.
            let mut from_zero = a.results_catalog_since(client, 0).added;
            from_zero.sort_unstable();
            prop_assert_eq!(from_zero, scan);
            // Feed the mirror only what changed since its last sync.
            apply_checked(&mut mirror, a.delta_since(mirror_base), at);
            mirror_base = a.version();
            // Whatever archive the sender holds undelivered, the mirror
            // learned the job finished and lists the archive to pull.
            for seq in 1..25 {
                let key = JobKey::new(client, seq);
                if a.knows_job(&key) && a.archive(&key).is_some() && !a.has_collected_knowledge(&key) {
                    prop_assert!(mirror.missing_since(&key).is_some(), "{:?} finished, unfed", key);
                }
            }
            bases.push(a.version());
            if step == snap_at {
                snap = Some(through_the_wire(a.delta_since(0)));
            }
        }
        // Indexed delta == scan delta for every base the run saw (and the
        // in-between versions around each).
        for &base in &bases {
            for base in [base, base.saturating_sub(1)] {
                let idx = a.delta_since(base);
                let scan = a.delta_since_scan(base);
                prop_assert_eq!(idx.head_version, scan.head_version);
                // Watermarks lead the feed, and only a from-zero feed
                // carries them: everything this database retired.
                for feed in [&idx, &scan] {
                    let lead = feed.rows.iter().take_while(|r| matches!(r, DeltaRow::Retired { .. }));
                    prop_assert_eq!(lead.count(), feed.retired().count());
                    let w = a.retired_watermark(client);
                    let all: Vec<_> = (base == 0 && w > 0).then_some((client, w)).into_iter().collect();
                    prop_assert_eq!(feed.retired().collect::<Vec<_>>(), all);
                }
                let mut ij: Vec<_> = idx.jobs().map(|s| s.key).collect();
                let mut sj: Vec<_> = scan.jobs().map(|s| s.key).collect();
                ij.sort();
                sj.sort();
                prop_assert_eq!(ij, sj);
                let mut it: Vec<_> = idx.tasks().cloned().collect();
                let mut st: Vec<_> = scan.tasks().cloned().collect();
                it.sort_by_key(|t| t.id);
                st.sort_by_key(|t| t.id);
                prop_assert_eq!(it, st);
                // Marks in the indexed delta carry current values; the scan
                // reference re-sends every mark, so indexed ⊆ scan.
                let scan_marks: Vec<_> = scan.marks().collect();
                for (c, m) in idx.marks() {
                    prop_assert_eq!(m, a.client_max(c));
                    prop_assert!(scan_marks.contains(&(c, m)));
                }
                // Collected rows carry live knowledge; the scan reference
                // re-sends every collected job, so indexed ⊆ scan.
                let scan_collected: std::collections::BTreeSet<_> = scan.collected().collect();
                for job in idx.collected() {
                    prop_assert!(a.has_collected_knowledge(&job));
                    prop_assert!(scan_collected.contains(&job));
                }
                // Checkpoint rows carry current marks; the scan reference
                // re-sends every row, so indexed ⊆ scan.
                let scan_ckpts: std::collections::BTreeMap<_, _> =
                    scan.ckpts().map(|(j, hw, _)| (j, hw)).collect();
                for (j, hw, _) in idx.ckpts() {
                    prop_assert_eq!(a.ckpt_high_water(&j), Some(hw));
                    prop_assert_eq!(scan_ckpts.get(&j).copied(), Some(hw));
                }
                // From base 0 the indexed feed covers the complete
                // collected-knowledge and checkpoint sets (one versioned
                // row per job each).
                if base == 0 {
                    let full: std::collections::BTreeSet<_> = idx.collected().collect();
                    prop_assert_eq!(full, scan_collected);
                    let full_ckpts: std::collections::BTreeMap<_, _> =
                        idx.ckpts().map(|(j, hw, _)| (j, hw)).collect();
                    prop_assert_eq!(full_ckpts, scan_ckpts);
                }
            }
        }
        // Three independent bootstrap paths onto the same sender:
        //  * mirror — incremental deltas from version 0 (no gaps);
        //  * full   — the sender's *current* from-zero feed
        //    (post-retention, this is the protocol's from-scratch
        //    application path);
        //  * boot   — the mid-run from-zero feed plus the tail of the
        //    regular feed from its head (the joining-replica exchange).
        let feed = through_the_wire(a.delta_since(0));
        let end = SimTime::from_secs(1_000);
        let mut full = CoordinatorDb::new(CoordId(3));
        apply_checked(&mut full, feed.clone(), end);
        let once = (full.version(), full.delta_since(0));
        apply_checked(&mut full, feed.clone(), end + SimDuration::from_secs(1));
        // Applied twice, a from-zero feed changes nothing.
        prop_assert_eq!((full.version(), full.delta_since(0)), once);
        let snap = snap.unwrap_or_else(|| feed.clone());
        prop_assert!(a.delta_floor() <= snap.head_version, "tail base stayed above the floor");
        let mut boot = CoordinatorDb::new(CoordId(4));
        apply_checked(&mut boot, snap.clone(), end);
        apply_checked(&mut boot, a.delta_since(snap.head_version), end + SimDuration::from_secs(1));
        // Lifetime knowledge is path-independent: jobs ever registered,
        // results ever delivered, the client's replay fence.
        prop_assert_eq!(mirror.stats().jobs, full.stats().jobs);
        prop_assert_eq!(boot.stats().jobs, full.stats().jobs);
        prop_assert_eq!(mirror.client_max(client), full.client_max(client));
        prop_assert_eq!(boot.client_max(client), full.client_max(client));
        prop_assert_eq!(mirror.finished_count(), full.finished_count());
        prop_assert_eq!(boot.finished_count(), full.finished_count());
        prop_assert_eq!(mirror.stats().collected, full.stats().collected);
        prop_assert_eq!(boot.stats().collected, full.stats().collected);
        // Collected knowledge propagated: the delta-fed mirror holds the
        // terminal set and never re-executes or re-acquires any of it —
        // including jobs whose rows the sender has since pruned.
        for job in a.delta_since_scan(0).collected() {
            prop_assert!(mirror.is_collected(&job));
            prop_assert!(!mirror.wants_archive(&job));
            let (tid, _) = mirror.reexecute_job(job);
            prop_assert!(tid.is_none(), "mirror must refuse re-executing collected work");
        }
        // Each replica now retires its own delivered prefix (its watermark
        // knowledge arrived through the feed); after that, every bootstrap
        // path must agree row-for-row on the live state.
        mirror.prune_retired(u64::MAX);
        boot.prune_retired(u64::MAX);
        full.prune_retired(u64::MAX);
        for replica in [&mut mirror, &mut boot, &mut full] {
            replica.check_invariants();
            // Each is now level with or ahead of the sender (its own
            // watermark may be higher): the sender's feed is old news.
            let ahead = (replica.version(), replica.delta_since(0));
            apply_checked(replica, feed.clone(), end + SimDuration::from_secs(2));
            prop_assert_eq!((replica.version(), replica.delta_since(0)), ahead);
        }
        let rows = |d: &CoordinatorDb| {
            let delta = d.delta_since(0);
            let mut jobs: Vec<_> = delta.jobs().map(|s| s.key).collect();
            jobs.sort();
            let mut tasks: Vec<_> = delta.tasks().cloned().collect();
            tasks.sort_by_key(|t| t.id);
            let mut marks: Vec<_> = delta.marks().collect();
            marks.sort();
            let mut collected: Vec<_> = delta.collected().collect();
            collected.sort();
            (jobs, tasks, marks, collected, d.ckpt_scan())
        };
        prop_assert_eq!(rows(&boot), rows(&full));
        prop_assert_eq!(rows(&mirror), rows(&full));
        prop_assert_eq!(boot.retired_count(), full.retired_count());
        prop_assert_eq!(mirror.retired_count(), full.retired_count());
        prop_assert_eq!(boot.resident_rows(), full.resident_rows());
        prop_assert_eq!(mirror.resident_rows(), full.resident_rows());
    }

    /// Shard routing is a pure partition of the job space: replaying a
    /// multi-client op sequence through `ClientKey::shard_of` onto S
    /// independent databases yields, per client, exactly the rows the
    /// 1-shard reference holds — jobs, marks, result catalogs, checkpoint
    /// marks and collected knowledge — and the shards' union reconstructs
    /// the reference with no row lost, duplicated, or misrouted.  The
    /// store itself stays shard-oblivious; this pins that the routing
    /// layer above it never needs cross-shard reconciliation.
    #[test]
    fn sharded_routing_matches_flat_reference(
        shards in 2usize..=4,
        ops in proptest::collection::vec((1u64..9, 1u64..15, 0u8..6), 1..60),
    ) {
        let ck = |c: u64| ClientKey::new(c, 1);
        let jk = |c: u64, seq: u64| JobKey::new(ck(c), seq);
        let mk = |c: u64, seq: u64| {
            JobSpec::new(jk(c, seq), "svc", Blob::synthetic(40, c << 8 | seq))
                .with_exec_cost(1.0)
                .with_result_size(32)
                .with_work_units(100)
        };
        // Drain-and-complete every pending instance; applied to the flat
        // reference and every shard in the same step, so each registered
        // job finishes exactly once on both sides of the comparison.
        let drain = |db: &mut CoordinatorDb| {
            while let (Some(d), _) = db.next_pending(ServerId(1), SimTime::ZERO) {
                db.complete_task(d.id, d.job, Blob::synthetic(32, d.job.seq), ServerId(1));
            }
        };
        let mut flat = CoordinatorDb::new(CoordId(1));
        let mut parts: Vec<CoordinatorDb> =
            (0..shards).map(|s| CoordinatorDb::new(CoordId(10 + s as u64))).collect();
        for (c, seq, action) in ops {
            let s = ck(c).shard_of(shards);
            match action {
                0 | 1 => {
                    flat.register_job(mk(c, seq));
                    parts[s].register_job(mk(c, seq));
                }
                2 => {
                    drain(&mut flat);
                    for p in parts.iter_mut() {
                        drain(p);
                    }
                }
                3 => {
                    flat.mark_collected(ck(c), &[seq]);
                    parts[s].mark_collected(ck(c), &[seq]);
                    if seq % 2 == 0 {
                        let _ = flat.gc_collected();
                        for p in parts.iter_mut() {
                            let _ = p.gc_collected();
                        }
                    }
                }
                4 => {
                    flat.store_archive(jk(c, seq), Blob::synthetic(8, seq));
                    parts[s].store_archive(jk(c, seq), Blob::synthetic(8, seq));
                }
                _ => {
                    flat.record_checkpoint(jk(c, seq), (seq as u32 % 6) + 1, Blob::synthetic(24, seq));
                    parts[s].record_checkpoint(jk(c, seq), (seq as u32 % 6) + 1, Blob::synthetic(24, seq));
                }
            }
            // The owning shard's client-facing views track the reference
            // continuously; every other shard stays empty for this client.
            prop_assert_eq!(parts[s].results_catalog_scan(ck(c)), flat.results_catalog_scan(ck(c)));
            prop_assert_eq!(parts[s].client_max(ck(c)), flat.client_max(ck(c)));
            for (o, p) in parts.iter().enumerate() {
                if o != s {
                    prop_assert!(p.client_max(ck(c)) == 0, "client {} leaked to shard {}", c, o);
                    prop_assert!(p.results_catalog_scan(ck(c)).is_empty());
                }
            }
        }
        // Per-client from-scratch catalog merge: the owner's incremental
        // feed rebuilds exactly the flat reference's catalog.
        for c in 1u64..9 {
            let owner = &parts[ck(c).shard_of(shards)];
            let merge = |db: &CoordinatorDb| {
                let mut m = db.results_catalog_since(ck(c), 0).added;
                m.sort_unstable();
                m
            };
            prop_assert_eq!(merge(owner), merge(&flat));
        }
        // Union reconstruction: every row class in the flat reference is
        // covered by exactly one shard, and each shard holds only rows
        // whose client hashes to it.
        let flat_delta = flat.delta_since(0);
        let mut union_jobs = Vec::new();
        let mut union_tasks = Vec::new();
        let mut union_marks = Vec::new();
        let mut union_collected = Vec::new();
        let mut union_ckpts = Vec::new();
        for (s, p) in parts.iter().enumerate() {
            let d = p.delta_since(0);
            for spec in d.jobs() {
                prop_assert!(spec.key.client.shard_of(shards) == s, "misrouted job row");
                union_jobs.push(spec.key);
            }
            union_tasks.extend(d.tasks().map(|t| t.job));
            union_marks.extend(d.marks());
            union_collected.extend(d.collected());
            union_ckpts.extend(d.ckpts().map(|(j, hw, _)| (j, hw)));
        }
        let sorted = |mut v: Vec<JobKey>| {
            v.sort();
            v
        };
        let mut flat_jobs: Vec<_> = flat_delta.jobs().map(|spec| spec.key).collect();
        flat_jobs.sort();
        prop_assert_eq!(sorted(union_jobs), flat_jobs);
        let mut flat_tasks: Vec<_> = flat_delta.tasks().map(|t| t.job).collect();
        flat_tasks.sort();
        prop_assert_eq!(sorted(union_tasks), flat_tasks);
        union_marks.sort();
        let mut flat_marks: Vec<_> = flat_delta.marks().collect();
        flat_marks.sort();
        prop_assert_eq!(union_marks, flat_marks);
        let mut flat_collected: Vec<_> = flat_delta.collected().collect();
        flat_collected.sort();
        prop_assert_eq!(sorted(union_collected), flat_collected);
        union_ckpts.sort();
        let mut flat_ckpts: Vec<_> = flat_delta.ckpts().map(|(j, hw, _)| (j, hw)).collect();
        flat_ckpts.sort();
        prop_assert_eq!(union_ckpts, flat_ckpts);
        prop_assert_eq!(parts.iter().map(|p| p.stats().jobs).sum::<u64>(), flat.stats().jobs);
        prop_assert_eq!(
            parts.iter().map(|p| p.finished_count()).sum::<u64>(),
            flat.finished_count()
        );
        prop_assert_eq!(
            parts.iter().map(|p| p.stats().archived).sum::<u64>(),
            flat.stats().archived
        );
    }

    /// Checkpoint replay monotonicity: applying any prefix of an upload
    /// sequence — directly, or through incremental replication deltas —
    /// yields a resume high-water mark that equals the running maximum and
    /// never decreases, and replaying a stale delta cannot regress it.
    #[test]
    fn ckpt_prefix_replay_is_monotone(
        marks in proptest::collection::vec(0u32..100, 1..40),
    ) {
        let mut d = CoordinatorDb::new(CoordId(1));
        d.register_job(job(1, 10));
        let key = JobKey::new(ClientKey::new(1, 1), 1);
        let mut replica = CoordinatorDb::new(CoordId(2));
        let mut base = 0u64;
        let mut best = 0u32;
        let mut replica_prev = 0u32;
        for (i, &hw) in marks.iter().enumerate() {
            d.record_checkpoint(key, hw, Blob::synthetic(hw as u64 + 1, i as u64));
            best = best.max(hw);
            prop_assert_eq!(d.ckpt_high_water(&key).unwrap_or(0), best);
            // The replica sees exactly this prefix, as incremental deltas.
            replica.apply_delta(&d.delta_since(base));
            base = d.version();
            let rhw = replica.ckpt_high_water(&key).unwrap_or(0);
            prop_assert!(rhw >= replica_prev, "resume mark must never decrease");
            prop_assert_eq!(rhw, best);
            replica_prev = rhw;
        }
        // An out-of-order replay of the full history cannot regress it.
        replica.apply_delta(&d.delta_since(0));
        prop_assert_eq!(replica.ckpt_high_water(&key).unwrap_or(0), best);
    }

    /// At-least-once accounting: for any completion order (including
    /// duplicates), archived + duplicates equals total completions, and
    /// each job has at most one archive.
    #[test]
    fn completion_accounting_balances(
        n_jobs in 1u64..20,
        completions in proptest::collection::vec(0usize..20, 1..60),
    ) {
        let mut db = CoordinatorDb::new(CoordId(1));
        let mut dispatched = Vec::new();
        for seq in 1..=n_jobs {
            db.register_job(job(seq, 10).with_replication(2));
        }
        while let (Some(desc), _) = db.next_pending(ServerId(1), SimTime::ZERO) {
            dispatched.push(desc);
        }
        let mut accepted = 0u64;
        let mut total = 0u64;
        for idx in completions {
            if dispatched.is_empty() {
                break;
            }
            let desc = &dispatched[idx % dispatched.len()];
            total += 1;
            let (outcome, _) =
                db.complete_task(desc.id, desc.job, Blob::synthetic(32, 1), ServerId(1));
            if outcome == rpcv_store::CompleteOutcome::NewResult {
                accepted += 1;
            }
        }
        let stats = db.stats();
        prop_assert_eq!(stats.archived, accepted);
        prop_assert_eq!(stats.duplicate_results, total - accepted);
        prop_assert!(stats.archived <= n_jobs);
    }
}
