//! The coordinator database's memory gate: heap bytes a [`CoordinatorDb`]
//! holds per live job, and per client it ever met.
//!
//! Every coordinator of a replication ring holds the whole job and task
//! database, so each byte of a stored row is paid once per coordinator for
//! every live job.  This test fills a primary and a replica under a
//! counting global allocator and holds the live bytes per job (blocks
//! allocated, minus blocks freed, plus every `realloc`'s size delta —
//! requested sizes, not the allocator's size classes) under ceilings.  The
//! database is deterministic, so the readings repeat exactly on any
//! machine.  4 clients × 10 000 jobs, one instance each:
//!
//! - *Registered:* the primary after registration — a job row, a pending
//!   task row, and their change-index entries.  Measured 420 B per job
//!   when pinned; the layout before it (task rows in an ordered map, a
//!   40-byte instance list, 40-byte change entries) read 576.
//! - *Collected:* the same primary once every job was dispatched,
//!   completed with a 64-byte archive and acknowledged by its client — the
//!   catalog and GC worklists and the collected rows join.  Measured 627
//!   B per job when pinned; before, 879.
//! - *Replica:* a second database fed the primary's `delta_since(0)`
//!   through `apply_delta_owned`, which holds no archive.  Measured 463 B
//!   per job when pinned; before, 653.
//!
//! And one reading per client:
//!
//! - *Per client:* a third database meets a fleet of 1 000 clients with 8
//!   jobs each, registered, delivered (dispatched, completed, collected),
//!   GC'd and retired, so no job row is left: what stays is what the
//!   database keeps for each client it ever met — its client-table row,
//!   whose emptied job window, catalog and GC set keep their leaf nodes,
//!   its two marks and their change-index entries.  Measured 789 B per
//!   client; the per-client maps before the client table, each dropped
//!   with its last entry, read 356.
//!
//! Each ceiling is its reading + 10 %.  One test only: the counter is
//! per-thread, so the four readings run on one.

use rpcv_simnet::SimTime;
use rpcv_store::CoordinatorDb;
use rpcv_wire::Blob;
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId, ServiceName};

#[path = "../../../tests/support/meter.rs"]
mod meter;

#[global_allocator]
static ALLOCATOR: meter::Meter = meter::Meter;

const MAX_REGISTERED_BYTES_PER_JOB: f64 = 462.0;
const MAX_COLLECTED_BYTES_PER_JOB: f64 = 690.0;
const MAX_REPLICA_BYTES_PER_JOB: f64 = 509.0;
const MAX_BYTES_PER_CLIENT: f64 = 868.0;

const CLIENTS: u64 = 4;
const SEQS: u64 = 10_000;
const JOBS: f64 = (CLIENTS * SEQS) as f64;

const FLEET: u64 = 1_000;
const FLEET_SEQS: u64 = 8;

/// Live bytes that `run` leaves behind, divided by `per`, and what it
/// returns.
fn bytes_per<T>(per: f64, run: impl FnOnce() -> T) -> (f64, T) {
    meter::start();
    let out = run();
    meter::stop();
    (meter::live() as f64 / per, out)
}

/// Live bytes per job that `run` leaves behind, and what it returns.
fn bytes_per_job<T>(run: impl FnOnce() -> T) -> (f64, T) {
    bytes_per(JOBS, run)
}

#[test]
fn database_bytes_per_job_stay_within_budget() {
    // One service name for every job, as a client's plan shares it.
    let service = ServiceName::from("svc");
    let keys: Vec<JobKey> = (1..=SEQS)
        .flat_map(|seq| (1..=CLIENTS).map(move |c| JobKey::new(ClientKey::new(c, 1), seq)))
        .collect();
    let (registered, mut primary) = bytes_per_job(|| {
        let mut db = CoordinatorDb::new(CoordId(1));
        for &key in &keys {
            let spec = JobSpec::new(key, service.clone(), Blob::synthetic(1_000, key.seq));
            assert!(db.register_job(spec).0);
        }
        db
    });
    let (collected, ()) = bytes_per_job(|| {
        while let (Some(task), _) = primary.next_pending(ServerId(1), SimTime::ZERO) {
            let archive = Blob::from_vec(vec![7; 64]);
            primary.complete_task(task.id, task.job, archive, ServerId(1));
        }
        for c in 1..=CLIENTS {
            primary.mark_collected(ClientKey::new(c, 1), &(1..=SEQS).collect::<Vec<_>>());
        }
    });
    let collected = registered + collected;
    assert_eq!(primary.collected_flagged().len() as f64, JOBS, "every archive is held, flagged");
    let (replica, replica_db) = bytes_per_job(|| {
        let mut db = CoordinatorDb::new(CoordId(2));
        db.apply_delta_owned(primary.delta_since(0), SimTime::ZERO);
        db
    });
    assert_eq!(replica_db.stats().jobs as f64, JOBS, "the replica holds every job");
    let (per_client, fleet_db) = bytes_per(FLEET as f64, || {
        let mut db = CoordinatorDb::new(CoordId(3));
        let fleet = (1..=FLEET).map(|c| ClientKey::new(c, 1));
        for client in fleet.clone() {
            for seq in 1..=FLEET_SEQS {
                let spec = JobSpec::new(JobKey::new(client, seq), service.clone(), Blob::empty());
                assert!(db.register_job(spec).0);
            }
        }
        while let (Some(task), _) = db.next_pending(ServerId(1), SimTime::ZERO) {
            db.complete_task(task.id, task.job, Blob::from_vec(vec![7; 64]), ServerId(1));
        }
        for client in fleet {
            db.mark_collected(client, &(1..=FLEET_SEQS).collect::<Vec<_>>());
        }
        db.gc_collected();
        assert_eq!(db.prune_retired(u64::MAX), FLEET * FLEET_SEQS, "every job retires");
        db
    });
    assert_eq!(fleet_db.stats().archived, 0, "no archive is left");
    println!(
        "store budget: {registered:.0} B per registered job, {collected:.0} B per collected \
         job, {replica:.0} B per replicated job, {per_client:.0} B per client"
    );
    assert!(
        registered <= MAX_REGISTERED_BYTES_PER_JOB,
        "{registered:.0} live bytes per registered job exceeds the \
         {MAX_REGISTERED_BYTES_PER_JOB} budget"
    );
    assert!(
        collected <= MAX_COLLECTED_BYTES_PER_JOB,
        "{collected:.0} live bytes per collected job exceeds the \
         {MAX_COLLECTED_BYTES_PER_JOB} budget"
    );
    assert!(
        replica <= MAX_REPLICA_BYTES_PER_JOB,
        "{replica:.0} live bytes per replicated job exceeds the {MAX_REPLICA_BYTES_PER_JOB} budget"
    );
    assert!(
        per_client <= MAX_BYTES_PER_CLIENT,
        "{per_client:.0} live bytes per client exceeds the {MAX_BYTES_PER_CLIENT} budget"
    );
}
