//! The sharded coordinator plane: hash-partitioned job space with
//! per-shard replication and failover.
//!
//! Every coordinator group ("shard") owns the clients whose
//! `ClientKey::shard_of` hash lands on it, runs its own change index,
//! replication feed, retention and snapshot bootstrap, and fails over
//! independently.  These tests pin the two load-bearing properties:
//!
//! 1. **Partitioning** — jobs live on exactly their owning shard; every
//!    client reads its group off the directory it was built with and never
//!    addresses another.
//! 2. **Isolation** — a primary crash in one shard fails over only that
//!    shard: every other shard keeps dispatching exactly one instance per
//!    job, with zero cross-shard re-execution.

use rpcv::core::config::ProtocolConfig;
use rpcv::core::grid::{GridSpec, SimGrid};
use rpcv::core::util::CallSpec;
use rpcv::simnet::{SimDuration, SimTime};
use rpcv::wire::Blob;
use rpcv::xw::ClientKey;

fn plan(n: usize, exec_secs: f64) -> Vec<CallSpec> {
    (0..n).map(|i| CallSpec::new("b", Blob::synthetic(4_000, i as u64), exec_secs, 128)).collect()
}

/// Client index → owning shard, exactly as every party computes it.
fn shard_of_client(i: usize, shards: usize) -> usize {
    ClientKey::new(i as u64 + 1, 1).shard_of(shards)
}

/// A 2-shard grid with clients hashing to both shards: every plan
/// completes, each shard's database holds exactly its own clients' jobs
/// (none of the other shard's), and nothing is re-executed or duplicated.
#[test]
fn sharded_grid_partitions_jobs_and_completes() {
    const SHARDS: usize = 2;
    const CLIENTS: usize = 4;
    const JOBS_EACH: usize = 6;
    let per_shard: Vec<Vec<usize>> = {
        let mut v = vec![Vec::new(); SHARDS];
        for i in 0..CLIENTS {
            v[shard_of_client(i, SHARDS)].push(i);
        }
        v
    };
    assert!(
        per_shard.iter().all(|c| !c.is_empty()),
        "fixture must exercise both shards, got {per_shard:?}"
    );

    let cfg = ProtocolConfig::confined().with_heartbeat(SimDuration::from_secs(1));
    let plans = (0..CLIENTS).map(|_| plan(JOBS_EACH, 2.0)).collect();
    let spec = GridSpec::confined(2, 6)
        .with_shards(SHARDS)
        .with_cfg(cfg)
        .with_client_plans(plans)
        .with_seed(0x51A2D);
    let mut g = SimGrid::build(spec);
    assert_eq!(g.coords.len(), SHARDS * 2, "two replicas per shard");

    g.run_until_done(SimTime::from_secs(1800)).expect("all plans complete on a sharded plane");
    for i in 0..CLIENTS {
        assert_eq!(g.client_results_at(i), JOBS_EACH, "client {i}");
    }

    // Shard-major layout: coordinator 2s is shard s's preferred primary.
    // A client addresses its own group's primary and nobody else (the
    // owner's `debug_assert!` in `greet_client` ran on every client frame
    // of this run), so in a fault-free run a replica sees no client frame
    // at all and a primary registers exactly its own clients' submissions,
    // first time: nothing was consumed by a wrong shard, and nothing is
    // left for a replay to repair.
    const CLIENT_FRAMES: [&str; 4] = ["ClientBeat", "Submit", "SubmitBatch", "ResultsRequest"];
    for (s, members) in per_shard.iter().enumerate() {
        let primary = g.coordinator(s * 2).expect("shard primary up");
        assert_eq!(primary.shard(), s);
        let db = primary.db();
        let owned_jobs = (members.len() * JOBS_EACH) as u64;
        assert_eq!(db.stats().jobs, owned_jobs, "shard {s} holds exactly its clients' jobs");
        for i in 0..CLIENTS {
            let expect = if members.contains(&i) { JOBS_EACH as u64 } else { 0 };
            assert_eq!(db.client_max(g.clients[i].0), expect, "client {i} on shard {s}");
        }
        assert_eq!(primary.metrics.reexecutions, 0, "shard {s}");
        assert_eq!(db.stats().duplicate_results, 0, "shard {s}");
        let rx = |c: usize, kind| g.coordinator(c).unwrap().rx_counts.get(kind).copied();
        assert_eq!(rx(s * 2, "Submit"), Some(owned_jobs), "shard {s}: one `Submit` per job");
        assert_eq!(rx(s * 2, "SubmitBatch"), None, "shard {s}: nothing to replay");
        for kind in CLIENT_FRAMES {
            assert_eq!(rx(s * 2 + 1, kind), None, "shard {s}'s replica received a {kind}");
        }
        for &i in members {
            let client = g.client_at(i).unwrap();
            assert_eq!(client.current_coordinator(), Some(g.coords[s * 2].0), "client {i}");
            let m = &client.metrics;
            assert_eq!((m.coordinator_switches, m.log_replays), (0, 0), "client {i}");
        }
    }

    // One execution per job grid-wide.
    let executed: u64 = (0..6).map(|i| g.server(i).unwrap().metrics.executed).sum();
    assert_eq!(executed, (CLIENTS * JOBS_EACH) as u64, "exactly one instance per job");
}

/// The isolation half: shard 0's primary dies mid-run and never returns.
/// Shard 0 fails over to its replica and finishes; shard 1 must not even
/// notice — its job set stays single-instance (zero re-executions, one
/// task per job) and its servers never re-run anything for it.
#[test]
fn shard_primary_crash_fails_over_only_that_shard() {
    const SHARDS: usize = 2;
    const CLIENTS: usize = 4;
    const JOBS_EACH: usize = 6;
    let per_shard: Vec<Vec<usize>> = {
        let mut v = vec![Vec::new(); SHARDS];
        for i in 0..CLIENTS {
            v[shard_of_client(i, SHARDS)].push(i);
        }
        v
    };
    assert!(per_shard.iter().all(|c| !c.is_empty()));

    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(4))
        .with_replication_period(SimDuration::from_secs(2));
    let plans = (0..CLIENTS).map(|_| plan(JOBS_EACH, 6.0)).collect();
    let spec = GridSpec::confined(2, 6)
        .with_shards(SHARDS)
        .with_cfg(cfg)
        .with_client_plans(plans)
        .with_seed(0xFA110);
    let mut g = SimGrid::build(spec);

    // Shard 0's preferred primary dies for good while executions from both
    // shards are in flight (6 s tasks, crash at 8 s).
    g.world.schedule_control(SimTime::from_secs(8), rpcv::simnet::Control::Crash(g.coords[0].1));

    g.run_until_done(SimTime::from_secs(1800)).expect("both shards complete; shard 0 via failover");
    for i in 0..CLIENTS {
        assert_eq!(g.client_results_at(i), JOBS_EACH, "client {i}");
    }

    // Shard 0's clients failed over inside their own group.
    for &i in &per_shard[0] {
        let switches = g.client_at(i).unwrap().metrics.coordinator_switches;
        assert!(switches >= 1, "shard-0 client {i} must switch to the successor");
    }
    let successor = g.coordinator(1).expect("shard 0 successor up");
    assert_eq!(successor.shard(), 0);
    assert_eq!(
        successor.db().stats().jobs,
        (per_shard[0].len() * JOBS_EACH) as u64,
        "the successor inherits exactly shard 0's job set"
    );

    // Shard 1 never noticed: one task instance per job, zero re-executions,
    // and its replica ring is intact.
    let other_jobs = (per_shard[1].len() * JOBS_EACH) as u64;
    for m in 0..2 {
        let c = g.coordinator(2 + m).expect("shard 1 member up");
        assert_eq!(c.shard(), 1);
        assert_eq!(c.metrics.reexecutions, 0, "zero cross-shard re-execution (member {m})");
        assert_eq!(c.db().stats().duplicate_results, 0);
    }
    let shard1 = g.coordinator(2).unwrap();
    assert_eq!(shard1.db().stats().jobs, other_jobs);
    assert_eq!(shard1.db().stats().tasks, other_jobs, "exactly one instance per shard-1 job");

    // Grid-wide execution count: every job ran at least once, and any
    // surplus is confined to shard 0's failover — shard 1's instance
    // table (one task per job, zero re-executions) already pins its half
    // to exactly-once, so the surplus is bounded by shard 0's instances.
    let executed: u64 = (0..6).map(|i| g.server(i).unwrap().metrics.executed).sum();
    let shard0_instances = g.coordinator(1).unwrap().db().stats().tasks;
    assert!(executed >= (CLIENTS * JOBS_EACH) as u64, "every job executes");
    assert!(
        executed <= other_jobs + shard0_instances,
        "surplus executions must map to shard-0 instances: {executed} run, \
         {other_jobs} shard-1 jobs + {shard0_instances} shard-0 instances"
    );
}

/// Degenerate case: `with_shards(1)` is the flat plane — a single group —
/// and behaves identically to an unsharded build of the same spec.
#[test]
fn one_shard_grid_is_the_flat_plane() {
    let run = |spec: GridSpec| {
        let mut g = SimGrid::build(spec);
        let done = g.run_until_done(SimTime::from_secs(1800));
        (done, g.client_results(), g.world.trace().hash(), g.world.events_processed())
    };
    let spec = || {
        GridSpec::confined(2, 4)
            .with_cfg(ProtocolConfig::confined().with_heartbeat(SimDuration::from_secs(1)))
            .with_plan(plan(8, 2.0))
            .with_seed(0xD15C)
    };
    let flat = run(spec());
    assert_eq!(flat, run(spec().with_shards(1)), "with_shards(1) must be bit-identical");
    assert_eq!((flat.0.is_some(), flat.1), (true, 8));
}
