//! Cross-crate end-to-end tests on the deterministic simulator, driven
//! through the `rpcv` facade exactly as a downstream user would.

use rpcv::core::config::ProtocolConfig;
use rpcv::core::grid::{GridSpec, SimGrid};
use rpcv::core::msg::Msg;
use rpcv::core::util::CallSpec;
use rpcv::simnet::{Control, SimDuration, SimTime};
use rpcv::wire::Blob;
use rpcv::workload::{AlcatelApp, FaultPlan, SyntheticBench};

#[test]
fn alcatel_mini_run_is_deterministic_end_to_end() {
    let run = |seed: u64| {
        let app = AlcatelApp { tasks: 40, seed: 5 };
        let spec = GridSpec::real_life(2, 16).with_seed(seed).with_plan(app.plan());
        let mut grid = SimGrid::build(spec);
        let done = grid.run_until_done(SimTime::from_secs(3600 * 8)).expect("completes");
        (done, grid.world.trace().hash(), grid.client_results())
    };
    let (d1, h1, r1) = run(3);
    let (d2, h2, r2) = run(3);
    assert_eq!(d1, d2);
    assert_eq!(h1, h2);
    assert_eq!(r1, 40);
    assert_eq!(r2, 40);
    let (_, h3, _) = run(4);
    assert_ne!(h1, h3, "different seeds must diverge");
}

#[test]
fn tolerates_any_fault_combination() {
    // The paper's strongest claim: "It tolerates any fault combination of
    // its system components" — crash client, coordinators and servers in
    // overlapping windows; the run must still complete.
    let bench = SyntheticBench::fig7();
    let spec = GridSpec::confined(2, 8).with_seed(99).with_plan(bench.plan());
    let mut grid = SimGrid::build(spec);
    let c0 = grid.coords[0].1;
    let c1 = grid.coords[1].1;
    let s0 = grid.servers[0].1;
    let s3 = grid.servers[3].1;
    let client = grid.client_node;
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_secs(12), c0)
        .crash_at(SimTime::from_secs(14), s0)
        .crash_at(SimTime::from_secs(16), client)
        .restart_at(SimTime::from_secs(30), client)
        .crash_at(SimTime::from_secs(40), c1)
        .restart_at(SimTime::from_secs(55), c0)
        .crash_at(SimTime::from_secs(60), s3)
        .restart_at(SimTime::from_secs(75), s0)
        .restart_at(SimTime::from_secs(90), s3);
    plan.apply(&mut grid.world);
    grid.run_until_done(SimTime::from_secs(3600 * 2))
        .expect("must complete through overlapping faults of every component kind");
    assert_eq!(grid.client_results(), 96);
}

#[test]
fn progress_condition_fails_closed_when_no_path() {
    // Complement of Fig. 11: when *no* path exists between client and
    // servers, nothing completes — and when the path is restored, the run
    // finishes (progress condition, both directions).
    let plan: Vec<CallSpec> =
        (0..4).map(|i| CallSpec::new("b", Blob::synthetic(100, i), 1.0, 32)).collect();
    let spec = GridSpec::confined(1, 2).with_plan(plan);
    let mut grid = SimGrid::build(spec);
    let c0 = grid.coords[0].1;
    let client = grid.client_node;
    grid.world.net_mut().block_bidir(client, c0);
    for &(_, s) in &grid.servers.clone() {
        grid.world.net_mut().block_bidir(s, c0);
    }
    grid.world.run_until(SimTime::from_secs(300));
    assert_eq!(grid.client_results(), 0, "no path ⇒ no progress");
    grid.world.net_mut().unblock_bidir(client, c0);
    for &(_, s) in &grid.servers.clone() {
        grid.world.net_mut().unblock_bidir(s, c0);
    }
    grid.run_until_done(SimTime::from_secs(3600)).expect("path restored ⇒ completes");
}

#[test]
fn results_survive_client_disconnection() {
    // §2.2: "we consider client disconnection as a normal event ... we let
    // the execution continue on the server side."  The client goes away
    // mid-run; executions continue; a later incarnation collects
    // everything.
    let plan: Vec<CallSpec> =
        (0..6).map(|i| CallSpec::new("b", Blob::synthetic(200, i), 20.0, 64)).collect();
    let cfg = ProtocolConfig::confined();
    let spec = GridSpec::confined(1, 3).with_cfg(cfg).with_plan(plan);
    let mut grid = SimGrid::build(spec);
    let client = grid.client_node;
    // Disconnect the client while tasks are executing; reconnect late.
    grid.world.schedule_control(SimTime::from_secs(5), Control::Crash(client));
    grid.world.schedule_control(SimTime::from_secs(120), Control::Restart(client));
    grid.world.run_until(SimTime::from_secs(100));
    // Executions continued server-side while the client was gone.
    let archived = grid.coordinator(0).unwrap().db().archived_count();
    assert!(archived >= 4, "server side must have progressed, got {archived}");
    grid.run_until_done(SimTime::from_secs(3600)).expect("reconnected client completes");
    assert_eq!(grid.client_results(), 6);
}

#[test]
fn garbage_collection_frees_collected_archives() {
    let plan: Vec<CallSpec> =
        (0..5).map(|i| CallSpec::new("b", Blob::synthetic(100, i), 0.5, 4096)).collect();
    let spec = GridSpec::confined(1, 2).with_plan(plan);
    let mut grid = SimGrid::build(spec);
    grid.run_until_done(SimTime::from_secs(600)).expect("completes");
    // Let the collected-acks ride a few beats back to the coordinator.
    grid.world.run_for(SimDuration::from_secs(30));
    let node = grid.coords[0].1;
    let freed = {
        let world = &mut grid.world;
        let coord = world
            .actor_mut::<rpcv::core::coordinator::CoordinatorActor>(node)
            .expect("coordinator up");
        coord.gc_now()
    };
    assert!(freed > 0, "collected archives must be reclaimable, freed {freed}");
}

#[test]
fn replica_never_reexecutes_while_primary_serves() {
    // Recovery ownership: re-execution serves *collection*, so only the
    // coordinator a client actually talks to may re-execute that
    // client's overdue missing-archive jobs.  A passive replica learns
    // of every job through the feed but must park its watches instead
    // (at scale the un-gated scan re-executed the whole backlog — the
    // "fault-free storm" the scale sweep's residency/flatness gates now
    // pin down).  Hold finished work uncollected well past
    // reexec_horizon (missing_archive_timeout = 60s confined) by taking
    // the client away: the quiet grid must dispatch exactly one
    // instance per job and re-execute nothing anywhere.
    let jobs = 40;
    let plan: Vec<CallSpec> =
        (0..jobs).map(|i| CallSpec::new("b", Blob::synthetic(100, i as u64), 0.5, 64)).collect();
    let spec = GridSpec::confined(2, 4).with_seed(7).with_plan(plan);
    let mut grid = SimGrid::build(spec);
    let client = grid.client_node;
    grid.world.schedule_control(SimTime::from_secs(5), Control::Crash(client));
    grid.world.schedule_control(SimTime::from_secs(400), Control::Restart(client));
    grid.run_until_done(SimTime::from_secs(3600)).expect("completes");
    grid.world.run_for(SimDuration::from_secs(120));
    assert_eq!(grid.client_results(), jobs);
    let tasks = grid.coordinator(0).unwrap().db().stats().tasks;
    assert_eq!(tasks as usize, jobs, "fault-free run must dispatch exactly one instance per job");
    for i in 0..2 {
        let c = grid.coordinator(i).unwrap();
        assert_eq!(c.metrics.reexecutions, 0, "coordinator {i} re-executed without any fault");
    }
}

#[test]
fn replica_feed_carries_no_echo_while_primary_serves() {
    // A row is never sent to the peer it was learned from.  In a
    // fault-free 2-coordinator run the replica does no work of its own:
    // every row it holds the primary taught it, so its rounds back — which
    // still leave every period, for liveness and for the acked head its
    // own retention waits on — must be all but empty.  (Not exactly empty:
    // its first non-empty round still has base 0, and a from-zero feed is
    // complete by definition — hence arrivals spread over many periods.)
    // Before provenance the replica mirrored the primary's feed row for
    // row.
    let jobs = 400;
    let mut grid = SimGrid::build(GridSpec::confined(2, 4).with_seed(7));
    for i in 0..jobs {
        grid.world.inject(
            SimTime::from_millis(250 * i),
            grid.client_node,
            Msg::ApiSubmit {
                service: "b".into(),
                params: Blob::synthetic(100, i),
                exec_cost: 0.5,
                result_size: 64,
                replication: 1,
                work_units: 1,
            },
        );
    }
    grid.world.run_until(SimTime::from_secs(150));
    assert_eq!(grid.client_results() as u64, jobs);
    let rounds = |i: usize| {
        let rounds = &grid.coordinator(i).unwrap().metrics.repl_rounds;
        (rounds.len(), rounds.iter().map(|r| r.records).sum::<u64>())
    };
    let ((primary_rounds, primary_rows), (replica_rounds, replica_rows)) = (rounds(0), rounds(1));
    assert!(primary_rows >= 3 * jobs, "job, task and ack rows replicate: {primary_rows}");
    assert_eq!(primary_rounds, replica_rounds, "both members keep the ring's cadence");
    assert!(
        replica_rows * 20 <= primary_rows,
        "the replica echoed {replica_rows} rows against the primary's {primary_rows} ({replica_rounds} rounds)"
    );
}

/// An open-loop cell for the archive-path gates: 2 coordinators (100 µs
/// database, as the scale bench runs them, so the archive disk — not the
/// modelled MySQL — is the resource under test), `servers` servers, 16
/// clients, `rate` jobs/s of 0.2 s calls offered for 10 s on a fixed
/// schedule.  Runs until every result is held.
fn offered_cell(servers: usize, rate: u64) -> (SimGrid, u64) {
    let mut spec = GridSpec::confined(2, servers).with_seed(15).with_clients(16);
    spec.coord_host = spec.coord_host.with_db_per_op(SimDuration::from_micros(100));
    let mut grid = SimGrid::build(spec);
    let jobs = rate * 10;
    for i in 0..jobs {
        grid.world.inject(
            SimTime::from_secs(2) + SimDuration::from_micros(i * 1_000_000 / rate),
            grid.clients[i as usize % 16].1,
            Msg::ApiSubmit {
                service: "b".into(),
                params: Blob::synthetic(256, i),
                exec_cost: 0.2,
                result_size: 64,
                replication: 1,
                work_units: 1,
            },
        );
    }
    let held = |g: &SimGrid| (0..16).map(|c| g.client_results_at(c) as u64).sum::<u64>();
    while held(&grid) < jobs && grid.world.now() < SimTime::from_secs(120) {
        grid.world.run_for(SimDuration::from_millis(500));
    }
    assert_eq!(held(&grid), jobs, "every offered job is delivered");
    (grid, jobs)
}

#[test]
fn archive_writes_coalesce_past_the_old_knee() {
    // The archive store is a segment log on a group-committing disk.  At
    // twice the rate one op per archive could sustain (1 / 5 ms = 200/s)
    // archives share ops, every ack still waits for its own write, and
    // collection keeps up.
    let (grid, jobs) = offered_cell(400, 400);
    let primary = grid.coordinator(0).unwrap();
    let m = &primary.metrics;
    assert_eq!((m.archive_writes, primary.db().archived_count()), (jobs, jobs));
    assert!(
        m.archive_write_ops * 2 < jobs,
        "{} disk ops for {jobs} archives: the write queue did not coalesce",
        m.archive_write_ops
    );
    // A `TaskDoneAck` is deferred to its own write's return, and no write
    // returns before the seek of the op it rode (4 ms ∈ [2^21, 2^22) ns) —
    // joining a batch never lets an ack out early.
    assert_eq!(m.archive_write_wait.count(), jobs);
    assert!(m.archive_write_wait.quantile_nanos(0.0) >= 1 << 21);
    // Submit → held is two beats (dispatch, catalog) plus service; an
    // archive backlog would add its drain time (21 s before group commit).
    for c in 0..16 {
        let cm = &grid.client_at(c).unwrap().metrics;
        for (seq, &held) in &cm.results_received {
            let latency = held.since(cm.submissions[seq].requested_at);
            assert!(latency < SimDuration::from_secs(12), "client {c} seq {seq} took {latency}");
        }
    }
    for i in 0..2 {
        let c = grid.coordinator(i).unwrap();
        assert_eq!(c.metrics.reexecutions, 0, "coordinator {i} re-executed");
        assert_eq!(c.db().stats().tasks, jobs, "one instance per job at coordinator {i}");
    }

    // The idle path is unchanged: one server finishes a call every 0.2 s
    // at best, so every archive finds the disk idle and opens its own op.
    let (grid, jobs) = offered_cell(1, 4);
    let m = &grid.coordinator(0).unwrap().metrics;
    assert_eq!((m.archive_writes, m.archive_write_ops), (jobs, jobs));
}

#[test]
fn wrong_suspicion_is_survivable() {
    // §2.2: wrong negatives (alive components suspected) cannot be
    // avoided.  Partition the preferred coordinator long enough for
    // everyone to suspect it, then heal: the system must reconverge
    // without losing calls even though the "dead" coordinator never died.
    let plan: Vec<CallSpec> =
        (0..8).map(|i| CallSpec::new("b", Blob::synthetic(100, i), 5.0, 64)).collect();
    let spec = GridSpec::confined(2, 3).with_plan(plan);
    let mut grid = SimGrid::build(spec);
    let c0 = grid.coords[0].1;
    let client = grid.client_node;
    let servers: Vec<_> = grid.servers.iter().map(|&(_, n)| n).collect();
    // Cut everyone off from c0 between t=5 and t=120 (wrong suspicion).
    grid.world.schedule_control(
        SimTime::from_secs(5),
        Control::Block { from: client, to: c0, bidir: true },
    );
    for &s in &servers {
        grid.world.schedule_control(
            SimTime::from_secs(5),
            Control::Block { from: s, to: c0, bidir: true },
        );
        grid.world.schedule_control(
            SimTime::from_secs(120),
            Control::Unblock { from: s, to: c0, bidir: true },
        );
    }
    grid.world.schedule_control(
        SimTime::from_secs(120),
        Control::Unblock { from: client, to: c0, bidir: true },
    );
    grid.run_until_done(SimTime::from_secs(3600)).expect("survives wrong suspicion");
    assert_eq!(grid.client_results(), 8);
}

#[test]
fn servers_follow_relayed_work_to_the_clients_coordinator() {
    // The split fleet: the boot primary is cut off from the *clients* only,
    // long enough for them to suspect it and settle on the next coordinator;
    // the servers never lose it and stay.  From then on every job is
    // registered at the clients' coordinator, replicated two ring hops to
    // the servers' one, dispatched and finished there and pulled back —
    // until the servers carry the relayed work home: a finished task
    // attaches its server to the coordinator that minted it.
    const JOB: u64 = 4; // seconds per call
    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(5))
        .with_replication_period(SimDuration::from_secs(1));
    let (n_servers, n_clients) = (12, 4);
    let spec = GridSpec::confined(3, n_servers).with_seed(16).with_cfg(cfg).with_clients(n_clients);
    let mut grid = SimGrid::build(spec);
    let boot = grid.coords[0].1;
    for &(_, client) in &grid.clients.clone() {
        let cut = Control::Block { from: client, to: boot, bidir: true };
        let heal = Control::Unblock { from: client, to: boot, bidir: true };
        grid.world.schedule_control(SimTime::from_millis(500), cut);
        grid.world.schedule_control(SimTime::from_secs(20), heal);
    }
    let mut submitted = 0u64;
    let mut submit = |grid: &mut SimGrid, at: SimTime| {
        grid.world.inject(
            at,
            grid.clients[submitted as usize % n_clients].1,
            Msg::ApiSubmit {
                service: "b".into(),
                params: Blob::synthetic(256, submitted),
                exec_cost: JOB as f64,
                result_size: 64,
                replication: 1,
                work_units: 1,
            },
        );
        submitted += 1;
    };
    // One relayed task per server, a second wave queued behind it.
    let burst = SimTime::from_secs(10);
    for i in 0..2 * n_servers as u64 {
        submit(&mut grid, burst + SimDuration::from_millis(40 * i));
    }
    let beats = |g: &SimGrid| -> Vec<u64> {
        (0..3)
            .map(|i| g.coordinator(i).unwrap().rx_counts.get("ServerBeat").copied().unwrap_or(0))
            .collect()
    };
    let executed = |g: &SimGrid| -> u64 {
        (0..n_servers).map(|i| g.server(i).unwrap().metrics.executed).sum()
    };
    let held = |g: &SimGrid| -> u64 { (0..n_clients).map(|c| g.client_results_at(c) as u64).sum() };

    // The clients sit on coordinator 2 and every server still on 1.
    grid.world.run_until(burst);
    let at_burst = beats(&grid);
    assert_eq!((at_burst[1], at_burst[2]), (0, 0), "no server has left the boot primary yet");

    // Three job lengths later the fleet is home.
    let settled = burst + SimDuration::from_secs(3 * JOB);
    grid.world.run_until(settled);
    let at_settled = beats(&grid);
    let executed_at_settled = executed(&grid);
    let relayed: Vec<u64> =
        (0..3).map(|i| grid.coordinator(i).unwrap().metrics.relayed_dispatches).collect();
    assert!(relayed[0] > 0, "the boot primary relayed the first wave");

    // A steady second phase on the settled grid.
    let phase2 = 60;
    for i in 0..phase2 {
        submit(&mut grid, settled + SimDuration::from_millis(500 * i));
    }
    let end = settled + SimDuration::from_secs(30 + 4 * JOB);
    grid.world.run_until(end);
    assert_eq!(held(&grid), submitted, "every call is delivered");
    let at_end = beats(&grid);
    let on_home = at_end[1] - at_settled[1];
    let total: u64 = (0..3).map(|i| at_end[i] - at_settled[i]).sum();
    assert!(
        on_home * 10 >= total * 9,
        "{on_home} of {total} server beats reached the clients' coordinator ({at_settled:?} → {at_end:?})"
    );
    // Nothing is dispatched twice once the fleet is together: one
    // execution per call, and no relay.
    let in_flight_at_settled = (2 * n_servers as u64) - executed_at_settled;
    assert_eq!(executed(&grid) - executed_at_settled, phase2 + in_flight_at_settled);
    for (i, &relayed_at_settled) in relayed.iter().enumerate() {
        let c = grid.coordinator(i).unwrap();
        assert_eq!(c.metrics.reexecutions, 0, "coordinator {i} re-executed");
        assert_eq!(
            c.metrics.relayed_dispatches, relayed_at_settled,
            "coordinator {i} relayed after settling"
        );
        assert_eq!(c.db().stats().tasks, submitted, "one instance per call at coordinator {i}");
    }
    let rehomes: u64 = (0..n_servers).map(|i| grid.server(i).unwrap().metrics.rehomes).sum();
    let switches: u64 =
        (0..n_servers).map(|i| grid.server(i).unwrap().metrics.coordinator_switches).sum();
    assert_eq!(
        (rehomes, switches),
        (n_servers as u64, 0),
        "each server moved once, none by suspicion"
    );
    // The split is visible live: both counters ride the telemetry export.
    let snap = grid.telemetry();
    assert_eq!(snap.counter("server.rehomes"), rehomes);
    assert_eq!(snap.counter("server.coordinator_switches"), 0);
    assert_eq!(snap.counter("coord.relayed_dispatches"), relayed.iter().sum::<u64>());
}

/// What a protocol pin compares: the trace hash, the kernel's event count
/// and the frames handed to the network.
fn pin(grid: &SimGrid) -> (u64, u64, u64) {
    (grid.world.trace().hash(), grid.world.events_processed(), grid.world.stats().sent)
}

#[test]
fn protocol_traces_are_pinned() {
    // The kernel's golden trace (`world_tests.rs`) drives two toy actors;
    // every other hash in the suite is compared run-vs-run.  These three
    // cells pin what the *protocol* does — every send, timer and note of
    // the three actors, in order — against constants, so a refactor of
    // client/coordinator/server state that moves any of it fails here.  A
    // constant that has to move is re-captured in the change that moves it,
    // with the reason in CHANGES.md.

    // (a) Confined cluster, one server lost for good mid-run (the
    // `grid_runs_are_deterministic` cell of `protocol_tests.rs`).
    let calls = |n: u64, secs: f64| -> Vec<CallSpec> {
        (0..n).map(|i| CallSpec::new("bench", Blob::synthetic(1000, i), secs, 100)).collect()
    };
    let mut grid = SimGrid::build(GridSpec::confined(2, 4).with_seed(7).with_plan(calls(10, 2.0)));
    let victim = grid.servers[1].1;
    grid.world.schedule_control(SimTime::from_secs(5), Control::Crash(victim));
    grid.run_until_done(SimTime::from_secs(2000)).expect("(a) completes");
    assert_eq!(pin(&grid), (0x9db9_17bf_3bc7_cb3d, 354, 111), "(a) confined + server crash");

    // (b) Internet deployment running the Alcatel application under
    // Poisson server churn, the primary coordinator down for ten minutes.
    let app = AlcatelApp { tasks: 40, seed: 5 };
    let mut grid = SimGrid::build(GridSpec::real_life(2, 16).with_seed(3).with_plan(app.plan()));
    let servers: Vec<_> = grid.servers.iter().map(|&(_, n)| n).collect();
    let primary = grid.coords[0].1;
    FaultPlan::new()
        .poisson(
            &servers,
            2.0,
            SimDuration::from_secs(45),
            SimTime::ZERO,
            SimTime::from_secs(3600 * 4),
            11,
        )
        .crash_at(SimTime::from_secs(600), primary)
        .restart_at(SimTime::from_secs(1200), primary)
        .apply(&mut grid.world);
    grid.run_until_done(SimTime::from_secs(3600 * 8)).expect("(b) completes");
    assert_eq!(grid.client_results(), 40);
    assert_eq!(
        pin(&grid),
        (0xcde4_1cbc_555f_f276, 308_374, 117_550),
        "(b) real-life + churn + coordinator restart"
    );

    // (c) Sharded plane (2 shards × 2 coordinators, 8 servers, 6 clients),
    // multi-unit calls checkpointed every 5 s, one server's disk wiped
    // while it is down (its task resumes elsewhere from the uploaded mark),
    // another restarted with its disk (it resumes its own snapshot).
    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_checkpointing(SimDuration::from_secs(5));
    let plans = (0..6u64)
        .map(|c| {
            (0..4u64)
                .map(|i| {
                    CallSpec::new("b", Blob::synthetic(2000, c * 10 + i), 20.0, 256)
                        .with_work_units(10)
                })
                .collect()
        })
        .collect();
    let spec = GridSpec::confined(2, 8)
        .with_shards(2)
        .with_cfg(cfg)
        .with_client_plans(plans)
        .with_seed(19);
    let mut grid = SimGrid::build(spec);
    let wiped = grid.servers[2].1;
    grid.world.run_until(SimTime::from_secs(12));
    grid.world.crash_now(wiped);
    grid.world.wipe_durable(wiped);
    grid.world.schedule_control(SimTime::from_secs(20), Control::Restart(wiped));
    let bounced = grid.servers[5].1;
    grid.world.schedule_control(SimTime::from_secs(14), Control::Crash(bounced));
    grid.world.schedule_control(SimTime::from_secs(16), Control::Restart(bounced));
    grid.run_until_done(SimTime::from_secs(3600)).expect("(c) completes");
    assert_eq!((0..6).map(|c| grid.client_results_at(c)).sum::<usize>(), 24);
    assert_eq!(
        pin(&grid),
        (0xc906_af2f_b6f2_5d1a, 10_158, 3_732),
        "(c) sharded + checkpoints + wiped server"
    );
}

#[test]
fn node_resident_state_tracks_live_work_not_lifetime_jobs() {
    // What a volunteer host keeps per call — beside its bounded log — lives
    // as long as the call is in flight.  Ten times the jobs through the
    // same fault-free grid leave every node holding exactly what the
    // shorter run left: nothing.
    let drained = |jobs: u64| -> Vec<usize> {
        let plan = (0..jobs).map(|i| CallSpec::new("b", Blob::synthetic(100, i), 0.5, 64));
        let spec = GridSpec::confined(2, 4).with_seed(7).with_plan(plan.collect());
        let mut grid = SimGrid::build(spec);
        grid.run_until_done(SimTime::from_secs(3600)).expect("completes");
        grid.world.run_for(SimDuration::from_secs(60));
        let servers = (0..4).map(|i| grid.server(i).unwrap().resident_records());
        let coords = (0..2).map(|i| grid.coordinator(i).unwrap().resident_records());
        servers.chain(coords).chain([grid.client().unwrap().resident_records()]).collect()
    };
    assert_eq!(drained(20), [0; 7]);
    assert_eq!(drained(200), [0; 7]);
}

#[test]
fn every_unacked_result_has_exactly_one_offer_slot() {
    // `ServerActor::resident_records` asserts (debug builds) that delivery
    // records, offer slots and the unacknowledged log agree; read it where
    // the three are rebuilt or torn down together.  The coordinator's acks
    // are cut off, so both servers pile up delivered-but-unacknowledged
    // archives; one of them restarts from its disk on top.
    let plan = (0..6).map(|i| CallSpec::new("b", Blob::synthetic(100, i), 2.0, 64)).collect();
    let cfg = ProtocolConfig::confined().with_heartbeat(SimDuration::from_secs(1));
    let mut grid = SimGrid::build(GridSpec::confined(1, 2).with_cfg(cfg).with_plan(plan));
    let coord = grid.coords[0].1;
    let nodes: Vec<_> = grid.servers.iter().map(|&(_, n)| n).collect();
    for &to in &nodes {
        grid.world.schedule_control(
            SimTime::from_millis(2500),
            Control::Block { from: coord, to, bidir: false },
        );
        grid.world.schedule_control(
            SimTime::from_secs(20),
            Control::Unblock { from: coord, to, bidir: false },
        );
    }
    grid.world.schedule_control(SimTime::from_secs(10), Control::Crash(nodes[0]));
    grid.world.schedule_control(SimTime::from_secs(12), Control::Restart(nodes[0]));
    // Restored: one record and one slot per surviving archive, nothing else
    // (what was running or completing died with the process).
    grid.world.run_until(SimTime::from_secs(13));
    let restored = grid.server(0).unwrap();
    assert!(
        restored.unacked_results() > 0,
        "the outage stranded an archive on the restarted server"
    );
    assert_eq!(restored.resident_records(), 2 * restored.unacked_results());
    // Healed: every offer comes back `ArchivesSettled` (the coordinator
    // stored the archives all along) and the records go with the entries.
    grid.run_until_done(SimTime::from_secs(600)).expect("completes");
    grid.world.run_for(SimDuration::from_secs(30));
    for i in 0..2 {
        let server = grid.server(i).unwrap();
        assert_eq!((server.unacked_results(), server.resident_records()), (0, 0), "server {i}");
    }
}
