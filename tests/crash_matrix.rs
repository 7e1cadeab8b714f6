//! The §5.1 synchronization-cost crash matrix, as behaviour tests.
//!
//! The paper analyzes what each logging strategy costs after each crash
//! combination: "If only one of the components has crashed, the
//! synchronization times for the three protocols are identical ... When
//! both have crashed, all logs have been lost in the optimistic protocol.
//! Thus, the application has to re-execute all the RPC submissions ...
//! This is not the case for pessimistic logging where logs can be sent
//! immediately to the coordinator."

use rpcv::core::config::ProtocolConfig;
use rpcv::core::grid::{GridSpec, SimGrid};
use rpcv::core::util::CallSpec;
use rpcv::log::LogStrategy;
use rpcv::simnet::{SimDuration, SimTime};
use rpcv::wire::Blob;

fn plan(n: usize) -> Vec<CallSpec> {
    (0..n).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i as u64), 3.0, 128)).collect()
}

fn grid(strategy: LogStrategy) -> SimGrid {
    let cfg = ProtocolConfig::confined()
        .with_log_strategy(strategy)
        .with_heartbeat(SimDuration::from_secs(1));
    SimGrid::build(GridSpec::confined(1, 4).with_cfg(cfg).with_plan(plan(8)))
}

/// Client crash alone: every strategy recovers every call (durable-log
/// replay plus coordinator-side registration make the strategies
/// equivalent, exactly as the paper states).
#[test]
fn client_crash_alone_recovers_under_every_strategy() {
    for strategy in LogStrategy::ALL {
        let mut g = grid(strategy);
        let client = g.client_node;
        g.world.schedule_control(SimTime::from_secs(4), rpcv::simnet::Control::Crash(client));
        g.world.schedule_control(SimTime::from_secs(8), rpcv::simnet::Control::Restart(client));
        g.run_until_done(SimTime::from_secs(1800))
            .unwrap_or_else(|| panic!("{} must recover from client crash", strategy.name()));
        assert_eq!(g.client_results(), 8, "{}", strategy.name());
    }
}

/// Coordinator crash alone (durable database): identical outcome for all
/// three strategies — "client logs can be lost on crash only".
#[test]
fn coordinator_crash_alone_recovers_under_every_strategy() {
    for strategy in LogStrategy::ALL {
        let mut g = grid(strategy);
        let c0 = g.coords[0].1;
        g.world.schedule_control(SimTime::from_secs(4), rpcv::simnet::Control::Crash(c0));
        g.world.schedule_control(SimTime::from_secs(10), rpcv::simnet::Control::Restart(c0));
        g.run_until_done(SimTime::from_secs(1800))
            .unwrap_or_else(|| panic!("{} must recover from coordinator crash", strategy.name()));
        assert_eq!(g.client_results(), 8, "{}", strategy.name());
    }
}

/// The double crash with a *wiped* coordinator: pessimistic client logs
/// resend everything; the optimistic client whose log tail was still in
/// the write-back cache loses those submissions — the paper's "the
/// application has to re-execute all the RPC submissions" case, which our
/// plan-driven client performs automatically (re-submission from the
/// application plan).
#[test]
fn double_crash_pessimistic_resends_from_logs() {
    for strategy in [LogStrategy::BlockingPessimistic, LogStrategy::NonBlockingPessimistic] {
        let mut g = grid(strategy);
        let client = g.client_node;
        let c0 = g.coords[0].1;
        // Crash both right after the submissions; wipe the coordinator so
        // only the client's durable log can rebuild the state.
        g.world.run_until(SimTime::from_secs(3));
        g.world.crash_now(client);
        g.world.crash_now(c0);
        g.world.wipe_durable(c0);
        g.world.restart_now(client);
        g.world.restart_now(c0);
        g.run_until_done(SimTime::from_secs(1800))
            .unwrap_or_else(|| panic!("{} must survive the double crash", strategy.name()));
        assert_eq!(g.client_results(), 8, "{}", strategy.name());
        // The durable log replay means no duplicate registrations either.
        let coord = g.coordinator(0).unwrap();
        assert_eq!(coord.db().stats().jobs, 8, "{}", strategy.name());
    }
}

/// Optimistic double crash: submissions still in the cache die with the
/// client; the *application plan* re-submits them (at-least-once), so the
/// run completes but with re-executed submissions — measurably more work.
#[test]
fn double_crash_optimistic_reexecutes_submissions() {
    let mut g = grid(LogStrategy::Optimistic);
    let client = g.client_node;
    let c0 = g.coords[0].1;
    g.world.run_until(SimTime::from_secs(3));
    g.world.crash_now(client);
    g.world.crash_now(c0);
    g.world.wipe_durable(c0);
    g.world.restart_now(client);
    g.world.restart_now(c0);
    g.run_until_done(SimTime::from_secs(1800)).expect("optimistic still completes");
    assert_eq!(g.client_results(), 8);
}

/// Complete-knowledge replication: the primary dies *after* the client
/// durably collected every result but *before* any GC ran.  The promoted
/// successor learned "finished without archive" for all jobs through
/// replication — without collected marks in the delta it would schedule
/// them all for pointless re-execution once the missing-archive horizon
/// passes (the PR-3 "Collected is local knowledge" leak).  With the
/// collection acknowledgements riding the same delta, it must re-execute
/// zero jobs and re-acquire zero archives.
#[test]
fn failover_after_collection_never_reexecutes_collected_jobs() {
    let mut cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(5))
        // One long replication period: the whole submit→execute→collect
        // cycle fits before the first round, so the successor learns
        // "finished" and "collected" from the very same delta.
        .with_replication_period(SimDuration::from_secs(20));
    // A short missing-archive timeout so a re-execution leak would fire
    // well inside the test horizon (the effective horizon still scales to
    // 3 replication periods = 60 s).
    cfg.missing_archive_timeout = SimDuration::from_secs(10);
    let plan: Vec<CallSpec> =
        (0..8).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i), 2.0, 128)).collect();
    let mut g = SimGrid::build(GridSpec::confined(2, 4).with_cfg(cfg).with_plan(plan));

    let done = g.run_until_done(SimTime::from_secs(1800)).expect("workload completes");
    assert!(
        done < SimTime::from_secs(18),
        "workload must finish before the first replication round, done at {done:?}"
    );
    // Let the collection acks land on the primary (beats) and the t=20s
    // replication round carry the complete knowledge to the successor.
    g.world.run_until(SimTime::from_secs(25));
    let client_key = g.client_key;
    let jobs: Vec<_> = (1..=8u64).map(|seq| rpcv::xw::JobKey::new(client_key, seq)).collect();
    {
        let successor = g.coordinator(1).expect("successor up");
        assert!(
            successor.metrics.collected_marks_applied >= 8,
            "collection acks must arrive through the replication delta, got {}",
            successor.metrics.collected_marks_applied
        );
        for job in &jobs {
            assert!(successor.db().has_collected_knowledge(job), "collected {job:?} replicated");
            assert!(!successor.db().wants_archive(job), "no archive re-acquisition for {job:?}");
        }
    }
    let tasks_before = g.coordinator(1).unwrap().db().stats().tasks;

    // The primary dies for good — before any GC ever ran (its archives die
    // with it).  The successor inherits the grid.
    g.world.crash_now(g.coords[0].1);
    g.world.run_until(SimTime::from_secs(150)); // well past the 60 s re-execution horizon

    let successor = g.coordinator(1).expect("successor up");
    assert_eq!(successor.metrics.reexecutions, 0, "delivered work must never be re-executed");
    let stats = successor.db().stats();
    assert_eq!(stats.tasks, tasks_before, "no new instances dispatched after failover");
    assert_eq!(stats.pending, 0);
    assert_eq!(stats.ongoing, 0);
    // The client's results are untouched by the failover.
    assert_eq!(g.client_results(), 8);
}

/// The client's own word settles the watch list.  The successor learns
/// "finished" from the t=20 s delta, one beat before the client tells the
/// primary "collected" — so it watches four archives it neither holds nor
/// knows delivered.  The primary dies with that knowledge; the client fails
/// over and re-announces what it holds.  That re-ack takes the jobs out of
/// the database's missing set *and* off the watch list at once: an entry
/// left behind would fire `reexecute_job` a horizon later (t ≈ 80 s) —
/// refused, the job is `Collected`, but one database op each, for every
/// result re-announced after every failover.
#[test]
fn client_reack_after_failover_settles_the_successors_watch_list() {
    let mut cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(5))
        .with_replication_period(SimDuration::from_secs(20));
    cfg.missing_archive_timeout = SimDuration::from_secs(10);
    // One wave, finishing ~0.7 s before the first replication round.
    let plan: Vec<CallSpec> =
        (0..4).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i), 18.3, 128)).collect();
    let mut g = SimGrid::build(GridSpec::confined(2, 4).with_cfg(cfg).with_plan(plan));

    g.world.run_until(SimTime::from_millis(20_500));
    let successor = g.coordinator(1).expect("successor up");
    assert_eq!(successor.db().finished_count(), 4, "the delta taught the successor the results");
    assert_eq!(successor.metrics.collected_marks_applied, 0, "but not their collection");
    assert_eq!(successor.resident_records(), 8, "four watches, each in the ordered view");

    g.world.run_until(SimTime::from_secs(30));
    assert_eq!(g.client_results(), 4);
    assert_eq!(g.coordinator(0).unwrap().db().stats().collected, 0, "archives retained, flagged");
    let tasks_before = g.coordinator(1).unwrap().db().stats().tasks;
    g.world.crash_now(g.coords[0].1);

    // Suspicion (5 s), the switch, one sync to learn the new incarnation,
    // one beat to re-announce — long before the successor's own t=40 s
    // round could have asked a live primary for the archives.
    g.world.run_until(SimTime::from_secs(39));
    let successor = g.coordinator(1).expect("successor up");
    assert_eq!(successor.db().stats().collected, 4, "the re-ack is terminal knowledge");
    assert_eq!(successor.resident_records(), 0, "and nothing stays watched");

    g.world.run_until(SimTime::from_secs(150));
    let successor = g.coordinator(1).expect("successor up");
    assert_eq!(successor.metrics.reexecutions, 0);
    assert_eq!(successor.db().stats().tasks, tasks_before, "no instance minted after failover");
}

/// Pruned-feed failover: the successor is cut off before the first
/// replication round, so the primary — seeing no live successor — runs
/// its delivered prefix through retention and its delta feed develops a
/// floor.  After the heal the successor's base (0) is below that floor:
/// the round must be served from zero, retired watermarks included, and
/// the successor bootstrapped from `{from-zero feed, tail}` must
/// re-execute zero collected jobs when the primary then dies for good.
#[test]
fn pruned_feed_successor_bootstraps_via_snapshot() {
    let mut cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(4))
        .with_replication_period(SimDuration::from_secs(4));
    cfg.coord_retry = SimDuration::from_secs(10);
    cfg.missing_archive_timeout = SimDuration::from_secs(10);
    let plan: Vec<CallSpec> =
        (0..8).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i), 2.0, 128)).collect();
    let mut g = SimGrid::build(GridSpec::confined(2, 4).with_cfg(cfg).with_plan(plan));
    let (c0, c1) = (g.coords[0].1, g.coords[1].1);

    // Coordinator link down from the start: no delta ever reaches the
    // successor, and the primary's replication rounds time out.
    g.world.schedule_control(
        SimTime::from_millis(1),
        rpcv::simnet::Control::Block { from: c0, to: c1, bidir: true },
    );
    g.run_until_done(SimTime::from_secs(1800)).expect("workload completes on the primary");
    assert_eq!(g.client_results(), 8);
    // Collection acks ride the beats; the paper's explicit GC reclaims
    // the delivered archives, making the jobs retention-eligible.
    g.world.run_until(SimTime::from_secs(25));
    g.world.actor_mut::<rpcv::core::coordinator::CoordinatorActor>(c0).unwrap().gc_now();
    g.world.run_until(SimTime::from_secs(35));
    {
        let primary = g.coordinator(0).expect("primary up");
        assert!(primary.db().delta_floor() > 0, "retention must have pruned the delivered work");
        assert_eq!(primary.db().retired_count(), 8, "all delivered jobs retired");
        assert!(
            primary.db().resident_rows() < 8,
            "resident rows track live work, got {}",
            primary.db().resident_rows()
        );
        // Lifetime counters survive the pruning.
        assert_eq!(primary.db().stats().jobs, 8);
        assert_eq!(primary.db().finished_count(), 8);
    }

    // Heal: the ring re-forms, and the successor's base 0 < floor makes
    // the round a bootstrap.
    g.world.schedule_control(
        SimTime::from_secs(35),
        rpcv::simnet::Control::Unblock { from: c0, to: c1, bidir: true },
    );
    g.world.run_until(SimTime::from_secs(70));
    assert!(g.coordinator(0).unwrap().metrics.snapshots_sent >= 1, "a round below the floor");
    let tasks_before = {
        let successor = g.coordinator(1).expect("successor up");
        assert_eq!(successor.metrics.bad_frames, 0);
        assert_eq!(successor.db().retired_count(), 8, "watermarks carry the delivered prefix");
        for seq in 1..=8u64 {
            let job = rpcv::xw::JobKey::new(g.client_key, seq);
            assert!(successor.db().has_collected_knowledge(&job), "delivered {job:?} known");
            assert!(!successor.db().wants_archive(&job), "no re-acquisition of {job:?}");
        }
        assert_eq!(successor.db().client_max(g.client_key), 8, "replay fence replicated");
        successor.db().stats().tasks
    };

    // The primary dies for good; the bootstrapped successor inherits the
    // grid and must re-execute nothing.
    g.world.crash_now(c0);
    g.world.run_until(SimTime::from_secs(200)); // far past the re-execution horizon
    let successor = g.coordinator(1).expect("successor up");
    assert_eq!(successor.metrics.reexecutions, 0, "delivered work must never be re-executed");
    let stats = successor.db().stats();
    assert_eq!(stats.tasks, tasks_before, "no new instances after failover");
    assert_eq!(stats.pending, 0);
    assert_eq!(stats.ongoing, 0);
    assert_eq!(g.client_results(), 8);
}

/// Gap detection: the successor loses its durable state entirely (crash +
/// wipe) while the primary's ack record for it still points past the
/// retention floor.  The next delta arrives with a base the successor
/// never applied — it must refuse it unacked and request a reseed,
/// ending fully re-seeded with zero re-executions.
#[test]
fn wiped_successor_detects_feed_gap_and_requests_snapshot() {
    let mut cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(4))
        .with_replication_period(SimDuration::from_secs(4));
    cfg.missing_archive_timeout = SimDuration::from_secs(10);
    let plan: Vec<CallSpec> =
        (0..8).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i), 2.0, 128)).collect();
    let mut g = SimGrid::build(GridSpec::confined(2, 4).with_cfg(cfg).with_plan(plan));
    let (c0, c1) = (g.coords[0].1, g.coords[1].1);

    g.run_until_done(SimTime::from_secs(1800)).expect("workload completes");
    g.world.run_until(SimTime::from_secs(25));
    g.world.actor_mut::<rpcv::core::coordinator::CoordinatorActor>(c0).unwrap().gc_now();
    // Let replication acks catch up and retention prune the primary.
    g.world.run_until(SimTime::from_secs(45));
    assert!(g.coordinator(0).unwrap().db().delta_floor() > 0, "feed must have a floor");

    // The successor loses everything; the primary's ack record is stale.
    g.world.crash_now(c1);
    g.world.wipe_durable(c1);
    g.world.restart_now(c1);
    g.world.run_until(SimTime::from_secs(90));

    let primary = g.coordinator(0).expect("primary up");
    assert!(
        primary.rx_counts.get("SnapshotRequest").copied().unwrap_or(0) >= 1,
        "the wiped successor must ask to be reseeded"
    );
    assert!(primary.metrics.snapshots_sent >= 1);
    let successor = g.coordinator(1).expect("successor up");
    assert_eq!(successor.db().retired_count(), 8, "reseeded with the delivered prefix");
    for seq in 1..=8u64 {
        let job = rpcv::xw::JobKey::new(g.client_key, seq);
        assert!(successor.db().has_collected_knowledge(&job));
    }
    // And the reseeded replica never re-executes delivered work.
    g.world.crash_now(c0);
    g.world.run_until(SimTime::from_secs(220));
    let successor = g.coordinator(1).expect("successor up");
    assert_eq!(successor.metrics.reexecutions, 0);
    assert_eq!(successor.db().stats().pending, 0);
    assert_eq!(g.client_results(), 8);
}

/// Partition through the coordinator group mid-run, primary on the
/// minority side (the paper's Fig. 11 progress condition, sharpened into
/// a single-primary audit).  The majority side — successor, client, all
/// servers — must elect the successor and finish the workload; after the
/// heal the demoted ex-primary's stale replies are fenced by the
/// coordinator-epoch reconciliation, so nothing is double-dispatched,
/// double-delivered or re-executed.
#[test]
fn coordinator_partition_keeps_a_single_primary() {
    // Replication 4s makes the peer-suspicion horizon (3× replication)
    // much longer than the server/client suspicion: the majority's
    // servers fail over and hand their finished results to the successor
    // *before* it writes the fenced predecessor off and releases held
    // ongoing tasks — so complete knowledge, not luck, prevents
    // re-dispatch.
    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(4))
        .with_replication_period(SimDuration::from_secs(4));
    let plan: Vec<CallSpec> =
        (0..8).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i), 5.0, 128)).collect();
    let mut g = SimGrid::build(GridSpec::confined(2, 4).with_cfg(cfg).with_plan(plan));
    let primary = g.coords[0].1;
    let mut majority = vec![g.coords[1].1, g.client_node];
    majority.extend(g.servers.iter().map(|&(_, n)| n));

    // Cut the primary away from every majority node mid-run.  The cut
    // lands just after a replication round has shipped every dispatch
    // (rounds every 2s, the second wave is placed ~6.5s), so the
    // successor holds complete knowledge and must not re-dispatch —
    // executions themselves are still in flight when the fabric splits.
    let cut = SimTime::from_millis(8600);
    let heal = SimTime::from_secs(30);
    for &node in &majority {
        g.world.schedule_control(
            cut,
            rpcv::simnet::Control::Block { from: primary, to: node, bidir: true },
        );
        g.world.schedule_control(
            heal,
            rpcv::simnet::Control::Unblock { from: primary, to: node, bidir: true },
        );
    }

    g.run_until_done(SimTime::from_secs(1800)).expect("majority side must make progress");
    // Let the heal pass and the demoted primary re-integrate (its stale
    // replies and replication deltas all land in this window).
    g.world.run_until(SimTime::from_secs(60));

    // Exactly-once delivery to the owning client.
    assert_eq!(g.client_results(), 8);
    let client = g.client().expect("client up");
    let seqs: Vec<u64> = client.metrics.results_received.keys().copied().collect();
    assert_eq!(seqs, (1..=8).collect::<Vec<u64>>(), "each result exactly once");
    assert!(client.metrics.coordinator_switches >= 1, "client must fail over to the successor");

    // Single-primary semantics: one execution per job grid-wide — the
    // successor never re-dispatched work the fenced ex-primary had placed.
    let executed: u64 = (0..4).map(|i| g.server(i).unwrap().metrics.executed).sum();
    assert_eq!(executed, 8, "no job is double-dispatched across the partition");
    for i in 0..2 {
        let c = g.coordinator(i).expect("both coordinators up after heal");
        assert_eq!(c.metrics.reexecutions, 0, "coordinator {i} must not re-execute");
        assert_eq!(c.db().stats().duplicate_results, 0, "coordinator {i} sees no duplicates");
        assert_eq!(c.db().stats().jobs, 8, "coordinator {i} holds the full job set");
    }

    // Post-heal quiescence: the reunified grid does nothing further.
    g.world.run_until(SimTime::from_secs(90));
    let executed_after: u64 = (0..4).map(|i| g.server(i).unwrap().metrics.executed).sum();
    assert_eq!(executed_after, executed, "stale ex-primary state must not revive work");
}

/// A lost `TaskDoneAck` must not strand the server's pessimistic log once
/// the result is delivered: the coordinator stored the archive but its ack
/// never reached the server (one-way outage), and by the time the link
/// heals the client has collected the result.  The coordinator will never
/// request the offered archive (`Collected` ⇒ not wanted), so it must
/// *settle* the offer explicitly — otherwise the entry is re-offered
/// forever and the server's log GC can never reclaim it.
#[test]
fn delivered_results_settle_stranded_server_logs() {
    let cfg = ProtocolConfig::confined().with_heartbeat(SimDuration::from_secs(1));
    let plan = vec![CallSpec::new("b", Blob::synthetic(10_000, 1), 5.0, 128)];
    let mut g = SimGrid::build(GridSpec::confined(1, 1).with_cfg(cfg).with_plan(plan));
    let coord_node = g.coords[0].1;
    let server_node = g.servers[0].1;
    // Sever coordinator→server after the assignment is out but before the
    // 5 s execution completes: the TaskDone gets through, its ack does not.
    g.world.schedule_control(
        SimTime::from_secs(3),
        rpcv::simnet::Control::Block { from: coord_node, to: server_node, bidir: false },
    );
    g.world.schedule_control(
        SimTime::from_secs(20),
        rpcv::simnet::Control::Unblock { from: coord_node, to: server_node, bidir: false },
    );
    g.run_until_done(SimTime::from_secs(1800)).expect("result reaches the client regardless");
    assert_eq!(g.client_results(), 1);
    g.world.run_until(SimTime::from_secs(19));
    assert_eq!(
        g.server(0).unwrap().unacked_results(),
        1,
        "ack lost to the outage: the log entry is stranded until the offer settles"
    );
    // After the heal, the next offered beat must come back ArchivesSettled.
    g.world.run_until(SimTime::from_secs(40));
    let server = g.server(0).unwrap();
    assert_eq!(server.unacked_results(), 0, "offer settled, log reclaimable");
    assert_eq!(server.resident_records(), 0, "and no delivery record outlives the entry");
    assert_eq!(server.metrics.archives_resent, 0, "settled, never re-requested");
    let coord = g.coordinator(0).unwrap();
    assert_eq!(coord.db().stats().duplicate_results, 0, "no duplicate delivery either");
}

/// The checkpointing extension's headline property, swept across crash
/// instants: a server dies mid-way through a long task and the promoted
/// instance — on a *different* server — resumes from the last checkpoint
/// the coordinator holds, repeating zero checkpointed units.  Against the
/// from-scratch baseline (checkpointing off), the successor executes
/// strictly fewer units, and the grid's total unit spend stays under 2×
/// the job's declared units.
#[test]
fn resumed_instance_skips_checkpointed_units() {
    use rpcv::ckpt::CheckpointPolicy;

    const UNITS: u32 = 90; // 90 units × 1 s/unit = one long 90 s task
    let run = |policy: CheckpointPolicy, crash_at: u64| -> (u64, u64, u64, u32) {
        let cfg = ProtocolConfig::confined()
            .with_heartbeat(SimDuration::from_secs(1))
            .with_suspicion(SimDuration::from_secs(5))
            .with_checkpoint_policy(policy);
        let call = CallSpec::new("b", Blob::synthetic(10_000, 1), UNITS as f64, 128)
            .with_work_units(UNITS);
        let mut g = SimGrid::build(GridSpec::confined(1, 2).with_cfg(cfg).with_plan(vec![call]));
        g.world.run_until(SimTime::from_secs(crash_at));
        // Crash whichever server is executing the task — permanently.
        let victim = (0..2)
            .find(|&i| g.server(i).is_some_and(|s| s.running_count() == 1))
            .expect("one server must be mid-task at the crash instant");
        let successor = 1 - victim;
        g.world.crash_now(g.servers[victim].1);
        // The resume point the successor will be handed: the last mark the
        // victim shipped before dying (nothing can move it until the
        // successor takes over).
        let hw = g
            .coordinator(0)
            .unwrap()
            .db()
            .ckpt_high_water(&rpcv::xw::JobKey::new(g.client_key, 1))
            .unwrap_or(0);
        g.run_until_done(SimTime::from_secs(1800)).expect("workload completes after the crash");
        assert_eq!(g.client_results(), 1);
        let s = g.server(successor).unwrap();
        let (succ_spent, succ_resumed) = (s.metrics.units_spent, s.metrics.units_resumed);
        // Restart the victim only to read its durable metrics: the partial
        // progress it burned before dying.
        g.world.restart_now(g.servers[victim].1);
        g.world.run_for(rpcv::simnet::SimDuration::from_millis(10));
        let victim_spent = g.server(victim).unwrap().metrics.units_spent;
        (succ_spent, succ_resumed, victim_spent, hw)
    };

    for crash_at in [12u64, 40, 70] {
        let (succ_spent, succ_resumed, victim_spent, hw) =
            run(CheckpointPolicy::Fixed(SimDuration::from_secs(5)), crash_at);
        assert!(hw > 0, "crash at {crash_at}s: a checkpoint must be durable by then");
        // Zero checkpointed units repeated: the successor banked exactly
        // the coordinator's high-water mark and computed only the rest.
        assert_eq!(succ_resumed, hw as u64, "crash at {crash_at}s");
        assert_eq!(succ_spent, (UNITS - hw) as u64, "crash at {crash_at}s");
        // Total executed units stay under 2× the job's units …
        let total = succ_spent + victim_spent;
        assert!(
            total < 2 * UNITS as u64,
            "crash at {crash_at}s: {total} units spent for a {UNITS}-unit job"
        );
        // … and under the from-scratch baseline, which re-executes all of
        // it (strictly more successor work, no resume at all).
        let (base_succ_spent, base_resumed, base_victim_spent, base_hw) =
            run(CheckpointPolicy::Disabled, crash_at);
        assert_eq!(base_hw, 0);
        assert_eq!(base_resumed, 0);
        assert_eq!(base_succ_spent, UNITS as u64, "baseline re-executes from unit zero");
        assert!(
            succ_spent < base_succ_spent,
            "crash at {crash_at}s: resume must beat re-execution"
        );
        assert!(succ_spent + victim_spent < base_succ_spent + base_victim_spent);
    }
}

/// Telemetry lifecycle audit: a mid-execution server crash leaves exactly
/// one failover annotation on the re-executed job's span.  The detection
/// gap recorded in the annotation is the true silence the coordinator
/// observed — at least the suspicion timeout, at most one heartbeat (the
/// scan period) more — and the annotation is stamped recovered once the
/// replacement instance dispatches.
#[test]
fn failover_span_records_one_bounded_annotation() {
    use rpcv::obs::SpanEdge;

    let heartbeat = SimDuration::from_secs(1);
    let suspicion = SimDuration::from_secs(5);
    let cfg = ProtocolConfig::confined().with_heartbeat(heartbeat).with_suspicion(suspicion);
    let call = CallSpec::new("b", Blob::synthetic(10_000, 1), 30.0, 128);
    let mut g = SimGrid::build(GridSpec::confined(1, 2).with_cfg(cfg).with_plan(vec![call]));

    // Crash whichever server is executing the 30 s task — permanently.
    g.world.run_until(SimTime::from_secs(10));
    let victim = (0..2)
        .find(|&i| g.server(i).is_some_and(|s| s.running_count() == 1))
        .expect("one server must be mid-task at the crash instant");
    g.world.crash_now(g.servers[victim].1);
    let done = g.run_until_done(SimTime::from_secs(1800)).expect("replacement completes");
    assert_eq!(g.client_results(), 1);
    // Collection acks ride the client beats: give them a few periods to
    // land so the Collected edge is stamped.
    g.world.run_until(done + SimDuration::from_secs(10));

    let coord = g.coordinator(0).expect("coordinator up");
    let job = rpcv::xw::JobKey::new(g.client_key, 1);
    let span = coord.spans().span(&job).expect("the job has a span");
    assert_eq!(span.failovers.len(), 1, "exactly one failover annotation");
    assert_eq!(span.reexecutions, 1, "one re-execution, annotated not restarted");
    let note = &span.failovers[0];
    assert!(
        note.detect_gap >= suspicion,
        "silence below the suspicion timeout must not fire: {:?}",
        note.detect_gap
    );
    assert!(
        note.detect_gap <= suspicion + heartbeat,
        "detection lags the timeout by at most one scan period: {:?}",
        note.detect_gap
    );
    let recovered = note.recovered_at.expect("replacement dispatch resolves the annotation");
    assert!(recovered > note.suspected_at);
    assert_eq!(note.recovery_gap(), Some(recovered.since(note.suspected_at)));

    // The edge timeline is intact despite the crash: dispatched exactly
    // once (the re-instance annotates, it does not restart), finished and
    // collected after the failover.
    let edge_at = |e: SpanEdge| span.marks.iter().find(|&&(m, _)| m == e).map(|&(_, t)| t);
    let dispatched = edge_at(SpanEdge::Dispatched).expect("dispatched edge");
    let finished = edge_at(SpanEdge::Finished).expect("finished edge");
    let collected = edge_at(SpanEdge::Collected).expect("collected edge");
    assert_eq!(span.marks.iter().filter(|&&(m, _)| m == SpanEdge::Dispatched).count(), 1);
    assert!(dispatched < note.suspected_at && note.suspected_at < finished);
    assert!(finished <= collected);

    // The folded registry agrees with the raw span: one recovery gap in
    // the histogram, one failover and one re-execution in the counters.
    let snap = coord.telemetry_snapshot();
    assert_eq!(snap.counter("span.failovers"), 1);
    assert_eq!(snap.counter("span.reexecutions"), 1);
    let gap_hist = snap.hist("span.failover_recovery_gap").expect("recovery-gap hist folded");
    assert_eq!(gap_hist.count(), 1);
}

/// Blocked-on-durability guarantee: under blocking-pessimistic logging a
/// crash at any instant never loses a submission whose interaction
/// completed — sweep the crash instant across the whole submission phase.
#[test]
fn blocking_pessimistic_never_loses_completed_submissions() {
    for crash_ms in [500u64, 1000, 2000, 3500, 5000] {
        let mut g = grid(LogStrategy::BlockingPessimistic);
        let client = g.client_node;
        g.world
            .schedule_control(SimTime::from_millis(crash_ms), rpcv::simnet::Control::Crash(client));
        g.world.schedule_control(
            SimTime::from_millis(crash_ms + 3000),
            rpcv::simnet::Control::Restart(client),
        );
        g.run_until_done(SimTime::from_secs(1800))
            .unwrap_or_else(|| panic!("crash at {crash_ms} ms must be survivable"));
        assert_eq!(g.client_results(), 8, "crash at {crash_ms} ms");
        // At-least-once may duplicate, but never lose: exactly 8 jobs.
        assert_eq!(g.coordinator(0).unwrap().db().stats().jobs, 8);
    }
}

/// The primary loses its disk while every row it ever wrote lives on only
/// at the replica — which learned all of them *from* the primary, so its
/// incremental feed back skips every one.  Bootstrap feeds are complete:
/// a from-zero delta skips nothing, and a wiped consumer's applied head
/// went with its rows, so it refuses any `base > 0` round as a gap and is
/// reseeded.  Both reseed shapes: the from-zero round the replica sends
/// unasked while its feed has no floor, and the one it sends on request
/// once its retention pruned the delivered prefix (live rows gone, the
/// watermarks stand for them).  Either way no job is lost and no
/// collected work runs again.
#[test]
fn wiped_primary_relearns_its_own_rows_from_the_replica() {
    for pruned_replica in [false, true] {
        // One long period: the replica learns the whole workload from the
        // t=20 round and its own first round (built empty) acked head 0 —
        // nothing to prune behind, the feed has no floor.  Short periods:
        // acks flow and the replica retires what it learned.
        let (period, wipe_at) = if pruned_replica { (4, 45) } else { (20, 35) };
        let mut cfg = ProtocolConfig::confined()
            .with_heartbeat(SimDuration::from_secs(1))
            .with_suspicion(SimDuration::from_secs(5))
            .with_replication_period(SimDuration::from_secs(period));
        cfg.missing_archive_timeout = SimDuration::from_secs(10);
        let plan: Vec<CallSpec> =
            (0..8).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i), 2.0, 128)).collect();
        let mut g = SimGrid::build(GridSpec::confined(2, 4).with_cfg(cfg).with_plan(plan));
        let c0 = g.coords[0].1;
        let jobs: Vec<_> = (1..=8u64).map(|seq| rpcv::xw::JobKey::new(g.client_key, seq)).collect();
        let executed = |g: &SimGrid| -> u64 {
            (0..4).map(|i| g.server(i).map_or(0, |s| s.metrics.executed)).sum()
        };

        let done = g.run_until_done(SimTime::from_secs(1800)).expect("workload completes");
        assert!(done < SimTime::from_secs(18), "done at {done:?}");
        g.world.run_until(SimTime::from_secs(wipe_at));
        {
            let replica = g.coordinator(1).expect("replica up");
            assert_eq!(replica.db().delta_floor() > 0, pruned_replica, "replica feed floor");
            assert_eq!(replica.db().stats().jobs, 8, "the replica holds the primary's rows");
            // Its first round was built empty and its second still had base
            // 0 (complete by definition); every round since skipped it all.
            let rounds = &replica.metrics.repl_rounds;
            assert!(rounds.iter().skip(2).all(|r| r.records == 0), "the replica echoes nothing");
        }
        assert_eq!(executed(&g), 8);

        // The client is down too, so the replica's feed is the only place
        // the wiped primary can relearn anything from.
        let client = g.client_node;
        g.world.crash_now(client);
        g.world.crash_now(c0);
        g.world.wipe_durable(c0);
        g.world.restart_now(c0);
        g.world.run_until(SimTime::from_secs(wipe_at + 60));
        {
            let primary = g.coordinator(0).expect("primary up");
            let replica = g.coordinator(1).expect("replica up");
            assert!(!primary.rx_counts.contains_key("SubmitBatch"), "no client replay");
            let reseeds = replica.rx_counts.get("SnapshotRequest").copied().unwrap_or(0);
            if pruned_replica {
                assert!(reseeds >= 1, "the wiped primary must refuse the gapped feed");
                assert!(replica.metrics.snapshots_sent >= 1, "a round below the floor");
                assert_eq!(primary.db().retired_count(), 8, "the delivered prefix came back");
            } else {
                assert_eq!((reseeds, replica.metrics.snapshots_sent), (0, 0), "from-zero delta");
                assert_eq!(primary.metrics.collected_marks_applied, 8, "acks came off the feed");
                assert_eq!(primary.db().stats().tasks, 8, "task rows came off the feed");
            }
            assert_eq!(primary.db().stats().jobs, 8, "zero lost jobs");
            assert_eq!(primary.db().client_max(g.client_key), 8, "replay fence relearned");
            for job in &jobs {
                assert!(primary.db().has_collected_knowledge(job), "delivered {job:?} relearned");
                assert!(!primary.db().wants_archive(job), "no re-acquisition of {job:?}");
            }
        }

        // The client returns to a primary that knows everything again:
        // nothing to replay, nothing to run.
        g.world.restart_now(client);
        g.world.run_until(SimTime::from_secs(200)); // far past the re-execution horizon
        let primary = g.coordinator(0).expect("primary up");
        let replica = g.coordinator(1).expect("replica up");
        let stats = primary.db().stats();
        assert_eq!((stats.jobs, stats.pending, stats.ongoing), (8, 0, 0));
        assert_eq!(primary.metrics.reexecutions + replica.metrics.reexecutions, 0);
        assert_eq!(executed(&g), 8, "collected work must not run again");
        assert_eq!(g.client_results(), 8);
    }
}

/// Two successive wipes.  The replica retires the delivered prefix it
/// learned; the primary loses its disk and relearns the prefix from the
/// replica (the `pruned_replica` arm above) — as retired watermarks, with
/// no row of its own to prune, so its feed never develops a floor and the
/// reseed it sends next counts as no round below one.  Then
/// the *replica* loses its disk, and the primary is the only place the
/// prefix lives on.  The watermarks must make the second hop too: a
/// replica that comes back without them would accept a re-registration of
/// delivered seqs.
#[test]
fn retired_prefix_survives_two_successive_coordinator_wipes() {
    let mut cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(5))
        .with_replication_period(SimDuration::from_secs(4));
    cfg.missing_archive_timeout = SimDuration::from_secs(10);
    let plan: Vec<CallSpec> =
        (0..8).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i), 2.0, 128)).collect();
    let mut g = SimGrid::build(GridSpec::confined(2, 4).with_cfg(cfg).with_plan(plan));
    let (c0, c1) = (g.coords[0].1, g.coords[1].1);
    let executed = |g: &SimGrid| -> u64 {
        (0..4).map(|i| g.server(i).map_or(0, |s| s.metrics.executed)).sum()
    };

    g.run_until_done(SimTime::from_secs(1800)).expect("workload completes");
    g.world.run_until(SimTime::from_secs(45));
    assert_eq!(g.coordinator(1).unwrap().db().retired_count(), 8, "the replica retired it all");

    // First hop: the wiped primary is reseeded by the replica.  The client
    // is down throughout, so the ring is the only source of knowledge.
    let client = g.client_node;
    g.world.crash_now(client);
    g.world.crash_now(c0);
    g.world.wipe_durable(c0);
    g.world.restart_now(c0);
    g.world.run_until(SimTime::from_secs(105));
    {
        let primary = g.coordinator(0).expect("primary up");
        assert_eq!(primary.db().retired_count(), 8, "first hop");
        assert_eq!(primary.db().delta_floor(), 0, "learned, not pruned: no floor of its own");
    }

    // Second hop: the wiped replica is reseeded by the primary.
    g.world.crash_now(c1);
    g.world.wipe_durable(c1);
    g.world.restart_now(c1);
    g.world.run_until(SimTime::from_secs(165));
    {
        let primary = g.coordinator(0).expect("primary up");
        let replica = g.coordinator(1).expect("replica up");
        assert_eq!(
            (primary.db().retired_count(), replica.db().retired_count()),
            (8, 8),
            "the retired prefix makes the second hop"
        );
        for seq in 1..=8u64 {
            let job = rpcv::xw::JobKey::new(g.client_key, seq);
            assert!(replica.db().has_collected_knowledge(&job), "delivered {job:?} relearned");
        }
    }

    g.world.restart_now(client);
    g.world.run_until(SimTime::from_secs(300)); // far past the re-execution horizon
    let primary = g.coordinator(0).expect("primary up");
    let replica = g.coordinator(1).expect("replica up");
    for coord in [primary, replica] {
        assert!(!coord.rx_counts.contains_key("SubmitBatch"), "no client replay");
        assert_eq!(coord.metrics.reexecutions, 0);
    }
    assert_eq!(executed(&g), 8, "collected work must not run again");
    assert_eq!(g.client_results(), 8);
}

/// Group commit must not widen the ack window: a `TaskDoneAck` leaves at
/// its *own* write's return, so when the primary dies while a batch of
/// archives rides an op that has not even started, no server of that
/// batch holds an ack.  Every one of them keeps its log entry, re-offers
/// it to the restarted primary, and the run ends with each seq delivered
/// exactly once and nothing executed twice.
#[test]
fn coordinator_crash_with_archives_riding_a_pending_op_loses_no_result() {
    const SERVERS: usize = 64;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 150;
    let cfg = ProtocolConfig::confined().with_heartbeat(SimDuration::from_secs(1));
    let plans = (0..CLIENTS)
        .map(|c| {
            (0..PER_CLIENT)
                .map(|i| {
                    CallSpec::new("b", Blob::synthetic(256, (c * PER_CLIENT + i) as u64), 0.05, 64)
                })
                .collect()
        })
        .collect();
    let mut spec = GridSpec::confined(2, SERVERS).with_cfg(cfg).with_client_plans(plans);
    spec.coord_host = spec.coord_host.with_db_per_op(SimDuration::from_micros(100));
    let mut g = SimGrid::build(spec);
    let c0 = g.coords[0].1;
    let sum = |g: &SimGrid, f: fn(&rpcv::core::server::ServerActor) -> u64| -> u64 {
        (0..SERVERS).map(|i| g.server(i).map_or(0, f)).sum()
    };

    // Step event by event until ≥ 8 archives have joined the op opened
    // behind an executing one.  By the join rule that op has not started
    // at the instant its latest joiner was issued — which is now.
    let (mut ops, mut writes_at_open) = (0, 0);
    let riding = loop {
        assert!(g.world.step() && g.world.now() < SimTime::from_secs(60), "no batch of 8 formed");
        let m = &g.coordinator(0).expect("primary up").metrics;
        if m.archive_write_ops != ops {
            (ops, writes_at_open) = (m.archive_write_ops, m.archive_writes);
        }
        if m.archive_writes - writes_at_open >= 8 {
            break m.archive_writes - writes_at_open + 1;
        }
    };
    // None of the batch was acknowledged: each rider's server still holds
    // its log entry (so does every server whose ack was merely in flight).
    let (unacked, executed) =
        (sum(&g, |s| s.unacked_results() as u64), sum(&g, |s| s.metrics.executed));
    assert!(riding >= 9 && unacked >= riding, "{riding} riding, {unacked} unacked");
    assert!(executed < (CLIENTS * PER_CLIENT) as u64 / 2, "crash lands mid-run ({executed} done)");

    g.world.crash_now(c0);
    g.world.run_for(SimDuration::from_secs(3));
    g.world.restart_now(c0);
    g.run_until_done(SimTime::from_secs(1800)).expect("completes");
    g.world.run_for(SimDuration::from_secs(30));

    // Re-offered and settled (or re-requested and resent): no log entry is
    // stranded, no result is missing or doubled, no call ran twice.
    assert_eq!(sum(&g, |s| s.unacked_results() as u64), 0, "every offer settled");
    assert!(sum(&g, |s| s.metrics.archives_resent) > 0, "archives lost to the outage were resent");
    for c in 0..CLIENTS {
        let client = g.client_at(c).expect("client up");
        let held: Vec<u64> = client.metrics.results_received.keys().copied().collect();
        assert_eq!(held, (1..=PER_CLIENT as u64).collect::<Vec<_>>(), "client {c}");
        assert_eq!(client.results_count(), PER_CLIENT, "client {c}");
    }
    assert_eq!(
        sum(&g, |s| s.metrics.executed),
        (CLIENTS * PER_CLIENT) as u64,
        "executed must not grow"
    );
    for i in 0..2 {
        assert_eq!(g.coordinator(i).expect("up").metrics.reexecutions, 0, "coordinator {i}");
    }
}

/// Fast timers for the attachment tests below: 1 s beats and replication
/// rounds, 5 s suspicion.
fn fast_cfg() -> ProtocolConfig {
    ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(5))
        .with_replication_period(SimDuration::from_secs(1))
}

/// A 3-coordinator grid with a split fleet: the boot primary is cut off
/// from the client (only) from the start, so the client settles on
/// coordinator 2 after one suspicion timeout and replays its plan there,
/// while the servers never lose coordinator 1 — every task they get is one
/// coordinator 2 minted and coordinator 1 relayed.
fn split_fleet(servers: usize, plan: Vec<CallSpec>) -> SimGrid {
    let mut g = SimGrid::build(GridSpec::confined(3, servers).with_cfg(fast_cfg()).with_plan(plan));
    let (boot, client) = (g.coords[0].1, g.client_node);
    g.world.schedule_control(
        SimTime::ZERO,
        rpcv::simnet::Control::Block { from: client, to: boot, bidir: true },
    );
    g
}

fn call(seed: u64, secs: f64) -> CallSpec {
    CallSpec::new("b", Blob::synthetic(1_000, seed), secs, 128)
}

/// A server carries a relayed task's result to the coordinator that minted
/// it — and that coordinator died while the task ran.  The guess is wrong
/// and costs one suspicion timeout, nothing else: the unacknowledged
/// archive stays in the server's log and is re-offered to whoever answers
/// next, and the client (which failed over too) still collects every
/// result exactly once.
#[test]
fn owner_dies_while_a_relayed_task_runs_and_no_result_is_lost() {
    let mut g = split_fleet(2, vec![call(1, 10.0), call(2, 10.0)]);
    let owner = g.coords[1].1;
    // Both calls are running, relayed (minted by 2, dispatched by 1), when
    // the owner dies.
    let running = |g: &SimGrid| (0..2).map(|i| g.server(i).unwrap().running_count()).sum::<usize>();
    while running(&g) < 2 {
        assert!(g.world.now() < SimTime::from_secs(30), "the relay never dispatched both calls");
        g.world.run_for(SimDuration::from_millis(500));
    }
    assert_eq!(g.coordinator(0).unwrap().metrics.relayed_dispatches, 2);
    g.world.run_for(SimDuration::from_secs(2));
    assert_eq!(running(&g), 2, "still mid-execution");
    g.world.crash_now(owner);

    g.run_until_done(SimTime::from_secs(600)).expect("no result is lost with the owner");
    g.world.run_for(SimDuration::from_secs(30));
    let client = g.client().expect("client up");
    let seqs: Vec<u64> = client.metrics.results_received.keys().copied().collect();
    assert_eq!((seqs, client.results_count()), (vec![1, 2], 2), "each result exactly once");
    for i in 0..2 {
        let s = g.server(i).unwrap();
        assert!(s.metrics.rehomes >= 1, "server {i} carried its result to the owner");
        assert!(s.metrics.coordinator_switches >= 1, "server {i} then moved on by suspicion");
        assert_eq!(s.unacked_results(), 0, "server {i}'s log entry was re-offered and settled");
    }
}

/// A restart remembers home: a server that had settled on the second
/// coordinator resumes talking to it after a crash instead of
/// re-attaching to the first-listed one — and when home is dead, ordinary
/// suspicion moves it on.
#[test]
fn restarted_server_returns_home_and_moves_on_when_home_is_dead() {
    let plan = (0..4).map(|i| call(i, 1.0)).collect();
    let mut g = SimGrid::build(GridSpec::confined(3, 2).with_cfg(fast_cfg()).with_plan(plan));
    let (first, home) = (g.coords[0].1, g.coords[1].1);
    let (victim_id, victim) = g.servers[0];
    // The first-listed coordinator is away long enough for everyone to
    // settle on the second, then returns.
    g.world.schedule_control(SimTime::from_secs(1), rpcv::simnet::Control::Crash(first));
    g.world.schedule_control(SimTime::from_secs(15), rpcv::simnet::Control::Restart(first));
    g.run_until_done(SimTime::from_secs(600)).expect("completes on the second coordinator");
    g.world.run_until(SimTime::from_secs(30));
    let heard = |g: &SimGrid, c: usize| g.coordinator(c).unwrap().db().server_heard(victim_id);
    let left_first_at = heard(&g, 0).expect("the victim booted on the first coordinator");
    assert!(left_first_at < SimTime::from_secs(2));
    assert_eq!(g.server(0).unwrap().metrics.coordinator_switches, 1);

    g.world.crash_now(victim);
    g.world.run_for(SimDuration::from_secs(2));
    g.world.restart_now(victim);
    g.world.run_until(SimTime::from_secs(40));
    assert_eq!(heard(&g, 0), Some(left_first_at), "the restart did not re-attach to the first");
    assert!(heard(&g, 1) >= Some(SimTime::from_secs(39)), "it resumed beating home");
    assert_eq!(g.server(0).unwrap().metrics.coordinator_switches, 1, "without any suspicion");

    // Home dies; the next restart still tries it first, and moves on
    // after one suspicion timeout.
    g.world.crash_now(home);
    g.world.crash_now(victim);
    g.world.run_for(SimDuration::from_secs(1));
    g.world.restart_now(victim);
    g.world.run_until(SimTime::from_secs(44));
    assert_eq!(heard(&g, 0), Some(left_first_at), "still loyal inside the suspicion window");
    g.world.run_until(SimTime::from_secs(60));
    assert_eq!(g.server(0).unwrap().metrics.coordinator_switches, 2, "moved on by suspicion");
    assert!(heard(&g, 0) >= Some(SimTime::from_secs(59)), "and is served again");
}

/// Silence testifies only about what came before it.  Servers that carried
/// relayed work home are suspected by the coordinator they left one
/// timeout later; the tasks their *new* coordinator has since given them
/// reach the old one as replicated `Ongoing` rows — and it must not mint
/// replacement instances for work it never saw the server take.
#[test]
fn left_behind_coordinator_mints_nothing_for_a_departed_servers_new_tasks() {
    // Two short calls ride the relay, two long ones are dispatched at home
    // and still run when the old coordinator's suspicion fires.
    let plan = vec![call(1, 2.0), call(2, 2.0), call(3, 20.0), call(4, 20.0)];
    let mut g = split_fleet(2, plan);
    g.run_until_done(SimTime::from_secs(600)).expect("completes");
    g.world.run_for(SimDuration::from_secs(10));
    assert_eq!(g.client_results(), 4);
    let left = g.coordinator(0).unwrap();
    assert_eq!(left.metrics.relayed_dispatches, 2, "the short calls were relayed");
    assert_eq!(left.metrics.server_suspicions, 2, "both departed servers were suspected");
    for i in 0..3 {
        let c = g.coordinator(i).unwrap();
        assert_eq!(c.db().stats().tasks, 4, "coordinator {i} holds one instance per call");
        assert_eq!(c.metrics.reexecutions, 0, "coordinator {i}");
    }
    let executed: u64 = (0..2).map(|i| g.server(i).unwrap().metrics.executed).sum();
    assert_eq!(executed, 4, "nothing ran twice");
}

/// The other half of the rule: a task is recovered by whoever can still
/// testify about its server — the coordinator the server *currently* beats,
/// and the dispatcher, even one that crashed, restarted and never heard the
/// server again: it watches every server its durable dispatch index names
/// from the restart on, so its silence is suspicion, not ignorance.
#[test]
fn restarted_dispatcher_suspects_a_server_that_left_it() {
    // 10 s rounds put the peer-suspicion horizon at 30 s: the dispatcher is
    // back before its successor writes it off, so `release_origin` never
    // fires and server suspicion is the only recovery path left.
    let cfg = fast_cfg().with_replication_period(SimDuration::from_secs(10));
    let mut g =
        SimGrid::build(GridSpec::confined(2, 2).with_cfg(cfg).with_plan(vec![call(1, 60.0)]));
    let dispatcher = g.coords[0].1;
    // Dispatched by 1, replicated to 2 by the t = 10 s round.
    g.world.run_until(SimTime::from_secs(12));
    let victim = (0..2).find(|&i| g.server(i).unwrap().running_count() == 1).expect("dispatched");
    let (victim_id, victim_node) = g.servers[victim];
    g.world.crash_now(dispatcher);
    g.world.run_until(SimTime::from_secs(25));
    g.world.restart_now(dispatcher);
    // The server moved to 2 and keeps running; now it dies for good.
    g.world.run_until(SimTime::from_secs(40));
    assert_eq!(g.server(victim).unwrap().running_count(), 1);
    g.world.crash_now(victim_node);

    g.run_until_done(SimTime::from_secs(600)).expect("the call is recovered");
    assert_eq!(g.client_results(), 1);
    let (old, current) = (g.coordinator(0).unwrap(), g.coordinator(1).unwrap());
    assert!(old.db().server_heard(victim_id) < Some(SimTime::from_secs(12)));
    assert_eq!(old.metrics.server_suspicions, 1, "it suspects the server it had forwarded to");
    assert_eq!(old.metrics.coordinator_suspicions + current.metrics.coordinator_suspicions, 0);
    // The dispatcher's replacement (minted while the server still ran —
    // the price of not knowing) and the one minted where the server beat
    // when it really died.
    assert!(current.metrics.server_suspicions >= 1);
    assert_eq!(current.db().stats().tasks, 3);
}

/// A restarted coordinator still answers for what it forwarded before the
/// crash.  Two coordinators each dispatch the same replicated `Pending` row
/// to a server of their own inside one replication period (neither has
/// heard of the other's dispatch yet), both coordinators bounce, both
/// executions die, and each server re-homes to the *other* coordinator —
/// which indexes the task on the server it did not dispatch to.  Nobody's
/// beat reconciliation can find the loss, so the only recovery is each
/// dispatcher suspecting the server it forwarded to: its monitor must not
/// restart empty while its dispatch index restarts full.
#[test]
fn restarted_dispatchers_suspect_the_servers_they_forwarded_to() {
    use rpcv::simnet::Control::{Block, Crash, Restart, Unblock};
    // 4 s rounds: peer suspicion is 12 s, so a 2 s coordinator bounce never
    // releases an origin and server suspicion is the one recovery path.
    let cfg = fast_cfg().with_replication_period(SimDuration::from_secs(4));
    let mut g =
        SimGrid::build(GridSpec::confined(2, 2).with_cfg(cfg).with_plan(vec![call(1, 20.0)]));
    let (c1, c2) = (g.coords[0].1, g.coords[1].1);
    let ((s1_id, s1), (s2_id, s2)) = (g.servers[0], g.servers[1]);
    let cut = |from, to| Block { from, to, bidir: true };
    let heal = |from, to| Unblock { from, to, bidir: true };
    let at = SimTime::from_secs_f64;
    // Server 1 reaches coordinator 1 only after the t = 4 s round carried
    // the row to coordinator 2 as `Pending`; server 2 gives up on
    // coordinator 1 and takes the same row from coordinator 2 at t ≈ 6 s.
    g.world.schedule_control(SimTime::ZERO, cut(s1, c1));
    g.world.schedule_control(SimTime::ZERO, cut(s2, c1));
    g.world.schedule_control(at(4.5), heal(s1, c1));
    g.world.schedule_control(at(7.5), heal(s2, c1));
    g.world.run_until(at(10.0));
    let dispatched = |g: &SimGrid, c: usize, s| g.coordinator(c).unwrap().db().indexed_on(s);
    assert_eq!(dispatched(&g, 0, s1_id).len(), 1, "coordinator 1 dispatched to server 1");
    assert_eq!(dispatched(&g, 0, s1_id), dispatched(&g, 1, s2_id), "the same instance, twice");
    let suspicions = |g: &SimGrid, c: usize| g.coordinator(c).unwrap().metrics.server_suspicions;
    let before = [suspicions(&g, 0), suspicions(&g, 1)];
    // Both coordinators bounce, then both executions die, and from the
    // bounce on each server cannot reach the coordinator that dispatched to
    // it until it has re-homed.
    for c in [c1, c2] {
        g.world.schedule_control(at(10.0), Crash(c));
        g.world.schedule_control(at(12.0), Restart(c));
    }
    for (s, dispatcher) in [(s1, c1), (s2, c2)] {
        g.world.schedule_control(at(10.0), cut(s, dispatcher));
        g.world.schedule_control(at(13.0), Crash(s));
        g.world.schedule_control(at(14.0), Restart(s));
        g.world.schedule_control(at(25.0), heal(s, dispatcher));
    }
    g.world.run_until(at(25.0));
    let heard = |g: &SimGrid, c: usize, s| g.coordinator(c).unwrap().db().server_heard(s);
    assert!(heard(&g, 1, s1_id) >= Some(at(24.0)), "server 1 re-homed to coordinator 2");
    assert!(heard(&g, 0, s2_id) >= Some(at(24.0)), "server 2 re-homed to coordinator 1");

    g.run_until_done(SimTime::from_secs(600)).expect("the forwarded call is re-instanced");
    assert_eq!(g.client_results(), 1);
    for (i, before) in before.into_iter().enumerate() {
        assert_eq!(suspicions(&g, i), before + 1, "coordinator {i} suspected its own server");
        let released = g.coordinator(i).unwrap().metrics.coordinator_suspicions;
        assert_eq!(released, 0, "coordinator {i} released no origin");
    }
}

/// A `Submit` lost on the way to a coordinator that keeps serving — no
/// crash, no suspicion, nothing a failover would repair: three calls, the
/// client→coordinator direction cut for 0.5 s around the second.  Had the
/// coordinator registered seq 3 over the hole, its ack (`coord_max = 3`)
/// would talk the client out of ever replaying seq 2 and the client would
/// hold `[1, 3]` for good.  It refuses the gap on a 1-shard grid like on
/// any other and acks the contiguous prefix; the client reads the refusal
/// off that ack and refills the hole from its log at once (paper-default
/// 5 s beats here: a stall-driven replay could not land before t = 21 s).
#[test]
fn submit_lost_while_the_coordinator_keeps_serving_is_replayed() {
    use rpcv::simnet::Control;
    let mut g = SimGrid::build(GridSpec::confined(1, 2));
    let (client, coord) = (g.client_node, g.coords[0].1);
    for (i, at_ms) in [10_000, 11_000, 12_000].into_iter().enumerate() {
        let call = rpcv::core::msg::Msg::ApiSubmit {
            service: "b".into(),
            params: Blob::synthetic(512, i as u64),
            exec_cost: 1.0,
            result_size: 64,
            replication: 1,
            work_units: 1,
        };
        g.world.inject(SimTime::from_millis(at_ms), client, call);
    }
    let (cut, heal) = (SimTime::from_millis(10_750), SimTime::from_millis(11_250));
    g.world.schedule_control(cut, Control::Block { from: client, to: coord, bidir: false });
    g.world.schedule_control(heal, Control::Unblock { from: client, to: coord, bidir: false });
    g.world.run_until(SimTime::from_secs(13));
    let registered = g.coordinator(0).expect("up").db().client_max(g.client_key);
    assert_eq!(registered, 3, "the refusal's ack triggers the refill, no stall wait");
    g.world.run_until(SimTime::from_secs(600));

    let c = g.client().expect("client up");
    let held: Vec<u64> = c.metrics.results_received.keys().copied().collect();
    assert_eq!(held, [1, 2, 3], "every call is delivered");
    assert_eq!(c.metrics.coordinator_switches, 0, "the coordinator never looked dead");
    assert!(c.metrics.log_replays >= 1, "the hole is refilled from the client's log");
    assert_eq!(g.coordinator(0).expect("up").db().stats().jobs, 3);
}

/// The `SubmitBatch` twin, frame by frame on a 1-shard grid: a replay
/// window that starts above the contiguous registration registers
/// nothing, one with a hole inside registers only what precedes it — so
/// `client_max`, which every ack reports, never passes a hole.
#[test]
fn gapped_submit_batch_registers_only_the_contiguous_prefix() {
    use rpcv::xw::{ClientKey, JobKey, JobSpec};
    let mut g = SimGrid::build(GridSpec::confined(1, 1).with_cfg(fast_cfg()));
    let (key, coord) = (ClientKey::new(9, 1), g.coords[0].1);
    let batch = |seqs: &[u64]| rpcv::core::msg::Msg::SubmitBatch {
        specs: seqs
            .iter()
            .map(|&s| JobSpec::new(JobKey::new(key, s), "b", Blob::synthetic(64, s)))
            .collect(),
    };
    let registered = |g: &SimGrid| {
        let db = g.coordinator(0).expect("up").db();
        (db.client_max(key), (1..=6).filter(|&s| db.knows_job(&JobKey::new(key, s))).count())
    };
    g.world.inject(SimTime::from_secs(1), coord, batch(&[1, 2]));
    g.world.inject(SimTime::from_secs(2), coord, batch(&[4, 5]));
    g.world.run_until(SimTime::from_secs(3));
    assert_eq!(registered(&g), (2, 2), "a batch starting above client_max + 1 registers nothing");
    // A duplicate, an extension, then a hole: 2 is idempotent, 3 extends
    // the prefix, 5 and 6 sit behind the missing 4.
    g.world.inject(SimTime::from_secs(3), coord, batch(&[2, 3, 5, 6]));
    g.world.run_until(SimTime::from_secs(4));
    assert_eq!(registered(&g), (3, 3), "only the entries before the hole register");
}
