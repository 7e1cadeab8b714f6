//! End-to-end protocol tests on the deterministic simulator: completion,
//! every fault class, failover, partition, at-least-once invariants.

use rpcv_core::client::ClientActor;
use rpcv_core::config::ProtocolConfig;
use rpcv_core::coordinator::CoordinatorActor;
use rpcv_core::grid::{GridSpec, SimGrid};
use rpcv_core::msg::Msg;
use rpcv_core::server::ServerActor;
use rpcv_core::util::CallSpec;
use rpcv_log::LogStrategy;
use rpcv_simnet::{Actor, Control, Ctx, NodeId, SimDuration, SimTime, TimerId, WireSized};
use rpcv_wire::{Blob, WireEncode};
use rpcv_xw::{CoordId, JobKey, JobSpec, TaskDesc, TaskId};

fn plan(n: usize, exec_secs: f64, param_bytes: u64, result_bytes: u64) -> Vec<CallSpec> {
    (0..n)
        .map(|i| {
            CallSpec::new("bench", Blob::synthetic(param_bytes, i as u64), exec_secs, result_bytes)
        })
        .collect()
}

#[test]
fn completes_without_faults() {
    let spec = GridSpec::confined(2, 4).with_plan(plan(12, 2.0, 4096, 512));
    let mut grid = SimGrid::build(spec);
    let done = grid.run_until_done(SimTime::from_secs(600)).expect("must finish");
    assert_eq!(grid.client_results(), 12);
    // 12 tasks × 2 s over 4 servers = 6 s of pure compute; everything else
    // is protocol overhead, which must stay moderate.
    assert!(done < SimTime::from_secs(90), "took {done}");
}

#[test]
fn single_coordinator_single_server_works() {
    let spec = GridSpec::confined(1, 1).with_plan(plan(3, 1.0, 100, 100));
    let mut grid = SimGrid::build(spec);
    assert!(grid.run_until_done(SimTime::from_secs(300)).is_some());
}

#[test]
fn server_crash_triggers_rescheduling() {
    let spec = GridSpec::confined(1, 2).with_plan(plan(6, 10.0, 1000, 100));
    let mut grid = SimGrid::build(spec);
    // Kill server 0 mid-execution; never restart it.
    let victim = grid.servers[0].1;
    grid.world.schedule_control(SimTime::from_secs(12), Control::Crash(victim));
    let done = grid.run_until_done(SimTime::from_secs(1200)).expect("must finish on survivor");
    assert_eq!(grid.client_results(), 6);
    // Suspicion (30 s) + re-execution make this slower than fault-free.
    assert!(done > SimTime::from_secs(30));
    let coord = grid.coordinator(0).unwrap();
    assert!(coord.metrics.server_suspicions >= 1);
}

#[test]
fn coordinator_crash_fails_over_to_replica() {
    let spec = GridSpec::confined(2, 4).with_plan(plan(16, 5.0, 1000, 200));
    let mut grid = SimGrid::build(spec);
    // Clients/servers prefer coordinator 0 (lowest id). Kill it mid-run.
    let c0 = grid.coords[0].1;
    grid.world.schedule_control(SimTime::from_secs(10), Control::Crash(c0));
    let _done = grid.run_until_done(SimTime::from_secs(2000)).expect("replica must carry the run");
    assert_eq!(grid.client_results(), 16);
    let client = grid.client().unwrap();
    assert!(client.metrics.coordinator_switches >= 1, "client must have switched");
    // The surviving coordinator must have taken over the predecessor's work.
    let c1 = grid.coordinator(1).unwrap();
    assert!(c1.db().finished_count() >= 16);
}

#[test]
fn coordinator_crash_and_restart_alone_recovers() {
    // Single coordinator: crash it, restart it; the durable DB plus client
    // and server logs must let the run finish.
    let spec = GridSpec::confined(1, 2).with_plan(plan(8, 4.0, 1000, 100));
    let mut grid = SimGrid::build(spec);
    let c0 = grid.coords[0].1;
    grid.world.schedule_control(SimTime::from_secs(8), Control::Crash(c0));
    grid.world.schedule_control(SimTime::from_secs(20), Control::Restart(c0));
    grid.run_until_done(SimTime::from_secs(2000)).expect("must recover");
    assert_eq!(grid.client_results(), 8);
}

#[test]
fn client_crash_and_restart_resumes_plan() {
    let spec = GridSpec::confined(1, 2)
        .with_cfg(ProtocolConfig::confined().with_log_strategy(LogStrategy::BlockingPessimistic))
        .with_plan(plan(6, 3.0, 1000, 100));
    let mut grid = SimGrid::build(spec);
    let client_node = grid.client_node;
    grid.world.schedule_control(SimTime::from_secs(4), Control::Crash(client_node));
    grid.world.schedule_control(SimTime::from_secs(10), Control::Restart(client_node));
    grid.run_until_done(SimTime::from_secs(2000)).expect("client must resume");
    let client = grid.client().unwrap();
    assert_eq!(client.results_count(), 6);
    // No duplicated submissions at the coordinator: exactly 6 jobs.
    let coord = grid.coordinator(0).unwrap();
    assert_eq!(coord.db().stats().jobs, 6);
}

#[test]
fn partition_progress_through_replication_path() {
    // Fig. 11's scenario in miniature: the client can only reach
    // coordinator A; the servers can only reach coordinator B; A and B see
    // each other.  Tasks must flow client→A→B→servers and results back.
    let mut cfg = ProtocolConfig::confined();
    cfg.replication_period = SimDuration::from_secs(5);
    let spec = GridSpec::confined(2, 3).with_cfg(cfg).with_plan(plan(6, 2.0, 500, 100));
    let mut grid = SimGrid::build(spec);
    let a = grid.coords[0].1;
    let b = grid.coords[1].1;
    let client = grid.client_node;
    // Client ↛ B.
    grid.world.net_mut().block_bidir(client, b);
    // Servers ↛ A.
    for &(_, s) in &grid.servers.clone() {
        grid.world.net_mut().block_bidir(s, a);
    }
    let done = grid.run_until_done(SimTime::from_secs(3000)).expect("progress condition");
    assert_eq!(grid.client_results(), 6);
    // The path necessarily involves replication: B must have scheduled
    // tasks originated at A.
    let cb = grid.coordinator(1).unwrap();
    assert!(cb.db().stats().tasks >= 6);
    assert!(done > SimTime::from_secs(5), "must pay at least a replication period");
}

#[test]
fn all_coordinators_down_stalls_then_recovers() {
    let spec = GridSpec::confined(2, 2).with_plan(plan(4, 2.0, 500, 100));
    let mut grid = SimGrid::build(spec);
    let c0 = grid.coords[0].1;
    let c1 = grid.coords[1].1;
    grid.world.schedule_control(SimTime::from_secs(3), Control::Crash(c0));
    grid.world.schedule_control(SimTime::from_secs(3), Control::Crash(c1));
    // Nothing can finish while both are down.
    grid.world.run_until(SimTime::from_secs(120));
    let partial = grid.client_results();
    grid.world.schedule_control(SimTime::from_secs(130), Control::Restart(c0));
    grid.run_until_done(SimTime::from_secs(3000)).expect("recovers after restart");
    assert_eq!(grid.client_results(), 4);
    assert!(partial < 4);
}

#[test]
fn redundant_replication_flag_completes_and_dedups() {
    let calls: Vec<CallSpec> = (0..4)
        .map(|i| CallSpec::new("bench", Blob::synthetic(500, i), 3.0, 100).with_replication(2))
        .collect();
    let spec = GridSpec::confined(1, 4).with_plan(calls);
    let mut grid = SimGrid::build(spec);
    grid.run_until_done(SimTime::from_secs(600)).expect("finishes");
    assert_eq!(grid.client_results(), 4);
    let coord = grid.coordinator(0).unwrap();
    let stats = coord.db().stats();
    assert_eq!(stats.jobs, 4);
    assert!(stats.tasks >= 8, "redundant instances were created");
    // Extra executions produce duplicate results which must be dropped.
    assert!(stats.duplicate_results + stats.archived >= 4);
}

#[test]
fn checkpointing_extension_resumes_across_server_restart() {
    // One long task declaring 100 work units; the server crashes at 60 s
    // and restarts quickly.  With checkpointing the units banked before
    // the crash survive the restart.
    let cfg = ProtocolConfig::confined().with_checkpointing(SimDuration::from_secs(10));
    let call = CallSpec::new("bench", Blob::synthetic(100, 0), 100.0, 100).with_work_units(100);
    let spec = GridSpec::confined(1, 1).with_cfg(cfg).with_plan(vec![call]);
    let mut grid = SimGrid::build(spec);
    let s0 = grid.servers[0].1;
    grid.world.schedule_control(SimTime::from_secs(60), Control::Crash(s0));
    grid.world.schedule_control(SimTime::from_secs(65), Control::Restart(s0));
    let done = grid.run_until_done(SimTime::from_secs(1000)).expect("finishes");
    let server = grid.server(0).unwrap();
    assert!(server.metrics.resumed >= 1, "must resume from checkpoint");
    assert!(server.metrics.units_resumed >= 40, "banked units survive the restart");
    // Without checkpointing the task restarts from zero after suspicion
    // (≥ 30 s) ⇒ ≥ 60 + 100 s. With a 10 s checkpoint interval, banked
    // work caps the loss: finish well before the naive bound.
    assert!(done < SimTime::from_secs(125), "took {done}");
    // And an atomic (1-unit) task under the same policy banks nothing —
    // the unit axis is what makes a task checkpointable.
    let cfg = ProtocolConfig::confined().with_checkpointing(SimDuration::from_secs(10));
    let spec = GridSpec::confined(1, 1).with_cfg(cfg).with_plan(plan(1, 30.0, 100, 100));
    let mut grid = SimGrid::build(spec);
    let s0 = grid.servers[0].1;
    grid.world.schedule_control(SimTime::from_secs(20), Control::Crash(s0));
    grid.world.schedule_control(SimTime::from_secs(25), Control::Restart(s0));
    grid.run_until_done(SimTime::from_secs(1000)).expect("finishes");
    assert_eq!(grid.server(0).unwrap().metrics.units_resumed, 0);
}

#[test]
fn grid_runs_are_deterministic() {
    let run = |seed: u64| {
        let spec = GridSpec::confined(2, 4).with_seed(seed).with_plan(plan(10, 2.0, 1000, 100));
        let mut grid = SimGrid::build(spec);
        let victim = grid.servers[1].1;
        grid.world.schedule_control(SimTime::from_secs(5), Control::Crash(victim));
        grid.run_until_done(SimTime::from_secs(2000));
        (grid.world.trace().hash(), *grid.world.stats())
    };
    let (h1, s1) = run(7);
    let (h2, s2) = run(7);
    assert_eq!(h1, h2);
    assert_eq!(s1, s2);
    let (h3, _) = run(8);
    assert_ne!(h1, h3);
}

#[test]
fn submission_timings_recorded_per_strategy() {
    for strategy in LogStrategy::ALL {
        let cfg = ProtocolConfig::confined().with_log_strategy(strategy);
        let spec = GridSpec::confined(1, 2).with_cfg(cfg).with_plan(plan(4, 0.5, 100_000, 100));
        let mut grid = SimGrid::build(spec);
        grid.run_until_done(SimTime::from_secs(600)).expect("finishes");
        let client = grid.client().unwrap();
        assert_eq!(client.metrics.submissions.len(), 4, "{}", strategy.name());
        for (seq, t) in &client.metrics.submissions {
            assert!(t.interaction_end.is_some(), "seq {seq} unfinished ({})", strategy.name());
            assert!(t.interaction_end.unwrap() >= t.requested_at);
        }
    }
}

#[test]
fn blocking_strategy_slows_submission() {
    let total_time = |strategy: LogStrategy| {
        let cfg = ProtocolConfig::confined().with_log_strategy(strategy);
        // Large parameters so the disk/net costs dominate.
        let spec = GridSpec::confined(1, 2).with_cfg(cfg).with_plan(plan(8, 0.1, 10_000_000, 100));
        let mut grid = SimGrid::build(spec);
        grid.run_until_done(SimTime::from_secs(3000)).expect("finishes");
        let client = grid.client().unwrap();
        let last =
            client.metrics.submissions.values().filter_map(|t| t.interaction_end).max().unwrap();
        let first = client.metrics.submissions.values().map(|t| t.requested_at).min().unwrap();
        last.since(first)
    };
    let t_opt = total_time(LogStrategy::Optimistic);
    let t_nb = total_time(LogStrategy::NonBlockingPessimistic);
    let t_blk = total_time(LogStrategy::BlockingPessimistic);
    assert!(t_opt <= t_nb, "optimistic {t_opt} vs non-blocking {t_nb}");
    assert!(t_nb < t_blk, "non-blocking {t_nb} vs blocking {t_blk}");
    // Paper: ≈ +30% for blocking at large sizes.
    let overhead = t_blk.as_secs_f64() / t_opt.as_secs_f64() - 1.0;
    assert!((0.1..0.6).contains(&overhead), "blocking overhead {overhead}");
}

#[test]
fn actors_are_inspectable() {
    let spec = GridSpec::confined(1, 1).with_plan(plan(1, 1.0, 100, 100));
    let mut grid = SimGrid::build(spec);
    grid.run_until_done(SimTime::from_secs(300)).unwrap();
    assert!(grid.world.actor::<ClientActor>(grid.client_node).is_some());
    assert!(grid.world.actor::<CoordinatorActor>(grid.coords[0].1).is_some());
    assert!(grid.world.actor::<ServerActor>(grid.servers[0].1).is_some());
    // Wrong downcast yields None, not UB.
    assert!(grid.world.actor::<ServerActor>(grid.client_node).is_none());
}

/// Stands in for a client (or a coordinator) at the frame level: forwards
/// what the harness injects to the coordinator, records what the grid
/// sends it and when.
struct Probe {
    coord: NodeId,
    heard: Vec<(SimTime, Msg)>,
}

impl Actor<Msg> for Probe {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if from == NodeId::EXTERNAL {
            ctx.send(self.coord, msg);
        } else {
            self.heard.push((ctx.now(), msg));
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, _kind: u64) {}
}

#[test]
fn gapped_submit_is_refused_and_acked_with_the_contiguous_prefix() {
    // A 1-shard grid: the rule is the plane's, not the sharded plane's.
    let mut grid = SimGrid::build(GridSpec::confined(1, 1));
    let (key, node, coord) = (grid.client_key, grid.client_node, grid.coords[0].1);
    grid.world.install(node, move |_| Box::new(Probe { coord, heard: Vec::new() }));
    for (at, seq) in [(1, 1), (2, 3), (3, 2), (4, 3)] {
        let spec = JobSpec::new(JobKey::new(key, seq), "bench", Blob::synthetic(64, seq));
        grid.world.inject(SimTime::from_secs(at), node, Msg::Submit { spec });
    }
    grid.world.run_until(SimTime::from_secs(5));
    let acks: Vec<(u64, u64)> = (grid.world.actor::<Probe>(node).unwrap().heard.iter())
        .filter_map(|(_, m)| match m {
            Msg::SubmitAck { job, coord_max, .. } => Some((job.seq, *coord_max)),
            _ => None,
        })
        .collect();
    // Seq 3 over the hole is refused (the ack still names it, with the
    // prefix it did not extend); once 2 fills the hole, 3 registers.
    assert_eq!(acks, [(1, 1), (3, 1), (2, 2), (3, 3)]);
    assert_eq!(grid.coordinator(0).unwrap().db().stats().jobs, 3);
}

#[test]
fn reexecuted_job_backs_off_from_its_own_first_send() {
    // A delivery record lives exactly as long as its unacknowledged log
    // entry.  A job completed and acknowledged, then executed again on the
    // same server (a second instance after a wrong suspicion — routine
    // under churn), starts its backoff over: the unanswered archive is
    // re-offered one attempt-1 horizon (2 × 2 heartbeats) after it left,
    // not an attempt-2 horizon (2² × 2 heartbeats) as if the acknowledged
    // delivery had been a lost one.
    let mut grid = SimGrid::build(GridSpec::confined(1, 1));
    let (coord, server) = (grid.coords[0].1, grid.servers[0].1);
    grid.world.install(coord, move |_| Box::new(Probe { coord, heard: Vec::new() }));
    let job = JobKey::new(grid.client_key, 1);
    let instance = |n: u64| TaskDesc {
        id: TaskId::compose(CoordId(1), n),
        job,
        attempt: n as u32 - 1,
        service: "bench".into(),
        cmdline: String::new(),
        params: Blob::synthetic(64, 1),
        exec_cost: 1.0,
        result_size_hint: 64,
        work_units: 1,
    };
    let at = SimTime::from_secs;
    grid.world.inject(at(1), server, Msg::Assign { task: instance(1), resume: None });
    grid.world.inject(at(4), server, Msg::TaskDoneAck { task: instance(1).id, job });
    grid.world.inject(at(6), server, Msg::Assign { task: instance(2), resume: None });
    grid.world.run_until(at(60));
    let heard = &grid.world.actor::<Probe>(coord).unwrap().heard;
    let sent: Vec<SimTime> = (heard.iter())
        .filter_map(|(t, m)| matches!(m, Msg::TaskDone { .. }).then_some(*t))
        .collect();
    assert_eq!(sent.len(), 2, "both instances delivered their archive");
    let reoffered = (heard.iter())
        .find(|(t, m)| {
            *t > sent[1] && matches!(m, Msg::ServerBeat { offered, .. } if offered.contains(&job))
        })
        .map(|(t, _)| *t)
        .expect("the unanswered archive is offered again");
    // First beat past the horizon: 20 s after the send, within one beat.
    let waited = reoffered.since(sent[1]);
    assert!(
        waited > SimDuration::from_secs(20) && waited <= SimDuration::from_secs(26),
        "re-offered {waited} after the second send"
    );
}

#[test]
fn the_round_below_the_floor_is_one_frame_charged_once() {
    // A bootstrap is a regular round: one `ReplDelta`, metered by the one
    // counting pass.  An inline payload travels inside the frame and is
    // charged there; only a synthetic one is bytes charged on top.  Job 1
    // is delivered and retired (the retention floor); jobs 2 and 3 stay
    // live on the one server, one with 3000 inline parameter bytes, one
    // standing for 5000 synthetic ones.
    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(4))
        .with_replication_period(SimDuration::from_secs(4));
    let plan = vec![
        CallSpec::new("bench", Blob::synthetic(100, 1), 1.0, 64),
        CallSpec::new("bench", Blob::from_vec(vec![7; 3000]), 1e6, 64),
        CallSpec::new("bench", Blob::synthetic(5000, 3), 1e6, 64),
    ];
    let mut grid = SimGrid::build(GridSpec::confined(2, 1).with_cfg(cfg).with_plan(plan));
    let (primary, (succ_id, successor)) = (grid.coords[0].1, grid.coords[1]);
    // A silent successor: suspected, so retention runs unconstrained.
    grid.world.install(successor, move |_| Box::new(Probe { coord: primary, heard: Vec::new() }));
    let at = SimTime::from_secs;
    grid.world.run_until(at(25));
    grid.world.actor_mut::<CoordinatorActor>(primary).unwrap().gc_now();
    grid.world.run_until(at(35));
    assert!(grid.coordinator(0).unwrap().db().delta_floor() > 0, "job 1 retired");
    // It comes back holding nothing: base 0 is below the floor.
    grid.world.inject(at(35), successor, Msg::ReplAck { from: succ_id, head_version: 0 });
    grid.world.run_until(at(45));
    let heard = &grid.world.actor::<Probe>(successor).unwrap().heard;
    let boots: Vec<&Msg> = (heard.iter())
        .filter_map(|(t, m)| (*t > at(35) && matches!(m, Msg::ReplDelta { .. })).then_some(m))
        .collect();
    let [boot] = boots[..] else { panic!("one round in flight at a time, got {}", boots.len()) };
    let Msg::ReplDelta { delta, .. } = boot else { unreachable!() };
    assert_eq!(delta.base_version, 0, "served from zero");
    assert_eq!(delta.retired().map(|(_, w)| w).collect::<Vec<_>>(), vec![1], "job 1's watermark");
    assert_eq!(delta.jobs().count(), 2, "the two live jobs");
    assert_eq!(boot.wire_size() - boot.encoded_len(), 5000, "each payload charged once");
    assert!(boot.encoded_len() > 3000, "the inline payload rides in the frame");
    let primary = grid.coordinator(0).unwrap();
    assert_eq!(primary.metrics.snapshots_sent, 1);
    let round = primary.metrics.repl_rounds.last().unwrap();
    assert_eq!((round.bytes, round.records), (boot.wire_size(), delta.len() as u64), "and logged");
}
