//! Per-layer observations read off the traced run: exact counters from the
//! actors' public metrics, span edges, the kernel profile, and host-time
//! shares from the sampled steps.

use std::collections::BTreeMap;
use std::time::Instant;

use rpcv_core::coordinator::CoordinatorActor;
use rpcv_obs::SpanEdge;
use rpcv_simnet::SimTime;
use rpcv_xw::{ClientKey, JobKey};

use crate::harness::Run;
use crate::metrics::Values;
use crate::observe::Virtual;
use crate::stats;
use crate::trace::{Class, Role, Tracer};
use crate::workload::Workload;
use crate::Baseline;

/// Message kinds whose receive counts are published one by one.
const RX_TAGS: [&str; 8] = [
    "ServerBeat",
    "ClientBeat",
    "Submit",
    "TaskDone",
    "ResultsRequest",
    "ReplDelta",
    "ReplAck",
    "ReplArchives",
];

/// What the drivers need to know about the run they follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Nodes in the grid.
    pub nodes: usize,
    /// Servers in the grid.
    pub servers: usize,
    /// Parameter bytes per call.
    pub param_bytes: u64,
    /// Result bytes per call.
    pub result_bytes: u64,
    /// Work units per call.
    pub work_units: u32,
    /// Busiest coordinator's pending tasks at mid-window.
    pub pending: u64,
    /// Its ongoing tasks.
    pub ongoing: u64,
    /// Its stored archives.
    pub archived: u64,
    /// Longest span book at the end of the run.
    pub spans: u64,
    /// Longest client log (jobs offered by the busiest client).
    pub client_log: u64,
    /// Longest server log (executions on the busiest server).
    pub server_log: u64,
    /// Jobs offered over the whole run.
    pub jobs: u64,
    /// `ServerBeat` frames the coordinators received.
    pub server_beats: u64,
    /// Delta rows the coordinators replicated.
    pub repl_rows: u64,
}

fn ms(nanos: f64) -> f64 {
    nanos / 1e6
}

fn mean(sum: u128, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

fn coordinators(run: &Run) -> impl Iterator<Item = &CoordinatorActor> {
    (0..run.grid.coords.len()).filter_map(|i| run.grid.coordinator(i))
}

/// Fills every per-layer metric that is observed rather than driven, and
/// returns the shape the drivers rebuild.
pub fn observe(
    run: &Run,
    w: &Workload,
    virt: &Virtual,
    tracer: &Tracer,
    baseline: &Baseline,
    values: &mut Values,
) -> Shape {
    let wall_s = baseline.wall_s;
    let grid = &run.grid;
    let net = grid.world.stats();
    let events = run.window_events();

    // --- simnet ---------------------------------------------------------
    values.set("simnet.events", events as f64);
    values.set("simnet.events_per_wall_s", events as f64 / wall_s);
    values.set("simnet.host_ns_per_event", wall_s * 1e9 / events.max(1) as f64);
    values.set("simnet.msgs_sent", net.sent as f64);
    values.set("simnet.msgs_dropped", net.dropped_total() as f64);
    values.set("simnet.msgs_duplicated", net.duplicated as f64);
    // Injected arrivals are delivered without ever having been sent.
    let injected = if w.open_window().is_some() { run.plan.offered() } else { 0 };
    values.set(
        "simnet.delivered_ratio",
        (net.delivered - injected) as f64 / (net.sent + net.duplicated).max(1) as f64,
    );
    let depths = tracer.sorted_depths();
    values.set("simnet.queue_depth_p50", stats::quantile(&depths, 0.50).unwrap_or(0) as f64);
    values.set("simnet.queue_depth_p99", stats::quantile(&depths, 0.99).unwrap_or(0) as f64);

    // --- host time by class ---------------------------------------------
    let times = tracer.class_times();
    let total: f64 = times.iter().map(|t| t.sum_ns).sum();
    let of = |class: Class| times[class.index()];
    values.set("simnet.nic_host_share", of(Class::Nic).sum_ns / total.max(1.0));
    for (role, layer) in [
        (Role::Coordinator, "core.coordinator"),
        (Role::Server, "core.server"),
        (Role::Client, "core.client"),
    ] {
        let (msg, timer) = (of(Class::Msg(role)), of(Class::Timer(role)));
        values.set(format!("{layer}.events"), msg.steps + timer.steps);
        values.set(format!("{layer}.host_share"), (msg.sum_ns + timer.sum_ns) / total.max(1.0));
        values.set(format!("{layer}.host_ns_per_msg"), msg.mean_ns());
        values.set(format!("{layer}.host_ns_per_timer"), timer.mean_ns());
    }
    values.set("bench.trace_overhead_ratio", tracer.root_s() / wall_s - 1.0);
    values.set("bench.trace_closure_ratio", total / 1e9 / tracer.root_s());
    values.set("bench.reps", baseline.reps as f64);
    values.set("bench.wall_spread_ratio", baseline.wall_spread);

    // --- coordinators: counters, spans ------------------------------------
    let mut rx: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut rounds, mut repl_bytes, mut repl_rows) = (0u64, 0u64, 0u64);
    let (mut acked, mut ack_ns) = (0u64, 0u128);
    let (mut sync_replies, mut catalog_bytes) = (0u64, 0u64);
    let (mut server_susp, mut coord_susp, mut reexec, mut snaps, mut rejected) = (0, 0, 0, 0, 0);
    let mut duplicate_results = 0;
    // Earliest stamp of each edge across the coordinators that saw the job.
    let mut edges: BTreeMap<JobKey, [Option<SimTime>; 4]> = BTreeMap::new();
    let mut recovery_gaps: Vec<u64> = Vec::new();
    for c in coordinators(run) {
        for (kind, n) in &c.rx_counts {
            *rx.entry(kind).or_default() += n;
        }
        let m = &c.metrics;
        rounds += m.repl_rounds.len() as u64;
        for r in &m.repl_rounds {
            repl_bytes += r.bytes;
            repl_rows += r.records;
            if let Some(at) = r.acked_at {
                acked += 1;
                ack_ns += at.since(r.started).0 as u128;
            }
        }
        sync_replies += m.sync_replies;
        catalog_bytes += m.catalog_bytes;
        server_susp += m.server_suspicions;
        coord_susp += m.coordinator_suspicions;
        reexec += m.reexecutions;
        snaps += m.snapshots_sent;
        rejected += m.ckpt_rejected;
        duplicate_results += c.db().stats().duplicate_results;
        for (key, span) in c.spans().iter() {
            let slot = edges.entry(*key).or_default();
            for (i, edge) in [
                SpanEdge::Submitted,
                SpanEdge::Dispatched,
                SpanEdge::Finished,
                SpanEdge::ArchiveStored,
            ]
            .into_iter()
            .enumerate()
            {
                if let Some(at) = span.at(edge) {
                    slot[i] = Some(slot[i].map_or(at, |old: SimTime| old.min(at)));
                }
            }
            recovery_gaps
                .extend(span.failovers.iter().filter_map(|f| f.recovery_gap()).map(|g| g.0));
        }
    }
    recovery_gaps.sort_unstable();
    let (mut wait, mut exec, mut collect) = ((0u128, 0u64), (0u128, 0u64), (0u128, 0u64));
    for (key, [submitted, dispatched, finished, stored]) in &edges {
        if let (Some(a), Some(b)) = (submitted, dispatched) {
            wait = (wait.0 + b.since(*a).0 as u128, wait.1 + 1);
        }
        if let (Some(a), Some(b)) = (dispatched, finished) {
            exec = (exec.0 + b.since(*a).0 as u128, exec.1 + 1);
        }
        let held = client_index(key.client)
            .and_then(|i| grid.client_at(i))
            .and_then(|c| c.metrics.results_received.get(&key.seq));
        if let (Some(a), Some(b)) = (stored, held) {
            collect = (collect.0 + b.since(*a).0 as u128, collect.1 + 1);
        }
    }
    let rx_total: u64 = rx.values().sum();
    values.set("core.coordinator.rx_per_job", rx_total as f64 / virt.attempted.max(1) as f64);
    for tag in RX_TAGS {
        values.set(format!("core.coordinator.rx.{tag}"), rx.get(tag).copied().unwrap_or(0) as f64);
    }
    values.set("core.coordinator.dispatch_wait_ms_mean", ms(mean(wait.0, wait.1)));
    values.set("core.coordinator.repl_rounds", rounds as f64);
    values.set("core.coordinator.repl_bytes_per_round", repl_bytes as f64 / rounds.max(1) as f64);
    values.set("core.coordinator.repl_ack_ms_mean", ms(mean(ack_ns, acked)));
    values.set(
        "core.coordinator.catalog_bytes_per_beat",
        catalog_bytes as f64 / sync_replies.max(1) as f64,
    );
    values.set("core.coordinator.server_suspicions", server_susp as f64);
    values.set("core.coordinator.coordinator_suspicions", coord_susp as f64);
    values.set("core.coordinator.reexecutions", reexec as f64);
    values.set("core.coordinator.snapshots_sent", snaps as f64);
    let busy: f64 = grid
        .world
        .class_busy_time()
        .iter()
        .filter(|(name, _)| name.starts_with("coord"))
        .map(|(_, d)| d.as_secs_f64())
        .sum();
    values.set(
        "core.coordinator.virt_util",
        busy / (grid.coords.len() as f64 * run.horizon.as_secs_f64()),
    );
    values.set("core.server.exec_ms_mean", ms(mean(exec.0, exec.1)));
    values.set("core.client.collect_wait_ms_mean", ms(mean(collect.0, collect.1)));
    values.set(
        "detect.suspicions_per_crash",
        if net.crashes == 0 { 0.0 } else { (server_susp + coord_susp) as f64 / net.crashes as f64 },
    );
    values.set(
        "detect.recovery_gap_ms_p50",
        ms(stats::quantile(&recovery_gaps, 0.50).unwrap_or(0) as f64),
    );
    values.set(
        "detect.recovery_gap_ms_p99",
        ms(stats::quantile(&recovery_gaps, 0.99).unwrap_or(0) as f64),
    );

    // --- servers ----------------------------------------------------------
    let servers: Vec<_> =
        (0..grid.servers.len()).filter_map(|i| grid.server(i)).map(|s| s.metrics).collect();
    let sum = |f: fn(&rpcv_core::server::ServerMetrics) -> u64| servers.iter().map(f).sum::<u64>();
    values.set("core.server.executed", sum(|m| m.executed) as f64);
    values.set("core.server.lost_executions", sum(|m| m.lost_executions) as f64);
    values.set("core.server.useful_unit_ratio", 1.0 / virt.work_amplification);
    values.set("core.server.archives_resent", sum(|m| m.archives_resent) as f64);
    values.set("core.server.coordinator_switches", sum(|m| m.coordinator_switches) as f64);
    let uploads = sum(|m| m.ckpt_uploads);
    values.set("ckpt.uploads", uploads as f64);
    values.set("ckpt.bytes", sum(|m| m.ckpt_bytes) as f64);
    values.set(
        "ckpt.ack_ratio",
        if uploads == 0 { 1.0 } else { sum(|m| m.ckpt_acks) as f64 / uploads as f64 },
    );
    values.set("ckpt.rejected", rejected as f64);
    values.set("ckpt.units_resumed", sum(|m| m.units_resumed) as f64);

    // --- clients ----------------------------------------------------------
    let clients: Vec<_> =
        (0..grid.client_count()).filter_map(|i| grid.client_at(i)).map(|c| &c.metrics).collect();
    values.set("core.client.interaction_ms_mean", virt.interaction_mean_ms);
    values.set("core.client.submit_lag_ms_p99", virt.submit_lag_p99_ms);
    values.set(
        "core.client.coordinator_switches",
        clients.iter().map(|m| m.coordinator_switches).sum::<u64>() as f64,
    );
    values
        .set("core.client.log_replays", clients.iter().map(|m| m.log_replays).sum::<u64>() as f64);

    // --- store, obs: the busiest coordinator at the end of the run ----------
    let busiest = coordinators(run).max_by_key(|c| c.db().stats().jobs).expect("a coordinator");
    let db = busiest.db().stats();
    values.set("store.jobs", db.jobs as f64);
    values.set("store.task_rows_per_job", db.tasks as f64 / db.jobs.max(1) as f64);
    values.set("store.duplicate_results", duplicate_results as f64);
    values.set(
        "store.resident_rows_end",
        coordinators(run).map(|c| c.db().resident_rows()).max().unwrap_or(0) as f64,
    );
    let started = Instant::now();
    let snapshot = busiest.telemetry_snapshot();
    values.set("obs.snapshot_ms", started.elapsed().as_secs_f64() * 1e3);
    values.set("obs.snapshot_seal_bytes", snapshot.seal().len() as f64);
    let spans = coordinators(run).map(|c| c.spans().len() as u64).max().unwrap_or(0);
    values.set("obs.span_book_len_end", spans as f64);

    values.set("wire.msg_bytes_mean", net.bytes_sent as f64 / net.sent.max(1) as f64);
    values.set("workload.jobs_offered", virt.jobs_offered as f64);
    values.set("workload.job_latency_mean_ms", virt.latency_mean_ms);
    values.set("workload.schedule_gen_ms", run.schedule_gen_s * 1e3);
    values.set("workload.backlog_at_window_end", run.backlog_at_window_end as f64);

    Shape {
        nodes: grid.coords.len() + grid.servers.len() + grid.clients.len(),
        servers: grid.servers.len(),
        param_bytes: w.param_bytes,
        result_bytes: w.result_bytes,
        work_units: w.work_units,
        pending: run.mid_window.pending,
        ongoing: run.mid_window.ongoing,
        archived: run.mid_window.archived,
        spans,
        client_log: run.plan.due.iter().map(|d| d.len() as u64).max().unwrap_or(0),
        server_log: servers.iter().map(|m| m.executed).max().unwrap_or(0),
        jobs: virt.attempted,
        server_beats: rx.get("ServerBeat").copied().unwrap_or(0),
        repl_rows,
    }
}

/// Client `i` is `ClientKey::new(i + 1, 1)` (`GridSpec`'s numbering).
fn client_index(key: ClientKey) -> Option<usize> {
    (key.user.0 as usize).checked_sub(1)
}
