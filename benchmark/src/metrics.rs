//! The metric catalogue: the one place a metric's name, unit, direction,
//! bound and meaning are written down.  `BENCHMARK.json` and the README's
//! tables are printed from it (`--manifest`, `--describe`), and the emitter
//! refuses a value for a name that is not here — so the three cannot drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{json, workload};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name; a per-layer name starts with its layer (the crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median it may worsen by.
    pub bound: f64,
    /// `host` or `virtual`: which clock (or `count`) the value lives on.
    pub clock: &'static str,
    /// Per-layer only: the end-to-end metrics it should move.
    pub moves: &'static str,
    /// What it is.
    pub help: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: &'static str,
    help: &'static str,
) -> Metric {
    Metric { name, unit, better, bound, clock, moves: "", help }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: &'static str,
    moves: &'static str,
    help: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: 0.0, clock, moves, help }
}

use Better::{Higher, Lower};

/// What a user of the grid would see.  Every workload reports all of them.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", Lower, 0.25, "host",
        "minimum over repetitions of the measured window's host time (window start to end of drain)"),
    e2e("setup_s", "s", Lower, 0.25, "host",
        "median over repetitions of input generation + SimGrid::build + fault scheduling + warm-up"),
    e2e("peak_rss_mb", "MB", Lower, 0.10, "host",
        "VmHWM of the workload's process at exit"),
    e2e("job_latency_p50_ms", "ms", Lower, 0.15, "virtual",
        "exact median of due -> held over the jobs due inside the window (closed loop: due = 0)"),
    e2e("job_latency_p99_ms", "ms", Lower, 0.15, "virtual",
        "exact 99th percentile of the same sample; an undelivered job enters it at the drain horizon"),
    e2e("goodput_jobs_per_sim_s", "jobs/s", Higher, 0.05, "virtual",
        "results received by their client inside the window / window length (closed loop: jobs / makespan)"),
    e2e("delivered_job_ratio", "ratio", Higher, 0.001, "virtual",
        "jobs held exactly once by their client at the drain horizon / jobs offered (1 = none failed)"),
    e2e("wire_bytes_per_job", "B", Lower, 0.03, "virtual",
        "NetStats::bytes_sent from window start to horizon / results received over the same span"),
    e2e("work_amplification", "ratio", Lower, 0.05, "virtual",
        "work units the servers computed / units the offered jobs required (1 = nothing computed twice)"),
    e2e("delivery_gap_top3_s", "s", Lower, 0.25, "virtual",
        "mean of the 3 longest intervals inside the window with no result received by any client \
         (time without service)"),
    e2e("capacity_headroom", "ratio", Higher, 0.05, "virtual",
        "goodput / offered rate (1 = keeping up, < 1 = backlog growing; closed loop: / ideal-fleet rate)"),
];

const W: &str = "wall_s";
const WB: &str = "wall_s, wire_bytes_per_job";
const LAT: &str = "job_latency_p50_ms, job_latency_p99_ms";
const REC: &str = "delivery_gap_top3_s, job_latency_p99_ms, delivered_job_ratio";
const AMP: &str = "work_amplification, wire_bytes_per_job";
const MEM: &str = "peak_rss_mb, wall_s";

/// Single layers, from the traced run and the layer drivers.  No bounds:
/// they explain an end-to-end move, they do not gate.
pub const PER_LAYER: &[Metric] = &[
    // --- simnet ---------------------------------------------------------
    layer("simnet.events", "count", Lower, "count", W,
        "kernel events processed in window + drain (bit-identical across repetitions)"),
    layer("simnet.events_per_wall_s", "1/s", Higher, "host", W,
        "those events / wall_s; a layer metric on purpose: removing events must not read as a regression"),
    layer("simnet.host_ns_per_event", "ns", Lower, "host", W, "wall_s / those events"),
    layer("simnet.msgs_sent", "count", Lower, "count", WB, "NetStats::sent over the whole run"),
    layer("simnet.msgs_dropped", "count", Lower, "count", REC,
        "NetStats::dropped_total (partition + loss + destination down)"),
    layer("simnet.msgs_duplicated", "count", Lower, "count", WB, "NetStats::duplicated"),
    layer("simnet.delivered_ratio", "ratio", Higher, "count", REC,
        "delivered / (sent + duplicated)"),
    layer("simnet.queue_depth_p50", "count", Lower, "count", W,
        "exact median event-queue depth before a sampled step (World::queue_len, traced run)"),
    layer("simnet.queue_depth_p99", "count", Lower, "count", W,
        "99th percentile of the same"),
    layer("simnet.nic_host_share", "ratio", Lower, "host", W,
        "share of sampled host time in steps that dispatched no handler (kernel only)"),
    layer("simnet.kernel_hop_ns", "ns", Lower, "host", W,
        "driver: one message hop between no-op actors in a bare World of the workload's node count"),
    layer("simnet.kernel_timer_ns", "ns", Lower, "host", W,
        "driver: one timer set + fire on the same bare World"),
    // --- core.coordinator -----------------------------------------------
    layer("core.coordinator.events", "count", Lower, "count", W,
        "kernel steps that ran a coordinator handler in window + drain (K x sampled steps)"),
    layer("core.coordinator.host_share", "ratio", Lower, "host", W,
        "share of sampled host time inside coordinator handlers"),
    layer("core.coordinator.host_ns_per_msg", "ns", Lower, "host", W,
        "mean sampled host time of one coordinator on_message step"),
    layer("core.coordinator.host_ns_per_timer", "ns", Lower, "host", W,
        "mean sampled host time of one coordinator on_timer step"),
    layer("core.coordinator.rx_per_job", "count", Lower, "count", WB,
        "messages received by coordinators / jobs offered"),
    layer("core.coordinator.rx.ServerBeat", "count", Lower, "count", W, "ServerBeat frames received"),
    layer("core.coordinator.rx.ClientBeat", "count", Lower, "count", W, "ClientBeat frames received"),
    layer("core.coordinator.rx.Submit", "count", Lower, "count", W, "Submit frames received"),
    layer("core.coordinator.rx.TaskDone", "count", Lower, "count", W, "TaskDone frames received"),
    layer("core.coordinator.rx.ResultsRequest", "count", Lower, "count", W,
        "ResultsRequest frames received"),
    layer("core.coordinator.rx.ReplDelta", "count", Lower, "count", W, "ReplDelta frames received"),
    layer("core.coordinator.rx.ReplAck", "count", Lower, "count", W, "ReplAck frames received"),
    layer("core.coordinator.rx.ReplArchives", "count", Lower, "count", W,
        "ReplArchives frames received"),
    layer("core.coordinator.dispatch_wait_ms_mean", "ms", Lower, "virtual", LAT,
        "mean of span submitted -> dispatched"),
    layer("core.coordinator.repl_rounds", "count", Lower, "count", WB, "replication rounds started"),
    layer("core.coordinator.repl_bytes_per_round", "B", Lower, "virtual", WB,
        "replication bytes / rounds"),
    layer("core.coordinator.repl_ack_ms_mean", "ms", Lower, "virtual", REC,
        "mean round start -> acknowledgement"),
    layer("core.coordinator.catalog_bytes_per_beat", "B", Lower, "virtual", WB,
        "catalog delta bytes / client sync replies"),
    layer("core.coordinator.server_suspicions", "count", Lower, "count", REC,
        "server suspicions raised"),
    layer("core.coordinator.coordinator_suspicions", "count", Lower, "count", REC,
        "predecessor suspicions raised"),
    layer("core.coordinator.reexecutions", "count", Lower, "count", AMP,
        "jobs re-executed because their archive was unrecoverable"),
    layer("core.coordinator.snapshots_sent", "count", Lower, "count", WB,
        "snapshot transfers to a replica below the retention floor"),
    layer("core.coordinator.virt_util", "ratio", Lower, "virtual", LAT,
        "coordinators' modelled NIC + db + CPU busy time / (coordinators x run length)"),
    // --- core.server ----------------------------------------------------
    layer("core.server.events", "count", Lower, "count", W,
        "kernel steps that ran a server handler in window + drain (K x sampled steps)"),
    layer("core.server.host_share", "ratio", Lower, "host", W,
        "share of sampled host time inside server handlers"),
    layer("core.server.host_ns_per_msg", "ns", Lower, "host", W,
        "mean sampled host time of one server on_message step"),
    layer("core.server.host_ns_per_timer", "ns", Lower, "host", W,
        "mean sampled host time of one server on_timer step"),
    layer("core.server.exec_ms_mean", "ms", Lower, "virtual", LAT,
        "mean of span dispatched -> finished"),
    layer("core.server.executed", "count", Lower, "count", AMP, "task executions completed"),
    layer("core.server.lost_executions", "count", Lower, "count", AMP,
        "executions lost to crashes"),
    layer("core.server.useful_unit_ratio", "ratio", Higher, "virtual", AMP,
        "units required / units computed (1 / work_amplification)"),
    layer("core.server.archives_resent", "count", Lower, "count", WB,
        "archives re-sent from the server log during synchronisation"),
    layer("core.server.coordinator_switches", "count", Lower, "count", REC,
        "coordinator switches by servers"),
    // --- core.client ----------------------------------------------------
    layer("core.client.events", "count", Lower, "count", W,
        "kernel steps that ran a client handler in window + drain (K x sampled steps)"),
    layer("core.client.host_share", "ratio", Lower, "host", W,
        "share of sampled host time inside client handlers"),
    layer("core.client.host_ns_per_msg", "ns", Lower, "host", W,
        "mean sampled host time of one client on_message step"),
    layer("core.client.host_ns_per_timer", "ns", Lower, "host", W,
        "mean sampled host time of one client on_timer step"),
    layer("core.client.collect_wait_ms_mean", "ms", Lower, "virtual", LAT,
        "mean of archive stored at a coordinator -> result held by the client"),
    layer("core.client.interaction_ms_mean", "ms", Lower, "virtual", LAT,
        "mean of requested -> submission interaction complete"),
    layer("core.client.submit_lag_ms_p99", "ms", Lower, "virtual", LAT,
        "99th percentile of due -> requested: how late the generator ran"),
    layer("core.client.coordinator_switches", "count", Lower, "count", REC,
        "coordinator switches by clients"),
    layer("core.client.log_replays", "count", Lower, "count", REC,
        "synchronisations that had to resend log entries"),
    // --- store ----------------------------------------------------------
    layer("store.jobs", "count", Lower, "count", MEM,
        "lifetime job rows on the busiest coordinator"),
    layer("store.task_rows_per_job", "ratio", Lower, "count", AMP,
        "task instances / jobs on the busiest coordinator"),
    layer("store.duplicate_results", "count", Lower, "count", AMP,
        "duplicate results dropped, all coordinators"),
    layer("store.resident_rows_end", "count", Lower, "count", MEM,
        "change-index rows on the busiest coordinator at the end of the run"),
    layer("store.register_job_ns", "ns", Lower, "host", W, "driver: register_job"),
    layer("store.next_pending_ns", "ns", Lower, "host", W, "driver: next_pending (FCFS dispatch)"),
    layer("store.complete_task_ns", "ns", Lower, "host", W, "driver: complete_task"),
    layer("store.catalog_since_ns", "ns", Lower, "host", W,
        "driver: results_catalog_since returning one batch (256) of fresh results"),
    layer("store.mark_collected_ns", "ns", Lower, "host", W, "driver: mark_collected, per seq"),
    layer("store.gc_collected_ns_per_row", "ns", Lower, "host", W, "driver: gc_collected, per row"),
    layer("store.delta_since_ns_per_row", "ns", Lower, "host", WB, "driver: delta_since, per row"),
    layer("store.apply_delta_ns_per_row", "ns", Lower, "host", W,
        "driver: apply_delta on a replica, per row"),
    layer("store.prune_retired_ns_per_row", "ns", Lower, "host", MEM,
        "driver: prune_retired, per pruned job"),
    layer("store.reconcile_server_ns", "ns", Lower, "host", W,
        "driver: reconcile_server (the per-ServerBeat call)"),
    layer("store.server_suspected_ns", "ns", Lower, "host", REC,
        "driver: server_suspected on a server holding work"),
    layer("store.snapshot_ns_per_row", "ns", Lower, "host", REC, "driver: snapshot, per live row"),
    layer("store.est_share", "ratio", Lower, "host", W,
        "sum of exact op counts x driver ns/op / wall_s: the store's estimated share of host time"),
    // --- wire -----------------------------------------------------------
    layer("wire.size_count_ns_per_msg", "ns", Lower, "host", W,
        "driver: wire_size() over the workload's message mix (every simulated send pays it)"),
    layer("wire.encode_ns_per_kb", "ns", Lower, "host", W, "driver: to_bytes over the same mix"),
    layer("wire.decode_ns_per_kb", "ns", Lower, "host", W, "driver: from_bytes over the same mix"),
    layer("wire.crc64_ns_per_kb", "ns", Lower, "host", W, "driver: crc64 over the encoded mix"),
    layer("wire.seal_open_ns_per_kb", "ns", Lower, "host", W,
        "driver: seal_frame + open_frame over the encoded mix"),
    layer("wire.msg_bytes_mean", "B", Lower, "virtual", "wire_bytes_per_job",
        "NetStats::bytes_sent / sent over the whole run"),
    // --- detect ---------------------------------------------------------
    layer("detect.observe_ns", "ns", Lower, "host", W,
        "driver: HeartbeatMonitor::observe at the workload's fleet size"),
    layer("detect.scan_idle_ns", "ns", Lower, "host", W,
        "driver: suspects() with nothing expired"),
    layer("detect.scan_expired_ns_per_suspect", "ns", Lower, "host", REC,
        "driver: suspects() with the whole fleet expired, per suspect"),
    layer("detect.suspicions_per_crash", "ratio", Lower, "count", REC,
        "suspicions raised / crashes injected"),
    layer("detect.recovery_gap_ms_p50", "ms", Lower, "virtual", REC,
        "exact median suspicion -> re-dispatch over resolved failover notes"),
    layer("detect.recovery_gap_ms_p99", "ms", Lower, "virtual", REC,
        "exact 99th percentile of the same"),
    // --- log ------------------------------------------------------------
    layer("log.sender_append_ns", "ns", Lower, "host", W, "driver: SenderLog::append"),
    layer("log.sender_ack_ns", "ns", Lower, "host", W, "driver: SenderLog::ack_up_to, per entry"),
    layer("log.peer_append_ns", "ns", Lower, "host", W, "driver: PeerLog::append"),
    layer("log.peer_offer_ns", "ns", Lower, "host", W,
        "driver: iter_unacked().take(64) at the workload's log length"),
    // --- ckpt -----------------------------------------------------------
    layer("ckpt.uploads", "count", Lower, "count", AMP, "checkpoint frames uploaded"),
    layer("ckpt.bytes", "B", Lower, "virtual", "wire_bytes_per_job",
        "modelled checkpoint state bytes shipped"),
    layer("ckpt.ack_ratio", "ratio", Higher, "count", AMP,
        "uploads acknowledged / uploaded (1 when there were none)"),
    layer("ckpt.rejected", "count", Lower, "count", AMP, "uploads rejected by a coordinator"),
    layer("ckpt.units_resumed", "count", Higher, "count", AMP,
        "work units skipped thanks to a resume point"),
    layer("ckpt.frame_seal_ns", "ns", Lower, "host", W, "driver: CheckpointFrame::seal"),
    layer("ckpt.frame_verify_ns", "ns", Lower, "host", W, "driver: CheckpointFrame::verify"),
    // --- obs ------------------------------------------------------------
    layer("obs.hist_record_ns", "ns", Lower, "host", W, "driver: Histogram::record_nanos"),
    layer("obs.span_mark_ns", "ns", Lower, "host", W,
        "driver: SpanBook::mark at the workload's span-book length"),
    layer("obs.snapshot_ms", "ms", Lower, "host", MEM,
        "one telemetry_snapshot() on the busiest coordinator at the end of the run"),
    layer("obs.snapshot_seal_bytes", "B", Lower, "count", MEM, "that snapshot, sealed"),
    layer("obs.span_book_len_end", "count", Lower, "count", MEM,
        "spans held by the busiest coordinator at the end of the run"),
    // --- workload / bench -----------------------------------------------
    layer("workload.jobs_offered", "count", Higher, "count", LAT,
        "jobs due inside the window: the latency sample's size"),
    layer("workload.job_latency_mean_ms", "ms", Lower, "virtual", LAT,
        "mean of the latency sample: what dispatch wait + exec + collect wait should add up to"),
    layer("workload.schedule_gen_ms", "ms", Lower, "host", "setup_s",
        "host time generating the arrival schedule or plan"),
    layer("workload.backlog_at_window_end", "count", Lower, "count", "capacity_headroom",
        "jobs due but not yet held when the window closed"),
    layer("bench.reps", "count", Higher, "count", W, "untraced repetitions behind this run's wall_s"),
    layer("bench.wall_spread_ratio", "ratio", Lower, "host", W,
        "(second fastest - fastest) / fastest window time over those repetitions: is the minimum confirmed"),
    layer("bench.cpu_s", "s", Lower, "host", W, "utime + stime of the process (/proc/self/stat)"),
    layer("bench.trace_overhead_ratio", "ratio", Lower, "host", W,
        "traced window wall / untraced wall_s - 1"),
    layer("bench.trace_closure_ratio", "ratio", Lower, "host", W,
        "estimated class host time, summed / the sampler pass's own window wall: do the parts add up"),
];

/// Values for one catalogue, keyed by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` for `name`.  Panics on a second value for one name:
    /// every metric is emitted exactly once.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(!self.0.contains_key(&name), "metric {name} set twice");
        self.0.insert(name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Pairs the values with `catalogue`, in catalogue order.  An error
    /// names every metric that is missing, not finite, or not catalogued.
    pub fn resolve(
        &self,
        catalogue: &'static [Metric],
    ) -> Result<Vec<(&'static Metric, f64)>, String> {
        let mut bad = Vec::new();
        let mut out = Vec::with_capacity(catalogue.len());
        for m in catalogue {
            match self.0.get(m.name) {
                Some(&v) if v.is_finite() => out.push((m, v)),
                Some(v) => bad.push(format!("{} = {v}", m.name)),
                None => bad.push(format!("{} missing", m.name)),
            }
        }
        for name in self.0.keys().filter(|n| !catalogue.iter().any(|m| m.name == n.as_str())) {
            bad.push(format!("{name} not catalogued"));
        }
        if bad.is_empty() {
            Ok(out)
        } else {
            Err(format!("bad metrics: {}", bad.join(", ")))
        }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in catalogue order.
pub fn metrics_json(resolved: &[(&'static Metric, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (m, v)) in resolved.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json::string(m.name),
            json::number(*v).expect("resolve() admits finite values only"),
            json::string(m.unit),
        );
    }
    out.push('}');
    out
}

/// How long one driver run measures: a constant of the benchmark, the same
/// on every commit.
pub const RUN_SECONDS: u64 = 20;

/// The text of the repo-root `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let workloads = workload::all();
    for (i, w) in workloads.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json::string(w.name),
            json::string(w.why),
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json::string(m.name),
            json::string(m.unit),
            json::string(m.better.word()),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json::string(m.name),
            json::string(m.unit),
            json::string(m.better.word()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The README's metric tables, as markdown.
pub fn describe_markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | clock | unit | better | bound | definition |\n|---|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} % | {} |",
            m.name,
            m.clock,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.help
        );
    }
    out.push_str(
        "\n| per-layer metric | clock | unit | better | should move | definition |\n|---|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            m.name,
            m.clock,
            m.unit,
            m.better.word(),
            m.moves,
            m.help
        );
    }
    out
}
