//! What a user of the grid would see, read off a finished run: exact
//! per-job latencies, goodput, delivery, bytes, wasted work — all virtual
//! time — plus the correctness checks every run must pass.

use rpcv_simnet::SimTime;

use crate::harness::Run;
use crate::stats;
use crate::workload::Workload;

/// One offered job as its client saw it.
#[derive(Debug, Clone, Copy)]
struct Job {
    due: SimTime,
    requested: Option<SimTime>,
    interaction_end: Option<SimTime>,
    held: Option<SimTime>,
}

/// The virtual-clock face of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    /// Jobs offered over the whole run (warm-up included).
    pub attempted: u64,
    /// Of those, not held exactly once by their client at the horizon.
    pub failed: u64,
    /// Jobs due inside the measured window — the latency sample's size.
    pub jobs_offered: u64,
    /// Exact median of due → held over the window's jobs, ms.
    pub latency_p50_ms: f64,
    /// Exact 99th percentile of the same sample, ms.
    pub latency_p99_ms: f64,
    /// Mean of the same sample, ms.
    pub latency_mean_ms: f64,
    /// Results received inside the window ÷ window length, jobs per sim-s.
    pub goodput: f64,
    /// `goodput` ÷ the workload's reference rate.
    pub capacity_headroom: f64,
    /// Jobs held exactly once ÷ jobs offered.
    pub delivered_ratio: f64,
    /// Bytes handed to the network from window start to horizon ÷ results
    /// received over the same span.
    pub wire_bytes_per_job: f64,
    /// Work units the servers computed ÷ units the offered jobs required.
    pub work_amplification: f64,
    /// Units computed beyond the required ones.
    pub wasted_units: u64,
    /// Mean of the three longest intervals inside the window with no result
    /// received, seconds.
    pub delivery_gap_s: f64,
    /// 99th percentile of due → requested (how late the generator ran), ms.
    pub submit_lag_p99_ms: f64,
    /// Mean of requested → submission interaction complete, ms.
    pub interaction_mean_ms: f64,
}

fn jobs_of(run: &Run) -> Vec<Job> {
    let mut out = Vec::with_capacity(run.plan.offered() as usize);
    for (c, due) in run.plan.due.iter().enumerate() {
        let metrics = run.grid.client_at(c).map(|a| &a.metrics);
        for (k, &due) in due.iter().enumerate() {
            let seq = k as u64 + 1;
            let sub = metrics.and_then(|m| m.submissions.get(&seq));
            out.push(Job {
                due,
                requested: sub.map(|s| s.requested_at),
                interaction_end: sub.and_then(|s| s.interaction_end),
                held: metrics.and_then(|m| m.results_received.get(&seq).copied()),
            });
        }
    }
    out
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Reads the virtual-clock metrics off `run`.
pub fn virtual_metrics(run: &Run, w: &Workload) -> Virtual {
    let jobs = jobs_of(run);
    let (from, to) = run.window;
    let window_s = to.since(from).as_secs_f64();
    let in_window = |t: SimTime| t >= from && t <= to;

    let sample: Vec<(u64, Option<u64>)> =
        jobs.iter().filter(|j| in_window(j.due)).map(|j| (j.due.0, j.held.map(|t| t.0))).collect();
    let latencies = stats::latency_sample(&sample, run.horizon.0);
    let mean = latencies.iter().map(|&l| l as f64).sum::<f64>() / latencies.len().max(1) as f64;

    let mut held: Vec<u64> = jobs.iter().filter_map(|j| j.held.map(|t| t.0)).collect();
    held.sort_unstable();
    let held_in_window = held.iter().filter(|&&t| in_window(SimTime(t))).count();
    let held_since_window = held.iter().filter(|&&t| t >= from.0).count();
    let goodput = held_in_window as f64 / window_s;

    let mut lags: Vec<u64> = jobs
        .iter()
        .filter(|j| in_window(j.due))
        .filter_map(|j| j.requested.map(|r| r.since(j.due).0))
        .collect();
    lags.sort_unstable();
    let interactions: Vec<u64> =
        jobs.iter().filter_map(|j| Some(j.interaction_end?.since(j.requested?).0)).collect();

    let attempted = jobs.len() as u64;
    let delivered = held.len() as u64;
    let required = attempted * w.work_units as u64;
    let spent: u64 = (0..run.grid.servers.len())
        .filter_map(|i| run.grid.server(i))
        .map(|s| s.metrics.units_spent)
        .sum();
    let bytes = run.grid.world.stats().bytes_sent - run.bytes_at_window_start;

    Virtual {
        attempted,
        failed: attempted - delivered,
        jobs_offered: latencies.len() as u64,
        latency_p50_ms: ms(stats::quantile(&latencies, 0.50).unwrap_or(0)),
        latency_p99_ms: ms(stats::quantile(&latencies, 0.99).unwrap_or(0)),
        latency_mean_ms: mean / 1e6,
        goodput,
        capacity_headroom: goodput / w.reference_rate(),
        delivered_ratio: delivered as f64 / attempted.max(1) as f64,
        wire_bytes_per_job: bytes as f64 / held_since_window.max(1) as f64,
        work_amplification: spent as f64 / required.max(1) as f64,
        wasted_units: spent.saturating_sub(required),
        delivery_gap_s: stats::longest_gaps_mean(&held, from.0, to.0, 3) / 1e9,
        submit_lag_p99_ms: ms(stats::quantile(&lags, 0.99).unwrap_or(0)),
        interaction_mean_ms: interactions.iter().map(|&l| l as f64).sum::<f64>()
            / interactions.len().max(1) as f64
            / 1e6,
    }
}

/// The correctness checks on one run's outputs; empty when all hold.
///
/// * every client holds only seqs of `1..=offered_c`, each once (results
///   are keyed by seq, so the count of results must equal the count of
///   distinct seqs);
/// * on a fault-free workload it holds *all* of them — under injected faults
///   a job still missing at the drain horizon is a failed operation, counted
///   in `failed` and `delivered_job_ratio`, not a wrong output;
/// * every held result blob has the declared result size;
/// * every server is up at the end, so its work-unit counter was readable;
/// * a fault-free workload computed no unit twice.
pub fn violations(run: &Run, w: &Workload, v: &Virtual) -> Vec<String> {
    let mut out = Vec::new();
    for (c, due) in run.plan.due.iter().enumerate() {
        let Some(client) = run.grid.client_at(c) else {
            out.push(format!("client {c} is down at the end of the run"));
            continue;
        };
        let offered = due.len() as u64;
        let seqs = &client.metrics.results_received;
        let foreign = seqs.keys().filter(|&&s| s == 0 || s > offered).count();
        let missing = offered as usize - (seqs.len() - foreign);
        if foreign > 0 || client.results_count() != seqs.len() || (missing > 0 && w.churn.is_none())
        {
            out.push(format!(
                "client {c} holds {} results under {} distinct seqs ({foreign} never offered) \
                 of {offered} offered",
                client.results_count(),
                seqs.len()
            ));
        }
        let wrong = (1..=offered)
            .filter_map(|seq| client.result_archive(seq))
            .filter(|blob| blob.len() != w.result_bytes)
            .count();
        if wrong > 0 {
            out.push(format!("client {c} holds {wrong} results of the wrong size"));
        }
    }
    let down = (0..run.grid.servers.len()).filter(|&i| run.grid.server(i).is_none()).count();
    if down > 0 {
        out.push(format!("{down} servers are down at the end of the run"));
    }
    if w.churn.is_none() && v.wasted_units != 0 {
        out.push(format!("fault-free workload wasted {} work units", v.wasted_units));
    }
    out
}
