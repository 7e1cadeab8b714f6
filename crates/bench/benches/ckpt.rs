//! Checkpoint-policy bench — wasted work vs checkpoint bytes paid.
//!
//! Not a paper figure: RPC-V's baseline re-executes a crashed server's
//! task from unit zero, and the paper defers checkpointing to future work
//! (§6).  This harness quantifies the `rpcv-ckpt` subsystem on a grid
//! with *heterogeneous* volatility — half the servers churn (Poisson
//! crash/restart), half are stable — which is exactly the regime where
//! Ni & Harwood's interval adaptation pays: checkpoint often where
//! crashes happen, rarely where they do not.
//!
//! Per cell (volatility × policy) the sweep reports:
//!
//! * `wasted_units` — work units computed beyond the workload's declared
//!   total: partial progress thrown away by crashes plus duplicate
//!   executions.  `ServerMetrics::units_spent` accounts both exactly;
//! * `ckpt_bytes` / `ckpt_uploads` — the modelled checkpoint state
//!   shipped to coordinators: the budget a policy pays;
//! * `makespan_s`, completion counts.
//!
//! The headline comparison is **budget-matched**: after the adaptive cell
//! runs, a `fixed-matched` cell is constructed whose interval spends the
//! *same* checkpoint budget spread uniformly over all servers.  The gate
//! (`scripts/check_bench_flatness.py`, run by `Artifact::finish` on the
//! file just written and by CI on the committed one — nothing is asserted
//! here) holds the headline: within each volatility group the adaptive
//! policy wastes less than the from-scratch baseline, and wherever churn is
//! frequent enough for per-node crash history to accumulate within the run
//! (≥ 4 faults/min) no more than the budget-matched fixed interval — equal
//! checkpoint bytes, spent where the crashes are instead of uniformly.
//! (Below that, adaptation is dominated by the one-off cost of *learning*
//! each node's regime; the sweep still reports those cells.)  Results go to
//! stdout, `target/figures/ckpt_policies.csv` and the repo-root
//! `BENCH_ckpt.json`.  Virtual time only: CI reruns the sweep and requires
//! no diff.

use rpcv_bench::{Artifact, Value};
use rpcv_ckpt::{AdaptiveCheckpoint, CheckpointPolicy};
use rpcv_core::config::ProtocolConfig;
use rpcv_core::grid::{GridSpec, SimGrid};
use rpcv_simnet::{SimDuration, SimTime};
use rpcv_workload::{FaultPlan, SyntheticBench};

/// The grid shape of one sweep configuration.
#[derive(Clone, Copy)]
struct Shape {
    servers: usize,
    volatile: usize,
    jobs: usize,
    exec_secs: f64,
    units: u32,
    /// Aggregate Poisson fault rate across the volatile servers.
    faults_per_min: f64,
}

/// Runs one cell; returns its row — `BENCH_ckpt.json`'s keys and the CSV
/// header, named here once (`interval_s` is 0 for off/adaptive) — and the
/// `(units spent, checkpoint uploads)` a budget-matched interval is derived
/// from.
fn run_cell(
    shape: Shape,
    policy: CheckpointPolicy,
    label: &'static str,
) -> (Vec<(&'static str, Value<'static>)>, u64, u64) {
    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(5))
        .with_checkpoint_policy(policy);
    let bench = SyntheticBench {
        calls: shape.jobs,
        param_bytes: 2048,
        exec_secs: shape.exec_secs,
        result_bytes: 256,
        replication: 1,
        work_units: shape.units,
        seed: 0xC4917,
    };
    let spec = GridSpec::confined(2, shape.servers).with_cfg(cfg).with_plan(bench.plan());
    let mut grid = SimGrid::build(spec);
    // Churn the volatile half from start to well past any plausible
    // makespan; the stable half never faults.
    let targets: Vec<_> = grid.servers.iter().take(shape.volatile).map(|&(_, n)| n).collect();
    let downtime = SimDuration::from_secs(10);
    let plan = FaultPlan::new().poisson(
        &targets,
        shape.faults_per_min,
        downtime,
        SimTime::from_secs(1),
        SimTime::from_secs(3600),
        0xFA57 ^ shape.faults_per_min.to_bits(),
    );
    let crashes_scheduled = plan.crash_count();
    plan.apply(&mut grid.world);
    let done = grid.run_until_done(SimTime::from_secs(3600));
    // Let in-flight restarts land so every server's durable metrics (the
    // units its crashes burned) are readable again.
    for _ in 0..20 {
        if (0..shape.servers).all(|i| grid.server(i).is_some()) {
            break;
        }
        grid.world.run_for(downtime);
    }
    let mut spent = 0u64;
    let mut uploads = 0u64;
    let mut bytes = 0u64;
    for i in 0..shape.servers {
        let m = grid.server(i).expect("server restarted").metrics;
        spent += m.units_spent;
        uploads += m.ckpt_uploads;
        bytes += m.ckpt_bytes;
    }
    let required = shape.jobs as u64 * shape.units as u64;
    let crashes_before_done = done
        .map(|d| {
            // Crashes after completion cannot waste workload units.
            let horizon = d.as_secs_f64();
            (crashes_scheduled as f64 * (horizon / 3599.0).min(1.0)) as usize
        })
        .unwrap_or(crashes_scheduled);
    let interval_s = match policy {
        CheckpointPolicy::Fixed(d) => d.as_secs_f64(),
        _ => 0.0,
    };
    let row = vec![
        ("policy", Value::Str(label)),
        ("interval_s", Value::F64(interval_s, 3)),
        ("faults_per_min", Value::F64(shape.faults_per_min, 1)),
        ("required_units", Value::U64(required)),
        ("spent_units", Value::U64(spent)),
        ("wasted_units", Value::U64(spent.saturating_sub(required))),
        ("ckpt_uploads", Value::U64(uploads)),
        ("ckpt_bytes", Value::U64(bytes)),
        ("crashes", Value::U64(crashes_before_done as u64)),
        ("makespan_s", Value::F64(done.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN), 1)),
        ("completed", Value::Bool(done.is_some() && grid.client_results() == shape.jobs)),
    ];
    (row, spent, uploads)
}

fn main() {
    let shape = |faults_per_min| Shape {
        servers: 8,
        volatile: 4,
        jobs: 36,
        exec_secs: 60.0,
        units: 60,
        faults_per_min,
    };
    // Light churn (~120 s volatile lifetime), then heavy (~30 s).
    let shapes = [shape(2.0), shape(8.0)];
    let adaptive = CheckpointPolicy::Adaptive(AdaptiveCheckpoint {
        min: SimDuration::from_secs(2),
        max: SimDuration::from_secs(60),
        prior: SimDuration::from_secs(30),
        lifetime_divisor: 6,
    });
    let mut art = Artifact::new("ckpt", "ckpt_policies", 1, "cells");
    for shape in shapes {
        for (policy, label) in [
            (CheckpointPolicy::Disabled, "off"),
            (CheckpointPolicy::Fixed(SimDuration::from_secs(10)), "fixed-10"),
            (CheckpointPolicy::Fixed(SimDuration::from_secs(30)), "fixed-30"),
        ] {
            art.row(&run_cell(shape, policy, label).0);
        }
        let (row, spent, uploads) = run_cell(shape, adaptive, "adaptive");
        art.row(&row);
        // Budget-matched fixed interval: spend the adaptive cell's realized
        // checkpoint budget uniformly — same expected upload count, spread
        // over every server alike instead of concentrated where the churn
        // is.  (1 unit ≈ 1 s of busy time in this sweep.)
        let matched_ms = (spent as f64 / uploads.max(1) as f64 * 1000.0).round() as u64;
        let matched = CheckpointPolicy::Fixed(SimDuration::from_millis(matched_ms.max(1000)));
        art.row(&run_cell(shape, matched, "fixed-matched").0);
    }
    art.finish(&[]);
}
