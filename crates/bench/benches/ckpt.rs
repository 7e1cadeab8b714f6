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
//! *same* checkpoint budget spread uniformly over all servers; the sweep
//! asserts the adaptive policy wastes less work at that equal budget (and
//! that every checkpointing policy wastes less than the from-scratch
//! baseline).  Results go to stdout, `target/figures/ckpt_policies.csv`,
//! and the repo-root `BENCH_ckpt.json` (validated in CI by
//! `scripts/check_bench_flatness.py`; run with `-- --smoke` for the tiny
//! CI variant — smoke artifacts must not be committed).

use rpcv_bench::{write_bench_json, Figure};
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

/// One measured cell.
struct Cell {
    policy: &'static str,
    /// Fixed interval in seconds (0 for off/adaptive).
    interval_s: f64,
    faults_per_min: f64,
    required_units: u64,
    spent_units: u64,
    wasted_units: u64,
    ckpt_uploads: u64,
    ckpt_bytes: u64,
    crashes: usize,
    makespan_s: f64,
    completed: bool,
}

fn run_cell(shape: Shape, policy: CheckpointPolicy, label: &'static str) -> Cell {
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
    Cell {
        policy: label,
        interval_s: match policy {
            CheckpointPolicy::Fixed(d) => d.as_secs_f64(),
            _ => 0.0,
        },
        faults_per_min: shape.faults_per_min,
        required_units: required,
        spent_units: spent,
        wasted_units: spent.saturating_sub(required),
        ckpt_uploads: uploads,
        ckpt_bytes: bytes,
        crashes: crashes_before_done,
        makespan_s: done.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
        completed: done.is_some() && grid.client_results() == shape.jobs,
    }
}

fn write_json(cells: &[Cell], smoke: bool) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"policy\": \"{}\", \"interval_s\": {:.3}, \"faults_per_min\": {:.1}, \
                 \"required_units\": {}, \"spent_units\": {}, \"wasted_units\": {}, \
                 \"ckpt_uploads\": {}, \"ckpt_bytes\": {}, \"crashes\": {}, \
                 \"makespan_s\": {:.1}, \"completed\": {}}}",
                c.policy,
                c.interval_s,
                c.faults_per_min,
                c.required_units,
                c.spent_units,
                c.wasted_units,
                c.ckpt_uploads,
                c.ckpt_bytes,
                c.crashes,
                c.makespan_s,
                c.completed,
            )
        })
        .collect();
    write_bench_json("ckpt", 1, smoke, "cells", &rows, &[]);
}

/// The headline acceptance, asserted on the sweep itself (and re-checked
/// on the artifact by CI): within each volatility group, the adaptive
/// policy beats the from-scratch baseline on wasted work; and wherever
/// churn is frequent enough for per-node crash history to accumulate
/// within the run (≥ 4 faults/min here), it also beats the
/// budget-matched fixed interval — equal checkpoint bytes, spent where
/// the crashes are instead of uniformly.  (Below that, adaptation is
/// dominated by the one-off cost of *learning* each node's regime; the
/// sweep still reports those cells.)
fn check_adaptive_wins(cells: &[Cell]) {
    let mut groups: Vec<f64> = cells.iter().map(|c| c.faults_per_min).collect();
    groups.dedup();
    for g in groups {
        let get = |p: &str| cells.iter().find(|c| c.faults_per_min == g && c.policy == p);
        let off = get("off").expect("baseline cell");
        let adaptive = get("adaptive").expect("adaptive cell");
        let matched = get("fixed-matched").expect("budget-matched cell");
        assert!(
            adaptive.wasted_units < off.wasted_units,
            "@{g}/min: adaptive must waste less than from-scratch \
             ({} vs {})",
            adaptive.wasted_units,
            off.wasted_units
        );
        if g < 4.0 {
            continue;
        }
        assert!(
            adaptive.wasted_units <= matched.wasted_units,
            "@{g}/min: adaptive must not waste more than the budget-matched fixed interval \
             ({} vs {} wasted at {} vs {} ckpt bytes)",
            adaptive.wasted_units,
            matched.wasted_units,
            adaptive.ckpt_bytes,
            matched.ckpt_bytes
        );
        assert!(
            adaptive.ckpt_bytes <= matched.ckpt_bytes * 13 / 10,
            "@{g}/min: the comparison must really be budget-matched \
             ({} vs {} ckpt bytes)",
            adaptive.ckpt_bytes,
            matched.ckpt_bytes
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shapes: Vec<Shape> = if smoke {
        vec![Shape {
            servers: 4,
            volatile: 2,
            jobs: 8,
            exec_secs: 40.0,
            units: 40,
            faults_per_min: 4.0,
        }]
    } else {
        vec![
            Shape {
                servers: 8,
                volatile: 4,
                jobs: 36,
                exec_secs: 60.0,
                units: 60,
                faults_per_min: 2.0, // light churn: ~120 s volatile lifetime
            },
            Shape {
                servers: 8,
                volatile: 4,
                jobs: 36,
                exec_secs: 60.0,
                units: 60,
                faults_per_min: 8.0, // heavy churn: ~30 s volatile lifetime
            },
        ]
    };
    let adaptive = CheckpointPolicy::Adaptive(AdaptiveCheckpoint {
        min: SimDuration::from_secs(2),
        max: SimDuration::from_secs(60),
        prior: SimDuration::from_secs(30),
        lifetime_divisor: 6,
    });
    let mut fig = Figure::new(
        "ckpt_policies",
        &[
            "faults_per_min",
            "interval_s",
            "required_units",
            "spent_units",
            "wasted_units",
            "ckpt_uploads",
            "ckpt_bytes",
            "crashes",
            "makespan_s",
        ],
    );
    let mut cells = Vec::new();
    for shape in shapes {
        let mut group = vec![
            run_cell(shape, CheckpointPolicy::Disabled, "off"),
            run_cell(shape, CheckpointPolicy::Fixed(SimDuration::from_secs(10)), "fixed-10"),
            run_cell(shape, CheckpointPolicy::Fixed(SimDuration::from_secs(30)), "fixed-30"),
            run_cell(shape, adaptive, "adaptive"),
        ];
        // Budget-matched fixed interval: spend the adaptive cell's realized
        // checkpoint budget uniformly — same expected upload count, spread
        // over every server alike instead of concentrated where the churn
        // is.  (1 unit ≈ 1 s of busy time in this sweep.)
        let a = group.last().expect("adaptive cell just ran");
        let matched_ms =
            (a.spent_units as f64 / a.ckpt_uploads.max(1) as f64 * 1000.0).round() as u64;
        let matched = CheckpointPolicy::Fixed(SimDuration::from_millis(matched_ms.max(1000)));
        group.push(run_cell(shape, matched, "fixed-matched"));
        for c in &group {
            assert!(
                c.completed,
                "cell {}@{}/min must run to completion",
                c.policy, c.faults_per_min
            );
            fig.row_labelled(
                c.policy,
                &[
                    c.faults_per_min,
                    c.interval_s,
                    c.required_units as f64,
                    c.spent_units as f64,
                    c.wasted_units as f64,
                    c.ckpt_uploads as f64,
                    c.ckpt_bytes as f64,
                    c.crashes as f64,
                    c.makespan_s,
                ],
            );
        }
        cells.extend(group);
    }
    fig.finish();
    check_adaptive_wins(&cells);
    write_json(&cells, smoke);
}
