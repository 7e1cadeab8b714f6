//! Chaos-survival sweep — the robustness headline as an artifact.
//!
//! Not a paper figure: RPC-V's evaluation injects one fault family at a
//! time (crash matrices in §5, partitions in Fig. 11).  This harness
//! composes them: every plan is a seeded [`FaultPlan`] mixing
//! crash-restart storms, partition churn, disk wipes and wire-fault
//! bursts (loss / duplication / corruption / reordering), driven through
//! the [`ChaosOracle`] which audits the post-heal safety invariants —
//! exactly-once delivery, no re-execution of collected work, monotone
//! metrics, every corrupted frame accounted as a typed drop.
//!
//! The artifact (`BENCH_chaos.json`, validated in CI by
//! `scripts/check_bench_flatness.py`) commits to **100% survival** over
//! the full sweep: ≥ 64 seeded plans cycling the intensity ladder, every
//! plan mixing all fault families.  Run with `-- --smoke` for the tiny CI
//! variant — smoke artifacts must not be committed.
//!
//! Every field in the artifact is virtual-time deterministic: the same
//! toolchain regenerates it byte-identically, so a diff in review *is*
//! a behavior change.

use std::fmt::Write as _;

use rpcv_bench::{write_bench_json, Figure};
use rpcv_core::chaos::{ChaosOracle, ChaosReport};

/// Intensity ladder the sweep cycles through: from light background
/// noise to every-family-at-maximum mayhem.
const LADDER: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Seed stream: splitmix-style odd-gamma stride keeps the seeds
/// well-spread without a runtime RNG (the sweep must be reproducible).
fn seed_of(i: u64) -> u64 {
    0xC4A0_5EED_u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The per-plan post-heal recovery-gap histogram (suspicion →
/// re-dispatch, virtual time) as compact JSON: quantiles in milliseconds
/// plus the nonzero log2 buckets, deterministic because virtual time is.
fn hist_json(h: &rpcv_obs::Histogram) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"count\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"buckets\": [",
        h.count(),
        h.p50_nanos() as f64 / 1e6,
        h.p99_nanos() as f64 / 1e6,
    );
    for (i, (b, n)) in h.nonzero().enumerate() {
        let comma = if i > 0 { ", " } else { "" };
        let _ = write!(s, "{comma}[{b}, {n}]");
    }
    let _ = write!(s, "]}}");
    s
}

fn write_json(reports: &[ChaosReport], smoke: bool) {
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"seed\": {}, \"intensity\": {:.2}, \"survived\": {}, \
                 \"crashes\": {}, \"wipes\": {}, \"partitions\": {}, \"bursts\": {}, \
                 \"corrupt_frames\": {}, \"dup_frames\": {}, \"reordered_frames\": {}, \
                 \"lost_frames\": {}, \"bad_frames\": {}, \"jobs\": {}, \"results\": {}, \
                 \"recovery_makespan_s\": {:.3}, \"recovery_gap_hist\": {}}}",
                r.seed,
                r.intensity,
                r.survived(),
                r.counts.crashes,
                r.counts.wipes,
                r.counts.partitions,
                r.counts.bursts,
                r.stats.corrupted,
                r.stats.duplicated,
                r.stats.reordered,
                r.stats.dropped_loss,
                r.bad_frames,
                r.jobs,
                r.results,
                r.recovery_makespan.as_secs_f64(),
                hist_json(&r.recovery_gaps),
            )
        })
        .collect();
    let sum = |f: fn(&ChaosReport) -> u64| reports.iter().map(f).sum::<u64>();
    let totals = [
        "\"totals\": {".to_owned(),
        format!("  \"plans\": {},", reports.len()),
        format!("  \"survived\": {},", reports.iter().filter(|r| r.survived()).count()),
        format!("  \"corrupt_frames\": {},", sum(|r| r.stats.corrupted)),
        format!("  \"dup_frames\": {},", sum(|r| r.stats.duplicated)),
        format!("  \"bad_frames\": {}", sum(|r| r.bad_frames)),
        "}".to_owned(),
    ];
    write_bench_json("chaos", 2, smoke, "plans", &rows, &totals);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let plans = if smoke { 6 } else { 64 };
    let mut fig = Figure::new(
        "chaos_sweep",
        &[
            "seed",
            "intensity",
            "crashes",
            "wipes",
            "partitions",
            "bursts",
            "corrupt_frames",
            "dup_frames",
            "bad_frames",
            "recovery_makespan_s",
        ],
    );
    let mut reports = Vec::with_capacity(plans);
    let mut failed = 0usize;
    for i in 0..plans {
        let seed = seed_of(i as u64);
        let intensity = LADDER[i % LADDER.len()];
        let r = ChaosOracle::seeded(seed, intensity).run();
        if !r.survived() {
            failed += 1;
            eprintln!("# FAIL seed {seed:#x} intensity {intensity}: {:?}", r.violations);
        }
        fig.row_labelled(
            if r.survived() { "ok" } else { "FAIL" },
            &[
                seed as f64,
                intensity,
                r.counts.crashes as f64,
                r.counts.wipes as f64,
                r.counts.partitions as f64,
                r.counts.bursts as f64,
                r.stats.corrupted as f64,
                r.stats.duplicated as f64,
                r.bad_frames as f64,
                r.recovery_makespan.as_secs_f64(),
            ],
        );
        reports.push(r);
    }
    fig.finish();
    write_json(&reports, smoke);
    println!(
        "# chaos sweep: {}/{} plans survived ({} corrupt, {} dup, {} poison frames absorbed)",
        reports.len() - failed,
        reports.len(),
        reports.iter().map(|r| r.stats.corrupted).sum::<u64>(),
        reports.iter().map(|r| r.stats.duplicated).sum::<u64>(),
        reports.iter().map(|r| r.bad_frames).sum::<u64>(),
    );
    if failed > 0 {
        eprintln!("# FATAL: {failed} plan(s) violated a safety invariant");
        std::process::exit(1);
    }
}
