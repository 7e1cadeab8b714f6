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
//! The artifact (`BENCH_chaos.json`) commits to **100% survival** over
//! the full sweep: ≥ 64 seeded plans cycling the intensity ladder, every
//! plan mixing all fault families.  The bench only records verdicts; the
//! gate is `scripts/check_bench_flatness.py`, which `Artifact::finish`
//! runs on the file just written (and CI on the committed one) and whose
//! status this bench exits with — one `"survived": false` fails it.
//!
//! Every field in the artifact is virtual-time deterministic: the same
//! toolchain regenerates the file byte-identically (CI reruns the bench and
//! requires no diff), and a diff in review *is* a behavior change.  The
//! wide sweep — 12 000 plans per plane — is `tests/chaos_oracle.rs`'s
//! `oracle_soak`.

use std::fmt::Write as _;

use rpcv_bench::{Artifact, Value};
use rpcv_core::chaos::ChaosOracle;

/// Plans in the sweep (the committed artifact's contract).
const PLANS: usize = 64;

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

fn main() {
    let mut art = Artifact::new("chaos", "chaos_sweep", 2, "plans");
    let (mut survived, mut corrupt, mut dup, mut bad) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..PLANS {
        let seed = seed_of(i as u64);
        let intensity = LADDER[i % LADDER.len()];
        let r = ChaosOracle::seeded(seed, intensity).run();
        if !r.survived() {
            eprintln!("# FAIL seed {seed:#x} intensity {intensity}: {:?}", r.violations);
        }
        art.row(&[
            ("seed", Value::U64(r.seed)),
            ("intensity", Value::F64(r.intensity, 2)),
            ("survived", Value::Bool(r.survived())),
            ("crashes", Value::U64(r.counts.crashes.into())),
            ("wipes", Value::U64(r.counts.wipes.into())),
            ("partitions", Value::U64(r.counts.partitions.into())),
            ("bursts", Value::U64(r.counts.bursts.into())),
            ("corrupt_frames", Value::U64(r.stats.corrupted)),
            ("dup_frames", Value::U64(r.stats.duplicated)),
            ("reordered_frames", Value::U64(r.stats.reordered)),
            ("lost_frames", Value::U64(r.stats.dropped_loss)),
            ("bad_frames", Value::U64(r.bad_frames)),
            ("jobs", Value::U64(r.jobs)),
            ("results", Value::U64(r.results)),
            ("recovery_makespan_s", Value::F64(r.recovery_makespan.as_secs_f64(), 3)),
            ("recovery_gap_hist", Value::Json(hist_json(&r.recovery_gaps))),
        ]);
        survived += u64::from(r.survived());
        corrupt += r.stats.corrupted;
        dup += r.stats.duplicated;
        bad += r.bad_frames;
    }
    println!(
        "# chaos sweep: {survived}/{PLANS} plans survived \
         ({corrupt} corrupt, {dup} dup, {bad} poison frames absorbed)"
    );
    art.finish(&[
        "\"totals\": {".to_owned(),
        format!("  \"plans\": {PLANS},"),
        format!("  \"survived\": {survived},"),
        format!("  \"corrupt_frames\": {corrupt},"),
        format!("  \"dup_frames\": {dup},"),
        format!("  \"bad_frames\": {bad}"),
        "}".to_owned(),
    ]);
}
