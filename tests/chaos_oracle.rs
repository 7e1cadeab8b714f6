//! End-to-end chaos sweep: the [`ChaosOracle`] drives a full confined
//! grid under seeded fault plans mixing crash-restart storms, partition
//! churn, disk wipes and wire-fault bursts, then audits the post-heal
//! safety invariants.  The sweep must hold at *every* seed × intensity —
//! one surviving seed is luck, a property is a guarantee.

use proptest::prelude::*;
use rpcv::core::chaos::{ChaosConfig, ChaosOracle};
use rpcv::simnet::SimTime;
use rpcv::wire::mix64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Safety under arbitrary seeded chaos: the grid completes, delivers
    /// every result exactly once, never re-executes collected work, and
    /// accounts every corrupted frame as a typed drop.
    #[test]
    fn oracle_survives_any_seed_and_intensity(
        seed in any::<u64>(),
        intensity_pct in 5u32..=100,
    ) {
        let intensity = intensity_pct as f64 / 100.0;
        let report = ChaosOracle::seeded(seed, intensity).run();
        prop_assert!(
            report.survived(),
            "seed {seed:#x} intensity {intensity:.2} violated: {:?}",
            report.violations
        );
        prop_assert_eq!(report.results, report.jobs);
        // The generator promises every fault family at any intensity.
        prop_assert!(report.counts.crashes >= 1, "plan must crash someone");
        prop_assert!(report.counts.partitions >= 1, "plan must partition");
        prop_assert!(report.counts.wipes >= 1, "plan must wipe a disk");
        prop_assert!(report.counts.bursts >= 1, "plan must degrade the fabric");
        prop_assert!(
            report.counts.heals + report.counts.restarts
                == report.counts.partitions + report.counts.crashes,
            "every fault heals"
        );
        // Wire-fault accounting: every corruption is either garbled
        // (delivered mangled) or poisoned (typed drop), nothing vanishes.
        prop_assert_eq!(report.garbled + report.poisoned, report.stats.corrupted);
        prop_assert!(report.bad_frames <= report.poisoned);
    }

    /// The same safety sweep on a *sharded* coordinator plane: two shards,
    /// four clients (hashing across both), every invariant unchanged —
    /// exactly-once per owning client, post-heal quiescence, monotone
    /// completion, drained deltas, and exact corruption accounting.  Shard
    /// count must never weaken a safety guarantee.
    #[test]
    fn sharded_oracle_holds_every_invariant(
        seed in any::<u64>(),
        intensity_pct in 5u32..=100,
    ) {
        let intensity = intensity_pct as f64 / 100.0;
        let cfg = ChaosConfig::new(seed, intensity).with_shards(2, 4);
        let report = ChaosOracle::new(cfg).run();
        prop_assert!(
            report.survived(),
            "sharded seed {seed:#x} intensity {intensity:.2} violated: {:?}",
            report.violations
        );
        prop_assert_eq!(report.results, report.jobs);
        prop_assert_eq!(report.garbled + report.poisoned, report.stats.corrupted);
        prop_assert!(report.bad_frames <= report.poisoned);
    }

    /// The whole oracle — plan, grid, verdict — replays bit-identically
    /// from its seed, so any sweep failure is a one-line repro.
    #[test]
    fn oracle_verdict_is_replayable(seed in any::<u64>()) {
        let a = ChaosOracle::seeded(seed, 0.6).run();
        let b = ChaosOracle::seeded(seed, 0.6).run();
        prop_assert_eq!(a.done_at, b.done_at);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.bad_frames, b.bad_frames);
        prop_assert_eq!(a.violations, b.violations);
    }
}

/// One plan of the soak's cell: the standard cell (flat) or two shards ×
/// four clients, given 900 s of virtual time.  `Err` is the one-line repro.
fn soak_plan(sharded: bool, seed: u64, intensity: f64) -> Result<(), String> {
    let mut cfg = ChaosConfig::new(seed, intensity);
    cfg.horizon = SimTime::from_secs(900);
    if sharded {
        cfg = cfg.with_shards(2, 4);
    }
    let report = ChaosOracle::new(cfg).run();
    if report.survived() {
        return Ok(());
    }
    let plane = if sharded { "sharded" } else { "flat" };
    Err(format!("{plane} ({seed:#x}, {intensity}): {:?}", report.violations))
}

/// Plans the soak found, kept: `(sharded, seed, intensity)`.  Each once
/// ended with every node alive, healed and idle and one job undeliverable
/// for good.  Flat: both coordinators dispatch one replicated `Pending` row,
/// bounce, and each server re-homes to the other — a restarted coordinator
/// must watch the servers it forwarded to.  Sharded: a server delivers to a
/// coordinator that knows the job but not yet the instance — the result
/// must enter the replication feed all the same.
const NAMED_PLANS: &[(bool, u64, f64)] = &[
    (false, 0x3659_9a4d_9611_35b4, 0.727),
    (false, 0xc473_1438_e4e2_1a79, 0.817),
    (true, 0xb8b1_f126_0cbe_76f0, 0.913),
    (true, 0x20cd_7553_4647_4b30, 0.56),
];

#[test]
fn named_plans_deliver_every_job() {
    let failed: Vec<String> = NAMED_PLANS
        .iter()
        .filter_map(|&(sharded, seed, intensity)| soak_plan(sharded, seed, intensity).err())
        .collect();
    assert!(failed.is_empty(), "{} named plans failed:\n{}", failed.len(), failed.join("\n"));
}

/// The wide sweep: 12 000 plans per plane derived from a counter, every
/// failure printed as a one-line repro (≈ 4 min in release; CI runs it as
/// a job of its own).  A plan it finds moves into [`NAMED_PLANS`].
#[test]
#[ignore = "soak: cargo test --release --test chaos_oracle -- --ignored"]
fn oracle_soak() {
    const N: u64 = 12_000;
    let mut failed = Vec::new();
    for sharded in [false, true] {
        for i in 0..N {
            let seed = mix64(i ^ 0xABCD_EF01);
            let intensity = 0.05 + 0.95 * ((mix64(seed) % 1000) as f64 / 1000.0);
            failed.extend(soak_plan(sharded, seed, intensity).err());
        }
    }
    assert!(
        failed.is_empty(),
        "{} of {} plans failed:\n{}",
        failed.len(),
        2 * N,
        failed.join("\n")
    );
}

/// The open-loop cell: four clients offer ≈ 290 short calls over a minute
/// at Poisson instants while every link loses 10 % of its frames from 5 s
/// to 55 s — no crash, no partition, the coordinators serve throughout.
/// Plain loss reorders nothing but *gaps* a client's submissions, and a
/// registration that accepts a gap talks the client out of replaying the
/// lost ones (16–31 jobs stranded for good on each of these seeds before
/// gap refusal ran on the flat plane).  After a 900 s drain every client
/// holds exactly the seqs it offered.
#[test]
fn lossy_open_loop_delivers_every_job() {
    use rpcv::core::config::ProtocolConfig;
    use rpcv::core::grid::{GridSpec, SimGrid};
    use rpcv::core::msg::Msg;
    use rpcv::simnet::{Control, DetRng, LinkParams, SimDuration, SimTime};

    let mut stranded = Vec::new();
    for seed in 1..=20u64 {
        let cfg = ProtocolConfig::confined()
            .with_heartbeat(SimDuration::from_secs(1))
            .with_suspicion(SimDuration::from_secs(5))
            .with_replication_period(SimDuration::from_secs(2));
        let spec = GridSpec::confined(2, 8).with_seed(seed).with_cfg(cfg).with_clients(4);
        let base = spec.link;
        let mut g = SimGrid::build(spec);
        let mut rng = DetRng::new(seed ^ 0x0BE7_100B);
        let mut offered = [0u64; 4];
        for (c, n) in offered.iter_mut().enumerate() {
            let mut at = 0.0;
            loop {
                at += rng.exp(60.0 / 72.0);
                if at >= 60.0 {
                    break;
                }
                *n += 1;
                let call = Msg::ApiSubmit {
                    service: "chaos".into(),
                    params: rpcv::wire::Blob::synthetic(512, seed ^ (*n << 8) ^ c as u64),
                    exec_cost: 0.5,
                    result_size: 128,
                    replication: 1,
                    work_units: 1,
                };
                g.world.inject(SimTime::from_secs_f64(at), g.clients[c].1, call);
            }
        }
        let lossy = Control::SetDefaultLink { params: LinkParams { loss: 0.10, ..base } };
        g.world.schedule_control(SimTime::from_secs(5), lossy);
        g.world.schedule_control(SimTime::from_secs(55), Control::SetDefaultLink { params: base });
        g.world.run_until(SimTime::from_secs(60 + 900));
        for (c, &n) in offered.iter().enumerate() {
            let held = &g.client_at(c).expect("clients never crash").metrics.results_received;
            if !held.keys().copied().eq(1..=n) {
                stranded.push((seed, c, n - held.len() as u64));
            }
        }
    }
    assert!(stranded.is_empty(), "(seed, client, jobs missing): {stranded:?}");
}
