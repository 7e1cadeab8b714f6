//! A volatile desktop grid under churn, simulated deterministically.
//!
//! 280 Internet-connected desktop servers execute 300 tasks while servers
//! crash and restart continuously (Poisson churn, the paper's fault
//! generator).  The run is a discrete-event simulation: hours of grid time
//! pass in under a second of wall time, bit-for-bit reproducible from the
//! seed.
//!
//! Run with: `cargo run --release --example volatile_grid`

use rpcv::core::grid::{GridSpec, SimGrid};
use rpcv::simnet::{SimDuration, SimTime};
use rpcv::workload::{AlcatelApp, FaultPlan};

fn main() {
    let app = AlcatelApp { tasks: 300, seed: 42 };
    let spec = GridSpec::real_life(2, 280).with_seed(7).with_plan(app.plan());
    let mut grid = SimGrid::build(spec);

    // Churn: ~20 server crashes per minute across the fleet, 45 s downtime.
    let servers: Vec<_> = grid.servers.iter().map(|&(_, n)| n).collect();
    let plan = FaultPlan::new().poisson(
        &servers,
        20.0,
        SimDuration::from_secs(45),
        SimTime::ZERO,
        SimTime::from_secs(3600 * 6),
        99,
    );
    println!("scheduled {} crashes over the horizon", plan.crash_count());
    plan.apply(&mut grid.world);

    println!("minute  completed  crashes  duplicates");
    let mut minute = 0u64;
    let done = loop {
        grid.world.run_until(SimTime::from_secs(minute * 60));
        let completed = grid.client_results();
        let stats = grid.world.stats();
        let dup = grid.coordinator(0).map(|c| c.db().stats().duplicate_results).unwrap_or(0);
        if minute.is_multiple_of(5) || completed >= 300 {
            println!("{minute:>6}  {completed:>9}  {:>7}  {dup:>10}", stats.crashes);
        }
        if completed >= 300 {
            break Some(SimTime::from_secs(minute * 60));
        }
        minute += 1;
        if minute > 60 * 12 {
            break None;
        }
    };

    match done {
        Some(t) => {
            println!(
                "all 300 tasks completed by {t} despite {} crashes ({} messages, {:.1} MB)",
                grid.world.stats().crashes,
                grid.world.stats().sent,
                grid.world.stats().bytes_sent as f64 / 1e6,
            );
            // The whole execution, held to a constant (CI runs every example).
            // A deliberate behaviour change re-captures the hash printed
            // here and says why in CHANGES.md.
            let hash = grid.world.trace().hash();
            println!("trace hash {hash:#018x}");
            assert_eq!(hash, 0x0bac_4e2d_ff97_5cf9, "the execution moved");
        }
        None => println!("did not finish within 12 virtual hours"),
    }
}
