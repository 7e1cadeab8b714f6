//! Who talks to whom: the attachment table of a small churn cell.
//!
//! Every client and server picks a coordinator from the common list and
//! moves on when it suspects it; nothing in the paper brings them back
//! together.  This example runs 3 coordinators, 48 servers (half of them
//! restarting every ~2.5 minutes each, Ni & Harwood's volatile half) and 8
//! clients at half load, crashes the coordinator serving the clients twice,
//! and prints — per coordinator and 100 simulated seconds — how many
//! `ClientBeat`s, `ServerBeat`s and `Submit`s it received (`rx_counts`).
//!
//! Read the table by columns: the clients' column jumps to another
//! coordinator at each crash and stays there.  The servers' column has to
//! follow it, or every job is registered at one coordinator, replicated to
//! the one the servers beat, dispatched and finished there, and pulled
//! back as `ReplArchives` before its client can see it.  What makes it
//! follow: a finished relayed task attaches its server to the coordinator
//! that minted it (`server.rehomes`), and a restarted server remembers
//! where home was.  Before those two rules the last column of this very
//! cell read 52 % from 600 s on (the volatile half drifted back to
//! coordinator 1, restart by restart) and 1 910 executions for 1 274 calls;
//! with them it reads 92 % two buckets after each crash (the rest are the
//! volatile half's beats to whoever they restart toward).
//!
//! The run ends by checking the cost: every result held by its client, and
//! at most 1 306 executions for the 1 274 calls.  An instance two
//! coordinators both dispatch runs twice, so a regression in who dispatches
//! a replicated `Pending` row shows here first (it read 1 308 while a
//! replica dispatched a live peer's `Pending` row the moment it arrived).
//!
//! Run with: `cargo run --release --example split_fleet`

use rpcv::core::config::ProtocolConfig;
use rpcv::core::grid::{GridSpec, SimGrid};
use rpcv::core::msg::Msg;
use rpcv::simnet::{Control, DetRng, SimDuration, SimTime};
use rpcv::wire::Blob;
use rpcv::workload::FaultPlan;

const COORDS: usize = 3;
const SERVERS: usize = 48;
const CLIENTS: usize = 8;
const KINDS: [&str; 3] = ["ClientBeat", "ServerBeat", "Submit"];
const HORIZON_S: u64 = 1200;
const BUCKET_S: u64 = 100;
/// Executions this run needs, re-executions included.
const MAX_EXECUTED: u64 = 1306;

fn main() {
    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(5))
        .with_replication_period(SimDuration::from_secs(2));
    let mut spec =
        GridSpec::confined(COORDS, SERVERS).with_seed(16).with_cfg(cfg).with_clients(CLIENTS);
    spec.coord_host = spec.coord_host.with_db_per_op(SimDuration::from_micros(100));
    let mut grid = SimGrid::build(spec);

    // Open loop: 1.2 calls/s of 20 s each on 48 servers.
    let mut rng = DetRng::new(16);
    let (mut t, mut offered) = (SimTime::from_secs(2), 0u64);
    while t < SimTime::from_secs(HORIZON_S - 100) {
        grid.world.inject(
            t,
            grid.clients[rng.below(CLIENTS as u64) as usize].1,
            Msg::ApiSubmit {
                service: "synthetic/bench".into(),
                params: Blob::synthetic(2048, offered),
                exec_cost: 20.0,
                result_size: 256,
                replication: 1,
                work_units: 10,
            },
        );
        offered += 1;
        t += SimDuration::from_secs_f64(rng.exp(1.0 / 1.2));
    }
    // The volatile half of the fleet, and two crashes of whichever
    // coordinator the clients are on (1, then its successor 2).
    let volatile: Vec<_> = grid.servers[..SERVERS / 2].iter().map(|&(_, n)| n).collect();
    FaultPlan::new()
        .poisson(
            &volatile,
            9.0,
            SimDuration::from_secs(10),
            SimTime::from_secs(10),
            SimTime::from_secs(HORIZON_S),
            16,
        )
        .apply(&mut grid.world);
    for (coord, at) in [(0, 150), (1, 450)] {
        let node = grid.coords[coord].1;
        grid.world.schedule_control(SimTime::from_secs(at), Control::Crash(node));
        grid.world.schedule_control(SimTime::from_secs(at + 12), Control::Restart(node));
    }

    println!("{offered} calls offered; coordinator 1 is down 150–162 s, coordinator 2 450–462 s");
    println!(
        "received per {BUCKET_S} sim-s (a restart zeroes a coordinator's counters: `+` marks a"
    );
    println!("bucket counted from the restart only)\n");
    print!("{:>7}", "until");
    for c in 1..=COORDS {
        print!("  | coord {c}: {:>7} {:>7} {:>6}", "client", "server", "submit");
    }
    println!("  | servers on clients' coord");
    let mut last = [[0u64; KINDS.len()]; COORDS];
    for bucket in 1..=HORIZON_S / BUCKET_S {
        grid.world.run_until(SimTime::from_secs(bucket * BUCKET_S));
        print!("{:>6}s", bucket * BUCKET_S);
        let mut delta = [[0u64; KINDS.len()]; COORDS];
        for c in 0..COORDS {
            let mut restarted = false;
            for (k, kind) in KINDS.iter().enumerate() {
                let now =
                    grid.coordinator(c).and_then(|a| a.rx_counts.get(kind).copied()).unwrap_or(0);
                restarted |= now < last[c][k];
                delta[c][k] = if now < last[c][k] { now } else { now - last[c][k] };
                last[c][k] = now;
            }
            let [client, server, submit] = delta[c];
            let mark = if restarted { '+' } else { ' ' };
            print!("  |{mark}{:>16} {server:>7} {submit:>6}", client);
        }
        // The coordinator most client beats reached, and the share of
        // server beats that reached it too.
        let home = (0..COORDS).max_by_key(|&c| delta[c][0]).unwrap();
        let servers: u64 = delta.iter().map(|d| d[1]).sum();
        println!(
            "  | {:>5.1} % on {}",
            100.0 * delta[home][1] as f64 / servers.max(1) as f64,
            home + 1
        );
    }

    let held: usize = (0..CLIENTS).map(|c| grid.client_results_at(c)).sum();
    let snap = grid.telemetry();
    println!("\n{held} of {offered} results held by their clients at {HORIZON_S} s");
    for name in [
        "server.rehomes",
        "server.coordinator_switches",
        "server.executed",
        "coord.relayed_dispatches",
        "coord.server_suspicions",
        "rx.ReplArchives",
    ] {
        println!("{name:>28}  {}", snap.counter(name));
    }
    assert_eq!(held as u64, offered, "every result reaches its client");
    let executed = snap.counter("server.executed");
    assert!(executed <= MAX_EXECUTED, "{executed} executions, at most {MAX_EXECUTED} expected");
}
