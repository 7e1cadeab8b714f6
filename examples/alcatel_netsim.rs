//! The paper's real-life workload, really computed.
//!
//! Runs the Alcatel-style commutation-network validation application
//! (§5.2) on a live grid with real service execution: every task decodes a
//! random switch-network configuration, runs Dijkstra (signal loss) and
//! widest-path (bandwidth) per terminal pair, and returns a marshalled
//! report.  A coordinator is killed and restarted mid-run.
//!
//! Run with: `cargo run --release --example alcatel_netsim`

use std::time::Duration;

use rpcv::core::api::GridClient;
use rpcv::core::config::ProtocolConfig;
use rpcv::core::grid::GridSpec;
use rpcv::core::runtime::LiveGrid;
use rpcv::core::util::CallSpec;
use rpcv::simnet::SimDuration;
use rpcv::wire::{from_bytes, Blob};
use rpcv::workload::alcatel::{AlcatelApp, EvalReport};
use rpcv::xw::ServiceRegistry;

fn main() {
    let mut registry = ServiceRegistry::new();
    AlcatelApp::register(&mut registry);

    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_millis(500))
        .with_suspicion(SimDuration::from_secs(3));
    let spec = GridSpec::confined(2, 6).with_cfg(cfg).with_registry(registry);
    let grid = LiveGrid::launch(spec, 60.0);
    let mut client = GridClient::new(&grid);

    // 24 configurations; scale declared costs down so the demo runs in
    // seconds of wall time (the evaluation itself really executes).
    let app = AlcatelApp::with_tasks(24);
    let plan: Vec<CallSpec> = app
        .plan()
        .into_iter()
        .map(|mut c| {
            c.exec_cost /= 100.0;
            c
        })
        .collect();
    println!("submitting {} network-validation tasks", plan.len());
    let handles: Vec<_> = plan.into_iter().map(|c| client.call_async(c)).collect();

    // Fault injection: kill the preferred coordinator, restart it later.
    std::thread::sleep(Duration::from_millis(500));
    grid.crash_coordinator(0);
    println!("coordinator 0 killed");
    std::thread::sleep(Duration::from_millis(1500));
    grid.restart_coordinator(0);
    println!("coordinator 0 restarted from its durable state");

    let mut total_pairs = 0usize;
    let mut reachable = 0usize;
    for (i, h) in handles.iter().enumerate() {
        let blob = client.wait(*h, Duration::from_secs(120)).expect("result");
        // Results travel as archives; unpack the report.
        let archive = rpcv::xw::Archive::unpack(&blob.materialize()).expect("archive");
        let report: EvalReport =
            from_bytes(&archive.entries[0].data.materialize()).expect("report");
        let pairs = report.signal_loss_db.len();
        let ok = report
            .signal_loss_db
            .iter()
            .zip(&report.bandwidth_mbps)
            .filter(|(loss, bw)| loss.is_finite() && **bw > 0.0)
            .count();
        total_pairs += pairs;
        reachable += ok;
        if i % 6 == 0 {
            let worst = report.signal_loss_db.iter().cloned().fold(0.0, f64::max);
            println!("task {i:>2}: {pairs} terminal pairs evaluated, worst loss {worst:.1} dB");
        }
    }
    println!(
        "done — {}/{} terminal pairs reachable across 24 validated configurations",
        reachable, total_pairs
    );
    let dup = grid.with_coordinator(0, |c| c.db().stats().duplicate_results).unwrap_or(0);
    println!("at-least-once duplicates dropped by the coordinator: {dup}");
    grid.shutdown();
}

// Quiet the unused-import lint when Blob is only used in type positions on
// some toolchains.
#[allow(unused)]
fn _blob_hint(_: Blob) {}
