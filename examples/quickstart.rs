//! Quickstart: a live RPC-V grid in one process.
//!
//! Starts two coordinators and four servers on the wall-clock runtime,
//! registers a real stateless service, submits calls through the
//! GridRPC-style API, and — because this is RPC-V — kills the preferred
//! coordinator mid-run and keeps going.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Duration;

use rpcv::core::api::GridClient;
use rpcv::core::config::ProtocolConfig;
use rpcv::core::grid::GridSpec;
use rpcv::core::runtime::LiveGrid;
use rpcv::core::util::CallSpec;
use rpcv::simnet::SimDuration;
use rpcv::wire::{from_bytes, to_bytes, Blob};
use rpcv::xw::{ServiceError, ServiceRegistry};

fn main() {
    // 1. A stateless service: sum of squares over a marshalled Vec<u64>.
    let mut registry = ServiceRegistry::new();
    registry.register("math/sum_of_squares", |params: &Blob, _ctx| {
        let numbers: Vec<u64> = from_bytes(&params.materialize())
            .map_err(|e| ServiceError::ExecutionFailed(e.to_string()))?;
        let sum: u64 = numbers.iter().map(|n| n * n).sum();
        Ok(Blob::from_vec(to_bytes(&sum)))
    });

    // 2. A grid: 2 coordinators, 4 servers, real service execution.
    //    Aggressive timers + 30× time compression keep the demo snappy.
    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_millis(500))
        .with_suspicion(SimDuration::from_secs(3));
    let spec = GridSpec::confined(2, 4).with_cfg(cfg).with_registry(registry);
    let grid = LiveGrid::launch(spec, 30.0);
    let mut client = GridClient::new(&grid);
    println!("grid up: 2 coordinators, 4 servers");

    // 3. Submit asynchronous calls (GridRPC grpc_call_async).
    let handles: Vec<_> = (1..=8u64)
        .map(|i| {
            let numbers: Vec<u64> = (1..=i * 10).collect();
            let call = CallSpec::new(
                "math/sum_of_squares",
                Blob::from_vec(to_bytes(&numbers)),
                0.5, // declared half-second execution
                16,
            );
            client.call_async(call)
        })
        .collect();
    println!("submitted {} calls", handles.len());

    // 4. Kill the preferred coordinator mid-run. RPC-V shrugs.
    std::thread::sleep(Duration::from_millis(300));
    grid.crash_coordinator(0);
    println!("killed the preferred coordinator — failover in progress");

    // 5. Collect every result (grpc_wait).
    for (i, h) in handles.iter().enumerate() {
        let blob = client.wait(*h, Duration::from_secs(60)).expect("result");
        // Real-mode results travel as archives (the server's log format).
        let archive = rpcv::xw::Archive::unpack(&blob.materialize()).expect("archive");
        let sum: u64 = from_bytes(&archive.entries[0].data.materialize()).expect("decode");
        let n = (i as u64 + 1) * 10;
        let expect: u64 = (1..=n).map(|x| x * x).sum();
        assert_eq!(sum, expect, "service must compute correctly");
        println!("call {:>2}: sum of squares 1..={n:<3} = {sum}", i + 1);
    }

    let switches = grid.with_client(|c| c.metrics.coordinator_switches).unwrap_or(0);
    println!("done — all 8 results correct, {switches} coordinator switch(es) along the way");
    grid.shutdown();
}
