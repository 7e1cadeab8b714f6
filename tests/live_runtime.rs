//! The wall-clock runtime and the GridRPC-style API, end to end.

use std::time::Duration;

use rpcv::core::api::{GridClient, GridError};
use rpcv::core::config::ProtocolConfig;
use rpcv::core::grid::GridSpec;
use rpcv::core::runtime::LiveGrid;
use rpcv::core::util::CallSpec;
use rpcv::simnet::SimDuration;
use rpcv::wire::{from_bytes, to_bytes, Blob};
use rpcv::xw::{Archive, ServiceError, ServiceRegistry};

fn registry() -> ServiceRegistry {
    let mut r = ServiceRegistry::new();
    r.register("test/double", |params: &Blob, _| {
        let v: u64 = from_bytes(&params.materialize())
            .map_err(|e| ServiceError::ExecutionFailed(e.to_string()))?;
        Ok(Blob::from_vec(to_bytes(&(v * 2))))
    });
    r
}

fn fast_cfg() -> ProtocolConfig {
    ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_millis(200))
        .with_suspicion(SimDuration::from_secs(2))
}

fn decode_result(blob: Blob) -> u64 {
    let archive = Archive::unpack(&blob.materialize()).expect("archive frame");
    from_bytes(&archive.entries[0].data.materialize()).expect("payload")
}

#[test]
fn call_roundtrip_with_real_execution() {
    let spec = GridSpec::confined(1, 2).with_cfg(fast_cfg()).with_registry(registry());
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let call = CallSpec::new("test/double", Blob::from_vec(to_bytes(&21u64)), 0.1, 16);
    let result = client.call(call, Duration::from_secs(30)).expect("blocking call");
    assert_eq!(decode_result(result), 42);
    grid.shutdown();
}

#[test]
fn api_handles_number_after_the_clients_plan() {
    // The client logs its plan first, so its API calls take the seqs after
    // it: a handle numbered from 1 would name the plan's result (10).
    let double = |v: u64| CallSpec::new("test/double", Blob::from_vec(to_bytes(&v)), 0.1, 16);
    let spec = GridSpec::confined(1, 2)
        .with_cfg(fast_cfg())
        .with_registry(registry())
        .with_plan(vec![double(5)]);
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let result = client.call(double(21), Duration::from_secs(30)).expect("blocking call");
    assert_eq!(decode_result(result), 42);
    let h = client.call_async(double(4));
    client.wait_all(Duration::from_secs(30)).expect("the API call completes");
    assert!(client.probe(h));
    assert_eq!(decode_result(client.wait(h, Duration::from_secs(5)).unwrap()), 8);
    grid.shutdown();
}

#[test]
fn async_calls_probe_and_wait_all() {
    let spec = GridSpec::confined(1, 3).with_cfg(fast_cfg()).with_registry(registry());
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            client.call_async(CallSpec::new("test/double", Blob::from_vec(to_bytes(&i)), 0.1, 16))
        })
        .collect();
    client.wait_all(Duration::from_secs(60)).expect("all complete");
    for (i, h) in handles.iter().enumerate() {
        assert!(client.probe(*h), "probe after completion");
        let v = decode_result(client.wait(*h, Duration::from_secs(5)).unwrap());
        assert_eq!(v, i as u64 * 2);
    }
    grid.shutdown();
}

#[test]
fn cancel_is_local_only() {
    let spec = GridSpec::confined(1, 1).with_cfg(fast_cfg()).with_registry(registry());
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let h =
        client.call_async(CallSpec::new("test/double", Blob::from_vec(to_bytes(&1u64)), 0.1, 16));
    client.cancel(h);
    assert_eq!(client.wait(h, Duration::from_secs(1)), Err(GridError::Cancelled));
    grid.shutdown();
}

/// A cancelled call's result still arrives and is held; `wait_all` must keep
/// waiting for the live call, not count the cancelled one's result in its place.
#[test]
fn wait_all_waits_for_the_uncancelled_handles() {
    let spec = GridSpec::confined(1, 2).with_cfg(fast_cfg()).with_registry(registry());
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let call = |v: u64, secs| CallSpec::new("test/double", Blob::from_vec(to_bytes(&v)), secs, 16);
    let slow = client.call_async(call(1, 150.0));
    let fast = client.call_async(call(2, 0.1));
    client.cancel(fast);
    client.wait_all(Duration::from_secs(60)).expect("the slow call completes");
    assert!(client.probe(slow), "wait_all returned before the uncancelled call completed");
    grid.shutdown();
}

#[test]
fn survives_live_coordinator_crash_and_restart() {
    let spec = GridSpec::confined(2, 2).with_cfg(fast_cfg()).with_registry(registry());
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            client.call_async(CallSpec::new("test/double", Blob::from_vec(to_bytes(&i)), 1.0, 16))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    grid.crash_coordinator(0);
    std::thread::sleep(Duration::from_millis(200));
    grid.restart_coordinator(0);
    for (i, h) in handles.iter().enumerate() {
        let v = decode_result(client.wait(*h, Duration::from_secs(60)).expect("result"));
        assert_eq!(v, i as u64 * 2);
    }
    grid.shutdown();
}

#[test]
fn sandbox_violations_do_not_take_down_the_grid() {
    // A service whose output exceeds the sandbox limit fails its task;
    // well-behaved calls on the same grid still complete.
    let mut reg = registry();
    reg.register("test/blowup", |_, _| Ok(Blob::synthetic(1 << 20, 1)));
    let mut spec = GridSpec::confined(1, 2).with_cfg(fast_cfg()).with_registry(reg);
    spec.limits = rpcv::xw::SandboxLimits { max_input_bytes: 1 << 20, max_output_bytes: 1024 };
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let _bad = client.call_async(CallSpec::new("test/blowup", Blob::empty(), 0.1, 16));
    let good =
        client.call_async(CallSpec::new("test/double", Blob::from_vec(to_bytes(&5u64)), 0.1, 16));
    let v = decode_result(client.wait(good, Duration::from_secs(30)).expect("good call"));
    assert_eq!(v, 10);
    grid.shutdown();
}

#[test]
fn per_index_grid_clients_see_no_cross_tenant_results() {
    // Four tenants on one live grid, one GridClient handle per client
    // actor.  Each tenant's payloads are distinct, so any cross-tenant
    // delivery (a result landing at the wrong actor, or a handle reading
    // another tenant's session) shows up as a wrong decoded value or a
    // wrong per-actor result count.
    let spec =
        GridSpec::confined(2, 4).with_cfg(fast_cfg()).with_registry(registry()).with_clients(4);
    let grid = LiveGrid::launch(spec, 100.0);
    assert_eq!(grid.client_count(), 4);
    let mut clients: Vec<GridClient> = (0..4).map(|i| GridClient::at(&grid, i)).collect();
    let keys: Vec<_> = clients.iter().map(|c| c.client_key()).collect();
    assert_eq!(keys.iter().collect::<std::collections::BTreeSet<_>>().len(), 4);
    let calls_per_tenant = 3u64;
    let mut handles = Vec::new();
    for (i, c) in clients.iter_mut().enumerate() {
        let hs: Vec<_> = (0..calls_per_tenant)
            .map(|j| {
                let payload = i as u64 * 1000 + j;
                c.call_async(CallSpec::new(
                    "test/double",
                    Blob::from_vec(to_bytes(&payload)),
                    0.1,
                    16,
                ))
            })
            .collect();
        handles.push(hs);
    }
    for (i, c) in clients.iter().enumerate() {
        c.wait_all(Duration::from_secs(60)).unwrap_or_else(|e| panic!("tenant {i}: {e}"));
        for (j, h) in handles[i].iter().enumerate() {
            let v = decode_result(c.wait(*h, Duration::from_secs(10)).expect("result"));
            assert_eq!(v, (i as u64 * 1000 + j as u64) * 2, "tenant {i} call {j}");
        }
        // Exactly its own results — nothing leaked in from other tenants.
        let count = grid.with_client_at(i, |cl| cl.results_count()).expect("client up");
        assert_eq!(count, calls_per_tenant as usize, "tenant {i} result count");
    }
    grid.shutdown();
}

#[test]
fn pull_status_exposes_live_telemetry() {
    use rpcv::obs::TelemetrySnapshot;

    let spec = GridSpec::confined(2, 2).with_cfg(fast_cfg()).with_registry(registry());
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let call = CallSpec::new("test/double", Blob::from_vec(to_bytes(&21u64)), 0.1, 16);
    let result = client.call(call, Duration::from_secs(30)).expect("blocking call");
    assert_eq!(decode_result(result), 42);

    // A live pull reaches the client's preferred coordinator and comes
    // back as a decoded, sealed-and-verified snapshot of real state.
    let (coord, snap) = client.pull_status(Duration::from_secs(30)).expect("status pull");
    assert!(coord.0 < 2, "an actual grid coordinator answered: {coord:?}");
    assert!(snap.counter("db.jobs") >= 1, "the completed call is visible in the snapshot");
    assert!(snap.counter("coord.status_replies") >= 1, "the pull itself is metered");
    assert!(snap.counter("span.jobs") >= 1, "the job's lifecycle span was folded in");
    // The archive disk's batching factor is readable live: writes / ops.
    assert!(snap.counter("coord.archive_writes") >= snap.counter("coord.archive_write_ops"));
    assert!(snap.counter("coord.archive_write_ops") >= 1, "the call's archive cost a disk op");
    // The snapshot round-trips through its own sealed encoding.
    assert_eq!(TelemetrySnapshot::open(&snap.seal()).as_ref(), Ok(&snap));

    // A second pull is answered freshly (nonce-matched), so the reply
    // meter has visibly advanced — a stale cached snapshot would not.
    let (_, snap2) = client.pull_status(Duration::from_secs(30)).expect("second pull");
    assert!(snap2.counter("coord.status_replies") > snap.counter("coord.status_replies"));
    grid.shutdown();
}

#[test]
fn shutdown_returns_final_world() {
    let spec = GridSpec::confined(1, 1).with_cfg(fast_cfg()).with_registry(registry());
    let grid = LiveGrid::launch(spec, 100.0);
    let mut client = GridClient::new(&grid);
    let call = CallSpec::new("test/double", Blob::from_vec(to_bytes(&3u64)), 0.1, 16);
    client.call(call, Duration::from_secs(30)).expect("call");
    let world = grid.shutdown().expect("world returned");
    assert!(world.stats().delivered > 0);
}
