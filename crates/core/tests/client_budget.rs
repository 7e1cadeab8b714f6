//! The client's memory gate: heap bytes a client holds per call it made.
//!
//! A client keeps a record of every call for its whole life — the sender
//! log row (paper §4.2), the held result, and the two observation rows
//! (`ClientMetrics::submissions` and `results_received`) — so each byte of
//! those rows is paid once per lifetime job.  This test runs an open-loop
//! cell, one client offering 2 000 calls at a steady 25 calls/s through
//! [`Msg::ApiSubmit`], each message carrying a freshly built service name
//! as a workload driver's do, and lets it drain.  It then reads what the
//! client holds as the live-heap bytes freed by a crash of its node
//! followed by the loss of its disk image (blocks allocated, minus blocks
//! freed, plus every `realloc`'s size delta — requested sizes, not the
//! allocator's size classes), divided by the calls.
//!
//! Measured 175 B per call when pinned: the log row, the held result and
//! the two observation rows in their seq windows, one service name for all
//! 2 000 calls.  The layout before it — a 32 B name allocated per logged
//! call, the two observation rows in ordered maps — read 255.  The ceiling
//! is the reading + 10 %.  The world is
//! deterministic, so the reading repeats exactly on any machine.  One
//! test only: the counter is per-thread.

use rpcv_core::grid::{GridSpec, SimGrid};
use rpcv_core::msg::Msg;
use rpcv_simnet::{NodeId, SimDuration, SimTime};
use rpcv_wire::Blob;

#[path = "../../../tests/support/meter.rs"]
mod meter;

#[global_allocator]
static ALLOCATOR: meter::Meter = meter::Meter;

const MAX_CLIENT_BYTES_PER_CALL: f64 = 193.0;

const CALLS: u64 = 2_000;

#[test]
fn client_bytes_per_call_stay_within_budget() {
    let mut grid = SimGrid::build(GridSpec::confined(1, 8).with_seed(7));
    let node = grid.client_node;
    for i in 0..CALLS {
        let msg = Msg::ApiSubmit {
            service: "synthetic/bench".into(),
            params: Blob::synthetic(1_000, i),
            exec_cost: 0.2,
            result_size: 256,
            replication: 1,
            work_units: 1,
        };
        grid.world.inject(SimTime::from_millis(40 * i), node, msg);
    }
    let horizon = SimTime::from_secs(900);
    while grid.client_results() < CALLS as usize && grid.world.now() < horizon {
        grid.world.run_for(SimDuration::from_secs(5));
    }
    assert_eq!(grid.client_results(), CALLS as usize, "the cell drains by {horizon:?}");
    // A few beats more: every held result acknowledged, so no in-flight
    // index is left to count.
    grid.world.run_for(SimDuration::from_secs(30));
    let client = grid.client().expect("the client is up");
    assert_eq!(client.resident_records(), 0, "nothing in flight");
    assert_eq!(client.metrics.submissions.len() as u64, CALLS);
    assert_eq!(client.metrics.results_received.len() as u64, CALLS);

    // The coordinator's job rows share the client's service names: take
    // the rest of the grid down first, uncounted, so that the client's
    // crash frees every name it holds.
    let coords = grid.coords.iter().map(|&(_, node)| node);
    let others: Vec<NodeId> = coords.chain(grid.servers.iter().map(|&(_, node)| node)).collect();
    for other in others {
        grid.world.crash_now(other);
        grid.world.wipe_durable(other);
    }
    meter::start();
    grid.world.crash_now(node);
    grid.world.wipe_durable(node);
    meter::stop();
    let per_call = -meter::live() as f64 / CALLS as f64;
    println!("client budget: {per_call:.0} B per call");
    assert!(
        per_call <= MAX_CLIENT_BYTES_PER_CALL,
        "{per_call:.0} live bytes per call exceeds the {MAX_CLIENT_BYTES_PER_CALL} budget"
    );
}
