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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rpcv_core::grid::{GridSpec, SimGrid};
use rpcv_core::msg::Msg;
use rpcv_simnet::{NodeId, SimDuration, SimTime};
use rpcv_wire::Blob;

thread_local! {
    /// Net heap bytes this thread gained while counting was on.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

/// The live heap moved by `delta` bytes.
fn held(delta: i64) {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-locals are gone.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|l| l.set(l.get() + delta));
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        held(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        held(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        held(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    LIVE.with(|l| l.set(0));
    COUNTING.with(|on| on.set(true));
    grid.world.crash_now(node);
    grid.world.wipe_durable(node);
    COUNTING.with(|on| on.set(false));
    let per_call = -LIVE.with(Cell::get) as f64 / CALLS as f64;
    println!("client budget: {per_call:.0} B per call");
    assert!(
        per_call <= MAX_CLIENT_BYTES_PER_CALL,
        "{per_call:.0} live bytes per call exceeds the {MAX_CLIENT_BYTES_PER_CALL} budget"
    );
}
