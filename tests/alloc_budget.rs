//! Allocation budget gate: heap traffic per simulated event, end to end.
//!
//! The kernel dispatch path and the coordinator store are built not to
//! allocate in steady state (events live in an arena and are ordered
//! through handles, the effect buffer and the calendar buckets are
//! recycled, a job's attributes share one row).  This test runs one small
//! fault-free grid under a counting global allocator and holds
//! allocations-per-event and allocated-bytes-per-event under ceilings
//! pinned 10 % above the measured numbers.  The simulation is
//! single-threaded and deterministic, so the counts repeat exactly on any
//! machine; a change that lifts either number past its ceiling put an
//! allocation back on a per-event path (or legitimately needs to re-pin,
//! with the new numbers recorded in CHANGES.md).
//!
//! One test only: the counter is per-thread, but a second test's grid
//! would still share the process allocator's state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rpcv::core::grid::{GridSpec, SimGrid};
use rpcv::core::util::CallSpec;
use rpcv::simnet::SimTime;
use rpcv::wire::Blob;

thread_local! {
    /// `(allocations, bytes)` made by this thread while counting is on.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn note(bytes: usize) {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-locals are gone.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|c| {
                let (n, b) = c.get();
                c.set((n + 1, b + bytes as u64));
            });
        }
    });
}

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is heap traffic too: count the new block.
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Ceilings: what this cell measured when they were pinned — 13 797
/// allocations and 5 902 736 bytes over 19 574 events, i.e. 0.70
/// allocations and 302 bytes per event — plus 10 %.  (The parent commit,
/// whose server kept its one running task in a map, measured 13 805
/// allocations and 5 921 872 bytes on the same cell: 0.71 and 303 per
/// event.)
const MAX_ALLOCS_PER_EVENT: f64 = 0.78;
const MAX_BYTES_PER_EVENT: f64 = 332.0;

#[test]
fn steady_state_allocations_per_event_stay_within_budget() {
    // 2 coordinators (so replication runs), 8 servers, 2 clients × 400
    // calls: ~20 k events, enough that one-off growth (arena chunks, the
    // metric timelines' `Vec`s) is a small part of the count.
    let plan = |c: u64| -> Vec<CallSpec> {
        (0..400)
            .map(|i| CallSpec::new("bench", Blob::synthetic(2_000, c << 32 | i), 2.0, 256))
            .collect()
    };
    let spec = GridSpec::confined(2, 8).with_seed(7).with_client_plans(vec![plan(0), plan(1)]);
    let mut grid = SimGrid::build(spec);
    COUNTING.with(|on| on.set(true));
    let done = grid.run_until_done(SimTime::from_secs(3600));
    COUNTING.with(|on| on.set(false));
    assert!(done.is_some(), "the cell completes");
    assert_eq!(grid.client_results_at(0) + grid.client_results_at(1), 800);

    let events = grid.world.events_processed() as f64;
    let (allocs, bytes) = COUNT.with(Cell::get);
    let (per_event, bytes_per_event) = (allocs as f64 / events, bytes as f64 / events);
    println!(
        "alloc budget: {events} events, {allocs} allocations ({per_event:.2}/event), \
         {bytes} bytes ({bytes_per_event:.0}/event)"
    );
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{per_event:.2} allocations/event exceeds the {MAX_ALLOCS_PER_EVENT} budget"
    );
    assert!(
        bytes_per_event <= MAX_BYTES_PER_EVENT,
        "{bytes_per_event:.0} allocated bytes/event exceeds the {MAX_BYTES_PER_EVENT} budget"
    );
}
