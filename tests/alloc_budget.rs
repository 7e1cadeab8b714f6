//! Allocation budget gate: heap traffic per simulated event, and the heap
//! a run still holds per delivered call, end to end.
//!
//! The kernel dispatch path and the coordinator store are built not to
//! allocate in steady state (events live in an arena and are ordered
//! through handles, a handler pushes its events straight into that arena,
//! the calendar buckets are recycled, a job's attributes share one row).  This test runs one small
//! fault-free grid under a counting global allocator and holds
//! allocations-per-event, allocated-bytes-per-event and live bytes per
//! delivered call (what the run's allocations still hold at `done`, frees
//! and `realloc` deltas netted out) under ceilings pinned 10 % above the
//! measured numbers.  The simulation is single-threaded and deterministic,
//! so the counts repeat exactly on any machine; a change that lifts a
//! number past its ceiling put an allocation back on a per-event path or
//! grew a per-job row (or legitimately needs to re-pin, with the new
//! numbers recorded in CHANGES.md).
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
    /// Net heap bytes this thread gained while counting was on: blocks
    /// allocated, minus blocks freed, plus every `realloc`'s size delta.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn counting() -> bool {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-locals are gone.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// One allocation of `bytes` (a fresh block, or a `realloc`'s new one).
fn note(bytes: usize) {
    if counting() {
        let _ = COUNT.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + bytes as u64));
        });
    }
}

/// The live heap moved by `delta` bytes.
fn held(delta: i64) {
    if counting() {
        let _ = LIVE.try_with(|l| l.set(l.get() + delta));
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
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
        // A growing `Vec` is heap traffic too: count the new block.
        note(new_size);
        held(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Ceilings: what this cell measured when they were pinned — 13 448
/// allocations and 3 780 000 bytes over 19 574 events, i.e. 0.69
/// allocations and 193 bytes per event — plus 10 %, rounded up; the
/// allocation ceiling was not moved.  (The commit before, whose
/// coordinator database kept task rows in an ordered map, a 40-byte
/// instance list per job, 40-byte change-index entries and catalog and GC
/// entries keyed by the whole client, measured 13 477 allocations,
/// 4 302 368 bytes (0.69 and 220 per event) and 1 546 632 bytes live,
/// 1 933 per call.)  The live ceiling was re-pinned when the client's
/// per-seq timings moved from ordered maps into seq windows: 1 130 920
/// bytes live at done, 1 414 per delivered call, + 10 % (1 167 496 and
/// 1 459 before).
const MAX_ALLOCS_PER_EVENT: f64 = 0.75;
const MAX_BYTES_PER_EVENT: f64 = 213.0;
const MAX_LIVE_BYTES_PER_CALL: f64 = 1556.0;

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
    let live = LIVE.with(Cell::get);
    let live_per_call = live as f64 / 800.0;
    println!(
        "alloc budget: {events} events, {allocs} allocations ({per_event:.2}/event), \
         {bytes} bytes ({bytes_per_event:.0}/event), {live} bytes live at done \
         ({live_per_call:.0}/call)"
    );
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{per_event:.2} allocations/event exceeds the {MAX_ALLOCS_PER_EVENT} budget"
    );
    assert!(
        bytes_per_event <= MAX_BYTES_PER_EVENT,
        "{bytes_per_event:.0} allocated bytes/event exceeds the {MAX_BYTES_PER_EVENT} budget"
    );
    assert!(
        live_per_call <= MAX_LIVE_BYTES_PER_CALL,
        "{live_per_call:.0} live bytes/call exceeds the {MAX_LIVE_BYTES_PER_CALL} budget"
    );
}
