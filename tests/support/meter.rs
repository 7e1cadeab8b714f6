//! The memory gates' counting allocator: forwards every call to `System`
//! and, while counting is on, meters this thread's heap traffic.
//!
//! - *Live bytes:* blocks allocated, minus blocks freed, plus every
//!   `realloc`'s size delta — requested sizes, not the allocator's size
//!   classes — and the highest such reading since [`mark_peak`].
//! - *Allocations:* fresh blocks and `realloc`s' new ones, counted and
//!   summed in bytes.
//!
//! The counters are per-thread, so a gate is one test.  Each gate
//! includes this file with `#[path]` (it is no test target of its own) and
//! declares the allocator itself:
//!
//! ```ignore
//! #[path = "support/meter.rs"]
//! mod meter;
//! #[global_allocator]
//! static ALLOCATOR: meter::Meter = meter::Meter;
//! ```

// Each gate reads only the readings it holds a ceiling on.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Net heap bytes this thread gained while counting was on.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` reading since the last [`mark_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// `(allocations, bytes)` made by this thread while counting was on.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The counting allocator; each gate installs it as its
/// `#[global_allocator]`.
pub struct Meter;

fn counting() -> bool {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-locals are gone.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// One allocation of `bytes` (a fresh block, or a `realloc`'s new one).
fn note(bytes: usize) {
    if counting() {
        let _ = ALLOCS.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + bytes as u64));
        });
    }
}

/// The live heap moved by `delta` bytes.
fn held(delta: i64) {
    if counting() {
        let _ = LIVE.try_with(|l| {
            l.set(l.get() + delta);
            let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
        });
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Meter {
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

/// Zeroes every reading and counts this thread's heap traffic from here.
pub fn start() {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ALLOCS.with(|c| c.set((0, 0)));
    COUNTING.with(|on| on.set(true));
}

/// Stops counting; the readings keep their values.
pub fn stop() {
    COUNTING.with(|on| on.set(false));
}

/// Net heap bytes gained since [`start`].
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Restarts the peak at the current live reading, and returns that.
pub fn mark_peak() -> i64 {
    let live = live();
    PEAK.with(|p| p.set(live));
    live
}

/// The highest live reading since [`mark_peak`].
pub fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// `(allocations, bytes allocated)` since [`start`].
pub fn allocs() -> (u64, u64) {
    ALLOCS.with(Cell::get)
}
