//! One repetition of a workload: set-up, measured window, drain.
//!
//! The harness drives the grid only through public API and plays the
//! paper's §4.2 "explicit GC" user (`gc_now()` on every coordinator every
//! 50 simulated seconds).  The host clock is read at exactly three points —
//! before set-up, at the window's start, after the drain — so the two
//! clocks never mix: everything else recorded here is virtual time.

use std::time::Instant;

use rpcv_core::coordinator::CoordinatorActor;
use rpcv_core::grid::SimGrid;
use rpcv_simnet::{SimDuration, SimTime};
use rpcv_store::db::DbStats;

use crate::trace::Tracer;
use crate::workload::{self, Load, Plan, Seeds, Workload, CLOSED_HORIZON};

/// Virtual time advances in chunks of this length between harness checks.
const CHUNK: SimDuration = SimDuration(10_000_000_000);
/// The harness's explicit-GC period.
const GC_EVERY: SimDuration = SimDuration(50_000_000_000);

/// What one repetition leaves behind.
pub struct Run {
    /// The grid in its final state (drop it to free the memory).
    pub grid: SimGrid,
    /// The jobs offered.
    pub plan: Plan,
    /// Host seconds: inputs generated, grid built, faults applied, warm-up run.
    pub setup_s: f64,
    /// Host seconds of that spent generating the schedule or plan.
    pub schedule_gen_s: f64,
    /// Host seconds of the measured window plus drain.
    pub wall_s: f64,
    /// The measured window in virtual time (closed loop: `0 → makespan`).
    pub window: (SimTime, SimTime),
    /// Where the drain ended (undelivered jobs enter the latency sample here).
    pub horizon: SimTime,
    /// `World::events_processed()` at the window's start.
    pub events_at_window_start: u64,
    /// `NetStats::bytes_sent` at the window's start.
    pub bytes_at_window_start: u64,
    /// Jobs due but not yet held by their client when the window closed.
    pub backlog_at_window_end: u64,
    /// The busiest coordinator's table sizes at mid-window (the shape the
    /// store drivers rebuild).
    pub mid_window: DbStats,
}

impl Run {
    /// Events processed inside window plus drain.
    pub fn window_events(&self) -> u64 {
        self.grid.world.events_processed() - self.events_at_window_start
    }
}

/// Advances virtual time to `until`: `run_until` untraced, the sampled
/// step loop traced.  Both process exactly the events with `at <= until`
/// in queue order, so the trace hash cannot tell them apart.
fn advance(grid: &mut SimGrid, until: SimTime, tracer: &mut Option<&mut Tracer>) {
    match tracer {
        Some(t) => t.run_until(&mut grid.world, until),
        None => grid.world.run_until(until),
    }
}

fn gc_all(grid: &mut SimGrid) {
    for i in 0..grid.coords.len() {
        let node = grid.coords[i].1;
        if let Some(c) = grid.world.actor_mut::<CoordinatorActor>(node) {
            c.gc_now();
        }
    }
}

fn held(grid: &SimGrid) -> u64 {
    (0..grid.client_count()).map(|i| grid.client_results_at(i) as u64).sum()
}

fn busiest_stats(grid: &SimGrid) -> DbStats {
    (0..grid.coords.len())
        .filter_map(|i| grid.coordinator(i))
        .map(|c| c.db().stats())
        .max_by_key(|s| s.pending + s.ongoing + s.archived)
        .unwrap_or_default()
}

/// Runs `[from, to]` in chunks, GC-ing on the 50 s grid; `each` sees the
/// grid after every chunk and stops the loop by returning `true`.
fn run_span(
    grid: &mut SimGrid,
    from: SimTime,
    to: SimTime,
    tracer: &mut Option<&mut Tracer>,
    mut each: impl FnMut(&SimGrid, SimTime) -> bool,
) -> SimTime {
    let mut now = from;
    while now < to {
        let next = (now + CHUNK).min(to);
        advance(grid, next, tracer);
        if next.0 / GC_EVERY.0 > now.0 / GC_EVERY.0 {
            gc_all(grid);
        }
        now = next;
        if each(grid, now) {
            break;
        }
    }
    now
}

/// Runs one repetition.  With a tracer, the measured window runs under the
/// sampled step loop; set-up is identical either way.
pub fn run(w: &Workload, seed: u64, mut tracer: Option<&mut Tracer>) -> Run {
    let setup_started = Instant::now();
    let rig = workload::build(w, &Seeds::derive(seed));
    let (mut grid, plan) = (rig.grid, rig.plan);
    let offered = plan.offered();
    let window_start = w.open_window().map_or(SimTime::ZERO, |(from, _)| from);
    let mut untraced = None;
    run_span(&mut grid, SimTime::ZERO, window_start, &mut untraced, |_, _| false);
    let setup_s = setup_started.elapsed().as_secs_f64();

    if let Some(t) = tracer.as_deref_mut() {
        t.open_root(&grid);
    }
    let events_at_window_start = grid.world.events_processed();
    let bytes_at_window_start = grid.world.stats().bytes_sent;
    let mut mid_window = DbStats::default();
    let mut backlog_at_window_end = 0;
    let window_started = Instant::now();
    let (window, horizon) = match w.load {
        Load::Open { drain_s, .. } => {
            let (from, to) = w.open_window().expect("open loop has a window");
            let mid = SimTime((from.0 + to.0) / 2 / CHUNK.0 * CHUNK.0);
            run_span(&mut grid, from, to, &mut tracer, |g, now| {
                if now == mid {
                    mid_window = busiest_stats(g);
                }
                false
            });
            let due: u64 = plan.due.iter().map(|d| d.len() as u64).sum();
            backlog_at_window_end = due - held(&grid);
            let limit = to + SimDuration::from_secs(drain_s);
            let end = run_span(&mut grid, to, limit, &mut tracer, |g, _| held(g) >= offered);
            ((from, to), end)
        }
        Load::Closed { .. } => {
            let done_at = |g: &SimGrid| {
                (0..g.client_count())
                    .map(|i| g.client_at(i).and_then(|c| c.metrics.done_at))
                    .collect::<Option<Vec<_>>>()
                    .and_then(|v| v.into_iter().max())
            };
            let submitted = |g: &SimGrid| -> u64 {
                (0..g.client_count())
                    .filter_map(|i| g.client_at(i))
                    .map(|c| c.metrics.submissions.len() as u64)
                    .sum()
            };
            let mut shape_taken = false;
            let end = run_span(&mut grid, SimTime::ZERO, CLOSED_HORIZON, &mut tracer, |g, _| {
                // Mid-run of a plan dump: half of it has been submitted.
                if !shape_taken && submitted(g) >= offered / 2 {
                    shape_taken = true;
                    mid_window = busiest_stats(g);
                }
                done_at(g).is_some()
            });
            let makespan = done_at(&grid).unwrap_or(end);
            ((SimTime::ZERO, makespan), end)
        }
    };
    let wall_s = window_started.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.close_root();
    }

    Run {
        grid,
        plan,
        setup_s,
        schedule_gen_s: rig.schedule_gen_s,
        wall_s,
        window,
        horizon,
        events_at_window_start,
        bytes_at_window_start,
        backlog_at_window_end,
        mid_window,
    }
}
