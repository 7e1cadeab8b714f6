//! Scale bench — the coordinator-hot-path perf trajectory.
//!
//! Not a paper figure: this harness exists to catch O(everything) creep in
//! the periodic control plane (replication deltas, suspicion scans,
//! scheduling, catalog sync) as the grid grows.  It sweeps grid sizes
//! (servers × jobs × clients), runs each full workload to completion on
//! the deterministic simulator, and reports, per cell:
//!
//! * `sim_seconds` — virtual run time,
//! * `sim_events_per_sec` — the *grid's* event throughput in simulated
//!   time (events / sim second): the scale-out observable — sharding the
//!   coordinator plane compresses the same workload into fewer simulated
//!   seconds, so this grows near-linearly in S,
//! * `delta_bytes_per_round` — mean replication payload per round: the
//!   direct observable of the O(changed) invariant (a full-table
//!   replicator makes this grow linearly with run length).  The delta now
//!   carries collection acknowledgements too, and the sweep is
//!   collected-heavy (clients collect everything, the harness GCs), so
//!   the gate holds this flat across cells that differ only in job
//!   count,
//! * `catalog_bytes_per_beat` — mean result-catalog payload per client
//!   sync reply: the observable of the incremental catalog (the old
//!   full-catalog reply grows with the job count; the delta form tracks
//!   the per-beat completion rate and stays flat as jobs grow),
//! * `resident_rows` — steady-state change-index rows on the busiest
//!   coordinator after a settle window: the observable of bounded memory
//!   (without retention this tracks *lifetime* jobs; with it, live work
//!   plus per-client watermarks),
//! * `job_p50_ms` / `job_p99_ms` (schema v5) — end-to-end job latency
//!   quantiles in *virtual* time (submission requested → result held),
//!   read from the telemetry plane's log2 histograms aggregated across
//!   every client: the latency face of the throughput numbers above, and
//!   deterministic across machines because virtual time is,
//! * completion counts, so a silently-stalled run cannot masquerade as a
//!   fast one.
//!
//! Every column is a virtual-time or counting quantity, so the file
//! regenerates byte for byte on any machine: host-clock cost (events per
//! wall second, ns per event) is measured by `benchmark/`, nowhere here.
//!
//! The `clients` axis splits the same total job count across N concurrent
//! submitters sharing the coordinators, so a cell isolates the cost of
//! *having* more clients from the cost of more work.
//!
//! The `shards` axis (schema v4) partitions the coordinator plane into
//! hash-disjoint replicated groups, each owning `1/S` of the client
//! space.  On a sharded cell the payload and residency observables are
//! measured *per busiest shard* (the worst shard per metric), so the
//! flatness gates keep asserting the per-group invariants rather than a
//! diluted average.  The headline is the 1/2/4 ladder at a fixed
//! servers×jobs×clients cell, gated on `sim_events_per_sec` — the
//! grid's event throughput in *simulated* time (events / sim second):
//! the S-shard cell must process >= 0.7·S× the 1-shard cell's events
//! per sim-second, gated on the artifact by
//! `scripts/check_bench_flatness.py`.  Simulated time
//! is the right axis for the scale-out claim: the kernel interleaves
//! every shard on one host thread, so partitioning the plane shows up
//! as the same workload compressing into ~1/S the simulated seconds (the
//! host's per-event cost is something S cannot improve on a serial
//! simulator).
//!
//! Results go to stdout, `target/figures/scale_trajectory.csv`, and —
//! the part future PRs consume — `BENCH_scale.json` at the repo root.
//! Nothing is asserted here: every gate named above is written once, in
//! `scripts/check_bench_flatness.py`, which `Artifact::finish` runs on the
//! file it just wrote and whose status this bench exits with.
//! Run `cargo bench -p rpcv-bench --bench scale`.  The JSON schema
//! (`schema_version: 6`) is documented in ROADMAP.md ("Performance
//! notes").

use rpcv_bench::{Artifact, Value};
use rpcv_core::coordinator::CoordinatorActor;
use rpcv_core::grid::{GridSpec, SimGrid};
use rpcv_simnet::{SimDuration, SimTime};
use rpcv_workload::SyntheticBench;

/// Runs one grid cell; returns its row — `BENCH_scale.json`'s keys and the
/// CSV header, named here once.  On a sharded cell the payload/residency metrics are per
/// busiest shard: each shard's value is computed from its own members and
/// the worst shard is reported, so a single overloaded group cannot hide
/// behind S-1 idle ones.
fn run_cell(
    servers: usize,
    jobs: usize,
    clients: usize,
    shards: usize,
) -> Vec<(&'static str, Value<'static>)> {
    let bench = SyntheticBench {
        calls: jobs,
        param_bytes: 256,
        exec_secs: 0.05,
        result_bytes: 64,
        replication: 1,
        work_units: 1,
        seed: 0x5CA1E,
    };
    let mut spec = GridSpec::confined(2, servers)
        .with_shards(shards)
        .with_client_plans(bench.split_across(clients))
        .with_seed(0x5CA1E);
    // The confined database model (3 ms/op, per the 2004 testbed) would
    // make the *modelled* MySQL the only thing this bench measures; give
    // the coordinators a modern database so kernel + index costs dominate.
    spec.coord_host = spec.coord_host.with_db_per_op(SimDuration::from_micros(100));
    let mut grid = SimGrid::build(spec);

    let horizon = SimTime::from_secs(20_000);
    let chunk = SimDuration::from_secs(10);
    let gc_every = SimDuration::from_secs(50);
    let mut next_gc = SimTime::ZERO + gc_every;
    let all_done = |grid: &SimGrid| {
        (0..grid.client_count())
            .all(|i| grid.client_at(i).is_some_and(|c| c.metrics.done_at.is_some()))
    };
    let done = loop {
        if all_done(&grid) {
            break true;
        }
        if grid.world.now() >= horizon {
            break false;
        }
        grid.world.run_for(chunk);
        // Paper §4.2: archive GC "can be triggered ... explicitly by the
        // user"; the harness plays that user so collected archives do not
        // accumulate across a 100k-job run.
        if grid.world.now() >= next_gc {
            next_gc = grid.world.now() + gc_every;
            for i in 0..grid.coords.len() {
                let node = grid.coords[i].1;
                if let Some(c) = grid.world.actor_mut::<CoordinatorActor>(node) {
                    c.gc_now();
                }
            }
        }
    };
    let events = grid.world.events_processed();
    let sim_seconds = grid.world.now().as_secs_f64();
    // Replication and catalog traffic are snapshotted *here*, before the
    // settle window below: settle triggers archive GC, whose removal
    // tombstones ride the ring in bursts proportional to lifetime jobs and
    // would otherwise drown the steady-state delta signal.  Per shard the
    // delta feed is read at the shard's preferred primary (coordinator
    // s·members in the shard-major layout) and the busiest shard's
    // per-round figure is reported.
    let members = grid.coords.len() / shards.max(1);
    let delta = (0..shards)
        .filter_map(|s| grid.coordinator(s * members))
        .map(|c| {
            let rounds = &c.metrics.repl_rounds;
            rounds.iter().map(|r| r.bytes).sum::<u64>() as f64 / rounds.len().max(1) as f64
        })
        .fold(0.0f64, f64::max);
    let rounds = grid.coordinator(0).map(|c| c.metrics.repl_rounds.len()).unwrap_or(0);
    // Catalog traffic aggregates over a shard's members — beats land
    // wherever each client's preference currently points inside its own
    // group — and the busiest shard's per-beat figure is reported.
    let catalog = (0..shards)
        .map(|s| {
            let (n, b) = (s * members..(s + 1) * members)
                .filter_map(|i| grid.coordinator(i))
                .fold((0u64, 0u64), |(n, b), c| {
                    (n + c.metrics.sync_replies, b + c.metrics.catalog_bytes)
                });
            b as f64 / n.max(1) as f64
        })
        .fold(0.0f64, f64::max);
    // Steady-state residency: everything is delivered; let the tail of
    // collection acks ride the beats, reclaim the archives, and give the
    // ring a round + ack so retention passes over the delivered prefix.
    // What stays resident is the live state (per-client watermark rows),
    // not the run's history.
    let settle = SimDuration::from_secs(30);
    for _ in 0..3 {
        grid.world.run_for(settle);
        for i in 0..grid.coords.len() {
            let node = grid.coords[i].1;
            if let Some(c) = grid.world.actor_mut::<CoordinatorActor>(node) {
                c.gc_now();
            }
        }
    }
    grid.world.run_for(settle);
    let resident = (0..grid.coords.len())
        .filter_map(|i| grid.coordinator(i))
        .map(|c| c.db().resident_rows())
        .max()
        .unwrap_or(0);
    let results: usize = (0..grid.client_count()).map(|i| grid.client_results_at(i)).sum();
    // End-to-end job latency in virtual time, aggregated across clients.
    let mut job_hist = rpcv_obs::Histogram::new();
    for i in 0..grid.client_count() {
        if let Some(c) = grid.client_at(i) {
            job_hist.merge(&c.metrics.job_latency());
        }
    }
    vec![
        ("servers", Value::U64(servers as u64)),
        ("jobs", Value::U64(jobs as u64)),
        ("clients", Value::U64(clients as u64)),
        ("shards", Value::U64(shards as u64)),
        ("events_processed", Value::U64(events)),
        ("sim_seconds", Value::F64(sim_seconds, 1)),
        ("sim_events_per_sec", Value::F64(events as f64 / sim_seconds.max(1e-9), 0)),
        ("jobs_completed", Value::U64(results as u64)),
        ("repl_rounds", Value::U64(rounds as u64)),
        ("delta_bytes_per_round", Value::F64(delta, 1)),
        ("catalog_bytes_per_beat", Value::F64(catalog, 1)),
        ("resident_rows", Value::U64(resident)),
        ("job_p50_ms", Value::F64(job_hist.p50_nanos() as f64 / 1e6, 3)),
        ("job_p99_ms", Value::F64(job_hist.p99_nanos() as f64 / 1e6, 3)),
        ("completed", Value::Bool(done)),
    ]
}

fn main() {
    // (servers, jobs, clients, shards): the clients axis splits the same
    // job total across concurrent submitters; the shards axis partitions
    // the coordinator plane into that many replicated groups.
    // The headline ladder is (200, 30000, 192) at 1, 2 and 4 shards — 192
    // clients hash evenly across four groups and are enough concurrent
    // submitters to saturate a single one, so the 1-shard anchor is the
    // congested case sharding is for.
    // The jobs-only pair is 30 000 vs 100 000 jobs at 200×16: since the
    // archive disk group-commits, 10 000 jobs drain in 30 sim-s — over
    // before the cell reaches steady state (no GC round yet, ramp-up beats
    // dilute the per-beat mean: 294 B/beat against 890 B at 100 000 jobs,
    // while bytes per catalogued result, 2.8 vs 4.3, and per delta row,
    // 106 vs 88, are flat).  At 30 000 jobs both twins are steady-state
    // runs and sit inside the 2× bound unedited.
    let cells = [
        (50, 10_000, 1, 1),
        (200, 30_000, 4, 1),
        (200, 30_000, 16, 1),
        (200, 100_000, 16, 1),
        (1_000, 100_000, 1, 1),
        (200, 30_000, 192, 1),
        (200, 30_000, 192, 2),
        (200, 30_000, 192, 4),
    ];
    let mut art = Artifact::new("scale", "scale_trajectory", 6, "grid");
    for (servers, jobs, clients, shards) in cells {
        art.row(&run_cell(servers, jobs, clients, shards));
    }
    art.finish(&[]);
}
