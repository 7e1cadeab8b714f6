//! Telemetry determinism, end to end.
//!
//! The observability plane is part of the modelled state: histograms are
//! recorded over *virtual* time, the bag iterates its maps in key order,
//! and the whole snapshot serializes without a single wall-clock or
//! platform dependence.  So the plane inherits the model's headline
//! guarantee: two same-seed runs produce byte-identical telemetry.

use rpcv::core::grid::{GridSpec, SimGrid};
use rpcv::core::util::CallSpec;
use rpcv::obs::TelemetrySnapshot;
use rpcv::simnet::SimTime;
use rpcv::wire::Blob;

fn plan(n: usize) -> Vec<CallSpec> {
    (0..n).map(|i| CallSpec::new("b", Blob::synthetic(10_000, i as u64), 2.0, 256)).collect()
}

/// One full grid run at `seed`: 2 coordinators, 3 servers, 12 calls.
/// Returns the fleet-wide snapshot.
fn run(seed: u64) -> TelemetrySnapshot {
    let spec = GridSpec::confined(2, 3).with_seed(seed).with_plan(plan(12));
    let mut g = SimGrid::build(spec);
    g.run_until_done(SimTime::from_secs(1800)).expect("workload completes");
    g.telemetry()
}

/// The determinism satellite: same seed ⇒ byte-identical snapshot —
/// structurally equal, same JSON bytes, same sealed wire bytes — across
/// several seeds.
#[test]
fn same_seed_runs_serialize_byte_identically() {
    for seed in [1u64, 0xC0FFEE, 0x9E37_79B9_7F4A_7C15] {
        let a = run(seed);
        let b = run(seed);
        assert!(
            !a.counters.is_empty() && !a.hists.is_empty(),
            "seed {seed:#x}: snapshot must be non-trivial"
        );
        assert!(a.counter("span.jobs") >= 12, "seed {seed:#x}: every job spanned");
        assert!(
            a.hist("client.job_latency").is_some_and(|h| h.count() == 12),
            "seed {seed:#x}: every job's latency recorded"
        );
        // The archive path's series: every archive is one write, ops never
        // outnumber writes, each write's issue → return wait is sampled.
        let (writes, ops) =
            (a.counter("coord.archive_writes"), a.counter("coord.archive_write_ops"));
        assert!(writes >= 12 && (1..=writes).contains(&ops), "seed {seed:#x}: {writes} / {ops}");
        assert!(
            a.hist("coord.archive_write_wait").is_some_and(|h| h.count() == writes),
            "seed {seed:#x}: every archive write's wait recorded"
        );
        assert_eq!(a, b, "seed {seed:#x}: snapshots diverge");
        assert_eq!(a.to_json(), b.to_json(), "seed {seed:#x}: JSON bytes diverge");
        assert_eq!(a.seal(), b.seal(), "seed {seed:#x}: sealed frames diverge");
    }
}

/// Different seeds genuinely move the telemetry (the determinism test
/// above is not vacuously comparing constants): virtual-time histograms
/// shift with the seed even though the workload is identical.
#[test]
fn different_seeds_produce_different_telemetry() {
    let a = run(11);
    let b = run(12);
    assert_eq!(a.counter("span.jobs"), b.counter("span.jobs"), "same workload either way");
    assert_ne!(a.to_json(), b.to_json(), "seed must leave a trace in the telemetry");
}
