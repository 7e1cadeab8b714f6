//! One integration test per workload at `--quick` size: exactly-once
//! delivery, equal fingerprints traced vs untraced, and every metric named
//! in `BENCHMARK.json` emitted exactly once with a finite value.

use rpcv_benchmark::metrics::{END_TO_END, PER_LAYER};
use rpcv_benchmark::{execute, Options};

fn quick(workload: &str, trace: bool) -> Options {
    Options { workload: workload.into(), seed: 1, seconds: 1.0, trace, quick: true, out: None }
}

fn check(workload: &str) {
    let e2e = execute(&quick(workload, false)).expect("end-to-end mode runs");
    // `correct` covers exactly-once (no foreign or duplicate seq, none
    // missing on a fault-free workload), result sizes, servers up, and no
    // wasted unit without faults.
    assert!(e2e.correct, "{workload}: {:?}", e2e.violations);
    assert!(e2e.attempted >= 100, "{workload} offered only {} jobs", e2e.attempted);
    assert_eq!(e2e.failed, 0, "{workload}: every offered job is delivered");
    let names: Vec<&str> = e2e.metrics.iter().map(|(m, _)| m.name).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert!(e2e.metrics.iter().all(|(_, v)| v.is_finite()));
    let get = |name: &str| e2e.metrics.iter().find(|(m, _)| m.name == name).unwrap().1;
    assert_eq!(get("delivered_job_ratio"), 1.0);
    assert!(get("wall_s") > 0.0 && get("setup_s") > 0.0 && get("peak_rss_mb") > 0.0);
    assert!(get("job_latency_p99_ms") >= get("job_latency_p50_ms"));
    assert!(get("job_latency_p50_ms") > 0.0 && get("goodput_jobs_per_sim_s") > 0.0);
    assert!(get("work_amplification") >= 1.0);
    if workload != "churn_mixed" {
        assert_eq!(get("work_amplification"), 1.0, "{workload} has no faults to waste work on");
    }
    // The result line is one JSON object with exactly the driver's keys.
    let line = e2e.result_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(line.contains("\"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": "));
    assert!(!line.contains('\n'));

    // Traced mode re-runs the seed three more ways (untraced baseline, scout,
    // sampler); `correct` includes their event counts and trace hashes all
    // being equal.
    let layers = execute(&quick(workload, true)).expect("traced mode runs");
    assert!(layers.correct, "{workload}: {:?}", layers.violations);
    assert_eq!((layers.attempted, layers.failed), (e2e.attempted, e2e.failed));
    let names: Vec<&str> = layers.metrics.iter().map(|(m, _)| m.name).collect();
    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    assert!(layers.metrics.iter().all(|(_, v)| v.is_finite()));
    let get = |name: &str| layers.metrics.iter().find(|(m, _)| m.name == name).unwrap().1;
    assert!(get("simnet.events") > 0.0);
    let shares = get("simnet.nic_host_share")
        + get("core.coordinator.host_share")
        + get("core.server.host_share")
        + get("core.client.host_share");
    assert!((shares - 1.0).abs() < 1e-9, "normalised class shares sum to {shares}");
    assert!(get("core.coordinator.rx.Submit") > 0.0);
    assert!(get("store.register_job_ns") > 0.0 && get("wire.size_count_ns_per_msg") > 0.0);
}

#[test]
fn steady_sharded() {
    check("steady_sharded");
}

#[test]
fn batch_wide() {
    check("batch_wide");
}

#[test]
fn overload_flat() {
    check("overload_flat");
}

#[test]
fn churn_mixed() {
    check("churn_mixed");
    // The fault model really ran: crashes were injected and detected.
    let layers = execute(&quick("churn_mixed", true)).unwrap();
    let get = |name: &str| layers.metrics.iter().find(|(m, _)| m.name == name).unwrap().1;
    assert!(get("core.coordinator.server_suspicions") > 0.0);
    assert!(get("simnet.msgs_dropped") > 0.0);
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(execute(&quick("no_such_workload", false)).is_err());
}
