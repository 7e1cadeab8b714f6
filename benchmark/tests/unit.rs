//! Unit tests of the harness's own helpers: exact quantiles, the seeded
//! arrival schedule, node → role attribution, the JSON writer, and the
//! catalogue ↔ `BENCHMARK.json` contract.

use rpcv_benchmark::metrics::{self, Values, END_TO_END, PER_LAYER};
use rpcv_benchmark::trace::{classify, roles_of, Class, Role};
use rpcv_benchmark::workload::{self, poisson_arrivals, Seeds};
use rpcv_benchmark::{json, stats};
use rpcv_simnet::{NodeId, SimTime, TraceEvent, TraceKind};

#[test]
fn quantiles_are_exact_order_statistics() {
    let sample: Vec<u64> = (1..=100).collect();
    assert_eq!(stats::quantile(&sample, 0.50), Some(50));
    assert_eq!(stats::quantile(&sample, 0.99), Some(99));
    assert_eq!(stats::quantile(&sample, 1.0), Some(100));
    assert_eq!(stats::quantile(&sample, 0.0), Some(1));
    assert_eq!(stats::quantile(&[7], 0.99), Some(7));
    assert_eq!(stats::quantile(&[], 0.5), None);
    // No power-of-two rounding: neighbours stay distinguishable.
    assert_eq!(stats::quantile(&[1000, 1001, 1002, 1003], 0.5), Some(1001));
}

#[test]
fn undelivered_jobs_enter_the_sample_at_the_horizon() {
    // Three delivered, one never: it counts as horizon − due, so it owns
    // the tail instead of vanishing from it.
    let jobs = [(10, Some(15)), (20, Some(22)), (30, None), (40, Some(41))];
    let sample = stats::latency_sample(&jobs, 100);
    assert_eq!(sample, vec![1, 2, 5, 70]);
    assert_eq!(stats::quantile(&sample, 0.99), Some(70));
    // A result that lands after the horizon is capped there too.
    assert_eq!(stats::latency_sample(&[(10, Some(500))], 100), vec![90]);
}

#[test]
fn longest_gaps_count_the_window_edges() {
    let gap = |t: &[u64], k| stats::longest_gaps_mean(t, 10, 40, k);
    assert_eq!(gap(&[12, 15, 30], 1), 15.0);
    assert_eq!(gap(&[12, 15, 16], 1), 24.0, "silence up to the window's end");
    assert_eq!(gap(&[35], 1), 25.0, "silence from the window's start");
    assert_eq!(gap(&[], 3), 30.0, "fewer gaps than asked for: the mean of those there are");
    assert_eq!(gap(&[5, 50], 1), 30.0, "instants outside the window do not serve it");
    // Gaps 2, 3, 15, 10: the three longest are 15, 10, 3.
    assert_eq!(gap(&[12, 15, 30], 3), (15.0 + 10.0 + 3.0) / 3.0);
}

#[test]
fn host_clock_summaries() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(stats::min(&[3.0, 1.0, 2.0]), 1.0);
}

#[test]
fn same_seed_same_schedule_other_seed_other_schedule() {
    let plan =
        |seed| poisson_arrivals(seed, 50.0, 8, SimTime::from_secs(2), SimTime::from_secs(30));
    assert_eq!(plan(7), plan(7));
    assert_ne!(plan(7), plan(8));
    let p = plan(7);
    // Rate and window are respected; every client's due times ascend.
    assert!((1200..1600).contains(&p.offered()), "{} arrivals", p.offered());
    for due in &p.due {
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t >= SimTime::from_secs(2) && t < SimTime::from_secs(30)));
    }
    // One --seed fans out into independent streams.
    let (a, b) = (Seeds::derive(1), Seeds::derive(2));
    assert_eq!(a, Seeds::derive(1));
    assert_ne!(a, b);
    assert_ne!(a.grid, a.arrivals);
}

#[test]
fn steps_are_attributed_to_the_role_that_handled_them() {
    let w = workload::by_name("steady_sharded").unwrap().quick();
    let rig = workload::build(&w, &Seeds::derive(1));
    let roles = roles_of(&rig.grid);
    assert_eq!(roles.len(), w.coords_per_shard * w.shards + w.servers + w.clients);
    for &(_, n) in &rig.grid.coords {
        assert_eq!(roles[n.0 as usize], Role::Coordinator);
    }
    for &(_, n) in &rig.grid.servers {
        assert_eq!(roles[n.0 as usize], Role::Server);
    }
    for &(_, n) in &rig.grid.clients {
        assert_eq!(roles[n.0 as usize], Role::Client);
    }

    let ev =
        |node: NodeId, kind| TraceEvent { at: SimTime::ZERO, node, kind, detail: String::new() };
    let (coord, server, client) =
        (rig.grid.coords[0].1, rig.grid.servers[0].1, rig.grid.clients[0].1);
    // The first Deliver/Timer names the handler; what it sent afterwards
    // (Send events from its own node or any other) does not.
    let tail =
        [ev(coord, TraceKind::Deliver), ev(coord, TraceKind::Send), ev(server, TraceKind::Deliver)];
    assert_eq!(classify(&tail, &roles), Class::Msg(Role::Coordinator));
    assert_eq!(classify(&[ev(server, TraceKind::Timer)], &roles), Class::Timer(Role::Server));
    assert_eq!(classify(&[ev(client, TraceKind::Deliver)], &roles), Class::Msg(Role::Client));
    // NIC serialisation, drops and controls dispatch no handler.
    assert_eq!(classify(&[], &roles), Class::Nic);
    assert_eq!(classify(&[ev(server, TraceKind::DropDown)], &roles), Class::Nic);
    assert_eq!(classify(&[ev(coord, TraceKind::Crash)], &roles), Class::Nic);
    // A node the table does not know (an external observer) is no handler.
    assert_eq!(classify(&[ev(NodeId::EXTERNAL, TraceKind::Deliver)], &roles), Class::Nic);
}

#[test]
fn json_primitives() {
    assert_eq!(json::string("plain"), "\"plain\"");
    assert_eq!(json::string("a\"b\\c\nd\te\u{1}"), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    assert_eq!(json::number(1.5).as_deref(), Some("1.5"));
    assert_eq!(json::number(3.0).as_deref(), Some("3"));
    // Every digit, so the text reads back as the same f64.
    let v = 0.1 + 0.2;
    assert_eq!(json::number(v).unwrap().parse::<f64>().unwrap(), v);
    assert_eq!(json::number(f64::NAN), None);
    assert_eq!(json::number(f64::INFINITY), None);
}

#[test]
fn the_emitter_wants_every_metric_once_and_finite() {
    let mut values = Values::new();
    for m in END_TO_END {
        values.set(m.name, 1.25);
    }
    let resolved = values.resolve(END_TO_END).expect("complete set");
    assert_eq!(resolved.len(), END_TO_END.len());
    let text = metrics::metrics_json(&resolved);
    assert!(text.starts_with("{\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": "));
    assert!(text.ends_with("\"capacity_headroom\": {\"value\": 1.25, \"unit\": \"ratio\"}}"));

    let mut missing = Values::new();
    missing.set("wall_s", 1.0);
    assert!(missing.resolve(END_TO_END).unwrap_err().contains("setup_s missing"));
    let mut stray = values.clone();
    stray.set("not.a.metric", 1.0);
    assert!(stray.resolve(END_TO_END).unwrap_err().contains("not.a.metric not catalogued"));
    let mut nan = Values::new();
    for m in END_TO_END {
        nan.set(m.name, if m.name == "setup_s" { f64::NAN } else { 1.0 });
    }
    assert!(nan.resolve(END_TO_END).unwrap_err().contains("setup_s = NaN"));
}

#[test]
#[should_panic(expected = "set twice")]
fn a_metric_cannot_be_emitted_twice() {
    let mut values = Values::new();
    values.set("setup_s", 1.0);
    values.set("setup_s", 2.0);
}

/// The driver refuses a `BENCHMARK.json` outside these limits before a
/// single run; hold the catalogue to them here.
#[test]
fn the_catalogue_fits_the_drivers_contract() {
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()), "{} per-layer metrics", PER_LAYER.len());
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    let workloads = workload::all();
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        names.push(w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(m.name), "bad name {}", m.name);
        assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better), ("s", metrics::Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s gets the largest bound");
    assert!((1..=60).contains(&metrics::RUN_SECONDS));
    assert!(metrics::manifest_json().len() <= 64 * 1024);
    // Every per-layer metric names its layer and what it should move.
    for m in PER_LAYER {
        assert!(m.name.contains('.') && !m.moves.is_empty(), "{} is untagged", m.name);
        for moved in m.moves.split(", ") {
            assert!(END_TO_END.iter().any(|e| e.name == moved), "{} moves unknown {moved}", m.name);
        }
    }
}

#[test]
fn benchmark_json_is_the_printed_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        metrics::manifest_json(),
        "regenerate it: cargo run --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
    );
}
