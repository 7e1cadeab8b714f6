//! Criterion microbenchmarks for what `benchmark/`'s layer drivers do not
//! measure: the machine-independent *ratios* between each index and the
//! full-scan or heap reference retained beside it (`store_scale`,
//! `pull_window`, `queue_push_pop`), and the Alcatel evaluator.  Absolute
//! ns per wire, log, store, detect and kernel primitive — at the workloads'
//! own shapes — are `benchmark/src/drivers.rs`' job.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use rpcv_core::frontier::{PullFrontier, RetryPolicy};
use rpcv_core::msg::Msg;
use rpcv_simnet::DetRng;
use rpcv_store::CoordinatorDb;
use rpcv_wire::Blob;
use rpcv_workload::{AlcatelApp, NetworkConfig};
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId};

/// The perf target of the incremental-index work: a replication round on a
/// large, mostly-quiescent database must cost O(changed), not O(tables).
/// `delta_since` (version-index range read) is benchmarked against the
/// retained full-scan reference at 50k tasks with a 10-row delta; the
/// acceptance bar is a ≥5× advantage for the indexed path.
fn bench_store_scale(c: &mut Criterion) {
    let mut db = CoordinatorDb::new(CoordId(1));
    for i in 1..=50_000u64 {
        db.register_job(JobSpec::new(
            JobKey::new(ClientKey::new(1, 1), i),
            "svc",
            Blob::synthetic(64, i),
        ));
    }
    let base = db.version();
    for i in 50_001..=50_010u64 {
        db.register_job(JobSpec::new(
            JobKey::new(ClientKey::new(1, 1), i),
            "svc",
            Blob::synthetic(64, i),
        ));
    }
    // Missing-archive case: a database where 50k jobs *finished* (all
    // archives held, a handful missing) — the realistic steady state the
    // periodic refresh polls.  The maintained set reads O(missing); the
    // scan reference walks every finished job.
    let mut done_db = CoordinatorDb::new(CoordId(2));
    for i in 1..=50_000u64 {
        done_db.register_job(JobSpec::new(
            JobKey::new(ClientKey::new(1, 1), i),
            "svc",
            Blob::synthetic(64, i),
        ));
    }
    while let (Some(d), _) = done_db.next_pending(ServerId(1), rpcv_simnet::SimTime::ZERO) {
        done_db.complete_task(d.id, d.job, Blob::synthetic(16, d.job.seq), ServerId(1));
    }
    // A few finished-elsewhere jobs whose archives we lack.
    let mut primary = CoordinatorDb::new(CoordId(3));
    for i in 60_001..=60_010u64 {
        primary.register_job(JobSpec::new(
            JobKey::new(ClientKey::new(1, 1), i),
            "svc",
            Blob::synthetic(64, i),
        ));
        if let (Some(d), _) = primary.next_pending(ServerId(2), rpcv_simnet::SimTime::ZERO) {
            primary.complete_task(d.id, d.job, Blob::synthetic(16, i), ServerId(2));
        }
    }
    done_db.apply_delta(&primary.delta_since(0));
    assert_eq!(done_db.missing_archives().len(), 10, "setup: 10 missing archives");

    // Catalog case: 50k archived results, 10 fresh completions since the
    // client's last beat.  The indexed delta reads only the 10; the scan
    // reference rebuilds the whole catalog every beat.
    let client = ClientKey::new(1, 1);
    let cat_base = done_db.version();
    for i in 70_001..=70_010u64 {
        done_db.register_job(JobSpec::new(JobKey::new(client, i), "svc", Blob::synthetic(64, i)));
        if let (Some(d), _) = done_db.next_pending(ServerId(3), rpcv_simnet::SimTime::ZERO) {
            done_db.complete_task(d.id, d.job, Blob::synthetic(16, i), ServerId(3));
        }
    }

    // Echo-free feed case: a replica whose ~10k change-index entries (5k
    // jobs, their tasks, the client mark) were all learned from one peer.
    // Its round back to that peer skips every entry straight off the
    // index; the unfiltered build looks up, clones and ships each one.
    // (One local row first, so the rounds have a base above 0 — a
    // from-zero feed skips nothing.)
    let teacher_id = CoordId(5);
    let mut teacher = CoordinatorDb::new(teacher_id);
    for i in 1..=5_000u64 {
        teacher.register_job(JobSpec::new(JobKey::new(client, i), "svc", Blob::synthetic(64, i)));
    }
    let mut learned = CoordinatorDb::new(CoordId(4));
    learned.register_job(JobSpec::new(
        JobKey::new(ClientKey::new(2, 1), 1),
        "svc",
        Blob::synthetic(64, 0),
    ));
    let learned_base = learned.version();
    learned.apply_delta_owned(teacher.delta_since(0));
    assert!(learned.feed_for(teacher_id, learned_base).is_empty(), "setup: all learned");
    assert_eq!(learned.delta_since(learned_base).len(), 10_001, "setup: ~10k entries");

    let mut g = c.benchmark_group("store_scale");
    g.bench_function("feed_10k_learned_suppressed", |b| {
        b.iter(|| learned.feed_for(teacher_id, learned_base))
    });
    g.bench_function("feed_10k_learned_unfiltered", |b| {
        b.iter(|| learned.delta_since(learned_base))
    });
    g.bench_function("delta_since_50k_small_indexed", |b| b.iter(|| db.delta_since(base)));
    g.bench_function("delta_since_50k_small_scan", |b| b.iter(|| db.delta_since_scan(base)));
    g.bench_function("pending_count_50k_indexed", |b| b.iter(|| db.pending_count()));
    g.bench_function("pending_count_50k_scan", |b| b.iter(|| db.pending_count_scan()));
    g.bench_function("missing_archives_50k_indexed", |b| b.iter(|| done_db.missing_archives()));
    g.bench_function("missing_archives_50k_scan", |b| b.iter(|| done_db.missing_archives_scan()));
    g.bench_function("catalog_since_50k_10new_indexed", |b| {
        b.iter(|| done_db.results_catalog_since(client, cat_base))
    });
    g.bench_function("catalog_50k_scan", |b| b.iter(|| done_db.results_catalog_scan(client)));
    g.finish();
}

/// The client's pull window with a backlog of requested-but-unanswered
/// seqs in backoff (what a plan dump looks like from the client): the
/// due-time index touches the 64-entry window only (and, unlike the
/// pure-function walk, also records the 64 requests it returns); the
/// retained walk visits every outstanding entry on every pull.
fn bench_pull_frontier(c: &mut Criterion) {
    use rpcv_simnet::{SimDuration, SimTime};
    let policy = RetryPolicy { base: SimDuration::from_secs(10), bw: 12.5e6 };
    let mut g = c.benchmark_group("pull_window");
    for in_backoff in [64u64, 4_000] {
        let mut f = PullFrontier::new();
        let t0 = SimTime::from_secs(1);
        for seq in 1..=in_backoff {
            f.announce(seq, 256, policy);
        }
        while !f.window(t0, policy).is_empty() {}
        // One fresh window's worth of requestable results behind them.
        for seq in in_backoff + 1..=in_backoff + 64 {
            f.announce(seq, 256, policy);
        }
        let now = t0 + SimDuration::from_secs(1);
        assert_eq!(f.window_scan(now, policy).len(), 64);
        g.bench_function(format!("{in_backoff}_in_backoff_indexed_select_and_record"), |b| {
            b.iter_batched(
                || f.clone(),
                |mut f| {
                    let want = f.window(now, policy);
                    (want, f)
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("{in_backoff}_in_backoff_scan_select_only"), |b| {
            b.iter(|| f.window_scan(now, policy))
        });
    }
    g.finish();
}

/// Kernel queue push + pop at a standing backlog, carrying real `Msg`
/// values (the payload size the arena exists for).  Hold model: every
/// iteration injects one message — cycling through the `cur`, ring and
/// overflow levels — and dispatches the earliest queued one into a sink
/// actor, so the depth stays put.  The reference heap sifts whole events
/// through `log2(depth)` levels; the calendar queue moves 24-byte handles
/// and its cost should stay flat as the backlog grows.
fn bench_queue_depth(c: &mut Criterion) {
    use rpcv_simnet::*;
    struct Sink;
    impl Actor<Msg> for Sink {
        fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, _k: u64) {}
    }
    let mut g = c.benchmark_group("queue_push_pop");
    for depth in [1_000u64, 50_000, 200_000] {
        for reference in [false, true] {
            let mut w = World::<Msg>::new(1);
            if reference {
                w.use_reference_queue();
            }
            let sink = w.add_host(HostSpec::named("sink"));
            w.install(sink, |_| Box::new(Sink));
            // Standing backlog spread over 20 s: all three levels hold some.
            for i in 0..depth {
                let at = SimTime(1 + i * (20_000_000_000 / depth));
                w.inject(at, sink, Msg::StatusRequest { nonce: i });
            }
            let delays = [
                SimDuration::from_micros(100),
                SimDuration::from_millis(300),
                SimDuration::from_secs(5),
            ];
            let mut i = 0usize;
            let kernel = if reference { "reference_heap" } else { "calendar" };
            g.bench_function(format!("depth_{depth}_{kernel}"), |b| {
                b.iter(|| {
                    i += 1;
                    w.inject(w.now() + delays[i % 3], sink, Msg::StatusRequest { nonce: 0 });
                    w.step()
                })
            });
            assert!(w.queue_len() as u64 >= depth, "hold model keeps the backlog");
        }
    }
    g.finish();
}

fn bench_alcatel(c: &mut Criterion) {
    let mut rng = DetRng::new(5);
    let config = NetworkConfig::generate(&mut rng, 100);
    c.bench_function("alcatel/evaluate_100_switches", |b| {
        b.iter(|| rpcv_workload::alcatel::evaluate(&config))
    });
    c.bench_function("alcatel/generate_plan_50", |b| b.iter(|| AlcatelApp::with_tasks(50).plan()));
}

criterion_group!(benches, bench_store_scale, bench_pull_frontier, bench_queue_depth, bench_alcatel);
criterion_main!(benches);
