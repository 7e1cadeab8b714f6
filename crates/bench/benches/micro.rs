//! Criterion microbenchmarks for the substrates: marshalling, logging,
//! storage, detection, the simulator kernel, and the Alcatel evaluator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use rpcv_core::frontier::{PullFrontier, RetryPolicy};
use rpcv_core::msg::Msg;
use rpcv_detect::HeartbeatMonitor;
use rpcv_log::{GcPolicy, LogStrategy, SenderLog};
use rpcv_simnet::DetRng;
use rpcv_store::CoordinatorDb;
use rpcv_wire::{crc64, from_bytes, to_bytes, Blob};
use rpcv_workload::{AlcatelApp, NetworkConfig};
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId};

fn bench_wire(c: &mut Criterion) {
    let msg = Msg::Submit {
        spec: JobSpec::new(
            JobKey::new(ClientKey::new(1, 2), 3),
            "alcatel/netsim",
            Blob::from_vec(vec![7u8; 1024]),
        ),
    };
    let bytes = to_bytes(&msg);
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_submit_1k", |b| b.iter(|| to_bytes(&msg)));
    g.bench_function("decode_submit_1k", |b| b.iter(|| from_bytes::<Msg>(&bytes).unwrap()));
    let payload = vec![0xA5u8; 64 * 1024];
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("crc64_64k", |b| b.iter(|| crc64(&payload)));
    g.finish();
}

fn bench_logging(c: &mut Criterion) {
    let mut g = c.benchmark_group("logging");
    for strategy in LogStrategy::ALL {
        g.bench_function(format!("append_{}", strategy.name()), |b| {
            b.iter_batched(
                || {
                    (
                        SenderLog::<u64>::new(strategy, GcPolicy::unbounded()),
                        rpcv_simnet::Disk::new(rpcv_simnet::DiskSpec::default()),
                    )
                },
                |(mut log, mut disk)| {
                    for i in 0..100 {
                        log.append(i, 1000, rpcv_simnet::SimTime::ZERO, &mut disk);
                    }
                    log
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.bench_function("register_100_jobs", |b| {
        b.iter_batched(
            || CoordinatorDb::new(CoordId(1)),
            |mut db| {
                for i in 1..=100u64 {
                    db.register_job(JobSpec::new(
                        JobKey::new(ClientKey::new(1, 1), i),
                        "svc",
                        Blob::synthetic(300, i),
                    ));
                }
                db
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("delta_roundtrip_100_jobs", |b| {
        let mut db = CoordinatorDb::new(CoordId(1));
        for i in 1..=100u64 {
            db.register_job(JobSpec::new(
                JobKey::new(ClientKey::new(1, 1), i),
                "svc",
                Blob::synthetic(300, i),
            ));
        }
        b.iter_batched(
            || CoordinatorDb::new(CoordId(2)),
            |mut backup| {
                let delta = db.delta_since(0);
                backup.apply_delta(&delta);
                backup
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("schedule_drain_100_tasks", |b| {
        b.iter_batched(
            || {
                let mut db = CoordinatorDb::new(CoordId(1));
                for i in 1..=100u64 {
                    db.register_job(JobSpec::new(
                        JobKey::new(ClientKey::new(1, 1), i),
                        "svc",
                        Blob::synthetic(300, i),
                    ));
                }
                db
            },
            |mut db| {
                while let (Some(_), _) = db.next_pending(ServerId(1), rpcv_simnet::SimTime::ZERO) {}
                db
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

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

/// One job's whole life on the store — register → dispatch → complete →
/// collect → GC → prune — in batches of 100 on top of 10 k resident rows
/// (so the trees have their working depth), and a replica applying the
/// same rows from the delta feed.  This is the path the row-per-job layout
/// exists for: every step probes the job's one row.
fn bench_store_lifecycle(c: &mut Criterion) {
    const RESIDENT: u64 = 10_000;
    const BATCH: u64 = 100;
    let client = ClientKey::new(1, 1);
    let spec = |seq: u64| JobSpec::new(JobKey::new(client, seq), "svc", Blob::synthetic(300, seq));
    let mut resident = CoordinatorDb::new(CoordId(1));
    for seq in 1..=RESIDENT {
        resident.register_job(spec(seq));
    }
    // The batch runs *below* the resident prefix in dispatch order, so
    // drain the resident queue first: the lifecycle's `next_pending` then
    // pops exactly the batch.
    while let (Some(_), _) = resident.next_pending(ServerId(9), rpcv_simnet::SimTime::ZERO) {}
    // Runs seqs `first..first + BATCH` through their whole life; returns
    // how many retired (none while an uncollected prefix sits below them).
    let lifecycle = |db: &mut CoordinatorDb, first: u64| -> u64 {
        let seqs: Vec<u64> = (first..first + BATCH).collect();
        for &seq in &seqs {
            db.register_job(spec(seq));
        }
        while let (Some(d), _) = db.next_pending(ServerId(1), rpcv_simnet::SimTime::ZERO) {
            db.complete_task(d.id, d.job, Blob::synthetic(64, d.job.seq), ServerId(1));
        }
        db.mark_collected(client, &seqs);
        db.gc_collected();
        let head = db.version();
        let retired = db.prune_retired(head);
        db.prune_catalog_acked(client, head);
        retired
    };
    let mut g = c.benchmark_group("store_lifecycle");
    g.throughput(Throughput::Elements(BATCH));
    g.bench_function("register_to_gc_100_jobs_on_10k", |b| {
        b.iter_batched(
            || resident.clone(),
            |mut db| {
                lifecycle(&mut db, RESIDENT + 1);
                db
            },
            BatchSize::LargeInput,
        )
    });
    // Retention needs a contiguous collected prefix: a fresh database.
    g.bench_function("register_to_prune_100_jobs", |b| {
        b.iter_batched(
            || CoordinatorDb::new(CoordId(1)),
            |mut db| {
                assert_eq!(lifecycle(&mut db, 1), BATCH);
                db
            },
            BatchSize::SmallInput,
        )
    });
    // The replica side: the same 100 jobs' job/task/collected rows applied
    // from the feed onto a replica that already holds the resident rows.
    let mut replica = CoordinatorDb::new(CoordId(2));
    replica.apply_delta(&resident.delta_since(0));
    let base = resident.version();
    let mut primary = resident.clone();
    lifecycle(&mut primary, RESIDENT + 1);
    let delta = primary.delta_since(base);
    g.bench_function("apply_delta_same_100_jobs_on_10k", |b| {
        b.iter_batched(
            || replica.clone(),
            |mut db| {
                db.apply_delta(&delta);
                db
            },
            BatchSize::LargeInput,
        )
    });
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

fn bench_detect(c: &mut Criterion) {
    c.bench_function("detect/observe_and_scan_1000", |b| {
        b.iter_batched(
            HeartbeatMonitor::<u64>::paper_default,
            |mut mon| {
                for i in 0..1000 {
                    mon.observe(i, rpcv_simnet::SimTime::from_secs(i % 40));
                }
                mon.suspects(rpcv_simnet::SimTime::from_secs(60)).len()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_simnet(c: &mut Criterion) {
    use rpcv_simnet::*;
    struct Bouncer;
    #[derive(Debug)]
    struct B(u64);
    impl WireSized for B {
        fn wire_size(&self) -> u64 {
            32
        }
    }
    impl Actor<B> for Bouncer {
        fn on_start(&mut self, _ctx: &mut Ctx<'_, B>) {}
        fn on_message(&mut self, ctx: &mut Ctx<'_, B>, from: NodeId, msg: B) {
            if from != NodeId::EXTERNAL && msg.0 > 0 {
                ctx.send(from, B(msg.0 - 1));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, B>, _id: TimerId, _k: u64) {}
    }
    c.bench_function("simnet/10k_message_hops", |b| {
        b.iter(|| {
            let mut w = World::<B>::new(1);
            let a = w.add_host(HostSpec::named("a"));
            let bn = w.add_host(HostSpec::named("b"));
            w.install(a, |_| Box::new(Bouncer));
            w.install(bn, |_| Box::new(Bouncer));
            struct Kick {
                peer: NodeId,
            }
            impl Actor<B> for Kick {
                fn on_start(&mut self, ctx: &mut Ctx<'_, B>) {
                    ctx.send(self.peer, B(10_000));
                }
                fn on_message(&mut self, ctx: &mut Ctx<'_, B>, from: NodeId, msg: B) {
                    if msg.0 > 0 {
                        ctx.send(from, B(msg.0 - 1));
                    }
                }
                fn on_timer(&mut self, _ctx: &mut Ctx<'_, B>, _id: TimerId, _k: u64) {}
            }
            let c0 = w.add_host(HostSpec::named("c"));
            w.install(c0, move |_| Box::new(Kick { peer: bn }));
            w.run_until_idle(SimTime::from_secs(100_000));
            w.events_processed()
        })
    });
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

criterion_group!(
    benches,
    bench_wire,
    bench_logging,
    bench_store,
    bench_store_scale,
    bench_store_lifecycle,
    bench_pull_frontier,
    bench_detect,
    bench_simnet,
    bench_queue_depth,
    bench_alcatel
);
criterion_main!(benches);
