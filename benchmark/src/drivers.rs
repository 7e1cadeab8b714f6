//! Layer drivers: host nanoseconds per operation of each layer's public
//! primitives, measured on structures rebuilt to the shape the traced run
//! just observed (table depths, fleet size, log lengths, payload sizes).
//!
//! Every driver call is a span under the workload root.  A driver repeats
//! its batch for a fixed slice of host time and reports the *fastest*
//! batch: on a deterministic single-threaded operation, noise only adds.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rpcv_ckpt::CheckpointFrame;
use rpcv_core::msg::{Msg, RpcResult};
use rpcv_detect::HeartbeatMonitor;
use rpcv_log::{GcPolicy, LogStrategy, PeerLog, SenderLog};
use rpcv_obs::{Histogram, SpanBook, SpanEdge};
use rpcv_simnet::{
    Actor, Ctx, Disk, DiskSpec, HostSpec, NodeId, SimDuration, SimTime, TimerId, WireSized, World,
};
use rpcv_store::{CoordinatorDb, ReplicationDelta};
use rpcv_wire::{crc64, from_bytes, open_frame, seal_frame, to_bytes, Blob};
use rpcv_xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId, TaskDesc, TaskId};

use crate::layers::Shape;
use crate::metrics::Values;
use crate::trace::Tracer;

/// Host time one driver may spend repeating its batch.
const SLICE: Duration = Duration::from_millis(25);
/// Operations per batch.
const BATCH: u64 = 256;

/// Repeats `batch` — which returns the host time of its measured part and
/// the operations that part covered — and returns the fastest ns per op.
fn drive(tracer: &mut Tracer, span: &str, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let deadline = Instant::now() + SLICE;
    let mut best = f64::INFINITY;
    for round in 0.. {
        if round >= 3 && Instant::now() >= deadline {
            break;
        }
        let (took, ops) = tracer.span(span, &mut batch);
        if ops > 0 {
            best = best.min(took.as_nanos() as f64 / ops as f64);
        }
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let started = Instant::now();
    let out = black_box(f());
    (started.elapsed(), out)
}

/// Runs every driver and records its metric.  `wall_s` is the untraced
/// window time `store.est_share` is a share of.
pub fn run_all(tracer: &mut Tracer, shape: &Shape, wall_s: f64, values: &mut Values) {
    simnet(tracer, shape, values);
    store(tracer, shape, wall_s, values);
    wire(tracer, shape, values);
    detect(tracer, shape, values);
    log(tracer, shape, values);
    ckpt(tracer, shape, values);
    obs(tracer, shape, values);
}

// --- simnet -------------------------------------------------------------

struct Ping(u32);

impl WireSized for Ping {
    fn wire_size(&self) -> u64 {
        32
    }
}

/// Bounces a countdown with its pair node, or re-arms a timer.
struct Idler {
    peer: NodeId,
    timers_left: u32,
}

impl Actor<Ping> for Idler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
        if self.timers_left > 0 {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _from: NodeId, msg: Ping) {
        if msg.0 > 0 {
            ctx.send(self.peer, Ping(msg.0 - 1));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _id: TimerId, _kind: u64) {
        self.timers_left -= 1;
        if self.timers_left > 0 {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

fn bare_world(nodes: usize, timers: u32) -> World<Ping> {
    let mut world = World::<Ping>::new(1);
    for i in 0..nodes {
        let node = world.add_host(HostSpec::named("n"));
        let peer = NodeId((i ^ 1).min(nodes - 1) as u32);
        world.install(node, move |_| Box::new(Idler { peer, timers_left: timers }));
    }
    world
}

fn simnet(tracer: &mut Tracer, shape: &Shape, values: &mut Values) {
    const HOPS: u32 = 8;
    let nodes = shape.nodes.max(2);
    let hop = drive(tracer, "simnet.kernel_hop", || {
        let mut world = bare_world(nodes, 0);
        world.run_until(SimTime::from_secs(1));
        for n in 0..nodes {
            world.inject(SimTime::from_secs(2), NodeId(n as u32), Ping(HOPS));
        }
        let (took, _) = timed(|| world.run_until(SimTime::from_secs(60)));
        (took, nodes as u64 * (HOPS as u64 + 1))
    });
    values.set("simnet.kernel_hop_ns", hop);
    let timer = drive(tracer, "simnet.kernel_timer", || {
        let mut world = bare_world(nodes, HOPS);
        let (took, _) = timed(|| world.run_until(SimTime::from_secs(60)));
        (took, nodes as u64 * HOPS as u64)
    });
    values.set("simnet.kernel_timer_ns", timer);
}

// --- store --------------------------------------------------------------

const NOW: SimTime = SimTime(1_000_000_000);

fn job(client: ClientKey, seq: u64, shape: &Shape) -> JobSpec {
    JobSpec::new(
        JobKey::new(client, seq),
        "synthetic/bench",
        Blob::synthetic(shape.param_bytes, seq),
    )
    .with_result_size(shape.result_bytes)
    .with_work_units(shape.work_units)
}

/// A primary filled to the run's mid-window table sizes, and its replica.
/// The backlog client's jobs sit ongoing and archived for good; the
/// cycling client's jobs queue behind them and pass through the whole
/// lifecycle in seq order, one batch per cycle, so the tables keep their
/// depth while every stage sees fresh rows.
struct StoreRig {
    primary: CoordinatorDb,
    replica: CoordinatorDb,
    cycling: ClientKey,
    next_seq: u64,
    replicated: u64,
    servers: u64,
    /// The backlog tasks still ongoing on server 1: what its beats report.
    on_first_server: Vec<TaskId>,
}

impl StoreRig {
    fn new(shape: &Shape) -> Self {
        let backlog = ClientKey::new(1, 1);
        let cycling = ClientKey::new(2, 1);
        let servers = shape.servers.max(1) as u64;
        let mut primary = CoordinatorDb::new(CoordId(1));
        for seq in 1..=shape.ongoing + shape.archived {
            primary.register_job(job(backlog, seq, shape));
        }
        let mut on_first_server = Vec::new();
        for i in 0..shape.ongoing + shape.archived {
            let server = ServerId(1 + i % servers);
            let (Some(desc), _) = primary.next_pending(server, NOW) else { break };
            if i >= shape.ongoing {
                let archive = Blob::synthetic(shape.result_bytes, i);
                primary.complete_task(desc.id, desc.job, archive, server);
            } else if server == ServerId(1) {
                on_first_server.push(desc.id);
            }
        }
        for seq in 1..=shape.pending {
            primary.register_job(job(cycling, seq, shape));
        }
        let mut replica = CoordinatorDb::new(CoordId(2));
        replica.apply_delta(&primary.delta_since(0));
        let replicated = primary.version();
        StoreRig {
            primary,
            replica,
            cycling,
            next_seq: shape.pending + 1,
            replicated,
            servers,
            on_first_server,
        }
    }
}

/// The stages one batch of jobs passes through, in lifecycle order.
#[derive(Clone, Copy)]
enum Stage {
    Register,
    NextPending,
    Complete,
    Catalog,
    MarkCollected,
    Gc,
    Delta,
    Apply,
    Prune,
}

/// Span and metric name per [`Stage`], in declaration order.
const STAGES: [(&str, &str); 9] = [
    ("store.register_job", "store.register_job_ns"),
    ("store.next_pending", "store.next_pending_ns"),
    ("store.complete_task", "store.complete_task_ns"),
    ("store.catalog_since", "store.catalog_since_ns"),
    ("store.mark_collected", "store.mark_collected_ns"),
    ("store.gc_collected", "store.gc_collected_ns_per_row"),
    ("store.delta_since", "store.delta_since_ns_per_row"),
    ("store.apply_delta", "store.apply_delta_ns_per_row"),
    ("store.prune_retired", "store.prune_retired_ns_per_row"),
];

/// Fastest ns per op seen so far, per stage.
struct Fastest<'a> {
    tracer: &'a mut Tracer,
    ns: [f64; 9],
}

impl Fastest<'_> {
    /// Runs `f` as one stage's span; `ops` says how many operations its
    /// result stands for.
    fn stage<T>(&mut self, stage: Stage, ops: impl FnOnce(&T) -> u64, f: impl FnOnce() -> T) -> T {
        let (took, out) = self.tracer.span(STAGES[stage as usize].0, || timed(f));
        let ops = ops(&out);
        if ops > 0 {
            let slot = &mut self.ns[stage as usize];
            *slot = slot.min(took.as_nanos() as f64 / ops as f64);
        }
        out
    }
}

fn store(tracer: &mut Tracer, shape: &Shape, wall_s: f64, values: &mut Values) {
    let mut rig = StoreRig::new(shape);
    let deadline = Instant::now() + SLICE * 8;
    let mut fastest = Fastest { tracer, ns: [f64::INFINITY; 9] };
    let mut cycles = 0;
    while cycles < 3 || Instant::now() < deadline {
        cycles += 1;
        let specs: Vec<JobSpec> =
            (rig.next_seq..rig.next_seq + BATCH).map(|seq| job(rig.cycling, seq, shape)).collect();
        rig.next_seq += BATCH;
        let (db, servers, cycling) = (&mut rig.primary, rig.servers, rig.cycling);
        fastest.stage(
            Stage::Register,
            |_| BATCH,
            || {
                specs.into_iter().for_each(|s| {
                    let _ = db.register_job(s);
                })
            },
        );
        let descs: Vec<TaskDesc> = fastest.stage(
            Stage::NextPending,
            |_| BATCH,
            || {
                (0..BATCH)
                    .filter_map(|i| db.next_pending(ServerId(1 + i % servers), NOW).0)
                    .collect()
            },
        );
        let catalog_base = db.version();
        let archives: Vec<Blob> =
            descs.iter().map(|d| Blob::synthetic(shape.result_bytes, d.job.seq)).collect();
        fastest.stage(
            Stage::Complete,
            |_| descs.len() as u64,
            || {
                for (d, archive) in descs.iter().zip(archives) {
                    db.complete_task(d.id, d.job, archive, ServerId(1));
                }
            },
        );
        fastest.stage(Stage::Catalog, |_| 1, || db.results_catalog_since(cycling, catalog_base));
        let seqs: Vec<u64> =
            descs.iter().filter(|d| d.job.client == cycling).map(|d| d.job.seq).collect();
        fastest.stage(
            Stage::MarkCollected,
            |_| seqs.len() as u64,
            || db.mark_collected(cycling, &seqs),
        );
        fastest.stage(Stage::Gc, |_| seqs.len() as u64, || db.gc_collected());
        let delta = fastest.stage(
            Stage::Delta,
            |d: &ReplicationDelta| d.rows.len() as u64,
            || db.delta_since(rig.replicated),
        );
        rig.replicated = delta.head_version;
        let replica = &mut rig.replica;
        fastest.stage(Stage::Apply, |_| delta.rows.len() as u64, || replica.apply_delta(&delta));
        fastest.stage(Stage::Prune, |&pruned| pruned, || db.prune_retired(delta.head_version));
    }
    let Fastest { tracer, ns } = fastest;
    // A stage that never saw an operation reads 0, not infinity.
    let ns = ns.map(|v| if v.is_finite() { v } else { 0.0 });
    for ((_, metric), v) in STAGES.iter().zip(ns) {
        values.set(*metric, v);
    }
    let ns = |stage: Stage| ns[stage as usize];

    // A server holding its share of the ongoing backlog, beating in.
    let server = ServerId(1);
    let db = &mut rig.primary;
    let grace = SimDuration::from_secs(30);
    let running = &rig.on_first_server;
    let reconcile = drive(tracer, "store.reconcile_server", || {
        let (took, _) = timed(|| {
            for _ in 0..BATCH {
                black_box(db.reconcile_server(server, black_box(running), NOW, grace));
            }
        });
        (took, BATCH)
    });
    values.set("store.reconcile_server_ns", reconcile);
    let suspected = drive(tracer, "store.server_suspected", || {
        let mut scratch = db.clone();
        let (took, _) = timed(|| scratch.server_suspected(server));
        (took, 1)
    });
    values.set("store.server_suspected_ns", suspected);
    let snapshot = drive(tracer, "store.snapshot", || {
        let (took, snap) = timed(|| db.snapshot());
        (took, snap.rows.len() as u64)
    });
    values.set("store.snapshot_ns_per_row", snapshot);

    // Exact op counts x ns/op: each job passes once through the row
    // lifecycle and twice through its client's catalog delta (added, then
    // removed); each replicated row is built once and applied once; each
    // ServerBeat is one reconcile_server.
    use Stage::*;
    let per_job = [Register, NextPending, Complete, MarkCollected, Gc, Prune]
        .into_iter()
        .map(ns)
        .sum::<f64>()
        + 2.0 * ns(Catalog) / BATCH as f64;
    let store_ns = shape.jobs as f64 * per_job
        + shape.server_beats as f64 * reconcile
        + shape.repl_rows as f64 * (ns(Delta) + ns(Apply));
    values.set("store.est_share", store_ns / 1e9 / wall_s);
}

// --- wire ---------------------------------------------------------------

/// One frame of each kind the steady-state protocol exchanges, at the
/// workload's payload sizes.  `real` materialises the payload bytes (the
/// simulator ships synthetic blobs and only counts their size).
fn message_mix(shape: &Shape, real: bool) -> Vec<Msg> {
    let blob = |len: u64, seed: u64| {
        let b = Blob::synthetic(len, seed);
        if real {
            Blob::copy_from_slice(&b.materialize())
        } else {
            b
        }
    };
    let client = ClientKey::new(1, 1);
    let key = |seq| JobKey::new(client, seq);
    let spec = |seq| JobSpec { params: blob(shape.param_bytes, seq), ..job(client, seq, shape) };
    let desc = TaskDesc {
        id: TaskId::compose(CoordId(1), 7),
        job: key(7),
        attempt: 0,
        service: "synthetic/bench".into(),
        cmdline: String::new(),
        params: blob(shape.param_bytes, 7),
        exec_cost: 1.0,
        result_size_hint: shape.result_bytes,
        work_units: shape.work_units,
    };
    let mut db = CoordinatorDb::new(CoordId(1));
    for seq in 1..=16 {
        db.register_job(spec(seq));
    }
    vec![
        Msg::ServerBeat {
            server: ServerId(3),
            want_work: 1,
            running: vec![desc.id],
            offered: vec![],
        },
        Msg::ClientBeat { client, max_seq: 900, collected: (1..=8).collect(), catalog_seq: 4000 },
        Msg::Submit { spec: spec(9) },
        Msg::SubmitAck { job: key(9), coord_max: 9, epoch: 77 },
        Msg::ClientSyncReply {
            coord_max: 900,
            epoch: 77,
            catalog_base: 4000,
            catalog_head: 4100,
            available: (1..=8).map(|s| (s, shape.result_bytes)).collect(),
            removed: (1..=8).collect(),
        },
        Msg::ResultsRequest { client, want: (1..=8).collect() },
        Msg::ResultsReply {
            results: (1..=8)
                .map(|s| RpcResult { job: key(s), archive: blob(shape.result_bytes, s) })
                .collect(),
        },
        Msg::TaskDone {
            server: ServerId(3),
            task: desc.id,
            job: desc.job,
            archive: blob(shape.result_bytes, 7),
        },
        Msg::TaskDoneAck { task: desc.id, job: desc.job },
        Msg::Assign { task: desc, resume: None },
        Msg::NoWork,
        Msg::ReplDelta { delta: db.delta_since(0), want_archives: vec![] },
        Msg::ReplAck { from: CoordId(2), head_version: 4100 },
    ]
}

fn wire(tracer: &mut Tracer, shape: &Shape, values: &mut Values) {
    let counted = message_mix(shape, false);
    let n = counted.len() as u64;
    let size = drive(tracer, "wire.size_count", || {
        let (took, _) = timed(|| counted.iter().map(|m| black_box(m).wire_size()).sum::<u64>());
        (took, n)
    });
    values.set("wire.size_count_ns_per_msg", size);

    let real = message_mix(shape, true);
    let encoded: Vec<Vec<u8>> = real.iter().map(to_bytes).collect();
    let kb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let per_kb = |ns_per_mix: f64| ns_per_mix / kb;
    let encode = drive(tracer, "wire.encode", || {
        let (took, _) = timed(|| real.iter().map(|m| to_bytes(black_box(m)).len()).sum::<usize>());
        (took, 1)
    });
    values.set("wire.encode_ns_per_kb", per_kb(encode));
    let decode = drive(tracer, "wire.decode", || {
        let (took, _) =
            timed(|| encoded.iter().filter(|b| from_bytes::<Msg>(black_box(b)).is_ok()).count());
        (took, 1)
    });
    values.set("wire.decode_ns_per_kb", per_kb(decode));
    let crc = drive(tracer, "wire.crc64", || {
        let (took, _) =
            timed(|| encoded.iter().map(|b| crc64(black_box(b))).fold(0, u64::wrapping_add));
        (took, 1)
    });
    values.set("wire.crc64_ns_per_kb", per_kb(crc));
    let seal = drive(tracer, "wire.seal_open", || {
        let bodies = encoded.clone();
        let (took, _) =
            timed(|| bodies.into_iter().map(seal_frame).filter(|f| open_frame(f).is_ok()).count());
        (took, 1)
    });
    values.set("wire.seal_open_ns_per_kb", per_kb(seal));
}

// --- detect -------------------------------------------------------------

fn detect(tracer: &mut Tracer, shape: &Shape, values: &mut Values) {
    let fleet = shape.servers.max(1) as u64;
    let timeout = SimDuration::from_secs(30);
    // A monitor in its steady state: every server beat a few times.
    let mut mon = HeartbeatMonitor::<u64>::new(timeout);
    for round in 0..4 {
        for k in 0..fleet {
            mon.observe(k, SimTime::from_secs(round * 5));
        }
        mon.suspects(SimTime::from_secs(round * 5));
    }
    let mut t = 20;
    let observe = drive(tracer, "detect.observe", || {
        t += 5;
        let now = SimTime::from_secs(t);
        let (took, _) = timed(|| (0..fleet).for_each(|k| mon.observe(k, now)));
        // Keep the lazy deadline heap at its steady-state size.
        mon.suspects(now);
        (took, fleet)
    });
    values.set("detect.observe_ns", observe);
    let idle = drive(tracer, "detect.scan_idle", || {
        let now = SimTime::from_secs(t);
        let (took, _) = timed(|| (0..BATCH).map(|_| mon.suspects(now).len()).sum::<usize>());
        (took, BATCH)
    });
    values.set("detect.scan_idle_ns", idle);
    let expired = drive(tracer, "detect.scan_expired", || {
        let mut all = mon.clone();
        let (took, suspects) = timed(|| all.suspects(SimTime::from_secs(t) + timeout + timeout));
        (took, suspects.len() as u64)
    });
    values.set("detect.scan_expired_ns_per_suspect", expired);
}

// --- log ----------------------------------------------------------------

fn log(tracer: &mut Tracer, shape: &Shape, values: &mut Values) {
    let entry_bytes = shape.param_bytes + 64;
    let mut disk = Disk::new(DiskSpec::default());
    let mut sender =
        SenderLog::<u64>::new(LogStrategy::NonBlockingPessimistic, GcPolicy::unbounded());
    for i in 0..shape.client_log {
        sender.append(i, entry_bytes, NOW, &mut disk);
    }
    sender.ack_up_to(shape.client_log);
    let append = drive(tracer, "log.sender_append", || {
        let (took, _) = timed(|| {
            (0..BATCH).for_each(|i| {
                let _ = sender.append(i, entry_bytes, NOW, &mut disk);
            })
        });
        (took, BATCH)
    });
    values.set("log.sender_append_ns", append);
    let mut acked = shape.client_log;
    let ack = drive(tracer, "log.sender_ack", || {
        if acked + BATCH > sender.max_seq() {
            return (Duration::ZERO, 0);
        }
        let (took, _) = timed(|| (1..=BATCH).for_each(|i| sender.ack_up_to(acked + i)));
        acked += BATCH;
        (took, BATCH)
    });
    values.set("log.sender_ack_ns", ack);

    let mut peer = PeerLog::<u64>::new(GcPolicy::unbounded());
    for i in 0..shape.server_log {
        peer.append((1, i), i, shape.result_bytes, NOW, &mut disk);
        peer.ack((1, i));
    }
    let mut next = shape.server_log;
    let append = drive(tracer, "log.peer_append", || {
        let from = next;
        next += BATCH;
        let (took, _) = timed(|| {
            (from..next).for_each(|i| {
                let _ = peer.append((1, i), i, shape.result_bytes, NOW, &mut disk);
            })
        });
        (took, BATCH)
    });
    values.set("log.peer_append_ns", append);
    let offer = drive(tracer, "log.peer_offer", || {
        let (took, _) = timed(|| {
            (0..BATCH)
                .map(|_| peer.iter_unacked().take(64).map(|e| e.value).sum::<u64>())
                .sum::<u64>()
        });
        (took, BATCH)
    });
    values.set("log.peer_offer_ns", offer);
}

// --- ckpt ---------------------------------------------------------------

fn ckpt(tracer: &mut Tracer, shape: &Shape, values: &mut Values) {
    let key = JobKey::new(ClientKey::new(1, 1), 7);
    let task = TaskId::compose(CoordId(1), 7);
    let units = shape.work_units.max(1);
    let blob = Blob::synthetic(shape.param_bytes, 7);
    let seal = drive(tracer, "ckpt.frame_seal", || {
        let (took, _) = timed(|| {
            (0..BATCH as u32)
                .map(|i| CheckpointFrame::seal(key, task, 0, i % units, units, blob.clone()).digest)
                .fold(0, u64::wrapping_add)
        });
        (took, BATCH)
    });
    values.set("ckpt.frame_seal_ns", seal);
    let frame = CheckpointFrame::seal(key, task, 0, units / 2, units, blob);
    let verify = drive(tracer, "ckpt.frame_verify", || {
        let (took, _) = timed(|| (0..BATCH).filter(|_| black_box(&frame).verify().is_ok()).count());
        (took, BATCH)
    });
    values.set("ckpt.frame_verify_ns", verify);
}

// --- obs ----------------------------------------------------------------

fn obs(tracer: &mut Tracer, shape: &Shape, values: &mut Values) {
    let mut hist = Histogram::new();
    let record = drive(tracer, "obs.hist_record", || {
        let (took, _) = timed(|| (0..BATCH).for_each(|i| hist.record_nanos(black_box(i << 20))));
        (took, BATCH)
    });
    values.set("obs.hist_record_ns", record);

    let client = ClientKey::new(1, 1);
    let mut book = SpanBook::new();
    for seq in 1..=shape.spans {
        book.mark(JobKey::new(client, seq), SpanEdge::Submitted, NOW);
    }
    let mut next = shape.spans;
    let mark = drive(tracer, "obs.span_mark", || {
        let from = next + 1;
        next += BATCH / 4;
        let (took, _) = timed(|| {
            for seq in from..=next {
                let key = JobKey::new(client, seq);
                for edge in [
                    SpanEdge::Submitted,
                    SpanEdge::Dispatched,
                    SpanEdge::Finished,
                    SpanEdge::Collected,
                ] {
                    book.mark(key, edge, NOW);
                }
            }
        });
        (took, BATCH)
    });
    values.set("obs.span_mark_ns", mark);
}
