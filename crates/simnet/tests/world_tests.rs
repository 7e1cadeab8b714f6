//! World-level behaviour: delivery, timers, scheduled sends, crash/restart,
//! partitions, resource contention, and the determinism invariant.

use std::collections::BTreeMap;

use rpcv_simnet::*;

/// Test message: a counter plus a modelled size.
#[derive(Debug, Clone)]
struct Msg {
    hops: u64,
    size: u64,
}

impl WireSized for Msg {
    fn wire_size(&self) -> u64 {
        self.size
    }
}

/// Ping-pong actor that records what it saw.
struct Pong {
    received: Vec<(NodeId, u64)>,
    peer: Option<NodeId>,
    timer_fired: u64,
    started: u64,
    restore_marker: u64,
}

impl Pong {
    fn new(marker: u64) -> Self {
        Pong {
            received: Vec::new(),
            peer: None,
            timer_fired: 0,
            started: 0,
            restore_marker: marker,
        }
    }
}

impl Actor<Msg> for Pong {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {
        self.started += 1;
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        self.received.push((from, msg.hops));
        self.peer = Some(from);
        if from != NodeId::EXTERNAL && msg.hops > 0 {
            ctx.send(from, Msg { hops: msg.hops - 1, size: msg.size });
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, _kind: u64) {
        self.timer_fired += 1;
    }

    fn on_crash(self: Box<Self>, _now: SimTime) -> DurableImage {
        DurableImage::of(self.restore_marker + 1)
    }
}

fn two_node_world(seed: u64) -> (World<Msg>, NodeId, NodeId) {
    let mut w = World::<Msg>::new(seed);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.install(a, |img| Box::new(Pong::new(img.take::<u64>().unwrap_or(0))));
    w.install(b, |img| Box::new(Pong::new(img.take::<u64>().unwrap_or(0))));
    (w, a, b)
}

#[test]
fn messages_bounce_between_actors() {
    let (mut w, a, b) = two_node_world(1);
    w.inject(SimTime::ZERO, a, Msg { hops: 5, size: 100 });
    w.run_until_idle(SimTime::from_secs(10));
    let pa: &Pong = w.actor(a).unwrap();
    let pb: &Pong = w.actor(b).unwrap();
    // a receives the external injection but bounces nothing (external
    // origin); verify at least the injection was seen.
    assert_eq!(pa.received.len(), 1);
    assert_eq!(pa.received[0].0, NodeId::EXTERNAL);
    assert!(pb.received.is_empty());
}

/// Runs its closure on every start and ignores everything else.
struct OnStart<F>(F);

impl<F: FnMut(&mut Ctx<'_, Msg>) + Send + 'static> Actor<Msg> for OnStart<F> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        (self.0)(ctx);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _f: NodeId, _m: Msg) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, _k: u64) {}
}

/// Actor that fires a message to a fixed peer on start, creating real
/// inter-node traffic.
struct Starter {
    peer: NodeId,
    hops: u64,
    size: u64,
}

impl Actor<Msg> for Starter {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.send(self.peer, Msg { hops: self.hops, size: self.size });
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if msg.hops > 0 {
            ctx.send(from, Msg { hops: msg.hops - 1, size: msg.size });
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, _kind: u64) {}
}

#[test]
fn ping_pong_round_trips() {
    let mut w = World::<Msg>::new(7);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.install(b, |_| Box::new(Pong::new(0)));
    w.install(a, move |_| Box::new(Starter { peer: b, hops: 6, size: 1000 }));
    w.run_until_idle(SimTime::from_secs(60));
    // 6 hops: a->b (6), b->a (5), ... total 7 messages delivered.
    assert_eq!(w.stats().delivered, 7);
    assert_eq!(w.stats().dropped_total(), 0);
}

#[test]
fn transfer_time_respects_bandwidth_and_latency() {
    // 12.5 MB at 12.5 MB/s NIC-out + NIC-in plus 100us latency ≈ 2 s total.
    let mut w = World::<Msg>::new(3);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.net_mut().set_link_bidir(a, b, LinkParams { jitter: SimDuration::ZERO, ..LinkParams::lan() });
    w.install(b, |_| Box::new(Pong::new(0)));
    w.install(a, move |_| Box::new(Starter { peer: b, hops: 0, size: 12_500_000 }));
    let last = w.run_until_idle(SimTime::from_secs(60));
    let secs = last.as_secs_f64();
    assert!((secs - 2.0).abs() < 0.01, "expected ~2s, got {secs}");
}

#[test]
fn crash_drops_messages_and_restart_restores_durable_image() {
    let (mut w, a, b) = two_node_world(5);
    w.crash_now(b);
    assert!(!w.is_up(b));
    // Messages to a crashed node are dropped.
    w.inject(w.now(), b, Msg { hops: 0, size: 10 });
    w.run_until(SimTime::from_secs(1));
    assert_eq!(w.stats().dropped_down, 1);
    // Restart rebuilds the actor from the durable image (marker + 1).
    w.restart_now(b);
    assert!(w.is_up(b));
    w.run_until(w.now()); // process the queued on_start event
    let pb: &Pong = w.actor(b).unwrap();
    assert_eq!(pb.restore_marker, 1, "factory must receive the crash image");
    assert_eq!(pb.started, 1, "on_start must run after restart");
    // a was untouched.
    let pa: &Pong = w.actor(a).unwrap();
    assert_eq!(pa.restore_marker, 0);
}

#[test]
fn double_crash_is_idempotent() {
    let (mut w, _a, b) = two_node_world(9);
    w.crash_now(b);
    w.crash_now(b);
    assert_eq!(w.stats().crashes, 1);
    w.restart_now(b);
    w.restart_now(b);
    assert_eq!(w.stats().restarts, 1);
}

#[test]
fn partition_blocks_messages() {
    let mut w = World::<Msg>::new(11);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.install(b, |_| Box::new(Pong::new(0)));
    w.net_mut().block_bidir(a, b);
    w.install(a, move |_| Box::new(Starter { peer: b, hops: 3, size: 100 }));
    w.run_until_idle(SimTime::from_secs(10));
    assert_eq!(w.stats().delivered, 0);
    assert_eq!(w.stats().dropped_partition, 1);
}

#[test]
fn scheduled_controls_apply_in_order() {
    let mut w = World::<Msg>::new(13);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.install(b, |_| Box::new(Pong::new(0)));
    w.install(a, move |_| Box::new(Starter { peer: b, hops: 0, size: 100 }));
    // Crash b at t=10s, restart at t=20s.
    w.schedule_control(SimTime::from_secs(10), Control::Crash(b));
    w.schedule_control(SimTime::from_secs(20), Control::Restart(b));
    w.run_until(SimTime::from_secs(15));
    assert!(!w.is_up(b));
    w.run_until(SimTime::from_secs(25));
    assert!(w.is_up(b));
}

/// Timers: set and fire; crash invalidates pending timers.
struct TimerBox {
    fired: Vec<u64>,
}

impl Actor<Msg> for TimerBox {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for kind in 1..=3 {
            ctx.set_timer(SimDuration::from_secs(kind), kind);
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, kind: u64) {
        self.fired.push(kind);
    }
}

#[test]
fn crash_invalidates_pending_timers() {
    let mut w = World::<Msg>::new(19);
    let a = w.add_host(HostSpec::named("a"));
    w.install(a, |_| Box::new(TimerBox { fired: Vec::new() }));
    w.schedule_control(SimTime::from_millis(1500), Control::Crash(a));
    w.schedule_control(SimTime::from_millis(1600), Control::Restart(a));
    w.run_until_idle(SimTime::from_secs(30));
    let t: &TimerBox = w.actor(a).unwrap();
    // Timer 1 fired pre-crash. Timers 2 and 3 of the first incarnation died
    // with it; the restarted incarnation re-armed all three (1s/2s/3s after
    // restart) and they all fired.
    assert_eq!(t.fired, vec![1, 2, 3]);
}

#[test]
fn lossy_links_drop_some_messages() {
    let mut w = World::<Msg>::new(23);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.net_mut().set_link_bidir(a, b, LinkParams { loss: 0.5, ..LinkParams::lan() });
    w.install(b, |_| Box::new(Pong::new(0)));
    // 200 one-way messages; ~half should be lost.
    struct Burst {
        peer: NodeId,
    }
    impl Actor<Msg> for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for _ in 0..200 {
                ctx.send(self.peer, Msg { hops: 0, size: 10 });
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _f: NodeId, _m: Msg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, _k: u64) {}
    }
    w.install(a, move |_| Box::new(Burst { peer: b }));
    w.run_until_idle(SimTime::from_secs(10));
    let lost = w.stats().dropped_loss;
    assert!((60..=140).contains(&lost), "expected ~100 lost, got {lost}");
    assert_eq!(w.stats().delivered + lost, 200);
}

#[test]
fn determinism_same_seed_same_trace_hash() {
    let run = |seed: u64| {
        let mut w = World::<Msg>::new(seed);
        let a = w.add_host(HostSpec::named("a"));
        let b = w.add_host(HostSpec::named("b"));
        w.net_mut().set_link_bidir(a, b, LinkParams { loss: 0.1, ..LinkParams::lan() });
        w.install(b, |_| Box::new(Pong::new(0)));
        w.install(a, move |_| Box::new(Starter { peer: b, hops: 50, size: 2000 }));
        w.schedule_control(SimTime::from_millis(3), Control::Crash(b));
        w.schedule_control(SimTime::from_millis(5), Control::Restart(b));
        w.run_until_idle(SimTime::from_secs(100));
        (w.trace().hash(), *w.stats())
    };
    let (h1, s1) = run(42);
    let (h2, s2) = run(42);
    assert_eq!(h1, h2, "same seed must give identical traces");
    assert_eq!(s1, s2);
    let (h3, _) = run(43);
    assert_ne!(h1, h3, "different seeds should diverge");
}

/// Actor for the pinned reference run: mixes zero-size messages (which
/// deliver and handle at the same instant, a `Handle` queued behind its
/// `Deliver`), control-sized and bulk frames, timers (the crashed side's
/// go stale), and bounce chains, so every kernel path contributes to the
/// trace.
struct Churn {
    peer: NodeId,
}

impl Actor<Msg> for Churn {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(SimDuration::from_millis(700), 1);
        ctx.set_timer(SimDuration::from_secs(2), 2);
        ctx.set_timer(SimDuration::from_secs(4), 3);
        // Zero-size frames handle at their delivery instant; the bulk frame
        // exercises NIC serialization.
        ctx.send(self.peer, Msg { hops: 6, size: 0 });
        ctx.send(self.peer, Msg { hops: 2, size: 2000 });
        ctx.send(self.peer, Msg { hops: 0, size: 5_000_000 });
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if from != NodeId::EXTERNAL && msg.hops > 0 {
            ctx.send(from, Msg { hops: msg.hops - 1, size: msg.size });
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _id: TimerId, kind: u64) {
        if kind == 1 {
            ctx.send(self.peer, Msg { hops: 1, size: 0 });
        }
    }
}

/// Regression guard for the event kernel: a change to how events are
/// queued is a pure optimization and must not change the observable event
/// sequence.  A mismatch means the kernel changed scheduling order, not
/// just cost.
#[test]
fn reference_trace_is_stable_across_kernel_optimizations() {
    let run = || {
        let mut w = World::<Msg>::new(0xFEED);
        let a = w.add_host(HostSpec::named("a"));
        let b = w.add_host(HostSpec::named("b"));
        w.net_mut().set_link_bidir(a, b, LinkParams { loss: 0.2, ..LinkParams::lan() });
        w.install(b, move |_| Box::new(Churn { peer: a }));
        w.install(a, move |_| Box::new(Churn { peer: b }));
        w.schedule_control(SimTime::from_millis(1200), Control::Crash(b));
        w.schedule_control(SimTime::from_millis(1800), Control::Restart(b));
        w.run_until_idle(SimTime::from_secs(60));
        (w.trace().hash(), w.events_processed(), *w.stats())
    };
    let (hash, events, stats) = run();
    let (hash2, events2, _) = run();
    assert_eq!(hash, hash2, "reference run must be deterministic");
    assert_eq!(events, events2);
    assert_eq!(
        (hash, events, stats.sent, stats.delivered),
        (REF_HASH, REF_EVENTS, REF_SENT, REF_DELIVERED),
        "the kernel changed the observable event sequence"
    );
}

// Golden values captured from the seed kernel; the hash re-captured on the
// last kernel with timer cancellation, `Churn` no longer cancelling its 2 s
// timer.
const REF_HASH: u64 = 8213274418894078761;
const REF_EVENTS: u64 = 64;
const REF_SENT: u64 = 28;
const REF_DELIVERED: u64 = 25;

/// The lazy busy-time readout sums real resource occupancy per host-spec
/// name.
#[test]
fn class_busy_time_reflects_resource_occupancy_per_class() {
    let mut w = World::<Msg>::new(0xFEED);
    let a = w.add_host(HostSpec::named("left"));
    let b = w.add_host(HostSpec::named("right"));
    w.install(b, move |_| Box::new(Churn { peer: a }));
    w.install(a, move |_| Box::new(Churn { peer: b }));
    w.run_until_idle(SimTime::from_secs(60));
    let busy = w.class_busy_time();
    // The 5 MB bulk frame serializes through each side's NIC, so both
    // classes accumulated non-zero virtual busy-time.
    assert!(busy["left"].0 > 0 && busy["right"].0 > 0);
}

/// The disk has its own per-class readout: `class_busy_time` sums NIC, db
/// and CPU only, so a disk-bound class reads idle there.
#[test]
fn disk_busy_time_is_reported_apart_from_the_other_resources() {
    let mut w = World::<Msg>::new(5);
    let a = w.add_host(HostSpec::named("scribe"));
    w.add_host(HostSpec::named("idle"));
    // Three writes in one instant: the first's op, then one op the other
    // two share.
    w.install(a, |_| {
        Box::new(OnStart(|ctx: &mut Ctx<'_, Msg>| {
            for _ in 0..3 {
                ctx.disk_write(1000, false);
            }
        }))
    });
    w.run_until_idle(SimTime::from_secs(1));
    let disk = w.class_disk_busy_time();
    let two_ops = SimDuration::from_millis(8) + SimDuration::for_bytes(1000, 500.0e6) * 3;
    assert_eq!(disk["scribe"], two_ops);
    assert_eq!(disk["idle"], SimDuration::ZERO);
    assert_eq!(w.class_busy_time()["scribe"], SimDuration::ZERO);
}

#[test]
fn run_until_advances_clock_even_when_idle() {
    let mut w = World::<Msg>::new(29);
    w.run_until(SimTime::from_secs(42));
    assert_eq!(w.now(), SimTime::from_secs(42));
}

#[test]
fn run_until_idle_advances_clock_to_the_horizon() {
    // `run_until_idle(max)` observes the horizon empty: virtual time has
    // passed, so `now` must land on `max` exactly as `run_until` does.
    // Otherwise a timer armed after going idle lands earlier than the
    // same call after `run_until`.
    let mut w = World::<Msg>::new(37);
    let a = w.add_host(HostSpec::named("a"));
    w.install(a, |_| Box::new(Pong::new(0)));
    let last = w.run_until_idle(SimTime::from_secs(42));
    assert!(last < SimTime::from_secs(42), "world goes idle long before the horizon");
    assert_eq!(w.now(), SimTime::from_secs(42));

    let mut v = World::<Msg>::new(37);
    let b = v.add_host(HostSpec::named("a"));
    v.install(b, |_| Box::new(Pong::new(0)));
    v.run_until(SimTime::from_secs(42));
    assert_eq!(v.now(), w.now(), "both run modes leave the clock at the horizon");
}

#[test]
fn reinstall_over_live_actor_does_not_double_start() {
    let mut w = World::<Msg>::new(41);
    let a = w.add_host(HostSpec::named("a"));
    w.install(a, |_| Box::new(Pong::new(7)));
    // Replace before the first install's Start event is processed: that
    // queued Start carries the old incarnation and must go stale instead
    // of firing `on_start` a second time into the replacement actor.
    w.install(a, |_| Box::new(Pong::new(9)));
    w.run_until_idle(SimTime::from_secs(1));
    let p: &Pong = w.actor(a).unwrap();
    assert_eq!(p.restore_marker, 9, "replacement actor is the live one");
    assert_eq!(p.started, 1, "on_start fires exactly once per (re)install");
}

/// Frame hook for the chaos tests: duplicates by cloning and tags
/// corrupted frames by maxing out `hops` so receivers can spot them.
struct TestOps;

impl FrameOps<Msg> for TestOps {
    fn duplicate(&mut self, msg: &Msg) -> Option<Msg> {
        Some(msg.clone())
    }
    fn corrupt(&mut self, mut msg: Msg, _rng: &mut DetRng) -> Msg {
        msg.hops = u64::MAX;
        msg
    }
}

/// Records arrival order without bouncing anything back.
struct Recorder {
    seen: Vec<u64>,
}

impl Actor<Msg> for Recorder {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        self.seen.push(msg.hops);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, _kind: u64) {}
}

/// Sends `n` numbered frames on start.
struct NumberedBurst {
    peer: NodeId,
    n: u64,
}

impl Actor<Msg> for NumberedBurst {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for i in 0..self.n {
            ctx.send(self.peer, Msg { hops: i, size: 10 });
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _f: NodeId, _m: Msg) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _id: TimerId, _k: u64) {}
}

#[test]
fn duplication_delivers_extra_copies() {
    let mut w = World::<Msg>::new(101);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.net_mut().set_link_bidir(a, b, LinkParams::lan().with_dup(1.0));
    w.set_frame_ops(TestOps);
    w.install(b, |_| Box::new(Recorder { seen: Vec::new() }));
    w.install(a, move |_| Box::new(NumberedBurst { peer: b, n: 50 }));
    w.run_until_idle(SimTime::from_secs(10));
    let s = *w.stats();
    assert_eq!(s.sent, 50);
    assert_eq!(s.duplicated, 50);
    assert_eq!(s.delivered, 100, "each frame arrives twice");
    assert_eq!(s.sent + s.duplicated, s.delivered + s.dropped_total());
    let r: &Recorder = w.actor(b).unwrap();
    assert_eq!(r.seen.len(), 100);
}

#[test]
fn duplication_without_frame_ops_is_inert() {
    // The link wants duplicates but no hook can clone the frame: delivery
    // degrades gracefully to exactly-once and nothing is counted.
    let mut w = World::<Msg>::new(103);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.net_mut().set_link_bidir(a, b, LinkParams::lan().with_dup(1.0));
    w.install(b, |_| Box::new(Recorder { seen: Vec::new() }));
    w.install(a, move |_| Box::new(NumberedBurst { peer: b, n: 20 }));
    w.run_until_idle(SimTime::from_secs(10));
    assert_eq!(w.stats().delivered, 20);
    assert_eq!(w.stats().duplicated, 0);
}

#[test]
fn corruption_mangles_frames_but_still_delivers() {
    let mut w = World::<Msg>::new(107);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.net_mut().set_link_bidir(a, b, LinkParams::lan().with_corrupt(1.0));
    w.set_frame_ops(TestOps);
    w.install(b, |_| Box::new(Recorder { seen: Vec::new() }));
    w.install(a, move |_| Box::new(NumberedBurst { peer: b, n: 30 }));
    w.run_until_idle(SimTime::from_secs(10));
    assert_eq!(w.stats().corrupted, 30);
    assert_eq!(w.stats().delivered, 30, "corrupt frames are delivered, not dropped");
    let r: &Recorder = w.actor(b).unwrap();
    assert!(r.seen.iter().all(|&h| h == u64::MAX), "every frame passed through the hook");
}

#[test]
fn corruption_without_frame_ops_counts_but_delivers_intact() {
    let mut w = World::<Msg>::new(109);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.net_mut().set_link_bidir(a, b, LinkParams::lan().with_corrupt(1.0));
    w.install(b, |_| Box::new(Recorder { seen: Vec::new() }));
    w.install(a, move |_| Box::new(NumberedBurst { peer: b, n: 10 }));
    w.run_until_idle(SimTime::from_secs(10));
    assert_eq!(w.stats().corrupted, 10);
    let r: &Recorder = w.actor(b).unwrap();
    let mut sorted = r.seen.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "payloads untouched without a hook");
}

#[test]
fn reorder_window_scrambles_arrival_order() {
    let mut w = World::<Msg>::new(113);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.net_mut().set_link_bidir(
        a,
        b,
        LinkParams {
            jitter: SimDuration::ZERO,
            ..LinkParams::lan().with_reorder(1.0, SimDuration::from_millis(100))
        },
    );
    w.install(b, |_| Box::new(Recorder { seen: Vec::new() }));
    w.install(a, move |_| Box::new(NumberedBurst { peer: b, n: 20 }));
    w.run_until_idle(SimTime::from_secs(10));
    assert_eq!(w.stats().reordered, 20);
    assert_eq!(w.stats().delivered, 20, "reordering delays, never drops");
    let r: &Recorder = w.actor(b).unwrap();
    let in_order: Vec<u64> = (0..20).collect();
    let mut sorted = r.seen.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, in_order, "every frame still arrives exactly once");
    assert_ne!(r.seen, in_order, "the 100ms window must overtake back-to-back sends");
}

#[test]
fn wipe_durable_control_discards_crash_image() {
    let (mut w, _a, b) = two_node_world(127);
    w.crash_now(b);
    w.schedule_control(w.now(), Control::WipeDurable(b));
    w.run_until(SimTime::from_millis(1));
    w.restart_now(b);
    w.run_until(w.now());
    let pb: &Pong = w.actor(b).unwrap();
    assert_eq!(pb.restore_marker, 0, "wiped node restarts from a blank image");
    assert_eq!(pb.started, 1);
}

#[test]
fn set_default_link_control_degrades_and_restores_the_fabric() {
    struct TimedSender {
        peer: NodeId,
    }
    impl Actor<Msg> for TimedSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(SimDuration::from_secs(1), 1); // during the burst
            ctx.set_timer(SimDuration::from_secs(3), 2); // after restore
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _f: NodeId, _m: Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _id: TimerId, _k: u64) {
            ctx.send(self.peer, Msg { hops: 0, size: 10 });
        }
    }
    let mut w = World::<Msg>::new(131);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.install(b, |_| Box::new(Recorder { seen: Vec::new() }));
    w.install(a, move |_| Box::new(TimedSender { peer: b }));
    let burst = LinkParams::lan().with_loss(1.0);
    w.schedule_control(SimTime::from_millis(500), Control::SetDefaultLink { params: burst });
    w.schedule_control(
        SimTime::from_secs(2),
        Control::SetDefaultLink { params: LinkParams::lan() },
    );
    w.run_until_idle(SimTime::from_secs(10));
    assert_eq!(w.stats().dropped_loss, 1, "the 1s send dies inside the burst");
    assert_eq!(w.stats().delivered, 1, "the 3s send survives after restore");
}

#[test]
fn chaos_faults_are_deterministic() {
    let run = |seed: u64| {
        let mut w = World::<Msg>::new(seed);
        let a = w.add_host(HostSpec::named("a"));
        let b = w.add_host(HostSpec::named("b"));
        w.net_mut().set_link_bidir(
            a,
            b,
            LinkParams::lan()
                .with_loss(0.2)
                .with_dup(0.3)
                .with_corrupt(0.3)
                .with_reorder(0.5, SimDuration::from_millis(50)),
        );
        w.set_frame_ops(TestOps);
        w.install(b, |_| Box::new(Pong::new(0)));
        w.install(a, move |_| Box::new(NumberedBurst { peer: b, n: 40 }));
        w.run_until_idle(SimTime::from_secs(30));
        (w.trace().hash(), *w.stats())
    };
    let (h1, s1) = run(977);
    let (h2, s2) = run(977);
    assert_eq!(h1, h2, "chaos draws come from the seeded stream");
    assert_eq!(s1, s2);
    assert_eq!(s1.sent + s1.duplicated, s1.delivered + s1.dropped_total());
    let (h3, _) = run(978);
    assert_ne!(h1, h3);
}

#[test]
fn nic_contention_serializes_concurrent_sends() {
    // One sender bursts 10 × 1.25 MB to two receivers; NIC-out at 12.5 MB/s
    // must serialize them: total ≈ 1 s regardless of destination.
    let mut w = World::<Msg>::new(31);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    let c = w.add_host(HostSpec::named("c"));
    w.install(b, |_| Box::new(Pong::new(0)));
    w.install(c, |_| Box::new(Pong::new(0)));
    w.install(a, move |_| {
        Box::new(OnStart(move |ctx: &mut Ctx<'_, Msg>| {
            for i in 0..10 {
                ctx.send([b, c][i % 2], Msg { hops: 0, size: 1_250_000 });
            }
        }))
    });
    let last = w.run_until_idle(SimTime::from_secs(60));
    let secs = last.as_secs_f64();
    // 12.5 MB total at 12.5 MB/s out + 0.1 s receive tail ≈ 1.1 s.
    assert!((1.0..1.3).contains(&secs), "expected ~1.1s, got {secs}");
}

#[test]
fn a_send_scheduled_before_a_crash_never_leaves() {
    let mut w = World::<Msg>::new(151);
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.set_trace_recording(true);
    w.install(b, |_| Box::new(Recorder { seen: Vec::new() }));
    // Every incarnation of `a` schedules one frame 2 s after its start: the
    // first dies at 1 s, the restart at 1.5 s schedules its own for 3.5 s.
    w.install(a, move |_| {
        Box::new(OnStart(move |ctx: &mut Ctx<'_, Msg>| {
            ctx.send_at(ctx.now() + SimDuration::from_secs(2), b, Msg { hops: 0, size: 20_000 });
        }))
    });
    w.schedule_control(SimTime::from_secs(1), Control::Crash(a));
    w.schedule_control(SimTime::from_millis(1500), Control::Restart(a));
    w.run_until_idle(SimTime::from_secs(10));
    assert_eq!((w.stats().sent, w.stats().delivered), (1, 1));
    let ms = SimTime::from_millis;
    let at_a: Vec<_> =
        w.trace().events().iter().filter(|e| e.node == a).map(|e| (e.at, e.kind)).collect();
    assert_eq!(
        at_a,
        [
            (ms(1000), TraceKind::Crash),
            (ms(1500), TraceKind::Restart),
            (ms(3500), TraceKind::Timer),
            (ms(3500), TraceKind::Send),
        ],
        "the dead incarnation's 2 s frame leaves nothing, not even a trace entry"
    );
}

#[test]
fn a_send_at_already_due_is_a_send() {
    // `a` starts at 1 s and sends one bulk frame: with `send`, or with a
    // `send_at` for an instant already past or this very one.
    let run = |due: Option<SimTime>| {
        let mut w = World::<Msg>::new(157);
        let a = w.add_host(HostSpec::named("a"));
        let b = w.add_host(HostSpec::named("b"));
        w.net_mut().set_link_bidir(a, b, LinkParams::wan());
        w.set_trace_recording(true);
        w.install(b, |_| Box::new(Recorder { seen: Vec::new() }));
        w.run_until(SimTime::from_secs(1));
        w.install(a, move |_| {
            Box::new(OnStart(move |ctx: &mut Ctx<'_, Msg>| {
                let msg = Msg { hops: 0, size: 50_000 };
                if let Some(at) = due {
                    assert_eq!(ctx.send_at(at, b, msg), 50_000, "the charged size");
                } else {
                    ctx.send(b, msg);
                }
            }))
        });
        w.run_until_idle(SimTime::from_secs(10));
        let trace: Vec<_> = w.trace().events().iter().map(|e| (e.at, e.node, e.kind)).collect();
        (w.trace().hash(), w.events_processed(), *w.stats(), trace)
    };
    let sent = run(None);
    assert_eq!(sent.2.bytes_sent, 50_000);
    for due in [SimTime::ZERO, SimTime::from_secs(1)] {
        assert_eq!(run(Some(due)), sent, "send_at({due}) at 1 s: no timer, same arrival");
    }
}

/// Replies to every frame after a hop-dependent delay (none for one hop
/// count in three) — through [`Ctx::send_at`], or, in the reference twin,
/// as a timer whose id maps to the frame and whose `on_timer` sends it.
struct Delayed {
    peer: NodeId,
    /// The reference twin's armed timers: id → (destination, frame).
    timers: Option<BTreeMap<TimerId, (NodeId, Msg)>>,
}

impl Delayed {
    fn send_later(&mut self, ctx: &mut Ctx<'_, Msg>, at: SimTime, to: NodeId, msg: Msg) {
        let Some(timers) = &mut self.timers else {
            ctx.send_at(at, to, msg);
            return;
        };
        if at > ctx.now() {
            timers.insert(ctx.set_timer_at(at, 0), (to, msg));
        } else {
            ctx.send(to, msg);
        }
    }
}

impl Actor<Msg> for Delayed {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for i in 0..4 {
            let at = ctx.now() + SimDuration::from_millis(300 * i);
            let size = if i % 2 == 0 { 200 } else { 40_000 };
            self.send_later(ctx, at, self.peer, Msg { hops: 6 + i, size });
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if from != NodeId::EXTERNAL && msg.hops > 0 {
            let at = ctx.now() + SimDuration::from_millis(msg.hops % 3 * 70);
            self.send_later(ctx, at, from, Msg { hops: msg.hops - 1, size: msg.size });
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, id: TimerId, _kind: u64) {
        if let Some((to, msg)) = self.timers.as_mut().and_then(|t| t.remove(&id)) {
            ctx.send(to, msg);
        }
    }
}

#[test]
fn send_at_matches_a_timer_that_sends() {
    let run = |seed: u64, reference: bool| {
        let mut w = World::<Msg>::new(seed);
        let a = w.add_host(HostSpec::named("a"));
        let b = w.add_host(HostSpec::named("b"));
        let link = LinkParams::wan().with_loss(0.1).with_dup(0.2);
        w.net_mut().set_link_bidir(a, b, link.with_reorder(0.3, SimDuration::from_millis(50)));
        w.set_frame_ops(TestOps);
        let timers = move || reference.then(BTreeMap::new);
        w.install(a, move |_| Box::new(Delayed { peer: b, timers: timers() }));
        w.install(b, move |_| Box::new(Delayed { peer: a, timers: timers() }));
        // b dies with its 600 ms and 900 ms start frames scheduled and is
        // back before they come due: the new incarnation must not send them.
        w.schedule_control(SimTime::from_millis(450), Control::Crash(b));
        w.schedule_control(SimTime::from_millis(500), Control::Restart(b));
        w.run_until_idle(SimTime::from_secs(60));
        (w.trace().hash(), w.events_processed(), *w.stats())
    };
    let mut faults = [0; 4];
    for seed in 0..16 {
        let scheduled = run(seed, false);
        assert_eq!(scheduled, run(seed, true), "seed {seed}");
        let s = scheduled.2;
        let seen = [s.dropped_loss, s.duplicated, s.reordered, s.dropped_down];
        faults.iter_mut().zip(seen).for_each(|(n, k)| *n += k);
    }
    assert!(faults.iter().all(|&n| n > 0), "every fault the twins must agree under: {faults:?}");
}
