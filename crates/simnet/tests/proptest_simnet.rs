//! Property tests for the simulator kernel: determinism under arbitrary
//! topologies/fault schedules, resource-model monotonicity.

use proptest::prelude::*;
use rpcv_simnet::*;

#[derive(Debug, Clone)]
struct M(u64);
impl WireSized for M {
    fn wire_size(&self) -> u64 {
        64 + self.0 % 1000
    }
}

/// Gossiping actor: forwards a decremented counter to a pseudo-random
/// peer; emits a finite number of timer-driven bursts so worlds drain.
struct Gossip {
    peers: Vec<NodeId>,
    bursts_left: u32,
}
impl Actor<M> for Gossip {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.set_timer(SimDuration::from_millis(500), 1);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, msg: M) {
        if msg.0 > 0 && !self.peers.is_empty() {
            let idx = ctx.rng().below(self.peers.len() as u64) as usize;
            let to = self.peers[idx];
            ctx.send(to, M(msg.0 - 1));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _id: TimerId, _k: u64) {
        if !self.peers.is_empty() {
            let idx = ctx.rng().below(self.peers.len() as u64) as usize;
            let to = self.peers[idx];
            ctx.send(to, M(8));
        }
        if self.bursts_left > 0 {
            self.bursts_left -= 1;
            ctx.set_timer(SimDuration::from_millis(700), 1);
        }
    }
}

/// Frame hook for `M`: duplication clones the counter, corruption knocks
/// the counter *down* by a seeded amount.  Never increasing the value
/// matters: gossip hop counts must stay monotone decreasing or the
/// duplication branching factor turns the message population
/// supercritical and worlds never drain.
struct MOps;
impl FrameOps<M> for MOps {
    fn duplicate(&mut self, msg: &M) -> Option<M> {
        Some(M(msg.0))
    }
    fn corrupt(&mut self, msg: M, rng: &mut DetRng) -> M {
        M(msg.0.saturating_sub(rng.next_u64() & 0b111))
    }
}

/// The op-per-write disk this crate shipped before group commit — the
/// parent's `Disk::write_cached` body, kept here as the reference the
/// group-commit queue is compared against: every write pays its own
/// `per_op`, serialized behind the previous write's return.
struct OpPerWriteDisk {
    spec: DiskSpec,
    cache_fill: f64,
    as_of: SimTime,
    jitter_state: u64,
    write_frontier: SimTime,
    busy_total: SimDuration,
}

impl OpPerWriteDisk {
    fn new(spec: DiskSpec) -> Self {
        OpPerWriteDisk {
            spec,
            cache_fill: 0.0,
            as_of: SimTime::ZERO,
            jitter_state: 0x9E37_79B9_7F4A_7C15,
            write_frontier: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
        }
    }

    fn op_cost(&mut self) -> SimDuration {
        if self.spec.per_op_jitter <= 0.0 {
            return self.spec.per_op;
        }
        self.jitter_state ^= self.jitter_state >> 12;
        self.jitter_state ^= self.jitter_state << 25;
        self.jitter_state ^= self.jitter_state >> 27;
        let u = (self.jitter_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
            / (1u64 << 53) as f64;
        SimDuration::from_secs_f64(
            self.spec.per_op.as_secs_f64() * (1.0 + self.spec.per_op_jitter * u),
        )
    }

    fn advance(&mut self, now: SimTime) {
        let elapsed = now.since(self.as_of).as_secs_f64();
        self.cache_fill = (self.cache_fill - elapsed * self.spec.platter_bw).max(0.0);
        self.as_of = now;
    }

    fn write_cached(&mut self, now: SimTime, bytes: u64) -> WriteOutcome {
        let now = now.max(self.write_frontier);
        self.advance(now);
        let free = (self.spec.cache_bytes as f64 - self.cache_fill).max(0.0);
        let fast_bytes = (bytes as f64).min(free);
        let slow_bytes = bytes as f64 - fast_bytes;
        let t_fast = SimDuration::from_secs_f64(fast_bytes / self.spec.cache_bw);
        let t_slow = SimDuration::from_secs_f64(slow_bytes / self.spec.platter_bw);
        let insert_done = now + self.op_cost() + t_fast + t_slow;
        self.busy_total += insert_done.since(now);
        self.advance(insert_done);
        self.cache_fill = (self.cache_fill + fast_bytes).min(self.spec.cache_bytes as f64);
        let drain = SimDuration::from_secs_f64(self.cache_fill / self.spec.platter_bw);
        self.write_frontier = insert_done;
        WriteOutcome { returned_at: insert_done, durable_at: insert_done + drain }
    }
}

fn build(seed: u64, n: usize, loss: f64, faults: &[(u64, usize)]) -> World<M> {
    build_chaos(seed, n, (loss, 0.0, 0.0, 0.0), faults)
}

fn build_chaos(
    seed: u64,
    n: usize,
    (loss, dup, corrupt, reorder): (f64, f64, f64, f64),
    faults: &[(u64, usize)],
) -> World<M> {
    let mut w = World::<M>::new(seed);
    let nodes: Vec<NodeId> = (0..n).map(|i| w.add_host(HostSpec::named(format!("n{i}")))).collect();
    let link = LinkParams { loss, ..LinkParams::lan() }
        .with_dup(dup)
        .with_corrupt(corrupt)
        .with_reorder(reorder, SimDuration::from_millis(80));
    *w.net_mut() = NetModel::new(link);
    if dup > 0.0 || corrupt > 0.0 {
        w.set_frame_ops(MOps);
    }
    for (i, &node) in nodes.iter().enumerate() {
        let peers: Vec<NodeId> = nodes.iter().copied().filter(|&p| p != nodes[i]).collect();
        w.install(node, move |_| Box::new(Gossip { peers: peers.clone(), bursts_left: 8 }));
    }
    for &(at_ms, victim) in faults {
        let node = nodes[victim % n];
        w.schedule_control(SimTime::from_millis(at_ms), Control::Crash(node));
        w.schedule_control(SimTime::from_millis(at_ms + 900), Control::Restart(node));
    }
    w
}

/// Actor for the queue-equivalence property: every message arms a fresh
/// timer and pseudo-randomly cancels an older one, so the schedule mixes
/// pushes, pops and cancellations at overlapping instants.  Every fourth
/// message value arms its timer ~5 s out — past the calendar ring's
/// `NSLOTS` horizon (≈ 4.1 s) — so far timers wait in the overflow level
/// and get promoted (or cancelled) from there.  Chains are bounded: a
/// firing timer relays at most one hop.
struct CancelMix {
    peer: NodeId,
    pending: Vec<TimerId>,
}
impl Actor<M> for CancelMix {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        self.pending.push(ctx.set_timer(SimDuration::from_millis(300), 1));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, msg: M) {
        let far = if msg.0.is_multiple_of(4) { 5000 } else { 0 };
        let id = ctx.set_timer(SimDuration::from_millis(100 + msg.0 % 900 + far), msg.0);
        self.pending.push(id);
        if msg.0 % 2 == 1 && !self.pending.is_empty() {
            let idx = (msg.0 as usize) % self.pending.len();
            let stale = self.pending.remove(idx);
            ctx.cancel_timer(stale);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _id: TimerId, k: u64) {
        // One relay hop for kinds divisible by 3; k+1 is never divisible
        // by 3 right after, so every chain terminates.
        if k.is_multiple_of(3) {
            ctx.send(self.peer, M(k + 1));
        }
    }
}

fn build_cancel_mix(seed: u64, reference: bool) -> (World<M>, Vec<NodeId>) {
    build_cancel_mix_chaos(seed, reference, false)
}

fn build_cancel_mix_chaos(seed: u64, reference: bool, chaos: bool) -> (World<M>, Vec<NodeId>) {
    let mut w = World::<M>::new(seed);
    if reference {
        w.use_reference_queue();
    }
    if chaos {
        let link = LinkParams::lan()
            .with_dup(0.3)
            .with_corrupt(0.25)
            .with_reorder(0.4, SimDuration::from_millis(60));
        *w.net_mut() = NetModel::new(link);
        w.set_frame_ops(MOps);
    }
    let a = w.add_host(HostSpec::named("a"));
    let b = w.add_host(HostSpec::named("b"));
    w.install(a, move |_| Box::new(CancelMix { peer: b, pending: Vec::new() }));
    w.install(b, move |_| Box::new(CancelMix { peer: a, pending: Vec::new() }));
    (w, vec![a, b])
}

/// One random driver operation, decoded from a `(kind, a, b)` tuple and
/// interpreted identically on both worlds: inject a message, process a
/// few single steps, or run to a bounded horizon.
fn apply_qop(w: &mut World<M>, nodes: &[NodeId], op: (u64, u64, u64)) {
    let (kind, a, b) = op;
    match kind % 3 {
        0 => {
            let at = w.now() + SimDuration::from_millis(a % 5000);
            w.inject(at, nodes[b as usize % nodes.len()], M(b % 64));
        }
        1 => {
            for _ in 0..(a % 8) {
                if !w.step() {
                    break;
                }
            }
        }
        _ => {
            let t = w.now() + SimDuration::from_millis(a % 3000);
            w.run_until(t);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The determinism invariant: identical configuration ⇒ identical
    /// trace hash and statistics, under arbitrary node counts, loss rates
    /// and fault schedules.
    #[test]
    fn same_config_same_trace(
        seed in any::<u64>(),
        n in 2usize..8,
        loss in 0.0f64..0.4,
        faults in proptest::collection::vec((0u64..8000, 0usize..8), 0..6),
    ) {
        let run = || {
            let mut w = build(seed, n, loss, &faults);
            w.run_until(SimTime::from_secs(12));
            (w.trace().hash(), *w.stats(), w.events_processed())
        };
        let (h1, s1, e1) = run();
        let (h2, s2, e2) = run();
        prop_assert_eq!(h1, h2);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(e1, e2);
    }

    /// Resource occupancy is monotone: operations queued later never
    /// complete earlier, regardless of issue times and durations.
    #[test]
    fn resource_fifo_monotone(ops in proptest::collection::vec((0u64..1000, 0u64..500), 1..60)) {
        let mut r = rpcv_simnet::resource::Resource::new();
        let mut sorted = ops.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let mut last_end = SimTime::ZERO;
        for (at, dur) in sorted {
            let occ = r.acquire(SimTime::from_millis(at), SimDuration::from_millis(dur));
            prop_assert!(occ.start >= SimTime::from_millis(at));
            prop_assert!(occ.end >= occ.start);
            prop_assert!(occ.end >= last_end, "FIFO completion order violated");
            last_end = occ.end;
        }
    }

    /// Group commit against the op-per-write reference ([`OpPerWriteDisk`]).
    /// No-overlap arm: when every write is issued after the previous one
    /// returned, nothing is ever pending or executing at issue time and the
    /// two disks are bit-identical (jitter stream included).  Overlap arm:
    /// arbitrary issue times keep every ordering and conservation law, open
    /// no more ops than writes, and never keep the disk busy longer than the
    /// reference did.
    #[test]
    fn disk_group_commit_matches_reference(
        jitter in 0u64..2,
        writes in proptest::collection::vec((0u64..5000, 1u64..2_000_000), 1..40),
    ) {
        let spec = DiskSpec { per_op_jitter: jitter as f64 * 0.5, ..DiskSpec::default() };

        let (mut d, mut r) = (Disk::new(spec.clone()), OpPerWriteDisk::new(spec.clone()));
        let mut at = SimTime::ZERO;
        for &(gap, bytes) in &writes {
            at += SimDuration::from_micros(gap);
            let out = d.write_cached(at, bytes);
            prop_assert_eq!(out, r.write_cached(at, bytes));
            at = out.returned_at;
        }
        prop_assert_eq!(d.ops(), d.writes());
        prop_assert_eq!(d.busy_total(), r.busy_total);

        let (mut d, mut r) = (Disk::new(spec.clone()), OpPerWriteDisk::new(spec));
        let mut sorted = writes.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let (mut last_returned, mut last_durable) = (SimTime::ZERO, SimTime::ZERO);
        for &(at, bytes) in &sorted {
            let at = SimTime::from_millis(at);
            let out = d.write_cached(at, bytes);
            r.write_cached(at, bytes);
            prop_assert!(out.returned_at >= at);
            prop_assert!(out.durable_at >= out.returned_at);
            prop_assert!(out.returned_at >= last_returned, "returns must be FIFO");
            prop_assert!(out.durable_at >= last_durable, "durability must be FIFO");
            (last_returned, last_durable) = (out.returned_at, out.durable_at);
        }
        prop_assert_eq!(d.writes(), sorted.len() as u64);
        prop_assert_eq!(d.bytes_written(), sorted.iter().map(|&(_, b)| b).sum::<u64>());
        prop_assert!(d.ops() <= d.writes());
        prop_assert!(d.busy_total() <= r.busy_total, "{} > {}", d.busy_total(), r.busy_total);
    }

    /// Back-to-back arrivals, every gap shorter than one op: the
    /// reference's frontier runs away linearly; group commit's never gets
    /// further from the clock than the executing op's remainder plus the one
    /// pending op.  (At ≥ 200 µs between ≤ 4 KiB writes the cache never
    /// fills, so an op is its seek — ≤ 6 ms with jitter — plus ≤ 30 memcpys
    /// of 8 µs.)
    #[test]
    fn disk_group_commit_queue_cannot_run_away(
        jitter in 0u64..2,
        writes in proptest::collection::vec((200u64..2000, 1u64..4096), 50..400),
    ) {
        let spec = DiskSpec { per_op_jitter: jitter as f64 * 0.5, ..DiskSpec::default() };
        let op_max = SimDuration::from_micros(6_500);
        let (mut d, mut r) = (Disk::new(spec.clone()), OpPerWriteDisk::new(spec));
        let mut at = SimTime::ZERO;
        let mut lag_ref = SimDuration::ZERO;
        for &(gap, bytes) in &writes {
            at += SimDuration::from_micros(gap);
            let out = d.write_cached(at, bytes);
            prop_assert!(out.returned_at.since(at) <= op_max * 2, "lag {}", out.returned_at.since(at));
            lag_ref = r.write_cached(at, bytes).returned_at.since(at);
        }
        let n = writes.len() as u64;
        prop_assert!(lag_ref >= SimDuration::from_millis(2) * n, "reference lag {lag_ref}");
        prop_assert!(d.ops() * 2 <= n, "{} ops for {n} writes", d.ops());
    }

    /// Messages are conserved: sent == delivered + dropped + still-queued;
    /// after draining, sent == delivered + dropped.
    #[test]
    fn message_conservation(seed in any::<u64>(), loss in 0.0f64..0.5) {
        let mut w = build(seed, 4, loss, &[]);
        w.run_until_idle(SimTime::from_secs(60));
        let s = w.stats();
        prop_assert_eq!(s.sent, s.delivered + s.dropped_total());
    }

    /// Determinism survives the full chaos plane: duplication, corruption
    /// and reorder draws all come from the seeded stream, with crash
    /// faults layered on top.
    #[test]
    fn same_config_same_trace_with_chaos(
        seed in any::<u64>(),
        n in 2usize..6,
        loss in 0.0f64..0.3,
        dup in 0.0f64..0.4,
        corrupt in 0.0f64..0.4,
        reorder in 0.0f64..0.5,
        faults in proptest::collection::vec((0u64..8000, 0usize..8), 0..4),
    ) {
        let run = || {
            let mut w = build_chaos(seed, n, (loss, dup, corrupt, reorder), &faults);
            w.run_until(SimTime::from_secs(12));
            (w.trace().hash(), *w.stats(), w.events_processed())
        };
        let (h1, s1, e1) = run();
        let (h2, s2, e2) = run();
        prop_assert_eq!(h1, h2);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(e1, e2);
    }

    /// Conservation with duplication active: every frame put on the wire —
    /// original or duplicate — is eventually delivered or counted in
    /// exactly one drop bucket.  Corruption and reorder never destroy or
    /// mint frames.
    #[test]
    fn message_conservation_with_chaos(
        seed in any::<u64>(),
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.5,
        corrupt in 0.0f64..0.5,
        reorder in 0.0f64..0.5,
        faults in proptest::collection::vec((0u64..6000, 0usize..4), 0..3),
    ) {
        let mut w = build_chaos(seed, 4, (loss, dup, corrupt, reorder), &faults);
        w.run_until_idle(SimTime::from_secs(60));
        let s = w.stats();
        prop_assert_eq!(s.sent + s.duplicated, s.delivered + s.dropped_total());
    }

    /// Calendar-queue ≡ reference-heap equivalence holds with the chaos
    /// plane fully lit: duplicated, corrupted and reorder-delayed frames
    /// schedule identically in both kernels.
    #[test]
    fn calendar_queue_matches_reference_heap_under_chaos(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u64..3, any::<u64>(), any::<u64>()), 1..30),
    ) {
        let (mut cal, nodes) = build_cancel_mix_chaos(seed, false, true);
        let (mut heap, nodes_r) = build_cancel_mix_chaos(seed, true, true);
        for &op in &ops {
            apply_qop(&mut cal, &nodes, op);
            apply_qop(&mut heap, &nodes_r, op);
            prop_assert_eq!(cal.now(), heap.now());
            prop_assert_eq!(cal.events_processed(), heap.events_processed());
            prop_assert_eq!(cal.trace().hash(), heap.trace().hash());
        }
        // Run both to the same horizon (chaos chains may outlive it; the
        // kernels must still agree event-for-event).
        cal.run_until_idle(SimTime::from_secs(120));
        heap.run_until_idle(SimTime::from_secs(120));
        prop_assert_eq!(cal.trace().hash(), heap.trace().hash());
        prop_assert_eq!(cal.events_processed(), heap.events_processed());
        prop_assert_eq!(*cal.stats(), *heap.stats());
    }

    /// The calendar queue is event-for-event equivalent to the reference
    /// heap: the same random interleaving of injections, single steps and
    /// bounded runs — with actors arming and cancelling timers throughout —
    /// leaves both kernels at the same clock, event count and trace hash
    /// after EVERY operation, not just at the end.
    #[test]
    fn calendar_queue_matches_reference_heap(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u64..3, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let (mut cal, nodes) = build_cancel_mix(seed, false);
        let (mut heap, nodes_r) = build_cancel_mix(seed, true);
        prop_assert!(!cal.is_reference_queue());
        prop_assert!(heap.is_reference_queue());
        for &op in &ops {
            apply_qop(&mut cal, &nodes, op);
            apply_qop(&mut heap, &nodes_r, op);
            // Lockstep check after every operation, not just at the end.
            prop_assert_eq!(cal.now(), heap.now());
            prop_assert_eq!(cal.events_processed(), heap.events_processed());
            prop_assert_eq!(cal.trace().hash(), heap.trace().hash());
            prop_assert_eq!(cal.queue_len(), heap.queue_len());
            // Arena audit: every queued event owns exactly one live slot
            // and one handle; every other slot of an allocated chunk is on
            // a free list.
            let a = cal.queue_audit().expect("calendar kernel");
            prop_assert_eq!(a.live_slots, cal.queue_len());
            prop_assert_eq!(a.handles, cal.queue_len());
            prop_assert_eq!(a.live_slots + a.free_slots, a.chunks * a.chunk_slots);
        }
        prop_assert!(heap.queue_audit().is_none());
        // Drain both to quiescence: full equivalence must persist.
        cal.run_until_idle(SimTime::from_secs(120));
        heap.run_until_idle(SimTime::from_secs(120));
        prop_assert_eq!(cal.trace().hash(), heap.trace().hash());
        prop_assert_eq!(cal.events_processed(), heap.events_processed());
        prop_assert_eq!(*cal.stats(), *heap.stats());
        prop_assert_eq!(cal.queue_len(), 0);
        prop_assert_eq!(heap.queue_len(), 0);
        // After the drain everything is back on the free lists, and the
        // chunks that drained empty were returned (one spare is kept).
        let a = cal.queue_audit().expect("calendar kernel");
        prop_assert_eq!((a.live_slots, a.handles), (0, 0));
        prop_assert_eq!(a.free_slots, a.chunks * a.chunk_slots);
        prop_assert!(a.chunks <= 1, "drained chunks must be returned: {:?}", a);
    }
}
