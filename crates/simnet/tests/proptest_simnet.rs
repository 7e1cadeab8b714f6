//! Property tests for the simulator kernel: determinism under arbitrary
//! topologies/fault schedules, resource-model monotonicity.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rpcv_simnet::disk::{CACHE_BW, CACHE_BYTES, PER_OP, PLATTER_BW};
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
/// [`PER_OP`], serialized behind the previous write's return.
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
            return PER_OP;
        }
        self.jitter_state ^= self.jitter_state >> 12;
        self.jitter_state ^= self.jitter_state << 25;
        self.jitter_state ^= self.jitter_state >> 27;
        let u = (self.jitter_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
            / (1u64 << 53) as f64;
        SimDuration::from_secs_f64(PER_OP.as_secs_f64() * (1.0 + self.spec.per_op_jitter * u))
    }

    fn advance(&mut self, now: SimTime) {
        let elapsed = now.since(self.as_of).as_secs_f64();
        self.cache_fill = (self.cache_fill - elapsed * PLATTER_BW).max(0.0);
        self.as_of = now;
    }

    fn write_cached(&mut self, now: SimTime, bytes: u64) -> WriteOutcome {
        let now = now.max(self.write_frontier);
        self.advance(now);
        let free = (CACHE_BYTES as f64 - self.cache_fill).max(0.0);
        let fast_bytes = (bytes as f64).min(free);
        let slow_bytes = bytes as f64 - fast_bytes;
        let t_fast = SimDuration::from_secs_f64(fast_bytes / CACHE_BW);
        let t_slow = SimDuration::from_secs_f64(slow_bytes / PLATTER_BW);
        let insert_done = now + self.op_cost() + t_fast + t_slow;
        self.busy_total += insert_done.since(now);
        self.advance(insert_done);
        self.cache_fill = (self.cache_fill + fast_bytes).min(CACHE_BYTES as f64);
        let drain = SimDuration::from_secs_f64(self.cache_fill / PLATTER_BW);
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
/// timer, and every odd one relays its successor through [`Ctx::send_at`]:
/// due now, within the calendar ring, or ~5 s out — past the ring's `NSLOTS`
/// horizon (≈ 4.1 s), so the frame waits in the overflow level and is
/// promoted from there (every fourth value arms its timer that far out too).
/// Chains are bounded: a firing timer relays at most one hop, and a relay
/// carries an even value.
struct RelayMix {
    peer: NodeId,
}
impl Actor<M> for RelayMix {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.set_timer(SimDuration::from_millis(300), 1);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, msg: M) {
        let far = if msg.0.is_multiple_of(4) { 5000 } else { 0 };
        ctx.set_timer(SimDuration::from_millis(100 + msg.0 % 900 + far), msg.0);
        let after = match msg.0 % 8 {
            1 => 0,
            5 => 100 + msg.0 % 900,
            3 | 7 => 5000 + msg.0 % 900,
            _ => return,
        };
        ctx.send_at(ctx.now() + SimDuration::from_millis(after), self.peer, M(msg.0 + 1));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _id: TimerId, k: u64) {
        // One relay hop for kinds divisible by 3; k+1 is never divisible
        // by 3 right after, so every chain terminates.
        if k.is_multiple_of(3) {
            ctx.send(self.peer, M(k + 1));
        }
    }
}

fn build_relay_mix(seed: u64, reference: bool) -> (World<M>, Vec<NodeId>) {
    build_relay_mix_chaos(seed, reference, false)
}

fn build_relay_mix_chaos(seed: u64, reference: bool, chaos: bool) -> (World<M>, Vec<NodeId>) {
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
    w.install(a, move |_| Box::new(RelayMix { peer: b }));
    w.install(b, move |_| Box::new(RelayMix { peer: a }));
    (w, vec![a, b])
}

/// Events in one burst of [`apply_qop`]: three to five arena chunks' worth
/// (256 slots each), so a drained burst crosses the queue's compaction
/// bound of 1.25 × the backlog plus two chunks.
const BURST: std::ops::Range<u64> = 3 * 256..5 * 256;

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One random driver operation, decoded from a `(kind, a, b)` tuple and
/// interpreted identically on both worlds: inject a message, process a
/// few single steps, run to a bounded horizon, or inject a burst of far
/// messages in scrambled time order.
fn apply_qop(w: &mut World<M>, nodes: &[NodeId], op: (u64, u64, u64)) {
    let (kind, a, b) = op;
    match kind % 4 {
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
        2 => {
            let t = w.now() + SimDuration::from_millis(a % 3000);
            w.run_until(t);
        }
        _ => {
            // Evenly spaced instants past the ring's ≈ 4.1 s horizon, pushed
            // in a strided order: every chunk the burst fills holds events
            // from across its whole span, as an open-loop plan injected
            // client by client leaves them.  The values are ≡ 2 (mod 4) and
            // not multiples of 3, so a burst message arms one near timer
            // and relays nothing.
            let n = BURST.start + a % (BURST.end - BURST.start);
            // A stride near n / φ and coprime to n permutes `0..n` and
            // spreads every run of consecutive pushes over the whole span.
            let mut stride = n * 618 / 1000 + b % 16;
            while gcd(stride, n) != 1 {
                stride += 1;
            }
            let gap = SimDuration::from_millis(1 + b % 40);
            let start = w.now() + SimDuration::from_millis(4_200 + (a >> 32) % 2_000);
            for k in 0..n {
                let i = k * stride % n;
                let at = start + gap * i;
                w.inject(
                    at,
                    nodes[(i % nodes.len() as u64) as usize],
                    M([2, 10, 14, 22][(i % 4) as usize]),
                );
            }
        }
    }
}

/// One network under partition cuts beside a reference that counts, per
/// ordered pair, the open cuts that separate it: placing a node counts it,
/// both ways, against every member already on the other side; a heal
/// uncounts every pair the cut separates.  A pair is cut exactly while its
/// count is above 0, so overlapping episodes nest.
struct CutsVsCounts {
    nodes: Vec<NodeId>,
    cuts: NetModel,
    apart: BTreeMap<(NodeId, NodeId), u32>,
    /// Members placed so far, per cut id; `None` once healed.
    members: Vec<Option<Vec<(NodeId, bool)>>>,
}

impl CutsVsCounts {
    fn open(&self) -> Vec<usize> {
        (0..self.members.len()).filter(|&c| self.members[c].is_some()).collect()
    }

    fn new_cut(&mut self) -> usize {
        self.members.push(Some(Vec::new()));
        self.members.len() - 1
    }

    fn place(&mut self, c: usize, node: NodeId, minority: bool) -> Result<(), TestCaseError> {
        self.cuts.cut(CutId(c as u64), node, minority);
        let members = self.members[c].as_mut().expect("placing into an open cut");
        for &(m, side) in members.iter() {
            if side != minority {
                *self.apart.entry((node, m)).or_default() += 1;
                *self.apart.entry((m, node)).or_default() += 1;
            }
        }
        members.push((node, minority));
        self.agree()
    }

    fn heal(&mut self, c: usize) -> Result<(), TestCaseError> {
        self.cuts.heal(CutId(c as u64));
        let members = self.members[c].take().expect("healing an open cut");
        for &(a, side_a) in &members {
            for &(b, side_b) in &members {
                if side_a != side_b {
                    *self.apart.get_mut(&(a, b)).expect("a counted pair") -= 1;
                }
            }
        }
        self.agree()
    }

    /// Every ordered pair is cut exactly while some open cut separates it.
    fn agree(&self) -> Result<(), TestCaseError> {
        for &a in &self.nodes {
            for &b in &self.nodes {
                let apart = self.apart.get(&(a, b)).copied().unwrap_or(0);
                let want = (apart == 0).then(LinkParams::default);
                let link = self.cuts.link(a, b);
                prop_assert!(link == want, "{:?}→{:?}: {:?} under {} cut(s)", a, b, link, apart);
            }
        }
        Ok(())
    }
}

proptest! {
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
        let spec = DiskSpec { per_op_jitter: jitter as f64 * 0.5 };

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
        let spec = DiskSpec { per_op_jitter: jitter as f64 * 0.5 };
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
    /// plane fully lit: duplicated, corrupted and reorder-delayed frames —
    /// sent at once or at a scheduled instant — schedule identically in
    /// both kernels.
    #[test]
    fn calendar_queue_matches_reference_heap_under_chaos(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u64..3, any::<u64>(), any::<u64>()), 1..30),
    ) {
        let (mut cal, nodes) = build_relay_mix_chaos(seed, false, true);
        let (mut heap, nodes_r) = build_relay_mix_chaos(seed, true, true);
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
    /// heap: the same random interleaving of injections, scrambled bursts
    /// of far events, single steps and bounded runs — with actors arming
    /// timers and scheduling sends throughout — leaves both kernels at the
    /// same clock, event count and trace hash after EVERY operation, not
    /// just at the end.  Each burst spans several arena chunks, so draining
    /// it compacts the arena, and the arena audit holds across compactions.
    #[test]
    fn calendar_queue_matches_reference_heap(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u64..4, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let (mut cal, nodes) = build_relay_mix(seed, false);
        let (mut heap, nodes_r) = build_relay_mix(seed, true);
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
        let bursts = ops.iter().filter(|&&(kind, _, _)| kind == 3).count();
        prop_assert!(bursts == 0 || a.compactions > 0, "{} bursts drained without compacting", bursts);
    }

    /// A pair is cut exactly while at least one open cut puts its nodes on
    /// opposite sides, checked against a per-pair count of the separating
    /// open cuts on every ordered pair after every control: overlapping
    /// cuts over ≤ 12 nodes, single placements and whole opens interleaved
    /// with heals, a cut healed in the op that opened it (and one opened
    /// right after a heal), a node on different sides of two live cuts.
    #[test]
    fn partition_cuts_match_per_pair_counts(
        n in 2u32..13,
        ops in proptest::collection::vec((0u64..4, any::<u64>()), 1..60),
    ) {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut net = CutsVsCounts {
            nodes: nodes.clone(),
            cuts: NetModel::default(),
            apart: BTreeMap::new(),
            members: Vec::new(),
        };
        for &(kind, bits) in &ops {
            let open = net.open();
            match kind {
                // One node onto one side of an open cut, or of a new one.
                0 | 1 => {
                    let c = if open.is_empty() || bits & 1 == 1 {
                        net.new_cut()
                    } else {
                        open[(bits >> 1) as usize % open.len()]
                    };
                    let placed = net.members[c].as_ref().unwrap().clone();
                    let free: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|&x| placed.iter().all(|&(m, _)| m != x))
                        .collect();
                    if !free.is_empty() {
                        let node = free[(bits >> 8) as usize % free.len()];
                        net.place(c, node, (bits >> 16) & 1 == 1)?;
                    }
                }
                // A whole cut at once, as a plan opens one: each node is a
                // member or not, minority or majority, by two bits; a third
                // heals it in the same op.
                2 => {
                    let c = net.new_cut();
                    for (i, &node) in nodes.iter().enumerate() {
                        if (bits >> (2 * i)) & 1 == 1 {
                            net.place(c, node, (bits >> (2 * i + 1)) & 1 == 1)?;
                        }
                    }
                    if (bits >> 40) & 1 == 1 {
                        net.heal(c)?;
                    }
                }
                // Heal an open cut; a bit opens a fresh one-node-per-side
                // cut right after it.
                _ => {
                    if !open.is_empty() {
                        net.heal(open[bits as usize % open.len()])?;
                    }
                    if (bits >> 40) & 1 == 1 {
                        let c = net.new_cut();
                        let a = nodes[(bits >> 8) as usize % nodes.len()];
                        let b = nodes[(bits >> 16) as usize % nodes.len()];
                        net.place(c, a, true)?;
                        if b != a {
                            net.place(c, b, false)?;
                        }
                    }
                }
            }
        }
        for c in net.open() {
            net.heal(c)?;
        }
        for &a in &nodes {
            for &b in &nodes {
                prop_assert!(net.cuts.link(a, b).is_some(), "{:?}→{:?} still cut", a, b);
            }
        }
    }
}
