//! The simulation world: event queue, nodes, dispatch loop, fault control.

use crate::actor::{Actor, Ctx, DurableImage, FrameOps, TimerId, WireSized};
use crate::net::{CutId, LinkParams, NetModel};
use crate::node::{HostResources, HostSpec, NodeId};
use crate::queue::{EventQueue, QueueAudit};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{NetStats, Trace, TraceKind};

/// External control actions, schedulable at absolute instants.
///
/// These model the paper's fault generator ("upon order, or from its own
/// initiative ... kills abruptly the RPC-V component of the hosting
/// machine") and the partition scenarios of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Control {
    /// Kill the node's process abruptly.
    Crash(NodeId),
    /// Restart the node from its durable image.
    Restart(NodeId),
    /// Discard the node's durable image (disk loss / reinstallation): the
    /// next restart begins from scratch.  Equivalent to
    /// [`World::wipe_durable`], but schedulable inside a fault plan.
    WipeDurable(NodeId),
    /// Replace the network's *default* link parameters (loss/dup/corrupt
    /// bursts degrade the whole fabric; pair overrides stay untouched).
    SetDefaultLink {
        /// The new default.
        params: LinkParams,
    },
    /// Block the directed pair (or both directions).
    Block {
        /// Source side.
        from: NodeId,
        /// Destination side.
        to: NodeId,
        /// Apply to both directions.
        bidir: bool,
    },
    /// Unblock the directed pair (or both directions).
    Unblock {
        /// Source side.
        from: NodeId,
        /// Destination side.
        to: NodeId,
        /// Apply to both directions.
        bidir: bool,
    },
    /// Put `node` on one side of partition `cut` ([`NetModel::cut`]): a
    /// partition over `n` nodes is `n` of these at its open and one
    /// [`Control::Heal`] at its close.
    Cut {
        /// The partition episode.
        cut: CutId,
        /// The member placed.
        node: NodeId,
        /// Which side it is on.
        minority: bool,
    },
    /// Close partition `cut` ([`NetModel::heal`]).
    Heal {
        /// The partition episode.
        cut: CutId,
    },
}

/// What the queue holds.  `SendAt` is a [`Ctx::send_at`] frame waiting for
/// its instant: `node` sends it then if it still runs incarnation `inc`.  A
/// timer's id is its event's sequence number.
pub(crate) enum EventKind<M> {
    Start { node: NodeId, inc: u32 },
    Deliver { to: NodeId, from: NodeId, msg: M, size: u64 },
    Handle { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, inc: u32, kind: u64 },
    SendAt { node: NodeId, inc: u32, to: NodeId, msg: M, size: u64 },
    Control(Control),
}

/// The one way an event enters the queue: it takes the world's next
/// sequence number, which is returned.
pub(crate) fn enqueue<M>(
    queue: &mut EventQueue<EventKind<M>>,
    seq: &mut u64,
    at: SimTime,
    kind: EventKind<M>,
) -> u64 {
    *seq += 1;
    queue.push(at, *seq, kind);
    *seq
}

type Factory<M> = Box<dyn FnMut(DurableImage) -> Box<dyn Actor<M> + Send> + Send>;

struct NodeSlot<M> {
    spec: HostSpec,
    up: bool,
    inc: u32,
    actor: Option<Box<dyn Actor<M> + Send>>,
    factory: Option<Factory<M>>,
    res: HostResources,
    rng: DetRng,
    durable: DurableImage,
}

/// Deterministic discrete-event world hosting actors of message type `M`.
pub struct World<M> {
    now: SimTime,
    seq: u64,
    queue: EventQueue<EventKind<M>>,
    nodes: Vec<NodeSlot<M>>,
    net: NetModel,
    trace: Trace,
    stats: NetStats,
    master_rng: DetRng,
    events_processed: u64,
    frame_ops: Option<Box<dyn FrameOps<M>>>,
}

impl<M: WireSized + 'static> World<M> {
    /// New world seeded by `seed`, with a default LAN network.
    pub fn new(seed: u64) -> Self {
        World {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            net: NetModel::default(),
            trace: Trace::new(),
            stats: NetStats::default(),
            master_rng: DetRng::new(seed),
            events_processed: 0,
            frame_ops: None,
        }
    }

    /// Installs the frame-level chaos hook (duplication copies, corruption
    /// mangling).  Without one, `dup` is inert and `corrupt` only counts.
    pub fn set_frame_ops(&mut self, ops: impl FrameOps<M> + 'static) {
        self.frame_ops = Some(Box::new(ops));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Instant of the earliest queued event, if any (used by the realtime
    /// driver to sleep until the next thing happens).
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.queue.peek_next_time()
    }

    /// Swaps the kernel event queue for the retained single-heap reference
    /// implementation (the pre-calendar kernel).  Must be called before any
    /// event is scheduled; the equivalence property tests run every
    /// scenario under both kernels and require identical traces.
    pub fn use_reference_queue(&mut self) {
        assert!(
            self.queue.is_empty() && self.events_processed == 0,
            "switch queue implementations before scheduling events"
        );
        self.queue = EventQueue::reference();
    }

    /// True when running on the reference (heap) kernel.
    pub fn is_reference_queue(&self) -> bool {
        self.queue.is_reference()
    }

    /// Network model (setup: link classes, initial partitions).
    pub fn net_mut(&mut self) -> &mut NetModel {
        &mut self.net
    }

    /// Trace accumulator.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables/disables full trace recording.
    pub fn set_trace_recording(&mut self, on: bool) {
        self.trace.set_recording(on);
    }

    /// Message statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Events processed so far (throughput accounting).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events currently queued (capacity/backlog observability).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Internal-consistency readout of the calendar queue's arena and
    /// handle levels (`None` on the reference heap) — for the queue
    /// equivalence property tests.
    #[doc(hidden)]
    pub fn queue_audit(&self) -> Option<QueueAudit> {
        self.queue.audit()
    }

    /// Virtual busy-time per actor class (host-spec name), summed over each
    /// node's NIC/db/CPU resource occupancy — the disk is **excluded**; it
    /// has its own readout, [`Self::class_disk_busy_time`].  Computed lazily
    /// from the resource accounting the kernel already keeps, so reading it
    /// costs nothing during the run; the totals are lifetime sums (a crash
    /// drops queued work, not the accounting).
    pub fn class_busy_time(&self) -> std::collections::BTreeMap<String, SimDuration> {
        self.sum_by_class(|r| {
            r.cpu.busy_total() + r.db.busy_total() + r.nic_in.busy_total() + r.nic_out.busy_total()
        })
    }

    /// Virtual disk busy-time per actor class: each node's
    /// [`crate::Disk::busy_total`] (write ops and reads, per-op cost plus
    /// transfer), summed by host-spec name.  Kept apart from
    /// [`Self::class_busy_time`] because a disk-bound class reads nearly
    /// idle there.
    pub fn class_disk_busy_time(&self) -> std::collections::BTreeMap<String, SimDuration> {
        self.sum_by_class(|r| r.disk.busy_total())
    }

    fn sum_by_class(
        &self,
        busy: impl Fn(&HostResources) -> SimDuration,
    ) -> std::collections::BTreeMap<String, SimDuration> {
        let mut out = std::collections::BTreeMap::new();
        for slot in &self.nodes {
            *out.entry(slot.spec.name.clone()).or_insert(SimDuration::ZERO) += busy(&slot.res);
        }
        out
    }

    /// Adds a host; returns its id.  Hosts start `up` with no actor.
    pub fn add_host(&mut self, spec: HostSpec) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let rng = self.master_rng.derive(id.0 as u64);
        let res = HostResources::new(&spec);
        self.nodes.push(NodeSlot {
            spec,
            up: true,
            inc: 0,
            actor: None,
            factory: None,
            res,
            rng,
            durable: DurableImage::none(),
        });
        id
    }

    /// Installs an actor on `node` via its (re)construction factory.
    ///
    /// The factory is invoked immediately with an empty [`DurableImage`]
    /// for the first incarnation, and again with the image captured at
    /// crash time for every restart.  `on_start` runs as a scheduled event
    /// at the current time.
    pub fn install<F>(&mut self, node: NodeId, mut factory: F)
    where
        F: FnMut(DurableImage) -> Box<dyn Actor<M> + Send> + Send + 'static,
    {
        let actor = factory(DurableImage::none());
        let slot = &mut self.nodes[node.0 as usize];
        if slot.actor.is_some() {
            // Re-install over a live actor: the previous install's queued
            // `Start` (and any armed timers) carry the old incarnation.
            // Bump it so they go stale instead of firing `on_start` twice
            // into the replacement actor.
            slot.inc += 1;
        }
        slot.actor = Some(actor);
        slot.factory = Some(Box::new(factory));
        let inc = slot.inc;
        self.push_event(self.now, EventKind::Start { node, inc });
    }

    /// Schedules a control action at an absolute instant.
    pub fn schedule_control(&mut self, at: SimTime, ctl: Control) {
        self.push_event(at, EventKind::Control(ctl));
    }

    /// Hands `msg` to `to`'s actor at `at`, from [`NodeId::EXTERNAL`].  An
    /// injected stimulus is a local call (a GridRPC API call, a test's
    /// probe), not a frame off the wire: it is handled at its instant, in
    /// injection order, with no wire-size count and no receiver-NIC hop.
    pub fn inject(&mut self, at: SimTime, to: NodeId, msg: M) {
        self.push_event(at, EventKind::Handle { to, from: NodeId::EXTERNAL, msg });
    }

    /// True if the node's process is running.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].up
    }

    /// Discards the durable image captured at the node's last crash, so
    /// the next restart begins "from the beginning of its execution"
    /// (paper §4.1's other restart mode) instead of from local state —
    /// models disk loss / reinstallation.
    pub fn wipe_durable(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].durable = DurableImage::none();
    }

    /// Downcast read access to an installed actor.
    pub fn actor<T: 'static>(&self, node: NodeId) -> Option<&T> {
        let actor = self.nodes[node.0 as usize].actor.as_deref()?;
        (actor as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Downcast mutable access to an installed actor.
    pub fn actor_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        let actor = self.nodes[node.0 as usize].actor.as_deref_mut()?;
        (actor as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    /// True while `node` runs incarnation `inc`: events it queued for
    /// itself (its start, timers, scheduled sends) die with the process.
    fn is_current(&self, node: NodeId, inc: u32) -> bool {
        let slot = &self.nodes[node.0 as usize];
        slot.up && slot.inc == inc && slot.actor.is_some()
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind<M>) {
        enqueue(&mut self.queue, &mut self.seq, at.max(self.now), kind);
    }

    /// Runs all events up to and including `t`; leaves `now == t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((at, seq, kind)) = self.queue.pop_at_most(t) {
            self.dispatch(at, seq, kind);
        }
        self.now = self.now.max(t);
    }

    /// Runs for `d` from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Runs until the queue is empty or `max` is reached; returns the time
    /// of the last processed event.  Like [`Self::run_until`], leaves
    /// `now == max`: the horizon has been observed empty, so virtual time
    /// has passed (previously `now` stuck at the last event, making
    /// post-idle scheduling land earlier than the same calls after
    /// `run_until`).
    pub fn run_until_idle(&mut self, max: SimTime) -> SimTime {
        let mut last = self.now;
        while let Some((at, seq, kind)) = self.queue.pop_at_most(max) {
            last = at;
            self.dispatch(at, seq, kind);
        }
        self.now = self.now.max(max);
        last
    }

    /// Processes a single event; returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, seq, kind)) => {
                self.dispatch(at, seq, kind);
                true
            }
            None => false,
        }
    }

    /// Crashes a node immediately.
    pub fn crash_now(&mut self, node: NodeId) {
        self.seq += 1;
        self.dispatch(self.now, self.seq, EventKind::Control(Control::Crash(node)));
    }

    /// Restarts a node immediately.
    pub fn restart_now(&mut self, node: NodeId) {
        self.seq += 1;
        self.dispatch(self.now, self.seq, EventKind::Control(Control::Restart(node)));
    }

    fn dispatch(&mut self, at: SimTime, seq: u64, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        self.events_processed += 1;
        match kind {
            EventKind::Start { node, inc } => {
                if self.is_current(node, inc) {
                    self.with_actor(node, |actor, ctx| actor.on_start(ctx));
                }
            }
            EventKind::Deliver { to, from, msg, size } => {
                // Frames addressed outside the world (an actor replying to
                // an externally injected message, or a garbled destination)
                // vanish like frames to a dead host — never a panic.
                let Some(slot) = self.nodes.get_mut(to.0 as usize).filter(|s| s.up) else {
                    self.stats.dropped_down += 1;
                    self.trace.push(self.now, to, TraceKind::DropDown, "");
                    return;
                };
                // Receiver-side NIC serialization, then handler.  Control
                // frames interleave (see CONTROL_FRAME_BYTES).
                let service = SimDuration::for_bytes(size, slot.spec.nic_bw);
                let at = if size <= crate::actor::CONTROL_FRAME_BYTES {
                    self.now + service
                } else {
                    slot.res.nic_in.acquire(self.now, service).end
                };
                self.push_event(at, EventKind::Handle { to, from, msg });
            }
            EventKind::Handle { to, from, msg } => {
                if !self.nodes.get(to.0 as usize).is_some_and(|s| s.up && s.actor.is_some()) {
                    self.stats.dropped_down += 1;
                    self.trace.push(self.now, to, TraceKind::DropDown, "");
                    return;
                }
                self.stats.delivered += 1;
                self.trace.push(self.now, to, TraceKind::Deliver, "");
                self.with_actor(to, |actor, ctx| actor.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, inc, kind } => {
                if self.is_current(node, inc) {
                    self.trace.push(self.now, node, TraceKind::Timer, "");
                    self.with_actor(node, |actor, ctx| actor.on_timer(ctx, TimerId(seq), kind));
                }
            }
            EventKind::SendAt { node, inc, to, msg, size } => {
                // Traced as a timer whose handler sends, which is what the
                // benchmark's step classifier and the pinned hashes read.
                if self.is_current(node, inc) {
                    self.trace.push(self.now, node, TraceKind::Timer, "");
                    self.with_ctx(node, |ctx| {
                        ctx.send_sized(to, msg, size);
                    });
                }
            }
            EventKind::Control(ctl) => self.apply_control(ctl),
        }
    }

    fn apply_control(&mut self, ctl: Control) {
        match ctl {
            Control::Crash(node) => {
                let now = self.now;
                let slot = &mut self.nodes[node.0 as usize];
                if !slot.up {
                    return;
                }
                if let Some(actor) = slot.actor.take() {
                    slot.durable = actor.on_crash(now);
                }
                slot.up = false;
                slot.inc += 1;
                slot.res.reset(now);
                self.stats.crashes += 1;
                self.trace.push(now, node, TraceKind::Crash, "");
            }
            Control::Restart(node) => {
                let now = self.now;
                let slot = &mut self.nodes[node.0 as usize];
                if slot.up {
                    return;
                }
                let Some(factory) = slot.factory.as_mut() else { return };
                let image = std::mem::replace(&mut slot.durable, DurableImage::none());
                slot.actor = Some(factory(image));
                slot.up = true;
                slot.res.reset(now);
                let inc = slot.inc;
                self.stats.restarts += 1;
                self.trace.push(now, node, TraceKind::Restart, "");
                self.push_event(now, EventKind::Start { node, inc });
            }
            Control::Block { from, to, bidir } => {
                if bidir {
                    self.net.block_bidir(from, to);
                } else {
                    self.net.block(from, to);
                }
            }
            Control::Unblock { from, to, bidir } => {
                if bidir {
                    self.net.unblock_bidir(from, to);
                } else {
                    self.net.unblock(from, to);
                }
            }
            Control::Cut { cut, node, minority } => self.net.cut(cut, node, minority),
            Control::Heal { cut } => self.net.heal(cut),
            Control::WipeDurable(node) => self.wipe_durable(node),
            Control::SetDefaultLink { params } => self.net.set_default(params),
        }
    }

    /// Runs `f` with the node's actor temporarily removed from its slot and
    /// a [`Ctx`] for the node; then re-installs the actor.
    fn with_actor<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>),
    {
        let Some(mut actor) = self.nodes[node.0 as usize].actor.take() else { return };
        self.with_ctx(node, |ctx| f(actor.as_mut(), ctx));
        self.nodes[node.0 as usize].actor = Some(actor);
    }

    /// Runs `f` with a [`Ctx`] borrowing the node's resources and the
    /// kernel queue its sends and timers enter.
    fn with_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut Ctx<'_, M>)) {
        let slot = &mut self.nodes[node.0 as usize];
        f(&mut Ctx {
            now: self.now,
            node,
            inc: slot.inc,
            rng: &mut slot.rng,
            res: &mut slot.res,
            spec: &slot.spec,
            net: &self.net,
            queue: &mut self.queue,
            seq: &mut self.seq,
            trace: &mut self.trace,
            stats: &mut self.stats,
            frame_ops: &mut self.frame_ops,
        });
    }
}

impl<M> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}
