//! The simulation world: event queue, nodes, dispatch loop, fault control.

use std::collections::BTreeSet;

use crate::actor::{Actor, Ctx, DurableImage, Effect, FrameOps, TimerId, WireSized};
use crate::net::{LinkParams, NetModel};
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
    /// Replace link parameters for a directed pair (or both directions).
    SetLink {
        /// Source side.
        from: NodeId,
        /// Destination side.
        to: NodeId,
        /// New parameters.
        params: LinkParams,
        /// Apply to both directions.
        bidir: bool,
    },
}

enum EventKind<M> {
    Start { node: NodeId, inc: u32 },
    Deliver { to: NodeId, from: NodeId, msg: M, size: u64 },
    Handle { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, inc: u32, id: TimerId, kind: u64 },
    Control(Control),
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
    /// Timer ids with a queued `Timer` event (armed and not yet popped).
    /// Guards `cancelled` against cancel-after-fire entries that would
    /// otherwise never be purged.
    armed: BTreeSet<u64>,
    cancelled: BTreeSet<u64>,
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
    timer_seq: u64,
    master_rng: DetRng,
    effects: Vec<Effect<M>>,
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
            timer_seq: 0,
            master_rng: DetRng::new(seed),
            effects: Vec::new(),
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

    /// Read access to the network model.
    pub fn net(&self) -> &NetModel {
        &self.net
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
            armed: BTreeSet::new(),
            cancelled: BTreeSet::new(),
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

    /// Injects a message to `to` at `at` as if from an external observer.
    pub fn inject(&mut self, at: SimTime, to: NodeId, msg: M) {
        let size = msg.wire_size();
        self.push_event(at, EventKind::Deliver { to, from: NodeId::EXTERNAL, msg, size });
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

    fn push_event(&mut self, at: SimTime, kind: EventKind<M>) {
        self.seq += 1;
        self.queue.push(at.max(self.now), self.seq, kind);
    }

    /// Runs all events up to and including `t`; leaves `now == t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((at, _, kind)) = self.queue.pop_at_most(t) {
            self.dispatch(at, kind);
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
        while let Some((at, _, kind)) = self.queue.pop_at_most(max) {
            last = at;
            self.dispatch(at, kind);
        }
        self.now = self.now.max(max);
        last
    }

    /// Processes a single event; returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, _, kind)) => {
                self.dispatch(at, kind);
                true
            }
            None => false,
        }
    }

    /// Crashes a node immediately.
    pub fn crash_now(&mut self, node: NodeId) {
        self.seq += 1;
        self.dispatch(self.now, EventKind::Control(Control::Crash(node)));
    }

    /// Restarts a node immediately.
    pub fn restart_now(&mut self, node: NodeId) {
        self.seq += 1;
        self.dispatch(self.now, EventKind::Control(Control::Restart(node)));
    }

    fn dispatch(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        self.events_processed += 1;
        match kind {
            EventKind::Start { node, inc } => {
                let slot = &self.nodes[node.0 as usize];
                if slot.up && slot.inc == inc && slot.actor.is_some() {
                    self.with_actor(node, |actor, ctx| actor.on_start(ctx));
                }
            }
            EventKind::Deliver { to, from, msg, size } => {
                // Frames addressed outside the world (an actor replying to
                // an externally injected message, or a garbled destination)
                // vanish like frames to a dead host — never a panic.
                let Some(slot) = self.nodes.get_mut(to.0 as usize) else {
                    self.stats.dropped_down += 1;
                    self.trace.push(self.now, to, TraceKind::DropDown, "");
                    return;
                };
                if !slot.up {
                    self.stats.dropped_down += 1;
                    self.trace.push(self.now, to, TraceKind::DropDown, "");
                    return;
                }
                // Receiver-side NIC serialization, then handler.  Control
                // frames interleave (see CONTROL_FRAME_BYTES).
                let service = SimDuration::for_bytes(size, slot.spec.nic_bw_in);
                let at = if size <= crate::actor::CONTROL_FRAME_BYTES {
                    self.now + service
                } else {
                    slot.res.nic_in.acquire(self.now, service).end
                };
                let kind = EventKind::Handle { to, from, msg };
                // Fast path: when handling lands at this same instant and
                // no other event is queued for it, the pushed entry would
                // be popped right back (it gets the largest seq, and the
                // queue head is strictly later) — dispatch inline and skip
                // the heap round trip.  Ordering, trace, and the event
                // count are identical to the slow path.
                if at == self.now && self.queue.next_at().is_none_or(|t| t > self.now) {
                    self.seq += 1;
                    self.dispatch(at, kind);
                } else {
                    self.push_event(at, kind);
                }
            }
            EventKind::Handle { to, from, msg } => {
                let slot = &self.nodes[to.0 as usize];
                if !slot.up || slot.actor.is_none() {
                    self.stats.dropped_down += 1;
                    self.trace.push(self.now, to, TraceKind::DropDown, "");
                    return;
                }
                self.stats.delivered += 1;
                self.trace.push(self.now, to, TraceKind::Deliver, "");
                self.with_actor(to, |actor, ctx| actor.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, inc, id, kind } => {
                let slot = &mut self.nodes[node.0 as usize];
                // Purge the arming/cancellation records on pop regardless
                // of the liveness outcome, so neither set accumulates.
                slot.armed.remove(&id.0);
                let was_cancelled = slot.cancelled.remove(&id.0);
                if !slot.up || slot.inc != inc {
                    return;
                }
                if was_cancelled {
                    return;
                }
                if slot.actor.is_none() {
                    return;
                }
                self.trace.push(self.now, node, TraceKind::Timer, "");
                self.with_actor(node, |actor, ctx| actor.on_timer(ctx, id, kind));
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
                slot.armed.clear();
                slot.cancelled.clear();
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
            Control::SetLink { from, to, params, bidir } => {
                if bidir {
                    self.net.set_link_bidir(from, to, params);
                } else {
                    self.net.set_link(from, to, params);
                }
            }
            Control::WipeDurable(node) => self.wipe_durable(node),
            Control::SetDefaultLink { params } => self.net.set_default(params),
        }
    }

    /// Runs `f` with the node's actor temporarily removed from its slot and
    /// a [`Ctx`] borrowing the slot's resources; then re-installs the actor
    /// and applies buffered effects.
    fn with_actor<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>),
    {
        let slot = &mut self.nodes[node.0 as usize];
        let mut actor = match slot.actor.take() {
            Some(a) => a,
            None => return,
        };
        debug_assert!(self.effects.is_empty());
        {
            let mut ctx = Ctx {
                now: self.now,
                node,
                rng: &mut slot.rng,
                res: &mut slot.res,
                spec: &slot.spec,
                net: &self.net,
                effects: &mut self.effects,
                trace: &mut self.trace,
                stats: &mut self.stats,
                timer_seq: &mut self.timer_seq,
                frame_ops: &mut self.frame_ops,
            };
            f(actor.as_mut(), &mut ctx);
        }
        // The actor may have crashed itself via control during the call?
        // Controls are only appliable via the queue, so the slot is intact.
        self.nodes[node.0 as usize].actor = Some(actor);
        let inc = self.nodes[node.0 as usize].inc;
        // Drain and put the buffer back: its capacity is reused by every
        // later handler instead of being reallocated per event.
        let mut effects = std::mem::take(&mut self.effects);
        for eff in effects.drain(..) {
            match eff {
                Effect::Deliver { to, from, msg, arrival, size } => {
                    self.push_event(arrival, EventKind::Deliver { to, from, msg, size });
                }
                Effect::TimerSet { at, kind, id } => {
                    self.nodes[node.0 as usize].armed.insert(id.0);
                    self.push_event(at, EventKind::Timer { node, inc, id, kind });
                }
                Effect::TimerCancel { id } => {
                    // Only a still-armed timer needs a cancellation record;
                    // cancelling an already-fired timer is a no-op (and must
                    // not leave a tombstone behind).
                    let slot = &mut self.nodes[node.0 as usize];
                    if slot.armed.contains(&id.0) {
                        slot.cancelled.insert(id.0);
                    }
                }
            }
        }
        self.effects = effects;
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
