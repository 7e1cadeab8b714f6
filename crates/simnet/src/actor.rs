//! The actor abstraction: protocol state machines driven by the simulator.
//!
//! RPC-V's client, coordinator and server are written once as [`Actor`]
//! implementations and can then be driven by the deterministic simulator
//! (experiments) or by the threaded runtime in `rpcv-core` (real
//! deployments) — the same state-machine code in both cases.

use std::any::Any;

use crate::disk::WriteOutcome;
use crate::net::NetModel;
use crate::node::{HostResources, HostSpec, NodeId, DB_BW};
use crate::queue::EventQueue;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{NetStats, Trace, TraceKind};
use crate::world::{enqueue, EventKind};

/// Messages must report their wire size so transfers can be charged.
pub trait WireSized {
    /// Exact number of bytes this message occupies on the wire.
    fn wire_size(&self) -> u64;
}

/// Frame-level chaos operations over the world's message type.
///
/// The kernel is generic over `M` and requires neither `Clone` nor a codec,
/// so duplicating or bit-flipping a frame needs a hook that understands the
/// concrete message type.  Install one with
/// [`crate::world::World::set_frame_ops`]; without a hook, duplication is
/// inert and corruption only counts (the frame is delivered unmodified).
/// Both paths consume RNG draws identically whether or not a hook is
/// installed, so two worlds differing only in the hook stay lockstep in
/// their *link-level* randomness.
pub trait FrameOps<M>: Send {
    /// Returns a copy of `msg` for a duplicate delivery, or `None` when
    /// this frame cannot (or should not) be duplicated.
    fn duplicate(&mut self, msg: &M) -> Option<M>;

    /// Mangles a frame that the link corrupted.  Implementations typically
    /// re-encode, flip a seeded random bit and re-decode — returning either
    /// a garbled-but-valid message or a typed poison the receiver counts.
    fn corrupt(&mut self, msg: M, rng: &mut DetRng) -> M;
}

/// Frames at or below this size are *control* traffic (heartbeats,
/// acknowledgements, work requests): packet-level multiplexing on a real
/// link interleaves them within milliseconds of bulk transfers, so they do
/// not queue behind multi-megabyte frames in the NIC model.  Without this,
/// a strict-FIFO NIC starves heartbeats behind 100 MB parameter uploads
/// and live components get wrongly suspected en masse.
pub const CONTROL_FRAME_BYTES: u64 = 4096;

/// Handle to a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Opaque state that survives a crash (the node's "disk image").
///
/// Actors return it from [`Actor::on_crash`]; the node factory receives it
/// back on restart.  The paper's fault model (§4.1): "Every restarting
/// component restarts from the beginning of its execution or from its last
/// local state".
pub struct DurableImage(Option<Box<dyn Any + Send>>);

impl DurableImage {
    /// No durable state: restart from scratch.
    pub fn none() -> Self {
        DurableImage(None)
    }

    /// Wraps a durable value.
    pub fn of<T: Any + Send>(value: T) -> Self {
        DurableImage(Some(Box::new(value)))
    }

    /// True if an image is present.
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// Recovers the typed image, if present and of the right type.
    pub fn take<T: Any>(self) -> Option<T> {
        self.0.and_then(|b| (b as Box<dyn Any>).downcast::<T>().ok()).map(|b| *b)
    }
}

impl std::fmt::Debug for DurableImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DurableImage(present: {})", self.is_some())
    }
}

/// A protocol state machine hosted on a simulated node.
pub trait Actor<M>: Any {
    /// Called once when the node starts (and again after each restart, on
    /// the freshly rebuilt actor).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// A message arrived (after NIC-in serialization).
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A previously set timer fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, id: TimerId, kind: u64);

    /// The node is crashing; return whatever survives on disk.  The actor
    /// is consumed — the kernel drops it either way — so the image takes
    /// the durable fields by move.
    fn on_crash(self: Box<Self>, _now: SimTime) -> DurableImage {
        DurableImage::none()
    }
}

/// Handler-side view of the world.
///
/// All methods are deterministic functions of the node's resources and RNG
/// stream.  A send or a timer enters the kernel queue when the handler makes
/// it, stamped with the world's next sequence number, so events a handler
/// makes keep the order it made them in.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) inc: u32,
    pub(crate) rng: &'a mut DetRng,
    pub(crate) res: &'a mut HostResources,
    pub(crate) spec: &'a HostSpec,
    pub(crate) net: &'a NetModel,
    pub(crate) queue: &'a mut EventQueue<EventKind<M>>,
    pub(crate) seq: &'a mut u64,
    pub(crate) trace: &'a mut Trace,
    pub(crate) stats: &'a mut NetStats,
    pub(crate) frame_ops: &'a mut Option<Box<dyn FrameOps<M>>>,
}

impl<'a, M: WireSized> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// This node's cost-model parameters.
    pub fn spec(&self) -> &HostSpec {
        self.spec
    }

    /// The node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Sends `msg` to `to` over the modelled network.
    ///
    /// Returns the instant the sender's NIC finishes serializing the
    /// message (the sender-side completion used to measure submission
    /// times).  The message may still be lost afterwards (partition
    /// already drops it here; random loss is also resolved here since the
    /// network is memoryless).
    pub fn send(&mut self, to: NodeId, msg: M) -> SimTime {
        let size = msg.wire_size();
        self.send_sized(to, msg, size)
    }

    /// The send itself, `size` already measured (an O(message) encode-count
    /// paid once per frame, by [`Self::send`] or [`Self::send_at`]).
    pub(crate) fn send_sized(&mut self, to: NodeId, msg: M, size: u64) -> SimTime {
        debug_assert_eq!(size, msg.wire_size(), "caller-supplied wire size must be exact");
        self.stats.sent += 1;
        self.stats.bytes_sent += size;
        let service = self.spec.nic_per_op + SimDuration::for_bytes(size, self.spec.nic_bw);
        let occ = if size <= CONTROL_FRAME_BYTES {
            // Control frames interleave with bulk transfers instead of
            // queueing behind them.
            crate::resource::Occupancy { start: self.now, end: self.now + service }
        } else {
            self.res.nic_out.acquire(self.now, service)
        };
        let Some(link) = self.net.link(self.node, to) else {
            self.stats.dropped_partition += 1;
            self.trace.push(self.now, self.node, TraceKind::DropPartition, "");
            return occ.end;
        };
        if link.loss > 0.0 && self.rng.chance(link.loss) {
            self.stats.dropped_loss += 1;
            self.trace.push(self.now, self.node, TraceKind::DropLoss, "");
            return occ.end;
        }
        // Chaos-plane faults.  Every draw is guarded by its probability so
        // a zero-chaos link consumes exactly the RNG stream it always did
        // (the golden reference trace depends on this).
        let mut msg = msg;
        if link.corrupt > 0.0 && self.rng.chance(link.corrupt) {
            // Corrupted frames are *delivered*, not dropped: receivers must
            // survive them.  The hook mangles the payload; without a hook
            // the fault is still counted for accounting tests.
            self.stats.corrupted += 1;
            self.trace.push(self.now, self.node, TraceKind::Corrupt, "");
            if let Some(ops) = self.frame_ops.as_mut() {
                msg = ops.corrupt(msg, self.rng);
            }
        }
        let dup = if link.dup > 0.0 && self.rng.chance(link.dup) {
            self.frame_ops.as_mut().and_then(|ops| ops.duplicate(&msg))
        } else {
            None
        };
        let jitter = if link.jitter > SimDuration::ZERO {
            SimDuration(self.rng.below(link.jitter.0))
        } else {
            SimDuration::ZERO
        };
        let mut arrival = occ.end + link.latency + jitter;
        if link.reorder > 0.0
            && link.reorder_window > SimDuration::ZERO
            && self.rng.chance(link.reorder)
        {
            // Held back: later sends on the same link may overtake it.
            arrival += SimDuration(self.rng.below(link.reorder_window.0));
            self.stats.reordered += 1;
            self.trace.push(self.now, self.node, TraceKind::Reorder, "");
        }
        self.trace.push(self.now, self.node, TraceKind::Send, "");
        if let Some(copy) = dup {
            // The duplicate takes its own jitter draw so the two copies
            // interleave with other traffic independently; the wire charge
            // is the original frame's size (same bytes on the wire twice).
            let jitter2 = if link.jitter > SimDuration::ZERO {
                SimDuration(self.rng.below(link.jitter.0))
            } else {
                SimDuration::ZERO
            };
            let arrival2 = occ.end + link.latency + jitter2;
            self.stats.duplicated += 1;
            self.trace.push(self.now, self.node, TraceKind::Dup, "");
            self.push(arrival2, EventKind::Deliver { to, from: self.node, msg: copy, size });
        }
        self.push(arrival, EventKind::Deliver { to, from: self.node, msg, size });
        occ.end
    }

    /// Sends `msg` to `to` at instant `at` (a reply that may only leave once
    /// the write behind it landed); returns the charged wire size.  An `at`
    /// not in the future is exactly [`Self::send`]; otherwise the kernel
    /// holds the frame until `at` and sends it then — NIC, link draws and
    /// trace as a timer whose handler calls `send` — unless the node crashed
    /// or restarted in between: a dead process sends nothing.
    pub fn send_at(&mut self, at: SimTime, to: NodeId, msg: M) -> u64 {
        let size = msg.wire_size();
        if at <= self.now {
            self.send_sized(to, msg, size);
        } else {
            self.push(at, EventKind::SendAt { node: self.node, inc: self.inc, to, msg, size });
        }
        size
    }

    /// Arms a timer `delay` from now; `kind` is returned to
    /// [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, kind: u64) -> TimerId {
        self.set_timer_at(self.now + delay, kind)
    }

    /// Arms a timer at an absolute instant (an instant already past fires
    /// now).  The id is the sequence number of the queued event, so ids are
    /// unique and increase in the order timers are set.
    pub fn set_timer_at(&mut self, at: SimTime, kind: u64) -> TimerId {
        let timer = EventKind::Timer { node: self.node, inc: self.inc, kind };
        TimerId(self.push(at.max(self.now), timer))
    }

    /// Queues `kind` at `at`; returns its sequence number.
    fn push(&mut self, at: SimTime, kind: EventKind<M>) -> u64 {
        enqueue(self.queue, self.seq, at, kind)
    }

    /// Writes `bytes` to the local disk.
    ///
    /// `sync == true` models a blocking fsync'd write (returns at
    /// durability); otherwise a write-back cached write.
    pub fn disk_write(&mut self, bytes: u64, sync: bool) -> WriteOutcome {
        if sync {
            self.res.disk.write_sync(self.now, bytes)
        } else {
            self.res.disk.write_cached(self.now, bytes)
        }
    }

    /// Reads `bytes` from the local disk; returns completion time.
    pub fn disk_read(&mut self, bytes: u64) -> SimTime {
        self.res.disk.read(self.now, bytes)
    }

    /// Direct access to the node's disk (for layers that manage their own
    /// write discipline, like the message-logging strategies).
    pub fn disk_mut(&mut self) -> &mut crate::disk::Disk {
        &mut self.res.disk
    }

    /// Charges `ops` database operations moving `bytes` of payload;
    /// returns completion time.
    pub fn db(&mut self, ops: u64, bytes: u64) -> SimTime {
        let service = self.spec.db_per_op * ops + SimDuration::for_bytes(bytes, DB_BW);
        self.res.db.acquire(self.now, service).end
    }

    /// Charges `work` CPU work-units (one per second); returns completion
    /// time.
    pub fn cpu(&mut self, work: f64) -> SimTime {
        let service = SimDuration::from_secs_f64(work);
        self.res.cpu.acquire(self.now, service).end
    }

    /// Emits a free-form trace note.
    pub fn note(&mut self, detail: impl AsRef<str>) {
        self.trace.push(self.now, self.node, TraceKind::Note, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_image_roundtrip() {
        let img = DurableImage::of(vec![1u32, 2, 3]);
        assert!(img.is_some());
        assert_eq!(img.take::<Vec<u32>>(), Some(vec![1, 2, 3]));
        assert!(!DurableImage::none().is_some());
        assert_eq!(DurableImage::none().take::<u32>(), None);
        // Wrong type: lost (None), no panic.
        assert_eq!(DurableImage::of(5u64).take::<String>(), None);
    }
}
