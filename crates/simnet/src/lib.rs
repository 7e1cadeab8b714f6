//! # rpcv-simnet — deterministic discrete-event grid simulator
//!
//! The RPC-V paper evaluates its protocol on a confined cluster and on an
//! Internet testbed spanning three universities.  Neither platform is
//! reproducible at will, which the authors themselves flag: "A major issue
//! concerning experiments on the Internet is the experimental conditions
//! and results reproducibility" (§5.1) — their answer was a controlled
//! cluster; ours is a *deterministic simulator*: same seed, same trace,
//! every time, with every platform parameter explicit.
//!
//! ## Model
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]): nanosecond ticks,
//!   advanced only by the event queue.
//! * **Hosts** ([`HostSpec`], [`NodeId`]): each has NIC-in/NIC-out
//!   serialization queues, a disk with a write-back cache ([`disk`]),
//!   a database engine with per-operation cost, and a CPU — all modelled as
//!   FIFO [`resource::Resource`]s, calibrated to the paper's hardware
//!   (DESIGN.md §6).
//! * **Network** ([`NetModel`]): per-directed-pair latency/jitter/loss, with
//!   dynamic blocking for partition scenarios (paper Fig. 11).
//! * **Actors** ([`Actor`], [`Ctx`]): protocol state machines.  The same
//!   implementations run under the threaded runtime of `rpcv-core`.
//! * **Faults** ([`Control`]): abrupt crash (losing volatile state but
//!   keeping the [`DurableImage`] the actor returns), restart, partition,
//!   disk wipe, fabric-wide link degradation — the paper's fault generator
//!   as schedulable events.  The [`chaos`] module holds the workspace's
//!   one fault schedule ([`FaultPlan`]): scripted crashes, Poisson
//!   crash/restart churn, or whole seeded plans mixing crash storms,
//!   partition churn, wipes and loss/dup/corrupt/reorder bursts, all fully
//!   healing.
//!
//! ## Determinism
//!
//! Event ordering is a total order on `(time, sequence-number)`; every node
//! has its own RNG stream derived from the master seed; the trace folds a
//! running hash over all observable events.  Two runs with equal seeds and
//! equal configurations produce equal hashes — a property test enforces it.
//!
//! ## Example
//!
//! ```
//! use rpcv_simnet::*;
//!
//! struct Echo;
//! #[derive(Debug)]
//! struct Ping(u64);
//! impl WireSized for Ping {
//!     fn wire_size(&self) -> u64 { 16 }
//! }
//! impl Actor<Ping> for Echo {
//!     fn on_start(&mut self, _ctx: &mut Ctx<'_, Ping>) {}
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: NodeId, msg: Ping) {
//!         if from != NodeId::EXTERNAL && msg.0 > 0 {
//!             ctx.send(from, Ping(msg.0 - 1));
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Ping>, _id: TimerId, _kind: u64) {}
//! }
//!
//! let mut world = World::<Ping>::new(42);
//! let a = world.add_host(HostSpec::named("a"));
//! let b = world.add_host(HostSpec::named("b"));
//! world.install(a, |_| Box::new(Echo));
//! world.install(b, |_| Box::new(Echo));
//! world.inject(SimTime::ZERO, a, Ping(4));
//! world.run_until_idle(SimTime::from_secs(10));
//! assert!(world.stats().delivered >= 1);
//! ```

pub mod actor;
pub mod chaos;
pub mod disk;
pub mod net;
pub mod node;
pub(crate) mod queue;
pub mod realtime;
pub mod resource;
pub mod rng;
pub mod time;
pub mod trace;
pub mod world;

pub use actor::{Actor, Ctx, DurableImage, FrameOps, TimerId, WireSized};
pub use chaos::{ChaosProfile, ChaosTargets, FaultCounts, FaultPlan};
pub use disk::{Disk, DiskSpec, WriteOutcome};
pub use net::{CutId, LinkParams, NetModel};
pub use node::{HostResources, HostSpec, NodeId};
#[doc(hidden)]
pub use queue::QueueAudit;
pub use realtime::{spawn_realtime, Command, RealtimeHandle};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use trace::{NetStats, Trace, TraceEvent, TraceKind};
pub use world::{Control, World};
