//! # rpcv-detect — unreliable failure detectors
//!
//! On an asynchronous network, failure *detection* is impossible; RPC-V
//! only ever *suspects* (paper §4.1: "As we assume an asynchronous
//! network, the fault detection can only be used for suspecting a
//! component failure.  To avoid confusion ... we use the term fault
//! suspicion instead of fault detection").
//!
//! * [`HeartbeatMonitor`] — timeout-based suspicion over periodic "heart
//!   beat" signals (§4.2: a beat every 5 s, suspicion after 30 s of
//!   silence, in the confined experiments): how a coordinator judges its
//!   servers and its ring peers;
//! * [`CoordinatorList`] — the "finite list of known coordinators" every
//!   component carries, with local suspicion updates and the common-order
//!   successor relationship used by the passive-replication ring;
//! * [`CoordLink`] — a list plus the current pick and when it was last
//!   heard from: how a client (one link) and a server (one per shard)
//!   choose, keep and give up on the coordinator they talk to.
//!
//! That is the whole suspicion plane: one fixed-timeout rule in both
//! directions.

pub mod coordlist;
pub mod heartbeat;

pub use coordlist::{CoordLink, CoordinatorList};
pub use heartbeat::HeartbeatMonitor;
