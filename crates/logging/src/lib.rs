//! # rpcv-log — sender-based message logging
//!
//! RPC-V's preventive action (paper §4.1): every component "locally logs
//! every sent message (sender based message logging).  For each
//! communication, components synchronize their local state from these
//! logs."  This crate provides the two log shapes the protocol needs and
//! the three logging strategies the paper evaluates (Fig. 4):
//!
//! * [`SenderLog`] — the *client* log: submissions tagged with a unique,
//!   monotone counter value ("all client RPC submissions are associated
//!   with a unique counter value", §4.2), synchronized against the
//!   coordinator's maximum known timestamp;
//! * [`PeerLog`] — the *server* log: the result archives no coordinator
//!   has acknowledged, keyed by `(client, seq)`; "servers may have
//!   non-contiguous timestamps for a given client, the synchronization is
//!   more complicated, involving a peer-wise comparison of logs" (§4.2).
//!   An acknowledgement removes its entry;
//! * [`LogStrategy`] — optimistic, blocking pessimistic and non-blocking
//!   pessimistic write disciplines, with exact durability semantics driven
//!   by the disk model of `rpcv-simnet`;
//! * [`SeqWindow`] — rows keyed by a dense seq, in fixed chunks: the
//!   sender log's storage, and the coordinator's job table's (one window
//!   per client);
//! * [`GcPolicy`] — the capacity policy both logs take and neither reads:
//!   the paper's bounded-capacity collection (§4.2) is not modelled.

pub mod gc;
pub mod peer;
pub mod sender;
pub mod strategy;
pub mod window;

pub use gc::GcPolicy;
pub use peer::{PeerKey, PeerLog};
pub use sender::{AppendOutcome, SenderEntry, SenderLog};
pub use strategy::LogStrategy;
pub use window::SeqWindow;
