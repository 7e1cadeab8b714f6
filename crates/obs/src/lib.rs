//! # rpcv-obs — the deterministic telemetry plane
//!
//! Aggregate numbers (events/sec, bytes/round, wasted units) say *that* the
//! grid is healthy; they cannot say *where* a job spent its time or what the
//! failover detect→recover gap looked like under a chaos plan.  This crate
//! is the answer, built with the same determinism discipline as the rest of
//! the workspace:
//!
//! - [`TelemetrySnapshot`] — the one bag: named counters, gauges and log2
//!   [`Histogram`]s over **virtual** time, stored in `BTreeMap`s so
//!   traversal order (and hence every serialized byte) is
//!   machine-independent.  It is filled by name and published one way:
//!   through the wire codec plus a CRC-64 seal
//!   ([`TelemetrySnapshot::seal`]), the payload of `Msg::StatusReply`
//!   frames.  Same seed ⇒ byte-identical bytes.
//! - [`SpanBook`] — per-job lifecycle spans (submitted → dispatched →
//!   first-unit → checkpointed×N → finished → archive-stored → collected →
//!   gc'd) with failover annotations, folded into per-edge histograms.
//!
//! The typed metrics structs stay with the code that counts (the three
//! actors, the store, the network); each is declared once through
//! `rpcv_simnet::counters!`, whose `counters()` pours into the bag via
//! [`TelemetrySnapshot::add_counters`], so this crate names none of them.

#![warn(missing_docs)]

pub mod hist;
pub mod snapshot;
pub mod span;

pub use hist::{Histogram, BUCKETS};
pub use snapshot::TelemetrySnapshot;
pub use span::{FailoverNote, JobSpan, SpanBook, SpanEdge};
