//! # rpcv-store — the coordinator's storage engine
//!
//! XtremWeb keeps "job descriptions ... in a database, for fast management,
//! and file archives ... in an optimized file system.  Job descriptions are
//! translated in tasks descriptions stored in the same database, and there
//! is no replication of file archives" (paper §4.2).  This crate is that
//! database plus the archive store:
//!
//! * [`CoordinatorDb`] — jobs, tasks (with the paper's
//!   pending/ongoing/finished states), per-client timestamp high-water
//!   marks, FCFS scheduling queue, secondary indexes by server and job.
//!   Every periodic read (replication deltas, missing archives, pending
//!   counts) is served from incrementally maintained indexes in
//!   O(changed), never by a table scan — see ROADMAP.md "Performance
//!   notes" for the invariants and their equivalence property tests;
//! * [`ReplicationDelta`] — the versioned "abstract of its state" a
//!   coordinator pushes to its ring successor, carrying job descriptions
//!   (including parameter payloads — Fig. 5's replication cost grows with
//!   RPC data size) and task states, but **never** result archives;
//! * [`Charge`] — explicit cost accounting: every operation reports the
//!   logical database operations, database payload bytes and archive
//!   (filesystem) bytes it consumed, which the hosting actor charges to the
//!   simulated node's DB/disk resources.  Fig. 5's observation that
//!   "replication time ... is bounded by database operation time at the
//!   backup side" falls out of exactly this accounting.

#![warn(missing_docs)]

pub mod charge;
pub mod db;
pub mod delta;

pub use charge::Charge;
pub use db::{Applied, CatalogDelta, CompleteOutcome, CoordinatorDb, TaskRow};
pub use delta::{DeltaRow, ReplicationDelta, TaskRecord};
