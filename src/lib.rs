//! # rpcv — fault-tolerant RPC for Internet-connected desktop grids
//!
//! A from-scratch Rust reproduction of *"RPC-V: Toward Fault-Tolerant RPC
//! for Internet Connected Desktop Grids with Volatile Nodes"* (Djilali,
//! Hérault, Lodygensky, Morlier, Fedak, Cappello — SuperComputing 2004).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `rpcv-core` | the protocol: client/coordinator/server actors, passive ring replication, GridRPC-style API, live runtime |
//! | [`simnet`] | `rpcv-simnet` | deterministic discrete-event grid simulator |
//! | [`wire`] | `rpcv-wire` | binary marshalling (varints, blobs, CRC-64) |
//! | [`log`] | `rpcv-log` | sender-based message logging (3 strategies) |
//! | [`detect`] | `rpcv-detect` | heartbeat fault suspicion, coordinator lists and links |
//! | [`store`] | `rpcv-store` | coordinator job/task/archive/checkpoint database |
//! | [`ckpt`] | `rpcv-ckpt` | adaptive task checkpointing: policies, volatility estimation, checkpoint frames |
//! | [`xw`] | `rpcv-xw` | XtremWeb-like middleware substrate |
//! | [`workload`] | `rpcv-workload` | synthetic + Alcatel-like workloads (re-exports the fault plan) |
//! | [`obs`] | `rpcv-obs` | telemetry plane: metrics registry, virtual-time histograms, job lifecycle spans, sealed snapshots |
//!
//! ## Two ways to run a grid
//!
//! **Simulated** (deterministic virtual time — what the experiment
//! harnesses use):
//!
//! ```
//! use rpcv::core::grid::{GridSpec, SimGrid};
//! use rpcv::core::util::CallSpec;
//! use rpcv::simnet::SimTime;
//! use rpcv::wire::Blob;
//!
//! let plan = (0..4).map(|i| CallSpec::new("svc", Blob::synthetic(256, i), 1.0, 64)).collect();
//! let mut grid = SimGrid::build(GridSpec::confined(2, 4).with_plan(plan));
//! grid.run_until_done(SimTime::from_secs(300)).expect("completes");
//! assert_eq!(grid.client_results(), 4);
//! ```
//!
//! **Live** (wall clock, real service execution, live fault injection —
//! see `examples/quickstart.rs`): [`core::runtime::LiveGrid`] plus
//! [`core::api::GridClient`].
//!
//! ## Bounded coordinator memory: retention and bootstrap
//!
//! A coordinator's change index holds O(live jobs), not O(lifetime
//! jobs): once a client durably collected a delivered prefix and every
//! ring replica acked past it, [`store::CoordinatorDb::prune_retired`]
//! retires those rows down to one per-client watermark.  A replica
//! whose feed base predates the resulting *delta floor* can no longer be
//! tailed — [`store::CoordinatorDb::feed_for`] serves it from zero
//! instead: the same [`store::ReplicationDelta`] any round is, led by the
//! retired watermarks.  It lands row-for-row identical to the live
//! feed's view, and can bootstrap the next replica in turn:
//!
//! ```
//! use rpcv::store::{CoordinatorDb, DeltaRow};
//! use rpcv::simnet::SimTime;
//! use rpcv::wire::Blob;
//! use rpcv::xw::{ClientKey, CoordId, JobKey, JobSpec, ServerId};
//!
//! let client = ClientKey::new(1, 1);
//! let job = |seq| JobSpec::new(JobKey::new(client, seq), "svc", Blob::synthetic(256, seq));
//!
//! // Primary: three jobs run, get collected by the client, and GC.
//! let mut primary = CoordinatorDb::new(CoordId(1));
//! for seq in 1..=3 {
//!     primary.register_job(job(seq));
//! }
//! while let (Some(t), _) = primary.next_pending(ServerId(1), SimTime::ZERO) {
//!     primary.complete_task(t.id, t.job, Blob::synthetic(64, t.job.seq), ServerId(1));
//! }
//! primary.mark_collected(client, &[1, 2, 3]);
//! primary.gc_collected();
//!
//! // Every consumer acked the head: the delivered prefix retires and
//! // the change index shrinks to the per-client watermark row.
//! assert_eq!(primary.prune_retired(primary.version()), 3);
//! assert_eq!(primary.resident_rows(), 1);
//! assert!(primary.delta_floor() > 0);
//! primary.register_job(job(4)); // live work continues on top
//!
//! // A replica whose acked base (say 2) is below the floor cannot be
//! // tailed: the feed starts over from zero, watermarks first.
//! let boot = primary.feed_for(CoordId(2), 2);
//! assert_eq!(boot.base_version, 0);
//! assert_eq!(boot.rows[0], DeltaRow::Retired { client, through: 3 });
//!
//! let mut replica = CoordinatorDb::new(CoordId(2));
//! replica.apply_delta(&boot);
//! primary.register_job(job(5));
//! replica.apply_delta(&primary.feed_for(CoordId(2), boot.head_version)); // the tail
//!
//! // Row-for-row: same watermark, same delivered knowledge, same live set.
//! assert_eq!(replica.retired_watermark(client), 3);
//! assert!(replica.has_collected_knowledge(&JobKey::new(client, 2)));
//! assert_eq!(replica.stats().jobs, primary.stats().jobs);
//! assert_eq!(replica.resident_rows(), primary.resident_rows());
//! let (tid, _) = replica.reexecute_job(JobKey::new(client, 1));
//! assert!(tid.is_none(), "delivered work is never re-executed");
//!
//! // The second hop: the replica pruned nothing itself (no floor of its
//! // own), yet what it learned retired it passes on — a primary that
//! // lost its disk comes back refusing the delivered seqs.
//! assert_eq!(replica.delta_floor(), 0);
//! let mut reborn = CoordinatorDb::new(CoordId(1));
//! reborn.apply_delta(&replica.feed_for(CoordId(1), 0));
//! assert_eq!(reborn.retired_watermark(client), 3);
//! assert!(!reborn.register_job(job(2)).0, "retired seqs refuse re-registration");
//! ```

pub use rpcv_ckpt as ckpt;
pub use rpcv_core as core;
pub use rpcv_detect as detect;
pub use rpcv_log as log;
pub use rpcv_obs as obs;
pub use rpcv_simnet as simnet;
pub use rpcv_store as store;
pub use rpcv_wire as wire;
pub use rpcv_workload as workload;
pub use rpcv_xw as xw;
