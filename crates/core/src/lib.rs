//! # rpcv-core — the RPC-V fault-tolerant RPC protocol
//!
//! A from-scratch Rust reproduction of *"RPC-V: Toward Fault-Tolerant RPC
//! for Internet Connected Desktop Grids with Volatile Nodes"* (Djilali,
//! Hérault, Lodygensky, Morlier, Fedak, Cappello — SC2004).
//!
//! RPC-V combines four well-known mechanisms into an original whole
//! (paper §4): a **three-tier architecture** (clients / Coordinator /
//! servers), **sender-based message logging on all components**,
//! **unreliable fault detectors** (heartbeat suspicion) on all components,
//! and **passive replication of the coordinators** over a virtual ring.
//! Every component may fail — intermittently or permanently — and the
//! client application keeps progressing as long as *some* path between a
//! client and a server exists (the progress condition demonstrated by the
//! paper's Fig. 11 partition experiment).
//!
//! ## Crate layout
//!
//! * [`msg`] — the connection-less protocol messages;
//! * [`client`], [`coordinator`], [`server`] — the three actors, written
//!   once and runnable on the deterministic simulator (`rpcv-simnet`) and
//!   under the wall-clock runtime ([`runtime`]);
//! * [`frontier`] — the client's due-time-indexed pull frontier (which
//!   catalogued results to request next, O(window) per pull);
//! * [`grid`] — one-call assembly of complete deployments (confined
//!   cluster / real-life Internet presets);
//! * [`api`] — the GridRPC-compliant client API ("The RPC-V API is
//!   compliant with GridRPC except the functions for Remote Function
//!   Handle Management", §4.2);
//! * [`config`], [`calibration`] — protocol knobs and host/link cost
//!   models matching the paper's platforms;
//! * [`runtime`] — the realtime driver: the same protocol running on wall
//!   clock, with live fault injection, powering the runnable examples.
//!
//! ## Quick start (simulated)
//!
//! ```
//! use rpcv_core::grid::{GridSpec, SimGrid};
//! use rpcv_core::util::CallSpec;
//! use rpcv_simnet::SimTime;
//! use rpcv_wire::Blob;
//!
//! let plan = (0..8)
//!     .map(|i| CallSpec::new("demo", Blob::synthetic(1024, i), 2.0, 128))
//!     .collect();
//! let spec = GridSpec::confined(2, 4).with_plan(plan);
//! let mut grid = SimGrid::build(spec);
//! let done = grid.run_until_done(SimTime::from_secs(600)).expect("completes");
//! assert!(done > SimTime::ZERO);
//! assert_eq!(grid.client_results(), 8);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod calibration;
pub mod chaos;
pub mod client;
pub mod config;
pub mod coordinator;
pub mod frontier;
pub mod grid;
pub mod msg;
pub mod runtime;
pub mod server;
pub mod util;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosOracle, ChaosReport, MsgChaos};
pub use client::{ClientActor, ClientMetrics, ClientParams};
pub use config::ProtocolConfig;
pub use coordinator::{CoordMetrics, CoordParams, CoordinatorActor, ReplRound};
pub use grid::{GridSpec, SimGrid};
pub use msg::{Msg, ResumeFrom, RpcResult};
pub use server::{ServerActor, ServerMetrics, ServerParams};
pub use util::{CallSpec, Deferred, Directory};
