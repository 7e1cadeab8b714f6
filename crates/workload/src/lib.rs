//! # rpcv-workload — workload generators for the RPC-V experiments
//!
//! * [`synthetic`] — the paper's configurable synthetic benchmark ("a set
//!   of non-blocking configurable RPC calls.  The configuration parameters
//!   are the RPC execution time, its parameter and its result size",
//!   §5.1), used by Figs. 4–7;
//! * [`alcatel`] — a stand-in for the "real life production application of
//!   Alcatel ... a tool helping to validate and evaluate commutation
//!   networks.  It computes the signal lost and the bandwidth for network
//!   configurations" (§5.2).  Ours really computes: it generates random
//!   switch-network configurations and evaluates per-terminal-pair signal
//!   attenuation (shortest path) and bottleneck bandwidth (widest path).
//!   Task durations form the wide distribution of Fig. 8;
//! * [`faults`] — the fault generator of §5.1, which is not defined here:
//!   [`FaultPlan`] *is* `rpcv_simnet::FaultPlan` (scripted crashes, Poisson
//!   crash/restart churn and the seeded storm/partition/burst generator on
//!   one type), re-exported so a harness imports its workload and its
//!   faults from one crate.

pub mod alcatel;
pub mod faults;
pub mod synthetic;

pub use alcatel::{AlcatelApp, EvalReport, NetworkConfig};
pub use faults::FaultPlan;
pub use synthetic::SyntheticBench;
