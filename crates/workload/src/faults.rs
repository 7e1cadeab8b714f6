//! The fault generator of §5.1 ("running as a remotely controllable
//! daemon ... kills abruptly the RPC-V component of the hosting machine"):
//! the workspace's one fault schedule, defined next to the `Control`
//! channel it drives and re-exported here for the workload harnesses.

pub use rpcv_simnet::FaultPlan;
