//! The log capacity policy.
//!
//! Paper §4.2: "Since logging capacities are bounded, we should decide
//! whether flushing some logs, that may be potentially useful for avoiding
//! re-executions, or stopping computations, reducing the system resource
//! utilization."  This reproduction does not model that trade-off: the
//! server's [`PeerLog`](crate::PeerLog) drops an entry on acknowledgement,
//! and the client's [`SenderLog`](crate::SenderLog) keeps every surviving
//! entry.  No log reads its policy.

/// Capacity policy for a log: unbounded, the only one there is.
#[derive(Debug, Clone, Copy)]
pub struct GcPolicy;

impl GcPolicy {
    /// Never collects.
    pub fn unbounded() -> Self {
        GcPolicy
    }
}
