//! Node identity and host cost-model parameters.

use crate::disk::{Disk, DiskSpec};
use crate::resource::Resource;
use crate::time::SimDuration;

/// Identifies a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Pseudo-node used as the `from` of harness-injected stimuli.
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "n[ext]")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Database engine payload bandwidth of every host, bytes/sec.
pub(crate) const DB_BW: f64 = 80.0e6;

/// Static cost-model parameters of a host.
///
/// Defaults correspond to the paper's confined-cluster nodes (Athlon XP
/// 1800+, IDE disk, 100 Mbit/s switched Ethernet — DESIGN.md §6).  Every
/// CPU executes one workload work-unit per second.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Human-readable name for traces.
    pub name: String,
    /// NIC bandwidth in each direction, bytes/sec.
    pub nic_bw: f64,
    /// Fixed per-message send cost (connection-less interaction: every
    /// message opens a connection, transfers, and closes — paper §2.2).
    pub nic_per_op: SimDuration,
    /// Disk cost model.
    pub disk: DiskSpec,
    /// Database engine: fixed cost per logical operation.
    pub db_per_op: SimDuration,
}

impl Default for HostSpec {
    fn default() -> Self {
        HostSpec {
            name: String::new(),
            nic_bw: 12.5e6,
            nic_per_op: SimDuration::ZERO,
            disk: DiskSpec::default(),
            db_per_op: SimDuration::from_millis(3),
        }
    }
}

impl HostSpec {
    /// Default spec with a name.
    pub fn named(name: impl Into<String>) -> Self {
        HostSpec { name: name.into(), ..Default::default() }
    }

    /// Builder: NIC bandwidth (both directions), bytes/sec.
    pub fn with_nic_bw(mut self, bytes_per_sec: f64) -> Self {
        self.nic_bw = bytes_per_sec;
        self
    }

    /// Builder: fixed per-message send cost (connection open/close).
    pub fn with_nic_per_op(mut self, cost: SimDuration) -> Self {
        self.nic_per_op = cost;
        self
    }

    /// Builder: database per-operation cost.
    pub fn with_db_per_op(mut self, cost: SimDuration) -> Self {
        self.db_per_op = cost;
        self
    }

    /// Builder: disk model.
    pub fn with_disk(mut self, disk: DiskSpec) -> Self {
        self.disk = disk;
        self
    }
}

/// Mutable per-host resources (reset on crash).
#[derive(Debug)]
pub struct HostResources {
    /// Outbound NIC serialization queue.
    pub nic_out: Resource,
    /// Inbound NIC serialization queue.
    pub nic_in: Resource,
    /// Database engine queue.
    pub db: Resource,
    /// CPU queue.
    pub cpu: Resource,
    /// Disk with write-back cache.
    pub disk: Disk,
}

impl HostResources {
    /// Fresh resources for `spec`.
    pub fn new(spec: &HostSpec) -> Self {
        HostResources {
            nic_out: Resource::new(),
            nic_in: Resource::new(),
            db: Resource::new(),
            cpu: Resource::new(),
            disk: Disk::new(spec.disk.clone()),
        }
    }

    /// Crash semantics: all queued work vanishes.
    pub fn reset(&mut self, now: crate::time::SimTime) {
        self.nic_out.reset(now);
        self.nic_in.reset(now);
        self.db.reset(now);
        self.cpu.reset(now);
        self.disk.reset(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId::EXTERNAL.to_string(), "n[ext]");
    }

    #[test]
    fn builders_apply() {
        let spec =
            HostSpec::named("coord").with_nic_bw(1.0e6).with_db_per_op(SimDuration::from_millis(1));
        assert_eq!(spec.name, "coord");
        assert_eq!(spec.nic_bw, 1.0e6);
        assert_eq!(spec.db_per_op, SimDuration::from_millis(1));
    }

    #[test]
    fn resources_reset() {
        let spec = HostSpec::default();
        let mut res = HostResources::new(&spec);
        use crate::time::{SimDuration as D, SimTime as T};
        res.cpu.acquire(T::ZERO, D::from_secs(100));
        res.reset(T::from_secs(1));
        assert_eq!(res.cpu.acquire(T::from_secs(1), D::ZERO).start, T::from_secs(1));
    }
}
