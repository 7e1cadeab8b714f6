//! Host and link presets calibrated to the paper's platforms (DESIGN.md §6).
//!
//! Confined cluster (§5.1): Athlon XP 1800+ nodes, IDE disks, one 48-port
//! 100 Mbit/s switch, MySQL coordinators.  Real-life testbed (§5.2):
//! Internet links between Lille, Orsay (LRI) and Wisconsin; two Xeon
//! coordinators with faster database engines.

use rpcv_simnet::{DiskSpec, HostSpec, SimDuration};

/// 100 Mbit/s Ethernet payload bandwidth, bytes/sec.
pub const LAN_BW: f64 = 12.5e6;
/// Conservative Internet-path bandwidth for desktop nodes, bytes/sec.
pub const WAN_BW: f64 = 1.25e6;
/// Coordinator↔coordinator Internet bandwidth (better-provisioned
/// university links), bytes/sec.
pub const WAN_COORD_BW: f64 = 2.5e6;

/// IDE-era disk model (also used for coordinator archive storage): the
/// geometry of [`rpcv_simnet::disk`], with up to 50 % added to each op's
/// cost.
pub fn ide_disk() -> DiskSpec {
    DiskSpec { per_op_jitter: 0.5 }
}

/// Per-message connection setup/teardown cost (connection-less protocol:
/// "for any interaction with other system components, a connection is
/// opened before the communication and closed immediately after", §2.2).
pub fn connection_cost() -> SimDuration {
    SimDuration::from_millis(4)
}

/// A confined-cluster client node.
pub fn confined_client() -> HostSpec {
    HostSpec::named("client")
        .with_nic_bw(LAN_BW)
        .with_nic_per_op(connection_cost())
        .with_disk(ide_disk())
}

/// A confined-cluster computing server.
pub fn confined_server() -> HostSpec {
    HostSpec::named("server")
        .with_nic_bw(LAN_BW)
        .with_nic_per_op(connection_cost())
        .with_disk(ide_disk())
}

/// A confined-cluster coordinator (MySQL on an Athlon: 3 ms/op).
pub fn confined_coordinator() -> HostSpec {
    HostSpec::named("coordinator")
        .with_nic_bw(LAN_BW)
        .with_nic_per_op(connection_cost())
        .with_disk(ide_disk())
        .with_db_per_op(SimDuration::from_millis(3))
}

/// A real-life coordinator (Xeon, faster database: the paper observes
/// "the coordinators used for the real life experiments exhibit better
/// performance on database operations").
pub fn reallife_coordinator() -> HostSpec {
    HostSpec::named("coordinator-wan")
        .with_nic_bw(WAN_COORD_BW)
        .with_nic_per_op(connection_cost())
        .with_disk(ide_disk())
        .with_db_per_op(SimDuration::from_micros(1500))
}

/// A desktop PC participating over the Internet.
pub fn internet_desktop() -> HostSpec {
    HostSpec::named("desktop-wan")
        .with_nic_bw(WAN_BW)
        .with_nic_per_op(connection_cost())
        .with_disk(ide_disk())
}

/// Marshalling throughput (bytes/sec) charged by clients when serializing
/// RPC parameters.
pub const MARSHAL_BW: f64 = 200.0e6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_overhead_ratio_matches_paper() {
        // Paper Fig. 4: blocking pessimistic logging adds ≈ 30% for large
        // messages.  That requires disk_time/net_time ≈ 0.3.
        let ratio = LAN_BW / rpcv_simnet::disk::PLATTER_BW;
        assert!((0.25..0.40).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn reallife_db_is_faster() {
        assert!(reallife_coordinator().db_per_op < confined_coordinator().db_per_op);
    }

    #[test]
    fn wan_is_slower_than_lan() {
        assert!(internet_desktop().nic_bw < confined_server().nic_bw);
    }
}
