//! Shared actor machinery: deferred sends, the coordinator directory, and
//! workload call specs.

use std::collections::BTreeMap;

use rpcv_simnet::{Ctx, NodeId, SimTime, TimerId, WireSized};
use rpcv_wire::Blob;
use rpcv_xw::{ClientKey, CoordId, ServiceName};

use crate::msg::Msg;

/// Maps coordinator identities to their network addresses, partitioned into
/// replication shards.
///
/// This is the paper's bootstrap list "downloaded ... at system
/// initialization from known repositories (web servers, DNS, mail
/// communicated messages, etc...)", extended with the shard plane: the job
/// space is hash-partitioned by [`ClientKey::shard_of`] across `S`
/// independent coordinator groups, each a full replicated ring with its own
/// change index, feed and retention floor.  Every component is built
/// with the same list and reads its own part of it — a coordinator its
/// ring, a server one link per group, a client the one group that owns it
/// — so which group owns a client is decided here and nowhere else, and
/// nothing about the map ever crosses the wire.  One group is the paper's
/// flat plane.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    coords: BTreeMap<CoordId, NodeId>,
    /// Shard membership: `groups[s]` lists shard `s`'s coordinators in
    /// preference order.  Always at least one group when non-empty.
    groups: Vec<Vec<CoordId>>,
}

impl Directory {
    /// Directory over per-shard coordinator groups: `groups[s]` owns the
    /// clients with `key.shard_of(groups.len()) == s`.
    pub fn sharded(groups: Vec<Vec<(CoordId, NodeId)>>) -> Self {
        let coords = groups.iter().flatten().copied().collect();
        let groups = groups.iter().map(|g| g.iter().map(|&(c, _)| c).collect()).collect();
        Directory { coords, groups }
    }

    /// Address of a coordinator.
    pub fn node_of(&self, c: CoordId) -> Option<NodeId> {
        self.coords.get(&c).copied()
    }

    /// Number of shards (1 for a flat directory).
    pub fn shard_count(&self) -> usize {
        self.groups.len().max(1)
    }

    /// The shard owning `client`'s job space.
    pub fn shard_of(&self, client: ClientKey) -> usize {
        client.shard_of(self.shard_count())
    }

    /// Coordinator ids of shard `s`, in preference order.
    pub fn group(&self, s: usize) -> &[CoordId] {
        &self.groups[s]
    }

    /// The group owning `client`'s job space: the only coordinators that
    /// client ever addresses.
    pub fn group_of(&self, client: ClientKey) -> &[CoordId] {
        self.group(self.shard_of(client))
    }

    /// The shard index `c` belongs to (`None` for an unknown coordinator).
    pub fn shard_of_coord(&self, c: CoordId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&c))
    }
}

/// One deferred send: destination, message, token, wire size.
type Pending = (NodeId, Msg, u64, u64);

/// Messages scheduled for a future instant (e.g. a reply that may only
/// leave once the database operation backing it completed).
///
/// A backlogged coordinator holds thousands of these, so — like the kernel
/// event queue — the message is written once into a slab and the ordered
/// index moves 12-byte `timer id → slot` pairs, not whole `Msg` values.
#[derive(Debug, Default)]
pub struct Deferred {
    slab: Vec<Option<Pending>>,
    /// Vacant slab positions, reused LIFO.
    free: Vec<u32>,
    /// timer id → slab position.
    index: BTreeMap<u64, u32>,
}

impl Deferred {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sends `msg` to `to` at `at` (immediately if `at` is not in the
    /// future).  `kind` is the actor's deferred-send timer kind; `token`
    /// is an actor-defined correlation value returned by [`Self::fire`].
    ///
    /// Returns the sender-side completion time if the send happened
    /// immediately, `None` if it was deferred.
    pub fn send_at(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        at: SimTime,
        to: NodeId,
        msg: Msg,
        kind: u64,
        token: u64,
    ) -> Option<SimTime> {
        let size = msg.wire_size();
        self.send_at_sized(ctx, at, to, msg, size, kind, token)
    }

    /// [`Self::send_at`] with a caller-computed wire size, so a message
    /// whose size was already measured (replication deltas record it as a
    /// transfer metric) is not encode-counted a second time at send.
    #[allow(clippy::too_many_arguments)] // mirrors `send_at` + the size; a struct would obscure the call sites
    pub fn send_at_sized(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        at: SimTime,
        to: NodeId,
        msg: Msg,
        size: u64,
        kind: u64,
        token: u64,
    ) -> Option<SimTime> {
        if at <= ctx.now() {
            return Some(ctx.send_sized(to, msg, size));
        }
        let id = ctx.set_timer_at(at, kind);
        let item = Some((to, msg, token, size));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = item;
                slot
            }
            None => {
                self.slab.push(item);
                (self.slab.len() - 1) as u32
            }
        };
        self.index.insert(id.0, slot);
        None
    }

    /// Fires a deferred send; returns `(comm_end, token)` if `id` belonged
    /// to this queue.
    pub fn fire(&mut self, ctx: &mut Ctx<'_, Msg>, id: TimerId) -> Option<(SimTime, u64)> {
        let slot = self.index.remove(&id.0)?;
        let (to, msg, token, size) =
            self.slab[slot as usize].take().expect("indexed slots hold a message");
        self.free.push(slot);
        Some((ctx.send_sized(to, msg, size), token))
    }

    /// Number of queued sends.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// One workload call: everything a client needs to build a submission.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSpec {
    /// Service to invoke.
    pub service: ServiceName,
    /// Parameters.
    pub params: Blob,
    /// Declared execution cost (work-units ≈ seconds on a 1.0-speed host).
    pub exec_cost: f64,
    /// Expected result size in bytes.
    pub result_size: u64,
    /// Redundant-replication factor (extension; 1 = paper baseline).
    pub replication: u32,
    /// Checkpointable work-unit count (extension; 1 = atomic, the paper
    /// baseline).  An N-unit call can snapshot progress at unit boundaries
    /// and resume mid-task after a server crash.
    pub work_units: u32,
}

impl CallSpec {
    /// A call with the given service/cost/sizes.
    pub fn new(
        service: impl Into<ServiceName>,
        params: Blob,
        exec_cost: f64,
        result_size: u64,
    ) -> Self {
        CallSpec {
            service: service.into(),
            params,
            exec_cost,
            result_size,
            replication: 1,
            work_units: 1,
        }
    }

    /// Builder: redundancy factor.
    pub fn with_replication(mut self, n: u32) -> Self {
        self.replication = n.max(1);
        self
    }

    /// Builder: checkpointable work-unit count (floors at 1).
    pub fn with_work_units(mut self, n: u32) -> Self {
        self.work_units = n.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_group_is_the_flat_plane() {
        let d = Directory::sharded(vec![vec![(CoordId(2), NodeId(5)), (CoordId(1), NodeId(4))]]);
        assert_eq!(d.node_of(CoordId(1)), Some(NodeId(4)));
        assert_eq!(d.node_of(CoordId(9)), None);
        assert_eq!(d.shard_count(), 1);
        assert_eq!(d.shard_of(ClientKey::new(7, 3)), 0);
        assert_eq!(d.group_of(ClientKey::new(7, 3)), &[CoordId(2), CoordId(1)], "listed order");
        assert_eq!(d.shard_of_coord(CoordId(2)), Some(0));
    }

    #[test]
    fn sharded_directory_partitions_members() {
        let d = Directory::sharded(vec![
            vec![(CoordId(1), NodeId(4)), (CoordId(2), NodeId(5))],
            vec![(CoordId(3), NodeId(6)), (CoordId(4), NodeId(7))],
        ]);
        assert_eq!(d.shard_count(), 2);
        assert_eq!(d.group(1), &[CoordId(3), CoordId(4)]);
        assert_eq!(d.shard_of_coord(CoordId(3)), Some(1));
        assert_eq!(d.shard_of_coord(CoordId(9)), None);
        assert_eq!(d.node_of(CoordId(4)), Some(NodeId(7)));
        // Ownership agrees with the shared client-side hash.
        let k = ClientKey::new(11, 1);
        assert_eq!(d.shard_of(k), k.shard_of(2));
        assert_eq!(d.group_of(k), d.group(k.shard_of(2)));
    }

    #[test]
    fn callspec_builder() {
        let c = CallSpec::new("s", Blob::empty(), 2.0, 64).with_replication(0).with_work_units(0);
        assert_eq!(c.replication, 1, "replication floors at 1");
        assert_eq!(c.work_units, 1, "work units floor at 1");
        assert_eq!(c.with_work_units(30).work_units, 30);
    }
}
