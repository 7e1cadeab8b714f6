//! Network model: links, latency, bandwidth, loss, partitions.
//!
//! The paper treats Internet-connected desktop grids as asynchronous,
//! best-effort networks (§2.2/§2.3): messages can be delayed arbitrarily or
//! lost, connections are short-lived (connection-less interaction), and the
//! system may partition.  The model here provides exactly those behaviours
//! under explicit control:
//!
//! * every directed pair of nodes resolves to [`LinkParams`] (propagation
//!   latency, random extra jitter, loss probability);
//! * transfer serialization happens on the *end-host NICs* (sender out,
//!   receiver in), which is where 100 Mbit/s Ethernet and ADSL-era Internet
//!   actually bottleneck — see [`crate::world::World`];
//! * pairs can be blocked (partitions, Fig. 11) and restored dynamically,
//!   one directed pair at a time or a whole partition episode at once as a
//!   [`CutId`]-named cut.  Cuts nest: a pair stays apart while any open
//!   cut separates it, and a healed cut leaves nothing behind.

use std::collections::{BTreeMap, BTreeSet};

use crate::node::NodeId;
use crate::time::SimDuration;

/// Per-directed-link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Base one-way propagation latency.
    pub latency: SimDuration,
    /// Maximum additional uniform random latency (models congestion noise).
    pub jitter: SimDuration,
    /// Probability that a datagram is silently dropped.
    pub loss: f64,
    /// Probability that a datagram is delivered twice (duplication needs a
    /// [`crate::world::World::set_frame_ops`] hook to copy the frame; the
    /// knob is inert otherwise).
    pub dup: f64,
    /// Probability that a datagram arrives bit-flipped.  The frame is still
    /// delivered — mangled through the installed frame-ops hook when one is
    /// present — and counted in [`crate::NetStats::corrupted`].
    pub corrupt: f64,
    /// Probability that a datagram is held back by an extra delay drawn
    /// uniformly from `[0, reorder_window)`, letting later sends overtake it.
    pub reorder: f64,
    /// Maximum extra holding delay for reordered datagrams.
    pub reorder_window: SimDuration,
}

impl LinkParams {
    /// A LAN-class link (calibration table in DESIGN.md).
    pub fn lan() -> Self {
        LinkParams {
            latency: SimDuration::from_micros(100),
            jitter: SimDuration::from_micros(20),
            loss: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            reorder_window: SimDuration::ZERO,
        }
    }

    /// A WAN/Internet-class link.
    pub fn wan() -> Self {
        LinkParams {
            latency: SimDuration::from_millis(50),
            jitter: SimDuration::from_millis(10),
            loss: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            reorder_window: SimDuration::ZERO,
        }
    }

    /// Builder: loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Builder: duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Builder: bit-flip corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Builder: reorder probability and holding window.
    pub fn with_reorder(mut self, p: f64, window: SimDuration) -> Self {
        self.reorder = p;
        self.reorder_window = window;
        self
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::lan()
    }
}

/// Names one partition episode's cut (see [`NetModel::cut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CutId(pub u64);

/// One open partition episode: which side each member node is on.
#[derive(Debug, Clone)]
struct Cut {
    id: CutId,
    /// `(node, minority)`, sorted by node.
    sides: Vec<(NodeId, bool)>,
}

impl Cut {
    fn side(&self, node: NodeId) -> Option<bool> {
        let i = self.sides.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(self.sides[i].1)
    }

    /// True when `a` and `b` are members on opposite sides.
    fn separates(&self, a: NodeId, b: NodeId) -> bool {
        matches!((self.side(a), self.side(b)), (Some(x), Some(y)) if x != y)
    }
}

/// Mutable network topology/policy.
///
/// Resolution order for `(from, to)`: blocked or cut apart? → pair
/// override → default.  Pair blocks and cuts are separate layers: a heal
/// never lifts a pair block, an unblock never lifts a cut.  Only open cuts
/// are held.
#[derive(Debug, Clone)]
pub struct NetModel {
    default: LinkParams,
    overrides: BTreeMap<(NodeId, NodeId), LinkParams>,
    blocked: BTreeSet<(NodeId, NodeId)>,
    cuts: Vec<Cut>,
}

impl NetModel {
    /// Network where every pair uses `default`.
    pub fn new(default: LinkParams) -> Self {
        NetModel { default, overrides: BTreeMap::new(), blocked: BTreeSet::new(), cuts: Vec::new() }
    }

    /// Replaces the default parameters every non-overridden pair resolves
    /// to (chaos bursts degrade the whole fabric this way, leaving pair
    /// overrides — e.g. a dedicated coordinator link — untouched).
    pub fn set_default(&mut self, params: LinkParams) {
        self.default = params;
    }

    /// Sets parameters for the directed pair `(from, to)`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        self.overrides.insert((from, to), params);
    }

    /// Sets parameters for both directions.
    pub fn set_link_bidir(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.set_link(a, b, params);
        self.set_link(b, a, params);
    }

    /// Blocks the directed pair `(from, to)` (messages silently vanish,
    /// which is how partitions look on a best-effort network).
    pub fn block(&mut self, from: NodeId, to: NodeId) {
        self.blocked.insert((from, to));
    }

    /// Blocks both directions.
    pub fn block_bidir(&mut self, a: NodeId, b: NodeId) {
        self.block(a, b);
        self.block(b, a);
    }

    /// Unblocks the directed pair.
    pub fn unblock(&mut self, from: NodeId, to: NodeId) {
        self.blocked.remove(&(from, to));
    }

    /// Unblocks both directions.
    pub fn unblock_bidir(&mut self, a: NodeId, b: NodeId) {
        self.unblock(a, b);
        self.unblock(b, a);
    }

    /// Puts `node` on one side of cut `cut`, opening the cut if it is not
    /// open.  While the cut is open it separates each minority member from
    /// each majority member in both directions.
    pub fn cut(&mut self, cut: CutId, node: NodeId, minority: bool) {
        let i = match self.cuts.iter().position(|c| c.id == cut) {
            Some(i) => i,
            None => {
                self.cuts.push(Cut { id: cut, sides: Vec::new() });
                self.cuts.len() - 1
            }
        };
        let sides = &mut self.cuts[i].sides;
        match sides.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(j) => sides[j].1 = minority,
            Err(j) => sides.insert(j, (node, minority)),
        }
    }

    /// Heals cut `cut`: it is dropped, and a pair it separated reopens
    /// unless another open cut still separates it.
    pub fn heal(&mut self, cut: CutId) {
        self.cuts.retain(|c| c.id != cut);
    }

    /// Resolves the directed link; `None` means partitioned.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<LinkParams> {
        if self.blocked.contains(&(from, to)) || self.cuts.iter().any(|c| c.separates(from, to)) {
            return None;
        }
        Some(*self.overrides.get(&(from, to)).unwrap_or(&self.default))
    }
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel::new(LinkParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: fn(u32) -> NodeId = NodeId;

    #[test]
    fn default_link_applies_everywhere() {
        let net = NetModel::new(LinkParams::lan());
        let l = net.link(N(0), N(1)).unwrap();
        assert_eq!(l.latency, SimDuration::from_micros(100));
    }

    #[test]
    fn override_takes_precedence() {
        let mut net = NetModel::new(LinkParams::lan());
        net.set_link(N(0), N(1), LinkParams::wan());
        assert_eq!(net.link(N(0), N(1)).unwrap().latency, SimDuration::from_millis(50));
        // Only the configured direction changes.
        assert_eq!(net.link(N(1), N(0)).unwrap().latency, SimDuration::from_micros(100));
    }

    #[test]
    fn block_and_unblock() {
        let mut net = NetModel::default();
        net.block_bidir(N(2), N(3));
        assert!(net.link(N(2), N(3)).is_none());
        assert!(net.link(N(3), N(2)).is_none());
        assert!(net.link(N(2), N(4)).is_some());
        net.unblock(N(2), N(3));
        assert!(net.link(N(2), N(3)).is_some());
        assert!(net.link(N(3), N(2)).is_none(), "other direction stays blocked");
        net.unblock_bidir(N(2), N(3));
        assert!(net.link(N(2), N(3)).is_some() && net.link(N(3), N(2)).is_some());
    }

    #[test]
    fn cuts_separate_sides_and_leave_nothing_once_healed() {
        let mut net = NetModel::default();
        let (a, b) = (CutId(1), CutId(2));
        net.cut(a, N(0), true);
        net.cut(a, N(1), false);
        net.cut(a, N(2), false);
        assert!(net.link(N(0), N(1)).is_none() && net.link(N(2), N(0)).is_none());
        assert!(net.link(N(1), N(2)).is_some(), "same side");
        assert!(net.link(N(0), N(3)).is_some(), "not a member");
        // `b` also separates {0, 1}: `a`'s heal reopens {0, 2} only, and
        // {0, 1} stays cut while `b` is open.
        net.cut(b, N(1), true);
        net.cut(b, N(0), false);
        net.heal(a);
        assert!(net.link(N(0), N(1)).is_none() && net.link(N(1), N(0)).is_none());
        assert!(net.link(N(0), N(2)).is_some() && net.link(N(2), N(0)).is_some());
        assert_eq!(net.cuts.len(), 1, "a healed cut is dropped");
        net.heal(b);
        assert!(net.link(N(0), N(1)).is_some() && net.link(N(1), N(0)).is_some());
        assert!(net.cuts.is_empty());
    }

    #[test]
    fn chaos_knobs_default_to_inert() {
        for l in [LinkParams::lan(), LinkParams::wan(), LinkParams::default()] {
            assert_eq!(l.dup, 0.0);
            assert_eq!(l.corrupt, 0.0);
            assert_eq!(l.reorder, 0.0);
            assert_eq!(l.reorder_window, SimDuration::ZERO);
        }
        let l = LinkParams::lan()
            .with_loss(0.1)
            .with_dup(0.2)
            .with_corrupt(0.3)
            .with_reorder(0.4, SimDuration::from_millis(5));
        assert_eq!((l.loss, l.dup, l.corrupt, l.reorder), (0.1, 0.2, 0.3, 0.4));
        assert_eq!(l.reorder_window, SimDuration::from_millis(5));
    }

    #[test]
    fn set_default_respects_overrides() {
        let mut net = NetModel::new(LinkParams::lan());
        net.set_link(N(0), N(1), LinkParams::wan());
        net.set_default(LinkParams::lan().with_loss(0.5));
        assert_eq!(net.link(N(1), N(2)), Some(LinkParams::lan().with_loss(0.5)));
        // The dedicated pair keeps its override through the burst.
        assert_eq!(net.link(N(0), N(1)).unwrap().loss, 0.0);
        assert_eq!(net.link(N(0), N(1)).unwrap().latency, SimDuration::from_millis(50));
    }

    #[test]
    fn blocking_beats_override() {
        let mut net = NetModel::default();
        net.set_link(N(0), N(1), LinkParams::wan());
        net.block(N(0), N(1));
        assert!(net.link(N(0), N(1)).is_none());
    }
}
