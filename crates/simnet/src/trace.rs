//! Execution traces and message statistics.
//!
//! Every world folds a running 64-bit hash over all observable events; two
//! runs with the same seed must produce identical hashes (this is the
//! determinism invariant the property tests enforce).  Full event recording
//! is opt-in because long experiments generate millions of events.

use crate::node::NodeId;
use crate::time::SimTime;

/// Category of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Message handed to the network by a node.
    Send,
    /// Message handed to a node's actor.
    Deliver,
    /// Message dropped: link blocked (partition).
    DropPartition,
    /// Message dropped: random loss.
    DropLoss,
    /// Message dropped: destination down.
    DropDown,
    /// Node crashed.
    Crash,
    /// Node restarted.
    Restart,
    /// Timer fired.
    Timer,
    /// Free-form note from an actor.
    Note,
    /// Message duplicated by the link (a second copy was scheduled).
    Dup,
    /// Message corrupted in flight (still delivered, possibly mangled).
    Corrupt,
    /// Message held back by a reorder delay (later sends may overtake it).
    Reorder,
}

impl TraceKind {
    /// Every kind, in code order.  [`NetStats::dropped_total`] and the
    /// kind↔counter mapping below iterate this list, so the exhaustiveness
    /// test breaks the build when a new kind is missing here.
    pub const ALL: [TraceKind; 12] = [
        TraceKind::Send,
        TraceKind::Deliver,
        TraceKind::DropPartition,
        TraceKind::DropLoss,
        TraceKind::DropDown,
        TraceKind::Crash,
        TraceKind::Restart,
        TraceKind::Timer,
        TraceKind::Note,
        TraceKind::Dup,
        TraceKind::Corrupt,
        TraceKind::Reorder,
    ];

    fn code(self) -> u64 {
        match self {
            TraceKind::Send => 1,
            TraceKind::Deliver => 2,
            TraceKind::DropPartition => 3,
            TraceKind::DropLoss => 4,
            TraceKind::DropDown => 5,
            TraceKind::Crash => 6,
            TraceKind::Restart => 7,
            TraceKind::Timer => 8,
            TraceKind::Note => 9,
            TraceKind::Dup => 10,
            TraceKind::Corrupt => 11,
            TraceKind::Reorder => 12,
        }
    }

    /// True for kinds that consume a sent frame without delivering it.
    /// This is the single source of truth behind
    /// [`NetStats::dropped_total`]: adding a drop-flavoured kind without
    /// classifying it here breaks the exhaustive `match`.
    pub const fn is_drop(self) -> bool {
        match self {
            TraceKind::DropPartition | TraceKind::DropLoss | TraceKind::DropDown => true,
            TraceKind::Send
            | TraceKind::Deliver
            | TraceKind::Crash
            | TraceKind::Restart
            | TraceKind::Timer
            | TraceKind::Note
            | TraceKind::Dup
            | TraceKind::Corrupt
            | TraceKind::Reorder => false,
        }
    }

    /// The [`NetStats`] counter this kind feeds, if any (`Timer` and
    /// `Note` have no aggregate counter).  Exhaustive on purpose: a new
    /// `TraceKind` cannot compile without declaring its counter here.
    pub fn stat_of(self, s: &NetStats) -> Option<u64> {
        match self {
            TraceKind::Send => Some(s.sent),
            TraceKind::Deliver => Some(s.delivered),
            TraceKind::DropPartition => Some(s.dropped_partition),
            TraceKind::DropLoss => Some(s.dropped_loss),
            TraceKind::DropDown => Some(s.dropped_down),
            TraceKind::Crash => Some(s.crashes),
            TraceKind::Restart => Some(s.restarts),
            TraceKind::Timer | TraceKind::Note => None,
            TraceKind::Dup => Some(s.duplicated),
            TraceKind::Corrupt => Some(s.corrupted),
            TraceKind::Reorder => Some(s.reordered),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Node concerned.
    pub node: NodeId,
    /// Category.
    pub kind: TraceKind,
    /// Free-form detail (empty unless recording verbose detail).
    pub detail: String,
}

fn fnv64(init: u64, bytes: &[u8]) -> u64 {
    let mut h = init ^ 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Trace accumulator.
#[derive(Debug)]
pub struct Trace {
    record: bool,
    events: Vec<TraceEvent>,
    hash: u64,
}

impl Trace {
    /// Hash-only trace (default for big experiments).
    pub fn new() -> Self {
        Trace { record: false, events: Vec::new(), hash: 0 }
    }

    /// Enables full event recording.
    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
    }

    /// Adds an event (always folded into the hash; stored only if
    /// recording).
    pub fn push(&mut self, at: SimTime, node: NodeId, kind: TraceKind, detail: impl AsRef<str>) {
        let d = detail.as_ref();
        self.hash = fnv64(
            self.hash
                .rotate_left(13)
                .wrapping_add(at.0)
                .wrapping_add((node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(kind.code()),
            d.as_bytes(),
        );
        if self.record {
            self.events.push(TraceEvent { at, node, kind, detail: d.to_owned() });
        }
    }

    /// Running determinism hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Recorded events (empty unless recording was enabled).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

/// Declares a counter struct once: each `pub name,` line becomes a
/// `pub name: u64` field *and* one `(name, value)` pair of the inherent
/// `counters()` that `rpcv_obs::TelemetrySnapshot::add_counters` publishes,
/// so a counter cannot be added without being exported.  Fields that are not
/// plain counters follow in a `+ { pub name: Type, }` block.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$cmeta:meta])* pub $counter:ident,)* }
        $(+ { $($(#[$fmeta:meta])* pub $field:ident: $fty:ty,)* })?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$cmeta])* pub $counter: u64,)*
            $($($(#[$fmeta])* pub $field: $fty,)*)?
        }
        impl $name {
            /// Every counter as `(field name, value)`, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($counter), self.$counter)),*].into_iter()
            }
        }
    };
}

counters! {
    /// Aggregate message-plane statistics.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct NetStats {
        /// Messages handed to the network.
        pub sent,
        /// Messages delivered to actors.
        pub delivered,
        /// Dropped because the pair was blocked.
        pub dropped_partition,
        /// Dropped by random loss.
        pub dropped_loss,
        /// Dropped because the destination was down.
        pub dropped_down,
        /// Total payload bytes handed to the network.
        pub bytes_sent,
        /// Crashes injected.
        pub crashes,
        /// Restarts performed.
        pub restarts,
        /// Messages duplicated by a link (extra copies scheduled, on top of
        /// `sent`: conservation reads `sent + duplicated == delivered +
        /// dropped_total()` after a drain).
        pub duplicated,
        /// Messages corrupted in flight (still delivered — and therefore also
        /// counted under `delivered` or a drop, never subtracted).
        pub corrupted,
        /// Messages held back by a reorder delay (still delivered).
        pub reordered,
    }
}

impl NetStats {
    /// All drops combined — derived from the exhaustive
    /// [`TraceKind::is_drop`]/[`TraceKind::stat_of`] mapping so a new drop
    /// kind can never be silently left out of the total.
    pub fn dropped_total(&self) -> u64 {
        TraceKind::ALL
            .iter()
            .filter(|k| k.is_drop())
            .map(|k| k.stat_of(self).expect("drop kinds always have a counter"))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_changes_with_events() {
        let mut t = Trace::new();
        let h0 = t.hash();
        t.push(SimTime::from_secs(1), NodeId(0), TraceKind::Send, "");
        assert_ne!(t.hash(), h0);
    }

    #[test]
    fn hash_is_order_sensitive() {
        let mut a = Trace::new();
        a.push(SimTime::from_secs(1), NodeId(0), TraceKind::Send, "x");
        a.push(SimTime::from_secs(2), NodeId(1), TraceKind::Deliver, "y");
        let mut b = Trace::new();
        b.push(SimTime::from_secs(2), NodeId(1), TraceKind::Deliver, "y");
        b.push(SimTime::from_secs(1), NodeId(0), TraceKind::Send, "x");
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn recording_toggles_storage() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, NodeId(0), TraceKind::Note, "hidden");
        assert!(t.events().is_empty());
        t.set_recording(true);
        t.push(SimTime::ZERO, NodeId(0), TraceKind::Note, "kept");
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].detail, "kept");
    }

    #[test]
    fn identical_sequences_hash_identically() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        for i in 0..100 {
            a.push(SimTime::from_millis(i), NodeId((i % 5) as u32), TraceKind::Send, "d");
            b.push(SimTime::from_millis(i), NodeId((i % 5) as u32), TraceKind::Send, "d");
        }
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn stats_totals() {
        let s = NetStats {
            dropped_loss: 2,
            dropped_partition: 3,
            dropped_down: 4,
            duplicated: 7,
            corrupted: 8,
            reordered: 9,
            ..Default::default()
        };
        // Corrupted/duplicated/reordered frames are delivered, not dropped.
        assert_eq!(s.dropped_total(), 9);
    }

    #[test]
    fn all_kinds_enumerated_exactly_once() {
        // One arm per variant and no wildcard: adding a `TraceKind` breaks
        // this match, and the membership assertion breaks if the new kind
        // was not added to `ALL`.
        for kind in TraceKind::ALL {
            match kind {
                TraceKind::Send
                | TraceKind::Deliver
                | TraceKind::DropPartition
                | TraceKind::DropLoss
                | TraceKind::DropDown
                | TraceKind::Crash
                | TraceKind::Restart
                | TraceKind::Timer
                | TraceKind::Note
                | TraceKind::Dup
                | TraceKind::Corrupt
                | TraceKind::Reorder => {}
            }
        }
        let mut codes: Vec<u64> = TraceKind::ALL.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), TraceKind::ALL.len(), "codes must be unique");
        assert_eq!(codes, (1..=TraceKind::ALL.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn stat_mapping_reads_the_right_counters() {
        let s = NetStats {
            sent: 1,
            delivered: 2,
            dropped_partition: 3,
            dropped_loss: 4,
            dropped_down: 5,
            crashes: 6,
            restarts: 7,
            duplicated: 8,
            corrupted: 9,
            reordered: 10,
            bytes_sent: 999,
        };
        assert_eq!(TraceKind::Send.stat_of(&s), Some(1));
        assert_eq!(TraceKind::Deliver.stat_of(&s), Some(2));
        assert_eq!(TraceKind::DropPartition.stat_of(&s), Some(3));
        assert_eq!(TraceKind::DropLoss.stat_of(&s), Some(4));
        assert_eq!(TraceKind::DropDown.stat_of(&s), Some(5));
        assert_eq!(TraceKind::Crash.stat_of(&s), Some(6));
        assert_eq!(TraceKind::Restart.stat_of(&s), Some(7));
        assert_eq!(TraceKind::Dup.stat_of(&s), Some(8));
        assert_eq!(TraceKind::Corrupt.stat_of(&s), Some(9));
        assert_eq!(TraceKind::Reorder.stat_of(&s), Some(10));
        assert_eq!(TraceKind::Timer.stat_of(&s), None);
        assert_eq!(TraceKind::Note.stat_of(&s), None);
        assert_eq!(s.dropped_total(), 12);
        // `counters!` lists every field once, under its own name, in order.
        let listed: Vec<(&str, u64)> = s.counters().collect();
        assert_eq!(listed.len(), 11);
        assert_eq!(
            (listed[0], listed[5], listed[10]),
            (("sent", 1), ("bytes_sent", 999), ("reordered", 10))
        );
    }
}
