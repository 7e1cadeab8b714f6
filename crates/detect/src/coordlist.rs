//! The known-coordinators list and the replication-ring successor order.
//!
//! Paper §4.2: "We provide all components of the system with a finite list
//! of known coordinators.  This list has to be loaded for a first time and
//! updated frequently as it evolves according to fault suspicions.  All
//! components download the same list at system initialization from known
//! repositories ... The list is updated locally from system fault
//! suspicions and merged periodically, at 'heart beat' signal receptions."
//!
//! And for the ring: "Each coordinator knows a set of other coordinators
//! through its neighbors list.  Using a common order on this set, a
//! coordinator computes its position in this list, and a successor
//! relationship."

use std::collections::BTreeMap;

use rpcv_simnet::{SimDuration, SimTime};

/// How long a suspected coordinator stays out of the preferred choice
/// before it is retried (suspicion must be revisable: the detector is
/// unreliable).
pub const COORD_RETRY: SimDuration = SimDuration::from_secs(60);

/// Per-coordinator local view, ordered by preference: trusted first, then
/// the oldest suspicion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Standing {
    Trusted,
    /// Suspected at the given instant; retried after the backoff.
    Suspected(SimTime),
}

/// A component's list of known coordinators with local suspicion state.
///
/// Keys are kept in a common (sorted) order so every component derives the
/// same ring successor relationship from the same membership.
#[derive(Debug, Clone)]
pub struct CoordinatorList<K: Ord + Copy> {
    entries: BTreeMap<K, Standing>,
}

impl<K: Ord + Copy> CoordinatorList<K> {
    /// List over the initial repository snapshot.
    pub fn new(initial: impl IntoIterator<Item = K>) -> Self {
        CoordinatorList { entries: initial.into_iter().map(|k| (k, Standing::Trusted)).collect() }
    }

    /// Marks `k` suspected at `now` (local suspicion update).
    pub fn suspect(&mut self, k: K, now: SimTime) {
        if let Some(s) = self.entries.get_mut(&k) {
            *s = Standing::Suspected(now);
        }
    }

    /// Clears suspicion of `k` (a sign of life was observed).
    pub fn trust(&mut self, k: K) {
        if let Some(s) = self.entries.get_mut(&k) {
            *s = Standing::Trusted;
        }
    }

    /// Whether `k` stands suspected: written off until a sign of life.
    pub fn is_suspected(&self, k: K) -> bool {
        matches!(self.entries.get(&k), Some(Standing::Suspected(_)))
    }

    /// Whether `k` is currently eligible (trusted, or suspected at least
    /// [`COORD_RETRY`] ago).
    pub fn is_eligible(&self, k: K, now: SimTime) -> bool {
        match self.entries.get(&k) {
            None => false,
            Some(Standing::Trusted) => true,
            Some(Standing::Suspected(at)) => now.since(*at) >= COORD_RETRY,
        }
    }

    /// The preferred coordinator: the first trusted one in common order.
    ///
    /// Falls back to the oldest suspicion when every one is suspected —
    /// the component must keep trying *somebody*, since suspicion may be
    /// wrong and giving up violates the progress condition.  The oldest
    /// suspicion is also the first to expire, so a member whose retry came
    /// due is picked before one still held out.  A tie goes to the first in
    /// common order.
    pub fn preferred(&self) -> Option<K> {
        // `Standing` orders by exactly this preference.
        self.entries.iter().min_by_key(|&(_, s)| s).map(|(&k, _)| k)
    }

    /// The next eligible coordinator after `k` in common order, excluding
    /// `k` itself (used when the preferred coordinator is suspected, and
    /// by the ring successor relationship).
    pub fn successor_of(&self, k: K, now: SimTime) -> Option<K> {
        if self.entries.is_empty() {
            return None;
        }
        let after = self
            .entries
            .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
            .map(|(&c, _)| c);
        let before = self.entries.range(..k).map(|(&c, _)| c);
        // Wrap around the common order; skip ineligible entries.
        after.chain(before).find(|&c| self.is_eligible(c, now))
    }
}

/// Which coordinator of a group a component is talking to, and whether it
/// still believes in it.
///
/// Paper §4.1: every component talks to its *preferred* coordinator and
/// moves to the next one of the known list on suspicion.  A link is a
/// [`CoordinatorList`] plus the current pick and the instant it was last
/// heard from; a client holds one, a server one per shard.  Giving up on
/// a coordinator happens here and nowhere else.
#[derive(Debug, Clone)]
pub struct CoordLink<K: Ord + Copy> {
    coords: CoordinatorList<K>,
    current: Option<K>,
    /// Start of the current pick's suspicion window: its last reply, or
    /// the instant it was picked.  `None` = not judged yet.
    last_heard: Option<SimTime>,
}

impl<K: Ord + Copy> CoordLink<K> {
    /// Link over `members`, nobody picked yet.
    pub fn new(members: impl IntoIterator<Item = K>) -> Self {
        CoordLink { coords: CoordinatorList::new(members), current: None, last_heard: None }
    }

    /// The coordinator to address at `now`: the current pick while it is
    /// eligible, else the list's preferred one — which becomes current
    /// with a fresh suspicion window.
    pub fn pick(&mut self, now: SimTime) -> Option<K> {
        match self.current {
            Some(c) if self.coords.is_eligible(c, now) => Some(c),
            _ => {
                let picked = self.coords.preferred()?;
                self.current = Some(picked);
                self.last_heard = Some(now);
                Some(picked)
            }
        }
    }

    /// Restarts the current pick's suspicion window at `now` (a reply
    /// arrived — or the caller kept the link quiet by its own choice and
    /// is re-engaging); with `trust`, the sign of life also clears any
    /// suspicion of it.  No-op while nobody is picked.
    pub fn heard(&mut self, now: SimTime, trust: bool) {
        let Some(c) = self.current else { return };
        self.last_heard = Some(now);
        if trust {
            self.coords.trust(c);
        }
    }

    /// Suspects and drops the current pick if it has been silent for more
    /// than `suspicion`; returns it.  The next [`Self::pick`] moves on.
    pub fn give_up_if_silent(&mut self, now: SimTime, suspicion: SimDuration) -> Option<K> {
        let (c, last) = (self.current?, self.last_heard?);
        if now.since(last) <= suspicion {
            return None;
        }
        self.coords.suspect(c, now);
        self.current = None;
        Some(c)
    }

    /// The current pick.
    pub fn current(&self) -> Option<K> {
        self.current
    }

    /// Overrides the pick (a server following its work home, or resuming
    /// its pre-crash home).  The suspicion window is left alone: open one
    /// with [`Self::heard`], or leave the pick unjudged.
    pub fn set_current(&mut self, k: Option<K>) {
        self.current = k;
    }

    /// Whether `k` is a member this link does not hold suspected.
    pub fn is_eligible(&self, k: K, now: SimTime) -> bool {
        self.coords.is_eligible(k, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: fn(u64) -> SimTime = SimTime::from_secs;

    fn list() -> CoordinatorList<u32> {
        CoordinatorList::new([3, 1, 2])
    }

    #[test]
    fn common_order_is_sorted() {
        // Built from [3, 1, 2]: the successor walk follows the sorted keys.
        let l = list();
        let mut walk = vec![1];
        while walk.len() < 4 {
            walk.push(l.successor_of(*walk.last().unwrap(), S(0)).unwrap());
        }
        assert_eq!(walk, [1, 2, 3, 1]);
    }

    #[test]
    fn preferred_is_first_trusted() {
        let mut l = list();
        assert_eq!(l.preferred(), Some(1));
        l.suspect(1, S(0));
        assert_eq!(l.preferred(), Some(2));
        l.suspect(2, S(1));
        assert_eq!(l.preferred(), Some(3));
    }

    #[test]
    fn suspicion_expires() {
        let mut l = list();
        l.suspect(1, S(0));
        assert!(!l.is_eligible(1, S(59)));
        assert!(l.is_eligible(1, S(60)));
        assert_eq!(l.preferred(), Some(2), "trusted beats retry-eligible");
        l.suspect(2, S(0));
        l.suspect(3, S(0));
        assert_eq!(l.preferred(), Some(1), "oldest suspicion retried first");
    }

    #[test]
    fn all_recently_suspected_still_yields_somebody() {
        let mut l = list();
        l.suspect(1, S(10));
        l.suspect(2, S(5));
        l.suspect(3, S(20));
        // None eligible, but progress requires an answer: oldest suspicion.
        assert_eq!(l.preferred(), Some(2));
    }

    #[test]
    fn no_trusted_member_falls_back_to_the_oldest_suspicion() {
        let mut l = CoordinatorList::new([4, 3, 2, 1]);
        l.suspect(1, S(50));
        l.suspect(3, S(10));
        l.suspect(2, S(10));
        l.suspect(4, S(20));
        // Whichever suspicions have expired, the oldest one wins, and a tie
        // goes to the first in common order.
        assert_eq!(l.preferred(), Some(2));
        l.suspect(2, S(80));
        assert_eq!(l.preferred(), Some(3));
    }

    #[test]
    fn successor_wraps_in_common_order() {
        let l = list();
        assert_eq!(l.successor_of(1, S(0)), Some(2));
        assert_eq!(l.successor_of(2, S(0)), Some(3));
        assert_eq!(l.successor_of(3, S(0)), Some(1), "ring wraps");
    }

    #[test]
    fn successor_skips_suspected() {
        let mut l = list();
        l.suspect(2, S(0));
        assert_eq!(l.successor_of(1, S(1)), Some(3));
        // Lone survivor has no successor other than the suspected ones.
        l.suspect(3, S(0));
        assert_eq!(l.successor_of(1, S(1)), None);
    }

    #[test]
    fn trust_restores() {
        let mut l = list();
        l.suspect(1, S(0));
        l.trust(1);
        assert_eq!(l.preferred(), Some(1));
    }

    fn link() -> CoordLink<u32> {
        CoordLink::new([3, 1, 2])
    }

    #[test]
    fn link_sticks_to_its_pick_until_silence_outlasts_the_window() {
        let mut l = link();
        assert_eq!(l.current(), None);
        assert_eq!(l.pick(S(0)), Some(1));
        let window = SimDuration::from_secs(30);
        assert_eq!(l.give_up_if_silent(S(30), window), None, "exactly at the timeout: not yet");
        l.heard(S(20), false);
        assert_eq!(l.give_up_if_silent(S(50), window), None);
        assert_eq!(l.give_up_if_silent(S(51), window), Some(1));
        assert_eq!(l.current(), None);
        assert!(!l.is_eligible(1, S(52)));
        // Moving on opens a fresh window for the new pick.
        assert_eq!(l.pick(S(52)), Some(2));
        assert_eq!(l.give_up_if_silent(S(82), window), None);
        // A trusted reply rehabilitates only the *current* pick.
        l.heard(S(60), true);
        assert!(!l.is_eligible(1, S(61)));
    }

    #[test]
    fn overridden_pick_is_unjudged_until_a_window_opens() {
        let mut l = link();
        l.set_current(Some(3));
        let window = SimDuration::from_secs(5);
        assert_eq!(l.give_up_if_silent(S(1000), window), None, "no window, no verdict");
        assert_eq!(l.pick(S(1000)), Some(3), "an eligible override is kept");
        l.heard(S(1000), false);
        assert_eq!(l.give_up_if_silent(S(1006), window), Some(3));
    }

    #[test]
    fn empty_list_behaviour() {
        let l: CoordinatorList<u32> = CoordinatorList::new([]);
        assert_eq!(l.preferred(), None);
        assert_eq!(l.successor_of(1, S(0)), None);
    }
}
