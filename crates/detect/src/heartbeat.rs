//! Timeout-based suspicion over observed heartbeats.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use rpcv_simnet::{SimDuration, SimTime};

/// Timeout-based suspicion over observed heartbeats, keyed by `K`.
///
/// "When an 'heart beat' signal is timed out, we assume (maybe wrongly) a
/// failure, whatever is the reason: either a crash, a network failure or an
/// intermittent congestion" (§4.2).  Wrong suspicion is a feature of the
/// model, not a bug — the protocol must stay correct under it.
///
/// A component is suspect at `now` when it has been silent for longer than
/// the timeout; the monitor holds nothing but each component's last
/// observation, indexed twice.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor<K: Ord + Copy> {
    timeout: SimDuration,
    last_seen: BTreeMap<K, SimTime>,
    /// The same entries ordered by last observation: the silent components
    /// are a prefix, so the periodic scan touches only the expired ones.
    by_time: BTreeSet<(SimTime, K)>,
}

impl<K: Ord + Copy> HeartbeatMonitor<K> {
    /// Monitor suspecting after `timeout` of silence.
    pub fn new(timeout: SimDuration) -> Self {
        HeartbeatMonitor { timeout, last_seen: BTreeMap::new(), by_time: BTreeSet::new() }
    }

    /// Records any sign of life from `k` at `now` (heartbeats, but also any
    /// application message — connection-less protocols must exploit every
    /// observation).  An observation older than the last one changes
    /// nothing (reordered message).
    pub fn observe(&mut self, k: K, now: SimTime) {
        match self.last_seen.entry(k) {
            Entry::Vacant(e) => {
                e.insert(now);
            }
            Entry::Occupied(mut e) => {
                let prev = *e.get();
                if now <= prev {
                    return;
                }
                e.insert(now);
                self.by_time.remove(&(prev, k));
            }
        }
        self.by_time.insert((now, k));
    }

    /// Stops tracking `k` entirely.
    pub fn forget(&mut self, k: K) {
        if let Some(seen) = self.last_seen.remove(&k) {
            self.by_time.remove(&(seen, k));
        }
    }

    /// Last observation of `k`, if any.
    pub fn last_seen(&self, k: K) -> Option<SimTime> {
        self.last_seen.get(&k).copied()
    }

    /// Every component silent for longer than the timeout at `now`, in
    /// key order.  Unknown components are not suspected (they have not
    /// been entrusted with anything yet).  Cost is one descent plus the
    /// expired prefix and its sort; when nothing is silent the collect is
    /// empty and allocates nothing.
    /// Takes `&mut self` only to keep the signature its callers were
    /// written against.
    pub fn suspects(&mut self, now: SimTime) -> Vec<K> {
        let mut silent: Vec<K> = self
            .by_time
            .iter()
            .take_while(|&&(seen, _)| now.since(seen) > self.timeout)
            .map(|&(_, k)| k)
            .collect();
        silent.sort_unstable();
        silent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: fn(u64) -> SimTime = SimTime::from_secs;

    /// The paper's confined-experiment setting: suspect after 30 s.
    fn monitor<K: Ord + Copy>() -> HeartbeatMonitor<K> {
        HeartbeatMonitor::new(SimDuration::from_secs(30))
    }

    #[test]
    fn fresh_component_not_suspected() {
        let mut m: HeartbeatMonitor<u32> = monitor();
        assert!(m.suspects(S(1000)).is_empty());
        assert_eq!(m.last_seen(1), None);
    }

    #[test]
    fn silence_triggers_suspicion_after_timeout() {
        let mut m = monitor();
        m.observe(7u32, S(0));
        assert!(m.suspects(S(30)).is_empty(), "exactly at timeout: not yet");
        assert_eq!(m.suspects(S(31)), vec![7]);
    }

    #[test]
    fn new_observation_clears_suspicion() {
        let mut m = monitor();
        m.observe(7u32, S(0));
        assert_eq!(m.suspects(S(40)), vec![7]);
        m.observe(7, S(40));
        assert!(m.suspects(S(41)).is_empty());
    }

    #[test]
    fn observations_never_move_backwards() {
        let mut m = monitor();
        m.observe(1u32, S(50));
        m.observe(1, S(10)); // reordered message
        assert_eq!(m.last_seen(1), Some(S(50)));
        assert!(m.suspects(S(60)).is_empty());
    }

    #[test]
    fn forget_removes() {
        let mut m = monitor();
        m.observe(1u32, S(0));
        m.observe(2, S(0));
        m.forget(1);
        assert_eq!(m.last_seen(1), None);
        assert_eq!(m.suspects(S(100)), vec![2]);
        m.forget(2);
        assert!(m.suspects(S(100)).is_empty());
    }

    #[test]
    fn multiple_suspects_in_key_order() {
        let mut m = HeartbeatMonitor::new(SimDuration::from_secs(10));
        m.observe(3u32, S(0));
        m.observe(1, S(5));
        m.observe(4, S(0));
        m.observe(2, S(100));
        assert_eq!(m.suspects(S(50)), vec![1, 3, 4]);
    }

    #[test]
    fn suspicion_survives_repeated_scans_until_reobserved() {
        // A scan consumes nothing: every later scan keeps reporting the
        // silent component, and a fresh beat clears it.
        let mut m = monitor();
        m.observe(5u32, S(0));
        assert_eq!(m.suspects(S(40)), vec![5]);
        assert_eq!(m.suspects(S(41)), vec![5], "still suspect on the next scan");
        m.observe(5, S(42));
        assert!(m.suspects(S(43)).is_empty());
        // Silence again: the new observation expires anew.
        assert_eq!(m.suspects(S(80)), vec![5]);
    }

    #[test]
    fn earlier_probe_after_later_scan_is_consistent() {
        // A scan at t=40 reports the component; probing an earlier instant
        // must not.
        let mut m = monitor();
        m.observe(9u32, S(0));
        assert_eq!(m.suspects(S(40)), vec![9]);
        assert!(m.suspects(S(20)).is_empty());
        assert_eq!(m.suspects(S(40)), vec![9]);
    }

    #[test]
    fn ordered_index_holds_one_entry_per_tracked_key() {
        let mut m = monitor();
        for (k, t) in [(1u32, 5), (2, 5), (1, 5), (1, 9), (3, 2), (1, 7), (2, 3), (3, 2), (2, 8)] {
            m.observe(k, S(t));
        }
        m.forget(3);
        m.observe(3, S(1));
        let index: Vec<(SimTime, u32)> = m.by_time.iter().copied().collect();
        assert_eq!(index, [(S(1), 3), (S(8), 2), (S(9), 1)]);
        assert!(m.last_seen.iter().all(|(&k, &t)| m.by_time.contains(&(t, k))));
    }
}
