//! Timeout-based suspicion over observed heartbeats.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use rpcv_simnet::{SimDuration, SimTime};

/// Timeout-based suspicion over observed heartbeats, keyed by `K`.
///
/// "When an 'heart beat' signal is timed out, we assume (maybe wrongly) a
/// failure, whatever is the reason: either a crash, a network failure or an
/// intermittent congestion" (§4.2).  Wrong suspicion is a feature of the
/// model, not a bug — the protocol must stay correct under it.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor<K: Ord + Copy> {
    timeout: SimDuration,
    last_seen: BTreeMap<K, SimTime>,
    /// Deadline min-heap (lazy): every observation pushes its expiry
    /// instant; the periodic scan pops only entries whose deadline passed
    /// instead of walking every tracked component.  Entries made stale by
    /// a newer observation are discarded on pop.
    deadlines: BinaryHeap<Reverse<(SimTime, K)>>,
    /// Components whose current deadline has been popped as expired.
    /// Membership persists until a fresh observation (or `forget`), so
    /// repeated scans keep reporting an expired component.
    suspected: BTreeSet<K>,
}

impl<K: Ord + Copy> HeartbeatMonitor<K> {
    /// Monitor suspecting after `timeout` of silence.
    pub fn new(timeout: SimDuration) -> Self {
        HeartbeatMonitor {
            timeout,
            last_seen: BTreeMap::new(),
            deadlines: BinaryHeap::new(),
            suspected: BTreeSet::new(),
        }
    }

    /// Records any sign of life from `k` at `now` (heartbeats, but also any
    /// application message — connection-less protocols must exploit every
    /// observation).
    pub fn observe(&mut self, k: K, now: SimTime) {
        let e = self.last_seen.entry(k).or_insert(now);
        if now < *e {
            return; // reordered observation: nothing moved
        }
        *e = now;
        self.suspected.remove(&k);
        self.deadlines.push(Reverse((now + self.timeout, k)));
    }

    /// Stops tracking `k` entirely.
    pub fn forget(&mut self, k: K) {
        self.last_seen.remove(&k);
        self.suspected.remove(&k);
        // Stale heap entries for `k` are discarded lazily on pop.
    }

    /// Last observation of `k`, if any.
    pub fn last_seen(&self, k: K) -> Option<SimTime> {
        self.last_seen.get(&k).copied()
    }

    /// Whether `k` is currently suspected.  Unknown components are not
    /// suspected (they have not been entrusted with anything yet).
    pub fn is_suspect(&self, k: K, now: SimTime) -> bool {
        match self.last_seen.get(&k) {
            Some(&t) => now.since(t) > self.timeout,
            None => false,
        }
    }

    /// Pops every deadline that expired by `now` into the suspected set;
    /// entries invalidated by a newer observation are discarded.  Cost is
    /// O(expired · log n) — the periodic scan no longer touches live
    /// components at all.
    fn advance(&mut self, now: SimTime) {
        while let Some(&Reverse((deadline, k))) = self.deadlines.peek() {
            if deadline >= now {
                break;
            }
            self.deadlines.pop();
            if let Some(&seen) = self.last_seen.get(&k) {
                if seen + self.timeout == deadline {
                    self.suspected.insert(k);
                }
            }
        }
    }

    /// All currently suspected components, in key order.
    pub fn suspects(&mut self, now: SimTime) -> Vec<K> {
        self.advance(now);
        if self.suspected.is_empty() {
            return Vec::new();
        }
        // The filter guards against a caller probing an earlier `now`
        // than a previous scan (set membership only advances).
        self.suspected.iter().copied().filter(|&k| self.is_suspect(k, now)).collect()
    }

    /// Number of tracked components.
    pub fn len(&self) -> usize {
        self.last_seen.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.last_seen.is_empty()
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
        assert!(!m.is_suspect(1, S(1000)));
        assert!(m.suspects(S(1000)).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn silence_triggers_suspicion_after_timeout() {
        let mut m = monitor();
        m.observe(7u32, S(0));
        assert!(!m.is_suspect(7, S(30)), "exactly at timeout: not yet");
        assert!(m.is_suspect(7, S(31)));
        assert_eq!(m.suspects(S(31)), vec![7]);
    }

    #[test]
    fn new_observation_clears_suspicion() {
        let mut m = monitor();
        m.observe(7u32, S(0));
        assert!(m.is_suspect(7, S(40)));
        m.observe(7, S(40));
        assert!(!m.is_suspect(7, S(41)));
    }

    #[test]
    fn observations_never_move_backwards() {
        let mut m = monitor();
        m.observe(1u32, S(50));
        m.observe(1, S(10)); // reordered message
        assert_eq!(m.last_seen(1), Some(S(50)));
    }

    #[test]
    fn forget_removes() {
        let mut m = monitor();
        m.observe(1u32, S(0));
        m.observe(2, S(0));
        m.forget(1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.suspects(S(100)), vec![2]);
    }

    #[test]
    fn multiple_suspects_in_key_order() {
        let mut m = HeartbeatMonitor::new(SimDuration::from_secs(10));
        m.observe(3u32, S(0));
        m.observe(1, S(0));
        m.observe(2, S(100));
        assert_eq!(m.suspects(S(50)), vec![1, 3]);
    }

    #[test]
    fn suspicion_survives_repeated_scans_until_reobserved() {
        // The heap pops a deadline only once; the suspected set must keep
        // reporting it across scans, and a fresh beat must clear it.
        let mut m = monitor();
        m.observe(5u32, S(0));
        assert_eq!(m.suspects(S(40)), vec![5]);
        assert_eq!(m.suspects(S(41)), vec![5], "still suspect on the next scan");
        m.observe(5, S(42));
        assert!(m.suspects(S(43)).is_empty());
        // Silence again: the new deadline expires anew.
        assert_eq!(m.suspects(S(80)), vec![5]);
    }

    #[test]
    fn earlier_probe_after_later_scan_is_consistent() {
        // A scan at t=40 marks the component; probing an earlier instant
        // must not report it (set membership is filtered by `now`).
        let mut m = monitor();
        m.observe(9u32, S(0));
        assert_eq!(m.suspects(S(40)), vec![9]);
        assert!(m.suspects(S(20)).is_empty());
        assert_eq!(m.suspects(S(40)), vec![9]);
    }
}
