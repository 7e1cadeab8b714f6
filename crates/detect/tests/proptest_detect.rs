//! Property tests for the failure detector: the heartbeat monitor reports
//! exactly the scan definition of suspicion over its observations, after
//! every op.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rpcv_detect::HeartbeatMonitor;
use rpcv_simnet::{SimDuration, SimTime};

const TIMEOUT: SimDuration = SimDuration::from_secs(20);

/// The definition the monitor is held to: every key of the plain map of
/// last observations silent for longer than the timeout at `now`, in key
/// order.
fn scan(model: &BTreeMap<u32, SimTime>, now: SimTime) -> Vec<u32> {
    model.iter().filter(|&(_, &seen)| now.since(seen) > TIMEOUT).map(|(&k, _)| k).collect()
}

proptest! {
    /// Random interleavings over 8 keys of observations (at the clock, at
    /// the key's last instant again, or behind the clock), forgets, and
    /// scans at arbitrary instants (behind the clock too, so earlier than
    /// a previous scan) leave the monitor equal to an ordered map of last
    /// observations: the same `last_seen` for every key, and `suspects`
    /// equal to `scan` at the op's instant, at the clock, on the timeout
    /// boundary of the op's key, and once everything has gone silent.
    #[test]
    fn suspects_match_the_scan_definition(
        ops in proptest::collection::vec(((0u8..6, 0u32..8), 0u8..3, 0u64..10, 0u64..60), 1..160),
    ) {
        let mut mon = HeartbeatMonitor::new(TIMEOUT);
        let mut model: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut clock = 0;
        for ((action, key), when, dt, back) in ops {
            clock += dt;
            let now = SimTime::from_secs(clock);
            let at = match when {
                0 => now,
                1 => model.get(&key).copied().unwrap_or(now),
                _ => SimTime::from_secs(clock.saturating_sub(back)),
            };
            match action {
                0..=2 => {
                    mon.observe(key, at);
                    let seen = model.entry(key).or_insert(at);
                    *seen = (*seen).max(at);
                }
                3 => {
                    mon.forget(key);
                    model.remove(&key);
                }
                _ => prop_assert_eq!(mon.suspects(at), scan(&model, at)),
            }
            for k in 0..8 {
                prop_assert_eq!(mon.last_seen(k), model.get(&k).copied());
            }
            let boundary = model.get(&key).map_or(at, |&seen| seen + TIMEOUT);
            let everything = now + TIMEOUT + SimDuration::from_secs(1);
            for probe in [at, now, boundary, boundary + SimDuration::from_secs(1), everything] {
                prop_assert_eq!(mon.suspects(probe), scan(&model, probe));
            }
        }
    }
}
