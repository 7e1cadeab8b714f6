//! The client's pull frontier: which catalogued results to request next.
//!
//! "The client collects the RPC results by pulling the coordinator
//! periodically" (§4.2).  A pull asks for the next window of results the
//! catalog advertises and the client does not hold, skipping those already
//! requested and still inside their re-request horizon.  On a plan dump
//! thousands of requested seqs sit in that backoff at once, and every reply
//! triggers a pull — so the frontier is indexed by *when an entry becomes
//! requestable*, and a pull costs O(window + newly due), not O(outstanding):
//!
//! * **`ready`** — seq-ordered: never requested, or requested and past the
//!   horizon.  A pull takes its window off the front.
//! * **`backoff`** — `(retry_at, seq)`-ordered: requested, not yet due.  A
//!   pull first promotes the prefix with `retry_at < now`.
//!
//! The horizon depends on the advertised size (a large archive legitimately
//! spends transfer time in flight), so a catalog delta that changes a
//! requested entry's size re-keys it; an epoch change that voids all
//! requests flushes `backoff` into `ready`.
//!
//! [`PullFrontier::window_scan`] is the pre-index walk over every
//! outstanding entry, retained as the executable definition (same
//! discipline as `delta_since_scan` next to `delta_since` in `rpcv-store`);
//! `tests/proptest_frontier.rs` holds the two to element-for-element
//! equality.

use std::collections::{BTreeMap, BTreeSet};

use rpcv_simnet::{SimDuration, SimTime};

/// Most results one request asks for.
const WINDOW: usize = 64;
/// Advertised bytes one request may ask for (the entry that crosses the
/// budget is still included).
const WINDOW_BYTES: i64 = 32 * 1024 * 1024;

/// How long a transfer may stay in flight before it is attempted again:
/// the one backoff formula behind the client's result pulls and log
/// replays and the server's archive offers.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Horizon of attempt 0 for a zero-byte transfer.
    pub base: SimDuration,
    /// Bandwidth of the link direction the transfer crosses, bytes/sec.
    pub bw: f64,
}

impl RetryPolicy {
    /// The protocol's policy on a `bw`-bytes/sec NIC: two heartbeats.
    pub(crate) fn of(heartbeat: SimDuration, bw: f64) -> Self {
        RetryPolicy { base: heartbeat * 2, bw: bw.max(1.0) }
    }

    /// Retry horizon after `attempts` tries of a `size`-byte transfer:
    /// exponential in the attempts — capped, since an unreachable
    /// coordinator may restart any moment (volatility is the norm here) —
    /// plus four transfer times.
    pub(crate) fn horizon(&self, attempts: u32, size: u64) -> SimDuration {
        let transfer = SimDuration::from_secs_f64(size as f64 / self.bw);
        self.base * 2u64.saturating_pow(attempts.min(5)) + transfer * 4
    }
}

/// An outstanding request for one result.
#[derive(Debug, Clone, Copy)]
struct Request {
    at: SimTime,
    attempts: u32,
    /// `at + horizon(attempts, size)`: requestable again once `now` is
    /// strictly past it.  The entry's `backoff` key while it waits there.
    retry_at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    request: Option<Request>,
}

/// Catalogued results not held yet, indexed by when each may be requested.
#[derive(Debug, Clone, Default)]
pub struct PullFrontier {
    /// Every outstanding seq with its advertised size and request state —
    /// the ground truth both views below are derived from.
    entries: BTreeMap<u64, Entry>,
    ready: BTreeSet<u64>,
    backoff: BTreeSet<(SimTime, u64)>,
}

impl PullFrontier {
    /// Empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Outstanding seqs.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when `seq` is outstanding.
    pub fn contains(&self, seq: u64) -> bool {
        self.entries.contains_key(&seq)
    }

    /// The catalog advertises `seq` at `size` bytes and the client does not
    /// hold it.  Idempotent; a changed size re-keys a requested entry under
    /// the horizon its new size implies.
    pub fn announce(&mut self, seq: u64, size: u64, policy: RetryPolicy) {
        let Some(entry) = self.entries.get_mut(&seq) else {
            self.entries.insert(seq, Entry { size, request: None });
            self.ready.insert(seq);
            return;
        };
        if entry.size == size {
            return;
        }
        entry.size = size;
        if let Some(req) = entry.request.as_mut() {
            // It waits in exactly one of the two views, depending on
            // whether an earlier pull already promoted it.
            if !self.backoff.remove(&(req.retry_at, seq)) {
                self.ready.remove(&seq);
            }
            req.retry_at = req.at + policy.horizon(req.attempts, size);
            self.backoff.insert((req.retry_at, seq));
        }
    }

    /// `seq` left the frontier: its result arrived, or the catalog withdrew
    /// it.
    pub fn remove(&mut self, seq: u64) {
        let Some(entry) = self.entries.remove(&seq) else { return };
        let waiting = entry.request.is_some_and(|req| self.backoff.remove(&(req.retry_at, seq)));
        if !waiting {
            self.ready.remove(&seq);
        }
    }

    /// Voids every outstanding request (they addressed a coordinator
    /// incarnation that is gone): everything is requestable at once.
    pub fn forget_requests(&mut self) {
        for (_, seq) in std::mem::take(&mut self.backoff) {
            self.ready.insert(seq);
        }
        for entry in self.entries.values_mut() {
            entry.request = None;
        }
    }

    /// The next window to request — the first ≤ 64 requestable seqs, within
    /// the byte budget — recorded as requested at `now`.
    pub fn window(&mut self, now: SimTime, policy: RetryPolicy) -> Vec<u64> {
        while let Some(&(retry_at, seq)) = self.backoff.first() {
            if retry_at >= now {
                break;
            }
            self.backoff.pop_first();
            self.ready.insert(seq);
        }
        let mut budget = WINDOW_BYTES;
        let mut want = Vec::new();
        while want.len() < WINDOW && budget >= 0 {
            let Some(seq) = self.ready.pop_first() else { break };
            let entry = self.entries.get_mut(&seq).expect("ready seqs are outstanding");
            budget -= entry.size as i64;
            let attempts = entry.request.map_or(0, |r| r.attempts) + 1;
            let retry_at = now + policy.horizon(attempts, entry.size);
            entry.request = Some(Request { at: now, attempts, retry_at });
            self.backoff.insert((retry_at, seq));
            want.push(seq);
        }
        want
    }

    /// Walk-everything reference definition of the list [`Self::window`]
    /// returns at `now` (without recording the requests), kept for the
    /// equivalence property test.
    #[doc(hidden)]
    pub fn window_scan(&self, now: SimTime, policy: RetryPolicy) -> Vec<u64> {
        let mut budget = WINDOW_BYTES;
        let mut want = Vec::new();
        for (&seq, entry) in &self.entries {
            if want.len() >= WINDOW || budget < 0 {
                break;
            }
            let allowed = match entry.request {
                None => true,
                Some(req) => now.since(req.at) > policy.horizon(req.attempts, entry.size),
            };
            if allowed {
                budget -= entry.size as i64;
                want.push(seq);
            }
        }
        want
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: RetryPolicy = RetryPolicy { base: SimDuration(10_000_000_000), bw: 12.5e6 };

    #[test]
    fn requested_entries_wait_out_their_horizon() {
        let mut f = PullFrontier::new();
        for seq in 1..=3 {
            f.announce(seq, 100, POLICY);
        }
        let t0 = SimTime::from_secs(1);
        assert_eq!(f.window(t0, POLICY), vec![1, 2, 3]);
        // In flight: nothing to ask for, however often the pull runs.
        assert!(f.window(t0 + SimDuration::from_secs(5), POLICY).is_empty());
        f.remove(2);
        f.announce(4, 100, POLICY);
        assert_eq!(f.window(t0 + SimDuration::from_secs(6), POLICY), vec![4]);
        // First request: horizon = 2 × base (+ a negligible transfer); the
        // comparison is strict.
        let due = t0 + POLICY.horizon(1, 100);
        assert!(f.window(due, POLICY).is_empty());
        assert_eq!(f.window(SimTime(due.0 + 1), POLICY), vec![1, 3]);
        assert!(f.contains(4) && !f.contains(2));
    }

    #[test]
    fn size_change_rekeys_and_epoch_change_flushes() {
        let mut f = PullFrontier::new();
        f.announce(7, 100, POLICY);
        let t0 = SimTime::from_secs(1);
        assert_eq!(f.window(t0, POLICY), vec![7]);
        // Past the small-size horizon it would be due...
        let later = t0 + POLICY.horizon(1, 100) + SimDuration::from_secs(1);
        assert_eq!(f.window_scan(later, POLICY), vec![7]);
        // ...but the catalog now says it is 1 GB: 4 × 80 s of transfer.
        f.announce(7, 1_000_000_000, POLICY);
        assert!(f.window_scan(later, POLICY).is_empty());
        assert!(f.window(later, POLICY).is_empty());
        f.forget_requests();
        assert_eq!(f.window(later, POLICY), vec![7]);
    }
}
