//! Checkpoint scheduling policies.
//!
//! A checkpoint is pure overhead until the node dies: the policy question
//! is how much overhead to pay against how much re-execution to save.  A
//! fixed interval answers it once for the whole grid; the adaptive policy
//! (after Ni & Harwood, arXiv:0711.3949) answers it per node and per
//! regime — the interval *narrows* while the node's observed mean lifetime
//! is short and *widens* back as it proves stable, so volatile nodes lose
//! little work while stable nodes pay almost nothing.

use rpcv_simnet::SimDuration;

use crate::volatility::VolatilityObserver;

/// The interval-adaptation rule: `interval = lifetime / lifetime_divisor`,
/// clamped to `[min, max]`, where the lifetime estimate combines the
/// node's crash history with its current uptime as a censored lower bound
/// (see [`VolatilityObserver::lifetime_given_uptime`]).  A node therefore
/// *starts cautious* — a fresh incarnation checkpoints near the floor —
/// and widens as it proves stable, without ever needing a crash to learn
/// it is stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveCheckpoint {
    /// Floor: never checkpoint more often than this (bounds the snapshot
    /// and upload overhead on a node in a crash storm).
    pub min: SimDuration,
    /// Ceiling: a proven-stable node converges to one checkpoint per
    /// `max`.
    pub max: SimDuration,
    /// Assumed lifetime for a node with no crash history yet.  Until the
    /// first crash (or until uptime outgrows it), the node behaves as if
    /// it died every `prior` — cautious, but not floor-cautious: a
    /// history-less node must not burn the whole byte budget proving the
    /// obvious on stable hardware.
    pub prior: SimDuration,
    /// How many checkpoints to aim for per observed mean lifetime.  With
    /// divisor `k`, an expected-lifetime-`L` node loses at most `L / k` of
    /// work to a crash on average.
    pub lifetime_divisor: u32,
}

impl AdaptiveCheckpoint {
    /// A broadly useful default: 2 s ≤ interval ≤ 120 s, a 30 s assumed
    /// lifetime until the node shows its real regime, aiming for ~4
    /// checkpoints per expected lifetime.
    pub fn default_grid() -> Self {
        AdaptiveCheckpoint {
            min: SimDuration::from_secs(2),
            max: SimDuration::from_secs(120),
            prior: SimDuration::from_secs(30),
            lifetime_divisor: 4,
        }
    }

    /// The interval this node should use given its volatility history and
    /// its current uptime.
    ///
    /// With crash history, the EWMA governs, censored from below by the
    /// current uptime (a node that has already lived `uptime` is living at
    /// least that long).  With *no* history, the only data is one censored
    /// observation — "survived `uptime` without ever crashing" — which for
    /// any reasonable lifetime prior puts the expected lifetime at a
    /// multiple of the uptime, not at the uptime itself; the node
    /// therefore earns trust (and stops spending checkpoint bytes)
    /// several times faster than a node whose crashes are on record.
    pub fn interval_for(&self, observer: &VolatilityObserver, uptime: SimDuration) -> SimDuration {
        let lifetime = match observer.mean_lifetime() {
            Some(_) => observer.lifetime_given_uptime(uptime),
            None => self.prior.max(uptime * 3),
        };
        let target = lifetime / self.lifetime_divisor.max(1) as u64;
        target.clamp(self.min, self.max)
    }
}

/// When (if ever) a server snapshots its running tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// The paper baseline: no checkpoints; a crashed task re-executes from
    /// unit zero.
    #[default]
    Disabled,
    /// Snapshot every fixed interval, volatility notwithstanding.
    Fixed(SimDuration),
    /// Interval adapted to the node's observed volatility.
    Adaptive(AdaptiveCheckpoint),
}

impl CheckpointPolicy {
    /// The interval to arm next, given the node's volatility history and
    /// current uptime; `None` when checkpointing is off.
    pub fn next_interval(
        &self,
        observer: &VolatilityObserver,
        uptime: SimDuration,
    ) -> Option<SimDuration> {
        match self {
            CheckpointPolicy::Disabled => None,
            CheckpointPolicy::Fixed(d) => Some(*d),
            CheckpointPolicy::Adaptive(a) => Some(a.interval_for(observer, uptime)),
        }
    }

    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            CheckpointPolicy::Disabled => "off",
            CheckpointPolicy::Fixed(_) => "fixed",
            CheckpointPolicy::Adaptive(_) => "adaptive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: fn(u64) -> SimDuration = SimDuration::from_secs;

    #[test]
    fn disabled_never_schedules() {
        let v = VolatilityObserver::new();
        assert_eq!(CheckpointPolicy::Disabled.next_interval(&v, S(10)), None);
    }

    #[test]
    fn fixed_ignores_volatility() {
        let mut v = VolatilityObserver::new();
        let p = CheckpointPolicy::Fixed(S(10));
        assert_eq!(p.next_interval(&v, S(0)), Some(S(10)));
        v.record_crash(S(1));
        assert_eq!(p.next_interval(&v, S(500)), Some(S(10)));
    }

    #[test]
    fn adaptive_starts_at_the_prior_and_earns_trust_with_uptime() {
        let a = AdaptiveCheckpoint::default_grid();
        let v = VolatilityObserver::new();
        assert_eq!(
            a.interval_for(&v, S(0)),
            SimDuration::from_millis(7500),
            "fresh node ⇒ prior / divisor"
        );
        assert_eq!(
            a.interval_for(&v, S(40)),
            S(30),
            "no-crash survival outgrew the prior: 3 × 40 s / 4"
        );
        assert_eq!(a.interval_for(&v, S(4000)), a.max, "proven stable ⇒ ceiling");
        // Real crash history overrides the prior in both directions.
        let mut churny = VolatilityObserver::new();
        churny.record_crash(S(8));
        assert_eq!(a.interval_for(&churny, S(1)), a.min, "8 s lifetime / 4, clamped to floor");
    }

    #[test]
    fn adaptive_narrows_under_churn_and_widens_back() {
        let a = AdaptiveCheckpoint::default_grid();
        let mut v = VolatilityObserver::new();
        // A volatile node (dies every ~20 s) converges to lifetime/divisor.
        for _ in 0..4 {
            v.record_crash(S(20));
        }
        let narrow = a.interval_for(&v, S(3));
        assert_eq!(narrow, S(5), "20 s lifetime / 4 = 5 s interval");
        // A long stable stretch widens the interval back out — with no
        // crash needed: outliving the estimate raises it.
        let wide = a.interval_for(&v, S(4000));
        assert!(wide > narrow);
        assert_eq!(wide, a.max, "stability clamps at the ceiling");
    }

    #[test]
    fn adaptive_clamps_at_the_floor() {
        let a = AdaptiveCheckpoint::default_grid();
        let mut v = VolatilityObserver::new();
        for _ in 0..8 {
            v.record_crash(SimDuration::from_millis(500));
        }
        assert_eq!(a.interval_for(&v, S(0)), a.min, "crash storm clamps at the floor");
    }

    #[test]
    fn policy_names_for_reporting() {
        assert_eq!(CheckpointPolicy::Disabled.name(), "off");
        assert_eq!(CheckpointPolicy::Fixed(S(1)).name(), "fixed");
        assert_eq!(
            CheckpointPolicy::Adaptive(AdaptiveCheckpoint::default_grid()).name(),
            "adaptive"
        );
    }
}
