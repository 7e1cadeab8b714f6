//! Protocol configuration knobs.

use rpcv_ckpt::CheckpointPolicy;
use rpcv_log::LogStrategy;
use rpcv_simnet::SimDuration;

/// All protocol timing/policy knobs with the paper's defaults.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Heartbeat period (paper confined setting: 5 s).
    pub heartbeat: SimDuration,
    /// Suspicion timeout: silence longer than this ⇒ suspect (paper: 30 s).
    pub suspicion: SimDuration,
    /// Coordinator replication period (confined: per heartbeat; real-life
    /// experiments: 60 s).
    pub replication_period: SimDuration,
    /// How long a suspected coordinator stays out of the preferred list
    /// before being retried.
    pub coord_retry: SimDuration,
    /// Client logging strategy (Fig. 4).
    pub log_strategy: LogStrategy,
    /// How long a replicated-finished job may lack its archive before the
    /// coordinator schedules a re-execution (at-least-once recovery).
    pub missing_archive_timeout: SimDuration,
    /// EXTENSION (paper §6 future work): the server task-checkpointing
    /// policy.  When enabled, servers snapshot running tasks (fixed
    /// interval, or adapted to the node's observed volatility), upload the
    /// snapshots to the coordinator as digest-verified frames, and a
    /// successor instance — on *any* server — resumes from the last
    /// durable unit instead of unit zero.
    pub checkpoint: CheckpointPolicy,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            heartbeat: SimDuration::from_secs(5),
            suspicion: SimDuration::from_secs(30),
            replication_period: SimDuration::from_secs(5),
            coord_retry: SimDuration::from_secs(60),
            log_strategy: LogStrategy::NonBlockingPessimistic,
            missing_archive_timeout: SimDuration::from_secs(60),
            checkpoint: CheckpointPolicy::Disabled,
        }
    }
}

impl ProtocolConfig {
    /// The confined-cluster configuration of §5.1.
    pub fn confined() -> Self {
        Self::default()
    }

    /// The real-life Internet configuration of §5.2 (replication every
    /// 60 s).
    pub fn real_life() -> Self {
        ProtocolConfig { replication_period: SimDuration::from_secs(60), ..Self::default() }
    }

    /// Builder: logging strategy.
    pub fn with_log_strategy(mut self, s: LogStrategy) -> Self {
        self.log_strategy = s;
        self
    }

    /// Builder: heartbeat period.
    pub fn with_heartbeat(mut self, d: SimDuration) -> Self {
        self.heartbeat = d;
        self
    }

    /// Builder: suspicion timeout.
    pub fn with_suspicion(mut self, d: SimDuration) -> Self {
        self.suspicion = d;
        self
    }

    /// Builder: replication period.
    pub fn with_replication_period(mut self, d: SimDuration) -> Self {
        self.replication_period = d;
        self
    }

    /// Builder: fixed-interval server checkpointing (extension) —
    /// shorthand for `with_checkpoint_policy(CheckpointPolicy::Fixed(_))`.
    pub fn with_checkpointing(mut self, interval: SimDuration) -> Self {
        self.checkpoint = CheckpointPolicy::Fixed(interval);
        self
    }

    /// Builder: full checkpoint policy (extension).
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ProtocolConfig::confined();
        assert_eq!(c.heartbeat, SimDuration::from_secs(5));
        assert_eq!(c.suspicion, SimDuration::from_secs(30));
        assert_eq!(c.log_strategy, LogStrategy::NonBlockingPessimistic);
        assert_eq!(ProtocolConfig::real_life().replication_period, SimDuration::from_secs(60));
    }

    #[test]
    fn builders() {
        let c = ProtocolConfig::confined()
            .with_heartbeat(SimDuration::from_secs(1))
            .with_suspicion(SimDuration::from_secs(7))
            .with_replication_period(SimDuration::from_secs(9))
            .with_log_strategy(LogStrategy::Optimistic)
            .with_checkpointing(SimDuration::from_secs(20));
        assert_eq!(c.heartbeat, SimDuration::from_secs(1));
        assert_eq!(c.suspicion, SimDuration::from_secs(7));
        assert_eq!(c.replication_period, SimDuration::from_secs(9));
        assert_eq!(c.log_strategy, LogStrategy::Optimistic);
        assert_eq!(c.checkpoint, CheckpointPolicy::Fixed(SimDuration::from_secs(20)));
        let adaptive = rpcv_ckpt::AdaptiveCheckpoint::default_grid();
        let c = c.with_checkpoint_policy(CheckpointPolicy::Adaptive(adaptive));
        assert_eq!(c.checkpoint, CheckpointPolicy::Adaptive(adaptive));
        assert_eq!(ProtocolConfig::confined().checkpoint, CheckpointPolicy::Disabled);
    }
}
