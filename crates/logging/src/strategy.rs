//! The three logging strategies of the paper (§4.2, Fig. 4).

use rpcv_simnet::{Disk, SimTime};

/// When the disk cost of logging a sent message is paid.
///
/// Quoting the paper:
///
/// > "The first strategy is the optimistic message logging: logging is done
/// > asynchronously, in parallel with the communication.  It is optimistic
/// > because a crash may occur before the completion of logging operation.
/// > The two other strategies are based on pessimistic logging, either
/// > blocking or non-blocking.  The blocking one blocks the beginning of
/// > the communication until logging completion.  The non-blocking one
/// > blocks the end of communication until the completion of the logging
/// > operation."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LogStrategy {
    /// Asynchronous, low-priority background logging.  Zero submission
    /// overhead; a crash can lose the log tail.
    Optimistic,
    /// fsync before the communication begins: +disk time on every
    /// submission, nothing ever lost.
    BlockingPessimistic,
    /// Logging overlaps the communication; the *interaction* completes at
    /// `max(communication end, durability)`.  Default, per the paper's
    /// conclusion ("non blocking pessimistic logging does not increase the
    /// submission time significantly compared to optimistic logging while
    /// potentially allowing a shorter re-submission time").
    #[default]
    NonBlockingPessimistic,
}

impl LogStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [LogStrategy; 3] = [
        LogStrategy::Optimistic,
        LogStrategy::BlockingPessimistic,
        LogStrategy::NonBlockingPessimistic,
    ];

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            LogStrategy::Optimistic => "optimistic",
            LogStrategy::BlockingPessimistic => "blocking-pessimistic",
            LogStrategy::NonBlockingPessimistic => "nonblocking-pessimistic",
        }
    }

    /// Performs the disk write for one log append at `now` and resolves
    /// the strategy's timing semantics.
    pub fn write(&self, disk: &mut Disk, now: SimTime, bytes: u64) -> StrategyOutcome {
        match self {
            LogStrategy::Optimistic | LogStrategy::NonBlockingPessimistic => {
                // Background: the caller proceeds right away; durability
                // arrives whenever the cache drains.  The two differ only at
                // the interaction's end ([`Self::interaction_end`]).
                let out = disk.write_cached(now, bytes);
                StrategyOutcome { comm_may_start_at: now, durable_at: out.durable_at }
            }
            LogStrategy::BlockingPessimistic => {
                let out = disk.write_sync(now, bytes);
                StrategyOutcome { comm_may_start_at: out.durable_at, durable_at: out.durable_at }
            }
        }
    }

    /// When an interaction completes, given its communication's end and
    /// its log write's durability: non-blocking pessimistic logging "blocks
    /// the end of communication until the completion of the logging
    /// operation"; the other two never wait at the end.
    pub fn interaction_end(&self, durable_at: SimTime, comm_end: SimTime) -> SimTime {
        match self {
            LogStrategy::NonBlockingPessimistic => comm_end.max(durable_at),
            LogStrategy::Optimistic | LogStrategy::BlockingPessimistic => comm_end,
        }
    }
}

/// Timing outcome of one strategy-mediated log append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyOutcome {
    /// Earliest instant the communication may begin.
    pub comm_may_start_at: SimTime,
    /// When the entry is durable on disk.
    pub durable_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_simnet::DiskSpec;

    fn disk() -> Disk {
        Disk::new(DiskSpec::default())
    }

    #[test]
    fn optimistic_never_delays() {
        let mut d = disk();
        let now = SimTime::from_secs(1);
        let out = LogStrategy::Optimistic.write(&mut d, now, 10_000_000);
        assert_eq!(out.comm_may_start_at, now);
        assert!(out.durable_at > now);
        // Interaction ends exactly at comm end.
        let comm_end = now + rpcv_simnet::SimDuration::from_secs(1);
        assert_eq!(LogStrategy::Optimistic.interaction_end(out.durable_at, comm_end), comm_end);
    }

    #[test]
    fn blocking_delays_comm_start_until_durable() {
        let mut d = disk();
        let now = SimTime::ZERO;
        let out = LogStrategy::BlockingPessimistic.write(&mut d, now, 10_000_000);
        assert_eq!(out.comm_may_start_at, out.durable_at);
        // 10 MB at 40 MB/s ≈ 0.25 s.
        assert!(out.durable_at.as_secs_f64() > 0.2);
    }

    #[test]
    fn nonblocking_overlaps_but_barriers_the_end() {
        let mut d = disk();
        let now = SimTime::ZERO;
        let nb = LogStrategy::NonBlockingPessimistic;
        let out = nb.write(&mut d, now, 10_000_000);
        assert_eq!(out.comm_may_start_at, now, "communication starts immediately");
        // Fast communication: the barrier dominates.
        let fast_comm = now + rpcv_simnet::SimDuration::from_millis(1);
        assert_eq!(nb.interaction_end(out.durable_at, fast_comm), out.durable_at);
        // Slow communication: the log write hides inside it.
        let slow_comm = now + rpcv_simnet::SimDuration::from_secs(10);
        assert_eq!(nb.interaction_end(out.durable_at, slow_comm), slow_comm);
    }

    #[test]
    fn names_and_classes() {
        assert_eq!(LogStrategy::Optimistic.name(), "optimistic");
        assert_eq!(LogStrategy::ALL.len(), 3);
        assert_eq!(LogStrategy::default(), LogStrategy::NonBlockingPessimistic);
    }

    #[test]
    fn blocking_is_slowest_for_large_payloads() {
        // The ordering the paper's Fig. 4 exhibits.
        let now = SimTime::ZERO;
        let bytes = 50_000_000;
        let mut d1 = disk();
        let opt = LogStrategy::Optimistic.write(&mut d1, now, bytes);
        let mut d2 = disk();
        let blk = LogStrategy::BlockingPessimistic.write(&mut d2, now, bytes);
        let mut d3 = disk();
        let nb = LogStrategy::NonBlockingPessimistic.write(&mut d3, now, bytes);
        let comm_end = now + rpcv_simnet::SimDuration::from_secs(4); // 50MB @ 12.5MB/s
        let t_opt = LogStrategy::Optimistic.interaction_end(opt.durable_at, comm_end);
        let blk_end = comm_end + (blk.comm_may_start_at - now);
        let t_blk = LogStrategy::BlockingPessimistic.interaction_end(blk.durable_at, blk_end);
        let t_nb = LogStrategy::NonBlockingPessimistic.interaction_end(nb.durable_at, comm_end);
        assert!(t_opt <= t_nb);
        assert!(t_nb < t_blk);
    }
}
