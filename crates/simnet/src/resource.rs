//! Serializing resources: NICs, database engines, CPUs.
//!
//! Each host resource processes work strictly in arrival order at a fixed
//! rate; an operation issued at `now` starts when the resource frees up and
//! occupies it for the operation's service time.  This "busy-until" model is
//! the standard single-server queue abstraction used by network simulators
//! and is what produces the contention effects the paper measures (e.g. the
//! coordinator's database serializing replication writes in Fig. 5).

use crate::time::{SimDuration, SimTime};

/// A FIFO, rate-1 serializing resource.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    available_at: SimTime,
    busy_total: SimDuration,
}

/// Interval an operation occupies a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// When the operation actually began (>= issue time).
    pub start: SimTime,
    /// When the operation completes.
    pub end: SimTime,
}

impl Resource {
    /// Fresh, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an operation of length `service` issued at `now`.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Occupancy {
        let start = self.available_at.max(now);
        let end = start + service;
        self.available_at = end;
        self.busy_total += service;
        Occupancy { start, end }
    }

    /// Total service time ever queued (utilization accounting).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Drops all queued work (crash semantics: in-flight operations die
    /// with the process; the durable effects of *completed* operations are
    /// the caller's concern).
    pub fn reset(&mut self, now: SimTime) {
        self.available_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: fn(u64) -> SimTime = SimTime::from_secs;
    const D: fn(u64) -> SimDuration = SimDuration::from_secs;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new();
        let occ = r.acquire(S(5), D(2));
        assert_eq!(occ.start, S(5));
        assert_eq!(occ.end, S(7));
    }

    #[test]
    fn back_to_back_operations_queue() {
        let mut r = Resource::new();
        let a = r.acquire(S(0), D(3));
        let b = r.acquire(S(1), D(2)); // issued while busy
        assert_eq!(a.end, S(3));
        assert_eq!(b.start, S(3));
        assert_eq!(b.end, S(5));
        assert_eq!(r.busy_total(), D(5));
    }

    #[test]
    fn gap_leaves_idle_time() {
        let mut r = Resource::new();
        r.acquire(S(0), D(1));
        let b = r.acquire(S(10), D(1));
        assert_eq!(b.start, S(10));
        assert!(r.clone().acquire(S(10), D(1)).start > S(10), "busy at 10");
        assert_eq!(r.acquire(S(12), D(1)).start, S(12), "idle at 12");
    }

    #[test]
    fn reset_clears_backlog() {
        let mut r = Resource::new();
        r.acquire(S(0), D(100));
        r.reset(S(5));
        let occ = r.acquire(S(5), D(1));
        assert_eq!(occ.start, S(5));
    }

    #[test]
    fn zero_service_is_instant() {
        let mut r = Resource::new();
        let occ = r.acquire(S(1), SimDuration::ZERO);
        assert_eq!(occ.start, occ.end);
    }
}
