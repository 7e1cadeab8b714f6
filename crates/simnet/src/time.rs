//! Virtual time: nanosecond-resolution instants and durations.
//!
//! The simulator runs on virtual time, which is what makes the paper's
//! experiments reproducible "in a confined environment where we have the
//! control of all the platform parameters" (§5.1) — and lets a run that
//! spans hours of grid time finish in milliseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_MICRO: u64 = 1_000;

impl SimTime {
    /// Simulation origin.
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `secs` seconds after the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Instant from fractional seconds after the origin.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * NANOS_PER_SEC as f64) as u64)
    }

    /// Instant `ms` milliseconds after the origin.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Seconds since origin, as a float (for reporting).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration since `earlier`, saturating at zero.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Span from fractional seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * NANOS_PER_SEC as f64) as u64)
    }

    /// Span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time to move `bytes` at `bytes_per_sec` (zero-safe: infinite rate ⇒ 0).
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        if bytes == 0 || bytes_per_sec <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_secs(2).0, 2 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(1500), SimTime::from_secs_f64(1.5));
        assert_eq!(SimDuration::from_micros(1000), SimDuration::from_millis(1));
        assert!((SimTime::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(5);
        assert_eq!(t + d, SimTime::from_secs(15));
        assert_eq!(SimTime::from_secs(15) - t, d);
        // Subtraction saturates rather than panicking: fault-handling code
        // often computes "time since" with reordered observations.
        assert_eq!(t - SimTime::from_secs(20), SimDuration::ZERO);
        assert_eq!(d * 3, SimDuration::from_secs(15));
        assert_eq!(d / 2, SimDuration::from_millis(2500));
    }

    #[test]
    fn for_bytes_transfer_times() {
        // 12.5 MB at 12.5 MB/s = 1 s (the paper's 100 Mbit/s Ethernet).
        let d = SimDuration::for_bytes(12_500_000, 12.5e6);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(SimDuration::for_bytes(0, 12.5e6), SimDuration::ZERO);
        assert_eq!(SimDuration::for_bytes(100, 0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration(500)), "500ns");
        assert!(format!("{}", SimTime::from_secs(1)).contains("1.0"));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
