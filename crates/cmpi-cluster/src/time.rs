//! Virtual time.
//!
//! Every MPI rank in the simulation owns a logical clock expressed as a
//! [`SimTime`]. Channel operations advance the clock through the cost model;
//! messages carry availability timestamps so causality propagates between
//! ranks exactly like wall-clock time would on real hardware, but fully
//! deterministically.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp (nanoseconds since job
/// start) and as a duration; the arithmetic provided covers both uses.
/// Using integer nanoseconds keeps every computation exactly reproducible
/// across platforms — no floating-point accumulation drift.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero timestamp (job start).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds as a raw integer.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (for reporting; never used in accounting).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds as a float (for reporting; never used in accounting).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds as a float (for reporting; never used in accounting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two timestamps.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Saturating subtraction — the difference of two timestamps, clamped
    /// at zero when `other` is later than `self`.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// `true` when the timestamp is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimTime {
        /// Construct from seconds.
        const fn from_secs(s: u64) -> Self {
            SimTime(s * 1_000_000_000)
        }
    }

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_ns(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!((a + b).as_ns(), 140);
        assert_eq!((a - b).as_ns(), 60);
        assert_eq!((a * 3).as_ns(), 300);
        assert_eq!((a / 4).as_ns(), 25);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn float_views_are_consistent() {
        let t = SimTime::from_ns(1_500);
        assert!((t.as_us_f64() - 1.5).abs() < 1e-12);
        let t = SimTime::from_ns(2_500_000);
        assert!((t.as_ms_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_ns(1_200)), "1.200us");
        assert_eq!(format!("{}", SimTime::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(4)), "4.000s");
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
    }
}
