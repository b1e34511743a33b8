//! Virtual time: u64 nanoseconds since simulation start.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Nanoseconds since start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start, as f64 (for reporting only — the simulator
    /// itself never uses floating point for time).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` onto a link of `rate_bps` bits/second,
    /// rounded up to the next nanosecond so back-to-back packets never
    /// overlap.
    pub fn serialization(bytes: usize, rate_bps: u64) -> Time {
        assert!(rate_bps > 0, "link rate must be positive");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(rate_bps as u128);
        Time(ns as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("time went backwards"))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(Time::from_secs(1), Time(1_000_000_000));
        assert_eq!(Time::from_millis(2), Time(2_000_000));
        assert_eq!(Time::from_micros(3), Time(3_000));
    }

    #[test]
    fn serialization_time_10g() {
        // 1500B at 10 Gbps = 1.2 us
        let t = Time::serialization(1500, 10_000_000_000);
        assert_eq!(t.as_nanos(), 1200);
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s → rounds up
        let t = Time::serialization(1, 3);
        assert_eq!(t.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn display_units() {
        assert_eq!(Time(5).to_string(), "5ns");
        assert_eq!(Time(1_500).to_string(), "1.500us");
        assert_eq!(Time(2_500_000).to_string(), "2.500ms");
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn sub_underflow_panics() {
        let _ = Time(1) - Time(2);
    }
}
