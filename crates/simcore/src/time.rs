//! Virtual time.
//!
//! Simulation time is a monotonically non-decreasing counter of
//! **microseconds** since the start of the run. Microsecond resolution is
//! fine-grained enough to model LAN latencies (tens to hundreds of µs) while
//! keeping all arithmetic exact in `u64` — no floating-point drift, which
//! matters for run-to-run determinism.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Microseconds since simulation start.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Span elapsed since `earlier`. Saturates at zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }

    /// Build an instant from whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }
}

impl SimSpan {
    /// The empty span.
    pub const ZERO: SimSpan = SimSpan(0);
    /// The largest representable span; used as "forever".
    pub const MAX: SimSpan = SimSpan(u64::MAX);

    /// Build a span from whole seconds, saturating at [`SimSpan::MAX`]
    /// like the rest of span arithmetic.
    #[inline]
    pub const fn from_secs(s: u64) -> SimSpan {
        SimSpan(s.saturating_mul(1_000_000))
    }

    /// Build a span from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimSpan {
        SimSpan(ms * 1_000)
    }

    /// Build a span from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimSpan {
        SimSpan(us)
    }

    /// Build a span from fractional seconds, rounding to the nearest
    /// microsecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> SimSpan {
        assert!(
            s.is_finite() && s >= 0.0,
            "span must be finite and >= 0, got {s}"
        );
        SimSpan((s * 1e6).round() as u64)
    }

    /// Whole microseconds in this span.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This span in seconds, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimSpan> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimSpan {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimSpan {
    #[inline]
    fn sub_assign(&mut self, rhs: SimSpan) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}µs", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimSpan::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimSpan::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimSpan::from_micros(7).as_micros(), 7);
        assert_eq!(SimTime::from_secs(5).as_micros(), 5_000_000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimSpan::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimSpan::from_secs_f64(1.5).as_micros(), 1_500_000);
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = SimSpan::from_secs_f64(-1.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let s = SimSpan::from_secs(3);
        assert_eq!((t + s).as_micros(), 13_000_000);
        assert_eq!((t - s).as_micros(), 7_000_000);
        assert_eq!((t + s) - t, s);
        // Saturation at zero.
        assert_eq!(SimTime::ZERO - s, SimTime::ZERO);
        assert_eq!(SimTime::ZERO.since(t), SimSpan::ZERO);
    }

    #[test]
    fn span_arithmetic_saturates() {
        assert_eq!(SimSpan::MAX + SimSpan::from_secs(1), SimSpan::MAX);
        assert_eq!(SimSpan::ZERO - SimSpan::from_secs(1), SimSpan::ZERO);
        assert_eq!(SimSpan::from_secs(4) / 2, SimSpan::from_secs(2));
        assert_eq!(SimSpan::from_secs(4) * 2, SimSpan::from_secs(8));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(format!("{}", SimSpan::from_micros(500)), "500µs");
        assert_eq!(format!("{}", SimSpan::from_millis(2)), "2.00ms");
        assert_eq!(format!("{}", SimSpan::from_secs(2)), "2.000s");
    }
}
