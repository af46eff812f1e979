//! Virtual-time types.
//!
//! All simulation time is kept in **integer nanoseconds** so that the LogGP
//! parameters of the paper (e.g. `o = 2.9 µs`, `G = 1/38 MB/s`) are exact and
//! every run is bit-for-bit deterministic. Two newtypes keep instants and
//! durations from being confused:
//!
//! * [`SimTime`] — an absolute instant on the virtual clock.
//! * [`SimDelta`] — a span of virtual time.
//!
//! # Examples
//!
//! ```
//! use nowlab_sim::{SimTime, SimDelta};
//!
//! let t = SimTime::ZERO + SimDelta::from_micros(2.9);
//! assert_eq!(t.as_nanos(), 2_900);
//! assert_eq!((t - SimTime::ZERO).as_micros_f64(), 2.9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDelta(u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (time cannot run backwards).
    pub fn since(self, earlier: SimTime) -> SimDelta {
        SimDelta(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is later than `self`"),
        )
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDelta {
        SimDelta(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub(crate) fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDelta {
    /// The empty span.
    pub const ZERO: SimDelta = SimDelta(0);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDelta(nanos)
    }

    /// Creates a span of `micros` microseconds (integer).
    pub const fn from_micros_int(micros: u64) -> Self {
        SimDelta(micros * 1_000)
    }

    /// Creates a span from fractional microseconds, rounded to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is negative or not finite.
    pub fn from_micros(micros: f64) -> Self {
        assert!(
            micros.is_finite() && micros >= 0.0,
            "SimDelta::from_micros: invalid duration {micros}"
        );
        SimDelta((micros * 1_000.0).round() as u64)
    }

    /// Creates a span from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_micros(millis * 1_000.0)
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_micros(secs * 1_000_000.0)
    }

    /// Length of the span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length of the span in microseconds, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Length of the span in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Length of the span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDelta) -> SimDelta {
        SimDelta(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDelta> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDelta) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDelta> for SimTime {
    fn add_assign(&mut self, rhs: SimDelta) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDelta;
    fn sub(self, rhs: SimTime) -> SimDelta {
        self.since(rhs)
    }
}

impl Add for SimDelta {
    type Output = SimDelta;
    fn add(self, rhs: SimDelta) -> SimDelta {
        SimDelta(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDelta {
    fn add_assign(&mut self, rhs: SimDelta) {
        *self = *self + rhs;
    }
}

impl Sub for SimDelta {
    type Output = SimDelta;
    fn sub(self, rhs: SimDelta) -> SimDelta {
        SimDelta(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDelta subtraction underflow"),
        )
    }
}

impl SubAssign for SimDelta {
    fn sub_assign(&mut self, rhs: SimDelta) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDelta {
    type Output = SimDelta;
    fn mul(self, rhs: u64) -> SimDelta {
        SimDelta(self.0.saturating_mul(rhs))
    }
}

impl Mul<SimDelta> for u64 {
    type Output = SimDelta;
    fn mul(self, rhs: SimDelta) -> SimDelta {
        rhs * self
    }
}

impl Div<u64> for SimDelta {
    type Output = SimDelta;
    fn div(self, rhs: u64) -> SimDelta {
        SimDelta(self.0 / rhs)
    }
}

impl Sum for SimDelta {
    fn sum<I: Iterator<Item = SimDelta>>(iter: I) -> Self {
        iter.fold(SimDelta::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDelta({}ns)", self.0)
    }
}

impl fmt::Display for SimDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_round_trip() {
        let d = SimDelta::from_micros(2.9);
        assert_eq!(d.as_nanos(), 2_900);
        assert!((d.as_micros_f64() - 2.9).abs() < 1e-12);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDelta::from_nanos(50);
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!((t1 - t0).as_nanos(), 50);
        assert_eq!(t1.since(t0), SimDelta::from_nanos(50));
    }

    #[test]
    fn saturating_since_clamps() {
        let t0 = SimTime::from_nanos(100);
        let t1 = SimTime::from_nanos(50);
        assert_eq!(t1.saturating_since(t0), SimDelta::ZERO);
    }

    #[test]
    #[should_panic(expected = "later than")]
    fn since_panics_on_backwards_time() {
        let _ = SimTime::from_nanos(1).since(SimTime::from_nanos(2));
    }

    #[test]
    fn delta_scaling() {
        let d = SimDelta::from_micros_int(3);
        assert_eq!((d * 4).as_nanos(), 12_000);
        assert_eq!((d / 3).as_nanos(), 1_000);
        assert_eq!(4 * d, d * 4);
    }

    #[test]
    fn delta_sum() {
        let total: SimDelta = (1..=4).map(SimDelta::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDelta::from_nanos(5);
        let y = SimDelta::from_nanos(9);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimDelta::from_nanos(2_900)), "2.900us");
        assert_eq!(format!("{}", SimTime::from_nanos(1_500)), "1.500us");
    }

    #[test]
    fn from_secs_and_millis() {
        assert_eq!(SimDelta::from_secs(1.0).as_nanos(), 1_000_000_000);
        assert_eq!(SimDelta::from_millis(1.5).as_nanos(), 1_500_000);
    }
}
