//! Simulation time.
//!
//! Simulation time is a monotonically increasing, discrete quantity measured
//! in integer **microseconds** since the start of the run. Using integers
//! (rather than `f64` seconds) keeps event ordering exact and runs
//! bit-reproducible across platforms.
//!
//! Two newtypes keep instants and spans apart at the type level
//! ([`SimTime`] and [`SimDuration`]); mixing them up is a compile error.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Number of microsecond ticks per simulated second.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulation clock, in microseconds since time zero.
///
/// # Examples
///
/// ```
/// use dftmsn_sim::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(3);
/// assert_eq!(t.as_secs_f64(), 3.0);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time, in microseconds.
///
/// # Examples
///
/// ```
/// use dftmsn_sim::time::SimDuration;
///
/// let d = SimDuration::from_millis(5) * 3;
/// assert_eq!(d, SimDuration::from_micros(15_000));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw microsecond ticks.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Creates an instant `secs` seconds after time zero.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SEC)
    }

    /// Raw microsecond ticks since time zero.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Seconds since time zero, as a float (lossy above ~2^53 µs).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is after `self`, so the
    /// result is always well formed even with out-of-order bookkeeping.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`] instead of wrapping.
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw microsecond ticks.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Creates a duration of `secs` whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * TICKS_PER_SEC)
    }

    /// Creates a duration of `ms` whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration of `us` microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let ticks = (secs * TICKS_PER_SEC as f64).round();
        if ticks >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ticks as u64)
        }
    }

    /// Raw microsecond ticks.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// True when the span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Element-wise maximum of two spans.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Element-wise minimum of two spans.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Clamps the span into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        SimDuration(self.0.clamp(lo.0, hi.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_secs_f64(), 11.5);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(
            SimDuration::from_secs_f64(0.005),
            SimDuration::from_millis(5)
        );
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn clamp_and_minmax() {
        let d = SimDuration::from_secs(5);
        assert_eq!(
            d.clamp(SimDuration::from_secs(1), SimDuration::from_secs(3)),
            SimDuration::from_secs(3)
        );
        assert_eq!(d.max(SimDuration::from_secs(7)), SimDuration::from_secs(7));
        assert_eq!(d.min(SimDuration::from_secs(7)), d);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_sub_panics_on_underflow() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", SimDuration::from_millis(5)).is_empty());
    }
}
