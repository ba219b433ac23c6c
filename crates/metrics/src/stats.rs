//! Streaming summary statistics.

use serde::{Deserialize, Serialize};

/// Welford-style running mean with min/max tracking.
///
/// Numerically stable for long runs; O(1) memory. The accumulator also
/// keeps Welford's sum of squared deviations (`m2`), which checkpoints
/// carry through [`raw_parts`](Self::raw_parts).
///
/// # Examples
///
/// ```
/// use dftmsn_metrics::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.sum(), 40.0);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics on non-finite observations — those are always upstream bugs.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite observation {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// The raw accumulator fields `(count, mean, m2, min, max)`, for
    /// checkpointing. `min`/`max` carry their ±∞ empty-state sentinels, so
    /// the tuple must round-trip bit-exactly (serialize floats via
    /// `to_bits`).
    #[must_use]
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Reconstructs an accumulator from [`raw_parts`](Self::raw_parts)
    /// output. No validation beyond NaN rejection: the tuple is trusted to
    /// come from a live accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `mean` or `m2` is NaN — no sequence of finite
    /// observations produces one.
    #[must_use]
    pub fn from_raw_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        assert!(!mean.is_nan() && !m2.is_nan(), "NaN in stats state");
        RunningStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroish() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStats::new();
        s.record(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn matches_naive_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.37 - 12.0).collect();
        let mut s = RunningStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.sum() - xs.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_observations_panic() {
        RunningStats::new().record(f64::NAN);
    }
}
