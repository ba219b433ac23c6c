//! Sampled time series (e.g. queue occupancy or ξ evolution over a run).

use serde::{Deserialize, Serialize};

/// A monotone-time sequence of `(t, value)` samples.
///
/// # Examples
///
/// ```
/// use dftmsn_metrics::timeseries::TimeSeries;
///
/// let mut ts = TimeSeries::new("xi");
/// ts.push(0.0, 0.0);
/// ts.push(10.0, 0.4);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((10.0, 0.4)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    t: Vec<f64>,
    v: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new(name: &str) -> Self {
        TimeSeries {
            name: name.to_owned(),
            t: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous sample or either value is
    /// non-finite.
    pub fn push(&mut self, t: f64, v: f64) {
        assert!(t.is_finite() && v.is_finite(), "non-finite sample");
        if let Some(&last) = self.t.last() {
            assert!(t >= last, "time went backwards: {t} < {last}");
        }
        self.t.push(t);
        self.v.push(v);
    }

    /// Iterates `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.t.iter().copied().zip(self.v.iter().copied())
    }

    /// The last sample, if any.
    #[must_use]
    pub fn last(&self) -> Option<(f64, f64)> {
        Some((*self.t.last()?, *self.v.last()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, 1.0);
        ts.push(1.0, 2.0);
        let all: Vec<_> = ts.iter().collect();
        assert_eq!(all, vec![(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(ts.last(), Some((1.0, 2.0)));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn non_monotone_time_panics() {
        let mut ts = TimeSeries::new("x");
        ts.push(2.0, 0.0);
        ts.push(1.0, 0.0);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut ts = TimeSeries::new("x");
        ts.push(1.0, 0.0);
        ts.push(1.0, 5.0);
        assert_eq!(ts.last(), Some((1.0, 5.0)));
    }
}
