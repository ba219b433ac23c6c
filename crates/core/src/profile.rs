//! Per-event-kind wall-time profiling for the discrete-event core.
//!
//! [`EventProfile`] is a fixed table of counters the event loop feeds when
//! profiling is enabled ([`crate::world::Simulation::run_profiled`]): one
//! row per event kind holding a pop count, total handler nanoseconds and a
//! coarse power-of-two histogram of per-event cost. The histogram buckets
//! are `[2^b, 2^(b+1))` ns for `b` in `0..HIST_BUCKETS`, which spans 1 ns
//! to ~8 ms — far beyond any single handler — so nothing is ever dropped;
//! the top bucket absorbs outliers.
//!
//! Profiling costs two `Instant::now` calls per event (~40 ns), so the
//! profiled run's *aggregate* wall time is not comparable with an
//! unprofiled baseline; the per-kind *shares* are what the table is for.
//! A disabled profile costs one predictable branch per event.

use std::time::Duration;

/// Power-of-two histogram buckets per kind (1 ns .. ~8 ms).
pub const HIST_BUCKETS: usize = 24;

/// Counters for one event kind.
#[derive(Debug, Clone)]
pub struct KindStats {
    /// Human-readable kind label (e.g. `"Timer:WakeUp"`).
    pub label: &'static str,
    /// Events of this kind dispatched.
    pub count: u64,
    /// Total wall nanoseconds spent in this kind's handler.
    pub total_ns: u128,
    /// `hist[b]` counts events whose handler took `[2^b, 2^(b+1))` ns
    /// (top bucket is open-ended).
    pub hist: [u64; HIST_BUCKETS],
}

impl KindStats {
    /// Mean handler cost in nanoseconds (0 when the kind never fired).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64
    }

    /// Approximate p50 handler cost: the lower edge of the bucket holding
    /// the median sample.
    #[must_use]
    pub fn p50_ns(&self) -> u64 {
        self.quantile_bucket_lo(0.5)
    }

    /// Approximate p99 handler cost (lower edge of the p99 bucket).
    #[must_use]
    pub fn p99_ns(&self) -> u64 {
        self.quantile_bucket_lo(0.99)
    }

    fn quantile_bucket_lo(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (b, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_lo_ns(b);
            }
        }
        bucket_lo_ns(HIST_BUCKETS - 1)
    }
}

/// Lower edge of histogram bucket `b` in nanoseconds.
#[must_use]
pub fn bucket_lo_ns(b: usize) -> u64 {
    1u64 << b
}

/// The per-kind profile of one simulation run.
#[derive(Debug, Clone)]
pub struct EventProfile {
    /// One row per event kind, in the core's dispatch order.
    pub kinds: Vec<KindStats>,
}

impl EventProfile {
    /// An empty profile over the given kind labels.
    #[must_use]
    pub fn new(labels: &[&'static str]) -> Self {
        EventProfile {
            kinds: labels
                .iter()
                .map(|&label| KindStats {
                    label,
                    count: 0,
                    total_ns: 0,
                    hist: [0; HIST_BUCKETS],
                })
                .collect(),
        }
    }

    /// Records one handled event of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is out of range for the label set.
    pub fn record(&mut self, kind: usize, took: Duration) {
        let ns = took.as_nanos();
        let row = &mut self.kinds[kind];
        row.count += 1;
        row.total_ns += ns;
        let bucket = (128 - u128::leading_zeros(ns | 1) - 1).min(HIST_BUCKETS as u32 - 1);
        row.hist[bucket as usize] += 1;
    }

    /// Total events recorded across all kinds.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    /// Total handler nanoseconds recorded across all kinds.
    #[must_use]
    pub fn total_ns(&self) -> u128 {
        self.kinds.iter().map(|k| k.total_ns).sum()
    }

    /// Rows sorted by descending total cost, zero-count kinds dropped.
    #[must_use]
    pub fn by_cost(&self) -> Vec<&KindStats> {
        let mut rows: Vec<&KindStats> = self.kinds.iter().filter(|k| k.count > 0).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_log2_buckets() {
        let mut p = EventProfile::new(&["a", "b"]);
        p.record(0, Duration::from_nanos(1));
        p.record(0, Duration::from_nanos(7));
        p.record(1, Duration::from_nanos(1024));
        assert_eq!(p.kinds[0].count, 2);
        assert_eq!(p.kinds[0].total_ns, 8);
        assert_eq!(p.kinds[0].hist[0], 1); // 1 ns → bucket [1,2)
        assert_eq!(p.kinds[0].hist[2], 1); // 7 ns → bucket [4,8)
        assert_eq!(p.kinds[1].hist[10], 1); // 1024 ns → bucket [1024,2048)
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.total_ns(), 8 + 1024);
    }

    #[test]
    fn zero_duration_lands_in_bottom_bucket() {
        let mut p = EventProfile::new(&["a"]);
        p.record(0, Duration::ZERO);
        assert_eq!(p.kinds[0].hist[0], 1);
        assert_eq!(p.kinds[0].total_ns, 0);
    }

    #[test]
    fn outliers_land_in_top_bucket() {
        let mut p = EventProfile::new(&["a"]);
        p.record(0, Duration::from_secs(1));
        assert_eq!(p.kinds[0].hist[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_walk_the_histogram() {
        let mut p = EventProfile::new(&["a"]);
        for _ in 0..99 {
            p.record(0, Duration::from_nanos(16));
        }
        p.record(0, Duration::from_nanos(100_000));
        assert_eq!(p.kinds[0].p50_ns(), 16);
        assert_eq!(p.kinds[0].p99_ns(), 16);
        let mut q = EventProfile::new(&["a"]);
        for _ in 0..10 {
            q.record(0, Duration::from_nanos(1 << 10));
        }
        assert_eq!(q.kinds[0].p50_ns(), 1 << 10);
    }

    #[test]
    fn by_cost_sorts_and_filters() {
        let mut p = EventProfile::new(&["cheap", "dear", "unused"]);
        p.record(0, Duration::from_nanos(10));
        p.record(1, Duration::from_nanos(10_000));
        let rows = p.by_cost();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "dear");
        assert_eq!(rows[1].label, "cheap");
    }
}
