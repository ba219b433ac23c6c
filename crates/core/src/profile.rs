//! Per-event-kind wall-time profiling for the discrete-event core.
//!
//! [`EventProfile`] is a fixed table of counters the event loop feeds when
//! profiling is enabled ([`crate::world::Simulation::run_profiled`]): one
//! row per event kind holding a pop count and total handler nanoseconds.
//! The repo benchmark's traced pass maps these rows onto layers.
//!
//! Profiling costs two `Instant::now` calls per event (~40 ns), so the
//! profiled run's *aggregate* wall time is not comparable with an
//! unprofiled baseline; the per-kind *shares* are what the table is for.
//! A disabled profile costs one predictable branch per event.

use std::time::Duration;

/// Counters for one event kind.
#[derive(Debug, Clone)]
pub struct KindStats {
    /// Human-readable kind label (e.g. `"Timer:WakeUp"`).
    pub label: &'static str,
    /// Events of this kind dispatched.
    pub count: u64,
    /// Total wall nanoseconds spent in this kind's handler.
    pub total_ns: u128,
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
        let row = &mut self.kinds[kind];
        row.count += 1;
        row.total_ns += took.as_nanos();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_and_nanoseconds_per_kind() {
        let mut p = EventProfile::new(&["a", "b"]);
        p.record(0, Duration::from_nanos(1));
        p.record(0, Duration::from_nanos(7));
        p.record(1, Duration::from_nanos(1024));
        assert_eq!(p.kinds[0].count, 2);
        assert_eq!(p.kinds[0].total_ns, 8);
        assert_eq!(p.kinds[1].count, 1);
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.total_ns(), 8 + 1024);
    }
}
