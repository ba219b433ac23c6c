//! Order statistics and sweep-schedule accounting.

use std::collections::BTreeMap;

/// Median (mean of the middle pair for an even count); `NaN` when empty.
pub(crate) fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads printed here match the
/// ones computed over whole runs. One sample gives `(x, x)`.
pub(crate) fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub(crate) fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// A run's host time from segmented repetitions: the sum over segments
/// of each segment's fastest repetition. Every repetition does the same
/// deterministic work, so what differs between them is interference from
/// the host, which only adds time; taking each segment's best discards a
/// slow stretch unless it hit that segment in every repetition.
pub(crate) fn segment_best(reps: &[Vec<f64>]) -> f64 {
    let segments = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..segments)
        .map(|k| {
            reps.iter()
                .filter_map(|r| r.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// How a batch of runs shared the sweep's workers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Schedule {
    /// Host latency of each run in ns, indexed like the batch's specs.
    pub(crate) latency_ns: Vec<u64>,
    /// Batch start to its last completion, ns.
    pub(crate) makespan_ns: u64,
    /// Makespan minus the earliest final completion of any worker: how
    /// long the first worker to run dry sat idle at the tail.
    pub(crate) tail_idle_ns: u64,
}

impl Schedule {
    /// Rebuilds per-run latencies from completion stamps taken in the
    /// sweep's completion hook: `(worker, spec index, ns since batch
    /// start)`. A worker runs its specs back to back, so each run began
    /// when that worker's previous run completed (or at the batch start).
    pub(crate) fn from_stamps(runs: usize, stamps: &[(usize, usize, u64)]) -> Schedule {
        let mut by_worker: BTreeMap<usize, Vec<(u64, usize)>> = BTreeMap::new();
        for &(worker, idx, at) in stamps {
            by_worker.entry(worker).or_default().push((at, idx));
        }
        let mut latency_ns = vec![0; runs];
        let mut makespan_ns = 0;
        let mut earliest_last = u64::MAX;
        for done in by_worker.values_mut() {
            done.sort_unstable();
            let mut prev = 0;
            for &(at, idx) in done.iter() {
                latency_ns[idx] = at - prev;
                prev = at;
            }
            makespan_ns = makespan_ns.max(prev);
            earliest_last = earliest_last.min(prev);
        }
        Schedule {
            latency_ns,
            makespan_ns,
            tail_idle_ns: makespan_ns.saturating_sub(earliest_last),
        }
    }

    /// Summed run time over `threads × makespan`.
    pub(crate) fn busy_frac(&self, threads: usize) -> f64 {
        let busy: u64 = self.latency_ns.iter().sum();
        busy as f64 / (threads as f64 * self.makespan_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn segment_bests_ignore_one_slow_stretch() {
        let reps = [
            vec![1.0, 2.0, 3.0],
            vec![1.0, 9.0, 3.0],
            vec![1.2, 2.5, 2.8],
        ];
        assert!((segment_best(&reps) - 5.8).abs() < 1e-12);
        assert_eq!(segment_best(&[vec![0.5, 0.25]]), 0.75);
        // A sweep repetition is one segment: its best batch.
        assert_eq!(segment_best(&[vec![7.0], vec![6.5], vec![8.0]]), 6.5);
        assert_eq!(segment_best(&[]), 0.0);
    }

    #[test]
    fn latencies_rebuild_from_per_worker_stamps() {
        // Worker 0 runs specs 0 then 2; worker 1 runs 1 then 3 then 4.
        let stamps = [(0, 0, 50), (1, 1, 30), (1, 3, 70), (0, 2, 120), (1, 4, 100)];
        let s = Schedule::from_stamps(5, &stamps);
        assert_eq!(s.latency_ns, vec![50, 30, 70, 40, 30]);
        assert_eq!(s.makespan_ns, 120);
        assert_eq!(s.tail_idle_ns, 20);
        assert!((s.busy_frac(2) - 220.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn a_single_worker_is_never_idle() {
        let s = Schedule::from_stamps(2, &[(7, 1, 10), (7, 0, 25)]);
        assert_eq!(s.latency_ns, vec![15, 10]);
        assert_eq!(s.tail_idle_ns, 0);
        assert_eq!(s.busy_frac(1), 1.0);
    }
}
