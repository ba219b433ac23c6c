//! Property-based tests of the DES kernel: the event queue behaves like a
//! stable priority queue and matches a binary-heap oracle, and the RNG's
//! distributions honour their contracts.

use dftmsn_sim::event::EventQueue;
use dftmsn_sim::rng::SimRng;
use dftmsn_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The ordering oracle for the timing wheel: a binary heap on
/// `(time, seq)`, the queue the wheel replaced.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl HeapQueue {
    fn schedule_at(&mut self, at: SimTime, payload: usize) {
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let Reverse((at, _, payload)) = self.heap.pop()?;
        self.now = at;
        self.popped += 1;
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The wheel's pending events as `for_each_pending` lists them.
fn listed(q: &EventQueue<usize>) -> Vec<(SimTime, usize)> {
    let mut out = Vec::new();
    q.for_each_pending(|at, &e| out.push((at, e)));
    out
}

proptest! {
    /// Popping replays events in (time, insertion) order — exactly a
    /// stable sort of the schedule.
    #[test]
    fn queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..10_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ticks(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.ticks(), i))).collect();
        prop_assert_eq!(popped, expected);
    }

    /// `schedule_after` always lands relative to the current clock.
    #[test]
    fn relative_scheduling_tracks_now(delays in proptest::collection::vec(1u64..1_000, 1..50)) {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_ticks(delays[0]), 0usize);
        let mut expected = delays[0];
        let (t, _) = q.pop().unwrap();
        prop_assert_eq!(t.ticks(), expected);
        for (i, &d) in delays.iter().enumerate().skip(1) {
            q.schedule_after(SimDuration::from_ticks(d), i);
            expected += d;
            let (t, _) = q.pop().unwrap();
            prop_assert_eq!(t.ticks(), expected);
        }
    }

    /// Forked streams are reproducible and (statistically) independent of
    /// sibling order.
    #[test]
    fn forks_depend_only_on_stream_id(seed in any::<u64>(), stream in 0u64..1_000) {
        let root = SimRng::seed_from(seed);
        let mut a = root.fork(stream);
        let mut b = root.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// gen_range_inclusive covers its bounds and nothing else.
    #[test]
    fn inclusive_range_is_tight(seed in any::<u64>(), lo in 0u64..100, span in 0u64..20) {
        let hi = lo + span;
        let mut rng = SimRng::seed_from(seed);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let v = rng.gen_range_inclusive(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
            seen_lo |= v == lo;
            seen_hi |= v == hi;
        }
        if span < 10 {
            prop_assert!(seen_lo && seen_hi, "bounds never drawn over 2000 samples");
        }
    }

    /// Exponential draws are positive and have a plausible mean.
    #[test]
    fn exponential_mean_is_plausible(seed in any::<u64>(), mean in 1.0f64..1_000.0) {
        let mut rng = SimRng::seed_from(seed);
        let n = 4_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.gen_exp(mean);
            prop_assert!(x >= 0.0);
            sum += x;
        }
        let sample_mean = sum / n as f64;
        // Standard error is mean/sqrt(n); allow 6 sigma.
        prop_assert!(
            (sample_mean - mean).abs() < 6.0 * mean / (n as f64).sqrt(),
            "sample mean {sample_mean} vs {mean}"
        );
    }

    /// Differential check of the timing wheel against the binary-heap
    /// oracle: under randomized schedule/pop/peek workloads — with delays
    /// spanning everything from sub-granule to beyond the wheel span
    /// (overflow heap), same-instant ties, and checkpoint round trips that
    /// swap the wheel for its restored twin mid-run — both queues must pop
    /// identical `(time, payload)` sequences.
    #[test]
    fn wheel_matches_reference_heap(
        ops in proptest::collection::vec((0u8..100, any::<u64>()), 0..400),
    ) {
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut heap = HeapQueue::default();
        let mut last_at = SimTime::ZERO;
        for (i, &(kind, raw)) in ops.iter().enumerate() {
            if kind < 60 {
                let at = if kind < 48 {
                    // A horizon drawn from one of four decades: same
                    // granule, low wheel levels, high wheel levels, and
                    // past the wheel span (forces the overflow heap).
                    let delay = match raw % 4 {
                        0 => raw % 1_000,
                        1 => raw % 10_000_000,
                        2 => raw % 500_000_000_000,
                        _ => raw % 200_000_000_000_000,
                    };
                    wheel.now() + SimDuration::from_ticks(delay)
                } else {
                    // A tie with the latest instant scheduled so far.
                    last_at.max(wheel.now())
                };
                wheel.schedule_at(at, i);
                heap.schedule_at(at, i);
                last_at = at;
            } else if kind < 85 {
                prop_assert_eq!(wheel.pop(), heap.pop(), "pop divergence at op {}", i);
            } else if kind < 95 {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek divergence at op {}", i);
            } else {
                // Checkpoint round trip: from here on the restored twin
                // must serve exactly what the original would have.
                let mut twin = EventQueue::restore(wheel.now(), wheel.popped());
                for (at, e) in listed(&wheel) {
                    twin.schedule_at(at, e);
                }
                wheel = twin;
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.now(), heap.now);
        }
        // The checkpoint view lists exactly what a drain pops, in order.
        let pending = listed(&wheel);
        let mut drained = Vec::new();
        loop {
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b, "drain divergence");
            match a {
                Some(popped) => drained.push(popped),
                None => break,
            }
        }
        prop_assert_eq!(pending, drained, "for_each_pending disagrees with the pop order");
        prop_assert_eq!(wheel.popped(), heap.popped);
    }

    /// Time arithmetic round-trips.
    #[test]
    fn time_arithmetic_roundtrips(base in 0u64..1_000_000, delta in 0u64..1_000_000) {
        let t = SimTime::from_ticks(base);
        let d = SimDuration::from_ticks(delta);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }
}
