//! Property-based tests of the DES kernel: the event queue behaves like a
//! stable priority queue, cancellation is exact, and the RNG's
//! distributions honour their contracts.

use dftmsn_sim::event::{EventQueue, ReferenceEventQueue};
use dftmsn_sim::rng::SimRng;
use dftmsn_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

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

    /// Cancelled events never fire; everything else does, and `len`
    /// agrees at every step.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let tokens: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule_at(SimTime::from_ticks(t), i))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for (i, token) in tokens.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*token));
                prop_assert!(!q.cancel(*token), "double cancel must fail");
                cancelled.insert(i);
            }
        }
        prop_assert_eq!(q.len(), times.len() - cancelled.len());
        let fired: std::collections::HashSet<usize> =
            std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        prop_assert_eq!(fired.len(), times.len() - cancelled.len());
        prop_assert!(fired.is_disjoint(&cancelled));
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

    /// Differential check of the timing wheel against the reference heap
    /// queue: under randomized schedule/cancel/pop/peek workloads — with
    /// delays spanning everything from sub-granule to beyond the wheel
    /// span (overflow heap) — both queues must issue identical tokens,
    /// report identical cancel outcomes, and pop identical
    /// `(time, payload)` sequences.
    #[test]
    fn wheel_matches_reference_heap(
        ops in proptest::collection::vec(
            (0u8..100, any::<u64>(), 0usize..1024),
            0..400,
        ),
    ) {
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut heap: ReferenceEventQueue<usize> = ReferenceEventQueue::new();
        let mut tokens = Vec::new();
        for (i, &(kind, raw, pick)) in ops.iter().enumerate() {
            if kind < 45 {
                // Schedule with a horizon drawn from one of four decades:
                // same granule, low wheel levels, high wheel levels, and
                // past the wheel span (forces the overflow heap).
                let delay = match raw % 4 {
                    0 => raw % 1_000,
                    1 => raw % 10_000_000,
                    2 => raw % 500_000_000_000,
                    _ => raw % 200_000_000_000_000,
                };
                let d = SimDuration::from_ticks(delay);
                let (a, b) = (wheel.schedule_after(d, i), heap.schedule_after(d, i));
                prop_assert_eq!(a, b, "token divergence at op {}", i);
                tokens.push(a);
            } else if kind < 65 {
                if tokens.is_empty() {
                    continue;
                }
                let t = tokens[pick % tokens.len()];
                prop_assert_eq!(wheel.cancel(t), heap.cancel(t), "cancel divergence at op {}", i);
            } else if kind < 90 {
                prop_assert_eq!(wheel.pop(), heap.pop(), "pop divergence at op {}", i);
            } else {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek divergence at op {}", i);
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.now(), heap.now());
        }
        // The checkpoint view lists exactly what a drain pops, in order.
        let listed: Vec<(SimTime, usize)> =
            wheel.pending().into_iter().map(|(t, &e)| (t, e)).collect();
        let mut drained = Vec::new();
        // Drain both to the end.
        loop {
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b, "drain divergence");
            match a {
                Some(popped) => drained.push(popped),
                None => break,
            }
        }
        prop_assert_eq!(listed, drained, "pending() disagrees with the pop order");
        prop_assert_eq!(wheel.popped(), heap.popped());
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
