//! Property-based tests of the protocol's core invariants (Eqs. 1–14 and
//! the queue discipline), run on arbitrary inputs via proptest.

use dftmsn::core::contention::{
    cts_collision_probability, grab_probability, optimize_cts_window, optimize_tau_max,
    rts_collision_probability, sigma,
};
use dftmsn::core::delivery::DeliveryProb;
use dftmsn::core::ftd::Ftd;
use dftmsn::core::message::{Message, MessageId};
use dftmsn::core::neighbor::{select_receivers, Candidate};
use dftmsn::core::params::ProtocolParams;
use dftmsn::core::queue::FtdQueue;
use dftmsn::core::sleep::SleepController;
use dftmsn::radio::ids::NodeId;
use dftmsn::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

fn prob() -> impl Strategy<Value = f64> {
    (0u32..=1000).prop_map(|x| x as f64 / 1000.0)
}

/// Like [`prob`], but heavily over-samples the boundaries where the
/// protocol math degenerates: exactly 0, exactly 1, and one-ulp
/// neighbours of both.
fn prob_extreme() -> impl Strategy<Value = f64> {
    (0u32..=1040).prop_map(|x| match x {
        1001..=1010 => 0.0,
        1011..=1020 => 1.0,
        1021..=1030 => f64::EPSILON,
        1031..=1040 => 1.0 - f64::EPSILON,
        x => x as f64 / 1000.0,
    })
}

/// Contender σ vectors for Eq. 12: up to 16 contenders with σ in 1..=64,
/// and in three of four cases a forced tie: one σ copied onto another, a
/// pair pinned to σ = 1, or a second copy of the minimum. Ties decide
/// where the kernel's exact-zero tail starts.
fn contender_sigmas() -> impl Strategy<Value = Vec<u64>> {
    (
        proptest::collection::vec(1u64..=64, 1..=16),
        any::<usize>(),
        any::<usize>(),
        0u8..4,
    )
        .prop_map(|(mut sigmas, a, b, tie)| {
            let n = sigmas.len();
            let (a, b) = (a % n, b % n);
            match tie {
                0 => {}
                1 => sigmas[b] = sigmas[a],
                2 => {
                    sigmas[a] = 1;
                    sigmas[b] = 1;
                }
                _ => sigmas[b] = *sigmas.iter().min().expect("non-empty"),
            }
            sigmas
        })
}

/// Delivery probabilities of an Eq. 13 neighbourhood: up to 16
/// contenders, ξ = 0 and ξ = 1 over-sampled, and one value always copied
/// onto another so exact repeats are common.
fn contender_xis() -> impl Strategy<Value = Vec<f64>> {
    (
        proptest::collection::vec(prob_extreme(), 1..=16),
        any::<usize>(),
        any::<usize>(),
    )
        .prop_map(|(mut xis, a, b)| {
            let n = xis.len();
            xis[b % n] = xis[a % n];
            xis
        })
}

/// The per-contender reference for Eq. 12: `1 − Σᵢ grab_probability`,
/// summed in index order.
fn reference_gamma(sigmas: &[u64]) -> f64 {
    if sigmas.len() <= 1 {
        return 0.0;
    }
    let total: f64 = (0..sigmas.len()).map(|i| grab_probability(sigmas, i)).sum();
    (1.0 - total).clamp(0.0, 1.0)
}

/// The reference for Eq. 13: a plain scan of `1..=cap` over
/// [`reference_gamma`].
fn reference_tau_max(xis: &[f64], target: f64, cap: u64) -> u64 {
    (1..=cap)
        .find(|&tau_max| {
            let sigmas: Vec<u64> = xis.iter().map(|&x| sigma(x, tau_max)).collect();
            reference_gamma(&sigmas) <= target
        })
        .unwrap_or(cap)
}

/// Eq. 13 at exact ties, which the certified test leaves to the kernel:
/// two contenders collide with probability exactly 1/σ_max, and three of
/// equal σ = s with probability exactly (3s − 1)/(2s²). With the target on
/// that value the kernel's last bits decide, and over these cases they
/// decide both ways, so a fallback that guessed either answer would miss
/// the reference.
#[test]
fn near_ties_match_the_reference() {
    let (mut passed, mut failed) = (0, 0);
    for s in 1..=64u64 {
        let pair = 1.0 / s as f64;
        let triple = (3 * s - 1) as f64 / (2 * s * s) as f64;
        let cases: [(&[f64], f64); 4] = [
            (&[1.0, 1.0], pair),
            (&[0.5, 0.5], pair),
            (&[0.25, 1.0], pair),
            (&[1.0, 1.0, 1.0], triple),
        ];
        for (xis, target) in cases {
            let best = optimize_tau_max(xis, target, 128);
            assert_eq!(
                best,
                reference_tau_max(xis, target, 128),
                "ξ = {xis:?}, H = {target}"
            );
        }
        if rts_collision_probability(&[s, s]) <= pair {
            passed += 1;
        } else {
            failed += 1;
        }
    }
    assert!(passed > 0 && failed > 0, "ties must fall both ways");
}

proptest! {
    /// Eq. 1 keeps ξ in [0, 1] under any sequence of transmissions and
    /// timeouts.
    #[test]
    fn xi_stays_in_unit_interval(
        alpha in prob(),
        ops in proptest::collection::vec((any::<bool>(), prob()), 0..200),
    ) {
        let mut xi = DeliveryProb::ZERO;
        for (is_tx, peer) in ops {
            if is_tx {
                xi.on_transmission(DeliveryProb::new(peer), alpha);
            } else {
                xi.on_timeout(alpha);
            }
            prop_assert!((0.0..=1.0).contains(&xi.value()));
        }
    }

    /// Eq. 3 never decreases a copy's FTD, whatever the receiver set.
    #[test]
    fn ftd_monotone_under_multicast(
        start in prob(),
        rounds in proptest::collection::vec(
            proptest::collection::vec(prob(), 0..5), 0..20),
    ) {
        let mut f = Ftd::new(start);
        for xis in rounds {
            let next = f.after_multicast(&xis);
            prop_assert!(next.value() >= f.value());
            prop_assert!(next.value() <= 1.0);
            f = next;
        }
    }

    /// Eq. 2: a receiver's copy FTD is bounded by the full-set combined
    /// delivery probability, and never below the sender's retained share.
    #[test]
    fn receiver_copy_is_bounded(
        base in prob(),
        sender_xi in prob(),
        xis in proptest::collection::vec(prob(), 1..6),
    ) {
        let f = Ftd::new(base);
        for j in 0..xis.len() {
            let others: Vec<f64> = xis
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != j)
                .map(|(_, &x)| x)
                .collect();
            let copy = f.receiver_copy(sender_xi, &others);
            prop_assert!((0.0..=1.0).contains(&copy.value()));
            // At least as redundant as the no-co-receiver case.
            let lone = f.receiver_copy(sender_xi, &[]);
            prop_assert!(copy.value() >= lone.value() - 1e-12);
        }
    }

    /// The queue respects capacity and keeps ascending-FTD order under
    /// arbitrary insert/pop/update churn.
    #[test]
    fn queue_order_and_capacity_hold(
        capacity in 1usize..20,
        ops in proptest::collection::vec((0u64..40, prob(), any::<bool>()), 0..200),
    ) {
        let mut q = FtdQueue::new(capacity);
        for (id, ftd, pop) in ops {
            if pop {
                let _ = q.pop_head();
            } else {
                let m = Message::sensed(MessageId(id), NodeId(0), SimTime::ZERO)
                    .with_ftd(Ftd::new(ftd));
                let _ = q.insert(m);
            }
            prop_assert!(q.len() <= capacity);
            let ftds: Vec<f64> = q.iter().map(|m| m.ftd.value()).collect();
            for w in ftds.windows(2) {
                prop_assert!(w[0] <= w[1], "queue out of order: {ftds:?}");
            }
        }
    }

    /// `available_space_for` is consistent with its definition:
    /// capacity − |{m : m.ftd ≤ f}|, and monotone decreasing in f.
    #[test]
    fn available_space_matches_definition(
        capacity in 1usize..20,
        inserts in proptest::collection::vec((0u64..100, prob()), 0..30),
        f in prob(),
    ) {
        let mut q = FtdQueue::new(capacity);
        for (id, ftd) in inserts {
            let _ = q.insert(
                Message::sensed(MessageId(id), NodeId(0), SimTime::ZERO)
                    .with_ftd(Ftd::new(ftd)),
            );
        }
        let le = q.iter().filter(|m| m.ftd.value() <= f).count();
        prop_assert_eq!(q.available_space_for(Ftd::new(f)), capacity - le);
        if f + 0.1 <= 1.0 {
            prop_assert!(
                q.available_space_for(Ftd::new(f + 0.1))
                    <= q.available_space_for(Ftd::new(f))
            );
        }
    }

    /// Eq. 12 is a probability, single contenders never collide, and the
    /// production kernel returns the per-contender reference's value bit
    /// for bit.
    #[test]
    fn rts_collision_is_probability(sigmas in contender_sigmas()) {
        let gamma = rts_collision_probability(&sigmas);
        prop_assert!((0.0..=1.0).contains(&gamma));
        if sigmas.len() == 1 {
            prop_assert_eq!(gamma, 0.0);
        }
        let reference = reference_gamma(&sigmas);
        prop_assert_eq!(
            gamma.to_bits(),
            reference.to_bits(),
            "σ = {:?}: kernel {} vs reference {}",
            sigmas,
            gamma,
            reference
        );
    }

    /// Eq. 13's result is feasible (or the cap), minimal, and exactly
    /// what a plain scan over the reference Eq. 12 returns.
    #[test]
    fn tau_optimizer_minimal_and_feasible(
        xis in contender_xis(),
        // 0 and 1 are the extremes; the paper's H = 0.1 gets extra weight,
        // and 1/s, the collision probability of two contenders whose
        // larger σ is s, lands exactly on ties.
        target in (0u32..=184).prop_map(|t| match t {
            0..=100 => f64::from(t) / 100.0,
            101..=120 => 0.1,
            s => 1.0 / f64::from(s - 120),
        }),
        cap in 1u64..=64,
    ) {
        let best = optimize_tau_max(&xis, target, cap);
        prop_assert!((1..=cap).contains(&best));
        prop_assert_eq!(best, reference_tau_max(&xis, target, cap), "ξ = {:?}", xis);
        let gamma_at = |t: u64| {
            let s: Vec<u64> = xis.iter().map(|&x| sigma(x, t)).collect();
            rts_collision_probability(&s)
        };
        if best < cap {
            prop_assert!(gamma_at(best) <= target);
        }
        if best > 1 && gamma_at(best) <= target {
            prop_assert!(gamma_at(best - 1) > target, "not minimal at {best}");
        }
    }

    /// Eq. 14 is a probability, monotone in n and anti-monotone in w; the
    /// window search is minimal-feasible.
    #[test]
    fn cts_window_math_is_sound(n in 0u64..12, w in 1u64..64, target in 1u32..50) {
        let target = target as f64 / 100.0;
        let p = cts_collision_probability(n, w);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(cts_collision_probability(n + 1, w) >= p);
        prop_assert!(cts_collision_probability(n, w + 1) <= p);

        let best = optimize_cts_window(n, target, 4096);
        if best < 4096 {
            prop_assert!(cts_collision_probability(n, best) <= target);
            if best > 1 {
                prop_assert!(cts_collision_probability(n, best - 1) > target);
            }
        }
    }

    /// Eq. 6's sleeping period always lands in [T_min, T_max].
    #[test]
    fn sleep_duration_is_bounded(
        history in proptest::collection::vec(any::<bool>(), 0..40),
        urgency in prob(),
    ) {
        let p = ProtocolParams::paper_default();
        let mut ctl = SleepController::new(p.history_window_s);
        for h in history {
            ctl.record_cycle(h);
        }
        let t = ctl.sleep_duration(urgency, &p);
        prop_assert!(t.as_secs_f64() >= p.t_min_secs - 1e-9);
        prop_assert!(t <= p.t_max());
    }

    /// The inline bit-ring history matches a reference `VecDeque<bool>`
    /// window at every S in 2..=64: after each recorded cycle the success
    /// count, ρ (Eq. 4), Eq. 6's sleeping period and the oldest-first
    /// order `history()` yields (the checkpoint layout) all agree.
    #[test]
    fn sleep_controller_matches_a_deque_reference(
        outcomes in proptest::collection::vec(any::<bool>(), 0..160),
        urgency in prob(),
    ) {
        for s in 2..=64usize {
            let mut p = ProtocolParams::paper_default();
            p.history_window_s = s;
            let mut ctl = SleepController::new(s);
            let mut reference: VecDeque<bool> = VecDeque::new();
            for &outcome in &outcomes {
                ctl.record_cycle(outcome);
                if reference.len() == s {
                    reference.pop_front();
                }
                reference.push_back(outcome);
                let successes = reference.iter().filter(|&&b| b).count();
                let rho = if reference.is_empty() {
                    1.0
                } else {
                    successes.max(1) as f64 / s as f64
                };
                let raw = p.t_min_secs * (1.0 / rho - 1.0) / (1.0 - p.sleep_h + urgency);
                let period = SimDuration::from_secs_f64(raw.max(p.t_min_secs))
                    .clamp(SimDuration::from_secs_f64(p.t_min_secs), p.t_max())
                    .max(SimDuration::from_ticks(1));
                prop_assert_eq!(ctl.successes(), successes, "S = {}", s);
                prop_assert_eq!(ctl.rho().to_bits(), rho.to_bits(), "S = {}", s);
                prop_assert_eq!(ctl.sleep_duration(urgency, &p), period, "S = {}", s);
                prop_assert!(
                    ctl.history().eq(reference.iter().copied()),
                    "S = {}: history order differs", s
                );
                prop_assert_eq!(ctl.history().len(), reference.len());
            }
        }
    }

    /// Receiver selection only picks qualified candidates and orders them
    /// by descending ξ.
    #[test]
    fn selection_picks_only_qualified(
        sender_xi in prob(),
        ftd in prob(),
        cands in proptest::collection::vec((prob(), 0usize..5), 0..8),
        r in prob(),
    ) {
        // Each neighbor replies with at most one CTS, so ids are distinct.
        let candidates: Vec<Candidate> = cands
            .iter()
            .enumerate()
            .map(|(id, &(xi, space))| Candidate { id: NodeId(id), xi, buffer_space: space })
            .collect();
        let sel = select_receivers(sender_xi, Ftd::new(ftd), &candidates, r);
        prop_assert_eq!(sel.receivers.len(), sel.receiver_xis.len());
        for (k, &(id, copy_ftd)) in sel.receivers.iter().enumerate() {
            let c = candidates.iter().find(|c| c.id == id).unwrap();
            prop_assert!(c.xi > sender_xi, "unqualified ξ selected");
            prop_assert!(c.buffer_space > 0, "no-space candidate selected");
            prop_assert!((0.0..=1.0).contains(&copy_ftd.value()));
            if k > 0 {
                prop_assert!(sel.receiver_xis[k - 1] >= sel.receiver_xis[k]);
            }
        }
        prop_assert!((0.0..=1.0).contains(&sel.combined_delivery));
    }

    /// Eq. 1 keeps ξ in [0, 1] even when α and the peer's ξ sit exactly on
    /// (or one ulp inside) the unit-interval boundaries, interleaved with
    /// multi-window Δ catch-up decay.
    #[test]
    fn xi_survives_extreme_boundary_sequences(
        alpha in prob_extreme(),
        ops in proptest::collection::vec(
            (0u8..3, prob_extreme(), 0u64..5), 0..150),
    ) {
        let mut xi = DeliveryProb::ZERO;
        for (op, peer, windows) in ops {
            match op {
                0 => xi.on_transmission(DeliveryProb::new(peer), alpha),
                1 => xi.on_timeout(alpha),
                _ => xi.decay_windows(alpha, windows),
            }
            prop_assert!((0.0..=1.0).contains(&xi.value()), "{}", xi.value());
        }
    }

    /// Eq. 3 keeps FTD in [0, 1] under extreme receiver-ξ multicasts, and a
    /// receiver with ξ = 1 saturates the copy exactly.
    #[test]
    fn ftd_survives_extreme_receiver_xis(
        start in prob_extreme(),
        rounds in proptest::collection::vec(
            proptest::collection::vec(prob_extreme(), 0..5), 0..20),
    ) {
        let mut f = Ftd::new(start);
        for xis in rounds {
            let next = f.after_multicast(&xis);
            prop_assert!((0.0..=1.0).contains(&next.value()));
            prop_assert!(next.value() >= f.value());
            if xis.contains(&1.0) {
                prop_assert_eq!(next.value(), 1.0, "sink receiver must saturate");
            }
            f = next;
        }
    }

    /// The combined delivery probability of Sec. 3.2.2 is monotone in the
    /// receiver set: adding a receiver never lowers it.
    #[test]
    fn combined_delivery_monotone_in_receiver_set(
        base in prob_extreme(),
        xis in proptest::collection::vec(prob_extreme(), 0..8),
        extra in prob_extreme(),
    ) {
        let f = Ftd::new(base);
        let without = f.combined_delivery(&xis);
        let mut grown = xis.clone();
        grown.push(extra);
        let with = f.combined_delivery(&grown);
        prop_assert!(with >= without, "{with} < {without}");
        prop_assert!((0.0..=1.0).contains(&with));
        // ξ = 0 receivers are exact no-ops.
        let mut padded = xis;
        padded.push(0.0);
        prop_assert_eq!(f.combined_delivery(&padded), without);
    }

    /// Multi-window catch-up decay is bitwise identical to firing the Δ
    /// timeout once per window, for any α.
    #[test]
    fn decay_windows_equals_repeated_timeouts(
        start in prob(),
        alpha in prob_extreme(),
        windows in 0u64..50,
    ) {
        let mut batched = DeliveryProb::new(start);
        let mut stepped = DeliveryProb::new(start);
        batched.decay_windows(alpha, windows);
        for _ in 0..windows {
            stepped.on_timeout(alpha);
        }
        prop_assert_eq!(batched.value().to_bits(), stepped.value().to_bits());
    }

    /// Eq. 6 never schedules a wake-up at the current instant, even for a
    /// degenerate T_min of zero: the result is at least one queue tick.
    #[test]
    fn sleep_duration_never_below_one_tick(
        t_min_centis in 0u32..=200,
        history in proptest::collection::vec(any::<bool>(), 0..40),
        urgency in prob(),
    ) {
        let p = ProtocolParams::paper_default().with_t_min_secs(t_min_centis as f64 / 100.0);
        let mut ctl = SleepController::new(p.history_window_s);
        for h in history {
            ctl.record_cycle(h);
        }
        let t = ctl.sleep_duration(urgency, &p);
        prop_assert!(t >= SimDuration::from_ticks(1));
        prop_assert!(t <= p.t_max().max(SimDuration::from_ticks(1)));
    }
}
