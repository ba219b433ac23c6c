//! Contention analysis and optimization (paper Secs. 4.2–4.3, Eqs. 9–14).
//!
//! **RTS phase** (Sec. 4.2): each contender *i* listens for a period drawn
//! uniformly from `{1, …, σᵢ}` slots with `σᵢ = ξᵢ·τ_max` (Eq. 9) — nodes
//! with *lower* delivery probability pick shorter listening periods and so
//! win the channel more often, which is desirable because they are the
//! ones needing receivers. Eqs. 10–12 give the channel-grab and collision
//! probabilities in an isolated cell; Eq. 13 picks the smallest `τ_max`
//! keeping collisions under a target.
//!
//! **CTS phase** (Sec. 4.3): qualified receivers answer in a uniformly
//! random slot of a window of `W` slots; Eq. 14 gives the probability that
//! any two pick the same slot, and a linear search picks the smallest `W`
//! meeting a target.

/// σᵢ of Eq. 9: the upper bound of node *i*'s uniformly random listening
/// period, in slots. Clamped to at least one slot.
///
/// # Panics
///
/// Panics if `xi` is outside `[0, 1]` or `tau_max_slots` is zero.
#[must_use]
pub fn sigma(xi: f64, tau_max_slots: u64) -> u64 {
    assert!(
        xi.is_finite() && (0.0..=1.0).contains(&xi),
        "ξ {xi} outside [0,1]"
    );
    assert!(tau_max_slots > 0, "τ_max must be positive");
    ((xi * tau_max_slots as f64).round() as u64).max(1)
}

/// P(node `i` grabs the channel) per Eqs. 10–11, given every contender's σ.
///
/// Node *i* wins when its drawn listening period is strictly shorter than
/// everyone else's:
/// `Pᵢ = Σ_{τ=1}^{σᵢ} (1/σᵢ)·∏_{j≠i} θᵢⱼ/σⱼ`, with
/// `θᵢⱼ = σⱼ − τ` when `σⱼ > τ` and 0 otherwise.
///
/// # Panics
///
/// Panics if `i` is out of range or any σ is zero.
#[must_use]
pub fn grab_probability(sigmas: &[u64], i: usize) -> f64 {
    assert!(i < sigmas.len(), "contender index out of range");
    assert!(sigmas.iter().all(|&s| s > 0), "σ must be positive");
    let sigma_i = sigmas[i];
    let mut p = 0.0;
    for tau in 1..=sigma_i {
        let mut others = 1.0;
        for (j, &sigma_j) in sigmas.iter().enumerate() {
            if j == i {
                continue;
            }
            if sigma_j > tau {
                others *= (sigma_j - tau) as f64 / sigma_j as f64;
            } else {
                others = 0.0;
                break;
            }
        }
        p += others / sigma_i as f64;
    }
    p
}

/// γ of Eq. 12: the probability that *no* contender cleanly grabs the
/// channel (a preamble collision), `γ = 1 − Σᵢ Pᵢ`.
///
/// With a single contender this is 0. The value is bit-for-bit
/// `1 − Σᵢ` [`grab_probability`]`(sigmas, i)` with the sum taken in index
/// order, computed by a kernel that does a fraction of that work: each
/// factor divided once, shared product prefixes and no exact-zero terms.
///
/// # Panics
///
/// Panics if there are two or more contenders and any σ is zero.
#[must_use]
pub fn rts_collision_probability(sigmas: &[u64]) -> f64 {
    collision_probability(sigmas, &mut Vec::new())
}

/// The Eq. 10–12 kernel behind [`rts_collision_probability`]; `scratch`
/// is reused across calls.
///
/// It evaluates exactly the floating-point operations of the per-contender
/// reference [`grab_probability`] that can change a bit, in the same
/// order, and skips the rest:
///
/// - Each factor `fⱼ(τ) = (σⱼ − τ)/σⱼ` is divided once per τ and shared
///   by every contender; the reference divides it again for each *i*.
/// - Contender *i*'s product is the reference's
///   `(((1·f₀)·f₁)…·fᵢ₋₁)·fᵢ₊₁…·fₙ₋₁`, left to right. The left prefix is
///   carried from one contender to the next and only the right part is
///   multiplied out per contender. Floating-point multiplication is not
///   associative, so nothing may be regrouped: the j order is what keeps
///   every bit.
/// - The τ sum ends where the reference's terms turn into exact zeros.
///   Once τ ≥ σⱼ for some j ≠ i the reference's product is `0.0`, and
///   `p + 0.0/σᵢ` is `p`. Contender *i*'s last term is therefore
///   `τ = min(σᵢ, min_{j≠i} σⱼ − 1)`. With m₁ ≤ m₂ the two smallest σ
///   and k the first index of m₁, that is m₁ − 1 for every contender,
///   except that k alone keeps the term `τ = m₁` when m₁ < m₂.
///
/// Each contender's terms are still summed in τ order, and the Σᵢ is the
/// same `.sum()` fold in index order.
fn collision_probability(sigmas: &[u64], scratch: &mut Vec<f64>) -> f64 {
    let n = sigmas.len();
    if n <= 1 {
        // A lone contender (or an empty cell) cannot collide.
        return 0.0;
    }
    assert!(sigmas.iter().all(|&s| s > 0), "σ must be positive");
    let (k, &m1) = sigmas
        .iter()
        .enumerate()
        .min_by_key(|&(_, &s)| s)
        .expect("two or more contenders");
    let m2 = sigmas
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != k)
        .map(|(_, &s)| s)
        .min()
        .expect("two or more contenders");
    scratch.clear();
    scratch.resize(2 * n, 0.0);
    let (f, p) = scratch.split_at_mut(n);
    for tau in 1..m1 {
        for (fj, &s) in f.iter_mut().zip(sigmas) {
            *fj = (s - tau) as f64 / s as f64;
        }
        let mut prefix = 1.0;
        for i in 0..n {
            let mut others = prefix;
            for &fj in &f[i + 1..] {
                others *= fj;
            }
            p[i] += others / sigmas[i] as f64;
            prefix *= f[i];
        }
    }
    if m1 < m2 {
        // τ = m₁: only k still has every rival above τ.
        let mut others = 1.0;
        for (j, &s) in sigmas.iter().enumerate() {
            if j != k {
                others *= (s - m1) as f64 / s as f64;
            }
        }
        p[k] += others / m1 as f64;
    }
    let total: f64 = p.iter().sum();
    (1.0 - total).clamp(0.0, 1.0)
}

/// Eq. 13: the smallest `τ_max ≤ cap` whose collision probability (Eq. 12)
/// over contenders with the given delivery probabilities is at most
/// `target`. Returns `cap` when even the cap misses the target.
///
/// # Panics
///
/// Panics if `cap` is zero or `target` is outside `[0, 1]`.
#[must_use]
pub fn optimize_tau_max(xis: &[f64], target: f64, cap: u64) -> u64 {
    assert!(cap > 0, "τ_max cap must be positive");
    assert!(
        (0.0..=1.0).contains(&target),
        "target {target} outside [0,1]"
    );
    let mut sigmas = Vec::with_capacity(xis.len());
    let mut scratch = Vec::new();
    for tau_max in 1..=cap {
        sigmas.clear();
        sigmas.extend(xis.iter().map(|&xi| sigma(xi, tau_max)));
        if collision_probability(&sigmas, &mut scratch) <= target {
            return tau_max;
        }
    }
    cap
}

/// γₒ of Eq. 14: the probability that `n` repliers choosing uniformly
/// random slots of a `w`-slot contention window do **not** all land in
/// distinct slots: `γₒ = 1 − (w choose n)·n!/wⁿ = 1 − ∏ₖ (w − k)/w`.
///
/// Returns 0 for `n ≤ 1` and 1 when `n > w` (pigeonhole).
///
/// # Panics
///
/// Panics if `w` is zero.
#[must_use]
pub fn cts_collision_probability(n: u64, w: u64) -> f64 {
    assert!(w > 0, "window must be positive");
    if n <= 1 {
        return 0.0;
    }
    if n > w {
        return 1.0;
    }
    let mut all_distinct = 1.0;
    for k in 0..n {
        all_distinct *= (w - k) as f64 / w as f64;
    }
    (1.0 - all_distinct).clamp(0.0, 1.0)
}

/// Sec. 4.3's linear search: the smallest window `w ≤ cap` whose Eq. 14
/// collision probability for `n` expected repliers is at most `target`.
/// Returns `cap` when unreachable.
///
/// # Panics
///
/// Panics if `cap` is zero or `target` is outside `[0, 1]`.
#[must_use]
pub fn optimize_cts_window(n: u64, target: f64, cap: u64) -> u64 {
    assert!(cap > 0, "window cap must be positive");
    assert!(
        (0.0..=1.0).contains(&target),
        "target {target} outside [0,1]"
    );
    for w in 1..=cap {
        if cts_collision_probability(n, w) <= target {
            return w;
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_scales_with_xi_and_floors_at_one() {
        assert_eq!(sigma(0.0, 10), 1);
        assert_eq!(sigma(0.5, 10), 5);
        assert_eq!(sigma(1.0, 10), 10);
        assert_eq!(sigma(0.04, 10), 1);
    }

    #[test]
    fn lone_contender_always_grabs() {
        assert!((grab_probability(&[7], 0) - 1.0).abs() < 1e-12);
        assert_eq!(rts_collision_probability(&[7]), 0.0);
    }

    #[test]
    fn two_equal_contenders_tie_with_known_probability() {
        // Both uniform on {1,…,σ}: collision iff equal draws → 1/σ.
        for s in [2u64, 4, 10] {
            let gamma = rts_collision_probability(&[s, s]);
            assert!((gamma - 1.0 / s as f64).abs() < 1e-12, "σ={s} γ={gamma}");
        }
    }

    #[test]
    fn sigma_one_pair_always_collides() {
        // Both forced to slot 1.
        assert!((rts_collision_probability(&[1, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_xi_grabs_more_often() {
        // σ from ξ = 0.2 vs 0.9 at τ_max = 20 → 4 vs 18.
        let sigmas = [sigma(0.2, 20), sigma(0.9, 20)];
        let p_low = grab_probability(&sigmas, 0);
        let p_high = grab_probability(&sigmas, 1);
        assert!(
            p_low > 2.0 * p_high,
            "low-ξ node should dominate: {p_low} vs {p_high}"
        );
    }

    #[test]
    fn grab_probability_matches_monte_carlo() {
        use dftmsn_sim::rng::SimRng;
        let sigmas = [3u64, 5, 8];
        let mut rng = SimRng::seed_from(42);
        let trials = 200_000;
        let mut wins = [0u64; 3];
        for _ in 0..trials {
            let draws: Vec<u64> = sigmas
                .iter()
                .map(|&s| rng.gen_range_inclusive(1, s))
                .collect();
            let min = *draws.iter().min().unwrap();
            let winners: Vec<usize> = (0..3).filter(|&i| draws[i] == min).collect();
            if winners.len() == 1 {
                wins[winners[0]] += 1;
            }
        }
        for (i, &won) in wins.iter().enumerate() {
            let analytic = grab_probability(&sigmas, i);
            let empirical = won as f64 / trials as f64;
            assert!(
                (analytic - empirical).abs() < 0.005,
                "node {i}: analytic {analytic} vs empirical {empirical}"
            );
        }
    }

    #[test]
    fn rts_collision_decreases_with_tau_max() {
        let xis = [0.3, 0.5, 0.7, 0.2];
        let mut prev = 1.0;
        for tau_max in [2u64, 4, 8, 16, 32] {
            let sigmas: Vec<u64> = xis.iter().map(|&x| sigma(x, tau_max)).collect();
            let gamma = rts_collision_probability(&sigmas);
            assert!(gamma <= prev + 1e-9, "γ rose at τ_max={tau_max}");
            prev = gamma;
        }
    }

    #[test]
    fn optimize_tau_max_is_minimal_and_feasible() {
        let xis = [0.3, 0.5, 0.7];
        let target = 0.1;
        let best = optimize_tau_max(&xis, target, 64);
        let gamma_at = |t: u64| {
            let s: Vec<u64> = xis.iter().map(|&x| sigma(x, t)).collect();
            rts_collision_probability(&s)
        };
        assert!(gamma_at(best) <= target, "infeasible τ_max");
        if best > 1 {
            assert!(gamma_at(best - 1) > target, "not minimal");
        }
    }

    #[test]
    fn optimize_tau_max_returns_cap_when_impossible() {
        // Two ξ=0 contenders always collide (σ=1 each) regardless of τ_max.
        assert_eq!(optimize_tau_max(&[0.0, 0.0], 0.1, 16), 16);
    }

    #[test]
    fn eq14_known_values() {
        assert_eq!(cts_collision_probability(0, 8), 0.0);
        assert_eq!(cts_collision_probability(1, 8), 0.0);
        // Two repliers, w slots: collision 1/w.
        assert!((cts_collision_probability(2, 8) - 1.0 / 8.0).abs() < 1e-12);
        // Birthday problem, n = 3, w = 10: 1 - (10·9·8)/1000 = 0.28.
        assert!((cts_collision_probability(3, 10) - 0.28).abs() < 1e-12);
        // Pigeonhole.
        assert_eq!(cts_collision_probability(9, 8), 1.0);
    }

    #[test]
    fn eq14_monotone_in_n_and_w() {
        for n in 1..6u64 {
            assert!(cts_collision_probability(n + 1, 12) >= cts_collision_probability(n, 12));
        }
        for w in 4..20u64 {
            assert!(cts_collision_probability(4, w + 1) <= cts_collision_probability(4, w));
        }
    }

    #[test]
    fn optimize_cts_window_is_minimal_and_feasible() {
        for n in 1..8u64 {
            let w = optimize_cts_window(n, 0.1, 1024);
            assert!(cts_collision_probability(n, w) <= 0.1, "n={n}");
            if w > 1 {
                assert!(
                    cts_collision_probability(n, w - 1) > 0.1,
                    "n={n} not minimal"
                );
            }
        }
    }

    #[test]
    fn optimize_cts_window_hits_cap() {
        // Five repliers under a 1% target need a big window; cap at 8.
        assert_eq!(optimize_cts_window(5, 0.01, 8), 8);
    }

    #[test]
    fn cts_collision_matches_monte_carlo() {
        use dftmsn_sim::rng::SimRng;
        let mut rng = SimRng::seed_from(7);
        let (n, w) = (4u64, 12u64);
        let trials = 100_000;
        let mut collided = 0u64;
        for _ in 0..trials {
            let mut slots: Vec<u64> = (0..n).map(|_| rng.gen_range_inclusive(1, w)).collect();
            slots.sort_unstable();
            slots.dedup();
            if slots.len() < n as usize {
                collided += 1;
            }
        }
        let analytic = cts_collision_probability(n, w);
        let empirical = collided as f64 / trials as f64;
        assert!(
            (analytic - empirical).abs() < 0.01,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_target_panics() {
        let _ = optimize_tau_max(&[0.5], 1.5, 8);
    }
}
