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
/// Each candidate is decided exactly as `rts_collision_probability(σ) <=
/// target` decides it, but in O(c) per τ for c contenders unless γ lies
/// within a rounding margin of `target`; only those near-ties run the
/// O(c²) kernel.
///
/// # Panics
///
/// Panics if `cap` is zero or `target` is outside `[0, 1]`.
#[must_use]
pub fn optimize_tau_max(xis: &[f64], target: f64, cap: u64) -> u64 {
    optimize_tau_max_in(xis, target, cap, &mut TauScratch::default())
}

/// Working memory of [`optimize_tau_max_in`]: once its capacities have
/// grown, a search allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TauScratch {
    sigmas: Vec<u64>,
    kernel: Vec<f64>,
}

/// [`optimize_tau_max`] on caller-owned working memory.
pub(crate) fn optimize_tau_max_in(
    xis: &[f64],
    target: f64,
    cap: u64,
    scratch: &mut TauScratch,
) -> u64 {
    assert!(cap > 0, "τ_max cap must be positive");
    assert!(
        (0.0..=1.0).contains(&target),
        "target {target} outside [0,1]"
    );
    let delta = rounding_margin(xis.len(), cap);
    let lo = (1.0 - target) - delta;
    // Where δ ≥ 2 its bound no longer holds: nothing is certified.
    let hi = if delta < 2.0 {
        (1.0 - target) + delta
    } else {
        f64::INFINITY
    };
    for tau_max in 1..=cap {
        scratch.sigmas.clear();
        scratch
            .sigmas
            .extend(xis.iter().map(|&xi| sigma(xi, tau_max)));
        let meets = certify(&scratch.sigmas, lo, hi).unwrap_or_else(|| {
            collision_probability(&scratch.sigmas, &mut scratch.kernel) <= target
        });
        if meets {
            return tau_max;
        }
    }
    cap
}

/// δ, the margin around `1 − H` inside which [`certify`] leaves the
/// decision to the exact kernel: `8·(c + cap + 2)·ε` for `c` contenders,
/// with ε = `f64::EPSILON` = 2u (u = 2⁻⁵³, the unit roundoff).
///
/// Write γₙ = n·u/(1 − n·u), the standard bound on the relative error
/// that n rounded operations leave in a product, or in each term of a sum
/// of non-negative terms (Higham, *Accuracy and Stability of Numerical
/// Algorithms*, § 3.1), and let n = 3c + cap + 2. Every σ is at most
/// `τ_max ≤ cap`, so each τ sum has at most m₁ ≤ cap terms.
///
/// - [`certify`]: F(τ) carries c quotients and c − 1 products, each part
///   of Σ 1/(σᵢ − τ) one quotient and at most c − 1 sums, and a term their
///   product, so at most 3c in all; the tail term carries 2c − 1. The
///   running sum adds at most cap − 1 roundings per term, and the reject
///   test's `sum + F` one more. Its sums are off by at most γ_{3c+cap}
///   times the exact value they estimate, which is at most 1.
/// - The kernel: a term carries 2c − 1 (c − 1 quotients, c − 1 products,
///   the quotient by σᵢ), its τ sum at most cap − 1 more and its Σᵢ c − 1
///   more, so its total is off by at most γ_{3c+cap}; `1 − total` adds at
///   most u, and the clamp only moves toward the exact γ ∈ [0, 1].
/// - Forming `(1 − H) ± δ` costs at most 3u.
///
/// So a certified accept (computed sum > `hi`) means the kernel returns
/// γ < H − δ + 2·γ_{3c+cap} + 4u ≤ H − δ + 2γₙ, and a certified reject
/// (computed sum + F < `lo`) means γ > H + δ − 2γₙ. While
/// c + cap + 2 < 2⁵⁰, n·u < 3/8 gives γₙ ≤ 2n·u, so
/// 2γₙ ≤ (6c + 2·cap + 4)·ε < δ and every certified answer is the
/// kernel's. Beyond that δ ≥ 2: the caller then sets `hi` to +∞ and `lo`
/// is below −1, so the kernel decides every candidate. The rest of δ, at
/// least 12ε, covers underflow, which adds at most 2⁻¹⁰⁷⁵ per operation
/// (times at most c where a term multiplies by Σ 1/(σᵢ − τ) ≤ c). Nothing
/// overflows: every other factor and term is at most 1.
fn rounding_margin(contenders: usize, cap: u64) -> f64 {
    8.0 * (contenders as f64 + cap as f64 + 2.0) * f64::EPSILON
}

/// Decides `rts_collision_probability(sigmas) <= H` in O(c) per τ, or
/// returns `None` when the exact γ lies too close to H to tell. `lo` and
/// `hi` are `1 − H ∓ δ` ([`rounding_margin`]).
///
/// It sums U = 1 − γ, the probability that one contender draws the unique
/// minimum. Let F(τ) = ∏ⱼ (σⱼ − τ)/σⱼ, the probability that every draw
/// exceeds τ. For τ < m₁ (m₁ ≤ m₂ the two smallest σ, k the first index
/// of m₁) contender i's product over j ≠ i is F(τ)·σᵢ/(σᵢ − τ), so the
/// minimum is unique at τ with probability F(τ)·Σᵢ 1/(σᵢ − τ). At τ = m₁
/// only k can win, and only when m₁ < m₂, with probability
/// (1/m₁)·∏_{j≠k} (σⱼ − m₁)/σⱼ. Once the partial sum exceeds `hi`, γ is
/// certainly at most H. Once the partial sum plus F(τ) falls below `lo`,
/// γ is certainly above H: every later term is part of
/// P(min > τ) = F(τ).
fn certify(sigmas: &[u64], lo: f64, hi: f64) -> Option<bool> {
    if sigmas.len() <= 1 {
        // γ = 0, and H ≥ 0.
        return Some(true);
    }
    let (mut m1, mut k, mut m2) = (u64::MAX, 0, u64::MAX);
    for (j, &s) in sigmas.iter().enumerate() {
        if s < m1 {
            (m1, k, m2) = (s, j, m1);
        } else if s < m2 {
            m2 = s;
        }
    }
    let mut sum = 0.0;
    for tau in 1..m1 {
        let (mut all_above, mut hazard) = (1.0, 0.0);
        for &s in sigmas {
            let rest = (s - tau) as f64;
            all_above *= rest / s as f64;
            hazard += 1.0 / rest;
        }
        sum += all_above * hazard;
        if sum > hi {
            return Some(true);
        }
        if sum + all_above < lo {
            return Some(false);
        }
    }
    if m1 < m2 {
        let mut tail = 1.0 / m1 as f64;
        for (j, &s) in sigmas.iter().enumerate() {
            if j != k {
                tail *= (s - m1) as f64 / s as f64;
            }
        }
        sum += tail;
    }
    if sum > hi {
        Some(true)
    } else if sum < lo {
        Some(false)
    } else {
        None
    }
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

    /// Every σ vector of up to four contenders with σ ≤ 12, at targets on
    /// and off exact collision probabilities: whatever [`certify`] decides
    /// is what the kernel decides, and the exact ties are deferred.
    #[test]
    fn certified_decisions_are_the_kernels() {
        let targets = [0.0, 0.05, 0.1, 0.125, 1.0 / 3.0, 0.5, 1.0];
        let (mut sigmas, mut kernel) = (Vec::new(), Vec::new());
        let mut deferred = 0;
        for c in 1..=4 {
            for code in 0..12u64.pow(c) {
                sigmas.clear();
                sigmas.extend((0..c).map(|j| code / 12u64.pow(j) % 12 + 1));
                for h in targets {
                    let delta = rounding_margin(sigmas.len(), 12);
                    match certify(&sigmas, (1.0 - h) - delta, (1.0 - h) + delta) {
                        Some(meets) => assert_eq!(
                            meets,
                            collision_probability(&sigmas, &mut kernel) <= h,
                            "σ = {sigmas:?}, H = {h}"
                        ),
                        None => deferred += 1,
                    }
                }
            }
        }
        assert!(deferred > 0, "no near-tie reached the kernel");
    }

    /// Two contenders of equal σ = s collide with probability exactly 1/s.
    /// At H = 1/s the certified test defers, and the kernel's rounding
    /// decides, either way: the paper's H = 0.1 fails at σ = 10.
    #[test]
    fn exact_ties_defer_to_the_kernel() {
        for s in 2..=64u64 {
            let h = 1.0 / s as f64;
            let delta = rounding_margin(2, s);
            let decision = certify(&[s, s], (1.0 - h) - delta, (1.0 - h) + delta);
            assert_eq!(decision, None, "σ = {s}");
        }
        assert!(rts_collision_probability(&[10, 10]) > 0.1);
        assert_eq!(optimize_tau_max(&[1.0, 1.0], 0.1, 32), 11);
        assert!(rts_collision_probability(&[2, 2]) <= 0.5);
        assert_eq!(optimize_tau_max(&[1.0, 1.0], 0.5, 32), 2);
        // A cap past the margin's bound leaves every candidate to the
        // kernel, with the same answers.
        assert!(rounding_margin(2, 1 << 50) >= 2.0);
        assert_eq!(optimize_tau_max(&[1.0, 1.0], 0.1, 1 << 50), 11);
        assert_eq!(optimize_tau_max(&[1.0, 1.0], 0.5, 1 << 50), 2);
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
