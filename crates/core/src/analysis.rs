//! Analytic models of the two basic DFT-MSN delivery approaches.
//!
//! The companion work (\[5\] in the paper: "DFT-MSN: The Delay Fault
//! Tolerant Mobile Sensor Network for Pervasive Information Gathering",
//! INFOCOM 2006) analyses **direct transmission** and **flooding** with
//! queueing models before proposing the FTD scheme. This module rebuilds
//! that analytic substrate with the standard continuous-time Markov-chain
//! treatment of opportunistic contacts:
//!
//! * pairwise contacts are Poisson with rate λ (the exponential
//!   inter-contact approximation, accurate for random-direction-style
//!   mobility at sub-area transmission ranges);
//! * [`ContactModel`] estimates λ from the scenario geometry
//!   (`λ ≈ 2·r·v_rel / A`);
//! * [`direct_expected_delay`] and [`direct_average_ratio`] solve the
//!   one-state model;
//! * [`EpidemicModel`] integrates the flooding master equation: state
//!   *i* = number of message holders, infection rate `i(n−i)λ_nn`,
//!   absorption (delivery) rate `i·k·λ_ns`.
//!
//! These models deliberately ignore queueing losses, MAC overhead and the
//! home-zone bias of the paper's mobility — they are the *upper-bound
//! sanity rails* the simulator is checked against in the integration
//! tests, not a replacement for it.

use crate::params::ScenarioParams;
use serde::{Deserialize, Serialize};

/// First-order Poisson contact-rate estimates from scenario geometry.
///
/// # Examples
///
/// ```
/// use dftmsn_core::analysis::ContactModel;
/// use dftmsn_core::params::ScenarioParams;
///
/// let m = ContactModel::from_scenario(&ScenarioParams::paper_default());
/// assert!(m.lambda_node_sink > 0.0);
/// assert!(m.lambda_node_node > m.lambda_node_sink); // moving targets meet faster
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContactModel {
    /// Pairwise sensor–sensor contact rate (1/s).
    pub lambda_node_node: f64,
    /// Sensor–(single stationary sink) contact rate (1/s).
    pub lambda_node_sink: f64,
}

impl ContactModel {
    /// Estimates contact rates from the deployment geometry.
    ///
    /// Uses the classical well-mixed approximation
    /// `λ = 2·r·E[v_rel]/A` with `E[v_rel] ≈ 1.27·v̄` for two
    /// random-direction movers and `E[v_rel] = v̄` against a stationary
    /// sink, where `v̄` is the mean node speed.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation.
    #[must_use]
    pub fn from_scenario(s: &ScenarioParams) -> Self {
        s.validate()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let area = s.area_width_m * s.area_height_m;
        let v_mean = (s.speed_min_mps + s.speed_max_mps) / 2.0;
        let r = s.channel.range_m;
        ContactModel {
            lambda_node_node: 2.0 * r * 1.27 * v_mean / area,
            lambda_node_sink: 2.0 * r * v_mean / area,
        }
    }

    /// Mean inter-contact time (s) between two sensors.
    #[must_use]
    pub fn mean_intercontact_nn(&self) -> f64 {
        1.0 / self.lambda_node_node
    }

    /// Mean time (s) for one sensor to meet one specific sink.
    #[must_use]
    pub fn mean_intercontact_ns(&self) -> f64 {
        1.0 / self.lambda_node_sink
    }
}

/// Mean direct-transmission delivery delay: `1/(k·λ)`, infinite when
/// λ = 0 (nothing moves, so no sensor ever meets a sink).
///
/// # Panics
///
/// Panics if the rate is negative or NaN, or `sinks == 0`.
#[must_use]
pub fn direct_expected_delay(lambda_ns: f64, sinks: usize) -> f64 {
    assert!(lambda_ns >= 0.0, "rate must be non-negative");
    assert!(sinks > 0, "need at least one sink");
    1.0 / (sinks as f64 * lambda_ns)
}

/// Average delivery probability over messages generated uniformly during
/// a run of length `duration_secs` (later messages have less residual
/// horizon): `1 − (1 − e^{−μT})/(μT)` with `μ = k·λ`.
#[must_use]
pub fn direct_average_ratio(lambda_ns: f64, sinks: usize, duration_secs: f64) -> f64 {
    let mu = sinks as f64 * lambda_ns;
    let x = mu * duration_secs;
    if x <= 0.0 {
        return 0.0;
    }
    1.0 - (1.0 - (-x).exp()) / x
}

/// The flooding (epidemic) master-equation model: a pure-birth CTMC over
/// the number of message holders with delivery as absorption.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpidemicModel {
    /// Total sensors that can hold a copy.
    pub sensors: usize,
    /// Sink count.
    pub sinks: usize,
    /// Sensor–sensor contact rate (1/s).
    pub lambda_nn: f64,
    /// Sensor–sink contact rate (1/s).
    pub lambda_ns: f64,
}

impl EpidemicModel {
    /// Builds the model from geometry estimates.
    #[must_use]
    pub fn from_scenario(s: &ScenarioParams) -> Self {
        let contacts = ContactModel::from_scenario(s);
        EpidemicModel {
            sensors: s.sensors,
            sinks: s.sinks,
            lambda_nn: contacts.lambda_node_node,
            lambda_ns: contacts.lambda_node_sink,
        }
    }

    fn birth_rate(&self, holders: usize) -> f64 {
        holders as f64 * (self.sensors - holders) as f64 * self.lambda_nn
    }

    fn absorb_rate(&self, holders: usize) -> f64 {
        holders as f64 * self.sinks as f64 * self.lambda_ns
    }

    /// Expected delivery delay (s) starting from one holder, by first-step
    /// analysis over the birth chain; infinite when `lambda_ns` is 0.
    ///
    /// # Panics
    ///
    /// Panics if the model has no sensors or a negative or NaN rate.
    #[must_use]
    pub fn expected_delay(&self) -> f64 {
        assert!(self.sensors > 0, "no sensors");
        assert!(
            self.lambda_ns >= 0.0 && self.lambda_nn >= 0.0,
            "rates must be non-negative"
        );
        // No sink contact ever absorbs the chain. Returning here also keeps
        // the recursion below from forming 0·∞ = NaN when λ_nn is 0 too.
        if self.lambda_ns == 0.0 {
            return f64::INFINITY;
        }
        // T_i = 1/(µ_i + b_i) + b_i/(µ_i + b_i) · T_{i+1}, T at i = n has
        // b = 0.
        let n = self.sensors;
        let mut t_next = 1.0 / self.absorb_rate(n);
        for i in (1..n).rev() {
            let b = self.birth_rate(i);
            let mu = self.absorb_rate(i);
            t_next = (1.0 + b * t_next) / (mu + b);
        }
        t_next
    }

    /// Probability the message is delivered within `horizon_secs`,
    /// integrated from the master equation by explicit Euler with step
    /// `dt_secs`.
    ///
    /// # Panics
    ///
    /// Panics if `dt_secs` is not positive or the horizon is negative.
    #[must_use]
    pub fn delivery_probability_by(&self, horizon_secs: f64, dt_secs: f64) -> f64 {
        assert!(dt_secs > 0.0, "dt must be positive");
        assert!(horizon_secs >= 0.0, "negative horizon");
        let n = self.sensors;
        // p[i] = P(i holders, not yet delivered), i in 1..=n; p_abs =
        // P(delivered).
        let mut p = vec![0.0f64; n + 1];
        p[1] = 1.0;
        let mut absorbed = 0.0;
        let steps = (horizon_secs / dt_secs).ceil() as u64;
        // Stability: the fastest total exit rate bounds the usable dt.
        let max_rate = (1..=n)
            .map(|i| self.birth_rate(i) + self.absorb_rate(i))
            .fold(0.0f64, f64::max);
        let dt = dt_secs.min(if max_rate > 0.0 {
            0.5 / max_rate
        } else {
            dt_secs
        });
        let substeps = (dt_secs / dt).ceil() as u64;
        let dt = dt_secs / substeps as f64;
        for _ in 0..steps * substeps {
            let mut next = p.clone();
            for i in 1..=n {
                if p[i] == 0.0 {
                    continue;
                }
                let b = self.birth_rate(i) * dt;
                let a = self.absorb_rate(i) * dt;
                let out = (b + a).min(1.0);
                next[i] -= p[i] * out;
                if i < n {
                    next[i + 1] += p[i] * b;
                } else {
                    // No more susceptible relays; births are impossible
                    // (birth_rate(n) is 0 anyway).
                }
                absorbed += p[i] * a;
            }
            p = next;
        }
        absorbed.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model() -> EpidemicModel {
        EpidemicModel::from_scenario(&ScenarioParams::paper_default())
    }

    #[test]
    fn contact_rates_have_sane_magnitudes() {
        let m = ContactModel::from_scenario(&ScenarioParams::paper_default());
        // 150x150 m², r = 10 m, v̄ = 2.5 m/s → λ_ns ≈ 2·10·2.5/22500 ≈ 2.2e-3.
        assert!((m.lambda_node_sink - 2.222e-3).abs() < 1e-4);
        assert!(m.mean_intercontact_ns() > 100.0);
        assert!(m.mean_intercontact_nn() < m.mean_intercontact_ns());
    }

    #[test]
    fn direct_expected_delay_is_inverse_rate() {
        assert!((direct_expected_delay(0.002, 1) - 500.0).abs() < 1e-9);
        assert!((direct_expected_delay(0.002, 4) - 125.0).abs() < 1e-9);
    }

    #[test]
    fn no_motion_means_infinite_expected_delay() {
        assert_eq!(direct_expected_delay(0.0, 3), f64::INFINITY);
        let mut m = paper_model();
        m.lambda_ns = 0.0;
        assert_eq!(m.expected_delay(), f64::INFINITY);
        m.lambda_nn = 0.0;
        assert_eq!(m.expected_delay(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "rate must be non-negative")]
    fn negative_direct_rate_panics() {
        let _ = direct_expected_delay(-1e-3, 1);
    }

    #[test]
    #[should_panic(expected = "rates must be non-negative")]
    fn nan_epidemic_rate_panics() {
        let mut m = paper_model();
        m.lambda_ns = f64::NAN;
        let _ = m.expected_delay();
    }

    #[test]
    fn direct_average_ratio_interpolates() {
        // As T → ∞ the average ratio → 1; tiny T → ~0.
        assert!(direct_average_ratio(0.002, 3, 1e7) > 0.99);
        assert!(direct_average_ratio(0.002, 3, 1.0) < 0.01);
        let mid = direct_average_ratio(0.002, 3, 1_000.0);
        assert!((0.1..0.9).contains(&mid), "mid ratio {mid}");
    }

    #[test]
    fn epidemic_beats_direct_on_delay() {
        let m = paper_model();
        let direct = direct_expected_delay(m.lambda_ns, m.sinks);
        let epidemic = m.expected_delay();
        assert!(
            epidemic < direct / 5.0,
            "flooding {epidemic:.0}s should crush direct {direct:.0}s"
        );
    }

    #[test]
    fn epidemic_delay_shrinks_with_population() {
        let mut small = paper_model();
        small.sensors = 20;
        let mut large = paper_model();
        large.sensors = 200;
        assert!(large.expected_delay() < small.expected_delay());
    }

    #[test]
    fn master_equation_is_a_cdf() {
        let m = paper_model();
        let mut prev = 0.0;
        for h in [0.0, 50.0, 200.0, 1_000.0, 5_000.0] {
            let p = m.delivery_probability_by(h, 1.0);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev - 1e-9, "CDF decreased at {h}");
            prev = p;
        }
        assert!(
            prev > 0.9,
            "flooding should almost surely deliver by 5000 s"
        );
    }

    #[test]
    fn master_equation_median_matches_expected_delay_order() {
        let m = paper_model();
        let expected = m.expected_delay();
        let p_at_expected = m.delivery_probability_by(expected, 1.0);
        // For these unimodal first-passage laws the mean sits near the
        // bulk: P(T ≤ E[T]) lands in a broad central band.
        assert!(
            (0.25..0.95).contains(&p_at_expected),
            "P(T<=E[T]) = {p_at_expected}"
        );
    }

    #[test]
    fn single_sensor_epidemic_reduces_to_direct() {
        let mut m = paper_model();
        m.sensors = 1;
        let expected = m.expected_delay();
        let direct = direct_expected_delay(m.lambda_ns, m.sinks);
        assert!((expected - direct).abs() / direct < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn zero_sinks_panics() {
        let _ = direct_expected_delay(0.001, 0);
    }
}
