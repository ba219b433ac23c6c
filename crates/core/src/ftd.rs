//! Message fault-tolerance degree (paper Sec. 3.1.2, Eqs. 2–3).
//!
//! Each message *copy* carries an FTD: the estimated probability that at
//! least one *other* copy reaches the sink. A fresh reading has FTD 0
//! (most important); a copy already handed to a sink has FTD 1. Queues
//! order by ascending FTD and drop copies whose FTD exceeds a threshold.
//!
//! On a multicast of message *M* from sensor *i* (delivery probability ξᵢ)
//! to the receiver set Φ:
//!
//! ```text
//! Eq. 2 (copy handed to j ∈ Φ):
//!   Fⱼ = 1 − (1 − Fᵢ)(1 − ξᵢ)·∏_{m∈Φ, m≠j} (1 − ξₘ)
//! Eq. 3 (sender's own copy):
//!   Fᵢ = 1 − (1 − Fᵢ)·∏_{m∈Φ} (1 − ξₘ)
//! ```

use crate::delivery::DeliveryProb;
use serde::{Deserialize, Serialize};

/// Validates a probability-like input, tolerating ulp-level drift: values
/// within [`DeliveryProb::DRIFT_SLACK`] of the unit interval are clamped
/// onto it, anything further out is a logic error and panics.
fn unit_checked(x: f64, what: &str) -> f64 {
    let slack = DeliveryProb::DRIFT_SLACK;
    assert!(
        x.is_finite() && (-slack..=1.0 + slack).contains(&x),
        "{what} {x} outside [0,1]"
    );
    x.clamp(0.0, 1.0)
}

/// A fault-tolerance degree, invariantly in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use dftmsn_core::ftd::Ftd;
///
/// let fresh = Ftd::NEW;
/// let after = fresh.after_multicast(&[0.5, 0.5]);
/// assert!((after.value() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Ftd(f64);

impl Ftd {
    /// FTD of a freshly sensed message: no other copy exists.
    pub const NEW: Ftd = Ftd(0.0);

    /// Wraps a raw FTD. Ulp-level drift outside the unit interval (within
    /// [`DeliveryProb::DRIFT_SLACK`]) is clamped rather than rejected.
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `[0, 1]` beyond the drift slack, or not
    /// finite.
    #[must_use]
    pub fn new(f: f64) -> Self {
        Ftd(unit_checked(f, "FTD"))
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Eq. 3: the sender's FTD after multicasting to receivers with the
    /// given delivery probabilities.
    ///
    /// An empty receiver set leaves the FTD unchanged. The result is
    /// monotonically non-decreasing: replication never makes a copy more
    /// important.
    ///
    /// # Panics
    ///
    /// Panics if any receiver probability is outside `[0, 1]`.
    #[must_use]
    pub fn after_multicast(self, receiver_xis: &[f64]) -> Ftd {
        let mut others_miss = 1.0;
        for &xi in receiver_xis {
            others_miss *= 1.0 - unit_checked(xi, "receiver ξ");
        }
        // Algebraically identical to 1 − (1 − F)·∏(1 − ξ) but exactly
        // monotone in floating point: the added term is non-negative.
        Ftd((self.0 + (1.0 - self.0) * (1.0 - others_miss)).clamp(0.0, 1.0))
    }

    /// Eq. 2: the FTD attached to the copy handed to receiver `j` of a
    /// multicast, given the sender's pre-multicast FTD (`self`), the
    /// sender's ξ, and the delivery probabilities of the *other* receivers
    /// in Φ.
    ///
    /// From receiver `j`'s point of view the "other copies" are the
    /// sender's retained copy (delivering with ξᵢ) and every co-receiver's
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    #[must_use]
    pub fn receiver_copy(self, sender_xi: f64, other_receiver_xis: &[f64]) -> Ftd {
        let mut survive = (1.0 - self.0) * (1.0 - unit_checked(sender_xi, "sender ξ"));
        for &xi in other_receiver_xis {
            survive *= 1.0 - unit_checked(xi, "receiver ξ");
        }
        Ftd((1.0 - survive).clamp(0.0, 1.0))
    }

    /// The combined delivery probability `1 − (1 − F)·∏(1 − ξₘ)` used by
    /// the receiver-selection loop's stopping rule (Sec. 3.2.2).
    #[must_use]
    pub fn combined_delivery(self, receiver_xis: &[f64]) -> f64 {
        self.after_multicast(receiver_xis).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_message_has_zero_ftd() {
        assert_eq!(Ftd::NEW.value(), 0.0);
    }

    #[test]
    fn eq3_single_receiver() {
        // F' = 1 - (1 - 0)·(1 - 0.4) = 0.4
        let f = Ftd::NEW.after_multicast(&[0.4]);
        assert!((f.value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn eq3_accumulates_over_successive_multicasts() {
        let f1 = Ftd::NEW.after_multicast(&[0.5]);
        let f2 = f1.after_multicast(&[0.5]);
        // 1 - (1-0.5)(1-0.5) = 0.75
        assert!((f2.value() - 0.75).abs() < 1e-12);
        // Equivalent to one multicast to both receivers.
        let joint = Ftd::NEW.after_multicast(&[0.5, 0.5]);
        assert!((f2.value() - joint.value()).abs() < 1e-12);
    }

    #[test]
    fn eq3_is_monotone_nondecreasing() {
        let mut f = Ftd::new(0.2);
        for xi in [0.0, 0.1, 0.3, 0.9] {
            let next = f.after_multicast(&[xi]);
            assert!(next.value() >= f.value());
            f = next;
        }
    }

    #[test]
    fn eq3_with_empty_set_is_identity() {
        let f = Ftd::new(0.3);
        assert_eq!(f.after_multicast(&[]), f);
    }

    #[test]
    fn eq2_receiver_copy_counts_sender_and_others() {
        // Sender ξ = 0.5, co-receiver ξ = 0.25, fresh message:
        // F_j = 1 - (1)(1-0.5)(1-0.25) = 0.625
        let f = Ftd::NEW.receiver_copy(0.5, &[0.25]);
        assert!((f.value() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn eq2_sole_receiver_sees_only_sender_copy() {
        let f = Ftd::NEW.receiver_copy(0.3, &[]);
        assert!((f.value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn eq2_copy_to_lone_receiver_from_dead_end_sender_stays_fresh() {
        // A sender that can never deliver (ξ = 0) hands over a copy as
        // important as its own.
        let f = Ftd::new(0.2).receiver_copy(0.0, &[]);
        assert!((f.value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sink_receiver_maximizes_co_receiver_ftd() {
        // If one co-receiver is a sink (ξ = 1), every other copy becomes
        // redundant: FTD 1.
        let f = Ftd::NEW.receiver_copy(0.1, &[1.0]);
        assert_eq!(f.value(), 1.0);
        let sender = Ftd::NEW.after_multicast(&[1.0, 0.2]);
        assert_eq!(sender.value(), 1.0);
    }

    #[test]
    fn eq2_receivers_get_higher_ftd_than_lone_sender_update() {
        // With two receivers, each copy's FTD (Eq. 2) exceeds what Eq. 3
        // would give the sender for a single-receiver multicast, because
        // more redundancy exists from each copy's viewpoint.
        let ftd_j = Ftd::NEW.receiver_copy(0.5, &[0.5]);
        let ftd_sender_single = Ftd::NEW.after_multicast(&[0.5]);
        assert!(ftd_j.value() > ftd_sender_single.value());
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_xi_panics() {
        let _ = Ftd::NEW.after_multicast(&[1.2]);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_ftd_panics() {
        let _ = Ftd::new(f64::NAN);
    }

    #[test]
    fn ulp_drift_inputs_are_clamped_not_rejected() {
        // Accumulated float drift can push a probability a few ulp past the
        // boundary; the math must absorb it instead of panicking.
        let f = Ftd::new(1.0 + 1e-12);
        assert_eq!(f.value(), 1.0);
        let after = Ftd::NEW.after_multicast(&[1.0 + 1e-12, -1e-12]);
        assert_eq!(after.value(), 1.0);
        let copy = Ftd::new(-1e-12).receiver_copy(1.0 + 1e-12, &[]);
        assert_eq!(copy.value(), 1.0);
    }

    #[test]
    fn boundary_receiver_xis_are_exact() {
        // ξ exactly 0 contributes nothing; ξ exactly 1 saturates.
        let f = Ftd::new(0.4).after_multicast(&[0.0, 0.0]);
        assert_eq!(f.value(), 0.4);
        assert_eq!(Ftd::new(0.4).combined_delivery(&[1.0]), 1.0);
        assert_eq!(Ftd::NEW.combined_delivery(&[]), 0.0);
        assert_eq!(Ftd::new(1.0).combined_delivery(&[]), 1.0);
    }
}
