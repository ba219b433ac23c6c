//! Adaptive periodic sleeping (paper Sec. 4.1, Eqs. 4–8).
//!
//! A node tracks in how many of its last *S* working cycles it transmitted
//! successfully (ρᵢ, Eq. 4) and how urgent its buffered messages are
//! (αᵢ, Eq. 5). The sleeping period interpolates between `T_min` (busy or
//! urgent) and `T_max` (idle and relaxed):
//!
//! ```text
//! Eq. 6:  Tᵢ = max(T_min, T_min · (1/ρᵢ − 1) / (1 − H + αᵢ))
//! Eq. 7:  T_min ≥ 2·P_change / (P_idle − P_sleep)
//! Eq. 8:  T_max = (S − 1)/H · T_min
//! ```

use crate::params::ProtocolParams;
use dftmsn_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Per-node sleep controller implementing Eqs. 4–8.
///
/// # Examples
///
/// ```
/// use dftmsn_core::params::ProtocolParams;
/// use dftmsn_core::sleep::SleepController;
///
/// let p = ProtocolParams::paper_default();
/// let mut ctl = SleepController::new(p.history_window_s);
/// for _ in 0..10 {
///     ctl.record_cycle(false); // nothing but failures
/// }
/// let idle_sleep = ctl.sleep_duration(0.0, &p);
/// for _ in 0..10 {
///     ctl.record_cycle(true); // the node becomes busy again
/// }
/// let busy_sleep = ctl.sleep_duration(0.0, &p);
/// assert!(busy_sleep < idle_sleep);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SleepController {
    /// The last `len` cycle outcomes as a bit ring, newest in bit 0; bits
    /// at and above `len` are zero. Kept inline so the per-cycle update
    /// touches no heap memory.
    bits: u64,
    /// Recorded outcomes, up to `window`.
    len: u8,
    /// The history window S, at most `MAX_WINDOW`.
    window: u8,
}

impl SleepController {
    /// The largest supported history window S: one bit per cycle in a
    /// `u64`.
    pub(crate) const MAX_WINDOW: usize = 64;

    /// Creates a controller with a success-history window of `s` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `s < 2` (Eq. 8 needs `S − 1 ≥ 1`) or `s > 64` (one bit
    /// per cycle in a `u64`).
    #[must_use]
    pub fn new(s: usize) -> Self {
        assert!(s >= 2, "history window S must be at least 2");
        assert!(
            s <= Self::MAX_WINDOW,
            "history window S must be at most {}",
            Self::MAX_WINDOW
        );
        SleepController {
            bits: 0,
            len: 0,
            window: s as u8,
        }
    }

    /// The history window size S.
    #[must_use]
    pub fn window(&self) -> usize {
        usize::from(self.window)
    }

    /// The recorded cycle outcomes, oldest first, for checkpointing.
    pub fn history(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        (0..self.len).rev().map(|age| (self.bits >> age) & 1 == 1)
    }

    /// Records whether the just-finished working cycle transmitted
    /// successfully.
    pub fn record_cycle(&mut self, success: bool) {
        // The outcome that ages past S shifts out of the top.
        let mask = u64::MAX >> (64 - u32::from(self.window));
        self.bits = ((self.bits << 1) | u64::from(success)) & mask;
        self.len = (self.len + 1).min(self.window);
    }

    /// Number of successes in the recorded window.
    #[must_use]
    pub fn successes(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// ρᵢ of Eq. 4: the success fraction over the last S cycles, floored
    /// at `1/S` so Eq. 6 stays finite.
    ///
    /// **Documented prior:** before any cycle completes (zero recorded
    /// cycles) the controller reports exactly 1 — an optimistic "fully
    /// busy" estimate that makes Eq. 6 yield `T_min`, so a fresh node never
    /// oversleeps its first contacts. This branch exists so the zero-cycle
    /// case never reaches the 0/0-adjacent `successes/S` division below.
    #[must_use]
    pub fn rho(&self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        let s = self.window as f64;
        let successes = self.successes() as f64;
        if successes == 0.0 {
            1.0 / s
        } else {
            successes / s
        }
    }

    /// The sleeping period Tᵢ of Eq. 6, clamped to `[T_min, T_max]`
    /// (Eq. 8) and never below the event-queue tick granularity: a
    /// degenerate `T_min` of zero must still schedule a wake-up strictly in
    /// the future, or the sleep/wake cycle would livelock at the current
    /// simulation instant.
    ///
    /// `urgency` is αᵢ of Eq. 5 (fraction of buffer slots holding messages
    /// below the urgency FTD bound).
    ///
    /// # Panics
    ///
    /// Panics if `urgency` is outside `[0, 1]`.
    #[must_use]
    pub fn sleep_duration(&self, urgency: f64, params: &ProtocolParams) -> SimDuration {
        assert!(
            (0.0..=1.0).contains(&urgency),
            "urgency {urgency} outside [0,1]"
        );
        let rho = self.rho();
        let t_min = params.t_min_secs;
        let raw = t_min * (1.0 / rho - 1.0) / (1.0 - params.sleep_h + urgency);
        let t = raw.max(t_min);
        SimDuration::from_secs_f64(t)
            .clamp(SimDuration::from_secs_f64(t_min), params.t_max())
            .max(SimDuration::from_ticks(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ProtocolParams {
        // Pin the Eq. 6 constants so the spot checks below stay valid even
        // if the tuned defaults move.
        ProtocolParams {
            t_min_secs: 1.0,
            sleep_h: 0.5,
            history_window_s: 10,
            ..ProtocolParams::paper_default()
        }
    }

    fn filled(successes: usize, total: usize) -> SleepController {
        let mut c = SleepController::new(params().history_window_s);
        for i in 0..total {
            c.record_cycle(i < successes);
        }
        c
    }

    #[test]
    fn rho_matches_eq4() {
        // s_i successes out of S = 10.
        assert!((filled(4, 10).rho() - 0.4).abs() < 1e-12);
        // Zero successes floor at 1/S.
        assert!((filled(0, 10).rho() - 0.1).abs() < 1e-12);
        // Fresh controller is optimistic.
        assert_eq!(SleepController::new(10).rho(), 1.0);
    }

    #[test]
    fn window_slides() {
        let mut c = SleepController::new(3);
        c.record_cycle(true);
        c.record_cycle(true);
        c.record_cycle(true);
        assert_eq!(c.successes(), 3);
        c.record_cycle(false);
        c.record_cycle(false);
        c.record_cycle(false);
        assert_eq!(c.successes(), 0, "old successes aged out");
    }

    #[test]
    fn fully_successful_node_sleeps_t_min() {
        let p = params();
        let c = filled(10, 10);
        assert_eq!(
            c.sleep_duration(0.0, &p),
            SimDuration::from_secs_f64(p.t_min_secs)
        );
    }

    #[test]
    fn idle_node_sleeps_up_to_t_max() {
        let p = params();
        let c = filled(0, 10);
        // ρ = 0.1 → raw = 1·9/(1−0.5+0) = 18 s = T_max exactly.
        let t = c.sleep_duration(0.0, &p);
        assert_eq!(t, p.t_max());
    }

    #[test]
    fn urgency_shortens_sleep() {
        let p = params();
        let c = filled(2, 10);
        let relaxed = c.sleep_duration(0.0, &p);
        let urgent = c.sleep_duration(1.0, &p);
        assert!(urgent < relaxed, "{urgent} !< {relaxed}");
        assert!(urgent >= SimDuration::from_secs_f64(p.t_min_secs));
    }

    #[test]
    fn eq6_value_spot_check() {
        let p = params();
        // ρ = 0.5, α = 0.5, H = 0.5 → T = 1·(1/0.5 − 1)/(1 − 0.5 + 0.5) = 1 s.
        let c = filled(5, 10);
        let t = c.sleep_duration(0.5, &p).as_secs_f64();
        assert!((t - 1.0).abs() < 1e-9, "got {t}");
        // ρ = 0.2, α = 0 → T = 1·4/0.5 = 8 s.
        let c = filled(2, 10);
        let t = c.sleep_duration(0.0, &p).as_secs_f64();
        assert!((t - 8.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn result_always_within_bounds() {
        let p = params();
        for succ in 0..=10 {
            for urg in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let t = filled(succ, 10).sleep_duration(urg, &p);
                assert!(t >= SimDuration::from_secs_f64(p.t_min_secs));
                assert!(t <= p.t_max());
            }
        }
    }

    #[test]
    fn fresh_controller_prior_yields_t_min() {
        // The zero-cycle prior ρ = 1 must short-circuit Eq. 6 to T_min
        // without touching the successes/S division.
        let p = params();
        let c = SleepController::new(p.history_window_s);
        assert_eq!(c.rho(), 1.0);
        assert_eq!(
            c.sleep_duration(0.0, &p),
            SimDuration::from_secs_f64(p.t_min_secs)
        );
    }

    #[test]
    fn degenerate_t_min_still_sleeps_one_tick() {
        // T_min = 0 collapses Eq. 6 and Eq. 8 to zero; the controller must
        // still return a strictly positive duration so the wake-up event
        // lands in the future.
        let p = ProtocolParams {
            t_min_secs: 0.0,
            ..params()
        };
        for succ in [0, 5, 10] {
            let t = filled(succ, 10).sleep_duration(0.0, &p);
            assert!(t >= SimDuration::from_ticks(1), "succ {succ}: {t}");
        }
        let fresh = SleepController::new(10).sleep_duration(1.0, &p);
        assert_eq!(fresh, SimDuration::from_ticks(1));
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_urgency_panics() {
        let _ = filled(1, 1).sleep_duration(1.5, &params());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_window_panics() {
        let _ = SleepController::new(1);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_window_panics() {
        let _ = SleepController::new(65);
    }
}
