//! Scenario and protocol parameters.
//!
//! [`ScenarioParams`] describes the deployment (area, nodes, traffic,
//! radio); [`ProtocolParams`] the protocol constants (Eqs. 1–14). Defaults
//! reproduce the paper's Sec. 5 setup; see `DESIGN.md` for the handful of
//! constants the OCR of the paper dropped and how they were chosen.

use crate::sleep::SleepController;
use dftmsn_radio::channel::ChannelParams;
use dftmsn_radio::energy::EnergyModel;
use dftmsn_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// A scenario or protocol parameter set failed validation.
///
/// The message names the first violated constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidParams(String);

impl InvalidParams {
    fn new(msg: impl Into<String>) -> Self {
        InvalidParams(msg.into())
    }

    /// The human-readable constraint violation.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for InvalidParams {}

/// Longest time a scenario or protocol parameter may span (s): 2³² s, over
/// a century, keeps every instant a run can schedule far inside the range
/// of the simulator's microsecond clock.
const MAX_SECS: f64 = 4_294_967_296.0;

/// Most cells the spatial grid and the zone grid may each span. Both
/// allocate per cell up front; 2²² range-sized cells is a 20 km square at
/// the paper's 10 m range, far beyond any scenario here (the 100 000-sensor
/// scale row spans 225 625).
const MAX_GRID_CELLS: usize = 1 << 22;

/// Most slots a listening period or contention window may be searched
/// over or fixed at.
const MAX_SLOTS: u64 = 1 << 16;

/// Checks that `secs` is at most [`MAX_SECS`] and at least one tick of the
/// simulator's clock (1 µs) — or, when `zero_ok`, non-negative. NaN fails.
fn check_secs(name: &str, secs: f64, zero_ok: bool) -> Result<(), InvalidParams> {
    let floor = if zero_ok { 0.0 } else { 1e-6 };
    if (floor..=MAX_SECS).contains(&secs) {
        Ok(())
    } else {
        Err(InvalidParams::new(format!(
            "{name} must be within [{floor}, 2^32] s, got {secs}"
        )))
    }
}

/// Deployment, traffic and radio configuration (paper Sec. 5).
///
/// Marked `#[non_exhaustive]`: construct via [`ScenarioParams::paper_default`]
/// or [`ScenarioParams::smoke_test`] and adjust fields (they stay public) or
/// chain the `with_*` builders — new knobs can then land without a breaking
/// change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ScenarioParams {
    /// Deployment area width (m).
    pub area_width_m: f64,
    /// Deployment area height (m).
    pub area_height_m: f64,
    /// Zone grid columns.
    pub zone_cols: usize,
    /// Zone grid rows.
    pub zone_rows: usize,
    /// Number of wearable sensor nodes.
    pub sensors: usize,
    /// Number of high-end sink nodes.
    pub sinks: usize,
    /// Minimum node speed (m/s).
    pub speed_min_mps: f64,
    /// Maximum node speed (m/s).
    pub speed_max_mps: f64,
    /// Probability of crossing a non-home zone boundary (paper: 0.2).
    pub zone_exit_prob: f64,
    /// Sensor queue capacity in messages (paper: 200).
    pub queue_capacity: usize,
    /// Mean Poisson data-generation interval per sensor (s; paper: 120).
    pub data_interval_secs: f64,
    /// Data message size (bits; paper: 1000).
    pub data_bits: u64,
    /// Control packet size (bits; paper: 50).
    pub control_bits: u64,
    /// Radio channel (bandwidth, range).
    pub channel: ChannelParams,
    /// Radio energy model.
    pub energy: EnergyModel,
    /// Simulated duration (s; paper: 25 000).
    pub duration_secs: u64,
    /// Mobility integration step (s).
    pub mobility_tick_secs: f64,
}

impl ScenarioParams {
    /// The paper's default setup: 100 sensors, 3 sinks, 150×150 m² in 25
    /// zones, 0–5 m/s, 10 m range, 10 kbps, 25 000 s.
    #[must_use]
    pub fn paper_default() -> Self {
        ScenarioParams {
            area_width_m: 150.0,
            area_height_m: 150.0,
            zone_cols: 5,
            zone_rows: 5,
            sensors: 100,
            sinks: 3,
            speed_min_mps: 0.0,
            speed_max_mps: 5.0,
            zone_exit_prob: 0.2,
            queue_capacity: 200,
            data_interval_secs: 120.0,
            data_bits: 1000,
            control_bits: 50,
            channel: ChannelParams::paper_default(),
            energy: EnergyModel::berkeley_mote(),
            duration_secs: 25_000,
            mobility_tick_secs: 0.5,
        }
    }

    /// A small, fast scenario for tests and examples (same physics,
    /// fewer nodes, shorter run).
    #[must_use]
    pub fn smoke_test() -> Self {
        ScenarioParams {
            sensors: 30,
            sinks: 2,
            duration_secs: 1_500,
            ..Self::paper_default()
        }
    }

    /// Sets the number of sink nodes (builder style).
    #[must_use]
    pub fn with_sinks(mut self, sinks: usize) -> Self {
        self.sinks = sinks;
        self
    }

    /// Sets the number of sensor nodes (builder style).
    #[must_use]
    pub fn with_sensors(mut self, sensors: usize) -> Self {
        self.sensors = sensors;
        self
    }

    /// Sets the maximum node speed (builder style).
    #[must_use]
    pub fn with_max_speed(mut self, v: f64) -> Self {
        self.speed_max_mps = v;
        self
    }

    /// Sets the simulated duration in seconds (builder style).
    #[must_use]
    pub fn with_duration_secs(mut self, secs: u64) -> Self {
        self.duration_secs = secs;
        self
    }

    /// Total number of nodes (sensors + sinks).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.sensors + self.sinks
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        if self.sensors == 0 {
            return Err(InvalidParams::new("need at least one sensor"));
        }
        if self.sinks == 0 {
            return Err(InvalidParams::new("need at least one sink"));
        }
        if self.sensors.checked_add(self.sinks).is_none() {
            return Err(InvalidParams::new("node count overflows"));
        }
        if self.zone_cols == 0 || self.zone_rows == 0 {
            return Err(InvalidParams::new("zone grid must be non-empty"));
        }
        if self
            .zone_cols
            .checked_mul(self.zone_rows)
            .is_none_or(|zones| zones > MAX_GRID_CELLS)
        {
            return Err(InvalidParams::new(format!(
                "zone grid must have at most {MAX_GRID_CELLS} zones"
            )));
        }
        let (w, h) = (self.area_width_m, self.area_height_m);
        if !(w > 0.0 && h > 0.0 && w.is_finite() && h.is_finite()) {
            return Err(InvalidParams::new("area must be positive and finite"));
        }
        let range = self.channel.range_m;
        if !(range > 0.0 && range.is_finite()) {
            return Err(InvalidParams::new(
                "transmission range must be positive and finite",
            ));
        }
        // Every spatial-grid cell is at least one range wide (ticked runs
        // use 4·range, lazy ones the inflated query radius), so this
        // bounds the grid's up-front bucket allocation in either mode.
        let cells = (w / range).ceil() * (h / range).ceil();
        if cells > MAX_GRID_CELLS as f64 {
            return Err(InvalidParams::new(format!(
                "a {w}×{h} m area spans more than {MAX_GRID_CELLS} grid cells of the \
                 {range} m range"
            )));
        }
        if !(self.speed_min_mps >= 0.0
            && self.speed_max_mps >= self.speed_min_mps
            && self.speed_max_mps.is_finite())
        {
            return Err(InvalidParams::new("invalid speed range"));
        }
        if !(0.0..=1.0).contains(&self.zone_exit_prob) {
            return Err(InvalidParams::new("zone_exit_prob must be a probability"));
        }
        if self.queue_capacity == 0 {
            return Err(InvalidParams::new("queue capacity must be positive"));
        }
        check_secs("data interval", self.data_interval_secs, false)?;
        if self.channel.bandwidth_bps == 0 {
            return Err(InvalidParams::new("channel bandwidth must be positive"));
        }
        let airtime =
            self.data_bits.max(self.control_bits) as f64 / self.channel.bandwidth_bps as f64;
        if airtime > MAX_SECS {
            return Err(InvalidParams::new(
                "a frame's airtime must be at most 2^32 s",
            ));
        }
        let e = &self.energy;
        if ![e.p_tx_w, e.p_rx_w, e.p_idle_w, e.p_sleep_w, e.e_switch_j]
            .iter()
            .all(|v| (0.0..f64::INFINITY).contains(v))
        {
            return Err(InvalidParams::new(
                "energy figures must be finite and non-negative",
            ));
        }
        check_secs("mobility tick", self.mobility_tick_secs, false)?;
        // Neighbour queries are widened by how far a node can drift: the
        // ticked contact cache by 2·v·(0.25 s + tick), lazy mobility by
        // v·sync_every (both derived in world_mobility.rs, with v floored
        // at 0.2 m/s). A finite speed can still overflow either radius, and
        // the spatial grid refuses a non-finite one.
        let v = self.speed_max_mps.max(0.2);
        let sync_every = (range / v).clamp(self.mobility_tick_secs.min(30.0), 30.0);
        let radii = [
            range + 2.0 * v * (0.25 + self.mobility_tick_secs),
            range + v * sync_every,
        ];
        if !radii.iter().all(|r| r.is_finite()) {
            return Err(InvalidParams::new(format!(
                "maximum speed {:?} m/s makes the neighbour query radius infinite",
                self.speed_max_mps
            )));
        }
        check_secs("duration", self.duration_secs as f64, false)?;
        Ok(())
    }
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Protocol constants (paper Secs. 3–4). Field names follow the paper's
/// notation where one exists.
///
/// Marked `#[non_exhaustive]`: construct via
/// [`ProtocolParams::paper_default`] and adjust fields or chain the
/// `with_*` builders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ProtocolParams {
    /// Eq. 1 memory constant α ∈ [0, 1].
    pub alpha: f64,
    /// Eq. 1 timeout Δ: the delivery probability decays when no
    /// transmission happened within this interval (s).
    pub xi_timeout_secs: f64,
    /// Delivery threshold R of the receiver-selection loop (Sec. 3.2.2).
    pub delivery_threshold_r: f64,
    /// Messages whose FTD exceeds this are dropped from the queue
    /// (Sec. 3.1.2).
    pub ftd_drop_threshold: f64,
    /// L: a node sleeps after this many consecutive cycles without acting
    /// as sender or receiver (Sec. 3.2).
    pub inactivity_cycles_l: usize,
    /// S: length of the transmission-success history window (Eq. 4),
    /// `2 ≤ S ≤ 64` (the paper uses 10). Each node keeps its history as
    /// one bit per cycle in a `u64`.
    pub history_window_s: usize,
    /// H: buffer-urgency threshold of Eq. 6 (also bounds T_max via Eq. 8).
    pub sleep_h: f64,
    /// FTD bound F̄ used by Eq. 5's urgency count (messages with FTD below
    /// it are "urgent").
    pub urgency_ftd_bound: f64,
    /// Minimum sleeping period T_min (s). Must respect Eq. 7; the default
    /// (1 s) is far above the Berkeley-mote bound (~16 ms).
    pub t_min_secs: f64,
    /// Target collision probability H for Eq. 13 (RTS/preamble phase).
    pub tau_collision_target: f64,
    /// Upper bound on the adaptive τ_max search (listening slots).
    pub tau_max_cap_slots: u64,
    /// Fixed τ_max (slots) used when optimization is disabled (NOOPT).
    pub tau_max_fixed_slots: u64,
    /// Target collision probability for Eq. 14 (CTS window search).
    pub cts_collision_target: f64,
    /// Upper bound on the adaptive contention-window search (slots).
    pub cts_window_cap: u64,
    /// Fixed contention window W (slots) when optimization is disabled.
    pub cts_window_fixed: u64,
    /// Fixed sleeping period (s) when sleep optimization is disabled
    /// (NOOPT still sleeps, with a constant period).
    pub fixed_sleep_secs: f64,
    /// Frame-processing gap added to CTS/ACK slots and guard margins (s).
    pub proc_gap_secs: f64,
    /// Idle backoff range between failed attempts while awake (s).
    pub backoff_min_secs: f64,
    /// Upper end of the idle backoff range (s).
    pub backoff_max_secs: f64,
    /// Awake window a node with an empty queue spends listening per cycle
    /// before re-evaluating the sleep policy (s).
    pub receiver_window_secs: f64,
    /// Neighbor-table entries older than this are ignored (s).
    pub neighbor_ttl_secs: f64,
}

impl ProtocolParams {
    /// Defaults documented in DESIGN.md §4.
    #[must_use]
    pub fn paper_default() -> Self {
        ProtocolParams {
            alpha: 0.25,
            xi_timeout_secs: 30.0,
            delivery_threshold_r: 0.95,
            ftd_drop_threshold: 0.995,
            inactivity_cycles_l: 3,
            history_window_s: 10,
            sleep_h: 0.9,
            urgency_ftd_bound: 0.5,
            t_min_secs: 0.4,
            tau_collision_target: 0.1,
            tau_max_cap_slots: 32,
            tau_max_fixed_slots: 8,
            cts_collision_target: 0.1,
            cts_window_cap: 32,
            cts_window_fixed: 8,
            fixed_sleep_secs: 5.0,
            proc_gap_secs: 0.002,
            backoff_min_secs: 0.2,
            backoff_max_secs: 1.0,
            receiver_window_secs: 0.5,
            neighbor_ttl_secs: 30.0,
        }
    }

    /// Sets the Eq. 1 memory constant α (builder style).
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the Eq. 1 decay timeout Δ in seconds (builder style).
    #[must_use]
    pub fn with_xi_timeout_secs(mut self, secs: f64) -> Self {
        self.xi_timeout_secs = secs;
        self
    }

    /// Sets the delivery threshold R (builder style).
    #[must_use]
    pub fn with_delivery_threshold_r(mut self, r: f64) -> Self {
        self.delivery_threshold_r = r;
        self
    }

    /// Sets the FTD drop threshold (builder style).
    #[must_use]
    pub fn with_ftd_drop_threshold(mut self, threshold: f64) -> Self {
        self.ftd_drop_threshold = threshold;
        self
    }

    /// Sets the minimum sleeping period T_min in seconds (builder style).
    #[must_use]
    pub fn with_t_min_secs(mut self, secs: f64) -> Self {
        self.t_min_secs = secs;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        for (name, p) in [
            ("alpha", self.alpha),
            ("delivery_threshold_r", self.delivery_threshold_r),
            ("ftd_drop_threshold", self.ftd_drop_threshold),
            ("sleep_h", self.sleep_h),
            ("urgency_ftd_bound", self.urgency_ftd_bound),
            ("tau_collision_target", self.tau_collision_target),
            ("cts_collision_target", self.cts_collision_target),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(InvalidParams::new(format!(
                    "{name} must be in [0,1], got {p}"
                )));
            }
        }
        if self.sleep_h <= 0.0 {
            return Err(InvalidParams::new(
                "sleep_h must be positive (Eq. 8 divides by it)",
            ));
        }
        if self.history_window_s < 2 {
            return Err(InvalidParams::new("history window S must be at least 2"));
        }
        if self.history_window_s > SleepController::MAX_WINDOW {
            return Err(InvalidParams::new(format!(
                "history window S must be at most {}, got {}",
                SleepController::MAX_WINDOW,
                self.history_window_s
            )));
        }
        if self.inactivity_cycles_l == 0 {
            return Err(InvalidParams::new("L must be positive"));
        }
        check_secs("T_min", self.t_min_secs, false)?;
        check_secs("the fixed sleeping period", self.fixed_sleep_secs, false)?;
        for slots in [
            self.tau_max_cap_slots,
            self.tau_max_fixed_slots,
            self.cts_window_cap,
            self.cts_window_fixed,
        ] {
            if !(1..=MAX_SLOTS).contains(&slots) {
                return Err(InvalidParams::new(format!(
                    "slot counts must be in 1..={MAX_SLOTS}, got {slots}"
                )));
            }
        }
        check_secs("backoff minimum", self.backoff_min_secs, true)?;
        check_secs("backoff maximum", self.backoff_max_secs, true)?;
        if self.backoff_max_secs < self.backoff_min_secs {
            return Err(InvalidParams::new("invalid backoff range"));
        }
        check_secs("xi timeout", self.xi_timeout_secs, false)?;
        check_secs("processing gap", self.proc_gap_secs, true)?;
        check_secs("receiver window", self.receiver_window_secs, true)?;
        check_secs("neighbor TTL", self.neighbor_ttl_secs, true)?;
        Ok(())
    }

    /// The maximum sleeping period T_max of Eq. 8:
    /// `T_max = (S − 1)/H · T_min`.
    #[must_use]
    pub fn t_max(&self) -> SimDuration {
        SimDuration::from_secs_f64(
            (self.history_window_s as f64 - 1.0) / self.sleep_h * self.t_min_secs,
        )
    }
}

impl Default for ProtocolParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        ScenarioParams::paper_default().validate().unwrap();
        ProtocolParams::paper_default().validate().unwrap();
    }

    #[test]
    fn paper_defaults_match_the_paper() {
        let s = ScenarioParams::paper_default();
        assert_eq!(s.sensors, 100);
        assert_eq!(s.sinks, 3);
        assert_eq!(s.zone_cols * s.zone_rows, 25);
        assert_eq!(s.queue_capacity, 200);
        assert_eq!(s.data_bits, 1000);
        assert_eq!(s.control_bits, 50);
        assert_eq!(s.channel.bandwidth_bps, 10_000);
        assert_eq!(s.channel.range_m, 10.0);
        assert_eq!(s.duration_secs, 25_000);
        assert_eq!(s.data_interval_secs, 120.0);
        assert_eq!(s.speed_max_mps, 5.0);
        assert_eq!(s.zone_exit_prob, 0.2);
    }

    #[test]
    fn builders_compose() {
        let s = ScenarioParams::paper_default()
            .with_sinks(7)
            .with_sensors(50)
            .with_max_speed(2.0)
            .with_duration_secs(100);
        assert_eq!(s.sinks, 7);
        assert_eq!(s.sensors, 50);
        assert_eq!(s.speed_max_mps, 2.0);
        assert_eq!(s.duration_secs, 100);
        assert_eq!(s.node_count(), 57);
        s.validate().unwrap();
    }

    #[test]
    fn t_min_respects_eq7_bound() {
        let p = ProtocolParams::paper_default();
        let s = ScenarioParams::paper_default();
        assert!(p.t_min_secs >= s.energy.min_sleep().as_secs_f64());
    }

    #[test]
    fn t_max_follows_eq8() {
        let p = ProtocolParams::paper_default();
        // (10 - 1) / 0.9 * 0.4 s = 4 s.
        assert!((p.t_max().as_secs_f64() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut s = ScenarioParams::paper_default();
        s.sinks = 0;
        assert!(s.validate().is_err());

        let mut s = ScenarioParams::paper_default();
        s.speed_max_mps = -1.0;
        assert!(s.validate().is_err());

        let mut p = ProtocolParams::paper_default();
        p.alpha = 1.5;
        assert!(p.validate().is_err());

        let mut p = ProtocolParams::paper_default();
        p.history_window_s = 1;
        assert!(p.validate().is_err());
        p.history_window_s = 64;
        assert!(p.validate().is_ok());
        p.history_window_s = 65;
        assert!(p.validate().is_err());

        let mut p = ProtocolParams::paper_default();
        p.backoff_max_secs = 0.0;
        p.backoff_min_secs = 1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_bounds_what_a_run_allocates_and_schedules() {
        type Tweak = fn(&mut ScenarioParams, &mut ProtocolParams);
        let rejected: [(&str, Tweak); 15] = [
            ("zones", |s, _| s.zone_cols = usize::MAX),
            ("node count", |s, _| s.sensors = usize::MAX),
            ("area", |s, _| s.area_width_m = f64::INFINITY),
            ("grid cells", |s, _| s.area_width_m = 1e12),
            ("range", |s, _| s.channel.range_m = f64::NAN),
            ("speed", |s, _| s.speed_max_mps = f64::INFINITY),
            ("query radius", |s, _| s.speed_max_mps = 1e308),
            ("airtime", |s, _| s.data_bits = u64::MAX),
            ("energy", |s, _| s.energy.p_idle_w = f64::NAN),
            ("tick", |s, _| s.mobility_tick_secs = 1e-300),
            ("duration", |s, _| s.duration_secs = 1 << 40),
            ("S", |_, p| p.history_window_s = 1 << 40),
            ("slots", |_, p| p.tau_max_cap_slots = 1 << 20),
            ("xi timeout", |_, p| p.xi_timeout_secs = f64::NAN),
            ("neighbor TTL", |_, p| p.neighbor_ttl_secs = -1.0),
        ];
        for (what, tweak) in rejected {
            let (mut s, mut p) = (
                ScenarioParams::paper_default(),
                ProtocolParams::paper_default(),
            );
            tweak(&mut s, &mut p);
            assert!(
                s.validate().is_err() || p.validate().is_err(),
                "{what} accepted"
            );
        }
        // The widest scenario in the repository, the 100 000-sensor scale
        // row, stays valid.
        let mut s = ScenarioParams::paper_default();
        s.sensors = 100_000;
        s.area_width_m = 150.0 * 1000f64.sqrt();
        s.area_height_m = s.area_width_m;
        s.mobility_tick_secs = 0.025;
        s.validate().unwrap();
    }

    #[test]
    fn smoke_test_scenario_is_valid_and_small() {
        let s = ScenarioParams::smoke_test();
        s.validate().unwrap();
        assert!(s.sensors < ScenarioParams::paper_default().sensors);
        assert!(s.duration_secs < ScenarioParams::paper_default().duration_secs);
    }
}
