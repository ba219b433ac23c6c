//! The scale-benchmark tier: engine throughput at 200 / 1 000 / 5 000 /
//! 20 000 sensors.
//!
//! The paper evaluates at 100 sensors; this tier asks how the engine
//! behaves one to two orders of magnitude beyond that. The workload is
//! held honest across sizes by two deliberate choices:
//!
//! * **Constant density, constant aggregate load.** The area grows as
//!   `150 · sqrt(n/100)` per side (so node density and the zone size stay
//!   at the paper's values) and the per-sensor Poisson generation interval
//!   grows as `120 · n/100` s, keeping the *network-wide* offered load at
//!   the paper's ≈0.83 msg/s. Without the latter, larger runs would just
//!   measure queue-overflow churn.
//! * **Contact-accurate trajectory sampling.** The shortest possible
//!   contact window is `range / v_max = 2 s`, so resolving contact
//!   durations (which drive the paper's delivery-probability dynamics)
//!   needs a mobility tick well below that. The tier pins
//!   `mobility_tick_secs = 0.025 s` — 80 position samples per minimal
//!   contact window, 0.125 m of movement per step at `v_max` — at which
//!   point discretization error in contact detection is negligible. Under
//!   [`MobilityMode::Ticked`] that fidelity makes per-tick mobility the
//!   dominant cost at large n; the sleeper-aware lazy mode is built for
//!   exactly this regime, because its event-stepped catch-up gives
//!   *continuous* (tick-free) trajectories at a cost independent of the
//!   sampling fidelity asked of the ticked engine.
//!
//! Each size is measured for both mobility modes on the OPT variant with
//! wall time accumulated in integer nanoseconds. The rows feed the
//! `scale` section of `BENCH_engine.json` (schema `dftmsn-perf-baseline/2`)
//! and the scale table in EXPERIMENTS.md.

use dftmsn_core::params::ScenarioParams;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_core::world::{MobilityMode, Simulation};
use std::time::Instant;

/// Sensor counts of the tracked scale tier. The 50 000- and 100 000-
/// sensor sizes exist to keep the flat per-event cost honest two further
/// doublings out.
pub const SCALE_SENSORS: [usize; 6] = [200, 1_000, 5_000, 20_000, 50_000, 100_000];

/// Simulated seconds per scale run in the full tier.
pub const SCALE_DURATION_SECS: u64 = 300;

/// Simulated seconds per scale run under `--quick` (CI smoke).
pub const QUICK_DURATION_SECS: u64 = 60;

/// The pinned scale scenario for `sensors` nodes (see the module docs for
/// the scaling rationale).
///
/// # Panics
///
/// Panics if the derived scenario fails parameter validation — the
/// scaling rules keep it valid for any `sensors ≥ 1`.
#[must_use]
pub fn scale_scenario(sensors: usize, duration_secs: u64) -> ScenarioParams {
    let side = 150.0 * (sensors as f64 / 100.0).sqrt();
    let zones = (side / 30.0).round().max(1.0) as usize;
    let mut p = ScenarioParams::paper_default();
    p.sensors = sensors;
    p.sinks = (3 * sensors / 100).max(1);
    p.area_width_m = side;
    p.area_height_m = side;
    p.zone_cols = zones;
    p.zone_rows = zones;
    p.data_interval_secs = 120.0 * sensors as f64 / 100.0;
    p.mobility_tick_secs = 0.025;
    p.duration_secs = duration_secs;
    p.validate().expect("scale scenario must be valid");
    p
}

/// One measured (size, mobility-mode) point of the scale tier.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Sensor count of the run.
    pub sensors: usize,
    /// Mobility mode the engine ran under.
    pub mode: MobilityMode,
    /// Wall time of `Simulation::run`, accumulated in integer ns.
    pub wall_ns: u128,
    /// Events popped from the queue (`SimReport::events_processed`).
    pub events: u64,
    /// Messages generated across the run.
    pub generated: u64,
    /// Messages delivered to a sink.
    pub delivered: u64,
    /// Mean end-to-end delay of delivered messages (s).
    pub mean_delay_secs: f64,
}

impl ScaleRow {
    /// Engine throughput in events per wall-clock second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Mean wall cost per event in nanoseconds.
    #[must_use]
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.wall_ns as f64 / self.events as f64
    }

    /// Delivery ratio of the run (0 when nothing was generated).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.generated as f64
    }

    /// Short label for the mode column ("ticked" / "lazy").
    #[must_use]
    pub fn mode_label(&self) -> &'static str {
        match self.mode {
            MobilityMode::Ticked => "ticked",
            MobilityMode::Lazy => "lazy",
        }
    }
}

/// Times one OPT run of the scale scenario (build excluded, `run` only).
#[must_use]
pub fn measure(sensors: usize, duration_secs: u64, mode: MobilityMode) -> ScaleRow {
    let sim = Simulation::builder(scale_scenario(sensors, duration_secs), ProtocolKind::Opt)
        .seed(1)
        .mobility_mode(mode)
        .build();
    let t0 = Instant::now();
    let report = sim.run();
    let wall_ns = t0.elapsed().as_nanos();
    ScaleRow {
        sensors,
        mode,
        wall_ns,
        events: report.events_processed,
        generated: report.generated,
        delivered: report.delivered,
        mean_delay_secs: report.mean_delay_secs,
    }
}

/// Timed runs behind each [`run_tier`] row; the row keeps the fastest.
/// `scale_check` gates its re-measured rows against committed rows that
/// `perf_baseline` records with this same statistic.
pub const REPS: usize = 5;

/// Runs the tier: every size in `sizes` under both mobility modes,
/// Ticked first (rows come back grouped by size), each row the fastest of
/// [`REPS`] runs. Every run does the same deterministic work, so the
/// spread between runs is the host's; the repetitions go round-robin over
/// the rows, so a slow stretch of the host costs one run of several rows,
/// not every run of one.
#[must_use]
pub fn run_tier(sizes: &[usize], duration_secs: u64) -> Vec<ScaleRow> {
    let mut rows: Vec<ScaleRow> = Vec::with_capacity(sizes.len() * 2);
    for _ in 0..REPS {
        for &n in sizes {
            for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
                let run = measure(n, duration_secs, mode);
                match rows.iter_mut().find(|r| r.sensors == n && r.mode == mode) {
                    Some(best) if run.wall_ns < best.wall_ns => *best = run,
                    Some(_) => {}
                    None => rows.push(run),
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_scenarios_preserve_density_and_load() {
        let base = scale_scenario(100, 300);
        assert!((base.area_width_m - 150.0).abs() < 1e-9);
        assert_eq!(base.sinks, 3);
        for n in SCALE_SENSORS {
            let s = scale_scenario(n, 300);
            let density = n as f64 / (s.area_width_m * s.area_height_m);
            let base_density = 100.0 / (150.0 * 150.0);
            assert!(
                (density - base_density).abs() / base_density < 1e-9,
                "density drifted at n={n}"
            );
            // Aggregate offered load n / interval is the paper's constant.
            let load = n as f64 / s.data_interval_secs;
            assert!((load - 100.0 / 120.0).abs() < 1e-9, "load drifted at n={n}");
            // Zones keep the paper's ~30 m side.
            let zone_side = s.area_width_m / s.zone_cols as f64;
            assert!((25.0..=35.0).contains(&zone_side), "zone side {zone_side}");
            assert_eq!(s.sinks, 3 * n / 100);
            assert!((s.mobility_tick_secs - 0.025).abs() < 1e-12);
        }
    }

    #[test]
    fn measure_smoke_runs_both_modes() {
        // A deliberately tiny size so the debug-built test stays fast; the
        // real tier sizes are exercised by the perf_baseline binary.
        for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
            let row = measure(50, 30, mode);
            assert_eq!(row.sensors, 50);
            assert!(row.events > 0, "{mode:?}: no events processed");
            assert!(row.wall_ns > 0);
            assert!(row.events_per_sec() > 0.0);
            assert!(row.ns_per_event() > 0.0);
        }
    }

    #[test]
    fn empty_rows_divide_safely() {
        let row = ScaleRow {
            sensors: 0,
            mode: MobilityMode::Ticked,
            wall_ns: 0,
            events: 0,
            generated: 0,
            delivered: 0,
            mean_delay_secs: 0.0,
        };
        assert_eq!(row.events_per_sec(), 0.0);
        assert_eq!(row.ns_per_event(), 0.0);
        assert_eq!(row.delivery_ratio(), 0.0);
    }
}
