//! Sensitivity study over the protocol constants the paper leaves
//! unspecified (α, Δ, R, the FTD drop threshold, T_min) — the calibrated
//! assumptions documented in DESIGN.md. Each knob is swept
//! one-at-a-time around the default on the 3-sink OPT scenario.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin sensitivity
//! [--quick] [--seeds N] [--duration SECS]`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{exit_status, publish, ExperimentOpts};
use dftmsn_bench::note;
use dftmsn_bench::sweep::{average, run_all, RunSpec};
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_metrics::table::Table;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ExperimentOpts::from_args();
    let base = ProtocolParams::paper_default();

    let mut cases: Vec<(String, ProtocolParams)> = vec![("default".into(), base.clone())];
    for alpha in [0.1, 0.5] {
        cases.push((format!("alpha={alpha}"), base.clone().with_alpha(alpha)));
    }
    for delta in [15.0, 60.0, 120.0] {
        cases.push((
            format!("Delta={delta}s"),
            base.clone().with_xi_timeout_secs(delta),
        ));
    }
    for r in [0.8, 0.99] {
        cases.push((format!("R={r}"), base.clone().with_delivery_threshold_r(r)));
    }
    for th in [0.9, 0.95, 1.0] {
        cases.push((
            format!("ftd_drop={th}"),
            base.clone().with_ftd_drop_threshold(th),
        ));
    }
    for t_min in [1.0, 2.0] {
        cases.push((
            format!("T_min={t_min}s"),
            base.clone().with_t_min_secs(t_min),
        ));
    }

    note!(
        "sensitivity: {} configurations x {} seeds @ {} s",
        cases.len(),
        opts.seeds,
        opts.duration_secs
    );

    let mut specs = Vec::new();
    for (_, protocol) in &cases {
        for seed in 0..opts.seeds {
            specs.push(RunSpec {
                scenario: ScenarioParams::paper_default().with_duration_secs(opts.duration_secs),
                protocol: protocol.clone(),
                config: ProtocolKind::Opt.config(),
                seed: seed + 1,
                faults: FaultPlan::default(),
                observe_window_secs: None,
                policy: PolicySpec::Builtin,
            });
        }
    }
    let reports = run_all(&specs, opts.threads);

    let mut table = Table::new(
        "Sensitivity of OPT (3 sinks) to the calibrated protocol constants",
        &[
            "setting",
            "ratio (%)",
            "power (mW)",
            "delay (s)",
            "collisions",
        ],
    );
    for (ci, (name, _)) in cases.iter().enumerate() {
        let start = ci * opts.seeds as usize;
        let avg = average(&reports[start..start + opts.seeds as usize]);
        table.row(vec![
            name.clone().into(),
            (avg.ratio.mean() * 100.0).into(),
            avg.power_mw.mean().into(),
            avg.delay_secs.mean().into(),
            avg.collisions.mean().into(),
        ]);
    }
    exit_status(publish("sensitivity", &table))
}
