//! Buffer-capacity sweep — the paper attributes the density-driven ratio
//! drop to "limited bandwidth and buffer size"; this experiment isolates
//! the buffer axis: queue capacity 10 → 400 messages at 2× the default
//! traffic, OPT vs. EPIDEMIC (the buffer-hungriest variant).
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin buffer [--quick] ...`

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
    let capacities = [10usize, 25, 50, 100, 200, 400];
    let variants = [ProtocolKind::Opt, ProtocolKind::Epidemic];

    note!(
        "buffer: capacity {{10..400}} x {{OPT,EPIDEMIC}} x {} seeds @ {} s (2x traffic)",
        opts.seeds,
        opts.duration_secs
    );

    let mut specs = Vec::new();
    for &cap in &capacities {
        for &kind in &variants {
            for seed in 0..opts.seeds {
                let mut scenario =
                    ScenarioParams::paper_default().with_duration_secs(opts.duration_secs);
                scenario.queue_capacity = cap;
                scenario.data_interval_secs = 60.0; // double the default load
                specs.push(RunSpec {
                    scenario,
                    protocol: ProtocolParams::paper_default(),
                    config: kind.config(),
                    seed: seed + 1,
                    faults: FaultPlan::default(),
                    observe_window_secs: None,
                    policy: PolicySpec::Builtin,
                });
            }
        }
    }
    let reports = run_all(&specs, opts.threads);

    let mut table = Table::new(
        "Buffer study: delivery ratio and drops vs queue capacity (2x traffic)",
        &[
            "capacity",
            "OPT ratio (%)",
            "OPT drops",
            "EPIDEMIC ratio (%)",
            "EPIDEMIC drops",
        ],
    );
    let per_cap = variants.len() * opts.seeds as usize;
    for (ci, &cap) in capacities.iter().enumerate() {
        let base = ci * per_cap;
        let opt = average(&reports[base..base + opts.seeds as usize]);
        let epi = average(&reports[base + opts.seeds as usize..base + 2 * opts.seeds as usize]);
        let drops = |slice: &[dftmsn_core::report::SimReport]| -> f64 {
            slice
                .iter()
                .map(|r| (r.drops_overflow + r.drops_rejected) as f64)
                .sum::<f64>()
                / slice.len() as f64
        };
        table.row(vec![
            cap.into(),
            (opt.ratio.mean() * 100.0).into(),
            drops(&reports[base..base + opts.seeds as usize]).into(),
            (epi.ratio.mean() * 100.0).into(),
            drops(&reports[base + opts.seeds as usize..base + 2 * opts.seeds as usize]).into(),
        ]);
    }
    exit_status(publish("buffer", &table))
}
