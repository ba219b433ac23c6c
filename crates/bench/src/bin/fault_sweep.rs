//! Delivery ratio vs. node failure rate — the experiment behind the
//! paper's fault-tolerance claim. A growing fraction of sensors suffers
//! permanent battery death mid-run (the same seeded [`FaultPlan`] for
//! every variant at each point, so the comparison is apples-to-apples),
//! and OPT / NOOPT / ZBR are measured on what still gets through.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin fault_sweep [--quick]
//! [--seeds N] [--duration SECS] [--threads N] [--observe] [--fresh]`
//!
//! The sweep is resumable: every finished run is appended to
//! `results/fault_sweep.progress` as it lands, and a rerun skips runs
//! already on record (pass `--fresh` to discard the record and start
//! over). The results tables are rewritten after *every* completed run —
//! rows appear as soon as all their runs exist — so an interrupted sweep
//! still leaves a readable `results/fault_sweep_delivery.*` /
//! `fault_sweep_delay.*` covering the finished sweep points.
//!
//! With `--observe`, one extra observed run per variant at a fixed 30 %
//! failure fraction emits a per-window delivery timeline
//! (`results/fault_sweep_timeline.*`) showing how each variant degrades
//! and recovers around fault onset.

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{exit_status, publish, write_table, ExperimentOpts};
use dftmsn_bench::note;
use dftmsn_bench::sweep::{average, run_all_resumable, RunSpec};
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::report::SimReport;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_metrics::table::Table;
use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;

const FRACTIONS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
const VARIANTS: [ProtocolKind; 3] = [ProtocolKind::Opt, ProtocolKind::NoOpt, ProtocolKind::Zbr];
const PROGRESS_PATH: &str = "results/fault_sweep.progress";

fn main() -> ExitCode {
    let (opts, switches) = ExperimentOpts::from_args_with(&["--fresh", "--observe"]);
    let fresh = switches.contains(&"--fresh");
    let observe = switches.contains(&"--observe");

    note!(
        "fault_sweep: failure fraction {{0..0.5}} x {{OPT,NOOPT,ZBR}} x {} seeds @ {} s",
        opts.seeds,
        opts.duration_secs
    );

    let mut specs = Vec::new();
    for &frac in &FRACTIONS {
        for &kind in &VARIANTS {
            for seed in 1..=opts.seeds {
                let scenario =
                    ScenarioParams::paper_default().with_duration_secs(opts.duration_secs);
                // The plan depends only on (scenario, fraction, seed): every
                // variant at this sweep point loses the same sensors at the
                // same instants.
                let faults = FaultPlan::node_failures(&scenario, frac, None, seed);
                specs.push(RunSpec {
                    scenario,
                    protocol: ProtocolParams::paper_default(),
                    config: kind.config(),
                    seed,
                    faults,
                    observe_window_secs: None,
                    policy: PolicySpec::Builtin,
                });
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all("results") {
        note!("error: cannot create results directory: {e}");
        std::process::exit(3);
    }
    let progress_path = Path::new(PROGRESS_PATH);
    if fresh {
        let _ = std::fs::remove_file(progress_path);
    }

    // Flush the tables after every completed run: rows whose runs all
    // exist are rendered, the rest appear as the sweep fills in.
    let seeds = opts.seeds as usize;
    let landed: Mutex<Vec<Option<SimReport>>> = Mutex::new(vec![None; specs.len()]);
    let outcome = run_all_resumable(&specs, opts.threads, progress_path, |i, report| {
        let mut slots = landed.lock().expect("slot lock");
        slots[i] = Some(report.clone());
        let (ratio, delay) = tables(&slots, seeds);
        let _ = write_table("results", "fault_sweep_delivery", &ratio);
        let _ = write_table("results", "fault_sweep_delay", &delay);
    });
    let reports = match outcome {
        Ok(r) => r,
        Err(e) => {
            note!("error: fault_sweep progress file {PROGRESS_PATH}: {e}");
            std::process::exit(3);
        }
    };

    let done: Vec<Option<SimReport>> = reports.into_iter().map(Some).collect();
    let (ratio, delay) = tables(&done, seeds);
    exit_status(
        publish("fault_sweep_delivery", &ratio)
            .and_then(|()| publish("fault_sweep_delay", &delay))
            .and_then(|()| {
                if observe {
                    timeline(&opts, &VARIANTS)
                } else {
                    Ok(())
                }
            }),
    )
}

/// Builds the delivery-ratio and delay tables from whatever runs have
/// landed so far. A row (sweep point) is included once every
/// variant × seed cell under it is present, so partially flushed tables
/// never show a half-averaged number.
fn tables(reports: &[Option<SimReport>], seeds: usize) -> (Table, Table) {
    let mut ratio = Table::new(
        "Fault tolerance: delivery ratio (%) vs. fraction of sensors lost to battery death",
        &["failed fraction", "OPT", "NOOPT", "ZBR"],
    );
    let mut delay = Table::new(
        "Fault tolerance: mean delivery delay (s) vs. fraction of sensors lost",
        &["failed fraction", "OPT", "NOOPT", "ZBR"],
    );
    let per_point = VARIANTS.len() * seeds;
    for (fi, &frac) in FRACTIONS.iter().enumerate() {
        let base = fi * per_point;
        let point = &reports[base..base + per_point];
        if point.iter().any(Option::is_none) {
            continue;
        }
        let cell = |vi: usize| {
            let runs: Vec<SimReport> = point[vi * seeds..(vi + 1) * seeds]
                .iter()
                .map(|r| r.clone().expect("checked above"))
                .collect();
            average(&runs)
        };
        let cells: Vec<_> = (0..VARIANTS.len()).map(cell).collect();
        ratio.row(vec![
            frac.into(),
            (cells[0].ratio.mean() * 100.0).into(),
            (cells[1].ratio.mean() * 100.0).into(),
            (cells[2].ratio.mean() * 100.0).into(),
        ]);
        delay.row(vec![
            frac.into(),
            cells[0].delay_secs.mean().into(),
            cells[1].delay_secs.mean().into(),
            cells[2].delay_secs.mean().into(),
        ]);
    }
    (ratio, delay)
}

/// One observed run per variant at a fixed failure fraction: the windowed
/// delivery counts show the dip (and any recovery) around fault onset
/// that the sweep's end-of-run averages integrate away.
fn timeline(opts: &ExperimentOpts, variants: &[ProtocolKind]) -> io::Result<()> {
    let frac = 0.3;
    let seed = 1;
    // ~25 points across the run, whatever the duration.
    let window = (opts.duration_secs as f64 / 25.0).max(1.0);
    let scenario = ScenarioParams::paper_default().with_duration_secs(opts.duration_secs);
    let faults = FaultPlan::node_failures(&scenario, frac, None, seed);
    note!(
        "fault_sweep: timeline at failure fraction {frac} ({} fault events, {window:.0} s windows)",
        faults.len()
    );

    let mut columns: Vec<Vec<(f64, f64)>> = Vec::new();
    for &kind in variants {
        let spec = RunSpec {
            scenario: scenario.clone(),
            protocol: ProtocolParams::paper_default(),
            config: kind.config(),
            seed,
            faults: faults.clone(),
            observe_window_secs: Some(window),
            policy: PolicySpec::Builtin,
        };
        let (_, series) = spec.run_observed();
        let series = series.expect("observed run returns series");
        let deliveries = series.get("deliveries").expect("deliveries series");
        columns.push(deliveries.iter().collect());
    }

    let mut table = Table::new(
        &format!(
            "Deliveries per {window:.0} s window, {:.0} % of sensors lost (seed {seed})",
            frac * 100.0
        ),
        &["t (s)", "OPT", "NOOPT", "ZBR"],
    );
    let rows = columns.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..rows {
        let t = columns
            .iter()
            .find_map(|c| c.get(i))
            .map_or(0.0, |&(t, _)| t);
        let cell = |vi: usize| columns[vi].get(i).map_or(0.0, |&(_, v)| v);
        table.row(vec![
            t.into(),
            cell(0).into(),
            cell(1).into(),
            cell(2).into(),
        ]);
    }
    publish("fault_sweep_timeline", &table)
}
