//! Delivery ratio vs. fraction of adversarial sensors, plus the
//! network-lifetime tier (PR 10) — what happens to the paper's protocol
//! when nodes stop *cooperating* rather than stop *working*.
//!
//! Two sweeps share one resumable progress file:
//!
//! * **Adversary sweep** — a growing fraction of sensors turns selfish at
//!   t = 0 (they accept nothing, forward nothing, and never CTS-reply;
//!   see `dftmsn_core::behavior`), and OPT / NOOPT / TWOHOP / MEETRATE
//!   are measured on what still gets through. The victim set at each
//!   sweep point depends only on `(scenario, seed)`, so every policy
//!   faces the same traitors.
//! * **Lifetime sweep** — a growing fraction of sensors suffers battery
//!   death mid-run, and the report's lifetime block (FND / HND / LND:
//!   first, half, last node death) is tabulated next to each policy's
//!   delivery ratio, tying lifetime to what the network still delivers.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin adversary_sweep
//! [--quick] [--seeds N] [--duration SECS] [--threads N] [--fresh]`
//!
//! Every finished run is appended to `results/adversary_sweep.progress`
//! as it lands and reruns skip runs already on record (`--fresh` starts
//! over). The result tables (`results/adversary_sweep_delivery.*`,
//! `results/adversary_sweep_lifetime.*`) are rewritten after every
//! completed run, so an interrupted sweep still leaves readable output.

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{exit_status, publish, write_table, ExperimentOpts};
use dftmsn_bench::sweep::{average, run_all_resumable, RunSpec};
use dftmsn_core::behavior::{self, NodeBehavior};
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::report::SimReport;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_metrics::table::{Cell, Table};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;

const ADV_FRACTIONS: [f64; 5] = [0.0, 0.1, 0.25, 0.4, 0.5];
const LIFE_FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const PROGRESS_PATH: &str = "results/adversary_sweep.progress";

/// The policy panel: the paper's optimized and unoptimized variants plus
/// the two non-builtin forwarding policies, all on the OPT MAC base.
const COLUMNS: [&str; 4] = ["OPT", "NOOPT", "TWOHOP", "MEETRATE"];

fn variant_spec(column: &str, scenario: ScenarioParams, seed: u64, faults: FaultPlan) -> RunSpec {
    let (kind, policy) = match column {
        "OPT" => (ProtocolKind::Opt, PolicySpec::Builtin),
        "NOOPT" => (ProtocolKind::NoOpt, PolicySpec::Builtin),
        "TWOHOP" => (
            ProtocolKind::Opt,
            PolicySpec::parse("twohop").expect("twohop spec"),
        ),
        "MEETRATE" => (
            ProtocolKind::Opt,
            PolicySpec::parse("meetrate").expect("meetrate spec"),
        ),
        other => unreachable!("unknown column {other}"),
    };
    RunSpec {
        scenario,
        protocol: ProtocolParams::paper_default(),
        config: kind.config(),
        seed,
        faults,
        observe_window_secs: None,
        policy,
    }
}

fn main() -> ExitCode {
    let (opts, switches) = ExperimentOpts::from_args_with(&["--fresh"]);
    let fresh = switches.contains(&"--fresh");

    eprintln!(
        "adversary_sweep: selfish fraction {{0..0.5}} + lifetime {{0.25..1}} x \
         {{OPT,NOOPT,TWOHOP,MEETRATE}} x {} seeds @ {} s",
        opts.seeds, opts.duration_secs
    );

    let mut specs = Vec::new();
    for &frac in &ADV_FRACTIONS {
        for column in COLUMNS {
            for seed in 1..=opts.seeds {
                let scenario =
                    ScenarioParams::paper_default().with_duration_secs(opts.duration_secs);
                // Victims depend only on (scenario, seed): every policy at
                // this sweep point faces the same selfish set.
                let faults = behavior::takeover(&scenario, frac, NodeBehavior::Selfish, 0.0, seed);
                specs.push(variant_spec(column, scenario, seed, faults));
            }
        }
    }
    for &frac in &LIFE_FRACTIONS {
        for column in COLUMNS {
            for seed in 1..=opts.seeds {
                let scenario =
                    ScenarioParams::paper_default().with_duration_secs(opts.duration_secs);
                let faults = FaultPlan::node_failures(&scenario, frac, None, seed);
                specs.push(variant_spec(column, scenario, seed, faults));
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("error: cannot create results directory: {e}");
        std::process::exit(3);
    }
    let progress_path = Path::new(PROGRESS_PATH);
    if fresh {
        let _ = std::fs::remove_file(progress_path);
    }

    let seeds = opts.seeds as usize;
    let landed: Mutex<Vec<Option<SimReport>>> = Mutex::new(vec![None; specs.len()]);
    let outcome = run_all_resumable(&specs, opts.threads, progress_path, |i, report| {
        let mut slots = landed.lock().expect("slot lock");
        slots[i] = Some(report.clone());
        let (delivery, lifetime) = tables(&slots, seeds);
        let _ = write_table("results", "adversary_sweep_delivery", &delivery);
        let _ = write_table("results", "adversary_sweep_lifetime", &lifetime);
    });
    let reports = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: adversary_sweep progress file {PROGRESS_PATH}: {e}");
            std::process::exit(3);
        }
    };

    let done: Vec<Option<SimReport>> = reports.into_iter().map(Some).collect();
    let (delivery, lifetime) = tables(&done, seeds);
    exit_status(
        publish("adversary_sweep_delivery", &delivery)
            .and_then(|()| publish("adversary_sweep_lifetime", &lifetime)),
    )
}

/// Mean of the anchors that fired, or a dash when none did (e.g. LND in a
/// sweep point where part of the network always survives).
fn anchor_cell(values: impl Iterator<Item = Option<f64>>) -> Cell {
    let fired: Vec<f64> = values.flatten().collect();
    if fired.is_empty() {
        return "-".into();
    }
    (fired.iter().sum::<f64>() / fired.len() as f64).into()
}

/// Builds both tables from whatever runs have landed so far; a row is
/// rendered only once every variant × seed cell under it exists.
fn tables(reports: &[Option<SimReport>], seeds: usize) -> (Table, Table) {
    let mut delivery = Table::new(
        "Adversary tolerance: delivery ratio (%) vs. fraction of selfish sensors",
        &["selfish fraction", "OPT", "NOOPT", "TWOHOP", "MEETRATE"],
    );
    let mut lifetime = Table::new(
        "Network lifetime: node-death anchors (s) and delivery ratio (%) vs. fraction lost",
        &[
            "failed fraction",
            "FND (s)",
            "HND (s)",
            "LND (s)",
            "OPT",
            "NOOPT",
            "TWOHOP",
            "MEETRATE",
        ],
    );
    let per_point = COLUMNS.len() * seeds;

    for (fi, &frac) in ADV_FRACTIONS.iter().enumerate() {
        let base = fi * per_point;
        let point = &reports[base..base + per_point];
        if point.iter().any(Option::is_none) {
            continue;
        }
        let ratio = |vi: usize| -> Cell {
            let runs: Vec<SimReport> = point[vi * seeds..(vi + 1) * seeds]
                .iter()
                .map(|r| r.clone().expect("checked above"))
                .collect();
            (average(&runs).ratio.mean() * 100.0).into()
        };
        delivery.row(vec![frac.into(), ratio(0), ratio(1), ratio(2), ratio(3)]);
    }

    let life_base = ADV_FRACTIONS.len() * per_point;
    for (fi, &frac) in LIFE_FRACTIONS.iter().enumerate() {
        let base = life_base + fi * per_point;
        let point = &reports[base..base + per_point];
        if point.iter().any(Option::is_none) {
            continue;
        }
        let cell_runs = |vi: usize| -> Vec<&SimReport> {
            point[vi * seeds..(vi + 1) * seeds]
                .iter()
                .map(|r| r.as_ref().expect("checked above"))
                .collect()
        };
        // The fault plan (hence the death schedule) is shared across the
        // panel at each point, so the anchors come from the OPT runs.
        let opt_runs = cell_runs(0);
        let ratio = |vi: usize| -> Cell {
            let runs: Vec<SimReport> = cell_runs(vi).into_iter().cloned().collect();
            (average(&runs).ratio.mean() * 100.0).into()
        };
        lifetime.row(vec![
            frac.into(),
            anchor_cell(opt_runs.iter().map(|r| r.lifetime.first_death_secs)),
            anchor_cell(opt_runs.iter().map(|r| r.lifetime.half_death_secs)),
            anchor_cell(opt_runs.iter().map(|r| r.lifetime.last_death_secs)),
            ratio(0),
            ratio(1),
            ratio(2),
            ratio(3),
        ]);
    }
    (delivery, lifetime)
}
