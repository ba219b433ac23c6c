//! Policy parameter search: grid-sweeps the protocol constants the paper
//! leaves tunable — α, Δ, R, the τ_max cap and the contention-window cap —
//! under each forwarding policy (builtin OPT, TwoHopRelay, MeetingRate),
//! and reports the best-frontier cells per policy plus a Fig-2-style
//! default-vs-best summary row (the tables committed to EXPERIMENTS.md
//! § Policy lab).
//!
//! The sweep rides [`run_all_resumable`]: every completed run is appended
//! to `results/policy_search.progress` the moment it lands, so an
//! interrupted invocation resumes instead of recomputing (delete the file
//! or change the workload shape to start fresh).
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin policy_search
//! [--quick] [--seeds N] [--duration SECS] [--threads N]`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{exit_status, publish, ExperimentOpts};
use dftmsn_bench::sweep::{average, run_all_resumable, RunSpec};
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_metrics::table::Table;
use std::path::Path;
use std::process::ExitCode;

/// One grid cell: a policy × protocol-constant combination.
struct Cell {
    policy: usize,
    alpha: f64,
    delta: f64,
    r: f64,
    tau_cap: u64,
    w_cap: u64,
}

impl Cell {
    fn protocol(&self) -> ProtocolParams {
        let mut p = ProtocolParams::paper_default()
            .with_alpha(self.alpha)
            .with_xi_timeout_secs(self.delta)
            .with_delivery_threshold_r(self.r);
        p.tau_max_cap_slots = self.tau_cap;
        p.cts_window_cap = self.w_cap;
        p
    }

    fn is_default(&self) -> bool {
        let d = ProtocolParams::paper_default();
        self.alpha == d.alpha
            && self.delta == d.xi_timeout_secs
            && self.r == d.delivery_threshold_r
            && self.tau_cap == d.tau_max_cap_slots
            && self.w_cap == d.cts_window_cap
    }
}

fn main() -> ExitCode {
    let opts = ExperimentOpts::from_args();
    let policies: [(&str, PolicySpec); 3] = [
        ("OPT", PolicySpec::Builtin),
        ("TWOHOP", PolicySpec::default_two_hop()),
        ("MEETRATE", PolicySpec::default_meeting_rate()),
    ];
    // One-knob-at-a-time grids around the paper defaults; the default cell
    // (0.25, 30 s, 0.95, 32, 32) is a member of every axis, so the
    // frontier table always contains the baseline for comparison.
    let alphas = [0.1, 0.25, 0.5];
    let deltas = [15.0, 30.0, 60.0];
    let rs = [0.8, 0.95, 0.99];
    let tau_caps = [16u64, 32];
    let w_caps = [16u64, 32];

    let mut cells = Vec::new();
    for (pi, _) in policies.iter().enumerate() {
        for &alpha in &alphas {
            for &delta in &deltas {
                for &r in &rs {
                    for &tau_cap in &tau_caps {
                        for &w_cap in &w_caps {
                            cells.push(Cell {
                                policy: pi,
                                alpha,
                                delta,
                                r,
                                tau_cap,
                                w_cap,
                            });
                        }
                    }
                }
            }
        }
    }

    let scenario = ScenarioParams::paper_default().with_duration_secs(opts.duration_secs);
    let mut specs = Vec::new();
    for cell in &cells {
        for seed in 1..=opts.seeds {
            specs.push(RunSpec {
                scenario: scenario.clone(),
                protocol: cell.protocol(),
                config: ProtocolKind::Opt.config(),
                seed,
                faults: FaultPlan::default(),
                observe_window_secs: None,
                policy: policies[cell.policy].1,
            });
        }
    }
    eprintln!(
        "policy_search: {} cells x {} seeds = {} runs @ {} s",
        cells.len(),
        opts.seeds,
        specs.len(),
        opts.duration_secs
    );

    std::fs::create_dir_all("results").expect("create results dir");
    let progress = Path::new("results/policy_search.progress");
    let reports = run_all_resumable(&specs, opts.threads, progress, |i, _| {
        if (i + 1) % 50 == 0 {
            eprintln!("policy_search: {}/{} runs done", i + 1, specs.len());
        }
    })
    .expect("sweep failed");

    // Per-cell averages across seeds (specs are grouped by cell).
    let per_cell: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| {
            let base = ci * opts.seeds as usize;
            (cell, average(&reports[base..base + opts.seeds as usize]))
        })
        .collect();

    // Frontier: the best cells per policy by delivery ratio (delay breaks
    // ties), default cell always included.
    let mut frontier = Table::new(
        "Policy search frontier: top cells per policy (by delivery ratio)",
        &[
            "policy",
            "alpha",
            "Delta (s)",
            "R",
            "tau cap",
            "W cap",
            "ratio (%)",
            "delay (s)",
            "power (mW)",
        ],
    );
    let mut fig2 = Table::new(
        "Policy rows (Fig.-2 style): paper-default constants vs. searched best",
        &[
            "policy",
            "default ratio (%)",
            "default delay (s)",
            "default power (mW)",
            "best ratio (%)",
            "best delay (s)",
            "best power (mW)",
        ],
    );

    for (pi, (label, _)) in policies.iter().enumerate() {
        let mut mine: Vec<_> = per_cell.iter().filter(|(c, _)| c.policy == pi).collect();
        mine.sort_by(|a, b| {
            b.1.ratio
                .mean()
                .partial_cmp(&a.1.ratio.mean())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.1.delay_secs
                        .mean()
                        .partial_cmp(&b.1.delay_secs.mean())
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        for (cell, avg) in mine.iter().take(3) {
            frontier.row(vec![
                (*label).into(),
                cell.alpha.into(),
                cell.delta.into(),
                cell.r.into(),
                cell.tau_cap.into(),
                cell.w_cap.into(),
                (avg.ratio.mean() * 100.0).into(),
                avg.delay_secs.mean().into(),
                avg.power_mw.mean().into(),
            ]);
        }
        let default = mine
            .iter()
            .find(|(c, _)| c.is_default())
            .expect("default cell is in the grid");
        let best = mine.first().expect("non-empty grid");
        fig2.row(vec![
            (*label).into(),
            (default.1.ratio.mean() * 100.0).into(),
            default.1.delay_secs.mean().into(),
            default.1.power_mw.mean().into(),
            (best.1.ratio.mean() * 100.0).into(),
            best.1.delay_secs.mean().into(),
            best.1.power_mw.mean().into(),
        ]);
    }

    exit_status(
        publish("policy_fig2", &fig2).and_then(|()| publish("policy_search_frontier", &frontier)),
    )
}
