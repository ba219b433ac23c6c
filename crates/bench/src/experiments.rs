//! Experiment builders: one function per table/figure of the paper's
//! evaluation (see DESIGN.md §3 for the index).

use crate::sweep::{average, run_all, RunSpec};
use dftmsn_core::contention::{
    cts_collision_probability, optimize_cts_window, optimize_tau_max, rts_collision_probability,
    sigma,
};
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::sleep::SleepController;
use dftmsn_core::variants::{ProtocolKind, VariantConfig};
use dftmsn_metrics::table::Table;
use std::io::{self, Write};
use std::process::ExitCode;

/// Shared experiment knobs.
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Seeds per configuration (averaged).
    pub seeds: u64,
    /// Simulated seconds per run.
    pub duration_secs: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl ExperimentOpts {
    /// The paper's full setup: 25 000 s, averaged over 3 seeds.
    #[must_use]
    pub fn full() -> Self {
        ExperimentOpts {
            seeds: 3,
            duration_secs: 25_000,
            threads: 0,
        }
    }

    /// A fast smoke configuration for CI and iteration.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentOpts {
            seeds: 2,
            duration_secs: 3_000,
            threads: 0,
        }
    }

    /// [`Self::from_args_with`] for a binary without switches of its own.
    #[must_use]
    pub fn from_args() -> Self {
        Self::from_args_with(&[]).0
    }

    /// [`Self::parse`] over the process arguments, with the binary's own
    /// on/off `switches`. On a bad argument it prints the error and a usage
    /// line to standard error and exits with status 2.
    #[must_use]
    pub fn from_args_with(switches: &[&'static str]) -> (Self, Vec<&'static str>) {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let args: Vec<String> = args.collect();
        Self::parse(&args, switches).unwrap_or_else(|e| {
            let name = std::path::Path::new(&program)
                .file_name()
                .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
            let extra: String = switches.iter().map(|s| format!(" [{s}]")).collect();
            let _ = writeln!(
                io::stderr(),
                "error: {e}\nusage: {name} [--quick] [--seeds N] [--duration SECS] [--threads N]{extra}"
            );
            std::process::exit(2);
        })
    }

    /// Parses experiment arguments (program name excluded): `--quick`,
    /// `--seeds N`, `--duration SECS`, `--threads N` and the calling
    /// binary's own on/off `switches`. `--quick` picks the base
    /// ([`Self::quick`], else [`Self::full`]) wherever it appears, and the
    /// values override it; zero seeds or seconds count as one. Returns the
    /// options and the switches given.
    ///
    /// # Errors
    ///
    /// An argument that is neither one of these flags nor a declared
    /// switch, or a flag whose value is missing or not a non-negative
    /// integer.
    pub fn parse<'s>(
        args: &[String],
        switches: &[&'s str],
    ) -> Result<(Self, Vec<&'s str>), String> {
        let mut quick = false;
        let (mut seeds, mut duration, mut threads) = (None, None, None);
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--quick" => {
                    quick = true;
                    continue;
                }
                "--seeds" => &mut seeds,
                "--duration" => &mut duration,
                "--threads" => &mut threads,
                other => match switches.iter().find(|&&s| s == other) {
                    Some(&switch) => {
                        given.push(switch);
                        continue;
                    }
                    None => return Err(format!("unknown argument '{other}'")),
                },
            };
            let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
            let parsed = value
                .parse::<u64>()
                .map_err(|_| format!("{arg} takes a non-negative integer, got '{value}'"))?;
            *slot = Some(parsed);
        }
        let mut opts = if quick { Self::quick() } else { Self::full() };
        if let Some(s) = seeds {
            opts.seeds = s.max(1);
        }
        if let Some(d) = duration {
            opts.duration_secs = d.max(1);
        }
        if let Some(t) = threads {
            opts.threads = usize::try_from(t).map_err(|_| format!("--threads {t} is too large"))?;
        }
        Ok((opts, given))
    }
}

fn averaged_cell(
    spec_base: &ScenarioParams,
    kind: ProtocolKind,
    opts: &ExperimentOpts,
) -> Vec<RunSpec> {
    (0..opts.seeds)
        .map(|seed| RunSpec {
            scenario: spec_base.clone().with_duration_secs(opts.duration_secs),
            protocol: ProtocolParams::paper_default(),
            config: kind.config(),
            seed: seed + 1,
            faults: FaultPlan::default(),
            observe_window_secs: None,
            policy: PolicySpec::Builtin,
        })
        .collect()
}

/// Runs one (scenario-point × variant) grid and returns, per metric, a
/// table with the sweep value in the first column and one column per
/// variant.
fn grid_tables(
    title_prefix: &str,
    sweep_name: &str,
    points: &[(f64, ScenarioParams)],
    variants: &[ProtocolKind],
    opts: &ExperimentOpts,
) -> Vec<Table> {
    let mut specs = Vec::new();
    for (_, scenario) in points {
        for &kind in variants {
            specs.extend(averaged_cell(scenario, kind, opts));
        }
    }
    let reports = run_all(&specs, opts.threads);

    let mut columns: Vec<&str> = vec![sweep_name];
    let labels: Vec<&'static str> = variants.iter().map(|v| v.label()).collect();
    columns.extend(labels.iter().copied());

    let metric_titles = [
        format!("{title_prefix}: delivery ratio (%)"),
        format!("{title_prefix}: average nodal power consumption rate (mW)"),
        format!("{title_prefix}: average delivery delay (s)"),
        format!("{title_prefix}: collision losses"),
        format!("{title_prefix}: control overhead (ctrl bits / data bits)"),
    ];
    let mut tables: Vec<Table> = metric_titles
        .iter()
        .map(|t| Table::new(t, &columns))
        .collect();

    let per_point = variants.len() * opts.seeds as usize;
    for (pi, (x, _)) in points.iter().enumerate() {
        let mut rows: Vec<Vec<dftmsn_metrics::table::Cell>> =
            (0..5).map(|_| vec![(*x).into()]).collect();
        for (vi, _) in variants.iter().enumerate() {
            let start = pi * per_point + vi * opts.seeds as usize;
            let avg = average(&reports[start..start + opts.seeds as usize]);
            rows[0].push((avg.ratio.mean() * 100.0).into());
            rows[1].push(avg.power_mw.mean().into());
            rows[2].push(avg.delay_secs.mean().into());
            rows[3].push(avg.collisions.mean().into());
            rows[4].push(avg.overhead.mean().into());
        }
        for (t, row) in tables.iter_mut().zip(rows) {
            t.row(row);
        }
    }
    tables
}

/// Fig. 2(a–c): impact of the number of sinks on delivery ratio, power
/// consumption rate and delivery delay for OPT/NOSLEEP/NOOPT/ZBR (plus
/// collision/overhead diagnostics).
#[must_use]
pub fn fig2(opts: &ExperimentOpts) -> Vec<Table> {
    let points: Vec<(f64, ScenarioParams)> = (1..=10)
        .map(|s| {
            (
                s as f64,
                ScenarioParams::paper_default().with_sinks(s as usize),
            )
        })
        .collect();
    grid_tables("Fig. 2", "sinks", &points, &ProtocolKind::FIG2, opts)
}

/// Prose-A (Sec. 5): impact of node density. The paper reports that the
/// delivery ratio *falls* as density grows (near-sink bottlenecks).
#[must_use]
pub fn density(opts: &ExperimentOpts) -> Vec<Table> {
    let points: Vec<(f64, ScenarioParams)> = [50usize, 100, 150, 200, 250]
        .iter()
        .map(|&n| (n as f64, ScenarioParams::paper_default().with_sensors(n)))
        .collect();
    grid_tables(
        "Density study",
        "sensors",
        &points,
        &ProtocolKind::FIG2,
        opts,
    )
}

/// Prose-B (Sec. 5): impact of nodal speed. Ratios rise and delays fall
/// with speed; OPT's overhead falls too.
#[must_use]
pub fn speed(opts: &ExperimentOpts) -> Vec<Table> {
    let points: Vec<(f64, ScenarioParams)> = [1.0f64, 2.0, 5.0, 8.0, 10.0]
        .iter()
        .map(|&v| (v, ScenarioParams::paper_default().with_max_speed(v)))
        .collect();
    grid_tables(
        "Speed study",
        "v_max (m/s)",
        &points,
        &ProtocolKind::FIG2,
        opts,
    )
}

/// Abl-1: each Sec. 4 optimization toggled independently on the default
/// scenario.
#[must_use]
pub fn ablation(opts: &ExperimentOpts) -> Vec<Table> {
    let base = ProtocolKind::Opt.config();
    let cases: Vec<(&str, VariantConfig)> = vec![
        ("OPT (all)", base),
        ("no adaptive tau", base.with_adaptive_tau(false)),
        ("no adaptive W", base.with_adaptive_window(false)),
        ("fixed sleep", base.with_adaptive_sleep(false)),
        ("NOOPT (none)", ProtocolKind::NoOpt.config()),
        ("NOSLEEP", ProtocolKind::NoSleep.config()),
    ];
    let mut specs = Vec::new();
    for (_, config) in &cases {
        for seed in 0..opts.seeds {
            specs.push(RunSpec {
                scenario: ScenarioParams::paper_default().with_duration_secs(opts.duration_secs),
                protocol: ProtocolParams::paper_default(),
                config: *config,
                seed: seed + 1,
                faults: FaultPlan::default(),
                observe_window_secs: None,
                policy: PolicySpec::Builtin,
            });
        }
    }
    let reports = run_all(&specs, opts.threads);
    let mut table = Table::new(
        "Ablation: Sec. 4 optimizations toggled independently (3 sinks)",
        &[
            "configuration",
            "ratio (%)",
            "power (mW)",
            "delay (s)",
            "collisions",
            "overhead",
        ],
    );
    for (ci, (name, _)) in cases.iter().enumerate() {
        let start = ci * opts.seeds as usize;
        let avg = average(&reports[start..start + opts.seeds as usize]);
        table.row(vec![
            (*name).into(),
            (avg.ratio.mean() * 100.0).into(),
            avg.power_mw.mean().into(),
            avg.delay_secs.mean().into(),
            avg.collisions.mean().into(),
            avg.overhead.mean().into(),
        ]);
    }
    vec![table]
}

/// Opt-1/2/3: the analytic optimization tables of Sec. 4 — no simulation,
/// pure evaluations of Eqs. 9–14 and Eq. 6.
#[must_use]
pub fn optimization_tables() -> Vec<Table> {
    let mut out = Vec::new();

    // Opt-1: RTS collision probability γ (Eq. 12) vs τ_max for m equal-ξ
    // contenders, plus the Eq. 13 minimal τ_max at H = 0.1.
    let mut t1 = Table::new(
        "Opt-1: RTS collision probability vs tau_max (xi = 0.5 contenders, Eqs. 10-13)",
        &[
            "tau_max",
            "m=2",
            "m=3",
            "m=5",
            "m=8",
            "min tau (m=3, H=0.1)",
        ],
    );
    let min_tau_m3 = optimize_tau_max(&[0.5, 0.5, 0.5], 0.1, 64);
    for tau_max in [2u64, 4, 8, 16, 32, 64] {
        let gamma = |m: usize| {
            let sigmas: Vec<u64> = (0..m).map(|_| sigma(0.5, tau_max)).collect();
            rts_collision_probability(&sigmas)
        };
        t1.row(vec![
            tau_max.into(),
            gamma(2).into(),
            gamma(3).into(),
            gamma(5).into(),
            gamma(8).into(),
            min_tau_m3.into(),
        ]);
    }
    out.push(t1);

    // Opt-2: CTS collision probability γₒ (Eq. 14) vs window W, plus the
    // minimal window for a 0.1 target.
    let mut t2 = Table::new(
        "Opt-2: CTS collision probability vs contention window (Eq. 14)",
        &["W", "n=2", "n=3", "n=5", "n=8", "min W (n=3, target 0.1)"],
    );
    let min_w_n3 = optimize_cts_window(3, 0.1, 1024);
    for w in [2u64, 4, 8, 16, 32, 64] {
        t2.row(vec![
            w.into(),
            cts_collision_probability(2, w).into(),
            cts_collision_probability(3, w).into(),
            cts_collision_probability(5, w).into(),
            cts_collision_probability(8, w).into(),
            min_w_n3.into(),
        ]);
    }
    out.push(t2);

    // Opt-3: the Eq. 6 sleeping period over (ρ, α).
    let p = ProtocolParams::paper_default();
    let mut t3 = Table::new(
        "Opt-3: sleeping period T_i (s) over success rate rho and urgency alpha (Eqs. 4-8)",
        &["rho", "alpha=0.0", "alpha=0.25", "alpha=0.5", "alpha=1.0"],
    );
    for successes in [0usize, 2, 4, 6, 8, 10] {
        let mut ctl = SleepController::new(p.history_window_s);
        for i in 0..p.history_window_s {
            ctl.record_cycle(i < successes);
        }
        let mut row: Vec<dftmsn_metrics::table::Cell> = vec![ctl.rho().into()];
        for alpha in [0.0, 0.25, 0.5, 1.0] {
            row.push(ctl.sleep_duration(alpha, &p).as_secs_f64().into());
        }
        t3.row(row);
    }
    out.push(t3);
    out
}

/// Writes a table as aligned text + CSV under `dir` (created on demand),
/// and returns the rendered text.
///
/// # Errors
///
/// The directory or file that could not be written, named in the error.
pub fn write_table(dir: &str, slug: &str, table: &Table) -> io::Result<String> {
    let named = |path: &str, e: io::Error| io::Error::new(e.kind(), format!("{path}: {e}"));
    std::fs::create_dir_all(dir).map_err(|e| named(dir, e))?;
    let text = table.render_text(3);
    let txt = format!("{dir}/{slug}.txt");
    std::fs::write(&txt, &text).map_err(|e| named(&txt, e))?;
    let csv = format!("{dir}/{slug}.csv");
    std::fs::write(&csv, table.render_csv()).map_err(|e| named(&csv, e))?;
    Ok(text)
}

/// Writes `table` under `results/` ([`write_table`]) and prints its text
/// and a blank line to standard output: how every experiment binary
/// reports a table. A full or closed standard output is an error here,
/// where `println!` would panic.
///
/// # Errors
///
/// The first file, or standard output, that could not be written.
pub fn publish(slug: &str, table: &Table) -> io::Result<()> {
    let text = write_table("results", slug, table)?;
    let mut out = io::stdout().lock();
    writeln!(out, "{text}")
        .and_then(|()| out.flush())
        .map_err(|e| io::Error::new(e.kind(), format!("standard output: {e}")))
}

/// An experiment binary's exit status: success, or status 3 after one
/// `error: cannot write …` line on standard error.
#[must_use]
pub fn exit_status(result: io::Result<()>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: cannot write {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_tables_have_expected_shape() {
        let tables = optimization_tables();
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].row_count(), 6);
        assert_eq!(tables[1].row_count(), 6);
        assert_eq!(tables[2].row_count(), 6);
        // γ decreases down the τ_max column for m=3.
        let first = tables[0].num(0, 2).unwrap();
        let last = tables[0].num(5, 2).unwrap();
        assert!(last < first);
        // Eq. 14 monotone in W.
        let first = tables[1].num(0, 2).unwrap();
        let last = tables[1].num(5, 2).unwrap();
        assert!(last < first);
    }

    #[test]
    fn opts_parsing_defaults() {
        let full = ExperimentOpts::full();
        assert_eq!(full.duration_secs, 25_000);
        let quick = ExperimentOpts::quick();
        assert!(quick.duration_secs < full.duration_secs);
    }

    fn parse(
        args: &[&str],
        switches: &[&'static str],
    ) -> Result<(ExperimentOpts, Vec<&'static str>), String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        ExperimentOpts::parse(&args, switches)
    }

    #[test]
    fn opts_parse_values_over_the_quick_or_full_base() {
        let (opts, given) = parse(&[], &[]).unwrap();
        assert_eq!(
            (opts.seeds, opts.duration_secs, opts.threads),
            (3, 25_000, 0)
        );
        assert!(given.is_empty());
        let (opts, _) = parse(&["--seeds", "5", "--threads", "2", "--quick"], &[]).unwrap();
        assert_eq!(
            (opts.seeds, opts.duration_secs, opts.threads),
            (5, 3_000, 2)
        );
        let (opts, _) = parse(&["--duration", "0", "--seeds", "0"], &[]).unwrap();
        assert_eq!((opts.seeds, opts.duration_secs), (1, 1));
    }

    #[test]
    fn opts_parse_takes_only_declared_switches() {
        let (_, given) = parse(&["--observe", "--quick"], &["--fresh", "--observe"]).unwrap();
        assert_eq!(given, ["--observe"]);
        let err = parse(&["--fresh"], &[]).unwrap_err();
        assert!(err.contains("'--fresh'"), "{err}");
    }

    #[test]
    fn opts_parse_rejects_what_it_cannot_read() {
        for (args, says) in [
            (&["--quick", "--seed", "5"][..], "unknown argument '--seed'"),
            (&["results"], "unknown argument 'results'"),
            (&["--duration", "10s"], "'10s'"),
            (&["--seeds", "-1"], "'-1'"),
            (&["--threads"], "--threads needs a value"),
        ] {
            let err = parse(args, &[]).unwrap_err();
            assert!(err.contains(says), "{args:?}: {err}");
        }
    }

    #[test]
    fn tiny_fig2_grid_runs() {
        // One sink point, one seed, tiny duration: exercises the whole
        // grid machinery quickly.
        let opts = ExperimentOpts {
            seeds: 1,
            duration_secs: 120,
            threads: 0,
        };
        let points = vec![(1.0, ScenarioParams::paper_default().with_sensors(8))];
        let tables = grid_tables("t", "sinks", &points, &[ProtocolKind::Opt], &opts);
        assert_eq!(tables.len(), 5);
        assert_eq!(tables[0].row_count(), 1);
        assert!(tables[0].num(0, 1).is_some());
    }
}
