//! A small, dependency-free argument parser for the `dftmsn` CLI.
//!
//! `run` and `compare` share one [`RunConfig`] so scenario, seed, fault
//! and observation plumbing is parsed (and validated) exactly once;
//! per-command flag whitelists keep `dftmsn compare --csv` an error
//! instead of a silent no-op.

use dftmsn_core::behavior;
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::params::ScenarioParams;
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_sim::time::TICKS_PER_SEC;

/// Where to stream windowed observation rows, and how wide each window is.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveArgs {
    /// JSONL output path (`-` is not special; it is a file named `-`).
    pub path: String,
    /// Aggregation window in simulated seconds (default 100).
    pub window_secs: f64,
}

/// Periodic checkpointing of a `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointArgs {
    /// Checkpoint file path (rotated atomically; `<path>.bak` keeps the
    /// previous snapshot).
    pub path: String,
    /// Write a checkpoint every this many *simulated* seconds; `None`
    /// checkpoints only on SIGINT/SIGTERM.
    pub every_secs: Option<f64>,
}

/// Everything needed to execute one (or, for `compare`, one per variant)
/// simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Variant to simulate (`compare` ignores this and runs them all).
    pub protocol: ProtocolKind,
    /// Forwarding policy. [`PolicySpec::Builtin`] keeps the variant's own
    /// rules; `run` executes the named policy instead, `compare` appends
    /// it as an extra row after the builtin panel.
    pub policy: PolicySpec,
    /// Scenario, after applying overrides.
    pub scenario: ScenarioParams,
    /// Seed.
    pub seed: u64,
    /// Fault events to inject (empty = fault-free run).
    pub faults: FaultPlan,
    /// Attach a windowed metrics recorder streaming JSONL to a file.
    pub observe: Option<ObserveArgs>,
    /// Write checkpoints during the run.
    pub checkpoint: Option<CheckpointArgs>,
    /// Resume a previous run from this checkpoint file instead of
    /// starting fresh (scenario/protocol/seed come from the snapshot).
    pub resume: Option<String>,
    /// Emit the delivery log as CSV on stdout instead of the summary.
    pub csv: bool,
    /// Emit the full report as JSON on stdout instead of the summary.
    pub json: bool,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation and print its report.
    Run(RunConfig),
    /// Run every variant on one scenario and print a comparison table.
    Compare(RunConfig),
    /// Summarize a JSONL observation file produced by `run --observe`.
    Inspect {
        /// The JSONL file to read.
        path: String,
        /// Show one named series in detail instead of the summary table.
        series: Option<String>,
        /// Sparkline width in characters.
        width: usize,
    },
    /// Print the analytic contact/delivery model values for a scenario.
    Analyze {
        /// Scenario, after applying overrides.
        scenario: ScenarioParams,
    },
    /// Print usage.
    Help,
}

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text.
pub const USAGE: &str = "\
dftmsn — Delay/Fault-Tolerant Mobile Sensor Network simulator (ICDCS 2007)

USAGE:
    dftmsn run      [--protocol OPT|NOOPT|NOSLEEP|ZBR|DIRECT|EPIDEMIC]
                    [--policy NAME[:k=v,...]]
                    [scenario flags] [--seed N] [--fault-plan SPEC]
                    [--behaviors SPEC]
                    [--observe FILE [--window SECS]] [--csv | --json]
                    [--checkpoint FILE [--checkpoint-every SECS]]
                    [--resume FILE]
    dftmsn compare  [--policy NAME[:k=v,...]]
                    [scenario flags] [--seed N] [--fault-plan SPEC]
                    [--behaviors SPEC]
    dftmsn inspect  FILE [--series NAME] [--width CHARS]
    dftmsn analyze  [scenario flags]
    dftmsn help

SCENARIO FLAGS (defaults = the paper's Sec. 5 setup):
    --sensors N        number of wearable sensors        (100)
    --sinks N          number of sink nodes              (3)
    --duration SECS    simulated seconds                 (25000)
    --speed-max M/S    maximum node speed                (5)
    --seed N           run seed                          (1)
    --area METERS      square area side                  (150)

OBSERVATION (run only):
    --observe FILE     stream windowed metrics as JSONL to FILE
    --window SECS      aggregation window in sim seconds (100)

INSPECT:
    --series NAME      show one series (e.g. deliveries, xi_mean) in detail
    --width CHARS      sparkline width                   (60)

CHECKPOINTING (run only):
    --checkpoint FILE       write dftmsn-ckpt/6 snapshots to FILE (atomic;
                            the previous snapshot rotates to FILE.bak)
    --checkpoint-every SECS snapshot every SECS simulated seconds
                            (without it, only SIGINT/SIGTERM snapshot)
    --resume FILE           continue an interrupted run from FILE; the
                            scenario, protocol, seed and fault plan come
                            from the snapshot, so those flags conflict.
                            Pass the original --observe FILE to continue
                            its JSONL stream byte-exactly.

FORWARDING POLICY (--policy NAME[:k=v,...], case-insensitive):
    builtin            the variant's own rules (default)
    twohop[:budget=N]  two-hop relay; source spreads at most N copies to
                       relays, relays hand over to sinks only      (N=4)
    meetrate[:horizon=S,debounce=S,beta=B]
                       sink meeting-rate estimator drives selection
                       (horizon 600 s, debounce 5 s, beta 0.3)
    A non-builtin --policy replaces the variant's forwarding rules, so it
    conflicts with --protocol on 'run'; 'compare' appends the policy as an
    extra row after the six builtin variants.

FAULT PLAN SPEC (';'-separated directives, e.g. \"crash=0.3;linkdrop=0.2\"):
    none               explicit empty plan
    crash=F            fraction F of sensors suffer battery death
    churn=F@R          fraction F crash, each recovering after R seconds
    linkdrop=P         every frame dropped with probability P
    corrupt=P          received DATA frames corrupted with probability P
    sinkout=I@T1-T2    sink number I (0-based) offline from T1 to T2 secs

BEHAVIORS SPEC (';'-separated, e.g. \"selfish=0.25\" or \"liar=0.1@500\"):
    none                         explicit empty spec
    selfish|liar|forger|blackhole=F[@T]
                       fraction F of sensors adopt the behavior at time T
                       (0 secs when omitted). Victim sets are disjoint,
                       seed-deterministic, and drawn from the fault RNG
                       stream, so honest runs stay bit-identical.
    Combines with --fault-plan: behavior changes are appended after the
    fault plan's directives.

EXIT CODES:
    0 ok   1 runtime error   2 usage   3 I/O error
    4 corrupt or invalid checkpoint/observation file
    130/143 interrupted by SIGINT/SIGTERM (a final checkpoint is written
    first when --checkpoint is set, and the partial report is printed)
";

fn parse_protocol(s: &str) -> Result<ProtocolKind, ParseError> {
    match s.to_ascii_uppercase().as_str() {
        "OPT" => Ok(ProtocolKind::Opt),
        "NOOPT" => Ok(ProtocolKind::NoOpt),
        "NOSLEEP" => Ok(ProtocolKind::NoSleep),
        "ZBR" => Ok(ProtocolKind::Zbr),
        "DIRECT" => Ok(ProtocolKind::Direct),
        "EPIDEMIC" => Ok(ProtocolKind::Epidemic),
        other => Err(ParseError(format!("unknown protocol '{other}'"))),
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ParseError(format!("invalid value '{v}' for {flag}")))
}

/// Shortest `--window` or `--checkpoint-every` (s): one tick of the
/// simulator's clock, the floor every scenario duration has. A shorter
/// period rounds to zero ticks, so the run would write an observe row or
/// a checkpoint for every window it crosses, many per event.
const MIN_PERIOD_SECS: f64 = 1.0 / TICKS_PER_SEC as f64;

/// Parses a period in simulated seconds: finite and at least one tick.
fn parse_period(flag: &str, v: &str) -> Result<f64, ParseError> {
    let secs: f64 = parse_num(flag, v)?;
    if secs.is_finite() && secs >= MIN_PERIOD_SECS {
        Ok(secs)
    } else {
        Err(ParseError(format!(
            "{flag} must be at least one clock tick ({MIN_PERIOD_SECS:e} s), got '{v}'"
        )))
    }
}

fn parse_inspect(rest: &[&str]) -> Result<Command, ParseError> {
    let mut path: Option<String> = None;
    let mut series: Option<String> = None;
    let mut width = 60usize;
    let mut it = rest.iter().copied();
    while let Some(arg) = it.next() {
        match arg {
            "--series" => series = Some(take_value(arg, &mut it)?.to_owned()),
            "--width" => {
                width = parse_num(arg, take_value(arg, &mut it)?)?;
                if width == 0 {
                    return Err(ParseError("--width must be at least 1".to_owned()));
                }
            }
            flag if flag.starts_with("--") => {
                return Err(ParseError(format!("unknown flag '{flag}' for 'inspect'")));
            }
            file => {
                if path.replace(file.to_owned()).is_some() {
                    return Err(ParseError("inspect takes exactly one FILE".to_owned()));
                }
            }
        }
    }
    let Some(path) = path else {
        return Err(ParseError("inspect needs a FILE argument".to_owned()));
    };
    Ok(Command::Inspect {
        path,
        series,
        width,
    })
}

/// Parses the full argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first invalid flag or value.
pub fn parse(args: &[&str]) -> Result<Command, ParseError> {
    let Some((&cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "inspect" => return parse_inspect(rest),
        "run" | "compare" | "analyze" => {}
        other => return Err(ParseError(format!("unknown command '{other}'"))),
    }

    let mut scenario = ScenarioParams::paper_default();
    let mut protocol = ProtocolKind::Opt;
    let mut protocol_flag = false;
    let mut policy = PolicySpec::Builtin;
    let mut seed = 1u64;
    let mut fault_spec: Option<&str> = None;
    let mut behavior_spec: Option<&str> = None;
    let mut observe_path: Option<String> = None;
    let mut window_secs: Option<f64> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut checkpoint_every: Option<f64> = None;
    let mut resume: Option<String> = None;
    let mut csv = false;
    let mut json = false;
    // Flags that define a *fresh* run; they conflict with --resume, whose
    // snapshot already fixes the scenario, protocol, seed and fault plan.
    let mut fresh_run_flags: Vec<&str> = Vec::new();

    // Flags valid only for a subset of the commands; anything else is a
    // scenario flag shared by all three.
    let run_only = |flag: &str| -> Result<(), ParseError> {
        if cmd == "run" {
            Ok(())
        } else {
            Err(ParseError(format!("flag '{flag}' is only valid for 'run'")))
        }
    };
    let not_analyze = |flag: &str| -> Result<(), ParseError> {
        if cmd == "analyze" {
            Err(ParseError(format!(
                "flag '{flag}' is not valid for 'analyze'"
            )))
        } else {
            Ok(())
        }
    };

    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--protocol" => {
                run_only(flag)?;
                fresh_run_flags.push(flag);
                protocol_flag = true;
                protocol = parse_protocol(take_value(flag, &mut it)?)?;
            }
            "--policy" => {
                not_analyze(flag)?;
                fresh_run_flags.push(flag);
                policy = PolicySpec::parse(take_value(flag, &mut it)?)
                    .map_err(|e| ParseError(format!("invalid policy: {e}")))?;
            }
            "--sensors" => {
                fresh_run_flags.push(flag);
                scenario.sensors = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--sinks" => {
                fresh_run_flags.push(flag);
                scenario.sinks = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--duration" => {
                fresh_run_flags.push(flag);
                scenario.duration_secs = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--speed-max" => {
                fresh_run_flags.push(flag);
                scenario.speed_max_mps = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--area" => {
                fresh_run_flags.push(flag);
                let side: f64 = parse_num(flag, take_value(flag, &mut it)?)?;
                scenario.area_width_m = side;
                scenario.area_height_m = side;
            }
            "--seed" => {
                not_analyze(flag)?;
                fresh_run_flags.push(flag);
                seed = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--fault-plan" => {
                not_analyze(flag)?;
                fresh_run_flags.push(flag);
                fault_spec = Some(take_value(flag, &mut it)?);
            }
            "--behaviors" => {
                not_analyze(flag)?;
                fresh_run_flags.push(flag);
                behavior_spec = Some(take_value(flag, &mut it)?);
            }
            "--observe" => {
                run_only(flag)?;
                observe_path = Some(take_value(flag, &mut it)?.to_owned());
            }
            "--window" => {
                run_only(flag)?;
                window_secs = Some(parse_period(flag, take_value(flag, &mut it)?)?);
            }
            "--checkpoint" => {
                run_only(flag)?;
                checkpoint_path = Some(take_value(flag, &mut it)?.to_owned());
            }
            "--checkpoint-every" => {
                run_only(flag)?;
                checkpoint_every = Some(parse_period(flag, take_value(flag, &mut it)?)?);
            }
            "--resume" => {
                run_only(flag)?;
                resume = Some(take_value(flag, &mut it)?.to_owned());
            }
            "--csv" => {
                run_only(flag)?;
                csv = true;
            }
            "--json" => {
                run_only(flag)?;
                json = true;
            }
            other => return Err(ParseError(format!("unknown flag '{other}'"))),
        }
    }
    scenario
        .validate()
        .map_err(|e| ParseError(format!("invalid scenario: {e}")))?;
    // The plan is expanded only after every scenario override landed: the
    // node-fraction and sink-ordinal directives target the final topology.
    let mut faults = match fault_spec {
        Some(spec) => FaultPlan::parse(spec, &scenario, seed)
            .map_err(|e| ParseError(format!("invalid fault plan: {e}")))?,
        None => FaultPlan::default(),
    };
    // Behaviors expand to BehaviorChange events appended after the fault
    // plan's own — the documented stable (time, insertion) extend order.
    if let Some(spec) = behavior_spec {
        let plan = behavior::parse_spec(spec, &scenario, seed)
            .map_err(|e| ParseError(format!("invalid behavior spec: {e}")))?;
        faults.extend(plan);
    }
    if window_secs.is_some() && observe_path.is_none() {
        return Err(ParseError("--window requires --observe".to_owned()));
    }
    if checkpoint_every.is_some() && checkpoint_path.is_none() {
        return Err(ParseError(
            "--checkpoint-every requires --checkpoint".to_owned(),
        ));
    }
    if resume.is_some() {
        if let Some(conflict) = fresh_run_flags.first() {
            return Err(ParseError(format!(
                "'{conflict}' conflicts with --resume: the checkpoint already \
                 fixes the scenario, protocol, seed and fault plan"
            )));
        }
    }
    if csv && json {
        return Err(ParseError(
            "--csv and --json are mutually exclusive".to_owned(),
        ));
    }
    if protocol_flag && policy != PolicySpec::Builtin {
        return Err(ParseError(format!(
            "--protocol conflicts with --policy {}: a non-builtin policy \
             replaces the variant's forwarding rules",
            policy.label()
        )));
    }
    let observe = observe_path.map(|path| ObserveArgs {
        path,
        window_secs: window_secs.unwrap_or(100.0),
    });
    let checkpoint = checkpoint_path.map(|path| CheckpointArgs {
        path,
        every_secs: checkpoint_every,
    });

    let config = RunConfig {
        protocol,
        policy,
        scenario,
        seed,
        faults,
        observe,
        checkpoint,
        resume,
        csv,
        json,
    };
    match cmd {
        "run" => Ok(Command::Run(config)),
        "compare" => Ok(Command::Compare(config)),
        "analyze" => Ok(Command::Analyze {
            scenario: config.scenario,
        }),
        _ => unreachable!("command whitelist checked above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&["help"]), Ok(Command::Help));
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
    }

    #[test]
    fn run_with_overrides() {
        let cmd = parse(&[
            "run",
            "--protocol",
            "zbr",
            "--sensors",
            "40",
            "--sinks",
            "5",
            "--duration",
            "1000",
            "--seed",
            "9",
            "--csv",
        ])
        .unwrap();
        match cmd {
            Command::Run(cfg) => {
                assert_eq!(cfg.protocol, ProtocolKind::Zbr);
                assert_eq!(cfg.scenario.sensors, 40);
                assert_eq!(cfg.scenario.sinks, 5);
                assert_eq!(cfg.scenario.duration_secs, 1000);
                assert_eq!(cfg.seed, 9);
                assert!(cfg.faults.is_empty());
                assert!(cfg.observe.is_none());
                assert!(cfg.csv);
                assert!(!cfg.json);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn observe_flags_parse_with_defaulted_window() {
        let Ok(Command::Run(cfg)) = parse(&["run", "--observe", "out.jsonl"]) else {
            panic!("parse failed");
        };
        let obs = cfg.observe.expect("observe args");
        assert_eq!(obs.path, "out.jsonl");
        assert_eq!(obs.window_secs, 100.0);

        let Ok(Command::Run(cfg)) = parse(&["run", "--observe", "out.jsonl", "--window", "2.5"])
        else {
            panic!("parse failed");
        };
        assert_eq!(cfg.observe.unwrap().window_secs, 2.5);
    }

    #[test]
    fn window_without_observe_is_an_error() {
        let err = parse(&["run", "--window", "10"]).unwrap_err();
        assert!(err.0.contains("requires --observe"), "{err}");
    }

    #[test]
    fn non_positive_windows_are_rejected() {
        for w in ["0", "-5", "nan", "inf", "1e-7"] {
            let err = parse(&["run", "--observe", "o.jsonl", "--window", w]).unwrap_err();
            assert!(
                err.0.contains("--window") || err.0.contains("invalid value"),
                "window {w}: {err}"
            );
        }
    }

    #[test]
    fn run_only_flags_are_rejected_elsewhere() {
        for flag in [
            &["compare", "--csv"][..],
            &["compare", "--json"],
            &["compare", "--protocol", "opt"],
            &["compare", "--observe", "o.jsonl"],
            &["compare", "--window", "10"],
            &["analyze", "--seed", "2"],
            &["analyze", "--fault-plan", "none"],
        ] {
            let err = parse(flag).unwrap_err();
            assert!(err.0.contains("valid"), "{flag:?}: {err}");
        }
    }

    #[test]
    fn csv_and_json_are_mutually_exclusive() {
        let err = parse(&["run", "--csv", "--json"]).unwrap_err();
        assert!(err.0.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn inspect_parses_path_and_options() {
        assert_eq!(
            parse(&["inspect", "out.jsonl"]),
            Ok(Command::Inspect {
                path: "out.jsonl".to_owned(),
                series: None,
                width: 60,
            })
        );
        assert_eq!(
            parse(&[
                "inspect",
                "out.jsonl",
                "--series",
                "xi_mean",
                "--width",
                "30"
            ]),
            Ok(Command::Inspect {
                path: "out.jsonl".to_owned(),
                series: Some("xi_mean".to_owned()),
                width: 30,
            })
        );
    }

    #[test]
    fn inspect_argument_errors() {
        assert!(parse(&["inspect"]).unwrap_err().0.contains("FILE"));
        assert!(parse(&["inspect", "a", "b"])
            .unwrap_err()
            .0
            .contains("exactly one"));
        assert!(parse(&["inspect", "a", "--width", "0"])
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse(&["inspect", "a", "--wat"])
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(parse(&["inspect", "a", "--series"])
            .unwrap_err()
            .0
            .contains("needs a value"));
    }

    #[test]
    fn fault_plan_flag_expands_against_the_final_scenario() {
        let Ok(Command::Run(cfg)) = parse(&[
            "run",
            "--fault-plan",
            "crash=0.5;linkdrop=0.25",
            "--sensors",
            "10",
            "--sinks",
            "2",
        ]) else {
            panic!("parse failed");
        };
        // 50% of the *overridden* 10 sensors die, plus one global-link event,
        // even though the flag came before the --sensors override.
        assert_eq!(cfg.faults.len(), 6);
    }

    #[test]
    fn fault_plan_flag_reaches_compare_too() {
        let Ok(Command::Compare(cfg)) = parse(&["compare", "--fault-plan", "linkdrop=0.1"]) else {
            panic!("parse failed");
        };
        assert_eq!(cfg.faults.len(), 1);
    }

    #[test]
    fn bad_fault_plans_are_parse_errors_not_panics() {
        let err = parse(&["run", "--fault-plan", "explode=1"]).unwrap_err();
        assert!(err.0.contains("invalid fault plan"), "{err}");
        let err = parse(&["run", "--fault-plan", "linkdrop=1.5"]).unwrap_err();
        assert!(err.0.contains("invalid fault plan"), "{err}");
        let err = parse(&["run", "--fault-plan", "sinkout=9@0-10"]).unwrap_err();
        assert!(err.0.contains("invalid fault plan"), "{err}");
    }

    #[test]
    fn behaviors_flag_expands_against_the_final_scenario() {
        let Ok(Command::Run(cfg)) = parse(&[
            "run",
            "--behaviors",
            "selfish=0.5",
            "--sensors",
            "10",
            "--sinks",
            "2",
        ]) else {
            panic!("parse failed");
        };
        // 50% of the *overridden* 10 sensors turn selfish, even though the
        // flag came before the --sensors override.
        assert_eq!(cfg.faults.len(), 5);
    }

    #[test]
    fn behaviors_append_after_the_fault_plan() {
        let Ok(Command::Run(cfg)) = parse(&[
            "run",
            "--fault-plan",
            "linkdrop=0.1",
            "--behaviors",
            "blackhole=0.1",
            "--sensors",
            "10",
        ]) else {
            panic!("parse failed");
        };
        // One global link event plus one behavior change, fault plan first.
        assert_eq!(cfg.faults.len(), 2);
    }

    #[test]
    fn behaviors_flag_reaches_compare_too() {
        let Ok(Command::Compare(cfg)) = parse(&["compare", "--behaviors", "liar=0.05"]) else {
            panic!("parse failed");
        };
        assert_eq!(cfg.faults.len(), 5); // 5% of 100 sensors
    }

    #[test]
    fn bad_behavior_specs_are_parse_errors_not_panics() {
        for spec in [
            "gremlin=0.5",
            "selfish=1.5",
            "selfish=0.6;liar=0.6",
            "selfish",
        ] {
            let err = parse(&["run", "--behaviors", spec]).unwrap_err();
            assert!(err.0.contains("invalid behavior spec"), "{spec}: {err}");
        }
    }

    #[test]
    fn behaviors_conflict_with_resume() {
        let err = parse(&["run", "--resume", "c", "--behaviors", "none"]).unwrap_err();
        assert!(err.0.contains("--behaviors"), "{err}");
    }

    #[test]
    fn area_sets_both_dimensions() {
        let Ok(Command::Analyze { scenario }) = parse(&["analyze", "--area", "300"]) else {
            panic!("parse failed");
        };
        assert_eq!(scenario.area_width_m, 300.0);
        assert_eq!(scenario.area_height_m, 300.0);
    }

    #[test]
    fn protocol_is_case_insensitive() {
        for s in ["opt", "OPT", "Opt"] {
            assert_eq!(parse_protocol(s).unwrap(), ProtocolKind::Opt);
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["run", "--protocol", "FOO"])
            .unwrap_err()
            .0
            .contains("unknown protocol"));
        assert!(parse(&["run", "--sensors"])
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(parse(&["run", "--sensors", "x"])
            .unwrap_err()
            .0
            .contains("invalid value"));
        assert!(parse(&["frobnicate"])
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(parse(&["run", "--wat"])
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(parse(&["run", "--observe"])
            .unwrap_err()
            .0
            .contains("needs a value"));
    }

    #[test]
    fn invalid_scenarios_are_rejected_at_parse_time() {
        let err = parse(&["run", "--sinks", "0"]).unwrap_err();
        assert!(err.0.contains("invalid scenario"), "{err}");
    }

    #[test]
    fn checkpoint_flags_parse() {
        let Ok(Command::Run(cfg)) = parse(&[
            "run",
            "--checkpoint",
            "run.ckpt",
            "--checkpoint-every",
            "500",
        ]) else {
            panic!("parse failed");
        };
        let ckpt = cfg.checkpoint.expect("checkpoint args");
        assert_eq!(ckpt.path, "run.ckpt");
        assert_eq!(ckpt.every_secs, Some(500.0));
        assert!(cfg.resume.is_none());

        // --checkpoint without an interval means signal-only snapshots.
        let Ok(Command::Run(cfg)) = parse(&["run", "--checkpoint", "run.ckpt"]) else {
            panic!("parse failed");
        };
        assert_eq!(cfg.checkpoint.unwrap().every_secs, None);
    }

    #[test]
    fn threads_flag_is_rejected_by_name() {
        for argv in [
            &["run", "--threads", "2"][..],
            &["run", "--resume", "c.ckpt", "--threads", "2"],
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.0.contains("unknown flag '--threads'"), "{err}");
        }
    }

    #[test]
    fn checkpoint_every_requires_a_path() {
        let err = parse(&["run", "--checkpoint-every", "500"]).unwrap_err();
        assert!(err.0.contains("requires --checkpoint"), "{err}");
    }

    #[test]
    fn non_positive_checkpoint_intervals_are_rejected() {
        for s in ["0", "-1", "nan", "inf", "1e-7", "1e-300"] {
            let err = parse(&["run", "--checkpoint", "c", "--checkpoint-every", s]).unwrap_err();
            assert!(
                err.0.contains("--checkpoint-every") || err.0.contains("invalid value"),
                "interval {s}: {err}"
            );
        }
    }

    #[test]
    fn resume_parses_alone_and_with_io_flags() {
        let Ok(Command::Run(cfg)) = parse(&[
            "run",
            "--resume",
            "run.ckpt",
            "--observe",
            "out.jsonl",
            "--checkpoint",
            "run.ckpt",
            "--json",
        ]) else {
            panic!("parse failed");
        };
        assert_eq!(cfg.resume.as_deref(), Some("run.ckpt"));
        assert!(cfg.observe.is_some());
        assert!(cfg.json);
    }

    #[test]
    fn resume_conflicts_with_fresh_run_flags() {
        for flags in [
            &["run", "--resume", "c", "--seed", "2"][..],
            &["run", "--resume", "c", "--protocol", "zbr"],
            &["run", "--resume", "c", "--sensors", "10"],
            &["run", "--resume", "c", "--duration", "100"],
            &["run", "--resume", "c", "--fault-plan", "none"],
            // Order must not matter: the conflict is detected after the
            // whole command line is consumed.
            &["run", "--seed", "2", "--resume", "c"],
        ] {
            let err = parse(flags).unwrap_err();
            assert!(err.0.contains("--resume"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn checkpoint_flags_are_run_only() {
        for flags in [
            &["compare", "--checkpoint", "c"][..],
            &["compare", "--checkpoint-every", "10"],
            &["analyze", "--resume", "c"],
        ] {
            let err = parse(flags).unwrap_err();
            assert!(err.0.contains("only valid for 'run'"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn run_accepts_a_parameterized_policy() {
        let cmd = parse(&["run", "--policy", "twohop:budget=3"]).unwrap();
        match cmd {
            Command::Run(cfg) => {
                assert_eq!(cfg.policy, PolicySpec::TwoHop { budget: 3 });
                assert_eq!(cfg.protocol, ProtocolKind::Opt);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn policy_defaults_to_builtin() {
        match parse(&["run"]).unwrap() {
            Command::Run(cfg) => assert_eq!(cfg.policy, PolicySpec::Builtin),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn compare_shares_the_run_validation_path_for_policy() {
        // --policy combines with --fault-plan on compare exactly as on run…
        let cmd = parse(&[
            "compare",
            "--policy",
            "meetrate:horizon=300,beta=0.5",
            "--fault-plan",
            "linkdrop=0.1",
        ])
        .unwrap();
        let PolicySpec::MeetingRate { debounce_secs, .. } = PolicySpec::default_meeting_rate()
        else {
            unreachable!("the default meeting-rate spec is a meeting-rate spec")
        };
        match cmd {
            Command::Compare(cfg) => {
                assert_eq!(
                    cfg.policy,
                    PolicySpec::MeetingRate {
                        horizon_secs: 300.0,
                        debounce_secs,
                        beta: 0.5,
                    }
                );
                assert_eq!(cfg.faults.len(), 1);
            }
            other => panic!("wrong command {other:?}"),
        }
        // …and the run-only flags stay rejected with the same taxonomy.
        let err = parse(&["compare", "--policy", "twohop", "--observe", "o.jsonl"]).unwrap_err();
        assert!(err.0.contains("only valid for 'run'"), "{err}");
    }

    #[test]
    fn bad_policies_are_parse_errors_not_panics() {
        for bad in [
            &["run", "--policy", "teleport"][..],
            &["run", "--policy", "twohop:budget=0"],
            &["run", "--policy", "twohop:fuel=3"],
            &["run", "--policy", "meetrate:beta=2.0"],
            &["compare", "--policy", "teleport"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.0.contains("invalid policy"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn policy_conflicts_with_an_explicit_protocol() {
        let err = parse(&["run", "--protocol", "zbr", "--policy", "twohop"]).unwrap_err();
        assert!(err.0.contains("--protocol conflicts"), "{err}");
        // Order must not matter, and an explicit builtin policy is fine.
        let err = parse(&["run", "--policy", "meetrate", "--protocol", "opt"]).unwrap_err();
        assert!(err.0.contains("--protocol conflicts"), "{err}");
        assert!(parse(&["run", "--protocol", "zbr", "--policy", "builtin"]).is_ok());
    }

    #[test]
    fn policy_is_a_fresh_run_flag() {
        let err = parse(&["run", "--resume", "c", "--policy", "twohop"]).unwrap_err();
        assert!(err.0.contains("--resume"), "{err}");
    }

    #[test]
    fn analyze_rejects_policy() {
        let err = parse(&["analyze", "--policy", "twohop"]).unwrap_err();
        assert!(err.0.contains("valid"), "{err}");
    }
}
