//! The `dftmsn` command-line front end.
//!
//! Every failure path funnels through [`CliError`], so each class of
//! problem maps to a distinct, documented exit code (see `USAGE`):
//! usage errors exit 2, I/O failures 3, corrupt checkpoint or observation
//! files 4, and interrupted runs 128+signal after writing a final
//! checkpoint and flushing the partial report.

mod args;

use args::{parse, CheckpointArgs, Command, RunConfig, USAGE};
use dftmsn_core::analysis::{
    direct_average_ratio, direct_expected_delay, ContactModel, EpidemicModel,
};
use dftmsn_core::observe::MetricsRecorder;
use dftmsn_core::params::ScenarioParams;
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::report::SimReport;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_core::world::{CkptError, Simulation};
use dftmsn_metrics::json::Json;
use dftmsn_metrics::table::Table;
use dftmsn_metrics::viz::{resample, sparkline};
use dftmsn_sim::time::SimDuration;
use std::io::{BufWriter, Seek, SeekFrom};
use std::path::Path;

/// Anything that can go wrong after argument parsing succeeded.
#[derive(Debug)]
enum CliError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The file involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Checkpoint write/read/resume failed.
    Ckpt(CkptError),
    /// An input file parsed but its contents are unusable (wrong schema,
    /// missing header, cursor past end of file).
    Data(String),
}

impl CliError {
    /// The process exit code this error maps to (documented in `USAGE`).
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Io { .. } => 3,
            CliError::Ckpt(e) if e.is_corrupt() => 4,
            CliError::Ckpt(_) => 3,
            CliError::Data(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io { op, path, source } => write!(f, "{op} '{path}': {source}"),
            CliError::Ckpt(e) => write!(f, "{e}"),
            CliError::Data(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Ckpt(e) => Some(e),
            CliError::Data(_) => None,
        }
    }
}

impl From<CkptError> for CliError {
    fn from(e: CkptError) -> Self {
        CliError::Ckpt(e)
    }
}

/// Standard output behind one fallible writer. `print!` panics when stdout
/// is full or its pipe is closed; every line the CLI writes there goes
/// through `write!`/`writeln!` on an `Out` instead, so such a failure is a
/// [`CliError::Io`] naming standard output (exit 3).
struct Out(std::io::StdoutLock<'static>);

impl Out {
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> Result<(), CliError> {
        std::io::Write::write_fmt(&mut self.0, args).map_err(stdout_error)
    }

    fn flush(&mut self) -> Result<(), CliError> {
        std::io::Write::flush(&mut self.0).map_err(stdout_error)
    }
}

fn stdout_error(source: std::io::Error) -> CliError {
    CliError::Io {
        op: "cannot write",
        path: "standard output".into(),
        source,
    }
}

/// `eprintln!` without its panic: progress, warning and error lines are
/// best effort, so a full or closed stderr never aborts a run.
macro_rules! note {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

/// Async-signal handling: the handler only stores the signal number; the
/// run loop polls it between events and performs the orderly shutdown
/// (final checkpoint + partial report) on the main thread.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicI32, Ordering};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    static PENDING: AtomicI32 = AtomicI32::new(0);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(signum: i32) {
        PENDING.store(signum, Ordering::Relaxed);
    }

    /// Installs SIGINT/SIGTERM handlers; call once before the run loop.
    pub fn install() {
        // SAFETY: signal(2) with a handler that only performs an atomic
        // store — the narrow async-signal-safe idiom.
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// The signal received since `install`, if any.
    pub fn pending() -> Option<i32> {
        match PENDING.load(Ordering::Relaxed) {
            0 => None,
            s => Some(s),
        }
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn pending() -> Option<i32> {
        None
    }
}

fn main() {
    let owned: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = owned.iter().map(String::as_str).collect();
    let code = match parse(&refs) {
        Ok(cmd) => match dispatch(cmd) {
            Ok(code) => code,
            Err(e) => {
                note!("error: {e}");
                e.exit_code()
            }
        },
        Err(e) => {
            note!("error: {e}\n");
            let _ = std::io::Write::write_all(&mut std::io::stderr(), USAGE.as_bytes());
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(cmd: Command) -> Result<i32, CliError> {
    let out = &mut Out(std::io::stdout().lock());
    let code = match cmd {
        Command::Help => {
            write!(out, "{USAGE}")?;
            0
        }
        Command::Run(cfg) => run_one(out, cfg)?,
        Command::Compare(cfg) => {
            compare(out, &cfg)?;
            0
        }
        Command::Inspect {
            path,
            series,
            width,
        } => {
            inspect(out, &path, series.as_deref(), width)?;
            0
        }
        Command::Analyze { scenario } => {
            analyze(out, &scenario)?;
            0
        }
    };
    out.flush()?;
    Ok(code)
}

/// The observer handle kept alongside a running simulation so the CLI can
/// report how many windows went to which file once the run ends.
struct Observing {
    recorder: MetricsRecorder,
    path: String,
}

/// Builds a fresh simulation from the parsed flags (the non-`--resume`
/// path), attaching the observer when requested.
fn build_fresh(cfg: &RunConfig) -> Result<(Simulation, Option<Observing>), CliError> {
    let what = match cfg.policy {
        PolicySpec::Builtin => cfg.protocol.to_string(),
        other => format!("policy {}", other.label()),
    };
    note!(
        "running {} on {} sensors / {} sinks for {} s (seed {}, {} fault events)...",
        what,
        cfg.scenario.sensors,
        cfg.scenario.sinks,
        cfg.scenario.duration_secs,
        cfg.seed,
        cfg.faults.len()
    );
    let mut builder = Simulation::builder(cfg.scenario.clone(), cfg.protocol)
        .seed(cfg.seed)
        .policy(cfg.policy)
        .faults(cfg.faults.clone());
    let mut observing = None;
    if let Some(obs) = &cfg.observe {
        let file = std::fs::File::create(&obs.path).map_err(|e| CliError::Io {
            op: "cannot create",
            path: obs.path.clone(),
            source: e,
        })?;
        // Streaming-only: windows go straight to the file, memory stays
        // flat however long the run is. With checkpointing enabled the
        // file is written unbuffered so that at every event boundary its
        // length equals the recorder's byte cursor — the invariant the
        // resume path truncates back to.
        let recorder = MetricsRecorder::new(obs.window_secs).streaming_only();
        let recorder = if cfg.checkpoint.is_some() {
            recorder.with_output(Box::new(file))
        } else {
            recorder.with_output(Box::new(BufWriter::new(file)))
        };
        builder = builder.observe(recorder.clone());
        observing = Some(Observing {
            recorder,
            path: obs.path.clone(),
        });
    }
    Ok((builder.build(), observing))
}

/// Reconstructs a simulation from a checkpoint file (the `--resume` path)
/// and re-attaches the observer's output stream byte-exactly.
fn build_resumed(
    cfg: &RunConfig,
    ckpt_path: &str,
) -> Result<(Simulation, Option<Observing>), CliError> {
    let resumed = Simulation::resume(Path::new(ckpt_path))?;
    if resumed.from_backup {
        note!("warning: '{ckpt_path}' was corrupt; resumed from its .bak rotation instead");
    }
    let sim = resumed.sim;
    note!(
        "resumed from '{ckpt_path}' at t = {:.0} s",
        sim.now().as_secs_f64()
    );
    let observing = match (resumed.recorder, &cfg.observe) {
        (Some(recorder), Some(obs)) => {
            // The snapshot's byte cursor marks how much JSONL the
            // interrupted run had durably written; anything after it is a
            // window the resumed run will re-emit, so truncate and append.
            let cursor = recorder.bytes_written();
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&obs.path)
                .map_err(|e| CliError::Io {
                    op: "cannot reopen observe file",
                    path: obs.path.clone(),
                    source: e,
                })?;
            let len = file
                .metadata()
                .map_err(|e| CliError::Io {
                    op: "cannot stat observe file",
                    path: obs.path.clone(),
                    source: e,
                })?
                .len();
            if len < cursor {
                return Err(CliError::Data(format!(
                    "observe file '{}' holds {len} bytes but the checkpoint's \
                     cursor is {cursor} — wrong file, or it lost data",
                    obs.path
                )));
            }
            file.set_len(cursor).map_err(|e| CliError::Io {
                op: "cannot truncate observe file",
                path: obs.path.clone(),
                source: e,
            })?;
            file.seek(SeekFrom::End(0)).map_err(|e| CliError::Io {
                op: "cannot seek observe file",
                path: obs.path.clone(),
                source: e,
            })?;
            // `with_output` mutates the shared recorder the simulation
            // already observes through, so this re-attaches the stream for
            // both handles.
            let recorder = recorder.with_output(Box::new(file));
            Some(Observing {
                recorder,
                path: obs.path.clone(),
            })
        }
        (Some(_), None) => {
            note!(
                "warning: the checkpoint carries an observer; pass the original \
                 --observe FILE to continue its JSONL stream (windows from here \
                 on are otherwise dropped)"
            );
            None
        }
        (None, Some(_)) => {
            note!(
                "warning: --observe ignored: the checkpointed run had no \
                 observer attached"
            );
            None
        }
        (None, None) => None,
    };
    Ok((sim, observing))
}

fn run_one(out: &mut Out, cfg: RunConfig) -> Result<i32, CliError> {
    let (mut sim, observing) = match &cfg.resume {
        Some(path) => build_resumed(&cfg, path)?,
        None => build_fresh(&cfg)?,
    };
    signals::install();

    let every = cfg
        .checkpoint
        .as_ref()
        .and_then(|c| c.every_secs)
        .map(SimDuration::from_secs_f64);
    let mut next_ckpt = every.map(|d| sim.now() + d);

    let interrupted = loop {
        if let Some(sig) = signals::pending() {
            break Some(sig);
        }
        // Every event boundary is a valid checkpoint/signal instant.
        if !sim.step() {
            break None;
        }
        if let (Some(at), Some(ckpt)) = (next_ckpt, &cfg.checkpoint) {
            if sim.now() >= at {
                write_checkpoint(&mut sim, ckpt, observing.as_ref())?;
                // Schedule from the checkpoint instant, not `at`: a burst
                // of simulated time must not trigger a burst of writes.
                next_ckpt = every.map(|d| sim.now() + d);
            }
        }
    };

    if let Some(sig) = interrupted {
        let now = sim.now();
        note!(
            "interrupted by signal {sig} at t = {:.0} s",
            now.as_secs_f64()
        );
        if let Some(ckpt) = &cfg.checkpoint {
            write_checkpoint(&mut sim, ckpt, observing.as_ref())?;
            note!(
                "final checkpoint written; resume with: dftmsn run --resume {}",
                ckpt.path
            );
        }
        // Flush what the run produced so far: the partial report plus the
        // observer's pending window and totals line.
        let report = sim.finish_partial();
        observe_written(observing.as_ref())?;
        report_observing(observing.as_ref());
        note!(
            "partial report (run covered {:.0} s):",
            report.duration_secs
        );
        print_report(out, &cfg, &report)?;
        return Ok(128 + sig);
    }

    let report = sim.run();
    observe_written(observing.as_ref())?;
    report_observing(observing.as_ref());
    print_report(out, &cfg, &report)?;
    Ok(0)
}

/// Fails with the observe file's first write error, if one occurred. A
/// checkpoint must not be taken after such an error: its byte cursor would
/// not match what reached the file.
fn observe_written(observing: Option<&Observing>) -> Result<(), CliError> {
    let Some(obs) = observing else {
        return Ok(());
    };
    match obs.recorder.take_write_error() {
        Some(source) => Err(CliError::Io {
            op: "cannot write observe file",
            path: obs.path.clone(),
            source,
        }),
        None => Ok(()),
    }
}

fn write_checkpoint(
    sim: &mut Simulation,
    ckpt: &CheckpointArgs,
    observing: Option<&Observing>,
) -> Result<(), CliError> {
    observe_written(observing)?;
    sim.checkpoint(Path::new(&ckpt.path))?;
    note!(
        "checkpoint written to '{}' at t = {:.0} s",
        ckpt.path,
        sim.now().as_secs_f64()
    );
    Ok(())
}

fn report_observing(observing: Option<&Observing>) {
    if let Some(obs) = observing {
        let (windows, _) = obs.recorder.totals();
        note!("wrote {windows} windows to {}", obs.path);
    }
}

fn print_report(out: &mut Out, cfg: &RunConfig, report: &SimReport) -> Result<(), CliError> {
    if cfg.json {
        return writeln!(out, "{}", report.to_json());
    }
    if cfg.csv {
        writeln!(out, "msg,origin,created_secs,delay_secs,sink")?;
        for d in &report.deliveries {
            writeln!(
                out,
                "{},{},{},{},{}",
                d.msg.0, d.origin.0, d.created_secs, d.delay_secs, d.sink.0
            )?;
        }
        return Ok(());
    }
    writeln!(out, "{}", report.summary())?;
    writeln!(
        out,
        "  delivery ratio   : {:>8.2} %",
        report.delivery_ratio() * 100.0
    )?;
    writeln!(
        out,
        "  mean delay       : {:>8.0} s",
        report.mean_delay_secs
    )?;
    writeln!(out, "  p95 delay        : {:>8.0} s", report.p95_delay_secs)?;
    writeln!(
        out,
        "  avg power        : {:>8.3} mW",
        report.avg_sensor_power_mw
    )?;
    writeln!(out, "  attempts         : {:>8}", report.attempts)?;
    writeln!(out, "  multicasts       : {:>8}", report.multicasts)?;
    writeln!(out, "  copies sent      : {:>8}", report.copies_sent)?;
    writeln!(out, "  collisions       : {:>8}", report.collisions)?;
    writeln!(
        out,
        "  drops (ovf/rej/ftd): {} / {} / {}",
        report.drops_overflow, report.drops_rejected, report.drops_ftd
    )?;
    writeln!(
        out,
        "  control overhead : {:>8.2} ctrl/data bits",
        report.control_overhead()
    )?;
    writeln!(out, "  mean final xi    : {:>8.3}", report.mean_final_xi)?;
    if report.faults.any() {
        let f = &report.faults;
        writeln!(
            out,
            "  faults           : {} crashes ({} battery), {} recoveries, {} sink outages",
            f.crashes, f.battery_deaths, f.recoveries, f.sink_outages
        )?;
        writeln!(
            out,
            "  fault losses     : {} queued msgs, {} frames dropped, {} corrupted",
            f.messages_lost_to_crash, f.frames_dropped, f.data_corrupted
        )?;
        writeln!(
            out,
            "  despite faults   : {:>8} deliveries",
            f.deliveries_despite_faults
        )?;
        if f.behavior_changes > 0 {
            writeln!(
                out,
                "  adversaries      : {} behavior changes, {} copies captured",
                f.behavior_changes, f.copies_captured
            )?;
            writeln!(
                out,
                "  adversary frames : {} forged ({} detected), {} lied adverts",
                f.forged_frames, f.forged_detected, f.lied_advertisements
            )?;
        }
    }
    let l = &report.lifetime;
    if l.first_death_secs.is_some() {
        let fmt = |v: Option<f64>| match v {
            Some(t) => format!("{t:.0}s"),
            None => "-".into(),
        };
        writeln!(
            out,
            "  lifetime         : FND {} / HND {} / LND {}, {} alive at end",
            fmt(l.first_death_secs),
            fmt(l.half_death_secs),
            fmt(l.last_death_secs),
            l.alive_at_end
        )?;
    }
    Ok(())
}

fn compare(out: &mut Out, cfg: &RunConfig) -> Result<(), CliError> {
    let mut table = Table::new(
        "variant comparison",
        &[
            "variant",
            "ratio (%)",
            "power (mW)",
            "delay (s)",
            "collisions",
        ],
    );
    let mut row = |label: &str, r: &SimReport| {
        table.row(vec![
            label.into(),
            (r.delivery_ratio() * 100.0).into(),
            r.avg_sensor_power_mw.into(),
            r.mean_delay_secs.into(),
            r.collisions.into(),
        ]);
    };
    for kind in ProtocolKind::ALL {
        note!("running {kind}...");
        let r = Simulation::builder(cfg.scenario.clone(), kind)
            .seed(cfg.seed)
            .faults(cfg.faults.clone())
            .build()
            .run();
        row(kind.label(), &r);
    }
    // A non-builtin --policy joins the panel as a seventh row, run on the
    // OPT base configuration so its MAC knobs match the strongest builtin.
    if cfg.policy != PolicySpec::Builtin {
        note!("running policy {}...", cfg.policy.label());
        let r = Simulation::builder(cfg.scenario.clone(), ProtocolKind::Opt)
            .seed(cfg.seed)
            .policy(cfg.policy)
            .faults(cfg.faults.clone())
            .build()
            .run();
        row(cfg.policy.label(), &r);
    }
    writeln!(out, "{}", table.render_text(2))
}

/// The series `inspect` can extract from an observation file: top-level
/// counter fields plus per-snapshot gauges.
const COUNTER_SERIES: &[&str] = &[
    "deliveries",
    "drops_overflow",
    "drops_rejected",
    "drops_ftd",
    "collisions",
    "frames_sent",
    "frame_deliveries",
    "control_bits",
    "data_bits",
    "sleeps",
    "sleep_secs",
    "faults",
];
const SNAPSHOT_SERIES: &[&str] = &[
    "queue_mean",
    "queue_max",
    "xi_mean",
    "xi_min",
    "xi_max",
    "asleep_fraction",
    "energy_j",
    "alive_nodes",
];

/// `(t1, value)` points of one named series across the window rows.
fn extract(rows: &[Json], name: &str) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for row in rows {
        let Some(t) = row.get("t1").and_then(Json::as_f64) else {
            continue;
        };
        let value = if SNAPSHOT_SERIES.contains(&name) {
            row.get("snapshot")
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
        } else {
            row.get(name).and_then(Json::as_f64)
        };
        if let Some(v) = value {
            out.push((t, v));
        }
    }
    out
}

/// Loads an observation file, tolerating corrupt or truncated lines: an
/// interrupted run (or a crash mid-write) may leave a torn trailing line,
/// which should not make the rest of the file unreadable. Every skipped
/// line is reported on stderr; only a missing/foreign header is fatal.
fn load_observe_file(path: &str) -> Result<(Json, Vec<Json>, Option<Json>), CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io {
        op: "cannot read",
        path: path.to_owned(),
        source: e,
    })?;
    let mut header: Option<Json> = None;
    let mut totals: Option<Json> = None;
    let mut rows = Vec::new();
    let mut skipped = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = match Json::parse(line) {
            Ok(j) => j,
            Err(e) => {
                skipped += 1;
                note!("warning: {path}:{}: skipping unparseable line ({e})", i + 1);
                continue;
            }
        };
        if let Some(schema) = j.get("schema").and_then(Json::as_str) {
            if schema != dftmsn_core::observe::SCHEMA {
                return Err(CliError::Data(format!(
                    "'{path}' has schema '{schema}', expected '{}'",
                    dftmsn_core::observe::SCHEMA
                )));
            }
            header = Some(j);
        } else if j.get("totals").and_then(Json::as_bool) == Some(true) {
            totals = Some(j);
        } else {
            rows.push(j);
        }
    }
    if skipped > 0 {
        note!(
            "warning: {path}: skipped {skipped} corrupt line(s) — interrupted \
             run or torn write; rendering the {} windows that parsed",
            rows.len()
        );
    }
    let Some(header) = header else {
        return Err(CliError::Data(format!(
            "'{path}' has no '{}' header line — not an observation file?",
            dftmsn_core::observe::SCHEMA
        )));
    };
    Ok((header, rows, totals))
}

fn inspect(out: &mut Out, path: &str, series: Option<&str>, width: usize) -> Result<(), CliError> {
    let (header, rows, totals) = load_observe_file(path)?;

    let protocol = header.get("protocol").and_then(Json::as_str).unwrap_or("?");
    let window = header
        .get("window_secs")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let seed = header.get("seed").and_then(Json::as_f64).unwrap_or(0.0);
    writeln!(
        out,
        "{path}: {} windows of {window} s ({protocol}, seed {seed}){}",
        rows.len(),
        if totals.is_some() {
            ""
        } else {
            " — no totals line; run incomplete?"
        },
    )?;

    if let Some(name) = series {
        return inspect_series(out, &rows, name, width);
    }

    if rows.is_empty() {
        // A run shorter than one window writes only the header (and
        // possibly totals); render the empty table rather than erroring so
        // scripted pipelines see a well-formed summary.
        writeln!(
            out,
            "no complete windows recorded (run shorter than one window?)"
        )?;
    }
    let mut table = Table::new("series", &["series", "min", "mean", "max", "last", "trend"]);
    for name in COUNTER_SERIES.iter().chain(SNAPSHOT_SERIES) {
        let points = extract(&rows, name);
        if points.is_empty() {
            continue;
        }
        let values: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        table.row(vec![
            (*name).into(),
            min.into(),
            mean.into(),
            max.into(),
            values[values.len() - 1].into(),
            sparkline(&resample(&values, width)).into(),
        ]);
    }
    writeln!(out, "{}", table.render_text(2))?;
    writeln!(out, "use --series NAME for per-window values of one series")?;
    Ok(())
}

fn inspect_series(out: &mut Out, rows: &[Json], name: &str, width: usize) -> Result<(), CliError> {
    let points = extract(rows, name);
    if points.is_empty() {
        let known: Vec<&str> = COUNTER_SERIES
            .iter()
            .chain(SNAPSHOT_SERIES)
            .copied()
            .collect();
        return Err(CliError::Data(format!(
            "no data for series '{name}' (known series: {})",
            known.join(", ")
        )));
    }
    let values: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
    writeln!(out, "{name}: {}", sparkline(&resample(&values, width)))?;
    let mut table = Table::new(name, &["t (s)", name]);
    for (t, v) in points {
        table.row(vec![t.into(), v.into()]);
    }
    writeln!(out, "{}", table.render_text(3))?;
    Ok(())
}

fn analyze(out: &mut Out, scenario: &ScenarioParams) -> Result<(), CliError> {
    let contacts = ContactModel::from_scenario(scenario);
    let epidemic = EpidemicModel::from_scenario(scenario);
    let horizon = scenario.duration_secs as f64;
    writeln!(out, "analytic contact model (well-mixed approximation):")?;
    writeln!(
        out,
        "  sensor-sensor contact rate : {:.3e} /s  (mean gap {:.0} s)",
        contacts.lambda_node_node,
        contacts.mean_intercontact_nn()
    )?;
    writeln!(
        out,
        "  sensor-sink contact rate   : {:.3e} /s  (mean gap {:.0} s)",
        contacts.lambda_node_sink,
        contacts.mean_intercontact_ns()
    )?;
    writeln!(out, "direct transmission:")?;
    writeln!(
        out,
        "  expected delay             : {:.0} s",
        direct_expected_delay(contacts.lambda_node_sink, scenario.sinks)
    )?;
    writeln!(
        out,
        "  avg ratio over a {horizon:.0} s run: {:.1} %",
        direct_average_ratio(contacts.lambda_node_sink, scenario.sinks, horizon) * 100.0
    )?;
    writeln!(out, "flooding:")?;
    writeln!(
        out,
        "  expected delay             : {:.0} s",
        epidemic.expected_delay()
    )?;
    writeln!(
        out,
        "  P(delivered by {horizon:.0} s)     : {:.1} %",
        epidemic.delivery_probability_by(horizon, 1.0) * 100.0
    )
}
