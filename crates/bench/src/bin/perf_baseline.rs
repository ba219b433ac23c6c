//! Engine performance baseline: times the simulation hot paths and writes
//! `BENCH_engine.json` so perf-sensitive PRs have a tracked before/after
//! figure (see EXPERIMENTS.md § Performance for the schema).
//!
//! Three measurements:
//!
//! * **engine** — every protocol variant run serially on one pinned
//!   scenario; reports wall time (accumulated in integer nanoseconds so
//!   repeated float addition cannot smear the totals), events/second and
//!   ns/event (the discrete-event core's throughput, from
//!   `SimReport::events_processed`);
//! * **sweep** — a batch of runs through [`dftmsn_bench::run_all`]'s
//!   work-stealing scheduler; reports runs/second (harness throughput);
//! * **scale** (`--scale`) — the 200 to 100 000-sensor tier of
//!   [`dftmsn_bench::scale`], OPT under both mobility modes, which is the
//!   tracked large-n figure.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin perf_baseline
//! [--quick] [--scale] [--out PATH] [--fresh]`.
//! `--quick` shrinks all workloads to a smoke size for CI;
//! numbers from different machines (or `--quick` and full runs) are not
//! comparable with each other. Per-event-kind costs come from the repo
//! benchmark's traced pass (`benchmark/src/layers.rs`), not from here.
//!
//! The scale rows `scale_check` gates (the two smallest sizes) are each
//! the fastest of [`REPS`] runs, interleaved across the four rows,
//! because that is the statistic the gate re-measures; every larger row
//! is one run.
//!
//! The baseline is resumable at the granularity of its timed units: each
//! engine `(variant, seed)` run, the gated scale rows together and each
//! other scale `(sensors, mode)` run are recorded in `<out>.progress` the
//! moment they finish, the output JSON is rewritten after every unit with
//! `"partial": true`, and a rerun replays recorded units instead of
//! re-measuring them (their wall times are the ones measured when they
//! originally ran). The sweep section times the
//! parallel scheduler over the *whole* batch, so it is one unit — slicing
//! it across restarts would time something else. On a complete run the
//! progress file is removed, so the next invocation re-measures from
//! scratch; `--fresh` discards a leftover progress file up front. Progress
//! recorded under a different workload shape (e.g. `--quick` vs. full) is
//! ignored.

#![forbid(unsafe_code)]

use dftmsn_bench::scale::{
    measure, run_tier, ScaleRow, QUICK_DURATION_SECS, REPS, SCALE_DURATION_SECS, SCALE_SENSORS,
};
use dftmsn_bench::sweep::{run_all, RunSpec};
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_core::world::{MobilityMode, Simulation};
use dftmsn_metrics::json::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct EngineRow {
    protocol: &'static str,
    runs: u64,
    wall_ns: u128,
    events: u64,
    frames: u64,
}

impl EngineRow {
    fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }

    fn ns_per_event(&self) -> f64 {
        self.wall_ns as f64 / self.events as f64
    }
}

/// One measured scale point as stored in the output/progress files.
struct ScalePoint {
    sensors: usize,
    mode: &'static str,
    wall_ns: u128,
    events: u64,
    generated: u64,
    delivered: u64,
    mean_delay_secs: f64,
}

impl From<ScaleRow> for ScalePoint {
    fn from(row: ScaleRow) -> Self {
        ScalePoint {
            sensors: row.sensors,
            mode: row.mode_label(),
            wall_ns: row.wall_ns,
            events: row.events,
            generated: row.generated,
            delivered: row.delivered,
            mean_delay_secs: row.mean_delay_secs,
        }
    }
}

impl ScalePoint {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }

    fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.wall_ns as f64 / self.events as f64
    }

    fn delivery_ratio(&self) -> f64 {
        if self.generated == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.generated as f64
    }
}

/// Completed timed units of an interrupted invocation, keyed the same way
/// the measurement loops iterate.
#[derive(Default)]
struct Progress {
    /// (variant label, seed) → (wall_ns, events, frames).
    engine: HashMap<(String, u64), (u128, u64, u64)>,
    /// (wall_ns, runs) of the completed sweep section.
    sweep: Option<(u128, usize)>,
    /// (sensors, mode label) → the measured point.
    scale: HashMap<(usize, String), ScalePoint>,
}

const PROGRESS_SCHEMA: &str = "dftmsn-perf-progress/2";

impl Progress {
    /// Loads recorded units, discarding a file whose workload fingerprint
    /// does not match the current invocation (stale shapes must not leak
    /// into a differently-sized baseline). Unreadable or unparseable
    /// files degrade to empty progress with a warning — the cost is
    /// re-measurement, never a wrong number.
    fn load(path: &Path, fingerprint: &str) -> Progress {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Progress::default(),
            Err(e) => {
                eprintln!("warning: cannot read {}: {e}; re-measuring", path.display());
                return Progress::default();
            }
        };
        let json = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!(
                    "warning: {} is not valid progress JSON ({e}); re-measuring",
                    path.display()
                );
                return Progress::default();
            }
        };
        if json.get("schema").and_then(Json::as_str) != Some(PROGRESS_SCHEMA)
            || json.get("fingerprint").and_then(Json::as_str) != Some(fingerprint)
        {
            eprintln!(
                "warning: {} records a different workload shape; re-measuring",
                path.display()
            );
            return Progress::default();
        }
        let mut progress = Progress::default();
        let ns = |j: &Json, key: &str| -> Option<u128> {
            j.get(key)
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
        };
        let num = |j: &Json, key: &str| -> Option<f64> { j.get(key).and_then(Json::as_f64) };
        for row in json.get("engine").and_then(Json::as_array).unwrap_or(&[]) {
            let (Some(protocol), Some(seed), Some(wall), Some(events), Some(frames)) = (
                row.get("protocol").and_then(Json::as_str),
                num(row, "seed"),
                ns(row, "wall_ns"),
                num(row, "events"),
                num(row, "frames"),
            ) else {
                continue;
            };
            progress.engine.insert(
                (protocol.to_string(), seed as u64),
                (wall, events as u64, frames as u64),
            );
        }
        if let Some(sweep) = json.get("sweep") {
            if let (Some(wall), Some(runs)) = (ns(sweep, "wall_ns"), num(sweep, "runs")) {
                progress.sweep = Some((wall, runs as usize));
            }
        }
        for row in json.get("scale").and_then(Json::as_array).unwrap_or(&[]) {
            let (Some(sensors), Some(mode), Some(wall)) = (
                num(row, "sensors"),
                row.get("mode").and_then(Json::as_str),
                ns(row, "wall_ns"),
            ) else {
                continue;
            };
            let mode_static: &'static str = if mode == "lazy" { "lazy" } else { "ticked" };
            progress.scale.insert(
                (sensors as usize, mode.to_string()),
                ScalePoint {
                    sensors: sensors as usize,
                    mode: mode_static,
                    wall_ns: wall,
                    events: num(row, "events").unwrap_or(0.0) as u64,
                    generated: num(row, "generated").unwrap_or(0.0) as u64,
                    delivered: num(row, "delivered").unwrap_or(0.0) as u64,
                    mean_delay_secs: num(row, "mean_delay_secs").unwrap_or(0.0),
                },
            );
        }
        progress
    }

    /// Rewrites the progress file (write-to-temp + rename, so an
    /// interrupt mid-save cannot tear it).
    fn save(&self, path: &Path, fingerprint: &str) {
        let engine: Vec<Json> = {
            let mut keys: Vec<&(String, u64)> = self.engine.keys().collect();
            keys.sort();
            keys.into_iter()
                .map(|k| {
                    let (wall, events, frames) = self.engine[k];
                    Json::object()
                        .field("protocol", k.0.as_str())
                        .field("seed", k.1)
                        .field("wall_ns", wall.to_string())
                        .field("events", events)
                        .field("frames", frames)
                })
                .collect()
        };
        let scale: Vec<Json> = {
            let mut keys: Vec<&(usize, String)> = self.scale.keys().collect();
            keys.sort();
            keys.into_iter()
                .map(|k| {
                    let p = &self.scale[k];
                    Json::object()
                        .field("sensors", p.sensors)
                        .field("mode", p.mode)
                        .field("wall_ns", p.wall_ns.to_string())
                        .field("events", p.events)
                        .field("generated", p.generated)
                        .field("delivered", p.delivered)
                        .field("mean_delay_secs", p.mean_delay_secs)
                })
                .collect()
        };
        let mut json = Json::object()
            .field("schema", PROGRESS_SCHEMA)
            .field("fingerprint", fingerprint)
            .field("engine", Json::Arr(engine))
            .field("scale", Json::Arr(scale));
        if let Some((wall, runs)) = &self.sweep {
            json = json.field(
                "sweep",
                Json::object()
                    .field("wall_ns", wall.to_string())
                    .field("runs", *runs),
            );
        }
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        let write =
            std::fs::write(&tmp, json.render() + "\n").and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!(
                "warning: cannot save progress to {}: {e}; interrupted work will repeat",
                path.display()
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = args.iter().any(|a| a == "--scale");
    let fresh = args.iter().any(|a| a == "--fresh");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_engine.json", String::as_str);

    // Pinned workloads: big enough that per-event costs dominate startup,
    // small enough to finish in seconds. Changing them invalidates
    // comparisons against previously recorded baselines.
    let (engine_secs, engine_seeds, sweep_secs, sweep_seeds) = if quick {
        (1_000u64, 1u64, 500u64, 1u64)
    } else {
        (10_000, 3, 2_000, 4)
    };
    let scenario = ScenarioParams::paper_default()
        .with_sensors(30)
        .with_sinks(2)
        .with_duration_secs(engine_secs);
    let (scale_sizes, scale_dur): (&[usize], u64) = if quick {
        (&SCALE_SENSORS[..2], QUICK_DURATION_SECS)
    } else {
        (&SCALE_SENSORS[..], SCALE_DURATION_SECS)
    };
    // The sweep section runs on every core `run_all` finds; record how
    // many that was so its runs/s can be read against the host.
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The progress fingerprint pins every knob that shapes a timed unit;
    // progress from a differently shaped invocation never matches.
    let fingerprint = format!(
        "quick={quick} engine={engine_secs}x{engine_seeds} sweep={sweep_secs}x{sweep_seeds} \
         scale={scale}:{scale_sizes:?}@{scale_dur}, gated rows fastest of {REPS}"
    );
    let progress_path = PathBuf::from(format!("{out_path}.progress"));
    if fresh {
        let _ = std::fs::remove_file(&progress_path);
    }
    let mut progress = Progress::load(&progress_path, &fingerprint);
    let resumed_units = progress.engine.len() + progress.scale.len();
    if resumed_units > 0 || progress.sweep.is_some() {
        eprintln!(
            "perf_baseline: resuming from {} ({} timed units on record)",
            progress_path.display(),
            resumed_units + usize::from(progress.sweep.is_some()),
        );
    }

    // Serial per-variant engine timing; wall accumulated in integer ns.
    // Each (variant, seed) run is one resumable unit, and the output file
    // is reflushed (marked partial) after every unit.
    let mut rows: Vec<EngineRow> = Vec::new();
    let mut sweep_done: Option<(u128, usize)> = None;
    let mut scale_rows: Vec<ScalePoint> = Vec::new();
    let flush = |rows: &[EngineRow],
                 sweep_done: &Option<(u128, usize)>,
                 scale_rows: &[ScalePoint],
                 partial: bool| {
        let json = render_output(
            quick,
            partial,
            &scenario,
            engine_secs,
            engine_seeds,
            sweep_secs,
            host_cores,
            rows,
            sweep_done,
            (scale, scale_dur, scale_rows),
        );
        if let Err(e) = std::fs::write(out_path, json.render() + "\n") {
            if partial {
                eprintln!("warning: cannot flush partial {out_path}: {e}");
            } else {
                eprintln!("error: cannot write {out_path}: {e}");
                std::process::exit(3);
            }
        }
    };

    for kind in ProtocolKind::ALL {
        let mut wall_ns: u128 = 0;
        let mut events = 0;
        let mut frames = 0;
        for seed in 1..=engine_seeds {
            let key = (kind.label().to_string(), seed);
            let (run_ns, run_events, run_frames) = match progress.engine.get(&key) {
                Some(&unit) => unit,
                None => {
                    let sim = Simulation::builder(scenario.clone(), kind)
                        .seed(seed)
                        .build();
                    let t0 = Instant::now();
                    let report = sim.run();
                    let unit = (
                        t0.elapsed().as_nanos(),
                        report.events_processed,
                        report.frames_sent,
                    );
                    progress.engine.insert(key, unit);
                    progress.save(&progress_path, &fingerprint);
                    flush(&rows, &sweep_done, &scale_rows, true);
                    unit
                }
            };
            wall_ns += run_ns;
            events += run_events;
            frames += run_frames;
        }
        let row = EngineRow {
            protocol: kind.label(),
            runs: engine_seeds,
            wall_ns,
            events,
            frames,
        };
        eprintln!(
            "{:<9} {:>8.1} ms  {:>9} events  {:>6.0} kev/s  {:>5.0} ns/ev",
            row.protocol,
            row.wall_ms(),
            row.events,
            row.events_per_sec() / 1e3,
            row.ns_per_event()
        );
        rows.push(row);
        flush(&rows, &sweep_done, &scale_rows, true);
    }

    // Parallel sweep timing (work-stealing run_all, all cores). One unit:
    // the figure is the scheduler's throughput over the whole batch, so a
    // partially resumed batch would time a different workload.
    let spec_count = ProtocolKind::ALL.len() * sweep_seeds as usize;
    let (sweep_ns, sweep_runs) = match progress.sweep {
        Some(unit) => unit,
        None => {
            let specs: Vec<RunSpec> = ProtocolKind::ALL
                .into_iter()
                .flat_map(|kind| {
                    (1..=sweep_seeds).map(move |seed| RunSpec {
                        scenario: ScenarioParams::paper_default()
                            .with_sensors(30)
                            .with_sinks(2)
                            .with_duration_secs(sweep_secs),
                        protocol: ProtocolParams::paper_default(),
                        config: kind.config(),
                        seed,
                        faults: FaultPlan::default(),
                        observe_window_secs: None,
                        policy: PolicySpec::Builtin,
                    })
                })
                .collect();
            let t0 = Instant::now();
            let reports = run_all(&specs, 0);
            let unit = (t0.elapsed().as_nanos(), reports.len());
            progress.sweep = Some(unit);
            progress.save(&progress_path, &fingerprint);
            unit
        }
    };
    assert_eq!(sweep_runs, spec_count, "sweep batch shape drifted");
    let sweep_ms = sweep_ns as f64 / 1e6;
    eprintln!(
        "sweep     {sweep_ms:>8.1} ms  {sweep_runs:>9} runs    {:>6.2} runs/s",
        sweep_runs as f64 / (sweep_ms / 1_000.0)
    );
    sweep_done = Some((sweep_ns, sweep_runs));
    flush(&rows, &sweep_done, &scale_rows, true);

    if scale {
        // The two sizes `scale_check` gates are one unit, recorded with
        // the statistic the gate re-measures: each row the fastest of
        // `REPS` runs interleaved across the four (`run_tier`). The larger
        // sizes are one run each.
        let gated = &scale_sizes[..2];
        let missing = gated.iter().any(|&n| {
            ["ticked", "lazy"]
                .iter()
                .any(|label| !progress.scale.contains_key(&(n, (*label).to_string())))
        });
        if missing {
            for row in run_tier(gated, scale_dur) {
                let key = (row.sensors, row.mode_label().to_string());
                progress.scale.insert(key, ScalePoint::from(row));
            }
            progress.save(&progress_path, &fingerprint);
        }
        for &n in scale_sizes {
            for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
                let label = if mode == MobilityMode::Lazy {
                    "lazy"
                } else {
                    "ticked"
                };
                let key = (n, label.to_string());
                if !progress.scale.contains_key(&key) {
                    let row = measure(n, scale_dur, mode);
                    progress.scale.insert(key.clone(), ScalePoint::from(row));
                    progress.save(&progress_path, &fingerprint);
                }
                let p = &progress.scale[&key];
                eprintln!(
                    "scale {:>5} sensors {:>6}: {:>8.1} ms  {:>9} events  {:>7.0} kev/s  ratio {:.2}",
                    p.sensors,
                    p.mode,
                    p.wall_ns as f64 / 1e6,
                    p.events,
                    p.events_per_sec() / 1e3,
                    p.delivery_ratio(),
                );
                scale_rows.push(ScalePoint {
                    sensors: p.sensors,
                    mode: p.mode,
                    wall_ns: p.wall_ns,
                    events: p.events,
                    generated: p.generated,
                    delivered: p.delivered,
                    mean_delay_secs: p.mean_delay_secs,
                });
                flush(&rows, &sweep_done, &scale_rows, true);
            }
        }
    }

    flush(&rows, &sweep_done, &scale_rows, false);
    // A finished baseline starts over next time: the progress file only
    // bridges interruptions, it must not freeze old measurements forever.
    let _ = std::fs::remove_file(&progress_path);
    eprintln!("wrote {out_path}");
}

#[allow(clippy::too_many_arguments)]
fn render_output(
    quick: bool,
    partial: bool,
    scenario: &ScenarioParams,
    engine_secs: u64,
    engine_seeds: u64,
    sweep_secs: u64,
    host_cores: usize,
    rows: &[EngineRow],
    sweep_done: &Option<(u128, usize)>,
    scale: (bool, u64, &[ScalePoint]),
) -> Json {
    let engine_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::object()
                .field("protocol", r.protocol)
                .field("runs", r.runs)
                .field("wall_ms", r.wall_ms())
                .field("events", r.events)
                .field("frames_sent", r.frames)
                .field("events_per_sec", r.events_per_sec())
                .field("ns_per_event", r.ns_per_event())
        })
        .collect();
    let total_ns: u128 = rows.iter().map(|r| r.wall_ns).sum();
    let total_events: u64 = rows.iter().map(|r| r.events).sum();
    let mut json = Json::object()
        .field("schema", "dftmsn-perf-baseline/2")
        .field("quick", quick)
        .field("partial", partial)
        .field("host_cores", host_cores)
        .field(
            "scenario",
            Json::object()
                .field("sensors", scenario.sensors)
                .field("sinks", scenario.sinks)
                .field("duration_secs", engine_secs)
                .field("seeds_per_variant", engine_seeds),
        )
        .field("engine", Json::Arr(engine_rows));
    if total_events > 0 {
        json = json.field(
            "engine_totals",
            Json::object()
                .field("wall_ms", total_ns as f64 / 1e6)
                .field("events", total_events)
                .field(
                    "events_per_sec",
                    total_events as f64 / (total_ns as f64 / 1e9),
                ),
        );
    }
    if let Some((sweep_ns, sweep_runs)) = sweep_done {
        let sweep_ms = *sweep_ns as f64 / 1e6;
        json = json.field(
            "sweep",
            Json::object()
                .field("runs", *sweep_runs)
                .field("threads", 0usize)
                .field("duration_secs", sweep_secs)
                .field("wall_ms", sweep_ms)
                .field("runs_per_sec", *sweep_runs as f64 / (sweep_ms / 1_000.0)),
        );
    }
    let (scale_enabled, scale_dur, scale_rows) = scale;
    if scale_enabled && !scale_rows.is_empty() {
        let tier_rows: Vec<Json> = scale_rows
            .iter()
            .map(|r| {
                Json::object()
                    .field("sensors", r.sensors)
                    .field("mode", r.mode)
                    .field("wall_ms", r.wall_ns as f64 / 1e6)
                    .field("events", r.events)
                    .field("events_per_sec", r.events_per_sec())
                    .field("ns_per_event", r.ns_per_event())
                    .field("generated", r.generated)
                    .field("delivered", r.delivered)
                    .field("delivery_ratio", r.delivery_ratio())
                    .field("mean_delay_secs", r.mean_delay_secs)
            })
            .collect();
        json = json.field(
            "scale",
            Json::object()
                .field("protocol", "OPT")
                .field("duration_secs", scale_dur)
                .field("seed", 1u64)
                .field("rows", Json::Arr(tier_rows)),
        );
    }
    json
}
