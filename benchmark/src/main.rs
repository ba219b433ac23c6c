//! # benchmark — end-to-end and per-layer cost of the DFT-MSN simulator
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--workload W] [--seed N]
//!     [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare BASE.json NEW.json
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both
//! passes run. Each (workload, pass) runs in a fresh child process of this
//! binary, so `peak_rss_mb` is that workload's alone and a panic costs one
//! workload, not the run. Every metric prints as
//! `workload metric value unit (n=samples)`, the whole result is written
//! as JSON to `--out` (default under `$CARGO_TARGET_DIR/benchmark/`, or
//! `target/benchmark/`, named after the seed, workload and pass), and the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! status is 1 if any output check failed, after everything is printed.
//!
//! `--compare` prints, for every (workload, end-to-end metric), the base
//! and new values, the change, the bound and a verdict — better,
//! unchanged, worse, or unresolved when the repetitions spread wider than
//! the bound — and exits 1 on any "worse", on a workload or metric of
//! BASE that NEW lacks, and on any failed check in NEW.
//!
//! ## Workloads
//!
//! All are closed loops: a repetition starts when the previous one ends,
//! and none starts that would overrun `--seconds`, the untraced pass's
//! measuring budget (default 25, the `run_seconds` of `BENCHMARK.json`;
//! the traced pass runs a fixed set of runs instead). `--seed` (default
//! 1) seeds the simulations and the fault and behavior plans.
//!
//! | workload | one repetition | why |
//! |---|---|---|
//! | `scale-ticked` | OPT, 20 000 sensors, scale scenario, ticked mobility, 300 s | The mobility coast wheel and the contact cache do the work: MobilityTick and WakeUp+Guard split the time, frames are rare. |
//! | `scale-lazy` | the same run with lazy mobility | Bypasses the tick path and the contact cache: the event queue and duty-cycle timers. Being the same size as scale-ticked, the pair isolates the mobility path. |
//! | `paper-sweep` | the Fig. 2 grid for seed N: sinks 1..=10 × the 4 Fig. 2 variants × 1 500 s of the paper's 100-sensor scenario, 40 runs through `sweep::run_all_with` on 2 workers | What users run: the MAC handshake and the medium dominate, NOSLEEP carries the tail, and the sweep scheduler sets the makespan. |
//! | `fault-ckpt` | the 20 000-sensor ticked run with `churn=0.1@60;linkdrop=0.05`, 10 % selfish nodes and a 10 s `MetricsRecorder`, checkpointed and resumed every 10 simulated seconds | Engine state is written and read, not only stepped; the faults, behavior and observe layers work only here. |
//!
//! The scale scenario keeps the paper's density, zone size and offered
//! load at any size and samples mobility every 0.025 s. At 50 000 sensors
//! the lazy run would add cache pressure, but there its wall time swung
//! 1.9× between runs of one seed on the host described under the
//! end-to-end metrics, against 1.26× at
//! 20 000, more than any bound can absorb. `--quick` shrinks everything
//! (200 sensors, 60 s, a 2 × 2 sweep of 300 s runs) for smoke tests.
//!
//! ## End-to-end metrics (untraced pass)
//!
//! Each prints with its sample count. The bound is the share of the base
//! value by which a metric may worsen before `--compare` calls it worse.
//!
//! | metric | unit | bound | what is measured |
//! |---|---|---|---|
//! | `wall_s` | s | 25 % | host time of one repetition, set-up excluded. Scale and fault-ckpt runs are timed per 10 simulated seconds (for fault-ckpt each segment includes its checkpoint and resume) and `wall_s` sums each segment's fastest repetition; the sweep reports its fastest batch makespan |
//! | `setup_s` | s | 25 % | building every `Simulation` one repetition needs, plans included, one after another with each dropped before the next, as the sweep's workers do: 9 samples after each repetition (30 for the sweep), median |
//! | `peak_rss_mb` | MiB | 10 % | `VmHWM` once the first repetition has run |
//!
//! Every repetition does the same deterministic work, so the spread
//! between repetitions is the host's: the fastest one is the estimate
//! least moved by a slow stretch. The time bounds are wide because the
//! host is: on a shared 2-vCPU virtual machine (Xeon, KVM, no measurable
//! steal time), the repetitions of one scale-ticked run swung by up to
//! 1.7× within a minute, and ten-seed medians of its `wall_s` taken 20
//! minutes apart differed by up to 45 %. Peak memory depends on the seed
//! and, for the sweep, on which worker ran which run; over ten seeds it
//! spread under 3 %. Snapshot cost is not an end-to-end metric of its
//! own: only fault-ckpt writes engine state, and there it is part of
//! `wall_s` (`core.world_ckpt.share` says how much).
//!
//! ## Output checks
//!
//! `attempted` counts checks and `failed` the ones that did not hold:
//! every repetition's digest (`fnv1a64` of `SimReport::snap_bytes`) equals
//! the first's; every chained fault-ckpt run equals the uninterrupted
//! reference; every `resume_from_bytes` returns `Ok`, and a resumed
//! simulation re-encodes to the same bytes; a stepped run reaches its
//! configured end and matches the same run inside the sweep; the traced
//! run equals the untraced one; observed and unobserved runs agree; the
//! layer split sums to its span; reports are plausible; every declared
//! metric, and no other, is emitted with its unit; the child process
//! exits cleanly.
//! Digests are printed, not pinned.
//!
//! ## Per-layer metrics (traced pass)
//!
//! The traced pass times, from outside and through public calls only, one
//! stepped untraced run and one `run_profiled` of each workload's
//! reference simulation (for the sweep, each variant at 3 sinks, seed N,
//! after one untraced batch; for fault-ckpt, also one chained run and 3
//! interleaved observed/unobserved pairs at 5 000 sensors). Spans around
//! `build`, `step`, `run_profiled`, `checkpoint_bytes`,
//! `resume_from_bytes`, `finish_partial`, `snap_bytes`, `run` and each
//! sweep run are kept in memory and written with the result.
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | `sim.event` | `events`, `residual_ns_per_event` | `wall_s` on scale-lazy most, little on paper-sweep |
//! | `core.world` | `ns_per_event` (the stepped untraced run's time over its events), `contact_cache_hit_rate`, `stale_timer_frac`, `share` (stale timers) | `wall_s` on scale-ticked through the cache (0 on scale-lazy, which bypasses it); the sweep's tail through stale timers |
//! | `core.mobility` | `ticks`, `self_s`, `share`, `ns_per_node_tick` | `wall_s` on scale-ticked |
//! | `core.mac` | `wakeup_s`, `guard_s`, `listen_s`, `handshake_s`, `share`, `attempt_success` | WakeUp+Guard: `wall_s` on both scale workloads; listen+handshake: paper-sweep |
//! | `radio.medium` | `txend_s`, `share`, `frames`, `collisions_per_frame` | paper-sweep; under 1 % on the scale workloads |
//! | `core.policy` | `self_s`, `share` | nothing end to end: it stays under a few per cent |
//! | `core.faults` | `share`, `events` | fault-ckpt only |
//! | `core.observe` | `share`, `overhead_frac` | `wall_s` on fault-ckpt |
//! | `core.world_ckpt` | `ckpt_ms`, `resume_ms` (per operation, median), `kib_per_op`, `ops`, `share` (checkpoint + resume time ÷ the chained run's wall time) | `wall_s` and `peak_rss_mb` on fault-ckpt; all 0 elsewhere |
//! | `bench.sweep` | `threads`, `runs`, `busy_frac`, `tail_idle_frac`, `run_s_p50` (per-run latency rebuilt from per-worker completion stamps) | `wall_s` on paper-sweep; all 0 elsewhere |
//! | `trace` | `overhead_frac`, `residual_frac`, `clock_frac` | nothing: the profiler's own cost and what its span leaves outside the handlers |
//! | `model` | `delivery_ratio`, `power_mw`, `mean_delay` (simulated s) | nothing: the Fig. 2 axes, which no speed change may move |
//!
//! ## Reading the traced numbers
//!
//! `run_profiled` reads the clock twice around every event handler. Its
//! span splits exactly, in integer ns, into handler self time per layer
//! (`EventProfile` label → layer; an unmapped label fails the pass), the
//! calibrated cost of the clock reads (`trace.clock_frac` of the span) and
//! a residual (`trace.residual_frac`: queue pop, dispatch, report
//! finalisation and the profiler's own bookkeeping). A layer's `share` is
//! its part of the handler time, so the shares sum to 1 and a layer's
//! part of the whole span is `share × (1 − residual_frac − clock_frac)`.
//! Shares are the meaningful output: the traced run is slower than the
//! untraced one by `trace.overhead_frac`, and a layer's absolute `*_s`
//! includes one clock read per event. A faster layer can save at most its
//! part of `wall_s`. Values of 0 mark a layer the workload does not
//! exercise.

#![forbid(unsafe_code)]

mod compare;
mod layers;
mod stats;
mod workloads;

use dftmsn_metrics::json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::Workload;

/// End-to-end metrics: name, unit and bound, all lower-is-better.
const END_TO_END: [(&str, &str, f64); 3] = [
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.1),
];

/// Per-layer metrics: name and unit.
const PER_LAYER: [(&str, &str); 42] = [
    ("sim.event.events", "count"),
    ("sim.event.residual_ns_per_event", "ns"),
    ("core.world.ns_per_event", "ns"),
    ("core.world.contact_cache_hit_rate", "fraction"),
    ("core.world.stale_timer_frac", "fraction"),
    ("core.world.share", "fraction"),
    ("core.mobility.ticks", "count"),
    ("core.mobility.self_s", "s"),
    ("core.mobility.share", "fraction"),
    ("core.mobility.ns_per_node_tick", "ns"),
    ("core.mac.wakeup_s", "s"),
    ("core.mac.guard_s", "s"),
    ("core.mac.listen_s", "s"),
    ("core.mac.handshake_s", "s"),
    ("core.mac.share", "fraction"),
    ("core.mac.attempt_success", "fraction"),
    ("radio.medium.txend_s", "s"),
    ("radio.medium.share", "fraction"),
    ("radio.medium.frames", "count"),
    ("radio.medium.collisions_per_frame", "ratio"),
    ("core.policy.self_s", "s"),
    ("core.policy.share", "fraction"),
    ("core.faults.share", "fraction"),
    ("core.faults.events", "count"),
    ("core.observe.share", "fraction"),
    ("core.observe.overhead_frac", "fraction"),
    ("core.world_ckpt.ckpt_ms", "ms"),
    ("core.world_ckpt.resume_ms", "ms"),
    ("core.world_ckpt.kib_per_op", "KiB"),
    ("core.world_ckpt.ops", "count"),
    ("core.world_ckpt.share", "fraction"),
    ("bench.sweep.threads", "count"),
    ("bench.sweep.runs", "count"),
    ("bench.sweep.busy_frac", "fraction"),
    ("bench.sweep.tail_idle_frac", "fraction"),
    ("bench.sweep.run_s_p50", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.residual_frac", "fraction"),
    ("trace.clock_frac", "fraction"),
    ("model.delivery_ratio", "fraction"),
    ("model.power_mw", "mW"),
    ("model.mean_delay", "sim_s"),
];

/// Makes the child running the named workload panic, so tests can check
/// that one broken workload is reported as failed while the rest finish.
const PANIC_ENV: &str = "DFTMSN_BENCHMARK_PANIC";

const USAGE: &str = "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--quick] [--out FILE]\n       benchmark --compare BASE.json NEW.json\n\
workloads: scale-ticked, scale-lazy, paper-sweep, fault-ckpt";

#[derive(Debug, Clone)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

enum Mode {
    Bench(Opts),
    Child(Workload, bool, Opts),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut opts = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 25.0,
        traces: vec![false, true],
        quick: false,
        out: None,
    };
    let mut child = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?;
                opts.workloads = vec![w];
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("invalid seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("invalid --seconds '{v}'"))?;
            }
            "--trace" => {
                opts.traces = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--child" => child = true,
            "--compare" => {
                let base = PathBuf::from(value()?);
                let new = PathBuf::from(value()?);
                return Ok(Mode::Compare(base, new));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !child {
        return Ok(Mode::Bench(opts));
    }
    match (opts.workloads.as_slice(), opts.traces.as_slice()) {
        (&[w], &[trace]) => Ok(Mode::Child(w, trace, opts)),
        _ => Err("--child runs one --workload and one --trace".to_owned()),
    }
}

/// Runs one pass of one workload in this process and prints its result.
fn child(w: Workload, trace: bool, opts: &Opts) -> ExitCode {
    if std::env::var(PANIC_ENV).is_ok_and(|v| v == w.name()) {
        panic!("{PANIC_ENV} asked {} to panic", w.name());
    }
    let outcome = if trace {
        workloads::traced(w, opts.seed, opts.quick)
    } else {
        let budget = Duration::from_secs_f64(opts.seconds);
        workloads::untraced(w, opts.seed, budget, opts.quick)
    };
    println!("{}", outcome.to_json(w, trace, opts.seed).render());
    ExitCode::SUCCESS
}

/// The result of one child: its JSON object, with the orchestrator's own
/// checks folded into `attempted`, `failed` and `failures`.
struct PassResult {
    workload: Workload,
    trace: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    json: Json,
}

impl PassResult {
    fn metrics(&self) -> &[Json] {
        self.json
            .get("metrics")
            .and_then(Json::as_array)
            .unwrap_or(&[])
    }

    fn metric(&self, name: &str) -> Option<&Json> {
        self.metrics()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
    }

    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    fn to_json(&self) -> Json {
        let Json::Obj(fields) = &self.json else {
            unreachable!("results are objects")
        };
        let mut out = Json::object();
        for (k, v) in fields {
            if !matches!(k.as_str(), "attempted" | "failed" | "failures") {
                out = out.field(k, v.clone());
            }
        }
        let failures = self.failures.iter().map(|s| s.as_str().into()).collect();
        out.field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("failures", Json::Arr(failures))
    }
}

/// Spawns the child for one pass and checks what it printed.
fn run_pass(opts: &Opts, w: Workload, trace: bool) -> PassResult {
    let mut result = PassResult {
        workload: w,
        trace,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        json: Json::object()
            .field("workload", w.name())
            .field("trace", u64::from(trace))
            .field("seed", opts.seed),
    };
    let output = std::env::current_exe().and_then(|exe| {
        let mut cmd = Command::new(exe);
        cmd.args(["--child", "--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if opts.quick {
            cmd.arg("--quick");
        }
        cmd.output()
    });
    let parsed = match output {
        Err(e) => Err(format!("could not start the child process: {e}")),
        Ok(o) if !o.status.success() => Err(format!("child process failed: {}", o.status)),
        Ok(o) => {
            let text = String::from_utf8_lossy(&o.stdout);
            let last = text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("");
            match Json::parse(last) {
                Ok(json) if json.as_object().is_some() => Ok(json),
                Ok(_) => Err("the child result is not a JSON object".to_owned()),
                Err(e) => Err(format!("unreadable child result: {e}")),
            }
        }
    };
    match parsed {
        Err(why) => result.fail(why),
        Ok(json) => {
            let count = |k| json.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            result.attempted = count("attempted");
            result.failed = count("failed");
            result.failures = json
                .get("failures")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_owned))
                .collect();
            result.json = json;
            let declared = declared(trace);
            for &(name, unit) in &declared {
                let got = result.metric(name).and_then(|m| m.get("unit")?.as_str());
                if got == Some(unit) {
                    result.attempted += 1;
                } else {
                    result.fail(format!("metric {name} missing or not in {unit}"));
                }
            }
            let extra: Vec<String> = result
                .metrics()
                .iter()
                .filter_map(|m| m.get("name")?.as_str())
                .filter(|name| !declared.iter().any(|(d, _)| d == name))
                .map(str::to_owned)
                .collect();
            if extra.is_empty() {
                result.attempted += 1;
            } else {
                result.fail(format!("undeclared metrics: {}", extra.join(", ")));
            }
        }
    }
    result
}

/// The metrics a pass must emit, with their units.
fn declared(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    }
}

fn print_result(r: &PassResult) {
    let w = r.workload.name();
    for m in r.metrics() {
        let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("?");
        let n = m.get("n").and_then(Json::as_f64).unwrap_or(0.0);
        let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!("{w} {} {v} {} (n={n})", s("name"), s("unit"));
    }
    let notes = r.json.get("notes").and_then(Json::as_array).unwrap_or(&[]);
    for note in notes.iter().filter_map(Json::as_str) {
        println!("{note}");
    }
    for f in &r.failures {
        println!("FAILED {w}: {f}");
    }
    let pass = if r.trace { "traced" } else { "untraced" };
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!("{w} failed_frac {frac} ({pass}, n={})", r.attempted);
}

/// The last line of standard output: counts over every pass and, when
/// only one pass ran, its declared metrics by name.
fn summary_line(results: &[PassResult]) -> Json {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut metrics = Json::object();
    if let [r] = results {
        for (name, _) in declared(r.trace) {
            let Some(m) = r.metric(name) else { continue };
            let value = m.get("value").cloned().unwrap_or(Json::Null);
            let unit = m.get("unit").cloned().unwrap_or(Json::Null);
            metrics = metrics.field(
                name,
                Json::object().field("value", value).field("unit", unit),
            );
        }
    }
    Json::object()
        .field("correct", failed == 0)
        .field("attempted", attempted.max(1))
        .field("failed", failed)
        .field("metrics", metrics)
}

/// `$CARGO_TARGET_DIR/benchmark/seed<N>[-<workload>][-trace<T>].json`.
fn default_out(opts: &Opts) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let mut name = format!("seed{}", opts.seed);
    if let [w] = opts.workloads.as_slice() {
        name += &format!("-{}", w.name());
    }
    if let [trace] = opts.traces.as_slice() {
        name += &format!("-trace{}", u8::from(*trace));
    }
    PathBuf::from(target).join("benchmark").join(name + ".json")
}

fn bench(opts: &Opts) -> ExitCode {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host_cores {host_cores}");
    let mut results = Vec::new();
    for &w in &opts.workloads {
        for &trace in &opts.traces {
            let r = run_pass(opts, w, trace);
            print_result(&r);
            results.push(r);
        }
    }
    let artifact = Json::object()
        .field("schema", "dftmsn-benchmark/1")
        .field("seed", opts.seed)
        .field("seconds", opts.seconds)
        .field("quick", opts.quick)
        .field("host_cores", host_cores)
        .field(
            "results",
            Json::Arr(results.iter().map(PassResult::to_json).collect()),
        );
    let path = opts.out.clone().unwrap_or_else(|| default_out(opts));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, artifact.render() + "\n"));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    let summary = summary_line(&results);
    println!("{}", summary.render());
    if results.iter().any(|r| r.failed > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::Compare(base, new)) => compare::run(&base, &new),
        Ok(Mode::Child(w, trace, opts)) => child(w, trace, &opts),
        Ok(Mode::Bench(opts)) => bench(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(j: &'a Json, key: &str) -> &'a [Json] {
        j.get(key).and_then(Json::as_array).expect("a metric list")
    }

    fn text<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).expect("a string field")
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let j = benchmark_json();
        let e2e = entries(&j, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, &(name, unit, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!((text(m, "name"), text(m, "unit")), (name, unit));
            assert_eq!(text(m, "better"), "lower");
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layers = entries(&j, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, &(name, unit)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!((text(m, "name"), text(m, "unit")), (name, unit));
        }
        let names: Vec<&str> = entries(&j, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let Ok(Mode::Bench(o)) = parse_args(&args("--workload fault-ckpt --seed 4 --trace 1"))
        else {
            panic!("bench mode")
        };
        assert_eq!(
            (o.workloads, o.seed, o.traces),
            (vec![Workload::FaultCkpt], 4, vec![true])
        );
        assert!(matches!(
            parse_args(&args("--child --workload scale-lazy --trace 0")),
            Ok(Mode::Child(Workload::ScaleLazy, false, _))
        ));
        for bad in [
            "--child",
            "--workload x",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--what",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} parsed");
        }
    }
}
