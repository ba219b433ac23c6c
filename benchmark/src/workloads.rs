//! The four workloads, each with an untraced pass (end-to-end metrics)
//! and a traced pass (per-layer metrics), and the output checks both run.

use crate::layers::{self, Breakdown, Spans};
use crate::stats::{self, Schedule};
use dftmsn_bench::sweep::{run_all_with, RunSpec};
use dftmsn_core::behavior::{self, NodeBehavior};
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::observe::MetricsRecorder;
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::report::SimReport;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_core::world::{CkptError, MobilityMode, Simulation};
use dftmsn_metrics::json::Json;
use dftmsn_sim::snap::fnv1a64;
use dftmsn_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Workers the sweep fans out over.
const SWEEP_THREADS: usize = 2;
/// Simulated seconds between the fault-ckpt workload's checkpoints, and
/// the width of its observer windows.
const CKPT_EVERY_SECS: u64 = 10;
/// Set-up samples taken after each repetition, behind `setup_s`: more for
/// the sweep, whose 40 small builds take about a millisecond together.
const SETUP_PER_REP: usize = 9;
const SWEEP_SETUP_PER_REP: usize = 30;
/// Interleaved observed/unobserved pairs behind `core.observe.overhead_frac`.
const OBSERVE_PAIRS: usize = 3;
/// The fault-ckpt workload's fault plan (`FaultPlan::parse` syntax) and
/// its share of selfish nodes from t = 0.
const FAULT_SPEC: &str = "churn=0.1@60;linkdrop=0.05";
const SELFISH_FRACTION: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    ScaleTicked,
    ScaleLazy,
    PaperSweep,
    FaultCkpt,
}

impl Workload {
    pub(crate) const ALL: [Workload; 4] = [
        Workload::ScaleTicked,
        Workload::ScaleLazy,
        Workload::PaperSweep,
        Workload::FaultCkpt,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::ScaleTicked => "scale-ticked",
            Workload::ScaleLazy => "scale-lazy",
            Workload::PaperSweep => "paper-sweep",
            Workload::FaultCkpt => "fault-ckpt",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the full benchmark, or `--quick` for smoke tests.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Sensors of scale-ticked, scale-lazy and fault-ckpt. One size for
    /// all three, so that ticked and lazy differ only in the mobility
    /// path, and fault-ckpt only in what it adds to the ticked run.
    scale_sensors: usize,
    observe_sensors: usize,
    scale_secs: u64,
    sweep_sinks: usize,
    sweep_variants: usize,
    sweep_secs: u64,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                scale_sensors: 200,
                observe_sensors: 200,
                scale_secs: 60,
                sweep_sinks: 2,
                sweep_variants: 2,
                sweep_secs: 300,
            }
        } else {
            Sizes {
                scale_sensors: 20_000,
                observe_sensors: 5_000,
                scale_secs: 300,
                sweep_sinks: 10,
                sweep_variants: ProtocolKind::FIG2.len(),
                sweep_secs: 1_500,
            }
        }
    }
}

/// The scale tier's scenario: the paper's node density, zone size and
/// network-wide offered load at any size, sampled every 0.025 s. A copy
/// of the repository's formula, pinned so the workload cannot drift with it.
fn scale_scenario(sensors: usize, duration_secs: u64) -> ScenarioParams {
    let side = 150.0 * (sensors as f64 / 100.0).sqrt();
    let zones = (side / 30.0).round().max(1.0) as usize;
    let mut p = ScenarioParams::paper_default();
    p.sensors = sensors;
    p.sinks = (3 * sensors / 100).max(1);
    p.area_width_m = side;
    p.area_height_m = side;
    p.zone_cols = zones;
    p.zone_rows = zones;
    p.data_interval_secs = 120.0 * sensors as f64 / 100.0;
    p.mobility_tick_secs = 0.025;
    p.duration_secs = duration_secs;
    p
}

/// One simulation a workload builds, possibly many times.
#[derive(Debug, Clone)]
struct SimSpec {
    scenario: ScenarioParams,
    kind: ProtocolKind,
    seed: u64,
    mode: MobilityMode,
    faults: Option<FaultPlan>,
    observe: bool,
}

impl SimSpec {
    fn scale(sensors: usize, secs: u64, mode: MobilityMode, seed: u64) -> SimSpec {
        SimSpec {
            scenario: scale_scenario(sensors, secs),
            kind: ProtocolKind::Opt,
            seed,
            mode,
            faults: None,
            observe: false,
        }
    }

    /// The scale scenario with churn, link loss, selfish nodes and a
    /// windowed observer.
    fn faulted(sensors: usize, secs: u64, seed: u64) -> SimSpec {
        let scenario = scale_scenario(sensors, secs);
        let mut plan =
            FaultPlan::parse(FAULT_SPEC, &scenario, seed).expect("the fault spec is valid");
        plan.extend(behavior::takeover(
            &scenario,
            SELFISH_FRACTION,
            NodeBehavior::Selfish,
            0.0,
            seed,
        ));
        SimSpec {
            faults: Some(plan),
            observe: true,
            ..SimSpec::scale(sensors, secs, MobilityMode::Ticked, seed)
        }
    }

    fn paper(sinks: usize, kind: ProtocolKind, secs: u64, seed: u64) -> SimSpec {
        SimSpec {
            scenario: ScenarioParams::paper_default()
                .with_sinks(sinks)
                .with_duration_secs(secs),
            kind,
            seed,
            mode: MobilityMode::Ticked,
            faults: None,
            observe: false,
        }
    }

    fn build(&self) -> Simulation {
        let mut b = Simulation::builder(self.scenario.clone(), self.kind)
            .seed(self.seed)
            .mobility_mode(self.mode);
        if let Some(plan) = &self.faults {
            b = b.faults(plan.clone());
        }
        if self.observe {
            b = b.observe(MetricsRecorder::new(CKPT_EVERY_SECS as f64));
        }
        b.build()
    }

    fn end(&self) -> SimTime {
        SimTime::from_secs(self.scenario.duration_secs)
    }

    fn run_spec(&self) -> RunSpec {
        RunSpec {
            scenario: self.scenario.clone(),
            protocol: ProtocolParams::paper_default(),
            config: self.kind.config(),
            seed: self.seed,
            faults: FaultPlan::default(),
            observe_window_secs: None,
            policy: PolicySpec::Builtin,
        }
    }
}

/// The run of scale-ticked or scale-lazy.
fn scale_spec(w: Workload, sz: &Sizes, seed: u64) -> SimSpec {
    let mode = if w == Workload::ScaleTicked {
        MobilityMode::Ticked
    } else {
        MobilityMode::Lazy
    };
    SimSpec::scale(sz.scale_sensors, sz.scale_secs, mode, seed)
}

/// The Fig. 2 grid for one seed, in `fig2`'s order: sinks, then variant.
fn sweep_specs(sz: &Sizes, seed: u64) -> Vec<SimSpec> {
    let mut specs = Vec::new();
    for sinks in 1..=sz.sweep_sinks {
        for &kind in &ProtocolKind::FIG2[..sz.sweep_variants] {
            specs.push(SimSpec::paper(sinks, kind, sz.sweep_secs, seed));
        }
    }
    specs
}

/// The run digest: `fnv1a64` over the report's full snapshot encoding.
pub(crate) fn digest(report: &SimReport) -> u64 {
    fnv1a64(&report.snap_bytes())
}

/// Output checks: each is attempted once and either holds or is recorded.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) failures: Vec<String>,
}

impl Checks {
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    pub(crate) fn same_digest(&mut self, what: &str, expected: u64, got: u64) -> bool {
        self.check(expected == got, || {
            format!("{what}: digest {got:016x}, expected {expected:016x}")
        })
    }

    /// A resume is one operation: `Err` counts as a failure, not a panic.
    pub(crate) fn resumed(
        &mut self,
        result: Result<(Simulation, Option<MetricsRecorder>), CkptError>,
    ) -> Option<Simulation> {
        match result {
            Ok((sim, _)) => {
                self.check(true, String::new);
                Some(sim)
            }
            Err(e) => {
                self.check(false, || format!("resume_from_bytes failed: {e}"));
                None
            }
        }
    }

    /// Finishes a stepped-out run. `finish_partial` closes the report at
    /// the clock, which equals `run()`'s report only if the run reached
    /// its configured end, so that is checked too.
    fn finish(&mut self, sim: Simulation, end: SimTime) -> SimReport {
        let now = sim.now();
        self.check(now == end, || {
            format!(
                "run stopped at {} s, before its end at {} s",
                now.as_secs_f64(),
                end.as_secs_f64()
            )
        });
        sim.finish_partial()
    }

    /// Sanity of a report's model outputs.
    fn report_sane(&mut self, what: &str, r: &SimReport) {
        let ratio = r.delivery_ratio();
        self.check(
            r.events_processed > 0
                && r.generated > 0
                && (0.0..=1.0).contains(&ratio)
                && r.avg_sensor_power_mw > 0.0,
            || format!("{what}: implausible report ({})", r.summary()),
        );
    }
}

#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

/// Everything one pass of one workload produced.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    pub(crate) checks: Checks,
    spans: Option<Spans>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// A metric reported as the median of its samples, or as 0 when the
    /// workload took none.
    fn sampled(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        let value = if samples.is_empty() {
            0.0
        } else {
            stats::median(&samples)
        };
        self.metric(name, unit, value, samples);
    }

    fn single(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.sampled(name, unit, vec![value]);
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub(crate) fn to_json(&self, workload: Workload, trace: bool, seed: u64) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::object()
                    .field("name", m.name)
                    .field("unit", m.unit)
                    .field("value", m.value)
                    .field("n", m.samples.len())
                    .field(
                        "samples",
                        Json::Arr(m.samples.iter().map(|&x| x.into()).collect()),
                    )
            })
            .collect();
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| s.as_str().into()).collect());
        Json::object()
            .field("workload", workload.name())
            .field("trace", u64::from(trace))
            .field("seed", seed)
            .field("attempted", self.checks.attempted)
            .field("failed", self.checks.failed)
            .field("failures", strings(&self.checks.failures))
            .field("metrics", Json::Arr(metrics))
            .field("notes", strings(&self.notes))
            .field(
                "spans",
                self.spans
                    .as_ref()
                    .map_or(Json::Arr(Vec::new()), Spans::to_json),
            )
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed loop: repetition `n + 1` starts when `n` ends, and none starts
/// that the previous one's length says would overrun `budget`.
fn closed_loop(budget: Duration, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let t = Instant::now();
        rep(n);
        n += 1;
        if start.elapsed() + t.elapsed() > budget {
            return n;
        }
    }
}

/// Steps `sim` to `next`; false once the run has no event left.
fn step_until(sim: &mut Simulation, next: SimTime) -> bool {
    while sim.now() < next {
        if !sim.step() {
            return false;
        }
    }
    true
}

/// Steps `sim` to its end, returning the host time of every
/// `CKPT_EVERY_SECS` of simulated time and of the stretch after the last
/// boundary (which the caller closes with the report's finalisation).
fn segmented_steps(sim: &mut Simulation) -> (Vec<f64>, Duration) {
    let every = SimDuration::from_secs(CKPT_EVERY_SECS);
    let mut segments = Vec::new();
    let mut last = Instant::now();
    let mut next = SimTime::ZERO + every;
    while step_until(sim, next) {
        let now = Instant::now();
        segments.push(secs(now - last));
        last = now;
        next += every;
    }
    (segments, last.elapsed())
}

/// The checkpoint → resume operations of one chained run.
#[derive(Debug, Default)]
struct Snapshots {
    ckpt_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    kib: Vec<f64>,
}

/// One run that checkpoints every `CKPT_EVERY_SECS` simulated seconds
/// and continues on the simulation resumed from those bytes. Returns the
/// report, the host time of each segment between checkpoints (its
/// checkpoint and resume included) and the operations. The first resumed
/// simulation must re-encode to the same bytes; that check is not timed.
fn chained_run(
    spec: &SimSpec,
    checks: &mut Checks,
    mut spans: Option<&mut Spans>,
) -> (SimReport, Vec<f64>, Snapshots) {
    let every = SimDuration::from_secs(CKPT_EVERY_SECS);
    let mut sim = spec.build();
    let mut ops = Snapshots::default();
    let mut segments = Vec::new();
    let mut last = Instant::now();
    let mut next = SimTime::ZERO + every;
    while step_until(&mut sim, next) {
        let t = Instant::now();
        let bytes = sim.checkpoint_bytes();
        let mid = Instant::now();
        let resumed = Simulation::resume_from_bytes(&bytes);
        let end = Instant::now();
        ops.ckpt_ms.push(millis(mid - t));
        ops.resume_ms.push(millis(end - mid));
        ops.kib.push(bytes.len() as f64 / 1024.0);
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("checkpoint_bytes", t, mid);
            spans.record("resume_from_bytes", mid, end);
        }
        let mut untimed = Duration::ZERO;
        if let Some(mut s) = checks.resumed(resumed) {
            if segments.is_empty() {
                let t = Instant::now();
                checks.check(s.checkpoint_bytes() == bytes, || {
                    "a resumed simulation re-encodes to different bytes".to_owned()
                });
                untimed = t.elapsed();
            }
            sim = s;
        }
        let now = Instant::now();
        segments.push(secs(now - last - untimed));
        last = now;
        next += every;
    }
    let report = checks.finish(sim, spec.end());
    segments.push(secs(last.elapsed()));
    (report, segments, ops)
}

/// Runs one sweep batch on `SWEEP_THREADS` workers, stamping each run's
/// completion from the sweep's completion hook.
fn sweep_batch(specs: &[RunSpec], spans: Option<&mut Spans>) -> (Vec<SimReport>, Schedule) {
    let stamps = Mutex::new(Vec::with_capacity(specs.len()));
    let t0 = Instant::now();
    let reports = run_all_with(specs, SWEEP_THREADS, |i, _| {
        let at = Instant::now();
        stamps
            .lock()
            .expect("a worker panicked while stamping")
            .push((thread::current().id(), i, at));
    });
    let stamps = stamps.into_inner().expect("no worker panicked");
    let mut workers = HashMap::new();
    let rel: Vec<(usize, usize, u64)> = stamps
        .iter()
        .map(|&(id, i, at)| {
            let next = workers.len();
            let w = *workers.entry(id).or_insert(next);
            (w, i, (at - t0).as_nanos() as u64)
        })
        .collect();
    let sched = Schedule::from_stamps(specs.len(), &rel);
    if let Some(spans) = spans {
        for &(_, i, at) in &stamps {
            spans.record(
                "sweep_run",
                at - Duration::from_nanos(sched.latency_ns[i]),
                at,
            );
        }
    }
    (reports, sched)
}

/// The peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Compares each repetition's digest with the first one's.
#[derive(Debug, Default)]
struct Repeats(Option<u64>);

impl Repeats {
    fn check(&mut self, out: &mut Outcome, w: Workload, rep: usize, d: u64) {
        match self.0 {
            None => {
                out.note(format!("digest {} {d:016x}", w.name()));
                self.0 = Some(d);
            }
            Some(first) => {
                out.checks
                    .same_digest(&format!("repetition {rep}"), first, d);
            }
        }
    }
}

/// The untraced pass: end-to-end metrics from repetitions run closed-loop
/// for `budget`. Set-up builds are interleaved with the repetitions, so a
/// slow stretch of the host touches few of `setup_s`'s samples.
pub(crate) fn untraced(w: Workload, seed: u64, budget: Duration, quick: bool) -> Outcome {
    let sz = Sizes::new(quick);
    let mut out = Outcome::default();
    // Host time of each repetition, split into segments where it has them.
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let mut setup = Vec::new();
    let mut rss = None;
    let mut repeats = Repeats::default();
    match w {
        Workload::ScaleTicked | Workload::ScaleLazy => {
            let spec = scale_spec(w, &sz, seed);
            closed_loop(budget, |rep| {
                let mut sim = spec.build();
                let (mut segs, tail) = segmented_steps(&mut sim);
                let t = Instant::now();
                let report = out.checks.finish(sim, spec.end());
                segs.push(secs(tail + t.elapsed()));
                reps.push(segs);
                if rep == 0 {
                    rss = peak_rss_mb();
                    out.checks.report_sane(w.name(), &report);
                }
                repeats.check(&mut out, w, rep, digest(&report));
                time_setup(&mut setup, SETUP_PER_REP, 1, |_| spec.build());
            });
        }
        Workload::PaperSweep => {
            let sims = sweep_specs(&sz, seed);
            let specs: Vec<RunSpec> = sims.iter().map(SimSpec::run_spec).collect();
            closed_loop(budget, |rep| {
                let (reports, sched) = sweep_batch(&specs, None);
                reps.push(vec![sched.makespan_ns as f64 / 1e9]);
                if rep == 0 {
                    rss = peak_rss_mb();
                    for r in &reports {
                        out.checks.report_sane(w.name(), r);
                    }
                }
                let all: Vec<u8> = reports
                    .iter()
                    .flat_map(|r| digest(r).to_le_bytes())
                    .collect();
                repeats.check(&mut out, w, rep, fnv1a64(&all));
                let build = |i: usize| sims[i].build();
                time_setup(&mut setup, SWEEP_SETUP_PER_REP, sims.len(), build);
            });
        }
        Workload::FaultCkpt => {
            let spec = SimSpec::faulted(sz.scale_sensors, sz.scale_secs, seed);
            let mut sim = spec.build();
            while sim.step() {}
            let reference = out.checks.finish(sim, spec.end());
            out.checks.report_sane(w.name(), &reference);
            let expected = digest(&reference);
            out.note(format!("digest {} {expected:016x}", w.name()));
            closed_loop(budget, |rep| {
                let (report, segs, _) = chained_run(&spec, &mut out.checks, None);
                reps.push(segs);
                if rep == 0 {
                    rss = peak_rss_mb();
                }
                let what = format!("chained run {rep} vs uninterrupted");
                out.checks.same_digest(&what, expected, digest(&report));
                let build = |_| SimSpec::faulted(sz.scale_sensors, sz.scale_secs, seed).build();
                time_setup(&mut setup, SETUP_PER_REP, 1, build);
            });
        }
    }
    let walls = reps.iter().map(|segs| segs.iter().sum()).collect();
    out.metric("wall_s", "s", stats::segment_best(&reps), walls);
    out.sampled("setup_s", "s", setup);
    // Read once the first repetition has run: later ones only add heap
    // fragmentation that varies from run to run.
    match rss {
        Some(mb) => out.single("peak_rss_mb", "MiB", mb),
        None => {
            out.checks.check(false, || "VmHWM unreadable".to_owned());
        }
    }
    out
}

/// Appends `n` samples, each the time to build the `sims` simulations one
/// repetition needs. Like the sweep's workers, it drops each simulation
/// before building the next; the drops are not timed.
fn time_setup(samples: &mut Vec<f64>, n: usize, sims: usize, build: impl Fn(usize) -> Simulation) {
    for _ in 0..n {
        let mut total = Duration::ZERO;
        for i in 0..sims {
            let t = Instant::now();
            let sim = build(i);
            total += t.elapsed();
            drop(sim);
        }
        samples.push(secs(total));
    }
}

/// What the traced pass gathers before it is turned into metrics.
#[derive(Debug, Default)]
struct Traced {
    b: Breakdown,
    /// Untraced time and events of the same runs the breakdown covers.
    untraced_ns: u128,
    untraced_events: u64,
    /// Σ MobilityTick events × sensors of the run they ticked.
    node_ticks: f64,
    cache: (u64, u64),
    /// Reports of the profiled runs.
    reports: Vec<SimReport>,
    /// Reports the model outputs average over.
    model: Vec<SimReport>,
    /// The fault-ckpt chained run's snapshot operations and their part of
    /// its wall time; empty and 0 on the other workloads.
    snapshots: Snapshots,
    ckpt_share: f64,
    /// The sweep's schedule; 0 and empty on the other workloads.
    threads: usize,
    runs: usize,
    busy_frac: f64,
    tail_idle_frac: f64,
    run_s: Vec<f64>,
    observe_overhead: f64,
}

impl Traced {
    /// One stepped untraced run and one `run_profiled` of `spec`, with
    /// their digests compared. Returns the untraced report.
    fn profile(
        &mut self,
        spec: &SimSpec,
        clock_read_ns: f64,
        spans: &mut Spans,
        checks: &mut Checks,
    ) -> Option<SimReport> {
        let (mut sim, _) = spans.time("build", || spec.build());
        let t0 = Instant::now();
        while sim.step() {}
        let t1 = Instant::now();
        spans.record("step", t0, t1);
        if let Some((h, m)) = sim.contact_cache_stats() {
            self.cache.0 += h;
            self.cache.1 += m;
        }
        let (untraced, fin) = spans.time("finish_partial", || checks.finish(sim, spec.end()));
        let untraced_ns = (t1 - t0 + fin).as_nanos();
        let (sim, _) = spans.time("build", || spec.build());
        let ((traced, profile), span) = spans.time("run_profiled", || sim.run_profiled());
        let (d_untraced, _) = spans.time("snap_bytes", || digest(&untraced));
        let (d_traced, _) = spans.time("snap_bytes", || digest(&traced));
        checks.same_digest("traced vs untraced run", d_untraced, d_traced);
        let b = match Breakdown::new(&profile, span.as_nanos(), clock_read_ns) {
            Ok(b) => b,
            Err(e) => {
                checks.check(false, || e);
                return None;
            }
        };
        self.untraced_ns += untraced_ns;
        self.untraced_events += untraced.events_processed;
        self.node_ticks += b.count("MobilityTick") as f64 * spec.scenario.sensors as f64;
        self.b.merge(&b);
        self.reports.push(traced);
        Some(untraced)
    }
}

/// The traced pass: spans around every call into the library and the
/// per-layer split of `run_profiled`.
pub(crate) fn traced(w: Workload, seed: u64, quick: bool) -> Outcome {
    let sz = Sizes::new(quick);
    let mut out = Outcome::default();
    let mut spans = Spans::new(w.name());
    let clock = layers::clock_read_ns();
    let mut t = Traced::default();
    match w {
        Workload::ScaleTicked | Workload::ScaleLazy => {
            let spec = scale_spec(w, &sz, seed);
            if let Some(r) = t.profile(&spec, clock, &mut spans, &mut out.checks) {
                t.model.push(r);
            }
        }
        Workload::PaperSweep => {
            let sims = sweep_specs(&sz, seed);
            let specs: Vec<RunSpec> = sims.iter().map(SimSpec::run_spec).collect();
            let (reports, sched) = sweep_batch(&specs, Some(&mut spans));
            t.threads = SWEEP_THREADS;
            t.runs = specs.len();
            t.busy_frac = sched.busy_frac(SWEEP_THREADS);
            t.tail_idle_frac = sched.tail_idle_ns as f64 / sched.makespan_ns as f64;
            let at = sz.sweep_sinks.min(3);
            for &kind in &ProtocolKind::FIG2[..sz.sweep_variants] {
                let spec = SimSpec::paper(at, kind, sz.sweep_secs, seed);
                if let Some(r) = t.profile(&spec, clock, &mut spans, &mut out.checks) {
                    let idx = sims
                        .iter()
                        .position(|s| s.scenario.sinks == at && s.kind == kind)
                        .expect("the grid holds every variant");
                    out.checks.same_digest(
                        &format!("{} run vs its sweep run", kind.label()),
                        digest(&reports[idx]),
                        digest(&r),
                    );
                }
            }
            t.run_s = sched.latency_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
            t.model = reports;
        }
        Workload::FaultCkpt => {
            let spec = SimSpec::faulted(sz.scale_sensors, sz.scale_secs, seed);
            if let Some(reference) = t.profile(&spec, clock, &mut spans, &mut out.checks) {
                let (chained, segments, ops) =
                    chained_run(&spec, &mut out.checks, Some(&mut spans));
                out.checks.same_digest(
                    "chained vs uninterrupted run",
                    digest(&reference),
                    digest(&chained),
                );
                let op_ms = ops.ckpt_ms.iter().chain(&ops.resume_ms).sum::<f64>();
                t.ckpt_share = op_ms / (1e3 * segments.iter().sum::<f64>());
                t.snapshots = ops;
                t.model.push(reference);
            }
            t.observe_overhead = observe_overhead(&sz, seed, &mut spans, &mut out.checks);
        }
    }
    emit_layers(&mut out, &t);
    out.spans = Some(spans);
    out
}

/// `observed ÷ unobserved − 1` over interleaved pairs of the faulted
/// scenario at `observe_sensors`; each pair must also agree bit for bit.
fn observe_overhead(sz: &Sizes, seed: u64, spans: &mut Spans, checks: &mut Checks) -> f64 {
    let observed = SimSpec::faulted(sz.observe_sensors, sz.scale_secs, seed);
    let plain = SimSpec {
        observe: false,
        ..observed.clone()
    };
    let (mut with, mut without) = (Duration::ZERO, Duration::ZERO);
    for pair in 0..OBSERVE_PAIRS {
        let sim = plain.build();
        let (a, ta) = spans.time("run", || sim.run());
        let sim = observed.build();
        let (b, tb) = spans.time("run", || sim.run());
        without += ta;
        with += tb;
        checks.same_digest(
            &format!("observed vs unobserved pair {pair}"),
            digest(&a),
            digest(&b),
        );
    }
    secs(with) / secs(without) - 1.0
}

fn emit_layers(out: &mut Outcome, t: &Traced) {
    let b = &t.b;
    let s = |ns: u128| ns as f64 / 1e9;
    let events = b.events.max(1) as f64;
    let residual = b.residual_ns() as f64;
    out.single("sim.event.events", "count", b.events as f64);
    out.single("sim.event.residual_ns_per_event", "ns", residual / events);
    out.single(
        "core.world.ns_per_event",
        "ns",
        t.untraced_ns as f64 / t.untraced_events.max(1) as f64,
    );
    let (hits, misses) = t.cache;
    let lookups = (hits + misses).max(1) as f64;
    out.single(
        "core.world.contact_cache_hit_rate",
        "fraction",
        hits as f64 / lookups,
    );
    out.single(
        "core.world.stale_timer_frac",
        "fraction",
        b.count("Timer:stale") as f64 / events,
    );
    let share = |layer: &str| b.share(layer);
    out.single("core.world.share", "fraction", share("core.world"));
    let mobility = b.self_ns("core.mobility", None);
    out.single(
        "core.mobility.ticks",
        "count",
        b.count("MobilityTick") as f64,
    );
    out.single("core.mobility.self_s", "s", s(mobility));
    out.single("core.mobility.share", "fraction", share("core.mobility"));
    out.single(
        "core.mobility.ns_per_node_tick",
        "ns",
        mobility as f64 / t.node_ticks.max(1.0),
    );
    for (name, part) in [
        ("core.mac.wakeup_s", "wakeup"),
        ("core.mac.guard_s", "guard"),
        ("core.mac.listen_s", "listen"),
        ("core.mac.handshake_s", "handshake"),
    ] {
        out.single(name, "s", s(b.self_ns("core.mac", Some(part))));
    }
    out.single("core.mac.share", "fraction", share("core.mac"));
    let sum = |f: fn(&SimReport) -> u64| t.reports.iter().map(f).sum::<u64>() as f64;
    let attempts = sum(|r| r.attempts);
    out.single(
        "core.mac.attempt_success",
        "fraction",
        1.0 - sum(|r| r.failed_attempts) / attempts.max(1.0),
    );
    out.single(
        "radio.medium.txend_s",
        "s",
        s(b.self_ns("radio.medium", None)),
    );
    out.single("radio.medium.share", "fraction", share("radio.medium"));
    let frames = sum(|r| r.frames_sent);
    out.single("radio.medium.frames", "count", frames);
    out.single(
        "radio.medium.collisions_per_frame",
        "ratio",
        sum(|r| r.collisions) / frames.max(1.0),
    );
    out.single("core.policy.self_s", "s", s(b.self_ns("core.policy", None)));
    out.single("core.policy.share", "fraction", share("core.policy"));
    out.single("core.faults.share", "fraction", share("core.faults"));
    out.single("core.faults.events", "count", b.count("Fault") as f64);
    out.single("core.observe.share", "fraction", share("core.observe"));
    out.single("core.observe.overhead_frac", "fraction", t.observe_overhead);
    let ops = &t.snapshots;
    out.sampled("core.world_ckpt.ckpt_ms", "ms", ops.ckpt_ms.clone());
    out.sampled("core.world_ckpt.resume_ms", "ms", ops.resume_ms.clone());
    out.sampled("core.world_ckpt.kib_per_op", "KiB", ops.kib.clone());
    out.single("core.world_ckpt.ops", "count", ops.ckpt_ms.len() as f64);
    out.single("core.world_ckpt.share", "fraction", t.ckpt_share);
    out.single("bench.sweep.threads", "count", t.threads as f64);
    out.single("bench.sweep.runs", "count", t.runs as f64);
    out.single("bench.sweep.busy_frac", "fraction", t.busy_frac);
    out.single("bench.sweep.tail_idle_frac", "fraction", t.tail_idle_frac);
    out.sampled("bench.sweep.run_s_p50", "s", t.run_s.clone());
    out.single(
        "trace.overhead_frac",
        "fraction",
        s(b.span_ns) / s(t.untraced_ns) - 1.0,
    );
    let span = b.span_ns as f64;
    out.single("trace.residual_frac", "fraction", residual / span);
    out.single("trace.clock_frac", "fraction", b.clock_ns as f64 / span);
    let mean =
        |f: fn(&SimReport) -> f64| t.model.iter().map(f).sum::<f64>() / t.model.len().max(1) as f64;
    out.single(
        "model.delivery_ratio",
        "fraction",
        mean(SimReport::delivery_ratio),
    );
    out.single("model.power_mw", "mW", mean(|r| r.avg_sensor_power_mw));
    out.single("model.mean_delay", "sim_s", mean(|r| r.mean_delay_secs));
    // Σ layers + trace + residual = span, in integer ns.
    let layers: u128 = layers::LAYERS.iter().map(|l| b.self_ns(l, None)).sum();
    out.checks.check(
        layers as i128 + b.clock_ns as i128 + b.residual_ns() == b.span_ns as i128,
        || "layer self times, clock and residual do not sum to the span".to_owned(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimSpec {
        SimSpec::scale(60, 40, MobilityMode::Ticked, 3)
    }

    #[test]
    fn a_flipped_checkpoint_byte_is_a_failed_operation() {
        let mut sim = small().build();
        while sim.now() < SimTime::from_secs(20) && sim.step() {}
        let mut bytes = sim.checkpoint_bytes();
        let mut checks = Checks::default();
        assert!(checks
            .resumed(Simulation::resume_from_bytes(&bytes))
            .is_some());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(checks
            .resumed(Simulation::resume_from_bytes(&bytes))
            .is_none());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(checks.failures[0].contains("resume_from_bytes"));
    }

    #[test]
    fn a_digest_mismatch_is_a_failed_check() {
        let mut checks = Checks::default();
        assert!(checks.same_digest("same", 7, 7));
        assert!(!checks.same_digest("forced", 7, 8));
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(checks.failures[0].starts_with("forced"));
    }

    #[test]
    fn chained_and_stepped_runs_match_run() {
        let spec = SimSpec::faulted(80, 40, 2);
        let expected = digest(&spec.build().run());
        let mut checks = Checks::default();
        let (chained, segments, ops) = chained_run(&spec, &mut checks, None);
        assert_eq!(digest(&chained), expected);
        assert_eq!((ops.ckpt_ms.len(), segments.len()), (4, 5));
        let mut sim = spec.build();
        let (segments, _) = segmented_steps(&mut sim);
        assert_eq!(segments.len(), 4);
        assert_eq!(digest(&checks.finish(sim, spec.end())), expected);
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    }

    #[test]
    fn closed_loop_runs_at_least_once_and_stops_at_the_budget() {
        assert_eq!(closed_loop(Duration::ZERO, |_| {}), 1);
        let n = closed_loop(Duration::from_millis(30), |_| {
            thread::sleep(Duration::from_millis(5));
        });
        assert!((2..=7).contains(&n), "{n} repetitions");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
