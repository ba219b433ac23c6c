//! Parallel experiment runner.
//!
//! A sweep is a list of [`RunSpec`]s (scenario × variant × seed) executed
//! across OS threads — each simulation is single-threaded and
//! deterministic, so parallelism across runs keeps results reproducible.

use dftmsn_core::faults::FaultPlan;
use dftmsn_core::observe::{MetricsRecorder, ObserveSeries};
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::report::SimReport;
use dftmsn_core::variants::VariantConfig;
use dftmsn_core::world::Simulation;
use dftmsn_metrics::stats::RunningStats;
use dftmsn_sim::snap::fnv1a64;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// One simulation to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Deployment and traffic.
    pub scenario: ScenarioParams,
    /// Protocol constants.
    pub protocol: ProtocolParams,
    /// Variant configuration (from a `ProtocolKind` or a custom ablation).
    pub config: VariantConfig,
    /// Run seed.
    pub seed: u64,
    /// Fault events to inject (empty = fault-free run).
    pub faults: FaultPlan,
    /// Attach a windowed [`MetricsRecorder`] with this aggregation window
    /// (seconds). `None` = headline report only, no observation overhead.
    pub observe_window_secs: Option<f64>,
    /// Forwarding policy (default [`PolicySpec::Builtin`]: the behaviour
    /// `config` names).
    pub policy: PolicySpec,
}

impl RunSpec {
    /// Executes the run.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan does not validate against the scenario, or
    /// if `observe_window_secs` is non-positive or non-finite.
    #[must_use]
    pub fn run(&self) -> SimReport {
        self.run_observed().0
    }

    /// Executes the run, returning the windowed series alongside the
    /// report when `observe_window_secs` is set.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RunSpec::run`].
    #[must_use]
    pub fn run_observed(&self) -> (SimReport, Option<ObserveSeries>) {
        let mut builder = Simulation::builder(self.scenario.clone(), self.config)
            .protocol(self.protocol.clone())
            .policy(self.policy)
            .seed(self.seed);
        if !self.faults.is_empty() {
            builder = builder.faults(self.faults.clone());
        }
        let recorder = self.observe_window_secs.map(MetricsRecorder::new);
        if let Some(r) = &recorder {
            builder = builder.observe(r.clone());
        }
        let report = builder.build().run();
        (report, recorder.map(|r| r.series()))
    }
}

/// Runs every spec, fanning out over `threads` OS threads (0 = one per
/// available core). Results come back in spec order.
#[must_use]
pub fn run_all(specs: &[RunSpec], threads: usize) -> Vec<SimReport> {
    run_all_with(specs, threads, |_, _| {})
}

/// [`run_all`] with a completion hook: `on_complete(index, report)` fires
/// as soon as the spec at `index` finishes, *while the rest of the sweep
/// is still running*. Harness binaries use it to flush partial results
/// tables after every completed run instead of going dark until the last
/// spec lands.
///
/// The hook is invoked from whichever worker thread finished the run, so
/// it must synchronize any shared state itself (a `Mutex` around the
/// accumulator is the usual shape). Results still come back in spec order.
#[must_use]
pub fn run_all_with<F>(specs: &[RunSpec], threads: usize, on_complete: F) -> Vec<SimReport>
where
    F: Fn(usize, &SimReport) + Sync,
{
    if specs.is_empty() {
        return Vec::new();
    }
    // `available_parallelism` can fail in restricted environments
    // (containers without cpuset information, some sandboxes); a modest
    // fixed fan-out beats silently degrading to a serial sweep there.
    let threads = if threads == 0 {
        thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    }
    .min(specs.len());

    if threads <= 1 {
        return specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let report = spec.run();
                on_complete(i, &report);
                report
            })
            .collect();
    }

    // Work stealing via a shared cursor: each worker claims the next
    // unstarted spec as soon as it finishes its current one, so a few
    // expensive runs (a NOSLEEP variant, a long duration) cannot strand
    // the other workers idle the way fixed index striping could. Each
    // result lands in the pre-sized slot for its spec index, which keeps
    // the output in spec order with no channel traffic or re-sorting.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<SimReport>> = (0..specs.len()).map(|_| OnceLock::new()).collect();
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(idx) else { break };
                let stored = slots[idx].set(spec.run()).is_ok();
                assert!(stored, "spec index {idx} claimed twice");
                on_complete(idx, slots[idx].get().expect("just stored"));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every spec produced a report"))
        .collect()
}

/// Content fingerprint of a spec, for keying sweep progress files.
///
/// Hashes the spec's full debug rendering (every scenario, protocol,
/// variant, seed and fault-plan field participates), so two specs collide
/// only if they describe the same run. The value is stable within one
/// build of the workspace but **not** across code changes that alter the
/// spec types — after such a change a progress file simply stops
/// matching and the affected runs re-execute, which is the safe failure
/// mode.
#[must_use]
pub fn spec_fingerprint(spec: &RunSpec) -> u64 {
    fnv1a64(format!("{spec:?}").as_bytes())
}

/// Magic header of the sweep progress file (`dftmsn-sweep-progress/1`).
///
/// Records follow back-to-back, each `fingerprint u64 | payload len u32 |
/// payload ([`SimReport::snap_bytes`]) | fnv1a64(payload) u64`, all
/// little-endian. The file is append-only: a crash can tear at most the
/// final record, which the loader detects (length or checksum mismatch)
/// and drops while keeping everything before it.
pub const PROGRESS_MAGIC: &[u8] = b"dftmsn-sweep-progress/1\n";

/// Completed runs of a previous (interrupted) sweep, keyed by
/// [`spec_fingerprint`].
#[derive(Debug, Default)]
pub struct SweepProgress {
    done: HashMap<u64, SimReport>,
    /// Length of the intact file prefix (magic + whole records). Anything
    /// past it is a torn tail that must be truncated away before new
    /// records are appended, or they would sit unreachable behind it.
    valid_len: u64,
}

impl SweepProgress {
    /// Loads a progress file. A missing file yields empty progress; a
    /// torn or corrupt tail is dropped with a warning on stderr and the
    /// intact prefix is kept; a file that does not start with
    /// [`PROGRESS_MAGIC`] is ignored wholesale (also with a warning).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    pub fn load(path: &Path) -> std::io::Result<SweepProgress> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(SweepProgress::default())
            }
            Err(e) => return Err(e),
        };
        let mut progress = SweepProgress::default();
        if !bytes.starts_with(PROGRESS_MAGIC) {
            note!(
                "warning: {} is not a sweep progress file; ignoring its contents",
                path.display()
            );
            return Ok(progress);
        }
        let mut at = PROGRESS_MAGIC.len();
        let total = bytes.len();
        while at < total {
            let Some(record) = decode_record(&bytes[at..]) else {
                note!(
                    "warning: {}: dropping torn record at byte {at} (interrupted write?); \
                     keeping the {} completed runs before it",
                    path.display(),
                    progress.done.len()
                );
                break;
            };
            let (fingerprint, report, consumed) = record;
            progress.done.insert(fingerprint, report);
            at += consumed;
        }
        progress.valid_len = at as u64;
        Ok(progress)
    }

    /// The recorded report for a fingerprint, if that run completed.
    #[must_use]
    pub fn get(&self, fingerprint: u64) -> Option<&SimReport> {
        self.done.get(&fingerprint)
    }

    /// Number of completed runs on record.
    #[must_use]
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True when no completed runs are on record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }
}

/// Decodes one progress record; `None` on truncation or checksum
/// mismatch (both mean the tail was torn).
fn decode_record(buf: &[u8]) -> Option<(u64, SimReport, usize)> {
    if buf.len() < 12 {
        return None;
    }
    let fingerprint = u64::from_le_bytes(buf[..8].try_into().ok()?);
    let len = u32::from_le_bytes(buf[8..12].try_into().ok()?) as usize;
    let end = 12usize.checked_add(len)?;
    if buf.len() < end + 8 {
        return None;
    }
    let payload = &buf[12..end];
    let sum = u64::from_le_bytes(buf[end..end + 8].try_into().ok()?);
    if fnv1a64(payload) != sum {
        return None;
    }
    let report = SimReport::from_snap_bytes(payload).ok()?;
    Some((fingerprint, report, end + 8))
}

/// Encodes one progress record (see [`PROGRESS_MAGIC`] for the layout).
fn encode_record(fingerprint: u64, report: &SimReport) -> Vec<u8> {
    let payload = report.snap_bytes();
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("report fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out
}

/// [`run_all_with`], resumable across process restarts.
///
/// Completed runs are appended to the progress file at `progress_path`
/// as they finish (one atomic `write` per record); on the next
/// invocation any spec whose [`spec_fingerprint`] is already on record
/// is served from the file instead of re-running. `on_complete` fires
/// for *every* spec — cached ones first (in spec order), then live ones
/// as they land — so partial-table flushing sees the same stream either
/// way.
///
/// A failure to *append* a record is reported on stderr but does not
/// abort the sweep: the run's result is still returned, it just will not
/// be skipped next time.
///
/// # Errors
///
/// Propagates failures to read the progress file or to create/open it
/// for appending.
pub fn run_all_resumable<F>(
    specs: &[RunSpec],
    threads: usize,
    progress_path: &Path,
    on_complete: F,
) -> std::io::Result<Vec<SimReport>>
where
    F: Fn(usize, &SimReport) + Sync,
{
    let progress = SweepProgress::load(progress_path)?;
    let fingerprints: Vec<u64> = specs.iter().map(spec_fingerprint).collect();

    let mut results: Vec<Option<SimReport>> = vec![None; specs.len()];
    let mut pending: Vec<usize> = Vec::new();
    for (i, fp) in fingerprints.iter().enumerate() {
        if let Some(report) = progress.get(*fp) {
            on_complete(i, report);
            results[i] = Some(report.clone());
        } else {
            pending.push(i);
        }
    }
    if !progress.is_empty() {
        note!(
            "sweep: {} of {} runs already completed in {}; running the remaining {}",
            specs.len() - pending.len(),
            specs.len(),
            progress_path.display(),
            pending.len()
        );
    }
    if pending.is_empty() {
        return Ok(results.into_iter().map(Option::unwrap).collect());
    }

    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(progress_path)?;
    // Cut off any torn tail (or a foreign file's contents) so appended
    // records land where the loader will actually reach them.
    if file.metadata()?.len() != progress.valid_len {
        file.set_len(progress.valid_len)?;
    }
    std::io::Seek::seek(&mut file, std::io::SeekFrom::End(0))?;
    if progress.valid_len == 0 {
        file.write_all(PROGRESS_MAGIC)?;
        file.flush()?;
    }
    let file = Mutex::new(file);

    let pending_specs: Vec<RunSpec> = pending.iter().map(|&i| specs[i].clone()).collect();
    let live = run_all_with(&pending_specs, threads, |pi, report| {
        let orig = pending[pi];
        let record = encode_record(fingerprints[orig], report);
        {
            let mut f = file.lock().expect("progress file lock");
            if let Err(e) = f.write_all(&record).and_then(|()| f.flush()) {
                note!(
                    "warning: could not append to {}: {e}; this run will repeat on resume",
                    progress_path.display()
                );
            }
        }
        on_complete(orig, report);
    });
    for (pi, report) in pending.iter().zip(live) {
        results[*pi] = Some(report);
    }
    Ok(results.into_iter().map(Option::unwrap).collect())
}

/// Seed-averaged headline metrics of a set of runs of the *same*
/// configuration.
#[derive(Debug, Clone)]
pub struct Averaged {
    /// Delivery ratio statistics across seeds.
    pub ratio: RunningStats,
    /// Average sensor power (mW) across seeds.
    pub power_mw: RunningStats,
    /// Mean delivery delay (s) across seeds.
    pub delay_secs: RunningStats,
    /// Collision losses across seeds.
    pub collisions: RunningStats,
    /// Control-overhead ratio (control bits / data bits) across seeds.
    pub overhead: RunningStats,
}

/// Averages reports (across seeds) into per-metric statistics.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn average(reports: &[SimReport]) -> Averaged {
    assert!(!reports.is_empty(), "cannot average zero reports");
    let mut out = Averaged {
        ratio: RunningStats::new(),
        power_mw: RunningStats::new(),
        delay_secs: RunningStats::new(),
        collisions: RunningStats::new(),
        overhead: RunningStats::new(),
    };
    for r in reports {
        out.ratio.record(r.delivery_ratio());
        out.power_mw.record(r.avg_sensor_power_mw);
        out.delay_secs.record(r.mean_delay_secs);
        out.collisions.record(r.collisions as f64);
        out.overhead.record(r.control_overhead());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dftmsn_core::variants::ProtocolKind;

    fn spec(seed: u64) -> RunSpec {
        RunSpec {
            scenario: ScenarioParams::paper_default()
                .with_sensors(10)
                .with_sinks(1)
                .with_duration_secs(150),
            protocol: ProtocolParams::paper_default(),
            config: ProtocolKind::Opt.config(),
            seed,
            faults: FaultPlan::default(),
            observe_window_secs: None,
            policy: PolicySpec::Builtin,
        }
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let plain = spec(3).run();
        let mut observed_spec = spec(3);
        observed_spec.observe_window_secs = Some(50.0);
        let (report, series) = observed_spec.run_observed();
        assert_eq!(report.to_json().render(), plain.to_json().render());
        let series = series.expect("recorder attached");
        let deliveries = series.get("deliveries").expect("deliveries series");
        let total: f64 = deliveries.iter().map(|(_, v)| v).sum();
        assert!((total - report.delivered as f64).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_serial() {
        let specs: Vec<RunSpec> = (0..4).map(spec).collect();
        let serial = run_all(&specs, 1);
        let parallel = run_all(&specs, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.seed, p.seed);
            assert_eq!(s.generated, p.generated);
            assert_eq!(s.delivered, p.delivered);
            assert_eq!(s.frames_sent, p.frames_sent);
        }
    }

    #[test]
    fn results_preserve_spec_order() {
        let specs: Vec<RunSpec> = (0..6).map(spec).collect();
        let reports = run_all(&specs, 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.seed, i as u64);
        }
    }

    #[test]
    fn stealing_keeps_spec_order_with_uneven_runs() {
        // Alternate long and short runs so workers finish out of submission
        // order and the cursor hands indices to whichever thread is free:
        // results must still come back in spec order, matching serial.
        let specs: Vec<RunSpec> = (0..6)
            .map(|i| {
                let mut s = spec(i);
                s.scenario.duration_secs = if i % 2 == 0 { 400 } else { 50 };
                s
            })
            .collect();
        let serial = run_all(&specs, 1);
        let parallel = run_all(&specs, 3);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(p.seed, i as u64, "slot {i} holds the wrong run");
            assert_eq!(s.frames_sent, p.frames_sent);
            assert_eq!(s.duration_secs, p.duration_secs);
        }
    }

    #[test]
    fn average_aggregates_seeds() {
        let specs: Vec<RunSpec> = (0..3).map(spec).collect();
        let reports = run_all(&specs, 0);
        let avg = average(&reports);
        assert_eq!(avg.ratio.count(), 3);
        assert!(avg.ratio.mean() >= 0.0 && avg.ratio.mean() <= 1.0);
        assert!(avg.power_mw.mean() > 0.0);
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(run_all(&[], 0).is_empty());
    }

    #[test]
    fn completion_hook_sees_every_spec_exactly_once() {
        let specs: Vec<RunSpec> = (0..5).map(spec).collect();
        let seen = Mutex::new(vec![0u32; specs.len()]);
        let reports = run_all_with(&specs, 3, |i, r| {
            assert_eq!(r.seed, i as u64, "hook got the wrong report for {i}");
            seen.lock().unwrap()[i] += 1;
        });
        assert_eq!(reports.len(), specs.len());
        assert!(seen.lock().unwrap().iter().all(|&n| n == 1));
        // Serial path fires the hook too.
        let serial_seen = Mutex::new(0usize);
        let _ = run_all_with(&specs, 1, |_, _| *serial_seen.lock().unwrap() += 1);
        assert_eq!(*serial_seen.lock().unwrap(), specs.len());
    }

    #[test]
    fn fingerprints_separate_distinct_specs() {
        let a = spec(1);
        let b = spec(2);
        let mut c = spec(1);
        c.scenario.sensors += 1;
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&spec(1)));
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&c));
    }

    fn temp_progress_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "dftmsn-sweeptest-{}-{tag}.progress",
            std::process::id()
        ))
    }

    #[test]
    fn resumable_sweep_skips_completed_specs_and_matches_fresh_results() {
        let specs: Vec<RunSpec> = (0..4).map(spec).collect();
        let path = temp_progress_path("skip");
        let _ = std::fs::remove_file(&path);

        // First pass: only the first two specs "complete".
        let first = run_all_resumable(&specs[..2], 2, &path, |_, _| {}).expect("first pass");
        assert_eq!(first.len(), 2);

        // Second pass over all four: the hook fires for every index, and
        // the cached results are bit-identical to a fresh serial run.
        let ran = Mutex::new(Vec::new());
        let all = run_all_resumable(&specs, 2, &path, |i, _| ran.lock().unwrap().push(i))
            .expect("second pass");
        let mut seen = ran.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let fresh = run_all(&specs, 1);
        for (a, b) in all.iter().zip(&fresh) {
            assert_eq!(a.snap_bytes(), b.snap_bytes(), "cached result drifted");
        }

        // Third pass: everything is served from the file.
        let progress = SweepProgress::load(&path).expect("load progress");
        assert_eq!(progress.len(), 4);
        let again = run_all_resumable(&specs, 2, &path, |_, _| {}).expect("third pass");
        for (a, b) in again.iter().zip(&fresh) {
            assert_eq!(a.snap_bytes(), b.snap_bytes());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_progress_tail_is_dropped_not_fatal() {
        let specs: Vec<RunSpec> = (0..2).map(spec).collect();
        let path = temp_progress_path("torn");
        let _ = std::fs::remove_file(&path);
        let _ = run_all_resumable(&specs, 1, &path, |_, _| {}).expect("seed progress");

        // Tear the final record mid-payload.
        let bytes = std::fs::read(&path).expect("read progress");
        std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("truncate");
        let progress = SweepProgress::load(&path).expect("load torn file");
        assert_eq!(progress.len(), 1, "intact prefix must survive");

        // A resumed sweep re-runs only the torn spec and still returns both.
        let ran = Mutex::new(0usize);
        let all = run_all_resumable(&specs, 1, &path, |_, _| *ran.lock().unwrap() += 1)
            .expect("resume over torn file");
        assert_eq!(all.len(), 2);
        assert_eq!(*ran.lock().unwrap(), 2);
        assert_eq!(SweepProgress::load(&path).expect("reload").len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_progress_file_is_ignored_with_a_warning() {
        let path = temp_progress_path("foreign");
        std::fs::write(&path, b"this is not a progress file").expect("write");
        let progress = SweepProgress::load(&path).expect("load foreign file");
        assert!(progress.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "zero reports")]
    fn average_of_nothing_panics() {
        let _ = average(&[]);
    }
}
