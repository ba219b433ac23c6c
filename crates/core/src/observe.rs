//! Windowed observability: live metrics aggregation over the trace seam.
//!
//! A [`MetricsRecorder`], attached through
//! [`SimulationBuilder::observe`](crate::world::SimulationBuilder::observe),
//! folds the MAC-level event stream into fixed-width time windows —
//! deliveries, drops by [`DropReason`], collisions, airtime by frame tag,
//! sleep transitions and fault markers — and receives periodic
//! [`WorldSnapshot`]s of queue occupancy, the ξ distribution, the sleep
//! duty cycle and cumulative energy.
//!
//! Closed windows stream incrementally as JSONL (schema
//! [`SCHEMA`] = `dftmsn-observe/1`) so multi-hour runs never buffer
//! unboundedly, and can simultaneously be retained in memory as
//! [`TimeSeries`] for programmatic use (see [`ObserveSeries`]).
//!
//! The recorder is a clonable handle around shared state, like
//! [`SharedTrace`](crate::trace::SharedTrace): keep one clone, hand the
//! other to the simulation, and read the series back after the run.
//!
//! # Examples
//!
//! ```
//! use dftmsn_core::observe::MetricsRecorder;
//! use dftmsn_core::params::ScenarioParams;
//! use dftmsn_core::variants::ProtocolKind;
//! use dftmsn_core::world::Simulation;
//!
//! let recorder = MetricsRecorder::new(100.0);
//! let report = Simulation::builder(ScenarioParams::smoke_test(), ProtocolKind::Opt)
//!     .seed(1)
//!     .observe(recorder.clone())
//!     .build()
//!     .run();
//! let series = recorder.series();
//! let deliveries = series.get("deliveries").expect("series exists");
//! let total: f64 = deliveries.iter().map(|(_, v)| v).sum();
//! assert_eq!(total as u64, report.delivered);
//! ```

use crate::trace::{DropReason, TraceEvent};
use dftmsn_metrics::json::Json;
use dftmsn_metrics::timeseries::TimeSeries;
use dftmsn_sim::snap::{SnapError, SnapReader, SnapWriter};
use dftmsn_sim::time::{SimTime, TICKS_PER_SEC};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The JSONL schema identifier written in the header line.
pub const SCHEMA: &str = "dftmsn-observe/1";

/// A rejected observation window (non-finite, zero or negative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidWindow(String);

/// Narrowest observation window (s): one tick of the simulator's clock,
/// the floor every scenario duration already has. A narrower window
/// would make one event close many empty windows, each written as a
/// row, and its boundary ticks would round to zero.
const MIN_WINDOW_SECS: f64 = 1.0 / TICKS_PER_SEC as f64;

/// Widest window a checkpoint may carry (s): far beyond any run, yet small
/// enough that the clock plus one window cannot overflow.
const MAX_WINDOW_SECS: f64 = 1e12;

impl std::fmt::Display for InvalidWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for InvalidWindow {}

/// Instantaneous world state sampled at a window boundary.
///
/// Produced by the simulation on its observation tick (sensors only;
/// sinks are excluded from every figure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldSnapshot {
    /// Mean queued messages per sensor.
    pub queue_mean: f64,
    /// Largest sensor queue.
    pub queue_max: u64,
    /// Mean sensor delivery probability ξ (Eq. 1).
    pub xi_mean: f64,
    /// Smallest sensor ξ.
    pub xi_min: f64,
    /// Largest sensor ξ.
    pub xi_max: f64,
    /// Fraction of sensors with the radio asleep — the live duty-cycle
    /// complement of Eqs. 4–8.
    pub asleep_fraction: f64,
    /// Cumulative energy consumed by all sensors so far (J).
    pub energy_j: f64,
    /// Sensors currently alive (not crashed, not battery-dead) — the
    /// lifetime tier's alive-node timeseries. Trailing field so
    /// `dftmsn-observe/1` rows stay backward-compatible.
    pub alive_nodes: u64,
}

impl WorldSnapshot {
    fn encode(&self, w: &mut SnapWriter) {
        w.f64(self.queue_mean);
        w.u64(self.queue_max);
        w.f64(self.xi_mean);
        w.f64(self.xi_min);
        w.f64(self.xi_max);
        w.f64(self.asleep_fraction);
        w.f64(self.energy_j);
        w.u64(self.alive_nodes);
    }

    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(WorldSnapshot {
            queue_mean: r.f64()?,
            queue_max: r.u64()?,
            xi_mean: r.f64()?,
            xi_min: r.f64()?,
            xi_max: r.f64()?,
            asleep_fraction: r.f64()?,
            energy_j: r.f64()?,
            alive_nodes: r.u64()?,
        })
    }
}

/// Event counts accumulated over one window (or over the whole run, for
/// the totals line).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowCounters {
    /// First-copy sink deliveries.
    pub deliveries: u64,
    /// Sum of end-to-end delays of those deliveries (s).
    pub delay_sum_secs: f64,
    /// Drop-tail evictions ([`DropReason::Overflow`]).
    pub drops_overflow: u64,
    /// Full-queue rejections ([`DropReason::QueueFull`]).
    pub drops_rejected: u64,
    /// FTD-threshold purges ([`DropReason::FtdThreshold`]).
    pub drops_ftd: u64,
    /// (frame, receiver) collision losses.
    pub collisions: u64,
    /// Frames put on the air.
    pub frames_sent: u64,
    /// Frames by tag: `[PRE, RTS, CTS, SCHD, DATA, ACK]`.
    pub frames_by_kind: [u64; 6],
    /// Frames decoded intact at a receiver.
    pub frame_deliveries: u64,
    /// Control bits on the air.
    pub control_bits: u64,
    /// Data bits on the air.
    pub data_bits: u64,
    /// Radio sleep transitions.
    pub sleeps: u64,
    /// Total sleep time committed by those transitions (s).
    pub sleep_secs: f64,
    /// Fault-plan events fired.
    pub faults: u64,
}

impl WindowCounters {
    fn absorb(&mut self, o: &WindowCounters) {
        self.deliveries += o.deliveries;
        self.delay_sum_secs += o.delay_sum_secs;
        self.drops_overflow += o.drops_overflow;
        self.drops_rejected += o.drops_rejected;
        self.drops_ftd += o.drops_ftd;
        self.collisions += o.collisions;
        self.frames_sent += o.frames_sent;
        for (a, b) in self.frames_by_kind.iter_mut().zip(o.frames_by_kind) {
            *a += b;
        }
        self.frame_deliveries += o.frame_deliveries;
        self.control_bits += o.control_bits;
        self.data_bits += o.data_bits;
        self.sleeps += o.sleeps;
        self.sleep_secs += o.sleep_secs;
        self.faults += o.faults;
    }

    fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.deliveries);
        w.f64(self.delay_sum_secs);
        w.u64(self.drops_overflow);
        w.u64(self.drops_rejected);
        w.u64(self.drops_ftd);
        w.u64(self.collisions);
        w.u64(self.frames_sent);
        for k in self.frames_by_kind {
            w.u64(k);
        }
        w.u64(self.frame_deliveries);
        w.u64(self.control_bits);
        w.u64(self.data_bits);
        w.u64(self.sleeps);
        w.f64(self.sleep_secs);
        w.u64(self.faults);
    }

    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut c = WindowCounters {
            deliveries: r.u64()?,
            delay_sum_secs: r.f64()?,
            drops_overflow: r.u64()?,
            drops_rejected: r.u64()?,
            drops_ftd: r.u64()?,
            collisions: r.u64()?,
            frames_sent: r.u64()?,
            ..WindowCounters::default()
        };
        for k in &mut c.frames_by_kind {
            *k = r.u64()?;
        }
        c.frame_deliveries = r.u64()?;
        c.control_bits = r.u64()?;
        c.data_bits = r.u64()?;
        c.sleeps = r.u64()?;
        c.sleep_secs = r.f64()?;
        c.faults = r.u64()?;
        Ok(c)
    }
}

/// One closed observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveRow {
    /// 0-based window index.
    pub window: u64,
    /// Window start (s); events at exactly `t0` belong to this window.
    pub t0_secs: f64,
    /// Window end (s); events at exactly `t1` belong to the next window.
    pub t1_secs: f64,
    /// Event counts inside `[t0, t1)`.
    pub counters: WindowCounters,
    /// World state at `t1`, when a snapshot tick coincided with the
    /// boundary (absent for standalone recorders fed only trace events).
    pub snapshot: Option<WorldSnapshot>,
}

impl ObserveRow {
    fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.window);
        w.f64(self.t0_secs);
        w.f64(self.t1_secs);
        self.counters.encode(w);
        w.option(self.snapshot.as_ref(), |w, s| s.encode(w));
    }

    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(ObserveRow {
            window: r.u64()?,
            t0_secs: r.f64()?,
            t1_secs: r.f64()?,
            counters: WindowCounters::decode(r)?,
            snapshot: r.option(WorldSnapshot::decode)?,
        })
    }
}

/// Run metadata written in the JSONL header line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunMeta {
    /// Variant label (OPT, NOOPT, …).
    pub(crate) protocol: String,
    /// Run seed.
    pub(crate) seed: u64,
    /// Configured duration (s).
    pub(crate) duration_secs: f64,
    /// Sensor count.
    pub(crate) sensors: usize,
    /// Sink count.
    pub(crate) sinks: usize,
}

/// The per-metric [`TimeSeries`] view of a finished observation, sampled
/// at window ends.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveSeries {
    /// The window width the series were aggregated at (s).
    pub window_secs: f64,
    /// One series per metric; see [`ObserveSeries::get`].
    pub series: Vec<TimeSeries>,
}

impl ObserveSeries {
    /// Looks a series up by name (`"deliveries"`, `"collisions"`,
    /// `"queue_mean"`, …).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// The available series names.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.series.iter().map(TimeSeries::name).collect()
    }
}

struct RecorderInner {
    window_secs: f64,
    meta: Option<RunMeta>,
    header_written: bool,
    /// Index of the currently accumulating window.
    cur_index: u64,
    cur: WindowCounters,
    /// A closed window awaiting its boundary snapshot. At most one window
    /// can be pending: the snapshot tick fires at every boundary, and at a
    /// shared timestamp the event queue may hand us boundary events either
    /// side of the tick.
    pending: Option<ObserveRow>,
    totals: WindowCounters,
    windows_emitted: u64,
    retain: bool,
    rows: Vec<ObserveRow>,
    out: Option<Box<dyn Write + Send>>,
    /// The first write or flush error on `out`, which is then detached:
    /// nothing more is written, so `bytes_written` stays at what reached
    /// the output.
    write_error: Option<std::io::Error>,
    finished: bool,
    /// Bytes emitted to `out` so far, so a checkpoint records exactly how
    /// much of the observe file is accounted for.
    bytes_written: u64,
}

impl std::fmt::Debug for RecorderInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderInner")
            .field("window_secs", &self.window_secs)
            .field("cur_index", &self.cur_index)
            .field("windows_emitted", &self.windows_emitted)
            .field("retain", &self.retain)
            .field("streaming", &self.out.is_some())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl RecorderInner {
    fn window_end(&self, index: u64) -> f64 {
        (index + 1) as f64 * self.window_secs
    }

    fn write_line(&mut self, line: &Json) {
        if let Some(out) = self.out.as_mut() {
            let rendered = line.render();
            match writeln!(out, "{rendered}") {
                Ok(()) => self.bytes_written += rendered.len() as u64 + 1,
                Err(e) => self.fail(e),
            }
        }
    }

    fn fail(&mut self, e: std::io::Error) {
        self.write_error = Some(e);
        self.out = None;
    }

    fn write_header(&mut self) {
        if self.header_written {
            return;
        }
        self.header_written = true;
        let mut j = Json::object()
            .field("schema", SCHEMA)
            .field("window_secs", self.window_secs);
        if let Some(meta) = &self.meta {
            j = j
                .field("protocol", meta.protocol.as_str())
                .field("seed", meta.seed)
                .field("duration_secs", meta.duration_secs)
                .field("sensors", meta.sensors)
                .field("sinks", meta.sinks);
        }
        self.write_line(&j);
    }

    /// Closes windows up to (but not including) the one containing `at`.
    /// An event at exactly a boundary closes the window the boundary ends.
    fn roll(&mut self, at_secs: f64) {
        while at_secs >= self.window_end(self.cur_index) {
            self.flush_pending();
            let row = ObserveRow {
                window: self.cur_index,
                t0_secs: self.cur_index as f64 * self.window_secs,
                t1_secs: self.window_end(self.cur_index),
                counters: std::mem::take(&mut self.cur),
                snapshot: None,
            };
            self.pending = Some(row);
            self.cur_index += 1;
        }
    }

    fn flush_pending(&mut self) {
        if let Some(row) = self.pending.take() {
            self.emit_row(row);
        }
    }

    fn emit_row(&mut self, row: ObserveRow) {
        self.write_header();
        self.totals.absorb(&row.counters);
        self.windows_emitted += 1;
        let json = row_json(&row);
        self.write_line(&json);
        if self.retain {
            self.rows.push(row);
        }
    }

    fn record(&mut self, event: TraceEvent) {
        if self.finished {
            return;
        }
        self.roll(event.at().as_secs_f64());
        match event {
            TraceEvent::FrameSent { tag, bits, .. } => {
                self.cur.frames_sent += 1;
                self.cur.frames_by_kind[kind_index(tag)] += 1;
                if tag == "DATA" {
                    self.cur.data_bits += bits;
                } else {
                    self.cur.control_bits += bits;
                }
            }
            TraceEvent::FrameDelivered { .. } => self.cur.frame_deliveries += 1,
            TraceEvent::Collision { .. } => self.cur.collisions += 1,
            TraceEvent::Delivered { delay_secs, .. } => {
                self.cur.deliveries += 1;
                self.cur.delay_sum_secs += delay_secs;
            }
            TraceEvent::Slept { secs, .. } => {
                self.cur.sleeps += 1;
                self.cur.sleep_secs += secs;
            }
            TraceEvent::Dropped { reason, .. } => match reason {
                DropReason::Overflow => self.cur.drops_overflow += 1,
                DropReason::QueueFull => self.cur.drops_rejected += 1,
                DropReason::FtdThreshold => self.cur.drops_ftd += 1,
            },
            TraceEvent::FaultInjected { .. } => self.cur.faults += 1,
        }
    }

    fn snapshot(&mut self, at: SimTime, snap: WorldSnapshot) {
        if self.finished {
            return;
        }
        let at_secs = at.as_secs_f64();
        self.roll(at_secs);
        // The tick fires exactly on a boundary: the snapshot describes the
        // state the just-closed window ended in.
        if let Some(p) = self.pending.as_mut() {
            if p.t1_secs <= at_secs {
                p.snapshot = Some(snap);
            }
        }
        self.flush_pending();
    }

    fn finish(&mut self, at: SimTime, snap: Option<WorldSnapshot>) {
        if self.finished {
            return;
        }
        let at_secs = at.as_secs_f64();
        self.roll(at_secs);
        self.flush_pending();
        // Emit the trailing partial window when the run ended mid-window —
        // or a zero-length one if events landed exactly on the final
        // boundary, so totals still reconcile with the report.
        let t0 = self.cur_index as f64 * self.window_secs;
        if at_secs > t0 || self.cur != WindowCounters::default() {
            let row = ObserveRow {
                window: self.cur_index,
                t0_secs: t0,
                t1_secs: at_secs,
                counters: std::mem::take(&mut self.cur),
                snapshot: snap,
            };
            self.emit_row(row);
        }
        self.finished = true;
        self.write_header();
        let t = self.totals;
        let totals = Json::object()
            .field("totals", true)
            .field("windows", self.windows_emitted)
            .field("deliveries", t.deliveries)
            .field("delay_sum_secs", t.delay_sum_secs)
            .field("drops_overflow", t.drops_overflow)
            .field("drops_rejected", t.drops_rejected)
            .field("drops_ftd", t.drops_ftd)
            .field("collisions", t.collisions)
            .field("frames_sent", t.frames_sent)
            .field("frame_deliveries", t.frame_deliveries)
            .field("control_bits", t.control_bits)
            .field("data_bits", t.data_bits)
            .field("sleeps", t.sleeps)
            .field("faults", t.faults);
        self.write_line(&totals);
        if let Some(Err(e)) = self.out.as_mut().map(Write::flush) {
            self.fail(e);
        }
    }
}

fn row_json(row: &ObserveRow) -> Json {
    let c = &row.counters;
    let frames = Json::object()
        .field("pre", c.frames_by_kind[0])
        .field("rts", c.frames_by_kind[1])
        .field("cts", c.frames_by_kind[2])
        .field("schd", c.frames_by_kind[3])
        .field("data", c.frames_by_kind[4])
        .field("ack", c.frames_by_kind[5]);
    let snapshot = match &row.snapshot {
        Some(s) => Json::object()
            .field("queue_mean", s.queue_mean)
            .field("queue_max", s.queue_max)
            .field("xi_mean", s.xi_mean)
            .field("xi_min", s.xi_min)
            .field("xi_max", s.xi_max)
            .field("asleep_fraction", s.asleep_fraction)
            .field("energy_j", s.energy_j)
            .field("alive_nodes", s.alive_nodes),
        None => Json::Null,
    };
    Json::object()
        .field("window", row.window)
        .field("t0", row.t0_secs)
        .field("t1", row.t1_secs)
        .field("deliveries", c.deliveries)
        .field("delay_sum_secs", c.delay_sum_secs)
        .field("drops_overflow", c.drops_overflow)
        .field("drops_rejected", c.drops_rejected)
        .field("drops_ftd", c.drops_ftd)
        .field("collisions", c.collisions)
        .field("frames", frames)
        .field("frames_sent", c.frames_sent)
        .field("frame_deliveries", c.frame_deliveries)
        .field("control_bits", c.control_bits)
        .field("data_bits", c.data_bits)
        .field("sleeps", c.sleeps)
        .field("sleep_secs", c.sleep_secs)
        .field("faults", c.faults)
        .field("snapshot", snapshot)
}

/// A clonable, thread-safe windowed metrics recorder.
///
/// Attach it with
/// [`SimulationBuilder::observe`](crate::world::SimulationBuilder::observe),
/// which feeds it every trace event ahead of any user sink and samples a
/// [`WorldSnapshot`] at each window boundary.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl MetricsRecorder {
    /// Creates a recorder aggregating over `window_secs`-wide windows,
    /// retaining closed windows in memory.
    ///
    /// # Panics
    ///
    /// Panics if the window is non-finite or shorter than one clock tick
    /// (1 µs); use [`MetricsRecorder::try_new`] for a fallible form.
    #[must_use]
    pub fn new(window_secs: f64) -> Self {
        Self::try_new(window_secs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`MetricsRecorder::new`].
    ///
    /// # Errors
    ///
    /// Rejects non-finite windows and windows shorter than one clock
    /// tick (1 µs), zero and negative ones included.
    pub fn try_new(window_secs: f64) -> Result<Self, InvalidWindow> {
        if !window_secs.is_finite() || window_secs < MIN_WINDOW_SECS {
            return Err(InvalidWindow(format!(
                "observation window must be positive, finite and at least one \
                 clock tick ({MIN_WINDOW_SECS:e} s), got {window_secs:e}"
            )));
        }
        Ok(MetricsRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                window_secs,
                meta: None,
                header_written: false,
                cur_index: 0,
                cur: WindowCounters::default(),
                pending: None,
                totals: WindowCounters::default(),
                windows_emitted: 0,
                retain: true,
                rows: Vec::new(),
                out: None,
                write_error: None,
                finished: false,
                bytes_written: 0,
            })),
        })
    }

    /// Bytes emitted to the attached output so far (0 when none).
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.lock().bytes_written
    }

    /// Takes the first error writing or flushing the attached output, if
    /// one occurred. Such an error detaches the output: the recorder
    /// writes nothing more, so [`bytes_written`](Self::bytes_written)
    /// stays at the bytes that reached it.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    #[must_use]
    pub fn take_write_error(&self) -> Option<std::io::Error> {
        self.lock().write_error.take()
    }

    /// Streams every closed window (and the header/totals lines) to
    /// `out` as JSONL.
    #[must_use]
    pub fn with_output(self, out: Box<dyn Write + Send>) -> Self {
        self.lock().out = Some(out);
        self
    }

    /// Disables in-memory retention: windows are only streamed to the
    /// output, so memory stays flat however long the run is.
    #[must_use]
    pub fn streaming_only(self) -> Self {
        self.lock().retain = false;
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner.lock().expect("observe lock poisoned")
    }

    /// The configured window width (s).
    pub(crate) fn window_secs(&self) -> f64 {
        self.lock().window_secs
    }

    /// Installs run metadata for the JSONL header. Called by the
    /// simulation when the recorder is attached; a no-op after the header
    /// has been written.
    pub(crate) fn begin_run(&self, meta: RunMeta) {
        self.lock().meta = Some(meta);
    }

    /// Folds one trace event into the current window.
    pub(crate) fn record(&self, event: TraceEvent) {
        self.lock().record(event);
    }

    /// Feeds a world snapshot taken at a window boundary; closes the
    /// window that ends at `at`.
    pub(crate) fn record_snapshot(&self, at: SimTime, snap: WorldSnapshot) {
        self.lock().snapshot(at, snap);
    }

    /// Closes the trailing (possibly partial) window at `at`, writes the
    /// totals line and flushes the output. Recording after `finish` is
    /// ignored.
    pub(crate) fn finish(&self, at: SimTime, snap: Option<WorldSnapshot>) {
        self.lock().finish(at, snap);
    }

    /// Writes everything needed to continue the JSONL stream byte for
    /// byte: the accumulating window, the pending (snapshot-awaiting) row,
    /// the running totals and the count of bytes written so far, so a
    /// resuming process can truncate a partly written observe file back to
    /// the last complete line. Retained in-memory rows are not written:
    /// after a resume, [`rows`](Self::rows) and [`series`](Self::series)
    /// cover only post-resume windows.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        let inner = self.lock();
        w.f64(inner.window_secs);
        w.option(inner.meta.as_ref(), |w, meta| {
            w.string(&meta.protocol);
            w.u64(meta.seed);
            w.f64(meta.duration_secs);
            w.usize(meta.sensors);
            w.usize(meta.sinks);
        });
        w.bool(inner.header_written);
        w.u64(inner.cur_index);
        inner.cur.encode(w);
        w.option(inner.pending.as_ref(), |w, row| row.encode(w));
        inner.totals.encode(w);
        w.u64(inner.windows_emitted);
        w.u64(inner.bytes_written);
    }

    /// Rebuilds a recorder from what [`encode`](Self::encode) wrote at
    /// the clock `now`, checking the window width and that the window
    /// cursor keeps up with the clock. No output is attached: chain
    /// [`with_output`](Self::with_output) with a file truncated to
    /// [`bytes_written`](Self::bytes_written) bytes to continue the stream.
    pub(crate) fn decode(r: &mut SnapReader, now: SimTime) -> Result<Self, SnapError> {
        let window_secs = r.f64()?;
        if !(MIN_WINDOW_SECS..=MAX_WINDOW_SECS).contains(&window_secs) {
            return Err(SnapError::new(format!(
                "bad observer window width {window_secs}"
            )));
        }
        let recorder = Self::new(window_secs);
        {
            let mut inner = recorder.lock();
            inner.meta = r.option(|r| {
                Ok(RunMeta {
                    protocol: r.string()?,
                    seed: r.u64()?,
                    duration_secs: r.f64()?,
                    sensors: r.usize()?,
                    sinks: r.usize()?,
                })
            })?;
            inner.header_written = r.bool()?;
            inner.cur_index = r.u64()?;
            inner.cur = WindowCounters::decode(r)?;
            inner.pending = r.option(ObserveRow::decode)?;
            inner.totals = WindowCounters::decode(r)?;
            inner.windows_emitted = r.u64()?;
            inner.bytes_written = r.u64()?;
            // A window closes at every boundary tick, so the cursor never
            // trails the clock by two windows; one that did would make the
            // next event roll through an unbounded run of empty windows.
            if now.as_secs_f64() >= (inner.cur_index as f64 + 2.0) * window_secs {
                return Err(SnapError::new(format!(
                    "observer window {} trails the clock {now}",
                    inner.cur_index
                )));
            }
        }
        Ok(recorder)
    }

    /// Closed windows retained so far (empty in streaming-only mode).
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    #[must_use]
    pub fn rows(&self) -> Vec<ObserveRow> {
        self.lock().rows.clone()
    }

    /// Windows emitted and the cumulative counters across them — the
    /// figures the totals line carries.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    #[must_use]
    pub fn totals(&self) -> (u64, WindowCounters) {
        let inner = self.lock();
        (inner.windows_emitted, inner.totals)
    }

    /// Builds per-metric [`TimeSeries`] from the retained rows, sampled at
    /// window ends.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    #[must_use]
    pub fn series(&self) -> ObserveSeries {
        let inner = self.lock();
        type RowFn = fn(&ObserveRow) -> f64;
        type SnapFn = fn(&WorldSnapshot) -> f64;
        let counters: [(&str, RowFn); 8] = [
            ("deliveries", |r| r.counters.deliveries as f64),
            ("drops", |r| {
                (r.counters.drops_overflow + r.counters.drops_rejected + r.counters.drops_ftd)
                    as f64
            }),
            ("collisions", |r| r.counters.collisions as f64),
            ("frames_sent", |r| r.counters.frames_sent as f64),
            ("control_bits", |r| r.counters.control_bits as f64),
            ("data_bits", |r| r.counters.data_bits as f64),
            ("sleeps", |r| r.counters.sleeps as f64),
            ("faults", |r| r.counters.faults as f64),
        ];
        let snaps: [(&str, SnapFn); 8] = [
            ("queue_mean", |s| s.queue_mean),
            ("queue_max", |s| s.queue_max as f64),
            ("xi_mean", |s| s.xi_mean),
            ("xi_min", |s| s.xi_min),
            ("xi_max", |s| s.xi_max),
            ("asleep_fraction", |s| s.asleep_fraction),
            ("energy_j", |s| s.energy_j),
            ("alive_nodes", |s| s.alive_nodes as f64),
        ];
        let mut series = Vec::new();
        for (name, f) in counters {
            let mut ts = TimeSeries::new(name);
            for row in &inner.rows {
                ts.push(row.t1_secs, f(row));
            }
            series.push(ts);
        }
        for (name, f) in snaps {
            let mut ts = TimeSeries::new(name);
            for row in &inner.rows {
                if let Some(s) = &row.snapshot {
                    ts.push(row.t1_secs, f(s));
                }
            }
            series.push(ts);
        }
        ObserveSeries {
            window_secs: inner.window_secs,
            series,
        }
    }
}

/// Index into `frames_by_kind` for a frame tag.
fn kind_index(tag: &str) -> usize {
    match tag {
        "PRE" => 0,
        "RTS" => 1,
        "CTS" => 2,
        "SCHD" => 3,
        "DATA" => 4,
        _ => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use dftmsn_radio::ids::NodeId;
    use dftmsn_sim::time::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn delivered(at_secs: f64) -> TraceEvent {
        TraceEvent::Delivered {
            at: t(at_secs),
            msg: MessageId(0),
            sink: NodeId(1),
            delay_secs: 5.0,
        }
    }

    fn snap(x: f64) -> WorldSnapshot {
        WorldSnapshot {
            queue_mean: x,
            queue_max: 2,
            xi_mean: 0.5,
            xi_min: 0.0,
            xi_max: 1.0,
            asleep_fraction: 0.25,
            energy_j: 1.0,
            alive_nodes: 12,
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_window_is_rejected() {
        let _ = MetricsRecorder::new(0.0);
    }

    #[test]
    fn negative_and_non_finite_windows_are_rejected() {
        assert!(MetricsRecorder::try_new(-1.0).is_err());
        assert!(MetricsRecorder::try_new(f64::NAN).is_err());
        assert!(MetricsRecorder::try_new(f64::INFINITY).is_err());
        assert!(MetricsRecorder::try_new(0.5).is_ok());
    }

    #[test]
    fn windows_below_one_clock_tick_are_rejected() {
        assert!(MetricsRecorder::try_new(1e-7).is_err());
        assert!(MetricsRecorder::try_new(1e-300).is_err());
        assert!(MetricsRecorder::try_new(1e-6).is_ok());
    }

    #[test]
    fn events_on_the_exact_boundary_open_the_next_window() {
        let rec = MetricsRecorder::new(10.0);
        rec.record(delivered(9.999));
        rec.record(delivered(10.0)); // boundary: belongs to window 1
        rec.finish(SimTime::from_secs(20), None);
        let rows = rec.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].counters.deliveries, 1);
        assert_eq!(rows[1].counters.deliveries, 1);
        assert_eq!(rows[0].t1_secs, 10.0);
        assert_eq!(rows[1].t0_secs, 10.0);
    }

    #[test]
    fn empty_windows_are_still_emitted() {
        let rec = MetricsRecorder::new(5.0);
        rec.record(delivered(17.0)); // windows 0..=2 pass with nothing
        rec.finish(SimTime::from_secs(20), None);
        let rows = rec.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].counters.deliveries, 0);
        assert_eq!(rows[3].counters.deliveries, 1);
    }

    #[test]
    fn trailing_partial_window_closes_at_finish_time() {
        let rec = MetricsRecorder::new(10.0);
        rec.record(delivered(12.0));
        rec.finish(t(14.5), Some(snap(1.0)));
        let rows = rec.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].t0_secs, 10.0);
        assert_eq!(rows[1].t1_secs, 14.5);
        assert!(rows[1].snapshot.is_some());
        let (windows, totals) = rec.totals();
        assert_eq!(windows, 2);
        assert_eq!(totals.deliveries, 1);
    }

    #[test]
    fn snapshot_attaches_to_the_window_it_closes_in_either_event_order() {
        // Tick first, then a boundary-time event.
        let a = MetricsRecorder::new(10.0);
        a.record(delivered(3.0));
        a.record_snapshot(SimTime::from_secs(10), snap(7.0));
        a.record(delivered(10.0));
        a.finish(SimTime::from_secs(20), None);
        // Boundary-time event first, then the tick.
        let b = MetricsRecorder::new(10.0);
        b.record(delivered(3.0));
        b.record(delivered(10.0));
        b.record_snapshot(SimTime::from_secs(10), snap(7.0));
        b.finish(SimTime::from_secs(20), None);
        assert_eq!(a.rows(), b.rows());
        let rows = a.rows();
        assert_eq!(rows[0].snapshot.unwrap().queue_mean, 7.0);
        assert_eq!(rows[1].counters.deliveries, 1);
    }

    #[test]
    fn recording_after_finish_is_ignored() {
        let rec = MetricsRecorder::new(10.0);
        rec.finish(SimTime::from_secs(10), None);
        rec.record(delivered(11.0));
        let (windows, totals) = rec.totals();
        assert_eq!(windows, 1);
        assert_eq!(totals.deliveries, 0);
    }

    #[test]
    fn jsonl_stream_has_header_rows_and_totals() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let rec = MetricsRecorder::new(10.0).with_output(Box::new(Shared(buf.clone())));
        rec.begin_run(RunMeta {
            protocol: "OPT".into(),
            seed: 7,
            duration_secs: 20.0,
            sensors: 3,
            sinks: 1,
        });
        rec.record(delivered(1.0));
        rec.finish(SimTime::from_secs(20), None);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 windows + totals: {text}");
        assert!(lines[0].contains("\"schema\":\"dftmsn-observe/1\""));
        assert!(lines[0].contains("\"protocol\":\"OPT\""));
        assert!(lines[1].contains("\"window\":0"));
        assert!(lines[3].contains("\"totals\":true"));
        assert!(lines[3].contains("\"deliveries\":1"));
    }

    #[test]
    fn a_failed_write_or_flush_is_kept_and_stops_the_stream() {
        /// Accepts `room` bytes, then fails every write; flushing fails
        /// when `flush_fails`.
        struct Tight {
            room: usize,
            flush_fails: bool,
        }
        impl Write for Tight {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                if self.room == 0 {
                    return Err(std::io::Error::other("no space left"));
                }
                let n = b.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                if self.flush_fails {
                    return Err(std::io::Error::other("flush refused"));
                }
                Ok(())
            }
        }
        let run = |room, flush_fails| {
            let rec = MetricsRecorder::new(10.0).with_output(Box::new(Tight { room, flush_fails }));
            rec.record(delivered(1.0));
            rec.finish(SimTime::from_secs(20), None);
            rec
        };
        let full = run(0, false);
        assert_eq!(full.bytes_written(), 0);
        let err = full.take_write_error().expect("the write error is kept");
        assert_eq!(err.to_string(), "no space left");
        assert!(full.take_write_error().is_none(), "taken once");
        assert_eq!(full.totals().0, 2, "windows still close");

        // Room for the header only: the first window's line fails part
        // way, and nothing after it is written or counted.
        let partial = run(60, false);
        assert!(partial.bytes_written() > 0 && partial.bytes_written() <= 60);
        assert!(partial.take_write_error().is_some());

        let unflushable = run(usize::MAX, true);
        assert!(unflushable.bytes_written() > 0);
        let err = unflushable
            .take_write_error()
            .expect("the flush error is kept");
        assert_eq!(err.to_string(), "flush refused");
    }

    #[test]
    fn state_round_trip_continues_the_stream_byte_for_byte() {
        let buf = |b: &Arc<Mutex<Vec<u8>>>| -> Box<dyn Write + Send> {
            struct Shared(Arc<Mutex<Vec<u8>>>);
            impl Write for Shared {
                fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                    self.0.lock().unwrap().extend_from_slice(b);
                    Ok(b.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            Box::new(Shared(b.clone()))
        };
        let meta = RunMeta {
            protocol: "OPT".into(),
            seed: 7,
            duration_secs: 40.0,
            sensors: 3,
            sinks: 1,
        };
        // Uninterrupted reference run.
        let whole: Arc<Mutex<Vec<u8>>> = Arc::default();
        let a = MetricsRecorder::new(10.0).with_output(buf(&whole));
        a.begin_run(meta.clone());
        for &s in &[1.0, 9.0, 12.0, 15.5, 31.0] {
            a.record(delivered(s));
        }
        a.record_snapshot(SimTime::from_secs(20), snap(2.0));
        a.finish(SimTime::from_secs(40), None);

        // Same events split at t = 14: checkpoint, restore, continue.
        let head: Arc<Mutex<Vec<u8>>> = Arc::default();
        let b = MetricsRecorder::new(10.0).with_output(buf(&head));
        b.begin_run(meta);
        for &s in &[1.0, 9.0, 12.0] {
            b.record(delivered(s));
        }
        let mut w = SnapWriter::new();
        b.encode(&mut w);
        let state = w.into_bytes();
        assert_eq!(b.bytes_written(), head.lock().unwrap().len() as u64);
        let tail: Arc<Mutex<Vec<u8>>> = Arc::default();
        let c = MetricsRecorder::decode(&mut SnapReader::new(&state), SimTime::from_secs(14))
            .expect("decodes")
            .with_output(buf(&tail));
        for &s in &[15.5, 31.0] {
            c.record(delivered(s));
        }
        c.record_snapshot(SimTime::from_secs(20), snap(2.0));
        c.finish(SimTime::from_secs(40), None);

        let mut resumed = head.lock().unwrap().clone();
        resumed.extend_from_slice(&tail.lock().unwrap());
        assert_eq!(
            String::from_utf8(whole.lock().unwrap().clone()).unwrap(),
            String::from_utf8(resumed).unwrap()
        );
        assert_eq!(a.totals(), c.totals());
    }

    #[test]
    fn kind_indices_are_distinct() {
        let tags = ["PRE", "RTS", "CTS", "SCHD", "DATA", "ACK"];
        let idx: std::collections::HashSet<usize> = tags.iter().map(|t| kind_index(t)).collect();
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn series_sample_at_window_ends() {
        let rec = MetricsRecorder::new(10.0);
        rec.record(delivered(1.0));
        rec.record_snapshot(SimTime::from_secs(10), snap(3.0));
        rec.record(delivered(12.0));
        rec.record(delivered(13.0));
        rec.record_snapshot(SimTime::from_secs(20), snap(4.0));
        rec.finish(SimTime::from_secs(20), None);
        let series = rec.series();
        let d = series.get("deliveries").unwrap();
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(10.0, 1.0), (20.0, 2.0)]);
        let q = series.get("queue_mean").unwrap();
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![(10.0, 3.0), (20.0, 4.0)]);
        assert!(series.names().contains(&"faults"));
    }
}
