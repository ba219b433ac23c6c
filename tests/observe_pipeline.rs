//! End-to-end checks of the windowed observability pipeline: the JSONL
//! stream a [`MetricsRecorder`] emits must be well formed, byte-for-byte
//! deterministic, reconcile *exactly* with the [`SimReport`] of the same
//! run, and attaching it must not perturb the simulation at all.

use dftmsn::core::variants::ProtocolKind;
use dftmsn::metrics::json::Json;
use dftmsn::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Box<dyn Write + Send>`-able buffer that stays readable after the
/// recorder consumed the box.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("JSONL is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the smoke-test scenario with a streaming recorder, returning the
/// report and the raw JSONL text.
fn observed_smoke_run(window_secs: f64) -> (SimReport, String) {
    let buf = SharedBuf::default();
    let recorder = MetricsRecorder::new(window_secs)
        .streaming_only()
        .with_output(Box::new(buf.clone()));
    let report = Simulation::builder(ScenarioParams::smoke_test(), ProtocolKind::Opt)
        .seed(1)
        .observe(recorder)
        .build()
        .run();
    (report, buf.text())
}

#[test]
fn jsonl_stream_is_well_formed_and_deterministic() {
    let (_, first) = observed_smoke_run(100.0);
    let (_, second) = observed_smoke_run(100.0);
    assert_eq!(first, second, "same run, different JSONL bytes");

    let lines: Vec<&str> = first.lines().collect();
    assert!(lines.len() >= 3, "header + windows + totals: {first}");
    for (i, line) in lines.iter().enumerate() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        if i == 0 {
            assert_eq!(
                j.get("schema").and_then(Json::as_str),
                Some("dftmsn-observe/1")
            );
            assert_eq!(j.get("window_secs").and_then(Json::as_f64), Some(100.0));
            assert_eq!(j.get("protocol").and_then(Json::as_str), Some("OPT"));
        } else if i == lines.len() - 1 {
            assert_eq!(j.get("totals").and_then(Json::as_bool), Some(true));
        } else {
            // Window rows are contiguous from 0 and internally consistent.
            assert_eq!(j.get("window").and_then(Json::as_f64), Some((i - 1) as f64));
            let t0 = j.get("t0").and_then(Json::as_f64).unwrap();
            let t1 = j.get("t1").and_then(Json::as_f64).unwrap();
            assert!(t0 <= t1, "window {i} runs backwards: [{t0}, {t1}]");
            assert!(
                j.get("snapshot").is_some(),
                "window row {i} lacks a snapshot field"
            );
        }
    }
}

#[test]
fn totals_reconcile_exactly_with_the_report() {
    let (report, text) = observed_smoke_run(100.0);
    let totals = Json::parse(text.lines().last().expect("totals line")).unwrap();
    let field = |k: &str| totals.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    assert_eq!(field("deliveries"), report.delivered as f64);
    assert_eq!(field("collisions"), report.collisions as f64);
    assert_eq!(field("frames_sent"), report.frames_sent as f64);
    assert_eq!(field("drops_overflow"), report.drops_overflow as f64);
    assert_eq!(field("drops_rejected"), report.drops_rejected as f64);
    assert_eq!(field("drops_ftd"), report.drops_ftd as f64);
    // Per-window deliveries sum to the same total: nothing double counted,
    // nothing lost at window boundaries or run end.
    let windowed: f64 = text
        .lines()
        .filter_map(|l| {
            let j = Json::parse(l).ok()?;
            j.get("window")?;
            j.get("deliveries").and_then(Json::as_f64)
        })
        .sum();
    assert_eq!(windowed, report.delivered as f64);
}

#[test]
fn faulted_run_reconciles_and_marks_onset() {
    let scenario = ScenarioParams::smoke_test();
    let faults = FaultPlan::node_failures(&scenario, 0.3, None, 7);
    let buf = SharedBuf::default();
    let recorder = MetricsRecorder::new(150.0)
        .streaming_only()
        .with_output(Box::new(buf.clone()));
    let report = Simulation::builder(scenario, ProtocolKind::Opt)
        .seed(7)
        .faults(faults)
        .observe(recorder)
        .build()
        .run();
    let text = buf.text();
    let totals = Json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(
        totals.get("deliveries").and_then(Json::as_f64),
        Some(report.delivered as f64)
    );
    let fault_markers: f64 = text
        .lines()
        .filter_map(|l| {
            let j = Json::parse(l).ok()?;
            j.get("window")?;
            j.get("faults").and_then(Json::as_f64)
        })
        .sum();
    assert!(
        fault_markers > 0.0,
        "fault onset never surfaced in the windows"
    );
    assert_eq!(
        totals.get("faults").and_then(Json::as_f64),
        Some(fault_markers)
    );
}

#[test]
fn observer_leaves_every_variant_bit_identical() {
    let scenario = ScenarioParams::paper_default()
        .with_sensors(15)
        .with_sinks(2)
        .with_duration_secs(800);
    for kind in ProtocolKind::ALL {
        let plain = Simulation::builder(scenario.clone(), kind)
            .seed(42)
            .build()
            .run();
        let recorder = MetricsRecorder::new(90.0);
        let observed = Simulation::builder(scenario.clone(), kind)
            .seed(42)
            .observe(recorder.clone())
            .build()
            .run();
        assert!(
            plain.snap_bytes() == observed.snap_bytes(),
            "{kind}: attaching the observer changed the run"
        );
        let (windows, totals) = recorder.totals();
        assert!(windows > 0, "{kind}: no windows recorded");
        assert_eq!(totals.deliveries, plain.delivered, "{kind}");
    }
}

#[test]
fn golden_jsonl_snapshot_on_the_smoke_scenario() {
    // Frozen from the recorder's first release. A diff here means the
    // `dftmsn-observe/1` wire format or the simulation outcome changed —
    // either bump the schema or re-record, and say so in change notes.
    let (report, text) = observed_smoke_run(500.0);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        r#"{"schema":"dftmsn-observe/1","window_secs":500,"protocol":"OPT","seed":1,"duration_secs":1500,"sensors":30,"sinks":2}"#
    );
    assert_eq!(lines.len(), 5, "header + 3 windows + totals");
    assert_eq!(report.delivered, 212);
    assert_eq!(
        lines[4],
        r#"{"totals":true,"windows":3,"deliveries":212,"delay_sum_secs":64774.52839300001,"drops_overflow":0,"drops_rejected":0,"drops_ftd":0,"collisions":10,"frames_sent":21034,"frame_deliveries":2081,"control_bits":1035800,"data_bits":318000,"sleeps":10936,"faults":0}"#
    );
}
