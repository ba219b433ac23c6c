//! Runs the benchmark binary end to end at `--quick` sizes and checks
//! its output against `BENCHMARK.json`.

use dftmsn_metrics::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn benchmark(args: &[&str], out: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--quick", "--seconds", "0"])
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark starts")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dftmsn-benchmark-{}-{name}", std::process::id()))
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key).and_then(Json::as_array).unwrap_or(&[])
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("")
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// `(name, unit)` of the declared metrics for the untraced and the traced pass.
fn declared() -> [Vec<(String, String)>; 2] {
    let spec = read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    ["end_to_end", "per_layer"].map(|key| {
        list(&spec, key)
            .iter()
            .map(|m| (text(m, "name").to_owned(), text(m, "unit").to_owned()))
            .collect()
    })
}

fn metric<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    list(result, "metrics")
        .iter()
        .find(|m| text(m, "name") == name)
}

fn last_line(o: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&o.stdout);
    let line = stdout.lines().last().expect("some output");
    Json::parse(line).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_every_declared_metric_and_passes_its_checks() {
    let out = temp("smoke.json");
    let o = benchmark(&["--seed", "1"], &out);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stdout));
    let artifact = read_json(out.to_str().expect("utf-8 path"));
    let results = list(&artifact, "results");
    assert_eq!(results.len(), 8, "four workloads, two passes each");
    let declared = declared();
    for r in results {
        let (w, trace) = (text(r, "workload"), num(r, "trace"));
        assert_eq!(num(r, "failed"), 0.0, "{w}: {:?}", r.get("failures"));
        assert!(num(r, "attempted") > 0.0);
        for (name, unit) in &declared[trace as usize] {
            let m = metric(r, name).unwrap_or_else(|| panic!("{w} lacks {name}"));
            assert_eq!(text(m, "unit"), unit, "{w} {name}");
            assert!(num(m, "value").is_finite(), "{w} {name}");
        }
    }
    let layer = |w: &str, name: &str| {
        let r = results
            .iter()
            .find(|r| text(r, "workload") == w && num(r, "trace") == 1.0)
            .expect("a traced result");
        num(metric(r, name).expect("declared"), "value")
    };
    assert!(layer("scale-ticked", "core.mobility.ticks") > 0.0);
    assert!(layer("fault-ckpt", "core.world_ckpt.ops") > 0.0);
    assert!(layer("fault-ckpt", "core.faults.events") > 0.0);
    assert_eq!(layer("scale-lazy", "core.world_ckpt.ops"), 0.0);

    let same = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--compare")
        .args([&out, &out])
        .output()
        .expect("compare starts");
    assert!(
        same.status.success(),
        "a result compared with itself is no worse"
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn a_panicking_workload_fails_alone_and_the_run_exits_1() {
    let out = temp("panic.json");
    let o = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .env("DFTMSN_BENCHMARK_PANIC", "scale-lazy")
        .args(["--quick", "--seconds", "0", "--trace", "0", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark starts");
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(
        last_line(&o).get("correct").and_then(Json::as_bool),
        Some(false)
    );
    let artifact = read_json(out.to_str().expect("utf-8 path"));
    let results = list(&artifact, "results");
    assert_eq!(results.len(), 4);
    for r in results {
        if text(r, "workload") == "scale-lazy" {
            assert_eq!((num(r, "attempted"), num(r, "failed")), (1.0, 1.0));
        } else {
            assert_eq!(num(r, "failed"), 0.0);
            assert!(metric(r, "wall_s").is_some());
        }
    }
    // A result with a failed workload never compares as "no worse".
    let compare = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--compare")
        .args([&out, &out])
        .output()
        .expect("compare starts");
    assert_eq!(compare.status.code(), Some(1));
    let _ = std::fs::remove_file(&out);
}

#[test]
fn one_pass_ends_with_exactly_the_declared_metrics() {
    let out = temp("single.json");
    let o = benchmark(&["--workload", "paper-sweep", "--trace", "0"], &out);
    assert!(o.status.success());
    let line = last_line(&o);
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let [e2e, _] = declared();
    assert_eq!(metrics.len(), e2e.len());
    for ((name, m), (want, unit)) in metrics.iter().zip(&e2e) {
        assert_eq!(name, want);
        let fields: Vec<&str> = m
            .as_object()
            .expect("value and unit")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"]);
        assert_eq!(text(m, "unit"), unit);
        assert!(num(m, "value") > 0.0, "{name} must never be 0");
    }
    let _ = std::fs::remove_file(&out);
}
