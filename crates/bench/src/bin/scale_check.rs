//! Failing regression gate for the scale tier.
//!
//! Re-measures the small end of the scale tier (200 and 1 000 sensors,
//! both mobility modes, at the *full* tier duration so the figures are
//! directly comparable with the committed rows) and compares each
//! re-measured row against the `scale` section of the committed
//! `BENCH_engine.json`. Each row is timed as the fastest of [`REPS`]
//! runs, interleaved across the rows ([`run_tier`]), the statistic
//! `perf_baseline` records these rows with: on a shared host one cold run
//! per row tripped the budget on noise alone.
//!
//! * **ns/event per row** — the gate. A row more than 25 % slower than
//!   its committed figure fails the check (exit 1); anything slower at
//!   all, but within the budget, prints a warning. The 25 % budget
//!   absorbs machine noise while still catching the class of regression
//!   this tier exists to detect (an O(n) term creeping back into a hot
//!   path moves the 1 000-sensor row by far more than 25 %).
//! * **lazy/ticked speedup at 1 000 sensors** — advisory only. The ratio
//!   is largely machine-independent; a collapse below half the committed
//!   figure warns that lazy mobility specifically regressed.
//!
//! `--warn-only` keeps the old advisory behaviour: everything prints,
//! nothing fails. Use it when the hardware legitimately differs from the
//! machine that produced the committed baseline (the committed numbers
//! are machine-specific; a slower CI box would otherwise fail the gate
//! spuriously).
//!
//! The 5 000- and 20 000-sensor rows are deliberately *not* re-measured
//! here — they exist in the committed file and take minutes to reproduce;
//! the gate's job is a fast CI signal, and per-event regressions visible
//! at scale are visible at 1 000 sensors too.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin scale_check
//! [--warn-only] [BASELINE_JSON]` (default `BENCH_engine.json`).

#![forbid(unsafe_code)]

use dftmsn_bench::scale::{run_tier, REPS, SCALE_DURATION_SECS, SCALE_SENSORS};
use dftmsn_metrics::json::Json;
use std::io::Write as _;

/// Relative ns/event regression beyond which the gate fails.
const FAIL_BUDGET: f64 = 0.25;

/// Prints a line to standard output; a full or closed stdout ends the
/// gate with status 3 instead of a panic.
fn say(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        let _ = writeln!(
            std::io::stderr(),
            "error: cannot write standard output: {e}"
        );
        std::process::exit(3);
    }
}

fn committed_row<'a>(scale: &'a Json, sensors: f64, mode: &str) -> Option<&'a Json> {
    scale.get("rows")?.as_array()?.iter().find(|r| {
        r.get("sensors").and_then(Json::as_f64) == Some(sensors)
            && r.get("mode").and_then(Json::as_str) == Some(mode)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("BENCH_engine.json", String::as_str);

    // A missing or malformed baseline is not a regression — there is
    // nothing to compare against, so the gate degrades to a notice.
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("scale_check: cannot parse '{path}': {e} — nothing to compare");
                return;
            }
        },
        Err(e) => {
            eprintln!("scale_check: cannot read '{path}': {e} — nothing to compare");
            return;
        }
    };
    let Some(scale) = committed.get("scale") else {
        eprintln!(
            "scale_check: '{path}' has no scale section (schema {:?}) — \
             regenerate with `perf_baseline --scale`",
            committed.get("schema").and_then(Json::as_str)
        );
        return;
    };

    // Full tier duration: the committed rows were measured at
    // SCALE_DURATION_SECS, and ns/event at a shorter duration includes a
    // different share of startup cost, which would bias the comparison.
    let rows = run_tier(&SCALE_SENSORS[..2], SCALE_DURATION_SECS);

    let mut failed = false;
    let mut warned = false;
    for row in &rows {
        let Some(committed_row) = committed_row(scale, row.sensors as f64, row.mode_label()) else {
            eprintln!(
                "scale_check: '{path}' has no committed {} {} row — skipping",
                row.sensors,
                row.mode_label()
            );
            continue;
        };
        let Some(ref_ns) = committed_row.get("ns_per_event").and_then(Json::as_f64) else {
            continue;
        };
        let now_ns = row.ns_per_event();
        let rel = now_ns / ref_ns - 1.0;
        say(format_args!(
            "scale_check {:>5} {:>6}: {:>7.1} ns/event, fastest of {REPS} (committed {:>7.1}, {:+.1}%)",
            row.sensors,
            row.mode_label(),
            now_ns,
            ref_ns,
            rel * 100.0
        ));
        if rel > FAIL_BUDGET {
            eprintln!(
                "{}: {} {} ns/event regressed {:.1}% (> {:.0}% budget)",
                if warn_only { "warning" } else { "FAIL" },
                row.sensors,
                row.mode_label(),
                rel * 100.0,
                FAIL_BUDGET * 100.0
            );
            failed = true;
        } else if rel > 0.0 {
            eprintln!(
                "warning: {} {} ns/event up {:.1}% (within the {:.0}% budget)",
                row.sensors,
                row.mode_label(),
                rel * 100.0,
                FAIL_BUDGET * 100.0
            );
            warned = true;
        }
    }

    // Advisory speedup check (machine-independent ratio).
    let ev_s = |sensors: usize, mode: &str| {
        rows.iter()
            .find(|r| r.sensors == sensors && r.mode_label() == mode)
            .map_or(0.0, |r| r.events_per_sec())
    };
    if let (Some(rt), Some(rl)) = (
        committed_row(scale, 1_000.0, "ticked")
            .and_then(|r| r.get("events_per_sec"))
            .and_then(Json::as_f64),
        committed_row(scale, 1_000.0, "lazy")
            .and_then(|r| r.get("events_per_sec"))
            .and_then(Json::as_f64),
    ) {
        let ref_speedup = rl / rt;
        let now_speedup = ev_s(1_000, "lazy") / ev_s(1_000, "ticked").max(1e-9);
        if now_speedup < 0.5 * ref_speedup {
            eprintln!(
                "warning: lazy/ticked speedup collapsed to {now_speedup:.2}x \
                 (committed {ref_speedup:.2}x) — lazy mobility may have regressed"
            );
            warned = true;
        }
    }

    if failed {
        if warn_only {
            eprintln!("scale_check: regressions over budget (ignored: --warn-only)");
        } else {
            eprintln!(
                "scale_check: FAILED — ns/event regressed beyond the {:.0}% budget; \
                 if this machine legitimately differs from the baseline's, re-run with \
                 --warn-only or refresh BENCH_engine.json via `perf_baseline --scale`",
                FAIL_BUDGET * 100.0
            );
            std::process::exit(1);
        }
    } else if !warned {
        say(format_args!(
            "scale_check: within tolerance of the committed baseline"
        ));
    }
}
