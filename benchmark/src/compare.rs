//! `--compare BASE NEW`: every (workload, end-to-end metric) pair of two
//! result files, with a verdict against the metric's bound.

use crate::stats::spread;
use crate::END_TO_END;
use dftmsn_metrics::json::Json;
use std::path::Path;
use std::process::ExitCode;

/// A metric's reported value and the repetition samples behind it.
type Measured = (f64, Vec<f64>);

/// Judges `new` against `base` for a lower-is-better metric. Returns the
/// relative change of the values and the verdict. When either side's
/// repetitions spread wider than `bound`, the change cannot be resolved
/// unless every new sample beats every base sample.
pub(crate) fn verdict(base: &Measured, new: &Measured, bound: f64) -> (f64, &'static str) {
    let delta = (new.0 - base.0) / base.0;
    let (base, new) = (&base.1, &new.1);
    let widest = spread(base).max(spread(new));
    let verdict = if widest > bound {
        let best_base = base.iter().copied().fold(f64::INFINITY, f64::min);
        if new.iter().all(|&x| x < best_base) {
            "better"
        } else {
            "unresolved"
        }
    } else if delta > bound {
        "worse"
    } else if delta < -bound {
        "better"
    } else {
        "unchanged"
    };
    (delta, verdict)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced results of a result file, by workload.
fn untraced(file: &Json) -> Vec<(&str, &Json)> {
    let results = file.get("results").and_then(Json::as_array).unwrap_or(&[]);
    results
        .iter()
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| Some((r.get("workload")?.as_str()?, r)))
        .collect()
}

fn measured(result: &Json, metric: &str) -> Option<Measured> {
    let m = result
        .get("metrics")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?;
    let samples: Option<Vec<f64>> = m
        .get("samples")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect();
    Some((m.get("value")?.as_f64()?, samples?))
}

pub(crate) fn run(base_path: &Path, new_path: &Path) -> ExitCode {
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for key in ["seed", "quick"] {
        if base.get(key) != new.get(key) {
            eprintln!("warning: the files differ in '{key}'; their numbers may not be comparable");
        }
    }
    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "delta", "bound"
    );
    // Worse metrics, workloads or metrics NEW lacks, and NEW's failed checks.
    let mut bad = 0;
    let base = untraced(&base);
    if base.is_empty() {
        println!("{} holds no untraced result", base_path.display());
        bad += 1;
    }
    let new = untraced(&new);
    for (workload, b) in base {
        let Some(&(_, n)) = new.iter().find(|(w, _)| *w == workload) else {
            println!("{workload:<13} absent from {}", new_path.display());
            bad += 1;
            continue;
        };
        let failed = n.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        if failed != 0.0 {
            println!(
                "{workload:<13} {failed} failed check(s) in {}",
                new_path.display()
            );
            bad += 1;
        }
        for (metric, _, bound) in END_TO_END {
            let (Some(bm), Some(nm)) = (measured(b, metric), measured(n, metric)) else {
                println!("{workload:<13} {metric:<12} missing on one side");
                bad += 1;
                continue;
            };
            let (delta, v) = verdict(&bm, &nm, bound);
            bad += usize::from(v == "worse");
            println!(
                "{workload:<13} {metric:<12} {:>12.6} {:>12.6} {:>+7.1}% {:>5.0}%  {v}",
                bm.0,
                nm.0,
                delta * 100.0,
                bound * 100.0
            );
        }
    }
    if bad > 0 {
        println!("{bad} problem(s): worse than the bound, missing, or failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::{verdict, Measured};
    use crate::stats::median;

    fn m(samples: &[f64]) -> Measured {
        (median(samples), samples.to_vec())
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = m(&[1.00, 1.01, 0.99]);
        assert_eq!(verdict(&base, &m(&[1.02, 1.03, 1.01]), 0.1).1, "unchanged");
        assert_eq!(verdict(&base, &m(&[1.2, 1.21, 1.19]), 0.1).1, "worse");
        assert_eq!(verdict(&base, &m(&[0.8, 0.81, 0.79]), 0.1).1, "better");
        // Repetitions wider than the bound leave the change unresolved...
        let noisy = m(&[0.7, 1.0, 1.3, 1.0]);
        assert_eq!(verdict(&noisy, &m(&[1.5, 1.6, 1.4]), 0.1).1, "unresolved");
        // ...unless every new sample beats every base sample.
        assert_eq!(verdict(&noisy, &m(&[0.5, 0.6, 0.4]), 0.1).1, "better");
        // The reported value, not the samples' median, is compared.
        let (delta, _) = verdict(&(2.0, vec![2.0]), &(3.0, vec![9.0]), 0.1);
        assert!((delta - 0.5).abs() < 1e-12);
    }
}
