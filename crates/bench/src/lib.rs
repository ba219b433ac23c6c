//! # dftmsn-bench — experiment harness for the DFT-MSN reproduction
//!
//! Regenerates every table and figure of the paper's evaluation
//! (DESIGN.md §3 maps experiment ids to binaries):
//!
//! | binary | experiment |
//! |---|---|
//! | `fig2` | Fig. 2(a–c): delivery ratio / power / delay vs #sinks |
//! | `density` | Prose-A: node-density sweep |
//! | `speed` | Prose-B: nodal-speed sweep |
//! | `opt_tables` | Opt-1/2/3: Sec. 4 analytic optimization tables |
//! | `ablation` | Abl-1: per-optimization ablation |
//! | `sensitivity`, `buffer` | calibrated constants and queue capacity |
//! | `fault_sweep`, `adversary_sweep` | delivery under failures and adversaries |
//! | `policy_search` | per-policy grid over the tunable constants |
//! | `perf_baseline` | tracked engine/sweep/scale throughput baseline |
//! | `scale_check` | failing scale-tier regression gate vs `BENCH_engine.json` |
//! | `api_surface` | public-API snapshot check against `API_SURFACE.txt` |
//!
//! The experiment binaries accept `--quick` (short runs), `--seeds N`,
//! `--duration SECS` and `--threads N` (plus `--fresh` for the two
//! resumable sweeps and `--observe` for `fault_sweep`), and exit 2 with a
//! usage line on any other argument. They write text + CSV tables under
//! `results/` and the text to standard output; a failed write of either
//! exits 3 with one `error:` line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod scale;
pub mod sweep;

pub use experiments::ExperimentOpts;
pub use scale::{scale_scenario, ScaleRow, SCALE_SENSORS};
pub use sweep::{average, run_all, Averaged, RunSpec};
