//! Abl-1: toggles each Sec. 4 optimization independently on the default
//! 3-sink scenario, quantifying what adaptive tau_max, the adaptive
//! contention window, and Eq. 6 sleeping each contribute.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin ablation [--quick] ...`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{ablation, exit_status, publish, ExperimentOpts};
use dftmsn_bench::note;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ExperimentOpts::from_args();
    note!(
        "ablation: 6 configurations x {} seeds @ {} s",
        opts.seeds,
        opts.duration_secs
    );
    exit_status(
        ablation(&opts)
            .iter()
            .try_for_each(|table| publish("ablation", table)),
    )
}
