//! Regenerates the Sec. 5 nodal-speed study (Prose-B): delivery ratios
//! rise and delays fall with speed; OPT's transmission overhead decreases.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin speed [--quick] ...`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{exit_status, publish, speed, ExperimentOpts};
use dftmsn_bench::note;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ExperimentOpts::from_args();
    note!(
        "speed: v_max {{1..10}} m/s x 4 variants x {} seeds @ {} s",
        opts.seeds,
        opts.duration_secs
    );
    let tables = speed(&opts);
    let slugs = [
        "speed_delivery_ratio",
        "speed_power",
        "speed_delay",
        "speed_collisions",
        "speed_overhead",
    ];
    exit_status(
        tables
            .iter()
            .zip(slugs)
            .try_for_each(|(table, slug)| publish(slug, table)),
    )
}
