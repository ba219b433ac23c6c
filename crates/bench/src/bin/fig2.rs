//! Regenerates Fig. 2(a–c): impact of the number of sink nodes on the
//! delivery ratio, the average nodal power consumption rate, and the
//! average delivery delay, for OPT / NOSLEEP / NOOPT / ZBR.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin fig2 [--quick]
//! [--seeds N] [--duration SECS] [--threads N]`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{exit_status, fig2, publish, ExperimentOpts};
use dftmsn_bench::note;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ExperimentOpts::from_args();
    note!(
        "fig2: sinks 1..=10 x {{OPT,NOSLEEP,NOOPT,ZBR}} x {} seeds @ {} s",
        opts.seeds,
        opts.duration_secs
    );
    let tables = fig2(&opts);
    let slugs = [
        "fig2a_delivery_ratio",
        "fig2b_power",
        "fig2c_delay",
        "fig2x_collisions",
        "fig2x_overhead",
    ];
    exit_status(
        tables
            .iter()
            .zip(slugs)
            .try_for_each(|(table, slug)| publish(slug, table)),
    )
}
