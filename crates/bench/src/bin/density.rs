//! Regenerates the Sec. 5 node-density study (Prose-A): the paper reports
//! that as density increases, near-sink nodes become bottlenecks and the
//! delivery ratio falls.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin density [--quick] ...`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{density, exit_status, publish, ExperimentOpts};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ExperimentOpts::from_args();
    eprintln!(
        "density: sensors {{50..250}} x 4 variants x {} seeds @ {} s",
        opts.seeds, opts.duration_secs
    );
    let tables = density(&opts);
    let slugs = [
        "density_delivery_ratio",
        "density_power",
        "density_delay",
        "density_collisions",
        "density_overhead",
    ];
    exit_status(
        tables
            .iter()
            .zip(slugs)
            .try_for_each(|(table, slug)| publish(slug, table)),
    )
}
