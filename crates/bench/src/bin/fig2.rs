//! Regenerates Fig. 2(a–c): impact of the number of sink nodes on the
//! delivery ratio, the average nodal power consumption rate, and the
//! average delivery delay, for OPT / NOSLEEP / NOOPT / ZBR.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin fig2 [--quick]
//! [--seeds N] [--duration SECS] [--threads N]`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{fig2, write_table, ExperimentOpts};

fn main() {
    let opts = ExperimentOpts::from_args();
    eprintln!(
        "fig2: sinks 1..=10 x {{OPT,NOSLEEP,NOOPT,ZBR}} x {} seeds @ {} s",
        opts.seeds, opts.duration_secs
    );
    let tables = fig2(&opts);
    let slugs = [
        "fig2a_delivery_ratio",
        "fig2b_power",
        "fig2c_delay",
        "fig2x_collisions",
        "fig2x_overhead",
    ];
    for (table, slug) in tables.iter().zip(slugs) {
        println!("{}", write_table("results", slug, table));
    }
}
