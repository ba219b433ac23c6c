//! Regenerates the Sec. 5 nodal-speed study (Prose-B): delivery ratios
//! rise and delays fall with speed; OPT's transmission overhead decreases.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin speed [--quick] ...`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{speed, write_table, ExperimentOpts};

fn main() {
    let opts = ExperimentOpts::from_args();
    eprintln!(
        "speed: v_max {{1..10}} m/s x 4 variants x {} seeds @ {} s",
        opts.seeds, opts.duration_secs
    );
    let tables = speed(&opts);
    let slugs = [
        "speed_delivery_ratio",
        "speed_power",
        "speed_delay",
        "speed_collisions",
        "speed_overhead",
    ];
    for (table, slug) in tables.iter().zip(slugs) {
        println!("{}", write_table("results", slug, table));
    }
}
