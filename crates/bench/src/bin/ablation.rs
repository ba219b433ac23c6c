//! Abl-1: toggles each Sec. 4 optimization independently on the default
//! 3-sink scenario, quantifying what adaptive tau_max, the adaptive
//! contention window, and Eq. 6 sleeping each contribute.
//!
//! Usage: `cargo run --release -p dftmsn-bench --bin ablation [--quick] ...`

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{ablation, write_table, ExperimentOpts};

fn main() {
    let opts = ExperimentOpts::from_args();
    eprintln!(
        "ablation: 6 configurations x {} seeds @ {} s",
        opts.seeds, opts.duration_secs
    );
    for table in ablation(&opts) {
        println!("{}", write_table("results", "ablation", &table));
    }
}
