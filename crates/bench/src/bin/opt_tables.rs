//! Regenerates the Sec. 4 analytic optimization tables (Opt-1/2/3): the
//! Eq. 12 RTS collision probabilities, the Eq. 14 CTS collision
//! probabilities, and the Eq. 6 sleeping-period surface. Pure math — no
//! simulation.

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{optimization_tables, write_table};

fn main() {
    let tables = optimization_tables();
    let slugs = [
        "opt1_rts_collisions",
        "opt2_cts_collisions",
        "opt3_sleep_surface",
    ];
    for (table, slug) in tables.iter().zip(slugs) {
        println!("{}", write_table("results", slug, table));
    }
}
