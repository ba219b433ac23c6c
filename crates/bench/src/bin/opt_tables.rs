//! Regenerates the Sec. 4 analytic optimization tables (Opt-1/2/3): the
//! Eq. 12 RTS collision probabilities, the Eq. 14 CTS collision
//! probabilities, and the Eq. 6 sleeping-period surface. Pure math — no
//! simulation.

#![forbid(unsafe_code)]

use dftmsn_bench::experiments::{exit_status, optimization_tables, publish};
use std::process::ExitCode;

fn main() -> ExitCode {
    let tables = optimization_tables();
    let slugs = [
        "opt1_rts_collisions",
        "opt2_cts_collisions",
        "opt3_sleep_surface",
    ];
    exit_status(
        tables
            .iter()
            .zip(slugs)
            .try_for_each(|(table, slug)| publish(slug, table)),
    )
}
