//! Visualize the delivery-probability gradient (Eq. 1) that routing
//! climbs: run OPT, average each sensor's final ξ by home zone, and draw
//! the zone grid as a heatmap. Sinks sit at zones 4, 12 and 20 of the
//! 5×5 grid — the bright cells should cluster around them.

use dftmsn::metrics::viz::{heatmap, sparkline};
use dftmsn::prelude::*;

fn main() {
    let params = ScenarioParams::paper_default().with_duration_secs(8_000);
    let zones = params.zone_cols * params.zone_rows;
    println!(
        "running OPT: {} sensors, {} sinks, {} s...",
        params.sensors, params.sinks, params.duration_secs
    );
    let report = Simulation::builder(params.clone(), ProtocolKind::Opt)
        .seed(21)
        .build()
        .run();
    println!("{}\n", report.summary());

    // Average final ξ per home zone. Sensor i's home zone is i mod the
    // zone count: the rule `Simulation` applies when it builds each
    // sensor's `ZoneMobility` (`construct_static` in `crates/core/src/world.rs`).
    let mut sums = vec![0.0f64; zones];
    let mut counts = vec![0u32; zones];
    for n in &report.node_summaries {
        let z = n.id.0 % zones;
        sums[z] += n.final_metric;
        counts[z] += 1;
    }
    let means: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| if c > 0 { s / f64::from(c) } else { 0.0 })
        .collect();

    println!("mean final ξ by home zone (brighter = higher; sinks at zones 4, 12, 20):");
    println!("{}", heatmap(&means, params.zone_cols));

    // Delay distribution.
    let buckets: Vec<f64> = (0..report.delay_hist.buckets())
        .map(|i| report.delay_hist.bucket_count(i) as f64)
        .collect();
    println!(
        "delivery-delay distribution (0 … {} s):",
        report.duration_secs
    );
    println!("{}\n", sparkline(&buckets));

    // Energy spread across sensors.
    let mut energies: Vec<f64> = report.node_summaries.iter().map(|n| n.energy_j).collect();
    energies.sort_by(|a, b| a.partial_cmp(b).expect("finite energy"));
    println!("per-sensor energy, sorted (J):");
    println!("{}", sparkline(&energies));
    println!(
        "min {:.1} J, median {:.1} J, max {:.1} J — relays near sinks work hardest",
        energies.first().copied().unwrap_or(0.0),
        energies[energies.len() / 2],
        energies.last().copied().unwrap_or(0.0),
    );
}
