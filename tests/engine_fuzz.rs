//! Randomized stress tests of the whole engine: small simulations over
//! arbitrary (valid) scenario corners, in either mobility mode, must never
//! panic, wedge, or violate the global accounting invariants.

use dftmsn::prelude::*;
use proptest::prelude::*;

fn kind_from(ix: u8) -> ProtocolKind {
    ProtocolKind::ALL[ix as usize % ProtocolKind::ALL.len()]
}

fn mode_from(lazy: bool) -> MobilityMode {
    if lazy {
        MobilityMode::Lazy
    } else {
        MobilityMode::Ticked
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, // each case is a full (small) simulation
    })]

    #[test]
    fn random_scenarios_hold_global_invariants(
        seed in any::<u64>(),
        kind_ix in any::<u8>(),
        lazy in any::<bool>(),
        sensors in 2usize..20,
        sinks in 1usize..4,
        area in 20.0f64..250.0,
        zones in 1usize..6,
        vmax in 0.5f64..8.0,
        queue_cap in 1usize..50,
        interval in 10.0f64..200.0,
    ) {
        let mut params = ScenarioParams::paper_default()
            .with_sensors(sensors)
            .with_sinks(sinks)
            .with_max_speed(vmax)
            .with_duration_secs(150);
        params.area_width_m = area;
        params.area_height_m = area;
        params.zone_cols = zones;
        params.zone_rows = zones;
        params.queue_capacity = queue_cap;
        params.data_interval_secs = interval;
        prop_assert!(params.validate().is_ok());

        let kind = kind_from(kind_ix);
        let report = Simulation::builder(params, kind)
            .seed(seed)
            .mobility_mode(mode_from(lazy))
            .build()
            .run();

        // Accounting invariants that must hold for ANY run.
        prop_assert!(report.delivered <= report.generated);
        prop_assert!(report.sink_receptions >= report.delivered);
        prop_assert!(report.copies_sent >= report.multicasts);
        prop_assert!(report.multicasts <= report.attempts);
        prop_assert!(report.mean_delay_secs >= 0.0);
        prop_assert!(report.mean_delay_secs <= report.duration_secs + 1.0);
        prop_assert!(report.total_sensor_energy_j >= 0.0);
        prop_assert!(report.avg_sensor_power_mw <= 26.0, "over transmit power");
        prop_assert!((0.0..=1.0).contains(&report.mean_final_xi));
        prop_assert_eq!(report.deliveries.len() as u64, report.delivered);
        for d in &report.deliveries {
            prop_assert!(d.hops >= 1);
            prop_assert!(d.delay_secs >= 0.0);
            prop_assert!(d.created_secs <= report.duration_secs);
        }
        for n in &report.node_summaries {
            prop_assert!(n.queue_len <= queue_cap);
            prop_assert!(n.energy_j >= 0.0);
            prop_assert!((0.0..=1.0).contains(&n.final_metric));
        }
        // Per-state energy never exceeds the total.
        let by_state: f64 = report.energy_by_state_j.iter().sum();
        prop_assert!(by_state <= report.total_sensor_energy_j + 1e-9);
    }

    #[test]
    fn random_scenarios_are_deterministic(
        seed in any::<u64>(),
        kind_ix in any::<u8>(),
        lazy in any::<bool>(),
        sensors in 2usize..15,
    ) {
        let params = ScenarioParams::paper_default()
            .with_sensors(sensors)
            .with_sinks(1)
            .with_duration_secs(120);
        let kind = kind_from(kind_ix);
        let run = || {
            Simulation::builder(params.clone(), kind)
                .seed(seed)
                .mobility_mode(mode_from(lazy))
                .build()
                .run()
        };
        prop_assert!(run().snap_bytes() == run().snap_bytes(), "{kind} {:?}", mode_from(lazy));
    }
}
