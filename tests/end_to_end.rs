//! End-to-end integration tests: whole simulations across all five
//! crates, checking global invariants and the qualitative behaviours the
//! paper reports.

use dftmsn::prelude::*;

fn small(sensors: usize, sinks: usize, secs: u64) -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(sensors)
        .with_sinks(sinks)
        .with_duration_secs(secs)
}

#[test]
fn report_invariants_hold_for_every_variant() {
    for kind in ProtocolKind::ALL {
        let r = Simulation::builder(small(15, 2, 600), kind)
            .seed(1)
            .build()
            .run();
        assert!(r.delivered <= r.generated, "{kind}: delivered > generated");
        assert!(
            r.sink_receptions >= r.delivered,
            "{kind}: fewer receptions than unique deliveries"
        );
        assert!(r.delivery_ratio() <= 1.0);
        assert!(r.mean_delay_secs >= 0.0);
        assert!(r.mean_delay_secs <= r.duration_secs);
        assert!(r.total_sensor_energy_j > 0.0, "{kind}: no energy consumed");
        // Power can never exceed continuous transmit power.
        assert!(
            r.avg_sensor_power_mw <= 24.75 + 1.0,
            "{kind}: impossible power {}",
            r.avg_sensor_power_mw
        );
        assert!(r.copies_sent >= r.multicasts, "{kind}: copies < multicasts");
        assert!(
            (0.0..=1.0).contains(&r.mean_final_xi),
            "{kind}: ξ out of range"
        );
    }
}

#[test]
fn identical_seeds_reproduce_bitwise() {
    for kind in [ProtocolKind::Opt, ProtocolKind::Zbr] {
        let a = Simulation::builder(small(20, 2, 800), kind)
            .seed(99)
            .build()
            .run();
        let b = Simulation::builder(small(20, 2, 800), kind)
            .seed(99)
            .build()
            .run();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.sink_receptions, b.sink_receptions);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.collisions, b.collisions);
        assert_eq!(a.attempts, b.attempts);
        assert!((a.total_sensor_energy_j - b.total_sensor_energy_j).abs() < 1e-9);
        assert!((a.mean_delay_secs - b.mean_delay_secs).abs() < 1e-9);
    }
}

#[test]
fn more_sinks_deliver_more() {
    // The paper's headline trend (Fig. 2a): averaged over a few seeds to
    // damp run-to-run noise.
    let ratio = |sinks: usize| -> f64 {
        (0..3)
            .map(|seed| {
                Simulation::builder(small(40, sinks, 2_000), ProtocolKind::Opt)
                    .seed(seed)
                    .build()
                    .run()
                    .delivery_ratio()
            })
            .sum::<f64>()
            / 3.0
    };
    let one = ratio(1);
    let six = ratio(6);
    assert!(
        six > one,
        "6 sinks should beat 1 sink: {six:.3} vs {one:.3}"
    );
}

#[test]
fn nosleep_power_approximates_idle_listening() {
    let r = Simulation::builder(small(15, 2, 600), ProtocolKind::NoSleep)
        .seed(4)
        .build()
        .run();
    // Idle listening is 13.5 mW; transmissions push the average a bit up,
    // receptions keep it equal. Expect within [13, 16] mW.
    assert!(
        (13.0..16.0).contains(&r.avg_sensor_power_mw),
        "NOSLEEP power {} mW",
        r.avg_sensor_power_mw
    );
}

#[test]
fn sleeping_variants_use_far_less_energy() {
    let opt = Simulation::builder(small(15, 2, 600), ProtocolKind::Opt)
        .seed(4)
        .build()
        .run();
    let nosleep = Simulation::builder(small(15, 2, 600), ProtocolKind::NoSleep)
        .seed(4)
        .build()
        .run();
    assert!(opt.avg_sensor_power_mw < nosleep.avg_sensor_power_mw / 3.0);
}

#[test]
fn direct_sends_single_copies_only() {
    let r = Simulation::builder(small(20, 3, 1_000), ProtocolKind::Direct)
        .seed(5)
        .build()
        .run();
    // Every DIRECT multicast targets exactly one receiver (a sink).
    assert_eq!(r.copies_sent, r.multicasts);
    // And every acknowledged copy went to a sink.
    assert!(r.sink_receptions >= r.multicasts);
}

#[test]
fn zbr_transfers_rather_than_replicates() {
    let r = Simulation::builder(small(20, 3, 1_000), ProtocolKind::Zbr)
        .seed(5)
        .build()
        .run();
    assert_eq!(r.copies_sent, r.multicasts, "ZBR moves single copies");
}

#[test]
fn traffic_scales_with_sensors_and_interval() {
    let light = Simulation::builder(small(10, 1, 2_000), ProtocolKind::Opt)
        .seed(6)
        .build()
        .run();
    let heavy = Simulation::builder(small(40, 1, 2_000), ProtocolKind::Opt)
        .seed(6)
        .build()
        .run();
    // 4x the sensors → roughly 4x the traffic (Poisson, generous margins).
    let scale = heavy.generated as f64 / light.generated.max(1) as f64;
    assert!(
        (2.0..8.0).contains(&scale),
        "expected ~4x traffic, got {scale:.2}x"
    );
}

#[test]
fn control_overhead_is_nonzero_but_bounded() {
    let r = Simulation::builder(small(25, 2, 1_500), ProtocolKind::Opt)
        .seed(7)
        .build()
        .run();
    assert!(r.control_bits > 0);
    assert!(r.data_bits > 0);
    // Control packets are 50 bits vs 1000-bit data; even with handshakes
    // and failed attempts the byte overhead stays within sane bounds.
    assert!(
        r.control_overhead() < 50.0,
        "overhead {} looks runaway",
        r.control_overhead()
    );
}

#[test]
fn delays_are_within_simulation_horizon() {
    let r = Simulation::builder(small(25, 3, 2_000), ProtocolKind::Opt)
        .seed(8)
        .build()
        .run();
    if r.delivered > 0 {
        assert!(r.mean_delay_secs < 2_000.0);
        assert!(r.p95_delay_secs <= 2_000.0 + 1.0);
    }
}

#[test]
fn custom_protocol_params_are_respected() {
    use dftmsn::core::params::ProtocolParams;
    let mut protocol = ProtocolParams::paper_default();
    protocol.delivery_threshold_r = 0.5;
    let config = ProtocolKind::Opt.config();
    let r = dftmsn::core::world::Simulation::builder(small(15, 2, 600), config)
        .protocol(protocol)
        .seed(9)
        .build()
        .run();
    assert!(r.generated > 0);
}

#[test]
fn trace_shows_the_two_phase_handshake() {
    use dftmsn::core::trace::{SharedTrace, TraceEvent};

    let trace = SharedTrace::new();
    let mut params = small(10, 1, 800);
    // Dense single cell so exchanges certainly happen.
    params.area_width_m = 20.0;
    params.area_height_m = 20.0;
    params.zone_cols = 1;
    params.zone_rows = 1;
    let sim = Simulation::builder(params, ProtocolKind::Opt)
        .seed(10)
        .trace(trace.clone())
        .build();
    let report = sim.run();
    assert!(report.multicasts > 0, "no exchanges to trace");

    let tags = trace.sent_tags();
    // Every successful exchange shows the Sec. 3.2 sequence somewhere:
    // PRE → RTS → CTS → SCHD → DATA → ACK.
    let mut expected = ["PRE", "RTS", "CTS", "SCHD", "DATA", "ACK"].iter();
    let mut next = expected.next();
    for tag in &tags {
        if let Some(want) = next {
            if tag == want {
                next = expected.next();
            }
        }
    }
    assert!(
        next.is_none(),
        "handshake sequence incomplete; saw {tags:?}"
    );

    // Deliveries recorded in the trace match the report.
    let traced_deliveries = trace
        .snapshot()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Delivered { .. }))
        .count() as u64;
    assert_eq!(traced_deliveries, report.delivered);

    // A preamble precedes every RTS.
    let mut pre_seen = 0u64;
    for tag in &tags {
        match *tag {
            "PRE" => pre_seen += 1,
            "RTS" => assert!(pre_seen > 0, "RTS without a preceding preamble"),
            _ => {}
        }
    }
}

#[test]
fn energy_breakdown_sums_to_total() {
    let r = Simulation::builder(small(15, 2, 600), ProtocolKind::Opt)
        .seed(12)
        .build()
        .run();
    let by_state: f64 = r.energy_by_state_j.iter().sum();
    // Total = per-state + switch costs, so by-state is a lower bound that
    // covers almost everything.
    assert!(by_state <= r.total_sensor_energy_j + 1e-9);
    assert!(
        by_state > 0.5 * r.total_sensor_energy_j,
        "per-state {by_state} vs total {}",
        r.total_sensor_energy_j
    );
    // Idle listening dominates a sleeping protocol's awake budget.
    assert!(r.energy_by_state_j[1] > r.energy_by_state_j[3]);
    for n in &r.node_summaries {
        let node_sum: f64 = n.energy_by_state_j.iter().sum();
        assert!(node_sum <= n.energy_j + 1e-9);
    }
}

#[test]
#[should_panic(expected = "invalid scenario")]
fn invalid_scenario_is_rejected() {
    let mut params = small(10, 1, 100);
    params.sinks = 0;
    let _ = Simulation::builder(params, ProtocolKind::Opt)
        .seed(1)
        .build();
}

#[test]
fn hop_counts_are_sane_and_direct_is_single_hop() {
    // Every delivery needs at least one handover, and multi-hop chains
    // stay short in the paper's geometry. DIRECT is exactly one hop by
    // construction. (The paper's "fewer hops with more sinks" effect is
    // muted here because home-returning mobility makes self-carry the
    // dominant path — see EXPERIMENTS.md's Fig. 2(b) note.)
    let r = Simulation::builder(small(40, 3, 3_000), ProtocolKind::Opt)
        .seed(17)
        .build()
        .run();
    assert!(r.delivered > 10);
    for d in &r.deliveries {
        assert!(d.hops >= 1, "a delivery needs at least one handover");
    }
    assert!(
        (1.0..4.0).contains(&r.mean_hops),
        "mean hops {} out of the plausible band",
        r.mean_hops
    );

    let direct = Simulation::builder(small(40, 3, 3_000), ProtocolKind::Direct)
        .seed(17)
        .build()
        .run();
    assert!(direct.delivered > 10);
    assert!(
        direct.deliveries.iter().all(|d| d.hops == 1),
        "DIRECT must hand straight to a sink"
    );
}
