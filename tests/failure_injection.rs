//! Failure-injection and edge-case scenarios: starve the protocol of
//! resources, contacts or peers and confirm it degrades gracefully
//! instead of wedging or panicking.

use dftmsn::core::params::ProtocolParams;
use dftmsn::prelude::*;

fn base(secs: u64) -> ScenarioParams {
    ScenarioParams::paper_default().with_duration_secs(secs)
}

#[test]
fn lone_sensor_still_delivers_by_carrying() {
    // One sensor, one sink, small area: the only path is self-carry.
    let mut p = base(3_000).with_sensors(1).with_sinks(1);
    p.area_width_m = 40.0;
    p.area_height_m = 40.0;
    p.zone_cols = 2;
    p.zone_rows = 2;
    let r = Simulation::builder(p, ProtocolKind::Opt)
        .seed(1)
        .build()
        .run();
    assert!(r.generated > 0);
    assert!(
        r.delivered > 0,
        "direct contact delivery failed: {}",
        r.summary()
    );
}

#[test]
fn stationary_out_of_range_sensors_deliver_nothing() {
    // Zero speed pins every sensor inside its home zone spawn point; with
    // a huge area the odds of spawning within 10 m of a sink are nil.
    let mut p = base(2_000).with_sensors(10).with_sinks(1);
    p.speed_min_mps = 0.0;
    p.speed_max_mps = 0.0;
    p.area_width_m = 2_000.0;
    p.area_height_m = 2_000.0;
    let r = Simulation::builder(p, ProtocolKind::Opt)
        .seed(2)
        .build()
        .run();
    assert!(r.generated > 0);
    assert_eq!(r.delivered, 0, "physically impossible delivery happened");
    assert_eq!(r.multicasts, 0);
}

#[test]
fn tiny_queues_survive_overload() {
    let mut p = base(2_000).with_sensors(20).with_sinks(1);
    p.queue_capacity = 2;
    p.data_interval_secs = 10.0; // 12x the default load
    let r = Simulation::builder(p, ProtocolKind::Opt)
        .seed(3)
        .build()
        .run();
    assert!(r.generated > 0);
    assert!(
        r.drops_overflow + r.drops_rejected > 0,
        "overload must overflow a 2-slot queue"
    );
    assert!(r.delivered <= r.generated);
}

#[test]
fn saturating_traffic_does_not_wedge_the_mac() {
    let mut p = base(1_000).with_sensors(30).with_sinks(2);
    p.data_interval_secs = 5.0;
    for kind in [ProtocolKind::Opt, ProtocolKind::Epidemic] {
        let r = Simulation::builder(p.clone(), kind).seed(4).build().run();
        assert!(r.attempts > 0, "{kind}: MAC went silent under load");
        assert!(r.frames_sent > 0);
    }
}

#[test]
fn single_zone_grid_works() {
    let mut p = base(1_500).with_sensors(10).with_sinks(1);
    p.zone_cols = 1;
    p.zone_rows = 1;
    p.area_width_m = 60.0;
    p.area_height_m = 60.0;
    let r = Simulation::builder(p, ProtocolKind::Opt)
        .seed(5)
        .build()
        .run();
    assert!(r.delivered > 0, "dense single-zone world should deliver");
}

#[test]
fn dense_cell_heavy_contention_stays_live() {
    // Everyone within everyone's range: maximum contention for the
    // asynchronous phase.
    let mut p = base(1_000).with_sensors(25).with_sinks(1);
    p.area_width_m = 15.0;
    p.area_height_m = 15.0;
    p.zone_cols = 1;
    p.zone_rows = 1;
    let r = Simulation::builder(p, ProtocolKind::NoSleep)
        .seed(6)
        .build()
        .run();
    assert!(
        r.delivered > 0,
        "contention wedged the channel: {}",
        r.summary()
    );
    assert!(r.collisions > 0, "a 25-node cell must collide sometimes");
}

#[test]
fn extreme_protocol_constants_do_not_panic() {
    let scenarios = [
        // Always-drop threshold: every relayed copy purges after Eq. 3.
        ProtocolParams::paper_default().with_ftd_drop_threshold(0.0),
        // Never select more than forced: R = 0 stops at the first receiver.
        ProtocolParams::paper_default().with_delivery_threshold_r(0.0),
        // Paranoid redundancy: R = 1 takes every qualified receiver.
        ProtocolParams::paper_default().with_delivery_threshold_r(1.0),
        // Hyperactive ξ decay.
        ProtocolParams::paper_default()
            .with_xi_timeout_secs(1.0)
            .with_alpha(1.0),
    ];
    for protocol in scenarios {
        let r = dftmsn::core::world::Simulation::builder(
            base(500).with_sensors(12).with_sinks(1),
            ProtocolKind::Opt.config(),
        )
        .protocol(protocol)
        .seed(7)
        .build()
        .run();
        assert!(r.generated > 0);
    }
}

#[test]
fn zero_min_speed_and_equal_speed_bounds_work() {
    let mut p = base(800).with_sensors(10).with_sinks(1);
    p.speed_min_mps = 3.0;
    p.speed_max_mps = 3.0;
    let r = Simulation::builder(p, ProtocolKind::Opt)
        .seed(8)
        .build()
        .run();
    assert!(r.generated > 0);
}

#[test]
fn crash_heavy_sparse_fleet_degrades_gracefully() {
    // Crash a third of a sparse fleet: crash/recovery state machines must
    // leave the run's accounting sane — graceful degradation, not just
    // absence of panics.
    let mut p = base(600).with_sensors(200).with_sinks(2);
    p.area_width_m = 300.0;
    p.area_height_m = 300.0;
    p.zone_cols = 10;
    p.zone_rows = 10;
    p.data_interval_secs = 240.0;
    let plan = FaultPlan::node_failures(&p, 0.33, Some(120.0), 11);
    let r = Simulation::builder(p, ProtocolKind::Opt)
        .seed(10)
        .faults(plan)
        .build()
        .run();
    assert!(r.faults.crashes > 0, "plan injected nothing");
    assert!(
        r.generated > 0 && r.delivered <= r.generated,
        "faulted run lost accounting sanity: {}",
        r.summary()
    );
}

#[test]
fn long_idle_network_sleeps_instead_of_spinning() {
    // Almost no traffic: nodes should spend the run asleep, not burning
    // events. Power must approach the sleep floor, far below idle.
    let mut p = base(2_000).with_sensors(10).with_sinks(1);
    p.data_interval_secs = 100_000.0; // effectively no data
    let r = Simulation::builder(p, ProtocolKind::Opt)
        .seed(9)
        .build()
        .run();
    assert!(
        r.avg_sensor_power_mw < 3.0,
        "idle network burns {} mW",
        r.avg_sensor_power_mw
    );
}
