//! End-to-end fault-injection behavior through the public facade: an empty
//! plan is a perfect no-op, a non-empty plan is deterministic per seed, and
//! each fault class shows up in the counters it claims to drive.

use dftmsn::prelude::*;

fn scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(16)
        .with_sinks(2)
        .with_duration_secs(800)
}

#[test]
fn empty_plan_is_bit_identical_to_a_plain_run() {
    for kind in [ProtocolKind::Opt, ProtocolKind::Zbr, ProtocolKind::Epidemic] {
        let plain = Simulation::builder(scenario(), kind).seed(7).build().run();
        let with_plan = Simulation::builder(scenario(), kind)
            .seed(7)
            .faults(FaultPlan::default())
            .build()
            .run();
        assert!(
            plain.snap_bytes() == with_plan.snap_bytes(),
            "{kind}: an empty plan changed the run"
        );
        assert!(!with_plan.faults.any(), "{kind}: quiet run counted faults");
    }
}

#[test]
fn same_seed_and_plan_reproduce_the_same_report() {
    let plan = FaultPlan::parse("crash=0.25;linkdrop=0.1", &scenario(), 7).unwrap();
    let a = Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(7)
        .faults(plan.clone())
        .build()
        .run();
    let b = Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(7)
        .faults(plan)
        .build()
        .run();
    assert!(
        a.snap_bytes() == b.snap_bytes(),
        "the same seed and plan must reproduce the whole report"
    );
}

#[test]
fn crashes_register_in_the_fault_counters() {
    let plan = FaultPlan::parse("crash=0.5", &scenario(), 7).unwrap();
    let r = Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(7)
        .faults(plan)
        .build()
        .run();
    assert_eq!(r.faults.crashes, 8, "half of 16 sensors");
    assert_eq!(r.faults.battery_deaths, 8);
    assert_eq!(r.faults.recoveries, 0);
}

#[test]
fn total_link_loss_delivers_nothing() {
    let plan = FaultPlan::parse("linkdrop=1.0", &scenario(), 7).unwrap();
    let r = Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(7)
        .faults(plan)
        .build()
        .run();
    assert_eq!(r.delivered, 0);
    assert!(r.generated > 0, "sensing itself must continue");
    assert!(r.faults.frames_dropped > 0);
}

#[test]
fn total_corruption_blocks_data_but_leaves_control_alive() {
    let plan = FaultPlan::parse("corrupt=1.0", &scenario(), 7).unwrap();
    let r = Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(7)
        .faults(plan)
        .build()
        .run();
    assert_eq!(r.delivered, 0, "no DATA frame survives");
    assert!(r.faults.data_corrupted > 0);
    assert!(
        r.frames_sent > 0,
        "RTS/CTS handshakes still run under corruption"
    );
}

#[test]
fn faults_degrade_but_rarely_destroy_delivery() {
    let quiet = Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(7)
        .build()
        .run();
    let plan = FaultPlan::parse("crash=0.3", &scenario(), 7).unwrap();
    let faulty = Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(7)
        .faults(plan)
        .build()
        .run();
    assert!(
        faulty.delivery_ratio() <= quiet.delivery_ratio() + 0.05,
        "losing 30% of sensors should not help: {} vs {}",
        faulty.delivery_ratio(),
        quiet.delivery_ratio()
    );
    assert!(
        faulty.faults.deliveries_despite_faults > 0,
        "the surviving network still delivers"
    );
}
