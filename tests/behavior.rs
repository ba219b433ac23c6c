//! End-to-end adversarial-behavior tests (PR 10): quiet-run bit-identity,
//! seed determinism, stacked behavior+fault plans, policy coverage, and
//! the network-lifetime report block.

use dftmsn::core::behavior::{self, NodeBehavior};
use dftmsn::prelude::*;

fn scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(16)
        .with_sinks(2)
        .with_duration_secs(800)
}

fn run_with(plan: FaultPlan, seed: u64) -> SimReport {
    Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(seed)
        .faults(plan)
        .build()
        .run()
}

#[test]
fn explicit_all_honest_spec_is_bit_identical_to_a_plain_run() {
    let plain = Simulation::builder(scenario(), ProtocolKind::Opt)
        .seed(7)
        .build()
        .run();
    let spec = behavior::parse_spec("none", &scenario(), 7).unwrap();
    assert!(spec.is_empty());
    let quiet = run_with(spec, 7);
    assert!(
        plain.snap_bytes() == quiet.snap_bytes(),
        "an all-honest spec changed the run"
    );
}

#[test]
fn adversarial_runs_are_seed_deterministic() {
    let plan = behavior::parse_spec("selfish=0.25", &scenario(), 7).unwrap();
    let a = run_with(plan.clone(), 7);
    let b = run_with(plan, 7);
    assert!(
        a.snap_bytes() == b.snap_bytes(),
        "the same seed and spec must reproduce the whole report"
    );
    assert_eq!(a.faults.behavior_changes, 4, "25% of 16 sensors");
}

#[test]
fn each_adversary_class_drives_its_own_counters() {
    // Blackholes accept-and-drop: captures, no forgeries. Probed under
    // EPIDEMIC — promiscuous forwarding feeds them copies; under OPT the
    // ξ ranking naturally starves a silent blackhole (its honest CTS
    // advertises a decayed ξ), which is the protocol's defense working.
    let r = Simulation::builder(scenario(), ProtocolKind::Epidemic)
        .seed(7)
        .faults(behavior::takeover(
            &scenario(),
            0.25,
            NodeBehavior::Blackhole,
            0.0,
            7,
        ))
        .build()
        .run();
    assert!(r.faults.copies_captured > 0, "{:?}", r.faults);
    assert_eq!(r.faults.forged_frames, 0);
    assert_eq!(r.faults.lied_advertisements, 0);

    // Liars advertise inflated ξ/FTD to attract copies.
    let r = run_with(
        behavior::takeover(&scenario(), 0.25, NodeBehavior::Liar, 0.0, 7),
        7,
    );
    assert!(r.faults.lied_advertisements > 0, "{:?}", r.faults);
    assert!(r.faults.copies_captured > 0, "{:?}", r.faults);

    // Forgers emit fake frames; receivers detect corrupted relays.
    let r = run_with(
        behavior::takeover(&scenario(), 0.25, NodeBehavior::Forger, 0.0, 7),
        7,
    );
    assert!(r.faults.forged_frames > 0, "{:?}", r.faults);
}

#[test]
fn adversaries_degrade_delivery() {
    // Across a few seeds, a 50% blackhole population must never beat the
    // honest population's aggregate deliveries.
    let mut honest_total = 0;
    let mut attacked_total = 0;
    for seed in [1, 7, 23] {
        let quiet = Simulation::builder(scenario(), ProtocolKind::Opt)
            .seed(seed)
            .build()
            .run();
        let attacked = run_with(
            behavior::takeover(&scenario(), 0.5, NodeBehavior::Blackhole, 0.0, seed),
            seed,
        );
        honest_total += quiet.delivered;
        attacked_total += attacked.delivered;
    }
    assert!(
        attacked_total < honest_total,
        "blackholes should hurt: {attacked_total} vs {honest_total}"
    );
}

#[test]
fn selfish_then_crash_stacks_cleanly() {
    // S3: the same node turns selfish, then crashes, then recovers — the
    // behavior must survive the crash (conduct is orthogonal to liveness).
    let mut plan = behavior::takeover(&scenario(), 0.25, NodeBehavior::Selfish, 0.0, 7);
    let victim = match plan.events[0].kind {
        FaultKind::BehaviorChange { node, .. } => node,
        ref k => panic!("unexpected kind {k:?}"),
    };
    let mut rest = FaultPlan::default();
    rest.push(200.0, FaultKind::NodeCrash(victim));
    rest.push(400.0, FaultKind::NodeRecover(victim));
    plan.extend(rest);
    plan.validate(&scenario()).unwrap();
    let a = run_with(plan.clone(), 7);
    let b = run_with(plan, 7);
    assert!(
        a.snap_bytes() == b.snap_bytes(),
        "selfish-then-crash diverged"
    );
    assert_eq!(a.faults.crashes, 1);
    assert_eq!(a.faults.recoveries, 1);
    assert_eq!(a.faults.behavior_changes, 4);
}

#[test]
fn liar_under_link_drop_stays_deterministic() {
    // S3: a lying node whose frames also drop exercises the fault RNG and
    // the behavior interceptions on the same path.
    let mut plan = behavior::takeover(&scenario(), 0.25, NodeBehavior::Liar, 0.0, 7);
    plan.extend(FaultPlan::uniform_link_degradation(0.3));
    plan.validate(&scenario()).unwrap();
    let a = run_with(plan.clone(), 7);
    let b = run_with(plan, 7);
    assert!(
        a.snap_bytes() == b.snap_bytes(),
        "liar under link drop diverged"
    );
    assert!(a.faults.frames_dropped > 0);
}

#[test]
fn behavior_change_lands_on_a_dead_node_without_desync() {
    // S3: the node is already crashed when the behavior change fires; the
    // debug-assert liveness mirror must stay in sync and the behavior must
    // apply once the node recovers.
    let s = scenario();
    let mut plan = FaultPlan::default();
    plan.push(50.0, FaultKind::NodeCrash(dftmsn::radio::ids::NodeId(3)));
    plan.push(
        100.0,
        FaultKind::BehaviorChange {
            node: dftmsn::radio::ids::NodeId(3),
            behavior: NodeBehavior::Blackhole,
        },
    );
    plan.push(300.0, FaultKind::NodeRecover(dftmsn::radio::ids::NodeId(3)));
    plan.validate(&s).unwrap();
    let a = run_with(plan.clone(), 7);
    let b = run_with(plan, 7);
    assert!(
        a.snap_bytes() == b.snap_bytes(),
        "dead-node behavior change diverged"
    );
    assert_eq!(a.faults.behavior_changes, 1);
    assert_eq!(a.faults.recoveries, 1);
}

#[test]
fn every_policy_faces_the_same_adversaries() {
    // The interceptions live at the MAC frame path and the policy decision
    // seam, so TwoHop and MeetingRate see the same 25% selfish set as the
    // builtin rules — and each stays seed-deterministic.
    let plan = behavior::parse_spec("selfish=0.25", &scenario(), 7).unwrap();
    for label in ["twohop", "meetrate"] {
        let spec = PolicySpec::parse(label).unwrap();
        let run = |()| {
            Simulation::builder(scenario(), ProtocolKind::Opt)
                .seed(7)
                .policy(spec)
                .faults(plan.clone())
                .build()
                .run()
        };
        let a = run(());
        let b = run(());
        assert!(
            a.snap_bytes() == b.snap_bytes(),
            "{label}: not seed-deterministic"
        );
        assert_eq!(a.faults.behavior_changes, 4, "{label}");
    }
}

#[test]
fn lifetime_block_tracks_node_deaths() {
    let s = scenario();
    let quiet = Simulation::builder(s.clone(), ProtocolKind::Opt)
        .seed(7)
        .build()
        .run();
    assert_eq!(quiet.lifetime.first_death_secs, None);
    assert_eq!(quiet.lifetime.alive_at_end, s.sensors as u64);

    // Crash half the population permanently: FND and HND must anchor, LND
    // stays open (half the network survives), and the census drops.
    let plan = FaultPlan::node_failures(&s, 0.5, None, 7);
    let r = run_with(plan, 7);
    let fnd = r.lifetime.first_death_secs.expect("FND");
    let hnd = r.lifetime.half_death_secs.expect("HND");
    assert!(fnd <= hnd, "{fnd} vs {hnd}");
    assert_eq!(r.lifetime.last_death_secs, None);
    assert_eq!(r.lifetime.alive_at_end, (s.sensors / 2) as u64);

    // Kill everyone: LND anchors too.
    let plan = FaultPlan::node_failures(&s, 1.0, None, 7);
    let r = run_with(plan, 7);
    assert!(r.lifetime.last_death_secs.is_some());
    assert_eq!(r.lifetime.alive_at_end, 0);
}

#[test]
fn behaviors_ride_checkpoints_via_the_fault_plan() {
    // The BehaviorChange FaultKind must survive the checkpoint fault-plan
    // codec: encode a plan into a spec string, re-parse, and compare.
    let plan = behavior::parse_spec("selfish=0.1;liar=0.1@200", &scenario(), 7).unwrap();
    let reparsed = FaultPlan::parse(&plan.format_spec(), &scenario(), 7).unwrap();
    assert_eq!(plan, reparsed);
}
