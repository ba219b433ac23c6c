//! Fault-path invalidation audit of the ticked-mode contact cache.
//!
//! The cache memoizes neighbour *supersets* keyed by a worst-case-drift
//! validity window; crash/recover and link-drop faults mutate liveness and
//! the medium but deliberately not the cached geometry, because liveness
//! is filtered downstream of the neighbour query and drop coins are
//! flipped at reception time. This suite is the proof: runs with the
//! cache disabled — every query takes the exact uncached path — must be
//! bit-identical to cached runs under every fault family. A divergence
//! here means a fault handler left stale geometry (not stale liveness)
//! behind, i.e. a real invalidation bug.

use dftmsn::core::variants::ProtocolKind;
use dftmsn::prelude::*;

fn scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(20)
        .with_sinks(2)
        .with_duration_secs(600)
}

fn run(kind: ProtocolKind, seed: u64, plan: &FaultPlan, cached: bool) -> SimReport {
    Simulation::builder(scenario(), kind)
        .seed(seed)
        .mobility_mode(MobilityMode::Ticked)
        .faults(plan.clone())
        .contact_cache(cached)
        .build()
        .run()
}

#[test]
fn crash_recover_plans_are_cache_invariant() {
    let plan = FaultPlan::node_failures(&scenario(), 0.4, Some(120.0), 21);
    for seed in [1, 42] {
        let cached = run(ProtocolKind::Opt, seed, &plan, true);
        assert!(cached.faults.crashes > 0, "plan injected nothing");
        assert!(cached.faults.recoveries > 0, "no recovery exercised");
        let uncached = run(ProtocolKind::Opt, seed, &plan, false);
        assert!(
            uncached.snap_bytes() == cached.snap_bytes(),
            "seed {seed}: crash/recover run depends on the contact cache"
        );
    }
}

#[test]
fn permanent_crash_plans_are_cache_invariant() {
    let plan = FaultPlan::node_failures(&scenario(), 0.3, None, 33);
    let cached = run(ProtocolKind::Epidemic, 7, &plan, true);
    assert!(cached.faults.crashes > 0);
    let uncached = run(ProtocolKind::Epidemic, 7, &plan, false);
    assert!(
        uncached.snap_bytes() == cached.snap_bytes(),
        "permanent-crash run depends on the contact cache"
    );
}

#[test]
fn link_drop_plans_are_cache_invariant() {
    let mut plan = FaultPlan::uniform_link_degradation(0.25);
    // Pile a targeted degradation and a later global easing on top, so
    // both the per-pair table and the global knob flip mid-run.
    plan.push(
        200.0,
        FaultKind::LinkDegrade {
            a: dftmsn::radio::ids::NodeId(0),
            b: dftmsn::radio::ids::NodeId(1),
            drop_prob: 0.9,
        },
    );
    plan.push(400.0, FaultKind::GlobalLinkDegrade { drop_prob: 0.05 });
    let cached = run(ProtocolKind::Opt, 13, &plan, true);
    assert!(cached.faults.frames_dropped > 0, "no drops injected");
    let uncached = run(ProtocolKind::Opt, 13, &plan, false);
    assert!(
        uncached.snap_bytes() == cached.snap_bytes(),
        "link-drop run depends on the contact cache"
    );
}

#[test]
fn quiet_runs_are_cache_invariant_too() {
    // Baseline sanity: with no faults at all, the knob is invisible.
    let plan = FaultPlan::default();
    let cached = run(ProtocolKind::Opt, 99, &plan, true);
    let uncached = run(ProtocolKind::Opt, 99, &plan, false);
    assert!(
        uncached.snap_bytes() == cached.snap_bytes(),
        "quiet run depends on the contact cache"
    );
}
