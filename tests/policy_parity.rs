//! Policy parity and competitor-policy golden baselines.
//!
//! Three guarantees for the forwarding policies a run names through
//! `PolicySpec`:
//!
//! 1. **Builtin parity** — the six builtin variants run under every
//!    builder's default policy, `PolicySpec::Builtin`, and reproduce the
//!    runs recorded before policies were separated from the engine: the 24
//!    engine goldens of `determinism_baseline` and `lazy_mobility_baseline`
//!    pin that. Here each builtin variant is checked to be
//!    seed-deterministic, in both mobility modes and under fault
//!    injection.
//! 2. **Competitor goldens** — the two-hop relay and the meeting-rate
//!    policy reproduce pinned whole-report digests on the same
//!    20-sensor/2-sink/2 000 s workload as `determinism_baseline`, so
//!    policy regressions surface exactly like engine regressions.
//! 3. **Checkpoint round-trip** — a parameterized (non-default) policy
//!    survives `checkpoint_bytes` → `resume_from_bytes` bit-identically,
//!    parameters and estimator state included.

mod golden;

use dftmsn::core::variants::ProtocolKind;
use dftmsn::prelude::*;

/// The pinned workload shared with `determinism_baseline`.
fn pinned_scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(20)
        .with_sinks(2)
        .with_duration_secs(2000)
}

/// Smaller workload for the 6 × 2 parity sweep and the faulted runs.
fn parity_scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(16)
        .with_sinks(2)
        .with_duration_secs(600)
}

// ---------------------------------------------------------------------------
// 1. Builtin variants under the default policy spec.
// ---------------------------------------------------------------------------

#[test]
fn builtin_variants_are_seed_deterministic_in_both_modes() {
    for kind in ProtocolKind::ALL {
        for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
            let run = || {
                Simulation::builder(parity_scenario(), kind)
                    .seed(9)
                    .mobility_mode(mode)
                    .build()
                    .run()
            };
            assert!(
                run().snap_bytes() == run().snap_bytes(),
                "{kind} {mode:?}: two runs of one seed differ"
            );
        }
    }
}

#[test]
fn builtin_variants_are_seed_deterministic_under_faults() {
    let plan = FaultPlan::parse(
        "crash=0.25;linkdrop=0.1;corrupt=0.05",
        &parity_scenario(),
        7,
    )
    .expect("valid fault plan");
    for kind in ProtocolKind::ALL {
        let run = || {
            Simulation::builder(parity_scenario(), kind)
                .seed(11)
                .faults(plan.clone())
                .build()
                .run()
        };
        assert!(
            run().snap_bytes() == run().snap_bytes(),
            "{kind} faulted: two runs of one seed differ"
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Competitor-policy golden baselines.
// ---------------------------------------------------------------------------

/// Whole-report digests (`golden::digest`) of the runs whose 8 headline
/// counters were pinned when the policies first landed (pinned scenario,
/// default parameters: TwoHop budget 4; MeetingRate horizon 600 s,
/// debounce 5 s, β 0.3). Regenerate with
/// `cargo test --test policy_parity print_policy_goldens -- --ignored --nocapture`
/// and say so in the change notes if a PR alters them on purpose.
const POLICY_GOLDENS: [(&str, u64, u64); 4] = [
    ("TWOHOP", 1, 0x828cdd0b8548c2df),
    ("TWOHOP", 42, 0x7cd7ba75fbc589f4),
    ("MEETRATE", 1, 0x0d22b68ce5a84ab3),
    ("MEETRATE", 42, 0x5a63f8637de6aaf5),
];

fn spec_for(label: &str) -> PolicySpec {
    match label {
        "TWOHOP" => PolicySpec::parse("twohop").unwrap(),
        "MEETRATE" => PolicySpec::parse("meetrate").unwrap(),
        other => panic!("unknown policy label {other}"),
    }
}

fn observed_policy(label: &str, seed: u64) -> SimReport {
    Simulation::builder(pinned_scenario(), ProtocolKind::Opt)
        .seed(seed)
        .policy(spec_for(label))
        .build()
        .run()
}

#[test]
fn competitor_policies_reproduce_their_goldens() {
    for (label, seed, want) in POLICY_GOLDENS {
        let r = observed_policy(label, seed);
        assert_eq!(r.protocol, label, "report must carry the policy label");
        assert!(r.delivered > 0, "{label} seed {seed}: delivered nothing");
        golden::assert_digest(
            &r,
            want,
            &format!("{label} seed {seed}: policy outcome drifted from the recorded baseline"),
        );
    }
}

#[test]
fn competitor_policies_are_deterministic_per_seed() {
    for label in ["TWOHOP", "MEETRATE"] {
        let a = observed_policy(label, 5);
        let b = observed_policy(label, 5);
        assert!(
            a.snap_bytes() == b.snap_bytes(),
            "{label}: same seed must reproduce bit-identically"
        );
    }
}

/// Regeneration helper for `POLICY_GOLDENS` (ignored; run explicitly).
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn print_policy_goldens() {
    for (label, seed, _) in POLICY_GOLDENS {
        let digest = golden::digest(&observed_policy(label, seed));
        println!("    (\"{label}\", {seed}, {digest:#018x}),");
    }
}

// ---------------------------------------------------------------------------
// 3. Checkpoint round-trip of parameterized policies.
// ---------------------------------------------------------------------------

fn check_policy_roundtrip(spec: PolicySpec, seed: u64, fraction: f64) {
    let label = format!("{spec:?} seed {seed} ckpt@{fraction:.2}");
    let scenario = parity_scenario();

    let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(seed)
        .policy(spec)
        .build()
        .run();

    let mut part = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(seed)
        .policy(spec)
        .build();
    let t_ckpt = fraction * scenario.duration_secs as f64;
    while part.now().as_secs_f64() < t_ckpt {
        if !part.step() {
            break;
        }
    }
    let bytes = part.checkpoint_bytes();
    drop(part);

    let (resumed_sim, _) =
        Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: resume: {e}"));
    assert_eq!(
        resumed_sim.policy_spec(),
        spec,
        "{label}: resume lost the policy parameters"
    );
    assert!(
        resumed_sim.run().snap_bytes() == full.snap_bytes(),
        "{label}: the resumed report differs from the uninterrupted run's"
    );
}

#[test]
fn twohop_checkpoint_roundtrips_with_custom_budget() {
    for fraction in [0.2, 0.6] {
        check_policy_roundtrip(PolicySpec::TwoHop { budget: 3 }, 13, fraction);
    }
}

#[test]
fn meetrate_checkpoint_roundtrips_with_custom_estimator() {
    let spec = PolicySpec::MeetingRate {
        horizon_secs: 300.0,
        debounce_secs: 4.0,
        beta: 0.5,
    };
    for fraction in [0.25, 0.7] {
        check_policy_roundtrip(spec, 17, fraction);
    }
}

#[test]
fn builtin_checkpoint_roundtrips_through_the_policy_frame() {
    check_policy_roundtrip(PolicySpec::Builtin, 19, 0.4);
}

#[test]
fn policy_spec_survives_the_builder() {
    let sim = Simulation::builder(parity_scenario(), ProtocolKind::Opt)
        .seed(1)
        .policy(PolicySpec::TwoHop { budget: 7 })
        .build();
    assert_eq!(sim.policy_spec(), PolicySpec::TwoHop { budget: 7 });
}
