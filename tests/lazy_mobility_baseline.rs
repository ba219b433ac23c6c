//! Golden baseline for [`MobilityMode::Lazy`].
//!
//! Lazy mobility samples the same trajectory distributions as the default
//! `Ticked` mode but consumes randomness from per-node streams in
//! on-demand spans, so its outcomes are *not* bit-identical to `Ticked` —
//! they re-baseline here instead. Two properties are frozen:
//!
//! 1. **Determinism**: every variant × seed reproduces the whole-report
//!    digest (`golden::digest`) of the run recorded when the mode first
//!    landed (pinned then as 8 headline counters, which still hold), and
//!    running twice yields identical reports.
//! 2. **No perturbation**: requesting `Ticked` explicitly is bit-identical
//!    to the builder default, i.e. the mode plumbing itself changes
//!    nothing (the 12-golden `determinism_baseline` covers the default
//!    path's absolute values).
//!
//! To re-record after an intentional behaviour change, run
//! `cargo test --test lazy_mobility_baseline -- --ignored --nocapture`
//! and paste the printed table over `GOLDENS`.

mod golden;

use dftmsn::core::variants::ProtocolKind;
use dftmsn::core::MobilityMode;
use dftmsn::prelude::*;

/// The same pinned workload as `determinism_baseline`: 20 sensors, 2
/// sinks, 2 000 s, paper defaults.
fn pinned_scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(20)
        .with_sinks(2)
        .with_duration_secs(2000)
}

const VARIANTS: [ProtocolKind; 6] = [
    ProtocolKind::Opt,
    ProtocolKind::NoOpt,
    ProtocolKind::NoSleep,
    ProtocolKind::Zbr,
    ProtocolKind::Direct,
    ProtocolKind::Epidemic,
];

/// Whole-report digest of each variant × seed in lazy mode.
const GOLDENS: [(ProtocolKind, u64, u64); 12] = [
    (ProtocolKind::Opt, 1, 0xa8dc03003be350fe),
    (ProtocolKind::Opt, 42, 0x8ac7db2ed4e8cb5f),
    (ProtocolKind::NoOpt, 1, 0x5a421224329c657e),
    (ProtocolKind::NoOpt, 42, 0xdf37cfb0eb7aed2b),
    (ProtocolKind::NoSleep, 1, 0x19bae67af4b51c92),
    (ProtocolKind::NoSleep, 42, 0xcde7469def2f3b26),
    (ProtocolKind::Zbr, 1, 0x2edb112da6ee612b),
    (ProtocolKind::Zbr, 42, 0xfc5fdb1d18d75ac4),
    (ProtocolKind::Direct, 1, 0xad58d5911f726861),
    (ProtocolKind::Direct, 42, 0x488107f572eccee5),
    (ProtocolKind::Epidemic, 1, 0x8f9f7815b19b9453),
    (ProtocolKind::Epidemic, 42, 0x335851f5a3d37cdd),
];

fn run(kind: ProtocolKind, seed: u64, mode: MobilityMode) -> SimReport {
    Simulation::builder(pinned_scenario(), kind)
        .seed(seed)
        .mobility_mode(mode)
        .build()
        .run()
}

#[test]
fn all_variants_reproduce_the_lazy_baseline() {
    for (kind, seed, want) in GOLDENS {
        golden::assert_digest(
            &run(kind, seed, MobilityMode::Lazy),
            want,
            &format!("{kind} seed {seed}: lazy-mode outcome drifted from the recorded baseline"),
        );
    }
}

#[test]
fn lazy_runs_are_deterministic_per_seed() {
    for kind in VARIANTS {
        let a = run(kind, 7, MobilityMode::Lazy);
        let b = run(kind, 7, MobilityMode::Lazy);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{kind}: two lazy runs with one seed diverged"
        );
    }
}

#[test]
fn explicit_ticked_mode_is_the_unperturbed_default() {
    for kind in VARIANTS {
        let explicit = run(kind, 42, MobilityMode::Ticked);
        let default = Simulation::builder(pinned_scenario(), kind)
            .seed(42)
            .build()
            .run();
        assert_eq!(
            format!("{explicit:?}"),
            format!("{default:?}"),
            "{kind}: asking for Ticked explicitly perturbed the default path"
        );
    }
}

#[test]
fn lazy_delivers_comparable_traffic() {
    // Sanity floor, not a golden: the lazy trajectories are distribution-
    // equal to ticked ones, so OPT must still deliver a solid majority of
    // what it generates on the pinned scenario.
    let r = run(ProtocolKind::Opt, 1, MobilityMode::Lazy);
    assert!(r.generated > 200, "generated only {}", r.generated);
    let ratio = r.delivered as f64 / r.generated as f64;
    assert!(
        ratio > 0.4,
        "lazy OPT delivery ratio collapsed to {ratio:.2}"
    );
}

/// Re-records `GOLDENS`; run with `-- --ignored --nocapture`.
#[test]
#[ignore = "generator: prints the digest table for re-recording"]
fn print_lazy_goldens() {
    for (kind, seed, _) in GOLDENS {
        let digest = golden::digest(&run(kind, seed, MobilityMode::Lazy));
        println!("    (ProtocolKind::{kind:?}, {seed}, {digest:#018x}),");
    }
}
