//! Frozen determinism baseline for the engine hot-path overhaul.
//!
//! The slab event queue, the incremental spatial index, and the
//! zero-allocation protocol cycle are all pure performance work: they must
//! not change a single simulation outcome. These goldens were first
//! recorded as 8 headline counters from the engine BEFORE those changes
//! (seed commit 3c150d5: BinaryHeap + HashSet queue, full grid rebuild per
//! mobility tick, per-cycle allocations, with only the offline dependency
//! shims applied) on a pinned scenario. Once every run was confirmed to
//! still reproduce those counters, each was re-pinned as its whole-report
//! digest (`golden::digest`), which every variant must keep reproducing
//! bit-for-bit.
//!
//! If a future change alters protocol *behaviour* on purpose, it must
//! re-record these digests with
//! `cargo test --test determinism_baseline -- --ignored --nocapture` and
//! say so in its change notes; a mismatch from a performance change is a
//! bug in that change.

mod golden;

use dftmsn::core::variants::ProtocolKind;
use dftmsn::prelude::*;

/// The pinned workload: 20 sensors, 2 sinks, 2 000 s, paper defaults.
fn pinned_scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(20)
        .with_sinks(2)
        .with_duration_secs(2000)
}

/// Whole-report digest of each variant × seed on the pinned workload.
const GOLDENS: [(ProtocolKind, u64, u64); 12] = [
    (ProtocolKind::Opt, 1, 0x50c55f29d617ddc2),
    (ProtocolKind::Opt, 42, 0x650da89a6fee60d1),
    (ProtocolKind::NoOpt, 1, 0xf8548adac3a380d2),
    (ProtocolKind::NoOpt, 42, 0xbb18c211da8d4afd),
    (ProtocolKind::NoSleep, 1, 0x9c5dea418cb799f6),
    (ProtocolKind::NoSleep, 42, 0x680f6fd1b809a47d),
    (ProtocolKind::Zbr, 1, 0xfe02ab284ade87fd),
    (ProtocolKind::Zbr, 42, 0x34786435152ad1a7),
    (ProtocolKind::Direct, 1, 0x3eff879790c7ceff),
    (ProtocolKind::Direct, 42, 0x5c8c8af2d7206820),
    (ProtocolKind::Epidemic, 1, 0x74e7fee1ba4de54d),
    (ProtocolKind::Epidemic, 42, 0x5dc61c6cb9997742),
];

fn run(kind: ProtocolKind, seed: u64) -> SimReport {
    Simulation::builder(pinned_scenario(), kind)
        .seed(seed)
        .build()
        .run()
}

#[test]
fn all_variants_reproduce_the_pre_overhaul_counters() {
    for (kind, seed, want) in GOLDENS {
        golden::assert_digest(
            &run(kind, seed),
            want,
            &format!("{kind} seed {seed}: engine outcome drifted from the recorded baseline"),
        );
    }
}

/// Re-records `GOLDENS`; run with `-- --ignored --nocapture`.
#[test]
#[ignore = "generator: prints the digest table for re-recording"]
fn print_goldens() {
    for (kind, seed, _) in GOLDENS {
        let digest = golden::digest(&run(kind, seed));
        println!("    (ProtocolKind::{kind:?}, {seed}, {digest:#018x}),");
    }
}
