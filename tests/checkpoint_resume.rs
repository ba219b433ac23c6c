//! Checkpoint/resume determinism sweep: snapshotting a run at a random
//! event boundary and resuming from the bytes must reproduce the
//! uninterrupted run *exactly* — the whole report as `SimReport::snap_bytes`
//! encodes it (every counter, every f64 bit, every per-node summary and
//! delivery record) and every byte of the windowed observe JSONL stream —
//! for every protocol variant, across seeds, under both the ticked and
//! lazy mobility engines.
//!
//! The checkpoint instant is drawn from a seeded [`SimRng`] per
//! combination, so the suite probes a spread of boundaries (early,
//! mid-run, late) while staying fully reproducible. If a future change
//! legitimately alters simulation outcomes, this suite stays green — it
//! only compares a resumed run against its own uninterrupted twin; a
//! failure here always means resume lost or invented state.

mod golden;

use dftmsn::core::variants::ProtocolKind;
use dftmsn::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Shared byte sink for capturing the observe stream from both the
/// original and the resumed recorder.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A small but busy pinned workload: large enough that hundreds of MAC
/// cycles, queue evictions and sleep adaptations happen before and after
/// any checkpoint boundary, small enough to sweep 24 combinations in a
/// debug test run.
fn scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(16)
        .with_sinks(2)
        .with_duration_secs(600)
}

const OBSERVE_WINDOW_SECS: f64 = 50.0;

/// Asserts that a resumed run reports exactly what its uninterrupted twin
/// does: the whole report, byte for byte.
fn assert_same_report(resumed: &SimReport, full: &SimReport, label: &str) {
    assert!(
        resumed.snap_bytes() == full.snap_bytes(),
        "{label}: the resumed report differs from the uninterrupted run's"
    );
}

fn build(
    kind: ProtocolKind,
    seed: u64,
    mode: MobilityMode,
    out: SharedBuf,
) -> (Simulation, MetricsRecorder) {
    let recorder = MetricsRecorder::new(OBSERVE_WINDOW_SECS)
        .streaming_only()
        .with_output(Box::new(out));
    let sim = Simulation::builder(scenario(), kind)
        .seed(seed)
        .mobility_mode(mode)
        .observe(recorder.clone())
        .build();
    (sim, recorder)
}

/// Runs one (variant, seed, mode) combination: uninterrupted twin vs.
/// checkpoint-at-`fraction`-of-the-run + resume, comparing reports and
/// observe streams bit-for-bit.
fn check_combo(kind: ProtocolKind, seed: u64, mode: MobilityMode, fraction: f64) {
    let label = format!("{kind:?} seed {seed} {mode:?} ckpt@{fraction:.3}");

    // The uninterrupted twin.
    let full_buf = SharedBuf::default();
    let (full_sim, _) = build(kind, seed, mode, full_buf.clone());
    let full = full_sim.run();

    // The interrupted run: step to the first event boundary at or past
    // the checkpoint instant, snapshot, and drop it.
    let part_buf = SharedBuf::default();
    let (mut part_sim, part_rec) = build(kind, seed, mode, part_buf.clone());
    let t_ckpt = fraction * scenario().duration_secs as f64;
    while part_sim.now().as_secs_f64() < t_ckpt {
        if !part_sim.step() {
            break;
        }
    }
    let bytes = part_sim.checkpoint_bytes();
    let cursor = part_rec.bytes_written() as usize;
    let head = part_buf.contents()[..cursor].to_vec();
    drop(part_sim);

    // Resume from the bytes and finish the run.
    let (resumed_sim, resumed_rec) =
        Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: resume: {e}"));
    let tail_buf = SharedBuf::default();
    let resumed_rec = resumed_rec
        .unwrap_or_else(|| panic!("{label}: checkpoint lost the observer"))
        .with_output(Box::new(tail_buf.clone()));
    let _ = &resumed_rec;
    let resumed = resumed_sim.run();

    assert_same_report(&resumed, &full, &label);

    // The observe stream: checkpointed prefix + resumed suffix must be
    // byte-identical to the uninterrupted stream.
    let mut stitched = head;
    stitched.extend_from_slice(&tail_buf.contents());
    assert_eq!(
        stitched,
        full_buf.contents(),
        "{label}: observe stream not byte-identical"
    );
}

/// Draws a per-combination checkpoint fraction in [0.15, 0.85) from a
/// seeded RNG, so boundaries vary across the sweep but never between CI
/// runs.
fn fraction_for(rng: &mut SimRng) -> f64 {
    rng.gen_range_f64(0.15, 0.85)
}

#[test]
fn every_variant_resumes_bit_identically_under_ticked_mobility() {
    let mut rng = SimRng::seed_from(0xC4EC_0001);
    for kind in ProtocolKind::ALL {
        let fraction = fraction_for(&mut rng);
        check_combo(kind, 1, MobilityMode::Ticked, fraction);
    }
}

#[test]
fn every_variant_resumes_bit_identically_under_lazy_mobility() {
    let mut rng = SimRng::seed_from(0xC4EC_0002);
    for kind in ProtocolKind::ALL {
        let fraction = fraction_for(&mut rng);
        check_combo(kind, 1, MobilityMode::Lazy, fraction);
    }
}

#[test]
fn second_seed_resumes_bit_identically_in_both_modes() {
    let mut rng = SimRng::seed_from(0xC4EC_0003);
    for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
        for kind in [ProtocolKind::Opt, ProtocolKind::Zbr, ProtocolKind::Epidemic] {
            let fraction = fraction_for(&mut rng);
            check_combo(kind, 42, mode, fraction);
        }
    }
}

/// Golden `dftmsn-ckpt/2` fixture: a mid-run snapshot (OPT, 16 sensors,
/// 2 sinks, 800 s, seed 7, checkpointed at the first event boundary past
/// 450 s) committed under `tests/fixtures/`. Resuming it must still work
/// on every future build of this workspace — this is the format-stability
/// contract of the snapshot layout.
///
/// The continuation is pinned by its whole-report digest
/// (`golden::digest`), recorded once the run was confirmed to still
/// reproduce the 8 headline counters, event count and mean-delay bits it
/// was first pinned to. If a change intentionally alters either the
/// checkpoint format or protocol behaviour, regenerate the fixture and
/// this digest, and say so in the change notes:
///
/// ```text
/// cargo run -p dftmsn-cli -- run --protocol OPT --sensors 16 --sinks 2 \
///     --duration 800 --seed 7 \
///     --checkpoint tests/fixtures/golden-opt-seed7.ckpt --checkpoint-every 450
/// ```
///
/// (the run completes; the file keeps the last periodic snapshot), then
/// print the digest with
/// `cargo test --test checkpoint_resume -- --ignored --nocapture`.
#[test]
fn committed_golden_fixture_still_resumes() {
    let resumed = resume_fixture();
    assert!(!resumed.from_backup, "fixture resumed from a .bak?");
    let sim = resumed.sim;
    let t = sim.now().as_secs_f64();
    assert!(
        (450.0..=500.0).contains(&t),
        "fixture should snapshot just past 450 s, got {t}"
    );
    golden::assert_digest(
        &sim.run(),
        FIXTURE_DIGEST,
        "fixture continuation diverged from its recorded golden",
    );
}

/// Whole-report digest of the committed fixture's continuation.
const FIXTURE_DIGEST: u64 = 0x7ff9b641f8445c5c;

fn resume_fixture() -> Resumed {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden-opt-seed7.ckpt");
    Simulation::resume(&path).expect("golden fixture must decode on every build")
}

/// Re-records `FIXTURE_DIGEST`; run with `-- --ignored --nocapture`.
#[test]
#[ignore = "generator: prints the fixture digest for re-recording"]
fn print_fixture_digest() {
    let digest = golden::digest(&resume_fixture().sim.run());
    println!("const FIXTURE_DIGEST: u64 = {digest:#018x};");
}

#[test]
fn faulted_runs_resume_bit_identically() {
    // Faults exercise the fault-plan cursor, the fault RNG stream and the
    // crash/recovery state machines across the checkpoint boundary.
    let scenario = scenario();
    let plan = FaultPlan::node_failures(&scenario, 0.3, Some(120.0), 9);
    for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
        let label = format!("faulted OPT {mode:?}");

        let full_sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .mobility_mode(mode)
            .faults(plan.clone())
            .build();
        let full = full_sim.run();
        assert!(full.faults.crashes > 0, "{label}: plan injected nothing");

        let mut part_sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .mobility_mode(mode)
            .faults(plan.clone())
            .build();
        while part_sim.now().as_secs_f64() < 300.0 {
            if !part_sim.step() {
                break;
            }
        }
        let bytes = part_sim.checkpoint_bytes();
        let (resumed_sim, _) =
            Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        let resumed = resumed_sim.run();
        assert_same_report(&resumed, &full, &label);
    }
}

#[test]
fn adversarial_runs_resume_bit_identically() {
    // Behavior changes ride the fault plan; the checkpoint must restore
    // the per-node behavior table, the behavioral counters, and the
    // lifetime anchors so the resumed run is bit-identical — including a
    // behavior whose onset (selfish@400)
    // lies *beyond* the checkpoint instant, so it fires post-resume.
    let scenario = scenario();
    let mut plan =
        dftmsn::core::behavior::parse_spec("liar=0.2;selfish=0.2@400", &scenario, 5).unwrap();
    plan.extend(FaultPlan::node_failures(&scenario, 0.2, Some(120.0), 9));
    for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
        let label = format!("adversarial OPT {mode:?}");

        let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .mobility_mode(mode)
            .faults(plan.clone())
            .build()
            .run();
        assert!(
            full.faults.behavior_changes > 0 && full.faults.crashes > 0,
            "{label}: plan injected nothing"
        );

        let mut part_sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .mobility_mode(mode)
            .faults(plan.clone())
            .build();
        while part_sim.now().as_secs_f64() < 300.0 {
            if !part_sim.step() {
                break;
            }
        }
        let bytes = part_sim.checkpoint_bytes();
        let (resumed_sim, _) =
            Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        let resumed = resumed_sim.run();
        assert_same_report(&resumed, &full, &label);
    }
}

#[test]
fn parallel_faulted_runs_checkpoint_and_resume_bit_identically() {
    // The uninterrupted twin and the resumed run step side by side from
    // the checkpoint instant: their clocks must agree at every event
    // boundary, not only in the final report, so a divergence that later
    // washes out of the totals still fails here. The source sim is
    // dropped before resuming so nothing but the bytes carries over.
    let scenario = scenario();
    let plan = FaultPlan::node_failures(&scenario, 0.3, Some(120.0), 9);
    let build = |mode| {
        Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .mobility_mode(mode)
            .faults(plan.clone())
            .build()
    };
    let step_to = |sim: &mut Simulation, t: f64| {
        while sim.now().as_secs_f64() < t {
            if !sim.step() {
                break;
            }
        }
    };
    for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
        let label = format!("parallel faulted OPT {mode:?}");

        let mut part = build(mode);
        step_to(&mut part, 300.0);
        let bytes = part.checkpoint_bytes();
        drop(part);

        let (mut resumed_sim, _) =
            Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut twin = build(mode);
        step_to(&mut twin, 300.0);
        assert_eq!(
            twin.now(),
            resumed_sim.now(),
            "{label}: resumed off the checkpoint instant"
        );
        let mut events = 0u64;
        loop {
            let more = twin.step();
            assert_eq!(
                resumed_sim.step(),
                more,
                "{label}: runs ended apart after {events} events"
            );
            assert_eq!(
                resumed_sim.now(),
                twin.now(),
                "{label}: clocks diverged after {events} events"
            );
            if !more {
                break;
            }
            events += 1;
        }
        assert!(events > 0, "{label}: nothing ran past the checkpoint");

        let full = twin.run();
        let resumed = resumed_sim.run();
        assert!(full.faults.crashes > 0, "{label}: plan injected nothing");
        assert_same_report(&resumed, &full, &label);
    }
}

/// Steps `sim` until `pred` holds at an event boundary past `t_min`
/// seconds, returning false if the run ends first.
fn step_until(sim: &mut Simulation, t_min: f64, mut pred: impl FnMut(&Simulation) -> bool) -> bool {
    loop {
        if sim.now().as_secs_f64() >= t_min && pred(sim) {
            return true;
        }
        if !sim.step() {
            return false;
        }
    }
}

#[test]
fn checkpoints_taken_mid_frame_resume_bit_identically() {
    // The seam: a `begin_tx` has fired but its (unguarded, not
    // epoch-cancelled) `TxEnd` is still pending. The snapshot must carry
    // the in-flight transmission and the resumed queue must fire the
    // `TxEnd` at the exact original instant. Faults keep the plan cursor
    // and crash paths in play across the boundary.
    let scenario = scenario();
    let plan = FaultPlan::node_failures(&scenario, 0.3, Some(120.0), 9);
    let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(5)
        .mobility_mode(MobilityMode::Ticked)
        .faults(plan.clone())
        .build()
        .run();

    let mut part = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(5)
        .mobility_mode(MobilityMode::Ticked)
        .faults(plan.clone())
        .build();
    assert!(
        step_until(&mut part, 200.0, |s| s.airborne_frames() > 0),
        "no frame was mid-air at any boundary past 200 s"
    );
    assert!(part.airborne_frames() > 0);
    let bytes = part.checkpoint_bytes();
    drop(part);

    let (resumed_sim, _) = Simulation::resume_from_bytes(&bytes).expect("mid-frame resume");
    assert!(
        resumed_sim.airborne_frames() > 0,
        "the in-flight frame was lost across the checkpoint"
    );
    let resumed = resumed_sim.run();
    assert_same_report(&resumed, &full, "mid-frame");
}

#[test]
fn checkpoints_taken_mid_coast_lease_resume_bit_identically() {
    // The seam PR 6 introduced: ticked nodes coast on straight-line
    // leases whose replay into the models is deferred. `checkpoint_bytes`
    // settles every lease before serializing; the resumed run re-grants
    // from the settled models exactly as an uninterrupted run re-grants
    // after its own settle — this proves the settle/regrant round trip is
    // invisible, faults included.
    let scenario = scenario();
    let plan = FaultPlan::node_failures(&scenario, 0.25, Some(150.0), 17);
    let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(8)
        .mobility_mode(MobilityMode::Ticked)
        .faults(plan.clone())
        .build()
        .run();

    let mut part = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(8)
        .mobility_mode(MobilityMode::Ticked)
        .faults(plan.clone())
        .build();
    assert!(
        step_until(&mut part, 250.0, |s| {
            s.coasting_nodes().expect("ticked mode") > scenario.sensors / 2
        }),
        "most of the population should be mid-lease at a typical boundary"
    );
    let mid_lease = part.coasting_nodes().expect("ticked mode");
    assert!(mid_lease > 0, "checkpoint instant was not mid-lease");
    let bytes = part.checkpoint_bytes();
    drop(part);

    let (resumed_sim, _) = Simulation::resume_from_bytes(&bytes).expect("mid-lease resume");
    let resumed = resumed_sim.run();
    assert_same_report(&resumed, &full, "mid-lease");
}

/// Frames `payload` the way `checkpoint_bytes` does, with a valid checksum.
fn frame(magic: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&dftmsn::sim::snap::checksum64(payload).to_le_bytes());
    out
}

/// The payload of a framed checkpoint.
fn payload(bytes: &[u8]) -> &[u8] {
    &bytes[CKPT_MAGIC.len() + 8..bytes.len() - 8]
}

#[test]
fn other_format_versions_are_rejected_by_name() {
    let (mut sim, _) = build(
        ProtocolKind::Opt,
        3,
        MobilityMode::Ticked,
        SharedBuf::default(),
    );
    while sim.now().as_secs_f64() < 100.0 && sim.step() {}
    let bytes = sim.checkpoint_bytes();
    let old = frame(b"dftmsn-ckpt/1", payload(&bytes));
    let err = Simulation::resume_from_bytes(&old).unwrap_err();
    assert!(matches!(err, CkptError::Corrupt { .. }), "{err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("unsupported checkpoint version dftmsn-ckpt/1"),
        "{msg}"
    );
}

/// Checkpoints crafted to name sizes the resume would allocate for — 2^40
/// sensors, a 2^40-cycle sleep history, a 10^12 m wide area — end in a
/// typed error before anything is built, not in an allocation abort. Each
/// sets one field of a paper-default checkpoint and re-frames it with a
/// valid checksum.
#[test]
fn crafted_sizes_are_rejected_before_allocation() {
    // Payload offsets: the parameters open the payload with the scenario
    // (area width and height, zone columns and rows, then sensors; 185
    // bytes in all), followed by the protocol (α, Δ, R, the FTD drop
    // threshold and L, then S).
    const AREA_WIDTH: usize = 0;
    const SENSORS: usize = 32;
    const HISTORY_WINDOW: usize = 185 + 5 * 8;
    let mut sim = Simulation::builder(ScenarioParams::paper_default(), ProtocolKind::Opt)
        .seed(1)
        .build();
    step_until(&mut sim, 10.0, |_| true);
    let bytes = sim.checkpoint_bytes();
    let original = payload(&bytes);
    let field = |at: usize| u64::from_le_bytes(original[at..at + 8].try_into().unwrap());
    assert_eq!(field(AREA_WIDTH), 150f64.to_bits(), "layout moved");
    assert_eq!(field(SENSORS), 100, "layout moved");
    assert_eq!(field(HISTORY_WINDOW), 10, "layout moved");
    for (at, value, expected) in [
        (SENSORS, 1u64 << 40, "nodes need at least"),
        (
            HISTORY_WINDOW,
            1 << 40,
            "history window S must be at most 64",
        ),
        (AREA_WIDTH, 1e12f64.to_bits(), "grid cells"),
    ] {
        let mut crafted = original.to_vec();
        crafted[at..at + 8].copy_from_slice(&value.to_le_bytes());
        match Simulation::resume_from_bytes(&frame(CKPT_MAGIC, &crafted)) {
            Err(e) => assert!(e.to_string().contains(expected), "byte {at}: {e}"),
            Ok(_) => panic!("byte {at} = {value:#x} resumed"),
        }
    }
}

/// A malformed payload that still carries a valid checksum must end in a
/// typed error or in a resumed run that keeps stepping — never a panic.
/// Each case xors one byte of a faulted, adversarial, observed mid-frame
/// checkpoint with a random nonzero value, re-frames it, resumes, and
/// steps the result 300 times. Every fourth case aims at the parameter
/// section, which sizes everything the resume allocates; the rest aim at
/// the sections after it.
#[test]
fn mutated_payloads_with_valid_checksums_never_panic() {
    const MUTATIONS: usize = 1_200;
    const STEPS: usize = 300;
    let scenario = scenario();
    let mut plan =
        dftmsn::core::behavior::parse_spec("liar=0.2;forger=0.1@100", &scenario, 5).unwrap();
    plan.extend(FaultPlan::node_failures(&scenario, 0.3, Some(120.0), 9));
    let recorder = MetricsRecorder::new(OBSERVE_WINDOW_SECS).streaming_only();
    let mut sim = Simulation::builder(scenario, ProtocolKind::Opt)
        .seed(5)
        .faults(plan)
        .observe(recorder)
        .build();
    assert!(
        step_until(&mut sim, 250.0, |s| s.airborne_frames() > 0),
        "no frame was mid-air at any boundary past 250 s"
    );
    let bytes = sim.checkpoint_bytes();
    let original = payload(&bytes);
    // The clock opens the section after the parameters.
    let clock = sim.now().ticks().to_le_bytes();
    let params_len = original
        .windows(8)
        .position(|w| w == clock)
        .expect("the clock is in the payload");

    let mut rng = SimRng::seed_from(0x3D7A_0001);
    let (mut rejected, mut resumed) = (0, 0);
    let mut panics = Vec::new();
    for case in 0..MUTATIONS {
        let mut mutated = original.to_vec();
        let at = if case % 4 == 0 {
            rng.gen_range_u64(params_len as u64) as usize
        } else {
            params_len + rng.gen_range_u64((mutated.len() - params_len) as u64) as usize
        };
        let flip = 1 + rng.gen_range_u64(255) as u8;
        mutated[at] ^= flip;
        let framed = frame(CKPT_MAGIC, &mutated);
        let outcome = std::panic::catch_unwind(|| match Simulation::resume_from_bytes(&framed) {
            Err(_) => false,
            Ok((mut sim, _)) => {
                for _ in 0..STEPS {
                    if !sim.step() {
                        break;
                    }
                }
                true
            }
        });
        match outcome {
            Ok(true) => resumed += 1,
            Ok(false) => rejected += 1,
            Err(_) => panics.push(format!("case {case}: byte {at} ^= {flip:#04x}")),
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {MUTATIONS} mutations panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    assert!(
        rejected > 0 && resumed > 0,
        "{rejected} rejected, {resumed} resumed"
    );
}
