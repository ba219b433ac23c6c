//! Checkpoint/resume determinism sweep: snapshotting a run at a random
//! event boundary and resuming from the bytes must reproduce the
//! uninterrupted run *exactly* — every golden counter, every f64 bit of
//! delay and energy accounting, every delivery record, and every byte of
//! the windowed observe JSONL stream — for every protocol variant, across
//! seeds, under both the ticked and lazy mobility engines.
//!
//! The checkpoint instant is drawn from a seeded [`SimRng`] per
//! combination, so the suite probes a spread of boundaries (early,
//! mid-run, late) while staying fully reproducible. If a future change
//! legitimately alters simulation outcomes, this suite stays green — it
//! only compares a resumed run against its own uninterrupted twin; a
//! failure here always means resume lost or invented state.

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

/// The counters every variant must reproduce bit-for-bit across a
/// checkpoint/resume cycle.
fn golden(r: &SimReport) -> [u64; 8] {
    [
        r.generated,
        r.delivered,
        r.sink_receptions,
        r.frames_sent,
        r.collisions,
        r.attempts,
        r.multicasts,
        r.copies_sent,
    ]
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

    // Golden counters and exact accounting.
    assert_eq!(
        golden(&resumed),
        golden(&full),
        "{label}: counters diverged"
    );
    assert_eq!(
        resumed.events_processed, full.events_processed,
        "{label}: event count diverged"
    );
    assert_eq!(
        resumed.mean_delay_secs.to_bits(),
        full.mean_delay_secs.to_bits(),
        "{label}: mean delay diverged"
    );
    assert_eq!(
        resumed.total_sensor_energy_j.to_bits(),
        full.total_sensor_energy_j.to_bits(),
        "{label}: energy accounting diverged"
    );
    assert_eq!(
        resumed.deliveries, full.deliveries,
        "{label}: deliveries diverged"
    );

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
/// If a PR intentionally changes either the checkpoint format or protocol
/// behaviour, regenerate the fixture and these goldens, and say so in the
/// change notes:
///
/// ```text
/// cargo run -p dftmsn-cli -- run --protocol OPT --sensors 16 --sinks 2 \
///     --duration 800 --seed 7 \
///     --checkpoint tests/fixtures/golden-opt-seed7.ckpt --checkpoint-every 450
/// ```
///
/// (the run completes; the file keeps the last periodic snapshot), then
/// copy the counters from the resumed run.
#[test]
fn committed_golden_fixture_still_resumes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden-opt-seed7.ckpt");
    let resumed: Resumed =
        Simulation::resume(&path).expect("golden fixture must decode on every build");
    assert!(!resumed.from_backup, "fixture resumed from a .bak?");
    let sim = resumed.sim;
    let t = sim.now().as_secs_f64();
    assert!(
        (450.0..=500.0).contains(&t),
        "fixture should snapshot just past 450 s, got {t}"
    );
    let report = sim.run();
    assert_eq!(
        golden(&report),
        [92, 41, 42, 5040, 1, 2429, 44, 44],
        "fixture continuation diverged from its recorded goldens"
    );
    assert_eq!(report.events_processed, 16289);
    assert_eq!(
        report.mean_delay_secs.to_bits(),
        204.358_425_463_414_62_f64.to_bits()
    );
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
        assert_eq!(
            golden(&resumed),
            golden(&full),
            "{label}: counters diverged"
        );
        assert_eq!(
            resumed.faults, full.faults,
            "{label}: fault counters diverged"
        );
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
        assert_eq!(
            golden(&resumed),
            golden(&full),
            "{label}: counters diverged"
        );
        assert_eq!(
            resumed.faults, full.faults,
            "{label}: fault/behavior counters diverged"
        );
        assert_eq!(
            resumed.lifetime, full.lifetime,
            "{label}: lifetime block diverged"
        );
        assert_eq!(
            resumed.mean_delay_secs.to_bits(),
            full.mean_delay_secs.to_bits(),
            "{label}: delay bits diverged"
        );
    }
}

#[test]
fn parallel_faulted_runs_checkpoint_and_resume_bit_identically() {
    // A checkpoint taken at an interval boundary of the parallel executor
    // (threads > 1 drives `advance` through whole event intervals) must
    // resume into the exact bit-stream of an uninterrupted sequential
    // run, faults included. The thread count — like the shard count — is
    // never serialized; restored sims come up single-threaded and opt
    // back in.
    let scenario = scenario();
    let plan = FaultPlan::node_failures(&scenario, 0.3, Some(120.0), 9);
    for mode in [MobilityMode::Ticked, MobilityMode::Lazy] {
        let label = format!("parallel faulted OPT {mode:?}");

        let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .mobility_mode(mode)
            .faults(plan.clone())
            .build()
            .run();
        assert!(full.faults.crashes > 0, "{label}: plan injected nothing");

        let mut part = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .mobility_mode(mode)
            .faults(plan.clone())
            .threads(8)
            .build();
        while part.now().as_secs_f64() < 300.0 {
            if !part.advance() {
                break;
            }
        }
        let bytes = part.checkpoint_bytes();
        drop(part);

        let (mut resumed_sim, _) =
            Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            resumed_sim.threads(),
            1,
            "{label}: thread count leaked into the checkpoint"
        );
        resumed_sim.set_threads(8);
        let resumed = resumed_sim.run();
        assert_eq!(
            golden(&resumed),
            golden(&full),
            "{label}: counters diverged"
        );
        assert_eq!(
            resumed.faults, full.faults,
            "{label}: fault counters diverged"
        );
        assert_eq!(
            resumed.mean_delay_secs.to_bits(),
            full.mean_delay_secs.to_bits(),
            "{label}: delay accounting diverged"
        );
        assert_eq!(
            resumed.total_sensor_energy_j.to_bits(),
            full.total_sensor_energy_j.to_bits(),
            "{label}: energy accounting diverged"
        );
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
    assert_eq!(
        golden(&resumed),
        golden(&full),
        "mid-frame: counters diverged"
    );
    assert_eq!(
        resumed.mean_delay_secs.to_bits(),
        full.mean_delay_secs.to_bits(),
        "mid-frame: delay accounting diverged"
    );
    assert_eq!(
        resumed.faults, full.faults,
        "mid-frame: fault counters diverged"
    );
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
    assert_eq!(
        golden(&resumed),
        golden(&full),
        "mid-lease: counters diverged"
    );
    assert_eq!(
        resumed.total_sensor_energy_j.to_bits(),
        full.total_sensor_energy_j.to_bits(),
        "mid-lease: energy accounting diverged"
    );
    assert_eq!(
        resumed.deliveries, full.deliveries,
        "mid-lease: deliveries diverged"
    );
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

/// A malformed payload that still carries a valid checksum must end in a
/// typed error or in a resumed run that keeps stepping — never a panic.
/// Each case xors one byte past the parameter section of a faulted,
/// adversarial, observed mid-frame checkpoint with a random nonzero
/// value, re-frames it, resumes, and steps the result 300 times.
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
    let start = original
        .windows(8)
        .position(|w| w == clock)
        .expect("the clock is in the payload");

    let mut rng = SimRng::seed_from(0x3D7A_0001);
    let (mut rejected, mut resumed) = (0, 0);
    let mut panics = Vec::new();
    for case in 0..MUTATIONS {
        let mut mutated = original.to_vec();
        let at = start + rng.gen_range_u64((mutated.len() - start) as u64) as usize;
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
