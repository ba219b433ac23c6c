//! Integration tests of the substrates working together — mobility with
//! the spatial index, the medium with energy metering — below the level
//! of a full protocol simulation.

use dftmsn::mobility::geom::{Bounds, Vec2};
use dftmsn::mobility::grid_index::SpatialGrid;
use dftmsn::mobility::models::ZoneMobility;
use dftmsn::mobility::zones::{ZoneGrid, ZoneId};
use dftmsn::radio::channel::ChannelParams;
use dftmsn::radio::energy::{EnergyMeter, EnergyModel, RadioState};
use dftmsn::radio::ids::NodeId;
use dftmsn::radio::medium::{Frame, Medium};
use dftmsn::sim::rng::SimRng;
use dftmsn::sim::time::{SimDuration, SimTime};

#[test]
fn spatial_grid_stays_correct_while_nodes_move() {
    let area = Bounds::new(150.0, 150.0);
    let zones = ZoneGrid::new(area, 5, 5);
    let mut rng = SimRng::seed_from(42);
    let mut models: Vec<ZoneMobility> = (0..40)
        .map(|i| ZoneMobility::new(zones.clone(), ZoneId(i % 25), 0.0, 5.0, 0.2, &mut rng))
        .collect();
    let mut grid = SpatialGrid::new(area, 10.0);
    let mut out = Vec::new();

    for _step in 0..200 {
        for m in &mut models {
            m.advance(0.5, &mut rng);
        }
        let positions: Vec<Vec2> = models.iter().map(|m| m.position()).collect();
        grid.rebuild(&positions);
        for i in 0..positions.len() {
            grid.query_within(&positions, i, 10.0, &mut out);
            let brute: Vec<usize> = (0..positions.len())
                .filter(|&j| j != i && positions[j].distance(positions[i]) <= 10.0)
                .collect();
            assert_eq!(out, brute, "index diverged at node {i}");
        }
    }
}

#[test]
fn scripted_exchange_delivers_and_meters_energy() {
    // A hand-driven preamble/RTS/CTS-like exchange between three nodes,
    // checking both the medium outcomes and the integrated energy.
    let model = EnergyModel::berkeley_mote();
    let ch = ChannelParams::paper_default();
    let mut medium: Medium<&str> = Medium::new(3);
    let mut meters: Vec<EnergyMeter> = (0..3).map(|_| EnergyMeter::new(RadioState::Idle)).collect();

    let a = NodeId(0);
    let b = NodeId(1);
    let c = NodeId(2);
    medium.set_listening(b, true);
    medium.set_listening(c, true);

    // A transmits a 50-bit control frame to B and C.
    let t0 = SimTime::ZERO;
    meters[0].set_state(t0, RadioState::Tx, &model);
    let tx = medium.begin_tx(
        t0,
        Frame {
            src: a,
            bits: 50,
            payload: "rts",
        },
        &[b, c],
    );
    let t1 = t0 + ch.airtime(50);
    let out = medium.end_tx(t1, tx);
    meters[0].set_state(t1, RadioState::Idle, &model);
    assert_eq!(out.delivered_to, vec![b, c]);

    // B replies; C overhears.
    medium.set_listening(a, true);
    medium.set_listening(b, false);
    meters[1].set_state(t1, RadioState::Tx, &model);
    let tx = medium.begin_tx(
        t1,
        Frame {
            src: b,
            bits: 50,
            payload: "cts",
        },
        &[a, c],
    );
    let t2 = t1 + ch.airtime(50);
    let out = medium.end_tx(t2, tx);
    meters[1].set_state(t2, RadioState::Idle, &model);
    medium.set_listening(b, true);
    assert_eq!(out.delivered_to, vec![a, c]);

    // Energy: node A = 5 ms tx + 5 ms idle; node B = 5 ms idle + 5 ms tx.
    let total_a = meters[0].total_energy_j(t2, &model);
    let total_b = meters[1].total_energy_j(t2, &model);
    let expect = 0.005 * model.p_tx_w + 0.005 * model.p_idle_w;
    assert!((total_a - expect).abs() < 1e-12, "A energy {total_a}");
    assert!((total_b - expect).abs() < 1e-12, "B energy {total_b}");

    // Medium counters saw two frames and no collisions.
    let counters = medium.counters();
    assert_eq!(counters.frames_sent, 2);
    assert_eq!(counters.collisions, 0);
}

#[test]
fn hidden_terminal_collision_is_detected_at_the_victim() {
    // A and C cannot hear each other but both reach B: the classic hidden
    // terminal. Overlapping frames must corrupt at B only.
    let mut medium: Medium<u8> = Medium::new(3);
    let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
    medium.set_listening(b, true);

    let t0 = SimTime::ZERO;
    let tx_a = medium.begin_tx(
        t0,
        Frame {
            src: a,
            bits: 50,
            payload: 1,
        },
        &[b],
    );
    // C starts mid-flight — it never heard A (out of range).
    let t_mid = t0 + SimDuration::from_millis(2);
    let tx_c = medium.begin_tx(
        t_mid,
        Frame {
            src: c,
            bits: 50,
            payload: 2,
        },
        &[b],
    );

    let out_a = medium.end_tx(t0 + SimDuration::from_millis(5), tx_a);
    assert!(out_a.delivered_to.is_empty());
    assert_eq!(out_a.collided_at, vec![b]);
    let out_c = medium.end_tx(t_mid + SimDuration::from_millis(5), tx_c);
    assert!(
        out_c.delivered_to.is_empty(),
        "late frame must not resurrect"
    );
}

#[test]
fn zone_mobility_distributes_time_heterogeneously() {
    // Different home zones ⇒ different sink-zone exposure — the property
    // the paper's ξ heterogeneity rests on. A node homed in the sink's
    // zone must visit it far more often than one homed in a far corner.
    let area = Bounds::new(150.0, 150.0);
    let zones = ZoneGrid::new(area, 5, 5);
    let sink_zone = ZoneId(12); // centre
    let mut rng = SimRng::seed_from(7);
    let mut near = ZoneMobility::new(zones.clone(), sink_zone, 0.0, 5.0, 0.2, &mut rng);
    let mut far = ZoneMobility::new(zones.clone(), ZoneId(0), 0.0, 5.0, 0.2, &mut rng);

    let mut near_visits = 0u32;
    let mut far_visits = 0u32;
    for _ in 0..40_000 {
        near.advance(0.5, &mut rng);
        far.advance(0.5, &mut rng);
        if zones.zone_of(near.position()) == sink_zone {
            near_visits += 1;
        }
        if zones.zone_of(far.position()) == sink_zone {
            far_visits += 1;
        }
    }
    assert!(
        near_visits > 3 * far_visits.max(1),
        "expected strong home bias: near {near_visits} vs far {far_visits}"
    );
}

#[test]
fn airtime_and_meter_agree_on_transmit_energy() {
    // Transmitting n frames of b bits costs exactly n·airtime·P_tx extra.
    let model = EnergyModel::berkeley_mote();
    let ch = ChannelParams::paper_default();
    let mut meter = EnergyMeter::new(RadioState::Idle);
    let mut now = SimTime::ZERO;
    let frames = 20u64;
    for _ in 0..frames {
        meter.set_state(now, RadioState::Tx, &model);
        now += ch.airtime(1000);
        meter.set_state(now, RadioState::Idle, &model);
        now += SimDuration::from_millis(50);
    }
    let tx_j = meter.energy_in_state_j(RadioState::Tx);
    let expect = frames as f64 * 0.1 * model.p_tx_w;
    assert!((tx_j - expect).abs() < 1e-9, "tx energy {tx_j} vs {expect}");
}
