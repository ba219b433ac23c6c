//! Microbenchmarks of the protocol math: Eq. 1 updates, Eqs. 2–3 FTD
//! computations, the Sec. 3.2.2 receiver selection, and the Sec. 4
//! optimizers (Eqs. 10–14).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dftmsn_core::contention::{
    cts_collision_probability, optimize_cts_window, optimize_tau_max, rts_collision_probability,
};
use dftmsn_core::delivery::DeliveryProb;
use dftmsn_core::ftd::Ftd;
use dftmsn_core::neighbor::{select_receivers, Candidate};
use dftmsn_radio::ids::NodeId;

fn bench_delivery_updates(c: &mut Criterion) {
    c.bench_function("eq1_xi_update_chain_1k", |b| {
        b.iter(|| {
            let mut xi = DeliveryProb::ZERO;
            for i in 0..1000u32 {
                if i % 3 == 0 {
                    xi.on_timeout(black_box(0.25));
                } else {
                    xi.on_transmission(DeliveryProb::new(0.6), black_box(0.25));
                }
            }
            xi
        });
    });
}

fn bench_ftd(c: &mut Criterion) {
    let xis = [0.3, 0.5, 0.7, 0.2];
    c.bench_function("eq3_after_multicast", |b| {
        b.iter(|| Ftd::new(0.4).after_multicast(black_box(&xis)));
    });
    c.bench_function("eq2_receiver_copy", |b| {
        b.iter(|| Ftd::new(0.4).receiver_copy(black_box(0.3), black_box(&xis[..3])));
    });
}

fn bench_selection(c: &mut Criterion) {
    let candidates: Vec<Candidate> = (0..16)
        .map(|i| Candidate {
            id: NodeId(i),
            xi: (i as f64 + 1.0) / 20.0,
            buffer_space: 10,
        })
        .collect();
    c.bench_function("receiver_selection_16_candidates", |b| {
        b.iter(|| select_receivers(black_box(0.2), Ftd::NEW, black_box(&candidates), 0.95));
    });
}

fn bench_optimizers(c: &mut Criterion) {
    let xis = [0.2, 0.4, 0.6, 0.8];
    c.bench_function("eq12_rts_collision_probability", |b| {
        let sigmas = [4u64, 8, 13, 26];
        b.iter(|| rts_collision_probability(black_box(&sigmas)));
    });
    c.bench_function("eq13_optimize_tau_max", |b| {
        b.iter(|| optimize_tau_max(black_box(&xis), 0.1, 32));
    });
    // NOSLEEP-shaped: seven contenders near ξ = 0.9 never meet H = 0.1
    // (γ = 0.117 at the cap of 32), so the scan evaluates every τ_max.
    let nosleep = [0.86, 0.88, 0.9, 0.9, 0.91, 0.92, 0.94];
    assert_eq!(optimize_tau_max(&nosleep, 0.1, 32), 32);
    c.bench_function("eq13_optimize_tau_max_nosleep_7_contenders", |b| {
        b.iter(|| optimize_tau_max(black_box(&nosleep), 0.1, 32));
    });
    c.bench_function("eq14_cts_collision_probability", |b| {
        b.iter(|| cts_collision_probability(black_box(5), black_box(24)));
    });
    c.bench_function("eq14_optimize_cts_window", |b| {
        b.iter(|| optimize_cts_window(black_box(4), 0.1, 64));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_delivery_updates, bench_ftd, bench_selection, bench_optimizers
);
criterion_main!(benches);
