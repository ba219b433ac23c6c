//! Benchmarks of the simulation substrates: event queue throughput,
//! RNG, mobility stepping, spatial-index rebuild+query, and medium
//! broadcast.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dftmsn_mobility::geom::{Bounds, Vec2};
use dftmsn_mobility::grid_index::SpatialGrid;
use dftmsn_mobility::models::{MobilityModel, ZoneMobility};
use dftmsn_mobility::zones::{ZoneGrid, ZoneId};
use dftmsn_radio::ids::NodeId;
use dftmsn_radio::medium::{Frame, Medium};
use dftmsn_sim::event::EventQueue;
use dftmsn_sim::rng::SimRng;
use dftmsn_sim::time::{SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..10_000u32 {
                q.schedule_at(SimTime::from_ticks(rng.gen_range_u64(1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += u64::from(e);
            }
            black_box(sum)
        });
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng_next_f64_1k", |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.next_f64();
            }
            black_box(acc)
        });
    });
    c.bench_function("rng_exp_1k", |b| {
        let mut rng = SimRng::seed_from(3);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.gen_exp(120.0);
            }
            black_box(acc)
        });
    });
}

fn bench_mobility(c: &mut Criterion) {
    c.bench_function("zone_mobility_100_nodes_one_tick", |b| {
        let zones = ZoneGrid::new(Bounds::new(150.0, 150.0), 5, 5);
        let mut rng = SimRng::seed_from(4);
        let mut models: Vec<ZoneMobility> = (0..100)
            .map(|i| ZoneMobility::new(zones.clone(), ZoneId(i % 25), 0.0, 5.0, 0.2, &mut rng))
            .collect();
        b.iter(|| {
            for m in &mut models {
                m.advance(0.5, &mut rng);
            }
            black_box(models[0].position())
        });
    });
}

fn bench_spatial_grid(c: &mut Criterion) {
    let area = Bounds::new(150.0, 150.0);
    let mut rng = SimRng::seed_from(5);
    let positions: Vec<Vec2> = (0..100)
        .map(|_| Vec2::new(rng.gen_range_f64(0.0, 150.0), rng.gen_range_f64(0.0, 150.0)))
        .collect();
    c.bench_function("spatial_grid_rebuild_100", |b| {
        let mut grid = SpatialGrid::new(area, 10.0);
        b.iter(|| grid.rebuild(black_box(&positions)));
    });
    // Mobility-tick shape: most nodes drift within their cell, a few cross
    // a boundary — the case the incremental update is built for.
    c.bench_function("spatial_grid_update_100_small_motion", |b| {
        let mut grid = SpatialGrid::new(area, 10.0);
        grid.rebuild(&positions);
        let mut moved = positions.clone();
        let mut jiggle = SimRng::seed_from(7);
        b.iter(|| {
            for p in &mut moved {
                p.x = (p.x + jiggle.gen_range_f64(-1.0, 1.0)).clamp(0.0, 150.0);
                p.y = (p.y + jiggle.gen_range_f64(-1.0, 1.0)).clamp(0.0, 150.0);
            }
            grid.update(black_box(&moved));
        });
    });
    c.bench_function("spatial_grid_query_100", |b| {
        let mut grid = SpatialGrid::new(area, 10.0);
        grid.rebuild(&positions);
        let mut out = Vec::new();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % positions.len();
            grid.query_within(&positions, i, 10.0, &mut out);
            black_box(out.len())
        });
    });
}

fn bench_medium(c: &mut Criterion) {
    c.bench_function("medium_broadcast_8_receivers", |b| {
        let mut medium: Medium<u32> = Medium::new(10);
        for i in 1..10 {
            medium.set_listening(NodeId(i), true);
        }
        let audible: Vec<NodeId> = (1..9).map(NodeId).collect();
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += SimDuration::from_millis(6);
            let tx = medium.begin_tx(
                now,
                Frame {
                    src: NodeId(0),
                    bits: 50,
                    payload: 1,
                },
                &audible,
            );
            black_box(medium.end_tx(now + SimDuration::from_millis(5), tx))
        });
    });
    // Fan-out scaling: a full tx/rx cycle with a fixed 8-node audible set
    // while the medium tracks ever more listeners. The audibility index
    // keys per-node state, so the cost must stay flat as the listener
    // population grows — this is the medium half of the O(local density)
    // contract.
    for n in [200usize, 1_000, 5_000] {
        c.bench_function(&format!("medium_fanout_8_of_{n}_listeners"), |b| {
            let mut medium: Medium<u32> = Medium::new(n);
            for i in 1..n {
                medium.set_listening(NodeId(i), true);
            }
            let audible: Vec<NodeId> = (1..9).map(NodeId).collect();
            let mut now = SimTime::ZERO;
            b.iter(|| {
                now += SimDuration::from_millis(6);
                let tx = medium.begin_tx(
                    now,
                    Frame {
                        src: NodeId(0),
                        bits: 50,
                        payload: 1,
                    },
                    &audible,
                );
                black_box(medium.end_tx(now + SimDuration::from_millis(5), tx))
            });
        });
    }
}

/// Node layout at the scale tier's density (100 sensors per 150 m square).
fn scale_density_layout(n: usize) -> (Bounds, Vec<Vec2>) {
    let side = 150.0 * (n as f64 / 100.0).sqrt();
    let mut rng = SimRng::seed_from(8);
    let positions = (0..n)
        .map(|_| Vec2::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
        .collect();
    (Bounds::new(side, side), positions)
}

fn bench_contact_cache(c: &mut Criterion) {
    // Mirrors the world's per-node contact cache (a private type): a miss
    // collects the unfiltered bucket superset and runs an exact query at
    // range + margin, caching the result; a hit only re-filters the cached
    // superset at the true range. The gap between the two is what the
    // cache buys per protocol cycle.
    let (area, positions) = scale_density_layout(5_000);
    let (range, margin) = (10.0, 2.5);
    let mut grid = SpatialGrid::new(area, 4.0 * range);
    grid.rebuild(&positions);
    c.bench_function("contact_cache_miss_5000", |b| {
        let mut superset = Vec::new();
        let mut cached = Vec::new();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % positions.len();
            grid.collect_neighborhood(i, range + margin, &mut superset);
            grid.query_within(&positions, i, range + margin, &mut cached);
            black_box(cached.len())
        });
    });
    c.bench_function("contact_cache_hit_5000", |b| {
        let mut cached = Vec::new();
        let mut hits = Vec::new();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % positions.len();
            if cached.is_empty() || i.is_multiple_of(16) {
                grid.query_within(&positions, i, range + margin, &mut cached);
            }
            let r2 = range * range;
            let center = positions[i];
            hits.clear();
            for &j in &cached {
                if positions[j].distance_sq(center) <= r2 {
                    hits.push(j);
                }
            }
            black_box(hits.len())
        });
    });
}

fn bench_multi_ring_query(c: &mut Criterion) {
    // The multi-ring query walk: the same radius resolved against a cell
    // smaller than the radius (several rings of buckets) and against a
    // cell larger than it (the classic single-ring case). Both must return
    // identical results; the bench tracks the cost of lifting the old
    // `r <= cell` restriction.
    let (area, positions) = scale_density_layout(1_000);
    let r = 20.0;
    for (label, cell) in [("multi_ring", 4.0), ("single_ring", 25.0)] {
        c.bench_function(&format!("grid_query_r20_{label}_1000"), |b| {
            let mut grid = SpatialGrid::new(area, cell);
            grid.rebuild(&positions);
            let mut out = Vec::new();
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % positions.len();
                grid.query_within(&positions, i, r, &mut out);
                black_box(out.len())
            });
        });
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_event_queue, bench_rng, bench_mobility, bench_spatial_grid, bench_medium,
        bench_contact_cache, bench_multi_ring_query
);
criterion_main!(benches);
