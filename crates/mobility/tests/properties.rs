//! Property-based tests of the mobility substrate: the zone model never
//! escapes its area, the zone grid tiles exactly, and the spatial index
//! always matches a brute-force scan.

use dftmsn_mobility::geom::{Bounds, Vec2};
use dftmsn_mobility::grid_index::SpatialGrid;
use dftmsn_mobility::models::ZoneMobility;
use dftmsn_mobility::zones::{ZoneGrid, ZoneId};
use dftmsn_sim::rng::SimRng;
use proptest::prelude::*;

proptest! {
    /// Zone mobility stays inside the deployment area for arbitrary
    /// speeds, exit probabilities and step sizes.
    #[test]
    fn zone_mobility_never_escapes(
        seed in any::<u64>(),
        vmax in 0.1f64..20.0,
        exit_prob in 0.0f64..=1.0,
        dt in 0.05f64..2.0,
        home in 0usize..25,
    ) {
        let grid = ZoneGrid::new(Bounds::new(150.0, 150.0), 5, 5);
        let mut rng = SimRng::seed_from(seed);
        let mut m = ZoneMobility::new(grid.clone(), ZoneId(home), 0.0, vmax, exit_prob, &mut rng);
        for _ in 0..500 {
            m.advance(dt, &mut rng);
            prop_assert!(grid.area().contains(m.position()), "escaped to {}", m.position());
        }
    }

    /// Every point of the area maps to exactly the zone whose bounds
    /// contain it.
    #[test]
    fn zone_lookup_matches_zone_bounds(
        x in 0.0f64..150.0,
        y in 0.0f64..150.0,
        cols in 1usize..8,
        rows in 1usize..8,
    ) {
        let grid = ZoneGrid::new(Bounds::new(150.0, 150.0), cols, rows);
        let p = Vec2::new(x, y);
        let zone = grid.zone_of(p);
        let b = grid.zone_bounds(zone);
        prop_assert!(b.contains(p), "zone {zone:?} bounds {b} miss {p}");
    }

    /// The spatial index equals brute force on arbitrary layouts, radii
    /// and cell sizes (radius ≤ cell).
    #[test]
    fn grid_index_matches_brute_force(
        seed in any::<u64>(),
        n in 1usize..80,
        cell in 5.0f64..40.0,
        r_frac in 0.1f64..=1.0,
    ) {
        let area = Bounds::new(200.0, 200.0);
        let mut rng = SimRng::seed_from(seed);
        let positions: Vec<Vec2> = (0..n)
            .map(|_| Vec2::new(rng.gen_range_f64(0.0, 200.0), rng.gen_range_f64(0.0, 200.0)))
            .collect();
        let r = cell * r_frac;
        let mut grid = SpatialGrid::new(area, cell);
        grid.rebuild(&positions);
        let mut out = Vec::new();
        for i in 0..n {
            grid.query_within(&positions, i, r, &mut out);
            let brute: Vec<usize> = (0..n)
                .filter(|&j| j != i && positions[j].distance(positions[i]) <= r)
                .collect();
            prop_assert_eq!(&out, &brute, "node {} r {} cell {}", i, r, cell);
        }
    }

    /// The incrementally maintained index is indistinguishable from a
    /// full rebuild after arbitrary movement histories.
    #[test]
    fn grid_incremental_update_equals_rebuild(
        seed in any::<u64>(),
        n in 1usize..60,
        cell in 5.0f64..40.0,
        steps in 1usize..12,
        max_step in 0.5f64..50.0,
    ) {
        let area = Bounds::new(200.0, 200.0);
        let mut rng = SimRng::seed_from(seed);
        let mut positions: Vec<Vec2> = (0..n)
            .map(|_| Vec2::new(rng.gen_range_f64(0.0, 200.0), rng.gen_range_f64(0.0, 200.0)))
            .collect();
        let mut inc = SpatialGrid::new(area, cell);
        inc.rebuild(&positions);
        let mut out_inc = Vec::new();
        let mut out_full = Vec::new();
        for _ in 0..steps {
            for (i, p) in positions.iter_mut().enumerate() {
                if i % 4 == 0 {
                    continue; // a quarter of the fleet never moves
                }
                p.x = (p.x + rng.gen_range_f64(-max_step, max_step)).clamp(0.0, 200.0);
                p.y = (p.y + rng.gen_range_f64(-max_step, max_step)).clamp(0.0, 200.0);
            }
            for (i, &p) in positions.iter().enumerate() {
                inc.move_node(i, p);
            }
            let mut full = SpatialGrid::new(area, cell);
            full.rebuild(&positions);
            for i in 0..n {
                inc.query_within(&positions, i, cell, &mut out_inc);
                full.query_within(&positions, i, cell, &mut out_full);
                prop_assert_eq!(&out_inc, &out_full, "node {} after movement", i);
            }
        }
    }

    /// Reflection always lands inside and preserves speed direction
    /// magnitude.
    #[test]
    fn reflection_contains_and_preserves_direction_norm(
        w in 1.0f64..100.0,
        h in 1.0f64..100.0,
        px in -50.0f64..150.0,
        py in -50.0f64..150.0,
        dx in -1.0f64..1.0,
        dy in -1.0f64..1.0,
    ) {
        let b = Bounds::new(w, h);
        // Bound the overshoot like the simulator does: one velocity step.
        let p = Vec2::new(px.clamp(-w, 2.0 * w), py.clamp(-h, 2.0 * h));
        let dir = Vec2::new(dx, dy);
        let (rp, rd) = b.reflect(p, dir);
        prop_assert!(b.contains(rp), "reflected point {rp} outside {b}");
        prop_assert!((rd.length() - dir.length()).abs() < 1e-9);
    }
}
