//! A uniform spatial hash grid for neighbour queries.
//!
//! The medium needs "who is within transmission range of node *i*" on every
//! frame transmission. A brute-force scan is O(n) per query; the
//! [`SpatialGrid`] buckets positions into cells so a query touches only the
//! `⌈r/cell⌉` rings of cells that can intersect the query disc — cell size
//! is a cache-occupancy knob, decoupled from the query radius.
//!
//! Two properties keep the hot path cheap:
//!
//! * [`query_within`](SpatialGrid::query_within) walks each scanned bucket
//!   once, collects the nodes that pass the distance filter and sorts
//!   that (typically tiny) survivor set into ascending index order;
//! * [`move_node`](SpatialGrid::move_node) and
//!   [`move_node_window`](SpatialGrid::move_node_window) re-index one
//!   node at a time and touch its buckets only when its cell changed, so
//!   a node that stays in its cell costs one cell lookup; a full
//!   [`rebuild`](SpatialGrid::rebuild) is needed only for a new
//!   population.

use crate::geom::{Bounds, Vec2};
use crate::models::coast_ticks;
use std::ops::Range;

/// A rebuildable uniform grid over node positions.
///
/// # Examples
///
/// ```
/// use dftmsn_mobility::geom::{Bounds, Vec2};
/// use dftmsn_mobility::grid_index::SpatialGrid;
///
/// let positions = vec![Vec2::new(1.0, 1.0), Vec2::new(2.0, 2.0), Vec2::new(90.0, 90.0)];
/// let mut grid = SpatialGrid::new(Bounds::new(100.0, 100.0), 10.0);
/// grid.rebuild(&positions);
/// let mut out = Vec::new();
/// grid.query_within(&positions, 0, 10.0, &mut out);
/// assert_eq!(out, vec![1]); // node 2 is far away; the centre itself is excluded
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    area: Bounds,
    cell: f64,
    cols: usize,
    rows: usize,
    /// `buckets[cell]` lists the node indices inside that cell, ascending.
    /// `u32` halves the bucket memory traffic on the query hot path; node
    /// counts past 4 billion are far beyond any simulated scenario.
    buckets: Vec<Vec<u32>>,
    /// Cached cell index per node, kept current by `rebuild` and the
    /// single-node moves.
    node_cell: Vec<u32>,
}

impl SpatialGrid {
    /// Creates a grid over `area` with cells of side `cell` metres.
    ///
    /// The cell size no longer bounds the query radius —
    /// [`query_within`](Self::query_within) scans `⌈r/cell⌉` rings of
    /// cells around the centre — so `cell` is purely a performance knob:
    /// small cells tighten the scanned area but touch more buckets, large
    /// cells scan fewer (fatter) buckets.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    #[must_use]
    pub fn new(area: Bounds, cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "invalid cell size {cell}");
        let cols = (area.width() / cell).ceil().max(1.0) as usize;
        let rows = (area.height() / cell).ceil().max(1.0) as usize;
        SpatialGrid {
            area,
            cell,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
            node_cell: Vec::new(),
        }
    }

    /// The (column, row) of the cell `p` maps to; points outside the area
    /// clamp to the border cells.
    fn cell_xy(&self, p: Vec2) -> (usize, usize) {
        let cx = (((p.x - self.area.x0) / self.cell) as isize).clamp(0, self.cols as isize - 1);
        let cy = (((p.y - self.area.y0) / self.cell) as isize).clamp(0, self.rows as isize - 1);
        (cx as usize, cy as usize)
    }

    fn cell_of(&self, p: Vec2) -> usize {
        let (cx, cy) = self.cell_xy(p);
        cy * self.cols + cx
    }

    /// Rebuilds the index from scratch for the given positions.
    pub fn rebuild(&mut self, positions: &[Vec2]) {
        assert!(
            positions.len() <= u32::MAX as usize,
            "too many nodes for the index"
        );
        for b in &mut self.buckets {
            b.clear();
        }
        self.node_cell.clear();
        self.node_cell.reserve(positions.len());
        for (i, &p) in positions.iter().enumerate() {
            let c = self.cell_of(p);
            // Ascending i keeps every bucket sorted by construction.
            self.buckets[c].push(i as u32);
            self.node_cell.push(c as u32);
        }
    }

    /// Moves the single node `i` to position `p`, keeping its bucket
    /// membership (and the ascending bucket order) consistent. Free when
    /// the node stayed inside its cell. This is the lazy-mobility
    /// catch-up primitive: a node whose position was just extrapolated is
    /// re-indexed on its own, without touching the other nodes.
    ///
    /// # Panics
    ///
    /// Panics if `i` was not part of the last `rebuild`.
    pub fn move_node(&mut self, i: usize, p: Vec2) {
        let new_cell = self.cell_of(p) as u32;
        self.relocate(i, new_cell);
    }

    /// Re-buckets node `i` into `new_cell` if it moved, preserving
    /// ascending bucket order.
    fn relocate(&mut self, i: usize, new_cell: u32) {
        let old_cell = self.node_cell[i];
        if new_cell == old_cell {
            return;
        }
        let key = i as u32;
        let old = &mut self.buckets[old_cell as usize];
        let at = old.binary_search(&key).expect("node indexed in its cell");
        old.remove(at);
        let new = &mut self.buckets[new_cell as usize];
        let at = new
            .binary_search(&key)
            .expect_err("node absent from new cell");
        new.insert(at, key);
        self.node_cell[i] = new_cell;
    }

    /// [`move_node`](Self::move_node) that also returns node `i`'s coast
    /// window: the whole steps of `step` it can take from `p` while every
    /// position of the exact `p += step` chain stays in the cell `p` maps
    /// to, so its bucket cannot go stale. Each axis is clipped by the cell
    /// edge *ahead* of the node along its displacement, with the same 1e-6
    /// m guard band a model's lease keeps from zone edges; an axis the node
    /// does not move along never clips, and a zero `step` gets `u32::MAX`.
    /// This is the ticked coast engine's re-bucketing primitive, called
    /// every time a lease's cell window expires.
    ///
    /// # Panics
    ///
    /// Panics if `i` was not part of the last `rebuild`.
    pub fn move_node_window(&mut self, i: usize, p: Vec2, step: Vec2) -> u32 {
        let (cx, cy) = self.cell_xy(p);
        self.relocate(i, (cy * self.cols + cx) as u32);
        let x0 = self.area.x0 + cx as f64 * self.cell;
        let y0 = self.area.y0 + cy as f64 * self.cell;
        let kx = coast_ticks(p.x, step.x, x0, x0 + self.cell);
        let ky = coast_ticks(p.y, step.y, y0, y0 + self.cell);
        let k = kx.min(ky);
        if k < 1.0 {
            0
        } else if k >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            k as u32
        }
    }

    /// Collects into `out` the indices of all nodes within distance `r` of
    /// node `center` (excluding `center` itself), in ascending index order.
    ///
    /// The `(2k+1)²` cell neighbourhood with `k = ⌈r/cell⌉`, clipped to
    /// the grid, is scanned; for `k > 1` cells whose rectangle lies
    /// entirely outside the query disc are skipped before their bucket is
    /// touched. Survivors of the distance filter are collected and the
    /// (typically tiny) result sorted — cheaper than a multi-lane merge
    /// because each bucket is walked linearly exactly once and the
    /// per-element work is one distance check.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not finite and non-negative, if `center` is out of
    /// range, or if the index is stale (fewer indexed nodes than
    /// `positions`).
    pub fn query_within(&self, positions: &[Vec2], center: usize, r: f64, out: &mut Vec<usize>) {
        assert!(r.is_finite() && r >= 0.0, "invalid query radius {r}");
        assert!(
            self.node_cell.len() == positions.len(),
            "index built for {} nodes, queried with {}",
            self.node_cell.len(),
            positions.len()
        );
        out.clear();
        let p = positions[center];
        let r2 = r * r;
        // How many rings of cells the disc can reach. The centre node sits
        // anywhere inside its cell, so a disc of radius r protrudes at most
        // r past either cell edge: ⌈r/cell⌉ rings always cover it.
        let reach = ((r / self.cell).ceil() as isize).max(1);
        let prune = reach > 1;
        let (cols, rows) = self.rings(self.node_cell[center] as usize, reach);
        for ny in rows {
            for nx in cols.clone() {
                if prune && !self.cell_intersects_disc(nx, ny, p, r) {
                    continue;
                }
                for &j in &self.buckets[ny * self.cols + nx] {
                    let j = j as usize;
                    if j != center && positions[j].distance_sq(p) <= r2 {
                        out.push(j);
                    }
                }
            }
        }
        // Buckets are disjoint, so the union is duplicate-free; sorting
        // restores the ascending order the callers (and determinism
        // baselines) rely on. The survivor set is small, so this beats
        // paying a lane scan per merged element.
        out.sort_unstable();
    }

    /// Collects into `out` every node indexed in the `⌈r/cell⌉`-ring cell
    /// neighbourhood of node `center` — an unfiltered superset of what
    /// [`query_within`](Self::query_within) at the same radius would
    /// inspect (no distance filter, no disc pruning, `center` included, no
    /// ordering guarantee). Callers that maintain positions lazily use
    /// this to catch every candidate up *before* running the exact query.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not finite and non-negative or `center` is out of
    /// range.
    pub fn collect_neighborhood(&self, center: usize, r: f64, out: &mut Vec<usize>) {
        assert!(r.is_finite() && r >= 0.0, "invalid query radius {r}");
        out.clear();
        let reach = ((r / self.cell).ceil() as isize).max(1);
        let (cols, rows) = self.rings(self.node_cell[center] as usize, reach);
        for ny in rows {
            for nx in cols.clone() {
                out.extend(
                    self.buckets[ny * self.cols + nx]
                        .iter()
                        .map(|&j| j as usize),
                );
            }
        }
    }

    /// The column and row ranges of the `reach`-ring neighbourhood of cell
    /// `c`, clipped to the grid, so a query's cost is bounded by the grid
    /// however large its radius.
    fn rings(&self, c: usize, reach: isize) -> (Range<usize>, Range<usize>) {
        let clip = |at: usize, len: usize| {
            let at = at as isize;
            let lo = at.saturating_sub(reach).max(0) as usize;
            let hi = at.saturating_add(reach).min(len as isize - 1) as usize;
            lo..hi + 1
        };
        (
            clip(c % self.cols, self.cols),
            clip(c / self.cols, self.rows),
        )
    }

    /// True when the rectangle of cell `(nx, ny)` can contain a point
    /// within distance `r` of `p`. Conservative (widened by a ulp-scale
    /// epsilon) so pruning never drops a true neighbour.
    fn cell_intersects_disc(&self, nx: usize, ny: usize, p: Vec2, r: f64) -> bool {
        let x0 = self.area.x0 + nx as f64 * self.cell;
        let y0 = self.area.y0 + ny as f64 * self.cell;
        let dx = (x0 - p.x).max(p.x - (x0 + self.cell)).max(0.0);
        let dy = (y0 - p.y).max(p.y - (y0 + self.cell)).max(0.0);
        dx * dx + dy * dy <= r * r * (1.0 + 1e-12) + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dftmsn_sim::rng::SimRng;

    fn brute_force(positions: &[Vec2], center: usize, r: f64) -> Vec<usize> {
        let p = positions[center];
        (0..positions.len())
            .filter(|&j| j != center && positions[j].distance(p) <= r)
            .collect()
    }

    #[test]
    fn matches_brute_force_on_random_layouts() {
        let mut rng = SimRng::seed_from(11);
        let area = Bounds::new(150.0, 150.0);
        for trial in 0..20 {
            let n = 50 + trial;
            let positions: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.gen_range_f64(0.0, 150.0), rng.gen_range_f64(0.0, 150.0)))
                .collect();
            let mut grid = SpatialGrid::new(area, 10.0);
            grid.rebuild(&positions);
            let mut out = Vec::new();
            for i in 0..n {
                grid.query_within(&positions, i, 10.0, &mut out);
                assert_eq!(out, brute_force(&positions, i, 10.0), "node {i}");
            }
        }
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        // Random walks with a mix of still, slow, and cell-hopping nodes:
        // after every step the incrementally maintained index must answer
        // queries identically to a freshly rebuilt one.
        let mut rng = SimRng::seed_from(23);
        let area = Bounds::new(120.0, 120.0);
        let n = 60;
        let mut positions: Vec<Vec2> = (0..n)
            .map(|_| Vec2::new(rng.gen_range_f64(0.0, 120.0), rng.gen_range_f64(0.0, 120.0)))
            .collect();
        let mut inc = SpatialGrid::new(area, 10.0);
        inc.rebuild(&positions);
        let mut out_inc = Vec::new();
        let mut out_full = Vec::new();
        for _step in 0..40 {
            for (i, p) in positions.iter_mut().enumerate() {
                // A third of the nodes are stationary; the rest jitter by
                // up to a cell so some hop cells and some do not.
                if i % 3 == 0 {
                    continue;
                }
                let step = if i % 5 == 0 { 12.0 } else { 2.0 };
                p.x = (p.x + rng.gen_range_f64(-step, step)).clamp(0.0, 120.0);
                p.y = (p.y + rng.gen_range_f64(-step, step)).clamp(0.0, 120.0);
            }
            for (i, &p) in positions.iter().enumerate() {
                inc.move_node(i, p);
            }
            let mut full = SpatialGrid::new(area, 10.0);
            full.rebuild(&positions);
            for i in 0..n {
                inc.query_within(&positions, i, 10.0, &mut out_inc);
                full.query_within(&positions, i, 10.0, &mut out_full);
                assert_eq!(out_inc, out_full, "node {i} diverged");
                assert_eq!(out_inc, brute_force(&positions, i, 10.0), "node {i}");
            }
        }
    }

    #[test]
    fn boundary_positions_are_indexed() {
        let area = Bounds::new(100.0, 100.0);
        let positions = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(100.0, 100.0),
            Vec2::new(99.0, 99.5),
        ];
        let mut grid = SpatialGrid::new(area, 10.0);
        grid.rebuild(&positions);
        let mut out = Vec::new();
        grid.query_within(&positions, 1, 10.0, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn empty_rebuild_is_fine() {
        let mut grid = SpatialGrid::new(Bounds::new(10.0, 10.0), 10.0);
        grid.rebuild(&[]);
        // No nodes, nothing to query; just ensure no panic.
    }

    #[test]
    fn oversized_radius_scans_extra_rings() {
        // r = 2.5× the cell used to panic; now it must see every node the
        // brute force sees.
        let positions = vec![
            Vec2::ZERO,
            Vec2::new(1.0, 1.0),
            Vec2::new(4.5, 0.0),
            Vec2::new(0.0, 4.9),
            Vec2::new(5.5, 5.5),
        ];
        let mut grid = SpatialGrid::new(Bounds::new(10.0, 10.0), 2.0);
        grid.rebuild(&positions);
        let mut out = Vec::new();
        grid.query_within(&positions, 0, 5.0, &mut out);
        assert_eq!(out, brute_force(&positions, 0, 5.0));
    }

    #[test]
    fn multi_ring_matches_brute_force_at_many_radius_cell_ratios() {
        // Property test for the multi-ring scan: random layouts queried at
        // radius/cell ratios below, at, and well above 1 must agree with
        // the O(n²) brute force for every centre node.
        let mut rng = SimRng::seed_from(47);
        let area = Bounds::new(150.0, 150.0);
        for &(cell, r) in &[
            (10.0, 3.0),  // r < cell: single-ring fast case
            (10.0, 10.0), // r == cell: boundary of the old assert
            (10.0, 17.0), // 1 < r/cell < 2
            (6.0, 14.0),  // r/cell ≈ 2.3
            (4.0, 15.5),  // r/cell ≈ 3.9 — pruning kicks in hard
            (3.0, 31.0),  // r/cell > 10: disc spans a large block
            (40.0, 55.0), // cells larger than most of the area
        ] {
            for trial in 0..8 {
                let n = 40 + 11 * trial;
                let positions: Vec<Vec2> = (0..n)
                    .map(|_| {
                        Vec2::new(rng.gen_range_f64(0.0, 150.0), rng.gen_range_f64(0.0, 150.0))
                    })
                    .collect();
                let mut grid = SpatialGrid::new(area, cell);
                grid.rebuild(&positions);
                let mut out = Vec::new();
                for i in 0..n {
                    grid.query_within(&positions, i, r, &mut out);
                    assert_eq!(
                        out,
                        brute_force(&positions, i, r),
                        "cell {cell} r {r} node {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn coast_window_follows_the_displacement() {
        let area = Bounds::new(200.0, 200.0);
        let positions = vec![Vec2::new(40.5, 79.9)];
        let mut grid = SpatialGrid::new(area, 40.0);
        grid.rebuild(&positions);
        let p = positions[0];
        // 0.1 m from the cell's top edge, but heading along +x: only the
        // right edge, 39.5 m ahead, limits the window.
        let step = Vec2::new(0.125, 0.0);
        assert_eq!(grid.move_node_window(0, p, step), 315);
        // Heading up, the top edge is ahead: 0.1 m is 0 whole steps.
        assert_eq!(grid.move_node_window(0, p, Vec2::new(0.0, 0.125)), 0);
        // Inside the guard band of the edge ahead: no step is safe.
        let banded = Vec2::new(80.0 - 5e-7, 60.0);
        assert_eq!(grid.move_node_window(0, banded, step), 0);
        assert_eq!(grid.move_node_window(0, banded, -step), 319);
        assert_eq!(grid.move_node_window(0, p, Vec2::ZERO), u32::MAX);
    }

    #[test]
    fn coast_window_keeps_the_step_chain_in_its_cell() {
        // Random grids (offset origins, partial border cells), positions
        // (border, outside and guard-band ones included) and non-zero
        // steps (single-axis ones included). A node coasts through several
        // windows the way the ticked engine drives it: at each window end
        // it takes one step and is re-bucketed. Every position the exact
        // `+=` chain reaches inside a window must map to the window's
        // starting cell, and the buckets must equal a plain `move_node`'s.
        let mut rng = SimRng::seed_from(0xC0A5_7001);
        for case in 0..1_500 {
            let cell = rng.gen_range_f64(0.5, 60.0);
            let (x0, y0) = (
                rng.gen_range_f64(-500.0, 500.0),
                rng.gen_range_f64(-500.0, 500.0),
            );
            let w = rng.gen_range_f64(0.5 * cell, 12.0 * cell);
            let h = rng.gen_range_f64(0.5 * cell, 12.0 * cell);
            let area = Bounds::from_corners(x0, y0, x0 + w, y0 + h);
            let n = 1 + rng.gen_range_u64(12) as usize;
            let positions: Vec<Vec2> = (0..n)
                .map(|_| {
                    Vec2::new(
                        rng.gen_range_f64(x0 - cell, x0 + w + cell),
                        rng.gen_range_f64(y0 - cell, y0 + h + cell),
                    )
                })
                .collect();
            let mut windowed = SpatialGrid::new(area, cell);
            windowed.rebuild(&positions);
            let mut plain = windowed.clone();
            let i = rng.gen_range_u64(n as u64) as usize;
            let mut p = positions[i];
            if rng.gen_bool(0.25) {
                // Park the node inside the guard band of a cell edge.
                let k = rng.gen_range_u64(12) as f64;
                p.x = x0 + k * cell + rng.gen_range_f64(-2e-6, 2e-6);
            }
            let len = cell * 10f64.powf(rng.gen_range_f64(-3.0, 0.0));
            let step = match rng.gen_range_u64(4) {
                0 => Vec2::new(len, 0.0),
                1 => Vec2::new(0.0, -len),
                _ => Vec2::from_angle(rng.gen_range_f64(0.0, std::f64::consts::TAU)) * len,
            };
            for _ in 0..6 {
                let window = windowed.move_node_window(i, p, step);
                plain.move_node(i, p);
                assert_eq!(windowed.buckets, plain.buckets, "case {case}");
                assert_eq!(windowed.node_cell, plain.node_cell, "case {case}");
                assert!(window < u32::MAX, "case {case}: unbounded window");
                let start = windowed.cell_of(p);
                for k in 1..=window {
                    p += step;
                    assert_eq!(
                        windowed.cell_of(p),
                        start,
                        "case {case}: step {k} of a {window}-step window left the cell"
                    );
                }
                p += step;
            }
        }
    }

    #[test]
    fn collect_neighborhood_covers_query_within() {
        // The unfiltered neighbourhood must contain every index the exact
        // query returns (plus the centre), at any radius/cell ratio.
        let mut rng = SimRng::seed_from(77);
        let area = Bounds::new(120.0, 120.0);
        for &(cell, r) in &[(10.0, 3.0), (10.0, 10.0), (5.0, 17.0), (40.0, 55.0)] {
            let n = 80;
            let positions: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.gen_range_f64(0.0, 120.0), rng.gen_range_f64(0.0, 120.0)))
                .collect();
            let mut grid = SpatialGrid::new(area, cell);
            grid.rebuild(&positions);
            let mut exact = Vec::new();
            let mut superset = Vec::new();
            for i in 0..n {
                grid.query_within(&positions, i, r, &mut exact);
                grid.collect_neighborhood(i, r, &mut superset);
                assert!(superset.contains(&i), "centre missing for node {i}");
                for j in &exact {
                    assert!(superset.contains(j), "cell {cell} r {r}: {j} missing");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index built for")]
    fn stale_index_panics() {
        let positions = vec![Vec2::ZERO, Vec2::new(1.0, 1.0)];
        let mut grid = SpatialGrid::new(Bounds::new(10.0, 10.0), 5.0);
        grid.rebuild(&positions[..1]);
        let mut out = Vec::new();
        grid.query_within(&positions, 0, 5.0, &mut out);
    }
}
