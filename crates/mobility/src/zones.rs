//! The zone grid of the paper's deployment area.
//!
//! The evaluation divides the area into a grid of non-overlapping zones
//! (25 zones in the default setup); each sensor has a *home zone* and the
//! zone-based mobility model makes crossing decisions at zone boundaries.

use crate::geom::{Bounds, Vec2};
use serde::{Deserialize, Serialize};

/// Identifies a zone: row-major index into the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ZoneId(pub usize);

/// A rectangular grid of equally sized zones covering an area.
///
/// # Examples
///
/// ```
/// use dftmsn_mobility::geom::{Bounds, Vec2};
/// use dftmsn_mobility::zones::{ZoneGrid, ZoneId};
///
/// let grid = ZoneGrid::new(Bounds::new(150.0, 150.0), 5, 5);
/// assert_eq!(grid.zone_count(), 25);
/// assert_eq!(grid.zone_of(Vec2::new(10.0, 10.0)), ZoneId(0));
/// assert_eq!(grid.zone_of(Vec2::new(149.0, 149.0)), ZoneId(24));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneGrid {
    area: Bounds,
    cols: usize,
    rows: usize,
    zone_w: f64,
    zone_h: f64,
}

impl ZoneGrid {
    /// Creates a `cols × rows` grid over `area`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero.
    #[must_use]
    pub fn new(area: Bounds, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one zone");
        ZoneGrid {
            zone_w: area.width() / cols as f64,
            zone_h: area.height() / rows as f64,
            area,
            cols,
            rows,
        }
    }

    /// The covered area.
    #[must_use]
    pub fn area(&self) -> Bounds {
        self.area
    }

    /// Total number of zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The zone containing point `p` (points outside clamp to the border
    /// zone, so every point maps to a valid zone).
    #[must_use]
    pub fn zone_of(&self, p: Vec2) -> ZoneId {
        let cx = ((p.x - self.area.x0) / self.zone_w).floor();
        let cy = ((p.y - self.area.y0) / self.zone_h).floor();
        let cx = (cx as isize).clamp(0, self.cols as isize - 1) as usize;
        let cy = (cy as isize).clamp(0, self.rows as isize - 1) as usize;
        ZoneId(cy * self.cols + cx)
    }

    /// The rectangle of zone `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn zone_bounds(&self, id: ZoneId) -> Bounds {
        assert!(id.0 < self.zone_count(), "zone id {id:?} out of range");
        let cx = id.0 % self.cols;
        let cy = id.0 / self.cols;
        Bounds::from_corners(
            self.area.x0 + cx as f64 * self.zone_w,
            self.area.y0 + cy as f64 * self.zone_h,
            self.area.x0 + (cx + 1) as f64 * self.zone_w,
            self.area.y0 + (cy + 1) as f64 * self.zone_h,
        )
    }

    /// The centre of zone `id`.
    #[must_use]
    pub fn zone_center(&self, id: ZoneId) -> Vec2 {
        self.zone_bounds(id).center()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ZoneGrid {
        ZoneGrid::new(Bounds::new(150.0, 150.0), 5, 5)
    }

    #[test]
    fn zone_lookup_covers_grid() {
        let g = grid();
        assert_eq!(g.zone_of(Vec2::new(0.0, 0.0)), ZoneId(0));
        assert_eq!(g.zone_of(Vec2::new(31.0, 0.0)), ZoneId(1));
        assert_eq!(g.zone_of(Vec2::new(0.0, 31.0)), ZoneId(5));
        assert_eq!(g.zone_of(Vec2::new(149.9, 149.9)), ZoneId(24));
    }

    #[test]
    fn out_of_area_points_clamp() {
        let g = grid();
        assert_eq!(g.zone_of(Vec2::new(-5.0, -5.0)), ZoneId(0));
        assert_eq!(g.zone_of(Vec2::new(400.0, 400.0)), ZoneId(24));
    }

    #[test]
    fn zone_bounds_partition_area() {
        let g = grid();
        let mut total = 0.0;
        for i in 0..g.zone_count() {
            let b = g.zone_bounds(ZoneId(i));
            total += b.width() * b.height();
            assert!((b.width() - 30.0).abs() < 1e-9);
            assert!((b.height() - 30.0).abs() < 1e-9);
        }
        assert!((total - 150.0 * 150.0).abs() < 1e-6);
    }

    #[test]
    fn bounds_and_lookup_agree() {
        let g = grid();
        for i in 0..g.zone_count() {
            let c = g.zone_center(ZoneId(i));
            assert_eq!(g.zone_of(c), ZoneId(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_zone_id_panics() {
        let _ = grid().zone_bounds(ZoneId(25));
    }
}
