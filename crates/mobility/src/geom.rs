//! Planar geometry primitives: [`Vec2`] points/vectors and rectangular
//! [`Bounds`] with reflection, the building blocks of every mobility model.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Neg, Sub};
use serde::{Deserialize, Serialize};

/// A 2-D point or vector in metres.
///
/// # Examples
///
/// ```
/// use dftmsn_mobility::geom::Vec2;
///
/// let a = Vec2::new(0.0, 0.0);
/// let b = Vec2::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal coordinate (m).
    pub x: f64,
    /// Vertical coordinate (m).
    pub y: f64,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// A unit vector at `angle` radians from the positive x-axis.
    #[must_use]
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Euclidean length.
    #[must_use]
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared length (avoids the square root for comparisons).
    #[must_use]
    pub fn length_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    #[must_use]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).length()
    }

    /// Squared distance to another point.
    #[must_use]
    pub fn distance_sq(self, other: Vec2) -> f64 {
        (self - other).length_sq()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// An axis-aligned rectangle `[x0, x1] × [y0, y1]` in metres.
///
/// Used both for the whole deployment area and for individual zones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bounds {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
}

impl Bounds {
    /// A rectangle with its lower-left corner at the origin.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is not a positive finite number.
    #[must_use]
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width.is_finite() && width > 0.0, "width must be positive");
        assert!(
            height.is_finite() && height > 0.0,
            "height must be positive"
        );
        Bounds {
            x0: 0.0,
            y0: 0.0,
            x1: width,
            y1: height,
        }
    }

    /// An arbitrary rectangle from corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty or inverted.
    #[must_use]
    pub fn from_corners(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        assert!(x0 < x1 && y0 < y1, "empty or inverted bounds");
        Bounds { x0, y0, x1, y1 }
    }

    /// Width of the rectangle.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height of the rectangle.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// The centre point.
    #[must_use]
    pub fn center(&self) -> Vec2 {
        Vec2::new((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// True when `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.x0 && p.x <= self.x1 && p.y >= self.y0 && p.y <= self.y1
    }

    /// Clamps `p` onto the rectangle.
    #[must_use]
    pub fn clamp(&self, p: Vec2) -> Vec2 {
        Vec2::new(p.x.clamp(self.x0, self.x1), p.y.clamp(self.y0, self.y1))
    }

    /// Mirror-reflects a point that stepped outside back in, flipping the
    /// matching direction components — the standard "billiard" boundary.
    ///
    /// Returns the reflected position and direction. Points that are inside
    /// pass through unchanged. Reflection is applied repeatedly, so even a
    /// large overshoot lands inside.
    #[must_use]
    pub fn reflect(&self, mut p: Vec2, mut dir: Vec2) -> (Vec2, Vec2) {
        // A bounded loop: each pass halves the overshoot; positions produced
        // by the simulator overshoot by at most one velocity step.
        for _ in 0..64 {
            let mut bounced = false;
            if p.x < self.x0 {
                p.x = 2.0 * self.x0 - p.x;
                dir.x = -dir.x;
                bounced = true;
            } else if p.x > self.x1 {
                p.x = 2.0 * self.x1 - p.x;
                dir.x = -dir.x;
                bounced = true;
            }
            if p.y < self.y0 {
                p.y = 2.0 * self.y0 - p.y;
                dir.y = -dir.y;
                bounced = true;
            } else if p.y > self.y1 {
                p.y = 2.0 * self.y1 - p.y;
                dir.y = -dir.y;
                bounced = true;
            }
            if !bounced {
                return (p, dir);
            }
        }
        (self.clamp(p), dir)
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.1},{:.1}]x[{:.1},{:.1}]",
            self.x0, self.x1, self.y0, self.y1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(b - a, Vec2::new(2.0, -3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn from_angle_is_unit() {
        for i in 0..16 {
            let a = i as f64 * std::f64::consts::TAU / 16.0;
            assert!((Vec2::from_angle(a).length() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bounds_contains_and_clamp() {
        let b = Bounds::new(10.0, 5.0);
        assert!(b.contains(Vec2::new(0.0, 0.0)));
        assert!(b.contains(Vec2::new(10.0, 5.0)));
        assert!(!b.contains(Vec2::new(10.1, 0.0)));
        assert_eq!(b.clamp(Vec2::new(-3.0, 9.0)), Vec2::new(0.0, 5.0));
        assert_eq!(b.center(), Vec2::new(5.0, 2.5));
    }

    #[test]
    fn reflect_bounces_off_each_edge() {
        let b = Bounds::new(10.0, 10.0);
        let (p, d) = b.reflect(Vec2::new(-1.0, 5.0), Vec2::new(-1.0, 0.0));
        assert_eq!(p, Vec2::new(1.0, 5.0));
        assert_eq!(d, Vec2::new(1.0, 0.0));
        let (p, d) = b.reflect(Vec2::new(5.0, 12.0), Vec2::new(0.0, 1.0));
        assert_eq!(p, Vec2::new(5.0, 8.0));
        assert_eq!(d, Vec2::new(0.0, -1.0));
    }

    #[test]
    fn reflect_handles_corner_overshoot() {
        let b = Bounds::new(10.0, 10.0);
        let (p, _) = b.reflect(Vec2::new(11.0, -2.0), Vec2::new(1.0, -1.0));
        assert!(b.contains(p));
    }

    #[test]
    fn reflect_inside_is_identity() {
        let b = Bounds::new(10.0, 10.0);
        let dir = Vec2::new(0.3, -0.7);
        let (p, d) = b.reflect(Vec2::new(4.0, 4.0), dir);
        assert_eq!(p, Vec2::new(4.0, 4.0));
        assert_eq!(d, dir);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn empty_bounds_panics() {
        let _ = Bounds::new(0.0, 5.0);
    }
}
