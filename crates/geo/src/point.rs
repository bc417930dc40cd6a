//! Points and 2-D vectors.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A location in the universe of discourse.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

/// A 2-D vector; used for velocities (distance units per second) and offsets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance; cheaper when only comparisons are needed.
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector from `self` to `other`.
    #[inline]
    pub fn to(&self, other: Point) -> Vec2 {
        Vec2::new(other.x - self.x, other.y - self.y)
    }

    /// True when both coordinates are finite (no NaN/inf).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Unit vector in the same direction, or zero when the vector is zero.
    pub fn normalized(&self) -> Vec2 {
        let n = self.norm();
        if n == 0.0 {
            Vec2::ZERO
        } else {
            Vec2::new(self.x / n, self.y / n)
        }
    }

    /// Unit vector for an angle in radians (0 = +x axis).
    #[inline]
    pub fn from_angle(theta: f64) -> Vec2 {
        Vec2::new(theta.cos(), theta.sin())
    }

    #[inline]
    pub fn dot(&self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, v: Vec2) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl AddAssign<Vec2> for Point {
    #[inline]
    fn add_assign(&mut self, v: Vec2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, v: Vec2) -> Point {
        Point::new(self.x - v.x, self.y - v.y)
    }
}

impl Sub<Point> for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, other: Point) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x + other.x, self.y + other.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, other: Vec2) {
        self.x += other.x;
        self.y += other.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, other: Vec2) {
        self.x -= other.x;
        self.y -= other.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(-3.0, 0.5);
        let b = Point::new(2.0, -1.5);
        assert!((a.distance_sq(b) - a.distance(b).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(1.0, 1.0);
        let v = Vec2::new(2.0, -0.5);
        assert_eq!(p + v, Point::new(3.0, 0.5));
        assert_eq!((p + v) - v, p);
        assert_eq!(p.to(p + v), v);
        assert_eq!((p + v) - p, v);
    }

    #[test]
    fn vector_scaling_and_norm() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!((v * 2.0).norm(), 10.0);
        assert_eq!((v / 5.0).norm(), 1.0);
        assert_eq!(-v, Vec2::new(-3.0, -4.0));
    }

    #[test]
    fn normalized_zero_vector_is_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let v = Vec2::new(0.0, 2.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_angle_produces_unit_vectors() {
        for k in 0..8 {
            let theta = k as f64 * std::f64::consts::FRAC_PI_4;
            let v = Vec2::from_angle(theta);
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
        let east = Vec2::from_angle(0.0);
        assert!((east.x - 1.0).abs() < 1e-12 && east.y.abs() < 1e-12);
    }

    #[test]
    fn dot_product() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a.dot(b), 1.0);
        // Orthogonal vectors have zero dot product.
        assert_eq!(Vec2::new(1.0, 0.0).dot(Vec2::new(0.0, 5.0)), 0.0);
    }

    #[test]
    fn finiteness_checks() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Vec2::new(0.0, f64::INFINITY).is_finite());
    }
}
