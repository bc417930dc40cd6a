//! The query-region abstraction.
//!
//! The paper allows "any closed shape description which has a computationally
//! cheap point containment check" as a moving-query region. `Region` captures
//! that contract; the crate ships circle and rectangle regions, and downstream
//! code is generic where practical while the protocol's wire types use the
//! concrete [`QueryRegion`] enum so messages stay `Copy`.

use crate::circle::Circle;
use crate::point::Point;
use crate::rect::Rect;

/// A closed spatial region with cheap containment, bound to a focal point.
pub trait Region {
    /// Is `p` inside the region when the region is bound at `binding`?
    fn contains_from(&self, binding: Point, p: Point) -> bool;

    /// Tight bounding rectangle when bound at `binding`.
    fn bbox_from(&self, binding: Point) -> Rect;

    /// The maximum distance from the binding point to any point of the
    /// region. For a circle this is its radius; it drives bounding-box and
    /// safe-period computations.
    fn reach(&self) -> f64;
}

/// Concrete region shapes supported on the protocol wire.
///
/// `Circle` stores only the radius: the center always tracks the focal
/// object. `Rect` stores half-extents around the binding point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryRegion {
    /// Disc of the given radius centered on the focal object.
    Circle { radius: f64 },
    /// Axis-aligned rectangle with the given half-extents centered on the
    /// focal object.
    Rect { half_w: f64, half_h: f64 },
}

impl QueryRegion {
    #[inline]
    pub fn circle(radius: f64) -> Self {
        debug_assert!(radius >= 0.0 && radius.is_finite());
        QueryRegion::Circle { radius }
    }

    #[inline]
    pub fn rect(half_w: f64, half_h: f64) -> Self {
        debug_assert!(half_w >= 0.0 && half_h >= 0.0);
        QueryRegion::Rect { half_w, half_h }
    }
}

impl Region for QueryRegion {
    fn contains_from(&self, binding: Point, p: Point) -> bool {
        match *self {
            QueryRegion::Circle { radius } => Circle::new(binding, radius).contains_point(p),
            QueryRegion::Rect { half_w, half_h } => Rect::new(
                binding.x - half_w,
                binding.y - half_h,
                2.0 * half_w,
                2.0 * half_h,
            )
            .contains_point(p),
        }
    }

    fn bbox_from(&self, binding: Point) -> Rect {
        match *self {
            QueryRegion::Circle { radius } => Circle::new(binding, radius).bbox(),
            QueryRegion::Rect { half_w, half_h } => Rect::new(
                binding.x - half_w,
                binding.y - half_h,
                2.0 * half_w,
                2.0 * half_h,
            ),
        }
    }

    fn reach(&self) -> f64 {
        match *self {
            QueryRegion::Circle { radius } => radius,
            QueryRegion::Rect { half_w, half_h } => (half_w * half_w + half_h * half_h).sqrt(),
        }
    }
}

impl Region for Circle {
    fn contains_from(&self, binding: Point, p: Point) -> bool {
        self.at(binding).contains_point(p)
    }

    fn bbox_from(&self, binding: Point) -> Rect {
        self.at(binding).bbox()
    }

    fn reach(&self) -> f64 {
        self.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_region_contains_and_bbox() {
        let q = QueryRegion::circle(2.0);
        let b = Point::new(10.0, 10.0);
        assert!(q.contains_from(b, Point::new(11.0, 11.0)));
        assert!(q.contains_from(b, Point::new(12.0, 10.0))); // boundary
        assert!(!q.contains_from(b, Point::new(12.0, 12.0)));
        assert_eq!(q.bbox_from(b), Rect::new(8.0, 8.0, 4.0, 4.0));
        assert_eq!(q.reach(), 2.0);
    }

    #[test]
    fn rect_region_contains_and_bbox() {
        let q = QueryRegion::rect(1.0, 2.0);
        let b = Point::new(0.0, 0.0);
        assert!(q.contains_from(b, Point::new(1.0, 2.0))); // corner
        assert!(!q.contains_from(b, Point::new(1.5, 0.0)));
        assert_eq!(q.bbox_from(b), Rect::new(-1.0, -2.0, 2.0, 4.0));
        assert!((q.reach() - 5.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn region_moves_with_binding_point() {
        let q = QueryRegion::circle(1.0);
        assert!(q.contains_from(Point::new(0.0, 0.0), Point::new(0.5, 0.0)));
        assert!(!q.contains_from(Point::new(10.0, 0.0), Point::new(0.5, 0.0)));
        assert!(q.contains_from(Point::new(10.0, 0.0), Point::new(10.5, 0.0)));
    }

    #[test]
    fn circle_type_implements_region() {
        let c = Circle::new(Point::ORIGIN, 3.0);
        assert!(c.contains_from(Point::new(1.0, 1.0), Point::new(2.0, 1.0)));
        assert_eq!(c.reach(), 3.0);
        assert_eq!(
            c.bbox_from(Point::new(5.0, 5.0)),
            Rect::new(2.0, 2.0, 6.0, 6.0)
        );
    }
}
