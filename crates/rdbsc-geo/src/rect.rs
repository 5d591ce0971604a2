//! Axis-aligned rectangles, used for grid-index cells.

use crate::angle::AngleRange;
use crate::point::Point;

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub min_x: f64,
    /// Bottom edge.
    pub min_y: f64,
    /// Right edge.
    pub max_x: f64,
    /// Top edge.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its min/max corners. Panics (debug builds)
    /// when the corners are inverted.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rectangle");
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The unit square `[0,1]²` used by the synthetic workloads.
    pub fn unit() -> Self {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    /// Rectangle from two opposite corner points.
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// The four corner points, counter-clockwise from the min corner.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.min_y),
            Point::new(self.max_x, self.max_y),
            Point::new(self.min_x, self.max_y),
        ]
    }

    /// Does the rectangle contain `p` (inclusive boundaries)?
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Do the two rectangles intersect (inclusive boundaries)?
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// The closest point of the rectangle to `p` (i.e. `p` clamped onto the
    /// rectangle).
    #[inline]
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min_x, self.max_x),
            p.y.clamp(self.min_y, self.max_y),
        )
    }

    /// Minimum distance from point `p` to the rectangle (0 when inside).
    pub fn min_distance_to_point(&self, p: Point) -> f64 {
        p.distance(self.clamp_point(p))
    }

    /// Maximum distance from point `p` to any point of the rectangle.
    pub fn max_distance_to_point(&self, p: Point) -> f64 {
        self.corners()
            .iter()
            .map(|c| p.distance(*c))
            .fold(0.0, f64::max)
    }

    /// Minimum distance between any two points of `self` and `other`
    /// (0 when the rectangles intersect).
    ///
    /// This is the `d_min` used by the grid index's cell-level pruning: any
    /// worker in one cell needs at least `d_min / v_max` time to reach the
    /// other cell.
    pub fn min_distance(&self, other: &Rect) -> f64 {
        let dx = (other.min_x - self.max_x)
            .max(self.min_x - other.max_x)
            .max(0.0);
        let dy = (other.min_y - self.max_y)
            .max(self.min_y - other.max_y)
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum distance between any two points of `self` and `other`
    /// (attained at a pair of corners).
    pub fn max_distance(&self, other: &Rect) -> f64 {
        let mut best: f64 = 0.0;
        for a in self.corners() {
            for b in other.corners() {
                best = best.max(a.distance(b));
            }
        }
        best
    }

    /// The set of directions from points of `self` towards points of
    /// `other`, as a covering [`AngleRange`].
    ///
    /// For *disjoint* convex sets this is exact: the direction set is the
    /// angular extent of the Minkowski difference `other ⊖ self` — for two
    /// rectangles the rectangle `[other.min − self.max, other.max − self.min]`
    /// — a convex polygon not containing the origin, whose angular extremes
    /// are attained at its corners. When the rectangles intersect, every
    /// direction is possible and the full circle is returned.
    pub fn direction_range_to(&self, other: &Rect) -> AngleRange {
        if self.intersects(other) {
            return AngleRange::full();
        }
        Rect {
            min_x: other.min_x - self.max_x,
            min_y: other.min_y - self.max_y,
            max_x: other.max_x - self.min_x,
            max_y: other.max_y - self.min_y,
        }
        .directions_from_origin()
    }

    /// The set of directions from the origin towards points of the
    /// rectangle: the covering arc of its four corners (four `atan2`, no
    /// allocation). The full circle when the origin lies strictly inside; a
    /// half-plane or quadrant when it lies on an edge or at a corner (a
    /// corner *at* the origin has no direction and is skipped).
    pub fn directions_from_origin(&self) -> AngleRange {
        if self.min_x < 0.0 && self.max_x > 0.0 && self.min_y < 0.0 && self.max_y > 0.0 {
            return AngleRange::full();
        }
        let mut angles = [0.0f64; 4];
        let mut n = 0;
        for corner in self.corners() {
            if corner != Point::ORIGIN {
                angles[n] = Point::ORIGIN.direction_to(corner);
                n += 1;
            }
        }
        AngleRange::covering_arc_in_place(&mut angles[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn contains_and_clamp() {
        let r = Rect::new(0.0, 0.0, 2.0, 1.0);
        assert!(r.contains(Point::new(1.0, 0.5)));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(!r.contains(Point::new(2.1, 0.5)));
        assert_eq!(r.clamp_point(Point::new(3.0, -1.0)), Point::new(2.0, 0.0));
    }

    #[test]
    fn min_max_distance_between_disjoint_rects() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 0.0, 3.0, 1.0);
        assert!((a.min_distance(&b) - 1.0).abs() < 1e-12);
        // farthest corners: (0,0)-(3,1) or (0,1)-(3,0): sqrt(9+1)
        assert!((a.max_distance(&b) - 10.0_f64.sqrt()).abs() < 1e-12);
        // symmetric
        assert!((b.min_distance(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_distance_zero_when_overlapping() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(0.5, 0.5, 2.0, 2.0);
        assert_eq!(a.min_distance(&b), 0.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn diagonal_min_distance() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 2.0, 3.0, 3.0);
        assert!((a.min_distance(&b) - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn point_distance_helpers() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.min_distance_to_point(Point::new(0.5, 0.5)), 0.0);
        assert!((r.min_distance_to_point(Point::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
        assert!((r.max_distance_to_point(Point::new(0.0, 0.0)) - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn direction_range_east_neighbor() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(3.0, 0.0, 4.0, 1.0);
        let dir = a.direction_range_to(&b);
        // Roughly east: should contain angle 0 and not contain π.
        assert!(dir.contains(0.0));
        assert!(!dir.contains(PI));
        assert!(dir.width() < PI);
    }

    #[test]
    fn direction_range_full_when_overlapping() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(0.5, 0.5, 1.5, 1.5);
        assert!(a.direction_range_to(&b).is_full());
    }

    #[test]
    fn direction_range_contains_sampled_directions() {
        // Exactness check by sampling interior points of both rects.
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.5, 3.0, 3.5, 4.0);
        let dir = a.direction_range_to(&b);
        for i in 0..5 {
            for j in 0..5 {
                let pa = Point::new(0.25 * i as f64, 0.25 * j as f64);
                let pb = Point::new(2.5 + 0.25 * i as f64, 3.0 + 0.25 * j as f64);
                assert!(
                    dir.contains(pa.direction_to(pb)),
                    "direction from {pa} to {pb} must be covered"
                );
            }
        }
    }

    #[test]
    fn unit_rect_basics() {
        let u = Rect::unit();
        assert_eq!(u.width(), 1.0);
        assert_eq!(u.height(), 1.0);
        assert_eq!(u.center(), Point::new(0.5, 0.5));
        assert_eq!(u.corners().len(), 4);
    }

    #[test]
    fn from_corners_normalises() {
        let r = Rect::from_corners(Point::new(1.0, 2.0), Point::new(-1.0, 0.0));
        assert_eq!(r, Rect::new(-1.0, 0.0, 1.0, 2.0));
    }
}
