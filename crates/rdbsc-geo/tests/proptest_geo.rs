//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use rdbsc_geo::{normalize_angle, AngleRange, MotionModel, Point, Rect, FULL_TURN};

proptest! {
    /// Normalised angles always land in [0, 2π).
    #[test]
    fn normalize_angle_in_range(a in -1e6f64..1e6f64) {
        let n = normalize_angle(a);
        prop_assert!((0.0..FULL_TURN).contains(&n));
    }

    /// Normalisation is idempotent.
    #[test]
    fn normalize_angle_idempotent(a in -1e3f64..1e3f64) {
        let n = normalize_angle(a);
        prop_assert!((normalize_angle(n) - n).abs() < 1e-12);
    }

    /// An AngleRange always contains its own bounds and its midpoint.
    #[test]
    fn angle_range_contains_bounds(start in 0.0..FULL_TURN, width in 0.0..FULL_TURN) {
        let r = AngleRange::new(start, width);
        prop_assert!(r.contains(r.start()));
        prop_assert!(r.contains(r.end()));
        prop_assert!(r.contains(r.mid()));
    }

    /// The union hull contains both input ranges (checked by sampling).
    #[test]
    fn union_hull_covers_inputs(
        s1 in 0.0..FULL_TURN, w1 in 0.0..3.0f64,
        s2 in 0.0..FULL_TURN, w2 in 0.0..3.0f64,
        t in 0.0f64..1.0f64,
    ) {
        let a = AngleRange::new(s1, w1);
        let b = AngleRange::new(s2, w2);
        let u = a.union_hull(&b);
        // sample a point inside each source range
        let pa = normalize_angle(a.start() + t * a.width());
        let pb = normalize_angle(b.start() + t * b.width());
        prop_assert!(u.contains(pa), "union {u:?} missing point {pa} of a={a:?}");
        prop_assert!(u.contains(pb), "union {u:?} missing point {pb} of b={b:?}");
    }

    /// The covering arc of a set of angles contains every angle of the set.
    #[test]
    fn covering_arc_contains_all(angles in proptest::collection::vec(0.0..FULL_TURN, 1..12)) {
        let arc = AngleRange::covering_arc(&angles);
        for &a in &angles {
            prop_assert!(arc.contains(a), "arc {arc:?} missing {a}");
        }
    }

    /// Distance is symmetric and satisfies the triangle inequality.
    #[test]
    fn distance_metric_properties(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0,
        cx in -10.0f64..10.0, cy in -10.0f64..10.0,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let c = Point::new(cx, cy);
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }

    /// Rect min/max distance bracket the distance between any contained points.
    #[test]
    fn rect_min_max_distance_bracket(
        ax in -5.0f64..5.0, ay in -5.0f64..5.0, aw in 0.0f64..3.0, ah in 0.0f64..3.0,
        bx in -5.0f64..5.0, by in -5.0f64..5.0, bw in 0.0f64..3.0, bh in 0.0f64..3.0,
        t1 in 0.0f64..1.0, t2 in 0.0f64..1.0, t3 in 0.0f64..1.0, t4 in 0.0f64..1.0,
    ) {
        let ra = Rect::new(ax, ay, ax + aw, ay + ah);
        let rb = Rect::new(bx, by, bx + bw, by + bh);
        let pa = Point::new(ax + t1 * aw, ay + t2 * ah);
        let pb = Point::new(bx + t3 * bw, by + t4 * bh);
        let d = pa.distance(pb);
        prop_assert!(ra.min_distance(&rb) <= d + 1e-9);
        prop_assert!(ra.max_distance(&rb) >= d - 1e-9);
    }

    /// The direction range between two rects covers the direction between any
    /// pair of contained points.
    #[test]
    fn rect_direction_range_is_sound(
        ax in -5.0f64..5.0, ay in -5.0f64..5.0,
        bx in -5.0f64..5.0, by in -5.0f64..5.0,
        t1 in 0.0f64..1.0, t2 in 0.0f64..1.0, t3 in 0.0f64..1.0, t4 in 0.0f64..1.0,
    ) {
        let ra = Rect::new(ax, ay, ax + 0.5, ay + 0.5);
        let rb = Rect::new(bx, by, bx + 0.5, by + 0.5);
        let dir = ra.direction_range_to(&rb);
        let pa = Point::new(ax + t1 * 0.5, ay + t2 * 0.5);
        let pb = Point::new(bx + t3 * 0.5, by + t4 * 0.5);
        if pa != pb {
            prop_assert!(dir.contains(pa.direction_to(pb)));
        }
    }

    /// The four-corner Minkowski form of `direction_range_to` agrees with the
    /// sixteen-corner-pair form it replaced: same arc on disjoint rectangles,
    /// the full circle exactly when they intersect.
    #[test]
    fn rect_direction_range_matches_the_corner_pair_form(
        ax in -5.0f64..5.0, ay in -5.0f64..5.0, aw in 0.01f64..2.0, ah in 0.01f64..2.0,
        bx in -5.0f64..5.0, by in -5.0f64..5.0, bw in 0.01f64..2.0, bh in 0.01f64..2.0,
    ) {
        let ra = Rect::new(ax, ay, ax + aw, ay + ah);
        let rb = Rect::new(bx, by, bx + bw, by + bh);
        let dir = ra.direction_range_to(&rb);
        prop_assert_eq!(dir.is_full(), ra.intersects(&rb));
        if !ra.intersects(&rb) {
            let mut angles = Vec::with_capacity(16);
            for a in ra.corners() {
                for b in rb.corners() {
                    angles.push(a.direction_to(b));
                }
            }
            let old = AngleRange::covering_arc(&angles);
            let start_gap = (dir.start() - old.start()).abs();
            prop_assert!(start_gap.min(FULL_TURN - start_gap) < 1e-12, "{dir:?} vs {old:?}");
            prop_assert!((dir.width() - old.width()).abs() < 1e-12, "{dir:?} vs {old:?}");
        }
    }

    /// A worker can always reach a task at its own location with a generous
    /// window, and arrival times grow with distance along an allowed direction.
    #[test]
    fn reachability_monotone_in_distance(
        speed in 0.05f64..2.0,
        d1 in 0.0f64..1.0,
        d2 in 0.0f64..1.0,
    ) {
        let w = MotionModel::new(Point::ORIGIN, speed, AngleRange::full());
        let near = Point::new(d1.min(d2), 0.0);
        let far = Point::new(d1.max(d2), 0.0);
        let t_near = w.travel_time(near).unwrap();
        let t_far = w.travel_time(far).unwrap();
        prop_assert!(t_near <= t_far + 1e-9);
        prop_assert!(w.can_reach(Point::ORIGIN, 0.0, 1.0, 0.0, true));
    }
}
