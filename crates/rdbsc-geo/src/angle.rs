//! Angles and angular ranges with wrap-around semantics.
//!
//! Workers in RDB-SC register a moving-direction cone `[α⁻, α⁺]`
//! (Definition 2). Because directions live on a circle, the range may wrap
//! around `2π` (e.g. a worker heading roughly east could register
//! `[7π/4, π/4]`). [`AngleRange`] models such ranges explicitly, and also
//! provides the *minimal covering arc* operation needed by the grid index's
//! cell-level pruning (Section 7.1).

use std::f64::consts::PI;

/// One full turn, `2π`.
pub const FULL_TURN: f64 = 2.0 * PI;

/// Normalises an angle (radians) into `[0, 2π)`.
#[inline]
pub fn normalize_angle(a: f64) -> f64 {
    let mut r = a % FULL_TURN;
    if r < 0.0 {
        r += FULL_TURN;
    }
    // `-1e-18 % 2π` can round to exactly 2π after the addition.
    if r >= FULL_TURN {
        r -= FULL_TURN;
    }
    r
}

/// Counter-clockwise angular difference `to - from`, normalised into
/// `[0, 2π)`.
#[inline]
pub fn ccw_delta(from: f64, to: f64) -> f64 {
    normalize_angle(to - from)
}

/// A closed angular interval travelled counter-clockwise from `start` to
/// `start + width`, with `width ∈ [0, 2π]`.
///
/// `width == 2π` represents the full circle (a worker with no preferred
/// direction registers `[0, 2π]` per the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngleRange {
    start: f64,
    width: f64,
}

impl AngleRange {
    /// Builds a range from its start angle and width (radians).
    ///
    /// The start is normalised into `[0, 2π)`; the width is clamped into
    /// `[0, 2π]`.
    pub fn new(start: f64, width: f64) -> Self {
        let width = width.clamp(0.0, FULL_TURN);
        Self {
            start: normalize_angle(start),
            width,
        }
    }

    /// Builds the range that goes counter-clockwise from `from` to `to`
    /// (the paper's `[α⁻, α⁺]` notation). If `from == to` the range is a
    /// single direction (width 0).
    pub fn from_bounds(from: f64, to: f64) -> Self {
        let from_n = normalize_angle(from);
        let to_n = normalize_angle(to);
        let width = if (to - from).abs() >= FULL_TURN {
            FULL_TURN
        } else {
            ccw_delta(from_n, to_n)
        };
        Self {
            start: from_n,
            width,
        }
    }

    /// The full circle `[0, 2π]` — a worker free to move in any direction.
    pub fn full() -> Self {
        Self {
            start: 0.0,
            width: FULL_TURN,
        }
    }

    /// A degenerate range containing only `angle`.
    pub fn singleton(angle: f64) -> Self {
        Self::new(angle, 0.0)
    }

    /// Start of the range (`α⁻`), in `[0, 2π)`.
    #[inline]
    pub fn start(&self) -> f64 {
        self.start
    }

    /// End of the range (`α⁺`), in `[0, 2π)` (may be numerically "before"
    /// `start` when the range wraps).
    #[inline]
    pub fn end(&self) -> f64 {
        normalize_angle(self.start + self.width)
    }

    /// Angular width of the range, in `[0, 2π]`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// `true` when the range covers the whole circle.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.width >= FULL_TURN - crate::EPSILON
    }

    /// Does the range contain direction `angle` (inclusive at both ends,
    /// with a small tolerance)?
    pub fn contains(&self, angle: f64) -> bool {
        if self.is_full() {
            return true;
        }
        let delta = ccw_delta(self.start, angle);
        delta <= self.width + crate::EPSILON || (FULL_TURN - delta) <= crate::EPSILON
        // angle == start from the other side
    }

    /// The midpoint direction of the range.
    pub fn mid(&self) -> f64 {
        normalize_angle(self.start + self.width / 2.0)
    }

    /// Does this range intersect `other`?
    pub fn intersects(&self, other: &AngleRange) -> bool {
        if self.is_full() || other.is_full() {
            return true;
        }
        self.contains(other.start)
            || self.contains(other.end())
            || other.contains(self.start)
            || other.contains(self.end())
    }

    /// Is `other` entirely contained in `self`?
    pub fn contains_range(&self, other: &AngleRange) -> bool {
        if self.is_full() {
            return true;
        }
        if other.is_full() {
            return false;
        }
        let offset = ccw_delta(self.start, other.start);
        offset <= self.width + crate::EPSILON && offset + other.width <= self.width + crate::EPSILON
    }

    /// The smallest range containing both `self` and `other`.
    ///
    /// Used to maintain the per-cell angular hull of worker headings in the
    /// grid index. The union arc must start at one of the two starts and end
    /// at one of the two ends; the smallest such candidate covering both
    /// inputs is returned (or the full circle when no proper arc covers
    /// both).
    pub fn union_hull(&self, other: &AngleRange) -> AngleRange {
        if self.is_full() || other.is_full() {
            return AngleRange::full();
        }
        let mut best = AngleRange::full();
        for &start in &[self.start, other.start] {
            for &end in &[self.end(), other.end()] {
                let cand = AngleRange::new(start, ccw_delta(start, end));
                if cand.contains_range(self)
                    && cand.contains_range(other)
                    && cand.width < best.width
                {
                    best = cand;
                }
            }
        }
        best
    }

    /// The minimal arc covering every angle in `angles`.
    ///
    /// For a disjoint pair of convex regions, the set of directions from one
    /// to the other is exactly the set of angles of their Minkowski
    /// difference's vertices' hull; this helper computes the covering arc of
    /// such a finite angle set (complement of the largest gap between
    /// consecutive sorted angles). Returns the full circle for an empty
    /// slice.
    pub fn covering_arc(angles: &[f64]) -> AngleRange {
        Self::covering_arc_in_place(&mut angles.to_vec())
    }

    /// [`AngleRange::covering_arc`] without the copy: normalises and sorts
    /// `angles` where they lie, so a caller with a fixed-size buffer
    /// allocates nothing.
    pub fn covering_arc_in_place(angles: &mut [f64]) -> AngleRange {
        if angles.is_empty() {
            return AngleRange::full();
        }
        if angles.len() == 1 {
            return AngleRange::singleton(angles[0]);
        }
        for a in angles.iter_mut() {
            *a = normalize_angle(*a);
        }
        angles.sort_unstable_by(|a, b| a.partial_cmp(b).expect("angles must not be NaN"));
        let sorted = &*angles;
        // Find the largest gap between consecutive angles (circularly).
        let mut best_gap = -1.0;
        let mut best_after = 0usize; // the arc starts right after this index
        for i in 0..sorted.len() {
            let next = sorted[(i + 1) % sorted.len()];
            let gap = if i + 1 == sorted.len() {
                ccw_delta(sorted[i], next + FULL_TURN)
            } else {
                next - sorted[i]
            };
            let gap = normalize_angle(gap);
            let gap = if gap == 0.0 && sorted.len() > 1 && i + 1 == sorted.len() {
                FULL_TURN
            } else {
                gap
            };
            if gap > best_gap {
                best_gap = gap;
                best_after = i;
            }
        }
        let start = sorted[(best_after + 1) % sorted.len()];
        let width = FULL_TURN - best_gap;
        AngleRange::new(start, width.max(0.0))
    }
}

impl Default for AngleRange {
    fn default() -> Self {
        AngleRange::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn normalize_into_unit_circle() {
        assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(-FRAC_PI_2) - 1.5 * PI).abs() < 1e-12);
        assert_eq!(normalize_angle(0.0), 0.0);
        assert!(normalize_angle(-1e-18) < FULL_TURN);
    }

    #[test]
    fn ccw_delta_wraps() {
        assert!((ccw_delta(1.5 * PI, FRAC_PI_2) - PI).abs() < 1e-12);
        assert!((ccw_delta(FRAC_PI_2, 1.5 * PI) - PI).abs() < 1e-12);
        assert_eq!(ccw_delta(1.0, 1.0), 0.0);
    }

    #[test]
    fn contains_simple_range() {
        let r = AngleRange::from_bounds(FRAC_PI_4, FRAC_PI_2);
        assert!(r.contains(FRAC_PI_4));
        assert!(r.contains(FRAC_PI_2));
        assert!(r.contains(0.3 * PI));
        assert!(!r.contains(PI));
        assert!(!r.contains(0.0));
    }

    #[test]
    fn contains_wrapping_range() {
        // from 7π/4 to π/4, crossing 0.
        let r = AngleRange::from_bounds(1.75 * PI, FRAC_PI_4);
        assert!(r.contains(0.0));
        assert!(r.contains(1.9 * PI));
        assert!(r.contains(0.2));
        assert!(!r.contains(PI));
        assert!((r.width() - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn full_range_contains_everything() {
        let r = AngleRange::full();
        for i in 0..64 {
            assert!(r.contains(i as f64 * 0.1));
        }
        assert!(r.is_full());
    }

    #[test]
    fn mid_of_wrapping_range() {
        let r = AngleRange::from_bounds(1.75 * PI, FRAC_PI_4);
        assert!((r.mid() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn intersects_detects_overlap_and_disjoint() {
        let a = AngleRange::from_bounds(0.0, FRAC_PI_2);
        let b = AngleRange::from_bounds(FRAC_PI_4, PI);
        let c = AngleRange::from_bounds(PI + 0.1, 1.5 * PI);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!c.intersects(&a));
        assert!(a.intersects(&AngleRange::full()));
    }

    #[test]
    fn union_hull_covers_both() {
        let a = AngleRange::from_bounds(0.0, FRAC_PI_4);
        let b = AngleRange::from_bounds(PI, PI + FRAC_PI_4);
        let u = a.union_hull(&b);
        for probe in [0.0, 0.1, FRAC_PI_4, PI, PI + 0.1, PI + FRAC_PI_4] {
            assert!(u.contains(probe), "union must contain {probe}");
        }
        // Must pick the smaller covering side.
        assert!(u.width() < FULL_TURN);
    }

    #[test]
    fn union_hull_overlapping() {
        let a = AngleRange::from_bounds(0.0, FRAC_PI_2);
        let b = AngleRange::from_bounds(FRAC_PI_4, PI);
        let u = a.union_hull(&b);
        assert!(u.contains(0.0) && u.contains(PI) && u.contains(FRAC_PI_2));
        assert!((u.width() - PI).abs() < 1e-9);
    }

    #[test]
    fn covering_arc_of_clustered_angles() {
        let arc = AngleRange::covering_arc(&[0.1, 0.2, 0.4]);
        assert!(arc.contains(0.1) && arc.contains(0.2) && arc.contains(0.4));
        assert!((arc.width() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn covering_arc_wrapping_cluster() {
        let arc = AngleRange::covering_arc(&[6.2, 0.1, 0.05]);
        assert!(arc.contains(6.2) && arc.contains(0.1) && arc.contains(0.05));
        assert!(arc.width() < 1.0, "wrap-around cluster must stay tight");
    }

    #[test]
    fn covering_arc_empty_and_single() {
        assert!(AngleRange::covering_arc(&[]).is_full());
        let single = AngleRange::covering_arc(&[1.0]);
        assert!(single.contains(1.0));
        assert_eq!(single.width(), 0.0);
    }

    #[test]
    fn from_bounds_full_turn() {
        let r = AngleRange::from_bounds(0.0, FULL_TURN);
        assert!(r.is_full());
    }
}
