//! Angular and temporal coverage of a task's accepted answers.
//!
//! The paper's 3-D reconstruction showcase (Figures 19–20) demonstrates that
//! diverse assignments produce photos covering the landmark from many sides,
//! which is what makes the reconstructed model complete. A full
//! structure-from-motion pipeline is out of scope for this reproduction;
//! instead this module quantifies the same effect: how much of the full
//! circle the photo directions cover (given each camera's field of view) and
//! how much of the task's valid period the answer times cover (given a
//! temporal tolerance). Higher-diversity assignments score strictly higher
//! here, which is the property the showcase illustrates.

use rdbsc_geo::{normalize_angle, FULL_TURN};
use rdbsc_model::TimeWindow;

/// Coverage summary of one task's accepted answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageReport {
    /// Fraction of the full circle covered by the photo directions
    /// (each widened by the field of view).
    pub angular: f64,
    /// Fraction of the valid period covered by the answer times (each
    /// widened by the temporal tolerance).
    pub temporal: f64,
    /// Number of answers.
    pub answers: usize,
}

impl CoverageReport {
    /// A combined score `β·angular + (1−β)·temporal`.
    pub fn combined(&self, beta: f64) -> f64 {
        let beta = beta.clamp(0.0, 1.0);
        beta * self.angular + (1.0 - beta) * self.temporal
    }
}

/// Measures what fraction of intervals `[c − half, c + half]` (for the given
/// centres, on a circle of circumference `total`) is covered. Shared by the
/// angular and temporal coverage computations (the temporal one simply clamps
/// instead of wrapping).
fn covered_fraction_linear(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    let span = hi - lo;
    if span <= 0.0 || intervals.is_empty() {
        return 0.0;
    }
    for iv in &mut intervals {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
    }
    intervals.retain(|iv| iv.1 > iv.0);
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite bounds"));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for iv in intervals {
        match current {
            None => current = Some(iv),
            Some((s, e)) if iv.0 <= e => current = Some((s, e.max(iv.1))),
            Some((s, e)) => {
                covered += e - s;
                current = Some(iv);
            }
        }
    }
    if let Some((s, e)) = current {
        covered += e - s;
    }
    (covered / span).clamp(0.0, 1.0)
}

/// Fraction of the full circle covered by photo directions, each spanning
/// `field_of_view` radians.
pub fn angular_coverage(directions: &[f64], field_of_view: f64) -> f64 {
    if directions.is_empty() || field_of_view <= 0.0 {
        return 0.0;
    }
    if field_of_view >= FULL_TURN {
        return 1.0;
    }
    // Measure on [0, 2π): every arc is added three times (shifted by −2π, 0
    // and +2π) so that arcs wrapping around either end of the interval still
    // cover the right portion after clamping.
    let half = field_of_view / 2.0;
    let mut intervals = Vec::with_capacity(directions.len() * 3);
    for &d in directions {
        let c = normalize_angle(d);
        for shift in [-FULL_TURN, 0.0, FULL_TURN] {
            intervals.push((c - half + shift, c + half + shift));
        }
    }
    covered_fraction_linear(intervals, 0.0, FULL_TURN)
}

/// Fraction of the valid period covered by answer times, each spanning
/// `tolerance` time units.
pub fn temporal_coverage(times: &[f64], window: TimeWindow, tolerance: f64) -> f64 {
    if times.is_empty() || tolerance <= 0.0 || window.duration() <= 0.0 {
        return 0.0;
    }
    let half = tolerance / 2.0;
    let intervals = times
        .iter()
        .map(|&t| {
            let c = window.clamp(t);
            (c - half, c + half)
        })
        .collect();
    covered_fraction_linear(intervals, window.start, window.end)
}

/// Builds a coverage report from `(direction, time)` answer pairs.
pub fn coverage_report(
    answers: &[(f64, f64)],
    window: TimeWindow,
    field_of_view: f64,
    time_tolerance: f64,
) -> CoverageReport {
    let directions: Vec<f64> = answers.iter().map(|a| a.0).collect();
    let times: Vec<f64> = answers.iter().map(|a| a.1).collect();
    CoverageReport {
        angular: angular_coverage(&directions, field_of_view),
        temporal: temporal_coverage(&times, window, time_tolerance),
        answers: answers.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn window() -> TimeWindow {
        TimeWindow::new(0.0, 10.0).unwrap()
    }

    #[test]
    fn no_answers_no_coverage() {
        assert_eq!(angular_coverage(&[], 1.0), 0.0);
        assert_eq!(temporal_coverage(&[], window(), 1.0), 0.0);
    }

    #[test]
    fn single_photo_covers_its_field_of_view() {
        let c = angular_coverage(&[1.0], FRAC_PI_2);
        assert!((c - 0.25).abs() < 1e-9, "π/2 of 2π is 25 %, got {c}");
    }

    #[test]
    fn four_orthogonal_photos_cover_the_circle() {
        let dirs = [0.0, FRAC_PI_2, PI, 1.5 * PI];
        let c = angular_coverage(&dirs, FRAC_PI_2);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_photos_do_not_double_count() {
        let c = angular_coverage(&[0.0, 0.01, 0.02], FRAC_PI_2);
        assert!(
            c < 0.27,
            "clustered photos cover barely more than one, got {c}"
        );
    }

    #[test]
    fn wrapping_arcs_are_handled() {
        // A photo pointing at 0 covers both sides of the wrap point.
        let c = angular_coverage(&[0.0], 1.0);
        assert!((c - 1.0 / FULL_TURN).abs() < 1e-9);
        // Two photos straddling the wrap point merge correctly.
        let c2 = angular_coverage(&[0.1, FULL_TURN - 0.1], 0.4);
        assert!(
            c2 < 0.8 / FULL_TURN + 1e-9,
            "wrap-adjacent arcs overlap, got {c2}"
        );
        assert!(c2 > 0.5 / FULL_TURN);
    }

    #[test]
    fn diverse_directions_cover_more_than_clustered_ones() {
        let clustered = angular_coverage(&[0.0, 0.05, 0.1], 0.5);
        let diverse = angular_coverage(&[0.0, 2.0, 4.0], 0.5);
        assert!(diverse > clustered);
    }

    #[test]
    fn temporal_coverage_spreads_over_the_window() {
        let w = window();
        let spread = temporal_coverage(&[1.0, 5.0, 9.0], w, 2.0);
        let clustered = temporal_coverage(&[4.9, 5.0, 5.1], w, 2.0);
        assert!(spread > clustered);
        assert!((spread - 0.6).abs() < 1e-9);
    }

    #[test]
    fn temporal_coverage_clamps_at_the_window_edges() {
        let w = window();
        let c = temporal_coverage(&[0.0], w, 4.0);
        assert!(
            (c - 0.2).abs() < 1e-9,
            "half the tolerance falls outside the window"
        );
    }

    #[test]
    fn combined_report() {
        let w = window();
        let report = coverage_report(&[(0.0, 1.0), (PI, 9.0)], w, FRAC_PI_2, 2.0);
        assert_eq!(report.answers, 2);
        assert!((report.angular - 0.5).abs() < 1e-9);
        assert!((report.temporal - 0.4).abs() < 1e-9);
        assert!((report.combined(0.5) - 0.45).abs() < 1e-9);
        assert!((report.combined(1.0) - report.angular).abs() < 1e-12);
    }
}
