//! Spatial and temporal diversity of a concrete worker set (Eqs. 3–5).
//!
//! * **Spatial diversity** `SD(tᵢ)`: draw a ray from the task location
//!   towards each (successful) worker; the rays cut the circle into angular
//!   gaps `A₁..A_r` summing to `2π`; `SD` is the entropy of the gap
//!   fractions.
//! * **Temporal diversity** `TD(tᵢ)`: the workers' arrival times cut the
//!   valid period `[sᵢ, eᵢ]` into `r + 1` sub-intervals `I₁..I_{r+1}`;
//!   `TD` is the entropy of the sub-interval fractions.
//! * `STD = β·SD + (1−β)·TD` (Eq. 5).
//!
//! The paper writes `log` without a base; this implementation uses the
//! natural logarithm throughout (the base only rescales every diversity value
//! by the same constant, so comparisons between algorithms are unaffected).

use crate::task::TimeWindow;
use rdbsc_geo::{normalize_angle, FULL_TURN};

/// Entropy summand `h(x) = −x·ln(x)`, with `h(0) = 0`.
#[inline]
pub fn entropy_term(fraction: f64) -> f64 {
    if fraction <= 0.0 {
        0.0
    } else {
        -fraction * fraction.ln()
    }
}

/// Spatial diversity (Eq. 3) of a set of approach angles (radians).
///
/// With zero or one angle there is a single gap of `2π`, whose entropy is 0.
/// The maximum value for `r` angles is `ln(r)`, attained when the rays are
/// equally spaced.
pub fn spatial_diversity(angles: &[f64]) -> f64 {
    spatial_diversity_in_place(&mut angles.to_vec())
}

/// [`spatial_diversity`] without the copy: normalises and sorts `angles`
/// where they lie.
pub fn spatial_diversity_in_place(angles: &mut [f64]) -> f64 {
    if angles.len() < 2 {
        return 0.0;
    }
    for a in angles.iter_mut() {
        *a = normalize_angle(*a);
    }
    angles.sort_by(|a, b| a.partial_cmp(b).expect("angle must not be NaN"));
    let r = angles.len();
    let mut sum = 0.0;
    for j in 0..r {
        let next = if j + 1 == r {
            angles[0] + FULL_TURN
        } else {
            angles[j + 1]
        };
        let gap = next - angles[j];
        sum += entropy_term(gap / FULL_TURN);
    }
    sum
}

/// Temporal diversity (Eq. 4) of a set of arrival times within the task's
/// valid period.
///
/// Arrival times are clamped into the window (a worker that waits for the
/// window to open contributes an arrival at `s`). With zero arrivals the
/// whole window is a single interval and the diversity is 0. With `r`
/// arrivals the maximum is `ln(r + 1)`.
///
/// A degenerate window (`duration == 0`) has diversity 0.
pub fn temporal_diversity(arrivals: &[f64], window: TimeWindow) -> f64 {
    temporal_diversity_in_place(&mut arrivals.to_vec(), window)
}

/// [`temporal_diversity`] without the copy: clamps and sorts `arrivals`
/// where they lie.
pub fn temporal_diversity_in_place(arrivals: &mut [f64], window: TimeWindow) -> f64 {
    let duration = window.duration();
    if duration <= 0.0 || arrivals.is_empty() {
        return 0.0;
    }
    for t in arrivals.iter_mut() {
        *t = window.clamp(*t);
    }
    arrivals.sort_by(|a, b| a.partial_cmp(b).expect("arrival must not be NaN"));
    let mut sum = 0.0;
    let mut prev = window.start;
    for &t in arrivals.iter() {
        sum += entropy_term((t - prev) / duration);
        prev = t;
    }
    sum += entropy_term((window.end - prev) / duration);
    sum
}

/// Combined spatial/temporal diversity `STD = β·SD + (1−β)·TD` (Eq. 5).
///
/// `beta` is clamped into `[0, 1]` defensively.
pub fn std_diversity(beta: f64, sd: f64, td: f64) -> f64 {
    let beta = beta.clamp(0.0, 1.0);
    beta * sd + (1.0 - beta) * td
}

/// STD of a concrete set of worker contributions, given as
/// `(approach_angle, arrival_time)` pairs.
pub fn std_of_contributions(contributions: &[(f64, f64)], window: TimeWindow, beta: f64) -> f64 {
    let angles: Vec<f64> = contributions.iter().map(|c| c.0).collect();
    let arrivals: Vec<f64> = contributions.iter().map(|c| c.1).collect();
    std_diversity(
        beta,
        spatial_diversity(&angles),
        temporal_diversity(&arrivals, window),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn window(s: f64, e: f64) -> TimeWindow {
        TimeWindow::new(s, e).unwrap()
    }

    #[test]
    fn entropy_term_edge_cases() {
        assert_eq!(entropy_term(0.0), 0.0);
        assert_eq!(entropy_term(1.0), 0.0);
        assert!(entropy_term(0.5) > 0.0);
        assert_eq!(entropy_term(-0.1), 0.0);
    }

    #[test]
    fn spatial_diversity_trivial_cases() {
        assert_eq!(spatial_diversity(&[]), 0.0);
        assert_eq!(spatial_diversity(&[1.0]), 0.0);
    }

    #[test]
    fn spatial_diversity_two_opposite_angles_is_ln2() {
        let sd = spatial_diversity(&[0.0, PI]);
        assert!((sd - 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn spatial_diversity_equally_spaced_is_ln_r() {
        for r in 2..8usize {
            let angles: Vec<f64> = (0..r).map(|i| FULL_TURN * i as f64 / r as f64).collect();
            let sd = spatial_diversity(&angles);
            assert!(
                (sd - (r as f64).ln()).abs() < 1e-9,
                "r={r}: sd={sd}, expected {}",
                (r as f64).ln()
            );
        }
    }

    #[test]
    fn spatial_diversity_clustered_angles_is_low() {
        let clustered = spatial_diversity(&[0.0, 0.01, 0.02]);
        let spread = spatial_diversity(&[0.0, 2.0, 4.0]);
        assert!(clustered < spread);
    }

    #[test]
    fn spatial_diversity_max_bound() {
        // entropy of r gaps is at most ln(r)
        let angles = [0.3, 1.1, 2.9, 4.4, 5.0];
        assert!(spatial_diversity(&angles) <= (angles.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn spatial_diversity_invariant_to_rotation() {
        let a = [0.1, 1.5, 3.0, 5.5];
        let b: Vec<f64> = a.iter().map(|x| x + 1.234).collect();
        assert!((spatial_diversity(&a) - spatial_diversity(&b)).abs() < 1e-9);
    }

    #[test]
    fn temporal_diversity_trivial_cases() {
        let w = window(0.0, 10.0);
        assert_eq!(temporal_diversity(&[], w), 0.0);
        assert_eq!(temporal_diversity(&[3.0], window(5.0, 5.0)), 0.0);
    }

    #[test]
    fn temporal_diversity_single_midpoint_arrival_is_ln2() {
        let w = window(0.0, 10.0);
        let td = temporal_diversity(&[5.0], w);
        assert!((td - 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn temporal_diversity_equally_spaced_is_ln_r_plus_1() {
        let w = window(0.0, 12.0);
        // arrivals at 4 and 8 cut [0,12] into three equal intervals
        let td = temporal_diversity(&[4.0, 8.0], w);
        assert!((td - 3.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn temporal_diversity_boundary_arrivals_contribute_zero_intervals() {
        let w = window(0.0, 10.0);
        // an arrival exactly at the start produces a zero-length first interval
        let td = temporal_diversity(&[0.0], w);
        assert_eq!(td, 0.0);
        // arrivals outside the window are clamped
        let td = temporal_diversity(&[-5.0, 20.0], w);
        assert_eq!(td, 0.0);
    }

    #[test]
    fn temporal_diversity_is_order_independent() {
        let w = window(0.0, 10.0);
        assert!(
            (temporal_diversity(&[2.0, 7.0, 4.0], w) - temporal_diversity(&[7.0, 2.0, 4.0], w))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn std_combines_with_beta() {
        let sd = 1.0;
        let td = 3.0;
        assert_eq!(std_diversity(1.0, sd, td), 1.0);
        assert_eq!(std_diversity(0.0, sd, td), 3.0);
        assert!((std_diversity(0.5, sd, td) - 2.0).abs() < 1e-12);
        // defensive clamping
        assert_eq!(std_diversity(2.0, sd, td), 1.0);
    }

    #[test]
    fn std_of_contributions_matches_components() {
        let w = window(0.0, 10.0);
        let contributions = [(0.0, 5.0), (PI, 2.5)];
        let expected = std_diversity(
            0.3,
            spatial_diversity(&[0.0, PI]),
            temporal_diversity(&[5.0, 2.5], w),
        );
        assert!((std_of_contributions(&contributions, w, 0.3) - expected).abs() < 1e-12);
    }
}
