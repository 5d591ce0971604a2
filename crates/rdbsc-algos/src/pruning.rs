//! Lower/upper bounds on the expected diversity and on the diversity
//! *increase* of a candidate pair (Section 4.3, Lemma 4.3).
//!
//! Computing the exact expected diversity increase `ΔSTD(tᵢ, wⱼ)` for every
//! candidate pair is the expensive part of the greedy algorithm. The paper
//! derives cheap bounds:
//!
//! * upper bound of `E[STD]`: the deterministic `STD` of the full worker set
//!   (every possible world's diversity is at most that, by monotonicity —
//!   Lemma 4.2);
//! * lower bound of `E[STD]`: the probability that the diversity is non-zero
//!   times the smallest possible non-zero diversity (attained by the closest
//!   pair of rays for SD and by the most lop-sided single arrival for TD).
//!
//! The bounds on the increase follow by differencing
//! (`lb_Δ = lb_after − ub_before`, `ub_Δ = ub_after − lb_before`), and
//! Lemma 4.3 lets the greedy algorithm discard a pair whose upper bound is
//! below another pair's lower bound.

use rdbsc_geo::FULL_TURN;
use rdbsc_model::diversity::{
    entropy_term, spatial_diversity_in_place, temporal_diversity_in_place,
};
use rdbsc_model::{Contribution, TimeWindow};

/// A `[lower, upper]` interval bounding an expected diversity value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiversityBounds {
    /// Greatest provable lower bound.
    pub lower: f64,
    /// Least provable upper bound.
    pub upper: f64,
}

impl DiversityBounds {
    /// The exact-zero bounds (empty worker set).
    pub fn zero() -> Self {
        Self {
            lower: 0.0,
            upper: 0.0,
        }
    }
}

/// Entropy of a two-part split with fractions `x` and `1 − x`.
fn two_part_entropy(x: f64) -> f64 {
    entropy_term(x) + entropy_term(1.0 - x)
}

/// Probability that at least one of the workers succeeds.
fn prob_at_least_one(contributions: &[Contribution]) -> f64 {
    1.0 - contributions.iter().map(|c| 1.0 - c.p()).product::<f64>()
}

/// Probability that at least two of the workers succeed.
fn prob_at_least_two(contributions: &[Contribution]) -> f64 {
    let none: f64 = contributions.iter().map(|c| 1.0 - c.p()).product();
    let exactly_one: f64 = contributions
        .iter()
        .enumerate()
        .map(|(j, c)| {
            c.p()
                * contributions
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != j)
                    .map(|(_, o)| 1.0 - o.p())
                    .product::<f64>()
        })
        .sum();
    (1.0 - none - exactly_one).max(0.0)
}

/// The smallest spatial diversity attainable by any pair of the given rays
/// (the closest pair of angles, which after sorting is an adjacent pair).
/// `angles` is a buffer this overwrites.
fn min_pairwise_sd(contributions: &[Contribution], angles: &mut Vec<f64>) -> f64 {
    if contributions.len() < 2 {
        return 0.0;
    }
    angles.clear();
    angles.extend(contributions.iter().map(|c| c.angle));
    angles.sort_by(|a, b| a.partial_cmp(b).expect("angle not NaN"));
    let mut min_gap = f64::INFINITY;
    for i in 0..angles.len() {
        let next = if i + 1 == angles.len() {
            angles[0] + FULL_TURN
        } else {
            angles[i + 1]
        };
        min_gap = min_gap.min(next - angles[i]);
    }
    two_part_entropy(min_gap / FULL_TURN)
}

/// The smallest temporal diversity attainable by any single arrival (the
/// arrival closest to either end of the window).
fn min_single_td(contributions: &[Contribution], window: TimeWindow) -> f64 {
    let duration = window.duration();
    if duration <= 0.0 || contributions.is_empty() {
        return 0.0;
    }
    contributions
        .iter()
        .map(|c| two_part_entropy((window.clamp(c.arrival) - window.start) / duration))
        .fold(f64::INFINITY, f64::min)
}

/// Bounds on `E[STD]` of a worker set.
pub fn expected_std_bounds(
    contributions: &[Contribution],
    window: TimeWindow,
    beta: f64,
) -> DiversityBounds {
    expected_std_bounds_with(contributions, window, beta, &mut Vec::new())
}

/// [`expected_std_bounds`] with its sort buffer passed in, for callers that
/// bound many worker sets in a row.
pub fn expected_std_bounds_with(
    contributions: &[Contribution],
    window: TimeWindow,
    beta: f64,
    buffer: &mut Vec<f64>,
) -> DiversityBounds {
    if contributions.is_empty() {
        return DiversityBounds::zero();
    }
    let beta = beta.clamp(0.0, 1.0);
    buffer.clear();
    buffer.extend(contributions.iter().map(|c| c.angle));
    let sd = spatial_diversity_in_place(buffer);
    buffer.clear();
    buffer.extend(contributions.iter().map(|c| c.arrival));
    let td = temporal_diversity_in_place(buffer, window);
    let upper = beta * sd + (1.0 - beta) * td;
    let lower = beta * prob_at_least_two(contributions) * min_pairwise_sd(contributions, buffer)
        + (1.0 - beta) * prob_at_least_one(contributions) * min_single_td(contributions, window);
    DiversityBounds {
        lower: lower.min(upper),
        upper,
    }
}

/// Bounds on the *increase* of `E[STD]` when adding `new_worker` to a task
/// whose current contribution set is `before`.
///
/// The increase is non-negative (Lemma 4.2), so the lower bound is clamped at
/// zero.
pub fn delta_std_bounds(
    before: &[Contribution],
    new_worker: Contribution,
    window: TimeWindow,
    beta: f64,
) -> DiversityBounds {
    let bounds_before = expected_std_bounds(before, window, beta);
    let mut after: Vec<Contribution> = before.to_vec();
    after.push(new_worker);
    let bounds_after = expected_std_bounds(&after, window, beta);
    delta_bounds(bounds_before, bounds_after)
}

/// The differencing step of [`delta_std_bounds`], for callers that already
/// hold the bounds of the set before and after the addition (the greedy
/// solver keeps the "before" bounds per task).
pub fn delta_bounds(before: DiversityBounds, after: DiversityBounds) -> DiversityBounds {
    DiversityBounds {
        lower: (after.lower - before.upper).max(0.0),
        upper: (after.upper - before.lower).max(0.0),
    }
}

/// Lemma 4.3: pair A may prune pair B when A's reliability increase is at
/// least B's **and** A's diversity-increase lower bound exceeds B's upper
/// bound.
pub fn dominated_by_bounds(
    delta_rel_a: f64,
    bounds_a: DiversityBounds,
    delta_rel_b: f64,
    bounds_b: DiversityBounds,
) -> bool {
    delta_rel_a >= delta_rel_b && bounds_a.lower > bounds_b.upper
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_model::expected::expected_std;
    use rdbsc_model::Confidence;
    use std::f64::consts::PI;

    fn contribution(p: f64, angle: f64, arrival: f64) -> Contribution {
        Contribution::new(Confidence::new(p).unwrap(), angle, arrival)
    }

    fn window() -> TimeWindow {
        TimeWindow::new(0.0, 10.0).unwrap()
    }

    fn sample_sets() -> Vec<Vec<Contribution>> {
        vec![
            vec![],
            vec![contribution(0.7, 1.0, 5.0)],
            vec![contribution(0.7, 0.0, 2.0), contribution(0.4, PI, 7.0)],
            vec![
                contribution(0.9, 0.1, 1.0),
                contribution(0.5, 2.0, 4.0),
                contribution(0.3, 4.5, 8.0),
                contribution(0.8, 5.5, 9.5),
            ],
            vec![
                contribution(1.0, 0.0, 5.0),
                contribution(1.0, 2.0, 2.0),
                contribution(1.0, 4.0, 8.0),
            ],
        ]
    }

    #[test]
    fn bounds_bracket_the_exact_expectation() {
        for cs in sample_sets() {
            for beta in [0.0, 0.3, 0.7, 1.0] {
                let exact = expected_std(&cs, window(), beta);
                let bounds = expected_std_bounds(&cs, window(), beta);
                assert!(
                    bounds.lower <= exact + 1e-9,
                    "lower bound {} above exact {} (beta={beta}, set={cs:?})",
                    bounds.lower,
                    exact
                );
                assert!(
                    bounds.upper >= exact - 1e-9,
                    "upper bound {} below exact {} (beta={beta}, set={cs:?})",
                    bounds.upper,
                    exact
                );
            }
        }
    }

    #[test]
    fn delta_bounds_bracket_the_exact_increase() {
        let new = contribution(0.6, 3.0, 6.0);
        for cs in sample_sets() {
            for beta in [0.0, 0.5, 1.0] {
                let before = expected_std(&cs, window(), beta);
                let mut after_set = cs.clone();
                after_set.push(new);
                let after = expected_std(&after_set, window(), beta);
                let exact_delta = after - before;
                let bounds = delta_std_bounds(&cs, new, window(), beta);
                assert!(bounds.lower <= exact_delta + 1e-9);
                assert!(bounds.upper >= exact_delta - 1e-9);
                assert!(bounds.lower >= 0.0);
            }
        }
    }

    #[test]
    fn empty_set_has_zero_bounds() {
        let bounds = expected_std_bounds(&[], window(), 0.5);
        assert_eq!(bounds, DiversityBounds::zero());
    }

    #[test]
    fn probability_helpers() {
        let cs = [contribution(0.5, 0.0, 1.0), contribution(0.5, 1.0, 2.0)];
        assert!((prob_at_least_one(&cs) - 0.75).abs() < 1e-12);
        assert!((prob_at_least_two(&cs) - 0.25).abs() < 1e-12);
        assert_eq!(prob_at_least_two(&cs[..1]), 0.0);
    }

    #[test]
    fn pruning_rule_requires_both_conditions() {
        let strong = DiversityBounds {
            lower: 0.5,
            upper: 0.8,
        };
        let weak = DiversityBounds {
            lower: 0.1,
            upper: 0.3,
        };
        assert!(dominated_by_bounds(1.0, strong, 0.5, weak));
        // diversity alone is not enough when the reliability increase is lower
        assert!(!dominated_by_bounds(0.4, strong, 0.5, weak));
        // overlapping diversity bounds prevent pruning
        let overlapping = DiversityBounds {
            lower: 0.2,
            upper: 0.9,
        };
        assert!(!dominated_by_bounds(1.0, weak, 0.5, overlapping));
    }
}
