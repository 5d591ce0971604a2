//! Answer aggregation for a spatial task (Section 2.3, "Answer Aggregation
//! for a Spatial Task").
//!
//! After a task has been served by several workers, the requester receives a
//! pile of answers (photos) taken from different angles and at different
//! times. The paper proposes grouping answers with similar spatial/temporal
//! characteristics and showing only one representative per group. This module
//! implements that aggregation: answers are clustered greedily by angular and
//! temporal proximity, and each cluster is represented by its
//! highest-confidence member.

use crate::task::TimeWindow;
use crate::valid_pairs::Contribution;
use rdbsc_geo::angle::ccw_delta;

/// Parameters controlling when two answers are considered "similar".
#[derive(Debug, Clone, Copy)]
pub struct AggregationConfig {
    /// Two answers whose approach angles differ by at most this (radians)
    /// are spatially similar.
    pub angle_tolerance: f64,
    /// Two answers whose (window-normalised) times differ by at most this
    /// fraction of the valid period are temporally similar.
    pub time_tolerance_fraction: f64,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        Self {
            angle_tolerance: std::f64::consts::PI / 6.0,
            time_tolerance_fraction: 0.15,
        }
    }
}

/// One aggregated group of answers.
#[derive(Debug, Clone)]
pub struct AnswerGroup {
    /// Indices (into the input slice) of the answers in this group.
    pub members: Vec<usize>,
    /// Index of the representative answer (the highest-confidence member).
    pub representative: usize,
    /// Mean approach angle of the group (radians).
    pub mean_angle: f64,
    /// Mean arrival time of the group.
    pub mean_arrival: f64,
}

/// The circular distance between two angles (≤ π).
fn angular_distance(a: f64, b: f64) -> f64 {
    let d = ccw_delta(a, b);
    d.min(rdbsc_geo::FULL_TURN - d)
}

/// Groups a task's answers by spatial/temporal similarity and picks one
/// representative per group.
///
/// The clustering is a simple greedy leader algorithm: answers are visited in
/// decreasing confidence order; each answer either joins the first existing
/// group whose representative is within both tolerances, or founds a new
/// group. This is deterministic, `O(k·g)` for `k` answers and `g` groups, and
/// — because the visit order is by confidence — every group's representative
/// is automatically its most reliable member.
pub fn aggregate_answers(
    answers: &[Contribution],
    window: TimeWindow,
    config: &AggregationConfig,
) -> Vec<AnswerGroup> {
    if answers.is_empty() {
        return Vec::new();
    }
    let duration = window.duration().max(f64::EPSILON);
    let time_tolerance = config.time_tolerance_fraction.max(0.0) * duration;

    let mut order: Vec<usize> = (0..answers.len()).collect();
    order.sort_by(|&a, &b| {
        answers[b]
            .p()
            .partial_cmp(&answers[a].p())
            .expect("confidences are not NaN")
            .then(a.cmp(&b))
    });

    let mut groups: Vec<AnswerGroup> = Vec::new();
    for &idx in &order {
        let answer = &answers[idx];
        let joined = groups.iter_mut().find(|g| {
            let rep = &answers[g.representative];
            angular_distance(answer.angle, rep.angle) <= config.angle_tolerance
                && (answer.arrival - rep.arrival).abs() <= time_tolerance
        });
        match joined {
            Some(group) => group.members.push(idx),
            None => groups.push(AnswerGroup {
                members: vec![idx],
                representative: idx,
                mean_angle: 0.0,
                mean_arrival: 0.0,
            }),
        }
    }

    // Finalise the group summaries.
    for group in &mut groups {
        let n = group.members.len() as f64;
        // Mean angle via the circular mean.
        let (sin_sum, cos_sum) = group.members.iter().fold((0.0, 0.0), |(s, c), &i| {
            (s + answers[i].angle.sin(), c + answers[i].angle.cos())
        });
        group.mean_angle = rdbsc_geo::normalize_angle(sin_sum.atan2(cos_sum));
        group.mean_arrival = group
            .members
            .iter()
            .map(|&i| answers[i].arrival)
            .sum::<f64>()
            / n;
    }
    groups
}

/// Convenience: the representative answers only (what the requester is
/// shown), in group order.
pub fn representatives(
    answers: &[Contribution],
    window: TimeWindow,
    config: &AggregationConfig,
) -> Vec<Contribution> {
    aggregate_answers(answers, window, config)
        .into_iter()
        .map(|g| answers[g.representative])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::Confidence;
    use std::f64::consts::PI;

    fn contribution(p: f64, angle: f64, arrival: f64) -> Contribution {
        Contribution::new(Confidence::new(p).unwrap(), angle, arrival)
    }

    fn window() -> TimeWindow {
        TimeWindow::new(0.0, 10.0).unwrap()
    }

    #[test]
    fn empty_input_yields_no_groups() {
        assert!(aggregate_answers(&[], window(), &AggregationConfig::default()).is_empty());
    }

    #[test]
    fn similar_answers_are_grouped_and_represented_by_the_most_reliable() {
        let answers = [
            contribution(0.7, 0.05, 1.0),
            contribution(0.9, 0.00, 1.2), // same view, more reliable
            contribution(0.8, PI, 8.0),   // opposite side, much later
        ];
        let groups = aggregate_answers(&answers, window(), &AggregationConfig::default());
        assert_eq!(groups.len(), 2);
        let west_group = groups
            .iter()
            .find(|g| g.members.contains(&0))
            .expect("first answer belongs to some group");
        assert!(west_group.members.contains(&1));
        assert_eq!(
            west_group.representative, 1,
            "highest confidence represents the group"
        );
    }

    #[test]
    fn distinct_views_stay_separate() {
        let answers = [
            contribution(0.9, 0.0, 1.0),
            contribution(0.9, PI / 2.0, 1.0),
            contribution(0.9, PI, 1.0),
            contribution(0.9, 1.5 * PI, 1.0),
        ];
        let groups = aggregate_answers(&answers, window(), &AggregationConfig::default());
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert_eq!(g.members.len(), 1);
        }
    }

    #[test]
    fn same_angle_different_times_stay_separate() {
        let answers = [contribution(0.9, 1.0, 0.5), contribution(0.9, 1.0, 9.5)];
        let groups = aggregate_answers(&answers, window(), &AggregationConfig::default());
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn angular_wraparound_is_respected() {
        // 0.05 rad and 2π − 0.05 rad are only 0.1 rad apart.
        let answers = [
            contribution(0.9, 0.05, 1.0),
            contribution(0.8, rdbsc_geo::FULL_TURN - 0.05, 1.0),
        ];
        let groups = aggregate_answers(&answers, window(), &AggregationConfig::default());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 2);
        // The circular mean of the two angles is ~0, not ~π.
        assert!(groups[0].mean_angle < 0.2 || groups[0].mean_angle > rdbsc_geo::FULL_TURN - 0.2);
    }

    #[test]
    fn every_answer_lands_in_exactly_one_group() {
        let answers: Vec<Contribution> = (0..25)
            .map(|i| {
                contribution(
                    0.5 + 0.01 * (i % 10) as f64,
                    (i as f64) * 0.7,
                    (i % 11) as f64,
                )
            })
            .collect();
        let groups = aggregate_answers(&answers, window(), &AggregationConfig::default());
        let mut seen: Vec<usize> = groups.iter().flat_map(|g| g.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..25).collect::<Vec<_>>());
        for g in &groups {
            assert!(g.members.contains(&g.representative));
        }
    }

    #[test]
    fn representatives_shrink_the_answer_set() {
        let answers = [
            contribution(0.7, 0.02, 1.0),
            contribution(0.9, 0.04, 1.1),
            contribution(0.6, 0.01, 0.9),
            contribution(0.8, PI, 5.0),
        ];
        let reps = representatives(&answers, window(), &AggregationConfig::default());
        assert_eq!(reps.len(), 2);
        assert!(reps.iter().any(|c| (c.p() - 0.9).abs() < 1e-12));
        assert!(reps.iter().any(|c| (c.p() - 0.8).abs() < 1e-12));
    }

    #[test]
    fn zero_tolerances_give_one_group_per_distinct_answer() {
        let answers = [
            contribution(0.9, 1.0, 2.0),
            contribution(0.9, 1.0, 2.0),
            contribution(0.9, 2.0, 2.0),
        ];
        let config = AggregationConfig {
            angle_tolerance: 0.0,
            time_tolerance_fraction: 0.0,
        };
        let groups = aggregate_answers(&answers, window(), &config);
        // identical answers still merge (distance 0), distinct ones do not
        assert_eq!(groups.len(), 2);
    }
}
