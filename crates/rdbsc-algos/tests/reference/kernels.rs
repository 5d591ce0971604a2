//! The kernels the solvers called before the scratch-buffer rewrite, kept
//! verbatim as oracles: the allocating expected-diversity kernels, the
//! quadratic / Fenwick dominating-count ranking with its `HashMap` duplicate
//! count, the allocating Lemma 4.3 bounds and the walk-every-task objective.
#![allow(clippy::all, missing_docs, dead_code)]

use rdbsc_algos::pruning::DiversityBounds;
use rdbsc_geo::{normalize_angle, FULL_TURN};
use rdbsc_model::diversity::entropy_term;
use rdbsc_model::dominance::{dominates, BiObjective};
use rdbsc_model::objective::{MinReliabilityScope, ObjectiveValue, TaskPriors};
use rdbsc_model::reliability::{log_reliability, reliability};
use rdbsc_model::{Assignment, Contribution, ProblemInstance, TaskId, TimeWindow};
use std::collections::HashMap;

// ---- rdbsc-model::expected ------------------------------------------------
/// Expected spatial diversity `E[SD]` of a worker set under possible-worlds
/// semantics.
pub fn expected_sd(contributions: &[Contribution]) -> f64 {
    let r = contributions.len();
    if r < 2 {
        // With fewer than two successful workers SD is always 0.
        return 0.0;
    }
    // Sort rays by angle; remember each worker's success probability.
    let mut order: Vec<usize> = (0..r).collect();
    order.sort_by(|&a, &b| {
        contributions[a]
            .angle
            .partial_cmp(&contributions[b].angle)
            .expect("angle must not be NaN")
    });
    let angles: Vec<f64> = order.iter().map(|&i| contributions[i].angle).collect();
    let probs: Vec<f64> = order.iter().map(|&i| contributions[i].p()).collect();

    // Elementary angular gaps between consecutive rays (cyclic, sums to 2π).
    let mut gaps = vec![0.0; r];
    for x in 0..r {
        let next = if x + 1 == r {
            angles[0] + FULL_TURN
        } else {
            angles[x + 1]
        };
        gaps[x] = (next - angles[x]).max(0.0);
    }

    let mut expectation = 0.0;
    for j in 0..r {
        // Walk counter-clockwise from ray j; `absent` accumulates the
        // probability that all rays strictly between j and the current k fail.
        let mut absent = 1.0;
        let mut arc = 0.0;
        for step in 1..r {
            let k = (j + step) % r;
            arc += gaps[(j + step - 1) % r];
            let prob = probs[j] * probs[k] * absent;
            if prob > 0.0 {
                expectation += prob * entropy_term(arc / FULL_TURN);
            }
            absent *= 1.0 - probs[k];
            if absent == 0.0 && probs[j] == 0.0 {
                break;
            }
        }
    }
    expectation
}

/// Expected temporal diversity `E[TD]` of a worker set under possible-worlds
/// semantics.
pub fn expected_td(contributions: &[Contribution], window: TimeWindow) -> f64 {
    let duration = window.duration();
    let r = contributions.len();
    if duration <= 0.0 || r == 0 {
        return 0.0;
    }
    // Sort arrivals (clamped into the window).
    let mut order: Vec<usize> = (0..r).collect();
    order.sort_by(|&a, &b| {
        contributions[a]
            .arrival
            .partial_cmp(&contributions[b].arrival)
            .expect("arrival must not be NaN")
    });
    let arrivals: Vec<f64> = order
        .iter()
        .map(|&i| window.clamp(contributions[i].arrival))
        .collect();
    let probs: Vec<f64> = order.iter().map(|&i| contributions[i].p()).collect();

    let mut expectation = 0.0;

    // Sub-intervals bounded on the left by the window start.
    {
        let mut absent = 1.0;
        for k in 0..r {
            let length = arrivals[k] - window.start;
            let prob = probs[k] * absent;
            if prob > 0.0 {
                expectation += prob * entropy_term(length / duration);
            }
            absent *= 1.0 - probs[k];
        }
        // The interval [start, end] with every worker absent has fraction 1
        // and entropy 0, so it never contributes.
    }

    // Sub-intervals bounded by two worker arrivals, and those bounded on the
    // right by the window end.
    for j in 0..r {
        let mut absent = 1.0;
        for k in (j + 1)..r {
            let length = arrivals[k] - arrivals[j];
            let prob = probs[j] * probs[k] * absent;
            if prob > 0.0 {
                expectation += prob * entropy_term(length / duration);
            }
            absent *= 1.0 - probs[k];
        }
        // [arrival_j, end] exists when j succeeds and every later worker fails.
        let length = window.end - arrivals[j];
        let prob = probs[j] * absent;
        if prob > 0.0 {
            expectation += prob * entropy_term(length / duration);
        }
    }
    expectation
}

/// Expected combined diversity `E[STD] = β·E[SD] + (1−β)·E[TD]` (Lemma 3.1).
pub fn expected_std(contributions: &[Contribution], window: TimeWindow, beta: f64) -> f64 {
    let beta = beta.clamp(0.0, 1.0);
    let sd = if beta > 0.0 {
        expected_sd(contributions)
    } else {
        0.0
    };
    let td = if beta < 1.0 {
        expected_td(contributions, window)
    } else {
        0.0
    };
    beta * sd + (1.0 - beta) * td
}

// ---- rdbsc-model::diversity -----------------------------------------------

/// Spatial diversity (Eq. 3) of a set of approach angles (radians).
///
/// With zero or one angle there is a single gap of `2π`, whose entropy is 0.
/// The maximum value for `r` angles is `ln(r)`, attained when the rays are
/// equally spaced.
pub fn spatial_diversity(angles: &[f64]) -> f64 {
    if angles.len() < 2 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = angles.iter().map(|&a| normalize_angle(a)).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("angle must not be NaN"));
    let r = sorted.len();
    let mut sum = 0.0;
    for j in 0..r {
        let next = if j + 1 == r {
            sorted[0] + FULL_TURN
        } else {
            sorted[j + 1]
        };
        let gap = next - sorted[j];
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
    let duration = window.duration();
    if duration <= 0.0 || arrivals.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = arrivals.iter().map(|&t| window.clamp(t)).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("arrival must not be NaN"));
    let mut sum = 0.0;
    let mut prev = window.start;
    for &t in &sorted {
        sum += entropy_term((t - prev) / duration);
        prev = t;
    }
    sum += entropy_term((window.end - prev) / duration);
    sum
}

// ---- rdbsc-model::dominance -----------------------------------------------

/// For each candidate, the number of other candidates it dominates
/// (quadratic reference implementation; see `dominating_counts_fast` for
/// the `O(n log n)` version used on large inputs).
pub fn dominating_counts(values: &[BiObjective]) -> Vec<usize> {
    let n = values.len();
    let mut counts = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(values[i], values[j]) {
                counts[i] += 1;
            }
        }
    }
    counts
}

/// Fenwick tree (binary indexed tree) over candidate ranks, used by
/// `dominating_counts_fast`.
struct Fenwick {
    tree: Vec<usize>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of added elements with index `<= i`.
    fn prefix(&self, mut i: usize) -> usize {
        i += 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// `O(n log n)` computation of the dominating counts.
///
/// `count_i = #{j : x_j ≤ x_i ∧ y_j ≤ y_i} − #{j : (x_j, y_j) = (x_i, y_i)}`
/// (the second term removes the candidate itself and exact duplicates, which
/// do not dominate each other). Computed by sweeping candidates in increasing
/// `x` order while maintaining a Fenwick tree over the `y` ranks.
pub fn dominating_counts_fast(values: &[BiObjective]) -> Vec<usize> {
    let n = values.len();
    if n < 2 {
        return vec![0; n];
    }
    // Rank-compress the y coordinates.
    let mut ys: Vec<f64> = values.iter().map(|v| v.1).collect();
    ys.sort_by(|a, b| a.partial_cmp(b).expect("objective values are not NaN"));
    ys.dedup();
    let y_rank = |y: f64| ys.partition_point(|&v| v < y);

    // Count exact duplicates.
    let mut duplicates: HashMap<(u64, u64), usize> = HashMap::new();
    for v in values {
        *duplicates
            .entry((v.0.to_bits(), v.1.to_bits()))
            .or_insert(0) += 1;
    }

    // Sweep in increasing x order; candidates with equal x are processed as a
    // batch (queried first, then inserted) because equal-x candidates with
    // smaller y are still dominated.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .0
            .partial_cmp(&values[b].0)
            .expect("objective values are not NaN")
    });
    let mut counts = vec![0usize; n];
    let mut fenwick = Fenwick::new(ys.len());
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j < n && values[order[j]].0 == values[order[i]].0 {
            j += 1;
        }
        // Query the whole equal-x batch against everything inserted so far
        // plus the batch itself (handled via the duplicate correction below
        // and by inserting the batch before querying it — equal-x,
        // smaller-or-equal-y candidates are legitimate dominees unless they
        // are exact duplicates).
        for &idx in &order[i..j] {
            fenwick.add(y_rank(values[idx].1));
        }
        for &idx in &order[i..j] {
            let le = fenwick.prefix(y_rank(values[idx].1));
            let dup = duplicates[&(values[idx].0.to_bits(), values[idx].1.to_bits())];
            counts[idx] = le - dup;
        }
        i = j;
    }
    counts
}

/// Ranks candidates by their dominating count and returns the index of the
/// best one (the candidate dominating the most others). Ties are broken by
/// the sum of the two components, then by index (for determinism).
///
/// Returns `None` for an empty slice.
pub fn rank_by_dominating_count(values: &[BiObjective]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let counts = if values.len() <= 256 {
        dominating_counts(values)
    } else {
        dominating_counts_fast(values)
    };
    let mut best = 0usize;
    for i in 1..values.len() {
        let better = counts[i] > counts[best]
            || (counts[i] == counts[best]
                && values[i].0 + values[i].1 > values[best].0 + values[best].1 + 1e-15);
        if better {
            best = i;
        }
    }
    Some(best)
}

// ---- rdbsc-algos::pruning -------------------------------------------------

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
fn min_pairwise_sd(contributions: &[Contribution]) -> f64 {
    if contributions.len() < 2 {
        return 0.0;
    }
    let mut angles: Vec<f64> = contributions.iter().map(|c| c.angle).collect();
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
    if contributions.is_empty() {
        return DiversityBounds::zero();
    }
    let beta = beta.clamp(0.0, 1.0);
    let angles: Vec<f64> = contributions.iter().map(|c| c.angle).collect();
    let arrivals: Vec<f64> = contributions.iter().map(|c| c.arrival).collect();
    let upper =
        beta * spatial_diversity(&angles) + (1.0 - beta) * temporal_diversity(&arrivals, window);
    let lower = beta * prob_at_least_two(contributions) * min_pairwise_sd(contributions)
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
    DiversityBounds {
        lower: (bounds_after.lower - bounds_before.upper).max(0.0),
        upper: (bounds_after.upper - bounds_before.lower).max(0.0),
    }
}

// ---- rdbsc-model::objective -----------------------------------------------

/// Evaluates an assignment together with the banked contributions each task
/// already has (the incremental strategy's view of the objectives).
pub fn evaluate_with_priors(
    instance: &ProblemInstance,
    assignment: &Assignment,
    priors: &TaskPriors,
    scope: MinReliabilityScope,
) -> ObjectiveValue {
    let mut min_rel = f64::INFINITY;
    let mut min_log_rel = f64::INFINITY;
    let mut total_std = 0.0;
    let mut assigned_tasks = 0usize;

    for task in &instance.tasks {
        let mut contributions = assignment.contributions_of(task.id);
        contributions.extend_from_slice(priors.of(task.id));
        if contributions.is_empty() {
            if scope == MinReliabilityScope::AllTasks {
                min_rel = 0.0;
                min_log_rel = 0.0;
            }
            continue;
        }
        assigned_tasks += 1;
        let confidences: Vec<_> = contributions.iter().map(|c| c.confidence).collect();
        let rel = reliability(&confidences);
        let log_rel = log_reliability(&confidences);
        min_rel = min_rel.min(rel);
        min_log_rel = min_log_rel.min(log_rel);
        total_std += expected_std(
            &contributions,
            task.window,
            task.effective_beta(instance.beta),
        );
    }

    if min_rel == f64::INFINITY {
        // No task considered at all.
        min_rel = if scope == MinReliabilityScope::AllTasks && instance.num_tasks() > 0 {
            0.0
        } else {
            1.0
        };
        min_log_rel = if min_rel == 0.0 { 0.0 } else { f64::INFINITY };
    }

    ObjectiveValue {
        min_reliability: min_rel,
        min_log_reliability: min_log_rel,
        total_std,
        assigned_tasks,
        assigned_workers: assignment.num_assigned(),
    }
}

/// Expected STD of a single task from an explicit contribution set (newly
/// assigned workers plus banked priors).
pub fn task_expected_std_of(
    instance: &ProblemInstance,
    task: TaskId,
    contributions: &[Contribution],
) -> f64 {
    let t = &instance.tasks[task.index()];
    expected_std(contributions, t.window, t.effective_beta(instance.beta))
}
