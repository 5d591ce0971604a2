//! Skyline dominance and top-k-dominating ranking on (reliability, diversity)
//! pairs.
//!
//! Both the greedy algorithm (to rank candidate task-and-worker pairs by how
//! many other candidates they dominate) and the sampling algorithm (to pick
//! the best sampled assignment) use the dominance relation of the skyline
//! operator and the *dominating count* ranking of top-k dominating queries,
//! exactly as referenced in the paper (\[13\] and \[22\]).

/// A bi-objective value: the first component is the reliability-related
/// objective, the second the diversity-related one. Both are maximised.
pub type BiObjective = (f64, f64);

/// Does `a` dominate `b`? (`a` is at least as good in both components and
/// strictly better in at least one.)
#[inline]
pub fn dominates(a: BiObjective, b: BiObjective) -> bool {
    (a.0 >= b.0 && a.1 >= b.1) && (a.0 > b.0 || a.1 > b.1)
}

/// For each candidate, the number of other candidates it dominates.
///
/// The quadratic definition, kept as the oracle [`DominanceRanker`] is tested
/// against; the solvers never need the whole vector.
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

/// Indices of the candidates that are *not* dominated by any other candidate
/// (the skyline / Pareto front).
pub fn skyline(values: &[BiObjective]) -> Vec<usize> {
    (0..values.len())
        .filter(|&i| {
            !values
                .iter()
                .enumerate()
                .any(|(j, &v)| j != i && dominates(v, values[i]))
        })
        .collect()
}

/// One step of the skyline staircase kept by [`DominanceRanker`].
#[derive(Debug, Clone, Copy)]
struct Step {
    x: f64,
    y: f64,
    /// Lowest position in the input holding exactly `(x, y)`.
    position: usize,
    /// Candidates this step dominates.
    count: usize,
}

/// Picks the candidate that dominates the most others, on buffers that are
/// reused from call to call (the greedy solver ranks once per round).
///
/// A candidate that is dominated has a strictly smaller dominating count
/// than its dominator (which dominates it and everything it dominates), so
/// the winner is on the skyline. One pass builds the skyline as a staircase
/// — `x` strictly increasing, `y` strictly decreasing, one step per distinct
/// point, holding its first position. The steps that weakly dominate a
/// candidate are then a contiguous range of the staircase, found by two
/// binary searches, so a second pass counts all of them with a difference
/// array: `O(n log s)` for `n` candidates and `s` skyline points, nothing
/// allocated once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct DominanceRanker {
    stairs: Vec<Step>,
    /// Difference array over `stairs` (one extra slot): `+1` where a
    /// candidate's range of weak dominators starts, `−1` past its end.
    covered: Vec<isize>,
}

impl DominanceRanker {
    /// The index of the candidate dominating the most others; ties are
    /// broken by the sum of the two components (beyond `1e-15`), then by
    /// lowest index. `None` for an empty slice. Values must not be NaN.
    ///
    /// Returns exactly what scanning [`dominating_counts`] for its maximum
    /// with those tie-breaks returns.
    pub fn rank(&mut self, values: &[BiObjective]) -> Option<usize> {
        if values.is_empty() {
            return None;
        }
        self.build_stairs(values);
        self.count_dominated(values);

        // The scan over all candidates in index order, restricted to the
        // only ones that can ever hold the lead: those with the top count.
        let top = self.stairs.iter().map(|s| s.count).max()?;
        self.stairs.retain(|s| s.count == top);
        self.stairs.sort_unstable_by_key(|s| s.position);
        let mut best = self.stairs[0];
        for step in &self.stairs[1..] {
            if step.x + step.y > best.x + best.y + 1e-15 {
                best = *step;
            }
        }
        Some(best.position)
    }

    /// Builds the skyline staircase of `values`.
    fn build_stairs(&mut self, values: &[BiObjective]) {
        let stairs = &mut self.stairs;
        stairs.clear();
        for (position, &(x, y)) in values.iter().enumerate() {
            debug_assert!(!x.is_nan() && !y.is_nan(), "objective values are not NaN");
            // Of the steps at or right of x, the first is the highest.
            let right = stairs.partition_point(|s| s.x < x);
            if stairs.get(right).is_some_and(|s| s.y >= y) {
                // Dominated, or an exact duplicate of an earlier position.
                continue;
            }
            // The steps this candidate dominates: at or left of x and not
            // above y, a contiguous run ending where `x` would go.
            let end = right + usize::from(stairs.get(right).is_some_and(|s| s.x == x));
            let start = stairs[..end].partition_point(|s| s.y > y);
            let step = Step {
                x,
                y,
                position,
                count: 0,
            };
            if start < end {
                stairs[start] = step;
                stairs.drain(start + 1..end);
            } else {
                stairs.insert(start, step);
            }
        }
    }

    /// Fills in each step's dominating count.
    fn count_dominated(&mut self, values: &[BiObjective]) {
        let stairs = &mut self.stairs;
        let covered = &mut self.covered;
        covered.clear();
        covered.resize(stairs.len() + 1, 0);
        for &(x, y) in values {
            // Weakly dominated by the steps at or right of x that are also
            // at or above y.
            let from = stairs.partition_point(|s| s.x < x);
            let to = stairs.partition_point(|s| s.y >= y);
            if stairs.get(from).is_some_and(|s| s.x == x && s.y == y) {
                // The step itself or a duplicate of it: equal points do not
                // dominate each other.
                continue;
            }
            covered[from] += 1;
            covered[to] -= 1;
        }
        let mut running = 0isize;
        for (step, delta) in stairs.iter_mut().zip(covered.iter()) {
            running += delta;
            step.count = running as usize;
        }
    }
}

/// Ranks candidates by their dominating count and returns the index of the
/// best one (the candidate dominating the most others). Ties are broken by
/// the sum of the two components, then by index (for determinism).
///
/// Returns `None` for an empty slice. A one-off [`DominanceRanker::rank`].
pub fn rank_by_dominating_count(values: &[BiObjective]) -> Option<usize> {
    DominanceRanker::default().rank(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_relation() {
        assert!(dominates((2.0, 2.0), (1.0, 1.0)));
        assert!(dominates((2.0, 1.0), (1.0, 1.0)));
        assert!(dominates((1.0, 2.0), (1.0, 1.0)));
        assert!(
            !dominates((1.0, 1.0), (1.0, 1.0)),
            "equal points do not dominate"
        );
        assert!(!dominates((2.0, 0.5), (1.0, 1.0)), "incomparable");
        assert!(!dominates((0.5, 2.0), (1.0, 1.0)), "incomparable");
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric() {
        let pts = [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)];
        for &a in &pts {
            assert!(!dominates(a, a));
            for &b in &pts {
                if dominates(a, b) {
                    assert!(!dominates(b, a));
                }
            }
        }
    }

    #[test]
    fn counts_and_skyline() {
        let values = vec![(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (2.0, 0.1)];
        let counts = dominating_counts(&values);
        assert_eq!(counts, vec![0, 2, 0, 0]);
        let sky = skyline(&values);
        assert_eq!(sky, vec![1, 2]);
    }

    #[test]
    fn rank_picks_most_dominating() {
        let values = vec![(1.0, 1.0), (2.0, 2.0), (0.5, 3.0)];
        assert_eq!(rank_by_dominating_count(&values), Some(1));
    }

    #[test]
    fn rank_breaks_ties_by_sum_then_index() {
        // No candidate dominates another; the one with the largest sum wins.
        let values = vec![(1.0, 2.0), (2.5, 1.0), (0.0, 3.0)];
        assert_eq!(rank_by_dominating_count(&values), Some(1));
        // Full tie: first index wins.
        let values = vec![(1.0, 1.0), (1.0, 1.0)];
        assert_eq!(rank_by_dominating_count(&values), Some(0));
    }

    #[test]
    fn rank_empty_is_none() {
        assert_eq!(rank_by_dominating_count(&[]), None);
    }

    /// The definition: scan the quadratic counts for the maximum, breaking
    /// ties by sum (beyond 1e-15), then by lowest index.
    fn rank_by_definition(values: &[BiObjective]) -> Option<usize> {
        let counts = dominating_counts(values);
        (0..values.len()).reduce(|best, i| {
            let better = counts[i] > counts[best]
                || (counts[i] == counts[best]
                    && values[i].0 + values[i].1 > values[best].0 + values[best].1 + 1e-15);
            if better {
                i
            } else {
                best
            }
        })
    }

    #[test]
    fn ranker_matches_the_quadratic_definition() {
        // Pseudo-random values on a coarse lattice: full of equal-x and
        // equal-y runs and exact duplicates. One ranker across all inputs.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 * 8.0).round() / 8.0
        };
        let mut ranker = DominanceRanker::default();
        for n in [1usize, 2, 3, 10, 57, 300, 1000] {
            let values: Vec<BiObjective> = (0..n).map(|_| (next(), next())).collect();
            assert_eq!(ranker.rank(&values), rank_by_definition(&values), "n={n}");
        }
    }

    #[test]
    fn ranker_handles_duplicates_infinities_and_anticorrelated_fronts() {
        let mut ranker = DominanceRanker::default();
        let cases: Vec<Vec<BiObjective>> = vec![
            vec![(1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (2.0, 2.0)],
            vec![(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)],
            vec![
                (f64::INFINITY, 0.1),
                (f64::INFINITY, 0.3),
                (2.0, 0.3),
                (f64::INFINITY, 0.3),
            ],
            // Every point on the skyline; sums tie within 1e-15.
            (0..40).map(|i| (i as f64, (40 - i) as f64)).collect(),
            vec![(1.0, 2.0), (2.0, 1.0 + 4e-16), (1.5, 1.5)],
        ];
        for values in cases {
            assert_eq!(
                ranker.rank(&values),
                rank_by_definition(&values),
                "{values:?}"
            );
        }
    }
}
