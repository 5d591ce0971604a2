//! An exhaustive, exact solver for tiny RDB-SC instances.
//!
//! The RDB-SC problem is NP-hard (Lemma 3.2), so this solver only exists as
//! a *test oracle*: it enumerates every possible task-and-worker assignment
//! (each connected worker independently picks one of its valid tasks),
//! evaluates both objectives for each, and reports the assignment with the
//! best dominating-count rank together with the per-objective optima. The
//! approximation solvers are validated against it on small instances.

use crate::solver::SolveRequest;
use rdbsc_model::objective::{evaluate_with_priors, MinReliabilityScope, TaskPriors};
use rdbsc_model::{rank_by_dominating_count, Assignment};

/// Configuration of the exhaustive solver.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// Maximum number of assignments to enumerate; `exact_best` returns
    /// `None` when the population exceeds this bound.
    pub max_assignments: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self {
            max_assignments: 500_000,
        }
    }
}

/// The result of an exhaustive enumeration.
#[derive(Debug, Clone)]
pub struct ExactSummary {
    /// The assignment with the best dominating-count rank.
    pub best: Assignment,
    /// The best achievable minimum reliability over all assignments.
    pub max_min_reliability: f64,
    /// The best achievable total expected diversity over all assignments.
    pub max_total_std: f64,
    /// Number of assignments enumerated.
    pub enumerated: u64,
}

/// Enumerates every assignment and returns the summary, or `None` when the
/// population exceeds `config.max_assignments`.
pub fn exact_best(request: &SolveRequest<'_>, config: &ExactConfig) -> Option<ExactSummary> {
    let instance = request.instance;
    let candidates = request.candidates;
    let empty_priors;
    let priors: &TaskPriors = match request.priors {
        Some(p) => p,
        None => {
            empty_priors = TaskPriors::empty(instance.num_tasks());
            &empty_priors
        }
    };

    let connected: Vec<&Vec<usize>> = candidates
        .by_worker
        .iter()
        .filter(|adj| !adj.is_empty())
        .collect();

    // Population size with overflow guard.
    let mut population: u64 = 1;
    for adj in &connected {
        population = population.checked_mul(adj.len() as u64)?;
        if population > config.max_assignments {
            return None;
        }
    }

    let mut best_assignments: Vec<Assignment> = Vec::new();
    let mut values: Vec<(f64, f64)> = Vec::new();
    let mut max_min_rel = 0.0f64;
    let mut max_total_std = 0.0f64;

    // Mixed-radix counter over the workers' candidate lists.
    let mut choice = vec![0usize; connected.len()];
    let mut enumerated = 0u64;
    loop {
        let mut assignment = Assignment::for_instance(instance);
        for (w, adj) in connected.iter().enumerate() {
            let pair = &candidates.pairs[adj[choice[w]]];
            assignment
                .assign_pair(pair)
                .expect("each worker contributes exactly one pair");
        }
        let value = evaluate_with_priors(
            instance,
            &assignment,
            priors,
            MinReliabilityScope::NonEmptyTasks,
        );
        max_min_rel = max_min_rel.max(value.min_reliability);
        max_total_std = max_total_std.max(value.total_std);
        values.push(value.as_bi_objective());
        best_assignments.push(assignment);
        enumerated += 1;

        // Advance the counter.
        let mut pos = 0;
        loop {
            if pos == connected.len() {
                let best_idx = rank_by_dominating_count(&values).unwrap_or(0);
                return Some(ExactSummary {
                    best: best_assignments.swap_remove(best_idx),
                    max_min_reliability: max_min_rel,
                    max_total_std,
                    enumerated,
                });
            }
            choice[pos] += 1;
            if choice[pos] < connected[pos].len() {
                break;
            }
            choice[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy, GreedyConfig};
    use crate::sampling::{sampling, SamplingConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_model::{
        compute_valid_pairs, evaluate, Confidence, ProblemInstance, Task, TaskId, TimeWindow,
        Worker, WorkerId,
    };

    fn conf(p: f64) -> Confidence {
        Confidence::new(p).unwrap()
    }

    fn tiny_instance() -> ProblemInstance {
        let tasks = vec![
            Task::new(
                TaskId(0),
                Point::new(0.3, 0.5),
                TimeWindow::new(0.0, 10.0).unwrap(),
            ),
            Task::new(
                TaskId(1),
                Point::new(0.7, 0.5),
                TimeWindow::new(0.0, 10.0).unwrap(),
            ),
        ];
        let mk = |x: f64, y: f64, p: f64| {
            Worker::new(
                WorkerId(0),
                Point::new(x, y),
                0.4,
                AngleRange::full(),
                conf(p),
            )
            .unwrap()
        };
        let workers = vec![
            mk(0.1, 0.3, 0.9),
            mk(0.9, 0.7, 0.8),
            mk(0.5, 0.1, 0.7),
            mk(0.5, 0.9, 0.6),
        ];
        ProblemInstance::new(tasks, workers, 0.5)
    }

    #[test]
    fn enumerates_the_whole_population() {
        let instance = tiny_instance();
        let candidates = compute_valid_pairs(&instance);
        let summary = exact_best(
            &SolveRequest::new(&instance, &candidates),
            &ExactConfig::default(),
        )
        .expect("tiny instance fits the enumeration budget");
        // 4 workers × 2 tasks each = 16 assignments.
        assert_eq!(summary.enumerated, 16);
        assert!(summary.best.validate(&instance).is_ok());
        assert!(summary.max_min_reliability > 0.0);
        assert!(summary.max_total_std > 0.0);
    }

    #[test]
    fn refuses_oversized_populations() {
        let instance = tiny_instance();
        let candidates = compute_valid_pairs(&instance);
        let result = exact_best(
            &SolveRequest::new(&instance, &candidates),
            &ExactConfig { max_assignments: 4 },
        );
        assert!(result.is_none());
    }

    #[test]
    fn approximation_solvers_stay_close_to_the_optimum() {
        let instance = tiny_instance();
        let candidates = compute_valid_pairs(&instance);
        let request = SolveRequest::new(&instance, &candidates);
        let summary = exact_best(&request, &ExactConfig::default()).unwrap();

        let g = evaluate(&instance, &greedy(&request, &GreedyConfig::default()));
        let mut rng = StdRng::seed_from_u64(9);
        let s = evaluate(
            &instance,
            &sampling(&request, &SamplingConfig::default(), &mut rng),
        );

        // Neither objective can exceed the exact per-objective optima.
        for v in [&g, &s] {
            assert!(v.min_reliability <= summary.max_min_reliability + 1e-9);
            assert!(v.total_std <= summary.max_total_std + 1e-9);
        }
        // And both approaches should reach a sizeable fraction of the optimum
        // on such a tiny instance.
        assert!(g.total_std >= 0.5 * summary.max_total_std);
        assert!(s.total_std >= 0.5 * summary.max_total_std);
        assert!(s.min_reliability >= 0.5 * summary.max_min_reliability);
    }
}
