//! The GREEDY RDB-SC solver (Section 4, Figure 3).
//!
//! In every round the algorithm considers assigning each still-unassigned
//! worker to each of its valid tasks, computes the pair's increase of the
//! (log-form) reliability and of the expected spatial/temporal diversity,
//! discards increase pairs dominated by others (skyline filter), ranks the
//! survivors by the number of pairs they dominate (top-k-dominating score)
//! and commits the best pair. Rounds repeat until no assignable worker
//! remains.
//!
//! Implementation notes — what a round costs follows what the previous
//! commit changed, not how many pairs are live:
//!
//! * the reliability increase of a pair is `−ln(1 − pⱼ)` (Section 4.3) and
//!   never changes, so it is computed once per pair;
//! * the diversity increase of a pair only changes when *its task* gains a
//!   worker, so exact increases **and** the Section 4.3 bounds are cached
//!   per pair and invalidated per task ("epoch" counters); the task-side
//!   half of the bounds is kept per task. A round therefore re-evaluates
//!   only the pairs of the task that just gained a worker;
//! * a pair's exact increase is priced against the recorded `E[STD]` terms
//!   of its task's current set ([`BasePlusOne`]), whose value is the task's
//!   current `E[STD]`: only the entropies its worker changes are computed,
//!   and the result has the full kernel's bits. A record takes `O(r²)`
//!   memory, so one task's is held at a time and a round prices its
//!   uncached pairs grouped by task; a task without pairs to price is never
//!   recorded;
//! * the live pairs are kept from round to round: committing a worker
//!   removes its adjacency block;
//! * when [`GreedyConfig::use_pruning`] is set, the lower/upper bounds (see
//!   [`crate::pruning`]) are used to skip the exact re-computation for pairs
//!   that are provably dominated (Lemma 4.3);
//! * the skyline filter and the dominating-count ranking are one step,
//!   [`DominanceRanker`], whose buffers — like the expected-diversity
//!   kernel's — live for the whole solve.

use crate::pruning::{delta_bounds, expected_std_bounds_with, DiversityBounds};
use crate::solver::SolveRequest;
use rdbsc_model::expected::ExpectedScratch;
use rdbsc_model::{Assignment, BasePlusOne, Contribution, DominanceRanker, TaskId};

/// Configuration of the greedy solver.
#[derive(Debug, Clone, Copy)]
pub struct GreedyConfig {
    /// Use the Lemma 4.3 bound-based pruning to avoid exact diversity-increase
    /// computations where possible.
    pub use_pruning: bool,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        Self { use_pruning: true }
    }
}

/// Runs the greedy solver.
pub fn greedy(request: &SolveRequest<'_>, config: &GreedyConfig) -> Assignment {
    let instance = request.instance;
    let candidates = request.candidates;
    let mut assignment = Assignment::for_instance(instance);

    let num_pairs = candidates.num_pairs();
    if num_pairs == 0 {
        return assignment;
    }
    let mut scratch = ExpectedScratch::default();
    let mut sort_buffer: Vec<f64> = Vec::new();
    let mut ranker = DominanceRanker::default();

    // Per-task state: current contributions (priors + assigned so far); a
    // per-task epoch invalidates what is cached below.
    let m = instance.num_tasks();
    let mut task_contributions: Vec<Vec<Contribution>> = (0..m)
        .map(|i| request.priors_of(TaskId::from(i)).to_vec())
        .collect();
    let mut task_epoch: Vec<u64> = vec![0; m];
    // The recorded E[STD] terms of one (task, epoch)'s set: they take O(r²)
    // memory, so one task's at a time.
    let mut base = BasePlusOne::default();
    let mut base_of: Option<(usize, u64)> = None;

    // Cached per pair, tagged with the task epoch they were computed at: the
    // exact ΔSTD and its Lemma 4.3 bounds. Cached per task: the bounds of
    // its current set, which every one of its pairs' bounds start from.
    let mut cached_delta: Vec<Option<(u64, f64)>> = vec![None; num_pairs];
    let mut cached_bounds: Vec<Option<(u64, DiversityBounds)>> = vec![None; num_pairs];
    let mut task_bounds: Vec<Option<(u64, DiversityBounds)>> = vec![None; m];
    // Reliability increase per pair is constant.
    let delta_rel: Vec<f64> = candidates
        .pairs
        .iter()
        .map(|p| p.contribution.confidence.log_weight())
        .collect();

    // The candidate pairs of still-unassigned workers, by worker.
    let mut live_pairs: Vec<usize> = candidates.by_worker.concat();
    // This round's survivors of the bound pre-filter, those of them whose
    // exact increase is not cached, and their increases.
    let mut kept: Vec<usize> = Vec::new();
    let mut pricing: Vec<usize> = Vec::new();
    let mut values: Vec<(f64, f64)> = Vec::new();

    while !live_pairs.is_empty() {
        // Optional Lemma 4.3 pre-filter using cheap bounds: find the largest
        // diversity-increase lower bound among pairs with the maximal
        // reliability increase, and drop pairs whose upper bound falls below
        // it (they can never be the round winner).
        let mut round_pairs: &[usize] = &live_pairs;
        if config.use_pruning && live_pairs.len() > 64 {
            let mut max_rel = f64::NEG_INFINITY;
            for &idx in &live_pairs {
                max_rel = max_rel.max(delta_rel[idx]);
                let pair = &candidates.pairs[idx];
                let ti = pair.task.index();
                let epoch = task_epoch[ti];
                if matches!(cached_bounds[idx], Some((at, _)) if at == epoch) {
                    continue;
                }
                let t = &instance.tasks[ti];
                let beta = t.effective_beta(instance.beta);
                let set = &mut task_contributions[ti];
                let before = match task_bounds[ti] {
                    Some((at, bounds)) if at == epoch => bounds,
                    _ => {
                        let bounds =
                            expected_std_bounds_with(set, t.window, beta, &mut sort_buffer);
                        task_bounds[ti] = Some((epoch, bounds));
                        bounds
                    }
                };
                set.push(pair.contribution);
                let after = expected_std_bounds_with(set, t.window, beta, &mut sort_buffer);
                set.pop();
                cached_bounds[idx] = Some((epoch, delta_bounds(before, after)));
            }
            let bounds_of = |idx: usize| cached_bounds[idx].expect("refreshed in the pass above").1;
            let mut best_lower = f64::NEG_INFINITY;
            for &idx in &live_pairs {
                if delta_rel[idx] >= max_rel - 1e-12 {
                    best_lower = best_lower.max(bounds_of(idx).lower);
                }
            }
            if best_lower > f64::NEG_INFINITY {
                kept.clear();
                // Keep a pair unless it is provably dominated: its diversity
                // upper bound is below the best lower bound AND its
                // reliability increase is not above all others.
                kept.extend(live_pairs.iter().copied().filter(|&idx| {
                    !(bounds_of(idx).upper < best_lower && delta_rel[idx] < max_rel - 1e-12)
                }));
                if !kept.is_empty() {
                    round_pairs = &kept;
                }
            }
        }

        // Exact increase pairs (ΔR, ΔSTD), using the per-pair cache. The
        // pairs it lacks are priced task by task, so a task's terms are
        // recorded once per epoch in the common case.
        let stale = |idx: &usize| {
            let ti = candidates.pairs[*idx].task.index();
            !matches!(cached_delta[*idx], Some((epoch, _)) if epoch == task_epoch[ti])
        };
        pricing.clear();
        pricing.extend(round_pairs.iter().filter(|idx| stale(idx)));
        pricing.sort_unstable_by_key(|&idx| candidates.pairs[idx].task);
        for &idx in &pricing {
            let pair = &candidates.pairs[idx];
            let ti = pair.task.index();
            let epoch = task_epoch[ti];
            if base_of != Some((ti, epoch)) {
                let t = &instance.tasks[ti];
                base.record(
                    &task_contributions[ti],
                    t.window,
                    t.effective_beta(instance.beta),
                );
                base_of = Some((ti, epoch));
            }
            let after = base.plus_one(&pair.contribution, &mut scratch);
            cached_delta[idx] = Some((epoch, (after - base.value()).max(0.0)));
        }
        values.clear();
        values.extend(round_pairs.iter().map(|&idx| {
            let (_, delta) = cached_delta[idx].expect("priced above");
            (delta_rel[idx], delta)
        }));

        // Rank by dominating count and commit the winner.
        let Some(best_pos) = ranker.rank(&values) else {
            break;
        };
        let pair = &candidates.pairs[round_pairs[best_pos]];
        assignment
            .assign_pair(pair)
            .expect("candidate pairs reference valid ids and unassigned workers");

        // Update the task's state and bump its epoch.
        let ti = pair.task.index();
        task_contributions[ti].push(pair.contribution);
        task_epoch[ti] += 1;

        // The worker's pairs leave the live set: one contiguous block.
        let block = &candidates.by_worker[pair.worker.index()];
        let at = live_pairs
            .iter()
            .position(|&idx| idx == block[0])
            .expect("the committed worker was live");
        live_pairs.drain(at..at + block.len());
    }

    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_model::{
        compute_valid_pairs, evaluate, Confidence, ProblemInstance, Task, TimeWindow, Worker,
        WorkerId,
    };
    use std::f64::consts::PI;

    fn conf(p: f64) -> Confidence {
        Confidence::new(p).unwrap()
    }

    /// One task in the middle, four workers approaching from four sides.
    fn cross_instance() -> ProblemInstance {
        let task = Task::new(
            TaskId(0),
            Point::new(0.5, 0.5),
            TimeWindow::new(0.0, 10.0).unwrap(),
        );
        let mk = |x: f64, y: f64, p: f64| {
            Worker::new(
                WorkerId(0),
                Point::new(x, y),
                0.3,
                AngleRange::full(),
                conf(p),
            )
            .unwrap()
        };
        let workers = vec![
            mk(0.1, 0.5, 0.9),
            mk(0.9, 0.5, 0.8),
            mk(0.5, 0.1, 0.85),
            mk(0.5, 0.9, 0.95),
        ];
        ProblemInstance::new(vec![task], workers, 0.5)
    }

    /// Two tasks, four workers that can reach both.
    fn two_task_instance() -> ProblemInstance {
        let tasks = vec![
            Task::new(
                TaskId(0),
                Point::new(0.4, 0.5),
                TimeWindow::new(0.0, 10.0).unwrap(),
            ),
            Task::new(
                TaskId(1),
                Point::new(0.6, 0.5),
                TimeWindow::new(0.0, 10.0).unwrap(),
            ),
        ];
        let mk = |x: f64, y: f64, p: f64| {
            Worker::new(
                WorkerId(0),
                Point::new(x, y),
                0.3,
                AngleRange::full(),
                conf(p),
            )
            .unwrap()
        };
        let workers = vec![
            mk(0.1, 0.2, 0.9),
            mk(0.9, 0.8, 0.8),
            mk(0.2, 0.8, 0.85),
            mk(0.8, 0.2, 0.7),
        ];
        ProblemInstance::new(tasks, workers, 0.5)
    }

    #[test]
    fn assigns_every_assignable_worker() {
        let instance = cross_instance();
        let candidates = compute_valid_pairs(&instance);
        let assignment = greedy(
            &SolveRequest::new(&instance, &candidates),
            &GreedyConfig::default(),
        );
        assert_eq!(assignment.num_assigned(), 4);
        assert!(assignment.validate(&instance).is_ok());
        let value = evaluate(&instance, &assignment);
        // All four workers serve the single task.
        assert!(value.min_reliability > 0.99);
        assert!(value.total_std > 0.0);
    }

    #[test]
    fn assigns_all_workers_with_multiple_tasks() {
        let instance = two_task_instance();
        let candidates = compute_valid_pairs(&instance);
        let assignment = greedy(
            &SolveRequest::new(&instance, &candidates),
            &GreedyConfig::default(),
        );
        assert!(assignment.validate(&instance).is_ok());
        let value = evaluate(&instance, &assignment);
        // Greedy always commits every assignable worker. Note that the paper
        // documents greedy's "bad start-up" behaviour: it tends to pile
        // workers onto tasks that already have workers, so we do NOT require
        // both tasks to be covered here.
        assert!(value.assigned_tasks >= 1);
        assert_eq!(value.assigned_workers, 4);
        assert!(value.total_std > 0.0);
    }

    #[test]
    fn pruning_does_not_change_the_result_on_small_instances() {
        let instance = two_task_instance();
        let candidates = compute_valid_pairs(&instance);
        let with = greedy(
            &SolveRequest::new(&instance, &candidates),
            &GreedyConfig { use_pruning: true },
        );
        let without = greedy(
            &SolveRequest::new(&instance, &candidates),
            &GreedyConfig { use_pruning: false },
        );
        let v1 = evaluate(&instance, &with);
        let v2 = evaluate(&instance, &without);
        assert!((v1.min_reliability - v2.min_reliability).abs() < 1e-9);
        assert!((v1.total_std - v2.total_std).abs() < 1e-9);
    }

    #[test]
    fn empty_candidate_graph_yields_empty_assignment() {
        // A task that expires before any worker can get there.
        let task = Task::new(
            TaskId(0),
            Point::new(0.9, 0.9),
            TimeWindow::new(0.0, 0.01).unwrap(),
        );
        let worker = Worker::new(
            WorkerId(0),
            Point::new(0.1, 0.1),
            0.1,
            AngleRange::full(),
            conf(0.9),
        )
        .unwrap();
        let instance = ProblemInstance::new(vec![task], vec![worker], 0.5);
        let candidates = compute_valid_pairs(&instance);
        assert_eq!(candidates.num_pairs(), 0);
        let assignment = greedy(
            &SolveRequest::new(&instance, &candidates),
            &GreedyConfig::default(),
        );
        assert_eq!(assignment.num_assigned(), 0);
    }

    #[test]
    fn respects_direction_constraints() {
        // A worker whose cone points away from the only task must stay idle.
        let task = Task::new(
            TaskId(0),
            Point::new(0.9, 0.5),
            TimeWindow::new(0.0, 10.0).unwrap(),
        );
        let towards = Worker::new(
            WorkerId(0),
            Point::new(0.1, 0.5),
            0.3,
            AngleRange::from_bounds(-0.2, 0.2),
            conf(0.9),
        )
        .unwrap();
        let away = Worker::new(
            WorkerId(0),
            Point::new(0.1, 0.5),
            0.3,
            AngleRange::from_bounds(PI - 0.2, PI + 0.2),
            conf(0.9),
        )
        .unwrap();
        let instance = ProblemInstance::new(vec![task], vec![towards, away], 0.5);
        let candidates = compute_valid_pairs(&instance);
        let assignment = greedy(
            &SolveRequest::new(&instance, &candidates),
            &GreedyConfig::default(),
        );
        assert_eq!(assignment.num_assigned(), 1);
        assert_eq!(assignment.task_of(WorkerId(0)), Some(TaskId(0)));
        assert_eq!(assignment.task_of(WorkerId(1)), None);
    }

    #[test]
    fn priors_steer_the_choice_towards_less_covered_tasks() {
        // Task 0 already has two banked answers from the east; greedy should
        // send the new (western) worker where it adds more diversity.
        let instance = two_task_instance();
        let candidates = compute_valid_pairs(&instance);
        let mut priors = rdbsc_model::TaskPriors::empty(instance.num_tasks());
        priors.add(TaskId(0), Contribution::new(conf(0.95), 0.0, 1.0));
        priors.add(TaskId(0), Contribution::new(conf(0.95), 0.1, 1.5));
        let request = SolveRequest::new(&instance, &candidates).with_priors(&priors);
        let assignment = greedy(&request, &GreedyConfig::default());
        assert!(assignment.validate(&instance).is_ok());
        // Task 1 has nothing yet, so at least one worker must go there.
        assert!(assignment.task_load(TaskId(1)) >= 1);
    }
}
