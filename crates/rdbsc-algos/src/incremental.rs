//! The incremental updating strategy (Section 8.1, Figure 10).
//!
//! On a live platform, tasks and workers arrive and leave continuously.
//! Every `t_interval` the platform re-assigns the *available* workers to the
//! *open* tasks, taking into account (a) the answers `A` already received for
//! each task and (b) the workers still travelling under the current
//! assignment `S_c`. The [`IncrementalAssigner`] keeps both pieces of state
//! and exposes one call per update round.

use crate::solver::{SolveRequest, Solver};
use rand::Rng;
use rdbsc_model::objective::{evaluate_with_priors, MinReliabilityScope, TaskPriors};
use rdbsc_model::valid_pairs::{BipartiteCandidates, ValidPair};
use rdbsc_model::{Assignment, Contribution, ObjectiveValue, ProblemInstance, TaskId, WorkerId};

/// Configuration of the incremental assigner.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Solver used in each update round.
    pub solver: Solver,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self {
            solver: Solver::Sampling(crate::sampling::SamplingConfig::default()),
        }
    }
}

/// What happened in one update round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The pairs newly committed in this round.
    pub new_pairs: Vec<ValidPair>,
    /// The objective value of the platform state after the round (banked
    /// answers + en-route workers + new assignments).
    pub objective: ObjectiveValue,
}

/// Stateful incremental assigner: banked answers per task plus the set of
/// workers currently travelling under the standing assignment `S_c`.
#[derive(Debug, Clone)]
pub struct IncrementalAssigner {
    config: IncrementalConfig,
    /// Answers already received, per task.
    banked: TaskPriors,
    /// The standing assignment (workers en route).
    committed: Assignment,
}

impl IncrementalAssigner {
    /// Creates an assigner for a platform with `num_tasks` tasks and
    /// `num_workers` workers (dense, stable ids).
    pub fn new(num_tasks: usize, num_workers: usize, config: IncrementalConfig) -> Self {
        Self {
            config,
            banked: TaskPriors::empty(num_tasks),
            committed: Assignment::new(num_tasks, num_workers),
        }
    }

    /// The banked answers.
    pub fn banked(&self) -> &TaskPriors {
        &self.banked
    }

    /// The standing assignment (workers currently en route).
    pub fn committed(&self) -> &Assignment {
        &self.committed
    }

    /// Is the worker currently travelling under the standing assignment?
    pub fn is_committed(&self, worker: WorkerId) -> bool {
        self.committed.task_of(worker).is_some()
    }

    /// Records that a worker completed its task and produced an answer; the
    /// worker becomes available again and its contribution is banked.
    pub fn record_answer(&mut self, worker: WorkerId, contribution: Contribution) {
        if let Some(task) = self.committed.unassign(worker) {
            self.banked.add(task, contribution);
        }
    }

    /// Records that a worker gave up (rejected the request, missed the
    /// deadline, …); the worker becomes available again and nothing is
    /// banked.
    pub fn release_worker(&mut self, worker: WorkerId) {
        self.committed.unassign(worker);
    }

    /// Records an answer for a task without going through a committed worker
    /// (e.g. a spontaneous submission); only the banked priors change.
    pub fn bank_contribution(&mut self, task: TaskId, contribution: Contribution) {
        self.banked.add(task, contribution);
    }

    /// Runs one update round (lines 2–7 of Figure 10): assigns the available
    /// workers among `candidates` to open tasks, considering the banked
    /// answers and the standing assignment. Newly assigned workers join the
    /// standing assignment.
    ///
    /// `candidates` must only contain pairs for *open* tasks; pairs of
    /// workers that are still travelling are ignored.
    pub fn assign_round<R: Rng + ?Sized>(
        &mut self,
        instance: &ProblemInstance,
        candidates: &BipartiteCandidates,
        rng: &mut R,
    ) -> RoundOutcome {
        // Filter out pairs whose worker is still committed.
        let mut available =
            BipartiteCandidates::with_capacity(instance.num_tasks(), instance.num_workers());
        for pair in &candidates.pairs {
            if !self.is_committed(pair.worker) {
                available.push(*pair);
            }
        }

        // The solver must see banked answers *and* en-route workers as prior
        // contributions of their tasks.
        let mut priors = self.banked.clone();
        for (task, _, contribution) in self.committed.iter() {
            priors.add(task, contribution);
        }

        let request = SolveRequest::new(instance, &available).with_priors(&priors);
        let round_assignment = self.config.solver.solve(&request, rng);

        let mut new_pairs = Vec::new();
        for (task, worker, contribution) in round_assignment.iter() {
            if self.committed.assign(task, worker, contribution).is_ok() {
                new_pairs.push(ValidPair {
                    task,
                    worker,
                    contribution,
                });
            }
        }

        let objective = evaluate_with_priors(
            instance,
            &self.committed,
            &self.banked,
            MinReliabilityScope::NonEmptyTasks,
        );
        RoundOutcome {
            new_pairs,
            objective,
        }
    }

    /// The objective of the current platform state.
    pub fn current_objective(&self, instance: &ProblemInstance) -> ObjectiveValue {
        evaluate_with_priors(
            instance,
            &self.committed,
            &self.banked,
            MinReliabilityScope::NonEmptyTasks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_model::{compute_valid_pairs, Confidence, Task, TimeWindow, Worker};

    fn conf(p: f64) -> Confidence {
        Confidence::new(p).unwrap()
    }

    fn instance() -> ProblemInstance {
        let tasks = vec![
            Task::new(
                TaskId(0),
                Point::new(0.3, 0.5),
                TimeWindow::new(0.0, 20.0).unwrap(),
            ),
            Task::new(
                TaskId(1),
                Point::new(0.7, 0.5),
                TimeWindow::new(0.0, 20.0).unwrap(),
            ),
        ];
        let workers = (0..6)
            .map(|j| {
                Worker::new(
                    WorkerId(0),
                    Point::new(0.1 + 0.15 * j as f64, 0.2),
                    0.3,
                    AngleRange::full(),
                    conf(0.9),
                )
                .unwrap()
            })
            .collect();
        ProblemInstance::new(tasks, workers, 0.5)
    }

    #[test]
    fn first_round_assigns_available_workers() {
        let inst = instance();
        let candidates = compute_valid_pairs(&inst);
        let mut assigner = IncrementalAssigner::new(
            inst.num_tasks(),
            inst.num_workers(),
            IncrementalConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = assigner.assign_round(&inst, &candidates, &mut rng);
        assert_eq!(outcome.new_pairs.len(), 6);
        assert_eq!(assigner.committed().num_assigned(), 6);
        assert!(outcome.objective.min_reliability > 0.0);
    }

    #[test]
    fn committed_workers_are_not_reassigned() {
        let inst = instance();
        let candidates = compute_valid_pairs(&inst);
        let mut assigner = IncrementalAssigner::new(
            inst.num_tasks(),
            inst.num_workers(),
            IncrementalConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let first = assigner.assign_round(&inst, &candidates, &mut rng);
        assert!(!first.new_pairs.is_empty());
        // Second round without any completion: nothing new to assign.
        let second = assigner.assign_round(&inst, &candidates, &mut rng);
        assert!(second.new_pairs.is_empty());
    }

    #[test]
    fn completions_free_workers_and_bank_answers() {
        let inst = instance();
        let candidates = compute_valid_pairs(&inst);
        let mut assigner = IncrementalAssigner::new(
            inst.num_tasks(),
            inst.num_workers(),
            IncrementalConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let first = assigner.assign_round(&inst, &candidates, &mut rng);
        let done = first.new_pairs[0];
        assigner.record_answer(done.worker, done.contribution);
        assert!(!assigner.is_committed(done.worker));
        assert_eq!(assigner.banked().of(done.task).len(), 1);
        // The freed worker can be assigned again in the next round.
        let second = assigner.assign_round(&inst, &candidates, &mut rng);
        assert_eq!(second.new_pairs.len(), 1);
        assert_eq!(second.new_pairs[0].worker, done.worker);
        // The banked answer keeps counting towards the objective.
        assert!(second.objective.total_std >= 0.0);
        assert!(second.objective.assigned_tasks >= 1);
    }

    #[test]
    fn released_workers_do_not_bank_answers() {
        let inst = instance();
        let candidates = compute_valid_pairs(&inst);
        let mut assigner = IncrementalAssigner::new(
            inst.num_tasks(),
            inst.num_workers(),
            IncrementalConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let first = assigner.assign_round(&inst, &candidates, &mut rng);
        let dropped = first.new_pairs[0];
        assigner.release_worker(dropped.worker);
        assert!(!assigner.is_committed(dropped.worker));
        assert_eq!(assigner.banked().of(dropped.task).len(), 0);
    }

    #[test]
    fn objective_is_monotone_over_rounds_with_completions() {
        let inst = instance();
        let candidates = compute_valid_pairs(&inst);
        let mut assigner = IncrementalAssigner::new(
            inst.num_tasks(),
            inst.num_workers(),
            IncrementalConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut last_std = 0.0;
        for round in 0..4 {
            let outcome = assigner.assign_round(&inst, &candidates, &mut rng);
            assert!(
                outcome.objective.total_std >= last_std - 1e-9,
                "round {round}: diversity regressed"
            );
            last_std = outcome.objective.total_std;
            // Complete every en-route worker so the next round can reassign.
            let travelling: Vec<_> = assigner.committed().iter().collect();
            for (_, worker, contribution) in travelling {
                assigner.record_answer(worker, contribution);
            }
        }
        assert!(last_std > 0.0);
    }
}
