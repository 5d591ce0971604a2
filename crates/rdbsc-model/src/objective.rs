//! Evaluation of the two RDB-SC optimisation goals (Definition 4) for a
//! candidate assignment: the **minimum reliability** over tasks and the
//! **summed expected spatial/temporal diversity** `total_STD`.

use crate::assignment::Assignment;
use crate::expected::{expected_std, expected_std_with, ExpectedScratch};
use crate::ids::TaskId;
use crate::instance::ProblemInstance;
use crate::valid_pairs::Contribution;

/// Contributions a task has *already* banked before the current assignment
/// round — e.g. answers received from previously assigned workers in the
/// incremental updating strategy (Figure 10: "considering A and S_c").
///
/// Priors participate in both the reliability and the expected-diversity of a
/// task, exactly like newly assigned workers.
/// `PartialEq` compares bucket *order* as well as content: the append order
/// is part of the engine's byte-identity contract (float folds downstream
/// are order-sensitive), and the equality is what regression tests assert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskPriors {
    per_task: Vec<Vec<Contribution>>,
}

impl TaskPriors {
    /// No priors for any of `num_tasks` tasks.
    pub fn empty(num_tasks: usize) -> Self {
        Self {
            per_task: vec![Vec::new(); num_tasks],
        }
    }

    /// Adds a banked contribution to a task.
    pub fn add(&mut self, task: TaskId, contribution: Contribution) {
        if task.index() >= self.per_task.len() {
            self.per_task.resize(task.index() + 1, Vec::new());
        }
        self.per_task[task.index()].push(contribution);
    }

    /// The banked contributions of a task.
    pub fn of(&self, task: TaskId) -> &[Contribution] {
        self.per_task
            .get(task.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Does any task have a banked contribution?
    pub fn is_empty(&self) -> bool {
        self.per_task.iter().all(|v| v.is_empty())
    }
}

/// The value of an assignment under the two RDB-SC objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveValue {
    /// `min_i rel(tᵢ, Wᵢ)` over the tasks considered (see
    /// [`MinReliabilityScope`]). `1.0` when no task is considered (e.g. an
    /// empty assignment under the non-empty scope), so that it acts as the
    /// neutral element for minimisation.
    pub min_reliability: f64,
    /// `min_i R(tᵢ, Wᵢ)` — the equivalent log-form of the first objective
    /// (Eq. 8), convenient for the greedy algorithm's increments.
    pub min_log_reliability: f64,
    /// `total_STD = Σ_i E[STD(tᵢ)]` (Eq. 7).
    pub total_std: f64,
    /// Number of tasks with at least one assigned worker.
    pub assigned_tasks: usize,
    /// Number of assigned workers.
    pub assigned_workers: usize,
}

impl ObjectiveValue {
    /// The `(reliability, diversity)` pair used by dominance comparisons.
    pub fn as_bi_objective(&self) -> (f64, f64) {
        (self.min_reliability, self.total_std)
    }
}

/// Which tasks participate in the minimum-reliability objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinReliabilityScope {
    /// Only tasks with at least one assigned worker (the paper's experiments
    /// report minimum reliabilities close to the workers' confidence lower
    /// bound even when `m > n`, which is only possible under this reading —
    /// with more tasks than workers some tasks necessarily stay empty).
    #[default]
    NonEmptyTasks,
    /// All tasks; any empty task forces the minimum to 0.
    AllTasks,
}

/// Evaluates an assignment under the default scope
/// ([`MinReliabilityScope::NonEmptyTasks`]).
pub fn evaluate(instance: &ProblemInstance, assignment: &Assignment) -> ObjectiveValue {
    evaluate_with_scope(instance, assignment, MinReliabilityScope::NonEmptyTasks)
}

/// Evaluates an assignment with an explicit minimum-reliability scope.
pub fn evaluate_with_scope(
    instance: &ProblemInstance,
    assignment: &Assignment,
    scope: MinReliabilityScope,
) -> ObjectiveValue {
    let priors = TaskPriors::empty(instance.num_tasks());
    evaluate_with_priors(instance, assignment, &priors, scope)
}

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
    // One contribution buffer and one kernel scratch for all tasks.
    let mut contributions: Vec<Contribution> = Vec::new();
    let mut scratch = ExpectedScratch::default();

    for task in &instance.tasks {
        contributions.clear();
        contributions.extend(assignment.workers_of(task.id).iter().map(|(_, c)| *c));
        contributions.extend_from_slice(priors.of(task.id));
        if contributions.is_empty() {
            if scope == MinReliabilityScope::AllTasks {
                min_rel = 0.0;
                min_log_rel = 0.0;
            }
            continue;
        }
        assigned_tasks += 1;
        let log_rel: f64 = contributions
            .iter()
            .map(|c| c.confidence.log_weight())
            .sum();
        min_rel = min_rel.min(task_reliability_of(&contributions));
        min_log_rel = min_log_rel.min(log_rel);
        total_std += task_expected_std_with(instance, task.id, &contributions, &mut scratch);
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

/// Expected STD of a single task under an assignment (convenience used by the
/// greedy algorithm's incremental updates).
pub fn task_expected_std(instance: &ProblemInstance, assignment: &Assignment, task: TaskId) -> f64 {
    let contributions = assignment.contributions_of(task);
    let t = &instance.tasks[task.index()];
    expected_std(&contributions, t.window, t.effective_beta(instance.beta))
}

/// Expected STD of a single task from an explicit contribution set (newly
/// assigned workers plus banked priors), on reusable kernel buffers.
pub fn task_expected_std_with(
    instance: &ProblemInstance,
    task: TaskId,
    contributions: &[Contribution],
    scratch: &mut ExpectedScratch,
) -> f64 {
    let t = &instance.tasks[task.index()];
    expected_std_with(
        contributions,
        t.window,
        t.effective_beta(instance.beta),
        scratch,
    )
}

/// `rel = 1 − Π (1 − pⱼ)` (Eq. 1) of an explicit contribution set: the fold
/// of [`reliability`](crate::reliability::reliability), in the same order.
pub fn task_reliability_of(contributions: &[Contribution]) -> f64 {
    let fail_all: f64 = contributions.iter().map(|c| 1.0 - c.p()).product();
    1.0 - fail_all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::Confidence;
    use crate::task::{Task, TimeWindow};
    use crate::valid_pairs::{compute_valid_pairs, Contribution};
    use crate::worker::Worker;
    use rdbsc_geo::{AngleRange, Point};

    fn instance_with(m: usize, n: usize) -> ProblemInstance {
        let tasks = (0..m)
            .map(|i| {
                Task::new(
                    TaskId(0),
                    Point::new(0.1 * (i + 1) as f64, 0.0),
                    TimeWindow::new(0.0, 10.0).unwrap(),
                )
            })
            .collect();
        let workers = (0..n)
            .map(|j| {
                Worker::new(
                    WorkerId(0),
                    Point::new(0.0, 0.1 * j as f64),
                    0.5,
                    AngleRange::full(),
                    Confidence::new(0.8 + 0.02 * j as f64).unwrap(),
                )
                .unwrap()
            })
            .collect();
        ProblemInstance::new(tasks, workers, 0.5)
    }
    use crate::ids::WorkerId;

    #[test]
    fn empty_assignment_objective() {
        let inst = instance_with(2, 2);
        let a = Assignment::for_instance(&inst);
        let v = evaluate(&inst, &a);
        assert_eq!(v.min_reliability, 1.0);
        assert_eq!(v.total_std, 0.0);
        assert_eq!(v.assigned_tasks, 0);
        let v_all = evaluate_with_scope(&inst, &a, MinReliabilityScope::AllTasks);
        assert_eq!(v_all.min_reliability, 0.0);
    }

    #[test]
    fn single_pair_objective_matches_manual_computation() {
        let inst = instance_with(1, 1);
        let graph = compute_valid_pairs(&inst);
        assert_eq!(graph.num_pairs(), 1);
        let mut a = Assignment::for_instance(&inst);
        a.assign_pair(&graph.pairs[0]).unwrap();
        let v = evaluate(&inst, &a);
        assert!((v.min_reliability - 0.8).abs() < 1e-12);
        assert_eq!(v.assigned_tasks, 1);
        assert_eq!(v.assigned_workers, 1);
        // single worker: E[STD] = (1-β)·p·TD({arrival})
        let c = graph.pairs[0].contribution;
        let expected =
            0.5 * 0.8 * crate::diversity::temporal_diversity(&[c.arrival], inst.tasks[0].window);
        assert!((v.total_std - expected).abs() < 1e-9);
    }

    #[test]
    fn min_reliability_is_the_weakest_non_empty_task() {
        let inst = instance_with(2, 2);
        let mut a = Assignment::for_instance(&inst);
        a.assign(
            TaskId(0),
            WorkerId(0),
            Contribution::new(Confidence::new(0.8).unwrap(), 0.0, 1.0),
        )
        .unwrap();
        a.assign(
            TaskId(1),
            WorkerId(1),
            Contribution::new(Confidence::new(0.95).unwrap(), 0.0, 1.0),
        )
        .unwrap();
        let v = evaluate(&inst, &a);
        assert!((v.min_reliability - 0.8).abs() < 1e-12);
        assert_eq!(v.assigned_tasks, 2);
    }

    #[test]
    fn adding_workers_never_hurts_the_objective() {
        let inst = instance_with(1, 3);
        let graph = compute_valid_pairs(&inst);
        let mut a = Assignment::for_instance(&inst);
        a.assign_pair(&graph.pairs[0]).unwrap();
        let before = evaluate(&inst, &a);
        for p in &graph.pairs[1..] {
            a.assign_pair(p).unwrap();
        }
        let after = evaluate(&inst, &a);
        assert!(after.min_reliability >= before.min_reliability - 1e-12);
        assert!(after.total_std >= before.total_std - 1e-12);
    }

    #[test]
    fn task_expected_std_matches_objective_sum() {
        let inst = instance_with(2, 4);
        let graph = compute_valid_pairs(&inst);
        let mut a = Assignment::for_instance(&inst);
        for (i, p) in graph.pairs.iter().enumerate() {
            // spread workers over tasks round-robin, one task each
            if a.is_unassigned(p.worker) && i % 2 == p.task.index() % 2 {
                a.assign_pair(p).unwrap();
            }
        }
        let v = evaluate(&inst, &a);
        let sum: f64 = (0..inst.num_tasks())
            .map(|i| task_expected_std(&inst, &a, TaskId::from(i)))
            .sum();
        assert!((v.total_std - sum).abs() < 1e-9);
    }
}
