//! Valid task-and-worker pairs (constraint 1 of Definition 4) and the
//! *contribution* a worker makes to a task when it serves it.

use crate::ids::{TaskId, WorkerId};
use crate::instance::ProblemInstance;
use crate::reliability::Confidence;
use crate::task::Task;
use crate::worker::Worker;
use rdbsc_geo::{normalize_angle, Reachability};
use std::f64::consts::PI;

/// What a single worker contributes to a task it is assigned to: its
/// confidence, the angle of the ray from the task towards the worker
/// (spatial diversity) and its effective arrival time (temporal diversity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// Worker confidence `pⱼ`.
    pub confidence: Confidence,
    /// Angle (radians, `[0, 2π)`) of the ray from the task's location towards
    /// the worker's approach side. Workers move towards the task, so this is
    /// the travel direction plus `π`.
    pub angle: f64,
    /// Effective arrival time at the task location, inside the task's valid
    /// period.
    pub arrival: f64,
}

impl Contribution {
    /// Creates a contribution, normalising the angle.
    pub fn new(confidence: Confidence, angle: f64, arrival: f64) -> Self {
        Self {
            confidence,
            angle: normalize_angle(angle),
            arrival,
        }
    }

    /// The confidence as an `f64`.
    #[inline]
    pub fn p(&self) -> f64 {
        self.confidence.value()
    }
}

/// A valid task-and-worker pair: the worker can arrive at the task's location
/// within its valid period while respecting its moving-direction cone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidPair {
    /// The task of the pair.
    pub task: TaskId,
    /// The worker that can serve it.
    pub worker: WorkerId,
    /// The contribution the worker would make to the task.
    pub contribution: Contribution,
}

/// Checks a single (task, worker) pair and, when valid, returns the worker's
/// contribution.
///
/// `depart_at` is the time at which the assignment is made (0 for the static
/// problem; the current platform time for incremental re-assignments).
pub fn check_pair(
    task: &Task,
    worker: &Worker,
    depart_at: f64,
    allow_wait: bool,
) -> Option<Contribution> {
    match worker.motion().reach(
        task.location,
        task.window.start,
        task.window.end,
        depart_at,
        allow_wait,
    ) {
        Reachability::Reachable {
            effective_arrival,
            travel_direction,
            ..
        } => Some(Contribution::new(
            worker.confidence,
            travel_direction + PI,
            effective_arrival,
        )),
        Reachability::Unreachable(_) => None,
    }
}

/// The bipartite candidate graph of all valid pairs: adjacency lists per
/// worker and per task (Figure 4 of the paper).
#[derive(Debug, Clone, Default)]
pub struct BipartiteCandidates {
    /// All valid pairs.
    pub pairs: Vec<ValidPair>,
    /// For each worker (by index), the indices into `pairs` of its candidate
    /// tasks. The length of this list is the worker's degree `deg(wⱼ)`.
    pub by_worker: Vec<Vec<usize>>,
    /// For each task (by index), the indices into `pairs` of its candidate
    /// workers.
    pub by_task: Vec<Vec<usize>>,
}

impl BipartiteCandidates {
    /// Creates an empty candidate graph sized for `num_tasks` × `num_workers`.
    pub fn with_capacity(num_tasks: usize, num_workers: usize) -> Self {
        Self {
            pairs: Vec::new(),
            by_worker: vec![Vec::new(); num_workers],
            by_task: vec![Vec::new(); num_tasks],
        }
    }

    /// Adds a valid pair to the graph.
    pub fn push(&mut self, pair: ValidPair) {
        let idx = self.pairs.len();
        self.by_worker[pair.worker.index()].push(idx);
        self.by_task[pair.task.index()].push(idx);
        self.pairs.push(pair);
    }

    /// The degree `deg(wⱼ)` of a worker: the number of tasks it can serve.
    pub fn degree(&self, worker: WorkerId) -> usize {
        self.by_worker[worker.index()].len()
    }

    /// Total number of valid pairs (edges in the bipartite graph).
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Natural logarithm of the population size `N = Π deg(wⱼ)` over workers
    /// with non-zero degree (Section 5.2). Computed in log-space to avoid
    /// overflow for large instances.
    pub fn ln_population(&self) -> f64 {
        self.by_worker
            .iter()
            .filter(|adj| !adj.is_empty())
            .map(|adj| (adj.len() as f64).ln())
            .sum()
    }

    /// Candidate pairs of a given worker.
    pub fn pairs_of_worker(&self, worker: WorkerId) -> impl Iterator<Item = &ValidPair> {
        self.by_worker[worker.index()]
            .iter()
            .map(|&i| &self.pairs[i])
    }

    /// Candidate pairs of a given task.
    pub fn pairs_of_task(&self, task: TaskId) -> impl Iterator<Item = &ValidPair> {
        self.by_task[task.index()].iter().map(|&i| &self.pairs[i])
    }
}

/// Computes every valid task-and-worker pair of an instance by brute force
/// (`O(m·n)` reachability checks). The grid index (crate `rdbsc-index`)
/// provides an accelerated equivalent.
pub fn compute_valid_pairs(instance: &ProblemInstance) -> BipartiteCandidates {
    let mut graph =
        BipartiteCandidates::with_capacity(instance.tasks.len(), instance.workers.len());
    for task in &instance.tasks {
        for worker in &instance.workers {
            if let Some(contribution) =
                check_pair(task, worker, instance.depart_at, instance.allow_wait)
            {
                graph.push(ValidPair {
                    task: task.id,
                    worker: worker.id,
                    contribution,
                });
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ProblemInstance;
    use crate::task::TimeWindow;
    use rdbsc_geo::{AngleRange, Point};

    fn conf(p: f64) -> Confidence {
        Confidence::new(p).unwrap()
    }

    fn simple_instance() -> ProblemInstance {
        // One task at (1, 0) open during [0, 5]; two workers at the origin:
        // one heading east (can reach), one heading west (cannot).
        let task = Task::new(
            TaskId(0),
            Point::new(1.0, 0.0),
            TimeWindow::new(0.0, 5.0).unwrap(),
        );
        let east = Worker::new(
            WorkerId(0),
            Point::ORIGIN,
            1.0,
            AngleRange::from_bounds(-0.5, 0.5),
            conf(0.9),
        )
        .unwrap();
        let west = Worker::new(
            WorkerId(1),
            Point::ORIGIN,
            1.0,
            AngleRange::from_bounds(PI - 0.5, PI + 0.5),
            conf(0.8),
        )
        .unwrap();
        ProblemInstance::new(vec![task], vec![east, west], 0.5)
    }

    #[test]
    fn check_pair_respects_direction_and_deadline() {
        let instance = simple_instance();
        let t = &instance.tasks[0];
        assert!(check_pair(t, &instance.workers[0], 0.0, true).is_some());
        assert!(check_pair(t, &instance.workers[1], 0.0, true).is_none());
        // too-late departure
        assert!(check_pair(t, &instance.workers[0], 10.0, true).is_none());
    }

    #[test]
    fn contribution_angle_points_back_at_worker() {
        let instance = simple_instance();
        let t = &instance.tasks[0];
        let c = check_pair(t, &instance.workers[0], 0.0, true).unwrap();
        // worker approaches from the west, so the ray from the task towards
        // the worker points west (π).
        assert!((c.angle - PI).abs() < 1e-9);
        assert!((c.arrival - 1.0).abs() < 1e-9);
        assert_eq!(c.p(), 0.9);
    }

    #[test]
    fn compute_valid_pairs_builds_adjacency() {
        let instance = simple_instance();
        let graph = compute_valid_pairs(&instance);
        assert_eq!(graph.num_pairs(), 1);
        assert_eq!(graph.degree(WorkerId(0)), 1);
        assert_eq!(graph.degree(WorkerId(1)), 0);
        assert_eq!(graph.pairs_of_task(TaskId(0)).count(), 1);
        assert_eq!(graph.by_task.len(), 1);
        assert_eq!(graph.by_worker.len(), 2);
    }

    #[test]
    fn ln_population_counts_only_connected_workers() {
        let instance = simple_instance();
        let graph = compute_valid_pairs(&instance);
        // single connected worker with degree 1 -> ln(1) = 0
        assert_eq!(graph.ln_population(), 0.0);
    }
}
