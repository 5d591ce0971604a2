//! A complete RDB-SC problem instance: the task set `T`, the worker set `W`
//! and the global parameters of Definition 4.

use crate::error::ModelError;
use crate::ids::{TaskId, WorkerId};
use crate::task::Task;
use crate::worker::Worker;

/// An RDB-SC problem instance.
///
/// Tasks and workers are stored in dense vectors and identified by their
/// index ([`TaskId`] / [`WorkerId`]); the constructor re-numbers ids to match
/// positions so the rest of the system can index in O(1).
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    /// The `m` time-constrained spatial tasks.
    pub tasks: Vec<Task>,
    /// The `n` dynamically moving workers.
    pub workers: Vec<Worker>,
    /// Default diversity balance weight `β ∈ [0, 1]` (Eq. 5), used by tasks
    /// that do not specify their own.
    pub beta: f64,
    /// Time at which assignments are made (workers depart no earlier).
    pub depart_at: f64,
    /// Whether a worker arriving before a task's window opens may wait at the
    /// location (see `rdbsc_geo::MotionModel::reach`).
    pub allow_wait: bool,
}

impl ProblemInstance {
    /// Creates an instance, re-numbering task and worker ids to their
    /// positions. `beta` is clamped into `[0, 1]`.
    pub fn new(mut tasks: Vec<Task>, mut workers: Vec<Worker>, beta: f64) -> Self {
        for (i, t) in tasks.iter_mut().enumerate() {
            t.id = TaskId::from(i);
        }
        for (j, w) in workers.iter_mut().enumerate() {
            w.id = WorkerId::from(j);
        }
        Self {
            tasks,
            workers,
            beta: beta.clamp(0.0, 1.0),
            depart_at: 0.0,
            allow_wait: true,
        }
    }

    /// Sets the departure time (builder style).
    pub fn with_depart_at(mut self, t: f64) -> Self {
        self.depart_at = t;
        self
    }

    /// Sets the waiting policy (builder style).
    pub fn with_allow_wait(mut self, allow: bool) -> Self {
        self.allow_wait = allow;
        self
    }

    /// Number of tasks `m`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of workers `n`.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Looks a task up by id.
    pub fn task(&self, id: TaskId) -> Result<&Task, ModelError> {
        self.tasks
            .get(id.index())
            .ok_or(ModelError::UnknownTask(id))
    }

    /// Looks a worker up by id.
    pub fn worker(&self, id: WorkerId) -> Result<&Worker, ModelError> {
        self.workers
            .get(id.index())
            .ok_or(ModelError::UnknownWorker(id))
    }

    /// The effective β of a task, falling back to the instance default.
    pub fn beta_of(&self, task: TaskId) -> f64 {
        self.tasks
            .get(task.index())
            .map(|t| t.effective_beta(self.beta))
            .unwrap_or(self.beta)
    }

    /// Builds a sub-instance restricted to the given tasks and workers
    /// (used by the divide-and-conquer partitioner). Ids in the returned
    /// instance are re-numbered; the mapping back to the original ids is
    /// returned alongside.
    pub fn restrict(
        &self,
        task_ids: &[TaskId],
        worker_ids: &[WorkerId],
    ) -> (ProblemInstance, SubInstanceMapping) {
        let tasks: Vec<Task> = task_ids
            .iter()
            .filter_map(|id| self.tasks.get(id.index()).copied())
            .collect();
        let workers: Vec<Worker> = worker_ids
            .iter()
            .filter_map(|id| self.workers.get(id.index()).copied())
            .collect();
        let mapping = SubInstanceMapping {
            tasks: tasks.iter().map(|t| t.id).collect(),
            workers: workers.iter().map(|w| w.id).collect(),
        };
        let mut sub = ProblemInstance::new(tasks, workers, self.beta);
        sub.depart_at = self.depart_at;
        sub.allow_wait = self.allow_wait;
        (sub, mapping)
    }
}

/// Mapping from a sub-instance's dense ids back to the parent instance's ids.
#[derive(Debug, Clone, Default)]
pub struct SubInstanceMapping {
    /// `tasks[i]` is the parent id of sub-task `i`.
    pub tasks: Vec<TaskId>,
    /// `workers[j]` is the parent id of sub-worker `j`.
    pub workers: Vec<WorkerId>,
}

impl SubInstanceMapping {
    /// Parent id of a sub-instance task.
    pub fn task(&self, sub: TaskId) -> TaskId {
        self.tasks[sub.index()]
    }

    /// Parent id of a sub-instance worker.
    pub fn worker(&self, sub: WorkerId) -> WorkerId {
        self.workers[sub.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::Confidence;
    use crate::task::TimeWindow;
    use rdbsc_geo::{AngleRange, Point};

    fn make_instance(m: usize, n: usize) -> ProblemInstance {
        let tasks = (0..m)
            .map(|i| {
                Task::new(
                    TaskId(999), // ids are re-numbered by the constructor
                    Point::new(i as f64 * 0.1, 0.0),
                    TimeWindow::new(0.0, 10.0).unwrap(),
                )
            })
            .collect();
        let workers = (0..n)
            .map(|j| {
                Worker::new(
                    WorkerId(999),
                    Point::new(0.0, j as f64 * 0.1),
                    0.5,
                    AngleRange::full(),
                    Confidence::new(0.9).unwrap(),
                )
                .unwrap()
            })
            .collect();
        ProblemInstance::new(tasks, workers, 0.5)
    }

    #[test]
    fn ids_are_renumbered_to_positions() {
        let inst = make_instance(3, 2);
        for (i, t) in inst.tasks.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
        for (j, w) in inst.workers.iter().enumerate() {
            assert_eq!(w.id.index(), j);
        }
    }

    #[test]
    fn lookups_by_id() {
        let inst = make_instance(3, 2);
        assert!(inst.task(TaskId(2)).is_ok());
        assert!(inst.task(TaskId(5)).is_err());
        assert!(inst.worker(WorkerId(1)).is_ok());
        assert!(inst.worker(WorkerId(9)).is_err());
        assert_eq!(inst.num_tasks(), 3);
        assert_eq!(inst.num_workers(), 2);
    }

    #[test]
    fn beta_of_uses_task_override() {
        let mut inst = make_instance(2, 1);
        inst.tasks[1].beta = Some(0.9);
        assert_eq!(inst.beta_of(TaskId(0)), 0.5);
        assert_eq!(inst.beta_of(TaskId(1)), 0.9);
    }

    #[test]
    fn restrict_builds_sub_instance_with_mapping() {
        let inst = make_instance(4, 3);
        let (sub, map) = inst.restrict(&[TaskId(1), TaskId(3)], &[WorkerId(0), WorkerId(2)]);
        assert_eq!(sub.num_tasks(), 2);
        assert_eq!(sub.num_workers(), 2);
        assert_eq!(map.task(TaskId(0)), TaskId(1));
        assert_eq!(map.task(TaskId(1)), TaskId(3));
        assert_eq!(map.worker(WorkerId(1)), WorkerId(2));
        // sub-instance tasks keep the parent locations
        assert_eq!(sub.tasks[0].location, inst.tasks[1].location);
    }

    #[test]
    fn builder_setters() {
        let inst = make_instance(1, 1)
            .with_depart_at(3.0)
            .with_allow_wait(false);
        assert_eq!(inst.depart_at, 3.0);
        assert!(!inst.allow_wait);
    }
}
