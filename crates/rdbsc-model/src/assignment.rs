//! Task-and-worker assignment strategies (the `S` of the paper's algorithms).
//!
//! An [`Assignment`] maps every worker to at most one task and records, per
//! task, the contributions (confidence, approach angle, arrival time) of the
//! workers assigned to it. It is the common currency between the greedy,
//! sampling and divide-and-conquer solvers, the objective evaluation and the
//! platform simulator.

use crate::error::ModelError;
use crate::ids::{TaskId, WorkerId};
use crate::instance::ProblemInstance;
use crate::valid_pairs::{check_pair, Contribution, ValidPair};

/// A task-and-worker assignment strategy.
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    /// For each task (dense index), the workers assigned to it together with
    /// their contributions.
    per_task: Vec<Vec<(WorkerId, Contribution)>>,
    /// For each worker (dense index), the task it is assigned to, if any.
    per_worker: Vec<Option<TaskId>>,
}

impl Assignment {
    /// Creates an empty assignment for `num_tasks` tasks and `num_workers`
    /// workers.
    pub fn new(num_tasks: usize, num_workers: usize) -> Self {
        Self {
            per_task: vec![Vec::new(); num_tasks],
            per_worker: vec![None; num_workers],
        }
    }

    /// Creates an empty assignment sized for an instance.
    pub fn for_instance(instance: &ProblemInstance) -> Self {
        Self::new(instance.num_tasks(), instance.num_workers())
    }

    /// Number of tasks this assignment covers (dense capacity, not the number
    /// of tasks with workers).
    pub fn num_tasks(&self) -> usize {
        self.per_task.len()
    }

    /// Number of workers this assignment covers.
    pub fn num_workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Assigns a worker to a task with the given contribution.
    ///
    /// Fails when the worker is already assigned to a *different* task.
    /// Re-assigning a worker to the same task overwrites its contribution.
    pub fn assign(
        &mut self,
        task: TaskId,
        worker: WorkerId,
        contribution: Contribution,
    ) -> Result<(), ModelError> {
        match self.per_worker.get(worker.index()) {
            None => return Err(ModelError::UnknownWorker(worker)),
            Some(Some(existing)) if *existing != task => {
                return Err(ModelError::WorkerAssignedTwice(worker))
            }
            _ => {}
        }
        if task.index() >= self.per_task.len() {
            return Err(ModelError::UnknownTask(task));
        }
        let entry = &mut self.per_task[task.index()];
        if let Some(slot) = entry.iter_mut().find(|(w, _)| *w == worker) {
            slot.1 = contribution;
        } else {
            entry.push((worker, contribution));
        }
        self.per_worker[worker.index()] = Some(task);
        Ok(())
    }

    /// Assigns a worker to a task described by a [`ValidPair`].
    pub fn assign_pair(&mut self, pair: &ValidPair) -> Result<(), ModelError> {
        self.assign(pair.task, pair.worker, pair.contribution)
    }

    /// Removes a worker's assignment (no-op if unassigned). Returns the task
    /// it was assigned to, if any.
    pub fn unassign(&mut self, worker: WorkerId) -> Option<TaskId> {
        let slot = self.per_worker.get_mut(worker.index())?;
        let task = slot.take()?;
        self.per_task[task.index()].retain(|(w, _)| *w != worker);
        Some(task)
    }

    /// The task a worker is assigned to, if any.
    pub fn task_of(&self, worker: WorkerId) -> Option<TaskId> {
        self.per_worker.get(worker.index()).copied().flatten()
    }

    /// Is the worker currently unassigned?
    pub fn is_unassigned(&self, worker: WorkerId) -> bool {
        self.task_of(worker).is_none()
    }

    /// The workers (and contributions) assigned to a task.
    pub fn workers_of(&self, task: TaskId) -> &[(WorkerId, Contribution)] {
        self.per_task
            .get(task.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The contributions assigned to a task (without worker ids).
    pub fn contributions_of(&self, task: TaskId) -> Vec<Contribution> {
        self.workers_of(task).iter().map(|(_, c)| *c).collect()
    }

    /// Number of workers assigned to a task.
    pub fn task_load(&self, task: TaskId) -> usize {
        self.workers_of(task).len()
    }

    /// Total number of assigned workers.
    pub fn num_assigned(&self) -> usize {
        self.per_worker.iter().filter(|t| t.is_some()).count()
    }

    /// Tasks that have at least one worker assigned.
    pub fn non_empty_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.per_task
            .iter()
            .enumerate()
            .filter(|(_, ws)| !ws.is_empty())
            .map(|(i, _)| TaskId::from(i))
    }

    /// Iterates over all `(task, worker, contribution)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, WorkerId, Contribution)> + '_ {
        self.per_task
            .iter()
            .enumerate()
            .flat_map(|(i, ws)| ws.iter().map(move |(w, c)| (TaskId::from(i), *w, *c)))
    }

    /// Merges another assignment into this one. Workers already assigned in
    /// `self` keep their assignment; conflicting assignments in `other` are
    /// skipped and reported back.
    pub fn merge_preferring_self(&mut self, other: &Assignment) -> Vec<WorkerId> {
        let mut conflicts = Vec::new();
        for (task, worker, contribution) in other.iter() {
            match self.task_of(worker) {
                None => {
                    // Safe: `other` has the same dimensions by construction of callers.
                    let _ = self.assign(task, worker, contribution);
                }
                Some(existing) if existing == task => {}
                Some(_) => conflicts.push(worker),
            }
        }
        conflicts
    }

    /// Validates the assignment against an instance: every pair must satisfy
    /// the direction/deadline constraints and every worker must serve at most
    /// one task (the latter holds by construction, but is re-checked for
    /// assignments deserialised from external sources).
    pub fn validate(&self, instance: &ProblemInstance) -> Result<(), ModelError> {
        if self.per_task.len() != instance.num_tasks()
            || self.per_worker.len() != instance.num_workers()
        {
            return Err(ModelError::UnknownTask(TaskId::from(self.per_task.len())));
        }
        let mut seen = vec![false; instance.num_workers()];
        for (task_id, worker_id, _) in self.iter() {
            let task = instance.task(task_id)?;
            let worker = instance.worker(worker_id)?;
            if seen[worker_id.index()] {
                return Err(ModelError::WorkerAssignedTwice(worker_id));
            }
            seen[worker_id.index()] = true;
            if check_pair(task, worker, instance.depart_at, instance.allow_wait).is_none() {
                return Err(ModelError::InvalidPair {
                    task: task_id,
                    worker: worker_id,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::Confidence;
    use crate::task::{Task, TimeWindow};
    use crate::worker::Worker;
    use rdbsc_geo::{AngleRange, Point};

    fn contribution(p: f64) -> Contribution {
        Contribution::new(Confidence::new(p).unwrap(), 1.0, 2.0)
    }

    #[test]
    fn assign_and_lookup() {
        let mut a = Assignment::new(2, 3);
        a.assign(TaskId(0), WorkerId(1), contribution(0.9)).unwrap();
        a.assign(TaskId(1), WorkerId(2), contribution(0.8)).unwrap();
        assert_eq!(a.task_of(WorkerId(1)), Some(TaskId(0)));
        assert_eq!(a.task_of(WorkerId(0)), None);
        assert_eq!(a.task_load(TaskId(0)), 1);
        assert_eq!(a.num_assigned(), 2);
        assert_eq!(a.non_empty_tasks().count(), 2);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn double_assignment_is_rejected() {
        let mut a = Assignment::new(2, 1);
        a.assign(TaskId(0), WorkerId(0), contribution(0.9)).unwrap();
        let err = a.assign(TaskId(1), WorkerId(0), contribution(0.9));
        assert_eq!(err, Err(ModelError::WorkerAssignedTwice(WorkerId(0))));
        // re-assigning to the same task just overwrites the contribution
        assert!(a.assign(TaskId(0), WorkerId(0), contribution(0.5)).is_ok());
        assert_eq!(a.workers_of(TaskId(0)).len(), 1);
        assert_eq!(a.workers_of(TaskId(0))[0].1.p(), 0.5);
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let mut a = Assignment::new(1, 1);
        assert!(a.assign(TaskId(5), WorkerId(0), contribution(0.9)).is_err());
        assert!(a.assign(TaskId(0), WorkerId(5), contribution(0.9)).is_err());
    }

    #[test]
    fn unassign_round_trip() {
        let mut a = Assignment::new(1, 1);
        a.assign(TaskId(0), WorkerId(0), contribution(0.9)).unwrap();
        assert_eq!(a.unassign(WorkerId(0)), Some(TaskId(0)));
        assert_eq!(a.unassign(WorkerId(0)), None);
        assert_eq!(a.task_load(TaskId(0)), 0);
        assert!(a.is_unassigned(WorkerId(0)));
    }

    #[test]
    fn merge_prefers_existing_assignments() {
        let mut a = Assignment::new(2, 2);
        a.assign(TaskId(0), WorkerId(0), contribution(0.9)).unwrap();
        let mut b = Assignment::new(2, 2);
        b.assign(TaskId(1), WorkerId(0), contribution(0.8)).unwrap();
        b.assign(TaskId(1), WorkerId(1), contribution(0.7)).unwrap();
        let conflicts = a.merge_preferring_self(&b);
        assert_eq!(conflicts, vec![WorkerId(0)]);
        assert_eq!(a.task_of(WorkerId(0)), Some(TaskId(0)));
        assert_eq!(a.task_of(WorkerId(1)), Some(TaskId(1)));
    }

    #[test]
    fn validate_against_instance() {
        let task = Task::new(
            TaskId(0),
            Point::new(1.0, 0.0),
            TimeWindow::new(0.0, 5.0).unwrap(),
        );
        let worker = Worker::new(
            WorkerId(0),
            Point::ORIGIN,
            1.0,
            AngleRange::full(),
            Confidence::new(0.9).unwrap(),
        )
        .unwrap();
        let slow_worker = Worker::new(
            WorkerId(1),
            Point::new(100.0, 100.0),
            0.01,
            AngleRange::full(),
            Confidence::new(0.9).unwrap(),
        )
        .unwrap();
        let instance = ProblemInstance::new(vec![task], vec![worker, slow_worker], 0.5);

        let mut ok = Assignment::for_instance(&instance);
        let c = check_pair(&instance.tasks[0], &instance.workers[0], 0.0, true).unwrap();
        ok.assign(TaskId(0), WorkerId(0), c).unwrap();
        assert!(ok.validate(&instance).is_ok());

        // An assignment claiming the unreachable worker serves the task must fail.
        let mut bad = Assignment::for_instance(&instance);
        bad.assign(TaskId(0), WorkerId(1), contribution(0.9))
            .unwrap();
        assert!(matches!(
            bad.validate(&instance),
            Err(ModelError::InvalidPair { .. })
        ));
    }
}
