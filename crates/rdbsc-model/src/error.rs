//! Error type for model construction and validation.

use crate::ids::{TaskId, WorkerId};
use std::fmt;

/// Errors raised while constructing or validating model objects.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A confidence value fell outside `[0, 1]` or was not finite.
    InvalidConfidence(f64),
    /// A time window had `end < start` or non-finite bounds.
    InvalidTimeWindow {
        /// The rejected window's start.
        start: f64,
        /// The rejected window's end.
        end: f64,
    },
    /// A worker speed was negative or non-finite.
    InvalidSpeed(f64),
    /// A referenced task id does not exist in the instance.
    UnknownTask(TaskId),
    /// A referenced worker id does not exist in the instance.
    UnknownWorker(WorkerId),
    /// A worker was assigned to more than one task.
    WorkerAssignedTwice(WorkerId),
    /// An assignment pair violates the reachability constraint.
    InvalidPair {
        /// The task of the rejected pair.
        task: TaskId,
        /// The worker of the rejected pair.
        worker: WorkerId,
    },
    /// The diversity balance weight `β` fell outside `[0, 1]`.
    InvalidBeta(f64),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidConfidence(p) => {
                write!(f, "worker confidence {p} is outside [0, 1]")
            }
            ModelError::InvalidTimeWindow { start, end } => {
                write!(f, "invalid time window [{start}, {end}]")
            }
            ModelError::InvalidSpeed(v) => write!(f, "invalid worker speed {v}"),
            ModelError::UnknownTask(t) => write!(f, "unknown task {t}"),
            ModelError::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            ModelError::WorkerAssignedTwice(w) => {
                write!(f, "worker {w} assigned to more than one task")
            }
            ModelError::InvalidPair { task, worker } => {
                write!(f, "worker {worker} cannot serve task {task} under the direction/deadline constraints")
            }
            ModelError::InvalidBeta(b) => {
                write!(f, "diversity balance weight β = {b} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = ModelError::InvalidConfidence(1.5);
        assert!(e.to_string().contains("1.5"));
        let e = ModelError::WorkerAssignedTwice(WorkerId(3));
        assert!(e.to_string().contains("w3"));
        let e = ModelError::InvalidPair {
            task: TaskId(1),
            worker: WorkerId(2),
        };
        assert!(e.to_string().contains("t1") && e.to_string().contains("w2"));
    }
}
