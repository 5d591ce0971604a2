//! Typed identifiers for tasks and workers.
//!
//! Using newtypes instead of bare `usize` prevents accidentally indexing a
//! task array with a worker id (and vice versa), a class of bug that is easy
//! to introduce in assignment code that juggles both.

use std::fmt;

/// Identifier of a spatial task (index into the instance's task vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub u32);

/// Identifier of a worker (index into the instance's worker vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WorkerId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl WorkerId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for TaskId {
    fn from(v: usize) -> Self {
        TaskId(u32::try_from(v).expect("task id overflow"))
    }
}

impl From<usize> for WorkerId {
    fn from(v: usize) -> Self {
        WorkerId(u32::try_from(v).expect("worker id overflow"))
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t: TaskId = 42usize.into();
        assert_eq!(t.index(), 42);
        let w: WorkerId = 7usize.into();
        assert_eq!(w.index(), 7);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(3).to_string(), "t3");
        assert_eq!(WorkerId(9).to_string(), "w9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TaskId(1));
        set.insert(TaskId(1));
        set.insert(TaskId(2));
        assert_eq!(set.len(), 2);
        assert!(TaskId(1) < TaskId(2));
    }
}
