//! The spatial-index trait.
//!
//! [`SpatialIndex`] covers the full maintenance + query surface the online
//! engine uses: incremental inserts/removals/relocations of tasks and
//! workers, candidate-pair generation with cell-level pruning,
//! connected-component shard extraction, and maintenance-cost counters.
//! `rdbsc_platform::AssignmentEngine` is generic over it, which is how the
//! same engine code is driven on the serving index and on the reference.
//!
//! Two implementations exist, with different jobs:
//!
//! * [`crate::FlatGridIndex`] — the serving index, a flat dense grid in the
//!   spirit of `flat_spatial`: slot-arena object storage behind generational
//!   handles, O(1) cross-cell relocation, and *lazy, demand-driven*
//!   cell-summary repair batched into [`SpatialIndex::refresh`] — a touched
//!   cell is summarised once per refresh, its reachability list rebuilt only
//!   if the summary changed, and a cell no live task can be reached from is
//!   parked without either. The server, the partition daemon and the
//!   benchmark all construct it by name.
//! * [`crate::GridIndex`] — the paper's RDB-SC-Grid (Section 7): `BTreeSet`
//!   occupancy sets, eager per-event summary repair, dirty-cell `tcell_list`
//!   maintenance, nothing parked. It is what `experiments` reproduces and
//!   the oracle the differential tests hold the serving index to.
//!
//! **Determinism contract.** Driven through the same calls, every
//! implementation must produce the *identical* candidate-pair sequence from
//! [`SpatialIndex::retrieve_valid_pairs`] and the identical shard
//! decomposition from [`SpatialIndex::extract_shards`] — element order
//! included. The engine's byte-for-byte reproducibility rests on this; the
//! property tests against the reference enforce it.
//!
//! **What a reachability list is a function of.** The candidate sequence
//! is a function of the live objects and `depart_at` alone (the exact
//! per-pair check decides it, in cell order). The `tcell_list`s — and so
//! the shard decomposition — are not: whether task cell `j` is on worker cell
//! `i`'s list is re-decided, by the one shared cell-pair predicate under the
//! `depart_at` of that moment, only in a refresh where `i`'s worker summary
//! or `j`'s task summary differs from what the last decision saw, and for
//! every pair after a `depart_at` rewind. A later departure alone re-decides
//! nothing, so an entry that was true when decided stays listed after time
//! has made it false. That is sound (the predicate only shrinks as
//! `depart_at` grows; the per-pair check filters what the list lets
//! through) and it is part of the contract: implementations must share the
//! re-decision rule, not merely the predicate, or their components differ.

use crate::shard::ProblemShard;
use rdbsc_geo::Point;
use rdbsc_model::valid_pairs::BipartiteCandidates;
use rdbsc_model::{ProblemInstance, Task, TaskId, Worker, WorkerId};

/// Cumulative maintenance-cost counters of a spatial index.
///
/// All counters are monotone over the index's lifetime; use
/// [`MaintenanceCounters::delta_since`] to get per-tick figures (the engine
/// does this and reports the delta in its `TickReport`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceCounters {
    /// Cross-cell relocations applied (same-cell moves are free and not
    /// counted).
    pub relocations: u64,
    /// Cells whose cached reachability state was repaired during a refresh
    /// (full `tcell_list` rebuilds plus targeted membership edits).
    pub cells_repaired: u64,
    /// Full `tcell_list` rebuilds performed (each costs one reachability
    /// test per task-bearing cell).
    ///
    /// Both repair counters count work done, not events seen: a cell
    /// [`crate::FlatGridIndex`] parks is neither repaired nor rebuilt, so on
    /// a movement-heavy run with few live tasks they sit far below the
    /// reference's.
    pub tcell_rebuilds: u64,
}

impl MaintenanceCounters {
    /// The work done since `earlier` (saturating, so a stale snapshot never
    /// underflows).
    pub fn delta_since(&self, earlier: &MaintenanceCounters) -> MaintenanceCounters {
        MaintenanceCounters {
            relocations: self.relocations.saturating_sub(earlier.relocations),
            cells_repaired: self.cells_repaired.saturating_sub(earlier.cells_repaired),
            tcell_rebuilds: self.tcell_rebuilds.saturating_sub(earlier.tcell_rebuilds),
        }
    }
}

/// A dynamically maintained spatial index over moving workers and
/// time-constrained tasks.
///
/// See the [module docs](self) for the two implementations and the
/// determinism contract.
///
/// # Examples
///
/// Drive either implementation through the common surface:
///
/// ```
/// use rdbsc_geo::{AngleRange, Point, Rect};
/// use rdbsc_index::{FlatGridIndex, GridIndex, SpatialIndex};
/// use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
///
/// fn serve<I: SpatialIndex>(index: &mut I) -> usize {
///     index.insert_task(Task::new(
///         TaskId(0),
///         Point::new(0.6, 0.6),
///         TimeWindow::new(0.0, 10.0).unwrap(),
///     ));
///     index.insert_worker(
///         Worker::new(
///             WorkerId(0),
///             Point::new(0.5, 0.5),
///             0.5,
///             AngleRange::full(),
///             Confidence::new(0.9).unwrap(),
///         )
///         .unwrap(),
///     );
///     // An O(1) cross-cell relocation, then pruned candidate retrieval.
///     index.relocate_worker(WorkerId(0), Point::new(0.3, 0.3));
///     index.retrieve_valid_pairs().num_pairs()
/// }
///
/// let mut grid = GridIndex::new(Rect::unit(), 0.25);
/// let mut flat = FlatGridIndex::new(Rect::unit(), 0.25);
/// assert_eq!(serve(&mut grid), 1);
/// assert_eq!(serve(&mut flat), 1);
/// assert_eq!(grid.maintenance_counters().relocations, 1);
/// ```
pub trait SpatialIndex: Send {
    /// Time at which assignments depart (workers leave no earlier).
    fn depart_at(&self) -> f64;

    /// Sets the departure time. Moving it *backwards* grows reachability, so
    /// implementations must detect the rewind and rebuild their cached pruning
    /// state on the next [`SpatialIndex::refresh`].
    fn set_depart_at(&mut self, at: f64);

    /// Whether early-arriving workers may wait for a task's window to open.
    fn allow_wait(&self) -> bool;

    /// Sets the waiting policy.
    fn set_allow_wait(&mut self, allow: bool);

    /// Number of live (indexed) tasks.
    fn num_tasks(&self) -> usize;

    /// Number of live (indexed) workers.
    fn num_workers(&self) -> usize;

    /// The live task with the given id, if indexed.
    fn task(&self, id: TaskId) -> Option<&Task>;

    /// The live worker with the given id, if indexed.
    fn worker(&self, id: WorkerId) -> Option<&Worker>;

    /// Ids of the live tasks whose valid period has ended at time `now`,
    /// in ascending id order.
    fn expired_tasks(&self, now: f64) -> Vec<TaskId>;

    /// Every live task, in ascending id order. Checkpointing uses this to
    /// capture the full indexed state; rebuilding an index by re-inserting
    /// the returned set reproduces the candidate sequence, with the
    /// reachability lists decided afresh (see the [module docs](self) on
    /// what they otherwise remember).
    fn live_tasks(&self) -> Vec<Task>;

    /// Every live worker, in ascending id order (see
    /// [`SpatialIndex::live_tasks`]).
    fn live_workers(&self) -> Vec<Worker>;

    /// Inserts (or replaces) a task.
    fn insert_task(&mut self, task: Task);

    /// Removes a task (no-op when absent).
    fn remove_task(&mut self, id: TaskId);

    /// Moves a live task to a new location (no-op when absent).
    fn relocate_task(&mut self, id: TaskId, to: Point);

    /// Inserts (or replaces) a worker.
    fn insert_worker(&mut self, worker: Worker);

    /// Removes a worker (no-op when absent).
    fn remove_worker(&mut self, id: WorkerId);

    /// Moves a live worker to a new location (no-op when absent).
    fn relocate_worker(&mut self, id: WorkerId, to: Point);

    /// Brings every cached summary and reachability list up to date and
    /// returns the number of cells whose reachability state was repaired.
    /// Called implicitly by the retrieval entry points.
    fn refresh(&mut self) -> usize;

    /// Retrieves every valid task-and-worker pair using the index's
    /// cell-level pruning, in the contract's deterministic order.
    fn retrieve_valid_pairs(&mut self) -> BipartiteCandidates;

    /// Retrieves every valid pair by brute force (no pruning); used to
    /// validate the index and to measure its benefit.
    fn retrieve_valid_pairs_bruteforce(&self) -> BipartiteCandidates;

    /// Partitions the live instance into independent spatial shards — the
    /// connected components of the cell-reachability relation — each
    /// packaged as a dense sub-instance with its valid pairs.
    fn extract_shards(&mut self, beta: f64) -> Vec<ProblemShard>;

    /// The cumulative maintenance-cost counters.
    fn maintenance_counters(&self) -> MaintenanceCounters;
}

/// Loads a problem instance into an (empty) index: copies the departure time
/// and waiting policy, then inserts every task and worker.
pub fn populate_from_instance<I: SpatialIndex>(index: &mut I, instance: &ProblemInstance) {
    index.set_depart_at(instance.depart_at);
    index.set_allow_wait(instance.allow_wait);
    for task in &instance.tasks {
        index.insert_task(*task);
    }
    for worker in &instance.workers {
        index.insert_worker(*worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_deltas_saturate() {
        let earlier = MaintenanceCounters {
            relocations: 5,
            cells_repaired: 2,
            tcell_rebuilds: 1,
        };
        let later = MaintenanceCounters {
            relocations: 9,
            cells_repaired: 2,
            tcell_rebuilds: 4,
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.relocations, 4);
        assert_eq!(delta.cells_repaired, 0);
        assert_eq!(delta.tcell_rebuilds, 3);
        // A stale (newer) snapshot saturates instead of wrapping.
        assert_eq!(earlier.delta_since(&later).relocations, 0);
    }
}
