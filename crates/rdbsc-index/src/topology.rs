//! The backend-shared cell-level machinery: summaries, the conservative
//! cell-pair reachability test, and allocation-free candidate generation.
//!
//! Both grid backends expose their cells through [`CellTopology`]; the
//! reachability predicate, the candidate-pair enumeration and the shard
//! extraction are written once against it, so the retrieval paths of the two
//! backends cannot drift. The hot candidate loop reuses one [`PairScratch`]
//! (owned by the index, threaded through by `&mut`) instead of allocating
//! per-cell worker/task vectors on every tick.
//!
//! What a `tcell_list` holds is the outcome of [`cell_pair_reachable`] *at
//! the time each pair was last decided*, not a function of the current
//! summaries; the rule for when pairs are re-decided is part of the
//! determinism contract and is written down in [`crate::traits`].

use crate::geometry::CellSite;
use crate::shard::DisjointSets;
use rdbsc_geo::{AngleRange, Rect};
use rdbsc_model::valid_pairs::{check_pair, BipartiteCandidates, ValidPair};
use rdbsc_model::{Contribution, Task, TaskId, Worker, WorkerId};

/// The cached worker-side summary of one cell: everything the reachability
/// test reads about the *source* cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkerCellSummary {
    /// Maximum speed over the workers in the cell (`v_max(cellᵢ)`).
    pub v_max: f64,
    /// Earliest check-in time over the workers in the cell.
    pub min_available_from: f64,
    /// Angular hull of the workers' heading cones (`None` when no workers).
    pub heading_hull: Option<AngleRange>,
}

impl WorkerCellSummary {
    pub(crate) const EMPTY: WorkerCellSummary = WorkerCellSummary {
        v_max: 0.0,
        min_available_from: f64::INFINITY,
        heading_hull: None,
    };

    /// Recomputes the summary from scratch over a worker set.
    pub(crate) fn compute<'a>(workers: impl Iterator<Item = &'a Worker>) -> Self {
        let mut summary = Self::EMPTY;
        for worker in workers {
            summary.absorb(worker);
        }
        summary
    }

    /// Folds one worker into the summary.
    pub(crate) fn absorb(&mut self, worker: &Worker) {
        self.v_max = self.v_max.max(worker.speed);
        self.min_available_from = self.min_available_from.min(worker.available_from);
        self.heading_hull = Some(match self.heading_hull {
            Some(hull) => hull.union_hull(&worker.heading),
            None => worker.heading,
        });
    }
}

/// The cached task-side summary of one cell: everything the reachability
/// test reads about the *target* cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TaskCellSummary {
    /// Latest deadline over the tasks in the cell (`e_max`), `-∞` when empty.
    pub e_max: f64,
    /// Earliest start over the tasks in the cell (`s_min`), `+∞` when empty.
    pub s_min: f64,
}

impl TaskCellSummary {
    pub(crate) const EMPTY: TaskCellSummary = TaskCellSummary {
        e_max: f64::NEG_INFINITY,
        s_min: f64::INFINITY,
    };

    /// Recomputes the summary from scratch over a task set.
    pub(crate) fn compute<'a>(tasks: impl Iterator<Item = &'a Task>) -> Self {
        let mut summary = Self::EMPTY;
        for task in tasks {
            summary.absorb(task);
        }
        summary
    }

    /// Folds one task into the summary.
    pub(crate) fn absorb(&mut self, task: &Task) {
        self.e_max = self.e_max.max(task.window.end);
        self.s_min = self.s_min.min(task.window.start);
    }

    /// Whether the cell holds at least one task. Task windows are finite, so
    /// emptiness is encoded by the `-∞` sentinel.
    pub(crate) fn has_tasks(&self) -> bool {
        self.e_max > f64::NEG_INFINITY
    }
}

/// The paper's minimum-travel-time test: can something leaving at `depart`
/// with speed at most `v_max` cover `d_min` by `e_max`?
///
/// Monotone in each argument (later departure, longer distance, lower speed
/// or earlier deadline never turn `false` into `true`, in floats as in the
/// reals), which is what lets [`crate::FlatGridIndex`] run it with an
/// index-wide speed bound and the bare `depart_at` to rule a cell out
/// without knowing the cell's own summary.
pub(crate) fn time_reachable(depart: f64, d_min: f64, v_max: f64, e_max: f64) -> bool {
    if d_min > 0.0 {
        v_max > 0.0 && depart + d_min / v_max <= e_max
    } else {
        // Overlapping or identical cells: a worker may be arbitrarily close
        // to (or on top of) a task; only the deadline must be in the future.
        depart <= e_max
    }
}

/// Can any worker of the `from` cell possibly serve any task of the `to`
/// cell?
///
/// Conservative: never prunes a reachable pair. Combines
/// [`time_reachable`] (`d_min / v_max` vs. latest deadline) with an
/// angular-hull test on the workers' heading cones, which overlapping cells
/// are exempt from. Shared verbatim by both backends so their `tcell_list`s
/// stay byte-identical.
pub(crate) fn cell_pair_reachable(
    depart_at: f64,
    from_site: &CellSite,
    from: &WorkerCellSummary,
    to_site: &CellSite,
    to: &TaskCellSummary,
    directions: &mut DirectionMemo,
) -> bool {
    if !to.has_tasks() {
        return false;
    }
    let Some(hull) = from.heading_hull else {
        return false; // no workers
    };
    let depart = depart_at.max(from.min_available_from);
    let d_min = from_site.rect.min_distance(&to_site.rect);
    time_reachable(depart, d_min, from.v_max, to.e_max)
        && (d_min == 0.0 || hull.intersects(&directions.between(from_site, to_site)))
}

/// The directions from one cell towards another, remembered per
/// `(Δcol, Δrow)` offset: on a regular grid the range depends on nothing
/// else, while [`cell_pair_reachable`] asks for it once per cell *pair*.
///
/// A direct-mapped table of fixed size, allocated on first use: a grid of up
/// to 32 cells per axis has a slot for every offset, a larger one recomputes
/// on a collision. Each entry is a pure function of `(η, offset)` — derived
/// from the offset's Minkowski-difference rectangle in multiples of `η`, not
/// from the rectangles of whichever pair asked first — so what the table
/// happens to hold never shows in an answer.
#[derive(Debug, Clone)]
pub(crate) struct DirectionMemo {
    eta: f64,
    /// `(offset key, range)`; key 0 marks an empty slot.
    slots: Vec<(u32, AngleRange)>,
}

impl DirectionMemo {
    /// log2 of the slots per axis: 64 × 64 slots ≈ 96 KB.
    const AXIS_BITS: u32 = 6;

    pub(crate) fn new(eta: f64) -> Self {
        Self {
            eta,
            slots: Vec::new(),
        }
    }

    /// The directions from points of `from` to points of `to`. Only asked
    /// for cells at a positive distance; rounding in the cell rectangles can
    /// give *adjacent* cells one, and their entry is the half-plane or
    /// quadrant the exact rectangles would touch along.
    fn between(&mut self, from: &CellSite, to: &CellSite) -> AngleRange {
        let (dcol, drow) = (to.col - from.col, to.row - from.row);
        if self.slots.is_empty() {
            self.slots = vec![(0, AngleRange::full()); 1 << (2 * Self::AXIS_BITS)];
        }
        // Offsets lie in ±1023 (the geometry's axis clamp), so biased by
        // 1024 each fits 12 bits and the key is never 0.
        let key = (((dcol + 1024) as u32) << 12) | (drow + 1024) as u32;
        let mask = (1 << Self::AXIS_BITS) - 1;
        let slot = &mut self.slots[(((dcol & mask) << Self::AXIS_BITS) | (drow & mask)) as usize];
        if slot.0 != key {
            let (dx, dy) = (dcol as f64, drow as f64);
            let difference = Rect {
                min_x: (dx - 1.0) * self.eta,
                min_y: (dy - 1.0) * self.eta,
                max_x: (dx + 1.0) * self.eta,
                max_y: (dy + 1.0) * self.eta,
            };
            *slot = (key, difference.directions_from_origin());
        }
        slot.1
    }
}

/// The per-cell object buffers of the candidate loop.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjectBuffers {
    workers: Vec<Worker>,
    tasks: Vec<Task>,
}

/// Reusable buffers for the retrieval and shard-extraction hot paths. Owned
/// by each index and threaded through by `&mut`, so steady state allocates
/// neither per cell nor per call.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairScratch {
    pub(crate) objects: ObjectBuffers,
    /// The occupied worker cells of the call in progress, ascending.
    pub(crate) worker_cells: Vec<usize>,
    /// Cell components of the extraction in progress (left all-singleton).
    pub(crate) components: DisjointSets,
}

/// The cell-level view a backend exposes to the shared retrieval and shard
/// extraction. All orderings are ascending (cell indices and object ids), so
/// the shared code is deterministic and backend-independent.
pub(crate) trait CellTopology {
    /// Departure time the retrieval runs under.
    fn depart_at(&self) -> f64;
    /// Whether early arrivals may wait for a window to open.
    fn allow_wait(&self) -> bool;
    /// Total number of cells.
    fn num_cells(&self) -> usize;
    /// Appends the cells currently holding at least one worker, ascending.
    fn fill_worker_cells(&self, out: &mut Vec<usize>);
    /// The cell's reachable task-bearing cells, ascending. Only valid after
    /// a refresh.
    fn tcell_list_of(&self, cell: usize) -> &[usize];
    /// Ids of the tasks in a cell, ascending.
    fn task_ids_of(&self, cell: usize) -> &[TaskId];
    /// Ids of the workers in a cell, ascending.
    fn worker_ids_of(&self, cell: usize) -> &[WorkerId];
    /// Appends the cell's workers to `out` in ascending id order.
    fn fill_cell_workers(&self, cell: usize, out: &mut Vec<Worker>);
    /// Appends the cell's tasks to `out` in ascending id order.
    fn fill_cell_tasks(&self, cell: usize, out: &mut Vec<Task>);
    /// A live task by id (panics on an internal inconsistency).
    fn task_by_id(&self, id: TaskId) -> Task;
    /// A live worker by id (panics on an internal inconsistency).
    fn worker_by_id(&self, id: WorkerId) -> Worker;
    /// `(max task id + 1, max worker id + 1)` over the live objects, used to
    /// size the candidate graph.
    fn candidate_capacity(&self) -> (usize, usize);
    /// Takes the index's reusable candidate-generation buffers (see
    /// [`with_scratch`]).
    fn take_scratch(&mut self) -> PairScratch;
    /// Returns the buffers after use so the next retrieval reuses them.
    fn put_scratch(&mut self, scratch: PairScratch);
}

/// Runs `f` with the index's scratch buffers temporarily taken out, so the
/// closure can hold `&C` and `&mut PairScratch` simultaneously.
pub(crate) fn with_scratch<C: CellTopology + ?Sized, R>(
    index: &mut C,
    f: impl FnOnce(&C, &mut PairScratch) -> R,
) -> R {
    let mut scratch = index.take_scratch();
    let result = f(index, &mut scratch);
    index.put_scratch(scratch);
    result
}

/// Runs the exact per-pair check over the cell-pruned candidates of the
/// given worker cells (their `tcell_list`s must be fresh), feeding each
/// valid pair to `sink`. Shared by [`retrieve_pairs_via`] and the shard
/// extraction so the two retrieval paths cannot drift, and shared by both
/// backends so their candidate *order* is identical.
pub(crate) fn for_each_cell_pruned_pair<C: CellTopology + ?Sized, F>(
    index: &C,
    worker_cells: &[usize],
    scratch: &mut ObjectBuffers,
    mut sink: F,
) where
    F: FnMut(&Task, &Worker, Contribution),
{
    let depart_at = index.depart_at();
    let allow_wait = index.allow_wait();
    for &i in worker_cells {
        // Materialise the cell's workers and the reachable cells' tasks
        // once into the scratch buffers, so the inner loop does no hash
        // lookups and steady state does no allocation.
        scratch.workers.clear();
        index.fill_cell_workers(i, &mut scratch.workers);
        for &j in index.tcell_list_of(i) {
            scratch.tasks.clear();
            index.fill_cell_tasks(j, &mut scratch.tasks);
            for worker in &scratch.workers {
                for task in &scratch.tasks {
                    if let Some(contribution) = check_pair(task, worker, depart_at, allow_wait) {
                        sink(task, worker, contribution);
                    }
                }
            }
        }
    }
}

/// Retrieves every valid pair through the cell-pruned path (the shared body
/// of `SpatialIndex::retrieve_valid_pairs`). The caller must have refreshed
/// the index.
pub(crate) fn retrieve_pairs_via<C: CellTopology + ?Sized>(
    index: &C,
    scratch: &mut PairScratch,
) -> BipartiteCandidates {
    let (task_cap, worker_cap) = index.candidate_capacity();
    let mut graph = BipartiteCandidates::with_capacity(task_cap, worker_cap);
    let PairScratch {
        objects,
        worker_cells,
        ..
    } = scratch;
    worker_cells.clear();
    index.fill_worker_cells(worker_cells);
    for_each_cell_pruned_pair(
        index,
        worker_cells,
        objects,
        |task, worker, contribution| {
            graph.push(ValidPair {
                task: task.id,
                worker: worker.id,
                contribution,
            });
        },
    );
    graph
}

/// Brute-force retrieval over explicit object lists (the shared body of
/// `SpatialIndex::retrieve_valid_pairs_bruteforce`).
pub(crate) fn bruteforce_pairs(
    tasks: impl Iterator<Item = Task> + Clone,
    workers: impl Iterator<Item = Worker>,
    depart_at: f64,
    allow_wait: bool,
    capacity: (usize, usize),
) -> BipartiteCandidates {
    let mut graph = BipartiteCandidates::with_capacity(capacity.0, capacity.1);
    for worker in workers {
        for task in tasks.clone() {
            if let Some(contribution) = check_pair(&task, &worker, depart_at, allow_wait) {
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
