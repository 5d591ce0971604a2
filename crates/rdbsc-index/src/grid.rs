//! The RDB-SC-Grid index structure and its dynamic maintenance (Section 7).
//!
//! Maintenance is *incremental*: the index keeps reverse maps from task and
//! worker ids to their cells, so attaching or detaching an object touches one
//! cell instead of scanning the grid, and it tracks dirtiness at cell
//! granularity in two flavours:
//!
//! * a **worker-side dirty cell** (the cell's worker summary — `v_max`,
//!   heading hull, earliest check-in — changed) needs its whole `tcell_list`
//!   rebuilt, which costs one reachability test per task-bearing cell;
//! * a **task-side dirty cell** (the cell's task summary — `e_max`, `s_min`,
//!   emptiness — changed) only needs *its own membership* re-decided in every
//!   worker cell's `tcell_list`, which costs one reachability test per
//!   worker-bearing cell.
//!
//! A burst of task arrivals/expirations therefore costs
//! `O(worker_cells · changed_cells)` instead of the full
//! `O(worker_cells · cells)` rebuild the seed implementation performed.
//!
//! The lists have memory: a pair's membership is the reachability
//! predicate's answer at the `depart_at` of the refresh that last re-decided
//! it, and stays until one of its two summaries changes or the departure
//! time rewinds (the contract in [`crate::traits`]).
//!
//! `GridIndex` is the reference implementation of [`SpatialIndex`]: the
//! figure harness reproduces the paper on it and the differential tests hold
//! [`crate::FlatGridIndex`], the index the serving stack runs, to its output.
//! It repairs eagerly and parks nothing, which is what makes it the oracle
//! for the flat index's demand-driven repair.

use crate::cost_model::{optimal_eta, CostModelParams};
use crate::geometry::GridGeometry;
use crate::topology::{
    bruteforce_pairs, cell_pair_reachable, retrieve_pairs_via, CellTopology, DirectionMemo,
    PairScratch, TaskCellSummary, WorkerCellSummary,
};
use crate::traits::{MaintenanceCounters, SpatialIndex};
use rdbsc_geo::{Point, Rect};
use rdbsc_model::valid_pairs::BipartiteCandidates;
use rdbsc_model::{ProblemInstance, Task, TaskId, Worker, WorkerId};
use std::collections::{BTreeSet, HashMap};

/// One grid cell: the ids of the tasks and workers currently inside it
/// (ascending), the summary bounds used for cell-level pruning, and its
/// `tcell_list` (reachable cells).
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    tasks: Vec<TaskId>,
    workers: Vec<WorkerId>,
    worker_summary: WorkerCellSummary,
    task_summary: TaskCellSummary,
    /// The worker summary the `tcell_list` was last decided under. At
    /// refresh time the list is rebuilt exactly when the current summary
    /// differs — the re-decision rule of the determinism contract (see
    /// [`crate::traits`]), the same trigger the flat backend uses, which
    /// keeps the two backends' cached lists (and therefore shard
    /// decompositions) identical even across A-B-A changes between
    /// refreshes.
    listed_worker_summary: WorkerCellSummary,
    /// The task summary this cell's membership in the worker cells' lists
    /// was last decided under (same refresh-time-compare contract).
    listed_task_summary: TaskCellSummary,
    /// Ids (indices) of the cells reachable by at least one worker of this
    /// cell. Kept sorted ascending.
    tcell_list: Vec<usize>,
    /// Whether the cell's worker membership changed since the last refresh
    /// (the refresh then compares summaries to decide on a rebuild).
    tcell_dirty: bool,
}

impl Cell {
    fn new() -> Self {
        Self {
            tasks: Vec::new(),
            workers: Vec::new(),
            worker_summary: WorkerCellSummary::EMPTY,
            task_summary: TaskCellSummary::EMPTY,
            listed_worker_summary: WorkerCellSummary::EMPTY,
            listed_task_summary: TaskCellSummary::EMPTY,
            tcell_list: Vec::new(),
            tcell_dirty: false,
        }
    }

    fn has_workers(&self) -> bool {
        !self.workers.is_empty()
    }

    fn has_tasks(&self) -> bool {
        !self.tasks.is_empty()
    }
}

/// Inserts `value` into an ascending vector, keeping it sorted (no-op style
/// duplicate handling is not needed: ids are unique per kind).
fn sorted_insert<T: Ord + Copy>(vec: &mut Vec<T>, value: T) {
    match vec.binary_search(&value) {
        Ok(_) => {}
        Err(pos) => vec.insert(pos, value),
    }
}

/// Removes `value` from an ascending vector, if present.
fn sorted_remove<T: Ord + Copy>(vec: &mut Vec<T>, value: T) {
    if let Ok(pos) = vec.binary_search(&value) {
        vec.remove(pos);
    }
}

/// Summary statistics of the index, used in experiments and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridStats {
    /// Cell side `η`.
    pub eta: f64,
    /// Number of cells per axis.
    pub cells_per_axis: usize,
    /// Total number of cells.
    pub num_cells: usize,
    /// Number of indexed tasks.
    pub num_tasks: usize,
    /// Number of indexed workers.
    pub num_workers: usize,
    /// Average `tcell_list` length over cells that contain workers.
    pub avg_tcell_len: f64,
    /// Fraction of (worker-cell, task-cell) pairs pruned by the cell-level
    /// tests.
    pub pruned_fraction: f64,
}

/// The cost-model-based grid index over moving workers and time-constrained
/// spatial tasks.
///
/// # Examples
///
/// Build an index, retrieve the valid pairs, then maintain it incrementally
/// as workers move and tasks arrive:
///
/// ```
/// use rdbsc_geo::{AngleRange, Point, Rect};
/// use rdbsc_index::GridIndex;
/// use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
///
/// let mut index = GridIndex::new(Rect::unit(), 0.25);
/// index.insert_task(Task::new(
///     TaskId(0),
///     Point::new(0.8, 0.8),
///     TimeWindow::new(0.0, 10.0).unwrap(),
/// ));
/// index.insert_worker(
///     Worker::new(
///         WorkerId(0),
///         Point::new(0.2, 0.2),
///         0.5,
///         AngleRange::full(),
///         Confidence::new(0.9).unwrap(),
///     )
///     .unwrap(),
/// );
/// assert_eq!(index.retrieve_valid_pairs().num_pairs(), 1);
///
/// // The worker walks towards the task: an O(1) relocation, no rebuild.
/// index.relocate_worker(WorkerId(0), Point::new(0.6, 0.6));
/// assert_eq!(index.retrieve_valid_pairs().num_pairs(), 1);
///
/// // The task expires and is removed; only its cell's membership in the
/// // worker cells' reachability lists is re-decided.
/// index.remove_task(TaskId(0));
/// assert_eq!(index.retrieve_valid_pairs().num_pairs(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    geometry: GridGeometry,
    cells: Vec<Cell>,
    tasks: HashMap<TaskId, Task>,
    workers: HashMap<WorkerId, Worker>,
    /// Reverse map: the cell currently holding each task.
    task_cell: HashMap<TaskId, usize>,
    /// Reverse map: the cell currently holding each worker.
    worker_cell: HashMap<WorkerId, usize>,
    /// Cells currently holding at least one task (sorted).
    task_cell_set: BTreeSet<usize>,
    /// Cells currently holding at least one worker (sorted).
    worker_cell_set: BTreeSet<usize>,
    /// Cells whose *task* summary changed since the last refresh; their
    /// membership in every worker cell's `tcell_list` must be re-decided.
    dirty_task_cells: BTreeSet<usize>,
    /// The `depart_at` the `tcell_list`s were last refreshed under. A later
    /// departure only shrinks reachability (cached lists stay conservative
    /// over-approximations), but an *earlier* one grows it, so
    /// [`refresh_tcell_lists`](Self::refresh_tcell_lists) must detect the
    /// rewind and rebuild.
    tcell_depart_at: f64,
    /// Cumulative maintenance-cost counters.
    counters: MaintenanceCounters,
    /// Reusable candidate-generation buffers (hot path, no per-cell allocs).
    scratch: PairScratch,
    /// Cell-pair direction ranges by offset (see [`DirectionMemo`]).
    directions: DirectionMemo,
    /// Time at which assignments depart (mirrors `ProblemInstance::depart_at`).
    pub depart_at: f64,
    /// Whether early-arriving workers may wait for a task's window to open.
    pub allow_wait: bool,
}

impl GridIndex {
    /// Creates an empty index over `space` with cell side `eta`.
    ///
    /// `eta` is clamped so that the number of cells per axis stays within
    /// `[1, 1024]` (a 2-D grid of more than ~10⁶ cells stops being useful and
    /// only wastes memory).
    pub fn new(space: Rect, eta: f64) -> Self {
        let geometry = GridGeometry::new(space, eta);
        let cells = (0..geometry.num_cells()).map(|_| Cell::new()).collect();
        Self {
            geometry,
            cells,
            tasks: HashMap::new(),
            workers: HashMap::new(),
            task_cell: HashMap::new(),
            worker_cell: HashMap::new(),
            task_cell_set: BTreeSet::new(),
            worker_cell_set: BTreeSet::new(),
            dirty_task_cells: BTreeSet::new(),
            tcell_depart_at: 0.0,
            counters: MaintenanceCounters::default(),
            scratch: PairScratch::default(),
            directions: DirectionMemo::new(geometry.eta()),
            depart_at: 0.0,
            allow_wait: true,
        }
    }

    /// Builds an index for a problem instance, choosing `η` from the cost
    /// model (Appendix I) using the instance's task count and the maximum
    /// distance any worker can cover before the latest deadline as `L_max`.
    pub fn from_instance(instance: &ProblemInstance) -> Self {
        let mut index = GridIndex::new(Rect::unit(), instance_eta(instance));
        crate::traits::populate_from_instance(&mut index, instance);
        index
    }

    /// Builds an index for an instance with an explicit cell side.
    pub fn from_instance_with_eta(instance: &ProblemInstance, eta: f64) -> Self {
        let mut index = GridIndex::new(Rect::unit(), eta);
        crate::traits::populate_from_instance(&mut index, instance);
        index
    }

    /// The cell side `η` actually in use.
    pub fn eta(&self) -> f64 {
        self.geometry.eta()
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of indexed tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of indexed workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The live task with the given id, if indexed.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(&id)
    }

    /// The live worker with the given id, if indexed.
    pub fn worker(&self, id: WorkerId) -> Option<&Worker> {
        self.workers.get(&id)
    }

    /// Iterates over the live tasks (arbitrary order).
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        // lint:allow(D001): documented arbitrary-order view — deterministic consumers sort (tests do)
        self.tasks.values()
    }

    /// Iterates over the live workers (arbitrary order).
    pub fn workers(&self) -> impl Iterator<Item = &Worker> {
        // lint:allow(D001): documented arbitrary-order view — deterministic consumers sort (tests do)
        self.workers.values()
    }

    /// Ids of the live tasks whose valid period has ended at time `now`.
    pub fn expired_tasks(&self, now: f64) -> Vec<TaskId> {
        let mut expired: Vec<TaskId> = self
            // lint:allow(D001): collected here, sorted before returning
            .tasks
            .values()
            .filter(|t| t.window.end < now)
            .map(|t| t.id)
            .collect();
        expired.sort();
        expired
    }

    /// Index of the cell containing a point (points outside the data space
    /// are clamped onto it).
    pub fn cell_of(&self, p: Point) -> usize {
        self.geometry.cell_of(p)
    }

    /// The cumulative maintenance counters (relocations, repairs, rebuilds).
    pub fn maintenance_counters(&self) -> MaintenanceCounters {
        self.counters
    }

    // ------------------------------------------------------------------
    // Dynamic maintenance (Section 7.2)
    // ------------------------------------------------------------------

    /// Inserts (or replaces) a task. `O(1)` cell lookup plus summary update.
    pub fn insert_task(&mut self, task: Task) {
        if self.tasks.insert(task.id, task).is_some() {
            self.detach_task(task.id);
        }
        let cell_idx = self.geometry.cell_of(task.location);
        self.task_cell.insert(task.id, cell_idx);
        self.task_cell_set.insert(cell_idx);
        let cell = &mut self.cells[cell_idx];
        sorted_insert(&mut cell.tasks, task.id);
        cell.task_summary.absorb(&task);
        // Only this cell's membership in the worker cells' reachability lists
        // can change.
        self.dirty_task_cells.insert(cell_idx);
    }

    /// Removes a task (no-op when absent).
    pub fn remove_task(&mut self, id: TaskId) {
        if self.tasks.remove(&id).is_some() {
            self.detach_task(id);
        }
    }

    /// Moves a live task to a new location, updating at most two cells.
    /// No-op when the task is not indexed.
    pub fn relocate_task(&mut self, id: TaskId, to: Point) {
        let Some(task) = self.tasks.get_mut(&id) else {
            return;
        };
        task.location = to;
        let task = *task;
        let old_cell = self.task_cell.get(&id).copied();
        let new_cell = self.geometry.cell_of(to);
        if old_cell == Some(new_cell) {
            return; // summaries do not depend on the position inside the cell
        }
        self.counters.relocations += 1;
        self.detach_task(id);
        self.task_cell.insert(id, new_cell);
        self.task_cell_set.insert(new_cell);
        let cell = &mut self.cells[new_cell];
        sorted_insert(&mut cell.tasks, id);
        cell.task_summary.absorb(&task);
        self.dirty_task_cells.insert(new_cell);
    }

    /// Inserts (or replaces) a worker.
    pub fn insert_worker(&mut self, worker: Worker) {
        if self.workers.insert(worker.id, worker).is_some() {
            self.detach_worker(worker.id);
        }
        let cell_idx = self.geometry.cell_of(worker.location);
        self.worker_cell.insert(worker.id, cell_idx);
        self.worker_cell_set.insert(cell_idx);
        sorted_insert(&mut self.cells[cell_idx].workers, worker.id);
        self.repair_worker_summary(cell_idx);
    }

    /// Removes a worker (no-op when absent).
    pub fn remove_worker(&mut self, id: WorkerId) {
        if self.workers.remove(&id).is_some() {
            self.detach_worker(id);
        }
    }

    /// Moves a live worker to a new location, updating at most two cells.
    /// No-op when the worker is not indexed.
    pub fn relocate_worker(&mut self, id: WorkerId, to: Point) {
        let Some(worker) = self.workers.get_mut(&id) else {
            return;
        };
        worker.location = to;
        let old_cell = self.worker_cell.get(&id).copied();
        let new_cell = self.geometry.cell_of(to);
        if old_cell == Some(new_cell) {
            return; // summaries do not depend on the position inside the cell
        }
        self.counters.relocations += 1;
        self.detach_worker(id);
        self.worker_cell.insert(id, new_cell);
        self.worker_cell_set.insert(new_cell);
        sorted_insert(&mut self.cells[new_cell].workers, id);
        self.repair_worker_summary(new_cell);
    }

    /// Recomputes a cell's worker summary from its (ascending) membership.
    ///
    /// Recomputing — rather than folding the new worker into the cached
    /// value — keeps the summary a pure function of the membership *set*,
    /// independent of arrival order, which the cross-backend determinism
    /// contract needs (the heading-hull union is not order-exact in floats).
    /// The rebuild decision itself happens at refresh time, against the
    /// summary the list was last decided under.
    fn repair_worker_summary(&mut self, cell_idx: usize) {
        let summary = WorkerCellSummary::compute(
            self.cells[cell_idx]
                .workers
                .iter()
                .map(|w| &self.workers[w]),
        );
        let cell = &mut self.cells[cell_idx];
        cell.worker_summary = summary;
        cell.tcell_dirty = true;
    }

    /// Detaches a task from its cell (O(cell population)) and refreshes the
    /// cell's task summary.
    fn detach_task(&mut self, id: TaskId) {
        let Some(cell_idx) = self.task_cell.remove(&id) else {
            return;
        };
        let cell = &mut self.cells[cell_idx];
        sorted_remove(&mut cell.tasks, id);
        cell.task_summary = TaskCellSummary::compute(cell.tasks.iter().map(|t| &self.tasks[t]));
        if cell.tasks.is_empty() {
            self.task_cell_set.remove(&cell_idx);
        }
        self.dirty_task_cells.insert(cell_idx);
    }

    /// Detaches a worker from its cell (O(cell population)) and refreshes the
    /// cell's worker summary.
    fn detach_worker(&mut self, id: WorkerId) {
        let Some(cell_idx) = self.worker_cell.remove(&id) else {
            return;
        };
        sorted_remove(&mut self.cells[cell_idx].workers, id);
        self.repair_worker_summary(cell_idx);
        if self.cells[cell_idx].workers.is_empty() {
            self.worker_cell_set.remove(&cell_idx);
        }
    }

    // ------------------------------------------------------------------
    // Cell-level pruning and tcell_list maintenance (Section 7.1)
    // ------------------------------------------------------------------

    /// Brings every `tcell_list` up to date and returns the number of cells
    /// whose list was (fully or partially) recomputed.
    ///
    /// Worker-side dirty cells rebuild their whole list by scanning the
    /// task-bearing cells; task-side dirty cells only have their own
    /// membership re-decided in each worker cell's list. Lists stay sorted,
    /// so the incremental path converges to exactly the same state as a full
    /// rebuild.
    pub fn refresh_tcell_lists(&mut self) -> usize {
        // A departure time earlier than the one the lists were built under
        // grows reachability, so the cached lists may be missing cells:
        // rebuild every worker-bearing cell. (Later departures only shrink
        // reachability; the cached over-approximation stays sound and the
        // exact per-pair check filters the rest.)
        let force = self.depart_at < self.tcell_depart_at;
        self.tcell_depart_at = self.depart_at;

        // Candidate cells: membership changed since the last refresh (plus
        // every worker cell on a rewind). A rebuild actually happens only
        // when the *summary* the list was last decided under differs: with
        // the summary unchanged, every entry stands as last decided, which
        // is what the contract asks for (a later `depart_at` alone
        // re-decides nothing). Iterate over a snapshot because the loop
        // needs simultaneous borrow of `self`.
        let mut dirty_worker_cells: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].tcell_dirty)
            .collect();
        if force {
            dirty_worker_cells.extend(self.worker_cell_set.iter().copied());
            dirty_worker_cells.sort_unstable();
            dirty_worker_cells.dedup();
        }
        let task_cells: Vec<usize> = self.task_cell_set.iter().copied().collect();
        let mut rebuilt = BTreeSet::new();
        for i in dirty_worker_cells {
            self.cells[i].tcell_dirty = false;
            let changed = self.cells[i].worker_summary != self.cells[i].listed_worker_summary;
            if !(changed || force && self.cells[i].has_workers()) {
                continue;
            }
            self.cells[i].listed_worker_summary = self.cells[i].worker_summary;
            if !self.cells[i].has_workers() {
                self.cells[i].tcell_list.clear();
                continue;
            }
            let from_site = self.geometry.site(i);
            let from = self.cells[i].worker_summary;
            let mut list = std::mem::take(&mut self.cells[i].tcell_list);
            list.clear();
            for &j in &task_cells {
                if cell_pair_reachable(
                    self.depart_at,
                    &from_site,
                    &from,
                    &self.geometry.site(j),
                    &self.cells[j].task_summary,
                    &mut self.directions,
                ) {
                    list.push(j); // ascending: task_cells is sorted
                }
            }
            self.cells[i].tcell_list = list;
            rebuilt.insert(i);
        }
        self.counters.tcell_rebuilds += rebuilt.len() as u64;

        // Targeted membership updates for cells whose task summary changed
        // since their membership was last decided. Cells fully rebuilt above
        // already saw the new task summaries and are skipped; `touched` only
        // tracks membership *edits*, so one edit must not suppress edits for
        // later dirty task cells.
        let mut touched = rebuilt.clone();
        let dirty_task_cells: Vec<usize> = std::mem::take(&mut self.dirty_task_cells)
            .into_iter()
            .collect();
        let worker_cells: Vec<usize> = self.worker_cell_set.iter().copied().collect();
        for j in dirty_task_cells {
            if self.cells[j].task_summary == self.cells[j].listed_task_summary {
                continue; // membership decisions are still exact
            }
            self.cells[j].listed_task_summary = self.cells[j].task_summary;
            let to_site = self.geometry.site(j);
            let to = self.cells[j].task_summary;
            for &i in &worker_cells {
                if rebuilt.contains(&i) {
                    continue; // already fully rebuilt above
                }
                let reachable = cell_pair_reachable(
                    self.depart_at,
                    &self.geometry.site(i),
                    &self.cells[i].worker_summary,
                    &to_site,
                    &to,
                    &mut self.directions,
                );
                let list = &mut self.cells[i].tcell_list;
                match (list.binary_search(&j), reachable) {
                    (Ok(_), true) | (Err(_), false) => {}
                    (Ok(pos), false) => {
                        list.remove(pos);
                        touched.insert(i);
                    }
                    (Err(pos), true) => {
                        list.insert(pos, j);
                        touched.insert(i);
                    }
                }
            }
        }

        self.counters.cells_repaired += touched.len() as u64;
        touched.len()
    }

    // ------------------------------------------------------------------
    // Valid-pair retrieval
    // ------------------------------------------------------------------

    fn id_capacity(&self) -> (usize, usize) {
        // lint:allow(D001): max over keys — order-insensitive
        let max_task = self.tasks.keys().map(|t| t.index() + 1).max().unwrap_or(0);
        let max_worker = self
            // lint:allow(D001): max over keys — order-insensitive
            .workers
            .keys()
            .map(|w| w.index() + 1)
            .max()
            .unwrap_or(0);
        (max_task, max_worker)
    }

    /// Retrieves every valid task-and-worker pair using the index
    /// (cell-level pruning via `tcell_list`, then exact per-pair checks).
    pub fn retrieve_valid_pairs(&mut self) -> BipartiteCandidates {
        self.refresh_tcell_lists();
        crate::topology::with_scratch(self, retrieve_pairs_via)
    }

    /// Retrieves every valid pair by brute force (no cell pruning), used to
    /// measure the index's benefit (Figure 17(b)) and to validate it.
    pub fn retrieve_valid_pairs_bruteforce(&self) -> BipartiteCandidates {
        // lint:allow(D001): collected here, sorted on the next line
        let mut tasks: Vec<Task> = self.tasks.values().copied().collect();
        tasks.sort_by_key(|t| t.id);
        // lint:allow(D001): collected here, sorted on the next line
        let mut workers: Vec<Worker> = self.workers.values().copied().collect();
        workers.sort_by_key(|w| w.id);
        bruteforce_pairs(
            tasks.iter().copied(),
            workers.iter().copied(),
            self.depart_at,
            self.allow_wait,
            self.id_capacity(),
        )
    }

    /// Rebuilds a dense [`ProblemInstance`] view of the live tasks and
    /// workers, together with the mapping from the dense ids back to the live
    /// ids. Tasks and workers appear in ascending id order, so the view is
    /// deterministic.
    pub fn to_instance(
        &self,
        beta: f64,
    ) -> (ProblemInstance, rdbsc_model::instance::SubInstanceMapping) {
        // lint:allow(D001): collected here, sorted on the next line
        let mut tasks: Vec<Task> = self.tasks.values().copied().collect();
        tasks.sort_by_key(|t| t.id);
        // lint:allow(D001): collected here, sorted on the next line
        let mut workers: Vec<Worker> = self.workers.values().copied().collect();
        workers.sort_by_key(|w| w.id);
        let mapping = rdbsc_model::instance::SubInstanceMapping {
            tasks: tasks.iter().map(|t| t.id).collect(),
            workers: workers.iter().map(|w| w.id).collect(),
        };
        let mut instance = ProblemInstance::new(tasks, workers, beta);
        instance.depart_at = self.depart_at;
        instance.allow_wait = self.allow_wait;
        (instance, mapping)
    }

    /// Summary statistics (requires the `tcell_list`s to be fresh; call
    /// [`refresh_tcell_lists`](Self::refresh_tcell_lists) first when in
    /// doubt).
    pub fn stats(&self) -> GridStats {
        let worker_cells: Vec<&Cell> = self.cells.iter().filter(|c| c.has_workers()).collect();
        let task_cells = self.cells.iter().filter(|c| c.has_tasks()).count();
        let total_tcell: usize = worker_cells.iter().map(|c| c.tcell_list.len()).sum();
        let avg = if worker_cells.is_empty() {
            0.0
        } else {
            total_tcell as f64 / worker_cells.len() as f64
        };
        let possible = worker_cells.len() * task_cells;
        let pruned_fraction = if possible == 0 {
            0.0
        } else {
            1.0 - total_tcell as f64 / possible as f64
        };
        GridStats {
            eta: self.geometry.eta(),
            cells_per_axis: self.geometry.cells_per_axis(),
            num_cells: self.cells.len(),
            num_tasks: self.tasks.len(),
            num_workers: self.workers.len(),
            avg_tcell_len: avg,
            pruned_fraction,
        }
    }
}

/// The cost-model `η` for an instance: `L_max` from the maximum distance any
/// worker can cover before the latest deadline, `N` from the task count.
/// Shared by both backends' `from_instance` constructors.
pub(crate) fn instance_eta(instance: &ProblemInstance) -> f64 {
    let latest_deadline = instance
        .tasks
        .iter()
        .map(|t| t.window.end)
        .fold(0.0f64, f64::max);
    let l_max = instance
        .workers
        .iter()
        .map(|w| {
            w.motion()
                .max_travel_distance(instance.depart_at, latest_deadline)
        })
        .fold(0.0f64, f64::max)
        .min(1.0);
    let params = CostModelParams::uniform(l_max.max(1e-3), instance.num_tasks().max(2));
    optimal_eta(&params)
}

impl CellTopology for GridIndex {
    fn depart_at(&self) -> f64 {
        self.depart_at
    }
    fn allow_wait(&self) -> bool {
        self.allow_wait
    }
    fn num_cells(&self) -> usize {
        self.cells.len()
    }
    fn fill_worker_cells(&self, out: &mut Vec<usize>) {
        out.extend(self.worker_cell_set.iter().copied());
    }
    fn tcell_list_of(&self, cell: usize) -> &[usize] {
        &self.cells[cell].tcell_list
    }
    fn task_ids_of(&self, cell: usize) -> &[TaskId] {
        &self.cells[cell].tasks
    }
    fn worker_ids_of(&self, cell: usize) -> &[WorkerId] {
        &self.cells[cell].workers
    }
    fn fill_cell_workers(&self, cell: usize, out: &mut Vec<Worker>) {
        out.extend(self.cells[cell].workers.iter().map(|id| self.workers[id]));
    }
    fn fill_cell_tasks(&self, cell: usize, out: &mut Vec<Task>) {
        out.extend(self.cells[cell].tasks.iter().map(|id| self.tasks[id]));
    }
    fn task_by_id(&self, id: TaskId) -> Task {
        self.tasks[&id]
    }
    fn worker_by_id(&self, id: WorkerId) -> Worker {
        self.workers[&id]
    }
    fn candidate_capacity(&self) -> (usize, usize) {
        self.id_capacity()
    }
    fn take_scratch(&mut self) -> PairScratch {
        std::mem::take(&mut self.scratch)
    }
    fn put_scratch(&mut self, scratch: PairScratch) {
        self.scratch = scratch;
    }
}

impl SpatialIndex for GridIndex {
    fn depart_at(&self) -> f64 {
        self.depart_at
    }
    fn set_depart_at(&mut self, at: f64) {
        self.depart_at = at;
    }
    fn allow_wait(&self) -> bool {
        self.allow_wait
    }
    fn set_allow_wait(&mut self, allow: bool) {
        self.allow_wait = allow;
    }
    fn num_tasks(&self) -> usize {
        self.num_tasks()
    }
    fn num_workers(&self) -> usize {
        self.num_workers()
    }
    fn task(&self, id: TaskId) -> Option<&Task> {
        self.task(id)
    }
    fn worker(&self, id: WorkerId) -> Option<&Worker> {
        self.worker(id)
    }
    fn expired_tasks(&self, now: f64) -> Vec<TaskId> {
        self.expired_tasks(now)
    }
    fn live_tasks(&self) -> Vec<Task> {
        // lint:allow(D001): collected here, sorted on the next line
        let mut tasks: Vec<Task> = self.tasks.values().copied().collect();
        tasks.sort_by_key(|t| t.id);
        tasks
    }
    fn live_workers(&self) -> Vec<Worker> {
        // lint:allow(D001): collected here, sorted on the next line
        let mut workers: Vec<Worker> = self.workers.values().copied().collect();
        workers.sort_by_key(|w| w.id);
        workers
    }
    fn insert_task(&mut self, task: Task) {
        self.insert_task(task);
    }
    fn remove_task(&mut self, id: TaskId) {
        self.remove_task(id);
    }
    fn relocate_task(&mut self, id: TaskId, to: Point) {
        self.relocate_task(id, to);
    }
    fn insert_worker(&mut self, worker: Worker) {
        self.insert_worker(worker);
    }
    fn remove_worker(&mut self, id: WorkerId) {
        self.remove_worker(id);
    }
    fn relocate_worker(&mut self, id: WorkerId, to: Point) {
        self.relocate_worker(id, to);
    }
    fn refresh(&mut self) -> usize {
        self.refresh_tcell_lists()
    }
    fn retrieve_valid_pairs(&mut self) -> BipartiteCandidates {
        self.retrieve_valid_pairs()
    }
    fn retrieve_valid_pairs_bruteforce(&self) -> BipartiteCandidates {
        self.retrieve_valid_pairs_bruteforce()
    }
    fn extract_shards(&mut self, beta: f64) -> Vec<ProblemShard> {
        self.extract_shards(beta)
    }
    fn maintenance_counters(&self) -> MaintenanceCounters {
        self.counters
    }
}

use crate::shard::ProblemShard;

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_geo::AngleRange;
    use rdbsc_model::{Confidence, TimeWindow};
    use std::f64::consts::PI;

    fn task(id: u32, x: f64, y: f64, start: f64, end: f64) -> Task {
        Task::new(
            TaskId(id),
            Point::new(x, y),
            TimeWindow::new(start, end).unwrap(),
        )
    }

    fn worker(id: u32, x: f64, y: f64, speed: f64, heading: AngleRange) -> Worker {
        Worker::new(
            WorkerId(id),
            Point::new(x, y),
            speed,
            heading,
            Confidence::new(0.9).unwrap(),
        )
        .unwrap()
    }

    fn small_instance() -> ProblemInstance {
        let tasks = vec![
            task(0, 0.2, 0.2, 0.0, 5.0),
            task(1, 0.8, 0.8, 0.0, 5.0),
            task(2, 0.8, 0.2, 0.0, 0.5),
        ];
        let workers = vec![
            worker(0, 0.1, 0.1, 0.5, AngleRange::full()),
            worker(1, 0.9, 0.9, 0.5, AngleRange::from_bounds(PI, 1.5 * PI)),
            worker(2, 0.5, 0.5, 0.05, AngleRange::full()),
        ];
        ProblemInstance::new(tasks, workers, 0.5)
    }

    #[test]
    fn grid_geometry_and_cell_lookup() {
        let g = GridIndex::new(Rect::unit(), 0.25);
        assert_eq!(g.num_cells(), 16);
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), 0);
        assert_eq!(g.cell_of(Point::new(0.99, 0.99)), 15);
        // Points outside the space are clamped.
        assert_eq!(g.cell_of(Point::new(2.0, 2.0)), 15);
        assert_eq!(g.cell_of(Point::new(-1.0, -1.0)), 0);
    }

    #[test]
    fn eta_is_clamped_to_a_sane_number_of_cells() {
        let g = GridIndex::new(Rect::unit(), 1e-9);
        assert!(g.num_cells() <= 1024 * 1024);
        let g = GridIndex::new(Rect::unit(), 10.0);
        assert_eq!(g.num_cells(), 1);
    }

    #[test]
    fn index_retrieval_matches_bruteforce() {
        let instance = small_instance();
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.2);
        let with_index = index.retrieve_valid_pairs();
        let brute = index.retrieve_valid_pairs_bruteforce();
        let mut a: Vec<(TaskId, WorkerId)> = with_index
            .pairs
            .iter()
            .map(|p| (p.task, p.worker))
            .collect();
        let mut b: Vec<(TaskId, WorkerId)> =
            brute.pairs.iter().map(|p| (p.task, p.worker)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "index retrieval must agree with brute force");
        // And with the model-level brute force over the instance.
        let model = rdbsc_model::compute_valid_pairs(&instance);
        let mut c: Vec<(TaskId, WorkerId)> =
            model.pairs.iter().map(|p| (p.task, p.worker)).collect();
        c.sort();
        assert_eq!(a, c);
    }

    #[test]
    fn dynamic_insert_and_remove_keep_retrieval_correct() {
        let instance = small_instance();
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.25);

        // Remove a worker: its pairs must disappear.
        index.remove_worker(WorkerId(0));
        let pairs = index.retrieve_valid_pairs();
        assert!(pairs.pairs.iter().all(|p| p.worker != WorkerId(0)));
        assert_eq!(index.num_workers(), 2);

        // Re-insert it: pairs must come back and match brute force.
        index.insert_worker(instance.workers[0]);
        let with_index = index.retrieve_valid_pairs();
        let brute = index.retrieve_valid_pairs_bruteforce();
        assert_eq!(with_index.num_pairs(), brute.num_pairs());

        // Remove a task.
        index.remove_task(TaskId(1));
        let pairs = index.retrieve_valid_pairs();
        assert!(pairs.pairs.iter().all(|p| p.task != TaskId(1)));
        assert_eq!(index.num_tasks(), 2);

        // Insert a brand-new task next to the slow worker.
        index.insert_task(task(3, 0.5, 0.5, 0.0, 10.0));
        let pairs = index.retrieve_valid_pairs();
        assert!(
            pairs
                .pairs
                .iter()
                .any(|p| p.task == TaskId(3) && p.worker == WorkerId(2)),
            "the slow worker sits on the new task and must be able to serve it"
        );
        let brute = index.retrieve_valid_pairs_bruteforce();
        assert_eq!(pairs.num_pairs(), brute.num_pairs());
    }

    #[test]
    fn replacing_a_worker_updates_its_cell() {
        let instance = small_instance();
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.25);
        // Move worker 0 to the opposite corner with a new heading.
        let moved = worker(0, 0.95, 0.95, 0.5, AngleRange::from_bounds(PI, 1.5 * PI));
        index.insert_worker(moved);
        assert_eq!(index.num_workers(), 3);
        let with_index = index.retrieve_valid_pairs();
        let brute = index.retrieve_valid_pairs_bruteforce();
        assert_eq!(with_index.num_pairs(), brute.num_pairs());
    }

    #[test]
    fn relocations_keep_retrieval_correct() {
        let instance = small_instance();
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.25);
        // Worker 1 walks to the south-west corner in several small steps
        // (some within the same cell, some crossing cells).
        for step in 0..6 {
            let t = step as f64 / 5.0;
            index.relocate_worker(WorkerId(1), Point::new(0.9 - 0.8 * t, 0.9 - 0.8 * t));
            let pairs = index.retrieve_valid_pairs();
            let brute = index.retrieve_valid_pairs_bruteforce();
            assert_eq!(pairs.num_pairs(), brute.num_pairs(), "worker step {step}");
        }
        // A task drifts across the space too.
        for step in 0..4 {
            let t = step as f64 / 3.0;
            index.relocate_task(TaskId(0), Point::new(0.2 + 0.6 * t, 0.2));
            let pairs = index.retrieve_valid_pairs();
            let brute = index.retrieve_valid_pairs_bruteforce();
            assert_eq!(pairs.num_pairs(), brute.num_pairs(), "task step {step}");
        }
        // Relocating unknown ids is a no-op.
        index.relocate_worker(WorkerId(99), Point::new(0.5, 0.5));
        index.relocate_task(TaskId(99), Point::new(0.5, 0.5));
        assert_eq!(index.num_workers(), 3);
        assert_eq!(index.num_tasks(), 3);
        // Cross-cell moves were counted.
        assert!(index.maintenance_counters().relocations >= 4);
    }

    #[test]
    fn targeted_task_updates_do_not_trigger_full_rebuilds() {
        let instance = small_instance();
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.25);
        index.refresh_tcell_lists();

        // A task insertion far from everything marks one task cell dirty; the
        // refresh touches at most the worker cells (membership re-decision),
        // and a second refresh touches nothing.
        index.insert_task(task(7, 0.05, 0.95, 0.0, 50.0));
        let touched = index.refresh_tcell_lists();
        assert!(touched <= 3, "targeted update touched {touched} cells");
        assert_eq!(index.refresh_tcell_lists(), 0);
    }

    #[test]
    fn pruning_actually_prunes_far_unreachable_cells() {
        // A slow worker in one corner and a short-deadline task in the other:
        // the task's cell must not appear in the worker's tcell_list.
        let tasks = vec![task(0, 0.95, 0.95, 0.0, 0.1)];
        let workers = vec![worker(0, 0.05, 0.05, 0.1, AngleRange::full())];
        let instance = ProblemInstance::new(tasks, workers, 0.5);
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.1);
        index.refresh_tcell_lists();
        let stats = index.stats();
        assert_eq!(
            stats.avg_tcell_len, 0.0,
            "unreachable task cell must be pruned"
        );
        assert!(index.retrieve_valid_pairs().pairs.is_empty());
    }

    #[test]
    fn angular_pruning_drops_cells_behind_the_worker() {
        // Worker heading strictly east; a task far to the west is open for a
        // long time (so the time test alone cannot prune it).
        let tasks = vec![
            task(0, 0.05, 0.5, 0.0, 100.0),
            task(1, 0.95, 0.5, 0.0, 100.0),
        ];
        let workers = vec![worker(0, 0.5, 0.5, 0.5, AngleRange::from_bounds(-0.3, 0.3))];
        let instance = ProblemInstance::new(tasks, workers, 0.5);
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.1);
        let pairs = index.retrieve_valid_pairs();
        assert_eq!(pairs.num_pairs(), 1);
        assert_eq!(pairs.pairs[0].task, TaskId(1));
        let stats = index.stats();
        assert!(stats.pruned_fraction > 0.0);
    }

    #[test]
    fn from_instance_uses_cost_model_eta() {
        let instance = small_instance();
        let index = GridIndex::from_instance(&instance);
        assert!(index.eta() > 0.0 && index.eta() <= 1.0);
        assert_eq!(index.num_tasks(), 3);
        assert_eq!(index.num_workers(), 3);
    }

    #[test]
    fn stats_report_counts() {
        let instance = small_instance();
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.25);
        index.refresh_tcell_lists();
        let stats = index.stats();
        assert_eq!(stats.num_tasks, 3);
        assert_eq!(stats.num_workers, 3);
        assert_eq!(stats.num_cells, 16);
        assert!(stats.avg_tcell_len >= 1.0);
    }

    #[test]
    fn to_instance_round_trips_live_objects() {
        let instance = small_instance();
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.25);
        index.remove_task(TaskId(1));
        let (view, mapping) = index.to_instance(0.5);
        assert_eq!(view.num_tasks(), 2);
        assert_eq!(view.num_workers(), 3);
        // Dense ids map back to the surviving live ids, in order.
        assert_eq!(mapping.tasks, vec![TaskId(0), TaskId(2)]);
        assert_eq!(view.tasks[1].location, instance.tasks[2].location);
    }

    #[test]
    fn rewinding_depart_at_rebuilds_the_cached_reachability() {
        // Regression test: the lists were built under a late departure that
        // prunes the task; moving the departure back must re-grow them.
        let tasks = vec![task(0, 0.9, 0.5, 0.0, 1.0)];
        let workers = vec![worker(0, 0.1, 0.5, 1.0, AngleRange::full())];
        let instance = ProblemInstance::new(tasks, workers, 0.5);
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.25);
        index.depart_at = 2.0; // past the deadline: nothing reachable
        assert_eq!(index.retrieve_valid_pairs().num_pairs(), 0);
        index.depart_at = 0.0; // rewind: the pair is reachable again
        assert_eq!(
            index.retrieve_valid_pairs().num_pairs(),
            index.retrieve_valid_pairs_bruteforce().num_pairs(),
        );
        assert_eq!(index.retrieve_valid_pairs().num_pairs(), 1);
    }

    #[test]
    fn expired_tasks_are_reported() {
        let instance = small_instance();
        let index = GridIndex::from_instance_with_eta(&instance, 0.25);
        assert!(index.expired_tasks(0.0).is_empty());
        assert_eq!(index.expired_tasks(1.0), vec![TaskId(2)]);
        assert_eq!(
            index.expired_tasks(10.0),
            vec![TaskId(0), TaskId(1), TaskId(2)]
        );
    }

    #[test]
    fn maintenance_counters_accumulate() {
        let instance = small_instance();
        let mut index = GridIndex::from_instance_with_eta(&instance, 0.25);
        let before = index.maintenance_counters();
        index.refresh_tcell_lists();
        let after = index.maintenance_counters();
        let delta = after.delta_since(&before);
        assert!(delta.tcell_rebuilds > 0, "initial refresh rebuilds lists");
        assert!(delta.cells_repaired >= delta.tcell_rebuilds);
        // A second refresh with no changes repairs nothing.
        let idle = index.maintenance_counters();
        index.refresh_tcell_lists();
        assert_eq!(index.maintenance_counters(), idle);
    }
}
