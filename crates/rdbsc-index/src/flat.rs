//! The serving index: a flat dense grid built for worker-movement-heavy
//! workloads.
//!
//! [`FlatGridIndex`] keeps the RDB-SC-Grid cell layout (shared
//! [`crate::geometry`]) but swaps the bookkeeping around it, following the
//! design of high-throughput flat spatial grids (dense cell storage,
//! generational handles, O(1) relocation):
//!
//! * **Slot-arena object storage.** Tasks and workers live in dense `Vec`
//!   slot arenas behind *generational handles*; a handle resolves to its
//!   object (and its current cell) in O(1) with no hashing, cells store
//!   `(id, slot)` pairs so the candidate-generation hot path reads objects
//!   straight out of the arena, and freed slots are recycled without
//!   invalidating later handles.
//! * **O(1) relocation without BTree churn.** A cross-cell move updates the
//!   slot's cell pointer and the two membership vectors — no `BTreeSet`
//!   occupancy updates (occupancy lists are compacted lazily) and no eager
//!   summary recomputation.
//! * **Lazy, demand-driven cell-summary repair.** Maintenance events only
//!   *mark* cells dirty; [`SpatialIndex::refresh`] recomputes a dirty cell's
//!   summary once, however many events touched it, and rebuilds its
//!   reachability list only when the summary changed. A dirty cell no live
//!   task can be reached from is not even summarised — it is *parked* (below).
//!
//! # The reachability-list contract
//!
//! Whether task cell `j` is on worker cell `i`'s `tcell_list` is re-decided
//! only in a refresh where `i`'s worker summary or `j`'s task summary
//! changed, or after a `depart_at` rewind; a later departure alone re-decides
//! nothing, so entries that were true when decided survive (see
//! [`crate::traits`]). The lists feed the shard decomposition, so this
//! index applies exactly the reference [`crate::GridIndex`]'s re-decision
//! rule — with one shortcut that provably cannot show.
//!
//! # Parking
//!
//! A dirty worker cell is **parked** — summary left stale, dirty mark kept,
//! no rebuild, skipped by the task-side membership edits — exactly when its
//! list is empty **and** no occupied task cell passes the time test
//! `depart_at + d_min / V ≤ e_max`, where `V` is an index-wide upper bound on
//! worker speed that only ever grows. The test is evaluated again at every
//! refresh while the cell stays parked; when it passes, or on a rewind, the
//! cell gets a fresh summary and an unconditional list rebuild.
//!
//! Why this equals the eager policy. The bound test failing for `j` implies
//! the real predicate fails for `(i, j)` whatever `i`'s workers are (they
//! leave no earlier than `depart_at` and move no faster than `V`, and the
//! time test is monotone in both), so every decision the eager policy takes
//! for a parked cell comes out "unreachable": the cell ends each such
//! refresh with an empty list whether or not its summary changed. At
//! un-park time take any pair `(i, j)` and the refresh that last decided it
//! under the eager policy. If that was before `i` was parked, the answer was
//! "unreachable" (the list was empty when parking began); if it was while
//! parked, likewise. Neither summary has changed since (or the pair would
//! have been re-decided later) and the time test only gets harder as
//! `depart_at` grows, so a fresh decision now says "unreachable" too. The
//! pairs left are those re-decided in this very refresh. A fresh rebuild
//! therefore equals the list the eager policy holds. Parking a cell whose
//! list is *non-empty* would diverge: its surviving entries are the
//! stale-true ones of the contract above, which the rebuild at un-park
//! would drop (the short-reach property test in `tests/proptest_backends.rs`
//! fails within a few cases if that half of the condition is removed).
//!
//! Parked cells are neither repaired nor rebuilt, so the
//! [`MaintenanceCounters`] of a movement-heavy run with few live tasks fall
//! accordingly; the counters themselves mean what they always meant.
//!
//! The index honours the determinism contract (see [`crate::traits`]):
//! driven through the same calls it yields candidate sequences and shard
//! decompositions identical to the reference [`crate::GridIndex`]'s.

use crate::geometry::{CellSite, GridGeometry};
use crate::shard::{extract_shards_via, ProblemShard};
use crate::topology::{
    bruteforce_pairs, cell_pair_reachable, retrieve_pairs_via, time_reachable, with_scratch,
    CellTopology, DirectionMemo, PairScratch, TaskCellSummary, WorkerCellSummary,
};
use crate::traits::{MaintenanceCounters, SpatialIndex};
use rdbsc_geo::{Point, Rect};
use rdbsc_model::valid_pairs::BipartiteCandidates;
use rdbsc_model::{ProblemInstance, Task, TaskId, Worker, WorkerId};
use std::collections::HashMap;

/// A generational handle into a [`SlotArena`]: the slot position plus the
/// generation it was allocated under, so a recycled slot cannot be touched
/// through a stale handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotHandle {
    index: u32,
    generation: u32,
}

#[derive(Debug, Clone)]
struct Slot<T> {
    value: Option<T>,
    /// The cell currently holding the object (meaningless when free).
    cell: u32,
    generation: u32,
}

/// Dense object storage with O(1) insert/lookup/remove and slot recycling.
#[derive(Debug, Clone)]
struct SlotArena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Default for SlotArena<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Copy> SlotArena<T> {
    fn insert(&mut self, value: T, cell: u32) -> SlotHandle {
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.value = Some(value);
            slot.cell = cell;
            SlotHandle {
                index,
                generation: slot.generation,
            }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                value: Some(value),
                cell,
                generation: 0,
            });
            SlotHandle {
                index,
                generation: 0,
            }
        }
    }

    fn remove(&mut self, handle: SlotHandle) -> Option<T> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        Some(value)
    }

    fn get(&self, handle: SlotHandle) -> Option<&T> {
        let slot = self.slots.get(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.value.as_ref()
    }

    fn get_mut(&mut self, handle: SlotHandle) -> Option<&mut Slot<T>> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        if slot.generation != handle.generation || slot.value.is_none() {
            return None;
        }
        Some(slot)
    }

    /// The live value at a raw slot position (cells only store live slots).
    fn value_at(&self, index: u32) -> &T {
        self.slots[index as usize]
            .value
            .as_ref()
            .expect("cell membership points at a live slot")
    }

    /// Iterates over the live values in slot order (deterministic).
    fn live_values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.value.as_ref())
    }
}

/// Ascending cell-occupancy list with deferred (lazy) removal: emptied cells
/// are only dropped at the next [`OccupancyList::compact`].
#[derive(Debug, Clone, Default)]
struct OccupancyList {
    cells: Vec<usize>,
    stale: bool,
}

impl OccupancyList {
    fn insert(&mut self, cell: usize) {
        if let Err(pos) = self.cells.binary_search(&cell) {
            self.cells.insert(pos, cell);
        }
    }

    fn mark_stale(&mut self) {
        self.stale = true;
    }

    fn compact(&mut self, keep: impl Fn(usize) -> bool) {
        if self.stale {
            self.cells.retain(|&c| keep(c));
            self.stale = false;
        }
    }

    /// Ascending occupied cells; only exact after [`OccupancyList::compact`].
    fn as_slice(&self) -> &[usize] {
        &self.cells
    }
}

/// A set of dirty cells with O(1) dedup marking and sorted draining.
#[derive(Debug, Clone, Default)]
struct DirtyList {
    cells: Vec<usize>,
    flagged: Vec<bool>,
}

impl DirtyList {
    fn with_cells(n: usize) -> Self {
        Self {
            cells: Vec::new(),
            flagged: vec![false; n],
        }
    }

    fn mark(&mut self, cell: usize) {
        if !self.flagged[cell] {
            self.flagged[cell] = true;
            self.cells.push(cell);
        }
    }

    fn drain_sorted(&mut self) -> Vec<usize> {
        for &c in &self.cells {
            self.flagged[c] = false;
        }
        let mut cells = std::mem::take(&mut self.cells);
        cells.sort_unstable();
        cells
    }
}

/// One dense cell: `(id, slot)` membership in ascending id order, the cached
/// pruning summaries, and the reachability list.
#[derive(Debug, Clone)]
struct FlatCell {
    task_ids: Vec<TaskId>,
    task_slots: Vec<u32>,
    worker_ids: Vec<WorkerId>,
    worker_slots: Vec<u32>,
    worker_summary: WorkerCellSummary,
    task_summary: TaskCellSummary,
    tcell_list: Vec<usize>,
    /// Parked (see the [module docs](self)): `worker_summary` is stale and
    /// the cell sits in the dirty list until a task comes within reach.
    parked: bool,
}

impl Default for FlatCell {
    fn default() -> Self {
        Self {
            task_ids: Vec::new(),
            task_slots: Vec::new(),
            worker_ids: Vec::new(),
            worker_slots: Vec::new(),
            worker_summary: WorkerCellSummary::EMPTY,
            task_summary: TaskCellSummary::EMPTY,
            tcell_list: Vec::new(),
            parked: false,
        }
    }
}

fn attach<Id: Ord + Copy>(ids: &mut Vec<Id>, slots: &mut Vec<u32>, id: Id, slot: u32) {
    match ids.binary_search(&id) {
        Ok(pos) => slots[pos] = slot, // replaced object, same id
        Err(pos) => {
            ids.insert(pos, id);
            slots.insert(pos, slot);
        }
    }
}

fn detach<Id: Ord + Copy>(ids: &mut Vec<Id>, slots: &mut Vec<u32>, id: Id) {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
        slots.remove(pos);
    }
}

/// The flat dense-grid spatial index (see the [module docs](self)).
///
/// Construct it like [`crate::GridIndex`] and drive it through
/// [`SpatialIndex`]:
///
/// ```
/// use rdbsc_geo::{Point, Rect};
/// use rdbsc_index::{FlatGridIndex, SpatialIndex};
/// use rdbsc_model::{Task, TaskId, TimeWindow};
///
/// let mut index = FlatGridIndex::new(Rect::unit(), 0.25);
/// index.insert_task(Task::new(
///     TaskId(0),
///     Point::new(0.4, 0.4),
///     TimeWindow::new(0.0, 5.0).unwrap(),
/// ));
/// assert_eq!(index.num_tasks(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FlatGridIndex {
    geometry: GridGeometry,
    cells: Vec<FlatCell>,
    tasks: SlotArena<Task>,
    workers: SlotArena<Worker>,
    task_handles: HashMap<TaskId, SlotHandle>,
    worker_handles: HashMap<WorkerId, SlotHandle>,
    occupied_task_cells: OccupancyList,
    occupied_worker_cells: OccupancyList,
    /// Cells whose worker summary may be stale (repaired lazily).
    dirty_worker_cells: DirtyList,
    /// Cells whose task summary may be stale (repaired lazily).
    dirty_task_cells: DirtyList,
    /// The `depart_at` the reachability lists were last refreshed under
    /// (rewinds grow reachability and force a full rebuild).
    tcell_depart_at: f64,
    /// Upper bound on the speed of every worker ever indexed (never lowered:
    /// parking only needs a bound, and a bound that shrank could un-park
    /// nothing anyway).
    speed_bound: f64,
    depart_at: f64,
    allow_wait: bool,
    counters: MaintenanceCounters,
    scratch: PairScratch,
    directions: DirectionMemo,
}

impl FlatGridIndex {
    /// Creates an empty index over `space` with cell side `eta` (clamped
    /// exactly like [`crate::GridIndex::new`], so the two backends always
    /// agree on the cell layout).
    pub fn new(space: Rect, eta: f64) -> Self {
        let geometry = GridGeometry::new(space, eta);
        let num_cells = geometry.num_cells();
        Self {
            geometry,
            cells: vec![FlatCell::default(); num_cells],
            tasks: SlotArena::default(),
            workers: SlotArena::default(),
            task_handles: HashMap::new(),
            worker_handles: HashMap::new(),
            occupied_task_cells: OccupancyList::default(),
            occupied_worker_cells: OccupancyList::default(),
            dirty_worker_cells: DirtyList::with_cells(num_cells),
            dirty_task_cells: DirtyList::with_cells(num_cells),
            tcell_depart_at: 0.0,
            speed_bound: 0.0,
            depart_at: 0.0,
            allow_wait: true,
            counters: MaintenanceCounters::default(),
            scratch: PairScratch::default(),
            directions: DirectionMemo::new(geometry.eta()),
        }
    }

    /// Builds an index for a problem instance with the cost-model `η` (the
    /// same choice [`crate::GridIndex::from_instance`] makes).
    pub fn from_instance(instance: &ProblemInstance) -> Self {
        let mut index = FlatGridIndex::new(Rect::unit(), crate::grid::instance_eta(instance));
        crate::traits::populate_from_instance(&mut index, instance);
        index
    }

    /// Builds an index for an instance with an explicit cell side.
    pub fn from_instance_with_eta(instance: &ProblemInstance, eta: f64) -> Self {
        let mut index = FlatGridIndex::new(Rect::unit(), eta);
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

    fn id_capacity(&self) -> (usize, usize) {
        let max_task = self
            // lint:allow(D001): max over keys — order-insensitive
            .task_handles
            .keys()
            .map(|t| t.index() + 1)
            .max()
            .unwrap_or(0);
        let max_worker = self
            // lint:allow(D001): max over keys — order-insensitive
            .worker_handles
            .keys()
            .map(|w| w.index() + 1)
            .max()
            .unwrap_or(0);
        (max_task, max_worker)
    }

    /// The worker summary of a cell, recomputed from its current members.
    fn fresh_worker_summary(&self, cell: usize) -> WorkerCellSummary {
        WorkerCellSummary::compute(
            self.cells[cell]
                .worker_slots
                .iter()
                .map(|&s| self.workers.value_at(s)),
        )
    }

    /// The parking time test: could a worker as fast as the index-wide speed
    /// bound, leaving `cell` at `depart_at`, make any occupied task cell's
    /// latest deadline?
    fn in_bound_reach(&self, cell: usize, task_cells: &[TaskCellView]) -> bool {
        let rect = self.geometry.rect_of(cell);
        task_cells.iter().any(|(_, site, to)| {
            let d_min = rect.min_distance(&site.rect);
            time_reachable(self.depart_at, d_min, self.speed_bound, to.e_max)
        })
    }

    /// The parking invariant: under its *current* workers, a parked cell
    /// reaches no occupied task cell by the full predicate.
    fn parked_cells_reach_nothing(
        &mut self,
        parked: &[usize],
        task_cells: &[TaskCellView],
    ) -> bool {
        parked.iter().all(|&c| {
            let from_site = self.geometry.site(c);
            let from = self.fresh_worker_summary(c);
            !task_cells.iter().any(|(_, to_site, to)| {
                cell_pair_reachable(
                    self.depart_at,
                    &from_site,
                    &from,
                    to_site,
                    to,
                    &mut self.directions,
                )
            })
        })
    }
}

/// An occupied task cell as one refresh sees it: index, site, fresh summary.
type TaskCellView = (usize, CellSite, TaskCellSummary);

impl SpatialIndex for FlatGridIndex {
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
        self.task_handles.len()
    }

    fn num_workers(&self) -> usize {
        self.worker_handles.len()
    }

    fn task(&self, id: TaskId) -> Option<&Task> {
        self.task_handles.get(&id).and_then(|h| self.tasks.get(*h))
    }

    fn worker(&self, id: WorkerId) -> Option<&Worker> {
        self.worker_handles
            .get(&id)
            .and_then(|h| self.workers.get(*h))
    }

    fn expired_tasks(&self, now: f64) -> Vec<TaskId> {
        let mut expired: Vec<TaskId> = self
            .tasks
            .live_values()
            .filter(|t| t.window.end < now)
            .map(|t| t.id)
            .collect();
        expired.sort();
        expired
    }

    fn live_tasks(&self) -> Vec<Task> {
        let mut tasks: Vec<Task> = self.tasks.live_values().copied().collect();
        tasks.sort_by_key(|t| t.id);
        tasks
    }

    fn live_workers(&self) -> Vec<Worker> {
        let mut workers: Vec<Worker> = self.workers.live_values().copied().collect();
        workers.sort_by_key(|w| w.id);
        workers
    }

    fn insert_task(&mut self, task: Task) {
        self.remove_task(task.id);
        let cell_idx = self.geometry.cell_of(task.location);
        let handle = self.tasks.insert(task, cell_idx as u32);
        self.task_handles.insert(task.id, handle);
        let cell = &mut self.cells[cell_idx];
        attach(
            &mut cell.task_ids,
            &mut cell.task_slots,
            task.id,
            handle.index,
        );
        if cell.task_ids.len() == 1 {
            self.occupied_task_cells.insert(cell_idx);
        }
        self.dirty_task_cells.mark(cell_idx);
    }

    fn remove_task(&mut self, id: TaskId) {
        let Some(handle) = self.task_handles.remove(&id) else {
            return;
        };
        let cell_idx = self.tasks.slots[handle.index as usize].cell as usize;
        self.tasks.remove(handle);
        let cell = &mut self.cells[cell_idx];
        detach(&mut cell.task_ids, &mut cell.task_slots, id);
        if cell.task_ids.is_empty() {
            self.occupied_task_cells.mark_stale();
        }
        self.dirty_task_cells.mark(cell_idx);
    }

    fn relocate_task(&mut self, id: TaskId, to: Point) {
        let Some(&handle) = self.task_handles.get(&id) else {
            return;
        };
        let Some(slot) = self.tasks.get_mut(handle) else {
            return;
        };
        slot.value.as_mut().expect("live slot").location = to;
        let old_cell = slot.cell as usize;
        let new_cell = self.geometry.cell_of(to);
        if old_cell == new_cell {
            return; // summaries do not depend on the position inside the cell
        }
        self.counters.relocations += 1;
        slot.cell = new_cell as u32;
        let cell = &mut self.cells[old_cell];
        detach(&mut cell.task_ids, &mut cell.task_slots, id);
        if cell.task_ids.is_empty() {
            self.occupied_task_cells.mark_stale();
        }
        self.dirty_task_cells.mark(old_cell);
        let cell = &mut self.cells[new_cell];
        attach(&mut cell.task_ids, &mut cell.task_slots, id, handle.index);
        if cell.task_ids.len() == 1 {
            self.occupied_task_cells.insert(new_cell);
        }
        self.dirty_task_cells.mark(new_cell);
    }

    fn insert_worker(&mut self, worker: Worker) {
        self.remove_worker(worker.id);
        let cell_idx = self.geometry.cell_of(worker.location);
        let handle = self.workers.insert(worker, cell_idx as u32);
        self.worker_handles.insert(worker.id, handle);
        let cell = &mut self.cells[cell_idx];
        attach(
            &mut cell.worker_ids,
            &mut cell.worker_slots,
            worker.id,
            handle.index,
        );
        if cell.worker_ids.len() == 1 {
            self.occupied_worker_cells.insert(cell_idx);
        }
        self.dirty_worker_cells.mark(cell_idx);
        self.speed_bound = self.speed_bound.max(worker.speed);
    }

    fn remove_worker(&mut self, id: WorkerId) {
        let Some(handle) = self.worker_handles.remove(&id) else {
            return;
        };
        let cell_idx = self.workers.slots[handle.index as usize].cell as usize;
        self.workers.remove(handle);
        let cell = &mut self.cells[cell_idx];
        detach(&mut cell.worker_ids, &mut cell.worker_slots, id);
        if cell.worker_ids.is_empty() {
            self.occupied_worker_cells.mark_stale();
        }
        self.dirty_worker_cells.mark(cell_idx);
    }

    fn relocate_worker(&mut self, id: WorkerId, to: Point) {
        let Some(&handle) = self.worker_handles.get(&id) else {
            return;
        };
        let Some(slot) = self.workers.get_mut(handle) else {
            return;
        };
        slot.value.as_mut().expect("live slot").location = to;
        let old_cell = slot.cell as usize;
        let new_cell = self.geometry.cell_of(to);
        if old_cell == new_cell {
            return; // summaries do not depend on the position inside the cell
        }
        self.counters.relocations += 1;
        slot.cell = new_cell as u32;
        let cell = &mut self.cells[old_cell];
        detach(&mut cell.worker_ids, &mut cell.worker_slots, id);
        if cell.worker_ids.is_empty() {
            self.occupied_worker_cells.mark_stale();
        }
        self.dirty_worker_cells.mark(old_cell);
        let cell = &mut self.cells[new_cell];
        attach(
            &mut cell.worker_ids,
            &mut cell.worker_slots,
            id,
            handle.index,
        );
        if cell.worker_ids.len() == 1 {
            self.occupied_worker_cells.insert(new_cell);
        }
        self.dirty_worker_cells.mark(new_cell);
    }

    fn refresh(&mut self) -> usize {
        // 1. Compact the lazily maintained occupancy lists.
        {
            let cells = &self.cells;
            self.occupied_task_cells
                .compact(|c| !cells[c].task_ids.is_empty());
            self.occupied_worker_cells
                .compact(|c| !cells[c].worker_ids.is_empty());
        }

        // 2. Task summaries first (the parking decision reads them): each
        // dirty cell is recomputed once, no matter how many events touched
        // it since the last refresh.
        let mut changed_task_cells: Vec<usize> = Vec::new();
        for c in self.dirty_task_cells.drain_sorted() {
            let summary = TaskCellSummary::compute(
                self.cells[c]
                    .task_slots
                    .iter()
                    .map(|&s| self.tasks.value_at(s)),
            );
            let cell = &mut self.cells[c];
            if cell.task_summary != summary {
                cell.task_summary = summary;
                changed_task_cells.push(c);
            }
        }
        let task_cells: Vec<TaskCellView> = self
            .occupied_task_cells
            .as_slice()
            .iter()
            .map(|&j| (j, self.geometry.site(j), self.cells[j].task_summary))
            .collect();

        // 3. A departure rewind grows reachability: every worker cell's
        // cached list may be missing cells, so nothing is parked and every
        // list is rebuilt.
        let rewind = self.depart_at < self.tcell_depart_at;
        self.tcell_depart_at = self.depart_at;

        // 4. Worker summaries, on demand: a dirty cell no task can be
        // reached from is parked instead of repaired; the others are
        // recomputed once and rebuilt if the summary changed (or had gone
        // stale while parked).
        let mut rebuild: Vec<usize> = Vec::new();
        let mut parked: Vec<usize> = Vec::new();
        for c in self.dirty_worker_cells.drain_sorted() {
            if self.cells[c].worker_ids.is_empty() {
                let cell = &mut self.cells[c];
                cell.worker_summary = WorkerCellSummary::EMPTY;
                cell.tcell_list.clear();
                cell.parked = false;
                continue;
            }
            if !rewind
                && self.cells[c].tcell_list.is_empty()
                && !self.in_bound_reach(c, &task_cells)
            {
                self.cells[c].parked = true;
                parked.push(c);
                continue;
            }
            let summary = self.fresh_worker_summary(c);
            let cell = &mut self.cells[c];
            let was_parked = std::mem::take(&mut cell.parked);
            if was_parked || cell.worker_summary != summary {
                cell.worker_summary = summary;
                rebuild.push(c);
            }
        }
        for &c in &parked {
            self.dirty_worker_cells.mark(c);
        }
        if rewind {
            rebuild = self.occupied_worker_cells.as_slice().to_vec();
        }

        // 5. Full list rebuilds (`rebuild` is ascending and holds occupied
        // cells only).
        for &c in &rebuild {
            let from_site = self.geometry.site(c);
            let from = self.cells[c].worker_summary;
            let mut list = std::mem::take(&mut self.cells[c].tcell_list);
            list.clear();
            for (j, to_site, to) in &task_cells {
                if cell_pair_reachable(
                    self.depart_at,
                    &from_site,
                    &from,
                    to_site,
                    to,
                    &mut self.directions,
                ) {
                    list.push(*j); // ascending: task_cells is sorted
                }
            }
            self.cells[c].tcell_list = list;
        }
        self.counters.tcell_rebuilds += rebuild.len() as u64;

        // 6. Targeted membership edits for cells whose task summary changed
        // (cells rebuilt above already saw the new task summaries; parked
        // cells are out of even the speed bound's reach of them).
        let mut edited: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for &j in &changed_task_cells {
            let to_site = self.geometry.site(j);
            let to = self.cells[j].task_summary;
            for &i in self.occupied_worker_cells.as_slice() {
                if self.cells[i].parked || rebuild.binary_search(&i).is_ok() {
                    continue;
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
                        edited.insert(i);
                    }
                    (Err(pos), true) => {
                        list.insert(pos, j);
                        edited.insert(i);
                    }
                }
            }
        }

        debug_assert!(
            self.parked_cells_reach_nothing(&parked, &task_cells),
            "a parked cell reaches a task cell"
        );
        let repaired = rebuild.len() + edited.len();
        self.counters.cells_repaired += repaired as u64;
        repaired
    }

    fn retrieve_valid_pairs(&mut self) -> BipartiteCandidates {
        self.refresh();
        with_scratch(self, retrieve_pairs_via)
    }

    fn retrieve_valid_pairs_bruteforce(&self) -> BipartiteCandidates {
        let mut tasks: Vec<Task> = self.tasks.live_values().copied().collect();
        tasks.sort_by_key(|t| t.id);
        let mut workers: Vec<Worker> = self.workers.live_values().copied().collect();
        workers.sort_by_key(|w| w.id);
        bruteforce_pairs(
            tasks.iter().copied(),
            workers.iter().copied(),
            self.depart_at,
            self.allow_wait,
            self.id_capacity(),
        )
    }

    fn extract_shards(&mut self, beta: f64) -> Vec<ProblemShard> {
        self.refresh();
        with_scratch(self, |index, scratch| {
            extract_shards_via(index, beta, scratch)
        })
    }

    fn maintenance_counters(&self) -> MaintenanceCounters {
        self.counters
    }
}

impl CellTopology for FlatGridIndex {
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
        out.extend_from_slice(self.occupied_worker_cells.as_slice());
    }
    fn tcell_list_of(&self, cell: usize) -> &[usize] {
        &self.cells[cell].tcell_list
    }
    fn task_ids_of(&self, cell: usize) -> &[TaskId] {
        &self.cells[cell].task_ids
    }
    fn worker_ids_of(&self, cell: usize) -> &[WorkerId] {
        &self.cells[cell].worker_ids
    }
    fn fill_cell_workers(&self, cell: usize, out: &mut Vec<Worker>) {
        out.extend(
            self.cells[cell]
                .worker_slots
                .iter()
                .map(|&s| *self.workers.value_at(s)),
        );
    }
    fn fill_cell_tasks(&self, cell: usize, out: &mut Vec<Task>) {
        out.extend(
            self.cells[cell]
                .task_slots
                .iter()
                .map(|&s| *self.tasks.value_at(s)),
        );
    }
    fn task_by_id(&self, id: TaskId) -> Task {
        *self.tasks.get(self.task_handles[&id]).expect("live task")
    }
    fn worker_by_id(&self, id: WorkerId) -> Worker {
        *self
            .workers
            .get(self.worker_handles[&id])
            .expect("live worker")
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

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_geo::AngleRange;
    use rdbsc_model::{Confidence, TimeWindow};

    fn task(id: u32, x: f64, y: f64, start: f64, end: f64) -> Task {
        Task::new(
            TaskId(id),
            Point::new(x, y),
            TimeWindow::new(start, end).unwrap(),
        )
    }

    fn worker(id: u32, x: f64, y: f64, speed: f64) -> Worker {
        Worker::new(
            WorkerId(id),
            Point::new(x, y),
            speed,
            AngleRange::full(),
            Confidence::new(0.9).unwrap(),
        )
        .unwrap()
    }

    fn pair_set(graph: &BipartiteCandidates) -> Vec<(TaskId, WorkerId)> {
        let mut v: Vec<(TaskId, WorkerId)> =
            graph.pairs.iter().map(|p| (p.task, p.worker)).collect();
        v.sort();
        v
    }

    #[test]
    fn retrieval_matches_bruteforce_under_churn() {
        let mut index = FlatGridIndex::new(Rect::unit(), 0.2);
        for i in 0..12u32 {
            index.insert_task(task(
                i,
                (i as f64 * 0.37) % 1.0,
                (i as f64 * 0.61) % 1.0,
                0.0,
                4.0,
            ));
        }
        for j in 0..12u32 {
            index.insert_worker(worker(
                j,
                (j as f64 * 0.53) % 1.0,
                (j as f64 * 0.29) % 1.0,
                0.3,
            ));
        }
        assert_eq!(
            pair_set(&index.retrieve_valid_pairs()),
            pair_set(&index.retrieve_valid_pairs_bruteforce()),
        );
        // Churn: moves, removals, replacements — retrieval stays exact.
        for j in 0..12u32 {
            index.relocate_worker(WorkerId(j), Point::new((j as f64 * 0.71) % 1.0, 0.4));
        }
        index.remove_task(TaskId(3));
        index.remove_worker(WorkerId(5));
        index.insert_task(task(3, 0.9, 0.1, 0.0, 9.0));
        assert_eq!(
            pair_set(&index.retrieve_valid_pairs()),
            pair_set(&index.retrieve_valid_pairs_bruteforce()),
        );
    }

    #[test]
    fn generational_handles_survive_slot_recycling() {
        let mut index = FlatGridIndex::new(Rect::unit(), 0.25);
        index.insert_worker(worker(0, 0.2, 0.2, 0.5));
        index.remove_worker(WorkerId(0));
        // The freed slot is recycled for a different worker; the old id must
        // be gone and the new one intact.
        index.insert_worker(worker(7, 0.8, 0.8, 0.5));
        assert!(index.worker(WorkerId(0)).is_none());
        assert_eq!(index.worker(WorkerId(7)).unwrap().id, WorkerId(7));
        assert_eq!(index.num_workers(), 1);
        // Stale operations on the removed id are no-ops.
        index.relocate_worker(WorkerId(0), Point::new(0.5, 0.5));
        assert_eq!(index.num_workers(), 1);
    }

    #[test]
    fn lazy_repair_batches_a_burst_of_moves() {
        let mut index = FlatGridIndex::new(Rect::unit(), 0.25);
        index.insert_task(task(0, 0.9, 0.9, 0.0, 50.0));
        for j in 0..8u32 {
            index.insert_worker(worker(j, 0.1, 0.1, 0.5));
        }
        index.refresh();
        let before = index.maintenance_counters();
        // The whole crowd wanders inside one cell, then crosses into the
        // next: many events, but at most two cells' summaries to repair.
        for j in 0..8u32 {
            index.relocate_worker(WorkerId(j), Point::new(0.15, 0.12));
            index.relocate_worker(WorkerId(j), Point::new(0.3, 0.12));
        }
        let repaired = index.refresh();
        let delta = index.maintenance_counters().delta_since(&before);
        assert_eq!(delta.relocations, 8, "same-cell moves are free");
        assert!(repaired <= 2, "burst repaired {repaired} cells");
        // Identical retrieval afterwards.
        assert_eq!(
            pair_set(&index.retrieve_valid_pairs()),
            pair_set(&index.retrieve_valid_pairs_bruteforce()),
        );
    }

    #[test]
    fn unchanged_summaries_skip_tcell_rebuilds() {
        let mut index = FlatGridIndex::new(Rect::unit(), 0.25);
        index.insert_task(task(0, 0.9, 0.9, 0.0, 50.0));
        index.insert_worker(worker(0, 0.1, 0.1, 0.9));
        index.insert_worker(worker(1, 0.12, 0.1, 0.2)); // slower sibling
        index.refresh();
        let before = index.maintenance_counters();
        // The slow worker leaves the cell: v_max, hull and availability are
        // unchanged, so the cell's reachability list needs no rebuild (the
        // destination cell does: it just gained its first worker).
        index.relocate_worker(WorkerId(1), Point::new(0.4, 0.1));
        index.refresh();
        let delta = index.maintenance_counters().delta_since(&before);
        assert_eq!(
            delta.tcell_rebuilds, 1,
            "only the destination cell rebuilds"
        );
    }

    #[test]
    fn rewinding_depart_at_rebuilds_the_cached_reachability() {
        let mut index = FlatGridIndex::new(Rect::unit(), 0.25);
        index.insert_task(task(0, 0.9, 0.5, 0.0, 1.0));
        index.insert_worker(worker(0, 0.1, 0.5, 1.0));
        index.set_depart_at(2.0); // past the deadline: nothing reachable
        assert_eq!(index.retrieve_valid_pairs().num_pairs(), 0);
        index.set_depart_at(0.0); // rewind: the pair is reachable again
        assert_eq!(index.retrieve_valid_pairs().num_pairs(), 1);
    }

    /// One short-window task with a worker beside it in the south-west, and
    /// a 40-strong crowd in the north-east that nothing can reach in time.
    fn short_task_and_far_crowd() -> FlatGridIndex {
        let mut index = FlatGridIndex::new(Rect::unit(), 0.1);
        index.insert_task(task(0, 0.05, 0.05, 0.0, 0.2));
        index.insert_worker(worker(100, 0.06, 0.06, 0.2));
        for j in 0..40u32 {
            index.insert_worker(worker(
                j,
                0.6 + 0.008 * j as f64,
                0.8,
                0.1 + 0.005 * j as f64,
            ));
        }
        index
    }

    fn churn_the_crowd(index: &mut FlatGridIndex, round: u32) {
        for j in 0..40u32 {
            let x = 0.55 + ((j * 7 + round * 13) % 40) as f64 * 0.01;
            let y = 0.6 + ((j * 3 + round) % 30) as f64 * 0.01;
            index.relocate_worker(WorkerId(j), Point::new(x, y));
        }
    }

    fn parked_cells(index: &FlatGridIndex) -> usize {
        index.cells.iter().filter(|c| c.parked).count()
    }

    #[test]
    fn a_far_crowd_churning_beside_a_short_task_costs_no_rebuilds() {
        let mut index = short_task_and_far_crowd();
        assert_eq!(
            pair_set(&index.retrieve_valid_pairs()),
            vec![(TaskId(0), WorkerId(100))]
        );
        assert!(parked_cells(&index) > 0);
        let before = index.maintenance_counters();
        for round in 0..5 {
            churn_the_crowd(&mut index, round);
            assert_eq!(
                pair_set(&index.retrieve_valid_pairs()),
                pair_set(&index.retrieve_valid_pairs_bruteforce()),
            );
        }
        let delta = index.maintenance_counters().delta_since(&before);
        assert!(delta.relocations > 0);
        assert_eq!(delta.tcell_rebuilds, 0);
        assert_eq!(delta.cells_repaired, 0);
    }

    #[test]
    fn a_task_arriving_beside_a_parked_cell_unparks_it() {
        let mut index = short_task_and_far_crowd();
        index.refresh();
        churn_the_crowd(&mut index, 1); // summaries of the parked cells go stale
        index.refresh();
        let crowd_cell = index.geometry.cell_of(Point::new(0.75, 0.75));
        assert!(index.cells[crowd_cell].parked);
        index.insert_task(task(1, 0.75, 0.75, 0.0, 0.3));
        let pairs = index.retrieve_valid_pairs();
        assert!(
            pairs.num_pairs() > 1,
            "the crowd around the new task can serve it"
        );
        assert_eq!(
            pair_set(&pairs),
            pair_set(&index.retrieve_valid_pairs_bruteforce())
        );
        assert!(!index.cells[crowd_cell].parked);
        assert!(!index.cells[crowd_cell].tcell_list.is_empty());
        // Cells of the crowd the new task's window cannot be made from stay
        // parked.
        assert!(parked_cells(&index) > 0);
    }

    #[test]
    fn a_rewind_unparks_everything() {
        let mut index = short_task_and_far_crowd();
        index.set_depart_at(0.1);
        index.refresh();
        assert!(parked_cells(&index) > 0);
        churn_the_crowd(&mut index, 2);
        index.set_depart_at(0.0);
        let repaired = index.refresh();
        assert_eq!(parked_cells(&index), 0);
        assert_eq!(repaired, index.occupied_worker_cells.as_slice().len());
        assert_eq!(
            pair_set(&index.retrieve_valid_pairs()),
            pair_set(&index.retrieve_valid_pairs_bruteforce()),
        );
    }

    #[test]
    fn a_faster_worker_checking_in_widens_the_speed_bound_and_unparks() {
        let mut index = short_task_and_far_crowd();
        index.refresh();
        let crowd_cells = parked_cells(&index);
        assert!(crowd_cells > 0);
        let before = index.maintenance_counters();
        // Far from the task and from the crowd, but fast enough to put the
        // whole space within the bound's reach of the task.
        index.insert_worker(worker(200, 0.95, 0.05, 10.0));
        let pairs = index.retrieve_valid_pairs();
        assert_eq!(parked_cells(&index), 0);
        let delta = index.maintenance_counters().delta_since(&before);
        assert_eq!(delta.tcell_rebuilds as usize, crowd_cells + 1);
        assert_eq!(
            pair_set(&pairs),
            vec![(TaskId(0), WorkerId(100)), (TaskId(0), WorkerId(200))]
        );
    }

    #[test]
    fn expired_tasks_are_reported_sorted() {
        let mut index = FlatGridIndex::new(Rect::unit(), 0.25);
        index.insert_task(task(2, 0.1, 0.1, 0.0, 0.5));
        index.insert_task(task(0, 0.2, 0.2, 0.0, 5.0));
        index.insert_task(task(1, 0.3, 0.3, 0.0, 0.5));
        assert!(index.expired_tasks(0.0).is_empty());
        assert_eq!(index.expired_tasks(1.0), vec![TaskId(1), TaskId(2)]);
    }
}
