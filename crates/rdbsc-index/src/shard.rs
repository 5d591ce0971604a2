//! Spatial sharding: decomposing the live index into independent
//! sub-problems.
//!
//! Two cells interact only when some worker of one can reach some task of
//! the other, i.e. when the target cell appears in the source cell's
//! `tcell_list`. The connected components of that reachability relation
//! therefore partition the instance into sub-problems that share **no valid
//! pair**: an assignment computed inside one shard can never conflict with,
//! or influence the objective of, another shard. The online engine solves
//! shards in parallel and merges the per-shard assignments back.
//!
//! Components containing only tasks (no worker can reach them) or only
//! workers (nothing for them to serve) are dropped: they contribute no valid
//! pair, so dropping them is lossless and shrinks the solve further.
//!
//! The extraction is written once against the backend-shared cell-topology
//! view (`crate::topology`), so every [`crate::SpatialIndex`] backend
//! produces the *identical* shard decomposition for the same live state —
//! the determinism guarantee the parallel engine's reproducibility rests on.

use crate::grid::GridIndex;
use crate::topology::{for_each_cell_pruned_pair, CellTopology, PairScratch};
use rdbsc_model::instance::SubInstanceMapping;
use rdbsc_model::valid_pairs::{BipartiteCandidates, ValidPair};
use rdbsc_model::{ProblemInstance, Task, TaskId, Worker, WorkerId};

/// One independent sub-problem extracted from the live index.
#[derive(Debug, Clone)]
pub struct ProblemShard {
    /// The shard as a dense, self-contained instance (ids re-numbered).
    pub instance: ProblemInstance,
    /// Mapping from the shard's dense ids back to the live ids.
    pub mapping: SubInstanceMapping,
    /// The shard's valid pairs (in shard-local dense ids), retrieved with
    /// cell-level pruning while the shard was extracted.
    pub candidates: BipartiteCandidates,
}

impl ProblemShard {
    /// Number of tasks in the shard.
    pub fn num_tasks(&self) -> usize {
        self.instance.num_tasks()
    }

    /// Number of workers in the shard.
    pub fn num_workers(&self) -> usize {
        self.instance.num_workers()
    }

    /// Number of valid pairs in the shard.
    pub fn num_pairs(&self) -> usize {
        self.candidates.num_pairs()
    }
}

/// Union-find over cell indices with path halving. Kept in the index's
/// scratch between extractions: every call leaves it all-singleton again by
/// resetting the cells it touched, so a tick pays for the cells in play, not
/// for the grid.
#[derive(Debug, Clone, Default)]
pub(crate) struct DisjointSets {
    parent: Vec<usize>,
}

impl DisjointSets {
    /// Sizes the forest for `n` cells (a no-op after the first call).
    fn ensure_cells(&mut self, n: usize) {
        if self.parent.len() != n {
            self.parent = (0..n).collect();
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller cell index wins the root.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }

    fn reset(&mut self, x: usize) {
        self.parent[x] = x;
    }
}

/// The backend-shared extraction body. The caller must have refreshed the
/// index (fresh `tcell_list`s).
pub(crate) fn extract_shards_via<C: CellTopology + ?Sized>(
    index: &C,
    beta: f64,
    scratch: &mut PairScratch,
) -> Vec<ProblemShard> {
    let PairScratch {
        objects,
        worker_cells,
        components,
    } = scratch;
    worker_cells.clear();
    index.fill_worker_cells(worker_cells);
    components.ensure_cells(index.num_cells());
    for &i in worker_cells.iter() {
        for &j in index.tcell_list_of(i) {
            components.union(i, j);
        }
    }

    // Group worker cells by component root (ascending root, then ascending
    // cell); only components with both kinds of cells can produce valid
    // pairs.
    let mut rooted_cells: Vec<(usize, usize)> = worker_cells
        .iter()
        .filter(|&&i| !index.tcell_list_of(i).is_empty())
        .map(|&i| (components.find(i), i))
        .collect();
    rooted_cells.sort_unstable();
    for &i in worker_cells.iter() {
        components.reset(i);
        for &j in index.tcell_list_of(i) {
            components.reset(j);
        }
    }

    let mut shards = Vec::new();
    for component in rooted_cells.chunk_by(|a, b| a.0 == b.0) {
        let cells: Vec<usize> = component.iter().map(|&(_, cell)| cell).collect();

        let mut worker_ids: Vec<WorkerId> = cells
            .iter()
            .flat_map(|&i| index.worker_ids_of(i).iter().copied())
            .collect();
        worker_ids.sort_unstable();

        // The component's task cells are exactly the union of its worker
        // cells' tcell_lists (a task cell outside every tcell_list is
        // unreachable and belongs to no shard).
        let mut task_cells: Vec<usize> = cells
            .iter()
            .flat_map(|&i| index.tcell_list_of(i).iter().copied())
            .collect();
        task_cells.sort_unstable();
        task_cells.dedup();

        let mut task_ids: Vec<TaskId> = task_cells
            .iter()
            .flat_map(|&j| index.task_ids_of(j).iter().copied())
            .collect();
        task_ids.sort_unstable();

        let tasks: Vec<Task> = task_ids.iter().map(|id| index.task_by_id(*id)).collect();
        let workers: Vec<Worker> = worker_ids
            .iter()
            .map(|id| index.worker_by_id(*id))
            .collect();
        let mut instance = ProblemInstance::new(tasks, workers, beta);
        instance.depart_at = index.depart_at();
        instance.allow_wait = index.allow_wait();

        // Cell-pruned pair retrieval, re-expressed in shard-local ids: a
        // live id's local id is its position in the ascending id list.
        let mut candidates =
            BipartiteCandidates::with_capacity(instance.num_tasks(), instance.num_workers());
        for_each_cell_pruned_pair(index, &cells, objects, |task, worker, contribution| {
            let local_task = task_ids.binary_search(&task.id).expect("task of the shard");
            let local_worker = worker_ids
                .binary_search(&worker.id)
                .expect("worker of the shard");
            candidates.push(ValidPair {
                task: TaskId::from(local_task),
                worker: WorkerId::from(local_worker),
                contribution,
            });
        });

        shards.push(ProblemShard {
            instance,
            mapping: SubInstanceMapping {
                tasks: task_ids,
                workers: worker_ids,
            },
            candidates,
        });
    }
    shards
}

impl GridIndex {
    /// Partitions the live instance into independent spatial shards: the
    /// connected components of the cell-reachability relation, each packaged
    /// as a dense sub-instance with its valid pairs.
    ///
    /// Shards are returned in deterministic order (ascending minimal cell
    /// index) with tasks and workers in ascending live-id order, so repeated
    /// extraction over the same state — with *any* backend — yields identical
    /// output.
    pub fn extract_shards(&mut self, beta: f64) -> Vec<ProblemShard> {
        self.refresh_tcell_lists();
        crate::topology::with_scratch(self, |index, scratch| {
            extract_shards_via(index, beta, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_geo::{AngleRange, Point, Rect};
    use rdbsc_model::{Confidence, TimeWindow};

    fn task(id: u32, x: f64, y: f64) -> Task {
        Task::new(
            TaskId(id),
            Point::new(x, y),
            TimeWindow::new(0.0, 1.0).unwrap(),
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

    /// Two well-separated clusters of slow workers and near tasks: the
    /// extraction must produce two shards that partition the valid pairs.
    #[test]
    fn separated_clusters_become_separate_shards() {
        let mut index = GridIndex::new(Rect::unit(), 0.1);
        // Cluster A near (0.1, 0.1); cluster B near (0.9, 0.9). Speeds are
        // low enough that neither cluster can reach the other within the
        // 1-minute task windows.
        index.insert_task(task(0, 0.10, 0.12));
        index.insert_task(task(1, 0.14, 0.10));
        index.insert_worker(worker(0, 0.08, 0.08, 0.1));
        index.insert_worker(worker(1, 0.12, 0.14, 0.1));
        index.insert_task(task(2, 0.90, 0.88));
        index.insert_worker(worker(2, 0.92, 0.92, 0.1));
        // An unreachable task floating alone — must not appear in any shard.
        index.insert_task(task(3, 0.5, 0.02));

        let shards = index.extract_shards(0.5);
        assert_eq!(shards.len(), 2);
        let sizes: Vec<(usize, usize)> = shards
            .iter()
            .map(|s| (s.num_tasks(), s.num_workers()))
            .collect();
        assert_eq!(sizes, vec![(2, 2), (1, 1)]);

        // Per-shard candidates together equal the global retrieval.
        let global = index.retrieve_valid_pairs();
        let mut global_pairs: Vec<(TaskId, WorkerId)> =
            global.pairs.iter().map(|p| (p.task, p.worker)).collect();
        global_pairs.sort();
        let mut shard_pairs: Vec<(TaskId, WorkerId)> = shards
            .iter()
            .flat_map(|s| {
                s.candidates
                    .pairs
                    .iter()
                    .map(|p| (s.mapping.task(p.task), s.mapping.worker(p.worker)))
            })
            .collect();
        shard_pairs.sort();
        assert_eq!(shard_pairs, global_pairs);
    }

    #[test]
    fn one_fast_worker_merges_everything_into_one_shard() {
        let mut index = GridIndex::new(Rect::unit(), 0.1);
        index.insert_task(task(0, 0.1, 0.1));
        index.insert_task(task(1, 0.9, 0.9));
        index.insert_worker(worker(0, 0.5, 0.5, 5.0));
        let shards = index.extract_shards(0.5);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].num_tasks(), 2);
        assert_eq!(shards[0].num_workers(), 1);
        assert_eq!(shards[0].num_pairs(), 2);
    }

    #[test]
    fn extraction_is_deterministic() {
        let build = || {
            let mut index = GridIndex::new(Rect::unit(), 0.2);
            for i in 0..20 {
                index.insert_task(task(i, (i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0));
            }
            for j in 0..20 {
                index.insert_worker(worker(
                    j,
                    (j as f64 * 0.53) % 1.0,
                    (j as f64 * 0.29) % 1.0,
                    0.2,
                ));
            }
            index.extract_shards(0.5)
        };
        let a = build();
        let b = build();
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(b.iter()) {
            assert_eq!(sa.mapping.tasks, sb.mapping.tasks);
            assert_eq!(sa.mapping.workers, sb.mapping.workers);
            assert_eq!(sa.num_pairs(), sb.num_pairs());
        }
    }

    #[test]
    fn empty_index_yields_no_shards() {
        let mut index = GridIndex::new(Rect::unit(), 0.25);
        assert!(index.extract_shards(0.5).is_empty());
        index.insert_worker(worker(0, 0.5, 0.5, 0.5));
        assert!(
            index.extract_shards(0.5).is_empty(),
            "worker-only component is dropped"
        );
    }
}
