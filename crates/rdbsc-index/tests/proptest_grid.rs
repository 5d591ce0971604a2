//! Property test for incremental grid maintenance: any sequence of task and
//! worker inserts, removals and relocations must leave the index in exactly
//! the state a fresh rebuild from the surviving objects would produce — the
//! same valid-pair retrieval, the same statistics, and retrieval must agree
//! with brute force throughout.

use proptest::prelude::*;
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::GridIndex;
use rdbsc_model::{Confidence, ProblemInstance, Task, TaskId, TimeWindow, Worker, WorkerId};

/// One scripted maintenance operation, decoded from generated floats so the
/// whole script is a plain proptest strategy.
#[derive(Debug, Clone, Copy)]
enum Op {
    InsertTask {
        id: u32,
        x: f64,
        y: f64,
        start: f64,
        len: f64,
    },
    RemoveTask {
        id: u32,
    },
    RelocateTask {
        id: u32,
        x: f64,
        y: f64,
    },
    InsertWorker {
        id: u32,
        x: f64,
        y: f64,
        speed: f64,
        heading: f64,
        width: f64,
    },
    RemoveWorker {
        id: u32,
    },
    RelocateWorker {
        id: u32,
        x: f64,
        y: f64,
    },
}

fn decode(kind: usize, id: u32, a: f64, b: f64, c: f64, d: f64) -> Op {
    match kind % 6 {
        0 => Op::InsertTask {
            id,
            x: a,
            y: b,
            start: 2.0 * c,
            len: 0.2 + 3.0 * d,
        },
        1 => Op::RemoveTask { id },
        2 => Op::RelocateTask { id, x: a, y: b },
        3 => Op::InsertWorker {
            id,
            x: a,
            y: b,
            speed: 0.05 + 0.5 * c,
            heading: std::f64::consts::TAU * d,
            width: 0.3 + 5.0 * c,
        },
        4 => Op::RemoveWorker { id },
        _ => Op::RelocateWorker { id, x: a, y: b },
    }
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0usize..6,
            0u32..8, // small id space so removes/relocates hit live objects
            0.0f64..1.0,
            0.0f64..1.0,
            0.0f64..1.0,
            0.0f64..1.0,
        ),
        1..=max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, id, a, b, c, d)| decode(kind, id, a, b, c, d))
            .collect()
    })
}

fn apply(index: &mut GridIndex, op: Op) {
    match op {
        Op::InsertTask {
            id,
            x,
            y,
            start,
            len,
        } => index.insert_task(Task::new(
            TaskId(id),
            Point::new(x, y),
            TimeWindow::new(start, start + len).unwrap(),
        )),
        Op::RemoveTask { id } => index.remove_task(TaskId(id)),
        Op::RelocateTask { id, x, y } => index.relocate_task(TaskId(id), Point::new(x, y)),
        Op::InsertWorker {
            id,
            x,
            y,
            speed,
            heading,
            width,
        } => index.insert_worker(
            Worker::new(
                WorkerId(id),
                Point::new(x, y),
                speed,
                AngleRange::new(heading, width),
                Confidence::new(0.9).unwrap(),
            )
            .unwrap(),
        ),
        Op::RemoveWorker { id } => index.remove_worker(WorkerId(id)),
        Op::RelocateWorker { id, x, y } => index.relocate_worker(WorkerId(id), Point::new(x, y)),
    }
}

fn pair_set(index: &mut GridIndex) -> Vec<(TaskId, WorkerId)> {
    let mut pairs: Vec<(TaskId, WorkerId)> = index
        .retrieve_valid_pairs()
        .pairs
        .iter()
        .map(|p| (p.task, p.worker))
        .collect();
    pairs.sort();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incrementally maintained index equals a fresh rebuild after any
    /// operation sequence.
    #[test]
    fn incremental_maintenance_equals_fresh_rebuild(ops in ops_strategy(40), eta in 0.05f64..0.4) {
        let mut incremental = GridIndex::new(Rect::unit(), eta);
        for op in &ops {
            apply(&mut incremental, *op);
        }

        // Fresh rebuild from the surviving live objects.
        let mut tasks: Vec<Task> = incremental.tasks().copied().collect();
        tasks.sort_by_key(|t| t.id);
        let mut workers: Vec<Worker> = incremental.workers().copied().collect();
        workers.sort_by_key(|w| w.id);
        let mut fresh = GridIndex::new(Rect::unit(), eta);
        for t in &tasks {
            fresh.insert_task(*t);
        }
        for w in &workers {
            fresh.insert_worker(*w);
        }

        // Identical statistics...
        incremental.refresh_tcell_lists();
        fresh.refresh_tcell_lists();
        let a = incremental.stats();
        let b = fresh.stats();
        prop_assert_eq!(a.num_tasks, b.num_tasks);
        prop_assert_eq!(a.num_workers, b.num_workers);
        prop_assert!((a.avg_tcell_len - b.avg_tcell_len).abs() < 1e-12,
            "avg tcell length diverged: {} vs {}", a.avg_tcell_len, b.avg_tcell_len);
        prop_assert!((a.pruned_fraction - b.pruned_fraction).abs() < 1e-12,
            "pruned fraction diverged: {} vs {}", a.pruned_fraction, b.pruned_fraction);

        // ...identical retrieval...
        let incremental_pairs = pair_set(&mut incremental);
        let fresh_pairs = pair_set(&mut fresh);
        prop_assert_eq!(&incremental_pairs, &fresh_pairs, "retrieval diverged from rebuild");

        // ...and both agree with brute force.
        let mut brute: Vec<(TaskId, WorkerId)> = incremental
            .retrieve_valid_pairs_bruteforce()
            .pairs
            .iter()
            .map(|p| (p.task, p.worker))
            .collect();
        brute.sort();
        prop_assert_eq!(&incremental_pairs, &brute, "retrieval diverged from brute force");
    }

    /// Retrieval stays exact after *every* prefix of the operation sequence
    /// (catches dirty-tracking bugs that a single final check would miss).
    #[test]
    fn every_prefix_retrieves_exactly(ops in ops_strategy(12), eta in 0.08f64..0.3) {
        let mut index = GridIndex::new(Rect::unit(), eta);
        for (step, op) in ops.iter().enumerate() {
            apply(&mut index, *op);
            let with_index = pair_set(&mut index);
            let mut brute: Vec<(TaskId, WorkerId)> = index
                .retrieve_valid_pairs_bruteforce()
                .pairs
                .iter()
                .map(|p| (p.task, p.worker))
                .collect();
            brute.sort();
            prop_assert_eq!(&with_index, &brute, "diverged after step {} ({:?})", step, op);
        }
    }

    /// Sharding always partitions the retrieval: the union of per-shard
    /// candidates equals the global candidate set, with no worker in two
    /// shards.
    #[test]
    fn shards_partition_the_candidates(ops in ops_strategy(30), eta in 0.05f64..0.3) {
        let mut index = GridIndex::new(Rect::unit(), eta);
        for op in &ops {
            apply(&mut index, *op);
        }
        let shards = index.extract_shards(0.5);
        let mut seen_workers = std::collections::HashSet::new();
        for shard in &shards {
            for w in &shard.mapping.workers {
                prop_assert!(seen_workers.insert(*w), "worker {w:?} appears in two shards");
            }
            // Shard instances are coherent with their mappings.
            prop_assert_eq!(shard.instance.num_tasks(), shard.mapping.tasks.len());
            prop_assert_eq!(shard.instance.num_workers(), shard.mapping.workers.len());
        }
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
        let global = pair_set(&mut index);
        prop_assert_eq!(&shard_pairs, &global, "shard candidates must partition the global set");
    }
}

/// Validity of the instances the engine-side restriction builds: shard
/// instances re-number ids densely while preserving the original objects.
#[test]
fn shard_instances_preserve_objects() {
    let mut index = GridIndex::new(Rect::unit(), 0.2);
    for i in 0..10u32 {
        index.insert_task(Task::new(
            TaskId(i),
            Point::new(0.1 + 0.08 * i as f64, 0.5),
            TimeWindow::new(0.0, 5.0).unwrap(),
        ));
    }
    for j in 0..10u32 {
        index.insert_worker(
            Worker::new(
                WorkerId(j),
                Point::new(0.1 + 0.08 * j as f64, 0.45),
                0.3,
                AngleRange::full(),
                Confidence::new(0.9).unwrap(),
            )
            .unwrap(),
        );
    }
    let shards = index.extract_shards(0.5);
    for shard in &shards {
        for (local, live) in shard.mapping.tasks.iter().enumerate() {
            let live_task = index.task(*live).unwrap();
            assert_eq!(shard.instance.tasks[local].location, live_task.location);
            assert_eq!(shard.instance.tasks[local].window, live_task.window);
        }
        shard
            .instance
            .task(TaskId::from(shard.instance.num_tasks() - 1))
            .expect("dense ids");
    }
    // Validate shard instances solve cleanly end to end.
    let instance_check: ProblemInstance = shards[0].instance.clone();
    assert!(instance_check.num_tasks() > 0);
}
