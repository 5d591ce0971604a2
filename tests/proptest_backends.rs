//! Cross-backend determinism property tests: on randomized metro workloads
//! under randomized churn, the two `SpatialIndex` backends must produce
//! **element-wise identical** candidate streams and **identical shard
//! decompositions** at every step. This is the contract the index-generic
//! engine's byte-for-byte reproducibility rests on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc::index::{FlatGridIndex, GridIndex, SpatialIndex};
use rdbsc::prelude::*;
use std::f64::consts::TAU;

/// One scripted churn operation, decoded from plain numbers so the whole
/// script is reproducible from a seed.
#[derive(Debug, Clone, Copy)]
enum Op {
    MoveWorker(u32, f64, f64),
    MoveTask(u32, f64, f64),
    RemoveWorker(u32),
    RemoveTask(u32),
    InsertTask(u32, f64, f64, f64, f64),
    InsertWorker(u32, f64, f64, f64, AngleRange),
    Depart(f64),
}

fn script(seed: u64, len: usize, ids: u32) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..ids);
            let (x, y) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            match rng.gen_range(0..12u32) {
                // Movement-heavy mix: half the script is worker movement.
                0..=5 => Op::MoveWorker(id, x, y),
                6 => Op::MoveTask(id, x, y),
                7 => Op::RemoveWorker(id),
                8 => Op::RemoveTask(id),
                9 => Op::InsertTask(id, x, y, rng.gen_range(0.0..1.0), rng.gen_range(0.5..4.0)),
                10 => Op::InsertWorker(id, x, y, rng.gen_range(0.05..0.6), AngleRange::full()),
                // Departure time only moves forward, as in the engine.
                _ => Op::Depart(rng.gen_range(0.0..2.0)),
            }
        })
        .collect()
}

/// A script in the **time-pruned regime**: task windows of 0.02–0.3 opening
/// around the current time, speeds of 0.05–0.4 (so a worker covers a cell or
/// two before a deadline), heading cones, and a clock creeping forward by at
/// most 0.08 a step. Most worker cells are out of every task's reach most of
/// the time, so the flat index parks and un-parks them as tasks come and go
/// — which the metro script above (windows 0.5–4) never makes it do. The
/// first `population` operations are arrivals.
fn short_reach_script(seed: u64, population: usize, len: usize, ids: u32) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5408);
    let mut now = 0.0f64;
    (0..population + len)
        .map(|step| {
            let id = rng.gen_range(0..ids);
            let (x, y) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let kind = if step < population {
                9 + (step % 3 != 0) as u32 // one task per two workers
            } else {
                rng.gen_range(0..12u32)
            };
            match kind {
                0..=5 => Op::MoveWorker(id, x, y),
                6 => Op::MoveTask(id, x, y),
                7 => Op::RemoveWorker(id),
                8 => Op::RemoveTask(id),
                9 => Op::InsertTask(
                    id,
                    x,
                    y,
                    (now + rng.gen_range(-0.05..0.1)).max(0.0),
                    rng.gen_range(0.02..0.3),
                ),
                10 => Op::InsertWorker(
                    id,
                    x,
                    y,
                    rng.gen_range(0.05..0.4),
                    AngleRange::new(rng.gen_range(0.0..TAU), rng.gen_range(0.5..TAU)),
                ),
                _ => {
                    let step = rng.gen_range(0.0..0.08);
                    now += step;
                    Op::Depart(step)
                }
            }
        })
        .collect()
}

fn apply<I: SpatialIndex>(index: &mut I, op: Op, now: &mut f64) {
    match op {
        Op::MoveWorker(id, x, y) => index.relocate_worker(WorkerId(id), Point::new(x, y)),
        Op::MoveTask(id, x, y) => index.relocate_task(TaskId(id), Point::new(x, y)),
        Op::RemoveWorker(id) => index.remove_worker(WorkerId(id)),
        Op::RemoveTask(id) => index.remove_task(TaskId(id)),
        Op::InsertTask(id, x, y, start, len) => index.insert_task(Task::new(
            TaskId(id),
            Point::new(x, y),
            TimeWindow::new(start, start + len).unwrap(),
        )),
        Op::InsertWorker(id, x, y, speed, heading) => index.insert_worker(
            Worker::new(
                WorkerId(id),
                Point::new(x, y),
                speed,
                heading,
                Confidence::new(0.9).unwrap(),
            )
            .unwrap(),
        ),
        Op::Depart(step) => {
            *now += step;
            index.set_depart_at(*now);
        }
    }
}

/// `(task, worker)` pairs of a candidate graph, *in emission order* — the
/// backends must agree on the order, not just the set.
fn pair_stream(graph: &BipartiteCandidates) -> Vec<(TaskId, WorkerId)> {
    graph.pairs.iter().map(|p| (p.task, p.worker)).collect()
}

type ShardFingerprint = (Vec<TaskId>, Vec<WorkerId>, Vec<(TaskId, WorkerId)>);

fn shard_fingerprint(shards: &[rdbsc::index::ProblemShard]) -> Vec<ShardFingerprint> {
    shards
        .iter()
        .map(|s| {
            (
                s.mapping.tasks.clone(),
                s.mapping.workers.clone(),
                s.candidates
                    .pairs
                    .iter()
                    .map(|p| (p.task, p.worker))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Candidate retrieval and shard extraction agree element-wise between
    /// the backends after every churn step of a randomized metro workload.
    #[test]
    fn backends_agree_on_candidates_and_shards(
        seed in 0u64..1_000,
        eta in 0.06f64..0.35,
        steps in 1usize..40,
    ) {
        let config = MetroConfig::default().with_tasks(40).with_workers(60);
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = generate_metro_instance(&config, &mut rng);
        let mut grid = GridIndex::from_instance_with_eta(&instance, eta);
        let mut flat = FlatGridIndex::from_instance_with_eta(&instance, eta);

        let ops = script(seed, steps, 70);
        let mut now_grid = 0.0;
        let mut now_flat = 0.0;
        for (step, op) in ops.iter().enumerate() {
            apply(&mut grid, *op, &mut now_grid);
            apply(&mut flat, *op, &mut now_flat);

            let grid_pairs = grid.retrieve_valid_pairs();
            let flat_pairs = SpatialIndex::retrieve_valid_pairs(&mut flat);
            prop_assert_eq!(
                pair_stream(&grid_pairs),
                pair_stream(&flat_pairs),
                "candidate streams diverged after step {} ({:?})",
                step,
                op
            );
            // Against ground truth too: both equal brute force as a set.
            let mut indexed = pair_stream(&grid_pairs);
            indexed.sort();
            let mut brute = pair_stream(&grid.retrieve_valid_pairs_bruteforce());
            brute.sort();
            prop_assert_eq!(indexed, brute, "pruning lost a pair at step {}", step);
        }

        // Shard decompositions are identical: same components, same dense
        // instances, same per-shard candidate order.
        let grid_shards = grid.extract_shards(0.5);
        let flat_shards = SpatialIndex::extract_shards(&mut flat, 0.5);
        prop_assert_eq!(
            shard_fingerprint(&grid_shards),
            shard_fingerprint(&flat_shards)
        );
    }

    /// The maintenance counters stay coherent on both backends: relocations
    /// never exceed the number of move operations issued, and an idle
    /// refresh repairs nothing.
    #[test]
    fn maintenance_counters_are_coherent(seed in 0u64..1_000, steps in 1usize..30) {
        let config = MetroConfig::default().with_tasks(20).with_workers(30);
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = generate_metro_instance(&config, &mut rng);
        let mut grid = GridIndex::from_instance_with_eta(&instance, 0.2);
        let mut flat = FlatGridIndex::from_instance_with_eta(&instance, 0.2);

        let ops = script(seed, steps, 35);
        let moves = ops
            .iter()
            .filter(|op| matches!(op, Op::MoveWorker(..) | Op::MoveTask(..)))
            .count() as u64;
        let (mut ng, mut nf) = (0.0, 0.0);
        for op in &ops {
            apply(&mut grid, *op, &mut ng);
            apply(&mut flat, *op, &mut nf);
        }
        grid.refresh_tcell_lists();
        SpatialIndex::refresh(&mut flat);
        for counters in [grid.maintenance_counters(), SpatialIndex::maintenance_counters(&flat)] {
            prop_assert!(counters.relocations <= moves);
            prop_assert!(counters.cells_repaired >= counters.tcell_rebuilds);
        }
        // Idle refreshes repair nothing further.
        prop_assert_eq!(grid.refresh_tcell_lists(), 0);
        prop_assert_eq!(SpatialIndex::refresh(&mut flat), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same agreement in the time-pruned regime, with the **shard
    /// decomposition compared after every step**: a reachability list that
    /// differs between the backends without changing the candidate stream
    /// (an entry the exact check filters anyway) still moves a component
    /// boundary. This is the test that fails if the flat index parks a cell
    /// whose list is non-empty.
    #[test]
    fn backends_agree_step_by_step_when_reach_is_short(
        seed in 0u64..100_000,
        eta in 0.03f64..0.15,
        steps in 1usize..120,
    ) {
        let mut grid = GridIndex::new(Rect::unit(), eta);
        let mut flat = FlatGridIndex::new(Rect::unit(), eta);
        let population = 60;
        let ops = short_reach_script(seed, population, steps, 50);
        let mut now_grid = 0.0;
        let mut now_flat = 0.0;
        for (step, op) in ops.iter().enumerate() {
            apply(&mut grid, *op, &mut now_grid);
            apply(&mut flat, *op, &mut now_flat);
            if step + 1 < population {
                continue;
            }
            prop_assert_eq!(
                pair_stream(&grid.retrieve_valid_pairs()),
                pair_stream(&SpatialIndex::retrieve_valid_pairs(&mut flat)),
                "candidate streams diverged after step {} ({:?})",
                step,
                op
            );
            prop_assert_eq!(
                shard_fingerprint(&grid.extract_shards(0.5)),
                shard_fingerprint(&SpatialIndex::extract_shards(&mut flat, 0.5)),
                "shard decompositions diverged after step {} ({:?})",
                step,
                op
            );
        }
    }
}
