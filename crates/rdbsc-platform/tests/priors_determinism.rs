//! Regression test for the shard-prep priors fold order.
//!
//! Two workers en route to the *same* task used to append their
//! contributions into that task's priors bucket in the order
//! `self.committed.values()` happened to yield — `HashMap` iteration
//! order, which differs between processes and between two maps built by
//! inserting the same entries in different orders. The bucket feeds
//! order-sensitive float folds in the solver's scoring, so the last-ulp
//! divergence could escape into assignment decisions and break the
//! byte-identity contract between a live engine and one rebuilt by
//! `restore_state` (exactly the replica pair WAL recovery produces).
//!
//! The fix iterates sorted snapshots of `committed` and `banked` during
//! shard prep. This test rebuilds the same logical state with the
//! `committed` and `banked` vectors in several permutations — each
//! permutation populates the engine's hash maps in a different insertion
//! order — and requires the subsequent tick and dumped state to be
//! **exactly equal** (every float compared by value, so any reordering of
//! a fold shows up).

use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::GridIndex;
use rdbsc_model::{Confidence, Contribution, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::engine::EngineState;
use rdbsc_platform::{AssignmentEngine, EngineConfig};

fn task(id: u32, x: f64, y: f64, end: f64) -> Task {
    Task::new(
        TaskId(id),
        Point::new(x, y),
        TimeWindow::new(0.0, end).unwrap(),
    )
}

fn worker(id: u32, x: f64, y: f64) -> Worker {
    Worker::new(
        WorkerId(id),
        Point::new(x, y),
        0.2,
        AngleRange::full(),
        Confidence::new(0.62 + 0.03 * (id % 7) as f64).unwrap(),
    )
    .unwrap()
}

fn contribution(seed: u32) -> Contribution {
    // Varied magnitudes so float folds over these are order-sensitive:
    // summing them in a different order genuinely changes the last ulp.
    let seed = seed as u64;
    Contribution::new(
        Confidence::new(0.5 + 0.37 * ((seed * 2_654_435_761) % 1000) as f64 / 1000.0).unwrap(),
        0.001 + 6.0 * ((seed * 40_503) % 997) as f64 / 997.0,
        0.05 + 1.7 * ((seed * 9_973) % 991) as f64 / 991.0,
    )
}

/// The shared logical state: five tasks, five free workers near them, and
/// six committed workers — four of them en route to the *same* task so its
/// priors bucket holds a multi-element float fold.
fn base_state() -> EngineState {
    let tasks: Vec<Task> = (0..5)
        .map(|i| task(i, 0.1 + 0.2 * i as f64, 0.5, 4.0))
        .collect();
    let mut workers: Vec<Worker> = (0..5)
        .map(|i| worker(i, 0.1 + 0.2 * i as f64, 0.45))
        .collect();
    // The committed (en-route) workers are live too.
    for i in 10..16 {
        workers.push(worker(i, 0.05 * (i - 10) as f64, 0.9));
    }
    let committed: Vec<(WorkerId, TaskId, Contribution)> = vec![
        (WorkerId(10), TaskId(2), contribution(1)),
        (WorkerId(11), TaskId(2), contribution(2)),
        (WorkerId(12), TaskId(2), contribution(3)),
        (WorkerId(13), TaskId(2), contribution(4)),
        (WorkerId(14), TaskId(0), contribution(5)),
        (WorkerId(15), TaskId(4), contribution(6)),
    ];
    let banked: Vec<(TaskId, Vec<Contribution>)> = vec![
        (TaskId(1), vec![contribution(7), contribution(8)]),
        (TaskId(2), vec![contribution(9)]),
        (
            TaskId(3),
            vec![contribution(10), contribution(11), contribution(12)],
        ),
    ];
    EngineState {
        depart_at: 0.0,
        allow_wait: true,
        tasks,
        workers,
        pending: Vec::new(),
        committed,
        banked,
        retired: Vec::new(),
        tick_count: 3,
    }
}

/// Restores an engine from `state` with its `committed`/`banked` vectors
/// permuted by `rotation` — same logical state, different hash-map
/// insertion order.
fn restore_permuted(rotation: usize) -> AssignmentEngine {
    let mut state = base_state();
    let committed_rot = rotation % state.committed.len();
    state.committed.rotate_left(committed_rot);
    let banked_rot = rotation % state.banked.len();
    state.banked.rotate_left(banked_rot);
    if rotation % 2 == 1 {
        state.committed.reverse();
        state.banked.reverse();
    }
    AssignmentEngine::restore_state(
        GridIndex::new(Rect::unit(), 0.1),
        EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        },
        state,
    )
}

#[test]
fn priors_fold_is_insertion_order_independent() {
    let mut reference = restore_permuted(0);
    let reference_report = reference.tick(0.5);
    let reference_objective = reference.current_objective();
    let reference_dump = reference.dump_state();
    assert!(
        !reference_report.new_assignments.is_empty(),
        "the scenario must exercise the solver for the test to mean anything"
    );

    for rotation in 1..6 {
        let mut engine = restore_permuted(rotation);
        let report = engine.tick(0.5);
        assert_eq!(
            report.new_assignments, reference_report.new_assignments,
            "tick output diverged at rotation {rotation}"
        );
        assert_eq!(
            engine.current_objective(),
            reference_objective,
            "objective diverged at rotation {rotation}"
        );
        assert_eq!(
            engine.dump_state(),
            reference_dump,
            "dumped state diverged at rotation {rotation}"
        );
    }
}

/// The dump/restore round trip itself must be insensitive to the insertion
/// order of the maps it serializes: dumping any permutation yields the one
/// canonical (sorted) state.
#[test]
fn dump_state_is_canonical_across_insertion_orders() {
    let reference = restore_permuted(0).dump_state();
    for rotation in 1..6 {
        assert_eq!(restore_permuted(rotation).dump_state(), reference);
    }
}
