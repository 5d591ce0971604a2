//! Property tests for the region-partitioned multi-engine layer.
//!
//! Two contracts (see `rdbsc_platform::partition`):
//!
//! 1. **Single-partition byte-identity** — a `PartitionedEngine` with one
//!    region is indistinguishable from a plain `AssignmentEngine` fed the
//!    identical event stream: same per-tick assignments, same event
//!    accounting, same standing state — commitments, objective bits, index
//!    counters, lifetime counters — under randomized metro churn (arrivals,
//!    expirations, check-ins, moves, leaves, answers, releases).
//! 2. **Handoff conservation** — workers oscillating across a partition
//!    boundary every step are never lost, never duplicated (resident in
//!    exactly one engine once queues drain), and never double-committed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc::cluster::RegionPartition;
use rdbsc::index::geometry::GridGeometry;
use rdbsc::platform::engine::{AssignmentEngine, EngineConfig, EngineEvent};
use rdbsc::platform::PartitionedEngine;
use rdbsc::prelude::*;

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

fn task(id: u32, x: f64, y: f64, start: f64, end: f64) -> Task {
    Task::new(
        TaskId(id),
        Point::new(x, y),
        TimeWindow::new(start, end).unwrap(),
    )
}

/// One tick's worth of randomized metro-style churn: a polycentric position
/// distribution (four city centres) with moves, arrivals, expirations,
/// check-ins and check-outs over a bounded id space.
fn churn_events(rng: &mut StdRng, now: f64, ids: u32, per_tick: usize) -> Vec<EngineEvent> {
    const CENTERS: [(f64, f64); 4] = [(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)];
    let place = |rng: &mut StdRng| {
        let (cx, cy) = CENTERS[rng.gen_range(0..CENTERS.len())];
        (
            (cx + rng.gen_range(-0.08..0.08f64)).clamp(0.0, 1.0),
            (cy + rng.gen_range(-0.08..0.08f64)).clamp(0.0, 1.0),
        )
    };
    (0..per_tick)
        .map(|_| {
            let id = rng.gen_range(0..ids);
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    let (x, y) = place(rng);
                    EngineEvent::WorkerMoved(WorkerId(id), Point::new(x, y))
                }
                4..=5 => {
                    let (x, y) = place(rng);
                    EngineEvent::WorkerCheckIn(worker(id, x, y, rng.gen_range(0.05..0.4)))
                }
                6..=7 => {
                    let (x, y) = place(rng);
                    let length = rng.gen_range(0.3..2.0);
                    EngineEvent::TaskArrived(task(id, x, y, now, now + length))
                }
                8 => EngineEvent::TaskExpired(TaskId(id)),
                _ => EngineEvent::WorkerLeft(WorkerId(id)),
            }
        })
        .collect()
}

/// The serving state a one-region `PartitionedEngine` reports against the
/// plain engine's own: who is en route, the objective to the bit, the index
/// counters, and the lifetime event / assignment totals (`applied` /
/// `assigned`, summed from the plain engine's tick reports).
fn assert_same_serving_state(
    plain: &AssignmentEngine<GridIndex>,
    split: &mut PartitionedEngine,
    ids: u32,
    (applied, assigned): (u64, u64),
    when: &str,
) -> Result<(), TestCaseError> {
    for id in 0..ids {
        let id = WorkerId(id);
        prop_assert_eq!(
            plain.is_committed(id),
            split.is_committed(id),
            "{} {:?}",
            when,
            id
        );
    }
    let snapshot = split.snapshot();
    let (want, got) = (plain.current_objective(), snapshot.objective);
    prop_assert_eq!(
        want.min_reliability.to_bits(),
        got.min_reliability.to_bits(),
        "{} min reliability",
        when
    );
    prop_assert_eq!(
        want.total_std.to_bits(),
        got.total_std.to_bits(),
        "{} total std",
        when
    );
    prop_assert_eq!(want.covered_tasks, got.covered_tasks, "{} covered", when);
    prop_assert_eq!(
        plain.index().maintenance_counters(),
        snapshot.index_counters,
        "{} index counters",
        when
    );
    prop_assert_eq!(applied, snapshot.events_applied, "{} events applied", when);
    prop_assert_eq!(assigned, snapshot.total_assignments, "{} assignments", when);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1: one partition == the plain engine, byte for byte.
    #[test]
    fn single_partition_is_byte_identical_to_the_plain_engine(
        seed in 0u64..1_000,
        eta in 0.08f64..0.3,
        ticks in 2usize..7,
    ) {
        let geometry = GridGeometry::new(Rect::unit(), eta);
        let partition = RegionPartition::single(geometry);
        // Both engines index the *same* rectangle (the single region's), so
        // any float fuzz in the region rect affects both sides equally.
        let rect = partition.region_rect(0);
        let config = EngineConfig { seed, ..EngineConfig::default() };
        let mut plain = AssignmentEngine::new(GridIndex::new(rect, eta), config.clone());
        let mut split = PartitionedEngine::build(partition, config, |r| {
            GridIndex::new(r, eta)
        });

        const IDS: u32 = 24;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7);
        let mut totals = (0u64, 0u64);
        for round in 0..ticks {
            let now = round as f64 * 0.25;
            let events = churn_events(&mut rng, now, IDS, 16);
            plain.submit_all(events.clone());
            split.submit_all(events);

            let a = plain.tick(now);
            let b = split.tick(now);
            totals.0 += a.events_applied as u64;
            totals.1 += a.new_assignments.len() as u64;
            prop_assert_eq!(&a.new_assignments, &b.new_assignments, "round {}", round);
            prop_assert_eq!(a.events_applied, b.events_applied, "round {}", round);
            prop_assert_eq!(a.tasks_expired, b.tasks_expired, "round {}", round);
            prop_assert_eq!(&a.strategies, &b.strategies, "round {}", round);
            prop_assert_eq!(
                plain.committed_assignments(),
                split.committed_assignments(),
                "round {}", round
            );

            let when = format!("round {round}");
            assert_same_serving_state(&plain, &mut split, IDS, totals, &when)?;

            // Answer a deterministic prefix of the new pairs on both sides.
            for pair in a.new_assignments.iter().take(3) {
                prop_assert_eq!(
                    plain.record_answer(pair.worker, pair.contribution),
                    split.record_answer(pair.worker, pair.contribution)
                );
            }
            assert_same_serving_state(&plain, &mut split, IDS, totals, &format!("{when} answered"))?;

            // Release every other remaining new pair: those workers give up.
            for pair in a.new_assignments.iter().skip(3).step_by(2) {
                plain.release_worker(pair.worker);
                split.release_worker(pair.worker);
            }
            assert_same_serving_state(&plain, &mut split, IDS, totals, &format!("{when} released"))?;
        }

        prop_assert_eq!(split.handoffs(), 0, "one region cannot hand off");
        let snapshot = split.snapshot();
        prop_assert_eq!(snapshot.live_tasks, plain.num_tasks());
        prop_assert_eq!(snapshot.live_workers, plain.num_workers());
        prop_assert_eq!(snapshot.committed_workers, plain.num_committed());
        prop_assert_eq!(snapshot.banked_answers, plain.num_banked_answers());
        prop_assert_eq!(snapshot.ticks, plain.num_ticks());
    }

    /// Contract 2: boundary-oscillating workers are conserved — exactly one
    /// resident engine per live worker, no duplicated or double-committed
    /// worker, answers always bankable.
    #[test]
    fn oscillating_workers_are_never_lost_duplicated_or_double_committed(
        seed in 0u64..1_000,
        workers in 2u32..10,
        ticks in 3usize..9,
    ) {
        let geometry = GridGeometry::new(Rect::unit(), 0.1);
        let partition = RegionPartition::uniform(geometry, 2);
        let mut split = PartitionedEngine::build(partition, EngineConfig {
            seed,
            ..EngineConfig::default()
        }, |rect| FlatGridIndex::new(rect, 0.1));

        let mut rng = StdRng::seed_from_u64(seed ^ 0x05c);
        // Tasks on both sides of the vertical boundary at x = 0.5, long
        // windows so commitments stay standing across the oscillation.
        for id in 0..6u32 {
            let x = if id % 2 == 0 { 0.3 } else { 0.7 };
            split.submit(EngineEvent::TaskArrived(task(
                id, x, 0.3 + 0.1 * (id / 2) as f64, 0.0, 100.0,
            )));
        }
        for id in 0..workers {
            split.submit(EngineEvent::WorkerCheckIn(worker(id, 0.45, 0.5, 0.2)));
        }

        for round in 0..ticks {
            let now = round as f64 * 0.3;
            // Every worker crosses the boundary every round (some twice, so
            // the handoff also resolves intra-window oscillation).
            for id in 0..workers {
                let flip = if round % 2 == 0 { 0.55 } else { 0.45 };
                split.submit(EngineEvent::WorkerMoved(
                    WorkerId(id),
                    Point::new(flip + rng.gen_range(-0.03..0.03), 0.5),
                ));
                if rng.gen_range(0..4u32) == 0 {
                    split.submit(EngineEvent::WorkerMoved(
                        WorkerId(id),
                        Point::new(1.0 - flip, 0.5),
                    ));
                }
            }
            let report = split.tick(now);

            // Residency: every worker lives in exactly one engine.
            for id in 0..workers {
                let holding = split.partitions_holding(WorkerId(id));
                prop_assert_eq!(
                    holding.len(), 1,
                    "worker {} resident in partitions {:?} after round {}",
                    id, holding, round
                );
            }
            // Commitments: no worker is committed twice across partitions.
            let pairs = split.committed_assignments();
            let mut seen = std::collections::HashSet::new();
            for pair in &pairs {
                prop_assert!(
                    seen.insert(pair.worker),
                    "worker {:?} double-committed after round {}", pair.worker, round
                );
                prop_assert!(split.is_committed(pair.worker));
            }
            // Conservation in the merged snapshot.
            let snapshot = split.snapshot();
            prop_assert_eq!(snapshot.live_workers, workers as usize);
            prop_assert_eq!(snapshot.committed_workers, pairs.len());

            // Answer everything new so workers free up (and deferred
            // handoffs fire) before the next oscillation.
            for pair in &report.new_assignments {
                prop_assert!(
                    split.record_answer(pair.worker, pair.contribution),
                    "a reported assignment must be bankable"
                );
            }
        }
        prop_assert!(split.handoffs() > 0, "the oscillation must hand off");
    }
}
