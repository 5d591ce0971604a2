//! Property test for the determinism contract **over the wire**: under
//! randomized metro churn, a mixed local/remote topology (one region on a
//! real `rdbsc-partitiond` daemon over loopback, on the pipelined binary
//! frame transport) produces output byte-identical to the
//! all-in-process router on the same event stream — and a single *remote*
//! partition is byte-identical to the plain engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_cluster::RegionPartition;
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::FlatGridIndex;
use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{
    AssignmentEngine, EngineConfig, EngineEvent, InProcessClient, PartitionClient,
    PartitionedEngine,
};
use rdbsc_server::{connect_remote_partition, PartitionDaemon, PartitiondConfig};

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

/// One tick's worth of randomized metro-style churn (the
/// `proptest_partition.rs` generator).
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

/// Builds a 2-region router with region `remote_region` hosted on a fresh
/// daemon and the other in-process.
fn mixed_engine(
    partition: &RegionPartition,
    config: &EngineConfig,
    remote_region: usize,
) -> (PartitionedEngine, PartitionDaemon) {
    let daemon = PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        ..PartitiondConfig::default()
    })
    .expect("daemon start");
    let clients: Vec<Box<dyn PartitionClient>> = (0..partition.num_regions())
        .map(|region| -> Box<dyn PartitionClient> {
            if region == remote_region {
                connect_remote_partition(
                    &daemon.addr().to_string(),
                    partition,
                    region,
                    0.1,
                    config,
                    None,
                )
                .expect("daemon handshake")
            } else {
                Box::new(InProcessClient::spawn(
                    region,
                    AssignmentEngine::new(
                        FlatGridIndex::new(partition.region_rect(region), 0.1),
                        config.clone(),
                    ),
                ))
            }
        })
        .collect();
    (PartitionedEngine::new(partition.clone(), clients), daemon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mixed topology == all-in-process topology, byte for byte, under
    /// churn with answers and boundary crossings.
    #[test]
    fn mixed_topology_is_byte_identical_to_all_in_process(
        seed in 0u64..1_000,
        remote_region in 0usize..2,
        ticks in 2usize..5,
    ) {
        let geometry = GridGeometry::new(Rect::unit(), 0.1);
        let partition = RegionPartition::uniform(geometry, 2);
        let config = EngineConfig { seed, ..EngineConfig::default() };

        let mut local = PartitionedEngine::build(partition.clone(), config.clone(), |rect| {
            rdbsc_index::FlatGridIndex::new(rect, 0.1)
        });
        let (mut mixed, daemon) = mixed_engine(&partition, &config, remote_region);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xd15);
        for round in 0..ticks {
            let now = round as f64 * 0.25;
            let events = churn_events(&mut rng, now, 24, 16);
            local.submit_all(events.clone());
            mixed.submit_all(events);

            let a = local.tick(now);
            let b = mixed.tick(now);
            prop_assert_eq!(&a.new_assignments, &b.new_assignments, "round {}", round);
            prop_assert_eq!(a.events_applied, b.events_applied, "round {}", round);
            prop_assert_eq!(a.tasks_expired, b.tasks_expired, "round {}", round);
            prop_assert_eq!(&a.strategies, &b.strategies, "round {}", round);
            prop_assert_eq!(local.handoffs(), mixed.handoffs(), "round {}", round);
            prop_assert_eq!(
                local.committed_assignments(),
                mixed.committed_assignments(),
                "round {}", round
            );
            prop_assert_eq!(
                local.partition_snapshots(),
                mixed.partition_snapshots(),
                "round {}", round
            );

            // Answer a deterministic prefix on both sides.
            for pair in a.new_assignments.iter().take(3) {
                prop_assert_eq!(
                    local.record_answer(pair.worker, pair.contribution),
                    mixed.record_answer(pair.worker, pair.contribution)
                );
            }
        }

        let final_local = local.shutdown();
        let final_mixed = mixed.shutdown();
        prop_assert_eq!(final_local, final_mixed, "final drained snapshots agree");
        daemon.join();
    }

    /// One *remote* partition == the plain engine, byte for byte.
    #[test]
    fn single_remote_partition_is_byte_identical_to_the_plain_engine(
        seed in 0u64..1_000,
        ticks in 2usize..5,
    ) {
        let geometry = GridGeometry::new(Rect::unit(), 0.1);
        let partition = RegionPartition::single(geometry);
        let rect = partition.region_rect(0);
        let config = EngineConfig { seed, ..EngineConfig::default() };

        let mut plain = AssignmentEngine::new(
            FlatGridIndex::new(rect, 0.1),
            config.clone(),
        );
        let (mut remote, daemon) = mixed_engine(&partition, &config, 0);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7);
        for round in 0..ticks {
            let now = round as f64 * 0.25;
            let events = churn_events(&mut rng, now, 24, 16);
            plain.submit_all(events.clone());
            remote.submit_all(events);

            let a = plain.tick(now);
            let b = remote.tick(now);
            prop_assert_eq!(&a.new_assignments, &b.new_assignments, "round {}", round);
            prop_assert_eq!(a.events_applied, b.events_applied, "round {}", round);
            prop_assert_eq!(&a.strategies, &b.strategies, "round {}", round);
            prop_assert_eq!(
                plain.committed_assignments(),
                remote.committed_assignments(),
                "round {}", round
            );
            for pair in a.new_assignments.iter().take(3) {
                prop_assert_eq!(
                    plain.record_answer(pair.worker, pair.contribution),
                    remote.record_answer(pair.worker, pair.contribution)
                );
            }
        }
        prop_assert_eq!(remote.handoffs(), 0, "one region cannot hand off");
        let final_snapshot = remote.shutdown();
        prop_assert_eq!(final_snapshot.live_tasks, plain.num_tasks());
        prop_assert_eq!(final_snapshot.live_workers, plain.num_workers());
        daemon.join();
    }
}
