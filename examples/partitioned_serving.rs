//! Region-partitioned multi-engine serving on the metro workload.
//!
//! Cuts the unit square into four uniform regions (one per metro area: the
//! cities sit at the quadrant centres), runs one assignment engine per
//! region on its own thread, and drives a few rounds of churn with workers
//! commuting between cities — exercising event routing, lockstep ticks and
//! cross-partition worker handoff. Finishes by
//! checking the single-partition determinism contract: one region produces
//! byte-identical output to a plain engine.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example partitioned_serving
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc::cluster::RegionPartition;
use rdbsc::index::geometry::GridGeometry;
use rdbsc::platform::engine::{AssignmentEngine, EngineConfig, EngineEvent};
use rdbsc::platform::PartitionedEngine;
use rdbsc::prelude::*;
use rdbsc::workloads::{generate_metro_instance, MetroConfig};

const CELL: f64 = 0.05;

fn main() {
    // Four metro areas; worker reach is small compared to the gaps between
    // them, so the quadrant boundaries fall in the empty corridors.
    let config = MetroConfig::default().with_tasks(200).with_workers(800);
    let mut rng = StdRng::seed_from_u64(9);
    let instance = generate_metro_instance(&config, &mut rng);

    let geometry = GridGeometry::new(Rect::unit(), CELL);
    let partition = RegionPartition::uniform(geometry, 4);
    println!("regions (grid-cell-aligned, uniform boundaries):");
    for i in 0..partition.num_regions() {
        let r = partition.region_rect(i);
        println!(
            "  partition {i}: [{:.2}, {:.2}] x [{:.2}, {:.2}]",
            r.min_x, r.max_x, r.min_y, r.max_y
        );
    }

    let engine_config = EngineConfig {
        seed: 9,
        ..EngineConfig::default()
    };
    let mut engine = PartitionedEngine::build(partition, engine_config.clone(), |rect| {
        FlatGridIndex::new(rect, CELL)
    });
    engine.submit_all(instance.tasks.iter().map(|t| EngineEvent::TaskArrived(*t)));
    engine.submit_all(
        instance
            .workers
            .iter()
            .map(|w| EngineEvent::WorkerCheckIn(*w)),
    );

    let centers = config.city_centers();
    for round in 0..4 {
        let now = round as f64 * 0.1;
        let report = engine.tick(now);
        // Answer everything immediately so workers free up, then send 5 %
        // of the workers commuting towards the next city over.
        for pair in &report.new_assignments {
            engine.record_answer(pair.worker, pair.contribution);
        }
        for j in (0..instance.num_workers()).filter(|j| j % 20 == round % 20) {
            let target = centers[(j + 1) % centers.len()];
            engine.submit(EngineEvent::WorkerMoved(
                WorkerId(j as u32),
                Point::new(
                    (target.x + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0),
                    (target.y + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0),
                ),
            ));
        }
        println!(
            "round {round}: {} events, {} shards, {} new assignments, {} handoffs so far",
            report.events_applied,
            report.num_shards,
            report.new_assignments.len(),
            engine.handoffs(),
        );
    }

    let merged = engine.snapshot();
    println!(
        "\nmerged snapshot: {} live tasks, {} live workers, {} answers banked",
        merged.live_tasks, merged.live_workers, merged.banked_answers
    );
    for (i, snap) in engine.partition_snapshots().iter().enumerate() {
        println!(
            "  partition {i}: {:>3} tasks, {:>3} workers, {:>4} answers",
            snap.live_tasks, snap.live_workers, snap.banked_answers
        );
    }
    assert!(engine.handoffs() > 0, "the commute must cross boundaries");
    assert!(merged.banked_answers > 0);

    // --- The determinism contract: 1 partition == the plain engine --------
    let single = RegionPartition::single(geometry);
    let rect = single.region_rect(0);
    let mut plain = AssignmentEngine::new(FlatGridIndex::new(rect, CELL), engine_config.clone());
    let mut one = PartitionedEngine::build(single, engine_config, |r| FlatGridIndex::new(r, CELL));
    plain.submit_all(instance.tasks.iter().map(|t| EngineEvent::TaskArrived(*t)));
    plain.submit_all(
        instance
            .workers
            .iter()
            .map(|w| EngineEvent::WorkerCheckIn(*w)),
    );
    one.submit_all(instance.tasks.iter().map(|t| EngineEvent::TaskArrived(*t)));
    one.submit_all(
        instance
            .workers
            .iter()
            .map(|w| EngineEvent::WorkerCheckIn(*w)),
    );
    let a = plain.tick(0.0);
    let b = one.tick(0.0);
    assert_eq!(
        a.new_assignments, b.new_assignments,
        "single partition must be byte-identical to the plain engine"
    );
    println!(
        "\n1-partition identity: OK ({} identical assignments)",
        a.new_assignments.len()
    );
}
