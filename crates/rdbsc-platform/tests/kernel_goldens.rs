//! A bit-level golden for the expected-diversity kernels at the depth the
//! engine drives them to.
//!
//! A small seeded metro replay (the shape of the benchmark's
//! `metro_replay`: a bulk load, then rounds in which a third of the
//! workers heartbeat and three tasks arrive, every assignment answered at
//! once) runs through `AssignmentEngine<FlatGridIndex>` with the default
//! adaptive solver. Answers pile up on the busiest tasks, so GREEDY prices
//! candidates against sets of 16 and more banked answers with the metro's
//! confidences in `(0.9, 1)` — where the possible-worlds walks are deep and
//! their tails round away. The committed-pair stream folds into one FNV
//! digest, and `current_objective()` is pinned to the bit; both were
//! recorded before the kernels stopped walking negligible tails.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_geo::{Point, Rect};
use rdbsc_index::FlatGridIndex;
use rdbsc_model::{Task, TaskId, TimeWindow, WorkerId};
use rdbsc_obs::digest::Fnv1a;
use rdbsc_platform::{AssignmentEngine, EngineConfig, EngineEvent};
use rdbsc_workloads::{generate_metro_instance, MetroConfig};

const TASKS: usize = 60;
const WORKERS: usize = 240;
const ROUNDS: usize = 24;
const DT: f64 = 0.1;
/// How far from its city centre a moved worker or a new task lands.
const SPREAD: f64 = 0.075;

/// What a replay leaves behind: the committed-pair digest, the objective's
/// bits and the deepest task's number of contributions.
struct Outcome {
    digest: u64,
    total_std: u64,
    min_reliability: u64,
    covered_tasks: usize,
    deepest: usize,
}

fn replay(seed: u64) -> Outcome {
    let config = MetroConfig::default()
        .with_tasks(TASKS)
        .with_workers(WORKERS);
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = generate_metro_instance(&config, &mut rng);
    let centers = config.city_centers();
    let near = |city: usize, rng: &mut StdRng| {
        let c = centers[city];
        Point::new(
            (c.x + rng.gen_range(-SPREAD..SPREAD)).clamp(0.0, 1.0),
            (c.y + rng.gen_range(-SPREAD..SPREAD)).clamp(0.0, 1.0),
        )
    };
    let mut engine = AssignmentEngine::new(
        FlatGridIndex::new(Rect::unit(), 0.05),
        EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        },
    );
    engine.submit_all(
        instance
            .tasks
            .iter()
            .map(|t| EngineEvent::TaskArrived(*t))
            .chain(
                instance
                    .workers
                    .iter()
                    .map(|w| EngineEvent::WorkerCheckIn(*w)),
            ),
    );
    let mut digest = Fnv1a::new();
    let mut next_task_id = TASKS as u32;
    for round in 0..ROUNDS {
        let now = round as f64 * DT;
        if round > 0 {
            for j in (0..WORKERS).filter(|j| j % 3 == round % 3) {
                let city = if rng.gen_range(0.0..1.0f64) < 0.03 {
                    (j + 1) % centers.len()
                } else {
                    j % centers.len()
                };
                engine.submit(EngineEvent::WorkerMoved(
                    WorkerId(j as u32),
                    near(city, &mut rng),
                ));
            }
            for _ in 0..3 {
                let city = rng.gen_range(0..centers.len());
                let location = near(city, &mut rng);
                let length = rng.gen_range(0.25..0.5);
                engine.submit(EngineEvent::TaskArrived(Task::new(
                    TaskId(next_task_id),
                    location,
                    TimeWindow::new(now, now + length).unwrap(),
                )));
                next_task_id += 1;
            }
        }
        let report = engine.tick(now);
        for pair in &report.new_assignments {
            digest.write_u64(u64::from(pair.task.0));
            digest.write_u64(u64::from(pair.worker.0));
            digest.write_u64(pair.contribution.p().to_bits());
            digest.write_u64(pair.contribution.angle.to_bits());
            digest.write_u64(pair.contribution.arrival.to_bits());
            assert!(engine.record_answer(pair.worker, pair.contribution));
        }
    }
    let state = engine.dump_state();
    let deepest = state
        .banked
        .iter()
        .map(|(task, answers)| {
            answers.len() + state.committed.iter().filter(|c| c.1 == *task).count()
        })
        .max()
        .unwrap_or(0);
    let objective = engine.current_objective();
    Outcome {
        digest: digest.finish(),
        total_std: objective.total_std.to_bits(),
        min_reliability: objective.min_reliability.to_bits(),
        covered_tasks: objective.covered_tasks,
        deepest,
    }
}

#[test]
fn metro_replay_at_paper_depth_is_pinned() {
    // (seed, digest, total_std bits, min_reliability bits, covered tasks)
    let expected: [(u64, u64, u64, u64, usize); 2] = [
        (
            7,
            0x2802_b900_1ab6_7871,
            0x406e_71a9_809f_a764,
            0x3fef_ffe8_4f52_faf3,
            129,
        ),
        (
            1009,
            0x7624_7ebb_858b_129d,
            0x406e_547c_a3c6_b035,
            0x3fef_ed9c_ad01_1971,
            129,
        ),
    ];
    for (seed, digest, total_std, min_reliability, covered) in expected {
        let outcome = replay(seed);
        assert!(
            outcome.deepest >= 16,
            "seed {seed}: the deepest task holds {} contributions",
            outcome.deepest
        );
        assert_eq!(
            (
                outcome.digest,
                outcome.total_std,
                outcome.min_reliability,
                outcome.covered_tasks
            ),
            (digest, total_std, min_reliability, covered),
            "seed {seed}: {:#018x}, {:#018x}, {:#018x}",
            outcome.digest,
            outcome.total_std,
            outcome.min_reliability
        );
    }
}
