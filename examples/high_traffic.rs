//! High-traffic online assignment: the parallel sharded engine vs. the
//! single-threaded monolithic re-solve.
//!
//! Builds a 1 000-task / 5 000-worker instance with short task windows (the
//! regime where the spatial domain decomposes into many independent shards),
//! then runs one update round both ways and reports wall-clock time,
//! assignment throughput and the two RDB-SC objectives. A second phase
//! drives the engine through several event-driven rounds (worker movement,
//! task churn, answers) to show the incremental path.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example high_traffic
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc::platform::engine::{AssignmentEngine, EngineConfig, EngineEvent};
use rdbsc::prelude::*;
use std::time::Instant;

fn main() {
    // A polycentric *online snapshot*: nine metro areas, each holding only
    // tasks that are open now or within the next few minutes (future tasks
    // arrive later as events). Worker reach radii are small compared to the
    // inter-city gaps, so the domain decomposes into independent shards.
    let config = MetroConfig::default().with_tasks(1_000).with_workers(5_000);
    let mut rng = StdRng::seed_from_u64(11);
    let instance = generate_metro_instance(&config, &mut rng);
    println!(
        "instance: {} tasks, {} workers in {} metro areas",
        instance.num_tasks(),
        instance.num_workers(),
        config.cities,
    );

    let index = GridIndex::from_instance(&instance);

    // --- Baseline: one monolithic single-threaded re-solve -----------------
    let started = Instant::now();
    let mut baseline_index = index.clone();
    let candidates = baseline_index.retrieve_valid_pairs();
    let solver = Solver::Sampling(SamplingConfig::default());
    let request = SolveRequest::new(&instance, &candidates);
    let baseline = solver.solve(&request, &mut StdRng::seed_from_u64(3));
    let baseline_secs = started.elapsed().as_secs_f64();
    let baseline_value = evaluate(&instance, &baseline);
    println!(
        "full re-solve  : {:>8.3}s  {:>7.0} assignments/s  min_rel {:.4}  total_STD {:.2}",
        baseline_secs,
        baseline_value.assigned_workers as f64 / baseline_secs,
        baseline_value.min_reliability,
        baseline_value.total_std,
    );

    // --- The engine: sharded, parallel, adaptive ---------------------------
    let started = Instant::now();
    let mut engine = AssignmentEngine::new(
        index.clone(),
        EngineConfig {
            seed: 3,
            ..EngineConfig::default()
        },
    );
    let report = engine.tick(0.0);
    let engine_secs = started.elapsed().as_secs_f64();

    let mut engine_assignment = Assignment::for_instance(&instance);
    for pair in &report.new_assignments {
        engine_assignment
            .assign(pair.task, pair.worker, pair.contribution)
            .expect("engine pairs are conflict-free");
    }
    let engine_value = evaluate(&instance, &engine_assignment);
    println!(
        "sharded engine : {:>8.3}s  {:>7.0} assignments/s  min_rel {:.4}  total_STD {:.2}",
        engine_secs,
        engine_value.assigned_workers as f64 / engine_secs,
        engine_value.min_reliability,
        engine_value.total_std,
    );
    let mut strategy_counts: Vec<(&str, usize)> = Vec::new();
    for s in &report.strategies {
        match strategy_counts.iter_mut().find(|(name, _)| name == s) {
            Some((_, n)) => *n += 1,
            None => strategy_counts.push((s, 1)),
        }
    }
    let critical = report.critical_path_seconds();
    println!(
        "                 {} shards (largest: {} pairs), strategies: {:?}",
        report.num_shards, report.largest_shard_pairs, strategy_counts,
    );
    println!(
        "                 one-core speedup {:.2}x; parallel critical path {:.3}s -> projected {:.2}x on {} cores",
        baseline_secs / engine_secs.max(1e-12),
        critical,
        baseline_secs / (engine_secs - report.solve_seconds + critical).max(1e-12),
        report.num_shards,
    );
    assert_eq!(
        engine_value.assigned_workers, baseline_value.assigned_workers,
        "both paths must assign every connected worker"
    );
    assert!(
        (engine_value.total_std - baseline_value.total_std).abs()
            <= 0.10 * baseline_value.total_std,
        "sharded total_STD must stay within sampling tolerance of the monolithic solve"
    );
    assert!(
        engine_value.min_reliability >= baseline_value.min_reliability - 0.05,
        "sharded min reliability must stay within sampling tolerance of the monolithic solve"
    );

    // --- Event-driven rounds: movement, churn, answers ---------------------
    println!("\nevent-driven rounds:");
    let mut next_task_id = instance.num_tasks() as u32;
    let mut churn_rng = StdRng::seed_from_u64(17);
    let mut travelling: Vec<ValidPair> = report.new_assignments.clone();
    let mut now = 0.0;
    for round in 1..=5 {
        now += 0.1;

        // Answers: travellers whose planned arrival has passed complete.
        let arrived: Vec<ValidPair> = travelling
            .iter()
            .filter(|p| p.contribution.arrival <= now && engine.is_committed(p.worker))
            .copied()
            .collect();
        for pair in &arrived {
            engine.record_answer(pair.worker, pair.contribution);
        }

        // Movement: a slice of the idle workers drifts (from their *live*
        // position, so drift accumulates round over round).
        for w in instance.workers.iter().take(500) {
            if !engine.is_committed(w.id) {
                let Some(live) = engine.index().worker(w.id) else {
                    continue;
                };
                let dx: f64 = churn_rng.gen_range(-0.02..0.02);
                let dy: f64 = churn_rng.gen_range(-0.02..0.02);
                engine.submit(EngineEvent::WorkerMoved(
                    w.id,
                    Point::new(
                        (live.location.x + dx).clamp(0.0, 1.0),
                        (live.location.y + dy).clamp(0.0, 1.0),
                    ),
                ));
            }
        }

        // Task churn: fresh tasks arrive with windows starting now.
        for _ in 0..50 {
            let x: f64 = churn_rng.gen_range(0.0..1.0);
            let y: f64 = churn_rng.gen_range(0.0..1.0);
            let duration: f64 = churn_rng.gen_range(0.25..0.5);
            engine.submit(EngineEvent::TaskArrived(Task::new(
                TaskId(next_task_id),
                Point::new(x, y),
                TimeWindow::new(now, now + duration).expect("valid window"),
            )));
            next_task_id += 1;
        }

        let started = Instant::now();
        let round_report = engine.tick(now);
        let secs = started.elapsed().as_secs_f64();
        travelling.retain(|p| engine.is_committed(p.worker));
        travelling.extend(round_report.new_assignments.iter().copied());
        println!(
            "  round {round}: {:>4} events, {:>3} expired, {:>3} shards, {:>4} new assignments, answers banked {:>4}, {:>7.4}s",
            round_report.events_applied,
            round_report.tasks_expired,
            round_report.num_shards,
            round_report.new_assignments.len(),
            arrived.len(),
            secs,
        );
    }
    let objective = engine.current_objective();
    println!(
        "\nfinal standing state: min_rel {:.4}, total_STD {:.2}, covered tasks {}",
        objective.min_reliability, objective.total_std, objective.covered_tasks
    );
}
