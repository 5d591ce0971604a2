//! `metro_replay` — a scripted 4-city timeline through one in-process
//! engine.
//!
//! A script has the shape of the repository's `partition_scale` bench: a
//! `MetroConfig` instance (200 tasks, 500 workers, 4 cities) bulk-loaded in
//! round 0, then 39 rounds of dt 0.1 in which a third of the workers
//! heartbeat (3 % of those wandering to the next city) and 3 tasks arrive;
//! every new assignment is answered at once, so workers free up and priors
//! accumulate. It is replayed through `AssignmentEngine<FlatGridIndex>`
//! with the default `AdaptiveBatchSolver`, `parallelism: 1`.
//!
//! One *replay* generates a script, builds a fresh engine and runs round 0
//! (that is the set-up), then the timed rounds. Replays repeat, each on a
//! fresh script, until the time is up: a script's round times follow its
//! bursts of live tasks, so one script would report the script, not the
//! engine. One operation is one timed round (submit + tick); work is events
//! applied.
//!
//! The same solver layer as `batch_uniform`, used differently: many small
//! clustered shards with priors, a solver chosen per shard. Solve is ≈97 %
//! of a tick.

use super::tick_report::{attach_tick_report, report_stage_shares, ReportedTotals};
use super::{derive_seed, report_trace_overhead, secs_since, RunParams, CELL_SIZE};
use crate::references;
use crate::report::Report;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_geo::{Point, Rect};
use rdbsc_index::FlatGridIndex;
use rdbsc_model::{Task, TaskId, TimeWindow, WorkerId};
use rdbsc_obs::digest::Fnv1a;
use rdbsc_obs::NUM_STAGES;
use rdbsc_platform::{AssignmentEngine, EngineConfig, EngineEvent, TickReport};
use rdbsc_workloads::{generate_metro_instance, MetroConfig};
use std::time::Instant;

const DT: f64 = 0.1;
/// The metro scatter's 2.5 σ truncation radius.
const SPREAD: f64 = 0.075;
const TASKS_PER_ROUND: usize = 3;

/// Per-round event batches; round 0 is the bulk load.
type Script = Vec<Vec<EngineEvent>>;

fn build_script(seed: u64, tasks: usize, workers: usize, rounds: usize) -> Script {
    let config = MetroConfig::default()
        .with_tasks(tasks)
        .with_workers(workers);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
    let instance = generate_metro_instance(&config, &mut rng);
    let centers = config.city_centers();
    let cities = centers.len();
    let near = |city: usize, rng: &mut StdRng| {
        let c = centers[city];
        Point::new(
            (c.x + rng.gen_range(-SPREAD..SPREAD)).clamp(0.0, 1.0),
            (c.y + rng.gen_range(-SPREAD..SPREAD)).clamp(0.0, 1.0),
        )
    };

    let mut script = Vec::with_capacity(rounds);
    script.push(
        instance
            .tasks
            .iter()
            .map(|t| EngineEvent::TaskArrived(*t))
            .chain(
                instance
                    .workers
                    .iter()
                    .map(|w| EngineEvent::WorkerCheckIn(*w)),
            )
            .collect(),
    );
    let mut next_task_id = instance.num_tasks() as u32;
    for round in 1..rounds {
        let now = round as f64 * DT;
        let mut events = Vec::new();
        // A third of the workers heartbeat each round; ~3% of those wander
        // towards the next city.
        for j in (0..workers).filter(|j| j % 3 == round % 3) {
            let wander = rng.gen_range(0.0..1.0f64) < 0.03;
            let city = if wander { (j + 1) % cities } else { j % cities };
            events.push(EngineEvent::WorkerMoved(
                WorkerId(j as u32),
                near(city, &mut rng),
            ));
        }
        for _ in 0..TASKS_PER_ROUND {
            let city = rng.gen_range(0..cities);
            let location = near(city, &mut rng);
            let length = rng.gen_range(0.25..0.5);
            events.push(EngineEvent::TaskArrived(Task::new(
                TaskId(next_task_id),
                location,
                TimeWindow::new(now, now + length).expect("positive window"),
            )));
            next_task_id += 1;
        }
        script.push(events);
    }
    script
}

struct Replay {
    setup_s: f64,
    round_ms: Vec<f64>,
    submit_s: f64,
    totals: ReportedTotals,
    answers: u64,
    digest: u64,
    total_std: f64,
    min_reliability: f64,
}

fn replay(script: &Script, unit: u64, tracer: &mut Tracer) -> Replay {
    let started = Instant::now();
    let mut engine = AssignmentEngine::new(
        FlatGridIndex::new(Rect::unit(), CELL_SIZE),
        EngineConfig {
            parallelism: 1,
            ..EngineConfig::default()
        },
    );
    let mut digest = Fnv1a::new();
    let mut answers = 0u64;
    let mut answer_all = |engine: &mut AssignmentEngine<FlatGridIndex>, report: &TickReport| {
        for pair in &report.new_assignments {
            digest.write_u64(u64::from(pair.task.0));
            digest.write_u64(u64::from(pair.worker.0));
            // Answer right away: frees the worker for the next round.
            if engine.record_answer(pair.worker, pair.contribution) {
                answers += 1;
            }
        }
    };
    engine.submit_all(script[0].iter().cloned());
    let bulk = engine.tick(0.0);
    answer_all(&mut engine, &bulk);
    let setup_s = secs_since(started);

    let mut totals = ReportedTotals::default();
    let mut round_ms = Vec::with_capacity(script.len());
    let mut submit_s = 0.0;
    for (round, events) in script.iter().enumerate().skip(1) {
        let op = unit * script.len() as u64 + round as u64;
        let events = events.clone();
        let round_started = Instant::now();
        let root = tracer.begin("replay.round", op);
        let span = tracer.begin("engine.submit", op);
        engine.submit_all(events);
        tracer.end(span);
        submit_s += secs_since(round_started);
        let span = tracer.begin("engine.tick", op);
        let report = engine.tick(round as f64 * DT);
        tracer.end(span);
        tracer.end(root);
        round_ms.push(secs_since(round_started) * 1e3);
        attach_tick_report(tracer, span, &report);
        totals.add(&report);
        answer_all(&mut engine, &report);
    }
    let objective = engine.current_objective();
    Replay {
        setup_s,
        round_ms,
        submit_s,
        totals,
        answers,
        digest: digest.finish(),
        total_std: objective.total_std,
        min_reliability: objective.min_reliability,
    }
}

/// Runs the workload.
pub fn run(params: &RunParams, tracer: &mut Tracer, report: &mut Report) {
    let (tasks, workers, rounds) = if params.smoke {
        (60, 150, 16)
    } else {
        (200, 500, 40)
    };
    report.size("initial_tasks", tasks as f64);
    report.size("workers", workers as f64);
    report.size("rounds", rounds as f64);

    let mut setup_s = Vec::new();
    let mut round_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut wall_s = 0.0;
    let mut submit_s = 0.0;
    let mut events = 0u64;
    let mut stage_us = [0u64; NUM_STAGES];
    let mut first: Option<Replay> = None;
    let mut replays = 0u64;
    let mut scripts = 0u64;

    let measure_started = Instant::now();
    while scripts < 1 || secs_since(measure_started) < params.seconds {
        let script_started = Instant::now();
        let script = build_script(derive_seed(params.seed, scripts), tasks, workers, rounds);
        let script_s = secs_since(script_started);
        // Script 0 is always replayed twice: the pair stream must repeat. The
        // traced run replays every script twice, recorder off then on, which
        // also measures the recorder's own cost on identical work.
        let passes = if params.traced || scripts == 0 { 2 } else { 1 };
        let mut previous_digest = None;
        for pass in 0..passes {
            let recorder_on = params.traced && pass == 1;
            tracer.set_enabled(recorder_on);
            let unit = replay(&script, replays, tracer);
            tracer.set_enabled(false);
            replays += 1;

            report.attempted += unit.round_ms.len() as u64;
            setup_s.push(script_s + unit.setup_s);
            wall_s += unit.round_ms.iter().sum::<f64>() / 1e3;
            submit_s += unit.submit_s;
            events += unit.totals.events;
            for (sum, us) in stage_us.iter_mut().zip(unit.totals.stage_us) {
                *sum += us;
            }
            round_ms.extend_from_slice(&unit.round_ms);
            if params.traced {
                if recorder_on {
                    &mut traced_ms
                } else {
                    &mut untraced_ms
                }
                .extend_from_slice(&unit.round_ms);
            }
            report.check(unit.totals.assignments > 0, 1, || {
                format!("script {scripts}: no assignment was made")
            });
            if let Some(previous) = previous_digest.replace(unit.digest) {
                report.check(unit.digest == previous, unit.round_ms.len() as u64, || {
                    format!(
                        "script {scripts} committed a different pair stream when replayed: \
                         {:#x} vs {previous:#x}",
                        unit.digest
                    )
                });
            }
            first.get_or_insert(unit);
        }
        scripts += 1;
    }
    let first = first.expect("at least one replay ran");
    report.size("scripts", scripts as f64);
    report.size("replays", replays as f64);
    report.size("timed_rounds", round_ms.len() as f64);

    println!(
        "reference candidates: digest={:#018x} assignments={} total_std={} min_reliability={}",
        first.digest, first.totals.assignments, first.total_std, first.min_reliability
    );
    if let Some(reference) = references::metro_replay(params.seed).filter(|_| !params.smoke) {
        report.check(first.digest == reference, 1, || {
            format!(
                "committed-pair digest {:#018x} differs from the recorded {reference:#018x}",
                first.digest
            )
        });
    }

    report.timing("setup_s", "s", &setup_s, 50.0);
    report.timing("op_p50_ms", "ms", &round_ms, 50.0);
    report.value("work_per_s", "1/s", events as f64 / wall_s);

    report.value("events_per_s", "1/s", events as f64 / wall_s);
    report.timing("tick_p50_ms", "ms", &round_ms, 50.0);
    report.timing("tick_p90_ms", "ms", &round_ms, 90.0);
    report_stage_shares(&stage_us, wall_s, report);
    // Quality and counters of script 0: they repeat exactly for a seed.
    report.value("total_std", "std", first.total_std);
    report.value("min_reliability", "prob", first.min_reliability);
    first.totals.report_counters(round_ms.len(), wall_s, report);
    report.value("engine.answers", "count", first.answers as f64);
    report.value(
        "partition.submit_ns_per_event",
        "ns",
        submit_s * 1e9 / events.max(1) as f64,
    );
    if params.traced {
        report_trace_overhead(report, &untraced_ms, &traced_ms);
    }
}
