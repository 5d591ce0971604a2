//! Durability smoke check: the write-ahead log changes nothing but
//! durability.
//!
//! Replays one deterministic scripted timeline three ways and requires one
//! FNV state digest:
//!
//! 1. **baseline** — a plain in-memory [`EnginePartition`] (no log);
//! 2. **durable** — the identical partition behind a WAL
//!    ([`EnginePartition::open_durable`] on a fresh directory);
//! 3. **recovery** — drop the durable partition mid-flight (a simulated
//!    crash: no drain, no final sync) and re-open the directory.
//!
//! ```text
//! cargo run --release -p rdbsc-bench --bin wal_replay -- --smoke
//! ```
//!
//! Exits nonzero when a digest diverges, recovery found no checkpoint
//! despite one being due, or the log never rotated — the CI step. It prints
//! no timings: what the log costs is `heartbeat_storm` in `benchmark/`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::FlatGridIndex;
use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{
    AssignmentEngine, EngineConfig, EngineEvent, EnginePartition, WalConfig, WalStats,
};
use std::path::PathBuf;

const CELL_SIZE: f64 = 0.05;

// Small enough for CI, large enough that the log rotates, checkpoints
// twice and recovers from a checkpoint plus a tail.
const TICKS: usize = 8;
const TASKS_PER_TICK: usize = 8;
const WORKERS: usize = 120;
const SEGMENT_BYTES: u64 = 8 << 10;
const CHECKPOINT_EVERY: u64 = 3;

fn usage() -> ! {
    eprintln!("usage: wal_replay --smoke [--seed N]");
    std::process::exit(2);
}

/// The script seed (`--smoke` is the only mode and must be given).
fn parse_args() -> u64 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 11;
    let mut smoke = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                i += 1;
                let Some(value) = argv.get(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("--seed requires a number");
                    usage();
                };
                seed = value;
            }
            _ => usage(),
        }
        i += 1;
    }
    if !smoke {
        usage();
    }
    seed
}

/// The deterministic replay script: per-round event batches plus the tick
/// time, identical for every phase.
fn build_script(seed: u64) -> Vec<(Vec<EngineEvent>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rounds = Vec::with_capacity(TICKS);
    let mut first: Vec<EngineEvent> = Vec::new();
    for j in 0..WORKERS {
        let x = rng.gen_range(0.02..0.98);
        let y = rng.gen_range(0.02..0.98);
        first.push(EngineEvent::WorkerCheckIn(
            Worker::new(
                WorkerId(j as u32),
                Point::new(x, y),
                rng.gen_range(0.1..0.6),
                AngleRange::full(),
                Confidence::new(0.9).unwrap(),
            )
            .unwrap(),
        ));
    }
    let mut next_task = 0u32;
    let dt = 0.1;
    for round in 0..TICKS {
        let now = round as f64 * dt;
        let mut events = if round == 0 { std::mem::take(&mut first) } else { Vec::new() };
        for _ in 0..TASKS_PER_TICK {
            let x = rng.gen_range(0.02..0.98);
            let y = rng.gen_range(0.02..0.98);
            events.push(EngineEvent::TaskArrived(Task::new(
                TaskId(next_task),
                Point::new(x, y),
                TimeWindow::new(now, now + rng.gen_range(0.3..0.8)).unwrap(),
            )));
            next_task += 1;
        }
        // A slice of the workers drifts each round, keeping the index busy.
        for j in (0..WORKERS).filter(|j| j % 7 == round % 7) {
            events.push(EngineEvent::WorkerMoved(
                WorkerId(j as u32),
                Point::new(rng.gen_range(0.02..0.98), rng.gen_range(0.02..0.98)),
            ));
        }
        rounds.push((events, now));
    }
    rounds
}

struct RunOutcome {
    assignments: u64,
    digest: u64,
    wal: Option<WalStats>,
}

/// Replays the script; answers every fresh pair immediately so answers and
/// releases hit the log too.
fn drive(part: &mut EnginePartition<FlatGridIndex>, script: &[(Vec<EngineEvent>, f64)]) -> RunOutcome {
    let mut assignments = 0u64;
    for (events, now) in script {
        part.submit(events.clone());
        let tick = part.tick(*now);
        assignments += tick.report.new_assignments.len() as u64;
        for pair in &tick.report.new_assignments {
            part.record_answer(pair.worker, pair.contribution);
        }
    }
    RunOutcome {
        assignments,
        digest: part.state_digest(),
        wal: part.wal_stats(),
    }
}

fn fresh_engine() -> AssignmentEngine<FlatGridIndex> {
    AssignmentEngine::new(FlatGridIndex::new(Rect::unit(), CELL_SIZE), EngineConfig::default())
}

fn main() {
    let script = build_script(parse_args());
    let total_events: usize = script.iter().map(|(e, _)| e.len()).sum();
    println!(
        "workload: {} ticks, {} events total, segment {} B, checkpoint every {} ticks",
        TICKS, total_events, SEGMENT_BYTES, CHECKPOINT_EVERY
    );

    let dir: PathBuf =
        std::env::temp_dir().join(format!("rdbsc-wal-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_config = WalConfig {
        segment_bytes: SEGMENT_BYTES,
        checkpoint_every_ticks: CHECKPOINT_EVERY,
        fsync_on_tick: true,
    };

    // Phase 1: the in-memory baseline.
    let mut baseline_part = EnginePartition::new(fresh_engine());
    let baseline = drive(&mut baseline_part, &script);
    println!("baseline : {} assignments, digest {:#018x}", baseline.assignments, baseline.digest);

    // Phase 2: the same replay behind the log.
    let (mut durable_part, _) = EnginePartition::open_durable(
        &dir,
        wal_config,
        EngineConfig::default(),
        || FlatGridIndex::new(Rect::unit(), CELL_SIZE),
    )
    .expect("open durable partition");
    let durable = drive(&mut durable_part, &script);
    let stats = durable.wal.expect("durable run has wal stats");
    println!("durable  : digest {:#018x}", durable.digest);
    println!(
        "log      : {} records, {} KiB, {} fsyncs, {} checkpoints, {} segments retired",
        stats.records_appended,
        stats.bytes_appended / 1024,
        stats.fsyncs,
        stats.checkpoints,
        stats.segments_retired
    );

    // Phase 3: crash (drop without drain) and recover.
    drop(durable_part);
    let (recovered_part, _) = EnginePartition::open_durable(
        &dir,
        wal_config,
        EngineConfig::default(),
        || FlatGridIndex::new(Rect::unit(), CELL_SIZE),
    )
    .expect("recover partition");
    let recovered_stats = recovered_part.wal_stats().expect("recovered wal stats");
    println!(
        "recovery : digest {:#018x} ({} records replayed, checkpoint loaded: {})",
        recovered_part.state_digest(),
        recovered_stats.recovered_records,
        recovered_stats.recovered_checkpoint
    );

    let mut failures: Vec<String> = Vec::new();
    if durable.digest != baseline.digest {
        failures.push(format!(
            "durable replay diverged from baseline: {:#x} vs {:#x}",
            durable.digest, baseline.digest
        ));
    }
    if recovered_part.state_digest() != baseline.digest {
        failures.push(format!(
            "recovered state diverged: {:#x} vs {:#x}",
            recovered_part.state_digest(),
            baseline.digest
        ));
    }
    if baseline.assignments == 0 {
        failures.push("workload made zero assignments".into());
    }
    if stats.checkpoints == 0 {
        failures.push("a checkpoint was due but never written".into());
    }
    if !recovered_stats.recovered_checkpoint {
        failures.push("recovery replayed from scratch despite a checkpoint".into());
    }
    if stats.segments + stats.segments_retired < 2 {
        failures.push("the log never rotated — segment_bytes too large for the workload".into());
    }

    let _ = std::fs::remove_dir_all(&dir);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("OK");
}
