//! `heartbeat_storm` — writes beside reads, through a durable partition.
//!
//! 6000 uniform workers (speed 0.2–0.3, heading cone 0.5 rad) are checked in
//! during set-up; then every tick (dt 0.05) **every** worker moves ±0.02 and
//! one task with a 0.1 window arrives (≈2 live tasks), through
//! `EnginePartition::open_durable` with `WalConfig::default()` — fsync per
//! tick, checkpoint every 64 ticks. The run stops 63 ticks past the last
//! checkpoint, the worst case for recovery; the data dir is then copied and
//! each copy recovered with `open_durable`, which must reproduce the
//! pre-shutdown state digest.
//!
//! One operation is one tick (submit + tick); work is events applied. The
//! index does relocations instead of retrieval and the WAL does the most
//! work it ever does; solve is < 5 %. The event append inside `submit` is
//! outside every `StageTimings` stage, so here the six stages do *not* sum
//! to the tick: that gap is `engine.unattributed_share`.

use super::tick_report::{attach_tick_report, report_stage_shares, ReportedTotals};
use super::{derive_seed, report_trace_overhead, secs_since, RunParams, ScratchDir, CELL_SIZE};
use crate::report::Report;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::FlatGridIndex;
use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{EngineConfig, EngineEvent, EnginePartition, WalConfig};
use std::path::Path;
use std::time::Instant;

const DT: f64 = 0.05;
const STEP: f64 = 0.02;
const TASK_WINDOW: f64 = 0.1;
/// Share of the measured time spent ticking; the rest goes to recoveries.
const TICK_SHARE: f64 = 0.75;
const MIN_RECOVERIES: usize = 5;
const MAX_RECOVERIES: usize = 40;

type Partition = EnginePartition<FlatGridIndex>;

fn open(dir: &Path) -> Result<(Partition, bool), String> {
    let config = EngineConfig {
        parallelism: 1,
        ..EngineConfig::default()
    };
    EnginePartition::open_durable(dir, WalConfig::default(), config, || {
        FlatGridIndex::new(Rect::unit(), CELL_SIZE)
    })
    .map(|(part, scan)| (part, scan.found_damage()))
    .map_err(|e| format!("open_durable({}): {e}", dir.display()))
}

/// The generator: worker positions random-walk, one task arrives per tick.
struct Storm {
    rng: StdRng,
    positions: Vec<Point>,
    next_task: u32,
}

impl Storm {
    fn new(seed: u64, workers: usize) -> (Self, Vec<EngineEvent>) {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
        let mut positions = Vec::with_capacity(workers);
        let check_ins = (0..workers)
            .map(|j| {
                let at = Point::new(rng.gen_range(0.02..0.98), rng.gen_range(0.02..0.98));
                positions.push(at);
                EngineEvent::WorkerCheckIn(
                    Worker::new(
                        WorkerId(j as u32),
                        at,
                        rng.gen_range(0.2..0.3),
                        AngleRange::new(rng.gen_range(0.0..std::f64::consts::TAU), 0.5),
                        Confidence::new(rng.gen_range(0.9..1.0)).expect("confidence in (0, 1]"),
                    )
                    .expect("positive speed"),
                )
            })
            .collect();
        (
            Self {
                rng,
                positions,
                next_task: 0,
            },
            check_ins,
        )
    }

    /// The events of one tick at time `now`: every worker moves, one task
    /// arrives.
    fn tick_events(&mut self, now: f64) -> Vec<EngineEvent> {
        let mut events = Vec::with_capacity(self.positions.len() + 1);
        for (j, at) in self.positions.iter_mut().enumerate() {
            *at = Point::new(
                (at.x + self.rng.gen_range(-STEP..STEP)).clamp(0.0, 1.0),
                (at.y + self.rng.gen_range(-STEP..STEP)).clamp(0.0, 1.0),
            );
            events.push(EngineEvent::WorkerMoved(WorkerId(j as u32), *at));
        }
        let location = Point::new(
            self.rng.gen_range(0.02..0.98),
            self.rng.gen_range(0.02..0.98),
        );
        events.push(EngineEvent::TaskArrived(Task::new(
            TaskId(self.next_task),
            location,
            TimeWindow::new(now, now + TASK_WINDOW).expect("positive window"),
        )));
        self.next_task += 1;
        events
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(params: &RunParams, tracer: &mut Tracer, report: &mut Report) {
    let workers = if params.smoke { 300 } else { 6_000 };
    report.size("workers", workers as f64);

    // Set-up, five times over: generate the population, open a fresh
    // durable partition, bulk-load every worker in tick 0.
    let mut setup_s = Vec::new();
    let mut live = None;
    for attempt in 0..5 {
        let started = Instant::now();
        let (storm, check_ins) = Storm::new(params.seed, workers);
        let dir = match ScratchDir::create(&params.scratch, &format!("storm-{attempt}")) {
            Ok(dir) => dir,
            Err(e) => return report.fail(format!("cannot create a data dir: {e}")),
        };
        let mut part = match open(dir.path()) {
            Ok((part, _)) => part,
            Err(e) => return report.fail(e),
        };
        part.submit(check_ins);
        part.tick(0.0);
        setup_s.push(secs_since(started));
        live = Some((storm, dir, part));
    }
    let (mut storm, dir, mut part) = live.expect("the set-ups ran");
    let checkpoint_every = WalConfig::default().checkpoint_every_ticks;

    // The timed ticks.
    let mut tick_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut submit_s = 0.0;
    let mut wall_s = 0.0;
    let mut totals = ReportedTotals::default();
    let mut append_us = Vec::new();
    let mut fsync_us = Vec::new();
    let mut answers = 0u64;
    let measure_started = Instant::now();
    let mut tick = 0u64; // engine tick 0 was the bulk load
    loop {
        tick += 1;
        // The traced run records alternate 64-tick blocks, which measures
        // the recorder's own cost inside one run.
        let recorder_on = params.traced && (tick / checkpoint_every) % 2 == 1;
        tracer.set_enabled(recorder_on);
        let now = tick as f64 * DT;
        let events = storm.tick_events(now);

        let started = Instant::now();
        let root = tracer.begin("storm.tick", tick);
        let span = tracer.begin("partition.submit", tick);
        part.submit(events);
        tracer.end(span);
        submit_s += secs_since(started);
        let span = tracer.begin("partition.tick", tick);
        let outcome = part.tick(now);
        tracer.end(span);
        tracer.end(root);
        let ms = secs_since(started) * 1e3;

        attach_tick_report(tracer, span, &outcome.report);
        tick_ms.push(ms);
        wall_s += ms / 1e3;
        if params.traced {
            if recorder_on {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(ms);
        }
        append_us.push(outcome.report.stages.wal_append_us as f64);
        fsync_us.push(outcome.report.stages.wal_fsync_us as f64);
        totals.add(&outcome.report);
        for pair in &outcome.report.new_assignments {
            if part.record_answer(pair.worker, pair.contribution) {
                answers += 1;
            }
        }
        // Stop 63 ticks past the last checkpoint: the engine has ticked
        // `tick + 1` times and checkpoints when that count divides by 64.
        let past_checkpoint = (tick + 1) % checkpoint_every == checkpoint_every - 1;
        if secs_since(measure_started) >= params.seconds * TICK_SHARE && past_checkpoint {
            break;
        }
    }
    tracer.set_enabled(false);
    report.attempted += tick_ms.len() as u64;
    report.size("timed_ticks", tick_ms.len() as f64);

    let digest = part.state_digest();
    let wal = part
        .wal_stats()
        .expect("a durable partition has log counters");
    let objective = part.snapshot().objective;
    // A crash, not a shutdown: no drain, no final sync. Every tick was
    // fsynced, so the log already holds everything the digest covers.
    drop(part);

    // Recoveries: copy the data dir, open the copy, compare digests.
    let mut recovery_s = Vec::new();
    let mut recovered_records = 0u64;
    while recovery_s.len() < MIN_RECOVERIES
        || (secs_since(measure_started) < params.seconds && recovery_s.len() < MAX_RECOVERIES)
    {
        let copy = match ScratchDir::create(&params.scratch, "storm-recovery") {
            Ok(copy) => copy,
            Err(e) => return report.fail(format!("cannot create a recovery dir: {e}")),
        };
        if let Err(e) = copy_dir(dir.path(), copy.path()) {
            return report.fail(format!("cannot copy the data dir: {e}"));
        }
        let started = Instant::now();
        let span = tracer.begin("partition.open_durable", recovery_s.len() as u64);
        let opened = open(copy.path());
        tracer.end(span);
        recovery_s.push(secs_since(started));
        match opened {
            Ok((recovered, damaged)) => {
                let stats = recovered
                    .wal_stats()
                    .expect("recovered partition is durable");
                recovered_records = stats.recovered_records;
                report.check(
                    recovered.state_digest() == digest && !damaged && stats.recovered_checkpoint,
                    1,
                    || {
                        format!(
                            "recovery {}: digest {:#x} vs pre-shutdown {digest:#x}, damage found: \
                             {damaged}, from checkpoint: {}",
                            recovery_s.len(),
                            recovered.state_digest(),
                            stats.recovered_checkpoint
                        )
                    },
                );
            }
            Err(e) => report.fail(e),
        }
    }
    report.size("recoveries", recovery_s.len() as f64);
    report.check(totals.assignments > 0, 1, || {
        "no assignment was made".into()
    });

    report.timing("setup_s", "s", &setup_s, 50.0);
    report.timing("op_p50_ms", "ms", &tick_ms, 50.0);
    report.value("work_per_s", "1/s", totals.events as f64 / wall_s);

    report.value("events_per_s", "1/s", totals.events as f64 / wall_s);
    report.timing("tick_p50_ms", "ms", &tick_ms, 50.0);
    report.timing("tick_p90_ms", "ms", &tick_ms, 90.0);
    report.timing("recovery_s", "s", &recovery_s, 50.0);
    report.value(
        "wal_bytes_per_event",
        "bytes",
        wal.bytes_appended as f64 / totals.events.max(1) as f64,
    );
    report.value("total_std", "std", objective.total_std);
    report.value("min_reliability", "prob", objective.min_reliability);
    report_stage_shares(&totals.stage_us, wall_s, report);
    totals.report_counters(tick_ms.len(), wall_s, report);
    report.value("engine.answers", "count", answers as f64);
    report.value(
        "partition.submit_ns_per_event",
        "ns",
        submit_s * 1e9 / totals.events.max(1) as f64,
    );
    report.timing("wal.append_us_p50", "us", &append_us, 50.0);
    report.timing("wal.fsync_us_p50", "us", &fsync_us, 50.0);
    report.value("wal.bytes_appended", "bytes", wal.bytes_appended as f64);
    report.value("wal.records_appended", "count", wal.records_appended as f64);
    report.value("wal.fsyncs", "count", wal.fsyncs as f64);
    report.value("wal.checkpoints", "count", wal.checkpoints as f64);
    report.value("wal.segments_retired", "count", wal.segments_retired as f64);
    report.value("wal.recovered_records", "count", recovered_records as f64);
    if params.traced {
        report_trace_overhead(report, &untraced_ms, &traced_ms);
    }
    println!(
        "unattributed: {:.1}% of submit + tick is outside the six stages — the WAL event append \
         in submit ({:.0} ns/event), which no stage covers",
        100.0 * report.get("engine.unattributed_share").unwrap_or(0.0),
        submit_s * 1e9 / totals.events.max(1) as f64,
    );
}
