//! Property tests for the durable partition log (`rdbsc_platform::wal`).
//!
//! Three contracts:
//!
//! 1. **Prefix under faults** — whatever write fault strikes (torn tail,
//!    flipped bytes, failing writes), re-opening the log yields a *prefix*
//!    of the appended record stream: never reordered, never invented,
//!    never a panic. Faults are injected with [`FailpointWriter`].
//! 2. **Garbage never panics** — a log directory full of arbitrary bytes
//!    scans to some valid prefix (usually empty) without panicking, and a
//!    second open after the repair sees a stable result.
//! 3. **Checkpoint-schedule byte-identity** — for random checkpoint
//!    intervals × crash points × event streams, a recovered partition's
//!    canonical state encoding is byte-identical to a partition that
//!    executed the same command prefix without ever crashing, and both
//!    continue identically afterwards.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc::platform::engine::{AssignmentEngine, EngineConfig, EngineEvent};
use rdbsc::platform::wal::{
    encode_partition_state, scan_dir, FailpointWriter, FaultPlan, SegmentFactory, Wal, WalConfig,
    WalFile, WalRecord,
};
use rdbsc::platform::{EnginePartition, PartitionCommand};
use rdbsc::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, unique scratch directory per proptest case (cases share threads,
/// so thread ids are not enough).
fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdbsc-proptest-wal-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every record of `dir`'s valid prefix, collected through the scan's
/// visitor.
fn scan_records(dir: &Path) -> Vec<WalRecord> {
    let mut records = Vec::new();
    scan_dir(dir, |r| records.push(r)).unwrap();
    records
}

fn task(id: u32, x: f64, y: f64, start: f64, end: f64) -> Task {
    Task::new(
        TaskId(id),
        Point::new(x, y),
        TimeWindow::new(start, end).unwrap(),
    )
}

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

fn random_event(rng: &mut StdRng, next_id: &mut u32, now: f64) -> EngineEvent {
    let id = *next_id;
    *next_id += 1;
    let x = rng.gen_range(0.05..0.95);
    let y = rng.gen_range(0.05..0.95);
    match rng.gen_range(0..4) {
        0 => EngineEvent::TaskArrived(task(id, x, y, now, now + rng.gen_range(1.0..8.0))),
        1 => EngineEvent::WorkerCheckIn(worker(id, x, y, rng.gen_range(0.1..0.8))),
        2 => EngineEvent::WorkerMoved(WorkerId(rng.gen_range(0..id.max(1))), Point::new(x, y)),
        _ => EngineEvent::WorkerLeft(WorkerId(rng.gen_range(0..id.max(1)))),
    }
}

/// A pre-generated command, applied identically to a durable and an
/// in-memory partition (generation never looks at execution results, so the
/// same list can feed both sides and, later, the recovered side).
#[derive(Clone)]
enum Cmd {
    Submit(Vec<EngineEvent>),
    Tick(f64),
    Answer(WorkerId, Contribution),
    Release(WorkerId),
}

fn random_commands(seed: u64, steps: usize) -> Vec<Cmd> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut commands = Vec::new();
    let mut next_id = 0u32;
    let mut now = 0.0;
    for _ in 0..steps {
        let batch: Vec<EngineEvent> = (0..rng.gen_range(1..4))
            .map(|_| random_event(&mut rng, &mut next_id, now))
            .collect();
        commands.push(Cmd::Submit(batch));
        if rng.gen_bool(0.3) {
            // Answers and releases for arbitrary ids: most are no-ops, some
            // hit en-route workers — deterministically on every replica.
            let w = WorkerId(rng.gen_range(0..next_id.max(1)));
            if rng.gen_bool(0.5) {
                let contribution = Contribution::new(
                    Confidence::new(rng.gen_range(0.1..0.95)).unwrap(),
                    rng.gen_range(0.0..6.0),
                    now + rng.gen_range(0.0..2.0),
                );
                commands.push(Cmd::Answer(w, contribution));
            } else {
                commands.push(Cmd::Release(w));
            }
        }
        now += rng.gen_range(0.1..0.6);
        commands.push(Cmd::Tick(now));
    }
    commands
}

fn apply(part: &mut EnginePartition<FlatGridIndex>, cmd: &Cmd) {
    match cmd {
        Cmd::Submit(events) => part.submit(events.clone()),
        Cmd::Tick(now) => {
            part.tick(*now);
        }
        Cmd::Answer(worker, contribution) => {
            part.record_answer(*worker, *contribution);
        }
        Cmd::Release(worker) => part.release_worker(*worker),
    }
}

fn fresh_index() -> FlatGridIndex {
    FlatGridIndex::new(Rect::unit(), 0.1)
}

/// Random loggable records (no checkpoints: retirement intentionally drops
/// history, which would break the plain prefix comparison).
fn random_records(seed: u64, n: usize) -> Vec<WalRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u32;
    (0..n)
        .map(|i| match rng.gen_range(0..4) {
            0 => PartitionCommand::Submit(
                (0..rng.gen_range(1..3))
                    .map(|_| random_event(&mut rng, &mut next_id, i as f64))
                    .collect(),
            ),
            1 => PartitionCommand::Tick {
                now: i as f64 * 0.25,
            },
            2 => PartitionCommand::Answer {
                worker: WorkerId(rng.gen_range(0..64)),
                contribution: Contribution::new(
                    Confidence::new(0.5).unwrap(),
                    rng.gen_range(0.0..6.0),
                    i as f64,
                ),
            },
            _ => PartitionCommand::Release {
                worker: WorkerId(rng.gen_range(0..64)),
            },
        })
        .map(WalRecord::Command)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 1: arm a random fault, append a random record stream
    /// (stopping at the first injected error), and require every re-open to
    /// recover an exact prefix of what was offered.
    #[test]
    fn recovery_yields_a_prefix_under_write_faults(
        seed in 0u64..(1 << 48),
        n_records in 1usize..32,
        segment_bytes in 96u64..512,
        fault_kind in 0u8..4,
        fault_at in 0u64..2048,
    ) {
        let dir = tempdir("faults");
        let plan = FaultPlan::new();
        let factory: SegmentFactory = {
            let plan = plan.clone();
            Box::new(move |path| {
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(path)?;
                Ok(Box::new(FailpointWriter::new(file, plan.clone())) as Box<dyn WalFile>)
            })
        };
        let config = WalConfig { segment_bytes, checkpoint_every_ticks: 0, fsync_on_tick: true };
        let mut found = 0usize;
        let (mut wal, _) =
            Wal::open_with_factory(&dir, config, factory, |_| found += 1).unwrap();
        prop_assert_eq!(found, 0);

        match fault_kind {
            0 => {}
            1 => plan.persist_at_most(fault_at),
            2 => plan.flip_byte(fault_at),
            _ => plan.error_after_writes(fault_at % 48),
        }

        let offered = random_records(seed, n_records);
        let mut accepted = 0usize;
        for record in &offered {
            if wal.append(record).is_err() {
                break;
            }
            accepted += 1;
        }
        let _ = wal.sync();
        drop(wal);

        // Re-open with the real filesystem writer: repairs the damage and
        // recovers the valid prefix.
        let mut reopened = Vec::new();
        let (recovered, _) = Wal::open(&dir, config, |r| reopened.push(r)).unwrap();
        prop_assert!(
            reopened.len() <= accepted,
            "recovered {} records but only {accepted} were accepted",
            reopened.len()
        );
        prop_assert_eq!(
            &reopened[..],
            &offered[..reopened.len()],
            "recovery must be an exact prefix of the appended stream"
        );
        drop(recovered);

        // The repair is stable: a second open sees the identical prefix.
        prop_assert_eq!(scan_records(&dir), reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Contract 2: arbitrary bytes in segment-named files (plus a foreign
    /// file that must be ignored) never panic the scanner or the appender,
    /// and whatever prefix survives is stable across opens.
    #[test]
    fn garbage_directories_never_panic(
        bytes in proptest::collection::vec(0u32..256, 0..1024),
        second in proptest::collection::vec(0u32..256, 0..256),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let second: Vec<u8> = second.into_iter().map(|b| b as u8).collect();
        let dir = tempdir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-0000000000.log"), &bytes).unwrap();
        std::fs::write(dir.join("wal-0000000001.log"), &second).unwrap();
        std::fs::write(dir.join("configure.json"), b"not a segment").unwrap();

        let prefix = scan_records(&dir).len();
        let mut opened = 0usize;
        let (mut wal, _) = Wal::open(&dir, WalConfig::default(), |_| opened += 1).unwrap();
        prop_assert_eq!(opened, prefix);
        // The appender resumed past the garbage: new appends recover.
        let tick = PartitionCommand::Tick { now: 1.0 };
        wal.append_command(&tick).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let after = scan_records(&dir);
        prop_assert_eq!(after.len(), prefix + 1);
        prop_assert_eq!(
            after.last(),
            Some(&WalRecord::Command(tick))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Contract 3: crash a durable partition at a random command, recover,
    /// and require byte-identical canonical state to an uninterrupted
    /// partition fed the same prefix — then byte-identical continuation.
    #[test]
    fn recovery_is_byte_identical_across_checkpoint_schedules(
        seed in 0u64..(1 << 48),
        checkpoint_every in 0u64..5,
        segment_bytes in 256u64..4096,
        steps in 4usize..14,
        crash_frac in 0.0f64..1.0,
    ) {
        let dir = tempdir("schedules");
        let wal_config = WalConfig {
            segment_bytes,
            checkpoint_every_ticks: checkpoint_every,
            fsync_on_tick: true,
        };
        let commands = random_commands(seed, steps);
        let crash_at = ((commands.len() as f64) * crash_frac) as usize;

        let (mut durable, _) =
            EnginePartition::open_durable(&dir, wal_config, EngineConfig::default(), fresh_index)
                .unwrap();
        prop_assert_eq!(scan_records(&dir).len(), 0);
        let mut oracle =
            EnginePartition::new(AssignmentEngine::new(fresh_index(), EngineConfig::default()));

        for cmd in &commands[..crash_at] {
            apply(&mut durable, cmd);
            apply(&mut oracle, cmd);
        }
        // Crash: drop the handle with whatever the OS buffered. Same-system
        // reads see every appended byte, so recovery must reproduce the
        // full prefix regardless of where the last fsync landed.
        drop(durable);

        let (mut recovered, _) =
            EnginePartition::open_durable(&dir, wal_config, EngineConfig::default(), fresh_index)
                .unwrap();
        prop_assert_eq!(
            encode_partition_state(&recovered.dump_state()),
            encode_partition_state(&oracle.dump_state()),
            "recovered state must be byte-identical to uninterrupted execution \
             (checkpoint_every={checkpoint_every}, crash_at={crash_at}/{})",
            commands.len()
        );

        // And the recovered partition keeps executing identically.
        for cmd in &commands[crash_at..] {
            apply(&mut recovered, cmd);
            apply(&mut oracle, cmd);
        }
        prop_assert_eq!(recovered.state_digest(), oracle.state_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
