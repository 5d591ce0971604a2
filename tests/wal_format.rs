//! The on-disk log format is a contract across commits: segment bytes,
//! CRC values and record vocabulary written by an older build must recover
//! under this one, digest for digest.
//!
//! `tests/fixtures/wal-v1/` is a data directory written by the build at
//! commit `164f35a` (the last one to encode a payload into its own buffer
//! and checksum it byte by byte, `SEGMENT_VERSION` 1): [`script`] run
//! through `EnginePartition::open_durable` with [`wal_config`], then dropped
//! without a shutdown. It holds a retired history, a checkpoint segment and
//! a tail of every command kind.

use rdbsc::platform::engine::{EngineConfig, EngineEvent};
use rdbsc::platform::wal::{scan_dir, WalConfig, SEGMENT_VERSION};
use rdbsc::platform::EnginePartition;
use rdbsc::prelude::*;
use std::path::{Path, PathBuf};

type Partition = EnginePartition<FlatGridIndex>;

/// The state digest the writing build printed after [`script`].
const WRITER_DIGEST: u64 = 0xe2a7_1e94_a99f_deb1;

fn wal_config() -> WalConfig {
    WalConfig {
        segment_bytes: 1024,
        checkpoint_every_ticks: 4,
        fsync_on_tick: true,
    }
}

fn fresh_index() -> FlatGridIndex {
    FlatGridIndex::new(Rect::unit(), 0.1)
}

/// Seven rounds of arrivals, check-ins, moves, a departure, an expiry,
/// answers and a release: the checkpoint lands after the fourth tick and
/// three more rounds follow it.
fn script(part: &mut Partition) {
    for round in 0..7u32 {
        let now = round as f64 * 0.5;
        let base = round * 4;
        let at = |k: u32| 0.1 + 0.11 * ((base + k) % 8) as f64;
        let mut events = vec![
            EngineEvent::TaskArrived(Task::new(
                TaskId(round),
                Point::new(at(0), at(1)),
                TimeWindow::new(now, now + 3.0).unwrap(),
            )),
            EngineEvent::TaskArrived(
                Task::with_beta(
                    TaskId(100 + round),
                    Point::new(at(2), at(3)),
                    TimeWindow::new(now, now + 2.0).unwrap(),
                    0.25,
                )
                .unwrap(),
            ),
        ];
        for k in 0..3 {
            let worker = Worker::new(
                WorkerId(base + k),
                Point::new(at(k) + 0.03, at(k + 1) - 0.02),
                0.2 + 0.05 * k as f64,
                AngleRange::full(),
                Confidence::new(0.8 + 0.05 * k as f64).unwrap(),
            )
            .unwrap();
            events.push(EngineEvent::WorkerCheckIn(worker));
        }
        if round > 0 {
            events.push(EngineEvent::WorkerMoved(
                WorkerId(base - 4),
                Point::new(at(1), at(0)),
            ));
            events.push(EngineEvent::WorkerLeft(WorkerId(base - 3)));
            events.push(EngineEvent::TaskExpired(TaskId(100 + round - 1)));
        }
        part.submit(events);
        let tick = part.tick(now);
        for (i, pair) in tick.report.new_assignments.iter().enumerate() {
            if i % 3 == 2 {
                part.release_worker(pair.worker);
            } else {
                part.record_answer(pair.worker, pair.contribution);
            }
        }
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal-v1")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdbsc-wal-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_names(dir: &Path) -> Vec<std::ffi::OsString> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    names.sort();
    names
}

#[test]
fn a_data_dir_written_by_the_previous_build_recovers_digest_identical() {
    assert_eq!(
        SEGMENT_VERSION, 1,
        "a format bump needs a new fixture, not an edit"
    );
    let dir = scratch_dir("recover");
    std::fs::create_dir_all(&dir).unwrap();
    for name in file_names(&fixture_dir()) {
        std::fs::copy(fixture_dir().join(&name), dir.join(&name)).unwrap();
    }
    let mut kinds: Vec<&str> = Vec::new();
    let scan = scan_dir(&dir, |r| kinds.push(r.kind())).unwrap();
    assert!(!scan.found_damage(), "every old frame's CRC verifies");
    assert!(scan.segments >= 2, "the writer's log rotated");
    kinds.dedup();
    assert_eq!(kinds[0], "checkpoint");
    for kind in ["events", "tick", "answer", "release"] {
        assert!(
            kinds.contains(&kind),
            "the tail holds a {kind} record: {kinds:?}"
        );
    }

    let (recovered, _) =
        Partition::open_durable(&dir, wal_config(), EngineConfig::default(), fresh_index).unwrap();
    assert!(recovered.wal_stats().unwrap().recovered_checkpoint);
    assert_eq!(recovered.state_digest(), WRITER_DIGEST);

    // And this build, given the same commands, is in that state too.
    let mut oracle = EnginePartition::new(rdbsc::platform::engine::AssignmentEngine::new(
        fresh_index(),
        EngineConfig::default(),
    ));
    script(&mut oracle);
    assert_eq!(oracle.state_digest(), WRITER_DIGEST);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn this_build_writes_the_fixture_byte_for_byte() {
    let dir = scratch_dir("write");
    let (mut part, _) =
        Partition::open_durable(&dir, wal_config(), EngineConfig::default(), fresh_index).unwrap();
    script(&mut part);
    drop(part);
    let fixture = fixture_dir();
    let names = file_names(&fixture);
    assert_eq!(file_names(&dir), names);
    for name in names {
        assert_eq!(
            std::fs::read(dir.join(&name)).unwrap(),
            std::fs::read(fixture.join(&name)).unwrap(),
            "{name:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
