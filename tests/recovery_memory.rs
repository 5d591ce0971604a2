//! Recovery's memory does not grow with the log tail.
//!
//! `EnginePartition::open_durable` replays each record as it is decoded, so
//! the heap it needs above what it started with is the engine plus one
//! frame buffer and one decoded record — whatever the number of records
//! after the checkpoint. This binary counts every allocation (its own
//! `#[global_allocator]`, so it holds one test only: a second one running
//! beside it would be counted too), recovers two logs that start from the
//! same checkpoint and differ only in the length of their tail, and
//! requires the two peaks to be within 1.25× of each other. A recovery that
//! collected the tail before applying it peaks several times higher on the
//! longer log.

use rdbsc::platform::engine::{AssignmentEngine, EngineConfig, EngineEvent};
use rdbsc::platform::wal::{PartitionState, Wal, WalConfig};
use rdbsc::platform::{EnginePartition, PartitionCommand};
use rdbsc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WORKERS: u32 = 2000;

type Partition = EnginePartition<FlatGridIndex>;

fn fresh_index() -> FlatGridIndex {
    FlatGridIndex::new(Rect::unit(), 0.05)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rdbsc-recovery-memory-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The checkpointed state: every worker checked in and ticked once.
fn checkpoint() -> PartitionState {
    let mut part = Partition::new(AssignmentEngine::new(
        fresh_index(),
        EngineConfig::default(),
    ));
    part.submit(
        (0..WORKERS)
            .map(|j| {
                let worker = Worker::new(
                    WorkerId(j),
                    position(j, 0),
                    0.25,
                    AngleRange::full(),
                    Confidence::new(0.9).unwrap(),
                )
                .unwrap();
                EngineEvent::WorkerCheckIn(worker)
            })
            .collect(),
    );
    part.tick(0.0);
    part.dump_state()
}

/// Worker `j`'s position after `step` moves.
fn position(j: u32, step: u32) -> Point {
    let cell = |k: u32| 0.01 + 0.98 * f64::from(k % 97) / 97.0;
    Point::new(cell(j + 3 * step), cell(j / 97 + 5 * step))
}

/// A log holding `state` as its checkpoint, then `submits` rounds of every
/// worker moving, each followed by a tick.
fn write_log(dir: &Path, state: &PartitionState, submits: u32) {
    let config = WalConfig::default();
    let (mut wal, _) = Wal::open(dir, config, |_| {}).unwrap();
    wal.append_checkpoint(state, 1).unwrap();
    for step in 1..=submits {
        let moves: Vec<EngineEvent> = (0..WORKERS)
            .map(|j| EngineEvent::WorkerMoved(WorkerId(j), position(j, step)))
            .collect();
        wal.append_events(&moves).unwrap();
        wal.append_command(&PartitionCommand::Tick {
            now: 0.05 * f64::from(step),
        })
        .unwrap();
    }
    wal.sync().unwrap();
}

/// Recovers `dir` and returns the heap peak above the live bytes before the
/// open (the recovered partition is still held at the peak's end).
fn recovery_peak(dir: &Path, submits: u32) -> usize {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let (part, scan) = Partition::open_durable(
        dir,
        WalConfig::default(),
        EngineConfig::default(),
        fresh_index,
    )
    .unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert!(!scan.found_damage());
    let stats = part.wal_stats().unwrap();
    assert!(stats.recovered_checkpoint);
    assert_eq!(stats.recovered_records, 2 * u64::from(submits));
    peak
}

#[test]
fn recovery_peak_heap_does_not_grow_with_the_tail() {
    let state = checkpoint();
    let (short, long) = (scratch_dir("short"), scratch_dir("long"));
    write_log(&short, &state, 16);
    write_log(&long, &state, 64);
    drop(state);

    let short_peak = recovery_peak(&short, 16);
    let long_peak = recovery_peak(&long, 64);
    let ratio = long_peak.max(short_peak) as f64 / long_peak.min(short_peak) as f64;
    eprintln!(
        "recovery heap peak: {short_peak} B for a 16-submit tail, \
         {long_peak} B for a 64-submit tail ({ratio:.2}x)"
    );
    assert!(
        ratio <= 1.25,
        "the recovery peak grows with the tail: {short_peak} B for 16 submits, \
         {long_peak} B for 64 ({ratio:.2}x)"
    );
    for dir in [short, long] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
