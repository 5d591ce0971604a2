//! Pins the partition wire byte for byte. `proptest_frame` only proves that
//! encode and decode agree with *each other*; this file records what the
//! bytes *are*, as hex literals taken at frame version 3, for the `Hello` /
//! `Configure` handshake, the four partition commands and the
//! `Assignments` / `Snapshot` reads — one request and one reply frame each,
//! checked in both directions on both tiers:
//!
//! * the router-side client must **write** exactly the request literals and
//!   **read** the reply literals back into exactly the platform values
//!   ([`client_writes_the_request_literals_and_reads_the_reply_literals`],
//!   [`attach_writes_the_handshake_literals_and_reads_the_replies`]);
//! * a daemon must **read** the same request literals and **write** exactly
//!   the recorded replies ([`daemon_reads_the_request_literals_and_writes_the_recorded_replies`]).
//!
//! Only [`PartitionClient`]'s methods, [`connect_remote_partition`], the
//! daemon and raw sockets are used — no frame type is named — so this file
//! compiles unchanged against any build that keeps the bytes, whatever its
//! frame enums look like.

use rdbsc_cluster::RegionPartition;
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::MaintenanceCounters;
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Confidence, Contribution, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{
    EngineConfig, EngineEvent, EngineObjective, EngineSnapshot, PartitionClient, PartitionTick,
    TickReport, WalStats,
};
use rdbsc_server::{
    connect_remote_partition, BinaryPartitionClient, PartitionDaemon, PartitiondConfig,
    ServerError,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// The literals. Header: magic b5dc, version 03, tag, request id u64 LE,
// payload length u32 LE; then the payload.

const TRACE: u64 = 0x1122_3344_5566_7788;

/// `hello`, request 1: empty payload.
const HELLO_REQUEST: &str = "b5dc030f010000000000000000000000";
/// `configure`, request 2: the canonical configure text of one region over
/// the unit square at cell size 0.1 with the default engine config (the
/// bytes a daemon keeps as its fingerprint), as a length-prefixed string.
const CONFIGURE_REQUEST: &str = concat!(
    "b5dc0310020000000000000006010000020100007b2263656c6c5f73697a65223a302e31",
    "2c22656e67696e65223a7b226175746f5f657870697265223a747275652c226265746122",
    "3a302e352c22706172616c6c656c69736d223a302c2273656564223a223432227d2c2270",
    "726f746f636f6c5f76657273696f6e223a312c22726567696f6e5f696e646578223a302c",
    "22726f7574696e67223a7b2263656c6c735f7065725f61786973223a31302c2272656769",
    "6f6e73223a5b7b22636f6c30223a302c22636f6c31223a31302c22726f7730223a302c22",
    "726f7731223a31307d5d2c227370616365223a7b226d61785f78223a312c226d61785f79",
    "223a312c226d696e5f78223a302c226d696e5f79223a307d7d7d",
);
/// `hello`, request 3, sent once configured.
const HELLO_AGAIN_REQUEST: &str = "b5dc030f030000000000000000000000";

/// `submit`, request 1: trace, 6 events — task 1 (β 0.75), worker 7 (cone
/// 1.0+1.5, available from 0.25), worker 8, a move, an expiry, a check-out.
const SUBMIT_REQUEST: &str = concat!(
    "b5dc03010100000000000000d300000088776655443322110600000000010000009a9999",
    "999999d93f000000000000e03f0000000000000000000000000000144001000000000000",
    "e83f02070000009a9999999999d93fcdccccccccccdc3f333333333333d33f0000000000",
    "00f03f000000000000f83f000000000000ec3f000000000000d03f0208000000cdcccccc",
    "ccccdc3f000000000000e03f9a9999999999c93f0000000000000000182d4454fb211940",
    "cdccccccccccec3f00000000000000000308000000000000000000e03f000000000000e0",
    "3f01630000000462000000",
);
/// `tick`, request 2: trace, now = 1.5.
const TICK_REQUEST: &str = "b5dc03020200000000000000100000008877665544332211000000000000f83f";
/// `assignments`, request 3: empty payload.
const ASSIGNMENTS_REQUEST: &str = "b5dc0305030000000000000000000000";
/// `answer`, request 4: worker 7, confidence 0.875, angle 1.5, arrival 1.75.
const ANSWER_REQUEST: &str = concat!(
    "b5dc030304000000000000001c00000007000000000000000000ec3f000000000000f83f",
    "000000000000fc3f",
);
/// `release`, request 5: worker 8.
const RELEASE_REQUEST: &str = "b5dc030405000000000000000400000008000000";
/// `snapshot`, request 6: empty payload.
const SNAPSHOT_REQUEST: &str = "b5dc0306060000000000000000000000";

/// Protocol v1, no region yet, not draining, not a standby.
const HELLO_REPLY: &str = "b5dc038f01000000000000000700000001000000000000";
/// Configured now (not before).
const CONFIGURE_REPLY: &str = "b5dc039002000000000000000100000000";
/// Protocol v1, region 0, not draining, not a standby.
const HELLO_AGAIN_REPLY: &str = "b5dc038f03000000000000000b0000000100000001000000000000";
/// What a daemon from before the `Hello` frame answers it with: an in-band
/// `400` naming the unknown tag.
const UNKNOWN_TAG_REPLY: &str = concat!(
    "b5dc03ff01000000000000002f0000009001290000006d616c666f726d6564206672616d",
    "653a20756e6b6e6f776e20636f6d6d616e64207461672030783066",
);

/// Submit accepted, 6 events in the batch.
const SUBMIT_REPLY: &str = "b5dc038101000000000000000400000006000000";
/// Answer banked.
const ANSWER_REPLY: &str = "b5dc038304000000000000000100000001";
/// Release processed.
const RELEASE_REPLY: &str = "b5dc0384050000000000000000000000";
/// [`tick_value`], encoded.
const TICK_REPLY: &str = concat!(
    "b5dc03820200000000000000f9000000000000000000f83f060000000000000001000000",
    "000000000200000000000000110000000000000002000000060000004752454544590300",
    "0000442643020000000100000007000000000000000000ec3f000000000000d03f000000",
    "0000000c400200000008000000000000000000e03f000000000000f83f00000000000011",
    "40000000000000603f02000000000000000000503f000000000000403f05000000000000",
    "00020000000000000003000000000000000200000007000000080000000b000000000000",
    "00160000000000000021000000000000002c000000000000003700000000000000420000",
    "00000000008877665544332211",
);
/// [`pairs_value`], encoded.
const ASSIGNMENTS_REPLY: &str = concat!(
    "b5dc0385030000000000000044000000020000000100000007000000000000000000ec3f",
    "000000000000d03f0000000000000c400200000008000000000000000000e03f00000000",
    "0000f83f0000000000001140",
);
/// [`snapshot_value`], encoded.
const SNAPSHOT_REPLY: &str = concat!(
    "b5dc03860600000000000000ba000000000000000000f83f000000000000084000000000",
    "00001840000000000000f03f000000000000004000000000000010400000000000000040",
    "000000000000f03f0000000000001440000000000000ee3f000000000000f43f00000000",
    "000000400000000000001c400000000000000840000000000000f03f0100000000000000",
    "40000000000000f03f000000000000b04000000000000028400000000000000840000000",
    "000000f03f0000000000005040000000000000144001",
);

/// What a daemon answers to [`TICK_REQUEST`] after [`SUBMIT_REQUEST`], with
/// the wall-clock fields zeroed (see [`mask_tick_timings`]).
const DAEMON_TICK_REPLY: &str = concat!(
    "b5dc03820200000000000000ea000000000000000000f83f060000000000000000000000",
    "000000000100000000000000020000000000000001000000060000004752454544590200",
    "00000100000008000000cdccccccccccec3f000000000000000000000000000000400100",
    "000007000000000000000000ec3fd221337f7cd91240aaaaaaaaaaaafa3f000000000000",
    "000001000000000000000000000001000000000000000200000000000000020000000000",
    "000002000000070000000800000000000000000000000000000000000000000000000000",
    "00000000000000000000000000000000000000000000000000008877665544332211",
);
/// What it then answers to [`ASSIGNMENTS_REQUEST`].
const DAEMON_ASSIGNMENTS_REPLY: &str = concat!(
    "b5dc0385030000000000000044000000020000000100000007000000000000000000ec3f",
    "d221337f7cd91240aaaaaaaaaaaafa3f0100000008000000cdccccccccccec3f00000000",
    "000000000000000000000040",
);
/// What it answers to [`SNAPSHOT_REQUEST`] after the answer and the release.
const DAEMON_SNAPSHOT_REPLY: &str = concat!(
    "b5dc0386060000000000000079000000000000000000f83f000000000000f03f00000000",
    "000018400000000000000000000000000000f03f00000000000000400000000000000000",
    "000000000000f03f0000000000000040000000000000ec3fefa51fc3e520c23f00000000",
    "0000f03f000000000000f03f0000000000000040000000000000004000",
);

// ---------------------------------------------------------------------------
// The values the literals stand for.

fn events() -> Vec<EngineEvent> {
    let task = Task::with_beta(
        TaskId(1),
        Point::new(0.4, 0.5),
        TimeWindow::new(0.0, 5.0).unwrap(),
        0.75,
    )
    .unwrap();
    let coned = Worker::new(
        WorkerId(7),
        Point::new(0.4, 0.45),
        0.3,
        AngleRange::new(1.0, 1.5),
        Confidence::new(0.875).unwrap(),
    )
    .unwrap()
    .with_available_from(0.25);
    let free = Worker::new(
        WorkerId(8),
        Point::new(0.45, 0.5),
        0.2,
        AngleRange::full(),
        Confidence::new(0.9).unwrap(),
    )
    .unwrap();
    vec![
        EngineEvent::TaskArrived(task),
        EngineEvent::WorkerCheckIn(coned),
        EngineEvent::WorkerCheckIn(free),
        EngineEvent::WorkerMoved(WorkerId(8), Point::new(0.5, 0.5)),
        EngineEvent::TaskExpired(TaskId(99)),
        EngineEvent::WorkerLeft(WorkerId(98)),
    ]
}

fn answer() -> (WorkerId, Contribution) {
    (
        WorkerId(7),
        Contribution::new(Confidence::new(0.875).unwrap(), 1.5, 1.75),
    )
}

fn pair(task: u32, worker: u32, confidence: f64, angle: f64, arrival: f64) -> ValidPair {
    ValidPair {
        task: TaskId(task),
        worker: WorkerId(worker),
        contribution: Contribution::new(Confidence::new(confidence).unwrap(), angle, arrival),
    }
}

fn pairs_value() -> Vec<ValidPair> {
    vec![pair(1, 7, 0.875, 0.25, 3.5), pair(2, 8, 0.5, 1.5, 4.25)]
}

/// A tick with every field distinct and non-zero (all floats dyadic, so the
/// source text is the exact value).
fn tick_value() -> PartitionTick {
    PartitionTick {
        report: TickReport {
            now: 1.5,
            events_applied: 6,
            tasks_expired: 1,
            num_shards: 2,
            largest_shard_pairs: 17,
            strategies: vec!["GREEDY", "D&C"],
            new_assignments: pairs_value(),
            solve_seconds: 0.001953125,
            shard_solve_seconds: vec![0.0009765625, 0.00048828125],
            index_maintenance: MaintenanceCounters {
                relocations: 5,
                cells_repaired: 2,
                tcell_rebuilds: 3,
            },
            stages: rdbsc_obs::StageTimings::from_values([11, 22, 33, 44, 55, 66]),
        },
        committed: vec![WorkerId(7), WorkerId(8)],
        trace: TRACE,
    }
}

fn snapshot_value() -> EngineSnapshot {
    EngineSnapshot {
        now: 1.5,
        ticks: 3,
        events_applied: 6,
        pending_events: 1,
        live_tasks: 2,
        live_workers: 4,
        committed_workers: 2,
        banked_answers: 1,
        total_assignments: 5,
        objective: EngineObjective {
            min_reliability: 0.9375,
            total_std: 1.25,
            covered_tasks: 2,
        },
        index_counters: MaintenanceCounters {
            relocations: 7,
            cells_repaired: 3,
            tcell_rebuilds: 1,
        },
        wal: Some(WalStats {
            segments: 2,
            segments_retired: 1,
            bytes_appended: 4096,
            records_appended: 12,
            fsyncs: 3,
            checkpoints: 1,
            last_checkpoint_tick: 64,
            recovered_records: 5,
            recovered_checkpoint: true,
        }),
    }
}

// ---------------------------------------------------------------------------
// Byte plumbing.

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    assert!(!text.is_empty() && text.len().is_multiple_of(2), "a literal is missing");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Reads one whole frame — 16-byte header, then as many payload bytes as
/// its last four bytes declare — and returns every byte of it.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 16];
    stream.read_exact(&mut frame).expect("frame header");
    let len = u32::from_le_bytes(frame[12..16].try_into().unwrap()) as usize;
    frame.resize(16 + len, 0);
    stream.read_exact(&mut frame[16..]).expect("frame payload");
    frame
}

/// Zeroes the fields of a tick reply that hold wall-clock measurements:
/// `solve_seconds`, each `shard_solve_seconds` entry and the six stage
/// timings. Walks the layout from the front, so it also pins where those
/// fields sit.
fn mask_tick_timings(frame: &mut [u8]) {
    let u32_at = |frame: &[u8], at: usize| {
        u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize
    };
    // Header, now, four u64 counters.
    let mut at = 16 + 8 + 4 * 8;
    let strategies = u32_at(frame, at);
    at += 4;
    for _ in 0..strategies {
        at += 4 + u32_at(frame, at);
    }
    let assignments = u32_at(frame, at);
    at += 4 + assignments * 32;
    frame[at..at + 8].fill(0); // solve_seconds
    at += 8;
    let shards = u32_at(frame, at);
    at += 4;
    frame[at..at + shards * 8].fill(0); // shard_solve_seconds
    at += shards * 8;
    at += 3 * 8; // index maintenance counters
    let committed = u32_at(frame, at);
    at += 4 + committed * 4;
    frame[at..at + 6 * 8].fill(0); // stage timings
    at += 6 * 8;
    assert_eq!(at + 8, frame.len(), "the echoed trace id ends the frame");
}

// ---------------------------------------------------------------------------

/// A scripted peer: answers the n-th frame it reads with the n-th reply
/// literal and hands back, as hex, what it read.
fn scripted_peer(replies: &'static [&'static str]) -> (String, JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut requests = Vec::new();
        for reply in replies {
            requests.push(hex(&read_frame(&mut stream)));
            stream.write_all(&unhex(reply)).unwrap();
        }
        requests
    });
    (addr, peer)
}

fn unit_region() -> RegionPartition {
    RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1))
}

#[test]
fn attach_writes_the_handshake_literals_and_reads_the_replies() {
    let (addr, peer) = scripted_peer(&[HELLO_REPLY, CONFIGURE_REPLY]);
    let attached =
        connect_remote_partition(&addr, &unit_region(), 0, 0.1, &EngineConfig::default(), None);
    assert!(attached.is_ok(), "{:?}", attached.err());
    assert_eq!(peer.join().unwrap(), [HELLO_REQUEST, CONFIGURE_REQUEST]);
}

/// A daemon built before the `Hello` frame answers its tag with an in-band
/// `400`: the attach is a typed conflict that names the daemon and says
/// what to do, and nothing else is sent.
#[test]
fn a_daemon_without_the_hello_frame_is_refused_with_a_typed_conflict() {
    let (addr, peer) = scripted_peer(&[UNKNOWN_TAG_REPLY]);
    let refusal =
        connect_remote_partition(&addr, &unit_region(), 0, 0.1, &EngineConfig::default(), None)
            .err()
            .expect("a daemon without the Hello frame cannot be attached");
    match &refusal {
        ServerError::Conflict(why) => {
            assert!(why.contains(&addr), "{why}");
            assert!(why.contains("upgrade the daemon"), "{why}");
        }
        other => panic!("expected a conflict, got {other}"),
    }
    assert_eq!(peer.join().unwrap(), [HELLO_REQUEST]);
}

#[test]
fn client_writes_the_request_literals_and_reads_the_reply_literals() {
    let (addr, peer) = scripted_peer(&[
        SUBMIT_REPLY,
        TICK_REPLY,
        ASSIGNMENTS_REPLY,
        ANSWER_REPLY,
        RELEASE_REPLY,
        SNAPSHOT_REPLY,
    ]);

    let mut client = BinaryPartitionClient::connect(&addr).unwrap();
    client.set_trace(TRACE);
    client.begin_submit(events()).unwrap();
    client.finish_submit().unwrap();
    client.begin_tick(1.5).unwrap();
    assert_eq!(client.finish_tick().unwrap(), tick_value());
    assert_eq!(client.assignments().unwrap(), pairs_value());
    let (worker, contribution) = answer();
    assert!(client.record_answer(worker, contribution).unwrap());
    client.release_worker(WorkerId(8)).unwrap();
    assert_eq!(client.snapshot().unwrap(), snapshot_value());

    assert_eq!(
        peer.join().unwrap(),
        [
            SUBMIT_REQUEST,
            TICK_REQUEST,
            ASSIGNMENTS_REQUEST,
            ANSWER_REQUEST,
            RELEASE_REQUEST,
            SNAPSHOT_REQUEST,
        ]
    );
}

#[test]
fn daemon_reads_the_request_literals_and_writes_the_recorded_replies() {
    let daemon = PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        ..PartitiondConfig::default()
    })
    .unwrap();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut exchange = |request: &str| {
        stream.write_all(&unhex(request)).unwrap();
        read_frame(&mut stream)
    };
    assert_eq!(hex(&exchange(HELLO_REQUEST)), HELLO_REPLY);
    assert_eq!(hex(&exchange(CONFIGURE_REQUEST)), CONFIGURE_REPLY);
    assert_eq!(hex(&exchange(HELLO_AGAIN_REQUEST)), HELLO_AGAIN_REPLY);
    assert_eq!(hex(&exchange(SUBMIT_REQUEST)), SUBMIT_REPLY);
    let mut tick = exchange(TICK_REQUEST);
    mask_tick_timings(&mut tick);
    assert_eq!(hex(&tick), DAEMON_TICK_REPLY);
    assert_eq!(hex(&exchange(ASSIGNMENTS_REQUEST)), DAEMON_ASSIGNMENTS_REPLY);
    assert_eq!(hex(&exchange(ANSWER_REQUEST)), ANSWER_REPLY);
    assert_eq!(hex(&exchange(RELEASE_REQUEST)), RELEASE_REPLY);
    assert_eq!(hex(&exchange(SNAPSHOT_REQUEST)), DAEMON_SNAPSHOT_REPLY);

    daemon.shutdown();
    daemon.join();
}

