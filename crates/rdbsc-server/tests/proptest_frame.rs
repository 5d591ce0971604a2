//! Fuzz-style property tests for the binary frame codec: every request and
//! reply round-trips through encode → read → decode for arbitrary field
//! values (including hostile strings and extreme float bit patterns), and
//! the decoder never panics on random bytes, truncated frames, or
//! bit-flipped frames — it fails with [`FrameError`] instead. A command that
//! is well framed but carries a value the model or the admission check
//! rejects is answered `400` in-band by a live daemon, whose state does not
//! move.

use proptest::prelude::*;
use rdbsc_cluster::RegionPartition;
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::MaintenanceCounters;
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Confidence, Contribution, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{
    CommandOutcome, EngineConfig, EngineEvent, EngineObjective, EngineSnapshot, PartitionCommand,
    PartitionReply, PartitionRequest, PartitionTick, ReplReply, ReplRequest, TickReport, WalStats,
};
use rdbsc_server::frame::{
    self, FrameError, RawFrame, ReplyBody, ReplyFrame, RequestBody, RequestFrame, FRAME_VERSION,
    HEADER_LEN, MAGIC,
};
use rdbsc_server::{
    connect_remote_partition, FrameConn, Hello, HttpClient, PartitionDaemon, PartitiondConfig,
};
use std::io::{Cursor, Write};
use std::time::Duration;

const MAX_PAYLOAD: usize = 1 << 20;

/// Reads one frame back out of an encoded buffer.
fn read_back(bytes: &[u8]) -> Result<Option<RawFrame>, FrameError> {
    frame::read_raw(&mut Cursor::new(bytes), MAX_PAYLOAD)
}

fn finite() -> impl Strategy<Value = f64> {
    -1.0e12f64..1.0e12
}

/// An arbitrary short string, including non-ASCII code points.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x2100, 0..12).prop_map(|points| {
        points
            .into_iter()
            .filter_map(char::from_u32)
            .collect::<String>()
    })
}

fn flag() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// One valid engine event with arbitrary finite payloads — the frame
/// carries model values, so only valid ones can be built to begin with.
fn event() -> impl Strategy<Value = EngineEvent> {
    (
        0u32..5,
        0u32..=u32::MAX,
        (
            finite(),
            finite(),
            0.0f64..1.0e6,
            0.0f64..=1.0,
            finite(),
            finite(),
        ),
        (flag(), flag()),
    )
        .prop_map(
            |(kind, id, (a, b, c, unit, e, f), (opt1, opt2))| match kind {
                0 => {
                    let window = TimeWindow::new(e, e + c).unwrap();
                    EngineEvent::TaskArrived(if opt1 {
                        Task::with_beta(TaskId(id), Point::new(a, b), window, unit).unwrap()
                    } else {
                        Task::new(TaskId(id), Point::new(a, b), window)
                    })
                }
                1 => EngineEvent::TaskExpired(TaskId(id)),
                2 => EngineEvent::WorkerCheckIn(
                    Worker::new(
                        WorkerId(id),
                        Point::new(a, b),
                        c,
                        if opt2 {
                            AngleRange::new(e, f)
                        } else {
                            AngleRange::full()
                        },
                        Confidence::new(unit).unwrap(),
                    )
                    .unwrap()
                    .with_available_from(f),
                ),
                3 => EngineEvent::WorkerMoved(WorkerId(id), Point::new(a, b)),
                _ => EngineEvent::WorkerLeft(WorkerId(id)),
            },
        )
}

/// One partition request with arbitrary fields: the data-path body.
fn partition_request() -> impl Strategy<Value = PartitionRequest> {
    (
        0u32..10,
        0u64..=u64::MAX,
        0u32..=u32::MAX,
        (finite(), 0.0f64..=1.0, finite(), finite()),
        proptest::collection::vec(event(), 0..8),
    )
        .prop_map(|(kind, trace, worker, (w, unit, y, z), events)| {
            let worker_id = WorkerId(worker);
            // Only a submit's or a tick's trace id crosses the wire.
            let apply = |trace, command| PartitionRequest::Apply { trace, command };
            match kind {
                0 => apply(trace, PartitionCommand::Submit(events)),
                1 => apply(trace, PartitionCommand::Tick { now: w }),
                // The angle as written, not normalised: decoding must not
                // touch it (admission does, later).
                2 => apply(
                    0,
                    PartitionCommand::Answer {
                        worker: worker_id,
                        contribution: Contribution {
                            confidence: Confidence::new(unit).unwrap(),
                            angle: y,
                            arrival: z,
                        },
                    },
                ),
                3 => apply(0, PartitionCommand::Release { worker: worker_id }),
                4 => PartitionRequest::Assignments,
                5 => PartitionRequest::Snapshot,
                6 => PartitionRequest::IsActive,
                7 => PartitionRequest::HasWorker(worker_id),
                8 => PartitionRequest::Drain,
                _ => PartitionRequest::Shutdown,
            }
        })
}

/// A partition request on ten of sixteen draws, so every request tag is
/// drawn alike.
fn request() -> impl Strategy<Value = RequestFrame> {
    (
        0u32..16,
        0u64..=u64::MAX,
        partition_request(),
        0u64..=u64::MAX,
        0u32..=u32::MAX,
        text(),
    )
        .prop_map(|(kind, request_id, partition, lsn, max, configure)| {
            let body = match kind {
                0..=9 => RequestBody::Partition(partition),
                10 => RequestBody::Repl(ReplRequest::Bootstrap),
                // Lsns are u64 on the wire: values above 2^53 (which a JSON
                // number could not hold exactly) must survive bit for bit.
                11 => RequestBody::Repl(ReplRequest::Fetch {
                    from: lsn | (1 << 60),
                    ack: lsn | (1 << 59),
                    max,
                }),
                12 => RequestBody::Repl(ReplRequest::Status),
                13 => RequestBody::Repl(ReplRequest::Promote),
                14 => RequestBody::Hello,
                // The configure text is opaque to the codec: any string.
                _ => RequestBody::Configure(configure),
            };
            RequestFrame { request_id, body }
        })
}

fn pair() -> impl Strategy<Value = ValidPair> {
    (
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        0.0f64..=1.0,
        finite(),
        finite(),
    )
        .prop_map(|(task, worker, confidence, angle, arrival)| ValidPair {
            task: TaskId(task),
            worker: WorkerId(worker),
            contribution: Contribution::new(Confidence::new(confidence).unwrap(), angle, arrival),
        })
}

/// A full tick: every `StageTimings` slot non-zero and every counter
/// allowed past 2^53.
fn tick() -> impl Strategy<Value = PartitionTick> {
    (
        (
            finite(),
            proptest::collection::vec(0usize..=usize::MAX, 4),
            proptest::collection::vec(0usize..4, 0..4),
            proptest::collection::vec(pair(), 0..6),
        ),
        (
            finite(),
            proptest::collection::vec(finite(), 0..4),
            proptest::collection::vec(0u64..=u64::MAX, 3),
            proptest::collection::vec(0u32..=u32::MAX, 0..6),
            proptest::collection::vec(1u64..=u64::MAX, 6),
            0u64..=u64::MAX,
        ),
    )
        .prop_map(
            |(
                (now, counts, strategy_picks, new_assignments),
                (solve_seconds, shard_solve_seconds, index, committed, stage_us, trace),
            )| PartitionTick {
                report: TickReport {
                    now,
                    events_applied: counts[0],
                    tasks_expired: counts[1],
                    num_shards: counts[2],
                    largest_shard_pairs: counts[3],
                    strategies: strategy_picks
                        .into_iter()
                        .map(|i| ["GREEDY", "SAMPLING", "D&C", "G-TRUTH"][i])
                        .collect(),
                    new_assignments,
                    solve_seconds,
                    shard_solve_seconds,
                    index_maintenance: MaintenanceCounters {
                        relocations: index[0],
                        cells_repaired: index[1],
                        tcell_rebuilds: index[2],
                    },
                    stages: rdbsc_obs::StageTimings::from_values([
                        stage_us[0],
                        stage_us[1],
                        stage_us[2],
                        stage_us[3],
                        stage_us[4],
                        stage_us[5],
                    ]),
                },
                committed: committed.into_iter().map(WorkerId).collect(),
                trace,
            },
        )
}

/// A snapshot whose counters stay below 2^53: they cross the wire as
/// `f64`s.
fn snapshot() -> impl Strategy<Value = EngineSnapshot> {
    let counter = || 0u64..(1 << 53);
    (
        (finite(), finite(), finite()),
        proptest::collection::vec(counter(), 12),
        (flag(), flag()),
        proptest::collection::vec(counter(), 8),
    )
        .prop_map(
            |((now, min_reliability, total_std), c, (has_wal, recovered_checkpoint), w)| {
                EngineSnapshot {
                    now,
                    ticks: c[0],
                    events_applied: c[1],
                    pending_events: c[2] as usize,
                    live_tasks: c[3] as usize,
                    live_workers: c[4] as usize,
                    committed_workers: c[5] as usize,
                    banked_answers: c[6] as usize,
                    total_assignments: c[7],
                    objective: EngineObjective {
                        min_reliability,
                        total_std,
                        covered_tasks: c[8] as usize,
                    },
                    index_counters: MaintenanceCounters {
                        relocations: c[9],
                        cells_repaired: c[10],
                        tcell_rebuilds: c[11],
                    },
                    wal: has_wal.then_some(WalStats {
                        segments: w[0],
                        segments_retired: w[1],
                        bytes_appended: w[2],
                        records_appended: w[3],
                        fsyncs: w[4],
                        checkpoints: w[5],
                        last_checkpoint_tick: w[6],
                        recovered_records: w[7],
                        recovered_checkpoint,
                    }),
                }
            },
        )
}

fn reply() -> impl Strategy<Value = ReplyFrame> {
    (
        (
            0u32..15,
            0u64..=u64::MAX,
            0u32..=u32::MAX,
            flag(),
            0u16..=u16::MAX,
        ),
        text(),
        proptest::collection::vec(pair(), 0..6),
        tick(),
        snapshot(),
    )
        .prop_map(
            |((kind, request_id, events, yes, status), detail, assignments, tick, snap)| {
                let partition = ReplyBody::Partition;
                let applied = |outcome| partition(PartitionReply::Applied(outcome));
                let body = match kind {
                    0 => applied(CommandOutcome::Submitted { events }),
                    1 => applied(CommandOutcome::Ticked(Box::new(tick))),
                    2 => applied(CommandOutcome::Answered { banked: yes }),
                    3 => applied(CommandOutcome::Released),
                    4 => partition(PartitionReply::Assignments(assignments)),
                    5 => partition(PartitionReply::Snapshot(Box::new(snap))),
                    6 => partition(PartitionReply::Active(yes)),
                    7 => partition(PartitionReply::HasWorker(yes)),
                    8 => partition(PartitionReply::Drained),
                    9 => partition(PartitionReply::ShutDown),
                    // Shipped records are opaque bytes and lsns full u64s.
                    10 => ReplyBody::Repl(ReplReply::Fetch {
                        next_lsn: request_id | (1 << 60),
                        records: vec![
                            (request_id | (1 << 59), detail.clone().into_bytes()),
                            (u64::MAX, Vec::new()),
                        ],
                    }),
                    11 => ReplyBody::Repl(ReplReply::Promote {
                        digest: !request_id,
                        applied: request_id | (1 << 58),
                    }),
                    // Region and version are full u32s; the flags vary
                    // apart from each other.
                    12 => ReplyBody::Hello(Hello {
                        protocol_version: events,
                        region_index: yes.then_some(events.rotate_left(7)),
                        draining: status % 2 == 1,
                        standby: status % 4 >= 2,
                    }),
                    13 => ReplyBody::Configure {
                        already_configured: yes,
                    },
                    _ => ReplyBody::Error { status, detail },
                };
                ReplyFrame { request_id, body }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every request decodes back to exactly what was encoded.
    #[test]
    fn requests_round_trip(request in request()) {
        let mut wire = Vec::new();
        let written = request.write_to(&mut wire).unwrap();
        prop_assert_eq!(written, wire.len());
        prop_assert_eq!(&wire[0..2], &MAGIC[..]);
        prop_assert_eq!(wire[2], FRAME_VERSION);

        let raw = read_back(&wire).unwrap().expect("one frame");
        prop_assert_eq!(raw.tag, request.body.tag() as u8);
        prop_assert_eq!(raw.request_id, request.request_id);
        let decoded = RequestFrame::decode(&raw).unwrap();
        prop_assert_eq!(decoded, request);

        // And nothing left in the buffer after the frame.
        let mut cursor = Cursor::new(&wire);
        frame::read_raw(&mut cursor, MAX_PAYLOAD).unwrap();
        prop_assert!(frame::read_raw(&mut cursor, MAX_PAYLOAD).unwrap().is_none());
    }

    /// Every reply decodes back to exactly what was encoded.
    #[test]
    fn replies_round_trip(reply in reply()) {
        let mut wire = Vec::new();
        reply.write_to(&mut wire).unwrap();
        let raw = read_back(&wire).unwrap().expect("one frame");
        prop_assert_eq!(raw.tag, reply.body.tag());
        prop_assert_eq!(raw.request_id, reply.request_id);
        let decoded = ReplyFrame::decode(&raw).unwrap();
        prop_assert_eq!(decoded, reply);
    }

    /// Arbitrary f64 *bit patterns* — NaNs, infinities, subnormals — cross
    /// the wire verbatim: decode → re-encode is byte-identical even when
    /// `PartialEq` on the floats themselves would lie.
    #[test]
    fn float_bits_cross_the_wire_verbatim(
        request_id in 0u64..=u64::MAX,
        trace in 0u64..=u64::MAX,
        bits in 0u64..=u64::MAX,
    ) {
        let request = RequestFrame {
            request_id,
            body: RequestBody::Partition(PartitionRequest::Apply {
                trace,
                command: PartitionCommand::Tick { now: f64::from_bits(bits) },
            }),
        };
        let mut wire = Vec::new();
        request.write_to(&mut wire).unwrap();
        let raw = read_back(&wire).unwrap().expect("one frame");
        let decoded = RequestFrame::decode(&raw).unwrap();
        let mut wire2 = Vec::new();
        decoded.write_to(&mut wire2).unwrap();
        prop_assert_eq!(wire, wire2);
    }

    /// Random bytes never panic the frame reader — they produce a frame,
    /// a clean end-of-stream, or a `FrameError`.
    #[test]
    fn random_bytes_never_panic_the_reader(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..256),
    ) {
        let mut cursor = Cursor::new(&bytes);
        while let Ok(Some(raw)) = frame::read_raw(&mut cursor, MAX_PAYLOAD) {
            // Whatever the reader accepts, the decoders must also survive.
            let _ = RequestFrame::decode(&raw);
            let _ = ReplyFrame::decode(&raw);
        }
    }

    /// A well-formed header followed by garbage never panics either
    /// decoder — hostile counts, lengths, flags, and UTF-8 are all
    /// rejected as `Malformed`.
    #[test]
    fn hostile_payloads_never_panic_the_decoders(
        tag in 0u8..=u8::MAX,
        request_id in 0u64..=u64::MAX,
        payload in proptest::collection::vec(0u8..=u8::MAX, 0..200),
    ) {
        let mut wire = Vec::from(frame::header(tag, request_id, payload.len()));
        wire.extend_from_slice(&payload);
        let raw = read_back(&wire).unwrap().expect("one frame");
        let _ = RequestFrame::decode(&raw);
        let _ = ReplyFrame::decode(&raw);
    }

    /// Truncating a valid frame anywhere never panics: mid-header is
    /// malformed (or clean EOF at byte zero), mid-payload is malformed.
    #[test]
    fn truncated_frames_never_panic(request in request(), keep in 0.0f64..1.0) {
        let mut wire = Vec::new();
        request.write_to(&mut wire).unwrap();
        let cut = ((wire.len() as f64) * keep) as usize;
        wire.truncate(cut);
        match read_back(&wire) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at byte zero"),
            Ok(Some(raw)) => {
                // Only possible when the whole frame survived the cut.
                prop_assert_eq!(cut, HEADER_LEN + raw.payload.len());
            }
            Err(FrameError::Malformed(_)) => {}
            Err(FrameError::Io(e)) => return Err(format!("unexpected io error: {e}")),
        }
    }

    /// Flipping any single bit of a valid frame never panics the reader or
    /// decoders; flips in the magic or version bytes are always caught.
    #[test]
    fn bit_flipped_frames_never_panic(
        request in request(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut wire = Vec::new();
        request.write_to(&mut wire).unwrap();
        let at = ((wire.len() as f64) * pos) as usize % wire.len();
        wire[at] ^= 1 << bit;
        match read_back(&wire) {
            Ok(Some(raw)) => {
                let _ = RequestFrame::decode(&raw);
                let _ = ReplyFrame::decode(&raw);
                prop_assert!(at >= 3, "magic/version flips must not be accepted");
            }
            Ok(None) => {}
            Err(FrameError::Malformed(_)) | Err(FrameError::Io(_)) => {}
        }
    }
}

fn snapshot_digest(addr: std::net::SocketAddr) -> String {
    let mut http = HttpClient::new(addr).with_timeout(Duration::from_secs(5));
    let snapshot = http.get("/debug/snapshot").unwrap().json().unwrap();
    snapshot
        .get("state_digest")
        .and_then(|d| d.as_str())
        .expect("snapshot carries a state digest")
        .to_string()
}

/// Well-framed commands whose *values* are hostile: everything the
/// admission check refuses (a move to NaN/∞, a tick at NaN, an answer at an
/// infinite angle — what the wire checks and log recovery does not) and
/// every model error the command decoder can report. Each is answered `400`
/// in-band with the field named, the connection stays usable, and the
/// daemon's state digest does not move.
#[test]
fn hostile_submit_values_are_answered_400_and_change_nothing() {
    let daemon = PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        ..PartitiondConfig::default()
    })
    .unwrap();
    let partition = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1));
    drop(
        connect_remote_partition(
            &daemon.addr().to_string(),
            &partition,
            0,
            0.1,
            &EngineConfig::default(),
            None,
        )
        .unwrap(),
    );
    let mut conn = FrameConn::new(daemon.addr(), Duration::from_secs(5));
    let command = |request_id, command| RequestFrame {
        request_id,
        body: RequestBody::Partition(PartitionRequest::Apply { trace: 0, command }),
    };

    let task = Task::new(
        TaskId(1),
        Point::new(0.4, 0.5),
        TimeWindow::new(0.0, 5.0).unwrap(),
    );
    let worker = Worker::new(
        WorkerId(1),
        Point::new(0.4, 0.45),
        0.3,
        AngleRange::full(),
        Confidence::new(0.9).unwrap(),
    )
    .unwrap();
    let good = vec![
        EngineEvent::TaskArrived(task),
        EngineEvent::WorkerCheckIn(worker),
    ];
    let reply = conn
        .exchange(&command(1, PartitionCommand::Submit(good)))
        .unwrap();
    let submitted = CommandOutcome::Submitted { events: 2 };
    assert!(
        matches!(&reply, ReplyBody::Partition(PartitionReply::Applied(outcome)) if *outcome == submitted),
        "{reply:?}"
    );
    // Commit the worker, so an admitted answer for it *would* change state.
    let reply = conn
        .exchange(&command(2, PartitionCommand::Tick { now: 0.0 }))
        .unwrap();
    let ReplyBody::Partition(PartitionReply::Applied(CommandOutcome::Ticked(tick))) = reply else {
        panic!("tick reply: {reply:?}");
    };
    assert_eq!(tick.committed, [WorkerId(1)]);
    let before = snapshot_digest(daemon.addr());

    // The model types keep their fields public, so values their
    // constructors would refuse can still be put on the wire.
    let moved = |x: f64, y: f64| EngineEvent::WorkerMoved(WorkerId(1), Point::new(x, y));
    // A valid event first: nothing of a refused batch may be applied.
    let batch = |event| PartitionCommand::Submit(vec![moved(0.41, 0.46), event]);
    let mut backwards = task;
    backwards.window.end = backwards.window.start - 1.0;
    let mut beta = task;
    beta.beta = Some(7.0);
    let mut speed = worker;
    speed.speed = -1.0;
    let answer_at = |angle: f64| PartitionCommand::Answer {
        worker: WorkerId(1),
        contribution: Contribution {
            confidence: Confidence::new(0.9).unwrap(),
            angle,
            arrival: 1.0,
        },
    };
    let hostile = [
        (batch(moved(f64::NAN, 0.5)), "worker_moved"),
        (batch(moved(0.5, f64::INFINITY)), "worker_moved"),
        (batch(moved(f64::NEG_INFINITY, f64::NAN)), "worker_moved"),
        (batch(EngineEvent::TaskArrived(backwards)), "time window"),
        (batch(EngineEvent::TaskArrived(beta)), "beta"),
        (batch(EngineEvent::WorkerCheckIn(speed)), "worker"),
        (PartitionCommand::Tick { now: f64::NAN }, "now"),
        (answer_at(f64::INFINITY), "angle"),
    ];
    for (i, (hostile, names)) in hostile.into_iter().enumerate() {
        let reply = conn
            .exchange(&command(10 + i as u64, hostile))
            .expect("a refused command is a reply, not a dropped connection");
        let ReplyBody::Error { status, detail } = reply else {
            panic!("hostile command {i} was accepted: {reply:?}");
        };
        assert_eq!(status, 400, "{detail}");
        assert!(
            detail.contains(names),
            "error must name the field: {detail}"
        );
        assert_eq!(
            snapshot_digest(daemon.addr()),
            before,
            "hostile command {i}"
        );
    }

    // An invalid confidence cannot be built even through public fields:
    // patch the bytes of an encoded check-in (trace, count, then tag, id,
    // x, y, speed, heading start + width, then confidence) and of an
    // encoded answer (worker, then confidence).
    let check_in = command(
        98,
        PartitionCommand::Submit(vec![EngineEvent::WorkerCheckIn(worker)]),
    );
    let patched = [
        (check_in, HEADER_LEN + 8 + 4 + 1 + 4 + 16 + 8 + 16),
        (command(99, answer_at(1.0)), HEADER_LEN + 4),
    ];
    let mut raw_conn = std::net::TcpStream::connect(daemon.addr()).unwrap();
    raw_conn
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut replies = std::io::BufReader::new(raw_conn.try_clone().unwrap());
    for (request, confidence_at) in patched {
        let mut wire = Vec::new();
        request.write_to(&mut wire).unwrap();
        wire[confidence_at..confidence_at + 8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        let raw = read_back(&wire).unwrap().expect("one frame");
        match RequestFrame::decode(&raw) {
            Err(FrameError::Malformed(detail)) => {
                assert!(detail.contains("confidence"), "{detail}")
            }
            other => panic!("an out-of-range confidence decoded: {other:?}"),
        }
        // And a daemon handed those bytes says the same, in-band.
        raw_conn.write_all(&wire).unwrap();
        let raw = frame::read_raw(&mut replies, MAX_PAYLOAD)
            .unwrap()
            .expect("a reply");
        let reply = ReplyFrame::decode(&raw).unwrap();
        let ReplyBody::Error { status, detail } = &reply.body else {
            panic!("patched {request:?} was accepted: {reply:?}");
        };
        assert_eq!(
            (*status, reply.request_id),
            (400, request.request_id),
            "{detail}"
        );
        assert!(detail.contains("confidence"), "{detail}");
        assert_eq!(
            snapshot_digest(daemon.addr()),
            before,
            "patched {request:?}"
        );
    }

    // Both connections survived all of it — and what admission passes is
    // normalised before it is applied: an answer at angle −1 banks, and
    // lands in [0, 2π).
    let is_active = RequestBody::Partition(PartitionRequest::IsActive);
    RequestFrame {
        request_id: 100,
        body: is_active,
    }
    .write_to(&mut raw_conn)
    .unwrap();
    let raw = frame::read_raw(&mut replies, MAX_PAYLOAD)
        .unwrap()
        .expect("a reply");
    let reply = ReplyFrame::decode(&raw).unwrap().body;
    assert!(
        matches!(reply, ReplyBody::Partition(PartitionReply::Active(true))),
        "{reply:?}"
    );
    let reply = conn.exchange(&command(101, answer_at(-1.0))).unwrap();
    let banked = CommandOutcome::Answered { banked: true };
    assert!(
        matches!(&reply, ReplyBody::Partition(PartitionReply::Applied(outcome)) if *outcome == banked),
        "{reply:?}"
    );
    assert_ne!(snapshot_digest(daemon.addr()), before);
    daemon.shutdown();
    daemon.join();
}
