//! End-to-end tests of the partition protocol over the wire: a real
//! `rdbsc-partitiond` daemon (in-process, loopback) attached and driven over
//! the frame transport by the real router-side client, checked
//! byte for byte against the in-process protocol backend on the identical
//! event stream.

use rdbsc_cluster::{RegionPartition, RegionPartitioner};
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::FlatGridIndex;
use rdbsc_model::{Confidence, Contribution, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{
    AssignmentEngine, EngineConfig, EngineEvent, EnginePartition, InProcessClient,
    PartitionClient, PartitionCommand, PartitionError, PartitionedEngine,
};
use rdbsc_server::frame::{ReplyFrame, RequestFrame};
use rdbsc_server::{
    connect_remote_partition, BinaryPartitionClient, ConfigureDto, EngineConfigDto, FrameConn,
    HttpClient, Json, PartitionDaemon, PartitiondConfig, RoutingTableDto,
};
use std::time::Duration;

fn daemon() -> PartitionDaemon {
    PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        ..PartitiondConfig::default()
    })
    .expect("daemon start")
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

fn single_region() -> RegionPartition {
    RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1))
}

/// The router's boot sequence against one daemon: hello + configure, then
/// commands, all on one frame connection.
fn attach(
    daemon: &PartitionDaemon,
    partition: &RegionPartition,
    region: usize,
    config: &EngineConfig,
) -> Box<dyn PartitionClient> {
    connect_remote_partition(
        &daemon.addr().to_string(),
        partition,
        region,
        0.1,
        config,
        None,
    )
    .expect("daemon handshake")
}

fn events() -> Vec<EngineEvent> {
    let mut events = Vec::new();
    for i in 0..6u32 {
        let x = 0.15 + 0.12 * i as f64;
        events.push(EngineEvent::TaskArrived(task(i, x, 0.5, 0.0, 5.0)));
        events.push(EngineEvent::WorkerCheckIn(worker(i, x, 0.45, 0.3)));
    }
    events
}

/// Drives the full command surface over the wire and requires byte-identical
/// results to a local [`EnginePartition`] on the same stream.
#[test]
fn daemon_matches_the_local_engine_byte_for_byte() {
    let daemon = daemon();
    let partition = single_region();
    let config = EngineConfig::default();

    let mut remote = attach(&daemon, &partition, 0, &config);

    let mut local = EnginePartition::new(AssignmentEngine::new(
        FlatGridIndex::new(partition.region_rect(0), 0.1),
        config,
    ));

    let stream = events();
    local.submit(stream.clone());
    remote.begin_submit(stream).unwrap();
    remote.finish_submit().unwrap();
    assert!(remote.is_active().unwrap());

    let local_tick = local.tick(0.0);
    remote.begin_tick(0.0).unwrap();
    let remote_tick = remote.finish_tick().unwrap();
    assert_eq!(
        local_tick.report.new_assignments, remote_tick.report.new_assignments,
        "assignments survive the wire bit-exactly"
    );
    assert_eq!(local_tick.report.strategies, remote_tick.report.strategies);
    assert_eq!(
        local_tick.report.events_applied,
        remote_tick.report.events_applied
    );
    assert_eq!(local_tick.committed, remote_tick.committed);
    assert_eq!(local.assignments(), remote.assignments().unwrap());

    // Residency probe + answers flow identically.
    let pair = local_tick.report.new_assignments[0];
    assert!(remote.has_worker(pair.worker).unwrap());
    assert_eq!(
        local.record_answer(pair.worker, pair.contribution),
        remote.record_answer(pair.worker, pair.contribution).unwrap()
    );
    assert!(!remote.record_answer(pair.worker, pair.contribution).unwrap());
    local.record_answer(pair.worker, pair.contribution);

    // Snapshots agree except for wall-clock-free fields... which is all of
    // them: the snapshot is pure engine state.
    assert_eq!(local.snapshot(), remote.snapshot().unwrap());

    // Release mirrors too.
    if let Some(other) = local_tick.report.new_assignments.get(1) {
        local.release_worker(other.worker);
        remote.release_worker(other.worker).unwrap();
        assert_eq!(local.snapshot(), remote.snapshot().unwrap());
    }

    let stats = remote.counters().stats();
    assert!(stats.requests >= 8);
    assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);

    remote.shutdown().unwrap();
    daemon.join();
}

/// A mixed topology (region 0 in-process, region 1 on a daemon) must be
/// byte-identical to the all-in-process 2-partition router on the same
/// event stream — the tentpole determinism contract.
#[test]
fn mixed_local_remote_topology_matches_all_in_process() {
    let geometry = GridGeometry::new(Rect::unit(), 0.1);
    let partition = RegionPartitioner::uniform().split(geometry, 2, &[]);
    let config = EngineConfig::default();

    let all_local = PartitionedEngine::build(partition.clone(), config.clone(), |rect| {
        rdbsc_index::FlatGridIndex::new(rect, 0.1)
    });

    let daemon = daemon();
    let remote = attach(&daemon, &partition, 1, &config);
    let clients: Vec<Box<dyn PartitionClient>> = vec![
        Box::new(InProcessClient::spawn(
            0,
            AssignmentEngine::new(
                FlatGridIndex::new(partition.region_rect(0), 0.1),
                config.clone(),
            ),
        )),
        remote,
    ];
    let mixed = PartitionedEngine::new(partition, clients);

    let mut engines = [all_local, mixed];
    let mut assigned = 0;
    // Two-sided churn with boundary crossings, three rounds.
    for round in 0..3 {
        let now = round as f64 * 0.4;
        let mut reports = Vec::new();
        for engine in &mut engines {
            let mut stream = events();
            // Every round, workers 0 and 5 cross the x = 0.5 boundary.
            let flip = if round % 2 == 0 { 0.8 } else { 0.2 };
            stream.push(EngineEvent::WorkerMoved(WorkerId(0), Point::new(flip, 0.5)));
            stream.push(EngineEvent::WorkerMoved(
                WorkerId(5),
                Point::new(1.0 - flip, 0.5),
            ));
            engine.submit_all(stream);
            reports.push(engine.tick(now));
        }
        assert_eq!(
            reports[0].new_assignments, reports[1].new_assignments,
            "round {round}: assignments identical across transports"
        );
        assert_eq!(reports[0].strategies, reports[1].strategies);
        assert_eq!(reports[0].events_applied, reports[1].events_applied);
        let [ref mut a, ref mut b] = engines;
        assert_eq!(a.committed_assignments(), b.committed_assignments());
        assert_eq!(a.partition_snapshots(), b.partition_snapshots());
        assert_eq!(a.handoffs(), b.handoffs());
        assigned += reports[0].new_assignments.len();
        // Answer every new pair on both sides so commitments clear.
        for pair in reports[0].new_assignments.clone() {
            assert_eq!(
                a.record_answer(pair.worker, pair.contribution),
                b.record_answer(pair.worker, pair.contribution)
            );
        }
    }

    let [a, mut b] = engines;
    assert!(
        assigned > 0 && b.handoffs() > 0,
        "the comparison must not be vacuous: {assigned} pairs, {} handoffs",
        b.handoffs()
    );
    drop(a);
    let final_snapshot = b.shutdown(); // drains + stops the daemon too
    assert_eq!(final_snapshot.pending_events, 0);
    daemon.join();
}

/// Configure is idempotent for the identical payload and 409s a conflicting
/// one; commands before any configure are 409 too.
#[test]
fn configure_is_idempotent_and_conflicts_are_rejected() {
    let daemon = daemon();
    let partition = single_region();
    let config = EngineConfig::default();

    let addr = daemon.addr().to_string();
    let mut client = BinaryPartitionClient::connect(&addr).unwrap();
    // A command before configure: a clean protocol error, not a hang.
    assert!(matches!(
        client.is_active(),
        Err(PartitionError::Protocol { .. })
    ));

    let attach = |partition: &RegionPartition, region| {
        connect_remote_partition(&addr, partition, region, 0.1, &config, None)
    };
    assert!(attach(&partition, 0).is_ok());
    // Identical re-push (a stateless router restarting): accepted.
    assert!(attach(&partition, 0).is_ok());
    // Different topology: refused, engine untouched.
    let other = RegionPartitioner::uniform()
        .split(GridGeometry::new(Rect::unit(), 0.1), 2, &[]);
    assert!(attach(&other, 1).is_err());
    assert!(client.is_active().is_ok(), "original engine still serving");

    // A router speaking a different protocol version is refused outright.
    let mut conn = FrameConn::new(daemon.addr(), Duration::from_secs(5));
    let configure = Json::obj([("protocol_version", Json::Num(99.0))]).to_string_compact();
    match conn.exchange(&RequestFrame::Configure { request_id: 1, configure }).unwrap() {
        ReplyFrame::Error { status, detail, .. } => assert_eq!(status, 409, "{detail}"),
        other => panic!("a version-99 configure was accepted: {other:?}"),
    }

    daemon.shutdown();
    daemon.join();
}

/// While draining, mutating commands get a parseable 503 — not a dropped
/// connection — and the observability surface stays up.
#[test]
fn draining_daemon_answers_503_not_dropped_connections() {
    let daemon = daemon();
    let partition = single_region();
    let config = EngineConfig::default();
    let mut client = attach(&daemon, &partition, 0, &config);
    client.begin_submit(events()).unwrap();
    client.finish_submit().unwrap();

    client.drain().unwrap();
    assert!(daemon.is_draining());

    // Mutating commands: clean 503s surfaced as Draining.
    assert!(matches!(
        client.begin_submit(events()).and_then(|_| client.finish_submit()),
        Err(PartitionError::Draining { .. })
    ));
    assert!(matches!(
        client.begin_tick(0.0).and_then(|_| {
            client.finish_tick()?;
            Ok(())
        }),
        Err(PartitionError::Draining { .. })
    ));

    // Reads and ops keep working so the drain is observable.
    let mut raw = HttpClient::new(daemon.addr());
    let health = raw.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"draining\":true"), "{}", health.body);
    let metrics = raw.get("/metrics").unwrap();
    assert!(metrics.body.contains("\"configured\":true"), "{}", metrics.body);
    assert!(client.snapshot().is_ok(), "snapshot still served while draining");

    client.shutdown().unwrap();
    daemon.join();
}

/// A daemon that closes an idle command connection must not break the
/// router: the next command transparently reconnects (the stale-connection
/// retry), observable in the counters.
#[test]
fn router_survives_daemon_idle_timeouts() {
    let daemon = PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        idle_timeout: Duration::from_millis(150),
        ..PartitiondConfig::default()
    })
    .unwrap();
    let partition = single_region();
    let config = EngineConfig::default();
    let mut client = attach(&daemon, &partition, 0, &config);

    client.begin_submit(events()).unwrap();
    client.finish_submit().unwrap();
    // Let the daemon's idle timeout reap the cached connection.
    std::thread::sleep(Duration::from_millis(500));
    client.begin_tick(0.0).unwrap();
    let tick = client.finish_tick().unwrap();
    assert!(
        !tick.report.new_assignments.is_empty(),
        "the command after the idle reap still executed"
    );
    let stats = client.counters().stats();
    assert!(
        stats.reconnects >= 1 || stats.retries >= 1,
        "the reap must be visible as a reconnect/retry: {stats:?}"
    );

    // Reaped again, this time under a pipelined submit + tick: both frames
    // were written before the hang-up shows, and both are re-sent in order.
    std::thread::sleep(Duration::from_millis(500));
    client
        .begin_submit(vec![EngineEvent::TaskArrived(task(90, 0.5, 0.5, 1.0, 6.0))])
        .unwrap();
    client.begin_tick(1.0).unwrap();
    client.finish_submit().unwrap();
    assert_eq!(client.finish_tick().unwrap().report.events_applied, 1);
    assert!(client.counters().stats().retries > stats.retries);

    client.shutdown().unwrap();
    daemon.join();
}

/// Polls a daemon's snapshot route until it serves (a standby answers 409
/// until its bootstrap has installed an engine).
fn await_configured(addr: std::net::SocketAddr) {
    let mut http = HttpClient::new(addr);
    for _ in 0..200 {
        if http.get("/debug/snapshot").is_ok_and(|r| r.is_success()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon {addr} never became configured");
}

/// The refusal table is one table: for every command, a draining daemon and
/// an unpromoted standby answer exactly the statuses the two per-transport
/// tables used to give (0 = served). And no partition route is left on
/// HTTP — not the JSON data routes (a well-formed tick is a 404, not a
/// tick), and not the handshake, the probes or the shutdown.
#[test]
fn every_command_meets_the_one_refusal_table() {
    let partition = single_region();
    let config = EngineConfig::default();
    let primary = daemon();
    let mut router = attach(&primary, &partition, 0, &config);
    let standby = PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        follow: Some(primary.addr().to_string()),
        ..PartitiondConfig::default()
    })
    .expect("standby start");
    await_configured(standby.addr());
    assert!(standby.is_standby());

    let command = |request_id, command| RequestFrame::Command {
        request_id,
        trace: 0,
        command,
    };
    let answer = PartitionCommand::Answer {
        worker: WorkerId(1),
        contribution: Contribution::new(Confidence::new(0.9).unwrap(), 1.0, 1.0),
    };
    // The primary's own payload: served, it would be the idempotent re-push.
    let configure = ConfigureDto {
        protocol_version: rdbsc_platform::PROTOCOL_VERSION,
        routing: RoutingTableDto::from_partition(&partition),
        region_index: 0,
        cell_size: 0.1,
        engine: EngineConfigDto::from_config(&config),
        durability: None,
    }
    .to_json()
    .to_string_compact();
    // (command, status while draining, status while an unpromoted standby).
    // Order matters only at the tail: the promote ends standby-hood, the
    // drain and the shutdown end everything.
    let table = [
        (command(1, PartitionCommand::Submit(events())), 503, 409),
        (command(2, PartitionCommand::Tick { now: 0.5 }), 503, 409),
        (command(3, answer), 503, 409),
        (command(4, PartitionCommand::Release { worker: WorkerId(1) }), 503, 409),
        (RequestFrame::Assignments { request_id: 5 }, 0, 0),
        (RequestFrame::Snapshot { request_id: 6 }, 0, 0),
        (RequestFrame::IsActive { request_id: 7 }, 0, 0),
        (RequestFrame::HasWorker { request_id: 8, worker: WorkerId(1) }, 0, 0),
        (RequestFrame::ReplStatus { request_id: 9 }, 0, 0),
        (RequestFrame::Hello { request_id: 15 }, 0, 0),
        (RequestFrame::Configure { request_id: 16, configure }, 503, 409),
        (RequestFrame::ReplBootstrap { request_id: 10 }, 0, 409),
        (RequestFrame::ReplFetch { request_id: 11, from: 0, ack: 0, max: 8 }, 0, 409),
        (RequestFrame::ReplPromote { request_id: 12 }, 503, 0),
        (RequestFrame::Drain { request_id: 13 }, 0, 0),
        (RequestFrame::Shutdown { request_id: 14 }, 0, 0),
    ];
    let status_of = |conn: &mut FrameConn, request: &RequestFrame| -> (u16, String) {
        match conn.exchange(request).expect("a refusal is a reply, never a dropped connection") {
            ReplyFrame::Error { status, detail, .. } => (status, detail),
            _ => (0, String::new()),
        }
    };

    // The standby first (it needs its primary alive to stay bootstrapped).
    let mut conn = FrameConn::new(standby.addr(), Duration::from_secs(5));
    for (request, _, want) in &table {
        let (status, detail) = status_of(&mut conn, request);
        assert_eq!(status, *want, "standby, {request:?}: {detail}");
        if status == 409 {
            assert!(detail.contains("standby"), "{request:?} refused for another reason: {detail}");
        }
    }
    standby.join();

    // Then the primary, drained. Its follower is gone, so the bootstrap
    // and fetch rows exercise a free stream slot.
    router.drain().unwrap();
    std::thread::sleep(Duration::from_millis(2100)); // the follower-liveness window
    let mut http = HttpClient::new(primary.addr());
    let body = Json::obj([("request_id", Json::Num(1.0)), ("now", Json::Num(1.0))]);
    let gone = http.post("/partition/tick", &body).unwrap();
    assert_eq!(gone.status, 404, "the JSON tick route must be gone: {}", gone.body);
    for route in ["/partition/hello", "/partition/active"] {
        let gone = http.get(route).unwrap();
        assert_eq!(gone.status, 404, "GET {route} must be gone: {}", gone.body);
    }
    for route in ["/partition/configure", "/partition/shutdown"] {
        let gone = http.post(route, &Json::obj([])).unwrap();
        assert_eq!(gone.status, 404, "POST {route} must be gone: {}", gone.body);
    }
    let mut conn = FrameConn::new(primary.addr(), Duration::from_secs(5));
    for (request, want, _) in &table {
        let (status, detail) = status_of(&mut conn, request);
        assert_eq!(status, *want, "draining, {request:?}: {detail}");
    }
    primary.join();
}
