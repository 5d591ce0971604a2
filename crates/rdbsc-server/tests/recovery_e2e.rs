//! Crash-recovery end-to-end tests against the real `rdbsc-partitiond`
//! binary: scripted traffic, `kill -9` mid-run, reboot from `--data-dir`,
//! and an FNV state-digest comparison against an offline engine fed the
//! same acknowledged command stream. Plus the router-side regression: a
//! daemon dying mid-run degrades the router instead of panicking it.

use rdbsc_cluster::RegionPartition;
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::FlatGridIndex;
use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{AssignmentEngine, EngineConfig, EngineEvent, EnginePartition, WalConfig};
use rdbsc_server::frame::{ReplyBody, RequestBody, RequestFrame};
use rdbsc_server::{
    connect_remote_partition, FrameConn, HttpClient, Json, Server, ServerConfig, ServerError,
};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdbsc-recovery-e2e-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned daemon process plus the stdout reader that must stay alive
/// (closing the pipe would make the daemon's final println fail).
struct DaemonProcess {
    child: Child,
    addr: SocketAddr,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl DaemonProcess {
    /// Spawns the real binary on an ephemeral port and parses the bound
    /// address from its startup line.
    fn spawn(extra_args: &[&str]) -> DaemonProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rdbsc-partitiond"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rdbsc-partitiond");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("daemon stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("daemon startup line");
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unparseable startup line: {line:?}"))
            .parse()
            .expect("daemon addr");
        DaemonProcess {
            child,
            addr,
            _stdout: stdout,
        }
    }

    /// `kill -9`: no drain, no flush, no goodbye.
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL daemon");
        self.child.wait().expect("reap daemon");
    }
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

/// Deterministic per-round traffic: fresh tasks and workers sliding across
/// the unit square, plus churn on earlier workers.
fn round_events(round: u32) -> Vec<EngineEvent> {
    let base = round * 10;
    let now = round as f64 * 0.5;
    let mut events = Vec::new();
    for i in 0..3u32 {
        let x = 0.1 + 0.1 * ((base + i) % 8) as f64;
        let y = 0.2 + 0.07 * i as f64;
        events.push(EngineEvent::TaskArrived(task(
            base + i,
            x,
            y,
            now,
            now + 4.0,
        )));
        events.push(EngineEvent::WorkerCheckIn(worker(
            base + i,
            x,
            y - 0.05,
            0.4,
        )));
    }
    if round > 0 {
        events.push(EngineEvent::WorkerMoved(
            WorkerId(base - 10),
            Point::new(0.5, 0.5),
        ));
    }
    events
}

/// Fetches the daemon's recovery digest off `/debug/snapshot` (a hex
/// string — u64 digests don't survive JSON's f64 numbers).
fn remote_digest(addr: SocketAddr) -> u64 {
    let mut http = HttpClient::new(addr).with_timeout(Duration::from_secs(5));
    let response = http.get("/debug/snapshot").expect("snapshot request");
    assert!(response.is_success(), "snapshot failed: {}", response.body);
    let json = response.json().expect("snapshot json");
    let Some(Json::Str(hex)) = json.get("state_digest") else {
        panic!(
            "snapshot missing state_digest: {}",
            json.to_string_compact()
        );
    };
    u64::from_str_radix(hex, 16).expect("hex digest")
}

/// The tentpole e2e: boot durable, push acknowledged traffic, SIGKILL,
/// reboot from the same --data-dir, and require the recovered daemon's
/// state digest to equal an offline engine fed the identical acknowledged
/// stream — then keep serving identically.
#[test]
fn sigkilled_daemon_recovers_the_acknowledged_state_exactly() {
    let data_dir = tempdir("sigkill");
    let partition = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1));
    let engine_config = EngineConfig::default();
    // A small segment size and a short checkpoint interval so the run
    // exercises rotation, checkpointing and retirement, not just appends.
    let wal_config = WalConfig {
        segment_bytes: 4096,
        checkpoint_every_ticks: 3,
        fsync_on_tick: true,
    };

    let daemon = DaemonProcess::spawn(&["--data-dir", data_dir.to_str().unwrap()]);
    let mut remote = connect_remote_partition(
        &daemon.addr.to_string(),
        &partition,
        0,
        0.1,
        &engine_config,
        Some(&wal_config),
    )
    .unwrap();

    // The offline oracle: a plain in-memory partition fed every command the
    // daemon acknowledges.
    let mut oracle = EnginePartition::new(AssignmentEngine::new(
        FlatGridIndex::new(partition.region_rect(0), 0.1),
        engine_config.clone(),
    ));

    for round in 0..7u32 {
        let events = round_events(round);
        remote.begin_submit(0, events.clone()).unwrap();
        remote.finish_submit().unwrap();
        oracle.submit(events);

        let now = round as f64 * 0.5;
        remote.begin_tick(0, now).unwrap();
        let remote_tick = remote.finish_tick().unwrap();
        let oracle_tick = oracle.tick(now);
        assert_eq!(
            remote_tick.report.new_assignments, oracle_tick.report.new_assignments,
            "round {round}: live daemon diverged from the oracle"
        );
        // Bank an answer for the first fresh pair so answers hit the log.
        if let Some(pair) = oracle_tick.report.new_assignments.first() {
            let banked = remote
                .record_answer(pair.worker, pair.contribution)
                .unwrap();
            assert_eq!(banked, oracle.record_answer(pair.worker, pair.contribution));
        }
    }

    // Crash. Every command above was acknowledged; nothing in flight.
    daemon.sigkill();

    // Reboot on the same data directory: the daemon self-configures from
    // the persisted configure payload and replays the log before serving.
    let mut rebooted = DaemonProcess::spawn(&["--data-dir", data_dir.to_str().unwrap()]);
    assert_eq!(
        remote_digest(rebooted.addr),
        oracle.state_digest(),
        "recovered state differs from the acknowledged command stream"
    );

    // The recovered daemon is fully serviceable and still deterministic
    // (the router's identical configure re-push is idempotent).
    let mut remote = connect_remote_partition(
        &rebooted.addr.to_string(),
        &partition,
        0,
        0.1,
        &engine_config,
        Some(&wal_config),
    )
    .unwrap();
    for round in 7..9u32 {
        let events = round_events(round);
        remote.begin_submit(0, events.clone()).unwrap();
        remote.finish_submit().unwrap();
        oracle.submit(events);
        let now = round as f64 * 0.5;
        remote.begin_tick(0, now).unwrap();
        let remote_tick = remote.finish_tick().unwrap();
        let oracle_tick = oracle.tick(now);
        assert_eq!(
            remote_tick.report.new_assignments,
            oracle_tick.report.new_assignments
        );
    }
    assert_eq!(remote_digest(rebooted.addr), oracle.state_digest());

    remote.shutdown().unwrap();
    rebooted.child.wait().ok();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A rebooted daemon must reject a conflicting configure instead of
/// silently abandoning its recovered region.
#[test]
fn rebooted_daemon_rejects_a_conflicting_configure() {
    let data_dir = tempdir("conflict");
    let partition = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1));
    let config = EngineConfig::default();

    let daemon = DaemonProcess::spawn(&["--data-dir", data_dir.to_str().unwrap()]);
    drop(
        connect_remote_partition(&daemon.addr.to_string(), &partition, 0, 0.1, &config, None)
            .unwrap(),
    );
    daemon.sigkill();

    let mut rebooted = DaemonProcess::spawn(&["--data-dir", data_dir.to_str().unwrap()]);
    // Identical payload: idempotent.
    let mut same = connect_remote_partition(
        &rebooted.addr.to_string(),
        &partition,
        0,
        0.1,
        &config,
        None,
    )
    .unwrap();
    // Different topology: structured 409, not a silent re-route.
    let other = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.2));
    let refused =
        connect_remote_partition(&rebooted.addr.to_string(), &other, 0, 0.2, &config, None)
            .err()
            .expect("conflicting configure must be refused");
    assert!(
        matches!(&refused, ServerError::Conflict(why) if why.contains("failed with 409")),
        "{refused}"
    );

    same.shutdown().unwrap();
    rebooted.child.wait().ok();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A data dir whose `configure.json` was persisted by a build that still
/// named an index backend (either one: recovered state does not depend on
/// it) must boot on this build: self-configure, recover the pre-crash
/// digest, take the router's identical re-push as the idempotent case, and
/// leave the canonical payload — without the field — on disk.
#[test]
fn a_configure_json_naming_a_backend_still_boots_and_takes_the_re_push() {
    for named in ["flat-grid", "grid"] {
        let data_dir = tempdir(&format!("legacy-{named}"));
        let dir_arg = data_dir.to_str().unwrap();
        let partition = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1));
        let config = EngineConfig::default();

        let daemon = DaemonProcess::spawn(&["--data-dir", dir_arg]);
        let mut remote =
            connect_remote_partition(&daemon.addr.to_string(), &partition, 0, 0.1, &config, None)
                .unwrap();
        for round in 0..3u32 {
            remote.begin_submit(0, round_events(round)).unwrap();
            remote.finish_submit().unwrap();
            remote.begin_tick(0, round as f64 * 0.5).unwrap();
            remote.finish_tick().unwrap();
        }
        let digest = remote_digest(daemon.addr);
        daemon.sigkill();

        // Put back the field the earlier build persisted.
        let persisted = data_dir.join("configure.json");
        let canonical = std::fs::read_to_string(&persisted).unwrap();
        let pushed = rdbsc_server::json::parse(&canonical).unwrap();
        let mut legacy = pushed.clone();
        let Json::Obj(fields) = &mut legacy else {
            panic!("configure.json is not an object: {canonical}");
        };
        fields.insert("backend".to_string(), Json::Str(named.to_string()));
        std::fs::write(&persisted, legacy.to_string_compact()).unwrap();

        let mut rebooted = DaemonProcess::spawn(&["--data-dir", dir_arg]);
        assert_eq!(remote_digest(rebooted.addr), digest, "backend {named:?}");
        let mut conn = FrameConn::new(rebooted.addr, Duration::from_secs(5));
        let repush = RequestFrame {
            request_id: 1,
            body: RequestBody::Configure(pushed.to_string_compact()),
        };
        match conn.exchange(&repush).unwrap() {
            ReplyBody::Configure { already_configured } => {
                assert!(already_configured, "backend {named:?}")
            }
            other => panic!("re-push refused: {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&persisted).unwrap(), canonical);

        let mut http = HttpClient::new(rebooted.addr).with_timeout(Duration::from_secs(5));
        http.post("/admin/shutdown", &Json::obj([])).unwrap();
        rebooted.child.wait().ok();
        let _ = std::fs::remove_dir_all(&data_dir);
    }
}

/// Regression for the router's lost-partition panic: SIGKILL a mounted
/// daemon mid-run and require the router to keep serving the surviving
/// region, reporting the loss through /metrics instead of unwinding.
#[test]
fn router_survives_a_daemon_killed_mid_run() {
    let daemon = DaemonProcess::spawn(&[]);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        flush_interval: Duration::ZERO, // manual tick
        partitions: 2,
        remote_partitions: vec![daemon.addr.to_string()],
        ..ServerConfig::default()
    })
    .expect("server start");
    let mut http = HttpClient::new(server.addr()).with_timeout(Duration::from_secs(5));

    // Traffic on both regions (region 0 is the remote daemon).
    for i in 0..4u32 {
        let x = 0.2 + 0.15 * i as f64;
        let task = rdbsc_server::dto::TaskDto {
            id: i,
            x,
            y: 0.5,
            start: 0.0,
            end: 10.0,
            beta: None,
        };
        assert!(http.post("/tasks", &task.to_json()).unwrap().is_success());
        let worker = rdbsc_server::dto::WorkerDto {
            id: i,
            x,
            y: 0.45,
            speed: 0.3,
            heading: None,
            confidence: 0.9,
            available_from: 0.0,
        };
        assert!(http
            .post("/workers", &worker.to_json())
            .unwrap()
            .is_success());
    }
    let tick = |http: &mut HttpClient, now: f64| {
        let body = Json::obj([("now", Json::Num(now))]);
        http.post("/tick", &body).expect("tick request")
    };
    assert!(tick(&mut http, 0.0).is_success());

    let healthy = http.get("/metrics").unwrap().json().unwrap();
    assert_eq!(
        healthy.get("partitions_unhealthy").and_then(Json::as_num),
        Some(0.0)
    );

    // Kill the daemon out from under the router.
    let daemon_addr = daemon.addr.to_string();
    daemon.sigkill();

    // The next ticks must keep answering — degraded, not panicked.
    assert!(tick(&mut http, 0.5).is_success());
    assert!(tick(&mut http, 1.0).is_success());

    let degraded = http.get("/metrics").unwrap().json().unwrap();
    assert_eq!(
        degraded.get("partitions_unhealthy").and_then(Json::as_num),
        Some(1.0),
        "metrics must report the lost partition: {}",
        degraded.to_string_compact()
    );
    let unhealthy = degraded
        .get("unhealthy")
        .and_then(Json::as_arr)
        .expect("unhealthy array");
    assert_eq!(unhealthy.len(), 1);
    let lost = &unhealthy[0];
    assert_eq!(lost.get("partition").and_then(Json::as_num), Some(0.0));
    let endpoint = lost
        .get("endpoint")
        .and_then(Json::as_str)
        .expect("endpoint field");
    assert!(
        endpoint.contains(&daemon_addr),
        "endpoint {endpoint:?} should name the dead daemon {daemon_addr}"
    );
    assert!(
        lost.get("error").and_then(Json::as_str).is_some(),
        "the structured error must ride along"
    );

    // Reads still serve the surviving region.
    assert!(http.get("/snapshot").unwrap().is_success());
    assert!(http
        .post("/admin/shutdown", &Json::obj([]))
        .unwrap()
        .is_success());
    server.join();
}
