//! Replication failover end-to-end tests against the real
//! `rdbsc-partitiond` binary: a standby daemon follows a primary's record
//! stream (`--follow`), the router arms it as the region's promoter
//! (`standby_partitions`), the primary is SIGKILLed mid-run, and the
//! promoted standby must serve the region with a state digest byte-equal
//! to the pre-kill acknowledged digest. Plus the standby's refusal
//! surface and the replication commands, all on the frame transport.

use rdbsc_cluster::RegionPartition;
use rdbsc_geo::Rect;
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::FlatGridIndex;
use rdbsc_platform::wal::{decode_command, decode_record};
use rdbsc_platform::{
    EngineConfig, EnginePartition, PartitionClient, PartitionCommand, PartitionRequest, ReplReply,
    ReplRequest, WalRecord,
};
use rdbsc_server::frame::{ReplyBody, RequestBody, RequestFrame};
use rdbsc_server::{connect_remote_partition, FrameConn, HttpClient, Json, Server, ServerConfig};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdbsc-failover-e2e-{tag}-{}-{}",
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
    fn sigkill(&mut self) {
        self.child.kill().expect("SIGKILL daemon");
        self.child.wait().expect("reap daemon");
    }
}

/// A test that panics must not leak its daemons: a leaked standby keeps
/// knocking on its primary's (now freed) port forever, and a later run's
/// primary can re-bind that port — the stale follower then bootstraps
/// against it, rebasing the stream out from under the run's own standby.
impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Fetches a daemon's state digest off `/debug/snapshot` (a hex string —
/// u64 digests don't survive JSON's f64 numbers). `None` while the daemon
/// is unconfigured (a standby that has not bootstrapped yet answers 409).
fn try_remote_digest(addr: SocketAddr) -> Option<u64> {
    let mut http = HttpClient::new(addr).with_timeout(Duration::from_secs(5));
    let response = http.get("/debug/snapshot").ok()?;
    if !response.is_success() {
        return None;
    }
    let json = response.json().ok()?;
    match json.get("state_digest") {
        Some(Json::Str(hex)) => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    }
}

fn remote_digest(addr: SocketAddr) -> u64 {
    try_remote_digest(addr).expect("daemon must serve a snapshot digest")
}

/// The daemon's `/metrics` `repl` object.
fn repl_metrics(addr: SocketAddr) -> Json {
    let mut http = HttpClient::new(addr).with_timeout(Duration::from_secs(5));
    let response = http.get("/metrics").expect("metrics request");
    assert!(response.is_success());
    let json = response.json().expect("metrics json");
    json.get("repl")
        .cloned()
        .unwrap_or_else(|| panic!("daemon metrics missing repl: {}", json.to_string_compact()))
}

/// Polls until the standby holds exactly the primary's state: its applied
/// cursor reaches the **primary's** published stream head and the state
/// digests agree. Both checks are needed — the standby's own `lag` gauge
/// uses the head it last observed (which trails between fetches), and the
/// stream head alone cannot distinguish "bootstrapped, nothing published
/// since" from "has not bootstrapped at all" (both read zero: the primary
/// only starts publishing at the first bootstrap).
fn await_caught_up(primary: SocketAddr, standby: SocketAddr, deadline: Duration) -> Json {
    let started = Instant::now();
    loop {
        let head = repl_metrics(primary)
            .get("next_lsn")
            .and_then(Json::as_num)
            .unwrap_or(f64::MAX);
        let repl = repl_metrics(standby);
        let role = repl.get("role").and_then(Json::as_str).unwrap_or_default();
        let applied = repl.get("applied").and_then(Json::as_num).unwrap_or(-1.0);
        if role == "standby"
            && applied == head
            && try_remote_digest(standby).is_some_and(|d| Some(d) == try_remote_digest(primary))
        {
            return repl;
        }
        assert!(
            started.elapsed() < deadline,
            "standby never caught up (head {head}): {}",
            repl.to_string_compact()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Configures a daemon directly (no router involved) as the single region
/// and returns the command client.
fn attach_single_region(addr: SocketAddr) -> Box<dyn PartitionClient> {
    connect_remote_partition(
        &addr.to_string(),
        &RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1)),
        0,
        0.1,
        &EngineConfig::default(),
        None,
    )
    .expect("daemon handshake")
}

/// One frame round trip, flattened to `Err((status, detail))` for a
/// daemon-reported error.
fn exchange(
    conn: &mut FrameConn,
    request_id: u64,
    body: RequestBody,
) -> Result<ReplyBody, (u16, String)> {
    match conn
        .exchange(&RequestFrame { request_id, body })
        .expect("frame exchange")
    {
        ReplyBody::Error { status, detail } => Err((status, detail)),
        reply => Ok(reply),
    }
}

fn post_task(http: &mut HttpClient, id: u32, x: f64, y: f64, now: f64) {
    let task = rdbsc_server::dto::TaskDto {
        id,
        x,
        y,
        start: now,
        end: now + 6.0,
        beta: None,
    };
    assert!(http.post("/tasks", &task.to_json()).unwrap().is_success());
}

fn post_worker(http: &mut HttpClient, id: u32, x: f64, y: f64) {
    let worker = rdbsc_server::dto::WorkerDto {
        id,
        x,
        y,
        speed: 0.4,
        heading: None,
        confidence: 0.9,
        available_from: 0.0,
    };
    assert!(http
        .post("/workers", &worker.to_json())
        .unwrap()
        .is_success());
}

fn tick(http: &mut HttpClient, now: f64) {
    let body = Json::obj([("now", Json::Num(now))]);
    assert!(http
        .post("/tick", &body)
        .expect("tick request")
        .is_success());
}

/// The tentpole e2e: primary + standby + router, acknowledged traffic,
/// quiesce, capture the primary's digest, SIGKILL it, and require the
/// router's inline promotion to attach a standby whose digest is
/// byte-identical — then keep serving through the successor.
#[test]
fn sigkilled_primary_fails_over_to_a_digest_identical_standby() {
    let primary_dir = tempdir("primary");
    let standby_dir = tempdir("standby");
    let mut primary = DaemonProcess::spawn(&["--data-dir", primary_dir.to_str().unwrap()]);
    let primary_addr = primary.addr.to_string();
    let mut standby = DaemonProcess::spawn(&[
        "--data-dir",
        standby_dir.to_str().unwrap(),
        "--follow",
        &primary_addr,
    ]);

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        flush_interval: Duration::ZERO, // manual tick
        partitions: 1,
        remote_partitions: vec![primary_addr.clone()],
        standby_partitions: vec![standby.addr.to_string()],
        ..ServerConfig::default()
    })
    .expect("server start");
    let mut http = HttpClient::new(server.addr()).with_timeout(Duration::from_secs(5));

    // Acknowledged traffic: every command completes before the kill.
    for round in 0..5u32 {
        let now = round as f64 * 0.5;
        for i in 0..3u32 {
            let id = round * 10 + i;
            let x = 0.15 + 0.1 * ((id % 7) as f64);
            post_task(&mut http, id, x, 0.5, now);
            post_worker(&mut http, id, x, 0.45);
        }
        tick(&mut http, now);
    }

    // First catch-up may be served mostly by the bootstrap checkpoint
    // (the primary only publishes records once a standby exists). Drive a
    // second wave afterwards so continuous shipping is exercised for sure.
    await_caught_up(primary.addr, standby.addr, Duration::from_secs(20));
    for round in 5..8u32 {
        let now = round as f64 * 0.5;
        post_task(&mut http, round * 10, 0.35, 0.5, now);
        post_worker(&mut http, round * 10, 0.35, 0.45);
        tick(&mut http, now);
    }

    // Quiesce: the standby must drain the stream completely.
    let drained = await_caught_up(primary.addr, standby.addr, Duration::from_secs(20));
    assert!(
        drained.get("applied").and_then(Json::as_num).unwrap_or(0.0) > 0.0,
        "the second traffic wave must arrive as shipped records: {}",
        drained.to_string_compact()
    );
    let acknowledged = remote_digest(primary.addr);
    assert_eq!(
        remote_digest(standby.addr),
        acknowledged,
        "a caught-up standby must already hold the primary's digest"
    );
    let served = http.get("/snapshot").unwrap().json().unwrap();
    assert!(
        served.get("total_assignments").and_then(Json::as_num) > Some(0.0),
        "the acknowledged state must hold committed pairs: {}",
        served.to_string_compact()
    );

    let armed = http.get("/metrics").unwrap().json().unwrap();
    assert_eq!(
        armed.get("standbys_armed").and_then(Json::as_num),
        Some(1.0)
    );
    assert_eq!(
        armed.get("partitions_promoted").and_then(Json::as_num),
        Some(0.0)
    );

    // Kill the primary — no drain, no goodbye.
    primary.sigkill();

    // The next tick observes the dead transport and promotes inline.
    tick(&mut http, 2.5);

    let promoted = http.get("/metrics").unwrap().json().unwrap();
    assert_eq!(
        promoted.get("partitions_promoted").and_then(Json::as_num),
        Some(1.0),
        "promotion must be recorded: {}",
        promoted.to_string_compact()
    );
    assert_eq!(
        promoted.get("partitions_unhealthy").and_then(Json::as_num),
        Some(0.0),
        "a promoted slot must not be unhealthy"
    );
    let promotions = promoted
        .get("promotions")
        .and_then(Json::as_arr)
        .expect("promotions array");
    assert_eq!(promotions.len(), 1);
    let record = &promotions[0];
    assert_eq!(record.get("partition").and_then(Json::as_num), Some(0.0));
    assert!(record
        .get("old_endpoint")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains(&primary_addr)));
    assert!(record
        .get("new_endpoint")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains(&standby.addr.to_string())));

    // Zero acknowledged-state loss: the promoted standby's digest equals
    // the digest captured before the kill.
    assert_eq!(
        remote_digest(standby.addr),
        acknowledged,
        "promoted standby diverged from the pre-kill acknowledged state"
    );
    let sealed = repl_metrics(standby.addr);
    assert_eq!(sealed.get("role").and_then(Json::as_str), Some("primary"));
    assert_eq!(sealed.get("sealed"), Some(&Json::Bool(true)));
    assert_eq!(sealed.get("lag").and_then(Json::as_num), Some(0.0));

    // The region keeps serving through the successor.
    post_task(&mut http, 900, 0.4, 0.5, 3.0);
    post_worker(&mut http, 900, 0.4, 0.45);
    tick(&mut http, 3.0);
    assert!(http.get("/snapshot").unwrap().is_success());

    // A promoted daemon can serve a fresh follower of its own: once a
    // bootstrap re-enables the stream, its *live* counters (not the sealed
    // short-circuit) reach /metrics — `sealed` itself stays latched.
    let mut standby_conn = FrameConn::new(standby.addr, Duration::from_secs(5));
    assert!(exchange(
        &mut standby_conn,
        50,
        RequestBody::Repl(ReplRequest::Bootstrap)
    )
    .is_ok());
    post_task(&mut http, 901, 0.45, 0.5, 3.5);
    post_worker(&mut http, 901, 0.45, 0.45);
    tick(&mut http, 3.5);
    let reseeding = repl_metrics(standby.addr);
    assert_eq!(
        reseeding.get("role").and_then(Json::as_str),
        Some("primary")
    );
    assert_eq!(
        reseeding.get("sealed"),
        Some(&Json::Bool(true)),
        "sealed stays latched while re-seeding"
    );
    assert!(
        reseeding
            .get("retained")
            .and_then(Json::as_num)
            .unwrap_or(0.0)
            > 0.0,
        "a promoted daemon serving a follower reports live stream counters: {}",
        reseeding.to_string_compact()
    );

    // Clean admin shutdown propagates to the promoted daemon.
    assert!(http
        .post("/admin/shutdown", &Json::obj([]))
        .unwrap()
        .is_success());
    server.join();
    standby
        .child
        .wait()
        .expect("promoted standby exits with the router");

    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}

/// An unpromoted standby is read-only: mutating commands 409, reads serve,
/// the hello advertises the standby flag, and the router-side client
/// refuses to mount it as an ordinary partition.
#[test]
fn standby_refuses_mutating_commands_until_promoted() {
    let mut primary = DaemonProcess::spawn(&[]);
    let primary_addr = primary.addr.to_string();
    let mut standby = DaemonProcess::spawn(&["--follow", &primary_addr]);

    // Configure the primary directly (no router involved) and feed it.
    let mut remote = attach_single_region(primary.addr);
    remote.begin_tick(0, 0.5).unwrap();
    remote.finish_tick().unwrap();
    await_caught_up(primary.addr, standby.addr, Duration::from_secs(20));

    let mut http = HttpClient::new(standby.addr).with_timeout(Duration::from_secs(5));
    let mut conn = FrameConn::new(standby.addr, Duration::from_secs(5));
    match exchange(&mut conn, 9, RequestBody::Hello) {
        Ok(ReplyBody::Hello(hello)) => assert!(hello.standby, "{hello:?}"),
        other => panic!("hello: {other:?}"),
    }

    // Mutating commands are refused with a structured conflict...
    let apply = |command| RequestBody::Partition(PartitionRequest::Apply { trace: 0, command });
    let (status, detail) = exchange(&mut conn, 1, apply(PartitionCommand::Tick { now: 1.0 }))
        .expect_err("standby tick must be refused");
    assert_eq!(status, 409, "standby tick must 409: {detail}");
    let (status, _) = exchange(&mut conn, 2, apply(PartitionCommand::Submit(vec![])))
        .expect_err("standby submit must be refused");
    assert_eq!(status, 409);
    // ... while reads stay up.
    assert!(http.get("/debug/snapshot").unwrap().is_success());
    assert!(http.get("/metrics").unwrap().is_success());

    // The router-side client refuses to mount an unpromoted standby.
    let refused = connect_remote_partition(
        &standby.addr.to_string(),
        &RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1)),
        0,
        0.1,
        &EngineConfig::default(),
        None,
    )
    .err()
    .expect("mounting a standby as an ordinary partition must fail");
    assert!(
        refused.to_string().contains("replication standby"),
        "{refused}"
    );

    standby.child.kill().ok();
    standby.child.wait().ok();
    let mut primary_http = HttpClient::new(primary.addr).with_timeout(Duration::from_secs(5));
    assert!(primary_http
        .post("/admin/shutdown", &Json::obj([]))
        .unwrap()
        .is_success());
    primary.child.wait().ok();
}

/// The stream serves exactly one follower: while a live follower is
/// fetching, a competing bootstrap answers `409` (it would rebase the
/// stream out from under the live follower's cursor); a fetch that falls
/// off the retained window frees the slot immediately, because *that*
/// follower is about to re-bootstrap itself and must not be locked out.
#[test]
fn second_follower_bootstrap_is_refused_while_the_first_is_live() {
    let mut primary = DaemonProcess::spawn(&[]);
    let mut remote = attach_single_region(primary.addr);

    let mut conn = FrameConn::new(primary.addr, Duration::from_secs(5));
    let bootstrap = |conn: &mut FrameConn, request_id: u64| {
        exchange(conn, request_id, RequestBody::Repl(ReplRequest::Bootstrap))
    };
    let fetch = |conn: &mut FrameConn, request_id: u64, from: u64, ack: u64| {
        exchange(
            conn,
            request_id,
            RequestBody::Repl(ReplRequest::Fetch { from, ack, max: 64 }),
        )
    };

    // Follower #1 bootstraps and starts fetching.
    assert!(bootstrap(&mut conn, 1).is_ok());
    assert!(fetch(&mut conn, 2, 0, 0).is_ok());

    // A second follower knocking mid-stream is refused.
    let (status, detail) = bootstrap(&mut conn, 3).expect_err("second bootstrap must be refused");
    assert_eq!(status, 409, "second bootstrap must 409: {detail}");

    // Publish two records; follower #1 fetches and acks them, advancing
    // the retained base past lsn 0.
    remote.begin_tick(0, 0.5).unwrap();
    remote.finish_tick().unwrap();
    remote.begin_tick(0, 1.0).unwrap();
    remote.finish_tick().unwrap();
    assert!(fetch(&mut conn, 4, 0, 0).is_ok());
    assert!(fetch(&mut conn, 5, 2, 2).is_ok());

    // A fetch below the base is a gap — it 409s AND frees the follower
    // slot, so the re-bootstrap that must follow succeeds immediately
    // instead of being refused as a second follower.
    let (status, detail) = fetch(&mut conn, 6, 0, 2).expect_err("a fetch below the base must gap");
    assert_eq!(status, 409, "a fetch below the base must gap: {detail}");
    assert!(
        bootstrap(&mut conn, 7).is_ok(),
        "the gapped follower's own re-bootstrap must not be locked out"
    );

    remote.shutdown().unwrap();
    primary.child.wait().ok();
}

/// The replication commands on the frame transport: a raw frame
/// connection bootstraps, fetches and status-checks against a live
/// primary, and a local replica built from those frames lands on the
/// primary's exact digest.
#[test]
fn repl_commands_round_trip_over_the_binary_transport() {
    let mut primary = DaemonProcess::spawn(&[]);
    let config = EngineConfig::default();
    let mut remote = attach_single_region(primary.addr);

    let mut conn = FrameConn::new(primary.addr, Duration::from_secs(10));
    // The exchange checks the request-id echo itself.
    let mut exchange = |request_id, body| -> ReplyBody {
        conn.exchange(&RequestFrame { request_id, body })
            .expect("frame exchange")
    };

    // Bootstrap over frames: the snapshot is a canonical Checkpoint record.
    let ReplyBody::Repl(ReplReply::Bootstrap {
        start_lsn,
        state,
        configure,
    }) = exchange(7, RequestBody::Repl(ReplRequest::Bootstrap))
    else {
        panic!("expected ReplBootstrapOk");
    };
    let WalRecord::Checkpoint(boot_state) = decode_record(&state).expect("snapshot decodes") else {
        panic!("bootstrap state must be a Checkpoint record");
    };
    assert!(
        rdbsc_server::ConfigureDto::from_json(
            &rdbsc_server::json::parse(&configure).expect("configure parses")
        )
        .is_ok(),
        "the shipped configure fingerprint must parse standalone"
    );
    let mut replica = EnginePartition::from_state(boot_state, config.clone(), || {
        FlatGridIndex::new(Rect::unit(), 0.1)
    });

    // Publish some records, then fetch them over frames.
    remote.begin_tick(0, 0.5).unwrap();
    remote.finish_tick().unwrap();
    remote.begin_tick(0, 1.0).unwrap();
    remote.finish_tick().unwrap();

    let ReplyBody::Repl(ReplReply::Fetch { next_lsn, records }) = exchange(
        8,
        RequestBody::Repl(ReplRequest::Fetch {
            from: start_lsn,
            ack: start_lsn,
            max: 64,
        }),
    ) else {
        panic!("expected ReplFetchOk");
    };
    assert_eq!(next_lsn, start_lsn + 2, "two ticks published two records");
    assert_eq!(records.len(), 2);
    for (i, (lsn, bytes)) in records.iter().enumerate() {
        assert_eq!(*lsn, start_lsn + i as u64, "lsns must be dense");
        replica.apply(0, decode_command(bytes).expect("shipped command decodes"));
    }
    assert_eq!(
        replica.state_digest(),
        remote_digest(primary.addr),
        "a replica built from binary-transport frames must match the primary"
    );

    // Status over frames: the ack watermark advanced with the fetch.
    let ReplyBody::Repl(ReplReply::Status(status)) =
        exchange(9, RequestBody::Repl(ReplRequest::Status))
    else {
        panic!("expected ReplStatusOk");
    };
    assert_eq!(status.role.as_str(), "primary");
    assert_eq!(status.next_lsn, start_lsn + 2);

    // Promoting a daemon that is not a standby is a structured conflict.
    let ReplyBody::Error { status, detail } = exchange(10, RequestBody::Repl(ReplRequest::Promote))
    else {
        panic!("expected an error reply");
    };
    assert_eq!(status, 409, "promote on a primary must conflict: {detail}");

    remote.shutdown().unwrap();
    primary.child.wait().ok();
}
