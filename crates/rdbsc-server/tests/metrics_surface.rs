//! Pins the `/metrics` surface of both tiers: for each topology, the sorted
//! JSON key paths of `GET /metrics` and the sorted `# TYPE` lines of
//! `GET /metrics?format=prom`. A key or series that appears, disappears or
//! changes type fails here, so a change to either body is a visible edit to
//! these lists.
//!
//! A JSON path joins object keys with `.`; an array contributes `name[]`
//! plus the union of its elements' key paths under `name[].`.

use rdbsc_cluster::RegionPartition;
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{EngineConfig, EngineEvent, WalConfig};
use rdbsc_server::{
    connect_remote_partition, HttpClient, Json, PartitionDaemon, PartitiondConfig, Server,
    ServerConfig,
};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::Duration;

fn json_paths(doc: &Json) -> BTreeSet<String> {
    fn walk(at: &Json, prefix: &str, out: &mut BTreeSet<String>) {
        match at {
            Json::Obj(map) => {
                for (key, value) in map {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    out.insert(path.clone());
                    walk(value, &path, out);
                }
            }
            Json::Arr(items) => {
                let path = format!("{prefix}[]");
                out.insert(path.clone());
                for item in items {
                    walk(item, &path, out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, "", &mut out);
    out
}

fn prom_types(body: &str) -> BTreeSet<String> {
    body.lines()
        .filter(|line| line.starts_with("# TYPE "))
        .map(str::to_string)
        .collect()
}

/// Scrapes both bodies of `addr`'s `/metrics`.
fn surface(addr: SocketAddr) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut client = HttpClient::new(addr);
    let json = client.get("/metrics").unwrap().json().unwrap();
    let prom = client.get("/metrics?format=prom").unwrap();
    assert_eq!(prom.status, 200);
    rdbsc_obs::validate_prom(&prom.body).expect("a valid exposition");
    (json_paths(&json), prom_types(&prom.body))
}

/// The union of `lists`.
fn listed(lists: &[&[&str]]) -> BTreeSet<String> {
    lists
        .iter()
        .flat_map(|list| list.iter().map(|s| s.to_string()))
        .collect()
}

/// The union of `lists` plus every histogram summary of [`SUMMARIES`]: the
/// JSON key paths every topology's `/metrics` carries.
fn json_listed(lists: &[&[&str]]) -> BTreeSet<String> {
    let mut want = listed(lists);
    for name in SUMMARIES {
        want.insert(name.to_string());
        for key in ["count", "mean_us", "p50_us", "p90_us", "p99_us", "max_us"] {
            want.insert(format!("{name}.{key}"));
        }
    }
    want
}

/// Asserts `actual == want`, printing what is missing and what is
/// unexpected.
fn assert_listed(what: &str, actual: &BTreeSet<String>, want: BTreeSet<String>) {
    let missing: Vec<_> = want.difference(actual).collect();
    let extra: Vec<_> = actual.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{what}: missing {missing:#?}\nunexpected {extra:#?}"
    );
}

fn task(id: u32, x: f64, y: f64) -> Json {
    Json::obj([
        ("id", Json::Num(f64::from(id))),
        ("x", Json::Num(x)),
        ("y", Json::Num(y)),
        ("start", Json::Num(0.0)),
        ("end", Json::Num(10.0)),
    ])
}

fn worker(id: u32, x: f64, y: f64) -> Json {
    Json::obj([
        ("id", Json::Num(f64::from(id))),
        ("x", Json::Num(x)),
        ("y", Json::Num(y)),
        ("speed", Json::Num(0.5)),
        ("confidence", Json::Num(0.9)),
    ])
}

fn router(partitions: usize, remote_partitions: Vec<String>) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        flush_interval: Duration::ZERO,
        partitions,
        remote_partitions,
        ..ServerConfig::default()
    })
    .expect("server start")
}

/// Posts a task and a worker beside it, then ticks once.
fn drive(server: &Server) {
    let mut client = HttpClient::new(server.addr());
    assert_eq!(
        client.post("/tasks", &task(0, 0.3, 0.3)).unwrap().status,
        202
    );
    assert_eq!(
        client
            .post("/workers", &worker(0, 0.25, 0.25))
            .unwrap()
            .status,
        202
    );
    assert_eq!(client.post("/tick", &Json::obj([])).unwrap().status, 200);
}

fn daemon(data_dir: Option<std::path::PathBuf>) -> PartitionDaemon {
    PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir,
        ..PartitiondConfig::default()
    })
    .expect("daemon start")
}

#[test]
fn one_region_router() {
    let server = router(1, Vec::new());
    drive(&server);
    let (json, prom) = surface(server.addr());
    assert_listed(
        "json",
        &json,
        json_listed(&[SHARED_JSON, SLOW_TICKS_JSON, ROUTER_JSON]),
    );
    assert_listed(
        "prom",
        &prom,
        listed(&[SHARED_PROM, ROUTER_PROM, ENGINE_PROM_FROM_JSON]),
    );
    server.shutdown();
    server.join();
}

#[test]
fn two_region_router_after_a_handoff() {
    let server = router(2, Vec::new());
    drive(&server);
    // A worker that cannot reach the task stays uncommitted, so its move
    // across the region boundary is handed off at once.
    let mut client = HttpClient::new(server.addr());
    let mut idle = worker(1, 0.1, 0.9);
    if let Json::Obj(fields) = &mut idle {
        fields.insert("speed".to_string(), Json::Num(0.0));
    }
    assert_eq!(client.post("/workers", &idle).unwrap().status, 202);
    assert_eq!(client.post("/tick", &Json::obj([])).unwrap().status, 200);
    let moved = Json::obj([
        ("id", Json::Num(1.0)),
        ("x", Json::Num(0.9)),
        ("y", Json::Num(0.1)),
    ]);
    assert_eq!(
        client.post("/workers/heartbeat", &moved).unwrap().status,
        202
    );
    assert_eq!(client.post("/tick", &Json::obj([])).unwrap().status, 200);
    assert!(
        server.handle().handoffs() >= 1,
        "the heartbeat must cross regions"
    );
    let (json, prom) = surface(server.addr());
    assert_listed(
        "json",
        &json,
        json_listed(&[SHARED_JSON, SLOW_TICKS_JSON, ROUTER_JSON, MULTI_REGION_JSON]),
    );
    assert_listed(
        "prom",
        &prom,
        listed(&[
            SHARED_PROM,
            ROUTER_PROM,
            MULTI_REGION_PROM,
            ENGINE_PROM_FROM_JSON,
        ]),
    );
    server.shutdown();
    server.join();
}

#[test]
fn router_with_one_remote_daemon() {
    let remote = daemon(None);
    let server = router(1, vec![remote.addr().to_string()]);
    drive(&server);
    let (json, prom) = surface(server.addr());
    assert_listed(
        "json",
        &json,
        json_listed(&[SHARED_JSON, SLOW_TICKS_JSON, ROUTER_JSON]),
    );
    assert_listed(
        "prom",
        &prom,
        listed(&[SHARED_PROM, ROUTER_PROM, ENGINE_PROM_FROM_JSON]),
    );
    server.shutdown();
    server.join();
    remote.join();
}

#[test]
fn configured_durable_daemon() {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdbsc-metrics-surface-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = daemon(Some(dir.clone()));
    let partition = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1));
    let mut client = connect_remote_partition(
        &durable.addr().to_string(),
        &partition,
        0,
        0.1,
        &EngineConfig::default(),
        Some(&WalConfig::default()),
    )
    .expect("daemon handshake");
    let events = vec![
        EngineEvent::TaskArrived(Task::new(
            TaskId(0),
            Point::new(0.3, 0.3),
            TimeWindow::new(0.0, 10.0).unwrap(),
        )),
        EngineEvent::WorkerCheckIn(
            Worker::new(
                WorkerId(0),
                Point::new(0.25, 0.25),
                0.5,
                AngleRange::full(),
                Confidence::new(0.9).unwrap(),
            )
            .unwrap(),
        ),
    ];
    client.begin_submit(0, events).unwrap();
    client.finish_submit().unwrap();
    client.begin_tick(0, 0.0).unwrap();
    client.finish_tick().unwrap();
    let (json, prom) = surface(durable.addr());
    assert_listed(
        "json",
        &json,
        json_listed(&[SHARED_JSON, SLOW_TICKS_JSON, DAEMON_JSON, CONFIGURED_JSON]),
    );
    assert_listed(
        "prom",
        &prom,
        listed(&[
            SHARED_PROM,
            DAEMON_PROM,
            REPL_PROM_FROM_JSON,
            CONFIGURED_PROM,
            ENGINE_PROM_FROM_JSON,
            WAL_PROM_FROM_JSON,
        ]),
    );
    drop(client);
    durable.shutdown();
    durable.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unconfigured_daemon() {
    let idle = daemon(None);
    let (json, prom) = surface(idle.addr());
    assert_listed(
        "json",
        &json,
        json_listed(&[SHARED_JSON, SLOW_TICKS_JSON, DAEMON_JSON]),
    );
    assert_listed(
        "prom",
        &prom,
        listed(&[SHARED_PROM, DAEMON_PROM, REPL_PROM_FROM_JSON]),
    );
    idle.shutdown();
    idle.join();
}

/// Histograms whose JSON summary every tier serves.
const SUMMARIES: &[&str] = &[
    "request_latency",
    "tick_latency",
    "tick_stages.apply",
    "tick_stages.extract",
    "tick_stages.solve",
    "tick_stages.merge",
    "tick_stages.wal_append",
    "tick_stages.wal_fsync",
];

/// JSON key paths every tier serves (the listener, batching and tick
/// instruments), histogram summaries aside.
const SHARED_JSON: &[&str] = &[
    "batching",
    "batching.early_flushes",
    "batching.events_buffered",
    "batching.flushes",
    "connections",
    "connections.accepted",
    "connections.shed",
    "requests",
    "requests.responses_2xx",
    "requests.responses_4xx",
    "requests.responses_5xx",
    "requests.total",
    "tick_stages",
];

/// Prometheus series every tier serves.
const SHARED_PROM: &[&str] = &[
    "# TYPE batch_flushes_early_total counter",
    "# TYPE batch_flushes_total counter",
    "# TYPE connections_accepted_total counter",
    "# TYPE connections_shed_total counter",
    "# TYPE events_buffered_total counter",
    "# TYPE request_latency_us histogram",
    "# TYPE requests_total counter",
    "# TYPE responses_2xx_total counter",
    "# TYPE responses_4xx_total counter",
    "# TYPE responses_5xx_total counter",
    "# TYPE slow_ticks_captured_total counter",
    "# TYPE tick_latency_us histogram",
    "# TYPE tick_stage_apply_us histogram",
    "# TYPE tick_stage_extract_us histogram",
    "# TYPE tick_stage_merge_us histogram",
    "# TYPE tick_stage_solve_us histogram",
    "# TYPE tick_stage_wal_append_us histogram",
    "# TYPE tick_stage_wal_fsync_us histogram",
];

/// What a router adds: the merged engine view, topology, health and
/// transports.
const ROUTER_JSON: &[&str] = &[
    "engine",
    "engine.banked_answers",
    "engine.committed_workers",
    "engine.covered_tasks",
    "engine.events_applied",
    "engine.index_cells_repaired",
    "engine.index_relocations",
    "engine.index_tcell_rebuilds",
    "engine.live_tasks",
    "engine.live_workers",
    "engine.min_reliability",
    "engine.now",
    "engine.pending_events",
    "engine.ticks",
    "engine.total_assignments",
    "engine.total_std",
    "events_dropped",
    "partitions_count",
    "partitions_promoted",
    "partitions_unhealthy",
    "remote_partitions",
    "standbys_armed",
    "transports",
    "transports[]",
    "transports[].bytes_received",
    "transports[].bytes_sent",
    "transports[].command_latency",
    "transports[].command_latency.max_us",
    "transports[].command_latency.p50_us",
    "transports[].command_latency.p99_us",
    "transports[].endpoint",
    "transports[].frames_received",
    "transports[].frames_sent",
    "transports[].kind",
    "transports[].partition",
    "transports[].reconnects",
    "transports[].requests",
    "transports[].retries",
];

const ROUTER_PROM: &[&str] = &[
    "# TYPE engine_assignments_total counter",
    "# TYPE engine_committed_workers gauge",
    "# TYPE engine_events_applied_total counter",
    "# TYPE engine_live_tasks gauge",
    "# TYPE engine_live_workers gauge",
    "# TYPE engine_now gauge",
    "# TYPE engine_pending_events gauge",
    "# TYPE engine_ticks_total counter",
    "# TYPE events_dropped_total counter",
    "# TYPE partition_bytes_received_total counter",
    "# TYPE partition_bytes_sent_total counter",
    "# TYPE partition_commands_total counter",
    "# TYPE partition_frames_received_total counter",
    "# TYPE partition_frames_sent_total counter",
    "# TYPE partition_reconnects_total counter",
    "# TYPE partition_retries_total counter",
    "# TYPE partitions_count gauge",
    "# TYPE partitions_promoted_total counter",
    "# TYPE partitions_unhealthy gauge",
    "# TYPE remote_partitions gauge",
    "# TYPE standbys_armed gauge",
];

/// What a router with more than one region adds: handoffs and the
/// per-partition breakdown.
const MULTI_REGION_JSON: &[&str] = &[
    "handoffs",
    "partitions",
    "partitions[]",
    "partitions[].banked_answers",
    "partitions[].committed_workers",
    "partitions[].covered_tasks",
    "partitions[].events_applied",
    "partitions[].index_cells_repaired",
    "partitions[].index_relocations",
    "partitions[].index_tcell_rebuilds",
    "partitions[].live_tasks",
    "partitions[].live_workers",
    "partitions[].min_reliability",
    "partitions[].now",
    "partitions[].partition",
    "partitions[].pending_events",
    "partitions[].ticks",
    "partitions[].total_assignments",
    "partitions[].total_std",
];

const MULTI_REGION_PROM: &[&str] = &["# TYPE handoffs_total counter"];

/// What every daemon adds: its state and replication status.
const DAEMON_JSON: &[&str] = &[
    "configured",
    "draining",
    "durable",
    "protocol_version",
    "repl",
    "repl.acked",
    "repl.applied",
    "repl.lag",
    "repl.next_lsn",
    "repl.resets",
    "repl.retained",
    "repl.role",
    "repl.sealed",
];

const DAEMON_PROM: &[&str] = &[
    "# TYPE configured gauge",
    "# TYPE draining gauge",
    "# TYPE durable gauge",
    "# TYPE protocol_version gauge",
    "# TYPE repl_acked_lsn gauge",
    "# TYPE repl_applied_lsn gauge",
    "# TYPE repl_lag gauge",
    "# TYPE repl_next_lsn gauge",
    "# TYPE repl_sealed gauge",
    "# TYPE repl_standby gauge",
    "# TYPE repl_stream_resets gauge",
];

/// What a configured durable daemon adds: its region and engine, WAL
/// included.
const CONFIGURED_JSON: &[&str] = &[
    "engine",
    "engine.banked_answers",
    "engine.committed_workers",
    "engine.covered_tasks",
    "engine.events_applied",
    "engine.index_cells_repaired",
    "engine.index_relocations",
    "engine.index_tcell_rebuilds",
    "engine.live_tasks",
    "engine.live_workers",
    "engine.min_reliability",
    "engine.now",
    "engine.pending_events",
    "engine.ticks",
    "engine.total_assignments",
    "engine.total_std",
    "engine.wal",
    "engine.wal.bytes_appended",
    "engine.wal.checkpoints",
    "engine.wal.fsyncs",
    "engine.wal.last_checkpoint_tick",
    "engine.wal.records_appended",
    "engine.wal.recovered_checkpoint",
    "engine.wal.recovered_records",
    "engine.wal.segments",
    "engine.wal.segments_retired",
    "region_index",
];

const CONFIGURED_PROM: &[&str] = &[
    "# TYPE engine_assignments_total counter",
    "# TYPE engine_committed_workers gauge",
    "# TYPE engine_events_applied_total counter",
    "# TYPE engine_live_tasks gauge",
    "# TYPE engine_live_workers gauge",
    "# TYPE engine_now gauge",
    "# TYPE engine_pending_events gauge",
    "# TYPE engine_ticks_total counter",
    "# TYPE region_index gauge",
    "# TYPE wal_bytes_appended_total counter",
    "# TYPE wal_checkpoints_total counter",
    "# TYPE wal_fsyncs_total counter",
    "# TYPE wal_records_appended_total counter",
    "# TYPE wal_segments gauge",
];

// One body's copies of values the other body's lists above already pin,
// kept apart so that each list above reads as one writer's surface.

/// The JSON copy of `slow_ticks_captured_total`.
const SLOW_TICKS_JSON: &[&str] = &["slow_ticks_captured"];

/// The Prometheus copies of engine scalars JSON serves under `engine`.
const ENGINE_PROM_FROM_JSON: &[&str] = &[
    "# TYPE engine_banked_answers_total counter",
    "# TYPE engine_covered_tasks gauge",
    "# TYPE engine_index_cells_repaired_total counter",
    "# TYPE engine_index_relocations_total counter",
    "# TYPE engine_index_tcell_rebuilds_total counter",
    "# TYPE engine_min_reliability gauge",
    "# TYPE engine_total_std gauge",
];

/// The Prometheus copies of WAL scalars JSON serves under `engine.wal`.
const WAL_PROM_FROM_JSON: &[&str] = &[
    "# TYPE wal_last_checkpoint_tick gauge",
    "# TYPE wal_recovered_checkpoint gauge",
    "# TYPE wal_recovered_records gauge",
    "# TYPE wal_segments_retired_total counter",
];

/// The Prometheus copy of `repl.retained`.
const REPL_PROM_FROM_JSON: &[&str] = &["# TYPE repl_retained gauge"];
