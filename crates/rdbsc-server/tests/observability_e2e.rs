//! End-to-end tests of the observability surface: trace ids propagating
//! from the router's partition client over the wire into a real daemon's
//! span buffer and back in the reply echo, Prometheus scrapes validating
//! on both tiers, slow-tick capture at a zero threshold, and the explicit
//! `Content-Type` headers on `/metrics`.

use rdbsc_cluster::RegionPartition;
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::{EngineConfig, EngineEvent};
use rdbsc_server::json::Json;
use rdbsc_server::protocol::trace_to_hex;
use rdbsc_server::{
    connect_remote_partition, HttpClient, PartitionDaemon, PartitiondConfig, Server, ServerConfig,
};
use std::io::{Read, Write};
use std::time::Duration;

fn events() -> Vec<EngineEvent> {
    let mut events = Vec::new();
    for i in 0..6u32 {
        let x = 0.15 + 0.12 * i as f64;
        events.push(EngineEvent::TaskArrived(Task::new(
            TaskId(i),
            Point::new(x, 0.5),
            TimeWindow::new(0.0, 5.0).unwrap(),
        )));
        events.push(EngineEvent::WorkerCheckIn(
            Worker::new(
                WorkerId(i),
                Point::new(x, 0.45),
                0.3,
                AngleRange::full(),
                Confidence::new(0.9).unwrap(),
            )
            .unwrap(),
        ));
    }
    events
}

/// One raw HTTP/1.1 exchange, returning the full response text so headers
/// (which [`HttpClient`] does not expose) can be asserted.
fn raw_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    text
}

/// The tentpole wire contract: a router-issued trace id crosses to the
/// daemon, shows up in the daemon's span buffer and slow-tick capture, and
/// is echoed in the tick reply — while untraced requests keep working
/// unchanged.
#[test]
fn trace_ids_propagate_to_the_daemon_and_echo_back() {
    let daemon = PartitionDaemon::start(PartitiondConfig {
        addr: "127.0.0.1:0".to_string(),
        slow_tick_threshold_us: 0, // capture every tick
        ..PartitiondConfig::default()
    })
    .unwrap();
    let partition = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1));
    let config = EngineConfig::default();
    let mut client = connect_remote_partition(
        &daemon.addr().to_string(),
        &partition,
        0,
        0.1,
        &config,
        None,
    )
    .unwrap();

    // Untraced first: a zero trace id means none, and the reply carries
    // none back.
    client.begin_submit(0, events()).unwrap();
    client.finish_submit().unwrap();
    client.begin_tick(0, 0.0).unwrap();
    let untraced = client.finish_tick().unwrap();
    assert_eq!(untraced.trace, 0, "no trace was requested");
    assert!(
        !untraced.report.new_assignments.is_empty(),
        "the scenario must assign"
    );

    // Traced: the id rides both submit and tick and the daemon echoes it.
    let trace = rdbsc_obs::next_trace_id();
    client
        .begin_submit(
            trace,
            vec![EngineEvent::WorkerMoved(WorkerId(0), Point::new(0.3, 0.5))],
        )
        .unwrap();
    client.finish_submit().unwrap();
    client.begin_tick(trace, 0.5).unwrap();
    let traced = client.finish_tick().unwrap();
    assert_eq!(traced.trace, trace, "the daemon must echo the trace id");

    // The daemon recorded spans under that id, served at /debug/spans.
    let hex = trace_to_hex(trace);
    let mut raw = HttpClient::new(daemon.addr());
    let spans = raw
        .get(&format!("/debug/spans?trace={hex}"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(spans.get("trace").unwrap().as_str().unwrap(), hex);
    let span_list = spans.get("spans").unwrap().as_arr().unwrap();
    assert!(
        !span_list.is_empty(),
        "the traced tick must leave spans in the daemon's buffer"
    );

    // The zero-threshold slow-tick buffer captured the traced tick, span
    // tree attached.
    let slow = raw.get("/debug/slow-ticks").unwrap().json().unwrap();
    let captures = slow.get("captures").unwrap().as_arr().unwrap();
    assert!(captures
        .iter()
        .any(|c| c.get("trace").and_then(|t| t.as_str()) == Some(&hex)));

    // With no `?trace=`, /debug/spans serves the last traced tick; an
    // untraced tick after it leaves that choice alone.
    let default_trace = |raw: &mut HttpClient| {
        let spans = raw.get("/debug/spans").unwrap().json().unwrap();
        spans.get("trace").unwrap().as_str().unwrap().to_string()
    };
    assert_eq!(default_trace(&mut raw), hex);
    client.begin_tick(0, 1.0).unwrap();
    assert_eq!(client.finish_tick().unwrap().trace, 0);
    assert_eq!(
        default_trace(&mut raw),
        hex,
        "an untraced tick is not the last trace"
    );

    // The daemon's Prometheus exposition parses, carries stage data, and
    // timed every tick it served: three.
    let prom = raw.get("/metrics?format=prom").unwrap();
    assert_eq!(prom.status, 200);
    rdbsc_obs::validate_prom(&prom.body).unwrap_or_else(|e| panic!("{e}\n{}", prom.body));
    assert!(prom.body.contains("tick_stage_solve_us"), "{}", prom.body);
    assert!(prom.body.contains("engine_ticks_total"), "{}", prom.body);
    assert!(
        prom.body
            .lines()
            .any(|line| line == "tick_latency_us_count 3"),
        "{}",
        prom.body
    );

    client.shutdown().unwrap();
    daemon.join();
}

/// The router tier serves the same surface: valid Prometheus text, a
/// zero-threshold slow-tick capture, the legacy JSON `/metrics` shape, and
/// explicit `Content-Type` headers on both formats.
#[test]
fn router_metrics_serve_prom_and_slow_ticks_with_content_types() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        flush_interval: Duration::ZERO,
        slow_tick_threshold_us: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = HttpClient::new(server.addr());

    // A little traffic, then one controlled tick.
    for i in 0..4u32 {
        let x = 0.2 + 0.15 * i as f64;
        let task = Json::obj([
            ("id", Json::Num(i as f64)),
            ("x", Json::Num(x)),
            ("y", Json::Num(0.5)),
            ("start", Json::Num(0.0)),
            ("end", Json::Num(10.0)),
        ]);
        assert_eq!(client.post("/tasks", &task).unwrap().status, 202);
        let worker = Json::obj([
            ("id", Json::Num(i as f64)),
            ("x", Json::Num(x)),
            ("y", Json::Num(0.45)),
            ("speed", Json::Num(0.5)),
            ("confidence", Json::Num(0.9)),
            ("available_from", Json::Num(0.0)),
        ]);
        assert_eq!(client.post("/workers", &worker).unwrap().status, 202);
    }
    let tick = client
        .post("/tick", &Json::obj([("now", Json::Num(0.0))]))
        .unwrap();
    assert_eq!(tick.status, 200);

    // The legacy JSON shape survives, with the additive stage breakdown.
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    for key in [
        "connections",
        "requests",
        "batching",
        "request_latency",
        "tick_latency",
    ] {
        assert!(metrics.get(key).is_some(), "legacy key {key} missing");
    }
    let stages = metrics.get("tick_stages").unwrap();
    assert!(stages.get("solve").is_some());

    // The Prometheus rendering validates and includes scrape-time gauges.
    let prom = client.get("/metrics?format=prom").unwrap();
    rdbsc_obs::validate_prom(&prom.body).unwrap_or_else(|e| panic!("{e}\n{}", prom.body));
    assert!(prom.body.contains("partitions_count"), "{}", prom.body);
    assert!(
        prom.body.contains("request_latency_us_bucket"),
        "{}",
        prom.body
    );

    // Zero threshold: the manual tick was captured with its stage split.
    let slow = client.get("/debug/slow-ticks").unwrap().json().unwrap();
    assert!(slow.get("total_captured").unwrap().as_num().unwrap() >= 1.0);
    let captures = slow.get("captures").unwrap().as_arr().unwrap();
    assert!(!captures.is_empty());
    assert!(captures[0].get("stages").unwrap().get("solve_us").is_some());

    // Explicit Content-Type on both formats (the header the scrapers key
    // off): JSON by default, versioned text for Prometheus.
    let raw_json = raw_get(server.addr(), "/metrics").to_ascii_lowercase();
    assert!(
        raw_json.contains("content-type: application/json"),
        "{raw_json}"
    );
    let raw_prom = raw_get(server.addr(), "/metrics?format=prom").to_ascii_lowercase();
    assert!(
        raw_prom.contains("content-type: text/plain; version=0.0.4"),
        "{raw_prom}"
    );

    server.shutdown();
}
