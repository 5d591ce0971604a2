//! End-to-end tests: a real server on a loopback socket, driven through the
//! HTTP client, checked against an offline engine run on the same event
//! stream.

use rdbsc_cluster::RegionPartition;
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::GridIndex;
use rdbsc_platform::{AssignmentEngine, EngineEvent, EngineHandle, PartitionedEngine};
use rdbsc_server::dto::{AssignmentDto, SnapshotDto, TaskDto, WorkerDto};
use rdbsc_server::json::Json;
use rdbsc_server::{HttpClient, PartitionDaemon, PartitiondConfig, Server, ServerConfig};
use std::time::{Duration, Instant};

fn manual_tick_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        flush_interval: Duration::ZERO, // only POST /tick advances the engine
        ..ServerConfig::default()
    }
}

fn task_dto(id: u32, x: f64, y: f64) -> TaskDto {
    TaskDto {
        id,
        x,
        y,
        start: 0.0,
        end: 10.0,
        beta: None,
    }
}

fn worker_dto(id: u32, x: f64, y: f64) -> WorkerDto {
    WorkerDto {
        id,
        x,
        y,
        speed: 0.5,
        heading: None,
        confidence: 0.9,
        available_from: 0.0,
    }
}

/// A small clustered world: two groups far apart, workers near the tasks.
fn scenario() -> (Vec<TaskDto>, Vec<WorkerDto>) {
    let mut tasks = Vec::new();
    let mut workers = Vec::new();
    let mut id = 0u32;
    for (cx, cy) in [(0.2, 0.2), (0.8, 0.8)] {
        for i in 0..5 {
            let offset = 0.015 * i as f64;
            tasks.push(task_dto(id, cx + offset, cy - offset));
            workers.push(worker_dto(id, cx - offset, cy + offset));
            id += 1;
        }
    }
    (tasks, workers)
}

#[test]
fn server_matches_offline_engine_on_the_same_event_stream() {
    let config = manual_tick_config();
    let engine_config = config.engine.clone();
    let (cell_size, area) = (config.cell_size, config.area);
    let server = Server::start(config).expect("server must start");
    let mut client = HttpClient::new(server.addr());

    let (tasks, workers) = scenario();
    for t in &tasks {
        let response = client.post("/tasks", &t.to_json()).unwrap();
        assert_eq!(response.status, 202, "{}", response.body);
    }
    for w in &workers {
        let response = client.post("/workers", &w.to_json()).unwrap();
        assert_eq!(response.status, 202, "{}", response.body);
    }

    // One controlled tick at t=0.
    let response = client
        .post("/tick", &Json::obj([("now", Json::Num(0.0))]))
        .unwrap();
    assert_eq!(response.status, 200);
    let online: Vec<AssignmentDto> = client
        .get("/assignments")
        .unwrap()
        .json()
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| AssignmentDto::from_json(v).unwrap())
        .collect();
    assert!(!online.is_empty(), "the scenario must produce assignments");

    // The same event stream, straight into a plain engine — no handle, no
    // router: the default server is its one-region topology.
    let mut offline = AssignmentEngine::new(GridIndex::new(area, cell_size), engine_config);
    for t in &tasks {
        offline.submit(EngineEvent::TaskArrived(t.clone().into_task().unwrap()));
    }
    for w in &workers {
        offline.submit(EngineEvent::WorkerCheckIn(w.clone().into_worker().unwrap()));
    }
    offline.tick(0.0);
    let offline: Vec<AssignmentDto> = offline
        .committed_assignments()
        .iter()
        .map(AssignmentDto::from_pair)
        .collect();

    // The server runs the flat serving index behind the region router while
    // the offline engine ran on the reference grid — matching outputs here
    // is the router's and the index's determinism contracts observed end to
    // end over the wire.
    assert_eq!(
        online, offline,
        "served assignments must equal the offline run"
    );

    let snapshot =
        SnapshotDto::from_json(&client.get("/snapshot").unwrap().json().unwrap()).unwrap();
    assert_eq!(snapshot.total_assignments as usize, online.len());
    assert_eq!(snapshot.live_tasks as usize, tasks.len());
    assert_eq!(snapshot.live_workers as usize, workers.len());
    assert!(
        snapshot.index_tcell_rebuilds >= 1.0,
        "the tick must have built reachability lists"
    );

    // One in-process region behind the router.
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    assert_eq!(
        metrics.get("partitions_count").and_then(Json::as_num),
        Some(1.0)
    );
    let transports = metrics.get("transports").and_then(Json::as_arr).unwrap();
    assert_eq!(transports.len(), 1);
    assert_eq!(
        transports[0].get("kind"),
        Some(&Json::Str("in-process".to_string()))
    );

    server.shutdown();
    server.join();
}

#[test]
fn partitioned_server_matches_its_offline_replica() {
    // All in-process, then with region 0 on a partition daemon over the
    // binary frame transport: the replica stays all-in-process, so the
    // second case adds the partition protocol's wire fidelity.
    for remote_regions in [0, 1] {
        partitioned_server_matches_replica(remote_regions);
    }
}

fn partitioned_server_matches_replica(remote_regions: usize) {
    // Two partitions over the unit square (uniform split: left/right
    // halves); the scenario's two clusters land one per partition. The
    // offline replica is the same region split the server config describes,
    // built by hand on the reference grid — so this exercises the router
    // determinism AND the index determinism contract over the wire.
    let daemons: Vec<PartitionDaemon> = (0..remote_regions)
        .map(|_| {
            PartitionDaemon::start(PartitiondConfig {
                addr: "127.0.0.1:0".to_string(),
                ..PartitiondConfig::default()
            })
            .expect("daemon must start")
        })
        .collect();
    let config = ServerConfig {
        partitions: 2,
        remote_partitions: daemons.iter().map(|d| d.addr().to_string()).collect(),
        ..manual_tick_config()
    };
    let cell_size = config.cell_size;
    let offline_handle = EngineHandle::new(PartitionedEngine::build(
        RegionPartition::uniform(GridGeometry::new(config.area, cell_size), config.partitions),
        config.engine.clone(),
        |rect| GridIndex::new(rect, cell_size),
    ));
    let server = Server::start(config).expect("server must start");
    let mut client = HttpClient::new(server.addr());

    let (tasks, workers) = scenario();
    for t in &tasks {
        assert_eq!(client.post("/tasks", &t.to_json()).unwrap().status, 202);
    }
    for w in &workers {
        assert_eq!(client.post("/workers", &w.to_json()).unwrap().status, 202);
    }
    // A worker wanders across the partition boundary before the first tick.
    let crossing = Json::obj([
        ("id", Json::Num(0.0)),
        ("x", Json::Num(0.85)),
        ("y", Json::Num(0.85)),
    ]);
    assert_eq!(
        client.post("/workers/heartbeat", &crossing).unwrap().status,
        202
    );

    client
        .post("/tick", &Json::obj([("now", Json::Num(0.0))]))
        .unwrap();
    let online: Vec<AssignmentDto> = client
        .get("/assignments")
        .unwrap()
        .json()
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| AssignmentDto::from_json(v).unwrap())
        .collect();
    assert!(!online.is_empty(), "the scenario must produce assignments");

    for t in &tasks {
        offline_handle.submit(EngineEvent::TaskArrived(t.clone().into_task().unwrap()));
    }
    for w in &workers {
        offline_handle.submit(EngineEvent::WorkerCheckIn(w.clone().into_worker().unwrap()));
    }
    offline_handle.submit(EngineEvent::WorkerMoved(
        rdbsc_model::WorkerId(0),
        rdbsc_geo::Point::new(0.85, 0.85),
    ));
    offline_handle.tick(0.0);
    let offline: Vec<AssignmentDto> = offline_handle
        .assignments()
        .iter()
        .map(AssignmentDto::from_pair)
        .collect();
    assert_eq!(
        online, offline,
        "partitioned serving ({remote_regions} remote) must match its replica"
    );

    // The merged snapshot covers both partitions; /metrics breaks them out.
    let snapshot =
        SnapshotDto::from_json(&client.get("/snapshot").unwrap().json().unwrap()).unwrap();
    assert_eq!(snapshot.live_tasks as usize, tasks.len());
    assert_eq!(snapshot.live_workers as usize, workers.len());
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    assert_eq!(metrics.get("partitions_count").unwrap().as_num(), Some(2.0));
    let partitions = metrics.get("partitions").unwrap().as_arr().unwrap();
    assert_eq!(partitions.len(), 2);
    assert_eq!(
        metrics.get("remote_partitions").unwrap().as_num(),
        Some(remote_regions as f64)
    );
    let live_per_partition: Vec<f64> = partitions
        .iter()
        .map(|p| p.get("live_tasks").unwrap().as_num().unwrap())
        .collect();
    assert_eq!(live_per_partition.iter().sum::<f64>() as usize, tasks.len());
    assert!(
        live_per_partition.iter().all(|&n| n > 0.0),
        "both partitions must hold part of the workload: {live_per_partition:?}"
    );
    assert!(metrics.get("handoffs").unwrap().as_num().is_some());
    for (i, p) in partitions.iter().enumerate() {
        assert_eq!(p.get("partition").unwrap().as_num(), Some(i as f64));
    }

    server.shutdown();
    server.join(); // drains and stops the daemons too
    for daemon in daemons {
        daemon.join();
    }
}

#[test]
fn auto_flush_assigns_without_explicit_ticks() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        flush_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("server must start");
    let mut client = HttpClient::new(server.addr());

    let (tasks, workers) = scenario();
    for t in &tasks {
        assert!(client.post("/tasks", &t.to_json()).unwrap().is_success());
    }
    for w in &workers {
        assert!(client.post("/workers", &w.to_json()).unwrap().is_success());
    }

    let started = Instant::now();
    let mut assigned = 0.0;
    while started.elapsed() < Duration::from_secs(10) {
        let snapshot =
            SnapshotDto::from_json(&client.get("/snapshot").unwrap().json().unwrap()).unwrap();
        assigned = snapshot.total_assignments;
        if assigned > 0.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        assigned > 0.0,
        "the micro-batch flusher must tick on its own"
    );

    // Completing an answer frees the worker and banks the contribution.
    let pair = &client
        .get("/assignments")
        .unwrap()
        .json()
        .unwrap()
        .as_arr()
        .unwrap()[0]
        .clone();
    let pair = AssignmentDto::from_json(pair).unwrap();
    let answer = Json::obj([
        ("worker", Json::Num(pair.worker as f64)),
        ("confidence", Json::Num(pair.confidence)),
        ("angle", Json::Num(pair.angle)),
        ("arrival", Json::Num(pair.arrival)),
    ]);
    let response = client.post("/answers", &answer).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.json().unwrap().get("banked"),
        Some(&Json::Bool(true))
    );

    server.shutdown();
    server.join();
}

#[test]
fn a_posted_task_is_assigned_without_waiting_out_the_flush_interval() {
    let server = Server::start(ServerConfig {
        flush_interval: Duration::from_secs(3600),
        ..manual_tick_config()
    })
    .expect("server must start");
    let mut client = HttpClient::new(server.addr());
    let (tasks, workers) = scenario();
    let (task, worker) = (&tasks[0], &workers[0]);
    for (path, body) in [("/workers", worker.to_json()), ("/tasks", task.to_json())] {
        assert_eq!(client.post(path, &body).unwrap().status, 202);
    }

    // Only the arrivals themselves can have woken the flusher.
    let started = Instant::now();
    let mut pairs = Json::Arr(Vec::new());
    while pairs.as_arr().unwrap().is_empty() && started.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
        pairs = client.get("/assignments").unwrap().json().unwrap();
    }
    let pair = pairs.as_arr().unwrap().first().expect("a pair within 5 s");
    let pair = AssignmentDto::from_json(pair).unwrap();
    assert_eq!((pair.task, pair.worker), (task.id, worker.id));
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let early = metrics.get("batching").and_then(|b| b.get("early_flushes"));
    assert!(early.and_then(Json::as_num).unwrap() >= 1.0, "{early:?}");

    server.shutdown();
    server.join();
}

#[test]
fn shed_events_are_not_counted_as_buffered() {
    let server = Server::start(ServerConfig {
        max_batch: 2,
        max_buffered_events: 2,
        ..manual_tick_config()
    })
    .expect("server must start");
    let mut client = HttpClient::new(server.addr());
    let heartbeat = Json::obj([
        ("id", Json::Num(0.0)),
        ("x", Json::Num(0.5)),
        ("y", Json::Num(0.5)),
    ]);
    let mut statuses = Vec::new();
    for _ in 0..3 {
        let reply = client.post("/workers/heartbeat", &heartbeat).unwrap();
        statuses.push(reply.status);
    }
    assert_eq!(statuses, [202, 202, 429]);
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let batching = metrics.get("batching").unwrap();
    let buffered = batching.get("events_buffered").and_then(Json::as_num);
    assert_eq!(buffered, Some(2.0));

    server.shutdown();
    server.join();
}

#[test]
fn bad_requests_get_400s_not_crashes() {
    let server = Server::start(manual_tick_config()).expect("server must start");
    let mut client = HttpClient::new(server.addr());

    // Malformed JSON.
    let r = client
        .request("POST", "/tasks", Some("{not json".to_string()))
        .unwrap();
    assert_eq!(r.status, 400);
    // Valid JSON, missing fields.
    let r = client
        .post("/tasks", &Json::obj([("id", Json::Num(1.0))]))
        .unwrap();
    assert_eq!(r.status, 400);
    // Valid fields, invalid model object (end < start).
    let mut bad = task_dto(1, 0.5, 0.5);
    bad.start = 5.0;
    bad.end = 1.0;
    let r = client.post("/tasks", &bad.to_json()).unwrap();
    assert_eq!(r.status, 400);
    // Unknown route, wrong method.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/tasks").unwrap().status, 405);
    assert_eq!(
        client.post("/snapshot", &Json::obj([])).unwrap().status,
        405
    );

    // The connection (and server) still works after all that.
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn metrics_report_counters_and_latencies() {
    let server = Server::start(manual_tick_config()).expect("server must start");
    let mut client = HttpClient::new(server.addr());

    for _ in 0..5 {
        assert!(client.get("/healthz").unwrap().is_success());
    }
    let _ = client.get("/nope");

    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let requests = metrics.get("requests").unwrap();
    assert!(requests.get("total").unwrap().as_num().unwrap() >= 6.0);
    assert!(requests.get("responses_2xx").unwrap().as_num().unwrap() >= 5.0);
    assert!(requests.get("responses_4xx").unwrap().as_num().unwrap() >= 1.0);
    let latency = metrics.get("request_latency").unwrap();
    assert!(latency.get("count").unwrap().as_num().unwrap() >= 6.0);
    let engine = metrics.get("engine").unwrap();
    // The index's maintenance counters are scraped alongside the serving
    // counters.
    assert!(engine.get("index_relocations").unwrap().as_num().is_some());
    assert!(engine
        .get("index_cells_repaired")
        .unwrap()
        .as_num()
        .is_some());
    assert!(engine
        .get("index_tcell_rebuilds")
        .unwrap()
        .as_num()
        .is_some());

    server.shutdown();
    server.join();
}

#[test]
fn saturated_queue_sheds_with_429() {
    // One worker thread and a one-slot queue: the third concurrent
    // connection must be shed.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_capacity: 1,
        flush_interval: Duration::ZERO,
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("server must start");
    let addr = server.addr();

    // Connection A: occupies the single worker thread (keep-alive).
    let mut a = HttpClient::new(addr);
    assert!(a.get("/healthz").unwrap().is_success());
    // Connection B: sits in the queue (never popped while A is open).
    let _b = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // Connection C: queue full -> 429 from the acceptor.
    let mut c = HttpClient::new(addr).with_timeout(Duration::from_secs(5));
    let shed = c.get("/healthz").unwrap();
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.body.contains("retry"), "{}", shed.body);
    assert!(server.metrics().connections_shed.get() >= 1);

    server.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_via_the_admin_route() {
    let server = Server::start(manual_tick_config()).expect("server must start");
    let addr = server.addr();
    let mut client = HttpClient::new(addr);
    assert!(client.get("/healthz").unwrap().is_success());

    let response = client.post("/admin/shutdown", &Json::obj([])).unwrap();
    assert_eq!(response.status, 200);
    // join() returning proves every thread exited.
    server.join();
    // And the port is actually released.
    assert!(std::net::TcpListener::bind(addr).is_ok());
}

#[test]
fn the_backend_flag_is_refused_as_unknown() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rdbsc-server"))
        .args(["--backend", "grid"])
        .output()
        .expect("run rdbsc-server");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --backend"), "{stderr}");
    assert_eq!(
        stderr.matches("--backend").count(),
        1,
        "the usage text must not list the flag: {stderr}"
    );
}
