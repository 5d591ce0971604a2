//! Closed-loop load generator for `rdbsc-server`.
//!
//! Drives the serving subsystem over loopback HTTP with `--connections`
//! persistent keep-alive clients, each issuing its next request as soon as
//! the previous one completes (closed loop — offered load adapts to the
//! server). The mix is heartbeat-dominated, the way a live platform's
//! traffic is: worker position updates, a steady trickle of task posts and
//! expirations, answer deliveries for en-route workers, and snapshot reads.
//!
//! Two phases:
//!
//! 1. **verify** (`--verify`, spawn mode only): boots a *manual-tick* server,
//!    plays a deterministic seeded workload through it, forces a tick, and
//!    asserts the served assignments equal an offline engine run (the
//!    identically configured — and, with `--partitions N`, identically
//!    partitioned — replica) on the same event stream, byte-for-byte.
//! 2. **bench**: boots an auto-flush server (or targets `--addr`), runs the
//!    closed loop for a warm-up (excluded from the histogram) plus
//!    `--duration` seconds, and reports sustained req/s and p50/p99/max
//!    latency over the recorded window, plus the engine's counters.
//!
//! ```text
//! cargo run --release -p rdbsc-bench --bin loadgen -- \
//!     --spawn --verify --duration 5 --connections 4 --json BENCH_server.json
//! ```
//!
//! Exit code is nonzero when verification fails, any response is non-2xx,
//! no assignment was made, or throughput misses `--min-rps`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_cluster::RegionPartitioner;
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::GridIndex;
use rdbsc_platform::{AssignmentEngine, EngineEvent, EngineHandle, PartitionedEngine};
use rdbsc_server::dto::{AssignmentDto, SnapshotDto, TaskDto, WorkerDto};
use rdbsc_server::json::Json;
use rdbsc_server::{HttpClient, PartitionDaemon, PartitiondConfig, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

struct Args {
    addr: Option<String>,
    duration_s: f64,
    warmup_s: f64,
    connections: usize,
    workers: u32,
    seed: u64,
    partitions: usize,
    remote_partitions: usize,
    verify: bool,
    min_rps: f64,
    json_path: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--spawn | --addr HOST:PORT] [--duration SECS]\n\
         \x20              [--warmup SECS] [--connections N] [--workers N]\n\
         \x20              [--seed N] [--partitions N] [--remote-partitions N]\n\
         \x20              [--verify] [--min-rps N] [--json FILE]\n\
         \n\
         --spawn (default) boots the server in-process on an ephemeral\n\
         loopback port; --verify adds the deterministic offline-equivalence\n\
         phase (spawn mode only). --partitions boots the spawned server as\n\
         a region-partitioned multi-engine (verify then replays against an\n\
         identically partitioned offline replica). --remote-partitions K\n\
         additionally boots K rdbsc-partitiond daemons on loopback and\n\
         serves the first K regions through them over the partition\n\
         protocol — a mixed local/remote topology whose verify phase proves\n\
         the determinism contract holds across the wire. --warmup runs the\n\
         closed loop that long before the recorded window starts, so boot\n\
         and first-connection costs stay out of the latency histogram."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        duration_s: 5.0,
        warmup_s: 1.0,
        connections: 4,
        workers: 120,
        seed: 7,
        partitions: 1,
        remote_partitions: 0,
        verify: false,
        min_rps: 0.0,
        json_path: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        i += 1;
        match flag {
            "--help" | "-h" => usage(),
            "--spawn" => args.addr = None,
            "--verify" => args.verify = true,
            "--addr" | "--duration" | "--warmup" | "--connections" | "--workers" | "--seed"
            | "--partitions" | "--remote-partitions" | "--min-rps" | "--json" => {
                let Some(value) = argv.get(i) else {
                    eprintln!("{flag} requires a value");
                    usage();
                };
                i += 1;
                let bad = |v: &str| -> ! {
                    eprintln!("{flag}: cannot parse {v:?}");
                    usage();
                };
                match flag {
                    "--addr" => args.addr = Some(value.clone()),
                    "--duration" => {
                        args.duration_s = value.parse().unwrap_or_else(|_| bad(value))
                    }
                    "--warmup" => args.warmup_s = value.parse().unwrap_or_else(|_| bad(value)),
                    "--connections" => {
                        args.connections = value.parse().unwrap_or_else(|_| bad(value))
                    }
                    "--workers" => args.workers = value.parse().unwrap_or_else(|_| bad(value)),
                    "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad(value)),
                    "--partitions" => {
                        args.partitions = value.parse().unwrap_or_else(|_| bad(value));
                        if args.partitions == 0 {
                            bad(value);
                        }
                    }
                    "--remote-partitions" => {
                        args.remote_partitions =
                            value.parse().unwrap_or_else(|_| bad(value));
                    }
                    "--min-rps" => args.min_rps = value.parse().unwrap_or_else(|_| bad(value)),
                    "--json" => args.json_path = Some(value.clone()),
                    _ => unreachable!(),
                }
            }
            _ => {
                eprintln!("unknown flag {flag}");
                usage();
            }
        }
    }
    args
}

/// Cluster centres: the polycentric layout that lets the engine shard.
const CLUSTERS: [(f64, f64); 4] = [(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)];

fn cluster_point(rng: &mut StdRng, cluster: usize) -> (f64, f64) {
    let (cx, cy) = CLUSTERS[cluster % CLUSTERS.len()];
    (
        cx + rng.gen_range(-0.05..0.05),
        cy + rng.gen_range(-0.05..0.05),
    )
}

fn worker_dto(rng: &mut StdRng, id: u32) -> WorkerDto {
    let (x, y) = cluster_point(rng, id as usize);
    WorkerDto {
        id,
        x,
        y,
        // Slow enough that no worker can cross between clusters before any
        // deadline: the live instance decomposes into independent shards and
        // engine ticks stay in the low milliseconds.
        speed: rng.gen_range(0.02..0.06),
        heading: None,
        confidence: rng.gen_range(0.6..0.95),
        available_from: 0.0,
    }
}

fn task_dto(rng: &mut StdRng, id: u32, start: f64) -> TaskDto {
    let cluster = rng.gen_range(0..CLUSTERS.len());
    let (x, y) = cluster_point(rng, cluster);
    TaskDto {
        id,
        x,
        y,
        start,
        end: start + rng.gen_range(2.0..6.0),
        beta: None,
    }
}

/// Boots `n` partition daemons on ephemeral loopback ports.
fn spawn_daemons(n: usize) -> Result<(Vec<PartitionDaemon>, Vec<String>), String> {
    let mut daemons = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let daemon = PartitionDaemon::start(PartitiondConfig {
            addr: "127.0.0.1:0".to_string(),
            ..PartitiondConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        addrs.push(daemon.addr().to_string());
        daemons.push(daemon);
    }
    Ok((daemons, addrs))
}

/// Phase 1: deterministic serving vs the offline engine, same event stream.
fn run_verify(seed: u64, partitions: usize, remote_partitions: usize) -> Result<usize, String> {
    let (daemons, remote_addrs) = spawn_daemons(remote_partitions)?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        flush_interval: Duration::ZERO, // manual tick: we control time
        partitions,
        remote_partitions: remote_addrs,
        ..ServerConfig::default()
    };
    // The offline replica is the region split the server config describes,
    // but deliberately all-in-process and on the *reference grid* while the
    // spawned server runs the flat serving index (and, with
    // --remote-partitions, over the wire) — so this equivalence check
    // exercises the index determinism contract, the partition router's
    // determinism on top of it, and the partition protocol's wire fidelity
    // all at once. One region is a plain engine over the whole area, as in
    // the server.
    let cell_size = config.cell_size;
    let offline_handle: EngineHandle = if partitions <= 1 {
        EngineHandle::new(AssignmentEngine::new(
            GridIndex::new(config.area, cell_size),
            config.engine.clone(),
        ))
    } else {
        EngineHandle::new_partitioned(PartitionedEngine::build(
            RegionPartitioner::uniform().split(
                GridGeometry::new(config.area, cell_size),
                partitions,
                &[],
            ),
            config.engine.clone(),
            |rect| GridIndex::new(rect, cell_size),
        ))
    };
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let mut client = HttpClient::new(server.addr());

    let mut rng = StdRng::seed_from_u64(seed);
    let tasks: Vec<TaskDto> = (0..40).map(|id| task_dto(&mut rng, id, 0.0)).collect();
    let workers: Vec<WorkerDto> = (0..60).map(|id| worker_dto(&mut rng, id)).collect();

    for t in &tasks {
        let r = client.post("/tasks", &t.to_json()).map_err(|e| e.to_string())?;
        if r.status != 202 {
            return Err(format!("POST /tasks -> {}: {}", r.status, r.body));
        }
    }
    for w in &workers {
        let r = client
            .post("/workers", &w.to_json())
            .map_err(|e| e.to_string())?;
        if r.status != 202 {
            return Err(format!("POST /workers -> {}: {}", r.status, r.body));
        }
    }
    client
        .post("/tick", &Json::obj([("now", Json::Num(0.0))]))
        .map_err(|e| e.to_string())?;
    let online: Vec<AssignmentDto> = client
        .get("/assignments")
        .map_err(|e| e.to_string())?
        .json()
        .map_err(|e| e.to_string())?
        .as_arr()
        .ok_or("assignments is not an array")?
        .iter()
        .map(|v| AssignmentDto::from_json(v).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // The identical stream, straight into the offline replica.
    for t in &tasks {
        offline_handle.submit(EngineEvent::TaskArrived(
            t.clone().into_task().map_err(|e| e.to_string())?,
        ));
    }
    for w in &workers {
        offline_handle.submit(EngineEvent::WorkerCheckIn(
            w.clone().into_worker().map_err(|e| e.to_string())?,
        ));
    }
    offline_handle.tick(0.0);
    let offline: Vec<AssignmentDto> = offline_handle
        .assignments()
        .iter()
        .map(AssignmentDto::from_pair)
        .collect();

    server.shutdown();
    server.join(); // tears the remote daemons down too (graceful drain)
    for daemon in daemons {
        daemon.join();
    }

    if online.is_empty() {
        return Err("verification scenario produced no assignments".into());
    }
    if online != offline {
        return Err(format!(
            "served assignments diverge from the offline engine: {} online vs {} offline",
            online.len(),
            offline.len()
        ));
    }
    Ok(online.len())
}

#[derive(Default)]
struct ClientStats {
    latencies_us: Vec<u64>,
    warmup_requests: u64,
    status_2xx: u64,
    status_429: u64,
    status_other: u64,
    io_errors: u64,
}

struct BenchOutcome {
    elapsed_s: f64,
    stats: ClientStats,
    snapshot: SnapshotDto,
}

/// Phase 2: the closed loop.
fn run_bench(addr: SocketAddr, args: &Args, time_offset: f64) -> Result<BenchOutcome, String> {
    // Register the worker population up front (counted in the stats too).
    let mut setup = HttpClient::new(addr);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5ee
        );
    let mut stats = ClientStats::default();
    // Setup traffic is deliberately NOT recorded: the reported req/s and
    // percentiles must cover exactly the timed closed-loop window.
    for id in 0..args.workers {
        let r = setup
            .post("/workers", &worker_dto(&mut rng, id).to_json())
            .map_err(|e| format!("worker registration: {e}"))?;
        if !r.is_success() {
            return Err(format!("worker registration -> {}: {}", r.status, r.body));
        }
    }
    // Release the setup connection: an idle keep-alive connection pins a
    // server worker thread, which would leave one bench client queued for
    // the whole run.
    drop(setup);

    let stop = Arc::new(AtomicBool::new(false));
    // The latency histogram only opens once the warm-up elapses: the first
    // seconds cover server boot, connection establishment and the engine's
    // initial index builds, whose multi-millisecond outliers otherwise
    // dominate latency_max (110 ms max against a 5.7 ms p99 in the
    // pre-warm-up BENCH_server.json) without saying anything about steady
    // state.
    let recording = Arc::new(AtomicBool::new(args.warmup_s <= 0.0));
    let next_task_id = Arc::new(AtomicU32::new(0));

    let mut threads = Vec::new();
    for thread_idx in 0..args.connections.max(1) {
        let stop = stop.clone();
        let recording = recording.clone();
        let next_task_id = next_task_id.clone();
        let workers = args.workers;
        let connections = args.connections.max(1);
        let seed = args.seed;
        threads.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(thread_idx as u64));
            let mut client = HttpClient::new(addr);
            let mut stats = ClientStats::default();
            // Each thread owns the workers with id % connections == idx, so
            // no two threads heartbeat the same worker.
            let owned: Vec<u32> = (0..workers)
                .filter(|id| (*id as usize) % connections == thread_idx)
                .collect();
            let started = Instant::now();
            // Task arrivals are paced by wall-clock, not request count:
            // a closed loop at 8k req/s would otherwise flood the engine
            // with 10× more tasks than the worker population can serve,
            // and tick time (which holds the engine lock) would grow
            // without bound. ~40 tasks/s across all threads keeps the
            // live set near worker capacity.
            let task_interval = Duration::from_secs_f64(0.025 * connections as f64);
            let mut last_task = Instant::now();
            let mut op = 0u64;
            while !stop.load(Ordering::Relaxed) {
                op += 1;
                let now = time_offset + started.elapsed().as_secs_f64();
                let request_started = Instant::now();
                let recording_now = recording.load(Ordering::Relaxed);
                let result = if last_task.elapsed() >= task_interval {
                    // A fresh task arrival.
                    last_task = Instant::now();
                    let id = next_task_id.fetch_add(1, Ordering::Relaxed);
                    client.post("/tasks", &task_dto(&mut rng, id, now).to_json())
                } else if op.is_multiple_of(61) {
                    // Deliver answers for standing assignments: frees the
                    // workers and banks contributions (thread 0 only, so a
                    // pair is not answered twice).
                    if thread_idx == 0 {
                        match client.get("/assignments") {
                            Ok(r) => {
                                record(
                                    &mut stats,
                                    r.status,
                                    request_started.elapsed(),
                                    recording_now,
                                );
                                answer_pairs(&mut client, &r, &mut stats, recording_now);
                                continue;
                            }
                            Err(e) => Err(e),
                        }
                    } else {
                        client.get("/snapshot")
                    }
                } else if op.is_multiple_of(37) {
                    client.get("/snapshot")
                } else if owned.is_empty() {
                    client.get("/healthz")
                } else {
                    // The bread and butter: a worker heartbeat (small walk).
                    let id = owned[rng.gen_range(0..owned.len())];
                    let (x, y) = cluster_point(&mut rng, id as usize);
                    client.post(
                        "/workers/heartbeat",
                        &Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("x", Json::Num(x)),
                            ("y", Json::Num(y)),
                        ]),
                    )
                };
                match result {
                    Ok(r) => record(
                        &mut stats,
                        r.status,
                        request_started.elapsed(),
                        recording_now,
                    ),
                    Err(_) => stats.io_errors += 1,
                }
            }
            stats
        }));
    }

    if args.warmup_s > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(args.warmup_s));
        recording.store(true, Ordering::Relaxed);
    }
    let bench_started = Instant::now(); // the recorded window opens here
    std::thread::sleep(Duration::from_secs_f64(args.duration_s));
    let elapsed_s = bench_started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let thread_stats = t.join().map_err(|_| "client thread panicked")?;
        stats.latencies_us.extend(thread_stats.latencies_us);
        stats.warmup_requests += thread_stats.warmup_requests;
        stats.status_2xx += thread_stats.status_2xx;
        stats.status_429 += thread_stats.status_429;
        stats.status_other += thread_stats.status_other;
        stats.io_errors += thread_stats.io_errors;
    }

    let mut finisher = HttpClient::new(addr);
    let snapshot = SnapshotDto::from_json(
        &finisher
            .get("/snapshot")
            .map_err(|e| e.to_string())?
            .json()
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    Ok(BenchOutcome {
        elapsed_s,
        stats,
        snapshot,
    })
}

fn answer_pairs(
    client: &mut HttpClient,
    response: &rdbsc_server::ClientResponse,
    stats: &mut ClientStats,
    recording: bool,
) {
    let Ok(body) = response.json() else { return };
    let Some(pairs) = body.as_arr() else { return };
    for pair in pairs.iter().take(16) {
        let Ok(dto) = AssignmentDto::from_json(pair) else {
            continue;
        };
        let answer = Json::obj([
            ("worker", Json::Num(dto.worker as f64)),
            ("confidence", Json::Num(dto.confidence)),
            ("angle", Json::Num(dto.angle)),
            ("arrival", Json::Num(dto.arrival)),
        ]);
        let started = Instant::now();
        match client.post("/answers", &answer) {
            Ok(r) => record(stats, r.status, started.elapsed(), recording),
            Err(_) => stats.io_errors += 1,
        }
    }
}

/// Statuses are always counted (a 5xx during warm-up is still a failure);
/// the latency histogram only collects inside the recorded window.
fn record(stats: &mut ClientStats, status: u16, latency: Duration, recording: bool) {
    if recording {
        stats.latencies_us.push(latency.as_micros() as u64);
    } else {
        stats.warmup_requests += 1;
    }
    match status {
        200..=299 => stats.status_2xx += 1,
        429 => stats.status_429 += 1,
        _ => stats.status_other += 1,
    }
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

fn main() {
    let args = parse_args();
    let mut failures: Vec<String> = Vec::new();

    // ---- Phase 1: deterministic offline equivalence --------------------
    let mut verified_assignments = 0usize;
    if args.addr.is_some() && (args.partitions > 1 || args.remote_partitions > 0) {
        // The flags only shape servers this process boots; silently
        // recording them against an external server would mislabel the report.
        eprintln!(
            "--partitions/--remote-partitions need --spawn (an external server's topology is its own)"
        );
        std::process::exit(2);
    }
    if args.remote_partitions > args.partitions {
        eprintln!(
            "--remote-partitions {} exceeds --partitions {}",
            args.remote_partitions, args.partitions
        );
        std::process::exit(2);
    }
    if args.verify {
        if args.addr.is_some() {
            eprintln!("--verify needs --spawn (it controls the server's ticks)");
            std::process::exit(2);
        }
        match run_verify(args.seed, args.partitions, args.remote_partitions) {
            Ok(n) => {
                verified_assignments = n;
                println!(
                    "verify : PASS — {n} served assignments identical to the offline engine \
                     ({} partition{}, {} remote)",
                    args.partitions,
                    if args.partitions == 1 { "" } else { "s" },
                    args.remote_partitions,
                );
            }
            Err(e) => {
                println!("verify : FAIL — {e}");
                failures.push(format!("verification failed: {e}"));
            }
        }
    }

    // ---- Phase 2: the closed loop --------------------------------------
    let spawned = if args.addr.is_none() {
        let (daemons, remote_addrs) = match spawn_daemons(args.remote_partitions) {
            Ok(spawned) => spawned,
            Err(e) => {
                eprintln!("failed to spawn partition daemons: {e}");
                std::process::exit(1);
            }
        };
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // Every closed-loop client deserves a dedicated worker thread;
            // the spare two serve setup and ad-hoc scrapes.
            threads: args.connections + 2,
            flush_interval: Duration::from_millis(25),
            partitions: args.partitions,
            remote_partitions: remote_addrs,
            engine: rdbsc_platform::EngineConfig {
                seed: args.seed,
                ..rdbsc_platform::EngineConfig::default()
            },
            ..ServerConfig::default()
        };
        match Server::start(config) {
            Ok(server) => Some((server, daemons)),
            Err(e) => {
                eprintln!("failed to spawn server: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let addr: SocketAddr = match &spawned {
        Some((server, _)) => server.addr(),
        None => {
            let text = args.addr.clone().expect("addr or spawn");
            match text.parse() {
                Ok(addr) => addr,
                Err(_) => {
                    eprintln!("cannot parse --addr {text:?}");
                    std::process::exit(2);
                }
            }
        }
    };

    // Align task windows with the server's simulation clock.
    let time_offset = HttpClient::new(addr)
        .get("/snapshot")
        .ok()
        .and_then(|r| r.json().ok())
        .and_then(|j| SnapshotDto::from_json(&j).ok())
        .map(|s| s.now)
        .unwrap_or(0.0);

    let outcome = match run_bench(addr, &args, time_offset) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("bench failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some((server, daemons)) = spawned {
        server.shutdown();
        server.join(); // drains + stops any remote partition daemons
        for daemon in daemons {
            daemon.join();
        }
    }

    let mut latencies = outcome.stats.latencies_us.clone();
    latencies.sort_unstable();
    let requests = latencies.len() as f64;
    let rps = requests / outcome.elapsed_s;
    let p50_ms = percentile(&latencies, 50.0) / 1000.0;
    let p99_ms = percentile(&latencies, 99.0) / 1000.0;
    let max_ms = latencies.last().copied().unwrap_or(0) as f64 / 1000.0;

    println!(
        "bench  : {:.0} requests in {:.2}s over {} connections -> {:.0} req/s \
         ({} warm-up requests excluded)",
        requests, outcome.elapsed_s, args.connections, rps, outcome.stats.warmup_requests
    );
    println!(
        "latency: p50 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
        p50_ms, p99_ms, max_ms
    );
    println!(
        "status : 2xx {}  429 {}  other {}  io-errors {}",
        outcome.stats.status_2xx,
        outcome.stats.status_429,
        outcome.stats.status_other,
        outcome.stats.io_errors
    );
    println!(
        "engine : {} assignments, {} answers banked, {} ticks, {} live tasks, min_rel {:.3}, total_STD {:.2}",
        outcome.snapshot.total_assignments,
        outcome.snapshot.banked_answers,
        outcome.snapshot.ticks,
        outcome.snapshot.live_tasks,
        outcome.snapshot.min_reliability,
        outcome.snapshot.total_std,
    );

    if outcome.stats.status_other > 0 || outcome.stats.io_errors > 0 {
        failures.push(format!(
            "{} non-2xx/non-429 responses, {} I/O errors",
            outcome.stats.status_other, outcome.stats.io_errors
        ));
    }
    if outcome.stats.status_2xx == 0 {
        failures.push("no successful responses at all".into());
    }
    if outcome.snapshot.total_assignments <= 0.0 {
        failures.push("the engine made zero assignments under load".into());
    }
    if args.min_rps > 0.0 && rps < args.min_rps {
        failures.push(format!("{rps:.0} req/s is below --min-rps {}", args.min_rps));
    }

    if let Some(path) = &args.json_path {
        let unix_now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let report = Json::obj([
            ("bench", Json::Str("rdbsc-server closed-loop loadgen".into())),
            ("unix_time", Json::Num(unix_now as f64)),
            ("duration_s", Json::Num(outcome.elapsed_s)),
            ("warmup_s", Json::Num(args.warmup_s)),
            (
                "warmup_requests_excluded",
                Json::Num(outcome.stats.warmup_requests as f64),
            ),
            ("connections", Json::Num(args.connections as f64)),
            ("workers", Json::Num(args.workers as f64)),
            ("partitions", Json::Num(args.partitions as f64)),
            (
                "remote_partitions",
                Json::Num(args.remote_partitions as f64),
            ),
            ("requests", Json::Num(requests)),
            ("rps", Json::Num(rps)),
            ("latency_p50_ms", Json::Num(p50_ms)),
            ("latency_p99_ms", Json::Num(p99_ms)),
            ("latency_max_ms", Json::Num(max_ms)),
            ("status_2xx", Json::Num(outcome.stats.status_2xx as f64)),
            ("status_429", Json::Num(outcome.stats.status_429 as f64)),
            (
                "status_other",
                Json::Num(outcome.stats.status_other as f64),
            ),
            (
                "assignments",
                Json::Num(outcome.snapshot.total_assignments),
            ),
            ("answers_banked", Json::Num(outcome.snapshot.banked_answers)),
            ("engine_ticks", Json::Num(outcome.snapshot.ticks)),
            (
                "verified_assignments",
                Json::Num(verified_assignments as f64),
            ),
            (
                "verify",
                Json::Str(if !args.verify {
                    "skipped".into()
                } else if failures.iter().any(|f| f.starts_with("verification")) {
                    "fail".into()
                } else {
                    "pass".into()
                }),
            ),
        ]);
        if let Err(e) = std::fs::write(path, report.to_string_compact()) {
            eprintln!("cannot write {path}: {e}");
            failures.push(format!("cannot write {path}"));
        } else {
            println!("report : {path}");
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("OK");
}
