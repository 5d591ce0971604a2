//! Closed-loop traffic generator for a running `rdbsc-server`.
//!
//! Drives the server at `--addr` over HTTP with `--connections` persistent
//! keep-alive clients for `--duration` seconds, each issuing its next
//! request as soon as the previous one completes (closed loop — offered
//! load adapts to the server). The mix is heartbeat-dominated, the way a
//! live platform's traffic is: worker position updates, a steady trickle of
//! task posts and expirations, answer deliveries for en-route workers, and
//! snapshot reads.
//!
//! ```text
//! rdbsc-server --addr 127.0.0.1:8731 &
//! loadgen --addr 127.0.0.1:8731 --duration 2 --connections 2
//! ```
//!
//! It is what CI's real-binary steps use to put live traffic on a topology
//! before killing parts of it. It prints request and engine counts and exits
//! nonzero on any non-2xx response, any I/O error, or when the engine
//! committed no assignment. It measures nothing: latency and throughput
//! numbers are `served_cluster` in `benchmark/`, and served == offline
//! equivalence is `rdbsc-server`'s `server_e2e` test.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_server::dto::{AssignmentDto, SnapshotDto, TaskDto, WorkerDto};
use rdbsc_server::json::Json;
use rdbsc_server::{ClientResponse, HttpClient};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// The registered worker population.
const WORKERS: u32 = 120;
/// Seeds every client's request stream (thread `i` uses `SEED + i`).
const SEED: u64 = 7;

struct Args {
    addr: SocketAddr,
    duration_s: f64,
    connections: usize,
}

fn usage() -> ! {
    eprintln!("usage: loadgen --addr HOST:PORT [--duration SECS] [--connections N]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut addr = None;
    let mut duration_s = 5.0;
    let mut connections = 4usize;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if !matches!(flag.as_str(), "--addr" | "--duration" | "--connections") {
            eprintln!("unknown flag {flag}");
            usage();
        }
        let Some(value) = argv.next() else {
            eprintln!("{flag} requires a value");
            usage();
        };
        let parsed = match flag.as_str() {
            "--addr" => value.parse().map(|a| addr = Some(a)).is_ok(),
            "--duration" => value.parse().map(|d| duration_s = d).is_ok(),
            _ => value.parse().map(|c| connections = c).is_ok(),
        };
        if !parsed {
            eprintln!("{flag}: cannot parse {value:?}");
            usage();
        }
    }
    let Some(addr) = addr else {
        eprintln!("--addr is required");
        usage();
    };
    Args {
        addr,
        duration_s,
        connections: connections.max(1),
    }
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

#[derive(Default)]
struct Counts {
    ok: u64,
    non_2xx: u64,
    io_errors: u64,
}

impl Counts {
    fn record<E>(&mut self, result: &Result<ClientResponse, E>) {
        match result {
            Ok(r) if r.is_success() => self.ok += 1,
            Ok(_) => self.non_2xx += 1,
            Err(_) => self.io_errors += 1,
        }
    }
}

fn fetch_snapshot(addr: SocketAddr) -> Result<SnapshotDto, String> {
    let body = HttpClient::new(addr)
        .get("/snapshot")
        .map_err(|e| e.to_string())?
        .json()
        .map_err(|e| e.to_string())?;
    SnapshotDto::from_json(&body).map_err(|e| e.to_string())
}

/// Delivers answers for (up to 16 of) the standing assignments in
/// `response`: frees the workers and banks their contributions.
fn answer_pairs(client: &mut HttpClient, response: &ClientResponse, counts: &mut Counts) {
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
        counts.record(&client.post("/answers", &answer));
    }
}

/// One closed-loop client: owns the workers with `id % connections == idx`
/// (so no two threads heartbeat the same worker) and runs until `stop`.
fn client_loop(
    args: &Args,
    idx: usize,
    time_offset: f64,
    stop: &AtomicBool,
    next_task_id: &AtomicU32,
) -> Counts {
    let connections = args.connections;
    let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(idx as u64));
    let mut client = HttpClient::new(args.addr);
    let mut counts = Counts::default();
    let owned: Vec<u32> = (0..WORKERS)
        .filter(|id| (*id as usize) % connections == idx)
        .collect();
    let started = Instant::now();
    // Task arrivals are paced by wall-clock, not request count: a closed
    // loop at 8k req/s would otherwise flood the engine with 10× more tasks
    // than the worker population can serve, and tick time (which holds the
    // engine lock) would grow without bound. ~40 tasks/s across all threads
    // keeps the live set near worker capacity.
    let task_interval = Duration::from_secs_f64(0.025 * connections as f64);
    let mut last_task = Instant::now();
    let mut op = 0u64;
    while !stop.load(Ordering::Relaxed) {
        op += 1;
        let now = time_offset + started.elapsed().as_secs_f64();
        let result = if last_task.elapsed() >= task_interval {
            last_task = Instant::now();
            let id = next_task_id.fetch_add(1, Ordering::Relaxed);
            client.post("/tasks", &task_dto(&mut rng, id, now).to_json())
        } else if op.is_multiple_of(61) && idx == 0 {
            // Thread 0 alone answers, so a pair is not answered twice.
            let result = client.get("/assignments");
            if let Ok(response) = &result {
                answer_pairs(&mut client, response, &mut counts);
            }
            result
        } else if op.is_multiple_of(61) || op.is_multiple_of(37) {
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
        counts.record(&result);
    }
    counts
}

fn run(args: &Args) -> Result<(Counts, SnapshotDto), String> {
    // Align task windows with the server's simulation clock.
    let time_offset = fetch_snapshot(args.addr)?.now;

    // Register the worker population up front, on a connection that is
    // released before the loop starts: an idle keep-alive connection pins a
    // server worker thread, which would leave one client queued for the
    // whole run.
    let mut counts = Counts::default();
    {
        let mut setup = HttpClient::new(args.addr);
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x5ee);
        for id in 0..WORKERS {
            counts.record(&setup.post("/workers", &worker_dto(&mut rng, id).to_json()));
        }
    }

    let stop = AtomicBool::new(false);
    let next_task_id = AtomicU32::new(0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..args.connections)
            .map(|idx| {
                let (stop, next_task_id) = (&stop, &next_task_id);
                scope.spawn(move || client_loop(args, idx, time_offset, stop, next_task_id))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(args.duration_s));
        stop.store(true, Ordering::Relaxed);
        for client in clients {
            let client_counts = client.join().expect("client thread panicked");
            counts.ok += client_counts.ok;
            counts.non_2xx += client_counts.non_2xx;
            counts.io_errors += client_counts.io_errors;
        }
    });
    Ok((counts, fetch_snapshot(args.addr)?))
}

fn main() {
    let args = parse_args();
    let (counts, snapshot) = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "traffic: {:.1}s over {} connections -> 2xx {}  non-2xx {}  io-errors {}",
        args.duration_s, args.connections, counts.ok, counts.non_2xx, counts.io_errors
    );
    println!(
        "engine : {} assignments, {} answers banked, {} ticks, {} live tasks",
        snapshot.total_assignments, snapshot.banked_answers, snapshot.ticks, snapshot.live_tasks,
    );

    let mut failures: Vec<String> = Vec::new();
    if counts.non_2xx > 0 || counts.io_errors > 0 {
        failures.push(format!(
            "{} non-2xx responses, {} I/O errors",
            counts.non_2xx, counts.io_errors
        ));
    }
    if snapshot.total_assignments <= 0.0 {
        failures.push("the engine made zero assignments under load".into());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("OK");
}
