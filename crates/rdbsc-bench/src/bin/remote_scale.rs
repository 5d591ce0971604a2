//! Remote-partition benchmark: the partition protocol's wire overhead and
//! its cross-process determinism contract, measured end to end.
//!
//! Replays one deterministic scripted metro timeline through five
//! topologies, **same seed everywhere**:
//!
//! | label | topology |
//! |---|---|
//! | `plain` | a bare `AssignmentEngine`, no router |
//! | `1p-local` | router + 1 in-process partition |
//! | `1p-remote` | router + 1 `rdbsc-partitiond` daemon over binary frames |
//! | `2p-local` | router + 2 in-process partitions |
//! | `2p-mixed` | router + 1 in-process + 1 daemon |
//!
//! Determinism is asserted by FNV digests over every committed pair's ids
//! *and float bit patterns*: `plain == 1p-local == 1p-remote` (a remote
//! partition is byte-identical to the plain engine) and `2p-local ==
//! 2p-mixed` (a mixed topology is byte-identical to the all-in-process
//! router). The wall ratios
//! `1p-remote / 1p-local` and `2p-mixed / 2p-local` are the protocol's
//! measured router overhead, and each remote client's
//! protocol counters (requests, frames, bytes, command latency
//! percentiles) are recorded alongside.
//!
//! ```text
//! cargo run --release -p rdbsc-bench --bin remote_scale -- --json BENCH_remote.json
//! cargo run --release -p rdbsc-bench --bin remote_scale -- --smoke
//! ```
//!
//! `--smoke` runs a tiny workload and exits nonzero on any anomaly — the
//! CI mode.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_cluster::{RegionPartition, RegionPartitioner};
use rdbsc_geo::{Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::FlatGridIndex;
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_obs::digest::Fnv1a;
use rdbsc_platform::{
    AssignmentEngine, EngineConfig, EngineEvent, InProcessClient, PartitionClient,
    PartitionedEngine, ProtocolStats,
};
use rdbsc_server::json::Json;
use rdbsc_server::{connect_remote_partition, PartitionDaemon, PartitiondConfig};
use rdbsc_workloads::{generate_metro_instance, MetroConfig};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const CELL_SIZE: f64 = 0.05;

struct Args {
    smoke: bool,
    seed: u64,
    ticks: usize,
    tasks: usize,
    workers: usize,
    json_path: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: remote_scale [--smoke] [--seed N] [--ticks N] [--tasks N]\n\
         \x20                   [--workers N] [--json FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        seed: 7,
        ticks: 8,
        tasks: 600,
        workers: 3_000,
        json_path: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        i += 1;
        match flag {
            "--help" | "-h" => usage(),
            "--smoke" => {
                args.smoke = true;
                args.ticks = 4;
                args.tasks = 120;
                args.workers = 500;
            }
            "--seed" | "--ticks" | "--tasks" | "--workers" | "--json" => {
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
                    "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad(value)),
                    "--ticks" => args.ticks = value.parse().unwrap_or_else(|_| bad(value)),
                    "--tasks" => args.tasks = value.parse().unwrap_or_else(|_| bad(value)),
                    "--workers" => {
                        args.workers = value.parse().unwrap_or_else(|_| bad(value))
                    }
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

/// The deterministic replay script (see `partition_scale` for the shape):
/// initial metro instance, then rounds of heartbeats with ~3% of movers
/// wandering into the next city (the cross-partition handoff traffic) plus
/// a trickle of fresh tasks.
struct Script {
    rounds: Vec<Vec<EngineEvent>>,
    sample: Vec<Point>,
    total_events: usize,
    dt: f64,
}

fn build_script(args: &Args) -> Script {
    let config = MetroConfig::default()
        .with_tasks(args.tasks)
        .with_workers(args.workers);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let instance = generate_metro_instance(&config, &mut rng);
    let centers = config.city_centers();
    let sample: Vec<Point> = instance
        .tasks
        .iter()
        .map(|t| t.location)
        .chain(instance.workers.iter().map(|w| w.location))
        .collect();

    let dt = 0.1;
    let mut rounds = Vec::with_capacity(args.ticks);
    let mut first: Vec<EngineEvent> = Vec::new();
    for t in &instance.tasks {
        first.push(EngineEvent::TaskArrived(*t));
    }
    for w in &instance.workers {
        first.push(EngineEvent::WorkerCheckIn(*w));
    }
    rounds.push(first);

    let cities = centers.len();
    let spread = 0.075;
    let mut next_task_id = instance.num_tasks() as u32;
    let tasks_per_round = (args.tasks / args.ticks.max(1)).max(1);
    for round in 1..args.ticks {
        let now = round as f64 * dt;
        let mut events = Vec::new();
        for j in (0..args.workers).filter(|j| j % 3 == round % 3) {
            let wander = rng.gen_range(0.0..1.0f64) < 0.03;
            let city = if wander { (j + 1) % cities } else { j % cities };
            let center = centers[city];
            let to = Point::new(
                (center.x + rng.gen_range(-spread..spread)).clamp(0.0, 1.0),
                (center.y + rng.gen_range(-spread..spread)).clamp(0.0, 1.0),
            );
            events.push(EngineEvent::WorkerMoved(
                rdbsc_model::WorkerId(j as u32),
                to,
            ));
        }
        for _ in 0..tasks_per_round {
            let city = rng.gen_range(0..cities);
            let center = centers[city];
            let location = Point::new(
                (center.x + rng.gen_range(-spread..spread)).clamp(0.0, 1.0),
                (center.y + rng.gen_range(-spread..spread)).clamp(0.0, 1.0),
            );
            let length = rng.gen_range(0.25..0.5);
            events.push(EngineEvent::TaskArrived(rdbsc_model::Task::new(
                rdbsc_model::TaskId(next_task_id),
                location,
                rdbsc_model::TimeWindow::new(now, now + length).expect("positive window"),
            )));
            next_task_id += 1;
        }
        rounds.push(events);
    }
    let total_events = rounds.iter().map(Vec::len).sum();
    Script {
        rounds,
        sample,
        total_events,
        dt,
    }
}

/// FNV-1a over a committed pair's ids **and float bit patterns** — a digest
/// collision across transports would require bit-identical contributions.
fn fold_pair(digest: &mut Fnv1a, pair: &ValidPair) {
    for word in [
        pair.task.0 as u64,
        pair.worker.0 as u64,
        pair.contribution.p().to_bits(),
        pair.contribution.angle.to_bits(),
        pair.contribution.arrival.to_bits(),
    ] {
        digest.write_u64(word);
    }
}

struct RunResult {
    label: &'static str,
    seconds: f64,
    assignments: u64,
    answers: u64,
    handoffs: u64,
    digest: u64,
    /// The wire transport the remote clients actually negotiated (`None`
    /// for local-only runs).
    remote_kind: Option<String>,
    /// Protocol stats of the remote clients (empty for local-only runs),
    /// captured right before shutdown.
    remote_stats: Vec<ProtocolStats>,
}

/// The plain-engine baseline: no router at all.
fn run_plain(args: &Args, script: &Script) -> RunResult {
    let mut engine = AssignmentEngine::new(
        FlatGridIndex::new(Rect::unit(), CELL_SIZE),
        EngineConfig {
            seed: args.seed,
            parallelism: 1,
            ..EngineConfig::default()
        },
    );
    let mut digest = Fnv1a::new();
    let mut assignments = 0u64;
    let mut answers = 0u64;
    let started = Instant::now();
    for (round, events) in script.rounds.iter().enumerate() {
        engine.submit_all(events.iter().cloned());
        let report = engine.tick(round as f64 * script.dt);
        assignments += report.new_assignments.len() as u64;
        for pair in &report.new_assignments {
            fold_pair(&mut digest, pair);
            if engine.record_answer(pair.worker, pair.contribution) {
                answers += 1;
            }
        }
    }
    RunResult {
        label: "plain",
        seconds: started.elapsed().as_secs_f64(),
        assignments,
        answers,
        handoffs: 0,
        digest: digest.finish(),
        remote_kind: None,
        remote_stats: Vec::new(),
    }
}

/// A routed topology: `partitions` regions, the first `remote` of them on
/// freshly spawned loopback daemons.
fn run_routed(
    args: &Args,
    script: &Script,
    label: &'static str,
    partitions: usize,
    remote: usize,
) -> RunResult {
    let geometry = GridGeometry::new(Rect::unit(), CELL_SIZE);
    let partition = if partitions == 1 {
        RegionPartition::single(geometry)
    } else {
        RegionPartitioner::kmeans(args.seed).split(geometry, partitions, &script.sample)
    };
    let engine_config = EngineConfig {
        seed: args.seed,
        parallelism: 1, // partitions are the only parallelism axis
        ..EngineConfig::default()
    };

    let mut daemons = Vec::new();
    let mut clients: Vec<Box<dyn PartitionClient>> = Vec::new();
    for region in 0..partition.num_regions() {
        if region < remote {
            let daemon = PartitionDaemon::start(PartitiondConfig {
                addr: "127.0.0.1:0".to_string(),
                ..PartitiondConfig::default()
            })
            .expect("daemon start");
            let client = connect_remote_partition(
                &daemon.addr().to_string(),
                &partition,
                region,
                CELL_SIZE,
                &engine_config,
                None,
            )
            .expect("daemon handshake");
            daemons.push(daemon);
            clients.push(client);
        } else {
            let engine = AssignmentEngine::new(
                FlatGridIndex::new(partition.region_rect(region), CELL_SIZE),
                engine_config.clone(),
            );
            clients.push(Box::new(InProcessClient::spawn(region, engine)));
        }
    }
    let mut engine = PartitionedEngine::new(partition, clients);

    let mut digest = Fnv1a::new();
    let mut assignments = 0u64;
    let mut answers = 0u64;
    let started = Instant::now();
    for (round, events) in script.rounds.iter().enumerate() {
        engine.submit_all(events.iter().cloned());
        let report = engine.tick(round as f64 * script.dt);
        assignments += report.new_assignments.len() as u64;
        for pair in &report.new_assignments {
            fold_pair(&mut digest, pair);
            if engine.record_answer(pair.worker, pair.contribution) {
                answers += 1;
            }
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    let handoffs = engine.handoffs();
    let remote_clients: Vec<_> = engine
        .transport_stats()
        .into_iter()
        .filter(|t| t.kind != "in-process")
        .collect();
    let remote_kind = remote_clients.first().map(|t| t.kind.to_string());
    let remote_stats: Vec<ProtocolStats> =
        remote_clients.into_iter().map(|t| t.stats).collect();
    engine.shutdown(); // drains + stops local threads and daemons alike
    for daemon in daemons {
        daemon.join();
    }
    RunResult {
        label,
        seconds,
        assignments,
        answers,
        handoffs,
        digest: digest.finish(),
        remote_kind,
        remote_stats,
    }
}

fn main() {
    let args = parse_args();
    let script = build_script(&args);
    println!(
        "workload: metro, {} initial tasks + {} workers, {} rounds, {} events total",
        args.tasks, args.workers, args.ticks, script.total_events
    );

    let runs = vec![
        run_plain(&args, &script),
        run_routed(&args, &script, "1p-local", 1, 0),
        run_routed(&args, &script, "1p-remote", 1, 1),
        run_routed(&args, &script, "2p-local", 2, 0),
        run_routed(&args, &script, "2p-mixed", 2, 1),
    ];
    for r in &runs {
        print!(
            "{:>14}: {:>7.3}s  {:>7.0} events/s  {} assignments, {} answers, {} handoffs, digest {:#018x}",
            r.label,
            r.seconds,
            script.total_events as f64 / r.seconds,
            r.assignments,
            r.answers,
            r.handoffs,
            r.digest,
        );
        if let Some(stats) = r.remote_stats.first() {
            print!(
                "  [{}: {} cmds, p50 {:.0}us p99 {:.0}us, {:.1} MB out / {:.1} MB in]",
                r.remote_kind.as_deref().unwrap_or("wire"),
                stats.requests,
                stats.latency_p50_us,
                stats.latency_p99_us,
                stats.bytes_sent as f64 / 1e6,
                stats.bytes_received as f64 / 1e6,
            );
        }
        println!();
    }

    let by_label = |label: &str| runs.iter().find(|r| r.label == label).expect("run exists");
    let mut failures: Vec<String> = Vec::new();

    // The determinism contract, over the wire.
    let plain = by_label("plain");
    for label in ["1p-local", "1p-remote"] {
        let run = by_label(label);
        if run.digest != plain.digest {
            failures.push(format!(
                "{label} digest {:#x} diverges from the plain engine's {:#x}",
                run.digest, plain.digest
            ));
        }
    }
    let (local, mixed) = (by_label("2p-local"), by_label("2p-mixed"));
    if mixed.digest != local.digest {
        failures.push(format!(
            "2p-mixed digest {:#x} diverges from 2p-local {:#x}",
            mixed.digest, local.digest
        ));
    }
    if mixed.handoffs != local.handoffs {
        failures.push("2p-mixed handoff count differs from 2p-local".to_string());
    }
    for r in &runs {
        if r.assignments == 0 {
            failures.push(format!("{} made zero assignments", r.label));
        }
    }
    if by_label("2p-local").handoffs == 0 {
        failures.push("no cross-partition handoff was exercised".into());
    }
    if failures.is_empty() {
        println!(
            "determinism: PASS (1 remote partition == plain engine; mixed == all-in-process)"
        );
    }

    let overhead_1p = by_label("1p-remote").seconds / by_label("1p-local").seconds.max(1e-12);
    let overhead_2p = by_label("2p-mixed").seconds / by_label("2p-local").seconds.max(1e-12);
    println!(
        "router overhead: 1p-remote/1p-local {overhead_1p:.2}x, \
         2p-mixed/2p-local {overhead_2p:.2}x"
    );

    if let Some(path) = &args.json_path {
        let unix_now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let configs: Vec<Json> = runs
            .iter()
            .map(|r| {
                let mut pairs = vec![
                    ("label", Json::Str(r.label.into())),
                    ("seconds", Json::Num(r.seconds)),
                    (
                        "events_per_s",
                        Json::Num(script.total_events as f64 / r.seconds),
                    ),
                    ("assignments", Json::Num(r.assignments as f64)),
                    ("answers", Json::Num(r.answers as f64)),
                    ("handoffs", Json::Num(r.handoffs as f64)),
                    ("digest", Json::Str(format!("{:#018x}", r.digest))),
                ];
                if let Some(stats) = r.remote_stats.first() {
                    pairs.push((
                        "wire",
                        Json::obj([
                            (
                                "transport",
                                Json::Str(
                                    r.remote_kind.clone().unwrap_or_else(|| "?".into()),
                                ),
                            ),
                            ("commands", Json::Num(stats.requests as f64)),
                            ("retries", Json::Num(stats.retries as f64)),
                            ("reconnects", Json::Num(stats.reconnects as f64)),
                            ("bytes_sent", Json::Num(stats.bytes_sent as f64)),
                            ("bytes_received", Json::Num(stats.bytes_received as f64)),
                            ("frames_sent", Json::Num(stats.frames_sent as f64)),
                            (
                                "frames_received",
                                Json::Num(stats.frames_received as f64),
                            ),
                            ("latency_p50_us", Json::Num(stats.latency_p50_us)),
                            ("latency_p99_us", Json::Num(stats.latency_p99_us)),
                        ]),
                    ));
                }
                Json::obj(pairs)
            })
            .collect();
        let report = Json::obj([
            (
                "bench",
                Json::Str("rdbsc remote-partition protocol (metro workload)".into()),
            ),
            ("unix_time", Json::Num(unix_now as f64)),
            ("seed", Json::Num(args.seed as f64)),
            ("ticks", Json::Num(args.ticks as f64)),
            ("initial_tasks", Json::Num(args.tasks as f64)),
            ("workers", Json::Num(args.workers as f64)),
            ("total_events", Json::Num(script.total_events as f64)),
            ("engine_parallelism", Json::Num(1.0)),
            ("router_overhead_1p", Json::Num(overhead_1p)),
            ("router_overhead_2p", Json::Num(overhead_2p)),
            (
                "determinism",
                Json::Str(if failures.is_empty() { "pass".into() } else { "fail".into() }),
            ),
            ("configs", Json::Arr(configs)),
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
