//! `served_cluster` — the only workload where listener → batch queue →
//! router → wire → partition → WAL → reply all run.
//!
//! An in-process `Server::start` (HTTP front, 20 ms micro-batcher,
//! `time_scale` 1) routes 2 regions: region 0 lives on a `PartitionDaemon`
//! reached over the pipelined binary transport, with its own data dir;
//! region 1 is in-process and durable through `ServerConfig::data_dir`. 400
//! workers in four clusters are checked in before the warm-up. No standby: a
//! follower re-executes every tick and on two cores would measure the
//! scheduler.
//!
//! * Connection A is an **open loop** at a fixed [`RATE`] requests a second:
//!   heartbeats, plus one task POST every 25 ms. Workers' phones are
//!   independent users, so they do not wait for each other; each request is
//!   timed from when it was *due*.
//! * Connection B is a **closed loop** every 5 ms: `GET /assignments`, note
//!   the first sight of each task, `POST /answers` for up to 16 new pairs.
//!   The answerer waits for its replies.
//!
//! One operation is one task making it through every layer: its POST is
//! sent on connection A, it rides a micro-batch through router, wire,
//! partition and WAL, and connection B first sees it in `/assignments`.
//! Work is requests completed on both connections. Request latency itself
//! (`req_p50_us`, `req_p99_us`) is reported per layer: at tens of
//! microseconds it follows the box's other tenants more than the code.

use super::tick_report::report_stage_shares;
use super::{derive_seed, report_trace_overhead, secs_since, RunParams, ScratchDir};
use crate::openloop::Timetable;
use crate::report::Report;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc_platform::EngineConfig;
use rdbsc_server::json::Json;
use rdbsc_server::{HttpClient, PartitionDaemon, PartitiondConfig, Server, ServerConfig};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Connection A's fixed rate, ≈40 % of the ≈7.3 k req/s one closed-loop
/// connection reaches on the two-core box the benchmark was sized on.
const RATE: u64 = 3_000;
/// Every this-many-th connection-A request is a task POST: one per 25 ms.
const TASK_EVERY: u64 = RATE / 40;
const POLL_INTERVAL: Duration = Duration::from_millis(5);
const ANSWERS_PER_POLL: usize = 16;
const WORKERS: u32 = 400;
const SETUPS: usize = 5;
/// The four worker clusters; the region boundary (x = 0.5) runs between them.
const CLUSTERS: [(f64, f64); 4] = [(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)];

struct Topology {
    server: Server,
    daemon: PartitionDaemon,
    _dirs: [ScratchDir; 2],
}

impl Topology {
    fn boot(params: &RunParams, attempt: usize) -> Result<Topology, String> {
        let dir = |name: &str| {
            ScratchDir::create(&params.scratch, &format!("served-{attempt}-{name}"))
                .map_err(|e| format!("cannot create a data dir: {e}"))
        };
        let dirs = [dir("daemon")?, dir("server")?];
        let daemon = PartitionDaemon::start(PartitiondConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: Some(dirs[0].path().to_path_buf()),
            ..PartitiondConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // Connections A and B, the scraper, and one to spare.
            threads: 4,
            partitions: 2,
            remote_partitions: vec![daemon.addr().to_string()],
            data_dir: Some(dirs[1].path().to_path_buf()),
            engine: EngineConfig {
                parallelism: 1,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        Ok(Topology {
            server,
            daemon,
            _dirs: dirs,
        })
    }

    /// Graceful drain: the server stops, then tears its daemon down.
    fn shutdown(self) {
        self.server.shutdown();
        self.server.join();
        self.daemon.join();
    }
}

fn cluster_point(rng: &mut StdRng, cluster: usize) -> (f64, f64) {
    let (cx, cy) = CLUSTERS[cluster % CLUSTERS.len()];
    (
        cx + rng.gen_range(-0.05..0.05),
        cy + rng.gen_range(-0.05..0.05),
    )
}

fn check_in_workers(addr: SocketAddr, seed: u64) -> Result<(), String> {
    let mut client = HttpClient::new(addr);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
    for id in 0..WORKERS {
        let (x, y) = cluster_point(&mut rng, id as usize);
        // Slow enough that no worker crosses between clusters before a
        // deadline: the live instance stays a handful of small shards.
        let body = format!(
            "{{\"id\":{id},\"x\":{x},\"y\":{y},\"speed\":{},\"confidence\":{},\"available_from\":0}}",
            rng.gen_range(0.02..0.06),
            rng.gen_range(0.6..0.95)
        );
        let reply = client
            .request("POST", "/workers", Some(body))
            .map_err(|e| format!("worker check-in: {e}"))?;
        if !reply.is_success() {
            return Err(format!(
                "worker check-in -> {}: {}",
                reply.status, reply.body
            ));
        }
    }
    Ok(())
}

#[derive(Default)]
struct Statuses {
    ok_2xx: u64,
    shed_429: u64,
    other: u64,
    io_errors: u64,
}

impl Statuses {
    fn count(&mut self, status: Result<u16, ()>) {
        match status {
            Ok(200..=299) => self.ok_2xx += 1,
            Ok(429) => self.shed_429 += 1,
            Ok(_) => self.other += 1,
            Err(()) => self.io_errors += 1,
        }
    }

    fn absorb(&mut self, other: &Statuses) {
        self.ok_2xx += other.ok_2xx;
        self.shed_429 += other.shed_429;
        self.other += other.other;
        self.io_errors += other.io_errors;
    }
}

/// What the two generator threads share.
struct Shared {
    epoch: Instant,
    recording: AtomicBool,
    /// Recorder on or off, flipped by the conductor every second of a
    /// traced run.
    tracing: AtomicBool,
    stop: AtomicBool,
    /// Per task id, ns after `epoch` at which its POST was sent (0: not yet).
    task_sent_ns: Vec<AtomicU64>,
    /// The server clock minus seconds since `epoch`.
    clock_offset: f64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[derive(Default)]
struct OpenLoopResult {
    statuses: Statuses,
    /// Due → reply, µs, with whether the recorder was on.
    latency_us: Vec<(f64, bool)>,
    lateness_us: Vec<f64>,
    heartbeat_us: Vec<f64>,
    task_post_us: Vec<f64>,
    tasks_posted: u32,
}

/// Connection A.
fn open_loop(addr: SocketAddr, seed: u64, shared: &Shared, tracer: &mut Tracer) -> OpenLoopResult {
    let mut out = OpenLoopResult::default();
    let mut client = HttpClient::new(addr);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
    let timetable = Timetable::new(shared.epoch, RATE);
    // Start on the next whole request after "now" (set-up used the epoch).
    let mut i = shared.now_ns() * RATE / 1_000_000_000 + 1;
    while !shared.stop.load(Ordering::Relaxed) {
        let is_task = i.is_multiple_of(TASK_EVERY);
        let (path, body, name) = if is_task {
            let id = out.tasks_posted;
            if id as usize >= shared.task_sent_ns.len() {
                break;
            }
            let cluster = rng.gen_range(0..CLUSTERS.len());
            let (x, y) = cluster_point(&mut rng, cluster);
            let start = shared.clock_offset + timetable.due_ns(i) as f64 / 1e9;
            let end = start + rng.gen_range(0.5..1.5);
            (
                "/tasks",
                format!("{{\"id\":{id},\"x\":{x},\"y\":{y},\"start\":{start},\"end\":{end}}}"),
                "server.task_post",
            )
        } else {
            let id = rng.gen_range(0..WORKERS);
            let (x, y) = cluster_point(&mut rng, id as usize);
            (
                "/workers/heartbeat",
                format!("{{\"id\":{id},\"x\":{x},\"y\":{y}}}"),
                "server.heartbeat",
            )
        };
        timetable.wait_until_due(i);
        let tracing = shared.tracing.load(Ordering::Relaxed);
        tracer.set_enabled(tracing);
        let sent_ns = timetable.now_ns();
        if is_task {
            shared.task_sent_ns[out.tasks_posted as usize].store(sent_ns.max(1), Ordering::Release);
            out.tasks_posted += 1;
        }
        let span = tracer.begin(name, i);
        let reply = client.request("POST", path, Some(body));
        tracer.end(span);
        let timing = timetable.timing(i, sent_ns, timetable.now_ns());
        out.statuses.count(reply.map(|r| r.status).map_err(|_| ()));
        if shared.recording.load(Ordering::Relaxed) {
            out.latency_us
                .push((timing.latency_ns as f64 / 1e3, tracing));
            out.lateness_us.push(timing.lateness_ns as f64 / 1e3);
            if is_task {
                &mut out.task_post_us
            } else {
                &mut out.heartbeat_us
            }
            .push(timing.service_ns as f64 / 1e3);
        }
        i += 1;
    }
    out
}

#[derive(Default)]
struct ClosedLoopResult {
    statuses: Statuses,
    assign_delay_ms: Vec<f64>,
    assignments_get_us: Vec<f64>,
    answer_post_us: Vec<f64>,
    requests_recorded: u64,
    seen_tasks: BTreeSet<u32>,
    answers_banked: u64,
}

/// Connection B.
fn closed_loop(addr: SocketAddr, shared: &Shared, tracer: &mut Tracer) -> ClosedLoopResult {
    let mut out = ClosedLoopResult::default();
    let mut client = HttpClient::new(addr);
    let mut answered: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut poll = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        let poll_started = Instant::now();
        let recording = shared.recording.load(Ordering::Relaxed);
        tracer.set_enabled(shared.tracing.load(Ordering::Relaxed));
        poll += 1;
        let span = tracer.begin("server.assignments_get", poll);
        let reply = client.get("/assignments");
        tracer.end(span);
        let seen_ns = shared.now_ns();
        if recording {
            out.assignments_get_us.push(secs_since(poll_started) * 1e6);
            out.requests_recorded += 1;
        }
        let pairs = match &reply {
            Ok(r) => r.json().ok(),
            Err(_) => None,
        };
        out.statuses.count(reply.map(|r| r.status).map_err(|_| ()));
        let mut fresh = Vec::new();
        for pair in pairs.as_ref().and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |name: &str| pair.get(name).and_then(Json::as_num);
            let (Some(task), Some(worker)) = (field("task"), field("worker")) else {
                continue;
            };
            let (task, worker) = (task as u32, worker as u32);
            if out.seen_tasks.insert(task) && recording {
                let sent = shared
                    .task_sent_ns
                    .get(task as usize)
                    .map_or(0, |s| s.load(Ordering::Acquire));
                if sent > 0 {
                    out.assign_delay_ms
                        .push(seen_ns.saturating_sub(sent) as f64 / 1e6);
                }
            }
            if fresh.len() < ANSWERS_PER_POLL && answered.insert((task, worker)) {
                fresh.push(format!(
                    "{{\"worker\":{worker},\"confidence\":{},\"angle\":{},\"arrival\":{}}}",
                    field("confidence").unwrap_or(0.9),
                    field("angle").unwrap_or(0.0),
                    field("arrival").unwrap_or(0.0)
                ));
            }
        }
        for body in fresh {
            let started = Instant::now();
            let span = tracer.begin("server.answer_post", poll);
            let reply = client.request("POST", "/answers", Some(body));
            tracer.end(span);
            if recording {
                out.answer_post_us.push(secs_since(started) * 1e6);
                out.requests_recorded += 1;
            }
            if let Ok(r) = &reply {
                if r.body.contains("true") {
                    out.answers_banked += 1;
                }
            }
            out.statuses.count(reply.map(|r| r.status).map_err(|_| ()));
        }
        if let Some(rest) = POLL_INTERVAL.checked_sub(poll_started.elapsed()) {
            std::thread::sleep(rest);
        }
    }
    out
}

/// One `GET /metrics` scrape, reduced to the sums the report needs.
#[derive(Default, Clone)]
struct Scrape {
    tick_count: f64,
    tick_sum_us: f64,
    stage_sum_us: [f64; rdbsc_obs::NUM_STAGES],
    stage_solve_p50_us: f64,
    events_buffered: f64,
    events_dropped: f64,
    unhealthy: f64,
    assignments: f64,
    total_std: f64,
    min_reliability: f64,
    wire: WireTotals,
}

#[derive(Default, Clone)]
struct WireTotals {
    commands: f64,
    bytes_sent: f64,
    bytes_received: f64,
    reconnects: f64,
    retries: f64,
    cmd_p50_us: f64,
    cmd_p99_us: f64,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let doc = HttpClient::new(addr)
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?
        .json()
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let num = |path: &[&str]| -> f64 {
        path.iter()
            .try_fold(&doc, |at, key| at.get(key))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    };
    let sum_us = |path: &[&str]| -> f64 {
        let with = |leaf: &'static str| num(&[path, &[leaf]].concat());
        with("count") * with("mean_us")
    };
    let mut out = Scrape {
        tick_count: num(&["tick_latency", "count"]),
        tick_sum_us: sum_us(&["tick_latency"]),
        stage_solve_p50_us: num(&["tick_stages", "solve", "p50_us"]),
        events_buffered: num(&["batching", "events_buffered"]),
        events_dropped: num(&["events_dropped"]),
        unhealthy: num(&["partitions_unhealthy"]),
        assignments: num(&["engine", "total_assignments"]),
        total_std: num(&["engine", "total_std"]),
        min_reliability: num(&["engine", "min_reliability"]),
        ..Scrape::default()
    };
    for (sum, name) in out
        .stage_sum_us
        .iter_mut()
        .zip(rdbsc_obs::StageTimings::NAMES)
    {
        *sum = sum_us(&["tick_stages", name]);
    }
    // Only the daemon's region crosses a wire; in-process transports report
    // commands but no bytes.
    for transport in doc.get("transports").and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |name: &str| transport.get(name).and_then(Json::as_num).unwrap_or(0.0);
        if transport.get("kind").and_then(Json::as_str) == Some("in-process") {
            continue;
        }
        out.wire.commands += field("requests");
        out.wire.bytes_sent += field("bytes_sent");
        out.wire.bytes_received += field("bytes_received");
        out.wire.reconnects += field("reconnects");
        out.wire.retries += field("retries");
        let latency = |name: &str| {
            transport
                .get("command_latency")
                .and_then(|l| l.get(name))
                .and_then(Json::as_num)
                .unwrap_or(0.0)
        };
        out.wire.cmd_p50_us = latency("p50_us");
        out.wire.cmd_p99_us = latency("p99_us");
    }
    Ok(out)
}

/// Runs the workload.
pub fn run(params: &RunParams, tracer: &mut Tracer, report: &mut Report) {
    let warmup_s = if params.smoke { 0.3 } else { 3.0 };
    report.size("workers", f64::from(WORKERS));
    report.size("rate_per_s", RATE as f64);
    report.size("warmup_s", warmup_s);

    // Set-up, five times over: boot the topology (daemon, server, handshake,
    // both logs). Only the boot is timed: the 400 check-ins that follow are
    // 400 loopback round trips, whose cost is the box's scheduling latency.
    let mut setup_s = Vec::new();
    let mut live = None;
    for attempt in 0..SETUPS {
        if let Some(previous) = live.take() {
            Topology::shutdown(previous);
        }
        let started = Instant::now();
        let topology = match Topology::boot(params, attempt) {
            Ok(t) => t,
            Err(e) => return report.fail(e),
        };
        setup_s.push(secs_since(started));
        live = Some(topology);
    }
    let topology = live.expect("the set-ups ran");
    if let Err(e) = check_in_workers(topology.server.addr(), params.seed) {
        topology.shutdown();
        return report.fail(e);
    }
    let addr = topology.server.addr();

    // Align task windows with the server's simulation clock.
    let epoch = tracer.epoch();
    let clock_offset = HttpClient::new(addr)
        .get("/snapshot")
        .ok()
        .and_then(|r| r.json().ok())
        .and_then(|j| j.get("now").and_then(Json::as_num))
        .unwrap_or(0.0)
        - secs_since(epoch);
    let max_tasks = ((params.seconds + warmup_s + 5.0) * 40.0) as usize + 64;
    let shared = Shared {
        epoch,
        recording: AtomicBool::new(false),
        tracing: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        task_sent_ns: (0..max_tasks).map(|_| AtomicU64::new(0)).collect(),
        clock_offset,
    };

    let mut tracer_b = Tracer::new(epoch, false);
    let (a, b, before, after, recorded_s, recording_started_ns) = std::thread::scope(|scope| {
        let a = scope.spawn(|| open_loop(addr, params.seed, &shared, tracer));
        let b = scope.spawn(|| closed_loop(addr, &shared, &mut tracer_b));
        std::thread::sleep(Duration::from_secs_f64(warmup_s));
        let before = scrape(addr);
        shared.recording.store(true, Ordering::Relaxed);
        let recording_started = Instant::now();
        let recording_started_ns = shared.now_ns();
        // The traced run records alternate windows (a second each, shorter
        // in a short run), which measures the recorder's own cost in one run.
        let window_s = (params.seconds / 4.0).min(1.0);
        let mut window = 0u64;
        while secs_since(recording_started) < params.seconds {
            shared
                .tracing
                .store(params.traced && window % 2 == 1, Ordering::Relaxed);
            window += 1;
            let left = params.seconds - secs_since(recording_started);
            std::thread::sleep(Duration::from_secs_f64(left.clamp(0.0, window_s)));
        }
        let recorded_s = secs_since(recording_started);
        shared.recording.store(false, Ordering::Relaxed);
        let after = scrape(addr);
        shared.stop.store(true, Ordering::Relaxed);
        (
            a.join().expect("connection A panicked"),
            b.join().expect("connection B panicked"),
            before,
            after,
            recorded_s,
            recording_started_ns,
        )
    });
    tracer.absorb(tracer_b);

    // Health is read while the topology is still up, counters after it has
    // been shut down and joined.
    let handle = topology.server.handle().clone();
    let unhealthy = handle.unhealthy_partitions().len();
    let events_dropped = handle.events_dropped();
    let handoffs = handle.handoffs();
    topology.shutdown();

    let (before, after) = match (before, after) {
        (Ok(before), Ok(after)) => (before, after),
        (Err(e), _) | (_, Err(e)) => return report.fail(e),
    };

    let mut statuses = Statuses::default();
    statuses.absorb(&a.statuses);
    statuses.absorb(&b.statuses);
    let requests = a.latency_us.len() as u64 + b.requests_recorded;
    report.attempted += statuses.ok_2xx;
    report.check(
        statuses.other == 0 && statuses.shed_429 == 0,
        statuses.other + statuses.shed_429,
        || {
            format!(
                "{} non-2xx responses ({} of them 429)",
                statuses.other + statuses.shed_429,
                statuses.shed_429
            )
        },
    );
    report.check(statuses.io_errors == 0, statuses.io_errors, || {
        format!("{} I/O errors", statuses.io_errors)
    });
    report.check(unhealthy == 0 && after.unhealthy == 0.0, 1, || {
        format!("{unhealthy} unhealthy partitions")
    });
    report.check(
        events_dropped == 0 && after.events_dropped == 0.0,
        1,
        || format!("{events_dropped} events dropped"),
    );
    let assignments = after.assignments - before.assignments;
    report.check(
        assignments > 0.0 && !b.assign_delay_ms.is_empty(),
        1,
        || "no assignment was made or seen during the recorded window".into(),
    );
    report.size("recorded_s", recorded_s);
    report.size("requests_a", a.latency_us.len() as f64);
    report.size("requests_b", b.requests_recorded as f64);
    report.size("tasks_posted", f64::from(a.tasks_posted));

    let latency: Vec<f64> = a.latency_us.iter().map(|(us, _)| *us).collect();
    report.timing("setup_s", "s", &setup_s, 50.0);
    report.timing("op_p50_ms", "ms", &b.assign_delay_ms, 50.0);
    report.value("work_per_s", "1/s", requests as f64 / recorded_s);

    report.timing("req_p50_us", "us", &latency, 50.0);
    report.timing("req_p99_us", "us", &latency, 99.0);
    report.timing("assign_delay_p50_ms", "ms", &b.assign_delay_ms, 50.0);
    report.timing("assign_delay_p90_ms", "ms", &b.assign_delay_ms, 90.0);
    report.value("total_std", "std", after.total_std);
    report.value("min_reliability", "prob", after.min_reliability);

    report.timing("server.heartbeat_p50_us", "us", &a.heartbeat_us, 50.0);
    report.timing("server.task_post_p50_us", "us", &a.task_post_us, 50.0);
    report.timing(
        "server.assignments_get_p50_us",
        "us",
        &b.assignments_get_us,
        50.0,
    );
    report.timing("server.answer_post_p50_us", "us", &b.answer_post_us, 50.0);
    report.value("server.status_2xx", "count", statuses.ok_2xx as f64);
    report.value("server.status_429", "count", statuses.shed_429 as f64);
    report.value("server.status_other", "count", statuses.other as f64);
    report.value("server.io_errors", "count", statuses.io_errors as f64);
    report.timing("server.gen_lateness_p99_us", "us", &a.lateness_us, 99.0);
    let ticks = after.tick_count - before.tick_count;
    report.value("server.engine_ticks", "count", ticks);
    report.value(
        "server.events_per_tick",
        "count",
        (after.events_buffered - before.events_buffered) / ticks.max(1.0),
    );
    report.value(
        "server.tick_stage_solve_us_p50",
        "us",
        after.stage_solve_p50_us,
    );
    // Tasks posted early enough to be assigned (all but the last second's)
    // that connection B never saw in /assignments.
    let settled = a.tasks_posted.saturating_sub(40);
    let unseen = (0..settled).filter(|id| !b.seen_tasks.contains(id)).count();
    report.value(
        "server.tasks_unassigned_share",
        "ratio",
        unseen as f64 / f64::from(settled.max(1)),
    );

    // The tick as the server measured it from outside the engine, split by
    // the stages the engine reported: shares and remainder sum to 1. The
    // remainder is router, wire and micro-batcher time.
    let tick_us = after.tick_sum_us - before.tick_sum_us;
    let stage_us = |i: usize| after.stage_sum_us[i] - before.stage_sum_us[i];
    if params.traced {
        // What the server reported about the recorded window, laid under it:
        // all its ticks end to end, and inside them the engine's stages.
        let window = tracer.add_reported_root(
            "served.window",
            0,
            recording_started_ns,
            (recorded_s * 1e9) as u64,
        );
        tracer.set_enabled(true);
        let ticks = tracer.attach_reported(window, &[("server.ticks", (tick_us * 1e3) as u64)]);
        let stages: Vec<(&'static str, u64)> = rdbsc_obs::StageTimings::default()
            .as_array()
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| (name, (stage_us(i) * 1e3) as u64))
            .collect();
        if let Some(&ticks) = ticks.first() {
            tracer.attach_reported(ticks, &stages);
        }
        tracer.set_enabled(false);
    }
    let stage_totals: [u64; rdbsc_obs::NUM_STAGES] = std::array::from_fn(|i| stage_us(i) as u64);
    report_stage_shares(&stage_totals, tick_us / 1e6, report);
    report.value("engine.ticks_per_s", "1/s", ticks / recorded_s);
    report.value("engine.assignments", "count", assignments);
    report.value("engine.answers", "count", b.answers_banked as f64);
    report.value("partition.handoffs", "count", handoffs as f64);
    report.value("partition.events_dropped", "count", events_dropped as f64);
    report.value("partition.unhealthy", "count", unhealthy as f64);

    let commands = after.wire.commands - before.wire.commands;
    let bytes_sent = after.wire.bytes_sent - before.wire.bytes_sent;
    let bytes_received = after.wire.bytes_received - before.wire.bytes_received;
    report.value("wire.commands", "count", commands);
    report.value("wire.bytes_sent", "bytes", bytes_sent);
    report.value("wire.bytes_received", "bytes", bytes_received);
    report.value(
        "wire.bytes_per_command",
        "bytes",
        (bytes_sent + bytes_received) / commands.max(1.0),
    );
    report.value("wire.cmd_p50_us", "us", after.wire.cmd_p50_us);
    report.value("wire.cmd_p99_us", "us", after.wire.cmd_p99_us);
    report.value(
        "wire.reconnects",
        "count",
        after.wire.reconnects - before.wire.reconnects,
    );
    report.value(
        "wire.retries",
        "count",
        after.wire.retries - before.wire.retries,
    );

    if params.traced {
        let pick = |on: bool| -> Vec<f64> {
            a.latency_us
                .iter()
                .filter(|(_, traced)| *traced == on)
                .map(|(us, _)| *us)
                .collect()
        };
        report_trace_overhead(report, &pick(false), &pick(true));
    }
}
