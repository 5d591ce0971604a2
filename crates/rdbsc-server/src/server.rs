//! The serving tier: engine routes mounted on the reusable HTTP core
//! ([`crate::listener`]), micro-batching, metrics and graceful shutdown.
//!
//! ```text
//!   clients ──► HttpCore (acceptor / queue / workers) ──► route
//!                                                          │
//!                              events → MicroBatcher ──► EngineHandle.tick
//!                              queries ────────────────► EngineHandle
//! ```
//!
//! The handle always drives the region router; [`ServerConfig`] chooses its
//! regions: one in-process region over the whole area (the default — the
//! plain engine's topology), `partitions > 1` in-process regions, or — with
//! [`ServerConfig::remote_partitions`] — a **mixed topology** where some
//! regions are served by `rdbsc-partitiond` daemons over the partition
//! protocol and the rest stay in-process. With every region remote the
//! server is a *thin stateless router*: all engine state lives in the
//! daemons, and the tier can be restarted or scaled out independently of
//! them.

use crate::batch::{run_flusher, Clock, MicroBatcher};
use crate::dto::{
    AnswerDto, AssignmentDto, HeartbeatDto, IdDto, SnapshotDto, TaskDto, TickDto, WorkerDto,
};
use crate::error::ServerError;
use crate::http::{Method, Request, Response};
use crate::json::{parse, Json};
use crate::listener::{HttpCore, ListenerConfig, ShutdownHandle};
use crate::metrics::{scrape_router, serve_ops, ServerMetrics};
use crate::remote::connect_remote_partition;
use rdbsc_cluster::RegionPartition;
use rdbsc_geo::{Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_index::FlatGridIndex;
use rdbsc_model::{TaskId, WorkerId};
use rdbsc_platform::{
    AssignmentEngine, EngineConfig, EngineEvent, EngineHandle, InProcessClient, PartitionClient,
    PartitionedEngine,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the serving subsystem.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads serving connections; 0 means `4 × available cores`.
    pub threads: usize,
    /// Bounded connection-queue capacity; beyond it, connections are shed
    /// with 429.
    ///
    /// The server is thread-per-connection: an accepted keep-alive
    /// connection occupies a worker for its lifetime (bounded by
    /// [`idle_timeout`](Self::idle_timeout)), so connections queued beyond
    /// `threads` wait for a worker to free rather than being shed. Size
    /// `threads` to the expected concurrent-connection count for
    /// latency-sensitive serving, and keep the queue shallow so overload
    /// turns into fast 429s instead of deep queueing.
    pub queue_capacity: usize,
    /// Micro-batch coalescing window: the longest a buffered heartbeat,
    /// expiration or leave waits for a tick. A task arrival or worker
    /// check-in does not wait it out — it wakes the flusher at once, subject
    /// to the rest rule in [`crate::batch`]. `Duration::ZERO` disables the
    /// flusher entirely (*manual tick mode*: only `POST /tick` advances the
    /// engine).
    pub flush_interval: Duration,
    /// Flush early once this many events are buffered. Like the interval,
    /// this bounds how many heartbeats, expirations and leaves coalesce; new
    /// tasks and check-ins flush sooner on their own.
    pub max_batch: usize,
    /// Hard cap on buffered (not yet ticked) events; beyond it, event
    /// routes answer 429 until the flusher (or `POST /tick`) drains.
    pub max_buffered_events: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Simulation time units per wall-clock second.
    pub time_scale: f64,
    /// How long an idle keep-alive connection may hold a worker thread
    /// before it is closed.
    pub idle_timeout: Duration,
    /// The served spatial area.
    pub area: Rect,
    /// Grid-index cell size.
    pub cell_size: f64,
    /// Number of spatial partitions to serve: one engine per region behind
    /// the region router (uniform grid-cell-aligned regions), with events
    /// routed by location and workers handed off across region boundaries.
    /// `1` (the default) is one in-process region over the whole area,
    /// byte-identical to a plain engine. Between one and one region per
    /// grid cell: a count outside that range fails the build.
    pub partitions: usize,
    /// Addresses of `rdbsc-partitiond` daemons serving regions remotely
    /// over the partition protocol. The k-th address serves region k;
    /// regions beyond the list run in-process, so local and remote
    /// partitions mix freely. Must not name more daemons than
    /// [`partitions`](Self::partitions). At boot the router performs the
    /// protocol-version handshake and pushes each daemon its routing table,
    /// region index and engine config — both sides agree on the
    /// geometry or the boot fails.
    pub remote_partitions: Vec<String>,
    /// Standby daemon addresses armed for failover: the k-th entry names an
    /// `rdbsc-partitiond --follow` standby for region k (an empty string
    /// leaves that region without one). When region k's transport fails,
    /// the router health-checks the standby, promotes it — the standby
    /// finishes its replay, seals the stream and reports the promoted
    /// digest — and re-attaches the slot to it instead of marking the
    /// region lost. Standbys only make sense for regions listed in
    /// [`remote_partitions`](Self::remote_partitions).
    pub standby_partitions: Vec<String>,
    /// The engine configuration (seed, β, parallelism, auto-expire).
    pub engine: EngineConfig,
    /// Data directory for durable in-process partitions. When set, every
    /// in-process region runs behind a write-ahead log under
    /// `{data_dir}/part-NNNN/` and recovers its state on boot. `None` (the
    /// default) serves non-durably; remote daemons manage their own
    /// `--data-dir`.
    pub data_dir: Option<std::path::PathBuf>,
    /// Write-ahead-log knobs for durable partitions — applied to in-process
    /// regions when [`data_dir`](Self::data_dir) is set, and pushed to
    /// remote daemons (which apply them only when booted with a data dir).
    pub wal: rdbsc_platform::WalConfig,
    /// Slow-tick capture threshold in microseconds: any tick whose
    /// end-to-end wall time reaches it has its full span tree snapshotted
    /// into the bounded buffer served at `GET /debug/slow-ticks`. `0`
    /// captures every tick; `u64::MAX` (the default) disables capture.
    pub slow_tick_threshold_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8700".to_string(),
            threads: 0,
            queue_capacity: 64,
            flush_interval: Duration::from_millis(20),
            max_batch: 512,
            max_buffered_events: 65_536,
            max_body_bytes: 64 * 1024,
            time_scale: 1.0,
            idle_timeout: Duration::from_secs(10),
            area: Rect::unit(),
            cell_size: 0.1,
            partitions: 1,
            remote_partitions: Vec::new(),
            standby_partitions: Vec::new(),
            engine: EngineConfig::default(),
            data_dir: None,
            wal: rdbsc_platform::WalConfig::default(),
            slow_tick_threshold_us: u64::MAX,
        }
    }
}

impl ServerConfig {
    /// The effective worker-thread count.
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            4 * std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Builds the engine handle this configuration describes: one engine
    /// per uniform grid-cell-aligned region behind the region router, each
    /// region in-process or on a remote daemon. Exposed so embedders can
    /// construct the engine the server would serve.
    ///
    /// Connecting remote partitions performs the protocol handshake and
    /// configure; an unreachable or incompatible daemon fails the build.
    pub fn build_handle(&self) -> Result<EngineHandle, ServerError> {
        let geometry = GridGeometry::new(self.area, self.cell_size);
        if self.partitions == 0 {
            return Err(ServerError::Conflict(
                "0 partitions requested but at least one region is needed".into(),
            ));
        }
        if self.partitions > geometry.num_cells() {
            return Err(ServerError::Conflict(format!(
                "{} partitions requested but the grid has only {} cells",
                self.partitions,
                geometry.num_cells()
            )));
        }
        if self.remote_partitions.len() > self.partitions {
            return Err(ServerError::Conflict(format!(
                "{} remote partitions named but only {} partitions configured",
                self.remote_partitions.len(),
                self.partitions
            )));
        }
        if self.standby_partitions.len() > self.partitions {
            return Err(ServerError::Conflict(format!(
                "{} standby partitions named but only {} partitions configured",
                self.standby_partitions.len(),
                self.partitions
            )));
        }
        for (region, standby) in self.standby_partitions.iter().enumerate() {
            if !standby.is_empty() && self.remote_partitions.get(region).is_none() {
                return Err(ServerError::Conflict(format!(
                    "standby {standby} named for region {region}, which is not remote — \
                     only daemon-served regions can fail over"
                )));
            }
        }
        let partition = RegionPartition::uniform(geometry, self.partitions);
        let mut clients: Vec<Box<dyn PartitionClient>> =
            Vec::with_capacity(partition.num_regions());
        for region in 0..partition.num_regions() {
            if let Some(addr) = self.remote_partitions.get(region) {
                clients.push(connect_remote_partition(
                    addr,
                    &partition,
                    region,
                    self.cell_size,
                    &self.engine,
                    Some(&self.wal),
                )?);
            } else if let Some(data_dir) = &self.data_dir {
                let rect = partition.region_rect(region);
                let cell_size = self.cell_size;
                let (part, _scan) = rdbsc_platform::EnginePartition::open_durable(
                    &data_dir.join(format!("part-{region:04}")),
                    self.wal,
                    self.engine.clone(),
                    move || FlatGridIndex::new(rect, cell_size),
                )
                .map_err(|e| match e {
                    rdbsc_platform::WalError::Io(io) => ServerError::Io(io),
                    corrupt => ServerError::Conflict(format!(
                        "wal recovery for partition {region} failed: {corrupt}"
                    )),
                })?;
                clients.push(Box::new(
                    rdbsc_platform::protocol::InProcessClient::spawn_partition(region, part),
                ));
            } else {
                let engine = AssignmentEngine::new(
                    FlatGridIndex::new(partition.region_rect(region), self.cell_size),
                    self.engine.clone(),
                );
                clients.push(Box::new(InProcessClient::spawn(region, engine)));
            }
        }
        let handle = EngineHandle::new(PartitionedEngine::new(partition.clone(), clients));
        // Arm the failover path after the topology is up: slot k promotes
        // standby_partitions[k] when its transport dies mid-round.
        for (region, standby) in self.standby_partitions.iter().enumerate() {
            if standby.is_empty() {
                continue;
            }
            handle.set_standby_promoter(
                region,
                Box::new(crate::remote::RemoteStandbyPromoter::new(
                    standby,
                    partition.clone(),
                    region,
                    self.cell_size,
                    self.engine.clone(),
                    Some(self.wal),
                )),
            );
        }
        Ok(handle)
    }
}

/// A running serving subsystem. Dropping it without calling
/// [`Server::shutdown`] leaves the threads running until process exit; call
/// [`Server::shutdown`] (or hit `POST /admin/shutdown`) for a graceful
/// drain, then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    core: HttpCore,
    flusher: Option<std::thread::JoinHandle<()>>,
}

struct Shared {
    handle: EngineHandle,
    batcher: Arc<MicroBatcher>,
    metrics: Arc<ServerMetrics>,
    clock: Clock,
    /// The flusher's stop flag (the HTTP core keeps its own; this one is
    /// raised by the same triggers so the final drain-and-tick runs).
    stop: Arc<AtomicBool>,
}

impl Shared {
    /// The one shutdown-trigger sequence, shared by [`Server::shutdown`]
    /// and the `POST /admin/shutdown` route so the drain ordering cannot
    /// diverge between the two paths: the HTTP core stops accepting, the
    /// flusher's stop flag is raised, and the flusher is woken for its
    /// final drain-and-tick.
    fn trigger_shutdown(&self, core: &ShutdownHandle) {
        core.trigger();
        self.stop.store(true, Ordering::Release);
        self.batcher.notify();
    }
}

impl Server {
    /// Builds a fresh engine from the config — one region, several, or a
    /// mixed local/remote partition topology — and starts serving on
    /// `config.addr`.
    pub fn start(config: ServerConfig) -> Result<Server, ServerError> {
        let handle = config.build_handle()?;
        let metrics = Arc::new(ServerMetrics::with_slow_threshold_us(
            config.slow_tick_threshold_us,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let batcher = Arc::new(MicroBatcher::new(
            config.max_batch,
            config.max_buffered_events,
        ));
        let clock = Clock::new(config.time_scale);
        let manual_tick = config.flush_interval.is_zero();

        let shared = Arc::new(Shared {
            handle: handle.clone(),
            batcher: batcher.clone(),
            metrics: metrics.clone(),
            clock: clock.clone(),
            stop: stop.clone(),
        });

        let core = {
            let shared = shared.clone();
            HttpCore::start(
                ListenerConfig {
                    addr: config.addr.clone(),
                    threads: config.effective_threads(),
                    queue_capacity: config.queue_capacity,
                    max_body_bytes: config.max_body_bytes,
                    idle_timeout: config.idle_timeout,
                },
                metrics.clone(),
                Arc::new(move |request: &Request, shutdown: &ShutdownHandle| {
                    route(request, &shared, shutdown)
                }),
            )?
        };

        let flusher = if manual_tick {
            None
        } else {
            let (b, h, s, m) = (batcher, handle, stop, metrics);
            let interval = config.flush_interval;
            let flusher_clock = clock;
            Some(
                std::thread::Builder::new()
                    .name("rdbsc-flusher".into())
                    .spawn(move || run_flusher(b, h, flusher_clock, interval, s, m))
                    .expect("spawn flusher"),
            )
        };

        Ok(Server {
            shared,
            core,
            flusher,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.core.addr()
    }

    /// The engine handle the server is driving.
    pub fn handle(&self) -> &EngineHandle {
        &self.shared.handle
    }

    /// The serving metrics.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.shared.metrics
    }

    /// Begins a graceful shutdown: stop accepting, finish in-flight
    /// connections, run a final micro-batch flush.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown(&self.core.stopper());
    }

    /// Waits for every server thread to exit, then tears the engine topology
    /// down in drain order: any
    /// event a request thread buffered after the flusher's final drain is
    /// handed to the engine, and the router runs one final drain tick
    /// before its partitions (local threads *and* remote daemons) are
    /// stopped, so nothing accepted is dropped. Call [`Server::shutdown`]
    /// first (or this blocks until someone hits `POST /admin/shutdown`).
    pub fn join(self) {
        self.core.join();
        if let Some(flusher) = self.flusher {
            let _ = flusher.join();
        }
        // A request thread may have buffered an event after the flusher's
        // final drain; park any such leftovers in the engine's own queue so
        // they ride the partition drain tick.
        let leftovers = self.shared.batcher.drain();
        if !leftovers.is_empty() {
            self.shared.handle.submit_all(leftovers);
        }
        self.shared.handle.shutdown_partitions();
    }
}

/// Buffers one event for the next micro-batch: 202 with the buffer length,
/// or 429 when the buffer is saturated (the flusher or `POST /tick` must
/// drain before more events are taken). Only accepted events are counted in
/// `events_buffered`.
fn buffer_event(shared: &Shared, event: EngineEvent) -> Result<Response, ServerError> {
    let buffered = shared
        .batcher
        .push(event)
        .map_err(|_| ServerError::Overloaded)?;
    shared.metrics.events_buffered.incr();
    Ok(Response::json(
        202,
        Json::obj([
            ("accepted", Json::Bool(true)),
            ("buffered", Json::Num(buffered as f64)),
        ])
        .to_string_compact(),
    ))
}

fn parse_body(request: &Request) -> Result<Json, ServerError> {
    Ok(parse(request.body_utf8()?)?)
}

// Locations outside the served area are legal (they index into the border
// cells), but NaN/∞ would poison the grid index.
fn require_finite_point(x: f64, y: f64) -> Result<Point, ServerError> {
    if !x.is_finite() || !y.is_finite() {
        return Err(ServerError::BadField {
            field: "x/y",
            expected: "finite coordinates",
        });
    }
    Ok(Point::new(x, y))
}

fn route(
    request: &Request,
    shared: &Shared,
    shutdown: &ShutdownHandle,
) -> Result<Response, ServerError> {
    if shutdown.stopping() && request.path != "/healthz" {
        return Err(ServerError::ShuttingDown);
    }
    let handle = &shared.handle;
    if let Some(response) = serve_ops(
        request,
        &shared.metrics,
        |s| scrape_router(s, handle),
        || handle.last_trace(),
    ) {
        return response;
    }
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => Ok(Response::json(
            200,
            Json::obj([("status", Json::Str("ok".into()))]).to_string_compact(),
        )),

        (Method::Get, "/snapshot") => Ok(Response::json(
            200,
            SnapshotDto::from_snapshot(&shared.handle.snapshot())
                .to_json()
                .to_string_compact(),
        )),

        (Method::Get, "/assignments") => {
            let pairs = shared.handle.assignments();
            let body = Json::Arr(
                pairs
                    .iter()
                    .map(|p| AssignmentDto::from_pair(p).to_json())
                    .collect(),
            );
            Ok(Response::json(200, body.to_string_compact()))
        }

        (Method::Post, "/tasks") => {
            let task = TaskDto::from_json(&parse_body(request)?)?.into_task()?;
            require_finite_point(task.location.x, task.location.y)?;
            buffer_event(shared, EngineEvent::TaskArrived(task))
        }

        (Method::Post, "/tasks/expire") => {
            let dto = IdDto::from_json(&parse_body(request)?)?;
            buffer_event(shared, EngineEvent::TaskExpired(TaskId(dto.id)))
        }

        (Method::Post, "/workers") => {
            let worker = WorkerDto::from_json(&parse_body(request)?)?.into_worker()?;
            require_finite_point(worker.location.x, worker.location.y)?;
            buffer_event(shared, EngineEvent::WorkerCheckIn(worker))
        }

        (Method::Post, "/workers/heartbeat") => {
            let dto = HeartbeatDto::from_json(&parse_body(request)?)?;
            let to = require_finite_point(dto.x, dto.y)?;
            buffer_event(shared, EngineEvent::WorkerMoved(WorkerId(dto.id), to))
        }

        (Method::Post, "/workers/leave") => {
            let dto = IdDto::from_json(&parse_body(request)?)?;
            buffer_event(shared, EngineEvent::WorkerLeft(WorkerId(dto.id)))
        }

        (Method::Post, "/answers") => {
            let (worker, contribution) =
                AnswerDto::from_json(&parse_body(request)?)?.into_answer()?;
            let banked = shared.handle.record_answer(worker, contribution);
            Ok(Response::json(
                200,
                Json::obj([("banked", Json::Bool(banked))]).to_string_compact(),
            ))
        }

        (Method::Post, "/tick") => {
            let body = if request.body.is_empty() {
                Json::Obj(Default::default())
            } else {
                parse_body(request)?
            };
            let now = match body.get("now") {
                Some(v) => v.as_num().ok_or(ServerError::BadField {
                    field: "now",
                    expected: "a number",
                })?,
                None => shared.clock.now(),
            };
            if !now.is_finite() {
                return Err(ServerError::BadField {
                    field: "now",
                    expected: "a finite number",
                });
            }
            let tick_started = std::time::Instant::now();
            let (report, trace) = shared.batcher.flush_and_tick(&shared.handle, now);
            shared.metrics.batch_flushes.incr();
            let elapsed = tick_started.elapsed();
            shared.metrics.tick_latency.record(elapsed);
            shared.metrics.observe_tick(
                trace,
                report.now,
                elapsed.as_micros().min(u64::MAX as u128) as u64,
                &report.stages,
            );
            Ok(Response::json(
                200,
                TickDto::from_report(&report).to_json().to_string_compact(),
            ))
        }

        (Method::Post, "/admin/shutdown") => {
            shared.trigger_shutdown(shutdown);
            Ok(Response::json(
                200,
                Json::obj([("stopping", Json::Bool(true))]).to_string_compact(),
            )
            .with_close())
        }

        (
            _,
            "/healthz" | "/snapshot" | "/assignments" | "/tasks" | "/tasks/expire" | "/workers"
            | "/workers/heartbeat" | "/workers/leave" | "/answers" | "/tick" | "/admin/shutdown",
        ) => Err(ServerError::MethodNotAllowed),
        (_, path) => Err(ServerError::NotFound(path.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_partitions_than_grid_cells_is_refused() {
        // A 2 × 2 grid holds one to four regions; the splitter would clamp a
        // count outside that range, silently serving a different number of
        // regions than named.
        let none = ServerConfig {
            cell_size: 0.5,
            partitions: 0,
            ..ServerConfig::default()
        };
        match none.build_handle() {
            Err(ServerError::Conflict(message)) => {
                assert!(message.contains("0 partitions"), "{message}");
            }
            Err(other) => panic!("expected a conflict, got {other}"),
            Ok(handle) => panic!("built {} regions", handle.num_partitions()),
        }
        let config = ServerConfig {
            cell_size: 0.5,
            partitions: 5,
            ..ServerConfig::default()
        };
        match config.build_handle() {
            Err(ServerError::Conflict(message)) => {
                assert!(message.contains('5') && message.contains('4'), "{message}");
            }
            Err(other) => panic!("expected a conflict, got {other}"),
            Ok(handle) => panic!("built {} regions", handle.num_partitions()),
        }
        let four = ServerConfig {
            partitions: 4,
            ..config
        };
        assert_eq!(four.build_handle().unwrap().num_partitions(), 4);
    }
}
