//! `rdbsc-partitiond`: one partition's engine served over the partition
//! protocol.
//!
//! A daemon boots *unconfigured* — it knows its listen address and nothing
//! about the data space. The first router to connect performs the
//! handshake as the first two frames on its command connection: `Hello`
//! (protocol version and daemon state) and `Configure`, which ships the
//! **routing table** (grid geometry + canonical region list), the region
//! index this daemon serves and the engine configuration. The daemon
//! validates the table with [`rdbsc_cluster::RegionPartition::from_regions`]
//! and builds its engine over exactly the region rectangle the router
//! routes to it — a single source of truth for the geometry on both sides
//! of the wire. Re-configures with the identical payload are idempotent (a
//! stateless router restarting re-pushes its config); a *different* payload
//! is answered `409 Conflict`, never silently adopted.
//!
//! ## Command surface
//!
//! Everything a router, a promoter or a follower says to a daemon is a
//! binary frame ([`crate::frame`]) on a connection that opens with the frame
//! magic; one dispatcher (`execute_frame`) runs them behind one
//! draining/standby refusal table (`refused_while`):
//!
//! | Frame body | Protocol request |
//! |---|---|
//! | `Hello`, `Configure` | the handshake: version/state, build the engine (idempotent) |
//! | `Partition` | one [`rdbsc_platform::PartitionRequest`] — the four commands (submit, tick, answer, release), the reads and probes, drain and shutdown — answered by `EnginePartition::serve`, the same call the in-process backend makes |
//! | `Repl` | one [`rdbsc_platform::ReplRequest`] — bootstrap, fetch, status, promote — answered by [`Replication::serve`] |
//!
//! HTTP on the same port is the ops surface — what a human, an ops script
//! or CI reads — and nothing else:
//!
//! | Route | Purpose |
//! |---|---|
//! | `GET /healthz`, `GET /metrics` | liveness; counters, `configured`, replication state |
//! | `GET /debug/snapshot` | engine snapshot + `state_digest` |
//! | `GET /debug/slow-ticks`, `POST /debug/slow-tick-ms`, `GET /debug/spans` | tick captures and traces |
//! | `POST /admin/shutdown` | drain + exit |
//!
//! `/metrics` and the three `/debug/*` tick routes are
//! [`crate::metrics::serve_ops`], the router's handler too. A route asked
//! with another method answers `405`; the former partition routes — the
//! HTTP handshake, snapshot and activity probes, shutdown and the JSON data
//! commands — answer `404`.
//!
//! ## Draining
//!
//! After a drain (or as part of shutdown) the daemon answers **`503`** to
//! mutating commands — an in-band [`ReplyBody::Error`], not a dropped
//! connection — so a router mid-flight sees a clean protocol error instead
//! of an I/O failure. Reads (`Snapshot`, `IsActive`, `Hello`, `/metrics`,
//! `/healthz`) keep working so operators can observe the drain.
//!
//! ## Replication
//!
//! Started with `--follow PRIMARY_ADDR` the daemon is a **standby**. All of
//! replication is the [`rdbsc_platform::repl`] state machine: one
//! [`Replication`] value beside the engine, under the engine lock, with time
//! passed in. The daemon adds its I/O — a follower thread that carries the
//! machine's requests to the primary on one [`FrameConn`] and waits when
//! told to, `Repl` frames answered under the lock, and the engine install a
//! bootstrap ends in (the one configure check; a durable standby's data
//! directory wiped and restored from the shipped checkpoint). A standby
//! applies shipped commands log-then-apply, refuses mutating *client*
//! commands with `409` (it is one promote away from serving, not draining)
//! and reports `repl.lag` on `/metrics`. A promote seals the stream and
//! returns the promoted digest, which the router compares against its
//! acknowledged watermark for digest-exact failover.

use crate::dto::SnapshotDto;
use crate::error::ServerError;
use crate::frame::{FrameError, ReplyBody, ReplyFrame, RequestBody, RequestFrame};
use crate::http::{Method, Request, Response};
use crate::json::{parse, Json};
use crate::listener::{HttpCore, ListenerConfig, ShutdownHandle};
use crate::metrics::{scrape_daemon, serve_ops, Scrape, ServerMetrics};
use crate::protocol::{ConfigureDto, Hello};
use crate::remote::FrameConn;
use rdbsc_geo::Rect;
use rdbsc_index::FlatGridIndex;
use rdbsc_platform::{
    AssignmentEngine, CommandOutcome, EngineConfig, EnginePartition, PartitionReply,
    PartitionRequest, PartitionState, Poll, ReplEngine, ReplFailure, ReplReply, ReplRequest,
    Replication, WalConfig, WalError, PROTOCOL_VERSION,
};
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of one partition daemon.
#[derive(Debug, Clone)]
pub struct PartitiondConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads. A daemon serves one router (a handful of persistent
    /// connections) plus metrics scrapes; the default of 4 is plenty.
    pub threads: usize,
    /// Bounded connection-queue capacity.
    pub queue_capacity: usize,
    /// Maximum accepted request-body size. Routed submit batches can be
    /// large (one tick's worth of events for the region), so the default is
    /// far above the serving tier's per-request limit.
    pub max_body_bytes: usize,
    /// Idle keep-alive timeout. Routers hold persistent connections between
    /// ticks; the stale-connection retry on the client side makes an
    /// expired connection invisible, so this just bounds resource use.
    pub idle_timeout: Duration,
    /// Data directory for durability. When set, the daemon persists the
    /// accepted configure payload to `configure.json` and runs its engine
    /// behind a write-ahead log in the same directory; on boot with an
    /// existing `configure.json` it **self-configures and recovers** (load
    /// the last checkpoint, replay the tail) before taking commands. `None`
    /// (the default) serves non-durably.
    pub data_dir: Option<PathBuf>,
    /// Slow-tick capture threshold in microseconds (0 = every tick,
    /// `u64::MAX` = disabled); see `GET /debug/slow-ticks`.
    pub slow_tick_threshold_us: u64,
    /// Primary address to follow (`host:port`). When set the daemon boots
    /// as a replication **standby**: it bootstraps its state from the
    /// primary, applies shipped commands continuously and refuses
    /// mutating client commands until a promote (`ReplRequest::Promote`).
    pub follow: Option<String>,
}

impl Default for PartitiondConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8800".to_string(),
            threads: 4,
            queue_capacity: 16,
            max_body_bytes: 8 * 1024 * 1024,
            idle_timeout: Duration::from_secs(60),
            data_dir: None,
            slow_tick_threshold_us: u64::MAX,
            follow: None,
        }
    }
}

/// The configured engine plus what it was configured with.
struct Configured {
    part: EnginePartition<FlatGridIndex>,
    region_index: u32,
    /// The canonical JSON of the accepted configure payload, for the
    /// idempotency check.
    fingerprint: String,
}

/// What the daemon's one lock guards: the engine, once configured, and
/// the replication state beside it.
struct Slot {
    configured: Option<Configured>,
    repl: Replication,
}

struct DaemonState {
    engine: Mutex<Slot>,
    draining: AtomicBool,
    metrics: Arc<ServerMetrics>,
    /// The trace id of the most recent traced tick (`/debug/spans` default).
    last_trace: std::sync::atomic::AtomicU64,
    /// Where the log and the persisted configure live (`None` = non-durable).
    data_dir: Option<PathBuf>,
}

impl DaemonState {
    /// An unconfigured daemon: a standby iff the config names a primary.
    fn new(config: &PartitiondConfig, metrics: Arc<ServerMetrics>) -> Self {
        let standby = config.follow.is_some();
        let repl = if standby {
            Replication::standby()
        } else {
            Replication::primary()
        };
        Self {
            engine: Mutex::new(Slot {
                configured: None,
                repl,
            }),
            draining: AtomicBool::new(false),
            metrics,
            last_trace: AtomicU64::new(0),
            data_dir: config.data_dir.clone(),
        }
    }

    /// The engine slot, locked — the daemon's one engine-lock site. Lock
    /// poisoning is the one panic it lets through: a holder that panicked
    /// left the engine mid-apply, and serving on from that state would
    /// break the digest identity every replica is checked against.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.engine
            .lock()
            .expect("daemon engine lock poisoned by a panicking holder")
    }

    /// Runs `f` on the replication state and the engine, under the lock.
    fn with_repl<R>(&self, f: impl FnOnce(&mut Replication, &mut Engine<'_>) -> R) -> R {
        let mut slot = self.slot();
        let Slot { configured, repl } = &mut *slot;
        let data_dir = self.data_dir.as_deref();
        f(
            repl,
            &mut Engine {
                configured,
                data_dir,
            },
        )
    }

    /// Runs `f` on the configured engine under the lock, or refuses with
    /// the one not-configured error.
    fn with_configured<R>(&self, f: impl FnOnce(&mut Configured) -> R) -> Result<R, ServerError> {
        match self.slot().configured.as_mut() {
            Some(configured) => Ok(f(configured)),
            None => Err(ServerError::Conflict(
                "partition not configured: no Configure frame and no standby bootstrap yet".into(),
            )),
        }
    }

    /// Is the daemon draining, or its listener stopping?
    fn is_draining(&self, shutdown: &ShutdownHandle) -> bool {
        self.draining.load(Ordering::Acquire) || shutdown.stopping()
    }
}

/// A running partition daemon. [`PartitionDaemon::start`] boots it
/// unconfigured; a router configures it over the wire. Stop it with
/// [`PartitionDaemon::shutdown`] + [`PartitionDaemon::join`], with a
/// `Shutdown` frame (what a router's graceful shutdown sends), or with
/// `POST /admin/shutdown`.
pub struct PartitionDaemon {
    core: HttpCore,
    state: Arc<DaemonState>,
    /// The follower thread pulling from the primary (standby daemons only).
    follower: Option<std::thread::JoinHandle<()>>,
}

impl PartitionDaemon {
    /// Binds the address and starts serving the partition protocol.
    pub fn start(config: PartitiondConfig) -> Result<PartitionDaemon, ServerError> {
        let metrics = Arc::new(ServerMetrics::with_slow_threshold_us(
            config.slow_tick_threshold_us,
        ));
        let state = Arc::new(DaemonState::new(&config, metrics.clone()));
        // Recover BEFORE the listener binds: a restarted daemon that has a
        // persisted configure must come back already configured (checkpoint
        // loaded, tail replayed) so the first router request it sees finds
        // the same partition it was before the crash. A follower skips this:
        // it always re-bootstraps from its primary, which replaces whatever
        // is on disk with the primary's current checkpoint.
        if config.follow.is_none() {
            if let Some(dir) = &state.data_dir {
                let persisted = dir.join("configure.json");
                if persisted.exists() {
                    let text = std::fs::read_to_string(&persisted)?;
                    configure(&state, &text).map_err(|e| {
                        ServerError::Conflict(format!(
                            "boot recovery from {} failed: {e}",
                            persisted.display()
                        ))
                    })?;
                }
            }
        }
        let core = {
            let http_state = state.clone();
            let frame_state = state.clone();
            HttpCore::start_with_frames(
                ListenerConfig {
                    addr: config.addr.clone(),
                    threads: config.threads,
                    queue_capacity: config.queue_capacity,
                    max_body_bytes: config.max_body_bytes,
                    idle_timeout: config.idle_timeout,
                },
                metrics,
                Arc::new(move |request: &Request, shutdown: &ShutdownHandle| {
                    route(request, &http_state, shutdown)
                }),
                Some(Arc::new(
                    move |request: RequestFrame, shutdown: &ShutdownHandle| {
                        route_frame(request, &frame_state, shutdown)
                    },
                )),
            )?
        };
        let follower = match config.follow.clone() {
            Some(primary) => Some(
                std::thread::Builder::new()
                    .name("repl-follower".into())
                    .spawn({
                        let (state, stop) = (state.clone(), core.stopper());
                        move || run_follower(&state, &primary, &stop)
                    })
                    .map_err(ServerError::Io)?,
            ),
            None => None,
        };
        Ok(PartitionDaemon {
            core,
            state,
            follower,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.core.addr()
    }

    /// Is the daemon draining (refusing mutating commands)?
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::Acquire)
    }

    /// Is the daemon an unpromoted replication standby?
    pub fn is_standby(&self) -> bool {
        self.state.slot().repl.is_standby()
    }

    /// Begins the drain + stop sequence (what a `Shutdown` frame and
    /// `POST /admin/shutdown` do).
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::Release);
        self.core.stopper().trigger();
    }

    /// Waits for the serving core (and any follower thread) to exit.
    pub fn join(self) {
        self.core.join();
        if let Some(follower) = self.follower {
            let _ = follower.join();
        }
    }
}

/// A configure payload that passed every check.
struct Accepted {
    region_index: u32,
    region: Rect,
    cell_size: f64,
    engine: EngineConfig,
    wal: WalConfig,
    /// The canonical re-encoding of the payload.
    fingerprint: String,
}

impl Accepted {
    /// Builds the spatial index the engine runs on: the region rectangle at
    /// the router's RAW cell size — exactly what the router's in-process
    /// regions use — never the routing table's derived η: a different
    /// resolution would resolve different candidate cells and silently
    /// break cross-transport determinism.
    fn index(&self) -> impl Fn() -> FlatGridIndex {
        let (region, cell_size) = (self.region, self.cell_size);
        move || FlatGridIndex::new(region, cell_size)
    }
}

/// The one configure check, for a router's `Configure` frame, a persisted
/// `configure.json` and a standby's bootstrap alike. In order: the version
/// (first, so a peer from a different protocol revision gets the version
/// conflict, not a decode error about fields that revision may not have),
/// the decode, the routing table, the region index, the cell size, the
/// engine and WAL config; then the canonical fingerprint.
fn accept_configure(text: &str) -> Result<Accepted, ServerError> {
    let body = parse(text)?;
    let version = crate::dto::id(&body, "protocol_version")?;
    if version != PROTOCOL_VERSION {
        return Err(ServerError::Conflict(format!(
            "protocol version mismatch: daemon speaks v{PROTOCOL_VERSION}, peer sent v{version}"
        )));
    }
    let dto = ConfigureDto::from_json(&body)?;
    let partition = dto.routing.clone().into_partition()?;
    if dto.region_index as usize >= partition.num_regions() {
        return Err(ServerError::BadField {
            field: "region_index",
            expected: "an index into the routing table's regions",
        });
    }
    if !dto.cell_size.is_finite() || dto.cell_size <= 0.0 {
        return Err(ServerError::BadField {
            field: "cell_size",
            expected: "a positive finite cell size",
        });
    }
    Ok(Accepted {
        region_index: dto.region_index,
        region: partition.region_rect(dto.region_index as usize),
        cell_size: dto.cell_size,
        engine: dto.engine.clone().into_config()?,
        wal: match &dto.durability {
            Some(d) => d.clone().into_wal_config()?,
            None => WalConfig::default(),
        },
        fingerprint: dto.to_json().to_string_compact(),
    })
}

/// Builds the engine a configure payload describes; `Ok(true)` when the
/// daemon already runs the identical payload.
fn configure(state: &DaemonState, text: &str) -> Result<bool, ServerError> {
    let accepted = accept_configure(text)?;
    let mut slot = state.slot();
    if let Some(existing) = slot.configured.as_ref() {
        if existing.fingerprint == accepted.fingerprint {
            // A stateless router re-pushing its config after a restart.
            return Ok(true);
        }
        return Err(ServerError::Conflict(format!(
            "already configured as region {} of a different topology; \
             refusing to silently re-route",
            existing.region_index
        )));
    }
    let index = accepted.index();
    let part = match &state.data_dir {
        Some(dir) => {
            // Durable daemon: the engine runs behind a write-ahead log in the
            // data directory. If segments are already there this IS recovery
            // (load last checkpoint, replay the tail) — the configure payload
            // must describe the same topology, which the persisted-fingerprint
            // boot path and the idempotency check above guarantee.
            let (part, _scan) =
                EnginePartition::open_durable(dir, accepted.wal, accepted.engine, index).map_err(
                    |e| match e {
                        WalError::Io(io) => ServerError::Io(io),
                        corrupt => ServerError::Conflict(format!(
                            "wal recovery in {} failed: {corrupt}",
                            dir.display()
                        )),
                    },
                )?;
            if let Some(stats) = part
                .wal_stats()
                .filter(|s| s.recovered_records > 0 || s.recovered_checkpoint)
            {
                eprintln!(
                    "rdbsc-partitiond: recovered region {} from {} ({} command(s) replayed, checkpoint {})",
                    accepted.region_index,
                    dir.display(),
                    stats.recovered_records,
                    if stats.recovered_checkpoint { "loaded" } else { "none" },
                );
            }
            persist_configure(dir, &accepted.fingerprint)?;
            part
        }
        None => EnginePartition::new(AssignmentEngine::new(index(), accepted.engine)),
    };
    slot.configured = Some(Configured {
        part,
        region_index: accepted.region_index,
        fingerprint: accepted.fingerprint,
    });
    Ok(false)
}

/// Persists the accepted configure payload so a restarted daemon can
/// self-configure and recover without waiting for a router. Written via
/// temp-file + rename so a crash mid-write never leaves a torn payload.
fn persist_configure(dir: &Path, fingerprint: &str) -> Result<(), ServerError> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join("configure.json.tmp");
    std::fs::write(&tmp, fingerprint)?;
    std::fs::rename(&tmp, dir.join("configure.json"))?;
    Ok(())
}

fn route(
    request: &Request,
    state: &DaemonState,
    shutdown: &ShutdownHandle,
) -> Result<Response, ServerError> {
    let draining = state.is_draining(shutdown);
    let scrape = |s: &mut Scrape| {
        let slot = state.slot();
        let configured = slot.configured.as_ref();
        let repl = slot.repl.status(configured.map(|c| &c.part));
        let configured = configured.map(|c| (c.region_index, c.part.snapshot()));
        scrape_daemon(s, draining, state.data_dir.is_some(), &repl, configured);
    };
    let last_trace = || state.last_trace.load(Ordering::Acquire);
    if let Some(response) = serve_ops(request, &state.metrics, scrape, last_trace) {
        return response;
    }
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => Ok(Response::json(
            200,
            Json::obj([
                ("status", Json::Str("ok".into())),
                ("draining", Json::Bool(draining)),
            ])
            .to_string_compact(),
        )),

        (Method::Get, "/debug/snapshot") => {
            let (snapshot, digest) =
                state.with_configured(|c| (c.part.snapshot(), c.part.state_digest()))?;
            let mut body = SnapshotDto::from_snapshot(&snapshot).to_json();
            if let Json::Obj(map) = &mut body {
                // Hex string, not a number: u64 digests don't survive the
                // f64 round-trip JSON numbers would force on them.
                map.insert(
                    "state_digest".to_string(),
                    Json::Str(format!("{digest:016x}")),
                );
            }
            Ok(Response::json(200, body.to_string_compact()))
        }

        (Method::Post, "/admin/shutdown") => {
            state.draining.store(true, Ordering::Release);
            shutdown.trigger();
            Ok(Response::json(
                200,
                Json::obj([("stopping", Json::Bool(true))]).to_string_compact(),
            )
            .with_close())
        }

        (_, "/healthz" | "/debug/snapshot" | "/admin/shutdown") => {
            Err(ServerError::MethodNotAllowed)
        }
        (_, path) => Err(ServerError::NotFound(path.to_string())),
    }
}

/// The refusal table — the one place that says which requests a draining
/// daemon (first element → `503`) and an unpromoted standby (second → `409`)
/// turn away. A partition request is refused by both exactly when it
/// [mutates](PartitionRequest::mutates); reads, probes and the lifecycle
/// requests always run, so a drain and the failover choreography stay
/// observable. Of the control requests, a configure is refused by both; a
/// promote only by a drain (a drain is terminal); serving as a replication
/// *source* only by a standby (its state is owned by its primary).
fn refused_while(body: &RequestBody) -> (bool, bool) {
    match body {
        RequestBody::Partition(request) => (request.mutates(), request.mutates()),
        RequestBody::Configure(_) => (true, true),
        RequestBody::Repl(ReplRequest::Promote) => (true, false),
        RequestBody::Repl(ReplRequest::Bootstrap | ReplRequest::Fetch { .. }) => (false, true),
        RequestBody::Repl(ReplRequest::Status) | RequestBody::Hello => (false, false),
    }
}

/// The frame handler: the row of the refusal table — `503` while draining,
/// a parseable refusal rather than a dropped connection, then `409` while
/// this daemon is an unpromoted standby — and then the request, with
/// failures reported in-band as [`ReplyBody::Error`] carrying an
/// HTTP-style status (unconfigured 409s and bad payloads 400s too).
fn route_frame(
    request: RequestFrame,
    state: &DaemonState,
    shutdown: &ShutdownHandle,
) -> ReplyFrame {
    let (while_draining, while_standby) = refused_while(&request.body);
    let result = if while_draining && state.is_draining(shutdown) {
        Err(ServerError::ShuttingDown)
    } else if while_standby && state.slot().repl.is_standby() {
        Err(ServerError::Conflict(
            "standby: refusing mutating commands until promoted".into(),
        ))
    } else {
        execute_frame(request.body, state, shutdown)
    };
    ReplyFrame {
        request_id: request.request_id,
        body: result.unwrap_or_else(|e| ReplyBody::Error {
            status: e.status(),
            detail: e.to_string(),
        }),
    }
}

/// Executes one request — the daemon's only dispatcher. A partition
/// request is answered by `EnginePartition::serve`, wrapped in what only a
/// daemon does: a drain sets the draining flag and a shutdown also stops
/// the listener (both answer on an unconfigured daemon too), and a tick is
/// timed and observed. Each control request has its own arm.
fn execute_frame(
    body: RequestBody,
    state: &DaemonState,
    shutdown: &ShutdownHandle,
) -> Result<ReplyBody, ServerError> {
    match body {
        RequestBody::Partition(request) => {
            let stop = matches!(request, PartitionRequest::Shutdown);
            let drain = stop || matches!(request, PartitionRequest::Drain);
            if drain {
                state.draining.store(true, Ordering::Release);
            }
            if stop {
                shutdown.trigger();
            }
            let started = Instant::now();
            let reply = match state.with_configured(|c| c.part.serve(request)) {
                Ok(reply) => reply,
                Err(_) if stop => PartitionReply::ShutDown,
                Err(_) if drain => PartitionReply::Drained,
                Err(e) => return Err(e),
            };
            if let PartitionReply::Applied(CommandOutcome::Ticked(tick)) = &reply {
                let elapsed = started.elapsed();
                if tick.trace != 0 {
                    state.last_trace.store(tick.trace, Ordering::Release);
                }
                state.metrics.tick_latency.record(elapsed);
                state.metrics.observe_tick(
                    tick.trace,
                    tick.report.now,
                    elapsed.as_micros().min(u64::MAX as u128) as u64,
                    &tick.report.stages,
                );
            }
            Ok(ReplyBody::Partition(reply))
        }
        RequestBody::Repl(request) => {
            let reply = state
                .with_repl(|repl, engine| repl.serve(Instant::now(), request, engine))
                .map_err(ServerError::Conflict)?;
            if let ReplReply::Promote { digest, applied } = &reply {
                eprintln!("rdbsc-partitiond: promoted to primary at stream lsn {applied} (digest {digest:016x})");
            }
            Ok(ReplyBody::Repl(reply))
        }
        RequestBody::Hello => {
            let slot = state.slot();
            Ok(ReplyBody::Hello(Hello {
                protocol_version: PROTOCOL_VERSION,
                region_index: slot.configured.as_ref().map(|c| c.region_index),
                draining: state.is_draining(shutdown),
                standby: slot.repl.is_standby(),
            }))
        }
        RequestBody::Configure(text) => Ok(ReplyBody::Configure {
            already_configured: configure(state, &text)?,
        }),
    }
}

// ---------------------------------------------------------------------------
// Replication: the state machine is `rdbsc_platform::repl`. What is left
// here is its I/O — the standby's driver thread and the engine install a
// bootstrap ends in.

/// The standby's follower thread: asks the state machine what to do, sends
/// that request to the primary, hands the outcome back under the engine
/// lock, and sleeps when told to wait — until the machine stops (a
/// promotion) or the daemon does.
fn run_follower(state: &DaemonState, primary: &str, stop: &ShutdownHandle) {
    let mut conn = None;
    let mut request_id = 0;
    while !state.is_draining(stop) {
        let request = match state.slot().repl.poll(Instant::now()) {
            Poll::Send(request) => request,
            Poll::WaitUntil(at) => {
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                continue;
            }
            Poll::Stop => return,
        };
        request_id += 1;
        let body = RequestBody::Repl(request);
        let reply = exchange(&mut conn, primary, &RequestFrame { request_id, body });
        let news = state.with_repl(|repl, engine| repl.on_reply(Instant::now(), reply, engine));
        if let Some(news) = news {
            eprintln!("rdbsc-partitiond follower of {primary}: {news}");
        }
    }
}

/// One exchange with the primary on the follower's connection (opened on
/// first use, and again after a failure), as the state machine takes it.
fn exchange(
    conn: &mut Option<FrameConn>,
    primary: &str,
    request: &RequestFrame,
) -> Result<ReplReply, ReplFailure> {
    let conn = match conn {
        Some(conn) => conn,
        None => {
            let addr = primary
                .to_socket_addrs()
                .ok()
                .and_then(|mut addrs| addrs.next());
            let addr =
                addr.ok_or_else(|| ReplFailure::Io(format!("{primary} does not resolve")))?;
            conn.insert(FrameConn::new(addr, Duration::from_secs(5)))
        }
    };
    match conn.exchange(request) {
        Ok(ReplyBody::Repl(reply)) => Ok(reply),
        Ok(ReplyBody::Error { status, detail }) => Err(ReplFailure::Refused { status, detail }),
        Ok(other) => Err(ReplFailure::Malformed(format!(
            "reply tag {:#04x}",
            other.tag()
        ))),
        Err(FrameError::Io(e)) => Err(ReplFailure::Io(e.to_string())),
        Err(malformed) => Err(ReplFailure::Malformed(malformed.to_string())),
    }
}

/// The daemon's engine as the replication state machine sees it.
struct Engine<'a> {
    configured: &'a mut Option<Configured>,
    data_dir: Option<&'a Path>,
}

impl ReplEngine for Engine<'_> {
    type Index = FlatGridIndex;

    fn configured(&mut self) -> Option<(&mut EnginePartition<FlatGridIndex>, &str)> {
        self.configured
            .as_mut()
            .map(|c| (&mut c.part, c.fingerprint.as_str()))
    }

    /// Installs a shipped bootstrap state as this daemon's engine, under
    /// the engine lock. A durable standby wipes its data directory first —
    /// the shipped checkpoint opens a fresh log epoch and whatever the
    /// directory held belonged to an older stream (re-seeding a *former
    /// primary's* log automatically is the known gap; see ROADMAP). The
    /// fingerprint kept (and persisted) is the canonical re-encoding of the
    /// shipped configure text — what `configure` stores — so the
    /// idempotency check matches a router's re-push even when the
    /// primary's text carries a field this build no longer writes.
    fn install(&mut self, configure: &str, state: PartitionState) -> Result<(), String> {
        let accepted =
            accept_configure(configure).map_err(|e| format!("configure fingerprint: {e}"))?;
        let index = accepted.index();
        let part = match self.data_dir {
            Some(dir) => {
                if dir.exists() {
                    std::fs::remove_dir_all(dir)
                        .map_err(|e| format!("wiping {}: {e}", dir.display()))?;
                }
                let part = EnginePartition::restore_durable(
                    dir,
                    accepted.wal,
                    accepted.engine,
                    state,
                    index,
                )
                .map_err(|e| format!("restoring in {}: {e}", dir.display()))?;
                persist_configure(dir, &accepted.fingerprint).map_err(|e| e.to_string())?;
                part
            }
            None => EnginePartition::from_state(state, accepted.engine, index),
        };
        *self.configured = Some(Configured {
            part,
            region_index: accepted.region_index,
            fingerprint: accepted.fingerprint,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EngineConfigDto, RoutingTableDto};
    use rdbsc_cluster::RegionPartition;
    use rdbsc_index::geometry::GridGeometry;
    use rdbsc_platform::EngineConfig;

    fn unit_partition() -> RegionPartition {
        RegionPartition::single(GridGeometry::new(Rect::unit(), 0.1))
    }

    fn configure_text(partition: &RegionPartition, engine: &EngineConfig) -> Json {
        ConfigureDto {
            protocol_version: PROTOCOL_VERSION,
            routing: RoutingTableDto::from_partition(partition),
            region_index: 0,
            cell_size: 0.1,
            engine: EngineConfigDto::from_config(engine),
            durability: None,
        }
        .to_json()
    }

    fn daemon_state() -> DaemonState {
        DaemonState::new(
            &PartitiondConfig::default(),
            Arc::new(ServerMetrics::with_slow_threshold_us(u64::MAX)),
        )
    }

    fn standby_state(data_dir: Option<PathBuf>) -> DaemonState {
        DaemonState::new(
            &PartitiondConfig {
                data_dir,
                follow: Some("127.0.0.1:1".to_string()),
                ..PartitiondConfig::default()
            },
            Arc::new(ServerMetrics::with_slow_threshold_us(u64::MAX)),
        )
    }

    /// A primary built before the `backend` field was dropped ships a
    /// configure text that still carries it. The standby must keep — and
    /// persist — the canonical re-encoding, or the router's re-push after
    /// promotion (which this build encodes without the field) is refused
    /// as a different topology.
    #[test]
    fn bootstrap_from_a_text_with_a_backend_field_keeps_the_canonical_fingerprint() {
        let dir = std::env::temp_dir().join(format!(
            "rdbsc-partitiond-bootstrap-fingerprint-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let partition = unit_partition();
        let engine_config = EngineConfig::default();
        let pushed = configure_text(&partition, &engine_config);
        let canonical = pushed.to_string_compact();
        let mut shipped = pushed.clone();
        let Json::Obj(fields) = &mut shipped else {
            panic!("configure payload is an object");
        };
        fields.insert("backend".to_string(), Json::Str("flat-grid".into()));
        let shipped = shipped.to_string_compact();
        assert_ne!(shipped, canonical);

        let state = standby_state(Some(dir.clone()));
        let primary = EnginePartition::new(AssignmentEngine::new(
            FlatGridIndex::new(partition.region_rect(0), 0.1),
            engine_config,
        ));
        let shipped_state = primary.dump_state();
        state
            .with_repl(|_, engine| engine.install(&shipped, shipped_state))
            .unwrap();

        let installed = state.slot();
        assert_eq!(
            installed.configured.as_ref().unwrap().fingerprint,
            canonical
        );
        drop(installed);
        assert_eq!(
            std::fs::read_to_string(dir.join("configure.json")).unwrap(),
            canonical
        );
        // The router's re-push after promotion is the idempotent case.
        let already_configured = configure(&state, &canonical).unwrap();
        assert!(already_configured);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A router's push and a primary's bootstrap text go through the one
    /// configure check: a cell size the push path refuses must not be
    /// installed on a standby either, where the index would clamp it to
    /// some other resolution.
    #[test]
    fn a_bootstrap_with_a_cell_size_the_push_refuses_is_refused_too() {
        let partition = unit_partition();
        let engine_config = EngineConfig::default();
        let primary = EnginePartition::new(AssignmentEngine::new(
            FlatGridIndex::new(partition.region_rect(0), 0.1),
            engine_config.clone(),
        ));
        for cell_size in [-0.1, 0.0] {
            let mut text = configure_text(&partition, &engine_config);
            let Json::Obj(fields) = &mut text else {
                panic!("configure payload is an object");
            };
            fields.insert("cell_size".to_string(), Json::Num(cell_size));
            let text = text.to_string_compact();
            let state = standby_state(None);
            let shipped_state = primary.dump_state();
            let refusal = state
                .with_repl(|_, engine| engine.install(&text, shipped_state))
                .unwrap_err();
            assert!(refusal.contains("cell_size"), "{cell_size}: {refusal}");
            assert!(
                state.slot().configured.is_none(),
                "{cell_size}: nothing installed"
            );
            let pushed = configure(&daemon_state(), &text).unwrap_err();
            assert!(
                pushed.to_string().contains("cell_size"),
                "{cell_size}: {pushed}"
            );
        }
    }
}
