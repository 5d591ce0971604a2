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
//! | Frame | Protocol command |
//! |---|---|
//! | `Hello`, `Configure` | the handshake: version/state, build the engine (idempotent) |
//! | `Command` | one of the four [`rdbsc_platform::PartitionCommand`]s — submit, tick, answer, release — handed to `EnginePartition::apply` |
//! | `Assignments`, `Snapshot`, `IsActive`, `HasWorker` | reads and probes |
//! | `Drain` / `Shutdown` | refuse further mutating commands / drain + exit |
//! | `ReplBootstrap` | replication: state + stream start |
//! | `ReplFetch` | replication: shipped records + ack |
//! | `ReplStatus` | replication: role, lag, watermark |
//! | `ReplPromote` | replication: standby → primary |
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
//! The former partition routes — the HTTP handshake, snapshot and activity
//! probes, shutdown and the JSON data commands — answer `404`.
//!
//! ## Draining
//!
//! After a drain (or as part of shutdown) the daemon answers **`503`** to
//! mutating commands — an in-band [`ReplyFrame::Error`], not a dropped
//! connection — so a router mid-flight sees a clean protocol error instead
//! of an I/O failure. Reads (`Snapshot`, `IsActive`, `Hello`, `/metrics`,
//! `/healthz`) keep working so operators can observe the drain.
//!
//! ## Replication
//!
//! Started with `--follow PRIMARY_ADDR` the daemon is a **standby**: a
//! background thread bootstraps from the primary (one encoded checkpoint
//! record plus the configure fingerprint, exactly the checkpoint + tail
//! shape crash recovery uses) and then pulls shipped commands, handing each
//! to the same `EnginePartition::apply` (log-then-apply), so the standby's
//! own log is a valid recovery source at every point. A standby refuses mutating
//! *client* commands with `409` (it is not draining — it is one promote
//! away from serving) and reports `repl.lag` on `/metrics`. The fetch ack
//! doubles as the primary's retention watermark; if the standby falls off
//! the retained window the primary answers `409` and the standby
//! re-bootstraps. A `ReplPromote` frame finishes the replay, seals
//! the stream (`ReplMeta{sealed}` + checkpoint + fsync on a fresh segment),
//! clears the standby flag and returns the digest of the promoted state —
//! the router compares it against its acknowledged watermark for
//! digest-exact failover.

use crate::dto::SnapshotDto;
use crate::error::ServerError;
use crate::frame::{ReplyFrame, RequestFrame};
use crate::http::{Method, Request, Response};
use crate::json::{parse, Json};
use crate::listener::{HttpCore, ListenerConfig, ShutdownHandle};
use crate::metrics::ServerMetrics;
use crate::protocol::{request_id, slow_tick_threshold_us, ConfigureDto, Hello, ReplStatusDto};
use crate::remote::FrameConn;
use rdbsc_geo::Rect;
use rdbsc_index::FlatGridIndex;
use rdbsc_platform::wal::{decode_command, decode_record, encode_command, encode_record};
use rdbsc_platform::{
    AssignmentEngine, CommandOutcome, EngineConfig, EnginePartition, PartitionState, WalConfig,
    WalError, WalRecord, PROTOCOL_VERSION,
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
    /// mutating client commands until a `ReplPromote` frame.
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

struct DaemonState {
    engine: Mutex<Option<Configured>>,
    draining: AtomicBool,
    metrics: Arc<ServerMetrics>,
    /// The trace id of the most recent traced tick (`/debug/spans` default).
    last_trace: std::sync::atomic::AtomicU64,
    /// Where the log and the persisted configure live (`None` = non-durable).
    data_dir: Option<PathBuf>,
    /// Is this daemon a replication standby? A standby refuses mutating
    /// client commands with `409 Conflict` — distinct from draining, which
    /// is terminal — until a promote clears the flag.
    standby: AtomicBool,
    /// The primary address a follower pulls from (`None` = not a follower).
    follow: Option<String>,
    /// The follower's applied cursor: every stream lsn **below** this is
    /// applied locally. Bootstrap sets it to the stream start.
    repl_applied: AtomicU64,
    /// The primary's stream head (`next_lsn`) from the last successful
    /// fetch; `head - applied` is the standby's replication lag.
    repl_head: AtomicU64,
    /// Did a promotion seal the incoming stream? A sealed daemon serves as
    /// primary and reports `lag = 0` permanently.
    repl_sealed: AtomicBool,
    /// Tells the follower thread to stop (set by promote and shutdown).
    repl_stop: AtomicBool,
    /// When this daemon (as primary) last served a follower fetch. The
    /// stream supports exactly **one** standby — a concurrent pair would
    /// mutually invalidate each other's cursors (each bootstrap rebases the
    /// stream and drops the tail the other needs) in an endless
    /// re-bootstrap loop — so a bootstrap while this is fresh is refused.
    repl_fetch_seen: Mutex<Option<Instant>>,
}

impl DaemonState {
    /// An unconfigured daemon: a standby iff the config names a primary.
    fn new(config: &PartitiondConfig, metrics: Arc<ServerMetrics>) -> Self {
        Self {
            engine: Mutex::new(None),
            draining: AtomicBool::new(false),
            metrics,
            last_trace: AtomicU64::new(0),
            data_dir: config.data_dir.clone(),
            standby: AtomicBool::new(config.follow.is_some()),
            follow: config.follow.clone(),
            repl_applied: AtomicU64::new(0),
            repl_head: AtomicU64::new(0),
            repl_sealed: AtomicBool::new(false),
            repl_stop: AtomicBool::new(false),
            repl_fetch_seen: Mutex::new(None),
        }
    }

    /// The engine slot, locked — the daemon's one engine-lock site. Lock
    /// poisoning is the one panic it lets through: a holder that panicked
    /// left the engine mid-apply, and serving on from that state would
    /// break the digest identity every replica is checked against.
    fn slot(&self) -> MutexGuard<'_, Option<Configured>> {
        self.engine.lock().expect("daemon engine lock poisoned by a panicking holder")
    }

    /// When this daemon (as primary) last served a follower fetch, locked.
    /// Its holders only read or overwrite an `Instant`, so a poisoned lock
    /// means a panic elsewhere on that thread, never a torn value.
    fn fetch_seen(&self) -> MutexGuard<'_, Option<Instant>> {
        self.repl_fetch_seen.lock().expect("follower liveness lock poisoned")
    }

    /// Runs `f` on the configured engine under the lock, or refuses with
    /// the one not-configured error.
    fn with_configured<R>(&self, f: impl FnOnce(&mut Configured) -> R) -> Result<R, ServerError> {
        match self.slot().as_mut() {
            Some(configured) => Ok(f(configured)),
            None => Err(ServerError::Conflict(
                "partition not configured: no Configure frame and no standby bootstrap yet"
                    .into(),
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
        if state.follow.is_none() {
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
        let follower = match state.follow.clone() {
            Some(primary) => Some(
                std::thread::Builder::new()
                    .name("repl-follower".into())
                    .spawn({
                        let state = state.clone();
                        move || run_follower(&state, &primary)
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
        self.state.standby.load(Ordering::Acquire)
    }

    /// Begins the drain + stop sequence (what a `Shutdown` frame and
    /// `POST /admin/shutdown` do).
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::Release);
        self.state.repl_stop.store(true, Ordering::Release);
        self.core.stopper().trigger();
    }

    /// Waits for the serving core (and any follower thread) to exit.
    pub fn join(self) {
        self.core.join();
        self.state.repl_stop.store(true, Ordering::Release);
        if let Some(follower) = self.follower {
            let _ = follower.join();
        }
    }
}

fn parse_body(request: &Request) -> Result<Json, ServerError> {
    Ok(parse(request.body_utf8()?)?)
}

fn reply(request_id: u64, extra: impl IntoIterator<Item = (&'static str, Json)>) -> Response {
    let mut pairs = vec![("request_id", Json::Num(request_id as f64))];
    pairs.extend(extra);
    Response::json(200, Json::obj(pairs).to_string_compact())
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
    fn index(&self) -> impl FnOnce() -> FlatGridIndex {
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
    if let Some(existing) = slot.as_ref() {
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
            let (part, scan) =
                EnginePartition::open_durable(dir, accepted.wal, accepted.engine, index)
            .map_err(|e| match e {
                WalError::Io(io) => ServerError::Io(io),
                corrupt => ServerError::Conflict(format!(
                    "wal recovery in {} failed: {corrupt}",
                    dir.display()
                )),
            })?;
            if !scan.records.is_empty() {
                let (checkpoint, tail) = scan.recovery_plan();
                eprintln!(
                    "rdbsc-partitiond: recovered region {} from {} ({} record(s) replayed, checkpoint {})",
                    accepted.region_index,
                    dir.display(),
                    tail.len(),
                    if checkpoint.is_some() { "loaded" } else { "none" },
                );
            }
            persist_configure(dir, &accepted.fingerprint)?;
            part
        }
        None => EnginePartition::new(AssignmentEngine::new(index(), accepted.engine)),
    };
    *slot = Some(Configured {
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

/// The Prometheus body of a daemon's `/metrics?format=prom`: the metric
/// registry, the daemon's state gauges, and (when configured) the engine
/// snapshot with its WAL totals.
fn daemon_prom(state: &DaemonState, draining: bool) -> String {
    let mut w = rdbsc_obs::PromWriter::new();
    state.metrics.render_prom_into(&mut w);
    w.gauge(
        "protocol_version",
        "The partition protocol version this daemon speaks",
        PROTOCOL_VERSION as f64,
    );
    w.gauge("draining", "Is the daemon refusing mutating commands?", draining as u64 as f64);
    w.gauge(
        "durable",
        "Is the daemon running a write-ahead log?",
        state.data_dir.is_some() as u64 as f64,
    );
    // Replication gauges come from repl_status_dto, which takes the engine
    // lock itself — render them before this function takes the same lock.
    let repl = repl_status_dto(state);
    w.gauge(
        "repl_standby",
        "Is this daemon an unpromoted replication standby?",
        repl.role.eq("standby") as u64 as f64,
    );
    w.gauge(
        "repl_sealed",
        "Was the incoming replication stream sealed by a promotion?",
        repl.sealed as u64 as f64,
    );
    w.gauge(
        "repl_lag",
        "Replication lag in records (unacked on a primary, unapplied on a standby)",
        repl.lag as f64,
    );
    w.gauge(
        "repl_next_lsn",
        "The replication stream head (next lsn to publish or fetch)",
        repl.next_lsn as f64,
    );
    w.gauge(
        "repl_acked_lsn",
        "The acknowledgement watermark bounding primary-side retention",
        repl.acked as f64,
    );
    w.gauge(
        "repl_applied_lsn",
        "Shipped records this standby has applied (next lsn it will fetch)",
        repl.applied as f64,
    );
    w.gauge(
        "repl_stream_resets",
        "Times the primary's retention cap forced a stream reset",
        repl.resets as f64,
    );
    match state.slot().as_ref() {
        Some(configured) => {
            w.gauge("configured", "Has a configure taken effect?", 1.0);
            w.gauge(
                "region_index",
                "The region this daemon serves",
                configured.region_index as f64,
            );
            crate::metrics::snapshot_to_prom(&mut w, &configured.part.snapshot());
        }
        None => w.gauge("configured", "Has a configure taken effect?", 0.0),
    }
    w.into_string()
}

fn route(
    request: &Request,
    state: &DaemonState,
    shutdown: &ShutdownHandle,
) -> Result<Response, ServerError> {
    let draining = state.is_draining(shutdown);
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => Ok(Response::json(
            200,
            Json::obj([
                ("status", Json::Str("ok".into())),
                ("draining", Json::Bool(draining)),
            ])
            .to_string_compact(),
        )),

        (Method::Get, "/metrics") => {
            if crate::http::query_param(&request.query, "format") == Some("prom") {
                return Ok(Response::prom_text(daemon_prom(state, draining)));
            }
            let mut body = state.metrics.to_json();
            if let Json::Obj(map) = &mut body {
                map.insert(
                    "protocol_version".to_string(),
                    Json::Num(PROTOCOL_VERSION as f64),
                );
                map.insert("draining".to_string(), Json::Bool(draining));
                map.insert("durable".to_string(), Json::Bool(state.data_dir.is_some()));
                map.insert("repl".to_string(), repl_status_dto(state).to_json());
                match state.slot().as_ref() {
                    Some(configured) => {
                        map.insert("configured".to_string(), Json::Bool(true));
                        map.insert(
                            "region_index".to_string(),
                            Json::Num(configured.region_index as f64),
                        );
                        map.insert(
                            "engine".to_string(),
                            SnapshotDto::from_snapshot(&configured.part.snapshot()).to_json(),
                        );
                    }
                    None => {
                        map.insert("configured".to_string(), Json::Bool(false));
                    }
                }
            }
            Ok(Response::json(200, body.to_string_compact()))
        }

        (Method::Get, "/debug/slow-ticks") => Ok(Response::json(
            200,
            state.metrics.slow_ticks_json().to_string_compact(),
        )),

        (Method::Post, "/debug/slow-tick-ms") => {
            let body = parse_body(request)?;
            let rid = request_id(&body)?;
            let threshold_us = slow_tick_threshold_us(&body)?;
            state.metrics.slow_ticks.set_threshold_us(threshold_us);
            Ok(reply(
                rid,
                [(
                    "threshold_us",
                    if threshold_us == u64::MAX {
                        Json::Num(-1.0)
                    } else {
                        Json::Num(threshold_us as f64)
                    },
                )],
            ))
        }

        (Method::Get, "/debug/spans") => {
            let trace = match crate::http::query_param(&request.query, "trace") {
                Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| {
                    ServerError::BadField {
                        field: "trace",
                        expected: "a hex trace id",
                    }
                })?,
                None => state.last_trace.load(Ordering::Acquire),
            };
            let body = Json::obj([
                ("trace", Json::Str(crate::protocol::trace_to_hex(trace))),
                (
                    "spans",
                    crate::metrics::spans_to_json(&rdbsc_obs::collect_spans(trace)),
                ),
            ]);
            Ok(Response::json(200, body.to_string_compact()))
        }

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

        (_, path) => Err(ServerError::NotFound(path.to_string())),
    }
}

/// The refusal table — the one place that says which commands a draining
/// daemon (first element → `503`) and an unpromoted standby (second → `409`)
/// turn away. The mutating client commands (configure among them) are
/// refused by both; a promote only by a drain (a drain is terminal); serving
/// as a replication *source* only by a standby (its state is owned by its
/// primary). Reads, probes, the hello and the lifecycle commands always
/// run, so a drain and the failover choreography stay observable.
fn refused_while(request: &RequestFrame) -> (bool, bool) {
    match request {
        RequestFrame::Command { .. } | RequestFrame::Configure { .. } => (true, true),
        RequestFrame::ReplPromote { .. } => (true, false),
        RequestFrame::ReplBootstrap { .. } | RequestFrame::ReplFetch { .. } => (false, true),
        RequestFrame::Assignments { .. }
        | RequestFrame::Snapshot { .. }
        | RequestFrame::IsActive { .. }
        | RequestFrame::HasWorker { .. }
        | RequestFrame::Drain { .. }
        | RequestFrame::Shutdown { .. }
        | RequestFrame::ReplStatus { .. }
        | RequestFrame::Hello { .. } => (false, false),
    }
}

/// The frame handler: the row of the refusal table — `503` while draining,
/// a parseable refusal rather than a dropped connection, then `409` while
/// this daemon is an unpromoted standby — and then the command, with
/// failures reported in-band as [`ReplyFrame::Error`] carrying an
/// HTTP-style status (unconfigured 409s and bad payloads 400s too).
fn route_frame(request: RequestFrame, state: &DaemonState, shutdown: &ShutdownHandle) -> ReplyFrame {
    let request_id = request.request_id();
    let (while_draining, while_standby) = refused_while(&request);
    let result = if while_draining && state.is_draining(shutdown) {
        Err(ServerError::ShuttingDown)
    } else if while_standby && state.standby.load(Ordering::Acquire) {
        Err(ServerError::Conflict(
            "standby: refusing mutating commands until promoted".into(),
        ))
    } else {
        execute_frame(request, state, shutdown)
    };
    result.unwrap_or_else(|e| ReplyFrame::Error {
        request_id,
        status: e.status(),
        detail: e.to_string(),
    })
}

/// Executes one partition command — the daemon's only dispatcher.
fn execute_frame(
    request: RequestFrame,
    state: &DaemonState,
    shutdown: &ShutdownHandle,
) -> Result<ReplyFrame, ServerError> {
    match request {
        RequestFrame::Command {
            request_id,
            trace,
            command,
        } => {
            let started = Instant::now();
            let outcome = state.with_configured(|c| c.part.apply(trace, command))?;
            if let CommandOutcome::Ticked(tick) = &outcome {
                let elapsed = started.elapsed();
                if trace != 0 {
                    state.last_trace.store(trace, Ordering::Release);
                }
                state.metrics.tick_latency.record(elapsed);
                state.metrics.observe_tick(
                    trace,
                    tick.report.now,
                    elapsed.as_micros().min(u64::MAX as u128) as u64,
                    &tick.report.stages,
                );
            }
            Ok(ReplyFrame::Applied {
                request_id,
                outcome,
            })
        }

        RequestFrame::Assignments { request_id } => {
            let assignments = state.with_configured(|c| c.part.assignments())?;
            Ok(ReplyFrame::AssignmentsOk {
                request_id,
                assignments,
            })
        }

        RequestFrame::Snapshot { request_id } => {
            let snapshot = state.with_configured(|c| c.part.snapshot())?;
            Ok(ReplyFrame::SnapshotOk {
                request_id,
                snapshot: Box::new(snapshot),
            })
        }

        RequestFrame::IsActive { request_id } => {
            let active = state.with_configured(|c| c.part.is_active())?;
            Ok(ReplyFrame::ActiveOk { request_id, active })
        }

        RequestFrame::HasWorker { request_id, worker } => {
            let present = state.with_configured(|c| c.part.has_worker(worker))?;
            Ok(ReplyFrame::HasWorkerOk {
                request_id,
                present,
            })
        }

        RequestFrame::Drain { request_id } => {
            state.draining.store(true, Ordering::Release);
            Ok(ReplyFrame::DrainOk { request_id })
        }

        RequestFrame::Shutdown { request_id } => {
            state.draining.store(true, Ordering::Release);
            shutdown.trigger();
            Ok(ReplyFrame::ShutdownOk { request_id })
        }

        RequestFrame::ReplBootstrap { request_id } => repl_bootstrap(state, request_id),

        RequestFrame::ReplFetch {
            request_id,
            from,
            ack,
            max,
        } => repl_fetch_command(state, request_id, from, ack, max),

        RequestFrame::ReplStatus { request_id } => Ok(ReplyFrame::ReplStatusOk {
            request_id,
            status: repl_status_dto(state),
        }),

        RequestFrame::ReplPromote { request_id } => repl_promote_command(state, request_id),

        RequestFrame::Hello { request_id } => Ok(ReplyFrame::HelloOk {
            request_id,
            hello: Hello {
                protocol_version: PROTOCOL_VERSION,
                region_index: state.slot().as_ref().map(|c| c.region_index),
                draining: state.is_draining(shutdown),
                standby: state.standby.load(Ordering::Acquire),
            },
        }),

        RequestFrame::Configure {
            request_id,
            configure: text,
        } => Ok(ReplyFrame::ConfigureOk {
            request_id,
            already_configured: configure(state, &text)?,
        }),
    }
}

// ---------------------------------------------------------------------------
// Replication: primary-side command handlers and the standby's follower
// thread. Shipped commands travel as the opaque bytes `encode_command`
// produced — the bytes of their log records — and `decode_command` is the
// only way back, so the follower applies byte-for-byte what the primary
// logged and nothing but a command can arrive.

/// How long an idle follower waits between fetches.
const FOLLOW_IDLE: Duration = Duration::from_millis(20);
/// How long the follower backs off after a failed bootstrap or fetch (an
/// unreachable primary is *normal* — it may be dead, and promotion or
/// shutdown, not the follower, decides what happens next).
const FOLLOW_RETRY: Duration = Duration::from_millis(100);
/// Commands pulled per fetch.
const FOLLOW_BATCH: u32 = 512;
/// How long after a served fetch the primary still considers its follower
/// alive, refusing a competing bootstrap. Comfortably above `FOLLOW_IDLE`
/// and `FOLLOW_RETRY` (the live follower keeps the window fresh), small
/// enough that a genuinely dead follower frees the slot promptly. A fetch
/// that hits a retention gap clears the window immediately — that follower
/// is about to re-bootstrap itself and must not be locked out.
const FOLLOWER_LIVENESS: Duration = Duration::from_secs(2);

/// Serves a follower's bootstrap: enables replication (idempotent — a
/// re-bootstrap rebases the stream to its head), ships the full state as
/// one encoded checkpoint record plus the accepted configure payload, so
/// the standby's fingerprint matches a router's re-push byte for byte at
/// promotion time. Refused with `409` while another follower
/// is actively fetching — the single-standby topology is enforced here at
/// the wire layer, because a bootstrap rebases the stream and would drop
/// the retained tail the live follower needs.
fn repl_bootstrap(state: &DaemonState, request_id: u64) -> Result<ReplyFrame, ServerError> {
    let mut seen = state.fetch_seen();
    if let Some(at) = *seen {
        if at.elapsed() < FOLLOWER_LIVENESS {
            return Err(ServerError::Conflict(
                "another follower is streaming from this primary \
                 (single-standby topology); retry after it stops"
                    .into(),
            ));
        }
    }
    // The slot is free (or stale): this bootstrap claims the stream.
    *seen = None;
    drop(seen);
    state.with_configured(|configured| {
        let (pstate, start_lsn) = configured.part.enable_replication();
        ReplyFrame::ReplBootstrapOk {
            request_id,
            start_lsn,
            state: encode_record(&WalRecord::Checkpoint(pstate)),
            configure: configured.fingerprint.clone(),
        }
    })
}

/// Serves one follower pull: advances the acknowledgement watermark
/// (bounding retention), then returns commands from `from`. A watermark
/// that actually moved is noted in the primary's own log so `wal_dump`
/// shows how far the standby got. A gap (the follower fell off the
/// retained window) answers `409` — the follower re-bootstraps.
fn repl_fetch_command(
    state: &DaemonState,
    request_id: u64,
    from: u64,
    ack: u64,
    max: u32,
) -> Result<ReplyFrame, ServerError> {
    state.with_configured(|configured| {
        let part = &mut configured.part;
        let before = part.repl_status().map_or(0, |s| s.acked);
        let records = match part.repl_fetch(from, ack, max as usize) {
            Ok(records) => {
                // A served fetch marks the follower alive, holding the stream
                // against a competing bootstrap (see `repl_bootstrap`).
                *state.fetch_seen() = Some(Instant::now());
                records
            }
            Err(e) => {
                // A gap (or a disabled stream) sends this follower back to
                // bootstrap — release the liveness window so its own
                // re-bootstrap is not refused as a second follower.
                *state.fetch_seen() = None;
                return Err(ServerError::Conflict(format!("replication fetch: {e}")));
            }
        };
        let status = part
            .repl_status()
            .expect("repl_fetch succeeded, so replication is enabled");
        if status.acked > before {
            part.note_repl_watermark(status.acked);
        }
        Ok(ReplyFrame::ReplFetchOk {
            request_id,
            next_lsn: status.next_lsn,
            records: records
                .into_iter()
                .map(|(lsn, command)| (lsn, encode_command(&command)))
                .collect(),
        })
    })?
}

/// The daemon's replication status from whichever side it is on: a
/// primary reports the stream counters (lag = published − acked), a
/// standby its applied cursor (lag = head − applied), a *promoted* daemon
/// `sealed` with zero lag — the shape the CI failover smoke greps for.
/// A promoted daemon that later serves a follower of its own is a primary
/// again: its live stream counters take precedence over the sealed
/// short-circuit (only `sealed` itself stays latched), so its real
/// acked/retained/resets reach `/metrics`.
fn repl_status_dto(state: &DaemonState) -> ReplStatusDto {
    let standby = state.standby.load(Ordering::Acquire);
    let sealed = state.repl_sealed.load(Ordering::Acquire);
    if standby {
        let applied = state.repl_applied.load(Ordering::Acquire);
        let head = state.repl_head.load(Ordering::Acquire).max(applied);
        return ReplStatusDto {
            role: "standby".to_string(),
            next_lsn: head,
            acked: applied,
            retained: 0,
            resets: 0,
            applied,
            lag: head - applied,
            sealed,
        };
    }
    match state.slot().as_ref().and_then(|c| c.part.repl_status()) {
        Some(s) => ReplStatusDto {
            role: "primary".to_string(),
            next_lsn: s.next_lsn,
            acked: s.acked,
            retained: s.retained,
            resets: s.resets,
            applied: 0,
            lag: s.next_lsn.saturating_sub(s.acked),
            sealed,
        },
        None if sealed => {
            // Promoted, not (yet) serving a follower: report the sealed
            // cursor with zero lag — nothing is streaming.
            let applied = state.repl_applied.load(Ordering::Acquire);
            ReplStatusDto {
                role: "primary".to_string(),
                next_lsn: state.repl_head.load(Ordering::Acquire).max(applied),
                acked: applied,
                retained: 0,
                resets: 0,
                applied,
                lag: 0,
                sealed: true,
            }
        }
        None => ReplStatusDto {
            role: "none".to_string(),
            next_lsn: 0,
            acked: 0,
            retained: 0,
            resets: 0,
            applied: 0,
            lag: 0,
            sealed: false,
        },
    }
}

/// Promotes this standby to primary. Setting the stop flag first and then
/// taking the engine lock IS the "wait for replay to finish": the
/// follower applies batches under the same lock, so once we hold it the
/// last in-flight batch has fully applied and no later one will (the
/// follower discards a batch that lost this race — nothing in it was
/// acknowledged). The stream is then sealed (`ReplMeta{sealed}` +
/// checkpoint + fsync, a fresh log epoch) and the standby flag cleared so
/// the daemon starts accepting commands. The returned digest is what the
/// router compares against the dead primary's acknowledged state.
fn repl_promote_command(state: &DaemonState, request_id: u64) -> Result<ReplyFrame, ServerError> {
    if !state.standby.load(Ordering::Acquire) {
        return Err(ServerError::Conflict(
            "not a standby — nothing to promote".into(),
        ));
    }
    state.repl_stop.store(true, Ordering::Release);
    let (digest, applied) = state.with_configured(|configured| {
        let applied = state.repl_applied.load(Ordering::Acquire);
        let digest = configured.part.seal_replication(applied);
        state.repl_sealed.store(true, Ordering::Release);
        state.standby.store(false, Ordering::Release);
        (digest, applied)
    })?;
    eprintln!("rdbsc-partitiond: promoted to primary at stream lsn {applied} (digest {digest:016x})");
    Ok(ReplyFrame::ReplPromoteOk {
        request_id,
        digest,
        applied,
    })
}

fn follower_stopped(state: &DaemonState) -> bool {
    state.repl_stop.load(Ordering::Acquire) || state.draining.load(Ordering::Acquire)
}

/// The standby's follower loop: bootstrap, then pull-and-apply until
/// stopped by a promote or a shutdown. Every failure re-bootstraps — the
/// primary rebases the stream on each bootstrap, so that is always safe.
fn run_follower(state: &Arc<DaemonState>, primary: &str) {
    let mut rid = 0u64;
    let mut last_error = String::new();
    loop {
        if follower_stopped(state) {
            return;
        }
        match follow_once(state, primary, &mut rid) {
            Ok(()) => return,
            Err(e) => {
                // Only narrate *changes*: an unconfigured primary answers
                // the same refusal every retry and would spam stderr.
                if e != last_error {
                    eprintln!("rdbsc-partitiond follower: {e}; retrying");
                    last_error = e;
                }
                std::thread::sleep(FOLLOW_RETRY);
            }
        }
    }
}

/// One bootstrap + fetch/apply session against the primary. `Ok(())`
/// means the follower should exit (promote or shutdown); `Err` describes
/// why the session ended and triggers a re-bootstrap.
fn follow_once(state: &Arc<DaemonState>, primary: &str, rid: &mut u64) -> Result<(), String> {
    let addr = primary
        .to_socket_addrs()
        .map_err(|e| format!("resolving {primary}: {e}"))?
        .next()
        .ok_or_else(|| format!("{primary} resolves to no address"))?;
    let mut conn = FrameConn::new(addr, Duration::from_secs(5));
    *rid += 1;
    let (start_lsn, boot_state, configure_text) =
        match conn.exchange(&RequestFrame::ReplBootstrap { request_id: *rid }) {
            Ok(ReplyFrame::ReplBootstrapOk {
                start_lsn,
                state,
                configure,
                ..
            }) => (start_lsn, state, configure),
            Ok(ReplyFrame::Error { status, detail, .. }) => {
                return Err(format!("bootstrap answered {status}: {detail}"));
            }
            Ok(other) => {
                return Err(format!(
                    "bootstrap reply: unexpected reply tag {:#04x}",
                    other.tag()
                ));
            }
            Err(e) => return Err(format!("bootstrap: {e}")),
        };
    let record = decode_record(&boot_state).map_err(|e| format!("bootstrap state: {e}"))?;
    let WalRecord::Checkpoint(pstate) = record else {
        return Err("bootstrap state is not a checkpoint record".to_string());
    };
    install_bootstrap(state, &configure_text, &pstate, start_lsn)?;
    eprintln!("rdbsc-partitiond: standby bootstrapped from {primary} at stream lsn {start_lsn}");
    loop {
        if follower_stopped(state) {
            return Ok(());
        }
        let from = state.repl_applied.load(Ordering::Acquire);
        *rid += 1;
        let fetch = RequestFrame::ReplFetch {
            request_id: *rid,
            from,
            ack: from,
            max: FOLLOW_BATCH,
        };
        let (next_lsn, records) = match conn.exchange(&fetch) {
            Ok(ReplyFrame::ReplFetchOk {
                next_lsn, records, ..
            }) => (next_lsn, records),
            Ok(ReplyFrame::Error {
                status: 409,
                detail,
                ..
            }) => return Err(format!("stream restarted on the primary: {detail}")),
            Ok(ReplyFrame::Error { .. }) | Err(crate::frame::FrameError::Io(_)) => {
                // The primary may simply be dead (or draining its last
                // replies). Stay bootstrapped and keep knocking —
                // promotion or shutdown ends the wait.
                std::thread::sleep(FOLLOW_RETRY);
                continue;
            }
            Ok(other) => {
                return Err(format!(
                    "fetch reply: unexpected reply tag {:#04x}",
                    other.tag()
                ));
            }
            Err(e) => return Err(format!("fetch reply: {e}")),
        };
        state.repl_head.store(next_lsn.max(from), Ordering::Release);
        if records.is_empty() {
            std::thread::sleep(FOLLOW_IDLE);
            continue;
        }
        apply_batch(state, &records)?;
    }
}

/// Installs a shipped bootstrap state as this daemon's engine. A durable
/// standby wipes its data directory first — the shipped checkpoint opens
/// a fresh log epoch and whatever the directory held belonged to an older
/// stream (re-seeding a *former primary's* log automatically is the known
/// gap; see ROADMAP). The fingerprint kept (and persisted) is the canonical
/// re-encoding of the shipped configure text — what `configure` stores —
/// so the idempotency check matches a router's re-push even when the
/// primary's text carries a field this build no longer writes.
///
/// The wipe, the restore and the engine swap all happen under the engine
/// lock, with the stop flag re-checked once the lock is held: a promote
/// sets `repl_stop` *before* taking this lock, so observing the flag here
/// means the current engine was (or is being) promoted and this bootstrap
/// lost the race. Installing anyway would wipe the new primary's fresh
/// log epoch and replace its acknowledged state with the snapshot —
/// mirror `apply_batch` and discard the bootstrap instead.
fn install_bootstrap(
    state: &DaemonState,
    configure_text: &str,
    pstate: &PartitionState,
    start_lsn: u64,
) -> Result<(), String> {
    let accepted =
        accept_configure(configure_text).map_err(|e| format!("configure fingerprint: {e}"))?;
    let index = accepted.index();
    let mut slot = state.slot();
    if state.repl_stop.load(Ordering::Acquire) {
        return Err("promotion raced this bootstrap; install discarded".to_string());
    }
    let part = match &state.data_dir {
        Some(dir) => {
            if dir.exists() {
                std::fs::remove_dir_all(dir)
                    .map_err(|e| format!("wiping {}: {e}", dir.display()))?;
            }
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let part =
                EnginePartition::restore_durable(dir, accepted.wal, accepted.engine, pstate, index)
                    .map_err(|e| format!("restoring in {}: {e}", dir.display()))?;
            persist_configure(dir, &accepted.fingerprint).map_err(|e| e.to_string())?;
            part
        }
        None => EnginePartition::from_state(pstate, accepted.engine, index),
    };
    *slot = Some(Configured {
        part,
        region_index: accepted.region_index,
        fingerprint: accepted.fingerprint,
    });
    // The cursors move with the swap, still under the lock, so a promote
    // waiting on it seals the freshly installed engine at a matching lsn.
    state.repl_applied.store(start_lsn, Ordering::Release);
    state.repl_head.store(start_lsn, Ordering::Release);
    Ok(())
}

/// Applies one fetched batch under the engine lock through the ordinary
/// command path (log-then-apply — a durable standby's own log stays a
/// valid recovery source at every point). The whole batch is decoded before
/// any of it is applied, and the stream carries commands only: bytes that
/// are not a command (a checkpoint, a replication note, garbage) fail the
/// batch with the cursor where it was, so the standby never acknowledges an
/// lsn it applied nothing for — it re-bootstraps instead. Shipped lsns must
/// be dense from the applied cursor; a skip means the stream and cursor
/// disagree and the only safe move is, again, a re-bootstrap. A batch that
/// lost a race with a promotion (the stop flag is set by the time the lock
/// is held) is discarded whole: nothing in it was acknowledged, and a
/// sealed stream must not grow.
fn apply_batch(state: &DaemonState, records: &[(u64, Vec<u8>)]) -> Result<(), String> {
    state
        .with_configured(|configured| {
            if state.repl_stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let applied = state.repl_applied.load(Ordering::Acquire);
            let mut commands = Vec::with_capacity(records.len());
            for (expected, (lsn, bytes)) in (applied..).zip(records) {
                if *lsn != expected {
                    return Err(format!("stream skipped from {expected} to {lsn}"));
                }
                commands.push(
                    decode_command(bytes).map_err(|e| format!("shipped command {lsn}: {e}"))?,
                );
            }
            for command in commands {
                configured.part.apply(0, command);
                state.repl_applied.fetch_add(1, Ordering::AcqRel);
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EngineConfigDto, RoutingTableDto};
    use rdbsc_cluster::RegionPartition;
    use rdbsc_index::geometry::GridGeometry;
    use rdbsc_platform::{EngineConfig, PartitionCommand};

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

    /// The stream ships commands. A fetch reply that carries anything else
    /// — here a checkpoint record, hand-encoded where a command belongs —
    /// used to be decoded as a `WalRecord`, dropped by the replay dispatch,
    /// and *acknowledged*: the cursor moved past an lsn that applied
    /// nothing. It must fail the batch whole instead.
    #[test]
    fn a_shipped_record_that_is_not_a_command_fails_the_batch_and_moves_nothing() {
        let partition = unit_partition();
        let engine_config = EngineConfig::default();
        let state = standby_state(None);
        let primary = EnginePartition::new(AssignmentEngine::new(
            FlatGridIndex::new(partition.region_rect(0), 0.1),
            engine_config.clone(),
        ));
        let text = configure_text(&partition, &engine_config).to_string_compact();
        install_bootstrap(&state, &text, &primary.dump_state(), 40).unwrap();
        let digest =
            |state: &DaemonState| state.with_configured(|c| c.part.state_digest()).unwrap();
        let before = digest(&state);

        let tick = |now| encode_command(&PartitionCommand::Tick { now });
        let checkpoint = encode_record(&WalRecord::Checkpoint(primary.dump_state()));
        let reply = ReplyFrame::ReplFetchOk {
            request_id: 1,
            next_lsn: 43,
            records: vec![(40, tick(0.5)), (41, checkpoint), (42, tick(1.0))],
        };
        // The transport carries the bytes as they are...
        let mut wire = Vec::new();
        reply.write_to(&mut wire).unwrap();
        let raw = crate::frame::read_raw(&mut &wire[..], 1 << 20).unwrap().unwrap();
        let ReplyFrame::ReplFetchOk { records, .. } = ReplyFrame::decode(&raw).unwrap() else {
            panic!("a fetch reply decodes as one");
        };
        // ... and the follower refuses the batch: not even the good command
        // ahead of the checkpoint is applied, and the cursor stays.
        let refusal = apply_batch(&state, &records).unwrap_err();
        assert!(refusal.contains("shipped command 41"), "{refusal}");
        assert_eq!(state.repl_applied.load(Ordering::Acquire), 40);
        assert_eq!(digest(&state), before);

        // The same batch without the stray record applies and acknowledges.
        apply_batch(&state, &[(40, tick(0.5)), (41, tick(1.0))]).unwrap();
        assert_eq!(state.repl_applied.load(Ordering::Acquire), 42);
        assert_ne!(digest(&state), before);
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
        install_bootstrap(&state, &shipped, &primary.dump_state(), 0).unwrap();

        let installed = state.engine.lock().unwrap();
        assert_eq!(installed.as_ref().unwrap().fingerprint, canonical);
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
            let refusal = install_bootstrap(&state, &text, &primary.dump_state(), 0).unwrap_err();
            assert!(refusal.contains("cell_size"), "{cell_size}: {refusal}");
            assert!(state.slot().is_none(), "{cell_size}: nothing installed");
            let pushed = configure(&daemon_state(), &text).unwrap_err();
            assert!(pushed.to_string().contains("cell_size"), "{cell_size}: {pushed}");
        }
    }
}
