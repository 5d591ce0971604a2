//! Serving metrics and the ops routes both tiers serve.
//!
//! This module is the one place that names a `/metrics` value. A [`Scrape`]
//! takes each value once — its JSON key path, its Prometheus name and help,
//! its reading — and renders the body the request asked for: the JSON
//! object of `GET /metrics` or the Prometheus text exposition of
//! `GET /metrics?format=prom`. Four writers fill it, all of them here:
//! [`ServerMetrics`] (the listener, batching and tick instruments every
//! tier keeps), the engine snapshot's field table ([`Scrape::snapshot`],
//! which `SnapshotDto::to_json` renders through too), the router's values
//! and the daemon's.
//!
//! [`serve_ops`] is the one handler of the routes both tiers serve alike:
//! `/metrics`, `/debug/slow-ticks`, `/debug/slow-tick-ms` and
//! `/debug/spans`. A tier hands it its own scrape values and its last trace
//! id; `/healthz`, `/admin/shutdown` and the drain policy stay per tier.

use crate::dto::{SnapshotDto, WalStatsDto};
use crate::error::ServerError;
use crate::http::{query_param, Method, Request, Response};
use crate::json::{parse, Json};
use crate::protocol::{request_id, slow_tick_threshold_us, trace_to_hex};
use rdbsc_obs::{Counter, LatencyHistogram, PromWriter, SlowTickBuffer, StageSet, StageTimings};
use rdbsc_platform::repl::{ReplRole, ReplStatus};
use rdbsc_platform::{
    merge_snapshots, EngineHandle, EngineSnapshot, ProtocolStats, PROTOCOL_VERSION,
};
use std::collections::BTreeMap;

/// How a scalar is exposed: a Prometheus counter or gauge, or a flag (a
/// JSON boolean and a 0/1 gauge).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Flag,
}

/// One `/metrics` body being written (see the [module docs](self)). A JSON
/// path joins object keys with `.`; an empty path leaves a value out of the
/// JSON body and an empty name leaves it out of the Prometheus one.
#[derive(Debug)]
pub struct Scrape {
    /// The JSON object; stays empty when rendering Prometheus.
    json: BTreeMap<String, Json>,
    /// The Prometheus rendering, when that is the format asked for.
    prom: Option<PromWriter>,
}

impl Scrape {
    /// An empty scrape rendering Prometheus text when `prom`, JSON otherwise.
    pub fn new(prom: bool) -> Self {
        Self {
            json: BTreeMap::new(),
            prom: prom.then(PromWriter::new),
        }
    }

    /// The response carrying the rendered body.
    pub fn into_response(self) -> Response {
        match self.prom {
            Some(writer) => Response::prom_text(writer.into_string()),
            None => Response::json(200, Json::Obj(self.json).to_string_compact()),
        }
    }

    /// The JSON object written so far (empty for a Prometheus scrape).
    pub fn into_json(self) -> Json {
        Json::Obj(self.json)
    }

    /// A monotone count.
    pub fn counter(&mut self, path: &str, name: &str, help: &str, value: u64) {
        self.scalar(Kind::Counter, path, name, help, value as f64);
    }

    /// A value that moves both ways.
    pub fn gauge(&mut self, path: &str, name: &str, help: &str, value: f64) {
        self.scalar(Kind::Gauge, path, name, help, value);
    }

    /// A yes/no state.
    pub fn flag(&mut self, path: &str, name: &str, help: &str, value: bool) {
        self.scalar(Kind::Flag, path, name, help, f64::from(u8::from(value)));
    }

    /// A latency histogram: its summary (count, mean, p50/p90/p99, max) in
    /// JSON, its buckets in Prometheus.
    pub fn histogram(&mut self, path: &str, name: &str, help: &str, h: &LatencyHistogram) {
        match &mut self.prom {
            Some(writer) => writer.histogram(name, help, h),
            None => self.insert(path, latency_to_json(h)),
        }
    }

    /// A JSON-only value.
    pub fn json(&mut self, path: &str, value: Json) {
        if self.prom.is_none() {
            self.insert(path, value);
        }
    }

    /// A JSON-only array of per-record objects; `records` is only walked
    /// when the body is JSON.
    pub fn records(&mut self, path: &str, records: impl Iterator<Item = Json>) {
        if self.prom.is_none() {
            self.insert(path, Json::Arr(records.collect()));
        }
    }

    /// Every scalar of an engine snapshot under `path`, its WAL counters
    /// under `path.wal` when it runs durably.
    pub fn snapshot(&mut self, path: &str, s: &SnapshotDto) {
        for (key, name, kind, help, read) in ENGINE_FIELDS {
            self.scalar(kind, &join(path, key), name, help, read(s));
        }
        if let Some(wal) = &s.wal {
            let path = join(path, "wal");
            for (key, name, kind, help, read) in WAL_FIELDS {
                self.scalar(kind, &join(&path, key), name, help, read(wal));
            }
        }
    }

    fn scalar(&mut self, kind: Kind, path: &str, name: &str, help: &str, value: f64) {
        match &mut self.prom {
            Some(writer) if !name.is_empty() => {
                let kind = if matches!(kind, Kind::Counter) {
                    "counter"
                } else {
                    "gauge"
                };
                writer.header(name, kind, help);
                writer.sample(name, &[], value);
            }
            None if !path.is_empty() => {
                let value = if matches!(kind, Kind::Flag) {
                    Json::Bool(value != 0.0)
                } else {
                    Json::Num(value)
                };
                self.insert(path, value);
            }
            _ => {}
        }
    }

    /// Files `value` at the dotted `path`, creating the objects above it.
    fn insert(&mut self, path: &str, value: Json) {
        let mut keys = path.split('.');
        let leaf = keys.next_back().expect("a split yields at least one piece");
        let mut map = &mut self.json;
        for key in keys {
            map = match map
                .entry(key.to_string())
                .or_insert_with(|| Json::Obj(BTreeMap::new()))
            {
                Json::Obj(inner) => inner,
                _ => unreachable!("a scrape path descends through objects only"),
            };
        }
        map.insert(leaf.to_string(), value);
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// One scalar of a snapshot table: JSON key, Prometheus name, kind, help
/// and its reading.
type Field<T> = (
    &'static str,
    &'static str,
    Kind,
    &'static str,
    fn(&T) -> f64,
);

/// The engine snapshot's scalars: the one table behind `/snapshot`,
/// `/debug/snapshot` and the `engine` and `partitions[]` parts of `/metrics`.
const ENGINE_FIELDS: [Field<SnapshotDto>; 15] = [
    (
        "now",
        "engine_now",
        Kind::Gauge,
        "Simulation time of the latest tick",
        |s| s.now,
    ),
    (
        "ticks",
        "engine_ticks_total",
        Kind::Counter,
        "Engine ticks run",
        |s| s.ticks,
    ),
    (
        "events_applied",
        "engine_events_applied_total",
        Kind::Counter,
        "Events applied by ticks",
        |s| s.events_applied,
    ),
    (
        "pending_events",
        "engine_pending_events",
        Kind::Gauge,
        "Events submitted but not yet ticked",
        |s| s.pending_events,
    ),
    (
        "live_tasks",
        "engine_live_tasks",
        Kind::Gauge,
        "Live tasks",
        |s| s.live_tasks,
    ),
    (
        "live_workers",
        "engine_live_workers",
        Kind::Gauge,
        "Live workers",
        |s| s.live_workers,
    ),
    (
        "committed_workers",
        "engine_committed_workers",
        Kind::Gauge,
        "Workers en route under the standing assignment",
        |s| s.committed_workers,
    ),
    (
        "banked_answers",
        "engine_banked_answers_total",
        Kind::Counter,
        "Answers banked, over live and retired tasks",
        |s| s.banked_answers,
    ),
    (
        "total_assignments",
        "engine_assignments_total",
        Kind::Counter,
        "Assignments committed across the engine's lifetime",
        |s| s.total_assignments,
    ),
    (
        "min_reliability",
        "engine_min_reliability",
        Kind::Gauge,
        "Minimum reliability over the covered tasks",
        |s| s.min_reliability,
    ),
    (
        "total_std",
        "engine_total_std",
        Kind::Gauge,
        "Total expected spatial/temporal diversity of the standing assignment",
        |s| s.total_std,
    ),
    (
        "covered_tasks",
        "engine_covered_tasks",
        Kind::Gauge,
        "Tasks with at least one contribution",
        |s| s.covered_tasks,
    ),
    (
        "index_relocations",
        "engine_index_relocations_total",
        Kind::Counter,
        "Cross-cell relocations applied by the index",
        |s| s.index_relocations,
    ),
    (
        "index_cells_repaired",
        "engine_index_cells_repaired_total",
        Kind::Counter,
        "Index cells whose cached reachability was repaired",
        |s| s.index_cells_repaired,
    ),
    (
        "index_tcell_rebuilds",
        "engine_index_tcell_rebuilds_total",
        Kind::Counter,
        "Full reachability-list rebuilds by the index",
        |s| s.index_tcell_rebuilds,
    ),
];

/// The write-ahead log's scalars, nested under a durable snapshot's `wal`.
const WAL_FIELDS: [Field<WalStatsDto>; 9] = [
    (
        "segments",
        "wal_segments",
        Kind::Gauge,
        "Live WAL segment files",
        |w| w.segments,
    ),
    (
        "segments_retired",
        "wal_segments_retired_total",
        Kind::Counter,
        "WAL segments retired by checkpoints",
        |w| w.segments_retired,
    ),
    (
        "bytes_appended",
        "wal_bytes_appended_total",
        Kind::Counter,
        "WAL bytes appended",
        |w| w.bytes_appended,
    ),
    (
        "records_appended",
        "wal_records_appended_total",
        Kind::Counter,
        "WAL records appended",
        |w| w.records_appended,
    ),
    (
        "fsyncs",
        "wal_fsyncs_total",
        Kind::Counter,
        "WAL fsyncs issued",
        |w| w.fsyncs,
    ),
    (
        "checkpoints",
        "wal_checkpoints_total",
        Kind::Counter,
        "WAL checkpoints written",
        |w| w.checkpoints,
    ),
    (
        "last_checkpoint_tick",
        "wal_last_checkpoint_tick",
        Kind::Gauge,
        "Engine tick of the latest checkpoint",
        |w| w.last_checkpoint_tick,
    ),
    (
        "recovered_records",
        "wal_recovered_records",
        Kind::Gauge,
        "Commands replayed by the boot-time recovery (after its checkpoint)",
        |w| w.recovered_records,
    ),
    (
        "recovered_checkpoint",
        "wal_recovered_checkpoint",
        Kind::Flag,
        "Did the boot-time recovery restart from a checkpoint?",
        |w| f64::from(u8::from(w.recovered_checkpoint)),
    ),
];

/// Renders a histogram's summary (count, mean, p50/p90/p99, max) as JSON —
/// the shape `/metrics` exposes for every latency series.
fn latency_to_json(h: &LatencyHistogram) -> Json {
    Json::obj([
        ("count", Json::Num(h.count() as f64)),
        ("mean_us", Json::Num(h.mean_us())),
        ("p50_us", Json::Num(h.percentile_us(50.0))),
        ("p90_us", Json::Num(h.percentile_us(90.0))),
        ("p99_us", Json::Num(h.percentile_us(99.0))),
        ("max_us", Json::Num(h.max_us() as f64)),
    ])
}

/// The instruments every tier keeps, shared by all its threads and updated
/// lock-free.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted and queued.
    pub connections_accepted: Counter,
    /// Connections shed with 429 because the queue was full.
    pub connections_shed: Counter,
    /// Requests fully parsed and routed.
    pub requests_total: Counter,
    /// Responses by class.
    pub responses_2xx: Counter,
    /// 4xx responses (client errors, including shed requests).
    pub responses_4xx: Counter,
    /// 5xx responses.
    pub responses_5xx: Counter,
    /// Engine events accepted into the micro-batch buffer.
    pub events_buffered: Counter,
    /// Micro-batch flushes (engine ticks triggered by the batcher).
    pub batch_flushes: Counter,
    /// The flushes a task arrival or worker check-in triggered before the
    /// flush interval elapsed (a subset of `batch_flushes`).
    pub batch_flushes_early: Counter,
    /// Per-request handling latency (parse → response written).
    pub request_latency: LatencyHistogram,
    /// Engine tick latency as seen by the flusher (router) or the command
    /// handler (daemon).
    pub tick_latency: LatencyHistogram,
    /// Per-stage tick histograms (`tick_stage_<name>_us`).
    pub tick_stages: StageSet,
    /// Span-tree captures of ticks over the slow threshold.
    pub slow_ticks: SlowTickBuffer,
}

impl ServerMetrics {
    /// A metric set whose slow-tick capture fires at `threshold_us`
    /// (0 = every tick, `u64::MAX` = disabled).
    pub fn with_slow_threshold_us(threshold_us: u64) -> Self {
        let metrics = Self::default();
        metrics.slow_ticks.set_threshold_us(threshold_us);
        metrics
    }

    /// Counts a response with the given status.
    pub fn count_status(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.incr(),
            400..=499 => self.responses_4xx.incr(),
            _ => self.responses_5xx.incr(),
        }
    }

    /// Folds one tick's observability payload in: per-stage histograms plus
    /// the slow-tick capture (`total_us` is the measured end-to-end tick
    /// wall time, not the stage sum — queueing between stages counts too).
    pub fn observe_tick(&self, trace: u64, now: f64, total_us: u64, stages: &StageTimings) {
        self.tick_stages.record(stages);
        self.slow_ticks.observe(trace, now, total_us, stages);
    }

    /// Writes every instrument into `scrape`.
    pub fn scrape_into(&self, scrape: &mut Scrape) {
        for (path, name, help, counter) in [
            (
                "connections.accepted",
                "connections_accepted_total",
                "Connections accepted and queued",
                &self.connections_accepted,
            ),
            (
                "connections.shed",
                "connections_shed_total",
                "Connections shed with 429 because the queue was full",
                &self.connections_shed,
            ),
            (
                "requests.total",
                "requests_total",
                "Requests fully parsed and routed",
                &self.requests_total,
            ),
            (
                "requests.responses_2xx",
                "responses_2xx_total",
                "2xx responses",
                &self.responses_2xx,
            ),
            (
                "requests.responses_4xx",
                "responses_4xx_total",
                "4xx responses",
                &self.responses_4xx,
            ),
            (
                "requests.responses_5xx",
                "responses_5xx_total",
                "5xx responses",
                &self.responses_5xx,
            ),
            (
                "batching.events_buffered",
                "events_buffered_total",
                "Engine events accepted into the micro-batch buffer",
                &self.events_buffered,
            ),
            (
                "batching.flushes",
                "batch_flushes_total",
                "Micro-batch flushes (engine ticks)",
                &self.batch_flushes,
            ),
            (
                "batching.early_flushes",
                "batch_flushes_early_total",
                "Micro-batch flushes a task arrival or worker check-in triggered early",
                &self.batch_flushes_early,
            ),
        ] {
            scrape.counter(path, name, help, counter.get());
        }
        scrape.histogram(
            "request_latency",
            "request_latency_us",
            "Per-request handling latency (parse to response written)",
            &self.request_latency,
        );
        scrape.histogram(
            "tick_latency",
            "tick_latency_us",
            "Engine tick latency, end to end",
            &self.tick_latency,
        );
        for (stage, h) in self.tick_stages.histograms() {
            scrape.histogram(
                &format!("tick_stages.{stage}"),
                &format!("tick_stage_{stage}_us"),
                &format!("Microseconds per tick in the {stage} stage"),
                h,
            );
        }
        scrape.counter(
            "slow_ticks_captured",
            "slow_ticks_captured_total",
            "Ticks captured by the slow-tick buffer",
            self.slow_ticks.total_captured(),
        );
    }

    /// The `GET /debug/slow-ticks` body: threshold, lifetime capture count
    /// and the retained captures (oldest first) with their span trees.
    fn slow_ticks_json(&self) -> Json {
        let captures = self
            .slow_ticks
            .captures()
            .into_iter()
            .map(|tick| {
                Json::obj([
                    ("trace", Json::Str(trace_to_hex(tick.trace))),
                    ("now", Json::Num(tick.now)),
                    ("total_us", Json::Num(tick.total_us as f64)),
                    ("stages", stages_to_json(&tick.stages)),
                    ("spans", spans_to_json(&tick.spans)),
                ])
            })
            .collect();
        Json::obj([
            (
                "threshold_us",
                threshold_json(self.slow_ticks.threshold_us()),
            ),
            (
                "total_captured",
                Json::Num(self.slow_ticks.total_captured() as f64),
            ),
            ("captures", Json::Arr(captures)),
        ])
    }
}

/// A transport counter: its key in a `transports[]` record, the
/// Prometheus name of its sum over all transports, help and reading.
type TransportStat = (
    &'static str,
    &'static str,
    &'static str,
    fn(&ProtocolStats) -> u64,
);

const TRANSPORT_STATS: [TransportStat; 7] = [
    (
        "requests",
        "partition_commands_total",
        "Partition protocol commands completed, all transports",
        |t| t.requests,
    ),
    (
        "retries",
        "partition_retries_total",
        "Stale keep-alive retries, all transports",
        |t| t.retries,
    ),
    (
        "reconnects",
        "partition_reconnects_total",
        "Transport reconnects, all transports",
        |t| t.reconnects,
    ),
    (
        "bytes_sent",
        "partition_bytes_sent_total",
        "Bytes sent to partitions, all transports",
        |t| t.bytes_sent,
    ),
    (
        "bytes_received",
        "partition_bytes_received_total",
        "Bytes received from partitions, all transports",
        |t| t.bytes_received,
    ),
    (
        "frames_sent",
        "partition_frames_sent_total",
        "Binary frames sent to partitions (binary transport only)",
        |t| t.frames_sent,
    ),
    (
        "frames_received",
        "partition_frames_received_total",
        "Binary frames received from partitions (binary transport only)",
        |t| t.frames_received,
    ),
];

/// The router's own values: the merged engine view, topology, health,
/// failover and the transports behind it.
pub(crate) fn scrape_router(s: &mut Scrape, handle: &EngineHandle) {
    // One snapshot pass feeds both the merged `engine` view and the
    // per-partition breakdown, so the two always reconcile (separate handle
    // queries could interleave with a tick). merge_snapshots also covers
    // the 0-snapshot case (every partition lost): the merged view degrades
    // to zeros rather than panicking the scrape.
    let snapshots = handle.partition_snapshots();
    s.snapshot(
        "engine",
        &SnapshotDto::from_snapshot(&merge_snapshots(&snapshots)),
    );
    let transports = handle.partition_transports();
    // Partition health: how many regions the router has lost, which, and
    // how many routed events were dropped for them — the serving-tier view
    // of the failure model in `rdbsc_platform::partition`.
    let unhealthy = handle.unhealthy_partitions();
    let remote = transports.iter().filter(|t| t.kind != "in-process").count();
    for (name, help, value) in [
        (
            "partitions_count",
            "Partitions behind this router",
            snapshots.len(),
        ),
        (
            "remote_partitions",
            "Partitions served by remote daemons",
            remote,
        ),
        (
            "partitions_unhealthy",
            "Partitions the router has lost",
            unhealthy.len(),
        ),
        (
            "standbys_armed",
            "Slots with an unfired standby promoter armed",
            handle.standbys_armed(),
        ),
    ] {
        s.gauge(name, name, help, value as f64);
    }
    s.counter(
        "events_dropped",
        "events_dropped_total",
        "Routed events dropped for unhealthy partitions",
        handle.events_dropped(),
    );
    if !unhealthy.is_empty() {
        s.records(
            "unhealthy",
            unhealthy.iter().map(|h| {
                Json::obj([
                    ("partition", Json::Num(h.partition as f64)),
                    ("kind", Json::Str(h.kind.to_string())),
                    ("endpoint", Json::Str(h.endpoint.clone())),
                    ("error", Json::Str(h.error.clone())),
                ])
            }),
        );
    }
    // Failover: every completed promotion (slot, lost primary, promoted
    // successor, trigger).
    let promotions = handle.promotions();
    s.counter(
        "partitions_promoted",
        "partitions_promoted_total",
        "Completed standby promotions (failovers)",
        promotions.len() as u64,
    );
    if !promotions.is_empty() {
        s.records(
            "promotions",
            promotions.iter().map(|p| {
                Json::obj([
                    ("partition", Json::Num(p.partition as f64)),
                    ("old_endpoint", Json::Str(p.old_endpoint.clone())),
                    ("new_endpoint", Json::Str(p.new_endpoint.clone())),
                    ("error", Json::Str(p.error.clone())),
                ])
            }),
        );
    }
    if snapshots.len() > 1 {
        s.counter(
            "handoffs",
            "handoffs_total",
            "Cross-partition worker handoffs",
            handle.handoffs(),
        );
        s.records(
            "partitions",
            snapshots.iter().enumerate().map(|(i, snapshot)| {
                let mut entry = Scrape::new(false);
                entry.snapshot("", &SnapshotDto::from_snapshot(snapshot));
                entry.json("partition", Json::Num(i as f64));
                entry.into_json()
            }),
        );
    }
    // How each region is reached and what the protocol costs: per
    // transport in JSON, summed over the transports in Prometheus.
    for (_, name, help, read) in TRANSPORT_STATS {
        s.counter(
            "",
            name,
            help,
            transports.iter().map(|t| read(&t.stats)).sum(),
        );
    }
    s.records(
        "transports",
        transports.iter().map(|t| {
            let mut entry = Scrape::new(false);
            entry.json("partition", Json::Num(t.partition as f64));
            entry.json("kind", Json::Str(t.kind.to_string()));
            entry.json("endpoint", Json::Str(t.endpoint.clone()));
            for (key, _, _, read) in TRANSPORT_STATS {
                entry.json(key, Json::Num(read(&t.stats) as f64));
            }
            entry.json("command_latency.p50_us", Json::Num(t.stats.latency_p50_us));
            entry.json("command_latency.p99_us", Json::Num(t.stats.latency_p99_us));
            entry.json(
                "command_latency.max_us",
                Json::Num(t.stats.latency_max_us as f64),
            );
            entry.into_json()
        }),
    );
}

/// A daemon's own values: its state, its replication status and, once
/// configured, its region and engine snapshot.
pub(crate) fn scrape_daemon(
    s: &mut Scrape,
    draining: bool,
    durable: bool,
    repl: &ReplStatus,
    configured: Option<(u32, EngineSnapshot)>,
) {
    let name = "protocol_version";
    s.gauge(
        name,
        name,
        "The partition protocol version this daemon speaks",
        f64::from(PROTOCOL_VERSION),
    );
    for (name, help, on) in [
        (
            "draining",
            "Is the daemon refusing mutating commands?",
            draining,
        ),
        (
            "durable",
            "Is the daemon running a write-ahead log?",
            durable,
        ),
        (
            "configured",
            "Has a configure taken effect?",
            configured.is_some(),
        ),
    ] {
        s.flag(name, name, help, on);
    }
    s.json("repl.role", Json::Str(repl.role.as_str().into()));
    s.flag(
        "",
        "repl_standby",
        "Is this daemon an unpromoted replication standby?",
        repl.role == ReplRole::Standby,
    );
    s.flag(
        "repl.sealed",
        "repl_sealed",
        "Was the incoming replication stream sealed by a promotion?",
        repl.sealed,
    );
    for (path, name, help, value) in [
        (
            "repl.lag",
            "repl_lag",
            "Replication lag in records (unacked on a primary, unapplied on a standby)",
            repl.lag,
        ),
        (
            "repl.next_lsn",
            "repl_next_lsn",
            "The replication stream head (next lsn to publish or fetch)",
            repl.next_lsn,
        ),
        (
            "repl.acked",
            "repl_acked_lsn",
            "The acknowledgement watermark bounding primary-side retention",
            repl.acked,
        ),
        (
            "repl.applied",
            "repl_applied_lsn",
            "Shipped records this standby has applied (next lsn it will fetch)",
            repl.applied,
        ),
        (
            "repl.resets",
            "repl_stream_resets",
            "Times the primary's retention cap forced a stream reset",
            repl.resets,
        ),
        (
            "repl.retained",
            "repl_retained",
            "Records the primary retains for its standby",
            repl.retained,
        ),
    ] {
        s.gauge(path, name, help, value as f64);
    }
    if let Some((region, snapshot)) = configured {
        let name = "region_index";
        s.gauge(
            name,
            name,
            "The region this daemon serves",
            f64::from(region),
        );
        s.snapshot("engine", &SnapshotDto::from_snapshot(&snapshot));
    }
}

/// Serves the routes both tiers serve alike (see the [module docs](self)):
/// the `/metrics` body is `metrics` followed by what `scrape` writes, and
/// `/debug/spans` without a `trace` parameter reads `last_trace`. `None`
/// when `request` names none of these paths; a wrong method on one is
/// `405`.
pub fn serve_ops(
    request: &Request,
    metrics: &ServerMetrics,
    scrape: impl FnOnce(&mut Scrape),
    last_trace: impl FnOnce() -> u64,
) -> Option<Result<Response, ServerError>> {
    Some(match (request.method, request.path.as_str()) {
        (Method::Get, "/metrics") => {
            let mut body = Scrape::new(query_param(&request.query, "format") == Some("prom"));
            metrics.scrape_into(&mut body);
            scrape(&mut body);
            Ok(body.into_response())
        }
        (Method::Get, "/debug/slow-ticks") => Ok(Response::json(
            200,
            metrics.slow_ticks_json().to_string_compact(),
        )),
        (Method::Post, "/debug/slow-tick-ms") => set_slow_tick_threshold(request, metrics),
        (Method::Get, "/debug/spans") => spans(request, last_trace),
        (_, "/metrics" | "/debug/slow-ticks" | "/debug/slow-tick-ms" | "/debug/spans") => {
            Err(ServerError::MethodNotAllowed)
        }
        _ => return None,
    })
}

/// `POST /debug/slow-tick-ms`: sets the capture threshold and echoes it.
fn set_slow_tick_threshold(
    request: &Request,
    metrics: &ServerMetrics,
) -> Result<Response, ServerError> {
    let body = parse(request.body_utf8()?)?;
    let rid = request_id(&body)?;
    let threshold_us = slow_tick_threshold_us(&body)?;
    metrics.slow_ticks.set_threshold_us(threshold_us);
    let reply = Json::obj([
        ("request_id", Json::Num(rid as f64)),
        ("threshold_us", threshold_json(threshold_us)),
    ]);
    Ok(Response::json(200, reply.to_string_compact()))
}

/// `GET /debug/spans`: the span tree of the `trace` parameter's tick, or
/// of the last traced tick without one.
fn spans(request: &Request, last_trace: impl FnOnce() -> u64) -> Result<Response, ServerError> {
    let trace = match query_param(&request.query, "trace") {
        Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| ServerError::BadField {
            field: "trace",
            expected: "a hex trace id",
        })?,
        None => last_trace(),
    };
    let body = Json::obj([
        ("trace", Json::Str(trace_to_hex(trace))),
        ("spans", spans_to_json(&rdbsc_obs::collect_spans(trace))),
    ]);
    Ok(Response::json(200, body.to_string_compact()))
}

/// A slow-tick threshold as JSON: `u64::MAX` (disabled) would not survive
/// as a JSON number, so it reads -1.
fn threshold_json(threshold_us: u64) -> Json {
    Json::Num(if threshold_us == u64::MAX {
        -1.0
    } else {
        threshold_us as f64
    })
}

/// Renders a stage breakdown keyed by stage name (`apply_us`, …).
fn stages_to_json(stages: &StageTimings) -> Json {
    Json::Obj(
        StageTimings::NAMES
            .iter()
            .zip(stages.values())
            .map(|(name, us)| (format!("{name}_us"), Json::Num(us as f64)))
            .collect(),
    )
}

/// Renders a collected span list (see [`rdbsc_obs::SpanEvent`]).
fn spans_to_json(spans: &[rdbsc_obs::SpanEvent]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("span", Json::Num(s.span as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("dur_us", Json::Num(s.dur_us as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// What `GET /metrics` renders of `m` alone, in either format.
    fn scrape(m: &ServerMetrics, prom: bool) -> Scrape {
        let mut scrape = Scrape::new(prom);
        m.scrape_into(&mut scrape);
        scrape
    }

    fn json_of(m: &ServerMetrics) -> Json {
        scrape(m, false).into_json()
    }

    #[test]
    fn histogram_json_summarises_the_series() {
        let h = LatencyHistogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        let rendered = latency_to_json(&h).to_string_compact();
        assert!(rendered.contains("\"count\":100"), "{rendered}");
        assert!(rendered.contains("\"p99_us\""), "{rendered}");
    }

    #[test]
    fn status_classes_are_counted() {
        let m = ServerMetrics::default();
        m.count_status(200);
        m.count_status(202);
        m.count_status(429);
        m.count_status(503);
        assert_eq!(m.responses_2xx.get(), 2);
        assert_eq!(m.responses_4xx.get(), 1);
        assert_eq!(m.responses_5xx.get(), 1);
        let rendered = json_of(&m).to_string_compact();
        assert!(rendered.contains("\"shed\":0"));
    }

    #[test]
    fn json_shape_is_backward_compatible_plus_stages() {
        let m = ServerMetrics::default();
        m.batch_flushes.incr();
        m.batch_flushes.incr();
        m.batch_flushes_early.incr();
        m.observe_tick(
            0,
            1.0,
            1_500,
            &StageTimings::from_values([100, 200, 900, 300, 0, 0]),
        );
        let rendered = json_of(&m).to_string_compact();
        for key in [
            "\"connections\"",
            "\"requests\"",
            "\"batching\"",
            "\"request_latency\"",
            "\"tick_latency\"",
            "\"tick_stages\"",
        ] {
            assert!(rendered.contains(key), "{key} missing in {rendered}");
        }
        assert!(rendered.contains("\"solve\":{\"count\":1"), "{rendered}");
        let batching = json_of(&m).get("batching").cloned().expect("batching");
        assert_eq!(batching.get("flushes").and_then(Json::as_num), Some(2.0));
        assert_eq!(
            batching.get("early_flushes").and_then(Json::as_num),
            Some(1.0)
        );
    }

    #[test]
    fn prom_rendering_validates_and_carries_every_instrument() {
        let m = ServerMetrics::default();
        m.requests_total.incr();
        m.batch_flushes_early.incr();
        m.request_latency.record(Duration::from_micros(250));
        m.observe_tick(0, 0.0, 42, &StageTimings::from_values([1, 2, 3, 4, 5, 6]));
        let text = String::from_utf8(scrape(&m, true).into_response().body).unwrap();
        rdbsc_obs::validate_prom(&text).expect("prom output must validate");
        for series in [
            "requests_total 1",
            "# TYPE request_latency_us histogram",
            "tick_stage_solve_us_count 1",
            "slow_ticks_captured_total 0",
            "batch_flushes_early_total 1",
        ] {
            assert!(text.contains(series), "{series} missing in:\n{text}");
        }
    }

    #[test]
    fn slow_tick_body_includes_span_trees() {
        let m = ServerMetrics::with_slow_threshold_us(0);
        let trace = rdbsc_obs::next_trace_id();
        rdbsc_obs::record_span(trace, 0, "test.metrics-span", 5, 10);
        m.observe_tick(trace, 2.5, 15, &StageTimings::default());
        let rendered = m.slow_ticks_json().to_string_compact();
        assert!(rendered.contains("\"total_captured\":1"), "{rendered}");
        assert!(rendered.contains("test.metrics-span"), "{rendered}");
        assert!(
            rendered.contains(&crate::protocol::trace_to_hex(trace)),
            "{rendered}"
        );
    }
}
