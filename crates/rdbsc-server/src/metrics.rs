//! Serving metrics: one unified [`Registry`] per process tier.
//!
//! The counting primitives ([`Counter`], [`LatencyHistogram`]) live in
//! `rdbsc-obs` at the bottom of the dependency stack; this module owns the
//! server's metric *set*. Every instrument is registered by name on a
//! [`Registry`], so the same set renders two ways: the original JSON shape
//! (`GET /metrics`, backward compatible field for field) and Prometheus
//! text exposition (`GET /metrics?format=prom`). Everything is updated
//! lock-free from request threads and scraped without stopping the world.
//!
//! The set also carries the tick observability surface: per-stage
//! histograms ([`StageSet`]) fed from every tick's `TickReport` breakdown,
//! and the slow-tick capture buffer ([`SlowTickBuffer`]) served at
//! `GET /debug/slow-ticks`.

use crate::json::Json;
use rdbsc_obs::{PromWriter, Registry, SlowTickBuffer, StageSet, StageTimings};
use std::sync::Arc;

pub use rdbsc_obs::{Counter, LatencyHistogram};

/// Renders a histogram's summary (count, mean, p50/p90/p99, max) as JSON —
/// the shape `/metrics` exposes for every latency series.
pub fn latency_to_json(h: &LatencyHistogram) -> Json {
    Json::obj([
        ("count", Json::Num(h.count() as f64)),
        ("mean_us", Json::Num(h.mean_us())),
        ("p50_us", Json::Num(h.percentile_us(50.0))),
        ("p90_us", Json::Num(h.percentile_us(90.0))),
        ("p99_us", Json::Num(h.percentile_us(99.0))),
        ("max_us", Json::Num(h.max_us() as f64)),
    ])
}

/// All the server's metrics, shared by every thread. The public fields are
/// `Arc` handles into the registry, so existing call sites
/// (`metrics.requests_total.incr()`) work unchanged while `/metrics` can
/// render the whole set generically.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    /// Connections accepted and queued.
    pub connections_accepted: Arc<Counter>,
    /// Connections shed with 429 because the queue was full.
    pub connections_shed: Arc<Counter>,
    /// Requests fully parsed and routed.
    pub requests_total: Arc<Counter>,
    /// Responses by class.
    pub responses_2xx: Arc<Counter>,
    /// 4xx responses (client errors, including shed requests).
    pub responses_4xx: Arc<Counter>,
    /// 5xx responses.
    pub responses_5xx: Arc<Counter>,
    /// Engine events accepted into the micro-batch buffer.
    pub events_buffered: Arc<Counter>,
    /// Micro-batch flushes (engine ticks triggered by the batcher).
    pub batch_flushes: Arc<Counter>,
    /// The flushes a task arrival or worker check-in triggered before the
    /// flush interval elapsed (a subset of `batch_flushes`).
    pub batch_flushes_early: Arc<Counter>,
    /// Per-request handling latency (parse → response written).
    pub request_latency: Arc<LatencyHistogram>,
    /// Engine tick latency as seen by the flusher (router) or the command
    /// handler (daemon).
    pub tick_latency: Arc<LatencyHistogram>,
    /// Per-stage tick histograms (`tick_stage_<name>_us`).
    pub tick_stages: StageSet,
    /// Span-tree captures of ticks over the slow threshold.
    pub slow_ticks: SlowTickBuffer,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        let registry = Registry::default();
        let connections_accepted = registry.counter(
            "connections_accepted_total",
            "Connections accepted and queued",
        );
        let connections_shed = registry.counter(
            "connections_shed_total",
            "Connections shed with 429 because the queue was full",
        );
        let requests_total =
            registry.counter("requests_total", "Requests fully parsed and routed");
        let responses_2xx = registry.counter("responses_2xx_total", "2xx responses");
        let responses_4xx = registry.counter("responses_4xx_total", "4xx responses");
        let responses_5xx = registry.counter("responses_5xx_total", "5xx responses");
        let events_buffered = registry.counter(
            "events_buffered_total",
            "Engine events accepted into the micro-batch buffer",
        );
        let batch_flushes =
            registry.counter("batch_flushes_total", "Micro-batch flushes (engine ticks)");
        let batch_flushes_early = registry.counter(
            "batch_flushes_early_total",
            "Micro-batch flushes a task arrival or worker check-in triggered early",
        );
        let request_latency = registry.histogram(
            "request_latency_us",
            "Per-request handling latency (parse to response written)",
        );
        let tick_latency =
            registry.histogram("tick_latency_us", "Engine tick latency, end to end");
        let tick_stages = StageSet::register(&registry, "tick");
        Self {
            registry,
            connections_accepted,
            connections_shed,
            requests_total,
            responses_2xx,
            responses_4xx,
            responses_5xx,
            events_buffered,
            batch_flushes,
            batch_flushes_early,
            request_latency,
            tick_latency,
            tick_stages,
            slow_ticks: SlowTickBuffer::default(),
        }
    }
}

impl ServerMetrics {
    /// A metric set whose slow-tick capture fires at `threshold_us`
    /// (0 = every tick, `u64::MAX` = disabled).
    pub fn with_slow_threshold_us(threshold_us: u64) -> Self {
        let metrics = Self::default();
        metrics.slow_ticks.set_threshold_us(threshold_us);
        metrics
    }

    /// The registry behind the set, for endpoint-local extra instruments.
    pub fn registry(&self) -> &Registry {
        &self.registry
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

    /// Renders every metric as one JSON object (the `/metrics` body). The
    /// shape predates the registry and is kept field-for-field compatible;
    /// the per-stage breakdown rides under the additive `tick_stages` key.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "connections",
                Json::obj([
                    ("accepted", Json::Num(self.connections_accepted.get() as f64)),
                    ("shed", Json::Num(self.connections_shed.get() as f64)),
                ]),
            ),
            (
                "requests",
                Json::obj([
                    ("total", Json::Num(self.requests_total.get() as f64)),
                    ("responses_2xx", Json::Num(self.responses_2xx.get() as f64)),
                    ("responses_4xx", Json::Num(self.responses_4xx.get() as f64)),
                    ("responses_5xx", Json::Num(self.responses_5xx.get() as f64)),
                ]),
            ),
            (
                "batching",
                Json::obj([
                    ("events_buffered", Json::Num(self.events_buffered.get() as f64)),
                    ("flushes", Json::Num(self.batch_flushes.get() as f64)),
                    (
                        "early_flushes",
                        Json::Num(self.batch_flushes_early.get() as f64),
                    ),
                ]),
            ),
            ("request_latency", latency_to_json(&self.request_latency)),
            ("tick_latency", latency_to_json(&self.tick_latency)),
            (
                "tick_stages",
                Json::Obj(
                    self.tick_stages
                        .histograms()
                        .into_iter()
                        .map(|(name, h)| (name.to_string(), latency_to_json(h)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the registry into `writer` (Prometheus text exposition),
    /// including the slow-tick capture counter. Endpoints append their
    /// scrape-time gauges (engine snapshot sizes, transport counters) to the
    /// same writer afterwards.
    pub fn render_prom_into(&self, writer: &mut PromWriter) {
        self.registry.render_prom(writer);
        writer.counter(
            "slow_ticks_captured_total",
            "Ticks captured by the slow-tick buffer",
            self.slow_ticks.total_captured(),
        );
    }

    /// The `GET /debug/slow-ticks` body: threshold, lifetime capture count
    /// and the retained captures (oldest first) with their span trees.
    pub fn slow_ticks_json(&self) -> Json {
        let captures = self
            .slow_ticks
            .captures()
            .into_iter()
            .map(|tick| {
                Json::obj([
                    ("trace", Json::Str(crate::protocol::trace_to_hex(tick.trace))),
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
                Json::Num(threshold_for_json(self.slow_ticks.threshold_us())),
            ),
            (
                "total_captured",
                Json::Num(self.slow_ticks.total_captured() as f64),
            ),
            ("captures", Json::Arr(captures)),
        ])
    }
}

/// Appends the scrape-time engine gauges (and WAL totals, when durable) of
/// one engine snapshot to a Prometheus rendering — shared by the router's
/// merged view and each daemon's own `/metrics?format=prom`.
pub fn snapshot_to_prom(w: &mut PromWriter, s: &rdbsc_platform::EngineSnapshot) {
    w.gauge("engine_now", "Simulation time of the latest tick", s.now);
    w.counter("engine_ticks_total", "Engine ticks run", s.ticks);
    w.counter(
        "engine_events_applied_total",
        "Events applied by ticks",
        s.events_applied,
    );
    w.gauge(
        "engine_pending_events",
        "Events submitted but not yet ticked",
        s.pending_events as f64,
    );
    w.gauge("engine_live_tasks", "Live tasks", s.live_tasks as f64);
    w.gauge("engine_live_workers", "Live workers", s.live_workers as f64);
    w.gauge(
        "engine_committed_workers",
        "Workers en route under the standing assignment",
        s.committed_workers as f64,
    );
    w.counter(
        "engine_assignments_total",
        "Assignments committed across the engine's lifetime",
        s.total_assignments,
    );
    if let Some(wal) = &s.wal {
        w.gauge("wal_segments", "Live WAL segment files", wal.segments as f64);
        w.counter(
            "wal_records_appended_total",
            "WAL records appended",
            wal.records_appended,
        );
        w.counter(
            "wal_bytes_appended_total",
            "WAL bytes appended",
            wal.bytes_appended,
        );
        w.counter("wal_fsyncs_total", "WAL fsyncs issued", wal.fsyncs);
        w.counter(
            "wal_checkpoints_total",
            "WAL checkpoints written",
            wal.checkpoints,
        );
    }
}

/// `u64::MAX` (disabled) would not survive as a JSON number; report -1.
fn threshold_for_json(threshold_us: u64) -> f64 {
    if threshold_us == u64::MAX {
        -1.0
    } else {
        threshold_us as f64
    }
}

/// Renders a stage breakdown keyed by stage name (`apply_us`, …).
pub fn stages_to_json(stages: &StageTimings) -> Json {
    Json::Obj(
        StageTimings::NAMES
            .iter()
            .zip(stages.values())
            .map(|(name, us)| (format!("{name}_us"), Json::Num(us as f64)))
            .collect(),
    )
}

/// Renders a collected span list (see [`rdbsc_obs::SpanEvent`]).
pub fn spans_to_json(spans: &[rdbsc_obs::SpanEvent]) -> Json {
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
        let rendered = m.to_json().to_string_compact();
        assert!(rendered.contains("\"shed\":0"));
    }

    #[test]
    fn json_shape_is_backward_compatible_plus_stages() {
        let m = ServerMetrics::default();
        m.batch_flushes.incr();
        m.batch_flushes.incr();
        m.batch_flushes_early.incr();
        m.observe_tick(0, 1.0, 1_500, &StageTimings::from_values([100, 200, 900, 300, 0, 0]));
        let rendered = m.to_json().to_string_compact();
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
        let batching = m.to_json().get("batching").cloned().expect("batching");
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
        let mut w = PromWriter::new();
        m.render_prom_into(&mut w);
        let text = w.into_string();
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
        assert!(rendered.contains(&crate::protocol::trace_to_hex(trace)), "{rendered}");
    }
}
