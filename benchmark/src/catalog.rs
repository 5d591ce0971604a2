//! The one list of workloads and metrics. `BENCHMARK.json` at the repository
//! root is generated from it (`benchmark --emit-manifest`), the result line
//! of every run is filtered through it, and a unit test holds the two
//! together.

use rdbsc_server::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark (at most 200 characters).
    pub why: &'static str,
}

/// A metric a user of the system would see, with its regression bound.
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of one layer (layer = module); no bound.
pub struct PerLayerDef {
    /// `layer.metric`, or the bare name of a figure that only one workload
    /// can report and that therefore cannot be an end-to-end metric.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// How long one run measures, in seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 20;

/// The directory holding the benchmark, relative to the repository root.
pub const BENCH_DIR: &str = "benchmark";

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "batch_uniform",
        why: "The paper's static problem (UNIFORM, m=n=500): solvers and the expected-STD kernel do ~90% of the work, index retrieval ~8%, engine/WAL/server none. A solver change shows here, a WAL change must not.",
    },
    WorkloadDef {
        name: "metro_replay",
        why: "4-city scripted replay through one in-process engine: many small clustered shards with priors, solver chosen per shard. Solve is ~97% of a tick; catches kernel wins that only help one big instance.",
    },
    WorkloadDef {
        name: "heartbeat_storm",
        why: "6000 workers all move every tick through a durable partition (fsync per tick, checkpoints, recovery). Index relocation and WAL dominate, solve <5%: a solver change must show nothing here.",
    },
    WorkloadDef {
        name: "served_cluster",
        why: "HTTP server + micro-batcher + router over 2 durable regions (one on a daemon over the binary transport), open-loop heartbeats at a fixed rate plus a closed-loop answerer. The only full request path.",
    },
];

/// End-to-end metrics. Every workload reports every one of them, so each is
/// defined for any workload: what one *operation* and one unit of *work*
/// are per workload is fixed in `README.md`.
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics. A workload on which a layer does not run reports 0
/// for that layer's metrics, which is the "must show nothing" side of the
/// workload pairs.
pub const PER_LAYER: &[PerLayerDef] = &[
    // Figures only one or two workloads can report. The issue listed them
    // as end-to-end; the driver requires every end-to-end metric from every
    // workload, so they live here under the same names.
    lower("greedy_solve_s", "s"),
    lower("sampling_solve_s", "s"),
    lower("dnc_solve_s", "s"),
    higher("total_std", "std"),
    higher("min_reliability", "prob"),
    higher("events_per_s", "1/s"),
    lower("tick_p50_ms", "ms"),
    lower("tick_p90_ms", "ms"),
    lower("recovery_s", "s"),
    lower("wal_bytes_per_event", "bytes"),
    lower("req_p50_us", "us"),
    lower("req_p99_us", "us"),
    lower("assign_delay_p50_ms", "ms"),
    lower("assign_delay_p90_ms", "ms"),
    // model
    lower("model.expected_std_ns", "ns"),
    lower("model.valid_pairs_bruteforce_ms", "ms"),
    lower("model.evaluate_ms", "ms"),
    // algos
    higher("algos.greedy_pairs_per_s", "1/s"),
    higher("algos.greedy_total_std", "std"),
    higher("algos.greedy_min_reliability", "prob"),
    higher("algos.greedy_assigned", "count"),
    higher("algos.sampling_pairs_per_s", "1/s"),
    higher("algos.sampling_total_std", "std"),
    higher("algos.sampling_min_reliability", "prob"),
    higher("algos.sampling_assigned", "count"),
    higher("algos.dnc_pairs_per_s", "1/s"),
    higher("algos.dnc_total_std", "std"),
    higher("algos.dnc_min_reliability", "prob"),
    higher("algos.dnc_assigned", "count"),
    lower("algos.adaptive_greedy_shards", "count"),
    lower("algos.adaptive_sampling_shards", "count"),
    lower("algos.adaptive_dnc_shards", "count"),
    lower("algos.shard_solve_sum_s", "s"),
    lower("algos.shard_solve_critical_s", "s"),
    // index
    lower("index.build_ms", "ms"),
    lower("index.retrieve_ms", "ms"),
    higher("index.pairs", "count"),
    lower("index.retrieve_vs_bruteforce", "ratio"),
    lower("index.apply_ns_per_event", "ns"),
    lower("index.extract_us_p50", "us"),
    lower("index.relocations", "count"),
    lower("index.cells_repaired", "count"),
    lower("index.tcell_rebuilds", "count"),
    // engine
    lower("engine.stage_apply_share", "ratio"),
    lower("engine.stage_extract_share", "ratio"),
    lower("engine.stage_solve_share", "ratio"),
    lower("engine.stage_merge_share", "ratio"),
    lower("engine.unattributed_share", "ratio"),
    lower("engine.shards_per_tick_p50", "count"),
    lower("engine.largest_shard_pairs_max", "count"),
    higher("engine.ticks_per_s", "1/s"),
    higher("engine.assignments", "count"),
    higher("engine.answers", "count"),
    lower("batch.unattributed_share", "ratio"),
    // partition
    lower("partition.submit_ns_per_event", "ns"),
    lower("partition.handoffs", "count"),
    lower("partition.events_dropped", "count"),
    lower("partition.unhealthy", "count"),
    // wal
    lower("wal.append_us_p50", "us"),
    lower("wal.fsync_us_p50", "us"),
    lower("wal.stage_share", "ratio"),
    lower("wal.bytes_appended", "bytes"),
    lower("wal.records_appended", "count"),
    lower("wal.fsyncs", "count"),
    lower("wal.checkpoints", "count"),
    lower("wal.segments_retired", "count"),
    lower("wal.recovered_records", "count"),
    // wire
    lower("wire.commands", "count"),
    lower("wire.bytes_sent", "bytes"),
    lower("wire.bytes_received", "bytes"),
    lower("wire.bytes_per_command", "bytes"),
    lower("wire.cmd_p50_us", "us"),
    lower("wire.cmd_p99_us", "us"),
    lower("wire.reconnects", "count"),
    lower("wire.retries", "count"),
    // server
    lower("server.heartbeat_p50_us", "us"),
    lower("server.task_post_p50_us", "us"),
    lower("server.assignments_get_p50_us", "us"),
    lower("server.answer_post_p50_us", "us"),
    higher("server.status_2xx", "count"),
    lower("server.status_429", "count"),
    lower("server.status_other", "count"),
    lower("server.io_errors", "count"),
    lower("server.gen_lateness_p99_us", "us"),
    lower("server.engine_ticks", "count"),
    lower("server.events_per_tick", "count"),
    lower("server.tick_stage_solve_us_p50", "us"),
    lower("server.tasks_unassigned_share", "ratio"),
    // obs
    lower("obs.trace_overhead_frac", "ratio"),
];

/// The workload with this name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, pretty-printed with its keys in the contract's order.
pub fn manifest() -> String {
    fn quoted(s: &str) -> String {
        Json::Str(s.to_string()).to_string_compact()
    }
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        &format!("{BENCH_DIR}/Cargo.toml"),
        "--",
    ]
    .map(quoted)
    .join(", ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        quoted(BENCH_DIR)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Is `name` a legal metric or workload name (`[A-Za-z0-9][A-Za-z0-9_.-]*`,
    /// at most 64 characters)?
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Is `unit` a legal unit (`[A-Za-z0-9_/%.-]+`, at most 16 characters)?
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn name_rule_matches_the_contract() {
        for ok in ["a", "9", "wal.fsync_us_p50", "a-b_c.d", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".a", "_a", "-a", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "run `benchmark --emit-manifest > BENCHMARK.json`"
        );
        let doc = rdbsc_server::json::parse(&committed).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
