//! What the engine-driven workloads share: sums over the `TickReport`s of a
//! run, the stage shares that must sum to the whole, and the reported child
//! spans laid under a tick's span.

use crate::report::Report;
use crate::trace::{Token, Tracer};
use rdbsc_obs::NUM_STAGES;
use rdbsc_platform::TickReport;

/// Sums of what the engine reported over the timed ticks of a run.
#[derive(Default)]
pub struct ReportedTotals {
    /// Per-stage microsecond sums, pipeline order.
    pub stage_us: [u64; NUM_STAGES],
    /// Events the engine applied.
    pub events: u64,
    /// New assignments.
    pub assignments: u64,
    /// Shards solved per strategy: GREEDY, SAMPLING, D&C.
    pub strategy_shards: [u64; 3],
    /// Σ per-shard solve seconds.
    pub shard_solve_sum_s: f64,
    /// Σ per-tick critical path (slowest shard).
    pub shard_solve_critical_s: f64,
    /// Index maintenance counters.
    pub relocations: u64,
    /// Cells repaired.
    pub cells_repaired: u64,
    /// Reachability-list rebuilds.
    pub tcell_rebuilds: u64,
    /// Per-tick shard counts.
    pub shards_per_tick: Vec<f64>,
    /// Largest shard seen, in pairs.
    pub largest_shard_pairs: usize,
    /// Per-tick extract stage, µs.
    pub extract_us: Vec<f64>,
}

impl ReportedTotals {
    /// Folds one tick's report in.
    pub fn add(&mut self, report: &TickReport) {
        for (sum, us) in self.stage_us.iter_mut().zip(report.stages.values()) {
            *sum += us;
        }
        self.events += report.events_applied as u64;
        self.assignments += report.new_assignments.len() as u64;
        for name in &report.strategies {
            match *name {
                "GREEDY" => self.strategy_shards[0] += 1,
                "SAMPLING" => self.strategy_shards[1] += 1,
                "D&C" => self.strategy_shards[2] += 1,
                _ => {}
            }
        }
        self.shard_solve_sum_s += report.shard_solve_seconds.iter().sum::<f64>();
        self.shard_solve_critical_s += report.critical_path_seconds();
        self.relocations += report.index_maintenance.relocations;
        self.cells_repaired += report.index_maintenance.cells_repaired;
        self.tcell_rebuilds += report.index_maintenance.tcell_rebuilds;
        self.shards_per_tick.push(report.num_shards as f64);
        self.largest_shard_pairs = self.largest_shard_pairs.max(report.largest_shard_pairs);
        self.extract_us.push(report.stages.extract_us as f64);
    }

    /// Reports the counters every engine-driven workload shares.
    pub fn report_counters(&self, ticks: usize, wall_s: f64, report: &mut Report) {
        report.value(
            "algos.adaptive_greedy_shards",
            "count",
            self.strategy_shards[0] as f64,
        );
        report.value(
            "algos.adaptive_sampling_shards",
            "count",
            self.strategy_shards[1] as f64,
        );
        report.value(
            "algos.adaptive_dnc_shards",
            "count",
            self.strategy_shards[2] as f64,
        );
        report.value("algos.shard_solve_sum_s", "s", self.shard_solve_sum_s);
        report.value(
            "algos.shard_solve_critical_s",
            "s",
            self.shard_solve_critical_s,
        );
        report.value(
            "index.apply_ns_per_event",
            "ns",
            self.stage_us[0] as f64 * 1e3 / self.events.max(1) as f64,
        );
        report.timing("index.extract_us_p50", "us", &self.extract_us, 50.0);
        report.value("index.relocations", "count", self.relocations as f64);
        report.value("index.cells_repaired", "count", self.cells_repaired as f64);
        report.value("index.tcell_rebuilds", "count", self.tcell_rebuilds as f64);
        report.timing(
            "engine.shards_per_tick_p50",
            "count",
            &self.shards_per_tick,
            50.0,
        );
        report.value(
            "engine.largest_shard_pairs_max",
            "count",
            self.largest_shard_pairs as f64,
        );
        report.value("engine.ticks_per_s", "1/s", ticks as f64 / wall_s);
        report.value("engine.assignments", "count", self.assignments as f64);
    }
}

/// Reports the share of `wall_s` (submit + tick, measured from outside the
/// engine) each reported stage took, and what is left over: the shares and
/// the remainder sum to 1.
pub fn report_stage_shares(stage_us: &[u64; NUM_STAGES], wall_s: f64, report: &mut Report) {
    let share = |i: usize| stage_us[i] as f64 / (wall_s * 1e6);
    report.value("engine.stage_apply_share", "ratio", share(0));
    report.value("engine.stage_extract_share", "ratio", share(1));
    report.value("engine.stage_solve_share", "ratio", share(2));
    report.value("engine.stage_merge_share", "ratio", share(3));
    report.value("wal.stage_share", "ratio", share(4) + share(5));
    report.value(
        "engine.unattributed_share",
        "ratio",
        1.0 - (0..NUM_STAGES).map(share).sum::<f64>(),
    );
}

/// Attaches a tick's reported stages (and, under the solve stage, its
/// per-shard solves) below the tick's span.
pub fn attach_tick_report(tracer: &mut Tracer, tick: Token, report: &TickReport) {
    if !tracer.enabled() {
        return;
    }
    let stages: Vec<(&'static str, u64)> = report
        .stages
        .as_array()
        .iter()
        .map(|&(name, us)| (name, us * 1_000))
        .collect();
    let tokens = tracer.attach_reported(tick, &stages);
    let shards: Vec<(&'static str, u64)> = report
        .shard_solve_seconds
        .iter()
        .map(|s| ("algos.shard_solve", (s * 1e9) as u64))
        .collect();
    if let Some(&solve) = tokens.get(2) {
        tracer.attach_reported(solve, &shards);
    }
}
