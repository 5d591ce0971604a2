//! The per-stage tick breakdown and its histogram aggregation.
//!
//! A tick passes through a fixed pipeline — apply queued events (index
//! maintenance), extract connected-component shards, solve shards in
//! parallel, merge/commit the winners, and (on a durable partition) append
//! the tick's WAL records and wait for their fsync. [`StageTimings`] carries one measured duration
//! per stage inside every `TickReport`; [`StageSet`] aggregates them into
//! per-stage log-bucketed histograms, which is what `/metrics` serves on
//! both the router and the daemons.
//!
//! All values are observational (microsecond stopwatch readings); none of
//! them feed back into engine decisions.

use crate::metrics::LatencyHistogram;

/// The number of profiled tick stages.
pub const NUM_STAGES: usize = 6;

/// Wall-clock microseconds spent in each stage of one tick.
///
/// The stages are what the tick's thread spent its time on, in order, so
/// they sum to the tick. The router's merged report carries the stages of
/// its **slowest** partition (partitions tick concurrently, so that one
/// bounds the round): a real tick's breakdown, never a mix of several.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageTimings {
    /// Draining the event queue into the index + auto-expiring tasks.
    pub apply_us: u64,
    /// Connected-component shard extraction (includes depart refresh).
    pub extract_us: u64,
    /// The parallel per-shard solve.
    pub solve_us: u64,
    /// Merging shard results and committing assignments.
    pub merge_us: u64,
    /// Every record appended for this tick, its submits' event batches
    /// included (and a due checkpoint); durable partitions only.
    pub wal_append_us: u64,
    /// What the group-commit fsync cost the tick's own thread: starting it
    /// beside the engine round, then blocked waiting for it — the part of
    /// the device time the round did not hide (durable partitions with
    /// `fsync_on_tick`).
    pub wal_fsync_us: u64,
}

impl StageTimings {
    /// Stage names, in pipeline order, as used for span labels and metric
    /// names (`stage.<name>` spans, `..._stage_<name>_us` histograms).
    pub const NAMES: [&'static str; NUM_STAGES] = [
        "apply",
        "extract",
        "solve",
        "merge",
        "wal_append",
        "wal_fsync",
    ];

    /// `(span label, duration)` per stage, in pipeline order.
    pub fn as_array(&self) -> [(&'static str, u64); NUM_STAGES] {
        [
            ("stage.apply", self.apply_us),
            ("stage.extract", self.extract_us),
            ("stage.solve", self.solve_us),
            ("stage.merge", self.merge_us),
            ("stage.wal_append", self.wal_append_us),
            ("stage.wal_fsync", self.wal_fsync_us),
        ]
    }

    /// The stage durations in pipeline order (no labels).
    pub fn values(&self) -> [u64; NUM_STAGES] {
        [
            self.apply_us,
            self.extract_us,
            self.solve_us,
            self.merge_us,
            self.wal_append_us,
            self.wal_fsync_us,
        ]
    }

    /// Builds timings from durations in pipeline order.
    pub fn from_values(values: [u64; NUM_STAGES]) -> Self {
        Self {
            apply_us: values[0],
            extract_us: values[1],
            solve_us: values[2],
            merge_us: values[3],
            wal_append_us: values[4],
            wal_fsync_us: values[5],
        }
    }

    /// Folds a concurrent partition's timings in: whichever tick took
    /// longer in total stays, whole (a tie keeps the one already here, so
    /// folding in partition order favours the lowest index). A per-stage
    /// maximum would sum to more than any partition's tick.
    pub fn merge_slowest(&mut self, other: &StageTimings) {
        if other.total_us() > self.total_us() {
            *self = *other;
        }
    }

    /// Total microseconds across all stages.
    pub fn total_us(&self) -> u64 {
        self.values().iter().sum()
    }
}

/// One log-bucketed histogram per tick stage.
#[derive(Debug, Default)]
pub struct StageSet {
    hists: [LatencyHistogram; NUM_STAGES],
}

impl StageSet {
    /// Records one tick's stage breakdown. The WAL stages are only recorded
    /// when nonzero (non-durable engines never enter them, and a histogram
    /// full of synthetic zeros would poison the percentiles).
    pub fn record(&self, timings: &StageTimings) {
        for (idx, us) in timings.values().into_iter().enumerate() {
            let is_wal_stage = idx >= 4;
            if is_wal_stage && us == 0 {
                continue;
            }
            self.hists[idx].record_us(us);
        }
    }

    /// The stage histograms in pipeline order, with their stage names.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LatencyHistogram)> {
        StageTimings::NAMES.into_iter().zip(&self.hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_slowest_keeps_one_whole_tick() {
        let fast = StageTimings::from_values([1, 20, 3, 40, 5, 60]);
        let slow = StageTimings::from_values([10, 2, 30, 4, 50, 34]);
        let tied = StageTimings::from_values([130, 0, 0, 0, 0, 0]);
        let mut merged = StageTimings::default();
        for region in [&fast, &slow, &tied] {
            merged.merge_slowest(region);
        }
        assert_eq!(
            merged, slow,
            "the slowest region, not a mix; a tie keeps the first"
        );
        assert_eq!(merged.total_us(), 130);
    }

    #[test]
    fn from_values_round_trips() {
        let t = StageTimings::from_values([1, 2, 3, 4, 5, 6]);
        assert_eq!(StageTimings::from_values(t.values()), t);
    }

    #[test]
    fn stage_set_records_wal_stages_only_when_entered() {
        let set = StageSet::default();
        set.record(&StageTimings::from_values([1, 2, 3, 4, 0, 0]));
        set.record(&StageTimings::from_values([1, 2, 3, 4, 9, 9]));
        let by_name: std::collections::BTreeMap<_, _> = set
            .histograms()
            .map(|(name, h)| (name, h.count()))
            .collect();
        assert_eq!(by_name["apply"], 2);
        assert_eq!(by_name["solve"], 2);
        assert_eq!(by_name["wal_append"], 1);
        assert_eq!(by_name["wal_fsync"], 1);
    }
}
