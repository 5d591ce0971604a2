//! Lock-free metric primitives: counters and log-bucketed latency
//! histograms.
//!
//! They live here, at the bottom of the dependency stack, so every tier
//! (router, daemons, WAL, benches) shares one implementation. Everything
//! is updated lock-free from any thread and read without stopping the
//! world; the histogram gives exact counts and sub-bucket-resolution
//! percentile estimates (linear interpolation inside the winning bucket),
//! which is plenty for p50/p99 over log-spaced buckets.
//!
//! Histograms additionally expose their raw bucket counts
//! ([`LatencyHistogram::bucket_counts`]) and support merging
//! ([`LatencyHistogram::merge_from`]): merging per-partition histograms is
//! exactly equivalent to histogramming the concatenated observation stream
//! (a property locked in by proptest in `rdbsc-server`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (microseconds, inclusive) of the histogram buckets: roughly
/// 1-2-5 per decade from 10 µs to 10 s, plus an overflow bucket.
pub const BUCKET_BOUNDS_US: [u64; 19] = [
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
    500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram (microsecond resolution).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        self.record_us(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one observation already measured in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|bound| us <= *bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The largest observation so far, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_us() as f64 / count as f64
        }
    }

    /// The per-bucket observation counts (last entry is the overflow bucket
    /// beyond [`BUCKET_BOUNDS_US`]).
    pub fn bucket_counts(&self) -> [u64; BUCKET_BOUNDS_US.len() + 1] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Folds another histogram's observations into this one. Merging is
    /// exact: the result has the same bucket counts, count, sum and max as
    /// if every observation had been recorded here directly.
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.bucket_counts()) {
            mine.fetch_add(theirs, Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_us.fetch_add(other.sum_us(), Ordering::Relaxed);
        self.max_us.fetch_max(other.max_us(), Ordering::Relaxed);
    }

    /// Estimates the `p`-th percentile (`0 < p <= 100`) in microseconds by
    /// linear interpolation inside the winning bucket. 0 when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if seen + in_bucket >= rank {
                let lower = if idx == 0 {
                    0
                } else {
                    BUCKET_BOUNDS_US[idx - 1]
                };
                let upper = if idx < BUCKET_BOUNDS_US.len() {
                    BUCKET_BOUNDS_US[idx]
                } else {
                    self.max_us().max(lower + 1)
                };
                let fraction = if in_bucket == 0 {
                    0.0
                } else {
                    (rank - seen) as f64 / in_bucket as f64
                };
                return lower as f64 + fraction * (upper - lower) as f64;
            }
            seen += in_bucket;
        }
        self.max_us() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let h = LatencyHistogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile_us(50.0);
        let p99 = h.percentile_us(99.0);
        assert!((20_000.0..=60_000.0).contains(&p50), "p50 {p50}");
        assert!((90_000.0..=110_000.0).contains(&p99), "p99 {p99}");
        assert!(p99 >= p50);
        assert!((h.mean_us() - 50_500.0).abs() < 1_000.0);
    }

    #[test]
    fn histogram_handles_empty_and_overflow() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_us(99.0), 0.0);
        h.record(Duration::from_secs(60)); // beyond the last bound
        assert_eq!(h.count(), 1);
        assert!(h.percentile_us(50.0) > 10_000_000.0);
    }

    #[test]
    fn merge_equals_recording_directly() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        let direct = LatencyHistogram::default();
        for us in [5, 17, 300, 40_000, 20_000_000] {
            a.record_us(us);
            direct.record_us(us);
        }
        for us in [1, 9_999, 123_456] {
            b.record_us(us);
            direct.record_us(us);
        }
        a.merge_from(&b);
        assert_eq!(a.bucket_counts(), direct.bucket_counts());
        assert_eq!(a.count(), direct.count());
        assert_eq!(a.sum_us(), direct.sum_us());
        assert_eq!(a.max_us(), direct.max_us());
        assert_eq!(a.percentile_us(50.0), direct.percentile_us(50.0));
    }
}
