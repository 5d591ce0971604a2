//! Order statistics over timing samples: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" rule, and the
//! five-number spread printed next to every median.

/// The percentiles a report may name, lowest first.
const CANDIDATE_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// How many samples must lie beyond a percentile for it to be reported:
/// fewer and the figure is one or two outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n ≥ 1` samples. The
/// small slack keeps `99.9 % of 10 000` at rank 9990 although the product
/// is not exact in binary floating point.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil().max(1.0) as usize;
    rank.min(n)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// Returns 0 for an empty slice so a skipped layer prints as 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The number of samples strictly beyond the nearest-rank position of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The highest candidate percentile that still has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or `None` when not even the
/// median has.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Is `p` backed by enough samples to be more than an anecdote?
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Min / quartiles / max of a sample set, the spread printed beside a
/// median.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Spread {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile (nearest rank).
    pub q1: f64,
    /// Median (nearest rank).
    pub median: f64,
    /// Third quartile (nearest rank).
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// Computes the spread of `samples` (any order).
    pub fn of(samples: &[f64]) -> Spread {
        let sorted = sorted(samples);
        if sorted.is_empty() {
            return Spread::default();
        }
        Spread {
            n: sorted.len(),
            min: sorted[0],
            q1: percentile(&sorted, 25.0),
            median: percentile(&sorted, 50.0),
            q3: percentile(&sorted, 75.0),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 19 samples: the median sits at rank 10, nine beyond it.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // p90 of 99 sits at rank 90 (nine beyond); of 100 at rank 90 (ten).
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(100, 99.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn spread_is_the_five_number_summary() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 8.0, 7.0]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (8, 1.0, 2.0, 4.0, 6.0, 8.0)
        );
        assert!((s.relative_iqr() - 1.0).abs() < 1e-12);
        assert_eq!(Spread::of(&[]).relative_iqr(), 0.0);
    }
}
