//! Experiment configuration mirroring Table 2 of the paper.
//!
//! | Parameter | Paper values (defaults in bold) |
//! |---|---|
//! | expiration-time range `rt` | \[0.25,0.5\], **\[0.5,1\]**, \[1,2\], \[2,3\] |
//! | worker reliability `[p_min, p_max]` | (0.8,1), (0.85,1), **(0.9,1)**, (0.95,1) |
//! | number of tasks `m` | 5K, 8K, **10K**, 50K, 100K |
//! | number of workers `n` | 5K, 8K, **10K**, 15K, 20K |
//! | worker velocity `[v−, v+]` | \[0.1,0.2\], **\[0.2,0.3\]**, \[0.3,0.4\], \[0.4,0.5\] |
//! | moving-angle range `(α+ − α−)` | (0,π/8] … **(0,π/6]** … (0,π/4] |
//! | balance weight `β` | (0,0.2] … **(0.4,0.6]** … (0.8,1) |
//!
//! Paper-scale instances (10K × 10K and up) are supported but slow on a
//! laptop, so the harness also defines a proportionally scaled-down
//! [`Scale::Small`] used as the default for the figure reproductions.

use std::f64::consts::PI;

/// Spatial distribution of tasks and workers (Section 8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Distribution {
    /// Locations drawn uniformly over `[0, 1]²`.
    #[default]
    Uniform,
    /// 90 % of locations in a Gaussian cluster centred at (0.5, 0.5) with
    /// standard deviation 0.2, the rest uniform (the paper's SKEWED setting).
    Skewed,
}

/// Whether to run at the paper's scale or at a laptop-friendly scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Laptop-scale: every figure regenerates in minutes.
    #[default]
    Small,
    /// The paper's scale (m, n in the tens of thousands).
    Paper,
}

/// A full experiment configuration (one column of Table 2 plus the data
/// distribution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of tasks `m`.
    pub num_tasks: usize,
    /// Number of workers `n`.
    pub num_workers: usize,
    /// Range of task expiration times `rt` (the window length `e − s`).
    pub rt_range: (f64, f64),
    /// Range `[p_min, p_max]` of worker reliabilities.
    pub reliability_range: (f64, f64),
    /// Range `[v−, v+]` of worker velocities.
    pub velocity_range: (f64, f64),
    /// Maximum width of the moving-angle range `(α+ − α−)`; each worker's
    /// width is drawn uniformly from `(0, max]`.
    pub max_angle_range: f64,
    /// Range from which the balance weight `β` is drawn (per instance).
    pub beta_range: (f64, f64),
    /// Range of task start times `st` (the paper uses `[0, 24]` hours).
    pub start_time_range: (f64, f64),
    /// Spatial distribution of tasks and workers.
    pub distribution: Distribution,
    /// Random seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::small_default()
    }
}

impl ExperimentConfig {
    /// The paper's default parameter column (bold entries of Table 2) at the
    /// paper's scale.
    pub fn paper_default() -> Self {
        Self {
            num_tasks: 10_000,
            num_workers: 10_000,
            rt_range: (0.5, 1.0),
            reliability_range: (0.9, 1.0),
            velocity_range: (0.2, 0.3),
            max_angle_range: PI / 6.0,
            beta_range: (0.4, 0.6),
            start_time_range: (0.0, 24.0),
            distribution: Distribution::Uniform,
            seed: 42,
        }
    }

    /// The laptop-scale default: the same parameter ratios at 1/10 the
    /// instance size.
    pub fn small_default() -> Self {
        Self {
            num_tasks: 1_000,
            num_workers: 1_000,
            ..Self::paper_default()
        }
    }

    /// The default configuration for a scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Small => Self::small_default(),
            Scale::Paper => Self::paper_default(),
        }
    }

    /// Builder-style setter (used by the parameter sweeps): task count `m`.
    pub fn with_tasks(mut self, m: usize) -> Self {
        self.num_tasks = m;
        self
    }
    /// Sets the worker count `n`.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.num_workers = n;
        self
    }
    /// Sets the range task valid periods are drawn from.
    pub fn with_rt_range(mut self, lo: f64, hi: f64) -> Self {
        self.rt_range = (lo, hi);
        self
    }
    /// Sets the range worker reliabilities are drawn from.
    pub fn with_reliability_range(mut self, lo: f64, hi: f64) -> Self {
        self.reliability_range = (lo, hi);
        self
    }
    /// Sets the range worker velocities are drawn from.
    pub fn with_velocity_range(mut self, lo: f64, hi: f64) -> Self {
        self.velocity_range = (lo, hi);
        self
    }
    /// Sets the maximum width of worker moving-angle ranges.
    pub fn with_max_angle_range(mut self, a: f64) -> Self {
        self.max_angle_range = a;
        self
    }
    /// Sets the range diversity weights β are drawn from.
    pub fn with_beta_range(mut self, lo: f64, hi: f64) -> Self {
        self.beta_range = (lo, hi);
        self
    }
    /// Sets the spatial distribution of tasks and workers.
    pub fn with_distribution(mut self, d: Distribution) -> Self {
        self.distribution = d;
        self
    }
    /// Sets the generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The mean of the β range, used as the instance-level default weight.
    pub fn mean_beta(&self) -> f64 {
        (self.beta_range.0 + self.beta_range.1) / 2.0
    }

    /// The parameter sweeps of Table 2 (value label, configured instance),
    /// for the given axis.
    pub fn sweep_rt(base: &Self) -> Vec<(String, Self)> {
        [(0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0)]
            .iter()
            .map(|&(lo, hi)| (format!("[{lo},{hi}]"), base.with_rt_range(lo, hi)))
            .collect()
    }

    /// Reliability-range sweep of Table 2.
    pub fn sweep_reliability(base: &Self) -> Vec<(String, Self)> {
        [(0.8, 1.0), (0.85, 1.0), (0.9, 1.0), (0.95, 1.0)]
            .iter()
            .map(|&(lo, hi)| (format!("({lo},{hi})"), base.with_reliability_range(lo, hi)))
            .collect()
    }

    /// Task-count sweep of Table 2, scaled for the given scale.
    pub fn sweep_tasks(base: &Self, scale: Scale) -> Vec<(String, Self)> {
        let ms: &[usize] = match scale {
            Scale::Paper => &[5_000, 8_000, 10_000, 50_000, 100_000],
            Scale::Small => &[500, 800, 1_000, 5_000, 10_000],
        };
        ms.iter()
            .map(|&m| (format!("{m}"), base.with_tasks(m)))
            .collect()
    }

    /// Worker-count sweep of Table 2, scaled for the given scale.
    pub fn sweep_workers(base: &Self, scale: Scale) -> Vec<(String, Self)> {
        let ns: &[usize] = match scale {
            Scale::Paper => &[5_000, 8_000, 10_000, 15_000, 20_000],
            Scale::Small => &[500, 800, 1_000, 1_500, 2_000],
        };
        ns.iter()
            .map(|&n| (format!("{n}"), base.with_workers(n)))
            .collect()
    }

    /// Velocity-range sweep of Table 2.
    pub fn sweep_velocity(base: &Self) -> Vec<(String, Self)> {
        [(0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.5)]
            .iter()
            .map(|&(lo, hi)| (format!("[{lo},{hi}]"), base.with_velocity_range(lo, hi)))
            .collect()
    }

    /// Moving-angle-range sweep of Table 2.
    pub fn sweep_angle(base: &Self) -> Vec<(String, Self)> {
        [
            ("(0,pi/8]", PI / 8.0),
            ("(0,pi/7]", PI / 7.0),
            ("(0,pi/6]", PI / 6.0),
            ("(0,pi/5]", PI / 5.0),
            ("(0,pi/4]", PI / 4.0),
        ]
        .iter()
        .map(|&(label, a)| (label.to_string(), base.with_max_angle_range(a)))
        .collect()
    }

    /// Balance-weight sweep of Table 2.
    pub fn sweep_beta(base: &Self) -> Vec<(String, Self)> {
        [(0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0)]
            .iter()
            .map(|&(lo, hi)| (format!("({lo},{hi}]"), base.with_beta_range(lo, hi)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_2_bold_entries() {
        let c = ExperimentConfig::paper_default();
        assert_eq!(c.num_tasks, 10_000);
        assert_eq!(c.num_workers, 10_000);
        assert_eq!(c.rt_range, (0.5, 1.0));
        assert_eq!(c.reliability_range, (0.9, 1.0));
        assert_eq!(c.velocity_range, (0.2, 0.3));
        assert!((c.max_angle_range - PI / 6.0).abs() < 1e-12);
        assert_eq!(c.beta_range, (0.4, 0.6));
    }

    #[test]
    fn small_scale_keeps_ratios() {
        let c = ExperimentConfig::small_default();
        assert_eq!(c.num_tasks, c.num_workers);
        assert_eq!(c.rt_range, ExperimentConfig::paper_default().rt_range);
    }

    #[test]
    fn sweeps_have_the_paper_cardinalities() {
        let base = ExperimentConfig::small_default();
        assert_eq!(ExperimentConfig::sweep_rt(&base).len(), 4);
        assert_eq!(ExperimentConfig::sweep_reliability(&base).len(), 4);
        assert_eq!(ExperimentConfig::sweep_tasks(&base, Scale::Paper).len(), 5);
        assert_eq!(
            ExperimentConfig::sweep_workers(&base, Scale::Small).len(),
            5
        );
        assert_eq!(ExperimentConfig::sweep_velocity(&base).len(), 4);
        assert_eq!(ExperimentConfig::sweep_angle(&base).len(), 5);
        assert_eq!(ExperimentConfig::sweep_beta(&base).len(), 5);
    }

    #[test]
    fn builders_change_exactly_one_axis() {
        let base = ExperimentConfig::small_default();
        let c = base.with_tasks(777);
        assert_eq!(c.num_tasks, 777);
        assert_eq!(c.num_workers, base.num_workers);
        let c = base.with_beta_range(0.8, 1.0);
        assert_eq!(c.beta_range, (0.8, 1.0));
        assert!((c.mean_beta() - 0.9).abs() < 1e-12);
    }
}
