//! Simulated Point-of-Interest data set.
//!
//! The paper initialises task locations from the Beijing POI data set
//! (74,013 POIs inside the 5th ring road), uniformly sampling 10,000 of them.
//! That data set is not redistributable here, so this module generates a
//! synthetic stand-in with the same statistical character: an urban density
//! field made of a handful of dense Gaussian "district" clusters over a
//! bounding box, plus a uniform background. The downstream algorithms only
//! consume point locations, so any clustered, non-uniform point set exercises
//! the same code paths (see DESIGN.md §4).

use crate::config::ExperimentConfig;
use rand::Rng;
use rand_distr::{Distribution as RandDistribution, Normal};
use rdbsc_geo::{Point, Rect};
use rdbsc_model::{ProblemInstance, Task, TaskId, TimeWindow};

/// Generator of POI-like clustered point sets.
#[derive(Debug, Clone)]
pub struct PoiGenerator {
    /// Bounding box of the simulated city (defaults to the unit square; the
    /// paper's Beijing box is lat 39.6–40.25, lon 116.1–116.75, which we
    /// normalise to the unit square anyway).
    pub bbox: Rect,
    /// Number of district clusters.
    pub num_clusters: usize,
    /// Standard deviation of each cluster relative to the bounding box size.
    pub cluster_spread: f64,
    /// Fraction of POIs drawn from the uniform background rather than a
    /// cluster.
    pub background_fraction: f64,
}

impl Default for PoiGenerator {
    fn default() -> Self {
        Self {
            bbox: Rect::unit(),
            num_clusters: 8,
            cluster_spread: 0.06,
            background_fraction: 0.2,
        }
    }
}

impl PoiGenerator {
    /// Samples `count` POI locations.
    pub fn sample_points<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Point> {
        let centers: Vec<Point> = (0..self.num_clusters.max(1))
            .map(|_| {
                Point::new(
                    rng.gen_range(self.bbox.min_x..=self.bbox.max_x),
                    rng.gen_range(self.bbox.min_y..=self.bbox.max_y),
                )
            })
            .collect();
        let spread_x = self.cluster_spread * self.bbox.width();
        let spread_y = self.cluster_spread * self.bbox.height();
        (0..count)
            .map(|_| {
                if rng.gen::<f64>() < self.background_fraction {
                    Point::new(
                        rng.gen_range(self.bbox.min_x..=self.bbox.max_x),
                        rng.gen_range(self.bbox.min_y..=self.bbox.max_y),
                    )
                } else {
                    let c = centers[rng.gen_range(0..centers.len())];
                    let nx = Normal::new(c.x, spread_x.max(1e-9)).expect("valid normal");
                    let ny = Normal::new(c.y, spread_y.max(1e-9)).expect("valid normal");
                    self.bbox
                        .clamp_point(Point::new(nx.sample(rng), ny.sample(rng)))
                }
            })
            .collect()
    }

    /// Samples `count` tasks whose locations come from the POI field and
    /// whose valid periods follow the experiment configuration (as in the
    /// paper's real-data experiments, which reuse the synthetic settings for
    /// everything but the locations).
    pub fn sample_tasks<R: Rng + ?Sized>(
        &self,
        count: usize,
        config: &ExperimentConfig,
        rng: &mut R,
    ) -> Vec<Task> {
        self.sample_points(count, rng)
            .into_iter()
            .map(|location| {
                let st = rng.gen_range(config.start_time_range.0..=config.start_time_range.1);
                let rt = rng.gen_range(config.rt_range.0..=config.rt_range.1);
                Task::new(
                    TaskId(0),
                    location,
                    TimeWindow::new(st, st + rt).expect("rt is non-negative"),
                )
            })
            .collect()
    }

    /// Builds a full "simulated real data" instance: POI tasks plus
    /// trajectory-derived workers (see [`crate::trajectories`]).
    pub fn instance_with_trajectory_workers<R: Rng + ?Sized>(
        &self,
        config: &ExperimentConfig,
        rng: &mut R,
    ) -> ProblemInstance {
        let tasks = self.sample_tasks(config.num_tasks, config, rng);
        let generator = crate::trajectories::TrajectoryGenerator::default();
        let workers = generator.sample_workers(config.num_workers, config, rng);
        ProblemInstance::new(tasks, workers, config.mean_beta())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdbsc_index::estimate_fractal_dimension;

    #[test]
    fn points_stay_inside_the_bounding_box() {
        let gen = PoiGenerator::default();
        let mut rng = StdRng::seed_from_u64(1);
        for p in gen.sample_points(500, &mut rng) {
            assert!(gen.bbox.contains(p));
        }
    }

    #[test]
    fn poi_field_is_more_clustered_than_uniform() {
        // Its correlation fractal dimension should be noticeably below 2.
        let gen = PoiGenerator::default();
        let mut rng = StdRng::seed_from_u64(2);
        let pts = gen.sample_points(4_000, &mut rng);
        let d2 = estimate_fractal_dimension(&pts, Rect::unit());
        assert!(d2 < 1.95, "POI field should be clustered, D2 = {d2}");
    }

    #[test]
    fn tasks_follow_the_experiment_config_windows() {
        let gen = PoiGenerator::default();
        let config = ExperimentConfig::small_default().with_rt_range(1.0, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for t in gen.sample_tasks(200, &config, &mut rng) {
            let rt = t.window.duration();
            assert!((1.0..=2.0 + 1e-9).contains(&rt));
        }
    }

    #[test]
    fn full_simulated_real_instance_builds() {
        let gen = PoiGenerator::default();
        let config = ExperimentConfig::small_default()
            .with_tasks(100)
            .with_workers(60);
        let mut rng = StdRng::seed_from_u64(4);
        let instance = gen.instance_with_trajectory_workers(&config, &mut rng);
        assert_eq!(instance.num_tasks(), 100);
        assert_eq!(instance.num_workers(), 60);
    }
}
