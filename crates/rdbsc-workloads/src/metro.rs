//! Multi-city ("metro area") workloads for the online assignment engine.
//!
//! The paper's UNIFORM/SKEWED settings (Table 2) cover one homogeneous data
//! space. Real spatial-crowdsourcing traffic is polycentric instead: tasks
//! and workers concentrate in distinct urban areas separated by regions with
//! hardly any of either. That structure is what makes the engine's
//! connected-component sharding effective — with a dense uniform worker
//! carpet the cell-reachability graph percolates into one giant component,
//! while separated metro areas decompose into one independent sub-problem
//! per area.
//!
//! Tasks in this workload are *online snapshots*: every valid period starts
//! within a short horizon of "now", matching what a live engine actually
//! holds (future tasks arrive later as events).

use crate::synthetic::sample_confidence;
use rand::Rng;
use rand_distr::{Distribution as RandDistribution, Normal};
use rdbsc_geo::{AngleRange, Point};
use rdbsc_model::{ProblemInstance, Task, TaskId, TimeWindow, Worker, WorkerId};

/// Configuration of a metro-area workload over `[0, 1]²`.
#[derive(Debug, Clone)]
pub struct MetroConfig {
    /// Number of city centres, laid out on a `⌈√cities⌉`-column grid.
    pub cities: usize,
    /// Standard deviation of task/worker scatter around each centre.
    pub spread: f64,
    /// Total number of tasks, split evenly over the cities.
    pub num_tasks: usize,
    /// Total number of workers, split evenly over the cities.
    pub num_workers: usize,
    /// Range of task valid-period lengths (`rt` of Table 2).
    pub rt_range: (f64, f64),
    /// Horizon within which every task's valid period starts.
    pub start_horizon: f64,
    /// Range of worker velocities.
    pub velocity_range: (f64, f64),
    /// Range `[p_min, p_max]` of worker reliabilities.
    pub reliability_range: (f64, f64),
    /// Maximum width of the moving-direction cone.
    pub max_angle_range: f64,
    /// Instance-level diversity balance weight.
    pub beta: f64,
}

impl Default for MetroConfig {
    fn default() -> Self {
        Self {
            cities: 4,
            spread: 0.03,
            num_tasks: 1_000,
            num_workers: 5_000,
            rt_range: (0.25, 0.5),
            start_horizon: 0.2,
            velocity_range: (0.1, 0.2),
            reliability_range: (0.9, 1.0),
            max_angle_range: std::f64::consts::TAU,
            beta: 0.5,
        }
    }
}

impl MetroConfig {
    /// Builder-style task/worker count setters.
    pub fn with_tasks(mut self, m: usize) -> Self {
        self.num_tasks = m;
        self
    }

    /// Sets the number of workers.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.num_workers = n;
        self
    }

    /// Sets the number of cities.
    pub fn with_cities(mut self, cities: usize) -> Self {
        self.cities = cities.max(1);
        self
    }

    /// The city centres, on a near-square grid with a margin keeping the
    /// scatter inside the unit square.
    pub fn city_centers(&self) -> Vec<Point> {
        let cities = self.cities.max(1);
        let cols = (cities as f64).sqrt().ceil() as usize;
        let rows = cities.div_ceil(cols);
        (0..cities)
            .map(|c| {
                let col = c % cols;
                let row = c / cols;
                Point::new(
                    (col as f64 + 0.5) / cols as f64,
                    (row as f64 + 0.5) / rows as f64,
                )
            })
            .collect()
    }
}

/// Generates a metro-area instance: city `i` receives every `cities`-th task
/// and worker, scattered around its centre with Gaussian noise.
pub fn generate_metro_instance<R: Rng + ?Sized>(
    config: &MetroConfig,
    rng: &mut R,
) -> ProblemInstance {
    let centers = config.city_centers();
    let scatter = Normal::new(0.0, config.spread.max(1e-9)).expect("valid spread");
    // Truncate the scatter at 2.5σ: untruncated Gaussian tails would place
    // the occasional worker halfway between cities and bridge the otherwise
    // independent components.
    let max_radius = 2.5 * config.spread.max(1e-9);
    let place = |center: Point, rng: &mut R| {
        let (mut dx, mut dy) = (scatter.sample(rng), scatter.sample(rng));
        while dx * dx + dy * dy > max_radius * max_radius {
            dx = scatter.sample(rng);
            dy = scatter.sample(rng);
        }
        Point::new(
            (center.x + dx).clamp(0.0, 1.0),
            (center.y + dy).clamp(0.0, 1.0),
        )
    };

    let tasks: Vec<Task> = (0..config.num_tasks)
        .map(|i| {
            let center = centers[i % centers.len()];
            let st = rng.gen_range(0.0..=config.start_horizon.max(0.0));
            let rt = rng.gen_range(config.rt_range.0..=config.rt_range.1);
            Task::new(
                TaskId(0),
                place(center, rng),
                TimeWindow::new(st, st + rt).expect("rt is non-negative"),
            )
        })
        .collect();

    let workers: Vec<Worker> = (0..config.num_workers)
        .map(|j| {
            let center = centers[j % centers.len()];
            let speed = rng.gen_range(config.velocity_range.0..=config.velocity_range.1);
            let alpha_minus = rng.gen_range(0.0..std::f64::consts::TAU);
            let width = rng.gen_range(f64::EPSILON..=config.max_angle_range.max(f64::EPSILON));
            Worker::new(
                WorkerId(0),
                place(center, rng),
                speed,
                AngleRange::new(alpha_minus, width),
                sample_confidence(config.reliability_range, rng),
            )
            .expect("sampled speed is non-negative")
        })
        .collect();

    ProblemInstance::new(tasks, workers, config.beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn centers_are_spread_and_inside_the_space() {
        let config = MetroConfig::default();
        let centers = config.city_centers();
        assert_eq!(centers.len(), 4);
        for c in &centers {
            assert!((0.0..=1.0).contains(&c.x) && (0.0..=1.0).contains(&c.y));
        }
        // 2x2 layout: distinct rows and columns.
        assert!((centers[0].x - centers[1].x).abs() > 0.2);
        assert!((centers[0].y - centers[2].y).abs() > 0.2);
        // 9 cities lay out on a 3x3 grid.
        let nine = config.with_cities(9).city_centers();
        assert_eq!(nine.len(), 9);
        assert!((nine[0].y - nine[3].y).abs() > 0.2);
    }

    #[test]
    fn instance_clusters_around_the_centers() {
        let config = MetroConfig::default().with_tasks(450).with_workers(900);
        let mut rng = StdRng::seed_from_u64(5);
        let instance = generate_metro_instance(&config, &mut rng);
        assert_eq!(instance.num_tasks(), 450);
        assert_eq!(instance.num_workers(), 900);
        let centers = config.city_centers();
        let near = |p: Point| {
            centers
                .iter()
                .map(|c| c.distance(p))
                .fold(f64::INFINITY, f64::min)
        };
        for t in &instance.tasks {
            assert!(near(t.location) < 0.2, "task far from every city");
            assert!(t.window.start <= config.start_horizon);
        }
        for w in &instance.workers {
            assert!(near(w.location) < 0.2, "worker far from every city");
        }
    }

    #[test]
    fn one_city_degenerates_to_a_single_cluster() {
        let config = MetroConfig::default()
            .with_cities(1)
            .with_tasks(50)
            .with_workers(50);
        let mut rng = StdRng::seed_from_u64(6);
        let instance = generate_metro_instance(&config, &mut rng);
        for t in &instance.tasks {
            assert!(t.location.distance(Point::new(0.5, 0.5)) < 0.25);
        }
    }
}
