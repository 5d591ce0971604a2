//! Simulated taxi-trajectory data set.
//!
//! The paper derives its moving workers from the T-Drive taxi trajectories:
//! the worker's location is the trajectory's start point, the speed is the
//! taxi's average speed, and the moving-direction range is the minimal sector
//! at the start point that contains every later trajectory point. T-Drive is
//! not bundled here, so this module generates random-waypoint, taxi-like
//! trajectories over the same unit-square "city" and applies *exactly the
//! same derivation* (see DESIGN.md §4).

use crate::config::ExperimentConfig;
use crate::synthetic::sample_confidence;
use rand::Rng;
use rdbsc_geo::{Point, Rect, Sector};
use rdbsc_model::{ProblemInstance, Task, Worker, WorkerId};

/// One simulated taxi trajectory: a sequence of timestamped points.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Timestamped positions, in increasing time order.
    pub points: Vec<(f64, Point)>,
}

impl Trajectory {
    /// Start point of the trajectory.
    pub fn start(&self) -> Point {
        self.points
            .first()
            .map(|(_, p)| *p)
            .unwrap_or(Point::ORIGIN)
    }

    /// Start time of the trajectory.
    pub fn start_time(&self) -> f64 {
        self.points.first().map(|(t, _)| *t).unwrap_or(0.0)
    }

    /// Total travelled distance.
    pub fn length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].1.distance(w[1].1))
            .sum()
    }

    /// Average speed over the trajectory (0 for degenerate trajectories).
    pub fn average_speed(&self) -> f64 {
        let duration = match (self.points.first(), self.points.last()) {
            (Some((t0, _)), Some((t1, _))) if t1 > t0 => t1 - t0,
            _ => return 0.0,
        };
        self.length() / duration
    }

    /// The minimal sector at the start point containing every later point
    /// (the paper's derivation of the worker's moving-angle range).
    pub fn enclosing_sector(&self) -> Sector {
        let start = self.start();
        let later: Vec<Point> = self.points.iter().skip(1).map(|(_, p)| *p).collect();
        let radius = later
            .iter()
            .map(|p| start.distance(*p))
            .fold(0.0f64, f64::max);
        Sector::covering(start, &later, radius)
    }
}

/// Generator of random-waypoint taxi trajectories.
#[derive(Debug, Clone)]
pub struct TrajectoryGenerator {
    /// Bounding box of the simulated city.
    pub bbox: Rect,
    /// Number of waypoints per trajectory (min, max).
    pub waypoints: (usize, usize),
    /// Length of each leg as a fraction of the bounding-box diagonal
    /// (min, max).
    pub leg_length: (f64, f64),
    /// Drift: how strongly successive legs keep the previous direction
    /// (0 = fully random turns, 1 = straight line). Taxis mostly keep going
    /// roughly the same way, which is what produces narrow direction sectors.
    pub persistence: f64,
}

impl Default for TrajectoryGenerator {
    fn default() -> Self {
        Self {
            bbox: Rect::unit(),
            waypoints: (4, 12),
            leg_length: (0.02, 0.08),
            persistence: 0.8,
        }
    }
}

impl TrajectoryGenerator {
    /// Samples one trajectory starting within the configured time range.
    pub fn sample_trajectory<R: Rng + ?Sized>(
        &self,
        config: &ExperimentConfig,
        rng: &mut R,
    ) -> Trajectory {
        let start = Point::new(
            rng.gen_range(self.bbox.min_x..=self.bbox.max_x),
            rng.gen_range(self.bbox.min_y..=self.bbox.max_y),
        );
        let start_time = rng.gen_range(config.start_time_range.0..=config.start_time_range.1);
        let speed = rng.gen_range(config.velocity_range.0..=config.velocity_range.1);
        let diag = (self.bbox.width().powi(2) + self.bbox.height().powi(2)).sqrt();
        let n = rng.gen_range(self.waypoints.0..=self.waypoints.1.max(self.waypoints.0));

        let mut points = vec![(start_time, start)];
        let mut heading = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut now = start_time;
        let mut here = start;
        for _ in 0..n {
            let turn = (1.0 - self.persistence)
                * rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            heading += turn;
            let leg = diag * rng.gen_range(self.leg_length.0..=self.leg_length.1);
            let next = self.bbox.clamp_point(here.translate_polar(heading, leg));
            let dist = here.distance(next);
            now += if speed > 0.0 { dist / speed } else { 0.0 };
            here = next;
            points.push((now, here));
        }
        Trajectory { points }
    }

    /// Derives a worker from a trajectory, exactly as the paper does:
    /// location = start point, speed = average speed, heading range =
    /// enclosing sector at the start point, check-in time = trajectory start.
    pub fn worker_from_trajectory<R: Rng + ?Sized>(
        &self,
        id: usize,
        trajectory: &Trajectory,
        config: &ExperimentConfig,
        rng: &mut R,
    ) -> Worker {
        let sector = trajectory.enclosing_sector();
        let speed = trajectory.average_speed();
        let confidence = sample_confidence(config.reliability_range, rng);
        Worker::new(
            WorkerId::from(id),
            trajectory.start(),
            speed.max(1e-6),
            sector.angles,
            confidence,
        )
        .expect("trajectory speed is non-negative")
        .with_available_from(trajectory.start_time())
    }

    /// Samples `count` workers from fresh trajectories.
    pub fn sample_workers<R: Rng + ?Sized>(
        &self,
        count: usize,
        config: &ExperimentConfig,
        rng: &mut R,
    ) -> Vec<Worker> {
        (0..count)
            .map(|i| {
                let trajectory = self.sample_trajectory(config, rng);
                self.worker_from_trajectory(i, &trajectory, config, rng)
            })
            .collect()
    }

    /// Builds a full "simulated real data" instance together with a POI task
    /// set.
    pub fn instance_with_poi_tasks<R: Rng + ?Sized>(
        &self,
        config: &ExperimentConfig,
        rng: &mut R,
    ) -> ProblemInstance {
        let poi = crate::poi::PoiGenerator::default();
        let tasks: Vec<Task> = poi.sample_tasks(config.num_tasks, config, rng);
        let workers = self.sample_workers(config.num_workers, config, rng);
        ProblemInstance::new(tasks, workers, config.mean_beta())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> ExperimentConfig {
        ExperimentConfig::small_default()
    }

    #[test]
    fn trajectories_are_time_ordered_and_in_bounds() {
        let gen = TrajectoryGenerator::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let t = gen.sample_trajectory(&config(), &mut rng);
            assert!(t.points.len() >= 2);
            for w in t.points.windows(2) {
                assert!(w[1].0 >= w[0].0, "timestamps must be non-decreasing");
            }
            for (_, p) in &t.points {
                assert!(gen.bbox.contains(*p));
            }
        }
    }

    #[test]
    fn average_speed_matches_the_sampled_velocity_range() {
        let gen = TrajectoryGenerator::default();
        let cfg = config().with_velocity_range(0.2, 0.3);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let t = gen.sample_trajectory(&cfg, &mut rng);
            let v = t.average_speed();
            // Clamping at the boundary may slightly reduce the average speed,
            // but it can never exceed the sampled speed.
            assert!(v <= 0.3 + 1e-9, "average speed {v} too high");
            assert!(v > 0.0);
        }
    }

    #[test]
    fn enclosing_sector_contains_every_later_point() {
        let gen = TrajectoryGenerator::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let t = gen.sample_trajectory(&config(), &mut rng);
            let sector = t.enclosing_sector();
            for (_, p) in t.points.iter().skip(1) {
                assert!(
                    sector.contains(*p),
                    "sector must contain trajectory point {p}"
                );
            }
        }
    }

    #[test]
    fn derived_workers_mirror_their_trajectory() {
        let gen = TrajectoryGenerator::default();
        let cfg = config();
        let mut rng = StdRng::seed_from_u64(4);
        let trajectory = gen.sample_trajectory(&cfg, &mut rng);
        let worker = gen.worker_from_trajectory(7, &trajectory, &cfg, &mut rng);
        assert_eq!(worker.location, trajectory.start());
        assert_eq!(worker.available_from, trajectory.start_time());
        assert!((worker.speed - trajectory.average_speed()).abs() < 1e-9);
        assert_eq!(worker.id.index(), 7);
    }

    #[test]
    fn persistence_yields_narrow_direction_sectors() {
        // Taxi-like (persistent) trajectories should mostly produce sectors
        // much narrower than the full circle.
        let gen = TrajectoryGenerator {
            persistence: 0.9,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut narrow = 0;
        let total = 50;
        for _ in 0..total {
            let t = gen.sample_trajectory(&config(), &mut rng);
            if t.enclosing_sector().angles.width() < std::f64::consts::PI {
                narrow += 1;
            }
        }
        assert!(
            narrow as f64 > 0.6 * total as f64,
            "only {narrow}/{total} sectors narrow"
        );
    }

    #[test]
    fn full_instance_builds_with_poi_tasks() {
        let gen = TrajectoryGenerator::default();
        let cfg = config().with_tasks(80).with_workers(50);
        let mut rng = StdRng::seed_from_u64(6);
        let instance = gen.instance_with_poi_tasks(&cfg, &mut rng);
        assert_eq!(instance.num_tasks(), 80);
        assert_eq!(instance.num_workers(), 50);
        // Workers are usable: at least some can serve some task.
        let pairs = rdbsc_model::compute_valid_pairs(&instance);
        assert!(pairs.num_pairs() > 0);
    }
}
