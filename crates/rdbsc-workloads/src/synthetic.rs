//! Synthetic instance generation (Section 8.1).
//!
//! Locations follow the UNIFORM or SKEWED distribution; worker headings,
//! velocities, confidences, check-in times and task valid periods follow the
//! distributions spelled out in the paper:
//!
//! * moving direction: `α⁻` uniform in `[0, 2π)`, width `(α⁺ − α⁻)` uniform
//!   in `(0, max]`;
//! * confidence: Gaussian with mean `(p_min + p_max)/2` and standard
//!   deviation 0.02, clamped into `[p_min, p_max]`;
//! * velocity: uniform in `[v−, v+]`;
//! * task valid period: `[st, st + rt]` with `st` uniform in the start-time
//!   range and `rt` uniform in the expiration-time range;
//! * worker check-in times: uniform over the same start-time range.

use crate::config::{Distribution, ExperimentConfig};
use rand::Rng;
use rand_distr::{Distribution as RandDistribution, Normal};
use rdbsc_geo::{AngleRange, Point};
use rdbsc_model::{Confidence, ProblemInstance, Task, TaskId, TimeWindow, Worker, WorkerId};

/// Draws a location according to the configured spatial distribution.
pub fn sample_location<R: Rng + ?Sized>(distribution: Distribution, rng: &mut R) -> Point {
    match distribution {
        Distribution::Uniform => Point::new(rng.gen::<f64>(), rng.gen::<f64>()),
        Distribution::Skewed => {
            if rng.gen::<f64>() < 0.9 {
                let normal: Normal<f64> = Normal::new(0.5, 0.2).expect("valid normal parameters");
                Point::new(
                    normal.sample(rng).clamp(0.0, 1.0),
                    normal.sample(rng).clamp(0.0, 1.0),
                )
            } else {
                Point::new(rng.gen::<f64>(), rng.gen::<f64>())
            }
        }
    }
}

/// Draws a worker confidence from the paper's truncated Gaussian.
pub fn sample_confidence<R: Rng + ?Sized>(range: (f64, f64), rng: &mut R) -> Confidence {
    let (lo, hi) = range;
    let mean = (lo + hi) / 2.0;
    let normal = Normal::new(mean, 0.02).expect("valid normal parameters");
    Confidence::clamped(normal.sample(rng).clamp(lo, hi))
}

/// Generates a task according to the configuration.
pub fn sample_task<R: Rng + ?Sized>(config: &ExperimentConfig, rng: &mut R) -> Task {
    let location = sample_location(config.distribution, rng);
    let st = rng.gen_range(config.start_time_range.0..=config.start_time_range.1);
    let rt = rng.gen_range(config.rt_range.0..=config.rt_range.1);
    Task::new(
        TaskId(0),
        location,
        TimeWindow::new(st, st + rt).expect("rt is non-negative"),
    )
}

/// Generates a worker according to the configuration.
pub fn sample_worker<R: Rng + ?Sized>(config: &ExperimentConfig, rng: &mut R) -> Worker {
    let location = sample_location(config.distribution, rng);
    let speed = rng.gen_range(config.velocity_range.0..=config.velocity_range.1);
    let alpha_minus = rng.gen_range(0.0..std::f64::consts::TAU);
    let width = rng.gen_range(f64::EPSILON..=config.max_angle_range.max(f64::EPSILON));
    let heading = AngleRange::new(alpha_minus, width);
    let confidence = sample_confidence(config.reliability_range, rng);
    let check_in = rng.gen_range(config.start_time_range.0..=config.start_time_range.1);
    Worker::new(WorkerId(0), location, speed, heading, confidence)
        .expect("sampled speed is non-negative")
        .with_available_from(check_in)
}

/// Generates a full problem instance for an experiment configuration.
pub fn generate_instance<R: Rng + ?Sized>(
    config: &ExperimentConfig,
    rng: &mut R,
) -> ProblemInstance {
    let tasks: Vec<Task> = (0..config.num_tasks)
        .map(|_| sample_task(config, rng))
        .collect();
    let workers: Vec<Worker> = (0..config.num_workers)
        .map(|_| sample_worker(config, rng))
        .collect();
    ProblemInstance::new(tasks, workers, config.mean_beta())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn generated_instance_matches_requested_sizes() {
        let config = ExperimentConfig::for_scale(Scale::Small)
            .with_tasks(120)
            .with_workers(80);
        let instance = generate_instance(&config, &mut rng(1));
        assert_eq!(instance.num_tasks(), 120);
        assert_eq!(instance.num_workers(), 80);
        assert!((instance.beta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parameters_respect_configured_ranges() {
        let config = ExperimentConfig::small_default()
            .with_tasks(200)
            .with_workers(200)
            .with_rt_range(0.25, 0.5)
            .with_velocity_range(0.3, 0.4)
            .with_reliability_range(0.85, 1.0)
            .with_max_angle_range(std::f64::consts::PI / 8.0);
        let instance = generate_instance(&config, &mut rng(2));
        for t in &instance.tasks {
            let rt = t.window.duration();
            assert!((0.25..=0.5 + 1e-9).contains(&rt), "rt {rt} out of range");
            assert!(t.window.start >= 0.0 && t.window.start <= 24.0);
            assert!(t.location.x >= 0.0 && t.location.x <= 1.0);
            assert!(t.location.y >= 0.0 && t.location.y <= 1.0);
        }
        for w in &instance.workers {
            assert!((0.3..=0.4).contains(&w.speed));
            assert!(w.p() >= 0.85 && w.p() <= 1.0);
            assert!(w.heading.width() <= std::f64::consts::PI / 8.0 + 1e-9);
            assert!(w.heading.width() > 0.0);
            assert!(w.available_from >= 0.0 && w.available_from <= 24.0);
        }
    }

    #[test]
    fn skewed_distribution_concentrates_near_the_center() {
        let config = ExperimentConfig::small_default()
            .with_tasks(2_000)
            .with_workers(0)
            .with_distribution(Distribution::Skewed);
        let instance = generate_instance(&config, &mut rng(3));
        let near_center = instance
            .tasks
            .iter()
            .filter(|t| t.location.distance(Point::new(0.5, 0.5)) < 0.3)
            .count();
        // Under UNIFORM roughly π·0.09 ≈ 28 % of points fall in that disk;
        // SKEWED should put well over half there.
        assert!(
            near_center as f64 > 0.5 * instance.num_tasks() as f64,
            "only {near_center} of {} tasks near the centre",
            instance.num_tasks()
        );
    }

    #[test]
    fn uniform_distribution_spreads_over_the_space() {
        let config = ExperimentConfig::small_default()
            .with_tasks(2_000)
            .with_workers(0);
        let instance = generate_instance(&config, &mut rng(4));
        // Count tasks per quadrant: each should hold a reasonable share.
        let mut quadrants = [0usize; 4];
        for t in &instance.tasks {
            let q = (t.location.x > 0.5) as usize + 2 * ((t.location.y > 0.5) as usize);
            quadrants[q] += 1;
        }
        for q in quadrants {
            assert!(
                q > 300,
                "quadrant too empty for a uniform distribution: {quadrants:?}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = ExperimentConfig::small_default()
            .with_tasks(50)
            .with_workers(50);
        let a = generate_instance(&config, &mut rng(7));
        let b = generate_instance(&config, &mut rng(7));
        for (ta, tb) in a.tasks.iter().zip(b.tasks.iter()) {
            assert_eq!(ta.location, tb.location);
            assert_eq!(ta.window, tb.window);
        }
        for (wa, wb) in a.workers.iter().zip(b.workers.iter()) {
            assert_eq!(wa.location, wb.location);
            assert_eq!(wa.p(), wb.p());
        }
    }
}
