//! The gMission-style platform simulator (Sections 8.1 and 8.4).
//!
//! The simulated deployment mirrors the paper's live experiment: a handful of
//! *sites* repeatedly ask photo tasks that stay open for a fixed duration, a
//! small population of walking *users* answers them, and the platform
//! re-assigns the available users to the open tasks every `t_interval` using
//! the incremental updating strategy (Figure 10). Users complete their
//! assigned task with their (peer-rating-derived) confidence and submit an
//! answer with angular/temporal noise; the simulator tracks the minimum task
//! reliability, the total expected diversity, the answer accuracy and the
//! coverage scores over the whole testing period — exactly the quantities the
//! paper reports in Figures 18–20.

use crate::accuracy::{task_accuracy, AnswerRecord};
use crate::coverage::{coverage_report, CoverageReport};
use rand::Rng;
use rand_distr::{Distribution as RandDistribution, Normal};
use rdbsc_algos::{IncrementalAssigner, IncrementalConfig, Solver};
use rdbsc_geo::{AngleRange, Point, Rect};
use rdbsc_index::cost_model::{optimal_eta, CostModelParams};
use rdbsc_index::{GridIndex, SpatialIndex};
use rdbsc_model::{
    BipartiteCandidates, Confidence, ObjectiveValue, ProblemInstance, Task, TaskId, TimeWindow,
    ValidPair, Worker, WorkerId,
};
use rdbsc_workloads::{PeerRatingModel, RatedUser};
use std::collections::HashMap;

/// Configuration of the platform simulation.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of sites asking tasks (the paper used 5).
    pub num_sites: usize,
    /// Number of users/workers (the paper hired 10).
    pub num_users: usize,
    /// How long each task stays open (the paper used 15 minutes).
    pub task_open_duration: f64,
    /// Length of the periodic update interval `t_interval` (1–4 minutes in
    /// the paper).
    pub t_interval: f64,
    /// Total simulated duration.
    pub total_duration: f64,
    /// Walking speed of users, in data-space units per minute. Sites are
    /// placed so that walking between neighbouring sites takes roughly two
    /// minutes, as in the paper.
    pub user_speed: f64,
    /// Balance weight β used by the tasks.
    pub beta: f64,
    /// Standard deviation of the angular answer noise (radians).
    pub angle_noise: f64,
    /// Standard deviation of the temporal answer noise (minutes).
    pub time_noise: f64,
    /// Field of view assumed for the coverage report.
    pub field_of_view: f64,
    /// Temporal tolerance assumed for the coverage report.
    pub time_tolerance: f64,
    /// Number of photos per user in the peer-rating warm-up.
    pub rating_photos_per_user: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            num_sites: 5,
            num_users: 10,
            task_open_duration: 15.0,
            t_interval: 1.0,
            total_duration: 60.0,
            user_speed: 0.05,
            beta: 0.5,
            angle_noise: 0.2,
            time_noise: 0.5,
            field_of_view: std::f64::consts::FRAC_PI_3,
            time_tolerance: 2.0,
            rating_photos_per_user: 12,
        }
    }
}

/// Per-round statistics.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Simulation time at the end of the round.
    pub time: f64,
    /// Number of workers newly assigned in this round.
    pub new_assignments: usize,
    /// Number of answers received during this round.
    pub answers_received: usize,
    /// Objective value of the platform state after the round.
    pub objective: ObjectiveValue,
}

/// Final report of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// Minimum task reliability at the end of the run.
    pub min_reliability: f64,
    /// Total expected diversity at the end of the run.
    pub total_std: f64,
    /// Mean answer accuracy over all received answers (`None` when no answer
    /// was received).
    pub mean_accuracy: Option<f64>,
    /// Total number of answers received.
    pub total_answers: usize,
    /// Coverage report per task.
    pub coverage: Vec<(TaskId, CoverageReport)>,
}

impl SimulationReport {
    /// Mean combined coverage over the tasks that received answers.
    pub fn mean_coverage(&self, beta: f64) -> f64 {
        let covered: Vec<f64> = self
            .coverage
            .iter()
            .filter(|(_, c)| c.answers > 0)
            .map(|(_, c)| c.combined(beta))
            .collect();
        if covered.is_empty() {
            0.0
        } else {
            covered.iter().sum::<f64>() / covered.len() as f64
        }
    }
}

/// A travelling user within the simulation.
#[derive(Debug, Clone, Copy)]
struct UserState {
    position: Point,
    /// Latent photo quality (kept for inspection/tests; the platform itself
    /// only sees the peer-rating-derived confidence).
    #[allow(dead_code)]
    latent_quality: f64,
    confidence: Confidence,
    /// The pair the user is currently serving, if any.
    en_route: Option<ValidPair>,
}

/// The platform simulator, generic over the spatial index its per-round
/// candidate retrieval runs on (the classic grid by default).
pub struct PlatformSim<I: SpatialIndex = GridIndex> {
    config: PlatformConfig,
    tasks: Vec<Task>,
    users: Vec<UserState>,
    answers: HashMap<TaskId, Vec<(AnswerRecord, f64, f64)>>, // (record, direction, time)
    assigner: IncrementalAssigner,
    /// The live index: all of the run's tasks plus the users' current
    /// positions, maintained incrementally across rounds.
    index: I,
}

impl PlatformSim<GridIndex> {
    /// Builds a simulation: lays the sites out, creates one task per site per
    /// opening wave over the whole duration, and derives user reliabilities
    /// from the peer-rating model. Candidates are retrieved through a
    /// cost-model-sized [`GridIndex`]; use
    /// [`PlatformSim::with_index`] to run on a different backend.
    pub fn new<R: Rng + ?Sized>(config: PlatformConfig, solver: Solver, rng: &mut R) -> Self {
        // L_max: the farthest a user can walk while one task wave is open.
        let l_max = (config.user_speed * config.task_open_duration).clamp(1e-3, 1.0);
        let num_sites = config.num_sites.max(1);
        let waves = (config.total_duration / config.task_open_duration.max(1e-9)).ceil() as usize;
        let params = CostModelParams::uniform(l_max, (num_sites * waves.max(1)).max(2));
        let index = GridIndex::new(Rect::unit(), optimal_eta(&params));
        Self::with_index(config, solver, index, rng)
    }
}

impl<I: SpatialIndex> PlatformSim<I> {
    /// Builds a simulation on an explicit (empty) spatial-index backend.
    pub fn with_index<R: Rng + ?Sized>(
        config: PlatformConfig,
        solver: Solver,
        index: I,
        rng: &mut R,
    ) -> Self {
        // Sites on a circle whose neighbouring distance is walkable in about
        // two minutes at the configured speed.
        let spacing = 2.0 * config.user_speed;
        let radius =
            spacing / (2.0 * (std::f64::consts::PI / config.num_sites.max(1) as f64).sin());
        let center = Point::new(0.5, 0.5);
        let sites: Vec<Point> = (0..config.num_sites.max(1))
            .map(|i| {
                let angle = std::f64::consts::TAU * i as f64 / config.num_sites.max(1) as f64;
                center.translate_polar(angle, radius)
            })
            .collect();

        // One task per site per opening wave, with dense ids (the same
        // renumbering `ProblemInstance::new` applies, so the live index and
        // the per-round instances always agree on ids).
        let mut tasks = Vec::new();
        let mut wave_start = 0.0;
        while wave_start < config.total_duration {
            for site in &sites {
                let end = (wave_start + config.task_open_duration).min(config.total_duration);
                tasks.push(Task::new(
                    TaskId::from(tasks.len()),
                    *site,
                    TimeWindow::new(wave_start, end).expect("valid wave window"),
                ));
            }
            wave_start += config.task_open_duration;
        }
        let mut index = index;
        for task in &tasks {
            index.insert_task(*task);
        }

        // Users with peer-rated reliabilities, starting near the centre.
        let rating = PeerRatingModel::default();
        let users: Vec<UserState> = (0..config.num_users)
            .map(|_| {
                let latent_quality = rng.gen_range(0.6..0.98);
                let confidence = rating.user_reliability(
                    &RatedUser {
                        latent_quality,
                        num_photos: config.rating_photos_per_user,
                    },
                    rng,
                );
                let position = Point::new(rng.gen_range(0.35..0.65), rng.gen_range(0.35..0.65));
                UserState {
                    position,
                    latent_quality,
                    confidence,
                    en_route: None,
                }
            })
            .collect();

        let num_tasks = tasks.len();
        let num_users = users.len();
        Self {
            config,
            tasks,
            users,
            answers: HashMap::new(),
            assigner: IncrementalAssigner::new(num_tasks, num_users, IncrementalConfig { solver }),
            index,
        }
    }

    /// Number of tasks generated for the whole run.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Builds the instance view of the platform at time `now`.
    fn instance_at(&self, now: f64) -> ProblemInstance {
        let workers: Vec<Worker> = self
            .users
            .iter()
            .enumerate()
            .map(|(i, u)| {
                Worker::new(
                    WorkerId::from(i),
                    u.position,
                    self.config.user_speed,
                    AngleRange::full(),
                    u.confidence,
                )
                .expect("speed is non-negative")
                .with_available_from(now)
            })
            .collect();
        let mut instance = ProblemInstance::new(self.tasks.clone(), workers, self.config.beta);
        instance.depart_at = now;
        instance
    }

    /// Valid pairs at time `now`, retrieved through the live index: expired
    /// task waves are dropped from the index, the users' fresh positions and
    /// availability are written in, and the cell-pruned retrieval produces
    /// exactly the pairs the brute-force `check_pair` scan would.
    fn candidates_at(&mut self, instance: &ProblemInstance, now: f64) -> BipartiteCandidates {
        for id in self.index.expired_tasks(now) {
            self.index.remove_task(id);
        }
        for worker in &instance.workers {
            self.index.insert_worker(*worker);
        }
        self.index.set_depart_at(now);
        self.index.set_allow_wait(instance.allow_wait);
        self.index.retrieve_valid_pairs()
    }

    /// Runs the whole simulation and returns the report.
    pub fn run<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SimulationReport {
        let mut rounds = Vec::new();
        let mut now = 0.0;
        let mut final_instance = self.instance_at(0.0);
        while now < self.config.total_duration {
            let round_end = (now + self.config.t_interval).min(self.config.total_duration);

            // 1. Assign available users to open tasks.
            let instance = self.instance_at(now);
            let candidates = self.candidates_at(&instance, now);
            let outcome = self.assigner.assign_round(&instance, &candidates, rng);
            for pair in &outcome.new_pairs {
                self.users[pair.worker.index()].en_route = Some(*pair);
            }

            // 2. Let users travel; those whose arrival falls inside this
            //    round either complete the task (with their confidence) or
            //    give up.
            let mut answers_received = 0usize;
            for i in 0..self.users.len() {
                let Some(pair) = self.users[i].en_route else {
                    continue;
                };
                if pair.contribution.arrival > round_end {
                    continue; // still travelling
                }
                let task = &self.tasks[pair.task.index()];
                let success = rng.gen::<f64>() < self.users[i].confidence.value();
                if success {
                    // Noisy answer: facing direction and answer time deviate
                    // from the planned contribution.
                    let angle_noise: Normal<f64> =
                        Normal::new(0.0, self.config.angle_noise.max(1e-9)).expect("valid normal");
                    let time_noise: Normal<f64> =
                        Normal::new(0.0, self.config.time_noise.max(1e-9)).expect("valid normal");
                    let d_theta = angle_noise.sample(rng).abs();
                    let d_t = time_noise.sample(rng).abs();
                    let record = AnswerRecord::new(d_theta, d_t, task.window);
                    let direction = pair.contribution.angle + d_theta;
                    let answer_time = task.window.clamp(pair.contribution.arrival + d_t);
                    self.answers.entry(pair.task).or_default().push((
                        record,
                        direction,
                        answer_time,
                    ));
                    // The answer's realised contribution is banked.
                    let realised = rdbsc_model::Contribution::new(
                        self.users[i].confidence,
                        direction,
                        answer_time,
                    );
                    self.assigner.record_answer(pair.worker, realised);
                    answers_received += 1;
                } else {
                    self.assigner.release_worker(pair.worker);
                }
                // Either way the user is now at the task location.
                self.users[i].position = task.location;
                self.users[i].en_route = None;
            }

            now = round_end;
            final_instance = instance;
            rounds.push(RoundStats {
                time: now,
                new_assignments: outcome.new_pairs.len(),
                answers_received,
                objective: self.assigner.current_objective(&final_instance),
            });
        }

        // Final aggregation.
        let objective = self.assigner.current_objective(&final_instance);
        let mut accuracies = Vec::new();
        let mut coverage = Vec::new();
        for (task_id, entries) in &self.answers {
            let task = &self.tasks[task_id.index()];
            let records: Vec<AnswerRecord> = entries.iter().map(|(r, _, _)| *r).collect();
            if let Some(acc) = task_accuracy(&records, task.window, self.config.beta) {
                accuracies.push(acc);
            }
            let answer_pairs: Vec<(f64, f64)> =
                entries.iter().map(|(_, dir, t)| (*dir, *t)).collect();
            coverage.push((
                *task_id,
                coverage_report(
                    &answer_pairs,
                    task.window,
                    self.config.field_of_view,
                    self.config.time_tolerance,
                ),
            ));
        }
        coverage.sort_by_key(|(t, _)| t.index());
        let mean_accuracy = if accuracies.is_empty() {
            None
        } else {
            Some(accuracies.iter().sum::<f64>() / accuracies.len() as f64)
        };
        let total_answers = self.answers.values().map(|v| v.len()).sum();

        SimulationReport {
            rounds,
            min_reliability: objective.min_reliability,
            total_std: objective.total_std,
            mean_accuracy,
            total_answers,
            coverage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdbsc_algos::SamplingConfig;

    fn quick_config(t_interval: f64) -> PlatformConfig {
        PlatformConfig {
            total_duration: 30.0,
            t_interval,
            ..PlatformConfig::default()
        }
    }

    fn solver() -> Solver {
        Solver::Sampling(SamplingConfig {
            min_samples: 8,
            max_samples: 64,
            ..SamplingConfig::default()
        })
    }

    #[test]
    fn simulation_produces_rounds_and_answers() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sim = PlatformSim::new(quick_config(1.0), solver(), &mut rng);
        assert!(sim.num_tasks() >= 5);
        let report = sim.run(&mut rng);
        assert_eq!(report.rounds.len(), 30);
        assert!(
            report.total_answers > 0,
            "some answers must arrive in 30 minutes"
        );
        assert!(report.min_reliability > 0.0);
        assert!(report.total_std > 0.0);
        let acc = report.mean_accuracy.expect("answers exist");
        assert!((0.0..=1.0).contains(&acc));
        assert!(
            acc > 0.5,
            "answers with modest noise should score well, got {acc}"
        );
    }

    #[test]
    fn coverage_is_reported_for_answered_tasks() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sim = PlatformSim::new(quick_config(1.0), solver(), &mut rng);
        let report = sim.run(&mut rng);
        let answered: Vec<_> = report
            .coverage
            .iter()
            .filter(|(_, c)| c.answers > 0)
            .collect();
        assert!(!answered.is_empty());
        for (_, c) in answered {
            assert!(c.angular >= 0.0 && c.angular <= 1.0);
            assert!(c.temporal >= 0.0 && c.temporal <= 1.0);
        }
        assert!(report.mean_coverage(0.5) > 0.0);
    }

    #[test]
    fn larger_update_interval_gives_fewer_rounds_and_less_diversity() {
        // The paper's Figure 18(b): total_STD decreases as t_interval grows.
        let run_with = |interval: f64| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut sim = PlatformSim::new(quick_config(interval), solver(), &mut rng);
            sim.run(&mut rng)
        };
        let fast = run_with(1.0);
        let slow = run_with(4.0);
        assert!(fast.rounds.len() > slow.rounds.len());
        assert!(
            fast.total_std >= slow.total_std * 0.8,
            "frequent updates should not collect clearly less diversity (fast {}, slow {})",
            fast.total_std,
            slow.total_std
        );
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(9);
            let mut sim = PlatformSim::new(quick_config(2.0), solver(), &mut rng);
            let r = sim.run(&mut rng);
            (r.total_answers, r.total_std)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-12);
    }

    #[test]
    fn users_latent_quality_field_is_used_for_rating() {
        // Smoke test that higher-quality populations end up with higher
        // confidences (exercises the latent_quality plumbing).
        let mut rng = StdRng::seed_from_u64(4);
        let sim = PlatformSim::new(quick_config(1.0), solver(), &mut rng);
        for u in &sim.users {
            assert!(u.confidence.value() > 0.3);
            assert!(u.latent_quality >= 0.6);
        }
    }
}
