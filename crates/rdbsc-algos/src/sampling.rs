//! The SAMPLING RDB-SC solver (Section 5, Figure 5).
//!
//! Each sample is one complete task-and-worker assignment obtained by letting
//! every worker pick one of its valid tasks uniformly at random. `K` samples
//! are drawn — with `K` chosen by the (ε, δ) bound of Section 5.2 — and the
//! sample with the best (minimum-reliability, total-diversity) pair under the
//! dominating-count ranking is returned.
//!
//! Implementation notes — a sample costs what its own picks cost:
//!
//! * a sample is one row of picked pair indices (`u32`), not an
//!   `Assignment`; only the winner is materialised;
//! * a sample is evaluated over the tasks that can receive a worker or hold
//!   priors (`ActiveTask`), in ascending task id — the order
//!   `evaluate_with_priors` sums in — on per-task contribution buckets and
//!   kernel buffers that are reused across samples. A task left with only
//!   its priors is worth the same in every sample, computed once; a task
//!   sent the same workers as in an earlier sample is worth what it was
//!   worth then (`ValuationMemo`);
//! * the divide-and-conquer leaves run the same core (`best_sample`) on
//!   their own `Adjacency`, so a leaf costs its own pairs × `K`, not the
//!   whole instance × `K`.

use crate::sample_size::certified_sample_size;
use crate::solver::SolveRequest;
use crate::valuation::{ValuationMemo, MAX_MEMBERS};
use rand::Rng;
use rdbsc_model::expected::ExpectedScratch;
use rdbsc_model::objective::{task_expected_std_with, task_reliability_of};
use rdbsc_model::{Assignment, Contribution, DominanceRanker, TaskId};
use std::ops::Range;

/// Configuration of the sampling solver.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// Rank-error fraction ε of the (ε, δ) guarantee.
    pub epsilon: f64,
    /// Confidence δ of the (ε, δ) guarantee.
    pub delta: f64,
    /// Lower clamp on the number of samples.
    pub min_samples: usize,
    /// Upper clamp on the number of samples (keeps worst-case cost bounded).
    pub max_samples: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.01,
            delta: 0.95,
            min_samples: 16,
            max_samples: 2_048,
        }
    }
}

impl SamplingConfig {
    /// The configuration with the sample count multiplied by `factor`
    /// (used by the G-TRUTH baseline).
    pub fn scaled(&self, factor: usize) -> Self {
        Self {
            epsilon: self.epsilon / factor.max(1) as f64,
            delta: self.delta,
            min_samples: self.min_samples.saturating_mul(factor),
            max_samples: self.max_samples.saturating_mul(factor),
        }
    }

    /// The number of samples this configuration draws for a population of
    /// the given log-size (the certified (ε, δ) bound, clamped into the
    /// configured range).
    pub fn sample_count(&self, ln_population: f64) -> usize {
        certified_sample_size(ln_population, self.epsilon, self.delta, self.max_samples)
            .clamp(self.min_samples.max(1), self.max_samples.max(1))
    }
}

/// The workers of a (sub-)problem that can serve at least one of its tasks,
/// each with its candidate pairs as indices into the request's pair list:
/// one row per worker, in worker order.
#[derive(Debug, Default)]
pub(crate) struct Adjacency {
    /// Where each row ends in `pairs`.
    row_ends: Vec<usize>,
    pairs: Vec<u32>,
}

impl Adjacency {
    /// Forgets all rows, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.row_ends.clear();
        self.pairs.clear();
    }

    /// Appends the next worker's candidate pairs; a worker without any is
    /// not part of the sub-problem and gets no row.
    pub(crate) fn push_row(&mut self, pairs: impl IntoIterator<Item = usize>) {
        let before = self.pairs.len();
        self.pairs.extend(
            pairs
                .into_iter()
                .map(|idx| u32::try_from(idx).expect("more than u32::MAX candidate pairs")),
        );
        if self.pairs.len() > before {
            self.row_ends.push(self.pairs.len());
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.row_ends.len()
    }

    /// The rows, as ranges into `pairs`.
    fn rows(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut start = 0;
        self.row_ends
            .iter()
            .map(move |&end| std::mem::replace(&mut start, end)..end)
    }

    /// `ln Π deg(wⱼ)` over the rows (Section 5.2), summed in row order like
    /// `BipartiteCandidates::ln_population`.
    fn ln_population(&self) -> f64 {
        self.rows().map(|row| (row.len() as f64).ln()).sum()
    }
}

/// A task a sample is evaluated over: one that can receive a worker in the
/// sub-problem or that holds priors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveTask {
    pub(crate) task: TaskId,
    /// `(reliability, E[STD])` of the task's priors alone — its value in a
    /// sample that sends it no worker. `None` without priors: such a task
    /// then counts as empty.
    pub(crate) priors_alone: Option<(f64, f64)>,
}

impl ActiveTask {
    pub(crate) fn new(
        request: &SolveRequest<'_>,
        task: TaskId,
        scratch: &mut ExpectedScratch,
    ) -> Self {
        let priors = request.priors_of(task);
        let priors_alone = (!priors.is_empty()).then(|| {
            (
                task_reliability_of(priors),
                task_expected_std_with(request.instance, task, priors, scratch),
            )
        });
        Self { task, priors_alone }
    }
}

/// What the sample being drawn sends one task.
#[derive(Debug, Default)]
struct Bucket {
    contributions: Vec<Contribution>,
    /// The same as a set: one bit per candidate pair of the task in the
    /// sub-problem, numbered in adjacency order.
    members: u64,
    /// How many candidate pairs the task has in the sub-problem.
    candidates: usize,
}

/// Buffers of [`best_sample`], reusable across calls on the same instance.
#[derive(Debug, Default)]
pub(crate) struct SamplingScratch {
    /// The sub-problem to sample; the caller fills it in.
    pub(crate) adjacency: Adjacency,
    pub(crate) expected: ExpectedScratch,
    pub(crate) memo: ValuationMemo,
    /// Per task of the instance. Empty and zero between calls.
    buckets: Vec<Bucket>,
    /// Per entry of `adjacency.pairs`, its bit in [`Bucket::members`].
    member_bit: Vec<u64>,
    /// The picks of every sample so far, one row of `adjacency.len()` each.
    picks: Vec<u32>,
    values: Vec<(f64, f64)>,
    pub(crate) ranker: DominanceRanker,
}

/// Draws the certified number of samples over `scratch.adjacency` and
/// returns the best one. `tasks` lists, in ascending id, every task that
/// has a pair in the adjacency or holds priors.
pub(crate) fn best_sample<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &SamplingConfig,
    tasks: &[ActiveTask],
    scratch: &mut SamplingScratch,
    rng: &mut R,
) -> Assignment {
    let instance = request.instance;
    let pairs = &request.candidates.pairs;
    let mut best = Assignment::for_instance(instance);
    let SamplingScratch {
        adjacency,
        expected,
        memo,
        buckets,
        member_bit,
        picks,
        values,
        ranker,
    } = scratch;
    let width = adjacency.len();
    if width == 0 {
        return best;
    }
    let k = config.sample_count(adjacency.ln_population());
    buckets.resize_with(instance.num_tasks(), Bucket::default);
    member_bit.clear();
    for &idx in &adjacency.pairs {
        let bucket = &mut buckets[pairs[idx as usize].task.index()];
        // A task with more candidates than a key has bits is not memoised.
        member_bit.push(1u64.checked_shl(bucket.candidates as u32).unwrap_or(0));
        bucket.candidates += 1;
    }
    memo.begin();
    picks.clear();
    values.clear();

    for _ in 0..k {
        for row in adjacency.rows() {
            let at = row.start + rng.gen_range(0..row.len());
            let pick = adjacency.pairs[at];
            picks.push(pick);
            let pair = &pairs[pick as usize];
            let bucket = &mut buckets[pair.task.index()];
            bucket.contributions.push(pair.contribution);
            bucket.members |= member_bit[at];
        }
        // `evaluate_with_priors` under the non-empty scope, over the only
        // tasks that can be non-empty.
        let mut min_rel = f64::INFINITY;
        let mut total_std = 0.0;
        for active in tasks {
            let bucket = &mut buckets[active.task.index()];
            let (rel, std) = if bucket.contributions.is_empty() {
                match active.priors_alone {
                    Some(value) => value,
                    None => continue,
                }
            } else {
                let Bucket {
                    contributions,
                    members,
                    candidates,
                } = bucket;
                let mut evaluate = || {
                    contributions.extend_from_slice(request.priors_of(active.task));
                    (
                        task_reliability_of(contributions),
                        task_expected_std_with(instance, active.task, contributions, expected),
                    )
                };
                let value = if *candidates <= MAX_MEMBERS {
                    memo.get_or_compute(active.task.index(), *members, evaluate)
                } else {
                    evaluate()
                };
                contributions.clear();
                *members = 0;
                value
            };
            min_rel = min_rel.min(rel);
            total_std += std;
        }
        if min_rel == f64::INFINITY {
            min_rel = 1.0;
        }
        values.push((min_rel, total_std));
    }
    for &idx in &adjacency.pairs {
        buckets[pairs[idx as usize].task.index()].candidates = 0;
    }

    if let Some(best_idx) = ranker.rank(values) {
        for &pick in &picks[best_idx * width..(best_idx + 1) * width] {
            best.assign_pair(&pairs[pick as usize])
                .expect("sampled pair references an unassigned worker");
        }
    }
    best
}

/// Runs the sampling solver.
pub fn sampling<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &SamplingConfig,
    rng: &mut R,
) -> Assignment {
    let candidates = request.candidates;
    let mut scratch = SamplingScratch::default();
    for adj in &candidates.by_worker {
        scratch.adjacency.push_row(adj.iter().copied());
    }
    let tasks: Vec<ActiveTask> = (0..request.instance.num_tasks())
        .map(TaskId::from)
        .filter(|&t| !candidates.by_task[t.index()].is_empty() || !request.priors_of(t).is_empty())
        .map(|t| ActiveTask::new(request, t, &mut scratch.expected))
        .collect();
    best_sample(request, config, &tasks, &mut scratch, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_model::{
        compute_valid_pairs, evaluate, Confidence, ProblemInstance, Task, TaskId, TimeWindow,
        Worker, WorkerId,
    };

    fn conf(p: f64) -> Confidence {
        Confidence::new(p).unwrap()
    }

    fn instance(m: usize, n: usize) -> ProblemInstance {
        let tasks = (0..m)
            .map(|i| {
                Task::new(
                    TaskId(0),
                    Point::new(0.2 + 0.6 * (i as f64 / m.max(2) as f64), 0.5),
                    TimeWindow::new(0.0, 20.0).unwrap(),
                )
            })
            .collect();
        let workers = (0..n)
            .map(|j| {
                Worker::new(
                    WorkerId(0),
                    Point::new(
                        0.1 + 0.8 * (j as f64 / n.max(2) as f64),
                        0.2 + 0.6 * ((j * 7 % n.max(1)) as f64 / n.max(2) as f64),
                    ),
                    0.3,
                    AngleRange::full(),
                    conf(0.85 + 0.01 * (j % 10) as f64),
                )
                .unwrap()
            })
            .collect();
        ProblemInstance::new(tasks, workers, 0.5)
    }

    #[test]
    fn produces_a_valid_full_assignment() {
        let inst = instance(3, 8);
        let candidates = compute_valid_pairs(&inst);
        let mut rng = StdRng::seed_from_u64(1);
        let a = sampling(
            &SolveRequest::new(&inst, &candidates),
            &SamplingConfig::default(),
            &mut rng,
        );
        assert!(a.validate(&inst).is_ok());
        // every connected worker must be assigned
        let connected = candidates
            .by_worker
            .iter()
            .filter(|adj| !adj.is_empty())
            .count();
        assert_eq!(a.num_assigned(), connected);
    }

    #[test]
    fn is_deterministic_for_a_fixed_seed() {
        let inst = instance(3, 8);
        let candidates = compute_valid_pairs(&inst);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = sampling(
                &SolveRequest::new(&inst, &candidates),
                &SamplingConfig::default(),
                &mut rng,
            );
            evaluate(&inst, &a)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.min_reliability, b.min_reliability);
        assert_eq!(a.total_std, b.total_std);
    }

    #[test]
    fn more_samples_do_not_hurt_quality() {
        let inst = instance(4, 12);
        let candidates = compute_valid_pairs(&inst);
        let small = SamplingConfig {
            min_samples: 1,
            max_samples: 1,
            ..Default::default()
        };
        let large = SamplingConfig {
            min_samples: 256,
            max_samples: 256,
            ..Default::default()
        };
        // Average over a few seeds to smooth out randomness.
        let avg = |cfg: &SamplingConfig| {
            let mut total = 0.0;
            for seed in 0..5u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = sampling(&SolveRequest::new(&inst, &candidates), cfg, &mut rng);
                total += evaluate(&inst, &a).total_std;
            }
            total / 5.0
        };
        assert!(avg(&large) >= avg(&small) - 1e-9);
    }

    #[test]
    fn empty_candidate_graph_yields_empty_assignment() {
        let inst = instance(1, 1);
        // Make the single task unreachable by shrinking its window.
        let mut inst = inst;
        inst.tasks[0].window = TimeWindow::new(0.0, 1e-6).unwrap();
        inst.tasks[0].location = Point::new(0.99, 0.99);
        let candidates = compute_valid_pairs(&inst);
        let mut rng = StdRng::seed_from_u64(3);
        let a = sampling(
            &SolveRequest::new(&inst, &candidates),
            &SamplingConfig::default(),
            &mut rng,
        );
        assert_eq!(a.num_assigned(), 0);
    }

    #[test]
    fn scaled_config_multiplies_sample_budget() {
        let base = SamplingConfig::default();
        let scaled = base.scaled(10);
        assert_eq!(scaled.max_samples, base.max_samples * 10);
        assert_eq!(scaled.min_samples, base.min_samples * 10);
        assert!(scaled.sample_count(1_000.0) >= base.sample_count(1_000.0));
    }
}
