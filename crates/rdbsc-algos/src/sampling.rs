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
//! * a sample is one offset per adjacency row (a byte while no row is
//!   longer than 256 entries), not an `Assignment`; only the winner is
//!   materialised;
//! * a sample is evaluated over the tasks that can receive a worker or hold
//!   priors (`ActiveTask`), in ascending task id — the order
//!   `evaluate_with_priors` sums in — on per-task contribution buckets and
//!   kernel buffers that are reused across samples. A task left with only
//!   its priors is worth the same in every sample, computed once; a task
//!   sent the same workers as in an earlier sample is worth what it was
//!   worth then (`ValuationMemo`);
//! * drawing and valuing are two steps: `Draw` consumes the generator,
//!   one `gen_range` per row and sample; `Valuer` turns the picks into
//!   values on its own buffers and never touches the generator, so the
//!   samples can be valued on any thread without changing a bit;
//! * the divide-and-conquer leaves run the same two steps on their own
//!   `Adjacency`, so a leaf costs its own pairs × `K`, not the whole
//!   instance × `K`.

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

/// The samples drawn over one sub-problem: its adjacency and, per sample,
/// one pick per row. Drawing is the only step of SAMPLING that consumes the
/// generator; valuing the picks ([`Valuer`]) is a pure function of them.
#[derive(Debug, Default)]
pub(crate) struct Draw {
    /// The sub-problem to sample; the caller fills it in.
    pub(crate) adjacency: Adjacency,
    picks: Picks,
}

/// Per sample, one offset into each row of the adjacency, `width` offsets
/// a sample: a byte each while no row is longer than 256 entries (every
/// D&C leaf of up to 256 tasks), four otherwise.
#[derive(Debug)]
enum Picks {
    Narrow(Vec<u8>),
    Wide(Vec<u32>),
}

impl Default for Picks {
    fn default() -> Self {
        Picks::Narrow(Vec::new())
    }
}

/// An offset into a row, as [`Picks`] stores it.
trait Offset: Copy + TryFrom<usize> {
    fn get(self) -> usize;
}

impl Offset for u8 {
    fn get(self) -> usize {
        usize::from(self)
    }
}

impl Offset for u32 {
    fn get(self) -> usize {
        self as usize
    }
}

/// Replaces `picks` with `samples` samples' offsets: per sample, one
/// `gen_range` per row, in row order.
fn draw_into<T: Offset, R: Rng + ?Sized>(
    picks: &mut Vec<T>,
    adjacency: &Adjacency,
    samples: usize,
    rng: &mut R,
) {
    picks.clear();
    picks.reserve(samples * adjacency.len());
    for _ in 0..samples {
        for row in adjacency.rows() {
            let offset = rng.gen_range(0..row.len());
            picks.push(
                T::try_from(offset)
                    .ok()
                    .expect("row longer than its offsets"),
            );
        }
    }
}

impl Draw {
    /// Draws the certified number of samples over the adjacency: per
    /// sample, one `gen_range` per row, in row order. An adjacency without
    /// rows draws nothing.
    pub(crate) fn draw<R: Rng + ?Sized>(&mut self, config: &SamplingConfig, rng: &mut R) {
        let adjacency = &self.adjacency;
        let narrow = adjacency.rows().all(|row| row.len() <= 1 << u8::BITS);
        let k = if adjacency.len() == 0 {
            0
        } else {
            config.sample_count(adjacency.ln_population())
        };
        if narrow != matches!(self.picks, Picks::Narrow(_)) {
            self.picks = if narrow {
                Picks::Narrow(Vec::new())
            } else {
                Picks::Wide(Vec::new())
            };
        }
        match &mut self.picks {
            Picks::Narrow(picks) => draw_into(picks, adjacency, k, rng),
            Picks::Wide(picks) => draw_into(picks, adjacency, k, rng),
        }
    }

    /// Number of samples drawn.
    pub(crate) fn samples(&self) -> usize {
        let drawn = match &self.picks {
            Picks::Narrow(picks) => picks.len(),
            Picks::Wide(picks) => picks.len(),
        };
        drawn.checked_div(self.adjacency.len()).unwrap_or(0)
    }

    /// The positions in `adjacency.pairs` that sample `i` picks, given the
    /// offsets of all samples.
    fn positions<'a, T: Offset>(
        &'a self,
        picks: &'a [T],
        i: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let width = self.adjacency.len();
        self.adjacency
            .rows()
            .zip(&picks[i * width..(i + 1) * width])
            .map(|(row, offset)| row.start + offset.get())
    }

    /// The pair indices of sample `i`.
    pub(crate) fn sample(&self, i: usize) -> Vec<u32> {
        let pairs = &self.adjacency.pairs;
        match &self.picks {
            Picks::Narrow(picks) => self.positions(picks, i).map(|at| pairs[at]).collect(),
            Picks::Wide(picks) => self.positions(picks, i).map(|at| pairs[at]).collect(),
        }
    }
}

/// What the sample being valued sends one task.
#[derive(Debug, Default)]
struct Bucket {
    contributions: Vec<Contribution>,
    /// The same as a set: one bit per candidate pair of the task in the
    /// sub-problem, numbered in adjacency order.
    members: u64,
    /// How many candidate pairs the task has in the sub-problem.
    candidates: usize,
}

/// The buffers a thread values samples on, reusable across sub-problems of
/// the same instance.
#[derive(Debug, Default)]
pub(crate) struct Valuer {
    pub(crate) expected: ExpectedScratch,
    pub(crate) memo: ValuationMemo,
    /// Per task of the instance. Empty and zero between calls.
    buckets: Vec<Bucket>,
    /// Per entry of the adjacency's pairs, its bit in [`Bucket::members`].
    member_bit: Vec<u64>,
    /// The values of the samples valued so far, in sample order.
    values: Vec<(f64, f64)>,
    pub(crate) ranker: DominanceRanker,
}

impl Valuer {
    /// Appends the `(min reliability, total E[STD])` of the samples
    /// `samples` of `draw` to [`Self::values`]. `tasks` lists, in ascending
    /// id, every task that has a pair in the adjacency or holds priors.
    fn value(
        &mut self,
        request: &SolveRequest<'_>,
        tasks: &[ActiveTask],
        draw: &Draw,
        samples: Range<usize>,
    ) {
        match &draw.picks {
            Picks::Narrow(picks) => self.value_picks(request, tasks, draw, picks, samples),
            Picks::Wide(picks) => self.value_picks(request, tasks, draw, picks, samples),
        }
    }

    fn value_picks<T: Offset>(
        &mut self,
        request: &SolveRequest<'_>,
        tasks: &[ActiveTask],
        draw: &Draw,
        picks: &[T],
        samples: Range<usize>,
    ) {
        let instance = request.instance;
        let pairs = &request.candidates.pairs;
        let Valuer {
            expected,
            memo,
            buckets,
            member_bit,
            values,
            ..
        } = self;
        buckets.resize_with(instance.num_tasks(), Bucket::default);
        member_bit.clear();
        for &idx in &draw.adjacency.pairs {
            let bucket = &mut buckets[pairs[idx as usize].task.index()];
            // A task with more candidates than a key has bits is not memoised.
            member_bit.push(1u64.checked_shl(bucket.candidates as u32).unwrap_or(0));
            bucket.candidates += 1;
        }
        memo.begin();

        for sample in samples {
            for at in draw.positions(picks, sample) {
                let pair = &pairs[draw.adjacency.pairs[at] as usize];
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
        for &idx in &draw.adjacency.pairs {
            buckets[pairs[idx as usize].task.index()].candidates = 0;
        }
    }

    /// The index of the best sample of `draw` under the dominating-count
    /// ranking; `None` when nothing was drawn.
    pub(crate) fn best(
        &mut self,
        request: &SolveRequest<'_>,
        tasks: &[ActiveTask],
        draw: &Draw,
    ) -> Option<usize> {
        self.values.clear();
        self.value(request, tasks, draw, 0..draw.samples());
        self.ranker.rank(&self.values)
    }
}

/// The assignment made of the given pairs.
pub(crate) fn assignment_of(
    request: &SolveRequest<'_>,
    pairs: impl IntoIterator<Item = u32>,
) -> Assignment {
    let mut assignment = Assignment::for_instance(request.instance);
    for pick in pairs {
        assignment
            .assign_pair(&request.candidates.pairs[pick as usize])
            .expect("sampled pair references an unassigned worker");
    }
    assignment
}

/// Runs the sampling solver.
///
/// The samples are drawn on the calling thread; with
/// [`SolveRequest::threads`] above 1 they are valued in that many
/// contiguous runs, one per thread, each on its own buffers. A sample's
/// value depends on its picks alone, so the ranking, and the assignment,
/// is the same at any thread count.
pub fn sampling<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &SamplingConfig,
    rng: &mut R,
) -> Assignment {
    let candidates = request.candidates;
    let mut draw = Draw::default();
    let mut valuer = Valuer::default();
    for adj in &candidates.by_worker {
        draw.adjacency.push_row(adj.iter().copied());
    }
    let tasks: Vec<ActiveTask> = (0..request.instance.num_tasks())
        .map(TaskId::from)
        .filter(|&t| !candidates.by_task[t.index()].is_empty() || !request.priors_of(t).is_empty())
        .map(|t| ActiveTask::new(request, t, &mut valuer.expected))
        .collect();
    draw.draw(config, rng);

    let samples = draw.samples();
    let runs = request.threads.clamp(1, samples.max(1));
    valuer.values.clear();
    if runs == 1 {
        valuer.value(request, &tasks, &draw, 0..samples);
    } else {
        let run = |i: usize| samples * i / runs..samples * (i + 1) / runs;
        let (request, tasks, draw) = (request, &tasks, &draw);
        // Runs `1..runs` on helpers (each returns its values), run 0 here;
        // a run whose helper cannot be spawned is valued here too.
        let helped: Vec<Vec<(f64, f64)>> = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..runs)
                .map(|i| {
                    std::thread::Builder::new()
                        .name("rdbsc-sampling".into())
                        .spawn_scoped(scope, move || {
                            let mut valuer = Valuer::default();
                            valuer.value(request, tasks, draw, run(i));
                            valuer.values
                        })
                        .map_err(|_| i)
                })
                .collect();
            valuer.value(request, tasks, draw, run(0));
            helpers
                .into_iter()
                .map(|helper| match helper {
                    Ok(handle) => handle.join().expect("a sampling helper panicked"),
                    Err(i) => {
                        let mut own = Valuer::default();
                        own.value(request, tasks, draw, run(i));
                        own.values
                    }
                })
                .collect()
        });
        for values in helped {
            valuer.values.extend(values);
        }
    }
    match valuer.ranker.rank(&valuer.values) {
        Some(best) => assignment_of(request, draw.sample(best)),
        None => Assignment::for_instance(request.instance),
    }
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
