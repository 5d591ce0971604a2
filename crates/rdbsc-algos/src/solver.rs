//! Common solver input and a unified solver enum used by the experiment
//! harness.

use crate::dnc::DncConfig;
use crate::greedy::GreedyConfig;
use crate::gtruth::GroundTruthConfig;
use crate::sampling::SamplingConfig;
use rand::rngs::StdRng;
use rand::Rng;
use rdbsc_model::objective::TaskPriors;
use rdbsc_model::{Assignment, BipartiteCandidates, ProblemInstance};
use std::sync::OnceLock;

/// The number of threads a solve uses by default: the machine's available
/// parallelism (1 when it cannot be determined), read once per process.
/// The count never reaches a result: every solver returns the same bits at
/// any thread count.
pub fn default_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The input shared by every RDB-SC solver: the problem instance, the graph
/// of valid task-and-worker pairs, and (for incremental rounds) the
/// contributions each task has already banked.
#[derive(Clone, Copy)]
pub struct SolveRequest<'a> {
    /// The problem instance.
    pub instance: &'a ProblemInstance,
    /// All valid task-and-worker pairs (from `compute_valid_pairs` or the
    /// grid index).
    pub candidates: &'a BipartiteCandidates,
    /// Banked contributions per task (answers already received); `None`
    /// means a fresh, static assignment.
    pub priors: Option<&'a TaskPriors>,
    /// Threads the solve may use, the calling one included (at least 1).
    /// D&C values its leaves' samples and SAMPLING its samples on that
    /// many threads; the assignment is the same at any count.
    pub threads: usize,
}

impl<'a> SolveRequest<'a> {
    /// A request with no banked priors, solved on
    /// [`default_parallelism`] threads.
    pub fn new(instance: &'a ProblemInstance, candidates: &'a BipartiteCandidates) -> Self {
        Self {
            instance,
            candidates,
            priors: None,
            threads: default_parallelism(),
        }
    }

    /// Sets the banked priors.
    pub fn with_priors(mut self, priors: &'a TaskPriors) -> Self {
        self.priors = Some(priors);
        self
    }

    /// Sets the thread count (0 counts as 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The prior contributions of a task (empty slice when none).
    pub fn priors_of(&self, task: rdbsc_model::TaskId) -> &[rdbsc_model::Contribution] {
        self.priors.map(|p| p.of(task)).unwrap_or(&[])
    }
}

/// The four approaches compared throughout the paper's evaluation.
#[derive(Debug, Clone)]
pub enum Solver {
    /// GREEDY (Section 4).
    Greedy(GreedyConfig),
    /// SAMPLING (Section 5).
    Sampling(SamplingConfig),
    /// D&C — divide-and-conquer with sampling at the leaves (Section 6).
    DivideAndConquer(DncConfig),
    /// G-TRUTH — divide-and-conquer with a 10× sample size (Section 8.1).
    GroundTruth(GroundTruthConfig),
}

impl Solver {
    /// Short display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Solver::Greedy(_) => "GREEDY",
            Solver::Sampling(_) => "SAMPLING",
            Solver::DivideAndConquer(_) => "D&C",
            Solver::GroundTruth(_) => "G-TRUTH",
        }
    }

    /// Runs the solver on a request.
    pub fn solve<R: Rng + ?Sized>(&self, request: &SolveRequest<'_>, rng: &mut R) -> Assignment {
        match self {
            Solver::Greedy(cfg) => crate::greedy::greedy(request, cfg),
            Solver::Sampling(cfg) => crate::sampling::sampling(request, cfg, rng),
            Solver::DivideAndConquer(cfg) => crate::dnc::divide_and_conquer(request, cfg, rng),
            Solver::GroundTruth(cfg) => crate::gtruth::ground_truth(request, cfg, rng),
        }
    }

    /// The default line-up compared in the paper's figures.
    pub fn paper_lineup() -> Vec<Solver> {
        vec![
            Solver::Greedy(GreedyConfig::default()),
            Solver::Sampling(SamplingConfig::default()),
            Solver::DivideAndConquer(DncConfig::default()),
            Solver::GroundTruth(GroundTruthConfig::default()),
        ]
    }
}

/// A solver usable for **batched, sharded** solving: given one shard of a
/// partitioned instance, produce that shard's assignment.
///
/// The online engine partitions the live instance into independent spatial
/// shards (connected components of the grid index's cell-reachability
/// relation) and calls `solve_shard` once per shard, potentially from
/// multiple threads — hence the `Sync` bound. Implementations may inspect
/// the shard (its size, its tasks' deadline slack) to pick a strategy per
/// shard; the blanket implementation for [`Solver`] simply applies one fixed
/// algorithm to every shard.
///
/// The trait is object-safe (the RNG is the concrete [`StdRng`]), so engines
/// can hold `Box<dyn BatchSolver>`.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use rdbsc_algos::{BatchSolver, GreedyConfig, SolveRequest, Solver};
/// use rdbsc_geo::{AngleRange, Point};
/// use rdbsc_model::{
///     compute_valid_pairs, Confidence, ProblemInstance, Task, TaskId, TimeWindow, Worker,
///     WorkerId,
/// };
///
/// let task = Task::new(TaskId(0), Point::new(0.5, 0.5), TimeWindow::new(0.0, 10.0).unwrap());
/// let worker = Worker::new(
///     WorkerId(0),
///     Point::new(0.4, 0.4),
///     0.5,
///     AngleRange::full(),
///     Confidence::new(0.9).unwrap(),
/// )
/// .unwrap();
/// let shard = ProblemInstance::new(vec![task], vec![worker], 0.5);
/// let candidates = compute_valid_pairs(&shard);
///
/// // Any `Solver` is a `BatchSolver` applying itself to every shard.
/// let batch: &dyn BatchSolver = &Solver::Greedy(GreedyConfig::default());
/// let assignment = batch.solve_shard(
///     &SolveRequest::new(&shard, &candidates),
///     &mut StdRng::seed_from_u64(1),
/// );
/// assert_eq!(assignment.num_assigned(), 1);
/// ```
pub trait BatchSolver: Sync {
    /// Solves one shard. `request` is the shard's instance, candidate pairs
    /// and (for incremental rounds) banked priors; `rng` is the shard's own
    /// deterministic generator.
    fn solve_shard(&self, request: &SolveRequest<'_>, rng: &mut StdRng) -> Assignment;

    /// Display name for diagnostics, given the shard the name applies to
    /// (adaptive implementations report the strategy they picked).
    fn strategy_name(&self, _request: &SolveRequest<'_>) -> &'static str {
        "BATCH"
    }

    /// Solves one shard and reports the strategy used, in one call.
    ///
    /// Engines that want both should call this instead of
    /// [`strategy_name`](Self::strategy_name) + [`solve_shard`](Self::solve_shard):
    /// adaptive implementations override it so the (possibly costly)
    /// strategy decision runs once per shard.
    fn solve_shard_named(
        &self,
        request: &SolveRequest<'_>,
        rng: &mut StdRng,
    ) -> (&'static str, Assignment) {
        (self.strategy_name(request), self.solve_shard(request, rng))
    }
}

impl BatchSolver for Solver {
    fn solve_shard(&self, request: &SolveRequest<'_>, rng: &mut StdRng) -> Assignment {
        self.solve(request, rng)
    }

    fn strategy_name(&self, _request: &SolveRequest<'_>) -> &'static str {
        self.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_names_match_paper_legends() {
        let names: Vec<&str> = Solver::paper_lineup().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["GREEDY", "SAMPLING", "D&C", "G-TRUTH"]);
    }
}
