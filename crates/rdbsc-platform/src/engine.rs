//! The parallel batched online assignment engine.
//!
//! The platform simulator in [`crate::sim`] re-solves the whole instance
//! single-threadedly every `t_interval`. That is faithful to the paper's
//! Figure 10 but nowhere near "heavy traffic" territory: with thousands of
//! live workers the monolithic re-solve dominates the interval. This module
//! replaces it with an **event-driven, sharded, parallel** loop:
//!
//! 1. Worker moves, task arrivals and task expirations arrive as
//!    [`EngineEvent`]s and are applied to the grid index *incrementally*
//!    (`O(1)` cell updates, dirty-cell tracking — no rebuilds).
//! 2. At every [`AssignmentEngine::tick`], the live instance is partitioned
//!    into independent spatial shards — the connected components of the
//!    index's cell-reachability relation — which by construction share no
//!    valid pair, so solving them separately loses nothing.
//! 3. Shards are solved **in parallel** on scoped OS threads (see
//!    [`crate::par`]); the per-shard solver is chosen by the cost-model-based
//!    [`AdaptiveBatchSolver`] (greedy for small shards, sampling under tight
//!    deadlines, divide-and-conquer for large clustered shards).
//! 4. Per-shard assignments are merged back into the engine's standing
//!    state: newly assigned workers become *en route* and stay unavailable
//!    until the platform reports an answer or a give-up, mirroring the
//!    incremental strategy's `S_c`.
//!
//! Determinism: shard extraction is deterministic, every shard gets its own
//! seed derived from `(engine seed, tick, shard index)`, and results are
//! merged in shard order — so a run's output does not depend on thread
//! scheduling or the number of threads.

use crate::par::parallel_map;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdbsc_algos::solver::{default_parallelism, BatchSolver, SolveRequest};
use rdbsc_algos::{DncConfig, GreedyConfig, SamplingConfig, Solver};
use rdbsc_geo::{Point, Rect};
use rdbsc_index::cost_model::estimate_fractal_dimension;
use rdbsc_index::{GridIndex, MaintenanceCounters, ProblemShard, SpatialIndex};
use rdbsc_model::expected::{expected_std_with, ExpectedScratch};
use rdbsc_model::objective::{task_reliability_of, TaskPriors};
use rdbsc_model::valid_pairs::{BipartiteCandidates, ValidPair};
use rdbsc_model::{Assignment, Contribution, Task, TaskId, Worker, WorkerId};
use std::collections::HashMap;
use std::time::Instant;

/// Microseconds elapsed since a stage stopwatch was started (saturating;
/// purely observational — see [`TickReport::stages`]).
fn stage_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// An update to the live instance, applied incrementally at the next tick.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A new task was posted (or an existing one re-posted with new data).
    TaskArrived(Task),
    /// A task was withdrawn or expired server-side.
    TaskExpired(TaskId),
    /// A worker checked in (or re-registered with new speed/heading).
    WorkerCheckIn(Worker),
    /// A worker reported a new position.
    WorkerMoved(WorkerId, Point),
    /// A worker checked out; if en route, its assignment is released.
    WorkerLeft(WorkerId),
}

/// Configuration of the engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Diversity balance weight `β` used when building shard instances.
    pub beta: f64,
    /// Threads for the sharded solve; `0` means "use all cores". The
    /// shards are solved side by side, and each shard's own solve
    /// ([`SolveRequest::threads`]) gets an even share of these threads (at
    /// least one). At `1` the tick spawns no thread.
    pub parallelism: usize,
    /// Base seed; every `(tick, shard)` derives its own generator from it.
    pub seed: u64,
    /// Remove tasks whose valid period has ended at the start of each tick
    /// (releasing any worker still travelling towards them).
    pub auto_expire: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            beta: 0.5,
            parallelism: 0,
            seed: 42,
            auto_expire: true,
        }
    }
}

/// The cost-model-driven per-shard strategy selector.
///
/// The choice mirrors the paper's evaluation (Section 8.2/8.3: greedy has
/// the best quality but the steepest running-time curve; sampling is the
/// cheapest; divide-and-conquer sits in between and shines when the task set
/// partitions cleanly) plus the correlation fractal dimension `D₂` from the
/// index's cost model (Appendix I) as the clusteredness signal:
///
/// * shards whose pair count is below [`greedy_max_pairs`] are solved with
///   **GREEDY** — at that size its superlinear cost is irrelevant and its
///   quality is the best available;
/// * larger shards whose tightest deadline is closer than [`urgent_slack`]
///   use **SAMPLING** — the cheapest solver, guaranteeing the round finishes
///   while the answers still matter;
/// * remaining large shards estimate `D₂` of their task locations:
///   clustered shards (`D₂ ≤` [`clustered_d2`]) with at least
///   [`dnc_min_tasks`] tasks go to **D&C**, whose 2-means partitioning
///   exploits exactly that structure; the rest use **SAMPLING**.
///
/// [`greedy_max_pairs`]: AdaptiveBatchSolver::greedy_max_pairs
/// [`urgent_slack`]: AdaptiveBatchSolver::urgent_slack
/// [`clustered_d2`]: AdaptiveBatchSolver::clustered_d2
/// [`dnc_min_tasks`]: AdaptiveBatchSolver::dnc_min_tasks
#[derive(Debug, Clone)]
pub struct AdaptiveBatchSolver {
    /// Shards with at most this many valid pairs are solved greedily.
    pub greedy_max_pairs: usize,
    /// Slack threshold (time units between departure and the shard's
    /// tightest deadline) below which large shards fall back to sampling.
    pub urgent_slack: f64,
    /// Minimum task count for divide-and-conquer to be worth its
    /// partition/merge overhead.
    pub dnc_min_tasks: usize,
    /// Fractal-dimension threshold under which a shard counts as clustered.
    pub clustered_d2: f64,
    /// Configuration for the greedy solver.
    pub greedy: GreedyConfig,
    /// Configuration for the sampling solver.
    pub sampling: SamplingConfig,
    /// Configuration for the divide-and-conquer solver.
    pub dnc: DncConfig,
}

impl Default for AdaptiveBatchSolver {
    fn default() -> Self {
        Self {
            greedy_max_pairs: 1_500,
            urgent_slack: 0.5,
            dnc_min_tasks: 64,
            clustered_d2: 1.6,
            greedy: GreedyConfig::default(),
            sampling: SamplingConfig::default(),
            dnc: DncConfig::default(),
        }
    }
}

impl AdaptiveBatchSolver {
    /// Picks the solver for a shard (see the type-level docs for the rules).
    pub fn choose(&self, request: &SolveRequest<'_>) -> Solver {
        let instance = request.instance;
        let pairs = request.candidates.num_pairs();
        if pairs <= self.greedy_max_pairs {
            return Solver::Greedy(self.greedy);
        }
        let min_slack = instance
            .tasks
            .iter()
            .map(|t| t.window.end - instance.depart_at)
            .fold(f64::INFINITY, f64::min);
        if min_slack < self.urgent_slack {
            return Solver::Sampling(self.sampling);
        }
        if instance.num_tasks() >= self.dnc_min_tasks {
            let locations: Vec<Point> = instance.tasks.iter().map(|t| t.location).collect();
            let d2 = estimate_fractal_dimension(&locations, Rect::unit());
            if d2 <= self.clustered_d2 {
                return Solver::DivideAndConquer(self.dnc);
            }
        }
        Solver::Sampling(self.sampling)
    }
}

impl BatchSolver for AdaptiveBatchSolver {
    fn solve_shard(&self, request: &SolveRequest<'_>, rng: &mut StdRng) -> Assignment {
        self.choose(request).solve(request, rng)
    }

    fn strategy_name(&self, request: &SolveRequest<'_>) -> &'static str {
        self.choose(request).name()
    }

    fn solve_shard_named(
        &self,
        request: &SolveRequest<'_>,
        rng: &mut StdRng,
    ) -> (&'static str, Assignment) {
        // One decision per shard: the slack scan and fractal-dimension
        // estimate are not repeated for the name.
        let solver = self.choose(request);
        (solver.name(), solver.solve(request, rng))
    }
}

/// What one engine tick did.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// The tick's time (workers depart no earlier).
    pub now: f64,
    /// Events drained from the queue this tick.
    pub events_applied: usize,
    /// Tasks auto-expired at the start of the tick.
    pub tasks_expired: usize,
    /// Number of independent shards solved.
    pub num_shards: usize,
    /// Valid pairs in the largest shard (the parallel critical path).
    pub largest_shard_pairs: usize,
    /// Solver picked per shard, in shard order.
    pub strategies: Vec<&'static str>,
    /// The pairs newly committed this tick, in live ids.
    pub new_assignments: Vec<ValidPair>,
    /// Wall-clock seconds spent in the sharded solve (excludes event
    /// application and shard extraction).
    pub solve_seconds: f64,
    /// Per-shard solve seconds, in shard order. Their maximum is the
    /// parallel critical path: with enough cores the sharded solve takes
    /// `max` instead of `sum` seconds.
    pub shard_solve_seconds: Vec<f64>,
    /// Index maintenance performed during this tick (event application plus
    /// the refresh inside shard extraction): cross-cell relocations, cells
    /// repaired and `tcell_list` rebuilds.
    pub index_maintenance: MaintenanceCounters,
    /// Wall-clock microseconds per tick stage (apply / extract / solve /
    /// merge here; the WAL stages are filled in by a durable
    /// `EnginePartition`). Observational only — never fed back into engine
    /// decisions — and merged across partitions by per-stage max, like
    /// [`TickReport::solve_seconds`].
    pub stages: rdbsc_obs::StageTimings,
}

impl TickReport {
    /// The parallel critical path: the slowest single shard's solve time.
    pub fn critical_path_seconds(&self) -> f64 {
        self.shard_solve_seconds
            .iter()
            .fold(0.0f64, |acc, s| acc.max(*s))
    }
}

/// Aggregate quality of the engine's standing state (banked answers plus
/// en-route workers), mirroring [`rdbsc_model::ObjectiveValue`] for the
/// online setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineObjective {
    /// Minimum reliability over tasks with at least one contribution.
    /// `1.0` when no task has any.
    pub min_reliability: f64,
    /// Total expected spatial/temporal diversity over all tasks (live and
    /// retired) with contributions.
    pub total_std: f64,
    /// Number of tasks with at least one contribution.
    pub covered_tasks: usize,
}

/// The event-driven parallel assignment engine.
///
/// See the [module docs](self) for the architecture. Typical driving loop:
///
/// ```
/// use rdbsc_geo::{AngleRange, Point, Rect};
/// use rdbsc_index::GridIndex;
/// use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
/// use rdbsc_platform::engine::{AssignmentEngine, EngineConfig, EngineEvent};
///
/// let mut engine = AssignmentEngine::new(
///     GridIndex::new(Rect::unit(), 0.25),
///     EngineConfig::default(),
/// );
/// engine.submit(EngineEvent::TaskArrived(Task::new(
///     TaskId(0),
///     Point::new(0.6, 0.6),
///     TimeWindow::new(0.0, 10.0).unwrap(),
/// )));
/// engine.submit(EngineEvent::WorkerCheckIn(
///     Worker::new(
///         WorkerId(0),
///         Point::new(0.5, 0.5),
///         0.5,
///         AngleRange::full(),
///         Confidence::new(0.9).unwrap(),
///     )
///     .unwrap(),
/// ));
/// let report = engine.tick(0.0);
/// assert_eq!(report.new_assignments.len(), 1);
///
/// // The worker arrives and answers; its contribution is banked and the
/// // worker becomes available again.
/// let pair = report.new_assignments[0];
/// engine.record_answer(pair.worker, pair.contribution);
/// assert!(engine.current_objective().min_reliability > 0.0);
/// ```
pub struct AssignmentEngine<I: SpatialIndex = GridIndex> {
    index: I,
    config: EngineConfig,
    solver: Box<dyn BatchSolver + Send>,
    pending: Vec<EngineEvent>,
    /// Workers currently travelling under the standing assignment.
    committed: HashMap<WorkerId, (TaskId, Contribution)>,
    /// Answers received, per task (live or retired).
    banked: HashMap<TaskId, Vec<Contribution>>,
    /// Tasks that expired or were withdrawn, kept for objective accounting.
    retired: HashMap<TaskId, Task>,
    /// Running total of banked answers, so the count is O(1) (the banked
    /// map grows for the engine's lifetime; summing it on every metrics
    /// scrape would hold the engine lock for O(answers)).
    banked_total: usize,
    tick_count: u64,
}

impl<I: SpatialIndex> AssignmentEngine<I> {
    /// Creates an engine over an index (usually empty) with the
    /// cost-model-driven [`AdaptiveBatchSolver`].
    pub fn new(index: I, config: EngineConfig) -> Self {
        Self::with_solver(index, config, Box::new(AdaptiveBatchSolver::default()))
    }

    /// Creates an engine with an explicit per-shard solver (e.g. a fixed
    /// [`Solver`] for apples-to-apples comparisons).
    pub fn with_solver(
        index: I,
        config: EngineConfig,
        solver: Box<dyn BatchSolver + Send>,
    ) -> Self {
        Self {
            index,
            config,
            solver,
            pending: Vec::new(),
            committed: HashMap::new(),
            banked: HashMap::new(),
            retired: HashMap::new(),
            banked_total: 0,
            tick_count: 0,
        }
    }

    /// Queues an event for the next tick.
    pub fn submit(&mut self, event: EngineEvent) {
        self.pending.push(event);
    }

    /// Queues many events for the next tick.
    pub fn submit_all<E: IntoIterator<Item = EngineEvent>>(&mut self, events: E) {
        self.pending.extend(events);
    }

    /// Number of events queued and not yet applied by a tick.
    pub fn num_pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Number of live tasks.
    pub fn num_tasks(&self) -> usize {
        self.index.num_tasks()
    }

    /// Number of live workers.
    pub fn num_workers(&self) -> usize {
        self.index.num_workers()
    }

    /// Is the worker currently travelling under the standing assignment?
    pub fn is_committed(&self, worker: WorkerId) -> bool {
        self.committed.contains_key(&worker)
    }

    /// Number of workers currently travelling under the standing assignment.
    pub fn num_committed(&self) -> usize {
        self.committed.len()
    }

    /// Number of answers banked so far (over live and retired tasks).
    pub fn num_banked_answers(&self) -> usize {
        debug_assert_eq!(
            self.banked_total,
            // lint:allow(D001): integer length sum — order-insensitive
            self.banked.values().map(Vec::len).sum::<usize>()
        );
        self.banked_total
    }

    /// Number of ticks run so far.
    pub fn num_ticks(&self) -> u64 {
        self.tick_count
    }

    /// The standing committed pairs (workers currently en route), sorted by
    /// `(task, worker)` so the listing is deterministic.
    pub fn committed_assignments(&self) -> Vec<ValidPair> {
        let mut pairs: Vec<ValidPair> = self
            // lint:allow(D001): collected here, sorted before returning
            .committed
            .iter()
            .map(|(worker, (task, contribution))| ValidPair {
                task: *task,
                worker: *worker,
                contribution: *contribution,
            })
            .collect();
        pairs.sort_by_key(|p| (p.task, p.worker));
        pairs
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The live index (read-only).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The worker completed its task: its contribution is banked and the
    /// worker becomes available for the next tick. Returns `false` (banking
    /// nothing) when the worker was not en route.
    pub fn record_answer(&mut self, worker: WorkerId, contribution: Contribution) -> bool {
        if let Some((task, _)) = self.committed.remove(&worker) {
            self.banked.entry(task).or_default().push(contribution);
            self.banked_total += 1;
            true
        } else {
            false
        }
    }

    /// The worker gave up (rejection, missed deadline, …): it becomes
    /// available again and nothing is banked.
    pub fn release_worker(&mut self, worker: WorkerId) {
        self.committed.remove(&worker);
    }

    /// Runs one engine round at time `now`: drains the event queue, expires
    /// stale tasks, shards the live instance and solves the shards in
    /// parallel, committing the newly assigned workers.
    pub fn tick(&mut self, now: f64) -> TickReport {
        let stage_started = Instant::now(); // lint:allow(D002): stage stopwatch — observational timing only, reported but never read by a decision
        let counters_before = self.index.maintenance_counters();
        let events: Vec<EngineEvent> = std::mem::take(&mut self.pending);
        let events_applied = events.len();
        for event in events {
            self.apply(event);
        }

        let mut tasks_expired = 0usize;
        if self.config.auto_expire {
            for id in self.index.expired_tasks(now) {
                self.retire_task(id);
                tasks_expired += 1;
            }
        }
        let apply_us = stage_us(stage_started);

        let stage_started = Instant::now(); // lint:allow(D002): stage stopwatch — observational timing only, reported but never read by a decision
        self.index.set_depart_at(now);
        let shards = self.index.extract_shards(self.config.beta);
        let index_maintenance = self
            .index
            .maintenance_counters()
            .delta_since(&counters_before);

        // Restrict every shard to available (non-committed) workers and
        // carry the banked + en-route contributions in as priors (see
        // `shard_priors` for the append-order contract).
        let en_route = self.commitments_by_worker();
        let prepared: Vec<(ProblemShard, BipartiteCandidates, TaskPriors)> = shards
            .into_iter()
            .filter_map(|shard| {
                let mut available = BipartiteCandidates::with_capacity(
                    shard.instance.num_tasks(),
                    shard.instance.num_workers(),
                );
                for pair in &shard.candidates.pairs {
                    let live_worker = shard.mapping.worker(pair.worker);
                    if !self.committed.contains_key(&live_worker) {
                        available.push(*pair);
                    }
                }
                if available.pairs.is_empty() {
                    return None;
                }
                let priors = self.shard_priors(&shard.mapping.tasks, &en_route);
                Some((shard, available, priors))
            })
            .collect();

        let num_shards = prepared.len();
        let largest_shard_pairs = prepared
            .iter()
            .map(|(_, available, _)| available.num_pairs())
            .max()
            .unwrap_or(0);
        let extract_us = stage_us(stage_started);

        let threads = if self.config.parallelism == 0 {
            default_parallelism()
        } else {
            self.config.parallelism
        };
        // The shards are solved side by side; each shard's own solve gets
        // an even share of the threads, so a tick runs at most `threads`
        // solver threads (and none beyond its own at `parallelism: 1`).
        let shard_threads = (threads / num_shards.max(1)).max(1);
        let base_seed = mix_seed(self.config.seed, self.tick_count);
        let solver = self.solver.as_ref();

        let started = Instant::now(); // lint:allow(D002): stage stopwatch — observational timing only, reported but never read by a decision
        let solved: Vec<(ProblemShard, Assignment, &'static str, f64)> = parallel_map(
            prepared,
            threads,
            |shard_idx, (shard, available, priors)| {
                let shard_started = Instant::now(); // lint:allow(D002): stage stopwatch — observational timing only, reported but never read by a decision
                let request = SolveRequest::new(&shard.instance, &available)
                    .with_priors(&priors)
                    .with_threads(shard_threads);
                let mut rng = StdRng::seed_from_u64(mix_seed(base_seed, shard_idx as u64));
                let (strategy, assignment) = solver.solve_shard_named(&request, &mut rng);
                (
                    shard,
                    assignment,
                    strategy,
                    shard_started.elapsed().as_secs_f64(),
                )
            },
        );
        let solve_seconds = started.elapsed().as_secs_f64();

        let stage_started = Instant::now(); // lint:allow(D002): stage stopwatch — observational timing only, reported but never read by a decision
        let mut new_assignments = Vec::new();
        let mut strategies = Vec::with_capacity(solved.len());
        let mut shard_solve_seconds = Vec::with_capacity(solved.len());
        for (shard, assignment, strategy, seconds) in solved {
            strategies.push(strategy);
            shard_solve_seconds.push(seconds);
            for (local_task, local_worker, contribution) in assignment.iter() {
                let task = shard.mapping.task(local_task);
                let worker = shard.mapping.worker(local_worker);
                debug_assert!(!self.committed.contains_key(&worker));
                self.committed.insert(worker, (task, contribution));
                new_assignments.push(ValidPair {
                    task,
                    worker,
                    contribution,
                });
            }
        }

        let merge_us = stage_us(stage_started);

        self.tick_count += 1;
        TickReport {
            now,
            events_applied,
            tasks_expired,
            num_shards,
            largest_shard_pairs,
            strategies,
            new_assignments,
            solve_seconds,
            shard_solve_seconds,
            index_maintenance,
            stages: rdbsc_obs::StageTimings {
                apply_us,
                extract_us,
                solve_us: (solve_seconds * 1e6) as u64,
                merge_us,
                wal_append_us: 0,
                wal_fsync_us: 0,
            },
        }
    }

    /// The standing commitments in ascending worker order — the order every
    /// float fold over them must use (`HashMap` order differs between
    /// replicas, and between a live engine and one rebuilt by
    /// `restore_state`).
    fn commitments_by_worker(&self) -> Vec<(WorkerId, TaskId, Contribution)> {
        let mut committed: Vec<(WorkerId, TaskId, Contribution)> = self
            // lint:allow(D001): collected here, sorted before returning
            .committed
            .iter()
            .map(|(worker, (task, contribution))| (*worker, *task, *contribution))
            .collect();
        committed.sort_unstable_by_key(|(worker, _, _)| *worker);
        committed
    }

    /// Builds one shard's priors: the banked and en-route (committed)
    /// contributions of the shard's live tasks, remapped to local ids.
    /// `shard_tasks` is the shard's ascending live-id list (a task's local
    /// id is its position), `en_route` is [`Self::commitments_by_worker`],
    /// taken once per tick.
    ///
    /// The **append order is part of the determinism contract**: priors
    /// land in per-task float buckets whose downstream statistics fold in
    /// bucket order, so the order must be identical in every process —
    /// banked first in ascending task order, then commitments in ascending
    /// worker order — and the regression test compares the output across
    /// engines restored from permuted state vectors. The cost follows the
    /// shard and the en-route set, not the banked map, which grows for the
    /// engine's lifetime.
    fn shard_priors(
        &self,
        shard_tasks: &[TaskId],
        en_route: &[(WorkerId, TaskId, Contribution)],
    ) -> TaskPriors {
        let mut priors = TaskPriors::empty(shard_tasks.len());
        for (local, live) in shard_tasks.iter().enumerate() {
            for c in self.banked.get(live).into_iter().flatten() {
                priors.add(TaskId::from(local), *c);
            }
        }
        for (_, task, contribution) in en_route {
            if let Ok(local) = shard_tasks.binary_search(task) {
                priors.add(TaskId::from(local), *contribution);
            }
        }
        priors
    }

    /// The quality of the standing state: banked answers plus en-route
    /// workers, over live and retired tasks.
    pub fn current_objective(&self) -> EngineObjective {
        // Overlay the (small) en-route set on the banked answers without
        // cloning the whole banked map: only tasks with an en-route worker
        // need a merged contribution vector.
        // Built in ascending worker order (not HashMap order) so each
        // task's contribution vector — and therefore the float fold inside
        // expected_std_with — is identical on every engine with the same
        // state.
        let mut en_route: HashMap<TaskId, Vec<Contribution>> = HashMap::new();
        for (_, worker_task, contribution) in self.commitments_by_worker() {
            en_route.entry(worker_task).or_default().push(contribution);
        }

        let mut min_reliability = f64::INFINITY;
        let mut total_std = 0.0;
        let mut covered_tasks = 0usize;
        let mut merged = Vec::new();
        // One kernel scratch for every scored task.
        let mut scratch = ExpectedScratch::default();
        let mut score = |task_id: &TaskId, contributions: &[Contribution]| {
            if contributions.is_empty() {
                return;
            }
            let Some(task) = self
                .index
                .task(*task_id)
                .or_else(|| self.retired.get(task_id))
            else {
                return;
            };
            covered_tasks += 1;
            min_reliability = min_reliability.min(task_reliability_of(contributions));
            total_std += expected_std_with(
                contributions,
                task.window,
                task.effective_beta(self.config.beta),
                &mut scratch,
            );
        };
        // Fold in ascending task order: float addition is not associative,
        // so a HashMap-order fold would make total_std differ in the last
        // ulp between identically-stated engines — breaking the protocol's
        // byte-identical snapshot contract across processes.
        // lint:allow(D001): collected here, sorted on the next line
        let mut banked_ids: Vec<TaskId> = self.banked.keys().copied().collect();
        banked_ids.sort_unstable();
        for task_id in &banked_ids {
            let banked = &self.banked[task_id];
            match en_route.remove(task_id) {
                Some(extra) => {
                    merged.clear();
                    merged.extend_from_slice(banked);
                    merged.extend_from_slice(&extra);
                    score(task_id, &merged);
                }
                None => score(task_id, banked),
            }
        }
        // lint:allow(D001): collected here, sorted on the next line
        let mut en_route_ids: Vec<TaskId> = en_route.keys().copied().collect();
        en_route_ids.sort_unstable();
        for task_id in &en_route_ids {
            score(task_id, &en_route[task_id]);
        }

        if min_reliability == f64::INFINITY {
            min_reliability = 1.0;
        }
        EngineObjective {
            min_reliability,
            total_std,
            covered_tasks,
        }
    }

    fn apply(&mut self, event: EngineEvent) {
        match event {
            EngineEvent::TaskArrived(task) => {
                self.retired.remove(&task.id);
                // Re-posting a *live* task id with different data (moved
                // location, new window, new β) invalidates the standing
                // commitments: an en-route worker's contribution (approach
                // angle, arrival, deadline fit) was computed against the old
                // definition, and leaving it committed would either bank a
                // stale answer or orphan the traveller. Release those
                // workers so the next tick re-solves them against the new
                // definition. An *identical* re-post (an at-least-once wire
                // retry) is idempotent and keeps commitments.
                if let Some(old) = self.index.task(task.id) {
                    if *old != task {
                        self.committed.retain(|_, (t, _)| *t != task.id);
                    }
                }
                self.index.insert_task(task);
            }
            EngineEvent::TaskExpired(id) => self.retire_task(id),
            EngineEvent::WorkerCheckIn(worker) => self.index.insert_worker(worker),
            EngineEvent::WorkerMoved(id, to) => self.index.relocate_worker(id, to),
            EngineEvent::WorkerLeft(id) => {
                self.committed.remove(&id);
                self.index.remove_worker(id);
            }
        }
    }

    /// Removes a task from the live index, releasing workers still
    /// travelling towards it, and keeps it around for objective accounting.
    fn retire_task(&mut self, id: TaskId) {
        if let Some(task) = self.index.task(id).copied() {
            self.retired.insert(id, task);
            self.index.remove_task(id);
        }
        self.committed.retain(|_, (task, _)| *task != id);
    }

    /// Captures the engine's full logical state in the canonical (sorted)
    /// order, for checkpointing. Restoring the result with
    /// [`AssignmentEngine::restore_state`] into an empty index of any
    /// backend yields an engine whose observable behaviour — tick outputs,
    /// objective, snapshots — is byte-identical to this one's (the index
    /// determinism contract is content-based, so rebuilding by re-insertion
    /// loses nothing; only maintenance counters differ).
    pub fn dump_state(&self) -> EngineState {
        let committed = self.commitments_by_worker();
        // Banked contribution vectors keep their arrival order: the float
        // folds in `current_objective` are order-sensitive, so the inner
        // order is part of the state.
        let mut banked: Vec<(TaskId, Vec<Contribution>)> = self
            // lint:allow(D001): collected here, sorted two lines down
            .banked
            .iter()
            .map(|(t, cs)| (*t, cs.clone()))
            .collect();
        banked.sort_unstable_by_key(|(t, _)| *t);
        // lint:allow(D001): collected here, sorted on the next line
        let mut retired: Vec<Task> = self.retired.values().copied().collect();
        retired.sort_unstable_by_key(|t| t.id);
        EngineState {
            depart_at: self.index.depart_at(),
            allow_wait: self.index.allow_wait(),
            tasks: self.index.live_tasks(),
            workers: self.index.live_workers(),
            pending: self.pending.clone(),
            committed,
            banked,
            retired,
            tick_count: self.tick_count,
        }
    }

    /// Rebuilds an engine from a [`dump_state`](AssignmentEngine::dump_state)
    /// checkpoint: `index` must be empty and spatially compatible with the
    /// one that produced the state (same space and cell size — recovery uses
    /// the persisted serving configuration to guarantee this).
    pub fn restore_state(mut index: I, config: EngineConfig, state: EngineState) -> Self {
        for task in &state.tasks {
            index.insert_task(*task);
        }
        for worker in &state.workers {
            index.insert_worker(*worker);
        }
        index.set_depart_at(state.depart_at);
        index.set_allow_wait(state.allow_wait);
        let mut engine = Self::new(index, config);
        engine.pending = state.pending;
        engine.committed = state
            .committed
            .into_iter()
            .map(|(w, t, c)| (w, (t, c)))
            .collect();
        engine.banked_total = state.banked.iter().map(|(_, cs)| cs.len()).sum();
        engine.banked = state.banked.into_iter().collect();
        engine.retired = state.retired.into_iter().map(|t| (t.id, t)).collect();
        engine.tick_count = state.tick_count;
        engine
    }
}

/// The engine's full logical state in canonical order — everything a
/// checkpoint must carry to reconstruct an [`AssignmentEngine`] exactly
/// (index content, queued events, standing commitments, banked answers,
/// retired tasks and the tick counter; the solver and config are supplied
/// by the restoring side from its serving configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// The index's departure time.
    pub depart_at: f64,
    /// The index's waiting policy.
    pub allow_wait: bool,
    /// Live tasks, ascending id.
    pub tasks: Vec<Task>,
    /// Live workers, ascending id.
    pub workers: Vec<Worker>,
    /// Events queued and not yet applied, in submission order.
    pub pending: Vec<EngineEvent>,
    /// Standing commitments, ascending worker id.
    pub committed: Vec<(WorkerId, TaskId, Contribution)>,
    /// Banked answers per task, ascending task id; each task's vector keeps
    /// arrival order (the objective's float folds depend on it).
    pub banked: Vec<(TaskId, Vec<Contribution>)>,
    /// Retired tasks kept for objective accounting, ascending id.
    pub retired: Vec<Task>,
    /// Ticks run so far (drives per-tick solver seeding).
    pub tick_count: u64,
}

/// SplitMix64-style seed mixing: derives an independent, deterministic
/// sub-seed from a base seed and a salt — the per-tick and per-shard
/// solver generators.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rdbsc_geo::AngleRange;
    use rdbsc_model::valid_pairs::compute_valid_pairs;
    use rdbsc_model::{evaluate, Confidence, ProblemInstance, TimeWindow};

    fn task(id: u32, x: f64, y: f64, start: f64, end: f64) -> Task {
        Task::new(
            TaskId(id),
            Point::new(x, y),
            TimeWindow::new(start, end).unwrap(),
        )
    }

    fn worker(id: u32, x: f64, y: f64, speed: f64) -> Worker {
        Worker::new(
            WorkerId(id),
            Point::new(x, y),
            speed,
            AngleRange::full(),
            Confidence::new(0.9).unwrap(),
        )
        .unwrap()
    }

    /// A clustered world: `clusters` groups of co-located tasks and workers,
    /// too slow to cross between groups before the deadlines.
    fn clustered_events(clusters: usize, per_cluster: usize) -> Vec<EngineEvent> {
        let mut events = Vec::new();
        let mut rng = StdRng::seed_from_u64(99);
        let mut next_task = 0u32;
        let mut next_worker = 0u32;
        for c in 0..clusters {
            let cx = 0.15 + 0.7 * (c % 3) as f64 / 2.0;
            let cy = 0.15 + 0.7 * (c / 3) as f64 / 2.0;
            for _ in 0..per_cluster {
                let dx: f64 = rng.gen_range(-0.04..0.04);
                let dy: f64 = rng.gen_range(-0.04..0.04);
                events.push(EngineEvent::TaskArrived(task(
                    next_task,
                    cx + dx,
                    cy + dy,
                    0.0,
                    2.0,
                )));
                next_task += 1;
                let dx: f64 = rng.gen_range(-0.04..0.04);
                let dy: f64 = rng.gen_range(-0.04..0.04);
                events.push(EngineEvent::WorkerCheckIn(worker(
                    next_worker,
                    cx + dx,
                    cy + dy,
                    0.08,
                )));
                next_worker += 1;
            }
        }
        events
    }

    fn engine_with(events: Vec<EngineEvent>, parallelism: usize) -> AssignmentEngine {
        let mut engine = AssignmentEngine::new(
            GridIndex::new(Rect::unit(), 0.1),
            EngineConfig {
                parallelism,
                ..EngineConfig::default()
            },
        );
        engine.submit_all(events);
        engine
    }

    /// The priors bucket order must not depend on the insertion order of
    /// the `committed`/`banked` hash maps. Before `shard_priors` iterated
    /// sorted snapshots it walked `self.committed.values()` directly, so
    /// engines restored from permuted state vectors appended a task's
    /// en-route contributions in different orders — caught here by
    /// `TaskPriors`'s order-sensitive equality, independently of whether
    /// the divergence survives downstream float rounding. Nor may it depend
    /// on what is banked for tasks outside the shard: an engine that has
    /// been up for 10 k retired tasks builds the same priors.
    #[test]
    fn shard_priors_are_insertion_order_independent() {
        fn contribution(seed: u64) -> Contribution {
            Contribution::new(
                Confidence::new(0.5 + 0.4 * ((seed * 2_654_435_761) % 100) as f64 / 100.0).unwrap(),
                0.1 + seed as f64,
                0.05 * seed as f64 + 0.01,
            )
        }
        fn restore(rotation: usize, retired_banked: u32) -> AssignmentEngine {
            let mut committed: Vec<(WorkerId, TaskId, Contribution)> = vec![
                (WorkerId(10), TaskId(2), contribution(1)),
                (WorkerId(11), TaskId(2), contribution(2)),
                (WorkerId(12), TaskId(2), contribution(3)),
                (WorkerId(13), TaskId(0), contribution(4)),
                (WorkerId(14), TaskId(1), contribution(5)),
            ];
            let mut banked: Vec<(TaskId, Vec<Contribution>)> = vec![
                (TaskId(0), vec![contribution(6), contribution(7)]),
                (TaskId(2), vec![contribution(8)]),
            ];
            banked.extend((0..retired_banked).map(|i| (TaskId(100 + i), vec![contribution(9)])));
            let committed_rot = rotation % committed.len();
            committed.rotate_left(committed_rot);
            let banked_rot = rotation % banked.len();
            banked.rotate_left(banked_rot);
            if rotation % 2 == 1 {
                committed.reverse();
                banked.reverse();
            }
            let state = EngineState {
                depart_at: 0.0,
                allow_wait: true,
                tasks: (0..3)
                    .map(|i| task(i, 0.2 + 0.2 * i as f64, 0.5, 0.0, 4.0))
                    .collect(),
                workers: (10..15)
                    .map(|i| worker(i, 0.1 * (i - 10) as f64, 0.9, 0.2))
                    .collect(),
                pending: Vec::new(),
                committed,
                banked,
                retired: Vec::new(),
                tick_count: 0,
            };
            AssignmentEngine::restore_state(
                GridIndex::new(Rect::unit(), 0.1),
                EngineConfig::default(),
                state,
            )
        }
        let priors = |engine: AssignmentEngine| {
            let shard_tasks = [TaskId(0), TaskId(1), TaskId(2)];
            engine.shard_priors(&shard_tasks, &engine.commitments_by_worker())
        };
        let reference = priors(restore(0, 0));
        assert!(!reference.is_empty());
        for rotation in 1..5 {
            assert_eq!(
                priors(restore(rotation, 0)),
                reference,
                "priors bucket order diverged at rotation {rotation}"
            );
        }
        assert_eq!(priors(restore(3, 10_000)), reference);
    }

    #[test]
    fn tick_assigns_and_commits_workers() {
        let mut engine = engine_with(clustered_events(4, 6), 1);
        let report = engine.tick(0.0);
        assert!(
            report.num_shards >= 2,
            "clusters must shard: {}",
            report.num_shards
        );
        assert!(!report.new_assignments.is_empty());
        for pair in &report.new_assignments {
            assert!(engine.is_committed(pair.worker));
        }
        // A second tick with no completions assigns nothing new.
        let second = engine.tick(0.1);
        assert!(second.new_assignments.is_empty());
    }

    #[test]
    fn engine_result_is_byte_identical_across_backends() {
        use rdbsc_index::FlatGridIndex;
        // Drive a grid-backed and a flat-backed engine through the identical
        // multi-tick script (arrivals, answers, a wave of worker movement)
        // and require *element-wise identical* tick outputs — the
        // cross-backend determinism contract the pluggable index layer
        // guarantees.
        fn drive<I: SpatialIndex>(index: I) -> Vec<Vec<ValidPair>> {
            let mut engine = AssignmentEngine::new(
                index,
                EngineConfig {
                    parallelism: 2,
                    ..EngineConfig::default()
                },
            );
            engine.submit_all(clustered_events(5, 6));
            let mut outputs = Vec::new();
            let first = engine.tick(0.0);
            // Complete a few assignments so workers free up and move.
            for pair in first.new_assignments.iter().take(5) {
                engine.record_answer(pair.worker, pair.contribution);
            }
            outputs.push(first.new_assignments);
            for (i, id) in (0..30u32).enumerate() {
                engine.submit(EngineEvent::WorkerMoved(
                    WorkerId(id),
                    Point::new(0.1 + 0.027 * i as f64, 0.8 - 0.021 * i as f64),
                ));
            }
            outputs.push(engine.tick(0.5).new_assignments);
            outputs.push(engine.tick(1.0).new_assignments);
            outputs
        }
        let grid = drive(GridIndex::new(Rect::unit(), 0.1));
        let flat = drive(FlatGridIndex::new(Rect::unit(), 0.1));
        assert_eq!(grid, flat, "backends must produce identical assignments");
        assert!(grid.iter().map(Vec::len).sum::<usize>() > 0);
    }

    #[test]
    fn tick_reports_index_maintenance_deltas() {
        let mut engine = engine_with(clustered_events(3, 5), 1);
        let first = engine.tick(0.0);
        assert!(
            first.index_maintenance.tcell_rebuilds > 0,
            "first tick builds the reachability lists"
        );
        // A wave of cross-cell movement shows up as relocations.
        for id in 0..10u32 {
            engine.submit(EngineEvent::WorkerMoved(
                WorkerId(id),
                Point::new(0.95, 0.05),
            ));
        }
        let second = engine.tick(0.1);
        assert!(second.index_maintenance.relocations > 0);
        // An idle tick performs no maintenance.
        let idle = engine.tick(0.2);
        assert_eq!(idle.index_maintenance, MaintenanceCounters::default());
    }

    #[test]
    fn engine_result_is_independent_of_parallelism() {
        // The clustered world's small GREEDY shards, then a world of one
        // shard: two tight task clusters that every one of its workers
        // reaches. That shard is large and clustered, so the adaptive
        // solver sends it to D&C, which gets every thread of the tick and
        // values its leaves on helpers.
        let mut dnc_world = Vec::new();
        for i in 0..72u32 {
            let x = if i % 2 == 0 { 0.3 } else { 0.5 };
            let (dx, dy) = (0.005 * ((i / 2) % 6) as f64, 0.005 * ((i / 12) % 6) as f64);
            dnc_world.push(EngineEvent::TaskArrived(task(
                i,
                x + dx,
                0.88 + dy,
                0.0,
                3.0,
            )));
        }
        for j in 0..30u32 {
            dnc_world.push(EngineEvent::WorkerCheckIn(worker(
                j,
                0.3 + 0.2 * (j % 6) as f64 / 5.0,
                0.9,
                0.1,
            )));
        }
        for (world, strategy) in [(clustered_events(5, 8), "GREEDY"), (dnc_world, "D&C")] {
            let run = |threads: usize| {
                let mut engine = engine_with(world.clone(), threads);
                let report = engine.tick(0.0);
                let mut pairs: Vec<(TaskId, WorkerId, u64, u64)> = report
                    .new_assignments
                    .iter()
                    .map(|p| {
                        let c = p.contribution;
                        (p.task, p.worker, c.angle.to_bits(), c.arrival.to_bits())
                    })
                    .collect();
                pairs.sort();
                (pairs, report.strategies)
            };
            let sequential = run(1);
            assert!(
                sequential.1.contains(&strategy),
                "no shard went to {strategy}: {:?}",
                sequential.1
            );
            for threads in [2, 4] {
                assert_eq!(
                    run(threads),
                    sequential,
                    "thread count must not change the result"
                );
            }
        }
    }

    #[test]
    fn engine_quality_matches_monolithic_solve() {
        // The shards share no valid pair, so the sharded solve must reach the
        // same objective as one monolithic greedy solve over the full
        // instance (both end up greedy here: shards are small).
        let events = clustered_events(4, 6);
        let mut engine = engine_with(events.clone(), 2);
        let report = engine.tick(0.0);

        // Monolithic baseline over the identical instance.
        let tasks: Vec<Task> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::TaskArrived(t) => Some(*t),
                _ => None,
            })
            .collect();
        let workers: Vec<Worker> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::WorkerCheckIn(w) => Some(*w),
                _ => None,
            })
            .collect();
        let instance = ProblemInstance::new(tasks, workers, 0.5);
        let candidates = compute_valid_pairs(&instance);
        let request = SolveRequest::new(&instance, &candidates);
        let baseline = rdbsc_algos::greedy(&request, &GreedyConfig::default());
        let baseline_value = evaluate(&instance, &baseline);

        // Compare: engine committed pairs vs the baseline assignment.
        let mut engine_assignment = Assignment::for_instance(&instance);
        for pair in &report.new_assignments {
            engine_assignment
                .assign(pair.task, pair.worker, pair.contribution)
                .unwrap();
        }
        let engine_value = evaluate(&instance, &engine_assignment);

        assert_eq!(
            engine_value.assigned_workers,
            baseline_value.assigned_workers
        );
        assert!(
            (engine_value.total_std - baseline_value.total_std).abs()
                <= 0.05 * baseline_value.total_std.max(1e-9),
            "sharded {} vs monolithic {}",
            engine_value.total_std,
            baseline_value.total_std
        );
        assert!(
            (engine_value.min_reliability - baseline_value.min_reliability).abs() < 1e-9,
            "sharded {} vs monolithic {}",
            engine_value.min_reliability,
            baseline_value.min_reliability
        );
    }

    #[test]
    fn answers_release_workers_and_bank_contributions() {
        let mut engine = engine_with(clustered_events(2, 4), 1);
        let report = engine.tick(0.0);
        let done = report.new_assignments[0];
        engine.record_answer(done.worker, done.contribution);
        assert!(!engine.is_committed(done.worker));
        let objective = engine.current_objective();
        assert!(objective.min_reliability > 0.0);
        assert!(objective.covered_tasks >= 1);
        // The freed worker can serve again.
        let next = engine.tick(0.1);
        assert!(next.new_assignments.iter().any(|p| p.worker == done.worker));
    }

    #[test]
    fn expiration_retires_tasks_and_releases_travellers() {
        let mut engine =
            AssignmentEngine::new(GridIndex::new(Rect::unit(), 0.2), EngineConfig::default());
        engine.submit(EngineEvent::TaskArrived(task(0, 0.5, 0.5, 0.0, 1.0)));
        engine.submit(EngineEvent::WorkerCheckIn(worker(0, 0.4, 0.4, 0.5)));
        let report = engine.tick(0.0);
        assert_eq!(report.new_assignments.len(), 1);
        assert!(engine.is_committed(WorkerId(0)));

        // Time passes beyond the deadline without an answer.
        let late = engine.tick(2.0);
        assert_eq!(late.tasks_expired, 1);
        assert_eq!(engine.num_tasks(), 0);
        assert!(
            !engine.is_committed(WorkerId(0)),
            "traveller must be released"
        );
    }

    #[test]
    fn worker_events_update_the_live_state() {
        let mut engine =
            AssignmentEngine::new(GridIndex::new(Rect::unit(), 0.2), EngineConfig::default());
        engine.submit(EngineEvent::TaskArrived(task(0, 0.9, 0.9, 0.0, 2.0)));
        engine.submit(EngineEvent::WorkerCheckIn(worker(0, 0.1, 0.1, 0.05)));
        let report = engine.tick(0.0);
        assert!(report.new_assignments.is_empty(), "too slow from afar");

        // The worker wanders close to the task and becomes assignable.
        engine.submit(EngineEvent::WorkerMoved(
            WorkerId(0),
            Point::new(0.85, 0.85),
        ));
        let report = engine.tick(0.1);
        assert_eq!(report.new_assignments.len(), 1);

        // It leaves: the commitment disappears with it.
        engine.submit(EngineEvent::WorkerLeft(WorkerId(0)));
        engine.tick(0.2);
        assert_eq!(engine.num_workers(), 0);
        assert!(!engine.is_committed(WorkerId(0)));
    }

    #[test]
    fn identical_task_repost_keeps_the_en_route_worker() {
        // At-least-once delivery: a wire retry of the same task post must
        // not tear down the standing assignment.
        let mut engine =
            AssignmentEngine::new(GridIndex::new(Rect::unit(), 0.2), EngineConfig::default());
        let posted = task(0, 0.5, 0.5, 0.0, 5.0);
        engine.submit(EngineEvent::TaskArrived(posted));
        engine.submit(EngineEvent::WorkerCheckIn(worker(0, 0.4, 0.4, 0.5)));
        let report = engine.tick(0.0);
        assert_eq!(report.new_assignments.len(), 1);

        engine.submit(EngineEvent::TaskArrived(posted)); // identical retry
        let retry = engine.tick(0.1);
        assert!(
            engine.is_committed(WorkerId(0)),
            "retry must keep the commitment"
        );
        assert!(
            retry.new_assignments.is_empty(),
            "no double-commit on an idempotent re-post"
        );
    }

    #[test]
    fn changed_task_repost_releases_the_en_route_worker() {
        // The task moved: the worker's committed contribution (angle,
        // arrival) was computed against the old location, so the engine
        // releases it and re-solves against the new definition.
        let mut engine =
            AssignmentEngine::new(GridIndex::new(Rect::unit(), 0.2), EngineConfig::default());
        engine.submit(EngineEvent::TaskArrived(task(0, 0.5, 0.5, 0.0, 5.0)));
        engine.submit(EngineEvent::WorkerCheckIn(worker(0, 0.4, 0.4, 0.5)));
        let first = engine.tick(0.0);
        assert_eq!(first.new_assignments.len(), 1);
        let old_contribution = first.new_assignments[0].contribution;

        engine.submit(EngineEvent::TaskArrived(task(0, 0.7, 0.7, 0.0, 5.0)));
        let second = engine.tick(0.1);
        assert_eq!(
            second.new_assignments.len(),
            1,
            "released worker re-solves against the new definition"
        );
        let new_pair = second.new_assignments[0];
        assert_eq!(new_pair.worker, WorkerId(0));
        assert_ne!(
            new_pair.contribution.arrival, old_contribution.arrival,
            "the commitment must be recomputed, not carried over"
        );
        assert!(engine.is_committed(WorkerId(0)));
        assert_eq!(engine.num_committed(), 1, "exactly one commitment stands");
    }

    #[test]
    fn adaptive_solver_picks_greedy_for_small_shards() {
        let solver = AdaptiveBatchSolver::default();
        let instance = ProblemInstance::new(
            vec![task(0, 0.5, 0.5, 0.0, 10.0)],
            vec![worker(0, 0.4, 0.4, 0.5)],
            0.5,
        );
        let candidates = compute_valid_pairs(&instance);
        let request = SolveRequest::new(&instance, &candidates);
        assert_eq!(solver.strategy_name(&request), "GREEDY");
    }

    #[test]
    fn adaptive_solver_prefers_sampling_under_tight_deadlines() {
        let solver = AdaptiveBatchSolver {
            greedy_max_pairs: 0, // force the large-shard path
            ..AdaptiveBatchSolver::default()
        };
        let tight = ProblemInstance::new(
            vec![task(0, 0.5, 0.5, 0.0, 0.2)],
            vec![worker(0, 0.45, 0.45, 0.5)],
            0.5,
        );
        let candidates = compute_valid_pairs(&tight);
        let request = SolveRequest::new(&tight, &candidates);
        assert_eq!(solver.strategy_name(&request), "SAMPLING");
    }

    #[test]
    fn adaptive_solver_uses_dnc_for_large_clustered_shards() {
        let solver = AdaptiveBatchSolver {
            greedy_max_pairs: 0,
            dnc_min_tasks: 32,
            ..AdaptiveBatchSolver::default()
        };
        // Two tight clusters of tasks -> low fractal dimension.
        let mut tasks = Vec::new();
        for i in 0..64u32 {
            let (cx, cy) = if i % 2 == 0 { (0.2, 0.2) } else { (0.8, 0.8) };
            tasks.push(task(
                i,
                cx + 0.01 * ((i / 2) % 4) as f64,
                cy + 0.01 * ((i / 8) % 4) as f64,
                0.0,
                10.0,
            ));
        }
        let workers = (0..8).map(|j| worker(j, 0.5, 0.5, 2.0)).collect();
        let clustered = ProblemInstance::new(tasks, workers, 0.5);
        let candidates = compute_valid_pairs(&clustered);
        let request = SolveRequest::new(&clustered, &candidates);
        assert_eq!(solver.strategy_name(&request), "D&C");
    }
}
