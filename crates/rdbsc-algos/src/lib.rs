//! # rdbsc-algos
//!
//! The RDB-SC assignment algorithms:
//!
//! * [`mod@greedy`] — the iterative best-pair greedy of Section 4 (Figure 3),
//!   with the dominance-based pair ranking and the lower/upper-bound pruning
//!   of Section 4.3.
//! * [`mod@sampling`] — the random-sampling solver of Section 5 (Figure 5), with
//!   the (ε, δ) sample-size determination of Section 5.2.
//! * [`dnc`] — the divide-and-conquer solver of Section 6 (Figures 6–9):
//!   `BG_Partition` via balanced 2-means on task locations and `SA_Merge`
//!   with independent/dependent conflicting-worker resolution.
//! * [`gtruth`] — the G-TRUTH baseline of Section 8.1 (divide-and-conquer
//!   with a 10× larger sample size).
//! * [`exact`] — an exhaustive optimal solver for tiny instances, used as a
//!   test oracle.
//! * [`incremental`] — the periodic incremental updating strategy of
//!   Figure 10, used by the platform simulator.
//! * [`baselines`] — prior-work assignment policies (nearest task,
//!   maximum task coverage) used for ablation comparisons.
//!
//! All solvers share the [`SolveRequest`] input (instance, valid-pair graph,
//! optional banked priors) and produce an `Assignment`. Two entry points
//! sit on top:
//!
//! * [`Solver`] — the paper's four approaches as one enum, for harnesses
//!   that sweep strategies;
//! * [`BatchSolver`] — the *sharded* solving interface used by the online
//!   engine: one call per independent spatial shard, safe to invoke from
//!   multiple threads. Every [`Solver`] is a `BatchSolver` that applies
//!   itself to each shard; adaptive implementations pick a strategy per
//!   shard from its size and deadline slack.
//!
//! ## Example
//!
//! Solve a small instance with the paper line-up and compare objectives:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use rdbsc_algos::{SolveRequest, Solver};
//! use rdbsc_geo::{AngleRange, Point};
//! use rdbsc_model::{
//!     compute_valid_pairs, evaluate, Confidence, ProblemInstance, Task, TaskId, TimeWindow,
//!     Worker, WorkerId,
//! };
//!
//! let tasks = vec![
//!     Task::new(TaskId(0), Point::new(0.4, 0.5), TimeWindow::new(0.0, 8.0).unwrap()),
//!     Task::new(TaskId(1), Point::new(0.6, 0.5), TimeWindow::new(0.0, 8.0).unwrap()),
//! ];
//! let workers = (0..4)
//!     .map(|j| {
//!         Worker::new(
//!             WorkerId(j),
//!             Point::new(0.1 + 0.2 * j as f64, 0.3),
//!             0.4,
//!             AngleRange::full(),
//!             Confidence::new(0.9).unwrap(),
//!         )
//!         .unwrap()
//!     })
//!     .collect();
//! let instance = ProblemInstance::new(tasks, workers, 0.5);
//! let candidates = compute_valid_pairs(&instance);
//! let request = SolveRequest::new(&instance, &candidates);
//!
//! for solver in Solver::paper_lineup() {
//!     let mut rng = StdRng::seed_from_u64(1);
//!     let assignment = solver.solve(&request, &mut rng);
//!     let value = evaluate(&instance, &assignment);
//!     assert_eq!(value.assigned_workers, 4, "{} left workers idle", solver.name());
//!     assert!(value.min_reliability > 0.0);
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod dnc;
pub mod exact;
pub mod greedy;
pub mod gtruth;
pub mod incremental;
pub mod pruning;
pub mod sample_size;
pub mod sampling;
pub mod solver;
mod valuation;

pub use baselines::{max_task_coverage_assignment, nearest_task_assignment};
pub use dnc::{divide_and_conquer, DncConfig};
pub use exact::{exact_best, ExactConfig};
pub use greedy::{greedy, GreedyConfig};
pub use gtruth::{ground_truth, GroundTruthConfig};
pub use incremental::{IncrementalAssigner, IncrementalConfig, RoundOutcome};
pub use sample_size::{certified_sample_size, determine_sample_size, simple_sample_size};
pub use sampling::{sampling, SamplingConfig};
pub use solver::{default_parallelism, BatchSolver, SolveRequest, Solver};
