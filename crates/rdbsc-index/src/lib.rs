//! # rdbsc-index
//!
//! The spatial-index layer: one serving index, [`FlatGridIndex`] — a flat
//! dense grid built for worker-movement-heavy workloads — and the paper's
//! cost-model-based grid (**RDB-SC-Grid**, Section 7), [`GridIndex`], kept
//! as the reference the experiments reproduce and the oracle the tests
//! compare the serving index against. Both implement the [`SpatialIndex`]
//! trait and share their geometry, pruning and shard extraction.
//!
//! Both partition the data space into square cells of side `η`,
//! store per-cell task and worker lists together with summary bounds
//! (maximum worker speed, angular hull of worker headings, latest task
//! deadline), and maintain for every cell a `tcell_list` — the cells that
//! are *reachable* for at least one of its workers. Cell-level pruning
//! (minimum inter-cell distance over maximum speed vs. the latest deadline,
//! plus an angular-hull test) keeps the lists small, which makes retrieving
//! the valid task-and-worker pairs much cheaper than the brute-force
//! `O(m·n)` scan.
//!
//! The capabilities on top of that structure:
//!
//! * **The [`SpatialIndex`] trait** ([`traits`]): insert/remove/
//!   relocate tasks and workers, pruned candidate retrieval, shard
//!   extraction and maintenance counters, with a determinism contract
//!   (identical candidate sequences and shard decompositions from the same
//!   calls, whichever implementation receives them).
//! * **The serving index**, [`FlatGridIndex`] ([`flat`]): slot-arena
//!   storage behind generational handles, O(1) relocation and lazy batched
//!   summary repair. Every tier of the serving stack runs it by type.
//! * **The reference**, [`GridIndex`] ([`grid`]): `BTreeSet` occupancy
//!   sets and eager per-event summary repair, as the paper describes it.
//! * **Cost-model `η`** ([`cost_model`]): the cell side is chosen by
//!   minimising the expected update cost of Appendix I (via the
//!   correlation fractal dimension of the task distribution).
//! * **Spatial sharding** ([`shard`]): the connected components of the
//!   cell-reachability relation partition the live instance into independent
//!   sub-problems that the online engine solves in parallel.
//!
//! ## Example
//!
//! Maintain an index under churn and retrieve exactly the valid pairs:
//!
//! ```
//! use rdbsc_geo::{AngleRange, Point, Rect};
//! use rdbsc_index::GridIndex;
//! use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
//!
//! let mut index = GridIndex::new(Rect::unit(), 0.25);
//! index.insert_task(Task::new(
//!     TaskId(0),
//!     Point::new(0.3, 0.3),
//!     TimeWindow::new(0.0, 4.0).unwrap(),
//! ));
//! index.insert_worker(
//!     Worker::new(
//!         WorkerId(0),
//!         Point::new(0.25, 0.25),
//!         0.4,
//!         AngleRange::full(),
//!         Confidence::new(0.95).unwrap(),
//!     )
//!     .unwrap(),
//! );
//!
//! // Retrieval agrees with brute force, here and after any maintenance.
//! assert_eq!(
//!     index.retrieve_valid_pairs().num_pairs(),
//!     index.retrieve_valid_pairs_bruteforce().num_pairs(),
//! );
//!
//! // Incremental churn: the worker walks, the task expires.
//! index.relocate_worker(WorkerId(0), Point::new(0.5, 0.5));
//! index.remove_task(TaskId(0));
//! assert_eq!(index.retrieve_valid_pairs().num_pairs(), 0);
//!
//! // Independent sub-problems for the parallel engine.
//! let shards = index.extract_shards(0.5);
//! assert!(shards.is_empty(), "no tasks left, nothing to shard");
//! ```
//!
//! [`FlatGridIndex`] answers the same calls with the same results — see the
//! [`SpatialIndex`] docs for the shared surface.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost_model;
pub mod flat;
pub mod geometry;
pub mod grid;
pub mod shard;
mod topology;
pub mod traits;

pub use cost_model::{estimate_fractal_dimension, optimal_eta, update_cost, CostModelParams};
pub use flat::FlatGridIndex;
pub use grid::{GridIndex, GridStats};
pub use shard::ProblemShard;
pub use traits::{populate_from_instance, MaintenanceCounters, SpatialIndex};
