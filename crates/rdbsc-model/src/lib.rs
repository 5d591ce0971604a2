//! # rdbsc-model
//!
//! The RDB-SC problem model: time-constrained spatial tasks, dynamically
//! moving workers, task-and-worker assignments, and the two quality measures
//! the paper optimises — **reliability** and **expected spatial/temporal
//! diversity** — together with their possible-worlds semantics.
//!
//! Module map (each section of the paper has a home):
//!
//! | Paper | Module |
//! |---|---|
//! | Definition 1 (tasks) | [`task`] |
//! | Definition 2 (workers) | [`worker`] |
//! | Definition 3 / Eq. 1, 8 (reliability) | [`mod@reliability`] |
//! | Eqs. 3–5 (SD/TD/STD entropy) | [`diversity`] |
//! | Eq. 2, 6 (possible worlds) | [`possible_worlds`] |
//! | Eqs. 9–11, Lemma 3.1 (matrix reduction) | [`expected`] |
//! | Definition 4 (the RDB-SC problem) | [`instance`], [`assignment`], [`objective`] |
//! | Valid task-and-worker pairs (constraint 1) | [`valid_pairs`] |
//! | Skyline dominance / top-k dominating ranks | [`dominance`] |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregation;
pub mod assignment;
pub mod diversity;
pub mod dominance;
pub mod error;
pub mod expected;
pub mod ids;
pub mod instance;
pub mod objective;
pub mod possible_worlds;
pub mod reliability;
pub mod task;
pub mod valid_pairs;
pub mod worker;

pub use aggregation::{aggregate_answers, AggregationConfig, AnswerGroup};
pub use assignment::Assignment;
pub use diversity::{spatial_diversity, std_diversity, temporal_diversity};
pub use dominance::{dominates, rank_by_dominating_count, DominanceRanker};
pub use error::ModelError;
pub use expected::{expected_sd, expected_std, expected_td, BasePlusOne};
pub use ids::{TaskId, WorkerId};
pub use instance::ProblemInstance;
pub use objective::{
    evaluate, evaluate_with_priors, MinReliabilityScope, ObjectiveValue, TaskPriors,
};
pub use possible_worlds::{expected_std_exhaustive, PossibleWorlds};
pub use reliability::{log_reliability, reliability, Confidence};
pub use task::{Task, TimeWindow};
pub use valid_pairs::{compute_valid_pairs, BipartiteCandidates, Contribution, ValidPair};
pub use worker::Worker;
