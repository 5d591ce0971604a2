//! # rdbsc — Reliable Diversity-Based Spatial Crowdsourcing
//!
//! A from-scratch Rust implementation of *"Reliable Diversity-Based Spatial
//! Crowdsourcing by Moving Workers"* (Cheng et al., PVLDB 8(10), VLDB 2015).
//!
//! The RDB-SC problem assigns **dynamically moving workers** (each with a
//! location, speed, moving-direction cone and confidence) to
//! **time-constrained spatial tasks** (each with a location and valid
//! period), maximising two quality measures at once:
//!
//! * the **minimum reliability** over tasks — the probability that at least
//!   one assigned worker completes each task, and
//! * the **total expected spatial/temporal diversity** — an entropy measure
//!   of how spread out the workers' approach angles and arrival times are,
//!   taken in expectation over the workers' success/failure outcomes.
//!
//! The problem is NP-hard; this crate provides the paper's three
//! approximation algorithms (greedy, sampling, divide-and-conquer), the
//! cost-model-based grid index for dynamic worker/task maintenance, the
//! workload generators of the experimental study and a platform simulator
//! for the incremental (online) setting.
//!
//! ## Quick start
//!
//! ```
//! use rdbsc::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Generate a small synthetic instance (UNIFORM distribution, Table 2 defaults).
//! let config = ExperimentConfig::small_default().with_tasks(50).with_workers(80);
//! let mut rng = StdRng::seed_from_u64(7);
//! let instance = generate_instance(&config, &mut rng);
//!
//! // Compute the valid task-and-worker pairs and solve with the greedy algorithm.
//! let candidates = compute_valid_pairs(&instance);
//! let assignment = greedy(&SolveRequest::new(&instance, &candidates), &GreedyConfig::default());
//!
//! // Evaluate both RDB-SC objectives.
//! let value = evaluate(&instance, &assignment);
//! assert!(value.min_reliability >= 0.0 && value.min_reliability <= 1.0);
//! assert!(value.total_std >= 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Sub-crate | Contents |
//! |---|---|
//! | [`geo`] | points, angle ranges, the worker motion/reachability model |
//! | [`model`] | tasks, workers, assignments, reliability, diversity, possible worlds |
//! | [`cluster`] | the balanced 2-means behind divide-and-conquer, and the serving layer's uniform region tables |
//! | [`index`] | the spatial-index layer: [`SpatialIndex`](rdbsc_index::SpatialIndex), the flat dense-grid serving index, the paper's RDB-SC-Grid as reference |
//! | [`algos`] | greedy / sampling / divide-and-conquer / exact / incremental solvers |
//! | [`workloads`] | UNIFORM & SKEWED generators, simulated POI / trajectory data, Table 2 config |
//! | [`platform`] | the platform simulator, the parallel assignment engine, the region router + its [`EngineHandle`](rdbsc_platform::EngineHandle) |
//! | [`server`] | the HTTP/1.1 online serving subsystem (admission control, micro-batching, metrics) |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use rdbsc_algos as algos;
pub use rdbsc_cluster as cluster;
pub use rdbsc_geo as geo;
pub use rdbsc_index as index;
pub use rdbsc_model as model;
pub use rdbsc_platform as platform;
pub use rdbsc_server as server;
pub use rdbsc_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use rdbsc_algos::{
        divide_and_conquer, exact_best, greedy, ground_truth, max_task_coverage_assignment,
        nearest_task_assignment, sampling, DncConfig, ExactConfig, GreedyConfig, GroundTruthConfig,
        IncrementalAssigner, IncrementalConfig, SamplingConfig, SolveRequest, Solver,
    };
    pub use rdbsc_geo::{AngleRange, MotionModel, Point, Rect, Sector};
    pub use rdbsc_index::{FlatGridIndex, GridIndex, GridStats, MaintenanceCounters, SpatialIndex};
    pub use rdbsc_model::{
        aggregate_answers, compute_valid_pairs, evaluate, expected_std, reliability,
        spatial_diversity, std_diversity, temporal_diversity, Assignment, BipartiteCandidates,
        Confidence, Contribution, ObjectiveValue, ProblemInstance, Task, TaskId, TaskPriors,
        TimeWindow, ValidPair, Worker, WorkerId,
    };
    pub use rdbsc_platform::{
        AssignmentEngine, EngineConfig, EngineEvent, EngineHandle, PlatformConfig, PlatformSim,
        SimulationReport,
    };
    pub use rdbsc_server::{Server, ServerConfig};
    pub use rdbsc_workloads::{
        generate_instance, generate_metro_instance, Distribution, ExperimentConfig, MetroConfig,
        PoiGenerator, Scale, TrajectoryGenerator,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_core_types() {
        use crate::prelude::*;
        // Compile-time smoke test: the core entry points are reachable.
        let _ = ExperimentConfig::small_default();
        let _ = GreedyConfig::default();
        let _ = SamplingConfig::default();
        let _ = DncConfig::default();
        let _ = PlatformConfig::default();
        let _ = ServerConfig::default();
        let _ = EngineConfig::default();
        let _ = Point::new(0.0, 0.0);
    }
}
