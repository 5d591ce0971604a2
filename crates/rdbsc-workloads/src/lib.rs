//! # rdbsc-workloads
//!
//! Workload generators reproducing the data sets of the RDB-SC paper's
//! experimental study (Section 8.1, Table 2), plus the polycentric workload
//! the online engine is benchmarked on:
//!
//! * [`synthetic`] — UNIFORM and SKEWED synthetic instances over `[0, 1]²`
//!   with the parameter grid of Table 2;
//! * [`metro`] — multi-city "metro area" instances: clustered tasks and
//!   workers separated by empty regions, the regime where the engine's
//!   connected-component sharding decomposes the domain;
//! * [`poi`] — a simulated Point-of-Interest data set standing in for the
//!   Beijing POI data (clustered urban density; tasks are drawn from it);
//! * [`trajectories`] — a simulated taxi-trajectory data set standing in for
//!   T-Drive; workers are derived exactly as in the paper (start point,
//!   average speed, minimal enclosing direction sector);
//! * [`peer_rating`] — the gMission peer-rating model that turns photo scores
//!   into worker reliabilities;
//! * [`config`] — the Table 2 experiment configuration with paper defaults
//!   and the scaled-down defaults used by the laptop-scale harness.
//!
//! ## Example
//!
//! Generate a Table 2 instance and a sharded metro instance:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use rdbsc_workloads::{
//!     generate_instance, generate_metro_instance, ExperimentConfig, MetroConfig,
//! };
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let table2 = generate_instance(
//!     &ExperimentConfig::small_default().with_tasks(60).with_workers(40),
//!     &mut rng,
//! );
//! assert_eq!((table2.num_tasks(), table2.num_workers()), (60, 40));
//!
//! let metro = generate_metro_instance(
//!     &MetroConfig::default().with_tasks(80).with_workers(120),
//!     &mut rng,
//! );
//! assert_eq!((metro.num_tasks(), metro.num_workers()), (80, 120));
//! // Every metro task opens within the configured start horizon.
//! assert!(metro.tasks.iter().all(|t| t.window.start <= 0.2));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod metro;
pub mod peer_rating;
pub mod poi;
pub mod synthetic;
pub mod trajectories;

pub use config::{Distribution, ExperimentConfig, Scale};
pub use metro::{generate_metro_instance, MetroConfig};
pub use peer_rating::{PeerRatingModel, RatedUser};
pub use poi::PoiGenerator;
pub use synthetic::generate_instance;
pub use trajectories::{Trajectory, TrajectoryGenerator};
