//! # rdbsc-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! RDB-SC paper's evaluation (Section 8), plus three small tools for the
//! serving stack: `wal_dump` (reads a WAL data directory back), `promcheck`
//! (validates a Prometheus exposition) and `loadgen` (puts closed-loop HTTP
//! traffic on a running `rdbsc-server`).
//!
//! Each figure is a parameter sweep: for every x-axis value the harness
//! builds the corresponding workload, runs the four approaches compared in
//! the paper (GREEDY, SAMPLING, D&C, G-TRUTH) and records the two objectives
//! (minimum task reliability and `total_STD`) together with the wall-clock
//! running time. The `experiments` binary prints each figure as an aligned
//! table whose rows correspond to the points the paper plots
//! ([`all_figure_ids`] lists them). Timing the serving stack is not this
//! crate's job: that is the `benchmark/` package at the repository root.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod runner;

pub use figures::{
    all_figure_ids, figures_to_json, resolve_figure_ids, run_figure, Figure, FigureRow,
    SolverMetric,
};
pub use runner::{run_lineup_on, HarnessOptions, SOLVER_THREADS};
