//! Shared plumbing: run the paper's solver line-up on an instance and record
//! objectives and running times.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdbsc_algos::{SolveRequest, Solver};
use rdbsc_model::{compute_valid_pairs, evaluate, ProblemInstance};
use rdbsc_workloads::Scale;
use std::time::Instant;

/// Options shared by every experiment run.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Laptop-scale (default) or paper-scale workloads.
    pub scale: Scale,
    /// Base random seed (workload and solver seeds derive from it).
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 42,
        }
    }
}

/// The measurements recorded for one solver at one x-axis point.
#[derive(Debug, Clone)]
pub struct SolverMeasurement {
    /// Solver display name (GREEDY / SAMPLING / D&C / G-TRUTH).
    pub solver: String,
    /// Minimum task reliability.
    pub min_reliability: f64,
    /// Total expected spatial/temporal diversity.
    pub total_std: f64,
    /// Number of assigned workers.
    pub assigned_workers: usize,
    /// Wall-clock running time of the solver, in seconds (excludes workload
    /// generation and valid-pair computation).
    pub seconds: f64,
}

/// The threads every figure's solves run on: one, so that the running-time
/// figures compare the paper's sequential algorithms. (The assignments are
/// the same at any thread count.)
pub const SOLVER_THREADS: usize = 1;

/// Runs the full paper line-up on an instance, on [`SOLVER_THREADS`]
/// threads.
pub fn run_lineup_on(instance: &ProblemInstance, seed: u64) -> Vec<SolverMeasurement> {
    let candidates = compute_valid_pairs(instance);
    let request = SolveRequest::new(instance, &candidates).with_threads(SOLVER_THREADS);
    Solver::paper_lineup()
        .into_iter()
        .map(|solver| {
            let mut rng = StdRng::seed_from_u64(seed);
            let started = Instant::now();
            let assignment = solver.solve(&request, &mut rng);
            let seconds = started.elapsed().as_secs_f64();
            let value = evaluate(instance, &assignment);
            SolverMeasurement {
                solver: solver.name().to_string(),
                min_reliability: value.min_reliability,
                total_std: value.total_std,
                assigned_workers: value.assigned_workers,
                seconds,
            }
        })
        .collect()
}
