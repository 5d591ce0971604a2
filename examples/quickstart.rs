//! Quick start: generate a synthetic RDB-SC instance, solve it with all
//! three approximation algorithms plus the G-TRUTH baseline, and compare the
//! two objectives (minimum task reliability and total expected diversity).
//!
//! Run with `cargo run --release --example quickstart`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdbsc::prelude::*;
use std::time::Instant;

fn main() {
    // A laptop-sized instance with the paper's default parameter ranges
    // (Table 2): uniform locations, worker confidences in (0.9, 1),
    // velocities in [0.2, 0.3], moving-angle ranges up to π/6.
    let config = ExperimentConfig::small_default()
        .with_tasks(300)
        .with_workers(400)
        .with_seed(42);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let instance = generate_instance(&config, &mut rng);
    println!(
        "instance: {} tasks, {} workers, beta = {:.2}",
        instance.num_tasks(),
        instance.num_workers(),
        instance.beta
    );

    // Valid task-and-worker pairs (direction + deadline constraints). The
    // grid index accelerates this; the brute-force path is fine at this size.
    let started = Instant::now();
    let candidates = compute_valid_pairs(&instance);
    println!(
        "valid pairs: {} ({} connected workers) in {:?}",
        candidates.num_pairs(),
        candidates
            .by_worker
            .iter()
            .filter(|a| !a.is_empty())
            .count(),
        started.elapsed()
    );

    // Solve with the paper's four approaches.
    println!(
        "\n{:<10} {:>16} {:>14} {:>12} {:>10}",
        "approach", "min reliability", "total_STD", "assigned", "time"
    );
    for solver in Solver::paper_lineup() {
        let mut rng = StdRng::seed_from_u64(7);
        let request = SolveRequest::new(&instance, &candidates);
        let started = Instant::now();
        let assignment = solver.solve(&request, &mut rng);
        let elapsed = started.elapsed();
        let value = evaluate(&instance, &assignment);
        println!(
            "{:<10} {:>16.4} {:>14.4} {:>12} {:>10.2?}",
            solver.name(),
            value.min_reliability,
            value.total_std,
            value.assigned_workers,
            elapsed
        );
    }

    println!(
        "\nHigher is better for both objectives. SAMPLING is the fastest approach and\n\
         GREEDY the strongest on diversity at this laptop scale (our greedy evaluates\n\
         exact marginal gains); D&C and G-TRUTH sit between. See EXPERIMENTS.md for\n\
         how these orderings compare with the paper's Figures 13-16."
    );
}
