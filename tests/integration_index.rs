//! Integration tests of the grid index against generated workloads: the
//! index-accelerated valid-pair retrieval must agree exactly with the
//! brute-force computation, across distributions and under dynamic updates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdbsc::prelude::*;

fn pair_set(graph: &BipartiteCandidates) -> Vec<(TaskId, WorkerId)> {
    let mut v: Vec<(TaskId, WorkerId)> = graph.pairs.iter().map(|p| (p.task, p.worker)).collect();
    v.sort();
    v
}

fn generate(seed: u64, distribution: Distribution, m: usize, n: usize) -> ProblemInstance {
    let config = ExperimentConfig::small_default()
        .with_tasks(m)
        .with_workers(n)
        .with_distribution(distribution)
        .with_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    generate_instance(&config, &mut rng)
}

#[test]
fn index_retrieval_matches_bruteforce_on_uniform_and_skewed_data() {
    for (seed, distribution) in [(1, Distribution::Uniform), (2, Distribution::Skewed)] {
        let instance = generate(seed, distribution, 150, 150);
        let brute = compute_valid_pairs(&instance);
        let mut index = GridIndex::from_instance(&instance);
        let with_index = index.retrieve_valid_pairs();
        assert_eq!(
            pair_set(&with_index),
            pair_set(&brute),
            "index disagrees with brute force for {distribution:?}"
        );
    }
}

#[test]
fn index_stays_correct_under_dynamic_churn() {
    let instance = generate(3, Distribution::Uniform, 100, 100);
    let mut index = GridIndex::from_instance(&instance);

    // Remove a third of the workers and half of the tasks, then re-insert
    // some of them; after every burst the retrieval must match brute force.
    for w in (0..instance.num_workers()).step_by(3) {
        index.remove_worker(WorkerId::from(w));
    }
    for t in (0..instance.num_tasks()).step_by(2) {
        index.remove_task(TaskId::from(t));
    }
    let after_removal = index.retrieve_valid_pairs();
    let brute_after_removal = index.retrieve_valid_pairs_bruteforce();
    assert_eq!(pair_set(&after_removal), pair_set(&brute_after_removal));
    assert!(after_removal.num_pairs() < compute_valid_pairs(&instance).num_pairs());

    for w in (0..instance.num_workers()).step_by(6) {
        index.insert_worker(instance.workers[w]);
    }
    for t in (0..instance.num_tasks()).step_by(4) {
        index.insert_task(instance.tasks[t]);
    }
    let after_reinsert = index.retrieve_valid_pairs();
    let brute_after_reinsert = index.retrieve_valid_pairs_bruteforce();
    assert_eq!(pair_set(&after_reinsert), pair_set(&brute_after_reinsert));
}

#[test]
fn index_prunes_a_meaningful_fraction_of_cell_pairs() {
    // With short task windows and moderate speeds, most cell pairs are
    // unreachable and the tcell lists should stay small.
    let config = ExperimentConfig::small_default()
        .with_tasks(300)
        .with_workers(300)
        .with_rt_range(0.25, 0.5)
        .with_velocity_range(0.1, 0.2)
        .with_seed(7);
    let mut rng = StdRng::seed_from_u64(7);
    let instance = generate_instance(&config, &mut rng);
    let mut index = GridIndex::from_instance(&instance);
    index.refresh_tcell_lists();
    let stats = index.stats();
    // The exact fraction depends on the generated workload and therefore on
    // the RNG stream; the vendored offline `rand` stand-in produces a
    // slightly different instance than the real crate did (0.19 vs 0.21 for
    // this seed), so the bound leaves a little slack.
    assert!(
        stats.pruned_fraction > 0.15,
        "expected substantial cell-level pruning, got {:.2}",
        stats.pruned_fraction
    );
    // And the retrieval must still be exact.
    let with_index = index.retrieve_valid_pairs();
    let brute = compute_valid_pairs(&instance);
    assert_eq!(pair_set(&with_index), pair_set(&brute));
}

#[test]
fn both_backends_agree_on_generated_workloads() {
    // The prelude exposes the whole pluggable-index surface; the two
    // backends must produce element-wise identical candidate streams on
    // generated workloads (the deeper churn coverage lives in
    // `tests/proptest_backends.rs`).
    for (seed, distribution) in [(4, Distribution::Uniform), (5, Distribution::Skewed)] {
        let instance = generate(seed, distribution, 120, 120);
        let mut grid = GridIndex::from_instance_with_eta(&instance, 0.15);
        let mut flat = FlatGridIndex::from_instance_with_eta(&instance, 0.15);
        let from_grid = grid.retrieve_valid_pairs();
        let from_flat = SpatialIndex::retrieve_valid_pairs(&mut flat);
        let stream = |g: &BipartiteCandidates| -> Vec<(TaskId, WorkerId)> {
            g.pairs.iter().map(|p| (p.task, p.worker)).collect()
        };
        assert_eq!(
            stream(&from_grid),
            stream(&from_flat),
            "backends diverged for {distribution:?}"
        );
        assert_eq!(
            pair_set(&from_flat),
            pair_set(&compute_valid_pairs(&instance))
        );
    }
}

#[test]
fn solvers_work_identically_from_index_and_bruteforce_candidates() {
    let instance = generate(9, Distribution::Uniform, 80, 100);
    let brute = compute_valid_pairs(&instance);
    let mut index = GridIndex::from_instance(&instance);
    let indexed = index.retrieve_valid_pairs();

    // Greedy is deterministic given the candidate *set*; the candidate order
    // may differ between the two retrieval paths, so compare the resulting
    // objective values rather than the assignments themselves.
    let g_brute = evaluate(
        &instance,
        &greedy(
            &SolveRequest::new(&instance, &brute),
            &GreedyConfig::default(),
        ),
    );
    let g_index = evaluate(
        &instance,
        &greedy(
            &SolveRequest::new(&instance, &indexed),
            &GreedyConfig::default(),
        ),
    );
    assert_eq!(g_brute.assigned_workers, g_index.assigned_workers);
    assert!((g_brute.min_reliability - g_index.min_reliability).abs() < 1e-6);
    assert!((g_brute.total_std - g_index.total_std).abs() < 0.15 * g_brute.total_std.max(1e-9));
}
