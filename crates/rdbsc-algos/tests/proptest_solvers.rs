//! Property-based tests over randomly generated RDB-SC instances: every
//! solver must always produce a feasible assignment, assign every connected
//! worker, and never beat the exact per-objective optima on instances small
//! enough to enumerate — and GREEDY, SAMPLING and D&C must return, bit for
//! bit, what their pre-rewrite bodies (kept in [`reference`]) return.

mod reference;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rdbsc_algos::pruning::{delta_std_bounds, expected_std_bounds};
use rdbsc_algos::{
    divide_and_conquer, exact_best, greedy, max_task_coverage_assignment, nearest_task_assignment,
    sampling, DncConfig, ExactConfig, GreedyConfig, SamplingConfig, SolveRequest,
};
use rdbsc_geo::{AngleRange, Point};
use rdbsc_model::expected::ExpectedScratch;
use rdbsc_model::objective::{evaluate_with_priors, MinReliabilityScope, TaskPriors};
use rdbsc_model::{
    compute_valid_pairs, evaluate, expected_std, rank_by_dominating_count, Assignment, BasePlusOne,
    BipartiteCandidates, Confidence, Contribution, ProblemInstance, Task, TaskId, TimeWindow,
    Worker, WorkerId,
};
use std::f64::consts::TAU;

/// Strategy generating a small random instance.
fn instance_strategy(
    max_tasks: usize,
    max_workers: usize,
) -> impl Strategy<Value = ProblemInstance> {
    let tasks = proptest::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..5.0, 0.1f64..5.0),
        1..=max_tasks,
    );
    let workers = proptest::collection::vec(
        (
            0.0f64..1.0,  // x
            0.0f64..1.0,  // y
            0.01f64..0.5, // speed
            0.0f64..TAU,  // heading start
            0.05f64..TAU, // heading width
            0.0f64..1.0,  // confidence
            0.0f64..3.0,  // check-in time
        ),
        1..=max_workers,
    );
    (tasks, workers).prop_map(|(ts, ws)| {
        let tasks = ts
            .into_iter()
            .map(|(x, y, start, len)| {
                Task::new(
                    TaskId(0),
                    Point::new(x, y),
                    TimeWindow::new(start, start + len).unwrap(),
                )
            })
            .collect();
        let workers = ws
            .into_iter()
            .map(|(x, y, speed, heading, width, p, check_in)| {
                Worker::new(
                    WorkerId(0),
                    Point::new(x, y),
                    speed,
                    AngleRange::new(heading, width),
                    Confidence::new(p).unwrap(),
                )
                .unwrap()
                .with_available_from(check_in)
            })
            .collect();
        ProblemInstance::new(tasks, workers, 0.5)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every solver produces a valid assignment covering all connected
    /// workers, and the two objectives are within their theoretical bounds.
    #[test]
    fn solvers_always_produce_feasible_full_assignments(
        instance in instance_strategy(6, 10),
        seed in 0u64..1_000,
    ) {
        let candidates = compute_valid_pairs(&instance);
        let connected = candidates.by_worker.iter().filter(|a| !a.is_empty()).count();
        let request = SolveRequest::new(&instance, &candidates);

        let assignments = vec![
            ("greedy", greedy(&request, &GreedyConfig::default())),
            ("sampling", sampling(&request, &SamplingConfig {
                min_samples: 4, max_samples: 32, ..SamplingConfig::default()
            }, &mut StdRng::seed_from_u64(seed))),
            ("dnc", divide_and_conquer(&request, &DncConfig {
                gamma: 3,
                sampling: SamplingConfig { min_samples: 4, max_samples: 32, ..SamplingConfig::default() },
                ..DncConfig::default()
            }, &mut StdRng::seed_from_u64(seed))),
            ("nearest", nearest_task_assignment(&request)),
            ("coverage", max_task_coverage_assignment(&request)),
        ];
        for (name, assignment) in assignments {
            prop_assert!(assignment.validate(&instance).is_ok(), "{name} produced an invalid assignment");
            prop_assert_eq!(assignment.num_assigned(), connected, "{} must assign every connected worker", name);
            let value = evaluate(&instance, &assignment);
            prop_assert!((0.0..=1.0).contains(&value.min_reliability), "{name}");
            prop_assert!(value.total_std >= 0.0 && value.total_std.is_finite(), "{name}");
        }
    }

    /// On instances small enough for exhaustive enumeration, no solver
    /// exceeds the exact per-objective optima.
    #[test]
    fn no_solver_exceeds_the_exact_optima(
        instance in instance_strategy(3, 5),
        seed in 0u64..1_000,
    ) {
        let candidates = compute_valid_pairs(&instance);
        let request = SolveRequest::new(&instance, &candidates);
        let Some(summary) = exact_best(&request, &ExactConfig { max_assignments: 5_000 }) else {
            return Ok(());
        };
        let solutions = vec![
            evaluate(&instance, &greedy(&request, &GreedyConfig::default())),
            evaluate(&instance, &sampling(&request, &SamplingConfig {
                min_samples: 8, max_samples: 32, ..SamplingConfig::default()
            }, &mut StdRng::seed_from_u64(seed))),
        ];
        for value in solutions {
            prop_assert!(value.min_reliability <= summary.max_min_reliability + 1e-9);
            prop_assert!(value.total_std <= summary.max_total_std + 1e-9);
        }
    }
}

/// The instances of the differential tests: up to a few hundred valid pairs,
/// so that GREEDY's live-pair count starts on either side of its pruning gate
/// (64) and the pre-rewrite ranking on either side of its quadratic / Fenwick
/// switch (256) — see `differential_instances_cross_both_gates`.
fn differential_instance() -> impl Strategy<Value = ProblemInstance> {
    instance_strategy(32, 72)
}

/// Banked answers for some tasks of an instance: `(task selector, confidence,
/// angle, arrival)`, or none at all when `with_priors` is false.
type PriorSpec = (bool, Vec<(f64, f64, f64, f64)>);

fn prior_spec() -> impl Strategy<Value = PriorSpec> {
    (
        0u8..2,
        proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..TAU, 0.0f64..10.0),
            1..=16,
        ),
    )
        .prop_map(|(with, entries)| (with == 1, entries))
}

/// The instances of the deep-prior differential: at most four tasks, so
/// that [`deep_prior_spec`]'s answers pile up on each of them.
fn deep_prior_instance() -> impl Strategy<Value = ProblemInstance> {
    instance_strategy(4, 40)
}

/// 20–60 banked answers over an instance's few tasks, far more per task than
/// [`prior_spec`] gives: angles and arrivals on coarse lattices, so they
/// repeat within a task, and confidences of exactly 0 and 1 among them.
fn deep_prior_spec() -> impl Strategy<Value = PriorSpec> {
    proptest::collection::vec((0.0f64..1.0, 0u8..4, 0.0f64..1.0, 0u8..8, 0u8..11), 20..=60)
        .prop_map(|entries| {
            let entries = entries
                .into_iter()
                .map(|(selector, p_sel, p, angle, arrival)| {
                    let p = [0.0, 1.0, p, p][usize::from(p_sel)];
                    (
                        selector,
                        p,
                        f64::from(angle) * TAU / 8.0,
                        f64::from(arrival),
                    )
                })
                .collect();
            (true, entries)
        })
}

/// [`deep_prior_instance`] in the paper's confidence range: every worker's
/// `p` is moved into `[0.9, 1]`.
fn paper_range_instance() -> impl Strategy<Value = ProblemInstance> {
    deep_prior_instance().prop_map(|mut instance| {
        for worker in &mut instance.workers {
            worker.confidence = Confidence::new(0.9 + 0.1 * worker.confidence.value()).unwrap();
        }
        instance
    })
}

/// A contribution in the paper's confidence range: `p` in `[0.9, 1)` or
/// exactly 0 or 1, the angle on an eight-ray lattice or anywhere, and the
/// arrival on a lattice through both ends of `[0, 10]` or anywhere in
/// `[-3, 13]`.
fn paper_range_contribution() -> impl Strategy<Value = Contribution> {
    (
        0u8..4,
        0.9f64..1.0,
        0u8..2,
        0u8..8,
        0.0f64..TAU,
        0u8..2,
        0u8..6,
        -3.0f64..13.0,
    )
        .prop_map(|(p_sel, p, a_sel, a_lattice, a, t_sel, t_lattice, t)| {
            let p = [0.0, 1.0, p, p][usize::from(p_sel)];
            let angle = if a_sel == 0 {
                f64::from(a_lattice) * TAU / 8.0
            } else {
                a
            };
            let arrival = if t_sel == 0 {
                f64::from(t_lattice) * 2.0
            } else {
                t
            };
            Contribution::new(Confidence::new(p).unwrap(), angle, arrival)
        })
}

/// 16–80 banked answers in the paper's confidence range, all on one task
/// of the instance: angles and arrivals on coarse lattices, so they repeat.
fn paper_range_prior_spec() -> impl Strategy<Value = PriorSpec> {
    (
        0.0f64..1.0,
        proptest::collection::vec((0u8..4, 0.9f64..1.0, 0u8..8, 0u8..11), 16..=80),
    )
        .prop_map(|(selector, entries)| {
            let entries = entries
                .into_iter()
                .map(|(p_sel, p, angle, arrival)| {
                    let p = [0.0, 1.0, p, p][usize::from(p_sel)];
                    (
                        selector,
                        p,
                        f64::from(angle) * TAU / 8.0,
                        f64::from(arrival),
                    )
                })
                .collect();
            (true, entries)
        })
}

fn build_priors(instance: &ProblemInstance, spec: &PriorSpec) -> Option<TaskPriors> {
    let (with_priors, entries) = spec;
    with_priors.then(|| {
        let mut priors = TaskPriors::empty(instance.num_tasks());
        for &(selector, p, angle, arrival) in entries {
            let task =
                ((selector * instance.num_tasks() as f64) as usize).min(instance.num_tasks() - 1);
            priors.add(
                TaskId::from(task),
                Contribution::new(Confidence::new(p).unwrap(), angle, arrival),
            );
        }
        priors
    })
}

fn request_with<'a>(
    instance: &'a ProblemInstance,
    candidates: &'a BipartiteCandidates,
    priors: &'a Option<TaskPriors>,
) -> SolveRequest<'a> {
    let request = SolveRequest::new(instance, candidates);
    match priors {
        Some(priors) => request.with_priors(priors),
        None => request,
    }
}

/// Every committed pair with its float bits, task by task, in the order the
/// task received its workers.
fn committed(assignment: &Assignment) -> Vec<(u32, u32, u64, u64, u64)> {
    assignment
        .iter()
        .map(|(t, w, c)| {
            (
                t.0,
                w.0,
                c.p().to_bits(),
                c.angle.to_bits(),
                c.arrival.to_bits(),
            )
        })
        .collect()
}

#[test]
fn differential_instances_cross_both_gates() {
    let strategy = differential_instance();
    let pairs: Vec<usize> = (0..64)
        .map(|case| {
            let mut rng = proptest::fresh_rng(proptest::case_seed("gates", case));
            compute_valid_pairs(&strategy.generate(&mut rng)).num_pairs()
        })
        .collect();
    assert!(pairs.iter().any(|&p| p <= 64), "{pairs:?}");
    assert!(pairs.iter().any(|&p| (65..=256).contains(&p)), "{pairs:?}");
    assert!(pairs.iter().any(|&p| p > 256), "{pairs:?}");
}

/// The deep-prior family starts on either side of GREEDY's pruning gate and
/// gives some task a set (priors plus candidates) of 40 workers or more.
#[test]
fn deep_prior_instances_cross_the_gate_with_deep_tasks() {
    let (instances, specs) = (deep_prior_instance(), deep_prior_spec());
    let (mut pairs, mut deepest) = (Vec::new(), 0);
    for case in 0..64 {
        let mut rng = proptest::fresh_rng(proptest::case_seed("deep", case));
        let instance = instances.generate(&mut rng);
        let priors = build_priors(&instance, &specs.generate(&mut rng)).unwrap();
        let candidates = compute_valid_pairs(&instance);
        pairs.push(candidates.num_pairs());
        for task in &instance.tasks {
            let depth = priors.of(task.id).len() + candidates.by_task[task.id.index()].len();
            deepest = deepest.max(depth);
        }
    }
    assert!(pairs.iter().any(|&p| p <= 64), "{pairs:?}");
    assert!(pairs.iter().any(|&p| p > 64), "{pairs:?}");
    assert!(deepest >= 40, "{deepest}");
}

/// A task with more candidate workers than a valuation-memo key has bits is
/// valued without the memo; the result must not change.
#[test]
fn sampling_matches_its_reference_on_tasks_wider_than_a_memo_key() {
    let tasks = (0..3)
        .map(|i| {
            Task::new(
                TaskId(0),
                Point::new(0.3 + 0.2 * i as f64, 0.5),
                TimeWindow::new(0.0, 10.0).unwrap(),
            )
        })
        .collect();
    let workers = (0..90)
        .map(|j| {
            Worker::new(
                WorkerId(0),
                Point::new(0.011 * j as f64, 0.1 + 0.009 * j as f64),
                0.5,
                AngleRange::full(),
                Confidence::new(0.5 + 0.005 * j as f64).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let instance = ProblemInstance::new(tasks, workers, 0.5);
    let candidates = compute_valid_pairs(&instance);
    assert!(candidates.by_task.iter().all(|adj| adj.len() > 64));
    let request = SolveRequest::new(&instance, &candidates);
    let config = SamplingConfig {
        min_samples: 40,
        max_samples: 40,
        ..SamplingConfig::default()
    };
    let (mut rng, mut reference_rng) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
    assert_eq!(
        committed(&sampling(&request, &config, &mut rng)),
        committed(&reference::sampling(&request, &config, &mut reference_rng))
    );
    assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
}

/// A worker with more than 256 candidate tasks has its picks stored four
/// bytes wide instead of one; SAMPLING and a D&C whose root is its only
/// leaf must still draw and return what the pre-rewrite bodies do.
#[test]
fn solvers_match_their_references_on_rows_wider_than_a_byte() {
    let tasks = (0..300)
        .map(|i| {
            Task::new(
                TaskId(0),
                Point::new(0.2 + 0.002 * i as f64, 0.4 + 0.0005 * i as f64),
                TimeWindow::new(0.0, 10.0).unwrap(),
            )
        })
        .collect();
    let workers = (0..3)
        .map(|j| {
            Worker::new(
                WorkerId(0),
                Point::new(0.5, 0.3 + 0.1 * j as f64),
                0.5,
                AngleRange::full(),
                Confidence::new(0.8 + 0.05 * j as f64).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let instance = ProblemInstance::new(tasks, workers, 0.5);
    let candidates = compute_valid_pairs(&instance);
    assert!(candidates.by_worker.iter().all(|adj| adj.len() > 256));
    let sampling_config = SamplingConfig {
        min_samples: 40,
        max_samples: 40,
        ..SamplingConfig::default()
    };
    let dnc_config = DncConfig {
        gamma: 300,
        sampling: sampling_config,
        ..DncConfig::default()
    };
    for threads in [1, 2] {
        let request = SolveRequest::new(&instance, &candidates).with_threads(threads);
        let (mut rng, mut reference_rng) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        assert_eq!(
            committed(&sampling(&request, &sampling_config, &mut rng)),
            committed(&reference::sampling(
                &request,
                &sampling_config,
                &mut reference_rng
            ))
        );
        assert_eq!(
            committed(&divide_and_conquer(&request, &dnc_config, &mut rng)),
            committed(&reference::divide_and_conquer(
                &request,
                &dnc_config,
                &mut reference_rng
            ))
        );
        assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// GREEDY commits the pairs its pre-rewrite body commits, with the
    /// Lemma 4.3 pre-filter on and off, with and without priors.
    #[test]
    fn greedy_matches_its_reference(
        instance in differential_instance(),
        spec in prior_spec(),
    ) {
        let candidates = compute_valid_pairs(&instance);
        let priors = build_priors(&instance, &spec);
        let request = request_with(&instance, &candidates, &priors);
        for use_pruning in [true, false] {
            let config = GreedyConfig { use_pruning };
            prop_assert_eq!(
                committed(&greedy(&request, &config)),
                committed(&reference::greedy(&request, &config)),
                "use_pruning={}, {} pairs", use_pruning, candidates.num_pairs()
            );
        }
    }

    /// SAMPLING draws what its pre-rewrite body draws, in the same order,
    /// and returns the same sample.
    #[test]
    fn sampling_matches_its_reference(
        instance in differential_instance(),
        spec in prior_spec(),
        seed in 0u64..1_000_000,
        max_samples in 1usize..=48,
    ) {
        let candidates = compute_valid_pairs(&instance);
        let priors = build_priors(&instance, &spec);
        let request = request_with(&instance, &candidates, &priors);
        let config = SamplingConfig { min_samples: 1, max_samples, ..SamplingConfig::default() };
        let (mut rng, mut reference_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        prop_assert_eq!(
            committed(&sampling(&request, &config, &mut rng)),
            committed(&reference::sampling(&request, &config, &mut reference_rng))
        );
        prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "RNG state differs");
    }

    /// D&C partitions, samples and merges like its pre-rewrite body: deep
    /// recursions, exhaustive and per-worker conflict resolution.
    #[test]
    fn divide_and_conquer_matches_its_reference(
        instance in differential_instance(),
        spec in prior_spec(),
        seed in 0u64..1_000_000,
        gamma in 1usize..=6,
        max_group_enumeration in 0usize..=6,
    ) {
        let candidates = compute_valid_pairs(&instance);
        let priors = build_priors(&instance, &spec);
        let request = request_with(&instance, &candidates, &priors);
        let config = DncConfig {
            gamma,
            sampling: SamplingConfig { min_samples: 2, max_samples: 12, ..SamplingConfig::default() },
            max_group_enumeration,
            ..DncConfig::default()
        };
        let (mut rng, mut reference_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        prop_assert_eq!(
            committed(&divide_and_conquer(&request, &config, &mut rng)),
            committed(&reference::divide_and_conquer(&request, &config, &mut reference_rng))
        );
        prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "RNG state differs");
    }

    /// The kernels under the solvers return the bits their allocating
    /// predecessors returned: expected diversity, the Lemma 4.3 bounds, the
    /// objective with priors, and the dominating-count winner.
    #[test]
    fn kernels_match_their_references(
        instance in differential_instance(),
        spec in prior_spec(),
        beta in 0.0f64..=1.0,
    ) {
        use reference::kernels;
        let candidates = compute_valid_pairs(&instance);
        let priors = build_priors(&instance, &spec).unwrap_or_else(|| TaskPriors::empty(instance.num_tasks()));
        // Everything every task could receive, priors last.
        let mut everyone = Assignment::for_instance(&instance);
        for pair in &candidates.pairs {
            if everyone.is_unassigned(pair.worker) {
                everyone.assign_pair(pair).unwrap();
            }
        }
        let mut values = Vec::new();
        let (mut recorded, mut scratch) = (BasePlusOne::default(), ExpectedScratch::default());
        for task in &instance.tasks {
            let mut set = everyone.contributions_of(task.id);
            set.extend_from_slice(priors.of(task.id));
            let std = expected_std(&set, task.window, beta);
            prop_assert_eq!(std.to_bits(), kernels::expected_std(&set, task.window, beta).to_bits());
            if let Some((extra, base)) = set.split_last() {
                // One record reused across tasks: stale terms must not leak.
                recorded.record(base, task.window, beta);
                prop_assert_eq!(
                    recorded.value().to_bits(),
                    kernels::expected_std(base, task.window, beta).to_bits()
                );
                prop_assert_eq!(recorded.plus_one(extra, &mut scratch).to_bits(), std.to_bits());
            }
            let bounds = expected_std_bounds(&set, task.window, beta);
            prop_assert_eq!(bounds, kernels::expected_std_bounds(&set, task.window, beta));
            if let Some((&new, before)) = set.split_last() {
                prop_assert_eq!(
                    delta_std_bounds(before, new, task.window, beta),
                    kernels::delta_std_bounds(before, new, task.window, beta)
                );
            }
            // Coarse values: exact duplicates and equal-x / equal-y runs.
            values.push(((std * 4.0).round() / 4.0, (bounds.upper * 4.0).round() / 4.0));
        }
        prop_assert_eq!(
            rank_by_dominating_count(&values),
            kernels::rank_by_dominating_count(&values)
        );
        let scope = MinReliabilityScope::NonEmptyTasks;
        prop_assert_eq!(
            evaluate_with_priors(&instance, &everyone, &priors, scope),
            kernels::evaluate_with_priors(&instance, &everyone, &priors, scope)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// GREEDY commits what its pre-rewrite body commits when a task's set
    /// is tens of workers deep, with repeated angles and arrivals and
    /// workers that never or always succeed, with the Lemma 4.3 pre-filter
    /// on and off.
    #[test]
    fn greedy_matches_its_reference_through_deep_priors(
        instance in deep_prior_instance(),
        spec in deep_prior_spec(),
    ) {
        check_greedy_through_priors(&instance, &spec)?;
    }

    /// [`greedy_matches_its_reference_through_deep_priors`] in the paper's
    /// confidence range, with one task 16–80 banked answers deep: GREEDY
    /// prices its candidates over walks that stop on negligible tails, the
    /// reference over walks that run to the end.
    #[test]
    fn greedy_matches_its_reference_through_paper_range_priors(
        instance in paper_range_instance(),
        spec in paper_range_prior_spec(),
    ) {
        check_greedy_through_priors(&instance, &spec)?;
    }

    /// The shipped kernels return the bits of the references, which walk
    /// every term, on paper-range sets of 16–80 workers, where the shipped
    /// walks stop on negligible tails: `E[SD]` alone (β = 1), `E[TD]` alone
    /// (β = 0), both, and `BasePlusOne` on the set less its last worker.
    #[test]
    fn kernels_match_their_references_at_paper_depth(
        set in proptest::collection::vec(paper_range_contribution(), 16..=80),
        beta in 0.0f64..1.0,
    ) {
        use reference::kernels;
        let window = TimeWindow::new(0.0, 10.0).unwrap();
        let (extra, base) = set.split_last().unwrap();
        let mut recorded = BasePlusOne::default();
        for beta in [0.0, 0.5, 1.0, beta] {
            let full = kernels::expected_std(&set, window, beta);
            prop_assert_eq!(expected_std(&set, window, beta).to_bits(), full.to_bits(), "beta={}", beta);
            recorded.record(base, window, beta);
            prop_assert_eq!(
                recorded.value().to_bits(),
                kernels::expected_std(base, window, beta).to_bits(),
                "beta={}", beta
            );
            prop_assert_eq!(
                recorded.plus_one(extra, &mut ExpectedScratch::default()).to_bits(),
                full.to_bits(),
                "beta={}", beta
            );
        }
    }
}

/// GREEDY commits what its pre-rewrite body commits on `instance` with the
/// banked answers of `spec`, with the Lemma 4.3 pre-filter on and off.
fn check_greedy_through_priors(
    instance: &ProblemInstance,
    spec: &PriorSpec,
) -> Result<(), TestCaseError> {
    let candidates = compute_valid_pairs(instance);
    let priors = build_priors(instance, spec);
    let request = request_with(instance, &candidates, &priors);
    for use_pruning in [true, false] {
        let config = GreedyConfig { use_pruning };
        prop_assert_eq!(
            committed(&greedy(&request, &config)),
            committed(&reference::greedy(&request, &config)),
            "use_pruning={}, {} pairs",
            use_pruning,
            candidates.num_pairs()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// D&C and SAMPLING commit the same pairs, with the same contribution
    /// bits, and leave the generator in the same state at 1, 2 and 3
    /// threads: with and without priors, with the root as the only leaf
    /// (`max_depth` 0 or `gamma` ≥ the task count), with leaves cut off at
    /// `max_depth` above `gamma`, and with every task at one point, where
    /// 2-means cannot separate the tasks and each split is the rebalancing's.
    #[test]
    fn solvers_return_the_same_bits_at_any_thread_count(
        instance in differential_instance(),
        spec in prior_spec(),
        seed in 0u64..1_000_000,
        gamma in 1usize..=8,
        max_depth in 0usize..=4,
        colocated in 0u8..2,
    ) {
        let mut instance = instance;
        if colocated == 1 {
            let at = instance.tasks[0].location;
            for task in &mut instance.tasks {
                task.location = at;
            }
        }
        let candidates = compute_valid_pairs(&instance);
        let priors = build_priors(&instance, &spec);
        let sampling_config =
            SamplingConfig { min_samples: 2, max_samples: 24, ..SamplingConfig::default() };
        let dnc_config = DncConfig {
            gamma,
            sampling: sampling_config,
            max_depth,
            max_group_enumeration: 4,
        };
        let solve_at = |threads: usize| {
            let request = request_with(&instance, &candidates, &priors).with_threads(threads);
            let mut rng = StdRng::seed_from_u64(seed);
            let dnc = committed(&divide_and_conquer(&request, &dnc_config, &mut rng));
            let after_dnc = rng.gen::<u64>();
            let mut rng = StdRng::seed_from_u64(seed);
            let sampled = committed(&sampling(&request, &sampling_config, &mut rng));
            (dnc, after_dnc, sampled, rng.gen::<u64>())
        };
        let inline = solve_at(1);
        for threads in [2, 3] {
            prop_assert_eq!(&solve_at(threads), &inline, "{} threads", threads);
        }
    }
}
