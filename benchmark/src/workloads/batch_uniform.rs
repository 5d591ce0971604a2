//! `batch_uniform` — the paper's static problem.
//!
//! Each pass draws a fresh UNIFORM instance with Table 2's bold values at
//! m = n = 500 (≈4.6 k valid pairs), builds a
//! `FlatGridIndex` over it (that is the set-up), then retrieves the valid
//! pairs through the index and solves the same `SolveRequest` with GREEDY,
//! SAMPLING and D&C, evaluating each assignment. One operation is one such
//! pass; work is candidate pairs put through a solver.
//!
//! Why a fresh instance per pass: GREEDY's time varies by ±25 % between
//! equally sized instances, so a run that timed one instance would report
//! the instance, not the solver. The median over the ~45 instances a run
//! fits is steady across seeds.
//!
//! `rdbsc-algos` and the `expected_std` kernel do ~90 % of the work here,
//! the index one read-only retrieval (~8 %), engine / WAL / server nothing.

use super::{derive_seed, report_trace_overhead, secs_since, RunParams, CELL_SIZE};
use crate::references;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdbsc_algos::{DncConfig, GreedyConfig, SamplingConfig, SolveRequest, Solver};
use rdbsc_index::{FlatGridIndex, SpatialIndex};
use rdbsc_model::valid_pairs::BipartiteCandidates;
use rdbsc_model::{
    compute_valid_pairs, evaluate, expected_std, Assignment, Contribution, ProblemInstance,
};
use rdbsc_obs::digest::Fnv1a;
use rdbsc_workloads::{generate_instance, ExperimentConfig};
use std::hint::black_box;
use std::time::Instant;

/// Span and metric names of one solver.
struct SolverNames {
    span: &'static str,
    solve_s: &'static str,
    pairs_per_s: &'static str,
    total_std: &'static str,
    min_reliability: &'static str,
    assigned: &'static str,
}

/// The three solvers' names, in solve order.
const SOLVERS: [SolverNames; 3] = [
    SolverNames {
        span: "algos.greedy",
        solve_s: "greedy_solve_s",
        pairs_per_s: "algos.greedy_pairs_per_s",
        total_std: "algos.greedy_total_std",
        min_reliability: "algos.greedy_min_reliability",
        assigned: "algos.greedy_assigned",
    },
    SolverNames {
        span: "algos.sampling",
        solve_s: "sampling_solve_s",
        pairs_per_s: "algos.sampling_pairs_per_s",
        total_std: "algos.sampling_total_std",
        min_reliability: "algos.sampling_min_reliability",
        assigned: "algos.sampling_assigned",
    },
    SolverNames {
        span: "algos.dnc",
        solve_s: "dnc_solve_s",
        pairs_per_s: "algos.dnc_pairs_per_s",
        total_std: "algos.dnc_total_std",
        min_reliability: "algos.dnc_min_reliability",
        assigned: "algos.dnc_assigned",
    },
];

fn lineup() -> [Solver; 3] {
    [
        Solver::Greedy(GreedyConfig::default()),
        Solver::Sampling(SamplingConfig::default()),
        Solver::DivideAndConquer(DncConfig::default()),
    ]
}

/// What one solver did on one instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverOutcome {
    /// Wall seconds of `Solver::solve`.
    pub solve_s: f64,
    /// Total expected STD of the assignment.
    pub total_std: f64,
    /// Minimum reliability over non-empty tasks.
    pub min_reliability: f64,
    /// Assigned workers.
    pub assigned: usize,
}

/// One timed pass over one instance.
struct Pass {
    wall_s: f64,
    retrieve_s: f64,
    evaluate_s: f64,
    solvers: [SolverOutcome; 3],
    assignments: [Assignment; 3],
    candidates: BipartiteCandidates,
}

/// Order-independent digest of a candidate graph's `(task, worker)` pairs.
fn pair_digest(candidates: &BipartiteCandidates) -> u64 {
    let mut keys: Vec<(u32, u32)> = candidates
        .pairs
        .iter()
        .map(|p| (p.task.0, p.worker.0))
        .collect();
    keys.sort_unstable();
    let mut digest = Fnv1a::new();
    for (task, worker) in keys {
        digest.write_u64(u64::from(task));
        digest.write_u64(u64::from(worker));
    }
    digest.finish()
}

fn timed_pass(
    instance: &ProblemInstance,
    index: &mut FlatGridIndex,
    solver_seed: u64,
    pass: u64,
    tracer: &mut Tracer,
) -> Pass {
    let solvers = lineup();
    let started = Instant::now();
    let root = tracer.begin("batch.pass", pass);

    let span = tracer.begin("index.retrieve", pass);
    let candidates = index.retrieve_valid_pairs();
    tracer.end(span);
    let retrieve_s = secs_since(started);

    let request = SolveRequest::new(instance, &candidates);
    let mut outcomes = [SolverOutcome::default(); 3];
    let mut evaluate_s = 0.0;
    let assignments: [Assignment; 3] = std::array::from_fn(|i| {
        let mut rng = StdRng::seed_from_u64(derive_seed(solver_seed, i as u64));
        let span = tracer.begin(SOLVERS[i].span, pass);
        let solve_started = Instant::now();
        let assignment = solvers[i].solve(&request, &mut rng);
        let solve_s = secs_since(solve_started);
        tracer.end(span);

        let span = tracer.begin("model.evaluate", pass);
        let evaluate_started = Instant::now();
        let value = evaluate(instance, &assignment);
        evaluate_s += secs_since(evaluate_started);
        tracer.end(span);
        outcomes[i] = SolverOutcome {
            solve_s,
            total_std: value.total_std,
            min_reliability: value.min_reliability,
            assigned: value.assigned_workers,
        };
        assignment
    });
    tracer.end(root);
    Pass {
        wall_s: secs_since(started),
        retrieve_s,
        evaluate_s,
        solvers: outcomes,
        assignments,
        candidates,
    }
}

/// The correctness checks of one pass; returns the brute-force seconds.
fn check_pass(
    instance: &ProblemInstance,
    pass: &Pass,
    min_confidence: f64,
    label: &str,
    report: &mut Report,
) -> f64 {
    let started = Instant::now();
    let brute = compute_valid_pairs(instance);
    let brute_s = secs_since(started);
    let pairs = pass.candidates.num_pairs();
    report.check(
        pairs == brute.num_pairs() && pair_digest(&pass.candidates) == pair_digest(&brute),
        1,
        || {
            format!(
                "{label}: index retrieved {pairs} pairs, brute force {} (or digests differ)",
                brute.num_pairs()
            )
        },
    );
    let reachable_workers = pass
        .candidates
        .by_worker
        .iter()
        .filter(|adj| !adj.is_empty())
        .count();
    for (i, (assignment, outcome)) in pass.assignments.iter().zip(&pass.solvers).enumerate() {
        let solver = SOLVERS[i].span;
        let mut seen = vec![false; instance.num_workers()];
        let mut well_formed = assignment.validate(instance).is_ok();
        for (task, worker, _) in assignment.iter() {
            well_formed &= !std::mem::replace(&mut seen[worker.index()], true)
                && pass
                    .candidates
                    .pairs_of_worker(worker)
                    .any(|p| p.task == task);
        }
        report.check(well_formed, 1, || {
            format!("{label}: {solver} assigned a worker twice or used a non-candidate pair")
        });
        report.check(
            outcome.assigned == reachable_workers && outcome.total_std > 0.0,
            1,
            || {
                format!(
                    "{label}: {solver} assigned {} of {reachable_workers} reachable workers, total_std {}",
                    outcome.assigned, outcome.total_std
                )
            },
        );
        report.check(outcome.min_reliability >= min_confidence - 0.005, 1, || {
            format!(
                "{label}: {solver} min_reliability {} below the confidence floor {min_confidence}",
                outcome.min_reliability
            )
        });
    }
    brute_s
}

/// `expected_std` on 4- and 16-contribution vectors drawn from the
/// instance's candidate pairs: mean nanoseconds per call.
fn probe_expected_std(instance: &ProblemInstance, candidates: &BipartiteCandidates) -> f64 {
    let Some(task) = instance
        .tasks
        .iter()
        .find(|t| candidates.by_task[t.id.index()].len() >= 16)
    else {
        return 0.0;
    };
    let all: Vec<Contribution> = candidates
        .pairs_of_task(task.id)
        .take(16)
        .map(|p| p.contribution)
        .collect();
    let beta = instance.beta_of(task.id);
    const CALLS: u32 = 2_000;
    let started = Instant::now();
    let mut sink = 0.0;
    for _ in 0..CALLS {
        sink += expected_std(black_box(&all[..4]), task.window, beta);
        sink += expected_std(black_box(&all), task.window, beta);
    }
    black_box(sink);
    started.elapsed().as_nanos() as f64 / f64::from(2 * CALLS)
}

/// Runs the workload.
pub fn run(params: &RunParams, tracer: &mut Tracer, report: &mut Report) {
    let n = if params.smoke { 150 } else { 500 };
    let base = ExperimentConfig::small_default()
        .with_tasks(n)
        .with_workers(n);
    report.size("tasks", n as f64);
    report.size("workers", n as f64);

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut retrieve_s = Vec::new();
    let mut evaluate_s = Vec::new();
    let mut brute_s = Vec::new();
    let mut per_solver: [Vec<SolverOutcome>; 3] = Default::default();
    let mut pairs = Vec::new();
    let mut work_pairs = 0.0;
    let mut work_seconds = 0.0;
    let mut named_seconds = 0.0;
    let mut expected_std_ns = 0.0;

    let measure_started = Instant::now();
    // Pass 0 warms caches and the allocator and is checked but not timed.
    let mut k = 0u64;
    loop {
        let instance_seed = derive_seed(params.seed, k);
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(instance_seed);
        let instance = generate_instance(&base.with_seed(instance_seed), &mut rng);
        let built = Instant::now();
        let mut index = FlatGridIndex::from_instance_with_eta(&instance, CELL_SIZE);
        let this_build_s = secs_since(built);
        let this_setup_s = secs_since(started);

        // The traced run solves every instance twice, recorder off and on
        // (each time on a cold index), so its own overhead is measured on
        // identical work.
        tracer.set_enabled(false);
        let plain = timed_pass(&instance, &mut index, instance_seed, k, tracer);
        let pass = if params.traced {
            let mut cold = FlatGridIndex::from_instance_with_eta(&instance, CELL_SIZE);
            tracer.set_enabled(true);
            let traced = timed_pass(&instance, &mut cold, instance_seed, k, tracer);
            tracer.set_enabled(false);
            report.check(
                traced
                    .solvers
                    .iter()
                    .zip(&plain.solvers)
                    .all(|(a, b)| (a.total_std, a.assigned) == (b.total_std, b.assigned)),
                1,
                || format!("pass {k}: the same instance solved twice gave different assignments"),
            );
            if k > 0 {
                untraced_walls.push(plain.wall_s * 1e3);
                traced_walls.push(traced.wall_s * 1e3);
            }
            traced
        } else {
            plain
        };

        let label = format!("pass {k}");
        let this_brute_s = check_pass(&instance, &pass, base.reliability_range.0, &label, report);
        if k == 1 {
            println!(
                "reference candidates: pairs={} solvers={:?}",
                pass.candidates.num_pairs(),
                pass.solvers.map(|o| (o.total_std, o.min_reliability))
            );
            if let Some(reference) =
                references::batch_uniform(params.seed).filter(|_| !params.smoke)
            {
                reference.check(&pass.solvers, pass.candidates.num_pairs(), report);
            }
        }
        report.attempted += 1;

        if k == 0 {
            if params.traced {
                expected_std_ns = probe_expected_std(&instance, &pass.candidates);
            }
        } else {
            setup_s.push(this_setup_s);
            build_s.push(this_build_s * 1e3);
            walls.push(pass.wall_s * 1e3);
            retrieve_s.push(pass.retrieve_s * 1e3);
            evaluate_s.push(pass.evaluate_s * 1e3);
            brute_s.push(this_brute_s * 1e3);
            pairs.push(pass.candidates.num_pairs() as f64);
            for (samples, outcome) in per_solver.iter_mut().zip(&pass.solvers) {
                samples.push(*outcome);
            }
            work_pairs += 3.0 * pass.candidates.num_pairs() as f64;
            work_seconds += pass.wall_s;
            named_seconds += pass.retrieve_s
                + pass.evaluate_s
                + pass.solvers.iter().map(|o| o.solve_s).sum::<f64>();
        }
        k += 1;
        if secs_since(measure_started) >= params.seconds && k >= 3 {
            break;
        }
    }
    report.size("timed_passes", walls.len() as f64);

    report.timing("setup_s", "s", &setup_s, 50.0);
    report.timing("op_p50_ms", "ms", &walls, 50.0);
    report.value("work_per_s", "1/s", work_pairs / work_seconds);

    let mut total_std = 0.0;
    let mut min_reliability = f64::INFINITY;
    for (names, outcomes) in SOLVERS.iter().zip(&per_solver) {
        let field = |f: fn(&SolverOutcome) -> f64| -> Vec<f64> { outcomes.iter().map(f).collect() };
        let rate: Vec<f64> = outcomes
            .iter()
            .zip(&pairs)
            .map(|(o, p)| p / o.solve_s)
            .collect();
        let std_med = stats::median(&field(|o| o.total_std));
        let rel_med = stats::median(&field(|o| o.min_reliability));
        total_std += std_med;
        min_reliability = min_reliability.min(rel_med);
        report.timing(names.solve_s, "s", &field(|o| o.solve_s), 50.0);
        report.timing(names.pairs_per_s, "1/s", &rate, 50.0);
        report.value(names.total_std, "std", std_med);
        report.value(names.min_reliability, "prob", rel_med);
        report.value(
            names.assigned,
            "count",
            stats::median(&field(|o| o.assigned as f64)),
        );
    }
    // Quality, summed / minimised over the three solvers (median instance).
    report.value("total_std", "std", total_std);
    report.value("min_reliability", "prob", min_reliability);

    report.timing("index.build_ms", "ms", &build_s, 50.0);
    report.timing("index.retrieve_ms", "ms", &retrieve_s, 50.0);
    report.value("index.pairs", "count", stats::median(&pairs));
    report.timing("model.valid_pairs_bruteforce_ms", "ms", &brute_s, 50.0);
    report.value(
        "index.retrieve_vs_bruteforce",
        "ratio",
        stats::median(&retrieve_s) / stats::median(&brute_s),
    );
    report.timing("model.evaluate_ms", "ms", &evaluate_s, 50.0);
    if params.traced {
        report.value("model.expected_std_ns", "ns", expected_std_ns);
        report_trace_overhead(report, &untraced_walls, &traced_walls);
    }
    // The parts of a pass the spans do not name (request set-up, the RNG,
    // moving assignments around), as a share of the pass.
    report.value(
        "batch.unattributed_share",
        "ratio",
        1.0 - named_seconds / work_seconds,
    );
}
