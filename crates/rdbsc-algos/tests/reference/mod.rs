//! The three solvers as they were before their inner loops were rewritten,
//! bodies verbatim, on the kernels of that time ([`kernels`]). The
//! differential tests require the shipped solvers to commit the same pairs
//! in the same order and to leave the RNG in the same state.
#![allow(clippy::all, missing_docs)]

pub mod kernels;

use kernels::{
    delta_std_bounds, evaluate_with_priors, expected_std, rank_by_dominating_count,
    task_expected_std_of,
};
use rand::Rng;
use rdbsc_algos::{DncConfig, GreedyConfig, SamplingConfig, SolveRequest};
use rdbsc_cluster::balanced_two_way_split;
use rdbsc_model::objective::{MinReliabilityScope, TaskPriors};
use rdbsc_model::reliability::reliability;
use rdbsc_model::valid_pairs::BipartiteCandidates;
use rdbsc_model::{Assignment, Contribution, TaskId, WorkerId};
use std::collections::{HashMap, HashSet};

// ---- greedy.rs ------------------------------------------------------------

/// Runs the greedy solver.
pub fn greedy(request: &SolveRequest<'_>, config: &GreedyConfig) -> Assignment {
    let instance = request.instance;
    let candidates = request.candidates;
    let mut assignment = Assignment::for_instance(instance);

    let num_pairs = candidates.num_pairs();
    if num_pairs == 0 {
        return assignment;
    }

    // Per-task state: current contributions (priors + assigned so far) and
    // the current E[STD]; a per-task epoch invalidates cached pair deltas.
    let m = instance.num_tasks();
    let mut task_contributions: Vec<Vec<Contribution>> = (0..m)
        .map(|i| request.priors_of(TaskId::from(i)).to_vec())
        .collect();
    let mut task_std: Vec<f64> = (0..m)
        .map(|i| {
            let t = &instance.tasks[i];
            expected_std(
                &task_contributions[i],
                t.window,
                t.effective_beta(instance.beta),
            )
        })
        .collect();
    let mut task_epoch: Vec<u64> = vec![0; m];

    // Cached exact ΔSTD per pair, tagged with the epoch it was computed at.
    let mut cached_delta: Vec<Option<(u64, f64)>> = vec![None; num_pairs];
    // Reliability increase per pair is constant.
    let delta_rel: Vec<f64> = candidates
        .pairs
        .iter()
        .map(|p| p.contribution.confidence.log_weight())
        .collect();

    let exact_delta =
        |pair_idx: usize, task_contributions: &Vec<Vec<Contribution>>, task_std: &Vec<f64>| {
            let pair = &candidates.pairs[pair_idx];
            let ti = pair.task.index();
            let t = &instance.tasks[ti];
            let mut with_new = task_contributions[ti].clone();
            with_new.push(pair.contribution);
            let after = expected_std(&with_new, t.window, t.effective_beta(instance.beta));
            (after - task_std[ti]).max(0.0)
        };

    loop {
        // Collect the candidate pairs of still-unassigned workers.
        let mut live_pairs: Vec<usize> = Vec::new();
        for (w, adj) in candidates.by_worker.iter().enumerate() {
            if adj.is_empty() || !assignment.is_unassigned(WorkerId::from(w)) {
                continue;
            }
            live_pairs.extend_from_slice(adj);
        }
        if live_pairs.is_empty() {
            break;
        }

        // Optional Lemma 4.3 pre-filter using cheap bounds: find the largest
        // diversity-increase lower bound among pairs with the maximal
        // reliability increase, and drop pairs whose upper bound falls below
        // it (they can never be the round winner).
        if config.use_pruning && live_pairs.len() > 64 {
            let mut best_lower = f64::NEG_INFINITY;
            let mut max_rel = f64::NEG_INFINITY;
            let bounds: Vec<_> = live_pairs
                .iter()
                .map(|&idx| {
                    let pair = &candidates.pairs[idx];
                    let ti = pair.task.index();
                    let t = &instance.tasks[ti];
                    let b = delta_std_bounds(
                        &task_contributions[ti],
                        pair.contribution,
                        t.window,
                        t.effective_beta(instance.beta),
                    );
                    max_rel = max_rel.max(delta_rel[idx]);
                    b
                })
                .collect();
            for (i, &idx) in live_pairs.iter().enumerate() {
                if delta_rel[idx] >= max_rel - 1e-12 {
                    best_lower = best_lower.max(bounds[i].lower);
                }
            }
            if best_lower > f64::NEG_INFINITY {
                let keep: Vec<usize> = live_pairs
                    .iter()
                    .enumerate()
                    .filter(|(i, &idx)| {
                        // Keep a pair unless it is provably dominated: its
                        // diversity upper bound is below the best lower bound
                        // AND its reliability increase is not above all others.
                        !(bounds[*i].upper < best_lower && delta_rel[idx] < max_rel - 1e-12)
                    })
                    .map(|(_, &idx)| idx)
                    .collect();
                if !keep.is_empty() {
                    live_pairs = keep;
                }
            }
        }

        // Exact increase pairs (ΔR, ΔSTD), using the per-task cache.
        let mut values: Vec<(f64, f64)> = Vec::with_capacity(live_pairs.len());
        for &idx in &live_pairs {
            let ti = candidates.pairs[idx].task.index();
            let delta = match cached_delta[idx] {
                Some((epoch, v)) if epoch == task_epoch[ti] => v,
                _ => {
                    let v = exact_delta(idx, &task_contributions, &task_std);
                    cached_delta[idx] = Some((task_epoch[ti], v));
                    v
                }
            };
            values.push((delta_rel[idx], delta));
        }

        // Rank by dominating count and commit the winner.
        let Some(best_pos) = rank_by_dominating_count(&values) else {
            break;
        };
        let best_idx = live_pairs[best_pos];
        let pair = &candidates.pairs[best_idx];
        assignment
            .assign_pair(pair)
            .expect("candidate pairs reference valid ids and unassigned workers");

        // Update the task's state and bump its epoch.
        let ti = pair.task.index();
        task_contributions[ti].push(pair.contribution);
        let t = &instance.tasks[ti];
        task_std[ti] = expected_std(
            &task_contributions[ti],
            t.window,
            t.effective_beta(instance.beta),
        );
        task_epoch[ti] += 1;
    }

    assignment
}

// ---- sampling.rs ----------------------------------------------------------

/// Runs the sampling solver.
pub fn sampling<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &SamplingConfig,
    rng: &mut R,
) -> Assignment {
    let instance = request.instance;
    let candidates = request.candidates;
    let empty_priors;
    let priors: &TaskPriors = match request.priors {
        Some(p) => p,
        None => {
            empty_priors = TaskPriors::empty(instance.num_tasks());
            &empty_priors
        }
    };

    // Workers that can serve at least one task.
    let connected: Vec<usize> = candidates
        .by_worker
        .iter()
        .enumerate()
        .filter(|(_, adj)| !adj.is_empty())
        .map(|(w, _)| w)
        .collect();
    if connected.is_empty() {
        return Assignment::for_instance(instance);
    }

    let k = config.sample_count(candidates.ln_population());

    let mut best: Option<Assignment> = None;
    let mut values: Vec<(f64, f64)> = Vec::with_capacity(k);
    let mut samples: Vec<Assignment> = Vec::with_capacity(k);

    for _ in 0..k {
        let mut assignment = Assignment::for_instance(instance);
        for &w in &connected {
            let adj = &candidates.by_worker[w];
            let pick = adj[rng.gen_range(0..adj.len())];
            assignment
                .assign_pair(&candidates.pairs[pick])
                .expect("sampled pair references an unassigned worker");
        }
        let value = evaluate_with_priors(
            instance,
            &assignment,
            priors,
            MinReliabilityScope::NonEmptyTasks,
        );
        values.push(value.as_bi_objective());
        samples.push(assignment);
    }

    if let Some(best_idx) = rank_by_dominating_count(&values) {
        best = Some(samples.swap_remove(best_idx));
    }
    best.unwrap_or_else(|| Assignment::for_instance(instance))
}

// ---- dnc.rs ---------------------------------------------------------------

/// Runs the divide-and-conquer solver.
pub fn divide_and_conquer<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    rng: &mut R,
) -> Assignment {
    let instance = request.instance;
    let all_tasks: Vec<TaskId> = instance.tasks.iter().map(|t| t.id).collect();
    let all_workers: Vec<WorkerId> = instance.workers.iter().map(|w| w.id).collect();
    solve_recursive(request, config, &all_tasks, &all_workers, 0, rng)
}

/// Restricts the candidate graph to a (task, worker) subset, keeping the
/// global dense id space so sub-assignments compose directly.
fn restrict_candidates(
    full: &BipartiteCandidates,
    tasks: &HashSet<TaskId>,
    workers: &HashSet<WorkerId>,
    num_tasks: usize,
    num_workers: usize,
) -> BipartiteCandidates {
    let mut restricted = BipartiteCandidates::with_capacity(num_tasks, num_workers);
    for pair in &full.pairs {
        if tasks.contains(&pair.task) && workers.contains(&pair.worker) {
            restricted.push(*pair);
        }
    }
    restricted
}

fn solve_leaf<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    tasks: &[TaskId],
    workers: &[WorkerId],
    rng: &mut R,
) -> Assignment {
    let task_set: HashSet<TaskId> = tasks.iter().copied().collect();
    let worker_set: HashSet<WorkerId> = workers.iter().copied().collect();
    let restricted = restrict_candidates(
        request.candidates,
        &task_set,
        &worker_set,
        request.instance.num_tasks(),
        request.instance.num_workers(),
    );
    let mut leaf_request = SolveRequest::new(request.instance, &restricted);
    if let Some(priors) = request.priors {
        leaf_request = leaf_request.with_priors(priors);
    }
    sampling(&leaf_request, &config.sampling, rng)
}

fn solve_recursive<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    tasks: &[TaskId],
    workers: &[WorkerId],
    depth: usize,
    rng: &mut R,
) -> Assignment {
    if tasks.len() <= config.gamma.max(1) || depth >= config.max_depth {
        return solve_leaf(request, config, tasks, workers, rng);
    }

    // ---- BG_Partition ----------------------------------------------------
    let points: Vec<_> = tasks
        .iter()
        .map(|t| request.instance.tasks[t.index()].location)
        .collect();
    let (idx1, idx2) = balanced_two_way_split(&points, rng);
    if idx1.is_empty() || idx2.is_empty() {
        return solve_leaf(request, config, tasks, workers, rng);
    }
    let t1: Vec<TaskId> = idx1.iter().map(|&i| tasks[i]).collect();
    let t2: Vec<TaskId> = idx2.iter().map(|&i| tasks[i]).collect();
    let t1_set: HashSet<TaskId> = t1.iter().copied().collect();
    let t2_set: HashSet<TaskId> = t2.iter().copied().collect();
    let task_set: HashSet<TaskId> = tasks.iter().copied().collect();

    let mut w1: Vec<WorkerId> = Vec::new();
    let mut w2: Vec<WorkerId> = Vec::new();
    for &w in workers {
        let mut in_t1 = false;
        let mut in_t2 = false;
        for pair in request.candidates.pairs_of_worker(w) {
            if !task_set.contains(&pair.task) {
                continue;
            }
            if t1_set.contains(&pair.task) {
                in_t1 = true;
            } else if t2_set.contains(&pair.task) {
                in_t2 = true;
            }
            if in_t1 && in_t2 {
                break;
            }
        }
        match (in_t1, in_t2) {
            (true, false) => w1.push(w),
            (false, true) => w2.push(w),
            (true, true) => {
                // Worker can serve both halves: duplicate it (conflict
                // resolution happens at merge time).
                w1.push(w);
                w2.push(w);
            }
            (false, false) => {}
        }
    }

    // ---- Recurse ----------------------------------------------------------
    let s1 = solve_recursive(request, config, &t1, &w1, depth + 1, rng);
    let s2 = solve_recursive(request, config, &t2, &w2, depth + 1, rng);

    // ---- SA_Merge ----------------------------------------------------------
    merge_answers(request, config, &s1, &s2)
}

/// Merges the answers of two subproblems by resolving conflicting workers.
fn merge_answers(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    s1: &Assignment,
    s2: &Assignment,
) -> Assignment {
    let instance = request.instance;
    let mut merged = Assignment::for_instance(instance);

    // Conflicting workers: assigned in both sub-answers (necessarily to
    // different tasks, since the task sets of the halves are disjoint).
    let mut conflicting: Vec<WorkerId> = Vec::new();
    for w in 0..instance.num_workers() {
        let id = WorkerId::from(w);
        if let (Some(_), Some(_)) = (s1.task_of(id), s2.task_of(id)) {
            conflicting.push(id);
        }
    }
    let conflict_set: HashSet<WorkerId> = conflicting.iter().copied().collect();

    // Non-conflicting assignments are kept as they are (Lemma 6.1).
    for source in [s1, s2] {
        for (task, worker, contribution) in source.iter() {
            if !conflict_set.contains(&worker) {
                merged
                    .assign(task, worker, contribution)
                    .expect("disjoint halves cannot double-assign a non-conflicting worker");
            }
        }
    }

    if conflicting.is_empty() {
        return merged;
    }

    // Group conflicting workers into dependency components: two conflicting
    // workers are dependent when they touch a common task in either
    // sub-answer (Lemma 6.2).
    let tasks_of = |w: WorkerId| -> Vec<TaskId> {
        [s1.task_of(w), s2.task_of(w)]
            .into_iter()
            .flatten()
            .collect()
    };
    let mut task_to_conflicts: HashMap<TaskId, Vec<WorkerId>> = HashMap::new();
    for &w in &conflicting {
        for t in tasks_of(w) {
            task_to_conflicts.entry(t).or_default().push(w);
        }
    }
    // Union-find over the conflicting workers.
    let index_of: HashMap<WorkerId, usize> = conflicting
        .iter()
        .enumerate()
        .map(|(i, &w)| (w, i))
        .collect();
    let mut parent: Vec<usize> = (0..conflicting.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    // The final partition is the same whatever order the conflict lists
    // are unioned in, and groups are sorted before resolution below.
    for members in task_to_conflicts.values() {
        for pair in members.windows(2) {
            let a = find(&mut parent, index_of[&pair[0]]);
            let b = find(&mut parent, index_of[&pair[1]]);
            if a != b {
                parent[a] = b;
            }
        }
    }
    let mut groups: HashMap<usize, Vec<WorkerId>> = HashMap::new();
    for (i, &w) in conflicting.iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().push(w);
    }

    // Resolve each group. Groups touch disjoint task sets, so they can be
    // resolved independently against the already-merged non-conflicting
    // assignments (Lemma 6.2).
    // Members of each group keep `conflicting`'s deterministic order.
    let mut group_list: Vec<Vec<WorkerId>> = groups.into_values().collect();
    group_list.sort_by_key(|g| g.first().map(|w| w.index()).unwrap_or(0));
    for group in group_list {
        resolve_group(request, config, s1, s2, &group, &mut merged);
    }
    merged
}

/// Chooses, for every conflicting worker in `group`, whether to keep its
/// first-half or second-half assignment, maximising the local
/// (min-reliability, summed E[STD]) objective over the tasks the group
/// touches.
fn resolve_group(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    s1: &Assignment,
    s2: &Assignment,
    group: &[WorkerId],
    merged: &mut Assignment,
) {
    let instance = request.instance;
    let empty_priors;
    let priors: &TaskPriors = match request.priors {
        Some(p) => p,
        None => {
            empty_priors = TaskPriors::empty(instance.num_tasks());
            &empty_priors
        }
    };

    // The tasks this group may affect.
    let mut affected: Vec<TaskId> = Vec::new();
    for &w in group {
        for t in [s1.task_of(w), s2.task_of(w)].into_iter().flatten() {
            if !affected.contains(&t) {
                affected.push(t);
            }
        }
    }

    // Base contributions of each affected task (already-merged workers plus
    // banked priors).
    let base: HashMap<TaskId, Vec<Contribution>> = affected
        .iter()
        .map(|&t| {
            let mut cs = merged.contributions_of(t);
            cs.extend_from_slice(priors.of(t));
            (t, cs)
        })
        .collect();

    // The two copies of each group worker.
    let copy_of = |source: &Assignment, w: WorkerId| -> Option<(TaskId, Contribution)> {
        source.task_of(w).and_then(|t| {
            source
                .workers_of(t)
                .iter()
                .find(|(wid, _)| *wid == w)
                .map(|(_, c)| (t, *c))
        })
    };
    type AssignedCopy = Option<(TaskId, Contribution)>;
    let copies: Vec<(AssignedCopy, AssignedCopy)> = group
        .iter()
        .map(|&w| (copy_of(s1, w), copy_of(s2, w)))
        .collect();

    // Evaluate one choice vector (bit i set = keep the second-half copy).
    let evaluate_choice = |mask: usize| -> (f64, f64) {
        let mut contributions: HashMap<TaskId, Vec<Contribution>> = base.clone();
        for (i, copy) in copies.iter().enumerate() {
            let chosen = if mask & (1 << i) != 0 { copy.1 } else { copy.0 };
            if let Some((t, c)) = chosen {
                contributions.entry(t).or_default().push(c);
            }
        }
        let mut min_rel = f64::INFINITY;
        let mut total_std = 0.0;
        for &t in &affected {
            let cs = contributions.get(&t).cloned().unwrap_or_default();
            let confidences: Vec<_> = cs.iter().map(|c| c.confidence).collect();
            let rel = reliability(&confidences);
            if !cs.is_empty() {
                min_rel = min_rel.min(rel);
            } else {
                min_rel = min_rel.min(0.0);
            }
            total_std += task_expected_std_of(instance, t, &cs);
        }
        if min_rel == f64::INFINITY {
            min_rel = 1.0;
        }
        (min_rel, total_std)
    };

    let best_mask = if group.len() <= config.max_group_enumeration {
        // Exhaustive enumeration of the 2^k copy choices.
        let options: Vec<(f64, f64)> = (0..(1usize << group.len())).map(evaluate_choice).collect();
        rank_by_dominating_count(&options).unwrap_or(0)
    } else {
        // Greedy per-worker fallback for oversized groups: decide each worker
        // on its own, keeping earlier decisions fixed.
        let mut mask = 0usize;
        for i in 0..group.len() {
            let keep_first = evaluate_choice(mask);
            let keep_second = evaluate_choice(mask | (1 << i));
            if let Some(1) = rank_by_dominating_count(&[keep_first, keep_second]) {
                mask |= 1 << i;
            }
        }
        mask
    };

    for (i, (&w, copy)) in group.iter().zip(copies.iter()).enumerate() {
        let chosen = if best_mask & (1 << i) != 0 {
            copy.1
        } else {
            copy.0
        };
        if let Some((t, c)) = chosen {
            merged
                .assign(t, w, c)
                .expect("conflicting worker is unassigned in the merged strategy until now");
        }
    }
}
