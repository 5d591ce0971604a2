//! The divide-and-conquer RDB-SC solver (Section 6, Figures 6–9).
//!
//! * **`BG_Partition`** (Figure 7): split the task set into two spatially
//!   coherent, roughly even halves with balanced 2-means on the task
//!   locations; workers whose reachable tasks all fall in one half go to that
//!   half only, the rest are duplicated into both subproblems.
//! * **Recursion** (Figure 6): subproblems with at most `γ` tasks are solved
//!   directly with the sampling solver; larger ones are partitioned again.
//! * **`SA_Merge`** (Figure 9): answers of two subproblems are merged by
//!   resolving *conflicting workers* — workers assigned in both halves.
//!   Independent conflicting workers (ICW) are resolved one by one;
//!   dependent conflicting workers (DCW, those sharing a task with another
//!   conflicting worker) are resolved jointly by enumerating the copy
//!   choices within their dependency group (Lemmas 6.1 and 6.2).
//!
//! Implementation notes — a node costs what its own sub-problem holds:
//!
//! * the sub-problems share the request's pair list and id space; a leaf is
//!   handed to the sampling core as the adjacency rows of its own workers,
//!   restricted to its own tasks, and never as a rebuilt candidate graph;
//! * set membership ("is this task in the half / the leaf?") is a mark in
//!   one dense per-task table of the `Workspace`, set and cleared by the
//!   node that asks; the conflict components of a merge come from a dense
//!   "last conflicting worker on this task" table the same way;
//! * `SA_Merge` values a copy choice task by task; a task's value depends
//!   only on the workers whose copies can land on it, so most of the `2^k`
//!   choices of a group find it in the `ValuationMemo`,
//!   and the rest rebuild it on a buffer truncated back to the
//!   already-merged base;
//! * the randomness is in the splits and the leaves' sample draws only, so
//!   the calling thread walks the tree in the recursion's order and does
//!   both; valuing a leaf's samples and merging two answers never touch
//!   the generator, so leaves can be valued on helper threads and each
//!   split merged as soon as its halves are answered, with the same bits.

use crate::sampling::{assignment_of, ActiveTask, Draw, SamplingConfig, Valuer};
use crate::solver::SolveRequest;
use crate::valuation::MAX_MEMBERS;
use rand::Rng;
use rdbsc_cluster::balanced_two_way_split;
use rdbsc_model::objective::{task_expected_std_with, task_reliability_of};
use rdbsc_model::{Assignment, Contribution, TaskId, WorkerId};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Configuration of the divide-and-conquer solver.
#[derive(Debug, Clone, Copy)]
pub struct DncConfig {
    /// Subproblems with at most this many tasks are solved directly
    /// (threshold `γ` of Figure 6).
    pub gamma: usize,
    /// Sampling configuration used for the leaf subproblems.
    pub sampling: SamplingConfig,
    /// Maximum size of a dependent-conflicting-worker group that is resolved
    /// by exhaustive enumeration (`2^k` combinations, so never more than
    /// `usize::BITS − 1` workers); larger groups fall back to a per-worker
    /// greedy resolution.
    pub max_group_enumeration: usize,
    /// Hard cap on the recursion depth (degenerate partitions stop early).
    pub max_depth: usize,
}

impl Default for DncConfig {
    fn default() -> Self {
        Self {
            gamma: 16,
            sampling: SamplingConfig::default(),
            max_group_enumeration: 12,
            max_depth: 32,
        }
    }
}

/// Mark of a task outside the node at hand in [`Workspace::side`].
const OUTSIDE: u8 = 0;
/// "No conflicting worker seen yet" in [`Workspace::last_conflict`].
const NONE: usize = usize::MAX;

/// Buffers of the calling thread, shared by every node of one solve. The
/// dense tables are indexed by task and hold their neutral value between
/// uses.
struct Workspace {
    /// Values the leaves the calling thread keeps, and the merges.
    valuer: Valuer,
    /// The buffer the next leaf is drawn into.
    spare: Leaf,
    /// Which part of the node at hand a task belongs to: [`OUTSIDE`], or 1
    /// or 2 for the halves of a split (1 for the tasks of a leaf).
    side: Vec<u8>,
    /// The tasks holding priors, ascending.
    prior_tasks: Vec<ActiveTask>,
    /// The tree walked so far, in pre-order, each finished subtree
    /// replaced by its answer.
    stack: Vec<Item>,
    /// Leaves drawn so far.
    leaves: usize,
    /// `(leaf number, pair indices of its best sample)` of the pending
    /// leaves valued since they were pushed.
    valued: Vec<(usize, Vec<u32>)>,
    /// During a merge: the last conflicting worker (as an index into the
    /// merge's conflict list) seen on a task.
    last_conflict: Vec<usize>,
    /// The tasks a conflict group affects.
    affected_sets: Vec<AffectedSet>,
}

impl Workspace {
    fn new(request: &SolveRequest<'_>) -> Self {
        let num_tasks = request.instance.num_tasks();
        let mut valuer = Valuer::default();
        let prior_tasks = (0..num_tasks)
            .map(TaskId::from)
            .filter(|&t| !request.priors_of(t).is_empty())
            .map(|t| ActiveTask::new(request, t, &mut valuer.expected))
            .collect();
        Self {
            valuer,
            spare: Leaf::default(),
            side: vec![OUTSIDE; num_tasks],
            prior_tasks,
            stack: Vec::new(),
            leaves: 0,
            valued: Vec::new(),
            last_conflict: vec![NONE; num_tasks],
            affected_sets: Vec::new(),
        }
    }
}

/// One task affected by a conflict group, during its resolution.
#[derive(Debug, Default)]
struct AffectedSet {
    /// The first `base_len` are fixed; the rest belong to the choice vector
    /// evaluated last.
    contributions: Vec<Contribution>,
    base_len: usize,
    /// The copies that land on this task when chosen, in group order.
    landings: Vec<Landing>,
}

/// A conflicting worker's copy in one of the two sub-answers.
#[derive(Debug, Clone, Copy)]
struct Landing {
    /// Index of the worker in its group.
    worker: usize,
    /// Is this the copy of the second sub-answer?
    second_half: bool,
    contribution: Contribution,
}

/// An item of [`Workspace::stack`].
enum Item {
    /// A split: its first half's items follow, then its second half's.
    Split,
    /// A leaf a helper is valuing, by number.
    Pending(usize),
    /// The answer of a finished subtree.
    Answer(Assignment),
}

/// One leaf's sub-problem, drawn and waiting to be valued.
#[derive(Debug, Default)]
struct Leaf {
    /// Its place among the leaves, in pre-order.
    number: usize,
    /// The tasks its samples are valued over, ascending.
    tasks: Vec<ActiveTask>,
    draw: Draw,
}

impl Leaf {
    /// The pair indices of the leaf's best sample.
    fn value(&self, request: &SolveRequest<'_>, valuer: &mut Valuer) -> Vec<u32> {
        valuer
            .best(request, &self.tasks, &self.draw)
            .map(|best| self.draw.sample(best))
            .unwrap_or_default()
    }
}

/// The drawn leaves handed to helper threads, and what comes back. At most
/// one leaf waits in the queue, so with `h` helpers at most `h + 2` drawn
/// leaves exist at once: one per helper, the queued one and the one the
/// calling thread holds.
#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a leaf is queued or the pool closes.
    queued: Condvar,
    /// Signalled when a helper hands a leaf back or stops.
    valued: Condvar,
}

#[derive(Default)]
struct PoolState {
    queue: Option<Leaf>,
    /// No more leaves will be queued.
    closed: bool,
    /// A helper panicked: the leaf it held will never come back.
    failed: bool,
    /// `(leaf number, winners)` of the leaves valued by helpers.
    valued: Vec<(usize, Vec<u32>)>,
    /// Buffers of valued leaves, to draw the next ones into.
    spare: Vec<Leaf>,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("D&C pool lock")
    }

    /// Queues `leaf` and returns a buffer for the next one, or hands `leaf`
    /// back when a leaf is queued already.
    fn offer(&self, leaf: Leaf) -> Result<Leaf, Leaf> {
        let mut state = self.lock();
        if state.queue.is_some() {
            return Err(leaf);
        }
        state.queue = Some(leaf);
        let spare = state.spare.pop().unwrap_or_default();
        drop(state);
        self.queued.notify_one();
        Ok(spare)
    }

    /// The queued leaf, if any, without waiting.
    fn take(&self) -> Option<Leaf> {
        self.lock().queue.take()
    }

    /// Moves the leaves helpers handed back into `valued`. With `wait`, and
    /// none handed back yet, first waits for one.
    fn collect(&self, valued: &mut Vec<(usize, Vec<u32>)>, wait: bool) {
        let mut state = self.lock();
        while wait && state.valued.is_empty() {
            assert!(!state.failed, "a D&C helper panicked");
            state = self.valued.wait(state).expect("D&C pool lock");
        }
        valued.append(&mut state.valued);
    }

    /// A helper's loop: value queued leaves until the pool closes.
    fn help(&self, request: &SolveRequest<'_>) {
        let _failed = FailOnUnwind(self);
        let mut valuer = Valuer::default();
        let mut state = self.lock();
        loop {
            if let Some(leaf) = state.queue.take() {
                drop(state);
                let winners = leaf.value(request, &mut valuer);
                state = self.lock();
                state.valued.push((leaf.number, winners));
                state.spare.push(leaf);
                self.valued.notify_one();
            } else if state.closed {
                return;
            } else {
                state = self.queued.wait(state).expect("D&C pool lock");
            }
        }
    }
}

/// Tells the calling thread, when a helper unwinds, that the leaf the
/// helper held will never come back.
struct FailOnUnwind<'a>(&'a Pool);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.failed = true;
            drop(state);
            self.0.valued.notify_all();
        }
    }
}

/// Closes the pool when dropped — the helpers stop once the queue is
/// empty — also when the walk unwinds.
struct CloseOnDrop<'a>(&'a Pool);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        // A poisoned lock means a helper panicked; the scope reports it.
        if let Ok(mut state) = self.0.state.lock() {
            state.closed = true;
        }
        self.0.queued.notify_all();
    }
}

/// Runs the divide-and-conquer solver.
///
/// The calling thread walks the tree: it splits each node and draws each
/// leaf's samples in the order of the recursion of Figure 6, so the
/// generator is consumed the same way at any thread count. With
/// [`SolveRequest::threads`] above 1, drawn leaves go to
/// `threads − 1` helpers through a one-slot queue; when the slot is taken
/// the calling thread first merges what the answers back so far allow and
/// then, if the slot is still taken, values the leaf itself. `SA_Merge`
/// runs on the calling thread over the walked tree, each split as soon as
/// both its halves have answers. A leaf's best sample depends on its picks
/// alone, and a merge on its halves' answers alone, so the assignment is
/// the same at any thread count.
pub fn divide_and_conquer<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    rng: &mut R,
) -> Assignment {
    let instance = request.instance;
    let all_tasks: Vec<TaskId> = instance.tasks.iter().map(|t| t.id).collect();
    let all_workers: Vec<WorkerId> = instance.workers.iter().map(|w| w.id).collect();
    let mut workspace = Workspace::new(request);
    let root_is_leaf = all_tasks.len() <= config.gamma.max(1) || config.max_depth == 0;
    if request.threads <= 1 || root_is_leaf {
        walk(
            request,
            config,
            &all_tasks,
            &all_workers,
            0,
            &mut workspace,
            None,
            rng,
        );
    } else {
        let pool = Pool::default();
        std::thread::scope(|scope| {
            let _close = CloseOnDrop(&pool);
            let (pool, request) = (&pool, request);
            let helpers = (1..request.threads)
                .take_while(|_| {
                    std::thread::Builder::new()
                        .name("rdbsc-dnc".into())
                        .spawn_scoped(scope, move || pool.help(request))
                        .is_ok()
                })
                .count();
            let pool = (helpers > 0).then_some(pool);
            walk(
                request,
                config,
                &all_tasks,
                &all_workers,
                0,
                &mut workspace,
                pool,
                rng,
            );
            if let Some(pool) = pool {
                while let Some(leaf) = pool.take() {
                    let winners = leaf.value(request, &mut workspace.valuer);
                    workspace.valued.push((leaf.number, winners));
                }
                while !settle(request, config, &mut workspace) {
                    pool.collect(&mut workspace.valued, true);
                }
            }
        });
    }
    match workspace.stack.pop() {
        Some(Item::Answer(answer)) if workspace.stack.is_empty() => answer,
        _ => unreachable!("a finished walk leaves exactly the root's answer"),
    }
}

/// Gives every pending leaf in `workspace.valued` its answer, then merges
/// (`SA_Merge`) every split whose two halves have answers, innermost
/// first. Each merge sees the very answers the sequential recursion would
/// have merged, so merging as early as the leaves allow changes no bit.
/// Returns whether the stack holds the root's answer alone.
fn settle(request: &SolveRequest<'_>, config: &DncConfig, workspace: &mut Workspace) -> bool {
    let items = std::mem::take(&mut workspace.stack);
    let mut stack = Vec::with_capacity(items.len());
    for item in items {
        stack.push(match item {
            Item::Pending(number) => {
                match workspace.valued.iter().position(|(n, _)| *n == number) {
                    Some(at) => {
                        let (_, winners) = workspace.valued.swap_remove(at);
                        Item::Answer(assignment_of(request, winners))
                    }
                    None => Item::Pending(number),
                }
            }
            item => item,
        });
        while let [.., Item::Split, Item::Answer(_), Item::Answer(_)] = stack[..] {
            let (Some(Item::Answer(s2)), Some(Item::Answer(s1)), Some(Item::Split)) =
                (stack.pop(), stack.pop(), stack.pop())
            else {
                unreachable!("matched above");
            };
            stack.push(Item::Answer(merge_answers(
                request, config, &s1, &s2, workspace,
            )));
        }
    }
    workspace.stack = stack;
    matches!(workspace.stack[..], [Item::Answer(_)])
}

/// Draws a leaf — the sampling solver's draw on the candidate pairs between
/// `workers` and `tasks` — values it here or hands it to the pool, and
/// merges what the answers so far allow.
fn solve_leaf<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    tasks: &[TaskId],
    workers: &[WorkerId],
    workspace: &mut Workspace,
    pool: Option<&Pool>,
    rng: &mut R,
) {
    let candidates = request.candidates;
    let mut leaf = std::mem::take(&mut workspace.spare);
    leaf.number = workspace.leaves;
    workspace.leaves += 1;

    let side = &mut workspace.side;
    for t in tasks {
        side[t.index()] = 1;
    }
    leaf.draw.adjacency.clear();
    for w in workers {
        leaf.draw.adjacency.push_row(
            candidates.by_worker[w.index()]
                .iter()
                .copied()
                .filter(|&idx| side[candidates.pairs[idx].task.index()] != OUTSIDE),
        );
    }
    for t in tasks {
        side[t.index()] = OUTSIDE;
    }
    // A sample is valued over the whole instance: the leaf's tasks plus
    // every other task holding priors, in ascending id. A leaf task with
    // priors is among the prior tasks already.
    leaf.tasks.clear();
    leaf.tasks.extend_from_slice(&workspace.prior_tasks);
    leaf.tasks.extend(
        tasks
            .iter()
            .filter(|&&t| request.priors_of(t).is_empty())
            .map(|&task| ActiveTask {
                task,
                priors_alone: None,
            }),
    );
    leaf.tasks.sort_unstable_by_key(|a| a.task);
    leaf.draw.draw(&config.sampling, rng);

    let number = leaf.number;
    let pool = pool.filter(|_| leaf.draw.samples() > 0);
    let item = match pool {
        // When the queue is full, merge what the answers back so far allow,
        // then offer once more; if it is still full, value the leaf here.
        Some(pool) => match pool.offer(leaf).or_else(|back| {
            pool.collect(&mut workspace.valued, false);
            settle(request, config, workspace);
            pool.offer(back)
        }) {
            Ok(spare) => {
                workspace.spare = spare;
                Item::Pending(number)
            }
            Err(back) => {
                let answer = assignment_of(request, back.value(request, &mut workspace.valuer));
                workspace.spare = back;
                Item::Answer(answer)
            }
        },
        None => {
            let answer = assignment_of(request, leaf.value(request, &mut workspace.valuer));
            workspace.spare = leaf;
            Item::Answer(answer)
        }
    };
    workspace.stack.push(item);
    if let Some(pool) = pool {
        pool.collect(&mut workspace.valued, false);
    }
    settle(request, config, workspace);
}

/// Walks the sub-problem's tree: splits it (`BG_Partition`) or draws it as
/// a leaf, pushing each node on `workspace.stack`.
#[allow(clippy::too_many_arguments)]
fn walk<R: Rng + ?Sized>(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    tasks: &[TaskId],
    workers: &[WorkerId],
    depth: usize,
    workspace: &mut Workspace,
    pool: Option<&Pool>,
    rng: &mut R,
) {
    if tasks.len() <= config.gamma.max(1) || depth >= config.max_depth {
        return solve_leaf(request, config, tasks, workers, workspace, pool, rng);
    }

    // ---- BG_Partition ----------------------------------------------------
    let points: Vec<_> = tasks
        .iter()
        .map(|t| request.instance.tasks[t.index()].location)
        .collect();
    let (idx1, idx2) = balanced_two_way_split(&points, rng);
    if idx1.is_empty() || idx2.is_empty() {
        return solve_leaf(request, config, tasks, workers, workspace, pool, rng);
    }
    let t1: Vec<TaskId> = idx1.iter().map(|&i| tasks[i]).collect();
    let t2: Vec<TaskId> = idx2.iter().map(|&i| tasks[i]).collect();
    let side = &mut workspace.side;
    for t in &t1 {
        side[t.index()] = 1;
    }
    for t in &t2 {
        side[t.index()] = 2;
    }

    let mut w1: Vec<WorkerId> = Vec::new();
    let mut w2: Vec<WorkerId> = Vec::new();
    for &w in workers {
        let mut in_t1 = false;
        let mut in_t2 = false;
        for pair in request.candidates.pairs_of_worker(w) {
            match side[pair.task.index()] {
                1 => in_t1 = true,
                2 => in_t2 = true,
                _ => continue,
            }
            if in_t1 && in_t2 {
                break;
            }
        }
        // A worker that can serve both halves is duplicated (conflict
        // resolution happens at merge time).
        if in_t1 {
            w1.push(w);
        }
        if in_t2 {
            w2.push(w);
        }
    }
    for t in tasks {
        side[t.index()] = OUTSIDE;
    }

    // ---- Recurse ----------------------------------------------------------
    workspace.stack.push(Item::Split);
    walk(request, config, &t1, &w1, depth + 1, workspace, pool, rng);
    walk(request, config, &t2, &w2, depth + 1, workspace, pool, rng);
}

/// Merges the answers of two subproblems by resolving conflicting workers.
fn merge_answers(
    request: &SolveRequest<'_>,
    config: &DncConfig,
    s1: &Assignment,
    s2: &Assignment,
    workspace: &mut Workspace,
) -> Assignment {
    let instance = request.instance;
    let mut merged = Assignment::for_instance(instance);

    // Conflicting workers: assigned in both sub-answers (necessarily to
    // different tasks, since the task sets of the halves are disjoint).
    let is_conflicting = |w: WorkerId| s1.task_of(w).is_some() && s2.task_of(w).is_some();
    let conflicting: Vec<WorkerId> = (0..instance.num_workers())
        .map(WorkerId::from)
        .filter(|&w| is_conflicting(w))
        .collect();

    // Non-conflicting assignments are kept as they are (Lemma 6.1).
    for source in [s1, s2] {
        for (task, worker, contribution) in source.iter() {
            if !is_conflicting(worker) {
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
    // sub-answer (Lemma 6.2). Union-find over the conflicting workers, each
    // joined to the previous one seen on either of its tasks.
    let tasks_of = |w: WorkerId| [s1.task_of(w), s2.task_of(w)].into_iter().flatten();
    let mut parent: Vec<usize> = (0..conflicting.len()).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let last_conflict = &mut workspace.last_conflict;
    for (i, &w) in conflicting.iter().enumerate() {
        for t in tasks_of(w) {
            let last = std::mem::replace(&mut last_conflict[t.index()], i);
            if last != NONE {
                let a = find(&mut parent, i);
                let b = find(&mut parent, last);
                parent[a] = b;
            }
        }
    }
    for &w in &conflicting {
        for t in tasks_of(w) {
            last_conflict[t.index()] = NONE;
        }
    }
    // Components in order of their first (lowest) worker, members in
    // worker order.
    let mut group_of_root: Vec<usize> = vec![NONE; conflicting.len()];
    let mut groups: Vec<Vec<WorkerId>> = Vec::new();
    for (i, &w) in conflicting.iter().enumerate() {
        let root = find(&mut parent, i);
        if group_of_root[root] == NONE {
            group_of_root[root] = groups.len();
            groups.push(Vec::new());
        }
        groups[group_of_root[root]].push(w);
    }

    // Resolve each group. Groups touch disjoint task sets, so they can be
    // resolved independently against the already-merged non-conflicting
    // assignments (Lemma 6.2).
    for group in &groups {
        resolve_group(request, config, s1, s2, group, &mut merged, workspace);
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
    workspace: &mut Workspace,
) {
    let instance = request.instance;

    // The tasks this group may affect.
    let mut affected: Vec<TaskId> = Vec::new();
    for &w in group {
        for t in [s1.task_of(w), s2.task_of(w)].into_iter().flatten() {
            if !affected.contains(&t) {
                affected.push(t);
            }
        }
    }

    // Per affected task: its base contributions (already-merged workers
    // plus banked priors) and the copies that may land on it, by group
    // worker. A choice's copies are pushed on top of the base and truncated
    // off again.
    let sets = &mut workspace.affected_sets;
    if sets.len() < affected.len() {
        sets.resize_with(affected.len(), AffectedSet::default);
    }
    let sets = &mut sets[..affected.len()];
    for (set, &t) in sets.iter_mut().zip(&affected) {
        set.contributions.clear();
        set.contributions
            .extend(merged.workers_of(t).iter().map(|(_, c)| *c));
        set.contributions.extend_from_slice(request.priors_of(t));
        set.base_len = set.contributions.len();
        set.landings.clear();
    }

    // The two copies of each group worker, as (slot in `affected`,
    // contribution).
    type AssignedCopy = Option<(usize, Contribution)>;
    let copy_of = |source: &Assignment, w: WorkerId| -> AssignedCopy {
        let t = source.task_of(w)?;
        let (_, c) = source.workers_of(t).iter().find(|(wid, _)| *wid == w)?;
        let slot = affected.iter().position(|&a| a == t)?;
        Some((slot, *c))
    };
    let copies: Vec<(AssignedCopy, AssignedCopy)> = group
        .iter()
        .map(|&w| (copy_of(s1, w), copy_of(s2, w)))
        .collect();
    for (i, &(first, second)) in copies.iter().enumerate() {
        for (copy, second_half) in [(first, false), (second, true)] {
            if let Some((slot, contribution)) = copy {
                sets[slot].landings.push(Landing {
                    worker: i,
                    second_half,
                    contribution,
                });
            }
        }
    }

    // Evaluate one choice vector (`second[i]` = keep worker i's second-half
    // copy). A task's value depends on the choices of the workers landing on
    // it only, which most of the 2^k vectors share: the memo is keyed by
    // those.
    let expected = &mut workspace.valuer.expected;
    let memo = &mut workspace.valuer.memo;
    memo.begin();
    let mut evaluate_choice = |second: &[bool]| -> (f64, f64) {
        let mut min_rel = f64::INFINITY;
        let mut total_std = 0.0;
        for (slot, (set, &t)) in sets.iter_mut().zip(&affected).enumerate() {
            let AffectedSet {
                contributions,
                base_len,
                landings,
            } = set;
            let lands = |l: &Landing| second[l.worker] == l.second_half;
            let mut evaluate = || {
                contributions.truncate(*base_len);
                contributions.extend(landings.iter().filter(|l| lands(l)).map(|l| l.contribution));
                (
                    task_reliability_of(contributions),
                    task_expected_std_with(instance, t, contributions, expected),
                )
            };
            let (rel, std) = if landings.len() <= MAX_MEMBERS {
                let members = landings
                    .iter()
                    .enumerate()
                    .fold(0u64, |members, (j, l)| members | (u64::from(lands(l)) << j));
                memo.get_or_compute(slot, members, evaluate)
            } else {
                evaluate()
            };
            // An empty set has reliability 0.
            min_rel = min_rel.min(rel);
            total_std += std;
        }
        if min_rel == f64::INFINITY {
            min_rel = 1.0;
        }
        (min_rel, total_std)
    };
    let ranker = &mut workspace.valuer.ranker;
    let mut second = vec![false; group.len()];
    let set_mask = |second: &mut [bool], mask: usize| {
        for (i, s) in second.iter_mut().enumerate() {
            *s = mask & (1 << i) != 0;
        }
    };
    // `1 << k` must fit a `usize` whatever the configured limit.
    if group.len() <= config.max_group_enumeration && group.len() < usize::BITS as usize {
        // Exhaustive enumeration of the 2^k copy choices, as the bits of a
        // mask.
        let options: Vec<(f64, f64)> = (0..(1usize << group.len()))
            .map(|mask| {
                set_mask(&mut second, mask);
                evaluate_choice(&second)
            })
            .collect();
        set_mask(&mut second, ranker.rank(&options).unwrap_or(0));
    } else {
        // Greedy per-worker fallback for oversized groups: decide each worker
        // on its own, keeping earlier decisions fixed.
        for i in 0..group.len() {
            let keep_first = evaluate_choice(&second);
            second[i] = true;
            let keep_second = evaluate_choice(&second);
            second[i] = ranker.rank(&[keep_first, keep_second]) == Some(1);
        }
    }

    for (i, &w) in group.iter().enumerate() {
        let chosen = if second[i] { copies[i].1 } else { copies[i].0 };
        if let Some((slot, c)) = chosen {
            merged
                .assign(affected[slot], w, c)
                .expect("conflicting worker is unassigned in the merged strategy until now");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_model::{
        compute_valid_pairs, evaluate, Confidence, ProblemInstance, Task, TimeWindow, Worker,
    };

    fn conf(p: f64) -> Confidence {
        Confidence::new(p).unwrap()
    }

    fn grid_instance(m: usize, n: usize, seed: u64) -> ProblemInstance {
        // Deterministic pseudo-random layout without pulling in rand here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let tasks = (0..m)
            .map(|_| {
                Task::new(
                    TaskId(0),
                    Point::new(next(), next()),
                    TimeWindow::new(0.0, 2.0 + 8.0 * next()).unwrap(),
                )
            })
            .collect();
        let workers = (0..n)
            .map(|_| {
                Worker::new(
                    WorkerId(0),
                    Point::new(next(), next()),
                    0.2 + 0.3 * next(),
                    AngleRange::new(next() * std::f64::consts::TAU, 1.0 + 2.0 * next()),
                    conf(0.8 + 0.19 * next()),
                )
                .unwrap()
            })
            .collect();
        ProblemInstance::new(tasks, workers, 0.5)
    }

    #[test]
    fn produces_valid_assignments() {
        let instance = grid_instance(40, 60, 1);
        let candidates = compute_valid_pairs(&instance);
        let mut rng = StdRng::seed_from_u64(2);
        let assignment = divide_and_conquer(
            &SolveRequest::new(&instance, &candidates),
            &DncConfig::default(),
            &mut rng,
        );
        assert!(assignment.validate(&instance).is_ok());
        // Every worker that has at least one reachable task should end up
        // assigned: D&C duplicates workers but the merge keeps exactly one copy.
        let connected = candidates
            .by_worker
            .iter()
            .filter(|adj| !adj.is_empty())
            .count();
        assert_eq!(assignment.num_assigned(), connected);
    }

    #[test]
    fn recursion_matches_leaf_solver_on_small_instances() {
        // With gamma larger than m, D&C degenerates into a single sampling call.
        let instance = grid_instance(10, 15, 3);
        let candidates = compute_valid_pairs(&instance);
        let config = DncConfig {
            gamma: 100,
            ..DncConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let direct = sampling(
            &SolveRequest::new(&instance, &candidates),
            &config.sampling,
            &mut StdRng::seed_from_u64(5),
        );
        let dnc = divide_and_conquer(
            &SolveRequest::new(&instance, &candidates),
            &config,
            &mut rng,
        );
        let v1 = evaluate(&instance, &direct);
        let v2 = evaluate(&instance, &dnc);
        assert_eq!(v1.assigned_workers, v2.assigned_workers);
        assert!((v1.total_std - v2.total_std).abs() < 1e-9);
    }

    #[test]
    fn deep_recursion_still_assigns_all_connected_workers() {
        let instance = grid_instance(64, 80, 7);
        let candidates = compute_valid_pairs(&instance);
        let config = DncConfig {
            gamma: 4,
            ..DncConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let assignment = divide_and_conquer(
            &SolveRequest::new(&instance, &candidates),
            &config,
            &mut rng,
        );
        assert!(assignment.validate(&instance).is_ok());
        let connected = candidates
            .by_worker
            .iter()
            .filter(|adj| !adj.is_empty())
            .count();
        assert_eq!(assignment.num_assigned(), connected);
    }

    #[test]
    fn merge_resolves_conflicts_to_a_single_copy() {
        // Construct two sub-answers that both assign the same worker.
        let instance = grid_instance(4, 4, 13);
        let candidates = compute_valid_pairs(&instance);
        // find a worker with at least two candidate tasks
        let Some((w, adj)) = candidates
            .by_worker
            .iter()
            .enumerate()
            .find(|(_, adj)| adj.len() >= 2)
        else {
            // degenerate instance; nothing to test
            return;
        };
        let p1 = candidates.pairs[adj[0]];
        let p2 = candidates.pairs[adj[1]];
        let mut s1 = Assignment::for_instance(&instance);
        s1.assign_pair(&p1).unwrap();
        let mut s2 = Assignment::for_instance(&instance);
        s2.assign_pair(&p2).unwrap();
        let request = SolveRequest::new(&instance, &candidates);
        let mut workspace = Workspace::new(&request);
        let merged = merge_answers(&request, &DncConfig::default(), &s1, &s2, &mut workspace);
        let wid = WorkerId::from(w);
        assert!(merged.task_of(wid).is_some());
        assert_eq!(merged.num_assigned(), 1);
    }

    #[test]
    fn merge_keeps_a_choice_per_worker_in_groups_wider_than_a_word() {
        // One conflict group of 66 workers, joined through a hub task. Worker
        // 0 does better on its second copy (an empty task), worker 64 on its
        // first (another empty task); everyone else moves between the hub
        // and a fourth task. Worker 64's choice must not alias worker 0's.
        let task = |x: f64| {
            Task::new(
                TaskId(0),
                Point::new(x, 0.5),
                TimeWindow::new(0.0, 10.0).unwrap(),
            )
        };
        let (hub, only_0, only_64, other) = (TaskId(0), TaskId(1), TaskId(2), TaskId(3));
        let worker = Worker::new(
            WorkerId(0),
            Point::new(0.5, 0.5),
            0.1,
            AngleRange::full(),
            conf(0.9),
        )
        .unwrap();
        let instance = ProblemInstance::new(
            vec![task(0.2), task(0.4), task(0.6), task(0.8)],
            vec![worker; 66],
            0.5,
        );
        let candidates = compute_valid_pairs(&instance);
        let request = SolveRequest::new(&instance, &candidates);
        let copy = Contribution::new(conf(0.9), 1.0, 5.0);
        let (mut s1, mut s2) = (
            Assignment::for_instance(&instance),
            Assignment::for_instance(&instance),
        );
        for w in (0..66).map(WorkerId::from) {
            let (first, second) = match w.index() {
                0 => (hub, only_0),
                64 => (only_64, hub),
                _ => (hub, other),
            };
            s1.assign(first, w, copy).unwrap();
            s2.assign(second, w, copy).unwrap();
        }
        // Past the enumeration limit, including one no group could be
        // enumerated under: both take the per-worker fallback.
        for max_group_enumeration in [12, usize::MAX] {
            let config = DncConfig {
                max_group_enumeration,
                ..DncConfig::default()
            };
            let mut workspace = Workspace::new(&request);
            let merged = merge_answers(&request, &config, &s1, &s2, &mut workspace);
            assert_eq!(merged.num_assigned(), 66);
            assert_eq!(merged.task_of(WorkerId(0)), Some(only_0));
            assert_eq!(merged.task_of(WorkerId(64)), Some(only_64));
        }
    }

    #[test]
    fn quality_is_close_to_plain_sampling() {
        // D&C trades a little accuracy for scalability; on a medium instance
        // its diversity should be within a reasonable factor of sampling's.
        let instance = grid_instance(60, 80, 21);
        let candidates = compute_valid_pairs(&instance);
        let request = SolveRequest::new(&instance, &candidates);
        let s = sampling(
            &request,
            &SamplingConfig::default(),
            &mut StdRng::seed_from_u64(1),
        );
        let d = divide_and_conquer(
            &request,
            &DncConfig::default(),
            &mut StdRng::seed_from_u64(1),
        );
        let vs = evaluate(&instance, &s);
        let vd = evaluate(&instance, &d);
        assert!(vd.total_std >= 0.5 * vs.total_std);
        assert!(vd.min_reliability >= 0.5 * vs.min_reliability);
    }
}
