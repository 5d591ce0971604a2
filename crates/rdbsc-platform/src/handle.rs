//! A thread-safe command facade over the assignment engine — single or
//! region-partitioned.
//!
//! The engine itself is a plain `&mut self` state machine, which is right
//! for the simulation driver but useless to a network server whose request
//! handlers, micro-batch flusher and metrics scrapers all live on different
//! threads. [`EngineHandle`] wraps one engine behind an `Arc<Mutex<_>>` and
//! exposes a *command API* — submit a task, move a worker, expire a task,
//! run a tick, query the standing assignments or a consistent snapshot —
//! so any number of threads can drive the same live instance.
//!
//! The handle is **partition-aware**: it drives either a single
//! [`AssignmentEngine`] ([`EngineHandle::new`]) or a
//! [`PartitionedEngine`] running one
//! engine per spatial region ([`EngineHandle::new_partitioned`]) behind the
//! same command surface. Partition-specific introspection
//! ([`EngineHandle::num_partitions`], [`EngineHandle::partition_snapshots`],
//! [`EngineHandle::handoffs`]) degrades gracefully on a single engine.
//!
//! Design notes:
//!
//! * **Short critical sections.** Every command except [`EngineHandle::tick`]
//!   holds the lock for `O(1)`-ish work (event submissions only push onto the
//!   engine's pending queue). The tick holds it for the sharded solve, which
//!   is the intended serialisation point: the engine's determinism contract
//!   (per-`(tick, shard)` seeding) requires ticks to be totally ordered. On a
//!   partitioned core the tick broadcast fans the solve out to the partition
//!   threads, which run concurrently while the handle lock is held.
//! * **Cumulative serving stats.** The handle counts events, ticks and
//!   assignments across the engine's lifetime so a `/metrics` endpoint can
//!   report totals without replaying tick reports.
//! * **Cloning is sharing.** `EngineHandle::clone` hands out another handle
//!   to the *same* engine, like `Arc`.

use crate::engine::{AssignmentEngine, EngineObjective, TickReport};
use crate::partition::PartitionedEngine;
use rdbsc_geo::Point;
use rdbsc_index::{GridIndex, MaintenanceCounters, SpatialIndex};
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Contribution, Task, TaskId, Worker, WorkerId};
use std::sync::{Arc, Mutex};

use crate::engine::EngineEvent;

/// A consistent point-in-time view of the engine's serving state, cheap to
/// take (no per-task work beyond the objective fold) and safe to expose on a
/// metrics endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// The time passed to the most recent tick (0 before the first).
    pub now: f64,
    /// Ticks run so far.
    pub ticks: u64,
    /// Events applied by ticks so far (excludes still-pending ones).
    pub events_applied: u64,
    /// Events submitted but not yet applied by a tick.
    pub pending_events: usize,
    /// Live tasks in the index.
    pub live_tasks: usize,
    /// Live workers in the index.
    pub live_workers: usize,
    /// Workers currently en route under the standing assignment.
    pub committed_workers: usize,
    /// Answers banked so far (live and retired tasks).
    pub banked_answers: usize,
    /// Assignments committed across the engine's lifetime.
    pub total_assignments: u64,
    /// The online objective over the standing state.
    pub objective: EngineObjective,
    /// The index's cumulative maintenance counters.
    pub index_counters: MaintenanceCounters,
    /// Durable-log counters when the engine runs with a write-ahead log
    /// (`None` on non-durable engines; a merged snapshot sums over the
    /// durable partitions).
    pub wal: Option<crate::wal::WalStats>,
}

/// What the handle drives: one engine over the whole space, or one engine
/// per region behind the partitioned router.
// Both variants boxed: each holds hundreds of bytes of engine/router
// state, and the enum sits inside every handle's mutex.
enum Core<I: SpatialIndex> {
    Single(Box<AssignmentEngine<I>>),
    Partitioned(Box<PartitionedEngine>),
}

impl<I: SpatialIndex> Core<I> {
    fn submit(&mut self, event: EngineEvent) {
        match self {
            Core::Single(engine) => engine.submit(event),
            Core::Partitioned(engine) => engine.submit(event),
        }
    }

    fn submit_all<E: IntoIterator<Item = EngineEvent>>(&mut self, events: E) {
        match self {
            Core::Single(engine) => engine.submit_all(events),
            Core::Partitioned(engine) => engine.submit_all(events),
        }
    }

    /// Runs one round and returns the report plus the trace id it ran
    /// under. A partitioned core generates the id itself (it must reach the
    /// partitions before their spans record); the single core gets one here
    /// and synthesizes its stage spans from the report — the engine itself
    /// stays tracing-free.
    fn tick(&mut self, now: f64) -> (TickReport, u64) {
        match self {
            Core::Single(engine) => {
                let trace = rdbsc_obs::next_trace_id();
                let root = rdbsc_obs::span(trace, 0, "router.tick");
                let report = engine.tick(now);
                rdbsc_obs::record_stage_spans(trace, root.id(), &report.stages);
                (report, trace)
            }
            Core::Partitioned(engine) => {
                let report = engine.tick(now);
                (report, engine.last_trace())
            }
        }
    }

    fn is_active(&mut self) -> bool {
        match self {
            Core::Single(engine) => {
                engine.num_pending_events() > 0 || engine.num_tasks() > 0
            }
            Core::Partitioned(engine) => engine.is_active(),
        }
    }

    fn record_answer(&mut self, worker: WorkerId, contribution: Contribution) -> bool {
        match self {
            Core::Single(engine) => engine.record_answer(worker, contribution),
            Core::Partitioned(engine) => engine.record_answer(worker, contribution),
        }
    }

    fn release_worker(&mut self, worker: WorkerId) {
        match self {
            Core::Single(engine) => engine.release_worker(worker),
            Core::Partitioned(engine) => engine.release_worker(worker),
        }
    }

    fn is_committed(&self, worker: WorkerId) -> bool {
        match self {
            Core::Single(engine) => engine.is_committed(worker),
            Core::Partitioned(engine) => engine.is_committed(worker),
        }
    }

    fn committed_assignments(&mut self) -> Vec<ValidPair> {
        match self {
            Core::Single(engine) => engine.committed_assignments(),
            Core::Partitioned(engine) => engine.committed_assignments(),
        }
    }
}

impl EngineSnapshot {
    /// Captures an engine's serving state alongside the lifetime counters
    /// its driver keeps (the handle for a single engine, each partition
    /// thread for a partitioned one) — the one place the field wiring
    /// lives, so the single and partitioned views cannot drift.
    pub(crate) fn capture<I: SpatialIndex>(
        engine: &AssignmentEngine<I>,
        now: f64,
        events_applied: u64,
        total_assignments: u64,
    ) -> Self {
        Self {
            now,
            ticks: engine.num_ticks(),
            events_applied,
            pending_events: engine.num_pending_events(),
            live_tasks: engine.num_tasks(),
            live_workers: engine.num_workers(),
            committed_workers: engine.num_committed(),
            banked_answers: engine.num_banked_answers(),
            total_assignments,
            objective: engine.current_objective(),
            index_counters: engine.index().maintenance_counters(),
            wal: None,
        }
    }
}

struct Shared<I: SpatialIndex> {
    core: Core<I>,
    last_now: f64,
    events_applied: u64,
    total_assignments: u64,
    /// Trace id of the most recent tick (0 before the first) — what
    /// `/debug/spans` resolves by default.
    last_trace: u64,
}

/// A clonable, thread-safe handle to a shared [`AssignmentEngine`].
///
/// ```
/// use rdbsc_geo::{AngleRange, Point, Rect};
/// use rdbsc_index::GridIndex;
/// use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
/// use rdbsc_platform::engine::{AssignmentEngine, EngineConfig};
/// use rdbsc_platform::handle::EngineHandle;
///
/// let handle = EngineHandle::new(AssignmentEngine::new(
///     GridIndex::new(Rect::unit(), 0.25),
///     EngineConfig::default(),
/// ));
/// handle.submit_task(Task::new(
///     TaskId(0),
///     Point::new(0.6, 0.6),
///     TimeWindow::new(0.0, 10.0).unwrap(),
/// ));
/// handle.check_in(
///     Worker::new(
///         WorkerId(0),
///         Point::new(0.5, 0.5),
///         0.5,
///         AngleRange::full(),
///         Confidence::new(0.9).unwrap(),
///     )
///     .unwrap(),
/// );
/// let report = handle.tick(0.0);
/// assert_eq!(report.new_assignments.len(), 1);
/// assert_eq!(handle.assignments().len(), 1);
/// assert_eq!(handle.snapshot().total_assignments, 1);
/// ```
pub struct EngineHandle<I: SpatialIndex = GridIndex> {
    shared: Arc<Mutex<Shared<I>>>,
}

impl<I: SpatialIndex> Clone for EngineHandle<I> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<I: SpatialIndex> EngineHandle<I> {
    /// Wraps an engine (typically freshly constructed) in a shared handle.
    pub fn new(engine: AssignmentEngine<I>) -> Self {
        Self::with_core(Core::Single(Box::new(engine)))
    }

    /// Wraps a region-partitioned multi-engine
    /// ([`PartitionedEngine`]) in a shared handle. The command API is
    /// identical; events are routed by location, ticks run lockstep across
    /// every partition, and queries return merged views.
    pub fn new_partitioned(engine: PartitionedEngine) -> Self {
        Self::with_core(Core::Partitioned(Box::new(engine)))
    }

    fn with_core(core: Core<I>) -> Self {
        Self {
            shared: Arc::new(Mutex::new(Shared {
                core,
                last_now: 0.0,
                events_applied: 0,
                total_assignments: 0,
                last_trace: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shared<I>> {
        // A poisoned engine lock means a solver thread panicked mid-tick;
        // the state may be mid-merge, so serving must stop rather than hand
        // out corrupt assignments.
        self.shared.lock().expect("engine lock poisoned")
    }

    /// Queues a raw engine event for the next tick.
    pub fn submit(&self, event: EngineEvent) {
        self.lock().core.submit(event);
    }

    /// Queues many events (in order) for the next tick.
    pub fn submit_all<E: IntoIterator<Item = EngineEvent>>(&self, events: E) {
        self.lock().core.submit_all(events);
    }

    /// Command: a new task was posted.
    pub fn submit_task(&self, task: Task) {
        self.submit(EngineEvent::TaskArrived(task));
    }

    /// Command: a task was withdrawn or expired server-side.
    pub fn expire_task(&self, id: TaskId) {
        self.submit(EngineEvent::TaskExpired(id));
    }

    /// Command: a worker checked in (or re-registered).
    pub fn check_in(&self, worker: Worker) {
        self.submit(EngineEvent::WorkerCheckIn(worker));
    }

    /// Command: a worker heartbeat reported a new position.
    pub fn move_worker(&self, id: WorkerId, to: Point) {
        self.submit(EngineEvent::WorkerMoved(id, to));
    }

    /// Command: a worker checked out.
    pub fn worker_left(&self, id: WorkerId) {
        self.submit(EngineEvent::WorkerLeft(id));
    }

    /// Command: an en-route worker delivered its answer. Returns `false`
    /// (and banks nothing) when the worker was not committed.
    pub fn record_answer(&self, worker: WorkerId, contribution: Contribution) -> bool {
        self.lock().core.record_answer(worker, contribution)
    }

    /// Command: an en-route worker gave up; it becomes available again.
    pub fn release_worker(&self, worker: WorkerId) {
        self.lock().core.release_worker(worker);
    }

    /// Runs one engine round at time `now` (see [`AssignmentEngine::tick`]).
    ///
    /// Ticks are serialised: concurrent callers run one after another, which
    /// is what the engine's per-`(tick, shard)` seeding needs.
    pub fn tick(&self, now: f64) -> TickReport {
        let mut shared = self.lock();
        let (report, trace) = shared.core.tick(now);
        shared.last_now = now;
        shared.last_trace = trace;
        shared.events_applied += report.events_applied as u64;
        shared.total_assignments += report.new_assignments.len() as u64;
        report
    }

    /// Like [`EngineHandle::tick`], but skips (returning `None`) when the
    /// engine has nothing to do — no pending events and no live tasks. This
    /// keeps an idle serving loop from burning ticks (and advancing the
    /// deterministic tick counter) while the platform is quiet. On a
    /// partitioned core one active partition ticks all of them (ticks are
    /// lockstep).
    pub fn tick_if_active(&self, now: f64) -> Option<TickReport> {
        let mut shared = self.lock();
        if !shared.core.is_active() {
            return None;
        }
        let (report, trace) = shared.core.tick(now);
        shared.last_now = now;
        shared.last_trace = trace;
        shared.events_applied += report.events_applied as u64;
        shared.total_assignments += report.new_assignments.len() as u64;
        Some(report)
    }

    /// Query: the trace id of the most recent tick (`0` before the first).
    /// [`rdbsc_obs::collect_spans`] on it returns that round's span tree —
    /// on a partitioned core, including every in-process partition's spans.
    pub fn last_trace(&self) -> u64 {
        self.lock().last_trace
    }

    /// Query: is the worker currently en route?
    pub fn is_committed(&self, worker: WorkerId) -> bool {
        self.lock().core.is_committed(worker)
    }

    /// Query: the standing committed pairs — sorted by `(task, worker)` on
    /// a single engine, by `(partition, task, worker)` on a partitioned one.
    pub fn assignments(&self) -> Vec<ValidPair> {
        self.lock().core.committed_assignments()
    }

    /// Query: a consistent snapshot of the serving state (the merged
    /// platform-wide view when partitioned).
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut shared = self.lock();
        let shared = &mut *shared;
        match &mut shared.core {
            Core::Single(engine) => EngineSnapshot::capture(
                engine,
                shared.last_now,
                shared.events_applied,
                shared.total_assignments,
            ),
            Core::Partitioned(engine) => engine.snapshot(),
        }
    }

    /// Query: the number of partitions behind this handle (1 for a plain
    /// single-engine handle).
    pub fn num_partitions(&self) -> usize {
        match &self.lock().core {
            Core::Single(_) => 1,
            Core::Partitioned(engine) => engine.num_partitions(),
        }
    }

    /// Query: one snapshot per partition, in partition order (a single
    /// engine reports itself as its only partition).
    pub fn partition_snapshots(&self) -> Vec<EngineSnapshot> {
        {
            let mut shared = self.lock();
            if let Core::Partitioned(engine) = &mut shared.core {
                return engine.partition_snapshots();
            }
        } // release the lock before snapshot() re-takes it
        vec![self.snapshot()]
    }

    /// Query: cross-partition worker handoffs performed so far (0 on a
    /// single engine).
    pub fn handoffs(&self) -> u64 {
        match &self.lock().core {
            Core::Single(_) => 0,
            Core::Partitioned(engine) => engine.handoffs(),
        }
    }

    /// Query: each partition's transport identity (backend kind, endpoint)
    /// plus its protocol counters — empty on a single engine, which has no
    /// partition protocol in the path.
    pub fn partition_transports(&self) -> Vec<crate::partition::PartitionTransport> {
        match &self.lock().core {
            Core::Single(_) => Vec::new(),
            Core::Partitioned(engine) => engine.transport_stats(),
        }
    }

    /// Query: the partitions the router has marked lost (empty on a single
    /// engine and on a fully healthy topology) — see the failure model in
    /// [`crate::partition`].
    pub fn unhealthy_partitions(&self) -> Vec<crate::partition::PartitionHealth> {
        match &self.lock().core {
            Core::Single(_) => Vec::new(),
            Core::Partitioned(engine) => engine.unhealthy_partitions(),
        }
    }

    /// Query: events routed to a lost partition and dropped (always 0 on a
    /// single engine).
    pub fn events_dropped(&self) -> u64 {
        match &self.lock().core {
            Core::Single(_) => 0,
            Core::Partitioned(engine) => engine.events_dropped(),
        }
    }

    /// Arms a standby promoter on a partitioned slot: the first transport
    /// failure there fails over to the standby instead of degrading — see
    /// the failure model in [`crate::partition`].
    ///
    /// # Panics
    ///
    /// On a single-engine handle or an out-of-range slot.
    pub fn set_standby_promoter(
        &self,
        slot: usize,
        promoter: Box<dyn crate::partition::StandbyPromoter>,
    ) {
        match &mut self.lock().core {
            Core::Single(_) => {
                panic!("standby promotion is only available on a partitioned handle")
            }
            Core::Partitioned(engine) => engine.set_standby_promoter(slot, promoter),
        }
    }

    /// Query: completed standby promotions, in the order they happened
    /// (empty on a single engine) — what `/metrics` renders under
    /// `partitions_promoted`.
    pub fn promotions(&self) -> Vec<crate::partition::PromotionRecord> {
        match &self.lock().core {
            Core::Single(_) => Vec::new(),
            Core::Partitioned(engine) => engine.promotions().to_vec(),
        }
    }

    /// Query: slots with a standby currently armed (0 on a single engine).
    pub fn standbys_armed(&self) -> usize {
        match &self.lock().core {
            Core::Single(_) => 0,
            Core::Partitioned(engine) => engine.standbys_armed(),
        }
    }

    /// Gracefully shuts down a partitioned core: ships buffered routed
    /// events, runs one final drain tick (so nothing queued is dropped and
    /// deferred handoffs resolve), then drains and stops every partition —
    /// including remote daemons, which exit on their shutdown command.
    /// Returns the final merged snapshot, or `None` on a single-engine
    /// handle (whose engine needs no teardown). Commands issued after this
    /// panic; it is the last call on a serving topology.
    pub fn shutdown_partitions(&self) -> Option<EngineSnapshot> {
        match &mut self.lock().core {
            Core::Single(_) => None,
            Core::Partitioned(engine) => Some(engine.shutdown()),
        }
    }

    /// Runs a closure with the locked engine, for callers that need an
    /// operation the command API does not cover (tests, admin endpoints).
    ///
    /// # Panics
    ///
    /// On a partitioned handle — the engines live on their own threads and
    /// cannot be borrowed; use the command API instead.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut AssignmentEngine<I>) -> R) -> R {
        match &mut self.lock().core {
            Core::Single(engine) => f(engine),
            Core::Partitioned(_) => {
                panic!("with_engine is only available on a single-engine handle")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use rdbsc_geo::{AngleRange, Rect};
    use rdbsc_index::GridIndex;
    use rdbsc_model::{Confidence, TimeWindow};

    fn handle() -> EngineHandle {
        EngineHandle::new(AssignmentEngine::new(
            GridIndex::new(Rect::unit(), 0.2),
            EngineConfig::default(),
        ))
    }

    fn task(id: u32, x: f64, y: f64) -> Task {
        Task::new(TaskId(id), Point::new(x, y), TimeWindow::new(0.0, 10.0).unwrap())
    }

    fn worker(id: u32, x: f64, y: f64) -> Worker {
        Worker::new(
            WorkerId(id),
            Point::new(x, y),
            0.5,
            AngleRange::full(),
            Confidence::new(0.9).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn commands_flow_through_to_the_engine() {
        let h = handle();
        h.submit_task(task(0, 0.6, 0.6));
        h.check_in(worker(0, 0.5, 0.5));
        let report = h.tick(0.0);
        assert_eq!(report.new_assignments.len(), 1);
        let pair = report.new_assignments[0];
        assert!(h.is_committed(pair.worker));
        assert_eq!(h.assignments(), vec![pair]);

        assert!(h.record_answer(pair.worker, pair.contribution));
        assert!(!h.is_committed(pair.worker));
        assert!(!h.record_answer(pair.worker, pair.contribution));

        let snap = h.snapshot();
        assert_eq!(snap.ticks, 1);
        assert_eq!(snap.events_applied, 2);
        assert_eq!(snap.total_assignments, 1);
        assert_eq!(snap.banked_answers, 1);
        assert!(snap.objective.min_reliability > 0.0);
        assert!(snap.index_counters.tcell_rebuilds > 0);
    }

    #[test]
    fn handle_drives_the_reference_and_the_serving_index_alike() {
        use rdbsc_index::FlatGridIndex;
        fn drive<I: SpatialIndex>(index: I) -> (TickReport, EngineSnapshot) {
            let h = EngineHandle::new(AssignmentEngine::new(index, EngineConfig::default()));
            h.submit_task(task(0, 0.6, 0.6));
            h.check_in(worker(0, 0.5, 0.5));
            h.check_in(worker(1, 0.1, 0.9));
            h.tick(0.0);
            h.move_worker(WorkerId(1), Point::new(0.7, 0.7));
            let report = h.tick(0.1);
            (report, h.snapshot())
        }
        let (grid_report, mut grid) = drive(GridIndex::new(Rect::unit(), 0.2));
        let (flat_report, mut flat) = drive(FlatGridIndex::new(Rect::unit(), 0.2));
        assert_eq!(grid_report.new_assignments, flat_report.new_assignments);
        assert_eq!(grid.total_assignments, 2);
        // The repair counters are each implementation's own cost, not part
        // of the contract; everything else must agree.
        assert_eq!(
            grid.index_counters.relocations,
            flat.index_counters.relocations
        );
        grid.index_counters = MaintenanceCounters::default();
        flat.index_counters = MaintenanceCounters::default();
        assert_eq!(grid, flat);
    }

    #[test]
    fn idle_engine_skips_ticks() {
        let h = handle();
        assert!(h.tick_if_active(0.0).is_none());
        assert_eq!(h.snapshot().ticks, 0);
        h.submit_task(task(0, 0.5, 0.5));
        assert!(h.tick_if_active(0.1).is_some());
        // Live task keeps the loop active even with no new events.
        assert!(h.tick_if_active(0.2).is_some());
        h.expire_task(TaskId(0));
        assert!(h.tick_if_active(0.3).is_some()); // applies the expiration
        assert!(h.tick_if_active(0.4).is_none()); // now truly idle
    }

    #[test]
    fn concurrent_submissions_are_all_applied() {
        let h = handle();
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..25u32 {
                        h.check_in(worker(t * 25 + i, 0.5, 0.5));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        h.tick(0.0);
        assert_eq!(h.snapshot().live_workers, 100);
    }
}
