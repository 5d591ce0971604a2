//! A thread-safe command facade over the region-partitioned engine.
//!
//! The engine itself is a plain `&mut self` state machine, which is right
//! for the simulation driver but useless to a network server whose request
//! handlers, micro-batch flusher and metrics scrapers all live on different
//! threads. [`EngineHandle`] wraps one [`PartitionedEngine`] behind an
//! `Arc<Mutex<_>>` and exposes a *command API* — submit a task, move a
//! worker, expire a task, run a tick, query the standing assignments or a
//! consistent snapshot — so any number of threads can drive the same live
//! instance.
//!
//! There is one serving core: the plain engine is the one-region topology.
//! A [`PartitionedEngine`] with a single region is byte-identical to an
//! [`AssignmentEngine`] fed the same events (see the determinism contract in
//! [`crate::partition`]), so the handle always drives the router, whether
//! it fronts one in-process region or many regions on threads and daemons.
//!
//! Design notes:
//!
//! * **Short critical sections.** Every command except [`EngineHandle::tick`]
//!   holds the lock for `O(1)`-ish work (event submissions only route onto
//!   the partitions' pending queues). The tick holds it for the round, which
//!   is the intended serialisation point: the engine's determinism contract
//!   (per-`(tick, shard)` seeding) requires ticks to be totally ordered. The
//!   tick broadcast fans the solve out to the partition threads, which run
//!   concurrently while the handle lock is held.
//! * **Lifetime counters live with the partitions.** Each partition counts
//!   its applied events and assignments, so [`EngineHandle::snapshot`]
//!   reports totals without replaying tick reports.
//! * **Cloning is sharing.** `EngineHandle::clone` hands out another handle
//!   to the *same* engine, like `Arc`.

use crate::engine::{AssignmentEngine, EngineEvent, EngineObjective, TickReport};
use crate::partition::{
    PartitionHealth, PartitionTransport, PartitionedEngine, PromotionRecord, StandbyPromoter,
};
use rdbsc_index::{MaintenanceCounters, SpatialIndex};
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Contribution, WorkerId};
use std::sync::{Arc, Mutex, MutexGuard};

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

impl EngineSnapshot {
    /// Captures an engine's serving state alongside the lifetime counters
    /// its partition keeps — the one place the field wiring lives, so every
    /// transport's snapshot is built the same way.
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

/// A clonable, thread-safe handle to a shared [`PartitionedEngine`].
///
/// ```
/// use rdbsc_cluster::RegionPartition;
/// use rdbsc_geo::{AngleRange, Point, Rect};
/// use rdbsc_index::geometry::GridGeometry;
/// use rdbsc_index::GridIndex;
/// use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
/// use rdbsc_platform::engine::{EngineConfig, EngineEvent};
/// use rdbsc_platform::handle::EngineHandle;
/// use rdbsc_platform::PartitionedEngine;
///
/// // One region over the unit square: the plain engine's topology.
/// let region = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.25));
/// let handle = EngineHandle::new(PartitionedEngine::build(
///     region,
///     EngineConfig::default(),
///     |rect| GridIndex::new(rect, 0.25),
/// ));
/// handle.submit(EngineEvent::TaskArrived(Task::new(
///     TaskId(0),
///     Point::new(0.6, 0.6),
///     TimeWindow::new(0.0, 10.0).unwrap(),
/// )));
/// handle.submit(EngineEvent::WorkerCheckIn(
///     Worker::new(
///         WorkerId(0),
///         Point::new(0.5, 0.5),
///         0.5,
///         AngleRange::full(),
///         Confidence::new(0.9).unwrap(),
///     )
///     .unwrap(),
/// ));
/// let (report, _trace) = handle.tick(0.0);
/// assert_eq!(report.new_assignments.len(), 1);
/// assert_eq!(handle.assignments().len(), 1);
/// assert_eq!(handle.snapshot().total_assignments, 1);
/// ```
#[derive(Clone)]
pub struct EngineHandle {
    engine: Arc<Mutex<PartitionedEngine>>,
}

impl EngineHandle {
    /// Wraps a partitioned engine (typically freshly built) in a shared
    /// handle: events are routed by location, ticks run lockstep across
    /// every partition, and queries return merged views.
    pub fn new(engine: PartitionedEngine) -> Self {
        Self {
            engine: Arc::new(Mutex::new(engine)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PartitionedEngine> {
        // A partition that panics is marked unhealthy by the router; a
        // poisoned lock means the router itself panicked mid-command, so its
        // routing state may be half-updated and serving must stop rather
        // than hand out corrupt assignments.
        self.engine.lock().expect("engine lock poisoned")
    }

    /// Queues a raw engine event for the next tick.
    pub fn submit(&self, event: EngineEvent) {
        self.lock().submit(event);
    }

    /// Queues many events (in order) for the next tick.
    pub fn submit_all<E: IntoIterator<Item = EngineEvent>>(&self, events: E) {
        self.lock().submit_all(events);
    }

    /// Command: an en-route worker delivered its answer. Returns `false`
    /// (and banks nothing) when the worker was not committed.
    pub fn record_answer(&self, worker: WorkerId, contribution: Contribution) -> bool {
        self.lock().record_answer(worker, contribution)
    }

    /// Command: an en-route worker gave up; it becomes available again.
    pub fn release_worker(&self, worker: WorkerId) {
        self.lock().release_worker(worker);
    }

    /// Runs one lockstep round at time `now` (see
    /// [`PartitionedEngine::tick`]) and returns its report with the trace id
    /// it ran under, both read under one lock acquisition — so the trace is
    /// this round's even when another thread ticks right after.
    ///
    /// Ticks are serialised: concurrent callers run one after another, which
    /// is what the engine's per-`(tick, shard)` seeding needs.
    pub fn tick(&self, now: f64) -> (TickReport, u64) {
        let mut engine = self.lock();
        let report = engine.tick(now);
        (report, engine.last_trace())
    }

    /// Like [`EngineHandle::tick`], but skips (returning `None`) when no
    /// partition has anything to do — no pending events and no live tasks.
    /// This keeps an idle serving loop from burning ticks (and advancing the
    /// deterministic tick counter) while the platform is quiet. One active
    /// partition ticks all of them (ticks are lockstep).
    pub fn tick_if_active(&self, now: f64) -> Option<(TickReport, u64)> {
        let mut engine = self.lock();
        if !engine.is_active() {
            return None;
        }
        let report = engine.tick(now);
        Some((report, engine.last_trace()))
    }

    /// Query: the trace id of the most recent tick (`0` before the first).
    /// [`rdbsc_obs::collect_spans`] on it returns that round's span tree,
    /// including every in-process partition's spans.
    pub fn last_trace(&self) -> u64 {
        self.lock().last_trace()
    }

    /// Query: the standing committed pairs, sorted by
    /// `(partition, task, worker)`.
    pub fn assignments(&self) -> Vec<ValidPair> {
        self.lock().committed_assignments()
    }

    /// Query: a consistent snapshot of the merged platform-wide serving
    /// state.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.lock().snapshot()
    }

    /// Query: the number of partitions behind this handle.
    pub fn num_partitions(&self) -> usize {
        self.lock().num_partitions()
    }

    /// Query: one snapshot per surviving partition, in partition order.
    pub fn partition_snapshots(&self) -> Vec<EngineSnapshot> {
        self.lock().partition_snapshots()
    }

    /// Query: cross-partition worker handoffs performed so far.
    pub fn handoffs(&self) -> u64 {
        self.lock().handoffs()
    }

    /// Query: each partition's transport identity (backend kind, endpoint)
    /// plus its protocol counters.
    pub fn partition_transports(&self) -> Vec<PartitionTransport> {
        self.lock().transport_stats()
    }

    /// Query: the partitions the router has marked lost (empty on a fully
    /// healthy topology) — see the failure model in [`crate::partition`].
    pub fn unhealthy_partitions(&self) -> Vec<PartitionHealth> {
        self.lock().unhealthy_partitions()
    }

    /// Query: events routed to a lost partition and dropped.
    pub fn events_dropped(&self) -> u64 {
        self.lock().events_dropped()
    }

    /// Arms a standby promoter on a slot: the first transport failure there
    /// fails over to the standby instead of degrading — see the failure
    /// model in [`crate::partition`]. Panics on an out-of-range slot.
    pub fn set_standby_promoter(&self, slot: usize, promoter: Box<dyn StandbyPromoter>) {
        self.lock().set_standby_promoter(slot, promoter);
    }

    /// Query: completed standby promotions, in the order they happened —
    /// what `/metrics` renders under `partitions_promoted`.
    pub fn promotions(&self) -> Vec<PromotionRecord> {
        self.lock().promotions().to_vec()
    }

    /// Query: slots with a standby currently armed.
    pub fn standbys_armed(&self) -> usize {
        self.lock().standbys_armed()
    }

    /// Gracefully shuts the topology down: ships buffered routed events,
    /// runs one final drain tick (so nothing queued is dropped and deferred
    /// handoffs resolve), then drains and stops every partition — including
    /// remote daemons, which exit on their shutdown command. Returns the
    /// final merged snapshot. Commands issued after this panic; it is the
    /// last call on a serving topology.
    pub fn shutdown_partitions(&self) -> EngineSnapshot {
        self.lock().shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use rdbsc_cluster::RegionPartition;
    use rdbsc_geo::{AngleRange, Point, Rect};
    use rdbsc_index::geometry::GridGeometry;
    use rdbsc_index::{FlatGridIndex, GridIndex};
    use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker};

    /// A one-region handle whose region indexes with `make_index`.
    fn one_region<I: SpatialIndex + 'static>(make_index: fn(Rect) -> I) -> EngineHandle {
        let region = RegionPartition::single(GridGeometry::new(Rect::unit(), 0.2));
        EngineHandle::new(PartitionedEngine::build(
            region,
            EngineConfig::default(),
            make_index,
        ))
    }

    fn handle() -> EngineHandle {
        one_region(|rect| GridIndex::new(rect, 0.2))
    }

    fn task(id: u32, x: f64, y: f64) -> Task {
        Task::new(
            TaskId(id),
            Point::new(x, y),
            TimeWindow::new(0.0, 10.0).unwrap(),
        )
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
        h.submit(EngineEvent::TaskArrived(task(0, 0.6, 0.6)));
        h.submit(EngineEvent::WorkerCheckIn(worker(0, 0.5, 0.5)));
        let (report, _) = h.tick(0.0);
        assert_eq!(report.new_assignments.len(), 1);
        let pair = report.new_assignments[0];
        assert_eq!(h.assignments(), vec![pair]);

        assert!(h.record_answer(pair.worker, pair.contribution));
        assert!(h.assignments().is_empty(), "the answer releases the worker");
        assert!(!h.record_answer(pair.worker, pair.contribution));

        let snap = h.snapshot();
        assert_eq!(snap.ticks, 1);
        assert_eq!(snap.events_applied, 2);
        assert_eq!(snap.total_assignments, 1);
        assert_eq!(snap.banked_answers, 1);
        assert!(snap.objective.min_reliability > 0.0);
        assert!(snap.index_counters.tcell_rebuilds > 0);
        assert_eq!(h.num_partitions(), 1);
        assert_eq!(h.handoffs(), 0);
    }

    #[test]
    fn handle_drives_the_reference_and_the_serving_index_alike() {
        fn drive(h: EngineHandle) -> (TickReport, EngineSnapshot) {
            h.submit(EngineEvent::TaskArrived(task(0, 0.6, 0.6)));
            h.submit(EngineEvent::WorkerCheckIn(worker(0, 0.5, 0.5)));
            h.submit(EngineEvent::WorkerCheckIn(worker(1, 0.1, 0.9)));
            h.tick(0.0);
            h.submit(EngineEvent::WorkerMoved(WorkerId(1), Point::new(0.7, 0.7)));
            let (report, _) = h.tick(0.1);
            (report, h.snapshot())
        }
        let (grid_report, mut grid) = drive(handle());
        let (flat_report, mut flat) = drive(one_region(|rect| FlatGridIndex::new(rect, 0.2)));
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
        h.submit(EngineEvent::TaskArrived(task(0, 0.5, 0.5)));
        assert!(h.tick_if_active(0.1).is_some());
        // Live task keeps the loop active even with no new events.
        assert!(h.tick_if_active(0.2).is_some());
        h.submit(EngineEvent::TaskExpired(TaskId(0)));
        assert!(h.tick_if_active(0.3).is_some()); // applies the expiration
        assert!(h.tick_if_active(0.4).is_none()); // now truly idle
    }

    #[test]
    fn every_tick_returns_its_own_trace() {
        let h = handle();
        h.submit(EngineEvent::TaskArrived(task(0, 0.6, 0.6)));
        let mut seen = Vec::new();
        for round in 0..4 {
            h.submit(EngineEvent::WorkerCheckIn(worker(round, 0.5, 0.5)));
            let (_, trace) = if round % 2 == 0 {
                h.tick(f64::from(round))
            } else {
                h.tick_if_active(f64::from(round))
                    .expect("a live task keeps it active")
            };
            assert_ne!(trace, 0);
            assert!(!seen.contains(&trace), "round {round} reused a trace");
            assert_eq!(h.last_trace(), trace);
            seen.push(trace);

            let spans = rdbsc_obs::collect_spans(trace);
            let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
            let root = spans.iter().find(|s| s.name == "router.tick");
            assert_eq!(root.map(|s| s.parent), Some(0), "{names:?}");
            assert!(names.contains(&"partition.tick"), "{names:?}");
        }
    }

    #[test]
    fn concurrent_submissions_are_all_applied() {
        let h = handle();
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..25u32 {
                        h.submit(EngineEvent::WorkerCheckIn(worker(t * 25 + i, 0.5, 0.5)));
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
