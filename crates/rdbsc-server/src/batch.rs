//! The micro-batching front between request threads and the engine.
//!
//! Request handlers never touch the engine lock on the hot path: task
//! arrivals, worker check-ins, heartbeats and expirations go into a shared
//! buffer, and a dedicated flusher thread coalesces them into engine ticks.
//! A flush happens when the first of these holds:
//!
//! * a **task arrival or worker check-in** is buffered — new demand or
//!   supply, which would otherwise spend the coalescing window out of a
//!   time-constrained task's valid period (an *early* flush);
//! * the buffer reaches **max batch** events (back-pressure on bursts);
//! * the configured **flush interval** elapses since the last tick (the
//!   coalescing window every heartbeat, expiration and leave waits out).
//!
//! **The rest rule** bounds the extra ticks: after an early flush, the next
//! early flush waits until as much time as that flush took has passed since
//! it ended, so however fast tasks are posted, early flushes hold the
//! engine at most about half the wall time. Size and interval flushes never
//! wait for it.
//!
//! With a zero interval the flusher is not started at all — *manual tick
//! mode* — and ticks only happen through [`MicroBatcher::flush_and_tick`]
//! (the `POST /tick` route), which is what deterministic end-to-end
//! verification uses.

use crate::metrics::ServerMetrics;
use rdbsc_platform::{EngineEvent, EngineHandle, TickReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Maps wall-clock time onto the engine's simulation time axis.
#[derive(Debug, Clone)]
pub struct Clock {
    start: Instant,
    scale: f64,
}

impl Clock {
    /// A clock starting now, advancing `scale` simulation time units per
    /// wall-clock second.
    pub fn new(scale: f64) -> Self {
        Self {
            start: Instant::now(),
            scale,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * self.scale
    }
}

/// The buffered events and whether one of them wakes the flusher.
#[derive(Default)]
struct Pending {
    events: Vec<EngineEvent>,
    /// A task arrival or worker check-in is among `events`.
    arrival: bool,
}

/// Why the flusher stopped waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// A task arrival or worker check-in was buffered: an early flush.
    Arrival,
    /// `max_batch` events are buffered.
    Full,
    /// The flush interval elapsed.
    Interval,
    /// Shutdown was requested.
    Stop,
}

/// The rest rule: how long a flush woken by an arrival at `now` must still
/// wait, given the last early flush — when it ended and how long it took.
/// The first early flush (`None`) waits for nothing; each later one waits
/// until the last one's duration has passed since it ended. Size and
/// interval flushes never consult it.
fn early_rest(last_early: Option<(Instant, Duration)>, now: Instant) -> Duration {
    last_early.map_or(Duration::ZERO, |(ended, took)| {
        (ended + took).saturating_duration_since(now)
    })
}

/// The shared event buffer plus its flush policy.
pub struct MicroBatcher {
    buffer: Mutex<Pending>,
    wake: Condvar,
    max_batch: usize,
    max_buffered: usize,
}

impl MicroBatcher {
    /// A batcher flushing early once `max_batch` events are buffered and
    /// rejecting pushes beyond `max_buffered` — connection-level admission
    /// control alone cannot stop a few keep-alive clients from pipelining
    /// events faster than the engine drains them (and in manual-tick mode
    /// nothing drains the buffer at all until `POST /tick`).
    pub fn new(max_batch: usize, max_buffered: usize) -> Self {
        let max_batch = max_batch.max(1);
        Self {
            buffer: Mutex::new(Pending::default()),
            wake: Condvar::new(),
            max_batch,
            max_buffered: max_buffered.max(max_batch),
        }
    }

    /// Buffers one event; returns the buffer length after the push, or the
    /// event itself when the buffer is saturated (the caller sheds with 429).
    /// A task arrival or worker check-in wakes the flusher.
    pub fn push(&self, event: EngineEvent) -> Result<usize, EngineEvent> {
        let mut pending = self.buffer.lock().expect("batch buffer lock");
        if pending.events.len() >= self.max_buffered {
            return Err(event);
        }
        let arrival = matches!(
            event,
            EngineEvent::TaskArrived(_) | EngineEvent::WorkerCheckIn(_)
        );
        pending.events.push(event);
        let len = pending.events.len();
        if (arrival && !pending.arrival) || len >= self.max_batch {
            self.wake.notify_all();
        }
        pending.arrival |= arrival;
        Ok(len)
    }

    /// Takes everything buffered so far (preserving submission order).
    pub fn drain(&self) -> Vec<EngineEvent> {
        let mut pending = self.buffer.lock().expect("batch buffer lock");
        pending.arrival = false;
        std::mem::take(&mut pending.events)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buffer.lock().expect("batch buffer lock").events.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the buffer into the engine and runs one tick at `now`,
    /// regardless of the flush policy (the manual-tick path). Returns the
    /// round's report with its trace id (see [`EngineHandle::tick`]).
    pub fn flush_and_tick(&self, handle: &EngineHandle, now: f64) -> (TickReport, u64) {
        let events = self.drain();
        if !events.is_empty() {
            handle.submit_all(events);
        }
        handle.tick(now)
    }

    /// Wakes the flusher thread (used on shutdown for the final drain).
    pub fn notify(&self) {
        self.wake.notify_all();
    }

    /// Blocks until `stop` is raised, the buffer reaches `max_batch`,
    /// `deadline` passes, or an arrival is buffered and the rest rule lets
    /// an early flush run — and says which, in that order of precedence.
    fn wait_for_flush(
        &self,
        deadline: Instant,
        last_early: Option<(Instant, Duration)>,
        stop: &AtomicBool,
    ) -> Trigger {
        let mut pending = self.buffer.lock().expect("batch buffer lock");
        loop {
            if stop.load(Ordering::Acquire) {
                return Trigger::Stop;
            }
            if pending.events.len() >= self.max_batch {
                return Trigger::Full;
            }
            let now = Instant::now();
            let mut wait = deadline.saturating_duration_since(now);
            if wait.is_zero() {
                return Trigger::Interval;
            }
            if pending.arrival {
                let rest = early_rest(last_early, now);
                if rest.is_zero() {
                    return Trigger::Arrival;
                }
                wait = wait.min(rest);
            }
            let (guard, _timeout) = self
                .wake
                .wait_timeout(pending, wait)
                .expect("batch buffer lock");
            pending = guard;
        }
    }
}

/// The flusher loop: coalesces buffered events into engine ticks, flushing
/// on an arrival, a full batch or the `interval` (see the module docs),
/// until `stop` is raised, then does one final drain-and-tick so no accepted
/// event is lost on shutdown.
pub fn run_flusher(
    batcher: Arc<MicroBatcher>,
    handle: EngineHandle,
    clock: Clock,
    interval: Duration,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
) {
    let mut last_early = None;
    loop {
        let deadline = Instant::now() + interval;
        let trigger = batcher.wait_for_flush(deadline, last_early, &stop);
        let stopping = stop.load(Ordering::Acquire);

        let flush_started = Instant::now();
        let events = batcher.drain();
        if !events.is_empty() {
            handle.submit_all(events);
        }
        let tick_started = Instant::now();
        if let Some((report, trace)) = handle.tick_if_active(clock.now()) {
            metrics.batch_flushes.incr();
            if trigger == Trigger::Arrival {
                metrics.batch_flushes_early.incr();
            }
            let elapsed = tick_started.elapsed();
            metrics.tick_latency.record(elapsed);
            metrics.observe_tick(
                trace,
                report.now,
                elapsed.as_micros().min(u64::MAX as u128) as u64,
                &report.stages,
            );
        }
        if trigger == Trigger::Arrival {
            let ended = Instant::now();
            last_early = Some((ended, ended - flush_started));
        }

        if stopping {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_cluster::RegionPartition;
    use rdbsc_geo::{AngleRange, Point, Rect};
    use rdbsc_index::geometry::GridGeometry;
    use rdbsc_index::GridIndex;
    use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};
    use rdbsc_platform::{EngineConfig, PartitionedEngine};

    fn handle() -> EngineHandle {
        EngineHandle::new(PartitionedEngine::build(
            RegionPartition::single(GridGeometry::new(Rect::unit(), 0.2)),
            EngineConfig::default(),
            |rect| GridIndex::new(rect, 0.2),
        ))
    }

    fn arrival(id: u32) -> EngineEvent {
        EngineEvent::TaskArrived(Task::new(
            TaskId(id),
            Point::new(0.5, 0.5),
            TimeWindow::new(0.0, 10.0).unwrap(),
        ))
    }

    fn check_in(id: u32) -> EngineEvent {
        EngineEvent::WorkerCheckIn(
            Worker::new(
                WorkerId(id),
                Point::new(0.45, 0.45),
                0.5,
                AngleRange::full(),
                Confidence::new(0.9).unwrap(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn manual_flush_applies_buffered_events_in_order() {
        let batcher = MicroBatcher::new(1024, 65_536);
        let h = handle();
        batcher.push(arrival(0)).unwrap();
        batcher.push(check_in(0)).unwrap();
        assert_eq!(batcher.len(), 2);
        let (report, _) = batcher.flush_and_tick(&h, 0.0);
        assert!(batcher.is_empty());
        assert_eq!(report.events_applied, 2);
        assert_eq!(report.new_assignments.len(), 1);
    }

    fn heartbeat(id: u32) -> EngineEvent {
        EngineEvent::WorkerMoved(WorkerId(id), Point::new(0.5, 0.5))
    }

    /// A flusher thread with its stop flag and metrics.
    struct Flusher {
        stop: Arc<AtomicBool>,
        metrics: Arc<ServerMetrics>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Flusher {
        fn spawn(batcher: &Arc<MicroBatcher>, h: &EngineHandle, interval: Duration) -> Self {
            let stop = Arc::new(AtomicBool::new(false));
            let metrics = Arc::new(ServerMetrics::default());
            let (b, h, s, m) = (batcher.clone(), h.clone(), stop.clone(), metrics.clone());
            let thread =
                std::thread::spawn(move || run_flusher(b, h, Clock::new(1.0), interval, s, m));
            Self {
                stop,
                metrics,
                thread,
            }
        }

        fn stop(self, batcher: &MicroBatcher) {
            self.stop.store(true, Ordering::Release);
            batcher.notify();
            self.thread.join().unwrap();
        }
    }

    /// Polls `done` for up to 5 s.
    fn wait_until(done: impl Fn() -> bool) {
        let started = Instant::now();
        while !done() && started.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn flusher_coalesces_and_drains_on_shutdown() {
        let batcher = Arc::new(MicroBatcher::new(1024, 65_536));
        let h = handle();
        let flusher = Flusher::spawn(&batcher, &h, Duration::from_millis(5));
        batcher.push(arrival(0)).unwrap();
        batcher.push(check_in(0)).unwrap();
        // The flusher picks the events up without an explicit tick.
        wait_until(|| h.snapshot().total_assignments > 0);
        assert_eq!(h.snapshot().total_assignments, 1);

        // Events pushed right before shutdown still land (final drain).
        batcher.push(arrival(1)).unwrap();
        let metrics = flusher.metrics.clone();
        flusher.stop(&batcher);
        assert!(batcher.is_empty());
        assert_eq!(h.snapshot().live_tasks, 2);
        assert!(metrics.batch_flushes.get() >= 1);
    }

    #[test]
    fn saturated_buffer_rejects_events() {
        let batcher = MicroBatcher::new(2, 2);
        assert!(batcher.push(arrival(0)).is_ok());
        assert!(batcher.push(arrival(1)).is_ok());
        let rejected = batcher.push(arrival(2));
        assert!(rejected.is_err(), "third event must be shed");
        assert_eq!(batcher.len(), 2);
        // Draining frees the space again.
        let h = handle();
        batcher.flush_and_tick(&h, 0.0);
        assert!(batcher.push(arrival(2)).is_ok());
    }

    #[test]
    fn full_batch_triggers_an_early_flush() {
        // Heartbeats do not wake the flusher and the interval is an hour:
        // only the size trigger can flush.
        let batcher = Arc::new(MicroBatcher::new(4, 65_536));
        let h = handle();
        let flusher = Flusher::spawn(&batcher, &h, HOUR);
        for i in 0..4 {
            batcher.push(heartbeat(i)).unwrap();
        }
        wait_until(|| flusher.metrics.batch_flushes.get() > 0);
        assert_eq!(
            flusher.metrics.batch_flushes.get(),
            1,
            "size threshold must flush"
        );
        assert!(batcher.is_empty());
        assert_eq!(flusher.metrics.batch_flushes_early.get(), 0);
        flusher.stop(&batcher);
    }

    #[test]
    fn a_check_in_and_a_task_are_assigned_without_waiting_out_the_interval() {
        let batcher = Arc::new(MicroBatcher::new(1024, 65_536));
        let h = handle();
        let flusher = Flusher::spawn(&batcher, &h, HOUR);
        batcher.push(check_in(0)).unwrap();
        batcher.push(arrival(0)).unwrap();
        wait_until(|| h.snapshot().total_assignments > 0);
        assert_eq!(
            h.snapshot().total_assignments,
            1,
            "arrivals must wake the flusher"
        );
        assert!(flusher.metrics.batch_flushes_early.get() >= 1);
        assert_eq!(
            flusher.metrics.batch_flushes_early.get(),
            flusher.metrics.batch_flushes.get(),
            "under an hour-long interval every flush is an early one"
        );
        flusher.stop(&batcher);
    }

    #[test]
    fn heartbeats_below_max_batch_stay_buffered() {
        let batcher = Arc::new(MicroBatcher::new(4, 65_536));
        let h = handle();
        let flusher = Flusher::spawn(&batcher, &h, HOUR);
        for i in 0..3 {
            batcher.push(heartbeat(i)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(batcher.len(), 3, "position updates must keep coalescing");
        assert_eq!(flusher.metrics.batch_flushes.get(), 0);
        flusher.stop(&batcher);
    }

    #[test]
    fn the_rest_rule_spaces_early_flushes_by_their_own_duration() {
        let ended = Instant::now();
        let took = Duration::from_millis(3);
        let last = Some((ended, took));
        assert_eq!(
            early_rest(None, ended),
            Duration::ZERO,
            "the first is immediate"
        );
        assert_eq!(early_rest(last, ended), took);
        let later = |ms| ended + Duration::from_millis(ms);
        assert_eq!(early_rest(last, later(1)), Duration::from_millis(2));
        assert_eq!(early_rest(last, later(3)), Duration::ZERO);
        assert_eq!(early_rest(last, ended + HOUR), Duration::ZERO);
    }

    #[test]
    fn size_and_interval_flushes_ignore_the_rest_rule() {
        let batcher = MicroBatcher::new(2, 65_536);
        let stop = AtomicBool::new(false);
        let resting = Some((Instant::now(), HOUR));
        // A broken trigger falls through to this deadline and fails.
        let in_5s = || Instant::now() + Duration::from_secs(5);
        batcher.push(arrival(0)).unwrap();
        assert_eq!(
            batcher.wait_for_flush(in_5s(), None, &stop),
            Trigger::Arrival
        );
        assert_eq!(
            batcher.wait_for_flush(Instant::now() + Duration::from_millis(10), resting, &stop),
            Trigger::Interval,
            "a resting arrival waits for the interval, which is not delayed"
        );
        batcher.push(arrival(1)).unwrap();
        assert_eq!(
            batcher.wait_for_flush(in_5s(), resting, &stop),
            Trigger::Full
        );
    }
}
