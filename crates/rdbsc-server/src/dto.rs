//! Wire DTOs for the serving API and their JSON codec.
//!
//! Every DTO is a plain struct with `to_json` / `from_json` conversions and
//! a (validating) conversion into the corresponding `rdbsc-model` type. The
//! JSON layer carries raw numbers; model-level invariants (confidence in
//! `[0, 1]`, finite windows, non-negative speed …) are enforced when the DTO
//! is turned into a model object, so a bad request is rejected with a `400`
//! instead of panicking deep inside the engine.

use crate::error::ServerError;
use crate::json::Json;
use crate::metrics::Scrape;
use rdbsc_geo::{AngleRange, Point};
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Confidence, Contribution, Task, TaskId, TimeWindow, Worker, WorkerId};
use rdbsc_platform::handle::EngineSnapshot;
use rdbsc_platform::TickReport;

pub(crate) fn num(value: &Json, field: &'static str) -> Result<f64, ServerError> {
    value
        .get(field)
        .ok_or(ServerError::MissingField(field))?
        .as_num()
        .ok_or(ServerError::BadField {
            field,
            expected: "a number",
        })
}

pub(crate) fn opt_num(value: &Json, field: &'static str) -> Result<Option<f64>, ServerError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_num().map(Some).ok_or(ServerError::BadField {
            field,
            expected: "a number or null",
        }),
    }
}

pub(crate) fn bool_field(value: &Json, field: &'static str) -> Result<bool, ServerError> {
    match value.get(field).ok_or(ServerError::MissingField(field))? {
        Json::Bool(b) => Ok(*b),
        _ => Err(ServerError::BadField {
            field,
            expected: "a boolean",
        }),
    }
}

pub(crate) fn string(value: &Json, field: &'static str) -> Result<String, ServerError> {
    value
        .get(field)
        .ok_or(ServerError::MissingField(field))?
        .as_str()
        .map(str::to_string)
        .ok_or(ServerError::BadField {
            field,
            expected: "a string",
        })
}

pub(crate) fn id(value: &Json, field: &'static str) -> Result<u32, ServerError> {
    let n = num(value, field)?;
    if n.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&n) {
        return Err(ServerError::BadField {
            field,
            expected: "a non-negative integer id",
        });
    }
    Ok(n as u32)
}

/// A task as posted by a requester.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDto {
    /// Task id (requester-assigned, unique per live task).
    pub id: u32,
    /// Task location x.
    pub x: f64,
    /// Task location y.
    pub y: f64,
    /// Valid-period start.
    pub start: f64,
    /// Valid-period end (expiration).
    pub end: f64,
    /// Optional per-task diversity balance weight `β`.
    pub beta: Option<f64>,
}

impl TaskDto {
    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id", Json::Num(self.id as f64)),
            ("x", Json::Num(self.x)),
            ("y", Json::Num(self.y)),
            ("start", Json::Num(self.start)),
            ("end", Json::Num(self.end)),
        ];
        if let Some(beta) = self.beta {
            pairs.push(("beta", Json::Num(beta)));
        }
        Json::obj(pairs)
    }

    /// Decodes the DTO, checking field presence and types (not model rules).
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            id: id(value, "id")?,
            x: num(value, "x")?,
            y: num(value, "y")?,
            start: num(value, "start")?,
            end: num(value, "end")?,
            beta: opt_num(value, "beta")?,
        })
    }

    /// Converts into a validated model [`Task`].
    pub fn into_task(self) -> Result<Task, ServerError> {
        let window = TimeWindow::new(self.start, self.end)?;
        let location = Point::new(self.x, self.y);
        Ok(match self.beta {
            Some(beta) => Task::with_beta(TaskId(self.id), location, window, beta)?,
            None => Task::new(TaskId(self.id), location, window),
        })
    }

    /// Builds the DTO for an existing model task.
    pub fn from_task(task: &Task) -> Self {
        Self {
            id: task.id.0,
            x: task.location.x,
            y: task.location.y,
            start: task.window.start,
            end: task.window.end,
            beta: task.beta,
        }
    }
}

/// A worker check-in.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerDto {
    /// Worker id.
    pub id: u32,
    /// Current location x.
    pub x: f64,
    /// Current location y.
    pub y: f64,
    /// Scalar speed.
    pub speed: f64,
    /// Moving-direction cone as `(start, width)` radians; `None` means the
    /// full circle (a worker free to move anywhere).
    pub heading: Option<(f64, f64)>,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// Check-in time (defaults to 0 on the wire).
    pub available_from: f64,
}

impl WorkerDto {
    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id", Json::Num(self.id as f64)),
            ("x", Json::Num(self.x)),
            ("y", Json::Num(self.y)),
            ("speed", Json::Num(self.speed)),
            ("confidence", Json::Num(self.confidence)),
            ("available_from", Json::Num(self.available_from)),
        ];
        if let Some((start, width)) = self.heading {
            pairs.push(("heading_start", Json::Num(start)));
            pairs.push(("heading_width", Json::Num(width)));
        }
        Json::obj(pairs)
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        let heading_start = opt_num(value, "heading_start")?;
        let heading_width = opt_num(value, "heading_width")?;
        let heading = match (heading_start, heading_width) {
            (Some(s), Some(w)) => Some((s, w)),
            (None, None) => None,
            _ => {
                return Err(ServerError::BadField {
                    field: "heading_start/heading_width",
                    expected: "both present or both absent",
                })
            }
        };
        Ok(Self {
            id: id(value, "id")?,
            x: num(value, "x")?,
            y: num(value, "y")?,
            speed: num(value, "speed")?,
            heading,
            confidence: num(value, "confidence")?,
            available_from: opt_num(value, "available_from")?.unwrap_or(0.0),
        })
    }

    /// Converts into a validated model [`Worker`].
    pub fn into_worker(self) -> Result<Worker, ServerError> {
        let heading = match self.heading {
            Some((start, width)) => AngleRange::new(start, width),
            None => AngleRange::full(),
        };
        let confidence = Confidence::new(self.confidence)?;
        let worker = Worker::new(
            WorkerId(self.id),
            Point::new(self.x, self.y),
            self.speed,
            heading,
            confidence,
        )?;
        Ok(worker.with_available_from(self.available_from))
    }

    /// Builds the DTO for an existing model worker.
    pub fn from_worker(worker: &Worker) -> Self {
        Self {
            id: worker.id.0,
            x: worker.location.x,
            y: worker.location.y,
            speed: worker.speed,
            heading: if worker.heading.is_full() {
                None
            } else {
                Some((worker.heading.start(), worker.heading.width()))
            },
            confidence: worker.confidence.value(),
            available_from: worker.available_from,
        }
    }
}

/// A worker position heartbeat.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatDto {
    /// Worker id.
    pub id: u32,
    /// New location x.
    pub x: f64,
    /// New location y.
    pub y: f64,
}

impl HeartbeatDto {
    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("x", Json::Num(self.x)),
            ("y", Json::Num(self.y)),
        ])
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            id: id(value, "id")?,
            x: num(value, "x")?,
            y: num(value, "y")?,
        })
    }
}

/// A request naming a single id (task expiration, worker check-out).
#[derive(Debug, Clone, PartialEq)]
pub struct IdDto {
    /// The referenced id.
    pub id: u32,
}

impl IdDto {
    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        Json::obj([("id", Json::Num(self.id as f64))])
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            id: id(value, "id")?,
        })
    }
}

/// An en-route worker's delivered answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerDto {
    /// The answering worker.
    pub worker: u32,
    /// The worker's confidence at answer time.
    pub confidence: f64,
    /// Approach angle (radians).
    pub angle: f64,
    /// Arrival time at the task location.
    pub arrival: f64,
}

impl AnswerDto {
    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("worker", Json::Num(self.worker as f64)),
            ("confidence", Json::Num(self.confidence)),
            ("angle", Json::Num(self.angle)),
            ("arrival", Json::Num(self.arrival)),
        ])
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            worker: id(value, "worker")?,
            confidence: num(value, "confidence")?,
            angle: num(value, "angle")?,
            arrival: num(value, "arrival")?,
        })
    }

    /// Converts into the engine's `record_answer` arguments. The angle is
    /// normalised into `[0, 2π)` by [`Contribution::new`].
    pub fn into_answer(self) -> Result<(WorkerId, Contribution), ServerError> {
        if !self.angle.is_finite() || !self.arrival.is_finite() {
            return Err(ServerError::BadField {
                field: "angle/arrival",
                expected: "finite numbers",
            });
        }
        let confidence = Confidence::new(self.confidence)?;
        Ok((
            WorkerId(self.worker),
            Contribution::new(confidence, self.angle, self.arrival),
        ))
    }
}

/// One standing assignment, as listed by `GET /assignments`.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentDto {
    /// The served task.
    pub task: u32,
    /// The en-route worker.
    pub worker: u32,
    /// The worker's confidence.
    pub confidence: f64,
    /// Approach angle (radians, `[0, 2π)`).
    pub angle: f64,
    /// Effective arrival time.
    pub arrival: f64,
}

impl AssignmentDto {
    /// Builds the DTO from an engine pair.
    pub fn from_pair(pair: &ValidPair) -> Self {
        Self {
            task: pair.task.0,
            worker: pair.worker.0,
            confidence: pair.contribution.p(),
            angle: pair.contribution.angle,
            arrival: pair.contribution.arrival,
        }
    }

    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("task", Json::Num(self.task as f64)),
            ("worker", Json::Num(self.worker as f64)),
            ("confidence", Json::Num(self.confidence)),
            ("angle", Json::Num(self.angle)),
            ("arrival", Json::Num(self.arrival)),
        ])
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            task: id(value, "task")?,
            worker: id(value, "worker")?,
            confidence: num(value, "confidence")?,
            angle: num(value, "angle")?,
            arrival: num(value, "arrival")?,
        })
    }
}

/// The serving-state snapshot returned by `GET /snapshot`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDto {
    /// Time of the most recent tick.
    pub now: f64,
    /// Ticks run so far.
    pub ticks: f64,
    /// Events applied by ticks so far.
    pub events_applied: f64,
    /// Events submitted but not yet applied.
    pub pending_events: f64,
    /// Live tasks.
    pub live_tasks: f64,
    /// Live workers.
    pub live_workers: f64,
    /// Workers en route.
    pub committed_workers: f64,
    /// Answers banked so far.
    pub banked_answers: f64,
    /// Assignments committed across the engine's lifetime.
    pub total_assignments: f64,
    /// Minimum reliability over covered tasks.
    pub min_reliability: f64,
    /// Total expected spatial/temporal diversity.
    pub total_std: f64,
    /// Tasks with at least one contribution.
    pub covered_tasks: f64,
    /// Cross-cell relocations applied by the index so far.
    pub index_relocations: f64,
    /// Index cells whose cached reachability state was repaired so far.
    pub index_cells_repaired: f64,
    /// Full reachability-list rebuilds performed by the index so far.
    pub index_tcell_rebuilds: f64,
    /// Write-ahead-log counters when the engine runs durably (absent on
    /// non-durable engines).
    pub wal: Option<WalStatsDto>,
}

/// The durable-log counters nested in a [`SnapshotDto`] (and on a durable
/// daemon's `/metrics`).
#[derive(Debug, Clone, PartialEq)]
pub struct WalStatsDto {
    /// Live log segments on disk.
    pub segments: f64,
    /// Segments retired by checkpoints across the log's lifetime.
    pub segments_retired: f64,
    /// Bytes appended across the log's lifetime.
    pub bytes_appended: f64,
    /// Records appended across the log's lifetime.
    pub records_appended: f64,
    /// fsync calls issued.
    pub fsyncs: f64,
    /// Checkpoints written.
    pub checkpoints: f64,
    /// Engine tick of the most recent checkpoint.
    pub last_checkpoint_tick: f64,
    /// Commands replayed by the boot-time recovery (after its checkpoint).
    pub recovered_records: f64,
    /// Did the boot-time recovery restart from a checkpoint?
    pub recovered_checkpoint: bool,
}

impl WalStatsDto {
    /// Builds the DTO from the platform's log counters.
    pub fn from_stats(s: &rdbsc_platform::WalStats) -> Self {
        Self {
            segments: s.segments as f64,
            segments_retired: s.segments_retired as f64,
            bytes_appended: s.bytes_appended as f64,
            records_appended: s.records_appended as f64,
            fsyncs: s.fsyncs as f64,
            checkpoints: s.checkpoints as f64,
            last_checkpoint_tick: s.last_checkpoint_tick as f64,
            recovered_records: s.recovered_records as f64,
            recovered_checkpoint: s.recovered_checkpoint,
        }
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            segments: num(value, "segments")?,
            segments_retired: num(value, "segments_retired")?,
            bytes_appended: num(value, "bytes_appended")?,
            records_appended: num(value, "records_appended")?,
            fsyncs: num(value, "fsyncs")?,
            checkpoints: num(value, "checkpoints")?,
            last_checkpoint_tick: num(value, "last_checkpoint_tick")?,
            recovered_records: num(value, "recovered_records")?,
            recovered_checkpoint: bool_field(value, "recovered_checkpoint")?,
        })
    }
}

impl SnapshotDto {
    /// Builds the DTO from an engine snapshot.
    pub fn from_snapshot(s: &EngineSnapshot) -> Self {
        Self {
            now: s.now,
            ticks: s.ticks as f64,
            events_applied: s.events_applied as f64,
            pending_events: s.pending_events as f64,
            live_tasks: s.live_tasks as f64,
            live_workers: s.live_workers as f64,
            committed_workers: s.committed_workers as f64,
            banked_answers: s.banked_answers as f64,
            total_assignments: s.total_assignments as f64,
            min_reliability: s.objective.min_reliability,
            total_std: s.objective.total_std,
            covered_tasks: s.objective.covered_tasks as f64,
            index_relocations: s.index_counters.relocations as f64,
            index_cells_repaired: s.index_counters.cells_repaired as f64,
            index_tcell_rebuilds: s.index_counters.tcell_rebuilds as f64,
            wal: s.wal.as_ref().map(WalStatsDto::from_stats),
        }
    }

    /// Encodes the DTO through the field table `/metrics` renders its
    /// engine views with.
    pub fn to_json(&self) -> Json {
        let mut scrape = Scrape::new(false);
        scrape.snapshot("", self);
        scrape.into_json()
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            now: num(value, "now")?,
            ticks: num(value, "ticks")?,
            events_applied: num(value, "events_applied")?,
            pending_events: num(value, "pending_events")?,
            live_tasks: num(value, "live_tasks")?,
            live_workers: num(value, "live_workers")?,
            committed_workers: num(value, "committed_workers")?,
            banked_answers: num(value, "banked_answers")?,
            total_assignments: num(value, "total_assignments")?,
            min_reliability: num(value, "min_reliability")?,
            total_std: num(value, "total_std")?,
            covered_tasks: num(value, "covered_tasks")?,
            index_relocations: num(value, "index_relocations")?,
            index_cells_repaired: num(value, "index_cells_repaired")?,
            index_tcell_rebuilds: num(value, "index_tcell_rebuilds")?,
            wal: match value.get("wal") {
                None | Some(Json::Null) => None,
                Some(v) => Some(WalStatsDto::from_json(v)?),
            },
        })
    }
}

/// The summary of a forced tick, returned by `POST /tick`.
#[derive(Debug, Clone, PartialEq)]
pub struct TickDto {
    /// The tick's time.
    pub now: f64,
    /// Events applied by this tick.
    pub events_applied: f64,
    /// Tasks auto-expired at the start of the tick.
    pub tasks_expired: f64,
    /// Independent shards solved.
    pub num_shards: f64,
    /// Assignments newly committed by this tick.
    pub new_assignments: f64,
    /// Wall-clock seconds spent in the sharded solve.
    pub solve_seconds: f64,
}

impl TickDto {
    /// Builds the DTO from an engine tick report.
    pub fn from_report(r: &TickReport) -> Self {
        Self {
            now: r.now,
            events_applied: r.events_applied as f64,
            tasks_expired: r.tasks_expired as f64,
            num_shards: r.num_shards as f64,
            new_assignments: r.new_assignments.len() as f64,
            solve_seconds: r.solve_seconds,
        }
    }

    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("now", Json::Num(self.now)),
            ("events_applied", Json::Num(self.events_applied)),
            ("tasks_expired", Json::Num(self.tasks_expired)),
            ("num_shards", Json::Num(self.num_shards)),
            ("new_assignments", Json::Num(self.new_assignments)),
            ("solve_seconds", Json::Num(self.solve_seconds)),
        ])
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            now: num(value, "now")?,
            events_applied: num(value, "events_applied")?,
            tasks_expired: num(value, "tasks_expired")?,
            num_shards: num(value, "num_shards")?,
            new_assignments: num(value, "new_assignments")?,
            solve_seconds: num(value, "solve_seconds")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn task_dto_round_trips_and_validates() {
        let dto = TaskDto {
            id: 7,
            x: 0.25,
            y: 0.75,
            start: 1.0,
            end: 5.0,
            beta: Some(0.3),
        };
        let json = dto.to_json().to_string_compact();
        assert_eq!(TaskDto::from_json(&parse(&json).unwrap()).unwrap(), dto);
        let task = dto.into_task().unwrap();
        assert_eq!(task.id, TaskId(7));
        assert_eq!(TaskDto::from_task(&task).beta, Some(0.3));

        // Model validation is enforced at conversion, not decode.
        let bad = TaskDto {
            start: 9.0,
            end: 1.0,
            ..TaskDto::from_task(&task)
        };
        assert!(bad.into_task().is_err());
    }

    #[test]
    fn worker_dto_round_trips_with_and_without_heading() {
        for heading in [None, Some((0.5, 1.0))] {
            let dto = WorkerDto {
                id: 3,
                x: 0.1,
                y: 0.9,
                speed: 0.4,
                heading,
                confidence: 0.85,
                available_from: 2.5,
            };
            let json = dto.to_json().to_string_compact();
            assert_eq!(WorkerDto::from_json(&parse(&json).unwrap()).unwrap(), dto);
            let worker = dto.clone().into_worker().unwrap();
            assert_eq!(worker.heading.is_full(), heading.is_none());
            assert_eq!(WorkerDto::from_worker(&worker), dto);
        }
    }

    #[test]
    fn worker_dto_rejects_half_specified_heading() {
        let json = parse(r#"{"id":1,"x":0,"y":0,"speed":1,"confidence":0.5,"heading_start":0.2}"#)
            .unwrap();
        assert!(WorkerDto::from_json(&json).is_err());
    }

    #[test]
    fn ids_must_be_integral_and_in_range() {
        for bad in [
            r#"{"id":1.5,"x":0,"y":0}"#,
            r#"{"id":-1,"x":0,"y":0}"#,
            r#"{"id":4294967296,"x":0,"y":0}"#,
            r#"{"id":"7","x":0,"y":0}"#,
        ] {
            assert!(
                HeartbeatDto::from_json(&parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
        let ok = r#"{"id":4294967295,"x":0.5,"y":0.5}"#;
        assert_eq!(
            HeartbeatDto::from_json(&parse(ok).unwrap()).unwrap().id,
            u32::MAX
        );
    }

    #[test]
    fn answer_dto_converts_to_contribution() {
        let dto = AnswerDto {
            worker: 2,
            confidence: 0.7,
            angle: -1.0,
            arrival: 3.0,
        };
        let (worker, contribution) = dto.into_answer().unwrap();
        assert_eq!(worker, WorkerId(2));
        assert!((0.0..std::f64::consts::TAU).contains(&contribution.angle));
        assert!(AnswerDto {
            worker: 2,
            confidence: 1.5,
            angle: 0.0,
            arrival: 0.0
        }
        .into_answer()
        .is_err());
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = TaskDto::from_json(&parse(r#"{"id":1,"x":0}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains('y'), "{err}");
        assert_eq!(err.status(), 400);
    }
}
