//! The partition command protocol: the explicit, versioned API one spatial
//! partition serves to the router.
//!
//! PR 4 partitioned the engine by region, but the router talked to its
//! engines through hard-wired `mpsc` channel ends — an implementation, not
//! an interface, and one that pinned every partition into the router's
//! process. This module turns the per-partition surface into a first-class
//! **protocol**:
//!
//! * [`PartitionClient`] — the object-safe, `Send` trait covering the full
//!   command surface a partition serves: submit a routed event batch, run a
//!   lockstep tick (returning the tick report plus the partition's committed
//!   worker set, the router's handoff oracle), bank an answer, release a
//!   worker, list assignments, snapshot, residency probe, drain and
//!   shutdown. The router ([`crate::partition::PartitionedEngine`]) holds
//!   one `Box<dyn PartitionClient>` per region and nothing else — whether
//!   the engine lives on a thread or on another host is the backend's
//!   business.
//! * [`InProcessClient`] — the thread-per-partition backend: the engine on
//!   an OS thread behind a request channel and a reply channel.
//! * `rdbsc-server::BinaryPartitionClient` — the wire backend: the same
//!   protocol as length-prefixed binary frames on one persistent TCP
//!   connection to an `rdbsc-partitiond` daemon hosting the partition's
//!   engine in its own process (or on its own host).
//!
//! ## One vocabulary, one server
//!
//! Both backends carry the same [`PartitionRequest`] and
//! [`PartitionReply`] values: the channel carries them as they are, and a
//! wire frame is a request id around them. Both servers answer with the
//! same [`EnginePartition::serve`], the only place a request is dispatched.
//! What each server adds around it is its own: the thread refuses
//! mutations after a drain and stops after a shutdown; the daemon does the
//! same through its refusal table, times its ticks and answers the control
//! frames (handshake, replication) that are not partition requests.
//!
//! ## One pipe, answered in send order
//!
//! A backend implements two messaging methods: [`PartitionClient::send`]
//! puts a [`PartitionRequest`] on the pipe without waiting, and
//! [`PartitionClient::recv`] takes the [`PartitionReply`] to the oldest
//! request not yet answered — replies come back strictly in send order.
//! Every typed method is written once over that pipe. The lockstep tick is
//! where partitions must run **concurrently** (the round's wall time is the
//! slowest partition's, not the sum), so its two halves are separate
//! methods: [`PartitionClient::begin_tick`] sends and
//! [`PartitionClient::finish_tick`] receives. The router sends a round's
//! submit *and* tick to every partition before receiving any reply, so N
//! daemons solve their regions at the same time, one round trip per round.
//!
//! ## Versioning
//!
//! [`PROTOCOL_VERSION`] names the command-surface revision. In-process
//! clients are always current; wire backends perform a handshake and refuse
//! to drive a daemon speaking a different version.
//!
//! ## Determinism
//!
//! The protocol carries exactly the information the PR 4 router used, so
//! the determinism contract is transport-independent: byte-identical event
//! streams produce byte-identical tick replies whether a partition is a
//! thread or a daemon (floats cross the wire as their IEEE-754 bit
//! patterns). `rdbsc-server`'s `proptest_remote` and `partitiond_e2e` tests
//! assert this end to end.

use crate::engine::{AssignmentEngine, EngineConfig, EngineEvent, TickReport};
use crate::handle::EngineSnapshot;
use crate::repl::{ReplError, ReplStatus, ReplicationLog, DEFAULT_MAX_RETAINED};
use crate::wal::{PartitionState, ScannedLog, Wal, WalConfig, WalError, WalRecord, WalStats};
use rdbsc_index::SpatialIndex;
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Contribution, WorkerId};
use rdbsc_obs::{Counter, LatencyHistogram};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The partition command protocol revision this build speaks. Bump on any
/// incompatible change to the command surface or its wire encoding.
pub const PROTOCOL_VERSION: u32 = 1;

/// Why a partition command failed.
#[derive(Debug)]
pub enum PartitionError {
    /// The transport to the partition failed (thread gone, connection
    /// refused, read/write error).
    Transport {
        /// The partition's endpoint (thread label or network address).
        endpoint: String,
        /// What went wrong.
        detail: String,
    },
    /// The partition answered, but not with what the protocol requires
    /// (version mismatch, malformed reply, wrong request id, rejected
    /// configuration).
    Protocol {
        /// The partition's endpoint.
        endpoint: String,
        /// What went wrong.
        detail: String,
    },
    /// The partition is draining for shutdown and no longer takes commands.
    Draining {
        /// The partition's endpoint.
        endpoint: String,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Transport { endpoint, detail } => {
                write!(f, "partition transport to {endpoint} failed: {detail}")
            }
            PartitionError::Protocol { endpoint, detail } => {
                write!(f, "partition protocol error from {endpoint}: {detail}")
            }
            PartitionError::Draining { endpoint } => {
                write!(f, "partition {endpoint} is draining and refuses commands")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// One lockstep tick's reply: what the tick did, plus the partition's
/// post-tick committed worker set — the router's handoff oracle (a committed
/// worker must stay with its task's partition until the commitment clears).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionTick {
    /// The partition engine's tick report.
    pub report: TickReport,
    /// Workers committed (en route) in this partition after the tick, in
    /// the engine's deterministic `(task, worker)` listing order.
    pub committed: Vec<WorkerId>,
    /// The trace id the partition attributed this tick to — the echo of the
    /// one [`PartitionClient::begin_tick`] carried, proving the id survived
    /// the transport (`0` = the tick ran untraced). Observational only.
    pub trace: u64,
}

/// One input of the deterministic state machine a partition is — the unit
/// at every tier: the log appends it ([`WalRecord::Command`]), the
/// replication stream ships it ([`crate::repl`]), the partition wire
/// carries it, and every executor — in-process thread, daemon, recovery
/// replay, standby — hands it to [`EnginePartition::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionCommand {
    /// A routed event batch queued for the next tick.
    Submit(Vec<EngineEvent>),
    /// One lockstep engine round (the fsync boundary of a durable log).
    Tick {
        /// The tick's time.
        now: f64,
    },
    /// An en-route worker's delivered answer, to bank.
    Answer {
        /// The answering worker.
        worker: WorkerId,
        /// Its contribution.
        contribution: Contribution,
    },
    /// An en-route worker released without banking (gave up / rejected).
    Release {
        /// The released worker.
        worker: WorkerId,
    },
}

impl PartitionCommand {
    /// [`PartitionCommand::Submit`]'s tag.
    pub const SUBMIT: u8 = 1;
    /// [`PartitionCommand::Tick`]'s tag.
    pub const TICK: u8 = 2;
    /// [`PartitionCommand::Answer`]'s tag.
    pub const ANSWER: u8 = 3;
    /// [`PartitionCommand::Release`]'s tag.
    pub const RELEASE: u8 = 4;

    /// The command's tag: the first byte of its log record and its request
    /// tag on the partition wire.
    pub fn tag(&self) -> u8 {
        match self {
            PartitionCommand::Submit(_) => Self::SUBMIT,
            PartitionCommand::Tick { .. } => Self::TICK,
            PartitionCommand::Answer { .. } => Self::ANSWER,
            PartitionCommand::Release { .. } => Self::RELEASE,
        }
    }

    /// The command's name in diagnostics (`wal_dump`).
    pub fn kind(&self) -> &'static str {
        match self {
            PartitionCommand::Submit(_) => "events",
            PartitionCommand::Tick { .. } => "tick",
            PartitionCommand::Answer { .. } => "answer",
            PartitionCommand::Release { .. } => "release",
        }
    }
}

/// What applying a [`PartitionCommand`] produced — one variant per command.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutcome {
    /// The batch was queued.
    Submitted {
        /// The size of the batch just queued (not the number pending).
        events: u32,
    },
    /// The round ran.
    Ticked(Box<PartitionTick>),
    /// The answer was processed.
    Answered {
        /// Was the worker committed here (and the answer banked)?
        banked: bool,
    },
    /// The release was processed.
    Released,
}

impl CommandOutcome {
    /// The [`PartitionCommand::tag`] of the command this is the outcome of.
    pub fn tag(&self) -> u8 {
        match self {
            CommandOutcome::Submitted { .. } => PartitionCommand::SUBMIT,
            CommandOutcome::Ticked(_) => PartitionCommand::TICK,
            CommandOutcome::Answered { .. } => PartitionCommand::ANSWER,
            CommandOutcome::Released => PartitionCommand::RELEASE,
        }
    }
}

/// Per-partition protocol counters the router keeps for each client, so
/// cross-process overhead is observable on `/metrics`: commands issued,
/// wire retries/reconnects, bytes moved, command latency percentiles.
#[derive(Debug, Default)]
pub struct ProtocolCounters {
    /// Requests answered: one per reply received, counted where its
    /// latency is recorded.
    pub requests: Counter,
    /// Commands re-sent after a stale-connection reconnect (wire backends).
    pub retries: Counter,
    /// Connections opened beyond the first (wire backends).
    pub reconnects: Counter,
    /// Request bytes written to the transport (0 for in-process).
    pub bytes_sent: Counter,
    /// Response bytes read from the transport (0 for in-process).
    pub bytes_received: Counter,
    /// Binary frames written (0 for in-process backends).
    pub frames_sent: Counter,
    /// Binary frames read (0 for in-process backends).
    pub frames_received: Counter,
    /// Per-command latency (dispatch to reply, including the engine work).
    pub command_latency: LatencyHistogram,
}

/// A point-in-time copy of one partition's [`ProtocolCounters`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolStats {
    /// Commands completed.
    pub requests: u64,
    /// Commands re-sent after a reconnect.
    pub retries: u64,
    /// Connections opened beyond the first.
    pub reconnects: u64,
    /// Request bytes written.
    pub bytes_sent: u64,
    /// Response bytes read.
    pub bytes_received: u64,
    /// Binary frames written.
    pub frames_sent: u64,
    /// Binary frames read.
    pub frames_received: u64,
    /// Median command latency (µs).
    pub latency_p50_us: f64,
    /// 99th-percentile command latency (µs).
    pub latency_p99_us: f64,
    /// Worst command latency (µs).
    pub latency_max_us: u64,
}

impl ProtocolCounters {
    /// Snapshots the counters.
    pub fn stats(&self) -> ProtocolStats {
        ProtocolStats {
            requests: self.requests.get(),
            retries: self.retries.get(),
            reconnects: self.reconnects.get(),
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
            frames_sent: self.frames_sent.get(),
            frames_received: self.frames_received.get(),
            latency_p50_us: self.command_latency.percentile_us(50.0),
            latency_p99_us: self.command_latency.percentile_us(99.0),
            latency_max_us: self.command_latency.max_us(),
        }
    }
}

/// One message to a partition: a [`PartitionCommand`] under its trace id,
/// or one of the reads and lifecycle messages around the commands. It is
/// the one vocabulary from router to engine: [`PartitionClient::send`] puts
/// it on the pipe, the partition wire carries it as it is (a frame is a
/// request id around it), and [`EnginePartition::serve`] answers it, on the
/// in-process thread and in `rdbsc-partitiond` alike.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionRequest {
    /// One of the four partition commands.
    Apply {
        /// The trace id the partition's spans carry (`0` = untraced).
        trace: u64,
        /// The command.
        command: PartitionCommand,
    },
    /// The standing committed pairs.
    Assignments,
    /// The partition's serving-state snapshot.
    Snapshot,
    /// Pending events or live tasks?
    IsActive,
    /// Does the index hold the worker?
    HasWorker(WorkerId),
    /// Stop taking new commands.
    Drain,
    /// Stop the partition's engine.
    Shutdown,
}

impl PartitionRequest {
    /// Does the request change the partition's state? Only an
    /// [`Apply`](PartitionRequest::Apply) does. It is what a drained
    /// partition refuses with [`PartitionError::Draining`], and what an
    /// unpromoted standby daemon refuses; every other request answers.
    pub fn mutates(&self) -> bool {
        matches!(self, PartitionRequest::Apply { .. })
    }
}

/// A partition's answer to one [`PartitionRequest`], variant for variant.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionReply {
    /// What applying the command produced.
    Applied(CommandOutcome),
    /// The standing committed pairs, sorted by `(task, worker)`.
    Assignments(Vec<ValidPair>),
    /// The serving-state snapshot.
    Snapshot(Box<EngineSnapshot>),
    /// Pending events or live tasks?
    Active(bool),
    /// Is the worker resident?
    HasWorker(bool),
    /// Drain acknowledged.
    Drained,
    /// Shutdown acknowledged.
    ShutDown,
}

/// One request's full round trip on `client`'s pipe.
fn exchange<C: PartitionClient + ?Sized>(
    client: &mut C,
    request: PartitionRequest,
) -> Result<PartitionReply, PartitionError> {
    client.send(request)?;
    client.recv()
}

/// The oldest reply on the pipe answers some other request than the typed
/// method expected: the caller's `begin_*`/`finish_*` pairing is off.
fn unexpected<C: PartitionClient + ?Sized>(
    client: &C,
    what: &str,
    reply: PartitionReply,
) -> PartitionError {
    PartitionError::Protocol {
        endpoint: client.endpoint(),
        detail: format!("{what} received the reply to another request: {reply:?}"),
    }
}

/// The full command surface one partition serves to the router — object-safe
/// and `Send`, so the router can hold `Box<dyn PartitionClient>` per region
/// regardless of where the engine runs.
///
/// A backend implements five methods: its identity, its counters, and one
/// pipe — [`send`](Self::send) and [`recv`](Self::recv), answered strictly
/// in send order (see the [module docs](self)). The typed methods are
/// written once, over that pipe. Every method is driven from the router's
/// single thread.
pub trait PartitionClient: Send {
    /// The backend kind: `"in-process"` or `"binary"`.
    fn kind(&self) -> &'static str;

    /// Where the partition lives (thread label or network address).
    fn endpoint(&self) -> String;

    /// The client's protocol counters (shared, lock-free).
    fn counters(&self) -> Arc<ProtocolCounters>;

    /// Puts one request on the pipe without waiting for its reply.
    fn send(&mut self, request: PartitionRequest) -> Result<(), PartitionError>;

    /// Takes the reply to the oldest request not yet answered — the one
    /// place a request is counted and timed. With nothing in flight this is
    /// a [`PartitionError::Protocol`].
    fn recv(&mut self) -> Result<PartitionReply, PartitionError>;

    /// Sends a routed event batch for the partition's next tick, attributed
    /// to `trace` (`0` = untraced).
    fn begin_submit(&mut self, trace: u64, events: Vec<EngineEvent>) -> Result<(), PartitionError> {
        let command = PartitionCommand::Submit(events);
        self.send(PartitionRequest::Apply { trace, command })
    }

    /// Receives the reply to a [`begin_submit`](Self::begin_submit).
    fn finish_submit(&mut self) -> Result<(), PartitionError> {
        match self.recv()? {
            PartitionReply::Applied(CommandOutcome::Submitted { .. }) => Ok(()),
            other => Err(unexpected(self, "finish_submit", other)),
        }
    }

    /// Sends one lockstep engine round at time `now`, attributed to `trace`;
    /// the partition echoes it in [`PartitionTick::trace`].
    fn begin_tick(&mut self, trace: u64, now: f64) -> Result<(), PartitionError> {
        let command = PartitionCommand::Tick { now };
        self.send(PartitionRequest::Apply { trace, command })
    }

    /// Receives the tick reply of a [`begin_tick`](Self::begin_tick).
    fn finish_tick(&mut self) -> Result<PartitionTick, PartitionError> {
        match self.recv()? {
            PartitionReply::Applied(CommandOutcome::Ticked(tick)) => Ok(*tick),
            other => Err(unexpected(self, "finish_tick", other)),
        }
    }

    /// Banks an en-route worker's answer; `Ok(false)` when it was not
    /// committed here.
    fn record_answer(
        &mut self,
        worker: WorkerId,
        contribution: Contribution,
    ) -> Result<bool, PartitionError> {
        let command = PartitionCommand::Answer {
            worker,
            contribution,
        };
        match exchange(self, PartitionRequest::Apply { trace: 0, command })? {
            PartitionReply::Applied(CommandOutcome::Answered { banked }) => Ok(banked),
            other => Err(unexpected(self, "record_answer", other)),
        }
    }

    /// Releases an en-route worker (gave up / rejected) without banking.
    fn release_worker(&mut self, worker: WorkerId) -> Result<(), PartitionError> {
        let command = PartitionCommand::Release { worker };
        match exchange(self, PartitionRequest::Apply { trace: 0, command })? {
            PartitionReply::Applied(CommandOutcome::Released) => Ok(()),
            other => Err(unexpected(self, "release_worker", other)),
        }
    }

    /// The partition's standing committed pairs, sorted by `(task, worker)`.
    fn assignments(&mut self) -> Result<Vec<ValidPair>, PartitionError> {
        match exchange(self, PartitionRequest::Assignments)? {
            PartitionReply::Assignments(pairs) => Ok(pairs),
            other => Err(unexpected(self, "assignments", other)),
        }
    }

    /// A consistent snapshot of the partition's serving state.
    fn snapshot(&mut self) -> Result<EngineSnapshot, PartitionError> {
        match exchange(self, PartitionRequest::Snapshot)? {
            PartitionReply::Snapshot(snapshot) => Ok(*snapshot),
            other => Err(unexpected(self, "snapshot", other)),
        }
    }

    /// Does the partition have pending events or live tasks?
    fn is_active(&mut self) -> Result<bool, PartitionError> {
        match exchange(self, PartitionRequest::IsActive)? {
            PartitionReply::Active(active) => Ok(active),
            other => Err(unexpected(self, "is_active", other)),
        }
    }

    /// Does the partition's index hold the worker? (Residency probe for
    /// tests and debugging.)
    fn has_worker(&mut self, id: WorkerId) -> Result<bool, PartitionError> {
        match exchange(self, PartitionRequest::HasWorker(id))? {
            PartitionReply::HasWorker(present) => Ok(present),
            other => Err(unexpected(self, "has_worker", other)),
        }
    }

    /// Asks the partition to stop taking new commands: on either backend,
    /// every later request that [mutates](PartitionRequest::mutates) is
    /// answered [`PartitionError::Draining`] (a daemon's `503`), while reads
    /// still answer. Part of the graceful-shutdown ordering.
    fn drain(&mut self) -> Result<(), PartitionError> {
        match exchange(self, PartitionRequest::Drain)? {
            PartitionReply::Drained => Ok(()),
            other => Err(unexpected(self, "drain", other)),
        }
    }

    /// Stops the partition's engine: joins the engine thread, or tells the
    /// daemon process to exit. Any request after it is an error.
    fn shutdown(&mut self) -> Result<(), PartitionError> {
        match exchange(self, PartitionRequest::Shutdown)? {
            PartitionReply::ShutDown => Ok(()),
            other => Err(unexpected(self, "shutdown", other)),
        }
    }
}

/// One partition's engine plus the serving counters its snapshots need —
/// the state machine **both** protocol backends execute: the in-process
/// client runs one on a thread, and `rdbsc-partitiond` runs one behind its
/// frame listener, and both answer through [`EnginePartition::serve`], so a
/// request means exactly the same thing on either side of the wire.
pub struct EnginePartition<I: SpatialIndex> {
    engine: AssignmentEngine<I>,
    last_now: f64,
    events_applied: u64,
    total_assignments: u64,
    /// The durable command log, when this partition runs with one. Every
    /// command is logged *before* application (write-ahead redo); a log
    /// I/O failure panics the partition — the crash-and-recover
    /// discipline: a partition that cannot persist its commands must not
    /// keep acknowledging them, and a reboot recovers exactly the logged
    /// prefix.
    wal: Option<Wal>,
    /// The replication stream, when this partition runs as a primary: a
    /// copy of every logged command, retained until the follower
    /// acknowledges it (see [`crate::repl`]).
    repl: Option<ReplicationLog>,
    /// The trace id commands are currently attributed to (`0` = untraced).
    /// Set by [`EnginePartition::apply`]; purely observational.
    trace: u64,
    /// Nanoseconds `submit` spent appending event batches since the last
    /// tick; the next tick reports them in `stages.wal_append_us`, so the
    /// stages sum to submit + tick. Observational only.
    submit_append_ns: u64,
}

/// A log write failed: a partition that cannot persist its commands must
/// not keep acknowledging them, and a reboot recovers the logged prefix.
fn crash_on(result: Result<(), WalError>) {
    if let Err(e) = result {
        panic!("partition wal append failed (crash-and-recover): {e}");
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl<I: SpatialIndex> EnginePartition<I> {
    /// Wraps a freshly built engine (no durability).
    pub fn new(engine: AssignmentEngine<I>) -> Self {
        Self {
            engine,
            last_now: 0.0,
            events_applied: 0,
            total_assignments: 0,
            wal: None,
            repl: None,
            trace: 0,
            submit_append_ns: 0,
        }
    }

    /// Applies one command — the one place a [`PartitionCommand`] is
    /// executed. Each arm's body logs the command (write-ahead), executes it
    /// and, on a replication primary, publishes it, so live traffic,
    /// crash-recovery replay (the log is not attached yet, so nothing is
    /// re-logged) and a standby applying shipped commands (log-then-apply
    /// into its own log) are the same code; the engine's determinism is what
    /// makes a replayed tick, and a standby's digest at the same lsn, exact.
    ///
    /// The partition's spans carry `trace` (`0` = untraced), so a
    /// router-issued trace correlates across the wire. Observational only.
    pub fn apply(&mut self, trace: u64, command: PartitionCommand) -> CommandOutcome {
        self.trace = trace;
        match command {
            PartitionCommand::Submit(events) => {
                let batch = events.len() as u32;
                self.submit(events);
                CommandOutcome::Submitted { events: batch }
            }
            PartitionCommand::Tick { now } => CommandOutcome::Ticked(Box::new(self.tick(now))),
            PartitionCommand::Answer {
                worker,
                contribution,
            } => CommandOutcome::Answered {
                banked: self.record_answer(worker, contribution),
            },
            PartitionCommand::Release { worker } => {
                self.release_worker(worker);
                CommandOutcome::Released
            }
        }
    }

    /// Answers one [`PartitionRequest`] — the one place a request is
    /// dispatched, whichever server received it: the in-process thread
    /// behind [`InProcessClient`] and `rdbsc-partitiond` both call this, and
    /// wrap it only in what their server alone does (refusing mutations
    /// after a drain, stopping after a shutdown, the daemon's tick metrics).
    pub fn serve(&mut self, request: PartitionRequest) -> PartitionReply {
        match request {
            PartitionRequest::Apply { trace, command } => {
                PartitionReply::Applied(self.apply(trace, command))
            }
            PartitionRequest::Assignments => PartitionReply::Assignments(self.assignments()),
            PartitionRequest::Snapshot => PartitionReply::Snapshot(Box::new(self.snapshot())),
            PartitionRequest::IsActive => PartitionReply::Active(self.is_active()),
            PartitionRequest::HasWorker(id) => PartitionReply::HasWorker(self.has_worker(id)),
            PartitionRequest::Drain => PartitionReply::Drained,
            PartitionRequest::Shutdown => PartitionReply::ShutDown,
        }
    }

    /// Opens (or creates) the durable log in `dir` and recovers the
    /// partition from it in one pass over the log: each record is applied
    /// by value as it is decoded — a command through the ordinary command
    /// path, a checkpoint by replacing the partition built so far with one
    /// restored into a fresh index from `make_index` — and only then does
    /// the log attach, so replayed commands are not re-logged. On an empty
    /// directory this is simply a durable fresh partition.
    pub fn open_durable(
        dir: &Path,
        wal_config: WalConfig,
        engine_config: EngineConfig,
        make_index: impl Fn() -> I,
    ) -> Result<(Self, ScannedLog), WalError> {
        let fresh = |config| Self::new(AssignmentEngine::new(make_index(), config));
        let mut part = None;
        let (wal, scan) = Wal::open(dir, wal_config, |record| match record {
            WalRecord::Checkpoint(state) => {
                // The latest checkpoint wins; drop the superseded engine
                // before building its successor.
                part = None;
                part = Some(Self::from_state(state, engine_config.clone(), &make_index));
            }
            WalRecord::Command(command) => {
                part.get_or_insert_with(|| fresh(engine_config.clone()))
                    .apply(0, command);
            }
            // Replication notes are observational.
            WalRecord::ReplMeta { .. } => {}
        })?;
        let mut part = part.unwrap_or_else(|| fresh(engine_config));
        part.wal = Some(wal);
        Ok((part, scan))
    }

    fn log(wal: &mut Option<Wal>, write: impl FnOnce(&mut Wal) -> Result<(), WalError>) {
        if let Some(wal) = wal {
            crash_on(write(wal));
        }
    }

    /// Queues a routed event batch for the next tick.
    pub fn submit(&mut self, events: Vec<EngineEvent>) {
        let _span = rdbsc_obs::span(self.trace, 0, "partition.submit");
        if let Some(wal) = &mut self.wal {
            let started = Instant::now();
            crash_on(wal.append_events(&events));
            self.submit_append_ns += elapsed_ns(started);
        }
        if let Some(repl) = &mut self.repl {
            if !events.is_empty() {
                repl.publish(PartitionCommand::Submit(events.clone()));
            }
        }
        self.engine.submit_all(events);
    }

    /// Runs `round` (the engine round) on this thread while the group-commit
    /// fsync runs on the log's sync thread, waits for it, and returns the
    /// round's report plus the nanoseconds the sync cost this thread:
    /// starting it, then blocked waiting. The log and the engine are
    /// disjoint state, and nothing the round computed leaves this function
    /// before the sync has succeeded: a sync error panics here, after the
    /// wait.
    fn overlap_sync(
        wal: &mut Wal,
        round: impl FnOnce() -> TickReport,
        trace: u64,
        parent: u64,
    ) -> (TickReport, u64) {
        let started = Instant::now();
        let begun = wal.begin_sync();
        let begin_ns = elapsed_ns(started);
        let report = round();
        let blocked = Instant::now();
        let _span = rdbsc_obs::span(trace, parent, "wal.fsync");
        crash_on(begun.and_then(|()| wal.end_sync()));
        (report, begin_ns + elapsed_ns(blocked))
    }

    /// Runs one engine round and returns the report plus the post-tick
    /// committed worker set (the handoff oracle). On a durable partition
    /// the tick command is logged and fsynced *before the tick's outcome
    /// leaves the partition* (the group-commit boundary): the fsync runs
    /// beside the engine round and is joined before the reply is built, a
    /// checkpoint is written, or the tick is published for shipping. A
    /// checkpoint is written every [`WalConfig::checkpoint_every_ticks`]
    /// ticks.
    ///
    /// When the tick is attributed to a trace ([`EnginePartition::apply`]) it emits
    /// spans — live `wal.append`/`wal.fsync` spans around the log append and
    /// the wait for the sync, the engine's stage spans synthesized from
    /// [`TickReport::stages`] — under a `partition.tick` root. The report's
    /// WAL stage timings are filled in either way. All observational:
    /// timings ride the report without feeding back into engine decisions.
    pub fn tick(&mut self, now: f64) -> PartitionTick {
        let trace = self.trace;
        let root = rdbsc_obs::span(trace, 0, "partition.tick");
        let mut wal_append_ns = std::mem::take(&mut self.submit_append_ns);
        if let Some(wal) = &mut self.wal {
            let started = Instant::now();
            let _span = rdbsc_obs::span(trace, root.id(), "wal.append");
            crash_on(wal.append_command(&PartitionCommand::Tick { now }));
            wal_append_ns += elapsed_ns(started);
        }
        let engine = &mut self.engine;
        let root_id = root.id();
        let mut round = move || {
            let report = engine.tick(now);
            // The engine computes its stage timings but stays tracing-free;
            // synthesize its spans here (report.stages still has the WAL
            // stages zeroed at this point; their spans are recorded live).
            rdbsc_obs::record_stage_spans(trace, root_id, &report.stages);
            report
        };
        let group_commit = self.wal.as_mut().filter(|wal| wal.config().fsync_on_tick);
        let (mut report, wal_fsync_ns) = match group_commit {
            Some(wal) => Self::overlap_sync(wal, round, trace, root_id),
            None => (round(), 0),
        };
        // From here on the tick is durable.
        if let Some(repl) = &mut self.repl {
            repl.publish(PartitionCommand::Tick { now });
        }
        self.last_now = now;
        self.events_applied += report.events_applied as u64;
        self.total_assignments += report.new_assignments.len() as u64;
        let committed: Vec<WorkerId> = self
            .engine
            .committed_assignments()
            .iter()
            .map(|p| p.worker)
            .collect();
        let checkpoint_due = self.wal.as_ref().is_some_and(|wal| {
            let every = wal.config().checkpoint_every_ticks;
            every > 0 && self.engine.num_ticks().is_multiple_of(every)
        });
        if checkpoint_due {
            let started = Instant::now();
            let _span = rdbsc_obs::span(trace, root.id(), "wal.checkpoint");
            let state = self.dump_state();
            let tick = self.engine.num_ticks();
            Self::log(&mut self.wal, |wal| wal.append_checkpoint(&state, tick));
            wal_append_ns += elapsed_ns(started);
        }
        report.stages.wal_append_us = wal_append_ns / 1_000;
        report.stages.wal_fsync_us = wal_fsync_ns / 1_000;
        PartitionTick {
            report,
            committed,
            trace,
        }
    }

    /// Logs a command and, on a replication primary, publishes it.
    fn log_and_publish(&mut self, command: PartitionCommand) {
        Self::log(&mut self.wal, |wal| wal.append_command(&command));
        if let Some(repl) = &mut self.repl {
            repl.publish(command);
        }
    }

    /// Banks an answer; `false` when the worker was not en route.
    pub fn record_answer(&mut self, worker: WorkerId, contribution: Contribution) -> bool {
        self.log_and_publish(PartitionCommand::Answer {
            worker,
            contribution,
        });
        self.engine.record_answer(worker, contribution)
    }

    /// Releases an en-route worker without banking.
    pub fn release_worker(&mut self, worker: WorkerId) {
        self.log_and_publish(PartitionCommand::Release { worker });
        self.engine.release_worker(worker);
    }

    /// The standing committed pairs, sorted by `(task, worker)`.
    pub fn assignments(&self) -> Vec<ValidPair> {
        self.engine.committed_assignments()
    }

    /// A consistent snapshot of this partition's state (durable partitions
    /// include their log counters).
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut snapshot = EngineSnapshot::capture(
            &self.engine,
            self.last_now,
            self.events_applied,
            self.total_assignments,
        );
        snapshot.wal = self.wal_stats();
        snapshot
    }

    /// The partition's full logical state in canonical form (the
    /// checkpoint payload).
    pub fn dump_state(&self) -> PartitionState {
        PartitionState {
            last_now: self.last_now,
            events_applied: self.events_applied,
            total_assignments: self.total_assignments,
            engine: self.engine.dump_state(),
        }
    }

    /// The FNV-1a digest of the canonical state encoding — equal digests ⇔
    /// equal observable partition state. The recovery tests compare a
    /// rebooted partition's digest against an offline replay of the logged
    /// prefix.
    pub fn state_digest(&self) -> u64 {
        self.dump_state().digest()
    }

    /// Log counters, when this partition is durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Turns this partition into a replication primary (idempotent) and
    /// starts — or restarts — the stream: returns the bootstrap snapshot
    /// the follower restores from plus the stream lsn of the first record
    /// published after it. Re-bootstrapping rebases the stream to its
    /// head: the fresh snapshot covers everything published before it, so
    /// the retained tail is dropped wholesale and the stream feeds exactly
    /// **one** follower at a time ([`crate::repl::FOLLOWER_LIVENESS`]).
    pub fn enable_replication(&mut self) -> (PartitionState, u64) {
        let state = self.dump_state();
        let repl = self
            .repl
            .get_or_insert_with(|| ReplicationLog::new(0, DEFAULT_MAX_RETAINED));
        repl.rebase_to_head();
        (state, repl.next_lsn())
    }

    /// Serves one follower pull: advances the acknowledgement watermark to
    /// `ack` (records below it are released from retention), then returns
    /// up to `max` commands from stream lsn `from`. A gap means the
    /// follower fell behind retention and must re-bootstrap. A watermark
    /// that moved is noted in this partition's own log (observational —
    /// replay ignores it — but `wal_dump` shows how far the standby got).
    pub fn repl_fetch(
        &mut self,
        from: u64,
        ack: u64,
        max: usize,
    ) -> Result<Vec<(u64, PartitionCommand)>, ReplError> {
        let repl = self.repl.as_mut().ok_or(ReplError::NotEnabled)?;
        let before = repl.status().acked;
        repl.ack(ack);
        let records = repl.fetch(from, max)?;
        let acked = repl.status().acked;
        if acked > before {
            let note = WalRecord::ReplMeta {
                acked,
                sealed: false,
            };
            Self::log(&mut self.wal, |wal| wal.append(&note));
        }
        Ok(records)
    }

    /// The primary-side stream counters (`None` when this partition is not
    /// a replication primary).
    pub fn repl_status(&self) -> Option<ReplStatus> {
        self.repl.as_ref().map(ReplicationLog::status)
    }

    /// Seals a promoted standby's incoming stream: writes the sealed
    /// marker at watermark `acked`, checkpoints the promoted state into a
    /// fresh segment (the new primary's clean log epoch) and fsyncs.
    /// Returns the promoted state digest — the value failover proofs
    /// compare against the dead primary's last acknowledged digest.
    pub fn seal_replication(&mut self, acked: u64) -> u64 {
        Self::log(&mut self.wal, |wal| {
            wal.append(&WalRecord::ReplMeta {
                acked,
                sealed: true,
            })
        });
        let state = self.dump_state();
        let tick = self.engine.num_ticks();
        Self::log(&mut self.wal, |wal| wal.append_checkpoint(&state, tick));
        Self::log(&mut self.wal, Wal::sync);
        state.digest()
    }

    /// Rebuilds a partition from a state snapshot (no durability) — the
    /// in-memory half of the follower bootstrap path, and what recovery
    /// does with a checkpoint.
    pub fn from_state(
        state: PartitionState,
        engine_config: EngineConfig,
        make_index: impl FnOnce() -> I,
    ) -> Self {
        let engine = AssignmentEngine::restore_state(make_index(), engine_config, state.engine);
        let mut part = Self::new(engine);
        part.last_now = state.last_now;
        part.events_applied = state.events_applied;
        part.total_assignments = state.total_assignments;
        part
    }

    /// [`EnginePartition::from_state`] with a durable log in `dir`: the
    /// snapshot is checkpointed immediately so the follower's log is
    /// self-contained from its first byte, then the log attaches — shipped
    /// records applied afterwards go through the ordinary log-then-apply
    /// path.
    pub fn restore_durable(
        dir: &Path,
        wal_config: WalConfig,
        engine_config: EngineConfig,
        state: PartitionState,
        make_index: impl FnOnce() -> I,
    ) -> Result<Self, WalError> {
        let (mut wal, _scan) = Wal::open(dir, wal_config, |_| {})?;
        wal.append_checkpoint(&state, state.engine.tick_count)?;
        let mut part = Self::from_state(state, engine_config, make_index);
        part.wal = Some(wal);
        Ok(part)
    }

    /// Pending events or live tasks?
    pub fn is_active(&self) -> bool {
        self.engine.num_pending_events() > 0 || self.engine.num_tasks() > 0
    }

    /// Does the index hold the worker?
    pub fn has_worker(&self, id: WorkerId) -> bool {
        self.engine.index().worker(id).is_some()
    }
}

/// The per-partition engine thread: [`EnginePartition::serve`] answering
/// the request channel on the reply channel, in order, until a shutdown.
/// After a drain it refuses every request that
/// [mutates](PartitionRequest::mutates), as a daemon does.
fn slot_loop<I: SpatialIndex>(
    mut part: EnginePartition<I>,
    label: String,
    requests: Receiver<PartitionRequest>,
    replies: Sender<Result<PartitionReply, PartitionError>>,
) {
    let mut draining = false;
    while let Ok(request) = requests.recv() {
        let last = matches!(request, PartitionRequest::Shutdown);
        draining |= matches!(request, PartitionRequest::Drain);
        let reply = if draining && request.mutates() {
            Err(PartitionError::Draining {
                endpoint: label.clone(),
            })
        } else {
            Ok(part.serve(request))
        };
        if replies.send(reply).is_err() || last {
            return;
        }
    }
}

/// The thread-per-partition protocol backend: one [`AssignmentEngine`] on
/// its own named OS thread behind a request channel and a reply channel.
/// The thread answers in arrival order, so the client pipelines the way the
/// wire backend does: any number of requests may be in flight.
pub struct InProcessClient {
    label: String,
    /// `None` once a shutdown was sent: nothing may follow it.
    requests: Option<Sender<PartitionRequest>>,
    replies: Receiver<Result<PartitionReply, PartitionError>>,
    thread: Option<JoinHandle<()>>,
    counters: Arc<ProtocolCounters>,
    /// When each request not yet answered was sent, oldest first.
    in_flight: VecDeque<Instant>,
}

impl InProcessClient {
    /// Spawns the partition's engine thread. `index` names the partition in
    /// the thread label and the endpoint string.
    pub fn spawn<I: SpatialIndex + 'static>(index: usize, engine: AssignmentEngine<I>) -> Self {
        Self::spawn_partition(index, EnginePartition::new(engine))
    }

    /// Spawns the engine thread around a prebuilt [`EnginePartition`] —
    /// e.g. a durable one recovered with [`EnginePartition::open_durable`].
    pub fn spawn_partition<I: SpatialIndex + 'static>(
        index: usize,
        part: EnginePartition<I>,
    ) -> Self {
        let label = format!("rdbsc-partition-{index}");
        let (requests, requests_rx) = channel();
        let (replies_tx, replies) = channel();
        let thread_label = label.clone();
        let thread = std::thread::Builder::new()
            .name(label.clone())
            .spawn(move || slot_loop(part, thread_label, requests_rx, replies_tx))
            .expect("spawn partition thread");
        Self {
            label,
            requests: Some(requests),
            replies,
            thread: Some(thread),
            counters: Arc::new(ProtocolCounters::default()),
            in_flight: VecDeque::new(),
        }
    }

    fn transport(&self, detail: &str) -> PartitionError {
        PartitionError::Transport {
            endpoint: self.label.clone(),
            detail: detail.into(),
        }
    }
}

impl PartitionClient for InProcessClient {
    fn kind(&self) -> &'static str {
        "in-process"
    }

    fn endpoint(&self) -> String {
        self.label.clone()
    }

    fn counters(&self) -> Arc<ProtocolCounters> {
        Arc::clone(&self.counters)
    }

    fn send(&mut self, request: PartitionRequest) -> Result<(), PartitionError> {
        let started = Instant::now();
        let last = matches!(request, PartitionRequest::Shutdown);
        self.requests
            .as_ref()
            .ok_or_else(|| self.transport("partition already shut down"))?
            .send(request)
            .map_err(|_| self.transport("partition thread is gone"))?;
        if last {
            self.requests = None;
        }
        self.in_flight.push_back(started);
        Ok(())
    }

    fn recv(&mut self) -> Result<PartitionReply, PartitionError> {
        let started = self
            .in_flight
            .pop_front()
            .ok_or_else(|| PartitionError::Protocol {
                endpoint: self.label.clone(),
                detail: "recv with no request in flight".into(),
            })?;
        let reply = self
            .replies
            .recv()
            .map_err(|_| self.transport("partition thread died mid-command"))??;
        if let (PartitionReply::ShutDown, Some(thread)) = (&reply, self.thread.take()) {
            thread
                .join()
                .map_err(|_| self.transport("partition thread panicked"))?;
        }
        self.counters.requests.incr();
        self.counters.command_latency.record(started.elapsed());
        Ok(reply)
    }
}

impl Drop for InProcessClient {
    fn drop(&mut self) {
        // A closed request channel ends the engine thread's loop.
        self.requests = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use rdbsc_geo::{AngleRange, Point, Rect};
    use rdbsc_index::GridIndex;
    use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker};

    fn client() -> InProcessClient {
        InProcessClient::spawn(
            0,
            AssignmentEngine::new(GridIndex::new(Rect::unit(), 0.2), EngineConfig::default()),
        )
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
    fn in_process_client_speaks_the_full_protocol() {
        let mut c = client();
        assert_eq!(c.kind(), "in-process");
        assert_eq!(c.endpoint(), "rdbsc-partition-0");

        c.begin_submit(
            0,
            vec![
                crate::engine::EngineEvent::TaskArrived(task(0, 0.6, 0.6)),
                crate::engine::EngineEvent::WorkerCheckIn(worker(0, 0.5, 0.5)),
            ],
        )
        .unwrap();
        c.finish_submit().unwrap();
        assert!(c.is_active().unwrap());

        c.begin_tick(0, 0.0).unwrap();
        let tick = c.finish_tick().unwrap();
        assert_eq!(tick.report.new_assignments.len(), 1);
        assert_eq!(tick.trace, 0, "a tick begun under trace 0 runs untraced");
        assert_eq!(tick.committed, vec![WorkerId(0)]);
        assert!(c.has_worker(WorkerId(0)).unwrap());
        assert!(!c.has_worker(WorkerId(9)).unwrap());

        let pair = tick.report.new_assignments[0];
        assert_eq!(c.assignments().unwrap(), vec![pair]);
        assert!(c.record_answer(pair.worker, pair.contribution).unwrap());
        assert!(!c.record_answer(pair.worker, pair.contribution).unwrap());
        let snapshot = c.snapshot().unwrap();
        assert_eq!(snapshot.banked_answers, 1);
        assert_eq!(snapshot.total_assignments, 1);

        let stats = c.counters().stats();
        assert!(stats.requests >= 8, "requests {:?}", stats.requests);
        assert_eq!(stats.bytes_sent, 0, "in-process moves no wire bytes");

        c.drain().unwrap();
        c.shutdown().unwrap();
        assert!(c.is_active().is_err(), "commands after shutdown fail");
    }

    /// Every command is counted where its latency is recorded: once, when
    /// its answer arrives. (A release used to be counted before it was even
    /// sent, and never timed.)
    #[test]
    fn every_in_process_command_is_counted_and_timed_once() {
        let mut c = client();
        c.begin_submit(
            0,
            vec![
                EngineEvent::TaskArrived(task(0, 0.6, 0.6)),
                EngineEvent::WorkerCheckIn(worker(0, 0.5, 0.5)),
            ],
        )
        .unwrap();
        c.finish_submit().unwrap();
        c.begin_tick(0, 0.0).unwrap();
        let pair = c.finish_tick().unwrap().report.new_assignments[0];
        assert!(c.record_answer(pair.worker, pair.contribution).unwrap());
        c.release_worker(pair.worker).unwrap();
        let counters = c.counters();
        assert_eq!(counters.stats().requests, 4);
        assert_eq!(counters.command_latency.count(), 4);

        // The shutdown is an exchange like any other; a partition that is
        // gone answers nothing, so nothing after it is counted.
        c.shutdown().unwrap();
        assert!(c.release_worker(pair.worker).is_err());
        assert_eq!(counters.stats().requests, counters.command_latency.count());
        assert_eq!(counters.stats().requests, 5);
    }

    #[test]
    fn set_trace_propagates_across_the_thread_and_echoes() {
        let mut c = client();
        let trace = rdbsc_obs::next_trace_id();
        c.begin_submit(
            trace,
            vec![
                crate::engine::EngineEvent::TaskArrived(task(0, 0.6, 0.6)),
                crate::engine::EngineEvent::WorkerCheckIn(worker(0, 0.5, 0.5)),
            ],
        )
        .unwrap();
        c.finish_submit().unwrap();
        c.begin_tick(trace, 0.0).unwrap();
        let tick = c.finish_tick().unwrap();
        assert_eq!(tick.trace, trace, "the partition echoes the trace id");

        // The partition thread's spans landed in its ring under this trace.
        let spans = rdbsc_obs::collect_spans(trace);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"partition.submit"), "{names:?}");
        assert!(names.contains(&"partition.tick"), "{names:?}");
        assert!(names.contains(&"stage.solve"), "{names:?}");
        let root = spans.iter().find(|s| s.name == "partition.tick").unwrap();
        assert_eq!(root.parent, 0);
        assert!(
            spans
                .iter()
                .filter(|s| s.name.starts_with("stage."))
                .all(|s| s.parent == root.span),
            "stage spans hang off the tick root: {spans:?}"
        );
        c.shutdown().unwrap();
    }

    type Part = EnginePartition<GridIndex>;

    fn engine() -> AssignmentEngine<GridIndex> {
        AssignmentEngine::new(GridIndex::new(Rect::unit(), 0.2), EngineConfig::default())
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rdbsc-protocol-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_durable(dir: &Path, wal_config: WalConfig) -> Part {
        let make_index = || GridIndex::new(Rect::unit(), 0.2);
        Part::open_durable(dir, wal_config, EngineConfig::default(), make_index)
            .unwrap()
            .0
    }

    /// A fresh durable partition whose segment files come from `wrap`.
    fn durable_with<F: crate::wal::WalFile + 'static>(
        dir: &Path,
        mut wrap: impl FnMut(std::fs::File) -> F + Send + 'static,
    ) -> Part {
        let factory: crate::wal::SegmentFactory = Box::new(move |path| {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)?;
            Ok(Box::new(wrap(file)) as Box<dyn crate::wal::WalFile>)
        });
        let (wal, _) = Wal::open_with_factory(dir, WalConfig::default(), factory, |_| {}).unwrap();
        let mut part = EnginePartition::new(engine());
        part.wal = Some(wal);
        part
    }

    fn batch(round: u32) -> Vec<EngineEvent> {
        let at = 0.3 + 0.1 * round as f64;
        vec![
            EngineEvent::TaskArrived(task(round, at + 0.1, at + 0.1)),
            EngineEvent::WorkerCheckIn(worker(round, at, at)),
        ]
    }

    fn shipped_kinds(part: &mut Part) -> Vec<&'static str> {
        let shipped = part.repl_fetch(0, 0, 10).unwrap();
        shipped.iter().map(|(_, record)| record.kind()).collect()
    }

    /// Runs a tick that must crash the partition; returns the panic message.
    fn crashing_tick(part: &mut Part, now: f64) -> String {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| part.tick(now)));
        let panic = outcome.expect_err("the tick must not produce an outcome");
        panic
            .downcast_ref::<String>()
            .expect("panic message")
            .clone()
    }

    /// A segment file whose `sync` announces itself, then waits to be
    /// released — the disk that is slower than the engine round.
    struct GatedFile {
        file: std::fs::File,
        entered: Sender<()>,
        release: Arc<std::sync::Mutex<Receiver<()>>>,
        order: Arc<std::sync::Mutex<Vec<&'static str>>>,
    }

    impl crate::wal::WalFile for GatedFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            std::io::Write::write_all(&mut self.file, buf)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.order.lock().unwrap().push("sync entered");
            self.entered.send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            self.file.sync_data()?;
            self.order.lock().unwrap().push("sync done");
            Ok(())
        }
    }

    #[test]
    fn tick_outcome_waits_for_the_overlapped_fsync() {
        let dir = tempdir("gated");
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let file_order = Arc::clone(&order);
        let mut part = durable_with(&dir, move |file| GatedFile {
            file,
            entered: entered_tx.clone(),
            release: Arc::clone(&release_rx),
            order: Arc::clone(&file_order),
        });
        part.enable_replication();
        part.submit(batch(0));

        let (returned_tx, returned) = channel();
        let tick_order = Arc::clone(&order);
        let ticking = std::thread::spawn(move || {
            let tick = part.tick(0.0);
            tick_order.lock().unwrap().push("tick returned");
            returned_tx.send(()).unwrap();
            (part, tick)
        });
        // The sync is in flight and the engine round runs beside it, but
        // with the disk held the tick cannot return: a correct partition
        // waits here for as long as we care to hold it.
        entered.recv().unwrap();
        assert!(
            returned
                .recv_timeout(std::time::Duration::from_millis(300))
                .is_err(),
            "tick returned while its fsync was still in flight"
        );
        release.send(()).unwrap();
        let (mut part, tick) = ticking.join().unwrap();
        assert_eq!(
            *order.lock().unwrap(),
            ["sync entered", "sync done", "tick returned"]
        );
        assert_eq!(tick.report.new_assignments.len(), 1);
        assert_eq!(part.wal_stats().unwrap().fsyncs, 1);

        // Durable now, hence shippable: the stream ends with this tick.
        assert_eq!(shipped_kinds(&mut part), ["events", "tick"]);
        drop(part);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_overlapped_fsync_panics_and_recovers_the_durable_prefix() {
        use crate::wal::{FailpointWriter, FaultPlan};
        let dir = tempdir("syncfail");
        let plan = FaultPlan::new();
        let file_plan = plan.clone();
        let mut part = durable_with(&dir, move |file| {
            FailpointWriter::new(file, file_plan.clone())
        });
        part.enable_replication();
        let mut oracle = EnginePartition::new(engine());
        for p in [&mut part, &mut oracle] {
            p.submit(batch(0));
            p.tick(0.0);
        }

        // The disk goes away: nothing offered from here on persists, and
        // the next sync says so.
        plan.persist_at_most(plan.bytes_offered());
        plan.fail_sync();
        part.submit(batch(1));
        let message = crashing_tick(&mut part, 1.0);
        assert!(message.contains("crash-and-recover"), "{message}");
        // The failed tick never became shippable.
        assert_eq!(shipped_kinds(&mut part), ["events", "tick", "events"]);
        drop(part);

        let recovered = open_durable(&dir, WalConfig::default());
        assert_eq!(recovered.state_digest(), oracle.state_digest());
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A standby's log holds replication notes beside its commands; the
    /// recovery counts only the commands it replays after the checkpoint,
    /// while the scan still counts every frame.
    #[test]
    fn recovery_counts_the_replayed_commands_not_the_notes() {
        let dir = tempdir("notes");
        let mut part = open_durable(&dir, WalConfig::default());
        part.submit(batch(0));
        part.tick(0.0);
        let state = part.dump_state();
        let wal = part.wal.as_mut().unwrap();
        wal.append_checkpoint(&state, 1).unwrap();
        for acked in 1..=3 {
            wal.append(&WalRecord::ReplMeta {
                acked,
                sealed: false,
            })
            .unwrap();
        }
        part.submit(batch(1));
        part.tick(1.0);
        drop(part);

        let make_index = || GridIndex::new(Rect::unit(), 0.2);
        let (recovered, scan) = Part::open_durable(
            &dir,
            WalConfig::default(),
            EngineConfig::default(),
            make_index,
        )
        .unwrap();
        let stats = recovered.wal_stats().unwrap();
        assert!(stats.recovered_checkpoint);
        assert_eq!(stats.recovered_records, 2, "one event batch, one tick");
        assert_eq!(scan.recovered_records, 5, "three notes, two commands");
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversize_checkpoint_crashes_the_partition_with_its_log_intact() {
        let dir = tempdir("oversize");
        let wal_config = WalConfig {
            checkpoint_every_ticks: 2,
            ..WalConfig::default()
        };
        let mut part = open_durable(&dir, wal_config);
        let mut oracle = EnginePartition::new(engine());
        for p in [&mut part, &mut oracle] {
            p.submit(batch(0));
            p.tick(0.0);
            p.submit(batch(1));
        }
        oracle.tick(1.0);
        let checkpoint = crate::wal::encode_record(&WalRecord::Checkpoint(oracle.dump_state()));
        let wal = part.wal.as_mut().unwrap();
        wal.set_max_record_bytes(checkpoint.len() as u32 - 1);

        // The second tick is durable before its checkpoint is attempted;
        // the checkpoint is refused, and nothing was retired for it.
        let message = crashing_tick(&mut part, 1.0);
        assert!(message.contains("exceeds"), "{message}");
        assert_eq!(part.wal_stats().unwrap().segments_retired, 0);
        drop(part);

        let recovered = open_durable(&dir, wal_config);
        assert_eq!(recovered.state_digest(), oracle.state_digest());
        let stats = recovered.wal_stats().unwrap();
        assert!(!stats.recovered_checkpoint);
        assert_eq!(stats.recovered_records, 4, "two event batches, two ticks");
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_stages_cover_the_submit_time_append_and_the_join_wait() {
        let dir = tempdir("stages");
        let mut part = open_durable(&dir, WalConfig::default());
        part.submit(batch(0));
        assert!(part.submit_append_ns > 0, "submit times its append");
        let tick = part.tick(0.0);
        assert_eq!(
            part.submit_append_ns, 0,
            "the tick took the submit-time append over"
        );
        assert!(tick.report.stages.wal_append_us > 0);

        // A non-durable partition enters neither stage.
        let mut plain = EnginePartition::new(engine());
        plain.submit(batch(0));
        let tick = plain.tick(0.0);
        assert_eq!(tick.report.stages.wal_append_us, 0);
        assert_eq!(tick.report.stages.wal_fsync_us, 0);
        drop(part);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_tick_requires_begin_tick() {
        let mut c = client();
        assert!(matches!(
            c.finish_tick(),
            Err(PartitionError::Protocol { .. })
        ));
    }
}
