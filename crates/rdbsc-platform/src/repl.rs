//! Log-shipping replication: a partition's primary/standby pair, both
//! sides of the stream as one sans-IO state machine.
//!
//! The engine is a deterministic state machine, so replication is redo
//! shipping: a standby that starts from a state snapshot and applies the
//! same command records in the same order is **byte-identical by
//! construction** — the same property the WAL's crash recovery rests on,
//! now stretched over the wire. The stream ships the partition's
//! [`PartitionCommand`]s themselves, in the log's codec
//! ([`crate::wal::encode_command`]): the unit the primary logged and
//! applied is the unit the standby logs and applies. Bootstrap is the
//! checkpoint+tail recovery path served remotely (an encoded `Checkpoint`
//! record as the snapshot, then the live tail).
//!
//! ## The retained tail and its watermarks
//!
//! A [`ReplicationLog`] is the primary's in-memory publication buffer: every
//! command the partition logs is also published here under a dense
//! **stream lsn** (independent of WAL lsns, which restart across reboots —
//! a primary reboot always re-bootstraps the follower). The follower pulls
//! batches with [`ReplicationLog::fetch`] and acknowledges application with
//! [`ReplicationLog::ack`]; acknowledged records are dropped, so the
//! acknowledgement watermark is exactly what bounds retention. A follower
//! that stops pulling cannot wedge the primary: past the retention cap
//! (`max_retained`, [`DEFAULT_MAX_RETAINED`]) unacknowledged records the oldest are
//! discarded and the stream marks a reset — the follower's next fetch
//! reports a gap ([`ReplError::Gap`]) and it re-bootstraps from a fresh
//! snapshot.
//!
//! Checkpoints and `ReplMeta` notes cannot be shipped — the stream's type
//! has no place for them: the follower takes its own checkpoints at its own
//! tick cadence, and repl metadata is always local to the log that wrote it.
//!
//! ## One state machine
//!
//! A [`Replication`] value is all a daemon knows about replication — a
//! standby's cursor and next request, or a primary's single-follower
//! window and seal — kept under the engine's lock. It does no I/O and reads
//! no clock: time is the `now` argument. A standby's driver sends what
//! [`Replication::poll`] asks for and hands the outcome to
//! [`Replication::on_reply`]; [`Replication::serve`] answers requests. A
//! promotion that takes the lock first ends the standby, so a bootstrap or
//! batch arriving after it is discarded whole (nothing in it was
//! acknowledged, and a sealed stream must not grow); a refused promote
//! changes nothing.

use crate::protocol::{EnginePartition, PartitionCommand};
use crate::wal::{decode_command, decode_record, encode_command, encode_record};
use crate::wal::{PartitionState, WalRecord};
use rdbsc_index::SpatialIndex;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Default cap on unacknowledged retained records before the stream resets
/// (a dead follower must not grow the primary's memory unboundedly).
pub const DEFAULT_MAX_RETAINED: usize = 65_536;
/// How long an idle follower waits between fetches.
pub const FOLLOW_IDLE: Duration = Duration::from_millis(20);
/// How long a follower backs off after a failed bootstrap or fetch (a dead
/// primary is *normal*: a promotion or a shutdown decides what comes next).
pub const FOLLOW_RETRY: Duration = Duration::from_millis(100);
/// Commands pulled per fetch.
pub const FOLLOW_BATCH: u32 = 512;
/// How long after a served fetch a primary refuses a competing bootstrap.
/// The stream feeds **one** standby: each bootstrap rebases it, so two
/// would invalidate each other's cursors forever. A fetch that hits a gap
/// frees the window at once, so that follower's own re-bootstrap gets in.
pub const FOLLOWER_LIVENESS: Duration = Duration::from_secs(2);

/// Why a fetch could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// Replication was never enabled on this partition.
    NotEnabled,
    /// The requested lsn precedes the retained tail (the stream reset or
    /// the acknowledgement watermark already passed it): the follower must
    /// re-bootstrap from a fresh snapshot.
    Gap {
        /// The oldest lsn still retained.
        base: u64,
    },
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::NotEnabled => write!(f, "replication is not enabled"),
            ReplError::Gap { base } => {
                write!(
                    f,
                    "requested lsn precedes retained base {base}; re-bootstrap"
                )
            }
        }
    }
}

impl std::error::Error for ReplError {}

/// One replication request. The partition wire carries it as it is: a
/// frame is a request id around it.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplRequest {
    /// Start (or restart) the stream from a fresh snapshot.
    Bootstrap,
    /// Pull commands from `from`, acknowledging everything below `ack`.
    Fetch {
        /// The first stream lsn wanted.
        from: u64,
        /// The acknowledgement watermark (exclusive).
        ack: u64,
        /// At most this many commands.
        max: u32,
    },
    /// The replication counters.
    Status,
    /// Promote a standby to primary.
    Promote,
}

/// The answer to one [`ReplRequest`], variant for variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplReply {
    /// The snapshot a standby starts from.
    Bootstrap {
        /// The stream lsn of the first command published after it.
        start_lsn: u64,
        /// The state, as an encoded `WalRecord::Checkpoint`.
        state: Vec<u8>,
        /// The primary's configure payload (opaque here).
        configure: String,
    },
    /// A batch of shipped commands.
    Fetch {
        /// The primary's stream head (what lag is measured against).
        next_lsn: u64,
        /// `(lsn, command)` pairs, lsn-ascending, each command as the bytes
        /// of its log record ([`crate::wal::encode_command`]).
        records: Vec<(u64, Vec<u8>)>,
    },
    /// The replication counters.
    Status(ReplStatus),
    /// The standby sealed its stream and serves.
    Promote {
        /// The promoted state digest.
        digest: u64,
        /// Stream commands applied before the seal.
        applied: u64,
    },
}

/// Which side of a stream a partition is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplRole {
    /// No follower ever bootstrapped from it, and it is no standby.
    #[default]
    None,
    /// A stream source, or a promoted standby.
    Primary,
    /// An unpromoted standby.
    Standby,
}

impl ReplRole {
    /// The role's name on the wire and on `/metrics`.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplRole::None => "none",
            ReplRole::Primary => "primary",
            ReplRole::Standby => "standby",
        }
    }

    /// The role a name stands for.
    pub fn parse(name: &str) -> Option<Self> {
        [ReplRole::None, ReplRole::Primary, ReplRole::Standby]
            .into_iter()
            .find(|role| role.as_str() == name)
    }
}

/// The replication counters, one shape for every role; a field a role does
/// not track is zero. A primary's `lag` is `next_lsn - acked`, a standby's
/// `next_lsn - applied`; a promoted daemon reports its sealed cursor with
/// zero lag until a follower of its own bootstraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplStatus {
    /// Which side of the stream this is.
    pub role: ReplRole,
    /// The stream head (next lsn to publish, or the head last fetched).
    pub next_lsn: u64,
    /// The acknowledgement watermark.
    pub acked: u64,
    /// Records the primary retains.
    pub retained: u64,
    /// Times the retention cap reset the stream.
    pub resets: u64,
    /// Records a standby has applied.
    pub applied: u64,
    /// Unacknowledged (primary) or unapplied (standby) records.
    pub lag: u64,
    /// Did a promotion seal this stream?
    pub sealed: bool,
}

/// The primary's publication buffer — see the [module docs](self).
pub struct ReplicationLog {
    base: u64,
    tail: VecDeque<PartitionCommand>,
    acked: u64,
    max_retained: usize,
    resets: u64,
}

impl ReplicationLog {
    /// An empty stream whose first published record gets `start_lsn`.
    pub fn new(start_lsn: u64, max_retained: usize) -> Self {
        Self {
            base: start_lsn,
            tail: VecDeque::new(),
            acked: start_lsn,
            max_retained: max_retained.max(1),
            resets: 0,
        }
    }

    /// The lsn the next published record gets.
    pub fn next_lsn(&self) -> u64 {
        self.base + self.tail.len() as u64
    }

    /// Publishes one command at the stream head. Past the retention cap the
    /// oldest unacknowledged record is discarded (stream reset — the
    /// follower will observe a gap and re-bootstrap).
    pub fn publish(&mut self, command: PartitionCommand) {
        if self.tail.len() >= self.max_retained {
            self.tail.pop_front();
            self.base += 1;
            self.resets += 1;
        }
        self.tail.push_back(command);
    }

    /// Advances the acknowledgement watermark to `upto` (exclusive lsn of
    /// the highest applied record + 1) and drops acknowledged records.
    /// Watermarks never move backwards.
    pub fn ack(&mut self, upto: u64) {
        let upto = upto.min(self.next_lsn());
        if upto <= self.acked {
            return;
        }
        self.acked = upto;
        while self.base < self.acked {
            self.tail.pop_front();
            self.base += 1;
        }
    }

    /// Records from `from` (inclusive), at most `max` of them, paired with
    /// their lsns. A `from` below the retained base is a gap: the follower
    /// must re-bootstrap.
    pub fn fetch(&self, from: u64, max: usize) -> Result<Vec<(u64, PartitionCommand)>, ReplError> {
        if from < self.base {
            return Err(ReplError::Gap { base: self.base });
        }
        let skip = (from - self.base) as usize;
        Ok(self
            .tail
            .iter()
            .skip(skip)
            .take(max)
            .cloned()
            .enumerate()
            .map(|(i, command)| (from + i as u64, command))
            .collect())
    }

    /// Restarts the stream at the current head: retained records are
    /// dropped and the watermark jumps forward. Called when a follower
    /// (re-)bootstraps — the snapshot it just took covers everything
    /// published so far.
    pub fn rebase_to_head(&mut self) {
        self.base = self.next_lsn();
        self.tail.clear();
        self.acked = self.base;
    }

    /// The point-in-time stream counters, as a primary reports them.
    pub fn status(&self) -> ReplStatus {
        let next_lsn = self.next_lsn();
        ReplStatus {
            role: ReplRole::Primary,
            next_lsn,
            acked: self.acked,
            retained: self.tail.len() as u64,
            resets: self.resets,
            lag: next_lsn - self.acked,
            ..ReplStatus::default()
        }
    }
}

/// The engine a [`Replication`] runs beside.
pub trait ReplEngine {
    /// The partition's spatial index.
    type Index: SpatialIndex;

    /// The configured partition and the configure payload it was built
    /// from, or `None` before any.
    fn configured(&mut self) -> Option<(&mut EnginePartition<Self::Index>, &str)>;

    /// Replaces the partition with `state` under the settings `configure`
    /// names (a bootstrap). On `Err` the engine is left as it was.
    fn install(&mut self, configure: &str, state: PartitionState) -> Result<(), String>;
}

/// What a standby's driver does next.
#[derive(Debug, Clone, PartialEq)]
pub enum Poll {
    /// Send this request and hand the outcome to [`Replication::on_reply`].
    Send(ReplRequest),
    /// Nothing to send before this instant.
    WaitUntil(Instant),
    /// Not (or no longer) a standby.
    Stop,
}

/// Why an exchange with the primary brought back no reply to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplFailure {
    /// The exchange failed in transit: the primary may be dead.
    Io(String),
    /// The primary answered an error.
    Refused {
        /// Its HTTP-style status (`409`: the stream restarted).
        status: u16,
        /// What it said.
        detail: String,
    },
    /// What came back is not a reply to the request.
    Malformed(String),
}

/// A standby's place in the stream: every lsn below `applied` is applied,
/// and `head` is the primary's head at the last fetch.
#[derive(Clone, Copy, Default)]
struct Cursor {
    applied: u64,
    head: u64,
}

impl Cursor {
    fn status(self) -> ReplStatus {
        let head = self.head.max(self.applied);
        ReplStatus {
            role: ReplRole::Standby,
            next_lsn: head,
            acked: self.applied,
            applied: self.applied,
            lag: head - self.applied,
            ..ReplStatus::default()
        }
    }
}

#[derive(Default)]
struct Follower {
    cursor: Cursor,
    /// `false` until a bootstrap installs, and again once the stream
    /// broke: the next request is then a bootstrap.
    streaming: bool,
    resume_at: Option<Instant>,
    /// The last failure reported, so a refusal repeated every retry is
    /// reported once.
    last_failure: Option<String>,
}

enum Role {
    Primary {
        /// Where a promotion sealed this daemon's incoming stream.
        sealed_at: Option<Cursor>,
        /// When its follower last fetched ([`FOLLOWER_LIVENESS`]).
        fetched_at: Option<Instant>,
    },
    Standby(Follower),
}

/// Both sides of the stream — see [One state machine](self#one-state-machine).
pub struct Replication {
    role: Role,
}

impl Replication {
    /// A primary: serves a follower once one bootstraps.
    pub fn primary() -> Self {
        Self {
            role: Role::Primary {
                sealed_at: None,
                fetched_at: None,
            },
        }
    }

    /// A standby that has not bootstrapped yet.
    pub fn standby() -> Self {
        Self {
            role: Role::Standby(Follower::default()),
        }
    }

    /// Is this an unpromoted standby?
    pub fn is_standby(&self) -> bool {
        matches!(self.role, Role::Standby(_))
    }

    /// What the standby's driver does next, at `now`.
    pub fn poll(&self, now: Instant) -> Poll {
        match &self.role {
            Role::Primary { .. } => Poll::Stop,
            Role::Standby(f) => match f.resume_at {
                Some(at) if now < at => Poll::WaitUntil(at),
                _ if !f.streaming => Poll::Send(ReplRequest::Bootstrap),
                _ => {
                    let (from, max) = (f.cursor.applied, FOLLOW_BATCH);
                    Poll::Send(ReplRequest::Fetch {
                        from,
                        ack: from,
                        max,
                    })
                }
            },
        }
    }

    /// Takes the outcome of the request [`Replication::poll`] last asked
    /// for: installs a bootstrap or applies a batch. A failed bootstrap, a
    /// `409` to a fetch (the stream restarted), and a batch that does not
    /// apply restart the stream after [`FOLLOW_RETRY`]; any other failed
    /// fetch retries from the same cursor. Returns a line worth logging.
    /// After a promotion the outcome is discarded whole.
    pub fn on_reply<E: ReplEngine>(
        &mut self,
        now: Instant,
        reply: Result<ReplReply, ReplFailure>,
        engine: &mut E,
    ) -> Option<String> {
        let Role::Standby(f) = &mut self.role else {
            return None;
        };
        let bootstrapping = !f.streaming;
        let step = match (f.streaming, reply) {
            (
                false,
                Ok(ReplReply::Bootstrap {
                    start_lsn,
                    state,
                    configure,
                }),
            ) => f.install(start_lsn, &state, &configure, engine),
            (true, Ok(ReplReply::Fetch { next_lsn, records })) => {
                f.cursor.head = next_lsn.max(f.cursor.applied);
                match engine.configured() {
                    _ if records.is_empty() => Ok(Some(FOLLOW_IDLE)),
                    Some((part, _)) => apply_batch(&mut f.cursor.applied, part, &records),
                    None => Err("no engine to apply the stream to".to_string()),
                }
            }
            (
                true,
                Err(ReplFailure::Refused {
                    status: 409,
                    detail,
                }),
            ) => Err(format!("stream restarted on the primary: {detail}")),
            (true, Err(ReplFailure::Refused { .. } | ReplFailure::Io(_))) => Ok(Some(FOLLOW_RETRY)),
            (streaming, reply) => {
                let asked = if streaming { "fetch" } else { "bootstrap" };
                Err(match reply {
                    Ok(_) => format!("{asked}: not its reply"),
                    Err(ReplFailure::Refused { status, detail }) => {
                        format!("{asked} answered {status}: {detail}")
                    }
                    Err(ReplFailure::Io(why) | ReplFailure::Malformed(why)) => {
                        format!("{asked}: {why}")
                    }
                })
            }
        };
        match step {
            Ok(wait) => {
                f.resume_at = wait.map(|wait| now + wait);
                let start = f.cursor.applied;
                bootstrapping.then(|| format!("standby bootstrapped at stream lsn {start}"))
            }
            Err(why) => {
                f.streaming = false;
                f.resume_at = Some(now + FOLLOW_RETRY);
                let repeated = f.last_failure.as_ref() == Some(&why);
                f.last_failure = Some(why.clone());
                (!repeated).then(|| format!("{why}; retrying"))
            }
        }
    }

    /// Answers one request at `now`: a primary serves its follower's
    /// bootstrap and fetch, a standby is promoted, and either reports its
    /// status. `Err` is a refusal the wire answers `409`.
    pub fn serve<E: ReplEngine>(
        &mut self,
        now: Instant,
        request: ReplRequest,
        engine: &mut E,
    ) -> Result<ReplReply, String> {
        let configured = engine
            .configured()
            .ok_or("not configured: nothing to replicate yet");
        match (&mut self.role, request) {
            (_, ReplRequest::Status) => Ok(ReplReply::Status(
                self.status(configured.ok().map(|(part, _)| &*part)),
            )),
            (Role::Standby(f), ReplRequest::Promote) => {
                // Refused before anything changes if nothing is installed.
                let (part, _) = configured?;
                let cursor = f.cursor;
                let digest = part.seal_replication(cursor.applied);
                self.role = Role::Primary {
                    sealed_at: Some(cursor),
                    fetched_at: None,
                };
                Ok(ReplReply::Promote {
                    digest,
                    applied: cursor.applied,
                })
            }
            (Role::Standby(_), _) => Err("a standby is not a replication source".to_string()),
            (Role::Primary { .. }, ReplRequest::Promote) => {
                Err("not a standby — nothing to promote".to_string())
            }
            (Role::Primary { fetched_at, .. }, ReplRequest::Fetch { from, ack, max }) => {
                let (part, _) = configured?;
                // A served fetch holds the single-follower window; a gap
                // (or a disabled stream) frees it.
                let records = part.repl_fetch(from, ack, max as usize);
                *fetched_at = records.is_ok().then_some(now);
                let records = records.map_err(|e| format!("replication fetch: {e}"))?;
                let next_lsn = part.repl_status().unwrap_or_default().next_lsn;
                let records = records
                    .into_iter()
                    .map(|(lsn, c)| (lsn, encode_command(&c)));
                Ok(ReplReply::Fetch {
                    next_lsn,
                    records: records.collect(),
                })
            }
            (Role::Primary { fetched_at, .. }, ReplRequest::Bootstrap) => {
                if fetched_at.is_some_and(|at| now - at < FOLLOWER_LIVENESS) {
                    return Err("another follower is streaming from this primary \
                                (single-standby topology); retry after it stops"
                        .to_string());
                }
                let (part, configure) = configured?;
                *fetched_at = None;
                let (state, start_lsn) = part.enable_replication();
                let state = encode_record(&WalRecord::Checkpoint(state));
                Ok(ReplReply::Bootstrap {
                    start_lsn,
                    state,
                    configure: configure.to_string(),
                })
            }
        }
    }

    /// The counters, from whichever side this is on (`part` is the
    /// configured partition, if any). A promoted daemon serving a follower
    /// of its own reports its live stream counters, `sealed` still set.
    pub fn status<I: SpatialIndex>(&self, part: Option<&EnginePartition<I>>) -> ReplStatus {
        match (&self.role, part.and_then(EnginePartition::repl_status)) {
            (Role::Standby(f), _) => f.cursor.status(),
            (Role::Primary { sealed_at, .. }, Some(live)) => ReplStatus {
                sealed: sealed_at.is_some(),
                ..live
            },
            (
                Role::Primary {
                    sealed_at: Some(cursor),
                    ..
                },
                None,
            ) => {
                let (role, lag, sealed) = (ReplRole::Primary, 0, true);
                ReplStatus {
                    role,
                    lag,
                    sealed,
                    ..cursor.status()
                }
            }
            (
                Role::Primary {
                    sealed_at: None, ..
                },
                None,
            ) => ReplStatus::default(),
        }
    }
}

impl Follower {
    /// Installs a bootstrap: the stream then runs from `start_lsn`.
    fn install<E: ReplEngine>(
        &mut self,
        start_lsn: u64,
        state: &[u8],
        configure: &str,
        engine: &mut E,
    ) -> Result<Option<Duration>, String> {
        match decode_record(state).map_err(|e| format!("bootstrap state: {e}"))? {
            WalRecord::Checkpoint(state) => engine.install(configure, state)?,
            _ => return Err("bootstrap state is not a checkpoint record".to_string()),
        }
        let cursor = Cursor {
            applied: start_lsn,
            head: start_lsn,
        };
        *self = Follower {
            cursor,
            streaming: true,
            ..Follower::default()
        };
        Ok(None)
    }
}

/// Applies one fetched batch through the ordinary command path
/// (log-then-apply: a durable standby's own log stays a valid recovery
/// source). The batch is decoded whole before any of it applies: bytes that
/// are not a command, or lsns that are not dense from the cursor, fail it
/// with the cursor where it was, and the follower re-bootstraps — it never
/// acknowledges an lsn it applied nothing for.
fn apply_batch<I: SpatialIndex>(
    applied: &mut u64,
    part: &mut EnginePartition<I>,
    records: &[(u64, Vec<u8>)],
) -> Result<Option<Duration>, String> {
    let mut commands = Vec::with_capacity(records.len());
    for (expected, (lsn, bytes)) in (*applied..).zip(records) {
        if *lsn != expected {
            return Err(format!("stream skipped from {expected} to {lsn}"));
        }
        commands.push(decode_command(bytes).map_err(|e| format!("shipped command {lsn}: {e}"))?);
    }
    for command in commands {
        part.apply(0, command);
        *applied += 1;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AssignmentEngine, EngineConfig, EngineEvent};
    use rdbsc_geo::{AngleRange, Point, Rect};
    use rdbsc_index::FlatGridIndex;
    use rdbsc_model::{Confidence, Task, TaskId, TimeWindow, Worker, WorkerId};

    fn tick(now: f64) -> PartitionCommand {
        PartitionCommand::Tick { now }
    }

    fn index() -> FlatGridIndex {
        FlatGridIndex::new(Rect::unit(), 0.1)
    }

    fn fresh() -> EnginePartition<FlatGridIndex> {
        EnginePartition::new(AssignmentEngine::new(index(), EngineConfig::default()))
    }

    /// Round `i`'s traffic: a task and a worker beside it, then a tick.
    fn round(i: u32) -> [PartitionCommand; 2] {
        let (x, y) = (
            0.1 + 0.07 * f64::from(i % 12),
            0.2 + 0.05 * f64::from(i % 9),
        );
        let task = Task::new(
            TaskId(i),
            Point::new(x, y),
            TimeWindow::new(0.0, 50.0).unwrap(),
        );
        let worker = Worker::new(
            WorkerId(i),
            Point::new(x, y - 0.03),
            0.4,
            AngleRange::full(),
            Confidence::new(0.9).unwrap(),
        )
        .unwrap();
        [
            PartitionCommand::Submit(vec![
                EngineEvent::TaskArrived(task),
                EngineEvent::WorkerCheckIn(worker),
            ]),
            tick(0.25 * f64::from(i + 1)),
        ]
    }

    /// An in-memory engine slot: what a non-durable daemon installs into.
    #[derive(Default)]
    struct Slot(Option<(EnginePartition<FlatGridIndex>, String)>);

    impl ReplEngine for Slot {
        type Index = FlatGridIndex;

        fn configured(&mut self) -> Option<(&mut EnginePartition<FlatGridIndex>, &str)> {
            self.0
                .as_mut()
                .map(|(part, configure)| (part, configure.as_str()))
        }

        fn install(&mut self, configure: &str, state: PartitionState) -> Result<(), String> {
            let part = EnginePartition::from_state(state, EngineConfig::default(), index);
            self.0 = Some((part, configure.to_string()));
            Ok(())
        }
    }

    impl Slot {
        fn digest(&self) -> u64 {
            self.0.as_ref().expect("configured").0.state_digest()
        }
    }

    /// A primary partition with its replication state, answering in memory
    /// the way a daemon answers over the wire (a refusal is a `409`), and
    /// remembering its digest at every stream lsn.
    struct Primary {
        repl: Replication,
        slot: Slot,
        digests: Vec<(u64, u64)>,
    }

    impl Primary {
        fn new() -> Self {
            let mut primary = Self {
                repl: Replication::primary(),
                slot: Slot(Some((fresh(), "the primary's configure".to_string()))),
                digests: Vec::new(),
            };
            primary.run(0..2);
            primary
        }

        fn part(&mut self) -> &mut EnginePartition<FlatGridIndex> {
            self.slot.configured().expect("configured").0
        }

        fn run(&mut self, rounds: std::ops::Range<u32>) {
            for command in rounds.flat_map(round) {
                self.part().apply(0, command);
                let (lsn, digest) = (self.part().repl_status(), self.part().state_digest());
                if let Some(status) = lsn {
                    self.digests.push((status.next_lsn, digest));
                }
            }
        }

        fn digest_at(&self, lsn: u64) -> u64 {
            self.digests
                .iter()
                .rev()
                .find(|(at, _)| *at == lsn)
                .expect("a published lsn")
                .1
        }

        fn answer(&mut self, now: Instant, request: ReplRequest) -> Result<ReplReply, ReplFailure> {
            let reply = self.repl.serve(now, request, &mut self.slot);
            if let Ok(ReplReply::Bootstrap { start_lsn, .. }) = &reply {
                let digest = self.slot.digest();
                self.digests.push((*start_lsn, digest));
            }
            reply.map_err(|detail| ReplFailure::Refused {
                status: 409,
                detail,
            })
        }
    }

    /// A standby: its replication state and its engine slot.
    #[derive(Default)]
    struct Standby {
        repl: Option<Replication>,
        slot: Slot,
    }

    impl Standby {
        fn new() -> Self {
            Self {
                repl: Some(Replication::standby()),
                slot: Slot::default(),
            }
        }

        fn repl(&mut self) -> &mut Replication {
            self.repl.as_mut().expect("a replication state")
        }

        /// The request the follower sends at `now`, if it sends one.
        fn request(&mut self, now: Instant) -> Option<ReplRequest> {
            match self.repl().poll(now) {
                Poll::Send(request) => Some(request),
                _ => None,
            }
        }

        /// One driver turn at `now`: poll, exchange, hand back the reply.
        fn step(&mut self, now: Instant, primary: &mut Primary) -> Poll {
            let poll = self.repl().poll(now);
            if let Poll::Send(request) = &poll {
                let reply = primary.answer(now, request.clone());
                self.deliver(now, reply);
            }
            poll
        }

        fn deliver(&mut self, now: Instant, reply: Result<ReplReply, ReplFailure>) {
            let mut repl = self.repl.take().expect("a replication state");
            repl.on_reply(now, reply, &mut self.slot);
            self.repl = Some(repl);
        }

        fn promote(&mut self, now: Instant) -> Result<ReplReply, String> {
            let mut repl = self.repl.take().expect("a replication state");
            let promoted = repl.serve(now, ReplRequest::Promote, &mut self.slot);
            self.repl = Some(repl);
            promoted
        }

        fn status(&self) -> ReplStatus {
            let part = self.slot.0.as_ref().map(|(part, _)| part);
            self.repl
                .as_ref()
                .expect("a replication state")
                .status(part)
        }
    }

    /// The follower against a primary partition on one thread, time passed
    /// in as synthetic instants: no socket, no sleep.
    #[test]
    fn the_follower_state_machine_runs_without_io() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let fetch = |from| ReplRequest::Fetch {
            from,
            ack: from,
            max: FOLLOW_BATCH,
        };
        let mut primary = Primary::new();
        let mut standby = Standby::new();

        // A refused promote: nothing bootstrapped yet, nothing changes.
        assert!(standby.promote(at(0)).is_err());
        assert!(standby.repl().is_standby());
        assert_eq!(standby.status().role, ReplRole::Standby);

        // Bootstrap, then fetch and apply.
        assert_eq!(
            standby.step(at(0), &mut primary),
            Poll::Send(ReplRequest::Bootstrap)
        );
        let start = standby.status().applied;
        assert_eq!(start, 0, "the stream starts where replication was enabled");
        assert_eq!(standby.slot.digest(), primary.slot.digest());
        assert_eq!(
            standby.slot.0.as_ref().unwrap().1,
            "the primary's configure"
        );
        primary.run(2..5);
        assert_eq!(standby.step(at(0), &mut primary), Poll::Send(fetch(start)));
        assert_eq!(standby.slot.digest(), primary.slot.digest());
        let caught_up = standby.status();
        assert_eq!((caught_up.applied, caught_up.lag), (start + 6, 0));

        // Idle: an empty fetch waits FOLLOW_IDLE.
        assert_eq!(
            standby.step(at(0), &mut primary),
            Poll::Send(fetch(start + 6))
        );
        assert_eq!(
            standby.repl().poll(at(1)),
            Poll::WaitUntil(at(0) + FOLLOW_IDLE)
        );
        assert_eq!(standby.request(at(0) + FOLLOW_IDLE), Some(fetch(start + 6)));

        // An I/O error waits FOLLOW_RETRY and stays bootstrapped: the next
        // request fetches from the same cursor.
        primary.run(5..6);
        standby.deliver(at(20), Err(ReplFailure::Io("connection reset".into())));
        assert_eq!(
            standby.repl().poll(at(20)),
            Poll::WaitUntil(at(20) + FOLLOW_RETRY)
        );
        assert_eq!(
            standby.step(at(120), &mut primary),
            Poll::Send(fetch(start + 6))
        );
        assert_eq!(standby.slot.digest(), primary.slot.digest());
        let applied = standby.status().applied;
        assert_eq!(applied, start + 8);

        // A second follower is refused inside the first one's liveness
        // window and let in after it.
        let mut second = Standby::new();
        let fetched = at(120);
        let inside = fetched + Duration::from_secs(1);
        assert_eq!(
            second.step(inside, &mut primary),
            Poll::Send(ReplRequest::Bootstrap)
        );
        assert!(second.slot.0.is_none(), "refused inside the window");
        assert_eq!(second.status().applied, 0);
        primary.run(6..8);
        let after = fetched + FOLLOWER_LIVENESS;
        assert_eq!(
            second.step(after, &mut primary),
            Poll::Send(ReplRequest::Bootstrap)
        );
        assert_eq!(second.slot.digest(), primary.slot.digest());

        // That bootstrap rebased the stream: the first follower's next
        // fetch is a 409 gap, and it re-bootstraps after FOLLOW_RETRY.
        assert_eq!(
            standby.step(after, &mut primary),
            Poll::Send(fetch(applied))
        );
        assert_ne!(standby.slot.digest(), primary.slot.digest());
        assert_eq!(standby.status().applied, applied, "a gap applies nothing");
        assert_eq!(
            standby.repl().poll(after),
            Poll::WaitUntil(after + FOLLOW_RETRY)
        );
        let retry = after + FOLLOW_RETRY;

        // A promote racing that re-bootstrap: the promote takes the engine
        // first, the bootstrap reply comes after it and is discarded.
        let bootstrap = standby.request(retry).expect("a re-bootstrap");
        assert_eq!(bootstrap, ReplRequest::Bootstrap);
        let in_flight = primary.answer(retry, bootstrap);
        assert!(
            matches!(in_flight, Ok(ReplReply::Bootstrap { .. })),
            "{in_flight:?}"
        );
        let sealed_at = primary.digest_at(applied);
        assert_eq!(
            standby.promote(retry),
            Ok(ReplReply::Promote {
                digest: sealed_at,
                applied,
            })
        );
        standby.deliver(retry, in_flight);
        assert_eq!(
            standby.slot.digest(),
            sealed_at,
            "the bootstrap was discarded"
        );
        assert_eq!(standby.repl().poll(retry), Poll::Stop);
        let sealed = standby.status();
        assert_eq!(sealed.role, ReplRole::Primary);
        assert!(sealed.sealed);
        assert_eq!((sealed.applied, sealed.lag), (applied, 0));

        // A promote racing an in-flight batch: the batch is discarded whole
        // and the seal lands on the applied prefix.
        primary.run(8..10);
        let second_applied = second.status().applied;
        let batch = second.request(retry).expect("a fetch");
        let in_flight = primary.answer(retry, batch);
        assert!(matches!(&in_flight, Ok(ReplReply::Fetch { records, .. }) if records.len() == 4));
        let Ok(ReplReply::Promote { digest, applied }) = second.promote(retry) else {
            panic!("a bootstrapped standby promotes");
        };
        assert_eq!(
            (digest, applied),
            (primary.digest_at(second_applied), second_applied)
        );
        second.deliver(retry, in_flight);
        assert_eq!(second.slot.digest(), digest, "the batch was discarded");
        assert_eq!(second.status().applied, second_applied);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    /// The stream ships commands. A fetch reply that carries anything else
    /// — here a checkpoint record, hand-encoded where a command belongs —
    /// used to be decoded as a `WalRecord`, dropped by the replay dispatch,
    /// and *acknowledged*: the cursor moved past an lsn that applied
    /// nothing. It must fail the batch whole instead.
    #[test]
    fn a_shipped_record_that_is_not_a_command_fails_the_batch_and_moves_nothing() {
        let mut part = fresh();
        let before = part.state_digest();
        let mut applied = 40;

        let tick = |now| encode_command(&tick(now));
        let checkpoint = encode_record(&WalRecord::Checkpoint(fresh().dump_state()));
        let records = vec![(40, tick(0.5)), (41, checkpoint), (42, tick(1.0))];
        // The follower refuses the batch: not even the good command ahead
        // of the checkpoint is applied, and the cursor stays.
        let refusal = apply_batch(&mut applied, &mut part, &records).unwrap_err();
        assert!(refusal.contains("shipped command 41"), "{refusal}");
        assert_eq!(applied, 40);
        assert_eq!(part.state_digest(), before);

        // The same batch without the stray record applies and acknowledges.
        apply_batch(&mut applied, &mut part, &[(40, tick(0.5)), (41, tick(1.0))]).unwrap();
        assert_eq!(applied, 42);
        assert_ne!(part.state_digest(), before);
    }

    #[test]
    fn publish_fetch_ack_round_trips() {
        let mut log = ReplicationLog::new(0, 100);
        for i in 0..5 {
            log.publish(tick(i as f64));
        }
        assert_eq!(log.next_lsn(), 5);
        let batch = log.fetch(0, 3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], (0, tick(0.0)));
        assert_eq!(batch[2], (2, tick(2.0)));

        log.ack(3);
        let status = log.status();
        assert_eq!(status.acked, 3);
        assert_eq!(status.next_lsn - status.retained, 3);
        assert_eq!(status.retained, 2);
        // Acked records are gone; fetching them is a gap.
        assert_eq!(log.fetch(0, 10), Err(ReplError::Gap { base: 3 }));
        // Watermarks never regress.
        log.ack(1);
        assert_eq!(log.status().acked, 3);
        // Fetch at the head is empty, not an error.
        assert_eq!(log.fetch(5, 10).unwrap(), vec![]);
    }

    #[test]
    fn retention_cap_resets_the_stream() {
        let mut log = ReplicationLog::new(0, 4);
        for i in 0..10 {
            log.publish(tick(i as f64));
        }
        let status = log.status();
        assert_eq!(status.retained, 4);
        assert_eq!(status.next_lsn - status.retained, 6);
        assert_eq!(status.resets, 6);
        assert_eq!(log.fetch(5, 10), Err(ReplError::Gap { base: 6 }));
        let batch = log.fetch(6, 10).unwrap();
        assert_eq!(batch.first().unwrap().0, 6);
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn rebase_jumps_to_the_head() {
        let mut log = ReplicationLog::new(0, 100);
        for i in 0..7 {
            log.publish(tick(i as f64));
        }
        log.rebase_to_head();
        let status = log.status();
        assert_eq!(status.next_lsn, 7);
        assert_eq!(status.acked, 7);
        assert_eq!(status.retained, 0);
        log.publish(tick(7.0));
        assert_eq!(log.fetch(7, 10).unwrap(), vec![(7, tick(7.0))]);
    }
}
