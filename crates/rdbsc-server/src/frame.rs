//! Length-prefixed binary framing for the partition protocol — the hot
//! command path between router and `rdbsc-partitiond` daemons.
//!
//! This is the only protocol between router and daemon — the handshake
//! (`Hello`, `Configure`) and every command after it; a daemon's HTTP is
//! the ops surface only, see [`crate::partitiond`]. Floats travel as their
//! IEEE-754 bit patterns verbatim, integers are little-endian fixed-width,
//! and every frame is length-prefixed so the reader never scans for
//! delimiters. Frames carry
//! the platform's own values, written and read by the platform's own codec
//! ([`rdbsc_platform::wal::Encoder`] / [`rdbsc_platform::wal::Decoder`]): a
//! frame is a request id around a [`RequestBody`], and the data-path body is
//! the platform's own [`PartitionRequest`] (its reply a [`PartitionReply`]),
//! so a [`PartitionCommand`] has one binary encoding whether it is logged,
//! shipped to a standby or routed to a daemon. Nothing here re-declares a
//! request.
//!
//! ## Frame layout
//!
//! ```text
//!   offset  size  field
//!   0       2     magic 0xB5 0xDC   (0xB5 is non-ASCII: one byte is
//!                                    enough to tell a frame from "GET "
//!                                    or "POST" on a shared listener)
//!   2       1     frame version (3)
//!   3       1     command tag
//!   4       8     request id, u64 LE
//!   12      4     payload length, u32 LE
//!   16      ...   payload
//! ```
//!
//! ## Tags
//!
//! Request tags are the [`Tag`] enum. The first four *are* the
//! [`PartitionCommand`] tags — the byte that opens the command's log record
//! is the byte in its frame header:
//!
//! | Tag | Request body | Payload |
//! |---|---|---|
//! | `0x01`, `0x02` | `Partition(Apply)`: submit, tick | trace `u64`, then the command's record body |
//! | `0x03`, `0x04` | `Partition(Apply)`: answer, release | the command's record body |
//! | `0x05`–`0x08` | `Partition`: assignments, snapshot, is_active, has_worker | — / worker |
//! | `0x09`, `0x0A` | `Partition`: drain, shutdown | — |
//! | `0x0B`–`0x0E` | repl bootstrap / fetch / status / promote | see [`RequestBody`] |
//! | `0x0F`, `0x10` | hello, configure | — / the configure JSON text |
//!
//! The matching reply tag is the request tag with the high bit ([`REPLY`])
//! set, and [`ERROR`] (`0xFF`) is the error reply (an HTTP-style status +
//! detail). A tag byte is turned into a [`Tag`] once, by `TryFrom<u8>`, and
//! the codec after that is an exhaustive `match`: a new tag without its
//! decode arm and its reply arm does not compile. A daemon answers a
//! `Partition` body with one `EnginePartition::serve` call and each control
//! body with its own arm, behind one refusal row per body kind. The request
//! id is echoed in the reply header, which is what makes **pipelining**
//! safe: a client may write several frames before reading any reply, and
//! replies come back in order, each naming the request it answers.
//!
//! The decoder is hostile-input safe by construction: every read is
//! bounds-checked against the declared payload, collection counts are
//! validated against the bytes actually present before any allocation,
//! and trailing garbage fails the frame. Malformed frames produce
//! [`FrameError::Malformed`], never a panic (property-tested in
//! `tests/proptest_frame.rs`). What a well-formed command may *say* is a
//! second, separate step — [`RequestFrame::admit`].

use crate::protocol::Hello;
use rdbsc_index::MaintenanceCounters;
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Contribution, TaskId, WorkerId};
use rdbsc_platform::wal::{Decoder, Encoder};
use rdbsc_platform::{
    CommandOutcome, EngineEvent, EngineObjective, EngineSnapshot, PartitionCommand, PartitionReply,
    PartitionRequest, PartitionTick, ReplReply, ReplRequest, ReplRole, ReplStatus, TickReport,
    WalError, WalStats,
};
use std::io::{BufRead, Write};

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = [0xB5, 0xDC];
/// The framing revision (independent of the logical
/// `rdbsc_platform::PROTOCOL_VERSION`, which governs command semantics).
pub const FRAME_VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Reply tags set this bit of their request tag.
pub const REPLY: u8 = 0x80;
/// The error reply's tag (any request may be answered with it).
pub const ERROR: u8 = 0xFF;

/// Declares [`Tag`] and [`Tag::ALL`] from one list, so the table of all
/// tags cannot miss a variant.
macro_rules! request_tags {
    ($($(#[$doc:meta])* $name:ident = $value:expr,)*) => {
        /// A request's command tag. Duplicate values do not compile.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Tag {
            $($(#[$doc])* $name = $value,)*
        }

        impl Tag {
            /// Every request tag, in declaration order.
            pub const ALL: &'static [Tag] = &[$(Tag::$name,)*];
        }
    };
}

request_tags! {
    /// `submit` — [`PartitionCommand::Submit`], a routed event batch.
    Submit = PartitionCommand::SUBMIT,
    /// `tick` — [`PartitionCommand::Tick`], one lockstep engine round.
    Tick = PartitionCommand::TICK,
    /// `answer` — [`PartitionCommand::Answer`], bank an en-route worker's
    /// answer.
    Answer = PartitionCommand::ANSWER,
    /// `release` — [`PartitionCommand::Release`], release an en-route
    /// worker.
    Release = PartitionCommand::RELEASE,
    /// `assignments` — the standing committed pairs.
    Assignments = 0x05,
    /// `snapshot` — the partition's serving state.
    Snapshot = 0x06,
    /// `is_active` — pending events or live tasks?
    IsActive = 0x07,
    /// `has_worker` — residency probe.
    HasWorker = 0x08,
    /// `drain` — stop taking new commands.
    Drain = 0x09,
    /// `shutdown` — stop the daemon.
    Shutdown = 0x0A,
    /// `repl_bootstrap` — [`ReplRequest::Bootstrap`], a state snapshot.
    ReplBootstrap = 0x0B,
    /// `repl_fetch` — [`ReplRequest::Fetch`], shipped commands.
    ReplFetch = 0x0C,
    /// `repl_status` — [`ReplRequest::Status`], the counters.
    ReplStatus = 0x0D,
    /// `repl_promote` — [`ReplRequest::Promote`], standby to primary.
    ReplPromote = 0x0E,
    /// `hello` — the daemon's protocol version and state; the first
    /// exchange of an attach and of a promotion.
    Hello = 0x0F,
    /// `configure` — build the engine from the routing table, region index
    /// and engine config (idempotent for the identical payload).
    Configure = 0x10,
}

impl TryFrom<u8> for Tag {
    type Error = FrameError;

    fn try_from(byte: u8) -> Result<Self, FrameError> {
        Tag::ALL
            .iter()
            .copied()
            .find(|tag| *tag as u8 == byte)
            .ok_or_else(|| malformed(format!("unknown command tag {byte:#04x}")))
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed mid-frame.
    Io(std::io::Error),
    /// The bytes are not a valid frame (bad magic/version/tag, truncated
    /// or oversized payload, malformed field).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The platform codec's refusals name the field (`invalid confidence`, …):
/// the text a `400` reply carries.
impl From<WalError> for FrameError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Corrupt(what) => FrameError::Malformed(what),
            other => FrameError::Malformed(other.to_string()),
        }
    }
}

fn malformed(detail: impl Into<String>) -> FrameError {
    FrameError::Malformed(detail.into())
}

/// A frame as read off the wire, before command decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrame {
    /// The command tag.
    pub tag: u8,
    /// The request id.
    pub request_id: u64,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Builds the 16-byte header for a frame.
pub fn header(tag: u8, request_id: u64, payload_len: usize) -> [u8; HEADER_LEN] {
    let mut head = [0u8; HEADER_LEN];
    head[0..2].copy_from_slice(&MAGIC);
    head[2] = FRAME_VERSION;
    head[3] = tag;
    head[4..12].copy_from_slice(&request_id.to_le_bytes());
    head[12..16].copy_from_slice(&(payload_len as u32).to_le_bytes());
    head
}

/// Writes `head` then `body` in full, using vectored writes so both land
/// in one syscall when the transport accepts them together. Loops on
/// partial writes (re-slicing by hand — no unstable `IoSlice` advancing),
/// and treats a zero-length write as the peer gone.
pub fn write_all_vectored<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let (mut head, mut body) = (head, body);
    while !head.is_empty() || !body.is_empty() {
        let n = if head.is_empty() {
            w.write(body)?
        } else {
            w.write_vectored(&[std::io::IoSlice::new(head), std::io::IoSlice::new(body)])?
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "peer stopped accepting bytes mid-frame",
            ));
        }
        let from_head = n.min(head.len());
        head = &head[from_head..];
        body = &body[n - from_head..];
    }
    Ok(())
}

/// Writes one frame (header + payload, vectored) and returns the bytes
/// put on the wire. The caller flushes.
pub fn write_frame<W: Write>(
    w: &mut W,
    tag: u8,
    request_id: u64,
    payload: &[u8],
) -> std::io::Result<usize> {
    let head = header(tag, request_id, payload.len());
    write_all_vectored(w, &head, payload)?;
    Ok(HEADER_LEN + payload.len())
}

/// Reads one frame. `Ok(None)` on a clean end-of-stream before any header
/// byte (the peer hung up between commands); a payload longer than
/// `max_payload` is malformed — the reader never allocates more than the
/// cap for a single frame.
pub fn read_raw<R: BufRead>(
    reader: &mut R,
    max_payload: usize,
) -> Result<Option<RawFrame>, FrameError> {
    let mut head = [0u8; HEADER_LEN];
    // Distinguish "no next frame" from "died mid-header" by hand: a clean
    // EOF on the first byte ends the connection, anything partial is an
    // error.
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = reader.read(&mut head[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(malformed(format!(
                "eof after {filled} of {HEADER_LEN} header bytes"
            )));
        }
        filled += n;
    }
    if head[0..2] != MAGIC {
        return Err(malformed(format!(
            "bad magic {:#04x} {:#04x}",
            head[0], head[1]
        )));
    }
    if head[2] != FRAME_VERSION {
        return Err(malformed(format!(
            "frame version {} but this build speaks {FRAME_VERSION}",
            head[2]
        )));
    }
    let tag = head[3];
    let request_id = u64::from_le_bytes(head[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(malformed(format!(
            "payload of {len} bytes exceeds the {max_payload}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            malformed(format!("eof inside a {len}-byte payload"))
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(Some(RawFrame {
        tag,
        request_id,
        payload,
    }))
}

// ---------------------------------------------------------------------------
// Payload fields shared by requests and replies.

/// The solver names the engine can report; decoding maps back onto these
/// statics so a merged report compares equal to a local one.
const KNOWN_STRATEGIES: [&str; 4] = ["GREEDY", "SAMPLING", "D&C", "G-TRUTH"];

fn put_pairs(e: &mut Encoder, pairs: &[ValidPair]) {
    e.u32(pairs.len() as u32);
    for pair in pairs {
        e.u32(pair.task.0);
        e.u32(pair.worker.0);
        e.contribution(&pair.contribution);
    }
}

fn get_pairs(d: &mut Decoder) -> Result<Vec<ValidPair>, WalError> {
    let n = d.count(32)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push(ValidPair {
            task: TaskId(d.u32()?),
            worker: WorkerId(d.u32()?),
            contribution: d.contribution()?,
        });
    }
    Ok(pairs)
}

/// A snapshot's counters cross the wire as `f64`s — the layout frame
/// version 3 was recorded with; they are exact below 2^53.
fn put_snapshot(e: &mut Encoder, s: &EngineSnapshot) {
    e.f64(s.now);
    for counter in [
        s.ticks,
        s.events_applied,
        s.pending_events as u64,
        s.live_tasks as u64,
        s.live_workers as u64,
        s.committed_workers as u64,
        s.banked_answers as u64,
        s.total_assignments,
    ] {
        e.f64(counter as f64);
    }
    e.f64(s.objective.min_reliability);
    e.f64(s.objective.total_std);
    for counter in [
        s.objective.covered_tasks as u64,
        s.index_counters.relocations,
        s.index_counters.cells_repaired,
        s.index_counters.tcell_rebuilds,
    ] {
        e.f64(counter as f64);
    }
    e.bool(s.wal.is_some());
    if let Some(w) = &s.wal {
        for counter in [
            w.segments,
            w.segments_retired,
            w.bytes_appended,
            w.records_appended,
            w.fsyncs,
            w.checkpoints,
            w.last_checkpoint_tick,
            w.recovered_records,
        ] {
            e.f64(counter as f64);
        }
        e.bool(w.recovered_checkpoint);
    }
}

fn get_snapshot(d: &mut Decoder) -> Result<EngineSnapshot, WalError> {
    Ok(EngineSnapshot {
        now: d.f64()?,
        ticks: d.f64()? as u64,
        events_applied: d.f64()? as u64,
        pending_events: d.f64()? as usize,
        live_tasks: d.f64()? as usize,
        live_workers: d.f64()? as usize,
        committed_workers: d.f64()? as usize,
        banked_answers: d.f64()? as usize,
        total_assignments: d.f64()? as u64,
        objective: EngineObjective {
            min_reliability: d.f64()?,
            total_std: d.f64()?,
            covered_tasks: d.f64()? as usize,
        },
        index_counters: MaintenanceCounters {
            relocations: d.f64()? as u64,
            cells_repaired: d.f64()? as u64,
            tcell_rebuilds: d.f64()? as u64,
        },
        wal: if d.bool()? {
            Some(WalStats {
                segments: d.f64()? as u64,
                segments_retired: d.f64()? as u64,
                bytes_appended: d.f64()? as u64,
                records_appended: d.f64()? as u64,
                fsyncs: d.f64()? as u64,
                checkpoints: d.f64()? as u64,
                last_checkpoint_tick: d.f64()? as u64,
                recovered_records: d.f64()? as u64,
                recovered_checkpoint: d.bool()?,
            })
        } else {
            None
        },
    })
}

fn put_tick(e: &mut Encoder, tick: &PartitionTick) {
    let r = &tick.report;
    e.f64(r.now);
    e.u64(r.events_applied as u64);
    e.u64(r.tasks_expired as u64);
    e.u64(r.num_shards as u64);
    e.u64(r.largest_shard_pairs as u64);
    e.u32(r.strategies.len() as u32);
    for s in &r.strategies {
        e.str(s);
    }
    put_pairs(e, &r.new_assignments);
    e.f64(r.solve_seconds);
    e.u32(r.shard_solve_seconds.len() as u32);
    for s in &r.shard_solve_seconds {
        e.f64(*s);
    }
    e.u64(r.index_maintenance.relocations);
    e.u64(r.index_maintenance.cells_repaired);
    e.u64(r.index_maintenance.tcell_rebuilds);
    e.u32(tick.committed.len() as u32);
    for w in &tick.committed {
        e.u32(w.0);
    }
    for v in r.stages.values() {
        e.u64(v);
    }
    e.u64(tick.trace);
}

fn get_tick(d: &mut Decoder) -> Result<PartitionTick, WalError> {
    let now = d.f64()?;
    let events_applied = d.u64()? as usize;
    let tasks_expired = d.u64()? as usize;
    let num_shards = d.u64()? as usize;
    let largest_shard_pairs = d.u64()? as usize;
    let n = d.count(4)?;
    let mut strategies = Vec::with_capacity(n);
    for _ in 0..n {
        // An unknown name (a newer daemon) decodes as `"UNKNOWN"` rather
        // than failing.
        let name = d.str()?;
        strategies.push(
            KNOWN_STRATEGIES
                .iter()
                .find(|known| **known == name)
                .copied()
                .unwrap_or("UNKNOWN"),
        );
    }
    let new_assignments = get_pairs(d)?;
    let solve_seconds = d.f64()?;
    let n = d.count(8)?;
    let mut shard_solve_seconds = Vec::with_capacity(n);
    for _ in 0..n {
        shard_solve_seconds.push(d.f64()?);
    }
    let index_maintenance = MaintenanceCounters {
        relocations: d.u64()?,
        cells_repaired: d.u64()?,
        tcell_rebuilds: d.u64()?,
    };
    let n = d.count(4)?;
    let mut committed = Vec::with_capacity(n);
    for _ in 0..n {
        committed.push(WorkerId(d.u32()?));
    }
    let mut stages = [0u64; rdbsc_obs::NUM_STAGES];
    for slot in &mut stages {
        *slot = d.u64()?;
    }
    Ok(PartitionTick {
        report: TickReport {
            now,
            events_applied,
            tasks_expired,
            num_shards,
            largest_shard_pairs,
            strategies,
            new_assignments,
            solve_seconds,
            shard_solve_seconds,
            index_maintenance,
            stages: rdbsc_obs::StageTimings::from_values(stages),
        },
        committed,
        trace: d.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Requests and replies.

/// A decoded request frame: the request id its reply echoes, around what
/// it asks.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// The request id.
    pub request_id: u64,
    /// What the frame asks.
    pub body: RequestBody,
}

/// What a request frame asks: a [`PartitionRequest`], a [`ReplRequest`], or
/// one of the handshake requests only a daemon answers.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// A partition request, tags [`Tag::Submit`] to [`Tag::Shutdown`].
    /// Only a submit's or a tick's trace id crosses the wire: an answer or
    /// a release arrives untraced.
    Partition(PartitionRequest),
    /// The daemon's version and state.
    Hello,
    /// Build the engine from the canonical configure JSON text
    /// ([`crate::protocol::ConfigureDto`]) — the bytes the daemon keeps as
    /// its fingerprint and persists as `configure.json`.
    Configure(String),
    /// A replication request, tags [`Tag::ReplBootstrap`] to
    /// [`Tag::ReplPromote`].
    Repl(ReplRequest),
}

impl RequestBody {
    /// The request tag.
    pub fn tag(&self) -> Tag {
        match self {
            RequestBody::Partition(request) => match request {
                PartitionRequest::Apply { command, .. } => match command {
                    PartitionCommand::Submit(_) => Tag::Submit,
                    PartitionCommand::Tick { .. } => Tag::Tick,
                    PartitionCommand::Answer { .. } => Tag::Answer,
                    PartitionCommand::Release { .. } => Tag::Release,
                },
                PartitionRequest::Assignments => Tag::Assignments,
                PartitionRequest::Snapshot => Tag::Snapshot,
                PartitionRequest::IsActive => Tag::IsActive,
                PartitionRequest::HasWorker(_) => Tag::HasWorker,
                PartitionRequest::Drain => Tag::Drain,
                PartitionRequest::Shutdown => Tag::Shutdown,
            },
            RequestBody::Hello => Tag::Hello,
            RequestBody::Configure(_) => Tag::Configure,
            RequestBody::Repl(request) => match request {
                ReplRequest::Bootstrap => Tag::ReplBootstrap,
                ReplRequest::Fetch { .. } => Tag::ReplFetch,
                ReplRequest::Status => Tag::ReplStatus,
                ReplRequest::Promote => Tag::ReplPromote,
            },
        }
    }
}

impl RequestFrame {
    /// Writes the frame (header + payload in one vectored write); returns
    /// the bytes put on the wire.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        let mut e = Encoder::new();
        match &self.body {
            RequestBody::Partition(PartitionRequest::Apply { trace, command }) => {
                // An answer or a release has no span to attribute.
                if matches!(
                    command,
                    PartitionCommand::Submit(_) | PartitionCommand::Tick { .. }
                ) {
                    e.u64(*trace);
                }
                e.command_body(command);
            }
            RequestBody::Partition(PartitionRequest::HasWorker(worker)) => e.u32(worker.0),
            RequestBody::Repl(ReplRequest::Fetch { from, ack, max }) => {
                e.u64(*from);
                e.u64(*ack);
                e.u32(*max);
            }
            RequestBody::Configure(text) => e.str(text),
            RequestBody::Partition(_) | RequestBody::Hello | RequestBody::Repl(_) => {}
        }
        write_frame(w, self.body.tag() as u8, self.request_id, &e.into_bytes())
    }

    /// Decodes a raw frame into a request: well-formed bytes, every model
    /// value through its validating constructor. What a well-formed command
    /// may *say* is [`RequestFrame::admit`]'s business.
    pub fn decode(raw: &RawFrame) -> Result<Self, FrameError> {
        let tag = Tag::try_from(raw.tag)?;
        let mut d = Decoder::new(&raw.payload);
        let partition = RequestBody::Partition;
        let apply = |trace, command| partition(PartitionRequest::Apply { trace, command });
        let repl = RequestBody::Repl;
        let body = match tag {
            Tag::Submit | Tag::Tick => apply(d.u64()?, d.command_body(tag as u8)?),
            Tag::Answer | Tag::Release => apply(0, d.command_body(tag as u8)?),
            Tag::Assignments => partition(PartitionRequest::Assignments),
            Tag::Snapshot => partition(PartitionRequest::Snapshot),
            Tag::IsActive => partition(PartitionRequest::IsActive),
            Tag::HasWorker => partition(PartitionRequest::HasWorker(WorkerId(d.u32()?))),
            Tag::Drain => partition(PartitionRequest::Drain),
            Tag::Shutdown => partition(PartitionRequest::Shutdown),
            Tag::ReplBootstrap => repl(ReplRequest::Bootstrap),
            Tag::ReplFetch => repl(ReplRequest::Fetch {
                from: d.u64()?,
                ack: d.u64()?,
                max: d.u32()?,
            }),
            Tag::ReplStatus => repl(ReplRequest::Status),
            Tag::ReplPromote => repl(ReplRequest::Promote),
            Tag::Hello => RequestBody::Hello,
            Tag::Configure => RequestBody::Configure(d.str()?),
        };
        d.finish()?;
        Ok(RequestFrame {
            request_id: raw.request_id,
            body,
        })
    }

    /// The admission check at the frame boundary: everything the wire
    /// refuses that log recovery does not — a move to a non-finite
    /// position, a tick at a non-finite time, an answer with a non-finite
    /// angle or arrival — and the one normalisation it makes (an answer's
    /// angle into `[0, 2π)`). The listener runs it on every decoded request;
    /// a refusal is answered `400` in-band with the field named. A log or a
    /// replication stream only ever holds commands that passed here.
    pub fn admit(mut self) -> Result<Self, FrameError> {
        let RequestBody::Partition(PartitionRequest::Apply { command, .. }) = &mut self.body else {
            return Ok(self);
        };
        match command {
            PartitionCommand::Submit(events) => {
                for (i, event) in events.iter().enumerate() {
                    if let EngineEvent::WorkerMoved(_, to) = event {
                        if !(to.x.is_finite() && to.y.is_finite()) {
                            return Err(malformed(format!(
                                "submit event {i}: worker_moved x/y must be finite numbers"
                            )));
                        }
                    }
                }
            }
            PartitionCommand::Tick { now } => {
                if !now.is_finite() {
                    return Err(malformed("tick now must be a finite number"));
                }
            }
            PartitionCommand::Answer {
                contribution: c, ..
            } => {
                if !(c.angle.is_finite() && c.arrival.is_finite()) {
                    return Err(malformed("answer angle/arrival must be finite numbers"));
                }
                *c = Contribution::new(c.confidence, c.angle, c.arrival);
            }
            PartitionCommand::Release { .. } => {}
        }
        Ok(self)
    }
}

/// A decoded reply frame: the echoed request id, around the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyFrame {
    /// The echoed request id.
    pub request_id: u64,
    /// The answer.
    pub body: ReplyBody,
}

/// What a reply frame answers, request body for request body, plus the
/// error any request may be answered with.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// A partition's reply. A tick's outcome is full-fidelity, so a remote
    /// partition's tick merges into the router's report like a local one.
    Partition(PartitionReply),
    /// The daemon's version and state.
    Hello(Hello),
    /// The engine is built.
    Configure {
        /// Was it already built from the identical payload?
        already_configured: bool,
    },
    /// A replication reply. A bootstrap's configure payload is the
    /// primary's canonical configure JSON.
    Repl(ReplReply),
    /// The request failed; `status` is the HTTP-style status of the error
    /// (400 = bad payload, 409 = conflict/standby, 503 = draining).
    Error {
        /// The HTTP-equivalent status.
        status: u16,
        /// Human-readable detail.
        detail: String,
    },
}

impl ReplyBody {
    /// The reply tag: the request's tag with [`REPLY`] set, or [`ERROR`].
    pub fn tag(&self) -> u8 {
        let request = match self {
            ReplyBody::Partition(reply) => match reply {
                PartitionReply::Applied(outcome) => return outcome.tag() | REPLY,
                PartitionReply::Assignments(_) => Tag::Assignments,
                PartitionReply::Snapshot(_) => Tag::Snapshot,
                PartitionReply::Active(_) => Tag::IsActive,
                PartitionReply::HasWorker(_) => Tag::HasWorker,
                PartitionReply::Drained => Tag::Drain,
                PartitionReply::ShutDown => Tag::Shutdown,
            },
            ReplyBody::Error { .. } => return ERROR,
            ReplyBody::Hello(_) => Tag::Hello,
            ReplyBody::Configure { .. } => Tag::Configure,
            ReplyBody::Repl(reply) => match reply {
                ReplReply::Bootstrap { .. } => Tag::ReplBootstrap,
                ReplReply::Fetch { .. } => Tag::ReplFetch,
                ReplReply::Status(_) => Tag::ReplStatus,
                ReplReply::Promote { .. } => Tag::ReplPromote,
            },
        };
        request as u8 | REPLY
    }
}

impl ReplyFrame {
    /// Writes the frame (vectored); returns the bytes put on the wire.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        let mut e = Encoder::new();
        match &self.body {
            ReplyBody::Partition(reply) => match reply {
                PartitionReply::Applied(CommandOutcome::Submitted { events }) => e.u32(*events),
                PartitionReply::Applied(CommandOutcome::Ticked(tick)) => put_tick(&mut e, tick),
                PartitionReply::Applied(CommandOutcome::Answered { banked }) => e.bool(*banked),
                PartitionReply::Assignments(pairs) => put_pairs(&mut e, pairs),
                PartitionReply::Snapshot(snapshot) => put_snapshot(&mut e, snapshot),
                PartitionReply::Active(flag) | PartitionReply::HasWorker(flag) => e.bool(*flag),
                PartitionReply::Applied(CommandOutcome::Released)
                | PartitionReply::Drained
                | PartitionReply::ShutDown => {}
            },
            ReplyBody::Repl(reply) => match reply {
                ReplReply::Bootstrap {
                    start_lsn,
                    state,
                    configure,
                } => {
                    e.u64(*start_lsn);
                    e.bytes(state);
                    e.str(configure);
                }
                ReplReply::Fetch { next_lsn, records } => {
                    e.u64(*next_lsn);
                    e.u32(records.len() as u32);
                    for (lsn, record) in records {
                        e.u64(*lsn);
                        e.bytes(record);
                    }
                }
                ReplReply::Status(status) => {
                    e.str(status.role.as_str());
                    let s = status;
                    for value in [s.next_lsn, s.acked, s.retained, s.resets, s.applied, s.lag] {
                        e.u64(value);
                    }
                    e.bool(s.sealed);
                }
                ReplReply::Promote { digest, applied } => {
                    e.u64(*digest);
                    e.u64(*applied);
                }
            },
            ReplyBody::Hello(hello) => {
                e.u32(hello.protocol_version);
                e.bool(hello.region_index.is_some());
                if let Some(region) = hello.region_index {
                    e.u32(region);
                }
                e.bool(hello.draining);
                e.bool(hello.standby);
            }
            ReplyBody::Configure { already_configured } => e.bool(*already_configured),
            ReplyBody::Error { status, detail } => {
                e.u16(*status);
                e.str(detail);
            }
        }
        write_frame(w, self.body.tag(), self.request_id, &e.into_bytes())
    }

    /// Decodes a raw frame into a reply.
    pub fn decode(raw: &RawFrame) -> Result<Self, FrameError> {
        let mut d = Decoder::new(&raw.payload);
        let body = if raw.tag == ERROR {
            ReplyBody::Error {
                status: d.u16()?,
                detail: d.str()?,
            }
        } else if raw.tag & REPLY == 0 {
            return Err(malformed(format!("{:#04x} is not a reply tag", raw.tag)));
        } else {
            decode_reply_body(Tag::try_from(raw.tag & !REPLY)?, &mut d)?
        };
        d.finish()?;
        Ok(ReplyFrame {
            request_id: raw.request_id,
            body,
        })
    }
}

/// The body of a reply to a request tagged `tag`.
fn decode_reply_body(tag: Tag, d: &mut Decoder) -> Result<ReplyBody, FrameError> {
    let partition = ReplyBody::Partition;
    let applied = |outcome| partition(PartitionReply::Applied(outcome));
    let repl = ReplyBody::Repl;
    Ok(match tag {
        Tag::Submit => applied(CommandOutcome::Submitted { events: d.u32()? }),
        Tag::Tick => applied(CommandOutcome::Ticked(Box::new(get_tick(d)?))),
        Tag::Answer => applied(CommandOutcome::Answered { banked: d.bool()? }),
        Tag::Release => applied(CommandOutcome::Released),
        Tag::Assignments => partition(PartitionReply::Assignments(get_pairs(d)?)),
        Tag::Snapshot => partition(PartitionReply::Snapshot(Box::new(get_snapshot(d)?))),
        Tag::IsActive => partition(PartitionReply::Active(d.bool()?)),
        Tag::HasWorker => partition(PartitionReply::HasWorker(d.bool()?)),
        Tag::Drain => partition(PartitionReply::Drained),
        Tag::Shutdown => partition(PartitionReply::ShutDown),
        Tag::ReplBootstrap => repl(ReplReply::Bootstrap {
            start_lsn: d.u64()?,
            state: d.bytes()?,
            configure: d.str()?,
        }),
        Tag::ReplFetch => {
            let next_lsn = d.u64()?;
            // The smallest entry is an lsn plus an empty bytes field.
            let n = d.count(12)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push((d.u64()?, d.bytes()?));
            }
            repl(ReplReply::Fetch { next_lsn, records })
        }
        Tag::ReplStatus => repl(ReplReply::Status(ReplStatus {
            role: ReplRole::parse(&d.str()?)
                .ok_or_else(|| malformed("unknown replication role"))?,
            next_lsn: d.u64()?,
            acked: d.u64()?,
            retained: d.u64()?,
            resets: d.u64()?,
            applied: d.u64()?,
            lag: d.u64()?,
            sealed: d.bool()?,
        })),
        Tag::ReplPromote => repl(ReplReply::Promote {
            digest: d.u64()?,
            applied: d.u64()?,
        }),
        Tag::Hello => ReplyBody::Hello(Hello {
            protocol_version: d.u32()?,
            region_index: if d.bool()? { Some(d.u32()?) } else { None },
            draining: d.bool()?,
            standby: d.bool()?,
        }),
        Tag::Configure => ReplyBody::Configure {
            already_configured: d.bool()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_model::{Confidence, Task, TimeWindow, Worker};

    /// What the deleted W001 lint audited by lexing two files, minus what
    /// the compiler now checks (unique discriminants, one arm per tag in
    /// every encoder and decoder): the request range, the reply bit and
    /// the `try_from` round trip.
    #[test]
    fn request_tags_leave_room_for_the_reply_bit_and_the_error_tag() {
        assert_eq!((REPLY, ERROR), (0x80, 0xFF));
        for &tag in Tag::ALL {
            let byte = tag as u8;
            assert!((0x01..=0x7E).contains(&byte), "{tag:?} = {byte:#04x}");
            assert_eq!(Tag::try_from(byte).unwrap(), tag);
            assert!(
                Tag::try_from(byte | REPLY).is_err(),
                "{tag:?}'s reply tag is no request"
            );
            assert_ne!(byte | REPLY, ERROR);
        }
        let known = (0..=u8::MAX)
            .filter(|byte| Tag::try_from(*byte).is_ok())
            .count();
        assert_eq!(known, Tag::ALL.len());
        // The command tags are the log's record tags, not copies of them.
        let tick = PartitionCommand::Tick { now: 0.0 };
        assert_eq!(
            Tag::Tick as u8,
            rdbsc_platform::wal::encode_command(&tick)[0]
        );
    }

    fn round_trip_request(request_id: u64, body: RequestBody) {
        let frame = RequestFrame { request_id, body };
        let mut wire = Vec::new();
        let n = frame.write_to(&mut wire).unwrap();
        assert_eq!(n, wire.len());
        let raw = read_raw(&mut &wire[..], 1 << 20).unwrap().unwrap();
        assert_eq!(RequestFrame::decode(&raw).unwrap(), frame);
    }

    fn round_trip_reply(request_id: u64, body: ReplyBody) {
        let frame = ReplyFrame { request_id, body };
        let mut wire = Vec::new();
        let n = frame.write_to(&mut wire).unwrap();
        assert_eq!(n, wire.len());
        let raw = read_raw(&mut &wire[..], 1 << 20).unwrap().unwrap();
        assert_eq!(ReplyFrame::decode(&raw).unwrap(), frame);
    }

    #[test]
    fn requests_round_trip() {
        let apply =
            |trace, command| RequestBody::Partition(PartitionRequest::Apply { trace, command });
        round_trip_request(
            7,
            apply(
                0xdead_beef_cafe_f00d,
                PartitionCommand::Submit(vec![
                    EngineEvent::TaskArrived(
                        Task::with_beta(
                            TaskId(1),
                            // A value with no short decimal form.
                            Point::new(0.25, 0.1 + 0.2),
                            TimeWindow::new(0.0, 9.5).unwrap(),
                            0.75,
                        )
                        .unwrap(),
                    ),
                    EngineEvent::TaskExpired(TaskId(2)),
                    EngineEvent::WorkerCheckIn(
                        Worker::new(
                            WorkerId(3),
                            Point::new(f64::MIN_POSITIVE, 1.0),
                            0.125,
                            AngleRange::new(-1.5, 3.0),
                            Confidence::new(0.875).unwrap(),
                        )
                        .unwrap()
                        .with_available_from(4.5),
                    ),
                    EngineEvent::WorkerMoved(WorkerId(4), Point::new(0.5, 0.5)),
                    EngineEvent::WorkerLeft(WorkerId(5)),
                ]),
            ),
        );
        round_trip_request(8, apply(9, PartitionCommand::Tick { now: 1.5 }));
        round_trip_request(
            9,
            apply(
                0,
                PartitionCommand::Answer {
                    worker: WorkerId(3),
                    contribution: Contribution::new(Confidence::new(0.9).unwrap(), 1.25, 2.5),
                },
            ),
        );
        round_trip_request(
            10,
            apply(
                0,
                PartitionCommand::Release {
                    worker: WorkerId(3),
                },
            ),
        );
        let partition = RequestBody::Partition;
        round_trip_request(11, partition(PartitionRequest::Assignments));
        round_trip_request(12, partition(PartitionRequest::Snapshot));
        round_trip_request(13, partition(PartitionRequest::IsActive));
        round_trip_request(14, partition(PartitionRequest::HasWorker(WorkerId(99))));
        round_trip_request(15, partition(PartitionRequest::Drain));
        round_trip_request(16, partition(PartitionRequest::Shutdown));
        let repl = RequestBody::Repl;
        round_trip_request(17, repl(ReplRequest::Bootstrap));
        round_trip_request(
            18,
            repl(ReplRequest::Fetch {
                from: 42,
                ack: 40,
                max: 256,
            }),
        );
        round_trip_request(19, repl(ReplRequest::Status));
        round_trip_request(20, repl(ReplRequest::Promote));
        round_trip_request(21, RequestBody::Hello);
        round_trip_request(
            22,
            RequestBody::Configure(r#"{"region_index":1,"cell_size":0.1}"#.into()),
        );
    }

    #[test]
    fn replies_round_trip() {
        let applied = |outcome| ReplyBody::Partition(PartitionReply::Applied(outcome));
        round_trip_reply(7, applied(CommandOutcome::Submitted { events: 42 }));
        round_trip_reply(
            8,
            applied(CommandOutcome::Ticked(Box::new(PartitionTick {
                report: TickReport {
                    now: 2.5,
                    events_applied: 10,
                    tasks_expired: 1,
                    num_shards: 3,
                    largest_shard_pairs: 17,
                    strategies: vec!["GREEDY", "D&C"],
                    new_assignments: vec![ValidPair {
                        task: TaskId(1),
                        worker: WorkerId(2),
                        contribution: Contribution::new(Confidence::new(0.5).unwrap(), 0.25, 3.5),
                    }],
                    solve_seconds: 0.001,
                    shard_solve_seconds: vec![0.0005, 0.0002],
                    index_maintenance: MaintenanceCounters {
                        relocations: 5,
                        cells_repaired: 2,
                        tcell_rebuilds: 1,
                    },
                    stages: rdbsc_obs::StageTimings::from_values([1, 2, 3, 4, 5, 6]),
                },
                committed: vec![WorkerId(2), WorkerId(9)],
                trace: 0xabcd,
            }))),
        );
        round_trip_reply(9, applied(CommandOutcome::Answered { banked: true }));
        round_trip_reply(10, applied(CommandOutcome::Released));
        let partition = ReplyBody::Partition;
        round_trip_reply(11, partition(PartitionReply::Assignments(vec![])));
        round_trip_reply(
            12,
            partition(PartitionReply::Snapshot(Box::new(EngineSnapshot {
                now: 1.0,
                ticks: 2,
                events_applied: 3,
                pending_events: 4,
                live_tasks: 5,
                live_workers: 6,
                committed_workers: 7,
                banked_answers: 8,
                total_assignments: 9,
                objective: EngineObjective {
                    min_reliability: 0.5,
                    total_std: 0.25,
                    covered_tasks: 10,
                },
                index_counters: MaintenanceCounters {
                    relocations: 11,
                    cells_repaired: 12,
                    tcell_rebuilds: 13,
                },
                wal: Some(WalStats {
                    segments: 1,
                    segments_retired: 0,
                    bytes_appended: 1024,
                    records_appended: 7,
                    fsyncs: 2,
                    checkpoints: 1,
                    last_checkpoint_tick: 3,
                    recovered_records: 0,
                    recovered_checkpoint: false,
                }),
            }))),
        );
        round_trip_reply(13, partition(PartitionReply::Active(false)));
        round_trip_reply(14, partition(PartitionReply::HasWorker(true)));
        round_trip_reply(15, partition(PartitionReply::Drained));
        round_trip_reply(16, partition(PartitionReply::ShutDown));
        let repl = ReplyBody::Repl;
        round_trip_reply(
            18,
            repl(ReplReply::Bootstrap {
                start_lsn: 7,
                state: vec![5, 0, 0, 0, 1, 2, 3],
                configure: r#"{"region_index":1}"#.into(),
            }),
        );
        round_trip_reply(
            19,
            repl(ReplReply::Fetch {
                next_lsn: 44,
                records: vec![(42, vec![2, 1]), (43, vec![])],
            }),
        );
        for role in [ReplRole::None, ReplRole::Primary, ReplRole::Standby] {
            round_trip_reply(
                20,
                repl(ReplReply::Status(ReplStatus {
                    role,
                    next_lsn: 44,
                    acked: 40,
                    retained: 4,
                    resets: 0,
                    applied: 42,
                    lag: 2,
                    sealed: false,
                })),
            );
        }
        round_trip_reply(
            21,
            repl(ReplReply::Promote {
                digest: 0xfeed_face_dead_beef,
                applied: 42,
            }),
        );
        for (region_index, draining, standby) in [(None, false, true), (Some(3), true, false)] {
            round_trip_reply(
                22,
                ReplyBody::Hello(Hello {
                    protocol_version: 7,
                    region_index,
                    draining,
                    standby,
                }),
            );
        }
        round_trip_reply(
            23,
            ReplyBody::Configure {
                already_configured: true,
            },
        );
        round_trip_reply(
            17,
            ReplyBody::Error {
                status: 503,
                detail: "draining".into(),
            },
        );
    }

    #[test]
    fn float_bits_survive_verbatim() {
        // The wire must carry the exact bit pattern, including negative
        // zero and subnormals.
        for bits in [
            0x8000_0000_0000_0000u64, // -0.0
            0x0000_0000_0000_0001,    // smallest subnormal
            0x7FEF_FFFF_FFFF_FFFF,    // f64::MAX
            0x3FB9_9999_9999_999A,    // 0.1
        ] {
            let frame = RequestFrame {
                request_id: 1,
                body: RequestBody::Partition(PartitionRequest::Apply {
                    trace: 0,
                    command: PartitionCommand::Tick {
                        now: f64::from_bits(bits),
                    },
                }),
            };
            let mut wire = Vec::new();
            frame.write_to(&mut wire).unwrap();
            let raw = read_raw(&mut &wire[..], 1 << 20).unwrap().unwrap();
            match RequestFrame::decode(&raw).unwrap().body {
                RequestBody::Partition(PartitionRequest::Apply {
                    command: PartitionCommand::Tick { now },
                    ..
                }) => assert_eq!(now.to_bits(), bits),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn clean_eof_yields_none_and_partial_headers_fail() {
        assert!(read_raw(&mut &[][..], 1024).unwrap().is_none());
        let wire = header(Tag::Drain as u8, 1, 0);
        for cut in 1..HEADER_LEN {
            let err = read_raw(&mut &wire[..cut], 1024).unwrap_err();
            assert!(matches!(err, FrameError::Malformed(_)), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_frames_are_rejected_not_panicking() {
        // Bad magic (an HTTP request hitting a binary reader).
        let err = read_raw(&mut &b"GET /metrics HTTP/1.1\r\n\r\n"[..], 1024).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)));
        // Another frame version, older or newer: refused at the header, so
        // a version-2 snapshot reply (which carried a backend string) is
        // never decoded against this build's shorter layout.
        for version in [2, 9] {
            let mut wire = header(Tag::Drain as u8, 1, 0);
            wire[2] = version;
            let err = read_raw(&mut &wire[..], 1024).unwrap_err();
            assert!(matches!(err, FrameError::Malformed(_)));
            assert!(
                err.to_string()
                    .contains(&format!("frame version {version} but this build speaks 3")),
                "{err}"
            );
        }
        // Payload length beyond the cap never allocates.
        let wire = header(Tag::Submit as u8, 1, 1 << 30);
        assert!(matches!(
            read_raw(&mut &wire[..], 1024).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Declared payload longer than the stream.
        let wire = header(Tag::Submit as u8, 1, 64);
        assert!(matches!(
            read_raw(&mut &wire[..], 1024).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // A submit whose event count promises more than the bytes hold.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let raw = RawFrame {
            tag: Tag::Submit as u8,
            request_id: 1,
            payload,
        };
        assert!(matches!(
            RequestFrame::decode(&raw).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Trailing garbage after a well-formed payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.push(0xEE);
        let raw = RawFrame {
            tag: Tag::Release as u8,
            request_id: 1,
            payload,
        };
        assert!(matches!(
            RequestFrame::decode(&raw).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn vectored_writes_survive_partial_write_boundaries() {
        /// A writer that accepts at most `cap` bytes per call, exercising
        /// the re-slicing loop across every head/body split.
        struct Dribble {
            out: Vec<u8>,
            cap: usize,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.cap);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
                let mut budget = self.cap;
                let mut written = 0;
                for buf in bufs {
                    let n = buf.len().min(budget);
                    self.out.extend_from_slice(&buf[..n]);
                    written += n;
                    budget -= n;
                    if budget == 0 {
                        break;
                    }
                }
                Ok(written)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let head = b"0123456789abcdef".to_vec();
        let body = b"the quick brown fox jumps over the lazy dog".to_vec();
        for cap in 1..=head.len() + body.len() {
            let mut w = Dribble {
                out: Vec::new(),
                cap,
            };
            write_all_vectored(&mut w, &head, &body).unwrap();
            let mut expect = head.clone();
            expect.extend_from_slice(&body);
            assert_eq!(w.out, expect, "cap {cap}");
        }
    }
}
