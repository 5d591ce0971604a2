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
//! [`PartitionCommand`] has one binary encoding whether it is logged,
//! shipped to a standby or routed to a daemon, and its reply carries the
//! [`CommandOutcome`] the partition produced. Nothing here re-declares a
//! command.
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
//! | Tag | Request | Payload |
//! |---|---|---|
//! | `0x01`, `0x02` | submit, tick | trace `u64`, then the command's record body |
//! | `0x03`, `0x04` | answer, release | the command's record body |
//! | `0x05`–`0x08` | assignments, snapshot, is_active, has_worker | — / worker |
//! | `0x09`, `0x0A` | drain, shutdown | — |
//! | `0x0B`–`0x0E` | repl bootstrap / fetch / status / promote | see [`RequestFrame`] |
//! | `0x0F`, `0x10` | hello, configure | — / the configure JSON text |
//!
//! The matching reply tag is the request tag with the high bit ([`REPLY`])
//! set, and [`ERROR`] (`0xFF`) is the error reply (an HTTP-style status +
//! detail). A tag byte is turned into a [`Tag`] once, by `TryFrom<u8>`, and
//! every decoder and dispatcher after that is an exhaustive `match`: a new
//! tag without its decode arm, its reply arm, its refusal row and its
//! routing arm does not compile. The request id is echoed in the reply
//! header, which is what makes **pipelining** safe: a client may write
//! several frames before reading any reply, and replies come back in order,
//! each naming the request it answers.
//!
//! The decoder is hostile-input safe by construction: every read is
//! bounds-checked against the declared payload, collection counts are
//! validated against the bytes actually present before any allocation,
//! and trailing garbage fails the frame. Malformed frames produce
//! [`FrameError::Malformed`], never a panic (property-tested in
//! `tests/proptest_frame.rs`). What a well-formed command may *say* is a
//! second, separate step — [`RequestFrame::admit`].

use crate::protocol::{Hello, ReplStatusDto};
use rdbsc_index::MaintenanceCounters;
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Contribution, TaskId, WorkerId};
use rdbsc_platform::wal::{Decoder, Encoder};
use rdbsc_platform::{
    CommandOutcome, EngineEvent, EngineObjective, EngineSnapshot, PartitionCommand, PartitionTick,
    TickReport, WalError, WalStats,
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
    /// `repl_bootstrap` — start (or restart) the replication stream: a
    /// state snapshot plus the stream lsn the live tail resumes at.
    ReplBootstrap = 0x0B,
    /// `repl_fetch` — pull shipped commands and acknowledge applied ones.
    ReplFetch = 0x0C,
    /// `repl_status` — the replication counters (role, watermarks, lag).
    ReplStatus = 0x0D,
    /// `repl_promote` — promote a standby: seal the stream, start a fresh
    /// log epoch, accept mutating commands.
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
// Commands.

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// One of the four partition commands — tags [`Tag::Submit`] to
    /// [`Tag::Release`], named by the command itself.
    Command {
        /// The request id.
        request_id: u64,
        /// The trace id (`0` = untraced). Only a submit's or a tick's
        /// crosses the wire: an answer or a release arrives untraced.
        trace: u64,
        /// The command.
        command: PartitionCommand,
    },
    /// The standing committed pairs.
    Assignments {
        /// The request id.
        request_id: u64,
    },
    /// The partition's serving-state snapshot.
    Snapshot {
        /// The request id.
        request_id: u64,
    },
    /// Pending events or live tasks?
    IsActive {
        /// The request id.
        request_id: u64,
    },
    /// Residency probe.
    HasWorker {
        /// The request id.
        request_id: u64,
        /// The worker.
        worker: WorkerId,
    },
    /// Stop taking new commands.
    Drain {
        /// The request id.
        request_id: u64,
    },
    /// Stop the daemon.
    Shutdown {
        /// The request id.
        request_id: u64,
    },
    /// Start (or restart) the replication stream from a fresh snapshot.
    ReplBootstrap {
        /// The request id.
        request_id: u64,
    },
    /// Pull shipped commands from `from`, acknowledging everything below
    /// `ack`.
    ReplFetch {
        /// The request id.
        request_id: u64,
        /// The first stream lsn wanted.
        from: u64,
        /// The acknowledgement watermark (exclusive): every command below
        /// it was applied by the follower and may be released.
        ack: u64,
        /// At most this many commands.
        max: u32,
    },
    /// The replication counters (role, watermarks, lag).
    ReplStatus {
        /// The request id.
        request_id: u64,
    },
    /// Promote a standby to primary.
    ReplPromote {
        /// The request id.
        request_id: u64,
    },
    /// The daemon's version and state.
    Hello {
        /// The request id.
        request_id: u64,
    },
    /// Build the engine.
    Configure {
        /// The request id.
        request_id: u64,
        /// The canonical configure JSON text
        /// ([`crate::protocol::ConfigureDto`]) — the bytes the daemon keeps
        /// as its fingerprint and persists as `configure.json`.
        configure: String,
    },
}

impl RequestFrame {
    /// The command tag.
    pub fn tag(&self) -> Tag {
        match self {
            RequestFrame::Command { command, .. } => {
                Tag::try_from(command.tag()).expect("Tag is declared from the command tags")
            }
            RequestFrame::Assignments { .. } => Tag::Assignments,
            RequestFrame::Snapshot { .. } => Tag::Snapshot,
            RequestFrame::IsActive { .. } => Tag::IsActive,
            RequestFrame::HasWorker { .. } => Tag::HasWorker,
            RequestFrame::Drain { .. } => Tag::Drain,
            RequestFrame::Shutdown { .. } => Tag::Shutdown,
            RequestFrame::ReplBootstrap { .. } => Tag::ReplBootstrap,
            RequestFrame::ReplFetch { .. } => Tag::ReplFetch,
            RequestFrame::ReplStatus { .. } => Tag::ReplStatus,
            RequestFrame::ReplPromote { .. } => Tag::ReplPromote,
            RequestFrame::Hello { .. } => Tag::Hello,
            RequestFrame::Configure { .. } => Tag::Configure,
        }
    }

    /// The request id.
    pub fn request_id(&self) -> u64 {
        match self {
            RequestFrame::Command { request_id, .. }
            | RequestFrame::Assignments { request_id }
            | RequestFrame::Snapshot { request_id }
            | RequestFrame::IsActive { request_id }
            | RequestFrame::HasWorker { request_id, .. }
            | RequestFrame::Drain { request_id }
            | RequestFrame::Shutdown { request_id }
            | RequestFrame::ReplBootstrap { request_id }
            | RequestFrame::ReplFetch { request_id, .. }
            | RequestFrame::ReplStatus { request_id }
            | RequestFrame::ReplPromote { request_id }
            | RequestFrame::Hello { request_id }
            | RequestFrame::Configure { request_id, .. } => *request_id,
        }
    }

    /// Encodes the payload (header built separately by [`header`]).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            RequestFrame::Command { trace, command, .. } => {
                // An answer or a release has no span to attribute.
                if matches!(
                    command.tag(),
                    PartitionCommand::SUBMIT | PartitionCommand::TICK
                ) {
                    e.u64(*trace);
                }
                e.command_body(command);
            }
            RequestFrame::HasWorker { worker, .. } => e.u32(worker.0),
            RequestFrame::ReplFetch { from, ack, max, .. } => {
                e.u64(*from);
                e.u64(*ack);
                e.u32(*max);
            }
            RequestFrame::Configure { configure, .. } => e.str(configure),
            RequestFrame::Assignments { .. }
            | RequestFrame::Snapshot { .. }
            | RequestFrame::IsActive { .. }
            | RequestFrame::Drain { .. }
            | RequestFrame::Shutdown { .. }
            | RequestFrame::ReplBootstrap { .. }
            | RequestFrame::ReplStatus { .. }
            | RequestFrame::ReplPromote { .. }
            | RequestFrame::Hello { .. } => {}
        }
        e.into_bytes()
    }

    /// Writes the frame (header + payload in one vectored write); returns
    /// the bytes put on the wire.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        write_frame(
            w,
            self.tag() as u8,
            self.request_id(),
            &self.encode_payload(),
        )
    }

    /// Decodes a raw frame into a request: well-formed bytes, every model
    /// value through its validating constructor. What a well-formed command
    /// may *say* is [`RequestFrame::admit`]'s business.
    pub fn decode(raw: &RawFrame) -> Result<Self, FrameError> {
        let request_id = raw.request_id;
        let tag = Tag::try_from(raw.tag)?;
        let mut d = Decoder::new(&raw.payload);
        let frame = match tag {
            Tag::Submit | Tag::Tick => RequestFrame::Command {
                request_id,
                trace: d.u64()?,
                command: d.command_body(tag as u8)?,
            },
            Tag::Answer | Tag::Release => RequestFrame::Command {
                request_id,
                trace: 0,
                command: d.command_body(tag as u8)?,
            },
            Tag::Assignments => RequestFrame::Assignments { request_id },
            Tag::Snapshot => RequestFrame::Snapshot { request_id },
            Tag::IsActive => RequestFrame::IsActive { request_id },
            Tag::HasWorker => RequestFrame::HasWorker {
                request_id,
                worker: WorkerId(d.u32()?),
            },
            Tag::Drain => RequestFrame::Drain { request_id },
            Tag::Shutdown => RequestFrame::Shutdown { request_id },
            Tag::ReplBootstrap => RequestFrame::ReplBootstrap { request_id },
            Tag::ReplFetch => RequestFrame::ReplFetch {
                request_id,
                from: d.u64()?,
                ack: d.u64()?,
                max: d.u32()?,
            },
            Tag::ReplStatus => RequestFrame::ReplStatus { request_id },
            Tag::ReplPromote => RequestFrame::ReplPromote { request_id },
            Tag::Hello => RequestFrame::Hello { request_id },
            Tag::Configure => RequestFrame::Configure {
                request_id,
                configure: d.str()?,
            },
        };
        d.finish()?;
        Ok(frame)
    }

    /// The admission check at the frame boundary: everything the wire
    /// refuses that log recovery does not — a move to a non-finite
    /// position, a tick at a non-finite time, an answer with a non-finite
    /// angle or arrival — and the one normalisation it makes (an answer's
    /// angle into `[0, 2π)`). The listener runs it on every decoded request;
    /// a refusal is answered `400` in-band with the field named. A log or a
    /// replication stream only ever holds commands that passed here.
    pub fn admit(mut self) -> Result<Self, FrameError> {
        let RequestFrame::Command { command, .. } = &mut self else {
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

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyFrame {
    /// A partition command was applied; the reply tag is the command's tag
    /// with [`REPLY`] set. A tick's outcome is full-fidelity, so a remote
    /// partition's tick merges into the router's report like a local one.
    Applied {
        /// The echoed request id.
        request_id: u64,
        /// What the partition's `apply` returned.
        outcome: CommandOutcome,
    },
    /// The standing committed pairs.
    AssignmentsOk {
        /// The echoed request id.
        request_id: u64,
        /// The pairs, in `(task, worker)` order.
        assignments: Vec<ValidPair>,
    },
    /// The serving-state snapshot.
    SnapshotOk {
        /// The echoed request id.
        request_id: u64,
        /// The snapshot.
        snapshot: Box<EngineSnapshot>,
    },
    /// The activity probe's answer.
    ActiveOk {
        /// The echoed request id.
        request_id: u64,
        /// Pending events or live tasks?
        active: bool,
    },
    /// The residency probe's answer.
    HasWorkerOk {
        /// The echoed request id.
        request_id: u64,
        /// Is the worker resident?
        present: bool,
    },
    /// Drain acknowledged.
    DrainOk {
        /// The echoed request id.
        request_id: u64,
    },
    /// Shutdown acknowledged.
    ShutdownOk {
        /// The echoed request id.
        request_id: u64,
    },
    /// The bootstrap snapshot: the primary's canonical state (an encoded
    /// `Checkpoint` record in the platform's WAL codec), the stream lsn
    /// the live tail resumes at, and the primary's accepted configure
    /// payload (canonical JSON) so the standby can configure itself
    /// identically.
    ReplBootstrapOk {
        /// The echoed request id.
        request_id: u64,
        /// The stream lsn of the first command published after the
        /// snapshot.
        start_lsn: u64,
        /// The snapshot, as an encoded `WalRecord::Checkpoint` — the
        /// platform's canonical codec, never re-encoded by the transport.
        state: Vec<u8>,
        /// The primary's configure fingerprint (canonical JSON text).
        configure: String,
    },
    /// A batch of shipped commands.
    ReplFetchOk {
        /// The echoed request id.
        request_id: u64,
        /// The primary's stream head (what lag is measured against).
        next_lsn: u64,
        /// `(lsn, command)` pairs, lsn-ascending; each command travels as
        /// the bytes of its log record
        /// ([`rdbsc_platform::wal::encode_command`]), opaque to the
        /// transport.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// The replication counters.
    ReplStatusOk {
        /// The echoed request id.
        request_id: u64,
        /// The counters.
        status: ReplStatusDto,
    },
    /// Promotion done: the standby sealed its stream and now accepts
    /// mutating commands.
    ReplPromoteOk {
        /// The echoed request id.
        request_id: u64,
        /// The promoted state digest (FNV-1a of the canonical state
        /// encoding) — what failover proofs compare against the dead
        /// primary's last acknowledged digest.
        digest: u64,
        /// Stream commands applied before the seal.
        applied: u64,
    },
    /// The daemon's version and state.
    HelloOk {
        /// The echoed request id.
        request_id: u64,
        /// What the daemon reports.
        hello: Hello,
    },
    /// The engine is built.
    ConfigureOk {
        /// The echoed request id.
        request_id: u64,
        /// Was it already built from the identical payload?
        already_configured: bool,
    },
    /// The command failed; `status` is the HTTP-style status of the error
    /// (400 = bad payload, 409 = conflict/standby, 503 = draining).
    Error {
        /// The echoed request id.
        request_id: u64,
        /// The HTTP-equivalent status.
        status: u16,
        /// Human-readable detail.
        detail: String,
    },
}

impl ReplyFrame {
    /// The reply tag.
    pub fn tag(&self) -> u8 {
        let request = match self {
            ReplyFrame::Applied { outcome, .. } => return outcome.tag() | REPLY,
            ReplyFrame::Error { .. } => return ERROR,
            ReplyFrame::AssignmentsOk { .. } => Tag::Assignments,
            ReplyFrame::SnapshotOk { .. } => Tag::Snapshot,
            ReplyFrame::ActiveOk { .. } => Tag::IsActive,
            ReplyFrame::HasWorkerOk { .. } => Tag::HasWorker,
            ReplyFrame::DrainOk { .. } => Tag::Drain,
            ReplyFrame::ShutdownOk { .. } => Tag::Shutdown,
            ReplyFrame::ReplBootstrapOk { .. } => Tag::ReplBootstrap,
            ReplyFrame::ReplFetchOk { .. } => Tag::ReplFetch,
            ReplyFrame::ReplStatusOk { .. } => Tag::ReplStatus,
            ReplyFrame::ReplPromoteOk { .. } => Tag::ReplPromote,
            ReplyFrame::HelloOk { .. } => Tag::Hello,
            ReplyFrame::ConfigureOk { .. } => Tag::Configure,
        };
        request as u8 | REPLY
    }

    /// The echoed request id.
    pub fn request_id(&self) -> u64 {
        match self {
            ReplyFrame::Applied { request_id, .. }
            | ReplyFrame::AssignmentsOk { request_id, .. }
            | ReplyFrame::SnapshotOk { request_id, .. }
            | ReplyFrame::ActiveOk { request_id, .. }
            | ReplyFrame::HasWorkerOk { request_id, .. }
            | ReplyFrame::DrainOk { request_id }
            | ReplyFrame::ShutdownOk { request_id }
            | ReplyFrame::ReplBootstrapOk { request_id, .. }
            | ReplyFrame::ReplFetchOk { request_id, .. }
            | ReplyFrame::ReplStatusOk { request_id, .. }
            | ReplyFrame::ReplPromoteOk { request_id, .. }
            | ReplyFrame::HelloOk { request_id, .. }
            | ReplyFrame::ConfigureOk { request_id, .. }
            | ReplyFrame::Error { request_id, .. } => *request_id,
        }
    }

    /// Encodes the payload.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            ReplyFrame::Applied { outcome, .. } => match outcome {
                CommandOutcome::Submitted { events } => e.u32(*events),
                CommandOutcome::Ticked(tick) => put_tick(&mut e, tick),
                CommandOutcome::Answered { banked } => e.bool(*banked),
                CommandOutcome::Released => {}
            },
            ReplyFrame::AssignmentsOk { assignments, .. } => put_pairs(&mut e, assignments),
            ReplyFrame::SnapshotOk { snapshot, .. } => put_snapshot(&mut e, snapshot),
            ReplyFrame::ActiveOk { active, .. } => e.bool(*active),
            ReplyFrame::HasWorkerOk { present, .. } => e.bool(*present),
            ReplyFrame::ReplBootstrapOk {
                start_lsn,
                state,
                configure,
                ..
            } => {
                e.u64(*start_lsn);
                e.bytes(state);
                e.str(configure);
            }
            ReplyFrame::ReplFetchOk {
                next_lsn, records, ..
            } => {
                e.u64(*next_lsn);
                e.u32(records.len() as u32);
                for (lsn, record) in records {
                    e.u64(*lsn);
                    e.bytes(record);
                }
            }
            ReplyFrame::ReplStatusOk { status, .. } => {
                e.str(&status.role);
                e.u64(status.next_lsn);
                e.u64(status.acked);
                e.u64(status.retained);
                e.u64(status.resets);
                e.u64(status.applied);
                e.u64(status.lag);
                e.bool(status.sealed);
            }
            ReplyFrame::ReplPromoteOk {
                digest, applied, ..
            } => {
                e.u64(*digest);
                e.u64(*applied);
            }
            ReplyFrame::HelloOk { hello, .. } => {
                e.u32(hello.protocol_version);
                e.bool(hello.region_index.is_some());
                if let Some(region) = hello.region_index {
                    e.u32(region);
                }
                e.bool(hello.draining);
                e.bool(hello.standby);
            }
            ReplyFrame::ConfigureOk {
                already_configured, ..
            } => e.bool(*already_configured),
            ReplyFrame::Error { status, detail, .. } => {
                e.u16(*status);
                e.str(detail);
            }
            ReplyFrame::DrainOk { .. } | ReplyFrame::ShutdownOk { .. } => {}
        }
        e.into_bytes()
    }

    /// Writes the frame (vectored); returns the bytes put on the wire.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        write_frame(w, self.tag(), self.request_id(), &self.encode_payload())
    }

    /// Decodes a raw frame into a reply.
    pub fn decode(raw: &RawFrame) -> Result<Self, FrameError> {
        let request_id = raw.request_id;
        let mut d = Decoder::new(&raw.payload);
        if raw.tag == ERROR {
            let (status, detail) = (d.u16()?, d.str()?);
            d.finish()?;
            return Ok(ReplyFrame::Error {
                request_id,
                status,
                detail,
            });
        }
        if raw.tag & REPLY == 0 {
            return Err(malformed(format!("{:#04x} is not a reply tag", raw.tag)));
        }
        let applied = |outcome| ReplyFrame::Applied {
            request_id,
            outcome,
        };
        let frame = match Tag::try_from(raw.tag & !REPLY)? {
            Tag::Submit => applied(CommandOutcome::Submitted { events: d.u32()? }),
            Tag::Tick => applied(CommandOutcome::Ticked(Box::new(get_tick(&mut d)?))),
            Tag::Answer => applied(CommandOutcome::Answered { banked: d.bool()? }),
            Tag::Release => applied(CommandOutcome::Released),
            Tag::Assignments => ReplyFrame::AssignmentsOk {
                request_id,
                assignments: get_pairs(&mut d)?,
            },
            Tag::Snapshot => ReplyFrame::SnapshotOk {
                request_id,
                snapshot: Box::new(get_snapshot(&mut d)?),
            },
            Tag::IsActive => ReplyFrame::ActiveOk {
                request_id,
                active: d.bool()?,
            },
            Tag::HasWorker => ReplyFrame::HasWorkerOk {
                request_id,
                present: d.bool()?,
            },
            Tag::Drain => ReplyFrame::DrainOk { request_id },
            Tag::Shutdown => ReplyFrame::ShutdownOk { request_id },
            Tag::ReplBootstrap => ReplyFrame::ReplBootstrapOk {
                request_id,
                start_lsn: d.u64()?,
                state: d.bytes()?,
                configure: d.str()?,
            },
            Tag::ReplFetch => {
                let next_lsn = d.u64()?;
                // The smallest entry is an lsn plus an empty bytes field.
                let n = d.count(12)?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push((d.u64()?, d.bytes()?));
                }
                ReplyFrame::ReplFetchOk {
                    request_id,
                    next_lsn,
                    records,
                }
            }
            Tag::ReplStatus => ReplyFrame::ReplStatusOk {
                request_id,
                status: ReplStatusDto {
                    role: d.str()?,
                    next_lsn: d.u64()?,
                    acked: d.u64()?,
                    retained: d.u64()?,
                    resets: d.u64()?,
                    applied: d.u64()?,
                    lag: d.u64()?,
                    sealed: d.bool()?,
                },
            },
            Tag::ReplPromote => ReplyFrame::ReplPromoteOk {
                request_id,
                digest: d.u64()?,
                applied: d.u64()?,
            },
            Tag::Hello => ReplyFrame::HelloOk {
                request_id,
                hello: Hello {
                    protocol_version: d.u32()?,
                    region_index: if d.bool()? { Some(d.u32()?) } else { None },
                    draining: d.bool()?,
                    standby: d.bool()?,
                },
            },
            Tag::Configure => ReplyFrame::ConfigureOk {
                request_id,
                already_configured: d.bool()?,
            },
        };
        d.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_model::{Confidence, Task, TimeWindow, Worker};

    /// What the deleted W001 lint audited by lexing two files, minus what
    /// the compiler now checks (unique discriminants, one arm per tag in
    /// every decoder and dispatcher): the request range, the reply bit and
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

    fn round_trip_request(frame: RequestFrame) {
        let mut wire = Vec::new();
        let n = frame.write_to(&mut wire).unwrap();
        assert_eq!(n, wire.len());
        let raw = read_raw(&mut &wire[..], 1 << 20).unwrap().unwrap();
        assert_eq!(RequestFrame::decode(&raw).unwrap(), frame);
    }

    fn round_trip_reply(frame: ReplyFrame) {
        let mut wire = Vec::new();
        let n = frame.write_to(&mut wire).unwrap();
        assert_eq!(n, wire.len());
        let raw = read_raw(&mut &wire[..], 1 << 20).unwrap().unwrap();
        assert_eq!(ReplyFrame::decode(&raw).unwrap(), frame);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(RequestFrame::Command {
            request_id: 7,
            trace: 0xdead_beef_cafe_f00d,
            command: PartitionCommand::Submit(vec![
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
        });
        round_trip_request(RequestFrame::Command {
            request_id: 8,
            trace: 9,
            command: PartitionCommand::Tick { now: 1.5 },
        });
        round_trip_request(RequestFrame::Command {
            request_id: 9,
            trace: 0,
            command: PartitionCommand::Answer {
                worker: WorkerId(3),
                contribution: Contribution::new(Confidence::new(0.9).unwrap(), 1.25, 2.5),
            },
        });
        round_trip_request(RequestFrame::Command {
            request_id: 10,
            trace: 0,
            command: PartitionCommand::Release {
                worker: WorkerId(3),
            },
        });
        round_trip_request(RequestFrame::Assignments { request_id: 11 });
        round_trip_request(RequestFrame::Snapshot { request_id: 12 });
        round_trip_request(RequestFrame::IsActive { request_id: 13 });
        round_trip_request(RequestFrame::HasWorker {
            request_id: 14,
            worker: WorkerId(99),
        });
        round_trip_request(RequestFrame::Drain { request_id: 15 });
        round_trip_request(RequestFrame::Shutdown { request_id: 16 });
        round_trip_request(RequestFrame::ReplBootstrap { request_id: 17 });
        round_trip_request(RequestFrame::ReplFetch {
            request_id: 18,
            from: 42,
            ack: 40,
            max: 256,
        });
        round_trip_request(RequestFrame::ReplStatus { request_id: 19 });
        round_trip_request(RequestFrame::ReplPromote { request_id: 20 });
        round_trip_request(RequestFrame::Hello { request_id: 21 });
        round_trip_request(RequestFrame::Configure {
            request_id: 22,
            configure: r#"{"region_index":1,"cell_size":0.1}"#.into(),
        });
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(ReplyFrame::Applied {
            request_id: 7,
            outcome: CommandOutcome::Submitted { events: 42 },
        });
        round_trip_reply(ReplyFrame::Applied {
            request_id: 8,
            outcome: CommandOutcome::Ticked(Box::new(PartitionTick {
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
            })),
        });
        round_trip_reply(ReplyFrame::Applied {
            request_id: 9,
            outcome: CommandOutcome::Answered { banked: true },
        });
        round_trip_reply(ReplyFrame::Applied {
            request_id: 10,
            outcome: CommandOutcome::Released,
        });
        round_trip_reply(ReplyFrame::AssignmentsOk {
            request_id: 11,
            assignments: vec![],
        });
        round_trip_reply(ReplyFrame::SnapshotOk {
            request_id: 12,
            snapshot: Box::new(EngineSnapshot {
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
            }),
        });
        round_trip_reply(ReplyFrame::ActiveOk {
            request_id: 13,
            active: false,
        });
        round_trip_reply(ReplyFrame::HasWorkerOk {
            request_id: 14,
            present: true,
        });
        round_trip_reply(ReplyFrame::DrainOk { request_id: 15 });
        round_trip_reply(ReplyFrame::ShutdownOk { request_id: 16 });
        round_trip_reply(ReplyFrame::ReplBootstrapOk {
            request_id: 18,
            start_lsn: 7,
            state: vec![5, 0, 0, 0, 1, 2, 3],
            configure: r#"{"region_index":1}"#.into(),
        });
        round_trip_reply(ReplyFrame::ReplFetchOk {
            request_id: 19,
            next_lsn: 44,
            records: vec![(42, vec![2, 1]), (43, vec![])],
        });
        round_trip_reply(ReplyFrame::ReplStatusOk {
            request_id: 20,
            status: ReplStatusDto {
                role: "standby".into(),
                next_lsn: 44,
                acked: 40,
                retained: 4,
                resets: 0,
                applied: 42,
                lag: 2,
                sealed: false,
            },
        });
        round_trip_reply(ReplyFrame::ReplPromoteOk {
            request_id: 21,
            digest: 0xfeed_face_dead_beef,
            applied: 42,
        });
        for (region_index, draining, standby) in [(None, false, true), (Some(3), true, false)] {
            round_trip_reply(ReplyFrame::HelloOk {
                request_id: 22,
                hello: Hello {
                    protocol_version: 7,
                    region_index,
                    draining,
                    standby,
                },
            });
        }
        round_trip_reply(ReplyFrame::ConfigureOk {
            request_id: 23,
            already_configured: true,
        });
        round_trip_reply(ReplyFrame::Error {
            request_id: 17,
            status: 503,
            detail: "draining".into(),
        });
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
            let frame = RequestFrame::Command {
                request_id: 1,
                trace: 0,
                command: PartitionCommand::Tick {
                    now: f64::from_bits(bits),
                },
            };
            let mut wire = Vec::new();
            frame.write_to(&mut wire).unwrap();
            let raw = read_raw(&mut &wire[..], 1 << 20).unwrap().unwrap();
            match RequestFrame::decode(&raw).unwrap() {
                RequestFrame::Command {
                    command: PartitionCommand::Tick { now },
                    ..
                } => assert_eq!(now.to_bits(), bits),
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
                err.to_string().contains(&format!(
                    "frame version {version} but this build speaks 3"
                )),
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
            fn write_vectored(
                &mut self,
                bufs: &[std::io::IoSlice<'_>],
            ) -> std::io::Result<usize> {
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
