//! Length-prefixed binary framing for the partition protocol — the hot
//! command path between router and `rdbsc-partitiond` daemons.
//!
//! This is the only carrier of partition *data* commands (HTTP keeps the
//! hello/configure handshake and the ops surface, see
//! [`crate::partitiond`]): floats travel as their IEEE-754 bit patterns
//! verbatim, integers are little-endian fixed-width, and every frame is
//! length-prefixed so the reader never scans for delimiters. Frames carry
//! the platform's own values — a submit's events are written and read by
//! the WAL codec ([`rdbsc_platform::wal::Encoder::event`]), so an
//! `EngineEvent` has one binary encoding whether it is logged, shipped to
//! a standby or routed to a daemon.
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
//! Request tags are `0x01..=0x0E` (`0x0B..=0x0E` are the replication
//! commands); the matching reply tag is the request
//! tag with the high bit set (`0x81..=0x8E`), and `0xFF` is the error
//! reply (an HTTP-style status + detail). The request id is echoed in the
//! reply header, which is what makes **pipelining** safe: a client may write several frames
//! before reading any reply, and replies come back in order, each naming
//! the request it answers.
//!
//! The decoder is hostile-input safe by construction: every read is
//! bounds-checked against the declared payload, collection counts are
//! validated against the bytes actually present before any allocation,
//! and trailing garbage fails the frame. Malformed frames produce
//! [`FrameError::Malformed`], never a panic (property-tested in
//! `tests/proptest_frame.rs`).

use crate::dto::{AnswerDto, AssignmentDto, SnapshotDto, WalStatsDto};
use rdbsc_index::MaintenanceCounters;
use rdbsc_model::WorkerId;
use rdbsc_platform::wal::{Decoder as EventDecoder, Encoder as EventEncoder};
use rdbsc_platform::{EngineEvent, PartitionTick, TickReport, WalError};
use std::io::{BufRead, Write};

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = [0xB5, 0xDC];
/// The framing revision (independent of the logical
/// `rdbsc_platform::PROTOCOL_VERSION`, which governs command semantics).
pub const FRAME_VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Request command tags.
pub mod tag {
    /// `submit` — a routed event batch.
    pub const SUBMIT: u8 = 0x01;
    /// `tick` — one lockstep engine round.
    pub const TICK: u8 = 0x02;
    /// `answer` — bank an en-route worker's answer.
    pub const ANSWER: u8 = 0x03;
    /// `release` — release an en-route worker.
    pub const RELEASE: u8 = 0x04;
    /// `assignments` — the standing committed pairs.
    pub const ASSIGNMENTS: u8 = 0x05;
    /// `snapshot` — the partition's serving state.
    pub const SNAPSHOT: u8 = 0x06;
    /// `is_active` — pending events or live tasks?
    pub const IS_ACTIVE: u8 = 0x07;
    /// `has_worker` — residency probe.
    pub const HAS_WORKER: u8 = 0x08;
    /// `drain` — stop taking new commands.
    pub const DRAIN: u8 = 0x09;
    /// `shutdown` — stop the daemon.
    pub const SHUTDOWN: u8 = 0x0A;
    /// `repl_bootstrap` — start (or restart) the replication stream: a
    /// state snapshot plus the stream lsn the live tail resumes at.
    pub const REPL_BOOTSTRAP: u8 = 0x0B;
    /// `repl_fetch` — pull shipped records and acknowledge applied ones.
    pub const REPL_FETCH: u8 = 0x0C;
    /// `repl_status` — the replication counters (role, watermarks, lag).
    pub const REPL_STATUS: u8 = 0x0D;
    /// `repl_promote` — promote a standby: seal the stream, start a fresh
    /// log epoch, accept mutating commands.
    pub const REPL_PROMOTE: u8 = 0x0E;
    /// Reply tags set the high bit of their request tag.
    pub const REPLY: u8 = 0x80;
    /// The error reply (any request may answer with it).
    pub const ERROR: u8 = 0xFF;
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
// Payload primitives.

/// Little-endian payload writer — thin helpers over a `Vec<u8>`.
struct Enc(Vec<u8>);

impl Enc {
    fn new() -> Self {
        Enc(Vec::new())
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.0.push(v as u8);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// IEEE-754 bits verbatim — the wire identity the determinism digest
    /// relies on.
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    /// Opaque length-prefixed bytes — replication records travel in the
    /// platform's canonical WAL codec, never re-encoded here.
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
    fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Bounds-checked payload reader. Every accessor fails with
/// [`FrameError::Malformed`] instead of panicking, and [`Dec::finish`]
/// rejects trailing bytes.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "payload truncated reading {what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn bool(&mut self, what: &str) -> Result<bool, FrameError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("{what} flag must be 0 or 1, got {other}"))),
        }
    }

    fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String, FrameError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| malformed(format!("{what} is not valid UTF-8")))
    }

    /// Opaque length-prefixed bytes; the length is validated against the
    /// remaining payload before any allocation.
    fn bytes(&mut self, what: &str) -> Result<Vec<u8>, FrameError> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    /// Reads a collection count and validates it against the bytes
    /// actually present (`min_elem` bytes per element), so a hostile
    /// length prefix cannot drive a huge allocation.
    fn count(&mut self, min_elem: usize, what: &str) -> Result<usize, FrameError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(malformed(format!(
                "{what} declares {n} elements but only {} payload bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(malformed(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// DTO field codecs (shared by requests and replies).

/// Reads one submit event with the WAL codec, which rebuilds tasks and
/// workers through the validating model constructors (what it rejects
/// names the field), then makes the one check the wire makes that log
/// recovery does not: a move to a non-finite position. A log only ever
/// holds events that passed this boundary, so recovery stays as permissive
/// as it was.
fn get_event(r: &mut EventDecoder) -> Result<EngineEvent, String> {
    let event = r.event().map_err(|e| match e {
        WalError::Corrupt(what) => what,
        io => io.to_string(),
    })?;
    match event {
        EngineEvent::WorkerMoved(_, to) if !(to.x.is_finite() && to.y.is_finite()) => {
            Err("worker_moved x/y must be finite numbers".to_string())
        }
        event => Ok(event),
    }
}

/// The solver names the engine can report; decoding maps back onto these
/// statics so a merged report compares equal to a local one.
const KNOWN_STRATEGIES: [&str; 4] = ["GREEDY", "SAMPLING", "D&C", "G-TRUTH"];

fn put_assignment(e: &mut Enc, a: &AssignmentDto) {
    e.u32(a.task);
    e.u32(a.worker);
    e.f64(a.confidence);
    e.f64(a.angle);
    e.f64(a.arrival);
}

fn get_assignment(d: &mut Dec) -> Result<AssignmentDto, FrameError> {
    Ok(AssignmentDto {
        task: d.u32("assignment task")?,
        worker: d.u32("assignment worker")?,
        confidence: d.f64("assignment confidence")?,
        angle: d.f64("assignment angle")?,
        arrival: d.f64("assignment arrival")?,
    })
}

fn put_snapshot(e: &mut Enc, s: &SnapshotDto) {
    e.f64(s.now);
    e.f64(s.ticks);
    e.f64(s.events_applied);
    e.f64(s.pending_events);
    e.f64(s.live_tasks);
    e.f64(s.live_workers);
    e.f64(s.committed_workers);
    e.f64(s.banked_answers);
    e.f64(s.total_assignments);
    e.f64(s.min_reliability);
    e.f64(s.total_std);
    e.f64(s.covered_tasks);
    e.f64(s.index_relocations);
    e.f64(s.index_cells_repaired);
    e.f64(s.index_tcell_rebuilds);
    match &s.wal {
        Some(w) => {
            e.u8(1);
            e.f64(w.segments);
            e.f64(w.segments_retired);
            e.f64(w.bytes_appended);
            e.f64(w.records_appended);
            e.f64(w.fsyncs);
            e.f64(w.checkpoints);
            e.f64(w.last_checkpoint_tick);
            e.f64(w.recovered_records);
            e.bool(w.recovered_checkpoint);
        }
        None => e.u8(0),
    }
}

fn get_snapshot(d: &mut Dec) -> Result<SnapshotDto, FrameError> {
    Ok(SnapshotDto {
        now: d.f64("snapshot now")?,
        ticks: d.f64("snapshot ticks")?,
        events_applied: d.f64("snapshot events_applied")?,
        pending_events: d.f64("snapshot pending_events")?,
        live_tasks: d.f64("snapshot live_tasks")?,
        live_workers: d.f64("snapshot live_workers")?,
        committed_workers: d.f64("snapshot committed_workers")?,
        banked_answers: d.f64("snapshot banked_answers")?,
        total_assignments: d.f64("snapshot total_assignments")?,
        min_reliability: d.f64("snapshot min_reliability")?,
        total_std: d.f64("snapshot total_std")?,
        covered_tasks: d.f64("snapshot covered_tasks")?,
        index_relocations: d.f64("snapshot index_relocations")?,
        index_cells_repaired: d.f64("snapshot index_cells_repaired")?,
        index_tcell_rebuilds: d.f64("snapshot index_tcell_rebuilds")?,
        wal: if d.bool("snapshot wal")? {
            Some(WalStatsDto {
                segments: d.f64("wal segments")?,
                segments_retired: d.f64("wal segments_retired")?,
                bytes_appended: d.f64("wal bytes_appended")?,
                records_appended: d.f64("wal records_appended")?,
                fsyncs: d.f64("wal fsyncs")?,
                checkpoints: d.f64("wal checkpoints")?,
                last_checkpoint_tick: d.f64("wal last_checkpoint_tick")?,
                recovered_records: d.f64("wal recovered_records")?,
                recovered_checkpoint: d.bool("wal recovered_checkpoint")?,
            })
        } else {
            None
        },
    })
}

// ---------------------------------------------------------------------------
// Commands.

/// A decoded request frame — one partition command.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// A routed event batch for the partition's next tick.
    Submit {
        /// The request id.
        request_id: u64,
        /// The trace id the batch is attributed to (`0` = untraced).
        trace: u64,
        /// The events, in routing order.
        events: Vec<EngineEvent>,
    },
    /// One lockstep engine round.
    Tick {
        /// The request id.
        request_id: u64,
        /// The trace id (`0` = untraced).
        trace: u64,
        /// The tick time.
        now: f64,
    },
    /// Bank an en-route worker's answer.
    Answer {
        /// The request id.
        request_id: u64,
        /// The answer.
        answer: AnswerDto,
    },
    /// Release an en-route worker without banking.
    Release {
        /// The request id.
        request_id: u64,
        /// The worker.
        worker: u32,
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
        worker: u32,
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
    /// Pull shipped records from `from`, acknowledging everything below
    /// `ack`.
    ReplFetch {
        /// The request id.
        request_id: u64,
        /// The first stream lsn wanted.
        from: u64,
        /// The acknowledgement watermark (exclusive): every record below
        /// it was applied by the follower and may be released.
        ack: u64,
        /// At most this many records.
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
}

impl RequestFrame {
    /// The command tag.
    pub fn tag(&self) -> u8 {
        match self {
            RequestFrame::Submit { .. } => tag::SUBMIT,
            RequestFrame::Tick { .. } => tag::TICK,
            RequestFrame::Answer { .. } => tag::ANSWER,
            RequestFrame::Release { .. } => tag::RELEASE,
            RequestFrame::Assignments { .. } => tag::ASSIGNMENTS,
            RequestFrame::Snapshot { .. } => tag::SNAPSHOT,
            RequestFrame::IsActive { .. } => tag::IS_ACTIVE,
            RequestFrame::HasWorker { .. } => tag::HAS_WORKER,
            RequestFrame::Drain { .. } => tag::DRAIN,
            RequestFrame::Shutdown { .. } => tag::SHUTDOWN,
            RequestFrame::ReplBootstrap { .. } => tag::REPL_BOOTSTRAP,
            RequestFrame::ReplFetch { .. } => tag::REPL_FETCH,
            RequestFrame::ReplStatus { .. } => tag::REPL_STATUS,
            RequestFrame::ReplPromote { .. } => tag::REPL_PROMOTE,
        }
    }

    /// The request id.
    pub fn request_id(&self) -> u64 {
        match self {
            RequestFrame::Submit { request_id, .. }
            | RequestFrame::Tick { request_id, .. }
            | RequestFrame::Answer { request_id, .. }
            | RequestFrame::Release { request_id, .. }
            | RequestFrame::Assignments { request_id }
            | RequestFrame::Snapshot { request_id }
            | RequestFrame::IsActive { request_id }
            | RequestFrame::HasWorker { request_id, .. }
            | RequestFrame::Drain { request_id }
            | RequestFrame::Shutdown { request_id }
            | RequestFrame::ReplBootstrap { request_id }
            | RequestFrame::ReplFetch { request_id, .. }
            | RequestFrame::ReplStatus { request_id }
            | RequestFrame::ReplPromote { request_id } => *request_id,
        }
    }

    /// Encodes the payload (header built separately by [`header`]).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            RequestFrame::Submit { trace, events, .. } => {
                e.u64(*trace);
                e.count(events.len());
                let mut w = EventEncoder::new();
                for event in events {
                    w.event(event);
                }
                e.0.extend_from_slice(&w.into_bytes());
            }
            RequestFrame::Tick { trace, now, .. } => {
                e.u64(*trace);
                e.f64(*now);
            }
            RequestFrame::Answer { answer, .. } => {
                e.u32(answer.worker);
                e.f64(answer.confidence);
                e.f64(answer.angle);
                e.f64(answer.arrival);
            }
            RequestFrame::Release { worker, .. } | RequestFrame::HasWorker { worker, .. } => {
                e.u32(*worker);
            }
            RequestFrame::ReplFetch { from, ack, max, .. } => {
                e.u64(*from);
                e.u64(*ack);
                e.u32(*max);
            }
            RequestFrame::Assignments { .. }
            | RequestFrame::Snapshot { .. }
            | RequestFrame::IsActive { .. }
            | RequestFrame::Drain { .. }
            | RequestFrame::Shutdown { .. }
            | RequestFrame::ReplBootstrap { .. }
            | RequestFrame::ReplStatus { .. }
            | RequestFrame::ReplPromote { .. } => {}
        }
        e.0
    }

    /// Writes the frame (header + payload in one vectored write); returns
    /// the bytes put on the wire.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        write_frame(w, self.tag(), self.request_id(), &self.encode_payload())
    }

    /// Decodes a raw frame into a request.
    pub fn decode(raw: &RawFrame) -> Result<Self, FrameError> {
        let rid = raw.request_id;
        let mut d = Dec::new(&raw.payload);
        let frame = match raw.tag {
            tag::SUBMIT => {
                let trace = d.u64("submit trace")?;
                // The smallest event (TaskExpired / WorkerLeft) is 5 bytes.
                let n = d.count(5, "submit events")?;
                let mut events = Vec::with_capacity(n);
                let mut r = EventDecoder::new(d.take(d.remaining(), "submit events")?);
                for i in 0..n {
                    let event = get_event(&mut r)
                        .map_err(|what| malformed(format!("submit event {i}: {what}")))?;
                    events.push(event);
                }
                if r.remaining() != 0 {
                    return Err(malformed(format!(
                        "{} trailing bytes after the last event",
                        r.remaining()
                    )));
                }
                RequestFrame::Submit {
                    request_id: rid,
                    trace,
                    events,
                }
            }
            tag::TICK => RequestFrame::Tick {
                request_id: rid,
                trace: d.u64("tick trace")?,
                now: d.f64("tick now")?,
            },
            tag::ANSWER => RequestFrame::Answer {
                request_id: rid,
                answer: AnswerDto {
                    worker: d.u32("answer worker")?,
                    confidence: d.f64("answer confidence")?,
                    angle: d.f64("answer angle")?,
                    arrival: d.f64("answer arrival")?,
                },
            },
            tag::RELEASE => RequestFrame::Release {
                request_id: rid,
                worker: d.u32("release worker")?,
            },
            tag::ASSIGNMENTS => RequestFrame::Assignments { request_id: rid },
            tag::SNAPSHOT => RequestFrame::Snapshot { request_id: rid },
            tag::IS_ACTIVE => RequestFrame::IsActive { request_id: rid },
            tag::HAS_WORKER => RequestFrame::HasWorker {
                request_id: rid,
                worker: d.u32("has_worker worker")?,
            },
            tag::DRAIN => RequestFrame::Drain { request_id: rid },
            tag::SHUTDOWN => RequestFrame::Shutdown { request_id: rid },
            tag::REPL_BOOTSTRAP => RequestFrame::ReplBootstrap { request_id: rid },
            tag::REPL_FETCH => RequestFrame::ReplFetch {
                request_id: rid,
                from: d.u64("repl_fetch from")?,
                ack: d.u64("repl_fetch ack")?,
                max: d.u32("repl_fetch max")?,
            },
            tag::REPL_STATUS => RequestFrame::ReplStatus { request_id: rid },
            tag::REPL_PROMOTE => RequestFrame::ReplPromote { request_id: rid },
            other => return Err(malformed(format!("unknown request tag {other:#04x}"))),
        };
        d.finish()?;
        Ok(frame)
    }
}

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyFrame {
    /// Submit accepted; `buffered` events now pending.
    SubmitOk {
        /// The echoed request id.
        request_id: u64,
        /// Events pending after the batch.
        buffered: u32,
    },
    /// The full-fidelity tick: everything the router's merge needs, so a
    /// remote partition's tick contributes to the merged report exactly
    /// like a local one.
    TickOk {
        /// The echoed request id.
        request_id: u64,
        /// The tick report, committed set and echoed trace id.
        tick: Box<PartitionTick>,
    },
    /// Answer processed.
    AnswerOk {
        /// The echoed request id.
        request_id: u64,
        /// Was the worker committed here (and the answer banked)?
        banked: bool,
    },
    /// Release processed.
    ReleaseOk {
        /// The echoed request id.
        request_id: u64,
    },
    /// The standing committed pairs.
    AssignmentsOk {
        /// The echoed request id.
        request_id: u64,
        /// The pairs, in `(task, worker)` order.
        assignments: Vec<AssignmentDto>,
    },
    /// The serving-state snapshot.
    SnapshotOk {
        /// The echoed request id.
        request_id: u64,
        /// The snapshot.
        snapshot: Box<SnapshotDto>,
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
        /// The stream lsn of the first record published after the
        /// snapshot.
        start_lsn: u64,
        /// The snapshot, as an encoded `WalRecord::Checkpoint` — the
        /// platform's canonical codec, never re-encoded by the transport.
        state: Vec<u8>,
        /// The primary's configure fingerprint (canonical JSON text).
        configure: String,
    },
    /// A batch of shipped records.
    ReplFetchOk {
        /// The echoed request id.
        request_id: u64,
        /// The primary's stream head (what lag is measured against).
        next_lsn: u64,
        /// `(lsn, record)` pairs, lsn-ascending; records are opaque
        /// canonical-WAL-codec bytes.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// The replication counters.
    ReplStatusOk {
        /// The echoed request id.
        request_id: u64,
        /// The counters.
        status: crate::protocol::ReplStatusDto,
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
        /// Stream records applied before the seal.
        applied: u64,
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
        match self {
            ReplyFrame::SubmitOk { .. } => tag::SUBMIT | tag::REPLY,
            ReplyFrame::TickOk { .. } => tag::TICK | tag::REPLY,
            ReplyFrame::AnswerOk { .. } => tag::ANSWER | tag::REPLY,
            ReplyFrame::ReleaseOk { .. } => tag::RELEASE | tag::REPLY,
            ReplyFrame::AssignmentsOk { .. } => tag::ASSIGNMENTS | tag::REPLY,
            ReplyFrame::SnapshotOk { .. } => tag::SNAPSHOT | tag::REPLY,
            ReplyFrame::ActiveOk { .. } => tag::IS_ACTIVE | tag::REPLY,
            ReplyFrame::HasWorkerOk { .. } => tag::HAS_WORKER | tag::REPLY,
            ReplyFrame::DrainOk { .. } => tag::DRAIN | tag::REPLY,
            ReplyFrame::ShutdownOk { .. } => tag::SHUTDOWN | tag::REPLY,
            ReplyFrame::ReplBootstrapOk { .. } => tag::REPL_BOOTSTRAP | tag::REPLY,
            ReplyFrame::ReplFetchOk { .. } => tag::REPL_FETCH | tag::REPLY,
            ReplyFrame::ReplStatusOk { .. } => tag::REPL_STATUS | tag::REPLY,
            ReplyFrame::ReplPromoteOk { .. } => tag::REPL_PROMOTE | tag::REPLY,
            ReplyFrame::Error { .. } => tag::ERROR,
        }
    }

    /// The echoed request id.
    pub fn request_id(&self) -> u64 {
        match self {
            ReplyFrame::SubmitOk { request_id, .. }
            | ReplyFrame::TickOk { request_id, .. }
            | ReplyFrame::AnswerOk { request_id, .. }
            | ReplyFrame::ReleaseOk { request_id }
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
            | ReplyFrame::Error { request_id, .. } => *request_id,
        }
    }

    /// Encodes the payload.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            ReplyFrame::SubmitOk { buffered, .. } => e.u32(*buffered),
            ReplyFrame::TickOk { tick, .. } => {
                let r = &tick.report;
                e.f64(r.now);
                e.u64(r.events_applied as u64);
                e.u64(r.tasks_expired as u64);
                e.u64(r.num_shards as u64);
                e.u64(r.largest_shard_pairs as u64);
                e.count(r.strategies.len());
                for s in &r.strategies {
                    e.str(s);
                }
                e.count(r.new_assignments.len());
                for pair in &r.new_assignments {
                    put_assignment(&mut e, &AssignmentDto::from_pair(pair));
                }
                e.f64(r.solve_seconds);
                e.count(r.shard_solve_seconds.len());
                for s in &r.shard_solve_seconds {
                    e.f64(*s);
                }
                e.u64(r.index_maintenance.relocations);
                e.u64(r.index_maintenance.cells_repaired);
                e.u64(r.index_maintenance.tcell_rebuilds);
                e.count(tick.committed.len());
                for w in &tick.committed {
                    e.u32(w.0);
                }
                for v in r.stages.values() {
                    e.u64(v);
                }
                e.u64(tick.trace);
            }
            ReplyFrame::AnswerOk { banked, .. } => e.bool(*banked),
            ReplyFrame::AssignmentsOk { assignments, .. } => {
                e.count(assignments.len());
                for a in assignments {
                    put_assignment(&mut e, a);
                }
            }
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
                e.count(records.len());
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
            ReplyFrame::Error { status, detail, .. } => {
                e.u16(*status);
                e.str(detail);
            }
            ReplyFrame::ReleaseOk { .. }
            | ReplyFrame::DrainOk { .. }
            | ReplyFrame::ShutdownOk { .. } => {}
        }
        e.0
    }

    /// Writes the frame (vectored); returns the bytes put on the wire.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        write_frame(w, self.tag(), self.request_id(), &self.encode_payload())
    }

    /// Decodes a raw frame into a reply.
    pub fn decode(raw: &RawFrame) -> Result<Self, FrameError> {
        let rid = raw.request_id;
        let mut d = Dec::new(&raw.payload);
        let frame = match raw.tag {
            t if t == tag::SUBMIT | tag::REPLY => ReplyFrame::SubmitOk {
                request_id: rid,
                buffered: d.u32("submit buffered")?,
            },
            t if t == tag::TICK | tag::REPLY => {
                let now = d.f64("tick now")?;
                let events_applied = d.u64("tick events_applied")? as usize;
                let tasks_expired = d.u64("tick tasks_expired")? as usize;
                let num_shards = d.u64("tick num_shards")? as usize;
                let largest_shard_pairs = d.u64("tick largest_shard_pairs")? as usize;
                let n = d.count(4, "tick strategies")?;
                let mut strategies = Vec::with_capacity(n);
                for _ in 0..n {
                    // An unknown name (a newer daemon) decodes as
                    // `"UNKNOWN"` rather than failing.
                    let name = d.str("tick strategy")?;
                    strategies.push(
                        KNOWN_STRATEGIES
                            .iter()
                            .find(|known| **known == name)
                            .copied()
                            .unwrap_or("UNKNOWN"),
                    );
                }
                let n = d.count(32, "tick new_assignments")?;
                let mut new_assignments = Vec::with_capacity(n);
                for _ in 0..n {
                    new_assignments.push(
                        get_assignment(&mut d)?
                            .into_pair()
                            .map_err(|e| malformed(format!("tick assignment: {e}")))?,
                    );
                }
                let solve_seconds = d.f64("tick solve_seconds")?;
                let n = d.count(8, "tick shard_solve_seconds")?;
                let mut shard_solve_seconds = Vec::with_capacity(n);
                for _ in 0..n {
                    shard_solve_seconds.push(d.f64("tick shard seconds")?);
                }
                let index_maintenance = MaintenanceCounters {
                    relocations: d.u64("tick index_relocations")?,
                    cells_repaired: d.u64("tick index_cells_repaired")?,
                    tcell_rebuilds: d.u64("tick index_tcell_rebuilds")?,
                };
                let n = d.count(4, "tick committed")?;
                let mut committed = Vec::with_capacity(n);
                for _ in 0..n {
                    committed.push(WorkerId(d.u32("tick committed worker")?));
                }
                let mut stages = [0u64; rdbsc_obs::NUM_STAGES];
                for (i, slot) in stages.iter_mut().enumerate() {
                    *slot = d.u64(rdbsc_obs::StageTimings::NAMES[i])?;
                }
                let trace = d.u64("tick trace")?;
                ReplyFrame::TickOk {
                    request_id: rid,
                    tick: Box::new(PartitionTick {
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
                        trace,
                    }),
                }
            }
            t if t == tag::ANSWER | tag::REPLY => ReplyFrame::AnswerOk {
                request_id: rid,
                banked: d.bool("answer banked")?,
            },
            t if t == tag::RELEASE | tag::REPLY => ReplyFrame::ReleaseOk { request_id: rid },
            t if t == tag::ASSIGNMENTS | tag::REPLY => {
                let n = d.count(32, "assignments")?;
                let mut assignments = Vec::with_capacity(n);
                for _ in 0..n {
                    assignments.push(get_assignment(&mut d)?);
                }
                ReplyFrame::AssignmentsOk {
                    request_id: rid,
                    assignments,
                }
            }
            t if t == tag::SNAPSHOT | tag::REPLY => ReplyFrame::SnapshotOk {
                request_id: rid,
                snapshot: Box::new(get_snapshot(&mut d)?),
            },
            t if t == tag::IS_ACTIVE | tag::REPLY => ReplyFrame::ActiveOk {
                request_id: rid,
                active: d.bool("active")?,
            },
            t if t == tag::HAS_WORKER | tag::REPLY => ReplyFrame::HasWorkerOk {
                request_id: rid,
                present: d.bool("present")?,
            },
            t if t == tag::DRAIN | tag::REPLY => ReplyFrame::DrainOk { request_id: rid },
            t if t == tag::SHUTDOWN | tag::REPLY => ReplyFrame::ShutdownOk { request_id: rid },
            t if t == tag::REPL_BOOTSTRAP | tag::REPLY => ReplyFrame::ReplBootstrapOk {
                request_id: rid,
                start_lsn: d.u64("repl_bootstrap start_lsn")?,
                state: d.bytes("repl_bootstrap state")?,
                configure: d.str("repl_bootstrap configure")?,
            },
            t if t == tag::REPL_FETCH | tag::REPLY => {
                let next_lsn = d.u64("repl_fetch next_lsn")?;
                // The smallest record entry is lsn + an empty bytes field.
                let n = d.count(12, "repl_fetch records")?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let lsn = d.u64("repl_fetch record lsn")?;
                    records.push((lsn, d.bytes("repl_fetch record")?));
                }
                ReplyFrame::ReplFetchOk {
                    request_id: rid,
                    next_lsn,
                    records,
                }
            }
            t if t == tag::REPL_STATUS | tag::REPLY => ReplyFrame::ReplStatusOk {
                request_id: rid,
                status: crate::protocol::ReplStatusDto {
                    role: d.str("repl_status role")?,
                    next_lsn: d.u64("repl_status next_lsn")?,
                    acked: d.u64("repl_status acked")?,
                    retained: d.u64("repl_status retained")?,
                    resets: d.u64("repl_status resets")?,
                    applied: d.u64("repl_status applied")?,
                    lag: d.u64("repl_status lag")?,
                    sealed: d.bool("repl_status sealed")?,
                },
            },
            t if t == tag::REPL_PROMOTE | tag::REPLY => ReplyFrame::ReplPromoteOk {
                request_id: rid,
                digest: d.u64("repl_promote digest")?,
                applied: d.u64("repl_promote applied")?,
            },
            tag::ERROR => ReplyFrame::Error {
                request_id: rid,
                status: d.u16("error status")?,
                detail: d.str("error detail")?,
            },
            other => return Err(malformed(format!("unknown reply tag {other:#04x}"))),
        };
        d.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_model::valid_pairs::ValidPair;
    use rdbsc_model::{Confidence, Contribution, Task, TaskId, TimeWindow, Worker};

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
        round_trip_request(RequestFrame::Submit {
            request_id: 7,
            trace: 0xdead_beef_cafe_f00d,
            events: vec![
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
            ],
        });
        round_trip_request(RequestFrame::Tick {
            request_id: 8,
            trace: 0,
            now: 1.5,
        });
        round_trip_request(RequestFrame::Answer {
            request_id: 9,
            answer: AnswerDto {
                worker: 3,
                confidence: 0.9,
                angle: 1.25,
                arrival: 2.5,
            },
        });
        round_trip_request(RequestFrame::Release {
            request_id: 10,
            worker: 3,
        });
        round_trip_request(RequestFrame::Assignments { request_id: 11 });
        round_trip_request(RequestFrame::Snapshot { request_id: 12 });
        round_trip_request(RequestFrame::IsActive { request_id: 13 });
        round_trip_request(RequestFrame::HasWorker {
            request_id: 14,
            worker: 99,
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
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(ReplyFrame::SubmitOk {
            request_id: 7,
            buffered: 42,
        });
        round_trip_reply(ReplyFrame::TickOk {
            request_id: 8,
            tick: Box::new(PartitionTick {
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
            }),
        });
        round_trip_reply(ReplyFrame::AnswerOk {
            request_id: 9,
            banked: true,
        });
        round_trip_reply(ReplyFrame::ReleaseOk { request_id: 10 });
        round_trip_reply(ReplyFrame::AssignmentsOk {
            request_id: 11,
            assignments: vec![],
        });
        round_trip_reply(ReplyFrame::SnapshotOk {
            request_id: 12,
            snapshot: Box::new(SnapshotDto {
                now: 1.0,
                ticks: 2.0,
                events_applied: 3.0,
                pending_events: 4.0,
                live_tasks: 5.0,
                live_workers: 6.0,
                committed_workers: 7.0,
                banked_answers: 8.0,
                total_assignments: 9.0,
                min_reliability: 0.5,
                total_std: 0.25,
                covered_tasks: 10.0,
                index_relocations: 11.0,
                index_cells_repaired: 12.0,
                index_tcell_rebuilds: 13.0,
                wal: Some(WalStatsDto {
                    segments: 1.0,
                    segments_retired: 0.0,
                    bytes_appended: 1024.0,
                    records_appended: 7.0,
                    fsyncs: 2.0,
                    checkpoints: 1.0,
                    last_checkpoint_tick: 3.0,
                    recovered_records: 0.0,
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
            status: crate::protocol::ReplStatusDto {
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
            let frame = RequestFrame::Tick {
                request_id: 1,
                trace: 0,
                now: f64::from_bits(bits),
            };
            let mut wire = Vec::new();
            frame.write_to(&mut wire).unwrap();
            let raw = read_raw(&mut &wire[..], 1 << 20).unwrap().unwrap();
            match RequestFrame::decode(&raw).unwrap() {
                RequestFrame::Tick { now, .. } => assert_eq!(now.to_bits(), bits),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn clean_eof_yields_none_and_partial_headers_fail() {
        assert!(read_raw(&mut &[][..], 1024).unwrap().is_none());
        let wire = header(tag::DRAIN, 1, 0);
        for cut in 1..HEADER_LEN {
            let err = read_raw(&mut &wire[..cut], 1024).unwrap_err();
            assert!(matches!(err, FrameError::Malformed(_)), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_frames_are_rejected_not_panicking() {
        // Bad magic (an HTTP request hitting a binary reader).
        let err = read_raw(&mut &b"GET /partition/hello HTTP/1.1\r\n\r\n"[..], 1024).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)));
        // Another frame version, older or newer: refused at the header, so
        // a version-2 snapshot reply (which carried a backend string) is
        // never decoded against this build's shorter layout.
        for version in [2, 9] {
            let mut wire = header(tag::DRAIN, 1, 0);
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
        let wire = header(tag::SUBMIT, 1, 1 << 30);
        assert!(matches!(
            read_raw(&mut &wire[..], 1024).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Declared payload longer than the stream.
        let wire = header(tag::SUBMIT, 1, 64);
        assert!(matches!(
            read_raw(&mut &wire[..], 1024).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // A submit whose event count promises more than the bytes hold.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let raw = RawFrame {
            tag: tag::SUBMIT,
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
            tag: tag::RELEASE,
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
