//! The durable partition event log (write-ahead log).
//!
//! Every partition engine is a deterministic state machine: byte-identical
//! command streams produce byte-identical state (the contract the
//! cross-topology FNV digests enforce). That turns durability into pure
//! *redo logging* — persist the command stream, and recovery is exact, not
//! best-effort: load the last checkpoint, replay the tail, and the engine
//! provably reaches its pre-crash state.
//!
//! ## Log format
//!
//! The log is a directory of append-only segments:
//!
//! ```text
//! wal-0000000000.log
//! ┌──────────────────────────────────────────────────────────┐
//! │ header: "RDBSCWAL" | version u32 | seqno u64 | first_lsn │
//! ├──────────────────────────────────────────────────────────┤
//! │ frame:  len u32 | crc32 u32 | lsn u64 | payload[len]     │
//! │ frame:  …                                                │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian; the CRC covers `lsn ‖ payload`. Records
//! carry [`WalRecord`]s — the partition's [`PartitionCommand`]s exactly as
//! they were applied, periodic [`PartitionState`] checkpoints and a
//! follower's replication notes — in the module's canonical binary encoding.
//!
//! ## Durability discipline
//!
//! Appends are buffered by the OS; the log fsyncs **on tick boundaries**
//! ([`WalConfig::fsync_on_tick`]), so one `fsync` amortises over a whole
//! micro-batch of events — the classic group-commit trade: a crash may
//! lose the commands *after* the last tick boundary, never a prefix hole.
//! The contract is that a tick is logged and fsynced **before its outcome
//! leaves the partition**, not before the engine runs: the partition
//! hands the sync to the log's sync thread ([`Wal::begin_sync`]), runs the
//! engine round beside it, and waits for it ([`Wal::end_sync`]) before it
//! builds the reply, writes a checkpoint or publishes the tick for
//! shipping. A tick logged-but-not-acknowledged is recomputed identically
//! on replay (its reply was never externalised), which is what makes
//! write-ahead redo sound here.
//!
//! ## Recovery invariant
//!
//! [`scan_dir`] walks the segments in sequence order and accepts records
//! while the chain is intact: magic/version/seqno/lsn all match and every
//! CRC verifies. The first violation — torn frame, flipped byte, missing
//! segment — ends the *valid prefix*; everything after it is dropped (the
//! torn tail is truncated, later segments deleted) and the appender resumes
//! in a fresh segment. Recovery therefore always yields a prefix of the
//! appended record stream, never a corrupted state — the property the
//! fault-injection proptests in `tests/proptest_wal.rs` hammer with
//! [`FailpointWriter`].
//!
//! Replay streams over that prefix in one pass:
//!
//! - [`scan_dir`] hands each valid record to a visitor, by value, as soon
//!   as its frame is read and decoded; nothing collects the prefix.
//! - A segment is read frame by frame through one reusable buffer, never
//!   whole; a directory with no frame allocates none.
//! - `EnginePartition::open_durable` applies each command as it arrives.
//! - A checkpoint replaces the partition built so far, so the latest
//!   checkpoint wins without a second pass.
//! - A record is valid or not by itself and the records before it, so
//!   applying it before the rest of the log is read still replays exactly
//!   the valid prefix.
//! - Recovery's memory is one frame buffer (as large as the largest
//!   frame), one decoded record and the engine, whatever the tail's
//!   length; `tests/recovery_memory.rs` holds it to that.
//!
//! Checkpoints ride in the log as ordinary records; segments strictly older
//! than the segment holding the latest fsynced checkpoint are retired
//! (deleted) so the log's footprint is bounded by the checkpoint interval.

mod codec;
mod failpoint;

pub use codec::{
    crc32, decode_command, decode_record, encode_command, encode_partition_state, encode_record,
    fnv1a, Decoder, Encoder,
};
pub use failpoint::{FailpointWriter, FaultPlan};

use crate::engine::{EngineEvent, EngineState};
use crate::protocol::PartitionCommand;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// The segment header magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"RDBSCWAL";
/// The segment format revision this build reads and writes.
pub const SEGMENT_VERSION: u32 = 1;
/// Upper bound on one record's payload (a corrupted length field must not
/// look like a plausible frame).
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

const HEADER_BYTES: usize = 8 + 4 + 8 + 8;
const FRAME_HEADER_BYTES: usize = 4 + 4 + 8;

/// Why a log operation failed.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem failed.
    Io(io::Error),
    /// Bytes that should have been a record (or header) were not.
    Corrupt(String),
    /// A record's payload exceeds [`MAX_RECORD_BYTES`]. Recovery rejects
    /// such a frame as a torn tail, so it is refused before a byte of it is
    /// written (and before a checkpoint retires anything).
    RecordTooLarge {
        /// The encoded payload size.
        bytes: u64,
        /// The limit it exceeds.
        limit: u32,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(what) => write!(f, "wal corruption: {what}"),
            WalError::RecordTooLarge { bytes, limit } => {
                write!(
                    f,
                    "wal record of {bytes} bytes exceeds the {limit}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One log record: a command of the redo stream, or one of the two notes
/// the log keeps for itself.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A partition command, logged before it was applied — the redo
    /// stream's unit, and the only kind of record replay executes or a
    /// primary ships.
    Command(PartitionCommand),
    /// A full-state checkpoint; replay restarts from the latest one.
    Checkpoint(PartitionState),
    /// Replication-stream metadata a follower notes in its own log: the
    /// acknowledgement watermark (highest primary lsn applied) and the
    /// sealed marker promotion writes when the stream ends forever. Replay
    /// ignores it — the record exists so `wal_dump` can diagnose a
    /// standby's log read-only.
    ReplMeta {
        /// The highest shipped-record lsn this follower has applied and
        /// acknowledged back to its primary.
        acked: u64,
        /// The stream is sealed: this follower was promoted to primary and
        /// no further shipped records will ever be applied.
        sealed: bool,
    },
}

impl WalRecord {
    /// The record's type tag, for diagnostics (`wal-dump`).
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Command(command) => command.kind(),
            WalRecord::Checkpoint(_) => "checkpoint",
            WalRecord::ReplMeta { .. } => "repl-meta",
        }
    }
}

/// A partition's full logical state — the engine state plus the serving
/// counters the partition keeps around it. Its canonical encoding
/// ([`encode_partition_state`]) doubles as the recovery tests' byte
/// identity: equal encodings ⇔ equal observable state.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionState {
    /// The time of the most recent tick.
    pub last_now: f64,
    /// Events applied across the partition's lifetime.
    pub events_applied: u64,
    /// Assignments committed across the partition's lifetime.
    pub total_assignments: u64,
    /// The engine's state.
    pub engine: EngineState,
}

impl PartitionState {
    /// The FNV-1a digest of the canonical encoding — the state identity the
    /// recovery machinery compares.
    pub fn digest(&self) -> u64 {
        fnv1a(&encode_partition_state(self))
    }
}

/// Durability knobs (pushed to daemons in the serving configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one exceeds this many bytes.
    pub segment_bytes: u64,
    /// Write a checkpoint every N ticks (`0` disables checkpointing; the
    /// log then grows unboundedly and replays from the beginning).
    pub checkpoint_every_ticks: u64,
    /// Fsync at every tick boundary (group commit). Disabling trades the
    /// crash-durability of recent ticks for raw append throughput.
    pub fsync_on_tick: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
            checkpoint_every_ticks: 64,
            fsync_on_tick: true,
        }
    }
}

/// Point-in-time log counters, exposed on `/metrics` and snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WalStats {
    /// Live segment files (including the one being appended).
    pub segments: u64,
    /// Segments retired (deleted) behind checkpoints.
    pub segments_retired: u64,
    /// Bytes appended through this handle (headers + frames).
    pub bytes_appended: u64,
    /// Records appended through this handle.
    pub records_appended: u64,
    /// Fsyncs issued.
    pub fsyncs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// The engine tick of the latest checkpoint (the checkpoint epoch).
    pub last_checkpoint_tick: u64,
    /// Commands replayed from disk when this handle was opened: those
    /// after the latest checkpoint. Replication notes are not replayed and
    /// not counted ([`ScannedLog::recovered_records`] counts every frame
    /// after the checkpoint).
    pub recovered_records: u64,
    /// Whether the open recovered from a checkpoint (vs full replay).
    pub recovered_checkpoint: bool,
}

/// The write surface the appender needs from a segment file — [`fs::File`]
/// in production, [`FailpointWriter`] under fault injection.
pub trait WalFile: Send {
    /// Appends `buf` in full.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Forces appended bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

impl WalFile for fs::File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Creates the file for a fresh segment — the injection point for
/// [`FailpointWriter`]-wrapped files in the fault tests.
pub type SegmentFactory = Box<dyn FnMut(&Path) -> io::Result<Box<dyn WalFile>> + Send>;

fn default_factory() -> SegmentFactory {
    Box::new(|path| {
        let file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        Ok(Box::new(file) as Box<dyn WalFile>)
    })
}

fn segment_path(dir: &Path, seqno: u64) -> PathBuf {
    dir.join(format!("wal-{seqno:010}.log"))
}

fn parse_segment_seqno(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let body = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if body.len() != 10 || !body.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    body.parse().ok()
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(seqno) = parse_segment_seqno(&path) {
            segments.push((seqno, path));
        }
    }
    segments.sort_unstable_by_key(|(seqno, _)| *seqno);
    Ok(segments)
}

/// What a read-only scan of a log directory found: the repairs an appender
/// must make before resuming, and the counts recovery reports.
#[derive(Debug)]
pub struct ScannedLog {
    /// The lsn the next append gets.
    pub next_lsn: u64,
    /// Highest segment sequence number seen (valid or not).
    pub max_seqno: Option<u64>,
    /// Surviving segment files after repairs.
    pub segments: u64,
    /// Bytes beyond the valid prefix (torn tail plus dropped segments).
    pub dropped_bytes: u64,
    /// Valid records after the latest checkpoint (every valid record when
    /// there is none), replication notes included.
    pub recovered_records: u64,
    /// Whether the valid prefix holds a checkpoint.
    pub recovered_checkpoint: bool,
    /// Torn segment to truncate to its valid byte length.
    truncate: Option<(PathBuf, u64)>,
    /// Segment files entirely beyond the valid prefix, to delete.
    drop_files: Vec<PathBuf>,
}

impl ScannedLog {
    /// Did the scan find damage (torn tail or unreadable segments)?
    pub fn found_damage(&self) -> bool {
        self.truncate.is_some() || !self.drop_files.is_empty()
    }
}

/// Scans a log directory read-only, handing `visit` each record of the
/// valid prefix in append (lsn) order as soon as it is decoded (see the
/// [module docs](self) for the invariant). Unreadable or out-of-chain bytes
/// end the prefix; they are *reported*, not repaired — [`Wal::open`]
/// applies the repairs before resuming appends.
pub fn scan_dir(dir: &Path, mut visit: impl FnMut(WalRecord)) -> Result<ScannedLog, WalError> {
    let mut scan = ScannedLog {
        next_lsn: 0,
        max_seqno: None,
        segments: 0,
        dropped_bytes: 0,
        recovered_records: 0,
        recovered_checkpoint: false,
        truncate: None,
        drop_files: Vec::new(),
    };
    scan.next_lsn = walk_dir(dir, |walked| match walked {
        Walk::Frame { record, .. } => {
            if let WalRecord::Checkpoint(_) = record {
                scan.recovered_checkpoint = true;
                scan.recovered_records = 0;
            } else {
                scan.recovered_records += 1;
            }
            visit(record);
        }
        Walk::Segment(info) => {
            scan.max_seqno = Some(info.seqno);
            if info.unreadable || info.beyond_prefix {
                // Nothing in this segment belongs to the prefix.
                scan.dropped_bytes += info.file_bytes;
                scan.drop_files.push(info.path);
            } else {
                scan.segments += 1;
                if info.torn_bytes > 0 {
                    // The prefix ends inside this segment: truncate it and
                    // drop everything after. The appender resumes in a new
                    // segment.
                    scan.dropped_bytes += info.torn_bytes;
                    scan.truncate = Some((info.path, info.file_bytes - info.torn_bytes));
                }
            }
        }
    })?;
    Ok(scan)
}

/// Read-only metadata of one valid frame, produced by [`inspect_dir`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrameInfo {
    /// The frame's log sequence number.
    pub lsn: u64,
    /// The record's type tag (see [`WalRecord::kind`]).
    pub kind: &'static str,
    /// The encoded payload size (frame header excluded).
    pub payload_bytes: u64,
    /// A one-line human summary of the record's content.
    pub detail: String,
    /// Replication metadata when this frame is a `repl-meta` record:
    /// `(acked, sealed)` — the shipped-stream ack watermark the primary
    /// observed, and whether the marker sealed the stream (promotion or
    /// replica detach). `None` for every other record kind.
    pub repl: Option<(u64, bool)>,
}

/// Read-only metadata of one segment file, produced by [`inspect_dir`].
#[derive(Debug)]
pub struct SegmentInfo {
    /// The sequence number parsed from the file name.
    pub seqno: u64,
    /// The segment file.
    pub path: PathBuf,
    /// The file's size on disk.
    pub file_bytes: u64,
    /// The `first_lsn` field of the segment header (`None` when the header
    /// itself is unreadable).
    pub first_lsn: Option<u64>,
    /// The valid frames, in lsn order (empty for unreadable or
    /// beyond-prefix segments).
    pub frames: Vec<FrameInfo>,
    /// Bytes past the last valid frame (a torn tail an appender would
    /// truncate away; 0 on a clean segment).
    pub torn_bytes: u64,
    /// The header is invalid, the seqno disagrees with the file name, or
    /// the lsn chain from the previous segment does not continue here.
    pub unreadable: bool,
    /// The segment follows an earlier break: no byte of it belongs to the
    /// valid prefix, regardless of its own content.
    pub beyond_prefix: bool,
}

/// Walks a log directory read-only and describes every segment file —
/// header fields, per-frame lsn/type/size and torn-tail diagnosis. This is
/// the `wal-dump` view: unlike [`scan_dir`] it keeps describing segments
/// *past* a break (flagged [`SegmentInfo::beyond_prefix`]), so an operator
/// sees what a repair would delete before anything is deleted.
pub fn inspect_dir(dir: &Path) -> Result<Vec<SegmentInfo>, WalError> {
    let mut infos = Vec::new();
    let mut frames = Vec::new();
    walk_dir(dir, |walked| match walked {
        Walk::Frame {
            lsn,
            payload_bytes,
            record,
        } => frames.push(FrameInfo {
            lsn,
            kind: record.kind(),
            payload_bytes,
            detail: record_detail(&record),
            repl: match record {
                WalRecord::ReplMeta { acked, sealed } => Some((acked, sealed)),
                _ => None,
            },
        }),
        Walk::Segment(mut info) => {
            info.frames = std::mem::take(&mut frames);
            infos.push(info);
        }
    })?;
    Ok(infos)
}

/// The one-line content summary [`inspect_dir`] attaches to each frame.
fn record_detail(record: &WalRecord) -> String {
    match record {
        WalRecord::Command(PartitionCommand::Submit(events)) => {
            format!("{} events", events.len())
        }
        WalRecord::Command(PartitionCommand::Tick { now }) => format!("now={now}"),
        WalRecord::Command(
            PartitionCommand::Answer { worker, .. } | PartitionCommand::Release { worker },
        ) => format!("worker={}", worker.0),
        WalRecord::Checkpoint(state) => format!(
            "digest={:016x} last_now={} events_applied={}",
            state.digest(),
            state.last_now,
            state.events_applied
        ),
        WalRecord::ReplMeta { acked, sealed } => format!("acked={acked} sealed={sealed}"),
    }
}

/// One step of [`walk_dir`], in file order.
enum Walk {
    /// A valid frame of the prefix.
    Frame {
        lsn: u64,
        payload_bytes: u64,
        record: WalRecord,
    },
    /// A segment, once its frames have been reported (its own `frames` is
    /// left empty).
    Segment(SegmentInfo),
}

/// The one frame walker [`scan_dir`] and [`inspect_dir`] share. Segments
/// go in sequence order, and each frame is read through one buffer that
/// grows to the largest frame (nothing is allocated for a directory with
/// no frame). A frame is reported only once its header chain (magic,
/// version, seqno, first lsn), length bound, lsn, CRC and decode all hold;
/// the first violation ends the valid prefix, and later segments are
/// reported [`SegmentInfo::beyond_prefix`] without being read. Returns the
/// lsn after the prefix.
fn walk_dir(dir: &Path, mut step: impl FnMut(Walk)) -> Result<u64, WalError> {
    let mut buf = Vec::new();
    let mut next_lsn: Option<u64> = None;
    let mut broken = false;
    for (seqno, path) in list_segments(dir)? {
        let mut info = SegmentInfo {
            seqno,
            path,
            file_bytes: 0,
            first_lsn: None,
            frames: Vec::new(),
            torn_bytes: 0,
            unreadable: false,
            beyond_prefix: broken,
        };
        if broken {
            info.file_bytes = fs::metadata(&info.path).map_or(0, |m| m.len());
        } else {
            match read_segment(&mut info, next_lsn, &mut buf, &mut step)? {
                Some(lsn) => next_lsn = Some(lsn),
                None => info.unreadable = true,
            }
            broken = info.unreadable || info.torn_bytes > 0;
        }
        step(Walk::Segment(info));
    }
    Ok(next_lsn.unwrap_or(0))
}

/// Reads one segment's valid frames into `step` and fills in `info`'s
/// size, header lsn and torn bytes. Returns the lsn after its last valid
/// frame, or `None` when the header is unreadable or does not continue the
/// chain. `expected_lsn` is `None` for the first surviving segment
/// (retirement makes its first lsn the chain base).
fn read_segment(
    info: &mut SegmentInfo,
    expected_lsn: Option<u64>,
    buf: &mut Vec<u8>,
    step: &mut impl FnMut(Walk),
) -> Result<Option<u64>, WalError> {
    let mut file = fs::File::open(&info.path)?;
    info.file_bytes = file.metadata()?.len();
    if info.file_bytes >= HEADER_BYTES as u64 {
        let mut header = [0u8; HEADER_BYTES];
        file.read_exact(&mut header)?;
        info.first_lsn = segment_first_lsn(&header, info.seqno);
    }
    let chained = info
        .first_lsn
        .filter(|&first| expected_lsn.is_none_or(|expected| expected == first));
    let Some(mut lsn) = chained else {
        return Ok(None);
    };
    let mut pos = HEADER_BYTES as u64;
    while let Some((record, payload_bytes)) =
        read_frame(&mut file, info.file_bytes - pos, lsn, buf)?
    {
        step(Walk::Frame {
            lsn,
            payload_bytes,
            record,
        });
        pos += FRAME_HEADER_BYTES as u64 + payload_bytes;
        lsn += 1;
    }
    info.torn_bytes = info.file_bytes - pos;
    Ok(Some(lsn))
}

/// The `N` bytes at `at`, for `from_le_bytes`; `None` when `bytes` ends
/// first.
fn le_bytes<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// The first lsn a segment's header records, if the header is whole and
/// names this format and `seqno`; `None` otherwise.
fn segment_first_lsn(bytes: &[u8], seqno: u64) -> Option<u64> {
    if bytes.get(..8)? != SEGMENT_MAGIC
        || u32::from_le_bytes(le_bytes(bytes, 8)?) != SEGMENT_VERSION
        || u64::from_le_bytes(le_bytes(bytes, 12)?) != seqno
    {
        return None;
    }
    Some(u64::from_le_bytes(le_bytes(bytes, 20)?))
}

/// Reads and validates the frame at `file`'s position, `rest` bytes before
/// its end, through `buf` (`lsn ‖ payload`, the bytes the CRC covers).
/// Returns the record and its payload size, or `None` on any violation
/// (truncation, oversize length, lsn mismatch, bad CRC, undecodable
/// payload).
fn read_frame(
    file: &mut fs::File,
    rest: u64,
    expected_lsn: u64,
    buf: &mut Vec<u8>,
) -> io::Result<Option<(WalRecord, u64)>> {
    if rest < FRAME_HEADER_BYTES as u64 {
        return Ok(None);
    }
    let mut head = [0u8; 8];
    file.read_exact(&mut head)?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if len > MAX_RECORD_BYTES || rest < (FRAME_HEADER_BYTES as u64 + len as u64) {
        return Ok(None);
    }
    buf.clear();
    buf.resize(8 + len as usize, 0);
    file.read_exact(buf)?;
    if buf[..8] != expected_lsn.to_le_bytes() || crc32(buf) != crc {
        return Ok(None);
    }
    Ok(decode_record(&buf[8..])
        .ok()
        .map(|record| (record, len as u64)))
}

/// The thread a log's overlapped syncs run on: it is handed the segment
/// file, syncs it and hands it back with the outcome.
///
/// One thread for the life of the log, not one per sync. A parked thread
/// wakes on an idle core; a thread spawned per tick is placed by the
/// kernel's fork balancing, which on a two-core box can keep it queued
/// behind the ticking thread for whole runs — the sync then starts when
/// the engine round ends, and a tick costs round *plus* fsync in some
/// processes and the longer of the two in others.
struct Syncer {
    /// `None` only while dropping.
    jobs: Option<Sender<Box<dyn WalFile>>>,
    done: Receiver<(Box<dyn WalFile>, io::Result<()>)>,
    thread: Option<JoinHandle<()>>,
}

impl Syncer {
    fn spawn() -> io::Result<Self> {
        let (jobs, inbox) = channel::<Box<dyn WalFile>>();
        let (outbox, done) = channel();
        let thread = std::thread::Builder::new()
            .name("rdbsc-wal-sync".into())
            .spawn(move || {
                for mut file in inbox {
                    let synced = file.sync();
                    if outbox.send((file, synced)).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Self {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        })
    }
}

impl Drop for Syncer {
    fn drop(&mut self) {
        // Closing the job channel ends the thread's loop (after a sync
        // still in flight, if the log is dropped under one).
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The segmented append-only log: one open handle per partition.
///
/// All appends return `Result`; the partition layer treats an error as
/// fatal (crash-and-recover — see `EnginePartition`), while the fault
/// tests drive this API directly to exercise every error path.
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    factory: SegmentFactory,
    file: Box<dyn WalFile>,
    seqno: u64,
    segment_bytes: u64,
    next_lsn: u64,
    stats: WalStats,
    dirty: bool,
    /// The one buffer every record is framed in: header reserved, payload
    /// encoded in place, length/CRC/lsn patched, then a single `write_all`.
    frame: Encoder,
    /// [`MAX_RECORD_BYTES`], lowered only by tests.
    max_record_bytes: u32,
    /// Started by the first [`Wal::begin_sync`].
    syncer: Option<Syncer>,
    /// Whether `file` is out with the sync thread.
    sync_in_flight: bool,
}

impl Wal {
    /// Opens (or creates) the log in `dir`: scans the existing segments,
    /// handing `visit` each record of the valid prefix as it is decoded
    /// (the partition replays them — see [`scan_dir`]), repairs any damage
    /// (truncates the torn tail, deletes out-of-chain segments) and starts a
    /// fresh segment for new appends. Returns the appender plus the scan.
    pub fn open(
        dir: &Path,
        config: WalConfig,
        visit: impl FnMut(WalRecord),
    ) -> Result<(Self, ScannedLog), WalError> {
        Self::open_with_factory(dir, config, default_factory(), visit)
    }

    /// [`Wal::open`] with an explicit segment-file factory (fault tests
    /// inject [`FailpointWriter`]-wrapped files here).
    pub fn open_with_factory(
        dir: &Path,
        config: WalConfig,
        factory: SegmentFactory,
        mut visit: impl FnMut(WalRecord),
    ) -> Result<(Self, ScannedLog), WalError> {
        fs::create_dir_all(dir)?;
        let mut replayed = 0;
        let scan = scan_dir(dir, |record| {
            match record {
                WalRecord::Checkpoint(_) => replayed = 0,
                WalRecord::Command(_) => replayed += 1,
                WalRecord::ReplMeta { .. } => {}
            }
            visit(record);
        })?;
        if let Some((path, valid_bytes)) = &scan.truncate {
            let file = fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(*valid_bytes)?;
            file.sync_data()?;
        }
        for path in &scan.drop_files {
            fs::remove_file(path)?;
        }
        let seqno = scan.max_seqno.map_or(0, |s| s + 1);
        let mut wal = Self {
            dir: dir.to_path_buf(),
            config,
            factory,
            file: Box::new(NullFile),
            seqno,
            segment_bytes: 0,
            next_lsn: scan.next_lsn,
            stats: WalStats {
                segments: scan.segments,
                recovered_records: replayed,
                recovered_checkpoint: scan.recovered_checkpoint,
                ..WalStats::default()
            },
            dirty: false,
            frame: Encoder::new(),
            max_record_bytes: MAX_RECORD_BYTES,
            syncer: None,
            sync_in_flight: false,
        };
        wal.start_segment(seqno)?;
        Ok((wal, scan))
    }

    fn start_segment(&mut self, seqno: u64) -> Result<(), WalError> {
        let path = segment_path(&self.dir, seqno);
        self.file = (self.factory)(&path)?;
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        header.extend_from_slice(&seqno.to_le_bytes());
        header.extend_from_slice(&self.next_lsn.to_le_bytes());
        self.file.write_all(&header)?;
        self.seqno = seqno;
        self.segment_bytes = HEADER_BYTES as u64;
        self.stats.segments += 1;
        self.stats.bytes_appended += HEADER_BYTES as u64;
        self.dirty = true;
        Ok(())
    }

    /// Frames and appends the record `encode` writes, rotating first if the
    /// current segment is full (`fresh_segment`: rotate unless it is empty).
    /// The payload is encoded and size-checked before anything touches the
    /// file, so an oversize record leaves the log exactly as it was.
    fn append_with(
        &mut self,
        fresh_segment: bool,
        encode: impl FnOnce(&mut Encoder),
    ) -> Result<(), WalError> {
        self.frame.buf.clear();
        self.frame.buf.resize(FRAME_HEADER_BYTES, 0);
        encode(&mut self.frame);
        let payload_bytes = self.frame.buf.len() - FRAME_HEADER_BYTES;
        if payload_bytes as u64 > self.max_record_bytes as u64 {
            return Err(WalError::RecordTooLarge {
                bytes: payload_bytes as u64,
                limit: self.max_record_bytes,
            });
        }
        let full = fresh_segment || self.segment_bytes >= self.config.segment_bytes;
        if full && self.segment_bytes > HEADER_BYTES as u64 {
            self.sync()?;
            self.start_segment(self.seqno + 1)?;
        }
        let frame = &mut self.frame.buf;
        frame[0..4].copy_from_slice(&(payload_bytes as u32).to_le_bytes());
        frame[8..16].copy_from_slice(&self.next_lsn.to_le_bytes());
        let crc = crc32(&frame[8..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.file.write_all(frame)?;
        self.segment_bytes += frame.len() as u64;
        self.stats.bytes_appended += frame.len() as u64;
        self.stats.records_appended += 1;
        self.next_lsn += 1;
        self.dirty = true;
        Ok(())
    }

    /// Appends one record, rotating first if the current segment is full.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_with(false, |e| e.record(record))
    }

    /// Logs one command.
    pub fn append_command(&mut self, command: &PartitionCommand) -> Result<(), WalError> {
        self.append_with(false, |e| e.command(command))
    }

    /// Logs a submit from the batch it borrows (no-op for an empty batch).
    pub fn append_events(&mut self, events: &[EngineEvent]) -> Result<(), WalError> {
        if events.is_empty() {
            return Ok(());
        }
        self.append_with(false, |e| e.events_record(events))
    }

    /// Logs a checkpoint of `state` taken at engine tick `tick`, fsyncs it,
    /// and retires every older segment — replay now restarts from this
    /// state, so the older history is dead weight. The checkpoint always
    /// opens a fresh segment (it becomes the segment's first record), which
    /// makes retirement exact: everything before its segment goes.
    pub fn append_checkpoint(&mut self, state: &PartitionState, tick: u64) -> Result<(), WalError> {
        self.append_with(true, |e| e.checkpoint_record(state))?;
        self.sync()?;
        self.stats.checkpoints += 1;
        self.stats.last_checkpoint_tick = tick;
        for (seqno, path) in list_segments(&self.dir)? {
            if seqno < self.seqno {
                fs::remove_file(&path)?;
                self.stats.segments_retired += 1;
                self.stats.segments = self.stats.segments.saturating_sub(1);
            }
        }
        Ok(())
    }

    /// Forces appended bytes to stable storage (no-op when clean).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.dirty {
            self.file.sync()?;
            self.stats.fsyncs += 1;
            self.dirty = false;
        }
        Ok(())
    }

    /// Starts [`Wal::sync`] on the log's sync thread and returns at once;
    /// [`Wal::end_sync`] waits for it. In between the segment file is with
    /// that thread and an append fails. Syncs inline when no thread is to
    /// be had.
    pub fn begin_sync(&mut self) -> Result<(), WalError> {
        if !self.dirty {
            return Ok(());
        }
        if self.syncer.is_none() {
            self.syncer = Syncer::spawn().ok();
        }
        let Some(jobs) = self.syncer.as_ref().and_then(|s| s.jobs.as_ref()) else {
            return self.sync();
        };
        let file = std::mem::replace(&mut self.file, Box::new(NullFile));
        match jobs.send(file) {
            Ok(()) => {
                self.sync_in_flight = true;
                Ok(())
            }
            // The thread is gone: a file's `sync` panicked on it, and the
            // `end_sync` of that sync has already said so.
            Err(returned) => {
                self.file = returned.0;
                Err(io::Error::other("the wal sync thread died").into())
            }
        }
    }

    /// Waits for the sync [`Wal::begin_sync`] started, takes the segment
    /// file back and returns the sync's outcome (no-op when none is in
    /// flight).
    pub fn end_sync(&mut self) -> Result<(), WalError> {
        if !std::mem::take(&mut self.sync_in_flight) {
            return Ok(());
        }
        // `begin_sync` marks a sync in flight only once its thread has the
        // file, and the thread lives as long as the log.
        let Some(syncer) = &self.syncer else {
            return Err(io::Error::other("a wal sync is in flight with no sync thread").into());
        };
        let (file, synced) = syncer
            .done
            .recv()
            .map_err(|_| io::Error::other("the wal sync thread died with the segment file"))?;
        self.file = file;
        synced?;
        self.stats.fsyncs += 1;
        self.dirty = false;
        Ok(())
    }

    /// Lowers the record size limit so a test can trip it with small data.
    #[cfg(test)]
    pub(crate) fn set_max_record_bytes(&mut self, limit: u32) {
        self.max_record_bytes = limit;
    }

    /// Point-in-time log counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The durability knobs this log runs with.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Stands in for the segment file while there is none — during `open`
/// before the first segment starts, and while the file is out with the sync
/// thread; every write to it is a bug.
struct NullFile;
impl WalFile for NullFile {
    fn write_all(&mut self, _buf: &[u8]) -> io::Result<()> {
        Err(io::Error::other(
            "wal segment not started, or out for a sync",
        ))
    }
    fn sync(&mut self) -> io::Result<()> {
        Err(io::Error::other(
            "wal segment not started, or out for a sync",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbsc_geo::Point;
    use rdbsc_model::{Contribution, Task, TaskId, TimeWindow, WorkerId};

    fn tick(now: f64) -> PartitionCommand {
        PartitionCommand::Tick { now }
    }

    fn release(worker: u32) -> PartitionCommand {
        PartitionCommand::Release {
            worker: WorkerId(worker),
        }
    }

    /// Every record of `dir`'s valid prefix, collected through the scan's
    /// visitor, with the scan.
    fn scan_records(dir: &Path) -> (Vec<WalRecord>, ScannedLog) {
        let mut records = Vec::new();
        let scan = scan_dir(dir, |r| records.push(r)).unwrap();
        (records, scan)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rdbsc-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn task_event(id: u32) -> EngineEvent {
        EngineEvent::TaskArrived(Task::new(
            TaskId(id),
            Point::new(0.5, 0.5),
            TimeWindow::new(0.0, 10.0).unwrap(),
        ))
    }

    #[test]
    fn append_and_rescan_round_trips() {
        let dir = tempdir("roundtrip");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default(), |r| panic!("{r:?}")).unwrap();
        wal.append_events(&[task_event(0), task_event(1)]).unwrap();
        wal.append_command(&tick(0.5)).unwrap();
        wal.append_command(&release(3)).unwrap();
        wal.sync().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.records_appended, 3);
        assert!(stats.fsyncs >= 1);
        drop(wal);

        let (records, rescan) = scan_records(&dir);
        assert_eq!(records.len(), 3);
        assert_eq!(
            records,
            [
                PartitionCommand::Submit(vec![task_event(0), task_event(1)]),
                tick(0.5),
                release(3),
            ]
            .map(WalRecord::Command)
        );
        assert!(!rescan.found_damage());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A [`WalFile`] whose `sync` records the thread it ran on.
    struct WhereSynced(
        fs::File,
        std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    );
    impl WalFile for WhereSynced {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            io::Write::write_all(&mut self.0, buf)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.1.lock().unwrap().push(std::thread::current().id());
            self.0.sync_data()
        }
    }

    #[test]
    fn overlapped_syncs_share_one_thread_and_hold_the_file_meanwhile() {
        let dir = tempdir("syncer");
        let synced_on = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = std::sync::Arc::clone(&synced_on);
        let factory: SegmentFactory = Box::new(move |path| {
            let file = fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)?;
            Ok(Box::new(WhereSynced(file, std::sync::Arc::clone(&log))) as Box<dyn WalFile>)
        });
        let (mut wal, _) =
            Wal::open_with_factory(&dir, WalConfig::default(), factory, |_| {}).unwrap();
        for round in 0..3 {
            wal.append_events(&[task_event(round)]).unwrap();
            wal.begin_sync().unwrap();
            // The file is with the sync thread: nothing can be appended
            // behind the sync's back, and nothing counts until it is back.
            assert!(wal.append_command(&tick(0.0)).is_err());
            assert_eq!(wal.stats().fsyncs, round as u64);
            wal.end_sync().unwrap();
            assert_eq!(wal.stats().fsyncs, round as u64 + 1);
        }
        // Clean log, or no sync begun: both are no-ops.
        wal.begin_sync().unwrap();
        wal.end_sync().unwrap();
        wal.end_sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 3);

        let threads = synced_on.lock().unwrap().clone();
        assert_eq!(threads.len(), 3);
        assert!(
            threads.iter().all(|t| *t == threads[0]),
            "one thread for the log's life"
        );
        assert_ne!(threads[0], std::thread::current().id());

        // Dropped under a sync in flight: the drop waits the sync out.
        wal.append_events(&[task_event(9)]).unwrap();
        wal.begin_sync().unwrap();
        drop(wal);
        assert_eq!(synced_on.lock().unwrap().len(), 4);
        assert_eq!(scan_records(&dir).0.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_reopen_continues_the_chain() {
        let dir = tempdir("rotate");
        let config = WalConfig {
            segment_bytes: 256, // force rotation every few records
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open(&dir, config, |_| {}).unwrap();
        for i in 0..20 {
            wal.append_events(&[task_event(i)]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.stats().segments > 1, "{:?}", wal.stats());
        drop(wal);

        // Re-open: all 20 records survive, and new appends chain on.
        let mut reopened = 0;
        let (mut wal, _) = Wal::open(&dir, config, |_| reopened += 1).unwrap();
        assert_eq!(reopened, 20);
        wal.append_events(&[task_event(99)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(scan_records(&dir).0.len(), 21);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_repaired() {
        let dir = tempdir("torn");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default(), |_| {}).unwrap();
        for i in 0..5 {
            wal.append_events(&[task_event(i)]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Tear the last record: chop 3 bytes off the segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (records, scan) = scan_records(&dir);
        assert_eq!(records.len(), 4, "torn record drops, prefix stays");
        assert!(scan.found_damage());
        assert!(scan.dropped_bytes > 0);

        // Re-open repairs and appends resume; the torn record never
        // reappears.
        let (mut wal, _) = Wal::open(&dir, WalConfig::default(), |_| {}).unwrap();
        wal.append_events(&[task_event(50)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (records, rescan) = scan_records(&dir);
        assert_eq!(records.len(), 5);
        assert!(!rescan.found_damage());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspect_describes_segments_frames_and_torn_tails() {
        let dir = tempdir("inspect");
        let config = WalConfig {
            segment_bytes: 256, // force rotation
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open(&dir, config, |_| {}).unwrap();
        for i in 0..12 {
            wal.append_events(&[task_event(i)]).unwrap();
        }
        wal.append_command(&tick(1.5)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Clean log: every segment readable, lsns contiguous, kinds tagged.
        let infos = inspect_dir(&dir).unwrap();
        assert!(infos.len() > 1, "rotation expected");
        let mut next_lsn = 0;
        for info in &infos {
            assert!(!info.unreadable && !info.beyond_prefix);
            assert_eq!(info.torn_bytes, 0);
            assert_eq!(info.first_lsn, Some(next_lsn));
            for frame in &info.frames {
                assert_eq!(frame.lsn, next_lsn);
                next_lsn += 1;
            }
        }
        assert_eq!(next_lsn, 13);
        let kinds: Vec<&str> = infos
            .iter()
            .flat_map(|i| i.frames.iter().map(|f| f.kind))
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == "events").count(), 12);
        assert_eq!(*kinds.last().unwrap(), "tick");
        let tick_frame = infos.last().unwrap().frames.last().unwrap();
        assert_eq!(tick_frame.detail, "now=1.5");

        // Tear the *first* segment's tail: later segments leave the valid
        // prefix but are still listed, flagged beyond_prefix.
        let (_, first) = list_segments(&dir).unwrap().remove(0);
        let len = fs::metadata(&first).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&first)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let infos = inspect_dir(&dir).unwrap();
        assert!(infos[0].torn_bytes > 0);
        assert!(
            !infos[0].frames.is_empty(),
            "clean prefix of the torn segment survives"
        );
        assert!(infos[1..].iter().all(|i| i.beyond_prefix));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_ends_the_prefix() {
        let dir = tempdir("flip");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default(), |_| {}).unwrap();
        for i in 0..5 {
            wal.append_events(&[task_event(i)]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_BYTES + (bytes.len() - HEADER_BYTES) / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (records, scan) = scan_records(&dir);
        assert!(records.len() < 5, "corruption must end the prefix");
        assert!(scan.found_damage());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_retire_older_segments() {
        let dir = tempdir("retire");
        let config = WalConfig {
            segment_bytes: 200,
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open(&dir, config, |_| {}).unwrap();
        for i in 0..30 {
            wal.append_events(&[task_event(i)]).unwrap();
        }
        let before = wal.stats().segments;
        assert!(before > 2);

        let state = sample_state(30);
        wal.append_checkpoint(&state, 7).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.segments, 1, "only the checkpoint's segment survives");
        assert_eq!(
            stats.segments_retired, before,
            "checkpoint opens a fresh segment"
        );
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.last_checkpoint_tick, 7);
        drop(wal);

        // Replay restarts from the checkpoint: the retired events are gone,
        // the checkpoint carries the state.
        let (records, scan) = scan_records(&dir);
        let [WalRecord::Checkpoint(recovered)] = &records[..] else {
            panic!("only the checkpoint survives: {records:?}");
        };
        assert_eq!(recovered.events_applied, 30);
        assert_eq!(recovered.digest(), state.digest());
        assert!(scan.recovered_checkpoint);
        assert_eq!(scan.recovered_records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_state(events_applied: u64) -> PartitionState {
        use crate::engine::{AssignmentEngine, EngineConfig};
        use rdbsc_index::GridIndex;
        let mut engine: AssignmentEngine<GridIndex> = AssignmentEngine::new(
            GridIndex::new(rdbsc_geo::Rect::unit(), 0.25),
            EngineConfig::default(),
        );
        engine.submit_all((0..events_applied as u32).map(task_event));
        engine.tick(1.0);
        PartitionState {
            last_now: 1.0,
            events_applied,
            total_assignments: 0,
            engine: engine.dump_state(),
        }
    }

    /// A [`WalFile`] that keeps every byte written to it, per segment path,
    /// so the test still sees segments a checkpoint has retired.
    struct CaptureFile(PathBuf, std::sync::Arc<std::sync::Mutex<CapturedSegments>>);
    type CapturedSegments = std::collections::BTreeMap<PathBuf, Vec<u8>>;
    impl WalFile for CaptureFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            let mut captured = self.1.lock().unwrap();
            captured
                .entry(self.0.clone())
                .or_default()
                .extend_from_slice(buf);
            Ok(())
        }
        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The framing this module used before records were encoded in place:
    /// `encode_record` into its own buffer, a second buffer for the frame,
    /// the bytewise CRC, rotation decided record by record.
    struct ReferenceLog {
        segments: Vec<Vec<u8>>,
        next_lsn: u64,
        segment_bytes: usize,
    }
    impl ReferenceLog {
        fn start_segment(&mut self) {
            let mut header = SEGMENT_MAGIC.to_vec();
            header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
            header.extend_from_slice(&(self.segments.len() as u64).to_le_bytes());
            header.extend_from_slice(&self.next_lsn.to_le_bytes());
            self.segments.push(header);
        }
        fn append(&mut self, record: &WalRecord) {
            let current = self.segments.last().unwrap().len();
            let full = matches!(record, WalRecord::Checkpoint(_)) || current >= self.segment_bytes;
            if full && current > HEADER_BYTES {
                self.start_segment();
            }
            let payload = encode_record(record);
            let mut checked = self.next_lsn.to_le_bytes().to_vec();
            checked.extend_from_slice(&payload);
            let segment = self.segments.last_mut().unwrap();
            segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            segment.extend_from_slice(&codec::crc32_bytewise(&checked).to_le_bytes());
            segment.extend_from_slice(&checked);
            self.next_lsn += 1;
        }
    }

    #[test]
    fn in_place_framing_writes_the_same_segment_bytes() {
        let dir = tempdir("identity");
        let config = WalConfig {
            segment_bytes: 300, // rotate every few records
            ..WalConfig::default()
        };
        let captured = std::sync::Arc::new(std::sync::Mutex::new(CapturedSegments::new()));
        let sink = std::sync::Arc::clone(&captured);
        let factory: SegmentFactory = Box::new(move |path| {
            Ok(Box::new(CaptureFile(
                path.to_path_buf(),
                std::sync::Arc::clone(&sink),
            )) as Box<dyn WalFile>)
        });
        let (mut wal, _) = Wal::open_with_factory(&dir, config, factory, |_| {}).unwrap();
        let mut reference = ReferenceLog {
            segments: Vec::new(),
            next_lsn: 0,
            segment_bytes: 300,
        };
        reference.start_segment();

        let contribution = Contribution {
            confidence: rdbsc_model::Confidence::new(0.9).unwrap(),
            angle: 1.25,
            arrival: 3.5,
        };
        let state = sample_state(9);
        for round in 0..6u32 {
            let events: Vec<EngineEvent> =
                (0..=round).map(|i| task_event(round * 10 + i)).collect();
            wal.append_events(&events).unwrap();
            reference.append(&WalRecord::Command(PartitionCommand::Submit(events)));
            for record in [
                WalRecord::Command(tick(round as f64)),
                WalRecord::Command(PartitionCommand::Answer {
                    worker: WorkerId(round),
                    contribution,
                }),
                WalRecord::Command(release(round + 1)),
                WalRecord::ReplMeta {
                    acked: round as u64,
                    sealed: round == 5,
                },
            ] {
                wal.append(&record).unwrap();
                reference.append(&record);
            }
            if round % 3 == 2 {
                wal.append_checkpoint(&state, round as u64).unwrap();
                reference.append(&WalRecord::Checkpoint(state.clone()));
            }
        }
        // A multi-KB submit: its frame crosses many of the checksum's
        // 64-byte folds and ends in a partial 16-byte block.
        let moves: Vec<EngineEvent> = (0..400)
            .map(|i| EngineEvent::WorkerMoved(WorkerId(i), Point::new(i as f64 / 400.0, 0.5)))
            .collect();
        let submit = WalRecord::Command(PartitionCommand::Submit(moves.clone()));
        assert_ne!((8 + encode_record(&submit).len()) % 16, 0);
        wal.append_events(&moves).unwrap();
        reference.append(&submit);
        wal.append_events(&[]).unwrap(); // an empty batch logs nothing

        let captured = captured.lock().unwrap();
        assert!(reference.segments.len() > 4, "rotation expected");
        assert_eq!(captured.len(), reference.segments.len());
        for (seqno, expected) in reference.segments.iter().enumerate() {
            let written = &captured[&segment_path(&dir, seqno as u64)];
            assert_eq!(written, expected, "segment {seqno}");
        }
        assert_eq!(wal.stats().records_appended, reference.next_lsn);
        let total: usize = reference.segments.iter().map(Vec::len).sum();
        assert_eq!(wal.stats().bytes_appended, total as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversize_records_are_refused_before_anything_is_written_or_retired() {
        let dir = tempdir("oversize");
        let config = WalConfig {
            segment_bytes: 200,
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open(&dir, config, |_| {}).unwrap();
        for i in 0..12 {
            wal.append_events(&[task_event(i)]).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.stats();
        assert!(before.segments > 2);
        let files_before: Vec<_> = list_segments(&dir).unwrap();

        let state = sample_state(12);
        let payload = encode_record(&WalRecord::Checkpoint(state.clone())).len() as u64;
        wal.set_max_record_bytes(payload as u32 - 1);
        match wal.append_checkpoint(&state, 3) {
            Err(WalError::RecordTooLarge { bytes, limit }) => {
                assert_eq!((bytes, limit as u64), (payload, payload - 1));
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
        // Nothing happened: same files, same counters, and the log still
        // takes records that fit.
        assert_eq!(wal.stats(), before);
        assert_eq!(list_segments(&dir).unwrap(), files_before);
        wal.append_events(&[task_event(99)]).unwrap();
        wal.set_max_record_bytes(payload as u32);
        wal.append_checkpoint(&state, 3).unwrap();
        drop(wal);
        let (records, scan) = scan_records(&dir);
        assert!(!scan.found_damage());
        assert!(scan.recovered_checkpoint);
        assert_eq!(scan.recovered_records, 0);
        match records.last() {
            Some(WalRecord::Checkpoint(last)) => assert_eq!(last.digest(), state.digest()),
            other => panic!("the checkpoint is the last record: {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_directory_scans_to_an_empty_prefix() {
        let dir = tempdir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 0), b"not a wal segment at all").unwrap();
        fs::write(dir.join("configure.json"), b"{}").unwrap(); // ignored
        let (records, scan) = scan_records(&dir);
        assert!(records.is_empty());
        assert!(scan.found_damage());
        // Opening repairs: the garbage segment is deleted, appends work.
        let (mut wal, _) = Wal::open(&dir, WalConfig::default(), |_| {}).unwrap();
        wal.append_events(&[task_event(1)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(scan_records(&dir).0.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    type Oracle = crate::protocol::EnginePartition<rdbsc_index::GridIndex>;

    fn fresh_grid() -> rdbsc_index::GridIndex {
        rdbsc_index::GridIndex::new(rdbsc_geo::Rect::unit(), 0.25)
    }

    /// Round `round`'s commands: a task and a worker arrive, then a tick.
    fn round_commands(round: u32) -> [PartitionCommand; 2] {
        let worker = rdbsc_model::Worker::new(
            WorkerId(round),
            Point::new(0.1 * f64::from(round % 10), 0.4),
            0.3,
            rdbsc_geo::AngleRange::full(),
            rdbsc_model::Confidence::new(0.9).unwrap(),
        )
        .unwrap();
        [
            PartitionCommand::Submit(vec![task_event(round), EngineEvent::WorkerCheckIn(worker)]),
            tick(0.5 * f64::from(round + 1)),
        ]
    }

    /// Writes the log a durable partition writes for `rounds` rounds (each
    /// command logged, then applied), checkpointing after each round in
    /// `checkpoint_after`. Returns the uninterrupted partition and its
    /// digest after each lsn.
    fn write_log(
        dir: &Path,
        factory: SegmentFactory,
        rounds: u32,
        checkpoint_after: &[u32],
    ) -> (Oracle, Vec<u64>) {
        use crate::engine::{AssignmentEngine, EngineConfig};
        let config = WalConfig {
            segment_bytes: 400,
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open_with_factory(dir, config, factory, |_| {}).unwrap();
        let mut oracle = Oracle::new(AssignmentEngine::new(fresh_grid(), EngineConfig::default()));
        let mut digests = Vec::new();
        for round in 0..rounds {
            for command in round_commands(round) {
                wal.append_command(&command).unwrap();
                oracle.apply(0, command);
                digests.push(oracle.state_digest());
            }
            if checkpoint_after.contains(&round) {
                wal.append_checkpoint(&oracle.dump_state(), u64::from(round))
                    .unwrap();
                digests.push(oracle.state_digest());
            }
        }
        (oracle, digests)
    }

    fn recover(dir: &Path) -> (Oracle, ScannedLog) {
        let config = crate::engine::EngineConfig::default();
        Oracle::open_durable(dir, WalConfig::default(), config, fresh_grid).unwrap()
    }

    /// A crash after a checkpoint's fsync but before retirement leaves the
    /// segments behind it on disk: an older checkpoint, and the commands
    /// that led up to the newer one. Replay applies them in one pass and
    /// lets the newer checkpoint replace all of it, so it must end where the
    /// uninterrupted partition is and count the tail the retired log counts.
    #[test]
    fn segments_a_checkpoint_has_not_retired_yet_replay_to_the_oracle() {
        let captured = std::sync::Arc::new(std::sync::Mutex::new(CapturedSegments::new()));
        let sink = std::sync::Arc::clone(&captured);
        let factory: SegmentFactory = Box::new(move |path| {
            Ok(Box::new(CaptureFile(
                path.to_path_buf(),
                std::sync::Arc::clone(&sink),
            )) as Box<dyn WalFile>)
        });
        let capture_dir = tempdir("unretired-capture");
        let (oracle, _) = write_log(&capture_dir, factory, 8, &[2, 5]);
        // The same log written for real: what retirement leaves.
        let retired = tempdir("unretired-retired");
        write_log(&retired, default_factory(), 8, &[2, 5]);
        // Every segment ever written: the crash before retirement.
        let unretired = tempdir("unretired-all");
        fs::create_dir_all(&unretired).unwrap();
        for (path, bytes) in captured.lock().unwrap().iter() {
            fs::write(unretired.join(path.file_name().unwrap()), bytes).unwrap();
        }
        assert!(list_segments(&unretired).unwrap().len() > list_segments(&retired).unwrap().len());
        let kinds: Vec<&str> = inspect_dir(&unretired)
            .unwrap()
            .iter()
            .flat_map(|i| i.frames.iter().map(|f| f.kind))
            .collect();
        assert_ne!(
            kinds[0], "checkpoint",
            "commands precede the older checkpoint"
        );
        let checkpoints: Vec<usize> = (0..kinds.len())
            .filter(|&i| kinds[i] == "checkpoint")
            .collect();
        assert_eq!(checkpoints.len(), 2);
        assert!(
            checkpoints[1] - checkpoints[0] > 1,
            "commands between the two: {kinds:?}"
        );

        let (from_retired, _) = recover(&retired);
        let (from_unretired, scan) = recover(&unretired);
        assert!(!scan.found_damage());
        let (r, u) = (
            from_retired.wal_stats().unwrap(),
            from_unretired.wal_stats().unwrap(),
        );
        assert!(r.recovered_checkpoint && u.recovered_checkpoint);
        assert_eq!(
            u.recovered_records, 4,
            "rounds 6 and 7: a submit and a tick each"
        );
        assert_eq!(u.recovered_records, r.recovered_records);
        assert_eq!(from_retired.state_digest(), oracle.state_digest());
        assert_eq!(from_unretired.state_digest(), oracle.state_digest());
        for dir in [capture_dir, retired, unretired] {
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A frame torn inside the tail ends the replay there: the records
    /// before it are applied, it and everything after it are not.
    #[test]
    fn a_torn_frame_inside_the_replayed_tail_ends_the_replay_there() {
        let dir = tempdir("torn-replay");
        // Lsns 0–3 are rounds 0–1, the checkpoint is lsn 4, the tail runs
        // from lsn 5; lsn 7 is round 3's submit.
        let (oracle, digests) = write_log(&dir, default_factory(), 8, &[1]);
        let torn_lsn = 7;
        let infos = inspect_dir(&dir).unwrap();
        let (path, offset) = infos
            .iter()
            .find_map(|info| {
                let mut offset = HEADER_BYTES as u64;
                for frame in &info.frames {
                    if frame.lsn == torn_lsn {
                        return Some((info.path.clone(), offset));
                    }
                    offset += FRAME_HEADER_BYTES as u64 + frame.payload_bytes;
                }
                None
            })
            .unwrap();
        assert!(infos.last().unwrap().frames.last().unwrap().lsn > torn_lsn + 2);
        let mut bytes = fs::read(&path).unwrap();
        bytes[offset as usize + FRAME_HEADER_BYTES] ^= 0x5A;
        fs::write(&path, &bytes).unwrap();

        let (part, scan) = recover(&dir);
        assert!(scan.found_damage());
        let stats = part.wal_stats().unwrap();
        assert!(stats.recovered_checkpoint);
        assert_eq!(stats.recovered_records, torn_lsn - 5);
        assert_eq!(part.state_digest(), digests[torn_lsn as usize - 1]);
        assert_ne!(part.state_digest(), oracle.state_digest());
        fs::remove_dir_all(&dir).unwrap();
    }
}
