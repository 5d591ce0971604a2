//! Canonical binary encoding for log records and checkpoint state.
//!
//! Fixed-width little-endian fields, no varints, no padding: the same state
//! always encodes to the same bytes, which is what makes the FNV digest of
//! an encoded [`PartitionState`] a usable *state identity* — two partitions
//! are in the same logical state iff their encodings match. Floats are
//! carried as raw IEEE-754 bit patterns so the round trip is exact.
//!
//! Decoding is fully checked: every read is bounds-tested and every
//! reconstructed domain value goes back through its validating constructor,
//! so arbitrary byte garbage yields a [`WalError::Corrupt`] — never a panic
//! and never a silently wrong value. Collection lengths are sanity-checked
//! against the remaining payload before any allocation.

use super::{PartitionState, WalError, WalRecord};
use crate::engine::{EngineEvent, EngineState};
use crate::protocol::PartitionCommand;
use rdbsc_geo::{AngleRange, Point};
use rdbsc_model::{Confidence, Contribution, Task, TaskId, TimeWindow, Worker, WorkerId};

const CRC_POLY: u32 = 0xEDB8_8320;

/// Record tags `1..=4` are [`PartitionCommand::tag`]s; these two are the
/// log's own.
const TAG_CHECKPOINT: u8 = 5;
const TAG_REPL_META: u8 = 6;

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, which is what lets
/// [`crc32_sliced`] fold eight input bytes per step.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the segment
/// record checksum, on the durable tick's critical path (every append) and
/// on recovery's (every frame read back).
///
/// On an x86_64 CPU with `pclmulqdq` and SSE4.1, an input of 64 bytes or
/// more runs the carry-less-multiply folding kernel (Gopal et al., *Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction*, Intel
/// 2009): four 128-bit lanes fold 64 bytes per step, the lanes fold into
/// one, that one folds 16 bytes per step, and a Barrett reduction takes the
/// remainder to 32 bits. The last fewer-than-16 bytes go through the
/// slice-by-8 loop, continuing from the kernel's register. Every other
/// input — another CPU, or a frame shorter than the kernel's four lanes —
/// runs `crc32_sliced` alone.
///
/// The bits are the same either way. Both compute the remainder of the
/// same (reflected, pre- and post-inverted) message polynomial modulo the
/// same `P`; the kernel's constants are `x^k mod P` for its fold distances
/// and `⌊x^64 / P⌋` for the reduction, so a fold only rewrites the message
/// into a shorter one with the same remainder. The tests hold the two, and
/// the byte-at-a-time loop, to each other on every length up to 1100 at 16
/// start offsets, and pin the segment bytes to the byte-at-a-time framing.
///
/// A `heartbeat_storm` tick's 126,005-byte submit payload checksums in
/// ≈ 6.5 µs this way against ≈ 95 µs slice-by-8 (≈ 19 against 1.3 GB/s,
/// median of 2000 on a 2-core Intel Xeon VM) — less than a tenth of the
/// frame's encode plus `write(2)`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_folded(bytes).unwrap_or_else(|| crc32_sliced(bytes))
}

/// The folding kernel's CRC-32 of `bytes`, or `None` where it does not
/// run: an input shorter than its four lanes, or a CPU without the
/// instructions it is compiled for.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn crc32_folded(bytes: &[u8]) -> Option<u32> {
    if bytes.len() < clmul::LANES_BYTES
        || !is_x86_feature_detected!("pclmulqdq")
        || !is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: `clmul::crc32` enables exactly `pclmulqdq` and `sse4.1`, and
    // both were just detected on the CPU this runs on.
    Some(unsafe { clmul::crc32(bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn crc32_folded(_: &[u8]) -> Option<u32> {
    None
}

/// [`crc32`] by slice-by-8 alone: eight bytes per step through eight 1 KiB
/// tables built at compile time. The fallback for other CPUs and short
/// frames, and the oracle the folding kernel is tested against.
fn crc32_sliced(bytes: &[u8]) -> u32 {
    !crc32_sliced_update(!0, bytes)
}

/// Runs the slice-by-8 loop over `bytes` from the raw (not inverted)
/// register `crc` and returns the raw register.
fn crc32_sliced_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, rest) = bytes.as_chunks::<8>();
    for word in words {
        let word = u64::from_le_bytes(*word) ^ crc as u64;
        crc = 0;
        for k in 0..8 {
            crc ^= t[7 - k][(word >> (8 * k)) as usize & 0xFF];
        }
    }
    for &byte in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// The PCLMULQDQ folding kernel behind [`crc32`] (Gopal et al., Intel
/// 2009), in the bit-reflected form the IEEE polynomial needs. Every
/// function here enables the same two features, so they call each other
/// without `unsafe`; only the dispatch in [`crc32_folded`] crosses in.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The kernel's four 128-bit lanes: the shortest input it takes.
    pub(super) const LANES_BYTES: usize = 64;

    // The usual reflected constants for `P = 0x104C11DB7`: k1/k2 fold a
    // lane 512 bits ahead, k3/k4 fold 128 bits ahead, k5 takes 96 bits to
    // 64, and `P′` / `μ` are `P` and `⌊x^64 / P⌋` for the Barrett step.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_PRIME: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// CRC-32 of `bytes`, which must hold at least [`LANES_BYTES`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else {
            return super::crc32_sliced(bytes);
        };

        // The raw register starts at all ones: XOR it into the first lane.
        let mut x3 = _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(!0));
        let mut x2 = load(&first[1]);
        let mut x1 = load(&first[2]);
        let mut x0 = load(&first[3]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            x3 = fold(x3, load(&quad[0]), k1k2);
            x2 = fold(x2, load(&quad[1]), k1k2);
            x1 = fold(x1, load(&quad[2]), k1k2);
            x0 = fold(x0, load(&quad[3]), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        for block in singles {
            x = fold(x, load(block), k3k4);
        }

        // 128 bits to 64: fold the low half onto the high by k4, then the
        // low 32 bits of that onto the rest by k5.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 bits to 32: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P′, and the register is bits 32..64 of R ^ T2.
        let pu = _mm_set_epi64x(MU, P_PRIME);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        !super::crc32_sliced_update(crc, tail)
    }

    /// Folds lane `a` forward onto `b`: `a.lo·k.lo ^ a.hi·k.hi ^ b`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// One little-endian 16-byte block as a lane.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }
}

/// The byte-at-a-time table loop — the reference the differential and
/// segment byte-identity tests check the sliced and folding kernels
/// against.
#[cfg(test)]
pub(super) fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a over a byte string — the digest the recovery tests compare.
/// Delegates to the canonical fold in [`rdbsc_obs::digest`] so the WAL and
/// the cross-topology benches can never drift apart constant-by-constant.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    rdbsc_obs::digest::fnv1a_bytes(bytes)
}

/// An append-only byte sink with the codec's primitive writers; with
/// [`Decoder`], the one little-endian cursor pair behind the log, the
/// replication stream and the partition wire's payloads.
#[derive(Debug, Default)]
pub struct Encoder {
    /// The log appender frames records in place around these bytes.
    pub(super) buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a flag as one `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a float as its IEEE-754 bit pattern, verbatim.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends length-prefixed (`u32`) opaque bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    fn task(&mut self, t: &Task) {
        self.u32(t.id.0);
        self.point(t.location);
        self.f64(t.window.start);
        self.f64(t.window.end);
        match t.beta {
            Some(beta) => {
                self.u8(1);
                self.f64(beta);
            }
            None => self.u8(0),
        }
    }

    fn worker(&mut self, w: &Worker) {
        self.u32(w.id.0);
        self.point(w.location);
        self.f64(w.speed);
        self.f64(w.heading.start());
        self.f64(w.heading.width());
        self.f64(w.confidence.value());
        self.f64(w.available_from);
    }

    /// Appends a contribution: confidence, angle, arrival.
    pub fn contribution(&mut self, c: &Contribution) {
        self.f64(c.confidence.value());
        self.f64(c.angle);
        self.f64(c.arrival);
    }

    fn event(&mut self, e: &EngineEvent) {
        match e {
            EngineEvent::TaskArrived(t) => {
                self.u8(0);
                self.task(t);
            }
            EngineEvent::TaskExpired(id) => {
                self.u8(1);
                self.u32(id.0);
            }
            EngineEvent::WorkerCheckIn(w) => {
                self.u8(2);
                self.worker(w);
            }
            EngineEvent::WorkerMoved(id, to) => {
                self.u8(3);
                self.u32(id.0);
                self.point(*to);
            }
            EngineEvent::WorkerLeft(id) => {
                self.u8(4);
                self.u32(id.0);
            }
        }
    }

    fn engine_state(&mut self, s: &EngineState) {
        self.f64(s.depart_at);
        self.bool(s.allow_wait);
        self.u64(s.tick_count);
        self.u32(s.tasks.len() as u32);
        for t in &s.tasks {
            self.task(t);
        }
        self.u32(s.workers.len() as u32);
        for w in &s.workers {
            self.worker(w);
        }
        self.u32(s.pending.len() as u32);
        for e in &s.pending {
            self.event(e);
        }
        self.u32(s.committed.len() as u32);
        for (w, t, c) in &s.committed {
            self.u32(w.0);
            self.u32(t.0);
            self.contribution(c);
        }
        self.u32(s.banked.len() as u32);
        for (t, cs) in &s.banked {
            self.u32(t.0);
            self.u32(cs.len() as u32);
            for c in cs {
                self.contribution(c);
            }
        }
        self.u32(s.retired.len() as u32);
        for t in &s.retired {
            self.task(t);
        }
    }

    fn partition_state(&mut self, s: &PartitionState) {
        self.f64(s.last_now);
        self.u64(s.events_applied);
        self.u64(s.total_assignments);
        self.engine_state(&s.engine);
    }

    fn events(&mut self, events: &[EngineEvent]) {
        self.u32(events.len() as u32);
        for event in events {
            self.event(event);
        }
    }

    /// Appends a command's fields without its tag: its log record's body,
    /// and its request payload on the wire (the tag is in the frame header).
    pub fn command_body(&mut self, command: &PartitionCommand) {
        match command {
            PartitionCommand::Submit(events) => self.events(events),
            PartitionCommand::Tick { now } => self.f64(*now),
            PartitionCommand::Answer {
                worker,
                contribution,
            } => {
                self.u32(worker.0);
                self.contribution(contribution);
            }
            PartitionCommand::Release { worker } => self.u32(worker.0),
        }
    }

    /// Appends a command as its tag plus [`Encoder::command_body`] — the
    /// log record and the shipped unit.
    pub fn command(&mut self, command: &PartitionCommand) {
        self.u8(command.tag());
        self.command_body(command);
    }

    // The two records big enough to matter take a borrow, so the log
    // appender encodes them straight from the caller's data into its frame
    // buffer; `record` (hence `encode_record`) is the same bytes by
    // construction.

    pub(super) fn events_record(&mut self, events: &[EngineEvent]) {
        self.u8(PartitionCommand::SUBMIT);
        self.events(events);
    }

    pub(super) fn checkpoint_record(&mut self, state: &PartitionState) {
        self.u8(TAG_CHECKPOINT);
        self.partition_state(state);
    }

    pub(super) fn record(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Command(command) => self.command(command),
            WalRecord::Checkpoint(state) => self.checkpoint_record(state),
            WalRecord::ReplMeta { acked, sealed } => {
                self.u8(TAG_REPL_META);
                self.u64(*acked);
                self.bool(*sealed);
            }
        }
    }
}

/// Encodes a record as the payload of one log frame.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut e = Encoder::new();
    e.record(record);
    e.into_bytes()
}

/// Encodes a command as the replication stream ships it: its log record.
pub fn encode_command(command: &PartitionCommand) -> Vec<u8> {
    let mut e = Encoder::new();
    e.command(command);
    e.into_bytes()
}

/// Encodes a partition state alone — the canonical byte identity the FNV
/// digest is taken over.
pub fn encode_partition_state(state: &PartitionState) -> Vec<u8> {
    let mut e = Encoder::new();
    e.partition_state(state);
    e.into_bytes()
}

/// A bounds-checked cursor over an encoded payload.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(what: &'static str) -> WalError {
    WalError::Corrupt(what.to_string())
}

impl<'a> Decoder<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.remaining() < n {
            return Err(corrupt("payload truncated"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Fails unless every byte was consumed.
    pub fn finish(&self) -> Result<(), WalError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(corrupt("trailing bytes after the last field")),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a flag; any byte but `0`/`1` is corruption.
    pub fn bool(&mut self) -> Result<bool, WalError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("invalid bool")),
        }
    }
    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WalError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads a float from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Reads length-prefixed opaque bytes (length checked before copying).
    pub fn bytes(&mut self) -> Result<Vec<u8>, WalError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WalError> {
        String::from_utf8(self.bytes()?).map_err(|_| corrupt("invalid utf-8"))
    }
    fn point(&mut self) -> Result<Point, WalError> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    /// A collection length, sanity-checked against the remaining bytes so a
    /// garbage length can never trigger a huge allocation (`min_bytes` is
    /// the smallest possible encoding of one element).
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, WalError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return Err(corrupt("length exceeds payload"));
        }
        Ok(n)
    }

    fn task(&mut self) -> Result<Task, WalError> {
        let id = TaskId(self.u32()?);
        let location = self.point()?;
        let start = self.f64()?;
        let end = self.f64()?;
        let window = TimeWindow::new(start, end).map_err(|_| corrupt("invalid time window"))?;
        match self.u8()? {
            0 => Ok(Task::new(id, location, window)),
            1 => {
                let beta = self.f64()?;
                Task::with_beta(id, location, window, beta).map_err(|_| corrupt("invalid beta"))
            }
            _ => Err(corrupt("invalid beta tag")),
        }
    }

    fn worker(&mut self) -> Result<Worker, WalError> {
        let id = WorkerId(self.u32()?);
        let location = self.point()?;
        let speed = self.f64()?;
        let heading = AngleRange::new(self.f64()?, self.f64()?);
        let confidence = Confidence::new(self.f64()?).map_err(|_| corrupt("invalid confidence"))?;
        let available_from = self.f64()?;
        Worker::new(id, location, speed, heading, confidence)
            .map_err(|_| corrupt("invalid worker"))
            .map(|w| w.with_available_from(available_from))
    }

    /// Reads a contribution: a validated confidence, then angle and arrival
    /// as written.
    pub fn contribution(&mut self) -> Result<Contribution, WalError> {
        let confidence = Confidence::new(self.f64()?).map_err(|_| corrupt("invalid confidence"))?;
        Ok(Contribution {
            confidence,
            angle: self.f64()?,
            arrival: self.f64()?,
        })
    }

    /// Reads one engine event, rebuilt through the validating model
    /// constructors.
    fn event(&mut self) -> Result<EngineEvent, WalError> {
        match self.u8()? {
            0 => Ok(EngineEvent::TaskArrived(self.task()?)),
            1 => Ok(EngineEvent::TaskExpired(TaskId(self.u32()?))),
            2 => Ok(EngineEvent::WorkerCheckIn(self.worker()?)),
            3 => Ok(EngineEvent::WorkerMoved(
                WorkerId(self.u32()?),
                self.point()?,
            )),
            4 => Ok(EngineEvent::WorkerLeft(WorkerId(self.u32()?))),
            _ => Err(corrupt("invalid event tag")),
        }
    }

    /// Reads the fields of the command `tag` names (the inverse of
    /// [`Encoder::command_body`]).
    pub fn command_body(&mut self, tag: u8) -> Result<PartitionCommand, WalError> {
        match tag {
            PartitionCommand::SUBMIT => {
                let num_events = self.count(5)?;
                let mut events = Vec::with_capacity(num_events);
                for _ in 0..num_events {
                    events.push(self.event()?);
                }
                Ok(PartitionCommand::Submit(events))
            }
            PartitionCommand::TICK => Ok(PartitionCommand::Tick { now: self.f64()? }),
            PartitionCommand::ANSWER => Ok(PartitionCommand::Answer {
                worker: WorkerId(self.u32()?),
                contribution: self.contribution()?,
            }),
            PartitionCommand::RELEASE => Ok(PartitionCommand::Release {
                worker: WorkerId(self.u32()?),
            }),
            _ => Err(corrupt("invalid command tag")),
        }
    }

    fn engine_state(&mut self) -> Result<EngineState, WalError> {
        let depart_at = self.f64()?;
        let allow_wait = self.bool()?;
        let tick_count = self.u64()?;
        let num_tasks = self.count(37)?;
        let mut tasks = Vec::with_capacity(num_tasks);
        for _ in 0..num_tasks {
            tasks.push(self.task()?);
        }
        let num_workers = self.count(60)?;
        let mut workers = Vec::with_capacity(num_workers);
        for _ in 0..num_workers {
            workers.push(self.worker()?);
        }
        let num_pending = self.count(5)?;
        let mut pending = Vec::with_capacity(num_pending);
        for _ in 0..num_pending {
            pending.push(self.event()?);
        }
        let num_committed = self.count(32)?;
        let mut committed = Vec::with_capacity(num_committed);
        for _ in 0..num_committed {
            let w = WorkerId(self.u32()?);
            let t = TaskId(self.u32()?);
            committed.push((w, t, self.contribution()?));
        }
        let num_banked = self.count(8)?;
        let mut banked = Vec::with_capacity(num_banked);
        for _ in 0..num_banked {
            let t = TaskId(self.u32()?);
            let num_cs = self.count(24)?;
            let mut cs = Vec::with_capacity(num_cs);
            for _ in 0..num_cs {
                cs.push(self.contribution()?);
            }
            banked.push((t, cs));
        }
        let num_retired = self.count(37)?;
        let mut retired = Vec::with_capacity(num_retired);
        for _ in 0..num_retired {
            retired.push(self.task()?);
        }
        Ok(EngineState {
            depart_at,
            allow_wait,
            tasks,
            workers,
            pending,
            committed,
            banked,
            retired,
            tick_count,
        })
    }

    fn partition_state(&mut self) -> Result<PartitionState, WalError> {
        Ok(PartitionState {
            last_now: self.f64()?,
            events_applied: self.u64()?,
            total_assignments: self.u64()?,
            engine: self.engine_state()?,
        })
    }
}

/// Decodes one record payload (the inverse of [`encode_record`]); trailing
/// bytes after a well-formed record are corruption.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, WalError> {
    let mut d = Decoder::new(payload);
    let record = match d.u8()? {
        TAG_CHECKPOINT => WalRecord::Checkpoint(d.partition_state()?),
        TAG_REPL_META => WalRecord::ReplMeta {
            acked: d.u64()?,
            sealed: d.bool()?,
        },
        tag => WalRecord::Command(d.command_body(tag)?),
    };
    d.finish()?;
    Ok(record)
}

/// Decodes one shipped unit of the replication stream. It carries commands
/// only: a checkpoint or a replication note is corruption here.
pub fn decode_command(bytes: &[u8]) -> Result<PartitionCommand, WalError> {
    let mut d = Decoder::new(bytes);
    let tag = d.u8()?;
    let command = d.command_body(tag)?;
    d.finish()?;
    Ok(command)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        let kernels = [
            ("dispatched", crc32 as fn(&[u8]) -> u32),
            ("sliced", crc32_sliced),
            ("bytewise", crc32_bytewise),
        ];
        // 72 bytes: long enough for the folding kernel, whose own check
        // value (Python's `zlib.crc32`) this is.
        let long = b"123456789".repeat(8);
        for (name, kernel) in kernels {
            // The IEEE check value for "123456789".
            assert_eq!(kernel(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(kernel(b""), 0, "{name}");
            assert_eq!(kernel(&long), 0x8811_A440, "{name}");
        }
    }

    /// Checks the three kernels agree on `bytes`, and the folding one too
    /// wherever it runs.
    fn assert_kernels_agree(bytes: &[u8], what: &str) {
        let expected = crc32_bytewise(bytes);
        assert_eq!(crc32_sliced(bytes), expected, "sliced, {what}");
        assert_eq!(crc32(bytes), expected, "dispatched, {what}");
        if let Some(folded) = crc32_folded(bytes) {
            assert_eq!(folded, expected, "folded, {what}");
        }
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20);
        let pool: Vec<u8> = (0..96).map(|_| rng.gen()).collect();
        // Every length across the 8-byte stride boundary, at every offset
        // into the buffer (the kernel must not care how its input is aligned).
        for offset in 0..8 {
            for len in 0..=80 {
                let bytes = &pool[offset..offset + len];
                assert_eq!(
                    crc32_sliced(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
        for _ in 0..200 {
            let n = rng.gen_range(0..5000usize);
            let bytes: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            assert_eq!(crc32_sliced(&bytes), crc32_bytewise(&bytes), "len {n}");
        }
    }

    #[test]
    fn folded_crc32_equals_the_sliced_and_bytewise_loops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(32);
        let pool: Vec<u8> = (0..1116).map(|_| rng.gen()).collect();
        // Below the kernel's 64 bytes (the fallback), across its 64- and
        // 128-byte fold boundaries, every tail length, unaligned starts.
        for offset in 0..16 {
            for len in 0..=1100 {
                let bytes = &pool[offset..offset + len];
                assert_kernels_agree(bytes, &format!("offset {offset} len {len}"));
            }
        }
        for fill in [0x00, 0xFF] {
            assert_kernels_agree(&[fill; 4099], &format!("4099 × {fill:#04x}"));
        }
    }

    #[test]
    fn a_6000_move_submit_checksums_the_same_on_every_kernel() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6000);
        let moves: Vec<EngineEvent> = (0..6000)
            .map(|i| EngineEvent::WorkerMoved(WorkerId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        let payload = encode_record(&WalRecord::Command(PartitionCommand::Submit(moves)));
        assert_eq!(payload.len(), 126_005);
        assert_kernels_agree(&payload, "6000-move submit");
        // Where the CPU has the instructions, the dispatch takes the kernel.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            assert!(crc32_folded(&payload).is_some());
        }
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    fn sample_events() -> Vec<EngineEvent> {
        let task = Task::with_beta(
            TaskId(7),
            Point::new(0.25, 0.75),
            TimeWindow::new(1.0, 9.5).unwrap(),
            0.3,
        )
        .unwrap();
        let worker = Worker::new(
            WorkerId(3),
            Point::new(0.5, 0.5),
            0.4,
            AngleRange::new(1.0, 2.5),
            Confidence::new(0.85).unwrap(),
        )
        .unwrap()
        .with_available_from(2.5);
        vec![
            EngineEvent::TaskArrived(task),
            EngineEvent::TaskExpired(TaskId(2)),
            EngineEvent::WorkerCheckIn(worker),
            EngineEvent::WorkerMoved(WorkerId(3), Point::new(0.1, 0.9)),
            EngineEvent::WorkerLeft(WorkerId(4)),
        ]
    }

    #[test]
    fn records_round_trip() {
        let contribution = Contribution {
            confidence: Confidence::new(0.9).unwrap(),
            angle: 1.25,
            arrival: 3.5,
        };
        let commands = [
            PartitionCommand::Submit(sample_events()),
            PartitionCommand::Tick { now: 4.25 },
            PartitionCommand::Answer {
                worker: WorkerId(3),
                contribution,
            },
            PartitionCommand::Release {
                worker: WorkerId(9),
            },
        ];
        let mut records: Vec<WalRecord> =
            commands.iter().cloned().map(WalRecord::Command).collect();
        records.extend([
            WalRecord::ReplMeta {
                acked: 412,
                sealed: false,
            },
            WalRecord::ReplMeta {
                acked: u64::MAX,
                sealed: true,
            },
        ]);
        for record in &records {
            let bytes = encode_record(record);
            assert_eq!(decode_record(&bytes).unwrap(), *record);
            // The stream's codec is the log's, restricted to commands.
            match record {
                WalRecord::Command(command) => {
                    assert_eq!(encode_command(command), bytes);
                    assert_eq!(decode_command(&bytes).unwrap(), *command);
                }
                _ => assert!(decode_command(&bytes).is_err(), "{record:?}"),
            }
        }
    }

    #[test]
    fn garbage_payloads_error_instead_of_panicking() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let n = rng.gen_range(0..200usize);
            let bytes: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            let _ = decode_record(&bytes); // must return, never panic
        }
        // A huge claimed length must not allocate.
        let mut bytes = vec![1u8]; // Events
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_record(&bytes).is_err());
    }
}
