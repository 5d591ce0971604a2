//! Fault injection for the log's write path.
//!
//! [`FailpointWriter`] wraps any [`WalFile`](super::WalFile) and applies a
//! shared, mutable [`FaultPlan`]: stop persisting after N bytes (a crash
//! that tears the tail mid-record), flip bytes at chosen stream offsets
//! (silent media corruption), fail the Nth write or the next sync
//! (`ENOSPC`, pulled disk). The proptests in `tests/proptest_wal.rs` drive
//! the appender through these faults and assert the recovery invariant:
//! whatever the fault, a re-open yields a *prefix* of the appended record
//! stream — never a corrupted state, never a panic.

use super::WalFile;
use std::io;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct FaultState {
    writes_done: u64,
    stream_offset: u64,
    error_after_writes: Option<u64>,
    persist_limit: Option<u64>,
    flips: Vec<u64>,
    fail_sync: bool,
}

/// A shared, clonable handle steering one or more [`FailpointWriter`]s.
///
/// Tests keep a clone and arm faults while the appender owns the writer;
/// all methods may be called at any time.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    state: Arc<Mutex<FaultState>>,
}

impl FaultPlan {
    /// A plan with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault plan lock poisoned")
    }

    /// Fail every write after the next `n` write calls succeed.
    pub fn error_after_writes(&self, n: u64) {
        let mut s = self.lock();
        let base = s.writes_done;
        s.error_after_writes = Some(base + n);
    }

    /// Silently stop persisting once `bytes` bytes of the write stream have
    /// reached the file: later bytes are accepted but dropped, like page
    /// cache lost to a crash. A limit falling mid-record tears that record.
    pub fn persist_at_most(&self, bytes: u64) {
        self.lock().persist_limit = Some(bytes);
    }

    /// Flip (XOR `0xFF`) the byte at absolute write-stream `offset` as it
    /// passes through.
    pub fn flip_byte(&self, offset: u64) {
        self.lock().flips.push(offset);
    }

    /// Fail every subsequent sync.
    pub fn fail_sync(&self) {
        self.lock().fail_sync = true;
    }

    /// Disarm every fault (new writes pass through verbatim again).
    pub fn clear(&self) {
        let mut s = self.lock();
        s.error_after_writes = None;
        s.persist_limit = None;
        s.flips.clear();
        s.fail_sync = false;
    }

    /// Total bytes offered to the writer so far (persisted or dropped) —
    /// lets a test aim [`FaultPlan::persist_at_most`] at a record boundary
    /// or mid-record.
    pub fn bytes_offered(&self) -> u64 {
        self.lock().stream_offset
    }

    /// Write calls observed so far.
    pub fn writes_observed(&self) -> u64 {
        self.lock().writes_done
    }
}

/// A [`WalFile`] decorator that applies a [`FaultPlan`] to every write and
/// sync (see the module docs).
pub struct FailpointWriter<W: WalFile> {
    inner: W,
    plan: FaultPlan,
}

impl<W: WalFile> FailpointWriter<W> {
    /// Wraps `inner`, steering it by `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }
}

impl<W: WalFile> WalFile for FailpointWriter<W> {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (persist, offset) = {
            let mut s = self.plan.lock();
            if s.error_after_writes
                .is_some_and(|limit| s.writes_done >= limit)
            {
                return Err(io::Error::other("injected write failure"));
            }
            s.writes_done += 1;
            let offset = s.stream_offset;
            s.stream_offset += buf.len() as u64;
            // How much of this chunk survives the persistence limit.
            let persist = match s.persist_limit {
                Some(limit) => (limit.saturating_sub(offset) as usize).min(buf.len()),
                None => buf.len(),
            };
            let mut chunk = buf[..persist].to_vec();
            for &flip in &s.flips {
                if flip >= offset && flip < offset + persist as u64 {
                    chunk[(flip - offset) as usize] ^= 0xFF;
                }
            }
            (chunk, offset)
        };
        let _ = offset;
        if persist.is_empty() {
            return Ok(());
        }
        self.inner.write_all(&persist)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.plan.lock().fail_sync {
            return Err(io::Error::other("injected sync failure"));
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct MemFile(Vec<u8>);
    impl WalFile for MemFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.0.extend_from_slice(buf);
            Ok(())
        }
        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn faults_apply_in_stream_order() {
        let plan = FaultPlan::new();
        let mut w = FailpointWriter::new(MemFile::default(), plan.clone());
        w.write_all(b"abcd").unwrap();
        plan.flip_byte(5); // the 'f' of the next chunk
        plan.persist_at_most(7);
        w.write_all(b"efgh").unwrap(); // persists only "e!g" with f flipped
        assert_eq!(plan.bytes_offered(), 8);
        plan.error_after_writes(0);
        assert!(w.write_all(b"ij").is_err());
        assert!(w.sync().is_ok());
        plan.fail_sync();
        assert!(w.sync().is_err());
        assert_eq!(w.inner.0.len(), 7);
        assert_eq!(&w.inner.0[..4], b"abcd");
        assert_eq!(w.inner.0[5], b'f' ^ 0xFF);
    }
}
