//! Log-shipping replication: the primary side of a partition's
//! primary/standby pair.
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

use crate::protocol::PartitionCommand;
use std::collections::VecDeque;

/// Default cap on unacknowledged retained records before the stream resets
/// (a dead follower must not grow the primary's memory unboundedly).
pub const DEFAULT_MAX_RETAINED: usize = 65_536;

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
                write!(f, "requested lsn precedes retained base {base}; re-bootstrap")
            }
        }
    }
}

impl std::error::Error for ReplError {}

/// A point-in-time view of the primary-side stream, for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplStatus {
    /// The lsn the next published record gets (the stream head).
    pub next_lsn: u64,
    /// The oldest lsn still retained.
    pub base: u64,
    /// The acknowledgement watermark: every record below it was applied by
    /// the follower.
    pub acked: u64,
    /// Records currently retained (head minus base).
    pub retained: u64,
    /// Times the retention cap discarded unacknowledged records (each one
    /// forced a follower re-bootstrap).
    pub resets: u64,
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

    /// The point-in-time stream counters.
    pub fn status(&self) -> ReplStatus {
        ReplStatus {
            next_lsn: self.next_lsn(),
            base: self.base,
            acked: self.acked,
            retained: self.tail.len() as u64,
            resets: self.resets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(now: f64) -> PartitionCommand {
        PartitionCommand::Tick { now }
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
        assert_eq!(log.status().acked, 3);
        assert_eq!(log.status().base, 3);
        assert_eq!(log.status().retained, 2);
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
        assert_eq!(status.base, 6);
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
        assert_eq!(status.base, 7);
        assert_eq!(status.acked, 7);
        assert_eq!(status.retained, 0);
        log.publish(tick(7.0));
        assert_eq!(log.fetch(7, 10).unwrap(), vec![(7, tick(7.0))]);
    }
}
