//! # rdbsc-platform
//!
//! A discrete-event simulator of a gMission-style spatial-crowdsourcing
//! deployment (Section 8.1 and 8.4 of the paper): sites asking photo tasks
//! with fixed opening times, a small population of walking users whose
//! reliabilities come from a peer-rating model, periodic incremental
//! re-assignment every `t_interval`, Bernoulli task completion, noisy
//! answers, and the paper's answer-accuracy metric.
//!
//! The simulator stands in for the live human deployment the paper ran
//! (10 users, 5 sites, 15-minute task openings) and is what the Figure 18
//! reproduction drives; the [`coverage`] module provides the quantitative
//! stand-in for the 3-D reconstruction showcase (Figures 19–20).
//!
//! Beyond the paper-faithful simulator, the [`engine`] module scales the
//! incremental setting up: an event-driven **parallel batched assignment
//! engine** that maintains the grid index incrementally, partitions the live
//! instance into independent spatial shards and solves them concurrently
//! with a cost-model-driven per-shard strategy choice (see the module docs
//! for the architecture). The [`partition`] module scales *across* engines:
//! a [`PartitionedEngine`] runs one assignment engine per spatial region,
//! routes events by location and hands workers off across region
//! boundaries. The [`protocol`] module defines the **partition command
//! protocol** the router speaks — an object-safe [`PartitionClient`] trait
//! whose backends host a partition's engine on a local thread
//! ([`protocol::InProcessClient`]) or, via `rdbsc-server`'s binary frame
//! backend and the `rdbsc-partitiond` daemon, in another process or on
//! another host. The [`handle`] module wraps a [`PartitionedEngine`] — one
//! region is the plain engine's topology — in a thread-safe
//! [`EngineHandle`] command API so network servers (see the `rdbsc-server`
//! crate) and other multi-threaded drivers can share one live instance.
//! The [`wal`] module makes a partition durable: an append-only segmented
//! write-ahead log that records every routed command before application,
//! with periodic checkpoints and exact (digest-verified) crash recovery.
//! The [`repl`] module stretches the same redo stream over the wire:
//! log-shipping replication from a primary partition to a standby as one
//! sans-IO state machine, with acknowledgement-watermark retention and
//! digest-exact standby promotion on primary failure.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod accuracy;
pub mod coverage;
pub mod engine;
pub mod handle;
pub mod par;
pub mod partition;
pub mod protocol;
pub mod repl;
pub mod sim;
pub mod wal;

pub use accuracy::{answer_accuracy, answer_error, AnswerRecord};
pub use coverage::{angular_coverage, temporal_coverage, CoverageReport};
pub use engine::{
    AdaptiveBatchSolver, AssignmentEngine, EngineConfig, EngineEvent, EngineObjective, TickReport,
};
pub use handle::{EngineHandle, EngineSnapshot};
pub use partition::{
    merge_snapshots, PartitionHealth, PartitionTransport, PartitionedEngine, PromotionRecord,
    StandbyPromoter,
};
pub use protocol::{
    CommandOutcome, EnginePartition, InProcessClient, PartitionClient, PartitionCommand,
    PartitionError, PartitionReply, PartitionRequest, PartitionTick, ProtocolCounters,
    ProtocolStats, PROTOCOL_VERSION,
};
pub use repl::{Poll, ReplEngine, ReplError, ReplFailure, ReplReply, ReplRequest, ReplRole};
pub use repl::{ReplStatus, Replication, ReplicationLog};
pub use sim::{PlatformConfig, PlatformSim, RoundStats, SimulationReport};
pub use wal::{
    inspect_dir, FailpointWriter, FaultPlan, FrameInfo, PartitionState, SegmentInfo, Wal,
    WalConfig, WalError, WalRecord, WalStats,
};
