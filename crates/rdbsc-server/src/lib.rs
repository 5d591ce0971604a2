//! # rdbsc-server
//!
//! The online serving subsystem: a single-binary HTTP/1.1 service exposing
//! the parallel batched assignment engine (`rdbsc-platform::engine`) to
//! request-driven traffic — workers heartbeat their positions, tasks arrive
//! over the wire, and the system admits, micro-batches and answers them
//! under load.
//!
//! The container this repo builds in is offline, so everything is
//! hand-rolled on `std`: the HTTP layer ([`http`]) sits directly on
//! `std::net`, the JSON codec ([`json`]) stands in for serde, and the worker
//! pool/queue use `std::sync` primitives. The architecture:
//!
//! ```text
//!   clients ──► acceptor ──► bounded queue ──► worker pool ──► router
//!                   │ full?                                       │
//!                   └─► 429 (load shed)        events ────────────┤
//!                                                ▼                │ queries
//!                                          MicroBatcher           │
//!                  new task or check-in / full batch / interval   │
//!                                                ▼                ▼
//!                                          EngineHandle  ◄────────┘
//!                                                ▼
//!                              region router (1 region by default)
//!                                                ▼
//!                        per-region sharded parallel solve (tick)
//! ```
//!
//! ## Routes
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /tasks` | submit a task (micro-batched) |
//! | `POST /tasks/expire` | withdraw a task |
//! | `POST /workers` | worker check-in |
//! | `POST /workers/heartbeat` | worker position update |
//! | `POST /workers/leave` | worker check-out |
//! | `POST /answers` | en-route worker delivered its answer |
//! | `GET /assignments` | the standing committed pairs |
//! | `GET /snapshot` | serving-state snapshot |
//! | `GET /metrics` | counters + latency histograms + engine state |
//! | `POST /tick` | force a micro-batch flush + engine tick |
//! | `POST /admin/shutdown` | graceful shutdown |
//! | `GET /healthz` | liveness |
//!
//! Event-submitting routes answer `202 Accepted` immediately — assignment
//! happens at the next micro-batch flush. Run the binary with
//! `cargo run --release -p rdbsc-server -- --help`, and put live traffic on
//! it with the closed-loop generator in `rdbsc-bench`
//! (`--bin loadgen -- --addr HOST:PORT`).
//!
//! ## Distributed partitions
//!
//! The crate also ships the wire half of the **partition protocol**
//! (`rdbsc_platform::protocol`): [`frame`] is the binary codec every
//! handshake, command and reply between router and daemon travels in,
//! [`protocol`] holds the configure payload and the daemon's hello,
//! [`remote`] implements the router-side [`BinaryPartitionClient`] over
//! one persistent pipelined TCP connection, and [`partitiond`] is the daemon hosting exactly one
//! partition's engine (binary: `rdbsc-partitiond`). The serving tier takes
//! `--remote-partition ADDR` (repeatable) to mount daemon-hosted regions
//! next to in-process ones — with every region remote, the server is a
//! thin stateless router.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod client;
pub mod dto;
pub mod error;
pub mod frame;
pub mod http;
pub mod json;
pub mod listener;
pub mod metrics;
pub mod partitiond;
pub mod protocol;
pub mod remote;
pub mod server;

pub use batch::{Clock, MicroBatcher};
pub use client::{ClientResponse, HttpClient};
pub use dto::{
    AnswerDto, AssignmentDto, HeartbeatDto, IdDto, SnapshotDto, TaskDto, TickDto, WorkerDto,
};
pub use error::ServerError;
pub use json::{parse, Json, JsonError};
pub use listener::{HttpCore, ListenerConfig, ShutdownHandle};
pub use metrics::{Counter, LatencyHistogram, ServerMetrics};
pub use partitiond::{PartitionDaemon, PartitiondConfig};
pub use protocol::{ConfigureDto, EngineConfigDto, Hello, ReplStatusDto, RoutingTableDto};
pub use remote::{
    connect_remote_partition, BinaryPartitionClient, FrameConn, RemoteStandbyPromoter,
};
pub use server::{Server, ServerConfig};
