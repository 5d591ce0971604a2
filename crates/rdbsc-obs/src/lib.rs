//! # rdbsc-obs
//!
//! Zero-dependency observability for the RDB-SC stack: every tier (router,
//! partition daemons, WAL) reports through the primitives in this crate, so
//! one scrape format and one trace model cover the whole system.
//!
//! Three layers, bottom up:
//!
//! * **Metric primitives** ([`metrics`]): lock-free [`Counter`] and
//!   log-bucketed [`LatencyHistogram`], plus histogram merging so
//!   per-partition histograms compose into a fleet view.
//! * **Prometheus rendering** ([`prom`]): [`PromWriter`] renders text
//!   exposition format 0.0.4, and [`validate_prom`] is the small format
//!   checker CI gates every scrape with.
//! * **Tracing** ([`trace`], [`stage`], [`slow`]): tick-anchored spans
//!   ([`span`], [`SpanGuard`]) recorded into lock-free per-thread ring
//!   buffers and collected by trace id ([`collect_spans`]); the per-stage
//!   tick breakdown [`StageTimings`] aggregated into per-stage histograms
//!   by [`StageSet`]; and the [`SlowTickBuffer`] capturing the full span
//!   tree of any tick exceeding a configurable threshold.
//!
//! The crate also hosts [`digest`]: the canonical FNV-1a fold behind every
//! cross-run identity check (WAL recovery, cross-topology and
//! cross-transport benches). It lives here because this is the one
//! zero-dependency crate every tier already links.
//!
//! Everything here is **observational only**: no value produced by this
//! crate may flow into an engine decision, so instrumented runs stay
//! byte-identical to uninstrumented ones. (The [`digest`] fold is the one
//! deliberate exception on the *checking* side — it never feeds back into
//! decisions either, it only asserts they were identical.)

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod digest;
pub mod metrics;
pub mod prom;
pub mod slow;
pub mod stage;
pub mod trace;

pub use digest::{fnv1a_bytes, Fnv1a};
pub use metrics::{Counter, LatencyHistogram, BUCKET_BOUNDS_US};
pub use prom::{validate_prom, PromWriter};
pub use slow::{SlowTick, SlowTickBuffer};
pub use stage::{StageSet, StageTimings, NUM_STAGES};
pub use trace::{
    collect_spans, next_trace_id, now_us, record_span, record_stage_spans, span, SpanEvent,
    SpanGuard,
};
