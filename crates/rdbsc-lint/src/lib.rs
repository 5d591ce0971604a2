//! # rdbsc-lint
//!
//! A workspace determinism static analyzer, run as a hard
//! CI gate (`cargo run -p rdbsc-lint --release`).
//!
//! The system's correctness story rests on byte-identical determinism: FNV
//! digests must match across index backends, partition topologies, wire
//! transports and crash recovery. The two nastiest bugs in this repo's
//! history were nondeterminism introduced silently in review-passing code —
//! a float-order-sensitive summary recomputation, and an objective fold
//! over `HashMap` iteration order that diverged in the last ulp between
//! identical engines. Reviewer vigilance does not scale; this crate
//! mechanically excludes those hazard classes.
//!
//! It is zero-dependency by design (the build environment is offline — no
//! `syn`, no `clippy-utils`): a hand-rolled [`lexer`] that never fires
//! rules inside comments or strings, a token-level [`analysis`] layer, the
//! [`rules`] themselves, and an [`engine`] that walks the workspace and
//! applies inline suppressions (`// lint:allow(D001): <reason>` — the
//! reason is mandatory).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use engine::{find_workspace_root, run};
pub use rules::{Finding, ALL_RULES};
pub use source::SourceFile;
