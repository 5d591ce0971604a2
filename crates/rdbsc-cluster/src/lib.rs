//! # rdbsc-cluster
//!
//! The two ways the workspace splits space.
//!
//! * [`balanced_two_way_split`] — the divide-and-conquer RDB-SC solver
//!   partitions the task set into "two even sets" with k-means (Figure 7 of
//!   the paper): Lloyd's 2-means with k-means++ seeding, then a rebalance
//!   to two spatially coherent, almost even halves.
//! * [`RegionPartition`] — **static spatial region partitions** for the
//!   multi-engine serving layer in `rdbsc-platform`: grid-cell-aligned
//!   rectangles from [`RegionPartition::uniform`], or a routing table
//!   validated by [`RegionPartition::from_regions`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod kmeans;
pub mod partition;

pub use kmeans::balanced_two_way_split;
pub use partition::{CellRange, RegionPartition};
