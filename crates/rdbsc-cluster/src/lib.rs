//! # rdbsc-cluster
//!
//! A small 2-D k-means clustering substrate.
//!
//! The divide-and-conquer RDB-SC solver partitions the task set into two
//! spatially coherent, roughly even halves ("partition tasks into two even
//! sets with KMeans", Figure 7 of the paper). This crate provides Lloyd's
//! algorithm with k-means++-style seeding plus a balanced two-way split
//! helper tailored to that use.
//!
//! The [`partition`] module builds on the same k-means substrate to produce
//! **static spatial region partitions** — grid-cell-aligned rectangles with
//! data-driven boundaries — for the multi-engine serving layer in
//! `rdbsc-platform`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod kmeans;
pub mod partition;

pub use kmeans::{balanced_two_way_split, kmeans, KMeansConfig, KMeansResult};
pub use partition::{
    mix_seed, CellRange, PartitionStrategy, RegionPartition, RegionPartitioner,
};
