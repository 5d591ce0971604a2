//! Static spatial region partitioning for multi-engine serving.
//!
//! The online engine already decomposes each tick into independent shards,
//! but one engine still owns the whole data space behind one lock. The
//! partitioned platform layer (`rdbsc-platform`) instead runs one engine per
//! **region** — a rectangular, grid-cell-aligned slice of the data space —
//! and routes events by location. This module produces those regions with
//! [`RegionPartition::uniform`]: recursively halve the region with the most
//! cells at its middle cell boundary. The split needs no workload data, so
//! a server builds it at boot. Every tie-break is explicit and the regions
//! are sorted by their `(row, col)` origin, so the same grid and count
//! always yield the same partition indices. Regions are aligned to the grid
//! cells of a [`GridGeometry`], so a per-region index over the region's
//! rectangle uses exactly the cell boundaries of the global grid.

use rdbsc_geo::{Point, Rect};
use rdbsc_index::geometry::GridGeometry;

/// A half-open rectangle of grid cells: columns `[col0, col1)`, rows
/// `[row0, row1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRange {
    /// First column (inclusive).
    pub col0: usize,
    /// First row (inclusive).
    pub row0: usize,
    /// One past the last column.
    pub col1: usize,
    /// One past the last row.
    pub row1: usize,
}

impl CellRange {
    fn cols(&self) -> usize {
        self.col1 - self.col0
    }

    fn rows(&self) -> usize {
        self.row1 - self.row0
    }

    /// Number of grid cells covered.
    pub fn num_cells(&self) -> usize {
        self.cols() * self.rows()
    }

    fn contains(&self, col: usize, row: usize) -> bool {
        (self.col0..self.col1).contains(&col) && (self.row0..self.row1).contains(&row)
    }
}

/// A complete, disjoint cover of a grid's cells by rectangular regions.
///
/// Built by [`RegionPartition::uniform`] (or [`RegionPartition::single`],
/// or from a routing table with [`RegionPartition::from_regions`]);
/// consumed by the partitioned engine
/// to (a) construct one spatial index per region rectangle and (b) route
/// events with [`RegionPartition::partition_of`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegionPartition {
    geometry: GridGeometry,
    regions: Vec<CellRange>,
}

impl RegionPartition {
    /// The trivial partition: one region covering the whole grid.
    pub fn single(geometry: GridGeometry) -> Self {
        let n = geometry.cells_per_axis();
        Self {
            geometry,
            regions: vec![CellRange {
                col0: 0,
                row0: 0,
                col1: n,
                row1: n,
            }],
        }
    }

    /// Splits the grid into `regions` near-even rectangles: while there are
    /// too few, the region with the most cells (the earliest on a tie) is
    /// halved across its wider side (columns on a square) at the middle cell
    /// boundary. The count is clamped to `[1, cells]`; the result always
    /// tiles the grid exactly.
    pub fn uniform(geometry: GridGeometry, regions: usize) -> Self {
        let target = regions.clamp(1, geometry.num_cells());
        let mut pending = Self::single(geometry).regions;
        while pending.len() < target {
            // Fewer regions than cells, so the largest has at least two.
            let pick = (0..pending.len()).fold(0, |best, i| {
                if pending[i].num_cells() > pending[best].num_cells() {
                    i
                } else {
                    best
                }
            });
            let r = pending[pick];
            let (low, high) = if r.cols() >= r.rows() {
                let mid = r.col0 + r.cols() / 2;
                (CellRange { col1: mid, ..r }, CellRange { col0: mid, ..r })
            } else {
                let mid = r.row0 + r.rows() / 2;
                (CellRange { row1: mid, ..r }, CellRange { row0: mid, ..r })
            };
            pending[pick] = low;
            pending.insert(pick + 1, high);
        }
        // Canonical region order: by (row, col) origin — partition indices
        // must not depend on the split sequence.
        pending.sort_by_key(|r| (r.row0, r.col0));
        Self {
            geometry,
            regions: pending,
        }
    }

    /// Rebuilds a partition from its parts — the deserialization half of the
    /// routing table a router ships to `rdbsc-partitiond` daemons, so both
    /// sides agree on the region geometry down to the cell. Validates what
    /// [`RegionPartition::uniform`] guarantees by construction:
    ///
    /// * every range is non-empty and within the grid,
    /// * the ranges tile the grid **exactly** (disjoint, complete cover),
    /// * the ranges arrive in canonical `(row0, col0)` order — region order
    ///   IS the partition index mapping, so a reordered table would silently
    ///   route events to the wrong engines if it were accepted.
    pub fn from_regions(geometry: GridGeometry, regions: Vec<CellRange>) -> Result<Self, String> {
        if regions.is_empty() {
            return Err("a routing table needs at least one region".into());
        }
        let per_axis = geometry.cells_per_axis();
        let mut covered = vec![false; geometry.num_cells()];
        for (i, r) in regions.iter().enumerate() {
            if r.col0 >= r.col1 || r.row0 >= r.row1 {
                return Err(format!("region {i} is empty or inverted: {r:?}"));
            }
            if r.col1 > per_axis || r.row1 > per_axis {
                return Err(format!(
                    "region {i} exceeds the {per_axis}x{per_axis} grid: {r:?}"
                ));
            }
            for row in r.row0..r.row1 {
                for col in r.col0..r.col1 {
                    let cell = &mut covered[row * per_axis + col];
                    if *cell {
                        return Err(format!(
                            "region {i} overlaps an earlier region at cell ({col}, {row})"
                        ));
                    }
                    *cell = true;
                }
            }
        }
        if !covered.iter().all(|c| *c) {
            return Err("regions do not cover the whole grid".into());
        }
        if !regions
            .windows(2)
            .all(|w| (w[0].row0, w[0].col0) < (w[1].row0, w[1].col0))
        {
            return Err(
                "regions are not in canonical (row, col) order — the region \
                 order is the partition index mapping and must match the \
                 router's"
                    .into(),
            );
        }
        Ok(Self { geometry, regions })
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// The cell ranges of every region, in partition order — the
    /// serialization half of the routing table (see
    /// [`RegionPartition::from_regions`]).
    pub fn regions(&self) -> &[CellRange] {
        &self.regions
    }

    /// The grid geometry the regions are aligned to.
    pub fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// The cell range of a region.
    pub fn cells(&self, region: usize) -> CellRange {
        self.regions[region]
    }

    /// The data-space rectangle of a region (the union of its cells).
    pub fn region_rect(&self, region: usize) -> Rect {
        let r = self.regions[region];
        let space = self.geometry.space();
        let eta = self.geometry.eta();
        Rect::new(
            space.min_x + r.col0 as f64 * eta,
            space.min_y + r.row0 as f64 * eta,
            space.min_x + r.col1 as f64 * eta,
            space.min_y + r.row1 as f64 * eta,
        )
    }

    /// The region owning a point. Points outside the data space are clamped
    /// onto it first (exactly like the grid index's cell lookup), so every
    /// point maps to exactly one region.
    pub fn partition_of(&self, p: Point) -> usize {
        let idx = self.geometry.cell_of(p);
        let per_axis = self.geometry.cells_per_axis();
        let (col, row) = (idx % per_axis, idx / per_axis);
        self.regions
            .iter()
            .position(|r| r.contains(col, row))
            .expect("regions tile the grid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> GridGeometry {
        GridGeometry::new(Rect::unit(), 0.1) // 10 × 10 cells
    }

    fn assert_tiles(partition: &RegionPartition) {
        let per_axis = partition.geometry().cells_per_axis();
        let mut covered = vec![0usize; per_axis * per_axis];
        for i in 0..partition.num_regions() {
            let r = partition.cells(i);
            assert!(r.col0 < r.col1 && r.row0 < r.row1, "empty region {r:?}");
            for row in r.row0..r.row1 {
                for col in r.col0..r.col1 {
                    covered[row * per_axis + col] += 1;
                }
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "regions must tile exactly once"
        );
    }

    #[test]
    fn uniform_split_tiles_and_balances() {
        for n in [1, 2, 3, 4, 7, 8] {
            let partition = RegionPartition::uniform(geometry(), n);
            assert_eq!(partition.num_regions(), n);
            assert_tiles(&partition);
            let cells: Vec<usize> = (0..n).map(|i| partition.cells(i).num_cells()).collect();
            let (min, max) = (*cells.iter().min().unwrap(), *cells.iter().max().unwrap());
            // Halving at cell granularity cannot be perfectly even (an odd
            // 5-cell side splits 2/3), but no region may dwarf another.
            assert!(
                max <= 3 * min,
                "uniform split too uneven for n={n}: {cells:?}"
            );
        }
    }

    #[test]
    fn region_count_is_clamped_to_the_cell_count() {
        let tiny = GridGeometry::new(Rect::unit(), 0.5); // 2 × 2 cells
        let partition = RegionPartition::uniform(tiny, 64);
        assert_eq!(partition.num_regions(), 4);
        assert_tiles(&partition);
        let partition = RegionPartition::uniform(tiny, 0);
        assert_eq!(partition.num_regions(), 1);
    }

    #[test]
    fn partition_of_is_total_and_consistent_with_rects() {
        let partition = RegionPartition::uniform(geometry(), 4);
        for i in 0..40 {
            for j in 0..40 {
                let p = Point::new(i as f64 / 40.0, j as f64 / 40.0);
                let region = partition.partition_of(p);
                let rect = partition.region_rect(region);
                assert!(
                    p.x >= rect.min_x - 1e-12
                        && p.x <= rect.max_x + 1e-12
                        && p.y >= rect.min_y - 1e-12
                        && p.y <= rect.max_y + 1e-12,
                    "{p:?} routed to region {region} with rect {rect:?}"
                );
            }
        }
        // Points outside the space clamp to a border region, never panic.
        partition.partition_of(Point::new(-5.0, 99.0));
    }

    #[test]
    fn split_is_deterministic() {
        for n in [1, 5, 13] {
            assert_eq!(
                RegionPartition::uniform(geometry(), n),
                RegionPartition::uniform(geometry(), n)
            );
        }
    }

    #[test]
    fn regions_are_ordered_by_origin() {
        let partition = RegionPartition::uniform(geometry(), 6);
        let origins: Vec<(usize, usize)> = (0..6)
            .map(|i| (partition.cells(i).row0, partition.cells(i).col0))
            .collect();
        let mut sorted = origins.clone();
        sorted.sort();
        assert_eq!(origins, sorted);
    }

    #[test]
    fn region_rects_align_with_global_cell_boundaries() {
        let geometry = geometry();
        let partition = RegionPartition::uniform(geometry, 4);
        for i in 0..partition.num_regions() {
            let rect = partition.region_rect(i);
            for coord in [rect.min_x, rect.min_y, rect.max_x, rect.max_y] {
                let cells = coord / geometry.eta();
                assert!(
                    (cells - cells.round()).abs() < 1e-9,
                    "rect edge {coord} is not on a cell boundary"
                );
            }
        }
    }

    #[test]
    fn routing_tables_round_trip_through_their_parts() {
        for n in [1, 2, 3, 4, 7] {
            let partition = RegionPartition::uniform(geometry(), n);
            let rebuilt =
                RegionPartition::from_regions(*partition.geometry(), partition.regions().to_vec())
                    .expect("a split's own regions must validate");
            assert_eq!(rebuilt, partition, "{n} regions");
        }
    }

    #[test]
    fn from_regions_rejects_malformed_tables() {
        let g = geometry();
        let full = |col0, row0, col1, row1| CellRange {
            col0,
            row0,
            col1,
            row1,
        };
        // Empty table.
        assert!(RegionPartition::from_regions(g, vec![]).is_err());
        // Inverted region.
        assert!(RegionPartition::from_regions(g, vec![full(5, 0, 5, 10)]).is_err());
        // Out of the grid.
        assert!(RegionPartition::from_regions(g, vec![full(0, 0, 11, 10)]).is_err());
        // Incomplete cover.
        assert!(
            RegionPartition::from_regions(g, vec![full(0, 0, 5, 10)]).is_err(),
            "half the grid uncovered"
        );
        // Overlap.
        assert!(
            RegionPartition::from_regions(g, vec![full(0, 0, 6, 10), full(5, 0, 10, 10)]).is_err()
        );
        // Non-canonical order: the index mapping would silently differ.
        assert!(
            RegionPartition::from_regions(g, vec![full(5, 0, 10, 10), full(0, 0, 5, 10)]).is_err()
        );
        // The canonical version of the same split is fine.
        assert!(
            RegionPartition::from_regions(g, vec![full(0, 0, 5, 10), full(5, 0, 10, 10)]).is_ok()
        );
    }
}
