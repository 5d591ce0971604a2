//! The square-cell grid geometry shared by every grid-shaped backend.
//!
//! Both [`crate::GridIndex`] and [`crate::FlatGridIndex`] partition the data
//! space into the *same* `cells_per_axis × cells_per_axis` grid for a given
//! `(space, η)` pair: the clamping rule, the cell-of-point mapping and the
//! per-cell rectangles live here so the two backends cannot drift — identical
//! geometry is a precondition for the cross-backend determinism guarantee
//! (identical candidate sets and shard decompositions).

use rdbsc_geo::{Point, Rect};

/// A cell as the reachability predicate sees it: its grid coordinates (what
/// the direction memo is keyed by) and its rectangle (what distances are
/// measured between).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellSite {
    pub(crate) col: i32,
    pub(crate) row: i32,
    pub(crate) rect: Rect,
}

/// The immutable grid layout: data space, effective cell side `η` and the
/// number of cells per axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridGeometry {
    space: Rect,
    eta: f64,
    cells_per_axis: usize,
}

impl GridGeometry {
    /// Lays a grid over `space` with requested cell side `eta`.
    ///
    /// `eta` is clamped so that the number of cells per axis stays within
    /// `[1, 1024]` (a 2-D grid of more than ~10⁶ cells stops being useful and
    /// only wastes memory); the effective `η` is recomputed from the clamped
    /// axis count so cells tile the space exactly.
    pub fn new(space: Rect, eta: f64) -> Self {
        let extent = space.width().max(space.height()).max(1e-9);
        let mut cells_per_axis = (extent / eta.max(1e-9)).ceil() as usize;
        cells_per_axis = cells_per_axis.clamp(1, 1024);
        let eta = extent / cells_per_axis as f64;
        Self {
            space,
            eta,
            cells_per_axis,
        }
    }

    /// Lays a grid with an explicit axis count (clamped to `[1, 1024]`),
    /// computing the effective `η` exactly as [`GridGeometry::new`] does
    /// after its own clamp. This is the **wire-safe** constructor: a routing
    /// table shipping the integer axis count reconstructs the identical
    /// geometry on the far side, whereas re-deriving the count from the
    /// float `η` (`ceil(extent / η)`) can land one ulp above the integer
    /// and produce an off-by-one grid.
    pub fn with_cells_per_axis(space: Rect, cells_per_axis: usize) -> Self {
        let extent = space.width().max(space.height()).max(1e-9);
        let cells_per_axis = cells_per_axis.clamp(1, 1024);
        Self {
            space,
            eta: extent / cells_per_axis as f64,
            cells_per_axis,
        }
    }

    /// The data space the grid covers.
    pub fn space(&self) -> Rect {
        self.space
    }

    /// The effective cell side `η` actually in use.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Number of cells per axis.
    pub fn cells_per_axis(&self) -> usize {
        self.cells_per_axis
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells_per_axis * self.cells_per_axis
    }

    /// Index of the cell containing a point (points outside the data space
    /// are clamped onto it).
    pub fn cell_of(&self, p: Point) -> usize {
        let clamped = self.space.clamp_point(p);
        let col =
            (((clamped.x - self.space.min_x) / self.eta) as usize).min(self.cells_per_axis - 1);
        let row =
            (((clamped.y - self.space.min_y) / self.eta) as usize).min(self.cells_per_axis - 1);
        row * self.cells_per_axis + col
    }

    /// The rectangle of a cell by index.
    pub fn rect_of(&self, idx: usize) -> Rect {
        self.site(idx).rect
    }

    /// Grid coordinates and rectangle of a cell by index.
    pub(crate) fn site(&self, idx: usize) -> CellSite {
        let row = idx / self.cells_per_axis;
        let col = idx % self.cells_per_axis;
        let min_x = self.space.min_x + col as f64 * self.eta;
        let min_y = self.space.min_y + row as f64 * self.eta;
        CellSite {
            col: col as i32,
            row: row as i32,
            rect: Rect::new(min_x, min_y, min_x + self.eta, min_y + self.eta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lookup_and_rects_tile_the_space() {
        let g = GridGeometry::new(Rect::unit(), 0.25);
        assert_eq!(g.num_cells(), 16);
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), 0);
        assert_eq!(g.cell_of(Point::new(0.99, 0.99)), 15);
        // Points outside the space are clamped.
        assert_eq!(g.cell_of(Point::new(2.0, 2.0)), 15);
        assert_eq!(g.cell_of(Point::new(-1.0, -1.0)), 0);
        // Every cell's rect contains the cell's own centre point.
        for idx in 0..g.num_cells() {
            let r = g.rect_of(idx);
            let centre = Point::new(0.5 * (r.min_x + r.max_x), 0.5 * (r.min_y + r.max_y));
            assert_eq!(g.cell_of(centre), idx);
        }
    }

    #[test]
    fn explicit_axis_count_reconstructs_any_geometry_exactly() {
        // The float-eta round trip is NOT idempotent for every axis count
        // (ceil(extent / (extent / n)) can exceed n by one ulp's worth);
        // the integer round trip must be, for all of them.
        for n in 1..=1024usize {
            let original = GridGeometry::with_cells_per_axis(Rect::unit(), n);
            assert_eq!(original.cells_per_axis(), n);
            let rebuilt =
                GridGeometry::with_cells_per_axis(original.space(), original.cells_per_axis());
            assert_eq!(rebuilt, original, "axis count {n}");
        }
        // And it matches what new() produces for the same effective count.
        let via_eta = GridGeometry::new(Rect::unit(), 0.25);
        let via_count = GridGeometry::with_cells_per_axis(Rect::unit(), via_eta.cells_per_axis());
        assert_eq!(via_count, via_eta);
    }

    #[test]
    fn eta_is_clamped_to_a_sane_number_of_cells() {
        let g = GridGeometry::new(Rect::unit(), 1e-9);
        assert!(g.num_cells() <= 1024 * 1024);
        let g = GridGeometry::new(Rect::unit(), 10.0);
        assert_eq!(g.num_cells(), 1);
    }
}
