//! The universe of discourse and its grid decomposition (paper §2.2–2.3).
//!
//! The universe of discourse `U = Rect(X, Y, W, H)` is mapped onto a grid of
//! α×α cells. We index cells 0-based by `(x, y)` where `x` counts columns
//! along the x-axis and `y` counts rows along the y-axis; `Pmap` is a plain
//! floor division clamped to the grid (see DESIGN.md for the deviation note
//! from the paper's 1-based ceil formulation — the partitioning of space is
//! identical).

use crate::point::Point;
use crate::rect::Rect;

/// A grid cell index: column `x`, row `y` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    pub x: u32,
    pub y: u32,
}

impl CellId {
    #[inline]
    pub fn new(x: u32, y: u32) -> Self {
        CellId { x, y }
    }
}

/// The gridded universe of discourse `G(U, α)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// The universe of discourse.
    pub universe: Rect,
    /// Grid cell side length α.
    pub alpha: f64,
    /// Number of columns, `N = ceil(W/α)`.
    pub cols: u32,
    /// Number of rows, `M = ceil(H/α)`.
    pub rows: u32,
}

impl Grid {
    /// Builds the grid for a universe of discourse and cell side α.
    ///
    /// # Panics
    /// Panics when α is not strictly positive / finite or the universe is
    /// degenerate.
    pub fn new(universe: Rect, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "grid cell side must be positive"
        );
        assert!(
            universe.w() > 0.0 && universe.h() > 0.0,
            "degenerate universe of discourse"
        );
        let cols = (universe.w() / alpha).ceil() as u32;
        let rows = (universe.h() / alpha).ceil() as u32;
        Grid {
            universe,
            alpha,
            cols,
            rows,
        }
    }

    /// Total number of cells `M * N`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Inverse of [`flat_index`](Self::flat_index): the cell at a
    /// row-major flat index.
    #[inline]
    pub fn cell_from_flat(&self, flat: usize) -> CellId {
        debug_assert!(flat < self.num_cells());
        CellId::new(
            (flat % self.cols as usize) as u32,
            (flat / self.cols as usize) as u32,
        )
    }

    /// `Pmap(pos)`: the current grid cell of a position. Positions outside
    /// the universe are clamped to the nearest boundary cell, so every
    /// position maps to a valid cell (objects can briefly overshoot the
    /// universe between ticks in the simulation).
    pub fn cell_of(&self, p: Point) -> CellId {
        let fx = (p.x - self.universe.lx) / self.alpha;
        let fy = (p.y - self.universe.ly) / self.alpha;
        let x = (fx.floor() as i64).clamp(0, self.cols as i64 - 1) as u32;
        let y = (fy.floor() as i64).clamp(0, self.rows as i64 - 1) as u32;
        CellId { x, y }
    }

    /// The α×α rectangle covered by a cell (the last row/column may extend
    /// past the universe edge when W or H is not a multiple of α, exactly as
    /// in the paper's `M = ceil(H/α)` definition).
    pub fn cell_rect(&self, c: CellId) -> Rect {
        debug_assert!(self.contains_cell(c), "cell {c:?} outside grid");
        Rect::new(
            self.universe.lx + c.x as f64 * self.alpha,
            self.universe.ly + c.y as f64 * self.alpha,
            self.alpha,
            self.alpha,
        )
    }

    #[inline]
    pub fn contains_cell(&self, c: CellId) -> bool {
        c.x < self.cols && c.y < self.rows
    }

    /// Clamps a cell index to the grid. Wire-carried cells (cell changes,
    /// resyncs) are computed by the sender and may name a coordinate past
    /// the boundary after an aggressive dead-reckoning overshoot; clamping
    /// keeps every downstream flat-index lookup in range.
    #[inline]
    pub fn clamp_cell(&self, c: CellId) -> CellId {
        CellId {
            x: c.x.min(self.cols - 1),
            y: c.y.min(self.rows - 1),
        }
    }

    /// Flat index of a cell, row-major; used for matrix-shaped indexes such
    /// as the server's RQI.
    #[inline]
    pub fn flat_index(&self, c: CellId) -> usize {
        c.y as usize * self.cols as usize + c.x as usize
    }

    /// Flat cell index of a position in one step —
    /// `flat_index(cell_of(p))`, the hot-path form used by the
    /// struct-of-arrays tick engine's cell-change test.
    #[inline]
    pub fn flat_cell_of(&self, p: Point) -> usize {
        self.flat_index(self.cell_of(p))
    }

    /// Inverse of [`flat_index`](Self::flat_index): the cell at a
    /// row-major flat index.
    #[inline]
    pub fn cell_at(&self, flat: usize) -> CellId {
        debug_assert!(flat < self.num_cells(), "flat index {flat} out of grid");
        CellId {
            x: (flat % self.cols as usize) as u32,
            y: (flat / self.cols as usize) as u32,
        }
    }

    /// The cells whose (closed) rectangles intersect `rect`, as a compact
    /// cell-range. Returns an empty range when `rect` lies outside the grid.
    pub fn cells_overlapping(&self, rect: &Rect) -> GridRect {
        let gx = |v: f64| (v - self.universe.lx) / self.alpha;
        let gy = |v: f64| (v - self.universe.ly) / self.alpha;
        // Closed intersection: a rect edge exactly on a cell boundary touches
        // both neighboring cells, so low uses floor and high uses floor too
        // (a boundary value v==k*α belongs to cells k-1 and k; floor gives k,
        // and the low side compensates by flooring the *low* coordinate).
        let lo_x = gx(rect.lx).floor() as i64;
        let lo_y = gy(rect.ly).floor() as i64;
        let hi_x = gx(rect.hx()).floor() as i64;
        let hi_y = gy(rect.hy()).floor() as i64;
        // A high edge exactly on a boundary k*α touches cell k as well, which
        // floor already yields; a low edge on k*α touches cell k-1 too.
        let lo_x = if gx(rect.lx).fract() == 0.0 {
            lo_x - 1
        } else {
            lo_x
        };
        let lo_y = if gy(rect.ly).fract() == 0.0 {
            lo_y - 1
        } else {
            lo_y
        };
        let x0 = lo_x.clamp(0, self.cols as i64 - 1);
        let y0 = lo_y.clamp(0, self.rows as i64 - 1);
        let x1 = hi_x.clamp(-1, self.cols as i64 - 1);
        let y1 = hi_y.clamp(-1, self.rows as i64 - 1);
        if hi_x < 0
            || hi_y < 0
            || lo_x >= self.cols as i64
            || lo_y >= self.rows as i64
            || x1 < x0
            || y1 < y0
        {
            return GridRect::EMPTY;
        }
        GridRect {
            x0: x0 as u32,
            y0: y0 as u32,
            x1: x1 as u32,
            y1: y1 as u32,
        }
    }

    /// The paper's `bound_box(q)`: the focal cell's rectangle inflated by the
    /// query's reach `r` on every side — all space the query region can touch
    /// while the focal object stays in `cell`.
    pub fn bound_box(&self, cell: CellId, reach: f64) -> Rect {
        debug_assert!(reach >= 0.0);
        let rc = self.cell_rect(cell);
        Rect::new(
            rc.lx - reach,
            rc.ly - reach,
            rc.w() + 2.0 * reach,
            rc.h() + 2.0 * reach,
        )
    }

    /// The paper's `mon_region(q)`: all grid cells intersecting the bounding
    /// box of a query whose focal object sits in `cell`.
    pub fn monitoring_region(&self, cell: CellId, reach: f64) -> GridRect {
        self.cells_overlapping(&self.bound_box(cell, reach))
    }
}

/// A rectangular, inclusive range of grid cells `[x0..=x1] × [y0..=y1]`.
///
/// Monitoring regions are always cell-ranges (the bounding box is a
/// rectangle), which makes membership checks O(1) and the structure `Copy` —
/// important because it travels inside protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridRect {
    pub x0: u32,
    pub y0: u32,
    pub x1: u32,
    pub y1: u32,
}

impl GridRect {
    /// The canonical empty range (x0 > x1).
    pub const EMPTY: GridRect = GridRect {
        x0: 1,
        y0: 1,
        x1: 0,
        y1: 0,
    };

    #[inline]
    pub fn single(c: CellId) -> Self {
        GridRect {
            x0: c.x,
            y0: c.y,
            x1: c.x,
            y1: c.y,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x0 > self.x1 || self.y0 > self.y1
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.x1 - self.x0 + 1) as usize * (self.y1 - self.y0 + 1) as usize
        }
    }

    #[inline]
    pub fn contains(&self, c: CellId) -> bool {
        c.x >= self.x0 && c.x <= self.x1 && c.y >= self.y0 && c.y <= self.y1
    }

    /// Do two cell-ranges share a cell?
    pub fn intersects(&self, other: &GridRect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.x0 <= other.x1
            && other.x0 <= self.x1
            && self.y0 <= other.y1
            && other.y0 <= self.y1
    }

    /// Smallest cell-range covering both; used when a focal object changes
    /// cells and the server must notify the union of old and new monitoring
    /// regions.
    pub fn union(&self, other: &GridRect) -> GridRect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        GridRect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Iterates the covered cells in row-major order.
    /// An empty range visits no row, however many its corners span.
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        let (y0, y1) = if self.is_empty() {
            (1, 0)
        } else {
            (self.y0, self.y1)
        };
        let (x0, x1) = (self.x0, self.x1);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| CellId { x, y }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid10() -> Grid {
        Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0)
    }

    #[test]
    fn dimensions() {
        let g = grid10();
        assert_eq!(g.cols, 10);
        assert_eq!(g.rows, 10);
        assert_eq!(g.num_cells(), 100);
        // Non-divisible extents round up.
        let g2 = Grid::new(Rect::new(0.0, 0.0, 95.0, 101.0), 10.0);
        assert_eq!(g2.cols, 10);
        assert_eq!(g2.rows, 11);
    }

    #[test]
    fn cell_of_interior_points() {
        let g = grid10();
        assert_eq!(g.cell_of(Point::new(0.5, 0.5)), CellId::new(0, 0));
        assert_eq!(g.cell_of(Point::new(15.0, 25.0)), CellId::new(1, 2));
        assert_eq!(g.cell_of(Point::new(99.9, 99.9)), CellId::new(9, 9));
    }

    #[test]
    fn cell_of_clamps_out_of_universe() {
        let g = grid10();
        assert_eq!(g.cell_of(Point::new(-5.0, 50.0)), CellId::new(0, 5));
        assert_eq!(g.cell_of(Point::new(150.0, -1.0)), CellId::new(9, 0));
        // Exactly on the far boundary maps to the last cell.
        assert_eq!(g.cell_of(Point::new(100.0, 100.0)), CellId::new(9, 9));
    }

    #[test]
    fn cell_rect_roundtrip() {
        let g = grid10();
        for c in [CellId::new(0, 0), CellId::new(3, 7), CellId::new(9, 9)] {
            let r = g.cell_rect(c);
            assert_eq!(g.cell_of(r.center()), c);
            assert_eq!(r.w(), 10.0);
            assert_eq!(r.h(), 10.0);
        }
    }

    #[test]
    fn flat_index_is_row_major_and_unique() {
        let g = grid10();
        let mut seen = std::collections::HashSet::new();
        for y in 0..g.rows {
            for x in 0..g.cols {
                assert!(seen.insert(g.flat_index(CellId::new(x, y))));
            }
        }
        assert_eq!(seen.len(), 100);
        assert_eq!(g.flat_index(CellId::new(2, 1)), 12);
    }

    #[test]
    fn cells_overlapping_interior_rect() {
        let g = grid10();
        let gr = g.cells_overlapping(&Rect::new(12.0, 12.0, 15.0, 5.0));
        assert_eq!(
            gr,
            GridRect {
                x0: 1,
                y0: 1,
                x1: 2,
                y1: 1
            }
        );
        assert_eq!(gr.len(), 2);
    }

    #[test]
    fn cells_overlapping_includes_boundary_touch() {
        let g = grid10();
        // Rect exactly [10,20]x[10,20] touches cells 0..=2 in each axis
        // under closed intersection semantics.
        let gr = g.cells_overlapping(&Rect::new(10.0, 10.0, 10.0, 10.0));
        assert_eq!(
            gr,
            GridRect {
                x0: 0,
                y0: 0,
                x1: 2,
                y1: 2
            }
        );
    }

    #[test]
    fn cells_overlapping_clamps_to_grid() {
        let g = grid10();
        let gr = g.cells_overlapping(&Rect::new(-50.0, -50.0, 200.0, 200.0));
        assert_eq!(
            gr,
            GridRect {
                x0: 0,
                y0: 0,
                x1: 9,
                y1: 9
            }
        );
        assert!(g
            .cells_overlapping(&Rect::new(200.0, 200.0, 5.0, 5.0))
            .is_empty());
        assert!(g
            .cells_overlapping(&Rect::new(-50.0, -50.0, 5.0, 5.0))
            .is_empty());
    }

    #[test]
    fn bound_box_matches_paper_definition() {
        let g = grid10();
        let bb = g.bound_box(CellId::new(2, 3), 4.0);
        // rc = [20,30]x[30,40]; inflated by r=4 on each side.
        assert_eq!(bb, Rect::new(16.0, 26.0, 18.0, 18.0));
    }

    #[test]
    fn monitoring_region_covers_all_reachable_space() {
        let g = grid10();
        let c = CellId::new(5, 5);
        let r = 3.0;
        let mr = g.monitoring_region(c, r);
        // Any circle of radius 3 centered anywhere in cell (5,5) must lie
        // inside the union of the monitoring region cells.
        let rc = g.cell_rect(c);
        for fx in [rc.lx, rc.lx + 5.0, rc.hx()] {
            for fy in [rc.ly, rc.ly + 5.0, rc.hy()] {
                let q = crate::circle::Circle::new(Point::new(fx, fy), r);
                let bb = q.bbox();
                let covered = g.cells_overlapping(&bb);
                assert!(
                    mr.contains(CellId::new(covered.x0, covered.y0))
                        && mr.contains(CellId::new(covered.x1, covered.y1)),
                    "monitoring region must cover query bbox cells"
                );
            }
        }
    }

    #[test]
    fn monitoring_region_small_radius_is_3x3_plus_boundary() {
        let g = grid10();
        // With radius < α and the focal cell interior, the monitoring region
        // is the focal cell plus its 8 neighbors (boundary-touching included).
        let mr = g.monitoring_region(CellId::new(5, 5), 3.0);
        assert_eq!(
            mr,
            GridRect {
                x0: 4,
                y0: 4,
                x1: 6,
                y1: 6
            }
        );
    }

    #[test]
    fn monitoring_region_at_corner_is_clipped() {
        let g = grid10();
        let mr = g.monitoring_region(CellId::new(0, 0), 3.0);
        assert_eq!(
            mr,
            GridRect {
                x0: 0,
                y0: 0,
                x1: 1,
                y1: 1
            }
        );
    }

    #[test]
    fn gridrect_ops() {
        let a = GridRect {
            x0: 1,
            y0: 1,
            x1: 3,
            y1: 2,
        };
        let b = GridRect {
            x0: 3,
            y0: 2,
            x1: 5,
            y1: 5,
        };
        let c = GridRect {
            x0: 7,
            y0: 7,
            x1: 8,
            y1: 8,
        };
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(
            a.union(&b),
            GridRect {
                x0: 1,
                y0: 1,
                x1: 5,
                y1: 5
            }
        );
        assert_eq!(a.len(), 6);
        assert!(a.contains(CellId::new(2, 1)));
        assert!(!a.contains(CellId::new(4, 1)));
    }

    #[test]
    fn gridrect_empty_behaviour() {
        let e = GridRect::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.iter().count(), 0);
        assert!(!e.contains(CellId::new(0, 0)));
        assert!(!e.intersects(&GridRect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9
        }));
        let a = GridRect {
            x0: 1,
            y0: 1,
            x1: 2,
            y1: 2,
        };
        assert_eq!(e.union(&a), a);
        assert_eq!(a.union(&e), a);
    }

    #[test]
    fn gridrect_iter_row_major() {
        let a = GridRect {
            x0: 1,
            y0: 1,
            x1: 2,
            y1: 2,
        };
        let cells: Vec<_> = a.iter().collect();
        assert_eq!(
            cells,
            vec![
                CellId::new(1, 1),
                CellId::new(2, 1),
                CellId::new(1, 2),
                CellId::new(2, 2)
            ]
        );
    }

    #[test]
    fn single_cell_gridrect() {
        let s = GridRect::single(CellId::new(4, 2));
        assert_eq!(s.len(), 1);
        assert!(s.contains(CellId::new(4, 2)));
        assert!(!s.contains(CellId::new(4, 3)));
    }
}
