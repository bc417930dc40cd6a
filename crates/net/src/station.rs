//! Base-station layout and the `Bmap` cell→stations mapping (paper §2.2).
//!
//! The paper parameterizes base stations by a *side length* `alen` (Table 1)
//! and requires the union of the circular coverage areas to contain the
//! universe of discourse. We realize this as a square lattice: stations sit
//! at the centers of `alen × alen` squares tiling the universe, each with
//! coverage radius `alen·√2/2` — the smallest circle that covers its own
//! lattice square, so the coverage union always contains the universe.

use mobieyes_geo::{CellId, Circle, Grid, GridRect, Point, Rect};

/// Identifier of a base station (index into the lattice, row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StationId(pub u32);

/// A lattice of base stations with circular coverage areas covering the
/// universe of discourse.
#[derive(Debug, Clone)]
pub struct BaseStationLayout {
    universe: Rect,
    /// Lattice spacing (the paper's `alen`).
    alen: f64,
    cols: u32,
    rows: u32,
    /// Coverage radius of every station.
    radius: f64,
}

impl BaseStationLayout {
    /// Builds the lattice for `universe` with station side length `alen`.
    pub fn new(universe: Rect, alen: f64) -> Self {
        assert!(
            alen > 0.0 && alen.is_finite(),
            "station side length must be positive"
        );
        let cols = (universe.w() / alen).ceil().max(1.0) as u32;
        let rows = (universe.h() / alen).ceil().max(1.0) as u32;
        BaseStationLayout {
            universe,
            alen,
            cols,
            rows,
            radius: alen * std::f64::consts::SQRT_2 / 2.0,
        }
    }

    pub fn num_stations(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Lattice width in stations.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Lattice height in stations.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    pub fn alen(&self) -> f64 {
        self.alen
    }

    pub fn coverage_radius(&self) -> f64 {
        self.radius
    }

    /// Center point of a station's lattice square.
    pub fn center(&self, s: StationId) -> Point {
        let x = s.0 % self.cols;
        let y = s.0 / self.cols;
        Point::new(
            self.universe.lx + (x as f64 + 0.5) * self.alen,
            self.universe.ly + (y as f64 + 0.5) * self.alen,
        )
    }

    /// The coverage circle of a station.
    pub fn coverage(&self, s: StationId) -> Circle {
        Circle::new(self.center(s), self.radius)
    }

    /// Is a position inside the coverage area of station `s`? This decides
    /// whether an object physically receives a broadcast from `s`.
    pub fn covers(&self, s: StationId, p: Point) -> bool {
        self.coverage(s).contains_point(p)
    }

    /// The station whose lattice square contains `p` (clamped at the
    /// universe boundary). Uplink messages from an object enter the network
    /// through this station.
    pub fn station_at(&self, p: Point) -> StationId {
        let fx = ((p.x - self.universe.lx) / self.alen).floor() as i64;
        let fy = ((p.y - self.universe.ly) / self.alen).floor() as i64;
        let x = fx.clamp(0, self.cols as i64 - 1) as u32;
        let y = fy.clamp(0, self.rows as i64 - 1) as u32;
        StationId(y * self.cols + x)
    }

    /// The grid cells under the bounding box of station `s`'s coverage
    /// circle: every cell an object `s` covers can be in. For every `p`,
    /// `covers(s, p)` implies `cells_under(s, grid)` contains
    /// `grid.cell_of(p)`, off-universe positions included: the box corners
    /// clamp through the same monotone `cell_of`, and a hair of slack
    /// keeps float rounding inside the exact circle test from admitting a
    /// point the box excludes. A superset of the covered cells — the
    /// corner cells may only touch the circle.
    pub fn cells_under(&self, s: StationId, grid: &Grid) -> GridRect {
        let circle = self.coverage(s);
        let c = circle.center;
        let reach = circle.r + 1e-9 * (1.0 + c.x.abs().max(c.y.abs()));
        let lo = grid.cell_of(Point::new(c.x - reach, c.y - reach));
        let hi = grid.cell_of(Point::new(c.x + reach, c.y + reach));
        GridRect {
            x0: lo.x,
            y0: lo.y,
            x1: hi.x,
            y1: hi.y,
        }
    }

    /// `Bmap(i, j)`: all stations whose coverage circle intersects the given
    /// grid cell.
    pub fn bmap(&self, grid: &Grid, cell: mobieyes_geo::CellId) -> Vec<StationId> {
        let rect = grid.cell_rect(cell);
        self.stations_intersecting(&rect)
    }

    /// All stations whose coverage circle intersects `rect`.
    pub fn stations_intersecting(&self, rect: &Rect) -> Vec<StationId> {
        // Candidate lattice range: inflate by the coverage radius, then test
        // each candidate circle exactly.
        let lo_x = (((rect.lx - self.radius) - self.universe.lx) / self.alen).floor() as i64;
        let lo_y = (((rect.ly - self.radius) - self.universe.ly) / self.alen).floor() as i64;
        let hi_x = (((rect.hx() + self.radius) - self.universe.lx) / self.alen).floor() as i64;
        let hi_y = (((rect.hy() + self.radius) - self.universe.ly) / self.alen).floor() as i64;
        let mut out = Vec::new();
        for y in lo_y.max(0)..=hi_y.min(self.rows as i64 - 1) {
            for x in lo_x.max(0)..=hi_x.min(self.cols as i64 - 1) {
                let s = StationId(y as u32 * self.cols + x as u32);
                if self.coverage(s).intersects_rect(rect) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// The minimal set of stations needed to *fully cover* a monitoring
    /// region (greedy set cover over the region's grid cells). "Fully
    /// cover" means every point of every cell lies inside some chosen
    /// station's circle, so every object in the region is guaranteed to
    /// receive the broadcast.
    ///
    /// This is the paper's "minimal set of base stations that covers the
    /// monitoring region" used for query installation and focal-object
    /// update dissemination.
    pub fn minimal_cover(&self, grid: &Grid, region: &GridRect) -> Vec<StationId> {
        if region.is_empty() {
            return Vec::new();
        }
        // The region rectangle in space.
        let lo = grid.cell_rect(mobieyes_geo::CellId::new(region.x0, region.y0));
        let hi = grid.cell_rect(mobieyes_geo::CellId::new(region.x1, region.y1));
        let area = lo.union(&hi);
        // Candidate stations: those whose lattice square intersects the
        // region area. Each station fully covers its own lattice square, so
        // taking every candidate guarantees full coverage; the greedy pass
        // below drops candidates whose squares add nothing.
        let lo_x = (((area.lx - self.universe.lx) / self.alen).floor() as i64)
            .clamp(0, self.cols as i64 - 1);
        let lo_y = (((area.ly - self.universe.ly) / self.alen).floor() as i64)
            .clamp(0, self.rows as i64 - 1);
        let hi_x = (((area.hx() - self.universe.lx) / self.alen).ceil() as i64 - 1)
            .clamp(lo_x, self.cols as i64 - 1);
        let hi_y = (((area.hy() - self.universe.ly) / self.alen).ceil() as i64 - 1)
            .clamp(lo_y, self.rows as i64 - 1);
        let mut out = Vec::new();
        for y in lo_y..=hi_y {
            for x in lo_x..=hi_x {
                out.push(StationId(y as u32 * self.cols + x as u32));
            }
        }
        debug_assert!(!out.is_empty(), "cover of non-empty region cannot be empty");
        out
    }
}

/// The inverse of [`BaseStationLayout::cells_under`] over one grid: for
/// every cell, the stations whose range holds it, ascending. Built once
/// per (static) layout and grid.
#[derive(Debug)]
pub struct StationsOver {
    grid: Grid,
    /// `stations[start[c]..start[c + 1]]` are flat cell `c`'s.
    start: Vec<u32>,
    stations: Vec<StationId>,
}

impl StationsOver {
    pub(crate) fn new(layout: &BaseStationLayout, grid: &Grid) -> Self {
        let under: Vec<GridRect> = (0..layout.num_stations() as u32)
            .map(|s| layout.cells_under(StationId(s), grid))
            .collect();
        // Counting sort of the (cell, station) pairs by cell.
        let mut start = vec![0u32; grid.num_cells() + 1];
        for cell in under.iter().flat_map(GridRect::iter) {
            start[grid.flat_index(cell) + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut fill = start.clone();
        let mut stations = vec![StationId(0); start[grid.num_cells()] as usize];
        for (s, cells) in under.iter().enumerate() {
            for cell in cells.iter() {
                let slot = &mut fill[grid.flat_index(cell)];
                stations[*slot as usize] = StationId(s as u32);
                *slot += 1;
            }
        }
        StationsOver {
            grid: grid.clone(),
            start,
            stations,
        }
    }

    /// The grid the map was built for.
    pub(crate) fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The stations whose [`cells_under`](BaseStationLayout::cells_under)
    /// holds `cell`, a cell of the grid, ascending.
    pub fn of(&self, cell: CellId) -> &[StationId] {
        let c = self.grid.flat_index(cell);
        &self.stations[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_geo::CellId;

    fn layout() -> BaseStationLayout {
        BaseStationLayout::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0)
    }

    #[test]
    fn lattice_dimensions() {
        let l = layout();
        assert_eq!(l.num_stations(), 100);
        assert!((l.coverage_radius() - 10.0 * 2f64.sqrt() / 2.0).abs() < 1e-12);
        // Non-divisible universe rounds the lattice up.
        let l2 = BaseStationLayout::new(Rect::new(0.0, 0.0, 95.0, 100.0), 10.0);
        assert_eq!(l2.num_stations(), 100);
    }

    #[test]
    fn station_centers() {
        let l = layout();
        assert_eq!(l.center(StationId(0)), Point::new(5.0, 5.0));
        assert_eq!(l.center(StationId(11)), Point::new(15.0, 15.0));
        assert_eq!(l.center(StationId(99)), Point::new(95.0, 95.0));
    }

    #[test]
    fn every_point_in_universe_is_covered_by_its_station() {
        let l = layout();
        for &p in &[
            Point::new(0.0, 0.0),
            Point::new(99.9, 99.9),
            Point::new(50.0, 50.0),
            Point::new(10.0, 10.0), // lattice corner: worst case
        ] {
            let s = l.station_at(p);
            assert!(l.covers(s, p), "station at {p:?} does not cover it");
        }
    }

    #[test]
    fn station_at_clamps_outside_points() {
        let l = layout();
        assert_eq!(l.station_at(Point::new(-5.0, -5.0)), StationId(0));
        assert_eq!(l.station_at(Point::new(500.0, 500.0)), StationId(99));
    }

    #[test]
    fn bmap_includes_all_overlapping_stations() {
        let l = layout();
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 5.0);
        // Cell (0,0) = [0,5]^2: covered at least by station 0 (center (5,5),
        // radius ~7.07).
        let stations = l.bmap(&grid, CellId::new(0, 0));
        assert!(stations.contains(&StationId(0)));
        // Every returned station genuinely intersects the cell.
        let rect = grid.cell_rect(CellId::new(0, 0));
        for s in &stations {
            assert!(l.coverage(*s).intersects_rect(&rect));
        }
    }

    #[test]
    fn minimal_cover_fully_covers_region() {
        let l = layout();
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 5.0);
        let region = GridRect {
            x0: 2,
            y0: 2,
            x1: 7,
            y1: 5,
        }; // [10,40]x[10,30]
        let cover = l.minimal_cover(&grid, &region);
        assert!(!cover.is_empty());
        // Sample many points of the region; each must be inside some chosen
        // station's circle.
        for cell in region.iter() {
            let r = grid.cell_rect(cell);
            for &p in &[r.low(), r.high(), r.center()] {
                assert!(
                    cover.iter().any(|&s| l.covers(s, p)),
                    "point {p:?} of region not covered"
                );
            }
        }
    }

    #[test]
    fn minimal_cover_of_empty_region_is_empty() {
        let l = layout();
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 5.0);
        assert!(l.minimal_cover(&grid, &GridRect::EMPTY).is_empty());
    }

    #[test]
    fn minimal_cover_shrinks_with_larger_stations() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 5.0);
        let region = GridRect {
            x0: 0,
            y0: 0,
            x1: 5,
            y1: 5,
        };
        let small = BaseStationLayout::new(Rect::new(0.0, 0.0, 100.0, 100.0), 5.0);
        let large = BaseStationLayout::new(Rect::new(0.0, 0.0, 100.0, 100.0), 40.0);
        assert!(
            small.minimal_cover(&grid, &region).len() > large.minimal_cover(&grid, &region).len()
        );
        // Huge stations need exactly one broadcast.
        let huge = BaseStationLayout::new(Rect::new(0.0, 0.0, 100.0, 100.0), 200.0);
        assert_eq!(huge.minimal_cover(&grid, &region).len(), 1);
    }

    #[test]
    fn single_station_layout() {
        let l = BaseStationLayout::new(Rect::new(0.0, 0.0, 100.0, 100.0), 150.0);
        assert_eq!(l.num_stations(), 1);
        assert!(l.covers(StationId(0), Point::new(0.0, 0.0)));
        assert!(l.covers(StationId(0), Point::new(100.0, 100.0)));
    }
}
