//! Randomized (seeded, deterministic) tests for the network substrate:
//! coverage guarantees that the protocol's delivery correctness depends on.

use mobieyes_geo::{Grid, GridRect, Point, Rect};
use mobieyes_net::{BaseStationLayout, StationId};

/// Tiny deterministic generator (splitmix64) so these sweeps are
/// reproducible without an external property-testing dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % n as u64) as u32
    }
}

#[test]
fn own_station_always_covers_the_object() {
    let mut rng = Rng(0xA11CE);
    for _ in 0..128 {
        let (x, y) = (rng.range(0.0, 100.0), rng.range(0.0, 100.0));
        let alen = rng.range(2.0, 60.0);
        let layout = BaseStationLayout::new(Rect::new(0.0, 0.0, 100.0, 100.0), alen);
        let s = layout.station_at(Point::new(x, y));
        assert!(
            layout.covers(s, Point::new(x, y)),
            "station misses ({x},{y}) at alen={alen}"
        );
    }
}

#[test]
fn minimal_cover_fully_covers_monitoring_regions() {
    let mut rng = Rng(0xB0B);
    for _ in 0..128 {
        // Any point inside any cell of the region must be covered by at
        // least one chosen station — otherwise an object there would miss
        // the broadcast and the protocol would silently lose accuracy.
        let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
        let grid = Grid::new(universe, 5.0);
        let alen = rng.range(4.0, 50.0);
        let layout = BaseStationLayout::new(universe, alen);
        let cell = mobieyes_geo::CellId::new(
            rng.below(20).min(grid.cols - 1),
            rng.below(20).min(grid.rows - 1),
        );
        let region = grid.monitoring_region(cell, rng.range(0.1, 12.0));
        let cover = layout.minimal_cover(&grid, &region);
        assert!(!cover.is_empty());
        let (px, py) = (rng.unit(), rng.unit());
        for c in region.iter() {
            let r = grid.cell_rect(c);
            // Clip to the universe: objects only exist inside it.
            let Some(r) = r.intersection(&universe) else {
                continue;
            };
            let p = Point::new(r.lx + px * r.w(), r.ly + py * r.h());
            assert!(
                cover.iter().any(|&s| layout.covers(s, p)),
                "point {p:?} of region {region:?} uncovered (alen={alen})"
            );
        }
    }
}

#[test]
fn bigger_stations_never_need_more_broadcasts() {
    let mut rng = Rng(0xC0FFEE);
    for _ in 0..128 {
        let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
        let grid = Grid::new(universe, 5.0);
        let cell = mobieyes_geo::CellId::new(rng.below(18), rng.below(18));
        let region = grid.monitoring_region(cell, rng.range(0.1, 12.0));
        let mut last = usize::MAX;
        for alen in [5.0, 10.0, 20.0, 40.0, 80.0] {
            let layout = BaseStationLayout::new(universe, alen);
            let n = layout.minimal_cover(&grid, &region).len();
            assert!(n <= last, "cover grew from {last} to {n} at alen={alen}");
            last = n;
        }
        // A single universe-sized station always suffices.
        assert!(last >= 1);
    }
}

#[test]
fn empty_region_needs_no_stations() {
    let mut rng = Rng(0xDEAD);
    for _ in 0..32 {
        let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
        let grid = Grid::new(universe, 5.0);
        let layout = BaseStationLayout::new(universe, rng.range(2.0, 60.0));
        assert!(layout.minimal_cover(&grid, &GridRect::EMPTY).is_empty());
    }
}

/// `covers(s, p)` implies `cells_under(s, grid)` holds `grid.cell_of(p)`,
/// checked on `p` in the universe, off it, and on each circle itself.
fn assert_cells_under_holds(layout: &BaseStationLayout, grid: &Grid, s: StationId, p: Point) {
    if layout.covers(s, p) {
        let under = layout.cells_under(s, grid);
        assert!(
            under.contains(grid.cell_of(p)),
            "{s:?} covers {p:?} in cell {:?} outside {under:?} (alen {}, alpha {})",
            grid.cell_of(p),
            layout.alen(),
            grid.alpha,
        );
    }
}

/// The last float `s` covers stepping from `edge` along its center's row
/// with `step` (one ulp at a time), if `s` covers any past it: a point of
/// the circle beyond the rounded `c.x ± r` an unslackened box stops at.
fn covered_past(
    layout: &BaseStationLayout,
    s: StationId,
    edge: f64,
    step: fn(f64) -> f64,
) -> Option<f64> {
    let y = layout.center(s).y;
    let mut past = None;
    while layout.covers(s, Point::new(step(past.unwrap_or(edge)), y)) {
        past = Some(step(past.unwrap_or(edge)));
    }
    past
}

/// A grid from `origin` whose column `m` starts in `(below, at]`: a grid
/// line between two adjacent floats. `None` when rounding puts both on
/// one side.
fn grid_between(origin: Point, below: f64, at: f64, m: u32) -> Option<Grid> {
    let column = |x: f64, alpha: f64| ((x - origin.x) / alpha).floor();
    let mut alpha = (at - origin.x) / m as f64;
    while column(at, alpha) < m as f64 {
        alpha = alpha.next_down();
    }
    let universe = Rect::new(origin.x, origin.y, 2.0 * (at - origin.x), 2000.0);
    (column(below, alpha) < m as f64).then(|| Grid::new(universe, alpha))
}

#[test]
fn cells_under_holds_every_covered_position() {
    let mut rng = Rng(0x5EED_CE11);
    let mut tight_cases = 0;
    for _ in 0..128 {
        // Universes off the origin, sized off the multiples of α and alen.
        let (lx, ly) = (rng.range(-500.0, 500.0), rng.range(-500.0, 500.0));
        let (w, h) = (rng.range(5.0, 80.0), rng.range(5.0, 80.0));
        let universe = Rect::new(lx, ly, w, h);
        let grid = Grid::new(universe, rng.range(2.0, 25.0));
        let layout = BaseStationLayout::new(universe, rng.range(3.0, 60.0));
        for s in (0..layout.num_stations() as u32).map(StationId) {
            let circle = layout.coverage(s);
            let (c, r) = (circle.center, circle.r);
            // Inside, on and just outside the circle, in any direction;
            // far enough out near the boundary stations to leave the
            // universe.
            for _ in 0..12 {
                let theta = rng.range(0.0, std::f64::consts::TAU);
                let (dx, dy) = (theta.cos(), theta.sin());
                for f in [rng.unit(), 1.0, 1.0 + 1e-12, rng.range(1.0, 3.0)] {
                    assert_cells_under_holds(
                        &layout,
                        &grid,
                        s,
                        Point::new(c.x + f * r * dx, c.y + f * r * dy),
                    );
                }
            }
            // The four axis extremes, one ulp either side.
            for (dx, dy) in [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)] {
                let p = Point::new(c.x + dx, c.y + dy);
                for (x, y) in [
                    (p.x, p.y),
                    (p.x.next_up(), p.y.next_up()),
                    (p.x.next_down(), p.y.next_down()),
                ] {
                    assert_cells_under_holds(&layout, &grid, s, Point::new(x, y));
                }
            }
            // The grid corners around the circle, and the circle's point
            // toward each: where a circle touches a cell corner.
            let under = layout.cells_under(s, &grid);
            for gy in under.y0.saturating_sub(1)..=under.y1 + 2 {
                for gx in under.x0.saturating_sub(1)..=under.x1 + 2 {
                    let q = Point::new(lx + gx as f64 * grid.alpha, ly + gy as f64 * grid.alpha);
                    let d = c.distance(q);
                    assert_cells_under_holds(&layout, &grid, s, q);
                    if d > 0.0 {
                        let t = Point::new(c.x + (q.x - c.x) * r / d, c.y + (q.y - c.y) * r / d);
                        assert_cells_under_holds(&layout, &grid, s, t);
                    }
                }
            }
        }
        // Grids with a column line between the rounded `c.x ± r` and a
        // covered point one ulp past it: the case the box's slack is for.
        let origin = Point::new(lx - 100.0, ly - 1000.0);
        for s in (0..layout.num_stations() as u32).map(StationId) {
            let (c, r) = (layout.center(s), layout.coverage_radius());
            let (right, left) = (c.x + r, c.x - r);
            let right_past = covered_past(&layout, s, right, f64::next_up);
            let left_past = covered_past(&layout, s, left, f64::next_down);
            for m in 1..=8 {
                let cases = [
                    right_past.and_then(|x| Some((x, grid_between(origin, right, x, m)?))),
                    left_past.and_then(|x| Some((x, grid_between(origin, x, left, m)?))),
                ];
                for (x, tight) in cases.into_iter().flatten() {
                    tight_cases += 1;
                    assert_cells_under_holds(&layout, &tight, s, Point::new(x, c.y));
                }
            }
        }
    }
    assert!(tight_cases >= 10, "only {tight_cases} tight cases");
}
