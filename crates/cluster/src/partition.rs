//! Bounds planners over the partition table and the stateless uplink
//! router of the sharded server tier.

use mobieyes_core::{PartitionTable, Uplink};
use mobieyes_geo::{CellId, Grid};
use std::collections::BTreeMap;

/// Computes load-balanced contiguous bounds from per-cell load counts:
/// cut the prefix-sum of `cell_loads` at the `p/n` quantiles, so each
/// block carries a near-equal share of the observed load. Every partition
/// keeps at least one cell (empty blocks would break the `N + 1`-bounds
/// shape), so heavily skewed loads converge over a few rounds rather
/// than in one.
pub fn plan_bounds(cell_loads: &[u64], n: usize) -> Vec<usize> {
    let cells = cell_loads.len();
    assert!(n >= 1 && cells >= n, "more partitions than cells");
    let mut prefix = Vec::with_capacity(cells);
    let mut total: u64 = 0;
    for &l in cell_loads {
        total += l;
        prefix.push(total);
    }
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(0usize);
    for p in 1..n {
        let target = (total as u128 * p as u128 / n as u128) as u64;
        let cut = prefix.partition_point(|&v| v <= target);
        // Keep every block non-empty: at least one cell after the previous
        // cut, and enough cells left for the remaining partitions.
        let prev = *bounds.last().unwrap();
        bounds.push(cut.clamp(prev + 1, cells - (n - p)));
    }
    bounds.push(cells);
    bounds
}

/// The failover plan: every dead partition's width drops to zero and each
/// maximal dead run is split at its midpoint between the nearest live
/// neighbours (a run at either end goes whole to its one neighbour), so
/// every block stays contiguous and survivors only grow.
pub(crate) fn failover_bounds(old: &[usize], alive: &[bool]) -> Vec<usize> {
    let n = alive.len();
    assert!(alive.contains(&true), "no survivor can adopt the cells");
    let mut w: Vec<usize> = old.windows(2).map(|b| b[1] - b[0]).collect();
    let mut i = 0;
    while i < n {
        if alive[i] {
            i += 1;
            continue;
        }
        let start = i;
        let mut run = 0usize;
        while i < n && !alive[i] {
            run += std::mem::take(&mut w[i]);
            i += 1;
        }
        let left = (0..start).rev().find(|&j| alive[j]);
        let right = (i..n).find(|&j| alive[j]);
        match (left, right) {
            (Some(l), Some(r)) => {
                w[l] += run / 2;
                w[r] += run - run / 2;
            }
            (Some(j), None) | (None, Some(j)) => w[j] += run,
            (None, None) => unreachable!("a live partition exists"),
        }
    }
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(old[0]);
    for width in w {
        bounds.push(bounds.last().unwrap() + width);
    }
    bounds
}

/// The re-adoption plan: partition `p` gets `span` back by clamping the
/// current cuts — those at or below `p` come down to the span start,
/// those above go up to its end. The exact inverse of
/// [`failover_bounds`] when no rebalance intervened.
pub(crate) fn readopt_bounds(cur: &[usize], p: u32, span: (usize, usize)) -> Vec<usize> {
    let (p, n) = (p as usize, cur.len() - 1);
    let mut bounds = cur.to_vec();
    for b in &mut bounds[1..=p] {
        *b = (*b).min(span.0);
    }
    for b in &mut bounds[p + 1..n] {
        *b = (*b).max(span.1);
    }
    bounds
}

/// The cells a fence has to move: every flat index whose owner differs
/// between two bounds vectors, ascending, keyed by `(from, to)`.
pub(crate) fn moved_cells(old: &[usize], new: &[usize]) -> BTreeMap<(u32, u32), Vec<usize>> {
    let owner = |bounds: &[usize], flat| (bounds.partition_point(|&b| b <= flat) - 1) as u32;
    let mut moves: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for flat in old[0]..*old.last().unwrap() {
        let (from, to) = (owner(old, flat), owner(new, flat));
        if from != to {
            moves.entry((from, to)).or_default().push(flat);
        }
    }
    moves
}

/// Stateless uplink router: picks the *primary* partition for a message —
/// the partition owning the cell the sender reports from. Messages that
/// carry no position (result reports, LQT syncs) have no primary and are
/// resolved by the coordinator against the query/focal home tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct Router;

impl Router {
    /// The grid cell a message reports from, when it names one. Carried
    /// cells (cell changes, resyncs) are clamped to the grid — a sender
    /// that dead-reckoned past the universe boundary must not produce an
    /// out-of-range flat index downstream.
    pub fn primary_cell(grid: &Grid, msg: &Uplink) -> Option<CellId> {
        Some(match msg {
            Uplink::VelocityReport { motion, .. } => grid.cell_of(motion.pos),
            Uplink::CellChange { new_cell, .. } => grid.clamp_cell(*new_cell),
            Uplink::PositionReply { motion, .. } => grid.cell_of(motion.pos),
            Uplink::Resync { cell, .. } => grid.clamp_cell(*cell),
            Uplink::ResultUpdate { .. }
            | Uplink::GroupResultUpdate { .. }
            | Uplink::LqtSync { .. } => return None,
        })
    }

    /// The partition owning the sender's cell, when the message names one.
    pub fn primary(table: &PartitionTable, grid: &Grid, msg: &Uplink) -> Option<u32> {
        Self::primary_cell(grid, msg).map(|cell| table.owner_of(grid.flat_index(cell)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_core::ObjectId;
    use mobieyes_geo::{LinearMotion, Point, Rect, Vec2};

    #[test]
    fn plan_bounds_splits_load_evenly() {
        // All load in the first 10 cells: the planner pushes the cut
        // towards them instead of the cell-count midpoint.
        let mut loads = vec![0u64; 100];
        for l in loads.iter_mut().take(10) {
            *l = 100;
        }
        let bounds = plan_bounds(&loads, 2);
        assert_eq!(bounds.len(), 3);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[2], 100);
        assert!(
            bounds[1] <= 10,
            "cut {} should land in the hot span",
            bounds[1]
        );
        // Uniform load reproduces the near-equal cell split.
        let uniform = vec![5u64; 100];
        assert_eq!(plan_bounds(&uniform, 4), vec![0, 25, 50, 75, 100]);
    }

    #[test]
    fn plan_bounds_keeps_every_block_nonempty() {
        // Degenerate load (everything in one cell) must still yield n
        // non-empty blocks.
        let mut loads = vec![0u64; 8];
        loads[7] = 1000;
        let bounds = plan_bounds(&loads, 4);
        assert_eq!(bounds.len(), 5);
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "empty block in {bounds:?}");
        }
        assert_eq!(bounds[4], 8);
        // Zero total load falls back to leading cuts but stays well-formed.
        let cold = vec![0u64; 6];
        let b = plan_bounds(&cold, 3);
        assert_eq!(b.len(), 4);
        for w in b.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    /// Owner of `flat` by linear scan — shares nothing with the planners.
    fn owner_by_scan(bounds: &[usize], flat: usize) -> u32 {
        (0..bounds.len() - 1)
            .find(|&p| (bounds[p]..bounds[p + 1]).contains(&flat))
            .expect("bounds tile the grid") as u32
    }

    /// Every single-victim and adjacent-double-victim crash over
    /// generated non-empty blocks at n = 2, 4, 8: `(bounds, victims)`.
    fn crash_cases() -> Vec<(Vec<usize>, Vec<u32>)> {
        let mut cases = Vec::new();
        let mut lcg = 0x2545_F491u64;
        for n in [2usize, 4, 8] {
            for _ in 0..4 {
                let mut bounds = vec![0usize];
                for _ in 0..n {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    bounds.push(bounds.last().unwrap() + 1 + (lcg >> 33) as usize % 9);
                }
                for p in 0..n as u32 {
                    cases.push((bounds.clone(), vec![p]));
                    if n > 2 && p + 1 < n as u32 {
                        cases.push((bounds.clone(), vec![p, p + 1]));
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn failover_keeps_blocks_contiguous_and_survivors_nonempty() {
        for (bounds, victims) in crash_cases() {
            let n = bounds.len() - 1;
            let alive: Vec<bool> = (0..n as u32).map(|p| !victims.contains(&p)).collect();
            let fenced = failover_bounds(&bounds, &alive);
            assert_eq!(fenced.len(), n + 1);
            assert_eq!((fenced[0], fenced[n]), (bounds[0], bounds[n]));
            for p in 0..n {
                let width = fenced[p + 1]
                    .checked_sub(fenced[p])
                    .unwrap_or_else(|| panic!("cuts cross in {fenced:?}"));
                if alive[p] {
                    assert!(width >= bounds[p + 1] - bounds[p], "survivor {p} shrank");
                } else {
                    assert_eq!(width, 0, "dead {p} still owns cells in {fenced:?}");
                }
            }
        }
    }

    #[test]
    fn readopt_inverts_failover_in_either_order() {
        for (bounds, victims) in crash_cases() {
            let n = bounds.len() - 1;
            let alive: Vec<bool> = (0..n as u32).map(|p| !victims.contains(&p)).collect();
            let fenced = failover_bounds(&bounds, &alive);
            let span = |p: u32| (bounds[p as usize], bounds[p as usize + 1]);
            for order in [victims.clone(), victims.iter().rev().copied().collect()] {
                let mut cur = fenced.clone();
                for p in order {
                    cur = readopt_bounds(&cur, p, span(p));
                    assert!(
                        cur.windows(2).all(|w| w[0] <= w[1]),
                        "cuts cross in {cur:?}"
                    );
                    // At least its span: it also covers for a neighbour
                    // that is still dead.
                    let (start, end) = (cur[p as usize], cur[p as usize + 1]);
                    assert!(start <= span(p).0 && span(p).1 <= end, "{cur:?}");
                }
                assert_eq!(cur, bounds, "victims {victims:?}");
            }
        }
    }

    #[test]
    fn moved_cells_tiles_exactly_the_reassigned_flats() {
        for (bounds, victims) in crash_cases() {
            let n = bounds.len() - 1;
            let alive: Vec<bool> = (0..n as u32).map(|p| !victims.contains(&p)).collect();
            let fenced = failover_bounds(&bounds, &alive);
            for (old, new) in [(&bounds, &fenced), (&fenced, &bounds)] {
                let moves = moved_cells(old, new);
                let mut expected: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
                for flat in 0..bounds[n] {
                    let (from, to) = (owner_by_scan(old, flat), owner_by_scan(new, flat));
                    if from != to {
                        expected.entry((from, to)).or_default().push(flat);
                    }
                }
                assert_eq!(moves, expected, "{old:?} -> {new:?}");
            }
        }
        assert!(moved_cells(&[0, 5, 9], &[0, 5, 9]).is_empty());
    }

    #[test]
    fn router_clamps_boundary_crossing_trajectory() {
        // 10×10 grid; an object dead-reckons past the east edge and
        // reports a cell change into the out-of-grid column 10. The
        // router must clamp instead of producing flat index >= 100.
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
        let table = PartitionTable::contiguous(grid.num_cells(), 4);
        let motion = LinearMotion::new(Point::new(99.5, 42.0), Vec2::new(0.2, 0.0), 0.0);
        let msg = Uplink::CellChange {
            oid: ObjectId(7),
            prev_cell: CellId::new(9, 4),
            new_cell: CellId::new(10, 4), // one past the boundary
            motion,
        };
        let cell = Router::primary_cell(&grid, &msg).unwrap();
        assert_eq!(cell, CellId::new(9, 4));
        let p = Router::primary(&table, &grid, &msg).unwrap();
        assert!((p as usize) < table.num_partitions());

        // Same for a resync naming an out-of-grid cell on both axes.
        let resync = Uplink::Resync {
            oid: ObjectId(7),
            cell: CellId::new(12, 11),
            motion,
            max_vel: 0.3,
            fresh: false,
        };
        assert_eq!(
            Router::primary_cell(&grid, &resync).unwrap(),
            CellId::new(9, 9)
        );

        // Position-carrying messages already clamp through `cell_of`.
        let vr = Uplink::VelocityReport {
            oid: ObjectId(7),
            motion: LinearMotion::new(Point::new(130.0, -4.0), Vec2::new(0.0, 0.0), 1.0),
        };
        assert_eq!(Router::primary_cell(&grid, &vr).unwrap(), CellId::new(9, 0));
    }
}
