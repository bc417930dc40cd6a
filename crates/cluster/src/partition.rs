//! Partition map and stateless uplink router for the sharded server tier.

use mobieyes_core::{PartitionScope, PartitionTable, ProtocolConfig, Server, Uplink};
use mobieyes_geo::{CellId, Grid};
use mobieyes_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Assignment of contiguous grid-cell blocks (flat row-major indices) to
/// partition ids, backed by a shared, versioned [`PartitionTable`].
///
/// The table has `N + 1` bounds entries; partition `p` owns flat indices
/// `[bounds[p], bounds[p+1])`. Contiguity keeps ownership tests a single
/// comparison and makes the concatenation of per-partition digests (in
/// partition order) equal the single server's ascending-index scan — for
/// *any* bounds vector, which is what lets a coordinator re-split the
/// blocks by observed load without perturbing the protocol (see
/// DESIGN.md §10).
#[derive(Debug, Clone)]
pub struct PartitionMap {
    table: Arc<PartitionTable>,
}

impl PartitionMap {
    /// Splits the grid's cells into `n` near-equal contiguous blocks (the
    /// first `num_cells % n` partitions get one extra cell). This is
    /// generation 0; rebalance installs produce later generations.
    pub fn contiguous(grid: &Grid, n: usize) -> Self {
        assert!(n >= 1, "at least one partition");
        let cells = grid.num_cells();
        assert!(cells >= n, "more partitions than grid cells");
        let base = cells / n;
        let rem = cells % n;
        let mut bounds = Vec::with_capacity(n + 1);
        let mut at = 0usize;
        bounds.push(at);
        for p in 0..n {
            at += base + usize::from(p < rem);
            bounds.push(at);
        }
        debug_assert_eq!(*bounds.last().unwrap(), cells);
        PartitionMap {
            table: Arc::new(PartitionTable::new(bounds)),
        }
    }

    pub fn num_partitions(&self) -> usize {
        self.table.num_partitions()
    }

    /// The shared partition table (for [`mobieyes_core::PartitionScope`]).
    pub fn table(&self) -> &Arc<PartitionTable> {
        &self.table
    }

    /// An empty server for partition slot `p` of this map, on the shared
    /// `epoch`, counting into `sink`.
    pub fn server(
        &self,
        config: &Arc<ProtocolConfig>,
        p: u32,
        epoch: &Arc<AtomicU64>,
        sink: Telemetry,
    ) -> Server {
        let scope = PartitionScope::new(p, Arc::clone(&self.table), Arc::clone(epoch));
        Server::new(Arc::clone(config))
            .with_telemetry(sink)
            .with_scope(scope)
    }

    /// The current map generation (0 until the first rebalance install).
    pub fn generation(&self) -> u64 {
        self.table.generation()
    }

    /// A plain copy of the current bounds vector (`N + 1` entries).
    pub fn bounds_snapshot(&self) -> Vec<usize> {
        self.table.bounds_snapshot()
    }

    /// Installs a new bounds vector, bumping the map generation; every
    /// [`mobieyes_core::PartitionScope`] sharing the table sees the new
    /// ownership immediately. Returns the new generation.
    pub fn install(&self, bounds: &[usize]) -> u64 {
        self.table.install(bounds)
    }

    pub fn owner_of_flat(&self, flat: usize) -> u32 {
        self.table.owner_of(flat)
    }

    pub fn owner_of_cell(&self, grid: &Grid, cell: CellId) -> u32 {
        self.owner_of_flat(grid.flat_index(cell))
    }

    /// Number of cells a partition owns.
    pub fn partition_cells(&self, p: u32) -> usize {
        self.table.owned_range(p).len()
    }
}

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
    pub fn primary(map: &PartitionMap, grid: &Grid, msg: &Uplink) -> Option<u32> {
        Self::primary_cell(grid, msg).map(|cell| map.owner_of_cell(grid, cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_core::ObjectId;
    use mobieyes_geo::{LinearMotion, Point, Rect, Vec2};

    #[test]
    fn contiguous_blocks_tile_the_grid() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
        for n in [1usize, 2, 3, 4, 7] {
            let map = PartitionMap::contiguous(&grid, n);
            assert_eq!(map.num_partitions(), n);
            let mut total = 0usize;
            for p in 0..n {
                total += map.partition_cells(p as u32);
            }
            assert_eq!(total, grid.num_cells());
            for flat in 0..grid.num_cells() {
                let p = map.owner_of_flat(flat);
                assert!((p as usize) < n);
                let lo = map.bounds_snapshot()[p as usize];
                let hi = map.bounds_snapshot()[p as usize + 1];
                assert!((lo..hi).contains(&flat));
            }
        }
    }

    #[test]
    fn remainder_cells_go_to_leading_partitions() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0); // 100 cells
        let map = PartitionMap::contiguous(&grid, 3);
        assert_eq!(map.partition_cells(0), 34);
        assert_eq!(map.partition_cells(1), 33);
        assert_eq!(map.partition_cells(2), 33);
    }

    #[test]
    fn install_shifts_ownership_and_bumps_generation() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
        let map = PartitionMap::contiguous(&grid, 2);
        assert_eq!(map.generation(), 0);
        assert_eq!(map.owner_of_flat(49), 0);
        let gen = map.install(&[0, 30, 100]);
        assert_eq!(gen, 1);
        assert_eq!(map.generation(), 1);
        assert_eq!(map.owner_of_flat(49), 1);
        assert_eq!(map.partition_cells(0), 30);
        assert_eq!(map.partition_cells(1), 70);
    }

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
        let map = PartitionMap::contiguous(&grid, 4);
        let motion = LinearMotion::new(Point::new(99.5, 42.0), Vec2::new(0.2, 0.0), 0.0);
        let msg = Uplink::CellChange {
            oid: ObjectId(7),
            prev_cell: CellId::new(9, 4),
            new_cell: CellId::new(10, 4), // one past the boundary
            motion,
        };
        let cell = Router::primary_cell(&grid, &msg).unwrap();
        assert_eq!(cell, CellId::new(9, 4));
        let p = Router::primary(&map, &grid, &msg).unwrap();
        assert!((p as usize) < map.num_partitions());

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
