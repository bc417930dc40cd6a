//! Struct-of-arrays scheduling mirror for the million-object tick path.
//!
//! At paper scale (10k objects) walking every agent's heap state each tick
//! is fine; at 100k–1M it dominates the run. The observation behind the
//! fast engine: in a MobiEyes steady state almost every agent is *cold* —
//! it stayed in its grid cell, is not focal, received no downlink, and has
//! an empty LQT (or one entirely inside its safe period). For such agents
//! the seed tick is provably a no-op apart from a constant telemetry
//! footprint, so the scheduler only needs a few bytes per agent to decide
//! to skip it: its flat cell id, three boolean flags, its LQT length and
//! its earliest safe-period deadline. [`AgentSoa`] mirrors exactly that
//! into parallel vectors (positions and velocities already live in
//! [`crate::mobility::Mobility`]'s own parallel vectors), sharded with the
//! same contiguous chunks as the agents themselves, so the hot loops scan
//! dense arrays and touch `MovingObjectAgent` heap state only for agents
//! that actually do protocol work that tick.
//!
//! The mirror is built once, from the freshly constructed agents, and
//! kept row by row from then on: every agent that runs a real tick phase
//! (or the reconnect handshake) is re-mirrored right after, and nothing
//! else can change an agent. There is no invalidation — the engine takes
//! every step, quiet or not. Skipped agents have stale `pos`/`vel` inside
//! the agent struct; the one ordering rule that keeps this sound is that
//! any agent about to run `tick_process` is first re-synced
//! (`sync_kinematics`: for an agent the motion phase skipped — cell
//! unchanged, not focal — `tick_motion` would be a silent
//! position/velocity store) — `synced_at` carries the tick stamp that
//! enforces it.
//!
//! The processing phase is *push-built* ([`Deliveries`]): instead of
//! every agent probing the stations around it for pending broadcasts, the
//! few stations that transmit this tick look up the agents inside their
//! coverage through a per-tick cell→agents index, and the phase then
//! visits only agents that received something or hold query state. Work
//! follows activity, not population.
//!
//! Non-quiet steps change two things, neither of them the loops above.
//! *Churn*: an agent the churn plan took offline carries [`FLAG_OFFLINE`]
//! in the `flags` byte the scans already load. The motion scan keeps its
//! cell exact (so the cell→agents index stays one counting sort over
//! everyone) but does not run it, its deliveries are struck from the run
//! list, and the processing pass steps over it — no `tick_process`, no
//! LQT-size sample, exactly what the seed engine's `continue` does. A
//! rejoin runs the reconnect handshake in the motion shard and re-mirrors
//! the row, which clears the bit. *Downlink faults*: an armed plan is a
//! stateful RNG consumed once per delivery in `(node, inbox index)` order,
//! so it cannot be drawn from inside the shards. The coordinator runs the
//! sorted run list through `NetworkSim::filter_deliveries` before the
//! shards start — a drop removes the pair, a duplicate doubles it, offline
//! nodes' pairs go without a draw — and the shards then walk the filtered
//! list unchanged, at any thread count.
//!
//! Equivalence contract (pinned by `tests/engine_equivalence.rs`, quiet
//! and chaos rows alike): per tick, per shard, the fast path reproduces
//! the seed path's exact message sequences and metric totals — cold
//! agents restore their `agent.lqt_size` zero-sample as one batched tally
//! entry, and safe-period-skipped agents restore their
//! `agent.skipped_safe_period` increment and LQT-size sample without
//! touching the B-tree. The only deliberately unrestored signal is
//! `agent.eval_nanos`, a wall-clock timer excluded from protocol
//! equality. The seed phases share none of this code and run only under
//! `EngineKind::Seed`: the test oracle and the benchmark's reference twin.

use mobieyes_core::{Downlink, MovingObjectAgent};
use mobieyes_geo::{Grid, GridRect, Point};
use mobieyes_net::{BaseStationLayout, StationId};

/// Flag bit: the agent is focal for at least one monitoring query. Focal
/// agents can emit dead-reckoning reports without crossing a cell, so the
/// motion phase can never skip them.
pub const FLAG_FOCAL: u8 = 1;
/// Flag bit: the agent's LQT is non-empty (it has queries to evaluate).
pub const FLAG_LQT: u8 = 1 << 1;
/// Flag bit: departures are buffered for the next evaluation; these force
/// a full `tick_process` even inside every entry's safe period.
pub const FLAG_PENDING: u8 = 1 << 2;
/// Flag bit: the filter-shadow table is non-empty. A shadowed query makes
/// otherwise-inert broadcasts observable (sequence refreshes, shadow
/// teardown), so the inert-delivery skip requires this bit clear.
pub const FLAG_SHADOW: u8 = 1 << 3;
/// Flag bit: the churn plan has the agent offline — radio off, no tick
/// phase runs. Set by the coordinator when the agent disconnects; cleared
/// when the rejoin handshake re-mirrors the row ([`classify`] never sets
/// it).
pub const FLAG_OFFLINE: u8 = 1 << 4;

/// `synced_at` sentinel: agent `pos`/`vel` never synced under this mirror.
pub const NEVER: u32 = u32::MAX;

/// A shard's mutable window over the parallel vectors; one per worker,
/// produced by [`shard_views`] with the same chunk size as the agent
/// slices so `view[off]` and `agents[off]` are the same object.
pub struct SoaShard<'a> {
    pub cells: &'a mut [u32],
    pub flags: &'a mut [u8],
    pub lqt_len: &'a mut [u32],
    pub safe_until: &'a mut [f64],
    pub synced_at: &'a mut [u32],
}

impl SoaShard<'_> {
    /// Re-mirrors one agent's scheduling state after it ran a real tick
    /// phase (anything may have changed: downlinks install queries, cell
    /// crossings drop them, `FocalNotify` flips focal-ness).
    #[inline]
    pub fn refresh(&mut self, off: usize, agent: &MovingObjectAgent) {
        let (flags, lqt_len, safe_until) = classify(agent);
        self.flags[off] = flags;
        self.lqt_len[off] = lqt_len;
        self.safe_until[off] = safe_until;
    }
}

/// Computes one agent's `(flags, lqt_len, safe_until)` mirror row.
#[inline]
pub fn classify(agent: &MovingObjectAgent) -> (u8, u32, f64) {
    let len = agent.lqt_len();
    let mut flags = 0u8;
    if agent.has_mq() {
        flags |= FLAG_FOCAL;
    }
    if len > 0 {
        flags |= FLAG_LQT;
    }
    if agent.has_pending_departures() {
        flags |= FLAG_PENDING;
    }
    if !agent.shadow_is_empty() {
        flags |= FLAG_SHADOW;
    }
    (flags, len as u32, agent.min_safe_deadline())
}

/// Per-tick classification of one broadcast for the inert-delivery skip:
/// whether an agent with an empty LQT, no pending departures and an empty
/// shadow table can drop the message unprocessed (bytes still metered —
/// reception is physical, processing is not).
#[derive(Clone, Copy)]
pub enum BcastClass {
    /// `VelocityChange`: only refreshes installed or shadowed queries, so
    /// it is a no-op for every agent the skip flags admit.
    Inert,
    /// `QueryState`: a no-op exactly when the receiver's cell lies
    /// *outside* this monitoring region (the outside branch only removes
    /// state the agent does not have); inside, it installs or shadows.
    Outside(GridRect),
    /// Everything else (removals write tombstones, heartbeats trigger
    /// uplinks, ...): never skippable.
    Hot,
}

impl BcastClass {
    pub fn of(msg: &Downlink) -> BcastClass {
        match msg {
            Downlink::VelocityChange { .. } => BcastClass::Inert,
            Downlink::QueryState { info } => BcastClass::Outside(info.mon_region),
            _ => BcastClass::Hot,
        }
    }
}

/// One tick's downlink deliveries as sorted `(node, inbox index)` runs,
/// built by *pushing* from the senders rather than letting every agent
/// pull.
///
/// Inbox index `k < unicasts` selects unicast `k` of the tick's queue,
/// anything above selects broadcast `k - unicasts`. Sorting the pairs
/// therefore yields, per node, exactly the inbox `NetworkSim::deliver`
/// assembles: its unicasts in queue order, then the broadcasts that
/// physically cover it in queue order. The order is a property of the
/// sorted set alone, so it cannot depend on the order stations or cells
/// were walked in, nor on the thread count (shards take contiguous
/// slices of the one global run list).
///
/// Broadcast runs come from a cell→agents index over the mirror's flat
/// cell ids, counting-sorted afresh every tick (offsets + ids, ascending
/// id inside a cell): one linear pass over a dense `u32` vector costs
/// less than keeping per-cell lists coherent across the ~13 % of agents
/// that change cell each tick. All buffers persist; steady-state ticks
/// allocate nothing.
#[derive(Default)]
pub struct Deliveries {
    /// Sorted `(node, inbox index)`.
    pairs: Vec<(u32, u32)>,
    /// The list [`rewrite`](Self::rewrite) fills; swapped with `pairs`.
    spare: Vec<(u32, u32)>,
    /// Sorted `(station, broadcast queue index)`: each station's run of
    /// this tick's transmissions, in queue order.
    station_runs: Vec<(u32, u32)>,
    /// Cell `c`'s agents are `cell_agents[cell_start[c]..cell_start[c + 1]]`
    /// (length `cells + 2`: the spare slot lets one array serve as both
    /// the counting sort's cursors and the final offsets).
    cell_start: Vec<u32>,
    cell_agents: Vec<u32>,
}

impl Deliveries {
    /// Every delivery of the tick, sorted by `(node, inbox index)`.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// The contiguous slice of [`pairs`](Self::pairs) addressed to nodes
    /// `[base, base + len)` — one shard's share.
    pub fn shard(&self, base: usize, len: usize) -> &[(u32, u32)] {
        let lo = self.pairs.partition_point(|&(n, _)| (n as usize) < base);
        let hi = self
            .pairs
            .partition_point(|&(n, _)| (n as usize) < base + len);
        &self.pairs[lo..hi]
    }

    /// Replaces the run list with `filter`'s rewrite of it (what the
    /// downlink fault plan and offline radios let through). `filter`
    /// must emit in ascending order.
    pub fn rewrite(&mut self, filter: impl FnOnce(&[(u32, u32)], &mut Vec<(u32, u32)>)) {
        self.spare.clear();
        filter(&self.pairs, &mut self.spare);
        debug_assert!(self.spare.is_sorted());
        std::mem::swap(&mut self.pairs, &mut self.spare);
    }

    /// Rebuilds only the unicast runs (the seed engine's parallel path
    /// scans broadcasts per agent, which is what makes it the oracle).
    pub fn build_unicasts(&mut self, unicast_to: impl Iterator<Item = u32>) {
        self.start(unicast_to);
        self.pairs.sort_unstable();
    }

    /// Restarts the pair list with the tick's unicasts (unsorted) and
    /// returns how many there are.
    fn start(&mut self, unicast_to: impl Iterator<Item = u32>) -> u32 {
        self.pairs.clear();
        self.pairs
            .extend(unicast_to.enumerate().map(|(k, to)| (to, k as u32)));
        self.pairs.len() as u32
    }

    /// Rebuilds the tick's runs from the addressee of every queued
    /// unicast and the station of every queued broadcast (both in queue
    /// order). `cells[i]` must be agent `i`'s exact clamped flat cell
    /// (`grid.flat_cell_of(positions[i])`), which is what the mirror
    /// holds once the motion phase ran.
    ///
    /// A broadcasting station visits the grid cells under it
    /// ([`BaseStationLayout::cells_under`], which holds every covered
    /// agent's cell, off-universe agents included) and applies the exact
    /// physical test — the same `Circle::contains_point` as
    /// `BaseStationLayout::covers` — to the agents indexed there.
    pub fn build(
        &mut self,
        unicast_to: impl Iterator<Item = u32>,
        broadcast_from: impl Iterator<Item = u32>,
        cells: &[u32],
        positions: &[Point],
        layout: &BaseStationLayout,
        grid: &Grid,
    ) {
        let nu = self.start(unicast_to);
        self.station_runs.clear();
        self.station_runs
            .extend(broadcast_from.enumerate().map(|(k, s)| (s, k as u32)));
        if !self.station_runs.is_empty() {
            self.station_runs.sort_unstable();
            self.index_cells(cells, grid.num_cells());
            let cols = grid.cols as usize;
            for run in self.station_runs.chunk_by(|a, b| a.0 == b.0) {
                let station = StationId(run[0].0);
                let circle = layout.coverage(station);
                // The box is only a candidate filter.
                let under = layout.cells_under(station, grid);
                for y in under.y0 as usize..=under.y1 as usize {
                    // A row's cells are adjacent in the flat order, so
                    // their agents are one contiguous slice of the index.
                    let first = self.cell_start[y * cols + under.x0 as usize] as usize;
                    let end = self.cell_start[y * cols + under.x1 as usize + 1] as usize;
                    for &agent in &self.cell_agents[first..end] {
                        if circle.contains_point(positions[agent as usize]) {
                            self.pairs.extend(run.iter().map(|&(_, k)| (agent, nu + k)));
                        }
                    }
                }
            }
        }
        self.pairs.sort_unstable();
    }

    /// Counting sort of the agents by flat cell id.
    fn index_cells(&mut self, cells: &[u32], num_cells: usize) {
        let start = &mut self.cell_start;
        start.clear();
        start.resize(num_cells + 2, 0);
        for &c in cells {
            start[c as usize + 2] += 1;
        }
        for c in 2..start.len() {
            start[c] += start[c - 1];
        }
        // `start[c + 1]` is now cell `c`'s first slot; scattering through
        // it leaves it at cell `c + 1`'s first slot, i.e. `start[c]` ends
        // up where cell `c` begins.
        self.cell_agents.resize(cells.len(), 0);
        for (i, &c) in cells.iter().enumerate() {
            let slot = &mut start[c as usize + 1];
            self.cell_agents[*slot as usize] = i as u32;
            *slot += 1;
        }
    }
}

/// The struct-of-arrays mirror itself, plus the persistent scratch the
/// fast phases reuse tick over tick.
pub struct AgentSoa {
    /// Flat (clamped) grid-cell id per agent — the motion-phase skip key.
    pub cells: Vec<u32>,
    /// `FLAG_*` bits per agent.
    pub flags: Vec<u8>,
    /// LQT length per agent (restores the batched telemetry on skips).
    pub lqt_len: Vec<u32>,
    /// Earliest safe-period deadline per agent (`-inf` when unarmed);
    /// the whole agent skips evaluation while `t < safe_until`.
    pub safe_until: Vec<f64>,
    /// Tick stamp of the agent's last `pos`/`vel` sync ([`NEVER`] = not
    /// yet). Guards the stale-position rule above.
    pub synced_at: Vec<u32>,
    /// The tick's deliveries (unicast runs + push-built broadcast runs).
    pub deliveries: Deliveries,
    /// Per-broadcast [`BcastClass`] for the tick, indexed by queue
    /// position.
    pub bcast_class: Vec<BcastClass>,
    /// Per-shard received-byte ledgers `(node, bytes)` of the seed
    /// engine's parallel delivery, replayed into the real network's
    /// per-node meters after the shard scope ends.
    pub rx: Vec<Vec<(u32, usize)>>,
    /// Per-shard visit lists of the fast phases (see [`Visit`]).
    pub visits: Vec<Vec<Visit>>,
}

/// One agent a fast phase runs, decided from the mirror's bytes alone
/// before any agent is touched: its offset in the shard and its inbox,
/// the range `lo..hi` of the shard's own slice of the delivery runs
/// (empty in the motion phase). Knowing the whole list first lets the
/// phase prefetch agents a few visits ahead of the one it runs.
#[derive(Clone, Copy, Debug)]
pub struct Visit {
    pub at: u32,
    pub lo: u32,
    pub hi: u32,
}

impl AgentSoa {
    /// Mirrors freshly built agents: cells from each agent's *registered*
    /// cell, rows from its (still empty) query state.
    pub fn new(agents: &[MovingObjectAgent], grid: &Grid, shards: usize) -> Self {
        let n = agents.len();
        let mut soa = AgentSoa {
            cells: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            lqt_len: Vec::with_capacity(n),
            safe_until: Vec::with_capacity(n),
            synced_at: vec![NEVER; n],
            deliveries: Deliveries::default(),
            bcast_class: Vec::new(),
            rx: vec![Vec::new(); shards],
            visits: vec![Vec::new(); shards],
        };
        for agent in agents {
            let (flags, lqt_len, safe_until) = classify(agent);
            soa.cells.push(grid.flat_index(agent.current_cell()) as u32);
            soa.flags.push(flags);
            soa.lqt_len.push(lqt_len);
            soa.safe_until.push(safe_until);
        }
        soa
    }

    /// Classifies the tick's broadcasts for the inert-delivery skip, in
    /// queue order.
    pub fn classify_broadcasts<'a>(&mut self, messages: impl Iterator<Item = &'a Downlink>) {
        self.bcast_class.clear();
        self.bcast_class.extend(messages.map(BcastClass::of));
    }
}

/// Splits the parallel vectors into per-shard windows with the same chunk
/// size the tick engine uses for the agent slices.
pub fn shard_views<'a>(
    cells: &'a mut [u32],
    flags: &'a mut [u8],
    lqt_len: &'a mut [u32],
    safe_until: &'a mut [f64],
    synced_at: &'a mut [u32],
    chunk: usize,
) -> Vec<SoaShard<'a>> {
    cells
        .chunks_mut(chunk)
        .zip(flags.chunks_mut(chunk))
        .zip(lqt_len.chunks_mut(chunk))
        .zip(safe_until.chunks_mut(chunk))
        .zip(synced_at.chunks_mut(chunk))
        .map(
            |((((cells, flags), lqt_len), safe_until), synced_at)| SoaShard {
                cells,
                flags,
                lqt_len,
                safe_until,
                synced_at,
            },
        )
        .collect()
}

/// [`Grid::flat_cell_of`] without the two divisions, the two `floor`
/// calls and the clamps, for positions *safely inside* a cell — the
/// motion scan's test for the ~86 % of agents that stayed where they
/// were (worth ~10 % of the `mono_quiet` tick).
///
/// The probe scales by a precomputed `1/α`. Against the exact quotient
/// that product is off by at most a few ulps — below `2⁻¹⁹` in absolute
/// terms for any grid whose dimensions fit a `u32` — so whenever the
/// scaled coordinate lies at least [`MARGIN`](Self::MARGIN) away from
/// every cell boundary (and from the clamped outside of the grid), its
/// integer part *is* the exact cell coordinate. Everything else — on the
/// margin, outside the universe, NaN — returns `None` and the caller runs
/// the exact test.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlatCellProbe {
    lx: f64,
    ly: f64,
    inv_alpha: f64,
    cols: u32,
    max_x: f64,
    max_y: f64,
}

impl FlatCellProbe {
    /// Distance (in cells) a scaled coordinate keeps from a cell boundary
    /// before the division-free answer is trusted: `2⁻¹⁶`, eight times
    /// the worst-case rounding error.
    const MARGIN: f64 = 1.0 / 65536.0;

    pub(crate) fn new(grid: &Grid) -> Self {
        FlatCellProbe {
            lx: grid.universe.lx,
            ly: grid.universe.ly,
            inv_alpha: 1.0 / grid.alpha,
            cols: grid.cols,
            max_x: grid.cols as f64 - Self::MARGIN,
            max_y: grid.rows as f64 - Self::MARGIN,
        }
    }

    /// The flat cell index of `p`, or `None` when `p` is too close to a
    /// cell boundary (or outside the grid) to decide without dividing.
    #[inline]
    pub(crate) fn get(&self, p: Point) -> Option<u32> {
        let fx = (p.x - self.lx) * self.inv_alpha;
        let fy = (p.y - self.ly) * self.inv_alpha;
        // Inside `[MARGIN, max]` both are positive, so the truncating
        // cast is `floor`.
        let (ix, iy) = (fx as u32, fy as u32);
        let (rx, ry) = (fx - ix as f64, fy - iy as f64);
        let inside = |f: f64, r: f64, max: f64| {
            (Self::MARGIN..=max).contains(&f) && (Self::MARGIN..=1.0 - Self::MARGIN).contains(&r)
        };
        if inside(fx, rx, self.max_x) && inside(fy, ry, self.max_y) {
            Some(iy * self.cols + ix)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use mobieyes_geo::Rect;

    /// The deleted pull model, kept as the oracle: every (agent,
    /// broadcast) pair decided by the physical `covers` test alone.
    fn oracle(
        unicast_to: &[u32],
        broadcast_from: &[u32],
        positions: &[Point],
        layout: &BaseStationLayout,
    ) -> Vec<(u32, u32)> {
        let nu = unicast_to.len() as u32;
        let mut out = Vec::new();
        for (i, &pos) in positions.iter().enumerate() {
            for (k, &to) in unicast_to.iter().enumerate() {
                if to as usize == i {
                    out.push((i as u32, k as u32));
                }
            }
            for (k, &s) in broadcast_from.iter().enumerate() {
                if layout.covers(StationId(s), pos) {
                    out.push((i as u32, nu + k as u32));
                }
            }
        }
        out
    }

    /// A position drawn to hit the awkward places: cell boundaries,
    /// station lattice lines and corners, the universe edge, and up to a
    /// station's reach *outside* the universe (clamped cells).
    fn awkward_point(rng: &mut Rng, universe: &Rect, alpha: f64, alen: f64) -> Point {
        let mut coord = |lo: f64, len: f64| match rng.below(6) {
            0 => lo + alpha * rng.below((len / alpha) as usize + 2) as f64,
            1 => lo + alen * rng.below((len / alen) as usize + 2) as f64,
            2 => lo - rng.range(0.0, alen),
            3 => lo + len + rng.range(0.0, alen),
            _ => lo + rng.range(0.0, len),
        };
        Point::new(
            coord(universe.lx, universe.w()),
            coord(universe.ly, universe.h()),
        )
    }

    #[test]
    fn push_built_runs_equal_the_pull_oracle() {
        // (universe side, alpha, alen): aligned, `alen` not a multiple of
        // `alpha`, `alpha` not dividing the universe, the scale-smoke
        // shape (alen = 50), one huge station, stations finer than cells.
        let shapes = [
            (100.0, 5.0, 10.0),
            (100.0, 5.0, 7.0),
            (95.0, 6.0, 10.0),
            (400.0, 5.0, 50.0),
            (60.0, 5.0, 150.0),
            (60.0, 10.0, 4.0),
        ];
        let mut rng = Rng::new(0xD311_7E21);
        for case in 0..240 {
            let (side, alpha, alen) = shapes[case % shapes.len()];
            let universe = Rect::new(-20.0, 35.0, side, side * 0.75);
            let grid = Grid::new(universe, alpha);
            let layout = BaseStationLayout::new(universe, alen);
            let n = 1 + rng.below(120);
            let positions: Vec<Point> = (0..n)
                .map(|_| awkward_point(&mut rng, &universe, alpha, alen))
                .collect();
            let cells: Vec<u32> = positions
                .iter()
                .map(|&p| grid.flat_cell_of(p) as u32)
                .collect();
            let stations = layout.num_stations();
            let (cols, rows) = (layout.cols() as usize, layout.rows() as usize);
            // Several broadcasts per station; edge and corner stations on
            // purpose, the rest anywhere.
            let broadcast_from: Vec<u32> = (0..rng.below(12))
                .map(|_| match rng.below(4) {
                    0 => [0, cols - 1, stations - cols, stations - 1][rng.below(4)],
                    1 => rng.below(rows) * cols,
                    _ => rng.below(stations),
                } as u32)
                .flat_map(|s| std::iter::repeat_n(s, 1 + (s as usize + case) % 3))
                .collect();
            let unicast_to: Vec<u32> = (0..rng.below(8)).map(|_| rng.below(n) as u32).collect();

            let mut built = Deliveries::default();
            // Rebuilding over a dirty buffer must not leak the last tick.
            built.build(
                (0..n as u32).rev(),
                0..stations.min(5) as u32,
                &cells,
                &positions,
                &layout,
                &grid,
            );
            built.build(
                unicast_to.iter().copied(),
                broadcast_from.iter().copied(),
                &cells,
                &positions,
                &layout,
                &grid,
            );
            let expected = oracle(&unicast_to, &broadcast_from, &positions, &layout);
            assert_eq!(
                built.pairs(),
                &expected[..],
                "case {case}: {side}/{alpha}/{alen}"
            );

            // Shard boundaries at 1/2/4 threads: the slices tile the run
            // list in order, each holding exactly its nodes.
            for threads in [1usize, 2, 4] {
                let chunk = n.div_ceil(threads);
                let mut tiled = Vec::new();
                for base in (0..n).step_by(chunk) {
                    let len = chunk.min(n - base);
                    let part = built.shard(base, len);
                    assert!(part
                        .iter()
                        .all(|&(a, _)| (base..base + len).contains(&(a as usize))));
                    tiled.extend_from_slice(part);
                }
                assert_eq!(tiled, expected, "case {case} at {threads} threads");
            }
        }
    }

    #[test]
    fn unicast_only_runs_keep_queue_order_per_node() {
        let mut d = Deliveries::default();
        d.build_unicasts([3u32, 1, 3, 0, 1, 3].into_iter());
        assert_eq!(d.pairs(), &[(0, 3), (1, 1), (1, 4), (3, 0), (3, 2), (3, 5)]);
        assert_eq!(d.shard(1, 2), &[(1, 1), (1, 4)]);
    }

    #[test]
    fn flat_probe_agrees_with_the_exact_cell_wherever_it_answers() {
        // Awkward α (not a power of two, does not divide the universe)
        // and an offset origin, so the scaled coordinates really round.
        let g = Grid::new(Rect::new(-13.7, 41.3, 1000.0, 730.0), 0.7);
        let probe = FlatCellProbe::new(&g);
        let mut rng = Rng::new(0x9E37_79B9);
        let mut answered = 0;
        for _ in 0..200_000 {
            // 10 % overshoot on every side exercises the clamped outside.
            let p = Point::new(rng.range(-113.7, 1086.3), rng.range(-31.7, 844.3));
            if let Some(flat) = probe.get(p) {
                assert_eq!(flat as usize, g.flat_cell_of(p), "at {p:?}");
                answered += 1;
            }
        }
        assert!(answered > 120_000, "probe declined too often: {answered}");
    }

    #[test]
    fn flat_probe_declines_on_boundaries_and_outside() {
        let g = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
        let probe = FlatCellProbe::new(&g);
        assert_eq!(probe.get(Point::new(15.0, 25.0)), Some(21));
        for p in [
            Point::new(20.0, 25.0),        // on a column boundary
            Point::new(15.0, 30.0),        // on a row boundary
            Point::new(20.0 - 1e-9, 25.0), // inside the margin
            Point::new(0.0, 5.0),          // universe edge
            Point::new(-3.0, 5.0),         // clamped outside, low
            Point::new(5.0, 100.0),        // far edge
            Point::new(5.0, 250.0),        // clamped outside, high
            Point::new(f64::NAN, 5.0),
        ] {
            assert_eq!(probe.get(p), None, "at {p:?}");
        }
    }
}
