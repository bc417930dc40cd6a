//! The server's tables and their edits: the FOT, SQT and stub rows, the
//! partition ownership table and scope, the RQI, the membership index,
//! the home log, and the structural audit behind `check_invariants`.

use super::{srv_slots, Server};
use crate::codec::DecodeError;
use crate::filter::Filter;
use crate::messages::QuerySpec;
use crate::model::{ObjectId, QueryId};
use mobieyes_geo::{CellId, GridRect, LinearMotion, QueryRegion};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// FOT row: last reported motion of a focal object plus the queries bound
/// to it.
#[derive(Debug, Clone)]
pub(super) struct FotEntry {
    pub(super) motion: LinearMotion,
    pub(super) max_vel: f64,
    /// Queries bound to this focal object, kept sorted by id.
    pub(super) queries: Vec<QueryId>,
    /// Bitmap of group slots in use (for grouped result reports).
    pub(super) used_slots: u64,
    /// Server time of the last uplink heard from this object — the lease
    /// timestamp. A focal object silent for longer than `lease_secs` gets
    /// its queries torn down and re-announced.
    pub(super) last_heard: f64,
}

// The checkpoint layouts of the table rows (keys travel beside them).
crate::wire!(
    struct FotEntry {
        motion: LinearMotion,
        max_vel: f64,
        used_slots: u64,
        last_heard: f64,
        queries: Vec<QueryId>,
    }
);

crate::wire!(
    struct SqtEntry {
        focal: ObjectId,
        region: QueryRegion,
        filter: Arc<Filter>,
        curr_cell: CellId,
        mon_region: GridRect,
        slot: u8,
        seq: u64,
        expires_at: Option<f64>,
        result: BTreeSet<ObjectId>,
    }
);

crate::wire!(
    struct PendingInstall {
        qid: QueryId,
        region: QueryRegion,
        filter: Arc<Filter>,
        expires_at: Option<f64>,
    }
);

crate::wire!(
    struct StubEntry {
        focal: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        mon_region: GridRect,
        region: QueryRegion,
        filter: Arc<Filter>,
        slot: u8,
        seq: u64,
    }
);

/// The focal-object table, laid out for the million-object uplink path.
///
/// Every uplink probes the FOT at least once (`renew_lease`), so the old
/// `BTreeMap<ObjectId, FotEntry>` put a tree walk in front of each of the
/// hundreds of thousands of messages a large tick drains. Here the probe
/// is one array read: `slots[oid]` holds `row + 1` into a dense entry
/// vector (`0` = not focal). The entries stay sorted by object id so
/// every iteration — lease expiry, migration, the invariant checks —
/// walks the same deterministic ascending order the tree gave; inserts
/// and removals shift and re-index the tail, which is fine because they
/// only happen on install/teardown, never in the steady-state uplink
/// path. Ids from [`SLOTTED_IDS`] up are found by binary search instead,
/// so one stray id off the wire or out of a corrupt checkpoint cannot
/// grow the slot array to gigabytes.
#[derive(Debug, Default)]
pub(super) struct FotTable {
    /// Object id → entry row + 1; `0` means absent. Grows to the highest
    /// slotted focal object id seen (4 bytes per object of headroom).
    pub(super) slots: Vec<u32>,
    /// `(oid, row)` pairs sorted by object id.
    pub(super) entries: Vec<(ObjectId, FotEntry)>,
}

/// Object ids below this are slot-indexed in a [`FotTable`] (a 16 MiB
/// slot array at most).
const SLOTTED_IDS: usize = 1 << 22;

impl FotTable {
    #[inline]
    fn row(&self, oid: &ObjectId) -> Option<usize> {
        match self.slots.get(oid.0 as usize) {
            Some(&s) => s.checked_sub(1).map(|r| r as usize),
            None if (oid.0 as usize) < SLOTTED_IDS => None,
            None => self.entries.binary_search_by_key(oid, |(k, _)| *k).ok(),
        }
    }

    #[inline]
    pub(super) fn contains_key(&self, oid: &ObjectId) -> bool {
        self.row(oid).is_some()
    }

    #[inline]
    pub(super) fn get(&self, oid: &ObjectId) -> Option<&FotEntry> {
        self.row(oid).map(|i| &self.entries[i].1)
    }

    #[inline]
    pub(super) fn get_mut(&mut self, oid: &ObjectId) -> Option<&mut FotEntry> {
        self.row(oid).map(move |i| &mut self.entries[i].1)
    }

    /// `BTreeMap::entry(oid).or_insert(default)` equivalent (the callers
    /// construct the default eagerly anyway).
    pub(super) fn entry_or_insert(&mut self, oid: ObjectId, default: FotEntry) -> &mut FotEntry {
        if self.row(&oid).is_none() {
            let o = oid.0 as usize;
            if o < SLOTTED_IDS && self.slots.len() <= o {
                self.slots.resize(o + 1, 0);
            }
            let pos = self.entries.partition_point(|(k, _)| *k < oid);
            self.entries.insert(pos, (oid, default));
            self.reindex_from(pos);
        }
        let i = self.row(&oid).expect("row just ensured");
        &mut self.entries[i].1
    }

    pub(super) fn remove(&mut self, oid: &ObjectId) -> Option<FotEntry> {
        let i = self.row(oid)?;
        if let Some(s) = self.slots.get_mut(oid.0 as usize) {
            *s = 0;
        }
        let (_, entry) = self.entries.remove(i);
        self.reindex_from(i);
        Some(entry)
    }

    fn reindex_from(&mut self, pos: usize) {
        for i in pos..self.entries.len() {
            let o = self.entries[i].0 .0 as usize;
            if let Some(s) = self.slots.get_mut(o) {
                *s = (i + 1) as u32;
            }
        }
    }

    /// Rows in ascending object-id order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (&ObjectId, &FotEntry)> {
        self.entries.iter().map(|(o, e)| (o, e))
    }

    /// Focal object ids in ascending order.
    pub(super) fn keys(&self) -> impl Iterator<Item = &ObjectId> {
        self.entries.iter().map(|(o, _)| o)
    }
}

impl std::ops::Index<&ObjectId> for FotTable {
    type Output = FotEntry;
    fn index(&self, oid: &ObjectId) -> &FotEntry {
        self.get(oid).expect("focal object in FOT")
    }
}

/// SQT row: everything the server knows about one installed query.
#[derive(Debug, Clone)]
pub(super) struct SqtEntry {
    pub(super) focal: ObjectId,
    pub(super) region: QueryRegion,
    pub(super) filter: Arc<Filter>,
    pub(super) curr_cell: CellId,
    pub(super) mon_region: GridRect,
    /// Group slot within the focal object's query set (bit index in grouped
    /// result reports).
    pub(super) slot: u8,
    /// Server epoch at this query's last state change. Travels in every
    /// dissemination message so receivers can discard stale or duplicated
    /// broadcasts.
    pub(super) seq: u64,
    /// Absolute expiry time in seconds; the paper's query examples carry
    /// durations ("during the next 2 hours"). `None` = no expiry.
    pub(super) expires_at: Option<f64>,
    pub(super) result: BTreeSet<ObjectId>,
}

impl SqtEntry {
    /// The dissemination spec of the homed query `qid`.
    pub(super) fn spec(&self, qid: QueryId) -> QuerySpec {
        QuerySpec {
            qid,
            region: self.region,
            filter: Arc::clone(&self.filter),
            slot: self.slot,
            seq: self.seq,
        }
    }
}

/// One change to the key set of a server's FOT or SQT — which focal
/// objects and which queries it *homes*. A coordinator that folds every
/// change in emission order holds an exact copy of both key sets (see
/// [`Server::enable_home_log`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeChange {
    FocalAdded(ObjectId),
    FocalRemoved(ObjectId),
    QueryAdded(QueryId),
    QueryRemoved(QueryId),
}

/// A query whose installation is waiting for the focal object's position.
#[derive(Debug, Clone)]
pub struct PendingInstall {
    pub qid: QueryId,
    pub region: QueryRegion,
    pub filter: Arc<Filter>,
    pub expires_at: Option<f64>,
}

/// The versioned cell→partition assignment shared by every server of a
/// cluster — one partition owning every cell for a single server.
///
/// Partitions own contiguous blocks of flat (row-major) cell indices:
/// `bounds` has `N + 1` entries and partition `p` owns `[bounds[p],
/// bounds[p+1])`. Contiguity keeps ownership tests a single comparison
/// and makes the concatenation of per-partition digests (in partition
/// order) equal the single server's ascending-index scan — for *any*
/// bounds vector, which is what lets a coordinator re-split the blocks by
/// observed load without perturbing the protocol (DESIGN.md §10). The
/// bounds are atomics so a coordinator can *install* a new split in place
/// — every [`PartitionScope`] holding this table sees the new ownership
/// immediately — and each install bumps `generation`,
/// the stamp that makes rebalance state transfers replay-safe: a
/// [`ClusterMsg::RebalanceCells`](crate::ClusterMsg::RebalanceCells) is valid only for the exact generation
/// it was cut for.
///
/// All accesses use relaxed ordering: installs happen only from the
/// single-threaded coordinator while no partition work is in flight
/// (under the epoch fence), so there is nothing to synchronize against.
#[derive(Debug)]
pub struct PartitionTable {
    bounds: Vec<AtomicUsize>,
    generation: AtomicU64,
}

impl PartitionTable {
    /// Builds generation 0 of the table from an initial bounds vector
    /// (`N + 1` ascending entries; see type docs).
    pub fn new(bounds: Vec<usize>) -> Self {
        assert!(bounds.len() >= 2, "bounds needs N + 1 entries, N >= 1");
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must be ascending"
        );
        PartitionTable {
            bounds: bounds.into_iter().map(AtomicUsize::new).collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// Generation 0 of `n` near-equal contiguous blocks of `cells` flat
    /// cells (the first `cells % n` partitions get one extra cell).
    pub fn contiguous(cells: usize, n: usize) -> Self {
        assert!(n >= 1, "at least one partition");
        assert!(cells >= n, "more partitions than grid cells");
        let (base, rem) = (cells / n, cells % n);
        let mut bounds = vec![0];
        for p in 0..n {
            bounds.push(bounds[p] + base + usize::from(p < rem));
        }
        PartitionTable::new(bounds)
    }

    pub fn num_partitions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The current map generation (0 until the first rebalance install).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// A plain copy of the current bounds vector.
    pub fn bounds_snapshot(&self) -> Vec<usize> {
        self.bounds
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The partition owning the given flat cell index.
    pub fn owner_of(&self, flat: usize) -> u32 {
        debug_assert!(flat < self.bounds.last().unwrap().load(Ordering::Relaxed));
        // partition_point over the atomic bounds.
        let (mut lo, mut hi) = (0usize, self.bounds.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.bounds[mid].load(Ordering::Relaxed) <= flat {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo - 1) as u32
    }

    /// The flat-index range a partition owns.
    pub fn owned_range(&self, partition: u32) -> std::ops::Range<usize> {
        let p = partition as usize;
        self.bounds[p].load(Ordering::Relaxed)..self.bounds[p + 1].load(Ordering::Relaxed)
    }

    /// Installs a new bounds vector in place and bumps the generation;
    /// returns the new generation. Must only be called by a cluster
    /// coordinator with the bus quiesced (see DESIGN.md §10).
    pub fn install(&self, bounds: &[usize]) -> u64 {
        self.validate(bounds, self.generation())
            .unwrap_or_else(|e| panic!("{e}"));
        for (slot, &b) in self.bounds.iter().zip(bounds) {
            slot.store(b, Ordering::Relaxed);
        }
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// [`install`](Self::install), but forcing the generation to an exact
    /// value instead of bumping. Remote partition processes keep their own
    /// table copy; a coordinator syncs them by shipping its post-install
    /// bounds *and* generation, so generation-guarded transfers
    /// ([`ClusterMsg::RebalanceCells`](crate::ClusterMsg::RebalanceCells), [`ClusterMsg::RecoverCells`](crate::ClusterMsg::RecoverCells))
    /// validate identically on both sides. The generation may only move
    /// forward (a respawned process at generation 0 catches up; a stale
    /// install must never rewind a newer table).
    pub fn install_at(&self, bounds: &[usize], generation: u64) {
        self.validate(bounds, generation)
            .unwrap_or_else(|e| panic!("{e}"));
        self.install(bounds);
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// What [`install_at`](Self::install_at) demands of an install: the
    /// same partition count, bounds ascending from 0 to the fixed cell
    /// count, no generation rewind. An install read off the wire or a log
    /// is refused with this error instead of panicking.
    pub(crate) fn validate(&self, bounds: &[usize], generation: u64) -> Result<(), DecodeError> {
        let cells = self.bounds.last().map(|b| b.load(Ordering::Relaxed));
        let fits = bounds.len() == self.bounds.len()
            && bounds.first() == Some(&0)
            && bounds.last().copied() == cells
            && bounds.windows(2).all(|w| w[0] <= w[1]);
        if fits && generation >= self.generation() {
            return Ok(());
        }
        let (n, at) = (bounds.len(), self.generation());
        Err(DecodeError(format!(
            "{n} bounds at generation {generation} refused at {at}"
        )))
    }
}

/// A journaled bounds vector (see [`LogRecord::Bounds`]) as the table
/// holds it.
pub(super) fn usize_bounds(bounds: &[u64]) -> Vec<usize> {
    bounds.iter().map(|&b| b as usize).collect()
}

/// The slice of the α-grid a server owns, plus the epoch sequencer it
/// stamps with. Every [`Server`] has one: a library server owns the whole
/// grid as partition 0 of a one-partition table on a private epoch.
///
/// A server maintains FOT/SQT rows only for focal objects homed in its
/// cells, RQI entries only for its own cells, and *stub* rows for
/// border-straddling queries homed on another partition. Ownership is
/// resolved through the [`PartitionTable`], which a coordinator shares
/// with its partitions and may rewrite between ticks (rebalancing). The
/// epoch counter is shared by all partitions of a cluster so seq stamps
/// remain a single global total order — the key to byte-identical
/// cross-partition runs.
#[derive(Debug, Clone)]
pub struct PartitionScope {
    pub(super) partition: u32,
    pub(super) table: Arc<PartitionTable>,
    pub(super) epoch: Arc<AtomicU64>,
}

impl PartitionScope {
    pub fn new(partition: u32, table: Arc<PartitionTable>, epoch: Arc<AtomicU64>) -> Self {
        assert!(
            (partition as usize) < table.num_partitions(),
            "partition out of range"
        );
        PartitionScope {
            partition,
            table,
            epoch,
        }
    }

    pub fn partition(&self) -> u32 {
        self.partition
    }

    pub fn num_partitions(&self) -> usize {
        self.table.num_partitions()
    }

    /// The current generation of the shared partition table.
    pub fn generation(&self) -> u64 {
        self.table.generation()
    }

    /// The partition owning the given flat cell index.
    pub fn owner_of(&self, flat: usize) -> u32 {
        self.table.owner_of(flat)
    }

    pub fn owns(&self, flat: usize) -> bool {
        self.owned_range().contains(&flat)
    }

    pub fn owned_range(&self) -> std::ops::Range<usize> {
        self.table.owned_range(self.partition)
    }
}

/// Remote-region stub: the local image of a query homed on another
/// partition whose monitoring region straddles into our cells. Stubs back
/// our RQI entries so region broadcasts and digests stay complete; they
/// carry everything needed to rebuild `QueryGroupInfo` payloads locally.
#[derive(Debug, Clone)]
pub(super) struct StubEntry {
    pub(super) focal: ObjectId,
    pub(super) motion: LinearMotion,
    pub(super) max_vel: f64,
    pub(super) mon_region: GridRect,
    pub(super) region: QueryRegion,
    pub(super) filter: Arc<Filter>,
    pub(super) slot: u8,
    pub(super) seq: u64,
}

impl StubEntry {
    pub(super) fn new(
        focal: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        mon_region: GridRect,
        spec: &QuerySpec,
    ) -> Self {
        StubEntry {
            focal,
            motion,
            max_vel,
            mon_region,
            region: spec.region,
            filter: Arc::clone(&spec.filter),
            slot: spec.slot,
            seq: spec.seq,
        }
    }

    /// The dissemination spec of the stubbed query `qid`.
    pub(super) fn spec(&self, qid: QueryId) -> QuerySpec {
        QuerySpec {
            qid,
            region: self.region,
            filter: Arc::clone(&self.filter),
            slot: self.slot,
            seq: self.seq,
        }
    }
}

/// RQI: per grid cell (flat row-major index), the queries whose
/// monitoring region intersects the cell, plus one occupancy bit per cell
/// that says whether the row is non-empty. A cell crossing asks "does any
/// query monitor the new cell?" of the bitmap (5 KB at 40 000 cells)
/// instead of loading the row array (24 bytes a cell); every write goes
/// through this type, so the bit and the row cannot disagree.
#[derive(Debug, Default)]
pub(super) struct Rqi {
    rows: Vec<Vec<QueryId>>,
    occupied: Vec<u64>,
}

impl Rqi {
    pub(super) fn new(cells: usize) -> Self {
        Rqi {
            rows: vec![Vec::new(); cells],
            occupied: vec![0; cells.div_ceil(64)],
        }
    }

    /// Number of cells.
    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether any query monitors cell `idx`.
    #[inline]
    pub(super) fn occupied(&self, idx: usize) -> bool {
        self.occupied[idx / 64] & (1 << (idx % 64)) != 0
    }

    pub(super) fn row(&self, idx: usize) -> &[QueryId] {
        &self.rows[idx]
    }

    /// The non-empty rows `(flat index, row)`, ascending.
    pub(super) fn occupied_rows(&self) -> impl Iterator<Item = (usize, &Vec<QueryId>)> {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let idx = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        (idx, &self.rows[idx])
                    })
                })
            })
    }

    fn mark(&mut self, idx: usize) {
        let bit = 1 << (idx % 64);
        if self.rows[idx].is_empty() {
            self.occupied[idx / 64] &= !bit;
        } else {
            self.occupied[idx / 64] |= bit;
        }
    }

    /// Adds `qid` to row `idx` unless it is there already.
    pub(super) fn insert(&mut self, idx: usize, qid: QueryId) {
        if !self.rows[idx].contains(&qid) {
            self.rows[idx].push(qid);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        }
    }

    pub(super) fn remove(&mut self, idx: usize, qid: QueryId) {
        self.rows[idx].retain(|&q| q != qid);
        self.mark(idx);
    }

    /// Empties row `idx`, returning what it held.
    pub(super) fn take(&mut self, idx: usize) -> Vec<QueryId> {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        std::mem::take(&mut self.rows[idx])
    }

    /// Replaces row `idx` wholesale.
    pub(super) fn set(&mut self, idx: usize, row: Vec<QueryId>) {
        self.rows[idx] = row;
        self.mark(idx);
    }

    /// The bitmap agrees with the rows, cell by cell.
    pub(super) fn check_occupancy(&self) {
        for (idx, row) in self.rows.iter().enumerate() {
            assert_eq!(
                self.occupied(idx),
                !row.is_empty(),
                "RQI occupancy bit of cell {idx} disagrees with its row"
            );
        }
    }
}

impl Server {
    /// Starts logging FOT/SQT key-set changes, seeded with the current
    /// contents (ascending) — so the first drain hands a mirror everything
    /// a replayed server already homes. The partition service switches
    /// this on; its coordinator keeps the mirror.
    pub fn enable_home_log(&mut self) {
        let seed = self
            .fot
            .keys()
            .map(|&o| HomeChange::FocalAdded(o))
            .chain(self.sqt.keys().map(|&q| HomeChange::QueryAdded(q)))
            .collect();
        self.home_log = Some(seed);
    }

    /// Drains the key-set changes logged since the last call, in the order
    /// they happened. Always empty unless
    /// [`enable_home_log`](Self::enable_home_log) was called.
    pub fn take_home_log(&mut self) -> Vec<HomeChange> {
        self.home_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Whether [`take_home_log`](Self::take_home_log) would drain a change.
    pub fn has_home_changes(&self) -> bool {
        self.home_log.as_ref().is_some_and(|log| !log.is_empty())
    }

    #[inline]
    fn note_home(&mut self, change: HomeChange) {
        if let Some(log) = &mut self.home_log {
            log.push(change);
        }
    }

    // --- Table edits -------------------------------------------------------
    //
    // A FOT or SQT row arrives and leaves through these four (a result set
    // changes in place through `set_member`), so the membership index and
    // the home log move in step with the tables. `restore_checkpoint`
    // replaces the tables wholesale.

    /// Creates `oid`'s FOT row, unless it has one.
    pub(super) fn fot_insert(&mut self, oid: ObjectId, row: FotEntry) {
        if !self.fot.contains_key(&oid) {
            self.fot.entry_or_insert(oid, row);
            self.note_home(HomeChange::FocalAdded(oid));
        }
    }

    pub(super) fn fot_remove(&mut self, oid: ObjectId) -> Option<FotEntry> {
        let row = self.fot.remove(&oid)?;
        self.note_home(HomeChange::FocalRemoved(oid));
        Some(row)
    }

    /// Inserts `qid`'s SQT row, replacing (and unindexing) any older one.
    pub(super) fn sqt_insert(&mut self, qid: QueryId, row: SqtEntry) {
        match self.sqt.remove(&qid) {
            None => self.note_home(HomeChange::QueryAdded(qid)),
            Some(old) => self.index_row(qid, old.result, false),
        }
        self.index_row(qid, row.result.iter().copied(), true);
        self.sqt.insert(qid, row);
    }

    pub(super) fn sqt_remove(&mut self, qid: QueryId) -> Option<SqtEntry> {
        let row = self.sqt.remove(&qid)?;
        self.note_home(HomeChange::QueryRemoved(qid));
        self.index_row(qid, row.result.iter().copied(), false);
        Some(row)
    }

    /// The queries whose result currently holds `oid`, ascending — one
    /// range scan of the membership index.
    #[doc(hidden)]
    pub fn memberships(&self, oid: ObjectId) -> impl Iterator<Item = QueryId> + '_ {
        self.members
            .range((oid, QueryId(0))..=(oid, QueryId(u32::MAX)))
            .map(|&(_, qid)| qid)
    }

    /// Sets whether `oid` is in `qid`'s result, keeping the membership
    /// index in step; returns whether the membership changed (`false`
    /// for an unknown query). The only code that edits a result set in
    /// place.
    pub(super) fn set_member(&mut self, qid: QueryId, oid: ObjectId, is_target: bool) -> bool {
        let Some(e) = self.sqt.get_mut(&qid) else {
            return false;
        };
        let changed = if is_target {
            e.result.insert(oid)
        } else {
            e.result.remove(&oid)
        };
        if changed {
            self.index_row(qid, [oid], is_target);
        }
        changed
    }

    /// Row-level index maintenance: `qid`'s SQT row arrived with
    /// (`present`) or left with `result` as its whole result set.
    fn index_row(
        &mut self,
        qid: QueryId,
        result: impl IntoIterator<Item = ObjectId>,
        present: bool,
    ) {
        for oid in result {
            if present {
                self.members.insert((oid, qid));
            } else {
                self.members.remove(&(oid, qid));
            }
        }
    }

    pub(super) fn rqi_insert(&mut self, qid: QueryId, region: &GridRect) {
        let owned = self.scope.owned_range();
        let grid = &self.config.grid;
        let mut touched = 0u64;
        for cell in region.iter() {
            let idx = grid.flat_index(cell);
            if !owned.contains(&idx) {
                continue;
            }
            touched += 1;
            self.rqi.insert(idx, qid);
        }
        // Partitions tile the grid, so per-query RQI work summed across a
        // cluster equals the single server's `region.len()` exactly.
        self.tally.add(srv_slots::RQI_UPDATES, touched);
    }

    pub(super) fn rqi_remove(&mut self, qid: QueryId, region: &GridRect) {
        let owned = self.scope.owned_range();
        let grid = &self.config.grid;
        let mut touched = 0u64;
        for cell in region.iter() {
            let idx = grid.flat_index(cell);
            if !owned.contains(&idx) {
                continue;
            }
            touched += 1;
            self.rqi.remove(idx, qid);
        }
        self.tally.add(srv_slots::RQI_UPDATES, touched);
    }

    /// Focal object and monitoring region of a query — its
    /// dissemination group key — whether homed here or stubbed.
    pub(super) fn q_group(&self, qid: QueryId) -> Option<(ObjectId, GridRect)> {
        self.sqt
            .get(&qid)
            .map(|e| (e.focal, e.mon_region))
            .or_else(|| self.stubs.get(&qid).map(|s| (s.focal, s.mon_region)))
    }

    /// Monitoring region of a query, whether homed here or stubbed.
    pub(super) fn q_mon(&self, qid: QueryId) -> Option<GridRect> {
        self.q_group(qid).map(|(_, mon)| mon)
    }

    /// Seq stamp of a query, whether homed here or stubbed.
    pub(super) fn q_seq(&self, qid: QueryId) -> u64 {
        self.sqt
            .get(&qid)
            .map(|e| e.seq)
            .or_else(|| self.stubs.get(&qid).map(|s| s.seq))
            .unwrap_or_else(|| {
                panic!(
                    "RQI references {qid:?} on partition {} without an SQT row or stub",
                    self.scope.partition()
                )
            })
    }

    /// Structural self-check for tests: the RQI must exactly mirror the
    /// monitoring regions in the SQT, FOT query lists must match SQT focal
    /// assignments, and slots must be consistent.
    pub fn check_invariants(&self) {
        let owned = self.scope.owned_range();
        for (qid, e) in &self.sqt {
            for cell in e.mon_region.iter() {
                let idx = self.config.grid.flat_index(cell);
                if !owned.contains(&idx) {
                    continue; // a neighbor partition's RQI row
                }
                assert!(
                    self.rqi.row(idx).contains(qid),
                    "RQI missing {qid:?} at {cell:?}"
                );
            }
            let fot = self.fot.get(&e.focal).expect("focal of live query in FOT");
            assert!(fot.queries.contains(qid), "FOT query list missing {qid:?}");
            if e.slot != crate::messages::NO_SLOT {
                assert!(
                    fot.used_slots & (1u64 << e.slot) != 0,
                    "slot not marked used"
                );
            }
        }
        self.rqi.check_occupancy();
        for (idx, qids) in self.rqi.occupied_rows() {
            assert!(owned.contains(&idx), "RQI entry in an unowned cell");
            for qid in qids {
                let mon = self.q_mon(*qid).expect("RQI references live query or stub");
                let cell = self.config.grid.cell_at(idx);
                assert!(
                    mon.contains(cell),
                    "stale RQI entry for {qid:?} at {cell:?} on partition {}: \
                     monitoring region is {mon:?} (homed: {})",
                    self.scope.partition(),
                    self.sqt.contains_key(qid)
                );
            }
        }
        for (oid, fot) in self.fot.iter() {
            for qid in &fot.queries {
                assert_eq!(self.sqt[qid].focal, *oid, "FOT/SQT focal mismatch");
            }
        }
        for (qid, _) in self.stubs.iter() {
            assert!(
                !self.sqt.contains_key(qid),
                "query {qid:?} both homed and stubbed"
            );
        }
        // The membership index is exactly the inverse of the result sets.
        for (qid, e) in &self.sqt {
            for oid in &e.result {
                assert!(
                    self.members.contains(&(*oid, *qid)),
                    "membership index missing {oid:?} in {qid:?}"
                );
            }
        }
        for (oid, qid) in &self.members {
            assert!(
                self.sqt.get(qid).is_some_and(|e| e.result.contains(oid)),
                "membership index holds {oid:?} in {qid:?}, the result set does not"
            );
        }
    }
}
