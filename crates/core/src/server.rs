//! The MobiEyes server: a mediator between moving objects (paper §3).
//!
//! The server holds the focal object table (FOT), the server-side query
//! table (SQT) and the reverse query index (RQI). It installs queries,
//! relays significant focal-object position changes to the objects in the
//! affected monitoring regions through minimal base-station broadcast sets,
//! answers cell-change notifications with the queries of the new cell
//! (eager propagation), and maintains query results differentially from
//! object reports. It never computes containment itself — that work lives
//! on the moving objects.

use crate::codec::{DecodeError, Reader, Wire};
use crate::config::{Propagation, ProtocolConfig};
use crate::filter::Filter;
use crate::journal::{JournalSink, LogRecord, ReplyPayload};
use crate::messages::{
    state_digest, ClusterMsg, Downlink, QueryGroupInfo, QueryMigration, QuerySpec, StubSeed, Uplink,
};
use crate::model::{ObjectId, QueryId};
use mobieyes_geo::{CellId, GridRect, LinearMotion, QueryRegion, Region};
use mobieyes_net::{NetworkSim, NodeId};
use mobieyes_telemetry::{EventKind, MetricsSnapshot, Tally, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The network type the protocol runs over.
pub type Net = NetworkSim<Uplink, Downlink>;

/// FOT row: last reported motion of a focal object plus the queries bound
/// to it.
#[derive(Debug, Clone)]
struct FotEntry {
    motion: LinearMotion,
    max_vel: f64,
    /// Queries bound to this focal object, kept sorted by id.
    queries: Vec<QueryId>,
    /// Bitmap of group slots in use (for grouped result reports).
    used_slots: u64,
    /// Server time of the last uplink heard from this object — the lease
    /// timestamp. A focal object silent for longer than `lease_secs` gets
    /// its queries torn down and re-announced.
    last_heard: f64,
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
struct FotTable {
    /// Object id → entry row + 1; `0` means absent. Grows to the highest
    /// slotted focal object id seen (4 bytes per object of headroom).
    slots: Vec<u32>,
    /// `(oid, row)` pairs sorted by object id.
    entries: Vec<(ObjectId, FotEntry)>,
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
    fn contains_key(&self, oid: &ObjectId) -> bool {
        self.row(oid).is_some()
    }

    #[inline]
    fn get(&self, oid: &ObjectId) -> Option<&FotEntry> {
        self.row(oid).map(|i| &self.entries[i].1)
    }

    #[inline]
    fn get_mut(&mut self, oid: &ObjectId) -> Option<&mut FotEntry> {
        self.row(oid).map(move |i| &mut self.entries[i].1)
    }

    /// `BTreeMap::entry(oid).or_insert(default)` equivalent (the callers
    /// construct the default eagerly anyway).
    fn entry_or_insert(&mut self, oid: ObjectId, default: FotEntry) -> &mut FotEntry {
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

    fn remove(&mut self, oid: &ObjectId) -> Option<FotEntry> {
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
    fn iter(&self) -> impl Iterator<Item = (&ObjectId, &FotEntry)> {
        self.entries.iter().map(|(o, e)| (o, e))
    }

    /// Focal object ids in ascending order.
    fn keys(&self) -> impl Iterator<Item = &ObjectId> {
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
struct SqtEntry {
    focal: ObjectId,
    region: QueryRegion,
    filter: Arc<Filter>,
    curr_cell: CellId,
    mon_region: GridRect,
    /// Group slot within the focal object's query set (bit index in grouped
    /// result reports).
    slot: u8,
    /// Server epoch at this query's last state change. Travels in every
    /// dissemination message so receivers can discard stale or duplicated
    /// broadcasts.
    seq: u64,
    /// Absolute expiry time in seconds; the paper's query examples carry
    /// durations ("during the next 2 hours"). `None` = no expiry.
    expires_at: Option<f64>,
    result: BTreeSet<ObjectId>,
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
#[derive(Debug)]
struct PendingInstall {
    qid: QueryId,
    region: QueryRegion,
    filter: Arc<Filter>,
    expires_at: Option<f64>,
}

/// The versioned cell→partition assignment shared by every server of a
/// cluster.
///
/// Partitions own contiguous blocks of flat (row-major) cell indices:
/// `bounds` has `N + 1` entries and partition `p` owns `[bounds[p],
/// bounds[p+1])`. The bounds are atomics so a coordinator can *install* a
/// new split in place — every [`PartitionScope`] holding this table sees
/// the new ownership immediately — and each install bumps `generation`,
/// the stamp that makes rebalance state transfers replay-safe: a
/// [`ClusterMsg::RebalanceCells`] is valid only for the exact generation
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
    /// ([`ClusterMsg::RebalanceCells`], [`ClusterMsg::RecoverCells`])
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

/// The slice of the α-grid a partitioned server owns, plus the shared
/// epoch sequencer of the cluster.
///
/// A scoped server maintains FOT/SQT rows only for focal objects homed in
/// its cells, RQI entries only for its own cells, and *stub* rows for
/// border-straddling queries homed elsewhere. Ownership is resolved
/// through the shared [`PartitionTable`], which a coordinator may rewrite
/// between ticks (rebalancing). The epoch counter is shared by all
/// partitions so seq stamps remain a single global total order — the key
/// to byte-identical cross-partition runs.
#[derive(Debug, Clone)]
pub struct PartitionScope {
    partition: u32,
    table: Arc<PartitionTable>,
    epoch: Arc<AtomicU64>,
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

/// Deterministic counters of server-side work; the wall-clock server-load
/// measurements of the figures sit on top of these in `mobieyes-sim`.
///
/// Since the telemetry redesign this is a *view* over the `srv.*` counters
/// of the unified registry; build one with [`Server::stats`] or
/// [`ServerStats::from_snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub uplinks_processed: u64,
    pub velocity_reports: u64,
    pub cell_changes: u64,
    pub result_updates: u64,
    pub broadcast_ops: u64,
    pub unicast_ops: u64,
    pub rqi_updates: u64,
}

/// The `srv.*` telemetry counter keys.
pub mod srv_keys {
    pub const UPLINKS: &str = "srv.uplinks_processed";
    pub const VELOCITY_REPORTS: &str = "srv.velocity_reports";
    pub const CELL_CHANGES: &str = "srv.cell_changes";
    pub const RESULT_UPDATES: &str = "srv.result_updates";
    pub const BROADCAST_OPS: &str = "srv.broadcast_ops";
    pub const UNICAST_OPS: &str = "srv.unicast_ops";
    pub const RQI_UPDATES: &str = "srv.rqi_updates";
    pub const HEARTBEATS: &str = "srv.heartbeats";
    pub const LEASES_EXPIRED: &str = "srv.leases_expired";
    pub const RESYNC_REPLIES: &str = "srv.resync_replies";
    pub const LQT_SYNCS: &str = "srv.lqt_syncs";
    pub const STALE_RESULTS_PURGED: &str = "srv.stale_results_purged";

    /// Every key, in the slot order of a [`ServerTally`](super::ServerTally)
    /// ([`srv_slots`](super::srv_slots)).
    pub const ALL: [&str; 12] = [
        UPLINKS,
        VELOCITY_REPORTS,
        CELL_CHANGES,
        RESULT_UPDATES,
        BROADCAST_OPS,
        UNICAST_OPS,
        RQI_UPDATES,
        HEARTBEATS,
        LEASES_EXPIRED,
        RESYNC_REPLIES,
        LQT_SYNCS,
        STALE_RESULTS_PURGED,
    ];
}

/// The slots of a [`ServerTally`]: slot `srv_slots::X` counts `srv_keys::X`.
pub mod srv_slots {
    pub const UPLINKS: usize = 0;
    pub const VELOCITY_REPORTS: usize = 1;
    pub const CELL_CHANGES: usize = 2;
    pub const RESULT_UPDATES: usize = 3;
    pub const BROADCAST_OPS: usize = 4;
    pub const UNICAST_OPS: usize = 5;
    pub const RQI_UPDATES: usize = 6;
    pub const HEARTBEATS: usize = 7;
    pub const LEASES_EXPIRED: usize = 8;
    pub const RESYNC_REPLIES: usize = 9;
    pub const LQT_SYNCS: usize = 10;
    pub const STALE_RESULTS_PURGED: usize = 11;
}

/// The `srv.*` counters of a recorder, counted plainly and published with
/// one lock per phase: a [`Server`] keeps one, and so does a cluster
/// coordinator for the counters it records itself.
pub type ServerTally = Tally<{ srv_keys::ALL.len() }>;

impl ServerStats {
    /// Materializes the view from a metrics snapshot.
    pub fn from_snapshot(s: &MetricsSnapshot) -> Self {
        ServerStats {
            uplinks_processed: s.counter(srv_keys::UPLINKS),
            velocity_reports: s.counter(srv_keys::VELOCITY_REPORTS),
            cell_changes: s.counter(srv_keys::CELL_CHANGES),
            result_updates: s.counter(srv_keys::RESULT_UPDATES),
            broadcast_ops: s.counter(srv_keys::BROADCAST_OPS),
            unicast_ops: s.counter(srv_keys::UNICAST_OPS),
            rqi_updates: s.counter(srv_keys::RQI_UPDATES),
        }
    }
}

/// The MobiEyes server.
#[derive(Debug)]
pub struct Server {
    config: Arc<ProtocolConfig>,
    /// Flat-indexed (see [`FotTable`]); iterates in the same
    /// deterministic ascending order the old `BTreeMap` gave — lease
    /// expiry and byte-identical runs at any thread count depend on it.
    fot: FotTable,
    sqt: BTreeMap<QueryId, SqtEntry>,
    /// Result-membership index: the inverse of every `SqtEntry::result`
    /// as one ordered pair set, so an object's memberships are a range
    /// scan in ascending query id — no per-object allocation. Derived
    /// state: maintained by [`set_member`](Self::set_member) (one
    /// membership) and [`index_row`](Self::index_row) (a whole SQT row
    /// arriving or leaving), rebuilt on restore, never serialized.
    members: BTreeSet<(ObjectId, QueryId)>,
    /// RQI: per grid cell (flat row-major index), the queries whose
    /// monitoring region intersects the cell.
    rqi: Vec<Vec<QueryId>>,
    pending: BTreeMap<ObjectId, Vec<PendingInstall>>,
    next_qid: u32,
    /// Monotone state-change counter. Bumped on every operation that
    /// changes disseminated query state; the bumped value is stamped on
    /// the affected queries (`SqtEntry::seq`) and on the outgoing
    /// messages.
    epoch: u64,
    /// Current server time, cached from the driver's heartbeat call; lease
    /// timestamps are taken from it.
    now: f64,
    /// Time of the last heartbeat broadcast.
    last_heartbeat: f64,
    telemetry: Telemetry,
    /// The `srv.*` counters since the last [`publish`](Self::publish):
    /// every entry point a tick loop calls publishes before it returns,
    /// the per-op primitives and [`apply`](Self::apply) leave that to
    /// their caller (`apply` publishes at the tick-boundary records).
    tally: ServerTally,
    /// `Some` when this server is one partition of a cluster; `None` for
    /// the classic single-server deployment (whose code paths are
    /// untouched by the scope machinery).
    scope: Option<PartitionScope>,
    /// Remote-region stubs for border-straddling queries homed elsewhere.
    stubs: BTreeMap<QueryId, StubEntry>,
    /// Outgoing inter-server messages `(destination partition, msg)`,
    /// drained by the cluster coordinator after every operation.
    outbox: Vec<(u32, ClusterMsg)>,
    /// Reusable per-tick uplink drain buffer (cleared, not reallocated).
    uplink_scratch: Vec<(NodeId, Uplink)>,
    /// Durable input journal (see [`crate::journal`]); `None` = no
    /// persistence. Injected like `telemetry`.
    journal: Option<Arc<dyn JournalSink>>,
    /// Journal suppression depth: while > 0 the executing op was already
    /// journaled at an outer entry point (or is itself a replay), so the
    /// nested primitives it decomposes into must not double-log.
    jdepth: u32,
    /// Last shared-epoch floor written to the journal (scoped servers
    /// only) — deduplicates [`LogRecord::Floor`] records.
    journal_floor: u64,
    /// FOT/SQT key-set changes since the last
    /// [`take_home_log`](Self::take_home_log); `None` (the default) keeps
    /// no log — in-process servers answer `has_focal`/`has_query` directly
    /// and nothing would drain it.
    home_log: Option<Vec<HomeChange>>,
}

impl Server {
    pub fn new(config: Arc<ProtocolConfig>) -> Self {
        let cells = config.grid.num_cells();
        Server {
            config,
            fot: FotTable::default(),
            sqt: BTreeMap::new(),
            members: BTreeSet::new(),
            rqi: vec![Vec::new(); cells],
            pending: BTreeMap::new(),
            next_qid: 0,
            epoch: 0,
            now: 0.0,
            last_heartbeat: f64::NEG_INFINITY,
            telemetry: Telemetry::new(),
            tally: Tally::new(srv_keys::ALL),
            scope: None,
            stubs: BTreeMap::new(),
            outbox: Vec::new(),
            uplink_scratch: Vec::new(),
            journal: None,
            jdepth: 0,
            journal_floor: 0,
            home_log: None,
        }
    }

    /// Redirects instrumentation into a shared telemetry sink (builder
    /// style). By default a private sink is used.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// Scopes this server to one partition of a grid-sharded cluster
    /// (builder style). See [`PartitionScope`].
    pub fn with_scope(mut self, scope: PartitionScope) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Attaches a durable input journal (builder style): every mutating
    /// entry point appends one [`LogRecord`] before executing, so replaying
    /// the log against a fresh server reproduces this one byte-for-byte.
    pub fn with_journal(mut self, sink: Arc<dyn JournalSink>) -> Self {
        self.set_journal(Some(sink));
        self
    }

    /// Attaches or detaches the journal sink at runtime (failover wipes
    /// and re-attaches per-partition logs).
    pub fn set_journal(&mut self, sink: Option<Arc<dyn JournalSink>>) {
        self.journal = sink;
        self.journal_floor = 0;
    }

    /// Redirects instrumentation into a (possibly shared) telemetry sink
    /// at runtime — the setter twin of [`with_telemetry`](Self::with_telemetry).
    /// Counts not yet published go to the old sink, where they were made.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.publish();
        self.telemetry = telemetry;
    }

    /// Publishes the `srv.*` counters counted since the last publish into
    /// the telemetry sink (one lock; none when nothing was counted). Every
    /// entry point a tick loop calls does this before it returns; a caller
    /// of the per-op primitives or of [`apply`](Self::apply) publishes
    /// whenever it wants the sink to be current.
    pub fn publish(&mut self) {
        self.tally.flush(&self.telemetry);
    }

    /// The partition scope, when this server is part of a cluster.
    pub fn scope(&self) -> Option<&PartitionScope> {
        self.scope.as_ref()
    }

    /// Rebinds a scoped server to a different [`PartitionScope`] of the
    /// same partition slot — the swap-in step after a journal replay,
    /// which runs against a *private* table/epoch so historical ownership
    /// resolves correctly mid-replay. The replayed epoch is carried into
    /// the new shared sequencer (`fetch_max`, so a fresher shared value
    /// wins).
    #[doc(hidden)]
    pub fn rebind_scope(&mut self, scope: PartitionScope) {
        let old = self.scope.as_ref().expect("rebind needs a scoped server");
        assert_eq!(
            old.partition(),
            scope.partition(),
            "rebind keeps the partition slot"
        );
        let replayed = old.epoch.load(Ordering::Relaxed);
        scope.epoch.fetch_max(replayed, Ordering::Relaxed);
        self.scope = Some(scope);
    }

    /// Raises the (shared) epoch to at least `floor` — the replay image of
    /// the per-request `fetch_max` the partition RPC protocol performs,
    /// driven by [`LogRecord::Floor`] records.
    #[doc(hidden)]
    pub fn raise_epoch(&mut self, floor: u64) {
        match &self.scope {
            Some(s) => {
                s.epoch.fetch_max(floor, Ordering::Relaxed);
            }
            None => self.epoch = self.epoch.max(floor),
        }
    }

    /// Whether the next journal-worthy op should append a record.
    #[inline]
    fn journaling(&self) -> bool {
        self.jdepth == 0 && self.journal.is_some()
    }

    /// Appends one record to the journal. Scoped servers first log the
    /// observed shared-epoch floor when it moved since the last append:
    /// sibling partitions advance the shared sequencer between our ops,
    /// and the seq stamps we write depend on it. Callers gate on
    /// [`journaling`](Self::journaling) so hot paths skip record
    /// construction when no journal is attached.
    fn jot(&mut self, rec: LogRecord) {
        debug_assert!(self.journaling());
        let Some(j) = &self.journal else { return };
        if let Some(s) = &self.scope {
            let observed = s.epoch.load(Ordering::Relaxed);
            if observed != self.journal_floor {
                self.journal_floor = observed;
                j.append(&LogRecord::Floor(observed));
            }
        }
        j.append(&rec);
    }

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

    #[inline]
    fn note_home(&mut self, change: HomeChange) {
        if let Some(log) = &mut self.home_log {
            log.push(change);
        }
    }

    /// Number of remote-region stubs currently installed.
    pub fn num_stubs(&self) -> usize {
        self.stubs.len()
    }

    /// Bumps the state-change epoch and returns the new value. Scoped
    /// servers share one atomic sequencer across the cluster so seq
    /// stamps form a single global order; the single-server path keeps
    /// its private counter.
    fn bump_epoch(&mut self) -> u64 {
        match &self.scope {
            Some(s) => {
                let v = s.epoch.fetch_add(1, Ordering::Relaxed) + 1;
                self.epoch = v;
                v
            }
            None => {
                self.epoch += 1;
                self.epoch
            }
        }
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Shared handle to the protocol configuration — what a twin server
    /// rebuilt from the durable log must be constructed with.
    pub fn config_arc(&self) -> Arc<ProtocolConfig> {
        Arc::clone(&self.config)
    }

    /// Server-side work counters, materialized from the telemetry
    /// registry. When the sink is shared the view aggregates everything
    /// recorded into it.
    pub fn stats(&self) -> ServerStats {
        ServerStats::from_snapshot(&self.telemetry.snapshot())
    }

    pub fn num_queries(&self) -> usize {
        self.sqt.len()
    }

    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.sqt.keys().copied()
    }

    /// Current result set of a query (object ids inside the region that
    /// satisfy the filter, as reported by the moving objects).
    pub fn query_result(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        self.sqt.get(&qid).map(|e| &e.result)
    }

    /// The focal object of a query.
    pub fn query_focal(&self, qid: QueryId) -> Option<ObjectId> {
        self.sqt.get(&qid).map(|e| e.focal)
    }

    /// Queries whose monitoring region covers the given cell (RQI lookup).
    pub fn nearby_queries(&self, cell: CellId) -> &[QueryId] {
        &self.rqi[self.config.grid.flat_index(cell)]
    }

    /// Installs a moving query `(oid, region, filter)`. If the focal
    /// object's position is unknown the installation is deferred: the
    /// server unicasts a position request and completes the install when
    /// the `PositionReply` arrives. Returns the assigned query id.
    pub fn install_query(
        &mut self,
        focal: ObjectId,
        region: QueryRegion,
        filter: Filter,
        net: &mut Net,
    ) -> QueryId {
        self.install_query_with_lifetime(focal, region, filter, None, net)
    }

    /// Installs a query that expires at an absolute time (the paper's
    /// "during the next 2 hours" / "next 20 minutes" query durations).
    /// Expired queries are torn down by [`expire_queries`](Self::expire_queries).
    pub fn install_query_with_lifetime(
        &mut self,
        focal: ObjectId,
        region: QueryRegion,
        filter: Filter,
        expires_at: Option<f64>,
        net: &mut Net,
    ) -> QueryId {
        let qid = self.install(focal, region, filter, expires_at, net);
        self.publish();
        qid
    }

    /// [`install_query_with_lifetime`](Self::install_query_with_lifetime)
    /// without the publish.
    fn install(
        &mut self,
        focal: ObjectId,
        region: QueryRegion,
        filter: Filter,
        expires_at: Option<f64>,
        net: &mut Net,
    ) -> QueryId {
        let qid = QueryId(self.next_qid);
        if self.journaling() {
            self.jot(LogRecord::InstallQuery {
                qid,
                focal,
                region,
                filter: filter.clone(),
                expires_at,
            });
        }
        self.next_qid += 1;
        let filter = Arc::new(filter);
        if self.fot.contains_key(&focal) {
            self.complete_install(qid, focal, region, filter, expires_at, net);
        } else {
            let q = self.pending.entry(focal).or_default();
            let first = q.is_empty();
            q.push(PendingInstall {
                qid,
                region,
                filter,
                expires_at,
            });
            if first {
                self.tally.incr(srv_slots::UNICAST_OPS);
                net.send_unicast(focal.node(), Downlink::PositionRequest);
            }
        }
        qid
    }

    /// Removes every query whose lifetime has ended (call once per time
    /// step with the current time). Returns the expired query ids.
    pub fn expire_queries(&mut self, now: f64, net: &mut Net) -> Vec<QueryId> {
        let expired = self.expired_query_ids(now);
        for &qid in &expired {
            self.telemetry
                .event(EventKind::QueryExpired { qid: qid.0 as u64 });
            self.remove(qid, net);
        }
        self.publish();
        expired
    }

    /// Finishes installation once the focal object's motion is in the FOT.
    #[allow(clippy::too_many_arguments)]
    fn complete_install(
        &mut self,
        qid: QueryId,
        focal: ObjectId,
        region: QueryRegion,
        filter: Arc<Filter>,
        expires_at: Option<f64>,
        net: &mut Net,
    ) {
        let grid = self.config.grid.clone();
        let fot = self
            .fot
            .get_mut(&focal)
            .expect("complete_install requires FOT entry");
        let curr_cell = grid.cell_of(fot.motion.pos);
        let mon_region = grid.monitoring_region(curr_cell, region.reach());
        // Assign the lowest free group slot (bit index for bitmap reports).
        // A focal object with more than 64 queries exhausts the bitmap;
        // such queries get the NO_SLOT sentinel and fall back to itemized
        // result reports.
        let slot = (0..64)
            .find(|b| fot.used_slots & (1u64 << b) == 0)
            .map(|b| b as u8)
            .unwrap_or(crate::messages::NO_SLOT);
        if slot != crate::messages::NO_SLOT {
            fot.used_slots |= 1u64 << slot;
        }
        let newly_focal = fot.queries.is_empty();
        fot.queries.push(qid);
        fot.queries.sort_unstable();

        let seq = self.bump_epoch();
        // A pre-crash stub can survive here when a query lost with a dead
        // partition is re-installed on a partition that used to monitor
        // it: retire the stub's coverage before the fresh row takes over.
        if let Some(s) = self.stubs.remove(&qid) {
            self.rqi_remove(qid, &s.mon_region);
        }
        let row = SqtEntry {
            focal,
            region,
            filter,
            curr_cell,
            mon_region,
            slot,
            seq,
            expires_at,
            result: BTreeSet::new(),
        };
        match self.sqt.insert(qid, row) {
            None => self.note_home(HomeChange::QueryAdded(qid)),
            Some(old) => self.index_row(qid, old.result, false),
        }
        self.rqi_insert(qid, &mon_region);
        self.emit_stub_update(qid, None);
        self.telemetry.event(EventKind::QueryInstalled {
            qid: qid.0 as u64,
            focal: focal.0 as u64,
        });

        // Make sure the focal object knows it must report motion changes.
        if newly_focal {
            self.tally.incr(srv_slots::UNICAST_OPS);
            net.send_unicast(focal.node(), Downlink::FocalNotify { is_focal: true });
        }
        // Ship the query to every object in the monitoring region.
        let info = self.group_info_for(qid);
        self.tally.add(
            srv_slots::BROADCAST_OPS,
            net.broadcast_region(
                &self.config.grid,
                &mon_region,
                Downlink::QueryState { info },
            ) as u64,
        );
    }

    /// Changes the spatial region of an installed query (e.g. adaptive
    /// radius control for k-nearest-neighbor layers). Recomputes the
    /// monitoring region, fixes the RQI and broadcasts the new query state
    /// to the union of the old and new monitoring regions — objects
    /// falling outside the new region uninstall (and report any lost
    /// targethood), objects newly covered install.
    pub fn update_query_region(
        &mut self,
        qid: QueryId,
        region: QueryRegion,
        net: &mut Net,
    ) -> bool {
        let updated = self.update_region(qid, region, net);
        self.publish();
        updated
    }

    /// [`update_query_region`](Self::update_query_region) without the
    /// publish.
    fn update_region(&mut self, qid: QueryId, region: QueryRegion, net: &mut Net) -> bool {
        if self.journaling() {
            self.jot(LogRecord::UpdateRegion { qid, region });
        }
        let grid = self.config.grid.clone();
        if !self.sqt.contains_key(&qid) {
            return false;
        }
        let seq = self.bump_epoch();
        let e = self.sqt.get_mut(&qid).expect("checked above");
        let old_mon = e.mon_region;
        let new_mon = grid.monitoring_region(e.curr_cell, region.reach());
        e.region = region;
        e.mon_region = new_mon;
        e.seq = seq;
        self.rqi_remove(qid, &old_mon);
        self.rqi_insert(qid, &new_mon);
        self.emit_stub_update(qid, Some(old_mon));
        let combined = old_mon.union(&new_mon);
        let msg = Downlink::QueryState {
            info: self.group_info_for(qid),
        };
        self.tally.add(
            srv_slots::BROADCAST_OPS,
            net.broadcast_region(&grid, &combined, msg) as u64,
        );
        true
    }

    /// Removes a query from the system, notifying its monitoring region.
    pub fn remove_query(&mut self, qid: QueryId, net: &mut Net) -> bool {
        let removed = self.remove(qid, net);
        self.publish();
        removed
    }

    /// [`remove_query`](Self::remove_query) without the publish.
    fn remove(&mut self, qid: QueryId, net: &mut Net) -> bool {
        if self.journaling() {
            self.jot(LogRecord::RemoveQuery(qid));
        }
        let Some(entry) = self.sqt.remove(&qid) else {
            return false;
        };
        self.note_home(HomeChange::QueryRemoved(qid));
        self.rqi_remove(qid, &entry.mon_region);
        self.index_row(qid, entry.result, false);
        if let Some(fot) = self.fot.get_mut(&entry.focal) {
            fot.queries.retain(|&q| q != qid);
            if entry.slot != crate::messages::NO_SLOT {
                fot.used_slots &= !(1u64 << entry.slot);
            }
            if fot.queries.is_empty() {
                self.fot.remove(&entry.focal);
                self.note_home(HomeChange::FocalRemoved(entry.focal));
                self.tally.incr(srv_slots::UNICAST_OPS);
                net.send_unicast(
                    entry.focal.node(),
                    Downlink::FocalNotify { is_focal: false },
                );
            }
        }
        let epoch = self.bump_epoch();
        self.emit_stub_remove(qid, entry.mon_region, epoch);
        self.tally.add(
            srv_slots::BROADCAST_OPS,
            net.broadcast_region(
                &self.config.grid,
                &entry.mon_region,
                Downlink::RemoveQuery { qid, epoch },
            ) as u64,
        );
        self.telemetry
            .event(EventKind::QueryRemoved { qid: qid.0 as u64 });
        true
    }

    /// Drains and processes all pending uplink messages. Call once per
    /// tick. The drain buffer is a persistent scratch — at million-object
    /// scale the tick applies its uplink batch without allocating.
    pub fn tick(&mut self, net: &mut Net) {
        let mut uplinks = std::mem::take(&mut self.uplink_scratch);
        net.drain_uplinks_into(&mut uplinks);
        for (from, msg) in uplinks.drain(..) {
            self.uplink(from, msg, net);
        }
        self.uplink_scratch = uplinks;
        self.publish();
    }

    /// Processes one uplink message.
    pub fn handle_uplink(&mut self, from: NodeId, msg: Uplink, net: &mut Net) {
        self.uplink(from, msg, net);
        self.publish();
    }

    /// [`handle_uplink`](Self::handle_uplink) without the publish.
    fn uplink(&mut self, from: NodeId, msg: Uplink, net: &mut Net) {
        // Journal the uplink whole at the outermost dispatch; the
        // primitives it decomposes into below are suppressed.
        if self.journaling() {
            self.jot(LogRecord::Uplink {
                from: from.0,
                msg: msg.clone(),
            });
        }
        self.jdepth += 1;
        self.handle_uplink_inner(from, msg, net);
        self.jdepth -= 1;
    }

    fn handle_uplink_inner(&mut self, from: NodeId, msg: Uplink, net: &mut Net) {
        self.tally.incr(srv_slots::UPLINKS);
        // Any uplink from a focal object renews its lease.
        self.renew_lease(ObjectId(from.0));
        match msg {
            Uplink::VelocityReport { oid, motion } => {
                debug_assert_eq!(from.0, oid.0);
                self.on_velocity_report(oid, motion, net);
            }
            Uplink::CellChange {
                oid,
                prev_cell,
                new_cell,
                motion,
            } => {
                self.on_cell_change(oid, prev_cell, new_cell, motion, net);
            }
            Uplink::ResultUpdate { oid, changes } => {
                self.tally.incr(srv_slots::RESULT_UPDATES);
                for (qid, is_target) in changes {
                    self.apply_result_change(qid, oid, is_target, net);
                }
            }
            Uplink::GroupResultUpdate {
                oid,
                focal,
                mask,
                targets,
            } => {
                self.tally.incr(srv_slots::RESULT_UPDATES);
                self.apply_group_result_update(oid, focal, mask, targets, net);
            }
            Uplink::PositionReply {
                oid,
                motion,
                max_vel,
            } => {
                self.refresh_focal_motion(oid, motion, max_vel, true);
                if let Some(pending) = self.pending.remove(&oid) {
                    for p in pending {
                        self.complete_install(p.qid, oid, p.region, p.filter, p.expires_at, net);
                    }
                }
            }
            Uplink::Resync {
                oid,
                cell,
                motion,
                max_vel,
                fresh,
            } => {
                self.on_resync(oid, cell, motion, max_vel, fresh, net);
            }
            Uplink::LqtSync { oid, entries } => {
                self.on_lqt_sync(oid, entries, net);
            }
        }
    }

    /// Refreshes (or, when `insert` is set, creates) the FOT row for an
    /// object that reported its motion, keeping the fresher sample.
    #[doc(hidden)]
    pub fn refresh_focal_motion(
        &mut self,
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        insert: bool,
    ) {
        if self.journaling() {
            self.jot(LogRecord::RefreshFocalMotion {
                oid,
                motion,
                max_vel,
                insert,
            });
        }
        let now = self.now;
        if insert && !self.fot.contains_key(&oid) {
            self.fot.entry_or_insert(
                oid,
                FotEntry {
                    motion,
                    max_vel,
                    queries: Vec::new(),
                    used_slots: 0,
                    last_heard: now,
                },
            );
            self.note_home(HomeChange::FocalAdded(oid));
        }
        let mut refreshed: Option<(f64, Vec<QueryId>)> = None;
        if let Some(f) = self.fot.get_mut(&oid) {
            if motion.tm >= f.motion.tm {
                f.motion = motion;
                f.max_vel = max_vel;
                if !f.queries.is_empty() {
                    refreshed = Some((f.max_vel, f.queries.clone()));
                }
            }
            f.last_heard = now;
        }
        // Keep remote stubs' motion in step (seqs unchanged: a motion
        // refresh is not a disseminated state change).
        if self.scope.is_some() {
            if let Some((max_vel, queries)) = refreshed {
                let stamped: Vec<(QueryId, u64)> = queries
                    .iter()
                    .filter_map(|q| self.sqt.get(q).map(|e| (*q, e.seq)))
                    .collect();
                self.emit_stub_motion(oid, motion, max_vel, &stamped);
            }
        }
    }

    /// Reconnect / digest-mismatch handshake: refresh what we know about
    /// the object, purge it from results it can no longer vouch for when
    /// it restarted empty, complete any deferred installs, and replay the
    /// authoritative query state of its grid cell.
    fn on_resync(
        &mut self,
        oid: ObjectId,
        cell: CellId,
        motion: LinearMotion,
        max_vel: f64,
        fresh: bool,
        net: &mut Net,
    ) {
        // Only materialize a FOT row if an install is waiting on this
        // object; otherwise just refresh an existing one.
        let has_pending = self.pending.contains_key(&oid);
        let prior = self.fot.get(&oid).map(|f| (f.motion, f.queries.clone()));
        self.refresh_focal_motion(oid, motion, max_vel, has_pending);
        // Focal repair: a dropped CellChange or VelocityReport leaves our
        // view of this focal stale — and the focal, believing its report
        // arrived, would never re-send it. The resync carries the
        // authoritative (cell, motion); push whichever piece disagrees
        // back through the normal update machinery (a no-op when nothing
        // is stale, since focals resync with their advertised motion).
        if let Some((old_motion, queries)) = prior {
            if !queries.is_empty() {
                let stale_cell = queries
                    .iter()
                    .filter_map(|q| self.sqt.get(q))
                    .any(|e| e.curr_cell != cell);
                if stale_cell {
                    let prev = self.sqt[&queries[0]].curr_cell;
                    self.on_cell_change(oid, prev, cell, motion, net);
                } else if motion.tm > old_motion.tm {
                    self.on_velocity_report(oid, motion, net);
                }
            }
        }
        if fresh {
            // A crashed object lost its local state: its containment
            // reports are void until it re-evaluates.
            let stale = self.purge_object(oid);
            self.tally
                .add(srv_slots::STALE_RESULTS_PURGED, stale.len() as u64);
            for qid in stale {
                self.deliver_result_delta(qid, oid, false, net);
            }
        }
        if let Some(pending) = self.pending.remove(&oid) {
            for p in pending {
                self.complete_install(p.qid, oid, p.region, p.filter, p.expires_at, net);
            }
        }
        self.focal_reassert(oid, net);
        self.cell_sync_reply(oid, cell, net);
    }

    /// Removes `oid` from every local result set, returning the queries it
    /// was purged from (result deltas and counters are the caller's job).
    #[doc(hidden)]
    pub fn purge_object(&mut self, oid: ObjectId) -> Vec<QueryId> {
        if self.journaling() {
            self.jot(LogRecord::PurgeObject(oid));
        }
        let stale: Vec<QueryId> = self.memberships(oid).collect();
        for &qid in &stale {
            self.set_member(qid, oid, false);
        }
        stale
    }

    /// The queries whose result currently holds `oid`, ascending — one
    /// range scan of the membership index.
    fn memberships(&self, oid: ObjectId) -> impl Iterator<Item = QueryId> + '_ {
        self.members
            .range((oid, QueryId(0))..=(oid, QueryId(u32::MAX)))
            .map(|&(_, qid)| qid)
    }

    /// [`memberships`](Self::memberships) for the cluster coordinator,
    /// which merges them across partitions to reconcile an `LqtSync`.
    #[doc(hidden)]
    pub fn object_memberships(&self, oid: ObjectId) -> Vec<QueryId> {
        self.memberships(oid).collect()
    }

    /// Sets whether `oid` is in `qid`'s result, keeping the membership
    /// index in step; returns whether the membership changed (`false`
    /// for an unknown query). The only code that edits a result set in
    /// place.
    fn set_member(&mut self, qid: QueryId, oid: ObjectId, is_target: bool) -> bool {
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

    /// Re-asserts focality: the original FocalNotify may have been lost
    /// (or wiped by a crash), which would silence dead reckoning.
    #[doc(hidden)]
    pub fn focal_reassert(&mut self, oid: ObjectId, net: &mut Net) {
        if self.journaling() {
            self.jot(LogRecord::FocalReassert(oid));
        }
        if self.fot.get(&oid).is_some_and(|f| !f.queries.is_empty()) {
            self.tally.incr(srv_slots::UNICAST_OPS);
            net.send_unicast(oid.node(), Downlink::FocalNotify { is_focal: true });
        }
    }

    /// Replays the authoritative query state of `cell` to a resyncing
    /// object.
    #[doc(hidden)]
    pub fn cell_sync_reply(&mut self, oid: ObjectId, cell: CellId, net: &mut Net) {
        if self.journaling() {
            self.jot(LogRecord::CellSyncReply { oid, cell });
        }
        let qids = self.rqi[self.config.grid.flat_index(cell)].clone();
        let infos: Vec<QueryGroupInfo> = self
            .group_queries(&{
                let mut sorted = qids;
                sorted.sort_unstable();
                sorted
            })
            .into_iter()
            .map(|g| self.group_info_for(g[0]))
            .collect();
        self.tally.incr(srv_slots::RESYNC_REPLIES);
        self.tally.incr(srv_slots::UNICAST_OPS);
        net.send_unicast(
            oid.node(),
            Downlink::CellSync {
                cell,
                epoch: self.current_epoch(),
                infos,
            },
        );
    }

    /// Soft-state refresh: reconcile `oid`'s result memberships against
    /// the object's full local view. Queries the object does not mention
    /// are queries it does not hold — it cannot be a target. Only a query
    /// it mentions or is currently a member of can change, so those (in
    /// ascending id, the delta order) are all that is visited.
    fn on_lqt_sync(&mut self, oid: ObjectId, entries: Vec<(QueryId, bool)>, net: &mut Net) {
        self.tally.incr(srv_slots::LQT_SYNCS);
        let mentioned: BTreeMap<QueryId, bool> = entries.into_iter().collect();
        let mut qids: Vec<QueryId> = mentioned.keys().copied().collect();
        qids.extend(self.memberships(oid));
        qids.sort_unstable();
        qids.dedup();
        let mut deltas: Vec<(QueryId, bool)> = Vec::new();
        let mut stale = 0u64;
        for qid in qids {
            let is_target = mentioned.get(&qid).copied().unwrap_or(false);
            if self.lqt_reconcile_one(qid, oid, is_target) {
                if !is_target && !mentioned.contains_key(&qid) {
                    stale += 1;
                }
                deltas.push((qid, is_target));
            }
        }
        self.tally.add(srv_slots::STALE_RESULTS_PURGED, stale);
        for (qid, entered) in deltas {
            self.deliver_result_delta(qid, oid, entered, net);
        }
    }

    /// Reconciles one query's result membership for `oid`; returns whether
    /// the membership changed. Counters and delta delivery are the
    /// caller's job.
    #[doc(hidden)]
    pub fn lqt_reconcile_one(&mut self, qid: QueryId, oid: ObjectId, is_target: bool) -> bool {
        if self.journaling() {
            self.jot(LogRecord::LqtReconcile {
                qid,
                oid,
                is_target,
            });
        }
        self.set_member(qid, oid, is_target)
    }

    /// Runs the periodic fault-tolerance duties; the driver calls this
    /// once per time step with the current server time, before processing
    /// the tick's uplinks. No-op unless [`ProtocolConfig::fault_tolerant`].
    ///
    /// Every `heartbeat_secs` the server: (1) expires leases — focal
    /// objects silent for longer than `lease_secs` get their queries torn
    /// down (with tombstoned removal broadcasts) and re-announced through
    /// the position-request handshake; (2) retries the position request of
    /// every still-pending install (the original unicast may have been
    /// lost); (3) broadcasts a heartbeat through every base station with
    /// the current epoch and a per-cell digest of the RQI, against which
    /// objects verify their local query tables.
    pub fn heartbeat(&mut self, now: f64, net: &mut Net) {
        // One record covers the whole heartbeat — due-ness, lease expiry
        // and the nested query teardowns replay deterministically from the
        // same clock value.
        if self.journaling() {
            self.jot(LogRecord::Heartbeat(now));
        }
        self.jdepth += 1;
        self.heartbeat_inner(now, net);
        self.jdepth -= 1;
        self.publish();
    }

    fn heartbeat_inner(&mut self, now: f64, net: &mut Net) {
        self.now = now;
        if !self.config.fault_tolerant() || now - self.last_heartbeat < self.config.heartbeat_secs {
            return;
        }
        self.last_heartbeat = now;
        self.tally.incr(srv_slots::HEARTBEATS);

        // (1) Lease expiry. Deterministic order via the BTreeMap.
        let expired = self.expired_leases();
        for (oid, qids) in expired {
            self.tally.incr(srv_slots::LEASES_EXPIRED);
            self.telemetry
                .event(EventKind::LeaseExpired { oid: oid.0 as u64 });
            for qid in qids {
                let (region, filter, expires_at) =
                    self.reinstall_info(qid).expect("leased query in SQT");
                self.remove(qid, net);
                // Re-announce under the same id; the install completes
                // when the object answers the position request below.
                self.pending.entry(oid).or_default().push(PendingInstall {
                    qid,
                    region,
                    filter,
                    expires_at,
                });
            }
        }

        // (2) Retry pending installs.
        let waiting: Vec<ObjectId> = self.pending.keys().copied().collect();
        for oid in waiting {
            self.tally.incr(srv_slots::UNICAST_OPS);
            net.send_unicast(oid.node(), Downlink::PositionRequest);
        }

        // (3) Digest beacon. A heartbeat is a state change of its own (it
        // demands an answer), so it bumps the epoch — objects use the
        // epoch to answer each beacon exactly once however many stations
        // they hear it from.
        let epoch = self.bump_epoch();
        let cell_digests = self.digest_cells();
        let sent = net.broadcast_all(Downlink::Heartbeat {
            epoch,
            cell_digests,
        });
        self.tally.add(srv_slots::BROADCAST_OPS, sent as u64);
    }

    /// Focal objects whose lease has lapsed, with their queries (in
    /// deterministic ascending order). Read-only; tear-down is the
    /// caller's job.
    #[doc(hidden)]
    pub fn expired_leases(&self) -> Vec<(ObjectId, Vec<QueryId>)> {
        let lease = self.config.lease_secs;
        let now = self.now;
        self.fot
            .iter()
            .filter(|(_, f)| !f.queries.is_empty() && now - f.last_heard > lease)
            .map(|(&oid, f)| (oid, f.queries.clone()))
            .collect()
    }

    /// What it takes to re-announce a query under the same id after a
    /// lease expiry.
    #[doc(hidden)]
    pub fn reinstall_info(&self, qid: QueryId) -> Option<(QueryRegion, Arc<Filter>, Option<f64>)> {
        self.sqt
            .get(&qid)
            .map(|e| (e.region, Arc::clone(&e.filter), e.expires_at))
    }

    /// Per-cell RQI digests over this server's (owned) cells, in ascending
    /// flat-index order. Stub-backed entries digest with their stub seq,
    /// which tracks the home partition's seq.
    #[doc(hidden)]
    pub fn digest_cells(&self) -> Vec<(CellId, u64)> {
        let grid = &self.config.grid;
        let mut cell_digests = Vec::new();
        for (idx, qids) in self.rqi.iter().enumerate() {
            if qids.is_empty() {
                continue;
            }
            let mut sorted = qids.clone();
            sorted.sort_unstable();
            let digest = state_digest(sorted.iter().map(|q| (*q, self.q_seq(*q))));
            cell_digests.push((grid.cell_at(idx), digest));
        }
        cell_digests
    }

    /// The current server epoch (monotone state-change counter; shared
    /// across the cluster when this server is a partition).
    pub fn current_epoch(&self) -> u64 {
        match &self.scope {
            Some(s) => s.epoch.load(Ordering::Relaxed),
            None => self.epoch,
        }
    }

    /// Advances the (shared) epoch on behalf of a cluster coordinator —
    /// the sequencing primitive behind the heartbeat beacon.
    #[doc(hidden)]
    pub fn bump_epoch_for_coordinator(&mut self) -> u64 {
        if self.journaling() {
            self.jot(LogRecord::BumpEpoch);
        }
        self.bump_epoch()
    }

    /// A focal object's dead-reckoning report: refresh the FOT and relay to
    /// the monitoring regions of its queries.
    #[doc(hidden)]
    pub fn on_velocity_report(&mut self, oid: ObjectId, motion: LinearMotion, net: &mut Net) {
        if self.journaling() {
            self.jot(LogRecord::VelocityReport { oid, motion });
        }
        self.tally.incr(srv_slots::VELOCITY_REPORTS);
        self.telemetry
            .event(EventKind::VelocityReport { oid: oid.0 as u64 });
        let Some(fot) = self.fot.get_mut(&oid) else {
            return; // Stale report from an object that is no longer focal.
        };
        fot.motion = motion;
        let max_vel = fot.max_vel;
        let queries = fot.queries.clone();
        // One epoch bump covers the whole report; every affected query is
        // stamped with it so receivers can discard stale duplicates.
        let seq = self.bump_epoch();
        let mut stamped: Vec<(QueryId, u64)> = Vec::new();
        for &qid in &queries {
            if let Some(e) = self.sqt.get_mut(&qid) {
                e.seq = seq;
                stamped.push((qid, seq));
            }
        }
        if self.scope.is_some() {
            self.emit_stub_motion(oid, motion, max_vel, &stamped);
        }
        for group in self.group_queries(&queries) {
            let mon_region = self.sqt[&group[0]].mon_region;
            let msg = match self.config.propagation {
                Propagation::Eager => Downlink::VelocityChange {
                    focal: oid,
                    motion,
                    qids: group.clone(),
                    seq,
                },
                // Lazy propagation expands velocity updates to full query
                // state so objects that recently changed cells can install.
                Propagation::Lazy => Downlink::QueryState {
                    info: self.group_info_for(group[0]),
                },
            };
            self.tally.add(
                srv_slots::BROADCAST_OPS,
                net.broadcast_region(&self.config.grid, &mon_region, msg) as u64,
            );
        }
    }

    /// An object crossed a grid cell boundary.
    fn on_cell_change(
        &mut self,
        oid: ObjectId,
        prev_cell: CellId,
        new_cell: CellId,
        motion: LinearMotion,
        net: &mut Net,
    ) {
        self.tally.incr(srv_slots::CELL_CHANGES);
        self.apply_cell_change_focal(oid, new_cell, motion, net);
        self.apply_cell_change_fresh(oid, prev_cell, new_cell, motion, net);
    }

    /// Focal-object half of a cell change: recompute monitoring regions
    /// and push the new query state to the union of old and new regions.
    /// In a cluster this runs on the focal object's home partition (after
    /// any cross-border migration); the coordinator counts the cell
    /// change itself.
    #[doc(hidden)]
    pub fn apply_cell_change_focal(
        &mut self,
        oid: ObjectId,
        new_cell: CellId,
        motion: LinearMotion,
        net: &mut Net,
    ) {
        if self.journaling() {
            self.jot(LogRecord::CellChangeFocal {
                oid,
                new_cell,
                motion,
            });
        }
        let grid = self.config.grid.clone();
        let Some(fot) = self.fot.get_mut(&oid) else {
            return;
        };
        fot.motion = motion;
        let queries = fot.queries.clone();
        // One epoch bump for the whole cell change.
        let seq = self.bump_epoch();
        for &qid in &queries {
            if let Some(e) = self.sqt.get_mut(&qid) {
                e.seq = seq;
            }
        }
        // Group by (old region, new region): queries that travel
        // together must agree on both, otherwise each goes alone.
        // (Same old region does not always imply same new region: the
        // universe boundary clips monitoring regions asymmetrically.)
        let mut groups: BTreeMap<(GridRect, GridRect), Vec<QueryId>> = BTreeMap::new();
        for &qid in &queries {
            let e = &self.sqt[&qid];
            let old_region = e.mon_region;
            let new_region = grid.monitoring_region(new_cell, e.region.reach());
            let key = if self.config.grouping {
                (old_region, new_region)
            } else {
                // Degenerate per-query key: single-cell marker regions
                // distinct per query id keep every query separate.
                (
                    GridRect {
                        x0: qid.0,
                        y0: qid.0,
                        x1: qid.0,
                        y1: qid.0,
                    },
                    new_region,
                )
            };
            groups.entry(key).or_default().push(qid);
        }
        for ((_, _), group) in groups {
            let old_region = self.sqt[&group[0]].mon_region;
            let new_region = grid.monitoring_region(new_cell, self.sqt[&group[0]].region.reach());
            for &qid in &group {
                let e = self.sqt.get_mut(&qid).expect("grouped query in SQT");
                e.curr_cell = new_cell;
                e.mon_region = new_region;
            }
            for &qid in &group {
                self.rqi_remove(qid, &old_region);
                self.rqi_insert(qid, &new_region);
            }
            for &qid in &group {
                self.emit_stub_update(qid, Some(old_region));
            }
            let combined = old_region.union(&new_region);
            let msg = Downlink::QueryState {
                info: self.group_info_for(group[0]),
            };
            self.tally.add(
                srv_slots::BROADCAST_OPS,
                net.broadcast_region(&grid, &combined, msg) as u64,
            );
        }
    }

    /// Non-focal half of a cell change. Eager propagation: tell the object
    /// which queries are new in its cell. (Under lazy propagation only
    /// focal objects send cell changes, and we answer them too — they
    /// contacted us anyway.) In a cluster this runs on the partition
    /// owning `new_cell`; freshness is decided by the monitoring region
    /// (partition-independent), which on a single server agrees exactly
    /// with the `RQI[prev]` membership test by the RQI/SQT invariant.
    #[doc(hidden)]
    pub fn apply_cell_change_fresh(
        &mut self,
        oid: ObjectId,
        prev_cell: CellId,
        new_cell: CellId,
        motion: LinearMotion,
        net: &mut Net,
    ) {
        if self.journaling() {
            // The handler below never reads `motion`; it rides along so
            // the trajectory index covers non-focal objects too.
            self.jot(LogRecord::CellChangeFresh {
                oid,
                prev_cell,
                new_cell,
                motion,
            });
        }
        // The clamped cell: a wire-carried cell may overshoot the grid.
        let new_qids = &self.rqi[self.config.grid.clamped_flat_index(new_cell)];
        // Most crossings land in a cell no query monitors: no reply.
        if new_qids.is_empty() {
            return;
        }
        let fresh: Vec<QueryId> = new_qids
            .iter()
            .filter(|q| !self.q_mon(**q).is_some_and(|m| m.contains(prev_cell)))
            .copied()
            .collect();
        let infos: Vec<QueryGroupInfo> = self
            .group_queries(&fresh)
            .into_iter()
            .map(|g| self.group_info_for(g[0]))
            .collect();
        if !infos.is_empty() {
            self.tally.incr(srv_slots::UNICAST_OPS);
            net.send_unicast(oid.node(), Downlink::NewQueries { infos });
        }
    }

    /// Splits a set of same-focal queries into dissemination groups. With
    /// grouping enabled, queries sharing focal *and* monitoring region
    /// travel together (the paper's "MQs with matching monitoring
    /// regions"); otherwise every query is its own group.
    fn group_queries(&self, qids: &[QueryId]) -> Vec<Vec<QueryId>> {
        if !self.config.grouping {
            return qids.iter().map(|&q| vec![q]).collect();
        }
        let mut groups: BTreeMap<(ObjectId, GridRect), Vec<QueryId>> = BTreeMap::new();
        for &qid in qids {
            let (focal, mon) = self
                .sqt
                .get(&qid)
                .map(|e| (e.focal, e.mon_region))
                .or_else(|| self.stubs.get(&qid).map(|s| (s.focal, s.mon_region)))
                .expect("grouped query in SQT or stub table");
            groups.entry((focal, mon)).or_default().push(qid);
        }
        groups.into_values().collect()
    }

    /// Builds the full dissemination payload for the group containing
    /// `qid` (the group is recomputed from current server state). On a
    /// cluster partition the query may be a remote-region stub; stubs of
    /// the same focal + monitoring region always travel together (the
    /// home partition updates them as one group), so the stub table can
    /// reconstruct the same group payload the home would build.
    fn group_info_for(&self, qid: QueryId) -> QueryGroupInfo {
        if let Some(e) = self.sqt.get(&qid) {
            let fot = &self.fot[&e.focal];
            let members: Vec<QueryId> = if self.config.grouping {
                fot.queries
                    .iter()
                    .filter(|q| self.sqt[q].mon_region == e.mon_region)
                    .copied()
                    .collect()
            } else {
                vec![qid]
            };
            let queries = members
                .iter()
                .map(|q| {
                    let s = &self.sqt[q];
                    QuerySpec {
                        qid: *q,
                        region: s.region,
                        filter: Arc::clone(&s.filter),
                        slot: s.slot,
                        seq: s.seq,
                    }
                })
                .collect();
            QueryGroupInfo {
                focal: e.focal,
                motion: fot.motion,
                max_vel: fot.max_vel,
                mon_region: e.mon_region,
                queries: Arc::new(queries),
            }
        } else {
            let e = &self.stubs[&qid];
            let members: Vec<QueryId> = if self.config.grouping {
                self.stubs
                    .iter()
                    .filter(|(_, s)| s.focal == e.focal && s.mon_region == e.mon_region)
                    .map(|(&q, _)| q)
                    .collect()
            } else {
                vec![qid]
            };
            let queries = members
                .iter()
                .map(|q| {
                    let s = &self.stubs[q];
                    QuerySpec {
                        qid: *q,
                        region: s.region,
                        filter: Arc::clone(&s.filter),
                        slot: s.slot,
                        seq: s.seq,
                    }
                })
                .collect();
            QueryGroupInfo {
                focal: e.focal,
                motion: e.motion,
                max_vel: e.max_vel,
                mon_region: e.mon_region,
                queries: Arc::new(queries),
            }
        }
    }

    /// Pushes one membership change to the query's focal object when
    /// result delivery is enabled (the paper's query examples expect the
    /// issuer to *see* the result: "give me the positions of those
    /// customers ... at each instance of time").
    #[doc(hidden)]
    pub fn deliver_result_delta(
        &mut self,
        qid: QueryId,
        oid: ObjectId,
        entered: bool,
        net: &mut Net,
    ) {
        if self.journaling() {
            self.jot(LogRecord::ResultDelta { qid, oid, entered });
        }
        if !self.config.deliver_results {
            return;
        }
        let Some(e) = self.sqt.get(&qid) else { return };
        self.tally.incr(srv_slots::UNICAST_OPS);
        net.send_unicast(
            e.focal.node(),
            Downlink::ResultDelta {
                qid,
                object: oid,
                entered,
            },
        );
    }

    /// Whether this server maintains the RQI row at flat index `idx`
    /// (always true for a single server; owned cells only on a cluster
    /// partition).
    fn owns_flat(idx: usize, owned: &Option<std::ops::Range<usize>>) -> bool {
        match owned {
            None => true,
            Some(r) => r.contains(&idx),
        }
    }

    fn owned_span(&self) -> Option<std::ops::Range<usize>> {
        self.scope.as_ref().map(|s| s.owned_range())
    }

    fn rqi_insert(&mut self, qid: QueryId, region: &GridRect) {
        let owned = self.owned_span();
        let grid = &self.config.grid;
        let mut touched = 0u64;
        for cell in region.iter() {
            let idx = grid.flat_index(cell);
            if !Self::owns_flat(idx, &owned) {
                continue;
            }
            touched += 1;
            if !self.rqi[idx].contains(&qid) {
                self.rqi[idx].push(qid);
            }
        }
        // Partitions tile the grid, so per-query RQI work summed across a
        // cluster equals the single server's `region.len()` exactly.
        self.tally.add(srv_slots::RQI_UPDATES, touched);
    }

    fn rqi_remove(&mut self, qid: QueryId, region: &GridRect) {
        let owned = self.owned_span();
        let grid = &self.config.grid;
        let mut touched = 0u64;
        for cell in region.iter() {
            let idx = grid.flat_index(cell);
            if !Self::owns_flat(idx, &owned) {
                continue;
            }
            touched += 1;
            self.rqi[idx].retain(|&q| q != qid);
        }
        self.tally.add(srv_slots::RQI_UPDATES, touched);
    }

    /// Monitoring region of a query, whether homed here or stubbed.
    fn q_mon(&self, qid: QueryId) -> Option<GridRect> {
        self.sqt
            .get(&qid)
            .map(|e| e.mon_region)
            .or_else(|| self.stubs.get(&qid).map(|s| s.mon_region))
    }

    /// Seq stamp of a query, whether homed here or stubbed.
    fn q_seq(&self, qid: QueryId) -> u64 {
        self.sqt
            .get(&qid)
            .map(|e| e.seq)
            .or_else(|| self.stubs.get(&qid).map(|s| s.seq))
            .unwrap_or_else(|| {
                panic!(
                    "RQI references {qid:?} on partition {:?} without an SQT row or stub",
                    self.scope.as_ref().map(|s| s.partition())
                )
            })
    }

    // --- Cluster support -------------------------------------------------
    //
    // The methods below exist for the `mobieyes-cluster` coordinator: it
    // decomposes each uplink into the same primitive operations the
    // single server performs, executed at the partitions owning the
    // affected state. They are `#[doc(hidden)]` — not part of the
    // protocol's public surface.

    /// Renews the lease of a focal object (any uplink from it counts).
    #[doc(hidden)]
    pub fn renew_lease(&mut self, oid: ObjectId) {
        if self.journaling() {
            self.jot(LogRecord::RenewLease(oid));
        }
        if let Some(f) = self.fot.get_mut(&oid) {
            f.last_heard = self.now;
        }
    }

    /// Sets the server clock (the single server does this in
    /// [`heartbeat`](Self::heartbeat); the cluster coordinator owns the
    /// heartbeat gate and pushes time down to every partition).
    #[doc(hidden)]
    pub fn set_time(&mut self, now: f64) {
        // Tick boundary: also the journal's group-flush point (the store
        // flushes buffered frames when it sees this record).
        if self.journaling() {
            self.jot(LogRecord::SetTime(now));
        }
        self.now = now;
    }

    #[doc(hidden)]
    pub fn has_focal(&self, oid: ObjectId) -> bool {
        self.fot.contains_key(&oid)
    }

    #[doc(hidden)]
    pub fn focal_motion(&self, oid: ObjectId) -> Option<LinearMotion> {
        self.fot.get(&oid).map(|f| f.motion)
    }

    #[doc(hidden)]
    pub fn focal_queries(&self, oid: ObjectId) -> Option<Vec<QueryId>> {
        self.fot.get(&oid).map(|f| f.queries.clone())
    }

    #[doc(hidden)]
    pub fn has_query(&self, qid: QueryId) -> bool {
        self.sqt.contains_key(&qid)
    }

    /// Current cell of a query homed on this server.
    #[doc(hidden)]
    pub fn query_cell(&self, qid: QueryId) -> Option<CellId> {
        self.sqt.get(&qid).map(|e| e.curr_cell)
    }

    /// Queries whose lifetime has ended (tear-down is the caller's job).
    #[doc(hidden)]
    pub fn expired_query_ids(&self, now: f64) -> Vec<QueryId> {
        self.sqt
            .iter()
            .filter(|(_, e)| e.expires_at.is_some_and(|t| t <= now))
            .map(|(&q, _)| q)
            .collect()
    }

    /// One membership flip of a `ResultUpdate`; returns whether the
    /// result actually changed (the delta is delivered if so).
    #[doc(hidden)]
    pub fn apply_result_change(
        &mut self,
        qid: QueryId,
        oid: ObjectId,
        is_target: bool,
        net: &mut Net,
    ) -> bool {
        if self.journaling() {
            self.jot(LogRecord::ResultChange {
                qid,
                oid,
                is_target,
            });
        }
        self.jdepth += 1;
        let changed = self.apply_result_change_inner(qid, oid, is_target, net);
        self.jdepth -= 1;
        changed
    }

    fn apply_result_change_inner(
        &mut self,
        qid: QueryId,
        oid: ObjectId,
        is_target: bool,
        net: &mut Net,
    ) -> bool {
        let changed = self.set_member(qid, oid, is_target);
        if changed {
            self.deliver_result_delta(qid, oid, is_target, net);
        }
        changed
    }

    /// Applies a bitmap result report for a whole query group (the
    /// `RESULT_UPDATES` counter is the caller's job).
    #[doc(hidden)]
    pub fn apply_group_result_update(
        &mut self,
        oid: ObjectId,
        focal: ObjectId,
        mask: u64,
        targets: u64,
        net: &mut Net,
    ) {
        if self.journaling() {
            self.jot(LogRecord::GroupResultUpdate {
                oid,
                focal,
                mask,
                targets,
            });
        }
        self.jdepth += 1;
        self.apply_group_result_update_inner(oid, focal, mask, targets, net);
        self.jdepth -= 1;
    }

    fn apply_group_result_update_inner(
        &mut self,
        oid: ObjectId,
        focal: ObjectId,
        mask: u64,
        targets: u64,
        net: &mut Net,
    ) {
        let qids: Vec<QueryId> = self
            .fot
            .get(&focal)
            .map(|f| f.queries.clone())
            .unwrap_or_default();
        for qid in qids {
            let Some(e) = self.sqt.get(&qid) else {
                continue;
            };
            if e.slot >= 64 {
                continue; // slotless queries report itemized
            }
            let bit = 1u64 << e.slot;
            if mask & bit == 0 {
                continue;
            }
            let is_target = targets & bit != 0;
            self.apply_result_change(qid, oid, is_target, net);
        }
    }

    /// Finishes a deferred install whose pending bookkeeping lives with
    /// the cluster coordinator. The focal object's FOT row must already
    /// be on this partition.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn complete_install_at(
        &mut self,
        qid: QueryId,
        focal: ObjectId,
        region: QueryRegion,
        filter: Arc<Filter>,
        expires_at: Option<f64>,
        net: &mut Net,
    ) {
        if self.journaling() {
            self.jot(LogRecord::CompleteInstall {
                qid,
                focal,
                region,
                filter: Arc::clone(&filter),
                expires_at,
            });
        }
        self.complete_install(qid, focal, region, filter, expires_at, net);
    }

    /// Drains the inter-server outbox: `(destination partition, message)`
    /// pairs in emission order.
    #[doc(hidden)]
    pub fn take_outbox(&mut self) -> Vec<(u32, ClusterMsg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Evicts a focal object and all its queries for migration to another
    /// partition, returning the `MigrateFocal` payload. Monitoring-region
    /// overlap with our own cells degrades to stubs — RQI rows and their
    /// counters are deliberately untouched, the region coverage itself
    /// did not change.
    #[doc(hidden)]
    pub fn extract_focal(&mut self, oid: ObjectId) -> Option<ClusterMsg> {
        if self.journaling() {
            self.jot(LogRecord::ExtractFocal(oid));
        }
        debug_assert!(self.scope.is_some(), "migration needs a scoped server");
        let owned = self.owned_span();
        let grid = self.config.grid.clone();
        let fot = self.fot.remove(&oid)?;
        self.note_home(HomeChange::FocalRemoved(oid));
        let mut queries = Vec::new();
        for &qid in &fot.queries {
            let e = self.sqt.remove(&qid).expect("FOT query in SQT");
            self.note_home(HomeChange::QueryRemoved(qid));
            self.index_row(qid, e.result.iter().copied(), false);
            let overlap = e
                .mon_region
                .iter()
                .any(|c| Self::owns_flat(grid.flat_index(c), &owned));
            if overlap {
                self.stubs.insert(
                    qid,
                    StubEntry {
                        focal: oid,
                        motion: fot.motion,
                        max_vel: fot.max_vel,
                        mon_region: e.mon_region,
                        region: e.region,
                        filter: Arc::clone(&e.filter),
                        slot: e.slot,
                        seq: e.seq,
                    },
                );
            }
            queries.push(QueryMigration {
                spec: QuerySpec {
                    qid,
                    region: e.region,
                    filter: e.filter,
                    slot: e.slot,
                    seq: e.seq,
                },
                curr_cell: e.curr_cell,
                mon_region: e.mon_region,
                expires_at: e.expires_at,
                result: e.result.into_iter().collect(),
            });
        }
        Some(ClusterMsg::MigrateFocal {
            oid,
            motion: fot.motion,
            max_vel: fot.max_vel,
            used_slots: fot.used_slots,
            last_heard: fot.last_heard,
            epoch: self.current_epoch(),
            queries,
        })
    }

    /// All focal objects with a FOT row on this partition, ascending.
    #[doc(hidden)]
    pub fn focal_ids(&self) -> Vec<ObjectId> {
        self.fot.keys().copied().collect()
    }

    /// The cell a focal object is homed by: the reported cell of its
    /// queries, falling back to the dead-reckoned position for query-less
    /// focals. Drives rehoming decisions during a rebalance.
    #[doc(hidden)]
    pub fn focal_anchor_cell(&self, oid: ObjectId) -> Option<CellId> {
        let f = self.fot.get(&oid)?;
        f.queries
            .first()
            .and_then(|q| self.sqt.get(q).map(|e| e.curr_cell))
            .or_else(|| Some(self.config.grid.cell_of(f.motion.pos)))
    }

    /// Cuts the verbatim RQI rows of `flats` — cells this partition just
    /// lost to a rebalance — into a [`ClusterMsg::RebalanceCells`]
    /// transfer, together with stub seeds for every query the rows name.
    /// Counter-neutral by design: the region coverage does not change,
    /// the rows only change hands. Returns `None` when every row is
    /// empty (nothing to transfer).
    #[doc(hidden)]
    pub fn export_cells(&mut self, flats: &[usize], generation: u64) -> Option<ClusterMsg> {
        if self.journaling() {
            self.jot(LogRecord::ExportCells {
                flats: flats.iter().map(|&f| f as u32).collect(),
                generation,
            });
        }
        debug_assert!(self.scope.is_some(), "rebalance needs a scoped server");
        let mut cells = Vec::new();
        let mut named: BTreeSet<QueryId> = BTreeSet::new();
        for &flat in flats {
            let row = std::mem::take(&mut self.rqi[flat]);
            if row.is_empty() {
                continue;
            }
            named.extend(row.iter().copied());
            cells.push((flat as u32, row));
        }
        if cells.is_empty() {
            return None;
        }
        let mut stubs = Vec::with_capacity(named.len());
        for qid in named {
            let seed = if let Some(e) = self.sqt.get(&qid) {
                let f = &self.fot[&e.focal];
                StubSeed {
                    focal: e.focal,
                    motion: f.motion,
                    max_vel: f.max_vel,
                    mon_region: e.mon_region,
                    spec: QuerySpec {
                        qid,
                        region: e.region,
                        filter: Arc::clone(&e.filter),
                        slot: e.slot,
                        seq: e.seq,
                    },
                }
            } else {
                let s = self
                    .stubs
                    .get(&qid)
                    .expect("RQI query in SQT or stub table");
                StubSeed {
                    focal: s.focal,
                    motion: s.motion,
                    max_vel: s.max_vel,
                    mon_region: s.mon_region,
                    spec: QuerySpec {
                        qid,
                        region: s.region,
                        filter: Arc::clone(&s.filter),
                        slot: s.slot,
                        seq: s.seq,
                    },
                }
            };
            stubs.push(seed);
        }
        Some(ClusterMsg::RebalanceCells {
            generation,
            epoch: self.current_epoch(),
            cells,
            stubs,
        })
    }

    /// Drops stubs whose monitoring region no longer overlaps this
    /// partition's (possibly just-shrunk) owned span. RQI rows are not
    /// touched — any overlapping rows already left with the rebalance
    /// transfer, so no owned row can still reference a pruned stub.
    #[doc(hidden)]
    pub fn prune_stubs(&mut self) {
        if self.journaling() {
            self.jot(LogRecord::PruneStubs);
        }
        let Some(owned) = self.owned_span() else {
            return;
        };
        let grid = self.config.grid.clone();
        self.stubs.retain(|_, s| {
            s.mon_region
                .iter()
                .any(|c| owned.contains(&grid.flat_index(c)))
        });
    }

    /// Applies one inter-server message. Every application is idempotent
    /// under replay (seq guards), so a duplicating fault plan on the
    /// server↔server links leaves state *and* telemetry untouched.
    #[doc(hidden)]
    pub fn apply_cluster_msg(&mut self, msg: &ClusterMsg) {
        if self.journaling() {
            self.jot(LogRecord::Cluster(msg.clone()));
        }
        match msg {
            ClusterMsg::MigrateFocal {
                oid,
                motion,
                max_vel,
                used_slots,
                last_heard,
                epoch: _,
                queries,
            } => {
                // The FOT row must materialize even for a query-less focal
                // (created by a PositionReply): its later cell changes
                // still drive the shared epoch, like on the single server.
                // Inserting only when absent keeps this idempotent under
                // bus duplication.
                if !self.fot.contains_key(oid) {
                    self.fot.entry_or_insert(
                        *oid,
                        FotEntry {
                            motion: *motion,
                            max_vel: *max_vel,
                            queries: Vec::new(),
                            used_slots: *used_slots,
                            last_heard: *last_heard,
                        },
                    );
                    self.note_home(HomeChange::FocalAdded(*oid));
                }
                for q in queries {
                    let qid = q.spec.qid;
                    // Replay guard: an already-applied (or newer) row wins.
                    if self.sqt.get(&qid).is_some_and(|e| e.seq >= q.spec.seq) {
                        continue;
                    }
                    self.stubs.remove(&qid);
                    let row = SqtEntry {
                        focal: *oid,
                        region: q.spec.region,
                        filter: Arc::clone(&q.spec.filter),
                        curr_cell: q.curr_cell,
                        mon_region: q.mon_region,
                        slot: q.spec.slot,
                        seq: q.spec.seq,
                        expires_at: q.expires_at,
                        result: q.result.iter().copied().collect(),
                    };
                    match self.sqt.insert(qid, row) {
                        None => self.note_home(HomeChange::QueryAdded(qid)),
                        Some(old) => self.index_row(qid, old.result, false),
                    }
                    self.index_row(qid, q.result.iter().copied(), true);
                    let f = self.fot.get_mut(oid).expect("FOT row created above");
                    if !f.queries.contains(&qid) {
                        f.queries.push(qid);
                        f.queries.sort_unstable();
                    }
                }
                if let Some(f) = self.fot.get_mut(oid) {
                    if motion.tm >= f.motion.tm {
                        f.motion = *motion;
                        f.max_vel = *max_vel;
                    }
                    f.used_slots = *used_slots;
                    f.last_heard = f.last_heard.max(*last_heard);
                }
            }
            ClusterMsg::StubUpdate {
                focal,
                motion,
                max_vel,
                curr_cell: _,
                mon_region,
                old_mon,
                spec,
            } => {
                // Home rows are authoritative; stale or replayed stub
                // updates are dropped whole so RQI counters stay exact.
                if self.sqt.contains_key(&spec.qid) {
                    return;
                }
                if self.stubs.get(&spec.qid).is_some_and(|s| s.seq >= spec.seq) {
                    return;
                }
                // Our own stub records exactly the coverage we previously
                // inserted, so it wins over the sender's `old_mon`: after a
                // crash re-install the new home sends `None` (the pre-crash
                // region died with the old home), yet our rows still exist.
                let prev = self.stubs.get(&spec.qid).map(|s| s.mon_region);
                if let Some(old) = prev.as_ref().or(old_mon.as_ref()) {
                    self.rqi_remove(spec.qid, old);
                }
                self.rqi_insert(spec.qid, mon_region);
                let owned = self.owned_span();
                let grid = &self.config.grid;
                let overlap = mon_region
                    .iter()
                    .any(|c| Self::owns_flat(grid.flat_index(c), &owned));
                if overlap {
                    self.stubs.insert(
                        spec.qid,
                        StubEntry {
                            focal: *focal,
                            motion: *motion,
                            max_vel: *max_vel,
                            mon_region: *mon_region,
                            region: spec.region,
                            filter: Arc::clone(&spec.filter),
                            slot: spec.slot,
                            seq: spec.seq,
                        },
                    );
                } else {
                    self.stubs.remove(&spec.qid);
                }
            }
            ClusterMsg::StubMotion {
                focal: _,
                motion,
                max_vel,
                qids,
            } => {
                for (qid, seq) in qids {
                    if let Some(s) = self.stubs.get_mut(qid) {
                        if *seq >= s.seq {
                            s.motion = *motion;
                            s.max_vel = *max_vel;
                            s.seq = *seq;
                        }
                    }
                }
            }
            ClusterMsg::StubRemove {
                qid,
                mon_region,
                epoch: _,
            } => {
                if self.stubs.remove(qid).is_some() {
                    self.rqi_remove(*qid, mon_region);
                }
            }
            ClusterMsg::RebalanceCells {
                generation,
                epoch: _,
                cells,
                stubs,
            } => {
                // A transfer is valid only for the exact map generation it
                // was cut for: anything stale (or replayed across a later
                // install) is dropped whole.
                let Some(scope) = &self.scope else {
                    return;
                };
                if *generation != scope.generation() {
                    return;
                }
                for (flat, qids) in cells {
                    // Verbatim assignment preserves the home insertion
                    // order (which drives fresh-query reply ordering) and
                    // is idempotent under bus duplication. No RQI counter:
                    // coverage did not change, the row changed hands.
                    self.rqi[*flat as usize] = qids.clone();
                }
                for s in stubs {
                    let qid = s.spec.qid;
                    if self.sqt.contains_key(&qid) {
                        continue; // homed here — the row resolves locally
                    }
                    if self.stubs.get(&qid).is_some_and(|e| e.seq >= s.spec.seq) {
                        continue;
                    }
                    self.stubs.insert(
                        qid,
                        StubEntry {
                            focal: s.focal,
                            motion: s.motion,
                            max_vel: s.max_vel,
                            mon_region: s.mon_region,
                            region: s.spec.region,
                            filter: Arc::clone(&s.spec.filter),
                            slot: s.spec.slot,
                            seq: s.spec.seq,
                        },
                    );
                }
            }
            ClusterMsg::RecoverCells {
                generation,
                epoch: _,
                cells,
            } => {
                // An adoption is valid only for the exact map generation
                // the failover fence installed — stale or replayed copies
                // are dropped whole, like a rebalance transfer.
                let Some(scope) = &self.scope else {
                    return;
                };
                if *generation != scope.generation() {
                    return;
                }
                // The previous owner's rows died with it. Rebuild each
                // adopted row from what this partition already knows — its
                // home rows and stubs whose monitoring regions reach the
                // cell, ascending qid (post-crash there is no surviving
                // row order to preserve; ascending is deterministic at any
                // thread count) — and let agent resyncs repopulate the
                // rest. A pure function of the current tables, so replays
                // are no-ops. No RQI counter: this repairs coverage the
                // region bookkeeping already accounts for.
                let grid = self.config.grid.clone();
                for &flat in cells {
                    let cell = grid.cell_from_flat(flat as usize);
                    let mut row: Vec<QueryId> = Vec::new();
                    for (&qid, e) in &self.sqt {
                        if e.mon_region.contains(cell) {
                            row.push(qid);
                        }
                    }
                    for (&qid, s) in &self.stubs {
                        if s.mon_region.contains(cell) && !row.contains(&qid) {
                            row.push(qid);
                        }
                    }
                    row.sort_unstable();
                    self.rqi[flat as usize] = row;
                }
            }
        }
    }

    /// Queues a `StubUpdate` for every other partition overlapping the
    /// query's (new ∪ old) monitoring region.
    fn emit_stub_update(&mut self, qid: QueryId, old_mon: Option<GridRect>) {
        let Some(scope) = self.scope.clone() else {
            return;
        };
        let (msg, owners) = {
            let e = &self.sqt[&qid];
            let fot = &self.fot[&e.focal];
            let msg = ClusterMsg::StubUpdate {
                focal: e.focal,
                motion: fot.motion,
                max_vel: fot.max_vel,
                curr_cell: e.curr_cell,
                mon_region: e.mon_region,
                old_mon,
                spec: QuerySpec {
                    qid,
                    region: e.region,
                    filter: Arc::clone(&e.filter),
                    slot: e.slot,
                    seq: e.seq,
                },
            };
            let grid = &self.config.grid;
            let mut owners: BTreeSet<u32> = BTreeSet::new();
            for cell in e.mon_region.iter() {
                owners.insert(scope.owner_of(grid.flat_index(cell)));
            }
            if let Some(old) = &old_mon {
                for cell in old.iter() {
                    owners.insert(scope.owner_of(grid.flat_index(cell)));
                }
            }
            owners.remove(&scope.partition());
            (msg, owners)
        };
        for p in owners {
            self.outbox.push((p, msg.clone()));
        }
    }

    /// Queues a `StubRemove` for every other partition overlapping the
    /// removed query's monitoring region.
    fn emit_stub_remove(&mut self, qid: QueryId, mon_region: GridRect, epoch: u64) {
        let Some(scope) = self.scope.clone() else {
            return;
        };
        let grid = &self.config.grid;
        let mut owners: BTreeSet<u32> = BTreeSet::new();
        for cell in mon_region.iter() {
            owners.insert(scope.owner_of(grid.flat_index(cell)));
        }
        owners.remove(&scope.partition());
        for p in owners {
            self.outbox.push((
                p,
                ClusterMsg::StubRemove {
                    qid,
                    mon_region,
                    epoch,
                },
            ));
        }
    }

    /// Queues per-partition `StubMotion` messages for the given freshly
    /// stamped queries of a focal object.
    fn emit_stub_motion(
        &mut self,
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        stamped: &[(QueryId, u64)],
    ) {
        let Some(scope) = self.scope.clone() else {
            return;
        };
        if stamped.is_empty() {
            return;
        }
        let grid = self.config.grid.clone();
        let mut per: BTreeMap<u32, Vec<(QueryId, u64)>> = BTreeMap::new();
        for &(qid, seq) in stamped {
            let Some(mon) = self.q_mon(qid) else {
                continue;
            };
            let mut owners: BTreeSet<u32> = BTreeSet::new();
            for cell in mon.iter() {
                owners.insert(scope.owner_of(grid.flat_index(cell)));
            }
            owners.remove(&scope.partition());
            for p in owners {
                per.entry(p).or_default().push((qid, seq));
            }
        }
        for (p, qids) in per {
            self.outbox.push((
                p,
                ClusterMsg::StubMotion {
                    focal: oid,
                    motion,
                    max_vel,
                    qids,
                },
            ));
        }
    }

    // --- Journal replay & checkpointing ----------------------------------

    /// Maximum speed of a focal object, as last reported.
    #[doc(hidden)]
    pub fn focal_max_vel(&self, oid: ObjectId) -> Option<f64> {
        self.fot.get(&oid).map(|f| f.max_vel)
    }

    /// Applies one journal record with journaling suppressed — the replay
    /// image of the mutating entry point that wrote it, so replaying
    /// against a server with a sink attached does not re-log.
    ///
    /// Replay must start from the newest [`LogRecord::Checkpoint`] of a
    /// compacted log (see `mobieyes-store`): records before it reference
    /// state the checkpoint subsumes.
    pub fn apply_log_record(&mut self, rec: &LogRecord, net: &mut Net) -> Result<(), DecodeError> {
        self.jdepth += 1;
        let r = self.apply(rec, net);
        self.jdepth -= 1;
        r.map(drop)
    }

    /// Runs the entry point a record names and returns its value — the one
    /// dispatch for mutations, shared by replay, the partition service and
    /// an in-process partition handle. The entry point journals the record
    /// as usual; its counters are published at the next tick-boundary
    /// record (`SetTime`, `Heartbeat`), so a replay or a partition service
    /// takes the telemetry lock once per tick, not once per record; a
    /// caller that reads the sink before then calls
    /// [`publish`](Self::publish) first. A record no entry point could take without panicking
    /// (partition bounds the table refuses, a flat cell off the grid) is an
    /// error, applied and journaled nowhere.
    pub fn apply(&mut self, rec: &LogRecord, net: &mut Net) -> Result<ReplyPayload, DecodeError> {
        use ReplyPayload::{Bool, OptCluster, Qids, U64};
        match *rec {
            LogRecord::Meta { .. } => {} // provenance; validated by the reader
            LogRecord::Floor(v) => self.raise_epoch(v),
            LogRecord::SetTime(t) => {
                self.set_time(t);
                self.publish();
            }
            LogRecord::Heartbeat(t) => self.heartbeat(t, net),
            LogRecord::Uplink { from, ref msg } => self.uplink(NodeId(from), msg.clone(), net),
            LogRecord::InstallQuery {
                qid,
                focal,
                region,
                ref filter,
                expires_at,
            } => {
                let got = self.install(focal, region, filter.clone(), expires_at, net);
                debug_assert_eq!(got, qid, "replayed install drifted off the journaled qid");
            }
            LogRecord::CompleteInstall {
                qid,
                focal,
                region,
                ref filter,
                expires_at,
            } => self.complete_install_at(qid, focal, region, Arc::clone(filter), expires_at, net),
            LogRecord::RemoveQuery(qid) => return Ok(Bool(self.remove(qid, net))),
            LogRecord::UpdateRegion { qid, region } => {
                self.update_region(qid, region, net);
            }
            LogRecord::RenewLease(oid) => self.renew_lease(oid),
            LogRecord::VelocityReport { oid, motion } => self.on_velocity_report(oid, motion, net),
            LogRecord::CellChangeFocal {
                oid,
                new_cell,
                motion,
            } => self.apply_cell_change_focal(oid, new_cell, motion, net),
            LogRecord::CellChangeFresh {
                oid,
                prev_cell,
                new_cell,
                motion,
            } => self.apply_cell_change_fresh(oid, prev_cell, new_cell, motion, net),
            LogRecord::ResultChange {
                qid,
                oid,
                is_target,
            } => return Ok(Bool(self.apply_result_change(qid, oid, is_target, net))),
            LogRecord::GroupResultUpdate {
                oid,
                focal,
                mask,
                targets,
            } => self.apply_group_result_update(oid, focal, mask, targets, net),
            LogRecord::RefreshFocalMotion {
                oid,
                motion,
                max_vel,
                insert,
            } => self.refresh_focal_motion(oid, motion, max_vel, insert),
            LogRecord::PurgeObject(oid) => return Ok(Qids(self.purge_object(oid))),
            LogRecord::ResultDelta { qid, oid, entered } => {
                self.deliver_result_delta(qid, oid, entered, net)
            }
            LogRecord::LqtReconcile {
                qid,
                oid,
                is_target,
            } => return Ok(Bool(self.lqt_reconcile_one(qid, oid, is_target))),
            LogRecord::FocalReassert(oid) => self.focal_reassert(oid, net),
            LogRecord::CellSyncReply { oid, cell } => self.cell_sync_reply(oid, cell, net),
            LogRecord::ExtractFocal(oid) => return Ok(OptCluster(self.extract_focal(oid))),
            LogRecord::Cluster(ref msg) => self.apply_cluster_msg(msg),
            LogRecord::ExportCells {
                ref flats,
                generation,
            } => {
                if let Some(f) = flats.iter().find(|&&f| f as usize >= self.rqi.len()) {
                    return Err(DecodeError(format!("export of flat cell {f} off the grid")));
                }
                let flats: Vec<usize> = flats.iter().map(|&f| f as usize).collect();
                return Ok(OptCluster(self.export_cells(&flats, generation)));
            }
            LogRecord::PruneStubs => self.prune_stubs(),
            LogRecord::BumpEpoch => return Ok(U64(self.bump_epoch_for_coordinator())),
            LogRecord::Bounds {
                generation,
                ref bounds,
            } => {
                if let Some(s) = &self.scope {
                    let bounds: Vec<usize> = bounds.iter().map(|&b| b as usize).collect();
                    s.table.validate(&bounds, generation)?;
                    // No floor record: ownership reads no epoch, and the
                    // next op's record logs the floor it observes.
                    if let Some(j) = self.journal.as_ref().filter(|_| self.journaling()) {
                        j.append(rec);
                    }
                    s.table.install_at(&bounds, generation);
                }
            }
            LogRecord::Checkpoint(ref bytes) => self.restore_checkpoint(bytes)?,
        }
        Ok(ReplyPayload::Unit)
    }

    /// Serializes the complete server state — the payload of a
    /// [`LogRecord::Checkpoint`]. Transient per-op buffers (outbox, uplink
    /// scratch) are excluded: checkpoints are cut at
    /// quiesced tick boundaries where they are empty, and
    /// [`restore_checkpoint`](Self::restore_checkpoint) clears them.
    ///
    /// The final 8 bytes are the *observed* (shared) epoch, which sibling
    /// partitions advance independently; [`state_digest`](Self::state_digest)
    /// excludes them so a replayed partition — whose private sequencer only
    /// saw the floors its own ops observed — digests equal to its live twin.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        (self.next_qid, self.epoch, self.now, self.last_heartbeat).put(&mut out);
        self.fot.entries.put(&mut out);
        self.sqt.put(&mut out);
        // RQI rows verbatim — order within a row is load-bearing (it
        // drives fresh-query reply ordering), so rows are not derivable
        // from the SQT alone. Only occupied rows travel, behind their flat
        // index: the layout of a `Vec<(u32, Vec<QueryId>)>`.
        let rows = || self.rqi.iter().enumerate().filter(|(_, r)| !r.is_empty());
        (rows().count() as u32).put(&mut out);
        for (flat, row) in rows() {
            (flat as u32).put(&mut out);
            row.put(&mut out);
        }
        self.pending.put(&mut out);
        self.stubs.put(&mut out);
        self.current_epoch().put(&mut out);
        out
    }

    /// Restores the full server state from [`checkpoint_bytes`](Self::checkpoint_bytes)
    /// output. Decodes everything before committing, so a malformed
    /// payload leaves the server untouched.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let buf = &mut Reader::new(bytes);
        let (next_qid, epoch, now, last_heartbeat) = <(u32, u64, f64, f64)>::get(buf)?;
        let fot_entries: Vec<(ObjectId, FotEntry)> = Wire::get(buf)?;
        let sqt: BTreeMap<QueryId, SqtEntry> = Wire::get(buf)?;
        let rows: Vec<(u32, Vec<QueryId>)> = Wire::get(buf)?;
        let pending: BTreeMap<ObjectId, Vec<PendingInstall>> = Wire::get(buf)?;
        let stubs: BTreeMap<QueryId, StubEntry> = Wire::get(buf)?;
        let observed = u64::get(buf)?;
        if buf.remaining() != 0 {
            let n = buf.remaining();
            return Err(DecodeError(format!("{n} trailing bytes after checkpoint")));
        }
        let cells = self.config.grid.num_cells();
        let mut rqi = vec![Vec::new(); cells];
        for (flat, row) in rows {
            let Some(slot) = rqi.get_mut(flat as usize) else {
                let e = format!("RQI flat index {flat} out of range ({cells} cells)");
                return Err(DecodeError(e));
            };
            *slot = row;
        }

        // Commit. The tables are replaced wholesale, so a home log sees
        // every old key leave and every restored key arrive.
        let mut fot = FotTable::default();
        for (oid, e) in fot_entries {
            fot.entry_or_insert(oid, e);
        }
        if let Some(log) = &mut self.home_log {
            log.extend(self.fot.keys().map(|&o| HomeChange::FocalRemoved(o)));
            log.extend(self.sqt.keys().map(|&q| HomeChange::QueryRemoved(q)));
            log.extend(fot.keys().map(|&o| HomeChange::FocalAdded(o)));
            log.extend(sqt.keys().map(|&q| HomeChange::QueryAdded(q)));
        }
        self.fot = fot;
        self.members = sqt
            .iter()
            .flat_map(|(&qid, e)| e.result.iter().map(move |&oid| (oid, qid)))
            .collect();
        self.sqt = sqt;
        self.rqi = rqi;
        self.pending = pending;
        self.stubs = stubs;
        self.next_qid = next_qid;
        self.epoch = epoch;
        self.now = now;
        self.last_heartbeat = last_heartbeat;
        self.outbox.clear();
        self.uplink_scratch.clear();
        self.raise_epoch(observed);
        Ok(())
    }

    /// FNV-1a digest of the durable server state (the checkpoint image
    /// minus the shared-epoch trailer — see
    /// [`checkpoint_bytes`](Self::checkpoint_bytes)). Two servers with
    /// equal digests hold byte-identical FOT/SQT/RQI/pending/stub tables.
    pub fn state_digest(&self) -> u64 {
        let bytes = self.checkpoint_bytes();
        crate::journal::fnv1a(&bytes[..bytes.len() - 8])
    }

    /// Structural self-check for tests: the RQI must exactly mirror the
    /// monitoring regions in the SQT, FOT query lists must match SQT focal
    /// assignments, and slots must be consistent.
    pub fn check_invariants(&self) {
        let owned = self.owned_span();
        for (qid, e) in &self.sqt {
            for cell in e.mon_region.iter() {
                let idx = self.config.grid.flat_index(cell);
                if !Self::owns_flat(idx, &owned) {
                    continue; // a neighbor partition's RQI row
                }
                assert!(
                    self.rqi[idx].contains(qid),
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
        for (idx, qids) in self.rqi.iter().enumerate() {
            if !qids.is_empty() {
                assert!(Self::owns_flat(idx, &owned), "RQI entry in an unowned cell");
            }
            for qid in qids {
                let mon = self.q_mon(*qid).expect("RQI references live query or stub");
                let cell = self.config.grid.cell_at(idx);
                assert!(
                    mon.contains(cell),
                    "stale RQI entry for {qid:?} at {cell:?} on partition {:?}: \
                     monitoring region is {mon:?} (homed: {})",
                    self.scope.as_ref().map(|s| s.partition()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_geo::{Grid, Point, Rect, Vec2};
    use mobieyes_net::BaseStationLayout;

    // A checkpoint table count is checked against at least the minimum
    // its hand-written decoder used.
    const _: () = {
        assert!(<(ObjectId, FotEntry)>::MIN_LEN >= 20);
        assert!(<(QueryId, SqtEntry)>::MIN_LEN >= 24);
        assert!(<(u32, Vec<QueryId>)>::MIN_LEN >= 8);
        assert!(<(ObjectId, Vec<PendingInstall>)>::MIN_LEN >= 8);
        assert!(PendingInstall::MIN_LEN >= 8);
        assert!(<(QueryId, StubEntry)>::MIN_LEN >= 24);
    };

    /// A focal id past the slotted range — a stray id off the wire, a
    /// damaged checkpoint — is stored, found and removed without growing
    /// the slot array to its value.
    #[test]
    fn fot_ids_past_the_slotted_range_take_no_slot() {
        let row = || FotEntry {
            motion: LinearMotion::at_rest(Point::new(1.0, 1.0), 0.0),
            max_vel: 0.05,
            queries: Vec::new(),
            used_slots: 0,
            last_heard: 0.0,
        };
        let (near, far) = (ObjectId(3), ObjectId(u32::MAX));
        let mut fot = FotTable::default();
        fot.entry_or_insert(far, row());
        fot.entry_or_insert(near, row());
        assert_eq!(fot.slots.len(), 4, "only the slotted id took slots");
        assert!(fot.contains_key(&near) && fot.contains_key(&far));
        assert_eq!(fot.keys().collect::<Vec<_>>(), [&near, &far]);
        assert!(fot.remove(&far).is_some());
        assert!(!fot.contains_key(&far) && fot.get(&near).is_some());
    }

    fn setup(propagation: Propagation, grouping: bool) -> (Server, Net, Arc<ProtocolConfig>) {
        let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
        let grid = Grid::new(universe, 10.0);
        let config = Arc::new(
            ProtocolConfig::new(grid)
                .with_propagation(propagation)
                .with_grouping(grouping),
        );
        let server = Server::new(Arc::clone(&config));
        let net = Net::new(BaseStationLayout::new(universe, 20.0));
        (server, net, config)
    }

    fn motion_at(x: f64, y: f64) -> LinearMotion {
        LinearMotion::new(Point::new(x, y), Vec2::new(0.001, 0.0), 0.0)
    }

    /// Puts `oid` into the FOT by replaying the position-request handshake.
    fn register(server: &mut Server, net: &mut Net, oid: ObjectId, x: f64, y: f64) {
        server.handle_uplink(
            oid.node(),
            Uplink::PositionReply {
                oid,
                motion: motion_at(x, y),
                max_vel: 0.03,
            },
            net,
        );
    }

    #[test]
    fn install_with_unknown_focal_defers_and_requests_position() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        let qid = server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        // Not installed yet; a position request went out.
        assert_eq!(server.num_queries(), 0);
        assert_eq!(net.meter().unicast_msgs, 1);
        // The reply completes the install.
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        assert_eq!(server.num_queries(), 1);
        assert_eq!(server.query_focal(qid), Some(ObjectId(1)));
        server.check_invariants();
        // Install broadcast(s) plus the focal notification.
        assert!(net.meter().broadcast_msgs >= 1);
        assert!(net.meter().unicast_msgs >= 2);
    }

    #[test]
    fn install_with_known_focal_is_immediate() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        let qid = server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        assert_eq!(server.num_queries(), 1);
        server.check_invariants();
        // Monitoring region covers the focal cell and neighbors.
        let cell = server.config().grid.cell_of(Point::new(55.0, 55.0));
        assert!(server.nearby_queries(cell).contains(&qid));
    }

    #[test]
    fn multiple_pending_installs_one_position_request() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        server.install_query(
            ObjectId(9),
            QueryRegion::circle(2.0),
            Filter::True,
            &mut net,
        );
        server.install_query(
            ObjectId(9),
            QueryRegion::circle(5.0),
            Filter::True,
            &mut net,
        );
        assert_eq!(
            net.meter().unicast_msgs,
            1,
            "one position request for both installs"
        );
        register(&mut server, &mut net, ObjectId(9), 20.0, 20.0);
        assert_eq!(server.num_queries(), 2);
        server.check_invariants();
    }

    #[test]
    fn remove_query_cleans_all_state() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        let qid = server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        assert!(server.remove_query(qid, &mut net));
        assert_eq!(server.num_queries(), 0);
        let cell = server.config().grid.cell_of(Point::new(55.0, 55.0));
        assert!(server.nearby_queries(cell).is_empty());
        server.check_invariants();
        assert!(!server.remove_query(qid, &mut net), "double remove fails");
    }

    #[test]
    fn result_updates_are_differential() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        let qid = server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        server.handle_uplink(
            NodeId(2),
            Uplink::ResultUpdate {
                oid: ObjectId(2),
                changes: vec![(qid, true)],
            },
            &mut net,
        );
        assert!(server.query_result(qid).unwrap().contains(&ObjectId(2)));
        server.handle_uplink(
            NodeId(2),
            Uplink::ResultUpdate {
                oid: ObjectId(2),
                changes: vec![(qid, false)],
            },
            &mut net,
        );
        assert!(!server.query_result(qid).unwrap().contains(&ObjectId(2)));
    }

    #[test]
    fn velocity_report_triggers_region_broadcast() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        let before = net.meter().broadcast_msgs;
        server.handle_uplink(
            NodeId(1),
            Uplink::VelocityReport {
                oid: ObjectId(1),
                motion: motion_at(56.0, 55.0),
            },
            &mut net,
        );
        assert!(net.meter().broadcast_msgs > before);
        assert_eq!(server.stats().velocity_reports, 1);
    }

    #[test]
    fn velocity_report_from_non_focal_is_ignored() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        let before = net.meter().broadcast_msgs;
        server.handle_uplink(
            NodeId(3),
            Uplink::VelocityReport {
                oid: ObjectId(3),
                motion: motion_at(1.0, 1.0),
            },
            &mut net,
        );
        assert_eq!(net.meter().broadcast_msgs, before);
    }

    #[test]
    fn focal_cell_change_moves_monitoring_region() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        let qid = server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        let grid = server.config().grid.clone();
        let old_cell = grid.cell_of(Point::new(55.0, 55.0));
        let new_cell = grid.cell_of(Point::new(75.0, 55.0));
        server.handle_uplink(
            NodeId(1),
            Uplink::CellChange {
                oid: ObjectId(1),
                prev_cell: old_cell,
                new_cell,
                motion: motion_at(75.0, 55.0),
            },
            &mut net,
        );
        server.check_invariants();
        assert!(server.nearby_queries(new_cell).contains(&qid));
        // The old cell is two cells away from the new one, outside the new
        // monitoring region for r=3 < α=10.
        assert!(!server.nearby_queries(old_cell).contains(&qid));
    }

    #[test]
    fn non_focal_cell_change_gets_new_queries_unicast() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        let grid = server.config().grid.clone();
        // Object 2 moves from far away into the query's monitoring region.
        let before = net.meter().unicast_msgs;
        server.handle_uplink(
            NodeId(2),
            Uplink::CellChange {
                oid: ObjectId(2),
                prev_cell: grid.cell_of(Point::new(5.0, 5.0)),
                new_cell: grid.cell_of(Point::new(55.0, 55.0)),
                motion: motion_at(55.0, 55.0),
            },
            &mut net,
        );
        assert_eq!(
            net.meter().unicast_msgs,
            before + 1,
            "expected NewQueries unicast"
        );
        // Moving between two cells both outside any monitoring region sends
        // nothing.
        let before = net.meter().unicast_msgs;
        server.handle_uplink(
            NodeId(3),
            Uplink::CellChange {
                oid: ObjectId(3),
                prev_cell: grid.cell_of(Point::new(5.0, 5.0)),
                new_cell: grid.cell_of(Point::new(15.0, 5.0)),
                motion: motion_at(15.0, 5.0),
            },
            &mut net,
        );
        assert_eq!(net.meter().unicast_msgs, before);
    }

    #[test]
    fn grouping_coalesces_same_region_queries() {
        // Two queries, same focal, same radius class -> same monitoring
        // region -> one grouped broadcast per velocity report.
        let (mut server, mut net, _) = setup(Propagation::Eager, true);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        server.install_query(
            ObjectId(1),
            QueryRegion::circle(2.5),
            Filter::True,
            &mut net,
        );
        let before = net.meter().broadcast_msgs;
        server.handle_uplink(
            NodeId(1),
            Uplink::VelocityReport {
                oid: ObjectId(1),
                motion: motion_at(56.0, 55.0),
            },
            &mut net,
        );
        let grouped_broadcasts = net.meter().broadcast_msgs - before;

        // Same scenario without grouping: two broadcasts.
        let (mut server2, mut net2, _) = setup(Propagation::Eager, false);
        register(&mut server2, &mut net2, ObjectId(1), 55.0, 55.0);
        server2.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net2,
        );
        server2.install_query(
            ObjectId(1),
            QueryRegion::circle(2.5),
            Filter::True,
            &mut net2,
        );
        let before2 = net2.meter().broadcast_msgs;
        server2.handle_uplink(
            NodeId(1),
            Uplink::VelocityReport {
                oid: ObjectId(1),
                motion: motion_at(56.0, 55.0),
            },
            &mut net2,
        );
        let ungrouped_broadcasts = net2.meter().broadcast_msgs - before2;
        assert!(grouped_broadcasts < ungrouped_broadcasts);
    }

    #[test]
    fn group_result_update_sets_membership_by_slot() {
        let (mut server, mut net, _) = setup(Propagation::Eager, true);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        let q1 = server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        let q2 = server.install_query(
            ObjectId(1),
            QueryRegion::circle(2.0),
            Filter::True,
            &mut net,
        );
        // Object 5 reports: inside q1 (slot 0), outside q2 (slot 1).
        server.handle_uplink(
            NodeId(5),
            Uplink::GroupResultUpdate {
                oid: ObjectId(5),
                focal: ObjectId(1),
                mask: 0b11,
                targets: 0b01,
            },
            &mut net,
        );
        assert!(server.query_result(q1).unwrap().contains(&ObjectId(5)));
        assert!(!server.query_result(q2).unwrap().contains(&ObjectId(5)));
        // Masked-out bits leave membership untouched.
        server.handle_uplink(
            NodeId(5),
            Uplink::GroupResultUpdate {
                oid: ObjectId(5),
                focal: ObjectId(1),
                mask: 0b10,
                targets: 0b10,
            },
            &mut net,
        );
        assert!(
            server.query_result(q1).unwrap().contains(&ObjectId(5)),
            "q1 untouched"
        );
        assert!(server.query_result(q2).unwrap().contains(&ObjectId(5)));
    }

    #[test]
    fn lazy_propagation_sends_full_state_on_velocity_change() {
        let (mut server, mut net, _) = setup(Propagation::Lazy, false);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        server.handle_uplink(
            NodeId(1),
            Uplink::VelocityReport {
                oid: ObjectId(1),
                motion: motion_at(56.0, 55.0),
            },
            &mut net,
        );
        // Deliver at a point inside the monitoring region and inspect.
        let mut inbox = Vec::new();
        net.deliver(NodeId(7), Point::new(55.0, 55.0), &mut inbox);
        assert!(
            inbox
                .iter()
                .any(|m| matches!(&**m, Downlink::QueryState { .. })),
            "lazy mode must ship full query state, got {inbox:?}"
        );
        assert!(
            !inbox
                .iter()
                .any(|m| matches!(&**m, Downlink::VelocityChange { .. })),
            "lazy mode must not ship bare velocity changes"
        );
    }

    #[test]
    fn slot_reuse_after_removal() {
        let (mut server, mut net, _) = setup(Propagation::Eager, true);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        let _q1 = server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        let q2 = server.install_query(
            ObjectId(1),
            QueryRegion::circle(2.0),
            Filter::True,
            &mut net,
        );
        server.remove_query(q2, &mut net);
        let q3 = server.install_query(
            ObjectId(1),
            QueryRegion::circle(1.0),
            Filter::True,
            &mut net,
        );
        // q3 reuses q2's slot (slot 1).
        server.check_invariants();
        server.handle_uplink(
            NodeId(5),
            Uplink::GroupResultUpdate {
                oid: ObjectId(5),
                focal: ObjectId(1),
                mask: 0b10,
                targets: 0b10,
            },
            &mut net,
        );
        assert!(server.query_result(q3).unwrap().contains(&ObjectId(5)));
    }

    #[test]
    fn removing_last_query_clears_focal_flag() {
        let (mut server, mut net, _) = setup(Propagation::Eager, false);
        register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
        let qid = server.install_query(
            ObjectId(1),
            QueryRegion::circle(3.0),
            Filter::True,
            &mut net,
        );
        server.remove_query(qid, &mut net);
        // A FocalNotify{false} unicast went to the ex-focal object.
        let mut inbox = Vec::new();
        net.deliver(NodeId(1), Point::new(55.0, 55.0), &mut inbox);
        assert!(inbox
            .iter()
            .any(|m| **m == Downlink::FocalNotify { is_focal: false }));
    }
}
