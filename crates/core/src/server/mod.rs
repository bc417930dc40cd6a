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

use crate::codec::DecodeError;
use crate::config::{Propagation, ProtocolConfig};
use crate::filter::Filter;
use crate::journal::{JournalSink, LogRecord, ReplyPayload};
use crate::messages::{ClusterMsg, Downlink, QueryGroupInfo, QuerySpec, Uplink};
use crate::model::{ObjectId, QueryId};
use mobieyes_geo::{CellId, GridRect, LinearMotion, QueryRegion, Region};
use mobieyes_net::{NetworkSim, NodeId};
use mobieyes_telemetry::{EventKind, Tally, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod checkpoint;
mod cluster;
pub mod lqt_sync;
pub mod mediate;
mod tables;
#[cfg(test)]
mod tests;

use lqt_sync::LqtSyncScratch;
pub use mediate::{FromPayload, Mediator};
use tables::{usize_bounds, FotEntry, FotTable, Rqi, SqtEntry, StubEntry};
pub use tables::{HomeChange, PartitionScope, PartitionTable, PendingInstall};

/// The network type the protocol runs over.
pub type Net = NetworkSim<Uplink, Downlink>;

/// Raises `epoch` to `to` — after a plain load: it is there already for
/// most ops, and a locked read-modify-write per op costs for nothing.
#[inline(always)]
pub fn raise(epoch: &AtomicU64, to: u64) {
    if epoch.load(Ordering::Relaxed) < to {
        epoch.fetch_max(to, Ordering::Relaxed);
    }
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
    rqi: Rqi,
    pending: BTreeMap<ObjectId, Vec<PendingInstall>>,
    next_qid: u32,
    /// The epoch this server last bumped the scope's sequencer to (the
    /// checkpoint image carries it). The sequencer is bumped on every
    /// operation that changes disseminated query state; the bumped value
    /// is stamped on the affected queries (`SqtEntry::seq`) and on the
    /// outgoing messages.
    epoch: u64,
    /// Current server time, cached from the driver's heartbeat call; lease
    /// timestamps are taken from it.
    now: f64,
    /// Time of the last heartbeat broadcast.
    last_heartbeat: f64,
    telemetry: Telemetry,
    /// The `srv.*` counters since the last [`publish`](Self::publish):
    /// every entry point a tick loop calls publishes before it returns;
    /// [`apply`](Self::apply) leaves that to its caller except at the
    /// tick-boundary records.
    tally: ServerTally,
    /// The partition of the grid this server owns and the epoch sequencer
    /// it stamps with. A library server ([`new`](Self::new)) is partition
    /// 0 of one on a private epoch; a cluster partition shares its table
    /// and epoch with its siblings ([`with_scope`](Self::with_scope)).
    scope: PartitionScope,
    /// Remote-region stubs for border-straddling queries homed elsewhere.
    stubs: BTreeMap<QueryId, StubEntry>,
    /// Outgoing inter-server messages `(destination partition, msg)`,
    /// drained by the cluster coordinator after every operation.
    outbox: Vec<(u32, ClusterMsg)>,
    /// Reusable per-tick uplink drain buffer (cleared, not reallocated).
    uplink_scratch: Vec<(NodeId, Uplink)>,
    /// Reusable buffers of the `LqtSync` reconcile walk.
    lqt_scratch: LqtSyncScratch<()>,
    /// Durable input journal (see [`crate::journal`]); `None` = no
    /// persistence. Injected like `telemetry`, and written in one place:
    /// the journal step of [`apply`](Self::apply), once per accepted
    /// record.
    journal: Option<Arc<dyn JournalSink>>,
    /// Last epoch floor written to the journal — deduplicates
    /// [`LogRecord::Floor`] records.
    journal_floor: u64,
    /// FOT/SQT key-set changes since the last
    /// [`take_home_log`](Self::take_home_log); `None` (the default) keeps
    /// no log — only a cluster partition's coordinator mirrors its keys,
    /// and nothing would drain it elsewhere.
    home_log: Option<Vec<HomeChange>>,
}

impl Server {
    /// A server for the whole grid: partition 0 of a one-partition
    /// [`PartitionTable`], on a private epoch.
    pub fn new(config: Arc<ProtocolConfig>) -> Self {
        let cells = config.grid.num_cells();
        let table = Arc::new(PartitionTable::contiguous(cells, 1));
        let scope = PartitionScope::new(0, table, Arc::new(AtomicU64::new(0)));
        Server {
            config,
            fot: FotTable::default(),
            sqt: BTreeMap::new(),
            members: BTreeSet::new(),
            rqi: Rqi::new(cells),
            pending: BTreeMap::new(),
            next_qid: 0,
            epoch: 0,
            now: 0.0,
            last_heartbeat: f64::NEG_INFINITY,
            telemetry: Telemetry::new(),
            tally: Tally::new(srv_keys::ALL),
            scope,
            stubs: BTreeMap::new(),
            outbox: Vec::new(),
            uplink_scratch: Vec::new(),
            lqt_scratch: LqtSyncScratch::default(),
            journal: None,
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
    /// (builder style), replacing the one-partition scope it was built
    /// with. See [`PartitionScope`].
    pub fn with_scope(mut self, scope: PartitionScope) -> Self {
        self.scope = scope;
        self
    }

    /// Attaches a durable input journal (builder style): every record
    /// [`apply`](Self::apply) accepts is appended before it executes, so
    /// replaying the log against a fresh server reproduces this one
    /// byte-for-byte.
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

    /// Whether a journal is attached. A replay target has none: the
    /// records it replays are in a log already.
    pub fn has_journal(&self) -> bool {
        self.journal.is_some()
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
    /// of [`apply`](Self::apply) publishes whenever it wants the sink to be
    /// current.
    pub fn publish(&mut self) {
        self.tally.flush(&self.telemetry);
    }

    /// The partition this server owns and the epoch it stamps with.
    pub fn scope(&self) -> &PartitionScope {
        &self.scope
    }

    /// Raises the (shared) epoch to at least `floor`: the per-request
    /// floor of the partition RPC protocol, and its replay image, the
    /// [`LogRecord::Floor`] records.
    #[inline(always)]
    pub fn raise_epoch(&self, floor: u64) {
        raise(&self.scope.epoch, floor);
    }

    /// Number of remote-region stubs currently installed.
    pub fn num_stubs(&self) -> usize {
        self.stubs.len()
    }

    /// Bumps the state-change epoch and returns the new value. The
    /// partitions of a cluster share one atomic sequencer, so seq stamps
    /// form a single global order.
    fn bump_epoch(&mut self) -> u64 {
        self.epoch = self.scope.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.epoch
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
        self.rqi.row(self.config.grid.flat_index(cell))
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
        let qid = QueryId(self.next_qid);
        let rec = LogRecord::InstallQuery {
            qid,
            focal,
            region,
            filter,
            expires_at,
        };
        self.drive(&rec, net);
        self.publish();
        qid
    }

    /// Removes every query whose lifetime has ended (call once per time
    /// step with the current time). Returns the expired query ids.
    pub fn expire_queries(&mut self, now: f64, net: &mut Net) -> Vec<QueryId> {
        let expired = mediate::expire(self, now, net);
        self.publish();
        expired
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
        let updated = self.drive(&LogRecord::UpdateRegion { qid, region }, net);
        self.publish();
        updated == ReplyPayload::Bool(true)
    }

    /// Removes a query from the system, notifying its monitoring region.
    pub fn remove_query(&mut self, qid: QueryId, net: &mut Net) -> bool {
        let removed = self.drive(&LogRecord::RemoveQuery(qid), net);
        self.publish();
        removed == ReplyPayload::Bool(true)
    }

    /// Drains and processes all pending uplink messages. Call once per
    /// tick. The drain buffer is a persistent scratch — at million-object
    /// scale the tick applies its uplink batch without allocating.
    pub fn tick(&mut self, net: &mut Net) {
        let mut uplinks = std::mem::take(&mut self.uplink_scratch);
        net.drain_uplinks_into(&mut uplinks);
        for (from, msg) in uplinks.drain(..) {
            self.drive(&LogRecord::Uplink { from: from.0, msg }, net);
        }
        self.uplink_scratch = uplinks;
        self.publish();
    }

    /// Processes one uplink message.
    pub fn handle_uplink(&mut self, from: NodeId, msg: Uplink, net: &mut Net) {
        self.drive(&LogRecord::Uplink { from: from.0, msg }, net);
        self.publish();
    }

    /// Runs the periodic fault-tolerance duties ([`mediate::heartbeat`]);
    /// the driver calls this once per time step, before the tick's
    /// uplinks. One record covers them all: due-ness, lease expiry and the
    /// nested teardowns replay deterministically from the clock value.
    pub fn heartbeat(&mut self, now: f64, net: &mut Net) {
        // The record publishes: it is a tick boundary.
        self.drive(&LogRecord::Heartbeat(now), net);
    }

    /// [`apply`](Self::apply) for a record one of the entry points above
    /// built; the refusal step accepts every such record.
    fn drive(&mut self, rec: &LogRecord, net: &mut Net) -> ReplyPayload {
        self.apply(rec, net)
            .unwrap_or_else(|e| unreachable!("an entry point built a refused record: {e}"))
    }

    /// The one way protocol state changes: the entry points above, replay,
    /// the partition service and an in-process partition handle all run a
    /// record through here, in three steps.
    ///
    /// 1. **Refuse** a record no handler could take without panicking — a
    ///    flat cell off the grid, partition bounds the table refuses, an
    ///    install for a focal object without a FOT row. The error changes
    ///    nothing and journals nothing. Cells that index the RQI are
    ///    clamped to the grid instead, as the coordinator clamps them.
    /// 2. **Journal** the record, before its effects — the only write to
    ///    the sink, behind a [`LogRecord::Floor`] when the (shared) epoch
    ///    it observes moved since its last record.
    /// 3. **Dispatch** it to its handler and return the handler's value.
    ///    Handlers never journal: a record names everything its handler
    ///    does, nested teardowns included.
    ///
    /// Counters are published at the tick-boundary records (`SetTime`,
    /// `Heartbeat`), so a replay or a partition service takes the
    /// telemetry lock once per tick, not once per record; a caller that
    /// reads the sink before then calls [`publish`](Self::publish) first.
    ///
    /// Replay must start from the newest [`LogRecord::Checkpoint`] of a
    /// compacted log (see `mobieyes-store`): records before it reference
    /// state the checkpoint subsumes.
    pub fn apply(&mut self, rec: &LogRecord, net: &mut Net) -> Result<ReplyPayload, DecodeError> {
        self.refuse(rec)?;
        self.journal_record(rec);
        self.dispatch(rec, net)
    }

    /// Step one of [`apply`](Self::apply).
    fn refuse(&self, rec: &LogRecord) -> Result<(), DecodeError> {
        let grid = &self.config.grid;
        // A stub's region is walked cell by cell into the RQI: a corner
        // past the grid would index out of it (or, on a partition, alias
        // into the next row). An empty region walks nothing.
        let region_off_grid =
            |r: &&GridRect| !r.is_empty() && !grid.contains_cell(CellId::new(r.x1, r.y1));
        let region = match rec {
            LogRecord::Cluster(ClusterMsg::StubUpdate {
                mon_region,
                old_mon,
                ..
            }) => [Some(mon_region), old_mon.as_ref()]
                .into_iter()
                .flatten()
                .find(region_off_grid),
            LogRecord::Cluster(ClusterMsg::StubRemove { mon_region, .. }) => {
                Some(mon_region).filter(region_off_grid)
            }
            LogRecord::Cluster(ClusterMsg::RebalanceCells { stubs, .. }) => {
                stubs.iter().map(|s| &s.mon_region).find(region_off_grid)
            }
            _ => None,
        };
        if let Some(r) = region {
            return Err(DecodeError(format!("monitoring region {r:?} off the grid")));
        }
        let off_grid = |flat: &u32| *flat as usize >= self.rqi.len();
        let flat = match rec {
            LogRecord::Bounds { generation, bounds } => {
                self.scope
                    .table
                    .validate(&usize_bounds(bounds), *generation)?;
                None
            }
            LogRecord::CompleteInstall { qid, focal, .. } if !self.fot.contains_key(focal) => {
                let e = format!("install of {qid:?} for {focal:?}, which has no FOT row");
                return Err(DecodeError(e));
            }
            LogRecord::ExportCells { flats, .. } => flats.iter().find(|f| off_grid(f)),
            LogRecord::Cluster(ClusterMsg::RebalanceCells { cells, .. }) => {
                cells.iter().map(|(f, _)| f).find(|f| off_grid(f))
            }
            LogRecord::Cluster(ClusterMsg::RecoverCells { cells, .. }) => {
                cells.iter().find(|f| off_grid(f))
            }
            _ => None,
        };
        match flat {
            Some(f) => Err(DecodeError(format!("flat cell {f} off the grid"))),
            None => Ok(()),
        }
    }

    /// Step two of [`apply`](Self::apply). The server first logs the
    /// epoch floor it observes when that moved since its last record:
    /// its own ops and sibling partitions advance the sequencer between
    /// records, and the seq stamps it writes depend on it.
    fn journal_record(&mut self, rec: &LogRecord) {
        let Some(sink) = &self.journal else { return };
        let floor = match rec {
            // The store writes these itself.
            LogRecord::Meta { .. } | LogRecord::Floor(_) | LogRecord::Checkpoint(_) => return,
            // No floor before an install: ownership reads no epoch, and
            // the next op's record logs the floor it observes.
            LogRecord::Bounds { .. } => None,
            _ => Some(self.current_epoch()).filter(|&observed| observed != self.journal_floor),
        };
        if let Some(observed) = floor {
            self.journal_floor = observed;
        }
        for r in floor.map(LogRecord::Floor).iter().chain([rec]) {
            sink.append(r);
        }
    }

    /// Step three of [`apply`](Self::apply): the handler of each record —
    /// here for the entry points and the tick and fence bookkeeping, in
    /// [`primitive`](Self::primitive) for the rest.
    fn dispatch(&mut self, rec: &LogRecord, net: &mut Net) -> Result<ReplyPayload, DecodeError> {
        match *rec {
            LogRecord::Meta { .. } => {} // provenance; validated by the reader
            LogRecord::Floor(v) => self.raise_epoch(v),
            LogRecord::SetTime(t) => {
                // The cluster coordinator owns the heartbeat gate and
                // pushes time down to every partition.
                self.now = t;
                self.publish();
            }
            LogRecord::Heartbeat(t) => {
                mediate::heartbeat(self, t, net);
                self.publish();
            }
            LogRecord::Uplink { from, ref msg } => {
                mediate::uplink(self, (), NodeId(from), msg, net)
            }
            LogRecord::InstallQuery {
                qid,
                focal,
                region,
                ref filter,
                expires_at,
            } => {
                debug_assert_eq!(qid.0, self.next_qid, "install off the next query id");
                self.next_qid += 1;
                let p = PendingInstall {
                    qid,
                    region,
                    filter: Arc::new(filter.clone()),
                    expires_at,
                };
                mediate::install(self, focal, p, net);
            }
            LogRecord::Bounds {
                generation,
                ref bounds,
            } => {
                let bounds = usize_bounds(bounds);
                self.scope.table.install_at(&bounds, generation)
            }
            LogRecord::Checkpoint(ref bytes) => self.restore_checkpoint(bytes)?,
            _ => return Ok(self.primitive(rec, net)),
        }
        Ok(ReplyPayload::Unit)
    }

    /// The handler of each primitive record, the records a mediation
    /// sequence calls. Inlined: where the sequence names the record, the
    /// match folds to its one handler.
    #[inline(always)]
    fn primitive(&mut self, rec: &LogRecord, net: &mut Net) -> ReplyPayload {
        use ReplyPayload::{Bool, OptCluster, Qids, U64};
        match *rec {
            LogRecord::CompleteInstall {
                qid,
                focal,
                region,
                ref filter,
                expires_at,
            } => self.complete_install(focal, qid, region, Arc::clone(filter), expires_at, net),
            LogRecord::RemoveQuery(qid) => return Bool(self.remove(qid, net)),
            LogRecord::UpdateRegion { qid, region } => {
                return Bool(self.update_region(qid, region, net))
            }
            LogRecord::RenewLease(oid) => self.renew_lease(oid),
            LogRecord::VelocityReport { oid, motion } => self.on_velocity_report(oid, motion, net),
            LogRecord::CellChangeFocal {
                oid,
                new_cell,
                motion,
            } => {
                let new_cell = self.config.grid.clamp_cell(new_cell);
                self.apply_cell_change_focal(oid, new_cell, motion, net);
            }
            LogRecord::CellChangeFresh {
                oid,
                prev_cell,
                new_cell,
                // Only the trajectory index reads it.
                motion: _,
            } => {
                let new_cell = self.config.grid.clamp_cell(new_cell);
                self.apply_cell_change_fresh(oid, prev_cell, new_cell, net);
            }
            LogRecord::ResultChange {
                qid,
                oid,
                is_target,
            } => return Bool(self.apply_result_change(qid, oid, is_target, net)),
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
            LogRecord::PurgeObject(oid) => return Qids(self.purge_object(oid)),
            LogRecord::ResultDelta { qid, oid, entered } => {
                self.deliver_result_delta(qid, oid, entered, net)
            }
            LogRecord::LqtReconcile {
                qid,
                oid,
                is_target,
            } => return Bool(self.set_member(qid, oid, is_target)),
            LogRecord::FocalReassert(oid) => self.focal_reassert(oid, net),
            LogRecord::CellSyncReply { oid, cell } => {
                let cell = self.config.grid.clamp_cell(cell);
                self.cell_sync_reply(oid, cell, net);
            }
            LogRecord::ExtractFocal(oid) => {
                return OptCluster(self.extract_focal(oid).map(Box::new))
            }
            LogRecord::Cluster(ref msg) => self.apply_cluster_msg(msg),
            LogRecord::ExportCells {
                ref flats,
                generation,
            } => return OptCluster(self.export_cells(flats, generation).map(Box::new)),
            LogRecord::PruneStubs => self.prune_stubs(),
            LogRecord::BumpEpoch => return U64(self.bump_epoch()),
            _ => unreachable!("{rec:?} is not a primitive"),
        }
        ReplyPayload::Unit
    }

    /// Finishes installation once the focal object's motion is in the FOT
    /// (the refusal step of [`apply`](Self::apply) guarantees the row).
    fn complete_install(
        &mut self,
        focal: ObjectId,
        qid: QueryId,
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
        self.sqt_insert(qid, row);
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

    /// A query's new spatial region (see
    /// [`update_query_region`](Self::update_query_region)); `false` for an
    /// unknown query.
    fn update_region(&mut self, qid: QueryId, region: QueryRegion, net: &mut Net) -> bool {
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

    /// Tears a query down, notifying its monitoring region; `false` for an
    /// unknown query.
    fn remove(&mut self, qid: QueryId, net: &mut Net) -> bool {
        let Some(entry) = self.sqt_remove(qid) else {
            return false;
        };
        self.rqi_remove(qid, &entry.mon_region);
        if let Some(fot) = self.fot.get_mut(&entry.focal) {
            fot.queries.retain(|&q| q != qid);
            if entry.slot != crate::messages::NO_SLOT {
                fot.used_slots &= !(1u64 << entry.slot);
            }
            if fot.queries.is_empty() {
                self.fot_remove(entry.focal);
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

    /// Refreshes (or, when `insert` is set, creates) the FOT row for an
    /// object that reported its motion, keeping the fresher sample.
    fn refresh_focal_motion(
        &mut self,
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        insert: bool,
    ) {
        let now = self.now;
        if insert {
            let row = FotEntry {
                motion,
                max_vel,
                queries: Vec::new(),
                used_slots: 0,
                last_heard: now,
            };
            self.fot_insert(oid, row);
        }
        // Keep remote stubs' motion in step (seqs unchanged: a motion
        // refresh is not a disseminated state change).
        let mut stamped: Vec<(QueryId, u64)> = Vec::new();
        if let Some(f) = self.fot.get_mut(&oid) {
            if motion.tm >= f.motion.tm {
                f.motion = motion;
                f.max_vel = max_vel;
                let seq = |q: &QueryId| self.sqt.get(q).map(|e| (*q, e.seq));
                stamped.extend(f.queries.iter().filter_map(seq));
            }
            f.last_heard = now;
        }
        if !stamped.is_empty() {
            self.emit_stub_motion(oid, motion, max_vel, &stamped);
        }
    }

    /// Removes `oid` from every local result set, returning the queries it
    /// was purged from (result deltas and counters are the caller's job).
    fn purge_object(&mut self, oid: ObjectId) -> Vec<QueryId> {
        let stale: Vec<QueryId> = self.memberships(oid).collect();
        for &qid in &stale {
            self.set_member(qid, oid, false);
        }
        stale
    }

    /// Re-asserts focality: the original FocalNotify may have been lost
    /// (or wiped by a crash), which would silence dead reckoning.
    fn focal_reassert(&mut self, oid: ObjectId, net: &mut Net) {
        if self.fot.get(&oid).is_some_and(|f| !f.queries.is_empty()) {
            self.tally.incr(srv_slots::UNICAST_OPS);
            net.send_unicast(oid.node(), Downlink::FocalNotify { is_focal: true });
        }
    }

    /// Replays the authoritative query state of `cell` to a resyncing
    /// object (`cell` is on the grid: the dispatch clamps it).
    fn cell_sync_reply(&mut self, oid: ObjectId, cell: CellId, net: &mut Net) {
        let row = self.rqi.row(self.config.grid.flat_index(cell));
        let infos: Vec<QueryGroupInfo> = if self.config.grouping {
            let mut sorted = row.to_vec();
            sorted.sort_unstable();
            self.group_queries(&sorted)
                .into_iter()
                .map(|g| self.group_info_for(g[0]))
                .collect()
        } else {
            // Every query is its own group, listed by ascending id; a row
            // names each query once.
            let mut infos: Vec<QueryGroupInfo> =
                row.iter().map(|&q| self.group_info_for(q)).collect();
            infos.sort_unstable_by_key(|info| info.queries[0].qid);
            infos
        };
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

    /// The current server epoch (monotone state-change counter; shared
    /// across the cluster when this server is a partition).
    pub fn current_epoch(&self) -> u64 {
        self.scope.epoch.load(Ordering::Relaxed)
    }

    /// A focal object's dead-reckoning report: refresh the FOT and relay to
    /// the monitoring regions of its queries.
    fn on_velocity_report(&mut self, oid: ObjectId, motion: LinearMotion, net: &mut Net) {
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
        self.emit_stub_motion(oid, motion, max_vel, &stamped);
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

    /// Focal-object half of a cell change: recompute monitoring regions
    /// and push the new query state to the union of old and new regions.
    /// In a cluster this runs on the focal object's home partition (after
    /// any cross-border migration); the coordinator counts the cell
    /// change itself.
    fn apply_cell_change_focal(
        &mut self,
        oid: ObjectId,
        new_cell: CellId,
        motion: LinearMotion,
        net: &mut Net,
    ) {
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
        // together must agree on both. (Same old region does not always
        // imply same new region: the universe boundary clips monitoring
        // regions asymmetrically.) Without grouping each goes alone, in
        // query order.
        let mut groups = BTreeMap::<_, Vec<QueryId>>::new();
        for &qid in &queries {
            let e = &self.sqt[&qid];
            let new_region = grid.monitoring_region(new_cell, e.region.reach());
            let alone = (!self.config.grouping).then_some(qid);
            let key = (alone, e.mon_region, new_region);
            groups.entry(key).or_default().push(qid);
        }
        for ((_, old_region, new_region), group) in groups {
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
    fn apply_cell_change_fresh(
        &mut self,
        oid: ObjectId,
        prev_cell: CellId,
        new_cell: CellId,
        net: &mut Net,
    ) {
        let idx = self.config.grid.flat_index(new_cell);
        // Most crossings land in a cell no query monitors: no reply, and
        // no load of the row array.
        if !self.rqi.occupied(idx) {
            return;
        }
        // One pass over the row: each fresh query's group, once, built
        // from its first fresh member — the payload `group_queries`
        // groups would yield, in the same order.
        let grouping = self.config.grouping;
        let mut infos: Vec<QueryGroupInfo> = Vec::new();
        for &qid in self.rqi.row(idx) {
            let key = self.q_group(qid);
            if key.is_some_and(|(_, mon)| mon.contains(prev_cell)) {
                continue;
            }
            if grouping {
                let key = key.expect("grouped query in SQT or stub table");
                if infos.iter().any(|i| (i.focal, i.mon_region) == key) {
                    continue;
                }
            }
            infos.push(self.group_info_for(qid));
        }
        if grouping {
            infos.sort_unstable_by_key(|i| (i.focal, i.mon_region));
        }
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
            let key = self
                .q_group(qid)
                .expect("grouped query in SQT or stub table");
            groups.entry(key).or_default().push(qid);
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
        let grouping = self.config.grouping;
        // One table lookup per query: each member's spec comes from the
        // row that placed it in the group.
        let (focal, motion, max_vel, mon_region, queries) = match self.sqt.get(&qid) {
            Some(e) => {
                let fot = &self.fot[&e.focal];
                let queries: Vec<QuerySpec> = if grouping {
                    let same = |&q: &QueryId| {
                        let m = &self.sqt[&q];
                        (m.mon_region == e.mon_region).then(|| m.spec(q))
                    };
                    fot.queries.iter().filter_map(same).collect()
                } else {
                    vec![e.spec(qid)]
                };
                (e.focal, fot.motion, fot.max_vel, e.mon_region, queries)
            }
            None => {
                let e = &self.stubs[&qid];
                let queries: Vec<QuerySpec> = if grouping {
                    let same = |s: &StubEntry| s.focal == e.focal && s.mon_region == e.mon_region;
                    let group = self.stubs.iter().filter(|(_, s)| same(s));
                    group.map(|(&q, s)| s.spec(q)).collect()
                } else {
                    vec![e.spec(qid)]
                };
                (e.focal, e.motion, e.max_vel, e.mon_region, queries)
            }
        };
        QueryGroupInfo {
            focal,
            motion,
            max_vel,
            mon_region,
            queries: Arc::new(queries),
        }
    }

    /// The dissemination spec of a query, whether homed here or stubbed.
    fn spec(&self, qid: QueryId) -> QuerySpec {
        match self.sqt.get(&qid) {
            Some(e) => e.spec(qid),
            None => self
                .stubs
                .get(&qid)
                .expect("query in SQT or stub table")
                .spec(qid),
        }
    }

    /// Pushes one membership change to the query's focal object when
    /// result delivery is enabled (the paper's query examples expect the
    /// issuer to *see* the result: "give me the positions of those
    /// customers ... at each instance of time").
    fn deliver_result_delta(&mut self, qid: QueryId, oid: ObjectId, entered: bool, net: &mut Net) {
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

    /// Renews the lease of a focal object (any uplink from it counts).
    fn renew_lease(&mut self, oid: ObjectId) {
        if let Some(f) = self.fot.get_mut(&oid) {
            f.last_heard = self.now;
        }
    }

    /// One membership flip of a `ResultUpdate`; returns whether the
    /// result actually changed (the delta is delivered if so).
    fn apply_result_change(
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
    fn apply_group_result_update(
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
}
