//! Cluster support: stub emission, focal extraction, RQI export, stub
//! pruning and the application of inter-server messages — and the reads
//! a partition answers the `mobieyes-cluster` coordinator's
//! [`Mediator`](super::Mediator) impl with. The reads are
//! `#[doc(hidden)]` — not part of the protocol's public surface.

use super::tables::{FotEntry, SqtEntry, StubEntry};
use super::Server;
use crate::messages::{state_digest, ClusterMsg, QueryMigration, QuerySpec, StubSeed};
use crate::model::{ObjectId, QueryId};
use mobieyes_geo::{CellId, GridRect, LinearMotion};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

impl Server {
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
    pub fn reinstall_info(&self, qid: QueryId) -> Option<super::mediate::Reinstall> {
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
        // One buffer for every row's ascending (query, seq) feed.
        let mut sorted: Vec<(QueryId, u64)> = Vec::new();
        for (idx, qids) in self.rqi.occupied_rows() {
            sorted.clear();
            sorted.extend(qids.iter().map(|&q| (q, self.q_seq(q))));
            sorted.sort_unstable_by_key(|&(q, _)| q);
            cell_digests.push((grid.cell_at(idx), state_digest(sorted.iter().copied())));
        }
        cell_digests
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

    /// Drains the inter-server outbox: `(destination partition, message)`
    /// pairs in emission order.
    #[doc(hidden)]
    pub fn take_outbox(&mut self) -> Vec<(u32, ClusterMsg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Whether the outbox holds an envelope [`take_outbox`](Self::take_outbox)
    /// would drain.
    #[doc(hidden)]
    pub fn has_outbox(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Evicts a focal object and all its queries for migration to another
    /// partition, returning the `MigrateFocal` payload. Monitoring-region
    /// overlap with our own cells degrades to stubs — RQI rows and their
    /// counters are deliberately untouched, the region coverage itself
    /// did not change.
    pub(super) fn extract_focal(&mut self, oid: ObjectId) -> Option<ClusterMsg> {
        let owned = self.scope.owned_range();
        let grid = self.config.grid.clone();
        let fot = self.fot_remove(oid)?;
        let mut queries = Vec::new();
        for &qid in &fot.queries {
            let e = self.sqt_remove(qid).expect("FOT query in SQT");
            let spec = QuerySpec {
                qid,
                region: e.region,
                filter: e.filter,
                slot: e.slot,
                seq: e.seq,
            };
            let overlap = e
                .mon_region
                .iter()
                .any(|c| owned.contains(&grid.flat_index(c)));
            if overlap {
                let stub = StubEntry::new(oid, fot.motion, fot.max_vel, e.mon_region, &spec);
                self.stubs.insert(qid, stub);
            }
            queries.push(QueryMigration {
                spec,
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
    pub(super) fn export_cells(&mut self, flats: &[u32], generation: u64) -> Option<ClusterMsg> {
        let mut cells = Vec::new();
        let mut named: BTreeSet<QueryId> = BTreeSet::new();
        for &flat in flats {
            let row = self.rqi.take(flat as usize);
            if row.is_empty() {
                continue;
            }
            named.extend(row.iter().copied());
            cells.push((flat, row));
        }
        if cells.is_empty() {
            return None;
        }
        let mut stubs = Vec::with_capacity(named.len());
        for qid in named {
            let (focal, motion, max_vel, mon_region) = match self.sqt.get(&qid) {
                Some(e) => {
                    let f = &self.fot[&e.focal];
                    (e.focal, f.motion, f.max_vel, e.mon_region)
                }
                None => {
                    let s = &self.stubs[&qid];
                    (s.focal, s.motion, s.max_vel, s.mon_region)
                }
            };
            let spec = self.spec(qid);
            stubs.push(StubSeed {
                focal,
                motion,
                max_vel,
                mon_region,
                spec,
            });
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
    pub(super) fn prune_stubs(&mut self) {
        let owned = self.scope.owned_range();
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
    pub(super) fn apply_cluster_msg(&mut self, msg: &ClusterMsg) {
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
                let row = FotEntry {
                    motion: *motion,
                    max_vel: *max_vel,
                    queries: Vec::new(),
                    used_slots: *used_slots,
                    last_heard: *last_heard,
                };
                self.fot_insert(*oid, row);
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
                    self.sqt_insert(qid, row);
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
                let owned = self.scope.owned_range();
                let grid = &self.config.grid;
                let overlap = mon_region
                    .iter()
                    .any(|c| owned.contains(&grid.flat_index(c)));
                if overlap {
                    let stub = StubEntry::new(*focal, *motion, *max_vel, *mon_region, spec);
                    self.stubs.insert(spec.qid, stub);
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
                if *generation != self.scope.generation() {
                    return;
                }
                for (flat, qids) in cells {
                    // Verbatim assignment preserves the home insertion
                    // order (which drives fresh-query reply ordering) and
                    // is idempotent under bus duplication. No RQI counter:
                    // coverage did not change, the row changed hands.
                    self.rqi.set(*flat as usize, qids.clone());
                }
                for s in stubs {
                    let qid = s.spec.qid;
                    if self.sqt.contains_key(&qid) {
                        continue; // homed here — the row resolves locally
                    }
                    if self.stubs.get(&qid).is_some_and(|e| e.seq >= s.spec.seq) {
                        continue;
                    }
                    let stub = StubEntry::new(s.focal, s.motion, s.max_vel, s.mon_region, &s.spec);
                    self.stubs.insert(qid, stub);
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
                if *generation != self.scope.generation() {
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
                    self.rqi.set(flat as usize, row);
                }
            }
        }
    }

    /// Queues a `StubUpdate` for every other partition overlapping the
    /// query's (new ∪ old) monitoring region.
    pub(super) fn emit_stub_update(&mut self, qid: QueryId, old_mon: Option<GridRect>) {
        let e = &self.sqt[&qid];
        let fot = &self.fot[&e.focal];
        let msg = ClusterMsg::StubUpdate {
            focal: e.focal,
            motion: fot.motion,
            max_vel: fot.max_vel,
            curr_cell: e.curr_cell,
            mon_region: e.mon_region,
            old_mon,
            spec: self.spec(qid),
        };
        let owners = match old_mon {
            Some(old) => self.peers(&[e.mon_region, old]),
            None => self.peers(&[e.mon_region]),
        };
        for p in owners {
            self.outbox.push((p, msg.clone()));
        }
    }

    /// Queues a `StubRemove` for every other partition overlapping the
    /// removed query's monitoring region.
    pub(super) fn emit_stub_remove(&mut self, qid: QueryId, mon_region: GridRect, epoch: u64) {
        for p in self.peers(&[mon_region]) {
            let msg = ClusterMsg::StubRemove {
                qid,
                mon_region,
                epoch,
            };
            self.outbox.push((p, msg));
        }
    }

    /// Queues per-partition `StubMotion` messages for the given freshly
    /// stamped queries of a focal object.
    pub(super) fn emit_stub_motion(
        &mut self,
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        stamped: &[(QueryId, u64)],
    ) {
        let mut per: BTreeMap<u32, Vec<(QueryId, u64)>> = BTreeMap::new();
        for &(qid, seq) in stamped {
            let Some(mon) = self.q_mon(qid) else {
                continue;
            };
            for p in self.peers(&[mon]) {
                per.entry(p).or_default().push((qid, seq));
            }
        }
        for (p, qids) in per {
            let msg = ClusterMsg::StubMotion {
                focal: oid,
                motion,
                max_vel,
                qids,
            };
            self.outbox.push((p, msg));
        }
    }

    /// The other partitions owning a cell of `regions` — where a stub
    /// message about them goes; none on a one-partition table. Partitions own
    /// ascending runs of flat indices. A region whose first and last cells
    /// are ours lies wholly in our run. Otherwise each of its rows is a run:
    /// the row's owners are the partitions from its first cell's owner to
    /// its last cell's that own any cell at all — two lookups per row,
    /// whatever the region's width.
    fn peers(&self, regions: &[GridRect]) -> BTreeSet<u32> {
        let mut owners = BTreeSet::new();
        let scope = &self.scope;
        let grid = &self.config.grid;
        let flat = |x, y| grid.flat_index(CellId::new(x, y));
        let owner = |x, y| scope.owner_of(flat(x, y));
        let ours = scope.owned_range();
        for r in regions.iter().filter(|r| !r.is_empty()) {
            if ours.contains(&flat(r.x0, r.y0)) && ours.contains(&flat(r.x1, r.y1)) {
                continue;
            }
            for y in r.y0..=r.y1 {
                let (first, last) = (owner(r.x0, y), owner(r.x1, y));
                let owning = |&p: &u32| !scope.table.owned_range(p).is_empty();
                owners.extend((first..=last).filter(owning));
            }
        }
        owners.remove(&scope.partition());
        owners
    }

    /// Maximum speed of a focal object, as last reported.
    #[doc(hidden)]
    pub fn focal_max_vel(&self, oid: ObjectId) -> Option<f64> {
        self.fot.get(&oid).map(|f| f.max_vel)
    }
}
