//! The mediator's entry points, written once.
//!
//! Each entry point of the paper's server — an agent uplink, the
//! heartbeat, a query install, removal or expiry — is a fixed sequence of
//! primitive operations on the FOT, SQT and RQI, each a [`LogRecord`] a
//! server's dispatch runs. This module writes every sequence once, generic
//! over a [`Mediator`] that answers routing questions (where a focal object
//! or a query is homed, who owns a cell, which homes exist), carries the
//! calls (records that may move the epoch, closed records, typed reads)
//! and holds the state (pending installs, the `srv.*` tally, an event sink
//! per home).
//!
//! A single [`Server`] is the trivial mediator: one home, `()`, and every
//! call a direct dispatch — never [`Server::apply`], so nested work is not
//! journaled. The `mobieyes-cluster` coordinator homes state on N
//! partitions and pumps its inter-server bus after each call. Steps that
//! exist only for N homes (lease renewal at each, the focal migration
//! before a cell change, the per-home read fan-outs, the time push, the
//! shared epoch bump) are trait methods, trivial on one server. Where
//! several homes' answers merge, they are re-sorted by object or query id,
//! the order one server's tables yield. One sequence is what makes an
//! N-partition run byte-identical to the single server.

use super::lqt_sync::LqtSyncScratch;
use super::tables::PendingInstall;
use super::{srv_slots, Net, Server, ServerTally};
use crate::config::ProtocolConfig;
use crate::filter::Filter;
use crate::journal::{LogRecord, ReplyPayload};
use crate::messages::{CellDigests, ClusterMsg, Downlink, Uplink};
use crate::model::{ObjectId, QueryId};
use mobieyes_geo::{CellId, LinearMotion, QueryRegion};
use mobieyes_net::{NodeId, StationsOver};
use mobieyes_telemetry::{EventKind, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a query needs to be re-announced under the same id.
pub type Reinstall = (QueryRegion, Arc<Filter>, Option<f64>);

/// A focal object's motion and its queries.
pub type Focal = (LinearMotion, Vec<QueryId>);

/// Where state lives and how a sequence reaches it; see the module docs.
pub trait Mediator {
    /// `()` on one server, a partition index on a cluster.
    type Home: Copy + Default + PartialEq;
    type Homes: Iterator<Item = Self::Home>;

    fn config(&self) -> &ProtocolConfig;

    // --- routing ------------------------------------------------------------

    /// Where `oid`'s FOT row is, if anywhere.
    fn focal_home(&self, oid: ObjectId) -> Option<Self::Home>;
    /// Where `qid`'s SQT row is, if anywhere; one home may answer itself
    /// for any query, since every handler skips a query it lacks.
    fn query_home(&self, qid: QueryId) -> Option<Self::Home>;
    /// Who owns the RQI row of `cell`, a cell on the grid.
    fn cell_owner(&self, cell: CellId) -> Self::Home;
    /// Every home, in order.
    fn homes(&self) -> Self::Homes;

    // --- calls --------------------------------------------------------------

    /// Runs a record at `home`; a home that cannot answer yields the
    /// answer's neutral value.
    fn call<T: FromPayload + Default>(
        &mut self,
        home: Self::Home,
        rec: &LogRecord,
        net: &mut Net,
    ) -> T;
    /// Runs a closed record at `home`: its answer is not read, and it moves
    /// no epoch and sends nothing to another home.
    fn post(&mut self, home: Self::Home, rec: &LogRecord, net: &mut Net);
    /// A focal object's motion and queries at its home.
    fn focal(&mut self, home: Self::Home, oid: ObjectId, net: &mut Net) -> Option<Focal>;
    fn query_cell(&mut self, home: Self::Home, qid: QueryId, net: &mut Net) -> Option<CellId>;
    fn reinstall(&mut self, home: Self::Home, qid: QueryId, net: &mut Net) -> Option<Reinstall>;
    /// Appends `oid`'s result memberships at every home, in any order.
    fn load_memberships(
        &mut self,
        oid: ObjectId,
        into: &mut Vec<(QueryId, Self::Home)>,
        net: &mut Net,
    );
    /// Per home, in home order: focals whose lease lapsed, with queries.
    fn expired_leases(&mut self, net: &mut Net) -> Vec<Vec<(ObjectId, Vec<QueryId>)>>;
    /// Per home: the queries whose lifetime ended by `now`.
    fn expired_queries(&mut self, now: f64, net: &mut Net) -> Vec<Vec<QueryId>>;
    /// Per home: the RQI digests of its cells, ascending. Homes own
    /// ascending blocks of cells, so the lists concatenate.
    fn digest_cells(&mut self, net: &mut Net) -> Vec<Vec<(CellId, u64)>>;

    // --- steps that exist for N homes ---------------------------------------

    /// Renews `oid`'s lease wherever its FOT row is homed.
    fn renew_leases(&mut self, oid: ObjectId, net: &mut Net);
    /// Moves `oid`'s FOT row and queries from `from` to `to`; returns
    /// where the row is afterwards.
    fn migrate_focal(
        &mut self,
        oid: ObjectId,
        from: Self::Home,
        to: Self::Home,
        net: &mut Net,
    ) -> Option<Self::Home>;
    /// Sets every home's clock.
    fn set_time(&mut self, now: f64);
    /// Bumps the epoch all homes share and returns it.
    fn bump_shared_epoch(&mut self) -> u64;
    /// Removes a query whose lifetime ended, as an entry point of its own.
    fn remove_expired(&mut self, home: Self::Home, qid: QueryId, net: &mut Net);

    // --- state --------------------------------------------------------------

    fn pending(&mut self) -> &mut BTreeMap<ObjectId, Vec<PendingInstall>>;
    fn tally(&mut self) -> &mut ServerTally;
    fn events(&self, home: Self::Home) -> &Telemetry;
    fn last_heartbeat(&mut self) -> &mut f64;
    fn lqt_scratch(&mut self) -> &mut LqtSyncScratch<Self::Home>;
}

/// One agent uplink. `primary` is where a report about an object no home
/// knows goes.
pub fn uplink<M: Mediator>(m: &mut M, primary: M::Home, from: NodeId, msg: &Uplink, net: &mut Net) {
    m.tally().incr(srv_slots::UPLINKS);
    // Any uplink from a focal object renews its lease.
    m.renew_leases(ObjectId(from.0), net);
    match *msg {
        Uplink::VelocityReport { oid, motion } => {
            debug_assert_eq!(from.0, oid.0);
            let home = m.focal_home(oid).unwrap_or(primary);
            m.call::<()>(home, &LogRecord::VelocityReport { oid, motion }, net);
        }
        Uplink::CellChange {
            oid,
            prev_cell,
            new_cell,
            motion,
        } => {
            m.tally().incr(srv_slots::CELL_CHANGES);
            let home = m.focal_home(oid);
            cell_change(m, oid, home, prev_cell, new_cell, motion, net);
        }
        Uplink::ResultUpdate { oid, ref changes } => {
            m.tally().incr(srv_slots::RESULT_UPDATES);
            for &(qid, is_target) in changes {
                if let Some(home) = m.query_home(qid) {
                    let change = LogRecord::ResultChange {
                        qid,
                        oid,
                        is_target,
                    };
                    m.post(home, &change, net);
                }
            }
        }
        Uplink::GroupResultUpdate {
            oid,
            focal,
            mask,
            targets,
        } => {
            m.tally().incr(srv_slots::RESULT_UPDATES);
            if let Some(home) = m.focal_home(focal) {
                let update = LogRecord::GroupResultUpdate {
                    oid,
                    focal,
                    mask,
                    targets,
                };
                m.post(home, &update, net);
            }
        }
        Uplink::PositionReply {
            oid,
            motion,
            max_vel,
        } => {
            let home = m.focal_home(oid).unwrap_or(primary);
            let refresh = LogRecord::RefreshFocalMotion {
                oid,
                motion,
                max_vel,
                insert: true,
            };
            m.call::<()>(home, &refresh, net);
            complete_pending(m, oid, net);
        }
        Uplink::Resync {
            oid,
            cell,
            motion,
            max_vel,
            fresh,
        } => resync(m, oid, cell, motion, max_vel, fresh, net),
        Uplink::LqtSync { oid, ref entries } => lqt_sync(m, oid, entries, net),
    }
}

/// An object crossed a cell boundary: the focal half at the focal's home
/// (`home`, migrated first if the new cell is another home's), then the
/// fresh-queries half at the new cell's owner — all a non-focal object,
/// the common case, issues.
fn cell_change<M: Mediator>(
    m: &mut M,
    oid: ObjectId,
    mut home: Option<M::Home>,
    prev_cell: CellId,
    new_cell: CellId,
    motion: LinearMotion,
    net: &mut Net,
) {
    // Wire-carried cells may overshoot the grid.
    let new_cell = m.config().grid.clamp_cell(new_cell);
    let new_home = m.cell_owner(new_cell);
    if let Some(old_home) = home.filter(|&h| h != new_home) {
        home = m.migrate_focal(oid, old_home, new_home, net);
    }
    if let Some(h) = home {
        let focal = LogRecord::CellChangeFocal {
            oid,
            new_cell,
            motion,
        };
        m.call::<()>(h, &focal, net);
    }
    let fresh = LogRecord::CellChangeFresh {
        oid,
        prev_cell,
        new_cell,
        motion,
    };
    m.post(new_home, &fresh, net);
}

/// Completes the installs deferred behind `oid`'s position at its home.
/// Without a FOT row (its home may have died) they stay deferred, and the
/// heartbeat retries.
fn complete_pending<M: Mediator>(m: &mut M, oid: ObjectId, net: &mut Net) {
    let Some(pending) = m.pending().remove(&oid) else {
        return;
    };
    let Some(home) = m.focal_home(oid) else {
        m.pending().insert(oid, pending);
        return;
    };
    for p in pending {
        m.call::<()>(home, &p.complete(oid), net);
    }
}

/// The reconnect / digest-mismatch handshake: refresh what is known about
/// the object, repair a focal whose last report was lost, purge it from
/// results it can no longer vouch for when it restarted empty, complete
/// any deferred installs, and replay the authoritative query state of its
/// cell.
fn resync<M: Mediator>(
    m: &mut M,
    oid: ObjectId,
    cell: CellId,
    motion: LinearMotion,
    max_vel: f64,
    fresh: bool,
    net: &mut Net,
) {
    let cell = m.config().grid.clamp_cell(cell);
    // Only materialize a FOT row if an install is waiting on this object.
    let has_pending = m.pending().contains_key(&oid);
    let home0 = m.focal_home(oid);
    // A home that lost the row or died since answering leaves no prior
    // state; the lease teardown reclaims the queries.
    let prior = home0.and_then(|home| Some((home, m.focal(home, oid, net)?)));
    // An object with no FOT row and no install waiting on it has nothing
    // to refresh: the record would be a no-op wherever it ran.
    if home0.is_some() || has_pending {
        let target = home0.unwrap_or_else(|| m.cell_owner(m.config().grid.cell_of(motion.pos)));
        let refresh = LogRecord::RefreshFocalMotion {
            oid,
            motion,
            max_vel,
            insert: has_pending,
        };
        m.call::<()>(target, &refresh, net);
    }
    // Focal repair: a dropped CellChange or VelocityReport leaves the
    // focal stale, and the focal, believing it arrived, never re-sends it.
    // Push whichever piece of the authoritative (cell, motion) disagrees
    // through the normal update machinery. The first reported query cell
    // is the cell the focal leaves.
    if let Some((home, (old_motion, queries))) = prior.filter(|(_, (_, q))| !q.is_empty()) {
        let (mut prev, mut stale_cell) = (None, false);
        for &qid in &queries {
            if let Some(reported) = m.query_cell(home, qid, net) {
                prev.get_or_insert(reported);
                stale_cell |= reported != cell;
            }
        }
        match prev.filter(|_| stale_cell) {
            Some(prev) => {
                m.tally().incr(srv_slots::CELL_CHANGES);
                cell_change(m, oid, home0, prev, cell, motion, net);
            }
            None if motion.tm > old_motion.tm => {
                m.call::<()>(home, &LogRecord::VelocityReport { oid, motion }, net);
            }
            None => {}
        }
    }
    if fresh {
        // A crashed object's containment reports are void until it
        // re-evaluates.
        let purge = LogRecord::PurgeObject(oid);
        let purged: Vec<Vec<QueryId>> = m.homes().map(|h| m.call(h, &purge, net)).collect();
        let stale = merge(m, purged, |&qid| qid);
        m.tally()
            .add(srv_slots::STALE_RESULTS_PURGED, stale.len() as u64);
        for (home, qid) in stale {
            let delta = LogRecord::ResultDelta {
                qid,
                oid,
                entered: false,
            };
            m.post(home, &delta, net);
        }
    }
    complete_pending(m, oid, net);
    if let Some(home) = m.focal_home(oid) {
        m.post(home, &LogRecord::FocalReassert(oid), net);
    }
    let owner = m.cell_owner(cell);
    m.post(owner, &LogRecord::CellSyncReply { oid, cell }, net);
}

/// Soft-state refresh: reconcile `oid`'s result memberships where they
/// disagree with its claims (`entries`, its whole local view). Every
/// reconcile runs before the first delta goes out.
fn lqt_sync<M: Mediator>(m: &mut M, oid: ObjectId, entries: &[(QueryId, bool)], net: &mut Net) {
    m.tally().incr(srv_slots::LQT_SYNCS);
    let mut scratch = std::mem::take(m.lqt_scratch());
    m.load_memberships(oid, scratch.members(), net);
    let mut deltas = Vec::new();
    for flip in scratch.walk(entries) {
        let (qid, is_target) = (flip.qid, flip.is_target);
        // A member leaves where it is one; a target joins at the query.
        let Some(home) = flip.member.or_else(|| m.query_home(qid)) else {
            continue;
        };
        let reconcile = LogRecord::LqtReconcile {
            qid,
            oid,
            is_target,
        };
        if m.call(home, &reconcile, net) {
            if !flip.claimed {
                m.tally().incr(srv_slots::STALE_RESULTS_PURGED);
            }
            deltas.push((home, qid, is_target));
        }
    }
    *m.lqt_scratch() = scratch;
    for (home, qid, entered) in deltas {
        m.post(home, &LogRecord::ResultDelta { qid, oid, entered }, net);
    }
}

/// The fault-tolerance duties, every `heartbeat_secs` under
/// [`ProtocolConfig::fault_tolerant`]: (1) focal objects silent for over
/// `lease_secs` get their queries torn down and re-announced through the
/// position-request handshake; (2) every pending install's position
/// request is retried; (3) a beacon carries the epoch and per-cell RQI
/// digests, against which objects verify their local query tables.
pub fn heartbeat<M: Mediator>(m: &mut M, now: f64, net: &mut Net) {
    m.set_time(now);
    let (enabled, every) = (m.config().fault_tolerant(), m.config().heartbeat_secs);
    if !enabled || now - *m.last_heartbeat() < every {
        return;
    }
    *m.last_heartbeat() = now;
    m.tally().incr(srv_slots::HEARTBEATS);

    // (1) Lease expiry.
    let leases = m.expired_leases(net);
    for (home, (oid, qids)) in merge(m, leases, |&(oid, _)| oid) {
        m.tally().incr(srv_slots::LEASES_EXPIRED);
        m.events(home)
            .event(EventKind::LeaseExpired { oid: oid.0 as u64 });
        for qid in qids {
            // Gone already: under an earlier lease, or with its home.
            let Some((region, filter, expires_at)) = m.reinstall(home, qid, net) else {
                continue;
            };
            m.call::<bool>(home, &LogRecord::RemoveQuery(qid), net);
            // Re-announced under the same id by the request below.
            m.pending().entry(oid).or_default().push(PendingInstall {
                qid,
                region,
                filter,
                expires_at,
            });
        }
    }

    // (2) Retry pending installs.
    let waiting: Vec<ObjectId> = m.pending().keys().copied().collect();
    for oid in waiting {
        m.tally().incr(srv_slots::UNICAST_OPS);
        net.send_unicast(oid.node(), Downlink::PositionRequest);
    }

    // (3) Digest beacon. It demands an answer, so it bumps the epoch:
    // objects answer each beacon once however many stations relay it.
    // Every station sends it, each with the digests of the cells under it.
    let epoch = m.bump_shared_epoch();
    let all = CellDigests::new(m.digest_cells(net).concat());
    debug_assert!(all.is_row_major(), "beacon off the agents' fast path");
    let stations = net.layout().num_stations();
    let over = net.stations_over(&m.config().grid);
    let mut slices = station_slices(over, stations, all.entries());
    let sent = net.broadcast_each(|_, s| Downlink::Heartbeat {
        epoch,
        cell_digests: CellDigests::new(std::mem::take(&mut slices[s.0 as usize])),
    });
    m.tally().add(srv_slots::BROADCAST_OPS, sent as u64);
}

/// Each station's share of a beacon, indexed by station: the subsequence
/// of `entries` whose cells lie under it
/// ([`BaseStationLayout::cells_under`](mobieyes_net::BaseStationLayout::cells_under)).
/// An object a station covers is in a cell under it, and a subsequence
/// keeps every entry of that cell in order, so the object's first-match
/// lookup answers what it answers on the whole list.
fn station_slices(
    over: &StationsOver,
    stations: usize,
    entries: &[(CellId, u64)],
) -> Vec<Vec<(CellId, u64)>> {
    // Sized first: one allocation per station.
    let mut lens = vec![0usize; stations];
    for &(cell, _) in entries {
        for s in over.of(cell) {
            lens[s.0 as usize] += 1;
        }
    }
    let mut slices: Vec<Vec<(CellId, u64)>> = lens.into_iter().map(Vec::with_capacity).collect();
    for &(cell, digest) in entries {
        for s in over.of(cell) {
            slices[s.0 as usize].push((cell, digest));
        }
    }
    slices
}

/// Installs query `p.qid` for `focal`: at once at the focal's home, or
/// deferred behind a position request when no home knows its motion.
pub fn install<M: Mediator>(m: &mut M, focal: ObjectId, p: PendingInstall, net: &mut Net) {
    if let Some(home) = m.focal_home(focal) {
        m.call::<()>(home, &p.complete(focal), net);
        return;
    }
    let q = m.pending().entry(focal).or_default();
    let first = q.is_empty();
    q.push(p);
    if first {
        m.tally().incr(srv_slots::UNICAST_OPS);
        net.send_unicast(focal.node(), Downlink::PositionRequest);
    }
}

/// Removes a query at its home; `false` when no home has it.
pub fn remove<M: Mediator>(m: &mut M, qid: QueryId, net: &mut Net) -> bool {
    match m.query_home(qid) {
        Some(home) => m.call(home, &LogRecord::RemoveQuery(qid), net),
        None => false,
    }
}

/// Removes every query whose lifetime ended by `now`, in ascending id
/// across homes, and returns their ids.
pub fn expire<M: Mediator>(m: &mut M, now: f64, net: &mut Net) -> Vec<QueryId> {
    let expired = m.expired_queries(now, net);
    let expired = merge(m, expired, |&qid| qid);
    let mut out = Vec::with_capacity(expired.len());
    for (home, qid) in expired {
        m.events(home)
            .event(EventKind::QueryExpired { qid: qid.0 as u64 });
        m.remove_expired(home, qid, net);
        out.push(qid);
    }
    out
}

/// Per-home lists as one list of `(home, item)`, ascending by `key`.
fn merge<M: Mediator, T, K: Ord>(
    m: &M,
    per_home: Vec<Vec<T>>,
    key: impl Fn(&T) -> K,
) -> Vec<(M::Home, T)> {
    let homes = m.homes().zip(per_home);
    let mut all: Vec<_> = homes
        .flat_map(|(home, items)| items.into_iter().map(move |t| (home, t)))
        .collect();
    all.sort_by_key(|(_, t)| key(t));
    all
}

impl PendingInstall {
    /// The record that completes this install for `focal`.
    pub fn complete(self, focal: ObjectId) -> LogRecord {
        LogRecord::CompleteInstall {
            qid: self.qid,
            focal,
            region: self.region,
            filter: self.filter,
            expires_at: self.expires_at,
        }
    }
}

/// The single server: one home, and every call the record's handler.
impl Mediator for Server {
    type Home = ();
    type Homes = std::iter::Once<()>;

    fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    fn focal_home(&self, oid: ObjectId) -> Option<()> {
        self.fot.contains_key(&oid).then_some(())
    }

    fn query_home(&self, _: QueryId) -> Option<()> {
        Some(())
    }

    fn cell_owner(&self, _: CellId) {}

    fn homes(&self) -> std::iter::Once<()> {
        std::iter::once(())
    }

    #[inline(always)]
    fn call<T: FromPayload + Default>(&mut self, (): (), rec: &LogRecord, net: &mut Net) -> T {
        let payload = self.primitive(rec, net);
        T::from_payload(payload).unwrap_or_else(|p| unreachable!("{rec:?} answered {p:?}"))
    }

    #[inline(always)]
    fn post(&mut self, (): (), rec: &LogRecord, net: &mut Net) {
        self.primitive(rec, net);
    }

    fn focal(&mut self, (): (), oid: ObjectId, _: &mut Net) -> Option<Focal> {
        self.fot.get(&oid).map(|f| (f.motion, f.queries.clone()))
    }

    fn query_cell(&mut self, (): (), qid: QueryId, _: &mut Net) -> Option<CellId> {
        Server::query_cell(self, qid)
    }

    fn reinstall(&mut self, (): (), qid: QueryId, _: &mut Net) -> Option<Reinstall> {
        Server::reinstall_info(self, qid)
    }

    fn load_memberships(&mut self, oid: ObjectId, into: &mut Vec<(QueryId, ())>, _: &mut Net) {
        into.extend(Server::memberships(self, oid).map(|qid| (qid, ())));
    }

    fn expired_leases(&mut self, _: &mut Net) -> Vec<Vec<(ObjectId, Vec<QueryId>)>> {
        vec![Server::expired_leases(self)]
    }

    fn expired_queries(&mut self, now: f64, _: &mut Net) -> Vec<Vec<QueryId>> {
        vec![self.expired_query_ids(now)]
    }

    fn digest_cells(&mut self, _: &mut Net) -> Vec<Vec<(CellId, u64)>> {
        vec![Server::digest_cells(self)]
    }

    fn renew_leases(&mut self, oid: ObjectId, _: &mut Net) {
        self.renew_lease(oid);
    }

    fn migrate_focal(&mut self, _: ObjectId, (): (), (): (), _: &mut Net) -> Option<()> {
        unreachable!("one server homes every focal object")
    }

    fn set_time(&mut self, now: f64) {
        self.now = now;
    }

    fn bump_shared_epoch(&mut self) -> u64 {
        self.bump_epoch()
    }

    /// Journaled: no record names the expiry itself.
    fn remove_expired(&mut self, (): (), qid: QueryId, net: &mut Net) {
        self.drive(&LogRecord::RemoveQuery(qid), net);
    }

    fn pending(&mut self) -> &mut BTreeMap<ObjectId, Vec<PendingInstall>> {
        &mut self.pending
    }

    fn tally(&mut self) -> &mut ServerTally {
        &mut self.tally
    }

    fn events(&self, (): ()) -> &Telemetry {
        &self.telemetry
    }

    fn last_heartbeat(&mut self) -> &mut f64 {
        &mut self.last_heartbeat
    }

    fn lqt_scratch(&mut self) -> &mut LqtSyncScratch<()> {
        &mut self.lqt_scratch
    }
}

/// The shape an answer travels as in a [`ReplyPayload`]; an answer of any
/// other shape is handed back (boxed: it only feeds the failure report).
pub trait FromPayload: Sized {
    fn from_payload(payload: ReplyPayload) -> Result<Self, Box<ReplyPayload>>;
}

macro_rules! payload_shapes {
    ($($ty:ty => $shape:pat => $value:expr),* $(,)?) => {$(
        impl FromPayload for $ty {
            fn from_payload(payload: ReplyPayload) -> Result<Self, Box<ReplyPayload>> {
                use ReplyPayload::*;
                match payload {
                    $shape => Ok($value),
                    other => Err(Box::new(other)),
                }
            }
        }
    )*};
}

payload_shapes! {
    () => Unit => (),
    bool => Bool(v) => v,
    u64 => U64(v) => v,
    Vec<QueryId> => Qids(v) => v,
    Option<Vec<QueryId>> => OptQids(v) => v,
    Option<ClusterMsg> => OptCluster(v) => v.map(|m| *m),
    Option<LinearMotion> => OptMotion(v) => v,
    Option<CellId> => OptCell(v) => v,
    Option<ObjectId> => OptOid(v) => v,
    Vec<(CellId, u64)> => Digests(v) => v,
    Vec<(ObjectId, Vec<QueryId>)> => Leases(v) => v,
    Option<Reinstall> => Reinstall(v) => v,
    Option<Vec<ObjectId>> => ResultSet(v) => v,
    Vec<ObjectId> => Oids(v) => v,
    Vec<LinearMotion> => Motions(v) => v,
    (u64, u64, u64) => Load { focals, queries, stubs } => (focals, queries, stubs),
}

/// Any shape: what a posted record answers is not read.
impl FromPayload for ReplyPayload {
    fn from_payload(payload: ReplyPayload) -> Result<Self, Box<ReplyPayload>> {
        Ok(payload)
    }
}
