//! Protocol wire messages.
//!
//! Every message reports its serialized size (in bytes) through
//! [`WireSized`]; the sizes drive the message/byte accounting behind the
//! paper's messaging-cost and power figures. A size is the length of the
//! message's encoding, counted off the one layout [`crate::codec`]
//! declares for it: u32 ids (4), f64 scalars (8), `LinearMotion` (40),
//! `GridRect` (16), a 1-byte message tag and 2-byte length prefixes on
//! vectors.

use crate::codec;
use crate::filter::Filter;
use crate::model::{ObjectId, QueryId};
use mobieyes_geo::{CellId, GridRect, LinearMotion, QueryRegion};
use mobieyes_net::WireSized;
use std::sync::Arc;

/// Sentinel slot for queries beyond the 64-bit group bitmap: these always
/// report their containment itemized, never via bitmaps.
pub const NO_SLOT: u8 = u8::MAX;

/// Digest of an empty query set (no queries relevant to a cell). Cells
/// absent from a heartbeat's digest list implicitly carry this value.
pub const EMPTY_STATE_DIGEST: u64 = 0;

/// Order-sensitive fold digest of `(query id, sequence number)` pairs.
/// Callers must feed pairs in ascending query-id order; the server digests
/// its RQI slice for a cell, objects digest their local query table, and a
/// mismatch triggers a resync handshake. splitmix64-style mixing keeps
/// accidental collisions vanishingly unlikely (and a collision only delays
/// repair by one heartbeat, never corrupts state).
pub fn state_digest<I: IntoIterator<Item = (QueryId, u64)>>(pairs: I) -> u64 {
    let mut h = EMPTY_STATE_DIGEST;
    for (qid, seq) in pairs {
        let mut z = h ^ (qid.0 as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seq.rotate_left(32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        h = z ^ (z >> 31);
    }
    h
}

/// The `(cell, digest)` list of a heartbeat beacon, with the way to look a
/// cell up in it decided once per message instead of once per agent that
/// hears it: a list in row-major order (ascending `(y, x)`, which is
/// ascending flat index on the grid — how every deployment builds it) is
/// searched by bisection, any other list by the linear scan. Either way
/// [`get`](Self::get) answers what a first-match scan of the list answers.
///
/// The order flag is derived from the list when it is built or decoded
/// and never travels; the list itself keeps its order exactly, so the
/// encoding round-trips byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDigests {
    entries: Vec<(CellId, u64)>,
    row_major: bool,
}

/// A cell's place in row-major order.
fn row_major_key(c: CellId) -> (u32, u32) {
    (c.y, c.x)
}

impl CellDigests {
    pub fn new(entries: Vec<(CellId, u64)>) -> Self {
        let row_major = entries
            .windows(2)
            .all(|w| row_major_key(w[0].0) <= row_major_key(w[1].0));
        CellDigests { entries, row_major }
    }

    /// The digest listed for `cell` — its first entry when the list names
    /// it twice — or `None` when the list leaves it out.
    #[inline]
    pub fn get(&self, cell: CellId) -> Option<u64> {
        let found = if self.row_major {
            let key = row_major_key(cell);
            let at = self
                .entries
                .partition_point(|(c, _)| row_major_key(*c) < key);
            self.entries.get(at).filter(|(c, _)| *c == cell)
        } else {
            self.entries.iter().find(|(c, _)| *c == cell)
        };
        found.map(|&(_, digest)| digest)
    }

    /// Whether the list is in row-major order: lookups bisect.
    pub fn is_row_major(&self) -> bool {
        self.row_major
    }

    /// The `(cell, digest)` entries in the order they were listed.
    pub fn entries(&self) -> &[(CellId, u64)] {
        &self.entries
    }
}

/// One query inside a (possibly grouped) dissemination message.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub qid: QueryId,
    pub region: QueryRegion,
    /// Shared so broadcast fan-out does not deep-copy predicate trees.
    pub filter: Arc<Filter>,
    /// Server-assigned group slot: the bit index this query occupies in
    /// grouped result bitmaps (unique among the focal object's queries).
    pub slot: u8,
    /// Server epoch at the query's last state change. Receivers discard
    /// specs whose `seq` is older than the state they already hold, which
    /// makes reordered/duplicated broadcasts harmless.
    pub seq: u64,
}

/// Full state of one *query group*: all queries bound to the same focal
/// object that share a monitoring region. Without grouping each group
/// carries exactly one query.
///
/// This is the unit of the three full-state dissemination flows: query
/// installation, focal cell changes (the paper's combined-region update)
/// and velocity updates under lazy propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGroupInfo {
    pub focal: ObjectId,
    /// Last reported motion sample of the focal object.
    pub motion: LinearMotion,
    /// Maximum speed of the focal object (for safe-period computation).
    pub max_vel: f64,
    pub mon_region: GridRect,
    pub queries: Arc<Vec<QuerySpec>>,
}

/// Object → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Uplink {
    /// A focal object's dead-reckoning report: its advertised linear motion
    /// deviated from reality by more than Δ.
    VelocityReport { oid: ObjectId, motion: LinearMotion },
    /// The object moved to a different grid cell. Sent by every object
    /// under eager propagation, and only by focal objects under lazy
    /// propagation. Carries fresh motion so the server can update the FOT
    /// and re-disseminate in one round trip.
    CellChange {
        oid: ObjectId,
        prev_cell: CellId,
        new_cell: CellId,
        motion: LinearMotion,
    },
    /// Differential result maintenance: containment status flips observed
    /// by the object during its local evaluation.
    ResultUpdate {
        oid: ObjectId,
        /// `(query, is_now_target)` pairs.
        changes: Vec<(QueryId, bool)>,
    },
    /// Grouped result maintenance (§4.1): the full query bitmap of one
    /// focal object's query group. `mask` marks which bits are being
    /// reported (the queries installed at this object), `targets` the
    /// subset where the object is inside the region and passes the filter.
    /// Bit `i` refers to the query holding group slot `i` of `focal`
    /// (slots are server-assigned and travel in [`QuerySpec::slot`]).
    GroupResultUpdate {
        oid: ObjectId,
        focal: ObjectId,
        mask: u64,
        targets: u64,
    },
    /// Response to a server position request during query installation:
    /// the object's current motion sample and its maximum speed.
    PositionReply {
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
    },
    /// Reconnect / repair handshake: the object asks the server to replay
    /// the query state for its current grid cell. Sent after an offline
    /// period, and whenever the heartbeat digest for the cell disagrees
    /// with the object's local query table. `fresh` means the object
    /// restarted with empty state (crash) — the server must also purge the
    /// object from all query results it can no longer vouch for.
    Resync {
        oid: ObjectId,
        cell: CellId,
        motion: LinearMotion,
        max_vel: f64,
        fresh: bool,
    },
    /// Soft-state refresh: the object's full local result view — every
    /// installed query with its current containment bit. Doubles as a
    /// lease keepalive for focal objects and lets the server drop stale
    /// result members whose departure reports were lost.
    LqtSync {
        oid: ObjectId,
        /// `(query, is_target)` for every query installed at the object.
        entries: Vec<(QueryId, bool)>,
    },
}

/// Server → object messages (unicast or broadcast).
#[derive(Debug, Clone, PartialEq)]
pub enum Downlink {
    /// Full query-group state. Broadcast to the (possibly combined old∪new)
    /// monitoring region on installation and focal cell changes, and — under
    /// lazy propagation — on focal velocity changes. Receivers inside the
    /// monitoring region install/update; receivers outside remove.
    QueryState { info: QueryGroupInfo },
    /// Velocity-only update under eager propagation: receivers that already
    /// hold these queries refresh the focal motion sample.
    VelocityChange {
        focal: ObjectId,
        motion: LinearMotion,
        qids: Vec<QueryId>,
        /// Server epoch of the update; receivers ignore it for queries
        /// whose installed state is already newer.
        seq: u64,
    },
    /// Eager propagation: the queries an object must install after
    /// reporting a cell change (unicast).
    NewQueries { infos: Vec<QueryGroupInfo> },
    /// A query was removed from the system (broadcast to its monitoring
    /// region). `epoch` tombstones the removal: a later `QueryState` for
    /// the same query with an older sequence number must not resurrect it.
    RemoveQuery { qid: QueryId, epoch: u64 },
    /// Tells an object whether it is (still) the focal object of at least
    /// one query (unicast; sets the paper's `hasMQ` flag).
    FocalNotify { is_focal: bool },
    /// Asks an object for its current motion sample (unicast, during
    /// installation when the focal object is unknown to the server).
    PositionRequest,
    /// One membership change of a query's result, pushed to the issuing
    /// focal object when result delivery is enabled.
    ResultDelta {
        qid: QueryId,
        object: ObjectId,
        entered: bool,
    },
    /// Periodic soft-state beacon, broadcast through every base station.
    /// Carries the server epoch and a digest of the RQI slice per grid
    /// cell (only cells with at least one relevant query are listed).
    /// Objects compare the digest for their cell against their local
    /// query table and request a resync on mismatch.
    Heartbeat {
        epoch: u64,
        /// `(cell, digest)` pairs, in row-major order, for non-empty cells.
        cell_digests: CellDigests,
    },
    /// Reconnect-handshake reply (unicast): the authoritative query state
    /// for one grid cell — every query group whose monitoring region
    /// covers `cell`. The receiver reconciles its local table to exactly
    /// this set.
    CellSync {
        cell: CellId,
        epoch: u64,
        infos: Vec<QueryGroupInfo>,
    },
}

/// One query's full server-side state in flight during a focal handoff:
/// the SQT row (including the current result set) that migrates to the
/// partition taking ownership of the focal object's new cell.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMigration {
    pub spec: QuerySpec,
    pub curr_cell: CellId,
    pub mon_region: GridRect,
    /// Absolute expiry time; `None` = no lifetime bound.
    pub expires_at: Option<f64>,
    /// Current result membership, ascending object id.
    pub result: Vec<ObjectId>,
}

/// Everything a partition needs to reconstruct one remote-region stub
/// during a rebalance cell transfer: the query spec plus the focal
/// object's motion state. See [`ClusterMsg::RebalanceCells`].
#[derive(Debug, Clone, PartialEq)]
pub struct StubSeed {
    pub focal: ObjectId,
    pub motion: LinearMotion,
    pub max_vel: f64,
    pub mon_region: GridRect,
    pub spec: QuerySpec,
}

/// Server ↔ server messages of the partitioned cluster tier.
///
/// Carried over a dedicated inter-server [`mobieyes_net::NetworkSim`]
/// link, so the same fault plans that perturb the wireless legs can
/// drop/duplicate handoff traffic too. Every variant is stamped with the
/// epoch/seq machinery of the fault-tolerance layer: receivers discard
/// anything not strictly newer than the state they already hold, which
/// makes replayed or duplicated handoffs no-ops.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterMsg {
    /// Full focal-object handoff when a focal's cell change crosses a
    /// partition border: the FOT row plus every SQT row bound to it.
    MigrateFocal {
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        used_slots: u64,
        /// Lease timestamp travels with the row so the new owner does not
        /// spuriously expire a healthy focal.
        last_heard: f64,
        /// Sender's view of the global epoch when the handoff was cut.
        epoch: u64,
        queries: Vec<QueryMigration>,
    },
    /// Install or refresh a *remote-region stub*: a read-only replica of a
    /// query homed on another partition whose monitoring region covers
    /// some of the receiver's cells, so RQI lookups (fresh-query replies,
    /// cell syncs, heartbeat digests) stay complete at the border.
    /// `old_mon` is the previous monitoring region whose RQI entries the
    /// receiver must clear first (region moved or grew).
    StubUpdate {
        focal: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        curr_cell: CellId,
        mon_region: GridRect,
        old_mon: Option<GridRect>,
        spec: QuerySpec,
    },
    /// Motion-only refresh of existing stubs after the focal object
    /// reported new motion (velocity report or position reply). `qids`
    /// carries the per-query seq stamps of the update.
    StubMotion {
        focal: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        qids: Vec<(QueryId, u64)>,
    },
    /// Drop a stub: the query was removed or its monitoring region no
    /// longer reaches the receiver's cells.
    StubRemove {
        qid: QueryId,
        mon_region: GridRect,
        epoch: u64,
    },
    /// Rebalance cell transfer: the verbatim RQI rows of a batch of cells
    /// reassigned to the receiver by a new partition-map generation, plus
    /// the stub seeds needed to resolve the referenced queries locally.
    /// Valid only for the exact `generation` it was cut for — receivers
    /// drop the whole message on any mismatch, which makes duplicated or
    /// stale deliveries no-ops.
    RebalanceCells {
        /// The partition-map generation this transfer belongs to.
        generation: u64,
        /// Sender's view of the global epoch when the transfer was cut.
        epoch: u64,
        /// `(flat cell index, RQI row in home insertion order)`.
        cells: Vec<(u32, Vec<QueryId>)>,
        /// Stub material for every distinct query named in `cells`.
        stubs: Vec<StubSeed>,
    },
    /// Crash-failover cell adoption: the receiver now owns `cells`, whose
    /// previous owner died taking its RQI rows with it. Unlike
    /// [`ClusterMsg::RebalanceCells`] there is no verbatim row to carry —
    /// the receiver rebuilds each adopted row from its *own* SQT and stub
    /// tables (the queries it already knows whose monitoring regions reach
    /// the cell); everything else repopulates through agent resyncs. Valid
    /// only for the exact `generation` it was cut for, exactly like a
    /// rebalance transfer, so duplicated or stale deliveries are no-ops.
    RecoverCells {
        /// The partition-map generation this adoption belongs to.
        generation: u64,
        /// Sender's view of the global epoch when the fence was raised.
        epoch: u64,
        /// Flat cell indices the receiver adopts under `generation`.
        cells: Vec<u32>,
    },
}

/// A message costs what its encoding is long: the size the paper's
/// messaging-cost accounting charges is counted off the encoder.
macro_rules! sized_by_encoding {
    ($($t:ty),*) => {$(
        impl WireSized for $t {
            fn wire_size(&self) -> usize {
                codec::encoded_len(self)
            }
        }
    )*};
}

sized_by_encoding!(Uplink, Downlink, ClusterMsg);

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_geo::{Point, Vec2};

    fn motion() -> LinearMotion {
        LinearMotion::new(Point::new(1.0, 2.0), Vec2::new(0.1, 0.2), 30.0)
    }

    fn spec(qid: u32) -> QuerySpec {
        QuerySpec {
            qid: QueryId(qid),
            region: QueryRegion::circle(3.0),
            filter: Arc::new(Filter::True),
            slot: qid as u8,
            seq: qid as u64,
        }
    }

    /// `spec(_)`: qid, slot, seq, a circle (tag + radius), `Filter::True`.
    const SPEC_LEN: usize = 4 + 1 + 8 + 9 + 1;

    #[test]
    fn spec_size() {
        assert_eq!(codec::encoded_len(&spec(0)), SPEC_LEN);
    }

    fn group(n: u32) -> QueryGroupInfo {
        QueryGroupInfo {
            focal: ObjectId(7),
            motion: motion(),
            max_vel: 0.05,
            mon_region: GridRect {
                x0: 0,
                y0: 0,
                x1: 2,
                y1: 2,
            },
            queries: Arc::new((0..n).map(spec).collect()),
        }
    }

    #[test]
    fn uplink_sizes() {
        assert_eq!(
            Uplink::VelocityReport {
                oid: ObjectId(1),
                motion: motion()
            }
            .wire_size(),
            45
        );
        assert_eq!(
            Uplink::CellChange {
                oid: ObjectId(1),
                prev_cell: CellId::new(0, 0),
                new_cell: CellId::new(1, 0),
                motion: motion()
            }
            .wire_size(),
            61
        );
        assert_eq!(
            Uplink::ResultUpdate {
                oid: ObjectId(1),
                changes: vec![(QueryId(1), true)]
            }
            .wire_size(),
            12
        );
        assert_eq!(
            Uplink::GroupResultUpdate {
                oid: ObjectId(1),
                focal: ObjectId(2),
                mask: 1,
                targets: 1
            }
            .wire_size(),
            25
        );
        assert_eq!(
            Uplink::PositionReply {
                oid: ObjectId(1),
                motion: motion(),
                max_vel: 0.1
            }
            .wire_size(),
            53
        );
        assert_eq!(
            Uplink::Resync {
                oid: ObjectId(1),
                cell: CellId::new(2, 3),
                motion: motion(),
                max_vel: 0.1,
                fresh: true
            }
            .wire_size(),
            62
        );
        assert_eq!(
            Uplink::LqtSync {
                oid: ObjectId(1),
                entries: vec![(QueryId(1), true), (QueryId(2), false)]
            }
            .wire_size(),
            17
        );
    }

    #[test]
    fn grouped_state_is_smaller_than_separate_states() {
        // One grouped message for 3 queries must be cheaper than 3
        // single-query messages: the focal motion/region header is shared.
        let grouped = Downlink::QueryState { info: group(3) }.wire_size();
        let single = Downlink::QueryState { info: group(1) }.wire_size();
        assert!(
            grouped < 3 * single,
            "grouped {grouped} vs 3x single {single}"
        );
    }

    #[test]
    fn result_update_grows_with_changes() {
        let one = Uplink::ResultUpdate {
            oid: ObjectId(1),
            changes: vec![(QueryId(1), true)],
        };
        let three = Uplink::ResultUpdate {
            oid: ObjectId(1),
            changes: vec![(QueryId(1), true), (QueryId(2), false), (QueryId(3), true)],
        };
        assert_eq!(three.wire_size() - one.wire_size(), 10);
    }

    #[test]
    fn bitmap_beats_itemized_updates_for_large_groups() {
        let bitmap = Uplink::GroupResultUpdate {
            oid: ObjectId(1),
            focal: ObjectId(2),
            mask: u64::MAX,
            targets: 0,
        };
        let itemized = Uplink::ResultUpdate {
            oid: ObjectId(1),
            changes: (0..10).map(|i| (QueryId(i), true)).collect(),
        };
        assert!(bitmap.wire_size() < itemized.wire_size());
    }

    #[test]
    fn downlink_sizes() {
        assert_eq!(
            Downlink::RemoveQuery {
                qid: QueryId(1),
                epoch: 9
            }
            .wire_size(),
            13
        );
        assert_eq!(Downlink::FocalNotify { is_focal: true }.wire_size(), 2);
        assert_eq!(Downlink::PositionRequest.wire_size(), 1);
        let vc = Downlink::VelocityChange {
            focal: ObjectId(1),
            motion: motion(),
            qids: vec![QueryId(1)],
            seq: 3,
        };
        assert_eq!(vc.wire_size(), 1 + 4 + 40 + 2 + 4 + 8);
        assert_eq!(
            Downlink::Heartbeat {
                epoch: 1,
                cell_digests: CellDigests::new(vec![
                    (CellId::new(0, 0), 7),
                    (CellId::new(1, 0), 9)
                ])
            }
            .wire_size(),
            1 + 8 + 2 + 2 * 16
        );
        let sync = Downlink::CellSync {
            cell: CellId::new(1, 1),
            epoch: 4,
            infos: vec![group(2)],
        };
        assert_eq!(
            sync.wire_size(),
            1 + 8 + 8 + 2 + Downlink::QueryState { info: group(2) }.wire_size() - 1
        );
    }

    #[test]
    fn cluster_msg_sizes() {
        let mig = ClusterMsg::MigrateFocal {
            oid: ObjectId(1),
            motion: motion(),
            max_vel: 0.05,
            used_slots: 0b11,
            last_heard: 42.0,
            epoch: 9,
            queries: vec![QueryMigration {
                spec: spec(0),
                curr_cell: CellId::new(1, 1),
                mon_region: GridRect {
                    x0: 0,
                    y0: 0,
                    x1: 2,
                    y1: 2,
                },
                expires_at: Some(99.0),
                result: vec![ObjectId(4), ObjectId(5)],
            }],
        };
        // tag + oid + motion + 3 f64/u64 + epoch + count + one migration.
        let one = SPEC_LEN + 8 + 16 + 1 + 8 + 2 + 8;
        assert_eq!(mig.wire_size(), 1 + 4 + 40 + 8 + 8 + 8 + 8 + 2 + one);
        let stub = ClusterMsg::StubUpdate {
            focal: ObjectId(1),
            motion: motion(),
            max_vel: 0.05,
            curr_cell: CellId::new(0, 0),
            mon_region: GridRect {
                x0: 0,
                y0: 0,
                x1: 1,
                y1: 1,
            },
            old_mon: None,
            spec: spec(0),
        };
        assert_eq!(stub.wire_size(), 1 + 4 + 40 + 8 + 8 + 16 + 1 + SPEC_LEN);
        let refresh = ClusterMsg::StubMotion {
            focal: ObjectId(1),
            motion: motion(),
            max_vel: 0.05,
            qids: vec![(QueryId(1), 7), (QueryId(2), 7)],
        };
        assert_eq!(refresh.wire_size(), 1 + 4 + 40 + 8 + 2 + 24);
        let rm = ClusterMsg::StubRemove {
            qid: QueryId(1),
            mon_region: GridRect {
                x0: 0,
                y0: 0,
                x1: 1,
                y1: 1,
            },
            epoch: 3,
        };
        assert_eq!(rm.wire_size(), 1 + 4 + 16 + 8);
        let reb = ClusterMsg::RebalanceCells {
            generation: 2,
            epoch: 11,
            cells: vec![(3, vec![QueryId(0), QueryId(1)]), (4, Vec::new())],
            stubs: vec![StubSeed {
                focal: ObjectId(1),
                motion: motion(),
                max_vel: 0.05,
                mon_region: GridRect {
                    x0: 0,
                    y0: 0,
                    x1: 1,
                    y1: 1,
                },
                spec: spec(0),
            }],
        };
        let seed = 4 + 40 + 8 + 16 + SPEC_LEN;
        assert_eq!(
            reb.wire_size(),
            1 + 8 + 8 + 2 + (4 + 2 + 8) + (4 + 2) + 2 + seed
        );
    }

    /// What the lookup must answer: the first entry naming `cell`.
    fn first_match(entries: &[(CellId, u64)], cell: CellId) -> Option<u64> {
        entries.iter().find(|(c, _)| *c == cell).map(|&(_, d)| d)
    }

    /// Every cell of a 6 x 5 grid and some past its edge, looked up in
    /// seeded random lists — row-major and not, with repeated cells, empty
    /// — answers what a first-match scan answers, and row-major lists are
    /// recognised as such.
    #[test]
    fn cell_digest_lookup_matches_a_first_match_scan() {
        let mut rng = 7u64;
        let mut draw = |n: u64| {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            state_digest([(QueryId(rng as u32), rng)]) % n
        };
        let probes: Vec<CellId> = (0..8)
            .flat_map(|y| (0..8).map(move |x| CellId::new(x, y)))
            .chain([CellId::new(u32::MAX, 0), CellId::new(0, u32::MAX)])
            .collect();
        let mut sorted_lists = 0;
        for round in 0..400 {
            let len = draw(12) as usize;
            let mut entries: Vec<(CellId, u64)> = (0..len)
                .map(|i| {
                    let cell = CellId::new(draw(7) as u32, draw(6) as u32);
                    (cell, 100 * round + i as u64)
                })
                .collect();
            let sort = draw(2) == 0;
            if sort {
                // A stable sort keeps repeated cells in listed order.
                entries.sort_by_key(|&(c, _)| (c.y, c.x));
            }
            let digests = CellDigests::new(entries.clone());
            if sort {
                assert!(digests.is_row_major(), "{entries:?}");
                sorted_lists += 1;
            }
            assert_eq!(digests.entries(), &entries[..]);
            for &cell in &probes {
                assert_eq!(
                    digests.get(cell),
                    first_match(&entries, cell),
                    "{cell:?} in {entries:?}"
                );
            }
        }
        assert!(sorted_lists > 100);
        assert!(
            CellDigests::new(vec![(CellId::new(1, 0), 1), (CellId::new(0, 1), 2)]).is_row_major()
        );
        assert!(
            !CellDigests::new(vec![(CellId::new(0, 1), 1), (CellId::new(1, 0), 2)]).is_row_major(),
            "column-major is not row-major"
        );
        assert_eq!(CellDigests::new(Vec::new()).get(CellId::new(0, 0)), None);
    }

    /// A heartbeat's digest list carries its lookup flag without making
    /// every downlink bigger: the largest variant is a full query group.
    #[test]
    fn downlink_size_is_set_by_the_query_group() {
        assert_eq!(
            std::mem::size_of::<Downlink>(),
            std::mem::size_of::<QueryGroupInfo>() + 8
        );
    }

    #[test]
    fn velocity_change_is_cheaper_than_full_state() {
        // The EQP velocity update must be smaller than the LQP full-state
        // update for the same group — that is the bandwidth trade-off the
        // paper describes.
        let eqp = Downlink::VelocityChange {
            focal: ObjectId(7),
            motion: motion(),
            qids: vec![QueryId(0), QueryId(1), QueryId(2)],
            seq: 1,
        };
        let lqp = Downlink::QueryState { info: group(3) };
        assert!(eqp.wire_size() < lqp.wire_size());
    }
}
