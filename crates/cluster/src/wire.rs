//! RPC wire format for remote partitions.
//!
//! A remote partition process holds one [`mobieyes_core::Server`] and
//! executes the same primitive operations the coordinator would call on an
//! in-process partition, in request order, answering each [`PartitionOp`]
//! with one [`PartitionReply`]. Each request carries the coordinator's
//! epoch view (the *floor*); the partition raises its local epoch to at
//! least the floor before executing, and the reply carries the post-op
//! epoch back. The coordinator waits for the reply of every op that can
//! move the epoch before issuing the next op anywhere, which reproduces
//! the shared atomic epoch counter of the in-process deployment exactly;
//! only *closed* ops ([`PartitionOp::is_closed`]) may be in flight
//! together — ops that move no epoch, queue no envelope, change no
//! FOT/SQT key and whose reply carries nothing the coordinator acts on
//! but downlinks. The wire format does not mark them: closedness is a
//! property of what the op does at the partition, listed here and
//! verified there on every execution (`serve::serve_op`).
//!
//! Replies also carry every side effect the operation produced:
//!
//! - the partition's inter-server outbox (bus envelopes the coordinator
//!   feeds through its [`Transport`](mobieyes_net::Transport), so fault
//!   plans apply uniformly to local and remote partitions),
//! - the downlink traffic the operation emitted ([`NetAction`]), which the
//!   coordinator replays onto the real agent network in operation order,
//!   and
//! - the changes the operation made to the set of focal objects and
//!   queries the partition homes ([`HomeChange`]), from which the
//!   coordinator keeps an exact mirror of both key sets instead of asking.
//!
//! Everything here rides on the bounds-checked primitives of
//! [`mobieyes_core::codec`] — a malformed frame is a [`TransportError`],
//! never a panic.

use crate::cluster_server::Envelope;
use mobieyes_core::codec::{
    self, decode_cluster, decode_downlink, encode_cluster, encode_downlink, DecodeError, Put,
    Reader,
};
use mobieyes_core::{ClusterMsg, Downlink, Filter, HomeChange, ObjectId, Propagation, QueryId};
use mobieyes_geo::{CellId, LinearMotion, QueryRegion, Rect};
use mobieyes_net::{Frame, Routed, TransportError};
use std::sync::Arc;

impl Frame for Envelope {
    fn encode_frame(&self, out: &mut Vec<u8>) {
        out.put_u32_le(self.to);
        encode_cluster(&self.msg, out);
    }

    fn decode_frame(bytes: &[u8]) -> std::result::Result<Self, TransportError> {
        let mut buf = Reader::new(bytes);
        let to = buf.get_u32_le("envelope destination").map_err(frame_err)?;
        let msg = decode_cluster(&mut buf).map_err(frame_err)?;
        if buf.remaining() != 0 {
            return Err(TransportError::Frame(format!(
                "{} trailing bytes after envelope",
                buf.remaining()
            )));
        }
        Ok(Envelope { to, msg })
    }
}

impl Routed for Envelope {
    fn dest(&self) -> u32 {
        self.to
    }
}

fn frame_err(e: DecodeError) -> TransportError {
    TransportError::Frame(e.to_string())
}

type Result<T> = std::result::Result<T, TransportError>;

/// Everything a partition process needs to reconstruct the deployment the
/// coordinator runs: the protocol configuration, the base-station layout
/// (for downlink generation) and this partition's slot in the map.
#[derive(Debug, Clone, PartialEq)]
pub struct InitConfig {
    pub universe: Rect,
    pub alpha: f64,
    pub alen: f64,
    pub delta: f64,
    pub propagation: Propagation,
    pub grouping: bool,
    pub safe_period: bool,
    pub deliver_results: bool,
    pub system_max_speed: f64,
    pub lease_secs: f64,
    pub heartbeat_secs: f64,
    pub partition: u32,
    pub num_partitions: u32,
    /// Durable-log directory for this partition, if persistence is on.
    pub store_dir: Option<String>,
    /// When true the partition wipes any existing log before opening it
    /// (a fenced-out respawn whose journal is stale — survivors hold the
    /// authoritative state, so the old log must not be replayed).
    pub store_fresh: bool,
}

/// One primitive operation against a remote partition — the RPC mirror of
/// the [`mobieyes_core::Server`] methods the coordinator drives.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionOp {
    /// Must be the first op on a connection; configures the partition.
    Init(InitConfig),
    SetTime(f64),
    RenewLease(ObjectId),
    VelocityReport {
        oid: ObjectId,
        motion: LinearMotion,
    },
    CellChangeFocal {
        oid: ObjectId,
        new_cell: CellId,
        motion: LinearMotion,
    },
    CellChangeFresh {
        oid: ObjectId,
        prev_cell: CellId,
        new_cell: CellId,
        motion: LinearMotion,
    },
    ResultChange {
        qid: QueryId,
        oid: ObjectId,
        is_target: bool,
    },
    GroupResultUpdate {
        oid: ObjectId,
        focal: ObjectId,
        mask: u64,
        targets: u64,
    },
    RefreshFocalMotion {
        oid: ObjectId,
        motion: LinearMotion,
        max_vel: f64,
        insert: bool,
    },
    CompleteInstall {
        qid: QueryId,
        focal: ObjectId,
        region: QueryRegion,
        filter: Arc<Filter>,
        expires_at: Option<f64>,
    },
    RemoveQuery(QueryId),
    ExpiredQueryIds(f64),
    ExpiredLeases,
    ReinstallInfo(QueryId),
    DigestCells,
    BumpEpoch,
    CurrentEpoch,
    QueryIds,
    QueryResult(QueryId),
    QueryFocal(QueryId),
    FocalMotion(ObjectId),
    FocalQueries(ObjectId),
    /// The homed queries whose result holds the object, ascending.
    /// Replies `Qids`.
    ObjectMemberships(ObjectId),
    QueryCell(QueryId),
    PurgeObject(ObjectId),
    DeliverResultDelta {
        qid: QueryId,
        oid: ObjectId,
        entered: bool,
    },
    LqtReconcileOne {
        qid: QueryId,
        oid: ObjectId,
        is_target: bool,
    },
    FocalReassert(ObjectId),
    CellSyncReply {
        oid: ObjectId,
        cell: CellId,
    },
    ExtractFocal(ObjectId),
    /// A bus envelope that survived the coordinator's fault plan.
    Deliver(ClusterMsg),
    CheckInvariants,
    /// Ends the service loop; the process exits cleanly.
    Shutdown,
    /// Forces the partition's local [`PartitionTable`] copy to exact
    /// bounds and generation, syncing it with the coordinator's table
    /// after a failover or re-adoption fence. Bounds are in flat cells.
    ///
    /// [`PartitionTable`]: mobieyes_core::PartitionTable
    InstallBounds {
        generation: u64,
        bounds: Vec<u64>,
    },
    /// Extracts the state rows for the given flat cells (the partition
    /// stops owning them); replies `OptCluster` with the resulting
    /// [`ClusterMsg::RebalanceCells`] transfer for the coordinator to
    /// route.
    ExportCells {
        flats: Vec<u32>,
        generation: u64,
    },
    /// Drops stub rows for queries whose owner region no longer reaches
    /// this partition (post-fence cleanup).
    PruneStubs,
    /// All focal object ids homed on this partition, ascending.
    FocalIds,
    /// The anchor cell of one homed focal object.
    FocalAnchorCell(ObjectId),
    /// Cuts a checkpoint of the partition's state into its durable log
    /// (no-op without a store). Replies `U64` with the log's next
    /// sequence number.
    Checkpoint,
    /// Historical trajectory query against the partition's durable log:
    /// motion samples for `oid` with report time in `[t0, t1]`. Replies
    /// `Motions` (empty without a store).
    Trajectory {
        oid: ObjectId,
        t0: f64,
        t1: f64,
    },
    /// The partition's state weight — homed focals, owned queries, stub
    /// rows — for rebalance telemetry. Replies `Load`.
    LoadSignal,
}

impl PartitionOp {
    /// Whether the op is *closed*: it bumps no epoch, queues no bus
    /// envelope and changes no FOT/SQT key, and the coordinator needs
    /// nothing from its reply but the downlinks — so it commutes with ops
    /// on other partitions and the coordinator may have several in flight
    /// (DESIGN.md §11). Every other op must be answered before the next
    /// op is issued anywhere. The list is checked, not trusted: the
    /// service refuses to acknowledge a closed op that moved the epoch,
    /// the outbox or the home log (`serve::serve_op`).
    pub fn is_closed(&self) -> bool {
        matches!(
            self,
            PartitionOp::RenewLease(_)
                | PartitionOp::CellChangeFresh { .. }
                | PartitionOp::ResultChange { .. }
                | PartitionOp::GroupResultUpdate { .. }
                | PartitionOp::DeliverResultDelta { .. }
                | PartitionOp::FocalReassert(_)
                | PartitionOp::CellSyncReply { .. }
        )
    }
}

/// A downlink the partition emitted while executing an op. The coordinator
/// replays these onto the real agent network in operation order, which
/// reproduces the exact queue contents (and thus delivery and downlink
/// fault-plan consumption) of an in-process run.
#[derive(Debug, Clone, PartialEq)]
pub enum NetAction {
    Unicast { node: u32, msg: Downlink },
    Broadcast { station: u32, msg: Downlink },
}

/// The operation's return value.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyPayload {
    Unit,
    Bool(bool),
    U64(u64),
    Qids(Vec<QueryId>),
    OptQids(Option<Vec<QueryId>>),
    OptCluster(Option<ClusterMsg>),
    OptMotion(Option<LinearMotion>),
    OptCell(Option<CellId>),
    OptOid(Option<ObjectId>),
    Digests(Vec<(CellId, u64)>),
    Leases(Vec<(ObjectId, Vec<QueryId>)>),
    Reinstall(Option<(QueryRegion, Filter, Option<f64>)>),
    ResultSet(Option<Vec<ObjectId>>),
    Oids(Vec<ObjectId>),
    /// Motion samples from the durable log, ascending by report time.
    Motions(Vec<LinearMotion>),
    /// Partition state weight: homed focals, owned queries, stub rows.
    Load {
        focals: u64,
        queries: u64,
        stubs: u64,
    },
}

/// Reply to one [`PartitionOp`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReply {
    /// The partition's epoch after the op (the coordinator folds it into
    /// its shared view with a `fetch_max`).
    pub epoch: u64,
    /// Inter-server envelopes the op queued (destination, message).
    pub outbox: Vec<(u32, ClusterMsg)>,
    /// Downlink traffic the op emitted, in emission order.
    pub net: Vec<NetAction>,
    pub payload: ReplyPayload,
    /// Focal objects and queries the partition started or stopped homing
    /// during the op (on the `Init` reply: everything a replayed log
    /// brought back), in the order it happened.
    pub homes: Vec<HomeChange>,
}

// --- request encoding --------------------------------------------------------

fn put_oid(out: &mut Vec<u8>, oid: ObjectId) {
    out.put_u32_le(oid.0);
}

fn get_oid(buf: &mut Reader<'_>) -> std::result::Result<ObjectId, DecodeError> {
    Ok(ObjectId(buf.get_u32_le("object id")?))
}

fn put_qid(out: &mut Vec<u8>, qid: QueryId) {
    out.put_u32_le(qid.0);
}

fn get_qid(buf: &mut Reader<'_>) -> std::result::Result<QueryId, DecodeError> {
    Ok(QueryId(buf.get_u32_le("query id")?))
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.put_u8(1);
            out.put_f64_le(x);
        }
        None => out.put_u8(0),
    }
}

fn get_opt_f64(buf: &mut Reader<'_>) -> std::result::Result<Option<f64>, DecodeError> {
    Ok(if buf.get_u8("option flag")? != 0 {
        Some(buf.get_f64_le("f64 value")?)
    } else {
        None
    })
}

fn put_qids(out: &mut Vec<u8>, qids: &[QueryId]) {
    out.put_u32_le(qids.len() as u32);
    for q in qids {
        put_qid(out, *q);
    }
}

fn get_qids(buf: &mut Reader<'_>) -> std::result::Result<Vec<QueryId>, DecodeError> {
    let n = buf.get_u32_le("qid count")? as usize;
    if n * 4 > buf.remaining() {
        return Err(DecodeError(format!("oversized qid count {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_qid(buf)?);
    }
    Ok(out)
}

/// LEB128 count prefix — one byte for the (almost always empty) `homes`
/// list, where the fixed-width `u32` prefixes used elsewhere would add
/// three bytes to every reply.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    out.put_u8(v as u8);
}

fn get_varint(buf: &mut Reader<'_>, what: &str) -> std::result::Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = buf.get_u8(what)?;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError(format!("overlong varint in {what}")))
}

/// Encodes a request frame: the coordinator's epoch floor, then the op.
/// Op tags 17, 21 and 22 (`NumQueries`, `HasFocal`, `HasQuery`) are
/// retired: the coordinator answers those from its `homes` mirror.
pub fn encode_request(epoch_floor: u64, op: &PartitionOp, out: &mut Vec<u8>) {
    out.put_u64_le(epoch_floor);
    match op {
        PartitionOp::Init(c) => {
            out.put_u8(0);
            out.put_f64_le(c.universe.lx);
            out.put_f64_le(c.universe.ly);
            out.put_f64_le(c.universe.hx());
            out.put_f64_le(c.universe.hy());
            out.put_f64_le(c.alpha);
            out.put_f64_le(c.alen);
            out.put_f64_le(c.delta);
            out.put_u8(match c.propagation {
                Propagation::Eager => 0,
                Propagation::Lazy => 1,
            });
            out.put_u8(c.grouping as u8);
            out.put_u8(c.safe_period as u8);
            out.put_u8(c.deliver_results as u8);
            out.put_f64_le(c.system_max_speed);
            out.put_f64_le(c.lease_secs);
            out.put_f64_le(c.heartbeat_secs);
            out.put_u32_le(c.partition);
            out.put_u32_le(c.num_partitions);
            match &c.store_dir {
                Some(dir) => {
                    out.put_u8(1);
                    codec::put_string(out, dir);
                }
                None => out.put_u8(0),
            }
            out.put_u8(c.store_fresh as u8);
        }
        PartitionOp::SetTime(t) => {
            out.put_u8(1);
            out.put_f64_le(*t);
        }
        PartitionOp::RenewLease(oid) => {
            out.put_u8(2);
            put_oid(out, *oid);
        }
        PartitionOp::VelocityReport { oid, motion } => {
            out.put_u8(3);
            put_oid(out, *oid);
            codec::put_motion(out, motion);
        }
        PartitionOp::CellChangeFocal {
            oid,
            new_cell,
            motion,
        } => {
            out.put_u8(4);
            put_oid(out, *oid);
            codec::put_cell(out, *new_cell);
            codec::put_motion(out, motion);
        }
        PartitionOp::CellChangeFresh {
            oid,
            prev_cell,
            new_cell,
            motion,
        } => {
            out.put_u8(5);
            put_oid(out, *oid);
            codec::put_cell(out, *prev_cell);
            codec::put_cell(out, *new_cell);
            codec::put_motion(out, motion);
        }
        PartitionOp::ResultChange {
            qid,
            oid,
            is_target,
        } => {
            out.put_u8(6);
            put_qid(out, *qid);
            put_oid(out, *oid);
            out.put_u8(*is_target as u8);
        }
        PartitionOp::GroupResultUpdate {
            oid,
            focal,
            mask,
            targets,
        } => {
            out.put_u8(7);
            put_oid(out, *oid);
            put_oid(out, *focal);
            out.put_u64_le(*mask);
            out.put_u64_le(*targets);
        }
        PartitionOp::RefreshFocalMotion {
            oid,
            motion,
            max_vel,
            insert,
        } => {
            out.put_u8(8);
            put_oid(out, *oid);
            codec::put_motion(out, motion);
            out.put_f64_le(*max_vel);
            out.put_u8(*insert as u8);
        }
        PartitionOp::CompleteInstall {
            qid,
            focal,
            region,
            filter,
            expires_at,
        } => {
            out.put_u8(9);
            put_qid(out, *qid);
            put_oid(out, *focal);
            codec::put_region(out, region);
            codec::put_filter(out, filter);
            put_opt_f64(out, *expires_at);
        }
        PartitionOp::RemoveQuery(qid) => {
            out.put_u8(10);
            put_qid(out, *qid);
        }
        PartitionOp::ExpiredQueryIds(now) => {
            out.put_u8(11);
            out.put_f64_le(*now);
        }
        PartitionOp::ExpiredLeases => out.put_u8(12),
        PartitionOp::ReinstallInfo(qid) => {
            out.put_u8(13);
            put_qid(out, *qid);
        }
        PartitionOp::DigestCells => out.put_u8(14),
        PartitionOp::BumpEpoch => out.put_u8(15),
        PartitionOp::CurrentEpoch => out.put_u8(16),
        PartitionOp::QueryIds => out.put_u8(18),
        PartitionOp::QueryResult(qid) => {
            out.put_u8(19);
            put_qid(out, *qid);
        }
        PartitionOp::QueryFocal(qid) => {
            out.put_u8(20);
            put_qid(out, *qid);
        }
        PartitionOp::FocalMotion(oid) => {
            out.put_u8(23);
            put_oid(out, *oid);
        }
        PartitionOp::FocalQueries(oid) => {
            out.put_u8(24);
            put_oid(out, *oid);
        }
        PartitionOp::QueryCell(qid) => {
            out.put_u8(25);
            put_qid(out, *qid);
        }
        PartitionOp::PurgeObject(oid) => {
            out.put_u8(26);
            put_oid(out, *oid);
        }
        PartitionOp::DeliverResultDelta { qid, oid, entered } => {
            out.put_u8(27);
            put_qid(out, *qid);
            put_oid(out, *oid);
            out.put_u8(*entered as u8);
        }
        PartitionOp::LqtReconcileOne {
            qid,
            oid,
            is_target,
        } => {
            out.put_u8(28);
            put_qid(out, *qid);
            put_oid(out, *oid);
            out.put_u8(*is_target as u8);
        }
        PartitionOp::FocalReassert(oid) => {
            out.put_u8(29);
            put_oid(out, *oid);
        }
        PartitionOp::CellSyncReply { oid, cell } => {
            out.put_u8(30);
            put_oid(out, *oid);
            codec::put_cell(out, *cell);
        }
        PartitionOp::ExtractFocal(oid) => {
            out.put_u8(31);
            put_oid(out, *oid);
        }
        PartitionOp::Deliver(msg) => {
            out.put_u8(32);
            encode_cluster(msg, out);
        }
        PartitionOp::CheckInvariants => out.put_u8(33),
        PartitionOp::Shutdown => out.put_u8(34),
        PartitionOp::InstallBounds { generation, bounds } => {
            out.put_u8(35);
            out.put_u64_le(*generation);
            out.put_u32_le(bounds.len() as u32);
            for b in bounds {
                out.put_u64_le(*b);
            }
        }
        PartitionOp::ExportCells { flats, generation } => {
            out.put_u8(36);
            out.put_u64_le(*generation);
            out.put_u32_le(flats.len() as u32);
            for f in flats {
                out.put_u32_le(*f);
            }
        }
        PartitionOp::PruneStubs => out.put_u8(37),
        PartitionOp::FocalIds => out.put_u8(38),
        PartitionOp::FocalAnchorCell(oid) => {
            out.put_u8(39);
            put_oid(out, *oid);
        }
        PartitionOp::Checkpoint => out.put_u8(40),
        PartitionOp::Trajectory { oid, t0, t1 } => {
            out.put_u8(41);
            put_oid(out, *oid);
            out.put_f64_le(*t0);
            out.put_f64_le(*t1);
        }
        PartitionOp::LoadSignal => out.put_u8(42),
        PartitionOp::ObjectMemberships(oid) => {
            out.put_u8(43);
            put_oid(out, *oid);
        }
    }
}

/// Decodes a request frame into `(epoch_floor, op)`.
pub fn decode_request(bytes: &[u8]) -> Result<(u64, PartitionOp)> {
    let mut buf = Reader::new(bytes);
    let mut inner = || -> std::result::Result<(u64, PartitionOp), DecodeError> {
        let floor = buf.get_u64_le("epoch floor")?;
        let op = match buf.get_u8("op tag")? {
            0 => {
                let lx = buf.get_f64_le("universe")?;
                let ly = buf.get_f64_le("universe")?;
                let hx = buf.get_f64_le("universe")?;
                let hy = buf.get_f64_le("universe")?;
                if !(lx.is_finite() && ly.is_finite() && hx >= lx && hy >= ly) {
                    return Err(DecodeError("invalid universe bounds".into()));
                }
                PartitionOp::Init(InitConfig {
                    universe: Rect::from_bounds(lx, ly, hx, hy),
                    alpha: buf.get_f64_le("alpha")?,
                    alen: buf.get_f64_le("alen")?,
                    delta: buf.get_f64_le("delta")?,
                    propagation: match buf.get_u8("propagation")? {
                        0 => Propagation::Eager,
                        1 => Propagation::Lazy,
                        t => return Err(DecodeError(format!("unknown propagation tag {t}"))),
                    },
                    grouping: buf.get_u8("grouping")? != 0,
                    safe_period: buf.get_u8("safe period")? != 0,
                    deliver_results: buf.get_u8("deliver results")? != 0,
                    system_max_speed: buf.get_f64_le("system max speed")?,
                    lease_secs: buf.get_f64_le("lease secs")?,
                    heartbeat_secs: buf.get_f64_le("heartbeat secs")?,
                    partition: buf.get_u32_le("partition")?,
                    num_partitions: buf.get_u32_le("num partitions")?,
                    store_dir: if buf.get_u8("store dir flag")? != 0 {
                        Some(codec::get_string(&mut buf)?)
                    } else {
                        None
                    },
                    store_fresh: buf.get_u8("store fresh")? != 0,
                })
            }
            1 => PartitionOp::SetTime(buf.get_f64_le("time")?),
            2 => PartitionOp::RenewLease(get_oid(&mut buf)?),
            3 => PartitionOp::VelocityReport {
                oid: get_oid(&mut buf)?,
                motion: codec::get_motion(&mut buf)?,
            },
            4 => PartitionOp::CellChangeFocal {
                oid: get_oid(&mut buf)?,
                new_cell: codec::get_cell(&mut buf)?,
                motion: codec::get_motion(&mut buf)?,
            },
            5 => PartitionOp::CellChangeFresh {
                oid: get_oid(&mut buf)?,
                prev_cell: codec::get_cell(&mut buf)?,
                new_cell: codec::get_cell(&mut buf)?,
                motion: codec::get_motion(&mut buf)?,
            },
            6 => PartitionOp::ResultChange {
                qid: get_qid(&mut buf)?,
                oid: get_oid(&mut buf)?,
                is_target: buf.get_u8("is target")? != 0,
            },
            7 => PartitionOp::GroupResultUpdate {
                oid: get_oid(&mut buf)?,
                focal: get_oid(&mut buf)?,
                mask: buf.get_u64_le("mask")?,
                targets: buf.get_u64_le("targets")?,
            },
            8 => PartitionOp::RefreshFocalMotion {
                oid: get_oid(&mut buf)?,
                motion: codec::get_motion(&mut buf)?,
                max_vel: buf.get_f64_le("max vel")?,
                insert: buf.get_u8("insert")? != 0,
            },
            9 => PartitionOp::CompleteInstall {
                qid: get_qid(&mut buf)?,
                focal: get_oid(&mut buf)?,
                region: codec::get_region(&mut buf)?,
                filter: Arc::new(codec::get_filter(&mut buf)?),
                expires_at: get_opt_f64(&mut buf)?,
            },
            10 => PartitionOp::RemoveQuery(get_qid(&mut buf)?),
            11 => PartitionOp::ExpiredQueryIds(buf.get_f64_le("now")?),
            12 => PartitionOp::ExpiredLeases,
            13 => PartitionOp::ReinstallInfo(get_qid(&mut buf)?),
            14 => PartitionOp::DigestCells,
            15 => PartitionOp::BumpEpoch,
            16 => PartitionOp::CurrentEpoch,
            18 => PartitionOp::QueryIds,
            19 => PartitionOp::QueryResult(get_qid(&mut buf)?),
            20 => PartitionOp::QueryFocal(get_qid(&mut buf)?),
            23 => PartitionOp::FocalMotion(get_oid(&mut buf)?),
            24 => PartitionOp::FocalQueries(get_oid(&mut buf)?),
            25 => PartitionOp::QueryCell(get_qid(&mut buf)?),
            26 => PartitionOp::PurgeObject(get_oid(&mut buf)?),
            27 => PartitionOp::DeliverResultDelta {
                qid: get_qid(&mut buf)?,
                oid: get_oid(&mut buf)?,
                entered: buf.get_u8("entered")? != 0,
            },
            28 => PartitionOp::LqtReconcileOne {
                qid: get_qid(&mut buf)?,
                oid: get_oid(&mut buf)?,
                is_target: buf.get_u8("is target")? != 0,
            },
            29 => PartitionOp::FocalReassert(get_oid(&mut buf)?),
            30 => PartitionOp::CellSyncReply {
                oid: get_oid(&mut buf)?,
                cell: codec::get_cell(&mut buf)?,
            },
            31 => PartitionOp::ExtractFocal(get_oid(&mut buf)?),
            32 => PartitionOp::Deliver(decode_cluster(&mut buf)?),
            33 => PartitionOp::CheckInvariants,
            34 => PartitionOp::Shutdown,
            35 => {
                let generation = buf.get_u64_le("table generation")?;
                let n = buf.get_u32_le("bound count")? as usize;
                if n * 8 > buf.remaining() {
                    return Err(DecodeError(format!("oversized bound count {n}")));
                }
                let mut bounds = Vec::with_capacity(n);
                for _ in 0..n {
                    bounds.push(buf.get_u64_le("bound")?);
                }
                PartitionOp::InstallBounds { generation, bounds }
            }
            36 => {
                let generation = buf.get_u64_le("table generation")?;
                let n = buf.get_u32_le("flat count")? as usize;
                if n * 4 > buf.remaining() {
                    return Err(DecodeError(format!("oversized flat count {n}")));
                }
                let mut flats = Vec::with_capacity(n);
                for _ in 0..n {
                    flats.push(buf.get_u32_le("flat cell")?);
                }
                PartitionOp::ExportCells { flats, generation }
            }
            37 => PartitionOp::PruneStubs,
            38 => PartitionOp::FocalIds,
            39 => PartitionOp::FocalAnchorCell(get_oid(&mut buf)?),
            40 => PartitionOp::Checkpoint,
            41 => PartitionOp::Trajectory {
                oid: get_oid(&mut buf)?,
                t0: buf.get_f64_le("trajectory start")?,
                t1: buf.get_f64_le("trajectory end")?,
            },
            42 => PartitionOp::LoadSignal,
            43 => PartitionOp::ObjectMemberships(get_oid(&mut buf)?),
            t => return Err(DecodeError(format!("unknown partition op tag {t}"))),
        };
        Ok((floor, op))
    };
    let (floor, op) = inner().map_err(frame_err)?;
    if buf.remaining() != 0 {
        return Err(TransportError::Frame(format!(
            "{} trailing bytes after partition op",
            buf.remaining()
        )));
    }
    Ok((floor, op))
}

// --- reply encoding ----------------------------------------------------------

/// Encodes a reply frame.
pub fn encode_reply(reply: &PartitionReply, out: &mut Vec<u8>) {
    out.put_u64_le(reply.epoch);
    out.put_u32_le(reply.outbox.len() as u32);
    for (to, msg) in &reply.outbox {
        out.put_u32_le(*to);
        encode_cluster(msg, out);
    }
    out.put_u32_le(reply.net.len() as u32);
    for action in &reply.net {
        match action {
            NetAction::Unicast { node, msg } => {
                out.put_u8(0);
                out.put_u32_le(*node);
                encode_downlink(msg, out);
            }
            NetAction::Broadcast { station, msg } => {
                out.put_u8(1);
                out.put_u32_le(*station);
                encode_downlink(msg, out);
            }
        }
    }
    match &reply.payload {
        ReplyPayload::Unit => out.put_u8(0),
        ReplyPayload::Bool(b) => {
            out.put_u8(1);
            out.put_u8(*b as u8);
        }
        ReplyPayload::U64(v) => {
            out.put_u8(2);
            out.put_u64_le(*v);
        }
        ReplyPayload::Qids(qids) => {
            out.put_u8(3);
            put_qids(out, qids);
        }
        ReplyPayload::OptQids(v) => {
            out.put_u8(4);
            match v {
                Some(qids) => {
                    out.put_u8(1);
                    put_qids(out, qids);
                }
                None => out.put_u8(0),
            }
        }
        ReplyPayload::OptCluster(v) => {
            out.put_u8(5);
            match v {
                Some(msg) => {
                    out.put_u8(1);
                    encode_cluster(msg, out);
                }
                None => out.put_u8(0),
            }
        }
        ReplyPayload::OptMotion(v) => {
            out.put_u8(6);
            match v {
                Some(m) => {
                    out.put_u8(1);
                    codec::put_motion(out, m);
                }
                None => out.put_u8(0),
            }
        }
        ReplyPayload::OptCell(v) => {
            out.put_u8(7);
            match v {
                Some(c) => {
                    out.put_u8(1);
                    codec::put_cell(out, *c);
                }
                None => out.put_u8(0),
            }
        }
        ReplyPayload::OptOid(v) => {
            out.put_u8(8);
            match v {
                Some(oid) => {
                    out.put_u8(1);
                    put_oid(out, *oid);
                }
                None => out.put_u8(0),
            }
        }
        ReplyPayload::Digests(digests) => {
            out.put_u8(9);
            out.put_u32_le(digests.len() as u32);
            for (cell, digest) in digests {
                codec::put_cell(out, *cell);
                out.put_u64_le(*digest);
            }
        }
        ReplyPayload::Leases(leases) => {
            out.put_u8(10);
            out.put_u32_le(leases.len() as u32);
            for (oid, qids) in leases {
                put_oid(out, *oid);
                put_qids(out, qids);
            }
        }
        ReplyPayload::Reinstall(v) => {
            out.put_u8(11);
            match v {
                Some((region, filter, expires_at)) => {
                    out.put_u8(1);
                    codec::put_region(out, region);
                    codec::put_filter(out, filter);
                    put_opt_f64(out, *expires_at);
                }
                None => out.put_u8(0),
            }
        }
        ReplyPayload::ResultSet(v) => {
            out.put_u8(12);
            match v {
                Some(oids) => {
                    out.put_u8(1);
                    out.put_u32_le(oids.len() as u32);
                    for oid in oids {
                        put_oid(out, *oid);
                    }
                }
                None => out.put_u8(0),
            }
        }
        ReplyPayload::Oids(oids) => {
            out.put_u8(13);
            out.put_u32_le(oids.len() as u32);
            for oid in oids {
                put_oid(out, *oid);
            }
        }
        ReplyPayload::Motions(motions) => {
            out.put_u8(14);
            out.put_u32_le(motions.len() as u32);
            for m in motions {
                codec::put_motion(out, m);
            }
        }
        ReplyPayload::Load {
            focals,
            queries,
            stubs,
        } => {
            out.put_u8(15);
            out.put_u64_le(*focals);
            out.put_u64_le(*queries);
            out.put_u64_le(*stubs);
        }
    }
    put_varint(out, reply.homes.len() as u64);
    for change in &reply.homes {
        let (tag, id) = match *change {
            HomeChange::FocalAdded(o) => (0, o.0),
            HomeChange::FocalRemoved(o) => (1, o.0),
            HomeChange::QueryAdded(q) => (2, q.0),
            HomeChange::QueryRemoved(q) => (3, q.0),
        };
        out.put_u8(tag);
        out.put_u32_le(id);
    }
}

/// Decodes a reply frame.
pub fn decode_reply(bytes: &[u8]) -> Result<PartitionReply> {
    let mut buf = Reader::new(bytes);
    let mut inner = || -> std::result::Result<PartitionReply, DecodeError> {
        let epoch = buf.get_u64_le("reply epoch")?;
        let n = buf.get_u32_le("outbox count")? as usize;
        if n * 5 > buf.remaining() {
            return Err(DecodeError(format!("oversized outbox count {n}")));
        }
        let mut outbox = Vec::with_capacity(n);
        for _ in 0..n {
            let to = buf.get_u32_le("outbox destination")?;
            outbox.push((to, decode_cluster(&mut buf)?));
        }
        let n = buf.get_u32_le("net action count")? as usize;
        if n * 6 > buf.remaining() {
            return Err(DecodeError(format!("oversized net action count {n}")));
        }
        let mut net = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = buf.get_u8("net action tag")?;
            let target = buf.get_u32_le("net action target")?;
            let msg = decode_downlink(&mut buf)?;
            net.push(match tag {
                0 => NetAction::Unicast { node: target, msg },
                1 => NetAction::Broadcast {
                    station: target,
                    msg,
                },
                t => return Err(DecodeError(format!("unknown net action tag {t}"))),
            });
        }
        let payload = match buf.get_u8("payload tag")? {
            0 => ReplyPayload::Unit,
            1 => ReplyPayload::Bool(buf.get_u8("bool")? != 0),
            2 => ReplyPayload::U64(buf.get_u64_le("u64")?),
            3 => ReplyPayload::Qids(get_qids(&mut buf)?),
            4 => ReplyPayload::OptQids(if buf.get_u8("option flag")? != 0 {
                Some(get_qids(&mut buf)?)
            } else {
                None
            }),
            5 => ReplyPayload::OptCluster(if buf.get_u8("option flag")? != 0 {
                Some(decode_cluster(&mut buf)?)
            } else {
                None
            }),
            6 => ReplyPayload::OptMotion(if buf.get_u8("option flag")? != 0 {
                Some(codec::get_motion(&mut buf)?)
            } else {
                None
            }),
            7 => ReplyPayload::OptCell(if buf.get_u8("option flag")? != 0 {
                Some(codec::get_cell(&mut buf)?)
            } else {
                None
            }),
            8 => ReplyPayload::OptOid(if buf.get_u8("option flag")? != 0 {
                Some(get_oid(&mut buf)?)
            } else {
                None
            }),
            9 => {
                let n = buf.get_u32_le("digest count")? as usize;
                if n * 16 > buf.remaining() {
                    return Err(DecodeError(format!("oversized digest count {n}")));
                }
                let mut digests = Vec::with_capacity(n);
                for _ in 0..n {
                    let cell = codec::get_cell(&mut buf)?;
                    digests.push((cell, buf.get_u64_le("digest")?));
                }
                ReplyPayload::Digests(digests)
            }
            10 => {
                let n = buf.get_u32_le("lease count")? as usize;
                if n * 8 > buf.remaining() {
                    return Err(DecodeError(format!("oversized lease count {n}")));
                }
                let mut leases = Vec::with_capacity(n);
                for _ in 0..n {
                    let oid = get_oid(&mut buf)?;
                    leases.push((oid, get_qids(&mut buf)?));
                }
                ReplyPayload::Leases(leases)
            }
            11 => ReplyPayload::Reinstall(if buf.get_u8("option flag")? != 0 {
                let region = codec::get_region(&mut buf)?;
                let filter = codec::get_filter(&mut buf)?;
                Some((region, filter, get_opt_f64(&mut buf)?))
            } else {
                None
            }),
            12 => ReplyPayload::ResultSet(if buf.get_u8("option flag")? != 0 {
                let n = buf.get_u32_le("result count")? as usize;
                if n * 4 > buf.remaining() {
                    return Err(DecodeError(format!("oversized result count {n}")));
                }
                let mut oids = Vec::with_capacity(n);
                for _ in 0..n {
                    oids.push(get_oid(&mut buf)?);
                }
                Some(oids)
            } else {
                None
            }),
            13 => {
                let n = buf.get_u32_le("oid count")? as usize;
                if n * 4 > buf.remaining() {
                    return Err(DecodeError(format!("oversized oid count {n}")));
                }
                let mut oids = Vec::with_capacity(n);
                for _ in 0..n {
                    oids.push(get_oid(&mut buf)?);
                }
                ReplyPayload::Oids(oids)
            }
            14 => {
                let n = buf.get_u32_le("motion count")? as usize;
                if n * 40 > buf.remaining() {
                    return Err(DecodeError(format!("oversized motion count {n}")));
                }
                let mut motions = Vec::with_capacity(n);
                for _ in 0..n {
                    motions.push(codec::get_motion(&mut buf)?);
                }
                ReplyPayload::Motions(motions)
            }
            15 => ReplyPayload::Load {
                focals: buf.get_u64_le("load focals")?,
                queries: buf.get_u64_le("load queries")?,
                stubs: buf.get_u64_le("load stubs")?,
            },
            t => return Err(DecodeError(format!("unknown reply payload tag {t}"))),
        };
        let n = get_varint(&mut buf, "home change count")? as usize;
        if n.saturating_mul(5) > buf.remaining() {
            return Err(DecodeError(format!("oversized home change count {n}")));
        }
        let mut homes = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = buf.get_u8("home change tag")?;
            let id = buf.get_u32_le("home change id")?;
            homes.push(match tag {
                0 => HomeChange::FocalAdded(ObjectId(id)),
                1 => HomeChange::FocalRemoved(ObjectId(id)),
                2 => HomeChange::QueryAdded(QueryId(id)),
                3 => HomeChange::QueryRemoved(QueryId(id)),
                t => return Err(DecodeError(format!("unknown home change tag {t}"))),
            });
        }
        Ok(PartitionReply {
            epoch,
            outbox,
            net,
            payload,
            homes,
        })
    };
    let reply = inner().map_err(frame_err)?;
    if buf.remaining() != 0 {
        return Err(TransportError::Frame(format!(
            "{} trailing bytes after partition reply",
            buf.remaining()
        )));
    }
    Ok(reply)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mobieyes_geo::{GridRect, Point, Vec2};

    fn motion() -> LinearMotion {
        LinearMotion::new(Point::new(3.0, -1.5), Vec2::new(0.25, -0.125), 60.0)
    }

    /// One instance of every op (the closedness table in `serve` walks it
    /// too, so a new closed op is checked the day it is listed).
    pub(crate) fn sample_ops() -> Vec<PartitionOp> {
        vec![
            PartitionOp::Init(InitConfig {
                universe: Rect::new(0.0, 0.0, 100.0, 100.0),
                alpha: 5.0,
                alen: 10.0,
                delta: 0.2,
                propagation: Propagation::Lazy,
                grouping: true,
                safe_period: false,
                deliver_results: true,
                system_max_speed: 0.07,
                lease_secs: 120.0,
                heartbeat_secs: 60.0,
                partition: 2,
                num_partitions: 4,
                store_dir: Some("/tmp/mobieyes-store/p2".into()),
                store_fresh: true,
            }),
            PartitionOp::SetTime(90.0),
            PartitionOp::RenewLease(ObjectId(7)),
            PartitionOp::VelocityReport {
                oid: ObjectId(8),
                motion: motion(),
            },
            PartitionOp::CellChangeFocal {
                oid: ObjectId(9),
                new_cell: CellId::new(2, 3),
                motion: motion(),
            },
            PartitionOp::CellChangeFresh {
                oid: ObjectId(9),
                prev_cell: CellId::new(1, 3),
                new_cell: CellId::new(2, 3),
                motion: motion(),
            },
            PartitionOp::ResultChange {
                qid: QueryId(1),
                oid: ObjectId(2),
                is_target: true,
            },
            PartitionOp::GroupResultUpdate {
                oid: ObjectId(3),
                focal: ObjectId(4),
                mask: 0b101,
                targets: 0b001,
            },
            PartitionOp::RefreshFocalMotion {
                oid: ObjectId(5),
                motion: motion(),
                max_vel: 0.05,
                insert: true,
            },
            PartitionOp::CompleteInstall {
                qid: QueryId(6),
                focal: ObjectId(7),
                region: QueryRegion::circle(4.0),
                filter: Arc::new(Filter::Gt("speed".into(), 2.0)),
                expires_at: Some(300.0),
            },
            PartitionOp::RemoveQuery(QueryId(6)),
            PartitionOp::ExpiredQueryIds(120.0),
            PartitionOp::ExpiredLeases,
            PartitionOp::ReinstallInfo(QueryId(6)),
            PartitionOp::DigestCells,
            PartitionOp::BumpEpoch,
            PartitionOp::CurrentEpoch,
            PartitionOp::QueryIds,
            PartitionOp::QueryResult(QueryId(6)),
            PartitionOp::QueryFocal(QueryId(6)),
            PartitionOp::FocalMotion(ObjectId(7)),
            PartitionOp::FocalQueries(ObjectId(7)),
            PartitionOp::ObjectMemberships(ObjectId(7)),
            PartitionOp::QueryCell(QueryId(6)),
            PartitionOp::PurgeObject(ObjectId(7)),
            PartitionOp::DeliverResultDelta {
                qid: QueryId(6),
                oid: ObjectId(7),
                entered: false,
            },
            PartitionOp::LqtReconcileOne {
                qid: QueryId(6),
                oid: ObjectId(7),
                is_target: true,
            },
            PartitionOp::FocalReassert(ObjectId(7)),
            PartitionOp::CellSyncReply {
                oid: ObjectId(7),
                cell: CellId::new(4, 4),
            },
            PartitionOp::ExtractFocal(ObjectId(7)),
            PartitionOp::Deliver(ClusterMsg::StubRemove {
                qid: QueryId(6),
                mon_region: GridRect {
                    x0: 0,
                    y0: 0,
                    x1: 2,
                    y1: 2,
                },
                epoch: 5,
            }),
            PartitionOp::CheckInvariants,
            PartitionOp::Shutdown,
            PartitionOp::InstallBounds {
                generation: 7,
                bounds: vec![0, 12, 24, 36],
            },
            PartitionOp::ExportCells {
                flats: vec![12, 13, 17],
                generation: 7,
            },
            PartitionOp::PruneStubs,
            PartitionOp::FocalIds,
            PartitionOp::FocalAnchorCell(ObjectId(7)),
            PartitionOp::Checkpoint,
            PartitionOp::Trajectory {
                oid: ObjectId(7),
                t0: 30.0,
                t1: 240.0,
            },
            PartitionOp::LoadSignal,
        ]
    }

    fn sample_payloads() -> Vec<ReplyPayload> {
        vec![
            ReplyPayload::Unit,
            ReplyPayload::Bool(true),
            ReplyPayload::U64(42),
            ReplyPayload::Qids(vec![QueryId(1), QueryId(9)]),
            ReplyPayload::OptQids(None),
            ReplyPayload::OptQids(Some(vec![QueryId(3)])),
            ReplyPayload::OptCluster(None),
            ReplyPayload::OptCluster(Some(ClusterMsg::StubMotion {
                focal: ObjectId(1),
                motion: motion(),
                max_vel: 0.02,
                qids: vec![(QueryId(2), 7)],
            })),
            ReplyPayload::OptMotion(Some(motion())),
            ReplyPayload::OptMotion(None),
            ReplyPayload::OptCell(Some(CellId::new(1, 2))),
            ReplyPayload::OptCell(None),
            ReplyPayload::OptOid(Some(ObjectId(5))),
            ReplyPayload::OptOid(None),
            ReplyPayload::Digests(vec![(CellId::new(0, 1), 0xFEED)]),
            ReplyPayload::Leases(vec![(ObjectId(4), vec![QueryId(1)]), (ObjectId(9), vec![])]),
            ReplyPayload::Reinstall(Some((
                QueryRegion::rect(2.0, 3.0),
                Filter::True,
                Some(500.0),
            ))),
            ReplyPayload::Reinstall(None),
            ReplyPayload::ResultSet(Some(vec![ObjectId(1), ObjectId(2)])),
            ReplyPayload::ResultSet(None),
            ReplyPayload::Oids(vec![ObjectId(3), ObjectId(8)]),
            ReplyPayload::Oids(vec![]),
            ReplyPayload::Motions(vec![motion(), motion()]),
            ReplyPayload::Motions(vec![]),
            ReplyPayload::Load {
                focals: 3,
                queries: 5,
                stubs: 11,
            },
        ]
    }

    #[test]
    fn request_roundtrip_covers_every_op() {
        for op in sample_ops() {
            let mut bytes = Vec::new();
            encode_request(17, &op, &mut bytes);
            let (floor, decoded) = decode_request(&bytes).expect("request decodes");
            assert_eq!(floor, 17);
            assert_eq!(decoded, op, "op did not survive the wire");
        }
    }

    /// A reply exercising every side-effect section around `payload`.
    fn full_reply(payload: ReplyPayload, homes: Vec<HomeChange>) -> PartitionReply {
        PartitionReply {
            epoch: 9,
            outbox: vec![(
                1,
                ClusterMsg::StubRemove {
                    qid: QueryId(3),
                    mon_region: GridRect {
                        x0: 1,
                        y0: 1,
                        x1: 2,
                        y1: 2,
                    },
                    epoch: 4,
                },
            )],
            net: vec![
                NetAction::Unicast {
                    node: 7,
                    msg: Downlink::PositionRequest,
                },
                NetAction::Broadcast {
                    station: 3,
                    msg: Downlink::FocalNotify { is_focal: true },
                },
            ],
            payload,
            homes,
        }
    }

    fn sample_homes() -> Vec<HomeChange> {
        vec![
            HomeChange::FocalAdded(ObjectId(7)),
            HomeChange::QueryAdded(QueryId(6)),
            HomeChange::QueryRemoved(QueryId(6)),
            HomeChange::FocalRemoved(ObjectId(u32::MAX)),
        ]
    }

    #[test]
    fn reply_roundtrip_covers_every_payload() {
        for payload in sample_payloads() {
            for homes in [Vec::new(), sample_homes()] {
                let reply = full_reply(payload.clone(), homes);
                let mut bytes = Vec::new();
                encode_reply(&reply, &mut bytes);
                let decoded = decode_reply(&bytes).expect("reply decodes");
                assert_eq!(decoded, reply, "reply did not survive the wire");
            }
        }
    }

    #[test]
    fn empty_homes_cost_one_byte_and_long_lists_keep_their_count() {
        let mut empty = Vec::new();
        encode_reply(&full_reply(ReplyPayload::Unit, Vec::new()), &mut empty);
        let mut one = Vec::new();
        let homes = vec![HomeChange::FocalAdded(ObjectId(1))];
        encode_reply(&full_reply(ReplyPayload::Unit, homes), &mut one);
        assert_eq!(one.len(), empty.len() + 5, "count stays one byte");
        // 300 entries need a two-byte varint count.
        let many: Vec<HomeChange> = (0..300)
            .map(|i| HomeChange::QueryAdded(QueryId(i)))
            .collect();
        let reply = full_reply(ReplyPayload::Unit, many);
        let mut bytes = Vec::new();
        encode_reply(&reply, &mut bytes);
        assert_eq!(bytes.len(), empty.len() + 1 + 300 * 5);
        assert_eq!(decode_reply(&bytes).expect("decodes"), reply);
    }

    /// Arbitrary bytes — random frames, and valid frames with random
    /// bytes overwritten, cut or appended — must decode or fail cleanly;
    /// whatever decodes must survive a further round trip unchanged.
    #[test]
    fn arbitrary_bytes_never_panic_the_reply_decoder() {
        let mut state = 0x5eed_1207_0c0du64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let check = |bytes: &[u8]| {
            if let Ok(reply) = decode_reply(bytes) {
                // Compared as bytes: a corrupted float may decode to NaN,
                // which never equals itself.
                let mut once = Vec::new();
                encode_reply(&reply, &mut once);
                let mut twice = Vec::new();
                encode_reply(&decode_reply(&once).expect("re-encoded reply"), &mut twice);
                assert_eq!(once, twice);
            }
        };
        let mut seeds: Vec<Vec<u8>> = Vec::new();
        for payload in sample_payloads() {
            let mut bytes = Vec::new();
            encode_reply(&full_reply(payload, sample_homes()), &mut bytes);
            seeds.push(bytes);
        }
        for round in 0..4000 {
            let mut bytes = seeds[round % seeds.len()].clone();
            match next() % 4 {
                0 => {
                    let n = next() as usize % 96;
                    bytes = (0..n).map(|_| next() as u8).collect();
                }
                1 => {
                    for _ in 0..1 + next() % 4 {
                        let at = next() as usize % bytes.len();
                        bytes[at] = next() as u8;
                    }
                }
                2 => {
                    // Corrupt the tail, where `homes` lives.
                    let tail = 1 + next() as usize % 24;
                    let from = bytes.len().saturating_sub(tail);
                    for b in &mut bytes[from..] {
                        *b = next() as u8;
                    }
                }
                _ => {
                    let cut = next() as usize % bytes.len();
                    bytes.truncate(cut);
                    let extra = next() as usize % 8;
                    bytes.extend((0..extra).map(|_| next() as u8));
                }
            }
            check(&bytes);
        }
    }

    #[test]
    fn truncated_requests_and_replies_error_cleanly() {
        for op in sample_ops() {
            let mut bytes = Vec::new();
            encode_request(3, &op, &mut bytes);
            for cut in 0..bytes.len() {
                assert!(
                    decode_request(&bytes[..cut]).is_err(),
                    "truncated {op:?} must not decode"
                );
            }
        }
        let reply = PartitionReply {
            epoch: 1,
            outbox: vec![],
            net: vec![],
            payload: ReplyPayload::Qids(vec![QueryId(1)]),
            homes: sample_homes(),
        };
        let mut bytes = Vec::new();
        encode_reply(&reply, &mut bytes);
        for cut in 0..bytes.len() {
            assert!(decode_reply(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn envelope_frame_roundtrip() {
        use mobieyes_net::Frame;
        let env = Envelope {
            to: 3,
            msg: ClusterMsg::StubRemove {
                qid: QueryId(8),
                mon_region: GridRect {
                    x0: 0,
                    y0: 0,
                    x1: 1,
                    y1: 1,
                },
                epoch: 12,
            },
        };
        let mut bytes = Vec::new();
        env.encode_frame(&mut bytes);
        use mobieyes_net::WireSized;
        assert_eq!(bytes.len(), env.wire_size());
        let back = Envelope::decode_frame(&bytes).expect("decodes");
        assert_eq!(back.to, env.to);
        assert_eq!(back.msg, env.msg);
        assert!(Envelope::decode_frame(&bytes[..bytes.len() - 1]).is_err());
    }
}
