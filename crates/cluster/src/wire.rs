//! RPC wire format for remote partitions.
//!
//! A remote partition process holds one [`mobieyes_core::Server`] and
//! executes the ops the coordinator would run on an in-process partition,
//! in request order, answering each [`PartitionOp`] with one
//! [`PartitionReply`]. The op vocabulary is the server's own: a mutation
//! is [`PartitionOp::Apply`] of the journal record
//! ([`LogRecord`]) that names the entry point, encoded with the journal
//! codec, and a read is one of the other variants. Only the records
//! [`is_partition_record`] lists travel; the rest of the journal vocabulary
//! is the single server's or the log's own.
//!
//! Each request carries the coordinator's epoch view (the *floor*); the
//! partition raises its local epoch to at least the floor before
//! executing, and the reply carries the post-op epoch back. The
//! coordinator waits for the reply of every op that can move the epoch
//! before issuing the next op anywhere, which reproduces the shared atomic
//! epoch counter of the in-process deployment exactly; only *closed*
//! records ([`is_closed`]) may be in flight together — records that move
//! no epoch, queue no envelope, change no FOT/SQT key and whose reply
//! carries nothing the coordinator acts on but downlinks. The wire format
//! does not mark them: closedness is a property of what the op does at the
//! partition, listed here and verified there on every execution
//! (`serve::serve_op`).
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
use mobieyes_core::journal::{decode_record, encode_record};
pub use mobieyes_core::ReplyPayload;
use mobieyes_core::{ClusterMsg, Downlink, HomeChange, LogRecord, ObjectId, Propagation, QueryId};
use mobieyes_geo::Rect;
use mobieyes_net::{Frame, Routed, TransportError};

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

/// One request to a remote partition: its configuration, a mutation, a
/// read of the [`mobieyes_core::Server`] it hosts, or the end of the
/// session.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionOp {
    /// Must be the first op on a connection; configures the partition.
    Init(InitConfig),
    /// Runs the entry point the record names
    /// ([`Server::apply`](mobieyes_core::Server::apply)) and replies with
    /// its value. Only [`is_partition_record`] records decode.
    Apply(LogRecord),
    /// Ends the service loop; the process exits cleanly.
    Shutdown,
    ExpiredQueryIds(f64),
    ExpiredLeases,
    ReinstallInfo(QueryId),
    DigestCells,
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
    CheckInvariants,
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

/// The records a coordinator sends as [`PartitionOp::Apply`]: the
/// partition-side entry points of the server. Every other record — an
/// uplink, a single-server install, replay context, a checkpoint — is not
/// a partition op, and a request carrying one is a protocol violation.
pub fn is_partition_record(rec: &LogRecord) -> bool {
    use LogRecord::*;
    matches!(
        rec,
        SetTime(_)
            | RenewLease(_)
            | VelocityReport { .. }
            | CellChangeFocal { .. }
            | CellChangeFresh { .. }
            | ResultChange { .. }
            | GroupResultUpdate { .. }
            | RefreshFocalMotion { .. }
            | CompleteInstall { .. }
            | RemoveQuery(_)
            | BumpEpoch
            | PurgeObject(_)
            | ResultDelta { .. }
            | LqtReconcile { .. }
            | FocalReassert(_)
            | CellSyncReply { .. }
            | ExtractFocal(_)
            | Cluster(_)
            | Bounds { .. }
            | ExportCells { .. }
            | PruneStubs
    )
}

/// Whether a record is *closed*: it bumps no epoch, queues no bus envelope
/// and changes no FOT/SQT key, and the coordinator needs nothing from its
/// reply but the downlinks — so it commutes with ops on other partitions
/// and the coordinator may have several in flight (DESIGN.md §11). Every
/// other op must be answered before the next op is issued anywhere. The
/// list is checked, not trusted: the service refuses to acknowledge a
/// closed record that moved the epoch, the outbox or the home log
/// (`serve::serve_op`).
pub fn is_closed(rec: &LogRecord) -> bool {
    matches!(
        rec,
        LogRecord::RenewLease(_)
            | LogRecord::CellChangeFresh { .. }
            | LogRecord::ResultChange { .. }
            | LogRecord::GroupResultUpdate { .. }
            | LogRecord::ResultDelta { .. }
            | LogRecord::FocalReassert(_)
            | LogRecord::CellSyncReply { .. }
    )
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

/// Tag of [`PartitionOp::Apply`]; the journal codec's record follows it.
const APPLY: u8 = 1;

/// Encodes a request frame: the coordinator's epoch floor, then the op.
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
        PartitionOp::Apply(rec) => {
            out.put_u8(APPLY);
            encode_record(rec, out);
        }
        PartitionOp::Shutdown => out.put_u8(2),
        PartitionOp::ExpiredQueryIds(now) => {
            out.put_u8(3);
            out.put_f64_le(*now);
        }
        PartitionOp::ExpiredLeases => out.put_u8(4),
        PartitionOp::ReinstallInfo(qid) => {
            out.put_u8(5);
            put_qid(out, *qid);
        }
        PartitionOp::DigestCells => out.put_u8(6),
        PartitionOp::CurrentEpoch => out.put_u8(7),
        PartitionOp::QueryIds => out.put_u8(8),
        PartitionOp::QueryResult(qid) => {
            out.put_u8(9);
            put_qid(out, *qid);
        }
        PartitionOp::QueryFocal(qid) => {
            out.put_u8(10);
            put_qid(out, *qid);
        }
        PartitionOp::FocalMotion(oid) => {
            out.put_u8(11);
            put_oid(out, *oid);
        }
        PartitionOp::FocalQueries(oid) => {
            out.put_u8(12);
            put_oid(out, *oid);
        }
        PartitionOp::ObjectMemberships(oid) => {
            out.put_u8(13);
            put_oid(out, *oid);
        }
        PartitionOp::QueryCell(qid) => {
            out.put_u8(14);
            put_qid(out, *qid);
        }
        PartitionOp::CheckInvariants => out.put_u8(15),
        PartitionOp::FocalIds => out.put_u8(16),
        PartitionOp::FocalAnchorCell(oid) => {
            out.put_u8(17);
            put_oid(out, *oid);
        }
        PartitionOp::Checkpoint => out.put_u8(18),
        PartitionOp::Trajectory { oid, t0, t1 } => {
            out.put_u8(19);
            put_oid(out, *oid);
            out.put_f64_le(*t0);
            out.put_f64_le(*t1);
        }
        PartitionOp::LoadSignal => out.put_u8(20),
    }
}

/// Encodes the request frame of `Apply(rec)` from a borrowed record — what
/// a handle sends, so no record is copied into an op to be encoded.
pub(crate) fn encode_apply(epoch_floor: u64, rec: &LogRecord, out: &mut Vec<u8>) {
    out.put_u64_le(epoch_floor);
    out.put_u8(APPLY);
    encode_record(rec, out);
}

/// Decodes a request frame into `(epoch_floor, op)`. An `Apply` of a record
/// [`is_partition_record`] does not list is a [`TransportError::Protocol`].
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
            APPLY => PartitionOp::Apply(decode_record(&mut buf)?),
            2 => PartitionOp::Shutdown,
            3 => PartitionOp::ExpiredQueryIds(buf.get_f64_le("now")?),
            4 => PartitionOp::ExpiredLeases,
            5 => PartitionOp::ReinstallInfo(get_qid(&mut buf)?),
            6 => PartitionOp::DigestCells,
            7 => PartitionOp::CurrentEpoch,
            8 => PartitionOp::QueryIds,
            9 => PartitionOp::QueryResult(get_qid(&mut buf)?),
            10 => PartitionOp::QueryFocal(get_qid(&mut buf)?),
            11 => PartitionOp::FocalMotion(get_oid(&mut buf)?),
            12 => PartitionOp::FocalQueries(get_oid(&mut buf)?),
            13 => PartitionOp::ObjectMemberships(get_oid(&mut buf)?),
            14 => PartitionOp::QueryCell(get_qid(&mut buf)?),
            15 => PartitionOp::CheckInvariants,
            16 => PartitionOp::FocalIds,
            17 => PartitionOp::FocalAnchorCell(get_oid(&mut buf)?),
            18 => PartitionOp::Checkpoint,
            19 => PartitionOp::Trajectory {
                oid: get_oid(&mut buf)?,
                t0: buf.get_f64_le("trajectory start")?,
                t1: buf.get_f64_le("trajectory end")?,
            },
            20 => PartitionOp::LoadSignal,
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
    if let PartitionOp::Apply(rec) = &op {
        if !is_partition_record(rec) {
            return Err(TransportError::Protocol(format!(
                "{rec:?} is not a partition op"
            )));
        }
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
                let filter = codec::get_filter(&mut buf)?.into();
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
    use mobieyes_core::{Filter, Uplink};
    use mobieyes_geo::{CellId, GridRect, LinearMotion, Point, QueryRegion, Vec2};
    use std::sync::Arc;

    fn motion() -> LinearMotion {
        LinearMotion::new(Point::new(3.0, -1.5), Vec2::new(0.25, -0.125), 60.0)
    }

    /// One instance of every record a coordinator sends (the closedness
    /// table in `serve` walks it too, so a new closed record is checked the
    /// day it is listed).
    pub(crate) fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::SetTime(90.0),
            LogRecord::RenewLease(ObjectId(7)),
            LogRecord::VelocityReport {
                oid: ObjectId(8),
                motion: motion(),
            },
            LogRecord::CellChangeFocal {
                oid: ObjectId(9),
                new_cell: CellId::new(2, 3),
                motion: motion(),
            },
            LogRecord::CellChangeFresh {
                oid: ObjectId(9),
                prev_cell: CellId::new(1, 3),
                new_cell: CellId::new(2, 3),
                motion: motion(),
            },
            LogRecord::ResultChange {
                qid: QueryId(1),
                oid: ObjectId(2),
                is_target: true,
            },
            LogRecord::GroupResultUpdate {
                oid: ObjectId(3),
                focal: ObjectId(4),
                mask: 0b101,
                targets: 0b001,
            },
            LogRecord::RefreshFocalMotion {
                oid: ObjectId(5),
                motion: motion(),
                max_vel: 0.05,
                insert: true,
            },
            LogRecord::CompleteInstall {
                qid: QueryId(6),
                focal: ObjectId(7),
                region: QueryRegion::circle(4.0),
                filter: Arc::new(Filter::Gt("speed".into(), 2.0)),
                expires_at: Some(300.0),
            },
            LogRecord::RemoveQuery(QueryId(6)),
            LogRecord::BumpEpoch,
            LogRecord::PurgeObject(ObjectId(7)),
            LogRecord::ResultDelta {
                qid: QueryId(6),
                oid: ObjectId(7),
                entered: false,
            },
            LogRecord::LqtReconcile {
                qid: QueryId(6),
                oid: ObjectId(7),
                is_target: true,
            },
            LogRecord::FocalReassert(ObjectId(7)),
            LogRecord::CellSyncReply {
                oid: ObjectId(7),
                cell: CellId::new(4, 4),
            },
            LogRecord::ExtractFocal(ObjectId(7)),
            LogRecord::Cluster(ClusterMsg::StubRemove {
                qid: QueryId(6),
                mon_region: GridRect {
                    x0: 0,
                    y0: 0,
                    x1: 2,
                    y1: 2,
                },
                epoch: 5,
            }),
            LogRecord::Bounds {
                generation: 7,
                bounds: vec![0, 12, 24, 36],
            },
            LogRecord::ExportCells {
                flats: vec![12, 13, 17],
                generation: 7,
            },
            LogRecord::PruneStubs,
        ]
    }

    /// One instance of every op: `Init`, an `Apply` of every sample record,
    /// every read, `Shutdown`.
    pub(crate) fn sample_ops() -> Vec<PartitionOp> {
        let init = PartitionOp::Init(InitConfig {
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
        });
        let reads = [
            PartitionOp::ExpiredQueryIds(120.0),
            PartitionOp::ExpiredLeases,
            PartitionOp::ReinstallInfo(QueryId(6)),
            PartitionOp::DigestCells,
            PartitionOp::CurrentEpoch,
            PartitionOp::QueryIds,
            PartitionOp::QueryResult(QueryId(6)),
            PartitionOp::QueryFocal(QueryId(6)),
            PartitionOp::FocalMotion(ObjectId(7)),
            PartitionOp::FocalQueries(ObjectId(7)),
            PartitionOp::ObjectMemberships(ObjectId(7)),
            PartitionOp::QueryCell(QueryId(6)),
            PartitionOp::CheckInvariants,
            PartitionOp::FocalIds,
            PartitionOp::FocalAnchorCell(ObjectId(7)),
            PartitionOp::Checkpoint,
            PartitionOp::Trajectory {
                oid: ObjectId(7),
                t0: 30.0,
                t1: 240.0,
            },
            PartitionOp::LoadSignal,
        ];
        std::iter::once(init)
            .chain(sample_records().into_iter().map(PartitionOp::Apply))
            .chain(reads)
            .chain([PartitionOp::Shutdown])
            .collect()
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
                Arc::new(Filter::True),
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

    /// A mutation costs one tag byte over the journal record it carries,
    /// and a borrowed record encodes to the same frame as the op.
    #[test]
    fn an_apply_request_is_the_floor_a_tag_and_the_journal_record() {
        for rec in sample_records() {
            let mut framed = Vec::new();
            encode_apply(17, &rec, &mut framed);
            let mut op = Vec::new();
            encode_request(17, &PartitionOp::Apply(rec.clone()), &mut op);
            assert_eq!(framed, op);
            let record = mobieyes_core::journal::record_bytes(&rec);
            assert_eq!(framed.len(), 8 + 1 + record.len(), "{rec:?}");
            assert_eq!(&framed[9..], &record[..]);
        }
    }

    /// The journal vocabulary is wider than the partition surface: a
    /// well-formed request carrying any other record is refused as a
    /// protocol violation, not executed.
    #[test]
    fn a_record_the_coordinator_never_sends_is_a_protocol_error() {
        let outside = [
            LogRecord::Meta {
                partition: 0,
                num_partitions: 1,
            },
            LogRecord::Floor(9),
            LogRecord::Heartbeat(60.0),
            LogRecord::Uplink {
                from: 3,
                msg: Uplink::VelocityReport {
                    oid: ObjectId(3),
                    motion: motion(),
                },
            },
            LogRecord::InstallQuery {
                qid: QueryId(1),
                focal: ObjectId(2),
                region: QueryRegion::circle(4.0),
                filter: Filter::True,
                expires_at: None,
            },
            LogRecord::UpdateRegion {
                qid: QueryId(1),
                region: QueryRegion::circle(2.0),
            },
            LogRecord::Checkpoint(vec![1, 2, 3]),
        ];
        for rec in outside {
            assert!(!is_partition_record(&rec));
            let mut bytes = Vec::new();
            encode_apply(0, &rec, &mut bytes);
            let err = decode_request(&bytes).expect_err("refused");
            assert!(matches!(err, TransportError::Protocol(_)), "{rec:?}: {err}");
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

    /// Feeds `check` arbitrary bytes: random frames, and the `seeds` with
    /// random bytes overwritten, their tail scrambled, or cut and extended.
    fn fuzz(seeds: &[Vec<u8>], mut state: u64, check: impl Fn(&[u8])) {
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
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
                    // Corrupt the tail (a reply's `homes`, a record's
                    // last fields).
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

    /// Arbitrary bytes must decode or fail cleanly; whatever decodes must
    /// survive a further round trip unchanged.
    #[test]
    fn arbitrary_bytes_never_panic_the_reply_decoder() {
        let seeds: Vec<Vec<u8>> = sample_payloads()
            .into_iter()
            .map(|payload| {
                let mut bytes = Vec::new();
                encode_reply(&full_reply(payload, sample_homes()), &mut bytes);
                bytes
            })
            .collect();
        fuzz(&seeds, 0x5eed_1207_0c0d, |bytes| {
            if let Ok(reply) = decode_reply(bytes) {
                // Compared as bytes: a corrupted float may decode to NaN,
                // which never equals itself.
                let mut once = Vec::new();
                encode_reply(&reply, &mut once);
                let mut twice = Vec::new();
                encode_reply(&decode_reply(&once).expect("re-encoded reply"), &mut twice);
                assert_eq!(once, twice);
            }
        });
    }

    /// The request decoder is the partition's outside boundary: the same
    /// arbitrary-byte treatment, seeded with every op — an `Apply` of every
    /// record the coordinator sends included.
    #[test]
    fn arbitrary_bytes_never_panic_the_request_decoder() {
        let seeds: Vec<Vec<u8>> = sample_ops()
            .iter()
            .map(|op| {
                let mut bytes = Vec::new();
                encode_request(17, op, &mut bytes);
                bytes
            })
            .collect();
        fuzz(&seeds, 0x5eed_0026_0a11, |bytes| {
            if let Ok((floor, op)) = decode_request(bytes) {
                let mut once = Vec::new();
                encode_request(floor, &op, &mut once);
                let (floor, again) = decode_request(&once).expect("re-encoded request");
                let mut twice = Vec::new();
                encode_request(floor, &again, &mut twice);
                assert_eq!(once, twice);
            }
        });
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
