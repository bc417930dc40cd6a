//! The server's op vocabulary: typed log records for every mutating entry
//! point of the [`Server`](crate::Server), and the values they return.
//!
//! The persistence layer (`mobieyes-store`) does not snapshot tables on
//! every change — it journals the server's *inputs*. Every public mutating
//! method of the `Server` appends one [`LogRecord`] describing its
//! arguments, and replaying those records against a fresh server
//! reproduces the exact FOT/SQT/RQI byte-for-byte, because the protocol
//! logic is deterministic. The same records are the mutation requests of
//! the cluster's partition RPC: [`Server::apply`](crate::Server::apply) is
//! the one dispatch behind replay, the partition service and an in-process
//! partition handle, answering with a [`ReplyPayload`].
//!
//! Two record kinds carry context a replayed partition cannot rederive on
//! its own:
//!
//! - [`LogRecord::Floor`] — the shared cluster epoch observed at the next
//!   op. Live partitions share one atomic sequencer, so the seq stamps a
//!   partition writes depend on its *siblings'* bumps; journaling the
//!   observed floor (deduplicated: only when it changed) and raising the
//!   replayed epoch with `fetch_max` reproduces the exact stamp sequence —
//!   the same trick the remote partition RPC protocol uses per request.
//! - [`LogRecord::Bounds`] — a partition-map install (rebalance, failover
//!   or re-adoption fence). Replayed partitions rebuild a private
//!   [`PartitionTable`](crate::PartitionTable) from these so historical
//!   ownership decisions resolve exactly as they did live.
//!
//! [`LogRecord::Checkpoint`] carries a full state snapshot
//! ([`Server::checkpoint_bytes`](crate::Server::checkpoint_bytes)); replay
//! starts at the newest checkpoint and applies the tail after it.
//!
//! Encoding composes the existing in-tree codec primitives; like every
//! other decoder in the tree, [`decode_record`] returns an error on any
//! malformed input and never panics.

use crate::codec::{
    self, decode_cluster, decode_uplink, encode_cluster, encode_uplink, DecodeError, Put, Reader,
};
use crate::filter::Filter;
use crate::messages::{ClusterMsg, Uplink};
use crate::model::{ObjectId, QueryId};
use mobieyes_geo::{CellId, LinearMotion, QueryRegion};
use std::sync::Arc;

type Result<T> = std::result::Result<T, DecodeError>;

/// One journaled server input. Variants map 1:1 onto the public mutating
/// entry points of the [`Server`](crate::Server), plus the replay-context
/// records (`Meta`, `Floor`, `Bounds`, `Checkpoint`).
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// First record of a journal: which partition slot this log belongs
    /// to. Replay sanity-checks it against the directory being replayed.
    Meta {
        partition: u32,
        num_partitions: u32,
    },
    /// Shared-epoch floor observed before the next op (see module docs).
    Floor(u64),
    SetTime(f64),
    Heartbeat(f64),
    /// One agent uplink, journaled at the outermost dispatch; the nested
    /// primitives it decomposes into are suppressed.
    Uplink {
        from: u32,
        msg: Uplink,
    },
    InstallQuery {
        qid: QueryId,
        focal: ObjectId,
        region: QueryRegion,
        filter: Filter,
        expires_at: Option<f64>,
    },
    CompleteInstall {
        qid: QueryId,
        focal: ObjectId,
        region: QueryRegion,
        filter: Arc<Filter>,
        expires_at: Option<f64>,
    },
    RemoveQuery(QueryId),
    UpdateRegion {
        qid: QueryId,
        region: QueryRegion,
    },
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
        /// The reported motion. Replay ignores it (the fresh-cell-change
        /// handler is position-free) but the trajectory index reads it,
        /// so cluster logs cover ordinary objects, not just focal ones.
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
    PurgeObject(ObjectId),
    ResultDelta {
        qid: QueryId,
        oid: ObjectId,
        entered: bool,
    },
    LqtReconcile {
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
    /// An inter-partition message applied to this partition.
    Cluster(ClusterMsg),
    ExportCells {
        flats: Vec<u32>,
        generation: u64,
    },
    PruneStubs,
    BumpEpoch,
    /// Partition-map install under a fence (see module docs).
    Bounds {
        generation: u64,
        bounds: Vec<u64>,
    },
    /// Full state snapshot; replay restores it and applies the tail.
    Checkpoint(Vec<u8>),
}

impl LogRecord {
    /// The motion sample this record carries for the trajectory index, if
    /// any: `(object, motion)` as reported by the agent.
    pub fn motion_sample(&self) -> Option<(ObjectId, LinearMotion)> {
        match self {
            LogRecord::VelocityReport { oid, motion }
            | LogRecord::CellChangeFocal { oid, motion, .. }
            | LogRecord::CellChangeFresh { oid, motion, .. }
            | LogRecord::RefreshFocalMotion { oid, motion, .. } => Some((*oid, *motion)),
            LogRecord::Uplink {
                msg:
                    Uplink::VelocityReport { oid, motion }
                    | Uplink::CellChange { oid, motion, .. }
                    | Uplink::PositionReply { oid, motion, .. }
                    | Uplink::Resync { oid, motion, .. },
                ..
            } => Some((*oid, *motion)),
            _ => None,
        }
    }
}

/// What a partition op returns: a [`Server::apply`](crate::Server::apply)
/// of a record, or a read. The cluster's RPC carries it as the reply's
/// value.
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
    Reinstall(Option<(QueryRegion, Arc<Filter>, Option<f64>)>),
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

/// Where a server sends its journal records. Implemented by the
/// `mobieyes-store` writer; injected into a [`Server`](crate::Server) like
/// a `Telemetry` sink. Append must be infallible from the server's point
/// of view — a failing store poisons itself and counts the error.
pub trait JournalSink: Send + Sync + std::fmt::Debug {
    fn append(&self, rec: &LogRecord);
}

/// A `Vec`-backed sink for tests.
#[derive(Debug, Default)]
pub struct VecSink(pub std::sync::Mutex<Vec<LogRecord>>);

impl JournalSink for VecSink {
    fn append(&self, rec: &LogRecord) {
        self.0.lock().unwrap().push(rec.clone());
    }
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

fn get_opt_f64(buf: &mut Reader<'_>) -> Result<Option<f64>> {
    Ok(if buf.get_u8("option flag")? != 0 {
        Some(buf.get_f64_le("f64 value")?)
    } else {
        None
    })
}

/// Bounds-checked u32 length prefix (journal counts are u32 — checkpoint
/// payloads and cell lists can exceed the u16 the message codec uses).
pub(crate) fn get_count32(buf: &mut Reader<'_>, min_elem_size: usize, what: &str) -> Result<usize> {
    let n = buf.get_u32_le(what)? as usize;
    if n * min_elem_size > buf.remaining() {
        return Err(DecodeError(format!(
            "oversized length prefix: {what} claims {n} elements but only {} bytes remain",
            buf.remaining()
        )));
    }
    Ok(n)
}

fn put_install(
    out: &mut Vec<u8>,
    qid: QueryId,
    focal: ObjectId,
    region: &QueryRegion,
    filter: &Filter,
    expires_at: Option<f64>,
) {
    out.put_u32_le(qid.0);
    out.put_u32_le(focal.0);
    codec::put_region(out, region);
    codec::put_filter(out, filter);
    put_opt_f64(out, expires_at);
}

type Install = (QueryId, ObjectId, QueryRegion, Filter, Option<f64>);

fn get_install(buf: &mut Reader<'_>) -> Result<Install> {
    let qid = QueryId(buf.get_u32_le("query id")?);
    let focal = ObjectId(buf.get_u32_le("focal id")?);
    let region = codec::get_region(buf)?;
    let filter = codec::get_filter(buf)?;
    let expires_at = get_opt_f64(buf)?;
    Ok((qid, focal, region, filter, expires_at))
}

/// Encodes one record (tag byte + payload) onto `out`.
pub fn encode_record(rec: &LogRecord, out: &mut Vec<u8>) {
    match rec {
        LogRecord::Meta {
            partition,
            num_partitions,
        } => {
            out.put_u8(0);
            out.put_u32_le(*partition);
            out.put_u32_le(*num_partitions);
        }
        LogRecord::Floor(v) => {
            out.put_u8(1);
            out.put_u64_le(*v);
        }
        LogRecord::SetTime(t) => {
            out.put_u8(2);
            out.put_f64_le(*t);
        }
        LogRecord::Heartbeat(t) => {
            out.put_u8(3);
            out.put_f64_le(*t);
        }
        LogRecord::Uplink { from, msg } => {
            out.put_u8(4);
            out.put_u32_le(*from);
            encode_uplink(msg, out);
        }
        LogRecord::InstallQuery {
            qid,
            focal,
            region,
            filter,
            expires_at,
        } => {
            out.put_u8(5);
            put_install(out, *qid, *focal, region, filter, *expires_at);
        }
        LogRecord::CompleteInstall {
            qid,
            focal,
            region,
            filter,
            expires_at,
        } => {
            out.put_u8(6);
            put_install(out, *qid, *focal, region, filter, *expires_at);
        }
        LogRecord::RemoveQuery(qid) => {
            out.put_u8(7);
            out.put_u32_le(qid.0);
        }
        LogRecord::UpdateRegion { qid, region } => {
            out.put_u8(8);
            out.put_u32_le(qid.0);
            codec::put_region(out, region);
        }
        LogRecord::RenewLease(oid) => {
            out.put_u8(9);
            out.put_u32_le(oid.0);
        }
        LogRecord::VelocityReport { oid, motion } => {
            out.put_u8(10);
            out.put_u32_le(oid.0);
            codec::put_motion(out, motion);
        }
        LogRecord::CellChangeFocal {
            oid,
            new_cell,
            motion,
        } => {
            out.put_u8(11);
            out.put_u32_le(oid.0);
            codec::put_cell(out, *new_cell);
            codec::put_motion(out, motion);
        }
        LogRecord::CellChangeFresh {
            oid,
            prev_cell,
            new_cell,
            motion,
        } => {
            out.put_u8(12);
            out.put_u32_le(oid.0);
            codec::put_cell(out, *prev_cell);
            codec::put_cell(out, *new_cell);
            codec::put_motion(out, motion);
        }
        LogRecord::ResultChange {
            qid,
            oid,
            is_target,
        } => {
            out.put_u8(13);
            out.put_u32_le(qid.0);
            out.put_u32_le(oid.0);
            out.put_u8(*is_target as u8);
        }
        LogRecord::GroupResultUpdate {
            oid,
            focal,
            mask,
            targets,
        } => {
            out.put_u8(14);
            out.put_u32_le(oid.0);
            out.put_u32_le(focal.0);
            out.put_u64_le(*mask);
            out.put_u64_le(*targets);
        }
        LogRecord::RefreshFocalMotion {
            oid,
            motion,
            max_vel,
            insert,
        } => {
            out.put_u8(15);
            out.put_u32_le(oid.0);
            codec::put_motion(out, motion);
            out.put_f64_le(*max_vel);
            out.put_u8(*insert as u8);
        }
        LogRecord::PurgeObject(oid) => {
            out.put_u8(16);
            out.put_u32_le(oid.0);
        }
        LogRecord::ResultDelta { qid, oid, entered } => {
            out.put_u8(17);
            out.put_u32_le(qid.0);
            out.put_u32_le(oid.0);
            out.put_u8(*entered as u8);
        }
        LogRecord::LqtReconcile {
            qid,
            oid,
            is_target,
        } => {
            out.put_u8(18);
            out.put_u32_le(qid.0);
            out.put_u32_le(oid.0);
            out.put_u8(*is_target as u8);
        }
        LogRecord::FocalReassert(oid) => {
            out.put_u8(19);
            out.put_u32_le(oid.0);
        }
        LogRecord::CellSyncReply { oid, cell } => {
            out.put_u8(20);
            out.put_u32_le(oid.0);
            codec::put_cell(out, *cell);
        }
        LogRecord::ExtractFocal(oid) => {
            out.put_u8(21);
            out.put_u32_le(oid.0);
        }
        LogRecord::Cluster(msg) => {
            out.put_u8(22);
            encode_cluster(msg, out);
        }
        LogRecord::ExportCells { flats, generation } => {
            out.put_u8(23);
            out.put_u64_le(*generation);
            out.put_u32_le(flats.len() as u32);
            for f in flats {
                out.put_u32_le(*f);
            }
        }
        LogRecord::PruneStubs => out.put_u8(24),
        LogRecord::BumpEpoch => out.put_u8(25),
        LogRecord::Bounds { generation, bounds } => {
            out.put_u8(26);
            out.put_u64_le(*generation);
            out.put_u32_le(bounds.len() as u32);
            for b in bounds {
                out.put_u64_le(*b);
            }
        }
        LogRecord::Checkpoint(bytes) => {
            out.put_u8(27);
            out.put_u32_le(bytes.len() as u32);
            out.put_slice(bytes);
        }
    }
}

/// Encodes one record into a fresh buffer.
pub fn record_bytes(rec: &LogRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(rec, &mut out);
    out
}

/// Decodes one record. Errors (never panics) on truncated input, unknown
/// tags or oversized counts.
pub fn decode_record(buf: &mut Reader<'_>) -> Result<LogRecord> {
    let tag = buf.get_u8("record tag")?;
    Ok(match tag {
        0 => LogRecord::Meta {
            partition: buf.get_u32_le("partition")?,
            num_partitions: buf.get_u32_le("num partitions")?,
        },
        1 => LogRecord::Floor(buf.get_u64_le("epoch floor")?),
        2 => LogRecord::SetTime(buf.get_f64_le("time")?),
        3 => LogRecord::Heartbeat(buf.get_f64_le("time")?),
        4 => LogRecord::Uplink {
            from: buf.get_u32_le("from node")?,
            msg: decode_uplink(buf)?,
        },
        5 => {
            let (qid, focal, region, filter, expires_at) = get_install(buf)?;
            LogRecord::InstallQuery {
                qid,
                focal,
                region,
                filter,
                expires_at,
            }
        }
        6 => {
            let (qid, focal, region, filter, expires_at) = get_install(buf)?;
            LogRecord::CompleteInstall {
                qid,
                focal,
                region,
                filter: Arc::new(filter),
                expires_at,
            }
        }
        7 => LogRecord::RemoveQuery(QueryId(buf.get_u32_le("query id")?)),
        8 => LogRecord::UpdateRegion {
            qid: QueryId(buf.get_u32_le("query id")?),
            region: codec::get_region(buf)?,
        },
        9 => LogRecord::RenewLease(ObjectId(buf.get_u32_le("object id")?)),
        10 => LogRecord::VelocityReport {
            oid: ObjectId(buf.get_u32_le("object id")?),
            motion: codec::get_motion(buf)?,
        },
        11 => LogRecord::CellChangeFocal {
            oid: ObjectId(buf.get_u32_le("object id")?),
            new_cell: codec::get_cell(buf)?,
            motion: codec::get_motion(buf)?,
        },
        12 => LogRecord::CellChangeFresh {
            oid: ObjectId(buf.get_u32_le("object id")?),
            prev_cell: codec::get_cell(buf)?,
            new_cell: codec::get_cell(buf)?,
            motion: codec::get_motion(buf)?,
        },
        13 => LogRecord::ResultChange {
            qid: QueryId(buf.get_u32_le("query id")?),
            oid: ObjectId(buf.get_u32_le("object id")?),
            is_target: buf.get_u8("is_target")? != 0,
        },
        14 => LogRecord::GroupResultUpdate {
            oid: ObjectId(buf.get_u32_le("object id")?),
            focal: ObjectId(buf.get_u32_le("focal id")?),
            mask: buf.get_u64_le("mask")?,
            targets: buf.get_u64_le("targets")?,
        },
        15 => LogRecord::RefreshFocalMotion {
            oid: ObjectId(buf.get_u32_le("object id")?),
            motion: codec::get_motion(buf)?,
            max_vel: buf.get_f64_le("max_vel")?,
            insert: buf.get_u8("insert")? != 0,
        },
        16 => LogRecord::PurgeObject(ObjectId(buf.get_u32_le("object id")?)),
        17 => LogRecord::ResultDelta {
            qid: QueryId(buf.get_u32_le("query id")?),
            oid: ObjectId(buf.get_u32_le("object id")?),
            entered: buf.get_u8("entered")? != 0,
        },
        18 => LogRecord::LqtReconcile {
            qid: QueryId(buf.get_u32_le("query id")?),
            oid: ObjectId(buf.get_u32_le("object id")?),
            is_target: buf.get_u8("is_target")? != 0,
        },
        19 => LogRecord::FocalReassert(ObjectId(buf.get_u32_le("object id")?)),
        20 => LogRecord::CellSyncReply {
            oid: ObjectId(buf.get_u32_le("object id")?),
            cell: codec::get_cell(buf)?,
        },
        21 => LogRecord::ExtractFocal(ObjectId(buf.get_u32_le("object id")?)),
        22 => LogRecord::Cluster(decode_cluster(buf)?),
        23 => {
            let generation = buf.get_u64_le("generation")?;
            let n = get_count32(buf, 4, "flat cell count")?;
            let mut flats = Vec::with_capacity(n);
            for _ in 0..n {
                flats.push(buf.get_u32_le("flat cell")?);
            }
            LogRecord::ExportCells { flats, generation }
        }
        24 => LogRecord::PruneStubs,
        25 => LogRecord::BumpEpoch,
        26 => {
            let generation = buf.get_u64_le("generation")?;
            let n = get_count32(buf, 8, "bounds count")?;
            let mut bounds = Vec::with_capacity(n);
            for _ in 0..n {
                bounds.push(buf.get_u64_le("bound")?);
            }
            LogRecord::Bounds { generation, bounds }
        }
        27 => {
            let n = get_count32(buf, 1, "checkpoint size")?;
            LogRecord::Checkpoint(buf.take(n, "checkpoint bytes")?.to_vec())
        }
        t => return Err(DecodeError(format!("unknown log record tag {t}"))),
    })
}

/// FNV-1a over a byte slice — the digest primitive behind
/// [`Server::state_digest`](crate::Server::state_digest).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
