//! The server's op vocabulary: typed log records for every mutation of
//! the [`Server`](crate::Server), and the values they return.
//!
//! The persistence layer (`mobieyes-store`) does not snapshot tables on
//! every change — it journals the server's *inputs*. Every mutation is one
//! [`LogRecord`] describing its arguments, run through
//! [`Server::apply`](crate::Server::apply), which appends the record to
//! the journal before running it; replaying those records against a fresh
//! server reproduces the exact FOT/SQT/RQI byte-for-byte, because the
//! protocol logic is deterministic. The same records are the mutation
//! requests of the cluster's partition RPC: `apply` is the one way in for
//! the single server's entry points, replay, the partition service and an
//! in-process partition handle, answering with a [`ReplyPayload`].
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
//! The byte layouts of [`LogRecord`], [`ReplyPayload`] and
//! [`HomeChange`] are declared here, once each, in the form of the
//! [`Wire`](crate::codec::Wire) trait every format of the tree uses: the
//! same declaration writes a record to the log and to the partition RPC
//! and reads it back from either, and like every decoder in the tree it
//! returns an error on malformed input, never a panic.

use crate::filter::Filter;
use crate::messages::{ClusterMsg, Uplink};
use crate::model::{ObjectId, QueryId};
use crate::server::HomeChange;
use mobieyes_geo::{CellId, LinearMotion, QueryRegion};
use std::sync::Arc;

/// One journaled server input: a mutation
/// [`Server::apply`](crate::Server::apply) runs, or one of the
/// replay-context records (`Meta`, `Floor`, `Bounds`, `Checkpoint`). The
/// server never journals `Meta`, `Floor` or `Checkpoint` as records it
/// was given; the store writes those.
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
    /// One agent uplink, journaled as received. Its handler's nested work
    /// (a resync's focal repair, result deltas) writes no records of its
    /// own.
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
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ReplyPayload {
    #[default]
    Unit,
    Bool(bool),
    U64(u64),
    Qids(Vec<QueryId>),
    OptQids(Option<Vec<QueryId>>),
    /// Boxed: a cluster message is the largest answer by far, and every
    /// reply would otherwise carry its size.
    OptCluster(Option<Box<ClusterMsg>>),
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

// Every reply carries a payload, and an in-process partition moves each
// one through `serve_op` and the coordinator's fold: it stays small (it
// was 144 bytes with the cluster message inline).
const _: () = assert!(std::mem::size_of::<ReplyPayload>() <= 56);

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

/// The checkpoint image inside a [`LogRecord::Checkpoint`]: a `u32` byte
/// length, then the bytes, copied in bulk.
mod bytes32 {
    use crate::codec::{Put, Reader, Result, Wire};

    pub const MIN_LEN: usize = 4;

    pub fn put(out: &mut impl Put, bytes: &[u8]) {
        (bytes.len() as u32).put(out);
        out.put_slice(bytes);
    }

    pub fn get(buf: &mut Reader<'_>) -> Result<Vec<u8>> {
        let n = u32::get(buf)?;
        Ok(buf.take(n as usize, "checkpoint bytes")?.to_vec())
    }
}

crate::wire!(enum LogRecord {
    0 => Meta { partition: u32, num_partitions: u32 },
    1 => Floor(floor: u64),
    2 => SetTime(t: f64),
    3 => Heartbeat(t: f64),
    4 => Uplink { from: u32, msg: Uplink },
    5 => InstallQuery {
        qid: QueryId,
        focal: ObjectId,
        region: QueryRegion,
        filter: Filter,
        expires_at: Option<f64>,
    },
    6 => CompleteInstall {
        qid: QueryId,
        focal: ObjectId,
        region: QueryRegion,
        filter: Arc<Filter>,
        expires_at: Option<f64>,
    },
    7 => RemoveQuery(qid: QueryId),
    8 => UpdateRegion { qid: QueryId, region: QueryRegion },
    9 => RenewLease(oid: ObjectId),
    10 => VelocityReport { oid: ObjectId, motion: LinearMotion },
    11 => CellChangeFocal { oid: ObjectId, new_cell: CellId, motion: LinearMotion },
    12 => CellChangeFresh {
        oid: ObjectId,
        prev_cell: CellId,
        new_cell: CellId,
        motion: LinearMotion,
    },
    13 => ResultChange { qid: QueryId, oid: ObjectId, is_target: bool },
    14 => GroupResultUpdate { oid: ObjectId, focal: ObjectId, mask: u64, targets: u64 },
    15 => RefreshFocalMotion { oid: ObjectId, motion: LinearMotion, max_vel: f64, insert: bool },
    16 => PurgeObject(oid: ObjectId),
    17 => ResultDelta { qid: QueryId, oid: ObjectId, entered: bool },
    18 => LqtReconcile { qid: QueryId, oid: ObjectId, is_target: bool },
    19 => FocalReassert(oid: ObjectId),
    20 => CellSyncReply { oid: ObjectId, cell: CellId },
    21 => ExtractFocal(oid: ObjectId),
    22 => Cluster(msg: ClusterMsg),
    23 => ExportCells { generation: u64, flats: Vec<u32> },
    24 => PruneStubs,
    25 => BumpEpoch,
    26 => Bounds { generation: u64, bounds: Vec<u64> },
    27 => Checkpoint(image: Vec<u8> as bytes32),
});

crate::wire!(enum ReplyPayload {
    0 => Unit,
    1 => Bool(v: bool),
    2 => U64(v: u64),
    3 => Qids(qids: Vec<QueryId>),
    4 => OptQids(qids: Option<Vec<QueryId>>),
    5 => OptCluster(msg: Option<Box<ClusterMsg>>),
    6 => OptMotion(motion: Option<LinearMotion>),
    7 => OptCell(cell: Option<CellId>),
    8 => OptOid(oid: Option<ObjectId>),
    9 => Digests(digests: Vec<(CellId, u64)>),
    10 => Leases(leases: Vec<(ObjectId, Vec<QueryId>)>),
    11 => Reinstall(install: Option<(QueryRegion, Arc<Filter>, Option<f64>)>),
    12 => ResultSet(oids: Option<Vec<ObjectId>>),
    13 => Oids(oids: Vec<ObjectId>),
    14 => Motions(motions: Vec<LinearMotion>),
    15 => Load { focals: u64, queries: u64, stubs: u64 },
});

crate::wire!(enum HomeChange {
    0 => FocalAdded(oid: ObjectId),
    1 => FocalRemoved(oid: ObjectId),
    2 => QueryAdded(qid: QueryId),
    3 => QueryRemoved(qid: QueryId),
});

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
