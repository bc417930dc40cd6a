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
//! (`serve::run_op`).
//!
//! Replies also carry every side effect the operation produced:
//!
//! - the partition's inter-server outbox (bus envelopes the coordinator
//!   pumps through its bus exactly like a local partition's),
//! - the downlink traffic the operation emitted ([`NetAction`]), which the
//!   coordinator replays onto the real agent network in operation order,
//!   and
//! - the changes the operation made to the set of focal objects and
//!   queries the partition homes ([`HomeChange`]), from which the
//!   coordinator keeps an exact mirror of both key sets instead of asking.
//!
//! Every frame layout is one [`Wire`] declaration — the ops, the replies,
//! the bus envelope — over the record, message and payload layouts of
//! [`mobieyes_core::codec`] and [`mobieyes_core::journal`]. A malformed
//! frame is a [`TransportError`], never a panic.

use crate::cluster_server::Envelope;
use mobieyes_core::codec::{self, get_n, DecodeError, Put, Reader, Wire};
pub use mobieyes_core::ReplyPayload;
use mobieyes_core::{ClusterMsg, Downlink, HomeChange, LogRecord, ObjectId, Propagation, QueryId};
use mobieyes_geo::Rect;
use mobieyes_net::TransportError;

mobieyes_core::wire!(
    struct Envelope {
        to: u32,
        msg: ClusterMsg,
    }
);

type Result<T> = std::result::Result<T, TransportError>;

/// Decodes exactly one `T` from a frame: malformed input or bytes left
/// behind it are a [`TransportError::Frame`].
fn decode_frame<T: Wire>(bytes: &[u8], what: &str) -> Result<T> {
    let mut buf = Reader::new(bytes);
    let value = T::get(&mut buf).map_err(|e| TransportError::Frame(e.to_string()))?;
    match buf.remaining() {
        0 => Ok(value),
        n => Err(TransportError::Frame(format!(
            "{n} trailing bytes after {what}"
        ))),
    }
}

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
/// (`serve::run_op`).
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

/// Reply to one [`PartitionOp`]; the default acknowledges an op that
/// changed nothing.
#[derive(Debug, Clone, PartialEq, Default)]
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

// --- layouts -------------------------------------------------------------------

/// `Init`'s layout. Decoding refuses every configuration the partition
/// could not be built from — a degenerate or non-finite universe, a cell
/// or station side that is not a positive finite length, a grid or
/// station lattice whose ids overflow the `u32` they travel as, no
/// partitions, more partitions than cells, a slot outside the count — so
/// a bad `Init` is a classified frame error, never an assertion failing
/// in the partition process.
impl Wire for InitConfig {
    const MIN_LEN: usize = 10 * f64::MIN_LEN
        + Propagation::MIN_LEN
        + 4 * bool::MIN_LEN
        + 2 * u32::MIN_LEN
        + Option::<String>::MIN_LEN;

    fn put(&self, out: &mut impl Put) {
        let u = &self.universe;
        (u.lx, u.ly, u.hx(), u.hy()).put(out);
        (self.alpha, self.alen, self.delta, self.propagation).put(out);
        (self.grouping, self.safe_period, self.deliver_results).put(out);
        (self.system_max_speed, self.lease_secs, self.heartbeat_secs).put(out);
        (self.partition, self.num_partitions).put(out);
        self.store_dir.put(out);
        self.store_fresh.put(out);
    }

    fn get(buf: &mut Reader<'_>) -> codec::Result<Self> {
        let refuse = |why: String| Err(DecodeError(format!("unusable Init: {why}")));
        let (lx, ly, hx, hy) = <(f64, f64, f64, f64)>::get(buf)?;
        if ![lx, ly, hx, hy].iter().all(|v| v.is_finite()) || hx <= lx || hy <= ly {
            return refuse(format!("universe ({lx}, {ly})..({hx}, {hy})"));
        }
        let (alpha, alen, delta, propagation) = Wire::get(buf)?;
        let (grouping, safe_period, deliver_results) = Wire::get(buf)?;
        let (system_max_speed, lease_secs, heartbeat_secs) = Wire::get(buf)?;
        let (partition, num_partitions) = <(u32, u32)>::get(buf)?;
        let init = InitConfig {
            universe: Rect::from_bounds(lx, ly, hx, hy),
            alpha,
            alen,
            delta,
            propagation,
            grouping,
            safe_period,
            deliver_results,
            system_max_speed,
            lease_secs,
            heartbeat_secs,
            partition,
            num_partitions,
            store_dir: Wire::get(buf)?,
            store_fresh: Wire::get(buf)?,
        };
        // Ids on a lattice of `side`-long squares over the universe.
        let lattice = |side: f64| {
            let span = |len: f64| (len / side).ceil().max(1.0);
            span(hx - lx) * span(hy - ly)
        };
        let positive = |v: f64| v > 0.0 && v.is_finite();
        let cells = lattice(alpha);
        if !positive(alpha) || cells > f64::from(u32::MAX) {
            return refuse(format!("cell side {alpha}"));
        }
        if !positive(alen) || lattice(alen) > f64::from(u32::MAX) {
            return refuse(format!("station side {alen}"));
        }
        if num_partitions == 0 || f64::from(num_partitions) > cells {
            return refuse(format!("{num_partitions} partitions over {cells} cells"));
        }
        if partition >= num_partitions {
            return refuse(format!("partition {partition} of {num_partitions}"));
        }
        Ok(init)
    }
}

/// Tag of [`PartitionOp::Apply`] in the layout below, which
/// [`encode_apply`] writes by hand.
const APPLY: u8 = 1;

mobieyes_core::wire!(enum PartitionOp {
    0 => Init(config: InitConfig),
    1 => Apply(rec: LogRecord),
    2 => Shutdown,
    3 => ExpiredQueryIds(now: f64),
    4 => ExpiredLeases,
    5 => ReinstallInfo(qid: QueryId),
    6 => DigestCells,
    7 => CurrentEpoch,
    8 => QueryIds,
    9 => QueryResult(qid: QueryId),
    10 => QueryFocal(qid: QueryId),
    11 => FocalMotion(oid: ObjectId),
    12 => FocalQueries(oid: ObjectId),
    13 => ObjectMemberships(oid: ObjectId),
    14 => QueryCell(qid: QueryId),
    15 => CheckInvariants,
    16 => FocalIds,
    17 => FocalAnchorCell(oid: ObjectId),
    18 => Checkpoint,
    19 => Trajectory { oid: ObjectId, t0: f64, t1: f64 },
    20 => LoadSignal,
});

mobieyes_core::wire!(enum NetAction {
    0 => Unicast { node: u32, msg: Downlink },
    1 => Broadcast { station: u32, msg: Downlink },
});

/// The `homes` list's count: LEB128 — one byte for the (almost always
/// empty) list, where the fixed-width `u32` count used elsewhere would add
/// three bytes to every reply — then each element.
mod varint_seq {
    use super::{codec, get_n, DecodeError, Put, Reader, Wire};

    pub const MIN_LEN: usize = 1;

    pub fn put<T: Wire>(out: &mut impl Put, items: &[T]) {
        let mut n = items.len() as u64;
        while n >= 0x80 {
            (n as u8 | 0x80).put(out);
            n >>= 7;
        }
        (n as u8).put(out);
        for item in items {
            item.put(out);
        }
    }

    pub fn get<T: Wire>(buf: &mut Reader<'_>) -> codec::Result<Vec<T>> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = u8::get(buf)?;
            n |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return get_n(buf, n as usize, T::MIN_LEN, T::get);
            }
        }
        Err(DecodeError("overlong varint count".into()))
    }
}

mobieyes_core::wire!(struct PartitionReply {
    epoch: u64,
    outbox: Vec<(u32, ClusterMsg)>,
    net: Vec<NetAction>,
    payload: ReplyPayload,
    homes: Vec<HomeChange> as varint_seq,
});

// --- frames ------------------------------------------------------------------

/// Encodes a request frame: the coordinator's epoch floor, then the op.
pub fn encode_request(epoch_floor: u64, op: &PartitionOp, out: &mut Vec<u8>) {
    epoch_floor.put(out);
    op.put(out);
}

/// Encodes the request frame of `Apply(rec)` from a borrowed record — what
/// a handle sends, so no record is copied into an op to be encoded.
pub(crate) fn encode_apply(epoch_floor: u64, rec: &LogRecord, out: &mut Vec<u8>) {
    (epoch_floor, APPLY).put(out);
    rec.put(out);
}

/// Decodes a request frame into `(epoch_floor, op)`. An `Apply` of a record
/// [`is_partition_record`] does not list is a [`TransportError::Protocol`].
pub fn decode_request(bytes: &[u8]) -> Result<(u64, PartitionOp)> {
    let (floor, op) = decode_frame(bytes, "partition op")?;
    if let PartitionOp::Apply(rec) = &op {
        if !is_partition_record(rec) {
            return Err(TransportError::Protocol(format!(
                "{rec:?} is not a partition op"
            )));
        }
    }
    Ok((floor, op))
}

/// Encodes a reply frame.
pub fn encode_reply(reply: &PartitionReply, out: &mut Vec<u8>) {
    reply.put(out);
}

/// Decodes a reply frame.
pub fn decode_reply(bytes: &[u8]) -> Result<PartitionReply> {
    decode_frame(bytes, "partition reply")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mobieyes_core::{Filter, Uplink};

    // Reply sequences are counted against at least the minimums their
    // hand-written decoders used.
    const _: () = {
        assert!(<(u32, ClusterMsg)>::MIN_LEN >= 5);
        assert!(NetAction::MIN_LEN >= 6);
        assert!(HomeChange::MIN_LEN >= 5);
    };
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
        std::iter::once(PartitionOp::Init(sample_init()))
            .chain(sample_records().into_iter().map(PartitionOp::Apply))
            .chain(reads())
            .chain([PartitionOp::Shutdown])
            .collect()
    }

    /// Partition 2 of 4 over a 20 x 20 grid (400 cells).
    fn sample_init() -> InitConfig {
        InitConfig {
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
        }
    }

    /// `sample_init` broken in each field the partition could not be
    /// built from, one case per field and way.
    pub(crate) fn bad_inits() -> Vec<(&'static str, InitConfig)> {
        let with = |name, f: fn(&mut InitConfig)| {
            let mut init = sample_init();
            f(&mut init);
            (name, init)
        };
        fn universe(hx: f64, hy: f64) -> Rect {
            Rect::from_bounds(0.0, 0.0, hx, hy)
        }
        vec![
            with("zero-width universe", |c| c.universe = universe(0.0, 100.0)),
            with("zero-height universe", |c| {
                c.universe = universe(100.0, 0.0)
            }),
            with("infinite hx", |c| {
                c.universe = universe(f64::INFINITY, 100.0)
            }),
            with("infinite hy", |c| {
                c.universe = universe(100.0, f64::INFINITY)
            }),
            with("zero alpha", |c| c.alpha = 0.0),
            with("negative alpha", |c| c.alpha = -5.0),
            with("NaN alpha", |c| c.alpha = f64::NAN),
            with("infinite alpha", |c| c.alpha = f64::INFINITY),
            with("cells beyond u32 ids", |c| c.alpha = 1e-6),
            with("zero alen", |c| c.alen = 0.0),
            with("NaN alen", |c| c.alen = f64::NAN),
            with("infinite alen", |c| c.alen = f64::INFINITY),
            with("stations beyond u32 ids", |c| c.alen = 1e-6),
            with("no partitions", |c| c.num_partitions = 0),
            with("more partitions than cells", |c| c.num_partitions = 401),
            with("partition out of range", |c| c.partition = 4),
        ]
    }

    /// Every bad `Init` is refused as a frame error at decode, naming why.
    #[test]
    fn an_init_the_partition_cannot_be_built_from_is_refused_at_decode() {
        for (name, init) in bad_inits() {
            let mut bytes = Vec::new();
            encode_request(0, &PartitionOp::Init(init), &mut bytes);
            let err = decode_request(&bytes).expect_err(name);
            assert!(
                matches!(&err, TransportError::Frame(text) if text.contains("unusable Init")),
                "{name}: {err}"
            );
        }
    }

    fn reads() -> Vec<PartitionOp> {
        vec![
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
            ReplyPayload::OptCluster(Some(Box::new(ClusterMsg::StubMotion {
                focal: ObjectId(1),
                motion: motion(),
                max_vel: 0.02,
                qids: vec![(QueryId(2), 7)],
            }))),
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
            let record = codec::to_bytes(&rec);
            assert_eq!(framed.len(), 8 + 1 + record.len(), "{rec:?}");
            assert_eq!(&framed[9..], &record[..]);
        }
    }

    /// A request whose install carries a filter of `Not`s nested `depth`
    /// levels deep around `True` (written as bytes: a value that deep
    /// could not be encoded by recursion either).
    fn nested_install_request(depth: usize) -> Vec<u8> {
        let marker = Filter::Eq(
            "filter-goes-here".into(),
            mobieyes_core::PropValue::Bool(true),
        );
        let install = LogRecord::CompleteInstall {
            qid: QueryId(6),
            focal: ObjectId(7),
            region: QueryRegion::circle(4.0),
            filter: Arc::new(marker.clone()),
            expires_at: None,
        };
        let mut bytes = Vec::new();
        encode_apply(3, &install, &mut bytes);
        let key = b"filter-goes-here";
        let at = bytes
            .windows(key.len())
            .position(|w| w == key)
            .expect("marker")
            - 3;
        let mut chain = vec![8u8; depth];
        chain.push(0);
        bytes.splice(at..at + codec::encoded_len(&marker), chain);
        bytes
    }

    /// Filters arrive in partition requests, so the request decoder is
    /// where a hostile nesting depth must stop: past the codec's bound it
    /// is a frame error — however deep, without exhausting the stack —
    /// and at the bound the install decodes.
    #[test]
    fn a_filter_nested_past_the_bound_is_a_frame_error_not_an_abort() {
        use mobieyes_core::codec::MAX_NESTING;
        for depth in [MAX_NESTING + 1, 100_000, 1_000_000] {
            let err = decode_request(&nested_install_request(depth)).expect_err("refused");
            assert!(
                matches!(&err, TransportError::Frame(text) if text.contains("nested deeper")),
                "depth {depth}: {err}"
            );
        }
        let (floor, op) = decode_request(&nested_install_request(MAX_NESTING)).expect("decodes");
        let PartitionOp::Apply(LogRecord::CompleteInstall { filter, .. }) = op else {
            panic!("decoded {op:?}");
        };
        assert_eq!(floor, 3);
        assert_eq!(codec::encoded_len(&*filter), MAX_NESTING + 1);
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
        env.put(&mut bytes);
        use mobieyes_net::WireSized;
        assert_eq!(bytes.len(), env.wire_size());
        let back = decode_frame::<Envelope>(&bytes, "envelope").expect("decodes");
        assert_eq!(back.to, env.to);
        assert_eq!(back.msg, env.msg);
        assert!(decode_frame::<Envelope>(&bytes[..bytes.len() - 1], "envelope").is_err());
    }
}
