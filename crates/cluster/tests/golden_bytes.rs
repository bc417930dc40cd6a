//! Golden bytes: the hex encoding of one fixed sample of every byte format
//! the system writes — each `Uplink`, `Downlink` and `ClusterMsg` variant,
//! each journal record tag, one partition request per op and one reply per
//! payload, the checkpoint image of a small fixed server, and one store
//! segment.
//!
//! The round-trip tests only prove that a format agrees with itself; these
//! prove that it did not move. The message bytes are what the paper's
//! messaging-cost accounting charges, the records and segments are what an
//! existing log holds, and the checkpoint image is what `state_digest`
//! hashes, so a byte that changes here is a protocol or on-disk format
//! change and has to be made on purpose.
//!
//! Only the public encoders are used — the partition RPC frames carry
//! every other format (a record rides an `Apply` request, an uplink a
//! record, a downlink a reply's network action) — so the file does not
//! depend on how the codec is organised inside.

use mobieyes_cluster::wire::{encode_reply, encode_request};
use mobieyes_cluster::{InitConfig, NetAction, PartitionOp, PartitionReply, ReplyPayload};
use mobieyes_core::server::Net;
use mobieyes_core::{
    CellDigests, ClusterMsg, Downlink, Filter, HomeChange, LogRecord, ObjectId, PartitionScope,
    PartitionTable, PropValue, Propagation, ProtocolConfig, QueryGroupInfo, QueryId,
    QueryMigration, QuerySpec, Server, StubSeed, Uplink,
};
use mobieyes_geo::{CellId, Grid, GridRect, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::BaseStationLayout;
use mobieyes_store::{Store, StoreConfig};
use mobieyes_telemetry::Telemetry;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn motion() -> LinearMotion {
    LinearMotion::new(Point::new(12.5, -3.25), Vec2::new(0.125, -0.5), 96.0)
}

fn rect(x0: u32, y0: u32, x1: u32, y1: u32) -> GridRect {
    GridRect { x0, y0, x1, y1 }
}

/// A filter holding every `Filter` and `PropValue` variant.
fn every_filter() -> Filter {
    let b = Box::new;
    Filter::And(
        b(Filter::Or(
            b(Filter::Eq("n".into(), PropValue::Int(-7))),
            b(Filter::Eq("w".into(), PropValue::Float(2.5))),
        )),
        b(Filter::Not(b(Filter::And(
            b(Filter::Eq("kind".into(), PropValue::Text("taxi".into()))),
            b(Filter::Or(
                b(Filter::Eq("on".into(), PropValue::Bool(true))),
                b(Filter::Or(
                    b(Filter::Selectivity {
                        selectivity: 0.75,
                        salt: 0x0123_4567_89ab_cdef,
                    }),
                    b(Filter::And(
                        b(Filter::Lt("speed".into(), 3.0)),
                        b(Filter::Gt("load".into(), -1.5)),
                    )),
                )),
            )),
        )))),
    )
}

fn spec(qid: u32, region: QueryRegion, filter: Filter) -> QuerySpec {
    QuerySpec {
        qid: QueryId(qid),
        region,
        filter: Arc::new(filter),
        slot: qid as u8,
        seq: 40 + qid as u64,
    }
}

fn group() -> QueryGroupInfo {
    QueryGroupInfo {
        focal: ObjectId(3),
        motion: motion(),
        max_vel: 0.0625,
        mon_region: rect(1, 2, 4, 5),
        queries: Arc::new(vec![
            spec(1, QueryRegion::circle(3.5), Filter::True),
            spec(2, QueryRegion::rect(2.0, 1.0), every_filter()),
            spec(3, QueryRegion::circle(1.0), Filter::False),
        ]),
    }
}

fn uplinks() -> Vec<Uplink> {
    vec![
        Uplink::VelocityReport {
            oid: ObjectId(7),
            motion: motion(),
        },
        Uplink::CellChange {
            oid: ObjectId(8),
            prev_cell: CellId::new(1, 2),
            new_cell: CellId::new(2, 2),
            motion: motion(),
        },
        Uplink::ResultUpdate {
            oid: ObjectId(9),
            changes: vec![(QueryId(1), true), (QueryId(2), false)],
        },
        Uplink::GroupResultUpdate {
            oid: ObjectId(10),
            focal: ObjectId(11),
            mask: 0b1011,
            targets: 0b0010,
        },
        Uplink::PositionReply {
            oid: ObjectId(12),
            motion: motion(),
            max_vel: 0.0625,
        },
        Uplink::Resync {
            oid: ObjectId(13),
            cell: CellId::new(4, 7),
            motion: motion(),
            max_vel: 0.0625,
            fresh: true,
        },
        Uplink::LqtSync {
            oid: ObjectId(15),
            entries: vec![(QueryId(3), true), (QueryId(9), false)],
        },
    ]
}

fn downlinks() -> Vec<Downlink> {
    vec![
        Downlink::QueryState { info: group() },
        Downlink::VelocityChange {
            focal: ObjectId(3),
            motion: motion(),
            qids: vec![QueryId(1), QueryId(2)],
            seq: 6,
        },
        Downlink::NewQueries {
            infos: vec![group()],
        },
        Downlink::RemoveQuery {
            qid: QueryId(42),
            epoch: 17,
        },
        Downlink::FocalNotify { is_focal: true },
        Downlink::PositionRequest,
        Downlink::ResultDelta {
            qid: QueryId(9),
            object: ObjectId(77),
            entered: true,
        },
        Downlink::Heartbeat {
            epoch: 99,
            cell_digests: CellDigests::new(vec![
                (CellId::new(1, 2), 0xDEAD),
                (CellId::new(3, 4), 0xBEEF),
            ]),
        },
        Downlink::CellSync {
            cell: CellId::new(5, 6),
            epoch: 21,
            infos: vec![group()],
        },
    ]
}

fn cluster_msgs() -> Vec<ClusterMsg> {
    let migration = |expires_at, result| QueryMigration {
        spec: spec(5, QueryRegion::circle(2.5), Filter::Gt("speed".into(), 1.5)),
        curr_cell: CellId::new(3, 4),
        mon_region: rect(2, 3, 5, 6),
        expires_at,
        result,
    };
    vec![
        ClusterMsg::MigrateFocal {
            oid: ObjectId(9),
            motion: motion(),
            max_vel: 0.0625,
            used_slots: 0b1001,
            last_heard: 120.0,
            epoch: 33,
            queries: vec![
                migration(Some(600.0), vec![ObjectId(1), ObjectId(8)]),
                migration(None, vec![]),
            ],
        },
        ClusterMsg::StubUpdate {
            focal: ObjectId(9),
            motion: motion(),
            max_vel: 0.0625,
            curr_cell: CellId::new(3, 4),
            mon_region: rect(2, 3, 5, 6),
            old_mon: Some(rect(1, 2, 4, 5)),
            spec: spec(5, QueryRegion::rect(1.5, 0.5), Filter::True),
        },
        ClusterMsg::StubMotion {
            focal: ObjectId(9),
            motion: motion(),
            max_vel: 0.0625,
            qids: vec![(QueryId(5), 22), (QueryId(6), 23)],
        },
        ClusterMsg::StubRemove {
            qid: QueryId(5),
            mon_region: rect(2, 3, 5, 6),
            epoch: 40,
        },
        ClusterMsg::RebalanceCells {
            generation: 3,
            epoch: 44,
            cells: vec![(17, vec![QueryId(5), QueryId(6)]), (18, vec![])],
            stubs: vec![StubSeed {
                focal: ObjectId(9),
                motion: motion(),
                max_vel: 0.0625,
                mon_region: rect(2, 3, 5, 6),
                spec: spec(6, QueryRegion::circle(1.0), Filter::True),
            }],
        },
        ClusterMsg::RecoverCells {
            generation: 4,
            epoch: 50,
            cells: vec![17, 18, 19],
        },
    ]
}

/// One record per journal tag, in tag order.
fn records() -> Vec<LogRecord> {
    vec![
        LogRecord::Meta {
            partition: 1,
            num_partitions: 4,
        },
        LogRecord::Floor(77),
        LogRecord::SetTime(90.0),
        LogRecord::Heartbeat(120.0),
        LogRecord::Uplink {
            from: 7,
            msg: Uplink::VelocityReport {
                oid: ObjectId(7),
                motion: motion(),
            },
        },
        LogRecord::InstallQuery {
            qid: QueryId(2),
            focal: ObjectId(3),
            region: QueryRegion::circle(4.0),
            filter: Filter::Lt("speed".into(), 3.0),
            expires_at: None,
        },
        LogRecord::CompleteInstall {
            qid: QueryId(6),
            focal: ObjectId(7),
            region: QueryRegion::rect(4.0, 2.0),
            filter: Arc::new(Filter::Gt("speed".into(), 2.0)),
            expires_at: Some(300.0),
        },
        LogRecord::RemoveQuery(QueryId(6)),
        LogRecord::UpdateRegion {
            qid: QueryId(1),
            region: QueryRegion::circle(2.0),
        },
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
            max_vel: 0.0625,
            insert: true,
        },
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
            mon_region: rect(0, 0, 2, 2),
            epoch: 5,
        }),
        LogRecord::ExportCells {
            flats: vec![12, 13, 17],
            generation: 7,
        },
        LogRecord::PruneStubs,
        LogRecord::BumpEpoch,
        LogRecord::Bounds {
            generation: 7,
            bounds: vec![0, 12, 24],
        },
        LogRecord::Checkpoint(vec![0xAB, 0xCD, 0xEF]),
    ]
}

/// One request per op: `Init`, one `Apply`, every read, `Shutdown`.
fn ops() -> Vec<PartitionOp> {
    vec![
        PartitionOp::Init(InitConfig {
            universe: Rect::new(0.0, 0.0, 100.0, 80.0),
            alpha: 5.0,
            alen: 10.0,
            delta: 0.25,
            propagation: Propagation::Lazy,
            grouping: true,
            safe_period: false,
            deliver_results: true,
            system_max_speed: 0.0625,
            lease_secs: 120.0,
            heartbeat_secs: 60.0,
            partition: 2,
            num_partitions: 4,
            store_dir: Some("store/p2".into()),
            store_fresh: true,
        }),
        PartitionOp::Apply(LogRecord::RenewLease(ObjectId(7))),
        PartitionOp::Shutdown,
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

/// One reply per payload; the first carries every side-effect section.
fn replies() -> Vec<PartitionReply> {
    let payloads = vec![
        ReplyPayload::Unit,
        ReplyPayload::Bool(true),
        ReplyPayload::U64(42),
        ReplyPayload::Qids(vec![QueryId(1), QueryId(9)]),
        ReplyPayload::OptQids(Some(vec![QueryId(3)])),
        ReplyPayload::OptCluster(Some(Box::new(ClusterMsg::RecoverCells {
            generation: 1,
            epoch: 2,
            cells: vec![5],
        }))),
        ReplyPayload::OptMotion(Some(motion())),
        ReplyPayload::OptCell(Some(CellId::new(1, 2))),
        ReplyPayload::OptOid(None),
        ReplyPayload::Digests(vec![(CellId::new(0, 1), 0xFEED)]),
        ReplyPayload::Leases(vec![(ObjectId(4), vec![QueryId(1)]), (ObjectId(9), vec![])]),
        ReplyPayload::Reinstall(Some((
            QueryRegion::rect(2.0, 3.0),
            Arc::new(Filter::True),
            Some(500.0),
        ))),
        ReplyPayload::ResultSet(Some(vec![ObjectId(1), ObjectId(2)])),
        ReplyPayload::Oids(vec![ObjectId(3), ObjectId(8)]),
        ReplyPayload::Motions(vec![motion()]),
        ReplyPayload::Load {
            focals: 3,
            queries: 5,
            stubs: 11,
        },
    ];
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            let mut reply = bare_reply(payload);
            reply.epoch = 9 + i as u64;
            if i == 0 {
                reply.outbox = vec![(
                    1,
                    ClusterMsg::StubRemove {
                        qid: QueryId(3),
                        mon_region: rect(1, 1, 2, 2),
                        epoch: 4,
                    },
                )];
                reply.net = vec![
                    NetAction::Unicast {
                        node: 7,
                        msg: Downlink::PositionRequest,
                    },
                    NetAction::Broadcast {
                        station: 3,
                        msg: Downlink::FocalNotify { is_focal: true },
                    },
                ];
                reply.homes = vec![
                    HomeChange::FocalAdded(ObjectId(7)),
                    HomeChange::FocalRemoved(ObjectId(8)),
                    HomeChange::QueryAdded(QueryId(6)),
                    HomeChange::QueryRemoved(QueryId(5)),
                ];
            }
            reply
        })
        .collect()
}

fn bare_reply(payload: ReplyPayload) -> PartitionReply {
    PartitionReply {
        epoch: 0,
        outbox: Vec::new(),
        net: Vec::new(),
        payload,
        homes: Vec::new(),
    }
}

fn request_bytes(op: &PartitionOp) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request(0x0102_0304_0506_0708, op, &mut out);
    out
}

/// A record's bytes: its `Apply` request minus the 8-byte floor and the
/// 1-byte op tag.
fn record_bytes(rec: &LogRecord) -> Vec<u8> {
    request_bytes(&PartitionOp::Apply(rec.clone()))[9..].to_vec()
}

/// An uplink's bytes: its journal record minus the tag and sender.
fn uplink_bytes(msg: &Uplink) -> Vec<u8> {
    record_bytes(&LogRecord::Uplink {
        from: 0,
        msg: msg.clone(),
    })[5..]
        .to_vec()
}

/// A cluster message's bytes: its journal record minus the tag.
fn cluster_bytes(msg: &ClusterMsg) -> Vec<u8> {
    record_bytes(&LogRecord::Cluster(msg.clone()))[1..].to_vec()
}

/// A downlink's bytes: a reply holding it as the one unicast, minus the
/// epoch, both counts, the action tag and node, and the `Unit` payload and
/// empty home list behind it.
fn downlink_bytes(msg: &Downlink) -> Vec<u8> {
    let mut reply = bare_reply(ReplyPayload::Unit);
    reply.net = vec![NetAction::Unicast {
        node: 0,
        msg: msg.clone(),
    }];
    let mut out = Vec::new();
    encode_reply(&reply, &mut out);
    out[8 + 4 + 4 + 1 + 4..out.len() - 2].to_vec()
}

/// Partition 0 of 2 on a 4 x 4 grid, holding a FOT row, an SQT row with a
/// result member and an expiry, RQI rows, a pending install and a stub.
fn small_server() -> Server {
    let universe = Rect::new(0.0, 0.0, 40.0, 40.0);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 10.0)));
    let table = Arc::new(PartitionTable::new(vec![0, 8, 16]));
    let scope = PartitionScope::new(0, table, Arc::new(AtomicU64::new(0)));
    let mut server = Server::new(config).with_scope(scope);
    let mut net = Net::new(BaseStationLayout::new(universe, 20.0));
    let at = |x, y| LinearMotion::new(Point::new(x, y), Vec2::new(0.5, 0.25), 30.0);
    let setup = [
        LogRecord::SetTime(30.0),
        LogRecord::RefreshFocalMotion {
            oid: ObjectId(3),
            motion: at(5.0, 5.0),
            max_vel: 0.0625,
            insert: true,
        },
        LogRecord::CompleteInstall {
            qid: QueryId(0),
            focal: ObjectId(3),
            region: QueryRegion::circle(6.0),
            filter: Arc::new(Filter::Eq("kind".into(), PropValue::Text("taxi".into()))),
            expires_at: Some(900.0),
        },
        LogRecord::ResultChange {
            qid: QueryId(0),
            oid: ObjectId(5),
            is_target: true,
        },
        LogRecord::Cluster(ClusterMsg::StubUpdate {
            focal: ObjectId(11),
            motion: at(25.0, 25.0),
            max_vel: 0.0625,
            curr_cell: CellId::new(2, 2),
            mon_region: rect(1, 1, 3, 3),
            old_mon: None,
            spec: spec(7, QueryRegion::rect(4.0, 4.0), Filter::True),
        }),
    ];
    for rec in &setup {
        server.apply(rec, &mut net).expect("setup record applies");
    }
    server.install_query(
        ObjectId(12),
        QueryRegion::circle(3.0),
        Filter::False,
        &mut net,
    );
    server
}

/// One segment holding the `Meta` record and one uplink.
fn segment_bytes() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("mobieyes-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(StoreConfig::new(&dir, 3), Telemetry::new()).expect("open store");
    store.append_record(&LogRecord::Meta {
        partition: 3,
        num_partitions: 4,
    });
    store.append_record(&records()[4]);
    store.flush();
    drop(store);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    let bytes = files
        .iter()
        .flat_map(|f| std::fs::read(f).expect("segment"))
        .collect();
    std::fs::remove_dir_all(&dir).expect("clean up");
    bytes
}

fn name(debug: String) -> String {
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

/// `(label, hex)` of every sample, in a fixed order.
fn encodings() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for m in uplinks() {
        out.push((
            format!("uplink {}", name(format!("{m:?}"))),
            hex(&uplink_bytes(&m)),
        ));
    }
    for m in downlinks() {
        let label = format!("downlink {}", name(format!("{m:?}")));
        out.push((label, hex(&downlink_bytes(&m))));
    }
    for m in cluster_msgs() {
        let label = format!("cluster {}", name(format!("{m:?}")));
        out.push((label, hex(&cluster_bytes(&m))));
    }
    for r in records() {
        out.push((
            format!("record {}", name(format!("{r:?}"))),
            hex(&record_bytes(&r)),
        ));
    }
    for op in ops() {
        let label = format!("request {}", name(format!("{op:?}")));
        out.push((label, hex(&request_bytes(&op))));
    }
    for r in replies() {
        let label = format!("reply {}", name(format!("{:?}", r.payload)));
        let mut bytes = Vec::new();
        encode_reply(&r, &mut bytes);
        out.push((label, hex(&bytes)));
    }
    out.push(("checkpoint".into(), hex(&small_server().checkpoint_bytes())));
    out.push(("segment".into(), hex(&segment_bytes())));
    out
}

#[test]
fn every_format_encodes_to_its_golden_bytes() {
    let got = encodings();
    let mismatched: Vec<&str> = got
        .iter()
        .zip(GOLDEN)
        .filter(|((label, hex), (l, h))| label != l || hex != h)
        .map(|((label, _), _)| label.as_str())
        .collect();
    assert!(mismatched.is_empty(), "bytes moved: {mismatched:?}");
    assert_eq!(got.len(), GOLDEN.len(), "a sample was added or dropped");
}

const GOLDEN: &[(&str, &str)] = &[
    ("uplink VelocityReport", "000700000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840"),
    ("uplink CellChange", "01080000000100000002000000020000000200000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840"),
    ("uplink ResultUpdate", "0209000000020001000000010200000000"),
    ("uplink GroupResultUpdate", "030a0000000b0000000b000000000000000200000000000000"),
    ("uplink PositionReply", "040c00000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f"),
    ("uplink Resync", "050d000000040000000700000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f01"),
    ("uplink LqtSync", "060f000000020003000000010900000000"),
    ("downlink QueryState", "000300000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f01000000020000000400000005000000030001000000012900000000000000000000000000000c400002000000022a00000000000000010000000000000040000000000000f03f06070301006e00f9ffffffffffffff0301007701000000000000044008060304006b696e6402040074617869070302006f6e03010702000000000000e83fefcdab896745230106040500737065656400000000000008400504006c6f6164000000000000f8bf03000000032b0000000000000000000000000000f03f01"),
    ("downlink VelocityChange", "010300000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840060000000000000002000100000002000000"),
    ("downlink NewQueries", "0201000300000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f01000000020000000400000005000000030001000000012900000000000000000000000000000c400002000000022a00000000000000010000000000000040000000000000f03f06070301006e00f9ffffffffffffff0301007701000000000000044008060304006b696e6402040074617869070302006f6e03010702000000000000e83fefcdab896745230106040500737065656400000000000008400504006c6f6164000000000000f8bf03000000032b0000000000000000000000000000f03f01"),
    ("downlink RemoveQuery", "032a0000001100000000000000"),
    ("downlink FocalNotify", "0401"),
    ("downlink PositionRequest", "05"),
    ("downlink ResultDelta", "06090000004d00000001"),
    ("downlink Heartbeat", "07630000000000000002000100000002000000adde0000000000000300000004000000efbe000000000000"),
    ("downlink CellSync", "080500000006000000150000000000000001000300000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f01000000020000000400000005000000030001000000012900000000000000000000000000000c400002000000022a00000000000000010000000000000040000000000000f03f06070301006e00f9ffffffffffffff0301007701000000000000044008060304006b696e6402040074617869070302006f6e03010702000000000000e83fefcdab896745230106040500737065656400000000000008400504006c6f6164000000000000f8bf03000000032b0000000000000000000000000000f03f01"),
    ("cluster MigrateFocal", "000900000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f09000000000000000000000000005e402100000000000000020005000000052d000000000000000000000000000004400505007370656564000000000000f83f030000000400000002000000030000000500000006000000010000000000c082400200010000000800000005000000052d000000000000000000000000000004400505007370656564000000000000f83f030000000400000002000000030000000500000006000000000000"),
    ("cluster StubUpdate", "010900000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f030000000400000002000000030000000500000006000000010100000002000000040000000500000005000000052d0000000000000001000000000000f83f000000000000e03f00"),
    ("cluster StubMotion", "020900000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f0200050000001600000000000000060000001700000000000000"),
    ("cluster StubRemove", "0305000000020000000300000005000000060000002800000000000000"),
    ("cluster RebalanceCells", "0403000000000000002c000000000000000200110000000200050000000600000012000000000001000900000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f0200000003000000050000000600000006000000062e0000000000000000000000000000f03f00"),
    ("cluster RecoverCells", "05040000000000000032000000000000000300110000001200000013000000"),
    ("record Meta", "000100000004000000"),
    ("record Floor", "014d00000000000000"),
    ("record SetTime", "020000000000805640"),
    ("record Heartbeat", "030000000000005e40"),
    ("record Uplink", "0407000000000700000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840"),
    ("record InstallQuery", "0502000000030000000000000000000010400405007370656564000000000000084000"),
    ("record CompleteInstall", "060600000007000000010000000000001040000000000000004005050073706565640000000000000040010000000000c07240"),
    ("record RemoveQuery", "0706000000"),
    ("record UpdateRegion", "0801000000000000000000000040"),
    ("record RenewLease", "0907000000"),
    ("record VelocityReport", "0a0800000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840"),
    ("record CellChangeFocal", "0b09000000020000000300000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840"),
    ("record CellChangeFresh", "0c090000000100000003000000020000000300000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840"),
    ("record ResultChange", "0d010000000200000001"),
    ("record GroupResultUpdate", "0e030000000400000005000000000000000100000000000000"),
    ("record RefreshFocalMotion", "0f0500000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840000000000000b03f01"),
    ("record PurgeObject", "1007000000"),
    ("record ResultDelta", "11060000000700000000"),
    ("record LqtReconcile", "12060000000700000001"),
    ("record FocalReassert", "1307000000"),
    ("record CellSyncReply", "14070000000400000004000000"),
    ("record ExtractFocal", "1507000000"),
    ("record Cluster", "160306000000000000000000000002000000020000000500000000000000"),
    ("record ExportCells", "170700000000000000030000000c0000000d00000011000000"),
    ("record PruneStubs", "18"),
    ("record BumpEpoch", "19"),
    ("record Bounds", "1a07000000000000000300000000000000000000000c000000000000001800000000000000"),
    ("record Checkpoint", "1b03000000abcdef"),
    ("request Init", "080706050403020100000000000000000000000000000000000000000000005940000000000000544000000000000014400000000000002440000000000000d03f01010001000000000000b03f0000000000005e400000000000004e40020000000400000001080073746f72652f703201"),
    ("request Apply", "0807060504030201010907000000"),
    ("request Shutdown", "080706050403020102"),
    ("request ExpiredQueryIds", "0807060504030201030000000000005e40"),
    ("request ExpiredLeases", "080706050403020104"),
    ("request ReinstallInfo", "08070605040302010506000000"),
    ("request DigestCells", "080706050403020106"),
    ("request CurrentEpoch", "080706050403020107"),
    ("request QueryIds", "080706050403020108"),
    ("request QueryResult", "08070605040302010906000000"),
    ("request QueryFocal", "08070605040302010a06000000"),
    ("request FocalMotion", "08070605040302010b07000000"),
    ("request FocalQueries", "08070605040302010c07000000"),
    ("request ObjectMemberships", "08070605040302010d07000000"),
    ("request QueryCell", "08070605040302010e06000000"),
    ("request CheckInvariants", "08070605040302010f"),
    ("request FocalIds", "080706050403020110"),
    ("request FocalAnchorCell", "08070605040302011107000000"),
    ("request Checkpoint", "080706050403020112"),
    ("request Trajectory", "080706050403020113070000000000000000003e400000000000006e40"),
    ("request LoadSignal", "080706050403020114"),
    ("reply Unit", "090000000000000001000000010000000303000000010000000100000002000000020000000400000000000000020000000007000000050103000000040100040007000000010800000002060000000305000000"),
    ("reply Bool", "0a000000000000000000000000000000010100"),
    ("reply U64", "0b000000000000000000000000000000022a0000000000000000"),
    ("reply Qids", "0c0000000000000000000000000000000302000000010000000900000000"),
    ("reply OptQids", "0d0000000000000000000000000000000401010000000300000000"),
    ("reply OptCluster", "0e0000000000000000000000000000000501050100000000000000020000000000000001000500000000"),
    ("reply OptMotion", "0f000000000000000000000000000000060100000000000029400000000000000ac0000000000000c03f000000000000e0bf000000000000584000"),
    ("reply OptCell", "100000000000000000000000000000000701010000000200000000"),
    ("reply OptOid", "11000000000000000000000000000000080000"),
    ("reply Digests", "1200000000000000000000000000000009010000000000000001000000edfe00000000000000"),
    ("reply Leases", "130000000000000000000000000000000a02000000040000000100000001000000090000000000000000"),
    ("reply Reinstall", "140000000000000000000000000000000b01010000000000000040000000000000084000010000000000407f4000"),
    ("reply ResultSet", "150000000000000000000000000000000c0102000000010000000200000000"),
    ("reply Oids", "160000000000000000000000000000000d02000000030000000800000000"),
    ("reply Motions", "170000000000000000000000000000000e0100000000000000000029400000000000000ac0000000000000c03f000000000000e0bf000000000000584000"),
    ("reply Load", "180000000000000000000000000000000f030000000000000005000000000000000b0000000000000000"),
    ("checkpoint", "0100000001000000000000000000000000003e40000000000000f0ff010000000300000000000000000014400000000000001440000000000000e03f000000000000d03f0000000000003e40000000000000b03f01000000000000000000000000003e4001000000000000000100000000000000030000000000000000000018400304006b696e6402040074617869000000000000000000000000000000000100000001000000000100000000000000010000000000208c4001000000050000000600000000000000010000000000000001000000010000000000000004000000010000000000000005000000020000000000000007000000060000000100000007000000070000000100000007000000010000000c0000000100000000000000000000000000000840010001000000070000000b00000000000000000039400000000000003940000000000000e03f000000000000d03f0000000000003e40000000000000b03f01000000010000000300000003000000010000000000001040000000000000104000072f000000000000000100000000000000"),
    ("segment", "5453454d0100000003000000000000000000000009000000096102c80000000000000000000300000004000000320000004dd1cc6501000000000000000407000000000700000000000000000029400000000000000ac0000000000000c03f000000000000e0bf0000000000005840"),
];
