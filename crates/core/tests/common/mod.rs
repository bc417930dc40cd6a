//! Shared by the format property tests: one seeded generator per wire
//! type, and [`check_format`], the one property every byte format must
//! hold. The server property tests take [`extract_focal`] and
//! [`deliver_cluster_msg`] from here.

#![allow(dead_code)]

use mobieyes_core::codec::{encoded_len, to_bytes, Reader, Wire};
use mobieyes_core::journal::{LogRecord, ReplyPayload};
use mobieyes_core::server::Net;
use mobieyes_core::{
    CellDigests, ClusterMsg, Downlink, Filter, ObjectId, PropValue, QueryGroupInfo, QueryId,
    QueryMigration, QuerySpec, Server, StubSeed, Uplink,
};
use mobieyes_geo::{CellId, GridRect, LinearMotion, Point, QueryRegion, Vec2};
use std::fmt::Debug;
use std::sync::Arc;

/// Deterministic splitmix64 generator.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn id(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn count(&mut self, max: u64) -> std::ops::Range<u64> {
        0..self.below(max + 1)
    }
}

pub fn rand_motion(rng: &mut Rng) -> LinearMotion {
    LinearMotion::new(
        Point::new(rng.range(-1e3, 1e3), rng.range(-1e3, 1e3)),
        Vec2::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)),
        rng.range(0.0, 1e6),
    )
}

/// Lowercase ASCII of `min..=max` characters.
fn rand_text(rng: &mut Rng, min: u64, max: u64) -> String {
    let len = min + rng.below(max - min + 1);
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

pub fn rand_key(rng: &mut Rng) -> String {
    rand_text(rng, 1, 8)
}

pub fn rand_prop_value(rng: &mut Rng) -> PropValue {
    match rng.below(4) {
        0 => PropValue::Int(rng.next_u64() as i64),
        1 => PropValue::Float(rng.range(-1e6, 1e6)),
        2 => PropValue::Text(rand_text(rng, 0, 12)),
        _ => PropValue::Bool(rng.coin()),
    }
}

pub fn rand_filter(rng: &mut Rng, depth: u32) -> Filter {
    let pick = if depth == 0 {
        rng.below(6)
    } else {
        rng.below(9)
    };
    let sub = |rng: &mut Rng| Box::new(rand_filter(rng, depth - 1));
    match pick {
        0 => Filter::True,
        1 => Filter::False,
        2 => Filter::Selectivity {
            selectivity: rng.unit(),
            salt: rng.next_u64(),
        },
        3 => Filter::Eq(rand_key(rng), rand_prop_value(rng)),
        4 => Filter::Lt(rand_key(rng), rng.range(-100.0, 100.0)),
        5 => Filter::Gt(rand_key(rng), rng.range(-100.0, 100.0)),
        6 => Filter::And(sub(rng), sub(rng)),
        7 => Filter::Or(sub(rng), sub(rng)),
        _ => Filter::Not(sub(rng)),
    }
}

pub fn rand_region(rng: &mut Rng) -> QueryRegion {
    if rng.coin() {
        QueryRegion::circle(rng.range(0.0, 50.0))
    } else {
        QueryRegion::rect(rng.range(0.0, 50.0), rng.range(0.0, 50.0))
    }
}

pub fn rand_cell(rng: &mut Rng) -> CellId {
    CellId::new(rng.below(100) as u32, rng.below(100) as u32)
}

pub fn rand_grid_rect(rng: &mut Rng) -> GridRect {
    let x0 = rng.below(100) as u32;
    let y0 = rng.below(100) as u32;
    GridRect {
        x0,
        y0,
        x1: x0 + rng.below(10) as u32,
        y1: y0 + rng.below(10) as u32,
    }
}

pub fn rand_spec(rng: &mut Rng) -> QuerySpec {
    QuerySpec {
        qid: QueryId(rng.id()),
        region: rand_region(rng),
        filter: Arc::new(rand_filter(rng, 3)),
        slot: rng.next_u64() as u8,
        seq: rng.next_u64(),
    }
}

pub fn rand_group_info(rng: &mut Rng) -> QueryGroupInfo {
    QueryGroupInfo {
        focal: ObjectId(rng.id()),
        motion: rand_motion(rng),
        max_vel: rng.range(0.0, 0.1),
        mon_region: rand_grid_rect(rng),
        queries: Arc::new(rng.count(4).map(|_| rand_spec(rng)).collect()),
    }
}

fn rand_flags(rng: &mut Rng) -> Vec<(QueryId, bool)> {
    rng.count(19)
        .map(|_| (QueryId(rng.id()), rng.coin()))
        .collect()
}

pub fn rand_uplink(rng: &mut Rng) -> Uplink {
    let oid = ObjectId(rng.id());
    match rng.below(7) {
        0 => Uplink::VelocityReport {
            oid,
            motion: rand_motion(rng),
        },
        1 => Uplink::CellChange {
            oid,
            prev_cell: rand_cell(rng),
            new_cell: rand_cell(rng),
            motion: rand_motion(rng),
        },
        2 => Uplink::ResultUpdate {
            oid,
            changes: rand_flags(rng),
        },
        3 => Uplink::GroupResultUpdate {
            oid,
            focal: ObjectId(rng.id()),
            mask: rng.next_u64(),
            targets: rng.next_u64(),
        },
        4 => Uplink::PositionReply {
            oid,
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
        },
        5 => Uplink::Resync {
            oid,
            cell: rand_cell(rng),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            fresh: rng.coin(),
        },
        _ => Uplink::LqtSync {
            oid,
            entries: rand_flags(rng),
        },
    }
}

pub fn rand_downlink(rng: &mut Rng) -> Downlink {
    match rng.below(9) {
        0 => Downlink::QueryState {
            info: rand_group_info(rng),
        },
        1 => Downlink::VelocityChange {
            focal: ObjectId(rng.id()),
            motion: rand_motion(rng),
            qids: rng.count(19).map(|_| QueryId(rng.id())).collect(),
            seq: rng.next_u64(),
        },
        2 => Downlink::NewQueries {
            infos: rng.count(2).map(|_| rand_group_info(rng)).collect(),
        },
        3 => Downlink::RemoveQuery {
            qid: QueryId(rng.id()),
            epoch: rng.next_u64(),
        },
        4 => Downlink::FocalNotify {
            is_focal: rng.coin(),
        },
        5 => Downlink::PositionRequest,
        6 => Downlink::ResultDelta {
            qid: QueryId(rng.id()),
            object: ObjectId(rng.id()),
            entered: rng.coin(),
        },
        7 => Downlink::Heartbeat {
            epoch: rng.next_u64(),
            cell_digests: CellDigests::new(
                rng.count(11)
                    .map(|_| (rand_cell(rng), rng.next_u64()))
                    .collect(),
            ),
        },
        _ => Downlink::CellSync {
            cell: rand_cell(rng),
            epoch: rng.next_u64(),
            infos: rng.count(2).map(|_| rand_group_info(rng)).collect(),
        },
    }
}

pub fn rand_migration(rng: &mut Rng) -> QueryMigration {
    QueryMigration {
        spec: rand_spec(rng),
        curr_cell: rand_cell(rng),
        mon_region: rand_grid_rect(rng),
        expires_at: rng.coin().then(|| rng.range(0.0, 1e6)),
        result: rng.count(19).map(|_| ObjectId(rng.id())).collect(),
    }
}

pub fn rand_cluster(rng: &mut Rng) -> ClusterMsg {
    match rng.below(6) {
        0 => ClusterMsg::MigrateFocal {
            oid: ObjectId(rng.id()),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            used_slots: rng.next_u64(),
            last_heard: rng.range(0.0, 1e6),
            epoch: rng.next_u64(),
            queries: rng.count(4).map(|_| rand_migration(rng)).collect(),
        },
        1 => ClusterMsg::StubUpdate {
            focal: ObjectId(rng.id()),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            curr_cell: rand_cell(rng),
            mon_region: rand_grid_rect(rng),
            old_mon: rng.coin().then(|| rand_grid_rect(rng)),
            spec: rand_spec(rng),
        },
        2 => ClusterMsg::StubMotion {
            focal: ObjectId(rng.id()),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            qids: rng
                .count(19)
                .map(|_| (QueryId(rng.id()), rng.next_u64()))
                .collect(),
        },
        3 => ClusterMsg::StubRemove {
            qid: QueryId(rng.id()),
            mon_region: rand_grid_rect(rng),
            epoch: rng.next_u64(),
        },
        4 => ClusterMsg::RebalanceCells {
            generation: rng.next_u64(),
            epoch: rng.next_u64(),
            cells: rng
                .count(5)
                .map(|_| {
                    let qids = rng.count(4).map(|_| QueryId(rng.id())).collect();
                    (rng.id(), qids)
                })
                .collect(),
            stubs: rng
                .count(3)
                .map(|_| StubSeed {
                    focal: ObjectId(rng.id()),
                    motion: rand_motion(rng),
                    max_vel: rng.range(0.0, 0.1),
                    mon_region: rand_grid_rect(rng),
                    spec: rand_spec(rng),
                })
                .collect(),
        },
        _ => ClusterMsg::RecoverCells {
            generation: rng.next_u64(),
            epoch: rng.next_u64(),
            cells: rng.count(19).map(|_| rng.id()).collect(),
        },
    }
}

/// Journal record tags: `0..NUM_TAGS`.
pub const NUM_TAGS: u64 = 28;

/// One random record of the given tag, so a sweep can cover every
/// variant explicitly instead of sampling.
pub fn rand_record(rng: &mut Rng, tag: u64) -> LogRecord {
    let qid = QueryId(rng.id());
    let oid = ObjectId(rng.id());
    match tag {
        0 => LogRecord::Meta {
            partition: rng.id(),
            num_partitions: rng.id(),
        },
        1 => LogRecord::Floor(rng.next_u64()),
        2 => LogRecord::SetTime(rng.range(0.0, 1e6)),
        3 => LogRecord::Heartbeat(rng.range(0.0, 1e6)),
        4 => LogRecord::Uplink {
            from: rng.id(),
            msg: rand_uplink(rng),
        },
        5 => LogRecord::InstallQuery {
            qid,
            focal: oid,
            region: rand_region(rng),
            filter: rand_filter(rng, 3),
            expires_at: rng.coin().then(|| rng.range(0.0, 1e6)),
        },
        6 => LogRecord::CompleteInstall {
            qid,
            focal: oid,
            region: rand_region(rng),
            filter: rand_filter(rng, 3).into(),
            expires_at: rng.coin().then(|| rng.range(0.0, 1e6)),
        },
        7 => LogRecord::RemoveQuery(qid),
        8 => LogRecord::UpdateRegion {
            qid,
            region: rand_region(rng),
        },
        9 => LogRecord::RenewLease(oid),
        10 => LogRecord::VelocityReport {
            oid,
            motion: rand_motion(rng),
        },
        11 => LogRecord::CellChangeFocal {
            oid,
            new_cell: rand_cell(rng),
            motion: rand_motion(rng),
        },
        12 => LogRecord::CellChangeFresh {
            oid,
            prev_cell: rand_cell(rng),
            new_cell: rand_cell(rng),
            motion: rand_motion(rng),
        },
        13 => LogRecord::ResultChange {
            qid,
            oid,
            is_target: rng.coin(),
        },
        14 => LogRecord::GroupResultUpdate {
            oid,
            focal: ObjectId(rng.id()),
            mask: rng.next_u64(),
            targets: rng.next_u64(),
        },
        15 => LogRecord::RefreshFocalMotion {
            oid,
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            insert: rng.coin(),
        },
        16 => LogRecord::PurgeObject(oid),
        17 => LogRecord::ResultDelta {
            qid,
            oid,
            entered: rng.coin(),
        },
        18 => LogRecord::LqtReconcile {
            qid,
            oid,
            is_target: rng.coin(),
        },
        19 => LogRecord::FocalReassert(oid),
        20 => LogRecord::CellSyncReply {
            oid,
            cell: rand_cell(rng),
        },
        21 => LogRecord::ExtractFocal(oid),
        22 => LogRecord::Cluster(rand_cluster(rng)),
        23 => LogRecord::ExportCells {
            flats: rng.count(29).map(|_| rng.id()).collect(),
            generation: rng.next_u64(),
        },
        24 => LogRecord::PruneStubs,
        25 => LogRecord::BumpEpoch,
        26 => LogRecord::Bounds {
            generation: rng.next_u64(),
            bounds: rng.count(9).map(|_| rng.next_u64()).collect(),
        },
        _ => LogRecord::Checkpoint(rng.count(299).map(|_| rng.next_u64() as u8).collect()),
    }
}

/// Valid encodings, damaged: random frames, and `seeds` with bytes
/// overwritten, their tail scrambled, or cut short and extended.
pub fn mutations(seeds: &[Vec<u8>], rounds: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    (0..rounds)
        .map(|round| {
            let mut bytes = seeds[round % seeds.len()].clone();
            let at = |rng: &mut Rng, len: usize| rng.below(len.max(1) as u64) as usize;
            match rng.below(4) {
                0 => {
                    bytes = rng.count(95).map(|_| rng.next_u64() as u8).collect();
                }
                1 if !bytes.is_empty() => {
                    for _ in 0..1 + rng.below(4) {
                        let i = at(&mut rng, bytes.len());
                        bytes[i] = rng.next_u64() as u8;
                    }
                }
                2 => {
                    let from = bytes.len().saturating_sub(1 + at(&mut rng, 24));
                    for b in &mut bytes[from..] {
                        *b = rng.next_u64() as u8;
                    }
                }
                _ => {
                    bytes.truncate(at(&mut rng, bytes.len()));
                    bytes.extend(rng.count(7).map(|_| rng.next_u64() as u8));
                }
            }
            bytes
        })
        .collect()
}

/// The property every byte format holds, checked over `samples`:
///
/// - a value decodes from its encoding exactly, consuming all of it;
/// - the counted size ([`encoded_len`], which every `wire_size` is) is
///   the encoded length;
/// - every strict prefix of an encoding errors, or decodes to a value
///   whose own encoding is exactly the bytes it consumed;
/// - seeded mutations of the encodings never panic the decoder, and
///   whatever decodes re-encodes stably.
pub fn check_format<T: Wire + PartialEq + Debug>(samples: &[T], seed: u64) {
    let encodings: Vec<Vec<u8>> = samples.iter().map(to_bytes).collect();
    for (value, bytes) in samples.iter().zip(&encodings) {
        assert_eq!(encoded_len(value), bytes.len(), "counted size of {value:?}");
        let mut buf = Reader::new(bytes);
        assert_eq!(&T::get(&mut buf).expect("decodes"), value);
        assert_eq!(buf.remaining(), 0, "trailing bytes after {value:?}");
        for cut in 0..bytes.len() {
            let mut buf = Reader::new(&bytes[..cut]);
            if let Ok(shorter) = T::get(&mut buf) {
                let consumed = cut - buf.remaining();
                assert_eq!(
                    to_bytes(&shorter),
                    &bytes[..consumed],
                    "prefix of {value:?}"
                );
            }
        }
    }
    for bytes in mutations(&encodings, 4000, seed) {
        if let Ok(value) = T::get(&mut Reader::new(&bytes)) {
            // Compared as bytes: a damaged float may decode to NaN.
            let once = to_bytes(&value);
            let mut buf = Reader::new(&once);
            let again = T::get(&mut buf).expect("a re-encoded value decodes");
            assert_eq!(buf.remaining(), 0);
            assert_eq!(to_bytes(&again), once, "unstable re-encoding of {value:?}");
        }
    }
}

/// What an `ExtractFocal` record answers: `oid`'s migration payload, or
/// `None` when `server` does not home it.
pub fn extract_focal(server: &mut Server, oid: ObjectId, net: &mut Net) -> Option<ClusterMsg> {
    match server.apply(&LogRecord::ExtractFocal(oid), net) {
        Ok(ReplyPayload::OptCluster(msg)) => msg.map(|m| *m),
        other => panic!("ExtractFocal({oid:?}) answered {other:?}"),
    }
}

/// Applies an inter-server message to `server`, as the bus delivers it.
pub fn deliver_cluster_msg(server: &mut Server, msg: &ClusterMsg, net: &mut Net) {
    let rec = LogRecord::Cluster(msg.clone());
    server.apply(&rec, net).expect("a cluster message applies");
}
