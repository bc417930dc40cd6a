//! Journal codec property tests: every [`LogRecord`] variant must
//! round-trip exactly through the binary log encoding, and the decoder —
//! which reads crash-recovered disk input — must reject truncated or
//! corrupted frames with an error, never a panic.
//!
//! Uses a seeded splitmix64 sweep so every run checks the same cases.

use mobieyes_core::codec::Reader;
use mobieyes_core::journal::{decode_record, record_bytes, LogRecord};
use mobieyes_core::server::Net;
use mobieyes_core::{
    ClusterMsg, Filter, ObjectId, PropValue, ProtocolConfig, QueryId, QueryMigration, QuerySpec,
    Server, Uplink,
};
use mobieyes_geo::{CellId, Grid, GridRect, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::BaseStationLayout;
use std::sync::Arc;

/// Deterministic splitmix64 generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn rand_motion(rng: &mut Rng) -> LinearMotion {
    LinearMotion::new(
        Point::new(rng.range(-1e3, 1e3), rng.range(-1e3, 1e3)),
        Vec2::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0)),
        rng.range(0.0, 1e6),
    )
}

fn rand_key(rng: &mut Rng) -> String {
    let len = 1 + rng.below(8);
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

fn rand_prop_value(rng: &mut Rng) -> PropValue {
    match rng.below(4) {
        0 => PropValue::Int(rng.next_u64() as i64),
        1 => PropValue::Float(rng.range(-1e6, 1e6)),
        2 => PropValue::Text(rand_key(rng)),
        _ => PropValue::Bool(rng.coin()),
    }
}

fn rand_filter(rng: &mut Rng, depth: u32) -> Filter {
    let pick = if depth == 0 {
        rng.below(6)
    } else {
        rng.below(9)
    };
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
        6 => Filter::And(
            Box::new(rand_filter(rng, depth - 1)),
            Box::new(rand_filter(rng, depth - 1)),
        ),
        7 => Filter::Or(
            Box::new(rand_filter(rng, depth - 1)),
            Box::new(rand_filter(rng, depth - 1)),
        ),
        _ => Filter::Not(Box::new(rand_filter(rng, depth - 1))),
    }
}

fn rand_region(rng: &mut Rng) -> QueryRegion {
    if rng.coin() {
        QueryRegion::circle(rng.range(0.0, 50.0))
    } else {
        QueryRegion::rect(rng.range(0.0, 50.0), rng.range(0.0, 50.0))
    }
}

fn rand_cell(rng: &mut Rng) -> CellId {
    CellId::new(rng.below(100) as u32, rng.below(100) as u32)
}

fn rand_grid_rect(rng: &mut Rng) -> GridRect {
    let x0 = rng.below(100) as u32;
    let y0 = rng.below(100) as u32;
    GridRect {
        x0,
        y0,
        x1: x0 + rng.below(10) as u32,
        y1: y0 + rng.below(10) as u32,
    }
}

fn rand_spec(rng: &mut Rng) -> QuerySpec {
    QuerySpec {
        qid: QueryId(rng.next_u64() as u32),
        region: rand_region(rng),
        filter: Arc::new(rand_filter(rng, 3)),
        slot: rng.next_u64() as u8,
        seq: rng.next_u64(),
    }
}

fn rand_uplink(rng: &mut Rng) -> Uplink {
    match rng.below(7) {
        0 => Uplink::VelocityReport {
            oid: ObjectId(rng.next_u64() as u32),
            motion: rand_motion(rng),
        },
        1 => Uplink::CellChange {
            oid: ObjectId(rng.next_u64() as u32),
            prev_cell: rand_cell(rng),
            new_cell: rand_cell(rng),
            motion: rand_motion(rng),
        },
        2 => Uplink::ResultUpdate {
            oid: ObjectId(rng.next_u64() as u32),
            changes: (0..rng.below(20))
                .map(|_| (QueryId(rng.next_u64() as u32), rng.coin()))
                .collect(),
        },
        3 => Uplink::GroupResultUpdate {
            oid: ObjectId(rng.next_u64() as u32),
            focal: ObjectId(rng.next_u64() as u32),
            mask: rng.next_u64(),
            targets: rng.next_u64(),
        },
        4 => Uplink::PositionReply {
            oid: ObjectId(rng.next_u64() as u32),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
        },
        5 => Uplink::Resync {
            oid: ObjectId(rng.next_u64() as u32),
            cell: rand_cell(rng),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            fresh: rng.coin(),
        },
        _ => Uplink::LqtSync {
            oid: ObjectId(rng.next_u64() as u32),
            entries: (0..rng.below(20))
                .map(|_| (QueryId(rng.next_u64() as u32), rng.coin()))
                .collect(),
        },
    }
}

fn rand_migration(rng: &mut Rng) -> QueryMigration {
    QueryMigration {
        spec: rand_spec(rng),
        curr_cell: rand_cell(rng),
        mon_region: rand_grid_rect(rng),
        expires_at: rng.coin().then(|| rng.range(0.0, 1e6)),
        result: (0..rng.below(20))
            .map(|_| ObjectId(rng.next_u64() as u32))
            .collect(),
    }
}

fn rand_cluster(rng: &mut Rng) -> ClusterMsg {
    match rng.below(4) {
        0 => ClusterMsg::MigrateFocal {
            oid: ObjectId(rng.next_u64() as u32),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            used_slots: rng.next_u64(),
            last_heard: rng.range(0.0, 1e6),
            epoch: rng.next_u64(),
            queries: (0..rng.below(5)).map(|_| rand_migration(rng)).collect(),
        },
        1 => ClusterMsg::StubUpdate {
            focal: ObjectId(rng.next_u64() as u32),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            curr_cell: rand_cell(rng),
            mon_region: rand_grid_rect(rng),
            old_mon: rng.coin().then(|| rand_grid_rect(rng)),
            spec: rand_spec(rng),
        },
        2 => ClusterMsg::StubMotion {
            focal: ObjectId(rng.next_u64() as u32),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            qids: (0..rng.below(20))
                .map(|_| (QueryId(rng.next_u64() as u32), rng.next_u64()))
                .collect(),
        },
        _ => ClusterMsg::StubRemove {
            qid: QueryId(rng.next_u64() as u32),
            mon_region: rand_grid_rect(rng),
            epoch: rng.next_u64(),
        },
    }
}

/// One random record of the given tag, so the sweep covers every variant
/// explicitly instead of sampling.
fn rand_record(rng: &mut Rng, tag: u64) -> LogRecord {
    match tag {
        0 => LogRecord::Meta {
            partition: rng.next_u64() as u32,
            num_partitions: rng.next_u64() as u32,
        },
        1 => LogRecord::Floor(rng.next_u64()),
        2 => LogRecord::SetTime(rng.range(0.0, 1e6)),
        3 => LogRecord::Heartbeat(rng.range(0.0, 1e6)),
        4 => LogRecord::Uplink {
            from: rng.next_u64() as u32,
            msg: rand_uplink(rng),
        },
        5 => LogRecord::InstallQuery {
            qid: QueryId(rng.next_u64() as u32),
            focal: ObjectId(rng.next_u64() as u32),
            region: rand_region(rng),
            filter: rand_filter(rng, 3),
            expires_at: rng.coin().then(|| rng.range(0.0, 1e6)),
        },
        6 => LogRecord::CompleteInstall {
            qid: QueryId(rng.next_u64() as u32),
            focal: ObjectId(rng.next_u64() as u32),
            region: rand_region(rng),
            filter: rand_filter(rng, 3).into(),
            expires_at: rng.coin().then(|| rng.range(0.0, 1e6)),
        },
        7 => LogRecord::RemoveQuery(QueryId(rng.next_u64() as u32)),
        8 => LogRecord::UpdateRegion {
            qid: QueryId(rng.next_u64() as u32),
            region: rand_region(rng),
        },
        9 => LogRecord::RenewLease(ObjectId(rng.next_u64() as u32)),
        10 => LogRecord::VelocityReport {
            oid: ObjectId(rng.next_u64() as u32),
            motion: rand_motion(rng),
        },
        11 => LogRecord::CellChangeFocal {
            oid: ObjectId(rng.next_u64() as u32),
            new_cell: rand_cell(rng),
            motion: rand_motion(rng),
        },
        12 => LogRecord::CellChangeFresh {
            oid: ObjectId(rng.next_u64() as u32),
            prev_cell: rand_cell(rng),
            new_cell: rand_cell(rng),
            motion: rand_motion(rng),
        },
        13 => LogRecord::ResultChange {
            qid: QueryId(rng.next_u64() as u32),
            oid: ObjectId(rng.next_u64() as u32),
            is_target: rng.coin(),
        },
        14 => LogRecord::GroupResultUpdate {
            oid: ObjectId(rng.next_u64() as u32),
            focal: ObjectId(rng.next_u64() as u32),
            mask: rng.next_u64(),
            targets: rng.next_u64(),
        },
        15 => LogRecord::RefreshFocalMotion {
            oid: ObjectId(rng.next_u64() as u32),
            motion: rand_motion(rng),
            max_vel: rng.range(0.0, 0.1),
            insert: rng.coin(),
        },
        16 => LogRecord::PurgeObject(ObjectId(rng.next_u64() as u32)),
        17 => LogRecord::ResultDelta {
            qid: QueryId(rng.next_u64() as u32),
            oid: ObjectId(rng.next_u64() as u32),
            entered: rng.coin(),
        },
        18 => LogRecord::LqtReconcile {
            qid: QueryId(rng.next_u64() as u32),
            oid: ObjectId(rng.next_u64() as u32),
            is_target: rng.coin(),
        },
        19 => LogRecord::FocalReassert(ObjectId(rng.next_u64() as u32)),
        20 => LogRecord::CellSyncReply {
            oid: ObjectId(rng.next_u64() as u32),
            cell: rand_cell(rng),
        },
        21 => LogRecord::ExtractFocal(ObjectId(rng.next_u64() as u32)),
        22 => LogRecord::Cluster(rand_cluster(rng)),
        23 => LogRecord::ExportCells {
            flats: (0..rng.below(30)).map(|_| rng.next_u64() as u32).collect(),
            generation: rng.next_u64(),
        },
        24 => LogRecord::PruneStubs,
        25 => LogRecord::BumpEpoch,
        26 => LogRecord::Bounds {
            generation: rng.next_u64(),
            bounds: (0..rng.below(10)).map(|_| rng.next_u64()).collect(),
        },
        _ => LogRecord::Checkpoint((0..rng.below(300)).map(|_| rng.next_u64() as u8).collect()),
    }
}

const NUM_TAGS: u64 = 28;

#[test]
fn every_variant_roundtrips() {
    let mut rng = Rng(0x5eed_10c4_0001);
    for case in 0..NUM_TAGS * 32 {
        let rec = rand_record(&mut rng, case % NUM_TAGS);
        let bytes = record_bytes(&rec);
        let mut buf = Reader::new(&bytes);
        let decoded = decode_record(&mut buf).expect("decodes");
        assert_eq!(decoded, rec, "case {case}");
        assert_eq!(buf.remaining(), 0, "case {case}: trailing bytes");
    }
}

/// Every strict prefix of a valid encoding must error cleanly — a torn
/// write hands the reader exactly this shape of input.
#[test]
fn truncation_never_panics_and_always_errors() {
    let mut rng = Rng(0x5eed_10c4_0002);
    for tag in 0..NUM_TAGS {
        let rec = rand_record(&mut rng, tag);
        let bytes = record_bytes(&rec);
        for cut in 0..bytes.len() {
            let mut buf = Reader::new(&bytes[..cut]);
            match decode_record(&mut buf) {
                // Some prefixes decode as a shorter valid record (e.g. a
                // collection cut between elements); that is the frame
                // CRC's job to reject, not the codec's. It must still
                // consume only what it parsed.
                Ok(_) => assert!(buf.remaining() <= cut),
                Err(e) => assert!(!e.0.is_empty()),
            }
        }
    }
}

/// Single-byte corruption anywhere in a record must never panic the
/// decoder (CRC catches it in the store; the codec just must survive).
#[test]
fn corruption_never_panics() {
    let mut rng = Rng(0x5eed_10c4_0003);
    for tag in 0..NUM_TAGS {
        let rec = rand_record(&mut rng, tag);
        let bytes = record_bytes(&rec);
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut b = bytes.clone();
                b[pos] ^= flip;
                let _ = decode_record(&mut Reader::new(&b));
            }
        }
    }
}

/// Pure garbage — including oversized length prefixes — must error, not
/// panic or allocate unboundedly.
#[test]
fn garbage_never_panics() {
    let mut rng = Rng(0x5eed_10c4_0004);
    for _ in 0..512 {
        let data: Vec<u8> = (0..rng.below(200)).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_record(&mut Reader::new(&data));
    }
    // Adversarial length prefixes on the collection-bearing tags.
    for tag in [23u8, 26, 27] {
        let mut data = vec![tag];
        data.extend_from_slice(&u64::MAX.to_le_bytes()); // generation / size field
        data.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
        let err = decode_record(&mut Reader::new(&data));
        assert!(err.is_err(), "tag {tag} accepted an absurd length prefix");
    }
}

/// A server must survive `restore_checkpoint` on arbitrary bytes without
/// panicking, and reject them without mutating its state.
#[test]
fn restore_checkpoint_rejects_garbage_untouched() {
    let universe = Rect::new(0.0, 0.0, 60.0, 60.0);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 8.0)));
    let mut net = Net::new(BaseStationLayout::new(universe, 15.0));
    let mut server = Server::new(Arc::clone(&config));
    server.install_query(
        ObjectId(1),
        QueryRegion::circle(5.0),
        Filter::True,
        &mut net,
    );
    let digest = server.state_digest();

    let mut rng = Rng(0x5eed_10c4_0005);
    for _ in 0..256 {
        let data: Vec<u8> = (0..rng.below(300)).map(|_| rng.next_u64() as u8).collect();
        if server.restore_checkpoint(&data).is_ok() {
            // Vanishingly unlikely, but then state legitimately changed.
            continue;
        }
        assert_eq!(
            server.state_digest(),
            digest,
            "failed restore mutated state"
        );
    }

    // And a genuine image round-trips into a twin.
    let image = server.checkpoint_bytes();
    let mut twin = Server::new(config);
    twin.restore_checkpoint(&image)
        .expect("valid image restores");
    assert_eq!(twin.state_digest(), digest);
}
