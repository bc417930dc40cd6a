//! Journal and checkpoint format properties: every [`LogRecord`] variant
//! and the checkpoint image round-trip exactly, and their decoders — which
//! read crash-recovered disk input — reject truncated or damaged bytes
//! with an error, never a panic ([`common::check_format`]).
//!
//! Uses a seeded splitmix64 sweep so every run checks the same cases.

mod common;

use common::{check_format, mutations, rand_record, Rng, NUM_TAGS};
use mobieyes_core::codec::{DecodeError, Put, Reader, Wire};
use mobieyes_core::journal::{LogRecord, ReplyPayload, VecSink};
use mobieyes_core::server::Net;
use mobieyes_core::{
    ClusterMsg, Filter, ObjectId, PartitionScope, PartitionTable, ProtocolConfig, QueryId,
    QuerySpec, Server, Uplink,
};
use mobieyes_geo::{CellId, Grid, GridRect, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::BaseStationLayout;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn every_record_variant_holds_the_format() {
    let mut rng = Rng(0x5eed_10c4_0001);
    let records: Vec<LogRecord> = (0..NUM_TAGS * 8)
        .map(|case| rand_record(&mut rng, case % NUM_TAGS))
        .collect();
    check_format(&records, 0x5eed_10c4_0003);
}

/// Adversarial length prefixes on the collection-bearing tags must error
/// before allocating.
#[test]
fn absurd_length_prefixes_are_refused() {
    for tag in [23u8, 26, 27] {
        let mut data = vec![tag];
        data.put_slice(&u64::MAX.to_le_bytes()); // generation / size field
        data.put_slice(&u32::MAX.to_le_bytes()); // absurd count
        let err = LogRecord::get(&mut Reader::new(&data));
        assert!(err.is_err(), "tag {tag} accepted an absurd length prefix");
    }
}

fn universe() -> Rect {
    Rect::new(0.0, 0.0, 60.0, 60.0)
}

/// Partition 0 of 2 on a 6 x 6 grid: every image below is cut from, and
/// restored into, a server of this shape.
fn scoped_server() -> Server {
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe(), 10.0)));
    let table = Arc::new(PartitionTable::new(vec![0, 18, 36]));
    let scope = PartitionScope::new(0, table, Arc::new(AtomicU64::new(0)));
    Server::new(config).with_scope(scope)
}

/// Restores `image` into `server` the one way an image arrives: as a
/// checkpoint record.
fn restore(server: &mut Server, image: &[u8]) -> Result<(), DecodeError> {
    let mut net = Net::new(BaseStationLayout::new(universe(), 15.0));
    let rec = LogRecord::Checkpoint(image.to_vec());
    server.apply(&rec, &mut net).map(drop)
}

/// A checkpoint image as a format: decoding restores it into a fresh
/// server and cuts the image again, so an image that decodes is one the
/// server accepted whole.
#[derive(Debug, PartialEq)]
struct Image(Vec<u8>);

impl Wire for Image {
    const MIN_LEN: usize = 0;

    fn put(&self, out: &mut impl Put) {
        out.put_slice(&self.0);
    }

    fn get(buf: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes = buf.take(buf.remaining(), "checkpoint image")?;
        let mut server = scoped_server();
        restore(&mut server, bytes)?;
        Ok(Image(server.checkpoint_bytes()))
    }
}

/// Images of a server growing through every table: FOT rows, queries with
/// results and expiries, RQI rows, pending installs and stubs.
fn images() -> Vec<Image> {
    let mut rng = Rng(0x5eed_10c4_0005);
    let mut server = scoped_server();
    let mut net = Net::new(BaseStationLayout::new(universe(), 15.0));
    let mut images = Vec::new();
    for step in 0..12u32 {
        let at = |rng: &mut Rng| {
            let p = Point::new(rng.range(0.0, 60.0), rng.range(0.0, 30.0));
            LinearMotion::new(p, Vec2::new(0.5, 0.25), f64::from(step))
        };
        let focal = ObjectId(10 + step);
        let records = [
            LogRecord::SetTime(f64::from(step)),
            LogRecord::RefreshFocalMotion {
                oid: focal,
                motion: at(&mut rng),
                max_vel: 0.0625,
                insert: true,
            },
            LogRecord::CompleteInstall {
                qid: QueryId(step),
                focal,
                region: QueryRegion::circle(rng.range(1.0, 12.0)),
                filter: Arc::new(common::rand_filter(&mut rng, 2)),
                expires_at: rng.coin().then(|| 500.0 + f64::from(step)),
            },
            LogRecord::ResultChange {
                qid: QueryId(step),
                oid: ObjectId(rng.below(40) as u32),
                is_target: true,
            },
            LogRecord::Cluster(ClusterMsg::StubUpdate {
                focal: ObjectId(100 + step),
                motion: at(&mut rng),
                max_vel: 0.0625,
                curr_cell: CellId::new(2, 4),
                mon_region: GridRect {
                    x0: 1,
                    y0: 2,
                    x1: 3,
                    y1: 4,
                },
                old_mon: None,
                spec: QuerySpec {
                    qid: QueryId(1000 + step),
                    region: QueryRegion::rect(4.0, 3.0),
                    filter: Arc::new(Filter::True),
                    slot: step as u8,
                    seq: u64::from(step),
                },
            }),
        ];
        for rec in &records {
            server.apply(rec, &mut net).expect("setup record applies");
        }
        let pending_focal = ObjectId(500 + step % 3);
        server.install_query(
            pending_focal,
            QueryRegion::circle(2.0),
            Filter::False,
            &mut net,
        );
        images.push(Image(server.checkpoint_bytes()));
    }
    images
}

#[test]
fn checkpoint_images_hold_the_format() {
    check_format(&images(), 0x5eed_10c4_0006);
}

/// A damaged image a server refuses leaves it exactly as it was: restore
/// decodes everything before it commits anything.
#[test]
fn a_refused_checkpoint_leaves_the_server_untouched() {
    let images: Vec<Vec<u8>> = images().into_iter().map(|i| i.0).collect();
    let original = images.last().expect("images").clone();
    let mut server = scoped_server();
    restore(&mut server, &original).expect("valid image");
    let digest = server.state_digest();
    let mut refused = 0;
    for bytes in mutations(&images, 2000, 0x5eed_10c4_0007) {
        if restore(&mut server, &bytes).is_ok() {
            // The damage hit a value, not the structure: a legitimate
            // state, so start over from the original.
            restore(&mut server, &original).expect("valid image");
            continue;
        }
        refused += 1;
        assert_eq!(
            server.state_digest(),
            digest,
            "failed restore mutated state"
        );
    }
    assert!(refused > 1000, "only {refused} damaged images were refused");
}

// --- The one journal point -------------------------------------------------

/// A server with a journal the test reads back, and the journal it must
/// hold: every record `apply` accepted, in order, behind a `Floor`
/// wherever the epoch it observed moved since the last record.
struct Journaled {
    server: Server,
    sink: Arc<VecSink>,
    net: Net,
    /// The sequencer partition 0 of two shares with its sibling (the test
    /// advances it for the sibling); `None` for a single server, whose
    /// epoch is private.
    epoch: Option<Arc<AtomicU64>>,
    floor: u64,
    expected: Vec<LogRecord>,
    refused: usize,
}

/// Leases, grouping and result delivery on, so heartbeats tear queries
/// down and result changes send deltas.
fn leased_config() -> Arc<ProtocolConfig> {
    Arc::new(
        ProtocolConfig::new(Grid::new(universe(), 10.0))
            .with_lease(40.0, 5.0)
            .with_grouping(true)
            .with_result_delivery(true),
    )
}

/// Partition 0 of the 6 x 6 grid split at flat 18, on `epoch`.
fn partition_zero(config: &Arc<ProtocolConfig>, epoch: Arc<AtomicU64>) -> Server {
    let table = Arc::new(PartitionTable::new(vec![0, 18, 36]));
    Server::new(Arc::clone(config)).with_scope(PartitionScope::new(0, table, epoch))
}

impl Journaled {
    fn new(scoped: bool) -> Self {
        let config = leased_config();
        let sink = Arc::new(VecSink::default());
        let epoch = scoped.then(|| Arc::new(AtomicU64::new(0)));
        let server = match &epoch {
            Some(e) => partition_zero(&config, Arc::clone(e)),
            None => Server::new(config),
        };
        Journaled {
            server: server.with_journal(sink.clone()),
            sink,
            net: Net::new(BaseStationLayout::new(universe(), 15.0)),
            epoch,
            floor: 0,
            expected: Vec::new(),
            refused: 0,
        }
    }

    fn journal(&self) -> Vec<LogRecord> {
        self.sink.0.lock().unwrap().clone()
    }

    /// Extends the expected journal by `rec`, behind a `Floor` when the
    /// epoch `observed` before it moved since the last record.
    fn expect(&mut self, observed: u64, rec: LogRecord) {
        if observed != self.floor {
            self.floor = observed;
            self.expected.push(LogRecord::Floor(observed));
        }
        self.expected.push(rec);
    }

    /// Applies `rec` and extends the expected journal by what it must
    /// write; `None` when the record was refused.
    fn apply(&mut self, rec: LogRecord) -> Option<ReplyPayload> {
        let observed = self.server.current_epoch();
        let reply = self.server.apply(&rec, &mut self.net);
        self.net.take_downlinks();
        match (&reply, &rec) {
            (Err(_), _) => self.refused += 1,
            // An install is logged without a floor of its own.
            (Ok(_), LogRecord::Bounds { .. }) => self.expected.push(rec.clone()),
            (Ok(_), LogRecord::Meta { .. }) => {}
            (Ok(_), _) => self.expect(observed, rec.clone()),
        }
        let written = self.sink.0.lock().unwrap().len();
        assert_eq!(written, self.expected.len(), "after {rec:?} ({reply:?})");
        reply.ok()
    }

    /// Replays the journal into a fresh server of the same shape and
    /// demands the same state.
    fn assert_replays(&self) {
        assert_eq!(self.journal(), self.expected, "journal diverged");
        let config = leased_config();
        let mut twin = match self.epoch {
            Some(_) => partition_zero(&config, Arc::new(AtomicU64::new(0))),
            None => Server::new(config),
        };
        let mut net = Net::new(BaseStationLayout::new(universe(), 15.0));
        for rec in self.journal() {
            twin.apply(&rec, &mut net)
                .expect("a journaled record applies");
        }
        assert_eq!(twin.state_digest(), self.server.state_digest());
    }

    fn counter(&mut self, key: &str) -> u64 {
        self.server.publish();
        self.server.telemetry().snapshot().counter(key)
    }
}

/// A cell on the 6 x 6 grid, or now and then past its edge.
fn any_cell(rng: &mut Rng) -> CellId {
    let mut coord = || match rng.below(10) {
        0 => u32::MAX,
        1 => 40,
        _ => rng.below(6) as u32,
    };
    CellId::new(coord(), coord())
}

fn motion_in(rng: &mut Rng, max_y: f64, tm: f64) -> LinearMotion {
    let p = Point::new(rng.range(0.0, 60.0), rng.range(0.0, max_y));
    LinearMotion::new(p, Vec2::new(rng.range(-0.1, 0.1), rng.range(-0.1, 0.1)), tm)
}

/// Records no handler can take on a server of `partitions` partitions:
/// among them, an install that names one partition more.
fn refused_record(rng: &mut Rng, partitions: usize) -> LogRecord {
    match rng.below(4) {
        0 => LogRecord::CompleteInstall {
            qid: QueryId(500),
            focal: ObjectId(999),
            region: QueryRegion::circle(3.0),
            filter: Arc::new(Filter::True),
            expires_at: None,
        },
        1 => LogRecord::ExportCells {
            flats: vec![3, u32::MAX],
            generation: 0,
        },
        2 => LogRecord::Bounds {
            generation: 1,
            bounds: PartitionTable::contiguous(36, partitions + 1)
                .bounds_snapshot()
                .into_iter()
                .map(|b| b as u64)
                .collect(),
        },
        _ => LogRecord::Cluster(ClusterMsg::RecoverCells {
            generation: 0,
            epoch: 0,
            cells: vec![10_000],
        }),
    }
}

/// The single server — partition 0 of one: the records its entry points
/// build, each behind the floor its own last op moved, plus refused
/// records and installs of its one-partition table. Heartbeats that
/// expire leases, resyncs that repair and purge, group result updates and
/// `expire_queries` all do nested work that must write nothing of its own.
#[test]
fn a_single_server_journals_each_accepted_record_once() {
    let mut rng = Rng(0x5eed_10c4_0010);
    let mut j = Journaled::new(false);
    let (mut now, mut next_qid) = (0.0, 0u32);
    let mut expired_seen = 0;
    for _ in 0..1500 {
        let oid = ObjectId(rng.below(12) as u32);
        let focal = ObjectId(rng.below(5) as u32);
        let qid = QueryId(rng.below(u64::from(next_qid) + 2) as u32);
        let motion = motion_in(&mut rng, 60.0, now);
        let uplink = |oid: ObjectId, msg| LogRecord::Uplink { from: oid.0, msg };
        let rec = match rng.below(17) {
            0 => {
                now += if rng.below(5) == 0 { 50.0 } else { 5.0 };
                LogRecord::Heartbeat(now)
            }
            1 | 2 => LogRecord::InstallQuery {
                qid: QueryId(next_qid),
                focal,
                region: QueryRegion::circle(rng.range(2.0, 12.0)),
                filter: Filter::True,
                expires_at: rng.coin().then(|| now + rng.range(5.0, 60.0)),
            },
            3 => LogRecord::RemoveQuery(qid),
            4 => LogRecord::UpdateRegion {
                qid,
                region: QueryRegion::circle(rng.range(2.0, 12.0)),
            },
            5 | 6 => uplink(
                focal,
                Uplink::PositionReply {
                    oid: focal,
                    motion,
                    max_vel: 0.1,
                },
            ),
            7 => uplink(focal, Uplink::VelocityReport { oid: focal, motion }),
            8 => uplink(
                oid,
                Uplink::CellChange {
                    oid,
                    prev_cell: any_cell(&mut rng),
                    new_cell: any_cell(&mut rng),
                    motion,
                },
            ),
            9 => uplink(
                oid,
                Uplink::ResultUpdate {
                    oid,
                    changes: vec![(qid, rng.coin()), (QueryId(rng.below(8) as u32), true)],
                },
            ),
            10 | 11 => uplink(
                oid,
                Uplink::GroupResultUpdate {
                    oid,
                    focal,
                    mask: rng.below(16),
                    targets: rng.below(16),
                },
            ),
            12 => uplink(
                oid,
                Uplink::Resync {
                    oid,
                    cell: any_cell(&mut rng),
                    motion,
                    max_vel: 0.1,
                    fresh: rng.coin(),
                },
            ),
            13 => uplink(
                oid,
                Uplink::LqtSync {
                    oid,
                    entries: vec![(qid, rng.coin())],
                },
            ),
            14 => {
                // An entry point that writes one record per expired query,
                // each removal bumping the epoch once.
                let before = j.server.current_epoch();
                let expired = j.server.expire_queries(now, &mut j.net);
                expired_seen += expired.len();
                for (i, &qid) in expired.iter().enumerate() {
                    j.expect(before + i as u64, LogRecord::RemoveQuery(qid));
                }
                assert_eq!(j.server.current_epoch(), before + expired.len() as u64);
                assert_eq!(j.journal(), j.expected, "expire_queries at {now}");
                continue;
            }
            15 => {
                let rec = refused_record(&mut rng, 1);
                assert!(j.apply(rec.clone()).is_none(), "{rec:?} was accepted");
                continue;
            }
            // Accepted and installed on its one-partition table.
            _ => LogRecord::Bounds {
                generation: 1,
                bounds: vec![0, 36],
            },
        };
        let install = matches!(rec, LogRecord::InstallQuery { .. });
        if j.apply(rec).is_some() && install {
            next_qid += 1;
        }
    }
    assert!(j.refused > 50, "only {} records were refused", j.refused);
    assert!(expired_seen > 0, "no query expired");
    assert!(
        j.counter("srv.leases_expired") > 0,
        "no heartbeat expired a lease"
    );
    assert!(j.counter("srv.resync_replies") > 50, "too few resyncs");
    assert!(
        j.counter("srv.stale_results_purged") > 0,
        "no resync purged"
    );
    assert!(
        j.server.num_queries() > 0,
        "the stream left no query installed"
    );
    j.assert_replays();
}

/// A partition: the records a coordinator sends, with the shared epoch
/// advanced between them by sibling partitions, so `Floor` records are
/// due now and then; plus refused records, which write no floor either.
#[test]
fn a_partition_journals_each_accepted_record_behind_its_floor() {
    let mut rng = Rng(0x5eed_10c4_0011);
    let mut j = Journaled::new(true);
    let (mut now, mut next_qid) = (0.0, 0u32);
    let mut migrations: Vec<ClusterMsg> = Vec::new();
    for _ in 0..1500 {
        let oid = ObjectId(rng.below(12) as u32);
        let focal = ObjectId(rng.below(5) as u32);
        let qid = QueryId(rng.below(u64::from(next_qid) + 2) as u32);
        // Partition 0 owns the rows below y = 30.
        let motion = motion_in(&mut rng, 29.0, now);
        let generation = j.server.scope().generation();
        let rec = match rng.below(20) {
            0 => {
                now += 5.0;
                LogRecord::SetTime(now)
            }
            1 | 2 => LogRecord::RefreshFocalMotion {
                oid: focal,
                motion,
                max_vel: 0.1,
                insert: rng.below(3) != 0,
            },
            3 | 4 => LogRecord::CompleteInstall {
                qid: QueryId(next_qid),
                focal,
                region: QueryRegion::circle(rng.range(2.0, 12.0)),
                filter: Arc::new(Filter::True),
                expires_at: None,
            },
            5 => LogRecord::ResultChange {
                qid,
                oid,
                is_target: rng.coin(),
            },
            6 => LogRecord::GroupResultUpdate {
                oid,
                focal,
                mask: rng.below(16),
                targets: rng.below(16),
            },
            7 => LogRecord::CellChangeFocal {
                oid: focal,
                new_cell: any_cell(&mut rng),
                motion,
            },
            8 => LogRecord::CellChangeFresh {
                oid,
                prev_cell: any_cell(&mut rng),
                new_cell: any_cell(&mut rng),
                motion,
            },
            9 => LogRecord::RemoveQuery(qid),
            10 => match rng.below(5) {
                0 => LogRecord::PurgeObject(oid),
                1 => LogRecord::LqtReconcile {
                    qid,
                    oid,
                    is_target: rng.coin(),
                },
                2 => LogRecord::ResultDelta {
                    qid,
                    oid,
                    entered: rng.coin(),
                },
                3 => LogRecord::FocalReassert(focal),
                _ => LogRecord::RenewLease(focal),
            },
            11 => LogRecord::CellSyncReply {
                oid,
                cell: any_cell(&mut rng),
            },
            12 => LogRecord::ExtractFocal(focal),
            13 => match migrations.pop() {
                Some(msg) => LogRecord::Cluster(msg),
                None => LogRecord::PruneStubs,
            },
            14 => LogRecord::Cluster(ClusterMsg::StubUpdate {
                focal: ObjectId(100),
                motion,
                max_vel: 0.1,
                curr_cell: CellId::new(2, 3),
                mon_region: GridRect {
                    x0: rng.below(3) as u32,
                    y0: 1 + rng.below(2) as u32,
                    x1: 3 + rng.below(3) as u32,
                    y1: 3,
                },
                old_mon: None,
                spec: QuerySpec {
                    qid: QueryId(1000 + rng.below(3) as u32),
                    region: QueryRegion::circle(9.0),
                    filter: Arc::new(Filter::True),
                    slot: 0,
                    seq: j.server.current_epoch() + 1,
                },
            }),
            15 => LogRecord::BumpEpoch,
            16 => match rng.below(3) {
                // Same ownership, a later generation: accepted, logged
                // without a floor of its own.
                0 => LogRecord::Bounds {
                    generation: generation + 1,
                    bounds: vec![0, 18, 36],
                },
                1 => LogRecord::Cluster(ClusterMsg::RecoverCells {
                    generation,
                    epoch: 0,
                    cells: vec![rng.below(18) as u32],
                }),
                _ => LogRecord::Bounds {
                    generation: generation + 1,
                    bounds: vec![0, 36],
                },
            },
            17 => refused_record(&mut rng, 2),
            _ => {
                // A sibling partition moves the shared sequencer.
                let e = j.epoch.as_ref().expect("scoped");
                e.fetch_add(1 + rng.below(3), Ordering::Relaxed);
                continue;
            }
        };
        let install = matches!(rec, LogRecord::CompleteInstall { .. });
        match j.apply(rec) {
            Some(ReplyPayload::OptCluster(Some(msg))) => migrations.push(*msg),
            Some(_) if install => next_qid += 1,
            _ => {}
        }
        j.server.take_outbox();
        j.server.take_home_log();
    }
    let floors = j
        .expected
        .iter()
        .filter(|r| matches!(r, LogRecord::Floor(_)))
        .count();
    assert!(floors > 50, "only {floors} floors were due");
    assert!(j.refused > 50, "only {} records were refused", j.refused);
    assert!(
        j.server.num_queries() > 0,
        "the stream left no query installed"
    );
    j.assert_replays();
}
