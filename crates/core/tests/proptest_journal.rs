//! Journal and checkpoint format properties: every [`LogRecord`] variant
//! and the checkpoint image round-trip exactly, and their decoders — which
//! read crash-recovered disk input — reject truncated or damaged bytes
//! with an error, never a panic ([`common::check_format`]).
//!
//! Uses a seeded splitmix64 sweep so every run checks the same cases.

mod common;

use common::{check_format, mutations, rand_record, Rng, NUM_TAGS};
use mobieyes_core::codec::{DecodeError, Put, Reader, Wire};
use mobieyes_core::journal::LogRecord;
use mobieyes_core::server::Net;
use mobieyes_core::{
    ClusterMsg, Filter, ObjectId, PartitionScope, PartitionTable, ProtocolConfig, QueryId,
    QuerySpec, Server,
};
use mobieyes_geo::{CellId, Grid, GridRect, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::BaseStationLayout;
use std::sync::atomic::AtomicU64;
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
        server.restore_checkpoint(bytes)?;
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
    server.restore_checkpoint(&original).expect("valid image");
    let digest = server.state_digest();
    let mut refused = 0;
    for bytes in mutations(&images, 2000, 0x5eed_10c4_0007) {
        if server.restore_checkpoint(&bytes).is_ok() {
            // The damage hit a value, not the structure: a legitimate
            // state, so start over from the original.
            server.restore_checkpoint(&original).expect("valid image");
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
