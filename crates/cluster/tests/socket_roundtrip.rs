//! Loopback socket round-trips for the cluster bus.
//!
//! Every [`ClusterMsg`] variant (populated and edge-case-empty) rides a
//! real kernel socket — both families — inside an [`Envelope`] and must
//! come back bit-identical, with the transport's in-flight accounting
//! returning exactly the frames sent. A separate case dribbles frames
//! across arbitrary write boundaries to prove reassembly does not depend
//! on read alignment.

use mobieyes_cluster::Envelope;
use mobieyes_core::{ClusterMsg, Filter, ObjectId, QueryId, QueryMigration, QuerySpec, StubSeed};
use mobieyes_geo::{CellId, GridRect, LinearMotion, Point, QueryRegion, Vec2};
use mobieyes_net::{Endpoint, FramedConn, Listener, NodeId, SocketTransport, Transport};
use std::sync::Arc;

fn motion() -> LinearMotion {
    LinearMotion::new(Point::new(1.5, 2.5), Vec2::new(0.1, -0.2), 30.0)
}

fn spec(qid: u32) -> QuerySpec {
    QuerySpec {
        qid: QueryId(qid),
        region: QueryRegion::circle(2.5),
        filter: Arc::new(Filter::Gt("speed".into(), 1.5)),
        slot: 3,
        seq: 21,
    }
}

fn mon() -> GridRect {
    GridRect {
        x0: 2,
        y0: 3,
        x1: 5,
        y1: 6,
    }
}

/// One sample per variant shape: populated and boundary-empty forms.
fn sample_msgs() -> Vec<ClusterMsg> {
    vec![
        ClusterMsg::MigrateFocal {
            oid: ObjectId(9),
            motion: motion(),
            max_vel: 0.04,
            used_slots: 0b1001,
            last_heard: 120.0,
            epoch: 33,
            queries: vec![
                QueryMigration {
                    spec: spec(5),
                    curr_cell: CellId::new(3, 4),
                    mon_region: mon(),
                    expires_at: Some(600.0),
                    result: vec![ObjectId(1), ObjectId(2), ObjectId(8)],
                },
                QueryMigration {
                    spec: spec(6),
                    curr_cell: CellId::new(3, 4),
                    mon_region: mon(),
                    expires_at: None,
                    result: vec![],
                },
            ],
        },
        ClusterMsg::MigrateFocal {
            oid: ObjectId(10),
            motion: motion(),
            max_vel: 0.01,
            used_slots: 0,
            last_heard: 0.0,
            epoch: 1,
            queries: vec![],
        },
        ClusterMsg::StubUpdate {
            focal: ObjectId(9),
            motion: motion(),
            max_vel: 0.04,
            curr_cell: CellId::new(3, 4),
            mon_region: mon(),
            old_mon: Some(GridRect {
                x0: 1,
                y0: 2,
                x1: 4,
                y1: 5,
            }),
            spec: spec(5),
        },
        ClusterMsg::StubUpdate {
            focal: ObjectId(9),
            motion: motion(),
            max_vel: 0.04,
            curr_cell: CellId::new(3, 4),
            mon_region: mon(),
            old_mon: None,
            spec: spec(5),
        },
        ClusterMsg::StubMotion {
            focal: ObjectId(9),
            motion: motion(),
            max_vel: 0.04,
            qids: vec![(QueryId(5), 22), (QueryId(6), 22)],
        },
        ClusterMsg::StubMotion {
            focal: ObjectId(9),
            motion: motion(),
            max_vel: 0.04,
            qids: vec![],
        },
        ClusterMsg::StubRemove {
            qid: QueryId(5),
            mon_region: mon(),
            epoch: 40,
        },
        ClusterMsg::RebalanceCells {
            generation: 3,
            epoch: 44,
            cells: vec![
                (17, vec![QueryId(5), QueryId(6)]),
                (18, vec![]),
                (19, vec![QueryId(6)]),
            ],
            stubs: vec![StubSeed {
                focal: ObjectId(9),
                motion: motion(),
                max_vel: 0.04,
                mon_region: mon(),
                spec: spec(6),
            }],
        },
        ClusterMsg::RebalanceCells {
            generation: 1,
            epoch: 2,
            cells: vec![],
            stubs: vec![],
        },
    ]
}

/// Sends every sample through `bus` and asserts the poll returns each
/// frame once, in order, bit-identical, addressed as sent.
fn roundtrip_all(mut bus: SocketTransport<Envelope>) {
    let samples = sample_msgs();
    for (i, msg) in samples.iter().enumerate() {
        bus.send(
            NodeId(i as u32),
            Envelope {
                to: (i as u32) % 4,
                msg: msg.clone(),
            },
        )
        .expect("send");
    }
    bus.flush().expect("flush");
    let received = bus.poll().expect("poll");
    assert_eq!(received.len(), samples.len(), "every frame comes back");
    for (i, (from, envelope)) in received.iter().enumerate() {
        assert_eq!(from.0, i as u32, "sender id survives the wire");
        assert_eq!(envelope.to, (i as u32) % 4, "destination survives");
        assert_eq!(&envelope.msg, &samples[i], "payload {i} survives");
    }
    // A drained bus polls empty (in-flight accounting reached zero).
    assert!(bus.poll().expect("empty poll").is_empty());
}

#[test]
fn every_cluster_msg_roundtrips_over_tcp() {
    roundtrip_all(SocketTransport::loopback_tcp().expect("tcp pair"));
}

#[test]
fn every_cluster_msg_roundtrips_over_uds() {
    // One path per call site: tests of this binary share a pid.
    let path =
        std::env::temp_dir().join(format!("mobieyes-rt-{}-every-msg.sock", std::process::id()));
    roundtrip_all(SocketTransport::loopback_uds(&path).expect("uds pair"));
}

/// splitmix64: deterministic chunk sizes for the dribble test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Frames written in 1–7 byte dribbles (each its own syscall, flushed)
/// must reassemble exactly: the reader's buffer, not the kernel's read
/// boundaries, defines the frame.
#[test]
fn frames_reassemble_across_split_writes() {
    use std::io::Write;

    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let endpoint = listener.local_endpoint().expect("endpoint");
    let samples = sample_msgs();
    let payloads: Vec<Vec<u8>> = samples
        .iter()
        .enumerate()
        .map(|(i, msg)| {
            use mobieyes_net::Frame;
            let mut body = Vec::new();
            Envelope {
                to: i as u32,
                msg: msg.clone(),
            }
            .encode_frame(&mut body);
            body
        })
        .collect();

    let writer = std::thread::spawn({
        let payloads = payloads.clone();
        move || {
            let mut stream = endpoint.connect().expect("connect");
            // Raw wire bytes: [len u32 LE][payload], all frames back to
            // back, emitted in deterministic random-sized dribbles.
            let mut wire = Vec::new();
            for p in &payloads {
                wire.extend_from_slice(&(p.len() as u32).to_le_bytes());
                wire.extend_from_slice(p);
            }
            let mut rng = Rng(0xD1B);
            let mut off = 0;
            while off < wire.len() {
                let n = (1 + (rng.next() % 7) as usize).min(wire.len() - off);
                stream.write_all(&wire[off..off + n]).expect("write");
                stream.flush().expect("flush");
                off += n;
            }
            // Keep the socket open until the reader is done.
            stream
        }
    });

    let mut conn = FramedConn::new(listener.accept().expect("accept"));
    for (i, expected) in payloads.iter().enumerate() {
        let frame = conn.read_frame().expect("read_frame");
        assert_eq!(&frame, expected, "frame {i} reassembles bit-identically");
    }
    drop(writer.join().expect("writer thread"));
}
