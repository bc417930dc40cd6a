//! Loopback socket round-trips of the cluster's handoff messages.
//!
//! Every [`ClusterMsg`] variant (populated and edge-case-empty) is encoded
//! inside an [`Envelope`], written as one [`FramedConn`] frame over a real
//! kernel socket — both families — read back and decoded, and must come
//! back bit-identical with no byte left over. A separate case dribbles
//! frames across arbitrary write boundaries to prove reassembly does not
//! depend on read alignment.

use mobieyes_cluster::Envelope;
use mobieyes_core::codec::{Reader, Wire};
use mobieyes_core::{ClusterMsg, Filter, ObjectId, QueryId, QueryMigration, QuerySpec, StubSeed};
use mobieyes_geo::{CellId, GridRect, LinearMotion, Point, QueryRegion, Vec2};
use mobieyes_net::{Endpoint, FramedConn, Listener};
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

/// The sample envelopes: message `i` addressed to partition `i % 4`.
fn sample_envelopes() -> Vec<Envelope> {
    let to = |i: usize| (i as u32) % 4;
    let envelope = |(i, msg): (usize, ClusterMsg)| Envelope { to: to(i), msg };
    sample_msgs()
        .into_iter()
        .enumerate()
        .map(envelope)
        .collect()
}

fn encode(env: &Envelope) -> Vec<u8> {
    let mut body = Vec::new();
    env.put(&mut body);
    body
}

/// Decodes one frame back into its envelope; every byte must be consumed.
fn decode(frame: &[u8]) -> Envelope {
    let mut buf = Reader::new(frame);
    let env = Envelope::get(&mut buf).expect("envelope decodes");
    assert_eq!(buf.remaining(), 0, "no bytes trail the envelope");
    env
}

/// Writes every sample envelope as one frame over `endpoint` and asserts
/// each is read back once, in order, bit-identical, addressed as sent.
fn roundtrip_all(endpoint: Endpoint) {
    let listener = Listener::bind(&endpoint).expect("bind");
    let stream = listener.local_endpoint().expect("endpoint").connect();
    let mut tx = FramedConn::new(stream.expect("connect"));
    let mut rx = FramedConn::new(listener.accept().expect("accept"));
    let samples = sample_envelopes();
    for env in &samples {
        tx.write_frame(&encode(env)).expect("write_frame");
    }
    tx.flush().expect("flush");
    for (i, sent) in samples.iter().enumerate() {
        let back = decode(&rx.read_frame().expect("read_frame"));
        assert_eq!(back.to, sent.to, "destination {i} survives");
        assert_eq!(back.msg, sent.msg, "payload {i} survives");
    }
    assert!(!rx.has_buffered_frame(), "every frame was read once");
}

#[test]
fn every_cluster_msg_roundtrips_over_tcp() {
    roundtrip_all(Endpoint::Tcp("127.0.0.1:0".into()));
}

#[test]
fn every_cluster_msg_roundtrips_over_uds() {
    // One path per call site: tests of this binary share a pid.
    let path =
        std::env::temp_dir().join(format!("mobieyes-rt-{}-every-msg.sock", std::process::id()));
    roundtrip_all(Endpoint::Uds(path));
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
    let samples = sample_envelopes();
    let payloads: Vec<Vec<u8>> = samples.iter().map(encode).collect();

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
    for (i, (expected, sent)) in payloads.iter().zip(&samples).enumerate() {
        let frame = conn.read_frame().expect("read_frame");
        assert_eq!(&frame, expected, "frame {i} reassembles bit-identically");
        let back = decode(&frame);
        assert_eq!((back.to, &back.msg), (sent.to, &sent.msg), "envelope {i}");
    }
    drop(writer.join().expect("writer thread"));
}
