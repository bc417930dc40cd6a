//! Adaptive kNN moving queries end to end: the distributed candidate set
//! must converge to a superset of the true k nearest neighbors, and the
//! ranked answer must match a centralized kNN oracle over the same
//! positions.

use mobieyes::core::server::Net;
use mobieyes::core::{
    Filter, Kinematics, KnnConfig, KnnCoordinator, MovingObjectAgent, ObjectId, Properties,
    ProtocolConfig, Server,
};
use mobieyes::geo::{Grid, Point, Rect, Vec2};
use mobieyes::net::BaseStationLayout;
use mobieyes::sim::Rng;
use std::sync::Arc;

const SIDE: f64 = 100.0;
const TS: f64 = 30.0;

struct World {
    server: Server,
    net: Net,
    knn: KnnCoordinator,
    agents: Vec<MovingObjectAgent>,
    positions: Vec<Point>,
    velocities: Vec<Vec2>,
    tick: usize,
}

fn world(n: usize, seed: u64) -> World {
    let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 10.0)));
    let net = Net::new(BaseStationLayout::new(universe, 25.0));
    let server = Server::new(Arc::clone(&config));
    let mut rng = Rng::new(seed);
    let mut positions = Vec::new();
    let mut velocities = Vec::new();
    let agents = (0..n)
        .map(|i| {
            let p = Point::new(rng.range(0.0, SIDE), rng.range(0.0, SIDE));
            let v = Vec2::from_angle(rng.range(0.0, std::f64::consts::TAU)) * rng.range(0.0, 0.01);
            positions.push(p);
            velocities.push(v);
            MovingObjectAgent::new(ObjectId(i as u32), Properties::new(), &config, p)
        })
        .collect();
    World {
        server,
        net,
        knn: KnnCoordinator::new(KnnConfig::default()),
        agents,
        positions,
        velocities,
        tick: 0,
    }
}

impl World {
    fn step(&mut self) {
        self.tick += 1;
        let t = self.tick as f64 * TS;
        for i in 0..self.positions.len() {
            let mut p = self.positions[i] + self.velocities[i] * TS;
            if p.x < 0.0 || p.x > SIDE {
                self.velocities[i].x = -self.velocities[i].x;
                p.x = p.x.clamp(0.0, SIDE);
            }
            if p.y < 0.0 || p.y > SIDE {
                self.velocities[i].y = -self.velocities[i].y;
                p.y = p.y.clamp(0.0, SIDE);
            }
            self.positions[i] = p;
        }
        let config = self.server.config_arc();
        let body = |i: usize| Kinematics::new(self.positions[i], self.velocities[i], 0.01);
        for (i, a) in self.agents.iter_mut().enumerate() {
            a.tick_motion(&config, t, body(i), &mut self.net);
        }
        self.server.tick(&mut self.net);
        for (i, a) in self.agents.iter_mut().enumerate() {
            let mut inbox = Vec::new();
            self.net
                .deliver(ObjectId(i as u32).node(), self.positions[i], &mut inbox);
            a.tick_process(
                &config,
                t,
                body(i),
                inbox.iter().map(|m| &**m),
                &mut self.net,
            );
        }
        self.net.end_tick();
        self.server.tick(&mut self.net);
        // kNN controller after result ingestion.
        self.knn.tick(&mut self.server, &mut self.net);
        self.server.check_invariants();
    }

    /// True k nearest to the focal object (excluding nobody), by distance.
    fn true_knn(&self, focal: usize, k: usize) -> Vec<ObjectId> {
        let fp = self.positions[focal];
        let mut d: Vec<(f64, u32)> = self
            .positions
            .iter()
            .enumerate()
            .map(|(i, p)| (fp.distance(*p), i as u32))
            .collect();
        d.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        d.into_iter().take(k).map(|(_, i)| ObjectId(i)).collect()
    }
}

#[test]
fn radius_grows_until_candidates_cover_k() {
    let mut w = world(150, 81);
    // Start with a hopeless radius of 0.5 miles for k=10.
    let qid = w.knn.install(
        &mut w.server,
        ObjectId(0),
        10,
        0.5,
        Filter::True,
        &mut w.net,
    );
    for _ in 0..30 {
        w.step();
    }
    let candidates = w.knn.candidates(&w.server, qid).unwrap();
    assert!(
        candidates.len() >= 10,
        "controller never reached k candidates (got {})",
        candidates.len()
    );
    assert!(w.knn.adaptations(qid) > 0, "radius must have adapted");
    assert!(w.knn.radius(qid).unwrap() > 0.5);
}

#[test]
fn candidates_contain_true_knn_and_rank_correctly() {
    let mut w = world(150, 82);
    let k = 8;
    let qid = w
        .knn
        .install(&mut w.server, ObjectId(3), k, 2.0, Filter::True, &mut w.net);
    for _ in 0..30 {
        w.step();
    }
    // Freeze motion so the protocol view converges exactly.
    for v in w.velocities.iter_mut() {
        *v = Vec2::ZERO;
    }
    for _ in 0..5 {
        w.step();
    }
    let truth = w.true_knn(3, k);
    let candidates = w.knn.candidates(&w.server, qid).unwrap().clone();
    for oid in &truth {
        assert!(
            candidates.contains(oid),
            "true neighbor {oid:?} missing from candidates"
        );
    }
    // Ranking with exact positions reproduces the true kNN order.
    let positions = w.positions.clone();
    let ranked = w.knn.rank_candidates(&w.server, qid, positions[3], |oid| {
        Some(positions[oid.0 as usize])
    });
    let ranked_ids: Vec<ObjectId> = ranked.iter().map(|&(o, _)| o).collect();
    assert_eq!(
        ranked_ids, truth,
        "ranked candidates must equal the true kNN"
    );
    // Distances ascend.
    for pair in ranked.windows(2) {
        assert!(pair[0].1 <= pair[1].1);
    }
}

#[test]
fn radius_shrinks_when_result_is_overfull() {
    let mut w = world(200, 83);
    // Enormous initial radius for k=3: nearly everyone is a candidate.
    let qid = w.knn.install(
        &mut w.server,
        ObjectId(0),
        3,
        80.0,
        Filter::True,
        &mut w.net,
    );
    for _ in 0..40 {
        w.step();
    }
    let r = w.knn.radius(qid).unwrap();
    assert!(r < 80.0, "radius should have shrunk from 80 (is {r})");
    let n = w.knn.candidates(&w.server, qid).unwrap().len();
    assert!(
        n >= 3,
        "despite shrinking, candidates must keep covering k (have {n})"
    );
}

#[test]
fn removing_knn_query_cleans_up() {
    let mut w = world(50, 84);
    let qid = w.knn.install(
        &mut w.server,
        ObjectId(0),
        5,
        10.0,
        Filter::True,
        &mut w.net,
    );
    for _ in 0..5 {
        w.step();
    }
    assert!(w.knn.remove(&mut w.server, qid, &mut w.net));
    assert!(w.knn.radius(qid).is_none());
    assert!(w.server.query_result(qid).is_none());
    for _ in 0..3 {
        w.step();
    }
}
