//! Adaptive k-nearest-neighbor moving queries: a medevac unit continuously
//! tracks its 5 nearest friendly units while everyone moves. Demonstrates
//! the kNN extension layered on the unmodified MobiEyes protocol (the
//! radius controller only uses the standard query-update broadcast).
//!
//! Run with: `cargo run --example knn_tracking --release`

use mobieyes::core::server::Net;
use mobieyes::core::{KnnConfig, KnnCoordinator};
use mobieyes::net::BaseStationLayout;
use mobieyes::prelude::*;
use mobieyes::sim::Rng;
use std::sync::Arc;

const SIDE: f64 = 80.0;
const TS: f64 = 30.0;
const UNITS: usize = 120;
const K: usize = 5;

fn main() {
    let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 8.0)));
    let mut net = Net::new(BaseStationLayout::new(universe, 16.0));
    let mut server = Server::new(Arc::clone(&config));
    let mut knn = KnnCoordinator::new(KnnConfig::default());
    let mut rng = Rng::new(11);

    let mut positions = Vec::new();
    let mut velocities = Vec::new();
    let mut agents: Vec<MovingObjectAgent> = (0..UNITS)
        .map(|i| {
            let pos = Point::new(rng.range(0.0, SIDE), rng.range(0.0, SIDE));
            let vel =
                Vec2::from_angle(rng.range(0.0, std::f64::consts::TAU)) * rng.range(0.0, 0.012);
            let friendly = rng.unit() < 0.7;
            positions.push(pos);
            velocities.push(vel);
            MovingObjectAgent::new(
                ObjectId(i as u32),
                Properties::new().with("friendly", friendly),
                &config,
                pos,
            )
        })
        .collect();

    // "My 5 nearest friendly units, continuously" — initial radius guess 2.
    let filter = Filter::Eq("friendly".into(), true.into());
    let qid = knn.install(&mut server, ObjectId(0), K, 2.0, filter, &mut net);
    println!("installed adaptive {K}-NN query {qid:?} on unit 0 (initial radius 2 mi)\n");

    for step in 0..60 {
        let t = step as f64 * TS;
        for i in 0..UNITS {
            let mut p = positions[i] + velocities[i] * TS;
            if p.x < 0.0 || p.x > SIDE {
                velocities[i].x = -velocities[i].x;
                p.x = p.x.clamp(0.0, SIDE);
            }
            if p.y < 0.0 || p.y > SIDE {
                velocities[i].y = -velocities[i].y;
                p.y = p.y.clamp(0.0, SIDE);
            }
            positions[i] = p;
        }
        for (i, a) in agents.iter_mut().enumerate() {
            a.tick_motion(
                &config,
                t,
                Kinematics::new(positions[i], velocities[i], 0.012),
                &mut net,
            );
        }
        server.tick(&mut net);
        for (i, a) in agents.iter_mut().enumerate() {
            let mut inbox = Vec::new();
            net.deliver(ObjectId(i as u32).node(), positions[i], &mut inbox);
            a.tick_process(
                &config,
                t,
                Kinematics::new(positions[i], velocities[i], 0.012),
                inbox.iter().map(|m| &**m),
                &mut net,
            );
        }
        net.end_tick();
        server.tick(&mut net);
        knn.tick(&mut server, &mut net);

        if step % 10 == 0 {
            let candidates = knn.candidates(&server, qid).map(|c| c.len()).unwrap_or(0);
            let ranked = knn.rank_candidates(&server, qid, positions[0], |oid| {
                Some(positions[oid.0 as usize])
            });
            let ids: Vec<String> = ranked
                .iter()
                .map(|(o, d)| format!("{}@{:.1}mi", o.0, d))
                .collect();
            println!(
                "t = {:4.0}s  radius {:5.2} mi  candidates {:3}  top-{K}: [{}]",
                t,
                knn.radius(qid).unwrap(),
                candidates,
                ids.join(", ")
            );
        }
    }
    println!(
        "\nradius adapted {} times; {} total messages on the medium",
        knn.adaptations(qid),
        net.meter().total_msgs()
    );
}
