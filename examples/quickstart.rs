//! Quickstart: install one moving query over a handful of moving objects
//! and watch its result evolve as everyone moves.
//!
//! Run with: `cargo run --example quickstart`

use mobieyes::core::server::Net;
use mobieyes::net::BaseStationLayout;
use mobieyes::prelude::*;
use std::sync::Arc;

fn main() {
    // A 100x100 mile universe of discourse, 10-mile grid cells, base
    // stations every 20 miles.
    let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 10.0)));
    let mut net = Net::new(BaseStationLayout::new(universe, 20.0));
    let mut server = Server::new(Arc::clone(&config));

    // Five moving objects: object 0 drives east; the others sit at various
    // distances from its path. Max speed 0.02 mi/s (72 mph).
    let mut positions = [
        Point::new(20.0, 50.0), // the focal object, moving east
        Point::new(24.0, 50.0), // 4 miles ahead
        Point::new(50.0, 50.0), // on the path, 30 miles ahead
        Point::new(20.0, 80.0), // 30 miles north, never inside
        Point::new(28.0, 52.0), // 8 miles ahead, slightly north
    ];
    let velocities = [
        Vec2::new(0.02, 0.0),
        Vec2::ZERO,
        Vec2::ZERO,
        Vec2::ZERO,
        Vec2::ZERO,
    ];
    let mut agents: Vec<MovingObjectAgent> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| MovingObjectAgent::new(ObjectId(i as u32), Properties::new(), &config, p))
        .collect();

    // "Everything within 5 miles of object 0, continuously."
    let qid = server.install_query(
        ObjectId(0),
        QueryRegion::circle(5.0),
        Filter::True,
        &mut net,
    );
    println!("installed moving query {qid:?} bound to object 0 (radius 5 mi)\n");

    // 30-second time steps for ~37 minutes of simulated time.
    for step in 0..75 {
        let t = step as f64 * 30.0;
        // Integrate motion.
        for (i, p) in positions.iter_mut().enumerate() {
            *p += velocities[i] * 30.0;
        }
        // Phase A: objects report motion events.
        for (i, agent) in agents.iter_mut().enumerate() {
            agent.tick_motion(
                &config,
                t,
                Kinematics::new(positions[i], velocities[i], 0.02),
                &mut net,
            );
        }
        // Server mediates.
        server.tick(&mut net);
        // Phase B: objects receive, evaluate, report result changes.
        for (i, agent) in agents.iter_mut().enumerate() {
            let mut inbox = Vec::new();
            net.deliver(agent.oid().node(), positions[i], &mut inbox);
            agent.tick_process(
                &config,
                t,
                Kinematics::new(positions[i], velocities[i], 0.02),
                inbox.iter().map(|m| &**m),
                &mut net,
            );
        }
        net.end_tick();
        server.tick(&mut net);

        if step % 10 == 0 {
            let result = server.query_result(qid).expect("query installed");
            let ids: Vec<u32> = result.iter().map(|o| o.0).collect();
            println!(
                "t = {:4.0}s  focal at ({:5.1}, {:4.1})  result = {:?}",
                t, positions[0].x, positions[0].y, ids
            );
        }
    }

    let meter = net.meter();
    println!(
        "\ntraffic: {} uplink msgs, {} downlink msgs ({} broadcast)",
        meter.uplink_msgs,
        meter.downlink_msgs(),
        meter.broadcast_msgs
    );
    println!("note how objects 1, 4 and finally 2 enter/leave the moving circle");
}
