//! The paper's MQ2 scenario: "Give me the positions of those customers who
//! are looking for taxi and are within 5 miles during the next 20
//! minutes", posed by taxi drivers. Demonstrates lazy query propagation
//! and the uplink savings it buys, using the full simulation harness.
//!
//! Run with: `cargo run --example taxi_dispatch --release`

use mobieyes::core::server::Net;
use mobieyes::net::BaseStationLayout;
use mobieyes::prelude::*;
use mobieyes::sim::Rng;
use std::sync::Arc;

const CITY: f64 = 30.0; // 30x30 mile city
const TS: f64 = 30.0;
const TAXIS: usize = 40;
const CUSTOMERS: usize = 400;

struct World {
    positions: Vec<Point>,
    velocities: Vec<Vec2>,
    agents: Vec<MovingObjectAgent>,
    server: Server,
    net: Net,
    qids: Vec<QueryId>,
}

fn build(propagation: Propagation, seed: u64) -> World {
    let universe = Rect::new(0.0, 0.0, CITY, CITY);
    let config =
        Arc::new(ProtocolConfig::new(Grid::new(universe, 3.0)).with_propagation(propagation));
    let mut net = Net::new(BaseStationLayout::new(universe, 6.0));
    let mut server = Server::new(Arc::clone(&config));
    let mut rng = Rng::new(seed);

    let n = TAXIS + CUSTOMERS;
    let mut positions = Vec::with_capacity(n);
    let mut velocities = Vec::with_capacity(n);
    let agents: Vec<MovingObjectAgent> = (0..n)
        .map(|i| {
            let pos = Point::new(rng.range(0.0, CITY), rng.range(0.0, CITY));
            let dir = Vec2::from_angle(rng.range(0.0, std::f64::consts::TAU));
            let speed = rng.range(0.002, 0.012); // 7–43 mph city traffic
            let is_taxi = i < TAXIS;
            // Roughly half the customers are currently looking for a ride.
            let looking = !is_taxi && rng.unit() < 0.5;
            let props = Properties::new()
                .with("taxi", is_taxi)
                .with("looking_for_taxi", looking);
            positions.push(pos);
            velocities.push(dir * speed);
            MovingObjectAgent::new(ObjectId(i as u32), props, &config, pos)
        })
        .collect();

    // Every taxi posts MQ2.
    let filter = Filter::Eq("looking_for_taxi".into(), true.into());
    let qids = (0..TAXIS)
        .map(|i| {
            server.install_query(
                ObjectId(i as u32),
                QueryRegion::circle(5.0),
                filter.clone(),
                &mut net,
            )
        })
        .collect();
    World {
        positions,
        velocities,
        agents,
        server,
        net,
        qids,
    }
}

fn run(world: &mut World, steps: usize, mut rng: Rng, report: bool) {
    for step in 0..steps {
        let t = step as f64 * TS;
        for i in 0..world.positions.len() {
            // Occasional direction changes (city corners).
            if rng.unit() < 0.05 {
                let speed = world.velocities[i].norm();
                world.velocities[i] =
                    Vec2::from_angle(rng.range(0.0, std::f64::consts::TAU)) * speed;
            }
            let mut p = world.positions[i] + world.velocities[i] * TS;
            if p.x < 0.0 || p.x > CITY {
                world.velocities[i].x = -world.velocities[i].x;
                p.x = p.x.clamp(0.0, CITY);
            }
            if p.y < 0.0 || p.y > CITY {
                world.velocities[i].y = -world.velocities[i].y;
                p.y = p.y.clamp(0.0, CITY);
            }
            world.positions[i] = p;
        }
        let config = world.server.config_arc();
        let body = |i: usize| Kinematics::new(world.positions[i], world.velocities[i], 0.012);
        for (i, agent) in world.agents.iter_mut().enumerate() {
            agent.tick_motion(&config, t, body(i), &mut world.net);
        }
        world.server.tick(&mut world.net);
        for (i, agent) in world.agents.iter_mut().enumerate() {
            let mut inbox = Vec::new();
            world
                .net
                .deliver(agent.oid().node(), world.positions[i], &mut inbox);
            agent.tick_process(
                &config,
                t,
                body(i),
                inbox.iter().map(|m| &**m),
                &mut world.net,
            );
        }
        world.net.end_tick();
        world.server.tick(&mut world.net);

        if report && step % 10 == 0 {
            let total: usize = world
                .qids
                .iter()
                .filter_map(|&q| world.server.query_result(q))
                .map(|r| r.len())
                .sum();
            let best =
                world.qids.iter().enumerate().max_by_key(|(_, &q)| {
                    world.server.query_result(q).map(|r| r.len()).unwrap_or(0)
                });
            if let Some((taxi, &q)) = best {
                println!(
                    "t = {:4.0}s  {} customer sightings across {} taxis; taxi {:02} sees {}",
                    t,
                    total,
                    TAXIS,
                    taxi,
                    world.server.query_result(q).map(|r| r.len()).unwrap_or(0)
                );
            }
        }
    }
}

fn main() {
    // 20 minutes of dispatch under eager propagation, with live output.
    println!("== taxi dispatch, eager query propagation ==");
    let mut eager = build(Propagation::Eager, 7);
    run(&mut eager, 40, Rng::new(99), true);

    // The same 20 minutes under lazy propagation (same RNG streams).
    println!("\n== same workload, lazy query propagation ==");
    let mut lazy = build(Propagation::Lazy, 7);
    run(&mut lazy, 40, Rng::new(99), false);

    let (em, lm) = (eager.net.meter(), lazy.net.meter());
    println!("\n                      eager      lazy");
    println!(
        "uplink msgs      {:>10} {:>9}",
        em.uplink_msgs, lm.uplink_msgs
    );
    println!(
        "downlink msgs    {:>10} {:>9}",
        em.downlink_msgs(),
        lm.downlink_msgs()
    );
    println!(
        "total bytes      {:>10} {:>9}",
        em.total_bytes(),
        lm.total_bytes()
    );
    println!(
        "\nlazy propagation cut uplink messages by {:.0}% — non-focal objects\nnever contact the server when they cross grid cells",
        100.0 * (1.0 - lm.uplink_msgs as f64 / em.uplink_msgs.max(1) as f64)
    );
}
