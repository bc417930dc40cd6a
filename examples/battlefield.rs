//! The paper's MQ1 scenario: "Give me the number of friendly units within
//! 5 miles radius around me during the next 2 hours", posed by moving
//! units in the field. Demonstrates property filters, multiple concurrent
//! moving queries and the distributed result maintenance.
//!
//! Run with: `cargo run --example battlefield --release`

use mobieyes::core::server::Net;
use mobieyes::net::BaseStationLayout;
use mobieyes::prelude::*;
use mobieyes::sim::Rng;
use std::sync::Arc;

const FIELD: f64 = 60.0; // 60x60 mile theater
const TS: f64 = 30.0; // 30-second steps
const UNITS: usize = 200;

fn main() {
    let universe = Rect::new(0.0, 0.0, FIELD, FIELD);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 6.0)));
    let mut net = Net::new(BaseStationLayout::new(universe, 12.0));
    let mut server = Server::new(Arc::clone(&config));
    let mut rng = Rng::new(2004);

    // 200 units; 60 % friendly, 40 % hostile; various unit types.
    let kinds = ["infantry", "tank", "recon", "medevac"];
    let mut positions = Vec::new();
    let mut velocities = Vec::new();
    let mut agents: Vec<MovingObjectAgent> = (0..UNITS)
        .map(|i| {
            let pos = Point::new(rng.range(0.0, FIELD), rng.range(0.0, FIELD));
            let dir = Vec2::from_angle(rng.range(0.0, std::f64::consts::TAU));
            let speed = rng.range(0.0, 0.015); // up to ~54 mph
            let friendly = rng.unit() < 0.6;
            let props = Properties::new()
                .with("friendly", friendly)
                .with("kind", kinds[rng.below(kinds.len())]);
            positions.push(pos);
            velocities.push(dir * speed);
            MovingObjectAgent::new(ObjectId(i as u32), props, &config, pos)
        })
        .collect();

    // Ten commanders each post MQ1: friendly units within 5 miles of me.
    let friendly_filter = Filter::Eq("friendly".into(), true.into());
    let commanders: Vec<ObjectId> = (0..10).map(|i| ObjectId(i * 17)).collect();
    let qids: Vec<_> = commanders
        .iter()
        .map(|&c| {
            server.install_query(
                c,
                QueryRegion::circle(5.0),
                friendly_filter.clone(),
                &mut net,
            )
        })
        .collect();
    // One commander also tracks nearby friendly medevac units (a second,
    // groupable query on the same focal object).
    let medevac = Filter::And(
        Box::new(friendly_filter.clone()),
        Box::new(Filter::Eq("kind".into(), "medevac".into())),
    );
    let medevac_q =
        server.install_query(commanders[0], QueryRegion::circle(8.0), medevac, &mut net);

    println!(
        "{} units, {} moving queries installed\n",
        UNITS,
        qids.len() + 1
    );

    // Two simulated hours.
    for step in 0..240 {
        let t = step as f64 * TS;
        for i in 0..UNITS {
            let mut p = positions[i] + velocities[i] * TS;
            // Units bounce off the theater boundary.
            if p.x < 0.0 || p.x > FIELD {
                velocities[i].x = -velocities[i].x;
                p.x = p.x.clamp(0.0, FIELD);
            }
            if p.y < 0.0 || p.y > FIELD {
                velocities[i].y = -velocities[i].y;
                p.y = p.y.clamp(0.0, FIELD);
            }
            positions[i] = p;
        }
        for (i, agent) in agents.iter_mut().enumerate() {
            agent.tick_motion(
                &config,
                t,
                Kinematics::new(positions[i], velocities[i], 0.015),
                &mut net,
            );
        }
        server.tick(&mut net);
        for (i, agent) in agents.iter_mut().enumerate() {
            let mut inbox = Vec::new();
            net.deliver(agent.oid().node(), positions[i], &mut inbox);
            agent.tick_process(
                &config,
                t,
                Kinematics::new(positions[i], velocities[i], 0.015),
                inbox.iter().map(|m| &**m),
                &mut net,
            );
        }
        net.end_tick();
        server.tick(&mut net);

        if step % 60 == 0 {
            println!("t = {:5.0}s ({} min)", t, (t / 60.0) as u32);
            for (k, &qid) in qids.iter().enumerate() {
                let n = server.query_result(qid).map(|r| r.len()).unwrap_or(0);
                print!("  cmdr{k:02}:{n:3}");
                if (k + 1) % 5 == 0 {
                    println!();
                }
            }
            let med = server.query_result(medevac_q).map(|r| r.len()).unwrap_or(0);
            println!("  medevac units near cmdr00: {med}\n");
        }
    }

    let meter = net.meter();
    println!("two hours of operation:");
    println!("  uplink messages:   {:>8}", meter.uplink_msgs);
    println!("  downlink messages: {:>8}", meter.downlink_msgs());
    println!(
        "  total bytes:       {:>8} ({} up / {} down)",
        meter.total_bytes(),
        meter.uplink_bytes,
        meter.unicast_bytes + meter.broadcast_bytes
    );
    let naive_msgs = UNITS as u64 * 240;
    println!(
        "  a naive position-per-step scheme would have sent {naive_msgs} uplink messages ({:.1}x more uplink traffic)",
        naive_msgs as f64 / meter.uplink_msgs.max(1) as f64
    );
}
