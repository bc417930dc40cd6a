//! The paper's example queries carry durations ("during the next 2 hours")
//! and deliver answers to their issuer ("give *me* the positions ..."):
//! query lifetimes and focal-side result delivery, end to end.

use mobieyes::core::server::Net;
use mobieyes::core::{
    Filter, Kinematics, MovingObjectAgent, ObjectId, Properties, ProtocolConfig, Server,
};
use mobieyes::geo::{Grid, Point, QueryRegion, Rect, Vec2};
use mobieyes::net::BaseStationLayout;
use std::sync::Arc;

const SIDE: f64 = 100.0;
const TS: f64 = 30.0;

struct Stack {
    net: Net,
    server: Server,
    agents: Vec<MovingObjectAgent>,
    positions: Vec<Point>,
    velocities: Vec<Vec2>,
    tick: usize,
}

fn stack(n: usize, deliver: bool) -> Stack {
    let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
    let config =
        Arc::new(ProtocolConfig::new(Grid::new(universe, 10.0)).with_result_delivery(deliver));
    let net = Net::new(BaseStationLayout::new(universe, 20.0));
    let server = Server::new(Arc::clone(&config));
    let positions: Vec<Point> = (0..n)
        .map(|i| Point::new(20.0 + 3.0 * i as f64, 50.0))
        .collect();
    let velocities = vec![Vec2::ZERO; n];
    let agents = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| MovingObjectAgent::new(ObjectId(i as u32), Properties::new(), &config, p))
        .collect();
    Stack {
        net,
        server,
        agents,
        positions,
        velocities,
        tick: 0,
    }
}

impl Stack {
    fn now(&self) -> f64 {
        self.tick as f64 * TS
    }

    fn step(&mut self) {
        self.tick += 1;
        let t = self.now();
        for i in 0..self.positions.len() {
            self.positions[i] = self.positions[i] + self.velocities[i] * TS;
        }
        let config = self.server.config_arc();
        let body = |i: usize| Kinematics::new(self.positions[i], self.velocities[i], 0.05);
        for (i, a) in self.agents.iter_mut().enumerate() {
            a.tick_motion(&config, t, body(i), &mut self.net);
        }
        self.server.expire_queries(t, &mut self.net);
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
        self.server.check_invariants();
    }
}

#[test]
fn expired_queries_are_removed_everywhere() {
    let mut s = stack(5, false);
    // "During the next 2 minutes": expires at t = 120 s.
    let q = s.server.install_query_with_lifetime(
        ObjectId(0),
        QueryRegion::circle(4.0),
        Filter::True,
        Some(120.0),
        &mut s.net,
    );
    for _ in 0..3 {
        s.step();
    }
    assert!(s.server.query_result(q).unwrap().contains(&ObjectId(1)));
    // Step past the expiry.
    for _ in 0..3 {
        s.step();
    }
    assert!(
        s.server.query_result(q).is_none(),
        "expired query must be gone"
    );
    for a in &s.agents {
        assert!(
            !a.installed_queries().any(|x| x == q),
            "agent kept expired query"
        );
    }
    assert!(!s.agents[0].has_mq(), "ex-focal must lose hasMQ");
}

#[test]
fn unexpired_queries_survive() {
    let mut s = stack(4, false);
    let forever = s.server.install_query(
        ObjectId(0),
        QueryRegion::circle(4.0),
        Filter::True,
        &mut s.net,
    );
    let brief = s.server.install_query_with_lifetime(
        ObjectId(0),
        QueryRegion::circle(6.0),
        Filter::True,
        Some(90.0),
        &mut s.net,
    );
    for _ in 0..6 {
        s.step();
    }
    assert!(s.server.query_result(forever).is_some());
    assert!(s.server.query_result(brief).is_none());
    // The focal still has its unexpired query: hasMQ stays on.
    assert!(s.agents[0].has_mq());
}

#[test]
fn result_delivery_keeps_focal_view_in_sync() {
    let mut s = stack(6, true);
    let q = s.server.install_query(
        ObjectId(0),
        QueryRegion::circle(4.0),
        Filter::True,
        &mut s.net,
    );
    for _ in 0..4 {
        s.step();
    }
    let server_view = s.server.query_result(q).unwrap().clone();
    let focal_view = s.agents[0].own_result(q).cloned().unwrap_or_default();
    assert_eq!(
        focal_view, server_view,
        "focal must see the same result as the server"
    );
    assert!(focal_view.contains(&ObjectId(1)));

    // Object 1 leaves; the focal's view follows.
    s.velocities[1] = Vec2::new(0.2, 0.0);
    s.step();
    s.velocities[1] = Vec2::ZERO;
    for _ in 0..3 {
        s.step();
    }
    let focal_view = s.agents[0].own_result(q).cloned().unwrap_or_default();
    assert!(
        !focal_view.contains(&ObjectId(1)),
        "departure must reach the focal"
    );
    assert_eq!(&focal_view, s.server.query_result(q).unwrap());
}

#[test]
fn delivery_off_means_no_focal_view_and_fewer_unicasts() {
    let mut with = stack(6, true);
    let mut without = stack(6, false);
    for s in [&mut with, &mut without] {
        s.server.install_query(
            ObjectId(0),
            QueryRegion::circle(4.0),
            Filter::True,
            &mut s.net,
        );
        for _ in 0..4 {
            s.step();
        }
    }
    assert!(without.agents[0]
        .own_result(mobieyes::core::QueryId(0))
        .is_none());
    assert!(
        with.net.meter().unicast_msgs > without.net.meter().unicast_msgs,
        "delivery must cost unicasts"
    );
}
