//! Query lifecycle edge cases driven through the full protocol stack:
//! rectangular regions, query churn (install/remove mid-run), and focal
//! objects with more than 64 queries (bitmap slot exhaustion).

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

fn stack(n: usize, grouping: bool) -> Stack {
    let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 10.0)).with_grouping(grouping));
    let net = Net::new(BaseStationLayout::new(universe, 20.0));
    let server = Server::new(Arc::clone(&config));
    // Objects on a diagonal, 3 miles apart, standing still by default.
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
    fn step(&mut self) {
        self.tick += 1;
        let t = self.tick as f64 * TS;
        for i in 0..self.positions.len() {
            self.positions[i] = self.positions[i] + self.velocities[i] * TS;
        }
        let config = self.server.config_arc();
        let body = |i: usize| Kinematics::new(self.positions[i], self.velocities[i], 0.05);
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
        self.server.check_invariants();
    }
}

#[test]
fn rectangular_query_regions_work_end_to_end() {
    let mut s = stack(5, false);
    // A 4x1-mile rectangle around object 0: objects at x=23 (3 away) are
    // inside the half-width 4 but outside half-height... use half_w=4,
    // half_h=2 so objects 1 (3 miles east) is inside and 2 (6 miles) out.
    let qid = s.server.install_query(
        ObjectId(0),
        QueryRegion::rect(4.0, 2.0),
        Filter::True,
        &mut s.net,
    );
    for _ in 0..4 {
        s.step();
    }
    let result = s.server.query_result(qid).unwrap();
    assert!(
        result.contains(&ObjectId(1)),
        "object 3 mi east inside 4-mi half-width"
    );
    assert!(!result.contains(&ObjectId(2)), "object 6 mi east outside");
    // Move object 1 north out of the 2-mile half-height but stay within x.
    s.velocities[1] = Vec2::new(0.0, 0.1);
    s.step();
    s.velocities[1] = Vec2::ZERO;
    for _ in 0..2 {
        s.step();
    }
    assert!(
        !s.server.query_result(qid).unwrap().contains(&ObjectId(1)),
        "object 3 mi north must be outside the 2-mile half-height"
    );
}

#[test]
fn query_churn_installs_and_removes_cleanly() {
    let mut s = stack(6, false);
    let q1 = s.server.install_query(
        ObjectId(0),
        QueryRegion::circle(4.0),
        Filter::True,
        &mut s.net,
    );
    for _ in 0..3 {
        s.step();
    }
    assert!(!s.server.query_result(q1).unwrap().is_empty());

    // Install a second query mid-run, on a different focal.
    let q2 = s.server.install_query(
        ObjectId(3),
        QueryRegion::circle(4.0),
        Filter::True,
        &mut s.net,
    );
    for _ in 0..3 {
        s.step();
    }
    assert!(s.server.query_result(q2).unwrap().contains(&ObjectId(2)));

    // Remove the first query: state must clear everywhere.
    assert!(s.server.remove_query(q1, &mut s.net));
    for _ in 0..2 {
        s.step();
    }
    assert!(s.server.query_result(q1).is_none());
    for a in &s.agents {
        assert!(
            !a.installed_queries().any(|q| q == q1),
            "agent kept removed query"
        );
    }
    // The second query keeps working.
    assert!(s.server.query_result(q2).unwrap().contains(&ObjectId(2)));
    // Object 0 is no longer focal.
    assert!(!s.agents[0].has_mq());
    assert!(s.agents[3].has_mq());
}

#[test]
fn focal_with_more_than_64_queries_stays_correct() {
    // 70 concentric queries on one focal exhaust the 64-slot group bitmap;
    // the overflow queries must fall back to itemized reports without
    // corrupting any result.
    let mut s = stack(4, true);
    let qids: Vec<_> = (0..70)
        .map(|i| {
            s.server.install_query(
                ObjectId(0),
                QueryRegion::circle(2.0 + 0.1 * i as f64),
                Filter::True,
                &mut s.net,
            )
        })
        .collect();
    for _ in 0..4 {
        s.step();
    }
    // Object 1 sits 3 miles east: it belongs exactly to the queries with
    // radius >= 3 (i = 10..70).
    for (i, &qid) in qids.iter().enumerate() {
        let inside = 2.0 + 0.1 * i as f64 >= 3.0;
        let got = s.server.query_result(qid).unwrap().contains(&ObjectId(1));
        assert_eq!(got, inside, "query {i} (r={})", 2.0 + 0.1 * i as f64);
    }
    // Removing an overflow query and a slotted query both clean up.
    assert!(s.server.remove_query(qids[69], &mut s.net));
    assert!(s.server.remove_query(qids[0], &mut s.net));
    for _ in 0..2 {
        s.step();
    }
    s.server.check_invariants();
}

#[test]
fn reinstalled_focal_keeps_reporting() {
    // Remove a focal's only query, then bind a new query to the same
    // object: the hasMQ flag must flip off and on again and dead reckoning
    // must resume.
    let mut s = stack(3, false);
    let q1 = s.server.install_query(
        ObjectId(0),
        QueryRegion::circle(5.0),
        Filter::True,
        &mut s.net,
    );
    for _ in 0..3 {
        s.step();
    }
    assert!(s.agents[0].has_mq());
    s.server.remove_query(q1, &mut s.net);
    for _ in 0..2 {
        s.step();
    }
    assert!(!s.agents[0].has_mq());
    let q2 = s.server.install_query(
        ObjectId(0),
        QueryRegion::circle(5.0),
        Filter::True,
        &mut s.net,
    );
    for _ in 0..3 {
        s.step();
    }
    assert!(s.agents[0].has_mq());
    assert!(s.server.query_result(q2).unwrap().contains(&ObjectId(1)));
}
