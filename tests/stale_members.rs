//! Regression tests for result staleness: an object that leaves a query's
//! monitoring region (by fast movement or by a region shrink) while being
//! a target must disappear from the server's result — silently dropping
//! the LQT entry is not enough.

use mobieyes::core::server::Net;
use mobieyes::core::{
    Filter, Kinematics, MovingObjectAgent, ObjectId, Propagation, Properties, ProtocolConfig,
    Server,
};
use mobieyes::geo::{Grid, Point, QueryRegion, Rect, Vec2};
use mobieyes::net::BaseStationLayout;
use std::sync::Arc;

const SIDE: f64 = 100.0;
const TS: f64 = 30.0;

fn build(propagation: Propagation) -> (Server, Net, Arc<ProtocolConfig>) {
    let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
    let config =
        Arc::new(ProtocolConfig::new(Grid::new(universe, 10.0)).with_propagation(propagation));
    let server = Server::new(Arc::clone(&config));
    let net = Net::new(BaseStationLayout::new(universe, 25.0));
    (server, net, config)
}

fn step(
    t: f64,
    agents: &mut [MovingObjectAgent],
    positions: &[Point],
    velocities: &[Vec2],
    server: &mut Server,
    net: &mut Net,
) {
    let config = server.config_arc();
    let body = |i: usize| Kinematics::new(positions[i], velocities[i], 0.1);
    for (i, a) in agents.iter_mut().enumerate() {
        a.tick_motion(&config, t, body(i), net);
    }
    server.tick(net);
    for (i, a) in agents.iter_mut().enumerate() {
        let mut inbox = Vec::new();
        net.deliver(a.oid().node(), positions[i], &mut inbox);
        a.tick_process(&config, t, body(i), inbox.iter().map(|m| &**m), net);
    }
    net.end_tick();
    server.tick(net);
    server.check_invariants();
}

/// A target object teleporting far outside the monitoring region in one
/// step must be reported out — under both propagation modes (LQP silences
/// new-query discovery, never result maintenance).
#[test]
fn fast_exit_reports_departure() {
    for propagation in [Propagation::Eager, Propagation::Lazy] {
        let (mut server, mut net, config) = build(propagation);
        let mut agents = vec![
            MovingObjectAgent::new(
                ObjectId(0),
                Properties::new(),
                &config,
                Point::new(55.0, 55.0),
            ),
            MovingObjectAgent::new(
                ObjectId(1),
                Properties::new(),
                &config,
                Point::new(56.0, 55.0),
            ),
        ];
        let mut positions = vec![Point::new(55.0, 55.0), Point::new(56.0, 55.0)];
        let velocities = vec![Vec2::ZERO; 2];
        let qid = server.install_query(
            ObjectId(0),
            QueryRegion::circle(4.0),
            Filter::True,
            &mut net,
        );
        for k in 1..=3 {
            step(
                k as f64 * TS,
                &mut agents,
                &positions,
                &velocities,
                &mut server,
                &mut net,
            );
        }
        assert!(
            server.query_result(qid).unwrap().contains(&ObjectId(1)),
            "{propagation:?}: object must join first"
        );
        // Teleport object 1 across the universe (outside the monitoring
        // region in a single step).
        positions[1] = Point::new(5.0, 5.0);
        for k in 4..=6 {
            step(
                k as f64 * TS,
                &mut agents,
                &positions,
                &velocities,
                &mut server,
                &mut net,
            );
        }
        assert!(
            !server.query_result(qid).unwrap().contains(&ObjectId(1)),
            "{propagation:?}: stale member survived a fast exit"
        );
    }
}

/// Shrinking a query's region (via the server query-update API) must evict
/// targets that fall outside the new monitoring region.
#[test]
fn region_shrink_evicts_far_targets() {
    let (mut server, mut net, config) = build(Propagation::Eager);
    let mut agents: Vec<MovingObjectAgent> = (0..3)
        .map(|i| {
            MovingObjectAgent::new(
                ObjectId(i),
                Properties::new(),
                &config,
                Point::new(50.0 + 12.0 * i as f64, 55.0),
            )
        })
        .collect();
    let positions: Vec<Point> = (0..3)
        .map(|i| Point::new(50.0 + 12.0 * i as f64, 55.0))
        .collect();
    let velocities = vec![Vec2::ZERO; 3];
    // Radius 30: both other objects (12 and 24 miles away) are targets.
    let qid = server.install_query(
        ObjectId(0),
        QueryRegion::circle(30.0),
        Filter::True,
        &mut net,
    );
    for k in 1..=3 {
        step(
            k as f64 * TS,
            &mut agents,
            &positions,
            &velocities,
            &mut server,
            &mut net,
        );
    }
    let r = server.query_result(qid).unwrap();
    assert!(r.contains(&ObjectId(1)) && r.contains(&ObjectId(2)));

    // Shrink to radius 4: object 2 (24 mi away) leaves the monitoring
    // region entirely; object 1 (12 mi) stays in it but outside the circle.
    assert!(server.update_query_region(qid, QueryRegion::circle(4.0), &mut net));
    for k in 4..=6 {
        step(
            k as f64 * TS,
            &mut agents,
            &positions,
            &velocities,
            &mut server,
            &mut net,
        );
    }
    let r = server.query_result(qid).unwrap();
    assert!(
        !r.contains(&ObjectId(1)),
        "object inside region but outside circle must leave"
    );
    assert!(
        !r.contains(&ObjectId(2)),
        "object outside shrunk region must leave"
    );

    // Growing it back re-admits them.
    assert!(server.update_query_region(qid, QueryRegion::circle(30.0), &mut net));
    for k in 7..=9 {
        step(
            k as f64 * TS,
            &mut agents,
            &positions,
            &velocities,
            &mut server,
            &mut net,
        );
    }
    let r = server.query_result(qid).unwrap();
    assert!(
        r.contains(&ObjectId(1)) && r.contains(&ObjectId(2)),
        "grown region re-admits"
    );
}
