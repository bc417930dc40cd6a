//! Renders a running MobiEyes deployment as an SVG snapshot: the grid,
//! base-station coverage, moving objects, query circles and their
//! monitoring regions. Useful for building intuition about the protocol's
//! geometry (and for documentation).
//!
//! Run with: `cargo run --example visualize --release`
//! Output:   `results/snapshot.svg`

use mobieyes::core::server::Net;
use mobieyes::net::BaseStationLayout;
use mobieyes::prelude::*;
use mobieyes::sim::Rng;
use std::fmt::Write as _;
use std::sync::Arc;

const SIDE: f64 = 100.0;
const ALPHA: f64 = 10.0;
const ALEN: f64 = 20.0;
const SCALE: f64 = 8.0; // px per mile

fn px(v: f64) -> f64 {
    v * SCALE
}

/// y-axis flip: SVG grows downward, our universe grows upward.
fn py(v: f64) -> f64 {
    (SIDE - v) * SCALE
}

fn main() {
    let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
    let grid = Grid::new(universe, ALPHA);
    let layout = BaseStationLayout::new(universe, ALEN);
    let config = Arc::new(ProtocolConfig::new(grid.clone()));
    let mut net = Net::new(layout.clone());
    let mut server = Server::new(Arc::clone(&config));
    let mut rng = Rng::new(42);

    // 120 wandering objects.
    let n = 120;
    let mut positions: Vec<Point> = Vec::new();
    let mut velocities: Vec<Vec2> = Vec::new();
    let mut agents: Vec<MovingObjectAgent> = (0..n)
        .map(|i| {
            let pos = Point::new(rng.range(0.0, SIDE), rng.range(0.0, SIDE));
            let vel =
                Vec2::from_angle(rng.range(0.0, std::f64::consts::TAU)) * rng.range(0.0, 0.02);
            positions.push(pos);
            velocities.push(vel);
            MovingObjectAgent::new(ObjectId(i as u32), Properties::new(), &config, pos)
        })
        .collect();

    // Three moving queries with different radii.
    let radii = [6.0, 9.0, 4.0];
    let focals = [ObjectId(5), ObjectId(40), ObjectId(90)];
    let qids: Vec<_> = focals
        .iter()
        .zip(&radii)
        .map(|(&f, &r)| server.install_query(f, QueryRegion::circle(r), Filter::True, &mut net))
        .collect();

    // Run a few minutes so state settles and things move.
    for step in 0..12 {
        let t = step as f64 * 30.0;
        for i in 0..n {
            let mut p = positions[i] + velocities[i] * 30.0;
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
                Kinematics::new(positions[i], velocities[i], 0.02),
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
                Kinematics::new(positions[i], velocities[i], 0.02),
                inbox.iter().map(|m| &**m),
                &mut net,
            );
        }
        net.end_tick();
        server.tick(&mut net);
    }

    // --- render -------------------------------------------------------------
    let size = px(SIDE);
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">"##
    );
    let _ = writeln!(
        svg,
        r##"<rect width="{size}" height="{size}" fill="#fbfbf8"/>"##
    );

    // Grid lines.
    let mut k = 0.0;
    while k <= SIDE + 1e-9 {
        let v = px(k);
        let _ = writeln!(
            svg,
            r##"<line x1="{v}" y1="0" x2="{v}" y2="{size}" stroke="#ddd" stroke-width="1"/>"##
        );
        let _ = writeln!(
            svg,
            r##"<line x1="0" y1="{v}" x2="{size}" y2="{v}" stroke="#ddd" stroke-width="1"/>"##
        );
        k += ALPHA;
    }

    // Base-station coverage circles.
    for s in 0..layout.num_stations() {
        let c = layout.center(mobieyes::net::StationId(s as u32));
        let _ = writeln!(
            svg,
            r##"<circle cx="{}" cy="{}" r="{}" fill="none" stroke="#b8d4e8" stroke-width="1" stroke-dasharray="4 4"/>"##,
            px(c.x),
            py(c.y),
            px(layout.coverage_radius())
        );
    }

    // Monitoring regions (shaded cells) and query circles.
    let colors = ["#d23f31", "#2b6cb0", "#2f855a"];
    for ((&qid, &focal), (color, &radius)) in
        qids.iter().zip(&focals).zip(colors.iter().zip(&radii))
    {
        let fpos = positions[focal.0 as usize];
        let cell = grid.cell_of(fpos);
        let mon = grid.monitoring_region(cell, radius);
        for c in mon.iter() {
            let r = grid.cell_rect(c);
            let _ = writeln!(
                svg,
                r##"<rect x="{}" y="{}" width="{}" height="{}" fill="{color}" fill-opacity="0.06"/>"##,
                px(r.lx),
                py(r.hy()),
                px(r.w()),
                px(r.h())
            );
        }
        let _ = writeln!(
            svg,
            r##"<circle cx="{}" cy="{}" r="{}" fill="{color}" fill-opacity="0.10" stroke="{color}" stroke-width="2"/>"##,
            px(fpos.x),
            py(fpos.y),
            px(radius)
        );
        // Focal marker.
        let _ = writeln!(
            svg,
            r##"<circle cx="{}" cy="{}" r="6" fill="{color}"/>"##,
            px(fpos.x),
            py(fpos.y)
        );
        let members = server.query_result(qid).map(|r| r.len()).unwrap_or(0);
        let _ = writeln!(
            svg,
            r##"<text x="{}" y="{}" font-family="sans-serif" font-size="13" fill="{color}">{:?}: {} objects</text>"##,
            px(fpos.x) + 10.0,
            py(fpos.y) - 10.0,
            qid,
            members
        );
    }

    // Objects: targets of some query are filled, others hollow.
    for (i, p) in positions.iter().enumerate() {
        let is_target = qids.iter().any(|&q| {
            server
                .query_result(q)
                .map(|r| r.contains(&ObjectId(i as u32)))
                .unwrap_or(false)
        });
        if is_target {
            let _ = writeln!(
                svg,
                r##"<circle cx="{}" cy="{}" r="3.5" fill="#333"/>"##,
                px(p.x),
                py(p.y)
            );
        } else {
            let _ = writeln!(
                svg,
                r##"<circle cx="{}" cy="{}" r="2.5" fill="none" stroke="#777" stroke-width="1"/>"##,
                px(p.x),
                py(p.y)
            );
        }
    }
    let _ = writeln!(svg, "</svg>");

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/snapshot.svg", &svg).expect("write svg");
    println!("wrote results/snapshot.svg ({} bytes)", svg.len());
    for (&qid, &f) in qids.iter().zip(&focals) {
        let r = server.query_result(qid).unwrap();
        println!("{qid:?} (focal {f:?}): {} objects in result", r.len());
    }
    // Sanity: the protocol's answer matches a direct geometric check.
    for ((&qid, &focal), &radius) in qids.iter().zip(&focals).zip(&radii) {
        let fpos = positions[focal.0 as usize];
        let expect = positions
            .iter()
            .filter(|p| QueryRegion::circle(radius).contains_from(fpos, **p))
            .count();
        let got = server.query_result(qid).unwrap().len();
        assert!(
            (expect as i64 - got as i64).abs() <= 2,
            "{qid:?}: protocol {got} vs geometric {expect}"
        );
    }
    println!("protocol results verified against direct geometry");
}
