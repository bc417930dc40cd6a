//! The wire budget of a remote deployment, as a deterministic count: the
//! coordinator waits only for ops that move the epoch, queue a bus
//! envelope or change what a partition homes. Everything else — here the
//! cell changes of non-focal objects, the bulk of an eager-mode tick —
//! rides the posted lane, and what the lane replays onto the agent
//! network is what an in-process cluster emits, in the same order.

mod common;

use mobieyes_cluster::ClusterServer;
use mobieyes_core::server::Net;
use mobieyes_core::{Downlink, Filter, ObjectId, ProtocolConfig, Uplink};
use mobieyes_geo::{Grid, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::fault::mix64;
use mobieyes_net::{BaseStationLayout, NodeId};
use mobieyes_telemetry::{rpc_keys, Telemetry};
use std::sync::Arc;

const PARTITIONS: usize = 2;
const FOCALS: u32 = 8;
const OBJECTS: u32 = 160;
const TICKS: usize = 30;
/// Waited round trips per uplink the workload may cost: twice the 0.10
/// it measures (247 for 2 455 uplinks). A call for the fresh half of every
/// cell change, the state before the lane carried it, puts it above 1.
const ROUND_TRIP_BUDGET: f64 = 0.2;

fn universe() -> Rect {
    Rect::new(0.0, 0.0, 100.0, 100.0)
}

/// The next draw in `[0, 1)` of a counter-hashed stream — the workload
/// must repeat to the last uplink.
fn unit(rng: &mut u64) -> f64 {
    *rng += 1;
    (mix64(*rng) >> 11) as f64 / (1u64 << 53) as f64
}

/// Every downlink of one tick: unicasts then broadcasts, in queue order.
type TickDownlinks = Vec<(u32, Downlink)>;

struct Run {
    downlinks: Vec<TickDownlinks>,
    uplinks: u64,
    non_focal_cell_changes: u64,
}

/// Objects `0..FOCALS` carry one query each; everyone takes a random step
/// per tick and reports the cell changes (focals every third tick a
/// velocity change too), all through `tick` so closed ops batch.
fn drive(cluster: &mut ClusterServer) -> Run {
    let grid = cluster.config().grid.clone();
    let mut net = Net::new(BaseStationLayout::new(universe(), 10.0));
    let mut rng = 7u64;
    let mut pos: Vec<Point> = (0..OBJECTS)
        .map(|_| Point::new(5.0 + 90.0 * unit(&mut rng), 5.0 + 90.0 * unit(&mut rng)))
        .collect();
    let motion = |p: Point, tm: f64| LinearMotion::new(p, Vec2::new(0.0, 0.0), tm);
    for oid in 0..FOCALS {
        cluster.install_query(
            ObjectId(oid),
            QueryRegion::circle(6.0),
            Filter::True,
            &mut net,
        );
        let reply = Uplink::PositionReply {
            oid: ObjectId(oid),
            motion: motion(pos[oid as usize], 0.0),
            max_vel: 0.05,
        };
        net.send_uplink(NodeId(oid), reply);
    }
    let mut run = Run {
        downlinks: Vec::new(),
        uplinks: 0,
        non_focal_cell_changes: 0,
    };
    for tick in 0..TICKS {
        let tm = tick as f64 + 1.0;
        for oid in 0..OBJECTS {
            let p = &mut pos[oid as usize];
            let prev_cell = grid.cell_of(*p);
            p.x = (p.x + 6.0 * (unit(&mut rng) - 0.5)).clamp(1.0, 99.0);
            p.y = (p.y + 6.0 * (unit(&mut rng) - 0.5)).clamp(1.0, 99.0);
            let new_cell = grid.cell_of(*p);
            if new_cell != prev_cell {
                run.non_focal_cell_changes += u64::from(oid >= FOCALS);
                let msg = Uplink::CellChange {
                    oid: ObjectId(oid),
                    prev_cell,
                    new_cell,
                    motion: motion(*p, tm),
                };
                net.send_uplink(NodeId(oid), msg);
            } else if oid < FOCALS && tick % 3 == 0 {
                let msg = Uplink::VelocityReport {
                    oid: ObjectId(oid),
                    motion: motion(*p, tm),
                };
                net.send_uplink(NodeId(oid), msg);
            }
        }
        cluster.tick(&mut net);
        let (unicasts, broadcasts) = net.take_downlinks();
        let unicasts = unicasts.iter().map(|(n, m, _)| (n.0, (**m).clone()));
        let broadcasts = broadcasts.iter().map(|(s, m, _)| (s.0, (**m).clone()));
        run.downlinks.push(unicasts.chain(broadcasts).collect());
        net.end_tick();
    }
    cluster.check_invariants();
    run.uplinks = (0..PARTITIONS).map(|p| cluster.partition_ops(p)).sum();
    run
}

#[test]
fn non_focal_cell_changes_ride_the_lane_and_replay_in_lockstep_order() {
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe(), 5.0)));

    let mut local = ClusterServer::new(Arc::clone(&config), PARTITIONS, Telemetry::new());
    let reference = drive(&mut local);

    let (conns, services) = common::host_partitions(PARTITIONS);
    let mut remote =
        ClusterServer::new_remote_with_store(config, Telemetry::new(), conns, 10.0, None);
    let hosted = drive(&mut remote);
    let rpc = remote.bus_telemetry().snapshot();
    common::stop(remote, services);

    assert_eq!(hosted.uplinks, reference.uplinks);
    for (tick, (h, r)) in hosted
        .downlinks
        .iter()
        .zip(&reference.downlinks)
        .enumerate()
    {
        assert_eq!(h, r, "downlink stream diverges at tick {tick}");
    }
    assert!(
        reference.non_focal_cell_changes > 20 * TICKS as u64,
        "the workload must be mostly non-focal cell changes: {}",
        reference.non_focal_cell_changes
    );

    let round_trips = rpc.counter(rpc_keys::ROUND_TRIPS);
    let posted = rpc.counter(rpc_keys::POSTED);
    let per_uplink = round_trips as f64 / hosted.uplinks as f64;
    assert!(
        per_uplink < ROUND_TRIP_BUDGET,
        "{round_trips} waited round trips for {} uplinks ({per_uplink:.3} each)",
        hosted.uplinks
    );
    assert!(
        posted >= hosted.non_focal_cell_changes,
        "{posted} posted ops for {} non-focal cell changes",
        hosted.non_focal_cell_changes
    );
}
