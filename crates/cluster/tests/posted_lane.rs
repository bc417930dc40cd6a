//! The wire budget of a remote deployment, as a deterministic count: the
//! coordinator waits only for ops that move the epoch, queue a bus
//! envelope or change what a partition homes. Everything else — here the
//! cell changes of non-focal objects, the bulk of an eager-mode tick —
//! rides the posted lane, and what the lane replays onto the agent
//! network is what an in-process cluster emits, in the same order. A call
//! wakes only its own partition: the flush count is pinned below what
//! collecting every partition's posted replies before each call costs.

mod common;

use mobieyes_cluster::ClusterServer;
use mobieyes_core::server::Net;
use mobieyes_core::{Downlink, Filter, ObjectId, ProtocolConfig, Uplink};
use mobieyes_geo::{Grid, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::fault::mix64;
use mobieyes_net::{BaseStationLayout, NodeId};
use mobieyes_telemetry::{rpc_keys, Telemetry};
use std::sync::Arc;

const OBJECTS: u32 = 160;
const TICKS: usize = 30;
/// Waited round trips per uplink the workload may cost: twice the 0.10
/// it measures (247 for 2 455 uplinks). A call for the fresh half of every
/// cell change, the state before the lane carried it, puts it above 1.
const ROUND_TRIP_BUDGET: f64 = 0.2;

/// One workload: how many partitions host it, and how many objects carry
/// how many queries each.
struct Shape {
    partitions: usize,
    focals: u32,
    queries_per_focal: u32,
    /// Flushes — partition wake-ups — the whole run may cost. Collecting
    /// every partition's posted replies before each call costs more.
    flush_budget: u64,
}

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

/// Objects `0..shape.focals` carry the queries; everyone takes a random
/// step per tick and reports the cell changes (focals every third tick a
/// velocity change too), all through `tick` so closed ops batch.
fn drive(cluster: &mut ClusterServer, shape: &Shape) -> Run {
    let grid = cluster.config().grid.clone();
    let mut net = Net::new(BaseStationLayout::new(universe(), 10.0));
    let mut rng = 7u64;
    let mut pos: Vec<Point> = (0..OBJECTS)
        .map(|_| Point::new(5.0 + 90.0 * unit(&mut rng), 5.0 + 90.0 * unit(&mut rng)))
        .collect();
    let motion = |p: Point, tm: f64| LinearMotion::new(p, Vec2::new(0.0, 0.0), tm);
    for oid in 0..shape.focals {
        for _ in 0..shape.queries_per_focal {
            let region = QueryRegion::circle(6.0);
            cluster.install_query(ObjectId(oid), region, Filter::True, &mut net);
        }
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
                run.non_focal_cell_changes += u64::from(oid >= shape.focals);
                let msg = Uplink::CellChange {
                    oid: ObjectId(oid),
                    prev_cell,
                    new_cell,
                    motion: motion(*p, tm),
                };
                net.send_uplink(NodeId(oid), msg);
            } else if oid < shape.focals && tick % 3 == 0 {
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
    run.uplinks = (0..shape.partitions)
        .map(|p| cluster.partition_ops(p))
        .sum();
    run
}

/// Runs `shape` in process and over thread-hosted partition services and
/// checks the hosted run against the in-process reference; returns the
/// hosted run and its RPC counts.
fn hosted_against_reference(shape: &Shape) -> (Run, mobieyes_telemetry::MetricsSnapshot) {
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe(), 5.0)));

    let local = ClusterServer::new(
        Arc::clone(&config),
        shape.partitions,
        Telemetry::new(),
        None,
    );
    let mut local = local.expect("in-process cluster");
    let reference = drive(&mut local, shape);

    let (conns, services) = common::host_partitions(shape.partitions);
    let remote = ClusterServer::new_remote_with_store(config, Telemetry::new(), conns, 10.0, None);
    let mut remote = remote.expect("every partition initializes");
    let hosted = drive(&mut remote, shape);
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
    let flushes = rpc.counter(rpc_keys::FLUSHES);
    assert!(
        flushes <= shape.flush_budget,
        "{flushes} flushes, budget {}",
        shape.flush_budget
    );
    (hosted, rpc)
}

#[test]
fn non_focal_cell_changes_ride_the_lane_and_replay_in_lockstep_order() {
    let shape = Shape {
        partitions: 2,
        focals: 8,
        queries_per_focal: 1,
        // Measures 307; collecting every lane before each call, 399.
        flush_budget: 340,
    };
    let (hosted, rpc) = hosted_against_reference(&shape);
    assert!(
        hosted.non_focal_cell_changes > 20 * TICKS as u64,
        "the workload must be mostly non-focal cell changes: {}",
        hosted.non_focal_cell_changes
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

/// Four partitions and a few focal objects with several queries each:
/// focal cell changes and velocity reports are calls at one partition
/// while posts wait on the others, and the lane keeps the downlink stream
/// the in-process one.
#[test]
fn focal_calls_interleave_with_posts_on_other_partitions_in_lockstep_order() {
    let shape = Shape {
        partitions: 4,
        focals: 6,
        queries_per_focal: 3,
        // Measures 595; collecting every lane before each call, 661.
        flush_budget: 625,
    };
    let (hosted, rpc) = hosted_against_reference(&shape);
    let round_trips = rpc.counter(rpc_keys::ROUND_TRIPS);
    assert!(
        round_trips > 4 * TICKS as u64,
        "the workload must interleave calls with posts: {round_trips} round trips"
    );
    assert!(hosted.non_focal_cell_changes > 0);
}
