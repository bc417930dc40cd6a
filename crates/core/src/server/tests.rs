use super::*;
use crate::codec::Wire;
use crate::messages::CellDigests;
use mobieyes_geo::{Grid, Point, Rect, Vec2};
use mobieyes_net::BaseStationLayout;

// A checkpoint table count is checked against at least the minimum
// its hand-written decoder used.
const _: () = {
    assert!(<(ObjectId, FotEntry)>::MIN_LEN >= 20);
    assert!(<(QueryId, SqtEntry)>::MIN_LEN >= 24);
    assert!(<(u32, Vec<QueryId>)>::MIN_LEN >= 8);
    assert!(<(ObjectId, Vec<PendingInstall>)>::MIN_LEN >= 8);
    assert!(PendingInstall::MIN_LEN >= 8);
    assert!(<(QueryId, StubEntry)>::MIN_LEN >= 24);
};

/// A focal id past the slotted range — a stray id off the wire, a
/// damaged checkpoint — is stored, found and removed without growing
/// the slot array to its value.
#[test]
fn fot_ids_past_the_slotted_range_take_no_slot() {
    let row = || FotEntry {
        motion: LinearMotion::at_rest(Point::new(1.0, 1.0), 0.0),
        max_vel: 0.05,
        queries: Vec::new(),
        used_slots: 0,
        last_heard: 0.0,
    };
    let (near, far) = (ObjectId(3), ObjectId(u32::MAX));
    let mut fot = FotTable::default();
    fot.entry_or_insert(far, row());
    fot.entry_or_insert(near, row());
    assert_eq!(fot.slots.len(), 4, "only the slotted id took slots");
    assert!(fot.contains_key(&near) && fot.contains_key(&far));
    assert_eq!(fot.keys().collect::<Vec<_>>(), [&near, &far]);
    assert!(fot.remove(&far).is_some());
    assert!(!fot.contains_key(&far) && fot.get(&near).is_some());
}

fn setup(propagation: Propagation, grouping: bool) -> (Server, Net, Arc<ProtocolConfig>) {
    let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
    let grid = Grid::new(universe, 10.0);
    let config = Arc::new(
        ProtocolConfig::new(grid)
            .with_propagation(propagation)
            .with_grouping(grouping),
    );
    let server = Server::new(Arc::clone(&config));
    let net = Net::new(BaseStationLayout::new(universe, 20.0));
    (server, net, config)
}

fn motion_at(x: f64, y: f64) -> LinearMotion {
    LinearMotion::new(Point::new(x, y), Vec2::new(0.001, 0.0), 0.0)
}

/// Puts `oid` into the FOT by replaying the position-request handshake.
fn register(server: &mut Server, net: &mut Net, oid: ObjectId, x: f64, y: f64) {
    server.handle_uplink(
        oid.node(),
        Uplink::PositionReply {
            oid,
            motion: motion_at(x, y),
            max_vel: 0.03,
        },
        net,
    );
}

#[test]
fn install_with_unknown_focal_defers_and_requests_position() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    let qid = server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    // Not installed yet; a position request went out.
    assert_eq!(server.num_queries(), 0);
    assert_eq!(net.meter().unicast_msgs, 1);
    // The reply completes the install.
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    assert_eq!(server.num_queries(), 1);
    assert_eq!(server.query_focal(qid), Some(ObjectId(1)));
    server.check_invariants();
    // Install broadcast(s) plus the focal notification.
    assert!(net.meter().broadcast_msgs >= 1);
    assert!(net.meter().unicast_msgs >= 2);
}

#[test]
fn install_with_known_focal_is_immediate() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    let qid = server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    assert_eq!(server.num_queries(), 1);
    server.check_invariants();
    // Monitoring region covers the focal cell and neighbors.
    let cell = server.config().grid.cell_of(Point::new(55.0, 55.0));
    assert!(server.nearby_queries(cell).contains(&qid));
}

#[test]
fn multiple_pending_installs_one_position_request() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    server.install_query(
        ObjectId(9),
        QueryRegion::circle(2.0),
        Filter::True,
        &mut net,
    );
    server.install_query(
        ObjectId(9),
        QueryRegion::circle(5.0),
        Filter::True,
        &mut net,
    );
    assert_eq!(
        net.meter().unicast_msgs,
        1,
        "one position request for both installs"
    );
    register(&mut server, &mut net, ObjectId(9), 20.0, 20.0);
    assert_eq!(server.num_queries(), 2);
    server.check_invariants();
}

#[test]
fn remove_query_cleans_all_state() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    let qid = server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    assert!(server.remove_query(qid, &mut net));
    assert_eq!(server.num_queries(), 0);
    let cell = server.config().grid.cell_of(Point::new(55.0, 55.0));
    assert!(server.nearby_queries(cell).is_empty());
    server.check_invariants();
    assert!(!server.remove_query(qid, &mut net), "double remove fails");
}

#[test]
fn result_updates_are_differential() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    let qid = server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    server.handle_uplink(
        NodeId(2),
        Uplink::ResultUpdate {
            oid: ObjectId(2),
            changes: vec![(qid, true)],
        },
        &mut net,
    );
    assert!(server.query_result(qid).unwrap().contains(&ObjectId(2)));
    server.handle_uplink(
        NodeId(2),
        Uplink::ResultUpdate {
            oid: ObjectId(2),
            changes: vec![(qid, false)],
        },
        &mut net,
    );
    assert!(!server.query_result(qid).unwrap().contains(&ObjectId(2)));
}

#[test]
fn velocity_report_triggers_region_broadcast() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    let before = net.meter().broadcast_msgs;
    server.handle_uplink(
        NodeId(1),
        Uplink::VelocityReport {
            oid: ObjectId(1),
            motion: motion_at(56.0, 55.0),
        },
        &mut net,
    );
    assert!(net.meter().broadcast_msgs > before);
    assert_eq!(server.stats().velocity_reports, 1);
}

#[test]
fn velocity_report_from_non_focal_is_ignored() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    let before = net.meter().broadcast_msgs;
    server.handle_uplink(
        NodeId(3),
        Uplink::VelocityReport {
            oid: ObjectId(3),
            motion: motion_at(1.0, 1.0),
        },
        &mut net,
    );
    assert_eq!(net.meter().broadcast_msgs, before);
}

#[test]
fn focal_cell_change_moves_monitoring_region() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    let qid = server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    let grid = server.config().grid.clone();
    let old_cell = grid.cell_of(Point::new(55.0, 55.0));
    let new_cell = grid.cell_of(Point::new(75.0, 55.0));
    server.handle_uplink(
        NodeId(1),
        Uplink::CellChange {
            oid: ObjectId(1),
            prev_cell: old_cell,
            new_cell,
            motion: motion_at(75.0, 55.0),
        },
        &mut net,
    );
    server.check_invariants();
    assert!(server.nearby_queries(new_cell).contains(&qid));
    // The old cell is two cells away from the new one, outside the new
    // monitoring region for r=3 < α=10.
    assert!(!server.nearby_queries(old_cell).contains(&qid));
}

#[test]
fn non_focal_cell_change_gets_new_queries_unicast() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    let grid = server.config().grid.clone();
    // Object 2 moves from far away into the query's monitoring region.
    let before = net.meter().unicast_msgs;
    server.handle_uplink(
        NodeId(2),
        Uplink::CellChange {
            oid: ObjectId(2),
            prev_cell: grid.cell_of(Point::new(5.0, 5.0)),
            new_cell: grid.cell_of(Point::new(55.0, 55.0)),
            motion: motion_at(55.0, 55.0),
        },
        &mut net,
    );
    assert_eq!(
        net.meter().unicast_msgs,
        before + 1,
        "expected NewQueries unicast"
    );
    // Moving between two cells both outside any monitoring region sends
    // nothing.
    let before = net.meter().unicast_msgs;
    server.handle_uplink(
        NodeId(3),
        Uplink::CellChange {
            oid: ObjectId(3),
            prev_cell: grid.cell_of(Point::new(5.0, 5.0)),
            new_cell: grid.cell_of(Point::new(15.0, 5.0)),
            motion: motion_at(15.0, 5.0),
        },
        &mut net,
    );
    assert_eq!(net.meter().unicast_msgs, before);
}

#[test]
fn grouping_coalesces_same_region_queries() {
    // Two queries, same focal, same radius class -> same monitoring
    // region -> one grouped broadcast per velocity report.
    let (mut server, mut net, _) = setup(Propagation::Eager, true);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    server.install_query(
        ObjectId(1),
        QueryRegion::circle(2.5),
        Filter::True,
        &mut net,
    );
    let before = net.meter().broadcast_msgs;
    server.handle_uplink(
        NodeId(1),
        Uplink::VelocityReport {
            oid: ObjectId(1),
            motion: motion_at(56.0, 55.0),
        },
        &mut net,
    );
    let grouped_broadcasts = net.meter().broadcast_msgs - before;

    // Same scenario without grouping: two broadcasts.
    let (mut server2, mut net2, _) = setup(Propagation::Eager, false);
    register(&mut server2, &mut net2, ObjectId(1), 55.0, 55.0);
    server2.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net2,
    );
    server2.install_query(
        ObjectId(1),
        QueryRegion::circle(2.5),
        Filter::True,
        &mut net2,
    );
    let before2 = net2.meter().broadcast_msgs;
    server2.handle_uplink(
        NodeId(1),
        Uplink::VelocityReport {
            oid: ObjectId(1),
            motion: motion_at(56.0, 55.0),
        },
        &mut net2,
    );
    let ungrouped_broadcasts = net2.meter().broadcast_msgs - before2;
    assert!(grouped_broadcasts < ungrouped_broadcasts);
}

#[test]
fn group_result_update_sets_membership_by_slot() {
    let (mut server, mut net, _) = setup(Propagation::Eager, true);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    let q1 = server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    let q2 = server.install_query(
        ObjectId(1),
        QueryRegion::circle(2.0),
        Filter::True,
        &mut net,
    );
    // Object 5 reports: inside q1 (slot 0), outside q2 (slot 1).
    server.handle_uplink(
        NodeId(5),
        Uplink::GroupResultUpdate {
            oid: ObjectId(5),
            focal: ObjectId(1),
            mask: 0b11,
            targets: 0b01,
        },
        &mut net,
    );
    assert!(server.query_result(q1).unwrap().contains(&ObjectId(5)));
    assert!(!server.query_result(q2).unwrap().contains(&ObjectId(5)));
    // Masked-out bits leave membership untouched.
    server.handle_uplink(
        NodeId(5),
        Uplink::GroupResultUpdate {
            oid: ObjectId(5),
            focal: ObjectId(1),
            mask: 0b10,
            targets: 0b10,
        },
        &mut net,
    );
    assert!(
        server.query_result(q1).unwrap().contains(&ObjectId(5)),
        "q1 untouched"
    );
    assert!(server.query_result(q2).unwrap().contains(&ObjectId(5)));
}

#[test]
fn lazy_propagation_sends_full_state_on_velocity_change() {
    let (mut server, mut net, _) = setup(Propagation::Lazy, false);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    server.handle_uplink(
        NodeId(1),
        Uplink::VelocityReport {
            oid: ObjectId(1),
            motion: motion_at(56.0, 55.0),
        },
        &mut net,
    );
    // Deliver at a point inside the monitoring region and inspect.
    let mut inbox = Vec::new();
    net.deliver(NodeId(7), Point::new(55.0, 55.0), &mut inbox);
    assert!(
        inbox
            .iter()
            .any(|m| matches!(&**m, Downlink::QueryState { .. })),
        "lazy mode must ship full query state, got {inbox:?}"
    );
    assert!(
        !inbox
            .iter()
            .any(|m| matches!(&**m, Downlink::VelocityChange { .. })),
        "lazy mode must not ship bare velocity changes"
    );
}

#[test]
fn slot_reuse_after_removal() {
    let (mut server, mut net, _) = setup(Propagation::Eager, true);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    let _q1 = server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    let q2 = server.install_query(
        ObjectId(1),
        QueryRegion::circle(2.0),
        Filter::True,
        &mut net,
    );
    server.remove_query(q2, &mut net);
    let q3 = server.install_query(
        ObjectId(1),
        QueryRegion::circle(1.0),
        Filter::True,
        &mut net,
    );
    // q3 reuses q2's slot (slot 1).
    server.check_invariants();
    server.handle_uplink(
        NodeId(5),
        Uplink::GroupResultUpdate {
            oid: ObjectId(5),
            focal: ObjectId(1),
            mask: 0b10,
            targets: 0b10,
        },
        &mut net,
    );
    assert!(server.query_result(q3).unwrap().contains(&ObjectId(5)));
}

#[test]
fn removing_last_query_clears_focal_flag() {
    let (mut server, mut net, _) = setup(Propagation::Eager, false);
    register(&mut server, &mut net, ObjectId(1), 55.0, 55.0);
    let qid = server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    server.remove_query(qid, &mut net);
    // A FocalNotify{false} unicast went to the ex-focal object.
    let mut inbox = Vec::new();
    net.deliver(NodeId(1), Point::new(55.0, 55.0), &mut inbox);
    assert!(inbox
        .iter()
        .any(|m| **m == Downlink::FocalNotify { is_focal: false }));
}

/// A cell change or resync naming a cell off the grid is served for
/// the clamped cell, for a focal object and an ordinary one alike,
/// instead of indexing the RQI out of bounds.
#[test]
fn uplinks_naming_cells_off_the_grid_are_served_clamped() {
    let (mut server, mut net, config) = setup(Propagation::Eager, true);
    register(&mut server, &mut net, ObjectId(1), 95.0, 55.0);
    server.install_query(
        ObjectId(1),
        QueryRegion::circle(3.0),
        Filter::True,
        &mut net,
    );
    for cell in [CellId::new(2, 40), CellId::new(u32::MAX, u32::MAX)] {
        let clamped = config.grid.clamp_cell(cell);
        for oid in [ObjectId(1), ObjectId(2)] {
            let (prev_cell, motion) = (CellId::new(0, 0), motion_at(95.0, 95.0));
            let change = Uplink::CellChange {
                oid,
                prev_cell,
                new_cell: cell,
                motion,
            };
            server.handle_uplink(oid.node(), change, &mut net);
            net.take_downlinks();
            let resync = Uplink::Resync {
                oid,
                cell,
                motion,
                max_vel: 0.03,
                fresh: true,
            };
            server.handle_uplink(oid.node(), resync, &mut net);
            let (unicasts, _) = net.take_downlinks();
            assert!(unicasts.iter().any(|(to, msg, _)| *to == oid.node()
                && matches!(**msg, Downlink::CellSync { cell, .. } if cell == clamped)));
            server.check_invariants();
        }
        assert_eq!(server.query_cell(QueryId(0)), Some(clamped));
    }
}

/// Stub records whose monitoring region reaches past the grid are refused
/// before they touch the RQI — past the last column, past the last row,
/// or four billion rows long. An empty region is taken, however far its
/// corners lie.
#[test]
fn stub_regions_off_the_grid_are_refused() {
    let (mut server, mut net, _) = setup(Propagation::Lazy, false);
    let rect = |x0, y0, x1, y1| GridRect { x0, y0, x1, y1 };
    let spec = QuerySpec {
        qid: QueryId(5),
        region: QueryRegion::circle(3.0),
        filter: Arc::new(Filter::True),
        slot: 0,
        seq: 1,
    };
    let update = |mon_region, old_mon| {
        LogRecord::Cluster(ClusterMsg::StubUpdate {
            focal: ObjectId(9),
            motion: motion_at(85.0, 95.0),
            max_vel: 0.03,
            curr_cell: CellId::new(8, 9),
            mon_region,
            old_mon,
            spec: spec.clone(),
        })
    };
    let remove = |mon_region| {
        LogRecord::Cluster(ClusterMsg::StubRemove {
            qid: QueryId(5),
            mon_region,
            epoch: 3,
        })
    };
    let transfer = |mon_region| {
        LogRecord::Cluster(ClusterMsg::RebalanceCells {
            generation: 0,
            epoch: 0,
            cells: Vec::new(),
            stubs: vec![crate::messages::StubSeed {
                focal: ObjectId(9),
                motion: motion_at(85.0, 95.0),
                max_vel: 0.03,
                mon_region,
                spec: spec.clone(),
            }],
        })
    };
    let on_grid = rect(7, 8, 9, 9);
    for off in [
        rect(8, 9, 12, 12),
        rect(9, 0, 10, 0),
        rect(0, 0, 3, u32::MAX),
    ] {
        for rec in [
            update(off, None),
            update(on_grid, Some(off)),
            remove(off),
            transfer(off),
        ] {
            let e = server.apply(&rec, &mut net).expect_err("refused");
            assert!(e.0.contains("off the grid"), "{rec:?}: {e}");
            assert_eq!(server.num_stubs(), 0);
        }
    }
    let empty = rect(5, 0, 0, u32::MAX);
    for rec in [update(on_grid, Some(empty)), remove(on_grid), remove(empty)] {
        server.apply(&rec, &mut net).expect("accepted");
    }
    assert_eq!(server.num_stubs(), 0);
    server.check_invariants();
}

/// A journal the server accepts may name one query under two focal
/// objects: two migrations of the same query, the later one taking the
/// SQT row. The lease scan then lists the query under both focals. The
/// heartbeat tears it down and re-announces it once, and skips the copy
/// that is already gone instead of panicking.
#[test]
fn a_query_leased_under_two_focals_expires_once() {
    let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
    let config = ProtocolConfig::new(Grid::new(universe, 10.0)).with_lease(5.0, 1.0);
    let mut server = Server::new(Arc::new(config));
    let mut net = Net::new(BaseStationLayout::new(universe, 20.0));
    let migrate = |oid: u32, seq: u64| {
        let spec = QuerySpec {
            qid: QueryId(5),
            region: QueryRegion::circle(3.0),
            filter: Arc::new(Filter::True),
            slot: 0,
            seq,
        };
        let query = crate::messages::QueryMigration {
            spec,
            curr_cell: CellId::new(5, 5),
            mon_region: GridRect {
                x0: 4,
                y0: 4,
                x1: 6,
                y1: 6,
            },
            expires_at: None,
            result: Vec::new(),
        };
        LogRecord::Cluster(ClusterMsg::MigrateFocal {
            oid: ObjectId(oid),
            motion: motion_at(55.0, 55.0),
            max_vel: 0.05,
            used_slots: 1,
            last_heard: 0.0,
            epoch: 0,
            queries: vec![query],
        })
    };
    for rec in [migrate(1, 1), migrate(2, 2), LogRecord::Heartbeat(10.0)] {
        assert!(server.apply(&rec, &mut net).is_ok(), "{rec:?} refused");
    }
    assert_eq!(server.num_queries(), 0, "the query left once");
    let waiting: Vec<(ObjectId, QueryId)> = server
        .pending
        .iter()
        .flat_map(|(&oid, ps)| ps.iter().map(move |p| (oid, p.qid)))
        .collect();
    assert_eq!(waiting, [(ObjectId(1), QueryId(5))], "and waits once");
}

/// Each station's beacon lists only the digests of the cells under it
/// (`BaseStationLayout::cells_under`): a row-major subsequence of the
/// whole grid's list on which every cell under the station looks up what
/// it looks up on the whole list, so every object the station covers
/// answers as it would to the whole list. Every station sends the epoch,
/// one over empty cells only with an empty list.
#[test]
fn each_station_beacons_the_digests_of_the_cells_under_it() {
    let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
    let grid = Grid::new(universe, 5.0);
    let config = ProtocolConfig::new(grid.clone()).with_lease(50.0, 1.0);
    let mut server = Server::new(Arc::new(config));
    let mut net = Net::new(BaseStationLayout::new(universe, 10.0));
    // Queries of growing reach on focals in the lower half.
    for k in 0..12u32 {
        let (x, y) = (4.0 + 23.0 * (k % 4) as f64, 3.0 + 14.0 * (k / 4) as f64);
        register(&mut server, &mut net, ObjectId(k), x, y);
        let region = QueryRegion::circle(1.0 + k as f64);
        server.install_query(ObjectId(k), region, Filter::True, &mut net);
    }
    net.end_tick();
    let before = server.stats().broadcast_ops;
    server.heartbeat(10.0, &mut net);
    let stations = net.layout().num_stations();
    assert_eq!(server.stats().broadcast_ops - before, stations as u64);

    let full = CellDigests::new(server.digest_cells());
    assert!(full.is_row_major());
    assert!((30..grid.num_cells()).contains(&full.entries().len()));
    let (unicasts, beacons) = net.take_downlinks();
    assert!(unicasts.is_empty());
    assert_eq!(beacons.len(), stations);
    let mut silent = 0;
    for (k, (s, msg, _)) in beacons.iter().enumerate() {
        assert_eq!(s.0 as usize, k, "one beacon per station, in order");
        let Downlink::Heartbeat {
            epoch,
            cell_digests,
        } = &**msg
        else {
            panic!("{s:?} sent {msg:?}");
        };
        assert_eq!(*epoch, server.epoch);
        assert!(cell_digests.is_row_major());
        let mut rest = full.entries().iter();
        assert!(
            cell_digests.entries().iter().all(|e| rest.any(|f| f == e)),
            "{s:?}'s list is not a subsequence of the whole list"
        );
        let under = net.layout().cells_under(*s, &grid);
        for cell in under.iter() {
            assert_eq!(cell_digests.get(cell), full.get(cell), "{s:?} at {cell:?}");
        }
        let exact: Vec<_> = full
            .entries()
            .iter()
            .filter(|(c, _)| under.contains(*c))
            .copied()
            .collect();
        assert_eq!(
            cell_digests.entries(),
            exact,
            "{s:?} lists a cell not under it"
        );
        silent += cell_digests.entries().is_empty() as usize;
    }
    assert!(silent > 0, "some station is over empty cells only");
}

#[test]
fn contiguous_blocks_tile_the_grid() {
    let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
    for n in [1usize, 2, 3, 4, 7] {
        let table = PartitionTable::contiguous(grid.num_cells(), n);
        assert_eq!(table.num_partitions(), n);
        let mut total = 0usize;
        for p in 0..n {
            total += table.owned_range(p as u32).len();
        }
        assert_eq!(total, grid.num_cells());
        for flat in 0..grid.num_cells() {
            let p = table.owner_of(flat);
            assert!((p as usize) < n);
            let lo = table.bounds_snapshot()[p as usize];
            let hi = table.bounds_snapshot()[p as usize + 1];
            assert!((lo..hi).contains(&flat));
        }
    }
}

#[test]
fn remainder_cells_go_to_leading_partitions() {
    let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0); // 100 cells
    let table = PartitionTable::contiguous(grid.num_cells(), 3);
    assert_eq!(table.owned_range(0).len(), 34);
    assert_eq!(table.owned_range(1).len(), 33);
    assert_eq!(table.owned_range(2).len(), 33);
}

#[test]
fn install_shifts_ownership_and_bumps_generation() {
    let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
    let table = PartitionTable::contiguous(grid.num_cells(), 2);
    assert_eq!(table.generation(), 0);
    assert_eq!(table.owner_of(49), 0);
    let gen = table.install(&[0, 30, 100]);
    assert_eq!(gen, 1);
    assert_eq!(table.generation(), 1);
    assert_eq!(table.owner_of(49), 1);
    assert_eq!(table.owned_range(0).len(), 30);
    assert_eq!(table.owned_range(1).len(), 70);
}
