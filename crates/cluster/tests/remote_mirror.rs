//! The coordinator's mirror of what each remote partition homes, across a
//! whole-deployment restart: partition services that replay a durable log
//! at `Init` hand the replayed FOT/SQT key sets back in the `Init` reply,
//! so a fresh coordinator resolves homes — and counts queries — without
//! asking, from its first op on.

mod common;

use common::{host_partitions, stop, Services};
use mobieyes_cluster::ClusterServer;
use mobieyes_core::server::Net;
use mobieyes_core::{Filter, ObjectId, ProtocolConfig, QueryId, Uplink};
use mobieyes_geo::{Grid, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::BaseStationLayout;
use mobieyes_telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;

const PARTITIONS: usize = 2;

fn universe() -> Rect {
    Rect::new(0.0, 0.0, 100.0, 100.0)
}

/// Thread-hosted partition services plus a coordinator journaling under
/// `root` (whatever is there already gets replayed).
fn deployment(root: &Path) -> (ClusterServer, Services) {
    let (conns, services) = host_partitions(PARTITIONS);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe(), 5.0)));
    let cluster = ClusterServer::new_remote_with_store(
        config,
        Telemetry::new(),
        conns,
        10.0,
        Some(root.to_path_buf()),
    );
    (cluster.expect("every partition initializes"), services)
}

#[test]
fn restarted_partitions_seed_the_mirror_from_their_replayed_logs() {
    let root = std::env::temp_dir().join(format!(
        "mobieyes-remote-mirror-{}-restart",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let mut net = Net::new(BaseStationLayout::new(universe(), 10.0));

    // First life: three focal objects spread over both partitions, five
    // queries between them.
    let (mut cluster, services) = deployment(&root);
    let focals = [(3u32, 10.0), (4, 50.0), (9, 90.0)];
    let mut installed: Vec<QueryId> = Vec::new();
    for (i, &(oid, y)) in focals.iter().enumerate() {
        for _ in 0..=(i % 2) + (i / 2) {
            installed.push(cluster.install_query(
                ObjectId(oid),
                QueryRegion::circle(4.0),
                Filter::True,
                &mut net,
            ));
        }
        let motion = LinearMotion::new(Point::new(42.0, y), Vec2::new(0.0, 0.0), 0.0);
        let reply = Uplink::PositionReply {
            oid: ObjectId(oid),
            motion,
            max_vel: 0.05,
        };
        cluster.handle_uplink(ObjectId(oid).node(), reply, &mut net);
    }
    assert_eq!(installed.len(), 5);
    cluster.check_invariants();
    assert_eq!(cluster.num_queries(), 5);
    let loads = cluster.load_signals();
    assert!(
        loads.iter().all(|&(focals, _, _)| focals > 0),
        "both partitions must home something for the restart to prove anything: {loads:?}"
    );
    stop(cluster, services);

    // Second life: new service threads, new coordinator, same logs.
    let (cluster, services) = deployment(&root);
    assert_eq!(cluster.num_queries(), 5, "counted from the seeded mirrors");
    assert_eq!(cluster.query_focal(installed[0]), Some(ObjectId(3)));
    assert_eq!(cluster.query_focal(QueryId(77)), None);
    cluster.check_invariants();
    assert_eq!(cluster.query_ids(), installed);
    assert_eq!(cluster.load_signals(), loads);
    stop(cluster, services);
    let _ = std::fs::remove_dir_all(&root);
}
