//! Duplicate-delivery idempotence: the fault layer may deliver any
//! downlink message twice (duplication faults) or let a stale removal
//! arrive after a newer install (reordering across a heartbeat repair).
//! The epoch/sequence scheme must make both harmless: for randomized
//! query state, (1) applying a message twice leaves the agent's LQT
//! byte-identical to applying it once, and (2) a removal and a newer
//! install commute — either arrival order ends in the installed state.
//!
//! Uses a seeded splitmix64 sweep so every run checks the same cases.

mod common;

use common::{deliver_cluster_msg, extract_focal};
use mobieyes_core::server::Net;
use mobieyes_core::{
    ClusterMsg, Downlink, Filter, LogRecord, MovingObjectAgent, ObjectId, PartitionScope,
    PartitionTable, Properties, ProtocolConfig, QueryGroupInfo, QueryId, QuerySpec, ReplyPayload,
    Server, Uplink,
};
use mobieyes_geo::{CellId, Grid, GridRect, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::BaseStationLayout;
use std::collections::BTreeSet;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const SIDE: f64 = 60.0;

/// Deterministic splitmix64 generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn config() -> Arc<ProtocolConfig> {
    Arc::new(ProtocolConfig::new(Grid::new(
        Rect::new(0.0, 0.0, SIDE, SIDE),
        8.0,
    )))
}

fn fresh_agent(config: &Arc<ProtocolConfig>, pos: Point) -> MovingObjectAgent {
    MovingObjectAgent::new(
        ObjectId(0),
        Properties::new(),
        0.08,
        pos,
        Vec2::ZERO,
        Arc::clone(config),
    )
}

/// A group info whose monitoring region covers the agent's cell, so the
/// install path actually runs.
fn rand_info(rng: &mut Rng, config: &ProtocolConfig, agent_pos: Point, seq: u64) -> QueryGroupInfo {
    let cell = config.grid.cell_of(agent_pos);
    let focal_pos = Point::new(rng.range(5.0, 55.0), rng.range(5.0, 55.0));
    let specs: Vec<QuerySpec> = (0..1 + rng.below(3))
        .map(|k| QuerySpec {
            qid: QueryId(rng.below(6) as u32 * 7 + k as u32),
            region: if rng.coin() {
                QueryRegion::circle(rng.range(1.0, 12.0))
            } else {
                QueryRegion::rect(rng.range(1.0, 12.0), rng.range(1.0, 12.0))
            },
            filter: Arc::new(Filter::True),
            slot: rng.below(64) as u8,
            seq,
        })
        .collect();
    QueryGroupInfo {
        focal: ObjectId(1 + rng.below(9) as u32),
        motion: LinearMotion::new(
            focal_pos,
            Vec2::new(rng.range(-0.05, 0.05), rng.range(-0.05, 0.05)),
            rng.range(0.0, 100.0),
        ),
        max_vel: 0.08,
        mon_region: GridRect {
            x0: cell.x.saturating_sub(rng.below(2) as u32),
            y0: cell.y.saturating_sub(rng.below(2) as u32),
            x1: cell.x + rng.below(3) as u32,
            y1: cell.y + rng.below(3) as u32,
        },
        queries: Arc::new(specs),
    }
}

/// Full observable protocol state of an agent: the LQT rows plus any
/// uplink traffic its processing produced.
type Fingerprint = (Vec<(QueryId, bool, u64)>, Vec<(u32, Uplink)>);

fn fingerprint(agent: &MovingObjectAgent, net: &mut Net) -> Fingerprint {
    let ups = net
        .drain_uplinks()
        .into_iter()
        .map(|(n, u)| (n.0, u))
        .collect();
    (agent.lqt_entries(), ups)
}

fn deliver(agent: &mut MovingObjectAgent, t: f64, msgs: &[Downlink], net: &mut Net) {
    agent.tick_process(t, msgs.iter(), net);
}

#[test]
fn double_delivery_leaves_lqt_identical() {
    let mut rng = Rng(0x5eed_1de3_0001);
    let config = config();
    for case in 0..128 {
        let pos = Point::new(rng.range(5.0, 55.0), rng.range(5.0, 55.0));
        let seq = 1 + rng.below(50);
        let info = rand_info(&mut rng, &config, pos, seq);
        let once_msg = Downlink::QueryState { info: info.clone() };
        let twice_msgs = [once_msg.clone(), once_msg.clone()];

        let mut net_a = Net::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, SIDE, SIDE),
            15.0,
        ));
        let mut net_b = Net::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, SIDE, SIDE),
            15.0,
        ));
        let mut once = fresh_agent(&config, pos);
        let mut twice = fresh_agent(&config, pos);
        deliver(&mut once, 30.0, std::slice::from_ref(&once_msg), &mut net_a);
        deliver(&mut twice, 30.0, &twice_msgs, &mut net_b);
        assert_eq!(
            fingerprint(&once, &mut net_a),
            fingerprint(&twice, &mut net_b),
            "case {case}: double delivery changed observable state"
        );
    }
}

#[test]
fn removal_and_newer_install_commute() {
    let mut rng = Rng(0x5eed_1de3_0002);
    let config = config();
    for case in 0..128 {
        let pos = Point::new(rng.range(5.0, 55.0), rng.range(5.0, 55.0));
        let remove_epoch = 1 + rng.below(40);
        let install_seq = remove_epoch + 1 + rng.below(10);
        let info = rand_info(&mut rng, &config, pos, install_seq);
        let qid = info.queries[0].qid;
        let install = Downlink::QueryState { info };
        let remove = Downlink::RemoveQuery {
            qid,
            epoch: remove_epoch,
        };

        let run = |msgs: &[Downlink]| {
            let mut net = Net::new(BaseStationLayout::new(
                Rect::new(0.0, 0.0, SIDE, SIDE),
                15.0,
            ));
            let mut agent = fresh_agent(&config, pos);
            deliver(&mut agent, 30.0, msgs, &mut net);
            (agent.lqt_entries(), net.drain_uplinks().len())
        };
        let (a, _) = run(&[install.clone(), remove.clone()]);
        let (b, _) = run(&[remove.clone(), install.clone()]);
        assert_eq!(
            a, b,
            "case {case}: removal (epoch {remove_epoch}) and newer install \
             (seq {install_seq}) did not commute"
        );
        assert!(
            a.iter().any(|(q, _, s)| *q == qid && *s == install_seq),
            "case {case}: the newer install must win in both orders"
        );
    }
}

/// Everything a neighbor partition can observe after a handoff: table
/// sizes, the per-cell digest that drives heartbeat broadcasts, and the
/// full result set of every homed query.
type ServerFingerprint = (
    usize,
    usize,
    Vec<(CellId, u64)>,
    Vec<(QueryId, BTreeSet<ObjectId>)>,
);

fn server_fingerprint(s: &Server) -> ServerFingerprint {
    let mut results: Vec<(QueryId, BTreeSet<ObjectId>)> = s
        .query_ids()
        .map(|q| (q, s.query_result(q).cloned().unwrap_or_default()))
        .collect();
    results.sort();
    (s.num_queries(), s.num_stubs(), s.digest_cells(), results)
}

/// Drives one randomized border-crossing handoff — stub installs, a stub
/// motion refresh, an optional stub removal, then a full `MigrateFocal` —
/// and applies the resulting inter-server messages to the receiving
/// partition. When `duplicate` is set every message is delivered twice
/// (the bus duplication fault), and the final migration a third time.
fn run_handoff(case: u64, duplicate: bool) -> (usize, ServerFingerprint) {
    let mut rng = Rng(0x5eed_1de3_0004 ^ case.wrapping_mul(0x9e37));
    let config = config();
    let total = config.grid.num_cells();
    let table = Arc::new(PartitionTable::new(vec![0, total / 2, total]));
    let epoch = Arc::new(AtomicU64::new(0));
    let mut p0 = Server::new(Arc::clone(&config)).with_scope(PartitionScope::new(
        0,
        Arc::clone(&table),
        Arc::clone(&epoch),
    ));
    let mut p1 = Server::new(Arc::clone(&config)).with_scope(PartitionScope::new(1, table, epoch));
    let mut net = Net::new(BaseStationLayout::new(
        Rect::new(0.0, 0.0, SIDE, SIDE),
        15.0,
    ));

    // Focal homed on partition 0 (rows y < 4), close enough to the y = 32
    // border that its monitoring regions straddle into partition 1.
    let focal = ObjectId(1 + rng.below(9) as u32);
    let pos = Point::new(rng.range(5.0, 55.0), rng.range(25.0, 31.0));
    let vel = Vec2::new(rng.range(-0.05, 0.05), rng.range(-0.05, 0.05));
    let refresh = LogRecord::RefreshFocalMotion {
        oid: focal,
        motion: LinearMotion::new(pos, vel, rng.range(0.0, 50.0)),
        max_vel: 0.08,
        insert: true,
    };
    p0.apply(&refresh, &mut net).expect("applies");

    let mut msgs = Vec::new();
    let drain = |p0: &mut Server, msgs: &mut Vec<_>| {
        for (to, m) in p0.take_outbox() {
            assert_eq!(to, 1, "two-partition split: all stubs go to partition 1");
            msgs.push(m);
        }
    };
    let qids: Vec<QueryId> = (0..1 + rng.below(3))
        .map(|_| {
            p0.install_query(
                focal,
                QueryRegion::circle(rng.range(6.0, 12.0)),
                Filter::True,
                &mut net,
            )
        })
        .collect();
    drain(&mut p0, &mut msgs); // StubUpdate per straddling query
    let newer = LinearMotion::new(
        Point::new(pos.x, pos.y + 0.4),
        vel,
        60.0 + rng.range(0.0, 5.0),
    );
    let refresh = LogRecord::RefreshFocalMotion {
        oid: focal,
        motion: newer,
        max_vel: 0.08,
        insert: false,
    };
    p0.apply(&refresh, &mut net).expect("applies");
    drain(&mut p0, &mut msgs); // StubMotion
    if rng.coin() && qids.len() > 1 {
        p0.remove_query(qids[0], &mut net);
        drain(&mut p0, &mut msgs); // StubRemove
    }
    let migration = extract_focal(&mut p0, focal, &mut net).expect("focal homed on p0");
    msgs.push(migration.clone());
    assert!(
        msgs.len() >= 2,
        "case {case}: handoff produced no stub traffic"
    );

    for m in &msgs {
        deliver_cluster_msg(&mut p1, m, &mut net);
        if duplicate {
            deliver_cluster_msg(&mut p1, m, &mut net);
        }
    }
    if duplicate {
        deliver_cluster_msg(&mut p1, &migration, &mut net);
    }
    let _ = net.drain_uplinks();
    (msgs.len(), server_fingerprint(&p1))
}

#[test]
fn replayed_handoff_migration_is_a_no_op() {
    for case in 0..128 {
        let (n_once, once) = run_handoff(case, false);
        let (n_twice, twice) = run_handoff(case, true);
        assert_eq!(n_once, n_twice, "case {case}: scenario not deterministic");
        assert!(
            once.0 > 0,
            "case {case}: migration must home queries on the receiver"
        );
        assert_eq!(
            once, twice,
            "case {case}: duplicated handoff delivery changed receiver state"
        );
    }
}

/// Drives one randomized partition-map rebalance: two scoped servers share
/// a `PartitionTable`, partition 0 homes a focal whose monitoring regions
/// sit in the cell range that a new generation reassigns to partition 1,
/// and the reassigned rows travel in a `RebalanceCells` cut for exactly
/// that generation. `duplicate` delivers the transfer twice (the bus
/// duplication fault); `stale_replay` installs a further generation and
/// replays the now-stale transfer, which must be dropped whole.
fn run_rebalance(case: u64, duplicate: bool, stale_replay: bool) -> (usize, ServerFingerprint) {
    let mut rng = Rng(0x5eed_1de3_0005 ^ case.wrapping_mul(0x9e37));
    let config = config();
    let total = config.grid.num_cells();
    let table = Arc::new(PartitionTable::new(vec![0, total / 2, total]));
    let epoch = Arc::new(AtomicU64::new(0));
    let mut p0 = Server::new(Arc::clone(&config)).with_scope(PartitionScope::new(
        0,
        Arc::clone(&table),
        Arc::clone(&epoch),
    ));
    let mut p1 = Server::new(Arc::clone(&config)).with_scope(PartitionScope::new(
        1,
        Arc::clone(&table),
        epoch,
    ));
    let mut net = Net::new(BaseStationLayout::new(
        Rect::new(0.0, 0.0, SIDE, SIDE),
        15.0,
    ));

    // Focal homed on partition 0, inside the cell rows the new generation
    // will hand to partition 1 (flats [total/4, total/2)).
    let focal = ObjectId(1 + rng.below(9) as u32);
    let pos = Point::new(rng.range(5.0, 55.0), rng.range(17.0, 30.0));
    let vel = Vec2::new(rng.range(-0.05, 0.05), rng.range(-0.05, 0.05));
    let refresh = LogRecord::RefreshFocalMotion {
        oid: focal,
        motion: LinearMotion::new(pos, vel, rng.range(0.0, 50.0)),
        max_vel: 0.08,
        insert: true,
    };
    p0.apply(&refresh, &mut net).expect("applies");
    for _ in 0..1 + rng.below(3) {
        p0.install_query(
            focal,
            QueryRegion::circle(rng.range(4.0, 10.0)),
            Filter::True,
            &mut net,
        );
    }
    // Forward any straddling-stub traffic so both partitions start consistent.
    for (to, m) in p0.take_outbox() {
        assert_eq!(to, 1, "two-partition split: all stubs go to partition 1");
        deliver_cluster_msg(&mut p1, &m, &mut net);
    }

    let generation = table.install(&[0, total / 4, total]);
    let flats: Vec<u32> = (total as u32 / 4..total as u32 / 2).collect();
    let export = LogRecord::ExportCells { flats, generation };
    let Ok(ReplyPayload::OptCluster(Some(msg))) = p0.apply(&export, &mut net) else {
        panic!("focal's monitoring region occupies reassigned cells");
    };
    let exported = match &*msg {
        ClusterMsg::RebalanceCells { cells, .. } => cells.len(),
        other => panic!("export_cells produced {other:?}"),
    };

    deliver_cluster_msg(&mut p1, &msg, &mut net);
    if duplicate {
        deliver_cluster_msg(&mut p1, &msg, &mut net);
    }
    if stale_replay {
        table.install(&[0, total / 2, total]);
        deliver_cluster_msg(&mut p1, &msg, &mut net); // generation mismatch: dropped whole
    }
    let _ = net.drain_uplinks();
    (exported, server_fingerprint(&p1))
}

#[test]
fn duplicated_rebalance_transfer_is_a_no_op() {
    for case in 0..128 {
        let (n_once, once) = run_rebalance(case, false, false);
        let (n_twice, twice) = run_rebalance(case, true, false);
        assert_eq!(n_once, n_twice, "case {case}: scenario not deterministic");
        assert!(
            n_once > 0,
            "case {case}: rebalance must transfer at least one RQI row"
        );
        assert_eq!(
            once, twice,
            "case {case}: duplicated RebalanceCells delivery changed receiver state"
        );
    }
}

#[test]
fn stale_generation_rebalance_transfer_is_dropped() {
    for case in 0..128 {
        let (_, applied) = run_rebalance(case, false, false);
        let (_, replayed) = run_rebalance(case, false, true);
        assert_eq!(
            applied, replayed,
            "case {case}: a RebalanceCells cut for a superseded generation \
             must be dropped without touching any table"
        );
    }
}

#[test]
fn stale_removal_after_crash_does_not_resurrect() {
    // A removal that raced a heartbeat repair: the agent already applied
    // a *newer* removal tombstone; a duplicate of the old install must
    // not resurrect the query.
    let mut rng = Rng(0x5eed_1de3_0003);
    let config = config();
    for case in 0..64 {
        let pos = Point::new(rng.range(5.0, 55.0), rng.range(5.0, 55.0));
        let install_seq = 1 + rng.below(40);
        let remove_epoch = install_seq + rng.below(10);
        let info = rand_info(&mut rng, &config, pos, install_seq);
        let qid = info.queries[0].qid;
        let mut net = Net::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, SIDE, SIDE),
            15.0,
        ));
        let mut agent = fresh_agent(&config, pos);
        deliver(
            &mut agent,
            30.0,
            &[
                Downlink::QueryState { info: info.clone() },
                Downlink::RemoveQuery {
                    qid,
                    epoch: remove_epoch,
                },
                // Late duplicate of the original install.
                Downlink::QueryState { info },
            ],
            &mut net,
        );
        assert!(
            !agent.lqt_entries().iter().any(|(q, _, _)| *q == qid),
            "case {case}: tombstoned query resurrected by a late duplicate"
        );
    }
}
