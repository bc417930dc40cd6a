//! Protocol-level property test: random small scenarios must keep all
//! server invariants intact, and once motion stops the distributed result
//! must converge exactly to the brute-force answer.
//!
//! Uses a seeded splitmix64 sweep so every run checks the same cases.

mod common;

use common::extract_focal;
use mobieyes_core::server::Net;
use mobieyes_core::{
    Filter, HomeChange, Kinematics, LogRecord, MovingObjectAgent, ObjectId, PartitionScope,
    PartitionTable, Propagation, Properties, ProtocolConfig, QueryId, Server,
};
use mobieyes_geo::{Grid, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::BaseStationLayout;
use std::collections::BTreeSet;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const SIDE: f64 = 60.0;
const TS: f64 = 30.0;

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

/// What a coordinator keeps of a partition: the drained home log folded
/// into two key sets, starting from empty.
#[derive(Default)]
struct HomeMirror {
    focals: BTreeSet<ObjectId>,
    queries: BTreeSet<QueryId>,
}

impl HomeMirror {
    /// Folds the server's drained log and demands the result equal the
    /// FOT and SQT key sets the server reports.
    fn sync(&mut self, server: &mut Server) {
        for change in server.take_home_log() {
            match change {
                HomeChange::FocalAdded(o) => self.focals.insert(o),
                HomeChange::FocalRemoved(o) => self.focals.remove(&o),
                HomeChange::QueryAdded(q) => self.queries.insert(q),
                HomeChange::QueryRemoved(q) => self.queries.remove(&q),
            };
        }
        let focals: Vec<ObjectId> = self.focals.iter().copied().collect();
        assert_eq!(focals, server.focal_ids(), "focal mirror diverged");
        let queries: Vec<QueryId> = self.queries.iter().copied().collect();
        assert_eq!(
            queries,
            server.query_ids().collect::<Vec<_>>(),
            "query mirror diverged"
        );
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    /// Initial object positions.
    objects: Vec<(f64, f64)>,
    /// (focal index, radius) per query.
    queries: Vec<(usize, f64)>,
    /// Per-tick velocity for every object (index = tick * n + object).
    moves: Vec<(f64, f64)>,
    lazy: bool,
    grouping: bool,
    safe_period: bool,
}

fn rand_scenario(rng: &mut Rng) -> Scenario {
    let n = 3 + rng.below(7) as usize;
    let q = 1 + rng.below(4) as usize;
    let ticks = 2 + rng.below(4) as usize;
    Scenario {
        objects: (0..n)
            .map(|_| (rng.range(5.0, 55.0), rng.range(5.0, 55.0)))
            .collect(),
        queries: (0..q)
            .map(|_| (rng.below(n as u64) as usize, rng.range(1.0, 12.0)))
            .collect(),
        moves: (0..n * ticks)
            .map(|_| (rng.range(-0.05, 0.05), rng.range(-0.05, 0.05)))
            .collect(),
        lazy: rng.coin(),
        grouping: rng.coin(),
        safe_period: rng.coin(),
    }
}

fn run_scenario(case: usize, s: &Scenario) {
    let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
    let config = Arc::new(
        ProtocolConfig::new(Grid::new(universe, 8.0))
            .with_propagation(if s.lazy {
                Propagation::Lazy
            } else {
                Propagation::Eager
            })
            .with_grouping(s.grouping)
            .with_safe_period(s.safe_period)
            .with_delta(0.05),
    );
    let mut net = Net::new(BaseStationLayout::new(universe, 15.0));
    let mut server = Server::new(Arc::clone(&config));
    // Three cases in four keep a home log and audit it after every step;
    // the fourth checks a server that was never asked to keeps none.
    let logged = !case.is_multiple_of(4);
    let mut homes = HomeMirror::default();
    if logged {
        server.enable_home_log();
    }
    let audit = |server: &mut Server, homes: &mut HomeMirror| {
        if logged {
            homes.sync(server);
        } else {
            assert!(server.take_home_log().is_empty(), "log kept unasked");
        }
    };
    let n = s.objects.len();
    let mut positions: Vec<Point> = s.objects.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let mut agents: Vec<MovingObjectAgent> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| MovingObjectAgent::new(ObjectId(i as u32), Properties::new(), &config, p))
        .collect();
    let qids: Vec<_> = s
        .queries
        .iter()
        .map(|&(f, r)| {
            server.install_query(
                ObjectId(f as u32),
                QueryRegion::circle(r),
                Filter::True,
                &mut net,
            )
        })
        .collect();
    audit(&mut server, &mut homes);

    let ticks = s.moves.len() / n;
    let mut step = |t: f64,
                    positions: &mut Vec<Point>,
                    agents: &mut Vec<MovingObjectAgent>,
                    server: &mut Server,
                    net: &mut Net,
                    vels: &[Vec2]| {
        for i in 0..n {
            let p = positions[i] + vels[i] * TS;
            positions[i] = Point::new(p.x.clamp(0.0, SIDE), p.y.clamp(0.0, SIDE));
        }
        let body = |i: usize| Kinematics::new(positions[i], vels[i], 0.08);
        for (i, a) in agents.iter_mut().enumerate() {
            a.tick_motion(&config, t, body(i), net);
        }
        server.tick(net);
        for (i, a) in agents.iter_mut().enumerate() {
            let mut inbox = Vec::new();
            net.deliver(ObjectId(i as u32).node(), positions[i], &mut inbox);
            a.tick_process(&config, t, body(i), inbox.iter().map(|m| &**m), net);
        }
        net.end_tick();
        server.tick(net);
        server.check_invariants();
        audit(server, &mut homes);
    };

    // Moving phase.
    for k in 0..ticks {
        let vels: Vec<Vec2> = (0..n)
            .map(|i| Vec2::new(s.moves[k * n + i].0, s.moves[k * n + i].1))
            .collect();
        step(
            (k + 1) as f64 * TS,
            &mut positions,
            &mut agents,
            &mut server,
            &mut net,
            &vels,
        );
    }
    // Freeze: everyone stops; dead reckoning converges; results must be
    // exactly the brute-force answer under every mode (safe periods only
    // postpone *entering* objects, and nothing moves anymore; lazy
    // propagation converges because focal cell changes stop too).
    let zero = vec![Vec2::ZERO; n];
    for k in 0..4 {
        step(
            (ticks + k + 1) as f64 * TS,
            &mut positions,
            &mut agents,
            &mut server,
            &mut net,
            &zero,
        );
    }

    for (qi, &(f, r)) in s.queries.iter().enumerate() {
        let expect: std::collections::BTreeSet<ObjectId> = positions
            .iter()
            .enumerate()
            .filter(|(_, p)| positions[f].distance(**p) <= r)
            .map(|(i, _)| ObjectId(i as u32))
            .collect();
        let got = server.query_result(qids[qi]).cloned().unwrap_or_default();
        // Lazy propagation may leave an object unaware of a query if no
        // focal event ever reached its cell; tolerate missing members under
        // lazy mode but never spurious ones.
        if s.lazy {
            assert!(
                got.is_subset(&expect),
                "case {case} query {qi}: spurious members {got:?} vs {expect:?}"
            );
        } else {
            assert_eq!(
                got, expect,
                "case {case} query {qi} (focal {f}, r {r}): got {got:?}, want {expect:?}"
            );
        }
    }

    // The remaining ways a key set changes: a wholesale checkpoint
    // restore, then tearing every query down (the last one of a focal
    // object takes its FOT row along).
    let image = server.checkpoint_bytes();
    server
        .apply(&LogRecord::Checkpoint(image), &mut net)
        .expect("own checkpoint");
    audit(&mut server, &mut homes);
    for qid in qids {
        assert!(server.remove_query(qid, &mut net));
        audit(&mut server, &mut homes);
    }
    assert!(server.focal_ids().is_empty() && homes.focals.is_empty());
}

#[test]
fn random_scenarios_converge_to_exact_results() {
    let mut rng = Rng(0x5eed_9207_0c01);
    for case in 0..48 {
        let s = rand_scenario(&mut rng);
        run_scenario(case, &s);
    }
}

/// The cluster-only ways a key set changes: a focal object with its
/// queries leaving one scoped server (`extract_focal`) and arriving at
/// another (`MigrateFocal`, delivered twice as a duplicating bus would),
/// and a server switched to logging late, after it already homes state.
#[test]
fn home_log_follows_migration_between_scoped_servers() {
    let universe = Rect::new(0.0, 0.0, SIDE, SIDE);
    let config = Arc::new(ProtocolConfig::new(Grid::new(universe, 8.0)));
    let table = Arc::new(PartitionTable::new(vec![0, 32, 64]));
    let epoch = Arc::new(AtomicU64::new(0));
    let scoped = |p: u32| {
        Server::new(Arc::clone(&config)).with_scope(PartitionScope::new(
            p,
            Arc::clone(&table),
            Arc::clone(&epoch),
        ))
    };
    let mut net = Net::new(BaseStationLayout::new(universe, 15.0));
    let mut rng = Rng(0x5eed_1207_40e5);
    for _ in 0..24 {
        let (mut a, mut b) = (scoped(0), scoped(1));
        let (mut homes_a, mut homes_b) = (HomeMirror::default(), HomeMirror::default());
        a.enable_home_log();
        let focals = 1 + rng.below(3) as u32;
        let mut next_qid = 0;
        for f in 0..focals {
            let pos = Point::new(rng.range(2.0, 58.0), rng.range(2.0, 20.0));
            let motion = LinearMotion::new(pos, Vec2::ZERO, 0.0);
            let refresh = LogRecord::RefreshFocalMotion {
                oid: ObjectId(f),
                motion,
                max_vel: 0.05,
                insert: true,
            };
            a.apply(&refresh, &mut net).expect("applies");
            homes_a.sync(&mut a);
            for _ in 0..rng.below(3) {
                let install = LogRecord::CompleteInstall {
                    qid: QueryId(next_qid),
                    focal: ObjectId(f),
                    region: QueryRegion::circle(rng.range(1.0, 6.0)),
                    filter: Arc::new(Filter::True),
                    expires_at: None,
                };
                a.apply(&install, &mut net).expect("applies");
                next_qid += 1;
                homes_a.sync(&mut a);
            }
        }
        a.take_outbox();
        // `b` starts logging only after the first focal has arrived: the
        // seed must carry what it already homes.
        for f in 0..focals {
            let msg = extract_focal(&mut a, ObjectId(f), &mut net).expect("homed on a");
            homes_a.sync(&mut a);
            let arrival = LogRecord::Cluster(msg);
            b.apply(&arrival, &mut net).expect("applies");
            b.apply(&arrival, &mut net).expect("applies");
            if f == 0 {
                b.enable_home_log();
            }
            homes_b.sync(&mut b);
        }
        assert!(homes_a.focals.is_empty() && homes_a.queries.is_empty());
        assert_eq!(homes_b.focals.len(), focals as usize);
        assert_eq!(homes_b.queries.len(), next_qid as usize);
        assert!(extract_focal(&mut a, ObjectId(0), &mut net).is_none());
        assert!(a.take_home_log().is_empty(), "a miss changes nothing");
    }
}
