//! The server's result-membership index under random operation
//! sequences.
//!
//! `Server` keeps the inverse of the per-query result sets (object →
//! queries it is a member of) so an `LqtSync` reconciles, and a fresh
//! `Resync` purges, only what the object is actually in. The index is
//! derived state with many writers — result changes, group updates,
//! reconciles, purges, query removal, lease expiry, focal migration in
//! both directions, checkpoint restore — so this test drives all of them
//! in random order against two scoped servers and, after every
//! operation, checks that
//!
//! 1. each server's own audit passes (`check_invariants` compares index
//!    and result sets in both directions), and the memberships it
//!    reports for every object equal the inverse recomputed from the
//!    result sets through the public surface;
//! 2. every `LqtSync` leaves the same state, emits the same
//!    `ResultDelta` sequence and counts the same stale purges as the
//!    every-query loop it replaced, run on a twin restored from the
//!    server's checkpoint.
//!
//! Uses a seeded splitmix64 sweep so every run checks the same cases.

mod common;

use common::{deliver_cluster_msg, extract_focal};
use mobieyes_core::server::Net;
use mobieyes_core::{
    Downlink, Filter, LogRecord, ObjectId, PartitionScope, PartitionTable, ProtocolConfig, QueryId,
    ReplyPayload, Server, Uplink,
};
use mobieyes_geo::{Grid, LinearMotion, Point, QueryRegion, Rect, Vec2};
use mobieyes_net::BaseStationLayout;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const SIDE: f64 = 60.0;
const OBJECTS: u64 = 24;
const FOCALS: u64 = 8;
const LEASE_SECS: f64 = 40.0;
const STALE: &str = "srv.stale_results_purged";

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

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> Option<T> {
        (!from.is_empty()).then(|| from[self.below(from.len() as u64) as usize])
    }
}

fn new_net() -> Net {
    Net::new(BaseStationLayout::new(
        Rect::new(0.0, 0.0, SIDE, SIDE),
        15.0,
    ))
}

/// Partition `p` of a two-way split of `config`'s grid, on `epoch`.
fn scoped(
    config: &Arc<ProtocolConfig>,
    table: &Arc<PartitionTable>,
    epoch: Arc<AtomicU64>,
    p: u32,
) -> Server {
    Server::new(Arc::clone(config)).with_scope(PartitionScope::new(p, Arc::clone(table), epoch))
}

/// Two partitions of one cluster — `servers[0]` takes the installs,
/// `servers[1]` receives (and returns) migrated focals — plus the
/// harness-side record of where a deferred install is waiting.
struct World {
    config: Arc<ProtocolConfig>,
    table: Arc<PartitionTable>,
    epoch: Arc<AtomicU64>,
    servers: [Server; 2],
    net: Net,
    now: f64,
    pending_at: BTreeMap<ObjectId, usize>,
    rng: Rng,
}

impl World {
    fn new(seed: u64) -> Self {
        let config = Arc::new(
            ProtocolConfig::new(Grid::new(Rect::new(0.0, 0.0, SIDE, SIDE), 8.0))
                // Makes every result delta observable as a unicast.
                .with_result_delivery(true)
                .with_lease(LEASE_SECS, 5.0),
        );
        let total = config.grid.num_cells();
        let table = Arc::new(PartitionTable::new(vec![0, total / 2, total]));
        let epoch = Arc::new(AtomicU64::new(0));
        World {
            servers: [0, 1].map(|p| scoped(&config, &table, Arc::clone(&epoch), p)),
            config,
            table,
            epoch,
            net: new_net(),
            now: 0.0,
            pending_at: BTreeMap::new(),
            rng: Rng(seed),
        }
    }

    fn object(&mut self) -> ObjectId {
        ObjectId(self.rng.below(OBJECTS) as u32)
    }

    fn motion(&mut self) -> LinearMotion {
        LinearMotion::new(
            Point::new(
                self.rng.range(1.0, SIDE - 1.0),
                self.rng.range(1.0, SIDE - 1.0),
            ),
            Vec2::new(self.rng.range(-0.05, 0.05), self.rng.range(-0.05, 0.05)),
            self.now,
        )
    }

    fn qids(&self, si: usize) -> Vec<QueryId> {
        self.servers[si].query_ids().collect()
    }

    /// A query id of server `si`, now and then one it does not home.
    fn some_qid(&mut self, si: usize) -> QueryId {
        let qids = self.qids(si);
        match self.rng.pick(&qids) {
            Some(q) if self.rng.below(8) != 0 => q,
            _ => QueryId(self.rng.below(40) as u32),
        }
    }

    /// Where an uplink announcing `oid`'s position belongs: the server
    /// holding a deferred install for it, else the one homing it.
    fn home_of(&mut self, oid: ObjectId) -> usize {
        self.pending_at
            .remove(&oid)
            .unwrap_or(self.servers[1].has_focal(oid) as usize)
    }

    fn uplink(&mut self, si: usize, from: ObjectId, msg: Uplink) {
        self.servers[si].handle_uplink(from.node(), msg, &mut self.net);
    }

    fn install(&mut self) {
        let focal = ObjectId(self.rng.below(FOCALS) as u32);
        if self.servers[1].has_focal(focal) {
            return; // homed at the peer; installs go through partition 0
        }
        let region = QueryRegion::circle(self.rng.range(2.0, 10.0));
        self.servers[0].install_query(focal, region, Filter::True, &mut self.net);
        if !self.servers[0].has_focal(focal) {
            self.pending_at.insert(focal, 0);
            if self.rng.coin() {
                self.position_reply(focal);
            }
        }
    }

    fn position_reply(&mut self, oid: ObjectId) {
        let (si, motion) = (self.home_of(oid), self.motion());
        let msg = Uplink::PositionReply {
            oid,
            motion,
            max_vel: 0.08,
        };
        self.uplink(si, oid, msg);
    }

    fn result_update(&mut self, si: usize) {
        let oid = self.object();
        let changes = (0..1 + self.rng.below(3))
            .map(|_| (self.some_qid(si), self.rng.below(3) != 0))
            .collect();
        self.uplink(si, oid, Uplink::ResultUpdate { oid, changes });
    }

    fn group_update(&mut self, si: usize) {
        let focals = self.servers[si].focal_ids();
        let Some(focal) = self.rng.pick(&focals) else {
            return;
        };
        let (oid, mask) = (self.object(), self.rng.next_u64() & 0xff);
        let targets = self.rng.next_u64() & mask;
        let msg = Uplink::GroupResultUpdate {
            oid,
            focal,
            mask,
            targets,
        };
        self.uplink(si, oid, msg);
    }

    /// One `LqtSync`, checked against the every-query loop on a twin.
    fn lqt_sync(&mut self, si: usize) {
        let oid = self.object();
        let entries: Vec<(QueryId, bool)> = (0..self.rng.below(5))
            .map(|_| (self.some_qid(si), self.rng.coin()))
            .collect();

        // Scoped like the original (the digest covers the private epoch
        // mirror), but on an epoch counter of its own.
        let private_epoch = Arc::new(AtomicU64::new(0));
        let mut twin = scoped(&self.config, &self.table, private_epoch, si as u32);
        let mut twin_net = new_net();
        let image = LogRecord::Checkpoint(self.servers[si].checkpoint_bytes());
        twin.apply(&image, &mut twin_net)
            .expect("own checkpoint decodes");
        twin.apply(&LogRecord::RenewLease(oid), &mut twin_net)
            .expect("applies");
        let mentioned: BTreeMap<QueryId, bool> = entries.iter().copied().collect();
        let (mut deltas, mut stale) = (Vec::new(), 0u64);
        for qid in twin.query_ids().collect::<Vec<_>>() {
            let is_target = mentioned.get(&qid).copied().unwrap_or(false);
            let reconcile = LogRecord::LqtReconcile {
                qid,
                oid,
                is_target,
            };
            if twin.apply(&reconcile, &mut twin_net) == Ok(ReplyPayload::Bool(true)) {
                if !is_target && !mentioned.contains_key(&qid) {
                    stale += 1;
                }
                deltas.push((qid, is_target));
            }
        }
        for &(qid, entered) in &deltas {
            let delta = LogRecord::ResultDelta { qid, oid, entered };
            twin.apply(&delta, &mut twin_net).expect("applies");
        }

        let stale_before = self.servers[si].telemetry().snapshot().counter(STALE);
        self.net.take_downlinks();
        self.uplink(si, oid, Uplink::LqtSync { oid, entries });
        let sent = |net: &mut Net| -> Vec<(u32, Downlink)> {
            let (unicasts, broadcasts) = net.take_downlinks();
            assert!(broadcasts.is_empty(), "an LqtSync broadcasts nothing");
            unicasts
                .into_iter()
                .map(|(to, msg, _)| (to.0, (*msg).clone()))
                .collect()
        };
        assert_eq!(
            sent(&mut self.net),
            sent(&mut twin_net),
            "LqtSync delta sequence diverged from the every-query loop"
        );
        assert_eq!(
            self.servers[si].telemetry().snapshot().counter(STALE) - stale_before,
            stale,
            "LqtSync stale-purge count diverged from the every-query loop"
        );
        assert_eq!(
            self.servers[si].state_digest(),
            twin.state_digest(),
            "LqtSync left a different state than the every-query loop"
        );
    }

    fn resync(&mut self) {
        let (oid, fresh) = (self.object(), self.rng.below(3) != 0);
        let (si, motion) = (self.home_of(oid), self.motion());
        let msg = Uplink::Resync {
            oid,
            cell: self.config.grid.cell_of(motion.pos),
            motion,
            max_vel: 0.08,
            fresh,
        };
        self.uplink(si, oid, msg);
        if fresh {
            for qid in self.qids(si) {
                let result = self.servers[si].query_result(qid).expect("listed query");
                assert!(
                    !result.contains(&oid),
                    "fresh resync left {oid:?} in {qid:?}"
                );
            }
        }
    }

    /// Lets every lease of server `si` lapse, except those of focals that
    /// get an uplink through after the clock moved.
    fn expire_leases(&mut self, si: usize) {
        self.now += LEASE_SECS + 10.0;
        self.servers[si]
            .apply(&LogRecord::SetTime(self.now), &mut self.net)
            .expect("applies");
        for focal in self.servers[si].focal_ids() {
            if self.rng.coin() {
                let changes = vec![(self.some_qid(si), self.rng.coin())];
                self.uplink(
                    si,
                    focal,
                    Uplink::ResultUpdate {
                        oid: focal,
                        changes,
                    },
                );
            }
        }
        for (oid, _) in self.servers[si].expired_leases() {
            self.pending_at.insert(oid, si);
        }
        self.servers[si].heartbeat(self.now, &mut self.net);
    }

    fn migrate(&mut self, si: usize) {
        let focals = self.servers[si].focal_ids();
        let Some(oid) = self.rng.pick(&focals) else {
            return;
        };
        let msg = extract_focal(&mut self.servers[si], oid, &mut self.net)
            .expect("listed focal extracts");
        deliver_cluster_msg(&mut self.servers[1 - si], &msg, &mut self.net);
        if self.rng.below(4) == 0 {
            // Bus duplication: the replay guard must keep index and rows
            // in step too.
            deliver_cluster_msg(&mut self.servers[1 - si], &msg, &mut self.net);
        }
    }

    fn checkpoint_restore(&mut self, si: usize) {
        let bytes = self.servers[si].checkpoint_bytes();
        if self.rng.coin() {
            // Onto a server that has never seen the state.
            let epoch = Arc::clone(&self.epoch);
            self.servers[si] = scoped(&self.config, &self.table, epoch, si as u32);
        }
        self.servers[si]
            .apply(&LogRecord::Checkpoint(bytes.clone()), &mut self.net)
            .expect("own checkpoint decodes");
        assert_eq!(self.servers[si].checkpoint_bytes(), bytes);
    }

    fn step(&mut self) {
        self.now += 1.0;
        let si = self.rng.below(2) as usize;
        match self.rng.below(16) {
            0..=2 => self.install(),
            3 => {
                let qid = self.some_qid(si);
                self.servers[si].remove_query(qid, &mut self.net);
            }
            4..=6 => self.result_update(si),
            7..=8 => self.group_update(si),
            9..=10 => self.lqt_sync(si),
            11 => self.resync(),
            12 => {
                let oid = self.object();
                self.position_reply(oid);
            }
            13 => self.expire_leases(si),
            14 => self.migrate(si),
            _ => self.checkpoint_restore(si),
        }
        // The coordinator's bus pump: stub traffic between the two.
        for from in 0..2 {
            for (to, msg) in self.servers[from].take_outbox() {
                deliver_cluster_msg(&mut self.servers[to as usize], &msg, &mut self.net);
            }
        }
        self.net.take_downlinks();
        self.audit();
    }

    /// Index = inverse of the result sets, seen from inside (the server's
    /// own two-way audit) and from outside (the public read surface).
    fn audit(&self) {
        for s in &self.servers {
            s.check_invariants();
            let mut inverse: BTreeMap<ObjectId, BTreeSet<QueryId>> = BTreeMap::new();
            for qid in s.query_ids() {
                for &oid in s.query_result(qid).expect("listed query") {
                    inverse.entry(oid).or_default().insert(qid);
                }
            }
            for oid in (0..OBJECTS as u32).map(ObjectId) {
                let expected: Vec<QueryId> = inverse
                    .get(&oid)
                    .map(|qids| qids.iter().copied().collect())
                    .unwrap_or_default();
                let memberships: Vec<QueryId> = s.memberships(oid).collect();
                assert_eq!(memberships, expected, "memberships of {oid:?}");
            }
        }
    }
}

#[test]
fn membership_index_tracks_result_sets_through_random_operations() {
    let (mut members_seen, mut queries_seen) = (0, 0);
    for case in 0..48u64 {
        let mut world = World::new(0x5eed_1de3_0100 ^ case.wrapping_mul(0x9e37));
        for _ in 0..160 {
            world.step();
            for s in &world.servers {
                queries_seen += s.num_queries();
                members_seen += s
                    .query_ids()
                    .map(|q| s.query_result(q).map_or(0, |r| r.len()))
                    .sum::<usize>();
            }
        }
    }
    // The sweep must actually populate what it audits.
    assert!(
        queries_seen > 10_000 && members_seen > 10_000,
        "sweep too thin: {queries_seen} query-steps, {members_seen} member-steps"
    );
}
