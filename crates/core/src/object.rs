//! The moving-object side of the protocol (paper §3.3–§3.6, §4).
//!
//! A [`MovingObjectAgent`] owns the object's protocol state: its local
//! query table (LQT), its registered grid cell and the `hasMQ` flag. The
//! object's position, velocity and maximum speed ([`Kinematics`]) belong
//! to whoever moves it and reach the agent with every phase call, as does
//! the shared [`ProtocolConfig`]. Each tick it:
//!
//! 1. processes downlink messages (query installs/updates/removals, focal
//!    velocity changes, position requests),
//! 2. detects grid-cell changes (dropping queries whose monitoring region
//!    no longer covers it, and notifying the server when the propagation
//!    mode or its focal role requires),
//! 3. runs dead reckoning when it is a focal object,
//! 4. evaluates every LQT entry — predicting the focal object's position
//!    linearly — and reports containment *changes* to the server,
//!    optionally grouped into query bitmaps and pruned by nested radii and
//!    safe periods.
//!
//! # Layout
//!
//! Most agents of a deployment hold no query, so the struct is laid out
//! for the quiet case (DESIGN.md §12 "Agent layout"): [`MovingObjectAgent`]
//! is one 64-byte cache line — the registered cell, the id and two flags,
//! the LQT and filter-shadow tables, two pointers — and owns no heap until
//! a query reaches it. The tables are key-sorted boxed slices
//! (`crate::flat::FlatMap`) that hold exactly their rows, state a quiet
//! tick never reads sits behind a pointer that stays null until needed,
//! and evaluation scratch belongs to the caller's [`AgentOutbox`] — one
//! set per shard, not per agent.

use crate::config::{Propagation, ProtocolConfig};
use crate::flat::FlatMap;
use crate::messages::{state_digest, Downlink, QueryGroupInfo, Uplink, EMPTY_STATE_DIGEST};
use crate::model::{ObjectId, Properties, QueryId};
use crate::server::Net;
use mobieyes_geo::{CellId, GridRect, LinearMotion, Point, QueryRegion, Region, Vec2};
use mobieyes_net::meter::keys as net_keys;
use mobieyes_net::NodeId;
use mobieyes_telemetry::{EventKind, Telemetry};
use std::collections::BTreeSet;

/// The `agent.*` telemetry keys recorded by [`MovingObjectAgent`].
pub mod agent_keys {
    /// Containment evaluations actually performed (counter).
    pub const EVALUATED: &str = "agent.evaluated";
    /// Evaluations skipped by the safe-period optimization (counter).
    pub const SKIPPED_SAFE_PERIOD: &str = "agent.skipped_safe_period";
    /// Evaluations skipped by nested-radius group pruning (counter).
    pub const SKIPPED_GROUP_PRUNE: &str = "agent.skipped_group_prune";
    /// Containment status flips reported to the server (counter).
    pub const RESULT_CHANGES: &str = "agent.result_changes";
    /// Uplink messages sent (counter).
    pub const UPLINKS_SENT: &str = "agent.uplinks_sent";
    /// Nanoseconds spent in LQT processing (wall timer, Figure 13).
    pub const EVAL_NANOS: &str = "agent.eval_nanos";
    /// LQT size observed once per processing tick (histogram,
    /// Figures 10–12).
    pub const LQT_SIZE: &str = "agent.lqt_size";
    /// Stale or duplicated downlink state discarded by epoch/sequence
    /// checks (counter).
    pub const STALE_DISCARDED: &str = "agent.stale_discarded";
    /// Resync handshakes initiated (reconnects and heartbeat digest
    /// mismatches; counter).
    pub const RESYNC_REQUESTS: &str = "agent.resync_requests";
    /// Full LQT snapshots sent in answer to server heartbeats (counter).
    pub const LQT_SYNCS: &str = "agent.lqt_syncs";
}

/// One LQT row: a nearby query this object is responsible for evaluating.
#[derive(Debug, Clone)]
struct LqtEntry {
    focal: ObjectId,
    /// Last known motion sample of the focal object (`pos`, `vel`, `tm`).
    motion: LinearMotion,
    region: QueryRegion,
    mon_region: GridRect,
    /// Group slot bit index for bitmap result reports.
    slot: u8,
    /// Maximum speed of the focal object, for safe periods.
    focal_max_vel: f64,
    /// Result of the last evaluation (the paper's `isTarget`).
    is_target: bool,
    /// Safe-period processing time: skip evaluation while `t < ptm`.
    ptm: f64,
    /// Server epoch of the last applied state for this query. Older
    /// downlink state (late duplicates, reordered broadcasts) is
    /// discarded; equal state re-applies idempotently.
    seq: u64,
}

/// Plain accumulator for everything agents record while they run: the
/// `agent.*` counters, the LQT-size samples, the cell-crossing events and
/// the bytes they received.
/// Agents never touch a telemetry lock on their hot path; whoever owns
/// the tally — a tick engine holds one per shard and phase, the
/// single-agent convenience calls a local one — publishes it with one
/// [`flush`](Self::flush). Counter and histogram updates commute and the
/// events keep their order, so a flushed tally is indistinguishable from
/// recording every sample directly.
#[derive(Debug, Default)]
pub struct AgentTally {
    pub evaluated: u64,
    pub skipped_safe_period: u64,
    pub skipped_group_prune: u64,
    pub result_changes: u64,
    pub uplinks_sent: u64,
    pub stale_discarded: u64,
    pub resync_requests: u64,
    pub lqt_syncs: u64,
    pub eval_nanos: u64,
    /// Downlink bytes the agents physically received (`net.rx.bytes`):
    /// a tick engine that delivers downlinks itself counts them here.
    pub rx_bytes: u64,
    /// `lqt_sizes[v]`: how many `agent.lqt_size` samples had value `v`.
    lqt_sizes: Vec<u64>,
    /// Cell crossings `(time, oid)` in occurrence order.
    crossings: Vec<(f64, u64)>,
}

impl AgentTally {
    /// Records `n` `agent.lqt_size` samples of value `len`.
    #[inline]
    pub fn observe_lqt_size(&mut self, len: usize, n: u64) {
        if self.lqt_sizes.len() <= len {
            self.lqt_sizes.resize(len + 1, 0);
        }
        self.lqt_sizes[len] += n;
    }

    /// Publishes everything accumulated into `sink` under one lock and
    /// leaves the tally empty (buffers keep their allocations). Zero
    /// counters are not written, exactly as if they had never been
    /// recorded.
    pub fn flush(&mut self, sink: &Telemetry) {
        sink.record_batch(|r| {
            for (key, n) in [
                (agent_keys::EVALUATED, self.evaluated),
                (agent_keys::SKIPPED_SAFE_PERIOD, self.skipped_safe_period),
                (agent_keys::SKIPPED_GROUP_PRUNE, self.skipped_group_prune),
                (agent_keys::RESULT_CHANGES, self.result_changes),
                (agent_keys::UPLINKS_SENT, self.uplinks_sent),
                (agent_keys::STALE_DISCARDED, self.stale_discarded),
                (agent_keys::RESYNC_REQUESTS, self.resync_requests),
                (agent_keys::LQT_SYNCS, self.lqt_syncs),
                (net_keys::RX_BYTES, self.rx_bytes),
            ] {
                if n > 0 {
                    r.add(key, n);
                }
            }
            if self.eval_nanos > 0 {
                r.wall_add(agent_keys::EVAL_NANOS, self.eval_nanos);
            }
            for (len, &n) in self.lqt_sizes.iter().enumerate() {
                // Integer-valued samples: `observe_n` equals `n` observes.
                r.observe_n(agent_keys::LQT_SIZE, len as f64, n);
            }
            for &(t, oid) in &self.crossings {
                r.event_at(t, EventKind::CellCrossing { oid });
            }
        });
        self.lqt_sizes.clear();
        self.crossings.clear();
        *self = AgentTally {
            lqt_sizes: std::mem::take(&mut self.lqt_sizes),
            crossings: std::mem::take(&mut self.crossings),
            ..AgentTally::default()
        };
    }
}

/// Where agents leave a phase's side effects: their uplinks in send
/// order and their metric [`AgentTally`]. A tick engine keeps one per
/// shard, hands the uplinks to the network in bulk
/// ([`NetworkSim::send_uplinks`](mobieyes_net::NetworkSim::send_uplinks))
/// and flushes the tally once per phase.
#[derive(Debug, Default)]
pub struct AgentOutbox {
    pub uplinks: Vec<(NodeId, Uplink)>,
    pub tally: AgentTally,
    scratch: AgentScratch,
}

/// Working buffers of one agent call, shared by every agent that records
/// into the outbox. Nothing in here survives the call that filled it.
#[derive(Debug, Default)]
struct AgentScratch {
    /// Containment changes of the running evaluation.
    changes: Vec<(QueryId, bool)>,
    /// `(focal, qid, reach)` evaluation order of a grouped evaluation.
    groups: Vec<(ObjectId, QueryId, f64)>,
    /// Focal groups with a change in the running grouped evaluation.
    changed_focals: Vec<ObjectId>,
    /// Query ids a `CellSync` lists, sorted.
    mentioned: Vec<QueryId>,
}

/// What an object knows of its own motion and the agent does not store:
/// where it is, how it moves and how fast it can go. Whoever moves the
/// object — a mobility model's columns, in a simulation — hands it to
/// every phase call, so there is no second copy to go stale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kinematics {
    pub pos: Point,
    pub vel: Vec2,
    /// Maximum speed, for safe periods (§4.2) and the server's
    /// monitoring regions.
    pub max_vel: f64,
}

impl Kinematics {
    pub fn new(pos: Point, vel: Vec2, max_vel: f64) -> Self {
        Kinematics { pos, vel, max_vel }
    }

    /// The motion sample `(pos, vel)` taken at time `t`.
    fn sample(&self, t: f64) -> LinearMotion {
        LinearMotion::new(self.pos, self.vel, t)
    }
}

/// The moving-object protocol agent.
///
/// The struct itself is the *hot* part: what a quiet tick reads, in one
/// 64-byte cache line (asserted below). Everything else lives in
/// `AgentCold` behind one pointer that stays null until first needed.
#[derive(Debug)]
#[repr(align(64))]
pub struct MovingObjectAgent {
    /// The cell this agent last registered itself in: the cell of the
    /// position the last motion phase saw.
    curr_cell: CellId,
    oid: ObjectId,
    has_mq: bool,
    /// Mirrors `!cold.pending_departures.is_empty()` in the hot block's
    /// padding, so a quiet evaluation never dereferences `cold`.
    pending: bool,
    lqt: FlatMap<QueryId, LqtEntry>,
    /// Queries covering our cell whose filter rejected us. Tracked (with
    /// seq and monitoring region) so the heartbeat digest of "queries of
    /// my cell" matches the server's RQI view even when we evaluate none
    /// of them.
    shadow: FlatMap<QueryId, (u64, GridRect)>,
    /// Motion sample last advertised to the server (dead-reckoning base).
    /// Read only while focal but written by every reported cell change, so
    /// it is a block of its own instead of pulling the cold part in.
    advertised: Option<Box<LinearMotion>>,
    cold: Option<Box<AgentCold>>,
}

const _: () = assert!(std::mem::size_of::<MovingObjectAgent>() == 64);
const _: () = assert!(std::mem::align_of::<MovingObjectAgent>() == 64);

/// Agent state a quiet non-focal tick never reads. Allocated on first
/// need — non-empty properties, a tombstone, a buffered departure, a
/// heartbeat or a result push — and kept from then on.
#[derive(Debug, Default)]
struct AgentCold {
    props: Properties,
    /// Local view of the results of queries this object issued (filled by
    /// `ResultDelta` pushes when result delivery is enabled).
    own_results: FlatMap<QueryId, BTreeSet<ObjectId>>,
    /// Departure reports produced while handling downlink messages
    /// (monitoring-region shrinks); flushed with the next evaluation.
    pending_departures: Vec<(QueryId, bool)>,
    /// Tombstones of removed queries: qid → removal epoch. Installs with
    /// an older or equal seq are resurrection attempts by late duplicates
    /// and are discarded.
    removed: FlatMap<QueryId, u64>,
    /// Epoch of the last server heartbeat answered; beacons arrive once
    /// per covering base station (plus duplication faults) and must be
    /// answered exactly once.
    last_heartbeat_epoch: u64,
}

/// Asks the CPU to start loading the cache lines `*p` spans into every
/// cache level, so later reads of it hit. A hint only: it reads nothing
/// the program can observe and changes nothing, whatever `p` is.
#[inline]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        // Every 64-byte line from the one holding the first byte to the
        // one holding the last: one for a line-aligned agent.
        let size = std::mem::size_of::<T>().max(1);
        let bytes = p.cast::<i8>();
        let first = (p as usize) % 64;
        for off in (0..first + size).step_by(64) {
            // SAFETY: a prefetch is a hint that never faults, on any address.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(bytes.wrapping_add(off).wrapping_sub(first));
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The properties of an agent without a cold part.
static NO_PROPERTIES: Properties = Properties::new();

impl MovingObjectAgent {
    /// Creates an agent registered in the cell of its initial position.
    pub fn new(oid: ObjectId, props: Properties, config: &ProtocolConfig, pos: Point) -> Self {
        let curr_cell = config.grid.cell_of(pos);
        let cold = (!props.is_empty()).then(|| {
            Box::new(AgentCold {
                props,
                ..AgentCold::default()
            })
        });
        MovingObjectAgent {
            curr_cell,
            oid,
            has_mq: false,
            pending: false,
            lqt: FlatMap::default(),
            shadow: FlatMap::default(),
            advertised: None,
            cold,
        }
    }

    /// The cold part, allocated on first use.
    fn cold_mut(&mut self) -> &mut AgentCold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Buffers a departure report for the next evaluation.
    fn push_departure(&mut self, qid: QueryId) {
        self.cold_mut().pending_departures.push((qid, false));
        self.pending = true;
    }

    fn advertise(&mut self, motion: LinearMotion) {
        match &mut self.advertised {
            Some(adv) => **adv = motion,
            None => self.advertised = Some(Box::new(motion)),
        }
    }

    fn tombstone(&self, qid: &QueryId) -> Option<u64> {
        self.cold.as_ref().and_then(|c| c.removed.get(qid).copied())
    }

    pub fn oid(&self) -> ObjectId {
        self.oid
    }

    pub fn properties(&self) -> &Properties {
        self.cold.as_ref().map_or(&NO_PROPERTIES, |c| &c.props)
    }

    /// Number of queries currently installed in the LQT (the paper's
    /// Figure 10–12 metric).
    pub fn lqt_len(&self) -> usize {
        self.lqt.len()
    }

    pub fn has_mq(&self) -> bool {
        self.has_mq
    }

    /// The grid cell this agent last registered itself in.
    pub fn current_cell(&self) -> CellId {
        self.curr_cell
    }

    /// Whether the next processing phase has real work beyond telemetry:
    /// an installed query to evaluate or a buffered departure to flush.
    /// When this is false and no downlink is pending, `tick_process` is a
    /// no-op except for its `agent.lqt_size` sample — the
    /// struct-of-arrays engine skips the call and batch-records the
    /// sample instead.
    pub fn needs_process(&self) -> bool {
        !self.lqt.is_empty() || self.has_pending_departures()
    }

    /// Whether departures are buffered for the next evaluation (these
    /// force a full evaluation even inside every entry's safe period).
    pub fn has_pending_departures(&self) -> bool {
        self.pending
    }

    /// Whether the filter-shadow table is empty. With an empty LQT *and*
    /// an empty shadow, a `VelocityChange` downlink (and a `QueryState`
    /// whose monitoring region excludes this agent's cell) is a provable
    /// no-op — the struct-of-arrays engine uses this to drop such
    /// deliveries without running `tick_process`.
    pub fn shadow_is_empty(&self) -> bool {
        self.shadow.is_empty()
    }

    /// The earliest safe-period deadline across the LQT: evaluations
    /// before this time skip every entry (§4.2), changing nothing but the
    /// `agent.skipped_safe_period` counter and the LQT-size sample. The
    /// struct-of-arrays engine mirrors this into a parallel deadline
    /// vector so whole agents can be skipped without touching their heap
    /// state. `-inf` when the LQT is empty (an empty LQT has no safe
    /// window; the caller's emptiness check gates the skip anyway).
    pub fn min_safe_deadline(&self) -> f64 {
        if self.lqt.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.lqt
            .values()
            .map(|e| e.ptm)
            .fold(f64::INFINITY, f64::min)
    }

    /// Did the last evaluation consider this object a target of `qid`?
    pub fn is_target_of(&self, qid: QueryId) -> bool {
        self.lqt.get(&qid).map(|e| e.is_target).unwrap_or(false)
    }

    /// Query ids currently installed (ascending).
    pub fn installed_queries(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.lqt.keys().copied()
    }

    /// Full LQT fingerprint `(qid, is_target, seq)` in ascending qid
    /// order — the observable protocol state duplicate-delivery and
    /// reordering tests compare against.
    pub fn lqt_entries(&self) -> Vec<(QueryId, bool, u64)> {
        self.lqt
            .iter()
            .map(|(&q, e)| (q, e.is_target, e.seq))
            .collect()
    }

    /// The locally-known result of a query this object issued (only
    /// populated when the protocol runs with result delivery enabled).
    pub fn own_result(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        self.cold.as_ref()?.own_results.get(&qid)
    }

    /// Phase A of a time step: absorb the new kinematic state and report
    /// significant motion events (grid-cell changes, dead-reckoning
    /// deviations) uplink. Runs *before* the server's mediation phase so
    /// that the resulting broadcasts reach the other objects within the
    /// same time step — the paper's simulation resolves updates within a
    /// step.
    pub fn tick_motion(&mut self, config: &ProtocolConfig, t: f64, k: Kinematics, net: &mut Net) {
        let mut out = AgentOutbox::default();
        self.tick_motion_into(config, t, k, &mut out);
        Self::hand_over(out, net);
    }

    /// [`tick_motion`](Self::tick_motion) recording into a caller-owned
    /// outbox instead of a network and its telemetry sink — the form tick
    /// engines use, one outbox per shard.
    pub fn tick_motion_into(
        &mut self,
        config: &ProtocolConfig,
        t: f64,
        k: Kinematics,
        out: &mut AgentOutbox,
    ) {
        let new_cell = config.grid.cell_of(k.pos);
        if new_cell != self.curr_cell {
            let prev = self.curr_cell;
            self.curr_cell = new_cell;
            out.tally.crossings.push((t, self.oid.0 as u64));
            // Drop queries whose monitoring region no longer covers us.
            // Leaving a monitoring region implies leaving the query region
            // (the circle is contained in it), so any entry we were a
            // target of must report its departure — otherwise the server
            // would keep a stale member. This applies in *both* propagation
            // modes: LQP only silences new-query discovery, never result
            // maintenance.
            let mut departures: Vec<(QueryId, bool)> = Vec::new();
            self.lqt.retain(|qid, e| {
                let keep = e.mon_region.contains(new_cell);
                if !keep && e.is_target {
                    departures.push((*qid, false));
                }
                keep
            });
            self.shadow.retain(|_, (_, mon)| mon.contains(new_cell));
            if !departures.is_empty() {
                out.tally.result_changes += departures.len() as u64;
                self.send(
                    out,
                    Uplink::ResultUpdate {
                        oid: self.oid,
                        changes: departures,
                    },
                );
            }
            // Eagerly notify the server; under lazy propagation only focal
            // objects do (that is the whole point of LQP).
            if config.propagation == Propagation::Eager || self.has_mq {
                let motion = k.sample(t);
                self.send(
                    out,
                    Uplink::CellChange {
                        oid: self.oid,
                        prev_cell: prev,
                        new_cell,
                        motion,
                    },
                );
                self.advertise(motion);
            }
        } else if self.has_mq {
            // Dead reckoning (focal objects only, §3.4).
            let needs_report = match &self.advertised {
                Some(adv) => adv.should_report(t, k.pos, config.delta),
                None => true,
            };
            if needs_report {
                let motion = k.sample(t);
                self.send(
                    out,
                    Uplink::VelocityReport {
                        oid: self.oid,
                        motion,
                    },
                );
                self.advertise(motion);
            }
        }
    }

    /// Phase B of a time step: process downlink messages (installs,
    /// updates, removals, focal motion changes), then evaluate the LQT and
    /// report containment changes (§3.6).
    ///
    /// Generic over the inbox so callers can hand over a plain
    /// `&[Downlink]` slice or borrow out of `Arc`-shared deliveries
    /// (`inbox.iter().map(|m| &**m)`) without copying messages.
    pub fn tick_process<'a, I>(
        &mut self,
        config: &ProtocolConfig,
        t: f64,
        k: Kinematics,
        inbox: I,
        net: &mut Net,
    ) where
        I: IntoIterator<Item = &'a Downlink>,
    {
        let mut out = AgentOutbox::default();
        let start = std::time::Instant::now();
        self.tick_process_into(config, t, k, inbox, &mut out);
        out.tally.eval_nanos += start.elapsed().as_nanos() as u64;
        Self::hand_over(out, net);
    }

    /// [`tick_process`](Self::tick_process) recording into a caller-owned
    /// outbox (see [`tick_motion_into`](Self::tick_motion_into)). It does
    /// not time itself: a clock pair costs about as much as a quiet
    /// agent's whole call, so a tick engine times its whole processing
    /// pass into `agent.eval_nanos` instead.
    ///
    /// `k` is the motion the last motion phase saw: the agent reads its
    /// queries' cell membership from the cell that phase registered.
    pub fn tick_process_into<'a, I>(
        &mut self,
        config: &ProtocolConfig,
        t: f64,
        k: Kinematics,
        inbox: I,
        out: &mut AgentOutbox,
    ) where
        I: IntoIterator<Item = &'a Downlink>,
    {
        let my_cell = self.curr_cell;
        for msg in inbox {
            self.handle_downlink(t, &k, my_cell, msg, out);
        }
        if self.needs_process() {
            self.evaluate(config, t, &k, out);
        }
        out.tally.observe_lqt_size(self.lqt.len(), 1);
    }

    /// Hints the CPU to load this agent's LQT rows and advertised motion
    /// — the heap blocks a motion or processing call reads first — ahead
    /// of the call. Changes nothing.
    #[inline]
    pub fn prefetch_heap(&self) {
        if !self.lqt.is_empty() {
            prefetch(self.lqt.as_ptr());
        }
        if let Some(adv) = &self.advertised {
            prefetch(&**adv);
        }
    }

    /// Delivers a locally filled outbox: uplinks into `net` in send
    /// order, the tally into the network's telemetry sink — where a tick
    /// engine's shard tallies go too.
    fn hand_over(mut out: AgentOutbox, net: &mut Net) {
        net.send_uplinks(&mut out.uplinks);
        out.tally.flush(net.telemetry());
    }

    /// Advances the agent one full time step in one call (motion phase
    /// followed by the processing phase). Deployments that interleave a
    /// server phase between the two — which lets motion broadcasts take
    /// effect within the same step — call [`tick_motion`](Self::tick_motion)
    /// and [`tick_process`](Self::tick_process) directly.
    pub fn tick<'a, I>(
        &mut self,
        config: &ProtocolConfig,
        t: f64,
        k: Kinematics,
        inbox: I,
        net: &mut Net,
    ) where
        I: IntoIterator<Item = &'a Downlink>,
    {
        self.tick_motion(config, t, k, net);
        self.tick_process(config, t, k, inbox, net);
    }

    fn send(&self, out: &mut AgentOutbox, msg: Uplink) {
        out.tally.uplinks_sent += 1;
        out.uplinks.push((self.oid.node(), msg));
    }

    fn handle_downlink(
        &mut self,
        t: f64,
        k: &Kinematics,
        my_cell: CellId,
        msg: &Downlink,
        out: &mut AgentOutbox,
    ) {
        let tally = &mut out.tally;
        match msg {
            Downlink::QueryState { info } => self.apply_query_state(my_cell, info, tally),
            Downlink::NewQueries { infos } => {
                for info in infos {
                    self.apply_query_state(my_cell, info, tally);
                }
            }
            Downlink::VelocityChange {
                motion, qids, seq, ..
            } => {
                for qid in qids {
                    if let Some(e) = self.lqt.get_mut(qid) {
                        if *seq >= e.seq {
                            e.motion = *motion;
                            e.seq = *seq;
                        } else {
                            tally.stale_discarded += 1;
                        }
                    }
                    if let Some(s) = self.shadow.get_mut(qid) {
                        if *seq >= s.0 {
                            s.0 = *seq;
                        }
                    }
                }
            }
            Downlink::RemoveQuery { qid, epoch } => {
                // A removal is stale when we already hold newer state for
                // the query (a re-install after a lease teardown) or have
                // already applied this or a later removal.
                let newer_local = self.lqt.get(qid).is_some_and(|e| e.seq > *epoch)
                    || self.shadow.get(qid).is_some_and(|s| s.0 > *epoch)
                    || self.tombstone(qid).is_some_and(|te| te >= *epoch);
                if newer_local {
                    tally.stale_discarded += 1;
                } else {
                    // Targethood ends with the query; the server's
                    // removal already cleared its result set.
                    self.lqt.remove(qid);
                    self.shadow.remove(qid);
                    self.cold_mut().removed.insert(*qid, *epoch);
                }
            }
            Downlink::Heartbeat {
                epoch,
                cell_digests,
            } => {
                let cold = self.cold_mut();
                if *epoch <= cold.last_heartbeat_epoch {
                    // Same beacon via another station or a duplication
                    // fault: already answered.
                    tally.stale_discarded += 1;
                } else {
                    let prev = cold.last_heartbeat_epoch;
                    cold.last_heartbeat_epoch = *epoch;
                    // Tombstones older than the previous beacon can no
                    // longer race any in-flight message.
                    cold.removed.retain(|_, te| *te >= prev);
                    let expected = cell_digests.get(my_cell).unwrap_or(EMPTY_STATE_DIGEST);
                    // Resync on a digest mismatch — and, if focal, on every
                    // beacon: the resync re-asserts the (cell, motion) the
                    // server should already hold, repairing a dropped
                    // CellChange or VelocityReport we believe got through.
                    // Focal objects send their *advertised* motion, so a
                    // server that did receive it sees nothing new.
                    if self.local_digest() != expected || self.has_mq {
                        tally.resync_requests += 1;
                        let motion = match &self.advertised {
                            Some(adv) if self.has_mq => **adv,
                            _ => k.sample(t),
                        };
                        let oid = self.oid;
                        self.send(
                            out,
                            Uplink::Resync {
                                oid,
                                cell: my_cell,
                                motion,
                                max_vel: k.max_vel,
                                fresh: false,
                            },
                        );
                    }
                    // Soft-state refresh doubling as the lease keepalive:
                    // every beacon is answered with the full local view —
                    // an *empty* view matters just as much, because a lost
                    // departure report (or a crash the server has not
                    // noticed) must not strand a stale member server-side.
                    out.tally.lqt_syncs += 1;
                    let entries: Vec<(QueryId, bool)> =
                        self.lqt.iter().map(|(&q, e)| (q, e.is_target)).collect();
                    let oid = self.oid;
                    self.send(out, Uplink::LqtSync { oid, entries });
                }
            }
            Downlink::CellSync { cell, infos, .. } => {
                self.apply_cell_sync(my_cell, *cell, infos, out);
            }
            Downlink::FocalNotify { is_focal } => {
                self.has_mq = *is_focal;
                if !is_focal {
                    self.advertised = None;
                }
            }
            Downlink::ResultDelta {
                qid,
                object,
                entered,
            } => {
                let set = self
                    .cold_mut()
                    .own_results
                    .get_or_insert_with(*qid, BTreeSet::new);
                if *entered {
                    set.insert(*object);
                } else {
                    set.remove(object);
                }
            }
            Downlink::PositionRequest => {
                let motion = k.sample(t);
                self.send(
                    out,
                    Uplink::PositionReply {
                        oid: self.oid,
                        motion,
                        max_vel: k.max_vel,
                    },
                );
                self.advertise(motion);
            }
        }
    }

    /// Installs, updates or removes the queries of a full-state group
    /// message, depending on whether our cell is inside the group's
    /// monitoring region and whether the filters accept us (§3.3, §3.5).
    fn apply_query_state(
        &mut self,
        my_cell: CellId,
        info: &QueryGroupInfo,
        tally: &mut AgentTally,
    ) {
        if info.mon_region.contains(my_cell) {
            for spec in info.queries.iter() {
                // A removal we already applied supersedes this install:
                // late duplicates must not resurrect dead queries.
                if let Some(te) = self.tombstone(&spec.qid) {
                    if spec.seq <= te {
                        tally.stale_discarded += 1;
                        continue;
                    }
                    self.cold_mut().removed.remove(&spec.qid);
                }
                if let Some(e) = self.lqt.get_mut(&spec.qid) {
                    if spec.seq < e.seq {
                        tally.stale_discarded += 1;
                        continue;
                    }
                    // Refresh motion and region state (idempotent on
                    // equal seq, so duplicated broadcasts are harmless).
                    e.seq = spec.seq;
                    e.motion = info.motion;
                    e.mon_region = info.mon_region;
                    e.region = spec.region;
                    e.focal_max_vel = info.max_vel;
                    e.slot = spec.slot;
                } else if spec.filter.matches(self.oid, self.properties()) {
                    self.shadow.remove(&spec.qid);
                    self.lqt.insert(
                        spec.qid,
                        LqtEntry {
                            focal: info.focal,
                            motion: info.motion,
                            region: spec.region,
                            mon_region: info.mon_region,
                            slot: spec.slot,
                            focal_max_vel: info.max_vel,
                            is_target: false,
                            ptm: 0.0,
                            seq: spec.seq,
                        },
                    );
                } else {
                    // Filter rejected: shadow the query so our view of
                    // "queries covering my cell" (the heartbeat digest)
                    // stays aligned with the server's RQI.
                    let s = self
                        .shadow
                        .get_or_insert_with(spec.qid, || (spec.seq, info.mon_region));
                    if spec.seq >= s.0 {
                        *s = (spec.seq, info.mon_region);
                    }
                }
            }
        } else {
            // Our cell is outside the (possibly shrunk or moved) monitoring
            // region: forget these queries, reporting any targethood we
            // lose so the server's result set stays clean.
            for spec in info.queries.iter() {
                if self.lqt.get(&spec.qid).is_some_and(|e| spec.seq < e.seq) {
                    // Stale broadcast must not tear down newer state.
                    tally.stale_discarded += 1;
                    continue;
                }
                if self.lqt.remove(&spec.qid).is_some_and(|e| e.is_target) {
                    tally.result_changes += 1;
                    self.push_departure(spec.qid);
                }
                if self.shadow.get(&spec.qid).is_some_and(|s| spec.seq >= s.0) {
                    self.shadow.remove(&spec.qid);
                }
            }
        }
    }

    /// Authoritative rebuild of the local query view for `cell` from a
    /// server `CellSync` reply. Anything the server does not list is gone;
    /// listed queries install or refresh under the usual seq rules.
    fn apply_cell_sync(
        &mut self,
        my_cell: CellId,
        cell: CellId,
        infos: &[QueryGroupInfo],
        out: &mut AgentOutbox,
    ) {
        if cell != my_cell {
            // We moved between requesting the resync and its arrival; the
            // reply describes a cell we no longer occupy. The next
            // heartbeat re-checks the new cell.
            return;
        }
        let tally = &mut out.tally;
        let mentioned = &mut out.scratch.mentioned;
        mentioned.clear();
        mentioned.extend(infos.iter().flat_map(|i| i.queries.iter().map(|s| s.qid)));
        mentioned.sort_unstable();
        self.drop_lqt_rows(|qid, _| mentioned.binary_search(qid).is_ok(), tally);
        self.shadow
            .retain(|qid, _| mentioned.binary_search(qid).is_ok());
        for info in infos {
            if info.focal == self.oid {
                // The server still considers us focal; a lost FocalNotify
                // must not silence dead reckoning forever.
                self.has_mq = true;
            }
            self.apply_query_state(my_cell, info, tally);
        }
    }

    /// Keeps the LQT rows `keep` accepts; a dropped row we were a target of
    /// buffers its departure report for the next evaluation.
    fn drop_lqt_rows(
        &mut self,
        mut keep: impl FnMut(&QueryId, &LqtEntry) -> bool,
        tally: &mut AgentTally,
    ) {
        let (cold, pending) = (&mut self.cold, &mut self.pending);
        self.lqt.retain(|qid, e| {
            let keep = keep(qid, e);
            if !keep && e.is_target {
                tally.result_changes += 1;
                cold.get_or_insert_with(Box::default)
                    .pending_departures
                    .push((*qid, false));
                *pending = true;
            }
            keep
        });
    }

    /// The digest of this object's view of the queries covering its cell
    /// (installed ∪ filter-shadowed), compared against the server's
    /// per-cell RQI digest in heartbeats. Both tables ascend by query id
    /// and never share one, so their merge is the ascending feed the
    /// digest wants.
    fn local_digest(&self) -> u64 {
        debug_assert!(
            self.shadow.keys().all(|q| self.lqt.get(q).is_none()),
            "a query both installed and shadowed"
        );
        let mut lqt = self.lqt.iter().map(|(&q, e)| (q, e.seq)).peekable();
        let mut shadow = self.shadow.iter().map(|(&q, s)| (q, s.0)).peekable();
        state_digest(std::iter::from_fn(|| match (lqt.peek(), shadow.peek()) {
            (Some(l), Some(s)) if s.0 < l.0 => shadow.next(),
            (Some(_), _) => lqt.next(),
            (None, _) => shadow.next(),
        }))
    }

    /// Rejoins the network after an offline window at time `t`. A `fresh`
    /// rejoin models a crash: all soft protocol state is gone and must be
    /// replayed by the server. A non-fresh rejoin keeps the LQT but prunes
    /// entries whose monitoring region no longer covers the (possibly
    /// changed) current cell. Either way the object announces itself with
    /// a `Resync` uplink so the server replays its cell's query state and
    /// completes any installs that were waiting for it. Records into a
    /// caller-owned outbox (see [`tick_motion_into`](Self::tick_motion_into)).
    pub fn reconnect_into(
        &mut self,
        config: &ProtocolConfig,
        t: f64,
        k: Kinematics,
        fresh: bool,
        out: &mut AgentOutbox,
    ) {
        self.curr_cell = config.grid.cell_of(k.pos);
        if fresh {
            self.lqt.clear();
            self.shadow.clear();
            if let Some(cold) = &mut self.cold {
                cold.removed.clear();
                cold.own_results.clear();
                cold.pending_departures.clear();
            }
            self.pending = false;
            self.has_mq = false;
        } else {
            let cell = self.curr_cell;
            self.drop_lqt_rows(|_, e| e.mon_region.contains(cell), &mut out.tally);
            self.shadow.retain(|_, (_, mon)| mon.contains(cell));
        }
        let motion = k.sample(t);
        out.tally.resync_requests += 1;
        let (oid, cell) = (self.oid, self.curr_cell);
        self.send(
            out,
            Uplink::Resync {
                oid,
                cell,
                motion,
                max_vel: k.max_vel,
                fresh,
            },
        );
        self.advertise(motion);
    }

    /// Evaluates all installed queries, reporting containment changes.
    fn evaluate(&mut self, config: &ProtocolConfig, t: f64, k: &Kinematics, out: &mut AgentOutbox) {
        // Held by value while `out` takes the uplinks.
        let mut scratch = std::mem::take(&mut out.scratch);
        self.evaluate_with(config, t, k, &mut scratch, out);
        out.scratch = scratch;
    }

    fn evaluate_with(
        &mut self,
        config: &ProtocolConfig,
        t: f64,
        k: &Kinematics,
        scratch: &mut AgentScratch,
        out: &mut AgentOutbox,
    ) {
        scratch.changes.clear();
        if self.pending {
            if let Some(cold) = &mut self.cold {
                scratch.changes.append(&mut cold.pending_departures);
            }
            self.pending = false;
        }
        let grouping = config.grouping;
        let safe_period = config.safe_period;
        if grouping {
            self.evaluate_grouped(t, k, safe_period, scratch, &mut out.tally);
        } else {
            self.evaluate_plain(t, k, safe_period, &mut scratch.changes, &mut out.tally);
        }

        if scratch.changes.is_empty() {
            return;
        }
        if grouping {
            // One bitmap per focal group with changes (§4.1). Queries
            // beyond the 64-slot bitmap (NO_SLOT) report itemized below.
            let mut itemized: Vec<(QueryId, bool)> = Vec::new();
            for &focal in &scratch.changed_focals {
                let mut mask = 0u64;
                let mut targets = 0u64;
                for e in self.lqt.values() {
                    if e.focal == focal && e.slot < 64 {
                        mask |= 1u64 << e.slot;
                        if e.is_target {
                            targets |= 1u64 << e.slot;
                        }
                    }
                }
                if mask != 0 {
                    self.send(
                        out,
                        Uplink::GroupResultUpdate {
                            oid: self.oid,
                            focal,
                            mask,
                            targets,
                        },
                    );
                }
            }
            for &(qid, is_target) in &scratch.changes {
                // Itemize slotless queries and departures of entries that
                // are no longer in the LQT (region shrinks).
                if self.lqt.get(&qid).map(|e| e.slot >= 64).unwrap_or(true) {
                    itemized.push((qid, is_target));
                }
            }
            if !itemized.is_empty() {
                self.send(
                    out,
                    Uplink::ResultUpdate {
                        oid: self.oid,
                        changes: itemized,
                    },
                );
            }
        } else {
            self.send(
                out,
                Uplink::ResultUpdate {
                    oid: self.oid,
                    changes: scratch.changes.clone(),
                },
            );
        }
    }

    /// Evaluation without grouping: one independent prediction and
    /// containment check per LQT entry (plus safe-period skips).
    fn evaluate_plain(
        &mut self,
        t: f64,
        k: &Kinematics,
        safe_period: bool,
        reported: &mut Vec<(QueryId, bool)>,
        tally: &mut AgentTally,
    ) {
        let mut evaluated = 0u64;
        let mut skipped_safe = 0u64;
        let mut changes = 0u64;
        for (qid, e) in self.lqt.iter_mut() {
            if safe_period && e.ptm > t {
                skipped_safe += 1;
                continue;
            }
            let center = e.motion.predict(t);
            evaluated += 1;
            let inside = e.region.contains_from(center, k.pos);
            if safe_period && !inside {
                // Worst case: both objects approach head-on at max speed.
                let closing = k.max_vel + e.focal_max_vel;
                if closing > 0.0 {
                    let gap = (k.pos.distance(center) - e.region.reach()).max(0.0);
                    e.ptm = t + gap / closing;
                } else {
                    e.ptm = t;
                }
            }
            if inside != e.is_target {
                e.is_target = inside;
                changes += 1;
                reported.push((*qid, inside));
            }
        }
        tally.evaluated += evaluated;
        tally.skipped_safe_period += skipped_safe;
        tally.result_changes += changes;
    }

    /// Grouped evaluation (§4.1): entries are processed per focal object,
    /// largest circle first, so one shared prediction serves the group and
    /// an "outside" verdict on a larger circle prunes the smaller ones.
    fn evaluate_grouped(
        &mut self,
        t: f64,
        k: &Kinematics,
        safe_period: bool,
        scratch: &mut AgentScratch,
        tally: &mut AgentTally,
    ) {
        let AgentScratch {
            changes: reported,
            groups,
            changed_focals,
            ..
        } = scratch;
        changed_focals.clear();
        groups.clear();
        groups.extend(
            self.lqt
                .iter()
                .map(|(qid, e)| (e.focal, *qid, e.region.reach())),
        );
        groups.sort_by(|a, b| {
            (a.0, b.2)
                .partial_cmp(&(b.0, a.2))
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut evaluated = 0u64;
        let mut skipped_safe = 0u64;
        let mut skipped_prune = 0u64;
        let mut changes = 0u64;
        let mut i = 0;
        while i < groups.len() {
            let focal = groups[i].0;
            let mut j = i;
            // The focal position prediction is shared across the group.
            let mut predicted: Option<Point> = None;
            // Once outside a circle of radius r, we are outside every
            // smaller *circle* of the same group (regions share the
            // predicted center).
            let mut prune_below: Option<f64> = None;
            while j < groups.len() && groups[j].0 == focal {
                let qid = groups[j].1;
                let e = self.lqt.get_mut(&qid).expect("scratch entry in LQT");
                // Safe-period skip (§4.2).
                if safe_period && e.ptm > t {
                    skipped_safe += 1;
                    j += 1;
                    continue;
                }
                let center = *predicted.get_or_insert_with(|| e.motion.predict(t));
                let is_circle = matches!(e.region, QueryRegion::Circle { .. });
                let inside = if is_circle && prune_below.is_some_and(|r| e.region.reach() <= r) {
                    skipped_prune += 1;
                    false
                } else {
                    evaluated += 1;
                    let inside = e.region.contains_from(center, k.pos);
                    if is_circle && !inside {
                        prune_below = Some(e.region.reach());
                    }
                    inside
                };
                if safe_period && !inside {
                    // Worst case: both objects approach head-on at max speed.
                    let dist = k.pos.distance(center);
                    let closing = k.max_vel + e.focal_max_vel;
                    if closing > 0.0 {
                        let gap = (dist - e.region.reach()).max(0.0);
                        e.ptm = t + gap / closing;
                    } else {
                        e.ptm = t;
                    }
                }
                if inside != e.is_target {
                    e.is_target = inside;
                    changes += 1;
                    reported.push((qid, inside));
                    if !changed_focals.contains(&focal) {
                        changed_focals.push(focal);
                    }
                }
                j += 1;
            }
            i = j;
        }
        tally.evaluated += evaluated;
        tally.skipped_safe_period += skipped_safe;
        tally.skipped_group_prune += skipped_prune;
        tally.result_changes += changes;
    }
}

#[cfg(test)]
mod tests {
    // Agent behaviour is exercised end-to-end (with a real server and
    // network) in the crate-level integration tests; unit tests here focus
    // on isolated agent logic.
    use super::*;
    use crate::filter::Filter;
    use crate::messages::QuerySpec;
    use mobieyes_geo::{Grid, Rect};
    use mobieyes_net::BaseStationLayout;
    use std::sync::Arc;

    fn config() -> Arc<ProtocolConfig> {
        Arc::new(ProtocolConfig::new(Grid::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        )))
    }

    /// An object at rest at `(x, y)` with the test fleet's top speed.
    fn at(x: f64, y: f64) -> Kinematics {
        Kinematics::new(Point::new(x, y), Vec2::ZERO, 0.03)
    }

    fn net() -> Net {
        Net::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            20.0,
        ))
    }

    fn group_info(qid: u32, radius: f64, focal_pos: Point, mon: GridRect) -> QueryGroupInfo {
        QueryGroupInfo {
            focal: ObjectId(100),
            motion: LinearMotion::at_rest(focal_pos, 0.0),
            max_vel: 0.03,
            mon_region: mon,
            queries: Arc::new(vec![QuerySpec {
                qid: QueryId(qid),
                region: QueryRegion::circle(radius),
                filter: Arc::new(Filter::True),
                slot: 0,
                seq: 1,
            }]),
        }
    }

    #[test]
    fn installs_query_when_inside_monitoring_region() {
        let cfg = config();
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 4,
            y0: 4,
            x1: 6,
            y1: 6,
        };
        let info = group_info(0, 3.0, Point::new(55.0, 55.0), mon);
        agent.tick(
            &cfg,
            0.0,
            at(55.0, 55.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        assert_eq!(agent.lqt_len(), 1);
        // Inside radius 3 of the focal: the agent reported itself a target.
        assert!(agent.is_target_of(QueryId(0)));
        assert_eq!(n.pending_uplinks(), 1);
    }

    #[test]
    fn ignores_query_outside_monitoring_region() {
        let cfg = config();
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(15.0, 15.0));
        let mut n = net();
        let mon = GridRect {
            x0: 4,
            y0: 4,
            x1: 6,
            y1: 6,
        };
        let info = group_info(0, 3.0, Point::new(55.0, 55.0), mon);
        agent.tick(
            &cfg,
            0.0,
            at(15.0, 15.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        assert_eq!(agent.lqt_len(), 0);
    }

    #[test]
    fn filter_gates_installation() {
        let cfg = config();
        let mut agent = MovingObjectAgent::new(
            ObjectId(1),
            Properties::new().with("color", "blue"),
            &cfg,
            Point::new(55.0, 55.0),
        );
        let mut n = net();
        let mon = GridRect {
            x0: 4,
            y0: 4,
            x1: 6,
            y1: 6,
        };
        let mut info = group_info(0, 3.0, Point::new(55.0, 55.0), mon);
        info.queries = Arc::new(vec![QuerySpec {
            qid: QueryId(0),
            region: QueryRegion::circle(3.0),
            filter: Arc::new(Filter::Eq("color".into(), "red".into())),
            slot: 0,
            seq: 1,
        }]);
        agent.tick(
            &cfg,
            0.0,
            at(55.0, 55.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        assert_eq!(agent.lqt_len(), 0, "filter mismatch must not install");
    }

    #[test]
    fn cell_change_drops_stale_queries_and_notifies() {
        let cfg = config();
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 4,
            y0: 4,
            x1: 6,
            y1: 6,
        };
        let info = group_info(0, 3.0, Point::new(55.0, 55.0), mon);
        agent.tick(
            &cfg,
            0.0,
            at(55.0, 55.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        assert_eq!(agent.lqt_len(), 1);
        n.drain_uplinks();
        // Jump far outside the monitoring region.
        agent.tick(&cfg, 30.0, at(95.0, 95.0), &[], &mut n);
        assert_eq!(
            agent.lqt_len(),
            0,
            "stale query must be dropped on cell change"
        );
        let ups = n.drain_uplinks();
        assert!(
            ups.iter()
                .any(|(_, m)| matches!(m, Uplink::CellChange { .. })),
            "eager mode reports cell changes"
        );
    }

    #[test]
    fn lazy_non_focal_does_not_report_cell_change() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
        let cfg = Arc::new(ProtocolConfig::new(grid).with_propagation(Propagation::Lazy));
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        agent.tick(&cfg, 0.0, at(95.0, 95.0), &[], &mut n);
        assert_eq!(n.pending_uplinks(), 0, "lazy non-focal must stay silent");
    }

    #[test]
    fn focal_dead_reckoning_reports_on_deviation() {
        let cfg = config();
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        // Become focal; the position request seeds the advertised motion.
        agent.tick(
            &cfg,
            0.0,
            at(55.0, 55.0),
            &[
                Downlink::PositionRequest,
                Downlink::FocalNotify { is_focal: true },
            ],
            &mut n,
        );
        n.drain_uplinks();
        // Tiny drift below Δ=0.2: silent.
        agent.tick(&cfg, 30.0, at(55.05, 55.0), &[], &mut n);
        assert_eq!(n.pending_uplinks(), 0);
        // Larger drift: velocity report.
        agent.tick(&cfg, 60.0, at(56.0, 55.0), &[], &mut n);
        let ups = n.drain_uplinks();
        assert!(ups
            .iter()
            .any(|(_, m)| matches!(m, Uplink::VelocityReport { .. })));
    }

    #[test]
    fn containment_changes_are_differential() {
        let cfg = config();
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        let info = group_info(0, 3.0, Point::new(55.0, 55.0), mon);
        agent.tick(
            &cfg,
            0.0,
            at(55.0, 55.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        assert!(agent.is_target_of(QueryId(0)));
        let first = n.drain_uplinks();
        assert_eq!(first.len(), 1);
        // Still inside: no new report.
        agent.tick(&cfg, 30.0, at(55.5, 55.0), &[], &mut n);
        assert_eq!(n.pending_uplinks(), 0);
        // Move outside radius 3 (but stay in the same grid cell).
        agent.tick(&cfg, 60.0, at(59.0, 55.0), &[], &mut n);
        let ups = n.drain_uplinks();
        assert_eq!(ups.len(), 1);
        match &ups[0].1 {
            Uplink::ResultUpdate { changes, .. } => assert_eq!(changes, &vec![(QueryId(0), false)]),
            other => panic!("expected ResultUpdate, got {other:?}"),
        }
    }

    #[test]
    fn velocity_change_updates_prediction() {
        let cfg = config();
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        let info = group_info(0, 3.0, Point::new(55.0, 55.0), mon);
        agent.tick(
            &cfg,
            0.0,
            at(55.0, 55.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        assert!(agent.is_target_of(QueryId(0)));
        // The focal reports it is now moving away fast; by t=60 its
        // predicted position leaves us outside.
        let vc = Downlink::VelocityChange {
            focal: ObjectId(100),
            motion: LinearMotion::new(Point::new(55.0, 55.0), Vec2::new(0.2, 0.0), 0.0),
            qids: vec![QueryId(0)],
            seq: 2,
        };
        agent.tick(&cfg, 60.0, at(55.0, 55.0), &[vc], &mut n);
        assert!(
            !agent.is_target_of(QueryId(0)),
            "prediction must use updated velocity"
        );
    }

    #[test]
    fn safe_period_skips_faraway_queries() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
        let cfg = Arc::new(ProtocolConfig::new(grid).with_safe_period(true));
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        // Focal far away (distance ~42), slow (0.001/s + 0.001/s closing):
        // safe period is huge.
        let mut info = group_info(0, 3.0, Point::new(15.0, 15.0), mon);
        info.max_vel = 0.001;
        // A very slow object.
        let slow = Kinematics::new(Point::new(55.0, 55.0), Vec2::ZERO, 0.001);
        agent.tick(&cfg, 0.0, slow, &[Downlink::QueryState { info }], &mut n);
        let count = |n: &Net, key| n.telemetry().snapshot().counter(key);
        assert_eq!(count(&n, agent_keys::EVALUATED), 1);
        for k in 1..=10 {
            agent.tick(&cfg, k as f64 * 30.0, slow, &[], &mut n);
        }
        let evaluated = count(&n, agent_keys::EVALUATED);
        assert_eq!(evaluated, 1, "all later evaluations must be skipped");
        assert_eq!(count(&n, agent_keys::SKIPPED_SAFE_PERIOD), 10);
    }

    #[test]
    fn group_prune_skips_smaller_radii() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
        let cfg = Arc::new(ProtocolConfig::new(grid).with_grouping(true));
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        // Two queries, same focal, radii 5 and 2; we sit 20 away: outside
        // both. The radius-2 check must be pruned.
        let info = QueryGroupInfo {
            focal: ObjectId(100),
            motion: LinearMotion::at_rest(Point::new(35.0, 55.0), 0.0),
            max_vel: 0.03,
            mon_region: mon,
            queries: Arc::new(vec![
                QuerySpec {
                    qid: QueryId(0),
                    region: QueryRegion::circle(5.0),
                    filter: Arc::new(Filter::True),
                    slot: 0,
                    seq: 1,
                },
                QuerySpec {
                    qid: QueryId(1),
                    region: QueryRegion::circle(2.0),
                    filter: Arc::new(Filter::True),
                    slot: 1,
                    seq: 2,
                },
            ]),
        };
        agent.tick(
            &cfg,
            0.0,
            at(55.0, 55.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        let s = n.telemetry().snapshot();
        let evaluated = s.counter(agent_keys::EVALUATED);
        assert_eq!(evaluated, 1, "only the largest radius is checked");
        assert_eq!(s.counter(agent_keys::SKIPPED_GROUP_PRUNE), 1);
        assert!(!agent.is_target_of(QueryId(0)));
        assert!(!agent.is_target_of(QueryId(1)));
    }

    #[test]
    fn grouped_result_reports_use_bitmaps() {
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10.0);
        let cfg = Arc::new(ProtocolConfig::new(grid).with_grouping(true));
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        let info = QueryGroupInfo {
            focal: ObjectId(100),
            motion: LinearMotion::at_rest(Point::new(55.0, 55.0), 0.0),
            max_vel: 0.03,
            mon_region: mon,
            queries: Arc::new(vec![
                QuerySpec {
                    qid: QueryId(0),
                    region: QueryRegion::circle(5.0),
                    filter: Arc::new(Filter::True),
                    slot: 0,
                    seq: 1,
                },
                QuerySpec {
                    qid: QueryId(1),
                    region: QueryRegion::circle(2.0),
                    filter: Arc::new(Filter::True),
                    slot: 1,
                    seq: 2,
                },
            ]),
        };
        agent.tick(
            &cfg,
            0.0,
            at(56.0, 55.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        let ups = n.drain_uplinks();
        assert_eq!(ups.len(), 1);
        match &ups[0].1 {
            Uplink::GroupResultUpdate {
                focal,
                mask,
                targets,
                ..
            } => {
                assert_eq!(*focal, ObjectId(100));
                assert_eq!(*mask, 0b11);
                // Distance 1: inside both radii 5 and 2.
                assert_eq!(*targets, 0b11);
            }
            other => panic!("expected GroupResultUpdate, got {other:?}"),
        }
    }

    #[test]
    fn remove_query_downlink_clears_entry() {
        let cfg = config();
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        let info = group_info(3, 3.0, Point::new(55.0, 55.0), mon);
        agent.tick(
            &cfg,
            0.0,
            at(55.0, 55.0),
            &[Downlink::QueryState { info }],
            &mut n,
        );
        assert_eq!(agent.lqt_len(), 1);
        agent.tick(
            &cfg,
            30.0,
            at(55.0, 55.0),
            &[Downlink::RemoveQuery {
                qid: QueryId(3),
                epoch: 2,
            }],
            &mut n,
        );
        assert_eq!(agent.lqt_len(), 0);
    }

    #[test]
    fn duplicate_installs_are_idempotent() {
        let cfg = config();
        let mut agent =
            MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, Point::new(55.0, 55.0));
        let mut n = net();
        let mon = GridRect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        let info = group_info(0, 3.0, Point::new(55.0, 55.0), mon);
        let msgs = vec![
            Downlink::QueryState { info: info.clone() },
            Downlink::QueryState { info },
        ];
        agent.tick(&cfg, 0.0, at(55.0, 55.0), &msgs, &mut n);
        assert_eq!(
            agent.lqt_len(),
            1,
            "duplicate broadcast must not duplicate state"
        );
        // is_target survived the duplicate (no flip-flop reports).
        let ups = n.drain_uplinks();
        assert_eq!(ups.len(), 1);
    }

    #[test]
    fn the_hot_pending_bit_mirrors_the_cold_departure_list() {
        // Every path that buffers or drains a departure, one after the
        // other; after each the hot bit must say what the cold list holds.
        fn check(agent: &MovingObjectAgent, expect: bool, step: &str) {
            let cold = agent
                .cold
                .as_ref()
                .is_some_and(|c| !c.pending_departures.is_empty());
            assert_eq!(cold, expect, "{step}: cold list");
            assert_eq!(agent.has_pending_departures(), cold, "{step}: hot bit");
        }
        let here = Point::new(55.0, 55.0);
        let cell = CellId::new(5, 5);
        let around = GridRect {
            x0: 4,
            y0: 4,
            x1: 6,
            y1: 6,
        };
        let elsewhere = GridRect {
            x0: 0,
            y0: 0,
            x1: 1,
            y1: 1,
        };
        let info = |mon: GridRect, seq: u64| {
            let mut info = group_info(0, 3.0, here, mon);
            Arc::make_mut(&mut info.queries)[0].seq = seq;
            info
        };
        let cfg = config();
        let mut agent = MovingObjectAgent::new(ObjectId(1), Properties::new(), &cfg, here);
        let mut out = AgentOutbox::default();
        // Installed and evaluated: a target of query 0, nothing buffered.
        let install = |agent: &mut MovingObjectAgent, out: &mut AgentOutbox, seq: u64| {
            let msg = Downlink::QueryState {
                info: info(around, seq),
            };
            agent.tick_process_into(&cfg, 0.0, at(55.0, 55.0), [&msg], out);
            assert!(agent.is_target_of(QueryId(0)));
        };
        install(&mut agent, &mut out, 1);
        check(&agent, false, "install");

        // A `QueryState` whose monitoring region left our cell.
        let moved = Downlink::QueryState {
            info: info(elsewhere, 2),
        };
        agent.handle_downlink(1.0, &at(55.0, 55.0), cell, &moved, &mut out);
        check(&agent, true, "QueryState outside the region");
        agent.evaluate(&cfg, 1.0, &at(55.0, 55.0), &mut out);
        check(&agent, false, "evaluate");

        // A `CellSync` that no longer lists the query.
        install(&mut agent, &mut out, 3);
        let sync = Downlink::CellSync {
            cell,
            epoch: 4,
            infos: Vec::new(),
        };
        agent.handle_downlink(2.0, &at(55.0, 55.0), cell, &sync, &mut out);
        check(&agent, true, "CellSync drop");
        agent.reconnect_into(&cfg, 3.0, at(55.0, 55.0), true, &mut out);
        check(&agent, false, "fresh reconnect");

        // A rejoin in a cell the region no longer covers, then the
        // evaluation that flushes it.
        install(&mut agent, &mut out, 5);
        agent.reconnect_into(&cfg, 4.0, at(5.0, 5.0), false, &mut out);
        check(&agent, true, "reconnect outside the region");
        agent.tick_process_into(&cfg, 4.0, at(5.0, 5.0), [], &mut out);
        check(&agent, false, "tick_process");
    }
}
