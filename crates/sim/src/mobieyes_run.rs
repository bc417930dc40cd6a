//! The MobiEyes simulation driver: server tier + agents + network over a
//! shared mobility trace, with all the measurements of §5.
//!
//! The server tier is always a [`ClusterServer`]: the paper's single
//! server is its one-partition deployment, the degenerate case of the
//! grid-sharded tier, not a second implementation beside it.

use crate::config::{EngineKind, RecoveryKind, SimConfig, TransportKind};
use crate::metrics::{sim_keys, RunMetrics};
use crate::mobility::Mobility;
use crate::soa::{
    self, AgentSoa, BcastClass, FlatCellProbe, SoaShard, Visit, FLAG_FOCAL, FLAG_LQT, FLAG_OFFLINE,
    FLAG_PENDING, FLAG_SHADOW,
};
use crate::transport_run::{ClusterClient, HostedPartitions};
use crate::truth::{result_error, GroundTruth};
use crate::workload::Workload;
use mobieyes_cluster::ClusterServer;
use mobieyes_core::server::Net;
use mobieyes_core::{
    prefetch, AgentOutbox, Downlink, Filter, MovingObjectAgent, ObjectId, Propagation, Properties,
    ProtocolConfig, QueryId,
};
use mobieyes_geo::{Grid, LinearMotion, QueryRegion, Vec2};
use mobieyes_net::{
    BaseStationLayout, ChurnPlan, FaultPlan, FramedConn, NodeId, PartitionCrashPlan, StationId,
};
use mobieyes_telemetry::{EventKind, Phase, Telemetry};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A complete MobiEyes deployment under simulation.
///
/// The tick engine shards agents into contiguous index ranges, one per
/// worker thread (`SimConfig::threads`, 0 = auto). Each phase runs the
/// shards under `std::thread::scope`; every worker leaves its agents'
/// uplinks and metrics in a private per-shard [`AgentOutbox`] — plain
/// vectors and integers, no lock — and the coordinator forwards the
/// uplinks and flushes the tallies in ascending shard (therefore node-id)
/// order after the phase, so uplink queue order, counters, histograms and
/// the event log are byte-identical to the sequential engine at any
/// thread count. With one shard the same buffer-and-merge path runs
/// inline, without spawning.
pub struct MobiEyesSim {
    pub config: SimConfig,
    pub workload: Workload,
    mobility: Mobility,
    /// The server tier: `SimConfig::partitions` partitions, in process or
    /// behind sockets.
    tier: ClusterServer,
    net: Net,
    agents: Vec<MovingObjectAgent>,
    truth: GroundTruth,
    /// Query ids aligned with `workload.queries`.
    qids: Vec<QueryId>,
    tick_index: usize,
    inbox: Vec<Arc<Downlink>>,
    /// Shared instrumentation sink every component records into.
    telemetry: Telemetry,
    /// Station layout (cheap clone of the network's) for worker-side
    /// physical broadcast delivery.
    layout: BaseStationLayout,
    /// Agents `[s * shard_chunk, (s + 1) * shard_chunk)` belong to shard `s`.
    shard_chunk: usize,
    /// Per-shard uplink buffers and metric tallies the agents record
    /// into; forwarded and flushed once per phase by
    /// [`merge_shards`](Self::merge_shards), the only place an uplink is
    /// sized and counted.
    shard_out: Vec<AgentOutbox>,
    /// Deterministic object churn schedule (no-op by default). The
    /// schedule is a pure function of `(seed, oid)`, so it is identical
    /// at every thread count.
    churn: ChurnPlan,
    /// Tick at which the current churn plan was installed; the plan's
    /// windows are relative to it.
    churn_base: usize,
    /// Per-agent offline state: `Some(fresh)` while disconnected, where
    /// `fresh` says whether the rejoin loses local state (a crash).
    offline: Vec<Option<bool>>,
    /// How many `offline` entries are `Some`.
    offline_count: usize,
    /// Whether `rejoin_now` / `skip_now` may hold flags from a churned
    /// step; with `offline_count` it makes the no-churn check O(1).
    churn_flags_dirty: bool,
    /// Rejoins to perform this step (computed once per step, read by the
    /// motion phase): `Some(fresh)` triggers the reconnect handshake.
    rejoin_now: Vec<Option<bool>>,
    /// Agents to skip entirely this step (offline).
    skip_now: Vec<bool>,
    /// When set, mobility is frozen: objects stop moving but the protocol
    /// keeps running. Used to measure recovery convergence.
    frozen: bool,
    /// Rebalance cadence in ticks (0 = off); resolved once at build so
    /// the environment is read exactly once per run.
    rebalance_ticks: usize,
    /// Resolved tick engine: the struct-of-arrays engine, or the seed
    /// reference phases it is checked against (see [`crate::soa`] for
    /// the contract between them). One engine runs every step of a run.
    engine: EngineKind,
    /// The protocol configuration every agent phase call reads (the
    /// server tier shares it).
    protocol: Arc<ProtocolConfig>,
    /// Struct-of-arrays scheduling mirror + persistent phase scratch,
    /// mirrored from the agents at build and kept row by row since.
    soa: AgentSoa,
    /// What the last step's two agent phases actually touched.
    work: TickWork,
    /// Deterministic partition-crash schedule (no-op by default);
    /// resolved from the configuration at build, overridable for tests
    /// via [`set_crash_plan`](Self::set_crash_plan).
    crash_plan: PartitionCrashPlan,
    /// How a crashed partition's cells come back: failover only, or
    /// failover plus supervised respawn.
    recovery: RecoveryKind,
    /// Partitions awaiting respawn, with the tick at which to restart
    /// them (the failover fence runs first; the respawn fence follows).
    pending_respawn: Vec<(u32, usize)>,
    /// Whether every step ends with the server tier's self-check.
    audit: bool,
    /// Out-of-process kill callback: terminates partition `p`'s child
    /// process so the coordinator's detection path sees a real death.
    crash_hook: Option<Box<dyn FnMut(u32)>>,
    /// Out-of-process respawn callback: restarts partition `p`'s child
    /// and returns a fresh hello-completed connection, or `None` to
    /// retry at the next tick boundary.
    respawn_hook: Option<Box<dyn FnMut(u32) -> Option<FramedConn>>>,
    /// Checkpoint cadence in ticks (0 = off); resolved once at build so
    /// the environment is read exactly once per run.
    store_checkpoint_ticks: usize,
    /// The thread-hosted partition services of a `tcp` / `uds`
    /// deployment, joined by [`shutdown`](Self::shutdown).
    hosted: Option<HostedPartitions>,
}

/// Ticks between a partition's failover fence and its respawn fence:
/// long enough for the re-spread ownership table to settle at survivors,
/// short against the recovery-convergence contract.
const RESPAWN_DELAY_TICKS: usize = 2;

impl MobiEyesSim {
    pub fn new(config: SimConfig) -> Self {
        Self::with_telemetry(config, Telemetry::new())
    }

    /// Builds a deployment whose server, network and agents all record
    /// into the injected telemetry sink. The server tier has
    /// `SimConfig::partitions` partitions (one is the paper's single
    /// server), and [`SimConfig::resolved_transport`] says where they run —
    /// in process (lock-step), or as partition services on threads of
    /// this process, driven over loopback TCP or Unix-domain sockets
    /// exactly like `mobieyes-serve` processes.
    ///
    /// # Panics
    ///
    /// On a configuration [`SimConfig::validate`] refuses, with its
    /// message, and on a partition that cannot be built (a store it
    /// cannot open or replay, a partition service that fails its `Init`),
    /// with the error's text.
    pub fn with_telemetry(config: SimConfig, telemetry: Telemetry) -> Self {
        Self::build(config, telemetry, None)
    }

    /// Builds a deployment whose partitions live in other OS processes:
    /// one framed connection per partition, hello exchange already done.
    /// Everything agent-facing stays in this process; only the server
    /// tier's partition ops cross the wire.
    pub fn with_remote_cluster(
        config: SimConfig,
        telemetry: Telemetry,
        conns: Vec<FramedConn>,
    ) -> Self {
        Self::build(config, telemetry, Some(conns))
    }

    fn build(config: SimConfig, telemetry: Telemetry, remote: Option<Vec<FramedConn>>) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let workload = Workload::generate(&config);
        let engine = config.resolved_engine();
        let grid = Grid::new(workload.universe, config.alpha);
        // Lease durations are configured in ticks; heartbeats fire twice
        // per lease so one lost beacon does not expire a healthy object.
        let lease_secs = config.lease_ticks as f64 * config.time_step;
        let heartbeat_secs = (config.lease_ticks / 2).max(1) as f64 * config.time_step;
        let pconf = Arc::new(
            ProtocolConfig::new(grid)
                .with_propagation(config.propagation)
                .with_grouping(config.grouping)
                .with_safe_period(config.safe_period)
                .with_delta(config.delta)
                .with_lease(lease_secs, heartbeat_secs),
        );
        let layout = BaseStationLayout::new(workload.universe, config.alen);
        let mut net = Net::new(layout.clone()).with_telemetry(telemetry.clone());
        let partitions = config.partitions;
        let store_root = config.resolved_store_dir();
        let mut hosted = None;
        let transport = config.resolved_transport();
        let remote = match remote {
            None if transport != TransportKind::Lockstep => {
                let uds = transport == TransportKind::Uds;
                let services =
                    HostedPartitions::spawn(partitions, uds).expect("spawn partition services");
                let client = ClusterClient::connect(services.endpoints(), Duration::from_secs(5))
                    .expect("connect to the hosted partition services");
                hosted = Some(services);
                Some(client.conns)
            }
            remote => remote,
        };
        // Every partition opens, replays and journals its own log under
        // `<root>/p<N>` (see mobieyes-cluster::serve), in process or not.
        let tier = match remote {
            Some(conns) => ClusterServer::new_remote_with_store(
                Arc::clone(&pconf),
                telemetry.clone(),
                conns,
                config.alen,
                store_root,
            ),
            None => ClusterServer::new(
                Arc::clone(&pconf),
                partitions,
                telemetry.clone(),
                store_root,
            ),
        };
        let mut tier = tier.unwrap_or_else(|e| panic!("partition tier: {e}"));
        let mobility = Mobility::with_kind(
            &workload,
            config.objects_changing_velocity,
            config.time_step,
            config.seed,
            config.mobility,
        );
        let n = workload.objects.len();
        // The seed engine is a one-shard oracle (`SimConfig::validate`
        // refuses it more threads than one).
        let threads = match engine {
            EngineKind::Seed => 1,
            EngineKind::Soa => config.resolved_threads().min(n.max(1)).max(1),
        };
        let shard_chunk = n.max(1).div_ceil(threads);
        let shards = n.max(1).div_ceil(shard_chunk);
        let shard_out: Vec<AgentOutbox> = (0..shards).map(|_| AgentOutbox::default()).collect();
        let agents: Vec<MovingObjectAgent> = workload
            .objects
            .iter()
            .enumerate()
            .map(|(i, o)| {
                MovingObjectAgent::new(ObjectId(i as u32), Properties::new(), &pconf, o.initial_pos)
            })
            .collect();
        // Install the full query workload up front; the position-request
        // handshake resolves during the warm-up ticks.
        let qids: Vec<QueryId> = workload
            .queries
            .iter()
            .map(|q| {
                tier.install_query(
                    ObjectId(q.focal_idx as u32),
                    QueryRegion::circle(q.radius),
                    Filter::with_selectivity(workload.selectivity, q.filter_salt),
                    &mut net,
                )
            })
            .collect();
        let max_radius = workload
            .queries
            .iter()
            .map(|q| q.radius)
            .fold(1.0f64, f64::max);
        let truth = GroundTruth::new(&workload, max_radius.max(config.alpha)).with_threads(threads);
        let soa = AgentSoa::new(&agents, &pconf.grid, shards);
        let crash_plan = match config.partition_crash_ticks {
            0 => PartitionCrashPlan::none(),
            tick => PartitionCrashPlan::seeded(
                config.seed,
                config.partitions as u32,
                config.partition_crash_kills,
                // The plan fires relative to measured ticks; warm-up runs
                // crash-free so every deployment installs identically.
                (config.warmup_ticks + tick) as u64,
            ),
        };
        let mut sim = MobiEyesSim {
            rebalance_ticks: config.rebalance_ticks,
            recovery: config.recovery,
            store_checkpoint_ticks: config.store_checkpoint_ticks,
            config,
            workload,
            mobility,
            tier,
            net,
            agents,
            truth,
            qids,
            tick_index: 0,
            inbox: Vec::new(),
            telemetry,
            layout,
            shard_chunk,
            shard_out,
            churn: ChurnPlan::none(),
            churn_base: 0,
            offline: vec![None; n],
            offline_count: 0,
            churn_flags_dirty: false,
            rejoin_now: vec![None; n],
            skip_now: vec![false; n],
            frozen: false,
            engine,
            protocol: pconf,
            soa,
            work: TickWork::default(),
            crash_plan,
            pending_respawn: Vec::new(),
            audit: false,
            crash_hook: None,
            respawn_hook: None,
            hosted,
        };
        // Fault knobs from the configuration apply for the whole run; the
        // chaos harness installs sharper-edged plans via `set_churn`.
        let c = &sim.config;
        if c.uplink_drop > 0.0 || c.downlink_drop > 0.0 || c.dup_rate > 0.0 || c.churn_rate > 0.0 {
            let fault_ticks = (c.warmup_ticks + c.ticks) as u64;
            let plan = ChurnPlan::new(
                c.uplink_drop,
                c.dup_rate,
                c.downlink_drop,
                c.dup_rate,
                c.churn_rate,
                fault_ticks,
                c.seed ^ 0xC4A0_5EED,
            );
            sim.set_churn(plan);
        }
        sim
    }

    /// The shared instrumentation sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The resolved tick engine this deployment runs.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// What the last [`step`](Self::step)'s agent phases touched — the
    /// deterministic witness that work follows activity, not population.
    /// Kept outside the metrics registry, so protocol snapshots of the
    /// two engines stay comparable.
    pub fn tick_work(&self) -> TickWork {
        self.work
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.tick_index as f64 * self.config.time_step
    }

    /// The server tier.
    pub fn cluster(&self) -> &ClusterServer {
        &self.tier
    }

    /// The coordinator's private bus-sink snapshot (recovery + rebalance
    /// counters and events, kept out of the protocol snapshot).
    pub fn bus_snapshot(&self) -> Option<mobieyes_telemetry::MetricsSnapshot> {
        Some(self.tier.bus_telemetry().snapshot())
    }

    /// Mutable access to the server tier (fault-injection tests and the
    /// rebuild-from-log drill).
    pub fn cluster_mut(&mut self) -> &mut ClusterServer {
        &mut self.tier
    }

    /// Current result set of a query, borrowed from its in-process
    /// partition (`None` on a remote deployment — use
    /// [`query_result_owned`](Self::query_result_owned) there).
    pub fn query_result(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        self.tier.query_result(qid)
    }

    /// Current result set of a query as an owned set; works on every
    /// deployment, including multi-process ones.
    pub fn query_result_owned(&self, qid: QueryId) -> Option<BTreeSet<ObjectId>> {
        owned_result(&self.tier, qid)
    }

    /// FNV-1a digest over every query's current result set, folding query
    /// ids in workload order and members in ascending object-id order.
    /// Two deployments of the same configuration that agree on every
    /// result set produce the same digest — the comparison handle the
    /// socket smoke test and the transport equivalence matrix use.
    pub fn result_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let eat = |h: &mut u64, v: u64| {
            for b in v.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &qid in &self.qids {
            eat(&mut h, qid.0 as u64);
            match self.query_result_owned(qid) {
                Some(set) => {
                    eat(&mut h, set.len() as u64 + 1);
                    for oid in set {
                        eat(&mut h, oid.0 as u64);
                    }
                }
                None => eat(&mut h, 0),
            }
        }
        h
    }

    /// Tells remote partition services to exit their service loops after
    /// a final reply, and joins the thread-hosted ones. No-op for
    /// in-process deployments.
    pub fn shutdown(&mut self) {
        if self.tier.has_remote() {
            self.tier.shutdown_remote();
        }
        if let Some(hosted) = self.hosted.take() {
            hosted
                .join()
                .expect("hosted partition services exit cleanly");
        }
    }

    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Whether this deployment journals to a durable store
    /// ([`SimConfig::store_dir`]).
    pub fn has_store(&self) -> bool {
        self.tier.has_store()
    }

    /// Checkpoints every live partition's durable log now (snapshot +
    /// segment GC) and returns the per-partition next-sequence numbers.
    /// Empty when the deployment has no store.
    pub fn checkpoint_now(&mut self) -> Vec<u64> {
        if self.tier.has_store() {
            self.tier.checkpoint_all()
        } else {
            Vec::new()
        }
    }

    /// Historical trajectory of `oid` over simulated seconds
    /// `[t0, t1]`, read from the durable logs (merged across partitions).
    /// Empty when the deployment has no store.
    pub fn trajectory(&self, oid: ObjectId, t0: f64, t1: f64) -> Vec<LinearMotion> {
        self.tier.trajectory(oid, t0, t1)
    }

    /// Installs a downlink fault plan (drops / duplicates) for
    /// failure-injection experiments.
    pub fn set_fault(&mut self, plan: mobieyes_net::FaultPlan) {
        self.net.set_fault(plan);
    }

    /// Installs a combined fault-and-churn plan: downlink and uplink
    /// drop/duplication plus the plan's deterministic object
    /// disconnect/reconnect/crash schedule. The schedule's windows are
    /// relative to the current tick.
    pub fn set_churn(&mut self, plan: ChurnPlan) {
        self.net.set_fault(plan.downlink_fault());
        self.net.set_uplink_fault(plan.uplink_fault());
        self.churn_base = self.tick_index;
        self.churn = plan;
    }

    /// Removes all fault injection (drops, duplicates and churn). Agents
    /// still offline rejoin on the next step, so the system enters a
    /// fault-free recovery phase immediately.
    pub fn clear_faults(&mut self) {
        self.net.set_fault(FaultPlan::none());
        self.net.set_uplink_fault(FaultPlan::none());
        self.churn = ChurnPlan::none();
    }

    /// Freezes (or unfreezes) mobility: objects stop moving but the
    /// protocol keeps running. Convergence measurements use this to hold
    /// the ground truth still while the protocol repairs itself.
    /// Freezing also zeroes the velocities agents report, so advertised
    /// dead-reckoning motion settles onto the frozen true positions and
    /// exact convergence is reachable.
    pub fn freeze(&mut self, frozen: bool) {
        self.frozen = frozen;
        if frozen {
            for v in &mut self.mobility.velocities {
                *v = Vec2::new(0.0, 0.0);
            }
        }
    }

    /// Installs a partition-crash schedule, overriding the knobs the
    /// configuration resolved (tests and the recovery bench).
    pub fn set_crash_plan(&mut self, plan: PartitionCrashPlan) {
        self.crash_plan = plan;
    }

    /// Overrides the crash-recovery mode.
    pub fn set_recovery(&mut self, r: RecoveryKind) {
        self.recovery = r;
    }

    /// Makes every step end with the server tier's structural self-check
    /// (`check_invariants`) — on a remote deployment that includes the
    /// audit of each handle's `homes` mirror against the key sets the
    /// partition process reports. Panics on a violation; for tests and
    /// smoke runs, never for timed ones.
    pub fn set_audit(&mut self, on: bool) {
        self.audit = on;
    }

    /// Installs the out-of-process kill callback: invoked with the victim
    /// partition id at the crash tick instead of the in-process kill, so
    /// a multi-process driver can SIGKILL the real child.
    pub fn set_crash_hook(&mut self, hook: impl FnMut(u32) + 'static) {
        self.crash_hook = Some(Box::new(hook));
    }

    /// Installs the out-of-process respawn callback: invoked with the
    /// partition id once its respawn is due; returns the restarted
    /// child's hello-completed connection, or `None` to retry next tick.
    pub fn set_respawn_hook(&mut self, hook: impl FnMut(u32) -> Option<FramedConn> + 'static) {
        self.respawn_hook = Some(Box::new(hook));
    }

    /// Runs the per-tick crash schedule: kill due victims, detect and
    /// fence anything dead (however it died), and perform due respawns.
    fn crash_recovery_hook(&mut self) {
        if self.crash_plan.is_noop() && self.pending_respawn.is_empty() {
            return;
        }
        let victims: Vec<u32> = self.crash_plan.victims_at(self.tick_index as u64).to_vec();
        if !victims.is_empty() {
            let remote = self.tier.has_remote();
            for &p in &victims {
                if remote {
                    let hook = self
                        .crash_hook
                        .as_mut()
                        .expect("remote deployments need a crash hook to kill children");
                    hook(p);
                } else {
                    self.tier.kill_partition(p);
                }
                if self.recovery == RecoveryKind::Respawn {
                    self.pending_respawn
                        .push((p, self.tick_index + RESPAWN_DELAY_TICKS));
                }
            }
        }
        // Detection + failover fence. Runs every boundary while the plan
        // is armed: out-of-process deaths only become visible through the
        // probe/classified-error path, possibly ticks after the kill.
        self.tier.recover_crashed(&mut self.net);
        if self.pending_respawn.is_empty() {
            return;
        }
        let now_tick = self.tick_index;
        let due: Vec<u32> = self
            .pending_respawn
            .iter()
            .filter(|&&(_, at)| at <= now_tick)
            .map(|&(p, _)| p)
            .collect();
        for p in due {
            let done = if self.tier.has_remote() {
                let conn = self
                    .respawn_hook
                    .as_mut()
                    .expect("remote deployments need a respawn hook to restart children")(
                    p
                );
                match conn {
                    Some(conn) => self.tier.respawn_remote(p, conn).is_ok(),
                    // Child not back yet; retry at the next boundary.
                    None => false,
                }
            } else {
                self.tier.respawn_partition(p).is_ok()
            };
            if done {
                self.pending_respawn.retain(|&(q, _)| q != p);
            }
        }
    }

    /// Computes this step's offline/rejoin sets from the churn schedule.
    /// Transitions are driven by the plan's per-object windows; an object
    /// still offline when the plan is cleared rejoins on the next step
    /// with the crash flag captured at disconnect time. The mirror's
    /// [`FLAG_OFFLINE`] goes up with the disconnect and stays up through
    /// the rejoin step, where the motion phase's handshake clears it.
    fn apply_churn(&mut self) {
        if !self.churn.has_churn() && self.offline_count == 0 {
            // Clear rejoin flags left over from the final reconnect step.
            if self.churn_flags_dirty {
                self.rejoin_now.iter_mut().for_each(|r| *r = None);
                self.skip_now.iter_mut().for_each(|s| *s = false);
                self.churn_flags_dirty = false;
            }
            return;
        }
        self.churn_flags_dirty = true;
        let rel = (self.tick_index - self.churn_base) as u64;
        for i in 0..self.agents.len() {
            self.rejoin_now[i] = None;
            let oid = i as u32;
            let want_off = self.churn.is_offline(rel, oid);
            if want_off && self.offline[i].is_none() {
                self.offline[i] = Some(self.churn.crashes(oid));
                self.offline_count += 1;
                self.soa.flags[i] |= FLAG_OFFLINE;
                self.telemetry
                    .event(EventKind::ObjectOffline { oid: oid as u64 });
            } else if !want_off {
                if let Some(fresh) = self.offline[i].take() {
                    self.offline_count -= 1;
                    self.telemetry.event(EventKind::ObjectOnline {
                        oid: oid as u64,
                        fresh: fresh as u64,
                    });
                    self.rejoin_now[i] = Some(fresh);
                }
            }
            self.skip_now[i] = self.offline[i].is_some();
        }
    }

    pub fn query_ids(&self) -> &[QueryId] {
        &self.qids
    }

    /// Advances the simulation one time step, accumulating measurements
    /// when `measured` is true.
    ///
    /// The step mirrors the paper's within-step update resolution:
    /// 1. mobility advances every object;
    /// 2. objects report motion events (cell changes, dead-reckoning
    ///    deviations) uplink;
    /// 3. the server mediates — broadcasts focal updates and query state;
    /// 4. objects receive the downlinks (including anything queued from
    ///    the previous step), install/update queries and evaluate,
    ///    reporting containment changes;
    /// 5. the server ingests the result updates.
    pub fn step(&mut self, measured: bool) {
        self.tick_index += 1;
        let t = self.now();
        self.telemetry.set_now(t);
        {
            let _span = self.telemetry.span(Phase::Mobility);
            if !self.frozen {
                self.mobility.step();
            }
        }

        // Reconcile the churn schedule: take objects offline, flag the
        // rejoins the motion phase must perform. Runs in ascending object
        // order on the coordinator, so events and the resulting Resync
        // uplinks are deterministic at any thread count.
        self.apply_churn();

        // One engine takes every step, churned and faulted ones included;
        // the seed phases run only as the reference (`EngineKind::Seed`).
        let fast = self.engine == EngineKind::Soa;

        // Phase A: motion reports.
        {
            let _span = self.telemetry.span(Phase::Motion);
            if fast {
                self.run_motion_phase_fast(t);
            } else {
                self.run_motion_phase(t);
            }
            self.merge_shards();
        }

        // Periodic fault-tolerance duties (no-op unless leases are on):
        // lease expiry, pending-install retries, epoch digest beacon. Runs
        // before mediation so the beacon's digest describes the same state
        // the tick's other broadcasts start from.
        self.tier.heartbeat(t, &mut self.net);

        // Server mediation (profiled: the Figure 1/3 server-load metric).
        {
            let _span = self.telemetry.span(Phase::Mediation);
            self.tier.tick(&mut self.net);
        }

        // Phase B: downlink processing + local evaluation.
        {
            let _span = self.telemetry.span(Phase::Process);
            if fast {
                self.run_process_phase_fast(t);
            } else {
                self.run_process_phase(t);
            }
            self.merge_shards();
            self.net.end_tick();
        }

        // Server result ingestion.
        {
            let _span = self.telemetry.span(Phase::Ingest);
            self.tier.tick(&mut self.net);
        }

        // Load-aware partition rebalancing. Runs at the tick boundary,
        // after ingest, so the observation window the planner cuts holds
        // whole ticks — and never changes query results, only the load
        // split (DESIGN.md §10).
        if self.rebalance_ticks > 0 && self.tick_index.is_multiple_of(self.rebalance_ticks) {
            self.tier.rebalance();
        }

        // Partition crash injection + recovery. Kills
        // fire at the tick boundary so a victim never half-processes a
        // tick; detection, the failover fence and any due respawn run at
        // the same boundary (DESIGN.md §13).
        self.crash_recovery_hook();

        // Periodic durable-log checkpoint: snapshot + segment GC at the
        // tick boundary, bounding both replay work after a crash and
        // on-disk log size.
        if self.store_checkpoint_ticks > 0
            && self.tick_index.is_multiple_of(self.store_checkpoint_ticks)
        {
            self.checkpoint_now();
        }

        if self.audit {
            self.tier.check_invariants();
        }

        if measured {
            // Result accuracy vs exact ground truth. Remote tiers cannot
            // lend references across the process boundary, so they take
            // the owned fetch; in-process tiers keep the zero-copy path.
            let remote = self.tier.has_remote();
            let truth = self.truth.evaluate(&self.mobility.positions);
            for (q, t_set) in truth.iter().enumerate() {
                let err = if remote {
                    owned_result(&self.tier, self.qids[q])
                        .map(|reported| result_error(t_set, &reported))
                } else {
                    self.tier
                        .query_result(self.qids[q])
                        .map(|reported| result_error(t_set, reported))
                };
                if let Some(err) = err {
                    self.telemetry.gauge_add(sim_keys::TRUTH_ERROR_SUM, err);
                    self.telemetry.incr(sim_keys::TRUTH_ERROR_SAMPLES);
                }
            }
        }
    }

    /// Phase A of the seed engine: every online agent reports its motion
    /// events (cell crossings, dead-reckoning violations) into the one
    /// shard's outbox.
    fn run_motion_phase(&mut self, t: f64) {
        let config = &*self.protocol;
        let out = &mut self.shard_out[0];
        let mut touched = 0;
        for (i, agent) in self.agents.iter_mut().enumerate() {
            let k = self.mobility.kinematics(i);
            match self.rejoin_now[i] {
                Some(fresh) => agent.reconnect_into(config, t, k, fresh, out),
                None if self.skip_now[i] => continue,
                None => agent.tick_motion_into(config, t, k, out),
            }
            touched += 1;
        }
        self.work.motion_touched = touched;
    }

    /// Phase B of the seed engine: every online agent in turn pulls its
    /// inbox through `NetworkSim::deliver` — which consumes the downlink
    /// fault plan and counts the received bytes — and runs local
    /// evaluation; result reports buffer in the one shard's outbox. It
    /// shares no code with the fast engine's push-built, pre-filtered
    /// runs, which is what makes it their oracle.
    fn run_process_phase(&mut self, t: f64) {
        let config = &*self.protocol;
        let out = &mut self.shard_out[0];
        let (mut visited, mut offline, mut delivered) = (0, 0, 0);
        let start = Instant::now();
        for (i, agent) in self.agents.iter_mut().enumerate() {
            if self.skip_now[i] {
                // Offline: the radio is off; pending downlinks stay
                // queued in the network and lapse at `end_tick`
                // (closed-loop delivery semantics, same as a drop).
                offline += 1;
                continue;
            }
            self.inbox.clear();
            let k = self.mobility.kinematics(i);
            self.net.deliver(NodeId(i as u32), k.pos, &mut self.inbox);
            visited += 1;
            delivered += self.inbox.len();
            agent.tick_process_into(config, t, k, self.inbox.iter().map(|m| &**m), out);
        }
        out.tally.eval_nanos += start.elapsed().as_nanos() as u64;
        self.work.set_seed_process(visited, offline, delivered);
    }

    /// Phase A, fast engine: scans the flat cell mirror and runs
    /// `tick_motion` only for agents that changed grid cell or are focal
    /// (dead reckoning can fire without a crossing). For everyone else a
    /// same-cell, non-focal `tick_motion` changes nothing: no messages, no
    /// telemetry, no state. The scan itself is
    /// division-free for agents safely inside a cell ([`FlatCellProbe`]);
    /// only positions on a cell margin or outside the universe pay for
    /// the exact `flat_cell_of`. Either way `soa.cells` is exact for
    /// every agent when the phase ends — offline agents included: they are
    /// not run, but the cell→agents index of the processing phase is one
    /// counting sort over everyone. An agent coming back online runs the
    /// reconnect handshake here instead of `tick_motion`.
    fn run_motion_phase_fast(&mut self, t: f64) {
        let chunk = self.shard_chunk;
        let Self {
            agents,
            shard_out,
            soa,
            mobility,
            protocol,
            ..
        } = self;
        let ctx = MotionCtx {
            mobility,
            rejoin: &self.rejoin_now,
            config: protocol,
            probe: FlatCellProbe::new(&protocol.grid),
            t,
        };
        let views = soa::shard_views(
            &mut soa.cells,
            &mut soa.flags,
            &mut soa.lqt_len,
            &mut soa.safe_until,
            chunk,
        );
        let shards = agents
            .chunks_mut(chunk)
            .zip(shard_out.iter_mut())
            .zip(views.into_iter().zip(soa.visits.iter_mut()));
        self.work.motion_touched = over_shards(shards, |c, ((agents, out), (view, visits))| {
            motion_shard(&ctx, agents, out, view, visits, c * chunk)
        });
    }

    /// Phase B, fast engine: push-built deliveries ([`soa::Deliveries`]),
    /// struck and doubled on the coordinator by offline radios and an
    /// armed downlink fault plan, then a pass that visits only agents
    /// with a delivery or query state, and the safe-period /
    /// inert-delivery whole-agent skips among those, with every skipped
    /// agent's telemetry footprint restored in batch (see [`crate::soa`]
    /// for the contract).
    fn run_process_phase_fast(&mut self, t: f64) {
        let chunk = self.shard_chunk;
        let (unicasts, broadcasts) = self.net.take_downlinks();
        let Self {
            agents,
            shard_out,
            soa,
            mobility,
            layout,
            protocol,
            ..
        } = self;
        soa.deliveries.build(
            unicasts.iter().map(|(to, _, _)| to.0),
            broadcasts.iter().map(|(station, _, _)| station.0),
            &soa.cells,
            &mobility.positions,
            layout,
            &protocol.grid,
        );
        if self.offline_count > 0 || !self.net.fault().is_noop() {
            let (net, flags) = (&mut self.net, &soa.flags);
            soa.deliveries.rewrite(|pairs, out| {
                let offline = |node: u32| flags[node as usize] & FLAG_OFFLINE != 0;
                net.filter_deliveries(pairs, offline, out)
            });
        }
        soa.classify_broadcasts(broadcasts.iter().map(|(_, msg, _)| &**msg));
        let ctx = ProcessCtx {
            deliveries: &soa.deliveries,
            unicasts: &unicasts,
            broadcasts: &broadcasts,
            class: &soa.bcast_class,
            mobility,
            config: protocol,
            t,
        };
        let views = soa::shard_views(
            &mut soa.cells,
            &mut soa.flags,
            &mut soa.lqt_len,
            &mut soa.safe_until,
            chunk,
        );
        let shards = agents
            .chunks_mut(chunk)
            .zip(shard_out.iter_mut())
            .zip(views.into_iter().zip(soa.visits.iter_mut()));
        let work: ProcessWork = over_shards(shards, |c, ((agents, out), (view, visits))| {
            process_shard(&ctx, agents, out, view, visits, c * chunk)
        });
        self.work.set_process(work, ctx.deliveries.pairs().len());
    }

    /// Forwards every shard's buffered uplinks into the real network —
    /// in bulk, each message sized and counted exactly once — and flushes
    /// the shard tallies into the shared sink, walking shards in
    /// ascending order: exactly the uplink queue order and event order the
    /// sequential engine produces.
    fn merge_shards(&mut self) {
        for out in &mut self.shard_out {
            self.net.send_uplinks(&mut out.uplinks);
            out.tally.flush(&self.telemetry);
        }
    }

    /// Runs warm-up plus measured ticks and returns the aggregated metrics.
    pub fn run(&mut self) -> RunMetrics {
        for _ in 0..self.config.warmup_ticks {
            self.step(false);
        }
        // Reset the registry after warm-up so installation traffic and
        // transient state do not pollute the measurements.
        self.telemetry.reset();

        for _ in 0..self.config.ticks {
            self.step(true);
        }
        self.collect_metrics()
    }

    fn collect_metrics(&self) -> RunMetrics {
        let n = self.agents.len().max(1);
        let ticks = self.config.ticks.max(1);
        let duration = self.config.measured_seconds();
        let label = match (
            self.config.propagation,
            self.config.grouping,
            self.config.safe_period,
        ) {
            (Propagation::Eager, false, false) => "mobieyes-eqp".to_string(),
            (Propagation::Lazy, false, false) => "mobieyes-lqp".to_string(),
            (p, g, s) => format!(
                "mobieyes-{}{}{}",
                if p == Propagation::Lazy { "lqp" } else { "eqp" },
                if g { "+group" } else { "" },
                if s { "+safe" } else { "" }
            ),
        };
        let snapshot = self.telemetry.snapshot();
        RunMetrics::from_snapshot(label, ticks, duration, n, &snapshot)
    }

    /// Direct access to one agent (tests).
    pub fn agent(&self, i: usize) -> &MovingObjectAgent {
        &self.agents[i]
    }

    /// Exact ground-truth results for the current positions (tests).
    pub fn ground_truth(&mut self) -> Vec<std::collections::BTreeSet<ObjectId>> {
        self.truth.evaluate(&self.mobility.positions).to_vec()
    }
}

/// A query's current result set as an owned set: borrowed and cloned from
/// an in-process partition, fetched from a remote one.
fn owned_result(tier: &ClusterServer, qid: QueryId) -> Option<BTreeSet<ObjectId>> {
    if tier.has_remote() {
        let members = tier.fetch_query_result(qid)?;
        Some(members.into_iter().collect())
    } else {
        tier.query_result(qid).cloned()
    }
}

/// What one [`MobiEyesSim::step`] touched on the agent side. Plain
/// counts, deterministic for a given configuration and seed.
///
/// The processing phase partitions the population: every agent is
/// either `cold` (never looked at — offline agents included) or
/// `process_visited`, and a visited agent is `safe_skipped`, `inert`, or
/// ran its full `tick_process`. On the fast engine `process_visited` is
/// bounded by the tick's `deliveries` plus the agents holding query
/// state — not by the population — on every step, churned and faulted
/// ones included: `deliveries` counts what the downlink fault plan and
/// offline radios let through, and only a beacon tick (a heartbeat heard
/// by everyone) visits every online agent. Seed-engine steps touch and
/// visit every online agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickWork {
    /// Agents whose `tick_motion` (or reconnect) ran in the motion phase.
    pub motion_touched: usize,
    /// `(agent, downlink)` deliveries of the tick: unicasts plus every
    /// broadcast copy heard.
    pub deliveries: usize,
    /// Agents the processing phase looked at.
    pub process_visited: usize,
    /// Visited agents skipped whole inside their safe period (§4.2).
    pub safe_skipped: usize,
    /// Visited agents whose deliveries were all provably no-ops.
    pub inert: usize,
    /// Agents the processing phase never looked at.
    pub cold: usize,
}

impl TickWork {
    /// A seed-engine processing phase: `visited` agents each ran their
    /// full `tick_process`; the `offline` rest were never looked at.
    fn set_seed_process(&mut self, visited: usize, offline: usize, deliveries: usize) {
        let work = ProcessWork {
            visited,
            offline,
            ..ProcessWork::default()
        };
        self.set_process(work, deliveries);
    }

    fn set_process(&mut self, work: ProcessWork, deliveries: usize) {
        self.deliveries = deliveries;
        self.process_visited = work.visited;
        self.safe_skipped = work.safe_skipped;
        self.inert = work.inert;
        self.cold = work.cold + work.offline;
    }
}

/// One shard's (summed: one tick's) share of [`TickWork`]'s processing
/// fields.
#[derive(Clone, Copy, Default)]
struct ProcessWork {
    visited: usize,
    safe_skipped: usize,
    inert: usize,
    /// Online agents stepped over between two visits, counted as they
    /// are skipped — not derived from `visited`.
    cold: usize,
    /// Offline agents stepped over.
    offline: usize,
}

impl std::iter::Sum for ProcessWork {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ProcessWork::default(), |a, b| ProcessWork {
            visited: a.visited + b.visited,
            safe_skipped: a.safe_skipped + b.safe_skipped,
            inert: a.inert + b.inert,
            cold: a.cold + b.cold,
            offline: a.offline + b.offline,
        })
    }
}

/// Runs `work(shard index, shard)` over every shard and sums the results:
/// inline when there is a single shard, otherwise one scoped worker per
/// shard (a worker's panic is re-raised on the coordinator).
fn over_shards<S, R>(
    shards: impl ExactSizeIterator<Item = S>,
    work: impl Fn(usize, S) -> R + Sync,
) -> R
where
    S: Send,
    R: Send + std::iter::Sum,
{
    if shards.len() <= 1 {
        return shards.enumerate().map(|(c, shard)| work(c, shard)).sum();
    }
    std::thread::scope(|s| {
        let work = &work;
        let workers: Vec<_> = shards
            .enumerate()
            .map(|(c, shard)| s.spawn(move || work(c, shard)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .sum()
    })
}

/// What every shard of a fast motion phase reads.
struct MotionCtx<'a> {
    mobility: &'a Mobility,
    /// This step's rejoins (`Some(fresh)`); read only for agents whose
    /// row carries [`FLAG_OFFLINE`].
    rejoin: &'a [Option<bool>],
    config: &'a ProtocolConfig,
    probe: FlatCellProbe,
    t: f64,
}

/// How many visits ahead of the running one a fast phase prefetches an
/// agent's line, and its heap blocks. The heap pointers live in the
/// line, so the line has to arrive first.
const PREFETCH_AGENT: usize = 8;
const PREFETCH_HEAP: usize = 4;

/// Runs `visit` over a shard's visit list in order, prefetching the
/// agents ahead of it: a random agent load costs a cache miss, and the
/// list says which agents come next.
#[inline]
fn run_visits(
    agents: &mut [MovingObjectAgent],
    visits: &[Visit],
    mut visit: impl FnMut(&mut MovingObjectAgent, &Visit),
) {
    for (i, v) in visits.iter().enumerate() {
        if let Some(ahead) = visits.get(i + PREFETCH_AGENT) {
            prefetch(&agents[ahead.at as usize]);
        }
        if let Some(ahead) = visits.get(i + PREFETCH_HEAP) {
            agents[ahead.at as usize].prefetch_heap();
        }
        visit(&mut agents[v.at as usize], v);
    }
}

/// Fast-engine motion phase over one shard (see
/// [`MobiEyesSim::run_motion_phase_fast`] for the skip argument): one
/// scan of the mirror decides the agents to run, then runs them.
/// Returns how many agents it ran.
fn motion_shard(
    ctx: &MotionCtx<'_>,
    agents: &mut [MovingObjectAgent],
    out: &mut AgentOutbox,
    mut view: SoaShard<'_>,
    visits: &mut Vec<Visit>,
    base: usize,
) -> usize {
    visits.clear();
    let positions = &ctx.mobility.positions[base..base + agents.len()];
    for (off, &pos) in positions.iter().enumerate() {
        let fc = match ctx.probe.get(pos) {
            Some(fc) => fc,
            None => ctx.config.grid.flat_cell_of(pos) as u32,
        };
        let flags = view.flags[off];
        if fc == view.cells[off] && flags & (FLAG_FOCAL | FLAG_OFFLINE) == 0 {
            continue;
        }
        view.cells[off] = fc;
        if flags & FLAG_OFFLINE != 0 && ctx.rejoin[base + off].is_none() {
            // Still offline: its cell stays exact, the agent is not run.
            continue;
        }
        visits.push(Visit {
            at: off as u32,
            lo: 0,
            hi: 0,
        });
    }
    run_visits(agents, visits, |agent, v| {
        let off = v.at as usize;
        let k = ctx.mobility.kinematics(base + off);
        if view.flags[off] & FLAG_OFFLINE == 0 {
            agent.tick_motion_into(ctx.config, ctx.t, k, out);
        } else {
            let fresh = ctx.rejoin[base + off].expect("an offline agent is run only to rejoin");
            agent.reconnect_into(ctx.config, ctx.t, k, fresh, out);
        }
        view.refresh(off, agent);
    });
    visits.len()
}

/// What every shard of a fast processing phase reads.
struct ProcessCtx<'a> {
    deliveries: &'a soa::Deliveries,
    unicasts: &'a [(NodeId, Arc<Downlink>, usize)],
    broadcasts: &'a [(StationId, Arc<Downlink>, usize)],
    /// Per-broadcast inert-delivery classification, by queue position.
    class: &'a [BcastClass],
    mobility: &'a Mobility,
    config: &'a ProtocolConfig,
    t: f64,
}

impl ProcessCtx<'_> {
    /// The message and wire size behind inbox index `k` (unicasts first,
    /// then broadcasts — see [`soa::Deliveries`]).
    #[inline]
    fn downlink(&self, k: u32) -> (&Downlink, usize) {
        let nu = self.unicasts.len();
        let (msg, bytes) = match self.unicasts.get(k as usize) {
            Some((_, msg, bytes)) => (msg, bytes),
            None => {
                let (_, msg, bytes) = &self.broadcasts[k as usize - nu];
                (msg, bytes)
            }
        };
        (msg, *bytes)
    }
}

/// Fast-engine processing phase over one shard: walks the shard's
/// delivery runs and its `flags` bytes in step, visits only agents with a
/// delivery or `LQT|PENDING` state, applies the safe-period and
/// inert-delivery whole-agent skips to those, and accounts everyone it
/// never looked at with one batched zero LQT-size sample — all from the
/// mirror's bytes, building the list of agents to run. Offline agents
/// (no deliveries left by construction) are stepped over without that
/// sample: the seed engine records nothing for them. Then it runs the
/// list. It counts the received bytes of every delivery of the shard —
/// reception is physical, whether the agent processes the message or
/// drops it as inert — and times the whole pass into `agent.eval_nanos`
/// with one clock pair.
fn process_shard(
    ctx: &ProcessCtx<'_>,
    agents: &mut [MovingObjectAgent],
    out: &mut AgentOutbox,
    mut view: SoaShard<'_>,
    visits: &mut Vec<Visit>,
    base: usize,
) -> ProcessWork {
    const ACTIVE: u8 = FLAG_LQT | FLAG_PENDING;
    // Offline rows stop the scan like active ones, so the cold runs in
    // between hold online agents only.
    const STOP: u8 = ACTIVE | FLAG_OFFLINE;
    let start = Instant::now();
    let n = agents.len();
    let nu = ctx.unicasts.len() as u32;
    let shard_pairs = ctx.deliveries.shard(base, n);
    let mut pairs = shard_pairs;
    let mut work = ProcessWork::default();
    let mut safe_skips = 0u64;
    let mut off = 0;
    visits.clear();
    loop {
        // The next agent worth a look: the first with query state, or
        // failing that the next addressee of a delivery.
        let addressee = pairs.first().map_or(n, |&(node, _)| node as usize - base);
        let at = view.flags[off..addressee]
            .iter()
            .position(|f| f & STOP != 0)
            .map_or(addressee, |p| off + p);
        work.cold += at - off;
        if at == n {
            break;
        }
        off = at + 1;
        if view.flags[at] & FLAG_OFFLINE != 0 {
            work.offline += 1;
            continue;
        }
        let node = (base + at) as u32;
        let run = pairs.iter().take_while(|&&(to, _)| to == node).count();
        let lo = shard_pairs.len() - pairs.len();
        let (inbox, rest) = pairs.split_at(run);
        pairs = rest;
        work.visited += 1;
        let f = view.flags[at];
        if inbox.is_empty() {
            if ctx.config.safe_period && f & FLAG_PENDING == 0 && ctx.t < view.safe_until[at] {
                // Every LQT entry is inside its safe period: the seed
                // evaluation bumps the skip counter per entry, samples
                // the LQT size, and changes nothing else.
                safe_skips += view.lqt_len[at] as u64;
                out.tally.observe_lqt_size(view.lqt_len[at] as usize, 1);
                work.safe_skipped += 1;
                continue;
            }
        } else if f & (ACTIVE | FLAG_SHADOW) == 0 && inbox[0].1 >= nu {
            // Inert-delivery skip: every inbox entry is a broadcast
            // (unicasts sort first, so `inbox[0] >= nu` means none), and
            // the agent holds no query state a broadcast could touch. If
            // each message is provably a no-op for such an agent
            // ([`BcastClass`]), drop it without running `tick_process` —
            // the seed run would only record the zero LQT-size sample
            // batched below. (Its received bytes still count, below.)
            let cell = ctx.config.grid.cell_at(view.cells[at] as usize);
            let inert = inbox
                .iter()
                .all(|&(_, k)| match ctx.class[(k - nu) as usize] {
                    BcastClass::Inert => true,
                    BcastClass::Outside(region) => !region.contains(cell),
                    BcastClass::Hot => false,
                });
            if inert {
                work.inert += 1;
                continue;
            }
        }
        visits.push(Visit {
            at: at as u32,
            lo: lo as u32,
            hi: (lo + run) as u32,
        });
    }
    run_visits(agents, visits, |agent, v| {
        let at = v.at as usize;
        let inbox = &shard_pairs[v.lo as usize..v.hi as usize];
        let k = ctx.mobility.kinematics(base + at);
        let inbox = inbox.iter().map(|&(_, m)| ctx.downlink(m).0);
        agent.tick_process_into(ctx.config, ctx.t, k, inbox, out);
        view.refresh(at, agent);
    });
    // Cold and inert agents: `tick_process` would only have recorded a
    // zero LQT-size sample.
    out.tally
        .observe_lqt_size(0, (work.cold + work.inert) as u64);
    out.tally.skipped_safe_period += safe_skips;
    out.tally.rx_bytes += shard_pairs
        .iter()
        .map(|&(_, m)| ctx.downlink(m).1 as u64)
        .sum::<u64>();
    out.tally.eval_nanos += start.elapsed().as_nanos() as u64;
    work
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_sane_metrics() {
        let mut sim = MobiEyesSim::new(SimConfig::small_test(31));
        let m = sim.run();
        assert_eq!(m.ticks, 15);
        assert!(m.msgs_per_second > 0.0, "protocol must exchange messages");
        assert!(m.uplink_msgs_per_second > 0.0);
        assert!(m.downlink_msgs_per_second > 0.0);
        assert!(m.avg_lqt_size >= 0.0);
        assert!(m.avg_power_mw > 0.0);
        // Eager propagation keeps results close to the truth.
        assert!(
            m.avg_result_error < 0.2,
            "EQP error too high: {}",
            m.avg_result_error
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = MobiEyesSim::new(SimConfig::small_test(32)).run();
        let b = MobiEyesSim::new(SimConfig::small_test(32)).run();
        assert_eq!(a.msgs_per_second, b.msgs_per_second);
        assert_eq!(a.avg_lqt_size, b.avg_lqt_size);
        assert_eq!(a.avg_result_error, b.avg_result_error);
    }

    #[test]
    fn queries_actually_get_results() {
        let mut sim = MobiEyesSim::new(SimConfig::small_test(33));
        sim.run();
        let total: usize = sim
            .query_ids()
            .iter()
            .filter_map(|&q| sim.query_result(q))
            .map(|r| r.len())
            .sum();
        assert!(total > 0, "no query produced any result");
    }

    #[test]
    fn lazy_propagation_reduces_uplink_traffic() {
        let eager = MobiEyesSim::new(SimConfig::small_test(34)).run();
        let lazy =
            MobiEyesSim::new(SimConfig::small_test(34).with_propagation(Propagation::Lazy)).run();
        assert!(
            lazy.uplink_msgs_per_second < eager.uplink_msgs_per_second,
            "LQP uplink {} must be below EQP {}",
            lazy.uplink_msgs_per_second,
            eager.uplink_msgs_per_second
        );
    }
}
