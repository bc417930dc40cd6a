//! The cluster coordinator: N partition-scoped [`Server`]s behind the
//! single-server API.
//!
//! The coordinator decomposes every uplink into the same primitive
//! operations the single server performs — executed at the partitions
//! owning the affected state, in the same global order — and pumps the
//! inter-server bus between operations so cross-partition state (RQI
//! stubs, migrated FOT/SQT rows) is in place before the next operation
//! reads it. That discipline is what makes an N-partition run
//! byte-identical to the single server: same downlink byte stream on the
//! shared agent network, same counters (summed across the per-partition
//! sinks), same event log.

use crate::handle::{FromPayload, PartitionHandle, Probe, RemotePartition};
use crate::partition::{plan_bounds, PartitionMap, Router};
use crate::wire::InitConfig;
use mobieyes_core::server::{srv_keys, Net};
use mobieyes_core::LogRecord;
use mobieyes_core::{
    ClusterMsg, Downlink, Filter, ObjectId, PartitionScope, ProtocolConfig, QueryId, Server, Uplink,
};
use mobieyes_geo::{CellId, LinearMotion, QueryRegion};
use mobieyes_net::TransportError;
use mobieyes_net::{
    BaseStationLayout, FaultPlan, FramedConn, LockstepTransport, MessageMeter, NetworkSim, NodeId,
    SocketTransport, Transport, WireSized,
};
use mobieyes_store::{self as store, Store, StoreConfig};
use mobieyes_telemetry::{rebal_keys, rec_keys, rpc_keys, EventKind, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Default per-RPC read deadline for remote partitions: far above any
/// healthy round trip, so a partition process that *hangs* without
/// closing its socket surfaces as a classified
/// [`TransportError::Timeout`] instead of blocking the coordinator
/// forever. Override via [`ClusterServer::set_rpc_deadline`].
const DEFAULT_RPC_DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

/// Bound on the posted lane: at most this many closed ops, or this many
/// request bytes, await collection at once. Far below either direction's
/// socket buffer (the replies of closed ops are of request size), so a
/// coordinator flushing its window and a partition flushing the replies
/// can never block on each other.
const POST_WINDOW_OPS: usize = 256;
const POST_WINDOW_BYTES: usize = 32 * 1024;

/// One bus frame: an inter-server message plus its destination partition.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub to: u32,
    pub msg: ClusterMsg,
}

impl WireSized for Envelope {
    fn wire_size(&self) -> usize {
        4 + self.msg.wire_size()
    }
}

/// The server↔server link substrate: the same deterministic [`NetworkSim`]
/// the agents use, so `FaultPlan` drop/duplication applies to handoff
/// traffic too. Only the uplink path is used (partitions are peers; there
/// is no broadcast tier between them).
#[deprecated(
    since = "0.6.0",
    note = "the bus is behind the `Transport` trait now; use `LockstepTransport<Envelope>`"
)]
pub type Bus = NetworkSim<Envelope, Envelope>;

/// A deferred install owned by the coordinator (the single server keeps
/// these per-focal on its own pending table).
#[derive(Debug)]
struct PendingInstall {
    qid: QueryId,
    region: QueryRegion,
    filter: Arc<Filter>,
    expires_at: Option<f64>,
}

/// The coordinator's durable record of an installed query — enough to
/// re-issue the install if the partition homing the query dies before the
/// lease machinery would have repaired it. The registry is coordinator
/// state (like `pending`), so it survives any partition crash.
#[derive(Debug)]
struct RegisteredQuery {
    focal: ObjectId,
    region: QueryRegion,
    filter: Arc<Filter>,
    expires_at: Option<f64>,
}

/// Numeric reason codes carried by [`EventKind::RebalanceSkipped`]
/// (event fields are `u64`-only; exporters render the code).
pub mod skip_reason {
    /// A partition is dead or a crash awaits its failover fence.
    pub const UNFENCED: u64 = 1;
    /// The observation window recorded no primary-uplink load (or the
    /// deployment has a single partition).
    pub const NO_LOAD: u64 = 2;
    /// The planner reproduced the installed bounds.
    pub const UNCHANGED: u64 = 3;
}

/// What one [`ClusterServer::recover_crashed`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Partitions newly detected dead and fenced off this pass.
    pub partitions: Vec<u32>,
    /// Flat cells reassigned from the dead partitions to survivors.
    pub cells_reassigned: usize,
    /// Registered queries that were lost with the dead partitions and
    /// re-entered the pending-install pipeline.
    pub queries_reinstalled: usize,
    /// Orphaned bus envelopes re-routed to the new owners.
    pub envelopes_rerouted: usize,
    /// Lost queries recovered directly by replaying the dead partition's
    /// durable log — installed at the new owner with their full result
    /// set, skipping the pending + `PositionRequest` round trip.
    pub queries_replayed: usize,
}

/// Grid-sharded MobiEyes server tier.
///
/// Mirrors the [`Server`] driver surface (`install_query`, `heartbeat`,
/// `tick`, `query_result`, …) so simulation drivers can swap it in behind
/// a `--partitions N` knob.
pub struct ClusterServer {
    config: Arc<ProtocolConfig>,
    map: PartitionMap,
    partitions: Vec<PartitionHandle>,
    /// Per-partition telemetry sinks, drained into the shared protocol
    /// sink in partition order after every coordinator entry point.
    sinks: Vec<Telemetry>,
    /// The shared protocol sink (the one the agent network records into).
    shared: Telemetry,
    bus: Box<dyn Transport<Envelope>>,
    /// The bus records into its own sink so cluster-transport metrics
    /// never leak into the protocol snapshot (which must compare equal
    /// across partition counts).
    bus_sink: Telemetry,
    pending: BTreeMap<ObjectId, Vec<PendingInstall>>,
    next_qid: u32,
    now: f64,
    last_heartbeat: f64,
    /// Per-partition count of uplinks handled as primary (scaling bench).
    ops: Vec<u64>,
    /// Per-cell (flat index) count of primary uplinks since the last
    /// rebalance install — the load signal the rebalance planner cuts.
    cell_ops: Vec<u64>,
    /// Coordinator's view of the shared epoch — the same `Arc` every
    /// partition scope (or remote handle) folds into; kept so recovery
    /// can construct replacement partitions.
    epoch: Arc<AtomicU64>,
    /// Base-station coverage length, kept so a respawned remote partition
    /// can be re-initialized with the identical downlink layout.
    alen: f64,
    /// Partitions currently fenced off as dead (killed in-process or
    /// detected via a classified transport failure). A dead partition
    /// owns no cells after its failover fence and receives nothing.
    dead: BTreeSet<u32>,
    /// Dead partitions whose cells have not been failed over yet —
    /// drained by [`Self::recover_crashed`].
    unfenced: Vec<u32>,
    /// The flat-cell span `[start, end)` each dead partition owned when
    /// its failover fence ran, so a respawn can re-adopt exactly it.
    lost_spans: BTreeMap<u32, (usize, usize)>,
    /// Durable install records for crash re-installation.
    registry: BTreeMap<QueryId, RegisteredQuery>,
    /// Bus envelopes addressed to a down partition, captured by the pump
    /// instead of being applied; the next failover fence re-routes them.
    orphans: Vec<Envelope>,
    /// Root directory of the durable trajectory logs (`<root>/p<N>` per
    /// partition); `None` runs the tier without persistence.
    store_root: Option<PathBuf>,
    /// Coordinator-held stores of the in-process partitions. Remote
    /// partitions own their store inside the partition process; their
    /// slot stays `None` (the coordinator reaches the log over RPC).
    stores: Vec<Option<Store>>,
    /// The posted lane: one entry (the partition index) per closed op
    /// posted to a remote handle and not yet collected, in issue order —
    /// the order their downlinks must reach the agent network in. Empty
    /// outside [`Self::tick`] / [`Self::handle_uplink`].
    lane: Vec<u32>,
    /// Request bytes behind `lane`.
    lane_bytes: usize,
}

impl ClusterServer {
    /// An all-local deployment over the deterministic lock-step bus — the
    /// original configuration, byte-identical to the single server.
    pub fn new(config: Arc<ProtocolConfig>, n: usize, shared: Telemetry) -> Self {
        let bus_sink = Telemetry::new();
        let bus = LockstepTransport::new(BaseStationLayout::new(
            config.grid.universe,
            config.grid.alpha,
        ))
        .with_telemetry(bus_sink.clone());
        Self::new_local_with_bus(config, n, shared, Box::new(bus), bus_sink)
    }

    /// An all-local deployment whose inter-server envelopes ride a real
    /// loopback socket (`alen` is only used for the lock-step layout, so
    /// any [`Transport`] with the contract's ordering works). Every frame
    /// crosses the kernel: same results, real framing.
    pub fn new_over_socket(
        config: Arc<ProtocolConfig>,
        n: usize,
        shared: Telemetry,
        bus: SocketTransport<Envelope>,
    ) -> Self {
        let bus_sink = Telemetry::new();
        let bus = bus.with_telemetry(bus_sink.clone());
        Self::new_local_with_bus(config, n, shared, Box::new(bus), bus_sink)
    }

    fn new_local_with_bus(
        config: Arc<ProtocolConfig>,
        n: usize,
        shared: Telemetry,
        bus: Box<dyn Transport<Envelope>>,
        bus_sink: Telemetry,
    ) -> Self {
        let map = PartitionMap::contiguous(&config.grid, n);
        let epoch = Arc::new(AtomicU64::new(0));
        let sinks: Vec<Telemetry> = (0..n).map(|_| Telemetry::new()).collect();
        let partitions: Vec<PartitionHandle> = (0..n)
            .map(|p| {
                PartitionHandle::Local(Box::new(
                    Server::new(Arc::clone(&config))
                        .with_telemetry(sinks[p].clone())
                        .with_scope(PartitionScope::new(
                            p as u32,
                            Arc::clone(map.table()),
                            Arc::clone(&epoch),
                        )),
                ))
            })
            .collect();
        let alen = config.grid.alpha;
        Self::assemble(
            config, map, partitions, sinks, shared, bus, bus_sink, epoch, alen,
        )
    }

    /// A multi-process deployment: each connection drives one partition
    /// process (hello exchange already completed). `alen` is the shared
    /// base-station coverage length, forwarded so every process builds the
    /// identical downlink layout.
    pub fn new_remote(
        config: Arc<ProtocolConfig>,
        shared: Telemetry,
        conns: Vec<FramedConn>,
        alen: f64,
    ) -> Self {
        Self::new_remote_with_store(config, shared, conns, alen, None)
    }

    /// [`Self::new_remote`] with per-partition durable logs: each process
    /// opens (and replays) `<root>/p<N>` before serving its first op, so
    /// restarting a killed process recovers its partition's state.
    pub fn new_remote_with_store(
        config: Arc<ProtocolConfig>,
        shared: Telemetry,
        conns: Vec<FramedConn>,
        alen: f64,
        store_root: Option<PathBuf>,
    ) -> Self {
        let n = conns.len();
        let map = PartitionMap::contiguous(&config.grid, n);
        let epoch = Arc::new(AtomicU64::new(0));
        let sinks: Vec<Telemetry> = (0..n).map(|_| Telemetry::new()).collect();
        let partitions: Vec<PartitionHandle> = conns
            .into_iter()
            .enumerate()
            .map(|(p, conn)| {
                let remote = RemotePartition::new(p as u32, conn, Arc::clone(&epoch));
                remote.set_rpc_deadline(Some(DEFAULT_RPC_DEADLINE));
                remote
                    .init(InitConfig {
                        universe: config.grid.universe,
                        alpha: config.grid.alpha,
                        alen,
                        delta: config.delta,
                        propagation: config.propagation,
                        grouping: config.grouping,
                        safe_period: config.safe_period,
                        deliver_results: config.deliver_results,
                        system_max_speed: config.system_max_speed,
                        lease_secs: config.lease_secs,
                        heartbeat_secs: config.heartbeat_secs,
                        partition: p as u32,
                        num_partitions: n as u32,
                        store_dir: store_root
                            .as_ref()
                            .map(|r| r.join(format!("p{p}")).to_string_lossy().into_owned()),
                        store_fresh: false,
                    })
                    .unwrap_or_else(|e| panic!("partition {p} failed to initialize: {e}"));
                PartitionHandle::Remote(Box::new(remote))
            })
            .collect();
        let bus_sink = Telemetry::new();
        let bus = LockstepTransport::new(BaseStationLayout::new(
            config.grid.universe,
            config.grid.alpha,
        ))
        .with_telemetry(bus_sink.clone());
        let mut this = Self::assemble(
            config,
            map,
            partitions,
            sinks,
            shared,
            Box::new(bus),
            bus_sink,
            epoch,
            alen,
        );
        this.store_root = store_root;
        this
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        config: Arc<ProtocolConfig>,
        map: PartitionMap,
        partitions: Vec<PartitionHandle>,
        sinks: Vec<Telemetry>,
        shared: Telemetry,
        bus: Box<dyn Transport<Envelope>>,
        bus_sink: Telemetry,
        epoch: Arc<AtomicU64>,
        alen: f64,
    ) -> Self {
        let n = partitions.len();
        let cells = config.grid.num_cells();
        ClusterServer {
            config,
            map,
            partitions,
            sinks,
            shared,
            bus,
            bus_sink,
            pending: BTreeMap::new(),
            next_qid: 0,
            now: 0.0,
            last_heartbeat: f64::NEG_INFINITY,
            ops: vec![0; n],
            cell_ops: vec![0; cells],
            epoch,
            alen,
            dead: BTreeSet::new(),
            unfenced: Vec::new(),
            lost_spans: BTreeMap::new(),
            registry: BTreeMap::new(),
            orphans: Vec::new(),
            store_root: None,
            stores: (0..n).map(|_| None).collect(),
            lane: Vec::new(),
            lane_bytes: 0,
        }
    }

    /// Whether any partition is hosted out-of-process.
    pub fn has_remote(&self) -> bool {
        self.partitions.iter().any(|p| p.is_remote())
    }

    /// Tells every remote partition process to exit its service loop.
    /// No-op for local partitions.
    pub fn shutdown_remote(&mut self) {
        for p in &self.partitions {
            if let PartitionHandle::Remote(r) = p {
                let _ = r.shutdown();
            }
        }
    }

    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The in-process server of partition `p`; `None` when the slot is
    /// remote (that surface is lockstep-only).
    pub fn partition(&self, p: usize) -> Option<&Server> {
        self.partitions[p].local()
    }

    /// Per-partition state weight `(focals, queries, stubs)`, local or
    /// remote, in one pipelined probe round — the load signal behind the
    /// rebalance telemetry. Zeroes for a dead peer.
    pub fn load_signals(&self) -> Vec<(u64, u64, u64)> {
        self.fan_out(|p| p.start_load_signal())
    }

    /// One pipelined probe round: every partition has its request before
    /// the first reply is awaited; results in partition order.
    fn fan_out<T: FromPayload + Default>(
        &self,
        start: impl Fn(&PartitionHandle) -> Probe<T>,
    ) -> Vec<T> {
        let probes: Vec<_> = self.partitions.iter().map(start).collect();
        let finish = |(p, pr): (&PartitionHandle, _)| p.finish(pr);
        self.partitions.iter().zip(probes).map(finish).collect()
    }

    /// [`Self::fan_out`] for ops that mutate the partitions.
    fn fan_out_mut<T: FromPayload + Default>(
        &mut self,
        start: impl FnMut(&mut PartitionHandle) -> Probe<T>,
    ) -> Vec<T> {
        let probes: Vec<_> = self.partitions.iter_mut().map(start).collect();
        let finish = |(p, pr): (&PartitionHandle, _)| p.finish(pr);
        self.partitions.iter().zip(probes).map(finish).collect()
    }

    /// The backend carrying the inter-server bus.
    pub fn bus_kind(&self) -> &'static str {
        self.bus.kind()
    }

    pub fn partition_map(&self) -> &PartitionMap {
        &self.map
    }

    /// Message-bus traffic meter (handoff + stub synchronization).
    pub fn bus_meter(&self) -> MessageMeter {
        self.bus.meter()
    }

    /// The bus's private telemetry sink (fault events, byte counters).
    pub fn bus_telemetry(&self) -> &Telemetry {
        &self.bus_sink
    }

    /// Injects a fault plan on the server↔server links: handoff and stub
    /// traffic gets dropped/duplicated like any other message.
    pub fn set_bus_fault(&mut self, plan: FaultPlan) {
        self.bus.set_fault(plan);
    }

    // --- durable trajectory logs (DESIGN.md §14) --------------------------

    /// Attaches per-partition durable logs at `<root>/p<N>` to an
    /// in-process deployment (builder style). Existing logs are replayed
    /// into their partitions first — restarting a whole lockstep cluster
    /// over the same root recovers its state — then every partition
    /// journals its ops from here on. Remote deployments pass the root to
    /// [`Self::new_remote_with_store`] instead (each process owns its log).
    pub fn with_store(mut self, root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let n = self.partitions.len();
        for p in 0..n {
            let PartitionHandle::Local(server) = &mut self.partitions[p] else {
                continue;
            };
            let dir = root.join(format!("p{p}"));
            let store = Store::open(StoreConfig::new(&dir, p as u32), self.sinks[p].clone())
                .unwrap_or_else(|e| panic!("opening store {}: {e}", dir.display()));
            let mut scratch_net =
                Net::new(BaseStationLayout::new(self.config.grid.universe, self.alen));
            let summary =
                store::replay_into(&dir, p as u32, server, &mut scratch_net, &self.sinks[p])
                    .unwrap_or_else(|e| panic!("replaying store {}: {e}", dir.display()));
            if summary.records_applied > 0 {
                // Historical side effects were delivered in the previous
                // life; only the rebuilt state is kept.
                server.take_outbox();
            }
            if store.next_seq() == 0 {
                store.append_record(&LogRecord::Meta {
                    partition: p as u32,
                    num_partitions: n as u32,
                });
            }
            server.set_journal(Some(Arc::new(store.clone())));
            self.stores[p] = Some(store);
        }
        self.store_root = Some(root);
        self
    }

    /// Whether this deployment journals to durable logs.
    pub fn has_store(&self) -> bool {
        self.store_root.is_some()
    }

    /// Journals an ownership-table install into every live in-process
    /// partition's log (remote partitions journal their own
    /// `InstallBounds` op inside the service loop).
    fn journal_bounds(&self, generation: u64, bounds: &[usize]) {
        let bounds: Vec<u64> = bounds.iter().map(|&b| b as u64).collect();
        for (p, slot) in self.stores.iter().enumerate() {
            let Some(st) = slot else { continue };
            if self.partitions[p].is_remote() || self.partition_down(p as u32) {
                continue;
            }
            st.append_record(&LogRecord::Bounds {
                generation,
                bounds: bounds.clone(),
            });
        }
    }

    /// Cuts a checkpoint of every live partition into its durable log
    /// (snapshot + segment GC — this is what bounds log growth). Returns
    /// the per-partition next sequence number, 0 for storeless or dead
    /// slots. No-op without a store.
    pub fn checkpoint_all(&mut self) -> Vec<u64> {
        (0..self.partitions.len())
            .map(|p| {
                if self.partition_down(p as u32) {
                    return 0;
                }
                match &self.partitions[p] {
                    PartitionHandle::Local(server) => match &self.stores[p] {
                        Some(st) => {
                            st.checkpoint(server.checkpoint_bytes());
                            st.next_seq()
                        }
                        None => 0,
                    },
                    h @ PartitionHandle::Remote(_) => h.checkpoint_remote().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Historical trajectory of `oid` over `[t0, t1]`, merged across every
    /// live partition's durable log (an object's samples land wherever its
    /// reports were journaled, so all logs are consulted). Empty without a
    /// store.
    pub fn trajectory(&self, oid: ObjectId, t0: f64, t1: f64) -> Vec<LinearMotion> {
        let mut out = Vec::new();
        for p in 0..self.partitions.len() {
            if self.partition_down(p as u32) {
                continue;
            }
            match &self.partitions[p] {
                PartitionHandle::Local(_) => {
                    if let Some(st) = &self.stores[p] {
                        out.extend(st.trajectory(oid, t0, t1).unwrap_or_default());
                    }
                }
                h @ PartitionHandle::Remote(_) => out.extend(h.trajectory_remote(oid, t0, t1)),
            }
        }
        store::sort_dedupe_motions(&mut out);
        out
    }

    /// Crash-recovery drill for in-process deployments: swaps partition
    /// `p`'s live server for one rebuilt purely from its durable log —
    /// replayed under a scratch scope, then rebound to the shared
    /// ownership table and epoch. State must be byte-identical afterwards
    /// (the replay-equivalence tests assert it); the rebuilt server
    /// resumes journaling to the same log.
    pub fn rebuild_partition_from_log(&mut self, p: u32) {
        let store = self.stores[p as usize]
            .clone()
            .expect("rebuild requires a store-backed in-process partition");
        let dir = self
            .store_root
            .as_ref()
            .expect("store root set with the stores")
            .join(format!("p{p}"));
        // Push buffered frames to disk first — replay reads the files, not
        // the writer's in-memory tail.
        store.flush();
        let scratch_map = PartitionMap::contiguous(&self.config.grid, self.partitions.len());
        let mut twin = Server::new(Arc::clone(&self.config))
            .with_telemetry(Telemetry::new())
            .with_scope(PartitionScope::new(
                p,
                Arc::clone(scratch_map.table()),
                Arc::new(AtomicU64::new(0)),
            ));
        let mut scratch_net =
            Net::new(BaseStationLayout::new(self.config.grid.universe, self.alen));
        store::replay_into(&dir, p, &mut twin, &mut scratch_net, &Telemetry::new())
            .unwrap_or_else(|e| panic!("replaying store {}: {e}", dir.display()));
        twin.take_outbox();
        twin.rebind_scope(PartitionScope::new(
            p,
            Arc::clone(self.map.table()),
            Arc::clone(&self.epoch),
        ));
        twin.set_telemetry(self.sinks[p as usize].clone());
        twin.set_journal(Some(Arc::new(store)));
        self.partitions[p as usize].replace_local(twin);
    }

    /// Uplinks handled with partition `p` as primary (scaling bench).
    pub fn partition_ops(&self, p: usize) -> u64 {
        self.ops[p]
    }

    /// The current partition-map generation (0 until the first rebalance).
    pub fn map_generation(&self) -> u64 {
        self.map.generation()
    }

    pub fn current_epoch(&self) -> u64 {
        self.partitions[0].current_epoch()
    }

    pub fn num_queries(&self) -> usize {
        self.partitions.iter().map(|p| p.num_queries()).sum()
    }

    /// All installed query ids, ascending (merged across partitions).
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids = self.fan_out(|p| p.start_query_ids()).concat();
        ids.sort_unstable();
        ids
    }

    /// Current result set of a query, wherever it is homed. Borrowed —
    /// available in lockstep deployments only; remote drivers use
    /// [`Self::fetch_query_result`].
    pub fn query_result(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        self.partitions.iter().find_map(|s| s.query_result_ref(qid))
    }

    /// Owned copy of a query's result set, local or remote, fetched from
    /// the partition homing the query.
    pub fn fetch_query_result(&self, qid: QueryId) -> Option<Vec<ObjectId>> {
        self.partitions[self.find_query(qid)?].query_result_owned(qid)
    }

    pub fn query_focal(&self, qid: QueryId) -> Option<ObjectId> {
        self.partitions[self.find_query(qid)?].query_focal(qid)
    }

    /// The partition currently holding the FOT row of `oid` (its home);
    /// `oid` is homed on at most one. No RPC: remote handles answer from
    /// their `homes` mirror.
    fn find_focal(&self, oid: ObjectId) -> Option<usize> {
        self.partitions.iter().position(|p| p.has_focal(oid))
    }

    /// The partition currently homing query `qid` (mirror-answered too).
    fn find_query(&self, qid: QueryId) -> Option<usize> {
        self.partitions.iter().position(|p| p.has_query(qid))
    }

    /// Drains every partition's outbox onto the bus (partition order) and
    /// applies the surviving frames. Called after every primitive
    /// operation so cross-partition state is in place before the next
    /// operation reads it. Message applications never emit follow-ups, so
    /// one round drains the system.
    fn pump_bus(&mut self) {
        for p in 0..self.partitions.len() {
            for (to, msg) in self.partitions[p].take_outbox() {
                self.bus
                    .send(NodeId(p as u32), Envelope { to, msg })
                    .expect("bus send failed");
            }
        }
        self.bus.flush().expect("bus flush failed");
        for (_, env) in self.bus.poll().expect("bus poll failed") {
            // Never deliver to a down partition: a remote would silently
            // drop the frame; a killed local slot holds a fresh empty
            // server that must not adopt migrated state. Captured frames
            // are re-routed (or consciously dropped) at the next fence.
            if self.partition_down(env.to) {
                self.orphans.push(env);
                continue;
            }
            self.partitions[env.to as usize].apply_cluster_msg(&env.msg);
        }
        debug_assert!(self
            .partitions
            .iter_mut()
            .all(|s| s.take_outbox().is_empty()));
    }

    /// Whether partition `p` is known dead: fenced off already, or its
    /// remote handle died mid-tick (classified transport failure) and the
    /// fence has not run yet.
    fn partition_down(&self, p: u32) -> bool {
        self.dead.contains(&p) || self.partitions[p as usize].crashed().is_some()
    }

    /// The lowest-indexed live partition — the shared-epoch anchor and
    /// counter home once partition 0 is allowed to die.
    fn first_live(&self) -> usize {
        (0..self.partitions.len())
            .find(|&p| !self.partition_down(p as u32))
            .expect("at least one partition must survive")
    }

    /// Folds the per-partition sinks into the shared protocol sink, in
    /// partition order.
    fn merge_sinks(&mut self) {
        for s in &self.sinks {
            self.shared.merge_registry(&s.drain());
        }
        self.fold_rpc_counts();
    }

    /// Moves the remote handles' RPC counts into the bus sink (never the
    /// protocol sink: they differ across transports by design).
    fn fold_rpc_counts(&self) {
        for counts in self.partitions.iter().filter_map(|p| p.take_rpc_counts()) {
            for (key, n) in [
                (rpc_keys::ROUND_TRIPS, counts.round_trips),
                (rpc_keys::POSTED, counts.posted),
                (rpc_keys::MIRROR_HITS, counts.mirror_hits),
            ] {
                if n > 0 {
                    self.bus_sink.add(key, n);
                }
            }
        }
    }

    pub fn install_query(
        &mut self,
        focal: ObjectId,
        region: QueryRegion,
        filter: Filter,
        net: &mut Net,
    ) -> QueryId {
        self.install_query_with_lifetime(focal, region, filter, None, net)
    }

    pub fn install_query_with_lifetime(
        &mut self,
        focal: ObjectId,
        region: QueryRegion,
        filter: Filter,
        expires_at: Option<f64>,
        net: &mut Net,
    ) -> QueryId {
        let qid = QueryId(self.next_qid);
        self.next_qid += 1;
        let filter = Arc::new(filter);
        self.registry.insert(
            qid,
            RegisteredQuery {
                focal,
                region,
                filter: Arc::clone(&filter),
                expires_at,
            },
        );
        if let Some(home) = self.find_focal(focal) {
            self.partitions[home].complete_install_at(qid, focal, region, filter, expires_at, net);
            self.pump_bus();
        } else {
            let q = self.pending.entry(focal).or_default();
            let first = q.is_empty();
            q.push(PendingInstall {
                qid,
                region,
                filter,
                expires_at,
            });
            if first {
                self.sinks[0].incr(srv_keys::UNICAST_OPS);
                net.send_unicast(focal.node(), Downlink::PositionRequest);
            }
        }
        self.merge_sinks();
        qid
    }

    /// Removes a query from the system, wherever it is homed.
    pub fn remove_query(&mut self, qid: QueryId, net: &mut Net) -> bool {
        self.registry.remove(&qid);
        let Some(home) = self.find_query(qid) else {
            return false;
        };
        let removed = self.partitions[home].remove_query(qid, net);
        self.pump_bus();
        self.merge_sinks();
        removed
    }

    /// Removes every query whose lifetime has ended; ascending query-id
    /// order across all partitions, like the single server's SQT scan.
    pub fn expire_queries(&mut self, now: f64, net: &mut Net) -> Vec<QueryId> {
        let per_partition = self.fan_out(|s| s.start_expired_query_ids(now));
        let mut expired: Vec<(usize, QueryId)> = Vec::new();
        for (p, qids) in per_partition.into_iter().enumerate() {
            expired.extend(qids.into_iter().map(|q| (p, q)));
        }
        expired.sort_unstable_by_key(|&(_, q)| q);
        let mut out = Vec::with_capacity(expired.len());
        for (home, qid) in expired {
            self.registry.remove(&qid);
            self.sinks[home].event(EventKind::QueryExpired { qid: qid.0 as u64 });
            self.partitions[home].remove_query(qid, net);
            self.pump_bus();
            out.push(qid);
        }
        self.merge_sinks();
        out
    }

    /// Periodic fault-tolerance duties; mirrors [`Server::heartbeat`]
    /// with the lease table sharded across partitions (expiry runs in
    /// ascending object order merged across them) and the digest beacon
    /// concatenating per-partition digests in partition order — exactly
    /// the single server's ascending-flat-index scan.
    pub fn heartbeat(&mut self, now: f64, net: &mut Net) {
        self.now = now;
        self.fan_out_mut(|p| p.start_set_time(now));
        for sink in &self.sinks {
            sink.set_now(now);
        }
        if !self.config.fault_tolerant() || now - self.last_heartbeat < self.config.heartbeat_secs {
            self.merge_sinks();
            return;
        }
        self.last_heartbeat = now;
        self.sinks[0].incr(srv_keys::HEARTBEATS);

        // (1) Lease expiry, ascending object id across all partitions.
        let per_partition = self.fan_out(|s| s.start_expired_leases());
        let mut expired: Vec<(usize, ObjectId, Vec<QueryId>)> = Vec::new();
        for (p, leases) in per_partition.into_iter().enumerate() {
            expired.extend(leases.into_iter().map(|(o, q)| (p, o, q)));
        }
        expired.sort_unstable_by_key(|&(_, oid, _)| oid);
        for (home, oid, qids) in expired {
            self.sinks[home].incr(srv_keys::LEASES_EXPIRED);
            self.sinks[home].event(EventKind::LeaseExpired { oid: oid.0 as u64 });
            for qid in qids {
                let (region, filter, expires_at) = self.partitions[home]
                    .reinstall_info(qid)
                    .expect("leased query in SQT");
                self.partitions[home].remove_query(qid, net);
                self.pump_bus();
                self.pending.entry(oid).or_default().push(PendingInstall {
                    qid,
                    region,
                    filter,
                    expires_at,
                });
            }
        }

        // (2) Retry pending installs.
        let waiting: Vec<ObjectId> = self.pending.keys().copied().collect();
        for oid in waiting {
            self.sinks[0].incr(srv_keys::UNICAST_OPS);
            net.send_unicast(oid.node(), Downlink::PositionRequest);
        }

        // (3) Digest beacon over the shared epoch (partitions share the
        // sequencer, so bumping through partition 0 is global).
        let epoch = self.bump_shared_epoch();
        let cell_digests = self.fan_out(|p| p.start_digest_cells()).concat();
        let sent = net.broadcast_all(Downlink::Heartbeat {
            epoch,
            cell_digests,
        });
        self.sinks[0].add(srv_keys::BROADCAST_OPS, sent as u64);
        self.merge_sinks();
    }

    fn bump_shared_epoch(&mut self) -> u64 {
        let p = self.first_live();
        self.partitions[p].bump_epoch_for_coordinator()
    }

    /// Drains and processes all pending uplink messages. Call once per
    /// tick — the shared agent network carries exactly the same uplink
    /// stream, in the same order, as a single-server deployment.
    pub fn tick(&mut self, net: &mut Net) {
        let uplinks = net.drain_uplinks();
        for (from, msg) in uplinks {
            self.decompose_uplink(from, msg, net);
        }
        self.drain_posted(net);
        self.merge_sinks();
    }

    /// Processes one uplink, decomposed into owner-partition primitives.
    pub fn handle_uplink(&mut self, from: NodeId, msg: Uplink, net: &mut Net) {
        self.decompose_uplink(from, msg, net);
        self.drain_posted(net);
    }

    /// Accounts for a closed op just posted to partition `home` (`bytes`
    /// is 0 when it ran inline or the peer is dead: nothing to collect)
    /// and drains the lane once the window is full.
    fn posted(&mut self, home: usize, bytes: usize, net: &mut Net) {
        if bytes == 0 {
            return;
        }
        self.lane.push(home as u32);
        self.lane_bytes += bytes;
        if self.lane.len() >= POST_WINDOW_OPS || self.lane_bytes >= POST_WINDOW_BYTES {
            self.drain_posted(net);
        }
    }

    /// Collects the reply of every posted op, in issue order, replaying
    /// their downlinks onto `net` in that order. Runs before any call is
    /// issued (calls move the epoch, pump the bus or write to `net`
    /// themselves), when the window fills, and at the end of the tick.
    fn drain_posted(&mut self, net: &mut Net) {
        if self.lane.is_empty() {
            return;
        }
        for p in &self.partitions {
            p.flush_posted();
        }
        for p in self.lane.drain(..) {
            self.partitions[p as usize].collect_posted(net);
        }
        self.lane_bytes = 0;
    }

    /// [`Self::handle_uplink`] minus the final drain: result reports leave
    /// their closed ops posted, so a run of them (the whole ingest phase)
    /// costs one write and one read per partition process.
    fn decompose_uplink(&mut self, from: NodeId, msg: Uplink, net: &mut Net) {
        let primary_flat =
            Router::primary_cell(&self.config.grid, &msg).map(|c| self.config.grid.flat_index(c));
        let primary = primary_flat
            .map(|f| self.map.owner_of_flat(f) as usize)
            .or_else(|| match &msg {
                Uplink::ResultUpdate { changes, .. } => {
                    changes.first().and_then(|(q, _)| self.find_query(*q))
                }
                Uplink::GroupResultUpdate { focal, .. } => self.find_focal(*focal),
                _ => None,
            })
            .unwrap_or(0);
        if let Some(flat) = primary_flat {
            self.cell_ops[flat] += 1;
        }
        self.ops[primary] += 1;
        self.sinks[primary].incr(srv_keys::UPLINKS);
        // Any uplink from a focal object renews its lease, wherever the
        // FOT row is homed. Leases only matter under the fault-tolerance
        // layer; without it `last_heard` is never read.
        if self.config.fault_tolerant() {
            for p in 0..self.partitions.len() {
                let bytes = self.partitions[p].post_renew_lease(ObjectId(from.0));
                self.posted(p, bytes, net);
            }
        }
        if !matches!(
            msg,
            Uplink::ResultUpdate { .. } | Uplink::GroupResultUpdate { .. }
        ) {
            // Everything below is a call.
            self.drain_posted(net);
        }
        match msg {
            Uplink::VelocityReport { oid, motion } => {
                debug_assert_eq!(from.0, oid.0);
                let target = self.find_focal(oid).unwrap_or(primary);
                self.partitions[target].on_velocity_report(oid, motion, net);
                self.pump_bus();
            }
            Uplink::CellChange {
                oid,
                prev_cell,
                new_cell,
                motion,
            } => {
                self.sinks[primary].incr(srv_keys::CELL_CHANGES);
                self.cell_change(oid, prev_cell, new_cell, motion, net);
            }
            Uplink::ResultUpdate { oid, changes } => {
                self.sinks[primary].incr(srv_keys::RESULT_UPDATES);
                for (qid, is_target) in changes {
                    if let Some(home) = self.find_query(qid) {
                        let bytes =
                            self.partitions[home].post_result_change(qid, oid, is_target, net);
                        self.posted(home, bytes, net);
                    }
                }
            }
            Uplink::GroupResultUpdate {
                oid,
                focal,
                mask,
                targets,
            } => {
                self.sinks[primary].incr(srv_keys::RESULT_UPDATES);
                if let Some(home) = self.find_focal(focal) {
                    let bytes = self.partitions[home]
                        .post_group_result_update(oid, focal, mask, targets, net);
                    self.posted(home, bytes, net);
                }
            }
            Uplink::PositionReply {
                oid,
                motion,
                max_vel,
            } => {
                let target = self.find_focal(oid).unwrap_or(primary);
                self.partitions[target].refresh_focal_motion(oid, motion, max_vel, true);
                self.pump_bus();
                self.complete_pending(oid, net);
            }
            Uplink::Resync {
                oid,
                cell,
                motion,
                max_vel,
                fresh,
            } => {
                self.resync(oid, cell, motion, max_vel, fresh, net);
            }
            Uplink::LqtSync { oid, entries } => {
                self.lqt_sync(oid, entries, net);
            }
        }
    }

    /// Cross-partition cell change: migrate the focal object's FOT/SQT
    /// rows to the partition owning the new cell (border handoff), then
    /// run the focal and fresh halves at their owners — the same primitive
    /// sequence, in the same order, as the single server.
    fn cell_change(
        &mut self,
        oid: ObjectId,
        prev_cell: CellId,
        new_cell: CellId,
        motion: LinearMotion,
        net: &mut Net,
    ) {
        // Wire-carried cells may overshoot the grid (see Router docs);
        // clamp before any flat-index lookup.
        let new_cell = self.config.grid.clamp_cell(new_cell);
        let new_home = self.map.owner_of_cell(&self.config.grid, new_cell) as usize;
        if let Some(home) = self.find_focal(oid) {
            if home != new_home {
                if let Some(m) = self.partitions[home].extract_focal(oid) {
                    self.bus
                        .send(
                            NodeId(home as u32),
                            Envelope {
                                to: new_home as u32,
                                msg: m,
                            },
                        )
                        .expect("bus send failed");
                    self.pump_bus();
                }
            }
            // Re-resolve: under a faulty bus the migration may have been
            // lost, leaving the object temporarily homeless (repaired by
            // lease expiry, like any other lost state).
            if let Some(h) = self.find_focal(oid) {
                self.partitions[h].apply_cell_change_focal(oid, new_cell, motion, net);
                self.pump_bus();
            }
        }
        self.partitions[new_home].apply_cell_change_fresh(oid, prev_cell, new_cell, motion, net);
        self.pump_bus();
    }

    /// Completes the coordinator-owned deferred installs of `oid` at its
    /// home partition.
    fn complete_pending(&mut self, oid: ObjectId, net: &mut Net) {
        let Some(pending) = self.pending.remove(&oid) else {
            return;
        };
        // The FOT row normally exists by now, but the partition it was
        // just created on may have died mid-tick; keep the installs
        // deferred and let the heartbeat retry.
        let Some(home) = self.find_focal(oid) else {
            self.pending.insert(oid, pending);
            return;
        };
        for p in pending {
            self.partitions[home].complete_install_at(
                p.qid,
                oid,
                p.region,
                p.filter,
                p.expires_at,
                net,
            );
            self.pump_bus();
        }
    }

    /// The reconnect / digest-mismatch handshake, decomposed across
    /// partitions (see [`Server`]'s `on_resync` for the single-server
    /// original this mirrors step for step).
    fn resync(
        &mut self,
        oid: ObjectId,
        cell: CellId,
        motion: LinearMotion,
        max_vel: f64,
        fresh: bool,
        net: &mut Net,
    ) {
        let cell = self.config.grid.clamp_cell(cell);
        let has_pending = self.pending.contains_key(&oid);
        let home0 = self.find_focal(oid);
        // A focal crashed by a churn plan mid-handoff (or torn down by a
        // concurrent lease expiry) may have no FOT row left even though a
        // partition still answered `has_focal` a moment ago; treat any
        // missing piece as "no prior state" instead of panicking — the
        // lease teardown reclaims the queries.
        let prior = home0.and_then(|h| {
            Some((
                self.partitions[h].focal_motion(oid)?,
                self.partitions[h].focal_queries(oid)?,
            ))
        });
        let target = home0.unwrap_or_else(|| {
            self.map
                .owner_of_cell(&self.config.grid, self.config.grid.cell_of(motion.pos))
                as usize
        });
        self.partitions[target].refresh_focal_motion(oid, motion, max_vel, has_pending);
        self.pump_bus();
        if let Some((old_motion, queries)) = prior {
            if !queries.is_empty() {
                let home = home0.expect("prior implies a home");
                let reported: Vec<CellId> = queries
                    .iter()
                    .filter_map(|q| self.partitions[home].query_cell(*q))
                    .collect();
                let stale_cell = reported.iter().any(|&c| c != cell);
                if stale_cell {
                    // `reported` is non-empty here (`any` matched), so the
                    // migration has a well-defined previous cell; a focal
                    // whose queries vanished mid-handoff simply skips it.
                    let prev = reported[0];
                    self.sinks[self.map.owner_of_cell(&self.config.grid, cell) as usize]
                        .incr(srv_keys::CELL_CHANGES);
                    self.cell_change(oid, prev, cell, motion, net);
                } else if motion.tm > old_motion.tm {
                    self.partitions[home].on_velocity_report(oid, motion, net);
                    self.pump_bus();
                }
            }
        }
        if fresh {
            // Purge the crashed object from every result set, delivering
            // the deltas in ascending query order across all partitions.
            let mut stale: Vec<(usize, QueryId)> = Vec::new();
            for (p, s) in self.partitions.iter_mut().enumerate() {
                stale.extend(s.purge_object(oid).into_iter().map(|q| (p, q)));
            }
            stale.sort_unstable_by_key(|&(_, q)| q);
            self.sinks[0].add(srv_keys::STALE_RESULTS_PURGED, stale.len() as u64);
            for (home, qid) in stale {
                self.partitions[home].deliver_result_delta(qid, oid, false, net);
            }
        }
        self.complete_pending(oid, net);
        if let Some(home) = self.find_focal(oid) {
            self.partitions[home].focal_reassert(oid, net);
        }
        let owner = self.map.owner_of_cell(&self.config.grid, cell) as usize;
        self.partitions[owner].cell_sync_reply(oid, cell, net);
    }

    /// Soft-state refresh against an object's full local view. Only a
    /// query the object mentions or is a member of can change: each
    /// partition is asked once for the object's memberships, and the
    /// union is walked in ascending query order across all partitions,
    /// issuing a reconcile only where claim and membership disagree.
    fn lqt_sync(&mut self, oid: ObjectId, entries: Vec<(QueryId, bool)>, net: &mut Net) {
        self.sinks[0].incr(srv_keys::LQT_SYNCS);
        let mentioned: BTreeMap<QueryId, bool> = entries.into_iter().collect();
        let mut member_at: BTreeMap<QueryId, usize> = BTreeMap::new();
        let per_partition = self.fan_out(|p| p.start_object_memberships(oid));
        for (p, homed) in per_partition.into_iter().enumerate() {
            member_at.extend(homed.into_iter().map(|q| (q, p)));
        }
        let qids: BTreeSet<QueryId> = mentioned.keys().chain(member_at.keys()).copied().collect();
        let mut deltas: Vec<(usize, QueryId, bool)> = Vec::new();
        let mut stale = 0u64;
        for qid in qids {
            let is_target = mentioned.get(&qid).copied().unwrap_or(false);
            let home = match member_at.get(&qid) {
                Some(&home) if !is_target => home,
                None if is_target => match self.find_query(qid) {
                    Some(home) => home,
                    None => continue,
                },
                // Already as claimed.
                _ => continue,
            };
            if self.partitions[home].lqt_reconcile_one(qid, oid, is_target) {
                if !is_target && !mentioned.contains_key(&qid) {
                    stale += 1;
                }
                deltas.push((home, qid, is_target));
            }
        }
        self.sinks[0].add(srv_keys::STALE_RESULTS_PURGED, stale);
        for (home, qid, entered) in deltas {
            self.partitions[home].deliver_result_delta(qid, oid, entered, net);
        }
    }

    /// Load-aware partition rebalancing: recomputes the block bounds from
    /// the per-cell primary-uplink load observed since the last install
    /// and migrates every piece of reassigned state under an *epoch
    /// fence*. Returns `true` when a new map generation was installed.
    ///
    /// The fence sequence (DESIGN.md §10):
    /// 1. quiesce the bus — drain any in-flight envelope against the old
    ///    owner table, so no transfer straddles two generations;
    /// 2. bump the shared epoch — a uniform shift of all later seq
    ///    stamps, invisible to agents (they only compare stamps) but a
    ///    clean pre/post separator in the event log;
    /// 3. install the new bounds, bumping the map generation every
    ///    [`PartitionScope`] resolves ownership through;
    /// 4. transfer the RQI rows of every reassigned cell verbatim
    ///    ([`ClusterMsg::RebalanceCells`], generation-stamped), then
    ///    rehome focal objects whose anchor cell changed owner through
    ///    the ordinary `MigrateFocal` machinery.
    ///
    /// Rebalancing must never change query results — every transfer is
    /// counter-neutral and order-preserving, so an N-partition run stays
    /// byte-identical to the single server whether or not (and whenever)
    /// this runs. The bus fault plan is suspended for the fence window:
    /// transfers are a coordinator control action whose loss would break
    /// that invariant, unlike data-path handoffs which lease-repair.
    pub fn rebalance(&mut self) -> bool {
        let n = self.partitions.len();
        // The load planner assumes every partition can own cells; while
        // any slot is dead (or a crash is awaiting its fence) the
        // recovery fences own the map.
        if !self.dead.is_empty() || !self.unfenced.is_empty() {
            return self.rebalance_skip(rebal_keys::SKIPPED_UNFENCED, skip_reason::UNFENCED);
        }
        if n <= 1 || self.cell_ops.iter().all(|&c| c == 0) {
            return self.rebalance_skip(rebal_keys::SKIPPED_NO_LOAD, skip_reason::NO_LOAD);
        }
        let old_bounds = self.map.bounds_snapshot();
        let new_bounds = plan_bounds(&self.cell_ops, n);
        if new_bounds == old_bounds {
            return self.rebalance_skip(rebal_keys::SKIPPED_UNCHANGED, skip_reason::UNCHANGED);
        }
        // (1) Quiesce: nothing may be in flight across the install.
        self.pump_bus();
        let saved_fault = self.bus.fault().clone();
        self.bus.set_fault(FaultPlan::none());
        // A peer that died mid-tick has a classified dead handle; fencing
        // around a corpse would strand its exports. Leave the old
        // generation installed and let the next `recover_crashed` pass
        // fence the dead partition first.
        if let Some(p) = (0..n as u32).find(|&p| self.partition_down(p)) {
            self.bus.set_fault(saved_fault);
            self.rebalance_abort(p);
            return false;
        }
        // (2) + (3) Fence bump, then the install itself. Remote ownership
        // tables sync BEFORE any transfer leaves the coordinator: a
        // `RebalanceCells` cut for generation G is a whole-message no-op
        // at any other G, so the receiving table must already be at G.
        self.bump_shared_epoch();
        let generation = self.map.install(&new_bounds);
        self.journal_bounds(generation, &new_bounds);
        self.fan_out_mut(|h| h.start_install_bounds(generation, &new_bounds));

        // (4a) RQI rows of every reassigned cell, batched per (from, to)
        // pair in ascending partition order. Every exporter cuts its rows
        // concurrently (pipelined); replies and bus sends keep the batch
        // order, so the bus sees the same traffic as a sequential pass.
        let owner_in = |bounds: &[usize], flat: usize| -> u32 {
            (bounds.partition_point(|&b| b <= flat) - 1) as u32
        };
        let mut moves: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        for flat in 0..self.cell_ops.len() {
            let from = owner_in(&old_bounds, flat);
            let to = owner_in(&new_bounds, flat);
            if from != to {
                moves.entry((from, to)).or_default().push(flat);
            }
        }
        let cells_moved: usize = moves.values().map(Vec::len).sum();
        let mut export_probes = Vec::with_capacity(moves.len());
        for (&(from, _), flats) in &moves {
            export_probes
                .push(self.partitions[from as usize].start_export_cells(flats, generation));
        }
        let mut exports = Vec::with_capacity(moves.len());
        for ((&(from, to), _), pr) in moves.iter().zip(export_probes) {
            exports.push((from, to, self.partitions[from as usize].finish(pr)));
        }
        let mut aborted = false;
        for (from, to, msg) in exports {
            if let Some(msg) = msg {
                if !self.fence_send(from, Envelope { to, msg }) {
                    aborted = true;
                    break;
                }
            }
        }

        // (4b) Rehome focal objects whose anchor cell changed owner,
        // ascending object id — the same MigrateFocal machinery as a
        // border handoff. Census and extraction are pipelined rounds.
        if !aborted {
            self.pump_bus();
            let ids = self.fan_out(|h| h.start_focal_ids());
            let mut anchors = Vec::new();
            for (p, oids) in ids.iter().enumerate() {
                for &oid in oids {
                    anchors.push((p, oid, self.partitions[p].start_focal_anchor_cell(oid)));
                }
            }
            let mut rehome: Vec<(ObjectId, usize, usize)> = Vec::new();
            for (p, oid, pr) in anchors {
                let Some(cell) = self.partitions[p].finish(pr) else {
                    continue;
                };
                let to = self.map.owner_of_cell(&self.config.grid, cell) as usize;
                if to != p {
                    rehome.push((oid, p, to));
                }
            }
            rehome.sort_unstable();
            let mut extract_probes = Vec::with_capacity(rehome.len());
            for &(oid, from, _) in &rehome {
                extract_probes.push(self.partitions[from].start_extract_focal(oid));
            }
            let mut migrations = Vec::with_capacity(rehome.len());
            for (&(_, from, to), pr) in rehome.iter().zip(extract_probes) {
                migrations.push((from, to, self.partitions[from].finish(pr)));
            }
            for (from, to, msg) in migrations {
                if let Some(msg) = msg {
                    if !self.fence_send(from as u32, Envelope { to: to as u32, msg }) {
                        aborted = true;
                        break;
                    }
                }
            }
        }

        // Hygiene: stubs whose monitoring region left a shrunk span.
        if !aborted {
            self.pump_bus();
            self.fan_out_mut(|h| h.start_prune_stubs());
        }
        self.bus.set_fault(saved_fault);
        // Start the next observation window fresh.
        for c in self.cell_ops.iter_mut() {
            *c = 0;
        }
        self.bus_sink.incr(rebal_keys::INSTALLS);
        self.bus_sink
            .add(rebal_keys::CELLS_MOVED, cells_moved as u64);
        self.bus_sink.event(EventKind::RebalanceInstalled {
            generation,
            cells: cells_moved as u64,
        });
        true
    }

    /// Records a rebalance round that did nothing: the shared `skipped`
    /// counter, a per-reason counter, and a diagnosable event — a
    /// deployment whose map never moves shows up in `--metrics-out`
    /// instead of silently running the install-time map.
    fn rebalance_skip(&self, key: &'static str, reason: u64) -> bool {
        self.bus_sink.incr(rebal_keys::SKIPPED);
        self.bus_sink.incr(key);
        self.bus_sink.event(EventKind::RebalanceSkipped { reason });
        false
    }

    /// Records a fence abandoned because `partition` died under it.
    fn rebalance_abort(&self, partition: u32) {
        self.bus_sink.incr(rebal_keys::ABORTS);
        self.bus_sink.event(EventKind::RebalanceAborted {
            partition: partition as u64,
        });
    }

    /// Sends one fence transfer on the bus, classifying failure the way
    /// the RPC path does: peer death records an abort (the next
    /// `recover_crashed` pass fences the corpse and failover repairs the
    /// lost rows) instead of killing the coordinator mid-fence; anything
    /// else is a protocol bug and still panics.
    fn fence_send(&mut self, from: u32, env: Envelope) -> bool {
        let to = env.to;
        match self.bus.send(NodeId(from), env) {
            Ok(()) => true,
            Err(e) if e.is_peer_death() => {
                self.rebalance_abort(to);
                false
            }
            Err(e) => panic!("bus send failed during a fence: {e}"),
        }
    }

    // --- partition crash recovery (DESIGN.md §13) -------------------------

    /// Partitions currently fenced off as dead, ascending.
    pub fn dead_partitions(&self) -> Vec<u32> {
        self.dead.iter().copied().collect()
    }

    /// Installs (or clears) the per-RPC read deadline on every remote
    /// handle, so a partition process that hangs without closing its
    /// socket surfaces as a classified [`TransportError::Timeout`] instead
    /// of blocking the coordinator forever.
    pub fn set_rpc_deadline(&self, dur: Option<std::time::Duration>) {
        for p in &self.partitions {
            p.set_rpc_deadline(dur);
        }
    }

    /// In-process crash injection: drops partition `p`'s entire state on
    /// the floor — the lockstep analogue of `kill -9` on a partition
    /// process — and records it for the next [`Self::recover_crashed`]
    /// fence. The slot is swapped to a fresh empty scoped server so a
    /// later [`Self::respawn_partition`] models a restarted process.
    pub fn kill_partition(&mut self, p: u32) {
        assert!(
            !self.partitions[p as usize].is_remote(),
            "remote partitions die for real; kill the process instead"
        );
        if self.dead.contains(&p) {
            return;
        }
        let fresh = Server::new(Arc::clone(&self.config))
            .with_telemetry(self.sinks[p as usize].clone())
            .with_scope(PartitionScope::new(
                p,
                Arc::clone(self.map.table()),
                Arc::clone(&self.epoch),
            ));
        self.partitions[p as usize].replace_local(fresh);
        self.dead.insert(p);
        self.unfenced.push(p);
        self.bus_sink.incr(rec_keys::CRASH_DETECTIONS);
        self.bus_sink.event(EventKind::PartitionCrashed {
            partition: p as u64,
        });
    }

    /// Scans for partitions that died since the last pass: remote handles
    /// whose RPC path hit a classified transport failure mid-tick, plus an
    /// active liveness probe (one trivial round trip per live remote, so a
    /// peer that died silently between ticks is caught here rather than
    /// corrupting the next fan-out).
    fn detect_crashes(&mut self) {
        let mut newly = Vec::new();
        for p in 0..self.partitions.len() as u32 {
            if self.dead.contains(&p) {
                continue;
            }
            let h = &self.partitions[p as usize];
            if h.crashed().is_some() || !h.probe_alive() {
                newly.push(p);
            }
        }
        for p in newly {
            self.dead.insert(p);
            self.unfenced.push(p);
            self.bus_sink.incr(rec_keys::CRASH_DETECTIONS);
            self.bus_sink.event(EventKind::PartitionCrashed {
                partition: p as u64,
            });
        }
    }

    /// Detects dead partitions and runs the failover fence over every one
    /// not yet fenced. Returns `None` when nothing new was found. Call at
    /// tick boundaries (next to [`Self::rebalance`]); the per-tick cost
    /// with all partitions healthy is one liveness probe per remote.
    pub fn recover_crashed(&mut self, net: &mut Net) -> Option<RecoveryReport> {
        self.detect_crashes();
        if self.unfenced.is_empty() {
            return None;
        }
        let newly = std::mem::take(&mut self.unfenced);
        Some(self.fail_over(newly, net))
    }

    /// The failover fence: reassigns every cell owned by the newly dead
    /// partitions to survivors under an epoch fence, re-routes orphaned
    /// bus traffic, and re-enters lost queries into the pending-install
    /// pipeline. Unlike a rebalance, no state rides along — the dead
    /// rows are unrecoverable. Each adopter rebuilds what it can from its
    /// own SQT and stubs ([`ClusterMsg::RecoverCells`]); everything else
    /// reconverges through the §8 machinery (heartbeat digests → agent
    /// `Resync` → re-install at the new owners).
    fn fail_over(&mut self, newly: Vec<u32>, net: &mut Net) -> RecoveryReport {
        let n = self.partitions.len();
        assert!(
            self.dead.len() < n,
            "every partition is dead; no survivor can adopt the cells"
        );
        // (1) Quiesce: live traffic drains; frames to down partitions are
        // captured in `orphans` by the pump.
        self.pump_bus();
        let saved_fault = self.bus.fault().clone();
        self.bus.set_fault(FaultPlan::none());
        // (2) Fence bump — post-fence re-installs carry seq stamps above
        // anything a stale stub still holds.
        let epoch = self.bump_shared_epoch();
        self.bus_sink.incr(rec_keys::FENCES);

        // (3) Degenerate rebalance: record each dead partition's span for
        // a later re-adoption, zero its width, and split every maximal
        // dead run between its nearest live neighbors (midpoint split —
        // each block stays contiguous).
        let old_bounds = self.map.bounds_snapshot();
        for &p in &newly {
            self.lost_spans
                .insert(p, (old_bounds[p as usize], old_bounds[p as usize + 1]));
        }
        let alive: Vec<bool> = (0..n).map(|i| !self.dead.contains(&(i as u32))).collect();
        let mut w: Vec<usize> = (0..n).map(|i| old_bounds[i + 1] - old_bounds[i]).collect();
        let mut i = 0;
        while i < n {
            if alive[i] {
                i += 1;
                continue;
            }
            let start = i;
            let mut run = 0usize;
            while i < n && !alive[i] {
                run += w[i];
                w[i] = 0;
                i += 1;
            }
            let left = (0..start).rev().find(|&j| alive[j]);
            let right = (i..n).find(|&j| alive[j]);
            match (left, right) {
                (Some(l), Some(r)) => {
                    let half = run / 2;
                    w[l] += half;
                    w[r] += run - half;
                }
                (Some(l), None) => w[l] += run,
                (None, Some(r)) => w[r] += run,
                (None, None) => unreachable!("a live partition exists"),
            }
        }
        let mut new_bounds = vec![0usize; n + 1];
        for i in 0..n {
            new_bounds[i + 1] = new_bounds[i] + w[i];
        }
        let generation = self.map.install(&new_bounds);
        self.journal_bounds(generation, &new_bounds);
        for (p, &live) in alive.iter().enumerate() {
            if live {
                self.partitions[p].install_bounds(generation, &new_bounds);
            }
        }

        // (4) Orphaned envelopes, re-routed under the new map. A focal
        // migration caught mid-handoff goes to the new owner of its
        // anchor cell; stub synchronization is ownership- and seq-guarded
        // (idempotent), so every live partition gets a copy; stale
        // generation-stamped transfers are dead by construction. Runs
        // BEFORE the RecoverCells rebuild so a re-routed home row is in
        // the adopter's SQT when its new cells' RQI rows are recomputed.
        let orphans = std::mem::take(&mut self.orphans);
        let mut rerouted = 0usize;
        let mut dropped = 0usize;
        for env in orphans {
            match &env.msg {
                ClusterMsg::MigrateFocal {
                    motion, queries, ..
                } => {
                    let anchor = queries
                        .first()
                        .map(|q| q.curr_cell)
                        .unwrap_or_else(|| self.config.grid.cell_of(motion.pos));
                    let to = self.map.owner_of_cell(&self.config.grid, anchor) as usize;
                    if alive[to] {
                        self.partitions[to].apply_cluster_msg(&env.msg);
                        rerouted += 1;
                    } else {
                        dropped += 1;
                    }
                }
                ClusterMsg::StubUpdate { .. }
                | ClusterMsg::StubMotion { .. }
                | ClusterMsg::StubRemove { .. } => {
                    for (p, &live) in alive.iter().enumerate() {
                        if live {
                            self.partitions[p].apply_cluster_msg(&env.msg);
                        }
                    }
                    rerouted += 1;
                }
                ClusterMsg::RebalanceCells { .. } | ClusterMsg::RecoverCells { .. } => {
                    dropped += 1;
                }
            }
        }
        self.pump_bus();
        self.bus_sink
            .add(rec_keys::ENVELOPES_REROUTED, rerouted as u64);
        self.bus_sink
            .add(rec_keys::ENVELOPES_DROPPED, dropped as u64);

        // (5) Adopters rebuild the RQI rows of their new cells from their
        // own query tables; generation-guarded exactly like a rebalance
        // transfer. Applied directly — this is a coordinator control
        // action, not data-path traffic.
        let owner_in = |bounds: &[usize], flat: usize| -> u32 {
            (bounds.partition_point(|&b| b <= flat) - 1) as u32
        };
        let mut adopt: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut cells_reassigned = 0usize;
        for &p in &newly {
            let (s, e) = self.lost_spans[&p];
            cells_reassigned += e - s;
            for flat in s..e {
                adopt
                    .entry(owner_in(&new_bounds, flat))
                    .or_default()
                    .push(flat as u32);
            }
            self.bus_sink.event(EventKind::PartitionFailedOver {
                partition: p as u64,
                cells: (e - s) as u64,
            });
        }
        for (to, cells) in adopt {
            let msg = ClusterMsg::RecoverCells {
                generation,
                epoch,
                cells,
            };
            self.partitions[to as usize].apply_cluster_msg(&msg);
        }
        self.bus_sink
            .add(rec_keys::CELLS_FAILED_OVER, cells_reassigned as u64);

        // (6) Hygiene, then re-enter every query lost with the dead
        // partitions into the pending-install pipeline: the agent answers
        // the PositionRequest, the focal row re-forms at the new owner,
        // and the deferred install completes with the ORIGINAL query id
        // (result digests stay comparable with an uncrashed run).
        for (p, &live) in alive.iter().enumerate() {
            if live {
                self.partitions[p].prune_stubs();
            }
        }
        let mut present: BTreeSet<QueryId> = BTreeSet::new();
        for (p, &live) in alive.iter().enumerate() {
            if live {
                present.extend(self.partitions[p].query_ids());
            }
        }
        for q in self.pending.values() {
            present.extend(q.iter().map(|pi| pi.qid));
        }
        let lost: Vec<QueryId> = self
            .registry
            .keys()
            .copied()
            .filter(|q| !present.contains(q))
            .collect();

        // (6b) Prefer recovering lost queries by replaying the dead
        // partitions' durable logs: a replayed scratch server holds the
        // exact focal motion, query spec and result set at the crash, so
        // the query re-forms at its new owner immediately — skipping the
        // pending + PositionRequest round trip through the agent. Queries
        // no log can produce (storeless deployment, torn or stale log)
        // fall back to the pending-install pipeline below.
        let mut queries_replayed = 0usize;
        let mut fallback: Vec<QueryId> = Vec::new();
        if lost.is_empty() || self.store_root.is_none() {
            fallback = lost;
        } else {
            let root = self.store_root.clone().expect("checked above");
            let mut scratches: Vec<Server> = Vec::new();
            for &p in &newly {
                if let Some(st) = &self.stores[p as usize] {
                    st.flush();
                }
                let dir = root.join(format!("p{p}"));
                let scratch_map = PartitionMap::contiguous(&self.config.grid, n);
                let mut scratch = Server::new(Arc::clone(&self.config))
                    .with_telemetry(Telemetry::new())
                    .with_scope(PartitionScope::new(
                        p,
                        Arc::clone(scratch_map.table()),
                        Arc::new(AtomicU64::new(0)),
                    ));
                let mut scratch_net =
                    Net::new(BaseStationLayout::new(self.config.grid.universe, self.alen));
                if store::replay_into(&dir, p, &mut scratch, &mut scratch_net, &Telemetry::new())
                    .is_ok()
                {
                    scratch.take_outbox();
                    scratches.push(scratch);
                }
            }
            for qid in lost {
                let (focal, region, filter, expires_at) = {
                    let r = &self.registry[&qid];
                    (r.focal, r.region, Arc::clone(&r.filter), r.expires_at)
                };
                let recovered = scratches.iter().find(|s| s.has_query(qid)).and_then(|s| {
                    debug_assert_eq!(
                        s.query_focal(qid),
                        Some(focal),
                        "journaled query {qid:?} disagrees with the registry"
                    );
                    let motion = s.focal_motion(focal)?;
                    let max_vel = s
                        .focal_max_vel(focal)
                        .unwrap_or(self.config.system_max_speed);
                    let members: Vec<ObjectId> = s
                        .query_result(qid)
                        .map(|m| m.iter().copied().collect())
                        .unwrap_or_default();
                    Some((motion, max_vel, members))
                });
                let Some((motion, max_vel, members)) = recovered else {
                    fallback.push(qid);
                    continue;
                };
                let home = self
                    .map
                    .owner_of_cell(&self.config.grid, self.config.grid.cell_of(motion.pos))
                    as usize;
                self.partitions[home].refresh_focal_motion(focal, motion, max_vel, true);
                self.pump_bus();
                self.partitions[home]
                    .complete_install_at(qid, focal, region, filter, expires_at, net);
                self.pump_bus();
                // Restore the journaled result set quietly: the members
                // were already announced to the agent before the crash.
                for m in members {
                    self.partitions[home].lqt_reconcile_one(qid, m, true);
                }
                queries_replayed += 1;
            }
        }

        let mut focals: BTreeSet<ObjectId> = BTreeSet::new();
        for qid in &fallback {
            let r = &self.registry[qid];
            focals.insert(r.focal);
            self.pending
                .entry(r.focal)
                .or_default()
                .push(PendingInstall {
                    qid: *qid,
                    region: r.region,
                    filter: Arc::clone(&r.filter),
                    expires_at: r.expires_at,
                });
        }
        let first_live = self.first_live();
        for oid in &focals {
            self.sinks[first_live].incr(srv_keys::UNICAST_OPS);
            net.send_unicast(oid.node(), Downlink::PositionRequest);
        }
        self.bus_sink
            .add(rec_keys::QUERIES_REINSTALLED, fallback.len() as u64);
        self.bus_sink
            .add(rec_keys::QUERIES_REPLAYED, queries_replayed as u64);

        self.bus.set_fault(saved_fault);
        // Ownership moved; the load observation window restarts.
        for c in self.cell_ops.iter_mut() {
            *c = 0;
        }
        self.merge_sinks();
        RecoveryReport {
            partitions: newly,
            cells_reassigned,
            queries_reinstalled: fallback.len(),
            envelopes_rerouted: rerouted,
            queries_replayed,
        }
    }

    /// Brings a killed in-process partition back: its slot already holds
    /// the fresh empty server installed by [`Self::kill_partition`], so
    /// this is purely the re-adoption fence. The failover fence must have
    /// run first (the span to re-adopt is recorded there).
    pub fn respawn_partition(&mut self, p: u32) {
        assert!(self.dead.contains(&p), "respawn of a live partition");
        assert!(
            !self.unfenced.contains(&p),
            "failover fence must run before a respawn"
        );
        self.dead.remove(&p);
        self.reattach_store_fresh(p);
        self.readopt(p);
    }

    /// Post-failover store hygiene for an in-process respawn: the dead
    /// partition's journal is stale (the survivors own its span's live
    /// state now), so the directory is wiped and a fresh log attached —
    /// the re-adoption transfers journal into it from sequence zero.
    fn reattach_store_fresh(&mut self, p: u32) {
        let Some(root) = &self.store_root else { return };
        if self.partitions[p as usize].is_remote() {
            return;
        }
        let dir = root.join(format!("p{p}"));
        store::wipe_dir(&dir)
            .unwrap_or_else(|e| panic!("wiping stale store {}: {e}", dir.display()));
        let st = Store::open(StoreConfig::new(&dir, p), self.sinks[p as usize].clone())
            .unwrap_or_else(|e| panic!("reopening store {}: {e}", dir.display()));
        st.append_record(&LogRecord::Meta {
            partition: p,
            num_partitions: self.partitions.len() as u32,
        });
        if let PartitionHandle::Local(server) = &mut self.partitions[p as usize] {
            server.set_journal(Some(Arc::new(st.clone())));
        }
        self.stores[p as usize] = Some(st);
    }

    /// Respawned-process variant: wraps the supervisor's fresh connection
    /// (hello exchange completed) in a new remote handle — the dead one is
    /// never reused — re-initializes the process with the deployment
    /// config, syncs its ownership table and re-adopts its span.
    pub fn respawn_remote(&mut self, p: u32, conn: FramedConn) -> Result<(), TransportError> {
        assert!(self.dead.contains(&p), "respawn of a live partition");
        assert!(
            !self.unfenced.contains(&p),
            "failover fence must run before a respawn"
        );
        let remote = RemotePartition::new(p, conn, Arc::clone(&self.epoch));
        remote.set_rpc_deadline(Some(DEFAULT_RPC_DEADLINE));
        remote.init(InitConfig {
            universe: self.config.grid.universe,
            alpha: self.config.grid.alpha,
            alen: self.alen,
            delta: self.config.delta,
            propagation: self.config.propagation,
            grouping: self.config.grouping,
            safe_period: self.config.safe_period,
            deliver_results: self.config.deliver_results,
            system_max_speed: self.config.system_max_speed,
            lease_secs: self.config.lease_secs,
            heartbeat_secs: self.config.heartbeat_secs,
            partition: p,
            num_partitions: self.partitions.len() as u32,
            store_dir: self
                .store_root
                .as_ref()
                .map(|r| r.join(format!("p{p}")).to_string_lossy().into_owned()),
            // The failover fence already ran: the survivors own this
            // span's live state, so the old journal is stale — the
            // respawned process wipes it and journals from scratch.
            store_fresh: true,
        })?;
        // The dead handle goes away with its not yet folded counts.
        self.fold_rpc_counts();
        self.partitions[p as usize] = PartitionHandle::Remote(Box::new(remote));
        self.dead.remove(&p);
        self.readopt(p);
        Ok(())
    }

    /// The re-adoption fence: restores the respawned partition's saved
    /// span (clamping the current cuts — the exact inverse of the
    /// failover split when no rebalance intervened) and moves the interim
    /// owners' state back through the rebalance transfer machinery, this
    /// time with content (the survivors' rows are live state worth
    /// preserving, unlike the crashed rows the failover wrote off).
    fn readopt(&mut self, p: u32) {
        let n = self.partitions.len();
        debug_assert!(
            self.unfenced.is_empty(),
            "re-adoption requires every crash to be fenced"
        );
        // (1) Quiesce + fence.
        self.pump_bus();
        let saved_fault = self.bus.fault().clone();
        self.bus.set_fault(FaultPlan::none());
        self.bump_shared_epoch();
        self.bus_sink.incr(rec_keys::FENCES);

        // (2) Restore the saved span by clamping: cuts at or below `p`
        // come down to the span start, cuts above go up to its end.
        let (s, e) = self
            .lost_spans
            .remove(&p)
            .expect("failover recorded the lost span");
        let cur = self.map.bounds_snapshot();
        let mut new_bounds = cur.clone();
        for b in new_bounds.iter_mut().take(p as usize + 1).skip(1) {
            *b = (*b).min(s);
        }
        for b in new_bounds.iter_mut().take(n).skip(p as usize + 1) {
            *b = (*b).max(e);
        }
        let generation = self.map.install(&new_bounds);
        self.journal_bounds(generation, &new_bounds);
        for q in 0..n {
            if !self.dead.contains(&(q as u32)) {
                self.partitions[q].install_bounds(generation, &new_bounds);
            }
        }
        // The respawned slot starts at time zero; align it before any
        // lease-stamped rows arrive.
        self.partitions[p as usize].set_time(self.now);

        // (3) Transfer every reassigned cell verbatim from its interim
        // owner (always live — failover only assigns to survivors).
        let owner_in = |bounds: &[usize], flat: usize| -> u32 {
            (bounds.partition_point(|&b| b <= flat) - 1) as u32
        };
        let mut moves: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        for flat in 0..self.cell_ops.len() {
            let from = owner_in(&cur, flat);
            let to = owner_in(&new_bounds, flat);
            if from != to {
                moves.entry((from, to)).or_default().push(flat);
            }
        }
        let mut readopted = 0usize;
        for ((from, to), flats) in moves {
            readopted += flats.len();
            if let Some(msg) = self.partitions[from as usize].export_cells(&flats, generation) {
                self.fence_send(from, Envelope { to, msg });
            }
        }
        self.pump_bus();

        // (4) Rehome focal objects whose anchor cell went home, ascending
        // object id — the same machinery as a rebalance.
        let mut rehome: Vec<(ObjectId, usize, usize)> = Vec::new();
        for (q, h) in self.partitions.iter().enumerate() {
            if self.dead.contains(&(q as u32)) {
                continue;
            }
            for oid in h.focal_ids() {
                let Some(cell) = h.focal_anchor_cell(oid) else {
                    continue;
                };
                let to = self.map.owner_of_cell(&self.config.grid, cell) as usize;
                if to != q {
                    rehome.push((oid, q, to));
                }
            }
        }
        rehome.sort_unstable();
        for (oid, from, to) in rehome {
            if let Some(m) = self.partitions[from].extract_focal(oid) {
                self.fence_send(
                    from as u32,
                    Envelope {
                        to: to as u32,
                        msg: m,
                    },
                );
            }
        }
        self.pump_bus();

        // (5) Hygiene on the shrunk survivors.
        for q in 0..n {
            if !self.dead.contains(&(q as u32)) {
                self.partitions[q].prune_stubs();
            }
        }
        self.bus.set_fault(saved_fault);
        for c in self.cell_ops.iter_mut() {
            *c = 0;
        }
        self.bus_sink
            .add(rec_keys::CELLS_READOPTED, readopted as u64);
        self.bus_sink.incr(rec_keys::RESPAWNS);
        self.bus_sink.event(EventKind::PartitionRespawned {
            partition: p as u64,
        });
        self.merge_sinks();
    }

    /// Structural self-check: every partition's local invariants, plus
    /// the cross-partition ones — each query homed on exactly one
    /// partition, each focal object on exactly one partition.
    pub fn check_invariants(&self) {
        debug_assert!(self.lane.is_empty(), "posted ops outlived their tick");
        for s in &self.partitions {
            s.check_invariants();
        }
        let mut seen_q: BTreeSet<QueryId> = BTreeSet::new();
        for q in self.fan_out(|p| p.start_query_ids()).concat() {
            assert!(seen_q.insert(q), "query {q:?} homed on two partitions");
        }
        let mut seen_o: BTreeSet<ObjectId> = BTreeSet::new();
        for o in self.fan_out(|p| p.start_focal_ids()).concat() {
            assert!(seen_o.insert(o), "focal {o:?} homed on two partitions");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_core::QueryMigration;
    use mobieyes_geo::{Grid, GridRect, Point, Rect, Vec2};
    use mobieyes_net::BaseStationLayout;

    fn universe() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    /// A 4-partition lockstep cluster over a 20×20 grid (100 flats each).
    fn test_cluster(n: usize) -> (ClusterServer, Net) {
        let config = Arc::new(ProtocolConfig::new(Grid::new(universe(), 5.0)));
        let cluster = ClusterServer::new(config, n, Telemetry::new());
        let net = Net::new(BaseStationLayout::new(universe(), 10.0));
        (cluster, net)
    }

    /// A focal-row migration anchored at `cell`, carrying one query.
    fn migrate_msg(oid: u32, qid: u32, cell: CellId) -> ClusterMsg {
        let pos = Point::new(cell.x as f64 * 5.0 + 2.5, cell.y as f64 * 5.0 + 2.5);
        ClusterMsg::MigrateFocal {
            oid: ObjectId(oid),
            motion: LinearMotion::new(pos, Vec2::new(0.0, 0.0), 0.0),
            max_vel: 0.05,
            used_slots: 0b1,
            last_heard: 0.0,
            epoch: 0,
            queries: vec![QueryMigration {
                spec: mobieyes_core::QuerySpec {
                    qid: QueryId(qid),
                    region: QueryRegion::circle(2.5),
                    filter: Arc::new(Filter::True),
                    slot: 0,
                    seq: 1,
                },
                curr_cell: cell,
                mon_region: GridRect {
                    x0: cell.x.saturating_sub(1),
                    y0: cell.y.saturating_sub(1),
                    x1: cell.x + 1,
                    y1: cell.y + 1,
                },
                expires_at: None,
                result: vec![],
            }],
        }
    }

    /// Satellite regression: a `MigrateFocal` in flight to a partition
    /// that dies before delivery must be re-routed to the post-fence
    /// owner of its anchor cell — not dropped, and never adopted by the
    /// fresh empty server occupying the dead slot.
    #[test]
    fn orphaned_migrate_focal_reroutes_after_fence() {
        let (mut cluster, mut net) = test_cluster(4);
        // Flat 250 = cell (10, 12), owned by partition 2 under the
        // contiguous map; after the midpoint split it belongs to 3.
        let cell = cluster.config.grid.cell_from_flat(250);
        cluster
            .bus
            .send(
                NodeId(0),
                Envelope {
                    to: 2,
                    msg: migrate_msg(7, 3, cell),
                },
            )
            .expect("bus send");
        cluster.bus.flush().expect("bus flush");
        cluster.kill_partition(2);
        let report = cluster
            .recover_crashed(&mut net)
            .expect("kill must be detected and fenced");
        assert_eq!(report.partitions, vec![2]);
        assert_eq!(report.cells_reassigned, 100);
        assert_eq!(report.envelopes_rerouted, 1, "the migration is re-routed");
        assert!(
            cluster
                .partition(3)
                .expect("lockstep")
                .has_focal(ObjectId(7)),
            "the new owner of the anchor cell adopts the focal"
        );
        assert!(cluster
            .partition(3)
            .expect("lockstep")
            .has_query(QueryId(3)));
        assert!(
            !cluster
                .partition(2)
                .expect("lockstep")
                .has_focal(ObjectId(7)),
            "the dead slot's fresh server must not adopt migrated state"
        );
        // A second pass finds nothing new to fence.
        assert!(cluster.recover_crashed(&mut net).is_none());
        cluster.check_invariants();
    }

    /// The failover split halves a dead run between its live neighbors;
    /// a respawn restores the exact pre-crash bounds (the clamp is the
    /// split's inverse when no rebalance intervened) and rehomes focals.
    #[test]
    fn failover_splits_and_respawn_restores_bounds() {
        let (mut cluster, mut net) = test_cluster(4);
        let cell = cluster.config.grid.cell_from_flat(250);
        cluster.partitions[2].apply_cluster_msg(&migrate_msg(7, 3, cell));
        assert_eq!(cluster.map.bounds_snapshot(), vec![0, 100, 200, 300, 400]);
        cluster.kill_partition(2);
        cluster.recover_crashed(&mut net).expect("fence");
        assert_eq!(
            cluster.map.bounds_snapshot(),
            vec![0, 100, 250, 250, 400],
            "dead run split at the midpoint between partitions 1 and 3"
        );
        assert!(cluster
            .partition(2)
            .expect("lockstep")
            .query_ids()
            .next()
            .is_none());
        cluster.respawn_partition(2);
        assert_eq!(
            cluster.map.bounds_snapshot(),
            vec![0, 100, 200, 300, 400],
            "respawn restores the original span"
        );
        assert!(cluster.dead_partitions().is_empty());
        cluster.check_invariants();
    }

    /// A registered query lost with its home partition re-enters the
    /// pending-install pipeline under the ORIGINAL query id, and the
    /// focal agent is asked for its position again.
    #[test]
    fn lost_queries_reenter_pending_with_original_id() {
        let (mut cluster, mut net) = test_cluster(4);
        let cell = cluster.config.grid.cell_from_flat(250);
        // Home a query-less focal row on partition 2, then install a
        // query against it through the coordinator (recorded in the
        // registry like any driver install).
        let mut seed = migrate_msg(7, 3, cell);
        if let ClusterMsg::MigrateFocal { queries, .. } = &mut seed {
            queries.clear();
        }
        cluster.partitions[2].apply_cluster_msg(&seed);
        let qid = cluster.install_query(
            ObjectId(7),
            QueryRegion::circle(2.5),
            Filter::True,
            &mut net,
        );
        assert!(cluster.partition(2).expect("lockstep").has_query(qid));
        net.take_downlinks();
        cluster.kill_partition(2);
        let report = cluster.recover_crashed(&mut net).expect("fence");
        assert_eq!(report.queries_reinstalled, 1);
        let pending: Vec<QueryId> = cluster
            .pending
            .get(&ObjectId(7))
            .map(|v| v.iter().map(|pi| pi.qid).collect())
            .unwrap_or_default();
        assert_eq!(pending, vec![qid], "reinstall keeps the original id");
        let (unicasts, _) = net.take_downlinks();
        assert!(
            unicasts
                .iter()
                .any(|(node, msg, _)| node.0 == 7 && matches!(**msg, Downlink::PositionRequest)),
            "the focal agent is asked to re-report its position"
        );
        cluster.check_invariants();
    }

    /// Every `rebalance()` outcome is diagnosable from the bus sink: each
    /// early return bumps `rebal.skipped` with a per-reason counter and
    /// emits a `RebalanceSkipped` event; an install bumps `rebal.installs`
    /// and emits `RebalanceInstalled`.
    #[test]
    fn rebalance_skips_and_installs_are_counted() {
        let (mut cluster, mut net) = test_cluster(4);
        // No load observed yet: nothing to plan from.
        assert!(!cluster.rebalance());
        // Perfectly uniform load: the planned bounds equal the installed
        // contiguous split, so there is nothing to move.
        for c in cluster.cell_ops.iter_mut() {
            *c = 1;
        }
        assert!(!cluster.rebalance());
        // Skewed load: partition 0's span is hot, so the plan must shift
        // the cuts and install a new generation.
        cluster.cell_ops[0] = 1000;
        assert!(cluster.rebalance());
        assert!(cluster.map_generation() >= 1);
        // A fenced-off dead partition hands the map to the recovery
        // fences; load rebalancing skips until the slot is restored.
        cluster.kill_partition(2);
        cluster.recover_crashed(&mut net).expect("fence");
        cluster.cell_ops[0] = 1000;
        assert!(!cluster.rebalance());
        let snap = cluster.bus_telemetry().snapshot();
        assert_eq!(snap.counter(rebal_keys::SKIPPED), 3);
        assert_eq!(snap.counter(rebal_keys::SKIPPED_NO_LOAD), 1);
        assert_eq!(snap.counter(rebal_keys::SKIPPED_UNCHANGED), 1);
        assert_eq!(snap.counter(rebal_keys::SKIPPED_UNFENCED), 1);
        assert_eq!(snap.counter(rebal_keys::INSTALLS), 1);
        let reasons: Vec<u64> = snap
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RebalanceSkipped { reason } => Some(reason),
                _ => None,
            })
            .collect();
        // Snapshots order events canonically (time, kind, fields), not by
        // emission order.
        assert_eq!(
            reasons,
            vec![
                skip_reason::UNFENCED,
                skip_reason::NO_LOAD,
                skip_reason::UNCHANGED
            ]
        );
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RebalanceInstalled { .. })));
    }
}
