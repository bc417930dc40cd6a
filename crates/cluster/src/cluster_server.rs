//! The cluster coordinator: N partition-scoped [`Server`]s behind the
//! single-server API — the server tier of every simulated deployment,
//! the single server being its one-partition case.
//!
//! Every entry point runs the single server's own sequence
//! ([`mobieyes_core::server::mediate`]) through the coordinator's
//! [`Mediator`] impl: each primitive runs at the partition owning the
//! state it touches, and the inter-server bus is pumped after every call
//! that queued an envelope, so cross-partition state (RQI stubs, migrated
//! FOT/SQT rows) is in place before the next one reads it. One sequence in one global order is what
//! makes an N-partition run byte-identical to the single server: the same
//! downlink byte stream on the shared agent network, the same counters
//! (summed across the per-partition sinks), the same event log. What is
//! left here is the coordinator's own: the query registry, per-partition
//! load, sink merging and the fences.
//!
//! A remote partition is reached through the posted lane
//! (`handle::Lane`): a closed op is posted without waiting, and a
//! call or read at partition *p* reads only *p*'s connection — *p*'s
//! posted replies first, then its own. Every other partition's posted
//! replies wait until that partition is next read, the window fills, or
//! the tick ends; the lane replays every downlink onto the agent network
//! in issue order. Each entry point that writes the network itself — the
//! position requests of an install, a heartbeat or a failover, and the
//! heartbeat beacon — runs with the lane empty.

use crate::handle::{Lane, PartitionHandle, Probe};
use crate::partition::{failover_bounds, moved_cells, plan_bounds, readopt_bounds, Router};
use crate::serve::{self, ServiceState};
use crate::wire::{InitConfig, PartitionOp};
use mobieyes_core::server::lqt_sync::LqtSyncScratch;
use mobieyes_core::server::mediate::{self, Focal, Reinstall};
use mobieyes_core::server::{
    srv_keys, srv_slots, FromPayload, Mediator, Net, PendingInstall, ServerTally,
};
use mobieyes_core::{
    ClusterMsg, Downlink, Filter, LogRecord, ObjectId, PartitionTable, ProtocolConfig, QueryId,
    Server, Uplink,
};
use mobieyes_geo::{CellId, LinearMotion, QueryRegion};
use mobieyes_net::TransportError;
use mobieyes_net::{BaseStationLayout, FramedConn, MessageMeter, NetworkSim, NodeId, WireSized};
use mobieyes_store as store;
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

/// One bus frame: an inter-server message plus its destination partition.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub to: u32,
    pub msg: ClusterMsg,
}

impl WireSized for Envelope {
    fn wire_size(&self) -> usize {
        mobieyes_core::codec::encoded_len(self)
    }
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

/// One installed fence, as its body and its caller see it.
struct Fence {
    generation: u64,
    /// The shared epoch after the fence bump.
    epoch: u64,
    /// Flat cells whose owner changed, ascending, keyed by `(from, to)`.
    moves: BTreeMap<(u32, u32), Vec<usize>>,
    /// `false` while the body runs, and for good once a peer died under
    /// the fence: the generation is installed, the transfers are partial
    /// and the next [`ClusterServer::recover_crashed`] pass repairs them.
    completed: bool,
}

impl Fence {
    fn cells_moved(&self) -> u64 {
        self.moves.values().map(|flats| flats.len() as u64).sum()
    }
}

/// Grid-sharded MobiEyes server tier.
///
/// Offers the [`Server`] driver surface (`install_query`, `heartbeat`,
/// `tick`, `query_result`, …) so simulation drivers can swap it in behind
/// a `--partitions N` knob.
pub struct ClusterServer {
    config: Arc<ProtocolConfig>,
    /// The authoritative cell-ownership table; every partition holds a
    /// copy that the fences keep in step with `Bounds` records.
    map: PartitionTable,
    partitions: Vec<PartitionHandle>,
    /// Per-partition telemetry sinks, drained into the shared protocol
    /// sink in partition order after every coordinator entry point.
    sinks: Vec<Telemetry>,
    /// The shared protocol sink (the one the agent network records into).
    shared: Telemetry,
    /// The `srv.*` counters the coordinator's sequences count, published
    /// into `shared` with the partitions' counters.
    tally: ServerTally,
    /// The inter-server bus: the uplink path of a lock-step network. A
    /// pump delivers every envelope sent since the last one, in send
    /// order.
    bus: NetworkSim<Envelope, Envelope>,
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
    /// The primary cells of the uplinks not yet counted in `cell_ops`.
    /// An uplink only appends its cell; the tick counts the batch, where
    /// the scattered increments overlap instead of stalling each uplink.
    cell_hits: Vec<u32>,
    /// Reusable uplink drain buffer: a tick takes the agent network's
    /// queue without leaving it to regrow from empty.
    uplinks: Vec<(NodeId, Uplink)>,
    /// Coordinator's view of the shared epoch — the same `Arc` every
    /// handle folds its replies into; kept so recovery can construct
    /// replacement partitions.
    epoch: Arc<AtomicU64>,
    /// Base-station coverage length, kept so a respawned partition is
    /// built with the identical downlink layout.
    alen: f64,
    /// Partitions currently fenced off as dead (killed, or detected via
    /// a classified failure). A dead partition
    /// owns no cells after its failover fence and receives nothing.
    dead: BTreeSet<u32>,
    /// Dead partitions whose cells have not been failed over yet —
    /// drained by [`Self::recover_crashed`].
    unfenced: Vec<u32>,
    /// The flat-cell span `[start, end)` each dead partition owned when
    /// its failover fence ran, so a respawn can re-adopt exactly it.
    lost_spans: BTreeMap<u32, (usize, usize)>,
    /// Every installed query with its focal object: enough to re-issue
    /// the install if the partition homing the query dies before the lease
    /// machinery would have repaired it. Coordinator state, like
    /// `pending`, so it survives any partition crash.
    registry: BTreeMap<QueryId, (ObjectId, PendingInstall)>,
    /// Bus envelopes addressed to a down partition, captured by the pump
    /// instead of being applied; the next failover fence re-routes them.
    orphans: Vec<Envelope>,
    /// Root directory of the durable trajectory logs (`<root>/p<N>` per
    /// partition, each owned by its partition); `None` runs the tier
    /// without persistence.
    store_root: Option<PathBuf>,
    /// The posted lane: the issue order of the downlinks not yet on the
    /// agent network. Empty outside [`Self::tick`] /
    /// [`Self::handle_uplink`].
    lane: Lane,
    /// The network the coordinator's own ops run against — fence rounds
    /// and bus delivery. None of them emits a downlink, but
    /// [`Server::apply`] takes a network.
    quiet: Net,
    /// Reusable buffers of the `LqtSync` reconcile walk; a membership is
    /// tagged with the partition holding it.
    lqt_scratch: LqtSyncScratch<usize>,
}

impl ClusterServer {
    /// An in-process deployment, byte-identical to the single server:
    /// every partition is a `ServiceState` built from the `Init` a
    /// partition service would be sent, counting into its own sink. With
    /// a `store_root`, each partition opens (and replays) `<root>/p<N>`
    /// as it is built — restarting a whole cluster over the same root
    /// recovers its state — and journals to it from then on. A store that
    /// cannot be opened or replayed is the error, naming the path.
    pub fn new(
        config: Arc<ProtocolConfig>,
        n: usize,
        shared: Telemetry,
        store_root: Option<PathBuf>,
    ) -> Result<Self, TransportError> {
        // No agent hears an in-process partition's own network.
        let alen = config.grid.alpha;
        Self::assemble(config, n, shared, alen, store_root, |this, p| {
            this.build(p, None, false)
        })
    }

    /// A multi-process deployment: each connection drives one partition
    /// process (hello exchange already completed). `alen` is the shared
    /// base-station coverage length, forwarded so every process builds the
    /// identical downlink layout. With a `store_root`, each process opens
    /// (and replays) `<root>/p<N>` before serving its first op, so
    /// restarting a killed process recovers its partition's state. A
    /// partition that fails its `Init` is the error.
    pub fn new_remote_with_store(
        config: Arc<ProtocolConfig>,
        shared: Telemetry,
        conns: Vec<FramedConn>,
        alen: f64,
        store_root: Option<PathBuf>,
    ) -> Result<Self, TransportError> {
        let n = conns.len();
        let mut conns = conns.into_iter();
        Self::assemble(config, n, shared, alen, store_root, |this, p| {
            this.build(p, conns.next(), false)
        })
    }

    /// The coordinator of `n` partitions, each made by `build` in order.
    fn assemble(
        config: Arc<ProtocolConfig>,
        n: usize,
        shared: Telemetry,
        alen: f64,
        store_root: Option<PathBuf>,
        mut build: impl FnMut(&Self, u32) -> Result<PartitionHandle, TransportError>,
    ) -> Result<Self, TransportError> {
        let cells = config.grid.num_cells();
        let quiet = Net::new(BaseStationLayout::new(config.grid.universe, alen));
        let bus_sink = Telemetry::new();
        let bus = NetworkSim::new(BaseStationLayout::new(
            config.grid.universe,
            config.grid.alpha,
        ))
        .with_telemetry(bus_sink.clone());
        let mut this = ClusterServer {
            map: PartitionTable::contiguous(cells, n),
            config,
            partitions: Vec::with_capacity(n),
            sinks: (0..n).map(|_| Telemetry::new()).collect(),
            shared,
            tally: ServerTally::new(srv_keys::ALL),
            bus,
            bus_sink,
            pending: BTreeMap::new(),
            next_qid: 0,
            now: 0.0,
            last_heartbeat: f64::NEG_INFINITY,
            ops: vec![0; n],
            cell_ops: vec![0; cells],
            cell_hits: Vec::new(),
            uplinks: Vec::new(),
            epoch: Arc::new(AtomicU64::new(0)),
            alen,
            dead: BTreeSet::new(),
            unfenced: Vec::new(),
            lost_spans: BTreeMap::new(),
            registry: BTreeMap::new(),
            orphans: Vec::new(),
            store_root,
            lane: Lane::default(),
            quiet,
            lqt_scratch: LqtSyncScratch::default(),
        };
        for p in 0..n as u32 {
            let partition = build(&this, p)?;
            this.partitions.push(partition);
        }
        Ok(this)
    }

    /// The `Init` of partition `p`: the deployment's protocol config, the
    /// shared base-station coverage length and the partition's durable-log
    /// directory (`store_fresh` wipes a stale log first).
    fn init_of(&self, p: u32, store_fresh: bool) -> InitConfig {
        let (config, root) = (&self.config, self.store_root.as_ref());
        InitConfig {
            universe: config.grid.universe,
            alpha: config.grid.alpha,
            alen: self.alen,
            delta: config.delta,
            propagation: config.propagation,
            grouping: config.grouping,
            safe_period: config.safe_period,
            deliver_results: config.deliver_results,
            system_max_speed: config.system_max_speed,
            lease_secs: config.lease_secs,
            heartbeat_secs: config.heartbeat_secs,
            partition: p,
            num_partitions: self.map.num_partitions() as u32,
            store_dir: root.map(|r| r.join(format!("p{p}")).to_string_lossy().into_owned()),
            store_fresh,
        }
    }

    /// Partition `p`, built from its `Init`: in this process, or behind
    /// `conn` (hello exchange completed), whose service is sent it.
    fn build(
        &self,
        p: u32,
        conn: Option<FramedConn>,
        store_fresh: bool,
    ) -> Result<PartitionHandle, TransportError> {
        let (init, epoch) = (self.init_of(p, store_fresh), Arc::clone(&self.epoch));
        // Two links: build the state here, or send its `Init` to a service.
        let Some(conn) = conn else {
            let state = ServiceState::build(&init, self.sinks[p as usize].clone())?;
            return Ok(PartitionHandle::in_process(p, state, epoch));
        };
        let remote = PartitionHandle::remote(p, conn, epoch);
        remote.set_rpc_deadline(Some(DEFAULT_RPC_DEADLINE));
        remote.init(init)?;
        Ok(remote)
    }

    /// Whether any partition is hosted out-of-process.
    pub fn has_remote(&self) -> bool {
        self.partitions.iter().any(|p| p.is_remote())
    }

    /// Tells every remote partition process to exit its service loop.
    /// No-op for in-process partitions.
    pub fn shutdown_remote(&mut self) {
        for p in &self.partitions {
            let _ = p.shutdown();
        }
    }

    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The sink partition `p` counts into: its server and journal
    /// counters when it runs in process, the coordinator's events for it
    /// either way. Drained into the shared sink after every entry point.
    pub fn partition_telemetry(&self, p: usize) -> &Telemetry {
        &self.sinks[p]
    }

    /// Per-partition state weight `(focals, queries, stubs)`, local or
    /// remote, in one pipelined probe round — the load signal behind the
    /// rebalance telemetry. Zeroes for a dead peer.
    pub fn load_signals(&self) -> Vec<(u64, u64, u64)> {
        self.fan_out(&PartitionOp::LoadSignal)
    }

    /// One pipelined probe round of a read: every remote partition has
    /// its request before the first reply is awaited, and an in-process
    /// one answers when its turn comes; results in partition order.
    fn fan_out<T: FromPayload + Default>(&self, op: &PartitionOp) -> Vec<T> {
        let mut started = self.start_remote(op);
        let answer = |h: &PartitionHandle| {
            if h.is_remote() {
                h.finish(started.next().expect("every remote probe was started"))
            } else {
                h.ask(op)
            }
        };
        self.partitions.iter().map(answer).collect()
    }

    /// The request half of a probe round: `op` started at every remote
    /// partition, in partition order.
    fn start_remote<T: FromPayload + Default>(
        &self,
        op: &PartitionOp,
    ) -> std::vec::IntoIter<Probe<T>> {
        let remote = self.partitions.iter().filter(|h| h.is_remote());
        remote.map(|h| h.start(op)).collect::<Vec<_>>().into_iter()
    }

    /// [`Self::fan_out`] of a mutation.
    fn fan_out_mut<T: FromPayload + Default>(&mut self, rec: &LogRecord) -> Vec<T> {
        let quiet = &mut self.quiet;
        let start = |p: &mut PartitionHandle| p.start_apply(rec, quiet);
        let probes: Vec<_> = self.partitions.iter_mut().map(start).collect();
        self.finish_all(probes)
    }

    fn finish_all<T: FromPayload + Default>(&self, probes: Vec<Probe<T>>) -> Vec<T> {
        let finish = |(p, pr): (&PartitionHandle, _)| p.finish(pr);
        self.partitions.iter().zip(probes).map(finish).collect()
    }

    /// Message-bus traffic meter (handoff + stub synchronization).
    pub fn bus_meter(&self) -> MessageMeter {
        self.bus.meter()
    }

    /// The bus's private telemetry sink (byte counters, fence and RPC
    /// counts).
    pub fn bus_telemetry(&self) -> &Telemetry {
        &self.bus_sink
    }

    // --- durable trajectory logs (DESIGN.md §14) --------------------------

    /// Whether this deployment journals to durable logs.
    pub fn has_store(&self) -> bool {
        self.store_root.is_some()
    }

    /// Cuts a checkpoint of every live partition into its durable log
    /// (snapshot + segment GC — this is what bounds log growth). Returns
    /// the per-partition next sequence number, 0 for storeless or dead
    /// slots.
    pub fn checkpoint_all(&mut self) -> Vec<u64> {
        self.ask_live(&PartitionOp::Checkpoint)
    }

    /// Historical trajectory of `oid` over `[t0, t1]`, merged across every
    /// live partition's durable log (an object's samples land wherever its
    /// reports were journaled, so all logs are consulted). Empty without a
    /// store.
    pub fn trajectory(&self, oid: ObjectId, t0: f64, t1: f64) -> Vec<LinearMotion> {
        let op = PartitionOp::Trajectory { oid, t0, t1 };
        let mut out = self.ask_live::<Vec<_>>(&op).concat();
        store::sort_dedupe_motions(&mut out);
        out
    }

    /// `op` asked of each partition in turn; a partition known dead
    /// answers the op's neutral fallback unasked.
    fn ask_live<T: FromPayload + Default>(&self, op: &PartitionOp) -> Vec<T> {
        let ask = |(p, h): (usize, &PartitionHandle)| {
            if self.partition_down(p as u32) {
                T::default()
            } else {
                h.ask(op)
            }
        };
        self.partitions.iter().enumerate().map(ask).collect()
    }

    /// Crash-recovery drill for in-process deployments: stops partition
    /// `p` and builds it again purely from its durable log — the replay a
    /// restarted partition service runs (`store_fresh = false`). State
    /// must be byte-identical afterwards (the replay-equivalence tests
    /// assert it); the rebuilt partition resumes journaling into a new
    /// segment of the same log. Panics without a store. A log that cannot
    /// be replayed is the error, naming the path: the killed slot stays
    /// dead, and the next [`Self::recover_crashed`] pass fences it like any
    /// crash.
    pub fn rebuild_partition_from_log(&mut self, p: u32) -> Result<(), TransportError> {
        let in_process = !self.partitions[p as usize].is_remote();
        assert!(
            self.has_store() && in_process,
            "rebuild needs a store, in process"
        );
        self.partitions[p as usize].kill();
        self.partitions[p as usize] = self.build(p, None, false)?;
        Ok(())
    }

    /// A scratch server rebuilt purely from partition `p`'s durable log,
    /// under a private ownership table and epoch. The log is complete: a
    /// partition's journal is flushed before it acknowledges an op, or
    /// before its state is dropped.
    fn replay_scratch(&self, p: u32) -> std::io::Result<Server> {
        let dir = self
            .store_root
            .as_ref()
            .expect("replay requires a store root")
            .join(format!("p{p}"));
        let mut scratch = serve::partition_server(&self.config, p, self.partitions.len());
        let mut scratch_net =
            Net::new(BaseStationLayout::new(self.config.grid.universe, self.alen));
        store::replay_into(&dir, p, &mut scratch, &mut scratch_net, &Telemetry::new())?;
        scratch.take_outbox();
        Ok(scratch)
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
        let mut ids = self.fan_out::<Vec<_>>(&PartitionOp::QueryIds).concat();
        ids.sort_unstable();
        ids
    }

    /// Current result set of a query, wherever it is homed. Borrowed —
    /// available in lockstep deployments only; remote drivers use
    /// [`Self::fetch_query_result`].
    pub fn query_result(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        self.partitions.iter().find_map(|s| s.query_result_ref(qid))
    }

    /// Partition `p`'s server, read-only, when it runs in this process and
    /// is alive (its tables, its state digest); `None` for a remote or
    /// dead partition.
    pub fn local_server(&self, p: usize) -> Option<&Server> {
        self.partitions[p].local_server()
    }

    /// Owned copy of a query's result set, local or remote, fetched from
    /// the partition homing the query.
    pub fn fetch_query_result(&self, qid: QueryId) -> Option<Vec<ObjectId>> {
        self.partitions[self.query_home(qid)?].ask(&PartitionOp::QueryResult(qid))
    }

    pub fn query_focal(&self, qid: QueryId) -> Option<ObjectId> {
        self.partitions[self.query_home(qid)?].ask(&PartitionOp::QueryFocal(qid))
    }

    /// Drains every partition's outbox onto the bus (partition order) and
    /// applies the surviving frames. Called after every primitive
    /// operation so cross-partition state is in place before the next
    /// operation reads it. Message applications never emit follow-ups, so
    /// one round drains the system; nor downlinks, so they run against the
    /// quiet network. An envelope's call reads its partition's posted
    /// replies first, like any call, and parks them for the lane.
    fn pump_bus(&mut self) {
        let idle = |h: &PartitionHandle| !h.has_outbox();
        if self.bus.pending_uplinks() == 0 && self.partitions.iter().all(idle) {
            return;
        }
        for p in 0..self.partitions.len() {
            for (to, msg) in self.partitions[p].take_outbox() {
                self.bus.send_uplink(NodeId(p as u32), Envelope { to, msg });
            }
        }
        for (_, env) in self.bus.drain_uplinks() {
            // Never deliver to a down partition: its dead handle would
            // silently drop the frame. Captured frames are re-routed (or
            // consciously dropped) at the next fence.
            if self.partition_down(env.to) {
                self.orphans.push(env);
                continue;
            }
            let rec = LogRecord::Cluster(env.msg);
            self.partitions[env.to as usize].call::<()>(&rec, &mut self.quiet);
        }
        debug_assert!(self
            .partitions
            .iter_mut()
            .all(|s| s.take_outbox().is_empty()));
    }

    /// Whether partition `p` is known dead: fenced off already, or its
    /// handle died mid-tick (a classified failure) and the fence has not
    /// run yet.
    fn partition_down(&self, p: u32) -> bool {
        self.dead.contains(&p) || self.partitions[p as usize].crashed().is_some()
    }

    /// The lowest-indexed live partition — the shared-epoch anchor and
    /// counter home once partition 0 is allowed to die; `None` once every
    /// partition is down.
    fn first_live(&self) -> Option<usize> {
        (0..self.partitions.len()).find(|&p| !self.partition_down(p as u32))
    }

    /// Folds the per-partition sinks into the shared protocol sink, in
    /// partition order, after publishing every counter counted since the
    /// last fold: the coordinator's, and each in-process partition's
    /// server and journal counters into its sink.
    fn merge_sinks(&mut self) {
        self.tally.flush(&self.shared);
        for (p, s) in self.sinks.iter().enumerate() {
            self.partitions[p].publish();
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
                (rpc_keys::FLUSHES, counts.flushes),
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
        let p = PendingInstall {
            qid,
            region,
            filter: Arc::new(filter),
            expires_at,
        };
        self.registry.insert(qid, (focal, p.clone()));
        debug_assert!(self.lane.is_empty(), "install writes the network");
        mediate::install(self, focal, p, net);
        self.merge_sinks();
        qid
    }

    /// Removes a query from the system, wherever it is homed.
    pub fn remove_query(&mut self, qid: QueryId, net: &mut Net) -> bool {
        self.registry.remove(&qid);
        let removed = mediate::remove(self, qid, net);
        self.merge_sinks();
        removed
    }

    /// Removes every query whose lifetime has ended, in ascending query-id
    /// order across all partitions.
    pub fn expire_queries(&mut self, now: f64, net: &mut Net) -> Vec<QueryId> {
        let expired = mediate::expire(self, now, net);
        self.merge_sinks();
        expired
    }

    /// Periodic fault-tolerance duties ([`mediate::heartbeat`]), with the
    /// lease table sharded across partitions.
    pub fn heartbeat(&mut self, now: f64, net: &mut Net) {
        debug_assert!(self.lane.is_empty(), "the heartbeat writes the network");
        mediate::heartbeat(self, now, net);
        self.merge_sinks();
    }

    /// Drains and processes all pending uplink messages. Call once per
    /// tick — the shared agent network carries exactly the same uplink
    /// stream, in the same order, as a single-server deployment.
    pub fn tick(&mut self, net: &mut Net) {
        let mut uplinks = std::mem::take(&mut self.uplinks);
        net.drain_uplinks_into(&mut uplinks);
        for (from, msg) in uplinks.drain(..) {
            self.uplink(from, &msg, net);
        }
        self.uplinks = uplinks;
        self.lane.drain(&self.partitions, net);
        self.count_cell_load();
        self.merge_sinks();
    }

    /// Processes one uplink, decomposed into owner-partition primitives.
    pub fn handle_uplink(&mut self, from: NodeId, msg: Uplink, net: &mut Net) {
        self.uplink(from, &msg, net);
        self.lane.drain(&self.partitions, net);
        self.count_cell_load();
    }

    /// Counts the primary cells appended since the last call into the
    /// planner's per-cell load.
    fn count_cell_load(&mut self) {
        for flat in self.cell_hits.drain(..) {
            self.cell_ops[flat as usize] += 1;
        }
    }

    /// [`Self::handle_uplink`] minus the final drain: closed ops are left
    /// posted, so a run of them — result reports, lease renewals, the cell
    /// changes of non-focal objects — rides the next write to its
    /// partition and is read with the next read of it. The uplink's
    /// primary partition — the owner of the cell it names, else the home of
    /// what it reports on — is charged with it for the scaling bench and
    /// the rebalance planner.
    fn uplink(&mut self, from: NodeId, msg: &Uplink, net: &mut Net) {
        let primary_flat =
            Router::primary_cell(&self.config.grid, msg).map(|c| self.config.grid.flat_index(c));
        let primary = primary_flat
            .map(|f| self.map.owner_of(f) as usize)
            .or_else(|| match msg {
                Uplink::ResultUpdate { changes, .. } => {
                    changes.first().and_then(|(q, _)| self.query_home(*q))
                }
                Uplink::GroupResultUpdate { focal, .. } => self.focal_home(*focal),
                _ => None,
            })
            .unwrap_or(0);
        if let Some(flat) = primary_flat {
            self.cell_hits.push(flat as u32);
        }
        self.ops[primary] += 1;
        mediate::uplink(self, primary, from, msg, net);
    }

    /// [`Self::fan_out`] from the data path: each partition's posted
    /// replies are read ahead of its probe's, and the lane replays them.
    fn probe_all<T: FromPayload + Default>(&mut self, net: &mut Net, op: &PartitionOp) -> Vec<T> {
        let answers = self.fan_out(op);
        self.lane.replay(&self.partitions, net);
        answers
    }

    // --- the epoch fence (DESIGN.md §10) ----------------------------------

    /// The epoch fence: the one way cells change owner. `new_bounds` is
    /// the plan — a load rebalance, a failover or a re-adoption differ
    /// only in how they computed it — and `body` moves (or rebuilds) the
    /// state of the cells it reassigns. The sequence:
    ///
    /// 1. quiesce — drain every in-flight envelope against the old owner
    ///    table, so no transfer straddles two generations;
    /// 2. liveness scan — a peer that died mid-tick has a classified dead
    ///    handle, and fencing around a corpse would strand its exports:
    ///    the fence aborts with the old generation installed (`None`) and
    ///    the next [`Self::recover_crashed`] pass fences the corpse first;
    /// 3. bump the shared epoch — a uniform shift of all later seq
    ///    stamps, invisible to agents (they only compare stamps) but a
    ///    clean pre/post separator in the event log;
    /// 4. install the bounds: the shared table every [`PartitionScope`]
    ///    resolves ownership through, then a `Bounds` record to every
    ///    partition — journaled where it is applied, installed into every
    ///    remote ownership-table copy — before any transfer leaves,
    ///    because a generation-stamped transfer is a whole-message no-op at
    ///    any other generation;
    /// 5. the body;
    /// 6. prune the stubs whose monitoring region left a shrunk span,
    ///    restart the load observation window.
    ///
    /// A slot fenced off as dead is inert in every round: its dead handle
    /// reaches no partition, in process or remote.
    fn fence(
        &mut self,
        new_bounds: &[usize],
        body: impl FnOnce(&mut Self, &Fence),
    ) -> Option<Fence> {
        debug_assert!(self.lane.is_empty(), "a fence inside a tick");
        self.pump_bus();
        let fence = if self.peer_died() {
            None
        } else {
            let epoch = self.bump_shared_epoch();
            let moves = moved_cells(&self.map.bounds_snapshot(), new_bounds);
            let generation = self.map.install(new_bounds);
            let bounds = new_bounds.iter().map(|&b| b as u64).collect();
            self.fan_out_mut::<()>(&LogRecord::Bounds { generation, bounds });
            let mut fence = Fence {
                generation,
                epoch,
                moves,
                completed: false,
            };
            body(self, &fence);
            self.pump_bus();
            self.fan_out_mut::<()>(&LogRecord::PruneStubs);
            // A handle death reaches no bus send: the dead handle's
            // rounds just came back empty.
            fence.completed = !self.peer_died();
            // Ownership moved: the load observation window restarts.
            self.cell_ops.fill(0);
            Some(fence)
        };
        self.merge_sinks();
        fence
    }

    /// Whether a slot not fenced off as dead has a dead handle; records
    /// the abort if so.
    fn peer_died(&self) -> bool {
        let corpse = (0..self.partitions.len() as u32)
            .find(|&p| !self.dead.contains(&p) && self.partitions[p as usize].crashed().is_some());
        if let Some(p) = corpse {
            self.fence_abort(p);
        }
        corpse.is_some()
    }

    /// Records a fence abandoned because `partition` died under it.
    fn fence_abort(&self, partition: u32) {
        self.bus_sink.incr(rebal_keys::ABORTS);
        self.bus_sink.event(EventKind::RebalanceAborted {
            partition: partition as u64,
        });
    }

    /// One pipelined round of fence transfers `(from, to, what)`: every
    /// `from` partition cuts its message concurrently — all requests
    /// start before the first reply is awaited — then the bus carries the
    /// messages in round order, the same traffic as a sequential pass. A
    /// dead handle cuts nothing; the fence notices it through
    /// [`Self::peer_died`].
    fn transfer_round<K>(&mut self, round: &[(u32, u32, K)], cut: impl Fn(&K) -> LogRecord) {
        let mut probes: Vec<Probe<Option<ClusterMsg>>> = Vec::with_capacity(round.len());
        for (from, _, what) in round {
            probes.push(self.partitions[*from as usize].start_apply(&cut(what), &mut self.quiet));
        }
        let mut msgs = Vec::with_capacity(round.len());
        for ((from, to, _), pr) in round.iter().zip(probes) {
            msgs.push((*from, *to, self.partitions[*from as usize].finish(pr)));
        }
        for (from, to, msg) in msgs {
            if let Some(msg) = msg {
                self.bus.send_uplink(NodeId(from), Envelope { to, msg });
            }
        }
    }

    /// The fence body that moves live state (rebalance, re-adoption). The
    /// RQI rows of every reassigned cell travel verbatim
    /// ([`ClusterMsg::RebalanceCells`], generation-stamped), batched per
    /// `(from, to)` pair in ascending partition order; then the focal
    /// objects whose anchor cell changed owner are rehomed in ascending
    /// object id through the ordinary `MigrateFocal` machinery.
    fn transfer(&mut self, fence: &Fence) {
        let exports: Vec<(u32, u32, &[usize])> = fence
            .moves
            .iter()
            .map(|(&(from, to), flats)| (from, to, flats.as_slice()))
            .collect();
        let generation = fence.generation;
        let export = |flats: &&[usize]| LogRecord::ExportCells {
            flats: flats.iter().map(|&f| f as u32).collect(),
            generation,
        };
        self.transfer_round(&exports, export);
        self.pump_bus();

        let ids: Vec<Vec<ObjectId>> = self.fan_out(&PartitionOp::FocalIds);
        let mut anchors = Vec::new();
        for (p, oids) in ids.iter().enumerate() {
            for &oid in oids {
                let anchor = self.partitions[p].start(&PartitionOp::FocalAnchorCell(oid));
                anchors.push((p, oid, anchor));
            }
        }
        let mut rehome: Vec<(u32, u32, ObjectId)> = Vec::new();
        for (p, oid, pr) in anchors {
            let Some(cell) = self.partitions[p].finish::<Option<CellId>>(pr) else {
                continue;
            };
            let to = self.map.owner_of(self.config.grid.flat_index(cell));
            if to != p as u32 {
                rehome.push((p as u32, to, oid));
            }
        }
        rehome.sort_unstable_by_key(|&(_, _, oid)| oid);
        self.transfer_round(&rehome, |&oid| LogRecord::ExtractFocal(oid));
    }

    /// Load-aware partition rebalancing: recomputes the block bounds from
    /// the per-cell primary-uplink load observed since the last install
    /// and moves every piece of reassigned state under the epoch fence.
    /// Returns `true` when a new map generation was installed.
    ///
    /// Rebalancing must never change query results — every transfer is
    /// counter-neutral and order-preserving, so an N-partition run stays
    /// byte-identical to the single server whether or not (and whenever)
    /// this runs.
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
        let new_bounds = plan_bounds(&self.cell_ops, n);
        if new_bounds == self.map.bounds_snapshot() {
            return self.rebalance_skip(rebal_keys::SKIPPED_UNCHANGED, skip_reason::UNCHANGED);
        }
        let Some(fence) = self.fence(&new_bounds, Self::transfer) else {
            return false;
        };
        let cells = fence.cells_moved();
        self.bus_sink.incr(rebal_keys::INSTALLS);
        self.bus_sink.add(rebal_keys::CELLS_MOVED, cells);
        self.bus_sink.event(EventKind::RebalanceInstalled {
            generation: fence.generation,
            cells,
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
    /// fence. The slot keeps the dead handle a killed process leaves; its
    /// journal was flushed first, as a service flushes it before each
    /// reply, so the failover replays what the coordinator saw complete.
    pub fn kill_partition(&mut self, p: u32) {
        assert!(
            !self.partitions[p as usize].is_remote(),
            "remote partitions die for real; kill the process instead"
        );
        if self.dead.contains(&p) {
            return;
        }
        self.partitions[p as usize].kill();
        self.mark_dead(p);
    }

    /// Records a newly found death: `p` receives nothing from here on and
    /// the next [`Self::recover_crashed`] pass fails its cells over.
    fn mark_dead(&mut self, p: u32) {
        self.dead.insert(p);
        self.unfenced.push(p);
        self.bus_sink.incr(rec_keys::CRASH_DETECTIONS);
        self.bus_sink.event(EventKind::PartitionCrashed {
            partition: p as u64,
        });
    }

    /// Scans for partitions that died since the last pass: handles that
    /// hit a classified failure mid-tick, plus an active liveness probe
    /// (one trivial round trip per live remote, so a peer that died
    /// silently between ticks is caught here rather than corrupting the
    /// next fan-out).
    fn detect_crashes(&mut self) {
        for p in 0..self.partitions.len() as u32 {
            let h = &self.partitions[p as usize];
            if !self.dead.contains(&p) && (h.crashed().is_some() || !h.probe_alive()) {
                self.mark_dead(p);
            }
        }
    }

    /// Detects dead partitions and runs the failover fence over every one
    /// not yet fenced. Returns `None` when nothing was fenced: no new
    /// death, the fence aborted and retries at the next pass, or no
    /// partition survives to adopt the cells — the dead slots then stay
    /// dead and unfenced, counted once in `rec.crash_detections`. Call at
    /// tick boundaries (next to [`Self::rebalance`]); the per-tick cost
    /// with all partitions healthy is one liveness probe per remote.
    pub fn recover_crashed(&mut self, net: &mut Net) -> Option<RecoveryReport> {
        self.detect_crashes();
        if self.unfenced.is_empty() {
            return None;
        }
        let newly = std::mem::take(&mut self.unfenced);
        self.fail_over(newly, net)
    }

    /// The failover fence: [`failover_bounds`] hands every cell of the
    /// newly dead partitions to survivors and [`Self::recover`] rebuilds
    /// what can be rebuilt. Each dead partition's span is recorded so a
    /// respawn can re-adopt exactly it.
    fn fail_over(&mut self, newly: Vec<u32>, net: &mut Net) -> Option<RecoveryReport> {
        let old_bounds = self.map.bounds_snapshot();
        let alive: Vec<bool> = (0..self.partitions.len() as u32)
            .map(|p| !self.dead.contains(&p))
            .collect();
        if !alive.contains(&true) {
            // Nobody can adopt the cells: no fence runs.
            self.unfenced = newly;
            return None;
        }
        let new_bounds = failover_bounds(&old_bounds, &alive);
        let mut report = RecoveryReport {
            partitions: newly,
            ..RecoveryReport::default()
        };
        let fenced = self.fence(&new_bounds, |this, fence| {
            this.recover(fence, net, &mut report)
        });
        if fenced.is_none() {
            self.unfenced = report.partitions;
            return None;
        }
        self.bus_sink.incr(rec_keys::FENCES);
        for (key, count) in [
            (rec_keys::ENVELOPES_REROUTED, report.envelopes_rerouted),
            (rec_keys::CELLS_FAILED_OVER, report.cells_reassigned),
            (rec_keys::QUERIES_REINSTALLED, report.queries_reinstalled),
            (rec_keys::QUERIES_REPLAYED, report.queries_replayed),
        ] {
            self.bus_sink.add(key, count as u64);
        }
        for &p in &report.partitions {
            let span = (old_bounds[p as usize], old_bounds[p as usize + 1]);
            // A span kept from a re-adoption that never completed stands:
            // the slot may own nothing now.
            self.lost_spans.entry(p).or_insert(span);
            self.bus_sink.event(EventKind::PartitionFailedOver {
                partition: p as u64,
                cells: (span.1 - span.0) as u64,
            });
        }
        Some(report)
    }

    /// The failover fence body. Unlike a transfer, no state rides along —
    /// the dead rows are unrecoverable. Orphaned bus traffic is re-routed,
    /// each adopter rebuilds what it can from its own SQT and stubs
    /// ([`ClusterMsg::RecoverCells`]), and the queries lost with the dead
    /// partitions re-enter from the durable log or the pending-install
    /// pipeline; everything else reconverges through the §8 machinery
    /// (heartbeat digests → agent `Resync` → re-install at the new owners).
    fn recover(&mut self, fence: &Fence, net: &mut Net, report: &mut RecoveryReport) {
        // (1) Orphaned envelopes, re-routed under the new map. A focal
        // migration caught mid-handoff goes to the new owner of its
        // anchor cell; stub synchronization is ownership- and seq-guarded
        // (idempotent), so every live partition gets a copy; stale
        // generation-stamped transfers are dead by construction. Runs
        // BEFORE the RecoverCells rebuild so a re-routed home row is in
        // the adopter's SQT when its new cells' RQI rows are recomputed.
        let live: Vec<usize> = (0..self.partitions.len())
            .filter(|&p| !self.dead.contains(&(p as u32)))
            .collect();
        let mut dropped = 0u64;
        for env in std::mem::take(&mut self.orphans) {
            let to: Vec<usize> = match &env.msg {
                ClusterMsg::MigrateFocal {
                    motion, queries, ..
                } => {
                    let anchor = queries
                        .first()
                        .map(|q| q.curr_cell)
                        .unwrap_or_else(|| self.config.grid.cell_of(motion.pos));
                    let to = self.cell_owner(anchor);
                    live.iter().copied().filter(|&p| p == to).collect()
                }
                ClusterMsg::StubUpdate { .. }
                | ClusterMsg::StubMotion { .. }
                | ClusterMsg::StubRemove { .. } => live.clone(),
                ClusterMsg::RebalanceCells { .. } | ClusterMsg::RecoverCells { .. } => Vec::new(),
            };
            if to.is_empty() {
                dropped += 1;
                continue;
            }
            let rec = LogRecord::Cluster(env.msg);
            for p in to {
                self.partitions[p].call::<()>(&rec, net);
            }
            report.envelopes_rerouted += 1;
        }
        self.pump_bus();
        self.bus_sink.add(rec_keys::ENVELOPES_DROPPED, dropped);

        // (2) Adopters rebuild the RQI rows of their new cells from their
        // own query tables; generation-guarded exactly like a rebalance
        // transfer. Applied directly — this is a coordinator control
        // action, not data-path traffic.
        let mut adopt: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (&(_, to), flats) in &fence.moves {
            let cells = adopt.entry(to).or_default();
            cells.extend(flats.iter().map(|&flat| flat as u32));
        }
        for (to, cells) in adopt {
            let rec = LogRecord::Cluster(ClusterMsg::RecoverCells {
                generation: fence.generation,
                epoch: fence.epoch,
                cells,
            });
            self.partitions[to as usize].call::<()>(&rec, net);
        }
        report.cells_reassigned = fence.cells_moved() as usize;

        // (3) Every registered query no live partition homes and no
        // pending install covers was lost with the dead partitions.
        let mut present: BTreeSet<QueryId> = self.query_ids().into_iter().collect();
        for q in self.pending.values() {
            present.extend(q.iter().map(|pi| pi.qid));
        }
        let lost: Vec<QueryId> = self
            .registry
            .keys()
            .copied()
            .filter(|q| !present.contains(q))
            .collect();
        // Prefer the dead partitions' durable logs: a replayed scratch
        // server holds the exact focal motion, query spec and result set
        // at the crash, so the query re-forms at its new owner at once.
        // Queries no log can produce (storeless deployment, torn or stale
        // log) re-enter the pending-install pipeline instead: the agent
        // answers the PositionRequest, the focal row re-forms at the new
        // owner, and the deferred install completes with the ORIGINAL
        // query id (result digests stay comparable with an uncrashed run).
        let (replayed, fallback) = self.replay_lost(&report.partitions, lost, net);
        report.queries_replayed = replayed;
        let mut focals: BTreeSet<ObjectId> = BTreeSet::new();
        for qid in &fallback {
            let (focal, p) = &self.registry[qid];
            focals.insert(*focal);
            self.pending.entry(*focal).or_default().push(p.clone());
        }
        debug_assert!(self.lane.is_empty(), "failover writes the network");
        for oid in &focals {
            self.tally.incr(srv_slots::UNICAST_OPS);
            net.send_unicast(oid.node(), Downlink::PositionRequest);
        }
        report.queries_reinstalled = fallback.len();
    }

    /// Re-forms `lost` queries at their new owners from the journals of
    /// the `newly` dead partitions, each with the result set it held at
    /// the crash. Returns how many came back and the queries no log held.
    fn replay_lost(
        &mut self,
        newly: &[u32],
        lost: Vec<QueryId>,
        net: &mut Net,
    ) -> (usize, Vec<QueryId>) {
        if lost.is_empty() || self.store_root.is_none() {
            return (0, lost);
        }
        let scratches: Vec<Server> = newly
            .iter()
            .filter_map(|&p| self.replay_scratch(p).ok())
            .collect();
        let mut replayed = 0usize;
        let mut fallback = Vec::new();
        for qid in lost {
            let (focal, install) = self.registry[&qid].clone();
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
            let home = self.cell_owner(self.config.grid.cell_of(motion.pos));
            let refresh = LogRecord::RefreshFocalMotion {
                oid: focal,
                motion,
                max_vel,
                insert: true,
            };
            self.call::<()>(home, &refresh, net);
            self.call::<()>(home, &install.complete(focal), net);
            // Restore the journaled result set quietly: the members
            // were already announced to the agent before the crash.
            for oid in members {
                let member = LogRecord::LqtReconcile {
                    qid,
                    oid,
                    is_target: true,
                };
                self.partitions[home].call::<bool>(&member, net);
            }
            replayed += 1;
        }
        (replayed, fallback)
    }

    /// Brings a killed in-process partition back: a fresh partition is
    /// built as a respawned service builds it — from a wiped store
    /// (`store_fresh`), since the survivors own its span's live state now
    /// — and re-adopts its span. On an error the slot stays dead and a
    /// later call retries.
    pub fn respawn_partition(&mut self, p: u32) -> Result<(), TransportError> {
        self.readopt(p, |this| {
            this.partitions[p as usize] = this.build(p, None, true)?;
            Ok(())
        })
    }

    /// Respawned-process variant: wraps the supervisor's fresh connection
    /// (hello exchange completed) in a new remote handle — the dead one is
    /// never reused — re-initializes the process with the deployment
    /// config and re-adopts its span. The failover fence already ran: the
    /// survivors own this span's live state, so the old journal is stale
    /// and the process starts from a wiped store.
    pub fn respawn_remote(&mut self, p: u32, conn: FramedConn) -> Result<(), TransportError> {
        self.readopt(p, |this| {
            let remote = this.build(p, Some(conn), true)?;
            // The dead handle goes away with its not yet folded counts.
            this.fold_rpc_counts();
            this.partitions[p as usize] = remote;
            Ok(())
        })
    }

    /// The re-adoption fence: once `revive` has put a working server in
    /// the slot, [`readopt_bounds`] gives it the span its failover fence
    /// recorded and [`Self::transfer`] moves the interim owners' state
    /// home — the rebalance machinery with content (the survivors' rows
    /// are live state worth preserving, unlike the crashed rows the
    /// failover wrote off). If a peer dies under the fence the slot is
    /// written off again with its span kept, and the next
    /// [`Self::recover_crashed`] pass fences it.
    fn readopt(
        &mut self,
        p: u32,
        revive: impl FnOnce(&mut Self) -> Result<(), TransportError>,
    ) -> Result<(), TransportError> {
        assert!(self.dead.contains(&p), "respawn of a live partition");
        let span = match self.lost_spans.get(&p) {
            Some(&span) if self.unfenced.is_empty() => span,
            _ => {
                return Err(TransportError::Protocol(format!(
                    "partition {p} cannot be re-adopted before every crash is fenced"
                )))
            }
        };
        revive(self)?;
        self.dead.remove(&p);
        let new_bounds = readopt_bounds(&self.map.bounds_snapshot(), p, span);
        let now = self.now;
        let fence = self.fence(&new_bounds, |this, fence| {
            // The respawned slot starts at time zero; align it before any
            // lease-stamped rows arrive.
            let align = LogRecord::SetTime(now);
            this.partitions[p as usize].call::<()>(&align, &mut this.quiet);
            this.transfer(fence)
        });
        match fence {
            Some(fence) if fence.completed => {
                self.lost_spans.remove(&p);
                self.bus_sink.incr(rec_keys::FENCES);
                self.bus_sink
                    .add(rec_keys::CELLS_READOPTED, fence.cells_moved());
                self.bus_sink.incr(rec_keys::RESPAWNS);
                self.bus_sink.event(EventKind::PartitionRespawned {
                    partition: p as u64,
                });
                Ok(())
            }
            _ => {
                let death = self.partitions[p as usize].crashed();
                self.dead.insert(p);
                self.unfenced.push(p);
                Err(death.unwrap_or(TransportError::Closed))
            }
        }
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
        for q in self
            .fan_out::<Vec<QueryId>>(&PartitionOp::QueryIds)
            .concat()
        {
            assert!(seen_q.insert(q), "query {q:?} homed on two partitions");
        }
        let mut seen_o: BTreeSet<ObjectId> = BTreeSet::new();
        for o in self
            .fan_out::<Vec<ObjectId>>(&PartitionOp::FocalIds)
            .concat()
        {
            assert!(seen_o.insert(o), "focal {o:?} homed on two partitions");
        }
    }
}

/// The coordinator as a mediator: state is homed on the partitions, each
/// call is routed to its partition through the lane and followed by a bus
/// pump, and each read reads its partition alone.
impl Mediator for ClusterServer {
    type Home = usize;
    type Homes = std::ops::Range<usize>;

    fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// No RPC: remote handles answer from their `homes` mirror.
    fn focal_home(&self, oid: ObjectId) -> Option<usize> {
        self.partitions.iter().position(|p| p.has_focal(oid))
    }

    fn query_home(&self, qid: QueryId) -> Option<usize> {
        self.partitions.iter().position(|p| p.has_query(qid))
    }

    fn cell_owner(&self, cell: CellId) -> usize {
        self.map.owner_of(self.config.grid.flat_index(cell)) as usize
    }

    fn homes(&self) -> std::ops::Range<usize> {
        0..self.partitions.len()
    }

    fn call<T: FromPayload + Default>(&mut self, home: usize, rec: &LogRecord, net: &mut Net) -> T {
        let answer = self.lane.call(&mut self.partitions, home, rec, net);
        self.pump_bus();
        answer
    }

    fn post(&mut self, home: usize, rec: &LogRecord, net: &mut Net) {
        self.lane.post(&mut self.partitions, home, rec, net);
    }

    fn focal(&mut self, home: usize, oid: ObjectId, net: &mut Net) -> Option<Focal> {
        let (lane, hs) = (&mut self.lane, &self.partitions);
        let motion = lane.ask::<Option<_>>(hs, home, &PartitionOp::FocalMotion(oid), net)?;
        let queries = lane.ask::<Option<_>>(hs, home, &PartitionOp::FocalQueries(oid), net)?;
        Some((motion, queries))
    }

    fn query_cell(&mut self, home: usize, qid: QueryId, net: &mut Net) -> Option<CellId> {
        let op = PartitionOp::QueryCell(qid);
        self.lane.ask(&self.partitions, home, &op, net)
    }

    fn reinstall(&mut self, home: usize, qid: QueryId, net: &mut Net) -> Option<Reinstall> {
        let op = PartitionOp::ReinstallInfo(qid);
        self.lane.ask(&self.partitions, home, &op, net)
    }

    /// A probe round in which a live in-process partition extends `into`
    /// straight from its server, building no answer; a dead one answers
    /// nothing.
    fn load_memberships(&mut self, oid: ObjectId, into: &mut Vec<(QueryId, usize)>, net: &mut Net) {
        let op = PartitionOp::ObjectMemberships(oid);
        let mut started = self.start_remote::<Vec<QueryId>>(&op);
        for (p, h) in self.partitions.iter().enumerate() {
            if let Some(server) = h.local_server() {
                into.extend(server.memberships(oid).map(|qid| (qid, p)));
            } else if h.is_remote() {
                let qids = h.finish(started.next().expect("every remote probe was started"));
                into.extend(qids.into_iter().map(|qid| (qid, p)));
            }
        }
        self.lane.replay(&self.partitions, net);
    }

    fn expired_leases(&mut self, net: &mut Net) -> Vec<Vec<(ObjectId, Vec<QueryId>)>> {
        self.probe_all(net, &PartitionOp::ExpiredLeases)
    }

    fn expired_queries(&mut self, now: f64, net: &mut Net) -> Vec<Vec<QueryId>> {
        self.probe_all(net, &PartitionOp::ExpiredQueryIds(now))
    }

    fn digest_cells(&mut self, net: &mut Net) -> Vec<Vec<(CellId, u64)>> {
        self.probe_all(net, &PartitionOp::DigestCells)
    }

    /// At the FOT row's home, the one partition whose renewal is not a
    /// no-op: the mirror names it without a round trip. Leases only
    /// matter under the fault-tolerance layer; without it `last_heard` is
    /// never read.
    fn renew_leases(&mut self, oid: ObjectId, net: &mut Net) {
        if !self.config.fault_tolerant() {
            return;
        }
        if let Some(home) = self.focal_home(oid) {
            self.post(home, &LogRecord::RenewLease(oid), net);
        }
    }

    /// The border handoff: the old home cuts a `MigrateFocal` onto the bus.
    fn migrate_focal(
        &mut self,
        oid: ObjectId,
        from: usize,
        to: usize,
        net: &mut Net,
    ) -> Option<usize> {
        let extract = LogRecord::ExtractFocal(oid);
        let Some(msg) = self.lane.call(&mut self.partitions, from, &extract, net) else {
            return Some(from);
        };
        let envelope = Envelope { to: to as u32, msg };
        self.bus.send_uplink(NodeId(from as u32), envelope);
        self.pump_bus();
        self.focal_home(oid)
    }

    /// The coordinator owns the heartbeat gate and pushes time down to
    /// every partition and sink.
    fn set_time(&mut self, now: f64) {
        self.now = now;
        self.fan_out_mut::<()>(&LogRecord::SetTime(now));
        for sink in &self.sinks {
            sink.set_now(now);
        }
    }

    /// Partitions share the sequencer, so a bump at any live one is global.
    /// With none alive, the coordinator's view stands.
    fn bump_shared_epoch(&mut self) -> u64 {
        let view = self.partitions[0].current_epoch();
        let Some(p) = self.first_live() else {
            return view;
        };
        // A dead peer answers 0: the coordinator's view stands.
        let bumped: u64 = self.partitions[p].call(&LogRecord::BumpEpoch, &mut self.quiet);
        bumped.max(self.partitions[p].current_epoch())
    }

    fn remove_expired(&mut self, home: usize, qid: QueryId, net: &mut Net) {
        self.registry.remove(&qid);
        self.call::<bool>(home, &LogRecord::RemoveQuery(qid), net);
    }

    fn pending(&mut self) -> &mut BTreeMap<ObjectId, Vec<PendingInstall>> {
        &mut self.pending
    }

    fn tally(&mut self) -> &mut ServerTally {
        &mut self.tally
    }

    fn events(&self, home: usize) -> &Telemetry {
        &self.sinks[home]
    }

    fn last_heartbeat(&mut self) -> &mut f64 {
        &mut self.last_heartbeat
    }

    fn lqt_scratch(&mut self) -> &mut LqtSyncScratch<usize> {
        &mut self.lqt_scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::tests::{answer, loopback_pair};
    use crate::wire::ReplyPayload;
    use mobieyes_core::{HomeChange, QueryMigration};
    use mobieyes_geo::{Grid, GridRect, Point, Rect, Vec2};
    use mobieyes_net::{BaseStationLayout, StationId};

    fn universe() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    /// An `n`-partition lockstep cluster over a 20×20 grid (100 flats
    /// each of 4), journaling under `store` if given.
    fn store_cluster(n: usize, store: Option<PathBuf>) -> (ClusterServer, Net) {
        let config = Arc::new(ProtocolConfig::new(Grid::new(universe(), 5.0)));
        let cluster = ClusterServer::new(config, n, Telemetry::new(), store);
        let net = Net::new(BaseStationLayout::new(universe(), 10.0));
        (cluster.expect("in-process cluster"), net)
    }

    fn test_cluster(n: usize) -> (ClusterServer, Net) {
        store_cluster(n, None)
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
    /// dead slot.
    #[test]
    fn orphaned_migrate_focal_reroutes_after_fence() {
        let (mut cluster, mut net) = test_cluster(4);
        // Flat 250 = cell (10, 12), owned by partition 2 under the
        // contiguous map; after the midpoint split it belongs to 3.
        let cell = cluster.config.grid.cell_from_flat(250);
        cluster.bus.send_uplink(
            NodeId(0),
            Envelope {
                to: 2,
                msg: migrate_msg(7, 3, cell),
            },
        );
        cluster.kill_partition(2);
        let report = cluster
            .recover_crashed(&mut net)
            .expect("kill must be detected and fenced");
        assert_eq!(report.partitions, vec![2]);
        assert_eq!(report.cells_reassigned, 100);
        assert_eq!(report.envelopes_rerouted, 1, "the migration is re-routed");
        assert!(
            cluster.partitions[3].has_focal(ObjectId(7)),
            "the new owner of the anchor cell adopts the focal"
        );
        assert!(cluster.partitions[3].has_query(QueryId(3)));
        assert!(
            !cluster.partitions[2].has_focal(ObjectId(7)),
            "the dead slot must not adopt migrated state"
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
        let seed = LogRecord::Cluster(migrate_msg(7, 3, cell));
        cluster.partitions[2].call::<()>(&seed, &mut net);
        assert_eq!(cluster.map.bounds_snapshot(), vec![0, 100, 200, 300, 400]);
        cluster.kill_partition(2);
        cluster.recover_crashed(&mut net).expect("fence");
        assert_eq!(
            cluster.map.bounds_snapshot(),
            vec![0, 100, 250, 250, 400],
            "dead run split at the midpoint between partitions 1 and 3"
        );
        assert!(cluster.partitions[2]
            .ask::<Vec<QueryId>>(&PartitionOp::QueryIds)
            .is_empty());
        cluster.respawn_partition(2).expect("respawn");
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
        cluster.partitions[2].call::<()>(&LogRecord::Cluster(seed), &mut net);
        let qid = cluster.install_query(
            ObjectId(7),
            QueryRegion::circle(2.5),
            Filter::True,
            &mut net,
        );
        assert!(cluster.partitions[2].has_query(qid));
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

    /// A home partition that answers the heartbeat's lease scan and then
    /// dies does not abort the coordinator: the expired query's teardown
    /// is skipped (no removal, no pending install), the query stays in the
    /// registry, and the next crash fence fails the partition over and
    /// re-enters the query under its original id.
    #[test]
    fn a_home_dying_after_the_lease_scan_leaves_the_heartbeat_standing() {
        let grid = Grid::new(universe(), 5.0);
        let config = Arc::new(ProtocolConfig::new(grid).with_lease(10.0, 5.0));
        let mut cluster = ClusterServer::new(config, 4, Telemetry::new(), None).expect("cluster");
        let mut net = Net::new(BaseStationLayout::new(universe(), 10.0));
        let cell = cluster.config.grid.cell_from_flat(250);
        let mut seed = migrate_msg(7, 3, cell);
        if let ClusterMsg::MigrateFocal { queries, .. } = &mut seed {
            queries.clear();
        }
        cluster.partitions[2].call::<()>(&LogRecord::Cluster(seed), &mut net);
        let qid = cluster.install_query(
            ObjectId(7),
            QueryRegion::circle(2.5),
            Filter::True,
            &mut net,
        );
        net.take_downlinks();
        // Partition 2 becomes a process that takes the time push, reports
        // the focal's lease as lapsed, and exits.
        let (client, mut served) = loopback_pair();
        let peer = std::thread::spawn(move || {
            answer(&mut served, ReplyPayload::Unit, Vec::new());
            let lapsed = ReplyPayload::Leases(vec![(ObjectId(7), vec![qid])]);
            answer(&mut served, lapsed, Vec::new());
        });
        cluster.partitions[2] = PartitionHandle::remote(2, client, Arc::clone(&cluster.epoch));
        cluster.heartbeat(100.0, &mut net);
        peer.join().expect("peer");
        assert!(cluster.partitions[2].crashed().is_some());
        assert!(cluster.pending.is_empty(), "the teardown was skipped");
        assert!(cluster.registry.contains_key(&qid));
        let report = cluster.recover_crashed(&mut net).expect("fence");
        assert_eq!(report.partitions, vec![2]);
        assert_eq!(report.queries_reinstalled, 1);
        let pending: Vec<QueryId> = cluster.pending[&ObjectId(7)]
            .iter()
            .map(|pi| pi.qid)
            .collect();
        assert_eq!(pending, vec![qid]);
    }

    /// A resync whose focal is homed on a peer that exits partway through
    /// the sequence returns: the peer answers the focal's motion and
    /// queries and the refresh, then dies at the first query-cell read,
    /// and every later call at it yields its neutral answer. The next
    /// crash pass fences the partition.
    #[test]
    fn a_home_dying_inside_a_resync_leaves_the_resync_standing() {
        let (mut cluster, mut net) = test_cluster(4);
        let cell = cluster.config.grid.cell_from_flat(250);
        let old = LinearMotion::new(Point::new(52.5, 62.5), Vec2::new(0.0, 0.0), 0.0);
        let (client, mut served) = loopback_pair();
        let peer = std::thread::spawn(move || {
            // The time push seeds the mirror: focal 7 is homed here.
            let homed = vec![HomeChange::FocalAdded(ObjectId(7))];
            answer(&mut served, ReplyPayload::Unit, homed);
            answer(&mut served, ReplyPayload::OptMotion(Some(old)), Vec::new());
            let queries = ReplyPayload::OptQids(Some(vec![QueryId(3)]));
            answer(&mut served, queries, Vec::new());
            answer(&mut served, ReplyPayload::Unit, Vec::new());
            let _ = served.read_frame();
        });
        cluster.partitions[2] = PartitionHandle::remote(2, client, Arc::clone(&cluster.epoch));
        cluster.heartbeat(1.0, &mut net);
        assert_eq!(cluster.focal_home(ObjectId(7)), Some(2));
        let resync = Uplink::Resync {
            oid: ObjectId(7),
            cell,
            motion: LinearMotion::new(old.pos, Vec2::new(0.01, 0.0), 1.0),
            max_vel: 0.05,
            fresh: true,
        };
        cluster.handle_uplink(NodeId(7), resync, &mut net);
        peer.join().expect("peer");
        assert!(cluster.partitions[2].crashed().is_some());
        assert_eq!(
            cluster.focal_home(ObjectId(7)),
            None,
            "a dead home homes nothing"
        );
        let report = cluster.recover_crashed(&mut net).expect("fence");
        assert_eq!(report.partitions, vec![2]);
        assert_eq!(cluster.dead_partitions(), vec![2]);
        // The time push, motion, queries, refresh and the fatal query-cell
        // read; nothing is sent to the dead peer after it.
        let trips = cluster
            .bus_telemetry()
            .snapshot()
            .counter(rpc_keys::ROUND_TRIPS);
        assert_eq!(trips, 5);
        cluster.check_invariants();
    }

    /// A respawned peer that dies inside its re-adoption fence is an abort,
    /// not a respawn: no `rec.respawns`, no `PartitionRespawned`, and the
    /// slot is dead and unfenced again with its span kept, so the next
    /// pass fails it over like any other crash.
    #[test]
    fn peer_dying_inside_the_readoption_fence_aborts_the_respawn() {
        let (mut cluster, mut net) = test_cluster(4);
        cluster.kill_partition(2);
        cluster.recover_crashed(&mut net).expect("fence");
        // The "restarted process": acknowledges `Init`, reads the fence's
        // first request (the ownership sync) and dies without answering.
        let (client, mut served) = loopback_pair();
        let peer = std::thread::spawn(move || {
            answer(&mut served, ReplyPayload::Unit, Vec::new());
            let _ = served.read_frame();
        });
        let err = cluster
            .respawn_remote(2, client)
            .expect_err("the fence must abort");
        peer.join().expect("peer");
        assert!(err.is_peer_death(), "classified as a crash: {err}");
        let snap = cluster.bus_telemetry().snapshot();
        assert_eq!(snap.counter(rebal_keys::ABORTS), 1);
        assert_eq!(snap.counter(rec_keys::RESPAWNS), 0);
        assert_eq!(snap.counter(rec_keys::FENCES), 1, "only the failover");
        let aborted_on: Vec<u64> = snap
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RebalanceAborted { partition } => Some(partition),
                EventKind::PartitionRespawned { .. } => panic!("respawn never completed"),
                _ => None,
            })
            .collect();
        assert_eq!(aborted_on, vec![2]);
        assert_eq!(cluster.dead_partitions(), vec![2]);
        assert_eq!(cluster.unfenced, vec![2]);
        assert_eq!(cluster.lost_spans.get(&2), Some(&(200, 300)));
        // The generation was installed before the peer died, so the slot
        // owns its span again; the next pass hands it back to survivors.
        let report = cluster.recover_crashed(&mut net).expect("re-fence");
        assert_eq!(report.partitions, vec![2]);
        assert_eq!(cluster.map.bounds_snapshot(), vec![0, 100, 250, 250, 400]);
        assert_eq!(cluster.lost_spans.get(&2), Some(&(200, 300)));
        cluster.check_invariants();
    }

    /// Disk state must not abort the coordinator: a respawn whose store
    /// directory cannot be reopened is a classified error that leaves the
    /// slot dead with its span kept, and a later respawn succeeds. So is a
    /// rebuild from a log that cannot be replayed: the killed slot stays
    /// dead until the next recovery pass fences it.
    #[test]
    fn respawn_over_an_unusable_store_dir_leaves_the_slot_dead() {
        let root = std::env::temp_dir().join(format!(
            "mobieyes-cluster-respawn-{}-unusable-store",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let (mut cluster, mut net) = store_cluster(4, Some(root.clone()));
        cluster.kill_partition(2);
        cluster.recover_crashed(&mut net).expect("fence");
        let dir = root.join("p2");
        std::fs::remove_dir_all(&dir).expect("drop the stale log");
        std::fs::write(&dir, b"in the way").expect("block the directory");
        let err = cluster.respawn_partition(2).expect_err("store is unusable");
        assert!(
            matches!(&err, TransportError::Io(text) if text.contains(&*dir.to_string_lossy())),
            "unclassified store failure: {err}"
        );
        assert_eq!(cluster.dead_partitions(), vec![2]);
        assert_eq!(cluster.lost_spans.get(&2), Some(&(200, 300)));
        std::fs::remove_file(&dir).expect("unblock");
        cluster.respawn_partition(2).expect("respawn");
        assert!(cluster.dead_partitions().is_empty());
        assert_eq!(cluster.map.bounds_snapshot(), vec![0, 100, 200, 300, 400]);
        cluster.check_invariants();

        std::fs::remove_dir_all(&dir).expect("drop the live log");
        std::fs::write(&dir, b"in the way").expect("block the directory");
        let err = cluster
            .rebuild_partition_from_log(2)
            .expect_err("log is unusable");
        assert!(
            matches!(&err, TransportError::Io(text) if text.contains(&*dir.to_string_lossy())),
            "unclassified replay failure: {err}"
        );
        assert!(
            cluster.partitions[2].crashed().is_some(),
            "the slot is dead"
        );
        let report = cluster.recover_crashed(&mut net).expect("fence");
        assert_eq!(report.partitions, vec![2]);
        assert_eq!(cluster.dead_partitions(), vec![2]);
        cluster.check_invariants();
        std::fs::remove_file(&dir).expect("unblock");
        drop(cluster);
        std::fs::remove_dir_all(&root).expect("clean up");
    }

    /// Disk state must not abort the coordinator at construction either:
    /// a store root that is a regular file is a classified I/O error
    /// naming the path, not a panic.
    #[test]
    fn a_store_root_that_is_a_file_is_an_error_not_a_panic() {
        let root = std::env::temp_dir().join(format!(
            "mobieyes-cluster-new-{}-root-is-a-file",
            std::process::id()
        ));
        std::fs::write(&root, b"in the way").expect("create the blocking file");
        let config = Arc::new(ProtocolConfig::new(Grid::new(universe(), 5.0)));
        let built = ClusterServer::new(config, 4, Telemetry::new(), Some(root.clone()));
        let err = built.err().expect("no store can open under a file");
        assert!(
            matches!(&err, TransportError::Io(text) if text.contains(&*root.to_string_lossy())),
            "unclassified store failure: {err}"
        );
        std::fs::remove_file(&root).expect("clean up");
    }

    /// A one-partition tier — the single server — whose partition dies is
    /// left dead and counted: no survivor can adopt its cells, so no fence
    /// runs, and nothing panics, neither the recovery passes nor the
    /// heartbeats, ticks and reads that follow.
    #[test]
    fn the_only_partition_dying_leaves_it_dead_and_counted() {
        let grid = Grid::new(universe(), 5.0);
        let config = Arc::new(ProtocolConfig::new(grid).with_lease(10.0, 5.0));
        let mut cluster = ClusterServer::new(config, 1, Telemetry::new(), None).expect("cluster");
        let mut net = Net::new(BaseStationLayout::new(universe(), 10.0));
        let qid = cluster.install_query(
            ObjectId(7),
            QueryRegion::circle(2.5),
            Filter::True,
            &mut net,
        );
        cluster.kill_partition(0);
        assert_eq!(cluster.recover_crashed(&mut net), None);
        assert_eq!(cluster.recover_crashed(&mut net), None, "a second pass");
        assert_eq!(cluster.dead_partitions(), vec![0]);
        let snap = cluster.bus_telemetry().snapshot();
        assert_eq!(snap.counter(rec_keys::CRASH_DETECTIONS), 1);
        assert_eq!(snap.counter(rec_keys::FENCES), 0);
        cluster.heartbeat(10.0, &mut net);
        let reply = Uplink::PositionReply {
            oid: ObjectId(7),
            motion: LinearMotion::new(Point::new(12.0, 12.0), Vec2::new(0.0, 0.0), 10.0),
            max_vel: 0.05,
        };
        net.send_uplink(ObjectId(7).node(), reply);
        cluster.tick(&mut net);
        assert_eq!(cluster.query_result(qid), None);
        assert_eq!(cluster.fetch_query_result(qid), None);
        assert!(cluster.query_ids().is_empty());
        assert!(!cluster.rebalance());
        assert!(
            cluster.respawn_partition(0).is_err(),
            "its span was never recorded"
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

    /// After a rebalance moved the cell cuts, the coordinator beacons
    /// exactly what one server holding the same queries beacons: through
    /// every station, each listing the digests of the cells under it.
    #[test]
    fn a_rebalanced_cluster_beacons_per_station_like_one_server() {
        let grid = Grid::new(universe(), 5.0);
        let config = Arc::new(ProtocolConfig::new(grid).with_lease(50.0, 1.0));
        let cluster = ClusterServer::new(Arc::clone(&config), 4, Telemetry::new(), None);
        let mut cluster = cluster.expect("cluster");
        let mut server = mobieyes_core::Server::new(config);
        let layout = BaseStationLayout::new(universe(), 10.0);
        let (mut cnet, mut snet) = (Net::new(layout.clone()), Net::new(layout));
        for k in 0..12u32 {
            let (x, y) = (4.0 + 23.0 * (k % 4) as f64, 3.0 + 14.0 * (k / 4) as f64);
            let reply = Uplink::PositionReply {
                oid: ObjectId(k),
                motion: LinearMotion::new(Point::new(x, y), Vec2::new(0.001, 0.0), 0.0),
                max_vel: 0.03,
            };
            cnet.send_uplink(ObjectId(k).node(), reply.clone());
            cluster.tick(&mut cnet);
            server.handle_uplink(ObjectId(k).node(), reply, &mut snet);
            let region = QueryRegion::circle(1.0 + k as f64);
            cluster.install_query(ObjectId(k), region, Filter::True, &mut cnet);
            server.install_query(ObjectId(k), region, Filter::True, &mut snet);
        }
        cluster.cell_ops[0] = 1000;
        assert!(cluster.rebalance());
        cluster.check_invariants();
        let beacons = |net: &mut Net| -> Vec<(StationId, Vec<(CellId, u64)>)> {
            let (_, broadcasts) = net.take_downlinks();
            broadcasts
                .iter()
                .filter_map(|(s, msg, _)| match &**msg {
                    Downlink::Heartbeat { cell_digests, .. } => {
                        Some((*s, cell_digests.entries().to_vec()))
                    }
                    _ => None,
                })
                .collect()
        };
        beacons(&mut cnet);
        beacons(&mut snet);
        cluster.heartbeat(10.0, &mut cnet);
        server.heartbeat(10.0, &mut snet);
        let (ours, single) = (beacons(&mut cnet), beacons(&mut snet));
        assert_eq!(ours.len(), cnet.layout().num_stations());
        assert!(ours.iter().any(|(_, list)| list.is_empty()));
        assert!(ours.iter().filter(|(_, list)| !list.is_empty()).count() > 1);
        assert_eq!(ours, single);
    }
}
