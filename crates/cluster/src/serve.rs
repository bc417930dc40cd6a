//! The partition service: one `ServiceState` behind the [`wire`] RPC
//! protocol — and, without the wire, the in-process partition of a
//! lock-step deployment.
//!
//! A partition process accepts exactly one coordinator connection, then
//! executes [`PartitionOp`]s one at a time, in arrival order, until
//! [`Shutdown`](PartitionOp::Shutdown). Per request it:
//!
//! 1. raises its local epoch to the request's floor (`fetch_max`), so the
//!    distributed epoch behaves exactly like one shared atomic counter;
//! 2. executes the op (`run_op`) against the `Server` and a
//!    *partition-local* capture network built from the same deterministic
//!    base-station layout the coordinator uses — so broadcast cover sets
//!    resolve identically. A mutation goes through [`Server::apply`], the
//!    dispatch replay uses; a read through `ServiceState::answer`;
//! 3. replies with the post-op epoch, the drained inter-server outbox,
//!    every downlink the op emitted (as [`NetAction`]s the coordinator
//!    replays onto the real network), the op's return value and the
//!    FOT/SQT keys it added or removed (the coordinator's `homes` mirror).
//!
//! An in-process partition is the same `ServiceState`, built from the
//! same [`InitConfig`], and its handle runs records through the same
//! `run_op` — only the network differs: the coordinator passes the
//! agent network itself, so nothing is captured, copied or replayed.
//!
//! Step 3 is refused — the session ends with a classified protocol error —
//! when `apply` refuses the record (partition bounds the table cannot
//! take, a flat cell off the grid), or when a *closed* record
//! ([`wire::is_closed`], one the coordinator does not wait for) moved the
//! epoch, the outbox or the home log after all.
//!
//! Replies leave in batches: while the read buffer already holds the next
//! request (the coordinator pipelined or posted several), the reply is
//! only queued; the journal and then the socket are flushed once the
//! buffer runs dry, so *acknowledged implies journaled* holds for every
//! reply in the batch at the cost of one write each.
//!
//! The service is deliberately single-connection: the coordinator's
//! decomposition depends on one-op-at-a-time execution, and the process
//! model (one partition per process) is the unit of scaling.

use crate::wire::{self, InitConfig, NetAction, PartitionOp, PartitionReply, ReplyPayload};
use mobieyes_core::server::Net;
use mobieyes_core::{
    ClusterMsg, Downlink, HomeChange, LogRecord, PartitionScope, PartitionTable, ProtocolConfig,
    Server,
};
use mobieyes_net::{BaseStationLayout, Endpoint, FramedConn, Listener, TransportError};
use mobieyes_store::{self as store, Store};
use mobieyes_telemetry::Telemetry;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// A configured partition: what a partition service runs, and what an
/// in-process partition handle holds.
pub(crate) struct ServiceState {
    /// Its scope holds this partition's copy of the cell-ownership table,
    /// contiguous until a fence installs another, and its shard of the
    /// distributed epoch.
    pub(crate) server: Server,
    /// The partition's durable input journal, when the deployment runs
    /// with a `--store-dir`. Opened (and replayed) before the first op.
    store: Option<Store>,
}

/// What an op leaves behind besides its value and its downlinks: the
/// partition's epoch after it, the bus envelopes it queued and the FOT/SQT
/// keys it added or removed.
pub(crate) type Effects = (u64, Vec<(u32, ClusterMsg)>, Vec<HomeChange>);

/// The partition's network: the layout every agent network of the
/// deployment has. A service captures its downlinks here.
fn capture_net(init: &InitConfig) -> Net {
    Net::new(BaseStationLayout::new(init.universe, init.alen))
}

/// An empty server for partition `p` of `n` contiguous blocks, on a
/// private epoch.
pub(crate) fn partition_server(config: &Arc<ProtocolConfig>, p: u32, n: usize) -> Server {
    let table = PartitionTable::contiguous(config.grid.num_cells(), n);
    let scope = PartitionScope::new(p, Arc::new(table), Arc::new(AtomicU64::new(0)));
    Server::new(Arc::clone(config)).with_scope(scope)
}

impl ServiceState {
    /// Builds the partition named by `init`, counting into `sink`. A log
    /// it replays rebuilds state, not telemetry: the replay counts into a
    /// scratch sink, since the work it repeats was counted when it first
    /// ran. A store that cannot be wiped, opened or replayed is a
    /// classified [`TransportError::Io`] naming the path — the session
    /// ends and the coordinator sees a dead partition — never a panic on
    /// disk state.
    pub(crate) fn build(
        init: &InitConfig,
        sink: Telemetry,
    ) -> Result<ServiceState, TransportError> {
        let grid = mobieyes_geo::Grid::new(init.universe, init.alpha);
        let mut config = ProtocolConfig::new(grid);
        config.delta = init.delta;
        config.propagation = init.propagation;
        config.grouping = init.grouping;
        config.safe_period = init.safe_period;
        config.deliver_results = init.deliver_results;
        config.system_max_speed = init.system_max_speed;
        config.lease_secs = init.lease_secs;
        config.heartbeat_secs = init.heartbeat_secs;
        let config = Arc::new(config);
        let mut server = partition_server(&config, init.partition, init.num_partitions as usize);
        let store = match &init.store_dir {
            Some(dir) => {
                let dir = Path::new(dir);
                if init.store_fresh {
                    // Post-failover respawn: the survivors own this span's
                    // state now; replaying the stale journal would fork it.
                    let stale = format!("wiping stale store {}", dir.display());
                    store::wipe_dir(dir)
                        .map_err(|e| TransportError::Io(format!("{stale}: {e}")))?;
                }
                // Crash recovery: the replay rebuilds FOT/SQT/RQI.
                let (p, n) = (init.partition, init.num_partitions);
                let mut replayed = capture_net(init);
                let attached = store::attach(dir, p, n, &mut server, &mut replayed, &sink);
                Some(attached.map_err(|e| TransportError::Io(e.to_string()))?)
            }
            None => None,
        };
        // Switched on after the replay: the seed is the replayed key sets,
        // not the history that produced them. The first reply ships it.
        server.enable_home_log();
        server.set_telemetry(sink);
        Ok(ServiceState { server, store })
    }

    /// What the ops since the last collection left behind: the epoch, the
    /// outbox and the home log.
    #[inline(always)]
    pub(crate) fn effects(&mut self) -> Effects {
        (
            self.server.current_epoch(),
            self.server.take_outbox(),
            self.server.take_home_log(),
        )
    }

    /// The reply to the op that just ran: its [effects](Self::effects)
    /// around its value. Built right after the build, it acknowledges
    /// `Init` with the replayed epoch and keys.
    pub(crate) fn reply(&mut self, payload: ReplyPayload) -> PartitionReply {
        let (epoch, outbox, homes) = self.effects();
        PartitionReply {
            epoch,
            outbox,
            net: Vec::new(),
            payload,
            homes,
        }
    }

    /// The one dispatch for every op but a mutation, `Init` and
    /// `Shutdown`: the reads and the two store ops, after the floor is
    /// raised as for every op (a checkpoint records the epoch).
    pub(crate) fn answer(&self, floor: u64, op: &PartitionOp) -> ReplyPayload {
        self.server.raise_epoch(floor);
        match op {
            PartitionOp::Checkpoint => ReplyPayload::U64(self.store.as_ref().map_or(0, |store| {
                store.checkpoint(self.server.checkpoint_bytes());
                store.next_seq()
            })),
            &PartitionOp::Trajectory { oid, t0, t1 } => ReplyPayload::Motions(match &self.store {
                Some(store) => store.trajectory(oid, t0, t1).unwrap_or_default(),
                None => Vec::new(),
            }),
            op => read(&self.server, op),
        }
    }

    /// Publishes what the server and its journal counted into the sink.
    pub(crate) fn publish(&mut self) {
        self.server.publish();
        if let Some(store) = &self.store {
            store.publish();
        }
    }

    /// Ends the partition as a SIGKILL ends its process, minus the loss:
    /// buffered journal frames reach the OS — every record it applied was
    /// acknowledged — and what it counted is published.
    pub(crate) fn stop(mut self) {
        if let Some(store) = &self.store {
            store.flush();
        }
        self.publish();
    }
}

/// Drains the downlinks an op queued on a service's capture network into
/// replayable actions, preserving emission order within each kind. The
/// capture network never delivers, so a unicast's message is uniquely
/// held and moves out of its `Arc`; only a broadcast fanned out to
/// several stations is copied.
fn drain_net_actions(net: &mut Net) -> Vec<NetAction> {
    let owned =
        |msg: Arc<Downlink>| Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone());
    let (unicasts, broadcasts) = net.take_downlinks();
    let mut actions = Vec::with_capacity(unicasts.len() + broadcasts.len());
    for (node, msg, _) in unicasts {
        actions.push(NetAction::Unicast {
            node: node.0,
            msg: owned(msg),
        });
    }
    for (station, msg, _) in broadcasts {
        actions.push(NetAction::Broadcast {
            station: station.0,
            msg: owned(msg),
        });
    }
    actions
}

/// Runs one record against the configured partition: raise the epoch to
/// the request's floor, apply the record against `net` and return its
/// value. What else it left behind — the epoch, the outbox, the home log —
/// stays in the state for [`ServiceState::reply`] to collect; its
/// downlinks are on `net`. `closed` is whether the record is
/// [`wire::is_closed`] — a parameter so the check below can be tested
/// against a mis-listed record.
///
/// Closedness is verified here, where it is true or not: the coordinator
/// posts closed records without waiting, so one that moved the epoch,
/// queued a bus envelope or changed a FOT/SQT key would be folded in the
/// wrong order on the other side. Such an op is never answered; the
/// session ends with a [`TransportError::Protocol`] naming the op and the
/// coordinator fences the partition like any other dead peer. So does a
/// record [`Server::apply`] refuses. A closed op that passes the check
/// left nothing to collect, so an in-process partition folds nothing
/// after it.
#[inline(always)]
pub(crate) fn run_op(
    s: &mut ServiceState,
    net: &mut Net,
    floor: u64,
    rec: &LogRecord,
    closed: bool,
) -> Result<ReplyPayload, TransportError> {
    s.server.raise_epoch(floor);
    let before = closed.then(|| s.server.current_epoch());
    let payload = s
        .server
        .apply(rec, net)
        .map_err(|e| TransportError::Protocol(format!("refused record: {e}")))?;
    if let Some(epoch) = before {
        let effects = [
            (s.server.current_epoch() != epoch, "moved the epoch"),
            (s.server.has_outbox(), "queued a bus envelope"),
            (
                s.server.has_home_changes(),
                "changed what the partition homes",
            ),
        ];
        if let Some((_, effect)) = effects.iter().find(|(happened, _)| *happened) {
            return Err(TransportError::Protocol(format!(
                "Apply({rec:?}) is listed as closed but {effect}"
            )));
        }
    }
    Ok(payload)
}

/// The one dispatch for reads: what the service answers and what an
/// in-process handle computes. `Init`, `Shutdown`, `Apply` and the two
/// store ops are not reads — `ServiceState::answer` and the service loop
/// take them first.
fn read(server: &Server, op: &PartitionOp) -> ReplyPayload {
    use ReplyPayload as P;
    match *op {
        PartitionOp::ExpiredQueryIds(now) => P::Qids(server.expired_query_ids(now)),
        PartitionOp::ExpiredLeases => P::Leases(server.expired_leases()),
        PartitionOp::ReinstallInfo(qid) => P::Reinstall(server.reinstall_info(qid)),
        PartitionOp::DigestCells => P::Digests(server.digest_cells()),
        PartitionOp::CurrentEpoch => P::U64(server.current_epoch()),
        PartitionOp::QueryIds => P::Qids(server.query_ids().collect()),
        PartitionOp::QueryResult(qid) => P::ResultSet(
            server
                .query_result(qid)
                .map(|r| r.iter().copied().collect()),
        ),
        PartitionOp::QueryFocal(qid) => P::OptOid(server.query_focal(qid)),
        PartitionOp::FocalMotion(oid) => P::OptMotion(server.focal_motion(oid)),
        PartitionOp::FocalQueries(oid) => P::OptQids(server.focal_queries(oid)),
        PartitionOp::ObjectMemberships(oid) => P::Qids(server.memberships(oid).collect()),
        PartitionOp::QueryCell(qid) => P::OptCell(server.query_cell(qid)),
        PartitionOp::CheckInvariants => {
            server.check_invariants();
            P::Unit
        }
        PartitionOp::FocalIds => P::Oids(server.focal_ids()),
        PartitionOp::FocalAnchorCell(oid) => P::OptCell(server.focal_anchor_cell(oid)),
        PartitionOp::LoadSignal => P::Load {
            focals: server.focal_ids().len() as u64,
            queries: server.num_queries() as u64,
            stubs: server.num_stubs() as u64,
        },
        PartitionOp::Init(_)
        | PartitionOp::Apply(_)
        | PartitionOp::Shutdown
        | PartitionOp::Checkpoint
        | PartitionOp::Trajectory { .. } => unreachable!("{op:?} is not a read"),
    }
}

/// Serves one coordinator connection until `Shutdown` or disconnect.
///
/// `conn` must already have completed the hello exchange. Returns `Ok(())`
/// on a clean shutdown, or the transport error that ended the session.
pub fn serve_connection(mut conn: FramedConn) -> Result<(), TransportError> {
    // The configured partition and the network its downlinks are
    // captured on.
    let mut state: Option<(ServiceState, Net)> = None;
    // Persistent request/reply scratch: the service loop allocates nothing
    // per RPC in steady state.
    let mut request = Vec::new();
    let mut frame = Vec::new();
    loop {
        conn.read_frame_into(&mut request)?;
        let (floor, op) = wire::decode_request(&request)?;
        let shutdown = matches!(op, PartitionOp::Shutdown);
        let reply = match (op, &mut state) {
            (PartitionOp::Init(init), _) => {
                let built = ServiceState::build(&init, Telemetry::new())?;
                let (s, _) = state.insert((built, capture_net(&init)));
                s.reply(ReplyPayload::Unit)
            }
            (PartitionOp::Shutdown, None) => PartitionReply::default(),
            (op, None) => return Err(TransportError::Protocol(format!("op before Init: {op:?}"))),
            (PartitionOp::Apply(rec), Some((s, net))) => {
                let payload = run_op(s, net, floor, &rec, wire::is_closed(&rec))?;
                let mut reply = s.reply(payload);
                reply.net = drain_net_actions(net);
                reply
            }
            (PartitionOp::Shutdown, Some((s, _))) => s.reply(ReplyPayload::Unit),
            (op, Some((s, _))) => {
                let payload = s.answer(floor, &op);
                s.reply(payload)
            }
        };
        frame.clear();
        wire::encode_reply(&reply, &mut frame);
        conn.write_frame(&frame)?;
        // The reply waits while the requests queued behind it are served.
        let send_now = shutdown || !conn.has_buffered_frame();
        if let Some(st) = state.as_ref().and_then(|(s, _)| s.store.as_ref()) {
            // Acknowledged implies journaled: buffered journal frames reach
            // the OS before any reply that acknowledges them leaves the
            // process, so a SIGKILL never loses an op the coordinator saw
            // complete (a buffered write, not an fsync — the page cache
            // survives process death). A full segment is flushed (and so
            // rotated) at once, where one flush per op would have rotated
            // it: the log's bytes do not depend on how requests batch.
            if send_now || st.segment_full() {
                st.flush();
            }
        }
        if send_now {
            conn.flush()?;
        }
        if shutdown {
            return Ok(());
        }
    }
}

/// Accepts exactly one coordinator on `listener`, completes the hello
/// exchange and runs the service loop to completion.
///
/// The exchange is request then reply, like every later frame: the
/// partition reads the coordinator's hello (node id 0) before it announces
/// its own id, so no byte leaves the partition unasked.
/// [`dial_partition`] is the coordinator's half.
pub fn serve_partition(listener: Listener, partition: u32) -> Result<(), TransportError> {
    let mut conn = FramedConn::new(listener.accept()?);
    let _coordinator = conn.expect_hello()?;
    conn.send_hello(partition)?;
    serve_connection(conn)
}

/// The coordinator's half of [`serve_partition`]'s hello exchange: dials
/// `endpoint` (retrying for up to `timeout` while a freshly spawned
/// service may still be binding), sends the coordinator's hello, and
/// checks that the service announces partition `p`.
pub fn dial_partition(
    endpoint: &Endpoint,
    p: u32,
    timeout: Duration,
) -> Result<FramedConn, TransportError> {
    let mut conn = FramedConn::new(endpoint.connect_with_retry(timeout)?);
    conn.send_hello(0)?;
    let announced = conn.expect_hello()?;
    if announced != p {
        return Err(TransportError::Handshake(format!(
            "service at {endpoint} announced partition {announced}, expected {p}"
        )));
    }
    Ok(conn)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mobieyes_core::{
        ClusterMsg, Filter, LogRecord, ObjectId, Propagation, QueryId, QuerySpec, StubSeed,
    };
    use mobieyes_geo::{CellId, GridRect, LinearMotion, Point, QueryRegion, Rect, Vec2};

    fn init(store_dir: &Path) -> PartitionOp {
        PartitionOp::Init(init_config(store_dir))
    }

    pub(crate) fn init_config(store_dir: &Path) -> InitConfig {
        InitConfig {
            universe: Rect::new(0.0, 0.0, 100.0, 100.0),
            alpha: 5.0,
            alen: 10.0,
            delta: 0.2,
            propagation: Propagation::Eager,
            grouping: false,
            safe_period: false,
            deliver_results: false,
            system_max_speed: 0.07,
            lease_secs: 0.0,
            heartbeat_secs: 0.0,
            partition: 0,
            num_partitions: 1,
            store_dir: Some(store_dir.to_string_lossy().into_owned()),
            store_fresh: true,
        }
    }

    /// A coordinator-side connection to a service thread.
    fn serve_on_loopback() -> (
        FramedConn,
        std::thread::JoinHandle<Result<(), TransportError>>,
    ) {
        let (conn, served) = crate::handle::tests::loopback_pair();
        (conn, std::thread::spawn(move || serve_connection(served)))
    }

    fn call(conn: &mut FramedConn, op: &PartitionOp, flush: bool) {
        let mut frame = Vec::new();
        wire::encode_request(0, op, &mut frame);
        conn.write_frame(&frame).expect("write");
        if flush {
            conn.flush().expect("flush");
        }
    }

    /// Disk state is outside input: an `Init` whose `store_dir` cannot
    /// hold a log (here: it is a regular file) ends the session with a
    /// classified I/O error naming the path. The coordinator gets no
    /// reply and classifies the partition as dead; nothing panics.
    #[test]
    fn init_over_an_unusable_store_dir_is_an_error_not_a_panic() {
        let file = std::env::temp_dir().join(format!(
            "mobieyes-serve-init-{}-not-a-dir",
            std::process::id()
        ));
        std::fs::write(&file, b"in the way").expect("create the blocking file");
        let (mut conn, service) = serve_on_loopback();
        call(&mut conn, &init(&file), true);
        let err = service
            .join()
            .expect("the service must not panic")
            .expect_err("the session must end");
        assert!(
            matches!(&err, TransportError::Io(text) if text.contains(&*file.to_string_lossy())),
            "unclassified init failure: {err}"
        );
        assert!(conn.read_frame().is_err(), "no reply acknowledges the Init");
        std::fs::remove_file(&file).expect("clean up");
    }

    /// Each `Init` the partition could not be built from — a degenerate
    /// grid, station layout or partition split — ends the session with a
    /// classified frame error before anything is built: no reply, no panic.
    #[test]
    fn a_bad_init_ends_the_session_with_a_frame_error_not_a_panic() {
        for (name, init) in wire::tests::bad_inits() {
            let (mut conn, service) = serve_on_loopback();
            call(&mut conn, &PartitionOp::Init(init), true);
            let err = service
                .join()
                .unwrap_or_else(|_| panic!("{name}: the service panicked"))
                .expect_err(name);
            assert!(matches!(err, TransportError::Frame(_)), "{name}: {err}");
            assert!(
                conn.read_frame().is_err(),
                "{name}: no reply acknowledges the Init"
            );
        }
    }

    /// *Acknowledged implies journaled* with replies held back: a batch of
    /// posted ops arrives in one write, so the service executes a run of
    /// them before it answers any — and whenever a reply is readable, the
    /// op it acknowledges must already be in the log files (40 records
    /// stay under the store's own 64-record group flush, so only the
    /// service's flush-before-reply can have put them there). Once for
    /// result changes, once for a run of fresh cell changes — the op the
    /// lane mostly carries.
    #[test]
    fn batched_replies_leave_only_after_their_journal_records() {
        const BATCH: u32 = 40;
        let dir = std::env::temp_dir().join(format!(
            "mobieyes-serve-ack-{}-journaled",
            std::process::id()
        ));
        let (mut conn, service) = serve_on_loopback();
        call(&mut conn, &init(&dir), true);
        wire::decode_reply(&conn.read_frame().expect("init reply")).expect("decodes");
        type Batch = (fn(u32) -> LogRecord, fn(&LogRecord) -> bool);
        let batches: [Batch; 2] = [
            (
                |i| LogRecord::ResultChange {
                    qid: QueryId(1),
                    oid: ObjectId(i),
                    is_target: true,
                },
                |r| matches!(r, LogRecord::ResultChange { .. }),
            ),
            (
                |i| LogRecord::CellChangeFresh {
                    oid: ObjectId(i),
                    prev_cell: CellId::new(3, 3),
                    new_cell: CellId::new(4, 3),
                    motion: motion_at(22.0, 17.0, 1.0),
                },
                |r| matches!(r, LogRecord::CellChangeFresh { .. }),
            ),
        ];
        for (rec, is_logged) in batches {
            let logged = || {
                let scan = store::read_log_dir(&dir, 0).expect("readable log");
                scan.records.iter().filter(|(_, r)| is_logged(r)).count()
            };
            assert_eq!(logged(), 0);
            for i in 0..BATCH {
                call(&mut conn, &PartitionOp::Apply(rec(i)), i + 1 == BATCH);
            }
            for acknowledged in 1..=BATCH as usize {
                wire::decode_reply(&conn.read_frame().expect("reply")).expect("decodes");
                assert!(
                    logged() >= acknowledged,
                    "reply {acknowledged} left before its op was journaled"
                );
            }
        }
        call(&mut conn, &PartitionOp::Shutdown, true);
        conn.read_frame().expect("shutdown reply");
        service.join().expect("service thread").expect("clean exit");
        store::wipe_dir(&dir).expect("clean up");
        let _ = std::fs::remove_dir(&dir);
    }

    /// The hello exchange is request then reply: a client that has not
    /// sent its hello reads nothing, and after sending it gets the
    /// partition's hello with the partition's id. A proxy that pairs
    /// replies with requests (the benchmark's frame tap) otherwise sees a
    /// reply nobody asked for whenever the partition's hello wins the race.
    #[test]
    fn the_partition_speaks_only_after_the_coordinator_hello() {
        use std::io::Read;
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
        let endpoint = listener.local_endpoint().expect("endpoint");
        let service = std::thread::spawn(move || serve_partition(listener, 3));
        let mut raw = endpoint.connect().expect("connect");
        raw.set_read_timeout(Some(Duration::from_millis(300)))
            .expect("timeout");
        match raw.read(&mut [0u8; 1]) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            other => panic!("the partition spoke before the coordinator's hello: {other:?}"),
        }
        raw.set_read_timeout(None).expect("clear timeout");
        let mut conn = FramedConn::new(raw);
        conn.send_hello(0).expect("hello");
        assert_eq!(conn.expect_hello().expect("hello back"), 3);
        call(&mut conn, &PartitionOp::Shutdown, true);
        conn.read_frame().expect("shutdown reply");
        service.join().expect("service thread").expect("clean exit");
    }

    fn motion_at(x: f64, y: f64, tm: f64) -> LinearMotion {
        LinearMotion::new(Point::new(x, y), Vec2::new(0.01, 0.0), tm)
    }

    fn test_net() -> Net {
        capture_net(&init_config(Path::new("unused")))
    }

    /// `run_op` of `rec` at `floor` and its reply, the downlinks drained
    /// into it as the service loop drains them.
    fn apply(
        s: &mut ServiceState,
        floor: u64,
        rec: &LogRecord,
        closed: bool,
    ) -> Result<PartitionReply, TransportError> {
        let mut net = test_net();
        let payload = run_op(s, &mut net, floor, rec, closed)?;
        let mut reply = s.reply(payload);
        reply.net = drain_net_actions(&mut net);
        Ok(reply)
    }

    /// Focal objects of the populated partition, one query each. The last
    /// one's monitoring region reaches across the partition border.
    const FOCALS: [(u32, f64, f64); 3] = [(7, 12.0, 12.0), (4, 71.0, 30.0), (9, 50.0, 47.0)];

    /// Partition 0 of 2 (rows 0..10 of the 20 x 20 grid) with leases,
    /// result delivery and grouping on, so every branch a closed op can
    /// take is live; three focals, a query and a result member each.
    fn populated() -> ServiceState {
        let mut config = init_config(Path::new("unused"));
        config.store_dir = None;
        config.num_partitions = 2;
        config.deliver_results = true;
        config.grouping = true;
        config.lease_secs = 120.0;
        config.heartbeat_secs = 60.0;
        let mut s = ServiceState::build(&config, Telemetry::new()).expect("storeless build");
        for (i, &(oid, x, y)) in FOCALS.iter().enumerate() {
            let qid = QueryId(i as u32);
            let setup = [
                LogRecord::RefreshFocalMotion {
                    oid: ObjectId(oid),
                    motion: motion_at(x, y, 0.0),
                    max_vel: 0.05,
                    insert: true,
                },
                LogRecord::CompleteInstall {
                    qid,
                    focal: ObjectId(oid),
                    region: QueryRegion::circle(8.0),
                    filter: Arc::new(Filter::True),
                    expires_at: None,
                },
                LogRecord::ResultChange {
                    qid,
                    oid: ObjectId(100 + i as u32),
                    is_target: true,
                },
            ];
            for rec in setup {
                let closed = wire::is_closed(&rec);
                apply(&mut s, 0, &rec, closed).expect("setup op");
            }
        }
        s
    }

    /// A monitoring region anywhere: on the 20 x 20 grid, past its edge,
    /// four billion rows long, or empty.
    fn draw_region(draw: &mut impl FnMut(u32) -> u32) -> GridRect {
        let (x0, y0) = (draw(21), draw(21));
        let mut corner = |lo: u32| match draw(6) {
            0 => u32::MAX,
            1 => lo.saturating_sub(1),
            _ => lo + draw(4),
        };
        let (x1, y1) = (corner(x0), corner(y0));
        GridRect { x0, y0, x1, y1 }
    }

    /// `template` with its arguments redrawn: ids that hit and miss the
    /// populated state, cells and monitoring regions anywhere on the grid
    /// and past its edge.
    fn redraw(template: &LogRecord, rng: &mut u64) -> LogRecord {
        let mut draw = |n: u32| {
            *rng += 1;
            (mobieyes_net::fault::mix64(*rng) % u64::from(n)) as u32
        };
        const OIDS: [u32; 8] = [7, 4, 9, 100, 101, 102, 55, 3000];
        let oid = ObjectId(OIDS[draw(8) as usize]);
        let focal = ObjectId(OIDS[draw(4) as usize]);
        let qid = QueryId(draw(5));
        let flag = draw(2) == 0;
        // Coordinates past 19 are off the 20 x 20 grid.
        let mut coord = || if draw(8) == 0 { u32::MAX } else { draw(41) };
        let cell = CellId::new(coord(), coord());
        let prev_cell = CellId::new(coord(), coord());
        match template {
            LogRecord::RenewLease(_) => LogRecord::RenewLease(oid),
            LogRecord::CellChangeFresh { .. } => LogRecord::CellChangeFresh {
                oid,
                prev_cell,
                new_cell: cell,
                motion: motion_at(1.0, 1.0, 2.0),
            },
            LogRecord::ResultChange { .. } => LogRecord::ResultChange {
                qid,
                oid,
                is_target: flag,
            },
            LogRecord::GroupResultUpdate { .. } => LogRecord::GroupResultUpdate {
                oid,
                focal,
                mask: u64::from(draw(8)),
                targets: u64::from(draw(8)),
            },
            LogRecord::ResultDelta { .. } => LogRecord::ResultDelta {
                qid,
                oid,
                entered: flag,
            },
            LogRecord::FocalReassert(_) => LogRecord::FocalReassert(focal),
            LogRecord::CellSyncReply { .. } => LogRecord::CellSyncReply { oid, cell },
            LogRecord::Cluster(ClusterMsg::StubUpdate { spec, .. }) => {
                let mon_region = draw_region(&mut draw);
                let old_mon = (draw(2) == 0).then(|| draw_region(&mut draw));
                let spec = QuerySpec {
                    qid,
                    seq: u64::from(draw(50)),
                    ..spec.clone()
                };
                LogRecord::Cluster(ClusterMsg::StubUpdate {
                    focal,
                    motion: motion_at(1.0, 1.0, 2.0),
                    max_vel: 0.05,
                    curr_cell: cell,
                    mon_region,
                    old_mon,
                    spec,
                })
            }
            LogRecord::Cluster(ClusterMsg::StubRemove { .. }) => {
                LogRecord::Cluster(ClusterMsg::StubRemove {
                    qid,
                    mon_region: draw_region(&mut draw),
                    epoch: u64::from(draw(50)),
                })
            }
            other => panic!("record without a generator (add one here): {other:?}"),
        }
    }

    /// Stub records redrawn with monitoring regions anywhere are applied
    /// when the region is on the grid or empty and refused when it reaches
    /// past the grid — never a panic, never a walk over four billion rows.
    #[test]
    fn stub_records_are_refused_exactly_when_a_region_is_off_the_grid() {
        let spec = QuerySpec {
            qid: QueryId(0),
            region: QueryRegion::circle(4.0),
            filter: Arc::new(Filter::True),
            slot: 0,
            seq: 0,
        };
        let templates = [
            LogRecord::Cluster(ClusterMsg::StubUpdate {
                focal: ObjectId(9),
                motion: motion_at(1.0, 1.0, 2.0),
                max_vel: 0.05,
                curr_cell: CellId::new(0, 0),
                mon_region: GridRect::EMPTY,
                old_mon: None,
                spec,
            }),
            LogRecord::Cluster(ClusterMsg::StubRemove {
                qid: QueryId(0),
                mon_region: GridRect::EMPTY,
                epoch: 0,
            }),
        ];
        let off = |r: &GridRect| !r.is_empty() && (r.x1 >= 20 || r.y1 >= 20);
        let mut s = populated();
        let mut rng = 5u64;
        let (mut applied, mut refused) = (0, 0);
        for _ in 0..300 {
            for template in &templates {
                let rec = redraw(template, &mut rng);
                let off_grid = match &rec {
                    LogRecord::Cluster(ClusterMsg::StubUpdate {
                        mon_region,
                        old_mon,
                        ..
                    }) => off(mon_region) || old_mon.as_ref().is_some_and(off),
                    LogRecord::Cluster(ClusterMsg::StubRemove { mon_region, .. }) => {
                        off(mon_region)
                    }
                    other => unreachable!("{other:?}"),
                };
                match apply(&mut s, 0, &rec, false) {
                    Ok(_) if !off_grid => applied += 1,
                    Err(TransportError::Protocol(_)) if off_grid => refused += 1,
                    other => panic!("{rec:?} answered {other:?}"),
                }
            }
        }
        assert!(
            applied > 100 && refused > 100,
            "{applied} applied, {refused} refused"
        );
    }

    /// The closed class is what `is_closed` lists *and* what the server
    /// does: every listed record, over generated arguments against a
    /// populated scoped server, leaves the epoch (past the request's
    /// floor), the outbox and the home log alone — the service-side check
    /// passes and the reply shows it.
    #[test]
    fn every_closed_op_leaves_epoch_outbox_and_home_log_untouched() {
        let closed: Vec<LogRecord> = wire::tests::sample_records()
            .into_iter()
            .filter(wire::is_closed)
            .collect();
        assert_eq!(closed.len(), 7, "DESIGN.md §11 lists the closed records");
        let mut s = populated();
        let mut rng = 22u64;
        let mut downlinks = 0;
        for round in 0..300u64 {
            for template in &closed {
                let rec = redraw(template, &mut rng);
                let epoch = s.server.current_epoch();
                // Now and then the coordinator's view is ahead.
                let floor = if round % 7 == 0 { epoch + 2 } else { epoch };
                let reply = apply(&mut s, floor, &rec, true)
                    .unwrap_or_else(|e| panic!("round {round}: {e}"));
                assert_eq!(reply.epoch, floor, "{rec:?} moved the epoch");
                assert!(reply.outbox.is_empty(), "{rec:?} queued {:?}", reply.outbox);
                assert!(reply.homes.is_empty(), "{rec:?} changed {:?}", reply.homes);
                assert!(s.server.take_outbox().is_empty() && s.server.take_home_log().is_empty());
                downlinks += reply.net.len();
            }
        }
        assert!(downlinks > 300, "the generated ops mostly missed the state");
        s.server.check_invariants();
    }

    /// A mis-listed record — one the coordinator would post although it
    /// moves shared state — is refused where it executes: a classified
    /// protocol error naming the record and the effect, no reply, no panic.
    #[test]
    fn a_mislisted_closed_op_is_a_protocol_error_naming_it() {
        let cases = [
            (LogRecord::BumpEpoch, "BumpEpoch", "moved the epoch"),
            (
                LogRecord::RefreshFocalMotion {
                    oid: ObjectId(55),
                    motion: motion_at(30.0, 30.0, 1.0),
                    max_vel: 0.05,
                    insert: true,
                },
                "RefreshFocalMotion",
                "changed what the partition homes",
            ),
            (
                // A newer sample for the border focal: a stub refresh.
                LogRecord::RefreshFocalMotion {
                    oid: ObjectId(9),
                    motion: motion_at(50.0, 47.5, 1.0),
                    max_vel: 0.05,
                    insert: false,
                },
                "RefreshFocalMotion",
                "queued a bus envelope",
            ),
        ];
        for (rec, name, effect) in cases {
            assert!(!wire::is_closed(&rec));
            let mut s = populated();
            assert!(apply(&mut s, 0, &rec, false).is_ok(), "{name}");
            let mut s = populated();
            let err = apply(&mut s, 0, &rec, true).expect_err("refused");
            assert!(
                matches!(&err, TransportError::Protocol(text)
                    if text.starts_with(&format!("Apply({name}")) && text.ends_with(effect)),
                "{name}: {err}"
            );
        }
    }

    /// Well-formed records no handler can take: partition bounds the
    /// 2-partition, 400-cell table at generation 0 must refuse, an export,
    /// a transfer and an adoption of a cell off the grid, stub records and
    /// a transfer's stub seed with a monitoring region past the grid, and
    /// an install for a focal object the partition has no FOT row for.
    fn refused_records() -> Vec<LogRecord> {
        let bounds = |generation, bounds: &[u64]| LogRecord::Bounds {
            generation,
            bounds: bounds.to_vec(),
        };
        let spec = QuerySpec {
            qid: QueryId(12),
            region: QueryRegion::circle(4.0),
            filter: Arc::new(Filter::True),
            slot: 0,
            seq: 1,
        };
        let stub_update = |mon_region, old_mon| {
            LogRecord::Cluster(ClusterMsg::StubUpdate {
                focal: ObjectId(55),
                motion: motion_at(95.0, 45.0, 1.0),
                max_vel: 0.05,
                curr_cell: CellId::new(19, 9),
                mon_region,
                old_mon,
                spec: spec.clone(),
            })
        };
        // Past the last column (on a partition, it would alias into the
        // next row), and four billion rows long.
        let wide = GridRect {
            x0: 18,
            y0: 8,
            x1: 22,
            y1: 9,
        };
        let long = GridRect {
            x0: 0,
            y0: 0,
            x1: 1,
            y1: u32::MAX,
        };
        let on_grid = GridRect {
            x0: 18,
            y0: 8,
            x1: 19,
            y1: 9,
        };
        vec![
            stub_update(wide, None),
            stub_update(on_grid, Some(long)),
            LogRecord::Cluster(ClusterMsg::StubRemove {
                qid: QueryId(12),
                mon_region: long,
                epoch: 3,
            }),
            LogRecord::Cluster(ClusterMsg::RebalanceCells {
                generation: 0,
                epoch: 0,
                cells: vec![(12, vec![QueryId(12)])],
                stubs: vec![StubSeed {
                    focal: ObjectId(55),
                    motion: motion_at(95.0, 45.0, 1.0),
                    max_vel: 0.05,
                    mon_region: wide,
                    spec: spec.clone(),
                }],
            }),
            bounds(1, &[0, 400]),
            bounds(1, &[0, 100, 200, 400]),
            bounds(1, &[0, 300, 200]),
            bounds(1, &[5, 200, 400]),
            bounds(1, &[0, 200, 399]),
            bounds(1, &[0, 200, 401]),
            LogRecord::ExportCells {
                flats: vec![12, 400],
                generation: 0,
            },
            LogRecord::ExportCells {
                flats: vec![u32::MAX],
                generation: 0,
            },
            LogRecord::Cluster(ClusterMsg::RebalanceCells {
                generation: 0,
                epoch: 0,
                cells: vec![(12, vec![QueryId(0)]), (10_000, vec![QueryId(1)])],
                stubs: Vec::new(),
            }),
            LogRecord::Cluster(ClusterMsg::RecoverCells {
                generation: 0,
                epoch: 0,
                cells: vec![10_000],
            }),
            LogRecord::CompleteInstall {
                qid: QueryId(7),
                focal: ObjectId(55),
                region: QueryRegion::circle(4.0),
                filter: Arc::new(Filter::True),
                expires_at: None,
            },
        ]
    }

    /// Refuses `rec` the way the service must: a classified protocol
    /// error, no reply, the partition as it was.
    fn assert_refused(s: &mut ServiceState, rec: LogRecord) {
        let generation = s.server.scope().generation();
        let digest = s.server.state_digest();
        let err = apply(s, 0, &rec, false).expect_err("refused");
        assert!(matches!(err, TransportError::Protocol(_)), "{rec:?}: {err}");
        assert_eq!(s.server.scope().generation(), generation);
        assert_eq!(s.server.state_digest(), digest, "{rec:?} changed state");
    }

    /// Each refused record ends the session instead of panicking the
    /// partition; so does a valid split that would rewind the generation.
    #[test]
    fn records_apply_refuses_are_protocol_errors_not_panics() {
        let mut s = populated();
        for rec in refused_records() {
            assert_refused(&mut s, rec);
        }
        let split = |generation| LogRecord::Bounds {
            generation,
            bounds: vec![0, 200, 400],
        };
        apply(&mut s, 0, &split(2), false).expect("a valid install");
        assert_refused(&mut s, split(1));
        s.server.check_invariants();
    }

    /// A fresh cell change whose new cell overshoots the grid is served
    /// against the clamped cell's RQI row instead of indexing the RQI out
    /// of bounds.
    #[test]
    fn a_fresh_cell_change_off_the_grid_is_served_clamped() {
        let mut s = populated();
        let off = [CellId::new(2, 40), CellId::new(u32::MAX, u32::MAX)];
        for new_cell in off {
            let rec = LogRecord::CellChangeFresh {
                oid: ObjectId(55),
                prev_cell: CellId::new(0, 0),
                new_cell,
                motion: motion_at(1.0, 1.0, 2.0),
            };
            apply(&mut s, 0, &rec, true).expect("served");
        }
        s.server.check_invariants();
    }

    /// A CRC-valid log holding a record `apply` refuses fails its replay
    /// with an error instead of panicking the process replaying it.
    #[test]
    fn replaying_a_log_with_a_refused_record_is_an_error() {
        for (i, rec) in refused_records().into_iter().enumerate() {
            let dir = std::env::temp_dir()
                .join(format!("mobieyes-serve-refused-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let st = Store::open(store::StoreConfig::new(&dir, 0), Telemetry::new()).expect("open");
            st.append_record(&LogRecord::Meta {
                partition: 0,
                num_partitions: 2,
            });
            st.append_record(&rec);
            st.flush();
            drop(st);
            let mut s = populated();
            let mut net = test_net();
            let err = store::replay_into(&dir, 0, &mut s.server, &mut net, &Telemetry::new())
                .expect_err("replay must refuse");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{rec:?}: {err}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
