//! Uniform handle over a partition server, local or remote.
//!
//! The coordinator drives every partition through [`PartitionHandle`]. A
//! [`Local`](PartitionHandle::Local) handle owns the `Server` in-process
//! (the original deployment, zero overhead); a
//! [`Remote`](PartitionHandle::Remote) handle speaks the [`wire`] RPC
//! protocol to a partition process over a framed socket connection.
//!
//! The handle names no op. A mutation is a [`LogRecord`]: the local arm
//! hands it to [`Server::apply`], the remote arm sends it as
//! [`PartitionOp::Apply`]. A read is a [`PartitionOp`]: the local arm
//! answers it through `serve::read`, the dispatch the partition service
//! answers it with, and the remote arm sends it. [`FromPayload`] types the
//! answer of either arm.
//!
//! A remote op is one request frame and, later, one reply frame; the
//! service answers in request order, so a handle may have several
//! requests outstanding as long as their replies are collected in the
//! same order. Three shapes are built on that one mechanism:
//!
//! - a *call* ([`call`](PartitionHandle::call) a record,
//!   [`ask`](PartitionHandle::ask) a read) sends and waits — every op that
//!   can move the epoch, queue a bus envelope or change what the partition
//!   homes, and every read the coordinator branches on, is a call, so the
//!   coordinator has folded its reply before it issues anything else;
//! - a [`Probe`] ([`start`](PartitionHandle::start) /
//!   [`start_apply`](PartitionHandle::start_apply) then
//!   [`PartitionHandle::finish`]) puts the same read or fence op on the
//!   wire of every partition before waiting for the first reply, so the
//!   partition processes work concurrently;
//! - a *posted* record (`Lane::post`) is a closed one
//!   ([`wire::is_closed`]) written without even a flush; its reply is
//!   collected when the handle is next read. A record has exactly one
//!   shape: a closed record is always posted, any other never is (debug
//!   builds assert both).
//!
//! **Per connection, collect before you read.** A posted op's reply comes
//! before the reply of any call or probe sent after it, so a remote handle
//! counts its uncollected posts and the next call or probe reads their
//! replies first, parking their downlinks, then its own. The call's
//! request is queued behind the posts and leaves in the same write: one
//! wake-up of the partition serves both. No other handle is read.
//!
//! **One ordered replay queue across handles.** The `Lane` owns the
//! coordinator's issue order: a slot per posted op whose reply has not
//! reached it, and per reply already read whose downlinks wait behind one.
//! After every read it replays the complete prefix onto the agent network,
//! so downlinks reach it in issue order although each partition's posted
//! replies are collected only when that partition is next read, the window
//! fills, or the tick ends. The window bounds the uncollected posted
//! *requests* across all handles, which is what keeps any flush from
//! blocking (DESIGN.md §11).
//!
//! Every request carries the coordinator's epoch view as a floor, and
//! every reply folds its epoch back with a `fetch_max` — reproducing the
//! shared atomic epoch counter of the in-process deployment. Side effects
//! come back in the reply: bus envelopes are buffered until
//! [`PartitionHandle::take_outbox`] (so the coordinator's pump discipline
//! is unchanged), downlink traffic is replayed onto the real agent network
//! in emission order, and the `homes` delta is folded into the handle's
//! mirror of the partition's FOT and SQT key sets. The partition is a
//! passive server whose state changes only inside ops issued on this
//! connection, so the mirror is exact whenever no call is outstanding —
//! [`PartitionHandle::has_focal`], [`has_query`](PartitionHandle::has_query)
//! and [`num_queries`](PartitionHandle::num_queries) read it instead of
//! asking.
//!
//! Any failure on a remote handle kills it: a transport failure that
//! means the peer is gone ([`TransportError::is_peer_death`] — closed
//! socket, stream I/O error, or an elapsed read deadline) is recorded as
//! is; an undecodable or mis-shaped reply is recorded as a
//! [`TransportError::Protocol`] violation. Either way the handle is
//! permanently inert from then on — every subsequent op returns a neutral
//! fallback (empty, `None`, `false`), the mirror reads empty and nothing
//! more goes on the wire — so the coordinator's fan-out discipline
//! survives the loss and can notice via [`PartitionHandle::crashed`] at
//! the next tick boundary and fence the partition off. A dead handle is
//! never reused: a late reply from a half-executed primitive would
//! desynchronize the connection, so recovery always builds a fresh handle
//! (respawn) or abandons the slot (failover).

use crate::serve;
use crate::wire::{self, NetAction, PartitionOp, PartitionReply, ReplyPayload};
use mobieyes_core::codec::DecodeError;
use mobieyes_core::server::{FromPayload, Net};
use mobieyes_core::{ClusterMsg, HomeChange, LogRecord, ObjectId, QueryId, Server};
use mobieyes_geo::LinearMotion;
use mobieyes_net::{FramedConn, NodeId, StationId, TransportError};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bound on the posted lane: at most this many closed ops, or this many
/// request bytes, await collection at once, across all handles. Only the
/// request direction needs the bound. Every request a flush puts on a
/// connection is uncollected, so a flush never carries more than a window
/// — which always fits the partition's receive buffer: the flush never
/// blocks and the coordinator always reaches its reads. Replies may be far
/// larger than requests (a `NewQueries` runs to kilobytes), and a
/// partition may well block writing them — but only itself, and only
/// until the coordinator next reads it.
pub(crate) const POST_WINDOW_OPS: usize = 256;
pub(crate) const POST_WINDOW_BYTES: usize = 32 * 1024;

/// Deterministic coordinator-side RPC counts (see `telemetry::rpc_keys`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcCounts {
    /// Requests whose reply the coordinator waited for (calls and probes).
    pub round_trips: u64,
    /// Closed ops written without waiting.
    pub posted: u64,
    /// Ownership lookups answered by the `homes` mirror; each was one
    /// round trip before the mirror existed.
    pub mirror_hits: u64,
    /// Flushes that wrote request bytes to the socket — each one wakes
    /// the partition process.
    pub flushes: u64,
}

/// A connected remote partition: the coordinator side of the RPC link.
pub struct RemotePartition {
    /// This partition's index (labels failure reports).
    partition: u32,
    conn: RefCell<FramedConn>,
    /// Coordinator-side view of the shared epoch, updated from every
    /// reply; shared across all remote handles of one deployment.
    epoch: Arc<AtomicU64>,
    /// Bus envelopes returned by replies, buffered until the coordinator
    /// pumps the bus.
    outbox: RefCell<Vec<(u32, ClusterMsg)>>,
    /// Reusable request/reply frame scratch — steady-state RPC traffic
    /// allocates no per-call buffers.
    frame: RefCell<Vec<u8>>,
    /// Mirror of the partition's FOT key set, folded from `homes`.
    focals: RefCell<HashSet<ObjectId>>,
    /// Mirror of the partition's SQT key set, folded from `homes`.
    queries: RefCell<HashSet<QueryId>>,
    /// The failure that killed the handle; it is inert once set (see
    /// module docs).
    death: RefCell<Option<TransportError>>,
    counts: Cell<RpcCounts>,
    /// Posted ops whose reply is still owed; their replies come before
    /// any other on the connection.
    uncollected: Cell<u32>,
    /// Request bytes of the uncollected posts.
    uncollected_bytes: Cell<usize>,
    /// Downlinks of posted replies already read, oldest first, until the
    /// [`Lane`] replays them.
    parked: RefCell<VecDeque<Vec<NetAction>>>,
}

/// Writes one request frame, given the coordinator's epoch floor.
type Encode<'a> = &'a dyn Fn(u64, &mut Vec<u8>);

impl RemotePartition {
    /// Wraps a connected, hello-completed connection. `epoch` is the
    /// coordinator's shared epoch view (one `Arc` across all handles).
    pub fn new(partition: u32, conn: FramedConn, epoch: Arc<AtomicU64>) -> Self {
        RemotePartition {
            partition,
            conn: RefCell::new(conn),
            epoch,
            outbox: RefCell::new(Vec::new()),
            frame: RefCell::new(Vec::new()),
            focals: RefCell::new(HashSet::new()),
            queries: RefCell::new(HashSet::new()),
            death: RefCell::new(None),
            counts: Cell::new(RpcCounts::default()),
            uncollected: Cell::new(0),
            uncollected_bytes: Cell::new(0),
            parked: RefCell::new(VecDeque::new()),
        }
    }

    /// Installs (or clears) the per-RPC deadline on the connection, for
    /// reads and writes alike. While set, a partition that hangs instead
    /// of crashing surfaces as [`TransportError::Timeout`] on the next
    /// reply wait, or on the next flush once it has stopped reading.
    pub fn set_rpc_deadline(&self, dur: Option<std::time::Duration>) {
        let conn = self.conn.borrow();
        let _ = conn.set_read_timeout(dur);
        let _ = conn.set_write_timeout(dur);
    }

    /// The failure that killed this handle, if any.
    pub fn crashed(&self) -> Option<TransportError> {
        self.death.borrow().clone()
    }

    fn dead(&self) -> bool {
        self.death.borrow().is_some()
    }

    /// Kills the handle (first failure wins). Peer death is recorded as
    /// is; anything else — an undecodable or mis-shaped reply — becomes a
    /// protocol violation naming the partition. The mirror is cleared so a
    /// dead handle homes nothing.
    fn kill(&self, e: TransportError) {
        let e = if e.is_peer_death() {
            e
        } else {
            TransportError::Protocol(format!("partition {}: {e}", self.partition))
        };
        self.death.borrow_mut().get_or_insert(e);
        self.focals.borrow_mut().clear();
        self.queries.borrow_mut().clear();
    }

    fn count(&self, bump: impl FnOnce(&mut RpcCounts)) {
        let mut c = self.counts.get();
        bump(&mut c);
        self.counts.set(c);
    }

    /// Queues one request frame behind whatever is already unflushed and
    /// returns its size; 0 means the handle is dead and nothing was
    /// written. Every queued request must be paired with exactly one
    /// [`Self::recv`], in order.
    fn send(&self, encode: Encode<'_>) -> usize {
        if self.dead() {
            return 0;
        }
        let floor = self.epoch.load(Ordering::Relaxed);
        let mut frame = self.frame.borrow_mut();
        frame.clear();
        encode(floor, &mut frame);
        match self.conn.borrow_mut().write_frame(&frame) {
            Ok(()) => 4 + frame.len(),
            Err(e) => {
                self.kill(e);
                0
            }
        }
    }

    /// Pushes queued requests onto the wire, if there are any.
    fn flush(&self) {
        let mut conn = self.conn.borrow_mut();
        if self.dead() || !conn.has_unflushed() {
            return;
        }
        self.count(|c| c.flushes += 1);
        if let Err(e) = conn.flush() {
            self.kill(e);
        }
    }

    /// Collects the oldest outstanding reply: folds its epoch into the
    /// shared view, its `homes` into the mirror, buffers its outbox
    /// envelopes and hands back the rest. `None` means the handle is dead
    /// (already, or this wait killed it) and the reply will never come.
    fn recv(&self) -> Option<(Vec<NetAction>, ReplyPayload)> {
        self.flush();
        if self.dead() {
            return None;
        }
        let mut frame = self.frame.borrow_mut();
        let reply = self
            .conn
            .borrow_mut()
            .read_frame_into(&mut frame)
            .and_then(|()| wire::decode_reply(&frame));
        let PartitionReply {
            epoch,
            outbox,
            net,
            payload,
            homes,
        } = match reply {
            Ok(reply) => reply,
            Err(e) => {
                self.kill(e);
                return None;
            }
        };
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
        self.outbox.borrow_mut().extend(outbox);
        if !homes.is_empty() {
            let mut focals = self.focals.borrow_mut();
            let mut queries = self.queries.borrow_mut();
            for change in homes {
                match change {
                    HomeChange::FocalAdded(oid) => focals.insert(oid),
                    HomeChange::FocalRemoved(oid) => focals.remove(&oid),
                    HomeChange::QueryAdded(qid) => queries.insert(qid),
                    HomeChange::QueryRemoved(qid) => queries.remove(&qid),
                };
            }
        }
        Some((net, payload))
    }

    /// Reads the reply of every posted op still owed — they come first on
    /// the connection — and parks their downlinks for the [`Lane`]. A dead
    /// peer's replies are skipped, not waited for.
    fn collect_posted(&self) {
        self.uncollected_bytes.set(0);
        for _ in 0..self.uncollected.take() {
            let Some((actions, _)) = self.recv() else {
                return;
            };
            self.parked.borrow_mut().push_back(actions);
        }
    }

    /// Collects the reply of the oldest call or probe, after the posted
    /// replies ahead of it, and checks its shape. A dead peer, or a reply
    /// of the wrong shape (which kills the handle), yields `T`'s default —
    /// the op's neutral fallback — beside whatever downlinks came back.
    fn recv_as<T: FromPayload + Default>(&self) -> (Vec<NetAction>, T) {
        self.collect_posted();
        let Some((actions, payload)) = self.recv() else {
            return (Vec::new(), T::default());
        };
        let value = T::from_payload(payload).unwrap_or_else(|other| {
            self.kill(TransportError::Protocol(format!(
                "reply {other:?} where {} was expected",
                std::any::type_name::<T>()
            )));
            T::default()
        });
        (actions, value)
    }

    /// One round trip, riding behind the uncollected posts in one write;
    /// the downlinks come back with the answer.
    fn call<T: FromPayload + Default>(&self, encode: Encode<'_>) -> (Vec<NetAction>, T) {
        if self.send(encode) == 0 {
            return (Vec::new(), T::default());
        }
        self.count(|c| c.round_trips += 1);
        self.recv_as()
    }

    /// One round trip of an op that emits no downlinks.
    fn ask<T: FromPayload + Default>(&self, op: &PartitionOp) -> T {
        let (actions, value) = self.call(&|floor, out| wire::encode_request(floor, op, out));
        debug_assert!(actions.is_empty(), "read op emitted downlinks");
        value
    }

    /// Request half of a probe, flushed at once (behind any uncollected
    /// posts) so the partition starts on it while the coordinator probes
    /// its siblings.
    fn start<T>(&self, encode: Encode<'_>) -> Probe<T> {
        if self.send(encode) == 0 {
            return Probe::Dead;
        }
        self.count(|c| c.round_trips += 1);
        self.flush();
        Probe::Pending
    }

    /// Configures the peer; must be the first call on the connection. Its
    /// reply seeds the mirror with whatever a replayed log brought back.
    pub fn init(&self, init: wire::InitConfig) -> Result<(), TransportError> {
        self.ask::<()>(&PartitionOp::Init(init));
        self.crashed().map_or(Ok(()), Err)
    }

    /// Sends the shutdown op; the peer replies and exits its service loop.
    pub fn shutdown(&self) -> Result<(), TransportError> {
        self.ask::<()>(&PartitionOp::Shutdown);
        self.crashed().map_or(Ok(()), Err)
    }
}

/// Replays captured downlink actions onto the real agent network, in
/// emission order — the same queue entries the op would have pushed had
/// it run in-process.
fn replay_net(actions: Vec<NetAction>, net: &mut Net) {
    for action in actions {
        match action {
            NetAction::Unicast { node, msg } => net.send_unicast(NodeId(node), msg),
            NetAction::Broadcast { station, msg } => net.broadcast(StationId(station), msg),
        }
    }
}

/// An in-process partition's answer to `op`, typed like a remote reply.
/// The coordinator built the op itself, so a refused record or an answer
/// of the wrong shape is a bug in it, not a peer failure: it panics.
fn local_value<T: FromPayload>(op: &dyn Debug, answer: Result<ReplyPayload, DecodeError>) -> T {
    let payload = answer.unwrap_or_else(|e| panic!("in-process partition refused {op:?}: {e}"));
    T::from_payload(payload).unwrap_or_else(|p| panic!("{op:?} answered {p:?}"))
}

/// A two-phase partition probe: the request half of a pipelined RPC.
///
/// Local handles resolve immediately ([`Probe::Ready`]); remote handles
/// have the request on the wire ([`Probe::Pending`]) and the partition
/// process computes while the coordinator issues probes to its siblings.
/// Every started probe MUST be finished (on the same handle, in start
/// order) before the handle is posted to again — an unconsumed reply
/// would desynchronize the connection.
/// A probe against a dead remote ([`Probe::Dead`]) put nothing on the
/// wire; finishing it yields the op's neutral fallback.
#[must_use = "every started probe must be finished on its handle"]
pub enum Probe<T> {
    Ready(T),
    Pending,
    Dead,
}

/// A partition server the coordinator can drive: in-process or over RPC.
pub enum PartitionHandle {
    Local(Box<Server>),
    Remote(Box<RemotePartition>),
}

impl PartitionHandle {
    /// The in-process server, for APIs that expose partition internals
    /// (`ClusterServer::partition`, store rebuilds). `None` for remote
    /// handles — those surfaces are lockstep-only, and callers must
    /// handle the miss instead of aborting the coordinator.
    pub fn local(&self) -> Option<&Server> {
        match self {
            PartitionHandle::Local(s) => Some(s),
            PartitionHandle::Remote(_) => None,
        }
    }

    pub fn is_remote(&self) -> bool {
        matches!(self, PartitionHandle::Remote(_))
    }

    // --- the three op shapes ------------------------------------------------

    /// Request half of a read probe: a local handle answers at once, a
    /// remote request is flushed at once.
    pub fn start<T: FromPayload>(&self, op: &PartitionOp) -> Probe<T> {
        match self {
            PartitionHandle::Local(s) => Probe::Ready(local_value(op, Ok(serve::read(s, op)))),
            PartitionHandle::Remote(r) => {
                r.start(&|floor, out| wire::encode_request(floor, op, out))
            }
        }
    }

    /// Request half of a mutation probe; a local handle applies the record
    /// against `net` at once.
    pub fn start_apply<T: FromPayload>(&mut self, rec: &LogRecord, net: &mut Net) -> Probe<T> {
        debug_assert!(!wire::is_closed(rec), "closed records are posted");
        match self {
            PartitionHandle::Local(s) => Probe::Ready(local_value(rec, s.apply(rec, net))),
            PartitionHandle::Remote(r) => {
                r.start(&|floor, out| wire::encode_apply(floor, rec, out))
            }
        }
    }

    /// Reply half of a probe. A probe whose peer is dead — at start, or
    /// dying before the reply — yields `T`'s default, the op's neutral
    /// fallback.
    pub fn finish<T: FromPayload + Default>(&self, probe: Probe<T>) -> T {
        match (probe, self) {
            (Probe::Ready(v), _) => v,
            (Probe::Pending, PartitionHandle::Remote(r)) => {
                let (actions, value) = r.recv_as();
                debug_assert!(actions.is_empty(), "probed op emitted downlinks");
                value
            }
            (Probe::Pending, PartitionHandle::Local(_)) => {
                unreachable!("pending probe on a local handle")
            }
            (Probe::Dead, _) => T::default(),
        }
    }

    /// One read call: a probe finished at once.
    pub fn ask<T: FromPayload + Default>(&self, op: &PartitionOp) -> T {
        self.finish(self.start(op))
    }

    /// One mutation call whose downlinks land on `net` at once — a network
    /// no `Lane` feeds, or one whose lane is empty.
    pub fn call<T: FromPayload + Default>(&mut self, rec: &LogRecord, net: &mut Net) -> T {
        debug_assert!(!wire::is_closed(rec), "closed records are posted");
        match self {
            PartitionHandle::Local(s) => local_value(rec, s.apply(rec, net)),
            PartitionHandle::Remote(r) => {
                let (actions, value) = r.call(&|floor, out| wire::encode_apply(floor, rec, out));
                replay_net(actions, net);
                value
            }
        }
    }

    /// Issues a closed record without waiting: a local handle applies it
    /// inline, a remote request is queued unflushed. Returns the bytes
    /// queued — when non-zero the reply is owed, and the handle collects
    /// it before its next call or probe.
    fn post(&mut self, rec: &LogRecord, net: &mut Net) -> usize {
        debug_assert!(wire::is_closed(rec), "only closed records may be posted");
        match self {
            PartitionHandle::Local(s) => {
                local_value::<ReplyPayload>(rec, s.apply(rec, net));
                0
            }
            PartitionHandle::Remote(r) => {
                let bytes = r.send(&|floor, out| wire::encode_apply(floor, rec, out));
                if bytes > 0 {
                    r.count(|c| c.posted += 1);
                    r.uncollected.set(r.uncollected.get() + 1);
                    r.uncollected_bytes.set(r.uncollected_bytes.get() + bytes);
                }
                bytes
            }
        }
    }

    // --- the homes mirror ---------------------------------------------------

    pub fn has_focal(&self, oid: ObjectId) -> bool {
        match self {
            PartitionHandle::Local(s) => s.has_focal(oid),
            PartitionHandle::Remote(r) => {
                r.count(|c| c.mirror_hits += 1);
                r.focals.borrow().contains(&oid)
            }
        }
    }

    pub fn has_query(&self, qid: QueryId) -> bool {
        match self {
            PartitionHandle::Local(s) => s.has_query(qid),
            PartitionHandle::Remote(r) => {
                r.count(|c| c.mirror_hits += 1);
                r.queries.borrow().contains(&qid)
            }
        }
    }

    pub fn num_queries(&self) -> usize {
        match self {
            PartitionHandle::Local(s) => s.num_queries(),
            PartitionHandle::Remote(r) => r.queries.borrow().len(),
        }
    }

    /// Publishes an in-process server's pending counters into its sink
    /// ([`Server::publish`]). A partition process keeps its own counters.
    pub fn publish(&mut self) {
        if let PartitionHandle::Local(s) = self {
            s.publish();
        }
    }

    /// Drains the RPC counts accumulated since the last call; `None` for
    /// local handles.
    pub fn take_rpc_counts(&self) -> Option<RpcCounts> {
        match self {
            PartitionHandle::Local(_) => None,
            PartitionHandle::Remote(r) => Some(r.counts.take()),
        }
    }

    pub fn take_outbox(&mut self) -> Vec<(u32, ClusterMsg)> {
        match self {
            PartitionHandle::Local(s) => s.take_outbox(),
            PartitionHandle::Remote(r) => std::mem::take(&mut *r.outbox.borrow_mut()),
        }
    }

    pub fn current_epoch(&self) -> u64 {
        match self {
            PartitionHandle::Local(s) => s.current_epoch(),
            // Exact whenever no call is outstanding: every epoch movement
            // flows through a reply this view already folded in.
            PartitionHandle::Remote(r) => r.epoch.load(Ordering::Relaxed),
        }
    }

    /// Borrowed result set — in-process handles only (the lockstep
    /// deployments every existing caller runs). `None` for remote
    /// handles; those callers ask for [`PartitionOp::QueryResult`].
    pub fn query_result_ref(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        match self {
            PartitionHandle::Local(s) => s.query_result(qid),
            PartitionHandle::Remote(_) => None,
        }
    }

    /// The partition's structural self-check; for a remote handle also the
    /// audit of the `homes` mirror against the key sets the partition
    /// reports. Panics on a violation (a test and smoke-run facility).
    pub fn check_invariants(&self) {
        self.ask::<()>(&PartitionOp::CheckInvariants);
        let PartitionHandle::Remote(r) = self else {
            return;
        };
        let focals: Vec<ObjectId> = self.ask(&PartitionOp::FocalIds);
        let queries: Vec<QueryId> = self.ask(&PartitionOp::QueryIds);
        if r.dead() {
            return;
        }
        let mut mirrored: Vec<ObjectId> = r.focals.borrow().iter().copied().collect();
        mirrored.sort_unstable();
        assert_eq!(
            mirrored, focals,
            "partition {}: focal mirror diverged from the FOT",
            r.partition
        );
        let mut mirrored: Vec<QueryId> = r.queries.borrow().iter().copied().collect();
        mirrored.sort_unstable();
        assert_eq!(
            mirrored, queries,
            "partition {}: query mirror diverged from the SQT",
            r.partition
        );
    }

    // --- durable store surface --------------------------------------------

    /// Cuts a checkpoint into a remote partition's durable log, returning
    /// the log's next sequence number. `None` for local handles (the
    /// coordinator owns their stores directly), storeless deployments
    /// (the op replies 0) and dead peers.
    pub fn checkpoint_remote(&self) -> Option<u64> {
        match self {
            PartitionHandle::Local(_) => None,
            PartitionHandle::Remote(r) => {
                Some(r.ask::<u64>(&PartitionOp::Checkpoint)).filter(|&seq| seq > 0)
            }
        }
    }

    /// Historical trajectory samples of `oid` in `[t0, t1]` from a remote
    /// partition's durable log; empty for local handles, storeless
    /// deployments and dead peers.
    pub fn trajectory_remote(&self, oid: ObjectId, t0: f64, t1: f64) -> Vec<LinearMotion> {
        match self {
            PartitionHandle::Local(_) => Vec::new(),
            PartitionHandle::Remote(r) => r.ask(&PartitionOp::Trajectory { oid, t0, t1 }),
        }
    }

    // --- crash detection --------------------------------------------------

    /// The failure that killed this handle, if any. Local handles never
    /// die this way (in-process crashes are injected through the
    /// coordinator instead).
    pub fn crashed(&self) -> Option<TransportError> {
        match self {
            PartitionHandle::Local(_) => None,
            PartitionHandle::Remote(r) => r.crashed(),
        }
    }

    /// Installs (or clears) the per-RPC read deadline on a remote handle,
    /// so a hung partition process surfaces as a
    /// [`TransportError::Timeout`] instead of blocking the coordinator
    /// forever. No-op for local handles.
    pub fn set_rpc_deadline(&self, dur: Option<std::time::Duration>) {
        if let PartitionHandle::Remote(r) = self {
            r.set_rpc_deadline(dur);
        }
    }

    /// Swaps in a fresh in-process server, dropping the old one's entire
    /// state — the coordinator's crash-injection primitive (the lockstep
    /// analogue of `kill -9` on a partition process). What the old server
    /// counted is published first: it happened.
    pub fn replace_local(&mut self, fresh: Server) {
        match self {
            PartitionHandle::Local(s) => {
                s.publish();
                **s = fresh;
            }
            PartitionHandle::Remote(_) => {
                panic!("crash injection replaces in-process servers only")
            }
        }
    }

    /// Actively verifies the peer is alive with a trivial round trip
    /// (`CurrentEpoch`). A crashed or hung peer fails the call, which
    /// kills the handle; the verdict is then readable via
    /// [`Self::crashed`]. Local handles are trivially alive.
    pub fn probe_alive(&self) -> bool {
        match self {
            PartitionHandle::Local(_) => true,
            PartitionHandle::Remote(r) => {
                r.ask::<u64>(&PartitionOp::CurrentEpoch);
                !r.dead()
            }
        }
    }
}

/// The coordinator's posted lane: the issue order of every op whose
/// downlinks have not reached the agent network yet, across all handles.
///
/// A slot is a posted op whose reply no read has reached, or the
/// downlinks of a reply already read that wait behind such a slot. After
/// every read the complete prefix is replayed onto the network, so its
/// queue entries come out in issue order — the order an in-process
/// deployment, which applies every op inline, pushes them in. An
/// in-process handle writes the network as it applies, so the lane is
/// drained before one is posted to or called.
#[derive(Default)]
pub(crate) struct Lane {
    slots: VecDeque<Slot>,
}

enum Slot {
    /// A posted op at this partition, its reply not yet parked there.
    Posted(usize),
    /// The downlinks of a call's reply, read already.
    Read(Vec<NetAction>),
}

impl Lane {
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Posts closed `rec` at partition `p` and drains the lane once the
    /// window is full. A post that ran inline or hit a dead peer (nothing
    /// queued) takes no slot.
    pub(crate) fn post(
        &mut self,
        hs: &mut [PartitionHandle],
        p: usize,
        rec: &LogRecord,
        net: &mut Net,
    ) {
        if !hs[p].is_remote() {
            self.drain(hs, net);
        }
        if hs[p].post(rec, net) == 0 {
            return;
        }
        self.slots.push_back(Slot::Posted(p));
        let (mut ops, mut bytes) = (0, 0);
        for h in hs.iter() {
            if let PartitionHandle::Remote(r) = h {
                ops += r.uncollected.get() as usize;
                bytes += r.uncollected_bytes.get();
            }
        }
        if ops >= POST_WINDOW_OPS || bytes >= POST_WINDOW_BYTES {
            self.drain(hs, net);
        }
    }

    /// Calls `rec` at partition `p`: only `p`'s connection is read, and
    /// the call's downlinks queue behind every earlier op's.
    pub(crate) fn call<T: FromPayload + Default>(
        &mut self,
        hs: &mut [PartitionHandle],
        p: usize,
        rec: &LogRecord,
        net: &mut Net,
    ) -> T {
        let PartitionHandle::Remote(r) = &hs[p] else {
            self.drain(hs, net);
            return hs[p].call(rec, net);
        };
        debug_assert!(!wire::is_closed(rec), "closed records are posted");
        let (actions, value) = r.call(&|floor, out| wire::encode_apply(floor, rec, out));
        if !actions.is_empty() {
            self.slots.push_back(Slot::Read(actions));
        }
        self.replay(hs, net);
        value
    }

    /// Reads `op` at partition `p`, reading only `p`'s connection.
    pub(crate) fn ask<T: FromPayload + Default>(
        &mut self,
        hs: &[PartitionHandle],
        p: usize,
        op: &PartitionOp,
        net: &mut Net,
    ) -> T {
        let value = hs[p].ask(op);
        self.replay(hs, net);
        value
    }

    /// Replays the complete prefix: slots whose downlinks are in hand, and
    /// posted ops whose peer died before answering (their reply never
    /// comes).
    pub(crate) fn replay(&mut self, hs: &[PartitionHandle], net: &mut Net) {
        while let Some(slot) = self.slots.front_mut() {
            let actions = match slot {
                Slot::Read(actions) => std::mem::take(actions),
                Slot::Posted(p) => {
                    let PartitionHandle::Remote(r) = &hs[*p] else {
                        unreachable!("a post to an in-process partition runs inline")
                    };
                    match r.parked.borrow_mut().pop_front() {
                        Some(actions) => actions,
                        None if r.dead() => Vec::new(),
                        None => break,
                    }
                }
            };
            self.slots.pop_front();
            replay_net(actions, net);
        }
    }

    /// Collects every posted reply and replays the whole lane: every
    /// handle is flushed first, so the partitions work concurrently.
    pub(crate) fn drain(&mut self, hs: &[PartitionHandle], net: &mut Net) {
        if self.slots.is_empty() {
            return;
        }
        let remotes = || {
            hs.iter().filter_map(|h| match h {
                PartitionHandle::Remote(r) => Some(r),
                PartitionHandle::Local(_) => None,
            })
        };
        remotes().for_each(|r| r.flush());
        remotes().for_each(|r| r.collect_posted());
        self.replay(hs, net);
        debug_assert!(self.slots.is_empty(), "a drained lane kept a slot");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mobieyes_core::{CellDigests, Downlink};
    use mobieyes_geo::{CellId, Rect};
    use mobieyes_net::{BaseStationLayout, Endpoint, Listener};

    /// A connected loopback TCP pair: `(coordinator end, service end)`.
    pub(crate) fn loopback_pair() -> (FramedConn, FramedConn) {
        pair_on(&Endpoint::Tcp("127.0.0.1:0".into()))
    }

    fn pair_on(endpoint: &Endpoint) -> (FramedConn, FramedConn) {
        let listener = Listener::bind(endpoint).expect("bind");
        let client = listener.local_endpoint().expect("endpoint").connect();
        let served = FramedConn::new(listener.accept().expect("accept"));
        (FramedConn::new(client.expect("connect")), served)
    }

    /// Reads one request and answers it with `payload` and `homes`.
    pub(crate) fn answer(conn: &mut FramedConn, payload: ReplyPayload, homes: Vec<HomeChange>) {
        let request = conn.read_frame().expect("request");
        wire::decode_request(&request).expect("well-formed request");
        reply(conn, Vec::new(), payload, homes).expect("reply");
    }

    /// Writes and flushes one reply, as the partition service does once
    /// its read buffer runs dry.
    fn reply(
        conn: &mut FramedConn,
        net: Vec<NetAction>,
        payload: ReplyPayload,
        homes: Vec<HomeChange>,
    ) -> Result<(), TransportError> {
        let mut frame = Vec::new();
        let reply = PartitionReply {
            epoch: 1,
            outbox: Vec::new(),
            net,
            payload,
            homes,
        };
        wire::encode_reply(&reply, &mut frame);
        conn.write_frame(&frame)?;
        conn.flush()
    }
    use std::time::{Duration, Instant};

    /// A handle connected to a scripted peer: `peer` gets the service end
    /// of the connection and plays the partition process.
    fn with_peer(
        peer: impl FnOnce(FramedConn) + Send + 'static,
    ) -> (PartitionHandle, std::thread::JoinHandle<()>) {
        with_peer_on(loopback_pair(), peer)
    }

    fn with_peer_on(
        (client, server): (FramedConn, FramedConn),
        peer: impl FnOnce(FramedConn) + Send + 'static,
    ) -> (PartitionHandle, std::thread::JoinHandle<()>) {
        let thread = std::thread::spawn(move || peer(server));
        let remote = RemotePartition::new(3, client, Arc::new(AtomicU64::new(0)));
        (PartitionHandle::Remote(Box::new(remote)), thread)
    }

    fn test_net() -> Net {
        Net::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        ))
    }

    fn result_change(oid: u32) -> LogRecord {
        LogRecord::ResultChange {
            qid: QueryId(1),
            oid: ObjectId(oid),
            is_target: true,
        }
    }

    /// A unicast to `node` that carries the number `n`, padded with
    /// `digests` cell digests of 16 bytes each.
    fn numbered(node: u32, n: u64, digests: usize) -> NetAction {
        let msg = Downlink::Heartbeat {
            epoch: n,
            cell_digests: CellDigests::new(vec![(CellId::new(1, 2), n); digests]),
        };
        NetAction::Unicast { node, msg }
    }

    /// `(node, number)` of every downlink on `net`, in queue order.
    fn numbers(net: &mut Net) -> Vec<(u32, u64)> {
        let (unicasts, broadcasts) = net.take_downlinks();
        assert!(broadcasts.is_empty());
        let number = |(node, msg, _): &(NodeId, Arc<Downlink>, _)| match **msg {
            Downlink::Heartbeat { epoch, .. } => (node.0, epoch),
            ref other => panic!("unexpected unicast {other:?}"),
        };
        unicasts.iter().map(number).collect()
    }

    /// A partition that answers every request with the next number sent
    /// to `node`, flushing each reply — so it blocks writing once nobody
    /// reads — until the coordinator hangs up.
    fn serve_numbered(mut conn: FramedConn, node: u32, digests: usize) {
        for n in 0.. {
            let Ok(request) = conn.read_frame() else {
                return;
            };
            wire::decode_request(&request).expect("well-formed request");
            let net = vec![numbered(node, n, digests)];
            if reply(&mut conn, net, ReplyPayload::Unit, Vec::new()).is_err() {
                return;
            }
        }
    }

    /// Posts `n` result changes at the only partition and drains the lane.
    fn post_and_drain(hs: &mut [PartitionHandle], n: u32, net: &mut Net) {
        let mut lane = Lane::default();
        for i in 0..n {
            lane.post(hs, 0, &result_change(i), net);
        }
        lane.drain(hs, net);
    }

    #[test]
    fn mirror_follows_homes_and_a_dead_handle_homes_nothing() {
        let (mut handle, peer) = with_peer(|mut conn| {
            let seeded = vec![
                HomeChange::FocalAdded(ObjectId(7)),
                HomeChange::QueryAdded(QueryId(2)),
                HomeChange::QueryAdded(QueryId(5)),
            ];
            answer(&mut conn, ReplyPayload::Unit, seeded);
            let removed = vec![HomeChange::QueryRemoved(QueryId(2))];
            answer(&mut conn, ReplyPayload::Bool(true), removed);
            // The wrong shape for `FocalMotion`: a protocol violation.
            answer(&mut conn, ReplyPayload::Unit, Vec::new());
        });
        let mut net = test_net();
        // Any first reply seeds the mirror; `Init`'s does in a deployment.
        handle.call::<()>(&LogRecord::SetTime(0.0), &mut net);
        assert!(handle.has_focal(ObjectId(7)) && !handle.has_focal(ObjectId(8)));
        assert_eq!(handle.num_queries(), 2);
        assert!(handle.call::<bool>(&LogRecord::RemoveQuery(QueryId(2)), &mut net));
        assert!(!handle.has_query(QueryId(2)) && handle.has_query(QueryId(5)));
        let motion: Option<LinearMotion> = handle.ask(&PartitionOp::FocalMotion(ObjectId(7)));
        assert_eq!(motion, None);
        assert!(
            matches!(handle.crashed(), Some(TransportError::Protocol(_))),
            "a mis-shaped reply kills the handle: {:?}",
            handle.crashed()
        );
        assert!(!handle.has_focal(ObjectId(7)) && handle.num_queries() == 0);
        let counts = handle.take_rpc_counts().expect("remote");
        assert_eq!((counts.round_trips, counts.posted), (3, 0));
        assert_eq!(counts.mirror_hits, 5);
        peer.join().expect("peer");
    }

    #[test]
    fn undecodable_reply_is_a_protocol_death_not_a_panic() {
        let (handle, peer) = with_peer(|mut conn| {
            conn.read_frame().expect("request");
            // A well-formed reply whose `homes` count promises more
            // entries than the frame holds.
            let mut frame = Vec::new();
            let reply = PartitionReply {
                epoch: 1,
                outbox: Vec::new(),
                net: Vec::new(),
                payload: ReplyPayload::Oids(Vec::new()),
                homes: Vec::new(),
            };
            wire::encode_reply(&reply, &mut frame);
            *frame.last_mut().expect("homes count") = 9;
            conn.write_frame(&frame).expect("write");
            conn.flush().expect("flush");
        });
        assert!(handle
            .ask::<Vec<ObjectId>>(&PartitionOp::FocalIds)
            .is_empty());
        assert!(matches!(
            handle.crashed(),
            Some(TransportError::Protocol(_))
        ));
        // Inert from here on: nothing is sent, fallbacks come back.
        assert!(handle
            .ask::<Vec<QueryId>>(&PartitionOp::QueryIds)
            .is_empty());
        assert!(!handle.probe_alive());
        peer.join().expect("peer");
    }

    #[test]
    fn peer_death_with_posted_ops_in_flight_is_classified_once() {
        let (handle, peer) = with_peer(|mut conn| {
            // Answer the first two posted ops, then die with the rest
            // unread or unanswered.
            answer(&mut conn, ReplyPayload::Bool(true), Vec::new());
            answer(&mut conn, ReplyPayload::Bool(true), Vec::new());
        });
        let mut hs = vec![handle];
        let mut net = test_net();
        post_and_drain(&mut hs, 40, &mut net);
        peer.join().expect("peer");
        let death = hs[0].crashed().expect("the drain noticed the death");
        assert!(death.is_peer_death(), "classified as a crash: {death}");
        assert_eq!(
            hs[0].post(&result_change(0), &mut net),
            0,
            "a dead handle posts nothing"
        );
        post_and_drain(&mut hs, 1, &mut net);
        assert_eq!(hs[0].crashed(), Some(death), "first failure wins");
    }

    /// A call behind `posts` uncollected posts, at a peer that reads every
    /// request before it answers `answered` of them and hangs up — so a
    /// call that waited for the posted replies before sending would
    /// deadlock. Returns the call's answer, the replayed downlinks, the
    /// handle's death and its counts.
    fn call_behind_posts(
        posts: u64,
        answered: u64,
    ) -> (bool, Vec<(u32, u64)>, Option<TransportError>, RpcCounts) {
        let (handle, peer) = with_peer(move |mut conn| {
            for _ in 0..=posts {
                conn.read_frame().expect("request");
            }
            for n in 0..answered {
                let payload = if n == posts {
                    ReplyPayload::Bool(true)
                } else {
                    ReplyPayload::Unit
                };
                reply(&mut conn, vec![numbered(9, n, 1)], payload, Vec::new()).expect("reply");
            }
        });
        handle.set_rpc_deadline(Some(Duration::from_secs(5)));
        let mut hs = vec![handle];
        let (mut lane, mut net) = (Lane::default(), test_net());
        for i in 0..posts {
            lane.post(&mut hs, 0, &result_change(i as u32), &mut net);
        }
        let removed = lane.call::<bool>(&mut hs, 0, &LogRecord::RemoveQuery(QueryId(2)), &mut net);
        assert!(lane.is_empty(), "the call's read completes the lane");
        peer.join().expect("peer");
        let counts = hs[0].take_rpc_counts().expect("remote");
        (removed, numbers(&mut net), hs[0].crashed(), counts)
    }

    /// Per connection, collect before you read: the call leaves in the
    /// same write as the posts ahead of it (one flush), the posted
    /// replies are read first and their downlinks replayed first, in
    /// order, and the call returns its own payload. A peer that dies
    /// partway through the posted replies is classified once and costs
    /// the call its neutral fallback, without a wait.
    #[test]
    fn a_call_behind_uncollected_posts_reads_its_own_reply() {
        const POSTS: u64 = 5;
        let (removed, order, death, counts) = call_behind_posts(POSTS, POSTS + 1);
        assert!(removed, "the call read its own reply");
        assert_eq!(order, (0..=POSTS).map(|n| (9, n)).collect::<Vec<_>>());
        assert_eq!(death, None);
        assert_eq!(
            (counts.round_trips, counts.posted, counts.flushes),
            (1, POSTS, 1)
        );

        let start = Instant::now();
        let (removed, order, death, _) = call_behind_posts(POSTS, 3);
        assert!(!removed, "a dead peer's call yields its fallback");
        assert_eq!(order, vec![(9, 0), (9, 1), (9, 2)], "answered posts replay");
        let death = death.expect("the death is noticed");
        assert!(death.is_peer_death(), "classified as a crash: {death}");
        assert!(start.elapsed() < Duration::from_secs(3), "nothing waited");
    }

    /// Lazy collection stays live, and the window is what keeps it so.
    /// Partition 1 holds a full window of posted replies of 4 KiB each —
    /// more than a socket buffer — while the coordinator makes a hundred
    /// calls at partition 0, which read only partition 0; then posts to
    /// partition 1 keep coming, many windows' worth, between more calls,
    /// and each full window drains. A lane without the window would flush
    /// all those requests at once into a partition blocked writing replies
    /// nobody reads: both sides would block, until the write deadline
    /// killed the handle. The downlinks replay in issue order.
    #[test]
    fn a_full_window_of_large_replies_drains_in_issue_order() {
        const DIGESTS: usize = 4096 / 16 + 1;
        const CALLS: u64 = 100;
        const WINDOWS: usize = 24;
        let motion = LinearMotion::new(
            mobieyes_geo::Point::new(1.0, 2.0),
            mobieyes_geo::Vec2::new(0.0, 0.0),
            0.0,
        );
        let fresh = |oid: u64| LogRecord::CellChangeFresh {
            oid: ObjectId(oid as u32),
            prev_cell: CellId::new(0, 2),
            new_cell: CellId::new(1, 2),
            motion,
        };
        let uds = |p: u32| {
            let name = format!("mobieyes-handle-window-{}-{p}.sock", std::process::id());
            Endpoint::Uds(std::env::temp_dir().join(name))
        };
        let tcp = |_: u32| Endpoint::Tcp("127.0.0.1:0".into());
        for endpoint in [&tcp as &dyn Fn(u32) -> Endpoint, &uds] {
            let (h0, peer0) = with_peer_on(pair_on(&endpoint(0)), |c| serve_numbered(c, 8, 1));
            let (h1, peer1) =
                with_peer_on(pair_on(&endpoint(1)), |c| serve_numbered(c, 9, DIGESTS));
            let family = endpoint(1);
            let mut hs = vec![h0, h1];
            for h in &hs {
                h.set_rpc_deadline(Some(Duration::from_secs(5)));
            }
            let (mut lane, mut net) = (Lane::default(), test_net());
            let mut expected = Vec::new();
            let (mut posted, mut called) = (0, 0);
            let mut call_at_0 = |lane: &mut Lane, hs: &mut [PartitionHandle], net: &mut Net| {
                lane.call::<()>(hs, 0, &LogRecord::SetTime(called as f64), net);
                called += 1;
                (8, called - 1)
            };
            // A window less the post that would drain it, flushed: the
            // partition answers what its socket takes and blocks.
            for _ in 1..POST_WINDOW_OPS {
                lane.post(&mut hs, 1, &fresh(posted), &mut net);
                expected.push((9, posted));
                posted += 1;
            }
            let PartitionHandle::Remote(r1) = &hs[1] else {
                unreachable!()
            };
            assert!(
                r1.uncollected_bytes.get() < POST_WINDOW_BYTES,
                "the op bound binds first: a window of fresh cell changes is {} request bytes",
                r1.uncollected_bytes.get()
            );
            r1.flush();
            for _ in 0..CALLS {
                expected.push(call_at_0(&mut lane, &mut hs, &mut net));
            }
            assert!(!lane.is_empty(), "partition 1's replies wait uncollected");
            for i in 0..WINDOWS * POST_WINDOW_OPS {
                lane.post(&mut hs, 1, &fresh(posted), &mut net);
                expected.push((9, posted));
                posted += 1;
                if i % 64 == 0 {
                    expected.push(call_at_0(&mut lane, &mut hs, &mut net));
                }
            }
            lane.drain(&hs, &mut net);
            for h in &hs {
                assert_eq!(h.crashed(), None, "{family}");
            }
            assert!(numbers(&mut net) == expected, "{family}: replay order");
            let counts: Vec<_> = hs.iter().map(|h| h.take_rpc_counts()).collect();
            let counts: Vec<_> = counts.into_iter().flatten().collect();
            assert_eq!(counts[0].round_trips, called, "{family}");
            assert_eq!((counts[1].round_trips, counts[1].posted), (0, posted));
            drop(hs);
            peer0.join().expect("peer 0");
            peer1.join().expect("peer 1");
        }
    }

    #[test]
    fn hung_peer_costs_a_posted_drain_one_deadline() {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (handle, peer) = with_peer(move |mut conn| {
            answer(&mut conn, ReplyPayload::Bool(true), Vec::new());
            // Hang: keep the socket open, read nothing, answer nothing.
            let _ = release_rx.recv();
        });
        let mut net = test_net();
        handle.set_rpc_deadline(Some(Duration::from_millis(100)));
        let mut hs = vec![handle];
        let start = Instant::now();
        post_and_drain(&mut hs, 60, &mut net);
        assert_eq!(hs[0].crashed(), Some(TransportError::Timeout));
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "59 missing replies must not cost 59 deadlines ({:?})",
            start.elapsed()
        );
        release_tx.send(()).expect("release the peer");
        peer.join().expect("peer");
    }
}
