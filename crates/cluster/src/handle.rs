//! The coordinator's handle on one partition, in process or remote.
//!
//! Every partition is a `ServiceState` behind `serve::run_op`. An
//! in-process handle holds the state and runs each record through
//! `run_op` against the coordinator's own network; a remote handle
//! speaks the [`wire`] RPC protocol to a partition service running the
//! same `run_op` behind a framed socket. Both fold every op's effects into
//! one coordinator-side `View`: the epoch, the outbox and the homes mirror.
//!
//! The handle names no op. A mutation is a [`LogRecord`], run in process
//! or sent as [`PartitionOp::Apply`]; a read is a [`PartitionOp`],
//! answered in process by `ServiceState::answer` — the dispatch the
//! service answers it with — or sent. [`FromPayload`] types the answer.
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
//!   builds assert both). In process, a probe is [`Probe::Ready`] at
//!   once and a post runs inline.
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
//! Every op carries the coordinator's epoch view as a floor and every
//! reply folds its epoch back, so the partitions share one epoch counter.
//! Bus envelopes wait in the view until [`PartitionHandle::take_outbox`];
//! the `homes` delta updates the mirror of the partition's FOT and SQT key
//! sets, exact whenever no call is outstanding (DESIGN.md §11).
//!
//! Any failure kills a handle: peer death ([`TransportError::is_peer_death`]
//! — closed socket, stream I/O error, an elapsed read deadline) is
//! recorded as is; an undecodable or mis-shaped reply, or a refused
//! record, as a [`TransportError::Protocol`] violation; an in-process
//! partition also dies by `PartitionHandle::kill`. A dead handle is
//! inert — every op returns a neutral fallback (empty, `None`, `false`)
//! and the mirror reads empty — until the coordinator notices it via
//! [`PartitionHandle::crashed`] at the next tick boundary. It is never
//! reused: recovery builds a fresh handle (respawn) or abandons the slot
//! (failover).

use crate::serve::{self, ServiceState};
use crate::wire::{self, InitConfig, NetAction, PartitionOp, PartitionReply, ReplyPayload};
use mobieyes_core::server::{FromPayload, Net};
use mobieyes_core::{ClusterMsg, HomeChange, LogRecord, ObjectId, QueryId, Server};
use mobieyes_net::{FramedConn, NodeId, StationId, TransportError};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// Hashes an id with one multiply. The mirror is probed at every
/// partition for most uplinks; ids are the coordinator's own, so SipHash's
/// flooding resistance buys nothing there.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("an id hashes as one u32")
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// What the coordinator knows of one partition, folded from its replies —
/// the same for both links.
#[derive(Default)]
struct View {
    /// This partition's index (labels failure reports).
    partition: u32,
    /// Coordinator-side view of the shared epoch, raised by every reply;
    /// one `Arc` across all handles of a deployment.
    epoch: Arc<AtomicU64>,
    /// Bus envelopes returned by replies, buffered until the coordinator
    /// pumps the bus.
    outbox: RefCell<Vec<(u32, ClusterMsg)>>,
    /// Mirror of the partition's FOT key set, folded from `homes`.
    focals: RefCell<IdSet<ObjectId>>,
    /// Mirror of the partition's SQT key set, folded from `homes`.
    queries: RefCell<IdSet<QueryId>>,
    /// The failure that killed the handle; it is inert once set (see
    /// module docs).
    death: RefCell<Option<TransportError>>,
    counts: Cell<RpcCounts>,
}

impl View {
    fn dead(&self) -> bool {
        self.death.borrow().is_some()
    }

    /// Kills the handle (first failure wins). Peer death is recorded as
    /// is; anything else — an undecodable or mis-shaped reply, a refused
    /// record — becomes a protocol violation naming the partition. The
    /// mirror is cleared so a dead handle homes nothing.
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

    /// A reply's fold: its [effects](Self::fold_effects), and the rest
    /// handed back.
    #[inline(always)]
    fn fold(&self, reply: PartitionReply) -> (Vec<NetAction>, ReplyPayload) {
        let PartitionReply {
            epoch,
            outbox,
            net,
            payload,
            homes,
        } = reply;
        self.fold_effects((epoch, outbox, homes));
        (net, payload)
    }

    /// The one effects fold, for both links: raises the shared epoch view
    /// to the partition's, buffers its outbox envelopes and folds its
    /// `homes` into the mirror.
    #[inline(always)]
    fn fold_effects(&self, (epoch, outbox, homes): serve::Effects) {
        mobieyes_core::server::raise(&self.epoch, epoch);
        if !outbox.is_empty() {
            self.outbox.borrow_mut().extend(outbox);
        }
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
    }

    /// `payload` as the op's answer type; a reply of the wrong shape
    /// kills the handle and yields `T`'s default, the op's neutral
    /// fallback.
    #[inline(always)]
    fn typed<T: FromPayload + Default>(&self, payload: ReplyPayload) -> T {
        T::from_payload(payload).unwrap_or_else(|other| {
            self.kill(TransportError::Protocol(format!(
                "reply {other:?} where {} was expected",
                std::any::type_name::<T>()
            )));
            T::default()
        })
    }

    /// Runs `rec` at an in-process partition against `net` and folds its
    /// effects — none after a closed record, which `run_op` checked; `None`
    /// when the partition is dead, or dies of the record — its state is
    /// then stopped and dropped, as a service whose session ended is gone.
    #[inline(always)]
    fn serve(
        &self,
        state: &mut Option<Box<ServiceState>>,
        rec: &LogRecord,
        closed: bool,
        net: &mut Net,
    ) -> Option<ReplyPayload> {
        let s = state.as_deref_mut().filter(|_| !self.dead())?;
        let floor = self.epoch.load(Ordering::Relaxed);
        match serve::run_op(s, net, floor, rec, closed) {
            Ok(payload) => {
                if !closed {
                    self.fold_effects(s.effects());
                }
                Some(payload)
            }
            Err(e) => {
                self.kill(e);
                if let Some(s) = state.take() {
                    s.stop();
                }
                None
            }
        }
    }
}

/// Writes one request frame, given the coordinator's epoch floor.
type Encode<'a> = &'a dyn Fn(u64, &mut Vec<u8>);

/// The coordinator's end of a connection to a partition service.
struct Wire {
    conn: RefCell<FramedConn>,
    /// Reusable request/reply frame scratch — steady-state RPC traffic
    /// allocates no per-call buffers.
    frame: RefCell<Vec<u8>>,
    /// Posted ops whose reply is still owed; their replies come before
    /// any other on the connection.
    uncollected: Cell<u32>,
    /// Request bytes of the uncollected posts.
    uncollected_bytes: Cell<usize>,
    /// Downlinks of posted replies already read, oldest first, until the
    /// [`Lane`] replays them.
    parked: RefCell<VecDeque<Vec<NetAction>>>,
}

impl Wire {
    /// Queues one request frame behind whatever is already unflushed and
    /// returns its size; 0 means the handle is dead and nothing was
    /// written. Every queued request must be paired with exactly one
    /// [`Self::recv`], in order.
    fn send(&self, view: &View, encode: Encode<'_>) -> usize {
        if view.dead() {
            return 0;
        }
        let floor = view.epoch.load(Ordering::Relaxed);
        let mut frame = self.frame.borrow_mut();
        frame.clear();
        encode(floor, &mut frame);
        match self.conn.borrow_mut().write_frame(&frame) {
            Ok(()) => 4 + frame.len(),
            Err(e) => {
                view.kill(e);
                0
            }
        }
    }

    /// Pushes queued requests onto the wire, if there are any.
    fn flush(&self, view: &View) {
        let mut conn = self.conn.borrow_mut();
        if view.dead() || !conn.has_unflushed() {
            return;
        }
        view.count(|c| c.flushes += 1);
        if let Err(e) = conn.flush() {
            view.kill(e);
        }
    }

    /// Collects and folds the oldest outstanding reply. `None` means the
    /// handle is dead (already, or this wait killed it) and the reply will
    /// never come.
    fn recv(&self, view: &View) -> Option<(Vec<NetAction>, ReplyPayload)> {
        self.flush(view);
        if view.dead() {
            return None;
        }
        let mut frame = self.frame.borrow_mut();
        let reply = self
            .conn
            .borrow_mut()
            .read_frame_into(&mut frame)
            .and_then(|()| wire::decode_reply(&frame));
        match reply {
            Ok(reply) => Some(view.fold(reply)),
            Err(e) => {
                view.kill(e);
                None
            }
        }
    }

    /// Reads the reply of every posted op still owed — they come first on
    /// the connection — and parks their downlinks for the [`Lane`]. A dead
    /// peer's replies are skipped, not waited for.
    fn collect_posted(&self, view: &View) {
        self.uncollected_bytes.set(0);
        for _ in 0..self.uncollected.take() {
            let Some((actions, _)) = self.recv(view) else {
                return;
            };
            self.parked.borrow_mut().push_back(actions);
        }
    }

    /// Collects the reply of the oldest call or probe, after the posted
    /// replies ahead of it, and checks its shape. A dead peer, or a reply
    /// of the wrong shape (which kills the handle), yields `T`'s default —
    /// the op's neutral fallback — beside whatever downlinks came back.
    fn recv_as<T: FromPayload + Default>(&self, view: &View) -> (Vec<NetAction>, T) {
        self.collect_posted(view);
        match self.recv(view) {
            Some((actions, payload)) => (actions, view.typed(payload)),
            None => (Vec::new(), T::default()),
        }
    }

    /// One round trip, riding behind the uncollected posts in one write;
    /// the downlinks come back with the answer.
    fn call<T: FromPayload + Default>(
        &self,
        view: &View,
        encode: Encode<'_>,
    ) -> (Vec<NetAction>, T) {
        match self.start::<T>(view, encode) {
            Probe::Pending => self.recv_as(view),
            _ => (Vec::new(), T::default()),
        }
    }

    /// Request half of a probe, flushed at once (behind any uncollected
    /// posts) so the partition starts on it while the coordinator probes
    /// its siblings.
    fn start<T>(&self, view: &View, encode: Encode<'_>) -> Probe<T> {
        if self.send(view, encode) == 0 {
            return Probe::Dead;
        }
        view.count(|c| c.round_trips += 1);
        self.flush(view);
        Probe::Pending
    }

    /// Queues a closed record unflushed; its reply is owed from here on.
    fn post(&self, view: &View, rec: &LogRecord) -> usize {
        let bytes = self.send(view, &|floor, out| wire::encode_apply(floor, rec, out));
        if bytes > 0 {
            view.count(|c| c.posted += 1);
            self.uncollected.set(self.uncollected.get() + 1);
            self.uncollected_bytes
                .set(self.uncollected_bytes.get() + bytes);
        }
        bytes
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

/// A two-phase partition probe: the request half of a pipelined RPC.
///
/// An in-process partition answers at once ([`Probe::Ready`]); a remote
/// one has the request on the wire ([`Probe::Pending`]) and the partition
/// process computes while the coordinator issues probes to its siblings.
/// Every started probe MUST be finished (on the same handle, in start
/// order) before the handle is posted to again — an unconsumed reply
/// would desynchronize the connection.
/// A probe against a dead partition ([`Probe::Dead`]) reached nothing;
/// finishing it yields the op's neutral fallback.
#[must_use = "every started probe must be finished on its handle"]
pub enum Probe<T> {
    Ready(T),
    Pending,
    Dead,
}

/// Where a partition's state lives.
enum Link {
    /// In this process; `None` once the partition is gone.
    InProcess(Option<Box<ServiceState>>),
    /// Behind a socket, in a partition service.
    Remote(Box<Wire>),
}

/// A partition the coordinator can drive: one `ServiceState`, in
/// process or behind the wire, seen through one folded `View`.
pub struct PartitionHandle {
    view: View,
    link: Link,
}

impl PartitionHandle {
    /// An in-process partition. The build's reply — what a replayed log
    /// brought back — seeds the view, as `Init`'s reply seeds a remote
    /// handle's. `epoch` is the coordinator's shared epoch view.
    pub(crate) fn in_process(p: u32, mut state: ServiceState, epoch: Arc<AtomicU64>) -> Self {
        let view = View {
            partition: p,
            epoch,
            ..View::default()
        };
        view.fold_effects(state.effects());
        let link = Link::InProcess(Some(Box::new(state)));
        PartitionHandle { view, link }
    }

    /// Wraps a connected, hello-completed connection to a partition
    /// service; [`Self::init`] must be its first op.
    pub fn remote(partition: u32, conn: FramedConn, epoch: Arc<AtomicU64>) -> Self {
        let view = View {
            partition,
            epoch,
            ..View::default()
        };
        let link = Link::Remote(Box::new(Wire {
            conn: RefCell::new(conn),
            frame: RefCell::new(Vec::new()),
            uncollected: Cell::new(0),
            uncollected_bytes: Cell::new(0),
            parked: RefCell::new(VecDeque::new()),
        }));
        PartitionHandle { view, link }
    }

    /// Configures a remote partition; its reply seeds the mirror with
    /// whatever a replayed log brought back.
    pub fn init(&self, init: InitConfig) -> Result<(), TransportError> {
        self.ask::<()>(&PartitionOp::Init(init));
        self.crashed().map_or(Ok(()), Err)
    }

    fn wire(&self) -> Option<&Wire> {
        // Two links: only a remote one has a connection and posted replies.
        match &self.link {
            Link::Remote(w) => Some(w),
            Link::InProcess(_) => None,
        }
    }

    pub fn is_remote(&self) -> bool {
        self.wire().is_some()
    }

    // --- the three op shapes ------------------------------------------------

    /// Request half of a read probe: an in-process partition answers at
    /// once, a remote request is flushed at once.
    pub fn start<T: FromPayload + Default>(&self, op: &PartitionOp) -> Probe<T> {
        // Two links: the state is at hand, or the request goes on the wire.
        match &self.link {
            Link::InProcess(Some(s)) if !self.view.dead() => {
                let floor = self.view.epoch.load(Ordering::Relaxed);
                Probe::Ready(self.view.typed(s.answer(floor, op)))
            }
            Link::InProcess(_) => Probe::Dead,
            Link::Remote(w) => w.start(&self.view, &|floor, out| {
                wire::encode_request(floor, op, out)
            }),
        }
    }

    /// Request half of a mutation probe; an in-process partition applies
    /// the record against `net` at once.
    #[inline(always)]
    pub fn start_apply<T: FromPayload + Default>(
        &mut self,
        rec: &LogRecord,
        net: &mut Net,
    ) -> Probe<T> {
        debug_assert!(!wire::is_closed(rec), "closed records are posted");
        // Two links: the record runs here, or its request goes on the wire.
        match &mut self.link {
            Link::InProcess(state) => {
                let payload = self.view.serve(state, rec, false, net);
                Probe::Ready(payload.map_or_else(T::default, |p| self.view.typed(p)))
            }
            Link::Remote(w) => w.start(&self.view, &|floor, out| {
                wire::encode_apply(floor, rec, out)
            }),
        }
    }

    /// Reply half of a probe. A probe whose partition is dead — at start,
    /// or dying before the reply — yields `T`'s default, the op's neutral
    /// fallback.
    pub fn finish<T: FromPayload + Default>(&self, probe: Probe<T>) -> T {
        match probe {
            Probe::Ready(v) => v,
            Probe::Pending => {
                let w = self.wire().expect("only a remote probe is pending");
                let (actions, value) = w.recv_as(&self.view);
                debug_assert!(actions.is_empty(), "probed op emitted downlinks");
                value
            }
            Probe::Dead => T::default(),
        }
    }

    /// One read call: a probe finished at once.
    pub fn ask<T: FromPayload + Default>(&self, op: &PartitionOp) -> T {
        self.finish(self.start(op))
    }

    /// One mutation call whose downlinks land on `net` at once — a network
    /// no `Lane` feeds, or one whose lane is empty.
    pub fn call<T: FromPayload + Default>(&mut self, rec: &LogRecord, net: &mut Net) -> T {
        let (actions, value) = self.exchange(rec, net);
        replay_net(actions, net);
        value
    }

    /// One mutation call: the answer, and the downlinks a remote reply
    /// brought back (an in-process partition writes `net` as it runs).
    #[inline(always)]
    fn exchange<T: FromPayload + Default>(
        &mut self,
        rec: &LogRecord,
        net: &mut Net,
    ) -> (Vec<NetAction>, T) {
        // Two links: a probe finished at once, or one round trip.
        match &self.link {
            Link::InProcess(_) => {
                let probe = self.start_apply(rec, net);
                (Vec::new(), self.finish(probe))
            }
            Link::Remote(w) => {
                debug_assert!(!wire::is_closed(rec), "closed records are posted");
                let encode = |floor, out: &mut Vec<u8>| wire::encode_apply(floor, rec, out);
                w.call(&self.view, &encode)
            }
        }
    }

    /// Issues a closed record without waiting: an in-process partition
    /// runs it inline, a remote request is queued unflushed. Returns the
    /// bytes queued — when non-zero the reply is owed, and the handle
    /// collects it before its next call or probe.
    #[inline(always)]
    fn post(&mut self, rec: &LogRecord, net: &mut Net) -> usize {
        debug_assert!(wire::is_closed(rec), "only closed records may be posted");
        // Two links: the record runs here, or its request is queued.
        match &mut self.link {
            Link::InProcess(state) => {
                self.view.serve(state, rec, true, net);
                0
            }
            Link::Remote(w) => w.post(&self.view, rec),
        }
    }

    // --- the folded view --------------------------------------------------

    pub fn has_focal(&self, oid: ObjectId) -> bool {
        self.view.count(|c| c.mirror_hits += 1);
        self.view.focals.borrow().contains(&oid)
    }

    pub fn has_query(&self, qid: QueryId) -> bool {
        self.view.count(|c| c.mirror_hits += 1);
        self.view.queries.borrow().contains(&qid)
    }

    pub fn num_queries(&self) -> usize {
        self.view.queries.borrow().len()
    }

    pub fn take_outbox(&mut self) -> Vec<(u32, ClusterMsg)> {
        std::mem::take(&mut *self.view.outbox.borrow_mut())
    }

    /// Whether [`Self::take_outbox`] would hand back an envelope.
    pub fn has_outbox(&self) -> bool {
        !self.view.outbox.borrow().is_empty()
    }

    /// Exact whenever no call is outstanding: every epoch movement flows
    /// through a reply this view already folded in.
    pub fn current_epoch(&self) -> u64 {
        self.view.epoch.load(Ordering::Relaxed)
    }

    /// The failure that killed this handle, if any.
    pub fn crashed(&self) -> Option<TransportError> {
        self.view.death.borrow().clone()
    }

    /// Publishes an in-process partition's pending counters into its
    /// sink. A partition service keeps its own counters.
    pub fn publish(&mut self) {
        // Two links: a service's sink never reaches the coordinator.
        if let Link::InProcess(Some(s)) = &mut self.link {
            s.publish();
        }
    }

    /// Drains the RPC counts accumulated since the last call; `None` for
    /// an in-process partition, which has no RPC (its mirror hits saved
    /// no round trip).
    pub fn take_rpc_counts(&self) -> Option<RpcCounts> {
        // Two links: the counts describe the wire.
        self.is_remote().then(|| self.view.counts.take())
    }

    /// The partition's server — only an in-process partition can lend
    /// it. `None` for a remote or dead partition.
    pub fn local_server(&self) -> Option<&Server> {
        // Two links: a reference cannot cross the socket.
        match &self.link {
            Link::InProcess(Some(s)) if !self.view.dead() => Some(&s.server),
            _ => None,
        }
    }

    /// Borrowed result set. `None` for a remote or dead partition; those
    /// callers ask for [`PartitionOp::QueryResult`].
    pub fn query_result_ref(&self, qid: QueryId) -> Option<&BTreeSet<ObjectId>> {
        self.local_server()?.query_result(qid)
    }

    /// The partition's structural self-check, and the audit of the `homes`
    /// mirror against the key sets the partition reports. Panics on a
    /// violation (a test and smoke-run facility).
    pub fn check_invariants(&self) {
        self.ask::<()>(&PartitionOp::CheckInvariants);
        // A dead handle reads empty on both sides.
        let focals: Vec<ObjectId> = self.ask(&PartitionOp::FocalIds);
        let queries: Vec<QueryId> = self.ask(&PartitionOp::QueryIds);
        let (view, p) = (&self.view, self.view.partition);
        let fot = focals.into_iter().collect::<IdSet<_>>();
        assert_eq!(
            *view.focals.borrow(),
            fot,
            "partition {p}: focal mirror diverged"
        );
        let sqt = queries.into_iter().collect::<IdSet<_>>();
        assert_eq!(
            *view.queries.borrow(),
            sqt,
            "partition {p}: query mirror diverged"
        );
    }

    // --- liveness ---------------------------------------------------------

    /// Installs (or clears) the per-RPC deadline on a remote connection,
    /// for reads and writes alike, so a hung partition process surfaces as
    /// a [`TransportError::Timeout`] on the next reply wait (or flush, once
    /// it has stopped reading) instead of blocking the coordinator
    /// forever. An in-process partition cannot hang this way.
    pub fn set_rpc_deadline(&self, dur: Option<Duration>) {
        if let Some(w) = self.wire() {
            let conn = w.conn.borrow();
            let _ = conn.set_read_timeout(dur);
            let _ = conn.set_write_timeout(dur);
        }
    }

    /// Actively verifies the partition is alive with a trivial read
    /// (`CurrentEpoch`). A crashed or hung peer fails it, which kills the
    /// handle; the verdict is then readable via [`Self::crashed`].
    pub fn probe_alive(&self) -> bool {
        self.ask::<u64>(&PartitionOp::CurrentEpoch);
        !self.view.dead()
    }

    /// Kills the partition as SIGKILL kills a partition process: the
    /// handle is dead from here on and an in-process state is stopped —
    /// its journal flushed, its counters published — and dropped. A remote
    /// process is killed by its supervisor instead; its handle learns of
    /// it through the next op.
    pub(crate) fn kill(&mut self) {
        self.view.kill(TransportError::Closed);
        // Two links: only an in-process state is the coordinator's to drop.
        if let Link::InProcess(state) = &mut self.link {
            if let Some(s) = state.take() {
                s.stop();
            }
        }
    }

    /// Sends the shutdown op to a remote partition; the service replies
    /// and exits its loop. Nothing to do in process.
    pub fn shutdown(&self) -> Result<(), TransportError> {
        // Two links: only a service has a loop to end.
        if self.is_remote() {
            self.ask::<()>(&PartitionOp::Shutdown);
        }
        self.crashed().map_or(Ok(()), Err)
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
/// in-process partition writes the network as it applies, so the lane is
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
        for w in hs.iter().filter_map(PartitionHandle::wire) {
            ops += w.uncollected.get() as usize;
            bytes += w.uncollected_bytes.get();
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
        if !hs[p].is_remote() {
            self.drain(hs, net);
        }
        let (actions, value) = hs[p].exchange(rec, net);
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
                    let h = &hs[*p];
                    let w = h.wire().expect("a post in process runs inline");
                    match w.parked.borrow_mut().pop_front() {
                        Some(actions) => actions,
                        None if h.view.dead() => Vec::new(),
                        None => break,
                    }
                }
            };
            self.slots.pop_front();
            replay_net(actions, net);
        }
    }

    /// Collects every posted reply and replays the whole lane: every
    /// remote handle is flushed first, so the partitions work
    /// concurrently.
    pub(crate) fn drain(&mut self, hs: &[PartitionHandle], net: &mut Net) {
        if self.slots.is_empty() {
            return;
        }
        let remotes = || hs.iter().filter_map(|h| Some((h.wire()?, &h.view)));
        remotes().for_each(|(w, view)| w.flush(view));
        remotes().for_each(|(w, view)| w.collect_posted(view));
        self.replay(hs, net);
        debug_assert!(self.slots.is_empty(), "a drained lane kept a slot");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mobieyes_core::{CellDigests, Downlink};
    use mobieyes_geo::{CellId, LinearMotion, Rect};
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
        let remote = PartitionHandle::remote(3, client, Arc::new(AtomicU64::new(0)));
        (remote, thread)
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
            let r1 = hs[1].wire().expect("remote");
            assert!(
                r1.uncollected_bytes.get() < POST_WINDOW_BYTES,
                "the op bound binds first: a window of fresh cell changes is {} request bytes",
                r1.uncollected_bytes.get()
            );
            r1.flush(&hs[1].view);
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

    /// One reply fold for both links: the same records, run at an
    /// in-process partition and at a partition service behind a socket,
    /// leave the two handles agreeing after every op — on the answer, the
    /// outbox, the downlinks, the homes mirror and the epoch. The run
    /// homes a focal and installs its query, installs one whose region
    /// reaches into the other partition (a stub update on the bus), posts
    /// a result change, hands the border focal off and adopts it back
    /// (its home moves out and in), moves it a cell, and removes a query.
    #[test]
    fn both_links_fold_the_same_replies() {
        use mobieyes_core::Filter;
        use mobieyes_geo::{Point, QueryRegion, Vec2};
        let mut init = crate::serve::tests::init_config(std::path::Path::new("unused"));
        init.store_dir = None;
        init.num_partitions = 2;
        init.deliver_results = true;
        let sink = mobieyes_telemetry::Telemetry::new();
        let state = ServiceState::build(&init, sink).expect("storeless build");
        let local = PartitionHandle::in_process(0, state, Arc::new(AtomicU64::new(0)));
        let (client, served) = loopback_pair();
        let service = std::thread::spawn(move || serve::serve_connection(served));
        let remote = PartitionHandle::remote(0, client, Arc::new(AtomicU64::new(0)));
        remote.init(init).expect("init");
        // [in process, remote], each with its own agent network.
        let mut hs = vec![local, remote];
        let mut nets = [test_net(), test_net()];

        let motion = |x, y, tm| LinearMotion::new(Point::new(x, y), Vec2::new(0.01, 0.0), tm);
        let refresh = |oid, x, y| LogRecord::RefreshFocalMotion {
            oid: ObjectId(oid),
            motion: motion(x, y, 1.0),
            max_vel: 0.05,
            insert: true,
        };
        let install = |qid, focal| LogRecord::CompleteInstall {
            qid: QueryId(qid),
            focal: ObjectId(focal),
            region: QueryRegion::circle(8.0),
            filter: Arc::new(Filter::True),
            expires_at: None,
        };
        let records = [
            LogRecord::SetTime(1.0),
            refresh(7, 12.0, 12.0),
            install(0, 7),
            refresh(9, 50.0, 47.0),
            install(1, 9),
            LogRecord::ResultChange {
                qid: QueryId(0),
                oid: ObjectId(100),
                is_target: true,
            },
            LogRecord::ExtractFocal(ObjectId(9)),
        ];
        let downlinks = |net: &mut Net| {
            let (unicasts, broadcasts) = net.take_downlinks();
            let unicasts: Vec<_> = unicasts.into_iter().map(|(n, m, _)| (n, m)).collect();
            let broadcasts: Vec<_> = broadcasts.into_iter().map(|(s, m, _)| (s, m)).collect();
            (unicasts, broadcasts)
        };
        let mut envelopes = 0;
        let mut agree = |hs: &mut Vec<PartitionHandle>, rec: &LogRecord| {
            let answers: Vec<ReplyPayload> = if wire::is_closed(rec) {
                let mut lane = Lane::default();
                for (p, net) in nets.iter_mut().enumerate() {
                    lane.post(hs, p, rec, net);
                    lane.drain(hs, net);
                }
                vec![ReplyPayload::Unit; 2]
            } else {
                let calls = hs.iter_mut().zip(nets.iter_mut());
                calls.map(|(h, net)| h.call(rec, net)).collect()
            };
            assert_eq!(answers[0], answers[1], "{rec:?}: payload");
            let [l, r] = &mut hs[..] else { unreachable!() };
            let outbox = l.take_outbox();
            assert_eq!(outbox, r.take_outbox(), "{rec:?}: outbox");
            envelopes += outbox.len();
            let [ln, rn] = &mut nets;
            assert_eq!(downlinks(ln), downlinks(rn), "{rec:?}: downlinks");
            for id in [0, 1, 7, 9, 100] {
                let (oid, qid) = (ObjectId(id), QueryId(id));
                assert_eq!(l.has_focal(oid), r.has_focal(oid), "{rec:?}: {oid:?}");
                assert_eq!(l.has_query(qid), r.has_query(qid), "{rec:?}: {qid:?}");
            }
            assert_eq!(l.num_queries(), r.num_queries(), "{rec:?}");
            assert_eq!(l.current_epoch(), r.current_epoch(), "{rec:?}: epoch");
            assert_eq!((l.crashed(), r.crashed()), (None, None), "{rec:?}");
            answers.into_iter().next().expect("an answer")
        };
        let mut handoffs = 0;
        for rec in &records {
            let ReplyPayload::OptCluster(Some(handoff)) = agree(&mut hs, rec) else {
                continue;
            };
            // The handoff moved the home out; adopting the message moves
            // it back, and the focal's next cell change runs there.
            assert!(!hs[0].has_focal(ObjectId(9)) && !hs[0].has_query(QueryId(1)));
            agree(&mut hs, &LogRecord::Cluster(*handoff));
            assert!(hs[0].has_focal(ObjectId(9)) && hs[0].has_query(QueryId(1)));
            let step = LogRecord::CellChangeFocal {
                oid: ObjectId(9),
                new_cell: CellId::new(10, 8),
                motion: motion(52.0, 43.0, 2.0),
            };
            agree(&mut hs, &step);
            handoffs += 1;
        }
        assert_eq!(handoffs, 1, "the handoff cut a message");
        let removed = agree(&mut hs, &LogRecord::RemoveQuery(QueryId(0)));
        assert_eq!(removed, ReplyPayload::Bool(true));
        assert!(!hs[0].has_query(QueryId(0)) && hs[0].has_query(QueryId(1)));
        assert!(hs[0].current_epoch() > 0, "the installs moved the epoch");
        assert!(
            envelopes > 0,
            "the border query put stub updates on the bus"
        );
        for h in &hs {
            h.check_invariants();
        }
        hs[1].shutdown().expect("shutdown");
        service.join().expect("service thread").expect("clean exit");
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
