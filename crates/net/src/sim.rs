//! Tick-based network simulation with asymmetric links.
//!
//! Time advances in discrete ticks (the paper's 30-second time steps).
//! Within a tick, moving objects push uplink messages; the server drains
//! them, reacts, and pushes downlink messages (unicasts and per-station
//! broadcasts); each object then polls its deliveries. `end_tick` clears the
//! downlink queues.
//!
//! Delivery is *physical*: a broadcast from station `s` reaches an object
//! iff the object's position lies inside `s`'s coverage circle — objects
//! outside hear nothing, objects covered by two transmitting stations hear
//! the message twice (the protocol layer must be idempotent, which the
//! MobiEyes installation logic is).
//!
//! Traffic accounting reaches the shared telemetry sink before the send
//! call returns, one lock acquisition per call: a per-message send
//! records itself, a bulk [`NetworkSim::send_uplinks`] records the whole
//! buffer at once, and [`NetworkSim::deliver`] records the bytes the
//! object received. A snapshot of the sink is never behind the network.

use crate::fault::FaultPlan;
use crate::meter::{keys, Direction, MessageMeter};
use crate::station::{BaseStationLayout, StationId, StationsOver};
use mobieyes_geo::{Grid, GridRect, Point};
use mobieyes_telemetry::{EventKind, Telemetry};
use std::sync::Arc;

/// Identifier of a network endpoint (a moving object). The server is not a
/// `NodeId`; it sits behind the base stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Anything that knows its serialized size on the wire. Message accounting
/// (and thus the power model) is driven by these sizes.
pub trait WireSized {
    fn wire_size(&self) -> usize;
}

/// The simulated wireless network, generic over the uplink (`U`) and
/// downlink (`D`) payload types.
#[derive(Debug)]
pub struct NetworkSim<U, D> {
    layout: BaseStationLayout,
    telemetry: Telemetry,
    fault: FaultPlan,
    uplink_fault: FaultPlan,
    uplinks: Vec<(NodeId, U)>,
    /// Downlink queues hold `Arc`-shared payloads: a broadcast fanned out
    /// to N stations and heard by M objects is allocated exactly once and
    /// reference-counted everywhere else.
    unicasts: Vec<(NodeId, Arc<D>, usize)>,
    broadcasts: Vec<(StationId, Arc<D>, usize)>,
    /// The layout's [`StationsOver`] map for the grid last asked about.
    stations_over: Option<StationsOver>,
}

impl<U: WireSized, D: WireSized> NetworkSim<U, D> {
    pub fn new(layout: BaseStationLayout) -> Self {
        NetworkSim {
            layout,
            telemetry: Telemetry::new(),
            fault: FaultPlan::none(),
            uplink_fault: FaultPlan::none(),
            uplinks: Vec::new(),
            unicasts: Vec::new(),
            broadcasts: Vec::new(),
            stations_over: None,
        }
    }

    /// Redirects traffic recording into a shared telemetry sink (builder
    /// style). By default a private sink is used.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn layout(&self) -> &BaseStationLayout {
        &self.layout
    }

    /// The stations over each cell of `grid` ([`StationsOver`]), built on
    /// first use and kept while the grid is the same: the layout is static.
    pub fn stations_over(&mut self, grid: &Grid) -> &StationsOver {
        if self.stations_over.as_ref().is_none_or(|m| m.grid() != grid) {
            self.stations_over = Some(StationsOver::new(&self.layout, grid));
        }
        self.stations_over.as_ref().expect("built above")
    }

    /// Materializes the traffic view from the telemetry counters.
    pub fn meter(&self) -> MessageMeter {
        MessageMeter::from_snapshot(&self.telemetry.snapshot())
    }

    /// Counts `msgs` transmissions totalling `bytes` in one direction.
    fn record(&self, dir: Direction, msgs: u64, bytes: u64) {
        let (msgs_key, bytes_key) = dir.counter_keys();
        self.telemetry.record_batch(|r| {
            r.add(msgs_key, msgs);
            r.add(bytes_key, bytes);
        });
    }

    /// Installs a downlink fault plan (drops/duplicates).
    pub fn set_fault(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// The installed downlink fault plan. Drivers that distribute
    /// delivery themselves check [`FaultPlan::is_noop`]: an armed plan is
    /// a stateful RNG that must be consumed sequentially, in delivery
    /// order ([`filter_deliveries`](Self::filter_deliveries)).
    pub fn fault(&self) -> &FaultPlan {
        &self.fault
    }

    /// Installs an uplink fault plan (drops/duplicates applied as messages
    /// enter the network, before the server drains them).
    pub fn set_uplink_fault(&mut self, plan: FaultPlan) {
        self.uplink_fault = plan;
    }

    pub fn uplink_fault(&self) -> &FaultPlan {
        &self.uplink_fault
    }

    /// Object → server message, subject to the uplink fault plan. The
    /// object always pays the transmission (counted in `net.uplink.bytes`
    /// before the plan runs), but the server may see zero, one or two
    /// copies. Parallel drivers keep this
    /// deterministic by routing all uplinks through one coordinator
    /// network in shard order.
    pub fn send_uplink(&mut self, from: NodeId, msg: U)
    where
        U: Clone,
    {
        let bytes = self.enqueue_uplink(from, msg);
        self.record(Direction::Uplink, 1, bytes);
    }

    /// Forwards a buffer of uplinks in send order, leaving it empty (its
    /// allocation is kept). Indistinguishable from
    /// [`send_uplink`](Self::send_uplink) per message, except that the
    /// traffic counters take one update for the whole buffer.
    pub fn send_uplinks(&mut self, batch: &mut Vec<(NodeId, U)>)
    where
        U: Clone,
    {
        if batch.is_empty() {
            return;
        }
        let msgs = batch.len() as u64;
        let mut bytes = 0;
        for (from, msg) in batch.drain(..) {
            bytes += self.enqueue_uplink(from, msg);
        }
        self.record(Direction::Uplink, msgs, bytes);
    }

    /// Sizes one uplink, runs it through the uplink fault plan (a
    /// stateful RNG consumed once per message) and queues what survives.
    /// Returns the wire size, which the caller charges whatever the plan
    /// decided.
    fn enqueue_uplink(&mut self, from: NodeId, msg: U) -> u64
    where
        U: Clone,
    {
        let bytes = msg.wire_size();
        match self.uplink_fault.copies() {
            0 => self.telemetry.incr(keys::FAULT_UPLINK_DROPPED),
            1 => self.uplinks.push((from, msg)),
            _ => {
                self.telemetry.incr(keys::FAULT_UPLINK_DUPLICATED);
                self.uplinks.push((from, msg.clone()));
                self.uplinks.push((from, msg));
            }
        }
        bytes as u64
    }

    /// Server side: take all pending uplink messages.
    pub fn drain_uplinks(&mut self) -> Vec<(NodeId, U)> {
        std::mem::take(&mut self.uplinks)
    }

    /// Drains pending uplinks into a caller-owned buffer, appended in
    /// queue order. `Vec::append` keeps both allocations alive, so a
    /// server draining into a persistent scratch every tick settles into
    /// a zero-allocation steady state.
    pub fn drain_uplinks_into(&mut self, out: &mut Vec<(NodeId, U)>) {
        out.append(&mut self.uplinks);
    }

    /// Number of queued uplink messages (diagnostics).
    pub fn pending_uplinks(&self) -> usize {
        self.uplinks.len()
    }

    /// Server → one object. Counts as one downlink message on the medium.
    pub fn send_unicast(&mut self, to: NodeId, msg: D) {
        let bytes = msg.wire_size();
        self.record(Direction::Unicast, 1, bytes as u64);
        self.unicasts.push((to, Arc::new(msg), bytes));
    }

    /// Server → everyone inside one station's coverage circle. Counts as one
    /// downlink message on the medium regardless of audience size.
    pub fn broadcast(&mut self, station: StationId, msg: D) {
        self.broadcast_through(std::iter::once(station), msg);
    }

    /// Queues one shared payload for every station of `stations`, sizing
    /// it once and counting the transmissions under one telemetry lock.
    /// Returns the number of station transmissions.
    fn broadcast_through(&mut self, stations: impl Iterator<Item = StationId>, msg: D) -> usize {
        let bytes = msg.wire_size();
        let payload = Arc::new(msg);
        let before = self.broadcasts.len();
        self.broadcasts
            .extend(stations.map(|s| (s, Arc::clone(&payload), bytes)));
        let n = self.broadcasts.len() - before;
        if n > 0 {
            self.record(Direction::Broadcast, n as u64, (n * bytes) as u64);
        }
        n
    }

    /// Broadcasts through *every* base station, each with its own payload:
    /// `msg(layout, s)` builds station `s`'s, in ascending station order —
    /// the dissemination primitive for server heartbeats, whose digest
    /// list each station cuts down to the cells it covers. Each payload is
    /// sized once and shared by its recipients; the transmissions are
    /// counted under one telemetry lock. Returns their number.
    pub fn broadcast_each(
        &mut self,
        mut msg: impl FnMut(&BaseStationLayout, StationId) -> D,
    ) -> usize {
        let n = self.layout.num_stations();
        let mut bytes = 0;
        self.broadcasts.reserve(n);
        for s in (0..n as u32).map(StationId) {
            let payload = msg(&self.layout, s);
            let size = payload.wire_size();
            bytes += size;
            self.broadcasts.push((s, Arc::new(payload), size));
        }
        self.record(Direction::Broadcast, n as u64, bytes as u64);
        self.telemetry
            .event(EventKind::BroadcastFanout { stations: n as u64 });
        n
    }

    /// Broadcasts `msg` through the minimal set of stations covering a
    /// monitoring region — the paper's dissemination primitive. The
    /// payload is allocated once and shared across every covering station
    /// (and every recipient). Returns the number of station transmissions.
    pub fn broadcast_region(&mut self, grid: &Grid, region: &GridRect, msg: D) -> usize {
        let stations = self.layout.minimal_cover(grid, region);
        let n = self.broadcast_through(stations.into_iter(), msg);
        self.telemetry
            .event(EventKind::BroadcastFanout { stations: n as u64 });
        n
    }

    /// Object side: collect everything addressed to / audible at this
    /// object. Must be called at most once per object per tick, after the
    /// server phase and before [`end_tick`](Self::end_tick). Delivered
    /// payloads are `Arc` clones of the queued messages — no deep copy per
    /// recipient. Every copy received counts its bytes in `net.rx.bytes`.
    pub fn deliver(&mut self, node: NodeId, pos: Point, out: &mut Vec<Arc<D>>) {
        let mut received = 0;
        for (to, msg, bytes) in &self.unicasts {
            if *to == node {
                for _ in 0..Self::fate(&mut self.fault, &self.telemetry, node) {
                    received += bytes;
                    out.push(Arc::clone(msg));
                }
            }
        }
        for (station, msg, bytes) in &self.broadcasts {
            if self.layout.covers(*station, pos) {
                for _ in 0..Self::fate(&mut self.fault, &self.telemetry, node) {
                    received += bytes;
                    out.push(Arc::clone(msg));
                }
            }
        }
        if received > 0 {
            self.telemetry.add(keys::RX_BYTES, received as u64);
        }
    }

    /// Runs a tick's deliveries, assembled by the caller as `(node, inbox
    /// index)` pairs in ascending order, through the downlink fault plan
    /// and appends what arrives to `out`: a dropped pair is left out, a
    /// duplicated one appears twice. Per node that is the inbox
    /// [`deliver`](Self::deliver) hands out, and walking the sorted list
    /// consumes the plan's RNG — and records drops and duplicates — in
    /// the order per-node `deliver` calls in ascending node order would.
    ///
    /// Pairs of a node for which `offline` holds are removed without a
    /// draw: its radio is off, exactly like a node `deliver` is never
    /// called for, so every later node sees an unchanged RNG stream.
    /// Receive accounting (`net.rx.bytes`) stays with the caller.
    pub fn filter_deliveries(
        &mut self,
        pairs: &[(u32, u32)],
        offline: impl Fn(u32) -> bool,
        out: &mut Vec<(u32, u32)>,
    ) {
        for &(node, k) in pairs {
            if offline(node) {
                continue;
            }
            for _ in 0..Self::fate(&mut self.fault, &self.telemetry, NodeId(node)) {
                out.push((node, k));
            }
        }
    }

    /// The one place a downlink delivery's fate is decided: how many
    /// copies `node` receives (0 = dropped, 2 = duplicated) — one draw of
    /// the fault plan, with the drop or duplicate counted and logged.
    fn fate(fault: &mut FaultPlan, telemetry: &Telemetry, node: NodeId) -> usize {
        let copies = fault.copies();
        match copies {
            0 => {
                telemetry.incr(keys::FAULT_DROPPED);
                telemetry.event(EventKind::MessageDropped { oid: node.0 as u64 });
            }
            2 => {
                telemetry.incr(keys::FAULT_DUPLICATED);
                telemetry.event(EventKind::MessageDuplicated { oid: node.0 as u64 });
            }
            _ => {}
        }
        copies
    }

    /// Takes the pending downlink queues out of the network, leaving them
    /// empty. Used by deployments that distribute delivery themselves (the
    /// sharded tick engine; a partition service shipping its downlinks
    /// back over the socket): the caller becomes responsible for physical
    /// delivery semantics and receive accounting.
    #[allow(clippy::type_complexity)]
    pub fn take_downlinks(
        &mut self,
    ) -> (
        Vec<(NodeId, Arc<D>, usize)>,
        Vec<(StationId, Arc<D>, usize)>,
    ) {
        (
            std::mem::take(&mut self.unicasts),
            std::mem::take(&mut self.broadcasts),
        )
    }

    /// Clears the downlink queues; call after every object polled.
    pub fn end_tick(&mut self) {
        self.unicasts.clear();
        self.broadcasts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_geo::Rect;
    use mobieyes_telemetry::MetricsSnapshot;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u32);

    impl WireSized for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    fn net() -> NetworkSim<Msg, Msg> {
        NetworkSim::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        ))
    }

    /// Unwraps delivered `Arc` payloads for comparisons.
    fn vals(delivered: &[Arc<Msg>]) -> Vec<Msg> {
        delivered.iter().map(|m| (**m).clone()).collect()
    }

    #[test]
    fn uplink_roundtrip_and_accounting() {
        let mut n = net();
        n.send_uplink(NodeId(3), Msg(1));
        n.send_uplink(NodeId(4), Msg(2));
        assert_eq!(n.pending_uplinks(), 2);
        let up = n.drain_uplinks();
        assert_eq!(up, vec![(NodeId(3), Msg(1)), (NodeId(4), Msg(2))]);
        assert_eq!(n.pending_uplinks(), 0);
        assert_eq!(n.meter().uplink_msgs, 2);
        assert_eq!(n.meter().uplink_bytes, 16);
    }

    #[test]
    fn unicast_reaches_only_addressee() {
        let mut n = net();
        n.send_unicast(NodeId(1), Msg(7));
        let mut got = Vec::new();
        n.deliver(NodeId(1), Point::new(50.0, 50.0), &mut got);
        assert_eq!(vals(&got), vec![Msg(7)]);
        let mut other = Vec::new();
        n.deliver(NodeId(2), Point::new(50.0, 50.0), &mut other);
        assert!(other.is_empty());
        assert_eq!(n.meter().unicast_msgs, 1);
        // Received once, by the addressee.
        assert_eq!(n.meter().rx_bytes, 8);
    }

    #[test]
    fn broadcast_heard_only_inside_coverage() {
        let mut n = net();
        let s = n.layout().station_at(Point::new(5.0, 5.0)); // station 0, center (5,5), r≈7.07
        n.broadcast(s, Msg(9));
        let mut near = Vec::new();
        n.deliver(NodeId(1), Point::new(6.0, 6.0), &mut near);
        assert_eq!(vals(&near), vec![Msg(9)]);
        let mut far = Vec::new();
        n.deliver(NodeId(2), Point::new(80.0, 80.0), &mut far);
        assert!(far.is_empty());
        // One broadcast message on the medium no matter how many listeners.
        assert_eq!(n.meter().broadcast_msgs, 1);
    }

    #[test]
    fn broadcast_region_uses_minimal_cover() {
        let mut n = net();
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 5.0);
        let region = GridRect {
            x0: 0,
            y0: 0,
            x1: 3,
            y1: 3,
        }; // [0,20]^2
        let sent = n.broadcast_region(&grid, &region, Msg(5));
        assert!(sent >= 1);
        assert_eq!(n.meter().broadcast_msgs as usize, sent);
        // An object anywhere inside the region hears >= 1 copy.
        let mut got = Vec::new();
        n.deliver(NodeId(0), Point::new(10.0, 10.0), &mut got);
        assert!(!got.is_empty());
    }

    #[test]
    fn broadcast_region_shares_one_payload_allocation() {
        let mut n = net();
        let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 5.0);
        let region = GridRect {
            x0: 0,
            y0: 0,
            x1: 7,
            y1: 7,
        }; // [0,40]^2 — needs several stations
        let sent = n.broadcast_region(&grid, &region, Msg(5));
        assert!(sent > 1, "test region should need more than one station");
        let (_, broadcasts) = n.take_downlinks();
        assert_eq!(broadcasts.len(), sent);
        let first = &broadcasts[0].1;
        assert!(
            broadcasts.iter().all(|(_, m, _)| Arc::ptr_eq(m, first)),
            "every station transmission must share the same allocation"
        );
    }

    #[test]
    fn deliver_shares_the_queued_payload() {
        let mut n = net();
        n.send_unicast(NodeId(1), Msg(3));
        let mut got = Vec::new();
        n.deliver(NodeId(1), Point::new(50.0, 50.0), &mut got);
        assert_eq!(got.len(), 1);
        let (unicasts, _) = n.take_downlinks();
        assert!(
            Arc::ptr_eq(&got[0], &unicasts[0].1),
            "delivery must hand out a reference, not a deep copy"
        );
    }

    #[test]
    fn end_tick_clears_downlink_not_uplink_meter() {
        let mut n = net();
        n.send_unicast(NodeId(1), Msg(1));
        n.broadcast(StationId(0), Msg(2));
        n.end_tick();
        let mut got = Vec::new();
        n.deliver(NodeId(1), Point::new(5.0, 5.0), &mut got);
        assert!(got.is_empty());
        // Meter totals persist across ticks.
        assert_eq!(n.meter().downlink_msgs(), 2);
    }

    #[test]
    fn faults_drop_downlink_messages() {
        let mut n = net();
        n.set_fault(FaultPlan::new(1.0, 0.0, 1));
        n.send_unicast(NodeId(1), Msg(1));
        let mut got = Vec::new();
        n.deliver(NodeId(1), Point::new(5.0, 5.0), &mut got);
        assert!(got.is_empty(), "full drop rate must suppress delivery");
        // The transmission itself still happened (and is metered).
        assert_eq!(n.meter().unicast_msgs, 1);
    }

    #[test]
    fn faults_duplicate_downlink_messages() {
        let mut n = net();
        n.set_fault(FaultPlan::new(0.0, 1.0, 1));
        n.send_unicast(NodeId(1), Msg(1));
        let mut got = Vec::new();
        n.deliver(NodeId(1), Point::new(5.0, 5.0), &mut got);
        assert_eq!(got.len(), 2, "full duplicate rate must double delivery");
    }

    #[test]
    fn uplink_faults_drop_but_still_meter_the_transmission() {
        let mut n = net();
        n.set_uplink_fault(FaultPlan::new(1.0, 0.0, 3));
        n.send_uplink(NodeId(2), Msg(1));
        assert_eq!(n.pending_uplinks(), 0, "dropped uplink must not queue");
        // The object transmitted (and pays the energy) regardless.
        assert_eq!(n.meter().uplink_msgs, 1);
        assert_eq!(n.meter().uplink_bytes, 8);
        assert_eq!(
            n.telemetry().snapshot().counter(keys::FAULT_UPLINK_DROPPED),
            1
        );
    }

    #[test]
    fn uplink_faults_duplicate_the_queued_message() {
        let mut n = net();
        n.set_uplink_fault(FaultPlan::new(0.0, 1.0, 3));
        n.send_uplink(NodeId(2), Msg(9));
        let up = n.drain_uplinks();
        assert_eq!(up, vec![(NodeId(2), Msg(9)), (NodeId(2), Msg(9))]);
        // One transmission on the medium; the duplication is in the air.
        assert_eq!(n.meter().uplink_msgs, 1);
        assert_eq!(
            n.telemetry()
                .snapshot()
                .counter(keys::FAULT_UPLINK_DUPLICATED),
            1
        );
    }

    /// An uplink whose wire size is its payload, so byte totals tell
    /// messages apart.
    #[derive(Debug, Clone, PartialEq)]
    struct Sized(u32);

    impl WireSized for Sized {
        fn wire_size(&self) -> usize {
            self.0 as usize
        }
    }

    /// Everything an uplink forward can change: the counters in the sink
    /// (read with no queue hand-over in between), the meter view and the
    /// server-side queue.
    type ForwardOutcome = (Vec<u64>, [u64; 2], Vec<(NodeId, Sized)>);

    fn forward_outcome(bulk: bool, fault: FaultPlan) -> ForwardOutcome {
        let mut n: NetworkSim<Sized, Msg> = NetworkSim::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        ));
        n.set_uplink_fault(fault);
        let mut batch: Vec<(NodeId, Sized)> = [(5, 11), (2, 7), (5, 3), (9, 40), (0, 1), (2, 2)]
            .iter()
            .cycle()
            .take(60)
            .map(|&(node, size)| (NodeId(node), Sized(size)))
            .collect();
        if bulk {
            n.send_uplinks(&mut batch);
            assert!(batch.is_empty(), "bulk forward must drain the buffer");
        } else {
            for (from, msg) in batch {
                n.send_uplink(from, msg);
            }
        }
        let snapshot = n.telemetry().snapshot();
        let counters = [
            keys::UPLINK_MSGS,
            keys::UPLINK_BYTES,
            keys::FAULT_UPLINK_DROPPED,
            keys::FAULT_UPLINK_DUPLICATED,
        ]
        .map(|k| snapshot.counter(k))
        .to_vec();
        let meter = n.meter();
        (
            counters,
            [meter.uplink_msgs, meter.uplink_bytes],
            n.drain_uplinks(),
        )
    }

    #[test]
    fn bulk_uplink_forward_equals_per_message_forward() {
        let bulk = forward_outcome(true, FaultPlan::none());
        assert_eq!(bulk, forward_outcome(false, FaultPlan::none()));
        // Sized and counted exactly once: 10 rounds of the 6-message cycle.
        let bytes = 10 * (11 + 7 + 3 + 40 + 1 + 2);
        assert_eq!(bulk.0, [60, bytes, 0, 0], "sink is current, no drain");
        assert_eq!(bulk.1, [60, bytes]);
        assert_eq!(bulk.2.len(), 60);

        // An armed plan is a stateful RNG: the bulk call consumes it once
        // per message in send order, like the per-message sends.
        let plan = || FaultPlan::new(0.3, 0.3, 77);
        let faulty = forward_outcome(true, plan());
        assert_eq!(faulty, forward_outcome(false, plan()));
        assert!(faulty.0[2] > 0 && faulty.0[3] > 0, "plan must fire");
        assert_eq!(faulty.1, [60, bytes], "the sender pays once per message");
        assert_ne!(faulty.2.len(), 60, "drops and duplicates reshape the queue");
    }

    /// A 12-node network with a mixed downlink queue (message `k` is
    /// `Sized(10 + k)`, so inboxes and byte totals tell messages apart)
    /// under an armed plan; nodes 3 and 7 are offline.
    fn armed_net() -> (NetworkSim<Msg, Sized>, Vec<Point>) {
        let mut n: NetworkSim<Msg, Sized> = NetworkSim::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        ));
        n.set_fault(FaultPlan::new(0.25, 0.25, 0xFA7E));
        let positions: Vec<Point> = (0..12)
            .map(|i| Point::new(5.0 + 2.5 * i as f64, 5.0 + (i % 3) as f64 * 5.0))
            .collect();
        for (k, to) in [4u32, 3, 9, 4, 0, 7, 11, 4].into_iter().enumerate() {
            n.send_unicast(NodeId(to), Sized(10 + k as u32));
        }
        for (k, station) in [0u32, 1, 2, 1, 0, 3, 12, 1].into_iter().enumerate() {
            n.broadcast(StationId(station), Sized(18 + k as u32));
        }
        n.send_uplink(NodeId(5), Msg(1));
        (n, positions)
    }

    const OFFLINE: [u32; 2] = [3, 7];

    /// What a round of deliveries leaves behind: per-node inboxes, the
    /// sink (counters and event order), and the sent and received bytes.
    fn delivery_outcome(
        n: &NetworkSim<Msg, Sized>,
        inboxes: Vec<Vec<u32>>,
    ) -> (Vec<Vec<u32>>, MetricsSnapshot, (u64, u64)) {
        let meter = n.meter();
        let bytes = (meter.uplink_bytes, meter.rx_bytes);
        (inboxes, n.telemetry().snapshot(), bytes)
    }

    #[test]
    fn filtered_pair_list_equals_per_node_deliver_under_an_armed_plan() {
        // Pull: every online node polls in ascending order.
        let (mut pull, positions) = armed_net();
        let mut pulled = vec![Vec::new(); 12];
        for (i, &pos) in positions.iter().enumerate() {
            if OFFLINE.contains(&(i as u32)) {
                continue;
            }
            let mut got = Vec::new();
            pull.deliver(NodeId(i as u32), pos, &mut got);
            pulled[i] = got.iter().map(|m| m.0).collect();
        }
        let pulled = delivery_outcome(&pull, pulled);

        // Push: the whole tick as one sorted pair list — offline nodes'
        // pairs included — through the same plan.
        let (mut push, _) = armed_net();
        let (unicasts, broadcasts) = push.take_downlinks();
        let nu = unicasts.len() as u32;
        let mut pairs = Vec::new();
        for (i, &pos) in positions.iter().enumerate() {
            for (k, (to, _, _)) in unicasts.iter().enumerate() {
                if to.0 as usize == i {
                    pairs.push((i as u32, k as u32));
                }
            }
            for (k, (station, _, _)) in broadcasts.iter().enumerate() {
                if push.layout().covers(*station, pos) {
                    pairs.push((i as u32, nu + k as u32));
                }
            }
        }
        assert!(
            OFFLINE.iter().all(|o| pairs.iter().any(|&(n, _)| n == *o)),
            "offline nodes must have had deliveries to lose"
        );
        let mut kept = Vec::new();
        push.filter_deliveries(&pairs, |node| OFFLINE.contains(&node), &mut kept);
        let mut pushed = vec![Vec::new(); 12];
        let mut received = 0;
        for &(node, k) in &kept {
            let (msg, bytes) = match unicasts.get(k as usize) {
                Some((_, msg, bytes)) => (msg, *bytes),
                None => {
                    let (_, msg, bytes) = &broadcasts[(k - nu) as usize];
                    (msg, *bytes)
                }
            };
            pushed[node as usize].push(msg.0);
            received += bytes as u64;
        }
        push.telemetry().add(keys::RX_BYTES, received);
        let pushed = delivery_outcome(&push, pushed);

        assert_eq!(pushed.0, pulled.0, "per-node inbox sequences");
        assert!(
            pushed.1.protocol_eq(&pulled.1),
            "counters or event order diverged"
        );
        assert_eq!(pushed.2, pulled.2, "sent/received bytes");
        let (dropped, duplicated) = (
            pushed.1.counter(keys::FAULT_DROPPED),
            pushed.1.counter(keys::FAULT_DUPLICATED),
        );
        assert!(dropped > 0 && duplicated > 0, "the plan must fire");
        assert_eq!(
            kept.len() as u64 + dropped - duplicated,
            pairs.iter().filter(|(n, _)| !OFFLINE.contains(n)).count() as u64,
            "one draw per online pair"
        );
        assert!(pushed.0[3].is_empty() && pushed.0[7].is_empty());
    }

    #[test]
    fn sink_is_current_after_every_send() {
        let mut n = net();
        n.send_unicast(NodeId(1), Msg(1));
        n.broadcast(StationId(0), Msg(2));
        n.send_uplinks(&mut vec![(NodeId(3), Msg(3)), (NodeId(4), Msg(4))]);
        n.send_uplinks(&mut Vec::new());
        // No drain, no `take_downlinks`, no `end_tick` in between.
        let snap = n.telemetry().snapshot();
        assert_eq!(snap.counter(keys::UNICAST_MSGS), 1);
        assert_eq!(snap.counter(keys::BROADCAST_BYTES), 8);
        assert_eq!(snap.counter(keys::UPLINK_MSGS), 2);
        assert_eq!(snap.counter(keys::UPLINK_BYTES), 16);
        let meter = n.meter();
        assert_eq!((meter.downlink_msgs(), meter.uplink_msgs), (2, 2));
    }

    #[test]
    fn broadcast_each_sends_each_station_its_own_payload() {
        /// A payload whose wire size is its value.
        #[derive(Debug, PartialEq)]
        struct Sized(usize);
        impl WireSized for Sized {
            fn wire_size(&self) -> usize {
                self.0
            }
        }
        let mut n: NetworkSim<Sized, Sized> = NetworkSim::new(BaseStationLayout::new(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        ));
        let stations = n.layout().num_stations();
        let mut asked = Vec::new();
        let sent = n.broadcast_each(|layout, s| {
            assert_eq!(layout.num_stations(), stations);
            asked.push(s);
            Sized(1 + s.0 as usize)
        });
        assert_eq!(sent, stations);
        let ascending: Vec<StationId> = (0..stations as u32).map(StationId).collect();
        assert_eq!(asked, ascending, "one payload per station, in order");
        let snap = n.telemetry().snapshot();
        assert_eq!(snap.counter(keys::BROADCAST_MSGS), stations as u64);
        let bytes: usize = (1..=stations).sum();
        assert_eq!(snap.counter(keys::BROADCAST_BYTES), bytes as u64);
        let fanouts: Vec<_> = snap
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BroadcastFanout { stations } => Some(stations),
                _ => None,
            })
            .collect();
        assert_eq!(fanouts, vec![stations as u64]);
        // Any position in the universe hears at least one station.
        let mut got = Vec::new();
        n.deliver(NodeId(0), Point::new(73.0, 21.0), &mut got);
        assert!(!got.is_empty());
        let (_, broadcasts) = n.take_downlinks();
        for (k, (s, msg, size)) in broadcasts.iter().enumerate() {
            assert_eq!((s.0 as usize, msg.0, *size), (k, k + 1, k + 1));
        }
    }

    #[test]
    fn stations_over_inverts_cells_under_for_the_grid_asked_about() {
        let mut n = net();
        for alpha in [5.0, 7.5, 5.0] {
            let grid = Grid::new(Rect::new(0.0, 0.0, 100.0, 100.0), alpha);
            let layout = n.layout().clone();
            let over = n.stations_over(&grid);
            assert_eq!(over.grid(), &grid);
            for cell in (0..grid.num_cells()).map(|c| grid.cell_at(c)) {
                let expected: Vec<StationId> = (0..layout.num_stations() as u32)
                    .map(StationId)
                    .filter(|&s| layout.cells_under(s, &grid).contains(cell))
                    .collect();
                assert_eq!(over.of(cell), expected, "{cell:?} at alpha {alpha}");
            }
        }
    }

    #[test]
    fn object_between_two_stations_hears_both_copies() {
        let mut n = net();
        // Stations 0 (center 5,5) and 1 (center 15,5) both cover (10,5).
        n.broadcast(StationId(0), Msg(1));
        n.broadcast(StationId(1), Msg(1));
        let mut got = Vec::new();
        n.deliver(NodeId(0), Point::new(10.0, 5.0), &mut got);
        assert_eq!(got.len(), 2);
    }
}
