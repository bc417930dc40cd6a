//! Coordinator + sharded worker threads over std::sync::mpsc channels.

use mobieyes_core::object::agent_keys;
use mobieyes_core::server::Net;
use mobieyes_core::{
    Downlink, Filter, MovingObjectAgent, ObjectId, Properties, ProtocolConfig, QueryId, Server,
    Uplink,
};
use mobieyes_geo::{Grid, Point, QueryRegion, Vec2};
use mobieyes_net::{BaseStationLayout, NodeId, StationId};
use mobieyes_sim::{Mobility, SimConfig, Workload};
use mobieyes_telemetry::{MetricsSnapshot, Phase, Telemetry};
use std::collections::BTreeSet;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Kinematic state of every object at one tick.
struct KinFrame {
    t: f64,
    positions: Vec<Point>,
    velocities: Vec<Vec2>,
}

/// Downlink messages taken from the network for distributed delivery.
/// Payloads stay behind the network's `Arc`s: fanning a frame out to the
/// workers shares the queue, and delivering a message to an agent clones
/// a reference, never the payload.
struct DownFrame {
    unicasts: Vec<(NodeId, Arc<Downlink>, usize)>,
    broadcasts: Vec<(StationId, Arc<Downlink>, usize)>,
}

enum Cmd {
    /// Phase A: absorb kinematics, emit motion reports.
    Motion {
        kin: Arc<KinFrame>,
    },
    /// Phase B: deliver downlinks, process and evaluate.
    Process {
        down: Arc<DownFrame>,
    },
    Stop,
}

struct WorkerReply {
    shard: usize,
    /// Uplinks in agent-index order within the shard.
    uplinks: Vec<(NodeId, Uplink)>,
    /// (node, bytes) of every physically received downlink message.
    rx: Vec<(u32, usize)>,
}

/// Outcome of a threaded run: the final result of every query (in
/// workload order), aggregate traffic numbers for comparisons, and the
/// full telemetry snapshot of the shared registry.
#[derive(Debug)]
pub struct ThreadedOutcome {
    pub results: Vec<BTreeSet<ObjectId>>,
    pub total_msgs: u64,
    pub uplink_msgs: u64,
    pub downlink_msgs: u64,
    pub avg_lqt_size: f64,
    /// Everything the deployment recorded. Protocol metrics (counters,
    /// events, histograms) are bit-identical to the lock-step simulator;
    /// wall-clock sections differ by construction.
    pub snapshot: MetricsSnapshot,
}

/// A threaded deployment of the protocol over a simulated mobility trace.
pub struct ThreadedSim {
    pub config: SimConfig,
    pub shards: usize,
    telemetry: Telemetry,
}

impl ThreadedSim {
    pub fn new(config: SimConfig, shards: usize) -> Self {
        assert!(shards >= 1);
        ThreadedSim {
            config,
            shards,
            telemetry: Telemetry::new(),
        }
    }

    /// Redirects recording into a shared telemetry sink. The server, the
    /// coordinator network and every worker's agents record into it; the
    /// workers' private uplink buffers do not (uplink traffic is counted
    /// exactly once, when the coordinator forwards it).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The shared instrumentation sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs the full scenario (warm-up + measured ticks) and returns the
    /// final query results and traffic totals.
    pub fn run(&self) -> ThreadedOutcome {
        let config = &self.config;
        let telemetry = self.telemetry.clone();
        let workload = Workload::generate(config);
        let grid = Grid::new(workload.universe, config.alpha);
        // Same lease wiring as the lock-step simulator: durations are
        // configured in ticks, heartbeats fire twice per lease.
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
        let mut server = Server::new(Arc::clone(&pconf)).with_telemetry(telemetry.clone());
        let mut mobility = Mobility::with_kind(
            &workload,
            config.objects_changing_velocity,
            config.time_step,
            config.seed,
            config.mobility,
        );

        // Install the query workload.
        let qids: Vec<QueryId> = workload
            .queries
            .iter()
            .map(|q| {
                server.install_query(
                    ObjectId(q.focal_idx as u32),
                    QueryRegion::circle(q.radius),
                    Filter::with_selectivity(workload.selectivity, q.filter_salt),
                    &mut net,
                )
            })
            .collect();

        // Partition agents into contiguous shards.
        let n = workload.objects.len();
        let shards = self.shards.min(n.max(1));
        let chunk = n.div_ceil(shards);
        let mut worker_handles = Vec::new();
        let mut cmd_txs: Vec<SyncSender<Cmd>> = Vec::new();
        let (reply_tx, reply_rx): (SyncSender<WorkerReply>, Receiver<WorkerReply>) =
            sync_channel(shards);

        for s in 0..shards {
            let lo = s * chunk;
            let hi = ((s + 1) * chunk).min(n);
            let shared = telemetry.clone();
            let agents: Vec<MovingObjectAgent> = (lo..hi)
                .map(|i| {
                    MovingObjectAgent::new(
                        ObjectId(i as u32),
                        Properties::new(),
                        workload.objects[i].max_speed,
                        workload.objects[i].initial_pos,
                        mobility.velocities[i],
                        Arc::clone(&pconf),
                    )
                    .with_telemetry(shared.clone())
                })
                .collect();
            let (tx, rx): (SyncSender<Cmd>, Receiver<Cmd>) = sync_channel(1);
            cmd_txs.push(tx);
            let reply = reply_tx.clone();
            let wl = layout.clone();
            worker_handles.push(std::thread::spawn(move || {
                worker_loop(s, lo, agents, wl, rx, reply);
            }));
        }
        drop(reply_tx);

        let ticks = config.warmup_ticks + config.ticks;
        let collect = |net: &mut Net, reply_rx: &Receiver<WorkerReply>| {
            let mut replies: Vec<WorkerReply> = (0..shards)
                .map(|_| reply_rx.recv().expect("worker reply"))
                .collect();
            replies.sort_by_key(|r| r.shard);
            for r in replies {
                for (node, bytes) in r.rx {
                    net.record_node_received(node as usize, bytes);
                }
                for (node, up) in r.uplinks {
                    net.send_uplink(node, up);
                }
            }
        };
        for k in 0..ticks {
            let t = (k + 1) as f64 * config.time_step;
            telemetry.set_now(t);
            {
                let _span = telemetry.span(Phase::Mobility);
                mobility.step();
            }
            let kin = Arc::new(KinFrame {
                t,
                positions: mobility.positions.clone(),
                velocities: mobility.velocities.clone(),
            });
            // Phase A: motion reports from every shard.
            {
                let _span = telemetry.span(Phase::Motion);
                for tx in &cmd_txs {
                    tx.send(Cmd::Motion {
                        kin: Arc::clone(&kin),
                    })
                    .expect("worker alive");
                }
                collect(&mut net, &reply_rx);
            }
            // Fault-tolerance duties (no-op unless leases are configured),
            // queued before mediation exactly as in the lock-step engine.
            server.heartbeat(t, &mut net);
            // Server mediation.
            {
                let _span = telemetry.span(Phase::Mediation);
                server.tick(&mut net);
            }
            // Phase B: distributed delivery + evaluation.
            {
                let _span = telemetry.span(Phase::Process);
                let (unicasts, broadcasts) = net.take_downlinks();
                let down = Arc::new(DownFrame {
                    unicasts,
                    broadcasts,
                });
                for tx in &cmd_txs {
                    tx.send(Cmd::Process {
                        down: Arc::clone(&down),
                    })
                    .expect("worker alive");
                }
                collect(&mut net, &reply_rx);
            }
            // Server result ingestion.
            {
                let _span = telemetry.span(Phase::Ingest);
                server.tick(&mut net);
            }
        }
        for tx in &cmd_txs {
            let _ = tx.send(Cmd::Stop);
        }
        for h in worker_handles {
            h.join().expect("worker thread panicked");
        }

        let meter = net.meter();
        let snapshot = telemetry.snapshot();
        let results = qids
            .iter()
            .map(|&q| server.query_result(q).cloned().unwrap_or_default())
            .collect();
        ThreadedOutcome {
            results,
            total_msgs: meter.total_msgs(),
            uplink_msgs: meter.uplink_msgs,
            downlink_msgs: meter.downlink_msgs(),
            avg_lqt_size: snapshot
                .histogram(agent_keys::LQT_SIZE)
                .map(|h| h.mean())
                .unwrap_or(0.0),
            snapshot,
        }
    }
}

/// The worker thread: owns a contiguous range of agents, delivers downlink
/// frames locally and batches uplinks back to the coordinator.
fn worker_loop(
    shard: usize,
    lo: usize,
    mut agents: Vec<MovingObjectAgent>,
    layout: BaseStationLayout,
    rx: Receiver<Cmd>,
    reply: SyncSender<WorkerReply>,
) {
    // A private network used purely as an uplink buffer so the agent code
    // is identical to the lock-step deployment. Its (private) telemetry is
    // discarded: uplink traffic is metered once, by the coordinator.
    let mut sink = Net::new(layout.clone());
    let mut inbox: Vec<Arc<Downlink>> = Vec::new();
    let mut kin_frame: Option<Arc<KinFrame>> = None;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Stop => break,
            Cmd::Motion { kin } => {
                let mut uplinks: Vec<(NodeId, Uplink)> = Vec::new();
                for (off, agent) in agents.iter_mut().enumerate() {
                    let i = lo + off;
                    agent.tick_motion(kin.t, kin.positions[i], kin.velocities[i], &mut sink);
                    uplinks.extend(sink.drain_uplinks());
                }
                kin_frame = Some(kin);
                reply
                    .send(WorkerReply {
                        shard,
                        uplinks,
                        rx: Vec::new(),
                    })
                    .expect("coordinator alive");
            }
            Cmd::Process { down } => {
                let kin = kin_frame.as_ref().expect("Process follows Motion");
                let mut rx_bytes: Vec<(u32, usize)> = Vec::new();
                let mut uplinks: Vec<(NodeId, Uplink)> = Vec::new();
                for (off, agent) in agents.iter_mut().enumerate() {
                    let i = lo + off;
                    let node = NodeId(i as u32);
                    let pos = kin.positions[i];
                    inbox.clear();
                    // Physical delivery: unicasts addressed to us, broadcasts
                    // whose station covers our position — same semantics as
                    // `NetworkSim::deliver`.
                    for (to, msg, bytes) in &down.unicasts {
                        if *to == node {
                            rx_bytes.push((node.0, *bytes));
                            inbox.push(Arc::clone(msg));
                        }
                    }
                    for (station, msg, bytes) in &down.broadcasts {
                        if layout.covers(*station, pos) {
                            rx_bytes.push((node.0, *bytes));
                            inbox.push(Arc::clone(msg));
                        }
                    }
                    agent.tick_process(kin.t, inbox.iter().map(|m| &**m), &mut sink);
                    uplinks.extend(sink.drain_uplinks());
                }
                reply
                    .send(WorkerReply {
                        shard,
                        uplinks,
                        rx: rx_bytes,
                    })
                    .expect("coordinator alive");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_run_completes() {
        let out = ThreadedSim::new(SimConfig::small_test(51), 1).run();
        assert!(out.total_msgs > 0);
        assert!(
            out.results.iter().any(|r| !r.is_empty()),
            "some query has results"
        );
    }

    #[test]
    fn shard_count_does_not_change_outcome() {
        let a = ThreadedSim::new(SimConfig::small_test(52), 1).run();
        let b = ThreadedSim::new(SimConfig::small_test(52), 4).run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.total_msgs, b.total_msgs);
        assert_eq!(a.uplink_msgs, b.uplink_msgs);
        assert_eq!(a.avg_lqt_size, b.avg_lqt_size);
        assert!(
            a.snapshot.protocol_eq(&b.snapshot),
            "protocol metrics diverged across shards"
        );
    }

    #[test]
    fn more_shards_than_objects_is_fine() {
        let mut c = SimConfig::small_test(53);
        c.num_objects = 3;
        c.num_queries = 2;
        c.objects_changing_velocity = 1;
        let out = ThreadedSim::new(c, 16).run();
        assert!(out.total_msgs > 0);
    }
}
