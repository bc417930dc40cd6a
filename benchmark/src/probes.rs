//! Micro-measurements taken beside a traced run, on the run's own data:
//! the socket round-trip floor under an RPC, and the durable log's write
//! path (append, group flush) and read path (replay, trajectory query) on
//! the record mix the run actually journaled.

use crate::stats::median;
use mobieyes_core::server::Net;
use mobieyes_core::{LogRecord, PartitionScope, PartitionTable, ProtocolConfig, Server};
use mobieyes_geo::{Grid, Rect};
use mobieyes_net::{BaseStationLayout, Endpoint, FramedConn, Listener, TransportError};
use mobieyes_sim::{Rng, SimConfig};
use mobieyes_store::{self as store, Store, StoreConfig};
use mobieyes_telemetry::Telemetry;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Median round trip, in microseconds, of one `payload`-byte frame echoed
/// over a Unix socket through `FramedConn` on both ends: the floor under
/// any RPC's service time, whatever the partition does with the request.
pub fn socket_roundtrip_us_p50(
    socket: &Path,
    payload: usize,
    rounds: usize,
) -> Result<f64, String> {
    const WARMUP_ROUNDS: usize = 200;
    let endpoint = Endpoint::Uds(socket.to_path_buf());
    let listener = Listener::bind(&endpoint).map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let echo = s.spawn(|| -> Result<(), TransportError> {
            let mut conn = FramedConn::new(listener.accept()?);
            let mut frame = Vec::new();
            loop {
                match conn.read_frame_into(&mut frame) {
                    Ok(()) => {
                        conn.write_frame(&frame)?;
                        conn.flush()?;
                    }
                    Err(TransportError::Closed) => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });
        let client = || -> Result<f64, TransportError> {
            let mut conn = FramedConn::new(endpoint.connect()?);
            let request = vec![0xA5u8; payload];
            let mut reply = Vec::new();
            let mut micros = Vec::with_capacity(rounds);
            for round in 0..WARMUP_ROUNDS + rounds {
                let t = Instant::now();
                conn.write_frame(&request)?;
                conn.flush()?;
                conn.read_frame_into(&mut reply)?;
                if round >= WARMUP_ROUNDS {
                    micros.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            Ok(median(&micros))
        };
        // The client's connection drops with the closure's return, which
        // is the echo side's end of stream.
        let p50 = client().map_err(|e| format!("socket probe client: {e}"));
        let served = echo
            .join()
            .map_err(|_| "socket probe echo thread panicked".to_string())?;
        served.map_err(|e| format!("socket probe echo: {e}"))?;
        p50
    })
}

/// What a fresh server needs to replay one partition's log.
pub struct ReplayContext {
    config: Arc<ProtocolConfig>,
    universe: Rect,
    alen: f64,
    partition: u32,
    num_partitions: usize,
}

impl ReplayContext {
    pub fn new(cfg: &SimConfig, universe: Rect, partition: u32, num_partitions: usize) -> Self {
        let lease_secs = cfg.lease_ticks as f64 * cfg.time_step;
        let heartbeat_secs = (cfg.lease_ticks / 2).max(1) as f64 * cfg.time_step;
        let config = ProtocolConfig::new(Grid::new(universe, cfg.alpha))
            .with_propagation(cfg.propagation)
            .with_grouping(cfg.grouping)
            .with_safe_period(cfg.safe_period)
            .with_delta(cfg.delta)
            .with_lease(lease_secs, heartbeat_secs);
        ReplayContext {
            config: Arc::new(config),
            universe,
            alen: cfg.alen,
            partition,
            num_partitions,
        }
    }

    /// A fresh server scoped like the partition that wrote the log, with
    /// the ownership table a replay from `records[start..]` expects: the
    /// newest `Bounds` install journaled before `start`, or the
    /// contiguous generation-0 split.
    fn fresh_server(&self, records: &[(u64, LogRecord)], start: usize) -> (Server, Net) {
        let mut server = Server::new(Arc::clone(&self.config)).with_telemetry(Telemetry::new());
        if self.num_partitions > 1 {
            let cells = self.config.grid.num_cells();
            let (base, rem) = (cells / self.num_partitions, cells % self.num_partitions);
            let mut bounds = vec![0usize];
            for p in 0..self.num_partitions {
                bounds.push(bounds[p] + base + usize::from(p < rem));
            }
            let table = Arc::new(PartitionTable::new(bounds));
            let installed = records[..start].iter().rev().find_map(|(_, r)| match r {
                LogRecord::Bounds { generation, bounds } => Some((*generation, bounds)),
                _ => None,
            });
            if let Some((generation, bounds)) = installed {
                let bounds: Vec<usize> = bounds.iter().map(|&b| b as usize).collect();
                table.install_at(&bounds, generation);
            }
            server = server.with_scope(PartitionScope::new(
                self.partition,
                table,
                Arc::new(AtomicU64::new(0)),
            ));
        }
        let net = Net::new(BaseStationLayout::new(self.universe, self.alen));
        (server, net)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct StoreProbe {
    pub append_ns_per_record: f64,
    pub flush_us_p50: f64,
    pub replay_records_per_s: f64,
    pub trajectory_query_us_p50: f64,
    /// The probe copy replays to the same server state as the run's own
    /// log, and every trajectory read returned the sample it was aimed at.
    pub outputs_match: bool,
}

fn is_checkpoint(record: &(u64, LogRecord)) -> bool {
    matches!(record.1, LogRecord::Checkpoint(_))
}

/// Runs the write- and read-path probes on the log under `run_dir`.
///
/// The probe copy holds the run's records from the *oldest* checkpoint
/// still on disk onwards, with every later checkpoint image left out — so
/// replaying the copy re-applies every journaled input since that
/// checkpoint, while replaying the run's own log restores the *newest*
/// checkpoint (an image of the live server) and applies only the tail.
/// Both must arrive at the same server state: that ties the live images,
/// the write path and the read path together in one comparison.
///
/// `None` when compaction has deleted every `Bounds` install that preceded
/// the checkpoints still on disk: the ownership table a replay would have
/// to start from is then unknown, and a replay from a guessed table
/// proves nothing.
pub fn store_probes(
    run_dir: &Path,
    probe_dir: &Path,
    ctx: &ReplayContext,
    seed: u64,
) -> Result<Option<StoreProbe>, String> {
    const FLUSH_GROUP: usize = 64;
    const TRAJECTORY_READS: usize = 200;
    let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", run_dir.display());
    let scan = store::read_log_dir(run_dir, ctx.partition).map_err(|e| io("reading", e))?;
    if scan.torn {
        return Err(format!("{}: torn tail on a clean run", run_dir.display()));
    }
    let records = &scan.records;
    // A replay is only faithful from a point where the ownership table is
    // known: the start of the log (generation 0), or any point after a
    // journaled `Bounds` install that compaction has not deleted yet.
    let complete = records.first().is_some_and(|(seq, _)| *seq == 0);
    let table_known_from = records
        .iter()
        .position(|(_, r)| matches!(r, LogRecord::Bounds { .. }))
        .or(complete.then_some(0));
    let Some(table_known_from) = table_known_from else {
        return Ok(None);
    };
    let checkpoint_after = |from: usize| {
        records[from..]
            .iter()
            .position(is_checkpoint)
            .map(|at| from + at)
    };
    let oldest = checkpoint_after(table_known_from).unwrap_or(0);
    if oldest == 0 && !complete {
        return Ok(None);
    }
    let newest = records.iter().rposition(is_checkpoint).unwrap_or(0);
    let inputs: Vec<&LogRecord> = records[oldest..]
        .iter()
        .skip(1)
        .filter(|r| !is_checkpoint(r))
        .map(|(_, r)| r)
        .collect();
    let Some((_, first)) = records.get(oldest) else {
        return Err(format!("{}: empty log", run_dir.display()));
    };

    // Write path. Automatic group flushes are switched off so an append
    // is encode + CRC + buffer only and each explicit flush writes one
    // 64-record group (tick-boundary records still flush on their own,
    // as they do in a run).
    let mut store_cfg = StoreConfig::new(probe_dir, ctx.partition);
    store_cfg.flush_every = usize::MAX;
    let probe = Store::open(store_cfg, Telemetry::new()).map_err(|e| io("opening probe for", e))?;
    // Untimed: one multi-megabyte image would drown the per-record mean.
    probe.append_record(first);
    probe.flush();
    let mut append_ns = 0u128;
    let mut flush_us = Vec::new();
    for group in inputs.chunks(FLUSH_GROUP) {
        let t = Instant::now();
        for rec in group {
            probe.append_record(rec);
        }
        append_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        probe.flush();
        flush_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    if probe.poisoned() {
        return Err("probe store poisoned by a write error".into());
    }

    // Read path: replay the copy (timed) and the original (the oracle).
    let replay = |dir: &Path, start: usize| -> Result<(u64, u64, f64), String> {
        let (mut server, mut net) = ctx.fresh_server(records, start);
        let t = Instant::now();
        let summary =
            store::replay_into(dir, ctx.partition, &mut server, &mut net, &Telemetry::new())
                .map_err(|e| format!("replaying {}: {e}", dir.display()))?;
        let secs = t.elapsed().as_secs_f64();
        Ok((server.state_digest(), summary.records_applied, secs))
    };
    let (copy_digest, copy_applied, copy_secs) = replay(probe_dir, oldest)?;
    let (run_digest, _, _) = replay(run_dir, newest)?;
    let mut outputs_match = copy_digest == run_digest && copy_applied == inputs.len() as u64 + 1;

    // Trajectory reads aimed at samples known to be in the log.
    let samples: Vec<_> = inputs.iter().filter_map(|r| r.motion_sample()).collect();
    let mut rng = Rng::new(seed ^ 0x7261_6a65_6374);
    let mut read_us = Vec::new();
    if !samples.is_empty() {
        for _ in 0..TRAJECTORY_READS {
            let (oid, motion) = samples[rng.below(samples.len())];
            let t = Instant::now();
            let hits = probe
                .trajectory(oid, motion.tm - 15.0, motion.tm + 15.0)
                .map_err(|e| io("trajectory read on probe of", e))?;
            read_us.push(t.elapsed().as_secs_f64() * 1e6);
            outputs_match &= hits.iter().any(|m| m.tm == motion.tm);
        }
    }

    Ok(Some(StoreProbe {
        append_ns_per_record: append_ns as f64 / inputs.len().max(1) as f64,
        flush_us_p50: median(&flush_us),
        replay_records_per_s: copy_applied as f64 / copy_secs.max(1e-9),
        trajectory_query_us_p50: median(&read_us),
        outputs_match,
    }))
}

/// Where one partition's on-disk log stands.
#[derive(Debug, Clone, Copy)]
pub struct LogExtent {
    /// Sequence number the next record will get: records journaled so far.
    pub end_seq: u64,
    /// Records still on disk (compaction deletes old segments).
    pub retained: u64,
}

/// The extent of each partition's log under `root` (`<root>/p<N>`).
pub fn log_extents(root: &Path, partitions: usize) -> Result<Vec<LogExtent>, String> {
    (0..partitions)
        .map(|p| {
            let dir = root.join(format!("p{p}"));
            let scan = store::read_log_dir(&dir, p as u32)
                .map_err(|e| format!("reading {}: {e}", dir.display()))?;
            Ok(LogExtent {
                end_seq: scan.records.last().map_or(0, |(seq, _)| seq + 1),
                retained: scan.records.len() as u64,
            })
        })
        .collect()
}
