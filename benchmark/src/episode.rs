//! One repetition of one workload, in a process of its own: build the
//! deployment, warm it up, time every measured tick, and collect — outside
//! the timed spans — what the correctness gate and the metrics need.

use crate::hermetic::{pin_to_current_cpu, Children, ScratchRoot};
use crate::jsonio::*;
use crate::probes::{self, ReplayContext, StoreProbe};
use crate::procfs;
use crate::stats::{excess_over_median, median, percentile};
use crate::tap::{RpcSpan, Tap};
use crate::workloads::{
    Deployment, WorkloadSpec, ERROR_SAMPLE_EVERY, REBALANCE_TICKS, TWIN_TICKS, WARMUP_TICKS,
};
use mobieyes_core::object::agent_keys;
use mobieyes_core::server::srv_keys;
use mobieyes_net::meter::keys as net_keys;
use mobieyes_net::Endpoint;
use mobieyes_sim::truth::result_error;
use mobieyes_sim::{ClusterClient, MobiEyesSim};
use mobieyes_telemetry::json::{self, Value};
use mobieyes_telemetry::{rebal_keys, rec_keys, MetricsSnapshot, Phase, Telemetry, PHASES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct EpisodeArgs {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub ticks: usize,
    /// Repetition label (`0`, `1`, …, `traced`), part of the scratch name.
    pub rep: String,
    pub traced: bool,
    /// Run the workload's reference twin instead of its deployment: only
    /// the first `TWIN_TICKS` ticks, only their digests matter.
    pub twin: bool,
    pub checkpoint_ticks: usize,
    /// Directory the episode's scratch root is created under.
    pub scratch_base: PathBuf,
    /// The `mobieyes-serve` binary (remote deployments).
    pub serve: PathBuf,
    pub report: PathBuf,
    /// Where the traced episode writes its span file.
    pub trace_out: Option<PathBuf>,
}

/// What one episode hands back to the run that spawned it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpisodeReport {
    pub setup_s: f64,
    pub tick_ms: Vec<f64>,
    /// Result digest after each of the first `TWIN_TICKS` measured ticks.
    pub digests: Vec<u64>,
    pub final_digest: u64,
    /// Every protocol counter's growth over the measured window
    /// (coordinator sink, plus the cluster's bus sink under `bus:`).
    /// Deterministic for a `(workload, seed, ticks)` triple.
    pub counters: BTreeMap<String, f64>,
    /// Mean result error over all queries, one entry per sampled tick.
    pub error_samples: Vec<f64>,
    /// CPU milliseconds over the timed segments.
    pub cpu_ms_coordinator: f64,
    pub cpu_ms_partitions: Vec<f64>,
    /// Context switches of the coordinator's and the partitions' main
    /// threads over the timed segments.
    pub ctx_switches: f64,
    /// `read`/`write` syscalls (files and pipes; sockets use send/recv)
    /// of all processes over the timed segments.
    pub file_syscalls: f64,
    pub peak_rss_mb_coordinator: f64,
    pub peak_rss_mb_partitions: f64,
    /// Growth of the store root over the measured window, bytes.
    pub disk_bytes: f64,
    /// Seconds of untimed verification inside the measured window.
    pub verify_s: f64,
    /// Mean milliseconds of one exact ground-truth evaluation.
    pub truth_evaluate_ms: f64,
    /// A partition was lost, or a child exited uncleanly.
    pub lost_partition: bool,
    /// Per-layer metrics a traced episode derives from its own samples.
    pub layers: BTreeMap<String, f64>,
    /// Probe outputs disagreed with their oracle (traced episodes).
    pub probe_mismatch: bool,
}

impl EpisodeReport {
    pub fn to_json(&self) -> Value {
        obj([
            ("setup_s", num(self.setup_s)),
            ("tick_ms", nums(&self.tick_ms)),
            ("digests", hexes(&self.digests)),
            ("final_digest", hex(self.final_digest)),
            ("counters", num_map(&self.counters)),
            ("error_samples", nums(&self.error_samples)),
            ("cpu_ms_coordinator", num(self.cpu_ms_coordinator)),
            ("cpu_ms_partitions", nums(&self.cpu_ms_partitions)),
            ("ctx_switches", num(self.ctx_switches)),
            ("file_syscalls", num(self.file_syscalls)),
            ("peak_rss_mb_coordinator", num(self.peak_rss_mb_coordinator)),
            ("peak_rss_mb_partitions", num(self.peak_rss_mb_partitions)),
            ("disk_bytes", num(self.disk_bytes)),
            ("verify_s", num(self.verify_s)),
            ("truth_evaluate_ms", num(self.truth_evaluate_ms)),
            ("lost_partition", Value::Bool(self.lost_partition)),
            ("layers", num_map(&self.layers)),
            ("probe_mismatch", Value::Bool(self.probe_mismatch)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        Ok(EpisodeReport {
            setup_s: get_f64(v, "setup_s")?,
            tick_ms: get_f64s(v, "tick_ms")?,
            digests: get_hexes(v, "digests")?,
            final_digest: get_hex(v, "final_digest")?,
            counters: get_num_map(v, "counters")?,
            error_samples: get_f64s(v, "error_samples")?,
            cpu_ms_coordinator: get_f64(v, "cpu_ms_coordinator")?,
            cpu_ms_partitions: get_f64s(v, "cpu_ms_partitions")?,
            ctx_switches: get_f64(v, "ctx_switches")?,
            file_syscalls: get_f64(v, "file_syscalls")?,
            peak_rss_mb_coordinator: get_f64(v, "peak_rss_mb_coordinator")?,
            peak_rss_mb_partitions: get_f64(v, "peak_rss_mb_partitions")?,
            disk_bytes: get_f64(v, "disk_bytes")?,
            verify_s: get_f64(v, "verify_s")?,
            truth_evaluate_ms: get_f64(v, "truth_evaluate_ms")?,
            lost_partition: get_bool(v, "lost_partition")?,
            layers: get_num_map(v, "layers")?,
            probe_mismatch: get_bool(v, "probe_mismatch")?,
        })
    }
}

/// Cumulative readings of the registry a traced episode diffs per tick.
#[derive(Clone, Copy, Default)]
struct TickProbe {
    phase_ns: [u64; 5],
    uplinks: u64,
}

fn tick_probe(telemetry: &Telemetry) -> TickProbe {
    telemetry.with_registry(|r| {
        let mut phase_ns = [0u64; 5];
        for (slot, phase) in phase_ns.iter_mut().zip(PHASES) {
            *slot = r.profiler().nanos(phase);
        }
        TickProbe {
            phase_ns,
            uplinks: r.counter(srv_keys::UPLINKS),
        }
    })
}

/// One measured tick as the trace file records it.
struct TickSpan {
    start_ns: u64,
    dur_ns: u64,
    phase_ns: [u64; 5],
    uplinks: u64,
}

/// Cumulative `/proc` readings of the coordinator and its partitions,
/// accumulated over the timed segments only.
struct ProcWindow {
    pids: Vec<u32>,
    mark: Vec<[f64; 3]>,
    /// Per pid: CPU ms, context switches, I/O syscalls.
    total: Vec<[f64; 3]>,
}

impl ProcWindow {
    fn new(pids: Vec<u32>) -> Self {
        let n = pids.len();
        ProcWindow {
            pids,
            mark: vec![[0.0; 3]; n],
            total: vec![[0.0; 3]; n],
        }
    }

    fn read(pid: u32) -> [f64; 3] {
        [
            procfs::cpu_ms(pid),
            procfs::ctx_switches(pid) as f64,
            procfs::io_syscalls(pid) as f64,
        ]
    }

    fn resume(&mut self) {
        for (m, &pid) in self.mark.iter_mut().zip(&self.pids) {
            *m = Self::read(pid);
        }
    }

    fn pause(&mut self) {
        for ((t, m), &pid) in self.total.iter_mut().zip(&self.mark).zip(&self.pids) {
            let now = Self::read(pid);
            for k in 0..3 {
                t[k] += (now[k] - m[k]).max(0.0);
            }
        }
    }
}

/// Bytes held by, and number of, regular files under `dir` (zeros when
/// it does not exist).
fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_usage(&e.path()),
            Ok(m) => (m.len(), 1),
            Err(_) => (0, 0),
        })
        .fold((0, 0), |(b, n), (db, dn)| (b + db, n + dn))
}

fn counter_growth(
    out: &mut BTreeMap<String, f64>,
    prefix: &str,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    for (key, &v) in &after.counters {
        let grown = v.saturating_sub(before.counter(key));
        out.insert(format!("{prefix}{key}"), grown as f64);
    }
}

/// Mean result error over every query against the exact ground truth,
/// and the milliseconds the ground-truth evaluation took.
fn sample_error(sim: &mut MobiEyesSim) -> (f64, f64) {
    let t = Instant::now();
    let truth = sim.ground_truth();
    let truth_ms = t.elapsed().as_secs_f64() * 1e3;
    let qids = sim.query_ids().to_vec();
    let (mut sum, mut n) = (0.0, 0usize);
    for (qid, exact) in qids.iter().zip(&truth) {
        if let Some(reported) = sim.query_result_owned(*qid) {
            sum += result_error(exact, &reported);
            n += 1;
        }
    }
    (if n == 0 { 1.0 } else { sum / n as f64 }, truth_ms)
}

/// Runs the episode and writes its report. Errors (and panics inside the
/// simulator) leave through the drop guards: children are killed and the
/// scratch root is removed on every path.
pub fn run(args: &EpisodeArgs) -> Result<(), String> {
    let epoch = Instant::now();
    let spec = args.spec;
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let root = ScratchRoot::create(&args.scratch_base, spec.name, &args.rep)
        .map_err(|e| io("creating scratch root", e))?;
    // Everything below names sockets and store directories relative to
    // the scratch root.
    std::env::set_current_dir(root.path()).map_err(|e| io("entering scratch root", e))?;
    let store_root = PathBuf::from("store");
    // The twin's fault plan must span the measured run's horizon, so it
    // is configured for `args.ticks` even though it stops early.
    let (config, deployment, ticks) = if args.twin {
        let config = spec.twin_config(args.seed, args.ticks);
        (config, Deployment::Single, TWIN_TICKS.min(args.ticks))
    } else {
        let config = spec.config(args.seed, args.ticks, &store_root, args.checkpoint_ticks);
        (config, spec.deployment, args.ticks)
    };
    let journals = spec.store && !args.twin;

    let mut children = Children::default();
    let mut taps: Vec<Tap> = Vec::new();
    let (mut sim, num_partitions) = match deployment {
        Deployment::RemoteUds { partitions } => {
            // Before anything is spawned: children and tap threads
            // inherit the affinity.
            pin_to_current_cpu()?;
            let mut endpoints = Vec::with_capacity(partitions);
            for p in 0..partitions {
                let socket = format!("p{p}.sock");
                children.spawn_partition(&args.serve, p, &socket)?;
                let mut dial = socket.clone();
                if args.traced {
                    dial = format!("t{p}.sock");
                    let tap = Tap::start(Path::new(&dial), Path::new(&socket), p as u32, epoch)
                        .map_err(|e| io("starting tap", e))?;
                    taps.push(tap);
                }
                endpoints.push(Endpoint::Uds(PathBuf::from(dial)));
            }
            let client = ClusterClient::connect(&endpoints, Duration::from_secs(10))
                .map_err(|e| format!("connecting to partitions: {e}"))?;
            (client.into_sim(config, Telemetry::new()), partitions)
        }
        Deployment::InProcess { partitions } => (MobiEyesSim::new(config), partitions),
        Deployment::Single => (MobiEyesSim::new(config), 1),
    };
    for _ in 0..WARMUP_TICKS {
        sim.step(false);
    }
    let setup_s = epoch.elapsed().as_secs_f64();

    let partition_pids = children.pids();
    let mut pids = vec![std::process::id()];
    pids.extend(&partition_pids);
    let mut window = ProcWindow::new(pids);
    let telemetry = sim.telemetry().clone();
    let before = telemetry.snapshot();
    let bus_before = sim.bus_snapshot();
    let disk_before = dir_usage(&store_root).0;
    // Where each partition's log stands (a full scan: traced runs only).
    let log_extents = || {
        if args.traced && journals {
            probes::log_extents(&store_root, num_partitions)
        } else {
            Ok(Vec::new())
        }
    };
    let seqs_before = log_extents()?;

    let mut report = EpisodeReport {
        setup_s,
        ..EpisodeReport::default()
    };
    let mut tick_spans: Vec<TickSpan> = Vec::new();
    let mut truth_ms = Vec::new();
    let mut last_probe = tick_probe(&telemetry);
    window.resume();
    for i in 0..ticks {
        let t = Instant::now();
        sim.step(false);
        let dur = t.elapsed();
        report.tick_ms.push(dur.as_secs_f64() * 1e3);
        if args.traced {
            let probe = tick_probe(&telemetry);
            let mut phase_ns = probe.phase_ns;
            for (ns, before) in phase_ns.iter_mut().zip(last_probe.phase_ns) {
                *ns -= before;
            }
            tick_spans.push(TickSpan {
                start_ns: (t - epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                phase_ns,
                uplinks: probe.uplinks - last_probe.uplinks,
            });
            last_probe = probe;
        }
        let check_digest = i < TWIN_TICKS;
        let check_error = (i + 1) % ERROR_SAMPLE_EVERY == 0;
        if check_digest || check_error {
            window.pause();
            let v = Instant::now();
            if check_digest {
                report.digests.push(sim.result_digest());
            }
            if check_error {
                let (error, ms) = sample_error(&mut sim);
                report.error_samples.push(error);
                truth_ms.push(ms);
            }
            report.verify_s += v.elapsed().as_secs_f64();
            window.resume();
        }
    }
    window.pause();

    let after = telemetry.snapshot();
    let bus_after = sim.bus_snapshot();
    report.disk_bytes = dir_usage(&store_root).0 as f64 - disk_before as f64;
    report.final_digest = sim.result_digest();
    report.peak_rss_mb_coordinator = procfs::peak_rss_mb(std::process::id());
    report.peak_rss_mb_partitions = partition_pids.iter().map(|&p| procfs::peak_rss_mb(p)).sum();
    report.cpu_ms_coordinator = window.total[0][0];
    report.cpu_ms_partitions = window.total[1..].iter().map(|t| t[0]).collect();
    report.ctx_switches = window.total.iter().map(|t| t[1]).sum();
    report.file_syscalls = window.total.iter().map(|t| t[2]).sum();
    report.truth_evaluate_ms = if truth_ms.is_empty() {
        0.0
    } else {
        truth_ms.iter().sum::<f64>() / truth_ms.len() as f64
    };
    counter_growth(&mut report.counters, "", &before, &after);
    if let (Some(b), Some(a)) = (&bus_before, &bus_after) {
        counter_growth(&mut report.counters, "bus:", b, a);
    }
    let crash_key = format!("bus:{}", rec_keys::CRASH_DETECTIONS);
    report.lost_partition = report.counters.get(&crash_key).copied().unwrap_or(0.0) > 0.0;

    let seqs_after = log_extents()?;
    let universe = sim.workload.universe;
    let sim_config = sim.config.clone();
    sim.shutdown();
    // Closes the coordinator's sockets: the taps' end of stream.
    drop(sim);
    report.lost_partition |= !children.wait_clean_exit(Duration::from_secs(10));

    if args.traced {
        let mut spans: Vec<RpcSpan> = Vec::new();
        let mut bursts: Vec<u64> = Vec::new();
        let mut max_in_flight = 0usize;
        for tap in taps {
            let trace = tap.finish().map_err(|e| io("draining tap", e))?;
            report.probe_mismatch |= trace.unmatched_replies > 0;
            max_in_flight = max_in_flight.max(trace.max_in_flight);
            spans.extend(trace.spans);
            bursts.extend(trace.burst_ns);
        }
        let in_a_tick = |at_ns: &u64| {
            let next = tick_spans.partition_point(|t| t.start_ns <= *at_ns);
            next > 0 && *at_ns <= tick_spans[next - 1].start_ns + tick_spans[next - 1].dur_ns
        };
        let bursts_in_ticks = bursts.iter().filter(|at| in_a_tick(at)).count();
        spans.sort_by_key(|s| s.start_ns);
        let rpcs = attribute_rpcs(&spans, &tick_spans);

        let store_probe = if journals {
            let ctx = ReplayContext::new(&sim_config, universe, 0, num_partitions);
            let probe = probes::store_probes(
                &store_root.join("p0"),
                Path::new("store-probe"),
                &ctx,
                args.seed,
            )?;
            report.probe_mismatch |= probe.is_some_and(|p| !p.outputs_match);
            probe
        } else {
            None
        };
        let request_p50 = percentile(
            &rpcs
                .iter()
                .map(|(_, s)| s.request_bytes as f64)
                .collect::<Vec<_>>(),
            50,
        );
        let roundtrip_us = if matches!(spec.deployment, Deployment::RemoteUds { .. }) {
            probes::socket_roundtrip_us_p50(
                Path::new("echo.sock"),
                request_p50.max(1.0) as usize,
                2000,
            )?
        } else {
            0.0
        };

        let records: f64 = seqs_after
            .iter()
            .zip(&seqs_before)
            .map(|(a, b)| a.end_seq.saturating_sub(b.end_seq) as f64)
            .sum();
        let (log_bytes, segments) = dir_usage(&store_root);
        report.layers = layer_metrics(&LayerInputs {
            args,
            report: &report,
            before: &before,
            after: &after,
            tick_spans: &tick_spans,
            rpcs: &rpcs,
            max_in_flight,
            bursts_in_ticks,
            request_p50,
            roundtrip_us,
            records,
            log_bytes,
            log_records: seqs_after.iter().map(|l| l.retained).sum(),
            segments,
            store_probe,
        });
        if let Some(path) = &args.trace_out {
            let text = trace_json(args, &tick_spans, &rpcs).to_string_compact();
            std::fs::write(path, text).map_err(|e| io("writing trace file", e))?;
        }
    }

    std::fs::write(&args.report, report.to_json().to_string_compact())
        .map_err(|e| io("writing episode report", e))?;
    drop(children);
    drop(root);
    Ok(())
}

/// Pairs each RPC span that started inside a measured tick with that
/// tick's index — the span's parent. Spans between ticks (verification
/// fetches, set-up, shutdown) have no parent and are dropped.
fn attribute_rpcs(spans: &[RpcSpan], ticks: &[TickSpan]) -> Vec<(usize, RpcSpan)> {
    let mut out = Vec::new();
    let mut tick = 0usize;
    for span in spans {
        while tick < ticks.len() && ticks[tick].start_ns + ticks[tick].dur_ns < span.start_ns {
            tick += 1;
        }
        match ticks.get(tick) {
            Some(t) if span.start_ns >= t.start_ns => out.push((tick, *span)),
            Some(_) => {}
            None => break,
        }
    }
    out
}

struct LayerInputs<'a> {
    args: &'a EpisodeArgs,
    report: &'a EpisodeReport,
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    tick_spans: &'a [TickSpan],
    rpcs: &'a [(usize, RpcSpan)],
    max_in_flight: usize,
    /// Write bursts the taps saw inside measured ticks.
    bursts_in_ticks: usize,
    request_p50: f64,
    roundtrip_us: f64,
    /// Records journaled over the measured window, all partitions.
    records: f64,
    /// Size and record count of the logs as they stand after the run
    /// (what compaction retained).
    log_bytes: u64,
    log_records: u64,
    segments: u64,
    store_probe: Option<StoreProbe>,
}

/// Zero-based measured ticks on which a duty with the given cadence ran.
fn cadence_ticks(ticks: usize, every: usize) -> impl Iterator<Item = usize> {
    (0..ticks).filter(move |i| every > 0 && (WARMUP_TICKS + i + 1).is_multiple_of(every))
}

fn layer_metrics(x: &LayerInputs) -> BTreeMap<String, f64> {
    let ticks = x.args.ticks.max(1) as f64;
    let grown = |key: &str| x.report.counters.get(key).copied().unwrap_or(0.0);
    let per_tick = |key: &str| grown(key) / ticks;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let phase_ms = |p: Phase| {
        let k = PHASES.iter().position(|&q| q == p).expect("known phase");
        x.tick_spans.iter().map(|t| t.phase_ns[k]).sum::<u64>() as f64 / 1e6 / ticks
    };
    let tick_ms_total: f64 = x.report.tick_ms.iter().sum();
    let tick_ms_mean = tick_ms_total / ticks;
    let phases: f64 = PHASES.iter().map(|&p| phase_ms(p)).sum();
    let mediation = phase_ms(Phase::Mediation);
    let ingest = phase_ms(Phase::Ingest);
    let uplinks = grown(srv_keys::UPLINKS);
    let evaluated = grown(agent_keys::EVALUATED);
    let safe_skips = grown(agent_keys::SKIPPED_SAFE_PERIOD);
    let eval_ns =
        (x.after.wall(agent_keys::EVAL_NANOS) - x.before.wall(agent_keys::EVAL_NANOS)) as f64;
    let lqt = |s: &MetricsSnapshot| {
        s.histogram(agent_keys::LQT_SIZE)
            .map_or((0.0, 0.0), |h| (h.sum, h.count as f64))
    };
    let (lqt_sum, lqt_n) = (
        lqt(x.after).0 - lqt(x.before).0,
        lqt(x.after).1 - lqt(x.before).1,
    );
    let bus_msgs: f64 = [
        net_keys::UPLINK_MSGS,
        net_keys::UNICAST_MSGS,
        net_keys::BROADCAST_MSGS,
    ]
    .iter()
    .map(|k| grown(&format!("bus:{k}")))
    .sum();
    let bus_bytes: f64 = [
        net_keys::UPLINK_BYTES,
        net_keys::UNICAST_BYTES,
        net_keys::BROADCAST_BYTES,
    ]
    .iter()
    .map(|k| grown(&format!("bus:{k}")))
    .sum();
    let clustered = !matches!(x.args.spec.deployment, Deployment::Single);
    let service_us: Vec<f64> = x
        .rpcs
        .iter()
        .map(|(_, s)| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let rpc_bytes: f64 = x
        .rpcs
        .iter()
        .map(|(_, s)| (s.request_bytes + s.reply_bytes + 8) as f64)
        .sum();
    let probe = x.store_probe.unwrap_or_default();

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("sim.mobility.ms_per_tick", phase_ms(Phase::Mobility));
    put("core.object.motion_ms_per_tick", phase_ms(Phase::Motion));
    put("core.object.process_ms_per_tick", phase_ms(Phase::Process));
    put("core.object.evals_per_tick", evaluated / ticks);
    put("core.object.eval_ns_per_eval", ratio(eval_ns, evaluated));
    put(
        "core.object.safe_period_skip_ratio",
        ratio(safe_skips, safe_skips + evaluated),
    );
    put("core.object.lqt_size_mean", ratio(lqt_sum, lqt_n));
    put("core.server.mediation_ms_per_tick", mediation);
    put("core.server.ingest_ms_per_tick", ingest);
    put("core.server.uplinks_per_tick", uplinks / ticks);
    put(
        "core.server.us_per_uplink",
        ratio((mediation + ingest) * ticks * 1e3, uplinks),
    );
    put(
        "core.server.broadcast_ops_per_tick",
        per_tick(srv_keys::BROADCAST_OPS),
    );
    put(
        "core.server.heartbeats_per_tick",
        per_tick(srv_keys::HEARTBEATS),
    );
    put("sim.tick.unattributed_ms_per_tick", tick_ms_mean - phases);
    put(
        "net.sim.uplink_msgs_per_tick",
        per_tick(net_keys::UPLINK_MSGS),
    );
    put(
        "net.sim.unicast_msgs_per_tick",
        per_tick(net_keys::UNICAST_MSGS),
    );
    put(
        "net.sim.broadcast_msgs_per_tick",
        per_tick(net_keys::BROADCAST_MSGS),
    );
    put(
        "net.sim.fault_dropped_per_tick",
        per_tick(net_keys::FAULT_DROPPED) + per_tick(net_keys::FAULT_UPLINK_DROPPED),
    );
    put("cluster.bus.msgs_per_tick", bus_msgs / ticks);
    put("cluster.bus.bytes_per_tick", bus_bytes / ticks);
    put(
        "cluster.rebalance.fence_ms",
        if clustered {
            excess_over_median(
                &x.report.tick_ms,
                cadence_ticks(x.args.ticks, REBALANCE_TICKS),
            )
        } else {
            0.0
        },
    );
    put(
        "cluster.rebalance.installs",
        grown(&format!("bus:{}", rebal_keys::INSTALLS)),
    );
    put(
        "cluster.rpc.frames_per_tick",
        2.0 * x.rpcs.len() as f64 / ticks,
    );
    put("cluster.rpc.bytes_per_tick", rpc_bytes / ticks);
    put(
        "cluster.rpc.round_trips_per_uplink",
        ratio(x.rpcs.len() as f64, uplinks),
    );
    put("cluster.rpc.request_bytes_p50", x.request_p50);
    put("cluster.rpc.service_us_p50", percentile(&service_us, 50));
    put("cluster.rpc.service_us_p99", percentile(&service_us, 99));
    put("cluster.rpc.max_in_flight", x.max_in_flight as f64);
    // `/proc/<pid>/io` counts read/write syscalls but not the send/recv
    // pair sockets use, so socket syscalls are taken from the tap: every
    // burst is one send at the writer and at least one recv at the reader.
    put(
        "net.socket.syscalls_per_tick",
        2.0 * x.bursts_in_ticks as f64 / ticks,
    );
    put("net.socket.roundtrip_us_p50", x.roundtrip_us);
    put("store.records_per_tick", x.records / ticks);
    put(
        "store.disk_bytes_per_record",
        ratio(x.log_bytes as f64, x.log_records as f64),
    );
    put("store.segments", x.segments as f64);
    put(
        "store.checkpoint_ms",
        if x.args.spec.store {
            excess_over_median(
                &x.report.tick_ms,
                cadence_ticks(x.args.ticks, x.args.checkpoint_ticks),
            )
        } else {
            0.0
        },
    );
    put("store.append_ns_per_record", probe.append_ns_per_record);
    put("store.flush_us_p50", probe.flush_us_p50);
    put("store.replay_records_per_s", probe.replay_records_per_s);
    put(
        "store.trajectory_query_us_p50",
        probe.trajectory_query_us_p50,
    );
    put("sim.truth.evaluate_ms", x.report.truth_evaluate_ms);
    put("traced.tick_ms_p50", median(&x.report.tick_ms));
    m
}

/// Ticks whose RPC spans are written out one by one; later ticks keep
/// their per-tick RPC count only, which bounds the file at a few MB.
const TRACE_RPC_TICKS: usize = 10;

fn trace_json(args: &EpisodeArgs, ticks: &[TickSpan], rpcs: &[(usize, RpcSpan)]) -> Value {
    let mut rpcs_in_tick = vec![0u64; ticks.len()];
    for (tick, _) in rpcs {
        rpcs_in_tick[*tick] += 1;
    }
    let us = |ns: u64| num(ns as f64 / 1e3);
    let tick_values = ticks.iter().enumerate().map(|(i, t)| {
        let attributed: u64 = t.phase_ns.iter().sum();
        let mut phases: Vec<(String, Value)> = PHASES
            .iter()
            .zip(t.phase_ns)
            .map(|(p, ns)| (p.name().to_string(), us(ns)))
            .collect();
        phases.push((
            "unattributed".into(),
            us(t.dur_ns.saturating_sub(attributed)),
        ));
        obj([
            ("tick", num(i as f64)),
            ("start_us", us(t.start_ns)),
            ("dur_us", us(t.dur_ns)),
            ("phases_us", Value::Obj(phases)),
            ("uplinks", num(t.uplinks as f64)),
            ("rpcs", num(rpcs_in_tick[i] as f64)),
        ])
    });
    let rpc_values = rpcs
        .iter()
        .take_while(|(tick, _)| *tick < TRACE_RPC_TICKS)
        .map(|(tick, s)| {
            obj([
                ("parent_tick", num(*tick as f64)),
                ("conn", num(s.conn as f64)),
                ("start_us", us(s.start_ns)),
                ("dur_us", us(s.end_ns - s.start_ns)),
                ("request_bytes", num(s.request_bytes as f64)),
                ("reply_bytes", num(s.reply_bytes as f64)),
            ])
        });
    obj([
        ("workload", Value::str(args.spec.name)),
        ("seed", num(args.seed as f64)),
        (
            "clock",
            Value::str("microseconds since the traced episode started"),
        ),
        ("ticks", Value::Arr(tick_values.collect())),
        (
            "rpc_spans_ticks",
            num(TRACE_RPC_TICKS.min(ticks.len()) as f64),
        ),
        ("rpc_spans", Value::Arr(rpc_values.collect())),
    ])
}

pub fn read_report(path: &Path) -> Result<EpisodeReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    EpisodeReport::from_json(&json::parse(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(start_ns: u64, dur_ns: u64) -> TickSpan {
        TickSpan {
            start_ns,
            dur_ns,
            phase_ns: [0; 5],
            uplinks: 0,
        }
    }

    fn span(start_ns: u64) -> RpcSpan {
        RpcSpan {
            conn: 0,
            start_ns,
            end_ns: start_ns + 5,
            request_bytes: 1,
            reply_bytes: 1,
        }
    }

    #[test]
    fn rpcs_between_ticks_have_no_parent() {
        let ticks = [tick(100, 50), tick(200, 50)];
        let spans = [
            span(10),
            span(100),
            span(149),
            span(170),
            span(210),
            span(400),
        ];
        let got: Vec<(usize, u64)> = attribute_rpcs(&spans, &ticks)
            .iter()
            .map(|(t, s)| (*t, s.start_ns))
            .collect();
        assert_eq!(got, vec![(0, 100), (0, 149), (1, 210)]);
    }

    #[test]
    fn cadence_counts_from_the_first_warmup_tick() {
        // Tick index = warm-up + measured index + 1; a cadence of 25
        // first fires on measured tick 19 (the 25th step).
        let fired: Vec<usize> = cadence_ticks(60, 25).collect();
        assert_eq!(fired, vec![19, 44]);
        assert_eq!(cadence_ticks(60, 0).count(), 0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = EpisodeReport {
            setup_s: 0.731_250_001,
            tick_ms: vec![1.5, 2.25, 1e-7],
            digests: vec![u64::MAX, 0, 0xb4bc_ff16_fa12_7149],
            final_digest: 0x8921_4fbe_230e_722b,
            counters: [("net.uplink.msgs".to_string(), 123_456.0)].into(),
            error_samples: vec![0.0, 0.03125],
            cpu_ms_coordinator: 4010.0,
            cpu_ms_partitions: vec![120.0, 130.0],
            ctx_switches: 52_810.0,
            file_syscalls: 4_298.0,
            peak_rss_mb_coordinator: 181.5,
            peak_rss_mb_partitions: 12.25,
            disk_bytes: 1_048_576.0,
            verify_s: 0.25,
            truth_evaluate_ms: 8.74,
            lost_partition: false,
            layers: [("cluster.rpc.service_us_p50".to_string(), 31.4)].into(),
            probe_mismatch: true,
        };
        let text = report.to_json().to_string_compact();
        let back = EpisodeReport::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        let pretty = report.to_json().to_string_pretty();
        assert_eq!(
            EpisodeReport::from_json(&json::parse(&pretty).unwrap()).unwrap(),
            report
        );
        assert!(EpisodeReport::from_json(&json::parse("{}").unwrap()).is_err());
    }
}
