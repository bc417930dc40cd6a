//! Cluster-scaling benchmark: runs the same deployment over 1, 2, 4 and 8
//! grid-sharded server partitions and records how the server-side load —
//! uplinks handled per partition and resident SQT entries — divides as the
//! partition count grows, plus the inter-server bus traffic that sharding
//! introduces (focal migrations and remote-region stub synchronization).
//!
//! Every partition count is also checked against the single-server run:
//! per-query results must be identical and the protocol telemetry must
//! compare equal under `MetricsSnapshot::protocol_eq`, so the bench doubles
//! as an end-to-end equivalence gate. Fully deterministic: the same seeds
//! produce the same JSON on every host and at every `MOBIEYES_THREADS`
//! setting. Writes `BENCH_cluster.json`. Set `MOBIEYES_QUICK=1` for a
//! smaller smoke run.

use mobieyes_core::ObjectId;
use mobieyes_sim::{ClusterClient, HostedPartitions, MobiEyesSim, SimConfig};
use mobieyes_telemetry::{MetricsSnapshot, Telemetry};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Duration;

const PARTITIONS: &[usize] = &[1, 2, 4, 8];
const WARMUP: usize = 4;
/// Rebalance cadence for the skew run: frequent enough to fire several
/// times inside the bench window even in quick mode.
const REBALANCE_TICKS: usize = 5;

struct Load {
    uplinks_handled: u64,
    sqt_entries: usize,
    stub_entries: usize,
}

struct Run {
    results: Vec<BTreeSet<ObjectId>>,
    snapshot: MetricsSnapshot,
    per_partition: Vec<Load>,
    bus_msgs: u64,
    bus_bytes: u64,
}

fn run_one(config: &SimConfig, partitions: usize, ticks: usize) -> Run {
    let mut sim = MobiEyesSim::new(config.clone().with_partitions(partitions));
    // Manual stepping without the post-warmup reset: uplink totals then
    // cover the whole run, matching the per-partition op counters.
    for _ in 0..WARMUP {
        sim.step(false);
    }
    for _ in 0..ticks {
        sim.step(true);
    }
    let results = sim
        .query_ids()
        .iter()
        .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
        .collect();
    let snapshot = sim.telemetry().snapshot();
    let c = sim.cluster();
    let per_partition = c
        .load_signals()
        .into_iter()
        .enumerate()
        .map(|(p, (_, queries, stubs))| Load {
            uplinks_handled: c.partition_ops(p),
            sqt_entries: queries as usize,
            stub_entries: stubs as usize,
        })
        .collect();
    let meter = c.bus_meter();
    let (bus_msgs, bus_bytes) = (meter.total_msgs(), meter.total_bytes());
    Run {
        results,
        snapshot,
        per_partition,
        bus_msgs,
        bus_bytes,
    }
}

struct RebalanceRun {
    results: Vec<BTreeSet<ObjectId>>,
    snapshot: MetricsSnapshot,
    map_generation: u64,
    /// Per-partition primary uplinks handled after the first map install —
    /// the window where the load-driven bounds are in effect.
    window_ops: Vec<u64>,
}

/// Steps a rebalancing deployment through warm-up and `ticks` measured
/// ticks; returns the per-partition primary uplinks handled after the
/// first map install.
fn step_rebalanced(sim: &mut MobiEyesSim, partitions: usize, ticks: usize) -> Vec<u64> {
    let ops = |sim: &MobiEyesSim| -> Vec<u64> {
        (0..partitions)
            .map(|p| sim.cluster().partition_ops(p))
            .collect()
    };
    let mut base: Option<Vec<u64>> = None;
    for i in 0..WARMUP + ticks {
        sim.step(i >= WARMUP);
        if base.is_none() && sim.cluster().map_generation() > 0 {
            base = Some(ops(sim));
        }
    }
    let base = base.expect("rebalance cadence must fire inside the bench window");
    ops(sim).iter().zip(&base).map(|(now, b)| now - b).collect()
}

/// Runs `partitions` servers with periodic load-driven rebalancing and
/// measures how evenly the primary-uplink load divides once the first
/// recomputed partition map is installed.
fn run_rebalanced(config: &SimConfig, partitions: usize, ticks: usize) -> RebalanceRun {
    let mut sim = MobiEyesSim::new(
        config
            .clone()
            .with_partitions(partitions)
            .with_rebalance_ticks(REBALANCE_TICKS),
    );
    let window_ops = step_rebalanced(&mut sim, partitions, ticks);
    RebalanceRun {
        results: sim
            .query_ids()
            .iter()
            .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
            .collect(),
        snapshot: sim.telemetry().snapshot(),
        map_generation: sim.cluster().map_generation(),
        window_ops,
    }
}

/// Same measurement as [`run_rebalanced`], but against live partition
/// services behind real Unix sockets: the quiesce / install / RQI-transfer
/// fence rides the framed RPC surface instead of the in-process bus.
fn run_rebalanced_remote(config: &SimConfig, partitions: usize, ticks: usize) -> RebalanceRun {
    let hosted = HostedPartitions::spawn(partitions, true).expect("spawn partition services");
    let client = ClusterClient::connect(hosted.endpoints(), Duration::from_secs(10))
        .expect("connect to hosted partitions");
    let mut sim = client.into_sim(
        config.clone().with_rebalance_ticks(REBALANCE_TICKS),
        Telemetry::new(),
    );
    let window_ops = step_rebalanced(&mut sim, partitions, ticks);
    let run = RebalanceRun {
        results: sim
            .query_ids()
            .iter()
            .map(|&q| sim.query_result_owned(q).unwrap_or_default())
            .collect(),
        snapshot: sim.telemetry().snapshot(),
        map_generation: sim.cluster().map_generation(),
        window_ops,
    };
    sim.shutdown();
    hosted.join().expect("partition services exit cleanly");
    run
}

/// Load skew: heaviest partition over lightest (1.0 = perfectly even).
fn skew(ops: &[u64]) -> f64 {
    let max = ops.iter().copied().max().unwrap_or(0);
    let min = ops.iter().copied().min().unwrap_or(0).max(1);
    max as f64 / min as f64
}

fn main() {
    let quick = mobieyes_bench::quick();
    let (config, ticks) = if quick {
        (SimConfig::small_test(701), 10)
    } else {
        (
            SimConfig::small_test(701)
                .with_objects(2000)
                .with_queries(200)
                .with_nmo(200),
            20,
        )
    };
    eprintln!(
        "cluster-scaling bench: {} objects, {} queries, {} ticks, partitions {PARTITIONS:?}",
        config.num_objects, config.num_queries, ticks
    );

    let runs: Vec<Run> = PARTITIONS
        .iter()
        .map(|&n| run_one(&config, n, ticks))
        .collect();
    let reference = &runs[0];

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"cluster-scaling\",");
    let _ = writeln!(json, "  {},", mobieyes_bench::host_fields());
    let _ = writeln!(
        json,
        "  \"config\": {{ \"objects\": {}, \"queries\": {}, \"ticks\": {ticks}, \
         \"warmup\": {WARMUP}, \"seed\": {}, \"quick\": {quick} }},",
        config.num_objects, config.num_queries, config.seed
    );
    let _ = writeln!(
        json,
        "  \"note\": \"uplinks_handled counts the uplinks a partition processed as primary over \
         the whole run; sqt/stub entries are resident table sizes at the end; every partition \
         count is asserted byte-identical (results + protocol telemetry) to n = 1\","
    );
    let _ = writeln!(json, "  \"partitions\": [");
    for (i, (&n, run)) in PARTITIONS.iter().zip(&runs).enumerate() {
        // Equivalence gate: results and protocol telemetry must match the
        // single-server reference exactly.
        assert_eq!(
            reference.results, run.results,
            "query results diverged at {n} partitions"
        );
        assert!(
            reference.snapshot.protocol_eq(&run.snapshot),
            "protocol telemetry diverged at {n} partitions"
        );
        let max_uplinks = run
            .per_partition
            .iter()
            .map(|l| l.uplinks_handled)
            .max()
            .unwrap_or(0);
        let max_sqt = run
            .per_partition
            .iter()
            .map(|l| l.sqt_entries)
            .max()
            .unwrap_or(0);
        println!(
            "n={n}: max uplinks/partition {max_uplinks}, max SQT entries {max_sqt}, \
             bus {} msgs / {} bytes",
            run.bus_msgs, run.bus_bytes
        );
        let _ = writeln!(json, "    {{ \"n\": {n},");
        let _ = writeln!(
            json,
            "      \"max_uplinks_handled\": {max_uplinks}, \"max_sqt_entries\": {max_sqt},"
        );
        let _ = writeln!(
            json,
            "      \"bus_msgs\": {}, \"bus_bytes\": {},",
            run.bus_msgs, run.bus_bytes
        );
        let _ = writeln!(json, "      \"per_partition\": [");
        for (p, l) in run.per_partition.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{ \"partition\": {p}, \"uplinks_handled\": {}, \"sqt_entries\": {}, \
                 \"stub_entries\": {} }}{}",
                l.uplinks_handled,
                l.sqt_entries,
                l.stub_entries,
                if p + 1 == run.per_partition.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 == PARTITIONS.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");

    // Load-skew measurement: the widest deployment again, now with the
    // partition map recomputed from observed per-cell load every
    // REBALANCE_TICKS ticks. Rebalancing must leave results and protocol
    // telemetry untouched and flatten the per-partition uplink split.
    let widest_n = *PARTITIONS.last().unwrap();
    let rebalanced = run_rebalanced(&config, widest_n, ticks);
    assert_eq!(
        reference.results, rebalanced.results,
        "rebalancing changed query results at {widest_n} partitions"
    );
    assert!(
        reference.snapshot.protocol_eq(&rebalanced.snapshot),
        "rebalancing changed protocol telemetry at {widest_n} partitions"
    );
    let static_ops: Vec<u64> = runs
        .last()
        .expect("at least one partition count")
        .per_partition
        .iter()
        .map(|l| l.uplinks_handled)
        .collect();
    let skew_before = skew(&static_ops);
    let skew_after = skew(&rebalanced.window_ops);
    println!(
        "n={widest_n} rebalanced: map generation {}, uplink skew {skew_before:.4} -> {skew_after:.4}",
        rebalanced.map_generation
    );
    assert!(
        skew_after < skew_before,
        "rebalancing must flatten the uplink split ({skew_before:.4} -> {skew_after:.4})"
    );
    if !quick {
        assert!(
            skew_after <= 1.15,
            "post-rebalance skew target missed: {skew_after:.4} > 1.15 at n={widest_n}"
        );
    }
    let _ = writeln!(
        json,
        "  \"rebalance\": {{ \"n\": {widest_n}, \"rebalance_ticks\": {REBALANCE_TICKS}, \
         \"map_generation\": {}, \"skew_before\": {skew_before:.4}, \
         \"skew_after\": {skew_after:.4} }},",
        rebalanced.map_generation
    );

    // The same skew measurement over real sockets: live partition services
    // behind Unix-domain endpoints, the rebalance fence running as RPCs.
    // Load planning is coordinator-side and deployment-independent, so the
    // remote run must install the identical generations and land on the
    // identical post-install uplink split as the in-process run above.
    let remote = run_rebalanced_remote(&config, widest_n, ticks);
    assert_eq!(
        reference.results, remote.results,
        "remote rebalancing changed query results at {widest_n} partitions"
    );
    // No protocol_eq gate here: server-side protocol counters accumulate
    // inside the remote partition services, not the coordinator's sink.
    // Results plus the coordinator-side op split are the remote gates.
    assert_eq!(
        rebalanced.map_generation, remote.map_generation,
        "remote deployment installed a different generation count"
    );
    assert_eq!(
        rebalanced.window_ops, remote.window_ops,
        "remote post-install uplink split diverged from in-process"
    );
    let skew_remote = skew(&remote.window_ops);
    println!(
        "n={widest_n} rebalanced over sockets: map generation {}, uplink skew \
         {skew_before:.4} -> {skew_remote:.4}",
        remote.map_generation
    );
    let _ = writeln!(
        json,
        "  \"rebalance_remote\": {{ \"n\": {widest_n}, \"rebalance_ticks\": {REBALANCE_TICKS}, \
         \"transport\": \"uds\", \"map_generation\": {}, \"skew_before\": {skew_before:.4}, \
         \"skew_after\": {skew_remote:.4} }}",
        remote.map_generation
    );
    let _ = writeln!(json, "}}");

    // The point of sharding: per-partition load must actually divide.
    let max_load = |run: &Run| {
        run.per_partition
            .iter()
            .map(|l| l.uplinks_handled)
            .max()
            .unwrap_or(0)
    };
    let max_sqt = |run: &Run| {
        run.per_partition
            .iter()
            .map(|l| l.sqt_entries)
            .max()
            .unwrap_or(0)
    };
    let single = &runs[0];
    let widest = runs.last().expect("at least one partition count");
    assert!(
        max_load(widest) < max_load(single),
        "per-partition uplink load must decrease with the partition count \
         ({} at n={} vs {} at n=1)",
        max_load(widest),
        PARTITIONS.last().unwrap(),
        max_load(single)
    );
    assert!(
        max_sqt(widest) < max_sqt(single),
        "per-partition SQT residency must decrease with the partition count"
    );

    std::fs::write("BENCH_cluster.json", &json).expect("write BENCH_cluster.json");
    eprintln!("wrote BENCH_cluster.json");
}
