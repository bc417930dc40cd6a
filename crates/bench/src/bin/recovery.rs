//! Partition-crash recovery benchmark (DESIGN.md §13): kills seeded
//! victim partitions mid-run — one of 2, one of 4, two of 8 — under both
//! recovery modes (failover-only and supervised respawn) and both
//! propagation modes, then freezes mobility and measures how many ticks
//! the fenced deployment needs to reconverge to *exact* ground-truth
//! results.
//!
//! Writes `BENCH_recovery.json` with recovery-latency percentiles (in
//! ticks) across seeds plus the fence telemetry of each run (detections,
//! fences, cells failed over / re-adopted, queries re-installed). Fully
//! deterministic: the same seeds produce the same JSON on every host.
//! Set `MOBIEYES_QUICK=1` for a 2-seed smoke run.

use mobieyes_core::Propagation;
use mobieyes_net::PartitionCrashPlan;
use mobieyes_sim::{MobiEyesSim, RecoveryKind, SimConfig};
use mobieyes_telemetry::rec_keys;
use std::fmt::Write as _;

const LEASE_TICKS: usize = 6;
/// Hard cap on the recovery measurement; the convergence contract
/// (DESIGN.md §13, inherited from §8) promises `3 * lease + 2` = 20 ticks.
const MAX_RECOVERY: usize = 3 * LEASE_TICKS + 2;
/// Measured tick at which the crash plan fires.
const CRASH_TICK: u64 = 8;
/// Live-mobility ticks after the crash before the frozen measurement, so
/// recovery runs under motion first (as it would in production).
const POST_CRASH_TICKS: usize = 4;

/// (partitions, kills): one of 2, one of 4, two of 8.
const TOPOLOGIES: [(usize, usize); 3] = [(2, 1), (4, 1), (8, 2)];

struct Sample {
    seed: u64,
    /// Frozen ticks until every query matched ground truth exactly.
    recovery_ticks: usize,
    crash_detections: u64,
    fences: u64,
    cells_failed_over: u64,
    cells_readopted: u64,
    queries_reinstalled: u64,
    respawns: u64,
}

fn run_one(
    seed: u64,
    propagation: Propagation,
    partitions: usize,
    kills: usize,
    recovery: RecoveryKind,
) -> Sample {
    let config = SimConfig::small_test(seed)
        .with_propagation(propagation)
        .with_lease_ticks(LEASE_TICKS)
        .with_partitions(partitions);
    let mut sim = MobiEyesSim::new(config);
    sim.set_crash_plan(PartitionCrashPlan::seeded(
        seed,
        partitions as u32,
        kills,
        CRASH_TICK,
    ));
    sim.set_recovery(recovery);
    for _ in 0..CRASH_TICK as usize + POST_CRASH_TICKS {
        sim.step(false);
    }
    sim.freeze(true);
    let mut recovery_ticks = MAX_RECOVERY;
    for k in 0..=MAX_RECOVERY {
        let truth = sim.ground_truth();
        let qids = sim.query_ids().to_vec();
        let exact = qids
            .iter()
            .zip(&truth)
            .all(|(&q, t)| sim.query_result_owned(q).map_or(t.is_empty(), |r| &r == t));
        if exact {
            recovery_ticks = k;
            break;
        }
        sim.step(false);
    }
    let s = sim.cluster().bus_telemetry().snapshot();
    Sample {
        seed,
        recovery_ticks,
        crash_detections: s.counter(rec_keys::CRASH_DETECTIONS),
        fences: s.counter(rec_keys::FENCES),
        cells_failed_over: s.counter(rec_keys::CELLS_FAILED_OVER),
        cells_readopted: s.counter(rec_keys::CELLS_READOPTED),
        queries_reinstalled: s.counter(rec_keys::QUERIES_REINSTALLED),
        respawns: s.counter(rec_keys::RESPAWNS),
    }
}

fn percentile(sorted: &[usize], p: f64) -> usize {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let seeds: Vec<u64> = if mobieyes_bench::quick() {
        (701..703).collect()
    } else {
        (701..709).collect()
    };
    eprintln!(
        "crash-recovery bench: {} seeds, topologies {TOPOLOGIES:?}, crash tick {CRASH_TICK}, \
         lease {LEASE_TICKS} ticks",
        seeds.len()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"crash-recovery\",");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"lease_ticks\": {LEASE_TICKS}, \"crash_tick\": {CRASH_TICK}, \
         \"post_crash_ticks\": {POST_CRASH_TICKS}, \"contract_bound_ticks\": {MAX_RECOVERY}, \
         \"seeds\": {}, \"quick\": {} }},",
        seeds.len(),
        mobieyes_bench::quick()
    );
    let _ = writeln!(
        json,
        "  \"note\": \"recovery_ticks = frozen-mobility ticks after the crash+fence until every \
         query result equals the exact ground truth; the convergence contract bounds it by \
         contract_bound_ticks\","
    );
    let _ = writeln!(json, "  \"scenarios\": [");
    let modes = [("eqp", Propagation::Eager), ("lqp", Propagation::Lazy)];
    let recoveries = [RecoveryKind::Failover, RecoveryKind::Respawn];
    let total = modes.len() * recoveries.len() * TOPOLOGIES.len();
    let mut emitted = 0usize;
    for (name, propagation) in modes {
        for recovery in recoveries {
            for (partitions, kills) in TOPOLOGIES {
                let samples: Vec<Sample> = seeds
                    .iter()
                    .map(|&s| run_one(s, propagation, partitions, kills, recovery))
                    .collect();
                let mut latencies: Vec<usize> = samples.iter().map(|s| s.recovery_ticks).collect();
                latencies.sort_unstable();
                let (p50, p90, max) = (
                    percentile(&latencies, 0.5),
                    percentile(&latencies, 0.9),
                    *latencies.last().unwrap(),
                );
                println!(
                    "{name}/{recovery} {kills} of {partitions}: recovery ticks p50={p50} \
                     p90={p90} max={max} (bound {MAX_RECOVERY})"
                );
                let _ = writeln!(
                    json,
                    "    {{ \"mode\": \"{name}\", \"recovery\": \"{recovery}\", \
                     \"partitions\": {partitions}, \"kills\": {kills},"
                );
                let _ = writeln!(
                    json,
                    "      \"recovery_ticks\": {{ \"p50\": {p50}, \"p90\": {p90}, \
                     \"max\": {max} }},"
                );
                let _ = writeln!(json, "      \"runs\": [");
                for (i, s) in samples.iter().enumerate() {
                    let _ = writeln!(
                        json,
                        "        {{ \"seed\": {}, \"recovery_ticks\": {}, \
                         \"crash_detections\": {}, \"fences\": {}, \"cells_failed_over\": {}, \
                         \"cells_readopted\": {}, \"queries_reinstalled\": {}, \
                         \"respawns\": {} }}{}",
                        s.seed,
                        s.recovery_ticks,
                        s.crash_detections,
                        s.fences,
                        s.cells_failed_over,
                        s.cells_readopted,
                        s.queries_reinstalled,
                        s.respawns,
                        if i + 1 == samples.len() { "" } else { "," }
                    );
                }
                let _ = writeln!(json, "      ]");
                emitted += 1;
                let _ = writeln!(json, "    }}{}", if emitted == total { "" } else { "," });
            }
        }
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    eprintln!("wrote BENCH_recovery.json");
}
