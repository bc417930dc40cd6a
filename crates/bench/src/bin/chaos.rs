//! Chaos-recovery benchmark: drives EQP and LQP deployments through the
//! fault scenario of `tests/chaos_convergence.rs` — 30% uplink drop, 30%
//! downlink drop, 20% duplication both ways, 12% object churn (half of
//! the churned objects crashing) — then clears the faults, freezes
//! mobility and measures how many fault-free ticks the self-healing layer
//! needs to reach *exact* ground-truth results again.
//!
//! Writes `BENCH_chaos.json` with recovery-latency percentiles (in ticks)
//! across seeds, plus the stale-state telemetry of the recovery. Fully
//! deterministic: the same seeds produce the same JSON on every host.
//! Set `MOBIEYES_QUICK=1` for a 3-seed smoke run.

use mobieyes_core::Propagation;
use mobieyes_net::ChurnPlan;
use mobieyes_sim::{MobiEyesSim, SimConfig};
use std::fmt::Write as _;

const LEASE_TICKS: usize = 6;
const WARMUP: usize = 5;
const CHAOS_TICKS: usize = 10;
/// Hard cap on the recovery measurement; the convergence contract
/// (DESIGN.md §8) promises `3 * lease + 2` = 20 ticks.
const MAX_RECOVERY: usize = 3 * LEASE_TICKS + 2;

const UPLINK_DROP: f64 = 0.3;
const DOWNLINK_DROP: f64 = 0.3;
const DUP_RATE: f64 = 0.2;
const CHURN_RATE: f64 = 0.12;

struct Sample {
    seed: u64,
    /// Fault-free ticks until every query matched ground truth exactly.
    recovery_ticks: usize,
    stale_results_purged: u64,
    stale_discarded: u64,
    resync_requests: u64,
    leases_expired: u64,
}

fn run_one(seed: u64, propagation: Propagation) -> Sample {
    let config = SimConfig::small_test(seed)
        .with_propagation(propagation)
        .with_lease_ticks(LEASE_TICKS);
    let mut sim = MobiEyesSim::new(config);
    for _ in 0..WARMUP {
        sim.step(false);
    }
    sim.set_churn(ChurnPlan::new(
        UPLINK_DROP,
        DUP_RATE,
        DOWNLINK_DROP,
        DUP_RATE,
        CHURN_RATE,
        CHAOS_TICKS as u64,
        seed ^ 0xC0A5_7A11,
    ));
    for _ in 0..CHAOS_TICKS {
        sim.step(false);
    }
    sim.clear_faults();
    sim.freeze(true);
    let mut recovery_ticks = MAX_RECOVERY;
    for k in 1..=MAX_RECOVERY {
        sim.step(false);
        let truth = sim.ground_truth();
        let qids = sim.query_ids().to_vec();
        let exact = qids
            .iter()
            .zip(&truth)
            .all(|(&q, t)| sim.query_result(q).map_or(t.is_empty(), |r| r == t));
        if exact {
            recovery_ticks = k;
            break;
        }
    }
    let s = sim.telemetry().snapshot();
    Sample {
        seed,
        recovery_ticks,
        stale_results_purged: s.counter("srv.stale_results_purged"),
        stale_discarded: s.counter("agent.stale_discarded"),
        resync_requests: s.counter("agent.resync_requests"),
        leases_expired: s.counter("srv.leases_expired"),
    }
}

fn percentile(sorted: &[usize], p: f64) -> usize {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let seeds: Vec<u64> = if mobieyes_bench::quick() {
        (601..604).collect()
    } else {
        (601..613).collect()
    };
    eprintln!(
        "chaos-recovery bench: {} seeds, uplink drop {UPLINK_DROP}, downlink drop \
         {DOWNLINK_DROP}, dup {DUP_RATE}, churn {CHURN_RATE}, lease {LEASE_TICKS} ticks",
        seeds.len()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"chaos-recovery\",");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"uplink_drop\": {UPLINK_DROP}, \"downlink_drop\": {DOWNLINK_DROP}, \
         \"dup_rate\": {DUP_RATE}, \"churn_rate\": {CHURN_RATE}, \"lease_ticks\": {LEASE_TICKS}, \
         \"chaos_ticks\": {CHAOS_TICKS}, \"contract_bound_ticks\": {MAX_RECOVERY}, \"seeds\": {}, \
         \"quick\": {} }},",
        seeds.len(),
        mobieyes_bench::quick()
    );
    let _ = writeln!(
        json,
        "  \"note\": \"recovery_ticks = fault-free ticks until every query result equals the \
         exact ground truth; the convergence contract bounds it by contract_bound_ticks\","
    );
    let _ = writeln!(json, "  \"modes\": [");
    let modes = [("eqp", Propagation::Eager), ("lqp", Propagation::Lazy)];
    for (mi, (name, propagation)) in modes.iter().enumerate() {
        let samples: Vec<Sample> = seeds.iter().map(|&s| run_one(s, *propagation)).collect();
        let mut latencies: Vec<usize> = samples.iter().map(|s| s.recovery_ticks).collect();
        latencies.sort_unstable();
        let (p50, p90, max) = (
            percentile(&latencies, 0.5),
            percentile(&latencies, 0.9),
            *latencies.last().unwrap(),
        );
        println!("{name}: recovery ticks p50={p50} p90={p90} max={max} (bound {MAX_RECOVERY})");
        let _ = writeln!(json, "    {{ \"mode\": \"{name}\",");
        let _ = writeln!(
            json,
            "      \"recovery_ticks\": {{ \"p50\": {p50}, \"p90\": {p90}, \"max\": {max} }},"
        );
        let _ = writeln!(json, "      \"runs\": [");
        for (i, s) in samples.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{ \"seed\": {}, \"recovery_ticks\": {}, \"stale_results_purged\": {}, \
                 \"stale_discarded\": {}, \"resync_requests\": {}, \"leases_expired\": {} }}{}",
                s.seed,
                s.recovery_ticks,
                s.stale_results_purged,
                s.stale_discarded,
                s.resync_requests,
                s.leases_expired,
                if i + 1 == samples.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if mi + 1 == modes.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    eprintln!("wrote BENCH_chaos.json");
}
