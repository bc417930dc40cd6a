//! Struct-of-arrays vs seed tick-engine equivalence.
//!
//! The fast engine's contract (DESIGN.md §12): on every configuration it
//! accepts, a run under `EngineKind::Soa` is byte-identical to the seed
//! reference engine — same query results, same protocol counters,
//! histograms and events, same per-node traffic (and therefore power).
//! Only wall-clock sections (`agent.eval_nanos`, phase timers) may
//! differ, because skipping provably-inert agents is the whole point.
//! These tests pin that contract at ~2k objects across seeds, both
//! propagation modes, the grouping + safe-period optimizations, lease
//! heartbeats, a station lattice that lines up with neither the grid nor
//! the universe, and 1, 2 and 4 worker threads — plus the churn fallback
//! that invalidates and lazily rebuilds the mirror mid-run.

use mobieyes::prelude::*;
use std::collections::BTreeSet;

struct Run {
    metrics: RunMetrics,
    snapshot: MetricsSnapshot,
    results: Vec<BTreeSet<ObjectId>>,
}

/// A ~2k-object workload: big enough that the fast path's skip logic
/// carries real traffic, small enough to run the full matrix quickly.
fn config_2k(seed: u64) -> SimConfig {
    SimConfig::small_test(seed)
        .with_objects(2_000)
        .with_queries(200)
        .with_nmo(200)
}

fn run_engine(config: SimConfig, engine: EngineKind, threads: usize) -> Run {
    let mut sim = MobiEyesSim::new(config.with_engine(engine).with_threads(threads));
    assert_eq!(sim.engine(), engine);
    let metrics = sim.run();
    let snapshot = sim.telemetry().snapshot();
    let results = sim
        .query_ids()
        .iter()
        .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
        .collect();
    Run {
        metrics,
        snapshot,
        results,
    }
}

/// Asserts every deterministic (non-wall-clock) field of the run matches.
fn assert_equivalent(seed_run: &Run, soa: &Run, label: &str) {
    assert_eq!(
        seed_run.results, soa.results,
        "{label}: query results diverged"
    );
    assert!(
        seed_run.snapshot.protocol_eq(&soa.snapshot),
        "{label}: protocol metrics (counters/histograms/events) diverged"
    );
    let (a, b) = (&seed_run.metrics, &soa.metrics);
    assert_eq!(a.msgs_per_second, b.msgs_per_second, "{label}: msgs/s");
    assert_eq!(
        a.uplink_msgs_per_second, b.uplink_msgs_per_second,
        "{label}: uplink msgs/s"
    );
    assert_eq!(
        a.downlink_msgs_per_second, b.downlink_msgs_per_second,
        "{label}: downlink msgs/s"
    );
    assert_eq!(a.uplink_bytes, b.uplink_bytes, "{label}: uplink bytes");
    assert_eq!(
        a.downlink_bytes, b.downlink_bytes,
        "{label}: downlink bytes"
    );
    assert_eq!(a.avg_lqt_size, b.avg_lqt_size, "{label}: LQT size");
    assert_eq!(
        a.avg_evals_per_object_tick, b.avg_evals_per_object_tick,
        "{label}: evals/object/tick"
    );
    assert_eq!(
        a.avg_safe_period_skips, b.avg_safe_period_skips,
        "{label}: safe-period skips"
    );
    assert_eq!(
        a.avg_result_error, b.avg_result_error,
        "{label}: result error"
    );
    assert_eq!(a.avg_power_mw, b.avg_power_mw, "{label}: power");
}

fn assert_matrix(make: impl Fn(u64) -> SimConfig, seeds: &[u64], label: &str) {
    for &seed in seeds {
        let reference = run_engine(make(seed), EngineKind::Seed, 1);
        for threads in [1, 4] {
            let soa = run_engine(make(seed), EngineKind::Soa, threads);
            assert_equivalent(
                &reference,
                &soa,
                &format!("{label} seed={seed} threads={threads}"),
            );
        }
    }
}

#[test]
fn soa_matches_seed_eqp() {
    assert_matrix(config_2k, &[81, 82], "EQP");
}

#[test]
fn soa_matches_seed_lqp() {
    assert_matrix(
        |s| config_2k(s).with_propagation(Propagation::Lazy),
        &[81, 82],
        "LQP",
    );
}

#[test]
fn soa_matches_seed_with_grouping_and_safe_period() {
    // Safe periods are where the whole-agent skip actually bites; the
    // skipped agents' counter and histogram footprint must be restored
    // exactly.
    assert_matrix(
        |s| {
            config_2k(s)
                .with_propagation(Propagation::Lazy)
                .with_grouping(true)
                .with_safe_period(true)
        },
        &[83],
        "LQP+group+safe",
    );
}

#[test]
fn soa_matches_seed_under_lease_heartbeats() {
    // Heartbeat broadcasts reach every agent, turning "cold" ticks into
    // full-delivery ticks; the indexed broadcast delivery must agree with
    // the seed engine message-for-message.
    assert_matrix(|s| config_2k(s).with_lease_ticks(4), &[84], "EQP+leases");
}

#[test]
fn soa_matches_seed_with_non_aligned_stations() {
    // `alen = 7` is no multiple of `alpha = 5` and does not divide the
    // 100-mile universe: coverage circles straddle grid cells unevenly
    // and the last lattice row/column hangs over the edge, where agents
    // that overshoot the universe sit in clamped cells.
    assert_matrix(
        |s| config_2k(s).with_alen(7.0).with_safe_period(true),
        &[86],
        "EQP+safe alen=7",
    );
}

#[test]
fn soa_matches_seed_with_safe_period_and_leases_at_two_threads() {
    // Safe-period sleepers woken by heartbeat beacons, with the delivery
    // runs split at a single mid-population shard boundary.
    let make = || config_2k(87).with_safe_period(true).with_lease_ticks(4);
    let reference = run_engine(make(), EngineKind::Seed, 1);
    let soa = run_engine(make(), EngineKind::Soa, 2);
    assert_equivalent(&reference, &soa, "EQP+safe+leases threads=2");
}

#[test]
fn soa_falls_back_under_churn_and_rebuilds_after() {
    // Churn forces the seed phases (stateful fault RNG, offline radios);
    // clearing it mid-run flips back to the fast path, which must rebuild
    // its mirror from agent heap state without diverging.
    let run = |engine: EngineKind| {
        let mut sim = MobiEyesSim::new(config_2k(85).with_engine(engine).with_threads(4));
        sim.set_churn(mobieyes::net::ChurnPlan::new(
            0.05, 0.02, 0.05, 0.02, 0.05, 40, 7,
        ));
        for _ in 0..6 {
            sim.step(false);
        }
        sim.clear_faults();
        for _ in 0..10 {
            sim.step(false);
        }
        (sim.result_digest(), sim.telemetry().snapshot())
    };
    let (seed_digest, seed_snap) = run(EngineKind::Seed);
    let (soa_digest, soa_snap) = run(EngineKind::Soa);
    assert_eq!(seed_digest, soa_digest, "results diverged across churn");
    assert!(
        seed_snap.protocol_eq(&soa_snap),
        "protocol metrics diverged across the churn fallback / rebuild"
    );
}
