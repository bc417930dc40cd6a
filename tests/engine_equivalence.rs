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
//! the universe, and 1, 2 and 4 worker threads — quiet steps and chaos
//! steps (churn, lossy and duplicating links both ways, the plan cleared
//! mid-run) alike: the SoA engine takes every step, and the seed phases,
//! which share none of its delivery code, are the oracle.

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

/// Chaos steps before the plan is cleared mid-run, and calm steps after
/// it (agents still offline rejoin on the first of those).
const CHAOS_TICKS: usize = 12;
const CALM_TICKS: usize = 8;

struct ChaosRun {
    /// Result digest after every step.
    digests: Vec<u64>,
    snapshot: MetricsSnapshot,
    /// Per chaos step: what the agent phases touched, and whether the
    /// server sent a heartbeat beacon (heard by every online agent).
    work: Vec<(TickWork, bool)>,
}

/// The `mono_chaos` fault shape: 10 % loss each way, 5 % duplication,
/// 5 % churn (half of it crashes) — armed mid-run, then cleared.
fn chaos_run(config: SimConfig, engine: EngineKind, threads: usize) -> ChaosRun {
    let mut sim = MobiEyesSim::new(config.with_engine(engine).with_threads(threads));
    let heartbeats = |sim: &MobiEyesSim| sim.telemetry().snapshot().counter("srv.heartbeats");
    let (mut digests, mut work) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        sim.step(false);
        digests.push(sim.result_digest());
    }
    sim.set_churn(mobieyes::net::ChurnPlan::new(
        0.10, 0.05, 0.10, 0.05, 0.05, 40, 7,
    ));
    for _ in 0..CHAOS_TICKS {
        let before = heartbeats(&sim);
        sim.step(false);
        digests.push(sim.result_digest());
        work.push((sim.tick_work(), heartbeats(&sim) > before));
    }
    sim.clear_faults();
    for _ in 0..CALM_TICKS {
        sim.step(false);
        digests.push(sim.result_digest());
    }
    ChaosRun {
        digests,
        snapshot: sim.telemetry().snapshot(),
        work,
    }
}

/// SoA at 1, 2 and 4 threads against the seed phases on the same chaos
/// schedule: per-tick results, protocol counters and histograms, and the
/// event sequence (fault drops and duplicates, offline/online
/// transitions, everything the agents and the server log) must all
/// agree — the seed engine pulls every inbox through
/// `NetworkSim::deliver`, the SoA engine pre-filters its push-built run
/// list, and the fault RNG must come out consumed in the same order.
fn assert_chaos_matrix(make: impl Fn() -> SimConfig, label: &str) {
    let n = make().num_objects;
    let reference = chaos_run(make(), EngineKind::Seed, 1);
    assert!(
        reference.snapshot.counter("net.fault.dropped") > 0
            && reference.snapshot.counter("net.fault.duplicated") > 0
            && reference.snapshot.counter("agent.resync_requests") > 0,
        "{label}: the plan must drop, duplicate and churn"
    );
    for threads in [1, 2, 4] {
        let soa = chaos_run(make(), EngineKind::Soa, threads);
        assert_eq!(
            reference.digests, soa.digests,
            "{label} threads={threads}: per-tick result digests diverged"
        );
        assert!(
            reference.snapshot.protocol_eq(&soa.snapshot),
            "{label} threads={threads}: protocol metrics or event sequence diverged"
        );
        // The non-quiet step follows activity: unless a heartbeat beacon
        // reached everyone, some agents are never looked at, and the
        // motion phase runs only cell-crossers, focals and rejoiners (the
        // seed phases touch the whole online population, ~95 % here).
        let quiet_air: Vec<&TickWork> = soa
            .work
            .iter()
            .filter(|(_, beacon)| !beacon)
            .map(|(w, _)| w)
            .collect();
        assert!(!quiet_air.is_empty(), "{label}: no non-beacon chaos tick");
        for w in quiet_air {
            assert!(
                w.cold > 0 && w.process_visited < n && w.motion_touched < n / 2,
                "{label} threads={threads}: a non-beacon chaos tick ran everyone: {w:?}"
            );
        }
    }
}

#[test]
fn soa_matches_seed_under_chaos_eqp() {
    assert_chaos_matrix(|| config_2k(85), "EQP chaos");
}

#[test]
fn soa_matches_seed_under_chaos_lqp_with_leases() {
    // The `mono_chaos` benchmark shape at 2k objects: heartbeat beacons,
    // LqtSync answers from every online agent, fresh resyncs and lease
    // expiries on top of the lossy links.
    assert_chaos_matrix(
        || {
            let mut c = config_2k(88)
                .with_propagation(Propagation::Lazy)
                .with_lease_ticks(6);
            c.area = c.num_objects as f64 * 10.0;
            c
        },
        "LQP+leases chaos",
    );
}
