//! Sequential-vs-parallel tick-engine equivalence.
//!
//! The parallel engine's determinism contract (DESIGN.md, "Parallel
//! execution model"): at any worker-thread count the run is byte-identical
//! to the sequential engine — same uplink queue order, same protocol
//! counters/histograms/events, same query results. Only wall-clock
//! sections may differ. These tests pin that contract at 1, 2, 4 and 8
//! threads, under both eager and lazy propagation.

use mobieyes::prelude::*;
use std::collections::BTreeSet;

struct Run {
    metrics: RunMetrics,
    snapshot: MetricsSnapshot,
    results: Vec<BTreeSet<ObjectId>>,
}

fn run_with_threads(seed: u64, propagation: Propagation, threads: usize) -> Run {
    let config = SimConfig::small_test(seed)
        .with_propagation(propagation)
        .with_threads(threads);
    let mut sim = MobiEyesSim::new(config);
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
fn assert_equivalent(seq: &Run, par: &Run, label: &str) {
    assert_eq!(seq.results, par.results, "{label}: query results diverged");
    assert!(
        seq.snapshot.protocol_eq(&par.snapshot),
        "{label}: protocol metrics (counters/histograms/events) diverged"
    );
    let (a, b) = (&seq.metrics, &par.metrics);
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

#[test]
fn parallel_engine_matches_sequential_eqp() {
    let seq = run_with_threads(71, Propagation::Eager, 1);
    for threads in [2, 4, 8] {
        let par = run_with_threads(71, Propagation::Eager, threads);
        assert_equivalent(&seq, &par, &format!("EQP threads={threads}"));
    }
}

#[test]
fn parallel_engine_matches_sequential_lqp() {
    let seq = run_with_threads(72, Propagation::Lazy, 1);
    for threads in [2, 4, 8] {
        let par = run_with_threads(72, Propagation::Lazy, threads);
        assert_equivalent(&seq, &par, &format!("LQP threads={threads}"));
    }
}

#[test]
fn parallel_engine_is_deterministic_at_fixed_thread_count() {
    let a = run_with_threads(73, Propagation::Eager, 4);
    let b = run_with_threads(73, Propagation::Eager, 4);
    assert_equivalent(&a, &b, "repeat at threads=4");
}

#[test]
fn auto_thread_resolution_matches_explicit_sequential() {
    // threads = 0 resolves from MOBIEYES_THREADS / the host CPU count; the
    // outcome must be identical to an explicit single-thread run whatever
    // it resolves to.
    let seq = run_with_threads(74, Propagation::Eager, 1);
    let auto = run_with_threads(74, Propagation::Eager, 0);
    assert_equivalent(&seq, &auto, "auto threads");
}

#[test]
fn fault_injection_stays_deterministic_across_thread_counts() {
    // A non-noop fault plan forces the sequential delivery path (the plan
    // is a stateful RNG consumed in delivery order), so outcomes must stay
    // identical at any configured thread count.
    let run = |threads: usize| {
        let config = SimConfig::small_test(75).with_threads(threads);
        let mut sim = MobiEyesSim::new(config);
        sim.set_fault(mobieyes::net::FaultPlan::new(0.1, 0.05, 9));
        let metrics = sim.run();
        let snapshot = sim.telemetry().snapshot();
        (metrics.msgs_per_second, metrics.avg_result_error, snapshot)
    };
    let (msgs, err, snap) = run(1);
    for threads in [2, 4] {
        let (m, e, s) = run(threads);
        assert_eq!(msgs, m, "faulty msgs/s at threads={threads}");
        assert_eq!(err, e, "faulty error at threads={threads}");
        assert!(
            snap.protocol_eq(&s),
            "faulty protocol metrics diverged at threads={threads}"
        );
    }
}
