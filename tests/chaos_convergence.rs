//! Chaos harness: EQP and LQP under combined uplink/downlink faults and
//! object churn must converge back to the *exact* ground truth within a
//! bounded number of fault-free ticks — and behave byte-identically at
//! any thread count.
//!
//! Scenario shape (mirrored by `scripts/check.sh`'s chaos smoke stage and
//! the `chaos` bench binary):
//! 1. fault-free warm-up (the install handshake resolves);
//! 2. a chaos window: 30% uplink drop, 30% downlink drop, 20% duplication
//!    on both directions, and ≥10% of objects disconnecting (half of them
//!    crashing — losing all local state);
//! 3. recovery: faults cleared, mobility frozen; the protocol must repair
//!    itself through leases, heartbeat digests and reconnect resyncs.
//!
//! Convergence contract (DESIGN.md §8): with `lease_ticks = 6` the system
//! reaches exact results within `3 * lease + 2` = 20 fault-free ticks.

use mobieyes::net::ChurnPlan;
use mobieyes::prelude::*;
use std::collections::BTreeSet;

const LEASE_TICKS: usize = 6;
const WARMUP: usize = 5;
const CHAOS_TICKS: usize = 10;
/// Documented convergence bound: three lease periods (expiry of crashed
/// focal leases, re-announce, re-install handshake) plus delivery slack.
const CONVERGE_BOUND: usize = 3 * LEASE_TICKS + 2;

const UPLINK_DROP: f64 = 0.3;
const DOWNLINK_DROP: f64 = 0.3;
const DUP_RATE: f64 = 0.2;
const CHURN_RATE: f64 = 0.12;

struct ChaosRun {
    /// Fault-free ticks until every query matched ground truth exactly.
    converged_at: Option<usize>,
    results: Vec<BTreeSet<ObjectId>>,
    snapshot: MetricsSnapshot,
}

fn converged(sim: &mut MobiEyesSim) -> bool {
    let truth = sim.ground_truth();
    let qids: Vec<QueryId> = sim.query_ids().to_vec();
    qids.iter()
        .zip(&truth)
        .all(|(&q, t)| sim.query_result(q).map_or(t.is_empty(), |r| r == t))
}

fn run_chaos(seed: u64, propagation: Propagation, threads: usize) -> ChaosRun {
    let config = SimConfig::small_test(seed)
        .with_propagation(propagation)
        .with_threads(threads)
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
    let mut converged_at = None;
    for k in 1..=CONVERGE_BOUND {
        sim.step(false);
        if converged(&mut sim) {
            converged_at = Some(k);
            break;
        }
    }
    let results = sim
        .query_ids()
        .iter()
        .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
        .collect();
    ChaosRun {
        converged_at,
        results,
        snapshot: sim.telemetry().snapshot(),
    }
}

#[test]
fn eqp_converges_to_exact_truth_after_chaos() {
    for seed in [501, 502] {
        let run = run_chaos(seed, Propagation::Eager, 1);
        assert!(
            run.converged_at.is_some(),
            "EQP seed {seed}: not exact within {CONVERGE_BOUND} fault-free ticks"
        );
    }
}

#[test]
fn lqp_converges_to_exact_truth_after_chaos() {
    for seed in [511, 512] {
        let run = run_chaos(seed, Propagation::Lazy, 1);
        assert!(
            run.converged_at.is_some(),
            "LQP seed {seed}: not exact within {CONVERGE_BOUND} fault-free ticks"
        );
    }
}

#[test]
fn chaos_runs_are_identical_across_thread_counts() {
    for propagation in [Propagation::Eager, Propagation::Lazy] {
        let seq = run_chaos(521, propagation, 1);
        let par = run_chaos(521, propagation, 4);
        assert_eq!(
            seq.converged_at, par.converged_at,
            "{propagation:?}: recovery latency diverged across threads"
        );
        assert_eq!(
            seq.results, par.results,
            "{propagation:?}: results diverged across threads"
        );
        assert!(
            seq.snapshot.protocol_eq(&par.snapshot),
            "{propagation:?}: protocol telemetry diverged across threads"
        );
    }
}

#[test]
fn chaos_exercises_the_fault_machinery() {
    let run = run_chaos(531, Propagation::Eager, 1);
    let s = &run.snapshot;
    assert!(
        s.counter("net.fault.uplink_dropped") > 0,
        "uplink faults never fired"
    );
    assert!(
        s.counter("net.fault.dropped") > 0,
        "downlink faults never fired"
    );
    assert!(s.counter("srv.heartbeats") > 0, "heartbeats never fired");
    assert!(
        s.counter("agent.resync_requests") > 0,
        "no agent ever requested a resync"
    );
}
