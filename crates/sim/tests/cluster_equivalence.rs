//! The partitioned tier's headline invariant: for any seed and fault
//! plan, an N-partition deployment produces byte-identical per-tick query
//! results, result-change uplink counts and protocol telemetry to the
//! single-server deployment — at any thread count of the tick engine,
//! with or without periodic load-driven partition-map rebalancing.
//!
//! The reference run is `partitions = 1`, the paper's single server. It
//! runs the same coordinator as every other row, so this file proves that
//! the partition count does not matter; that the one-partition reference
//! still computes what the separate single-server path it replaced
//! computed is proved by `tests/monolith_pin.rs`, which pins its per-tick
//! result digests and `srv.*` / `net.*` counters to captured numbers.
//! Each cluster run is stepped tick by tick against the reference's
//! captured per-tick result sets, then the final protocol snapshots are
//! compared with
//! [`MetricsSnapshot::protocol_eq`](mobieyes_telemetry::MetricsSnapshot::protocol_eq).

use mobieyes_core::server::srv_keys;
use mobieyes_core::{ObjectId, Propagation};
use mobieyes_net::PartitionCrashPlan;
use mobieyes_sim::{MobiEyesSim, RecoveryKind, SimConfig};
use mobieyes_telemetry::{rebal_keys, rec_keys, MetricsSnapshot};
use std::collections::BTreeSet;

/// Ticks stepped in every run (warm-up is part of the comparison: the
/// handshake traffic must match too).
const TICKS: usize = 12;

fn base_config(seed: u64, propagation: Propagation, chaos: bool) -> SimConfig {
    let c = SimConfig::small_test(seed).with_propagation(propagation);
    if !chaos {
        return c;
    }
    // Chaos rows keep Table 1's tick counts: the fault plan's window
    // spans warm-up plus measured ticks.
    SimConfig {
        ticks: SimConfig::default().ticks,
        warmup_ticks: SimConfig::default().warmup_ticks,
        uplink_drop: 0.12,
        downlink_drop: 0.08,
        dup_rate: 0.05,
        churn_rate: 0.10,
        ..c.with_lease_ticks(4)
    }
}

struct Trace {
    /// `results[tick][query]` — every query's result set after each tick.
    results: Vec<Vec<BTreeSet<ObjectId>>>,
    snapshot: MetricsSnapshot,
    /// Final partition-map generation (0 for runs that never
    /// rebalanced, the one-partition reference among them).
    map_generation: u64,
}

fn run_traced(config: SimConfig) -> Trace {
    let mut sim = MobiEyesSim::new(config);
    let mut results = Vec::with_capacity(TICKS);
    for _ in 0..TICKS {
        sim.step(true);
        results.push(
            sim.query_ids()
                .iter()
                .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
                .collect(),
        );
    }
    let map_generation = sim.cluster().map_generation();
    Trace {
        results,
        snapshot: sim.telemetry().snapshot(),
        map_generation,
    }
}

fn assert_equivalent(seed: u64, propagation: Propagation, chaos: bool) {
    let reference = run_traced(base_config(seed, propagation, chaos));
    assert!(
        reference.snapshot.counter(srv_keys::RESULT_UPDATES) > 0,
        "reference run must exercise result reporting (seed {seed})"
    );
    // (partitions, threads, rebalance cadence). The rebalancing rows prove
    // the headline invariant of the load balancer: recomputing the
    // partition map mid-run from observed load must not change a single
    // result byte or protocol counter.
    let matrix = [
        (2usize, 1usize, 0usize),
        (2, 4, 0),
        (4, 1, 0),
        (4, 4, 0),
        (2, 1, 3),
        (4, 4, 3),
    ];
    for (partitions, threads, rebalance) in matrix {
        let config = base_config(seed, propagation, chaos)
            .with_partitions(partitions)
            .with_threads(threads)
            .with_rebalance_ticks(rebalance);
        let run = run_traced(config);
        for (tick, (a, b)) in reference.results.iter().zip(&run.results).enumerate() {
            assert_eq!(
                a, b,
                "per-tick results diverged: seed {seed} {propagation:?} chaos={chaos} \
                 partitions={partitions} threads={threads} rebalance={rebalance} tick {tick}"
            );
        }
        assert_eq!(
            reference.snapshot.counter(srv_keys::RESULT_UPDATES),
            run.snapshot.counter(srv_keys::RESULT_UPDATES),
            "result-change uplink count diverged: seed {seed} partitions={partitions} \
             rebalance={rebalance}"
        );
        assert!(
            reference.snapshot.protocol_eq(&run.snapshot),
            "protocol telemetry diverged: seed {seed} {propagation:?} chaos={chaos} \
             partitions={partitions} threads={threads} rebalance={rebalance}"
        );
        if rebalance > 0 {
            assert!(
                run.map_generation > 0,
                "rebalance cadence never installed a new map generation: seed {seed} \
                 partitions={partitions} rebalance={rebalance}"
            );
        }
    }
}

#[test]
fn eqp_fault_free_matches_single_server() {
    for seed in [61, 62] {
        assert_equivalent(seed, Propagation::Eager, false);
    }
}

#[test]
fn lqp_fault_free_matches_single_server() {
    for seed in [63, 64] {
        assert_equivalent(seed, Propagation::Lazy, false);
    }
}

#[test]
fn eqp_chaos_matches_single_server() {
    for seed in [65, 66] {
        assert_equivalent(seed, Propagation::Eager, true);
    }
}

#[test]
fn lqp_chaos_matches_single_server() {
    for seed in [67, 68] {
        assert_equivalent(seed, Propagation::Lazy, true);
    }
}

/// The driver surface of a partitioned run: queries get answered, the
/// cross-partition invariants hold after it, and border handoffs put
/// traffic on the inter-server bus.
#[test]
fn partitioned_runs_answer_queries_and_use_the_bus() {
    let mut sim = MobiEyesSim::new(SimConfig::small_test(41).with_partitions(2));
    sim.run();
    let total: usize = sim
        .query_ids()
        .iter()
        .filter_map(|&q| sim.query_result(q))
        .map(|r| r.len())
        .sum();
    assert!(total > 0, "no query produced any result");
    sim.cluster().check_invariants();

    let mut sim = MobiEyesSim::new(SimConfig::small_test(42).with_partitions(4));
    sim.run();
    assert!(
        sim.cluster().bus_meter().total_msgs() > 0,
        "a 4-partition run must migrate state across borders"
    );
}

// --- partition crash recovery (DESIGN.md §13) ---

/// Lease duration for the crash runs; heartbeats fire every 3 ticks.
const LEASE_TICKS: usize = 6;
/// The §13 convergence contract: after the last fence, with mobility
/// frozen, every result set is exact within three leases plus the
/// digest-beacon round trip.
const MAX_RECOVERY: usize = 3 * LEASE_TICKS + 2;
/// Tick boundary at which the crash plan fires (after the warm-up
/// handshake has settled and some measured ticks have run).
const CRASH_TICK: u64 = 8;
/// Ticks stepped after the crash before the convergence phase, so the
/// run exercises recovery under live mobility first.
const POST_CRASH_TICKS: usize = 4;

fn crash_config(seed: u64, propagation: Propagation, partitions: usize) -> SimConfig {
    SimConfig::small_test(seed)
        .with_propagation(propagation)
        .with_lease_ticks(LEASE_TICKS)
        .with_partitions(partitions)
}

struct CrashTrace {
    /// Per-tick results for the live (pre-freeze) phase.
    results: Vec<Vec<BTreeSet<ObjectId>>>,
    /// Ticks of frozen mobility needed to reach exact ground truth.
    converged_after: usize,
    digest: u64,
    /// The coordinator's private sink (`rebal.*` / `rec.*`) at the end.
    bus: MetricsSnapshot,
    /// Inter-server bus traffic over the whole run: `(msgs, bytes)`.
    bus_traffic: (u64, u64),
}

fn collect_results(sim: &MobiEyesSim) -> Vec<BTreeSet<ObjectId>> {
    sim.query_ids()
        .iter()
        .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
        .collect()
}

fn matches_truth(sim: &MobiEyesSim, truth: &[BTreeSet<ObjectId>]) -> bool {
    sim.query_ids()
        .iter()
        .zip(truth)
        .all(|(&q, t)| sim.query_result(q).map(|r| r == t).unwrap_or(t.is_empty()))
}

/// Runs a deployment through a deterministic partition crash and the
/// configured recovery mode, asserting the §13 contract: the dead
/// partitions are fenced, their cells reassigned, and — once mobility is
/// frozen — every result set reconverges *exactly* to ground truth
/// within [`MAX_RECOVERY`] ticks.
fn run_crash_traced(
    config: SimConfig,
    kills: usize,
    recovery: RecoveryKind,
    threads: usize,
) -> CrashTrace {
    let partitions = config.partitions;
    let seed = config.seed;
    let plan = PartitionCrashPlan::seeded(seed, partitions as u32, kills, CRASH_TICK);
    let victims = plan.victims.clone();
    let mut sim = MobiEyesSim::new(config.with_threads(threads));
    sim.set_audit(true);
    sim.set_crash_plan(plan);
    sim.set_recovery(recovery);
    let mut results = Vec::new();
    for _ in 0..CRASH_TICK as usize + POST_CRASH_TICKS {
        sim.step(false);
        results.push(collect_results(&sim));
    }
    match recovery {
        RecoveryKind::Failover => {
            assert_eq!(
                sim.cluster().dead_partitions(),
                victims,
                "victims must stay fenced off under failover (seed {seed})"
            );
        }
        RecoveryKind::Respawn => {
            assert!(
                sim.cluster().dead_partitions().is_empty(),
                "respawn must bring every victim back (seed {seed})"
            );
        }
    }
    assert!(
        sim.cluster().map_generation() > 0,
        "the failover fence must install a new map generation (seed {seed})"
    );
    // Freeze mobility and measure convergence to exact ground truth.
    sim.freeze(true);
    let truth = sim.ground_truth();
    let mut converged_after = None;
    for extra in 0..=MAX_RECOVERY {
        if matches_truth(&sim, &truth) {
            converged_after = Some(extra);
            break;
        }
        sim.step(false);
    }
    let converged_after = converged_after.unwrap_or_else(|| {
        panic!(
            "results did not reconverge to ground truth within {MAX_RECOVERY} frozen ticks: \
             seed {seed} partitions={partitions} kills={kills} recovery={recovery}"
        )
    });
    let meter = sim.cluster().bus_meter();
    CrashTrace {
        results,
        converged_after,
        digest: sim.result_digest(),
        bus: sim.bus_snapshot().expect("partitioned deployment"),
        bus_traffic: (meter.total_msgs(), meter.total_bytes()),
    }
}

fn assert_crash_recovery(propagation: Propagation, recovery: RecoveryKind) {
    // (seed, partitions, kills): one of 2, one of 4, two of 8.
    for (seed, partitions, kills) in [(71u64, 2usize, 1usize), (72, 4, 1), (73, 8, 2)] {
        let trace = run_crash_traced(
            crash_config(seed, propagation, partitions),
            kills,
            recovery,
            1,
        );
        assert!(
            trace.converged_after <= MAX_RECOVERY,
            "convergence bound violated: {} > {MAX_RECOVERY}",
            trace.converged_after
        );
        // The tick engine's headline invariant survives the crash path:
        // the same scenario is byte-identical at four worker threads.
        let threaded = run_crash_traced(
            crash_config(seed, propagation, partitions),
            kills,
            recovery,
            4,
        );
        assert_eq!(
            trace.results, threaded.results,
            "per-tick results diverged across thread counts: seed {seed} \
             partitions={partitions} kills={kills} recovery={recovery}"
        );
        assert_eq!(
            trace.digest, threaded.digest,
            "post-recovery digest diverged across thread counts: seed {seed}"
        );
        assert_eq!(trace.converged_after, threaded.converged_after);
    }
}

#[test]
fn eqp_failover_reconverges_exactly() {
    assert_crash_recovery(Propagation::Eager, RecoveryKind::Failover);
}

#[test]
fn lqp_failover_reconverges_exactly() {
    assert_crash_recovery(Propagation::Lazy, RecoveryKind::Failover);
}

#[test]
fn eqp_respawn_reconverges_exactly() {
    assert_crash_recovery(Propagation::Eager, RecoveryKind::Respawn);
}

#[test]
fn lqp_respawn_reconverges_exactly() {
    assert_crash_recovery(Propagation::Lazy, RecoveryKind::Respawn);
}

/// All three fence kinds in one lock-step run, audited after every tick:
/// load rebalancing every 5 ticks, a crash at tick 8 fenced by failover,
/// and the victim re-adopted by a respawn (the `process_crash_recovery`
/// shape minus the processes). The coordinator's `rebal.*` / `rec.*`
/// counters and the bus totals are pinned, so a fence that sends one
/// envelope more or fewer — or runs a round out of order — fails here.
#[test]
fn all_three_fences_in_one_run_keep_their_bus_traffic() {
    let trace = run_crash_traced(
        crash_config(82, Propagation::Eager, 4).with_rebalance_ticks(5),
        1,
        RecoveryKind::Respawn,
        1,
    );
    assert!(trace.converged_after <= MAX_RECOVERY);
    let pinned = [
        (rebal_keys::INSTALLS, 1),
        (rebal_keys::CELLS_MOVED, 38),
        (rebal_keys::SKIPPED, 1),
        (rebal_keys::ABORTS, 0),
        (rec_keys::CRASH_DETECTIONS, 1),
        (rec_keys::FENCES, 2),
        (rec_keys::CELLS_FAILED_OVER, 103),
        (rec_keys::CELLS_READOPTED, 103),
        (rec_keys::ENVELOPES_REROUTED, 0),
        (rec_keys::ENVELOPES_DROPPED, 0),
        (rec_keys::QUERIES_REINSTALLED, 9),
        (rec_keys::RESPAWNS, 1),
    ];
    let read: Vec<(&str, u64)> = pinned
        .iter()
        .map(|&(key, _)| (key, trace.bus.counter(key)))
        .collect();
    assert_eq!(read, pinned);
    assert_eq!(trace.bus_traffic, (90, 12807), "bus (msgs, bytes)");
}

/// Regression: a query lost with a crashed partition is re-installed at a
/// new home with a freshly computed monitoring region, and every
/// partition that monitored its pre-crash region — including the new
/// home itself — must retire the old RQI coverage. A dense grid with a
/// moving focal makes the regions differ; the stale rows then either
/// skew the heartbeat digests or, once the stub is pruned during
/// re-adoption, panic the digest beacon outright.
#[test]
fn reinstalled_query_retires_stale_rqi_coverage() {
    for recovery in [RecoveryKind::Failover, RecoveryKind::Respawn] {
        let mut config = SimConfig::small_test(0x4D6F_6269_4579_6573)
            .with_objects(400)
            .with_queries(40)
            .with_nmo(40)
            .with_lease_ticks(LEASE_TICKS)
            .with_partitions(4)
            .with_partition_crash_ticks(5)
            .with_recovery(recovery);
        config.area = 4000.0;
        config.ticks = 12;
        config.warmup_ticks = 2;
        let mut sim = MobiEyesSim::new(config);
        for _ in 0..14 {
            sim.step(false);
            sim.cluster().check_invariants();
        }
        sim.shutdown();
    }
}
