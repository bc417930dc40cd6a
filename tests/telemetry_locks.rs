//! Telemetry lock acquisitions per tick: how much recording costs in
//! locks, counted exactly by `Telemetry::acquisitions`. Server, coordinator
//! and journal counters are plain tallies published once per phase, so the
//! count follows phases and downlink sends, not uplinks or journal records;
//! the ceilings fail on any host when a per-op counter goes back under the
//! lock. Wall-clock claims live in `benchmark/`.

use mobieyes::prelude::*;

const WARMUP_TICKS: usize = 5;
const MEASURED_TICKS: usize = 20;

/// Lock acquisitions per tick after a warm-up, summed over the sinks
/// `sinks` reads. The steps are unmeasured: a measured step adds the
/// harness's ground-truth accounting (two locks per query), which is not
/// the deployment's recording.
fn locks_per_tick(sim: &mut MobiEyesSim, sinks: impl Fn(&MobiEyesSim) -> u64) -> u64 {
    for _ in 0..WARMUP_TICKS {
        sim.step(false);
    }
    let before = sinks(sim);
    for _ in 0..MEASURED_TICKS {
        sim.step(false);
    }
    (sinks(sim) - before) / MEASURED_TICKS as u64
}

/// A `mono_quiet`-shaped run (EQP with safe periods, one server, one
/// thread) at a fifth of the benchmark's population, ~3 340 uplinks per
/// tick: 253 acquisitions per tick, most of them downlink sends, where
/// recording every `srv.*` counter under the lock took 5 811 (at the full
/// 100k objects: 29 319 → 1 265). The ceilings sit ~1.2x above the
/// measurement.
const MONO_LOCKS_PER_TICK: u64 = 310;

/// A `cluster_local`-shaped run (four in-process partitions, grouping,
/// rebalancing, store-backed; ~3 450 uplinks and ~3 560 journal records
/// per tick): 326 per tick over all sinks, where the per-op counters and
/// the journal's two per record took 11 638.
const CLUSTER_LOCKS_PER_TICK: u64 = 400;

#[test]
fn recording_takes_a_lock_per_phase_not_per_op() {
    const OBJECTS: usize = 20_000;
    let mut config = SimConfig::small_test(21)
        .with_objects(OBJECTS)
        .with_queries(200)
        .with_nmo(200)
        .with_alen(10.0)
        .with_propagation(Propagation::Eager)
        .with_safe_period(true)
        .with_threads(1)
        .with_partitions(1);
    config.area = OBJECTS as f64 * 10.0;
    let mut sim = MobiEyesSim::new(config);
    let mono = locks_per_tick(&mut sim, |sim| sim.telemetry().acquisitions());
    let uplinks = sim.telemetry().snapshot().counter("srv.uplinks_processed");
    println!("telemetry_locks: single server {mono} per tick, {uplinks} uplinks");
    assert!(uplinks > 2_000 * MEASURED_TICKS as u64, "{uplinks} uplinks");
    assert!(
        mono <= MONO_LOCKS_PER_TICK,
        "{mono} telemetry lock acquisitions per tick (ceiling {MONO_LOCKS_PER_TICK})"
    );

    const PARTITIONS: usize = 4;
    let store = std::env::temp_dir().join(format!("mobieyes-locks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut config = SimConfig::small_test(21)
        .with_objects(OBJECTS)
        .with_queries(400)
        .with_nmo(400)
        .with_alen(10.0)
        .with_propagation(Propagation::Eager)
        .with_focal_pool(100)
        .with_grouping(true)
        .with_threads(1)
        .with_partitions(PARTITIONS)
        .with_rebalance_ticks(5)
        .with_transport(TransportKind::Lockstep)
        .with_store_dir(&store)
        .with_store_checkpoint_ticks(10);
    config.area = OBJECTS as f64 * 10.0;
    let mut sim = MobiEyesSim::new(config);
    let all_sinks = |sim: &MobiEyesSim| {
        let cluster = sim.cluster();
        let partitions: u64 = (0..PARTITIONS)
            .map(|p| cluster.partition_telemetry(p))
            .map(|sink| sink.acquisitions())
            .sum();
        sim.telemetry().acquisitions() + cluster.bus_telemetry().acquisitions() + partitions
    };
    let cluster = locks_per_tick(&mut sim, all_sinks);
    let snapshot = sim.telemetry().snapshot();
    let (uplinks, records) = (
        snapshot.counter("srv.uplinks_processed"),
        snapshot.counter("store.appends"),
    );
    println!(
        "telemetry_locks: {PARTITIONS} partitions {cluster} per tick, {uplinks} uplinks, \
         {records} journal records"
    );
    let _ = std::fs::remove_dir_all(&store);
    assert!(uplinks > 1_000 * MEASURED_TICKS as u64, "{uplinks} uplinks");
    assert!(records > uplinks, "{records} journal records");
    assert!(
        cluster <= CLUSTER_LOCKS_PER_TICK,
        "{cluster} telemetry lock acquisitions per tick (ceiling {CLUSTER_LOCKS_PER_TICK})"
    );
}
