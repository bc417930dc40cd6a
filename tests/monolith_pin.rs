//! Monolith pin: the one-partition deployment — the paper's single
//! server — produces these exact per-tick result digests and these exact
//! `srv.*` / `net.*` protocol counters, per seed, for three runs:
//! eager propagation; lazy propagation under loss, duplication and churn;
//! and a journaled run with checkpoints that is torn down mid-run and
//! rebuilt from its log.
//!
//! The partition-count equivalence suite (`cluster_equivalence.rs`)
//! compares N-partition runs against `partitions = 1`; this file pins that
//! reference to fixed numbers, so the reference cannot drift with the
//! code it checks. The values were captured when `partitions = 1` still
//! ran a separate single-server code path, and the one-partition cluster
//! reproduces them bit for bit.

use mobieyes::prelude::*;
use std::path::PathBuf;

/// Tick at which the journaled run is rebuilt from its log (after two
/// checkpoints, with a tail of records behind the newest one).
const REBUILD_TICK: usize = 12;

/// Checkpoint cadence of the journaled run, in ticks.
const CHECKPOINT_TICKS: usize = 5;

/// What a run is pinned by: the FNV-1a fold of the per-tick result
/// digests, the fold of every `srv.*` / `net.*` counter (name and value,
/// in name order), and four of those counters spelled out.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    ticks: u64,
    counters: u64,
    uplinks_processed: u64,
    rqi_updates: u64,
    uplink_bytes: u64,
    broadcast_bytes: u64,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn eqp(seed: u64) -> SimConfig {
    SimConfig::small_test(seed)
}

fn lqp_under_faults(seed: u64) -> SimConfig {
    SimConfig {
        uplink_drop: 0.1,
        downlink_drop: 0.1,
        dup_rate: 0.05,
        churn_rate: 0.05,
        ..SimConfig::small_test(seed)
            .with_propagation(Propagation::Lazy)
            .with_lease_ticks(6)
    }
}

fn store_root(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mobieyes-monolith-pin-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Steps `config` on one partition through warm-up and measured ticks,
/// rebuilding the server tier from its log at [`REBUILD_TICK`] when
/// `rebuild` is set, and pins what it did.
fn pin(config: SimConfig, rebuild: bool) -> Pin {
    let mut sim = MobiEyesSim::new(config.with_partitions(1).with_threads(1));
    let warmup = sim.config.warmup_ticks;
    let total = warmup + sim.config.ticks;
    let mut ticks = FNV_SEED;
    for tick in 0..total {
        if rebuild && tick == REBUILD_TICK {
            sim.cluster_mut()
                .rebuild_partition_from_log(0)
                .expect("the log replays");
        }
        sim.step(tick >= warmup);
        fnv(&mut ticks, &sim.result_digest().to_le_bytes());
    }
    let snapshot = sim.telemetry().snapshot();
    let mut counters = FNV_SEED;
    for (key, value) in &snapshot.counters {
        if key.starts_with("srv.") || key.starts_with("net.") {
            fnv(&mut counters, key.as_bytes());
            fnv(&mut counters, &value.to_le_bytes());
        }
    }
    let counter = |key: &str| snapshot.counter(key);
    Pin {
        ticks,
        counters,
        uplinks_processed: counter("srv.uplinks_processed"),
        rqi_updates: counter("srv.rqi_updates"),
        uplink_bytes: counter("net.uplink.bytes"),
        broadcast_bytes: counter("net.broadcast.bytes"),
    }
}

fn check(name: &str, got: Vec<(u64, Pin)>, expected: &[(u64, Pin)]) {
    for (seed, pin) in &got {
        println!("{name} seed {seed}: {pin:?}");
    }
    for ((seed, pin), (want_seed, want)) in got.iter().zip(expected) {
        assert_eq!(seed, want_seed);
        assert_eq!(pin, want, "{name} seed {seed}");
    }
    assert_eq!(got.len(), expected.len());
}

#[test]
fn eqp_monolith_is_pinned() {
    let got = [41, 42].map(|seed| (seed, pin(eqp(seed), false)));
    check(
        "eqp",
        got.into(),
        &[
            (
                41,
                Pin {
                    ticks: 991_642_747_397_710_973,
                    counters: 17_501_680_870_891_476_578,
                    uplinks_processed: 894,
                    rqi_updates: 1_529,
                    uplink_bytes: 46_346,
                    broadcast_bytes: 60_241,
                },
            ),
            (
                42,
                Pin {
                    ticks: 9_435_051_980_712_228_100,
                    counters: 7_304_307_931_231_291_960,
                    uplinks_processed: 885,
                    rqi_updates: 1_510,
                    uplink_bytes: 46_730,
                    broadcast_bytes: 61_453,
                },
            ),
        ],
    );
}

#[test]
fn lqp_under_faults_monolith_is_pinned() {
    let got = [43, 44].map(|seed| (seed, pin(lqp_under_faults(seed), false)));
    check(
        "lqp under faults",
        got.into(),
        &[
            (
                43,
                Pin {
                    ticks: 443_803_215_173_462_725,
                    counters: 17_138_077_254_996_596_650,
                    uplinks_processed: 2_060,
                    rqi_updates: 1_274,
                    uplink_bytes: 39_663,
                    broadcast_bytes: 130_677,
                },
            ),
            (
                44,
                Pin {
                    ticks: 9_139_383_102_119_528_435,
                    counters: 2_031_302_702_224_594_395,
                    uplinks_processed: 2_076,
                    rqi_updates: 1_614,
                    uplink_bytes: 41_381,
                    broadcast_bytes: 137_582,
                },
            ),
        ],
    );
}

#[test]
fn journaled_monolith_rebuilt_from_its_log_is_pinned() {
    let got = [45, 46].map(|seed| {
        let root = store_root(seed);
        let config = eqp(seed)
            .with_store_dir(root.clone())
            .with_store_checkpoint_ticks(CHECKPOINT_TICKS);
        let pinned = pin(config, true);
        let _ = std::fs::remove_dir_all(&root);
        (seed, pinned)
    });
    check(
        "journaled, rebuilt",
        got.into(),
        &[
            (
                45,
                Pin {
                    ticks: 4_760_223_685_027_735_495,
                    counters: 6_962_517_224_609_831_388,
                    uplinks_processed: 906,
                    rqi_updates: 1_413,
                    uplink_bytes: 47_150,
                    broadcast_bytes: 55_058,
                },
            ),
            (
                46,
                Pin {
                    ticks: 1_817_269_482_728_610_873,
                    counters: 8_651_455_673_881_373_593,
                    uplinks_processed: 879,
                    rqi_updates: 1_296,
                    uplink_bytes: 47_033,
                    broadcast_bytes: 50_106,
                },
            ),
        ],
    );
}
