//! Durable-log replay equivalence: a server torn down mid-run and rebuilt
//! purely from its journal must be byte-identical to the uninterrupted
//! twin — same per-tick results from the swap point on, same final
//! digests — across propagation modes, partition counts and seeds, with
//! and without mid-run checkpoint compaction (DESIGN.md §14).

use mobieyes::prelude::*;
use mobieyes::telemetry::rec_keys;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const SWAP_TICK: usize = 8;
const TOTAL_TICKS: usize = 15;

/// Fresh per-combo log root under the system temp dir.
fn store_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mobieyes-replay-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(seed: u64, mode: Propagation, partitions: usize, root: &Path) -> SimConfig {
    SimConfig::small_test(seed)
        .with_propagation(mode)
        .with_partitions(partitions)
        .with_store_dir(root.to_path_buf())
}

/// Per-tick owned result sets for every installed query.
fn results(sim: &MobiEyesSim) -> Vec<Option<BTreeSet<ObjectId>>> {
    sim.query_ids()
        .to_vec()
        .iter()
        .map(|&q| sim.query_result_owned(q))
        .collect()
}

/// Runs one combo twice — interrupted (rebuilt from the log at
/// `SWAP_TICK`) and uninterrupted — and demands byte-identical behaviour
/// from the swap point to the end.
fn check_combo(seed: u64, mode: Propagation, partitions: usize, checkpoint_ticks: usize) {
    let tag = format!("{seed}-{mode:?}-{partitions}p-ck{checkpoint_ticks}");
    let root_a = store_root(&format!("{tag}-a"));
    let root_b = store_root(&format!("{tag}-b"));
    let mut interrupted = MobiEyesSim::new(
        config(seed, mode, partitions, &root_a).with_store_checkpoint_ticks(checkpoint_ticks),
    );
    let mut twin = MobiEyesSim::new(
        config(seed, mode, partitions, &root_b).with_store_checkpoint_ticks(checkpoint_ticks),
    );
    assert!(interrupted.has_store() && twin.has_store());
    let warmup = interrupted.config.warmup_ticks;
    for _ in 0..warmup {
        interrupted.step(false);
        twin.step(false);
    }
    for tick in 0..TOTAL_TICKS {
        if tick == SWAP_TICK {
            // Crash drill: throw the in-memory server tier away and
            // rebuild it from nothing but the on-disk journal.
            for p in 0..partitions as u32 {
                interrupted
                    .cluster_mut()
                    .rebuild_partition_from_log(p)
                    .expect("the journal replays");
            }
            assert_eq!(
                results(&interrupted),
                results(&twin),
                "[{tag}] replay diverged at the swap tick"
            );
        }
        interrupted.step(true);
        twin.step(true);
        assert_eq!(
            results(&interrupted),
            results(&twin),
            "[{tag}] per-tick results diverged at tick {tick}"
        );
    }
    assert_eq!(
        interrupted.result_digest(),
        twin.result_digest(),
        "[{tag}] final result digest diverged"
    );
    let digests = |sim: &MobiEyesSim| {
        let state = |p| sim.cluster().local_server(p).map(|s| s.state_digest());
        (0..partitions).map(state).collect::<Vec<_>>()
    };
    assert_eq!(
        digests(&interrupted),
        digests(&twin),
        "[{tag}] final state digests diverged"
    );
    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn single_server_replay_matches_uninterrupted_twin() {
    for seed in [1, 2] {
        for mode in [Propagation::Eager, Propagation::Lazy] {
            check_combo(seed, mode, 1, 0);
        }
    }
}

#[test]
fn cluster_replay_matches_uninterrupted_twin() {
    for seed in [1, 2] {
        for mode in [Propagation::Eager, Propagation::Lazy] {
            check_combo(seed, mode, 4, 0);
        }
    }
}

/// One combo per tier exercises mid-run checkpoint compaction, so the
/// rebuild replays snapshot + tail instead of the full log.
#[test]
fn replay_from_checkpoint_matches_uninterrupted_twin() {
    check_combo(1, Propagation::Eager, 1, 5);
    check_combo(2, Propagation::Lazy, 4, 5);
}

/// Historical trajectories agree between tiers: the per-partition logs of
/// a 4-way cluster, merged, index the same motion samples as the single
/// server's log of the identical run.
#[test]
fn trajectory_queries_match_across_tiers() {
    let root_single = store_root("traj-1p");
    let root_cluster = store_root("traj-4p");
    let mut single = MobiEyesSim::new(config(3, Propagation::Eager, 1, &root_single));
    let mut cluster = MobiEyesSim::new(config(3, Propagation::Eager, 4, &root_cluster));
    for _ in 0..single.config.warmup_ticks {
        single.step(false);
        cluster.step(false);
    }
    for _ in 0..TOTAL_TICKS {
        single.step(true);
        cluster.step(true);
    }
    let mut sampled = 0usize;
    for oid in 0..single.config.num_objects as u32 {
        let oid = ObjectId(oid);
        let a = single.trajectory(oid, 0.0, f64::INFINITY);
        let b = cluster.trajectory(oid, 0.0, f64::INFINITY);
        assert_eq!(a, b, "trajectory of {oid:?} diverged between tiers");
        sampled += a.len();
    }
    assert!(sampled > 0, "no motion samples were journaled at all");
    let _ = std::fs::remove_dir_all(&root_single);
    let _ = std::fs::remove_dir_all(&root_cluster);
}

/// A store-backed cluster that loses a partition recovers its queries by
/// log replay (the fast path), not the agent round trip — and still
/// reconverges to the same results as a crash-free run's ground truth.
#[test]
fn failover_recovers_queries_from_the_log() {
    let root = store_root("failover");
    let mut sim = MobiEyesSim::new(
        config(4, Propagation::Eager, 4, &root)
            .with_partition_crash_ticks(5)
            .with_recovery(RecoveryKind::Failover),
    );
    sim.run();
    let snapshot = sim.cluster().bus_telemetry().snapshot();
    assert!(
        snapshot.counter(rec_keys::FENCES) >= 1,
        "the crash plan never fired"
    );
    assert!(
        snapshot.counter(rec_keys::QUERIES_REPLAYED) >= 1,
        "no query was recovered via log replay despite the store"
    );
    let _ = std::fs::remove_dir_all(&root);
}
