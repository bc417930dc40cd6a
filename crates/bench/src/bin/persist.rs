//! Durable-log persistence benchmark (DESIGN.md §14): runs the same
//! deployment with and without a journal to price the write path, then
//! measures cold-start recovery (rebuild a server purely from the log and
//! demand a byte-identical state digest), raw append throughput over the
//! run's real record mix, and checkpoint compaction cost.
//!
//! Writes `BENCH_persist.json`. `scripts/check.sh` gates on
//! `digest_match` and a replay-rate floor; the numbers themselves are
//! host-dependent, the digests are not. Set `MOBIEYES_QUICK=1` for a
//! smaller smoke run.

use mobieyes_core::Propagation;
use mobieyes_sim::{MobiEyesSim, SimConfig};
use mobieyes_store::{self as store, Store, StoreConfig};
use mobieyes_telemetry::Telemetry;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn bench_config(seed: u64, mode: Propagation) -> SimConfig {
    let (objects, queries, nmo, ticks, warmup) = if mobieyes_bench::quick() {
        (400, 30, 40, 12, 3)
    } else {
        (2000, 100, 200, 40, 5)
    };
    SimConfig {
        ticks,
        warmup_ticks: warmup,
        ..SimConfig::small_test(seed)
            .with_propagation(mode)
            .with_objects(objects)
            .with_queries(queries)
            .with_nmo(nmo)
    }
}

/// Total bytes of every file under the partition's log directory.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

struct Sample {
    ticks: usize,
    /// Seconds per tick without / with the journal attached.
    baseline_s_per_tick: f64,
    store_s_per_tick: f64,
    /// Valid records in the log after the run, and their on-disk size.
    records: u64,
    log_bytes: u64,
    /// Cold-start drill: flush + rebuild from the log alone.
    recovery_ms: f64,
    replay_records_per_s: f64,
    digest_match: bool,
    /// Re-appending the run's record mix to a fresh store, then flushing.
    append_records_per_s: f64,
    /// Snapshot + rotate + GC, and the log size it leaves behind.
    checkpoint_ms: f64,
    log_bytes_after_checkpoint: u64,
}

fn timed_run(config: SimConfig) -> (MobiEyesSim, f64) {
    let mut sim = MobiEyesSim::new(config);
    for _ in 0..sim.config.warmup_ticks {
        sim.step(false);
    }
    let ticks = sim.config.ticks;
    let t = Instant::now();
    for _ in 0..ticks {
        sim.step(false);
    }
    (sim, t.elapsed().as_secs_f64() / ticks as f64)
}

fn run_one(seed: u64, mode: Propagation, root: &Path) -> Sample {
    let _ = std::fs::remove_dir_all(root);
    let (_, baseline_s_per_tick) = timed_run(bench_config(seed, mode));
    let log_root = root.join("log");
    let (mut sim, store_s_per_tick) =
        timed_run(bench_config(seed, mode).with_store_dir(log_root.clone()));

    // Cold-start drill: the rebuilt server must be byte-identical.
    let digest = |sim: &MobiEyesSim| sim.cluster().local_server(0).map(|s| s.state_digest());
    let digest_before = digest(&sim);
    let t = Instant::now();
    sim.cluster_mut()
        .rebuild_partition_from_log(0)
        .expect("the log replays");
    let recovery_s = t.elapsed().as_secs_f64();
    let digest_match = digest_before.is_some() && digest(&sim) == digest_before;

    // The rebuild flushed the store, so the on-disk log is now complete.
    let p0 = log_root.join("p0");
    let scan = store::read_log_dir(&p0, 0).expect("scan log");
    let records = scan.records.len() as u64;
    let log_bytes = dir_bytes(&p0);
    let replay_records_per_s = records as f64 / recovery_s;

    // Raw append throughput over the run's real record mix.
    let append_dir = root.join("append");
    let fresh = Store::open(StoreConfig::new(&append_dir, 0), Telemetry::new()).expect("open");
    let t = Instant::now();
    for (_, rec) in &scan.records {
        fresh.append_record(rec);
    }
    fresh.flush();
    let append_records_per_s = records as f64 / t.elapsed().as_secs_f64();

    // Compaction: snapshot + rotate + GC on the live deployment.
    let t = Instant::now();
    sim.checkpoint_now();
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let log_bytes_after_checkpoint = dir_bytes(&p0);

    let ticks = sim.config.ticks;
    let _ = std::fs::remove_dir_all(root);
    Sample {
        ticks,
        baseline_s_per_tick,
        store_s_per_tick,
        records,
        log_bytes,
        recovery_ms: recovery_s * 1e3,
        replay_records_per_s,
        digest_match,
        append_records_per_s,
        checkpoint_ms,
        log_bytes_after_checkpoint,
    }
}

fn main() {
    let root = std::env::temp_dir().join(format!("mobieyes-bench-persist-{}", std::process::id()));
    let seed = 21u64;
    eprintln!(
        "persistence bench: seed {seed}, quick={}",
        mobieyes_bench::quick()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"persistence\",");
    let _ = writeln!(json, "  {},", mobieyes_bench::host_fields());
    let _ = writeln!(
        json,
        "  \"note\": \"digest_match: a server rebuilt purely from its log is byte-identical to \
         the one that wrote it; replay_records_per_s times that cold-start drill\","
    );
    let _ = writeln!(json, "  \"scenarios\": [");
    let modes = [("eqp", Propagation::Eager), ("lqp", Propagation::Lazy)];
    for (i, (name, mode)) in modes.iter().enumerate() {
        let mode_root: PathBuf = root.join(name);
        let s = run_one(seed, *mode, &mode_root);
        let overhead_pct =
            (s.store_s_per_tick - s.baseline_s_per_tick) / s.baseline_s_per_tick * 100.0;
        println!(
            "{name}: {} records over {} ticks ({} log bytes, {:.0} B/tick), append {:.0} rec/s, \
             journal overhead {overhead_pct:.1}%, replay {:.0} rec/s ({:.1} ms), \
             checkpoint {:.1} ms -> {} bytes, digest_match={}",
            s.records,
            s.ticks,
            s.log_bytes,
            s.log_bytes as f64 / s.ticks as f64,
            s.append_records_per_s,
            s.replay_records_per_s,
            s.recovery_ms,
            s.checkpoint_ms,
            s.log_bytes_after_checkpoint,
            s.digest_match
        );
        let _ = writeln!(
            json,
            "    {{ \"mode\": \"{name}\", \"ticks\": {}, \"records\": {}, \"log_bytes\": {}, \
             \"log_bytes_per_tick\": {:.1},",
            s.ticks,
            s.records,
            s.log_bytes,
            s.log_bytes as f64 / s.ticks as f64
        );
        let _ = writeln!(
            json,
            "      \"baseline_s_per_tick\": {:.6}, \"store_s_per_tick\": {:.6}, \
             \"journal_overhead_pct\": {overhead_pct:.2},",
            s.baseline_s_per_tick, s.store_s_per_tick
        );
        let _ = writeln!(
            json,
            "      \"append_records_per_s\": {:.0}, \"replay_records_per_s\": {:.0}, \
             \"recovery_ms\": {:.3}, \"digest_match\": {},",
            s.append_records_per_s, s.replay_records_per_s, s.recovery_ms, s.digest_match
        );
        let _ = writeln!(
            json,
            "      \"checkpoint_ms\": {:.3}, \"log_bytes_after_checkpoint\": {} }}{}",
            s.checkpoint_ms,
            s.log_bytes_after_checkpoint,
            if i + 1 == modes.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_persist.json", &json).expect("write BENCH_persist.json");
    eprintln!("wrote BENCH_persist.json");
    let _ = std::fs::remove_dir_all(&root);
}
