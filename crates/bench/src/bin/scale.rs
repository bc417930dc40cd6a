//! Million-object hot-path scaling benchmark.
//!
//! Sweeps the struct-of-arrays tick engine from 2 000 to 1 000 000
//! objects at the Table 1 density (0.1 objects / sq mile — the area grows
//! with the population), recording wall-clock per tick, wireless bytes
//! per object per tick and the share of the population the processing
//! phase had to look at (`MobiEyesSim::tick_work`: a deterministic count,
//! so `check.sh` can put a ceiling on the sparsest, largest point that
//! holds on a noisy host) and, after the largest point, the process's
//! peak resident set per object (`rss_bytes_per_object`: `VmHWM` over the
//! population, process baseline included — the ceiling `check.sh` puts on
//! it catches per-agent state growing back, not a few hundred KB),
//! then runs the seed engine head-to-head at the 100 000-object point for
//! the headline speedup. Writes `BENCH_scale.json`.
//!
//! The two engines are byte-identical in everything but wall clock
//! (`tests/engine_equivalence.rs`); this binary only measures. Set
//! `MOBIEYES_QUICK=1` for a 20 000-object ceiling (the `check.sh` smoke
//! stage).

use mobieyes_sim::{EngineKind, MobiEyesSim, SimConfig};
use std::fmt::Write as _;
use std::time::Instant;

const SIZES: &[usize] = &[2_000, 10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000];
const QUICK_SIZES: &[usize] = &[2_000, 10_000, 20_000];

struct Sample {
    objects: usize,
    seconds_per_tick: f64,
    bytes_per_object_tick: f64,
    visited_per_object_tick: f64,
}

fn config_for(objects: usize, engine: EngineKind) -> SimConfig {
    let mut config = SimConfig::small_test(17)
        .with_objects(objects)
        .with_queries(1_000.min(objects / 10))
        .with_nmo(1_000.min(objects / 10))
        .with_alen(10.0)
        // Safe periods on (§4.2): the steady-state configuration the hot
        // path is built for. Both engines run the identical config; the
        // results stay byte-identical (the equivalence matrix covers
        // safe-period runs).
        .with_safe_period(true)
        .with_engine(engine);
    // Table 1 density: 0.1 objects per square mile at every size, so the
    // per-object workload (cell crossings, query contact) stays constant
    // and the sweep isolates how cost grows with population.
    config.area = objects as f64 * 10.0;
    config
}

/// Runs `measured` ticks after warmup, returning the sample over the
/// measured window.
fn measure(config: SimConfig, warmup: usize, measured: usize) -> Sample {
    let objects = config.num_objects;
    let mut sim = MobiEyesSim::new(config);
    for _ in 0..warmup {
        sim.step(false);
    }
    let bytes_at = |sim: &MobiEyesSim| {
        let snap = sim.telemetry().snapshot();
        snap.counter("net.uplink.bytes")
            + snap.counter("net.unicast.bytes")
            + snap.counter("net.broadcast.bytes")
    };
    let bytes_before = bytes_at(&sim);
    let mut visited = 0;
    let t0 = Instant::now();
    for _ in 0..measured {
        // step(false): skip the harness's exact ground-truth scoring pass —
        // engine-independent instrumentation that would dilute the tick-path
        // comparison equally on both sides.
        sim.step(false);
        visited += sim.tick_work().process_visited;
    }
    let seconds_per_tick = t0.elapsed().as_secs_f64() / measured as f64;
    let bytes = bytes_at(&sim) - bytes_before;
    let object_ticks = objects as f64 * measured as f64;
    Sample {
        objects,
        seconds_per_tick,
        bytes_per_object_tick: bytes as f64 / object_ticks,
        visited_per_object_tick: visited as f64 / object_ticks,
    }
}

/// The process's peak resident set (`VmHWM`), where procfs has one.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    let quick = mobieyes_bench::quick();
    let sizes = if quick { QUICK_SIZES } else { SIZES };
    let compare_at = *sizes.last().expect("nonempty sweep").min(&100_000);
    eprintln!(
        "scale bench: SoA sweep over {sizes:?} objects, seed-vs-SoA comparison at {compare_at}"
    );

    let mut samples = Vec::new();
    for &objects in sizes {
        // Big populations amortize less per tick, so fewer measured ticks
        // keep the full sweep tractable without hiding the steady state.
        let measured = if objects > 100_000 { 3 } else { 5 };
        let sample = measure(config_for(objects, EngineKind::Soa), 2, measured);
        println!(
            "objects={objects:<9} {:>10.2} ms/tick  {:>8.2} bytes/object/tick  {:>6.3} visited/object/tick",
            sample.seconds_per_tick * 1e3,
            sample.bytes_per_object_tick,
            sample.visited_per_object_tick
        );
        samples.push(sample);
    }
    // Read before the seed-engine run below adds its own population.
    let largest_objects = samples.last().expect("nonempty sweep").objects;
    let rss_per_object = peak_rss_bytes().map(|b| b / largest_objects as u64);

    let seed_spt = measure(config_for(compare_at, EngineKind::Seed), 2, 3).seconds_per_tick;
    let soa_spt = samples
        .iter()
        .find(|s| s.objects == compare_at)
        .expect("comparison size is in the sweep")
        .seconds_per_tick;
    let speedup = seed_spt / soa_spt;
    println!(
        "seed engine at {compare_at}: {:.2} ms/tick -> SoA speedup {speedup:.2}x",
        seed_spt * 1e3
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"scale-sweep\",");
    let _ = writeln!(json, "  {},", mobieyes_bench::host_fields());
    let _ = writeln!(
        json,
        "  \"config\": {{ \"density_objects_per_sq_mile\": 0.1, \"quick\": {quick} }},"
    );
    let _ = writeln!(
        json,
        "  \"note\": \"Both engines are byte-identical in results and protocol telemetry (tests/engine_equivalence.rs); speedup is pure tick-path wall clock on this host.\","
    );
    let _ = writeln!(
        json,
        "  \"seed_comparison\": {{ \"objects\": {compare_at}, \"seed_seconds_per_tick\": {seed_spt:.6}, \"soa_seconds_per_tick\": {soa_spt:.6}, \"soa_speedup\": {speedup:.3} }},"
    );
    let largest = samples.last().expect("nonempty sweep");
    let _ = writeln!(
        json,
        "  \"largest_process_visited_per_object_tick\": {:.4},",
        largest.visited_per_object_tick
    );
    // Left out where there is no procfs, so a gate on it fails loudly.
    if let Some(rss) = rss_per_object {
        let _ = writeln!(json, "  \"rss_bytes_per_object\": {rss},");
    }
    let _ = writeln!(json, "  \"series\": [");
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"objects\": {}, \"seconds_per_tick\": {:.6}, \"bytes_per_object_tick\": {:.3}, \"process_visited_per_object_tick\": {:.4} }}{}",
            s.objects,
            s.seconds_per_tick,
            s.bytes_per_object_tick,
            s.visited_per_object_tick,
            if i + 1 == samples.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    eprintln!("wrote BENCH_scale.json");
}
