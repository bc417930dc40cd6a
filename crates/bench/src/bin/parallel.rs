//! Sequential-vs-parallel tick-engine benchmark.
//!
//! Drives the Figure 1-scale MobiEyes deployment (10 000 objects, 1 000
//! queries, Table 1 defaults) through the same measured tick loop at 1, 2
//! and 4 worker threads and writes `BENCH_parallel.json` with wall time
//! per tick and the speedup over the sequential engine (threads = 1).
//!
//! The two engines share one code path — a single shard runs the
//! buffer-and-merge machinery inline — so the comparison isolates the
//! cost/benefit of the worker pool itself. Determinism across thread
//! counts is asserted by `tests/parallel_equivalence.rs`; this binary only
//! measures. Set `MOBIEYES_QUICK=1` to shrink the workload ~10x.

use mobieyes_sim::{MobiEyesSim, SimConfig};
use std::fmt::Write as _;
use std::time::Instant;

const THREADS: &[usize] = &[1, 2, 4];

struct Sample {
    threads: usize,
    total_seconds: f64,
    seconds_per_tick: f64,
}

fn main() {
    let base = mobieyes_bench::scaled(SimConfig {
        ticks: 8,
        warmup_ticks: 3,
        ..SimConfig::default()
    });
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "parallel tick-engine bench: {} objects, {} queries, {} measured ticks (host has {} hardware thread{})",
        base.num_objects,
        base.num_queries,
        base.ticks,
        host_threads,
        if host_threads == 1 { "" } else { "s" }
    );

    let mut samples = Vec::new();
    for &threads in THREADS {
        let config = base.clone().with_threads(threads);
        let mut sim = MobiEyesSim::new(config);
        for _ in 0..base.warmup_ticks {
            sim.step(false);
        }
        let t0 = Instant::now();
        for _ in 0..base.ticks {
            sim.step(true);
        }
        let total_seconds = t0.elapsed().as_secs_f64();
        let seconds_per_tick = total_seconds / base.ticks as f64;
        println!(
            "threads={threads:<2}  {total_seconds:>8.3} s total  {:>10.1} ms/tick",
            seconds_per_tick * 1e3
        );
        samples.push(Sample {
            threads,
            total_seconds,
            seconds_per_tick,
        });
    }

    let sequential = samples[0].total_seconds;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"parallel-tick-engine\",");
    let _ = writeln!(json, "  {},", mobieyes_bench::host_fields());
    let _ = writeln!(
        json,
        "  \"config\": {{ \"objects\": {}, \"queries\": {}, \"measured_ticks\": {}, \"warmup_ticks\": {}, \"quick\": {} }},",
        base.num_objects,
        base.num_queries,
        base.ticks,
        base.warmup_ticks,
        mobieyes_bench::quick()
    );
    let _ = writeln!(
        json,
        "  \"host\": {{ \"available_parallelism\": {host_threads} }},"
    );
    let _ = writeln!(
        json,
        "  \"note\": \"Speedup is bounded by the host's hardware threads: on a single-CPU host every thread count serializes onto one core and speedup stays ~1.0x; >=2x at 4 threads requires >=4 cores. Results are byte-identical at every thread count (tests/parallel_equivalence.rs).\","
    );
    let _ = writeln!(json, "  \"series\": [");
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"threads\": {}, \"total_seconds\": {:.6}, \"seconds_per_tick\": {:.6}, \"speedup_vs_sequential\": {:.3} }}{}",
            s.threads,
            s.total_seconds,
            s.seconds_per_tick,
            sequential / s.total_seconds,
            if i + 1 == samples.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    eprintln!("wrote BENCH_parallel.json");
}
