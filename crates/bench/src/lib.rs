//! Shared machinery for the figure-reproduction binaries and Criterion
//! benches: result tables (aligned stdout + CSV + JSON), the standard
//! sweep values, and the quick-mode scaling knob.
//!
//! Every `fig*` binary regenerates one table/figure of the paper:
//! `cargo run -p mobieyes-bench --release --bin fig1` (etc.) prints the
//! series and writes `results/fig1.csv` / `results/fig1.json`.
//! Set `MOBIEYES_QUICK=1` to shrink workloads ~10x for smoke runs.

pub mod figures;
pub mod harness;
pub mod table;

pub use harness::Harness;
pub use table::Table;

use mobieyes_sim::{SimConfig, SimConfigBuilder};

/// Is quick mode requested (smaller workloads, same shapes)?
pub fn quick() -> bool {
    std::env::var("MOBIEYES_QUICK")
        .map(|v| v == "1" || v == "true")
        .unwrap_or(false)
}

/// Host-provenance JSON fields every `BENCH_*.json` embeds: the machine's
/// core count, the `MOBIEYES_THREADS` setting the run used (`"auto"`
/// when unset) and the transport, always `"lockstep"` (the figures run
/// in-process partitions). Returned as a fragment — `"host_cores": 8,
/// "mobieyes_threads": "4", "transport": "lockstep"` — for splicing into
/// a JSON object.
pub fn host_fields() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = std::env::var("MOBIEYES_THREADS").unwrap_or_else(|_| "auto".to_string());
    format!(
        "\"host_cores\": {cores}, \"mobieyes_threads\": \"{threads}\", \"transport\": \"lockstep\""
    )
}

/// Applies quick-mode scaling to a configuration produced by a sweep. The
/// object/query counts and the area shrink together so densities (and thus
/// the figure shapes) are preserved.
pub fn scaled(config: SimConfig) -> SimConfig {
    if !quick() {
        return config;
    }
    SimConfigBuilder::from_config(config.clone())
        .objects((config.num_objects / 10).max(50))
        .queries((config.num_queries / 10).max(5))
        .objects_changing_velocity((config.objects_changing_velocity / 10).max(5))
        .area(config.area / 10.0)
        .ticks(config.ticks.min(15))
        .warmup_ticks(config.warmup_ticks.min(3))
        .build_or_panic()
}

/// The sweep values used across figures (paper ranges).
pub mod sweeps {
    /// Query-count sweep (Table 1: 100–1 000).
    pub const NMQ: &[usize] = &[100, 250, 500, 750, 1000];
    /// Object-count sweep (Table 1: 1 000–10 000).
    pub const NO: &[usize] = &[1000, 2500, 5000, 7500, 10_000];
    /// Velocity-changes-per-step sweep (Table 1: 100–1 000).
    pub const NMO: &[usize] = &[100, 250, 500, 750, 1000];
    /// Grid cell side sweep (Table 1: 0.5–16 miles).
    pub const ALPHA: &[f64] = &[0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 16.0];
    /// Base-station side sweep (Table 1: 5–80 miles).
    pub const ALEN: &[f64] = &[5.0, 10.0, 20.0, 40.0, 80.0];
    /// Figure 12 radius factors.
    pub const RADIUS_FACTOR: &[f64] = &[0.5, 1.0, 1.5, 2.0, 3.0, 4.0];
}
