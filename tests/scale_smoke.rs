//! Large-population smoke: the struct-of-arrays engine must stand up and
//! tick a 100k-object deployment without panicking, with monotonic tick
//! progress and live protocol traffic — and its per-tick work must follow
//! *activity*, not population: `MobiEyesSim::tick_work` is a
//! deterministic count, so a reintroduced every-agent scan fails here on
//! any host, however noisy. So is its heap: a counting allocator (this
//! file is its own binary with one test) puts a per-agent ceiling on what
//! the deployment holds after the ticks. (Wall-clock claims live in
//! `benchmark/`; see `benchmark/README.md` and the README's before/after
//! table.)

mod common;

use mobieyes::prelude::*;

#[global_allocator]
static ALLOCATOR: common::CountingAllocator = common::CountingAllocator;

/// ~1.2x the 347 B per agent the flat-table / hot-cold layout holds after
/// three ticks (whole deployment; the agents are 128 B of it inline). The
/// per-agent B-tree layout read 555 this early, before its emptied leaves
/// pile up (`tests/agent_footprint.rs` runs long enough to see those).
const LIVE_BYTES_PER_AGENT: usize = 415;

#[test]
fn hundred_thousand_objects_tick_without_panic() {
    // Density matches the Table 1 workload (0.1 objects / sq mile); the
    // query count is kept small so the test measures the per-object hot
    // path, not query installation.
    let mut config = SimConfig::small_test(91)
        .with_objects(100_000)
        .with_queries(100)
        .with_nmo(1_000)
        .with_alen(50.0)
        .with_engine(EngineKind::Soa);
    config.area = 1_000_000.0;
    let dt = config.time_step;
    let n = config.num_objects;
    let heap_before = common::live_bytes();
    let mut sim = MobiEyesSim::new(config);
    for tick in 1..=3 {
        // The motion phase only ever shrinks an LQT, so the agents
        // holding query state when the processing phase starts are a
        // subset of those holding it now.
        let active = (0..n).filter(|&i| sim.agent(i).needs_process()).count();
        sim.step(false);
        assert_eq!(
            sim.now(),
            tick as f64 * dt,
            "tick progress must be monotonic"
        );
        let w = sim.tick_work();
        // `cold` is counted where the shard loop steps over agents, not
        // derived from `process_visited`: an agent visited twice or
        // dropped between two visits breaks the sum.
        assert_eq!(w.process_visited + w.cold, n, "tick {tick}: {w:?}");
        assert!(
            w.safe_skipped + w.inert <= w.process_visited && w.motion_touched <= n,
            "tick {tick}: {w:?}"
        );
        assert!(
            w.process_visited <= w.deliveries + active,
            "tick {tick}: visited agents with neither a delivery nor query state: \
             {w:?}, active {active}"
        );
        assert!(
            w.cold > n / 2,
            "tick {tick}: a quiet 100k population must stay mostly cold: {w:?}"
        );
    }
    let live = (common::live_bytes() - heap_before) / n;
    println!("scale_smoke: {live} live heap bytes per agent after 3 ticks");
    assert!(
        live <= LIVE_BYTES_PER_AGENT,
        "{live} live heap bytes per agent after 3 ticks"
    );
    let snapshot = sim.telemetry().snapshot();
    let uplinks = snapshot.counter("srv.uplinks_processed");
    assert!(uplinks > 0, "100k objects produced no uplink traffic");
}
