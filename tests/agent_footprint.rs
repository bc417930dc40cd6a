//! Agent footprint: how much heap a deployment holds per moving object
//! and how often a tick goes to the allocator. Both are exact counts from
//! a counting `#[global_allocator]` (this file is its own test binary
//! with one test), so the ceilings fail on any host when per-agent state
//! grows back — a per-agent tree that keeps its leaf after it empties, a
//! per-agent scratch buffer, a per-agent telemetry sink. Wall-clock and
//! RSS claims live in `benchmark/`.

mod common;

use mobieyes::prelude::*;

#[global_allocator]
static ALLOCATOR: common::CountingAllocator = common::CountingAllocator;

const OBJECTS: usize = 20_000;
const TICKS: usize = 60;
/// Ticks at the end of the run over which allocations are averaged.
const STEADY_TICKS: usize = 30;

/// Ceilings are ~1.2x what the one-line agent layout measures: 168 B
/// per agent right after construction, 342 B per agent live after 60
/// ticks, 1 723 allocations per tick (1 735 at four threads). The whole
/// deployment is counted — server, network, engine arrays — of which the
/// agents are 64 B inline: one cache line, with position, velocity and
/// maximum speed kept in the mobility columns only. The 128-byte agent
/// next to per-node byte meters read 236 / 435 / 1 654: its tables kept
/// spare slots after a removal, where a boxed slice shrinks (one
/// reallocation). With
/// four per-agent B-trees and a telemetry sink per agent the same run read
/// 428 / 1 405 / 2 405: the trees kept a 1.3 KB leaf per agent that ever
/// held a row, but an emptied table cost no allocation to refill, which
/// is why the allocation count is a ceiling and not a gain.
const CONSTRUCTION_BYTES_PER_AGENT: usize = 200;
const LIVE_BYTES_PER_AGENT: usize = 410;
const ALLOCATIONS_PER_TICK: usize = 2_000;

#[test]
fn agent_state_stays_small_and_ticks_stay_off_the_allocator() {
    let mut config = SimConfig::small_test(17)
        .with_objects(OBJECTS)
        .with_queries(200)
        .with_nmo(200)
        .with_alen(10.0)
        .with_propagation(Propagation::Eager)
        .with_safe_period(true)
        .with_partitions(1);
    config.area = OBJECTS as f64 * 10.0;

    let before = common::live_bytes();
    let mut sim = MobiEyesSim::new(config);
    let constructed = (common::live_bytes() - before) / OBJECTS;

    let mut steady_from = 0;
    for tick in 0..TICKS {
        if tick == TICKS - STEADY_TICKS {
            steady_from = common::allocations();
        }
        sim.step(false);
    }
    let per_tick = (common::allocations() - steady_from) / STEADY_TICKS;
    let live = (common::live_bytes() - before) / OBJECTS;
    println!(
        "agent_footprint: {constructed} B/agent constructed, {live} B/agent live after \
         {TICKS} ticks, {per_tick} allocations/tick"
    );

    // The run did real protocol work: queries installed and evaluated.
    let installed = (0..OBJECTS).filter(|&i| sim.agent(i).lqt_len() > 0).count();
    assert!(
        installed > OBJECTS / 50,
        "only {installed} agents hold a query"
    );

    assert!(
        constructed <= CONSTRUCTION_BYTES_PER_AGENT,
        "{constructed} heap bytes per agent right after construction"
    );
    assert!(
        live <= LIVE_BYTES_PER_AGENT,
        "{live} live heap bytes per agent after {TICKS} ticks"
    );
    assert!(
        per_tick <= ALLOCATIONS_PER_TICK,
        "{per_tick} allocations per steady-state tick"
    );
}
