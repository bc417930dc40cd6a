//! Scalability comparison at paper scale: MobiEyes (eager and lazy) vs the
//! naive and central-optimal reporting schemes, on the sharded tick engine
//! — the headline claims of the paper in one program.
//!
//! Run with: `cargo run --example scalability --release`

use mobieyes::prelude::*;
use mobieyes::sim::{MessagingKind, MessagingModel};

fn main() {
    // A mid-size workload (quarter of Table 1's defaults) so the example
    // finishes in seconds.
    let base = SimConfig {
        num_objects: 2500,
        num_queries: 250,
        objects_changing_velocity: 250,
        ticks: 20,
        warmup_ticks: 4,
        ..SimConfig::default()
    };

    println!(
        "workload: {} objects, {} queries, {} velocity changes/step, {:.0} sq-mi\n",
        base.num_objects, base.num_queries, base.objects_changing_velocity, base.area
    );

    let naive = MessagingModel::new(base.clone(), MessagingKind::Naive).run();
    let optimal = MessagingModel::new(base.clone(), MessagingKind::CentralOptimal).run();
    let eager = MobiEyesSim::new(base.clone()).run();
    let lazy = MobiEyesSim::new(base.clone().with_propagation(Propagation::Lazy)).run();

    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "approach", "msgs/s", "uplink/s", "down/s", "power mW", "error"
    );
    for m in [&naive, &optimal, &eager, &lazy] {
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>9.2} {:>8.4}",
            m.label,
            m.msgs_per_second,
            m.uplink_msgs_per_second,
            m.downlink_msgs_per_second,
            m.avg_power_mw,
            m.avg_result_error
        );
    }

    println!(
        "\nMobiEyes object-side load: LQT size {:.2}, {:.2} evals/object/step",
        eager.avg_lqt_size, eager.avg_evals_per_object_tick
    );

    // `threads = 0` (the default) shards the agents across
    // MOBIEYES_THREADS workers, or every available core.
    println!(
        "\nsharded tick engine: {} worker threads (the parallel_equivalence tests prove \
         every thread count is byte-identical to the sequential run)",
        base.resolved_threads()
    );
}
