//! Ablation: how the trajectory model affects messaging and accuracy.
//! The paper's velocity-reset model randomizes headings uniformly in time;
//! random waypoint concentrates turns at waypoints. Run with `--release`.

use mobieyes_bench::{scaled, Table};
use mobieyes_sim::{run_approach, Approach, MobilityKind, SimConfig};

fn main() {
    let mut t = Table::new(
        "ablation_mobility",
        "Velocity-reset (paper) vs random-waypoint mobility",
        "num_queries",
        "messages per second / error",
        &[
            "msgs/s reset",
            "msgs/s waypoint",
            "error reset",
            "error waypoint",
            "uplink/s reset",
            "uplink/s waypoint",
        ],
    );
    for &nmq in &[100usize, 500, 1000] {
        let base = scaled(SimConfig::default().with_queries(nmq));
        let reset = run_approach(base.clone(), Approach::MobiEyesEqp).metrics;
        let waypoint = run_approach(
            base.with_mobility(MobilityKind::RandomWaypoint),
            Approach::MobiEyesEqp,
        )
        .metrics;
        t.push(
            nmq as f64,
            vec![
                reset.msgs_per_second,
                waypoint.msgs_per_second,
                reset.avg_result_error,
                waypoint.avg_result_error,
                reset.uplink_msgs_per_second,
                waypoint.uplink_msgs_per_second,
            ],
        );
        eprintln!("[ablation_mobility] nmq={nmq} done");
    }
    t.print();
    t.save("results").expect("write results/");
}
