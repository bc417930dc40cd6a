//! Validates the analytical α messaging-cost model (the model the paper
//! mentions but omits) against the measured Figure 4 sweep: both curves
//! must be U-shaped with nearby minima.
//!
//! Run with `--release`; set `MOBIEYES_QUICK=1` for a fast smoke run.

use mobieyes_bench::{scaled, sweeps, Table};
use mobieyes_sim::{alpha_model, run_approach, Approach, SimConfig, WorkloadMoments};

fn main() {
    let mut t = Table::new(
        "alpha_model",
        "Analytical alpha model vs measured messaging cost",
        "alpha",
        "messages per second",
        &["model total", "model cell-up", "model bcast", "measured"],
    );
    let config = SimConfig::default();
    let moments = WorkloadMoments::from_config(&config);
    for &alpha in sweeps::ALPHA {
        let pred = alpha_model::predict(&config, &moments, alpha);
        let measured = run_approach(
            scaled(SimConfig::default().with_alpha(alpha)),
            Approach::MobiEyesEqp,
        )
        .metrics
        .msgs_per_second;
        t.push(
            alpha,
            vec![
                pred.total(),
                pred.cell_change_uplinks,
                pred.broadcasts,
                measured,
            ],
        );
        eprintln!("[alpha_model] alpha={alpha} done");
    }
    let optimal = alpha_model::optimal_alpha(&config);
    t.print();
    println!("\nmodel-optimal alpha = {optimal:.2} miles (paper observes [4, 6])");
    t.save("results").expect("write results/");
}
