//! One function per table/figure of the paper's evaluation (§5).
//!
//! Every function runs the corresponding parameter sweep through the
//! unified [`run_approach`] entry point and returns a [`Table`] with
//! exactly the series the paper plots. Absolute numbers differ from the
//! paper (different hardware, different substrate); the *shapes* — who
//! wins, by what order of magnitude, where the crossovers and optima sit
//! — are the reproduction targets (see EXPERIMENTS.md).

use crate::table::Table;
use crate::{scaled, sweeps};
use mobieyes_sim::{run_approach, Approach, RunMetrics, SimConfig};

fn progress(fig: &str, msg: &str) {
    eprintln!("[{fig}] {msg}");
}

/// Runs one engine over one configuration and returns the metrics view.
fn run(config: SimConfig, approach: Approach) -> RunMetrics {
    run_approach(config, approach).metrics
}

/// Table 1: the simulation parameters (printed, not measured).
pub fn table1() -> Table {
    let c = SimConfig::default();
    let mut t = Table::new(
        "table1",
        "Simulation parameters (defaults)",
        "param#",
        "default value",
        &["value"],
    );
    // Rendered as ordered rows; the binary prints names alongside.
    let values = [
        c.time_step,
        c.alpha,
        c.num_objects as f64,
        c.num_queries as f64,
        c.objects_changing_velocity as f64,
        c.area,
        c.alen,
        c.selectivity,
        c.delta,
    ];
    for (i, v) in values.iter().enumerate() {
        t.push(i as f64, vec![*v]);
    }
    t
}

/// Figure 1: server load (s per time step, log scale) vs number of
/// queries, for the object index, the query index, MobiEyes EQP and LQP.
pub fn fig1() -> Table {
    let mut t = Table::new(
        "fig1",
        "Impact of distributed query processing on server load",
        "num_queries",
        "server seconds per time step (log scale)",
        &[
            "object-index",
            "query-index",
            "mobieyes-eqp",
            "mobieyes-lqp",
        ],
    );
    for &nmq in sweeps::NMQ {
        let base = scaled(SimConfig::default().with_queries(nmq));
        let ys = [
            Approach::ObjectIndex,
            Approach::QueryIndex,
            Approach::MobiEyesEqp,
            Approach::MobiEyesLqp,
        ]
        .map(|a| run(base.clone(), a).server_seconds_per_tick);
        t.push(nmq as f64, ys.to_vec());
        progress("fig1", &format!("nmq={nmq} done"));
    }
    t
}

/// Figure 2: average result error of lazy query propagation vs the number
/// of objects changing velocity per time step, for α ∈ {2, 5, 10}.
pub fn fig2() -> Table {
    let alphas = [2.0, 5.0, 10.0];
    let mut t = Table::new(
        "fig2",
        "Error associated with lazy query propagation",
        "objects_changing_velocity",
        "avg result error (missing/|truth|)",
        &["alpha=2", "alpha=5", "alpha=10"],
    );
    for &nmo in sweeps::NMO {
        let mut ys = Vec::new();
        for &alpha in &alphas {
            let config = scaled(SimConfig::default().with_nmo(nmo).with_alpha(alpha));
            ys.push(run(config, Approach::MobiEyesLqp).avg_result_error);
        }
        t.push(nmo as f64, ys);
        progress("fig2", &format!("nmo={nmo} done"));
    }
    t
}

/// Figure 3: server load vs grid cell side α. The centralized baselines do
/// not depend on α, so they are measured once and drawn as flat lines.
pub fn fig3() -> Table {
    let mut t = Table::new(
        "fig3",
        "Effect of alpha on server load",
        "alpha",
        "server seconds per time step (log scale)",
        &[
            "object-index",
            "query-index",
            "mobieyes-eqp",
            "mobieyes-lqp",
        ],
    );
    let base = scaled(SimConfig::default());
    let oi = run(base.clone(), Approach::ObjectIndex).server_seconds_per_tick;
    let qi = run(base, Approach::QueryIndex).server_seconds_per_tick;
    for &alpha in sweeps::ALPHA {
        let base = scaled(SimConfig::default().with_alpha(alpha));
        let eqp = run(base.clone(), Approach::MobiEyesEqp).server_seconds_per_tick;
        let lqp = run(base, Approach::MobiEyesLqp).server_seconds_per_tick;
        t.push(alpha, vec![oi, qi, eqp, lqp]);
        progress("fig3", &format!("alpha={alpha} done"));
    }
    t
}

/// Figure 4: total messages per second vs α for different query counts.
pub fn fig4() -> Table {
    let nmqs = [100usize, 500, 1000];
    let mut t = Table::new(
        "fig4",
        "Effect of alpha on messaging cost",
        "alpha",
        "messages per second",
        &["nmq=100", "nmq=500", "nmq=1000"],
    );
    for &alpha in sweeps::ALPHA {
        let mut ys = Vec::new();
        for &nmq in &nmqs {
            let config = scaled(SimConfig::default().with_alpha(alpha).with_queries(nmq));
            ys.push(run(config, Approach::MobiEyesEqp).msgs_per_second);
        }
        t.push(alpha, ys);
        progress("fig4", &format!("alpha={alpha} done"));
    }
    t
}

/// Figures 5 and 6: total and uplink messages per second vs the number of
/// objects (nmo kept at 10 % of the objects, per the paper), for the
/// naive, central-optimal, MobiEyes EQP and LQP approaches at nmq ∈
/// {100, 1000}. Computed in one sweep; returned as (fig5, fig6).
pub fn fig5_6() -> (Table, Table) {
    let nmqs = [100usize, 1000];
    let columns = [
        "naive",
        "central-opt nmq=100",
        "central-opt nmq=1000",
        "eqp nmq=100",
        "eqp nmq=1000",
        "lqp nmq=100",
        "lqp nmq=1000",
    ];
    let mut t5 = Table::new(
        "fig5",
        "Effect of number of objects on messaging cost",
        "num_objects",
        "messages per second",
        &columns,
    );
    let mut t6 = Table::new(
        "fig6",
        "Effect of number of objects on uplink messaging cost",
        "num_objects",
        "uplink messages per second (log scale)",
        &columns,
    );
    for &no in sweeps::NO {
        let nmo = no / 10; // keep the ratio at its Table 1 default
        let mk = |nmq: usize| {
            scaled(
                SimConfig::default()
                    .with_objects(no)
                    .with_nmo(nmo)
                    .with_queries(nmq),
            )
        };
        // Naive and central-optimal do not depend on the query count.
        let naive = run(mk(100), Approach::Naive);
        let mut total = vec![naive.msgs_per_second];
        let mut uplink = vec![naive.uplink_msgs_per_second];
        for &nmq in &nmqs {
            let m = run(mk(nmq), Approach::CentralOptimal);
            total.push(m.msgs_per_second);
            uplink.push(m.uplink_msgs_per_second);
        }
        // Central-optimal truly has one line; the nmq column split keeps the
        // table rectangular (both columns are equal by construction).
        let co = total[1];
        total[2] = co;
        let cu = uplink[1];
        uplink[2] = cu;
        for approach in [Approach::MobiEyesEqp, Approach::MobiEyesLqp] {
            for &nmq in &nmqs {
                let m = run(mk(nmq), approach);
                total.push(m.msgs_per_second);
                uplink.push(m.uplink_msgs_per_second);
            }
        }
        t5.push(no as f64, total);
        t6.push(no as f64, uplink);
        progress("fig5/6", &format!("no={no} done"));
    }
    (t5, t6)
}

/// Figure 7: messages per second vs the number of objects changing their
/// velocity vector per time step.
pub fn fig7() -> Table {
    let mut t = Table::new(
        "fig7",
        "Effect of velocity changes per time step on messaging cost",
        "objects_changing_velocity",
        "messages per second",
        &[
            "central-optimal",
            "eqp nmq=100",
            "eqp nmq=1000",
            "lqp nmq=100",
            "lqp nmq=1000",
        ],
    );
    for &nmo in sweeps::NMO {
        let mk = |nmq: usize| scaled(SimConfig::default().with_nmo(nmo).with_queries(nmq));
        let mut ys = vec![run(mk(100), Approach::CentralOptimal).msgs_per_second];
        for approach in [Approach::MobiEyesEqp, Approach::MobiEyesLqp] {
            for &nmq in &[100usize, 1000] {
                ys.push(run(mk(nmq), approach).msgs_per_second);
            }
        }
        t.push(nmo as f64, ys);
        progress("fig7", &format!("nmo={nmo} done"));
    }
    t
}

/// Figure 8: messages per second vs base-station side length.
pub fn fig8() -> Table {
    let nmqs = [100usize, 500, 1000];
    let mut t = Table::new(
        "fig8",
        "Effect of base station coverage area on messaging cost",
        "alen",
        "messages per second",
        &["nmq=100", "nmq=500", "nmq=1000"],
    );
    for &alen in sweeps::ALEN {
        let mut ys = Vec::new();
        for &nmq in &nmqs {
            let config = scaled(SimConfig::default().with_alen(alen).with_queries(nmq));
            ys.push(run(config, Approach::MobiEyesEqp).msgs_per_second);
        }
        t.push(alen, ys);
        progress("fig8", &format!("alen={alen} done"));
    }
    t
}

/// Figure 9: per-object power consumption due to communication vs the
/// number of queries.
pub fn fig9() -> Table {
    let mut t = Table::new(
        "fig9",
        "Per-object power consumption due to communication",
        "num_queries",
        "average power (mW)",
        &["naive", "central-optimal", "mobieyes-eqp"],
    );
    for &nmq in sweeps::NMQ {
        let base = scaled(SimConfig::default().with_queries(nmq));
        let ys = [
            Approach::Naive,
            Approach::CentralOptimal,
            Approach::MobiEyesEqp,
        ]
        .map(|a| run(base.clone(), a).avg_power_mw);
        t.push(nmq as f64, ys.to_vec());
        progress("fig9", &format!("nmq={nmq} done"));
    }
    t
}

/// Figure 10: average LQT size vs α for different query counts.
pub fn fig10() -> Table {
    let nmqs = [100usize, 500, 1000];
    let mut t = Table::new(
        "fig10",
        "Effect of alpha on the average number of queries on a moving object",
        "alpha",
        "average LQT size",
        &["nmq=100", "nmq=500", "nmq=1000"],
    );
    for &alpha in sweeps::ALPHA {
        let mut ys = Vec::new();
        for &nmq in &nmqs {
            let config = scaled(SimConfig::default().with_alpha(alpha).with_queries(nmq));
            ys.push(run(config, Approach::MobiEyesEqp).avg_lqt_size);
        }
        t.push(alpha, ys);
        progress("fig10", &format!("alpha={alpha} done"));
    }
    t
}

/// Figure 11: average LQT size vs the number of queries for α ∈ {2,5,10}.
pub fn fig11() -> Table {
    let alphas = [2.0, 5.0, 10.0];
    let mut t = Table::new(
        "fig11",
        "Effect of the total number of queries on the average LQT size",
        "num_queries",
        "average LQT size",
        &["alpha=2", "alpha=5", "alpha=10"],
    );
    for &nmq in sweeps::NMQ {
        let mut ys = Vec::new();
        for &alpha in &alphas {
            let config = scaled(SimConfig::default().with_queries(nmq).with_alpha(alpha));
            ys.push(run(config, Approach::MobiEyesEqp).avg_lqt_size);
        }
        t.push(nmq as f64, ys);
        progress("fig11", &format!("nmq={nmq} done"));
    }
    t
}

/// Figure 12: average LQT size vs the query radius factor.
pub fn fig12() -> Table {
    let mut t = Table::new(
        "fig12",
        "Effect of the query radius on the average LQT size",
        "radius_factor",
        "average LQT size",
        &["mobieyes-eqp"],
    );
    for &f in sweeps::RADIUS_FACTOR {
        let config = scaled(SimConfig::default().with_radius_factor(f));
        t.push(f, vec![run(config, Approach::MobiEyesEqp).avg_lqt_size]);
        progress("fig12", &format!("factor={f} done"));
    }
    t
}

/// Figure 13: per-object query processing load vs α with and without the
/// safe-period optimization.
pub fn fig13() -> Table {
    let alphas = [1.0, 2.0, 4.0, 8.0, 16.0];
    let mut t = Table::new(
        "fig13",
        "Effect of the safe period optimization on processing load",
        "alpha",
        "avg microseconds per object per time step",
        &[
            "base",
            "safe-period",
            "evals base",
            "evals safe",
            "skips safe",
        ],
    );
    for &alpha in &alphas {
        let base = run(
            scaled(SimConfig::default().with_alpha(alpha)),
            Approach::MobiEyesEqp,
        );
        let safe = run(
            scaled(
                SimConfig::default()
                    .with_alpha(alpha)
                    .with_safe_period(true),
            ),
            Approach::MobiEyesEqp,
        );
        t.push(
            alpha,
            vec![
                base.avg_eval_micros_per_object_tick,
                safe.avg_eval_micros_per_object_tick,
                base.avg_evals_per_object_tick,
                safe.avg_evals_per_object_tick,
                safe.avg_safe_period_skips,
            ],
        );
        progress("fig13", &format!("alpha={alpha} done"));
    }
    t
}

/// Ablation: query grouping vs focal-object skew. Groupable queries only
/// exist when focal objects repeat, so we sweep the size of the focal pool
/// and compare broadcast counts, bytes and evaluation work.
pub fn ablation_grouping() -> Table {
    let pools = [1usize, 2, 5, 20, 100];
    let mut t = Table::new(
        "ablation_grouping",
        "Query grouping vs focal-object skew (smaller pool = more skew)",
        "focal_pool",
        "messages per second / evaluations per object-tick",
        &[
            "msgs/s plain",
            "msgs/s grouped",
            "evals plain",
            "evals grouped",
            "error plain",
            "error grouped",
        ],
    );
    for &pool in &pools {
        let base = scaled(SimConfig::default().with_queries(200)).with_focal_pool(pool);
        let plain = run(base.clone(), Approach::MobiEyesEqp);
        let grouped = run(base.with_grouping(true), Approach::MobiEyesEqp);
        t.push(
            pool as f64,
            vec![
                plain.msgs_per_second,
                grouped.msgs_per_second,
                plain.avg_evals_per_object_tick,
                grouped.avg_evals_per_object_tick,
                plain.avg_result_error,
                grouped.avg_result_error,
            ],
        );
        progress("ablation_grouping", &format!("pool={pool} done"));
    }
    t
}

/// Ablation: the dead-reckoning threshold Δ trades messaging cost against
/// result accuracy.
pub fn ablation_delta() -> Table {
    let deltas = [0.05, 0.2, 0.5, 1.0, 2.0];
    let mut t = Table::new(
        "ablation_delta",
        "Dead-reckoning threshold: messaging vs accuracy",
        "delta_miles",
        "messages per second / avg error",
        &["msgs/s", "uplink msgs/s", "avg error"],
    );
    for &d in &deltas {
        let config = SimConfig {
            delta: d,
            ..scaled(SimConfig::default())
        };
        let m = run(config, Approach::MobiEyesEqp);
        t.push(
            d,
            vec![
                m.msgs_per_second,
                m.uplink_msgs_per_second,
                m.avg_result_error,
            ],
        );
        progress("ablation_delta", &format!("delta={d} done"));
    }
    t
}
