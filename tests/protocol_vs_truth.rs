//! End-to-end accuracy of the distributed protocol against exact ground
//! truth, across propagation modes and key parameters.

use mobieyes::core::Propagation;
use mobieyes::sim::{MobiEyesSim, SimConfig};

#[test]
fn eager_propagation_tracks_ground_truth_closely() {
    let mut sim = MobiEyesSim::new(SimConfig::small_test(101));
    let m = sim.run();
    assert!(
        m.avg_result_error < 0.15,
        "EQP error {} too high — protocol is not tracking results",
        m.avg_result_error
    );
}

#[test]
fn lazy_propagation_error_is_bounded() {
    let mut sim = MobiEyesSim::new(SimConfig::small_test(102).with_propagation(Propagation::Lazy));
    let m = sim.run();
    // LQP trades accuracy for messages: error is non-trivial but must stay
    // far from total failure.
    assert!(
        m.avg_result_error < 0.5,
        "LQP error {} looks broken",
        m.avg_result_error
    );
}

#[test]
fn lazy_error_exceeds_eager_error() {
    let eager = MobiEyesSim::new(SimConfig::small_test(103)).run();
    let lazy =
        MobiEyesSim::new(SimConfig::small_test(103).with_propagation(Propagation::Lazy)).run();
    assert!(
        lazy.avg_result_error >= eager.avg_result_error,
        "lazy error {} should not beat eager {}",
        lazy.avg_result_error,
        eager.avg_result_error
    );
}

#[test]
fn lqp_error_decreases_with_more_velocity_changes() {
    // Figure 2's central claim: frequent velocity-vector changes repair
    // LQP's missed installations faster.
    let base = SimConfig::small_test(104).with_propagation(Propagation::Lazy);
    let few = MobiEyesSim::new(base.clone().with_nmo(5)).run();
    let many = MobiEyesSim::new(base.with_nmo(150)).run();
    assert!(
        many.avg_result_error <= few.avg_result_error + 0.02,
        "error with nmo=150 ({}) should be <= error with nmo=5 ({})",
        many.avg_result_error,
        few.avg_result_error
    );
}

#[test]
fn results_are_live_and_change_over_time() {
    let mut sim = MobiEyesSim::new(SimConfig::small_test(105));
    for _ in 0..8 {
        sim.step(false);
    }
    let snapshot: Vec<_> = sim
        .query_ids()
        .iter()
        .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
        .collect();
    for _ in 0..10 {
        sim.step(false);
    }
    let later: Vec<_> = sim
        .query_ids()
        .iter()
        .map(|&q| sim.query_result(q).cloned().unwrap_or_default())
        .collect();
    assert_ne!(
        snapshot, later,
        "continuous queries must evolve as objects move"
    );
}

#[test]
fn grouping_preserves_accuracy() {
    // Skewed focal distribution so groups actually form.
    let plain = MobiEyesSim::new(SimConfig::small_test(106).with_focal_pool(5)).run();
    let grouped = MobiEyesSim::new(
        SimConfig::small_test(106)
            .with_focal_pool(5)
            .with_grouping(true),
    )
    .run();
    assert!(
        (grouped.avg_result_error - plain.avg_result_error).abs() < 0.08,
        "grouping changed accuracy: {} vs {}",
        grouped.avg_result_error,
        plain.avg_result_error
    );
}

#[test]
fn safe_period_preserves_accuracy() {
    let plain = MobiEyesSim::new(SimConfig::small_test(107)).run();
    let safe = MobiEyesSim::new(SimConfig::small_test(107).with_safe_period(true)).run();
    assert!(
        (safe.avg_result_error - plain.avg_result_error).abs() < 0.08,
        "safe periods changed accuracy: {} vs {}",
        safe.avg_result_error,
        plain.avg_result_error
    );
    // And it must actually skip work.
    assert!(
        safe.avg_safe_period_skips > 0.0,
        "safe period never skipped anything"
    );
    assert!(safe.avg_evals_per_object_tick < plain.avg_evals_per_object_tick);
}

#[test]
fn tiny_alpha_still_works() {
    let mut sim = MobiEyesSim::new(SimConfig::small_test(108).with_alpha(1.0));
    let m = sim.run();
    assert!(
        m.avg_result_error < 0.25,
        "α=1 error {}",
        m.avg_result_error
    );
}

#[test]
fn large_alpha_still_works() {
    let mut sim = MobiEyesSim::new(SimConfig::small_test(109).with_alpha(25.0));
    let m = sim.run();
    assert!(
        m.avg_result_error < 0.15,
        "α=25 error {}",
        m.avg_result_error
    );
}
