//! Shape regression tests: the qualitative claims of the paper's figures,
//! checked at quick scale on every test run. These are the "does the
//! reproduction still reproduce?" tests — each asserts the *ordering and
//! trend* a figure shows, not absolute numbers.

use mobieyes_bench::{figures, Table};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Figure runs measure wall-clock server load; running them concurrently
/// on shared cores makes those measurements noisy. Serialize the tests.
static SERIAL: Mutex<()> = Mutex::new(());

fn quick() -> MutexGuard<'static, ()> {
    // Process-global, but every test sets the same value.
    std::env::set_var("MOBIEYES_QUICK", "1");
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn fig1_shape_mobieyes_beats_centralized_indexes() {
    let _serial = quick();
    let t = figures::fig1();
    for (nmq, ys) in &t.rows {
        let (oi, qi, eqp, lqp) = (ys[0], ys[1], ys[2], ys[3]);
        assert!(eqp < oi, "nmq={nmq}: EQP {eqp} must beat object index {oi}");
        assert!(eqp < qi, "nmq={nmq}: EQP {eqp} must beat query index {qi}");
        assert!(
            lqp <= eqp * 2.0,
            "nmq={nmq}: LQP {lqp} should not exceed EQP {eqp} much"
        );
    }
    // Query index grows with nmq; object index stays within a small band.
    let first = &t.rows.first().unwrap().1;
    let last = &t.rows.last().unwrap().1;
    assert!(
        last[1] > first[1],
        "query-index load must grow with queries"
    );
    assert!(
        last[0] < first[0] * 5.0,
        "object-index load must stay near constant"
    );
    // MobiEyes sits far below the object index (two orders of magnitude at
    // paper scale; >5x even at quick scale under timing noise).
    assert!(
        first[0] / first[2] > 5.0,
        "EQP should be far below object index at nmq=100"
    );
}

#[test]
fn fig2_shape_lqp_error_decreases_with_velocity_changes() {
    let _serial = quick();
    let t = figures::fig2();
    // For every α column, the error at the max nmo must be below the error
    // at the min nmo.
    let first = &t.rows.first().unwrap().1;
    let last = &t.rows.last().unwrap().1;
    for c in 0..t.columns.len() {
        assert!(
            last[c] <= first[c] + 0.01,
            "{}: error should fall with nmo ({} -> {})",
            t.columns[c],
            first[c],
            last[c]
        );
    }
    // The largest α is the most accurate at high velocity-change rates.
    assert!(
        last[2] <= last[0] + 0.01,
        "alpha=10 should beat alpha=2 at nmo=max"
    );
}

#[test]
fn fig9_shape_power_ordering() {
    let _serial = quick();
    let t = figures::fig9();
    for (nmq, ys) in &t.rows {
        let (naive, co, me) = (ys[0], ys[1], ys[2]);
        assert!(
            naive > me,
            "nmq={nmq}: naive power {naive} must exceed MobiEyes {me}"
        );
        assert!(co < naive, "nmq={nmq}: central-optimal must beat naive");
    }
    // MobiEyes power grows with the query count.
    assert!(
        t.rows.last().unwrap().1[2] > t.rows.first().unwrap().1[2],
        "MobiEyes power must grow with queries"
    );
}

#[test]
fn fig10_shape_lqt_grows_with_alpha_and_queries() {
    let _serial = quick();
    let t = figures::fig10();
    // Monotone in α for each query count (allowing small noise).
    for c in 0..t.columns.len() {
        let first = t.rows.first().unwrap().1[c];
        let last = t.rows.last().unwrap().1[c];
        assert!(last > first, "{}: LQT must grow with alpha", t.columns[c]);
    }
    // More queries -> larger LQT at every α.
    for (alpha, ys) in &t.rows {
        assert!(
            ys[2] >= ys[0],
            "alpha={alpha}: nmq=1000 LQT must be >= nmq=100"
        );
    }
}

#[test]
fn fig12_shape_lqt_grows_with_radius() {
    let _serial = quick();
    let t = figures::fig12();
    let first = t.rows.first().unwrap().1[0];
    let last = t.rows.last().unwrap().1[0];
    assert!(
        last > first * 1.5,
        "radius factor 4 must clearly grow the LQT ({first} -> {last})"
    );
}

#[test]
fn fig13_shape_safe_period_saves_evaluations_at_large_alpha() {
    let _serial = quick();
    let t = figures::fig13();
    let last = &t.rows.last().unwrap().1; // largest α
    let (evals_base, evals_safe, skips) = (last[2], last[3], last[4]);
    assert!(
        evals_safe < evals_base / 2.0,
        "safe period must halve evaluations at large alpha ({evals_base} -> {evals_safe})"
    );
    assert!(skips > 0.0, "skip counter must be non-zero");
}

#[test]
fn fig7_shape_central_optimal_grows_with_nmo_while_eqp_stays_flat() {
    let _serial = quick();
    let t = figures::fig7();
    let first = &t.rows.first().unwrap().1;
    let last = &t.rows.last().unwrap().1;
    // central-optimal (col 0) grows substantially with the velocity-change
    // rate; EQP at nmq=100 (col 1) moves far less in relative terms.
    assert!(
        last[0] > first[0] * 2.0,
        "central-optimal must grow with nmo"
    );
    assert!(
        last[1] < first[1] * 1.5,
        "EQP messaging must be nearly flat in nmo ({} -> {})",
        first[1],
        last[1]
    );
    // The paper's gap-closing claim: (EQP - central-optimal) shrinks.
    assert!(
        last[1] - last[0] < first[1] - first[0],
        "the EQP / central-optimal gap must shrink as nmo grows"
    );
}

#[test]
fn fig8_shape_messaging_falls_then_flattens_with_station_size() {
    let _serial = quick();
    let t = figures::fig8();
    // Largest query count column: monotone non-increasing.
    let col = t.columns.len() - 1;
    for w in t.rows.windows(2) {
        assert!(
            w[1].1[col] <= w[0].1[col] * 1.05,
            "messaging must not grow with station size ({} -> {} at alen {})",
            w[0].1[col],
            w[1].1[col],
            w[1].0
        );
    }
    // The first doubling saves more than the last (flattening).
    let n = t.rows.len();
    let first_drop = t.rows[0].1[col] - t.rows[1].1[col];
    let last_drop = t.rows[n - 2].1[col] - t.rows[n - 1].1[col];
    assert!(first_drop > last_drop, "savings must flatten out");
}

/// Figures 5 and 6 come from one sweep; the two tests share it.
fn fig5_6() -> &'static (Table, Table) {
    static SWEEP: OnceLock<(Table, Table)> = OnceLock::new();
    SWEEP.get_or_init(figures::fig5_6)
}

/// Columns of figures 5 and 6: naive, central-optimal at nmq 100 and
/// 1000, EQP at nmq 100 and 1000, LQP at nmq 100 and 1000.
const NAIVE: usize = 0;
const EQP: [usize; 2] = [3, 4];
const LQP: [usize; 2] = [5, 6];

#[test]
fn fig5_shape_naive_grows_linearly_and_loses_only_at_scale() {
    let _serial = quick();
    let t = &fig5_6().0;
    // Naive: every object reports every step, so the cost per object is
    // one constant.
    let per_object: Vec<f64> = t.rows.iter().map(|(no, ys)| ys[NAIVE] / no).collect();
    for (w, (no, _)) in per_object.windows(2).zip(&t.rows[1..]) {
        assert!(
            (w[1] / w[0] - 1.0).abs() < 0.01,
            "naive messaging must be linear in the object count (per object {} -> {} at {no})",
            w[0],
            w[1]
        );
    }
    let (_, largest) = t.rows.last().unwrap();
    for (c, &y) in largest.iter().enumerate().skip(1) {
        assert!(
            largest[NAIVE] > y,
            "at the largest object count naive ({}) must cost the most; {} reads {y}",
            largest[NAIVE],
            t.columns[c]
        );
    }
    // With few objects and many queries, MobiEyes' installs and result
    // reports outweigh the naive position stream.
    let (no, smallest) = &t.rows[0];
    for c in [EQP[1], LQP[1]] {
        assert!(
            smallest[c] > smallest[NAIVE],
            "at {no} objects {} ({}) must cost more than naive ({})",
            t.columns[c],
            smallest[c],
            smallest[NAIVE]
        );
    }
}

#[test]
fn fig6_shape_mobieyes_uplinks_beat_naive_and_lqp_beats_eqp() {
    let _serial = quick();
    let t = &fig5_6().1;
    for (no, ys) in &t.rows {
        for c in EQP.into_iter().chain(LQP) {
            assert!(
                ys[c] < ys[NAIVE],
                "at {no} objects {} sends {} uplinks, naive {}",
                t.columns[c],
                ys[c],
                ys[NAIVE]
            );
        }
        for (eqp, lqp) in EQP.into_iter().zip(LQP) {
            assert!(
                ys[lqp] < ys[eqp],
                "at {no} objects {} ({}) must send fewer uplinks than {} ({})",
                t.columns[lqp],
                ys[lqp],
                t.columns[eqp],
                ys[eqp]
            );
        }
        assert!(
            ys[LQP[0]] * 10.0 <= ys[NAIVE],
            "at {no} objects LQP at nmq=100 ({}) must send 10x fewer uplinks than naive ({})",
            ys[LQP[0]],
            ys[NAIVE]
        );
    }
}
