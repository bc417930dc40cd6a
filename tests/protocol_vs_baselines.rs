//! MobiEyes vs the centralized engines on the *same* mobility trace: the
//! distributed protocol must converge to (almost) the same answers a
//! central server computes with full information.

use mobieyes::baselines::{CentralEngine, ObjectReport, QueryDef, QueryIndexEngine};
use mobieyes::core::{Filter, ObjectId, QueryId};
use mobieyes::geo::QueryRegion;
use mobieyes::sim::{
    CentralKind, CentralSim, MessagingKind, MessagingModel, MobiEyesSim, Mobility, SimConfig,
    Workload,
};
use std::sync::Arc;

#[test]
fn centralized_engines_agree_with_each_other() {
    for seed in [301, 302] {
        let oi = CentralSim::new(SimConfig::small_test(seed), CentralKind::ObjectIndex).run();
        let qi = CentralSim::new(SimConfig::small_test(seed), CentralKind::QueryIndex).run();
        assert!(oi.avg_result_error < 1e-9);
        assert!(qi.avg_result_error < 1e-9);
    }
}

#[test]
fn mobieyes_results_overlap_with_central_results() {
    // Drive a query-index engine and the MobiEyes protocol over the same
    // trace and compare final result sets: MobiEyes lags by at most one
    // protocol round, so the overlap must be high.
    let config = SimConfig::small_test(303);
    let workload = Workload::generate(&config);
    let mut mobility = Mobility::new(
        &workload,
        config.objects_changing_velocity,
        config.time_step,
        config.seed,
    );
    let mut engine = QueryIndexEngine::new();
    for i in 0..workload.objects.len() {
        engine.register_object(ObjectId(i as u32), mobieyes::core::Properties::new());
    }
    for (q, spec) in workload.queries.iter().enumerate() {
        engine.install_query(QueryDef {
            qid: QueryId(q as u32),
            focal: ObjectId(spec.focal_idx as u32),
            region: QueryRegion::circle(spec.radius),
            filter: Arc::new(Filter::with_selectivity(
                workload.selectivity,
                spec.filter_salt,
            )),
        });
    }

    let mut sim = MobiEyesSim::new(config.clone());
    let total = config.warmup_ticks + config.ticks;
    for k in 0..total {
        // Keep both systems on the identical trace: the engine gets its
        // reports from a mobility clone stepped in lock step with the sim.
        mobility.step();
        let t = (k + 1) as f64 * config.time_step;
        let reports: Vec<ObjectReport> = (0..mobility.len())
            .map(|i| ObjectReport {
                oid: ObjectId(i as u32),
                pos: mobility.positions[i],
                vel: mobility.velocities[i],
                tm: t,
            })
            .collect();
        engine.tick(&reports, t);
        sim.step(false);
    }

    let mut common = 0usize;
    let mut central_total = 0usize;
    for (q, &qid) in sim.query_ids().iter().enumerate() {
        let central = engine
            .result(QueryId(q as u32))
            .cloned()
            .unwrap_or_default();
        let distributed = sim.query_result(qid).cloned().unwrap_or_default();
        central_total += central.len();
        common += central.intersection(&distributed).count();
    }
    assert!(
        central_total > 0,
        "central engine found nothing — workload broken"
    );
    let overlap = common as f64 / central_total as f64;
    assert!(
        overlap > 0.85,
        "distributed results cover only {overlap:.2} of central results"
    );
}

#[test]
fn mobieyes_messaging_beats_naive() {
    let config = SimConfig::small_test(304);
    let mobieyes = MobiEyesSim::new(config.clone()).run();
    let naive = MessagingModel::new(config, MessagingKind::Naive).run();
    assert!(
        mobieyes.msgs_per_second < naive.msgs_per_second,
        "MobiEyes {} msgs/s must undercut naive {}",
        mobieyes.msgs_per_second,
        naive.msgs_per_second
    );
}

#[test]
fn lqp_uplink_beats_central_optimal() {
    // Figure 6: LQP slashes uplink traffic below even the central-optimal
    // scheme, because non-focal objects never talk to the server.
    let config = SimConfig::small_test(305).with_propagation(mobieyes::core::Propagation::Lazy);
    let lqp = MobiEyesSim::new(config.clone()).run();
    let opt = MessagingModel::new(config, MessagingKind::CentralOptimal).run();
    assert!(
        lqp.uplink_msgs_per_second < opt.uplink_msgs_per_second,
        "LQP uplink {} must undercut central-optimal {}",
        lqp.uplink_msgs_per_second,
        opt.uplink_msgs_per_second
    );
}
