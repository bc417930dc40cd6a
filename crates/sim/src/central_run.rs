//! Drivers for the centralized comparison points.
//!
//! Two kinds of measurements:
//!
//! - [`CentralSim`] runs a real centralized engine (object index or query
//!   index) over the shared mobility trace and times its per-tick server
//!   work — the Figure 1/3 baselines.
//! - [`MessagingModel`] computes the wireless traffic of the *naive*
//!   (position per tick) and *central optimal* (dead-reckoned velocity
//!   reports) reporting schemes — the Figure 5–9 baselines. These schemes
//!   send everything uplink and nothing downlink.

use crate::config::SimConfig;
use crate::metrics::{sim_keys, RunMetrics};
use crate::mobility::Mobility;
use crate::truth::{result_error, GroundTruth};
use crate::workload::Workload;
use mobieyes_baselines::{
    CentralEngine, ObjectIndexEngine, ObjectReport, QueryDef, QueryIndexEngine,
};
use mobieyes_core::{Filter, ObjectId, Properties, QueryId};
use mobieyes_geo::{LinearMotion, QueryRegion};
use mobieyes_net::meter::keys as net_keys;
use mobieyes_telemetry::{Phase, Telemetry};
use std::sync::Arc;

/// Which centralized engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentralKind {
    ObjectIndex,
    QueryIndex,
}

/// A centralized engine driven by the shared mobility trace.
pub struct CentralSim {
    config: SimConfig,
    kind: CentralKind,
    mobility: Mobility,
    object_index: Option<ObjectIndexEngine>,
    query_index: Option<QueryIndexEngine>,
    truth: GroundTruth,
    reports: Vec<ObjectReport>,
    tick_index: usize,
    telemetry: Telemetry,
}

impl CentralSim {
    pub fn new(config: SimConfig, kind: CentralKind) -> Self {
        Self::with_telemetry(config, kind, Telemetry::new())
    }

    /// Builds a centralized engine run recording into the injected sink.
    pub fn with_telemetry(config: SimConfig, kind: CentralKind, telemetry: Telemetry) -> Self {
        let workload = Workload::generate(&config);
        let mobility = Mobility::with_kind(
            &workload,
            config.objects_changing_velocity,
            config.time_step,
            config.seed,
            config.mobility,
        );
        let mut object_index = None;
        let mut query_index = None;
        {
            let engine: &mut dyn CentralEngine = match kind {
                CentralKind::ObjectIndex => object_index.insert(ObjectIndexEngine::new()),
                CentralKind::QueryIndex => query_index.insert(QueryIndexEngine::new()),
            };
            for i in 0..workload.objects.len() {
                engine.register_object(ObjectId(i as u32), Properties::new());
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
        }
        let max_radius = workload
            .queries
            .iter()
            .map(|q| q.radius)
            .fold(1.0f64, f64::max);
        let truth = GroundTruth::new(&workload, max_radius.max(config.alpha))
            .with_threads(config.resolved_threads());
        CentralSim {
            config,
            kind,
            mobility,
            object_index,
            query_index,
            truth,
            reports: Vec::new(),
            tick_index: 0,
            telemetry,
        }
    }

    /// The shared instrumentation sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn engine(&mut self) -> &mut dyn CentralEngine {
        match self.kind {
            CentralKind::ObjectIndex => self.object_index.as_mut().unwrap(),
            CentralKind::QueryIndex => self.query_index.as_mut().unwrap(),
        }
    }

    /// Runs warm-up + measured ticks; returns server-load and accuracy
    /// metrics (messaging for the centralized schemes is modeled by
    /// [`MessagingModel`]).
    pub fn run(&mut self) -> RunMetrics {
        let total = self.config.warmup_ticks + self.config.ticks;
        for k in 0..total {
            if k == self.config.warmup_ticks {
                // Measurement starts here: drop warm-up wall time.
                self.telemetry.reset();
            }
            self.tick_index += 1;
            let t = self.tick_index as f64 * self.config.time_step;
            self.telemetry.set_now(t);
            {
                let _span = self.telemetry.span(Phase::Mobility);
                self.mobility.step();
            }
            self.reports.clear();
            for i in 0..self.mobility.len() {
                self.reports.push(ObjectReport {
                    oid: ObjectId(i as u32),
                    pos: self.mobility.positions[i],
                    vel: self.mobility.velocities[i],
                    tm: t,
                });
            }
            let reports = std::mem::take(&mut self.reports);
            {
                let _span = self.telemetry.span(Phase::Mediation);
                self.engine().tick(&reports, t);
            }
            self.reports = reports;

            if k >= self.config.warmup_ticks {
                // Borrow the engine by field (not through `&self`) so it can
                // coexist with the mutable borrow the evaluator scratch needs.
                let engine: &dyn CentralEngine = match self.kind {
                    CentralKind::ObjectIndex => self.object_index.as_ref().unwrap(),
                    CentralKind::QueryIndex => self.query_index.as_ref().unwrap(),
                };
                let truth = self.truth.evaluate(&self.mobility.positions);
                for (q, t_set) in truth.iter().enumerate() {
                    if let Some(reported) = engine.result(QueryId(q as u32)) {
                        self.telemetry
                            .gauge_add(sim_keys::TRUTH_ERROR_SUM, result_error(t_set, reported));
                        self.telemetry.incr(sim_keys::TRUTH_ERROR_SAMPLES);
                    }
                }
            }
        }
        let name = match self.kind {
            CentralKind::ObjectIndex => "object-index",
            CentralKind::QueryIndex => "query-index",
        };
        RunMetrics::from_snapshot(
            name,
            self.config.ticks,
            self.config.measured_seconds(),
            self.mobility.len(),
            &self.telemetry.snapshot(),
        )
    }
}

/// Which centralized reporting scheme to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessagingKind {
    /// Every object uploads its position each time step if it moved.
    Naive,
    /// Every object uploads a velocity-vector report only when its true
    /// position deviates from the advertised linear motion by more than Δ
    /// — "the minimum amount of information required for a centralized
    /// approach ... unless there is an assumption about object
    /// trajectories".
    CentralOptimal,
}

/// Message accounting for the naive / central-optimal schemes.
pub struct MessagingModel {
    config: SimConfig,
    kind: MessagingKind,
    mobility: Mobility,
    advertised: Vec<LinearMotion>,
    prev_positions: Vec<mobieyes_geo::Point>,
    tick_index: usize,
    telemetry: Telemetry,
}

/// Wire size of a naive position report: tag + oid + pos + tm.
pub const NAIVE_REPORT_BYTES: usize = 1 + 4 + 16 + 8;
/// Wire size of a velocity report (same as the MobiEyes uplink).
pub const VELOCITY_REPORT_BYTES: usize = 1 + 4 + 40;

impl MessagingModel {
    pub fn new(config: SimConfig, kind: MessagingKind) -> Self {
        Self::with_telemetry(config, kind, Telemetry::new())
    }

    /// Builds a messaging model recording into the injected sink.
    pub fn with_telemetry(config: SimConfig, kind: MessagingKind, telemetry: Telemetry) -> Self {
        let workload = Workload::generate(&config);
        let mobility = Mobility::with_kind(
            &workload,
            config.objects_changing_velocity,
            config.time_step,
            config.seed,
            config.mobility,
        );
        let advertised = (0..mobility.len())
            .map(|i| LinearMotion::new(mobility.positions[i], mobility.velocities[i], 0.0))
            .collect();
        let prev_positions = mobility.positions.clone();
        MessagingModel {
            config,
            kind,
            mobility,
            advertised,
            prev_positions,
            tick_index: 0,
            telemetry,
        }
    }

    /// The shared instrumentation sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn run(&mut self) -> RunMetrics {
        let total = self.config.warmup_ticks + self.config.ticks;
        for k in 0..total {
            self.tick_index += 1;
            let t = self.tick_index as f64 * self.config.time_step;
            self.telemetry.set_now(t);
            self.prev_positions
                .copy_from_slice(&self.mobility.positions);
            self.mobility.step();
            if k < self.config.warmup_ticks {
                // Keep dead-reckoning state warm but do not count traffic.
                if self.kind == MessagingKind::CentralOptimal {
                    self.reckon(t, &mut 0, &mut 0);
                }
                continue;
            }
            let (tick_msgs, tick_bytes) = {
                let mut m = 0u64;
                let mut b = 0u64;
                match self.kind {
                    MessagingKind::Naive => {
                        for i in 0..self.mobility.len() {
                            if self.mobility.positions[i] != self.prev_positions[i] {
                                m += 1;
                                b += NAIVE_REPORT_BYTES as u64;
                            }
                        }
                    }
                    MessagingKind::CentralOptimal => {
                        self.reckon(t, &mut m, &mut b);
                    }
                }
                (m, b)
            };
            self.telemetry.add(net_keys::UPLINK_MSGS, tick_msgs);
            self.telemetry.add(net_keys::UPLINK_BYTES, tick_bytes);
        }
        let duration = self.config.measured_seconds();
        let n = self.mobility.len().max(1);
        RunMetrics::from_snapshot(
            match self.kind {
                MessagingKind::Naive => "naive",
                MessagingKind::CentralOptimal => "central-optimal",
            },
            self.config.ticks,
            duration,
            n,
            &self.telemetry.snapshot(),
        )
    }

    /// One dead-reckoning pass: report objects whose true position drifted
    /// more than Δ from their advertised motion.
    fn reckon(&mut self, t: f64, msgs: &mut u64, bytes: &mut u64) {
        for i in 0..self.mobility.len() {
            let pos = self.mobility.positions[i];
            if self.advertised[i].should_report(t, pos, self.config.delta) {
                *msgs += 1;
                *bytes += VELOCITY_REPORT_BYTES as u64;
                self.advertised[i] = LinearMotion::new(pos, self.mobility.velocities[i], t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_reach_near_exact_results() {
        for kind in [CentralKind::ObjectIndex, CentralKind::QueryIndex] {
            let m = CentralSim::new(SimConfig::small_test(41), kind).run();
            assert!(
                m.avg_result_error < 1e-9,
                "{:?} should be exact, error = {}",
                kind,
                m.avg_result_error
            );
            assert!(m.server_seconds_per_tick > 0.0);
        }
    }

    #[test]
    fn naive_sends_one_message_per_moving_object_per_tick() {
        let c = SimConfig::small_test(42);
        let m = MessagingModel::new(c.clone(), MessagingKind::Naive).run();
        // Nearly all 300 objects move every tick: ~300 msgs / 30 s = ~10/s.
        let expect = c.num_objects as f64 / c.time_step;
        assert!(
            m.msgs_per_second > 0.8 * expect && m.msgs_per_second <= expect * 1.01,
            "naive rate {} vs expected ~{}",
            m.msgs_per_second,
            expect
        );
    }

    #[test]
    fn central_optimal_sends_fewer_messages_than_naive() {
        let c = SimConfig::small_test(43);
        let naive = MessagingModel::new(c.clone(), MessagingKind::Naive).run();
        let opt = MessagingModel::new(c, MessagingKind::CentralOptimal).run();
        assert!(
            opt.msgs_per_second < naive.msgs_per_second / 2.0,
            "central-optimal {} should be far below naive {}",
            opt.msgs_per_second,
            naive.msgs_per_second
        );
        assert!(opt.msgs_per_second > 0.0);
    }

    #[test]
    fn messaging_power_is_uplink_only() {
        let c = SimConfig::small_test(44);
        let m = MessagingModel::new(c, MessagingKind::Naive).run();
        assert!(m.avg_power_mw > 0.0);
        assert_eq!(m.avg_received_bytes_per_object, 0.0);
        assert_eq!(m.downlink_msgs_per_second, 0.0);
    }
}
