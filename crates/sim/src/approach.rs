//! One entry point for every engine the evaluation compares.
//!
//! The figure harness and the CLI pick engines by name through
//! [`Approach`] instead of hand-written match arms over four driver
//! types. [`run_approach`] runs warm-up + measured ticks on the selected
//! engine and returns both the aggregated [`RunMetrics`] view and the raw
//! telemetry snapshot it was derived from.

use crate::central_run::{CentralKind, CentralSim, MessagingKind, MessagingModel};
use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::mobieyes_run::MobiEyesSim;
use mobieyes_core::Propagation;
use mobieyes_telemetry::{MetricsSnapshot, Telemetry};

/// Every engine of the paper's evaluation, selectable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// MobiEyes with eager query propagation.
    MobiEyesEqp,
    /// MobiEyes with lazy query propagation.
    MobiEyesLqp,
    /// Centralized: every object reports its position every tick.
    Naive,
    /// Centralized: dead-reckoned velocity reports (the paper's
    /// "central optimal" messaging lower bound).
    CentralOptimal,
    /// Centralized engine indexing objects in an R*-tree.
    ObjectIndex,
    /// Centralized engine indexing query regions in an R*-tree.
    QueryIndex,
}

impl Approach {
    /// All approaches, in the order the figures list them.
    pub const ALL: [Approach; 6] = [
        Approach::MobiEyesEqp,
        Approach::MobiEyesLqp,
        Approach::Naive,
        Approach::CentralOptimal,
        Approach::ObjectIndex,
        Approach::QueryIndex,
    ];

    /// The stable CLI / figure-series name.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::MobiEyesEqp => "mobieyes-eqp",
            Approach::MobiEyesLqp => "mobieyes-lqp",
            Approach::Naive => "naive",
            Approach::CentralOptimal => "central-optimal",
            Approach::ObjectIndex => "object-index",
            Approach::QueryIndex => "query-index",
        }
    }

    /// Parses a CLI name (the inverse of [`name`](Self::name)).
    pub fn from_name(name: &str) -> Option<Approach> {
        Approach::ALL.iter().copied().find(|a| a.name() == name)
    }
}

impl std::str::FromStr for Approach {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Approach::from_name(s).ok_or_else(|| {
            let names: Vec<&str> = Approach::ALL.iter().map(|a| a.name()).collect();
            format!(
                "unknown approach '{s}' (expected one of: {})",
                names.join(", ")
            )
        })
    }
}

/// Everything one engine run produces: the figure-level metrics view plus
/// the raw registry snapshot it was derived from (for export / debugging).
#[derive(Debug, Clone)]
pub struct RunReport {
    pub approach: Approach,
    pub metrics: RunMetrics,
    pub snapshot: MetricsSnapshot,
    /// The cluster coordinator's private bus-sink snapshot (recovery and
    /// rebalance counters/events) on a partitioned MobiEyes run, `None`
    /// otherwise. Kept separate from `snapshot` so protocol equivalence
    /// comparisons stay deployment-shape independent; exporters may
    /// [`MetricsSnapshot::absorb`] it into the user-facing output.
    pub bus_snapshot: Option<MetricsSnapshot>,
}

/// Runs `approach` over `config` (warm-up + measured ticks) with a fresh
/// telemetry sink.
pub fn run_approach(config: SimConfig, approach: Approach) -> RunReport {
    run_approach_with(config, approach, Telemetry::new())
}

/// Like [`run_approach`] but recording into the injected sink (which is
/// reset when the measured window starts).
pub fn run_approach_with(config: SimConfig, approach: Approach, telemetry: Telemetry) -> RunReport {
    let mut bus_snapshot = None;
    let metrics = match approach {
        Approach::MobiEyesEqp => {
            let mut sim = MobiEyesSim::with_telemetry(config, telemetry.clone());
            let metrics = sim.run();
            bus_snapshot = sim.bus_snapshot();
            sim.shutdown();
            metrics
        }
        Approach::MobiEyesLqp => {
            let mut sim = MobiEyesSim::with_telemetry(
                config.with_propagation(Propagation::Lazy),
                telemetry.clone(),
            );
            let metrics = sim.run();
            bus_snapshot = sim.bus_snapshot();
            sim.shutdown();
            metrics
        }
        Approach::Naive => {
            MessagingModel::with_telemetry(config, MessagingKind::Naive, telemetry.clone()).run()
        }
        Approach::CentralOptimal => {
            MessagingModel::with_telemetry(config, MessagingKind::CentralOptimal, telemetry.clone())
                .run()
        }
        Approach::ObjectIndex => {
            CentralSim::with_telemetry(config, CentralKind::ObjectIndex, telemetry.clone()).run()
        }
        Approach::QueryIndex => {
            CentralSim::with_telemetry(config, CentralKind::QueryIndex, telemetry.clone()).run()
        }
    };
    RunReport {
        approach,
        metrics,
        snapshot: telemetry.snapshot(),
        bus_snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for a in Approach::ALL {
            assert_eq!(Approach::from_name(a.name()), Some(a));
            assert_eq!(a.name().parse::<Approach>().unwrap(), a);
        }
        assert!("mobieyes".parse::<Approach>().is_err());
    }

    #[test]
    fn every_approach_runs() {
        let config = SimConfig::small_test(61);
        for a in Approach::ALL {
            let report = run_approach(config.clone(), a);
            assert_eq!(report.approach, a);
            assert_eq!(report.metrics.label, a.name(), "label mismatch for {a:?}");
            assert_eq!(report.metrics.ticks, config.ticks);
        }
    }

    #[test]
    fn report_snapshot_matches_metrics() {
        let report = run_approach(SimConfig::small_test(62), Approach::MobiEyesEqp);
        assert!(report.metrics.msgs_per_second > 0.0);
        // The snapshot the metrics were derived from is exposed verbatim.
        let counted: u64 = ["net.uplink.msgs", "net.unicast.msgs", "net.broadcast.msgs"]
            .iter()
            .map(|k| report.snapshot.counter(k))
            .sum();
        let expect = report.metrics.msgs_per_second * report.metrics.duration_s;
        assert_eq!(counted as f64, expect);
    }
}
