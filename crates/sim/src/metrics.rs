//! Aggregated per-run measurements — one `RunMetrics` per simulation run,
//! covering every quantity the paper's figures plot.
//!
//! Since the telemetry redesign `RunMetrics` is a thin view: the drivers
//! record into a shared [`mobieyes_telemetry::MetricsRegistry`] and
//! [`RunMetrics::from_snapshot`] derives the per-second / per-object
//! rates from a [`MetricsSnapshot`].

use mobieyes_core::object::agent_keys;
use mobieyes_net::meter::keys as net_keys;
use mobieyes_net::{MessageMeter, RadioModel};
use mobieyes_telemetry::MetricsSnapshot;

/// The simulation-harness telemetry keys (ground-truth accounting).
pub mod sim_keys {
    /// Sum of per-query result errors vs exact ground truth (gauge).
    pub const TRUTH_ERROR_SUM: &str = "truth.error_sum";
    /// Number of (query, tick) error samples (counter).
    pub const TRUTH_ERROR_SAMPLES: &str = "truth.error_samples";
}

/// Metrics of one measured simulation run (warm-up excluded).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Human-readable label ("mobieyes-eqp", "object-index", ...).
    pub label: String,
    /// Measured ticks.
    pub ticks: usize,
    /// Measured wall-clock span of simulated time, seconds.
    pub duration_s: f64,
    /// Mean wall-clock seconds the server/engine spent per tick
    /// (Figures 1 and 3's server-load metric).
    pub server_seconds_per_tick: f64,
    /// Messages per second on the wireless medium (Figures 4, 5, 7, 8).
    pub msgs_per_second: f64,
    /// Uplink component (Figure 6).
    pub uplink_msgs_per_second: f64,
    /// Downlink component (unicasts + broadcasts).
    pub downlink_msgs_per_second: f64,
    pub uplink_bytes: u64,
    pub downlink_bytes: u64,
    /// Mean LQT size over objects and ticks (Figures 10–12).
    pub avg_lqt_size: f64,
    /// Mean queries evaluated per object per tick.
    pub avg_evals_per_object_tick: f64,
    /// Mean evaluations skipped by safe periods per object per tick.
    pub avg_safe_period_skips: f64,
    /// Mean microseconds per object per tick spent processing the LQT
    /// (Figure 13's processing-load metric).
    pub avg_eval_micros_per_object_tick: f64,
    /// Mean result error vs exact ground truth (Figure 2's metric).
    pub avg_result_error: f64,
    /// Mean per-object communication power, milliwatts (Figure 9).
    pub avg_power_mw: f64,
    /// Mean bytes sent / received per object over the run.
    pub avg_sent_bytes_per_object: f64,
    pub avg_received_bytes_per_object: f64,
}

impl RunMetrics {
    /// Derives the full metrics view from a telemetry snapshot taken at
    /// the end of a measured run.
    ///
    /// `server_seconds` (the engine's wall time over the measured ticks)
    /// is taken from the snapshot's `mediation` profiler phase, and the
    /// per-object power (Figure 9) from the bytes the objects sent
    /// (`net.uplink.bytes`) and received (`net.rx.bytes`) under the
    /// default radio model.
    pub fn from_snapshot(
        label: impl Into<String>,
        ticks: usize,
        duration_s: f64,
        n_objects: usize,
        snapshot: &MetricsSnapshot,
    ) -> Self {
        let n = n_objects.max(1) as f64;
        let t = ticks.max(1) as f64;
        let duration = if duration_s > 0.0 { duration_s } else { 1.0 };
        let uplink_msgs = snapshot.counter(net_keys::UPLINK_MSGS);
        let unicast_msgs = snapshot.counter(net_keys::UNICAST_MSGS);
        let broadcast_msgs = snapshot.counter(net_keys::BROADCAST_MSGS);
        // Server load = everything the server/engine does in a tick:
        // the mediation pass plus the result-ingestion pass.
        let mediation_nanos: u64 = snapshot
            .profiler
            .iter()
            .filter(|p| p.phase == "mediation" || p.phase == "ingest")
            .map(|p| p.nanos)
            .sum();
        let samples = snapshot.counter(sim_keys::TRUTH_ERROR_SAMPLES);
        let (sent, received) = MessageMeter::from_snapshot(snapshot).mean_node_traffic(n_objects);
        let mut m = RunMetrics {
            label: label.into(),
            ticks,
            duration_s,
            server_seconds_per_tick: mediation_nanos as f64 / 1e9 / t,
            msgs_per_second: (uplink_msgs + unicast_msgs + broadcast_msgs) as f64 / duration,
            uplink_msgs_per_second: uplink_msgs as f64 / duration,
            downlink_msgs_per_second: (unicast_msgs + broadcast_msgs) as f64 / duration,
            uplink_bytes: snapshot.counter(net_keys::UPLINK_BYTES),
            downlink_bytes: snapshot.counter(net_keys::UNICAST_BYTES)
                + snapshot.counter(net_keys::BROADCAST_BYTES),
            avg_lqt_size: snapshot
                .histogram(agent_keys::LQT_SIZE)
                .map(|h| h.mean())
                .unwrap_or(0.0),
            avg_evals_per_object_tick: snapshot.counter(agent_keys::EVALUATED) as f64 / (n * t),
            avg_safe_period_skips: snapshot.counter(agent_keys::SKIPPED_SAFE_PERIOD) as f64
                / (n * t),
            avg_eval_micros_per_object_tick: snapshot.wall(agent_keys::EVAL_NANOS) as f64
                / 1e3
                / (n * t),
            avg_result_error: if samples > 0 {
                snapshot.gauge(sim_keys::TRUTH_ERROR_SUM) / samples as f64
            } else {
                0.0
            },
            ..Default::default()
        };
        m.set_power(&RadioModel::default(), sent, received);
        m
    }

    /// Fills the power fields from per-object byte means and a radio model.
    fn set_power(&mut self, radio: &RadioModel, sent: f64, received: f64) {
        self.avg_sent_bytes_per_object = sent;
        self.avg_received_bytes_per_object = received;
        if self.duration_s > 0.0 {
            self.avg_power_mw = radio.average_power(
                sent.round() as u64,
                received.round() as u64,
                self.duration_s,
            ) * 1e3;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_telemetry::{Phase, Telemetry};

    #[test]
    fn power_from_traffic() {
        let mut m = RunMetrics {
            duration_s: 100.0,
            ..Default::default()
        };
        m.set_power(&RadioModel::default(), 1000.0, 2000.0);
        assert!(m.avg_power_mw > 0.0);
        assert_eq!(m.avg_sent_bytes_per_object, 1000.0);
        // More sent bytes -> strictly more power.
        let mut m2 = RunMetrics {
            duration_s: 100.0,
            ..Default::default()
        };
        m2.set_power(&RadioModel::default(), 2000.0, 2000.0);
        assert!(m2.avg_power_mw > m.avg_power_mw);
    }

    #[test]
    fn zero_duration_leaves_power_zero() {
        let mut m = RunMetrics::default();
        m.set_power(&RadioModel::default(), 1000.0, 2000.0);
        assert_eq!(m.avg_power_mw, 0.0);
    }

    #[test]
    fn view_derives_rates_from_snapshot() {
        let tel = Telemetry::new();
        tel.add(net_keys::UPLINK_MSGS, 100);
        tel.add(net_keys::UPLINK_BYTES, 4_000);
        tel.add(net_keys::UNICAST_MSGS, 10);
        tel.add(net_keys::UNICAST_BYTES, 500);
        tel.add(net_keys::BROADCAST_MSGS, 40);
        tel.add(net_keys::BROADCAST_BYTES, 2_000);
        tel.add(agent_keys::EVALUATED, 200);
        tel.wall_add(agent_keys::EVAL_NANOS, 2_000_000);
        tel.observe(agent_keys::LQT_SIZE, 2.0);
        tel.observe(agent_keys::LQT_SIZE, 4.0);
        tel.gauge_add(sim_keys::TRUTH_ERROR_SUM, 0.5);
        tel.add(sim_keys::TRUTH_ERROR_SAMPLES, 10);
        // 10 ticks of mediation wall time.
        tel.with_registry(|_| ());
        for _ in 0..10 {
            tel.timed(Phase::Mediation, || ());
        }
        let snap = tel.snapshot();
        let m = RunMetrics::from_snapshot("test", 10, 300.0, 20, &snap);
        assert_eq!(m.msgs_per_second, 150.0 / 300.0);
        assert_eq!(m.uplink_msgs_per_second, 100.0 / 300.0);
        assert_eq!(m.downlink_msgs_per_second, 50.0 / 300.0);
        assert_eq!(m.uplink_bytes, 4_000);
        assert_eq!(m.downlink_bytes, 2_500);
        assert_eq!(m.avg_lqt_size, 3.0);
        assert_eq!(m.avg_evals_per_object_tick, 1.0);
        assert_eq!(m.avg_result_error, 0.05);
        assert_eq!(m.avg_eval_micros_per_object_tick, 10.0);
    }
}
