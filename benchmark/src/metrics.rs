//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound. The root
//! `BENCHMARK.json` is generated from these tables (`manifest`
//! subcommand), so the contract file and the program cannot drift apart.

use crate::jsonio::obj;
use crate::workloads::WORKLOADS;
use mobieyes_telemetry::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Seconds of measurement the driver asks for (`run_seconds`): at the
/// nominal tick rates every workload then measures at least 100 ticks
/// per repetition, the fewest that leave ten samples beyond p90.
pub const RUN_SECONDS: u64 = 25;

/// What a user of the system sees. Every metric is reported on every
/// workload and is never 0 on any of them. The timing metrics carry the
/// contract's widest bound: on the shared 2-core reference host the speed
/// of CPU-bound code drifts by 10-15 % over tens of minutes (README,
/// "Steadiness"), so a single set of runs cannot resolve less; finer
/// claims take the alternating-pairs recipe. The two message-cost metrics
/// are exact counts at a fixed seed; their bounds only cover how far the
/// count moves from one seed to the next.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tick_ms_p50", "ms", Lower, 0.25),
    e2e("tick_ms_p90", "ms", Lower, 0.25),
    e2e("uplinks_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_tick", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("wireless_bytes_per_object_tick", "B", Lower, 0.10),
    e2e("uplink_msgs_per_object_tick", "count", Lower, 0.10),
];

/// Single layers, named after the modules they measure. No bounds: they
/// explain a move of an end-to-end metric, they do not gate one.
pub const PER_LAYER: [MetricDef; 58] = [
    layer("sim.mobility.ms_per_tick", "ms", Lower),
    layer("core.object.motion_ms_per_tick", "ms", Lower),
    layer("core.object.process_ms_per_tick", "ms", Lower),
    layer("core.object.evals_per_tick", "count", Lower),
    layer("core.object.eval_ns_per_eval", "ns", Lower),
    layer("core.object.safe_period_skip_ratio", "ratio", Higher),
    layer("core.object.lqt_size_mean", "count", Lower),
    layer("core.server.mediation_ms_per_tick", "ms", Lower),
    layer("core.server.ingest_ms_per_tick", "ms", Lower),
    layer("core.server.uplinks_per_tick", "count", Lower),
    layer("core.server.us_per_uplink", "us", Lower),
    layer("core.server.broadcast_ops_per_tick", "count", Lower),
    layer("core.server.heartbeats_per_tick", "count", Lower),
    layer("sim.tick.unattributed_ms_per_tick", "ms", Lower),
    layer("net.sim.uplink_msgs_per_tick", "count", Lower),
    layer("net.sim.unicast_msgs_per_tick", "count", Lower),
    layer("net.sim.broadcast_msgs_per_tick", "count", Lower),
    layer("net.sim.fault_dropped_per_tick", "count", Lower),
    layer("cluster.bus.msgs_per_tick", "count", Lower),
    layer("cluster.bus.bytes_per_tick", "B", Lower),
    layer("cluster.rebalance.fence_ms", "ms", Lower),
    layer("cluster.rebalance.installs", "count", Lower),
    layer("cluster.coordinator.cpu_ms_per_tick", "ms", Lower),
    layer("cluster.coordinator.blocked_ms_per_tick", "ms", Lower),
    layer("cluster.partition.cpu_ms_per_tick", "ms", Lower),
    layer("cluster.partition.cpu_skew", "ratio", Lower),
    layer("cluster.rpc.frames_per_tick", "count", Lower),
    layer("cluster.rpc.bytes_per_tick", "B", Lower),
    layer("cluster.rpc.round_trips_per_uplink", "ratio", Lower),
    layer("cluster.rpc.request_bytes_p50", "B", Lower),
    layer("cluster.rpc.service_us_p50", "us", Lower),
    layer("cluster.rpc.service_us_p99", "us", Lower),
    layer("cluster.rpc.max_in_flight", "count", Higher),
    layer("net.socket.syscalls_per_tick", "count", Lower),
    layer("net.socket.ctx_switches_per_tick", "count", Lower),
    layer("net.socket.roundtrip_us_p50", "us", Lower),
    layer("store.file_syscalls_per_tick", "count", Lower),
    layer("store.records_per_tick", "count", Lower),
    layer("store.disk_bytes_per_record", "B", Lower),
    layer("store.segments", "count", Lower),
    layer("store.checkpoint_ms", "ms", Lower),
    layer("store.append_ns_per_record", "ns", Lower),
    layer("store.flush_us_p50", "us", Lower),
    layer("store.replay_records_per_s", "1/s", Higher),
    layer("store.trajectory_query_us_p50", "us", Lower),
    layer("proc.peak_rss_mb.coordinator", "MiB", Lower),
    layer("proc.peak_rss_mb.partitions", "MiB", Lower),
    layer("sim.truth.evaluate_ms", "ms", Lower),
    layer("harness.verify_s", "s", Lower),
    layer("harness.rep_spread_pct", "%", Lower),
    layer("harness.tick_samples", "count", Higher),
    layer("harness.tail_percentile", "count", Higher),
    layer("trace.tick_ms_p50", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // Exact quantities that are 0 on some workload, which an end-to-end
    // metric may never be; they are gated by the correctness check.
    layer("result_error_mean", "ratio", Lower),
    layer("disk_bytes_per_tick", "B", Lower),
    layer("failed_tick_share", "ratio", Lower),
    layer("harness.repetitions", "count", Higher),
];

/// The contract file: exactly the keys the driver reads.
pub fn manifest() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    let metric = |m: &MetricDef, bounded: bool| {
        let mut entries = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.as_str())),
        ];
        if bounded {
            entries.push(("bound", Value::Num(m.bound)));
        }
        obj(entries)
    };
    obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ticks_for, WORKLOADS};
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name, 64, "_.-"), "name {}", m.name);
            assert!(
                well_formed(m.unit, 16, "_/%.-") || m.unit == "%",
                "unit {}",
                m.unit
            );
            assert!(names.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"));
            assert!(names.insert(w.name), "name {} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn run_seconds_leaves_ten_samples_beyond_p90() {
        for w in &WORKLOADS {
            assert!(ticks_for(w, RUN_SECONDS as f64) >= 100, "{}", w.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the package was copied out of the repository
        };
        let committed = mobieyes_telemetry::json::parse(&text).unwrap();
        assert!(
            committed == manifest(),
            "regenerate with `mobieyes-benchmark manifest > BENCHMARK.json`"
        );
    }
}
