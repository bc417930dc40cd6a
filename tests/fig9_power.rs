//! Figure 9 pin: the per-object power figure and the mean sent / received
//! bytes behind it, exact to the bit, for two seeded small runs — eager
//! propagation, and lazy propagation under loss, duplication and churn —
//! at one and at four worker threads. The byte means are the paper's
//! per-object traffic; any change to how sent or received bytes are
//! counted (not only to what the protocol sends) moves them.

use mobieyes::net::meter::keys as net_keys;
use mobieyes::prelude::*;

/// Bit patterns of `(avg_power_mw, avg_sent_bytes_per_object,
/// avg_received_bytes_per_object)`.
type Fig9 = (u64, u64, u64);

fn eqp() -> SimConfig {
    SimConfig::small_test(91)
}

fn lqp_under_faults() -> SimConfig {
    SimConfig {
        uplink_drop: 0.1,
        downlink_drop: 0.1,
        dup_rate: 0.05,
        churn_rate: 0.05,
        ..SimConfig::small_test(92)
            .with_propagation(Propagation::Lazy)
            .with_lease_ticks(6)
    }
}

fn fig9(config: SimConfig, threads: usize) -> Fig9 {
    let mut sim = MobiEyesSim::new(config.with_threads(threads));
    let m = sim.run();
    let objects = sim.config.num_objects as f64;
    // Every byte an object sends is an uplink the network charged.
    let uplink_bytes = sim.telemetry().snapshot().counter(net_keys::UPLINK_BYTES);
    assert_eq!(
        (m.avg_sent_bytes_per_object * objects).round() as u64,
        uplink_bytes,
        "total sent bytes against net.uplink.bytes"
    );
    assert!(m.avg_power_mw > 0.0 && m.avg_received_bytes_per_object > 0.0);
    (
        m.avg_power_mw.to_bits(),
        m.avg_sent_bytes_per_object.to_bits(),
        m.avg_received_bytes_per_object.to_bits(),
    )
}

#[test]
fn figure_9_power_and_byte_means_are_pinned() {
    let mut got = Vec::new();
    for (name, make, expected) in [
        (
            "eqp",
            eqp as fn() -> SimConfig,
            // 0.2176 mW, 114.243 B sent, 671.38 B received.
            (
                4597007886521861983,
                4637739576834206816,
                4649116736752231383,
            ),
        ),
        (
            "lqp under faults",
            lqp_under_faults,
            // 0.3148 mW, 116.26 B sent, 1908.6 B received.
            (
                4599343353208624603,
                4637881487134965105,
                4656108927017444966,
            ),
        ),
    ] {
        for threads in [1, 4] {
            let run = fig9(make(), threads);
            println!(
                "{name} at {threads} threads: power {} mW, sent {} B, received {} B ({run:?})",
                f64::from_bits(run.0),
                f64::from_bits(run.1),
                f64::from_bits(run.2)
            );
            got.push((name, threads, run, expected));
        }
    }
    for (name, threads, run, expected) in got {
        assert_eq!(run, expected, "{name} at {threads} threads");
    }
}
