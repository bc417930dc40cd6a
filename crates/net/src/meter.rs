//! Message and byte accounting.
//!
//! The paper's messaging-cost experiments (Figures 4–8) count "the total
//! number of messages sent on the wireless medium per second", split into
//! uplink messages (object → server) and downlink messages (server →
//! object(s), either one-to-one or broadcast — a broadcast counts once per
//! transmitting base station, regardless of how many objects hear it). The
//! power experiment (Figure 9) additionally needs the mean bytes an object
//! sends and receives: every uplink byte is sent by an object
//! (`net.uplink.bytes`), and every copy of a downlink an object hears is
//! received (`net.rx.bytes`), so two totals divided by the population are
//! the means.
//!
//! Traffic is recorded into the unified
//! [`mobieyes_telemetry::MetricsRegistry`] under the `net.*` counter keys;
//! `MessageMeter` is a *view* materialized from those counters. Build one
//! with [`NetworkSim::meter`](crate::NetworkSim::meter) or
//! [`MessageMeter::from_snapshot`].

use mobieyes_telemetry::MetricsSnapshot;

/// Direction of a transmission on the wireless medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Uplink,
    /// One-to-one server → object message.
    Unicast,
    /// Server → base station broadcast (one transmission per station).
    Broadcast,
}

impl Direction {
    /// Telemetry counter keys for this direction: `(messages, bytes)`.
    pub fn counter_keys(self) -> (&'static str, &'static str) {
        match self {
            Direction::Uplink => (keys::UPLINK_MSGS, keys::UPLINK_BYTES),
            Direction::Unicast => (keys::UNICAST_MSGS, keys::UNICAST_BYTES),
            Direction::Broadcast => (keys::BROADCAST_MSGS, keys::BROADCAST_BYTES),
        }
    }
}

/// The `net.*` telemetry counter keys.
pub mod keys {
    pub const UPLINK_MSGS: &str = "net.uplink.msgs";
    pub const UPLINK_BYTES: &str = "net.uplink.bytes";
    pub const UNICAST_MSGS: &str = "net.unicast.msgs";
    pub const UNICAST_BYTES: &str = "net.unicast.bytes";
    pub const BROADCAST_MSGS: &str = "net.broadcast.msgs";
    pub const BROADCAST_BYTES: &str = "net.broadcast.bytes";
    /// Downlink bytes physically received, summed over every object and
    /// every copy heard (a broadcast heard by ten objects counts ten
    /// times; a dropped copy not at all).
    pub const RX_BYTES: &str = "net.rx.bytes";
    pub const FAULT_DROPPED: &str = "net.fault.dropped";
    pub const FAULT_DUPLICATED: &str = "net.fault.duplicated";
    pub const FAULT_UPLINK_DROPPED: &str = "net.fault.uplink_dropped";
    pub const FAULT_UPLINK_DUPLICATED: &str = "net.fault.uplink_duplicated";
}

/// Aggregated wireless traffic statistics — a point-in-time view over the
/// `net.*` telemetry counters.
#[derive(Debug, Clone, Default)]
pub struct MessageMeter {
    pub uplink_msgs: u64,
    pub uplink_bytes: u64,
    pub unicast_msgs: u64,
    pub unicast_bytes: u64,
    pub broadcast_msgs: u64,
    pub broadcast_bytes: u64,
    /// Downlink bytes physically received, over all objects.
    pub rx_bytes: u64,
}

impl MessageMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the view from a metrics snapshot.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Self {
        MessageMeter {
            uplink_msgs: snapshot.counter(keys::UPLINK_MSGS),
            uplink_bytes: snapshot.counter(keys::UPLINK_BYTES),
            unicast_msgs: snapshot.counter(keys::UNICAST_MSGS),
            unicast_bytes: snapshot.counter(keys::UNICAST_BYTES),
            broadcast_msgs: snapshot.counter(keys::BROADCAST_MSGS),
            broadcast_bytes: snapshot.counter(keys::BROADCAST_BYTES),
            rx_bytes: snapshot.counter(keys::RX_BYTES),
        }
    }

    /// Total messages on the wireless medium (the paper's headline metric).
    pub fn total_msgs(&self) -> u64 {
        self.uplink_msgs + self.unicast_msgs + self.broadcast_msgs
    }

    /// Total downlink messages (unicast + broadcast transmissions).
    pub fn downlink_msgs(&self) -> u64 {
        self.unicast_msgs + self.broadcast_msgs
    }

    pub fn total_bytes(&self) -> u64 {
        self.uplink_bytes + self.unicast_bytes + self.broadcast_bytes
    }

    /// Mean sent/received bytes per object over a population of `n`
    /// objects; used for per-object power (Figure 9).
    pub fn mean_node_traffic(&self, n: usize) -> (f64, f64) {
        if n == 0 {
            return (0.0, 0.0);
        }
        let n = n as f64;
        (self.uplink_bytes as f64 / n, self.rx_bytes as f64 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobieyes_telemetry::Telemetry;

    fn meter_via_registry() -> MessageMeter {
        let tel = Telemetry::new();
        for (dir, bytes) in [
            (Direction::Uplink, 10),
            (Direction::Uplink, 20),
            (Direction::Unicast, 5),
            (Direction::Broadcast, 100),
        ] {
            let (msgs_key, bytes_key) = dir.counter_keys();
            tel.incr(msgs_key);
            tel.add(bytes_key, bytes);
        }
        // The unicast heard once, the broadcast by four objects.
        tel.add(keys::RX_BYTES, 5 + 4 * 100);
        MessageMeter::from_snapshot(&tel.snapshot())
    }

    #[test]
    fn view_reflects_registry_counters() {
        let m = meter_via_registry();
        assert_eq!(m.uplink_msgs, 2);
        assert_eq!(m.uplink_bytes, 30);
        assert_eq!(m.unicast_msgs, 1);
        assert_eq!(m.broadcast_msgs, 1);
        assert_eq!(m.total_msgs(), 4);
        assert_eq!(m.downlink_msgs(), 2);
        assert_eq!(m.total_bytes(), 135);
        assert_eq!(m.rx_bytes, 405);
    }

    #[test]
    fn mean_node_traffic() {
        let m = meter_via_registry();
        let (sent, recv) = m.mean_node_traffic(5);
        assert_eq!(sent, 6.0);
        assert_eq!(recv, 81.0);
        assert_eq!(m.mean_node_traffic(0), (0.0, 0.0));
    }
}
