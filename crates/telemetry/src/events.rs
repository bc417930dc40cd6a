//! Bounded structured event log.
//!
//! Events capture discrete protocol occurrences (query lifecycle,
//! cell-crossings, velocity reports, broadcast fan-out, injected faults)
//! with the *simulation* timestamp at which they happened — never wall
//! time — so the sequential and the sharded tick engine log the same
//! events. Because per-shard and per-partition sinks are merged after the
//! fact, snapshots sort events into a canonical order before export or
//! comparison.

/// A discrete protocol occurrence at a simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time in seconds (not wall time).
    pub time_s: f64,
    pub kind: EventKind,
}

/// What happened. Variants carry the minimal identifying payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A query was installed at the server and assigned an id.
    QueryInstalled { qid: u64, focal: u64 },
    /// A query was explicitly removed.
    QueryRemoved { qid: u64 },
    /// A query's lifetime elapsed and the server expired it.
    QueryExpired { qid: u64 },
    /// A moving object crossed a grid-cell boundary.
    CellCrossing { oid: u64 },
    /// A focal object reported a significant velocity change.
    VelocityReport { oid: u64 },
    /// A server broadcast fanned out to `stations` base stations.
    BroadcastFanout { stations: u64 },
    /// The fault plan dropped a message addressed to `oid`.
    MessageDropped { oid: u64 },
    /// The fault plan duplicated a message addressed to `oid`.
    MessageDuplicated { oid: u64 },
    /// A focal object's lease expired; its queries were torn down and
    /// re-announced.
    LeaseExpired { oid: u64 },
    /// The churn plan took an object offline.
    ObjectOffline { oid: u64 },
    /// The churn plan brought an object back online. `fresh` is 1 when
    /// the object crashed (lost its local state) rather than merely
    /// disconnecting.
    ObjectOnline { oid: u64, fresh: u64 },
    /// The coordinator detected a dead cluster partition.
    PartitionCrashed { partition: u64 },
    /// A dead partition's cells were reassigned to survivors under an
    /// epoch fence.
    PartitionFailedOver { partition: u64, cells: u64 },
    /// A crashed partition rejoined the cluster and re-adopted its
    /// pre-crash cell span.
    PartitionRespawned { partition: u64 },
    /// A due rebalance round did nothing; `reason` is a
    /// `rebalance::SkipReason` discriminant (see `mobieyes-cluster`).
    RebalanceSkipped { reason: u64 },
    /// A rebalance fence installed partition-map generation `generation`,
    /// moving `cells` grid cells between partitions.
    RebalanceInstalled { generation: u64, cells: u64 },
    /// A rebalance fence was abandoned because `partition` died mid-fence;
    /// the previous map generation stays installed.
    RebalanceAborted { partition: u64 },
}

impl EventKind {
    /// Stable machine name used in JSON/CSV export and canonical ordering.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryInstalled { .. } => "query_installed",
            EventKind::QueryRemoved { .. } => "query_removed",
            EventKind::QueryExpired { .. } => "query_expired",
            EventKind::CellCrossing { .. } => "cell_crossing",
            EventKind::VelocityReport { .. } => "velocity_report",
            EventKind::BroadcastFanout { .. } => "broadcast_fanout",
            EventKind::MessageDropped { .. } => "message_dropped",
            EventKind::MessageDuplicated { .. } => "message_duplicated",
            EventKind::LeaseExpired { .. } => "lease_expired",
            EventKind::ObjectOffline { .. } => "object_offline",
            EventKind::ObjectOnline { .. } => "object_online",
            EventKind::PartitionCrashed { .. } => "partition_crashed",
            EventKind::PartitionFailedOver { .. } => "partition_failed_over",
            EventKind::PartitionRespawned { .. } => "partition_respawned",
            EventKind::RebalanceSkipped { .. } => "rebalance_skipped",
            EventKind::RebalanceInstalled { .. } => "rebalance_installed",
            EventKind::RebalanceAborted { .. } => "rebalance_aborted",
        }
    }

    /// Payload as `(field, value)` pairs, in a stable order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            EventKind::QueryInstalled { qid, focal } => vec![("qid", qid), ("focal", focal)],
            EventKind::QueryRemoved { qid } => vec![("qid", qid)],
            EventKind::QueryExpired { qid } => vec![("qid", qid)],
            EventKind::CellCrossing { oid } => vec![("oid", oid)],
            EventKind::VelocityReport { oid } => vec![("oid", oid)],
            EventKind::BroadcastFanout { stations } => vec![("stations", stations)],
            EventKind::MessageDropped { oid } => vec![("oid", oid)],
            EventKind::MessageDuplicated { oid } => vec![("oid", oid)],
            EventKind::LeaseExpired { oid } => vec![("oid", oid)],
            EventKind::ObjectOffline { oid } => vec![("oid", oid)],
            EventKind::ObjectOnline { oid, fresh } => vec![("oid", oid), ("fresh", fresh)],
            EventKind::PartitionCrashed { partition } => vec![("partition", partition)],
            EventKind::PartitionFailedOver { partition, cells } => {
                vec![("partition", partition), ("cells", cells)]
            }
            EventKind::PartitionRespawned { partition } => vec![("partition", partition)],
            EventKind::RebalanceSkipped { reason } => vec![("reason", reason)],
            EventKind::RebalanceInstalled { generation, cells } => {
                vec![("generation", generation), ("cells", cells)]
            }
            EventKind::RebalanceAborted { partition } => vec![("partition", partition)],
        }
    }

    /// Whether this event describes persistent protocol state (which
    /// queries exist) rather than a transient per-tick occurrence.
    /// Lifecycle events survive a measured-window [`EventLog::reset`] so
    /// an exported snapshot still identifies the installed queries.
    pub fn is_lifecycle(&self) -> bool {
        matches!(
            self,
            EventKind::QueryInstalled { .. }
                | EventKind::QueryRemoved { .. }
                | EventKind::QueryExpired { .. }
        )
    }

    /// Inverse of [`name`](Self::name)/[`fields`](Self::fields); used by the
    /// snapshot importers.
    pub fn from_parts(name: &str, fields: &[(String, u64)]) -> Option<EventKind> {
        let get = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| *v);
        Some(match name {
            "query_installed" => EventKind::QueryInstalled {
                qid: get("qid")?,
                focal: get("focal")?,
            },
            "query_removed" => EventKind::QueryRemoved { qid: get("qid")? },
            "query_expired" => EventKind::QueryExpired { qid: get("qid")? },
            "cell_crossing" => EventKind::CellCrossing { oid: get("oid")? },
            "velocity_report" => EventKind::VelocityReport { oid: get("oid")? },
            "broadcast_fanout" => EventKind::BroadcastFanout {
                stations: get("stations")?,
            },
            "message_dropped" => EventKind::MessageDropped { oid: get("oid")? },
            "message_duplicated" => EventKind::MessageDuplicated { oid: get("oid")? },
            "lease_expired" => EventKind::LeaseExpired { oid: get("oid")? },
            "object_offline" => EventKind::ObjectOffline { oid: get("oid")? },
            "object_online" => EventKind::ObjectOnline {
                oid: get("oid")?,
                fresh: get("fresh")?,
            },
            "partition_crashed" => EventKind::PartitionCrashed {
                partition: get("partition")?,
            },
            "partition_failed_over" => EventKind::PartitionFailedOver {
                partition: get("partition")?,
                cells: get("cells")?,
            },
            "partition_respawned" => EventKind::PartitionRespawned {
                partition: get("partition")?,
            },
            "rebalance_skipped" => EventKind::RebalanceSkipped {
                reason: get("reason")?,
            },
            "rebalance_installed" => EventKind::RebalanceInstalled {
                generation: get("generation")?,
                cells: get("cells")?,
            },
            "rebalance_aborted" => EventKind::RebalanceAborted {
                partition: get("partition")?,
            },
            _ => return None,
        })
    }
}

impl Event {
    /// Canonical sort key: time, then kind name, then payload values.
    /// Total and deployment-independent, so sorted event lists compare
    /// equal across thread counts, partition counts and transports.
    pub fn sort_key(&self) -> (u64, &'static str, Vec<u64>) {
        // Simulation times are non-negative finite floats, for which the
        // bit pattern sorts the same way as the value.
        (
            self.time_s.to_bits(),
            self.kind.name(),
            self.kind.fields().iter().map(|(_, v)| *v).collect(),
        )
    }
}

/// Fixed-capacity event buffer. Once full, further events are counted in
/// `dropped` instead of being stored, keeping recording allocation-light
/// and bounded no matter how long a run is.
#[derive(Debug, Clone)]
pub struct EventLog {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

/// Default bound: generous for test-sized runs, small next to a full
/// simulation's message volume.
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

impl Default for EventLog {
    fn default() -> Self {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    pub fn push(&mut self, event: Event) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Carries overflow counts over from another log during a registry
    /// merge, so a bounded merged log still reports every lost event.
    pub fn add_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events sorted into canonical order (see [`Event::sort_key`]).
    pub fn sorted(&self) -> Vec<Event> {
        let mut out = self.events.clone();
        out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        out
    }

    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Measured-window reset: drops transient events and the overflow
    /// count but keeps query lifecycle events, which describe state that
    /// persists across the window boundary.
    pub fn reset(&mut self) {
        self.events.retain(|e| e.kind.is_lifecycle());
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_log_counts_overflow() {
        let mut log = EventLog::with_capacity(2);
        for oid in 0..5 {
            log.push(Event {
                time_s: 1.0,
                kind: EventKind::CellCrossing { oid },
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        log.clear();
        assert_eq!(log.len(), 0);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn canonical_order_ignores_insertion_order() {
        let a = Event {
            time_s: 1.0,
            kind: EventKind::CellCrossing { oid: 2 },
        };
        let b = Event {
            time_s: 1.0,
            kind: EventKind::CellCrossing { oid: 1 },
        };
        let c = Event {
            time_s: 0.5,
            kind: EventKind::VelocityReport { oid: 9 },
        };
        let mut log1 = EventLog::default();
        let mut log2 = EventLog::default();
        for e in [&a, &b, &c] {
            log1.push((*e).clone());
        }
        for e in [&c, &a, &b] {
            log2.push((*e).clone());
        }
        assert_eq!(log1.sorted(), log2.sorted());
        assert_eq!(log1.sorted()[0], c);
    }

    #[test]
    fn reset_keeps_lifecycle_events_only() {
        let mut log = EventLog::with_capacity(2);
        log.push(Event {
            time_s: 0.0,
            kind: EventKind::QueryInstalled { qid: 1, focal: 2 },
        });
        log.push(Event {
            time_s: 1.0,
            kind: EventKind::CellCrossing { oid: 3 },
        });
        log.push(Event {
            time_s: 1.0,
            kind: EventKind::CellCrossing { oid: 4 },
        }); // dropped
        assert_eq!(log.dropped(), 1);
        log.reset();
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 0);
        assert!(log.events()[0].kind.is_lifecycle());
    }

    #[test]
    fn kinds_round_trip_through_parts() {
        let kinds = [
            EventKind::QueryInstalled { qid: 1, focal: 2 },
            EventKind::QueryRemoved { qid: 3 },
            EventKind::QueryExpired { qid: 4 },
            EventKind::CellCrossing { oid: 5 },
            EventKind::VelocityReport { oid: 6 },
            EventKind::BroadcastFanout { stations: 7 },
            EventKind::MessageDropped { oid: 8 },
            EventKind::MessageDuplicated { oid: 9 },
            EventKind::LeaseExpired { oid: 10 },
            EventKind::ObjectOffline { oid: 11 },
            EventKind::ObjectOnline { oid: 12, fresh: 1 },
            EventKind::PartitionCrashed { partition: 2 },
            EventKind::PartitionFailedOver {
                partition: 2,
                cells: 64,
            },
            EventKind::PartitionRespawned { partition: 2 },
            EventKind::RebalanceSkipped { reason: 1 },
            EventKind::RebalanceInstalled {
                generation: 3,
                cells: 128,
            },
            EventKind::RebalanceAborted { partition: 1 },
        ];
        for kind in kinds {
            let fields: Vec<(String, u64)> = kind
                .fields()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect();
            assert_eq!(EventKind::from_parts(kind.name(), &fields), Some(kind));
        }
    }
}
