//! `mobieyes-telemetry`: the unified instrumentation layer.
//!
//! One [`MetricsRegistry`] holds typed counters, gauges, fixed-bucket
//! histograms, a per-tick phase profiler and a bounded structured event
//! log. Components do not own bespoke stats structs; they record into an
//! injected [`Telemetry`] handle (a cheaply cloneable `Arc<Mutex<_>>`),
//! and the legacy stats types are reconstructed as views over
//! [`MetricsSnapshot`]s.
//!
//! Design constraints, and how they are met:
//!
//! * **Deterministic.** Counter/gauge/histogram updates are commutative,
//!   keys are `&'static str` in `BTreeMap`s, and events carry simulation
//!   time and are canonically sorted at snapshot; the sequential engine,
//!   the sharded engine at any thread count and the partitioned tier
//!   therefore produce identical *protocol* snapshots
//!   ([`MetricsSnapshot::protocol_eq`]).
//! * **Allocation-light.** Recording a counter is a `BTreeMap` upsert
//!   under a short-lived mutex; hot paths count into a plain [`Tally`]
//!   instead and publish it once per phase. Events are pushed into a
//!   pre-bounded buffer and counted (not stored) past capacity.
//! * **Wall time is quarantined.** Only profiler spans and named `wall`
//!   timers read the clock, and both live in snapshot sections excluded
//!   from protocol equivalence.

pub mod events;
pub mod json;
pub mod profiler;
pub mod registry;
pub mod snapshot;

pub use events::{Event, EventKind, EventLog, DEFAULT_EVENT_CAPACITY};

/// The `rec.*` telemetry counter keys: partition crash detection and
/// recovery. Recorded into the cluster bus sink (not the shared protocol
/// sink), so protocol snapshots stay comparable across deployments.
pub mod rec_keys {
    pub const CRASH_DETECTIONS: &str = "rec.crash_detections";
    pub const FENCES: &str = "rec.fences";
    pub const CELLS_FAILED_OVER: &str = "rec.cells_failed_over";
    pub const CELLS_READOPTED: &str = "rec.cells_readopted";
    pub const ENVELOPES_REROUTED: &str = "rec.envelopes_rerouted";
    pub const ENVELOPES_DROPPED: &str = "rec.envelopes_dropped";
    pub const QUERIES_REINSTALLED: &str = "rec.queries_reinstalled";
    /// Lost queries re-entered from a dead partition's journal replay
    /// (exact pre-crash state) instead of survivor reconstruction.
    pub const QUERIES_REPLAYED: &str = "rec.queries_replayed";
    pub const RESPAWNS: &str = "rec.respawns";
}

/// The `rebal.*` telemetry counter keys: load-aware partition
/// rebalancing. Recorded into the cluster bus sink, like [`rec_keys`],
/// so protocol snapshots stay comparable across deployments.
pub mod rebal_keys {
    /// Map generations installed by the rebalance fence.
    pub const INSTALLS: &str = "rebal.installs";
    /// Grid cells moved between partitions by installed generations.
    pub const CELLS_MOVED: &str = "rebal.cells_moved";
    /// Due rebalance rounds that did nothing (any reason).
    pub const SKIPPED: &str = "rebal.skipped";
    /// Skips because a partition was dead or awaiting its failover fence.
    pub const SKIPPED_UNFENCED: &str = "rebal.skipped.unfenced";
    /// Skips because the observation window recorded no uplink load.
    pub const SKIPPED_NO_LOAD: &str = "rebal.skipped.no_load";
    /// Skips because the planner reproduced the installed bounds.
    pub const SKIPPED_UNCHANGED: &str = "rebal.skipped.unchanged";
    /// Fences abandoned mid-flight because a peer died; the old map
    /// generation stays installed and failover handles the corpse.
    pub const ABORTS: &str = "rebal.aborts";
}

/// The `cluster.rpc.*` telemetry counter keys: what the coordinator put
/// on the partition RPC links. Deterministic counts (no timings), recorded
/// into the cluster bus sink like [`rec_keys`]: they are zero for
/// in-process partitions, so they must stay out of the protocol snapshot
/// compared across transports.
pub mod rpc_keys {
    /// Requests whose reply the coordinator waited for.
    pub const ROUND_TRIPS: &str = "cluster.rpc.round_trips";
    /// Closed ops written without waiting (replies collected in batches).
    pub const POSTED: &str = "cluster.rpc.posted";
    /// Ownership lookups answered from the reply-maintained mirror of a
    /// partition's FOT/SQT keys instead of a round trip.
    pub const MIRROR_HITS: &str = "cluster.rpc.mirror_hits";
    /// Flushes that wrote requests to a partition's socket: each one wakes
    /// the partition process.
    pub const FLUSHES: &str = "cluster.rpc.flushes";
}

/// The `store.*` telemetry counter keys of the durable trajectory log
/// (`mobieyes-store`).
pub mod store_keys {
    /// Records appended to the journal.
    pub const APPENDS: &str = "store.appends";
    /// Frame bytes appended (length prefix + CRC + seq + payload).
    pub const BYTES: &str = "store.bytes";
    /// Physical group-flushes of the buffered writer.
    pub const FLUSHES: &str = "store.flushes";
    /// Segment rotations (size-triggered or checkpoint-triggered).
    pub const ROTATIONS: &str = "store.rotations";
    /// Checkpoint records cut.
    pub const CHECKPOINTS: &str = "store.checkpoints";
    /// Whole segments deleted by compaction GC.
    pub const GC_SEGMENTS: &str = "store.gc_segments";
    /// Records replayed into a server at recovery.
    pub const REPLAYED: &str = "store.replayed";
    /// Torn tails truncated away by the reader on open.
    pub const TORN_TAILS: &str = "store.torn_tails";
    /// Torn writes injected by a fault plan (writer self-kills).
    pub const TORN_WRITES: &str = "store.torn_writes";
    /// I/O errors that poisoned a writer.
    pub const WRITE_ERRORS: &str = "store.write_errors";
}
pub use profiler::{Phase, PhaseTiming, TickProfiler, PHASES};
pub use registry::{Histogram, MetricsRegistry, DEFAULT_BUCKET_EDGES};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A shared handle to a [`MetricsRegistry`]. Cloning is cheap (an `Arc`
/// bump); every component of one deployment records into clones of the
/// same handle. A fresh `Telemetry::new()` is a private sink, which is
/// what components fall back to when nothing is injected.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A handle whose event log holds up to `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Arc::new(Mutex::new(MetricsRegistry::with_event_capacity(capacity))),
        }
    }

    /// Whether two handles record into the same registry.
    pub fn same_sink(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        // A poisoned registry only means a panicking thread held the lock
        // mid-update of plain counters; the data is still usable.
        let mut registry = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        registry.acquisitions += 1;
        registry
    }

    /// How many times the registry lock has been taken through this sink
    /// (reading this count takes it once more, uncounted). The witness of
    /// how much recording costs in locks; never part of a snapshot.
    pub fn acquisitions(&self) -> u64 {
        let registry = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        registry.acquisitions
    }

    pub fn incr(&self, key: &'static str) {
        self.lock().incr(key);
    }

    pub fn add(&self, key: &'static str, n: u64) {
        self.lock().add(key, n);
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.lock().counter(key)
    }

    pub fn gauge_set(&self, key: &'static str, v: f64) {
        self.lock().gauge_set(key, v);
    }

    pub fn gauge_add(&self, key: &'static str, v: f64) {
        self.lock().gauge_add(key, v);
    }

    pub fn gauge(&self, key: &str) -> f64 {
        self.lock().gauge(key)
    }

    pub fn register_histogram(&self, key: &'static str, edges: Vec<f64>) {
        self.lock().register_histogram(key, edges);
    }

    pub fn observe(&self, key: &'static str, v: f64) {
        self.lock().observe(key, v);
    }

    /// Batched observe: records `n` identical observations with one lock
    /// acquisition and one histogram update.
    pub fn observe_n(&self, key: &'static str, v: f64, n: u64) {
        if n > 0 {
            self.lock().observe_n(key, v, n);
        }
    }

    pub fn wall_add(&self, key: &'static str, nanos: u64) {
        self.lock().wall_add(key, nanos);
    }

    pub fn set_now(&self, t: f64) {
        self.lock().set_now(t);
    }

    pub fn event(&self, kind: EventKind) {
        self.lock().event(kind);
    }

    pub fn event_at(&self, time_s: f64, kind: EventKind) {
        self.lock().event_at(time_s, kind);
    }

    /// Opens a wall-time span for `phase`; the elapsed time is added to
    /// the profiler when the returned guard drops.
    pub fn span(&self, phase: Phase) -> Span {
        Span {
            telemetry: self.clone(),
            phase,
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a [`span`](Self::span).
    pub fn timed<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(phase);
        f()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::of(&self.lock())
    }

    /// Clears recorded data; see [`MetricsRegistry::reset`].
    pub fn reset(&self) {
        self.lock().reset();
    }

    /// Takes everything recorded so far out of the sink, leaving histogram
    /// registrations and event capacity in place; see
    /// [`MetricsRegistry::drain`]. Used by parallel drivers to collect a
    /// worker-local accumulator once per phase.
    pub fn drain(&self) -> MetricsRegistry {
        self.lock().drain()
    }

    /// Additively merges a (typically drained) registry into this sink;
    /// see [`MetricsRegistry::merge_from`].
    pub fn merge_registry(&self, other: &MetricsRegistry) {
        self.lock().merge_from(other);
    }

    /// Read access to the registry for anything not covered by the
    /// forwarding methods.
    pub fn with_registry<T>(&self, f: impl FnOnce(&MetricsRegistry) -> T) -> T {
        f(&self.lock())
    }

    /// Records a batch under one lock acquisition: the flush primitive
    /// for components that accumulate a phase's metrics in plain fields
    /// and publish them at the phase boundary.
    pub fn record_batch<T>(&self, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
        f(&mut self.lock())
    }
}

/// A recorder's counters as plain `u64`s: slot `i` counts `keys[i]`, and
/// [`flush`](Self::flush) publishes them all under one lock. A recorder on
/// a hot path bumps its tally and flushes it at a phase boundary instead
/// of taking the registry lock per increment. A zero is never written, so
/// a flushed tally leaves the registry exactly as recording every
/// increment directly would.
#[derive(Debug, Clone)]
pub struct Tally<const N: usize> {
    keys: [&'static str; N],
    counts: [u64; N],
}

impl<const N: usize> Tally<N> {
    pub const fn new(keys: [&'static str; N]) -> Self {
        Tally {
            keys,
            counts: [0; N],
        }
    }

    #[inline]
    pub fn add(&mut self, slot: usize, n: u64) {
        self.counts[slot] += n;
    }

    #[inline]
    pub fn incr(&mut self, slot: usize) {
        self.add(slot, 1);
    }

    /// Publishes the counts into `sink` and zeroes them; takes no lock
    /// when there is nothing to publish.
    pub fn flush(&mut self, sink: &Telemetry) {
        if self.counts.iter().all(|&n| n == 0) {
            return;
        }
        sink.record_batch(|r| {
            for (&key, n) in self.keys.iter().zip(&mut self.counts) {
                if *n > 0 {
                    r.add(key, std::mem::take(n));
                }
            }
        });
    }
}

/// Drop guard produced by [`Telemetry::span`].
pub struct Span {
    telemetry: Telemetry,
    phase: Phase,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.telemetry.lock().profiler_add(self.phase, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_registry() {
        let a = Telemetry::new();
        let b = a.clone();
        a.incr("x");
        b.add("x", 2);
        assert_eq!(a.counter("x"), 3);
        assert!(a.same_sink(&b));
        assert!(!a.same_sink(&Telemetry::new()));
    }

    #[test]
    fn span_records_into_profiler() {
        let t = Telemetry::new();
        {
            let _g = t.span(Phase::Process);
        }
        t.timed(Phase::Process, || ());
        let snap = t.snapshot();
        let process = snap.profiler.iter().find(|p| p.phase == "process").unwrap();
        assert_eq!(process.spans, 2);
    }

    #[test]
    fn a_tally_publishes_in_one_lock_and_never_writes_a_zero() {
        let t = Telemetry::new();
        let mut tally = Tally::new(["a", "b", "c"]);
        tally.flush(&t);
        assert_eq!(t.acquisitions(), 0, "an empty tally takes no lock");
        tally.incr(0);
        tally.add(2, 5);
        tally.add(0, 2);
        tally.flush(&t);
        assert_eq!(t.acquisitions(), 1);
        let snap = t.snapshot();
        assert_eq!((snap.counter("a"), snap.counter("c")), (3, 5));
        assert!(!snap.counters.contains_key("b"), "a zero is never written");
        tally.flush(&t);
        assert_eq!(t.counter("a"), 3, "a flush empties the tally");
    }

    #[test]
    fn acquisitions_count_every_lock_and_survive_reset() {
        let t = Telemetry::new();
        t.incr("x");
        t.add("x", 2);
        let _ = t.snapshot();
        t.reset();
        assert_eq!(t.acquisitions(), 4);
        assert_eq!(t.clone().acquisitions(), 4, "clones share the count");
        assert!(t.snapshot().protocol_eq(&Telemetry::new().snapshot()));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let t = Telemetry::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.incr("hits");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.counter("hits"), 4000);
    }
}
