//! The metrics registry: typed counters, gauges and fixed-bucket
//! histograms, plus the event log, tick profiler and wall-time section.
//!
//! Keys are `&'static str` so recording never allocates; storage is
//! `BTreeMap` so iteration (and therefore export) order is deterministic.

use crate::events::{Event, EventKind, EventLog};
use crate::profiler::{Phase, TickProfiler};
use std::collections::BTreeMap;

/// Bucket edges used when a histogram is first observed without an
/// explicit registration: powers of two up to 4096.
pub const DEFAULT_BUCKET_EDGES: [f64; 13] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// A fixed-bucket histogram. Bucket `i` counts observations `v` with
/// `edges[i-1] <= v < edges[i]`; the final bucket is the overflow bucket
/// (`v >= edges.last()`), so `counts.len() == edges.len() + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(
            !edges.is_empty(),
            "histogram needs at least one bucket edge"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bucket edges must be strictly increasing"
        );
        let buckets = edges.len() + 1;
        Histogram {
            edges,
            counts: vec![0; buckets],
            count: 0,
            sum: 0.0,
        }
    }

    pub fn observe(&mut self, v: f64) {
        let i = self.edges.partition_point(|e| *e <= v);
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Records `n` identical observations in one update. Because observed
    /// values in this codebase are integer-valued, `v * n` equals the sum
    /// of `n` individual `observe(v)` calls exactly, so a batched record
    /// is indistinguishable from the unbatched one.
    pub fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let i = self.edges.partition_point(|e| *e <= v);
        self.counts[i] += n;
        self.count += n;
        self.sum += v * n as f64;
    }

    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
    }

    /// Adds another histogram's observations bucket-wise. Both histograms
    /// must have been registered with identical edges. Observed values in
    /// this codebase are integer-valued (sizes, counts), so the `f64` sum
    /// stays exact under any merge order.
    fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.edges, other.edges,
            "histogram merge requires identical bucket edges"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// The unified instrumentation sink. Not thread-safe by itself; share it
/// across threads through the [`crate::Telemetry`] handle.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Accumulated wall-clock nanoseconds per named timer. Like profiler
    /// spans, wall values are excluded from protocol equivalence.
    wall: BTreeMap<&'static str, u64>,
    profiler: TickProfiler,
    events: EventLog,
    /// Ambient simulation time stamped onto events recorded via
    /// [`event`](Self::event). Drivers advance it once per tick.
    now: f64,
    /// Lock acquisitions of the [`crate::Telemetry`] handle guarding this
    /// registry. Not recorded data: no snapshot, reset, drain or merge
    /// touches it.
    pub(crate) acquisitions: u64,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    pub fn with_event_capacity(capacity: usize) -> Self {
        MetricsRegistry {
            events: EventLog::with_capacity(capacity),
            ..Default::default()
        }
    }

    // -- counters ---------------------------------------------------------

    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    // -- gauges -----------------------------------------------------------

    pub fn gauge_set(&mut self, key: &'static str, v: f64) {
        self.gauges.insert(key, v);
    }

    pub fn gauge_add(&mut self, key: &'static str, v: f64) {
        *self.gauges.entry(key).or_insert(0.0) += v;
    }

    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    // -- histograms -------------------------------------------------------

    /// Registers (or re-registers, clearing) a histogram with explicit
    /// bucket edges.
    pub fn register_histogram(&mut self, key: &'static str, edges: Vec<f64>) {
        self.histograms.insert(key, Histogram::new(edges));
    }

    /// Records into a histogram, creating it with
    /// [`DEFAULT_BUCKET_EDGES`] on first use.
    pub fn observe(&mut self, key: &'static str, v: f64) {
        self.histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(DEFAULT_BUCKET_EDGES.to_vec()))
            .observe(v);
    }

    /// Batched [`observe`](Self::observe): `n` identical observations in
    /// one histogram update.
    pub fn observe_n(&mut self, key: &'static str, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(DEFAULT_BUCKET_EDGES.to_vec()))
            .observe_n(v, n);
    }

    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    // -- wall timers ------------------------------------------------------

    pub fn wall_add(&mut self, key: &'static str, nanos: u64) {
        *self.wall.entry(key).or_insert(0) += nanos;
    }

    pub fn wall(&self, key: &str) -> u64 {
        self.wall.get(key).copied().unwrap_or(0)
    }

    // -- profiler ---------------------------------------------------------

    pub fn profiler_add(&mut self, phase: Phase, nanos: u64) {
        self.profiler.add(phase, nanos);
    }

    pub fn profiler(&self) -> &TickProfiler {
        &self.profiler
    }

    // -- events -----------------------------------------------------------

    /// Sets the ambient simulation time stamped onto subsequent events.
    pub fn set_now(&mut self, t: f64) {
        self.now = t;
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    /// Records an event at the ambient simulation time.
    pub fn event(&mut self, kind: EventKind) {
        let t = self.now;
        self.event_at(t, kind);
    }

    /// Records an event at an explicit simulation time.
    pub fn event_at(&mut self, time_s: f64, kind: EventKind) {
        self.events.push(Event { time_s, kind });
    }

    pub fn events(&self) -> &EventLog {
        &self.events
    }

    // -- lifecycle --------------------------------------------------------

    /// Clears all recorded data (counters, gauges, histogram counts,
    /// wall timers, profiler, events) while keeping histogram
    /// registrations and the event-log capacity. Used by drivers to
    /// discard warm-up data.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.values_mut().for_each(Histogram::clear);
        self.wall.clear();
        self.profiler.clear();
        self.events.reset();
    }

    /// Adds everything `other` recorded into this registry: counters,
    /// gauges and wall timers are summed, histograms are merged
    /// bucket-wise (edges must match), profiler nanos/spans are added and
    /// events are appended in `other`'s insertion order (respecting this
    /// log's capacity; overflow from `other` carries over). This is the
    /// shard-merge primitive of the parallel tick engine: merging shard
    /// registries in ascending shard order reproduces the sequential
    /// recording order exactly.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k).or_insert(0.0) += v;
        }
        for (k, h) in &other.histograms {
            match self.histograms.entry(k) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut().merge_from(h),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
            }
        }
        for (k, v) in &other.wall {
            *self.wall.entry(k).or_insert(0) += v;
        }
        self.profiler.merge_from(other.profiler());
        for e in other.events.events() {
            self.events.push(e.clone());
        }
        self.events.add_dropped(other.events.dropped());
    }

    /// Moves all recorded data out into a fresh registry and leaves this
    /// one empty but reusable: histogram registrations (edges) and the
    /// event-log capacity stay behind, mirroring [`reset`](Self::reset).
    /// Worker sinks are drained once per phase and merged into the global
    /// registry via [`merge_from`](Self::merge_from).
    pub fn drain(&mut self) -> MetricsRegistry {
        let mut out = MetricsRegistry::with_event_capacity(self.events.capacity());
        std::mem::swap(&mut out.counters, &mut self.counters);
        std::mem::swap(&mut out.gauges, &mut self.gauges);
        std::mem::swap(&mut out.histograms, &mut self.histograms);
        std::mem::swap(&mut out.wall, &mut self.wall);
        std::mem::swap(&mut out.profiler, &mut self.profiler);
        std::mem::swap(&mut out.events, &mut self.events);
        out.now = self.now;
        for (k, h) in &out.histograms {
            self.histograms
                .insert(k, Histogram::new(h.edges().to_vec()));
        }
        out
    }

    pub(crate) fn counters_map(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    pub(crate) fn gauges_map(&self) -> &BTreeMap<&'static str, f64> {
        &self.gauges
    }

    pub(crate) fn histograms_map(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.histograms
    }

    pub(crate) fn wall_map(&self) -> &BTreeMap<&'static str, u64> {
        &self.wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut r = MetricsRegistry::new();
        r.incr("a");
        r.add("a", 4);
        r.gauge_add("g", 0.5);
        r.gauge_add("g", 0.25);
        r.gauge_set("h", 9.0);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), 0.75);
        assert_eq!(r.gauge("h"), 9.0);
    }

    #[test]
    fn histogram_bucket_edges() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        // Below the first edge.
        h.observe(0.0);
        h.observe(0.999);
        // Exactly on an edge goes to the bucket above it (half-open ranges).
        h.observe(1.0);
        h.observe(9.999);
        h.observe(10.0);
        // Overflow bucket.
        h.observe(100.0);
        h.observe(1e9);
        assert_eq!(h.counts(), &[2, 2, 1, 2]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - (0.0 + 0.999 + 1.0 + 9.999 + 10.0 + 100.0 + 1e9)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        Histogram::new(vec![2.0, 1.0]);
    }

    #[test]
    fn observe_uses_default_edges() {
        let mut r = MetricsRegistry::new();
        r.observe("h", 3.0);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.edges(), &DEFAULT_BUCKET_EDGES);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn merge_is_equivalent_to_direct_recording() {
        // Record the same stream once directly and once split across two
        // shard registries merged in order.
        let mut direct = MetricsRegistry::new();
        let mut shard_a = MetricsRegistry::new();
        let mut shard_b = MetricsRegistry::new();
        let record = |r: &mut MetricsRegistry, oid: u64| {
            r.incr("c");
            r.gauge_add("g", 0.5);
            r.observe("h", oid as f64);
            r.wall_add("w", 10);
            r.profiler_add(Phase::Process, 5);
            r.event_at(1.0, EventKind::CellCrossing { oid });
        };
        record(&mut shard_a, 1);
        record(&mut shard_a, 2);
        record(&mut shard_b, 3);
        for oid in [1u64, 2, 3] {
            direct.incr("c");
            direct.gauge_add("g", 0.5);
            direct.observe("h", oid as f64);
            direct.wall_add("w", 10);
            direct.profiler_add(Phase::Process, 5);
            direct.event_at(1.0, EventKind::CellCrossing { oid });
        }
        let mut merged = MetricsRegistry::new();
        merged.merge_from(&shard_a);
        merged.merge_from(&shard_b);
        assert_eq!(merged.counter("c"), direct.counter("c"));
        assert_eq!(merged.gauge("g"), direct.gauge("g"));
        assert_eq!(
            merged.histogram("h").unwrap().counts(),
            direct.histogram("h").unwrap().counts()
        );
        assert_eq!(merged.histogram("h").unwrap().sum(), 3.0 + 2.0 + 1.0);
        assert_eq!(merged.wall("w"), 30);
        assert_eq!(merged.profiler().spans(Phase::Process), 3);
        assert_eq!(merged.events().events(), direct.events().events());
    }

    #[test]
    fn merge_carries_event_overflow() {
        let mut dst = MetricsRegistry::with_event_capacity(1);
        let mut src = MetricsRegistry::with_event_capacity(4);
        for oid in 0..3 {
            src.event_at(1.0, EventKind::CellCrossing { oid });
        }
        dst.merge_from(&src);
        assert_eq!(dst.events().len(), 1);
        assert_eq!(dst.events().dropped(), 2);
    }

    #[test]
    #[should_panic(expected = "identical bucket edges")]
    fn merge_rejects_mismatched_histogram_edges() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.register_histogram("h", vec![1.0, 2.0]);
        b.register_histogram("h", vec![1.0, 3.0]);
        b.observe("h", 1.5);
        a.merge_from(&b);
    }

    #[test]
    fn drain_takes_data_and_keeps_registrations() {
        let mut r = MetricsRegistry::with_event_capacity(8);
        r.register_histogram("h", vec![1.0, 2.0]);
        r.observe("h", 1.5);
        r.incr("c");
        r.set_now(3.0);
        r.event(EventKind::CellCrossing { oid: 7 });
        let taken = r.drain();
        assert_eq!(taken.counter("c"), 1);
        assert_eq!(taken.histogram("h").unwrap().count(), 1);
        assert_eq!(taken.events().len(), 1);
        // The source keeps its shape but no data.
        assert_eq!(r.counter("c"), 0);
        assert!(r.events().is_empty());
        assert_eq!(r.events().capacity(), 8);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.edges(), &[1.0, 2.0]);
        assert_eq!(h.count(), 0);
        // Draining twice in a row yields an empty registry.
        assert_eq!(r.drain().counter("c"), 0);
    }

    #[test]
    fn reset_keeps_registrations() {
        let mut r = MetricsRegistry::new();
        r.register_histogram("h", vec![1.0, 2.0]);
        r.observe("h", 1.5);
        r.incr("c");
        r.wall_add("w", 10);
        r.event_at(1.0, EventKind::CellCrossing { oid: 1 });
        r.reset();
        assert_eq!(r.counter("c"), 0);
        assert_eq!(r.wall("w"), 0);
        assert!(r.events().is_empty());
        let h = r.histogram("h").unwrap();
        assert_eq!(h.edges(), &[1.0, 2.0]);
        assert_eq!(h.count(), 0);
    }
}
