//! Point-in-time export of a [`MetricsRegistry`]:
//! a plain-data snapshot plus JSON and CSV serializers and parsers.
//!
//! Snapshots split into a *protocol* part (counters, gauges, histograms,
//! events) that is bit-identical across deployments of the same
//! configuration, and a *timing* part (wall timers, profiler phases)
//! that is inherently nondeterministic. [`MetricsSnapshot::protocol_view`]
//! strips the timing part so equivalence tests can compare the rest.

use crate::events::{Event, EventKind};
use crate::json::{self, Value};
use crate::profiler::PhaseTiming;
use crate::registry::{Histogram, MetricsRegistry};
use std::collections::BTreeMap;

/// Exported histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub edges: Vec<f64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A complete, plain-data copy of a registry's state. Events are in
/// canonical order (see `Event::sort_key`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Named wall-clock accumulators, nanoseconds. Nondeterministic.
    pub wall_nanos: BTreeMap<String, u64>,
    /// Per-phase tick profiler timings. Nondeterministic.
    pub profiler: Vec<PhaseTiming>,
    pub events: Vec<Event>,
    pub events_dropped: u64,
}

impl MetricsSnapshot {
    pub fn of(registry: &MetricsRegistry) -> Self {
        MetricsSnapshot {
            counters: registry
                .counters_map()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: registry
                .gauges_map()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: registry
                .histograms_map()
                .iter()
                .map(|(k, h)| (k.to_string(), snapshot_histogram(h)))
                .collect(),
            wall_nanos: registry
                .wall_map()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            profiler: registry.profiler().timings(),
            events: registry.events().sorted(),
            events_dropped: registry.events().dropped(),
        }
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    pub fn wall(&self, key: &str) -> u64 {
        self.wall_nanos.get(key).copied().unwrap_or(0)
    }

    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(key)
    }

    /// Folds another registry's snapshot into this one: counters and wall
    /// accumulators add, gauges and histograms take the other's value for
    /// keys this snapshot lacks, events merge into canonical order. Used
    /// at export time to attach a private sink's data (e.g. the cluster
    /// coordinator's bus sink, which is kept out of the protocol snapshot
    /// the equivalence gates compare) to a user-facing snapshot.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.wall_nanos {
            *self.wall_nanos.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.entry(k.clone()).or_insert(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .or_insert_with(|| h.clone());
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self.events_dropped += other.events_dropped;
    }

    /// The snapshot with all wall-time data removed: what must match
    /// exactly across tick engines, thread counts and transports.
    pub fn protocol_view(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            wall_nanos: BTreeMap::new(),
            profiler: Vec::new(),
            ..self.clone()
        }
    }

    /// Protocol equality: everything except wall timers and profiler.
    pub fn protocol_eq(&self, other: &MetricsSnapshot) -> bool {
        self.protocol_view() == other.protocol_view()
    }

    // -- JSON -------------------------------------------------------------

    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    fn to_value(&self) -> Value {
        let num_map = |m: &BTreeMap<String, u64>| {
            Value::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                    .collect(),
            )
        };
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut obj = vec![
                    ("t".to_string(), Value::Num(e.time_s)),
                    ("kind".to_string(), Value::str(e.kind.name())),
                ];
                for (k, v) in e.kind.fields() {
                    obj.push((k.to_string(), Value::Num(v as f64)));
                }
                Value::Obj(obj)
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Value::Obj(vec![
                        (
                            "edges".to_string(),
                            Value::Arr(h.edges.iter().map(|e| Value::Num(*e)).collect()),
                        ),
                        (
                            "counts".to_string(),
                            Value::Arr(h.counts.iter().map(|c| Value::Num(*c as f64)).collect()),
                        ),
                        ("count".to_string(), Value::Num(h.count as f64)),
                        ("sum".to_string(), Value::Num(h.sum)),
                    ]),
                )
            })
            .collect();
        let profiler = self
            .profiler
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("phase".to_string(), Value::str(p.phase)),
                    ("nanos".to_string(), Value::Num(p.nanos as f64)),
                    ("spans".to_string(), Value::Num(p.spans as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("counters".to_string(), num_map(&self.counters)),
            (
                "gauges".to_string(),
                Value::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            ("histograms".to_string(), Value::Obj(histograms)),
            ("wall_nanos".to_string(), num_map(&self.wall_nanos)),
            ("profiler".to_string(), Value::Arr(profiler)),
            ("events".to_string(), Value::Arr(events)),
            (
                "events_dropped".to_string(),
                Value::Num(self.events_dropped as f64),
            ),
        ])
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let mut out = MetricsSnapshot::default();
        if let Some(entries) = doc.get("counters").and_then(Value::as_obj) {
            for (k, v) in entries {
                out.counters
                    .insert(k.clone(), v.as_u64().ok_or("counter not a number")?);
            }
        }
        if let Some(entries) = doc.get("gauges").and_then(Value::as_obj) {
            for (k, v) in entries {
                out.gauges
                    .insert(k.clone(), v.as_f64().ok_or("gauge not a number")?);
            }
        }
        if let Some(entries) = doc.get("histograms").and_then(Value::as_obj) {
            for (k, h) in entries {
                let edges = h
                    .get("edges")
                    .and_then(Value::as_arr)
                    .ok_or("histogram missing edges")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("edge not a number"))
                    .collect::<Result<Vec<_>, _>>()?;
                let counts = h
                    .get("counts")
                    .and_then(Value::as_arr)
                    .ok_or("histogram missing counts")?
                    .iter()
                    .map(|v| v.as_u64().ok_or("count not a number"))
                    .collect::<Result<Vec<_>, _>>()?;
                out.histograms.insert(
                    k.clone(),
                    HistogramSnapshot {
                        edges,
                        counts,
                        count: h.get("count").and_then(Value::as_u64).unwrap_or(0),
                        sum: h.get("sum").and_then(Value::as_f64).unwrap_or(0.0),
                    },
                );
            }
        }
        if let Some(entries) = doc.get("wall_nanos").and_then(Value::as_obj) {
            for (k, v) in entries {
                out.wall_nanos
                    .insert(k.clone(), v.as_u64().ok_or("wall not a number")?);
            }
        }
        if let Some(items) = doc.get("profiler").and_then(Value::as_arr) {
            for item in items {
                let phase = item
                    .get("phase")
                    .and_then(Value::as_str)
                    .ok_or("profiler missing phase")?;
                let phase = crate::Phase::from_name(phase).ok_or("unknown profiler phase")?;
                out.profiler.push(PhaseTiming {
                    phase: phase.name(),
                    nanos: item.get("nanos").and_then(Value::as_u64).unwrap_or(0),
                    spans: item.get("spans").and_then(Value::as_u64).unwrap_or(0),
                });
            }
        }
        if let Some(items) = doc.get("events").and_then(Value::as_arr) {
            for item in items {
                out.events.push(parse_event_json(item)?);
            }
        }
        out.events_dropped = doc
            .get("events_dropped")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        Ok(out)
    }

    // -- CSV --------------------------------------------------------------

    /// CSV rows of `section,name,value[,extra[,extra]]`. Histograms pack
    /// their buckets as `edge:count` pairs separated by `;` so every
    /// record stays on one line. Lossless: [`from_csv`](Self::from_csv)
    /// reconstructs the snapshot exactly.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,name,value,extra1,extra2\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("counter,{k},{v},,\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge,{k},{v:?},,\n"));
        }
        for (k, h) in &self.histograms {
            let mut buckets = String::new();
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    buckets.push(';');
                }
                match h.edges.get(i) {
                    Some(e) => buckets.push_str(&format!("{e:?}:{c}")),
                    None => buckets.push_str(&format!("+inf:{c}")),
                }
            }
            out.push_str(&format!(
                "histogram,{k},{}|{:?},{buckets},\n",
                h.count, h.sum
            ));
        }
        for (k, v) in &self.wall_nanos {
            out.push_str(&format!("wall,{k},{v},,\n"));
        }
        for p in &self.profiler {
            out.push_str(&format!("profiler,{},{},{},\n", p.phase, p.nanos, p.spans));
        }
        for e in &self.events {
            let fields: Vec<String> = e
                .kind
                .fields()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!(
                "event,{},{:?},{},\n",
                e.kind.name(),
                e.time_s,
                fields.join(";")
            ));
        }
        out.push_str(&format!("events_dropped,,{},,\n", self.events_dropped));
        out
    }

    pub fn from_csv(text: &str) -> Result<Self, String> {
        let mut out = MetricsSnapshot::default();
        for (lineno, line) in text.lines().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.splitn(5, ',').collect();
            let err = |msg: &str| format!("csv line {}: {msg}", lineno + 1);
            let section = cols[0];
            let name = cols.get(1).copied().unwrap_or("");
            let value = cols.get(2).copied().unwrap_or("");
            match section {
                "counter" => {
                    out.counters.insert(
                        name.to_string(),
                        value.parse().map_err(|_| err("bad counter"))?,
                    );
                }
                "gauge" => {
                    out.gauges.insert(
                        name.to_string(),
                        value.parse().map_err(|_| err("bad gauge"))?,
                    );
                }
                "histogram" => {
                    let (count, sum) = value
                        .split_once('|')
                        .ok_or_else(|| err("bad histogram value"))?;
                    let mut edges = Vec::new();
                    let mut counts = Vec::new();
                    for pair in cols.get(3).copied().unwrap_or("").split(';') {
                        let (edge, c) = pair.split_once(':').ok_or_else(|| err("bad bucket"))?;
                        if edge != "+inf" {
                            edges.push(edge.parse().map_err(|_| err("bad edge"))?);
                        }
                        counts.push(c.parse().map_err(|_| err("bad bucket count"))?);
                    }
                    out.histograms.insert(
                        name.to_string(),
                        HistogramSnapshot {
                            edges,
                            counts,
                            count: count.parse().map_err(|_| err("bad count"))?,
                            sum: sum.parse().map_err(|_| err("bad sum"))?,
                        },
                    );
                }
                "wall" => {
                    out.wall_nanos.insert(
                        name.to_string(),
                        value.parse().map_err(|_| err("bad wall"))?,
                    );
                }
                "profiler" => {
                    let phase =
                        crate::Phase::from_name(name).ok_or_else(|| err("unknown phase"))?;
                    out.profiler.push(PhaseTiming {
                        phase: phase.name(),
                        nanos: value.parse().map_err(|_| err("bad nanos"))?,
                        spans: cols
                            .get(3)
                            .copied()
                            .unwrap_or("0")
                            .parse()
                            .map_err(|_| err("bad spans"))?,
                    });
                }
                "event" => {
                    let time_s: f64 = value.parse().map_err(|_| err("bad event time"))?;
                    let fields = cols
                        .get(3)
                        .copied()
                        .unwrap_or("")
                        .split(';')
                        .filter(|p| !p.is_empty())
                        .map(|pair| {
                            let (k, v) =
                                pair.split_once('=').ok_or_else(|| err("bad event field"))?;
                            Ok((
                                k.to_string(),
                                v.parse().map_err(|_| err("bad event value"))?,
                            ))
                        })
                        .collect::<Result<Vec<(String, u64)>, String>>()?;
                    let kind = EventKind::from_parts(name, &fields)
                        .ok_or_else(|| err("unknown event kind"))?;
                    out.events.push(Event { time_s, kind });
                }
                "events_dropped" => {
                    out.events_dropped = value.parse().map_err(|_| err("bad drop count"))?;
                }
                other => return Err(err(&format!("unknown section '{other}'"))),
            }
        }
        Ok(out)
    }
}

fn snapshot_histogram(h: &Histogram) -> HistogramSnapshot {
    HistogramSnapshot {
        edges: h.edges().to_vec(),
        counts: h.counts().to_vec(),
        count: h.count(),
        sum: h.sum(),
    }
}

fn parse_event_json(item: &Value) -> Result<Event, String> {
    let time_s = item
        .get("t")
        .and_then(Value::as_f64)
        .ok_or("event missing t")?;
    let name = item
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("event missing kind")?;
    let fields: Vec<(String, u64)> = item
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| k != "t" && k != "kind")
        .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
        .collect();
    let kind = EventKind::from_parts(name, &fields)
        .ok_or_else(|| format!("unknown event kind '{name}'"))?;
    Ok(Event { time_s, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    fn sample() -> MetricsSnapshot {
        let mut r = MetricsRegistry::new();
        r.add("net.uplink.msgs", 42);
        r.add("srv.uplinks", 40);
        r.gauge_set("truth.error_sum", 0.125);
        r.register_histogram("agent.lqt_size", vec![1.0, 4.0, 16.0]);
        r.observe("agent.lqt_size", 0.0);
        r.observe("agent.lqt_size", 5.0);
        r.observe("agent.lqt_size", 100.0);
        r.wall_add("agent.eval_nanos", 12_345);
        r.profiler_add(Phase::Mediation, 777);
        r.set_now(1.5);
        r.event(EventKind::QueryInstalled { qid: 3, focal: 7 });
        r.event_at(0.5, EventKind::BroadcastFanout { stations: 4 });
        MetricsSnapshot::of(&r)
    }

    #[test]
    fn snapshot_sorts_events_canonically() {
        let s = sample();
        assert_eq!(s.events[0].time_s, 0.5);
        assert_eq!(
            s.events[1].kind,
            EventKind::QueryInstalled { qid: 3, focal: 7 }
        );
    }

    #[test]
    fn json_round_trip() {
        let s = sample();
        let parsed = MetricsSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn csv_round_trip() {
        let s = sample();
        let parsed = MetricsSnapshot::from_csv(&s.to_csv()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn protocol_view_strips_wall_time_only() {
        let s = sample();
        let mut other = s.clone();
        other.wall_nanos.insert("agent.eval_nanos".to_string(), 1);
        other.profiler.clear();
        assert!(
            s.protocol_eq(&other),
            "wall/profiler differences must not matter"
        );
        other.counters.insert("net.uplink.msgs".to_string(), 43);
        assert!(!s.protocol_eq(&other), "counter differences must matter");
    }

    #[test]
    fn json_contains_expected_sections() {
        let text = sample().to_json();
        for needle in [
            "\"counters\"",
            "\"profiler\"",
            "\"mediation\"",
            "\"events\"",
            "\"query_installed\"",
            "\"agent.lqt_size\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
