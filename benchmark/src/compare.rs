//! `compare A.json B.json`: two `results.json` files side by side, one row
//! per workload × end-to-end metric, judged against the recorded bound.

use crate::jsonio::{field, get_bool, get_f64};
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::workloads::WORKLOADS;
use mobieyes_telemetry::json::{self, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The files cannot settle it: a side is missing or incorrect, or the
    /// run's own repetition-to-repetition spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against base `a`. `noise` is the larger of the two runs'
/// repetition spreads as a share (0 for exact metrics).
pub fn judge(def: &MetricDef, a: f64, b: f64, noise: f64) -> Verdict {
    if !(a.is_finite() && b.is_finite()) || a == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the base.
    let worse_by = match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if noise > def.bound {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Regressed
    } else if worse_by < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Parses a `results.json` file.
fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    field(&doc, "workloads").map_err(|e| format!("{path}: {e}"))?;
    Ok(doc)
}

fn metric(workload: &Value, section: &str, name: &str) -> Option<f64> {
    workload.get(section)?.get(name)?.get("value")?.as_f64()
}

/// Whether a metric's value depends on the host's timing (as opposed to
/// an exact count, which has no run-to-run spread to speak of).
fn timed(def: &MetricDef) -> bool {
    matches!(def.unit, "s" | "ms" | "1/s")
}

pub fn run(paths: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = paths else {
        return Err("usage: mobieyes-benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("workload metric A B B/A verdict   (A = {a_path}, the base; B = {b_path})");
    let mut regressed = false;
    for w in &WORKLOADS {
        let (wa, wb) = (
            a.get("workloads").and_then(|d| d.get(w.name)),
            b.get("workloads").and_then(|d| d.get(w.name)),
        );
        let trusted =
            |side: Option<&Value>| side.is_some_and(|v| get_bool(v, "correct").unwrap_or(false));
        let spread = |side: Option<&Value>| {
            side.and_then(|v| metric(v, "per_layer", "harness.rep_spread_pct"))
                .unwrap_or(0.0)
                / 100.0
        };
        for def in &END_TO_END {
            let va = wa.and_then(|v| metric(v, "end_to_end", def.name));
            let vb = wb.and_then(|v| metric(v, "end_to_end", def.name));
            let verdict = match (va, vb) {
                (Some(x), Some(y)) if trusted(wa) && trusted(wb) => {
                    let noise = if timed(def) {
                        spread(wa).max(spread(wb))
                    } else {
                        0.0
                    };
                    judge(def, x, y, noise)
                }
                _ => Verdict::Unresolved,
            };
            regressed |= verdict == Verdict::Regressed;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.6}"));
            let ratio = match (va, vb) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:.4}", y / x),
                _ => "-".to_string(),
            };
            println!(
                "{} {} {} {} {} {} (bound {}, {} is better, unit {})",
                w.name,
                def.name,
                show(va),
                show(vb),
                ratio,
                verdict.as_str(),
                def.bound,
                def.better.as_str(),
                def.unit,
            );
        }
        for (label, side) in [("A", wa), ("B", wb)] {
            if let Some(v) = side {
                let failed = get_f64(v, "failed").unwrap_or(f64::NAN);
                if failed != 0.0 {
                    println!("{} NOTE {label} has {failed} failed ticks", w.name);
                }
            }
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let p50 = &def(Better::Lower);
        assert_eq!(judge(p50, 10.0, 10.5, 0.0), Verdict::Unchanged);
        assert_eq!(judge(p50, 10.0, 11.5, 0.0), Verdict::Regressed);
        assert_eq!(judge(p50, 10.0, 8.5, 0.0), Verdict::Improved);
        let rate = &def(Better::Higher);
        assert_eq!(judge(rate, 100.0, 85.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(rate, 100.0, 115.0, 0.0), Verdict::Improved);
        assert_eq!(judge(rate, 100.0, 95.0, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn noise_beyond_the_bound_is_unresolved_not_unchanged() {
        let p50 = &def(Better::Lower);
        assert_eq!(judge(p50, 10.0, 10.1, 0.2), Verdict::Unresolved);
        assert_eq!(judge(p50, 10.0, 20.0, 0.2), Verdict::Unresolved);
        assert_eq!(judge(p50, 0.0, 1.0, 0.0), Verdict::Unresolved);
        assert_eq!(judge(p50, f64::NAN, 1.0, 0.0), Verdict::Unresolved);
    }
}
