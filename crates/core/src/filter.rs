//! Query filters: boolean predicates over target-object properties.
//!
//! The paper defines a filter abstractly ("a Boolean predicate defined over
//! the properties of the target objects") and, in the evaluation, only by
//! its selectivity (0.75). We provide both:
//!
//! - a small predicate AST over typed properties for real applications, and
//! - [`Filter::Selectivity`], a deterministic pseudo-random predicate that
//!   passes each (query, object) pair independently with a configurable
//!   probability — the filter the simulation experiments use.

use crate::model::{ObjectId, PropValue, Properties};

/// A boolean predicate over object properties.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches everything.
    True,
    /// Matches nothing (useful for tests and query retirement).
    False,
    /// Deterministic pseudo-random filter: object `oid` passes iff
    /// `hash(salt, oid) < selectivity`. Models the paper's "query
    /// selectivity" parameter without attaching real attributes.
    Selectivity {
        selectivity: f64,
        salt: u64,
    },
    /// Property equals the given value.
    Eq(String, PropValue),
    /// Numeric property strictly less than the threshold (Int and Float
    /// properties compare; other types never match).
    Lt(String, f64),
    /// Numeric property strictly greater than the threshold.
    Gt(String, f64),
    And(Box<Filter>, Box<Filter>),
    Or(Box<Filter>, Box<Filter>),
    Not(Box<Filter>),
}

impl Filter {
    /// Convenience constructor for the simulation filter.
    pub fn with_selectivity(selectivity: f64, salt: u64) -> Self {
        assert!((0.0..=1.0).contains(&selectivity));
        Filter::Selectivity { selectivity, salt }
    }

    /// Does object `oid` with properties `props` satisfy the filter?
    pub fn matches(&self, oid: ObjectId, props: &Properties) -> bool {
        match self {
            Filter::True => true,
            Filter::False => false,
            Filter::Selectivity { selectivity, salt } => {
                let h = splitmix64(salt ^ ((oid.0 as u64) << 1 | 1));
                ((h >> 11) as f64 / (1u64 << 53) as f64) < *selectivity
            }
            Filter::Eq(key, value) => props.get(key) == Some(value),
            Filter::Lt(key, threshold) => numeric(props.get(key)).is_some_and(|v| v < *threshold),
            Filter::Gt(key, threshold) => numeric(props.get(key)).is_some_and(|v| v > *threshold),
            Filter::And(a, b) => a.matches(oid, props) && b.matches(oid, props),
            Filter::Or(a, b) => a.matches(oid, props) || b.matches(oid, props),
            Filter::Not(f) => !f.matches(oid, props),
        }
    }
}

fn numeric(v: Option<&PropValue>) -> Option<f64> {
    match v {
        Some(PropValue::Int(i)) => Some(*i as f64),
        Some(PropValue::Float(f)) => Some(*f),
        _ => None,
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props() -> Properties {
        Properties::new()
            .with("color", "red")
            .with("speed_class", 3i64)
            .with("weight", 1.5f64)
    }

    #[test]
    fn constants() {
        assert!(Filter::True.matches(ObjectId(0), &props()));
        assert!(!Filter::False.matches(ObjectId(0), &props()));
    }

    #[test]
    fn equality_on_each_type() {
        let p = props();
        assert!(Filter::Eq("color".into(), "red".into()).matches(ObjectId(0), &p));
        assert!(!Filter::Eq("color".into(), "blue".into()).matches(ObjectId(0), &p));
        assert!(Filter::Eq("speed_class".into(), PropValue::Int(3)).matches(ObjectId(0), &p));
        assert!(!Filter::Eq("missing".into(), PropValue::Bool(true)).matches(ObjectId(0), &p));
    }

    #[test]
    fn numeric_comparisons_cover_int_and_float() {
        let p = props();
        assert!(Filter::Lt("speed_class".into(), 4.0).matches(ObjectId(0), &p));
        assert!(!Filter::Lt("speed_class".into(), 3.0).matches(ObjectId(0), &p));
        assert!(Filter::Gt("weight".into(), 1.0).matches(ObjectId(0), &p));
        assert!(!Filter::Gt("weight".into(), 2.0).matches(ObjectId(0), &p));
        // Non-numeric or missing properties never match comparisons.
        assert!(!Filter::Lt("color".into(), 100.0).matches(ObjectId(0), &p));
        assert!(!Filter::Gt("missing".into(), 0.0).matches(ObjectId(0), &p));
    }

    #[test]
    fn boolean_combinators() {
        let p = props();
        let red = Filter::Eq("color".into(), "red".into());
        let heavy = Filter::Gt("weight".into(), 2.0);
        assert!(
            !Filter::And(Box::new(red.clone()), Box::new(heavy.clone())).matches(ObjectId(0), &p)
        );
        assert!(Filter::Or(Box::new(red.clone()), Box::new(heavy.clone())).matches(ObjectId(0), &p));
        assert!(Filter::Not(Box::new(heavy)).matches(ObjectId(0), &p));
    }

    #[test]
    fn selectivity_is_deterministic_per_object() {
        let f = Filter::with_selectivity(0.75, 42);
        let p = Properties::new();
        for oid in 0..100 {
            assert_eq!(f.matches(ObjectId(oid), &p), f.matches(ObjectId(oid), &p));
        }
    }

    #[test]
    fn selectivity_rate_is_approximate() {
        let f = Filter::with_selectivity(0.75, 7);
        let p = Properties::new();
        let hits = (0..10_000).filter(|&i| f.matches(ObjectId(i), &p)).count();
        let rate = hits as f64 / 10_000.0;
        assert!(
            (0.72..0.78).contains(&rate),
            "selectivity 0.75 observed {rate}"
        );
    }

    #[test]
    fn selectivity_extremes() {
        let p = Properties::new();
        let none = Filter::with_selectivity(0.0, 1);
        let all = Filter::with_selectivity(1.0, 1);
        for oid in 0..100 {
            assert!(!none.matches(ObjectId(oid), &p));
            assert!(all.matches(ObjectId(oid), &p));
        }
    }

    #[test]
    fn different_salts_give_different_subsets() {
        let p = Properties::new();
        let a = Filter::with_selectivity(0.5, 1);
        let b = Filter::with_selectivity(0.5, 2);
        let differs = (0..1000).any(|i| a.matches(ObjectId(i), &p) != b.matches(ObjectId(i), &p));
        assert!(differs);
    }
}
