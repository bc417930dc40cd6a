//! Identifiers and object properties (paper §2.2: the `{props}` component
//! of a moving object).

use std::collections::BTreeMap;

/// Unique identifier of a moving object. Doubles as the network `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Unique identifier of a moving query, assigned by the server at install.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl ObjectId {
    /// The corresponding network endpoint.
    pub fn node(self) -> mobieyes_net::NodeId {
        mobieyes_net::NodeId(self.0)
    }
}

/// A typed property value.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl From<i64> for PropValue {
    fn from(v: i64) -> Self {
        PropValue::Int(v)
    }
}

impl From<f64> for PropValue {
    fn from(v: f64) -> Self {
        PropValue::Float(v)
    }
}

impl From<&str> for PropValue {
    fn from(v: &str) -> Self {
        PropValue::Text(v.to_string())
    }
}

impl From<bool> for PropValue {
    fn from(v: bool) -> Self {
        PropValue::Bool(v)
    }
}

/// The property set of a moving object: "spatial, temporal, or
/// object-specific properties, such as color or manufacture of a mobile
/// unit". Query filters are boolean predicates over these.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Properties {
    values: BTreeMap<String, PropValue>,
}

impl Properties {
    pub const fn new() -> Self {
        Properties {
            values: BTreeMap::new(),
        }
    }

    /// Builder-style property setter.
    pub fn with(mut self, key: &str, value: impl Into<PropValue>) -> Self {
        self.values.insert(key.to_string(), value.into());
        self
    }

    pub fn set(&mut self, key: &str, value: impl Into<PropValue>) {
        self.values.insert(key.to_string(), value.into());
    }

    pub fn get(&self, key: &str) -> Option<&PropValue> {
        self.values.get(key)
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_maps_to_node_id() {
        assert_eq!(ObjectId(42).node(), mobieyes_net::NodeId(42));
    }

    #[test]
    fn properties_builder_and_lookup() {
        let p = Properties::new()
            .with("color", "red")
            .with("speed_class", 3i64)
            .with("friendly", true)
            .with("weight", 1.5f64);
        assert_eq!(p.len(), 4);
        assert_eq!(p.get("color"), Some(&PropValue::Text("red".into())));
        assert_eq!(p.get("friendly"), Some(&PropValue::Bool(true)));
        assert_eq!(p.get("missing"), None);
    }

    #[test]
    fn set_overwrites() {
        let mut p = Properties::new().with("x", 1i64);
        p.set("x", 2i64);
        assert_eq!(p.get("x"), Some(&PropValue::Int(2)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn empty_properties() {
        let p = Properties::new();
        assert!(p.is_empty());
        assert_eq!(p.get("any"), None);
    }
}
