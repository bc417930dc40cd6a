//! Small helpers over the in-tree JSON value model
//! (`mobieyes_telemetry::json`), which is what every file this harness
//! reads or writes goes through.

use mobieyes_telemetry::json::Value;
use std::collections::BTreeMap;

pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(n: f64) -> Value {
    Value::Num(n)
}

pub fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
}

/// 64-bit digests exceed the 2^53 integers a JSON number carries
/// exactly, so they travel as 16-digit hex strings.
pub fn hex(digest: u64) -> Value {
    Value::Str(format!("{digest:016x}"))
}

pub fn hexes(digests: &[u64]) -> Value {
    Value::Arr(digests.iter().map(|&d| hex(d)).collect())
}

pub fn num_map<V: Copy + Into<f64>>(map: &BTreeMap<String, V>) -> Value {
    obj(map.iter().map(|(k, &v)| (k.clone(), Value::Num(v.into()))))
}

pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

pub fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

pub fn get_bool(v: &Value, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("field {key:?} is not a boolean")),
    }
}

pub fn get_f64s(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} is not an array"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("field {key:?} holds a non-number"))
        })
        .collect()
}

pub fn parse_hex(v: &Value) -> Result<u64, String> {
    let s = v.as_str().ok_or("digest is not a string")?;
    u64::from_str_radix(s, 16).map_err(|e| format!("bad digest {s:?}: {e}"))
}

pub fn get_hex(v: &Value, key: &str) -> Result<u64, String> {
    parse_hex(field(v, key)?)
}

pub fn get_hexes(v: &Value, key: &str) -> Result<Vec<u64>, String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} is not an array"))?
        .iter()
        .map(parse_hex)
        .collect()
}

pub fn get_num_map(v: &Value, key: &str) -> Result<BTreeMap<String, f64>, String> {
    field(v, key)?
        .as_obj()
        .ok_or_else(|| format!("field {key:?} is not an object"))?
        .iter()
        .map(|(k, x)| {
            x.as_f64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("{key}.{k} is not a number"))
        })
        .collect()
}
