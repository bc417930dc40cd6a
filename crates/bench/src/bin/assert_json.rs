//! Tiny JSON field assertion helper for shell gates (`scripts/check.sh`),
//! replacing fragile `grep -o` pipelines over the `BENCH_*.json` files.
//!
//! ```console
//! $ assert-json BENCH_chaos.json get contract_bound_ticks      # prints 20
//! $ assert-json BENCH_chaos.json forbid recovery_ticks 20      # fails if present
//! $ assert-json BENCH_cluster.json require bench cluster-scaling
//! $ assert-json BENCH_cluster.json max skew_after              # prints largest
//! $ assert-json BENCH_cluster.json min skew_before             # prints smallest
//! ```
//!
//! Scans for `"<key>": <scalar>` pairs (numbers, strings, booleans) —
//! exactly the shapes the in-tree bench writers emit. `get` prints the
//! first value; `max` prints the numerically largest (for ceilings
//! over series entries); `min` the smallest (for floors);
//! `forbid` exits non-zero when any pair matches the given value;
//! `require` exits non-zero unless one does.

use std::process::exit;

/// All scalar values appearing under `"key":` anywhere in the document.
fn values_of(doc: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find(&needle) {
        let after = &rest[at + needle.len()..];
        let after = after.trim_start();
        if let Some(stripped) = after.strip_prefix(':') {
            let v = stripped.trim_start();
            let val = if let Some(s) = v.strip_prefix('"') {
                // String value: up to the closing quote (the writers never
                // emit escaped quotes).
                s.split('"').next().unwrap_or("").to_string()
            } else {
                // Number / boolean / null: up to a delimiter.
                v.split([',', '}', ']', '\n', ' '])
                    .next()
                    .unwrap_or("")
                    .to_string()
            };
            if !val.is_empty() {
                out.push(val);
            }
        }
        rest = &rest[at + needle.len()..];
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: assert-json <file> get <key>\n       assert-json <file> max <key>\n       assert-json <file> min <key>\n       assert-json <file> forbid <key> <value>\n       assert-json <file> require <key> <value>"
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (file, cmd) = match args.as_slice() {
        [f, c, rest @ ..] if !rest.is_empty() => (f, (c.as_str(), rest)),
        _ => usage(),
    };
    let doc = match std::fs::read_to_string(file) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("assert-json: cannot read {file}: {e}");
            exit(2);
        }
    };
    match cmd {
        ("get", [key]) => {
            let vals = values_of(&doc, key);
            match vals.first() {
                Some(v) => println!("{v}"),
                None => {
                    eprintln!("assert-json: key \"{key}\" not found in {file}");
                    exit(1);
                }
            }
        }
        ("max", [key]) => {
            let max = values_of(&doc, key)
                .iter()
                .filter_map(|v| v.parse::<f64>().ok())
                .fold(f64::NAN, f64::max);
            if max.is_nan() {
                eprintln!("assert-json: key \"{key}\" has no numeric values in {file}");
                exit(1);
            }
            println!("{max}");
        }
        ("min", [key]) => {
            let min = values_of(&doc, key)
                .iter()
                .filter_map(|v| v.parse::<f64>().ok())
                .fold(f64::NAN, f64::min);
            if min.is_nan() {
                eprintln!("assert-json: key \"{key}\" has no numeric values in {file}");
                exit(1);
            }
            println!("{min}");
        }
        ("forbid", [key, value]) => {
            if values_of(&doc, key).iter().any(|v| v == value) {
                eprintln!("assert-json: {file} contains \"{key}\": {value} (forbidden)");
                exit(1);
            }
        }
        ("require", [key, value]) => {
            if !values_of(&doc, key).iter().any(|v| v == value) {
                eprintln!("assert-json: {file} has no \"{key}\": {value} (required)");
                exit(1);
            }
        }
        _ => usage(),
    }
}
