//! Reads the repository's JSONL telemetry stream back into per-round
//! totals: span wall time by name and counter totals by name.
//!
//! A round's records all precede its `round` span record (children close
//! first, and counters are flushed before the round span closes), so the
//! stream splits into rounds at each `round` span.

use std::collections::BTreeMap;

/// One armed round as the telemetry stream saw it.
#[derive(Default, Debug)]
pub struct RoundRecord {
    /// Summed wall nanoseconds per span name (the `round` span included).
    pub span_ns: BTreeMap<String, u64>,
    /// Summed totals per counter name, over all keys.
    pub counters: BTreeMap<String, u64>,
    /// Bytes broadcast to shards: each `shard_ingress` segment times the
    /// shard count.
    pub ingress_frame_bytes: u64,
}

impl RoundRecord {
    pub fn span_s(&self, name: &str) -> f64 {
        self.span_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Splits a stream into its completed rounds, in order.
pub fn rounds(jsonl: &str) -> Vec<RoundRecord> {
    let mut out = Vec::new();
    let mut cur = RoundRecord::default();
    for line in jsonl.lines() {
        let (Some(record), Some(name)) = (text(line, "record"), text(line, "name")) else {
            continue;
        };
        match record {
            "span" => {
                let ns = number(line, "ns").unwrap_or(0);
                *cur.span_ns.entry(name.to_string()).or_insert(0) += ns;
                if name == "shard_ingress" {
                    let segment = number(line, "segment_bytes").unwrap_or(0);
                    cur.ingress_frame_bytes += segment * number(line, "shards").unwrap_or(0);
                }
                if name == "round" {
                    out.push(std::mem::take(&mut cur));
                }
            }
            "counter" => {
                *cur.counters.entry(name.to_string()).or_insert(0) +=
                    number(line, "total").unwrap_or(0);
            }
            _ => {}
        }
    }
    out
}

/// The string value of `"key":"..."` (keys in this schema never need
/// escaping, and the values read here never contain quotes).
fn text<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The unsigned integer value of `"key":123`.
fn number(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: &str = &line[start..];
    let len = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
    digits[..len].parse().ok()
}
