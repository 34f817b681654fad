//! Plain-data snapshots of a [`Registry`](crate::Registry): merged shard
//! values with deterministic ordering, a commutative merge, and JSON /
//! Prometheus text expositions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{bucket_upper_bound, BUCKETS};

/// Folded state of one histogram: non-empty `(bucket index, count)` pairs
/// sorted by index, plus total count and value sum.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(log2 bucket index, observation count)`.
    pub buckets: Vec<(u8, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    fn merged(&self, other: &Self) -> Self {
        let mut buckets: BTreeMap<u8, u64> = self.buckets.iter().copied().collect();
        for &(b, n) in &other.buckets {
            *buckets.entry(b).or_default() += n;
        }
        Self {
            buckets: buckets.into_iter().collect(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
        }
    }
}

/// One metric's folded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time or high-watermark value.
    Gauge(u64),
    /// Folded histogram.
    Histogram(HistogramSnapshot),
}

impl SampleValue {
    fn type_name(&self) -> &'static str {
        match self {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        }
    }

    fn merged(&self, other: &Self) -> Self {
        match (self, other) {
            (SampleValue::Counter(a), SampleValue::Counter(b)) => SampleValue::Counter(a + b),
            (SampleValue::Gauge(a), SampleValue::Gauge(b)) => SampleValue::Gauge(*a.max(b)),
            (SampleValue::Histogram(a), SampleValue::Histogram(b)) => {
                SampleValue::Histogram(a.merged(b))
            }
            (a, b) => panic!(
                "cannot merge {} sample with {} sample",
                a.type_name(),
                b.type_name()
            ),
        }
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (Prometheus conventions: `msccl_*_total`, `_ns`, …).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Folded value.
    pub value: SampleValue,
}

/// A deterministic, mergeable fold of every metric in a registry at one
/// point in time. Samples are sorted by `(name, labels)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// All samples, sorted by `(name, labels)`.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// Merges two snapshots: counters and histograms add, gauges keep the
    /// maximum (they are high watermarks in this codebase). Commutative
    /// and associative, so multi-attempt or multi-run folds are
    /// order-independent.
    ///
    /// # Panics
    ///
    /// Panics if the same `(name, labels)` appears with different metric
    /// types in the two snapshots.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let mut merged: BTreeMap<(String, Vec<(String, String)>), SampleValue> = self
            .samples
            .iter()
            .map(|s| ((s.name.clone(), s.labels.clone()), s.value.clone()))
            .collect();
        for s in &other.samples {
            let key = (s.name.clone(), s.labels.clone());
            match merged.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s.value.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let v = e.get().merged(&s.value);
                    e.insert(v);
                }
            }
        }
        Self {
            samples: merged
                .into_iter()
                .map(|((name, labels), value)| Sample {
                    name,
                    labels,
                    value,
                })
                .collect(),
        }
    }

    /// Looks up one sample by exact name and label set (labels in any
    /// order).
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        want.sort();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| &s.value)
    }

    /// Counter value by name and labels, `0` if absent.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(SampleValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of all counter samples with this name, across label sets.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// All samples whose name equals `name`, in label order.
    pub fn with_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// JSON exposition: one object per sample with `name`, `labels`,
    /// `type`, and a type-appropriate value. Field order and float-free
    /// formatting are stable, so equal snapshots serialize byte-equal.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"samples\": [");
        for (i, sample) in self.samples.iter().enumerate() {
            let comma = if i + 1 == self.samples.len() { "" } else { "," };
            let mut labels = String::new();
            for (j, (k, v)) in sample.labels.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    labels,
                    "{sep}\"{}\": \"{}\"",
                    json_escape(k),
                    json_escape(v)
                );
            }
            let _ = write!(
                s,
                "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, \"type\": \"{}\", ",
                json_escape(&sample.name),
                sample.value.type_name()
            );
            match &sample.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    let _ = writeln!(s, "\"value\": {v}}}{comma}");
                }
                SampleValue::Histogram(h) => {
                    let mut buckets = String::new();
                    for (j, (b, n)) in h.buckets.iter().enumerate() {
                        let sep = if j == 0 { "" } else { ", " };
                        let _ = write!(
                            buckets,
                            "{sep}{{\"le\": \"{}\", \"count\": {n}}}",
                            le_label(*b as usize)
                        );
                    }
                    let _ = writeln!(
                        s,
                        "\"count\": {}, \"sum\": {}, \"buckets\": [{buckets}]}}{comma}",
                        h.count, h.sum
                    );
                }
            }
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Prometheus text exposition format. Histogram buckets are emitted
    /// cumulatively with `le` labels, ending in `+Inf`, per convention.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        let mut last_name: Option<&str> = None;
        for sample in &self.samples {
            if last_name != Some(sample.name.as_str()) {
                let _ = writeln!(s, "# TYPE {} {}", sample.name, sample.value.type_name());
                last_name = Some(sample.name.as_str());
            }
            match &sample.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    let _ = writeln!(s, "{}{} {v}", sample.name, label_set(&sample.labels, &[]));
                }
                SampleValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for &(b, n) in &h.buckets {
                        cumulative += n;
                        let le = le_label(b as usize);
                        let _ = writeln!(
                            s,
                            "{}_bucket{} {cumulative}",
                            sample.name,
                            label_set(&sample.labels, &[("le", &le)])
                        );
                    }
                    if h.buckets.last().map(|&(b, _)| b as usize) != Some(BUCKETS - 1) {
                        let _ = writeln!(
                            s,
                            "{}_bucket{} {}",
                            sample.name,
                            label_set(&sample.labels, &[("le", "+Inf")]),
                            h.count
                        );
                    }
                    let _ = writeln!(
                        s,
                        "{}_sum{} {}",
                        sample.name,
                        label_set(&sample.labels, &[]),
                        h.sum
                    );
                    let _ = writeln!(
                        s,
                        "{}_count{} {}",
                        sample.name,
                        label_set(&sample.labels, &[]),
                        h.count
                    );
                }
            }
        }
        s
    }
}

fn le_label(bucket: usize) -> String {
    match bucket_upper_bound(bucket) {
        Some(v) => v.to_string(),
        None => "+Inf".to_string(),
    }
}

fn label_set(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{k}=\"{}\"", label_escape(v));
    }
    s.push('}');
    s
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes and every control character.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escapes a Prometheus label value as the text exposition format
/// specifies: backslash, double quote and line feed. An unescaped line
/// feed would end the sample line and let a label value inject a sample.
fn label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new(2);
        r.counter("msccl_sends_total", &[("src", "0"), ("dst", "1")])
            .add(0, 3);
        r.gauge("msccl_fifo_peak_occupancy", &[("channel", "0")])
            .set_max(2);
        let h = r.histogram("msccl_instr_latency_ns", &[("op", "s")]);
        h.record(0, 0);
        h.record(1, 900);
        r
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let a = sample_registry().snapshot().to_json();
        let b = sample_registry().snapshot().to_json();
        assert_eq!(a, b);
        let fifo = a.find("msccl_fifo_peak_occupancy").unwrap();
        let hist = a.find("msccl_instr_latency_ns").unwrap();
        let ctr = a.find("msccl_sends_total").unwrap();
        assert!(fifo < hist && hist < ctr, "samples sorted by name");
        assert!(a.contains("\"type\": \"histogram\""));
        assert!(a.contains("\"le\": \"0\""));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# TYPE msccl_sends_total counter"));
        assert!(text.contains("msccl_sends_total{dst=\"1\",src=\"0\"} 3"));
        assert!(text.contains("# TYPE msccl_instr_latency_ns histogram"));
        assert!(text.contains("msccl_instr_latency_ns_bucket{op=\"s\",le=\"0\"} 1"));
        assert!(text.contains("msccl_instr_latency_ns_bucket{op=\"s\",le=\"+Inf\"} 2"));
        assert!(text.contains("msccl_instr_latency_ns_sum{op=\"s\"} 900"));
        assert!(text.contains("msccl_instr_latency_ns_count{op=\"s\"} 2"));
    }

    #[test]
    fn a_label_value_cannot_inject_a_line() {
        let r = Registry::new(1);
        r.counter(
            "msccl_requests_total",
            &[("tenant", "x\nfake_metric 1\\\"")],
        )
        .add(0, 1);
        let snap = r.snapshot();
        let text = snap.to_prometheus();
        assert!(
            text.contains("msccl_requests_total{tenant=\"x\\nfake_metric 1\\\\\\\"\"} 1"),
            "{text}"
        );
        assert!(
            !text.lines().any(|l| l.starts_with("fake_metric")),
            "{text}"
        );
        // JSON escapes every control character; Prometheus only the three
        // its format names.
        assert_eq!(json_escape("a\\q\t\u{1}\""), "a\\\\q\\t\\u0001\\\"");
        assert!(snap
            .to_json()
            .contains("\"tenant\": \"x\\nfake_metric 1\\\\\\\"\""));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        let m = a.merge(&b);
        assert_eq!(
            m.counter("msccl_sends_total", &[("src", "0"), ("dst", "1")]),
            6
        );
        match m.get("msccl_instr_latency_ns", &[("op", "s")]).unwrap() {
            SampleValue::Histogram(h) => {
                assert_eq!(h.count, 4);
                assert_eq!(h.sum, 1800);
            }
            other => panic!("unexpected {other:?}"),
        }
        match m
            .get("msccl_fifo_peak_occupancy", &[("channel", "0")])
            .unwrap()
        {
            SampleValue::Gauge(v) => assert_eq!(*v, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
