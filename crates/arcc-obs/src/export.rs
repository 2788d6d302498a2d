//! Hand-rolled exposition of a [`MetricsSnapshot`]: Prometheus text
//! format and single-line JSON (no serde in the offline build).
//!
//! Both emitters walk the snapshot's `BTreeMap` in name order, so equal
//! snapshots render byte-identically — the exposition inherits the
//! schedule-invariance of the values.

use crate::metrics::{Histogram, MetricValue, MetricsSnapshot};

/// Renders `s` as a quoted JSON string literal, escaping quotes,
/// backslashes, and control characters (RFC 8259) — the one string
/// encoder behind every hand-rolled JSON writer in the workspace.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `x` as a JSON number in its shortest round-trip form, with
/// `.0` on integral values so the type stays visible, or `null` when
/// `x` is not finite (JSON has no spelling for NaN or infinity) — the
/// one float encoder behind every hand-rolled JSON writer in the
/// workspace.
pub fn json_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Maps a dotted metric name onto the Prometheus name charset
/// (`[a-zA-Z0-9_:]`); anything else becomes `_`.
pub fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn prometheus_histogram(out: &mut String, name: &str, h: &Histogram) {
    let mut cumulative = 0u64;
    for (i, count) in h.buckets().iter().enumerate() {
        cumulative += count;
        if *count == 0 && i != 0 {
            continue;
        }
        let le = Histogram::bucket_upper_bound(i);
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

/// Renders a snapshot in the Prometheus text exposition format:
/// a `# TYPE` line per metric, cumulative `_bucket{le=...}` series for
/// histograms (empty buckets elided), names sanitised via
/// [`prometheus_name`].
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in snapshot.iter() {
        let pname = prometheus_name(name);
        out.push_str(&format!("# TYPE {pname} {}\n", value.kind_name()));
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                out.push_str(&format!("{pname} {v}\n"));
            }
            MetricValue::Histogram(h) => prometheus_histogram(&mut out, &pname, h),
        }
    }
    out
}

/// Renders a snapshot as a single-line JSON object keyed by metric name.
///
/// Counters and gauges become `{"type":"counter","value":N}`;
/// histograms become `{"type":"histogram","count":N,"sum":N,
/// "buckets":[[index,count],...]}` listing only non-empty buckets.
pub fn to_json(snapshot: &MetricsSnapshot) -> String {
    let mut parts = Vec::with_capacity(snapshot.len());
    for (name, value) in snapshot.iter() {
        let body = match value {
            MetricValue::Counter(v) => format!("{{\"type\":\"counter\",\"value\":{v}}}"),
            MetricValue::Gauge(v) => format!("{{\"type\":\"gauge\",\"value\":{v}}}"),
            MetricValue::Histogram(h) => {
                let buckets: Vec<String> = h
                    .buckets()
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c != 0)
                    .map(|(i, c)| format!("[{i},{c}]"))
                    .collect();
                format!(
                    "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                    h.count(),
                    h.sum(),
                    buckets.join(",")
                )
            }
        };
        parts.push(format!("{}:{body}", json_string(name)));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.counter_add("fleet.events.popped", 42);
        s.gauge_max("fleet.queue.peak", 7);
        s.observe("serve.latency_us.status", 0);
        s.observe("serve.latency_us.status", 3);
        s.observe("serve.latency_us.status", 100);
        s
    }

    #[test]
    fn prometheus_text_shape() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE fleet_events_popped counter\nfleet_events_popped 42\n"));
        assert!(text.contains("# TYPE fleet_queue_peak gauge\nfleet_queue_peak 7\n"));
        assert!(text.contains("# TYPE serve_latency_us_status histogram\n"));
        // Cumulative buckets: one zero, one value <= 3, one value <= 127.
        assert!(text.contains("serve_latency_us_status_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("serve_latency_us_status_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("serve_latency_us_status_bucket{le=\"127\"} 3\n"));
        assert!(text.contains("serve_latency_us_status_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("serve_latency_us_status_sum 103\n"));
        assert!(text.contains("serve_latency_us_status_count 3\n"));
    }

    #[test]
    fn json_is_single_line_and_ordered() {
        let json = to_json(&sample());
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"fleet.events.popped\":{\"type\":\"counter\",\"value\":42}"));
        assert!(json.contains("\"fleet.queue.peak\":{\"type\":\"gauge\",\"value\":7}"));
        assert!(json.contains("\"buckets\":[[0,1],[2,1],[7,1]]"));
        assert_eq!(to_json(&MetricsSnapshot::new()), "{}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd\te\r"), "\"a\\\"b\\\\c\\nd\\te\\r\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(prometheus_name("a.b-c:d_e9"), "a_b_c:d_e9");
    }

    #[test]
    fn json_f64_keeps_floats_typed() {
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }
}
