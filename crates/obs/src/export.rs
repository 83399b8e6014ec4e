//! JSON exporters: the `acme-obs-trace-v1` schema consumed by
//! `--trace-out`, and `chrome://tracing` trace-event JSON.
//!
//! The workspace has no JSON dependency (by design — see the root
//! `Cargo.toml`), so emission is hand-rolled here, mirroring how the
//! `BENCH_*.json` artifacts are written.

use std::collections::BTreeMap;

use crate::metrics::MetricsSnapshot;
use crate::trace::{FieldValue, SpanKind, Trace};

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as a JSON number (`null` for non-finite values,
/// which JSON cannot represent).
#[must_use]
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_field(value: &FieldValue) -> String {
    match value {
        FieldValue::U64(v) => format!("{v}"),
        FieldValue::I64(v) => format!("{v}"),
        FieldValue::F64(v) => json_f64(*v),
        FieldValue::Str(v) => format!("\"{}\"", json_escape(v)),
    }
}

fn json_fields(fields: &[(&'static str, FieldValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", json_escape(k), json_field(v)));
    }
    out.push('}');
    out
}

/// Renders a drained trace plus a registry snapshot as the
/// `acme-obs-trace-v1` document:
///
/// ```json
/// {
///   "schema": "acme-obs-trace-v1",
///   "dropped_events": 0,
///   "spans": [{"name": "...", "kind": "span", "thread": 0, "depth": 0,
///              "start_us": 1.5, "dur_us": 10.0, "fields": {...}}, ...],
///   "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
///   "phases": [{"phase": "...", "total_ms": 1.0, "count": 1}, ...]
/// }
/// ```
///
/// `"phases"` is derived from the spans: one row per duration-span name,
/// sorted by name, with the summed duration and the number of spans.
#[must_use]
pub fn trace_json(trace: &Trace, metrics: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"schema\": \"acme-obs-trace-v1\",\n");
    out.push_str(&format!(
        "  \"dropped_events\": {},\n  \"spans\": [",
        trace.dropped_events
    ));
    for (i, e) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"kind\": \"{}\", \"thread\": {}, \"depth\": {}, \
             \"start_us\": {}, \"dur_us\": {}, \"fields\": {}}}",
            json_escape(e.name),
            match e.kind {
                SpanKind::Span => "span",
                SpanKind::Event => "event",
            },
            e.thread,
            e.depth,
            json_f64(e.start_ns as f64 / 1e3),
            json_f64(e.dur_ns as f64 / 1e3),
            json_fields(&e.fields)
        ));
    }
    out.push_str("\n  ],\n  \"metrics\": {\n    \"counters\": {");
    for (i, (k, v)) in metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", json_escape(k), v));
    }
    out.push_str("},\n    \"gauges\": {");
    for (i, (k, v)) in metrics.gauges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", json_escape(k), json_f64(*v)));
    }
    out.push_str("},\n    \"histograms\": {");
    for (i, (k, h)) in metrics.histograms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let bounds: Vec<String> = h.bounds.iter().map(|b| json_f64(*b)).collect();
        let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
        out.push_str(&format!(
            "\"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"count\": {}, \"sum\": {}}}",
            json_escape(k),
            bounds.join(", "),
            counts.join(", "),
            h.count,
            json_f64(h.sum)
        ));
    }
    out.push_str("}\n  },\n  \"phases\": [");
    let mut phases: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in trace.spans.iter().filter(|e| e.kind == SpanKind::Span) {
        let (dur_ns, count) = phases.entry(e.name).or_default();
        *dur_ns += e.dur_ns;
        *count += 1;
    }
    for (i, (phase, (dur_ns, count))) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"phase\": \"{}\", \"total_ms\": {}, \"count\": {}}}",
            json_escape(phase),
            json_f64(*dur_ns as f64 / 1e6),
            count
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders a drained trace as `chrome://tracing` trace-event JSON
/// (complete `"X"` events for spans, instant `"i"` events for events;
/// load via `chrome://tracing` or <https://ui.perfetto.dev>).
#[must_use]
pub fn chrome_json(trace: &Trace) -> String {
    let mut out = String::from("[");
    for (i, e) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (ph, dur) = match e.kind {
            SpanKind::Span => (
                "X",
                format!(", \"dur\": {}", json_f64(e.dur_ns as f64 / 1e3)),
            ),
            SpanKind::Event => ("i", ", \"s\": \"t\"".to_string()),
        };
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"cat\": \"acme\", \"ph\": \"{}\", \"ts\": {}{}, \
             \"pid\": 1, \"tid\": {}, \"args\": {}}}",
            json_escape(e.name),
            ph,
            json_f64(e.start_ns as f64 / 1e3),
            dur,
            e.thread,
            json_fields(&e.fields)
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanEvent;

    fn event(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanEvent {
        SpanEvent {
            name,
            kind: SpanKind::Span,
            fields,
            thread: 0,
            depth: 0,
            start_ns: 1_500,
            dur_ns: 10_000,
        }
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn trace_json_has_schema_and_span_fields() {
        let trace = Trace {
            spans: vec![event(
                "protocol.round",
                vec![
                    ("node", FieldValue::Str("edge-0".into())),
                    ("round", FieldValue::U64(2)),
                ],
            )],
            dropped_events: 0,
        };
        let json = trace_json(&trace, &MetricsSnapshot::default());
        assert!(json.contains("\"schema\": \"acme-obs-trace-v1\""));
        assert!(json.contains("\"name\": \"protocol.round\""));
        assert!(json.contains("\"round\": 2"));
        assert!(json.contains("\"node\": \"edge-0\""));
        assert!(json.contains("\"start_us\": 1.5"));
        assert!(json.contains("\"dur_us\": 10"));
    }

    #[test]
    fn phase_rows_sum_duration_spans_by_name() {
        let tick = SpanEvent {
            kind: SpanKind::Event,
            dur_ns: 0,
            ..event("protocol.retry", vec![])
        };
        let trace = Trace {
            spans: vec![
                event("pipeline.pretrain", vec![]),
                tick,
                SpanEvent {
                    dur_ns: 30_000,
                    ..event("pipeline.pretrain", vec![])
                },
            ],
            dropped_events: 0,
        };
        let json = trace_json(&trace, &MetricsSnapshot::default());
        let phases = &json[json.find("\"phases\"").unwrap()..];
        assert!(
            phases.contains("{\"phase\": \"pipeline.pretrain\", \"total_ms\": 0.04, \"count\": 2}")
        );
        assert!(!phases.contains("protocol.retry"), "events are not phases");
    }

    #[test]
    fn chrome_json_emits_complete_events() {
        let trace = Trace {
            spans: vec![event("tensor.gemm", vec![("m", FieldValue::U64(64))])],
            dropped_events: 0,
        };
        let json = chrome_json(&trace);
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 10"));
        assert!(json.contains("\"args\": {\"m\": 64}"));
    }
}
