//! The serializable per-run pipeline report.

use crate::event::{Event, EventKind};
use crate::json::Json;
use std::fmt::Write as _;

/// Schema identifier emitted in the JSON encoding; bump on breaking change.
pub const SCHEMA: &str = "xmltc.pipeline-report/1";

/// One completed phase span: name, nesting depth, wall time, and the
/// metrics recorded while it was the innermost open span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Phase name, e.g. `typecheck.product` or `typecheck.mso`.
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: u16,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Metrics attached to this span, in recording order.
    pub metrics: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Wall-clock duration in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }
}

/// A full per-run report: every phase span in start order plus any metrics
/// recorded outside a span.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// Phase spans in start order.
    pub spans: Vec<SpanRecord>,
    /// Metrics recorded outside any span.
    pub metrics: Vec<(String, u64)>,
}

impl PipelineReport {
    /// Folds a capture's events into a report. Each enter/exit pair
    /// becomes a span: its depth is the nesting at enter, its wall time
    /// the distance between the two timestamps. Set, max and add events
    /// update the metrics of the innermost open span, or the run metrics
    /// outside any span. Timeline events are skipped.
    pub(crate) fn fold(events: &[Event]) -> PipelineReport {
        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut root: Vec<(&'static str, u64)> = Vec::new();
        // Open spans, innermost last: (index into `spans`, enter time).
        let mut open: Vec<(usize, u64)> = Vec::new();
        for e in events {
            let (value, merge): (u64, fn(u64, u64) -> u64) = match e.kind {
                EventKind::Enter => {
                    open.push((spans.len(), e.ts_ns));
                    spans.push(SpanRecord {
                        name: e.name.to_string(),
                        depth: (open.len() - 1) as u16,
                        wall_ns: 0,
                        metrics: Vec::new(),
                    });
                    continue;
                }
                EventKind::Exit => {
                    if let Some((i, start)) = open.pop() {
                        spans[i].wall_ns = e.ts_ns.saturating_sub(start);
                    }
                    continue;
                }
                EventKind::Set(v) => (v, |_, new| new),
                EventKind::Max(v) => (v, u64::max),
                EventKind::Add(v) => (v, u64::saturating_add),
                EventKind::Begin | EventKind::End | EventKind::Instant | EventKind::Counter(_) => {
                    continue
                }
            };
            let metrics = match open.last() {
                Some(&(i, _)) => &mut spans[i].metrics,
                None => &mut root,
            };
            match metrics.iter_mut().find(|(k, _)| *k == e.name) {
                Some(slot) => slot.1 = merge(slot.1, value),
                None => metrics.push((e.name, value)),
            }
        }
        PipelineReport {
            spans,
            metrics: root.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// The first span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Shortcut: metric `key` of the first span named `span`.
    pub fn span_metric(&self, span: &str, key: &str) -> Option<u64> {
        self.span(span).and_then(|s| s.metric(key))
    }

    /// Total wall time of top-level (depth 0) spans, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(SpanRecord::wall_ms)
            .sum()
    }

    /// The JSON encoding (schema [`SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("depth", Json::U64(s.depth as u64)),
                    ("wall_ms", Json::F64(s.wall_ms())),
                    (
                        "metrics",
                        Json::Object(
                            s.metrics
                                .iter()
                                .map(|&(k, v)| (k.to_string(), Json::U64(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("spans", Json::Array(spans)),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The pretty-printed JSON encoding.
    pub fn to_json_string(&self) -> String {
        self.to_json().encode_pretty()
    }

    /// Renders the report as an aligned human-readable table: one row per
    /// phase (indented by nesting depth), wall time, and metrics.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String, String)> = Vec::new();
        for s in &self.spans {
            let name = format!("{:indent$}{}", "", s.name, indent = s.depth as usize * 2);
            let wall = format!("{:.3}", s.wall_ms());
            let metrics = s
                .metrics
                .iter()
                .map(|&(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            rows.push((name, wall, metrics));
        }
        let name_w = rows
            .iter()
            .map(|(n, _, _)| n.len())
            .chain(["phase".len()])
            .max()
            .unwrap_or(5);
        let wall_w = rows
            .iter()
            .map(|(_, w, _)| w.len())
            .chain(["wall_ms".len()])
            .max()
            .unwrap_or(7);
        let mut out = String::new();
        let _ = writeln!(out, "{:<name_w$}  {:>wall_w$}  metrics", "phase", "wall_ms");
        let _ = writeln!(
            out,
            "{}  {}  {}",
            "-".repeat(name_w),
            "-".repeat(wall_w),
            "-".repeat(7)
        );
        for (name, wall, metrics) in &rows {
            let _ = writeln!(out, "{name:<name_w$}  {wall:>wall_w$}  {metrics}");
        }
        if !self.metrics.is_empty() {
            let extra = self
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "{:<name_w$}  {:>wall_w$}  {extra}", "(run)", "");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineReport {
        PipelineReport {
            spans: vec![
                SpanRecord {
                    name: "outer".into(),
                    depth: 0,
                    wall_ns: 2_500_000,
                    metrics: vec![("states", 12)],
                },
                SpanRecord {
                    name: "inner".into(),
                    depth: 1,
                    wall_ns: 1_000_000,
                    metrics: vec![],
                },
            ],
            metrics: vec![("verdict_ok".to_string(), 1)],
        }
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json().encode();
        assert!(j.contains(r#""schema":"xmltc.pipeline-report/1""#));
        assert!(j.contains(r#""name":"outer""#));
        assert!(j.contains(r#""states":12"#));
        assert!(j.contains(r#""verdict_ok":1"#));
        assert!(j.contains(r#""wall_ms":2.5"#));
    }

    #[test]
    fn table_contains_rows() {
        let t = sample().render_table();
        assert!(t.contains("outer"));
        assert!(t.contains("  inner"));
        assert!(t.contains("states=12"));
        assert!(t.contains("verdict_ok=1"));
    }

    #[test]
    fn lookups() {
        let r = sample();
        assert_eq!(r.span_metric("outer", "states"), Some(12));
        assert!(r.span("missing").is_none());
        assert!((r.total_ms() - 2.5).abs() < 1e-9);
    }
}
