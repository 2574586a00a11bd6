//! Chrome trace-event export for the event [`Journal`].
//!
//! Serializes a journal into the Chrome trace-event JSON format (the
//! "JSON Object Format": `{"traceEvents": [...]}`), loadable in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Span
//! enter/exit and timeline begin/end events become `B`/`E` duration
//! events, instants become `i`, and metric and counter samples become `C`
//! counter tracks; an `add` is drawn as its thread's running total.
//!
//! Display tracks follow thread *names*, not raw thread ids: successive
//! short-lived threads that reuse a name merge into one stable track,
//! which is what a human wants to look at. Unnamed threads keep a track
//! per journal tid.

use crate::event::EventKind;
use crate::journal::Journal;
use crate::json::Json;
use std::collections::BTreeMap;

/// The process id used for all events (the journal covers one process).
const PID: u64 = 1;

/// Converts a journal into Chrome trace-event JSON.
pub fn chrome_trace(journal: &Journal) -> Json {
    // Assign one display tid per thread name (first-appearance order);
    // unnamed threads get a unique synthetic name from their journal tid.
    let mut track_of: BTreeMap<String, u64> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for t in &journal.threads {
        let key = if t.name.is_empty() {
            format!("thread-{}", t.tid)
        } else {
            t.name.clone()
        };
        if !track_of.contains_key(&key) {
            track_of.insert(key.clone(), order.len() as u64);
            order.push(key);
        }
    }

    let mut events: Vec<Json> = Vec::with_capacity(journal.total_events() + order.len());
    for (name, &tid) in order.iter().map(|n| (n, &track_of[n])) {
        events.push(Json::obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::U64(PID)),
            ("tid", Json::U64(tid)),
            ("args", Json::obj(vec![("name", Json::Str(name.clone()))])),
        ]));
    }

    // Merge buffers sharing a track, keeping timestamp order: buffers are
    // internally ordered, so a stable sort by timestamp keeps buffer order
    // among ties. A thread's `add` deltas become samples of its running
    // total.
    let mut totals: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
    let mut rows: Vec<(u64, &'static str, &'static str, Option<u64>, u64)> = Vec::new();
    for t in &journal.threads {
        let key = if t.name.is_empty() {
            format!("thread-{}", t.tid)
        } else {
            t.name.clone()
        };
        let tid = track_of[&key];
        for e in &t.events {
            let (ph, value) = match e.kind {
                EventKind::Begin | EventKind::Enter => ("B", None),
                EventKind::End | EventKind::Exit => ("E", None),
                EventKind::Instant => ("i", None),
                EventKind::Counter(v) | EventKind::Set(v) | EventKind::Max(v) => ("C", Some(v)),
                EventKind::Add(d) => {
                    let total = totals.entry((t.tid, e.name)).or_default();
                    *total = total.saturating_add(d);
                    ("C", Some(*total))
                }
            };
            rows.push((e.ts_ns, e.name, ph, value, tid));
        }
    }
    rows.sort_by_key(|&(ts, ..)| ts);

    for (ts_ns, name, ph, value, tid) in rows {
        let mut fields = vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str("xmltc".into())),
            ("ph", Json::Str(ph.into())),
            ("pid", Json::U64(PID)),
            ("tid", Json::U64(tid)),
            ("ts", Json::F64(ts_ns as f64 / 1e3)), // microseconds
        ];
        if ph == "i" {
            fields.push(("s", Json::Str("t".into())));
        }
        if let Some(v) = value {
            fields.push(("args", Json::obj(vec![("value", Json::U64(v))])));
        }
        events.push(Json::obj(fields));
    }

    Json::obj(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// [`chrome_trace`], pretty-printed.
pub fn chrome_trace_string(journal: &Journal) -> String {
    chrome_trace(journal).encode_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::journal::ThreadEvents;

    fn ev(name: &'static str, ts_ns: u64, kind: EventKind) -> Event {
        Event { name, ts_ns, kind }
    }

    fn sample_journal() -> Journal {
        Journal {
            threads: vec![
                ThreadEvents {
                    tid: 0,
                    name: "main".into(),
                    events: vec![
                        ev("typecheck", 1_000, EventKind::Begin),
                        ev("walk.frontier_jobs", 1_500, EventKind::Counter(12)),
                        ev("typecheck", 9_000, EventKind::End),
                    ],
                },
                ThreadEvents {
                    tid: 1,
                    name: "walk-worker-0".into(),
                    events: vec![
                        ev("walk.job", 2_000, EventKind::Begin),
                        ev("walk.job", 3_000, EventKind::End),
                    ],
                },
                // A second crew generation reusing the worker name: must
                // share the first crew's display track.
                ThreadEvents {
                    tid: 2,
                    name: "walk-worker-0".into(),
                    events: vec![ev("walk.ready", 4_000, EventKind::Instant)],
                },
            ],
        }
    }

    #[test]
    fn exports_tracks_and_event_phases() {
        let j = chrome_trace(&sample_journal());
        let s = j.encode();
        assert!(s.starts_with(r#"{"traceEvents":["#));
        assert!(s.contains(r#""displayTimeUnit":"ms""#));
        // One thread_name metadata record per distinct name — not per tid.
        assert_eq!(s.matches(r#""thread_name""#).count(), 2);
        assert!(s.contains(r#""args":{"name":"main"}"#));
        assert!(s.contains(r#""args":{"name":"walk-worker-0"}"#));
        // Phases: B/E pair, a counter with its value, and the instant.
        assert!(s.contains(r#""ph":"B""#));
        assert!(s.contains(r#""ph":"E""#));
        assert!(s.contains(r#""ph":"C""#));
        assert!(s.contains(r#""args":{"value":12}"#));
        assert!(s.contains(r#""ph":"i""#));
        // Timestamps are microseconds: 1_000 ns -> 1 µs.
        assert!(s.contains(r#""ts":1,"#) || s.contains(r#""ts":1}"#));
    }

    #[test]
    fn adds_become_per_thread_running_totals() {
        let journal = Journal {
            threads: vec![
                ThreadEvents {
                    tid: 0,
                    name: "main".into(),
                    events: vec![
                        ev("nta.trims", 1_000, EventKind::Add(2)),
                        ev("nta.trims", 2_000, EventKind::Add(3)),
                    ],
                },
                ThreadEvents {
                    tid: 1,
                    name: "xmltc-serve-1".into(),
                    events: vec![ev("nta.trims", 1_500, EventKind::Add(4))],
                },
            ],
        };
        let trace = chrome_trace(&journal);
        let Some(Json::Array(events)) = trace.at("traceEvents") else {
            panic!("traceEvents array")
        };
        let samples: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.at("name").and_then(Json::as_str) == Some("nta.trims"))
            .map(|e| {
                let tid = e.at("tid").and_then(Json::as_u64).unwrap();
                (tid, e.at("args.value").and_then(Json::as_u64).unwrap())
            })
            .collect();
        assert_eq!(samples, [(0, 2), (1, 4), (0, 5)]);
    }

    #[test]
    fn same_name_threads_share_a_track() {
        let j = chrome_trace(&sample_journal());
        let Json::Object(fields) = &j else {
            panic!("object")
        };
        let Json::Array(events) = &fields[0].1 else {
            panic!("array")
        };
        // Every walk-worker event (from either crew) carries the same tid.
        let worker_tids: Vec<String> = events
            .iter()
            .map(|e| e.encode())
            .filter(|s| s.contains("walk.job") || s.contains("walk.ready"))
            .collect();
        assert_eq!(worker_tids.len(), 3);
        assert!(worker_tids.iter().all(|s| s.contains(r#""tid":1"#)));
    }
}
