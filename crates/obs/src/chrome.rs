//! Chrome trace-event export for the event [`Journal`].
//!
//! Serializes a journal into the Chrome trace-event JSON format (the
//! "JSON Object Format": `{"traceEvents": [...]}`), loadable in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Span
//! begin/end events become `B`/`E` duration events, instants become `i`,
//! and counter samples become `C` counter tracks.
//!
//! Display tracks follow thread *names*, not raw thread ids: successive
//! short-lived threads that reuse a name merge into one stable track,
//! which is what a human wants to look at. Unnamed threads keep a track
//! per journal tid.

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
    // internally ordered, so collect (ts, buffer-order) sortable rows.
    let mut rows: Vec<(u64, usize, &'static str, crate::event::EventKind, u64)> = Vec::new();
    for (bi, t) in journal.threads.iter().enumerate() {
        let key = if t.name.is_empty() {
            format!("thread-{}", t.tid)
        } else {
            t.name.clone()
        };
        let tid = track_of[&key];
        for e in &t.events {
            rows.push((e.ts_ns, bi, e.name, e.kind, tid));
        }
    }
    rows.sort_by_key(|&(ts, bi, ..)| (ts, bi));

    use crate::event::EventKind;
    for (ts_ns, _, name, kind, tid) in rows {
        let ts = Json::F64(ts_ns as f64 / 1e3); // microseconds
        let base = |ph: &str| {
            vec![
                ("name", Json::Str(name.to_string())),
                ("cat", Json::Str("xmltc".into())),
                ("ph", Json::Str(ph.into())),
                ("pid", Json::U64(PID)),
                ("tid", Json::U64(tid)),
                ("ts", ts.clone()),
            ]
        };
        events.push(match kind {
            EventKind::Begin => Json::obj(base("B")),
            EventKind::End => Json::obj(base("E")),
            EventKind::Instant => {
                let mut f = base("i");
                f.push(("s", Json::Str("t".into())));
                Json::obj(f)
            }
            EventKind::Counter(v) => {
                let mut f = base("C");
                f.push(("args", Json::obj(vec![("value", Json::U64(v))])));
                Json::obj(f)
            }
        });
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
