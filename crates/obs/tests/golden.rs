//! Golden-file tests: byte-for-byte pins on the two machine-readable
//! encodings downstream tools consume.
//!
//! * The [`PipelineReport`] JSON (`xmltc typecheck --json`) — key order
//!   and schema string are part of the contract; external scripts address
//!   fields by dotted path.
//! * The Chrome trace-event export (`--trace-out`) — `chrome://tracing`
//!   and Perfetto are the consumers; phase letters, metadata records, and
//!   the `traceEvents`/`displayTimeUnit` envelope must not drift.
//!
//! Both fixtures are hand-built (no timers), so the encodings are fully
//! deterministic and compared against inline golden strings. If one of
//! these tests fails, either restore the old shape or knowingly bump the
//! schema (`xmltc.pipeline-report/N`) and update the golden text.

use xmltc_obs::chrome::chrome_trace;
use xmltc_obs::journal::{Journal, ThreadEvents};
use xmltc_obs::{
    DocumentRecord, Event, EventKind, ExplainReport, PipelineReport, ReplayRecord, SpanRecord,
    SpecAutomatonRecord, TraceStepRecord, TransformRecord, ViolationRecord,
};

#[test]
fn pipeline_report_json_is_pinned() {
    let report = PipelineReport {
        spans: vec![
            SpanRecord {
                name: "typecheck".into(),
                depth: 0,
                wall_ns: 2_500_000,
                metrics: vec![("verdict.ok", 1)],
            },
            SpanRecord {
                name: "typecheck.walk".into(),
                depth: 1,
                wall_ns: 1_250_000,
                metrics: vec![("walk.pairs", 13), ("walk.memo_hits", 4)],
            },
        ],
        metrics: vec![("peak_rss_kb".into(), 2048)],
    };
    let golden = concat!(
        r#"{"schema":"xmltc.pipeline-report/1","#,
        r#""spans":["#,
        r#"{"name":"typecheck","depth":0,"wall_ms":2.5,"metrics":{"verdict.ok":1}},"#,
        r#"{"name":"typecheck.walk","depth":1,"wall_ms":1.25,"metrics":{"walk.pairs":13,"walk.memo_hits":4}}"#,
        r#"],"#,
        r#""metrics":{"peak_rss_kb":2048}}"#,
    );
    assert_eq!(report.to_json().encode(), golden);
    // The pretty form is what the CLI prints; it must parse back to the
    // same document the compact form does.
    assert_eq!(
        xmltc_obs::Json::parse(&report.to_json_string()).unwrap(),
        xmltc_obs::Json::parse(golden).unwrap()
    );
}

/// The explain-report JSON (`xmltc explain --json`, `--explain-out`) is
/// the third pinned encoding: schema string, key order, and the omission
/// of unpopulated sections are contract. The fixture exercises every
/// section once.
#[test]
fn explain_report_json_is_pinned() {
    let report = ExplainReport {
        verdict: "counterexample".into(),
        route: "walk".into(),
        input: Some(DocumentRecord {
            term: "root(a)".into(),
            xml: Some("<root><a/></root>".into()),
        }),
        transform: Some(TransformRecord {
            k: 1,
            states: 11,
            total_steps: 2,
            truncated: false,
            steps: vec![TraceStepRecord {
                state: "dispatch".into(),
                level: 1,
                input_symbol: "root".into(),
                pebbles: vec!["/".into()],
                action: "move -> el0 @ /".into(),
                out_path: "/".into(),
            }],
        }),
        output: Some(DocumentRecord {
            term: "result(b)".into(),
            xml: None,
        }),
        violation: Some(ViolationRecord {
            kind: "invalid-content".into(),
            path: "/".into(),
            element: "result".into(),
            word: vec!["b".into()],
            production: "result := (b.b)*".into(),
            failed_at: 1,
            dfa_states: vec![0, 1],
            expected: vec!["b".into()],
        }),
        spec_automaton: Some(SpecAutomatonRecord {
            states: 7,
            rejection_path: "/".into(),
            reachable_there: 0,
        }),
        replay: Some(ReplayRecord {
            input_in_type: true,
            output_produced: true,
            output_rejected: true,
            steps: 2,
        }),
    };
    let golden = concat!(
        r#"{"schema":"xmltc.explain/2","verdict":"counterexample","route":"walk","#,
        r#""input":{"term":"root(a)","xml":"<root><a/></root>"},"#,
        r#""transform":{"k":1,"states":11,"total_steps":2,"truncated":false,"steps":["#,
        r#"{"state":"dispatch","level":1,"input_symbol":"root","pebbles":["/"],"#,
        r#""action":"move -> el0 @ /","out_path":"/"}]},"#,
        r#""output":{"term":"result(b)"},"#,
        r#""violation":{"kind":"invalid-content","path":"/","element":"result","word":["b"],"#,
        r#""production":"result := (b.b)*","failed_at":1,"dfa_states":[0,1],"expected":["b"]},"#,
        r#""spec_automaton":{"states":7,"rejection_path":"/","reachable_there":0},"#,
        r#""replay":{"input_in_type":true,"output_produced":true,"output_rejected":true,"#,
        r#""steps":2,"verified":true}}"#,
    );
    assert_eq!(report.to_json().encode(), golden);
    // The pretty form (what the CLI writes) parses back identically.
    assert_eq!(
        xmltc_obs::Json::parse(&report.to_json_string()).unwrap(),
        xmltc_obs::Json::parse(golden).unwrap()
    );
    // A passing report is just the envelope.
    assert_eq!(
        ExplainReport::ok("mso").to_json().encode(),
        r#"{"schema":"xmltc.explain/2","verdict":"ok","route":"mso"}"#
    );
}

#[test]
fn chrome_trace_json_is_pinned() {
    let ev = |name: &'static str, ts_ns: u64, kind| Event { name, ts_ns, kind };
    let journal = Journal {
        threads: vec![
            ThreadEvents {
                tid: 0,
                name: "main".into(),
                events: vec![
                    ev("typecheck", 1_000, EventKind::Begin),
                    ev("walk.round", 2_000, EventKind::Instant),
                    ev("walk.frontier_jobs", 2_500, EventKind::Counter(12)),
                    ev("typecheck", 9_000, EventKind::End),
                ],
            },
            // Two worker crews reusing one thread name: they must land on
            // a single display track (tid 1), interleaved by timestamp.
            ThreadEvents {
                tid: 1,
                name: "walk-worker-0".into(),
                events: vec![
                    ev("walk.job", 3_000, EventKind::Begin),
                    ev("walk.job", 4_000, EventKind::End),
                ],
            },
            ThreadEvents {
                tid: 2,
                name: "walk-worker-0".into(),
                events: vec![ev("walk.job", 5_000, EventKind::Begin)],
            },
        ],
    };
    let golden = concat!(
        r#"{"traceEvents":["#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"walk-worker-0"}},"#,
        r#"{"name":"typecheck","cat":"xmltc","ph":"B","pid":1,"tid":0,"ts":1},"#,
        r#"{"name":"walk.round","cat":"xmltc","ph":"i","pid":1,"tid":0,"ts":2,"s":"t"},"#,
        r#"{"name":"walk.frontier_jobs","cat":"xmltc","ph":"C","pid":1,"tid":0,"ts":2.5,"args":{"value":12}},"#,
        r#"{"name":"walk.job","cat":"xmltc","ph":"B","pid":1,"tid":1,"ts":3},"#,
        r#"{"name":"walk.job","cat":"xmltc","ph":"E","pid":1,"tid":1,"ts":4},"#,
        r#"{"name":"walk.job","cat":"xmltc","ph":"B","pid":1,"tid":1,"ts":5},"#,
        r#"{"name":"typecheck","cat":"xmltc","ph":"E","pid":1,"tid":0,"ts":9}"#,
        r#"],"displayTimeUnit":"ms"}"#,
    );
    assert_eq!(chrome_trace(&journal).encode(), golden);
}
