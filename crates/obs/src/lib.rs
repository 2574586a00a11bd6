//! # xmltc-obs
//!
//! Observability for the `xmltc` typechecking pipeline.
//!
//! The paper's decision procedure (Theorem 4.4) chains constructions with
//! non-elementary worst-case blowup: the Proposition 4.6 product, the MSO
//! compilation of Theorem 4.7 with its repeated subset constructions, and
//! the final emptiness check. This crate makes those state-space costs
//! visible without making any core crate heavier:
//!
//! Everything is recorded once, by the event [`journal`]: each call
//! appends one timestamped [`Event`] to the calling thread's buffer, and
//! reports, traces and logs are all read from those events.
//!
//! * **Phase-scoped spans** ([`span`]) — RAII guards marking a phase's
//!   enter and exit, nested like a call tree. When `XMLTC_LOG` is set in
//!   the environment, span enter/exit lines are also printed to stderr.
//! * **Counters and gauges** ([`add`], [`record`], [`record_max`]) — state
//!   counts, transition counts, peak subset-construction frontiers, trim
//!   ratios — attached to the innermost open span.
//! * **[`PipelineReport`]** — the serializable per-run report that
//!   [`with_report`] folds from the events its closure emitted, rendered
//!   as a human table ([`PipelineReport::render_table`]) or as JSON
//!   ([`PipelineReport::to_json_string`]) with a stable schema
//!   (`xmltc.pipeline-report/1`).
//! * **Timelines** — a journal session keeps every event, including the
//!   hot loops' own timeline events, and exports them in the Chrome
//!   trace-event format ([`chrome`]) for `chrome://tracing` / Perfetto
//!   (`xmltc ... --trace-out`).
//! * **A minimal JSON encoder and parser** ([`json`]) — the workspace is
//!   built offline and dependency-free, so serialization is hand-rolled
//!   here and shared by the CLI (`xmltc typecheck --json`) and `xmltc
//!   serve`; the parser also reads the benchmark's result files for
//!   [`diff`].
//! * **A benchmark regression differ** ([`diff`]) — compares two sets of
//!   `benchmark/run.py` result files against the bounds `BENCHMARK.json`
//!   sets (`xmltc bench-diff`).
//!
//! Instrumentation is nearly free when nothing records: outside a capture
//! and a session every call is one relaxed atomic load plus one
//! thread-local read (and, for a span, one cached environment check), so
//! the pipeline's default behaviour and performance are unchanged.
//!
//! ```
//! let (answer, report) = xmltc_obs::with_report(|| {
//!     let _s = xmltc_obs::span("phase.one");
//!     xmltc_obs::record("states", 42);
//!     6 * 7
//! });
//! assert_eq!(answer, 42);
//! assert_eq!(report.spans[0].name, "phase.one");
//! assert_eq!(report.spans[0].metric("states"), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod diff;
pub mod event;
pub mod explain;
pub mod journal;
pub mod json;
pub mod report;

pub use event::{Event, EventKind};
pub use explain::{
    DocumentRecord, ExplainReport, ReplayRecord, SpecAutomatonRecord, TraceStepRecord,
    TransformRecord, ViolationRecord,
};
pub use journal::{add, record, record_max, span, with_report, Journal, Span, ThreadEvents};
pub use json::{Json, JsonParseError, ToJson};
pub use report::{PipelineReport, SpanRecord};
