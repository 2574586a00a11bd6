//! The event journal: the one recorder behind reports, traces and logs.
//!
//! Every instrumentation call appends one [`Event`] to the calling
//! thread's buffer, stamped from one process-wide clock:
//!
//! * [`span`], [`record`], [`record_max`] and [`add`] emit *phase* events
//!   (enter/exit, set, max, add) while the thread has a capture open or a
//!   session is on;
//! * [`begin`], [`end`], [`instant`] and [`counter`] emit *timeline*
//!   events (`walk.job`, `walk.round`, `lazy.*`, `cache.*`) only while a
//!   session is on; hot loops gate their work on [`enabled`].
//!
//! Three consumers read those events:
//!
//! * a **capture** ([`with_report`], behind `--stats`, `--json` and every
//!   `serve` response) folds the phase events its closure emitted into a
//!   [`PipelineReport`];
//! * a **session** ([`enable`] … [`take`], behind `--trace-out`) keeps
//!   every event and hands the per-thread buffers to the Chrome exporter
//!   ([`crate::chrome`]);
//! * **`XMLTC_LOG`** makes [`span`] print enter/exit lines to stderr,
//!   indented by the thread's own count of open logged spans.
//!
//! Outside a capture and a session, a metric call is one relaxed atomic
//! load plus one thread-local read, and [`span`] adds one cached
//! environment check; nothing is timestamped or buffered.
//!
//! # Buffer lifetime
//!
//! The outermost capture truncates the events it folded unless a session
//! is on: nothing else would read them, and a `serve` connection or a
//! benchmark loop opens captures without end. A nested capture leaves its
//! events to the enclosing one, so each capture reports everything emitted
//! inside it. While a session is on, buffers only grow. A thread hands its
//! buffer to a shared sink when it exits (a `serve` connection thread,
//! say), and [`take`] collects the calling thread's buffer plus the sink.
//! Threads still running at [`take`] (none in this workspace: every
//! spawned thread is joined first) hand over into the next session.
//!
//! # Log lines
//!
//! Every `XMLTC_LOG` line carries a level and a timestamp in seconds on
//! the recorder's clock, e.g. `[xmltc +0.001234s info] -> typecheck`.
//! Setting `XMLTC_LOG_FORMAT=json` switches stderr to one JSON object per
//! line (encoded with [`Json`]), machine-readable by the same parser that
//! reads the pipeline reports.

use crate::event::{Event, EventKind};
use crate::json::Json;
use crate::report::PipelineReport;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<ThreadEvents>> = Mutex::new(Vec::new());

/// All events one thread recorded, in emission order.
#[derive(Clone, Debug)]
pub struct ThreadEvents {
    /// Dense journal-assigned thread id (registration order).
    pub tid: u64,
    /// The OS thread's name at registration time (empty when unnamed).
    /// Threads sharing a name merge into one display track on export.
    pub name: String,
    /// The thread's events, in emission order.
    pub events: Vec<Event>,
}

/// A completed journal session: every per-thread event buffer.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// Per-thread buffers, in flush order.
    pub threads: Vec<ThreadEvents>,
}

impl Journal {
    /// Total events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|t| t.events.is_empty())
    }
}

/// The calling thread's event buffer. Flushes itself into the global sink
/// when the thread exits (TLS destructor).
struct LocalBuf {
    tid: u64,
    name: String,
    events: Vec<Event>,
}

impl LocalBuf {
    fn register() -> LocalBuf {
        LocalBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            name: std::thread::current().name().unwrap_or("").to_string(),
            events: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let handed = ThreadEvents {
            tid: self.tid,
            name: self.name.clone(),
            events: std::mem::take(&mut self.events),
        };
        if let Ok(mut sink) = SINK.lock() {
            sink.push(handed);
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
    /// Captures open on this thread.
    static CAPTURES: Cell<u32> = const { Cell::new(0) };
    /// Logged spans open on this thread: the `XMLTC_LOG` indent.
    static LOG_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// True while a session is on. One relaxed atomic load — cheap enough for
/// hot loops to gate their timeline events on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a session: every event is kept for [`take`].
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Ends the session and returns everything it kept: the calling thread's
/// buffer plus every buffer flushed by exited threads, by thread id.
pub fn take() -> Journal {
    ENABLED.store(false, Ordering::Relaxed);
    LOCAL.with(|l| {
        if let Some(buf) = l.borrow_mut().as_mut() {
            buf.flush();
        }
    });
    let mut threads = match SINK.lock() {
        Ok(mut sink) => std::mem::take(&mut *sink),
        Err(_) => Vec::new(),
    };
    threads.sort_by_key(|t| t.tid);
    Journal { threads }
}

/// Nanoseconds on the recorder's clock: one process-wide epoch, fixed by
/// the first event, so cross-thread ordering is meaningful and time stays
/// monotone across sessions.
fn now_ns() -> u64 {
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    elapsed.as_nanos().min(u64::MAX as u128) as u64
}

fn push(name: &'static str, ts_ns: u64, kind: EventKind) {
    LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        let buf = slot.get_or_insert_with(LocalBuf::register);
        buf.events.push(Event { name, ts_ns, kind });
    });
}

/// True while phase events are recorded on this thread.
#[inline]
fn recording() -> bool {
    enabled() || CAPTURES.with(Cell::get) > 0
}

#[inline]
fn phase(name: &'static str, kind: EventKind) {
    if recording() {
        push(name, now_ns(), kind);
    }
}

#[inline]
fn timeline(name: &'static str, kind: EventKind) {
    if enabled() {
        push(name, now_ns(), kind);
    }
}

/// Records a timeline span-begin event (paired with [`end`] by name, per
/// thread).
#[inline]
pub fn begin(name: &'static str) {
    timeline(name, EventKind::Begin);
}

/// Records a timeline span-end event.
#[inline]
pub fn end(name: &'static str) {
    timeline(name, EventKind::End);
}

/// Records a point-in-time marker.
#[inline]
pub fn instant(name: &'static str) {
    timeline(name, EventKind::Instant);
}

/// Records an absolute timeline counter sample.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    timeline(name, EventKind::Counter(value));
}

/// Sets metric `name` on the innermost open span (last write wins).
#[inline]
pub fn record(name: &'static str, value: u64) {
    phase(name, EventKind::Set(value));
}

/// Raises metric `name` to at least `value` (a high-water gauge). A trace
/// keeps every raw sample, dips included.
#[inline]
pub fn record_max(name: &'static str, value: u64) {
    phase(name, EventKind::Max(value));
}

/// Adds `delta` to counter `name`. A trace shows the calling thread's
/// running total.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    phase(name, EventKind::Add(delta));
}

/// An RAII guard for one pipeline phase. Created by [`span`]; records the
/// phase's exit when dropped.
pub struct Span {
    name: &'static str,
    /// The enter was recorded, so the exit is recorded too.
    recorded: bool,
    /// When the enter line was logged (`XMLTC_LOG`).
    logged_at: Option<u64>,
}

/// Opens a phase span. The returned guard closes the span when dropped.
/// Nesting is reflected in the report's `depth` field.
#[inline]
pub fn span(name: &'static str) -> Span {
    let recorded = recording();
    let logged = log_mode() != LogMode::Off;
    if !recorded && !logged {
        return Span {
            name,
            recorded,
            logged_at: None,
        };
    }
    open_span(name, recorded, logged)
}

#[inline(never)]
fn open_span(name: &'static str, recorded: bool, logged: bool) -> Span {
    let ts = now_ns();
    if recorded {
        push(name, ts, EventKind::Enter);
    }
    let logged_at = logged.then(|| {
        let depth = LOG_DEPTH.with(|d| d.replace(d.get() + 1));
        log_span_line(name, depth, ts, None);
        ts
    });
    Span {
        name,
        recorded,
        logged_at,
    }
}

impl Span {
    #[inline(never)]
    fn close(&self) {
        let ts = now_ns();
        if self.recorded {
            push(self.name, ts, EventKind::Exit);
        }
        if let Some(start) = self.logged_at {
            let depth = LOG_DEPTH.with(|d| {
                d.set(d.get().saturating_sub(1));
                d.get()
            });
            let wall_ms = ts.saturating_sub(start) as f64 / 1e6;
            log_span_line(self.name, depth, ts, Some(wall_ms));
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.recorded || self.logged_at.is_some() {
            self.close();
        }
    }
}

/// Runs `f` inside a capture, returning its result and the
/// [`PipelineReport`] folded from the phase events it emitted on this
/// thread. A nested capture reports its own events; the enclosing one
/// reports them too.
pub fn with_report<R>(f: impl FnOnce() -> R) -> (R, PipelineReport) {
    let capture = Capture::open();
    let result = f();
    (result, capture.report())
}

/// An open capture. Dropping the outermost one without a session, also
/// on unwind, truncates the buffer back to where the capture began.
struct Capture {
    /// The buffer length at open: the capture's first event.
    mark: usize,
}

impl Capture {
    fn open() -> Capture {
        CAPTURES.with(|c| c.set(c.get() + 1));
        let mark = LOCAL.with(|l| l.borrow().as_ref().map_or(0, |b| b.events.len()));
        Capture { mark }
    }

    fn report(&self) -> PipelineReport {
        LOCAL.with(|l| {
            let slot = l.borrow();
            let events = slot.as_ref().and_then(|b| b.events.get(self.mark..));
            events.map(PipelineReport::fold).unwrap_or_default()
        })
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        let open = CAPTURES.with(|c| {
            c.set(c.get() - 1);
            c.get()
        });
        if open == 0 && !enabled() {
            LOCAL.with(|l| {
                if let Some(buf) = l.borrow_mut().as_mut() {
                    buf.events.truncate(self.mark);
                }
            });
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LogMode {
    Off,
    Text,
    Json,
}

/// The `XMLTC_LOG` / `XMLTC_LOG_FORMAT` setting, read once per process.
#[inline]
fn log_mode() -> LogMode {
    static MODE: OnceLock<LogMode> = OnceLock::new();
    *MODE.get_or_init(|| {
        let on = std::env::var("XMLTC_LOG").is_ok_and(|v| !v.is_empty() && v != "0" && v != "off");
        if !on {
            LogMode::Off
        } else if std::env::var("XMLTC_LOG_FORMAT").as_deref() == Ok("json") {
            LogMode::Json
        } else {
            LogMode::Text
        }
    })
}

/// Emits one span enter line, or with its wall time an exit line, to
/// stderr in the active format.
fn log_span_line(name: &str, depth: usize, ts_ns: u64, wall_ms: Option<f64>) {
    let ts = ts_ns as f64 / 1e9;
    let (event, arrow) = match wall_ms {
        None => ("enter", "->"),
        Some(_) => ("exit", "<-"),
    };
    match log_mode() {
        LogMode::Off => {}
        LogMode::Text => {
            let tail = match wall_ms {
                Some(ms) => format!(" ({ms:.3} ms)"),
                None => String::new(),
            };
            eprintln!(
                "[xmltc +{ts:.6}s info] {:indent$}{arrow} {name}{tail}",
                "",
                indent = depth * 2
            );
        }
        LogMode::Json => {
            let mut fields = vec![
                ("ts", Json::F64(ts)),
                ("level", Json::Str("info".into())),
                ("event", Json::Str(event.into())),
                ("span", Json::Str(name.into())),
                ("depth", Json::U64(depth as u64)),
            ];
            if let Some(ms) = wall_ms {
                fields.push(("wall_ms", Json::F64(ms)));
            }
            eprintln!("{}", Json::obj(fields).encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Sessions are process-global and the harness runs tests on sibling
    /// threads, so every test here that starts a session, or needs none
    /// running, holds this lock.
    fn session_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn buffered() -> usize {
        LOCAL.with(|l| l.borrow().as_ref().map_or(0, |b| b.events.len()))
    }

    #[test]
    fn calls_outside_a_capture_record_nothing() {
        let _lock = session_lock();
        let _s = span("nothing");
        record("x", 1);
        add("x", 1);
        record_max("x", 1);
        counter("x", 1);
        assert_eq!(buffered(), 0);
    }

    #[test]
    fn collects_nested_spans_and_metrics() {
        let ((), report) = with_report(|| {
            record("outside", 7);
            let _outer = span("outer");
            record("a", 1);
            {
                let _inner = span("inner");
                record("b", 2);
                record_max("b", 5);
                record_max("b", 3);
                add("c", 1);
                add("c", 2);
            }
            record("a", 10); // overwrite
        });
        assert_eq!(report.metrics, vec![("outside".to_string(), 7)]);
        assert_eq!(report.spans.len(), 2);
        let outer = &report.spans[0];
        assert_eq!((outer.name.as_str(), outer.depth), ("outer", 0));
        assert_eq!(outer.metric("a"), Some(10));
        let inner = &report.spans[1];
        assert_eq!((inner.name.as_str(), inner.depth), ("inner", 1));
        assert_eq!(inner.metric("b"), Some(5));
        assert_eq!(inner.metric("c"), Some(3));
        assert!(inner.wall_ns <= outer.wall_ns);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let ((), outer_report) = with_report(|| {
            record("outer", 1);
            let ((), inner_report) = with_report(|| {
                record("inner", 2);
            });
            assert_eq!(inner_report.metrics, vec![("inner".to_string(), 2)]);
            assert!(recording());
            record("outer2", 3);
        });
        assert_eq!(CAPTURES.with(Cell::get), 0);
        // The enclosing capture reports its nested capture's events too.
        let names: Vec<&str> = outer_report
            .metrics
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["outer", "inner", "outer2"]);
    }

    #[test]
    fn captures_without_a_session_leave_the_buffer_empty() {
        let _lock = session_lock();
        for i in 0..10_000u64 {
            let (v, report) = with_report(|| {
                let _s = span("capture.unit");
                add("capture.total", i);
                i
            });
            assert_eq!(report.span_metric("capture.unit", "capture.total"), Some(v));
        }
        assert_eq!(buffered(), 0);
    }

    #[test]
    fn a_capture_in_a_session_keeps_its_events_but_reports_no_timeline() {
        let _lock = session_lock();
        enable();
        let ((), report) = with_report(|| {
            let _s = span("ctest.phase");
            begin("ctest.job");
            instant("ctest.marker");
            counter("ctest.gauge", 4);
            end("ctest.job");
            record("ctest.metric", 1);
        });
        let j = take();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].metrics, vec![("ctest.metric", 1)]);
        assert!(report.metrics.is_empty());
        let kept: Vec<EventKind> = j
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.name.starts_with("ctest."))
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kept,
            [
                EventKind::Enter,
                EventKind::Begin,
                EventKind::Instant,
                EventKind::Counter(4),
                EventKind::End,
                EventKind::Set(1),
                EventKind::Exit,
            ]
        );
    }

    #[test]
    fn records_across_threads_and_disables() {
        let _lock = session_lock();
        begin("jtest.ignored"); // no session: must be safe and unrecorded
        enable();
        assert!(enabled());
        begin("jtest.phase");
        instant("jtest.marker");
        counter("jtest.gauge", 7);
        add("jtest.total", 2);
        add("jtest.total", 3);
        end("jtest.phase");
        std::thread::Builder::new()
            .name("jtest-helper".into())
            .spawn(|| {
                let _s = span("jtest.worker");
            })
            .unwrap()
            .join()
            .unwrap();
        let j = take();
        assert!(!enabled());
        let me = j
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "jtest.phase"))
            .expect("calling thread buffer");
        let kinds: Vec<_> = me.events.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("jtest.phase", EventKind::Begin),
                ("jtest.marker", EventKind::Instant),
                ("jtest.gauge", EventKind::Counter(7)),
                ("jtest.total", EventKind::Add(2)),
                ("jtest.total", EventKind::Add(3)),
                ("jtest.phase", EventKind::End),
            ]
        );
        // Timestamps are monotone within a thread.
        for w in me.events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
        let helper = j
            .threads
            .iter()
            .find(|t| t.name == "jtest-helper")
            .expect("worker buffer flushed at exit");
        assert_eq!(helper.events.len(), 2);

        // After take(), emission is off again: nothing new accumulates.
        begin("jtest.late");
        assert_eq!(buffered(), 0);
    }
}
