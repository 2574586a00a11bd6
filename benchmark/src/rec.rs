//! The run recorder: one timeline per process, written as JSON lines on
//! stdout for `run.py` to fold into metrics.
//!
//! Record kinds (`"k"`):
//! - `ref`: one reference sample (`t0`, `t1` in seconds since the
//!   recorder's epoch, `ms` the sample value);
//! - `setup`: one set-up episode (`t0`, `t1`, `counted`);
//! - `op`: one operation (see [`Op`]);
//! - `span`: one trace span, written at the end of a traced run;
//! - `meta` / `end`: run facts before and after the operations.
//!
//! Every line is flushed as it is written, so when a document aborts the
//! process the records of all finished operations survive.

use crate::refk;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Take a reference sample once this much time passed since the last one.
const REF_EVERY_S: f64 = 0.15;
/// Take one right after any operation at least this long, so a long
/// operation has samples on both sides.
const LONG_OP_S: f64 = 0.05;

/// One trace span: a layer call inside one operation.
struct Span {
    op: u64,
    name: &'static str,
    t0: f64,
    t1: f64,
    parent: Option<usize>,
}

/// The outcome of one operation, as the record and the checks see it.
#[derive(Default)]
pub struct Op {
    /// Cost stratum, e.g. `q2-m7` or `corpus`.
    pub cls: String,
    /// Stable name of the input, printed on a mismatch.
    pub name: String,
    /// Untimed window of the operation (seconds since the epoch).
    pub t0: f64,
    /// End of the timed window.
    pub t1: f64,
    /// The traced call sequence's window, in a traced run.
    pub traced: Option<(f64, f64)>,
    /// The operation completed with a correct result (decided or not).
    pub ok: bool,
    /// The result was a decided, correct answer.
    pub decided: bool,
    /// Why the operation failed or was left undecided.
    pub note: Option<String>,
    /// Digest of the result bytes, for the determinism ledger.
    pub digest: u64,
    /// Deterministic counters and per-operation values.
    pub ctr: Vec<(&'static str, f64)>,
    /// Peak resident set during the operation, in KiB.
    pub rss_kb: u64,
}

/// The process-wide recorder.
pub struct Rec {
    epoch: Instant,
    last_ref: f64,
    /// Seconds spent inside reference samples.
    pub ref_s: f64,
    spans: Vec<Span>,
    /// Spans already written out; ids continue after them.
    flushed: usize,
    open: Vec<usize>,
    op: u64,
}

impl Rec {
    pub fn new() -> Rec {
        Rec {
            epoch: Instant::now(),
            last_ref: f64::NEG_INFINITY,
            ref_s: 0.0,
            spans: Vec::new(),
            flushed: 0,
            open: Vec::new(),
            op: 0,
        }
    }

    /// Seconds since the recorder's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Writes one record line and flushes it.
    pub fn line(&self, s: &str) {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{s}");
        let _ = out.flush();
    }

    /// Takes one reference sample.
    pub fn reference(&mut self) {
        let t0 = self.now();
        let ms = refk::sample_ms();
        let t1 = self.now();
        self.last_ref = t1;
        self.ref_s += t1 - t0;
        self.line(&format!(
            r#"{{"k":"ref","t0":{t0:.6},"t1":{t1:.6},"ms":{ms:.6}}}"#
        ));
    }

    /// Called between operations: samples the reference when one is due.
    pub fn pace(&mut self, last_op_s: f64) {
        if last_op_s >= LONG_OP_S || self.now() - self.last_ref >= REF_EVERY_S {
            self.reference();
        }
    }

    /// Records one set-up episode; only `counted` ones enter `setup_s`.
    pub fn setup(&self, t0: f64, t1: f64, counted: bool) {
        self.line(&format!(
            r#"{{"k":"setup","t0":{t0:.9},"t1":{t1:.9},"counted":{counted}}}"#
        ));
    }

    /// Writes one operation record.
    pub fn op(&self, i: u64, op: &Op) {
        let mut s = format!(
            r#"{{"k":"op","i":{i},"cls":"{}","name":"{}","t0":{:.9},"t1":{:.9},"ok":{},"decided":{},"digest":"{:016x}","rss_kb":{}"#,
            esc(&op.cls),
            esc(&op.name),
            op.t0,
            op.t1,
            op.ok,
            op.decided,
            op.digest,
            op.rss_kb
        );
        if let Some((a, b)) = op.traced {
            let _ = write!(s, r#","tt0":{a:.9},"tt1":{b:.9}"#);
        }
        if let Some(n) = &op.note {
            let _ = write!(s, r#","note":"{}""#, esc(n));
        }
        s.push_str(r#","ctr":{"#);
        for (k, (name, v)) in op.ctr.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, r#""{name}":{v}"#);
        }
        s.push_str("}}");
        self.line(&s);
    }

    /// Starts the spans of operation `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.open.clear();
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let t0 = self.now();
        self.spans.push(Span {
            op: self.op,
            name,
            t0,
            t1: t0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without open span");
        self.spans[id].t1 = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let v = f();
        self.close();
        v
    }

    /// Adds a span whose interval was measured elsewhere (a client round
    /// trip, and the server's own handling time inside it); returns its id
    /// for use as a parent.
    pub fn span_at(
        &mut self,
        name: &'static str,
        t0: f64,
        t1: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            op: self.op,
            name,
            t0,
            t1,
            parent,
        });
        self.spans.len() - 1
    }

    /// Writes out the recorded spans: at the end of a run, or after each
    /// operation where an operation may abort the process.
    pub fn flush_spans(&mut self) {
        let base = self.flushed;
        self.flushed += self.spans.len();
        for (k, s) in self.spans.iter().enumerate() {
            let id = base + k;
            let parent = s.parent.map_or(-1, |p| (base + p) as i64);
            self.line(&format!(
                r#"{{"k":"span","id":{id},"op":{},"name":"{}","t0":{:.9},"t1":{:.9},"parent":{parent}}}"#,
                s.op, s.name, s.t0, s.t1
            ));
        }
        self.spans.clear();
    }
}

/// JSON string escaping for record fields.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// FNV-1a over a byte string: result and input digests.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
