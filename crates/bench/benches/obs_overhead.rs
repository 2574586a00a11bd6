//! Overhead budget of the observability layer: what does instrumentation
//! cost when nobody is looking, inside a capture, and in a trace session?
//!
//! The contract (see DESIGN.md) is that with no capture and no session a
//! call costs one relaxed atomic load plus one thread-local read, so the
//! uninstrumented pipeline pays near-zero for carrying spans and
//! counters. This bench measures the span/record/add paths in three
//! regimes — fully off, inside a capture (`with_report`) and with a
//! journal session on — and prints the per-call costs side by side. Both
//! recording rows timestamp and buffer every event, and the capture row
//! also folds its events into a report; the off row must stay in the
//! nanoseconds.
//!
//! The session regime periodically drains the global sink (`take` +
//! re-`enable`) so repeated calibration batches cannot grow the event
//! buffers without bound.

use std::hint::black_box;
use xmltc_bench::harness::Group;
use xmltc_obs as obs;

/// One representative instrumented unit of work: a span wrapping a
/// recorded gauge and an additive counter.
fn instrumented_unit() -> u64 {
    let _s = obs::span("bench.unit");
    obs::record("bench.gauge", 7);
    obs::add("bench.total", 1);
    black_box(3u64) * 14
}

fn main() {
    let mut group = Group::new("obs_overhead");

    // Regime 1: everything off — the pipeline's default. This is the
    // number that must stay near zero.
    group.bench("span_off", instrumented_unit);

    // Regime 2: a capture per unit (the `--stats`/`--json` path and one
    // `serve` request): the unit's events are buffered, folded into a
    // report and truncated again.
    group.bench("span_capture", || {
        let (v, _report) = obs::with_report(instrumented_unit);
        v
    });

    // Regime 3: a journal session (the `--trace-out` path): every call
    // appends a timestamped event to the thread's buffer, which is kept.
    obs::journal::enable();
    let mut calls = 0u64;
    group.bench("span_session", || {
        calls += 1;
        if calls.is_multiple_of(1 << 16) {
            // Drain so buffers stay bounded across calibration batches.
            let _ = obs::journal::take();
            obs::journal::enable();
        }
        instrumented_unit()
    });
    let drained = obs::journal::take();
    assert!(
        !drained.is_empty(),
        "journal-on regime must have recorded events"
    );

    group.finish();
}
