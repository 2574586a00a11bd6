//! A small, dependency-free timing harness for the `harness = false`
//! `obs_overhead` bench (the workspace builds offline, so Criterion is not
//! available).
//!
//! Usage mirrors a Criterion group:
//!
//! ```
//! use xmltc_bench::harness::Group;
//! let mut g = Group::new("demo");
//! g.bench("sum/1000", || (0u64..1000).sum::<u64>());
//! g.finish();
//! ```
//!
//! Each benchmark is auto-calibrated: after one warm-up call, the batch
//! doubles until one batch takes ≳1 ms (see `batch_size`), then the
//! closure is timed over several samples of that batch; the report prints
//! min / median / mean per iteration.

use std::hint::black_box;
use std::time::Instant;

/// Target wall time for a single timed sample.
const SAMPLE_TARGET_NS: u64 = 1_000_000;
/// Samples per benchmark (subject to the total budget).
const MAX_SAMPLES: usize = 15;
/// Total wall-time budget per benchmark.
const BENCH_BUDGET_NS: u64 = 500_000_000;

/// One benchmark's measurements, per iteration, in nanoseconds.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Display label.
    pub label: String,
    /// Inner iterations per sample.
    pub iters: u32,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample, per iteration.
    pub min_ns: u64,
    /// Median sample, per iteration.
    pub median_ns: u64,
    /// Mean over all samples, per iteration.
    pub mean_ns: u64,
}

/// A named group of benchmarks, printed as a table on [`Group::finish`].
pub struct Group {
    name: String,
    rows: Vec<Measurement>,
}

impl Group {
    /// Creates a group with a display name (mirrors a Criterion group).
    pub fn new(name: impl Into<String>) -> Group {
        Group {
            name: name.into(),
            rows: Vec::new(),
        }
    }

    /// Times `f`, auto-calibrating the batch size.
    pub fn bench<R>(&mut self, label: impl Into<String>, mut f: impl FnMut() -> R) {
        let mut time_batch = |iters: u32| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as u64
        };
        let first_ns = time_batch(1);
        let iters = batch_size(first_ns, &mut time_batch);
        let mut samples_ns = Vec::with_capacity(MAX_SAMPLES);
        let budget = Instant::now();
        for _ in 0..MAX_SAMPLES {
            samples_ns.push(time_batch(iters) / iters as u64);
            if budget.elapsed().as_nanos() as u64 > BENCH_BUDGET_NS {
                break;
            }
        }
        samples_ns.sort_unstable();
        let samples = samples_ns.len();
        let m = Measurement {
            label: label.into(),
            iters,
            samples,
            min_ns: samples_ns[0],
            median_ns: samples_ns[samples / 2],
            mean_ns: samples_ns.iter().sum::<u64>() / samples as u64,
        };
        self.rows.push(m);
    }

    /// The measurements so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.rows
    }

    /// Prints the group's table to stdout.
    pub fn finish(self) {
        println!("\n{}", self.name);
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(0)
            .max(9);
        println!(
            "  {:<label_w$}  {:>10}  {:>10}  {:>10}  {:>12}",
            "benchmark", "min", "median", "mean", "samples"
        );
        for r in &self.rows {
            println!(
                "  {:<label_w$}  {:>10}  {:>10}  {:>10}  {:>7} × {:<4}",
                r.label,
                fmt_ns(r.min_ns),
                fmt_ns(r.median_ns),
                fmt_ns(r.mean_ns),
                r.samples,
                r.iters,
            );
        }
    }
}

/// The calls per timed sample. The warm-up call's `first_ns` gives the
/// first guess; a cold first call overstates the cost, so the batch,
/// timed by `time_batch(iters)`, then doubles until one batch takes
/// [`SAMPLE_TARGET_NS`] or calibrating has used half the bench's budget.
fn batch_size(first_ns: u64, mut time_batch: impl FnMut(u32) -> u64) -> u32 {
    let mut iters = (SAMPLE_TARGET_NS / first_ns.max(1)).clamp(1, u32::MAX as u64) as u32;
    let mut spent_ns = 0;
    loop {
        let ns = time_batch(iters);
        spent_ns += ns;
        if ns >= SAMPLE_TARGET_NS || spent_ns >= BENCH_BUDGET_NS / 2 || iters == u32::MAX {
            return iters;
        }
        iters = iters.saturating_mul(2);
    }
}

/// Renders a duration in the unit that keeps 3–4 significant digits.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrates_and_measures() {
        let mut g = Group::new("test");
        g.bench("noop", || 1u64 + 1);
        let m = &g.measurements()[0];
        assert!(m.iters >= 1);
        assert!(m.samples >= 1);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.median_ns <= m.mean_ns * 2);
    }

    #[test]
    fn batch_doubles_past_a_cold_first_call() {
        // A 10 ns closure whose first call took 10 µs: the first guess is
        // 100 calls, far below the 1 ms target.
        let iters = batch_size(10_000, |n| 10 * n as u64);
        assert!(iters >= 100_000, "{iters}");
        // A call slower than the target is timed once per sample.
        assert_eq!(batch_size(5_000_000, |n| 5_000_000 * n as u64), 1);
    }

    #[test]
    fn formats_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
    }
}
