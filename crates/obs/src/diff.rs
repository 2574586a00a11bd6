//! Benchmark regression diffing for `benchmark/run.py` results.
//!
//! Each side of a diff is a set of `--trace 0` result files
//! (`<workload>-seed<N>-trace0.result.json`), several seeds per workload:
//! [`Run::from_result`] reads one. [`diff`] groups the runs by workload and
//! compares, for every end-to-end metric a [`Benchmark`] (the parsed
//! `BENCHMARK.json`) declares, the median of each side. A metric regresses
//! when the candidate's median is worse than the baseline's by more than
//! the metric's bound, or by more than the baseline's own spread (IQR ÷
//! median) where that is wider. A workload also regresses when a larger
//! share of its operations failed. The resulting [`DiffReport`] renders as
//! an aligned human table or as JSON, and `xmltc bench-diff` turns
//! [`DiffReport::regressed`] into its exit code.

use crate::json::Json;
use std::fmt::Write as _;

/// Which direction of change is a regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Lower values are better (latencies, set-up time, memory).
    Lower,
    /// Higher values are better (throughput, decided share).
    Higher,
}

/// One end-to-end metric and its regression bound.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric's name in a result file's `end_to_end` object.
    pub name: String,
    /// Direction of goodness.
    pub better: Better,
    /// Tolerated relative change in the bad direction (0.15 = 15%).
    pub bound: f64,
}

/// The workloads and bounded end-to-end metrics of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Benchmark {
    /// Reads the `workloads` and `end_to_end` arrays of a parsed
    /// `BENCHMARK.json`; `None` when either is malformed.
    pub fn from_json(doc: &Json) -> Option<Benchmark> {
        let items = |key: &str| match doc.get(key)? {
            Json::Array(items) => Some(items),
            _ => None,
        };
        let name = |item: &Json| Some(item.get("name")?.as_str()?.to_string());
        let metric = |m: &Json| {
            let better = match m.get("better")?.as_str()? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                _ => return None,
            };
            let bound = m.get("bound")?.as_f64()?;
            Some(Metric {
                name: name(m)?,
                better,
                bound,
            })
        };
        Some(Benchmark {
            workloads: items("workloads")?
                .iter()
                .map(name)
                .collect::<Option<_>>()?,
            metrics: items("end_to_end")?
                .iter()
                .map(metric)
                .collect::<Option<_>>()?,
        })
    }
}

/// One `--trace 0` benchmark run.
#[derive(Clone, Debug)]
pub struct Run {
    /// `run.workload`.
    pub workload: String,
    /// `ledger.attempted`: operations run.
    pub attempted: u64,
    /// `ledger.failed`: operations that failed or aborted.
    pub failed: u64,
    /// The `end_to_end` object: metric name → normalized value.
    pub end_to_end: Json,
}

impl Run {
    /// Reads one parsed result file; `None` for a traced (`run.trace`
    /// ≠ 0) run, which has per-layer metrics instead.
    pub fn from_result(doc: &Json) -> Result<Option<Run>, String> {
        let field = |path: &str| doc.at(path).ok_or(format!("no `{path}` field"));
        if field("run.trace")?.as_u64() != Some(0) {
            return Ok(None);
        }
        let count = |path| {
            field(path)?
                .as_u64()
                .ok_or(format!("`{path}` is not a count"))
        };
        Ok(Some(Run {
            workload: field("run.workload")?
                .as_str()
                .ok_or("`run.workload` is not a string")?
                .to_string(),
            attempted: count("ledger.attempted")?,
            failed: count("ledger.failed")?,
            end_to_end: field("end_to_end")?.clone(),
        }))
    }
}

/// The comparison of one row: a workload's metric or its failed share.
#[derive(Clone, Debug)]
pub struct Delta {
    /// `<workload>/<metric>`, or `<workload>/failed_share`.
    pub row: String,
    /// Baseline median (`None` when the baseline has no such runs).
    pub base: Option<f64>,
    /// Candidate median (`None` when the candidate has no such runs).
    pub cand: Option<f64>,
    /// Relative change in percent, when both sides are present and the
    /// baseline is nonzero.
    pub change_pct: Option<f64>,
    /// Tolerated change in the bad direction, in percent: the larger of
    /// the bound and the baseline's IQR ÷ median.
    pub tolerance_pct: f64,
    /// True when the change exceeds the tolerance in the bad direction.
    pub regressed: bool,
}

/// A full diff: per workload, one [`Delta`] per end-to-end metric, then
/// one for the failed share.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Per-row comparisons, in `BENCHMARK.json` order.
    pub deltas: Vec<Delta>,
}

impl DiffReport {
    /// True when any row regressed beyond its tolerance.
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    /// The regressed rows only.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// Renders an aligned human table: row, baseline and candidate
    /// medians, change, tolerance, verdict.
    pub fn render_table(&self) -> String {
        // Four significant digits, counted without `log10`: on baseline
        // x86-64 it is a libm call, and libm would then be mapped into
        // every `xmltc` process, `serve` included.
        let fmt_v = |v: Option<f64>| match v {
            None => "-".to_string(),
            Some(0.0) => "0".to_string(),
            Some(x) => {
                let powers = [1e3, 1e2, 1e1, 1e0, 1e-1, 1e-2, 1e-3];
                let decimals = powers.iter().take_while(|&&p| x.abs() < p).count();
                format!("{x:.decimals$}")
            }
        };
        const HEADER: [&str; 6] = [
            "row",
            "baseline",
            "candidate",
            "change",
            "tolerance",
            "verdict",
        ];
        let mut rows = vec![HEADER.map(String::from)];
        rows.extend(self.deltas.iter().map(|d| {
            let verdict = match (d.regressed, d.base.is_some() && d.cand.is_some()) {
                (true, _) => "REGRESSED",
                (false, true) => "ok",
                (false, false) => "missing",
            };
            [
                d.row.clone(),
                fmt_v(d.base),
                fmt_v(d.cand),
                d.change_pct
                    .map_or("-".to_string(), |p| format!("{p:+.1}%")),
                format!("{:.1}%", d.tolerance_pct),
                verdict.to_string(),
            ]
        }));
        let mut widths = [0; 6];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        for row in &rows {
            let _ = write!(out, "{:<w$}", row[0], w = widths[0]);
            for (cell, w) in row[1..5].iter().zip(&widths[1..5]) {
                let _ = write!(out, "  {cell:>w$}");
            }
            let _ = writeln!(out, "  {}", row[5]);
        }
        out
    }

    /// The JSON encoding (`xmltc.bench-diff/2`).
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::F64);
        let deltas = self
            .deltas
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("row", Json::Str(d.row.clone())),
                    ("base", opt(d.base)),
                    ("candidate", opt(d.cand)),
                    ("change_pct", opt(d.change_pct)),
                    ("tolerance_pct", Json::F64(d.tolerance_pct)),
                    ("regressed", Json::Bool(d.regressed)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str("xmltc.bench-diff/2".into())),
            ("regressed", Json::Bool(self.regressed())),
            ("deltas", Json::Array(deltas)),
        ])
    }
}

/// Compares `cand` against `base`, row by row, for every workload and
/// end-to-end metric of `bench`. A workload or metric missing on either
/// side is reported but never counted as a regression; runs of workloads
/// `bench` does not name are ignored.
pub fn diff(base: &[Run], cand: &[Run], bench: &Benchmark) -> DiffReport {
    let mut deltas = Vec::new();
    for workload in &bench.workloads {
        let (base, cand) = (runs_of(base, workload), runs_of(cand, workload));
        for m in &bench.metrics {
            let b = sorted_values(&base, &m.name);
            let spread = match median(&b) {
                Some(mid) if mid != 0.0 => (quantile(&b, 0.75) - quantile(&b, 0.25)) / mid.abs(),
                _ => 0.0,
            };
            let c = sorted_values(&cand, &m.name);
            let row = format!("{workload}/{}", m.name);
            let tolerance = m.bound.max(spread);
            deltas.push(delta(row, median(&b), median(&c), m.better, tolerance));
        }
        let (b, c) = (failed_share(&base), failed_share(&cand));
        let row = format!("{workload}/failed_share");
        deltas.push(delta(row, b, c, Better::Lower, 0.0));
    }
    DiffReport { deltas }
}

fn runs_of<'a>(runs: &'a [Run], workload: &str) -> Vec<&'a Run> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

fn sorted_values(runs: &[&Run], metric: &str) -> Vec<f64> {
    let values = runs.iter().filter_map(|r| r.end_to_end.get(metric));
    let mut xs: Vec<f64> = values.filter_map(Json::as_f64).collect();
    xs.sort_by(f64::total_cmp);
    xs
}

/// The `q`-quantile of sorted values, interpolating linearly between
/// neighbouring ranks. A cast rounds down, as `floor` would without its
/// libm call (see [`DiffReport::render_table`]).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

fn median(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| quantile(sorted, 0.5))
}

/// Failed ÷ attempted operations over all of a side's runs.
fn failed_share(runs: &[&Run]) -> Option<f64> {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// One row. It regresses when `cand` is worse than `base` by more than
/// `tolerance` × |`base`|; from a zero baseline, any worsening counts.
fn delta(
    row: String,
    base: Option<f64>,
    cand: Option<f64>,
    better: Better,
    tolerance: f64,
) -> Delta {
    let both = base.zip(cand);
    let worse = |(b, c): (f64, f64)| match better {
        Better::Lower => c > b + tolerance * b.abs(),
        Better::Higher => c < b - tolerance * b.abs(),
    };
    Delta {
        row,
        base,
        cand,
        change_pct: both
            .filter(|&(b, _)| b != 0.0)
            .map(|(b, c)| (c - b) / b.abs() * 100.0),
        tolerance_pct: tolerance * 100.0,
        regressed: both.is_some_and(worse),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Benchmark {
        let doc = Json::parse(
            r#"{"workloads": [{"name": "w"}], "end_to_end": [
                {"name": "ops_per_s", "better": "higher", "bound": 0.15},
                {"name": "latency_ms_p50", "better": "lower", "bound": 0.15}]}"#,
        )
        .unwrap();
        Benchmark::from_json(&doc).unwrap()
    }

    fn run(ops: f64, p50: f64, failed: u64) -> Run {
        Run {
            workload: "w".into(),
            attempted: 100,
            failed,
            end_to_end: Json::obj(vec![
                ("ops_per_s", Json::F64(ops)),
                ("latency_ms_p50", Json::F64(p50)),
            ]),
        }
    }

    fn rows(r: &DiffReport) -> Vec<&str> {
        r.regressions().map(|d| d.row.as_str()).collect::<Vec<_>>()
    }

    #[test]
    fn reads_the_benchmark_declaration() {
        let b = bench();
        assert_eq!(b.workloads, ["w"]);
        assert_eq!(b.metrics[0].better, Better::Higher);
        assert_eq!(b.metrics[1].bound, 0.15);
        assert!(Benchmark::from_json(&Json::obj(vec![])).is_none());
    }

    #[test]
    fn medians_are_compared_within_the_bound() {
        let base = [run(100.0, 1.0, 0), run(102.0, 1.0, 0), run(98.0, 1.0, 0)];
        let cand = [run(90.0, 1.1, 0), run(200.0, 9.0, 0), run(88.0, 1.1, 0)];
        let r = diff(&base, &cand, &bench());
        assert_eq!(r.deltas.len(), 3);
        assert!(!r.regressed(), "{}", r.render_table());
        assert_eq!(r.deltas[0].base, Some(100.0));
        assert_eq!(r.deltas[0].cand, Some(90.0));
        assert!((r.deltas[0].change_pct.unwrap() + 10.0).abs() < 1e-9);
    }

    #[test]
    fn each_direction_regresses_past_its_bound() {
        let base = [run(100.0, 1.0, 0)];
        let r = diff(&base, &[run(80.0, 1.0, 0)], &bench());
        assert_eq!(rows(&r), ["w/ops_per_s"]);
        let r = diff(&base, &[run(100.0, 1.2, 0)], &bench());
        assert_eq!(rows(&r), ["w/latency_ms_p50"]);
        // Better in both directions is fine.
        assert!(!diff(&base, &[run(150.0, 0.5, 0)], &bench()).regressed());
    }

    #[test]
    fn a_wide_baseline_spread_widens_the_tolerance() {
        // Quartiles 80 and 120 around a median of 100: IQR ÷ median = 0.4.
        let base = [60.0, 80.0, 100.0, 120.0, 140.0].map(|ops| run(ops, 1.0, 0));
        let r = diff(&base, &[run(70.0, 1.0, 0)], &bench());
        assert!(!r.regressed(), "{}", r.render_table());
        assert!((r.deltas[0].tolerance_pct - 40.0).abs() < 1e-9);
        assert_eq!(r.deltas[1].tolerance_pct, 15.0);
    }

    #[test]
    fn a_larger_failed_share_regresses() {
        let base = [run(100.0, 1.0, 1)];
        let r = diff(&base, &[run(100.0, 1.0, 2)], &bench());
        assert_eq!(rows(&r), ["w/failed_share"]);
        assert!(!diff(&base, &[run(100.0, 1.0, 1)], &bench()).regressed());
    }

    #[test]
    fn a_missing_workload_is_reported_not_failed() {
        let r = diff(&[], &[run(100.0, 1.0, 0)], &bench());
        assert!(!r.regressed());
        assert!(r.deltas.iter().all(|d| d.base.is_none()));
        assert!(r.render_table().contains("missing"));
    }

    #[test]
    fn reads_only_untraced_result_files() {
        let doc = |trace: u64| {
            Json::parse(&format!(
                r#"{{"run": {{"trace": {trace}, "workload": "w"}},
                    "ledger": {{"attempted": 10, "failed": 1}},
                    "end_to_end": {{"ops_per_s": 5.5}}}}"#
            ))
            .unwrap()
        };
        let r = Run::from_result(&doc(0)).unwrap().unwrap();
        assert_eq!((r.workload.as_str(), r.attempted, r.failed), ("w", 10, 1));
        assert!(Run::from_result(&doc(1)).unwrap().is_none());
        assert!(Run::from_result(&Json::obj(vec![])).is_err());
    }

    #[test]
    fn table_and_json_shapes() {
        let r = diff(&[run(100.0, 1.0, 0)], &[run(80.0, 1.0, 0)], &bench());
        let t = r.render_table();
        assert!(t.starts_with("row"));
        assert!(t.contains("w/ops_per_s"));
        assert!(t.contains("REGRESSED"));
        assert!(t.contains("-20.0%"));
        let j = r.to_json().encode();
        assert!(j.contains(r#""schema":"xmltc.bench-diff/2""#));
        assert!(j.contains(r#""regressed":true"#));
    }
}
