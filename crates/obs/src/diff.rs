//! Benchmark regression diffing for `BENCH_typecheck.json` dumps.
//!
//! [`diff`] compares two parsed benchmark documents metric by metric
//! against a watch list: each [`Watch`] names a dotted path into the
//! document (e.g. `route_walk.sequential_wall_ms`), a direction (is lower
//! or higher better?), and a relative regression threshold. The resulting
//! [`DiffReport`] renders as an aligned human table or as JSON and knows
//! whether any watched metric regressed beyond its threshold — the
//! `xmltc bench-diff` subcommand turns that into its exit code.
//!
//! Thresholds are *relative*: a watch with `threshold: 0.25` tolerates up
//! to +25% on a lower-is-better metric. Deterministic counters (state
//! counts, pair counts) default to a zero threshold: any growth is a
//! regression worth a look. Wall-clock metrics default to generous
//! thresholds because CI timing is noisy — the CI job additionally runs in
//! advisory mode, where regressions are reported but do not fail the job.

use crate::json::Json;
use std::fmt::Write as _;

/// Which direction of change is a regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Lower values are better (wall times, state counts): a regression is
    /// an increase beyond the threshold.
    Lower,
    /// Higher values are better (memo hit rates): a regression is a
    /// decrease beyond the threshold.
    Higher,
}

/// One watched metric.
#[derive(Clone, Debug)]
pub struct Watch {
    /// Dotted path into the benchmark document.
    pub path: String,
    /// Direction of goodness.
    pub better: Better,
    /// Tolerated relative change in the bad direction (0.25 = 25%).
    pub threshold: f64,
}

impl Watch {
    /// A lower-is-better watch.
    pub fn lower(path: &str, threshold: f64) -> Watch {
        Watch {
            path: path.to_string(),
            better: Better::Lower,
            threshold,
        }
    }

    /// A higher-is-better watch.
    pub fn higher(path: &str, threshold: f64) -> Watch {
        Watch {
            path: path.to_string(),
            better: Better::Higher,
            threshold,
        }
    }
}

/// Relative slack for wall-clock watches: CI machines are noisy.
pub const WALL_TIME_THRESHOLD: f64 = 0.35;

/// Extra slack for the warm service round-trip: a pure cache hit runs in
/// microseconds, where scheduler jitter dominates the relative change.
pub const WARM_WALL_THRESHOLD: f64 = 3.0;

/// The default watch list for `BENCH_typecheck.json` (schema 7): wall
/// times with generous slack, deterministic counters with none (including
/// the walk's bisimulation classes and its kernel's dense-representation
/// counters), and the service
/// cold/warm rows — the cache-hit/miss counts are deterministic, so any
/// drift is a regression. Ratios of counters are not watched: the exact
/// counts behind them are.
pub fn default_watches() -> Vec<Watch> {
    vec![
        Watch::lower("comparison.eager_wall_ms", WALL_TIME_THRESHOLD),
        Watch::lower("comparison.lazy_wall_ms", WALL_TIME_THRESHOLD),
        Watch::lower("comparison.eager_emptiness_ms", WALL_TIME_THRESHOLD),
        Watch::lower("comparison.lazy_emptiness_ms", WALL_TIME_THRESHOLD),
        Watch::lower("comparison.eager_states", 0.0),
        Watch::lower("comparison.lazy_states_materialized", 0.0),
        Watch::lower("route_walk.sequential_wall_ms", WALL_TIME_THRESHOLD),
        Watch::lower("route_walk.pairs", 0.0),
        Watch::lower("route_walk.compositions", 0.0),
        Watch::lower("route_walk.memo_misses", 0.0),
        Watch::lower("route_walk.fixpoint_steps", 0.0),
        Watch::lower("route_walk.dbta_states", 0.0),
        Watch::lower("route_walk.classes", 0.0),
        Watch::lower("route_walk.kernel_words", 0.0),
        Watch::lower("route_walk.kernel_rows", 0.0),
        Watch::lower("route_walk.projections_interned", 0.0),
        Watch::lower("service.cold_wall_ms", WALL_TIME_THRESHOLD),
        Watch::lower("service.warm_wall_ms", WARM_WALL_THRESHOLD),
        Watch::lower("service.cold_misses", 0.0),
        Watch::higher("service.warm_hits", 0.0),
        Watch::lower("service.warm_misses", 0.0),
    ]
}

/// The comparison of one watched metric.
#[derive(Clone, Debug)]
pub struct Delta {
    /// The watched path.
    pub path: String,
    /// Baseline value (`None` when absent — e.g. an older schema).
    pub base: Option<f64>,
    /// Candidate value (`None` when absent).
    pub cand: Option<f64>,
    /// Relative change in percent, when both sides are present and the
    /// baseline is nonzero.
    pub change_pct: Option<f64>,
    /// The watch's threshold, in percent.
    pub threshold_pct: f64,
    /// True when the change exceeds the threshold in the bad direction.
    pub regressed: bool,
}

/// A full diff: one [`Delta`] per watched metric.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Per-metric comparisons, in watch-list order.
    pub deltas: Vec<Delta>,
}

impl DiffReport {
    /// True when any watched metric regressed beyond its threshold.
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    /// The regressed metrics only.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// Renders an aligned human table: metric, baseline, candidate,
    /// change, verdict.
    pub fn render_table(&self) -> String {
        let fmt_v = |v: Option<f64>| match v {
            None => "-".to_string(),
            Some(x) if x == x.trunc() && x.abs() < 1e15 => format!("{}", x as i64),
            Some(x) => format!("{x:.3}"),
        };
        let rows: Vec<[String; 5]> = self
            .deltas
            .iter()
            .map(|d| {
                let change = match d.change_pct {
                    None => "-".to_string(),
                    Some(p) => format!("{p:+.1}%"),
                };
                let verdict = if d.regressed {
                    format!("REGRESSED (>{:.0}%)", d.threshold_pct)
                } else if d.base.is_none() || d.cand.is_none() {
                    "missing".to_string()
                } else {
                    "ok".to_string()
                };
                [
                    d.path.clone(),
                    fmt_v(d.base),
                    fmt_v(d.cand),
                    change,
                    verdict,
                ]
            })
            .collect();
        let headers = ["metric", "baseline", "candidate", "change", "verdict"];
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {}",
            headers[0],
            headers[1],
            headers[2],
            headers[3],
            headers[4],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
            w3 = widths[3],
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {}",
                row[0],
                row[1],
                row[2],
                row[3],
                row[4],
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
            );
        }
        out
    }

    /// The JSON encoding (`xmltc.bench-diff/1`).
    pub fn to_json(&self) -> Json {
        let deltas = self
            .deltas
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("path", Json::Str(d.path.clone())),
                    ("base", d.base.map(Json::F64).unwrap_or(Json::Null)),
                    ("candidate", d.cand.map(Json::F64).unwrap_or(Json::Null)),
                    (
                        "change_pct",
                        d.change_pct.map(Json::F64).unwrap_or(Json::Null),
                    ),
                    ("threshold_pct", Json::F64(d.threshold_pct)),
                    ("regressed", Json::Bool(d.regressed)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str("xmltc.bench-diff/1".into())),
            ("regressed", Json::Bool(self.regressed())),
            ("deltas", Json::Array(deltas)),
        ])
    }
}

/// Compares `cand` against `base` over the watch list. A metric missing on
/// either side is reported but never counted as a regression (schemas
/// evolve; the diff tool must stay usable across one bump).
pub fn diff(base: &Json, cand: &Json, watches: &[Watch]) -> DiffReport {
    let deltas = watches
        .iter()
        .map(|w| {
            let b = base.at(&w.path).and_then(Json::as_f64);
            let c = cand.at(&w.path).and_then(Json::as_f64);
            let (change_pct, regressed) = match (b, c) {
                (Some(b), Some(c)) => {
                    let change = if b != 0.0 {
                        Some((c - b) / b.abs() * 100.0)
                    } else {
                        None
                    };
                    let bad = match w.better {
                        Better::Lower => {
                            if b != 0.0 {
                                c > b * (1.0 + w.threshold)
                            } else {
                                // From-zero growth has no relative size;
                                // regress only under a zero threshold.
                                c > 0.0 && w.threshold == 0.0
                            }
                        }
                        Better::Higher => {
                            if b != 0.0 {
                                c < b * (1.0 - w.threshold)
                            } else {
                                false // can't fall below a zero baseline
                            }
                        }
                    };
                    (change, bad)
                }
                _ => (None, false),
            };
            Delta {
                path: w.path.clone(),
                base: b,
                cand: c,
                change_pct,
                threshold_pct: w.threshold * 100.0,
                regressed,
            }
        })
        .collect();
    DiffReport { deltas }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(walk_ms: f64, pairs: u64, hit_rate: f64) -> Json {
        Json::obj(vec![(
            "route_walk",
            Json::obj(vec![
                ("sequential_wall_ms", Json::F64(walk_ms)),
                ("pairs", Json::U64(pairs)),
                ("memo_hit_rate", Json::F64(hit_rate)),
            ]),
        )])
    }

    fn watches() -> Vec<Watch> {
        vec![
            Watch::lower("route_walk.sequential_wall_ms", 0.25),
            Watch::lower("route_walk.pairs", 0.0),
            Watch::higher("route_walk.memo_hit_rate", 0.0),
        ]
    }

    #[test]
    fn within_threshold_is_ok() {
        let r = diff(
            &doc(100.0, 500, 0.5),
            &doc(110.0, 500, 0.5), // +10% wall, counters flat
            &watches(),
        );
        assert!(!r.regressed());
        assert_eq!(r.deltas.len(), 3);
        assert!((r.deltas[0].change_pct.unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn wall_time_regression_beyond_threshold() {
        let r = diff(&doc(100.0, 500, 0.5), &doc(130.0, 500, 0.5), &watches());
        assert!(r.regressed());
        let reg: Vec<_> = r.regressions().map(|d| d.path.as_str()).collect();
        assert_eq!(reg, vec!["route_walk.sequential_wall_ms"]);
    }

    #[test]
    fn counter_growth_is_zero_tolerance() {
        let r = diff(&doc(100.0, 500, 0.5), &doc(100.0, 501, 0.5), &watches());
        assert!(r.regressed());
        assert!(r.regressions().any(|d| d.path == "route_walk.pairs"));
        // Shrinking is fine.
        let r = diff(&doc(100.0, 500, 0.5), &doc(100.0, 499, 0.5), &watches());
        assert!(!r.regressed());
    }

    #[test]
    fn higher_is_better_direction() {
        let r = diff(&doc(100.0, 500, 0.5), &doc(100.0, 500, 0.4), &watches());
        assert!(r.regressed());
        assert!(r
            .regressions()
            .any(|d| d.path == "route_walk.memo_hit_rate"));
        let r = diff(&doc(100.0, 500, 0.5), &doc(100.0, 500, 0.9), &watches());
        assert!(!r.regressed());
        // A zero baseline rate cannot regress further down.
        let r = diff(&doc(100.0, 500, 0.0), &doc(100.0, 500, 0.0), &watches());
        assert!(!r.regressed());
    }

    #[test]
    fn missing_metric_reports_but_does_not_fail() {
        let empty = Json::obj(vec![]);
        let r = diff(&empty, &doc(100.0, 500, 0.5), &watches());
        assert!(!r.regressed());
        assert!(r.deltas.iter().all(|d| d.base.is_none()));
        assert!(r.render_table().contains("missing"));
    }

    #[test]
    fn table_and_json_shapes() {
        let r = diff(&doc(100.0, 500, 0.5), &doc(130.0, 501, 0.5), &watches());
        let t = r.render_table();
        assert!(t.contains("metric"));
        assert!(t.contains("REGRESSED"));
        assert!(t.contains("+30.0%"));
        let j = r.to_json().encode();
        assert!(j.contains(r#""schema":"xmltc.bench-diff/1""#));
        assert!(j.contains(r#""regressed":true"#));
    }
}
