//! The xmltc benchmark harness: runs one workload in this process and
//! writes its records as JSON lines on stdout (see `rec.rs`). `run.py`
//! builds it, pins it to one CPU, and folds the records into metrics.
//!
//! ```text
//! xmltc-perf --workload typecheck-mix|transform-docs|serve-mix --seed N
//!            --seconds S [--trace] [--start I] [--xmltc PATH] [--fixtures DIR]
//! ```
//!
//! `--seconds` sets how much work a run does: each workload runs a fixed
//! number of cycles per second (calibrated so a run takes about that long
//! on a 2-vCPU cloud host), so every run with the same arguments does the
//! same work. `--start` resumes `transform-docs` after an operation that
//! aborted the process.

mod docs;
mod host;
mod rec;
mod refk;
mod rng;
mod serve;
mod tcmix;

use rec::Rec;
use std::process::ExitCode;

/// Set-up episodes per `typecheck-mix` run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    start: usize,
    xmltc: String,
    fixtures: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        start: 0,
        xmltc: "xmltc".into(),
        fixtures: "fixtures".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = val()?.parse().map_err(|_| "bad --seconds")?,
            "--start" => a.start = val()?.parse().map_err(|_| "bad --start")?,
            "--xmltc" => a.xmltc = val()?,
            "--fixtures" => a.fixtures = val()?,
            "--trace" => a.trace = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Cycles for a run of `seconds`, at `per_second` cycles per second.
fn cycles(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xmltc-perf: {e}");
            return ExitCode::from(2);
        }
    };
    // A fresh process's first reference sample is cold; discard one.
    refk::sample_ms();
    let mut rec = Rec::new();
    rec.line(&format!(
        r#"{{"k":"start","pid":{},"threads":{}}}"#,
        std::process::id(),
        xmltc_typecheck::walk::resolve_threads(0)
    ));
    let result = match args.workload.as_str() {
        "typecheck-mix" => tcmix::run(
            &mut rec,
            args.seed,
            cycles(args.seconds, tcmix::CYCLES_PER_SECOND),
            args.trace,
            &args.fixtures,
        ),
        "transform-docs" => docs::run(
            &mut rec,
            args.seed,
            cycles(args.seconds, docs::CYCLES_PER_SECOND),
            args.trace,
            args.start,
        ),
        "serve-mix" => serve::run(
            &mut rec,
            args.seed,
            cycles(args.seconds, serve::CYCLES_PER_SECOND),
            args.trace,
            &args.xmltc,
            &args.fixtures,
        ),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("xmltc-perf: {e}");
        return ExitCode::from(1);
    }
    rec.reference();
    rec.flush_spans();
    let (run_ns, wait_ns) = host::schedstat(std::process::id());
    rec.line(&format!(
        r#"{{"k":"end","t":{:.6},"ref_s":{:.6},"rss_kb":{},"run_ns":{run_ns},"wait_ns":{wait_ns}}}"#,
        rec.now(),
        rec.ref_s,
        host::peak_rss_kb(std::process::id())
    ));
    ExitCode::SUCCESS
}
