//! `xmltc` — command-line front door to the typechecker.
//!
//! ```text
//! xmltc validate    <input.dtd> <doc.xml> [--stats|--json] [--trace-out F]
//! xmltc transform   <input.dtd> <sheet.xsl> <doc.xml> [--stats|--json]
//!                   [--trace-out F]
//! xmltc typecheck   <input.dtd> <sheet.xsl> <output.dtd> [--stats|--json]
//!                   [--trace-out F] [--explain-out F] [--route auto|walk|mso]
//!                   [--state-limit N]
//! xmltc explain     <input.dtd> <sheet.xsl> <output.dtd> [--json]
//!                   [--explain-out F] [--route ..] [...]
//! xmltc forward     <input.dtd> <sheet.xsl> <output.dtd>
//! xmltc bench-diff  <baseline-dir> <candidate-dir> [--advisory] [--json]
//! xmltc corpus      <family> <index> [--seed S] [--minimize] [--state-limit N]
//! xmltc corpus      --list
//! xmltc serve       [--addr H:P] [--cache-bytes N] [--oneshot]
//!                   [--trace-out F] [--json]
//! xmltc client      <addr> <validate|transform|typecheck|stats|shutdown>
//!                   <files...> [--route ..] [--state-limit N]
//!                   [--explain] [--id N] [--json]
//! ```
//!
//! File formats:
//! * `.dtd` — the paper's notation, one rule per line: `a := b*.c.e`
//!   (first rule's left-hand side is the root; `//` comments);
//! * `.xsl` — one template per line: `tag -> body`, where bodies use term
//!   syntax with `@apply` for `<xsl:apply-templates/>`;
//! * `.xml` — element-only XML.
//!
//! Observability: `--stats` appends a human-readable phase table to the
//! verdict; `--json` instead emits the full machine-readable
//! [`PipelineReport`](xmltc::obs::PipelineReport); `--trace-out FILE`
//! records the event journal and writes a Chrome trace-event JSON file
//! (open in `chrome://tracing` or Perfetto) with one track per thread and
//! counter tracks for the hot-loop gauges. Setting the `XMLTC_LOG`
//! environment variable logs phase enter/exit to stderr for any command
//! (`XMLTC_LOG_FORMAT=json` switches those lines to JSON objects).
//! `bench-diff` compares two directories of `benchmark/run.py` result
//! files and exits nonzero when an end-to-end metric regressed beyond its
//! `BENCHMARK.json` bound.
//! `explain` renders the verdict-provenance report (counterexample input,
//! replayed transducer run, offending output, DTD violation), and
//! `typecheck --explain-out FILE` writes the same report as JSON (schema
//! `xmltc.explain/2`) next to the normal verdict.
//!
//! Exit code 0 = success / typechecks; 1 = validation or typecheck
//! failure (details on stdout); 2 = usage or input errors. A reader that
//! closes stdout early (`xmltc … | head`) cuts the output short but not
//! the command: the exit code is the one the command computed.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use xmltc::dtd::Dtd;
use xmltc::obs;
use xmltc::typecheck::{Route, TypecheckOptions};
use xmltc::xml::{parse_document, raw_to_xml};
use xmltc::xmlql::pipeline::{DocumentPipeline, DocumentVerdict};
use xmltc::xmlql::Stylesheet;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Set once stdout's reader has gone away.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout, the only way this binary does. `print!` panics when
/// the reader has closed the pipe; this drops the rest of the output
/// instead. Any other write error is reported on stderr once.
fn write_stdout(args: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
        }
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => { write_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Which flags a subcommand accepts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FlagLevel {
    /// Positional arguments only.
    None,
    /// Reporting flags: `--stats`, `--json`, `--trace-out`.
    Report,
    /// Reporting plus the typecheck pipeline options.
    Typecheck,
}

/// Flags of the reporting subcommands (`typecheck` accepts all of them,
/// `validate`/`transform` the reporting subset).
struct TypecheckFlags {
    stats: bool,
    json: bool,
    trace_out: Option<String>,
    explain_out: Option<String>,
    opts: TypecheckOptions,
}

/// Splits `rest` into positional arguments and recognized flags. Only the
/// flags admitted by `allowed` are accepted; anything else starting with
/// `--` is a usage error (exit 2).
fn parse_flags(rest: &[String], allowed: FlagLevel) -> Result<(Vec<&str>, TypecheckFlags), String> {
    let mut positional = Vec::new();
    let mut flags = TypecheckFlags {
        stats: false,
        json: false,
        trace_out: None,
        explain_out: None,
        opts: TypecheckOptions::default(),
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg.as_str());
            continue;
        }
        let level = match arg.as_str() {
            "--stats" | "--json" | "--trace-out" => FlagLevel::Report,
            _ => FlagLevel::Typecheck,
        };
        if allowed < level {
            return Err(format!("unknown flag `{arg}` for this command"));
        }
        match arg.as_str() {
            "--stats" => flags.stats = true,
            "--json" => flags.json = true,
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out requires a file path")?;
                flags.trace_out = Some(v.clone());
            }
            "--explain-out" => {
                let v = it.next().ok_or("--explain-out requires a file path")?;
                flags.explain_out = Some(v.clone());
            }
            "--route" => {
                let v = it.next().ok_or("--route requires a value: auto|walk|mso")?;
                flags.opts.route = Route::parse(v)
                    .ok_or_else(|| format!("unknown route `{v}` (auto|walk|mso)"))?;
            }
            "--state-limit" => {
                let v = it.next().ok_or("--state-limit requires a number")?;
                flags.opts.state_limit = v
                    .parse()
                    .map_err(|_| format!("invalid state limit `{v}`"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((positional, flags))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let usage = "usage: xmltc <validate|transform|typecheck|forward|bench-diff|serve|client> \
         <files...> (see --help)";
    let cmd = args.first().ok_or(usage)?;
    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            outln!("{}", HELP);
            Ok(ExitCode::SUCCESS)
        }
        "validate" => {
            let (pos, flags) = parse_flags(&args[1..], FlagLevel::Report)?;
            let [dtd_path, xml_path] = two(&pos)?;
            let dtd_text = read(dtd_path)?;
            let xml_text = read(xml_path)?;
            let run = || -> Result<Result<(), String>, String> {
                let dtd = {
                    let _s = obs::span("dtd.parse");
                    Dtd::parse_text(&dtd_text).map_err(|e| e.to_string())?
                };
                let doc = {
                    let _s = obs::span("xml.parse");
                    parse_document(&xml_text, dtd.alphabet()).map_err(|e| e.to_string())?
                };
                let verdict = {
                    let _s = obs::span("dtd.validate");
                    dtd.validate(&doc).map_err(|e| e.to_string())
                };
                obs::record("verdict.ok", verdict.is_ok() as u64);
                Ok(verdict)
            };
            let print = |v: &Result<(), String>, quiet: bool| match v {
                Ok(()) => {
                    if !quiet {
                        outln!("valid");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    if !quiet {
                        outln!("invalid: {e}");
                    }
                    ExitCode::FAILURE
                }
            };
            run_reported(&flags, run, print)
        }
        "transform" => {
            let (pos, flags) = parse_flags(&args[1..], FlagLevel::Report)?;
            let [dtd_path, xsl_path, xml_path] = three(&pos)?;
            let dtd_text = read(dtd_path)?;
            let xsl_text = read(xsl_path)?;
            let xml_text = read(xml_path)?;
            let run = || -> Result<String, String> {
                let dtd = {
                    let _s = obs::span("dtd.parse");
                    Dtd::parse_text(&dtd_text).map_err(|e| e.to_string())?
                };
                let sheet = {
                    let _s = obs::span("sheet.parse");
                    Stylesheet::parse_text(&xsl_text).map_err(|e| e.to_string())?
                };
                let doc = {
                    let _s = obs::span("xml.parse");
                    parse_document(&xml_text, dtd.alphabet()).map_err(|e| e.to_string())?
                };
                let pipeline = DocumentPipeline::new(sheet, dtd).map_err(|e| e.to_string())?;
                let out = pipeline.transform(&doc).map_err(|e| e.to_string())?;
                Ok(raw_to_xml(&out))
            };
            let print = |out: &String, quiet: bool| {
                if !quiet {
                    outln!("{out}");
                }
                ExitCode::SUCCESS
            };
            run_reported(&flags, run, print)
        }
        "typecheck" => {
            let (pos, flags) = parse_flags(&args[1..], FlagLevel::Typecheck)?;
            let [dtd_path, xsl_path, out_dtd_path] = three(&pos)?;
            let dtd = Dtd::parse_text(&read(dtd_path)?).map_err(|e| e.to_string())?;
            let sheet = Stylesheet::parse_text(&read(xsl_path)?).map_err(|e| e.to_string())?;
            let out_dtd_text = read(out_dtd_path)?;
            let run = || -> Result<DocumentVerdict, String> {
                let pipeline = DocumentPipeline::new(sheet, dtd).map_err(|e| e.to_string())?;
                let verdict = match &flags.explain_out {
                    Some(path) => {
                        let (verdict, report) = pipeline
                            .explain_against_with(&out_dtd_text, &flags.opts)
                            .map_err(|e| e.to_string())?;
                        write_explain(path, &report)?;
                        verdict
                    }
                    None => pipeline
                        .typecheck_against_with(&out_dtd_text, &flags.opts)
                        .map_err(|e| e.to_string())?,
                };
                obs::record("verdict.ok", verdict.is_ok() as u64);
                Ok(verdict)
            };
            let print = |v: &DocumentVerdict, quiet: bool| {
                if quiet {
                    if v.is_ok() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                } else {
                    print_verdict(v)
                }
            };
            run_reported(&flags, run, print)
        }
        "explain" => {
            let (pos, flags) = parse_flags(&args[1..], FlagLevel::Typecheck)?;
            if flags.stats || flags.trace_out.is_some() {
                return Err("explain does not take `--stats`/`--trace-out` (use typecheck)".into());
            }
            let [dtd_path, xsl_path, out_dtd_path] = three(&pos)?;
            let dtd = Dtd::parse_text(&read(dtd_path)?).map_err(|e| e.to_string())?;
            let sheet = Stylesheet::parse_text(&read(xsl_path)?).map_err(|e| e.to_string())?;
            let out_dtd_text = read(out_dtd_path)?;
            let pipeline = DocumentPipeline::new(sheet, dtd).map_err(|e| e.to_string())?;
            let (verdict, report) = pipeline
                .explain_against_with(&out_dtd_text, &flags.opts)
                .map_err(|e| e.to_string())?;
            if let Some(path) = &flags.explain_out {
                write_explain(path, &report)?;
            }
            if flags.json {
                outln!("{}", report.to_json_string());
            } else {
                out!("{}", report.render_text());
            }
            Ok(if verdict.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "bench-diff" => bench_diff(&args[1..]),
        "corpus" => corpus(&args[1..]),
        "serve" => serve(&args[1..]),
        "client" => client(&args[1..]),
        "forward" => {
            let (pos, _) = parse_flags(&args[1..], FlagLevel::None)?;
            let [dtd_path, xsl_path, out_dtd_path] = three(&pos)?;
            let dtd = Dtd::parse_text(&read(dtd_path)?).map_err(|e| e.to_string())?;
            let sheet = Stylesheet::parse_text(&read(xsl_path)?).map_err(|e| e.to_string())?;
            let pipeline = DocumentPipeline::new(sheet, dtd).map_err(|e| e.to_string())?;
            match pipeline
                .forward_check(&read(out_dtd_path)?)
                .map_err(|e| e.to_string())?
            {
                None => {
                    outln!("forward inference proves the spec (sound)");
                    Ok(ExitCode::SUCCESS)
                }
                Some(w) => {
                    outln!("forward inference cannot prove the spec");
                    outln!("image witness (possibly spurious): {}", raw_to_xml(&w));
                    outln!("(run `xmltc typecheck` for the exact verdict)");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        other => Err(format!("unknown command `{other}`\n{usage}")),
    }
}

/// Stops the journal and writes the Chrome trace when `--trace-out` was
/// given. Called after the pipeline runs — including failed ones, so a
/// budget abort still leaves a timeline of how far it got.
fn write_trace(trace_out: &Option<String>) -> Result<(), String> {
    let Some(path) = trace_out else {
        return Ok(());
    };
    let journal = obs::journal::take();
    let events = journal.total_events();
    let text = obs::chrome::chrome_trace_string(&journal);
    std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!("trace written to {path} ({events} events)");
    Ok(())
}

/// Writes the explain report JSON (schema `xmltc.explain/2`) for
/// `--explain-out`.
fn write_explain(path: &str, report: &obs::ExplainReport) -> Result<(), String> {
    let mut text = report.to_json_string();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!("explain report written to {path}");
    Ok(())
}

/// Runs a reporting subcommand's pipeline in a capture and prints what
/// the flags ask for: `--json` replaces the normal output with the
/// report, `--stats` appends the table, `--trace-out` writes the trace.
/// The exit code comes from the verdict via `print`. Pipeline errors
/// still emit the asked-for report (how far the run got) before the
/// usage-error exit.
fn run_reported<T>(
    flags: &TypecheckFlags,
    run: impl FnOnce() -> Result<T, String>,
    print: impl Fn(&T, bool) -> ExitCode,
) -> Result<ExitCode, String> {
    if flags.trace_out.is_some() {
        obs::journal::enable();
    }
    let (result, report) = obs::with_report(run);
    write_trace(&flags.trace_out)?;
    let value = match result {
        Ok(v) => v,
        Err(msg) => {
            if flags.json {
                outln!("{}", report.to_json_string());
            } else if flags.stats {
                out!("{}", report.render_table());
            }
            return Err(msg);
        }
    };
    if flags.json {
        outln!("{}", report.to_json_string());
        return Ok(print(&value, true));
    }
    let code = print(&value, false);
    if flags.stats {
        outln!();
        out!("{}", report.render_table());
    }
    Ok(code)
}

/// `xmltc bench-diff <baseline-dir> <candidate-dir>`: compares two sets
/// of `benchmark/run.py` result files against the end-to-end bounds of
/// `BENCHMARK.json`, which is compiled in. Exits 1 on regression (0 in
/// `--advisory` mode), 2 on unreadable input.
fn bench_diff(rest: &[String]) -> Result<ExitCode, String> {
    let mut dirs: Vec<&str> = Vec::new();
    let (mut advisory, mut json) = (false, false);
    for arg in rest {
        match arg.as_str() {
            "--advisory" => advisory = true,
            "--json" => json = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}` for bench-diff"));
            }
            _ => dirs.push(arg),
        }
    }
    let [base_dir, cand_dir] = two(&dirs)?;
    let bench = obs::Json::parse(include_str!("../../BENCHMARK.json"))
        .ok()
        .and_then(|doc| obs::diff::Benchmark::from_json(&doc))
        .ok_or("the compiled-in BENCHMARK.json is malformed")?;
    let report = obs::diff::diff(&results(base_dir)?, &results(cand_dir)?, &bench);
    if json {
        outln!("{}", report.to_json().encode());
    } else {
        out!("{}", report.render_table());
    }
    let regressed: Vec<&str> = report.regressions().map(|d| d.row.as_str()).collect();
    if regressed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "regressed beyond tolerance: {}{}",
        regressed.join(", "),
        if advisory {
            " (advisory mode: not failing)"
        } else {
            ""
        },
    );
    Ok(if advisory {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The `--trace 0` runs among the `*.result.json` files in `dir`.
fn results(dir: &str) -> Result<Vec<obs::diff::Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read `{dir}`: {e}"))?;
    let paths = entries
        .filter_map(|e| Some(e.ok()?.path().to_str()?.to_string()))
        .filter(|p| p.ends_with(".result.json"));
    let mut runs = Vec::new();
    for path in paths {
        let doc =
            obs::Json::parse(&read(&path)?).map_err(|e| format!("cannot parse `{path}`: {e}"))?;
        let run = obs::diff::Run::from_result(&doc)
            .map_err(|e| format!("`{path}` is not a benchmark result: {e}"))?;
        runs.extend(run);
    }
    if runs.is_empty() {
        return Err(format!("no `--trace 0` result files in `{dir}`"));
    }
    Ok(runs)
}

/// `xmltc corpus <family> <index>`: regenerates one adversarial corpus
/// case from the seeded generator and prints the (transducer, τ₁, τ₂)
/// triple with two witnesses: `eager`, the least tree of the built
/// product, and `lazy`, the on-the-fly search's, which `typecheck`
/// reports. Exit 0 when they agree — the same least counterexample, or
/// none (or the case exceeds the corpus state budget and is reported as a
/// resource skip, mirroring the harness), 1 on a disagreement (with the
/// minimized triple), 2 on usage errors.
fn corpus(rest: &[String]) -> Result<ExitCode, String> {
    use xmltc::dsl::{
        case_seed, generate, minimize_scenario, Family, Scenario, CORPUS_STATE_LIMIT, FAMILIES,
    };
    use xmltc::typecheck::differential::differential_emptiness;
    use xmltc::typecheck::inverse::violation_nta;
    use xmltc::typecheck::TypecheckError;

    let mut positional: Vec<&str> = Vec::new();
    let mut seed = 0xc0deu64;
    let mut minimize = false;
    let mut state_limit = CORPUS_STATE_LIMIT;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for f in FAMILIES {
                    outln!("{}", f.name());
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed requires a number")?;
                let digits = v.strip_prefix("0x").unwrap_or(v);
                let radix = if digits.len() < v.len() { 16 } else { 10 };
                seed = u64::from_str_radix(digits, radix)
                    .map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "--state-limit" => {
                let v = it.next().ok_or("--state-limit requires a number")?;
                state_limit = v
                    .parse()
                    .map_err(|_| format!("invalid state limit `{v}`"))?;
            }
            "--minimize" => minimize = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}` for corpus"));
            }
            _ => positional.push(arg.as_str()),
        }
    }
    let [family_name, index_str] = two(&positional).map_err(|_| {
        "usage: xmltc corpus <family> <index> [--seed S] [--minimize] [--state-limit N]".to_string()
    })?;
    let family = Family::from_name(family_name).ok_or_else(|| {
        let names: Vec<&str> = FAMILIES.iter().map(|f| f.name()).collect();
        format!(
            "unknown family `{family_name}` (one of: {})",
            names.join(", ")
        )
    })?;
    let index: u64 = index_str
        .parse()
        .map_err(|_| format!("invalid case index `{index_str}`"))?;

    let scenario = generate(seed, family, index);
    out!("{}", scenario.render());
    outln!("digest: {:#018x}", scenario.digest());
    outln!("case seed: {:#018x}", case_seed(seed, family, index));

    let opts = TypecheckOptions {
        state_limit,
        ..TypecheckOptions::default()
    };
    let compiled = scenario
        .compile()
        .map_err(|e| format!("corpus case failed to lower: {e}"))?;
    let verdict =
        match differential_emptiness(&compiled.transducer, &compiled.tau1, &compiled.tau2, &opts) {
            Ok(v) => v,
            Err(TypecheckError::TooManyStates { n }) => {
                // Same semantics as the harness: the case is recorded as a
                // resource skip, not a verdict (rare walk-construction
                // blowups cost super-linear time per state — a hang
                // without the budget).
                outln!();
                outln!(
                    "resource skip: state budget exceeded at {n} \
                     (limit {state_limit}; raise with --state-limit)"
                );
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => return Err(format!("differential run failed: {e}")),
        };
    let show = |w: &Option<xmltc::trees::BinaryTree>| match w {
        Some(t) => format!("counterexample {t}"),
        None => "typechecks (no violation reachable from τ₁)".to_string(),
    };
    outln!();
    outln!(
        "route: {}",
        if verdict.route_is_walk { "walk" } else { "mso" }
    );
    outln!("violation automaton: {} states", verdict.violation_states);
    outln!("eager: {}", show(&verdict.eager_witness));
    outln!("lazy:  {}", show(&verdict.lazy_witness));

    if !verdict.agree() {
        let still_disagrees = |cand: &Scenario| {
            let Ok(c) = cand.compile() else {
                return false;
            };
            differential_emptiness(&c.transducer, &c.tau1, &c.tau2, &opts)
                .map(|v| !v.agree())
                .unwrap_or(false)
        };
        let out = minimize_scenario(&scenario, still_disagrees);
        outln!(
            "ENGINES DISAGREE — minimized triple ({} components removed):",
            out.removed
        );
        out!("{}", out.scenario.render());
        return Ok(ExitCode::FAILURE);
    }
    outln!("engines agree");

    if minimize {
        let fails = |cand: &Scenario| {
            let Ok(c) = cand.compile() else {
                return false;
            };
            let Ok(v) = violation_nta(&c.transducer, &c.tau2, &opts) else {
                return false;
            };
            !c.tau1.intersect(&v).is_empty()
        };
        outln!();
        if fails(&scenario) {
            let out = minimize_scenario(&scenario, fails);
            outln!(
                "minimized while preserving the counterexample ({} of {} candidate removals kept):",
                out.removed,
                out.tried
            );
            out!("{}", out.scenario.render());
        } else {
            outln!("case typechecks: nothing to minimize against");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `xmltc serve`: bind the typecheck service and run until a `shutdown`
/// request or SIGINT; then flush the trace (if recording) and print the
/// whole-run report (requests served, cache hits/misses/evictions).
fn serve(rest: &[String]) -> Result<ExitCode, String> {
    use xmltc::service::server::sigint;
    use xmltc::service::{ServeConfig, Server};
    let mut cfg = ServeConfig::default();
    let mut trace_out: Option<String> = None;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                cfg.addr = it.next().ok_or("--addr requires host:port")?.clone();
            }
            "--cache-bytes" => {
                let v = it.next().ok_or("--cache-bytes requires a byte count")?;
                cfg.cache_bytes = v
                    .parse()
                    .map_err(|_| format!("invalid cache byte budget `{v}`"))?;
            }
            "--oneshot" => cfg.oneshot = true,
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out requires a file path")?;
                trace_out = Some(v.clone());
            }
            "--json" => json = true,
            other => return Err(format!("unknown argument `{other}` for serve")),
        }
    }
    if trace_out.is_some() {
        obs::journal::enable();
    }
    sigint::install();
    let server = Server::bind(&cfg).map_err(|e| format!("cannot bind `{}`: {e}", cfg.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts (and the CLI tests) wait for this exact line before
    // connecting; flush so it is visible through a pipe immediately.
    outln!("xmltc serve: listening on {addr}");
    let _ = std::io::stdout().flush();
    let report = server.run();
    write_trace(&trace_out)?;
    if json {
        outln!("{}", report.to_json_string());
    } else {
        out!("{}", report.render_table());
    }
    Ok(ExitCode::SUCCESS)
}

/// `xmltc client <addr> <command> <files...>`: send one request to a
/// running `xmltc serve` and render the response. Exit codes mirror the
/// local subcommands: 0 ok/typechecks, 1 invalid/counterexample, 2 errors.
fn client(rest: &[String]) -> Result<ExitCode, String> {
    use xmltc::obs::Json;
    use xmltc::service::Client;
    let mut positional: Vec<&str> = Vec::new();
    let mut json_out = false;
    let mut explain = false;
    let mut id: Option<u64> = None;
    let mut options: Vec<(&'static str, Json)> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_out = true,
            "--explain" => explain = true,
            "--id" => {
                let v = it.next().ok_or("--id requires a number")?;
                id = Some(v.parse().map_err(|_| format!("invalid id `{v}`"))?);
            }
            "--route" => {
                let v = it.next().ok_or("--route requires a value: auto|walk|mso")?;
                options.push(("route", Json::Str(v.clone())));
            }
            "--state-limit" => {
                let v = it.next().ok_or("--state-limit requires a number")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid state limit `{v}`"))?;
                options.push(("state_limit", Json::U64(n)));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}` for client"));
            }
            _ => positional.push(arg.as_str()),
        }
    }
    let usage =
        "usage: xmltc client <addr> <validate|transform|typecheck|stats|shutdown> <files...>";
    if positional.len() < 2 {
        return Err(usage.into());
    }
    let (addr, cmd, files) = (positional[0], positional[1], &positional[2..]);
    let mut fields: Vec<(&str, Json)> = vec![("cmd", Json::Str(cmd.to_string()))];
    if let Some(id) = id {
        fields.push(("id", Json::U64(id)));
    }
    match cmd {
        "validate" => {
            let [dtd_path, xml_path] = two(files)?;
            fields.push(("input_dtd", Json::Str(read(dtd_path)?)));
            fields.push(("document", Json::Str(read(xml_path)?)));
        }
        "transform" => {
            let [dtd_path, xsl_path, xml_path] = three(files)?;
            fields.push(("input_dtd", Json::Str(read(dtd_path)?)));
            fields.push(("stylesheet", Json::Str(read(xsl_path)?)));
            fields.push(("document", Json::Str(read(xml_path)?)));
        }
        "typecheck" => {
            let [dtd_path, xsl_path, out_dtd_path] = three(files)?;
            fields.push(("input_dtd", Json::Str(read(dtd_path)?)));
            fields.push(("stylesheet", Json::Str(read(xsl_path)?)));
            fields.push(("output_dtd", Json::Str(read(out_dtd_path)?)));
            fields.append(&mut options);
            if explain {
                fields.push(("explain", Json::Bool(true)));
            }
        }
        "stats" | "shutdown" => {
            if !files.is_empty() {
                return Err(format!("`{cmd}` takes no file arguments"));
            }
        }
        other => return Err(format!("unknown client command `{other}`\n{usage}")),
    }
    let request = Json::obj(fields);
    let mut conn = Client::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let response = conn.roundtrip(&request)?;
    if json_out {
        outln!("{}", response.encode());
        return Ok(client_exit_code(&response));
    }
    render_client_response(cmd, &response)
}

/// Exit code from a service response: 2 on request errors, 1 on negative
/// verdicts (invalid document / counterexample), 0 otherwise.
fn client_exit_code(response: &xmltc::obs::Json) -> ExitCode {
    use xmltc::obs::Json;
    if response.get("ok") != Some(&Json::Bool(true)) {
        return ExitCode::from(2);
    }
    match response.at("result.verdict").and_then(Json::as_str) {
        Some("invalid") | Some("counterexample") => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

/// Human rendering of a service response, mirroring the local commands'
/// output plus a `cache:` summary line.
fn render_client_response(cmd: &str, response: &xmltc::obs::Json) -> Result<ExitCode, String> {
    use xmltc::obs::Json;
    if response.get("ok") != Some(&Json::Bool(true)) {
        let msg = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error");
        return Err(format!("server error: {msg}"));
    }
    match cmd {
        "validate" => match response.at("result.verdict").and_then(Json::as_str) {
            Some("valid") => outln!("valid"),
            _ => {
                let reason = response
                    .at("result.reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown");
                outln!("invalid: {reason}");
            }
        },
        "transform" => {
            if let Some(out) = response.at("result.output").and_then(Json::as_str) {
                outln!("{out}");
            }
        }
        "typecheck" => {
            match response.at("result.verdict").and_then(Json::as_str) {
                Some("typechecks") => {
                    outln!("typechecks: every valid input maps into the output DTD");
                }
                _ => {
                    outln!("DOES NOT typecheck");
                    if let Some(input) = response.at("result.input").and_then(Json::as_str) {
                        outln!("counterexample input: {input}");
                    }
                    if let Some(bad) = response.at("result.bad_output").and_then(Json::as_str) {
                        outln!("offending output:     {bad}");
                    }
                }
            }
            if let Some(explain) = response.at("result.explain") {
                outln!("{}", explain.encode_pretty());
            }
        }
        "stats" => outln!("{}", response.encode_pretty()),
        "shutdown" => outln!("server shutting down"),
        _ => {}
    }
    if let Some(cache) = response.get("cache") {
        if let Json::Object(fields) = cache {
            let parts: Vec<String> = fields
                .iter()
                .filter(|(_, v)| matches!(v, Json::Str(_)))
                .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                .collect();
            let hits = cache.get("hits").and_then(Json::as_u64).unwrap_or(0);
            let misses = cache.get("misses").and_then(Json::as_u64).unwrap_or(0);
            let wall = response
                .get("wall_ms")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            outln!(
                "cache: {} (hits {hits}, misses {misses}) wall {wall:.1}ms",
                parts.join(" ")
            );
        }
    }
    Ok(client_exit_code(response))
}

fn print_verdict(verdict: &DocumentVerdict) -> ExitCode {
    match verdict {
        DocumentVerdict::Ok => {
            outln!("typechecks: every valid input maps into the output DTD");
            ExitCode::SUCCESS
        }
        DocumentVerdict::CounterExample { input, bad_output } => {
            outln!("DOES NOT typecheck");
            outln!("counterexample input: {}", raw_to_xml(input));
            if let Some(bad) = bad_output {
                outln!("offending output:     {}", raw_to_xml(bad));
            }
            ExitCode::FAILURE
        }
    }
}

fn two<'a>(rest: &[&'a str]) -> Result<[&'a str; 2], String> {
    match rest {
        [a, b] => Ok([a, b]),
        _ => Err("expected exactly 2 file arguments".into()),
    }
}

fn three<'a>(rest: &[&'a str]) -> Result<[&'a str; 3], String> {
    match rest {
        [a, b, c] => Ok([a, b, c]),
        _ => Err("expected exactly 3 file arguments".into()),
    }
}

const HELP: &str = "\
xmltc — static typechecking for XML transformations
(Milo, Suciu, Vianu: Typechecking for XML Transformers, PODS 2000)

commands:
  validate  <input.dtd> <doc.xml>                dynamic DTD validation
  transform <input.dtd> <sheet.xsl> <doc.xml>    run the transformation
  typecheck <input.dtd> <sheet.xsl> <output.dtd> EXACT static typecheck
  explain   <input.dtd> <sheet.xsl> <output.dtd> typecheck + provenance report
  forward   <input.dtd> <sheet.xsl> <output.dtd> forward-inference baseline
  bench-diff <baseline-dir> <candidate-dir>      compare benchmark results
  corpus    <family> <index>                     regenerate one adversarial
                                                 corpus case and check its
                                                 witness against the built
                                                 product (--list for the
                                                 family names)
  serve                                          long-running typecheck service
                                                 (TCP, line-delimited JSON) with
                                                 a content-addressed artifact
                                                 cache
  client    <addr> <command> <files...>          send one request to a running
                                                 xmltc serve

reporting options (validate, transform, typecheck):
  --stats            append a per-phase wall-time / automaton-size table
  --json             emit the machine-readable pipeline report instead
  --trace-out FILE   record the event journal and write a Chrome trace
                     (chrome://tracing / Perfetto): per-thread span tracks
                     plus counter tracks for the hot-loop gauges

typecheck / explain options:
  --explain-out FILE write the verdict-provenance report as JSON (schema
                     xmltc.explain/2): counterexample input, replayed
                     transducer run, offending output, DTD violation;
                     `explain` prints the human form (--json for JSON)
  --route R          Theorem 4.7 route: auto (default) | walk | mso
  --state-limit N    budget for intermediate automata and the emptiness
                     search (default 4000000)

corpus options:
  --seed S           corpus seed (decimal or 0x-hex; default 0xc0de) — the
                     per-case stream is derived from (seed, family, index)
  --minimize         when the case fails its spec, also print the greedy
                     minimizer's shrunken triple
  --state-limit N    Theorem 4.7 state budget (default 800, matching the
                     harness — exceeding it is a resource skip, exit 0)
  --list             print the family names, one per line

serve options:
  --addr H:P         listen address (default 127.0.0.1:7407; use :0 for an
                     ephemeral port — the bound address is printed)
  --cache-bytes N    artifact-cache byte budget (default 256 MiB); least-
                     recently-used artifacts are evicted past the budget
  --oneshot          serve exactly one connection, then exit (for smoke
                     tests and scripted runs)
  --trace-out FILE   record the event journal for the whole serve run and
                     write a Chrome trace on shutdown
  --json             print the final whole-run report as JSON instead of
                     the table (requests served, cache hits/misses)

client options (typecheck requests accept the typecheck options above,
plus --explain for the provenance report and --id N to tag the request;
--json prints the raw response line):
  xmltc client ADDR validate  <input.dtd> <doc.xml>
  xmltc client ADDR transform <input.dtd> <sheet.xsl> <doc.xml>
  xmltc client ADDR typecheck <input.dtd> <sheet.xsl> <output.dtd>
  xmltc client ADDR stats
  xmltc client ADDR shutdown

bench-diff (each directory holds benchmark/run.py *.result.json files;
the --trace 0 runs are grouped by workload, and each end-to-end metric's
medians are compared against its BENCHMARK.json bound, widened to the
baseline's IQR/median where that is wider; a larger failed share of
operations also regresses):
  --advisory         report regressions but exit 0 anyway (for noisy CI)
  --json             emit the diff as JSON (schema xmltc.bench-diff/2)

environment:
  XMLTC_LOG=1        log phase enter/exit to stderr (level + timestamp)
  XMLTC_LOG_FORMAT=json  emit those log lines as JSON objects

formats:
  .dtd   one rule per line:  a := b*.c.e     (first rule = root; // comments)
  .xsl   one template per line:  tag -> body(@apply)
  .xml   element-only XML";
