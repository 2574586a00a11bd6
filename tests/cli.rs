//! Integration tests for the `xmltc` binary: exit codes, output shape,
//! and the observability surface (`--stats`, `--json`, `XMLTC_LOG`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xmltc"))
}

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn help_exits_zero() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("typecheck"));
    assert!(stdout(&out).contains("--stats"));
    assert!(stdout(&out).contains("--trace-out"));
    assert!(stdout(&out).contains("bench-diff"));
    assert!(stdout(&out).contains("--advisory"));
    assert!(stdout(&out).contains("explain"));
    assert!(stdout(&out).contains("--explain-out"));
    assert!(stdout(&out).contains("XMLTC_LOG_FORMAT"));
}

#[test]
fn no_args_is_usage_error() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"));
}

#[test]
fn unknown_command_is_usage_error() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn missing_file_is_usage_error() {
    let out = run(&["validate", "/nonexistent.dtd", &fixture("doc.xml")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn validate_accepts_and_rejects() {
    let out = run(&["validate", &fixture("even_a.dtd"), &fixture("doc.xml")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), "valid\n");

    // doc.xml has two a's; the DTD root := a? allows at most one... use a
    // stricter DTD: minimal.dtd (root := @eps) rejects children.
    let out = run(&["validate", &fixture("minimal.dtd"), &fixture("doc.xml")]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "alphabet mismatch is an input error"
    );
}

#[test]
fn validate_rejects_invalid_document() {
    // any_a.dtd and even_a.dtd share the alphabet {root, a}; a document
    // with an odd number of a's is valid for one, invalid for the other.
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let odd = dir.join("odd.xml");
    std::fs::write(&odd, "<root><a/></root>").unwrap();
    let odd = odd.to_str().unwrap().to_string();

    let out = run(&["validate", &fixture("any_a.dtd"), &odd]);
    assert_eq!(out.status.code(), Some(0));
    let out = run(&["validate", &fixture("even_a.dtd"), &odd]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).starts_with("invalid"));
}

/// A chain 100 000 deep validates: the parser, the tree and the validator
/// keep no call-stack frame per level.
#[test]
fn validate_accepts_a_chain_100000_deep() {
    let depth = 100_000;
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dtd = dir.join("chain.dtd");
    std::fs::write(&dtd, "doc := node*\nnode := (node|leaf)*\nleaf := @eps\n").unwrap();
    let doc = dir.join("chain-100000.xml");
    let text = format!(
        "<doc>{}<leaf/>{}</doc>",
        "<node>".repeat(depth),
        "</node>".repeat(depth)
    );
    std::fs::write(&doc, text).unwrap();
    let out = run(&["validate", dtd.to_str().unwrap(), doc.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), "valid\n");
}

#[test]
fn transform_outputs_xml() {
    let out = run(&[
        "transform",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("doc.xml"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), "<result><b/><b/></result>\n");
}

/// A flat document of 60 000 children transforms: evaluation and the
/// encoding of siblings keep no stack frame per child.
#[test]
fn transform_handles_a_flat_document_of_60000_children() {
    let n = 60_000;
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("flat-60000.xml");
    std::fs::write(&doc, format!("<root>{}</root>", "<a/>".repeat(n))).unwrap();
    let out = run(&[
        "transform",
        &fixture("q2.dtd"),
        &fixture("q2.xsl"),
        doc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let third = format!("<b/>{}", "<a/>".repeat(n));
    let expected = format!("<result>{}</result>\n", third.repeat(3));
    assert_eq!(stdout(&out).len(), expected.len());
    assert_eq!(stdout(&out), expected);
}

#[test]
fn typecheck_passes_on_even_dtd() {
    let out = run(&[
        "typecheck",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    // Byte-exact default output: the observability flags must not change
    // the plain verdict.
    assert_eq!(
        stdout(&out),
        "typechecks: every valid input maps into the output DTD\n"
    );
}

#[test]
fn typecheck_fails_with_counterexample() {
    // The least counterexample (fewest nodes first), byte for byte.
    let out = run(&[
        "typecheck",
        &fixture("any_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stdout(&out),
        "DOES NOT typecheck\n\
         counterexample input: <root><a/></root>\n\
         offending output:     <result><b/></result>\n"
    );
}

/// The human-readable provenance report is golden-pinned byte-for-byte:
/// counterexample input, the replayed transducer run, the offending
/// output, the DTD violation diagnosis, and the replay confirmation.
#[test]
fn explain_human_report_matches_golden() {
    let out = run(&[
        "explain",
        &fixture("any_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let golden = std::fs::read_to_string(fixture("golden/explain_relabel.txt")).unwrap();
    assert_eq!(stdout(&out), golden);
}

/// The JSON provenance report (schema `xmltc.explain/2`) is golden-pinned
/// byte-for-byte and stays parseable with a verified replay.
#[test]
fn explain_json_report_matches_golden() {
    use xmltc::obs::Json;
    let out = run(&[
        "explain",
        &fixture("any_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let s = stdout(&out);
    let golden = std::fs::read_to_string(fixture("golden/explain_relabel.json")).unwrap();
    assert_eq!(s, golden);
    let v = Json::parse(&s).unwrap();
    assert_eq!(
        v.at("schema").and_then(Json::as_str),
        Some("xmltc.explain/2")
    );
    assert_eq!(v.at("replay.verified"), Some(&Json::Bool(true)));
    assert_eq!(
        v.at("violation.production").and_then(Json::as_str),
        Some("result := (b.b)*")
    );
}

#[test]
fn explain_passing_spec_has_nothing_to_explain() {
    let out = run(&[
        "explain",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "typechecks (route walk): nothing to explain\n"
    );
}

/// Every failing fixture's counterexample replays: whatever input/output
/// pair the search reports, the report's replay section must confirm it.
#[test]
fn explain_replay_verifies_on_every_failing_fixture() {
    use xmltc::obs::Json;
    for [dtd, xsl, out_dtd] in [
        ["q2.dtd", "q2.xsl", "q2_mod2_out.dtd"],
        ["any_a.dtd", "relabel.xsl", "even_b.dtd"],
        ["any_a.dtd", "relabel.xsl", "empty_out.dtd"],
        ["single.dtd", "single.xsl", "single_out_strict.dtd"],
    ] {
        let out = run(&[
            "explain",
            &fixture(dtd),
            &fixture(xsl),
            &fixture(out_dtd),
            "--json",
        ]);
        assert_eq!(out.status.code(), Some(1), "{out_dtd}");
        let v = Json::parse(&stdout(&out)).unwrap();
        assert_eq!(
            v.at("replay.verified"),
            Some(&Json::Bool(true)),
            "{out_dtd}"
        );
        assert_eq!(
            v.at("verdict").and_then(Json::as_str),
            Some("counterexample"),
            "{out_dtd}"
        );
    }
}

#[test]
fn typecheck_explain_out_writes_report_file() {
    use xmltc::obs::Json;
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("explain_out.json");
    let out = run(&[
        "typecheck",
        &fixture("any_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--explain-out",
        report.to_str().unwrap(),
    ]);
    // The verdict on stdout is byte-identical to a plain typecheck run;
    // the report lands in the file, the note on stderr.
    assert_eq!(out.status.code(), Some(1));
    let s = stdout(&out);
    assert!(s.contains("DOES NOT typecheck"), "{s}");
    assert!(s.contains("counterexample input: <root><a/></root>"), "{s}");
    assert!(
        stderr(&out).contains("explain report written to"),
        "{}",
        stderr(&out)
    );
    let text = std::fs::read_to_string(&report).unwrap();
    let golden = std::fs::read_to_string(fixture("golden/explain_relabel.json")).unwrap();
    assert_eq!(text, golden);
    let v = Json::parse(&text).unwrap();
    assert_eq!(v.at("replay.verified"), Some(&Json::Bool(true)));

    // On a passing instance the file records the minimal ok report.
    let ok_report = dir.join("explain_ok.json");
    let out = run(&[
        "typecheck",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--explain-out",
        ok_report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let v = Json::parse(&std::fs::read_to_string(&ok_report).unwrap()).unwrap();
    assert_eq!(v.at("verdict").and_then(Json::as_str), Some("ok"));
    assert!(v.at("input").is_none());
}

#[test]
fn explain_flag_errors() {
    // `--stats`/`--trace-out` belong to typecheck, not explain.
    let out = run(&["explain", "a.dtd", "b.xsl", "c.dtd", "--stats"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--stats"), "{}", stderr(&out));
    // `--explain-out` needs a path, and is a typecheck-level flag.
    let out = run(&["typecheck", "a.dtd", "b.xsl", "c.dtd", "--explain-out"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--explain-out requires"),
        "{}",
        stderr(&out)
    );
    let out = run(&["validate", "a.dtd", "d.xml", "--explain-out", "x.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));
}

#[test]
fn typecheck_stats_appends_phase_table() {
    let out = run(&[
        "typecheck",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    // Verdict line is preserved verbatim, table follows.
    assert!(s.starts_with("typechecks: every valid input maps into the output DTD\n"));
    for needle in [
        "phase",
        "wall_ms",
        "pipeline.compile",
        "input_dtd.compile",
        "typecheck.product",
        "typecheck.walk",
        "automata.lazy",
        "verdict.ok=1",
    ] {
        assert!(s.contains(needle), "missing `{needle}` in:\n{s}");
    }
}

/// Extracts `"key": value` from the (pretty-printed) JSON report.
fn json_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let i = s.find(&pat)? + pat.len();
    let rest = &s[i..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[test]
fn typecheck_json_emits_full_report() {
    let out = run(&[
        "typecheck",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("\"schema\": \"xmltc.pipeline-report/1\""));
    assert!(s.contains("\"wall_ms\":"));
    for span in [
        "pipeline.compile",
        "input_dtd.compile",
        "output_dtd.compile",
        "typecheck",
        "typecheck.product",
        "typecheck.walk",
        "automata.lazy",
    ] {
        assert!(
            s.contains(&format!("\"name\": \"{span}\"")),
            "span {span}:\n{s}"
        );
    }
    // Nonzero automaton sizes for the key phases.
    assert!(json_u64(&s, "tau1.states").unwrap() > 0);
    assert!(json_u64(&s, "pebble.states").unwrap() > 0);
    assert!(json_u64(&s, "violation.states").unwrap() > 0);
    assert!(json_u64(&s, "walk.dbta_states").unwrap() > 0);
    assert_eq!(json_u64(&s, "verdict.ok"), Some(1));
    // The emptiness search reports what it made, not a built product.
    assert!(json_u64(&s, "lazy.states_materialized").unwrap() > 0);
    assert!(json_u64(&s, "lazy.states_eager").unwrap() > 0);
    assert_eq!(json_u64(&s, "lazy.subset_states"), Some(0));
    // Lazy never pays for more states than the eager product holds.
    assert!(
        json_u64(&s, "lazy.states_materialized").unwrap()
            <= json_u64(&s, "lazy.states_eager").unwrap()
    );
}

/// The emptiness search is not selectable: `--engine` is gone.
#[test]
fn typecheck_engine_flag_is_unknown() {
    let out = run(&[
        "typecheck",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--engine",
        "lazy",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));
}

/// A walk stopped by its state budget still says how far it got: the
/// partial table's `typecheck.walk` row carries the walk's counters. The
/// document path's walk is guided by the input DTD: it has interned 5
/// signatures and reached 10 (signature, τ₁-state) pairs in 4 generations
/// when the sixth signature breaks the budget, on its eighth composition.
#[test]
fn typecheck_walk_budget_abort_reports_partial_progress() {
    let out = run(&[
        "typecheck",
        &fixture("q2.dtd"),
        &fixture("q2.xsl"),
        &fixture("q2_mod3_out.dtd"),
        "--stats",
        "--state-limit",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "error: state/class budget exceeded: 6 states\n"
    );
    let s = stdout(&out);
    let row = s
        .lines()
        .find(|l| l.trim_start().starts_with("typecheck.walk "))
        .unwrap_or_else(|| panic!("no typecheck.walk row in:\n{s}"));
    for counter in [
        "walk.dbta_states=5",
        "walk.rounds=4",
        "walk.compositions=8",
        "walk.tau1_pairs=10",
    ] {
        assert!(row.contains(counter), "missing `{counter}` in:\n{row}");
    }
}

/// A reader that goes away early (`xmltc … | head`) cuts the output short
/// without a panic, and the command still exits with its verdict's code.
#[test]
fn closed_stdout_is_not_a_panic() {
    use std::process::Stdio;
    let (any_a, even_a) = (fixture("any_a.dtd"), fixture("even_a.dtd"));
    let (relabel, even_b) = (fixture("relabel.xsl"), fixture("even_b.dtd"));
    for (args, code) in [
        (["explain", &any_a, &relabel, &even_b, "--json"], 1),
        (["typecheck", &even_a, &relabel, &even_b, "--stats"], 0),
    ] {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
    }
}

#[test]
fn unknown_flag_is_usage_error() {
    let out = run(&[
        "typecheck",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--frobnicate",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"));
    // The machine's pebble count picks the Theorem 4.7 route; no flag does.
    let (even_a, relabel, even_b) = (
        fixture("even_a.dtd"),
        fixture("relabel.xsl"),
        fixture("even_b.dtd"),
    );
    for cmd in ["typecheck", "explain"] {
        let out = run(&[cmd, &even_a, &relabel, &even_b, "--route", "walk"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(stderr(&out).contains("unknown flag"), "{cmd}");
    }
    let out = run(&[
        "client",
        "127.0.0.1:9",
        "typecheck",
        &even_a,
        &relabel,
        &even_b,
        "--route",
        "walk",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));

    // Pipeline flags are rejected on the reporting-only commands...
    let out = run(&[
        "validate",
        &fixture("even_a.dtd"),
        &fixture("doc.xml"),
        "--route",
        "walk",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"));
    // ...and every flag is rejected on `forward`, which takes none.
    let out = run(&[
        "forward",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"));
}

#[test]
fn bad_flag_values_are_usage_errors() {
    let base = [
        "typecheck",
        // Paths resolved lazily — flag errors must win first.
        "a.dtd",
        "b.xsl",
        "c.dtd",
    ];
    let out = run(&[&base[..], &["--state-limit", "many"]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("invalid state limit"));
    let out = run(&[&base[..], &["--state-limit"]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--state-limit requires"));
    // `--route` is gone, with or without a value.
    for route in [&["--route", "sideways"][..], &["--route"]] {
        let out = run(&[&base[..], route].concat());
        assert_eq!(out.status.code(), Some(2));
        assert!(stderr(&out).contains("unknown flag `--route`"));
    }
}

#[test]
fn forward_baseline_exit_codes() {
    // relabel is a per-tag homomorphism, so forward inference is exact on
    // even_a: the image of (a.a)* is (b.b)* and the spec is proved.
    let out = run(&[
        "forward",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("proves the spec"));

    // Under any_a the image is b*, which leaks outside (b.b)*.
    let out = run(&[
        "forward",
        &fixture("any_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stdout(&out).contains("cannot prove"));
    assert!(stdout(&out).contains("image witness"));
}

#[test]
fn xmltc_log_traces_to_stderr() {
    let out = bin()
        .args([
            "typecheck",
            &fixture("even_a.dtd"),
            &fixture("relabel.xsl"),
            &fixture("even_b.dtd"),
        ])
        .env("XMLTC_LOG", "1")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    // Structured prefix: `[xmltc +SECONDS s LEVEL]` then the span arrows.
    assert!(err.contains("[xmltc +"), "{err}");
    assert!(err.contains("info] -> typecheck"), "{err}");
    assert!(err.contains("<- typecheck"), "{err}");
    // Nesting indents the lines without `--stats` too: the log keeps its
    // own depth, whether or not a report is captured.
    assert!(err.contains("info]   -> xmlql.compile"), "{err}");
    // Every log line carries the level and a monotonic timestamp.
    let mut last_ts = 0.0f64;
    for line in err.lines().filter(|l| l.starts_with("[xmltc +")) {
        assert!(line.contains(" info] "), "level missing: {line}");
        let ts: f64 = line["[xmltc +".len()..line.find('s').unwrap()]
            .parse()
            .unwrap_or_else(|_| panic!("bad timestamp: {line}"));
        assert!(ts >= last_ts, "timestamps not monotonic: {err}");
        last_ts = ts;
    }
    // And stdout stays byte-identical.
    assert_eq!(
        stdout(&out),
        "typechecks: every valid input maps into the output DTD\n"
    );
}

#[test]
fn xmltc_log_format_json_emits_json_lines() {
    use xmltc::obs::Json;
    let out = bin()
        .args([
            "typecheck",
            &fixture("even_a.dtd"),
            &fixture("relabel.xsl"),
            &fixture("even_b.dtd"),
        ])
        .env("XMLTC_LOG", "1")
        .env("XMLTC_LOG_FORMAT", "json")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    // Every log line is one JSON object with the structured fields.
    let lines: Vec<&str> = err.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!lines.is_empty(), "no JSON log lines in:\n{err}");
    let mut saw_enter = false;
    let mut saw_exit = false;
    for line in &lines {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad log line `{line}`: {e}"));
        assert!(v.at("ts").and_then(Json::as_f64).is_some(), "{line}");
        assert_eq!(v.at("level").and_then(Json::as_str), Some("info"), "{line}");
        assert!(v.at("span").and_then(Json::as_str).is_some(), "{line}");
        match v.at("event").and_then(Json::as_str) {
            Some("enter") => saw_enter = true,
            Some("exit") => {
                saw_exit = true;
                assert!(v.at("wall_ms").and_then(Json::as_f64).is_some(), "{line}");
            }
            other => panic!("unexpected event {other:?} in {line}"),
        }
    }
    assert!(saw_enter && saw_exit);
    assert!(
        lines.iter().any(|l| l.contains("\"span\":\"typecheck\"")),
        "{err}"
    );
    let nested = lines
        .iter()
        .map(|l| Json::parse(l).unwrap())
        .find(|v| v.at("span").and_then(Json::as_str) == Some("xmlql.compile"))
        .unwrap_or_else(|| panic!("no xmlql.compile line in:\n{err}"));
    assert_eq!(nested.at("depth").and_then(Json::as_u64), Some(1), "{err}");
    assert_eq!(
        stdout(&out),
        "typechecks: every valid input maps into the output DTD\n"
    );
}

#[test]
fn typecheck_json_reports_walk_counters() {
    let out = run(&[
        "typecheck",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(json_u64(&s, "walk.pairs").unwrap() > 0);
    assert!(json_u64(&s, "walk.compositions").unwrap() > 0);
    assert!(json_u64(&s, "walk.memo_hits").is_some());
    assert!(json_u64(&s, "walk.fixpoint_steps").unwrap() > 0);
    assert!(json_u64(&s, "product.pairs_pruned").is_some());
}

#[test]
fn validate_stats_and_json_report_phases() {
    let base = ["validate", &fixture("even_a.dtd"), &fixture("doc.xml")];
    let out = run(&base.iter().copied().chain(["--stats"]).collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.starts_with("valid\n"), "{s}");
    for needle in ["dtd.parse", "xml.parse", "dtd.validate", "verdict.ok=1"] {
        assert!(s.contains(needle), "missing `{needle}` in:\n{s}");
    }

    let out = run(&base.iter().copied().chain(["--json"]).collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("\"schema\": \"xmltc.pipeline-report/1\""));
    assert!(s.contains("\"name\": \"dtd.validate\""));
    assert_eq!(json_u64(&s, "verdict.ok"), Some(1));
    // JSON replaces the plain verdict line.
    assert!(!s.contains("valid\n"), "{s}");

    // An invalid document keeps its exit code under --json, and the
    // verdict lands in the report instead of the (suppressed) text.
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let odd = dir.join("odd_report.xml");
    std::fs::write(&odd, "<root><a/></root>").unwrap();
    let out = run(&[
        "validate",
        &fixture("even_a.dtd"),
        odd.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let s = stdout(&out);
    assert_eq!(json_u64(&s, "verdict.ok"), Some(0));
    assert!(!s.contains("invalid:"), "{s}");
}

#[test]
fn transform_stats_and_json_report_phases() {
    let base = [
        "transform",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("doc.xml"),
    ];
    let out = run(&base.iter().copied().chain(["--stats"]).collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.starts_with("<result><b/><b/></result>\n"), "{s}");
    for needle in ["dtd.parse", "sheet.parse", "xml.parse"] {
        assert!(s.contains(needle), "missing `{needle}` in:\n{s}");
    }

    let out = run(&base.iter().copied().chain(["--json"]).collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("\"schema\": \"xmltc.pipeline-report/1\""));
    assert!(s.contains("\"name\": \"sheet.parse\""));
    assert!(!s.contains("<result>"), "JSON replaces the document:\n{s}");
}

/// The headline acceptance check: tracing a typecheck of the Example 4.3
/// (Q2) pipeline yields a valid Chrome trace with the main thread's
/// track, one span per walk composition and counter tracks for the
/// hot-loop gauges.
#[test]
fn typecheck_trace_out_writes_chrome_trace() {
    use xmltc::obs::Json;
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("q2_trace.json");
    let trace_path = trace.to_str().unwrap().to_string();
    let out = run(&[
        "typecheck",
        &fixture("q2.dtd"),
        &fixture("q2.xsl"),
        &fixture("q2_mod3_out.dtd"),
        "--trace-out",
        &trace_path,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    // The verdict on stdout is untouched; the trace note goes to stderr.
    assert_eq!(
        stdout(&out),
        "typechecks: every valid input maps into the output DTD\n"
    );
    assert!(
        stderr(&out).contains("trace written to"),
        "{}",
        stderr(&out)
    );

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = Json::parse(&text).expect("trace is valid JSON");
    assert_eq!(doc.at("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let Some(Json::Array(events)) = doc.at("traceEvents") else {
        panic!("traceEvents array");
    };
    assert!(!events.is_empty());

    let with_ph = |ph: &'static str| {
        events
            .iter()
            .filter(move |e| e.at("ph").and_then(Json::as_str) == Some(ph))
    };
    // The walk runs on the main thread, which has its own track.
    let tracks: Vec<&str> = with_ph("M")
        .filter_map(|e| e.at("args.name").and_then(Json::as_str))
        .collect();
    assert!(tracks.contains(&"main"), "{tracks:?}");
    // Counter tracks for the hot-loop gauges, each sample carrying a value.
    let counters: Vec<&str> = with_ph("C")
        .filter_map(|e| e.at("name").and_then(Json::as_str))
        .collect();
    for gauge in [
        "walk.frontier_jobs",
        "walk.memo_hits",
        "walk.memo_misses",
        "lazy.states_materialized",
    ] {
        assert!(counters.contains(&gauge), "missing counter `{gauge}`");
    }
    assert!(with_ph("C").all(|e| e.at("args.value").and_then(Json::as_u64).is_some()));
    // One composition span per fixpoint run (the leaf plus the 9
    // projection pairs a tree of the input DTD can contain), opened and
    // closed in matched pairs.
    let span_count = |ph: &'static str| {
        with_ph(ph)
            .filter(|e| e.at("name").and_then(Json::as_str) == Some("walk.job"))
            .count()
    };
    assert_eq!(span_count("B"), 10);
    assert_eq!(span_count("B"), span_count("E"));
    // Every frontier round dropped an instant marker.
    assert!(with_ph("i").any(|e| e.at("name").and_then(Json::as_str) == Some("walk.round")));
}

/// The (`name`, `ph`) multiset of a Chrome trace file.
fn trace_shape(path: &std::path::Path) -> std::collections::BTreeMap<(String, String), usize> {
    use xmltc::obs::Json;
    let doc = Json::parse(&std::fs::read_to_string(path).expect("trace written")).unwrap();
    let Some(Json::Array(events)) = doc.at("traceEvents") else {
        panic!("traceEvents array");
    };
    let mut shape = std::collections::BTreeMap::new();
    for e in events {
        let field = |k: &str| e.at(k).and_then(Json::as_str).unwrap().to_string();
        *shape.entry((field("name"), field("ph"))).or_default() += 1;
    }
    shape
}

/// A report must not depend on `--trace-out`, and a trace must not
/// depend on `--stats`: both come from the same recorded events.
#[test]
fn trace_and_report_do_not_depend_on_each_other() {
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let q2 = [
        "typecheck",
        &fixture("q2.dtd"),
        &fixture("q2.xsl"),
        &fixture("q2_mod3_out.dtd"),
    ]
    .map(String::from);
    let run_with = |extra: &[&str]| {
        let args: Vec<&str> = q2
            .iter()
            .map(String::as_str)
            .chain(extra.iter().copied())
            .collect();
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        out
    };

    let plain = dir.join("q2_shape_plain.json");
    let stats = dir.join("q2_shape_stats.json");
    run_with(&["--trace-out", plain.to_str().unwrap()]);
    run_with(&["--trace-out", stats.to_str().unwrap(), "--stats"]);
    let shape = trace_shape(&plain);
    assert_eq!(shape, trace_shape(&stats));
    for counter in ["nta.trims", "lazy.states_eager", "lazy.states_materialized"] {
        assert!(
            shape.contains_key(&(counter.to_string(), "C".to_string())),
            "missing `{counter}` track without --stats"
        );
    }

    let without_wall = |out: Output| -> String {
        let s = stdout(&out);
        s.lines()
            .filter(|l| !l.contains("\"wall_ms\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let traced = dir.join("q2_shape_json.json");
    assert_eq!(
        without_wall(run_with(&["--json"])),
        without_wall(run_with(&[
            "--json",
            "--trace-out",
            traced.to_str().unwrap()
        ]))
    );
}

#[test]
fn validate_trace_out_records_phase_spans() {
    use xmltc::obs::Json;
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("validate_trace.json");
    let out = run(&[
        "validate",
        &fixture("even_a.dtd"),
        &fixture("doc.xml"),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), "valid\n");
    let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let Some(Json::Array(events)) = doc.at("traceEvents") else {
        panic!("traceEvents array");
    };
    let begins: Vec<&str> = events
        .iter()
        .filter(|e| e.at("ph").and_then(Json::as_str) == Some("B"))
        .filter_map(|e| e.at("name").and_then(Json::as_str))
        .collect();
    for span in ["dtd.parse", "xml.parse", "dtd.validate"] {
        assert!(
            begins.contains(&span),
            "missing span `{span}` in {begins:?}"
        );
    }
}

const WORKLOADS: [&str; 3] = ["typecheck-mix", "transform-docs", "serve-mix"];

/// Writes a fresh directory of hand-made `benchmark/run.py` result files:
/// five `--trace 0` seeds per workload, whose `ops_per_s` is
/// `ops(workload, seed)`, and one traced file that bench-diff must skip.
fn result_dir(name: &str, ops: impl Fn(&str, u64) -> f64) -> String {
    let dir = std::env::temp_dir().join("xmltc-cli-test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for workload in WORKLOADS {
        for seed in 1..=5 {
            let text = format!(
                r#"{{"run": {{"workload": "{workload}", "seed": {seed}, "trace": 0}},
                    "ledger": {{"attempted": 1000, "failed": 2, "decided": 998}},
                    "end_to_end": {{"setup_s": 0.01, "latency_ms_p50": 0.05,
                      "latency_ms_p99": 2.5e-1, "ops_per_s": {}, "decided_share": 0.998,
                      "peak_rss_mb": 10.5}}}}"#,
                ops(workload, seed)
            );
            let file = format!("{workload}-seed{seed}-trace0.result.json");
            std::fs::write(dir.join(file), text).unwrap();
        }
    }
    let traced = r#"{"run": {"workload": "serve-mix", "trace": 1}, "per_layer": {}}"#;
    std::fs::write(dir.join("serve-mix-seed1-trace1.result.json"), traced).unwrap();
    dir.to_str().unwrap().to_string()
}

#[test]
fn bench_diff_exit_codes() {
    let base = result_dir("bd_base", |_, _| 5000.0);
    let same = result_dir("bd_same", |_, _| 5000.0);

    // Equal results: one row per workload × end-to-end metric, plus each
    // workload's failed share, and no regression.
    let out = run(&["bench-diff", &base, &same]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let table = stdout(&out);
    for workload in WORKLOADS {
        for metric in [
            "setup_s",
            "latency_ms_p50",
            "latency_ms_p99",
            "ops_per_s",
            "decided_share",
            "peak_rss_mb",
            "failed_share",
        ] {
            let row = format!("{workload}/{metric} ");
            assert!(table.lines().any(|l| l.starts_with(&row)), "{row}\n{table}");
        }
    }
    assert_eq!(table.lines().filter(|l| l.ends_with("  ok")).count(), 21);

    // serve-mix's ops_per_s fell 20%, past its 15% bound: exit 1.
    let worse = result_dir(
        "bd_worse",
        |w, _| if w == "serve-mix" { 4000.0 } else { 5000.0 },
    );
    let out = run(&["bench-diff", &base, &worse]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let regressed: Vec<String> = stdout(&out)
        .lines()
        .filter(|l| l.ends_with("REGRESSED"))
        .map(|l| l.split(' ').next().unwrap().to_string())
        .collect();
    assert_eq!(regressed, ["serve-mix/ops_per_s"]);
    assert!(
        stderr(&out).contains("serve-mix/ops_per_s"),
        "{}",
        stderr(&out)
    );

    // Advisory mode reports but does not fail.
    let out = run(&["bench-diff", &base, &worse, "--advisory"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stderr(&out).contains("advisory mode"), "{}", stderr(&out));

    // The same drop against a baseline whose quartiles (4 250 and 5 750)
    // spread 30% around its median stays inside that spread.
    let wide = result_dir("bd_wide", |_, seed| 2750.0 + 750.0 * seed as f64);
    let out = run(&["bench-diff", &wide, &worse]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("30.0%"), "{}", stdout(&out));

    // --json emits the machine-readable diff.
    let out = run(&["bench-diff", &base, &worse, "--json", "--advisory"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("xmltc.bench-diff/2"));
    assert!(xmltc::obs::Json::parse(&stdout(&out)).is_ok());

    // An empty directory, a garbage result file, unknown flags (the old
    // `--threshold` among them) and wrong arity are usage errors.
    let empty = result_dir("bd_empty", |_, _| 0.0);
    for entry in std::fs::read_dir(&empty).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).unwrap();
    }
    let out = run(&["bench-diff", &base, &empty]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("no `--trace 0` result files"),
        "{}",
        stderr(&out)
    );
    let garbage = result_dir("bd_garbage", |_, _| 5000.0);
    std::fs::write(format!("{garbage}/x.result.json"), "not json").unwrap();
    let out = run(&["bench-diff", &base, &garbage]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot parse"), "{}", stderr(&out));
    for flag in ["--frobnicate", "--threshold"] {
        let out = run(&["bench-diff", &base, &same, flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
    let out = run(&["bench-diff", &base]);
    assert_eq!(out.status.code(), Some(2));
}

/// The committed ledger must self-diff clean, with every row present: the
/// degenerate case of CI's diff of a fresh run against it.
#[test]
fn bench_diff_committed_baseline_self_diffs_clean() {
    let ledger = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_workloads");
    let ledger = ledger.to_str().unwrap();
    let out = run(&["bench-diff", ledger, ledger]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert_eq!(s.lines().filter(|l| l.ends_with("  ok")).count(), 21, "{s}");
}

/// `xmltc corpus --list` prints the adversarial family names.
#[test]
fn corpus_lists_families() {
    let out = run(&["corpus", "--list"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    for family in [
        "silent-chains",
        "deep-nesting",
        "near-empty",
        "near-universal",
        "single-symbol",
        "dead-states",
    ] {
        assert!(s.contains(family), "missing family {family}:\n{s}");
    }
}

/// Regenerating a corpus case prints the triple, the built product's and
/// the on-the-fly search's witnesses, and exits 0 when they agree — for
/// every family at index 0.
#[test]
fn corpus_regenerates_and_runs_both_engines() {
    for family in [
        "silent-chains",
        "deep-nesting",
        "near-empty",
        "near-universal",
        "single-symbol",
        "dead-states",
    ] {
        let out = run(&["corpus", family, "0"]);
        assert_eq!(out.status.code(), Some(0), "{family}: {}", stderr(&out));
        let s = stdout(&out);
        assert!(s.contains(&format!("case family={family} index=0")), "{s}");
        assert!(s.contains("machine"), "{s}");
        assert!(s.contains("grammar tau1"), "{s}");
        assert!(s.contains("grammar tau2"), "{s}");
        assert!(s.contains("digest: 0x"), "{s}");
        assert!(s.contains("eager: "), "{s}");
        assert!(s.contains("lazy:  "), "{s}");
        assert!(s.contains("engines agree"), "{s}");
    }
}

/// The same (family, index, seed) prints the same case twice — the CLI is
/// a replay tool, so determinism is the whole point.
#[test]
fn corpus_is_deterministic_and_seed_sensitive() {
    let a = run(&["corpus", "silent-chains", "3"]);
    let b = run(&["corpus", "silent-chains", "3"]);
    assert_eq!(stdout(&a), stdout(&b));
    // An explicit --seed switches the stream (0xc0de is the default).
    let c = run(&["corpus", "silent-chains", "3", "--seed", "0xc0de"]);
    assert_eq!(stdout(&a), stdout(&c));
    let d = run(&["corpus", "silent-chains", "3", "--seed", "7"]);
    assert_ne!(stdout(&a), stdout(&d));
}

/// `--minimize` on a failing case prints a shrunken triple that still
/// renders as a full scenario.
#[test]
fn corpus_minimize_prints_shrunken_triple() {
    // near-empty #1 under the default seed fails its spec (pinned by the
    // golden digests; if the generator changes, pick a new failing index).
    let out = run(&["corpus", "near-empty", "1", "--minimize"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("eager: counterexample"), "{s}");
    assert!(
        s.contains("minimized while preserving the counterexample"),
        "{s}"
    );
    let shrunk = s.split("minimized while preserving").nth(1).unwrap();
    assert!(shrunk.contains("machine"), "{s}");
    assert!(shrunk.contains("grammar tau2"), "{s}");
}

/// Bad family names, indices, and seeds are usage errors.
#[test]
fn corpus_rejects_bad_arguments() {
    let out = run(&["corpus", "no-such-family", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown family"), "{}", stderr(&out));
    let out = run(&["corpus", "near-empty", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("invalid case index"),
        "{}",
        stderr(&out)
    );
    let out = run(&["corpus", "near-empty", "0", "--seed", "zz"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("invalid seed"), "{}", stderr(&out));
    let out = run(&["corpus", "near-empty"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["corpus", "near-empty", "0", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["corpus", "near-empty", "0", "--state-limit", "zz"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("invalid state limit"),
        "{}",
        stderr(&out)
    );
}

/// Full service round-trip through the real binary: spawn `xmltc serve`,
/// run the same `xmltc client typecheck` twice, and require the warm
/// response to come from the artifact cache — verdict byte-identical to
/// the cold one, `cache.verdict=hit`, and zero walk-construction metrics.
#[test]
fn serve_client_round_trip_hits_artifact_cache() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use xmltc::obs::Json;

    let mut server = bin()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    // The serve command prints (and flushes) this exact line once bound.
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().expect("banner line").unwrap();
    let addr = banner
        .strip_prefix("xmltc serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    let typecheck = |name: &str| -> Json {
        let out = run(&[
            "client",
            &addr,
            "typecheck",
            &fixture("even_a.dtd"),
            &fixture("relabel.xsl"),
            &fixture("even_b.dtd"),
            "--json",
        ]);
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stderr(&out));
        Json::parse(stdout(&out).trim()).expect("response is one JSON line")
    };
    let cold = typecheck("cold");
    let warm = typecheck("warm");
    for resp in [&cold, &warm] {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            resp.at("result.verdict").and_then(Json::as_str),
            Some("typechecks")
        );
    }
    // Cold run built the verdict; warm run must be a pure cache hit.
    assert_eq!(
        cold.at("cache.verdict").and_then(Json::as_str),
        Some("miss")
    );
    assert_eq!(warm.at("cache.verdict").and_then(Json::as_str), Some("hit"));
    // The cold request misses on each of the four layers it builds
    // (pipeline, τ₂, violations, verdict); the warm one touches only the
    // verdict layer, and hits.
    let cache_count = |resp: &Json, k: &str| resp.at(&format!("cache.{k}")).and_then(Json::as_u64);
    assert_eq!(cache_count(&cold, "misses"), Some(4));
    assert_eq!(cache_count(&cold, "hits"), Some(0));
    assert_eq!(cache_count(&warm, "hits"), Some(1));
    assert_eq!(cache_count(&warm, "misses"), Some(0));
    // The deterministic verdict payload is byte-identical across runs.
    assert_eq!(
        cold.get("result").unwrap().encode(),
        warm.get("result").unwrap().encode()
    );
    // Zero construction work on the warm path: no walk/mso metrics.
    let warm_metrics = warm.get("metrics").unwrap().encode();
    assert!(!warm_metrics.contains("walk."), "{warm_metrics}");
    assert!(!warm_metrics.contains("mso."), "{warm_metrics}");

    // Human rendering of the warm response surfaces the cache line.
    let out = run(&[
        "client",
        &addr,
        "typecheck",
        &fixture("even_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(
        s.starts_with("typechecks: every valid input maps into the output DTD\n"),
        "{s}"
    );
    assert!(s.contains("cache: verdict=hit"), "{s}");

    // Negative verdicts keep their local exit code through the wire.
    let out = run(&[
        "client",
        &addr,
        "typecheck",
        &fixture("any_a.dtd"),
        &fixture("relabel.xsl"),
        &fixture("even_b.dtd"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("DOES NOT typecheck"),
        "{}",
        stdout(&out)
    );

    // Shutdown flushes the final report table from the server process.
    let out = run(&["client", &addr, "shutdown"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("server shutting down"));
    let status = server.wait().expect("server exits");
    assert!(status.success());
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    let table = rest.join("\n");
    for needle in ["serve.requests", "cache.hits", "cache.misses"] {
        assert!(table.contains(needle), "missing `{needle}` in:\n{table}");
    }
}

/// Starts `serve --oneshot` (with `--trace-out` when given), waits for
/// its banner, sends one `client typecheck` of the Q2 triple and returns
/// the response once the server has exited.
fn oneshot_q2_typecheck(trace_out: Option<&str>) -> xmltc::obs::Json {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--oneshot"];
    if let Some(path) = trace_out {
        args.extend(["--trace-out", path]);
    }
    let mut server = bin()
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut reader = BufReader::new(server.stdout.take().unwrap());
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("xmltc serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    let out = run(&[
        "client",
        &addr,
        "typecheck",
        &fixture("q2.dtd"),
        &fixture("q2.xsl"),
        &fixture("q2_mod3_out.dtd"),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    // Drain the final report, so the server never blocks on a full pipe.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(server.wait().expect("server exits").success());
    xmltc::obs::Json::parse(stdout(&out).trim()).expect("response is one JSON line")
}

/// `serve --trace-out` records each request on its connection thread's
/// track, and tracing leaves the per-request metrics as they are.
#[test]
fn serve_trace_out_records_requests_on_connection_tracks() {
    use xmltc::obs::Json;
    let dir = std::env::temp_dir().join("xmltc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("serve_trace.json");
    let traced = oneshot_q2_typecheck(Some(trace.to_str().unwrap()));
    let plain = oneshot_q2_typecheck(None);
    assert_eq!(
        traced.at("result.verdict").and_then(Json::as_str),
        Some("typechecks")
    );
    assert_eq!(
        traced.get("metrics").unwrap().encode(),
        plain.get("metrics").unwrap().encode()
    );

    let doc = Json::parse(&std::fs::read_to_string(&trace).expect("trace written")).unwrap();
    let Some(Json::Array(events)) = doc.at("traceEvents") else {
        panic!("traceEvents array");
    };
    let field = |e: &Json, k: &str| e.at(k).and_then(Json::as_str).map(str::to_string);
    let serve_tids: Vec<u64> = events
        .iter()
        .filter(|e| field(e, "ph").as_deref() == Some("M"))
        .filter(|e| field(e, "args.name").is_some_and(|n| n.starts_with("xmltc-serve-")))
        .filter_map(|e| e.at("tid").and_then(Json::as_u64))
        .collect();
    assert_eq!(serve_tids.len(), 1, "one connection track");
    let on_track = |name: &str, ph: &str| {
        events
            .iter()
            .filter(|e| field(e, "name").as_deref() == Some(name))
            .filter(|e| field(e, "ph").as_deref() == Some(ph))
            .map(|e| e.at("tid").and_then(Json::as_u64))
            .collect::<Vec<_>>()
    };
    let tid = Some(serve_tids[0]);
    assert_eq!(on_track("serve.request", "B"), [tid]);
    assert_eq!(on_track("serve.request", "E"), [tid]);
    let hits = on_track("cache.hits", "C");
    assert!(
        !hits.is_empty() && hits.iter().all(|&t| t == tid),
        "{hits:?}"
    );
}

/// An un-runnable state budget turns the verdict into an explicit
/// "resource skip" (exit 0, mirroring the harness) instead of an error —
/// and the default budget runs the same case to an actual verdict.
#[test]
fn corpus_state_limit_reports_resource_skip() {
    let out = run(&["corpus", "silent-chains", "3", "--state-limit", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("resource skip: state budget exceeded"),
        "{text}"
    );
    assert!(text.contains("raise with --state-limit"), "{text}");
    // The same case under the default budget reaches a real verdict.
    let out = run(&["corpus", "silent-chains", "3"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("engines agree"), "{}", stdout(&out));
}
