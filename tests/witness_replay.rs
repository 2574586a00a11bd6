//! Witness extraction on the edge fixtures, with the replay contract
//! enforced: every counterexample the typechecker reports must re-execute
//! through the real transducer and fail output validation. The fixtures cover the degenerate output types — the
//! empty language (everything is a counterexample), the universal
//! language (nothing is), and a single-symbol alphabet.

use std::path::PathBuf;
use xmltc::dtd::Dtd;
use xmltc::obs::Json;
use xmltc::typecheck::TypecheckOptions;
use xmltc::xmlql::{DocumentPipeline, Stylesheet};

fn fixture(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn pipeline(dtd: &str, xsl: &str) -> DocumentPipeline {
    let dtd = Dtd::parse_text(&fixture(dtd)).unwrap();
    let sheet = Stylesheet::parse_text(&fixture(xsl)).unwrap();
    DocumentPipeline::new(sheet, dtd).unwrap()
}

/// Runs `explain` for one fixture triple and asserts the replay contract
/// on failing verdicts.
fn check(dtd: &str, xsl: &str, out_dtd: &str, expect_ok: bool) {
    let name = format!("{dtd}+{xsl}+{out_dtd}");
    let p = pipeline(dtd, xsl);
    let (verdict, report) = p
        .explain_against_with(&fixture(out_dtd), &TypecheckOptions::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(verdict.is_ok(), expect_ok, "{name}");
    assert_eq!(report.is_ok(), expect_ok, "{name}");
    if expect_ok {
        assert!(report.input.is_none(), "{name}: ok report must be bare");
        return;
    }
    // The counterexample must carry its full provenance chain...
    let input = report.input.as_ref().expect("input recorded");
    assert!(!input.term.is_empty(), "{name}");
    let transform = report.transform.as_ref().expect("run recorded");
    assert!(transform.total_steps > 0, "{name}");
    assert!(report.output.is_some(), "{name}: bad output recorded");
    assert!(report.violation.is_some(), "{name}: violation diagnosed");
    // ...and the replay verifier must independently confirm every leg.
    let replay = report.replay.as_ref().expect("replay recorded");
    assert!(
        replay.verified(),
        "{name}: replay not confirmed: {replay:?}"
    );
    // The JSON form carries the confirmation too.
    assert_eq!(
        report.to_json().at("replay.verified"),
        Some(&Json::Bool(true)),
        "{name}"
    );
}

#[test]
fn empty_output_type_everything_is_a_counterexample() {
    // `result := result` has the empty language: even the childless
    // input's output violates it.
    check("any_a.dtd", "relabel.xsl", "empty_out.dtd", false);
}

#[test]
fn universal_output_type_always_typechecks() {
    check("any_a.dtd", "relabel.xsl", "universal_out.dtd", true);
}

#[test]
fn single_symbol_alphabet_both_verdicts() {
    // Identity image vs. itself: typechecks.
    check("single.dtd", "single.xsl", "single_out.dtd", true);
    // Empty single-symbol spec: nothing conforms.
    check("single.dtd", "single.xsl", "single_out_strict.dtd", false);
}

#[test]
fn q2_mod2_variant_fails_with_verified_replay() {
    check("q2.dtd", "q2.xsl", "q2_mod2_out.dtd", false);
}

/// A report names the Theorem 4.7 route that decided it: the walk, for
/// the 1-pebble machine a stylesheet compiles to.
#[test]
fn reports_name_their_route() {
    let (_, report) = pipeline("any_a.dtd", "relabel.xsl")
        .explain_against_with(&fixture("even_b.dtd"), &TypecheckOptions::default())
        .unwrap();
    assert_eq!(report.route, "walk");
}
