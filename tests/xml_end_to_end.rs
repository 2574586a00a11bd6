//! End-to-end over the concrete XML syntax: parse → validate → transform →
//! serialize → typecheck, across every crate in the workspace.

use xmltc::dtd::Dtd;
use xmltc::trees::{decode, encode};
use xmltc::typecheck::differential::differential_emptiness;
use xmltc::typecheck::{typecheck, TypecheckOptions, TypecheckOutcome};
use xmltc::xml::{parse_document, raw_to_xml, to_xml};
use xmltc::xmlql::pipeline::{DocumentPipeline, DocumentVerdict};
use xmltc::xmlql::{Stylesheet, Template};

fn library_dtd() -> Dtd {
    Dtd::parse_text(
        "library := shelf*
         shelf := book*
         book := @eps",
    )
    .unwrap()
}

fn flattener() -> Stylesheet {
    // Flatten: a catalog of every book, shelves erased.
    Stylesheet::new(vec![
        Template::parse("library", "catalog(@apply)").unwrap(),
        Template::parse("shelf", "group(@apply)").unwrap(),
        Template::parse("book", "entry").unwrap(),
    ])
}

#[test]
fn parse_validate_transform_serialize() {
    let dtd = library_dtd();
    let doc = parse_document(
        "<library><shelf><book/><book/></shelf><shelf/><shelf><book/></shelf></library>",
        dtd.alphabet(),
    )
    .unwrap();
    dtd.validate(&doc).unwrap();
    assert_eq!(
        to_xml(&doc),
        "<library><shelf><book/><book/></shelf><shelf/><shelf><book/></shelf></library>"
    );

    let sheet = flattener();
    // Interpreter and compiled machine agree; serialize the result.
    let expected = sheet.apply(&doc).unwrap();
    let (t, enc_in, enc_out) = sheet.compile(dtd.alphabet()).unwrap();
    let out = xmltc::core::eval(&t, &encode(&doc, &enc_in).unwrap()).unwrap();
    let decoded = decode(&out, &enc_out).unwrap();
    assert_eq!(decoded.to_raw(), expected);
    assert_eq!(
        raw_to_xml(&expected),
        "<catalog><group><entry/><entry/></group><group/><group><entry/></group></catalog>"
    );
}

#[test]
fn typecheck_the_flattener() {
    let dtd = library_dtd();
    let sheet = flattener();
    let (t, enc_in, enc_out) = sheet.compile(dtd.alphabet()).unwrap();
    let tau1 = dtd.compile(&enc_in).unwrap();

    // Correct spec: a catalog of groups of entries.
    let good = Dtd::parse_text_with(
        "catalog := group*
         group := entry*
         entry := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    assert!(typecheck(&t, &tau1, &good, &TypecheckOptions::default())
        .unwrap()
        .is_ok());

    // Wrong spec: every group must be nonempty — empty shelves break it.
    let wrong = Dtd::parse_text_with(
        "catalog := group*
         group := entry+
         entry := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    match typecheck(&t, &tau1, &wrong, &TypecheckOptions::default()).unwrap() {
        TypecheckOutcome::CounterExample { input, bad_output } => {
            let doc = decode(&input, &enc_in).unwrap();
            // The offending input must contain an empty shelf.
            let has_empty_shelf = doc.preorder().iter().any(|&n| {
                doc.alphabet().name(doc.symbol(n)) == "shelf" && doc.children(n).is_empty()
            });
            assert!(
                has_empty_shelf,
                "counterexample {doc} must have an empty shelf"
            );
            let bad = decode(&bad_output.unwrap(), &enc_out).unwrap();
            assert!(bad
                .preorder()
                .iter()
                .any(|&n| bad.alphabet().name(bad.symbol(n)) == "group"
                    && bad.children(n).is_empty()));
        }
        TypecheckOutcome::Ok => panic!("empty shelves violate entry+"),
    }
}

fn fixture(name: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs one committed fixture triple through the document pipeline and
/// checks its witness against the built product's on the same violation
/// automaton; returns the verdict.
fn run_fixture(dtd: &str, xsl: &str, out_dtd: &str) -> DocumentVerdict {
    let dtd = Dtd::parse_text(&fixture(dtd)).unwrap();
    let sheet = Stylesheet::parse_text(&fixture(xsl)).unwrap();
    let (t, enc_in, enc_out) = sheet.compile(dtd.alphabet()).unwrap();
    let tau1 = dtd.compile(&enc_in).unwrap();
    let tau2 = Dtd::parse_text_with(&fixture(out_dtd), enc_out.source())
        .unwrap()
        .compile(&enc_out)
        .unwrap();
    let both = differential_emptiness(&t, &tau1, &tau2, &TypecheckOptions::default()).unwrap();
    assert!(both.agree(), "{out_dtd}: {both:?}");
    DocumentPipeline::new(sheet, dtd)
        .unwrap()
        .typecheck_against(&fixture(out_dtd))
        .unwrap()
}

/// Golden regression for the edge-case fixtures: the empty output type,
/// the universal output type, and the single-symbol alphabet — each
/// decided identically by the on-the-fly search and the built product.
#[test]
fn edge_case_fixtures_agree_across_engines() {
    // Empty τ₂: no output document conforms, so every valid input is a
    // counterexample — even the childless root.
    match run_fixture("any_a.dtd", "relabel.xsl", "empty_out.dtd") {
        DocumentVerdict::CounterExample { input, bad_output } => {
            assert_eq!(input.name, "root");
            let bad = bad_output.expect("bad output against empty type");
            assert_eq!(bad.name, "result");
        }
        DocumentVerdict::Ok => panic!("empty output type cannot be satisfied"),
    }

    // Universal τ₂: every output conforms, so the check passes.
    assert!(
        run_fixture("any_a.dtd", "relabel.xsl", "universal_out.dtd").is_ok(),
        "universal output type accepts everything"
    );

    // Single-symbol alphabet, identity transform: conforming spec passes,
    // empty-language spec fails on every input.
    assert!(
        run_fixture("single.dtd", "single.xsl", "single_out.dtd").is_ok(),
        "identity into the same single-symbol DTD"
    );
    match run_fixture("single.dtd", "single.xsl", "single_out_strict.dtd") {
        DocumentVerdict::CounterExample { input, .. } => assert_eq!(input.name, "s"),
        DocumentVerdict::Ok => panic!("strict single-symbol spec is empty"),
    }
}
