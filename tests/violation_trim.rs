//! The Proposition 4.6 product materializes only the pair states reachable
//! from the initial pair in the rule graph — the over-approximation
//! `trim_states` applies — so the typecheck path hands the product to the
//! walk without trimming it again. These tests pin that identity: for every
//! committed fixture triple and a corpus sample, the product and its
//! `trim_states()` have the same states, names and rule count, and the walk
//! builds the same DBTA with the same counters from both. A product that
//! stops pruning fails here.

use xmltc::automata::State;
use xmltc::core::machine::PebbleAutomaton;
use xmltc::dsl::{generate, CORPUS_STATE_LIMIT, FAMILIES};
use xmltc::dtd::Dtd;
use xmltc::typecheck::violation_automaton;
use xmltc::typecheck::walk::{walking_to_dbta_with, WalkOptions};
use xmltc::xmlql::{DocumentPipeline, Stylesheet};

/// The committed fixture triples: input DTD, stylesheet, output DTD.
const TRIPLES: [(&str, &str, &str); 8] = [
    ("q2.dtd", "q2.xsl", "q2_mod3_out.dtd"),
    ("q2.dtd", "q2.xsl", "q2_mod2_out.dtd"),
    ("even_a.dtd", "relabel.xsl", "even_b.dtd"),
    ("any_a.dtd", "relabel.xsl", "even_b.dtd"),
    ("any_a.dtd", "relabel.xsl", "empty_out.dtd"),
    ("any_a.dtd", "relabel.xsl", "universal_out.dtd"),
    ("single.dtd", "single.xsl", "single_out.dtd"),
    ("single.dtd", "single.xsl", "single_out_strict.dtd"),
];

fn fixture(name: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn names(a: &PebbleAutomaton) -> Vec<String> {
    let core = a.core();
    (0..core.n_states())
        .map(|q| core.state_name(State(q)).to_string())
        .collect()
}

/// Asserts that trimming the product `v` changes nothing the walk sees.
fn assert_trim_is_identity(v: &PebbleAutomaton, what: &str) {
    let t = v.trim_states();
    assert_eq!(names(v), names(&t), "{what}: states");
    assert_eq!(v.core().initial(), t.core().initial(), "{what}: initial");
    assert_eq!(v.core().n_rules(), t.core().n_rules(), "{what}: rules");
    let opts = WalkOptions {
        limit: CORPUS_STATE_LIMIT,
    };
    match (
        walking_to_dbta_with(v, &opts),
        walking_to_dbta_with(&t, &opts),
    ) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: DBTA and counters"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
        (a, b) => panic!("{what}: {:?} vs {:?}", a.map(|(_, s)| s), b.map(|(_, s)| s)),
    }
}

#[test]
fn fixture_products_are_already_trim() {
    for (dtd, xsl, out) in TRIPLES {
        let pipeline = DocumentPipeline::new(
            Stylesheet::parse_text(&fixture(xsl)).unwrap(),
            Dtd::parse_text(&fixture(dtd)).unwrap(),
        )
        .unwrap();
        let tau2 = pipeline.compile_output_dtd(&fixture(out)).unwrap();
        let v = violation_automaton(pipeline.transducer(), &tau2).unwrap();
        assert_trim_is_identity(&v, &format!("{dtd} × {xsl} × {out}"));
    }
}

#[test]
fn corpus_products_are_already_trim() {
    for family in FAMILIES {
        for index in 0..30 {
            let case = generate(0xc0de, family, index).compile().unwrap();
            let v = violation_automaton(&case.transducer, &case.tau2).unwrap();
            assert_trim_is_identity(&v, &format!("{family} #{index}"));
        }
    }
}
