//! Property test: the direct DTD validator and the compiled tree automaton
//! over encoded binary trees must agree on every document.
//!
//! Driven by the workspace's deterministic [`SmallRng`]; each test runs a
//! fixed number of seeded cases.

use xmltc_dtd::{Diagnosis, Dtd, DtdError};
use xmltc_trees::{encode, EncodedAlphabet, RawTree, SmallRng, UnrankedTree};

/// A small pool of content models over tags {a, b, c}.
const MODELS: [&str; 8] = [
    "@eps", "a*", "b.c", "(a|b)*", "a?.c*", "b+", "a.b?.c", "(a.b)*",
];

const TAGS: [&str; 3] = ["a", "b", "c"];

fn rand_dtd(rng: &mut SmallRng) -> Dtd {
    let r = *rng.choose(&MODELS);
    let ra = *rng.choose(&MODELS);
    let rb = *rng.choose(&MODELS);
    let rc = *rng.choose(&MODELS);
    Dtd::parse_text(&format!("root := {r}\na := {ra}\nb := {rb}\nc := {rc}")).unwrap()
}

fn rand_subtree(rng: &mut SmallRng, depth: usize) -> RawTree {
    let name = *rng.choose(&TAGS);
    if depth == 0 || rng.gen_bool(0.4) {
        return RawTree::leaf(name);
    }
    let n = rng.gen_range(0..4);
    RawTree::node(name, (0..n).map(|_| rand_subtree(rng, depth - 1)).collect())
}

fn rand_doc(rng: &mut SmallRng) -> RawTree {
    let n = rng.gen_range(0..4);
    RawTree::node("root", (0..n).map(|_| rand_subtree(rng, 2)).collect())
}

#[test]
fn validator_agrees_with_compiled_automaton() {
    let mut rng = SmallRng::seed_from_u64(0xD001);
    for case in 0..128 {
        let dtd = rand_dtd(&mut rng);
        let doc = rand_doc(&mut rng);
        let al = dtd.alphabet().clone();
        let t = UnrankedTree::from_raw(&doc, &al).unwrap();
        let enc = EncodedAlphabet::new(&al);
        let a = dtd.compile(&enc).unwrap();
        let bt = encode(&t, &enc).unwrap();
        assert_eq!(
            a.accepts(&bt).unwrap(),
            dtd.is_valid(&t),
            "case {case}: {dtd:?} on {doc:?}"
        );
    }
}

#[test]
fn witness_of_compiled_automaton_is_valid() {
    let mut rng = SmallRng::seed_from_u64(0xD002);
    for case in 0..128 {
        let dtd = rand_dtd(&mut rng);
        let enc = EncodedAlphabet::new(dtd.alphabet());
        let a = dtd.compile(&enc).unwrap();
        if let Some(w) = a.witness() {
            let doc = xmltc_trees::decode(&w, &enc).unwrap();
            assert!(dtd.is_valid(&doc), "case {case}: witness {doc} invalid");
        }
    }
}

/// `diagnose` implicates the element and children word that `validate`
/// reports, and neither finds fault with a valid document.
#[test]
fn diagnose_agrees_with_validate() {
    let mut rng = SmallRng::seed_from_u64(0xD004);
    let mut valid = 0;
    for case in 0..512 {
        let dtd = rand_dtd(&mut rng);
        let doc = rand_doc(&mut rng);
        let t = UnrankedTree::from_raw(&doc, dtd.alphabet()).unwrap();
        match (dtd.validate(&t), dtd.diagnose(&t)) {
            (Ok(()), None) => valid += 1,
            (
                Err(DtdError::InvalidContent { element, word }),
                Some(Diagnosis::InvalidContent {
                    element: diagnosed,
                    word: diagnosed_word,
                    failed_at,
                    ..
                }),
            ) => {
                assert_eq!(
                    (&element, &word),
                    (&diagnosed, &diagnosed_word),
                    "case {case}: {dtd:?} on {doc}"
                );
                assert!(failed_at <= word.len(), "case {case}");
            }
            other => panic!("case {case}: {dtd:?} on {doc}: {other:?}"),
        }
    }
    // Both outcomes are exercised.
    assert!((64..448).contains(&valid), "{valid} of 512 valid");
}

/// decompile ∘ compile is a language identity on random DTDs.
#[test]
fn decompile_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0xD003);
    for case in 0..64 {
        let dtd = rand_dtd(&mut rng);
        let enc = EncodedAlphabet::new(dtd.alphabet());
        let original = dtd.compile(&enc).unwrap();
        let grammar = xmltc_dtd::decompile(&original, &enc);
        match grammar.compile() {
            Ok(back) => assert!(
                back.equivalent(&original),
                "case {case}: grammar:\n{grammar}"
            ),
            // No roots ⇒ the grammar denotes ∅; the original must be empty
            // too (unsatisfiable content models, e.g. `b := b+`).
            Err(_) => assert!(original.is_empty(), "case {case}: grammar:\n{grammar}"),
        }
    }
}
