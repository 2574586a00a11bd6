//! A counterexample depends on the types and the transformation, not on
//! how their automata were built: every fixture triple and 120 corpus
//! cases typecheck to the same verdict, input and bad output when `τ₁` and
//! `τ₂` are rebuilt with their states renumbered by a random permutation
//! and their transitions and finals inserted in a shuffled order (same
//! alphabets, same languages).

use xmltc::automata::{Nta, State};
use xmltc::core::PebbleTransducer;
use xmltc::dsl::{generate, CORPUS_STATE_LIMIT, FAMILIES};
use xmltc::dtd::Dtd;
use xmltc::trees::{SmallRng, Symbol};
use xmltc::typecheck::{typecheck, TypecheckOptions, TypecheckOutcome};
use xmltc::xmlql::Stylesheet;

/// The committed fixture triples: input DTD, stylesheet, output DTD.
const TRIPLES: [(&str, &str, &str); 9] = [
    ("q2.dtd", "q2.xsl", "q2_mod3_out.dtd"),
    ("q2.dtd", "q2.xsl", "q2_mod2_out.dtd"),
    ("even_a.dtd", "relabel.xsl", "even_b.dtd"),
    ("any_a.dtd", "relabel.xsl", "even_b.dtd"),
    ("any_a.dtd", "relabel.xsl", "empty_out.dtd"),
    ("any_a.dtd", "relabel.xsl", "universal_out.dtd"),
    ("single.dtd", "single.xsl", "single_out.dtd"),
    ("single.dtd", "single.xsl", "single_out_strict.dtd"),
    ("minimal.dtd", "minimal.xsl", "minimal_out.dtd"),
];

fn fixture(name: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Compiles a fixture triple to (T, τ₁, τ₂).
fn compile_triple((dtd, xsl, out): (&str, &str, &str)) -> (PebbleTransducer, Nta, Nta) {
    let dtd = Dtd::parse_text(&fixture(dtd)).unwrap();
    let (t, enc_in, enc_out) = Stylesheet::parse_text(&fixture(xsl))
        .unwrap()
        .compile(dtd.alphabet())
        .unwrap();
    let tau1 = dtd.compile(&enc_in).unwrap();
    let tau2 = Dtd::parse_text_with(&fixture(out), enc_out.source())
        .unwrap()
        .compile(&enc_out)
        .unwrap();
    (t, tau1, tau2)
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The same automaton with its states renumbered by a random permutation,
/// its transitions and finals inserted in a shuffled order.
fn reinserted(a: &Nta, rng: &mut SmallRng) -> Nta {
    let mut perm: Vec<u32> = (0..a.n_states()).collect();
    shuffle(&mut perm, rng);
    let q = |s: State| State(perm[s.0 as usize]);
    let mut leaves: Vec<(Symbol, State)> = a.leaf_transitions().map(|(s, p)| (s, q(p))).collect();
    let mut nodes: Vec<(Symbol, State, State, State)> = a
        .node_transitions()
        .map(|(s, l, r, p)| (s, q(l), q(r), q(p)))
        .collect();
    let mut finals: Vec<State> = a.finals().iter().map(q).collect();
    shuffle(&mut leaves, rng);
    shuffle(&mut nodes, rng);
    shuffle(&mut finals, rng);
    let mut out = Nta::new(a.alphabet(), a.n_states());
    for (s, q) in leaves {
        out.add_leaf(s, q);
    }
    for (s, q1, q2, q) in nodes {
        out.add_node(s, q1, q2, q);
    }
    for q in finals {
        out.add_final(q);
    }
    out
}

/// The verdict, counterexample input and bad output, as text.
fn answer(t: &PebbleTransducer, tau1: &Nta, tau2: &Nta, opts: &TypecheckOptions) -> String {
    match typecheck(t, tau1, tau2, opts) {
        Ok(TypecheckOutcome::Ok) => "typechecks".into(),
        Ok(TypecheckOutcome::CounterExample { input, bad_output }) => {
            format!("counterexample {input} -> {bad_output:?}")
        }
        Err(e) => format!("error {e}"),
    }
}

/// Typechecks (T, τ₁, τ₂) once as built and `shuffles` times rebuilt, and
/// requires one answer from all of them.
fn assert_one_answer(
    ctx: &str,
    t: &PebbleTransducer,
    tau1: &Nta,
    tau2: &Nta,
    state_limit: u32,
    shuffles: usize,
    rng: &mut SmallRng,
) -> String {
    let opts = TypecheckOptions {
        state_limit,
        ..TypecheckOptions::default()
    };
    let expected = answer(t, tau1, tau2, &opts);
    for round in 1..=shuffles {
        let (a, b) = (reinserted(tau1, rng), reinserted(tau2, rng));
        assert_eq!(answer(t, &a, &b, &opts), expected, "{ctx}: shuffle {round}");
    }
    expected
}

#[test]
fn fixture_counterexamples_do_not_depend_on_insertion_order() {
    let mut rng = SmallRng::seed_from_u64(0x0de5);
    let mut failing = 0;
    for triple in TRIPLES {
        let (t, tau1, tau2) = compile_triple(triple);
        let ctx = format!("{triple:?}");
        let got = assert_one_answer(&ctx, &t, &tau1, &tau2, 4_000_000, 2, &mut rng);
        failing += got.starts_with("counterexample") as usize;
    }
    assert_eq!(
        failing, 4,
        "q2/mod2, any_a/even_b, empty_out, single_out_strict"
    );
}

#[test]
fn corpus_counterexamples_do_not_depend_on_insertion_order() {
    let mut rng = SmallRng::seed_from_u64(0x0de6);
    let mut failing = 0;
    for &family in &FAMILIES {
        for index in 0..20 {
            let c = generate(0xc0de, family, index).compile().unwrap();
            let ctx = format!("corpus {} #{index}", family.name());
            let got = assert_one_answer(
                &ctx,
                &c.transducer,
                &c.tau1,
                &c.tau2,
                CORPUS_STATE_LIMIT,
                2,
                &mut rng,
            );
            failing += got.starts_with("counterexample") as usize;
        }
    }
    assert!(failing > 0, "no corpus counterexample among 120 cases");
}
