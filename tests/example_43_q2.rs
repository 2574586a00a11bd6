//! **Example 4.3 end-to-end**: the XSLT query Q2 maps `root(aⁿ)` to
//! `result(b aⁿ b aⁿ b aⁿ)` — an image that is not regular (the three `aⁿ`
//! runs must agree), so forward type inference must over-approximate.
//!
//! Q2 compiles to a **1-pebble** transducer, so the *exact* typechecking
//! pipeline runs through the fast behaviour-composition route
//! (Theorem 4.7, k = 1), and we can demonstrate the paper's precision
//! story concretely:
//!
//! * `τ₂` = "the result's children count is divisible by 3" holds for
//!   every actual output (3n + 3 children) → the exact typechecker
//!   **accepts**;
//! * the forward-inference baseline decouples the three `apply-templates`
//!   (image ≈ `b a* b a* b a*`) and **rejects** the correct program with a
//!   spurious witness.

use xmltc_dtd::Dtd;
use xmltc_trees::{decode, encode, EncodedAlphabet};
use xmltc_typecheck::mso_route::pebble_to_nta;
use xmltc_typecheck::{typecheck, violation_automaton, TypecheckOptions, TypecheckOutcome};
use xmltc_xmlql::xslt::example_q2;
use xmltc_xmlql::Stylesheet;

fn setup() -> (
    xmltc_core::PebbleTransducer,
    EncodedAlphabet,
    EncodedAlphabet,
    xmltc_automata::Nta, // τ₁ = encodings of root := a*
) {
    let q2 = example_q2();
    let input_dtd = Dtd::parse_text("root := a*\na := @eps").unwrap();
    let (t, enc_in, enc_out) = q2.compile(input_dtd.alphabet()).unwrap();
    let tau1 = input_dtd.compile(&enc_in).unwrap();
    (t, enc_in, enc_out, tau1)
}

/// The forward-inference baseline's over-approximate image of Q2, as a
/// tree automaton over the encoded output alphabet.
fn q2_inferred_image(enc_out: &EncodedAlphabet) -> xmltc_automata::Nta {
    let q2 = example_q2();
    let input_dtd = Dtd::parse_text("root := a*\na := @eps").unwrap();
    let image = q2
        .infer_image(&input_dtd, enc_out.source())
        .expect("inference succeeds");
    image.compile(enc_out).expect("image compiles")
}

#[test]
fn q2_is_one_pebble() {
    let (t, _, _, _) = setup();
    assert_eq!(t.k(), 1);
}

/// Q2's violation formula nests more quantifiers than the MSO compiler
/// has variables, so the MSO route, which only k ≥ 2 machines take, says
/// so with the numbers before compiling.
#[test]
fn mso_route_variable_cap_names_depth_cap_and_size() {
    let (t, _enc_in, enc_out, _tau1) = setup();
    let tau2 = Dtd::parse_text_with(
        "result := ((a|b).(a|b).(a|b))*\na := @eps\nb := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    let v = violation_automaton(&t, &tau2).unwrap();
    let err = pebble_to_nta(&v, TypecheckOptions::default().state_limit).unwrap_err();
    assert_eq!(
        err.to_string(),
        "MSO route failed: the formula (size 27413) nests 229 quantifiers, \
         more than the 64 variables the compiler can track"
    );
}

#[test]
fn exact_typechecker_accepts_mod3_spec() {
    let (t, _enc_in, enc_out, tau1) = setup();
    // result := ((a|b).(a|b).(a|b))* — children count ≡ 0 (mod 3).
    let tau2 = Dtd::parse_text_with(
        "result := ((a|b).(a|b).(a|b))*\na := @eps\nb := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    let outcome = typecheck(&t, &tau1, &tau2, &TypecheckOptions::default()).unwrap();
    assert!(outcome.is_ok(), "every output has 3n+3 children");
}

#[test]
fn forward_baseline_rejects_mod3_spec() {
    let (t, _enc_in, enc_out, tau1) = setup();
    let tau2 = Dtd::parse_text_with(
        "result := ((a|b).(a|b).(a|b))*\na := @eps\nb := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    let image = q2_inferred_image(&enc_out);
    let _ = t;
    let _ = tau1;
    // Forward method: prove image ⊆ τ₂. The decoupled image contains
    // b aⁱ b aʲ b aᵏ for arbitrary i, j, k — so inclusion fails and the
    // baseline rejects the (correct!) program with a spurious witness.
    let witness = image
        .inclusion_counterexample(&tau2)
        .expect("the decoupling over-approximation cannot prove the mod-3 spec");
    let dec = decode(&witness, &enc_out).expect("witness decodes");
    let kids = dec.children(dec.root()).len();
    assert_ne!(kids % 3, 0, "witness must violate the mod-3 spec");
    // And it is spurious: real outputs all satisfy the spec (proved by the
    // exact route in `exact_typechecker_accepts_mod3_spec`).
}

/// The forward baseline is sound: the compiled image of `sheet` over
/// `root := a*` accepts every real output of `root(aⁿ)`, n ≤ 8.
fn assert_image_holds_every_output(sheet: &Stylesheet) {
    let input_dtd = Dtd::parse_text("root := a*\na := @eps").unwrap();
    let (t, enc_in, enc_out) = sheet.compile(input_dtd.alphabet()).unwrap();
    let image = sheet
        .infer_image(&input_dtd, enc_out.source())
        .expect("inference succeeds")
        .compile(&enc_out)
        .expect("image compiles");
    let al = enc_in.source().clone();
    for n in 0..=8usize {
        let doc =
            xmltc_trees::generate::flat(al.get("root").unwrap(), al.get("a").unwrap(), n, &al)
                .unwrap();
        let out = xmltc_core::eval(&t, &encode(&doc, &enc_in).unwrap()).unwrap();
        assert!(image.accepts(&out).unwrap(), "output of root(a^{n})");
    }
}

#[test]
fn inferred_image_holds_every_output() {
    assert_image_holds_every_output(&example_q2());
    let relabel =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/relabel.xsl"))
            .unwrap();
    assert_image_holds_every_output(&Stylesheet::parse_text(&relabel).unwrap());
}

#[test]
fn both_accept_coarse_spec() {
    // A spec the over-approximate image also satisfies: exactly three b's,
    // in the pattern b.a*.b.a*.b.a*.
    let (t, _enc_in, enc_out, tau1) = setup();
    let tau2 = Dtd::parse_text_with(
        "result := b.a*.b.a*.b.a*\na := @eps\nb := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    assert!(typecheck(&t, &tau1, &tau2, &TypecheckOptions::default())
        .unwrap()
        .is_ok());
    // The coarse spec is provable even from the decoupled image.
    let image = q2_inferred_image(&enc_out);
    assert!(image.subset_of(&tau2));
}

#[test]
fn exact_typechecker_rejects_wrong_spec_with_counterexample() {
    // τ₂ demanding at most one b: fails; the counterexample input must be
    // a valid document and its output must really violate the spec.
    let (t, enc_in, enc_out, tau1) = setup();
    let tau2 = Dtd::parse_text_with("result := a*.b?.a*\na := @eps\nb := @eps", enc_out.source())
        .unwrap()
        .compile(&enc_out)
        .unwrap();
    match typecheck(&t, &tau1, &tau2, &TypecheckOptions::default()).unwrap() {
        TypecheckOutcome::CounterExample { input, bad_output } => {
            assert!(tau1.accepts(&input).unwrap());
            let doc = decode(&input, &enc_in).expect("valid encoding");
            // Cross-check: the transducer's actual output on this input
            // violates τ₂.
            let encoded = encode(&doc, &enc_in).unwrap();
            let out = xmltc_core::eval(&t, &encoded).unwrap();
            assert!(!tau2.accepts(&out).unwrap());
            let bad = bad_output.expect("bad output extracted");
            assert!(!tau2.accepts(&bad).unwrap());
        }
        TypecheckOutcome::Ok => panic!("must fail: outputs have three b's"),
    }
}

#[test]
fn inverse_type_inference_mirrors_example_42() {
    // Inverse inference at k = 1: with τ₂ = "children count is even"
    // (outputs have 3n+3 children, even iff n odd), the inverse type
    // restricted to valid inputs is exactly the odd-a documents.
    let (t, enc_in, enc_out, tau1) = setup();
    let tau2 = Dtd::parse_text_with(
        "result := ((a|b).(a|b))*\na := @eps\nb := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    let inverse = xmltc_typecheck::inverse_type(&t, &tau2, &TypecheckOptions::default()).unwrap();
    let al = enc_in.source().clone();
    for n in 0..7usize {
        let doc =
            xmltc_trees::generate::flat(al.get("root").unwrap(), al.get("a").unwrap(), n, &al)
                .unwrap();
        let encoded = encode(&doc, &enc_in).unwrap();
        assert!(tau1.accepts(&encoded).unwrap());
        assert_eq!(
            inverse.accepts(&encoded).unwrap(),
            n % 2 == 1,
            "T(a^{n}) has {} children; even iff n odd",
            3 * n + 3
        );
    }
}
