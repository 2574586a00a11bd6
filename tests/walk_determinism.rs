//! The `TooManyStates` abort point of the Theorem 4.7 walk construction,
//! on a (stylesheet, output spec) combo from the differential suite's
//! pool: the class budget must abort at the first state past it.

use xmltc::dtd::Dtd;
use xmltc::typecheck::walk::{walking_to_dbta_with, WalkOptions};
use xmltc::typecheck::{violation_automaton, TypecheckError};
use xmltc::xmlql::{Stylesheet, Template};

/// Compiles one (stylesheet, spec) combo into its trimmed 1-pebble
/// violation automaton — the exact machine the walk route receives.
fn violation(root_body: &str, a_body: &str, spec: &str) -> xmltc::core::machine::PebbleAutomaton {
    let sheet = Stylesheet::new(vec![
        Template::parse("root", root_body).unwrap(),
        Template::parse("a", a_body).unwrap(),
    ]);
    let probe_dtd = Dtd::parse_text("root := a*\na := a*").unwrap();
    let (t, _enc_in, enc_out) = sheet.compile(probe_dtd.alphabet()).unwrap();
    let out_src = enc_out.source();
    // Tags the stylesheet can never output become `@empty` in the model.
    let mut spec_text = spec.to_string();
    let avail: Vec<&str> = ["a", "b"]
        .into_iter()
        .filter(|t| out_src.get(t).is_some())
        .collect();
    let mut lines = Vec::new();
    for tag in ["a", "b"] {
        if avail.contains(&tag) {
            lines.push(format!("{tag} := ({})*", avail.join("|")));
        } else {
            spec_text = spec_text.replace(tag, "@empty");
        }
    }
    lines.insert(0, format!("out := {spec_text}"));
    let tau2 = Dtd::parse_text_with(&lines.join("\n"), out_src)
        .unwrap()
        .compile(&enc_out)
        .unwrap();
    violation_automaton(&t, &tau2).unwrap().trim_states()
}

/// The class budget aborts at the first state past it, and the
/// construction completes again at the exact budget.
#[test]
fn too_many_states_aborts_at_the_first_state_over_budget() {
    // A combo whose construction needs a handful of classes.
    let v = violation("out(b, @apply)", "b(@apply, b)", "b.(a|b)*");
    let states =
        |limit| walking_to_dbta_with(&v, &WalkOptions { limit }).map(|(d, _)| d.n_states());
    let full = states(u32::MAX).unwrap();
    assert!(full > 2, "fixture must need several behaviour classes");
    for limit in 1..full {
        match states(limit) {
            Err(TypecheckError::TooManyStates { n }) => {
                assert_eq!(n, limit + 1, "abort reports the first class over budget")
            }
            other => panic!("limit {limit}: expected budget abort, got {other:?}"),
        }
    }
    assert_eq!(states(full).unwrap(), full);
}
