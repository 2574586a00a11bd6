//! Genuinely multi-pebble behaviour through the full pipeline: machines
//! whose acceptance depends on pebble-presence guards, converted to
//! regular tree automata by the paper's MSO construction (Theorem 4.7,
//! k ≥ 2) and validated against direct AGAP acceptance, and a 2-pebble
//! transducer typechecked end to end (Theorem 4.4), which takes the MSO
//! route because its pebble count picks it.

use std::sync::Arc;
use xmltc::automata::{Nta, State};
use xmltc::core::accepts;
use xmltc::core::machine::{Guard, Move, PebbleAutomaton};
use xmltc::core::PebbleTransducer;
use xmltc::dsl::{MachineSpec, Syms};
use xmltc::mso::CompileError;
use xmltc::obs::{self, PipelineReport};
use xmltc::trees::{Alphabet, BinaryTree};
use xmltc::typecheck::mso_route::pebble_to_nta;
use xmltc::typecheck::{
    replay_counterexample, typecheck, TypecheckError, TypecheckOptions, TypecheckOutcome,
};

fn alpha() -> Arc<Alphabet> {
    Alphabet::ranked(&["x", "y"], &["f"])
}

/// Two distinct y leaves (see `xmltc_bench::two_y_leaves`).
fn two_y(al: &Arc<Alphabet>) -> PebbleAutomaton {
    let mut s = MachineSpec::new("two_y", 2);
    s.state("w1", 1).state("w2", 2).initial("w1");
    for m in [Move::DownLeft, Move::DownRight] {
        s.walk(Syms::Binaries, "w1", Guard::any(), m, "w1");
        s.walk(Syms::Binaries, "w2", Guard::any(), m, "w2");
    }
    s.walk(Syms::one("y"), "w1", Guard::any(), Move::PlaceNew, "w2");
    s.accept(Syms::one("y"), "w2", Guard::absent(1));
    s.build_automaton(al).unwrap()
}

const TREES: [(&str, bool); 8] = [
    ("x", false),
    ("y", false),
    ("f(y, x)", false),
    ("f(y, y)", true),
    ("f(f(y, x), x)", false),
    ("f(f(y, x), y)", true),
    ("f(f(x, x), f(x, x))", false),
    ("f(f(y, y), f(x, x))", true),
];

#[test]
fn agap_semantics() {
    let al = alpha();
    let a = two_y(&al);
    for (src, want) in TREES {
        let t = BinaryTree::parse(src, &al).unwrap();
        assert_eq!(accepts(&a, &t).unwrap(), want, "{src}");
    }
}

#[test]
fn mso_route_converts_two_pebble_machine() {
    // Theorem 4.7 at k = 2: the regular language derived from the MSO
    // encoding matches AGAP acceptance — and the automaton is small (the
    // language "≥ 2 y-leaves" needs 3 states).
    let al = alpha();
    let a = two_y(&al);
    let (nta, stats) = pebble_to_nta(&a, 1_000_000).unwrap();
    assert!(stats.determinizations > 0);
    for (src, want) in TREES {
        let t = BinaryTree::parse(src, &al).unwrap();
        assert_eq!(nta.accepts(&t).unwrap(), want, "{src}");
    }
    assert!(nta.trim().n_states() <= 4, "minimal-ish result expected");
}

/// Pick transitions: pebble 2 scouts the leftmost leaf; control returns to
/// pebble 1 which then accepts at the root only if the scout succeeded.
#[test]
fn pick_returns_control() {
    let al = alpha();
    let mut s = MachineSpec::new("pick_scout", 2);
    s.state("start", 1)
        .state("scout", 2)
        .state("found", 2)
        .state("done", 1)
        .initial("start");
    s.walk(Syms::Any, "start", Guard::any(), Move::PlaceNew, "scout");
    s.walk(
        Syms::Binaries,
        "scout",
        Guard::any(),
        Move::DownLeft,
        "scout",
    );
    s.walk(Syms::one("y"), "scout", Guard::any(), Move::Stay, "found");
    s.walk(Syms::Any, "found", Guard::any(), Move::PickCurrent, "done");
    s.accept(Syms::Any, "done", Guard::any());
    let a = s.build_automaton(&al).unwrap();

    let cases = [
        ("y", true),
        ("x", false),
        ("f(y, x)", true),
        ("f(x, y)", false),
        ("f(f(y, x), x)", true),
        ("f(f(x, y), y)", false),
    ];
    for (src, want) in cases {
        let t = BinaryTree::parse(src, &al).unwrap();
        assert_eq!(accepts(&a, &t).unwrap(), want, "AGAP {src}");
    }
    let (nta, _) = pebble_to_nta(&a, 1_000_000).unwrap();
    for (src, want) in cases {
        let t = BinaryTree::parse(src, &al).unwrap();
        assert_eq!(nta.accepts(&t).unwrap(), want, "MSO {src}");
    }
}

/// A 2-pebble transducer that may always emit `ok`, and emits `bad` when
/// its second pebble finds a `y` other than the one its first pebble
/// marks: `T(t)` leaves `{ok}` exactly on trees with two `y` leaves.
fn bad_on_two_y(al: &Arc<Alphabet>) -> (PebbleTransducer, Arc<Alphabet>) {
    let out = Alphabet::ranked(&["ok", "bad"], &[]);
    let mut s = MachineSpec::new("bad_on_two_y", 2);
    s.state("w1", 1).state("w2", 2).initial("w1");
    s.emit_leaf(Syms::Any, "w1", Guard::any(), "ok");
    for m in [Move::DownLeft, Move::DownRight] {
        s.walk(Syms::Binaries, "w1", Guard::any(), m, "w1");
        s.walk(Syms::Binaries, "w2", Guard::any(), m, "w2");
    }
    s.walk(Syms::one("y"), "w1", Guard::any(), Move::PlaceNew, "w2");
    s.emit_leaf(Syms::one("y"), "w2", Guard::absent(1), "bad");
    (s.build_transducer(al, &out).unwrap(), out)
}

/// All trees (`at_most_one_y = false`) or the trees with at most one `y`
/// leaf: state 0 has no `y` below it, state 1 has one.
fn input_type(al: &Arc<Alphabet>, at_most_one_y: bool) -> Nta {
    let [x, y, f] = ["x", "y", "f"].map(|n| al.get(n).unwrap());
    let (none, one) = (State(0), State(1));
    let mut a = Nta::new(al, 2);
    a.add_leaf(x, none);
    a.add_leaf(y, if at_most_one_y { one } else { none });
    a.add_node(f, none, none, none);
    a.add_node(f, none, one, one);
    a.add_node(f, one, none, one);
    a.add_final(none);
    a.add_final(one);
    a
}

/// τ₂ = {ok}.
fn only_ok(out: &Arc<Alphabet>) -> Nta {
    let mut a = Nta::new(out, 1);
    a.add_leaf(out.get("ok").unwrap(), State(0));
    a.add_final(State(0));
    a
}

/// The first value of metric `name` in any span of `report`.
fn metric(report: &PipelineReport, name: &str) -> Option<u64> {
    report.spans.iter().find_map(|s| s.metric(name))
}

/// Theorem 4.4 at k = 2: the least input with two `y` leaves is the
/// counterexample, `bad` its offending output, and the replay confirms
/// both; restricting τ₁ to at most one `y` makes the machine typecheck.
#[test]
fn two_pebble_transducer_typechecks_through_the_mso_route() {
    let al = alpha();
    let (t, out) = bad_on_two_y(&al);
    assert_eq!(t.k(), 2);
    let (tau1, tau2) = (input_type(&al, false), only_ok(&out));
    let opts = TypecheckOptions::default();
    let (outcome, report) = obs::with_report(|| typecheck(&t, &tau1, &tau2, &opts).unwrap());
    let TypecheckOutcome::CounterExample { input, bad_output } = outcome else {
        panic!("two y leaves can emit `bad`");
    };
    let bad = bad_output.expect("bad output extracted");
    assert_eq!(input.to_string(), "f(y, y)");
    assert_eq!(bad.to_string(), "bad");
    let ev = replay_counterexample(&t, &tau1, &tau2, &input, &bad).unwrap();
    assert!(ev.verified(), "{ev:?}");

    assert_eq!(report.span_metric("typecheck", "route.is_mso"), Some(1));
    assert!(report.span("typecheck.mso").is_some());
    for name in [
        "mso.operations",
        "mso.determinizations",
        "mso.max_states",
        "mso.peak_subset_frontier",
    ] {
        assert!(metric(&report, name) > Some(0), "{name}");
    }
    // The compiler's counters sit on its `mso.compile` row alone, not
    // again on the enclosing `typecheck.mso` row.
    let table = report.render_table();
    let rows: Vec<&str> = table
        .lines()
        .filter(|l| l.contains("mso.operations=121"))
        .collect();
    assert_eq!(rows.len(), 1, "{table}");
    assert!(rows[0].trim_start().starts_with("mso.compile "), "{table}");

    let tau1 = input_type(&al, true);
    assert!(typecheck(&t, &tau1, &tau2, &opts).unwrap().is_ok());
}

/// The MSO route's state budget stops the k = 2 typecheck with a typed
/// error, and the partial report shows how far the compiler got.
#[test]
fn two_pebble_typecheck_honors_state_limit() {
    let al = alpha();
    let (t, out) = bad_on_two_y(&al);
    let (tau1, tau2) = (input_type(&al, false), only_ok(&out));
    let opts = TypecheckOptions { state_limit: 1 };
    let (result, report) = obs::with_report(|| typecheck(&t, &tau1, &tau2, &opts));
    assert_eq!(
        result.unwrap_err(),
        TypecheckError::Mso(CompileError::StateLimit { limit: 1 })
    );
    assert!(report.span("typecheck.mso").is_some());
    assert!(metric(&report, "mso.operations") > Some(0));
}
