//! Theorem 4.7 cross-validation: the behaviour-composition route and the
//! paper's MSO route must produce equivalent tree automata for 1-pebble
//! machines, and both must agree with direct AGAP acceptance; so must the
//! walk guided by an input type, within that type.
//!
//! Driven by the workspace's deterministic [`SmallRng`]; runs a fixed
//! number of seeded cases. Also the budget-honoring property: with a tiny
//! `state_limit` both routes fail cleanly (never panic, never blow the
//! budget silently) and the observability layer records how far they got.

use std::ops::Range;
use std::sync::Arc;
use xmltc::automata::enumerate::trees_up_to;
use xmltc::automata::{Nta, State};
use xmltc::core::accepts;
use xmltc::core::machine::{Guard, Move, PebbleAutomaton};
use xmltc::dsl::{MachineSpec, Syms};
use xmltc::obs;
use xmltc::trees::{Alphabet, BinaryTree, SmallRng};
use xmltc::typecheck::mso_route::pebble_to_nta;
use xmltc::typecheck::walk::{walking_to_dbta_with, walking_to_nta_within, WalkOptions};
use xmltc::typecheck::TypecheckError;

fn alpha() -> Arc<Alphabet> {
    Alphabet::ranked(&["x", "y"], &["f"])
}

/// A small random 1-pebble automaton: a few states, a number of random
/// rules drawn from `rules`, each a move or a branch. (Random rule soup
/// leaves states unreachable, so the spec opts out of the builder's
/// reachability check.)
fn rand_machine(rng: &mut SmallRng, al: &Arc<Alphabet>, rules: Range<usize>) -> PebbleAutomaton {
    let n = rng.gen_range(2..5) as u32;
    let mut s = MachineSpec::new("rand", 1);
    let states: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    for name in &states {
        s.state(name, 1);
    }
    s.initial("s0").allow_unreachable();
    for _ in 0..rng.gen_range(rules) {
        let spec = match rng.gen_range(0..3) {
            0 => Syms::Leaves,
            1 => Syms::Binaries,
            _ => Syms::Any,
        };
        let q = rng.choose(&states).clone();
        let t1 = rng.choose(&states).clone();
        let t2 = rng.choose(&states).clone();
        match rng.gen_range(0..8) {
            0 => s.accept(spec, q, Guard::any()),
            1 => s.fork(spec, q, Guard::any(), t1, t2),
            2 => s.walk(spec, q, Guard::any(), Move::Stay, t1),
            3 => s.walk(spec, q, Guard::any(), Move::DownLeft, t1),
            4 => s.walk(spec, q, Guard::any(), Move::DownRight, t1),
            5 => s.walk(spec, q, Guard::any(), Move::UpLeft, t1),
            6 => s.walk(spec, q, Guard::any(), Move::UpRight, t1),
            _ => s.walk(spec, q, Guard::any(), Move::Stay, t2),
        };
    }
    s.build_automaton(al).unwrap()
}

/// Every tree over `al` of depth at most `depth`, enumerated from the
/// one-state universal automaton.
fn all_trees(al: &Arc<Alphabet>, depth: usize) -> Vec<BinaryTree> {
    let mut u = Nta::new(al, 1);
    for leaf in al.leaves() {
        u.add_leaf(leaf, State(0));
    }
    for f in al.binaries() {
        u.add_node(f, State(0), State(0), State(0));
    }
    u.add_final(State(0));
    trees_up_to(&u, depth, usize::MAX)
}

#[test]
fn walk_route_agrees_with_agap() {
    let al = alpha();
    let trees = all_trees(&al, 4);
    assert_eq!(trees.len(), 1446, "2 leaves, then 2 + n² per level");
    let mut rng = SmallRng::seed_from_u64(0x4701);
    let mut mixed = 0;
    for case in 0..64 {
        let a = rand_machine(&mut rng, &al, 6..20);
        let (d, _) = walking_to_dbta_with(&a, &WalkOptions::default()).unwrap();
        let mut accepted = 0;
        for t in &trees {
            let agap = accepts(&a, t).unwrap();
            assert_eq!(d.accepts(t).unwrap(), agap, "case {case} on {t}");
            accepted += usize::from(agap);
        }
        if accepted > 0 && accepted < trees.len() {
            mixed += 1;
        }
    }
    // A machine that accepts every tree or none checks little; about a
    // third of these (20) split the trees.
    assert!(mixed >= 16, "only {mixed}/64 machines split the trees");
}

/// A random input type over `al`: a complete deterministic automaton with
/// two or three states and each rule's target drawn at random, so its
/// states split the trees into classes. The final states are a random
/// non-empty proper subset of the reachable ones, so the type is neither
/// empty nor universal (unless only one state is reachable).
fn rand_tau1(rng: &mut SmallRng, al: &Arc<Alphabet>) -> Nta {
    let n = rng.gen_range(2..4);
    let pick = |rng: &mut SmallRng| State(rng.gen_range(0..n) as u32);
    let mut a = Nta::new(al, n as u32);
    for leaf in al.leaves() {
        a.add_leaf(leaf, pick(rng));
    }
    for f in al.binaries() {
        for q1 in 0..n as u32 {
            for q2 in 0..n as u32 {
                a.add_node(f, State(q1), State(q2), pick(rng));
            }
        }
    }
    let reachable: Vec<State> = a.reachable_states().iter().collect();
    let first = *rng.choose(&reachable);
    let mut finals: Vec<State> = reachable
        .iter()
        .copied()
        .filter(|&q| q == first || rng.gen_bool(0.3))
        .collect();
    if finals.len() == reachable.len() && finals.len() > 1 {
        finals.retain(|&q| q == first);
    }
    for q in finals {
        a.add_final(q);
    }
    a
}

/// The walk guided by a random input type accepts exactly the trees that
/// both the type and the machine (AGAP) accept, on every tree of depth at
/// most 4.
#[test]
fn guided_walk_agrees_with_agap() {
    let al = alpha();
    let trees = all_trees(&al, 4);
    let mut rng = SmallRng::seed_from_u64(0x4705);
    let (mut mixed, mut excluded) = (0, 0);
    for case in 0..64 {
        let a = rand_machine(&mut rng, &al, 6..20);
        let tau1 = rand_tau1(&mut rng, &al);
        let (g, _) = walking_to_nta_within(&a, &tau1, &WalkOptions::default()).unwrap();
        let (mut accepted, mut untyped) = (0, 0);
        for t in &trees {
            let (typed, agap) = (tau1.accepts(t).unwrap(), accepts(&a, t).unwrap());
            assert_eq!(g.accepts(t).unwrap(), typed && agap, "case {case} on {t}");
            accepted += usize::from(typed && agap);
            untyped += usize::from(!typed && agap);
        }
        if accepted > 0 && accepted < trees.len() {
            mixed += 1;
        }
        excluded += usize::from(untyped > 0);
    }
    // An automaton that accepts every tree or none checks little; about
    // half of these (33) split the trees. In 28 cases the type excludes
    // a tree the machine accepts, which the full walk would have kept.
    assert!(
        mixed >= 16,
        "only {mixed}/64 guided automata split the trees"
    );
    assert!(
        excluded >= 16,
        "the type excludes a machine's tree in only {excluded}/64"
    );
}

/// The MSO route never runs the walk, so it checks the walk
/// independently.
#[test]
fn mso_route_agrees_with_walk_route() {
    let al = alpha();
    let trees = all_trees(&al, 4);
    let mut rng = SmallRng::seed_from_u64(0x4702);
    let mut mixed = 0;
    for case in 0..64 {
        let a = rand_machine(&mut rng, &al, 6..20);
        let (d, _) = walking_to_dbta_with(&a, &WalkOptions::default()).unwrap();
        let (m, _stats) = pebble_to_nta(&a, 500_000).unwrap();
        // Full language equivalence, not just sampled agreement.
        assert!(d.to_nta().equivalent(&m), "case {case}: routes disagree");
        let accepted = trees.iter().filter(|t| d.accepts(t).unwrap()).count();
        if accepted > 0 && accepted < trees.len() {
            mixed += 1;
        }
    }
    // Empty and universal languages compare trivially; with 6-19 rules
    // about a third of the machines (21) split the trees.
    assert!(mixed >= 16, "only {mixed}/64 machines split the trees");
}

/// The satellite budget property: for ANY machine and ANY tiny state
/// limit, `pebble_to_nta` either finishes or returns the budget error —
/// never panics — and when it aborts, the `mso.compile` span still
/// carries the compiler's progress stats.
#[test]
fn mso_route_honors_state_limit() {
    let al = alpha();
    let mut rng = SmallRng::seed_from_u64(0x4703);
    let mut aborted = 0;
    for case in 0..24 {
        let a = rand_machine(&mut rng, &al, 6..20);
        let limit = 1 + rng.below(8) as u32;
        let (result, report) = obs::with_report(|| pebble_to_nta(&a, limit));
        match result {
            Ok((nta, stats)) => {
                // A success under budget: the recorded high-water mark
                // must honor the limit, and the automaton is usable.
                assert!(
                    stats.max_states <= limit,
                    "case {case}: max_states {} over limit {limit}",
                    stats.max_states
                );
                let _ = nta.is_empty();
            }
            Err(TypecheckError::Mso(e)) => {
                aborted += 1;
                assert_eq!(
                    e.to_string(),
                    format!("intermediate automaton exceeded {limit} states"),
                    "case {case}"
                );
                // The report still shows how far the compiler got.
                let span = report.span("mso.compile").expect("span recorded");
                assert!(span.metric("mso.operations").is_some(), "case {case}");
                assert!(span.metric("mso.max_states").is_some(), "case {case}");
            }
            Err(other) => panic!("case {case}: unexpected error {other}"),
        }
    }
    // With limits this tiny, most cases must abort — otherwise the
    // property above exercised nothing.
    assert!(aborted >= 12, "only {aborted}/24 cases aborted");
}

/// Same property one layer down: `SymTa::determinize_limited` returns
/// `None` (instead of panicking or over-allocating) exactly when the
/// subset construction would exceed the budget, and records its frontier
/// high-water mark either way.
#[test]
fn determinize_limited_honors_budget() {
    use xmltc::mso::{compile_sentence_limited, Formula};

    let al = alpha();
    let syms: Vec<_> = al.symbols().collect();
    let mut rng = SmallRng::seed_from_u64(0x4704);
    let mut aborted = 0;
    for case in 0..24 {
        // Random sentences with a set quantifier force determinizations.
        let s = *rng.choose(&syms);
        let kernel = if rng.gen_bool(0.5) {
            Formula::Label("u".into(), s).and(Formula::In("u".into(), "S".into()))
        } else {
            Formula::In("u".into(), "S".into()).or(Formula::Leaf("u".into()))
        };
        let f = Formula::forall2("S", Formula::exists1("u", kernel));
        let limit = 1 + rng.below(4) as u32;
        let (result, report) = obs::with_report(|| compile_sentence_limited(&f, &al, limit));
        let span = report.span("mso.compile").expect("span recorded");
        match result {
            Ok((_, stats)) => {
                assert!(stats.max_states <= limit, "case {case}");
            }
            Err(e) => {
                aborted += 1;
                assert!(
                    e.to_string().contains("exceeded"),
                    "case {case}: unexpected error {e}"
                );
                // Budget-abort still reports the peak frontier reached.
                let frontier = span
                    .metric("mso.peak_subset_frontier")
                    .or_else(|| report.span_metric("mso.compile", "mso.max_states"));
                assert!(frontier.is_some(), "case {case}: no progress metric");
            }
        }
    }
    assert!(aborted >= 6, "only {aborted}/24 cases aborted");
}
