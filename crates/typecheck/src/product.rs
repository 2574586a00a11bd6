//! **Proposition 4.6** — the transducer × output-automaton product.
//!
//! For a k-pebble transducer `T` and a top-down automaton `B`, the product
//! `A = T × B` is a k-pebble automaton accepting `{t | T(t) ∩ inst(B) ≠ ∅}`:
//! `A` simulates `T` while running `B` over the output `T` produces, which
//! is possible because `B` consumes the output top-down in exactly the
//! order `T` emits it. With `B` an automaton for the *complement* of the
//! output type `τ₂`, `A` accepts precisely the inputs on which `T` can
//! violate `τ₂`.

use crate::error::TypecheckError;
use xmltc_automata::{Nta, State, TdTa};
use xmltc_core::machine::{Action, AutomatonBuilder, PebbleAutomaton, SymSpec};
use xmltc_core::PebbleTransducer;
use xmltc_obs as obs;
use xmltc_trees::Alphabet;

/// The Proposition 4.6 product `T × B` for an arbitrary top-down automaton
/// `B` over `T`'s output alphabet: accepts `{t | T(t) ∩ inst(B) ≠ ∅}`.
///
/// Only pair states `(qT, qB)` reachable from the initial pair through the
/// rule graph are materialized (the same over-approximation
/// `PebbleAutomaton::trim_states` uses, so the numbering of the surviving
/// states is unchanged); the rest — typically most of the `|T| · |B|`
/// grid — are never named and never receive rules. The pruned count is
/// recorded as `product.pairs_pruned`.
pub fn product_with_tdta(
    t: &PebbleTransducer,
    b: &TdTa,
) -> Result<PebbleAutomaton, TypecheckError> {
    if !Alphabet::same(t.output_alphabet(), b.alphabet()) {
        return Err(TypecheckError::Tree(
            xmltc_trees::TreeError::AlphabetMismatch,
        ));
    }
    let b = b.eliminate_silent();
    let core = t.core();
    let n_b = b.n_states();
    let n_t = core.n_states();

    // Rule-graph reachability over pairs, from the initial pair: a Move
    // rule keeps qB, an Output2 rule advances qB through B's transitions.
    // Symbols and guards are ignored — the same over-approximation as
    // `trim_states`, so pre-pruning here changes nothing downstream.
    let pair_idx = |qt: State, qb: State| (qt.0 * n_b + qb.0) as usize;
    let total = (n_t * n_b) as usize;
    let mut reach = vec![false; total];
    let initial = (core.initial(), b.initial());
    reach[pair_idx(initial.0, initial.1)] = true;
    let mut stack = vec![initial];
    while let Some((qt, qb)) = stack.pop() {
        let mut visit = |qt: State, qb: State, stack: &mut Vec<(State, State)>| {
            let i = pair_idx(qt, qb);
            if !reach[i] {
                reach[i] = true;
                stack.push((qt, qb));
            }
        };
        for (_, _, action) in core.state_rules(qt) {
            match action {
                Action::Move(_, target) => visit(*target, qb, &mut stack),
                Action::Output0(_) => {}
                Action::Output2(out, q1, q2) => {
                    for &(b1, b2) in b.transitions_for(*out, qb) {
                        visit(*q1, b1, &mut stack);
                        visit(*q2, b2, &mut stack);
                    }
                }
                Action::Branch0 | Action::Branch2(..) => {
                    unreachable!("transducers have no branch transitions")
                }
            }
        }
    }
    let reachable = reach.iter().filter(|&&r| r).count();
    obs::record("product.pairs_total", total as u64);
    obs::record("product.pairs_pruned", (total - reachable) as u64);

    let mut builder = AutomatonBuilder::new(t.input_alphabet(), t.k());
    // Reachable state (qT, qB), in (qT, qB)-lexicographic order — the same
    // relative order the full grid (and its later trim) would produce.
    // Level inherited from qT.
    let mut pair_states: Vec<Option<State>> = vec![None; total];
    for qt in 0..n_t {
        for qb in 0..n_b {
            if !reach[pair_idx(State(qt), State(qb))] {
                continue;
            }
            let name = format!("{}·b{}", core.state_name(State(qt)), qb);
            let s = builder.state(&name, core.level(State(qt)))?;
            pair_states[pair_idx(State(qt), State(qb))] = Some(s);
        }
    }
    let pair = |qt: State, qb: State| {
        pair_states[(qt.0 * n_b + qb.0) as usize].expect("rule target is reachable")
    };

    // Rules by (pair state, symbol), the order the automaton's rule table
    // keeps, so building it sorts nothing.
    for (qt, qb) in (0..n_t).flat_map(|qt| (0..n_b).map(move |qb| (State(qt), State(qb)))) {
        if !reach[pair_idx(qt, qb)] {
            continue;
        }
        let from = pair(qt, qb);
        for (a, guard, action) in core.state_rules(qt) {
            match action {
                Action::Move(m, target) => {
                    builder.move_rule(
                        SymSpec::One(a),
                        from,
                        guard.clone(),
                        *m,
                        pair(*target, qb),
                    )?;
                }
                Action::Output0(out) => {
                    if b.is_final_pair(*out, qb) {
                        builder.branch0(SymSpec::One(a), from, guard.clone())?;
                    }
                }
                Action::Output2(out, q1, q2) => {
                    for &(b1, b2) in b.transitions_for(*out, qb) {
                        builder.branch2(
                            SymSpec::One(a),
                            from,
                            guard.clone(),
                            pair(*q1, b1),
                            pair(*q2, b2),
                        )?;
                    }
                }
                Action::Branch0 | Action::Branch2(..) => {
                    unreachable!("transducers have no branch transitions")
                }
            }
        }
    }
    builder.set_initial(pair(core.initial(), b.initial()));
    Ok(builder.build()?)
}

/// The **violation automaton**: a k-pebble automaton accepting
/// `{t | T(t) ⊄ τ₂} = {t | T(t) ∩ complement(τ₂) ≠ ∅}`.
///
/// `T` typechecks w.r.t. `(τ₁, τ₂)` iff `τ₁ ∩ inst(result) = ∅`.
pub fn violation_automaton(
    t: &PebbleTransducer,
    output_type: &Nta,
) -> Result<PebbleAutomaton, TypecheckError> {
    if !Alphabet::same(t.output_alphabet(), output_type.alphabet()) {
        return Err(TypecheckError::Tree(
            xmltc_trees::TreeError::AlphabetMismatch,
        ));
    }
    let complement = output_type.complement().to_nta().trim();
    let b = complement.to_tdta();
    product_with_tdta(t, &b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_core::{accepts, library};
    use xmltc_trees::BinaryTree;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    /// NTA: all leaves are x.
    fn all_x(al: &Arc<Alphabet>) -> Nta {
        let x = al.get("x").unwrap();
        let f = al.get("f").unwrap();
        let mut a = Nta::new(al, 1);
        a.add_leaf(x, State(0));
        a.add_node(f, State(0), State(0), State(0));
        a.add_final(State(0));
        a
    }

    #[test]
    fn copy_violation_is_membership_in_complement() {
        // T = copy. T(t) = {t}. Violation(t) ⟺ t ∉ τ₂.
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let tau2 = all_x(&al);
        let v = violation_automaton(&t, &tau2).unwrap();
        for (src, in_tau2) in [
            ("x", true),
            ("y", false),
            ("f(x, x)", true),
            ("f(x, y)", false),
            ("f(f(x, x), x)", true),
            ("f(f(x, y), x)", false),
        ] {
            let tree = BinaryTree::parse(src, &al).unwrap();
            assert_eq!(
                accepts(&v, &tree).unwrap(),
                !in_tau2,
                "violation automaton wrong on {src}"
            );
        }
    }

    #[test]
    fn product_with_type_itself_detects_intersection() {
        // A = T × B with B = τ (not complemented): accepts t iff T(t) ∩ τ ≠ ∅,
        // i.e. (copy) iff t ∈ τ.
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let b = all_x(&al).to_tdta();
        let a = product_with_tdta(&t, &b).unwrap();
        for (src, in_tau) in [
            ("x", true),
            ("y", false),
            ("f(x, y)", false),
            ("f(x, x)", true),
        ] {
            let tree = BinaryTree::parse(src, &al).unwrap();
            assert_eq!(accepts(&a, &tree).unwrap(), in_tau, "{src}");
        }
    }

    #[test]
    fn duplicator_violation() {
        // Duplicator output always has z at the root, so with τ₂ = "all
        // trees whose leaves are x" over the extended alphabet, the
        // violation is exactly "input contains a y leaf".
        let al = alpha();
        let (t, out_al) = library::duplicator(&al).unwrap();
        let x = out_al.get("x").unwrap();
        let mut tau2 = Nta::new(&out_al, 1);
        tau2.add_leaf(x, State(0));
        for b in out_al.binaries() {
            tau2.add_node(b, State(0), State(0), State(0));
        }
        tau2.add_final(State(0));
        let v = violation_automaton(&t, &tau2).unwrap();
        for (src, has_y) in [
            ("x", false),
            ("y", true),
            ("f(x, y)", true),
            ("f(x, x)", false),
        ] {
            let tree = BinaryTree::parse(src, &al).unwrap();
            assert_eq!(accepts(&v, &tree).unwrap(), has_y, "{src}");
        }
    }
}
