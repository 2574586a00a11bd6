//! **Theorem 4.7, paper-faithful route**: k-pebble automata → MSO → tree
//! automata.
//!
//! Acceptance of a k-pebble automaton is accessibility in the and/or graph
//! of configurations (AGAP). Accessibility is the least fixpoint of the
//! reverse-closure rules, definable in MSO with universally quantified set
//! variables — one `S_q` per machine state, holding the positions where the
//! configuration `(q, x̄)` is accessible, relative to the universally
//! quantified positions `x₁ … x_{i-1}` of the outer pebbles:
//!
//! ```text
//! φ⁽ⁱ⁾(v) = ∀S_q (q ∈ Q_i) . (⋀_{p ∈ P_i} ψ_p  ⇒  ∃r. root(r) ∧ r ∈ S_v)
//! ```
//!
//! with one reverse-closure conjunct `ψ_p` per transition `p`, and
//! `place`/`pick` transitions linking adjacent levels (a `place` conjunct
//! embeds the whole `φ⁽ⁱ⁺¹⁾`, making the formula — and hence the resulting
//! automaton — non-elementary in `k`, cf. Theorem 4.8).

use crate::error::TypecheckError;
use xmltc_automata::{Nta, State};
use xmltc_core::machine::{Action, Guard, Move, PebbleAutomaton, Presence};
use xmltc_mso::{compile_sentence_limited, CompileStats, Formula};

/// Variable names.
fn s_var(q: State) -> String {
    format!("S{}", q.0)
}

fn x_var(level: u8) -> String {
    format!("x{level}")
}

/// `r ∈ S_v` for the root `r`.
fn at_root(v: State, level: u8) -> Formula {
    let r = format!("r{level}");
    Formula::exists1(
        r.clone(),
        Formula::Root(r.clone()).and(Formula::In(r, s_var(v))),
    )
}

/// The pebble-presence conjunct `pebbles_b(x_i)` for a guard.
fn guard_formula(xi: &str, guard: &Guard) -> Formula {
    Formula::all(guard.0.iter().enumerate().filter_map(|(j, p)| {
        let xj = x_var((j + 1) as u8);
        match p {
            Presence::Any => None,
            Presence::Present => Some(Formula::Eq(xi.to_string(), xj)),
            Presence::Absent => Some(Formula::Eq(xi.to_string(), xj).not()),
        }
    }))
}

/// Builds `φ⁽ⁱ⁾(entry)`: pebbles `1..i` quantified by the caller (levels
/// `< i` free as `x₁ … x_{i-1}`), asserting that the configuration
/// `(entry, x̄·root)` is accessible.
fn phi_level(a: &PebbleAutomaton, level: u8, entry: State) -> Formula {
    let core = a.core();
    let xi = x_var(level);
    let yi = format!("y{level}");

    let mut conjuncts: Vec<Formula> = Vec::new();
    for (sym, q, guard, action) in core.rules() {
        if core.level(q) != level {
            continue;
        }
        let base = Formula::Label(xi.clone(), sym).and(guard_formula(&xi, guard));
        let head = |body: Formula| {
            Formula::forall1(xi.clone(), base.clone().and(body).implies(in_s(&xi, q)))
        };
        let psi = match action {
            Action::Branch0 => head(Formula::True),
            Action::Branch2(v, w) => head(in_s(&xi, *v).and(in_s(&xi, *w))),
            Action::Move(Move::Stay, v) => head(in_s(&xi, *v)),
            Action::Move(Move::DownLeft, v) => Formula::forall1(
                xi.clone(),
                Formula::forall1(
                    yi.clone(),
                    base.clone()
                        .and(Formula::Succ1(xi.clone(), yi.clone()))
                        .and(in_s(&yi, *v))
                        .implies(in_s(&xi, q)),
                ),
            ),
            Action::Move(Move::DownRight, v) => Formula::forall1(
                xi.clone(),
                Formula::forall1(
                    yi.clone(),
                    base.clone()
                        .and(Formula::Succ2(xi.clone(), yi.clone()))
                        .and(in_s(&yi, *v))
                        .implies(in_s(&xi, q)),
                ),
            ),
            Action::Move(Move::UpLeft, v) => Formula::forall1(
                xi.clone(),
                Formula::forall1(
                    yi.clone(),
                    base.clone()
                        .and(Formula::Succ1(yi.clone(), xi.clone()))
                        .and(in_s(&yi, *v))
                        .implies(in_s(&xi, q)),
                ),
            ),
            Action::Move(Move::UpRight, v) => Formula::forall1(
                xi.clone(),
                Formula::forall1(
                    yi.clone(),
                    base.clone()
                        .and(Formula::Succ2(yi.clone(), xi.clone()))
                        .and(in_s(&yi, *v))
                        .implies(in_s(&xi, q)),
                ),
            ),
            Action::Move(Move::PlaceNew, v) => {
                // (base ∧ φ⁽ⁱ⁺¹⁾(v)) ⇒ S_q(x_i); pebble i's position x_i is
                // free inside φ⁽ⁱ⁺¹⁾ (referenced by level-(i+1) guards and
                // pick conjuncts).
                head(phi_level(a, level + 1, *v))
            }
            Action::Move(Move::PickCurrent, v) => {
                // Control returns to pebble i-1 at its own position.
                head(Formula::In(x_var(level - 1), s_var(*v)))
            }
            Action::Output0(..) | Action::Output2(..) => {
                unreachable!("automata have no output transitions")
            }
        };
        conjuncts.push(psi);
    }

    let reverse_closed = Formula::all(conjuncts);
    let mut phi = reverse_closed.implies(at_root(entry, level));
    for q in (0..core.n_states()).map(State) {
        if core.level(q) == level {
            phi = Formula::forall2(s_var(q), phi);
        }
    }
    phi
}

fn in_s(x: &str, q: State) -> Formula {
    Formula::In(x.to_string(), s_var(q))
}

/// The MSO sentence `φ_A` with `t ⊨ φ_A ⟺ A accepts t`.
pub fn pebble_to_formula(a: &PebbleAutomaton) -> Formula {
    phi_level(a, 1, a.core().initial())
}

/// Theorem 4.7 by the MSO route: an ordinary tree automaton equivalent to
/// the k-pebble automaton. `state_limit` is the MSO compiler's state
/// budget; [`compile_sentence_limited`] says where it is checked.
pub fn pebble_to_nta(
    a: &PebbleAutomaton,
    state_limit: u32,
) -> Result<(Nta, CompileStats), TypecheckError> {
    let f = pebble_to_formula(a);
    let (nta, stats) = compile_sentence_limited(&f, a.input_alphabet(), state_limit)?;
    Ok((nta, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_core::accepts;
    use xmltc_core::machine::{AutomatonBuilder, SymSpec};
    use xmltc_trees::{Alphabet, BinaryTree};

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    fn agree(a: &PebbleAutomaton, trees: &[&str], limit: u32) {
        let al = a.input_alphabet().clone();
        let (nta, stats) = pebble_to_nta(a, limit).expect("MSO route compiles");
        assert!(stats.operations > 0);
        for src in trees {
            let t = BinaryTree::parse(src, &al).unwrap();
            assert_eq!(
                nta.accepts(&t).unwrap(),
                accepts(a, &t).unwrap(),
                "MSO route disagrees on {src}"
            );
        }
    }

    #[test]
    fn one_pebble_search() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("search", 1).unwrap();
        b.set_initial(q);
        b.branch0(SymSpec::One(y), q, xmltc_core::machine::Guard::any())
            .unwrap();
        b.move_rule(
            SymSpec::Binaries,
            q,
            xmltc_core::machine::Guard::any(),
            Move::DownLeft,
            q,
        )
        .unwrap();
        b.move_rule(
            SymSpec::Binaries,
            q,
            xmltc_core::machine::Guard::any(),
            Move::DownRight,
            q,
        )
        .unwrap();
        let a = b.build().unwrap();
        agree(
            &a,
            &[
                "x",
                "y",
                "f(x, y)",
                "f(x, x)",
                "f(f(x, y), x)",
                "f(f(x, x), x)",
            ],
            2_000_000,
        );
    }

    #[test]
    fn formula_shape() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("q", 1).unwrap();
        b.set_initial(q);
        b.branch0(SymSpec::One(y), q, xmltc_core::machine::Guard::any())
            .unwrap();
        let a = b.build().unwrap();
        let f = pebble_to_formula(&a);
        // One ∀S per state, plus inner FO quantifiers.
        assert!(f.quantifier_depth() >= 2);
        let printed = f.to_string();
        assert!(printed.contains("S0"));
        assert!(printed.contains("root"));
    }

    #[test]
    fn two_pebble_machine() {
        // Pebble 1 stays on the root; pebble 2 checks the root is f and
        // then accepts where pebble 1 is present (trivial use of place +
        // guard + pick).
        let al = alpha();
        let mut b = AutomatonBuilder::new(&al, 2);
        let q1 = b.state("q1", 1).unwrap();
        let done = b.state("done", 1).unwrap();
        let q2 = b.state("q2", 2).unwrap();
        let back = b.state("back", 2).unwrap();
        b.set_initial(q1);
        use xmltc_core::machine::Guard;
        b.move_rule(SymSpec::Binaries, q1, Guard::any(), Move::PlaceNew, q2)
            .unwrap();
        // Pebble 2 starts on the root where pebble 1 sits: require presence,
        // then pick and accept.
        b.move_rule(
            SymSpec::Binaries,
            q2,
            Guard::present(1),
            Move::PickCurrent,
            done,
        )
        .unwrap();
        b.branch0(SymSpec::Binaries, done, Guard::any()).unwrap();
        // Unused state to exercise level-2 quantification breadth.
        let _ = back;
        let a = b.build().unwrap();
        // Accepts exactly trees with a binary root.
        agree(&a, &["x", "y", "f(x, y)", "f(f(x, x), y)"], 2_000_000);
    }
}
