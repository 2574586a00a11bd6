//! On-the-fly emptiness for implicit automaton products.
//!
//! The Theorem 4.4 pipeline ends in an emptiness check over a product
//! automaton — `τ₁ ∩ violations` for the verdict, `A_t ∖ τ₂` for
//! bad-output extraction. The eager procedure materializes every product
//! state (and, for a difference, the full subset construction of `τ₂`'s
//! complement) before asking for a witness. This module runs the same
//! least-witness derivation as [`Nta::witness`] over the *implicit*
//! product, in the spirit of Frisch & Hosoya's on-the-fly checks
//! ("Towards Practical Typechecking for Macro Tree Transducers"): a
//! product item is made only when the bottom-up search first derives a
//! tree for it, and the search stops at the first accepting item.
//!
//! * [`intersection_witness`] pairs a state of the left automaton with a
//!   state of the right one.
//! * [`difference_witness`] pairs a state of the left automaton with the
//!   set of every right state on the same tree — one state of the right
//!   automaton's subset construction, made only when reached. The
//!   complement `Dbta` is never built.
//!
//! Both return the least tree of the product language in
//! [`Nta::witness`]'s order, the same tree [`Nta::witness`] finds on the
//! materialized product; [`LazyStats`] reports how much of that product
//! the search made.

use crate::least::{self, Member, Reject};
use crate::nta::Nta;
use xmltc_obs as obs;
use xmltc_trees::{Alphabet, BinaryTree};

/// Outcome of a lazy emptiness search.
#[derive(Clone, Debug)]
pub enum LazyOutcome {
    /// The implicit product language is empty.
    Empty,
    /// The least tree in the product language.
    Witness(BinaryTree),
}

impl LazyOutcome {
    /// True when the product language is empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, LazyOutcome::Empty)
    }

    /// The witness tree, if any.
    pub fn into_witness(self) -> Option<BinaryTree> {
        match self {
            LazyOutcome::Empty => None,
            LazyOutcome::Witness(t) => Some(t),
        }
    }
}

/// Search-effort counters for one lazy run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LazyStats {
    /// Product items (pairs) the search made.
    pub states_materialized: u64,
    /// Size of the eager product state space this search avoided
    /// (`|A| · |B|` for intersections, `|A| · 2^|B|` saturating for
    /// differences).
    pub states_eager: u64,
    /// Distinct on-demand subset states of the right automaton.
    pub subset_states: u64,
}

impl LazyStats {
    fn publish(&self) {
        obs::record("lazy.states_materialized", self.states_materialized);
        obs::record("lazy.states_eager", self.states_eager);
        obs::record("lazy.subset_states", self.subset_states);
    }
}

/// Errors from the on-the-fly search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LazyError {
    /// The two automata speak different alphabets.
    AlphabetMismatch,
    /// The search made more product items than its budget allows.
    ConfigLimit {
        /// The exceeded budget.
        n: u32,
    },
}

impl std::fmt::Display for LazyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LazyError::AlphabetMismatch => write!(f, "automata over different alphabets"),
            LazyError::ConfigLimit { n } => {
                write!(f, "lazy search exceeded {n} product configurations")
            }
        }
    }
}

impl std::error::Error for LazyError {}

/// The least tree of `inst(a) ∩ inst(b)`, found without materializing the
/// product automaton. `limit` bounds the number of product items the
/// search may make.
pub fn intersection_witness(
    a: &Nta,
    b: &Nta,
    limit: u32,
) -> Result<(LazyOutcome, LazyStats), LazyError> {
    if !Alphabet::same(a.alphabet(), b.alphabet()) {
        return Err(LazyError::AlphabetMismatch);
    }
    let (witness, made) = least::search(a, &mut Member(b), limit)?;
    let stats = LazyStats {
        states_materialized: made,
        states_eager: (a.n_states() as u64).saturating_mul(b.n_states() as u64),
        subset_states: 0,
    };
    stats.publish();
    let outcome = witness.map_or(LazyOutcome::Empty, LazyOutcome::Witness);
    Ok((outcome, stats))
}

/// The least tree of `inst(a) ∖ inst(b)` (a counterexample to the
/// inclusion `inst(a) ⊆ inst(b)`): `b` is determinized **on demand**, one
/// subset state at a time, as the search reaches it.
pub fn difference_witness(
    a: &Nta,
    b: &Nta,
    limit: u32,
) -> Result<(LazyOutcome, LazyStats), LazyError> {
    if !Alphabet::same(a.alphabet(), b.alphabet()) {
        return Err(LazyError::AlphabetMismatch);
    }
    let mut side = Reject::new(b);
    let (witness, made) = least::search(a, &mut side, limit)?;
    let subsets = 2u64
        .checked_pow(b.n_states().min(63))
        .unwrap_or(u64::MAX)
        .max(1);
    let stats = LazyStats {
        states_materialized: made,
        states_eager: (a.n_states() as u64).saturating_mul(subsets),
        subset_states: side.subsets(),
    };
    stats.publish();
    let outcome = witness.map_or(LazyOutcome::Empty, LazyOutcome::Witness);
    Ok((outcome, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use std::sync::Arc;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f", "g"])
    }

    /// Accepts trees whose leaves are all `x`.
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

    /// Accepts trees containing at least one `y` leaf.
    fn some_y(al: &Arc<Alphabet>) -> Nta {
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let mut a = Nta::new(al, 2);
        a.add_leaf(x, State(0));
        a.add_leaf(y, State(1));
        for s in al.binaries() {
            for (l, r, out) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)] {
                a.add_node(s, State(l), State(r), State(out));
            }
        }
        a.add_final(State(1));
        a
    }

    /// Accepts every tree.
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

    /// Accepts nothing.
    fn bottom(al: &Arc<Alphabet>) -> Nta {
        Nta::new(al, 1)
    }

    fn lazy_intersect(a: &Nta, b: &Nta) -> LazyOutcome {
        intersection_witness(a, b, u32::MAX).unwrap().0
    }

    fn lazy_diff(a: &Nta, b: &Nta) -> LazyOutcome {
        difference_witness(a, b, u32::MAX).unwrap().0
    }

    #[test]
    fn intersection_agrees_with_eager() {
        let al = alpha();
        let cases = [
            (all_x(&al), some_y(&al)),
            (all_x(&al), top(&al)),
            (some_y(&al), top(&al)),
            (some_y(&al), some_y(&al)),
            (all_x(&al), bottom(&al)),
        ];
        for (a, b) in &cases {
            let eager = a.intersect(b);
            let lazy = lazy_intersect(a, b);
            assert_eq!(eager.witness(), lazy.clone().into_witness());
            if let LazyOutcome::Witness(w) = lazy {
                assert!(a.accepts(&w).unwrap(), "witness in left language");
                assert!(b.accepts(&w).unwrap(), "witness in right language");
            }
        }
    }

    #[test]
    fn difference_agrees_with_eager_inclusion() {
        let al = alpha();
        let cases = [
            (all_x(&al), some_y(&al)), // x ⊄ some-y: witness "x"
            (all_x(&al), top(&al)),    // included
            (top(&al), all_x(&al)),    // witness with a y
            (some_y(&al), some_y(&al)),
            (bottom(&al), bottom(&al)),
            (top(&al), bottom(&al)),
        ];
        for (a, b) in &cases {
            let eager = a.inclusion_counterexample(b);
            let lazy = lazy_diff(a, b);
            assert_eq!(eager, lazy.clone().into_witness());
            if let LazyOutcome::Witness(w) = lazy {
                assert!(a.accepts(&w).unwrap(), "witness accepted by left");
                assert!(!b.accepts(&w).unwrap(), "witness rejected by right");
            }
        }
    }

    #[test]
    fn empty_and_universal_right_sides() {
        let al = alpha();
        // a ∖ ∅ = a: witness exists iff a nonempty.
        assert!(!lazy_diff(&some_y(&al), &bottom(&al)).is_empty());
        assert!(lazy_diff(&bottom(&al), &bottom(&al)).is_empty());
        // a ∖ ⊤ = ∅ always.
        assert!(lazy_diff(&some_y(&al), &top(&al)).is_empty());
        assert!(lazy_diff(&top(&al), &top(&al)).is_empty());
    }

    #[test]
    fn single_symbol_alphabet() {
        let al = Alphabet::ranked(&["x"], &["f"]);
        let t = top(&al);
        assert!(lazy_intersect(&t, &t).is_empty() == t.is_empty());
        assert!(lazy_diff(&t, &t).is_empty());
        let none = bottom(&al);
        assert!(lazy_intersect(&t, &none).is_empty());
        let w = lazy_diff(&t, &none).into_witness().unwrap();
        assert!(t.accepts(&w).unwrap());
    }

    #[test]
    fn witnesses_are_least() {
        let al = alpha();
        // top ∖ all_x: the least witness is the leaf y.
        let w = lazy_diff(&top(&al), &all_x(&al)).into_witness().unwrap();
        assert_eq!(w.to_string(), "y");
        // some_y ∖ {y}: one node more than y is too few; among the trees of
        // three nodes, f before g, then x before y on the left.
        let mut just_y = Nta::new(&al, 1);
        just_y.add_leaf(al.get("y").unwrap(), State(0));
        just_y.add_final(State(0));
        let w = lazy_diff(&some_y(&al), &just_y).into_witness().unwrap();
        assert_eq!(w.to_string(), "f(x, y)");
        let w = lazy_intersect(&some_y(&al), &top(&al)).into_witness();
        assert_eq!(w.unwrap().to_string(), "y");
    }

    #[test]
    fn stats_report_laziness() {
        let al = alpha();
        let (out, stats) = intersection_witness(&all_x(&al), &some_y(&al), u32::MAX).unwrap();
        assert!(out.is_empty());
        assert!(stats.states_materialized > 0);
        assert!(stats.states_eager > 0);
        let (_, stats) = difference_witness(&top(&al), &all_x(&al), u32::MAX).unwrap();
        assert!(stats.subset_states >= 1, "complement side was touched");
    }

    #[test]
    fn config_limit_is_honored() {
        let al = alpha();
        // The leaves x and y make two pairs before any tree is accepted.
        let (_, stats) = intersection_witness(&all_x(&al), &some_y(&al), 1).unwrap();
        assert_eq!(stats.states_materialized, 1);
        let err = intersection_witness(&top(&al), &some_y(&al), 1).unwrap_err();
        assert_eq!(err, LazyError::ConfigLimit { n: 1 });
        assert_eq!(
            err.to_string(),
            "lazy search exceeded 1 product configurations"
        );
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let al = alpha();
        let other = alpha();
        let err = intersection_witness(&top(&al), &top(&other), u32::MAX).unwrap_err();
        assert_eq!(err, LazyError::AlphabetMismatch);
    }

    /// Randomized agreement with the eager procedures over structured
    /// automata: random trims of products and unions keep both modes busy.
    #[test]
    fn randomized_agreement_with_eager() {
        use xmltc_trees::SmallRng;
        let al = alpha();
        let mut rng = SmallRng::seed_from_u64(0x1a2b);
        let pool = [all_x(&al), some_y(&al), top(&al), bottom(&al)];
        for case in 0..40 {
            let a = rng.choose(&pool);
            let b = rng.choose(&pool);
            let (a, b) = match rng.gen_range(0..3) {
                0 => (a.clone(), b.clone()),
                1 => (a.union(b).trim(), b.clone()),
                _ => (a.clone(), a.intersect(b).trim()),
            };
            let eager_int = a.intersect(&b);
            let (lazy_int, _) = intersection_witness(&a, &b, u32::MAX).unwrap();
            assert_eq!(eager_int.witness(), lazy_int.into_witness(), "case {case}");
            let eager_diff = a.inclusion_counterexample(&b);
            let (lazy_diff, _) = difference_witness(&a, &b, u32::MAX).unwrap();
            assert_eq!(eager_diff, lazy_diff.clone().into_witness(), "case {case}");
            if let LazyOutcome::Witness(w) = lazy_diff {
                assert!(a.accepts(&w).unwrap(), "case {case}");
                assert!(!b.accepts(&w).unwrap(), "case {case}");
            }
        }
    }
}
