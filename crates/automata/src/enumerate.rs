//! Bounded enumeration of regular tree languages.
//!
//! The paper notes (Section 3.3) that one can enumerate all trees generated
//! by a regular tree grammar at amortized polynomial cost. Here we provide
//! the bounded variant used by the exhaustive typechecking cross-validator:
//! all accepted trees of depth ≤ `max_depth`, capped at `limit`.

use crate::nta::Nta;
use crate::state::State;
use xmltc_trees::{BinaryTree, FxHashSet};

/// Enumerates distinct trees in `inst(a)` of depth at most `max_depth`, in
/// nondecreasing depth order, returning at most `limit` trees.
///
/// Per-state intermediate pools are also capped at `limit` trees, so the
/// result is exhaustive only when no pool overflows; for the small bounds
/// used in testing this is exhaustive.
pub fn trees_up_to(a: &Nta, max_depth: usize, limit: usize) -> Vec<BinaryTree> {
    let n = a.n_states() as usize;
    // pool[q] = distinct trees reaching state q, found so far.
    let mut pool: Vec<Vec<BinaryTree>> = vec![Vec::new(); n];
    let mut seen: Vec<FxHashSet<BinaryTree>> = vec![FxHashSet::default(); n];
    let mut accepted: Vec<BinaryTree> = Vec::new();
    let mut accepted_seen: FxHashSet<BinaryTree> = FxHashSet::default();

    // Depth 1: leaves.
    for (sym, q) in a.leaf_transitions() {
        let t = BinaryTree::singleton(sym, a.alphabet()).expect("leaf symbol");
        add(&mut pool, &mut seen, q, t, limit);
    }
    collect_accepted(a, &pool, &mut accepted, &mut accepted_seen, limit);

    for _depth in 2..=max_depth {
        if accepted.len() >= limit {
            break;
        }
        // One round: fire every transition over current pools.
        let mut fresh: Vec<(State, BinaryTree)> = Vec::new();
        for (sym, q1, q2, q) in a.node_transitions() {
            if pool[q.index()].len() >= limit {
                continue;
            }
            for t1 in &pool[q1.index()] {
                for t2 in &pool[q2.index()] {
                    let t = BinaryTree::graft(sym, t1, t2).expect("same alphabet");
                    fresh.push((q, t));
                }
            }
        }
        let mut changed = false;
        for (q, t) in fresh {
            changed |= add(&mut pool, &mut seen, q, t, limit);
        }
        collect_accepted(a, &pool, &mut accepted, &mut accepted_seen, limit);
        if !changed {
            break; // fixpoint below the depth bound
        }
    }
    accepted.truncate(limit);
    accepted
}

fn add(
    pool: &mut [Vec<BinaryTree>],
    seen: &mut [FxHashSet<BinaryTree>],
    q: State,
    t: BinaryTree,
    limit: usize,
) -> bool {
    if pool[q.index()].len() >= limit || seen[q.index()].contains(&t) {
        return false;
    }
    seen[q.index()].insert(t.clone());
    pool[q.index()].push(t);
    true
}

fn collect_accepted(
    a: &Nta,
    pool: &[Vec<BinaryTree>],
    accepted: &mut Vec<BinaryTree>,
    accepted_seen: &mut FxHashSet<BinaryTree>,
    limit: usize,
) {
    for q in a.finals().iter() {
        for t in &pool[q.index()] {
            if accepted.len() >= limit {
                return;
            }
            if accepted_seen.insert(t.clone()) {
                accepted.push(t.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_trees::Alphabet;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    /// All trees over {x, f}.
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
    fn enumerates_all_small_trees() {
        let al = alpha();
        let a = all_x(&al);
        // Trees over {x, f} of depth ≤ 1, 2, 3, 4: 1 (x), 2 (+ f(x,x)),
        // 5 (+ f(x,f(x,x)), f(f(x,x),x), f(f(x,x),f(x,x))) and 26 (+ the
        // 21 of depth exactly 4: 3·5 + 5·3 − 3·3 pairs of children with
        // at least one of depth exactly 3).
        for (depth, expected) in [(1, 1), (2, 2), (3, 5), (4, 26)] {
            let ts = trees_up_to(&a, depth, 1_000_000);
            assert_eq!(ts.len(), expected, "depth {depth}");
            for t in &ts {
                assert!(a.accepts(t).unwrap());
                assert!(t.depth() <= depth);
            }
            // Distinctness.
            let set: FxHashSet<_> = ts.iter().cloned().collect();
            assert_eq!(set.len(), ts.len());
        }
    }

    #[test]
    fn respects_limit() {
        let al = alpha();
        let a = all_x(&al);
        let ts = trees_up_to(&a, 5, 7);
        assert_eq!(ts.len(), 7);
    }

    #[test]
    fn empty_language_enumerates_nothing() {
        let al = alpha();
        let mut a = Nta::new(&al, 1);
        a.add_final(State(0)); // no transitions: nothing reaches state 0
        assert!(trees_up_to(&a, 4, 10).is_empty());
    }

    #[test]
    fn depth_one_only_leaves() {
        let al = alpha();
        let a = all_x(&al);
        let ts = trees_up_to(&a, 1, 10);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].to_string(), "x");
    }
}
