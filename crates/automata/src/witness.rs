//! Witness annotation: accepting runs and rejection points.
//!
//! Both emptiness checks ultimately hand back a bare witness *tree* — the
//! built product via [`Nta::witness`], the on-the-fly search via
//! [`crate::lazy::intersection_witness`]. A bare tree says *that* the
//! language is non-empty; the provenance layer (`xmltc explain`) also
//! needs to say *why* a particular tree is in or out of a type. The two
//! constructions here answer that, whichever check found the tree, by
//! re-running the automaton on the finished tree:
//!
//! * [`accepting_run`] — a per-node state assignment proving membership
//!   (the paper's accepting run, Definition 2.1 read bottom-up);
//! * [`rejection_point`] — for a rejected tree, the node where every
//!   bottom-up run dies, with the states still reachable there.
//!
//! Because both recompute from [`Nta::run`], they are deterministic given
//! the automaton (ties broken toward smaller state numbers) and cannot
//! disagree with the membership test that produced the verdict.

use crate::nta::Nta;
use crate::state::{State, StateSet};
use xmltc_trees::{BinaryTree, ChildSide, NodeId, TreeError};

/// Where a rejected tree's runs die.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectionPoint {
    /// The failing node: the first (bottom-up) node with no reachable
    /// state, or the root when states reach it but none is final.
    pub node: NodeId,
    /// The states still reachable at that node (empty unless the failure
    /// is a non-final root).
    pub reachable: StateSet,
}

/// An accepting run of `a` on `t`: the state carried by each node,
/// indexed by node id. `None` when `t` is not accepted.
///
/// The run is extracted top-down from the [`Nta::run`] reachability sets:
/// the root takes the smallest final state reachable there, and each
/// node's children take the smallest `(q₁, q₂)` (in set order) that
/// supports the parent's state. This makes the annotation deterministic,
/// which the golden-pinned explain reports rely on.
pub fn accepting_run(a: &Nta, t: &BinaryTree) -> Result<Option<Vec<State>>, TreeError> {
    let sets = a.run(t)?;
    let root = t.root();
    let Some(q_root) = sets[root.index()].iter().find(|&q| a.finals().contains(q)) else {
        return Ok(None);
    };
    let mut states = vec![State(0); t.len()];
    // Ids are bottom-up (children before parents), so a reverse pass
    // visits each parent before its children.
    states[root.index()] = q_root;
    for i in (0..t.len()).rev() {
        let n = NodeId(i as u32);
        let Some((l, r)) = t.children(n) else {
            continue;
        };
        let q = states[n.index()];
        let sym = t.symbol(n);
        let mut picked = None;
        'search: for q1 in sets[l.index()].iter() {
            for q2 in sets[r.index()].iter() {
                if a.node_states(sym, q1, q2).contains(&q) {
                    picked = Some((q1, q2));
                    break 'search;
                }
            }
        }
        let (q1, q2) = picked.expect("run sets support every reachable state");
        states[l.index()] = q1;
        states[r.index()] = q2;
    }
    Ok(Some(states))
}

/// For a tree rejected by `a`, the point where acceptance fails. `None`
/// when `t` is accepted.
pub fn rejection_point(a: &Nta, t: &BinaryTree) -> Result<Option<RejectionPoint>, TreeError> {
    let sets = a.run(t)?;
    let root = t.root();
    if sets[root.index()].intersects(a.finals()) {
        return Ok(None);
    }
    // Bottom-up ids mean the first empty set is a node whose children (if
    // any) still had reachable states: the exact frontier of failure.
    for (i, set) in sets.iter().enumerate() {
        if set.is_empty() {
            return Ok(Some(RejectionPoint {
                node: NodeId(i as u32),
                reachable: StateSet::new(),
            }));
        }
    }
    // Every node is reachable but the root set misses the finals.
    Ok(Some(RejectionPoint {
        node: root,
        reachable: sets[root.index()].clone(),
    }))
}

/// The `/`-separated left/right path of `n` from the root (`/` for the
/// root itself, e.g. `/L/R`). The textual node address used throughout
/// the explain reports.
pub fn node_path(t: &BinaryTree, n: NodeId) -> String {
    let mut segs = Vec::new();
    let mut cur = n;
    while let Some((p, side)) = t.parent(cur) {
        segs.push(match side {
            ChildSide::Left => "L",
            ChildSide::Right => "R",
        });
        cur = p;
    }
    if segs.is_empty() {
        return "/".to_string();
    }
    segs.reverse();
    let mut out = String::new();
    for s in segs {
        out.push('/');
        out.push_str(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_trees::Alphabet;

    /// Leaves x, y; binary f. Accepts trees with at least one y leaf.
    fn some_y() -> (Arc<Alphabet>, Nta) {
        let al = Alphabet::ranked(&["x", "y"], &["f"]);
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let f = al.get("f").unwrap();
        let mut a = Nta::new(&al, 2);
        a.add_leaf(x, State(0));
        a.add_leaf(y, State(1));
        for (l, r, out) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)] {
            a.add_node(f, State(l), State(r), State(out));
        }
        a.add_final(State(1));
        (al, a)
    }

    #[test]
    fn accepting_run_is_consistent() {
        let (al, a) = some_y();
        let t = BinaryTree::parse("f(x, f(y, x))", &al).unwrap();
        let run = accepting_run(&a, &t).unwrap().unwrap();
        // Root carries the final state; each internal node's transition
        // exists; each leaf's state is a leaf state of its symbol.
        assert!(a.finals().contains(run[t.root().index()]));
        for n in t.preorder() {
            match t.children(n) {
                None => assert!(a.leaf_states(t.symbol(n)).contains(&run[n.index()])),
                Some((l, r)) => assert!(a
                    .node_states(t.symbol(n), run[l.index()], run[r.index()])
                    .contains(&run[n.index()])),
            }
        }
    }

    #[test]
    fn rejected_tree_has_no_run_but_a_rejection_point() {
        let (al, a) = some_y();
        let t = BinaryTree::parse("f(x, x)", &al).unwrap();
        assert!(accepting_run(&a, &t).unwrap().is_none());
        let rp = rejection_point(&a, &t).unwrap().unwrap();
        // Runs reach the root (state 0) but never a final state.
        assert_eq!(rp.node, t.root());
        assert!(!rp.reachable.is_empty());
        // An accepted tree has a run and no rejection point.
        let t2 = BinaryTree::parse("f(x, y)", &al).unwrap();
        assert!(accepting_run(&a, &t2).unwrap().is_some());
        assert!(rejection_point(&a, &t2).unwrap().is_none());
    }

    #[test]
    fn dead_node_is_located() {
        let (al, _) = some_y();
        // An automaton with no y leaf transition: a y leaf has no
        // reachable state at all.
        let x = al.get("x").unwrap();
        let f = al.get("f").unwrap();
        let a = {
            let mut b = Nta::new(&al, 2);
            b.add_leaf(x, State(0));
            b.add_node(f, State(0), State(0), State(0));
            b.add_final(State(0));
            b
        };
        let t = BinaryTree::parse("f(x, y)", &al).unwrap();
        let rp = rejection_point(&a, &t).unwrap().unwrap();
        assert!(rp.reachable.is_empty());
        assert_eq!(t.symbol(rp.node), al.get("y").unwrap());
        assert_eq!(node_path(&t, rp.node), "/R");
    }

    #[test]
    fn node_path_addresses() {
        let al = Alphabet::ranked(&["x"], &["f"]);
        let t = BinaryTree::parse("f(f(x, x), x)", &al).unwrap();
        assert_eq!(node_path(&t, t.root()), "/");
        let (l, r) = t.children(t.root()).unwrap();
        assert_eq!(node_path(&t, l), "/L");
        assert_eq!(node_path(&t, r), "/R");
        let (ll, lr) = t.children(l).unwrap();
        assert_eq!(node_path(&t, ll), "/L/L");
        assert_eq!(node_path(&t, lr), "/L/R");
    }
}
