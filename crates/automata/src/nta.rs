//! Nondeterministic bottom-up tree automata and their decision procedures.

use crate::dbta::Dbta;
use crate::least::{self, Any};
use crate::state::{State, StateSet};
use crate::topdown::TdTa;
use std::sync::Arc;
use xmltc_obs as obs;
use xmltc_trees::{Alphabet, BinaryTree, FxHashMap, Rank, Symbol, TreeError};

/// A nondeterministic bottom-up (frontier-to-root) tree automaton over a
/// ranked alphabet.
///
/// A run assigns states upward: a leaf labeled `a` may take any state in
/// `leaf(a)`; an internal node labeled `a` whose children carry `q₁, q₂` may
/// take any state in `node(a, q₁, q₂)`. The tree is accepted when the root
/// can carry a final state. `inst(A)` — the paper's notation — is the set of
/// accepted trees.
#[derive(Clone, Debug)]
pub struct Nta {
    alphabet: Arc<Alphabet>,
    n_states: u32,
    leaf: FxHashMap<Symbol, StateSet>,
    node: FxHashMap<(Symbol, State, State), StateSet>,
    finals: StateSet,
}

impl Nta {
    /// Creates an automaton with `n_states` states and no transitions.
    pub fn new(alphabet: &Arc<Alphabet>, n_states: u32) -> Nta {
        Nta {
            alphabet: Arc::clone(alphabet),
            n_states,
            leaf: FxHashMap::default(),
            node: FxHashMap::default(),
            finals: StateSet::new(),
        }
    }

    /// Adds a fresh state and returns it.
    pub fn add_state(&mut self) -> State {
        let q = State(self.n_states);
        self.n_states += 1;
        q
    }

    /// Adds a leaf transition `a → q`.
    pub fn add_leaf(&mut self, a: Symbol, q: State) {
        debug_assert_eq!(self.alphabet.rank(a), Rank::Leaf);
        debug_assert!(q.0 < self.n_states);
        self.leaf.entry(a).or_default().insert(q);
    }

    /// Adds an internal transition `a(q₁, q₂) → q`.
    pub fn add_node(&mut self, a: Symbol, q1: State, q2: State, q: State) {
        debug_assert_eq!(self.alphabet.rank(a), Rank::Binary);
        debug_assert!(q.0 < self.n_states && q1.0 < self.n_states && q2.0 < self.n_states);
        self.node.entry((a, q1, q2)).or_default().insert(q);
    }

    /// Marks `q` as final (accepting at the root).
    pub fn add_final(&mut self, q: State) {
        debug_assert!(q.0 < self.n_states);
        self.finals.insert(q);
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Number of states.
    pub fn n_states(&self) -> u32 {
        self.n_states
    }

    /// Number of transitions (leaf entries + internal entries, counting
    /// target multiplicity).
    pub fn n_transitions(&self) -> usize {
        self.leaf.values().map(StateSet::len).sum::<usize>()
            + self.node.values().map(StateSet::len).sum::<usize>()
    }

    /// The final states.
    pub fn finals(&self) -> &StateSet {
        &self.finals
    }

    /// The states a leaf labeled `a` may take.
    pub fn leaf_states(&self, a: Symbol) -> &[State] {
        self.leaf.get(&a).map(StateSet::as_slice).unwrap_or(&[])
    }

    /// The states an `a`-node over children states `(q₁, q₂)` may take.
    pub fn node_states(&self, a: Symbol, q1: State, q2: State) -> &[State] {
        self.node
            .get(&(a, q1, q2))
            .map(StateSet::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates over all internal transitions `(a, q₁, q₂) → q`.
    pub fn node_transitions(&self) -> impl Iterator<Item = (Symbol, State, State, State)> + '_ {
        self.node
            .iter()
            .flat_map(|(&(a, q1, q2), qs)| qs.iter().map(move |q| (a, q1, q2, q)))
    }

    /// Iterates over all leaf transitions `a → q`.
    pub fn leaf_transitions(&self) -> impl Iterator<Item = (Symbol, State)> + '_ {
        self.leaf
            .iter()
            .flat_map(|(&a, qs)| qs.iter().map(move |q| (a, q)))
    }

    /// Computes, for every node of `t`, the set of states reachable at that
    /// node (indexed by the tree's node ids).
    pub fn run(&self, t: &BinaryTree) -> Result<Vec<StateSet>, TreeError> {
        if !Alphabet::same(&self.alphabet, t.alphabet()) {
            return Err(TreeError::AlphabetMismatch);
        }
        let mut sets: Vec<StateSet> = vec![StateSet::new(); t.len()];
        // Arena ids are bottom-up (children before parents), so a single
        // forward pass visits children first.
        for i in 0..t.len() {
            let n = xmltc_trees::NodeId(i as u32);
            let a = t.symbol(n);
            sets[i] = match t.children(n) {
                None => self.leaf.get(&a).cloned().unwrap_or_default(),
                Some((l, r)) => {
                    let mut out = StateSet::new();
                    for ql in sets[l.index()].clone().iter() {
                        for qr in sets[r.index()].iter() {
                            if let Some(qs) = self.node.get(&(a, ql, qr)) {
                                out.union_with(qs);
                            }
                        }
                    }
                    out
                }
            };
        }
        Ok(sets)
    }

    /// Membership: does the automaton accept `t`?
    pub fn accepts(&self, t: &BinaryTree) -> Result<bool, TreeError> {
        let sets = self.run(t)?;
        Ok(sets[t.root().index()].intersects(&self.finals))
    }

    /// Marks the reachable states: those labeling at least one tree.
    fn reachability(&self) -> Vec<bool> {
        let mut reached = vec![false; self.n_states as usize];
        for qs in self.leaf.values() {
            for q in qs.iter() {
                reached[q.index()] = true;
            }
        }
        // Saturate: a transition fires once both sources are reachable.
        let mut changed = true;
        while changed {
            changed = false;
            for (&(_, q1, q2), qs) in &self.node {
                if reached[q1.index()] && reached[q2.index()] {
                    for q in qs.iter() {
                        changed |= !std::mem::replace(&mut reached[q.index()], true);
                    }
                }
            }
        }
        reached
    }

    /// The set of reachable states (those labeling at least one tree).
    pub fn reachable_states(&self) -> StateSet {
        let reached = self.reachability();
        (0..self.n_states)
            .map(State)
            .filter(|q| reached[q.index()])
            .collect()
    }

    /// Emptiness test.
    pub fn is_empty(&self) -> bool {
        let reached = self.reachability();
        !self.finals.iter().any(|q| reached[q.index()])
    }

    /// The least tree the automaton accepts, or `None` when `inst(A)` is
    /// empty. Trees are ordered by node count, then height, then root
    /// symbol (alphabet order), then left subtree, then right subtree, the
    /// subtrees compared by this same order. Every witness the workspace
    /// computes — eager or [lazy](crate::lazy), intersection or difference
    /// — is the least one, so it depends on the language alone, not on
    /// how its automaton was built.
    pub fn witness(&self) -> Option<BinaryTree> {
        least::search(self, &mut Any, u32::MAX)
            .expect("an unlimited search has no budget to exceed")
            .0
    }

    /// Product automaton; a pair is final when `keep` says so. Use
    /// `|a, b| a && b` for intersection. (Union via product requires
    /// completeness; prefer [`Nta::union`].)
    pub fn product(&self, other: &Nta, keep: impl Fn(bool, bool) -> bool) -> Nta {
        assert!(
            Alphabet::same(&self.alphabet, &other.alphabet),
            "product of automata over different alphabets"
        );
        let pair = |q1: State, q2: State| State(q1.0 * other.n_states + q2.0);
        let mut out = Nta::new(&self.alphabet, self.n_states * other.n_states);
        for (a, qa) in self.leaf_transitions() {
            for qb in other.leaf_states(a) {
                out.add_leaf(a, pair(qa, *qb));
            }
        }
        for (a, p1, p2, p) in self.node_transitions() {
            for (b_key, b_targets) in other.node.iter() {
                let &(bsym, r1, r2) = b_key;
                if bsym != a {
                    continue;
                }
                for r in b_targets.iter() {
                    out.add_node(a, pair(p1, r1), pair(p2, r2), pair(p, r));
                }
            }
        }
        for qa in 0..self.n_states {
            for qb in 0..other.n_states {
                if keep(
                    self.finals.contains(State(qa)),
                    other.finals.contains(State(qb)),
                ) {
                    out.add_final(pair(State(qa), State(qb)));
                }
            }
        }
        obs::add("nta.products", 1);
        obs::record_max("nta.product.peak_states", out.n_states as u64);
        out
    }

    /// Intersection `inst(A) ∩ inst(B)`.
    pub fn intersect(&self, other: &Nta) -> Nta {
        self.product(other, |a, b| a && b)
    }

    /// Union `inst(A) ∪ inst(B)` via disjoint sum.
    pub fn union(&self, other: &Nta) -> Nta {
        assert!(Alphabet::same(&self.alphabet, &other.alphabet));
        let off = self.n_states;
        let mut out = self.clone();
        out.n_states += other.n_states;
        for (a, q) in other.leaf_transitions() {
            out.add_leaf(a, State(q.0 + off));
        }
        for (a, q1, q2, q) in other.node_transitions() {
            out.add_node(a, State(q1.0 + off), State(q2.0 + off), State(q.0 + off));
        }
        for q in other.finals.iter() {
            out.add_final(State(q.0 + off));
        }
        out
    }

    /// Subset construction: an equivalent deterministic (and complete over
    /// its reachable space) bottom-up automaton.
    pub fn determinize(&self) -> Dbta {
        let mut index: FxHashMap<StateSet, State> = FxHashMap::default();
        let mut subsets: Vec<StateSet> = Vec::new();
        let mut intern = |s: StateSet, subsets: &mut Vec<StateSet>| -> State {
            if let Some(&q) = index.get(&s) {
                return q;
            }
            let q = State(subsets.len() as u32);
            index.insert(s.clone(), q);
            subsets.push(s);
            q
        };

        let mut leaf: FxHashMap<Symbol, State> = FxHashMap::default();
        let mut node: FxHashMap<(Symbol, State, State), State> = FxHashMap::default();

        let leaf_symbols: Vec<Symbol> = self.alphabet.leaves();
        let binary_symbols: Vec<Symbol> = self.alphabet.binaries();

        for &a in &leaf_symbols {
            let s = self.leaf.get(&a).cloned().unwrap_or_default();
            let q = intern(s, &mut subsets);
            leaf.insert(a, q);
        }

        // Explore all pairs of discovered subsets; newly discovered subsets
        // are paired against everything seen so far.
        let mut processed: usize = 0;
        while processed < subsets.len() {
            let q1 = State(processed as u32);
            processed += 1;
            let mut p2 = 0;
            while p2 < subsets.len() {
                let q2 = State(p2 as u32);
                p2 += 1;
                for &a in &binary_symbols {
                    for (x, y) in [(q1, q2), (q2, q1)] {
                        if node.contains_key(&(a, x, y)) {
                            continue;
                        }
                        let mut target = StateSet::new();
                        for s1 in subsets[x.index()].clone().iter() {
                            for s2 in subsets[y.index()].iter() {
                                if let Some(qs) = self.node.get(&(a, s1, s2)) {
                                    target.union_with(qs);
                                }
                            }
                        }
                        let t = intern(target, &mut subsets);
                        node.insert((a, x, y), t);
                    }
                }
            }
        }

        let finals: StateSet = subsets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.intersects(&self.finals))
            .map(|(i, _)| State(i as u32))
            .collect();

        obs::add("nta.determinizations", 1);
        obs::record_max("nta.determinize.peak_subsets", subsets.len() as u64);
        Dbta::from_parts(&self.alphabet, subsets.len() as u32, leaf, node, finals)
    }

    /// The complement automaton `inst(Ā) = T_Σ ∖ inst(A)` (deterministic).
    pub fn complement(&self) -> Dbta {
        obs::add("nta.complements", 1);
        self.determinize().complement()
    }

    /// Language inclusion `inst(self) ⊆ inst(other)`.
    pub fn subset_of(&self, other: &Nta) -> bool {
        self.intersect(&other.complement().to_nta()).is_empty()
    }

    /// A counterexample to `inst(self) ⊆ inst(other)`: a tree accepted by
    /// `self` but not by `other`.
    pub fn inclusion_counterexample(&self, other: &Nta) -> Option<BinaryTree> {
        self.intersect(&other.complement().to_nta()).witness()
    }

    /// Language equivalence.
    pub fn equivalent(&self, other: &Nta) -> bool {
        self.subset_of(other) && other.subset_of(self)
    }

    /// Removes states that are unreachable (label no tree) or useless
    /// (cannot contribute to acceptance), renumbering the rest.
    pub fn trim(&self) -> Nta {
        let reachable = self.reachable_states();
        // Co-reachable: final states, plus sources of transitions whose
        // target is co-reachable and whose sibling is reachable.
        let mut co: Vec<bool> = vec![false; self.n_states as usize];
        for q in self.finals.iter() {
            co[q.index()] = true;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (&(_, q1, q2), qs) in &self.node {
                if qs.iter().any(|q| co[q.index()]) {
                    if reachable.contains(q2) && !co[q1.index()] {
                        co[q1.index()] = true;
                        changed = true;
                    }
                    if reachable.contains(q1) && !co[q2.index()] {
                        co[q2.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        let keep: Vec<bool> = (0..self.n_states as usize)
            .map(|i| reachable.contains(State(i as u32)) && co[i])
            .collect();
        let mut remap: Vec<Option<State>> = vec![None; self.n_states as usize];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = Some(State(next));
                next += 1;
            }
        }
        let mut out = Nta::new(&self.alphabet, next);
        for (a, q) in self.leaf_transitions() {
            if let Some(nq) = remap[q.index()] {
                out.add_leaf(a, nq);
            }
        }
        for (a, q1, q2, q) in self.node_transitions() {
            if let (Some(n1), Some(n2), Some(nq)) =
                (remap[q1.index()], remap[q2.index()], remap[q.index()])
            {
                out.add_node(a, n1, n2, nq);
            }
        }
        for q in self.finals.iter() {
            if let Some(nq) = remap[q.index()] {
                out.add_final(nq);
            }
        }
        obs::add("nta.trims", 1);
        obs::add("nta.trim.states_in", self.n_states as u64);
        obs::add("nta.trim.states_out", next as u64);
        out
    }

    /// Converts to an equivalent top-down automaton (Definition 2.1), adding
    /// a fresh initial state that mimics every final state.
    pub fn to_tdta(&self) -> TdTa {
        let q0 = State(self.n_states);
        let mut td = TdTa::new(&self.alphabet, self.n_states + 1, q0);
        for (a, q) in self.leaf_transitions() {
            td.add_final_pair(a, q);
            if self.finals.contains(q) {
                td.add_final_pair(a, q0);
            }
        }
        for (a, q1, q2, q) in self.node_transitions() {
            td.add_transition(a, q, q1, q2);
            if self.finals.contains(q) {
                td.add_transition(a, q0, q1, q2);
            }
        }
        td
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Alphabet: leaves x, y; binary f, g.
    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f", "g"])
    }

    fn syms(al: &Arc<Alphabet>) -> (Symbol, Symbol, Symbol, Symbol) {
        (
            al.get("x").unwrap(),
            al.get("y").unwrap(),
            al.get("f").unwrap(),
            al.get("g").unwrap(),
        )
    }

    /// Accepts trees whose leaves are all `x`.
    fn all_x(al: &Arc<Alphabet>) -> Nta {
        let (x, _y, f, g) = syms(al);
        let mut a = Nta::new(al, 1);
        a.add_leaf(x, State(0));
        a.add_node(f, State(0), State(0), State(0));
        a.add_node(g, State(0), State(0), State(0));
        a.add_final(State(0));
        a
    }

    /// Accepts trees containing at least one `y` leaf.
    fn some_y(al: &Arc<Alphabet>) -> Nta {
        let (x, y, f, g) = syms(al);
        // state 0: no y seen; state 1: y seen somewhere below.
        let mut a = Nta::new(al, 2);
        a.add_leaf(x, State(0));
        a.add_leaf(y, State(1));
        for s in [f, g] {
            for (l, r, out) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)] {
                a.add_node(s, State(l), State(r), State(out));
            }
        }
        a.add_final(State(1));
        a
    }

    fn t(al: &Arc<Alphabet>, src: &str) -> BinaryTree {
        BinaryTree::parse(src, al).unwrap()
    }

    #[test]
    fn membership() {
        let al = alpha();
        let a = all_x(&al);
        assert!(a.accepts(&t(&al, "x")).unwrap());
        assert!(a.accepts(&t(&al, "f(x, g(x, x))")).unwrap());
        assert!(!a.accepts(&t(&al, "f(x, y)")).unwrap());
        let b = some_y(&al);
        assert!(!b.accepts(&t(&al, "x")).unwrap());
        assert!(b.accepts(&t(&al, "f(x, g(y, x))")).unwrap());
    }

    #[test]
    fn intersection_is_conjunction() {
        let al = alpha();
        let p = all_x(&al).intersect(&some_y(&al));
        // all leaves x AND some leaf y — impossible.
        assert!(p.is_empty());
        assert!(p.witness().is_none());
    }

    #[test]
    fn union_is_disjunction() {
        let al = alpha();
        let u = all_x(&al).union(&some_y(&al));
        assert!(u.accepts(&t(&al, "x")).unwrap());
        assert!(u.accepts(&t(&al, "f(y, x)")).unwrap());
        // Trees mixing: f(x,x) in all_x; also "f(x,x)" has no y: accepted.
        assert!(u.accepts(&t(&al, "f(x, x)")).unwrap());
    }

    #[test]
    fn witness_is_accepted() {
        let al = alpha();
        let b = some_y(&al);
        let w = b.witness().unwrap();
        assert!(b.accepts(&w).unwrap());
        // smallest witness is the single leaf y.
        assert_eq!(w.to_string(), "y");
    }

    #[test]
    fn determinize_preserves_language() {
        let al = alpha();
        let b = some_y(&al);
        let d = b.determinize();
        for src in ["x", "y", "f(x, x)", "f(x, y)", "g(f(x, x), f(x, y))"] {
            let tree = t(&al, src);
            assert_eq!(
                d.accepts(&tree).unwrap(),
                b.accepts(&tree).unwrap(),
                "tree {src}"
            );
        }
    }

    #[test]
    fn complement_flips_membership() {
        let al = alpha();
        let a = all_x(&al);
        let c = a.complement().to_nta();
        for src in ["x", "y", "f(x, y)", "f(x, x)"] {
            let tree = t(&al, src);
            assert_eq!(
                c.accepts(&tree).unwrap(),
                !a.accepts(&tree).unwrap(),
                "tree {src}"
            );
        }
    }

    #[test]
    fn inclusion() {
        let al = alpha();
        let a = all_x(&al);
        let b = some_y(&al);
        // all-x and some-y are disjoint; all-x ⊆ complement(some-y).
        assert!(a.subset_of(&b.complement().to_nta()));
        assert!(!a.subset_of(&b));
        let cex = a.inclusion_counterexample(&b).unwrap();
        assert!(a.accepts(&cex).unwrap());
        assert!(!b.accepts(&cex).unwrap());
    }

    #[test]
    fn equivalence() {
        let al = alpha();
        let a = all_x(&al);
        let a2 = a.determinize().to_nta();
        assert!(a.equivalent(&a2));
        assert!(!a.equivalent(&some_y(&al)));
    }

    #[test]
    fn trim_removes_useless_states() {
        let al = alpha();
        let (x, _, f, _) = syms(&al);
        let mut a = Nta::new(&al, 3);
        a.add_leaf(x, State(0));
        a.add_node(f, State(0), State(0), State(1));
        // State 2 is unreachable and useless.
        a.add_node(f, State(2), State(2), State(2));
        a.add_final(State(1));
        let trimmed = a.trim();
        assert_eq!(trimmed.n_states(), 2);
        assert!(trimmed.accepts(&t(&al, "f(x, x)")).unwrap());
        assert!(!trimmed.accepts(&t(&al, "x")).unwrap());
    }

    #[test]
    fn to_tdta_round_trip() {
        let al = alpha();
        let b = some_y(&al);
        let td = b.to_tdta();
        for src in ["x", "y", "f(x, y)", "f(g(x, x), x)", "f(g(x, y), x)"] {
            let tree = t(&al, src);
            assert_eq!(
                td.accepts(&tree).unwrap(),
                b.accepts(&tree).unwrap(),
                "tree {src}"
            );
        }
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let al = alpha();
        let other = alpha();
        let a = all_x(&al);
        let tree = t(&other, "x");
        assert!(a.accepts(&tree).is_err());
    }
}
