//! Symbolic tree automata over `Σ × {0,1}ⁿ` with cube-guarded transitions.

use crate::cube::{assignments_of, Cube};
use std::collections::VecDeque;
use std::sync::Arc;
use xmltc_automata::state::StateSet;
use xmltc_automata::{Nta, State};
use xmltc_obs as obs;
use xmltc_trees::{Alphabet, BinaryTree, FxHashMap, NodeId, Symbol};

/// Records the subset-construction frontier as a high-water gauge — kept
/// up to date even when a budgeted determinization aborts, so reports show
/// how far the construction got.
fn note_frontier(n_subsets: usize) {
    obs::record_max("mso.peak_subset_frontier", n_subsets as u64);
}

/// A nondeterministic bottom-up tree automaton whose alphabet is the base
/// ranked alphabet `Σ` extended with `n_tracks` boolean variable tracks per
/// node; transitions carry [`Cube`] guards over the tracks.
#[derive(Clone, Debug)]
pub struct SymTa {
    alphabet: Arc<Alphabet>,
    n_tracks: usize,
    n_states: u32,
    /// `(a, guard) → q` applicable at leaves.
    leaf: Vec<(Symbol, Cube, State)>,
    /// `(a, guard, q₁, q₂) → q` applicable at internal nodes.
    node: Vec<(Symbol, Cube, State, State, State)>,
    finals: StateSet,
}

impl SymTa {
    /// Creates an automaton with the given state count and no transitions.
    pub fn new(alphabet: &Arc<Alphabet>, n_tracks: usize, n_states: u32) -> SymTa {
        assert!(n_tracks <= 64, "at most 64 variable tracks supported");
        SymTa {
            alphabet: Arc::clone(alphabet),
            n_tracks,
            n_states,
            leaf: Vec::new(),
            node: Vec::new(),
            finals: StateSet::new(),
        }
    }

    /// The base alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Number of variable tracks.
    pub fn n_tracks(&self) -> usize {
        self.n_tracks
    }

    /// Number of states.
    pub fn n_states(&self) -> u32 {
        self.n_states
    }

    /// Number of transitions.
    pub fn n_transitions(&self) -> usize {
        self.leaf.len() + self.node.len()
    }

    /// Adds a guarded leaf transition.
    pub fn add_leaf(&mut self, a: Symbol, guard: Cube, q: State) {
        self.leaf.push((a, guard, q));
    }

    /// Adds a guarded internal transition.
    pub fn add_node(&mut self, a: Symbol, guard: Cube, q1: State, q2: State, q: State) {
        self.node.push((a, guard, q1, q2, q));
    }

    /// Marks a state final.
    pub fn add_final(&mut self, q: State) {
        self.finals.insert(q);
    }

    /// Membership under an explicit track assignment: `bits[n.index()]` is
    /// the track word at node `n`.
    pub fn accepts(&self, t: &BinaryTree, bits: &[u64]) -> bool {
        assert_eq!(bits.len(), t.len());
        let mut sets: Vec<StateSet> = vec![StateSet::new(); t.len()];
        for i in 0..t.len() {
            let n = NodeId(i as u32);
            let a = t.symbol(n);
            let w = bits[i];
            match t.children(n) {
                None => {
                    for &(sym, g, q) in &self.leaf {
                        if sym == a && g.matches(w) {
                            sets[i].insert(q);
                        }
                    }
                }
                Some((l, r)) => {
                    for &(sym, g, q1, q2, q) in &self.node {
                        if sym == a
                            && g.matches(w)
                            && sets[l.index()].contains(q1)
                            && sets[r.index()].contains(q2)
                        {
                            sets[i].insert(q);
                        }
                    }
                }
            }
        }
        sets[t.root().index()].intersects(&self.finals)
    }

    /// Intersection by product; guards conjoin.
    pub fn intersect(&self, other: &SymTa) -> SymTa {
        assert!(Alphabet::same(&self.alphabet, &other.alphabet));
        assert_eq!(self.n_tracks, other.n_tracks);
        let pair = |a: State, b: State| State(a.0 * other.n_states + b.0);
        let mut out = SymTa::new(
            &self.alphabet,
            self.n_tracks,
            self.n_states * other.n_states,
        );
        for &(a1, g1, q1) in &self.leaf {
            for &(a2, g2, q2) in &other.leaf {
                if a1 != a2 {
                    continue;
                }
                if let Some(g) = g1.intersect(g2) {
                    out.add_leaf(a1, g, pair(q1, q2));
                }
            }
        }
        for &(a1, g1, l1, r1, t1) in &self.node {
            for &(a2, g2, l2, r2, t2) in &other.node {
                if a1 != a2 {
                    continue;
                }
                if let Some(g) = g1.intersect(g2) {
                    out.add_node(a1, g, pair(l1, l2), pair(r1, r2), pair(t1, t2));
                }
            }
        }
        for f1 in self.finals.iter() {
            for f2 in other.finals.iter() {
                out.add_final(pair(f1, f2));
            }
        }
        out.trim()
    }

    /// Union by disjoint sum.
    pub fn union(&self, other: &SymTa) -> SymTa {
        assert!(Alphabet::same(&self.alphabet, &other.alphabet));
        assert_eq!(self.n_tracks, other.n_tracks);
        let off = self.n_states;
        let mut out = self.clone();
        out.n_states += other.n_states;
        for &(a, g, q) in &other.leaf {
            out.add_leaf(a, g, State(q.0 + off));
        }
        for &(a, g, q1, q2, q) in &other.node {
            out.add_node(a, g, State(q1.0 + off), State(q2.0 + off), State(q.0 + off));
        }
        for f in other.finals.iter() {
            out.add_final(State(f.0 + off));
        }
        out
    }

    /// Subset construction with per-symbol minterm enumeration. The result
    /// is deterministic and complete over its reachable space.
    pub fn determinize(&self) -> SymTa {
        self.determinize_limited(u32::MAX)
            .expect("unlimited determinization cannot hit the limit")
    }

    /// [`SymTa::determinize`] aborting with `None` once more than
    /// `state_limit` subset states have been discovered — the safety valve
    /// for the non-elementary pipeline.
    pub fn determinize_limited(&self, state_limit: u32) -> Option<SymTa> {
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

        let mut out = SymTa::new(&self.alphabet, self.n_tracks, 0);

        // Group transitions by symbol; per symbol compute the union mask of
        // guards (the "relevant" tracks) and enumerate its assignments.
        let leaf_syms = self.alphabet.leaves();
        let node_syms = self.alphabet.binaries();

        for &a in &leaf_syms {
            let trans: Vec<(Cube, State)> = self
                .leaf
                .iter()
                .filter(|(s, _, _)| *s == a)
                .map(|&(_, g, q)| (g, q))
                .collect();
            let mask = trans.iter().fold(0u64, |m, (g, _)| m | g.mask);
            for v in assignments_of(mask) {
                let set: StateSet = trans
                    .iter()
                    .filter(|(g, _)| g.matches(v))
                    .map(|&(_, q)| q)
                    .collect();
                let q = intern(set, &mut subsets);
                out.add_leaf(a, Cube { mask, bits: v }, q);
            }
            if subsets.len() as u64 > state_limit as u64 {
                note_frontier(subsets.len());
                return None;
            }
        }

        // Pair exploration as in Nta::determinize: every subset pair is
        // covered when the later of the two is processed.
        #[allow(clippy::type_complexity)]
        let per_symbol: Vec<(Symbol, Vec<(Cube, State, State, State)>, u64)> = node_syms
            .iter()
            .map(|&a| {
                let trans: Vec<(Cube, State, State, State)> = self
                    .node
                    .iter()
                    .filter(|(s, ..)| *s == a)
                    .map(|&(_, g, q1, q2, q)| (g, q1, q2, q))
                    .collect();
                let mask = trans.iter().fold(0u64, |m, (g, ..)| m | g.mask);
                (a, trans, mask)
            })
            .collect();

        let mut processed = 0usize;
        while processed < subsets.len() {
            let d1 = State(processed as u32);
            processed += 1;
            let mut p2 = 0usize;
            while p2 < subsets.len() {
                let d2 = State(p2 as u32);
                p2 += 1;
                for (a, trans, mask) in &per_symbol {
                    for (x, y) in [(d1, d2), (d2, d1)] {
                        for v in assignments_of(*mask) {
                            let set: StateSet = trans
                                .iter()
                                .filter(|(g, q1, q2, _)| {
                                    g.matches(v)
                                        && subsets[x.index()].contains(*q1)
                                        && subsets[y.index()].contains(*q2)
                                })
                                .map(|&(_, _, _, q)| q)
                                .collect();
                            let t = intern(set, &mut subsets);
                            out.add_node(
                                *a,
                                Cube {
                                    mask: *mask,
                                    bits: v,
                                },
                                x,
                                y,
                                t,
                            );
                        }
                    }
                    if subsets.len() as u64 > state_limit as u64 {
                        note_frontier(subsets.len());
                        return None;
                    }
                }
            }
        }

        note_frontier(subsets.len());
        out.n_states = subsets.len() as u32;
        for (i, s) in subsets.iter().enumerate() {
            if s.intersects(&self.finals) {
                out.add_final(State(i as u32));
            }
        }
        // Deduplicate node transitions added twice for symmetric pairs.
        out.node
            .sort_unstable_by_key(|&(a, g, q1, q2, q)| (a, g.mask, g.bits, q1, q2, q));
        out.node.dedup();
        Some(out)
    }

    /// Complement: determinize (complete over reachable) and flip finals.
    pub fn complement(&self) -> SymTa {
        self.complement_limited(u32::MAX)
            .expect("unlimited complementation cannot hit the limit")
    }

    /// [`SymTa::complement`] with a subset-state budget.
    pub fn complement_limited(&self, state_limit: u32) -> Option<SymTa> {
        let mut d = self.determinize_limited(state_limit)?;
        d.finals = (0..d.n_states)
            .map(State)
            .filter(|q| !d.finals.contains(*q))
            .collect();
        Some(d.trim())
    }

    /// Existentially projects away track `t` (higher tracks shift down).
    pub fn project(&self, t: usize) -> SymTa {
        assert!(t < self.n_tracks);
        let mut out = SymTa::new(&self.alphabet, self.n_tracks - 1, self.n_states);
        for &(a, g, q) in &self.leaf {
            out.add_leaf(a, g.project(t), q);
        }
        for &(a, g, q1, q2, q) in &self.node {
            out.add_node(a, g.project(t), q1, q2, q);
        }
        for f in self.finals.iter() {
            out.add_final(f);
        }
        // Projection can create duplicate transitions.
        out.leaf
            .sort_unstable_by_key(|&(a, g, q)| (a, g.mask, g.bits, q));
        out.leaf.dedup();
        out.node
            .sort_unstable_by_key(|&(a, g, q1, q2, q)| (a, g.mask, g.bits, q1, q2, q));
        out.node.dedup();
        out
    }

    /// The 2-state automaton asserting that exactly one node carries a `1`
    /// on track `t` — the well-formedness constraint conjoined before
    /// projecting a first-order variable.
    pub fn singleton(alphabet: &Arc<Alphabet>, n_tracks: usize, t: usize) -> SymTa {
        let mut a = SymTa::new(alphabet, n_tracks, 2);
        let zero = State(0); // no marked node in this subtree
        let one = State(1); // exactly one marked node
        for sym in alphabet.leaves() {
            a.add_leaf(sym, Cube::single(t, false), zero);
            a.add_leaf(sym, Cube::single(t, true), one);
        }
        for sym in alphabet.binaries() {
            a.add_node(sym, Cube::single(t, false), zero, zero, zero);
            a.add_node(sym, Cube::single(t, false), one, zero, one);
            a.add_node(sym, Cube::single(t, false), zero, one, one);
            a.add_node(sym, Cube::single(t, true), zero, zero, one);
        }
        a.add_final(one);
        a
    }

    /// Removes unreachable and useless states (language-preserving).
    pub fn trim(&self) -> SymTa {
        // Bottom-up reachable.
        let n = self.n_states as usize;
        let mut reach = vec![false; n];
        let mut changed = true;
        while changed {
            changed = false;
            for &(_, _, q) in &self.leaf {
                if !reach[q.index()] {
                    reach[q.index()] = true;
                    changed = true;
                }
            }
            for &(_, _, q1, q2, q) in &self.node {
                if reach[q1.index()] && reach[q2.index()] && !reach[q.index()] {
                    reach[q.index()] = true;
                    changed = true;
                }
            }
        }
        // Top-down useful.
        let mut useful = vec![false; n];
        for f in self.finals.iter() {
            if reach[f.index()] {
                useful[f.index()] = true;
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &(_, _, q1, q2, q) in &self.node {
                if useful[q.index()] && reach[q1.index()] && reach[q2.index()] {
                    if !useful[q1.index()] {
                        useful[q1.index()] = true;
                        changed = true;
                    }
                    if !useful[q2.index()] {
                        useful[q2.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        let keep: Vec<bool> = (0..n).map(|i| reach[i] && useful[i]).collect();
        let mut remap: Vec<Option<State>> = vec![None; n];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = Some(State(next));
                next += 1;
            }
        }
        let mut out = SymTa::new(&self.alphabet, self.n_tracks, next);
        for &(a, g, q) in &self.leaf {
            if let Some(nq) = remap[q.index()] {
                out.add_leaf(a, g, nq);
            }
        }
        for &(a, g, q1, q2, q) in &self.node {
            if let (Some(n1), Some(n2), Some(nq)) =
                (remap[q1.index()], remap[q2.index()], remap[q.index()])
            {
                out.add_node(a, g, n1, n2, nq);
            }
        }
        for f in self.finals.iter() {
            if let Some(nf) = remap[f.index()] {
                out.add_final(nf);
            }
        }
        out
    }

    /// Converts a track-free automaton to a plain NTA over `Σ`.
    ///
    /// Panics if tracks remain (project or quantify them away first).
    pub fn to_nta(&self) -> Nta {
        assert_eq!(self.n_tracks, 0, "project all tracks before to_nta");
        let mut out = Nta::new(&self.alphabet, self.n_states);
        for &(a, g, q) in &self.leaf {
            debug_assert_eq!(g.mask, 0);
            out.add_leaf(a, q);
        }
        for &(a, g, q1, q2, q) in &self.node {
            debug_assert_eq!(g.mask, 0);
            out.add_node(a, q1, q2, q);
        }
        for f in self.finals.iter() {
            out.add_final(f);
        }
        out
    }

    /// An automaton accepting *every* tree/assignment (1 state).
    pub fn top(alphabet: &Arc<Alphabet>, n_tracks: usize) -> SymTa {
        let mut a = SymTa::new(alphabet, n_tracks, 1);
        for sym in alphabet.leaves() {
            a.add_leaf(sym, Cube::TOP, State(0));
        }
        for sym in alphabet.binaries() {
            a.add_node(sym, Cube::TOP, State(0), State(0), State(0));
        }
        a.add_final(State(0));
        a
    }

    /// Breadth-first emptiness over the (symbol × minterm) alphabet; mainly
    /// used in tests.
    pub fn is_empty(&self) -> bool {
        let n = self.n_states as usize;
        let mut reach = vec![false; n];
        let mut queue = VecDeque::new();
        for &(_, _, q) in &self.leaf {
            if !reach[q.index()] {
                reach[q.index()] = true;
                queue.push_back(q);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &(_, _, q1, q2, q) in &self.node {
                if reach[q1.index()] && reach[q2.index()] && !reach[q.index()] {
                    reach[q.index()] = true;
                    changed = true;
                }
            }
        }
        drop(queue);
        !self.finals.iter().any(|f| reach[f.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    fn t(al: &Arc<Alphabet>, s: &str) -> BinaryTree {
        BinaryTree::parse(s, al).unwrap()
    }

    /// 1-track automaton: every marked node is labeled `x` (the weak
    /// `label(x)` atom).
    fn marked_are_x(al: &Arc<Alphabet>) -> SymTa {
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let f = al.get("f").unwrap();
        let mut a = SymTa::new(al, 1, 1);
        let q = State(0);
        a.add_leaf(x, Cube::TOP, q);
        a.add_leaf(y, Cube::single(0, false), q);
        a.add_node(f, Cube::single(0, false), q, q, q);
        a.add_final(q);
        a
    }

    #[test]
    fn guarded_acceptance() {
        let al = alpha();
        let a = marked_are_x(&al);
        let tree = t(&al, "f(x, y)");
        // nodes in arena order: x=0, y=1, f=2 (builder is bottom-up).
        assert!(a.accepts(&tree, &[0, 0, 0]));
        assert!(a.accepts(&tree, &[1, 0, 0])); // mark the x leaf
        assert!(!a.accepts(&tree, &[0, 1, 0])); // mark the y leaf
        assert!(!a.accepts(&tree, &[0, 0, 1])); // mark the f node
    }

    #[test]
    fn singleton_counts_marks() {
        let al = alpha();
        let s = SymTa::singleton(&al, 1, 0);
        let tree = t(&al, "f(x, y)");
        assert!(!s.accepts(&tree, &[0, 0, 0]));
        assert!(s.accepts(&tree, &[1, 0, 0]));
        assert!(s.accepts(&tree, &[0, 0, 1]));
        assert!(!s.accepts(&tree, &[1, 1, 0]));
        assert!(!s.accepts(&tree, &[1, 1, 1]));
    }

    #[test]
    fn intersect_and_union() {
        let al = alpha();
        let a = marked_are_x(&al);
        let s = SymTa::singleton(&al, 1, 0);
        let both = a.intersect(&s);
        let tree = t(&al, "f(x, y)");
        assert!(both.accepts(&tree, &[1, 0, 0]));
        assert!(!both.accepts(&tree, &[0, 0, 0])); // no mark
        assert!(!both.accepts(&tree, &[0, 1, 0])); // marked y
        let either = a.union(&s);
        assert!(either.accepts(&tree, &[0, 0, 0]));
        assert!(either.accepts(&tree, &[0, 0, 1]));
        assert!(!either.accepts(&tree, &[0, 1, 1]));
    }

    #[test]
    fn determinize_preserves() {
        let al = alpha();
        let a = marked_are_x(&al).union(&SymTa::singleton(&al, 1, 0));
        let d = a.determinize();
        let tree = t(&al, "f(f(x, y), x)");
        for bits in 0u64..32 {
            let w: Vec<u64> = (0..5).map(|i| (bits >> i) & 1).collect();
            assert_eq!(d.accepts(&tree, &w), a.accepts(&tree, &w), "bits {bits:b}");
        }
    }

    #[test]
    fn complement_flips() {
        let al = alpha();
        let a = marked_are_x(&al);
        let c = a.complement();
        let tree = t(&al, "f(x, y)");
        for bits in 0u64..8 {
            let w: Vec<u64> = (0..3).map(|i| (bits >> i) & 1).collect();
            assert_eq!(c.accepts(&tree, &w), !a.accepts(&tree, &w), "bits {bits:b}");
        }
    }

    #[test]
    fn projection_is_existential() {
        let al = alpha();
        // singleton on track 0, projected: "some assignment marks exactly
        // one node" — true for every tree.
        let s = SymTa::singleton(&al, 1, 0);
        let p = s.project(0);
        assert_eq!(p.n_tracks(), 0);
        let tree = t(&al, "f(x, y)");
        assert!(p.accepts(&tree, &[0, 0, 0]));
        let nta = p.to_nta();
        assert!(nta.accepts(&tree).unwrap());
        assert!(!nta.is_empty());
    }

    #[test]
    fn top_accepts_everything() {
        let al = alpha();
        let a = SymTa::top(&al, 2);
        let tree = t(&al, "f(x, f(y, x))");
        assert!(a.accepts(&tree, &[3, 1, 0, 2, 1]));
    }

    #[test]
    fn trim_preserves() {
        let al = alpha();
        let mut a = marked_are_x(&al);
        // add junk states
        a.n_states += 3;
        let d = a.trim();
        assert_eq!(d.n_states(), 1);
        let tree = t(&al, "f(x, x)");
        assert!(d.accepts(&tree, &[1, 1, 0]));
    }

    #[test]
    fn emptiness() {
        let al = alpha();
        assert!(!marked_are_x(&al).is_empty());
        let empty = SymTa::new(&al, 0, 1);
        assert!(empty.is_empty());
    }
}
