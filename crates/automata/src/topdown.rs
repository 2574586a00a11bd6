//! Nondeterministic top-down (root-to-frontier) tree automata with silent
//! transitions — Definition 2.1 and the silent-elimination construction of
//! Section 2.3.
//!
//! The paper's silent transitions `(a, q) → q'` may depend on the current
//! symbol. The only silent moves this crate is ever given are
//! symbol-independent: the Proposition 3.8 output automaton
//! (`xmltc_core::eval::output_automaton`) turns each transducer *move*
//! into a step `q → q'` that reads no output symbol. So [`TdTa`] stores
//! silent moves only in that form ([`TdTa::add_silent_any`]), and
//! elimination is one productive-set propagation.

use crate::nta::Nta;
use crate::state::{State, StateSet};
use std::sync::Arc;
use xmltc_trees::{Alphabet, BinaryTree, FxHashMap, FxHashSet, Rank, Symbol, TreeError};

/// A nondeterministic top-down tree automaton
/// `A = (Σ, Q, q₀, Q_F, P)` with optional silent transitions.
///
/// * regular transitions `(a, q) → (q₁, q₂)` with `a ∈ Σ₂`;
/// * final symbol-state pairs `Q_F ⊆ Σ₀ × Q`;
/// * silent transitions `q → q'`, applicable under every symbol, that
///   change state without moving the head (used by the Proposition 3.8
///   construction, where transducer moves become silent steps of the
///   output automaton).
#[derive(Clone, Debug)]
pub struct TdTa {
    alphabet: Arc<Alphabet>,
    n_states: u32,
    initial: State,
    final_pairs: FxHashSet<(Symbol, State)>,
    trans: FxHashMap<(Symbol, State), Vec<(State, State)>>,
    /// Silent transitions, one list per source state. Being
    /// symbol-independent, they are not multiplied by `|Σ|`.
    silent: FxHashMap<State, Vec<State>>,
}

impl TdTa {
    /// Creates an automaton with `n_states` states, the given initial state
    /// and no transitions.
    pub fn new(alphabet: &Arc<Alphabet>, n_states: u32, initial: State) -> TdTa {
        debug_assert!(initial.0 < n_states);
        TdTa {
            alphabet: Arc::clone(alphabet),
            n_states,
            initial,
            final_pairs: FxHashSet::default(),
            trans: FxHashMap::default(),
            silent: FxHashMap::default(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> State {
        let q = State(self.n_states);
        self.n_states += 1;
        q
    }

    /// Adds a transition `(a, q) → (q₁, q₂)`.
    pub fn add_transition(&mut self, a: Symbol, q: State, q1: State, q2: State) {
        debug_assert_eq!(self.alphabet.rank(a), Rank::Binary);
        self.trans.entry((a, q)).or_default().push((q1, q2));
    }

    /// Adds a silent transition `q → q'` applicable under every symbol.
    pub fn add_silent_any(&mut self, q: State, q_next: State) {
        self.silent.entry(q).or_default().push(q_next);
    }

    /// Adds a final pair `(a, q)`: a branch in state `q` on a leaf labeled
    /// `a` accepts.
    pub fn add_final_pair(&mut self, a: Symbol, q: State) {
        debug_assert_eq!(self.alphabet.rank(a), Rank::Leaf);
        self.final_pairs.insert((a, q));
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Number of states.
    pub fn n_states(&self) -> u32 {
        self.n_states
    }

    /// The initial state.
    pub fn initial(&self) -> State {
        self.initial
    }

    /// True when the automaton has silent transitions.
    pub fn has_silent(&self) -> bool {
        !self.silent.is_empty()
    }

    /// Number of transitions of all kinds.
    pub fn n_transitions(&self) -> usize {
        self.final_pairs.len()
            + self.trans.values().map(Vec::len).sum::<usize>()
            + self.silent.values().map(Vec::len).sum::<usize>()
    }

    /// The regular transitions available from `(a, q)` (ignoring silent
    /// transitions — eliminate them first for complete information).
    pub fn transitions_for(&self, a: Symbol, q: State) -> &[(State, State)] {
        self.trans.get(&(a, q)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Is `(a, q)` a final symbol-state pair?
    pub fn is_final_pair(&self, a: Symbol, q: State) -> bool {
        self.final_pairs.contains(&(a, q))
    }

    /// Iterates over all final pairs.
    pub fn final_pairs(&self) -> impl Iterator<Item = (Symbol, State)> + '_ {
        self.final_pairs.iter().copied()
    }

    /// Iterates over all regular transitions `(a, q) → (q₁, q₂)`.
    pub fn transitions(&self) -> impl Iterator<Item = (Symbol, State, State, State)> + '_ {
        self.trans
            .iter()
            .flat_map(|(&(a, q), v)| v.iter().map(move |&(q1, q2)| (a, q, q1, q2)))
    }

    /// The paper's silent-transition elimination (end of Section 2.3):
    /// with `q ⇒ q'` the reflexive-transitive closure of silent moves, the
    /// new transitions are
    /// `P' = {(a,q) → (q₁,q₂) | q ⇒ q', (a,q') → (q₁,q₂) ∈ P}` and
    /// `Q_F' = {(a,q) | q ⇒ q', (a,q') ∈ Q_F}`.
    ///
    /// Rather than materializing full closures — quadratic on the long
    /// deterministic move-chains pebble transducers produce — this
    /// propagates backward, for each state, only the *productive*
    /// silent-reachable states (those carrying a regular transition or
    /// final pair). On deterministic chains each set has one element and
    /// the pass is linear.
    pub fn eliminate_silent(&self) -> TdTa {
        if !self.has_silent() {
            return self.clone();
        }
        let n = self.n_states as usize;
        let mut productive = vec![false; n];
        for &(_, q) in self.trans.keys() {
            productive[q.index()] = true;
        }
        for &(_, q) in &self.final_pairs {
            productive[q.index()] = true;
        }

        // P(q) = {q | productive} ∪ ⋃_{q →silent q'} P(q'); worklist
        // fixpoint propagating growth to silent-predecessors.
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (&q, targets) in &self.silent {
            for t in targets {
                preds[t.index()].push(q.0);
            }
        }
        let mut p: Vec<StateSet> = (0..n)
            .map(|i| {
                let mut s = StateSet::new();
                if productive[i] {
                    s.insert(State(i as u32));
                }
                s
            })
            .collect();
        let mut queue: Vec<u32> = (0..n as u32).collect();
        let mut queued = vec![true; n];
        while let Some(qi) = queue.pop() {
            queued[qi as usize] = false;
            // Recompute P(q) from its successors; if it grew, requeue
            // predecessors.
            let mut grew = false;
            if let Some(targets) = self.silent.get(&State(qi)) {
                let merged: Vec<State> = targets
                    .iter()
                    .flat_map(|t| p[t.index()].iter().collect::<Vec<_>>())
                    .collect();
                for s in merged {
                    grew |= p[qi as usize].insert(s);
                }
            }
            if grew {
                for &pr in &preds[qi as usize] {
                    if !queued[pr as usize] {
                        queued[pr as usize] = true;
                        queue.push(pr);
                    }
                }
            }
        }

        // Index regular transitions and finals by source state, then merge
        // each state's productive set.
        let mut out = TdTa::new(&self.alphabet, self.n_states, self.initial);
        let mut by_state_trans: Vec<Vec<(Symbol, State, State)>> = vec![Vec::new(); n];
        for (&(a, src), pairs) in &self.trans {
            for &(l, r) in pairs {
                by_state_trans[src.index()].push((a, l, r));
            }
        }
        let mut by_state_finals: Vec<Vec<Symbol>> = vec![Vec::new(); n];
        for &(a, q) in &self.final_pairs {
            by_state_finals[q.index()].push(a);
        }
        #[allow(clippy::needless_range_loop)]
        for q in 0..n {
            for target in p[q].iter() {
                for &(a, l, r) in &by_state_trans[target.index()] {
                    out.add_transition(a, State(q as u32), l, r);
                }
                for &a in &by_state_finals[target.index()] {
                    out.add_final_pair(a, State(q as u32));
                }
            }
        }
        out
    }

    /// Converts to an equivalent bottom-up automaton (silent transitions are
    /// eliminated first). The bottom-up automaton reverses the transitions
    /// and accepts at the root in the top-down initial state.
    pub fn to_nta(&self) -> Nta {
        let base = self.eliminate_silent();
        let mut out = Nta::new(&base.alphabet, base.n_states);
        for &(a, q) in &base.final_pairs {
            out.add_leaf(a, q);
        }
        for (&(a, q), targets) in &base.trans {
            for &(q1, q2) in targets {
                out.add_node(a, q1, q2, q);
            }
        }
        out.add_final(base.initial);
        out
    }

    /// Membership test (via the bottom-up view).
    pub fn accepts(&self, t: &BinaryTree) -> Result<bool, TreeError> {
        self.to_nta().accepts(t)
    }

    /// Emptiness test.
    pub fn is_empty(&self) -> bool {
        self.to_nta().is_empty()
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

    /// Top-down automaton for "left spine of f's ending in x" — i.e. trees
    /// where every right child is y and the leftmost leaf is x.
    fn left_spine(al: &Arc<Alphabet>) -> TdTa {
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let f = al.get("f").unwrap();
        let mut a = TdTa::new(al, 2, State(0));
        // state 0: spine; state 1: must be y leaf.
        a.add_transition(f, State(0), State(0), State(1));
        a.add_final_pair(x, State(0));
        a.add_final_pair(y, State(1));
        a
    }

    #[test]
    fn topdown_accepts() {
        let al = alpha();
        let a = left_spine(&al);
        assert!(a.accepts(&t(&al, "x")).unwrap());
        assert!(a.accepts(&t(&al, "f(x, y)")).unwrap());
        assert!(a.accepts(&t(&al, "f(f(x, y), y)")).unwrap());
        assert!(!a.accepts(&t(&al, "f(y, y)")).unwrap());
        assert!(!a.accepts(&t(&al, "f(x, x)")).unwrap());
        assert!(!a.accepts(&t(&al, "f(x, f(x, y))")).unwrap());
    }

    #[test]
    fn silent_elimination_preserves_language() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let f = al.get("f").unwrap();
        // Same language as left_spine but routed through silent hops:
        // 0 -silent-> 2, (f,2) -> (0,1); 0 -silent-> 3, (x,3) final.
        let mut a = TdTa::new(&al, 4, State(0));
        a.add_silent_any(State(0), State(2));
        a.add_transition(f, State(2), State(0), State(1));
        a.add_silent_any(State(0), State(3));
        a.add_final_pair(x, State(3));
        a.add_final_pair(y, State(1));
        assert!(a.has_silent());
        let e = a.eliminate_silent();
        assert!(!e.has_silent());
        let reference = left_spine(&al);
        for src in [
            "x",
            "y",
            "f(x, y)",
            "f(f(x, y), y)",
            "f(y, y)",
            "f(x, x)",
            "f(x, f(x, y))",
        ] {
            let tree = t(&al, src);
            assert_eq!(
                e.accepts(&tree).unwrap(),
                reference.accepts(&tree).unwrap(),
                "tree {src}"
            );
            // accepts() on the silent automaton itself also agrees.
            assert_eq!(
                a.accepts(&tree).unwrap(),
                reference.accepts(&tree).unwrap(),
                "silent tree {src}"
            );
        }
    }

    #[test]
    fn silent_chains_and_cycles() {
        let al = alpha();
        let x = al.get("x").unwrap();
        // 0 -> 1 -> 2 -> 0 silent cycle, and (x,2) final.
        let mut a = TdTa::new(&al, 3, State(0));
        a.add_silent_any(State(0), State(1));
        a.add_silent_any(State(1), State(2));
        a.add_silent_any(State(2), State(0));
        a.add_final_pair(x, State(2));
        assert!(a.accepts(&t(&al, "x")).unwrap());
        assert!(!a.accepts(&t(&al, "y")).unwrap());
    }

    #[test]
    fn emptiness() {
        let al = alpha();
        assert!(!left_spine(&al).is_empty());
        let x = al.get("x").unwrap();
        let mut never = TdTa::new(&al, 2, State(0));
        never.add_final_pair(x, State(1)); // state 1 unreachable
        assert!(never.is_empty());
    }

    #[test]
    fn nta_round_trip() {
        let al = alpha();
        let a = left_spine(&al);
        let nta = a.to_nta();
        let td2 = nta.to_tdta();
        for src in ["x", "f(x, y)", "f(y, y)", "f(f(x, y), y)"] {
            let tree = t(&al, src);
            assert_eq!(
                td2.accepts(&tree).unwrap(),
                a.accepts(&tree).unwrap(),
                "tree {src}"
            );
        }
    }
}
