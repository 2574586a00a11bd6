//! Lazy on-the-fly emptiness for implicit automaton products.
//!
//! The Theorem 4.4 pipeline ends in an emptiness check over a product
//! automaton — `τ₁ ∩ violations` for the verdict, `A_t ∩ complement(τ₂)`
//! for bad-output extraction. The eager procedure materializes every
//! product state (and, for complements, the full subset construction)
//! before asking reachability; the verdict, however, only depends on
//! configurations the search actually *reaches*. Following the on-the-fly
//! approach of Frisch & Hosoya ("Towards Practical Typechecking for Macro
//! Tree Transducers"), this module performs a goal-directed, top-down
//! search over the *implicit* product:
//!
//! * Product configurations pair a top-down state of the left automaton
//!   with an obligation on the right automaton — either *membership* in a
//!   single state ([`intersection_witness`]) or *rejection from a set of
//!   states* ([`difference_witness`]). The rejection sets are exactly the
//!   states of the determinized complement, created **only when the search
//!   touches them** — the complement `Dbta` is never materialized.
//! * The search descends root-to-frontier. A configuration already on the
//!   current search path is cut via an **assumption set** (assumed
//!   uninhabited, greatest-fixpoint style): a smallest witness never
//!   repeats a configuration along a branch, so the cut is exact.
//! * Memoization is lowlink-guarded: *inhabited* verdicts (which carry a
//!   witness recipe) are always cached; *empty* verdicts are cached only
//!   when they did not lean on an assumption about a configuration still
//!   under exploration further up the path — otherwise a later refutation
//!   of that assumption could invalidate the cache entry.
//! * The first reachable accepting configuration stops the search, and its
//!   recipe chain rebuilds a concrete witness tree.
//!
//! On negative ("typechecks") instances the search still terminates after
//! exploring every *reachable* configuration — typically a small fraction
//! of the eager product's state space ([`LazyStats`] reports the ratio).

use crate::nta::Nta;
use crate::state::{State, StateSet};
use crate::topdown::TdTa;
use xmltc_obs as obs;
use xmltc_trees::tree::BinaryTreeBuilder;
use xmltc_trees::{Alphabet, BinaryTree, FxHashMap, FxHashSet, NodeId, Symbol};

/// Outcome of a lazy emptiness search.
#[derive(Clone, Debug)]
pub enum LazyOutcome {
    /// The implicit product language is empty.
    Empty,
    /// A tree in the product language (first accepting configuration
    /// reached).
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
    /// Product configurations materialized (interned) by the search.
    pub states_materialized: u64,
    /// Size of the eager product state space this search avoided
    /// (`|A| · |B|` for intersections, `|A| · 2^|B|` saturating for
    /// complements).
    pub states_eager: u64,
    /// Distinct on-demand subset states of the complement side.
    pub subset_states: u64,
    /// Deepest point of the search stack (the DFS worklist).
    pub worklist_peak: u64,
    /// Searches answered from the memo table.
    pub memo_hits: u64,
    /// Cycles cut by the assumption set.
    pub assumption_hits: u64,
}

impl LazyStats {
    fn publish(&self) {
        obs::record("lazy.states_materialized", self.states_materialized);
        obs::record("lazy.states_eager", self.states_eager);
        obs::record("lazy.subset_states", self.subset_states);
        obs::record("lazy.worklist_peak", self.worklist_peak);
        obs::record("lazy.memo_hits", self.memo_hits);
        obs::record("lazy.assumption_hits", self.assumption_hits);
    }
}

/// Errors from the lazy engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LazyError {
    /// The two automata speak different alphabets.
    AlphabetMismatch,
    /// The search materialized more configurations than its budget allows.
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

/// Decides emptiness of `inst(a) ∩ inst(b)` on the fly, without
/// materializing the product automaton. Returns a witness tree when the
/// intersection is inhabited. `limit` bounds the number of product
/// configurations the search may intern.
pub fn intersection_witness(
    a: &Nta,
    b: &Nta,
    limit: u32,
) -> Result<(LazyOutcome, LazyStats), LazyError> {
    if !Alphabet::same(a.alphabet(), b.alphabet()) {
        return Err(LazyError::AlphabetMismatch);
    }
    let atd = a.to_tdta();
    let btd = b.to_tdta();
    let eager = (a.n_states() as u64).saturating_mul(b.n_states() as u64);
    let mut search = Search::new(&atd, &btd, limit, eager);
    let root = Config {
        p: atd.initial(),
        pos: Some(btd.initial()),
        neg: EMPTY_SUBSET,
    };
    search.run(root)
}

/// Decides emptiness of `inst(a) ∖ inst(b)` (equivalently, the inclusion
/// `inst(a) ⊆ inst(b)`) on the fly: the complement of `b` is determinized
/// **on demand**, one subset state at a time, as the search touches it.
/// Returns a tree in `inst(a) ∖ inst(b)` when the difference is inhabited.
pub fn difference_witness(
    a: &Nta,
    b: &Nta,
    limit: u32,
) -> Result<(LazyOutcome, LazyStats), LazyError> {
    if !Alphabet::same(a.alphabet(), b.alphabet()) {
        return Err(LazyError::AlphabetMismatch);
    }
    let atd = a.to_tdta();
    let btd = b.to_tdta();
    let subsets = 2u64
        .checked_pow(b.n_states().min(63))
        .unwrap_or(u64::MAX)
        .max(1);
    let eager = (a.n_states() as u64).saturating_mul(subsets);
    let mut search = Search::new(&atd, &btd, limit, eager);
    let neg = search.intern_subset(StateSet::from_iter_canon([btd.initial()]));
    let root = Config {
        p: atd.initial(),
        pos: None,
        neg,
    };
    search.run(root)
}

/// Index of the pre-interned empty rejection set.
const EMPTY_SUBSET: u32 = 0;

/// No dependency on any path assumption.
const NO_DEP: u32 = u32::MAX;

/// A product configuration: a top-down state of the left automaton, an
/// optional membership obligation on the right automaton, and a (possibly
/// empty) interned set of right states the tree must be *rejected* from —
/// one on-demand subset state of the complement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Config {
    p: State,
    pos: Option<State>,
    neg: u32,
}

/// Lifecycle of a configuration in the search.
#[derive(Clone, Copy)]
enum Mark {
    /// Interned but never entered (or a provisional empty verdict was
    /// invalidated by a refuted assumption).
    Unvisited,
    /// Open: on the current search path, or popped with a provisional
    /// empty verdict that still leans on an open ancestor. Carries the
    /// visit index (monotone, never reused). Open configurations form the
    /// assumption set: hitting one returns "empty, assuming the entry at
    /// this index is empty".
    Open(u32),
    /// Proven uninhabited, independently of any assumption.
    Empty,
    /// Proven inhabited, with a witness recipe.
    Inhabited(u32),
}

/// How a configuration was first inhabited.
#[derive(Clone, Copy)]
enum Recipe {
    Leaf(Symbol),
    Node(Symbol, u32, u32),
}

/// Result of one recursive search step: a witness recipe, or emptiness
/// together with the smallest visit index whose assumption it leaned on
/// ([`NO_DEP`] when self-contained).
#[derive(Clone, Copy)]
enum Step {
    Inhabited(u32),
    Empty { min_dep: u32 },
}

struct Search<'a> {
    atd: &'a TdTa,
    btd: &'a TdTa,
    leaves: Vec<Symbol>,
    binaries: Vec<Symbol>,
    subsets: Vec<StateSet>,
    subset_ix: FxHashMap<StateSet, u32>,
    config_ix: FxHashMap<Config, u32>,
    configs: Vec<Config>,
    marks: Vec<Mark>,
    /// Open configurations in visit order (Tarjan-style): the current
    /// search path interleaved with popped-but-provisional empties.
    open: Vec<u32>,
    next_index: u32,
    depth: u32,
    recipes: Vec<Recipe>,
    limit: u32,
    stats: LazyStats,
}

impl<'a> Search<'a> {
    fn new(atd: &'a TdTa, btd: &'a TdTa, limit: u32, eager: u64) -> Search<'a> {
        let mut s = Search {
            atd,
            btd,
            leaves: atd.alphabet().leaves(),
            binaries: atd.alphabet().binaries(),
            subsets: Vec::new(),
            subset_ix: FxHashMap::default(),
            config_ix: FxHashMap::default(),
            configs: Vec::new(),
            marks: Vec::new(),
            open: Vec::new(),
            next_index: 0,
            depth: 0,
            recipes: Vec::new(),
            limit,
            stats: LazyStats {
                states_eager: eager,
                ..LazyStats::default()
            },
        };
        let ix = s.intern_subset(StateSet::new());
        debug_assert_eq!(ix, EMPTY_SUBSET);
        s
    }

    fn intern_subset(&mut self, set: StateSet) -> u32 {
        if let Some(&ix) = self.subset_ix.get(&set) {
            return ix;
        }
        let ix = self.subsets.len() as u32;
        self.subset_ix.insert(set.clone(), ix);
        self.subsets.push(set);
        if obs::journal::enabled() {
            // Matches `LazyStats::subset_states`: the pre-interned empty
            // set (index 0) is bookkeeping, not search work.
            obs::journal::counter("lazy.subset_states", ix as u64);
        }
        ix
    }

    fn intern_config(&mut self, c: Config) -> Result<u32, LazyError> {
        if let Some(&ix) = self.config_ix.get(&c) {
            return Ok(ix);
        }
        let ix = self.configs.len() as u32;
        if ix >= self.limit {
            return Err(LazyError::ConfigLimit { n: self.limit });
        }
        self.config_ix.insert(c, ix);
        self.configs.push(c);
        self.marks.push(Mark::Unvisited);
        if obs::journal::enabled() {
            obs::journal::instant("lazy.materialize");
            obs::journal::counter("lazy.states_materialized", self.configs.len() as u64);
        }
        Ok(ix)
    }

    fn run(&mut self, root: Config) -> Result<(LazyOutcome, LazyStats), LazyError> {
        let root_ix = self.intern_config(root)?;
        let step = self.search(root_ix)?;
        self.stats.states_materialized = self.configs.len() as u64;
        // `subsets` always holds the pre-interned empty set; only count the
        // rejection sets the search actually created beyond it.
        self.stats.subset_states = (self.subsets.len() - 1) as u64;
        self.stats.publish();
        let outcome = match step {
            Step::Inhabited(recipe) => LazyOutcome::Witness(self.build_witness(recipe)),
            Step::Empty { .. } => LazyOutcome::Empty,
        };
        Ok((outcome, self.stats))
    }

    /// The goal-directed search: is configuration `ix` inhabited by some
    /// tree? Recursion depth is bounded by the number of distinct
    /// configurations (the path never repeats one).
    ///
    /// Cycle and memo discipline (Tarjan-style over the assumption set):
    /// every visited configuration is *open* — kept on the `open` stack —
    /// until its verdict stops leaning on an ancestor still under
    /// exploration. Hitting an open configuration returns "empty, assuming
    /// the entry at that visit index is empty": exact for the least
    /// fixpoint, because a smallest witness never repeats a configuration
    /// along a branch. When a configuration closes empty with every
    /// assumption inside its own subsearch (`min_dep >= its index`), the
    /// fixpoint closed: it and everything still open above it are
    /// permanently empty. When a configuration turns out inhabited, open
    /// entries above it may have assumed its emptiness — that assumption
    /// is refuted, so they are invalidated back to unvisited (anything
    /// that observed an open entry was pushed after it, hence sits above
    /// it on the stack; soundness follows).
    fn search(&mut self, ix: u32) -> Result<Step, LazyError> {
        match self.marks[ix as usize] {
            Mark::Empty => {
                self.stats.memo_hits += 1;
                if obs::journal::enabled() {
                    obs::journal::counter("lazy.memo_hits", self.stats.memo_hits);
                }
                return Ok(Step::Empty { min_dep: NO_DEP });
            }
            Mark::Inhabited(r) => {
                self.stats.memo_hits += 1;
                if obs::journal::enabled() {
                    obs::journal::counter("lazy.memo_hits", self.stats.memo_hits);
                }
                return Ok(Step::Inhabited(r));
            }
            Mark::Open(index) => {
                self.stats.assumption_hits += 1;
                if obs::journal::enabled() {
                    obs::journal::instant("lazy.assumption_hit");
                    obs::journal::counter("lazy.assumption_hits", self.stats.assumption_hits);
                }
                return Ok(Step::Empty { min_dep: index });
            }
            Mark::Unvisited => {}
        }
        let my_index = self.next_index;
        self.next_index += 1;
        let my_pos = self.open.len();
        self.open.push(ix);
        self.marks[ix as usize] = Mark::Open(my_index);
        self.depth += 1;
        self.stats.worklist_peak = self.stats.worklist_peak.max(self.depth as u64);

        let result = self.expand(ix);

        self.depth -= 1;
        match result {
            Ok(Step::Inhabited(recipe)) => {
                // Open entries above this one may have assumed it empty;
                // that assumption is now refuted, so they must be
                // re-derived if ever needed again.
                for &c in &self.open[my_pos + 1..] {
                    self.marks[c as usize] = Mark::Unvisited;
                }
                self.open.truncate(my_pos);
                self.marks[ix as usize] = Mark::Inhabited(recipe);
                Ok(Step::Inhabited(recipe))
            }
            Ok(Step::Empty { min_dep }) => {
                if min_dep >= my_index {
                    // Every assumption lies within this configuration's own
                    // subsearch — the fixpoint closed, so it and all open
                    // entries above it (whose dependencies were folded into
                    // `min_dep`) are globally empty.
                    for &c in &self.open[my_pos..] {
                        self.marks[c as usize] = Mark::Empty;
                    }
                    self.open.truncate(my_pos);
                    Ok(Step::Empty { min_dep: NO_DEP })
                } else {
                    // Still leaning on an ancestor under exploration: stay
                    // open (provisionally empty) and hand the dependency up.
                    Ok(Step::Empty { min_dep })
                }
            }
            Err(e) => {
                for &c in &self.open[my_pos..] {
                    self.marks[c as usize] = Mark::Unvisited;
                }
                self.open.truncate(my_pos);
                Err(e)
            }
        }
    }

    /// Tries every way to inhabit `ix`: leaf symbols first (smallest
    /// witnesses), then binary symbols with all child-obligation splits.
    fn expand(&mut self, ix: u32) -> Result<Step, LazyError> {
        let c = self.configs[ix as usize];
        for i in 0..self.leaves.len() {
            let sym = self.leaves[i];
            if self.leaf_ok(sym, c) {
                let r = self.recipes.len() as u32;
                self.recipes.push(Recipe::Leaf(sym));
                return Ok(Step::Inhabited(r));
            }
        }
        let mut min_dep = NO_DEP;
        for i in 0..self.binaries.len() {
            let sym = self.binaries[i];
            let a_moves: Vec<(State, State)> = self.atd.transitions_for(sym, c.p).to_vec();
            if a_moves.is_empty() {
                continue;
            }
            // Membership obligation: one right-automaton transition per
            // choice. No obligation: a single unconstrained choice.
            let pos_moves: Vec<(Option<State>, Option<State>)> = match c.pos {
                None => vec![(None, None)],
                Some(q) => self
                    .btd
                    .transitions_for(sym, q)
                    .iter()
                    .map(|&(q1, q2)| (Some(q1), Some(q2)))
                    .collect(),
            };
            if pos_moves.is_empty() {
                continue;
            }
            // Rejection obligation: every transition of every state in the
            // rejection set must fail in the left or the right subtree.
            // Each left/right choice yields a pair of child rejection sets
            // — the on-demand subset construction of the complement.
            let splits = self.neg_splits(sym, c.neg);
            for &(p1, p2) in &a_moves {
                for &(b1, b2) in &pos_moves {
                    for &(n1, n2) in &splits {
                        let c1 = Config {
                            p: p1,
                            pos: b1,
                            neg: n1,
                        };
                        let i1 = self.intern_config(c1)?;
                        let r1 = match self.search(i1)? {
                            Step::Inhabited(r) => r,
                            Step::Empty { min_dep: d } => {
                                min_dep = min_dep.min(d);
                                continue;
                            }
                        };
                        let c2 = Config {
                            p: p2,
                            pos: b2,
                            neg: n2,
                        };
                        let i2 = self.intern_config(c2)?;
                        match self.search(i2)? {
                            Step::Inhabited(r2) => {
                                let r = self.recipes.len() as u32;
                                self.recipes.push(Recipe::Node(sym, r1, r2));
                                return Ok(Step::Inhabited(r));
                            }
                            Step::Empty { min_dep: d } => min_dep = min_dep.min(d),
                        }
                    }
                }
            }
        }
        Ok(Step::Empty { min_dep })
    }

    /// Can configuration `c` be inhabited by the single leaf `sym`?
    fn leaf_ok(&self, sym: Symbol, c: Config) -> bool {
        if !self.atd.is_final_pair(sym, c.p) {
            return false;
        }
        if let Some(q) = c.pos {
            if !self.btd.is_final_pair(sym, q) {
                return false;
            }
        }
        self.subsets[c.neg as usize]
            .iter()
            .all(|q| !self.btd.is_final_pair(sym, q))
    }

    /// All minimal ways to split the rejection obligations of subset `neg`
    /// under a `sym`-node between the two children. A state with no
    /// `sym`-transitions rejects for free; an obligation whose left (right)
    /// component is already in the left (right) child set is absorbed.
    fn neg_splits(&mut self, sym: Symbol, neg: u32) -> Vec<(u32, u32)> {
        if self.subsets[neg as usize].is_empty() {
            return vec![(EMPTY_SUBSET, EMPTY_SUBSET)];
        }
        let mut obligations: Vec<(State, State)> = Vec::new();
        for q in self.subsets[neg as usize].iter() {
            obligations.extend_from_slice(self.btd.transitions_for(sym, q));
        }
        obligations.sort_unstable();
        obligations.dedup();
        let mut out: Vec<(u32, u32)> = Vec::new();
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        self.split_rec(
            &obligations,
            0,
            StateSet::new(),
            StateSet::new(),
            &mut out,
            &mut seen,
        );
        out
    }

    fn split_rec(
        &mut self,
        obligations: &[(State, State)],
        i: usize,
        s1: StateSet,
        s2: StateSet,
        out: &mut Vec<(u32, u32)>,
        seen: &mut FxHashSet<(u32, u32)>,
    ) {
        if i == obligations.len() {
            let pair = (self.intern_subset(s1), self.intern_subset(s2));
            if seen.insert(pair) {
                out.push(pair);
            }
            return;
        }
        let (l, r) = obligations[i];
        // Absorbed obligations cost nothing; larger rejection sets only
        // shrink the language, so skipping the strict supersets is exact.
        if s1.contains(l) || s2.contains(r) {
            self.split_rec(obligations, i + 1, s1, s2, out, seen);
            return;
        }
        let mut left = s1.clone();
        left.insert(l);
        self.split_rec(obligations, i + 1, left, s2.clone(), out, seen);
        let mut right = s2;
        right.insert(r);
        self.split_rec(obligations, i + 1, s1, right, out, seen);
    }

    fn build_witness(&self, recipe: u32) -> BinaryTree {
        let mut b = BinaryTreeBuilder::new(self.atd.alphabet());
        let root = self.build_node(recipe, &mut b);
        b.finish(root)
    }

    fn build_node(&self, recipe: u32, b: &mut BinaryTreeBuilder) -> NodeId {
        match self.recipes[recipe as usize] {
            Recipe::Leaf(sym) => b.leaf(sym).expect("leaf rank"),
            Recipe::Node(sym, r1, r2) => {
                let l = self.build_node(r1, b);
                let r = self.build_node(r2, b);
                b.node(sym, l, r).expect("binary rank")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert_eq!(eager.is_empty(), lazy.is_empty());
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
            assert_eq!(eager.is_some(), !lazy.is_empty());
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
    fn witness_is_small_leaf_when_possible() {
        let al = alpha();
        // top ∖ all_x: smallest witness is the leaf y, found leaf-first.
        let w = lazy_diff(&top(&al), &all_x(&al)).into_witness().unwrap();
        assert_eq!(w.to_string(), "y");
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
        let err = intersection_witness(&all_x(&al), &some_y(&al), 1).unwrap_err();
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
            assert_eq!(eager_int.is_empty(), lazy_int.is_empty(), "case {case}");
            let eager_diff = a.inclusion_counterexample(&b);
            let (lazy_diff, _) = difference_witness(&a, &b, u32::MAX).unwrap();
            assert_eq!(eager_diff.is_some(), !lazy_diff.is_empty(), "case {case}");
            if let LazyOutcome::Witness(w) = lazy_diff {
                assert!(a.accepts(&w).unwrap(), "case {case}");
                assert!(!b.accepts(&w).unwrap(), "case {case}");
            }
        }
    }
}
