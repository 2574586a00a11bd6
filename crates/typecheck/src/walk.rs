//! **Theorem 4.7, efficient route for k = 1**: branching tree-walking
//! automata → deterministic bottom-up tree automata by subtree-behaviour
//! composition.
//!
//! At `k = 1` the place/pick transitions are unusable (the stack discipline
//! forbids them), so a 1-pebble automaton is exactly a *branching
//! tree-walking automaton*: a head walking up and down the tree with
//! or-nondeterminism and and-branching. This covers the paper's practical
//! cases (Section 5): top-down transducers, the XSLT fragment, selection
//! queries — after the Proposition 4.6 product these yield 1-pebble
//! violation automata.
//!
//! For a subtree `s` and entry state `q`, a *resolution* is a finite run of
//! the branch process started at `(q, root(s))` in which every branch
//! either accepts (branch0) inside `s` or exits upward from `root(s)` to
//! its parent in some state. The **behaviour** of `s` maps each entry state
//! to the ⊆-minimal antichain of achievable *exit-state sets* (as bitset
//! rows); resolving to the empty set means outright acceptance inside `s`.
//! Whether up-moves may exit depends on which child position `s` occupies,
//! so a subtree carries a behaviour for each position (left/right), plus an
//! "accepts as a whole tree" bit. Composing an `a`-node from its children
//! is a small least fixpoint over `a`'s local rules, and it reads the
//! children only at `a`'s `Down`-rule targets: the left child's
//! left-position behaviour at the `DownLeft` targets, the right child's
//! right-position behaviour at the `DownRight` targets.
//!
//! A DBTA state is therefore a **signature** (`Signature`): the
//! acceptance bit plus, for every binary symbol, those two child
//! projections (`Projection`). Subtrees with equal signatures compose
//! identically under every parent and agree on acceptance, so signatures
//! form a congruence and merging the behaviour triples that share one is
//! exact. The resulting deterministic bottom-up automaton, built over
//! reachable signatures, recognizes exactly `inst(A)`, with never more
//! states than there are triples.
//!
//! # Performance architecture
//!
//! * **Dense kernel** — exit sets are flat `u64` rows with one bit per
//!   *exit state*, a distinct up-move target: a branch leaves a subtree
//!   only by an up-move, so no other state can be in an exit set. Rows
//!   are `words` = ⌈exit states / 64⌉ wide (at least one) and live in one
//!   contiguous per-composition arena (`Workspace::arena`); rows are
//!   immutable once written and referred to by dense ids, so
//!   `or`/`subset` are word-parallel loops over
//!   contiguous slices and a behaviour copy is a `memcpy`. Antichains are
//!   kept sorted by popcount (`RowRef`), so minimal-insertion
//!   (`ac_insert_min`) subset-checks only against rows that can possibly
//!   be subsets and drops only rows that can possibly be supersets.
//! * **Compiled tables** — the automaton's rules are compiled per symbol
//!   into a flat action list with owner states and a CSR reverse-dependency
//!   array (`SymTable`), lifting all hash lookups out of the fixpoint
//!   inner loop. Each state's rules are sorted and deduplicated first
//!   (`rule_word`), so the tables, the counters and the DBTA do not depend
//!   on the order of the rules, and a repeated rule is one action. The
//!   fixpoint is chaotic iteration over *actions*: the worklist holds
//!   action indices, a pop computes that one action's candidates into
//!   its owner's antichain, and growth `wake`s only the
//!   actions reading the owner — a `Fork` only once its other operand is
//!   non-empty, since until then it has no candidates and that operand's
//!   first growth wakes it. The children-independent part of each
//!   symbol's system is solved **once per symbol**, seeded with its
//!   `Accept` actions alone (nothing else fires on all-empty lists), into
//!   a popcount-sorted `DenseBase`; each composition seeds its arena
//!   from it with one slice copy and re-runs only the `Down` actions, and
//!   the root solution in turn seeds the left/right positional runs with
//!   just the up-move rows (sound because chaotic iteration from any point
//!   below the least fixpoint converges to it). Evaluation order changes
//!   only the order in which rows are found: each minimal antichain of the
//!   least fixpoint is unique as a set and `project` sorts rows, so
//!   projections and everything interned from them do not depend on it. A
//!   composition returns only its acceptance bit and the projections of
//!   its positional behaviours, never whole behaviours.
//! * **Projection-pair discovery** — discovery keeps, per binary symbol,
//!   the left and right projections seen so far and pairs each new one
//!   with every opposite-side projection as one `(symbol, left, right)`
//!   job, so each distinct composition runs exactly once
//!   ([`WalkStats::memo_misses`]). The transition table is expanded once
//!   at the end as `δ(a, S₁, S₂) = memo[a, S₁.left(a), S₂.right(a)]`;
//!   [`WalkStats::memo_hits`] counts the entries that share a composition.
//! * **Sequential frontier** — each generation's `(symbol, left, right)`
//!   jobs are composed in canonical order on the calling thread, in one
//!   reusable workspace, and each result is interned as soon as it is
//!   composed. Job order is a pure function of the interned-signature
//!   sequence, so state numbering, the point where [`WalkOptions::limit`]
//!   aborts, and therefore every downstream artifact are deterministic.
//!
//! # Guided by an input type
//!
//! Typechecking asks only whether `τ₁ ∩ inst(A)` is empty, and most
//! signatures of the full walk belong to subtrees no tree of `τ₁`
//! contains. [`walking_to_nta_within`] runs the same compositions,
//! interning and memo, but discovers bottom-up only the (signature,
//! τ₁-state) pairs a run of `τ₁` can reach, joining projections through
//! `τ₁`'s rules, and returns an automaton for `τ₁ ∩ inst(A)` over those
//! pairs. On Q2 (8, 8, 8) it composes 20 of the full walk's 177 projection
//! pairs. The full walk ([`walking_to_dbta_with`]) stays for what needs
//! all of `inst(A)`: inverse types, grammar decompilation, and the
//! oracles the guided walk is tested against.

use crate::error::TypecheckError;
use xmltc_automata::state::StateSet;
use xmltc_automata::{Dbta, Nta, State};
use xmltc_core::machine::{Action, Move, PebbleAutomaton};
use xmltc_obs::{self as obs, journal};
use xmltc_trees::{Alphabet, FxHashMap, FxHashSet, Rank, Symbol, TreeError};

/// Arena id of a bitset row (in row units: the row occupies words
/// `id * words .. (id + 1) * words` of its arena).
type RowId = u32;
/// Arena id of an interned [`Projection`].
type ProjId = u32;

/// An antichain member: arena row id plus the row's cached popcount.
/// Antichains are kept sorted by popcount ascending, which bounds both
/// phases of [`ac_insert_min`].
#[derive(Clone, Copy, Debug)]
struct RowRef {
    id: RowId,
    pc: u32,
}

#[inline]
fn row_at(arena: &[u64], id: RowId, words: usize) -> &[u64] {
    let s = id as usize * words;
    &arena[s..s + words]
}

#[inline]
fn row_popcount(row: &[u64]) -> u32 {
    row.iter().map(|w| w.count_ones()).sum()
}

/// `a ⊆ b` over equal-width rows.
#[inline]
fn row_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// Iterates over set bit positions of a row.
fn row_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

/// Inserts `cand` into a popcount-sorted ⊆-minimal antichain, appending
/// the row to `arena` when it is genuinely new. Returns true when the
/// represented upward-closed set grew.
///
/// Phase 1 scans entries with `pc ≤ |cand|` — the only possible subsets of
/// `cand` (an equal-popcount subset is equality) — and bails if one is
/// found. Phase 2 compacts away entries with `pc > |cand|` that are
/// supersets of `cand`, preserving order, then inserts `cand` at the
/// popcount-sorted position. Rows are append-only; dropped entries leave
/// their arena rows dead until the composition's arena resets.
fn ac_insert_min(ac: &mut Vec<RowRef>, arena: &mut Vec<u64>, words: usize, cand: &[u64]) -> bool {
    let pc = row_popcount(cand);
    let mut i = 0;
    while i < ac.len() && ac[i].pc <= pc {
        if row_subset(row_at(arena, ac[i].id, words), cand) {
            return false;
        }
        i += 1;
    }
    let mut k = i;
    for j in i..ac.len() {
        if !row_subset(cand, row_at(arena, ac[j].id, words)) {
            ac[k] = ac[j];
            k += 1;
        }
    }
    ac.truncate(k);
    let id = (arena.len() / words) as RowId;
    arena.extend_from_slice(cand);
    ac.insert(i, RowRef { id, pc });
    true
}

/// A behaviour restricted to one symbol side's `Down`-rule targets: slot
/// `s` (the index into [`SymTable::targets`]) maps to the antichain rows
/// `offsets[s]..offsets[s + 1]` (row units), each antichain sorted
/// lexicographically by row words. Compositions read children *only*
/// through projections, which is what makes signature states exact.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Projection {
    offsets: Vec<u32>,
    rows: Vec<u64>,
}

impl Projection {
    fn ac(&self, slot: usize, words: usize) -> &[u64] {
        &self.rows[self.offsets[slot] as usize * words..self.offsets[slot + 1] as usize * words]
    }
}

/// Projects solved antichain lists onto `targets` in canonical form.
/// `order` is a reusable sort buffer.
fn project(
    lists: &[Vec<RowRef>],
    arena: &[u64],
    words: usize,
    targets: &[u32],
    order: &mut Vec<RowId>,
) -> Projection {
    let mut p = Projection {
        offsets: Vec::with_capacity(targets.len() + 1),
        rows: Vec::new(),
    };
    p.offsets.push(0);
    for &t in targets {
        order.clear();
        order.extend(lists[t as usize].iter().map(|e| e.id));
        order.sort_unstable_by(|&a, &b| row_at(arena, a, words).cmp(row_at(arena, b, words)));
        for &id in order.iter() {
            p.rows.extend_from_slice(row_at(arena, id, words));
        }
        p.offsets.push((p.rows.len() / words) as u32);
    }
    p
}

/// Content-addressed projection store (main-thread only).
#[derive(Default)]
struct ProjArena {
    index: FxHashMap<Projection, ProjId>,
    projs: Vec<Projection>,
}

impl ProjArena {
    fn intern(&mut self, p: Projection) -> ProjId {
        if let Some(&id) = self.index.get(&p) {
            return id;
        }
        let id = self.projs.len() as ProjId;
        self.index.insert(p.clone(), id);
        self.projs.push(p);
        id
    }
}

/// A DBTA state: the whole-tree acceptance bit plus, for every binary
/// table `b` (indexing [`Walker::binaries`]), the left-position behaviour
/// projected onto `b`'s `DownLeft` targets (`left[b]`) and the
/// right-position behaviour projected onto its `DownRight` targets
/// (`right[b]`). A parent's composition reads exactly these, so subtrees
/// with equal signatures are interchangeable under every context.
/// [`Walker::compose`] returns a signature over raw [`Projection`]s;
/// [`intern_signature`] turns it into one over [`ProjId`]s.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Signature<P> {
    accepting: bool,
    left: Vec<P>,
    right: Vec<P>,
}

/// One pre-compiled local action (everything but up-moves, which are
/// position-dependent and kept separately).
#[derive(Clone, Copy)]
enum Act {
    /// `branch0` — accept with no exits.
    Accept,
    /// `branch2(q₁, q₂)` — and-branch into both states at this node.
    Fork(u32, u32),
    /// `stay(p)` — re-dispatch at this node in state `p`.
    Stay(u32),
    /// `down` into the left (`left = true`) or right child; `slot` indexes
    /// the side's target list (and therefore the child projection).
    Down { left: bool, slot: u32 },
}

/// The children-independent least fixpoint of one symbol, stored densely:
/// state `q`'s antichain is rows `offsets[q]..offsets[q + 1]` (row units),
/// popcount-sorted, with `pcs` caching per-row popcounts. Seeding a
/// composition is one `extend_from_slice` plus a [`RowRef`] list rebuild.
#[derive(Default)]
struct DenseBase {
    offsets: Vec<u32>,
    rows: Vec<u64>,
    pcs: Vec<u32>,
}

/// Per-symbol compiled rule table: a flat action list with each action's
/// owner state, plus the static reverse-dependency edges (`Stay`/`Fork`
/// reads) in CSR form.
struct SymTable {
    acts: Vec<Act>,
    /// `owner[i]` = the state whose antichain action `i` feeds.
    owner: Vec<u32>,
    /// `(state, exit target)` pairs of `UpLeft` rules.
    up_left: Vec<(u32, u32)>,
    /// `(state, exit target)` pairs of `UpRight` rules.
    up_right: Vec<(u32, u32)>,
    rdeps_off: Vec<u32>,
    /// `(action, other operand)` pairs of the actions reading a state: a
    /// `Fork` is listed under both operands with the other one, a `Stay`
    /// under its target with the target itself.
    rdeps: Vec<(u32, u32)>,
    /// Indices of the `Down` actions — the only actions whose candidates
    /// depend on the children, hence the initial worklist of a
    /// composition's root run (restarted from [`SymTable::base`]).
    downs: Vec<u32>,
    /// Sorted distinct `DownLeft` targets; `Act::Down` slots index this.
    dl_targets: Vec<u32>,
    /// Sorted distinct `DownRight` targets.
    dr_targets: Vec<u32>,
    base: DenseBase,
}

impl SymTable {
    fn rdeps(&self, q: usize) -> &[(u32, u32)] {
        &self.rdeps[self.rdeps_off[q] as usize..self.rdeps_off[q + 1] as usize]
    }

    fn targets(&self, side: usize) -> &[u32] {
        if side == 0 {
            &self.dl_targets
        } else {
            &self.dr_targets
        }
    }
}

/// Action kinds, in the order a state's actions are listed.
const ACCEPT: u32 = 0;
const FORK: u32 = 1;
const STAY: u32 = 2;
const DOWN_LEFT: u32 = 3;
const DOWN_RIGHT: u32 = 4;
const UP_LEFT: u32 = 5;
const UP_RIGHT: u32 = 6;

/// One rule as a sortable word: its action's kind in bits 96..128, the
/// first target in bits 64..96 and the second in bits 32..64 (the targets
/// a kind does not use set to 0), and its table in bits 0..32. Sorted, a
/// state's words list each table's actions in (kind, targets) order.
fn rule_word(table: u32, action: &Action) -> u128 {
    let (kind, t1, t2) = match *action {
        Action::Branch0 => (ACCEPT, 0, 0),
        Action::Branch2(q1, q2) => (FORK, q1.0, q2.0),
        Action::Move(m, target) => {
            let kind = match m {
                Move::Stay => STAY,
                Move::DownLeft => DOWN_LEFT,
                Move::DownRight => DOWN_RIGHT,
                Move::UpLeft => UP_LEFT,
                Move::UpRight => UP_RIGHT,
                Move::PlaceNew | Move::PickCurrent => unreachable!("unusable at k = 1"),
            };
            (kind, target.0, 0)
        }
        Action::Output0(..) | Action::Output2(..) => {
            unreachable!("automata have no output transitions")
        }
    };
    u128::from(kind) << 96 | u128::from(t1) << 64 | u128::from(t2) << 32 | u128::from(table)
}

/// Raw action of one state: a `Down` still names its target state, which
/// [`TableBuilder::freeze`] turns into a slot.
#[derive(Clone, Copy)]
enum RawAct {
    Accept,
    Fork(u32, u32),
    Stay(u32),
    Down { left: bool, target: u32 },
}

/// Mutable per-symbol accumulator, frozen into a [`SymTable`]. Filled in
/// state order, so `acts` is sorted by owner.
#[derive(Default)]
struct TableBuilder {
    /// `(owner, action)` pairs.
    acts: Vec<(u32, RawAct)>,
    up_left: Vec<(u32, u32)>,
    up_right: Vec<(u32, u32)>,
}

impl TableBuilder {
    fn freeze(self, n_states: usize) -> SymTable {
        let mut dl_targets: Vec<u32> = Vec::new();
        let mut dr_targets: Vec<u32> = Vec::new();
        for &(_, a) in &self.acts {
            if let RawAct::Down { left, target } = a {
                if left {
                    dl_targets.push(target);
                } else {
                    dr_targets.push(target);
                }
            }
        }
        dl_targets.sort_unstable();
        dl_targets.dedup();
        dr_targets.sort_unstable();
        dr_targets.dedup();
        let mut downs = Vec::new();
        let (owner, acts): (Vec<u32>, Vec<Act>) = self
            .acts
            .iter()
            .enumerate()
            .map(|(i, &(q, a))| {
                let act = match a {
                    RawAct::Accept => Act::Accept,
                    RawAct::Fork(a1, a2) => Act::Fork(a1, a2),
                    RawAct::Stay(p) => Act::Stay(p),
                    RawAct::Down { left, target } => {
                        downs.push(i as u32);
                        let side = if left { &dl_targets } else { &dr_targets };
                        let slot = side.binary_search(&target).expect("registered target") as u32;
                        Act::Down { left, slot }
                    }
                };
                (q, act)
            })
            .unzip();
        // Readers in action order: a `Fork` under both operands (once if
        // they coincide) with the other one, a `Stay` under its target
        // with the target itself.
        let readers = || {
            acts.iter().enumerate().flat_map(|(i, &act)| {
                let i = i as u32;
                let (first, second) = match act {
                    Act::Fork(a1, a2) => (Some((a1, (i, a2))), (a1 != a2).then_some((a2, (i, a1)))),
                    Act::Stay(p) => (Some((p, (i, p))), None),
                    Act::Accept | Act::Down { .. } => (None, None),
                };
                first.into_iter().chain(second)
            })
        };
        // CSR offsets filled downward from the running sums, walking the
        // readers backward so each list stays in action order.
        let mut rdeps_off = vec![0u32; n_states + 1];
        for (q, _) in readers() {
            rdeps_off[q as usize] += 1;
        }
        let mut sum = 0;
        for o in rdeps_off.iter_mut() {
            sum += *o;
            *o = sum;
        }
        let mut rdeps = vec![(0u32, 0u32); sum as usize];
        for (q, dep) in readers().rev() {
            rdeps_off[q as usize] -= 1;
            rdeps[rdeps_off[q as usize] as usize] = dep;
        }
        SymTable {
            acts,
            owner,
            up_left: self.up_left,
            up_right: self.up_right,
            rdeps_off,
            rdeps,
            downs,
            dl_targets,
            dr_targets,
            base: DenseBase::default(),
        }
    }
}

/// Everything a single composition's fixpoint runs share: the compiled
/// symbol table, the (frozen) children projections, and the
/// per-composition dynamic down-dependency edges.
struct FixCtx<'a> {
    table: &'a SymTable,
    children: Option<(&'a Projection, &'a Projection)>,
    /// `down_rdeps[p]` = the `Down` actions whose child antichain contains
    /// an exit set with exit state `p`; empty when the table has no `Down`
    /// actions or there are no children.
    down_rdeps: &'a [Vec<u32>],
}

/// Reusable buffers of the solver inner loop: flat candidate rows, a row
/// build buffer, the exit-resolution double buffer (`acc`/`tmp` refs into
/// the private `pool` row arena), and the [`project`] sort buffer.
#[derive(Default)]
struct Scratch {
    cands: Vec<u64>,
    row: Vec<u64>,
    pool: Vec<u64>,
    acc: Vec<RowRef>,
    tmp: Vec<RowRef>,
    order: Vec<RowId>,
}

/// Reusable solver state of one walk: the composition-local row arena, the
/// two behaviour list buffers, the action worklist with its membership
/// flags, the candidate scratch, and the down-dependency edge buffer. The
/// base solves and every composition run inside one workspace, so after
/// warm-up they allocate only their projected results.
struct Workspace {
    /// Composition-local row storage; reset per composition, seeded from
    /// the symbol base.
    arena: Vec<u64>,
    /// Root-position antichain lists (restarted from the symbol base).
    root: Vec<Vec<RowRef>>,
    /// Positional (left/right) lists (restarted from `root`).
    pos: Vec<Vec<RowRef>>,
    /// The worklist of action indices; empty between runs.
    wl: Vec<u32>,
    /// `inq[i]` ⟺ action `i` is on `wl`; all-false between runs.
    inq: Vec<bool>,
    scratch: Scratch,
    /// Buffer for [`FixCtx::down_rdeps`], refilled per composition.
    down_rdeps: Vec<Vec<u32>>,
}

impl Workspace {
    fn new(n_states: usize, n_acts: usize) -> Workspace {
        Workspace {
            arena: Vec::new(),
            root: vec![Vec::new(); n_states],
            pos: vec![Vec::new(); n_states],
            wl: Vec::new(),
            inq: vec![false; n_acts],
            scratch: Scratch::default(),
            down_rdeps: vec![Vec::new(); n_states],
        }
    }
}

/// Queues the actions to re-run after state `q`'s antichain grew. A `Fork`
/// is queued only when its other operand is non-empty: until then it has
/// no candidates, and that operand's first growth queues it. `Stay` and
/// `Down` readers are always queued (a `Stay`'s other operand is `q`).
fn wake(ctx: &FixCtx<'_>, r: &[Vec<RowRef>], q: usize, wl: &mut Vec<u32>, inq: &mut [bool]) {
    let mut push = |i: u32| {
        if !inq[i as usize] {
            inq[i as usize] = true;
            wl.push(i);
        }
    };
    for &(i, other) in ctx.table.rdeps(q) {
        if !r[other as usize].is_empty() {
            push(i);
        }
    }
    for &i in ctx.down_rdeps.get(q).map_or(&[][..], Vec::as_slice) {
        push(i);
    }
}

/// The table id of each symbol, by symbol index: leaves, then binaries,
/// then any other symbol, each in alphabet order, so ids do not depend on
/// the order of the rules.
fn table_ids(alphabet: &Alphabet) -> Vec<u32> {
    let mut order: Vec<Symbol> = alphabet.symbols().collect();
    order.sort_by_key(|&s| match alphabet.rank(s) {
        Rank::Leaf => 0,
        Rank::Binary => 1,
        Rank::Unranked => 2,
    });
    let mut table_of = vec![0; order.len()];
    for (id, s) in order.into_iter().enumerate() {
        table_of[s.index()] = id as u32;
    }
    table_of
}

struct Walker {
    tables: Vec<SymTable>,
    /// Table id of each symbol, by symbol index.
    table_of: Vec<u32>,
    /// Table ids of the alphabet's binary symbols, in alphabet order: the
    /// tables a [`Signature`] projects onto.
    binaries: Vec<u32>,
    /// Sorted distinct `UpLeft`/`UpRight` targets over all tables. A branch
    /// leaves a subtree only by an up-move, so every exit set lies within
    /// these states: row bit `b` stands for state `exit_states[b]`.
    exit_states: Vec<u32>,
    /// Inverse of `exit_states`, indexed by state.
    exit_bit: Vec<u32>,
    words: usize,
    initial: usize,
    /// Whether the journal records this walk's timeline events.
    jour: bool,
}

impl Walker {
    /// Compiles the automaton's rules into per-symbol tables over its
    /// states (every alphabet symbol gets one, possibly empty, so jobs and
    /// memo keys can use dense table ids), sizes a workspace for them, and
    /// solves each symbol's children-independent base fixpoint in it
    /// (counted into `stats`, like every other solver run).
    fn new(
        a: &PebbleAutomaton,
        stats: &mut WalkStats,
    ) -> Result<(Walker, Workspace), TypecheckError> {
        if a.k() != 1 {
            return Err(TypecheckError::NeedsOnePebble { k: a.k() });
        }
        let alphabet = a.input_alphabet();
        let table_of = table_ids(alphabet);
        let core = a.core();
        let n_states = core.n_states() as usize;
        let mut builders: Vec<TableBuilder> = Vec::new();
        builders.resize_with(table_of.len(), TableBuilder::default);
        let mut rules: Vec<u128> = Vec::new();
        for q in 0..n_states as u32 {
            rules.clear();
            rules.extend(core.state_rules(State(q)).map(|(sym, guard, action)| {
                debug_assert!(guard.0.is_empty(), "k = 1 guards are trivial");
                rule_word(table_of[sym.index()], action)
            }));
            rules.sort_unstable();
            rules.dedup();
            for &w in &rules {
                let (kind, t1, t2) = ((w >> 96) as u32, (w >> 64) as u32, (w >> 32) as u32);
                let t = &mut builders[w as u32 as usize];
                match kind {
                    ACCEPT => t.acts.push((q, RawAct::Accept)),
                    FORK => t.acts.push((q, RawAct::Fork(t1, t2))),
                    STAY => t.acts.push((q, RawAct::Stay(t1))),
                    UP_LEFT => t.up_left.push((q, t1)),
                    UP_RIGHT => t.up_right.push((q, t1)),
                    kind => t.acts.push((
                        q,
                        RawAct::Down {
                            left: kind == DOWN_LEFT,
                            target: t1,
                        },
                    )),
                }
            }
        }
        let binaries = alphabet
            .binaries()
            .iter()
            .map(|s| table_of[s.index()])
            .collect();
        let tables: Vec<SymTable> = builders.into_iter().map(|b| b.freeze(n_states)).collect();
        let mut exit_states: Vec<u32> = tables
            .iter()
            .flat_map(|t| t.up_left.iter().chain(&t.up_right).map(|&(_, e)| e))
            .collect();
        exit_states.sort_unstable();
        exit_states.dedup();
        let mut exit_bit = vec![u32::MAX; n_states];
        for (b, &q) in exit_states.iter().enumerate() {
            exit_bit[q as usize] = b as u32;
        }
        let n_acts = tables.iter().map(|t| t.acts.len()).max().unwrap_or(0);
        let mut ws = Workspace::new(n_states, n_acts);
        let mut walker = Walker {
            tables,
            table_of,
            binaries,
            words: exit_states.len().div_ceil(64).max(1),
            exit_states,
            exit_bit,
            initial: core.initial().index(),
            jour: journal::enabled(),
        };
        // Base fixpoints: solve each symbol's system with `Down` candidates
        // absent (no children). Every composition restarts from here.
        let mut bases: Vec<DenseBase> = Vec::with_capacity(walker.tables.len());
        for table in &walker.tables {
            let ctx = FixCtx {
                table,
                children: None,
                down_rdeps: &[],
            };
            ws.arena.clear();
            for list in ws.root.iter_mut() {
                list.clear();
            }
            // From all-empty lists only `Accept` can fire; every other
            // action is queued once its operands grow.
            for (i, act) in table.acts.iter().enumerate() {
                if matches!(act, Act::Accept) {
                    ws.inq[i] = true;
                    ws.wl.push(i as u32);
                }
            }
            walker.solve(
                &ctx,
                &mut ws.root,
                &mut ws.arena,
                &mut ws.wl,
                &mut ws.inq,
                &mut ws.scratch,
                stats,
            );
            let mut base = DenseBase {
                offsets: Vec::with_capacity(n_states + 1),
                rows: Vec::new(),
                pcs: Vec::new(),
            };
            base.offsets.push(0);
            for list in &ws.root {
                for e in list {
                    base.rows
                        .extend_from_slice(row_at(&ws.arena, e.id, walker.words));
                    base.pcs.push(e.pc);
                }
                base.offsets.push(base.pcs.len() as u32);
            }
            bases.push(base);
        }
        for (table, base) in walker.tables.iter_mut().zip(bases) {
            table.base = base;
        }
        Ok((walker, ws))
    }

    fn slot(&self, sym: Symbol) -> u32 {
        self.table_of[sym.index()]
    }

    /// Rebuilds the reverse edges induced by `Down` actions into `deps`:
    /// a `Down` action must be re-run when an exit state of the child
    /// antichain it consumes grows. Shared by all three runs of one
    /// composition.
    fn fill_down_rdeps(
        &self,
        table: &SymTable,
        (pl, pr): (&Projection, &Projection),
        deps: &mut [Vec<u32>],
    ) {
        for v in deps.iter_mut() {
            v.clear();
        }
        for &i in &table.downs {
            if let Act::Down { left, slot } = table.acts[i as usize] {
                let child = if left { pl } else { pr };
                for exits in child.ac(slot as usize, self.words).chunks_exact(self.words) {
                    for b in row_bits(exits) {
                        deps[self.exit_states[b] as usize].push(i);
                    }
                }
            }
        }
        for v in deps.iter_mut() {
            v.sort_unstable();
            v.dedup();
        }
    }

    /// Pushes the resolution candidates of one action against the current
    /// `r` into `scratch.cands` as flat rows. Candidates need not be
    /// mutually minimal — the [`ac_insert_min`] merge in [`Walker::solve`]
    /// filters them.
    fn candidates(
        &self,
        ctx: &FixCtx<'_>,
        r: &[Vec<RowRef>],
        arena: &[u64],
        act: Act,
        scratch: &mut Scratch,
    ) {
        let words = self.words;
        match act {
            Act::Accept => {
                let n = scratch.cands.len();
                scratch.cands.resize(n + words, 0);
            }
            Act::Fork(q1, q2) => {
                for x in &r[q1 as usize] {
                    let xa = row_at(arena, x.id, words);
                    for y in &r[q2 as usize] {
                        let ya = row_at(arena, y.id, words);
                        scratch.cands.extend(xa.iter().zip(ya).map(|(a, b)| a | b));
                    }
                }
            }
            Act::Stay(p) => {
                for x in &r[p as usize] {
                    scratch.cands.extend_from_slice(row_at(arena, x.id, words));
                }
            }
            Act::Down { left, slot } => {
                let Some((pl, pr)) = ctx.children else {
                    return;
                };
                let child = if left { pl } else { pr };
                for exits in child.ac(slot as usize, words).chunks_exact(words) {
                    self.resolve_exits(exits, r, arena, scratch);
                }
            }
        }
    }

    /// Exit states returned by a child must all resolve at the current
    /// node: pushes the minimal unions over one choice of resolution per
    /// exit state into `scratch.cands` (nothing when some exit state
    /// cannot resolve yet). The intermediate antichains live in the
    /// scratch `pool` row arena.
    fn resolve_exits(
        &self,
        exits: &[u64],
        r: &[Vec<RowRef>],
        arena: &[u64],
        scratch: &mut Scratch,
    ) {
        let words = self.words;
        let Scratch {
            cands,
            row,
            pool,
            acc,
            tmp,
            ..
        } = scratch;
        pool.clear();
        pool.resize(words, 0); // row 0 = the empty union
        acc.clear();
        acc.push(RowRef { id: 0, pc: 0 });
        for b in row_bits(exits) {
            let q = self.exit_states[b] as usize;
            if r[q].is_empty() {
                return; // this exit state cannot resolve (yet)
            }
            tmp.clear();
            for x in acc.iter() {
                let xs = x.id as usize * words;
                for y in &r[q] {
                    let ya = row_at(arena, y.id, words);
                    row.clear();
                    row.extend(pool[xs..xs + words].iter().zip(ya).map(|(a, b)| a | b));
                    ac_insert_min(tmp, pool, words, row);
                }
            }
            std::mem::swap(acc, tmp);
        }
        for e in acc.iter() {
            let s = e.id as usize * words;
            cands.extend_from_slice(&pool[s..s + words]);
        }
    }

    /// Chaotic-iteration worklist loop over actions: pops one, computes
    /// only its candidates, inserts them into its owner's antichain, and
    /// on growth [`wake`]s the actions reading the owner. On entry `wl`
    /// must list every action whose candidates may exceed `r` and `inq`
    /// must flag exactly the listed actions; on exit `wl` is empty and
    /// `inq` all-false again, ready for the next run.
    #[allow(clippy::too_many_arguments)]
    fn solve(
        &self,
        ctx: &FixCtx<'_>,
        r: &mut [Vec<RowRef>],
        arena: &mut Vec<u64>,
        wl: &mut Vec<u32>,
        inq: &mut [bool],
        scratch: &mut Scratch,
        stats: &mut WalkStats,
    ) {
        let words = self.words;
        stats.worklist_peak = stats.worklist_peak.max(wl.len() as u64);
        while let Some(i) = wl.pop() {
            inq[i as usize] = false;
            stats.fixpoint_steps += 1;
            self.candidates(ctx, r, arena, ctx.table.acts[i as usize], scratch);
            let q = ctx.table.owner[i as usize] as usize;
            let cands = std::mem::take(&mut scratch.cands);
            let mut grew = false;
            for chunk in cands.chunks_exact(words) {
                grew |= ac_insert_min(&mut r[q], arena, words, chunk);
            }
            scratch.cands = cands;
            scratch.cands.clear();
            if grew {
                wake(ctx, r, q, wl, inq);
                stats.worklist_peak = stats.worklist_peak.max(wl.len() as u64);
            }
        }
    }

    /// Extends the root least fixpoint with a child position's up-move
    /// exits, solving into the reusable `pos` buffer. Sound because the
    /// root solution is below the positional least fixpoint and chaotic
    /// iteration from any such point converges to it — only the up
    /// increments need re-propagation. The `pos` lists share the arena
    /// with `root` (rows are immutable, so the restart copies refs, not
    /// rows). Returns `false`, leaving `pos` untouched, when there are no
    /// up-moves for this position (behaviour = root's).
    #[allow(clippy::too_many_arguments)]
    fn extend_up(
        &self,
        ctx: &FixCtx<'_>,
        root: &[Vec<RowRef>],
        pos: &mut [Vec<RowRef>],
        arena: &mut Vec<u64>,
        ups: &[(u32, u32)],
        wl: &mut Vec<u32>,
        inq: &mut [bool],
        scratch: &mut Scratch,
        stats: &mut WalkStats,
    ) -> bool {
        if ups.is_empty() {
            return false;
        }
        for (p, r) in pos.iter_mut().zip(root) {
            p.clone_from(r);
        }
        for &(q, target) in ups {
            let b = self.exit_bit[target as usize] as usize;
            scratch.row.clear();
            scratch.row.resize(self.words, 0);
            scratch.row[b / 64] |= 1u64 << (b % 64);
            if ac_insert_min(&mut pos[q as usize], arena, self.words, &scratch.row) {
                wake(ctx, pos, q as usize, wl, inq);
            }
        }
        self.solve(ctx, pos, arena, wl, inq, scratch, stats);
        true
    }

    /// One full composition: the root fixpoint (restarted from the symbol
    /// base) plus its left/right up-move extensions, each projected onto
    /// every binary table's targets for its side. Pure apart from the
    /// workspace buffers and the counters (one more memo miss): it reads
    /// only the symbol tables and the two child projections. Bracketed by
    /// a `walk.job` span in the journal.
    fn compose(
        &self,
        table_idx: u32,
        children: Option<(&Projection, &Projection)>,
        ws: &mut Workspace,
        stats: &mut WalkStats,
    ) -> Signature<Projection> {
        if self.jour {
            journal::begin("walk.job");
        }
        stats.memo_misses += 1;
        let table = &self.tables[table_idx as usize];
        let words = self.words;
        let Workspace {
            arena,
            root,
            pos,
            wl,
            inq,
            scratch,
            down_rdeps,
        } = ws;
        // Seed root from the symbol base: one slice copy plus ref lists.
        arena.clear();
        arena.extend_from_slice(&table.base.rows);
        for (q, list) in root.iter_mut().enumerate() {
            list.clear();
            let (s, e) = (table.base.offsets[q], table.base.offsets[q + 1]);
            list.extend((s..e).map(|i| RowRef {
                id: i,
                pc: table.base.pcs[i as usize],
            }));
        }
        let use_down = !table.downs.is_empty() && children.is_some();
        if use_down {
            self.fill_down_rdeps(table, children.expect("gated on children"), down_rdeps);
        }
        let ctx = FixCtx {
            table,
            children,
            down_rdeps: if use_down { down_rdeps.as_slice() } else { &[] },
        };
        // Root run: only the `Down` candidates can exceed the base.
        if use_down {
            for &i in &table.downs {
                inq[i as usize] = true;
                wl.push(i);
            }
            self.solve(&ctx, root, arena, wl, inq, scratch, stats);
        }
        // Accepting iff the initial configuration resolves with no exits
        // (the popcount-sorted list puts an empty row first if present).
        let accepting = root[self.initial].first().is_some_and(|e| e.pc == 0);
        let mut sides: [Vec<Projection>; 2] = Default::default();
        for (side, ups) in [&table.up_left, &table.up_right].into_iter().enumerate() {
            let extended = self.extend_up(&ctx, root, pos, arena, ups, wl, inq, scratch, stats);
            let lists: &[Vec<RowRef>] = if extended { pos } else { root };
            sides[side] = self
                .binaries
                .iter()
                .map(|&b| {
                    let targets = self.tables[b as usize].targets(side);
                    project(lists, arena, words, targets, &mut scratch.order)
                })
                .collect();
        }
        let rows = (arena.len() / words) as u64;
        stats.kernel_rows += rows;
        stats.kernel_row_peak = stats.kernel_row_peak.max(rows);
        let [left, right] = sides;
        if self.jour {
            journal::end("walk.job");
        }
        Signature {
            accepting,
            left,
            right,
        }
    }
}

/// Interns a composition result: its projections, then the signature as a
/// DBTA state, honouring the state budget. Called in canonical job order,
/// so projection and state ids, and the point where the budget aborts, are
/// deterministic.
fn intern_signature(
    raw: Signature<Projection>,
    projs: &mut ProjArena,
    states: &mut Vec<Signature<ProjId>>,
    index: &mut FxHashMap<Signature<ProjId>, State>,
    limit: u32,
) -> Result<State, TypecheckError> {
    let sig = Signature {
        accepting: raw.accepting,
        left: raw.left.into_iter().map(|p| projs.intern(p)).collect(),
        right: raw.right.into_iter().map(|p| projs.intern(p)).collect(),
    };
    if let Some(&q) = index.get(&sig) {
        return Ok(q);
    }
    let q = State(states.len() as u32);
    if q.0 >= limit {
        return Err(TypecheckError::TooManyStates { n: q.0 + 1 });
    }
    index.insert(sig.clone(), q);
    states.push(sig);
    Ok(q)
}

/// Options for [`walking_to_dbta_with`] and [`walking_to_nta_within`].
#[derive(Clone, Copy, Debug)]
pub struct WalkOptions {
    /// Budget on DBTA states (child-projection signatures), which both
    /// walks count; `u32::MAX` = unlimited.
    pub limit: u32,
}

impl Default for WalkOptions {
    fn default() -> Self {
        WalkOptions { limit: u32::MAX }
    }
}

/// Counters describing one [`walking_to_dbta_with`] or
/// [`walking_to_nta_within`] run. All fields are deterministic functions
/// of the input automaton (and of `τ₁`, for the guided walk). Where they
/// say "DBTA", read the guided walk's signatures and its automaton's
/// transitions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Transition-table entries `(symbol, s₁, s₂)` of the DBTA: the binary
    /// symbols times the squared state count. For the guided walk, its
    /// automaton's binary transitions.
    pub pairs: u64,
    /// Composition requests: one per leaf symbol composed plus one per
    /// transition-table entry (`compositions = memo_hits + memo_misses`).
    pub compositions: u64,
    /// Transition-table entries that share their composition with an
    /// earlier entry of the same projection pair.
    pub memo_hits: u64,
    /// Requests that *did* require a fixpoint run: the leaf symbols plus
    /// the distinct `(symbol, left, right)` projection pairs.
    pub memo_misses: u64,
    /// Action evaluations (worklist pops) across all fixpoint runs, over
    /// the compiled actions of the automaton's states.
    pub fixpoint_steps: u64,
    /// Peak number of queued actions in any single fixpoint run.
    pub worklist_peak: u64,
    /// Frontier generations (batches of projection-pair jobs).
    pub rounds: u64,
    /// Always 0: the walk runs on the calling thread and never fans out.
    /// Kept so that callers reading it keep compiling.
    pub parallel_batches: u64,
    /// States of the resulting DBTA: the distinct signatures, the unit
    /// [`WalkOptions::limit`] counts.
    pub dbta_states: u64,
    /// Width of an exit-set row, in `u64` words: one bit per distinct
    /// up-move target state, at least one word.
    pub words: u64,
    /// Total arena rows written across all compositions (live + shadowed).
    pub kernel_rows: u64,
    /// Peak arena rows of any single composition.
    pub kernel_row_peak: u64,
    /// Distinct child projections interned.
    pub projections_interned: u64,
    /// (signature, τ₁-state) pairs [`walking_to_nta_within`] reached: the
    /// states of its automaton. 0 for the full walk.
    pub tau1_pairs: u64,
}

impl WalkStats {
    /// [`WalkStats::record`], plus the `walk.tau1_pairs` row.
    fn record_within(&self) {
        self.record();
        obs::record("walk.tau1_pairs", self.tau1_pairs);
    }

    /// Records the counters as the `walk.*` rows of the current report.
    fn record(&self) {
        obs::record("walk.dbta_states", self.dbta_states);
        obs::record("walk.pairs", self.pairs);
        obs::record("walk.compositions", self.compositions);
        obs::record("walk.memo_hits", self.memo_hits);
        obs::record("walk.memo_misses", self.memo_misses);
        obs::record("walk.fixpoint_steps", self.fixpoint_steps);
        obs::record("walk.worklist_peak", self.worklist_peak);
        obs::record("walk.rounds", self.rounds);
        obs::record("walk.kernel.words", self.words);
        obs::record("walk.kernel.rows", self.kernel_rows);
        obs::record("walk.kernel.row_peak", self.kernel_row_peak);
        obs::record("walk.kernel.projections", self.projections_interned);
    }

    /// Fraction of composition requests resolved from the memo, in
    /// `[0, 1]`. Defined as `0.0` when no requests were made at all (a
    /// trivial automaton), so the value is always finite — never the `NaN`
    /// a bare `hits / (hits + misses)` would produce in JSON/bench output.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Always 1: the walk runs on the calling thread. Kept so that callers
/// reporting the walk's thread count keep compiling.
pub fn resolve_threads(_requested: usize) -> usize {
    1
}

/// Converts a 1-pebble (branching tree-walking) automaton into an
/// equivalent deterministic bottom-up tree automaton, returning the
/// construction counters alongside. The counters are also recorded as the
/// `walk.*` rows of the current report, and when the DBTA-state budget
/// stops the walk, the rows record how far it got.
///
/// Errors when `k ≠ 1` or the DBTA-state budget is exceeded. The walk runs
/// on the calling thread: each generation's jobs are composed and interned
/// one at a time in canonical order, so the output and the abort point are
/// deterministic.
pub fn walking_to_dbta_with(
    a: &PebbleAutomaton,
    opts: &WalkOptions,
) -> Result<(Dbta, WalkStats), TypecheckError> {
    let mut stats = WalkStats::default();
    let (walker, mut ws) = Walker::new(a, &mut stats)?;
    stats.words = walker.words as u64;
    let limit = opts.limit;
    let alphabet = a.input_alphabet();
    let jour = walker.jour;
    // Over budget: records the counters so far, with `n` signatures and
    // `projections` interned in `rounds` generations, and every
    // composition a miss (hits are counted at the expansion, which never
    // ran).
    let over_budget = |stats: &WalkStats, n: usize, projections: usize, rounds| {
        WalkStats {
            compositions: stats.memo_misses,
            dbta_states: n as u64,
            projections_interned: projections as u64,
            rounds,
            ..*stats
        }
        .record()
    };

    let mut projs = ProjArena::default();
    let mut states: Vec<Signature<ProjId>> = Vec::new();
    let mut index: FxHashMap<Signature<ProjId>, State> = FxHashMap::default();

    // Leaf states, in alphabet order (canonical).
    let mut leaf: FxHashMap<Symbol, State> = FxHashMap::default();
    for &sym in alphabet.leaves().iter() {
        let raw = walker.compose(walker.slot(sym), None, &mut ws, &mut stats);
        let q = intern_signature(raw, &mut projs, &mut states, &mut index, limit)
            .inspect_err(|_| over_budget(&stats, states.len(), projs.projs.len(), 0))?;
        leaf.insert(sym, q);
    }

    // Discovery over projection pairs. `sides[b]` lists the left and right
    // projections binary table `b` has seen, in discovery order; a new one
    // is paired with every opposite-side projection seen so far, so each
    // `(table, left, right)` composition is enumerated exactly once, the
    // generation after the later of its two projections first appears.
    // Job order is a pure function of the interned-state sequence.
    let mut sides: Vec<[Vec<ProjId>; 2]> = vec![Default::default(); walker.binaries.len()];
    let mut seen: FxHashSet<(usize, usize, ProjId)> = FxHashSet::default();
    let mut memo: FxHashMap<(u32, ProjId, ProjId), State> = FxHashMap::default();
    let mut jobs: Vec<(u32, ProjId, ProjId)> = Vec::new();
    let mut enumerated = 0;
    let mut rounds = 0u64;
    while enumerated < states.len() {
        jobs.clear();
        for sig in &states[enumerated..] {
            for (b, [lefts, rights]) in sides.iter_mut().enumerate() {
                let table = walker.binaries[b];
                let (l, r) = (sig.left[b], sig.right[b]);
                if seen.insert((b, 0, l)) {
                    jobs.extend(rights.iter().map(|&r| (table, l, r)));
                    lefts.push(l);
                }
                if seen.insert((b, 1, r)) {
                    jobs.extend(lefts.iter().map(|&l| (table, l, r)));
                    rights.push(r);
                }
            }
        }
        enumerated = states.len();
        if jobs.is_empty() {
            break;
        }
        rounds += 1;
        if jour {
            journal::instant("walk.round");
            journal::counter("walk.frontier_jobs", jobs.len() as u64);
        }
        // A job reads only projections interned before this generation,
        // so interning each result right away cannot change a later job.
        for &(table, l, r) in &jobs {
            let children = (&projs.projs[l as usize], &projs.projs[r as usize]);
            let raw = walker.compose(table, Some(children), &mut ws, &mut stats);
            let q = intern_signature(raw, &mut projs, &mut states, &mut index, limit)
                .inspect_err(|_| over_budget(&stats, states.len(), projs.projs.len(), rounds))?;
            memo.insert((table, l, r), q);
        }
        if jour {
            journal::counter("walk.dbta_states", states.len() as u64);
            journal::counter("walk.projections_arena", projs.projs.len() as u64);
            journal::counter("walk.memo_misses", (leaf.len() + memo.len()) as u64);
        }
    }

    // Expansion: δ(a, S₁, S₂) = memo[table(a), S₁.left(a), S₂.right(a)],
    // inserted in (symbol, S₁, S₂) order so the table is canonical too.
    let mut node: FxHashMap<(Symbol, State, State), State> = FxHashMap::default();
    node.reserve(walker.binaries.len() * states.len() * states.len());
    for (b, (&sym, &table)) in alphabet.binaries().iter().zip(&walker.binaries).enumerate() {
        for (s1, x) in states.iter().enumerate() {
            for (s2, y) in states.iter().enumerate() {
                let q = *memo
                    .get(&(table, x.left[b], y.right[b]))
                    .expect("every seen projection pair was composed");
                node.insert((sym, State(s1 as u32), State(s2 as u32)), q);
            }
        }
    }
    let memo_hits = (node.len() - memo.len()) as u64;
    if jour {
        journal::counter("walk.memo_hits", memo_hits);
    }

    let finals: StateSet = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.accepting)
        .map(|(i, _)| State(i as u32))
        .collect();
    let stats = WalkStats {
        pairs: node.len() as u64,
        compositions: (leaf.len() + node.len()) as u64,
        memo_hits,
        rounds,
        dbta_states: states.len() as u64,
        projections_interned: projs.projs.len() as u64,
        ..stats
    };
    stats.record();
    let d = Dbta::from_parts(alphabet, states.len() as u32, leaf, node, finals);
    Ok((d, stats))
}

/// The (signature, τ₁-state) pairs of [`walking_to_nta_within`]: pair `p`
/// is `list[p]`, the states of the automaton it returns.
#[derive(Default)]
struct TauPairs {
    list: Vec<(State, u32)>,
    index: FxHashMap<(State, u32), u32>,
}

impl TauPairs {
    fn add(&mut self, sig: State, q: u32) -> u32 {
        let next = self.list.len() as u32;
        let p = *self.index.entry((sig, q)).or_insert(next);
        if p == next {
            self.list.push((sig, q));
        }
        p
    }
}

/// Converts a 1-pebble automaton `A` into a tree automaton for
/// `τ₁ ∩ inst(A)`, composing only the subtrees that some run of `τ₁` can
/// label. Returns the construction counters alongside, and records them
/// as [`walking_to_dbta_with`] does, plus `walk.tau1_pairs`.
///
/// Discovery is bottom-up reachability over (signature, τ₁-state) pairs,
/// the states of the result: a leaf's signature pairs with each state
/// `τ₁` gives that leaf, and for every binary symbol `b` and τ₁ state `q`
/// the left and right projections seen so far under `q` are kept, a new
/// one joined with the opposite side's through `τ₁`'s rules indexed by
/// `(b, q₁)` and by `(b, q₂)`. A joined `(b, left, right)` is composed
/// once (the full walk's composition and memo), and its signature paired
/// with the rule's target. Job order is a pure function of the pair
/// sequence and of `τ₁`'s rules, sorted, so pair numbering and the abort
/// point are deterministic. The result's transitions are expanded at the
/// end from the memo: `b((s₁, q₁), (s₂, q₂)) → (s, q)` for every rule
/// `b(q₁, q₂) → q`; a pair is final when its signature accepts and its τ₁
/// state is final.
///
/// `limit` counts signatures, as in the full walk. Every signature found
/// here is the signature of some tree, hence one the full walk finds too,
/// so this stops only where the full walk would also stop.
///
/// Errors when `k ≠ 1`, when `τ₁` is over another alphabet, or when the
/// signature budget is exceeded.
pub fn walking_to_nta_within(
    a: &PebbleAutomaton,
    tau1: &Nta,
    opts: &WalkOptions,
) -> Result<(Nta, WalkStats), TypecheckError> {
    let alphabet = a.input_alphabet();
    if !Alphabet::same(alphabet, tau1.alphabet()) {
        return Err(TypecheckError::Tree(TreeError::AlphabetMismatch));
    }
    let mut stats = WalkStats::default();
    let (walker, mut ws) = Walker::new(a, &mut stats)?;
    stats.words = walker.words as u64;
    let limit = opts.limit;
    let jour = walker.jour;
    let over_budget = |stats: &WalkStats, n: usize, projections: usize, pairs: usize, rounds| {
        WalkStats {
            compositions: stats.memo_misses,
            dbta_states: n as u64,
            projections_interned: projections as u64,
            tau1_pairs: pairs as u64,
            rounds,
            ..*stats
        }
        .record_within()
    };

    // τ₁'s rules b(q₁, q₂) → q, sorted, as `(q₂, q)` under key `b · n₁ + q₁`
    // for a left child and as `(q₁, q)` under `b · n₁ + q₂` for a right one.
    let n1 = tau1.n_states() as usize;
    let binaries = alphabet.binaries();
    let mut bin_of = vec![u32::MAX; alphabet.len()];
    for (b, s) in binaries.iter().enumerate() {
        bin_of[s.index()] = b as u32;
    }
    let mut rules: Vec<(u32, u32, u32, u32)> = tau1
        .node_transitions()
        .map(|(s, q1, q2, q)| (bin_of[s.index()], q1.0, q2.0, q.0))
        .collect();
    rules.sort_unstable();
    let key = |b: u32, q: u32| b as usize * n1 + q as usize;
    let mut by_side: [Vec<Vec<(u32, u32)>>; 2] = [
        vec![Vec::new(); binaries.len() * n1],
        vec![Vec::new(); binaries.len() * n1],
    ];
    for &(b, q1, q2, q) in &rules {
        by_side[0][key(b, q1)].push((q2, q));
        by_side[1][key(b, q2)].push((q1, q));
    }

    let mut projs = ProjArena::default();
    let mut states: Vec<Signature<ProjId>> = Vec::new();
    let mut index: FxHashMap<Signature<ProjId>, State> = FxHashMap::default();
    let mut pairs = TauPairs::default();

    // Leaves, in alphabet order: one composition per symbol `τ₁` labels.
    let mut leaf_rules: Vec<(Symbol, u32)> = Vec::new();
    let mut leaves = 0u64;
    for &sym in alphabet.leaves().iter() {
        let qs = tau1.leaf_states(sym);
        if qs.is_empty() {
            continue;
        }
        let raw = walker.compose(walker.slot(sym), None, &mut ws, &mut stats);
        let s = intern_signature(raw, &mut projs, &mut states, &mut index, limit)
            .inspect_err(|_| over_budget(&stats, states.len(), projs.projs.len(), 0, 0))?;
        leaves += 1;
        for q in qs {
            leaf_rules.push((sym, pairs.add(s, q.0)));
        }
    }

    // Discovery. `seen[side][b · n₁ + q]` lists the side's projections of
    // `b` under τ₁ state `q` in discovery order, each with its group:
    // `members[g]` are the pairs carrying it. A new projection is joined
    // with every opposite-side projection under each rule that reads it,
    // so each (rule, left, right) join happens once, the generation after
    // the later of its two projections first appears.
    let mut seen: [Vec<Vec<(ProjId, u32)>>; 2] = [
        vec![Vec::new(); binaries.len() * n1],
        vec![Vec::new(); binaries.len() * n1],
    ];
    let mut group: FxHashMap<(u8, usize, ProjId), u32> = FxHashMap::default();
    let mut members: Vec<Vec<u32>> = Vec::new();
    let mut memo: FxHashMap<(u32, ProjId, ProjId), State> = FxHashMap::default();
    let mut jobs: Vec<(u32, ProjId, ProjId, u32)> = Vec::new();
    let mut enumerated = 0;
    let mut rounds = 0u64;
    while enumerated < pairs.list.len() {
        jobs.clear();
        for p in enumerated..pairs.list.len() {
            let (s, q) = pairs.list[p];
            let sig = &states[s.index()];
            for b in 0..binaries.len() as u32 {
                let k = key(b, q);
                for side in 0..2 {
                    if by_side[side][k].is_empty() {
                        continue;
                    }
                    let proj = if side == 0 {
                        sig.left[b as usize]
                    } else {
                        sig.right[b as usize]
                    };
                    let next = members.len() as u32;
                    let g = *group.entry((side as u8, k, proj)).or_insert(next);
                    if g == next {
                        members.push(Vec::new());
                        for &(other, target) in &by_side[side][k] {
                            for &(o, _) in &seen[1 - side][key(b, other)] {
                                let (l, r) = if side == 0 { (proj, o) } else { (o, proj) };
                                jobs.push((b, l, r, target));
                            }
                        }
                        seen[side][k].push((proj, g));
                    }
                    members[g as usize].push(p as u32);
                }
            }
        }
        enumerated = pairs.list.len();
        if jobs.is_empty() {
            break;
        }
        rounds += 1;
        if jour {
            journal::instant("walk.round");
            journal::counter("walk.frontier_jobs", jobs.len() as u64);
        }
        for &(b, l, r, target) in &jobs {
            let s = match memo.get(&(b, l, r)) {
                Some(&s) => s,
                None => {
                    let children = (&projs.projs[l as usize], &projs.projs[r as usize]);
                    let table = walker.binaries[b as usize];
                    let raw = walker.compose(table, Some(children), &mut ws, &mut stats);
                    let s = intern_signature(raw, &mut projs, &mut states, &mut index, limit)
                        .inspect_err(|_| {
                            over_budget(
                                &stats,
                                states.len(),
                                projs.projs.len(),
                                pairs.list.len(),
                                rounds,
                            )
                        })?;
                    memo.insert((b, l, r), s);
                    s
                }
            };
            pairs.add(s, target);
        }
        if jour {
            journal::counter("walk.dbta_states", states.len() as u64);
            journal::counter("walk.projections_arena", projs.projs.len() as u64);
            journal::counter("walk.memo_misses", leaves + memo.len() as u64);
        }
    }

    // Expansion: b((s₁, q₁), (s₂, q₂)) → (memo[b, left, right], q) for
    // every rule b(q₁, q₂) → q and every pair of each joined group.
    let mut nta = Nta::new(alphabet, pairs.list.len() as u32);
    for (sym, p) in leaf_rules {
        nta.add_leaf(sym, State(p));
    }
    let mut entries = 0u64;
    for (b, &sym) in binaries.iter().enumerate() {
        let b = b as u32;
        for q1 in 0..n1 as u32 {
            let k = key(b, q1);
            for &(l, g1) in &seen[0][k] {
                for &(q2, target) in &by_side[0][k] {
                    for &(r, g2) in &seen[1][key(b, q2)] {
                        let s = memo[&(b, l, r)];
                        let to = State(pairs.index[&(s, target)]);
                        for &p1 in &members[g1 as usize] {
                            for &p2 in &members[g2 as usize] {
                                nta.add_node(sym, State(p1), State(p2), to);
                            }
                        }
                        entries += (members[g1 as usize].len() * members[g2 as usize].len()) as u64;
                    }
                }
            }
        }
    }
    let memo_hits = entries - memo.len() as u64;
    if jour {
        journal::counter("walk.memo_hits", memo_hits);
    }
    for (p, &(s, q)) in pairs.list.iter().enumerate() {
        if states[s.index()].accepting && tau1.finals().contains(State(q)) {
            nta.add_final(State(p as u32));
        }
    }
    let stats = WalkStats {
        pairs: entries,
        compositions: leaves + entries,
        memo_hits,
        rounds,
        dbta_states: states.len() as u64,
        projections_interned: projs.projs.len() as u64,
        tau1_pairs: pairs.list.len() as u64,
        ..stats
    };
    stats.record_within();
    Ok((nta, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_core::accepts;
    use xmltc_core::machine::{AutomatonBuilder, Guard, SymSpec};
    use xmltc_trees::{BinaryTree, SmallRng};

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    const TREES: [&str; 10] = [
        "x",
        "y",
        "f(x, y)",
        "f(y, x)",
        "f(x, x)",
        "f(x, f(x, x))",
        "f(f(y, x), x)",
        "f(f(x, x), f(x, y))",
        "f(f(x, y), f(y, x))",
        "f(f(f(x, x), x), y)",
    ];

    /// The one-state automaton for every tree over `al`.
    fn universal(al: &Arc<Alphabet>) -> Nta {
        let mut u = Nta::new(al, 1);
        for leaf in al.leaves() {
            u.add_leaf(leaf, State(0));
        }
        for f in al.binaries() {
            u.add_node(f, State(0), State(0), State(0));
        }
        u.add_final(State(0));
        u
    }

    fn agree(a: &PebbleAutomaton) {
        let al = a.input_alphabet().clone();
        let (d, s) = walking_to_dbta_with(a, &WalkOptions::default()).unwrap();
        // Guided by the universal type, the walk reaches every signature,
        // each with the type's one state.
        let (g, gs) = walking_to_nta_within(a, &universal(&al), &WalkOptions::default()).unwrap();
        for src in TREES {
            let t = BinaryTree::parse(src, &al).unwrap();
            assert_eq!(
                d.accepts(&t).unwrap(),
                accepts(a, &t).unwrap(),
                "disagreement on {src}"
            );
            assert_eq!(
                g.accepts(&t).unwrap(),
                d.accepts(&t).unwrap(),
                "guided on {src}"
            );
        }
        assert_eq!(gs.dbta_states, s.dbta_states);
        assert_eq!(gs.tau1_pairs, s.dbta_states);
        assert_eq!(gs.memo_hits + gs.memo_misses, gs.compositions);
        // The construction is a pure function of the machine: a second
        // build has the same states, transitions, finals and counters.
        let (d2, s2) = walking_to_dbta_with(a, &WalkOptions::default()).unwrap();
        assert_eq!(d, d2, "rebuilding changed the DBTA");
        assert_eq!(s, s2, "rebuilding changed the counters");
        // Accounting invariants: every request is a hit or a miss, and
        // there is one request per leaf symbol plus one per pair.
        assert_eq!(s.memo_hits + s.memo_misses, s.compositions);
        assert_eq!(s.compositions, s.pairs + 2 /* leaves */);
        assert_eq!(s.parallel_batches, 0);
    }

    #[test]
    fn memo_hit_rate_is_always_finite() {
        // The 0/0 case — no requests at all — must not be NaN.
        let empty = WalkStats::default();
        assert_eq!(empty.memo_hit_rate(), 0.0);
        assert!(empty.memo_hit_rate().is_finite());
        let s = WalkStats {
            memo_hits: 3,
            memo_misses: 1,
            ..WalkStats::default()
        };
        assert_eq!(s.memo_hit_rate(), 0.75);
        let all_miss = WalkStats {
            memo_misses: 5,
            ..WalkStats::default()
        };
        assert_eq!(all_miss.memo_hit_rate(), 0.0);
    }

    // ---- dense kernel unit suite ----------------------------------------

    /// Builds a row from bit positions at the given word width.
    fn row(bits: &[usize], words: usize) -> Vec<u64> {
        let mut r = vec![0u64; words];
        for &b in bits {
            r[b / 64] |= 1u64 << (b % 64);
        }
        r
    }

    #[test]
    fn row_ops_multi_word() {
        let words = 5; // a 300-state machine's width
        let a = row(&[0, 64, 190, 299], words);
        let b = row(&[0, 64, 190, 262, 299], words);
        assert!(row_subset(&a, &b));
        assert!(!row_subset(&b, &a));
        assert!(row_subset(&a, &a));
        assert_eq!(row_popcount(&a), 4);
        assert_eq!(row_popcount(&b), 5);
        assert_eq!(row_bits(&b).collect::<Vec<_>>(), vec![0, 64, 190, 262, 299]);
        let empty = row(&[], words);
        assert!(row_subset(&empty, &a));
        assert_eq!(row_popcount(&empty), 0);
        assert_eq!(row_bits(&empty).count(), 0);
    }

    #[test]
    fn ac_insert_rejects_supersets() {
        let words = 2;
        let mut arena: Vec<u64> = Vec::new();
        let mut ac: Vec<RowRef> = Vec::new();
        assert!(ac_insert_min(&mut ac, &mut arena, words, &row(&[3], words)));
        // A superset of an existing row adds nothing.
        assert!(!ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[3, 70], words)
        ));
        // An identical row adds nothing (equal popcount, subset = equality).
        assert!(!ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[3], words)
        ));
        assert_eq!(ac.len(), 1);
    }

    #[test]
    fn ac_insert_drops_dominated_rows() {
        let words = 2;
        let mut arena: Vec<u64> = Vec::new();
        let mut ac: Vec<RowRef> = Vec::new();
        assert!(ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[1, 2, 65], words)
        ));
        assert!(ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[1, 3, 66], words)
        ));
        assert!(ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[4, 5], words)
        ));
        // {1, 65} kills {1, 2, 65} but not {1, 3, 66} or {4, 5}.
        assert!(ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[1, 65], words)
        ));
        assert_eq!(ac.len(), 3);
        // The empty row dominates everything.
        assert!(ac_insert_min(&mut ac, &mut arena, words, &row(&[], words)));
        assert_eq!(ac.len(), 1);
        assert_eq!(ac[0].pc, 0);
        // Nothing can be added past the empty row.
        assert!(!ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[7], words)
        ));
    }

    #[test]
    fn ac_insert_keeps_popcount_order() {
        let words = 1;
        let mut arena: Vec<u64> = Vec::new();
        let mut ac: Vec<RowRef> = Vec::new();
        for bits in [&[1usize, 2, 3][..], &[4][..], &[5, 6][..]] {
            assert!(ac_insert_min(&mut ac, &mut arena, words, &row(bits, words)));
        }
        let pcs: Vec<u32> = ac.iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![1, 2, 3]);
        // Incomparable same-popcount rows coexist.
        assert!(ac_insert_min(&mut ac, &mut arena, words, &row(&[7], words)));
        assert_eq!(
            ac.iter().map(|e| e.pc).collect::<Vec<_>>(),
            vec![1, 1, 2, 3]
        );
    }

    /// End-to-end with 150 distinct up-move targets (rows of 3 words): an
    /// or-search chained through 300 `Stay` states, which can also send a
    /// climber down-left. Climber `u_j` accepts on `y` and otherwise exits
    /// up in `w_j`, which takes `j` `Stay` steps down a shared chain
    /// (`w_j → w_{j-1}`) before accepting anywhere; `u_140`'s exit sits in
    /// the row's third word and resolves at the parent.
    #[test]
    fn wide_machine_multi_word_rows() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let n = 300usize;
        let states: Vec<_> = (0..n)
            .map(|i| b.state(&format!("s{i}"), 1).unwrap())
            .collect();
        let climbers: Vec<_> = (0..150)
            .map(|j| b.state(&format!("u{j}"), 1).unwrap())
            .collect();
        let exits: Vec<_> = (0..150)
            .map(|j| b.state(&format!("w{j}"), 1).unwrap())
            .collect();
        b.set_initial(states[0]);
        for i in 0..n - 1 {
            b.move_rule(
                SymSpec::Any,
                states[i],
                Guard::any(),
                Move::Stay,
                states[i + 1],
            )
            .unwrap();
        }
        let last = states[n - 1];
        b.branch0(SymSpec::One(y), last, Guard::any()).unwrap();
        for (m, target) in [
            (Move::DownLeft, states[0]),
            (Move::DownRight, states[0]),
            (Move::DownLeft, climbers[140]),
        ] {
            b.move_rule(SymSpec::Binaries, last, Guard::any(), m, target)
                .unwrap();
        }
        b.branch0(SymSpec::Any, exits[0], Guard::any()).unwrap();
        for j in 1..150 {
            b.move_rule(
                SymSpec::Any,
                exits[j],
                Guard::any(),
                Move::Stay,
                exits[j - 1],
            )
            .unwrap();
        }
        for (&u, &w) in climbers.iter().zip(&exits) {
            b.branch0(SymSpec::One(y), u, Guard::any()).unwrap();
            for m in [Move::UpLeft, Move::UpRight] {
                b.move_rule(SymSpec::Any, u, Guard::any(), m, w).unwrap();
            }
        }
        let a = b.build().unwrap();
        let (_, s) = walking_to_dbta_with(&a, &WalkOptions::default()).unwrap();
        assert!(s.words >= 3, "{} words", s.words);
        agree(&a);
    }

    /// The projected memo key collapses pairs that agree on the symbol's
    /// `Down` targets — in particular, *every* right child here, because
    /// `f` has no `DownRight` rules at all.
    #[test]
    fn projected_memo_hits_on_repeating_structure() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("walk", 1).unwrap();
        b.set_initial(q);
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.branch0(SymSpec::One(x), q, Guard::any()).unwrap();
        let a = b.build().unwrap();
        let (_, s) = walking_to_dbta_with(&a, &WalkOptions::default()).unwrap();
        assert!(s.memo_hits > 0, "projection must collapse right children");
        assert_eq!(s.memo_hits + s.memo_misses, s.compositions);
        assert!(s.projections_interned > 0);
    }

    /// Walks down-left-only to check the leftmost leaf is x.
    #[test]
    fn leftmost_leaf_x() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("walk", 1).unwrap();
        b.set_initial(q);
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.branch0(SymSpec::One(x), q, Guard::any()).unwrap();
        agree(&b.build().unwrap());
    }

    /// Or-search: some y leaf exists.
    #[test]
    fn some_y() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("search", 1).unwrap();
        b.set_initial(q);
        b.branch0(SymSpec::One(y), q, Guard::any()).unwrap();
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownRight, q)
            .unwrap();
        agree(&b.build().unwrap());
    }

    /// And-branching: all leaves x.
    #[test]
    fn all_x() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("check", 1).unwrap();
        let l = b.state("left", 1).unwrap();
        let r = b.state("right", 1).unwrap();
        b.set_initial(q);
        b.branch0(SymSpec::One(x), q, Guard::any()).unwrap();
        b.branch2(SymSpec::Binaries, q, Guard::any(), l, r).unwrap();
        b.move_rule(SymSpec::Binaries, l, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.move_rule(SymSpec::Binaries, r, Guard::any(), Move::DownRight, q)
            .unwrap();
        agree(&b.build().unwrap());
    }

    /// A genuinely two-way machine: walk to the leftmost leaf; if it is y,
    /// walk all the way back up and then check the rightmost leaf is also
    /// y. Exercises up-moves and exit composition.
    #[test]
    fn two_way_walk() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let down = b.state("down", 1).unwrap();
        let up = b.state("up", 1).unwrap();
        let right = b.state("right", 1).unwrap();
        b.set_initial(down);
        b.move_rule(SymSpec::Binaries, down, Guard::any(), Move::DownLeft, down)
            .unwrap();
        // On a y leftmost leaf: climb.
        b.move_rule(SymSpec::One(y), down, Guard::any(), Move::UpLeft, up)
            .unwrap();
        b.move_rule(SymSpec::One(y), down, Guard::any(), Move::UpRight, up)
            .unwrap();
        b.move_rule(SymSpec::Any, up, Guard::any(), Move::UpLeft, up)
            .unwrap();
        b.move_rule(SymSpec::Any, up, Guard::any(), Move::UpRight, up)
            .unwrap();
        // From wherever climbing stops... we can't test rootness, so `up`
        // also nondeterministically switches to descending right.
        b.move_rule(SymSpec::Binaries, up, Guard::any(), Move::Stay, right)
            .unwrap();
        b.move_rule(
            SymSpec::Binaries,
            right,
            Guard::any(),
            Move::DownRight,
            right,
        )
        .unwrap();
        b.branch0(SymSpec::One(y), right, Guard::any()).unwrap();
        // Degenerate single-leaf tree: y alone accepts via the right state?
        // No — initial `down` on a leaf y has no applicable rule except the
        // up-moves, which fail at the root: single y is rejected. That is
        // the machine's semantics; the theorem only asks for agreement.
        agree(&b.build().unwrap());
    }

    /// Stay-cycles must not diverge or accept spuriously.
    #[test]
    fn stay_cycle() {
        let al = alpha();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("a", 1).unwrap();
        let p = b.state("b", 1).unwrap();
        b.set_initial(q);
        b.move_rule(SymSpec::Any, q, Guard::any(), Move::Stay, p)
            .unwrap();
        b.move_rule(SymSpec::Any, p, Guard::any(), Move::Stay, q)
            .unwrap();
        agree(&b.build().unwrap());
    }

    /// k = 2 machines are rejected by this route.
    #[test]
    fn requires_one_pebble() {
        let al = alpha();
        let mut b = AutomatonBuilder::new(&al, 2);
        let q = b.state("q", 1).unwrap();
        let q2 = b.state("q2", 2).unwrap();
        b.set_initial(q);
        b.move_rule(SymSpec::Any, q, Guard::any(), Move::PlaceNew, q2)
            .unwrap();
        b.branch0(SymSpec::Any, q2, Guard::any()).unwrap();
        let a = b.build().unwrap();
        assert!(matches!(
            walking_to_dbta_with(&a, &WalkOptions::default()),
            Err(TypecheckError::NeedsOnePebble { k: 2 })
        ));
    }

    /// The state budget aborts at the first state past it, and reports
    /// the breached budget.
    #[test]
    fn limit_abort_reports_the_breached_budget() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("search", 1).unwrap();
        b.set_initial(q);
        b.branch0(SymSpec::One(y), q, Guard::any()).unwrap();
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownRight, q)
            .unwrap();
        let a = b.build().unwrap();
        let (full, _) = walk(&a);
        assert!(full.n_states() >= 2);
        let limited = |limit| walking_to_dbta_with(&a, &WalkOptions { limit }).map(|(d, _)| d);
        let tau1 = universal(&al);
        let guided = |limit| walking_to_nta_within(&a, &tau1, &WalkOptions { limit });
        for limit in 0..full.n_states() {
            match limited(limit) {
                Err(TypecheckError::TooManyStates { n }) => assert_eq!(n, limit + 1),
                other => panic!("limit {limit}: expected budget abort, got {other:?}"),
            }
            // The guided walk counts signatures too.
            match guided(limit) {
                Err(TypecheckError::TooManyStates { n }) => assert_eq!(n, limit + 1),
                other => panic!("limit {limit}: expected guided abort, got {other:?}"),
            }
        }
        assert_eq!(limited(full.n_states()).unwrap(), full);
        assert!(guided(full.n_states()).is_ok());
    }

    // ---- rule order -----------------------------------------------------

    /// A rule over state indices, so that one machine can be built with
    /// its rules in any order, or repeated.
    #[derive(Clone)]
    enum Rule {
        Accept,
        Fork(usize, usize),
        Walk(Move, usize),
    }

    /// A machine over `al` with states `s0..s{n-1}`, initial `s0`, and
    /// `rules` added in the order given.
    fn machine(al: &Arc<Alphabet>, n: usize, rules: &[(SymSpec, usize, Rule)]) -> PebbleAutomaton {
        let mut b = AutomatonBuilder::new(al, 1);
        let st: Vec<_> = (0..n)
            .map(|i| b.state(&format!("s{i}"), 1).unwrap())
            .collect();
        b.set_initial(st[0]);
        for (spec, q, rule) in rules {
            let (spec, q) = (spec.clone(), st[*q]);
            match *rule {
                Rule::Accept => b.branch0(spec, q, Guard::any()),
                Rule::Fork(x, y) => b.branch2(spec, q, Guard::any(), st[x], st[y]),
                Rule::Walk(m, t) => b.move_rule(spec, q, Guard::any(), m, st[t]),
            }
            .unwrap();
        }
        b.build().unwrap()
    }

    /// `count` random rules over `n` states and the symbols of `al`.
    fn random_rules(
        rng: &mut SmallRng,
        al: &Alphabet,
        n: usize,
        count: usize,
    ) -> Vec<(SymSpec, usize, Rule)> {
        let syms: Vec<Symbol> = al.symbols().collect();
        let moves = [
            Move::Stay,
            Move::DownLeft,
            Move::DownRight,
            Move::UpLeft,
            Move::UpRight,
        ];
        (0..count)
            .map(|_| {
                let spec = match rng.below(4) {
                    0 => SymSpec::Leaves,
                    1 => SymSpec::Binaries,
                    2 => SymSpec::Any,
                    _ => SymSpec::One(*rng.choose(&syms)),
                };
                let q = rng.gen_range(0..n);
                let rule = match rng.below(6) {
                    0 => Rule::Accept,
                    1 => Rule::Fork(rng.gen_range(0..n), rng.gen_range(0..n)),
                    _ => Rule::Walk(*rng.choose(&moves), rng.gen_range(0..n)),
                };
                (spec, q, rule)
            })
            .collect()
    }

    fn walk(a: &PebbleAutomaton) -> (Dbta, WalkStats) {
        walking_to_dbta_with(a, &WalkOptions::default()).unwrap()
    }

    /// The tables do not depend on the order the rules came in, and a
    /// repeated rule is one action: the same rules added in a different
    /// order, or each added twice, give the same DBTA and the same
    /// counters.
    #[test]
    fn rule_order_changes_nothing() {
        let (al, mut rng) = (alpha(), SmallRng::seed_from_u64(0x0bde));
        for case in 0..48 {
            let n = rng.gen_range(2..7);
            let count = rng.gen_range(6..24);
            let mut rules = random_rules(&mut rng, &al, n, count);
            let plain = walk(&machine(&al, n, &rules));
            let twice: Vec<_> = rules.iter().chain(&rules).cloned().collect();
            assert_eq!(plain, walk(&machine(&al, n, &twice)), "case {case}, twice");
            for i in (1..rules.len()).rev() {
                rules.swap(i, rng.gen_range(0..i + 1));
            }
            assert_eq!(plain, walk(&machine(&al, n, &rules)), "case {case}");
        }
    }

    /// `s1..s5` walk down-left `0..4` times and accept on `y`, the initial
    /// `s0` stays into `s5` and into `s6`, and `s6` walks like `s4`.
    #[test]
    fn stay_into_down_left_chains() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut rules = vec![
            (SymSpec::Any, 0, Rule::Walk(Move::Stay, 5)),
            (SymSpec::Any, 0, Rule::Walk(Move::Stay, 6)),
            (SymSpec::One(y), 1, Rule::Accept),
            (SymSpec::Binaries, 6, Rule::Walk(Move::DownLeft, 3)),
        ];
        for q in 2..6 {
            rules.push((SymSpec::Binaries, q, Rule::Walk(Move::DownLeft, q - 1)));
        }
        agree(&machine(&al, 7, &rules));
    }
}
