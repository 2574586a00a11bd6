//! The least-witness derivation behind every counterexample.
//!
//! Trees are totally ordered by
//! 1. fewer nodes, then
//! 2. lower height, then
//! 3. the root symbol, in alphabet order, then
//! 4. the left subtree, then the right subtree, each compared by this
//!    same order.
//!
//! The order is monotone: a tree shrinks when one of its subtrees is
//! replaced by a smaller one, and it is larger than each of its subtrees.
//! So the least tree of an *item* (an automaton state, a pair of states,
//! a state with a set of states) is a node over the least trees of items
//! below it, and Knuth's generalization of Dijkstra's algorithm finds them
//! in increasing order: a heap holds one candidate per way of deriving an
//! item from items already finalized, and the least candidate finalizes
//! its item. A candidate's key is its node count, height and symbol, then
//! the ranks of its two children, where a rank numbers the distinct trees
//! finalized so far (equal trees share one). Keys therefore compare as the
//! order compares the trees they stand for, and the first accepting item
//! to be finalized carries the least accepted tree.
//!
//! [`search`] runs the derivation over the product of a left [`Nta`] with
//! a right [`Side`]: everything the right automaton knows about a tree,
//! combined node by node. [`Nta::witness`] pairs the automaton with
//! nothing ([`Any`]); [`crate::lazy`] pairs it with a state of a second
//! automaton ([`Member`]) or with the set of the second automaton's states
//! on the same tree ([`Reject`]), building the product only as far as the
//! search reaches.

use crate::lazy::LazyError;
use crate::nta::Nta;
use crate::state::{State, StateSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use xmltc_trees::tree::BinaryTreeBuilder;
use xmltc_trees::{BinaryTree, FxHashMap, Symbol};

/// A tree in the order's terms: node count, height, root symbol and the
/// ranks of its subtrees (0 for a leaf). The derived order is the order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    nodes: u64,
    height: u32,
    symbol: Symbol,
    left_rank: u32,
    right_rank: u32,
}

/// One way to derive `item`: the tree `key` over the least trees of the
/// items `left` and `right` (both `item` for a leaf).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    key: Key,
    item: u32,
    left: u32,
    right: u32,
}

/// The right-hand component of a product item: what a second automaton
/// knows about a tree, numbered densely, and how it combines at a node.
pub(crate) trait Side {
    /// Appends the components of the leaf `symbol` to `out`.
    fn leaf(&mut self, symbol: Symbol, out: &mut Vec<u32>);
    /// Appends the components of a `symbol`-node over children with
    /// components `left` and `right` to `out`.
    fn node(&mut self, symbol: Symbol, left: u32, right: u32, out: &mut Vec<u32>);
    /// Whether a tree with component `c` and a final left state is wanted.
    fn accepts(&self, c: u32) -> bool;
}

/// No second automaton: items are the left automaton's states.
pub(crate) struct Any;

impl Side for Any {
    fn leaf(&mut self, _: Symbol, out: &mut Vec<u32>) {
        out.push(0);
    }
    fn node(&mut self, _: Symbol, _: u32, _: u32, out: &mut Vec<u32>) {
        out.push(0);
    }
    fn accepts(&self, _: u32) -> bool {
        true
    }
}

/// Intersection: one state of `b` that accepts the same tree.
pub(crate) struct Member<'a>(pub(crate) &'a Nta);

impl Side for Member<'_> {
    fn leaf(&mut self, symbol: Symbol, out: &mut Vec<u32>) {
        out.extend(self.0.leaf_states(symbol).iter().map(|q| q.0));
    }
    fn node(&mut self, symbol: Symbol, left: u32, right: u32, out: &mut Vec<u32>) {
        let targets = self.0.node_states(symbol, State(left), State(right));
        out.extend(targets.iter().map(|q| q.0));
    }
    fn accepts(&self, c: u32) -> bool {
        self.0.finals().contains(State(c))
    }
}

/// Difference: the set of all states of `b` on the same tree — one state
/// of `b`'s subset construction, made when the search first reaches it.
pub(crate) struct Reject<'a> {
    b: &'a Nta,
    sets: Vec<StateSet>,
    index: FxHashMap<StateSet, u32>,
    /// The set a `symbol`-node over two sets maps to.
    steps: FxHashMap<(Symbol, u32, u32), u32>,
}

impl<'a> Reject<'a> {
    pub(crate) fn new(b: &'a Nta) -> Reject<'a> {
        Reject {
            b,
            sets: Vec::new(),
            index: FxHashMap::default(),
            steps: FxHashMap::default(),
        }
    }

    /// Distinct subset states made so far.
    pub(crate) fn subsets(&self) -> u64 {
        self.sets.len() as u64
    }

    fn intern(&mut self, states: Vec<State>) -> u32 {
        let set = StateSet::from_iter_canon(states);
        if let Some(&id) = self.index.get(&set) {
            return id;
        }
        self.index.insert(set.clone(), self.sets.len() as u32);
        self.sets.push(set);
        self.sets.len() as u32 - 1
    }
}

impl Side for Reject<'_> {
    fn leaf(&mut self, symbol: Symbol, out: &mut Vec<u32>) {
        let states = self.b.leaf_states(symbol).to_vec();
        out.push(self.intern(states));
    }
    fn node(&mut self, symbol: Symbol, left: u32, right: u32, out: &mut Vec<u32>) {
        if let Some(&id) = self.steps.get(&(symbol, left, right)) {
            out.push(id);
            return;
        }
        let mut states = Vec::new();
        for q1 in self.sets[left as usize].iter() {
            for q2 in self.sets[right as usize].iter() {
                states.extend_from_slice(self.b.node_states(symbol, q1, q2));
            }
        }
        let id = self.intern(states);
        self.steps.insert((symbol, left, right), id);
        out.push(id);
    }
    fn accepts(&self, c: u32) -> bool {
        !self.sets[c as usize].intersects(self.b.finals())
    }
}

/// The least tree accepted by both `a` (at a final state) and `side`,
/// and the number of product items the search made; `limit` bounds that
/// number.
pub(crate) fn search<S: Side>(
    a: &Nta,
    side: &mut S,
    limit: u32,
) -> Result<(Option<BinaryTree>, u64), LazyError> {
    let mut d = Derivation {
        heap: BinaryHeap::new(),
        items: Vec::new(),
        index: FxHashMap::default(),
        last: None,
        ranks: 0,
        limit,
    };
    let mut comps = Vec::new();
    for (symbol, q) in a.leaf_transitions() {
        side.leaf(symbol, &mut comps);
        for c in comps.drain(..) {
            let item = d.intern(q, c)?;
            d.offer(item, symbol, None);
        }
    }
    // Per state, the rules it is a child of: (symbol, sibling, whether it
    // is the left child, target). Each rule is listed under both children.
    let mut uses = vec![Vec::new(); a.n_states() as usize];
    for (symbol, q1, q2, target) in a.node_transitions() {
        uses[q1.index()].push((symbol, q2, true, target));
        uses[q2.index()].push((symbol, q1, false, target));
    }
    // Per state, the finalized items that carry it.
    let mut partners: Vec<Vec<u32>> = vec![Vec::new(); a.n_states() as usize];
    while let Some(x) = d.next() {
        let (q, c) = d.items[x as usize].pair;
        if a.finals().contains(q) && side.accepts(c) {
            return Ok((Some(d.tree(x, a)), d.items.len() as u64));
        }
        partners[q.index()].push(x);
        // A rule fires when the later of its two children finalizes; a
        // rule over two copies of one state meets (x, x) as a left use.
        for &(symbol, other, left, target) in &uses[q.index()] {
            for &y in &partners[other.index()] {
                if !left && y == x {
                    continue;
                }
                let (l, r) = if left { (x, y) } else { (y, x) };
                let (cl, cr) = (d.items[l as usize].pair.1, d.items[r as usize].pair.1);
                side.node(symbol, cl, cr, &mut comps);
                for c in comps.drain(..) {
                    let item = d.intern(target, c)?;
                    d.offer(item, symbol, Some((l, r)));
                }
            }
        }
    }
    Ok((None, d.items.len() as u64))
}

/// A product item: a left state with a side component, and once
/// finalized, its rank and the candidate that derived its least tree.
struct Item {
    pair: (State, u32),
    done: Option<(u32, Candidate)>,
}

/// Knuth's derivation over the product items made so far.
struct Derivation {
    heap: BinaryHeap<Reverse<Candidate>>,
    items: Vec<Item>,
    index: FxHashMap<(State, u32), u32>,
    /// The key of the last finalized item, and the ranks handed out.
    last: Option<Key>,
    ranks: u32,
    limit: u32,
}

impl Derivation {
    fn intern(&mut self, q: State, c: u32) -> Result<u32, LazyError> {
        if let Some(&item) = self.index.get(&(q, c)) {
            return Ok(item);
        }
        if self.items.len() as u32 >= self.limit {
            return Err(LazyError::ConfigLimit { n: self.limit });
        }
        let item = self.items.len() as u32;
        self.index.insert((q, c), item);
        self.items.push(Item {
            pair: (q, c),
            done: None,
        });
        Ok(item)
    }

    /// Offers `symbol` over the least trees of the finalized `children`
    /// (a leaf when `None`) as a tree of `item`.
    fn offer(&mut self, item: u32, symbol: Symbol, children: Option<(u32, u32)>) {
        if self.items[item as usize].done.is_some() {
            return;
        }
        let done = |i: u32| self.items[i as usize].done.expect("children are finalized");
        let (nodes, height, left_rank, right_rank, (left, right)) = match children {
            None => (1, 0, 0, 0, (item, item)),
            Some((l, r)) => {
                let ((lr, lc), (rr, rc)) = (done(l), done(r));
                let nodes = lc.key.nodes.saturating_add(rc.key.nodes).saturating_add(1);
                (nodes, lc.key.height.max(rc.key.height) + 1, lr, rr, (l, r))
            }
        };
        let key = Key {
            nodes,
            height,
            symbol,
            left_rank,
            right_rank,
        };
        let c = Candidate {
            key,
            item,
            left,
            right,
        };
        self.heap.push(Reverse(c));
    }

    /// Finalizes the open item with the least candidate and returns it;
    /// `None` once no open item is derivable.
    fn next(&mut self) -> Option<u32> {
        while let Some(Reverse(c)) = self.heap.pop() {
            let item = &mut self.items[c.item as usize];
            if item.done.is_some() {
                continue;
            }
            if self.last != Some(c.key) {
                self.last = Some(c.key);
                self.ranks += 1;
            }
            item.done = Some((self.ranks - 1, c));
            return Some(c.item);
        }
        None
    }

    /// The least tree of a finalized item, built bottom-up on an explicit
    /// stack (the tree may be deeper than the thread's stack allows).
    fn tree(&self, item: u32, a: &Nta) -> BinaryTree {
        let derivation = |i: u32| self.items[i as usize].done.expect("finalized").1;
        let nodes = derivation(item).key.nodes as usize;
        let mut b = BinaryTreeBuilder::with_capacity(a.alphabet(), nodes);
        let (mut built, mut stack) = (Vec::new(), vec![(item, false)]);
        while let Some((i, children_built)) = stack.pop() {
            let d = derivation(i);
            if d.key.nodes == 1 {
                built.push(b.leaf(d.key.symbol).expect("leaf rank"));
            } else if children_built {
                let r = built.pop().expect("right child built");
                let l = built.pop().expect("left child built");
                built.push(b.node(d.key.symbol, l, r).expect("binary rank"));
            } else {
                stack.extend([(i, true), (d.right, false), (d.left, false)]);
            }
        }
        b.finish(built.pop().expect("root built"))
    }
}
