//! Every witness is the least accepted tree: a brute-force check.
//!
//! Enumerates every tree over {x, y; f, g} with at most [`MAX_NODES`]
//! nodes, sorts them by the documented order (fewest nodes, then lowest
//! height, then root symbol in alphabet order, then left subtree, then
//! right subtree, subtrees compared by the same order), and checks that
//! `Nta::witness`, `lazy::intersection_witness` and
//! `lazy::difference_witness` (and their eager counterparts) return the
//! first tree of that list their language accepts — or, when none is
//! accepted, nothing or a larger tree.

use std::cmp::Ordering;
use std::sync::Arc;
use xmltc_automata::lazy::{difference_witness, intersection_witness};
use xmltc_automata::{Nta, State};
use xmltc_trees::{Alphabet, BinaryTree, SmallRng, Symbol};

const MAX_NODES: usize = 7;
const CASES: usize = 300;

/// A tree with the order's keys cached.
struct T {
    nodes: usize,
    height: usize,
    symbol: Symbol,
    children: Option<(usize, usize)>,
}

/// Every tree of at most `max` nodes, as an arena whose children point to
/// earlier entries.
fn all_trees(al: &Arc<Alphabet>, max: usize) -> Vec<T> {
    let mut trees: Vec<T> = al
        .leaves()
        .into_iter()
        .map(|symbol| T {
            nodes: 1,
            height: 0,
            symbol,
            children: None,
        })
        .collect();
    for nodes in (3..=max).step_by(2) {
        let mut fresh = Vec::new();
        for symbol in al.binaries() {
            for (l, lt) in trees.iter().enumerate() {
                for (r, rt) in trees.iter().enumerate() {
                    if lt.nodes + rt.nodes + 1 == nodes {
                        fresh.push(T {
                            nodes,
                            height: 1 + lt.height.max(rt.height),
                            symbol,
                            children: Some((l, r)),
                        });
                    }
                }
            }
        }
        trees.extend(fresh);
    }
    trees
}

/// The documented order, written out independently of the search.
fn cmp(trees: &[T], a: usize, b: usize) -> Ordering {
    let (s, t) = (&trees[a], &trees[b]);
    (s.nodes, s.height, s.symbol)
        .cmp(&(t.nodes, t.height, t.symbol))
        .then_with(|| match (s.children, t.children) {
            (Some((sl, sr)), Some((tl, tr))) => cmp(trees, sl, tl).then_with(|| cmp(trees, sr, tr)),
            _ => Ordering::Equal,
        })
}

fn text(trees: &[T], al: &Alphabet, i: usize) -> String {
    let t = &trees[i];
    match t.children {
        None => al.name(t.symbol).to_string(),
        Some((l, r)) => format!(
            "{}({}, {})",
            al.name(t.symbol),
            text(trees, al, l),
            text(trees, al, r)
        ),
    }
}

/// Every tree of at most [`MAX_NODES`] nodes, least first.
fn sorted_trees(al: &Arc<Alphabet>) -> Vec<BinaryTree> {
    let trees = all_trees(al, MAX_NODES);
    let mut order: Vec<usize> = (0..trees.len()).collect();
    order.sort_by(|&a, &b| cmp(&trees, a, b));
    order
        .into_iter()
        .map(|i| BinaryTree::parse(&text(&trees, al, i), al).unwrap())
        .collect()
}

/// A random NTA over `al` with 2 to `max_states` states. Leaves reach
/// only the first two states and finals are among the last two, so least
/// trees of several nodes and empty languages are both common.
fn rand_nta(rng: &mut SmallRng, max_states: u32, al: &Arc<Alphabet>) -> Nta {
    let leaves = al.leaves();
    let bins = al.binaries();
    let n = 2 + rng.below(max_states as u64 - 1) as u32;
    let state = |rng: &mut SmallRng| State(rng.below(n as u64) as u32);
    let mut a = Nta::new(al, n);
    for _ in 0..1 + rng.below(2) {
        let q = State(rng.below(2) as u32);
        a.add_leaf(*rng.choose(&leaves), q);
    }
    for _ in 0..3 + rng.below(10) {
        let (q1, q2, q) = (state(rng), state(rng), state(rng));
        a.add_node(*rng.choose(&bins), q1, q2, q);
    }
    for _ in 0..1 + rng.below(2) {
        let q = State(n - 1 - rng.below(2) as u32);
        a.add_final(q);
    }
    a
}

/// Checks `got` against the first tree of `sorted` that `wanted` accepts.
fn check_least(
    ctx: &str,
    sorted: &[BinaryTree],
    got: Option<BinaryTree>,
    wanted: impl Fn(&BinaryTree) -> bool,
) -> Option<usize> {
    match sorted.iter().find(|t| wanted(t)) {
        Some(first) => {
            assert_eq!(got.as_ref(), Some(first), "{ctx}");
            Some(first.len())
        }
        None => {
            if let Some(w) = &got {
                assert!(w.len() > MAX_NODES, "{ctx}: {w} was not enumerated");
                assert!(wanted(w), "{ctx}: {w} is not in the language");
            }
            None
        }
    }
}

/// An automaton accepting exactly the given trees: one state per node.
fn finite(al: &Arc<Alphabet>, trees: &[&str]) -> Nta {
    let mut a = Nta::new(al, 0);
    for src in trees {
        let t = BinaryTree::parse(src, al).unwrap();
        let mut state = vec![State(0); t.len()];
        // Arena ids are bottom-up: children come before their parent.
        for i in 0..t.len() {
            let n = xmltc_trees::NodeId(i as u32);
            let q = a.add_state();
            match t.children(n) {
                None => a.add_leaf(t.symbol(n), q),
                Some((l, r)) => a.add_node(t.symbol(n), state[l.index()], state[r.index()], q),
            }
            state[i] = q;
        }
        a.add_final(state[t.root().index()]);
    }
    a
}

#[test]
fn witness_follows_the_documented_order() {
    let al = Alphabet::ranked(&["x", "y"], &["f", "g"]);
    let least = |trees: &[&str]| finite(&al, trees).witness().unwrap().to_string();
    // Fewer nodes first, whatever the symbols and even at a greater
    // height.
    assert_eq!(least(&["g(x, x)", "y"]), "y");
    assert_eq!(
        least(&[
            "g(g(x, g(x, x)), g(g(x, x), g(x, x)))",
            "f(x, f(x, f(x, f(x, x))))"
        ]),
        "f(x, f(x, f(x, f(x, x))))"
    );
    // Then lower height: a balanced g-tree before a comb of f's.
    assert_eq!(
        least(&["f(x, f(x, f(x, x)))", "g(g(x, x), g(x, x))"]),
        "g(g(x, x), g(x, x))"
    );
    // Then the root symbol, then the left subtree.
    assert_eq!(least(&["g(x, x)", "f(y, y)"]), "f(y, y)");
    assert_eq!(least(&["f(y, x)", "f(x, y)"]), "f(x, y)");
    // Subtrees compare by the same order, not by their pre-order symbols:
    // g(x, x) has fewer nodes than f(x, f(x, x)), so it wins on the left
    // although `g` comes after `f`.
    assert_eq!(
        least(&["f(f(x, f(x, x)), f(x, x))", "f(g(x, x), f(x, f(x, x)))"]),
        "f(g(x, x), f(x, f(x, x)))"
    );
    let sorted = sorted_trees(&al);
    assert_eq!(sorted.len(), 2 + 8 + 64 + 640);
    let texts: Vec<String> = sorted.iter().map(|t| t.to_string()).collect();
    assert_eq!(texts[..4], ["x", "y", "f(x, x)", "f(x, y)"]);
}

/// Two states whose least trees are equal (the leaf x) must rank equally,
/// or a rule over the later one would lose to a rule over the earlier one
/// whatever its other subtree.
#[test]
fn equal_subtrees_compare_by_their_siblings() {
    let al = Alphabet::ranked(&["x", "y"], &["f", "g"]);
    let [x, f, g] = ["x", "f", "g"].map(|s| al.get(s).unwrap());
    let q = State;
    for last in [4, 5] {
        let mut a = Nta::new(&al, 6);
        a.add_leaf(x, q(0));
        a.add_leaf(x, q(1));
        a.add_node(f, q(0), q(0), q(2));
        a.add_node(g, q(0), q(0), q(3));
        // Each of states 4 and 5 pairs f(x, x) with one copy of x and
        // g(x, x) with the other.
        a.add_node(f, q(0), q(2), q(4));
        a.add_node(f, q(1), q(3), q(4));
        a.add_node(f, q(1), q(2), q(5));
        a.add_node(f, q(0), q(3), q(5));
        a.add_final(q(last));
        assert_eq!(a.witness().unwrap().to_string(), "f(x, f(x, x))");
    }
}

#[test]
fn nta_witness_is_the_least_accepted_tree() {
    let al = Alphabet::ranked(&["x", "y"], &["f", "g"]);
    let sorted = sorted_trees(&al);
    let mut rng = SmallRng::seed_from_u64(0x1ea5);
    let (mut empty, mut big) = (0, 0);
    for case in 0..CASES {
        let a = rand_nta(&mut rng, 5, &al);
        let ctx = format!("case {case}");
        let found = check_least(&ctx, &sorted, a.witness(), |t| a.accepts(t).unwrap());
        assert_eq!(a.is_empty(), a.witness().is_none(), "{ctx}");
        empty += a.is_empty() as usize;
        big += found.is_some_and(|n| n >= 5) as usize;
    }
    // 149 and 19 of the 300 at this seed.
    assert!(empty >= 10, "only {empty} empty languages drawn");
    assert!(big >= 10, "only {big} least trees of 5 or more nodes drawn");
}

#[test]
fn lazy_witnesses_are_the_least_product_trees() {
    let al = Alphabet::ranked(&["x", "y"], &["f", "g"]);
    let sorted = sorted_trees(&al);
    let mut rng = SmallRng::seed_from_u64(0x1ea6);
    let (mut empty_int, mut empty_diff, mut big) = (0, 0, 0);
    for case in 0..CASES {
        let a = rand_nta(&mut rng, 4, &al);
        let b = rand_nta(&mut rng, 3, &al);
        let ctx = format!("case {case} ∩");
        let lazy = intersection_witness(&a, &b, u32::MAX).unwrap().0;
        let both = |t: &BinaryTree| a.accepts(t).unwrap() && b.accepts(t).unwrap();
        let found = check_least(&ctx, &sorted, lazy.into_witness(), both);
        check_least(&ctx, &sorted, a.intersect(&b).witness(), both);
        empty_int += a.intersect(&b).is_empty() as usize;
        big += found.is_some_and(|n| n >= 5) as usize;

        let ctx = format!("case {case} ∖");
        let lazy = difference_witness(&a, &b, u32::MAX).unwrap().0;
        let only_a = |t: &BinaryTree| a.accepts(t).unwrap() && !b.accepts(t).unwrap();
        let found = check_least(&ctx, &sorted, lazy.into_witness(), only_a);
        let eager = a.inclusion_counterexample(&b);
        empty_diff += eager.is_none() as usize;
        check_least(&ctx, &sorted, eager, only_a);
        big += found.is_some_and(|n| n >= 5) as usize;
    }
    // 229, 135 and 34 at this seed.
    assert!(
        empty_int >= 10 && empty_diff >= 10,
        "too few empty products"
    );
    assert!(big >= 10, "only {big} least trees of 5 or more nodes drawn");
}
