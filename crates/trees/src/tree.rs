//! Ranked (complete binary) trees, arena-allocated with parent links.
//!
//! Section 2.1 of the paper restricts ranked trees to *complete binary*
//! trees: every node labeled from `Σ₀` is a leaf, every node labeled from
//! `Σ₂` has exactly two children. Pebble transducers and automata walk up
//! and down these trees, so nodes carry parent links and child-side tags and
//! are addressed by compact [`NodeId`]s suitable for configuration tuples.

use crate::error::TreeError;
use crate::raw::RawTree;
use crate::symbol::{Alphabet, Rank, Symbol};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Index of a node within its tree's arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Which child of its parent a node is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChildSide {
    /// First (left) child.
    Left,
    /// Second (right) child.
    Right,
}

#[derive(Clone, Debug)]
struct Node {
    symbol: Symbol,
    parent: Option<(NodeId, ChildSide)>,
    children: Option<(NodeId, NodeId)>,
}

/// A complete binary tree over a ranked alphabet.
///
/// Construct with [`BinaryTree::from_raw`], [`BinaryTree::parse`],
/// [`BinaryTreeBuilder::leaf`]/[`BinaryTreeBuilder::node`] style building via
/// [`BinaryTreeBuilder`], or the generators in [`crate::generate`].
///
/// Equality and hashing are *structural* (same shape and labels), not
/// arena-layout dependent.
#[derive(Clone)]
pub struct BinaryTree {
    alphabet: Arc<Alphabet>,
    nodes: Vec<Node>,
    root: NodeId,
}

impl BinaryTree {
    /// Parses a tree from term syntax, e.g. `"f(a, g(b, c))"`.
    pub fn parse(input: &str, alphabet: &Arc<Alphabet>) -> Result<Self, TreeError> {
        let raw = RawTree::parse(input)?;
        Self::from_raw(&raw, alphabet)
    }

    /// Builds a tree from a [`RawTree`], validating symbol names and ranks.
    pub fn from_raw(raw: &RawTree, alphabet: &Arc<Alphabet>) -> Result<Self, TreeError> {
        let mut builder = BinaryTreeBuilder::new(alphabet);
        let root = Self::build_raw(raw, alphabet, &mut builder)?;
        Ok(builder.finish(root))
    }

    fn build_raw(
        raw: &RawTree,
        alphabet: &Arc<Alphabet>,
        builder: &mut BinaryTreeBuilder,
    ) -> Result<NodeId, TreeError> {
        let sym = alphabet.require(&raw.name)?;
        alphabet.check_arity(sym, raw.children.len())?;
        match raw.children.len() {
            0 => builder.leaf(sym),
            2 => {
                let l = Self::build_raw(&raw.children[0], alphabet, builder)?;
                let r = Self::build_raw(&raw.children[1], alphabet, builder)?;
                builder.node(sym, l, r)
            }
            n => Err(TreeError::RankMismatch {
                symbol: raw.name.clone(),
                expected: if n < 2 { 0 } else { 2 },
                got: n,
            }),
        }
    }

    /// Builds a single-leaf tree.
    pub fn singleton(symbol: Symbol, alphabet: &Arc<Alphabet>) -> Result<Self, TreeError> {
        let mut b = BinaryTreeBuilder::new(alphabet);
        let root = b.leaf(symbol)?;
        Ok(b.finish(root))
    }

    /// The alphabet this tree is labeled over.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the arena is empty (never true for a constructed tree).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label of a node.
    #[inline]
    pub fn symbol(&self, n: NodeId) -> Symbol {
        self.nodes[n.index()].symbol
    }

    /// The two children of a node, if it is internal.
    #[inline]
    pub fn children(&self, n: NodeId) -> Option<(NodeId, NodeId)> {
        self.nodes[n.index()].children
    }

    /// The parent of a node together with which side `n` hangs on, if any.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, ChildSide)> {
        self.nodes[n.index()].parent
    }

    /// True if `n` is a leaf.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.nodes[n.index()].children.is_none()
    }

    /// True if `n` is the root.
    #[inline]
    pub fn is_root(&self, n: NodeId) -> bool {
        n == self.root
    }

    /// Which side of its parent `n` is on (`None` for the root).
    #[inline]
    pub fn side(&self, n: NodeId) -> Option<ChildSide> {
        self.nodes[n.index()].parent.map(|(_, s)| s)
    }

    /// Depth of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        // Arena ids are created bottom-up by the builder, so children always
        // precede parents; a single forward pass computes heights.
        for (i, node) in self.nodes.iter().enumerate() {
            let h = match node.children {
                None => 1,
                Some((l, r)) => 1 + depth[l.index()].max(depth[r.index()]),
            };
            depth[i] = h;
            max = max.max(h);
        }
        max
    }

    /// Pre-order traversal (node before children, left before right).
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder {
            tree: self,
            stack: vec![self.root],
        }
    }

    /// Nodes of the subtree rooted at `n`, in pre-order.
    pub fn subtree_nodes(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            out.push(x);
            if let Some((l, r)) = self.children(x) {
                stack.push(r);
                stack.push(l);
            }
        }
        out
    }

    /// Converts back to a [`RawTree`] (for printing and cross-checking).
    pub fn to_raw(&self) -> RawTree {
        self.raw_at(self.root)
    }

    fn raw_at(&self, n: NodeId) -> RawTree {
        let name = self.alphabet.name(self.symbol(n)).to_string();
        match self.children(n) {
            None => RawTree::leaf(name),
            Some((l, r)) => RawTree::node(name, vec![self.raw_at(l), self.raw_at(r)]),
        }
    }

    /// Builds a new tree `symbol(left, right)` from two existing trees
    /// (copying both).
    pub fn graft(
        symbol: Symbol,
        left: &BinaryTree,
        right: &BinaryTree,
    ) -> Result<BinaryTree, TreeError> {
        if !Alphabet::same(&left.alphabet, &right.alphabet) {
            return Err(TreeError::AlphabetMismatch);
        }
        let mut b = BinaryTreeBuilder::new(&left.alphabet);
        let l = copy_subtree(left, left.root, &mut b)?;
        let r = copy_subtree(right, right.root, &mut b)?;
        let root = b.node(symbol, l, r)?;
        Ok(b.finish(root))
    }

    /// Structural equality of two subtrees within (possibly different)
    /// trees over the same alphabet.
    pub fn subtree_eq(&self, a: NodeId, other: &BinaryTree, b: NodeId) -> bool {
        let mut stack = vec![(a, b)];
        while let Some((x, y)) = stack.pop() {
            if self.symbol(x) != other.symbol(y) {
                return false;
            }
            match (self.children(x), other.children(y)) {
                (None, None) => {}
                (Some((xl, xr)), Some((yl, yr))) => {
                    stack.push((xl, yl));
                    stack.push((xr, yr));
                }
                _ => return false,
            }
        }
        true
    }
}

impl PartialEq for BinaryTree {
    fn eq(&self, other: &Self) -> bool {
        Alphabet::same(&self.alphabet, &other.alphabet)
            && self.subtree_eq(self.root, other, other.root)
    }
}

impl Eq for BinaryTree {}

impl Hash for BinaryTree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the pre-order symbol sequence with arity markers; structural.
        for n in self.preorder() {
            self.symbol(n).hash(state);
            self.is_leaf(n).hash(state);
        }
    }
}

impl fmt::Display for BinaryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_raw())
    }
}

impl fmt::Debug for BinaryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BinaryTree({})", self.to_raw())
    }
}

/// Copies the subtree of `src` rooted at `node` into `builder`, returning
/// the id of the copy's root.
pub fn copy_subtree(
    src: &BinaryTree,
    node: NodeId,
    builder: &mut BinaryTreeBuilder,
) -> Result<NodeId, TreeError> {
    match src.children(node) {
        None => builder.leaf(src.symbol(node)),
        Some((l, r)) => {
            let lc = copy_subtree(src, l, builder)?;
            let rc = copy_subtree(src, r, builder)?;
            builder.node(src.symbol(node), lc, rc)
        }
    }
}

/// Pre-order iterator over a [`BinaryTree`].
pub struct Preorder<'a> {
    tree: &'a BinaryTree,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.stack.pop()?;
        if let Some((l, r)) = self.tree.children(n) {
            self.stack.push(r);
            self.stack.push(l);
        }
        Some(n)
    }
}

/// Bottom-up builder for [`BinaryTree`].
///
/// Children must be created before their parent; each node may be used as a
/// child at most once; exactly one node (the one passed to
/// [`finish`](Self::finish)) must remain parentless.
pub struct BinaryTreeBuilder {
    alphabet: Arc<Alphabet>,
    nodes: Vec<Node>,
}

impl BinaryTreeBuilder {
    /// Creates a builder over the given alphabet.
    pub fn new(alphabet: &Arc<Alphabet>) -> Self {
        Self::with_capacity(alphabet, 0)
    }

    /// Creates a builder with room for `nodes` nodes.
    pub fn with_capacity(alphabet: &Arc<Alphabet>, nodes: usize) -> Self {
        Self {
            alphabet: Arc::clone(alphabet),
            nodes: Vec::with_capacity(nodes),
        }
    }

    /// Creates a leaf node. Errors if `symbol` is not a leaf symbol.
    pub fn leaf(&mut self, symbol: Symbol) -> Result<NodeId, TreeError> {
        match self.alphabet.rank(symbol) {
            Rank::Leaf => {}
            other => {
                return Err(TreeError::RankMismatch {
                    symbol: self.alphabet.name(symbol).to_string(),
                    expected: other.arity().unwrap_or(0),
                    got: 0,
                })
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            symbol,
            parent: None,
            children: None,
        });
        Ok(id)
    }

    /// Creates an internal node over two previously created children.
    /// Errors if `symbol` is not binary or a child already has a parent.
    pub fn node(
        &mut self,
        symbol: Symbol,
        left: NodeId,
        right: NodeId,
    ) -> Result<NodeId, TreeError> {
        match self.alphabet.rank(symbol) {
            Rank::Binary => {}
            other => {
                return Err(TreeError::RankMismatch {
                    symbol: self.alphabet.name(symbol).to_string(),
                    expected: other.arity().unwrap_or(2),
                    got: 2,
                })
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        for (child, side) in [(left, ChildSide::Left), (right, ChildSide::Right)] {
            let slot = &mut self.nodes[child.index()].parent;
            assert!(slot.is_none(), "node reused as child");
            *slot = Some((id, side));
        }
        self.nodes.push(Node {
            symbol,
            parent: None,
            children: Some((left, right)),
        });
        Ok(id)
    }

    /// Finalizes the tree with `root` as its root.
    pub fn finish(self, root: NodeId) -> BinaryTree {
        assert!(
            self.nodes[root.index()].parent.is_none(),
            "root must be parentless"
        );
        BinaryTree {
            alphabet: self.alphabet,
            nodes: self.nodes,
            root,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["a", "b", "c"], &["f", "g"])
    }

    #[test]
    fn parse_and_navigate() {
        let al = alpha();
        let t = BinaryTree::parse("f(a, g(b, c))", &al).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.depth(), 3);
        let root = t.root();
        assert_eq!(al.name(t.symbol(root)), "f");
        let (l, r) = t.children(root).unwrap();
        assert_eq!(al.name(t.symbol(l)), "a");
        assert!(t.is_leaf(l));
        assert_eq!(al.name(t.symbol(r)), "g");
        assert_eq!(t.parent(r), Some((root, ChildSide::Right)));
        assert_eq!(t.side(l), Some(ChildSide::Left));
        assert_eq!(t.side(root), None);
        assert!(t.is_root(root));
    }

    #[test]
    fn preorder_order() {
        let al = alpha();
        let t = BinaryTree::parse("f(g(a, b), c)", &al).unwrap();
        let names: Vec<&str> = t.preorder().map(|n| al.name(t.symbol(n))).collect();
        assert_eq!(names, vec!["f", "g", "a", "b", "c"]);
    }

    #[test]
    fn structural_equality() {
        let al = alpha();
        let t1 = BinaryTree::parse("f(a, b)", &al).unwrap();
        let t2 = BinaryTree::parse("f(a, b)", &al).unwrap();
        let t3 = BinaryTree::parse("f(b, a)", &al).unwrap();
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        use std::collections::hash_map::DefaultHasher;
        let h = |t: &BinaryTree| {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&t1), h(&t2));
    }

    #[test]
    fn display_round_trip() {
        let al = alpha();
        let src = "f(a, g(b, c))";
        let t = BinaryTree::parse(src, &al).unwrap();
        let t2 = BinaryTree::parse(&t.to_string(), &al).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let al = alpha();
        assert!(BinaryTree::parse("a(b, c)", &al).is_err());
        assert!(BinaryTree::parse("f(a)", &al).is_err());
        assert!(BinaryTree::parse("f", &al).is_err());
        assert!(BinaryTree::parse("zz", &al).is_err());
    }

    #[test]
    fn subtree_nodes_and_eq() {
        let al = alpha();
        let t = BinaryTree::parse("f(g(a, b), g(a, b))", &al).unwrap();
        let (l, r) = t.children(t.root()).unwrap();
        assert!(t.subtree_eq(l, &t, r));
        assert!(!t.subtree_eq(l, &t, t.root()));
        assert_eq!(t.subtree_nodes(l).len(), 3);
    }

    #[test]
    fn builder_manual() {
        let al = alpha();
        let mut b = BinaryTreeBuilder::new(&al);
        let a = b.leaf(al.get("a").unwrap()).unwrap();
        let c = b.leaf(al.get("c").unwrap()).unwrap();
        let f = b.node(al.get("f").unwrap(), a, c).unwrap();
        let t = b.finish(f);
        assert_eq!(t.to_string(), "f(a, c)");
    }

    #[test]
    fn builder_rank_enforced() {
        let al = alpha();
        let mut b = BinaryTreeBuilder::new(&al);
        assert!(b.leaf(al.get("f").unwrap()).is_err());
        let a = b.leaf(al.get("a").unwrap()).unwrap();
        let c = b.leaf(al.get("c").unwrap()).unwrap();
        assert!(b.node(al.get("a").unwrap(), a, c).is_err());
    }
}
