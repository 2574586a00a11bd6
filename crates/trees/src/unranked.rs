//! Unranked ordered trees — the paper's model of XML documents.
//!
//! Section 2.1: unranked trees over `Σ` have node labels from `Σ` and no
//! bound on the number of children; children are ordered. A *forest* is a
//! list of trees. XML documents are identified with unranked trees
//! (Section 2.2).

use crate::error::TreeError;
use crate::raw::RawTree;
use crate::symbol::{Alphabet, Symbol};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

pub use crate::tree::NodeId;

/// An ordered unranked tree over an (unranked) alphabet.
///
/// Nodes live in flat arrays in document order: **node ids are pre-order
/// ids**, so the root is node 0, a node's id is smaller than its
/// descendants' ids, and iterating ids in order ([`UnrankedTree::nodes`])
/// is a pre-order traversal. Each node's children are one `(start, len)`
/// range of a single shared array, so a tree is a handful of arrays
/// whatever its size.
///
/// Equality and hashing are structural.
#[derive(Clone)]
pub struct UnrankedTree {
    alphabet: Arc<Alphabet>,
    symbols: Vec<Symbol>,
    /// Each node's parent; the root's entry is the root itself.
    parents: Vec<NodeId>,
    /// Each node's children, as a `(start, len)` range of `kids`.
    ranges: Vec<(u32, u32)>,
    kids: Vec<NodeId>,
}

impl UnrankedTree {
    /// Parses from term syntax, e.g. `"a(b, b, c(d), e)"` (the tree of
    /// Figure 1 in the paper).
    pub fn parse(input: &str, alphabet: &Arc<Alphabet>) -> Result<Self, TreeError> {
        let raw = RawTree::parse(input)?;
        Self::from_raw(&raw, alphabet)
    }

    /// Builds from a [`RawTree`], validating symbol names and arities.
    ///
    /// Walks the raw tree on an explicit stack, so depth costs no call-stack
    /// frames.
    pub fn from_raw(raw: &RawTree, alphabet: &Arc<Alphabet>) -> Result<Self, TreeError> {
        let mut builder = UnrankedTreeBuilder::new(alphabet);
        // The children still to visit at each open level; the bottom level
        // holds the root alone.
        let mut levels = vec![std::slice::from_ref(raw).iter()];
        while let Some(level) = levels.last_mut() {
            if let Some(node) = level.next() {
                builder.open(alphabet.require(&node.name)?);
                levels.push(node.children.iter());
            } else {
                levels.pop();
                if !levels.is_empty() {
                    builder.close()?;
                }
            }
        }
        Ok(builder.finish())
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// The root node (always node 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True if the arena is empty (never for a constructed tree).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The label of a node.
    #[inline]
    pub fn symbol(&self, n: NodeId) -> Symbol {
        self.symbols[n.index()]
    }

    /// The ordered children of a node.
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let (start, len) = self.ranges[n.index()];
        &self.kids[start as usize..(start + len) as usize]
    }

    /// The parent of a node.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parents[n.index()];
        (p != n).then_some(p)
    }

    /// True if the node has no children.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.ranges[n.index()].1 == 0
    }

    /// All nodes in id order, which is pre-order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.symbols.len() as u32).map(NodeId)
    }

    /// Depth of the tree (a single node has depth 1).
    pub fn depth(&self) -> usize {
        // A parent's id is smaller than its children's.
        let mut depth = vec![0usize; self.len()];
        for n in self.nodes() {
            depth[n.index()] = self.parent(n).map_or(1, |p| depth[p.index()] + 1);
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Pre-order traversal of all nodes: the ids in order.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.nodes().collect()
    }

    /// The children symbol word of a node — the word checked against DTD
    /// content models.
    pub fn child_word(&self, n: NodeId) -> Vec<Symbol> {
        self.children(n).iter().map(|&c| self.symbol(c)).collect()
    }

    /// Converts back to [`RawTree`].
    pub fn to_raw(&self) -> RawTree {
        self.raw_at(self.root())
    }

    fn raw_at(&self, n: NodeId) -> RawTree {
        RawTree {
            name: self.alphabet.name(self.symbol(n)).to_string(),
            children: self.children(n).iter().map(|&c| self.raw_at(c)).collect(),
        }
    }

    /// Structural subtree equality.
    pub fn subtree_eq(&self, a: NodeId, other: &UnrankedTree, b: NodeId) -> bool {
        let mut stack = vec![(a, b)];
        while let Some((x, y)) = stack.pop() {
            let (xs, ys) = (self.children(x), other.children(y));
            if self.symbol(x) != other.symbol(y) || xs.len() != ys.len() {
                return false;
            }
            stack.extend(xs.iter().copied().zip(ys.iter().copied()));
        }
        true
    }
}

impl PartialEq for UnrankedTree {
    /// Pre-order labels and child counts determine a tree, and ids are
    /// pre-order, so two trees are equal when their arrays say the same.
    fn eq(&self, other: &Self) -> bool {
        Alphabet::same(&self.alphabet, &other.alphabet)
            && self.symbols == other.symbols
            && self
                .ranges
                .iter()
                .zip(&other.ranges)
                .all(|(x, y)| x.1 == y.1)
    }
}

impl Eq for UnrankedTree {}

impl Hash for UnrankedTree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for n in self.nodes() {
            self.symbol(n).hash(state);
            self.children(n).len().hash(state);
        }
    }
}

impl fmt::Display for UnrankedTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_raw())
    }
}

impl fmt::Debug for UnrankedTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UnrankedTree({})", self.to_raw())
    }
}

/// Builds an [`UnrankedTree`] in document order: [`open`](Self::open) an
/// element, build its children, [`close`](Self::close) it.
///
/// Node ids are handed out by `open`, so they are pre-order ids. A closed
/// element's children move from a stack of the open elements' children to
/// the tree's shared children array in one copy, so building allocates
/// only when an array doubles.
pub struct UnrankedTreeBuilder {
    tree: UnrankedTree,
    /// The open elements, each with where its children start on `pending`.
    open: Vec<(NodeId, usize)>,
    /// Every open element's children so far, innermost element's last.
    pending: Vec<NodeId>,
}

impl UnrankedTreeBuilder {
    /// Creates a builder over the given alphabet.
    pub fn new(alphabet: &Arc<Alphabet>) -> Self {
        UnrankedTreeBuilder {
            tree: UnrankedTree {
                alphabet: Arc::clone(alphabet),
                symbols: Vec::new(),
                parents: Vec::new(),
                ranges: Vec::new(),
                kids: Vec::new(),
            },
            open: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Opens an element: the root first, then each element as a child of
    /// the innermost open one. Panics on a second root.
    pub fn open(&mut self, symbol: Symbol) {
        let t = &mut self.tree;
        let id = NodeId(t.symbols.len() as u32);
        let parent = match self.open.last() {
            Some(&(p, _)) => {
                self.pending.push(id);
                p
            }
            None => {
                assert!(id.0 == 0, "a tree has one root");
                id
            }
        };
        t.symbols.push(symbol);
        t.parents.push(parent);
        t.ranges.push((0, 0));
        self.open.push((id, self.pending.len()));
    }

    /// Closes the innermost open element. Errors if its children do not
    /// fit its symbol's rank; panics if no element is open.
    pub fn close(&mut self) -> Result<(), TreeError> {
        let (id, start) = self.open.pop().expect("close without an open element");
        let t = &mut self.tree;
        let len = self.pending.len() - start;
        t.alphabet.check_arity(t.symbols[id.index()], len)?;
        t.ranges[id.index()] = (t.kids.len() as u32, len as u32);
        t.kids.extend_from_slice(&self.pending[start..]);
        self.pending.truncate(start);
        Ok(())
    }

    /// The finished tree. Panics unless the root was opened and every
    /// element closed.
    pub fn finish(self) -> UnrankedTree {
        assert!(
            self.open.is_empty() && !self.tree.is_empty(),
            "finish needs a root and every element closed"
        );
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::unranked(&["a", "b", "c", "d", "e"])
    }

    #[test]
    fn figure_one_tree() {
        // The unranked tree of Figure 1: a(b, b, c(d), e).
        let al = alpha();
        let t = UnrankedTree::parse("a(b, b, c(d), e)", &al).unwrap();
        assert_eq!(t.len(), 6);
        assert_eq!(t.depth(), 3);
        let kids = t.children(t.root());
        assert_eq!(kids.len(), 4);
        let names: Vec<&str> = kids.iter().map(|&c| al.name(t.symbol(c))).collect();
        assert_eq!(names, vec!["b", "b", "c", "e"]);
        assert_eq!(t.child_word(t.root()).len(), 4);
    }

    #[test]
    fn preorder_matches_document_order() {
        let al = alpha();
        let t = UnrankedTree::parse("a(b(c, d), e)", &al).unwrap();
        let names: Vec<&str> = t
            .preorder()
            .into_iter()
            .map(|n| al.name(t.symbol(n)))
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn equality_and_display() {
        let al = alpha();
        let t1 = UnrankedTree::parse("a(b, c)", &al).unwrap();
        let t2 = UnrankedTree::parse(" a ( b , c ) ", &al).unwrap();
        let t3 = UnrankedTree::parse("a(c, b)", &al).unwrap();
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_eq!(t1.to_string(), "a(b, c)");
    }

    #[test]
    fn unknown_symbol_rejected() {
        let al = alpha();
        assert!(UnrankedTree::parse("a(zz)", &al).is_err());
    }

    #[test]
    fn equality_compares_shape_not_only_labels() {
        let al = alpha();
        let nested = UnrankedTree::parse("a(b(c))", &al).unwrap();
        let flat = UnrankedTree::parse("a(b, c)", &al).unwrap();
        assert_ne!(nested, flat);
        assert!(!nested.subtree_eq(nested.root(), &flat, flat.root()));
        assert!(nested.subtree_eq(nested.root(), &nested.clone(), nested.root()));
    }

    /// Ids are pre-order: a pre-order traversal meets ids 0, 1, 2, … in
    /// turn, and parents agree with children.
    #[test]
    fn ids_are_preorder_ids() {
        let al = alpha();
        let mut rng = crate::SmallRng::seed_from_u64(0x9e0);
        for case in 0..200 {
            let t = crate::generate::random_unranked(&al, 5, 4, &mut rng).unwrap();
            let mut next = 0;
            let mut stack = vec![t.root()];
            while let Some(n) = stack.pop() {
                assert_eq!(n, NodeId(next), "case {case}");
                next += 1;
                for &c in t.children(n).iter().rev() {
                    assert_eq!(t.parent(c), Some(n), "case {case}");
                    stack.push(c);
                }
            }
            assert_eq!(next as usize, t.len(), "case {case}");
            assert_eq!(UnrankedTree::parse(&t.to_string(), &al).unwrap(), t);
        }
    }

    /// 100 000 levels on a test thread's 2 MiB stack: building, comparing,
    /// hashing, measuring and dropping keep no frame per level.
    #[test]
    fn deep_chain_needs_no_recursion() {
        let al = alpha();
        let depth = 100_000;
        let mut b = UnrankedTreeBuilder::new(&al);
        for i in 0..depth {
            b.open(Symbol(i % 2));
        }
        for _ in 0..depth {
            b.close().unwrap();
        }
        let t = b.finish();
        assert_eq!((t.len(), t.depth()), (depth as usize, depth as usize));
        assert_eq!(t.clone(), t);
        assert!(t.subtree_eq(t.root(), &t, t.root()));
        let mut h = crate::fx::FxHasher::default();
        t.hash(&mut h);
    }

    #[test]
    fn builder_checks_arity() {
        let al = Alphabet::ranked(&["x"], &["f"]);
        let mut b = UnrankedTreeBuilder::new(&al);
        b.open(al.get("f").unwrap());
        b.open(al.get("x").unwrap());
        b.close().unwrap();
        assert!(matches!(b.close(), Err(TreeError::RankMismatch { .. })));
    }

    #[test]
    fn parents_linked() {
        let al = alpha();
        let t = UnrankedTree::parse("a(b(c))", &al).unwrap();
        let b = t.children(t.root())[0];
        let c = t.children(b)[0];
        assert_eq!(t.parent(c), Some(b));
        assert_eq!(t.parent(b), Some(t.root()));
        assert_eq!(t.parent(t.root()), None);
        assert!(t.is_leaf(c));
        assert!(!t.is_leaf(b));
    }
}
