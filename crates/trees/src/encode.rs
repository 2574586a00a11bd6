//! The binary encoding of unranked trees (Section 2.1, Figure 1).
//!
//! Unranked trees over `Σ` are encoded into complete binary trees over
//! `Σ' = Σ ∪ {-, #}` where `-` (the paper's `−`) is a binary list-cons
//! symbol and `#` (the paper's `|`) is the nil leaf:
//!
//! ```text
//! encode(a(t₁ … tₙ)) = a(encodeF(t₁ … tₙ), #)
//! encodeF([])        = #
//! encodeF(t · F)     = -(encode(t), encodeF(F))
//! ```
//!
//! Note on fidelity: the paper's displayed equations make a singleton forest
//! encode without a final cons cell, but its own worked example
//! (`encode(a(b,b,c(d),e)) = a(−(b, −(b, −(c(−(d,|),|), −(e,|)))), |)`)
//! uses a uniform nil-terminated cons list — the two disagree. We follow the
//! worked example: the uniform encoding is a bijection with a trivially
//! checkable image and the same one-to-one, label-preserving node mapping,
//! and the paper's regular-path-expression translation (`a.c ↦ a.(−)*.c`)
//! is sound for it.

use crate::error::TreeError;
use crate::raw::RawTree;
use crate::symbol::{Alphabet, AlphabetBuilder, Rank, Symbol};
use crate::tree::{BinaryTree, BinaryTreeBuilder, NodeId as BNodeId};
use crate::unranked::{NodeId as UNodeId, UnrankedTree};
use std::sync::Arc;

/// The ranked alphabet `Σ ∪ {-, #}` derived from an unranked alphabet `Σ`,
/// with every original symbol re-ranked as binary.
///
/// Original symbols keep their ids: `Symbol(i)` names the same tag in the
/// source and encoded alphabets for `i < source.len()`.
#[derive(Clone, Debug)]
pub struct EncodedAlphabet {
    source: Arc<Alphabet>,
    encoded: Arc<Alphabet>,
    cons: Symbol,
    nil: Symbol,
}

impl EncodedAlphabet {
    /// Derives the encoded alphabet from an unranked source alphabet.
    pub fn new(source: &Arc<Alphabet>) -> Self {
        let mut b = AlphabetBuilder::new();
        for s in source.symbols() {
            b.add(source.name(s), Rank::Binary);
        }
        let cons = b.add("-", Rank::Binary);
        let nil = b.add("#", Rank::Leaf);
        EncodedAlphabet {
            source: Arc::clone(source),
            encoded: b.finish(),
            cons,
            nil,
        }
    }

    /// The source (unranked) alphabet `Σ`.
    pub fn source(&self) -> &Arc<Alphabet> {
        &self.source
    }

    /// The encoded (ranked) alphabet `Σ ∪ {-, #}`.
    pub fn encoded(&self) -> &Arc<Alphabet> {
        &self.encoded
    }

    /// The list-cons symbol `-`.
    pub fn cons(&self) -> Symbol {
        self.cons
    }

    /// The nil leaf symbol `#`.
    pub fn nil(&self) -> Symbol {
        self.nil
    }

    /// True if `s` (a symbol of the *encoded* alphabet) is an original tag.
    pub fn is_original(&self, s: Symbol) -> bool {
        s.index() < self.source.len()
    }
}

/// Encodes an unranked tree into its complete binary representation.
///
/// The tree must be over `enc.source()`.
///
/// Runs on an explicit stack, so neither the number of siblings nor the
/// depth of the tree costs call-stack frames. The nodes are created in the
/// order the recursive equations create them: an element's children in
/// order, then the nil leaf, then the cons cells from the last child back,
/// then the element's own nil leaf and node.
///
/// A tree of `n` elements encodes to exactly `4n − 1` nodes: each element,
/// its right nil leaf and its forest's nil leaf, plus one cons cell per
/// element but the root.
pub fn encode(t: &UnrankedTree, enc: &EncodedAlphabet) -> Result<BinaryTree, TreeError> {
    if !Alphabet::same(t.alphabet(), enc.source()) {
        return Err(TreeError::AlphabetMismatch);
    }
    let mut builder = BinaryTreeBuilder::with_capacity(enc.encoded(), 4 * t.len() - 1);
    // The open elements, each with how many of its children are encoded;
    // the encodings of those children wait on `heads`.
    let mut open: Vec<(UNodeId, usize)> = vec![(t.root(), 0)];
    let mut heads: Vec<BNodeId> = Vec::new();
    while let Some(&mut (n, ref mut done)) = open.last_mut() {
        let kids = t.children(n);
        if let Some(&kid) = kids.get(*done) {
            *done += 1;
            open.push((kid, 0));
            continue;
        }
        open.pop();
        let mut forest = builder.leaf(enc.nil())?;
        for head in heads.drain(heads.len() - kids.len()..).rev() {
            forest = builder.node(enc.cons(), head, forest)?;
        }
        let nil = builder.leaf(enc.nil())?;
        // Symbol ids are shared between source and encoded alphabets.
        heads.push(builder.node(t.symbol(n), forest, nil)?);
    }
    Ok(builder.finish(heads[0]))
}

/// Decodes a binary tree back into the unranked tree it encodes.
///
/// Errors with [`TreeError::MalformedEncoding`] when the input is not in the
/// image of [`encode`].
pub fn decode(t: &BinaryTree, enc: &EncodedAlphabet) -> Result<UnrankedTree, TreeError> {
    UnrankedTree::from_raw(&decode_raw(t, enc)?, enc.source())
}

/// Decodes a binary tree into the [`RawTree`] of the unranked tree it
/// encodes: [`decode`] without building the interned tree, for callers that
/// only print the result.
///
/// Errors as [`decode`] does.
pub fn decode_raw(t: &BinaryTree, enc: &EncodedAlphabet) -> Result<RawTree, TreeError> {
    if !Alphabet::same(t.alphabet(), enc.encoded()) {
        return Err(TreeError::AlphabetMismatch);
    }
    decode_tree(t, t.root(), enc)
}

fn decode_tree(t: &BinaryTree, n: BNodeId, enc: &EncodedAlphabet) -> Result<RawTree, TreeError> {
    let sym = t.symbol(n);
    if !enc.is_original(sym) {
        return Err(TreeError::MalformedEncoding(format!(
            "expected an element symbol, found `{}`",
            t.alphabet().name(sym)
        )));
    }
    let (forest, nil) = t
        .children(n)
        .ok_or_else(|| TreeError::MalformedEncoding("element node must be internal".into()))?;
    if t.symbol(nil) != enc.nil() {
        return Err(TreeError::MalformedEncoding(
            "element's right child must be `#`".into(),
        ));
    }
    let mut children = Vec::with_capacity(forest_len(t, forest, enc));
    decode_forest(t, forest, enc, &mut children)?;
    Ok(RawTree {
        name: enc.source().name(sym).to_string(),
        children,
    })
}

/// The number of cons cells on the spine from `n`: the length of the
/// forest it encodes, when well formed.
fn forest_len(t: &BinaryTree, mut n: BNodeId, enc: &EncodedAlphabet) -> usize {
    let mut len = 0;
    while t.symbol(n) == enc.cons() {
        len += 1;
        n = t.children(n).expect("`-` is binary").1;
    }
    len
}

fn decode_forest(
    t: &BinaryTree,
    mut n: BNodeId,
    enc: &EncodedAlphabet,
    out: &mut Vec<RawTree>,
) -> Result<(), TreeError> {
    loop {
        let sym = t.symbol(n);
        if sym == enc.nil() {
            return Ok(());
        }
        if sym != enc.cons() {
            return Err(TreeError::MalformedEncoding(format!(
                "expected `-` or `#` in forest position, found `{}`",
                t.alphabet().name(sym)
            )));
        }
        let (head, tail) = t
            .children(n)
            .expect("`-` is binary by construction of the encoded alphabet");
        out.push(decode_tree(t, head, enc)?);
        n = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<Alphabet>, EncodedAlphabet) {
        let src = Alphabet::unranked(&["a", "b", "c", "d", "e"]);
        let enc = EncodedAlphabet::new(&src);
        (src, enc)
    }

    #[test]
    fn figure_one_example() {
        // Figure 1: encode(a(b,b,c(d),e)).
        let (src, enc) = setup();
        let t = UnrankedTree::parse("a(b, b, c(d), e)", &src).unwrap();
        let bt = encode(&t, &enc).unwrap();
        // Uniform nil-terminated cons encoding, matching the paper's
        // worked example with explicit leaf children spelled out.
        let expected = "a(-(b(#, #), -(b(#, #), -(c(-(d(#, #), #), #), -(e(#, #), #)))), #)";
        assert_eq!(bt.to_string(), expected);
    }

    #[test]
    fn encoded_alphabet_ranks() {
        let (src, enc) = setup();
        let e = enc.encoded();
        assert_eq!(e.len(), src.len() + 2);
        assert_eq!(e.rank(enc.cons()), Rank::Binary);
        assert_eq!(e.rank(enc.nil()), Rank::Leaf);
        for s in src.symbols() {
            assert_eq!(e.rank(s), Rank::Binary);
            assert_eq!(e.name(s), src.name(s));
        }
        assert!(enc.is_original(Symbol(0)));
        assert!(!enc.is_original(enc.cons()));
    }

    /// The equations, applied recursively: the node order `encode` keeps.
    fn encode_by_equations(
        t: &UnrankedTree,
        n: UNodeId,
        enc: &EncodedAlphabet,
        b: &mut BinaryTreeBuilder,
    ) -> BNodeId {
        let heads: Vec<_> = t
            .children(n)
            .iter()
            .map(|&c| encode_by_equations(t, c, enc, b))
            .collect();
        let nil = b.leaf(enc.nil()).unwrap();
        let forest = heads
            .into_iter()
            .rev()
            .fold(nil, |tail, h| b.node(enc.cons(), h, tail).unwrap());
        let nil = b.leaf(enc.nil()).unwrap();
        b.node(t.symbol(n), forest, nil).unwrap()
    }

    #[test]
    fn nodes_are_created_in_equation_order() {
        let (src, enc) = setup();
        let mut rng = crate::SmallRng::seed_from_u64(0xe7c0);
        for case in 0..200 {
            let t = crate::generate::random_unranked(&src, 5, 4, &mut rng).unwrap();
            let mut b = BinaryTreeBuilder::new(enc.encoded());
            let root = encode_by_equations(&t, t.root(), &enc, &mut b);
            let expected = b.finish(root);
            let got = encode(&t, &enc).unwrap();
            assert_eq!(got.root(), expected.root(), "case {case}");
            for (x, y) in got.preorder().zip(expected.preorder()) {
                assert_eq!(
                    (x, got.children(x)),
                    (y, expected.children(y)),
                    "case {case}"
                );
            }
            assert_eq!(got, expected, "case {case}");
        }
    }

    /// 100 000 siblings on a test thread's 2 MiB stack: one frame per
    /// sibling would not fit.
    #[test]
    fn siblings_encode_without_recursion() {
        let (src, enc) = setup();
        let n = 100_000;
        let wide = UnrankedTree::parse(&format!("a({})", vec!["b"; n].join(", ")), &src).unwrap();
        let bt = encode(&wide, &enc).unwrap();
        assert_eq!(bt.len(), 4 * n + 3);
        assert_eq!(decode(&bt, &enc).unwrap(), wide);
    }

    #[test]
    fn round_trip_small() {
        let (src, enc) = setup();
        for s in ["a", "a(b)", "a(b, c)", "a(b(c, d), e)", "a(a(a(a)))"] {
            let t = UnrankedTree::parse(s, &src).unwrap();
            let bt = encode(&t, &enc).unwrap();
            let back = decode(&bt, &enc).unwrap();
            assert_eq!(t, back, "round trip failed for {s}");
        }
    }

    #[test]
    fn node_count_preserved_in_elements() {
        // The encoding maps nodes one-to-one: every element node of the
        // unranked tree appears exactly once in the binary tree.
        let (src, enc) = setup();
        let t = UnrankedTree::parse("a(b, b, c(d), e)", &src).unwrap();
        let bt = encode(&t, &enc).unwrap();
        let element_count = bt
            .preorder()
            .filter(|&n| enc.is_original(bt.symbol(n)))
            .count();
        assert_eq!(element_count, t.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        let (_, enc) = setup();
        let e = enc.encoded();
        // `-` at the root is not a valid element.
        let bad = BinaryTree::parse("-(a(#, #), #)", e).unwrap();
        assert!(decode(&bad, &enc).is_err());
        // element whose right child is not `#`.
        let bad2 = BinaryTree::parse("a(#, a(#, #))", e).unwrap();
        assert!(decode(&bad2, &enc).is_err());
        // element symbol in forest tail position.
        let bad3 = BinaryTree::parse("a(-(b(#, #), b(#, #)), #)", e).unwrap();
        assert!(decode(&bad3, &enc).is_err());
    }

    #[test]
    fn alphabet_mismatch_detected() {
        let (src, enc) = setup();
        let other = Alphabet::unranked(&["a", "b", "c", "d", "e"]);
        let t = UnrankedTree::parse("a(b)", &other).unwrap();
        assert!(matches!(encode(&t, &enc), Err(TreeError::AlphabetMismatch)));
        let _ = src;
    }
}
