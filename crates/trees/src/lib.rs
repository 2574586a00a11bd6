//! # xmltc-trees
//!
//! Foundational tree data structures for the `xmltc` reproduction of
//! *Typechecking for XML Transformers* (Milo, Suciu, Vianu; PODS 2000).
//!
//! This crate implements Section 2.1 of the paper:
//!
//! * **Interned symbols and alphabets** ([`Symbol`], [`Alphabet`]) — the
//!   paper's finite alphabet `Σ`, optionally partitioned into leaf symbols
//!   `Σ₀` and binary symbols `Σ₂` for ranked trees.
//! * **Ranked binary trees** ([`BinaryTree`]) — arena-allocated, with
//!   parent links so that pebble configurations can navigate in O(1).
//! * **Unranked trees** ([`UnrankedTree`]) — the XML document model.
//! * **The binary encoding** ([`encode::encode`],
//!   [`encode::decode`]) of unranked trees into complete binary
//!   trees, exactly as in Figure 1 of the paper.
//! * A small **term syntax** (`a(b, c(d))`) parser/printer ([`RawTree`]) used
//!   pervasively by tests, examples and front-ends.
//! * **Random generators** ([`generate`]) for property tests and benchmarks,
//!   driven by the built-in seedable [`rng::SmallRng`].
//!
//! The crate is dependency-free by design (the workspace builds offline). A
//! deterministic FxHash-style hasher lives in [`fx`] so that hot paths avoid
//! SipHash, and [`rng`] provides a splitmix64 generator, without pulling a
//! crate in for either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod error;
pub mod fx;
pub mod generate;
pub mod raw;
pub mod rng;
pub mod symbol;
pub mod tree;
pub mod unranked;

pub use encode::{decode, decode_raw, encode, EncodedAlphabet};
pub use error::TreeError;
pub use fx::{FxHashMap, FxHashSet};
pub use raw::RawTree;
pub use rng::SmallRng;
pub use symbol::{Alphabet, AlphabetBuilder, Rank, Symbol};
pub use tree::{BinaryTree, ChildSide, NodeId};
pub use unranked::{UnrankedTree, UnrankedTreeBuilder};
