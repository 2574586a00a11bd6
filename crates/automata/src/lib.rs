//! # xmltc-automata
//!
//! Regular tree languages over complete binary trees — the paper's type
//! formalism (Section 2.3).
//!
//! Two automaton flavours are provided, mirroring the paper:
//!
//! * [`TdTa`] — nondeterministic *top-down* (root-to-frontier) tree automata
//!   (Definition 2.1), optionally with **silent transitions**, plus the
//!   paper's silent-elimination construction. Silent moves are
//!   symbol-independent (`q → q'`), the only form the Proposition 3.8
//!   output automaton produces.
//!   Top-down automata are the natural output of the Proposition 3.8 and
//!   Proposition 4.6 constructions, which consume the tree in the order the
//!   transducer produces it.
//! * [`Nta`] — nondeterministic *bottom-up* automata, the workhorse for the
//!   decision procedures: determinization ([`Dbta`]), complement, product,
//!   union, emptiness **with witness extraction**, membership, inclusion,
//!   equivalence, trimming, and bounded language enumeration.
//!
//! The two are effectively inter-convertible ([`TdTa::to_nta`],
//! [`Nta::to_tdta`]); as the paper notes, nondeterministic top-down and
//! bottom-up automata are equally expressive, and both capture exactly the
//! regular tree languages. A *type* `τ` in the paper is `inst(A)` for one of
//! these automata.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbta;
pub mod enumerate;
pub mod lazy;
mod least;
pub mod nta;
pub mod state;
pub mod topdown;
pub mod witness;

pub use dbta::Dbta;
pub use lazy::{LazyError, LazyOutcome, LazyStats};
pub use nta::Nta;
pub use state::State;
pub use topdown::TdTa;
pub use witness::{accepting_run, node_path, rejection_point, RejectionPoint};
