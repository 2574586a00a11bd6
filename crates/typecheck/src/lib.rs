//! # xmltc-typecheck
//!
//! The paper's main result, made executable: **typechecking k-pebble tree
//! transducers is decidable** (Theorem 4.4).
//!
//! Given a transducer `T`, an input type `τ₁` and an output type `τ₂` (both
//! regular tree languages), `T` *typechecks* when `T(τ₁) ⊆ τ₂`. Type
//! inference is impossible in general (Example 4.2: the image of a regular
//! language need not be regular, and no best regular approximation exists),
//! but **inverse** type inference works, in three steps:
//!
//! 1. [`product::violation_automaton`] — **Proposition 4.6**: compose `T`
//!    with a top-down automaton for the *complement* of `τ₂`, yielding a
//!    k-pebble automaton `A` accepting `{t | T(t) ⊈ τ₂}`.
//! 2. Theorem 4.7 — convert `A` to an ordinary tree automaton. Two routes,
//!    picked by the pebble count:
//!    * [`mso_route`] — the paper's proof: translate `A` to an MSO sentence
//!      (the reverse-closed-sets encoding of the and/or configuration
//!      graph) and compile it (non-elementary, any `k`; taken for `k ≥ 2`);
//!    * [`walk`] — for `k = 1` (where pebble automata are exactly
//!      *branching tree-walking automata*, covering top-down transducers,
//!      the XSLT fragment, and the Section 5 practical cases): a direct
//!      subtree-behaviour congruence yielding a deterministic bottom-up
//!      automaton, exponentially cheaper.
//! 3. Check `τ₁ ∩ inst(A)` for emptiness; a witness is a **counterexample
//!    input**, and Proposition 3.8 then exhibits a concrete bad output.
//!
//! Also provided: [`inverse::inverse_type`] (the type `τ₂⁻¹ = {t | T(t) ⊆
//! τ₂}` itself) and a bounded exhaustive checker ([`bounded`]) used to
//! cross-validate the exact pipeline. The forward type-inference baseline
//! that the paper's Related Work attributes to XDuce/XQuery — sound but
//! incomplete, for precision comparisons — works on stylesheets and DTDs,
//! so it lives in `xmltc-xmlql` (`Stylesheet::infer_image`).

// `deny`, not the workspace's usual `forbid`: [`check::typecheck`] hands
// freed heap back to the OS after a large walk through one locally-allowed
// call to glibc's `malloc_trim`. Everything else stays checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod check;
pub mod differential;
pub mod error;
pub mod inverse;
pub mod mso_route;
pub mod product;
pub mod replay;
pub mod walk;

pub use check::{
    typecheck, typecheck_with_violations, typecheck_within, Engine, TypecheckOptions,
    TypecheckOutcome,
};
pub use differential::{differential_emptiness, DifferentialVerdict};
pub use error::TypecheckError;
pub use inverse::inverse_type;
pub use product::violation_automaton;
pub use replay::{replay_counterexample, ReplayEvidence};
