//! Differential execution of the emptiness check on one typechecking
//! instance.
//!
//! The typechecker searches `τ₁ ∩ violations` for its least tree on the
//! fly ([`lazy::intersection_witness`]); the oracle builds the product
//! automaton and asks it for its least tree ([`Nta::witness`]). Any
//! difference in the witness bytes, not only in the verdict, is a bug in
//! one of them. [`differential_emptiness`] runs **both** on a shared
//! violation automaton (computed once — it depends only on `(T, τ₂)`) and
//! returns both witnesses side by side; the corpus harness and the
//! `xmltc corpus` CLI both consume this.

use crate::check::ResolvedRoute;
use crate::error::TypecheckError;
use crate::inverse::violation_nta;
use crate::TypecheckOptions;
use xmltc_automata::{lazy, Nta};
use xmltc_core::PebbleTransducer;
use xmltc_trees::BinaryTree;

/// Both answers to one `T(τ₁) ⊆ τ₂` instance.
#[derive(Clone, Debug)]
pub struct DifferentialVerdict {
    /// The least tree of the built product `τ₁ ∩ violations`, if any.
    pub eager_witness: Option<BinaryTree>,
    /// The on-the-fly search's least tree, if any: the counterexample
    /// input [`crate::typecheck`] reports.
    pub lazy_witness: Option<BinaryTree>,
    /// States in the (shared) violation automaton, after trimming.
    pub violation_states: u32,
    /// Which Theorem 4.7 route produced the violation automaton.
    pub route_is_walk: bool,
}

impl DifferentialVerdict {
    /// True when both return the same witness: both none, or the same
    /// least counterexample.
    pub fn agree(&self) -> bool {
        self.eager_witness == self.lazy_witness
    }
}

/// Runs the on-the-fly search and the built product on the same instance
/// and returns both verdicts. The violation automaton is built once (by
/// whichever Theorem 4.7 route `opts` selects) and shared.
pub fn differential_emptiness(
    t: &PebbleTransducer,
    tau1: &Nta,
    tau2: &Nta,
    opts: &TypecheckOptions,
) -> Result<DifferentialVerdict, TypecheckError> {
    let violations = violation_nta(t, tau2, opts)?;
    let eager_witness = tau1.intersect(&violations).witness();
    let (lazy_out, _) = lazy::intersection_witness(tau1, &violations, opts.state_limit)?;
    Ok(DifferentialVerdict {
        eager_witness,
        lazy_witness: lazy_out.into_witness(),
        violation_states: violations.n_states(),
        route_is_walk: matches!(opts.route_for(t.k()), ResolvedRoute::Walk),
    })
}
