//! Differential execution of the emptiness engines on one typechecking
//! instance.
//!
//! The eager engine materializes `τ₁ ∩ violations` and asks for its least
//! tree; the lazy engine searches the same product on the fly for the
//! same least tree. Any difference in the witness bytes, not only in the
//! verdict, is a bug in one of them. [`differential_emptiness`] runs
//! **both** on a shared violation automaton (computed once — it depends
//! only on `(T, τ₂)`) and returns both witnesses side by side; the corpus
//! harness and the `xmltc corpus` CLI both consume this.

use crate::check::ResolvedRoute;
use crate::error::TypecheckError;
use crate::inverse::violation_nta;
use crate::TypecheckOptions;
use xmltc_automata::{lazy, Nta};
use xmltc_core::PebbleTransducer;
use xmltc_trees::BinaryTree;

/// Both engines' answers to one `T(τ₁) ⊆ τ₂` instance.
#[derive(Clone, Debug)]
pub struct DifferentialVerdict {
    /// The eager engine's counterexample input, if any.
    pub eager_witness: Option<BinaryTree>,
    /// The lazy engine's counterexample input, if any.
    pub lazy_witness: Option<BinaryTree>,
    /// States in the (shared) violation automaton, after trimming.
    pub violation_states: u32,
    /// Which Theorem 4.7 route produced the violation automaton.
    pub route_is_walk: bool,
}

impl DifferentialVerdict {
    /// True when the engines return the same witness: both none, or the
    /// same least counterexample.
    pub fn agree(&self) -> bool {
        self.eager_witness == self.lazy_witness
    }
}

/// Runs the eager and the lazy emptiness engine on the same instance and
/// returns both verdicts. The violation automaton is built once (by
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
