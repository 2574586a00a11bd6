//! Differential execution of the emptiness engines on one typechecking
//! instance.
//!
//! The eager engine materializes `τ₁ ∩ violations` and asks for a
//! witness; the lazy engine searches the same product on the fly. They
//! decide the same language, so any disagreement is a bug in one of them.
//! [`differential_emptiness`] runs **both** on a shared violation
//! automaton (computed once — it depends only on `(T, τ₂)`) and returns
//! both verdicts side by side; the corpus harness and the
//! `xmltc corpus` CLI both consume this.

use crate::check::ResolvedRoute;
use crate::error::TypecheckError;
use crate::inverse::violation_nta;
use crate::TypecheckOptions;
use xmltc_automata::{lazy, LazyStats, Nta};
use xmltc_core::PebbleTransducer;
use xmltc_trees::BinaryTree;

/// Both engines' answers to one `T(τ₁) ⊆ τ₂` instance.
#[derive(Clone, Debug)]
pub struct DifferentialVerdict {
    /// The eager engine's counterexample input, if any.
    pub eager_witness: Option<BinaryTree>,
    /// The lazy engine's counterexample input, if any.
    pub lazy_witness: Option<BinaryTree>,
    /// The lazy engine's search statistics.
    pub lazy_stats: LazyStats,
    /// States in the (shared) violation automaton, after trimming.
    pub violation_states: u32,
    /// Which Theorem 4.7 route produced the violation automaton.
    pub route_is_walk: bool,
}

impl DifferentialVerdict {
    /// True when the engines return the same verdict (the invariant the
    /// differential harness enforces — witnesses may differ, emptiness
    /// may not).
    pub fn agree(&self) -> bool {
        self.eager_witness.is_some() == self.lazy_witness.is_some()
    }

    /// True when both engines say the instance typechecks.
    pub fn typechecks(&self) -> bool {
        self.eager_witness.is_none() && self.lazy_witness.is_none()
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
    let (lazy_out, lazy_stats) = lazy::intersection_witness(tau1, &violations, opts.state_limit)?;
    Ok(DifferentialVerdict {
        eager_witness,
        lazy_witness: lazy_out.into_witness(),
        lazy_stats,
        violation_states: violations.n_states(),
        route_is_walk: matches!(opts.route_for(t.k()), ResolvedRoute::Walk),
    })
}
