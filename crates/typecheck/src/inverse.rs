//! Inverse type inference: the type `τ₂⁻¹ = {t | T(t) ⊆ τ₂}`.
//!
//! This is the problem the paper solves in place of (impossible) forward
//! type inference: the preimage-style type is always regular and
//! effectively computable. Example 4.2's punchline — the inverse of the
//! even-`b` output DTD `(b.b)*` under query Q1 (`aⁿ ↦ bⁿ²`) is exactly the
//! even-`a` input DTD `(a.a)*` — is an integration test of this module.

use crate::check::{ResolvedRoute, TypecheckOptions};
use crate::error::TypecheckError;
use crate::mso_route;
use crate::product::violation_automaton;
use crate::walk;
use xmltc_automata::Nta;
use xmltc_core::PebbleTransducer;
use xmltc_obs as obs;

/// Computes a tree automaton for `τ₂⁻¹ = {t | T(t) ⊆ τ₂}`.
///
/// Pipeline: Proposition 4.6 gives a k-pebble automaton for the complement
/// `{t | T(t) ⊈ τ₂}`; Theorem 4.7 converts it to a regular tree automaton;
/// complementing yields the inverse type.
pub fn inverse_type(
    t: &PebbleTransducer,
    output_type: &Nta,
    opts: &TypecheckOptions,
) -> Result<Nta, TypecheckError> {
    let violations = violation_nta(t, output_type, opts)?;
    let _span = obs::span("typecheck.inverse_complement");
    let inv = violations.complement().to_nta().trim();
    obs::record("inverse.states", inv.n_states() as u64);
    obs::record("inverse.transitions", inv.n_transitions() as u64);
    Ok(inv)
}

/// The regular tree automaton for `{t | T(t) ⊈ τ₂}` (the violation
/// language), by the Theorem 4.7 route the machine's pebble count selects.
pub fn violation_nta(
    t: &PebbleTransducer,
    output_type: &Nta,
    opts: &TypecheckOptions,
) -> Result<Nta, TypecheckError> {
    violation_nta_sized(t, output_type, opts).map(|(nta, _)| nta)
}

/// [`violation_nta`], plus the number of transitions of the walk DBTA the
/// walk route expanded into it (0 for the MSO route): the size of what the
/// construction allocated and freed on the way.
pub(crate) fn violation_nta_sized(
    t: &PebbleTransducer,
    output_type: &Nta,
    opts: &TypecheckOptions,
) -> Result<(Nta, usize), TypecheckError> {
    let mut dbta_transitions = 0;
    let v = {
        let _span = obs::span("typecheck.product");
        // The product holds only the rule-graph-reachable pairs, which is
        // all `trim_states` would keep (`tests/violation_trim.rs`).
        let v = violation_automaton(t, output_type)?;
        obs::record("pebble.k", v.k() as u64);
        obs::record("pebble.states", v.core().n_states() as u64);
        v
    };
    let nta = match opts.route_for(t.k()) {
        ResolvedRoute::Walk => {
            let _span = obs::span("typecheck.walk");
            let wopts = walk::WalkOptions {
                limit: opts.state_limit,
            };
            let (d, _) = walk::walking_to_dbta_with(&v, &wopts)?;
            dbta_transitions = d.n_transitions();
            d.to_nta().trim()
        }
        ResolvedRoute::Mso => {
            let _span = obs::span("typecheck.mso");
            let (nta, stats) = mso_route::pebble_to_nta(&v, opts.state_limit)?;
            obs::record("mso.max_states", stats.max_states as u64);
            obs::record("mso.determinizations", stats.determinizations as u64);
            obs::record("mso.operations", stats.operations as u64);
            nta.trim()
        }
    };
    obs::record("violation.states", nta.n_states() as u64);
    obs::record("violation.transitions", nta.n_transitions() as u64);
    Ok((nta, dbta_transitions))
}
