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
use xmltc_core::machine::PebbleAutomaton;
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
    let v = product(t, output_type)?;
    let (nta, dbta_transitions) = match opts.route_for(t.k()) {
        ResolvedRoute::Walk => {
            let _span = obs::span("typecheck.walk");
            let (d, _) = walk::walking_to_dbta_with(&v, &walk_options(opts))?;
            (d.to_nta().trim(), d.n_transitions())
        }
        ResolvedRoute::Mso => (mso(&v, opts)?, 0),
    };
    record_size(&nta);
    Ok((nta, dbta_transitions))
}

/// A regular tree automaton whose language meets `τ₁` exactly where the
/// violation language does, which is all [`crate::typecheck`]'s emptiness
/// search asks of it: for `k = 1` the guided walk's automaton for
/// `τ₁ ∩ {t | T(t) ⊈ τ₂}` ([`walk::walking_to_nta_within`]), which composes
/// only the subtrees a tree of `τ₁` can contain (every state of it is
/// reachable, so it is not trimmed); for `k ≥ 2` the MSO route's automaton
/// for the whole violation language, as in [`violation_nta`].
pub fn violations_within(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
    opts: &TypecheckOptions,
) -> Result<Nta, TypecheckError> {
    let v = product(t, output_type)?;
    let nta = match opts.route_for(t.k()) {
        ResolvedRoute::Walk => {
            let _span = obs::span("typecheck.walk");
            walk::walking_to_nta_within(&v, input_type, &walk_options(opts))?.0
        }
        ResolvedRoute::Mso => mso(&v, opts)?,
    };
    record_size(&nta);
    Ok(nta)
}

/// The Proposition 4.6 violation automaton, in its `typecheck.product`
/// span.
fn product(t: &PebbleTransducer, output_type: &Nta) -> Result<PebbleAutomaton, TypecheckError> {
    let _span = obs::span("typecheck.product");
    // The product holds only the rule-graph-reachable pairs, which is
    // all `trim_states` would keep (`tests/violation_trim.rs`).
    let v = violation_automaton(t, output_type)?;
    obs::record("pebble.k", v.k() as u64);
    obs::record("pebble.states", v.core().n_states() as u64);
    Ok(v)
}

/// The walk's budget: `opts.state_limit` signatures.
fn walk_options(opts: &TypecheckOptions) -> walk::WalkOptions {
    walk::WalkOptions {
        limit: opts.state_limit,
    }
}

/// The MSO route, in its `typecheck.mso` span. Its counters are the
/// `mso.compile` span's.
fn mso(v: &PebbleAutomaton, opts: &TypecheckOptions) -> Result<Nta, TypecheckError> {
    let _span = obs::span("typecheck.mso");
    Ok(mso_route::pebble_to_nta(v, opts.state_limit)?.0.trim())
}

/// Records the Theorem 4.7 automaton's size as `violation.*` rows.
fn record_size(nta: &Nta) {
    obs::record("violation.states", nta.n_states() as u64);
    obs::record("violation.transitions", nta.n_transitions() as u64);
}
