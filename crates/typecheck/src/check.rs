//! The end-to-end typechecking decision procedure (Theorem 4.4), with
//! counterexample extraction.

use crate::error::TypecheckError;
use crate::inverse::violation_nta_sized;
use xmltc_automata::{lazy, LazyError, Nta};
use xmltc_core::{eval, PebbleTransducer};
use xmltc_obs as obs;
use xmltc_trees::{Alphabet, BinaryTree};

/// Which Theorem 4.7 construction to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// Pick automatically: behaviour composition when `k = 1`, MSO
    /// otherwise.
    Auto,
    /// Force the k = 1 behaviour-composition route (errors when `k > 1`).
    ForceWalk,
    /// Force the paper's MSO route (any `k`, non-elementary).
    ForceMso,
}

/// Resolved route (post-`Auto`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResolvedRoute {
    /// Behaviour composition.
    Walk,
    /// MSO compilation.
    Mso,
}

/// How the final emptiness checks are executed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Pick automatically: lazy on the walk route (where the implicit
    /// product is largest relative to its reachable part), eager on the
    /// MSO route.
    Auto,
    /// Materialize the product automata before testing emptiness.
    Eager,
    /// On-the-fly search over the implicit product
    /// ([`xmltc_automata::lazy`]).
    Lazy,
}

/// Options for [`typecheck`].
#[derive(Clone, Copy, Debug)]
pub struct TypecheckOptions {
    /// Route selection.
    pub route: Route,
    /// Emptiness-engine selection.
    pub engine: Engine,
    /// Budget for intermediate automata (MSO subset constructions, walk
    /// DBTA states, lazy product configurations). `u32::MAX` = unlimited.
    pub state_limit: u32,
    /// Worker threads for the walk route's composition frontier. `0`
    /// (the default) resolves via [`crate::walk::resolve_threads`]: the
    /// `XMLTC_THREADS` environment variable if set, else the machine's
    /// available parallelism. The verdict and every constructed automaton
    /// are identical for every thread count.
    pub threads: usize,
    /// Minimum walk-frontier batch size before worker threads are spawned;
    /// batches below it run sequentially even with `threads > 1`, so an
    /// auto-resolved thread count never loses to `--threads 1` on small
    /// instances. `0` (the default) resolves via
    /// [`crate::walk::resolve_parallel_threshold`]; `1` forces the
    /// parallel path. Like `threads`, this cannot change any verdict or
    /// automaton — only wall time.
    pub parallel_threshold: usize,
    /// Jobs per work-stealing chunk of the walk route's parallel frontier.
    /// `0` (the default) resolves via [`crate::walk::resolve_chunk`] (the
    /// `XMLTC_CHUNK` environment variable, else
    /// [`crate::walk::WORK_CHUNK`]). Like `threads`, this cannot change
    /// any verdict or automaton — only wall time.
    pub chunk: usize,
}

impl Default for TypecheckOptions {
    fn default() -> Self {
        TypecheckOptions {
            route: Route::Auto,
            engine: Engine::Auto,
            state_limit: 4_000_000,
            threads: 0,
            parallel_threshold: 0,
            chunk: 0,
        }
    }
}

impl TypecheckOptions {
    /// Resolves `Auto` against the machine's pebble count.
    pub fn route_for(&self, k: u8) -> ResolvedRoute {
        match self.route {
            Route::ForceWalk => ResolvedRoute::Walk,
            Route::ForceMso => ResolvedRoute::Mso,
            Route::Auto => {
                if k == 1 {
                    ResolvedRoute::Walk
                } else {
                    ResolvedRoute::Mso
                }
            }
        }
    }

    /// Resolves `Engine::Auto` against the route actually taken: lazy is
    /// the default for the walk route, opt-in for the MSO route.
    pub fn engine_for(&self, route: ResolvedRoute) -> Engine {
        match self.engine {
            Engine::Auto => match route {
                ResolvedRoute::Walk => Engine::Lazy,
                ResolvedRoute::Mso => Engine::Eager,
            },
            chosen => chosen,
        }
    }
}

/// Maps lazy-engine failures onto the typechecker's error vocabulary.
fn lift_lazy_error(e: LazyError) -> TypecheckError {
    match e {
        LazyError::AlphabetMismatch => {
            TypecheckError::Tree(xmltc_trees::TreeError::AlphabetMismatch)
        }
        LazyError::ConfigLimit { n } => TypecheckError::TooManyStates { n },
    }
}

/// The verdict of the typechecker.
#[derive(Clone, Debug)]
pub enum TypecheckOutcome {
    /// `T(τ₁) ⊆ τ₂`: every output of every valid input conforms.
    Ok,
    /// The transformation can violate the output type.
    CounterExample {
        /// A valid input tree (`∈ τ₁`) on which `T` can produce output
        /// outside `τ₂`.
        input: BinaryTree,
        /// A concrete offending output (`∈ T(input) ∖ τ₂`), when one could
        /// be extracted (always, unless enumeration limits are hit).
        bad_output: Option<BinaryTree>,
    },
}

impl TypecheckOutcome {
    /// True when the program typechecks.
    pub fn is_ok(&self) -> bool {
        matches!(self, TypecheckOutcome::Ok)
    }
}

/// **Theorem 4.4** — decides whether `T(τ₁) ⊆ τ₂`.
///
/// Steps: build the Proposition 4.6 violation automaton, convert it to a
/// regular tree language (Theorem 4.7), intersect with `τ₁` and test
/// emptiness. A nonempty intersection yields a counterexample input; the
/// Proposition 3.8 output automaton of that input, intersected with the
/// complement of `τ₂`, yields a concrete bad output.
///
/// After a walk whose DBTA had 2¹⁴ or more transitions, the heap the
/// construction freed is handed back to the OS before returning (glibc
/// only; see `release_free_memory`).
pub fn typecheck(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
    opts: &TypecheckOptions,
) -> Result<TypecheckOutcome, TypecheckError> {
    let _span = obs::span("typecheck");
    let route = opts.route_for(t.k());
    let engine = opts.engine_for(route);
    obs::record("transducer.k", t.k() as u64);
    obs::record("transducer.states", t.core().n_states() as u64);
    obs::record("route.is_mso", matches!(route, ResolvedRoute::Mso) as u64);
    obs::record("engine.lazy", matches!(engine, Engine::Lazy) as u64);
    if !Alphabet::same(t.input_alphabet(), input_type.alphabet()) {
        return Err(TypecheckError::Tree(
            xmltc_trees::TreeError::AlphabetMismatch,
        ));
    }
    let (violations, dbta_transitions) = violation_nta_sized(t, output_type, opts)?;
    let outcome = decide_with_violations(t, input_type, output_type, &violations, engine, opts);
    drop(violations);
    if dbta_transitions >= RELEASE_AFTER_DBTA_TRANSITIONS {
        release_free_memory();
    }
    outcome
}

/// Walk DBTAs with at least this many transitions leave megabytes of freed
/// heap behind them: the DBTA, its NTA expansion, the trimmed copy and the
/// emptiness search peak at ~200 bytes per transition (~68 MB at 315 000).
const RELEASE_AFTER_DBTA_TRANSITIONS: usize = 1 << 14;

/// Returns the allocator's free pages to the OS (glibc `malloc_trim`).
///
/// glibc keeps freed heap resident while its free top stays under a trim
/// threshold, and it raises that threshold to twice the largest block it
/// ever unmapped. After one large violation automaton is freed, tens of MB
/// would stay resident for the rest of the process, so one big walk would
/// set the resident set of every later call; [`typecheck`] calls this once
/// such an automaton is gone.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes the allocator's own locks and only
    // returns pages no live allocation uses.
    unsafe {
        malloc_trim(0);
    }
}

/// Nothing to do where the allocator is not glibc's.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// **Theorem 4.4 with a precomputed violation automaton**: the final
/// emptiness check (and counterexample extraction) against an already
/// constructed regular language for `{t | T(t) ⊈ τ₂}`.
///
/// This is the warm path of the `xmltc serve` artifact cache: when the
/// Theorem 4.7 output (the expensive walk/MSO construction) is already
/// cached for `(T, τ₂)`, a typecheck against a different `τ₁` reduces to
/// this call — no `route.walk`/`route.mso` work at all. The `violations`
/// automaton must be the one [`crate::inverse::violation_nta`] would
/// produce for `(t, output_type)`; pairing a stale automaton with a
/// different transducer or output type yields garbage verdicts.
pub fn typecheck_with_violations(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
    violations: &Nta,
    opts: &TypecheckOptions,
) -> Result<TypecheckOutcome, TypecheckError> {
    let _span = obs::span("typecheck");
    let route = opts.route_for(t.k());
    let engine = opts.engine_for(route);
    obs::record("transducer.k", t.k() as u64);
    obs::record("transducer.states", t.core().n_states() as u64);
    obs::record("route.is_mso", matches!(route, ResolvedRoute::Mso) as u64);
    obs::record("engine.lazy", matches!(engine, Engine::Lazy) as u64);
    obs::record("violation.cached", 1);
    obs::record("violation.states", violations.n_states() as u64);
    obs::record("violation.transitions", violations.n_transitions() as u64);
    if !Alphabet::same(t.input_alphabet(), input_type.alphabet()) {
        return Err(TypecheckError::Tree(
            xmltc_trees::TreeError::AlphabetMismatch,
        ));
    }
    decide_with_violations(t, input_type, output_type, violations, engine, opts)
}

/// Shared tail of [`typecheck`]/[`typecheck_with_violations`]: emptiness
/// of `τ₁ ∩ violations`, then Proposition 3.8 bad-output extraction.
fn decide_with_violations(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
    violations: &Nta,
    engine: Engine,
    opts: &TypecheckOptions,
) -> Result<TypecheckOutcome, TypecheckError> {
    let witness = {
        let _span = obs::span("typecheck.emptiness");
        match engine {
            Engine::Lazy => {
                // On-the-fly: never materializes `τ₁ × violations`.
                lazy::intersection_witness(input_type, violations, opts.state_limit)
                    .map_err(lift_lazy_error)?
                    .0
                    .into_witness()
            }
            _ => {
                let offending_inputs = input_type.intersect(violations);
                obs::record("intersection.states", offending_inputs.n_states() as u64);
                obs::record(
                    "intersection.transitions",
                    offending_inputs.n_transitions() as u64,
                );
                offending_inputs.witness()
            }
        }
    };
    match witness {
        None => {
            obs::record("verdict.ok", 1);
            Ok(TypecheckOutcome::Ok)
        }
        Some(input) => {
            obs::record("verdict.ok", 0);
            let bad_output = extract_bad_output_with(t, &input, output_type, engine, opts)?;
            Ok(TypecheckOutcome::CounterExample { input, bad_output })
        }
    }
}

/// A member of `T(input) ∖ τ₂` via Proposition 3.8 (eager engine).
pub fn extract_bad_output(
    t: &PebbleTransducer,
    input: &BinaryTree,
    output_type: &Nta,
) -> Result<Option<BinaryTree>, TypecheckError> {
    extract_bad_output_with(
        t,
        input,
        output_type,
        Engine::Eager,
        &TypecheckOptions::default(),
    )
}

/// Engine-aware bad-output extraction: the lazy engine searches
/// `T(input) ∖ τ₂` directly, determinizing the complement of `τ₂` on
/// demand instead of materializing it.
pub fn extract_bad_output_with(
    t: &PebbleTransducer,
    input: &BinaryTree,
    output_type: &Nta,
    engine: Engine,
    opts: &TypecheckOptions,
) -> Result<Option<BinaryTree>, TypecheckError> {
    let _span = obs::span("typecheck.bad_output");
    let out_lang = eval::output_automaton(t, input)?.to_nta();
    if matches!(engine, Engine::Lazy) {
        let (outcome, _stats) = lazy::difference_witness(&out_lang, output_type, opts.state_limit)
            .map_err(lift_lazy_error)?;
        return Ok(outcome.into_witness());
    }
    let bad = out_lang.intersect(&output_type.complement().to_nta());
    Ok(bad.witness())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_automata::State;
    use xmltc_core::library;
    use xmltc_trees::Symbol;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    /// NTA for "all leaves labeled `leaf_sym`".
    fn all_leaves(al: &Arc<Alphabet>, leaf_sym: Symbol) -> Nta {
        let mut a = Nta::new(al, 1);
        a.add_leaf(leaf_sym, State(0));
        for b in al.binaries() {
            a.add_node(b, State(0), State(0), State(0));
        }
        a.add_final(State(0));
        a
    }

    /// NTA for all trees.
    fn top(al: &Arc<Alphabet>) -> Nta {
        let mut a = Nta::new(al, 1);
        for l in al.leaves() {
            a.add_leaf(l, State(0));
        }
        for b in al.binaries() {
            a.add_node(b, State(0), State(0), State(0));
        }
        a.add_final(State(0));
        a
    }

    #[test]
    fn copy_typechecks_against_itself() {
        // copy: T(τ) = τ, so T typechecks w.r.t. (τ, τ).
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let tau = all_leaves(&al, x);
        let out = typecheck(&t, &tau, &tau, &TypecheckOptions::default()).unwrap();
        assert!(out.is_ok());
    }

    #[test]
    fn copy_fails_against_smaller_type_with_counterexample() {
        // inputs: all trees; outputs must have all-x leaves: fails, and the
        // counterexample must be a tree with a y, mapped to itself.
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let tau1 = top(&al);
        let tau2 = all_leaves(&al, x);
        match typecheck(&t, &tau1, &tau2, &TypecheckOptions::default()).unwrap() {
            TypecheckOutcome::Ok => panic!("should not typecheck"),
            TypecheckOutcome::CounterExample { input, bad_output } => {
                assert!(tau1.accepts(&input).unwrap());
                assert!(
                    !tau2.accepts(&input).unwrap(),
                    "copy: bad input maps to itself"
                );
                let bad = bad_output.expect("bad output extracted");
                assert_eq!(bad, input, "copy's output is its input");
                assert!(!tau2.accepts(&bad).unwrap());
            }
        }
    }

    #[test]
    fn relabel_fixes_violation() {
        // Relabel y ↦ x: now all outputs have x leaves: typechecks.
        let al = alpha();
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let t = library::relabel(&al, &al, |s| if s == y { x } else { s }).unwrap();
        let tau1 = top(&al);
        let tau2 = all_leaves(&al, x);
        let out = typecheck(&t, &tau1, &tau2, &TypecheckOptions::default()).unwrap();
        assert!(out.is_ok());
    }

    #[test]
    fn mso_route_agrees_on_k1() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let tau1 = top(&al);
        let tau2 = all_leaves(&al, x);
        let walk = typecheck(
            &t,
            &tau1,
            &tau2,
            &TypecheckOptions {
                route: Route::ForceWalk,
                ..Default::default()
            },
        )
        .unwrap();
        let mso = typecheck(
            &t,
            &tau1,
            &tau2,
            &TypecheckOptions {
                route: Route::ForceMso,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(walk.is_ok(), mso.is_ok());
        assert!(!walk.is_ok());
        // And on the passing instance:
        let tau_x = all_leaves(&al, x);
        for route in [Route::ForceWalk, Route::ForceMso] {
            let out = typecheck(
                &t,
                &tau_x,
                &tau_x,
                &TypecheckOptions {
                    route,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(out.is_ok(), "{route:?}");
        }
    }

    #[test]
    fn engines_agree_and_auto_resolves_by_route() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let tau1 = top(&al);
        let tau2 = all_leaves(&al, x);
        for engine in [Engine::Auto, Engine::Eager, Engine::Lazy] {
            let opts = TypecheckOptions {
                engine,
                ..Default::default()
            };
            // Failing instance: both engines must refute, with a verified
            // counterexample.
            match typecheck(&t, &tau1, &tau2, &opts).unwrap() {
                TypecheckOutcome::Ok => panic!("{engine:?}: should not typecheck"),
                TypecheckOutcome::CounterExample { input, bad_output } => {
                    assert!(tau1.accepts(&input).unwrap(), "{engine:?}");
                    let bad = bad_output.expect("bad output extracted");
                    assert!(!tau2.accepts(&bad).unwrap(), "{engine:?}");
                }
            }
            // Passing instance.
            let ok = typecheck(&t, &tau2, &tau2, &opts).unwrap();
            assert!(ok.is_ok(), "{engine:?}");
        }
        let opts = TypecheckOptions::default();
        assert_eq!(opts.engine_for(ResolvedRoute::Walk), Engine::Lazy);
        assert_eq!(opts.engine_for(ResolvedRoute::Mso), Engine::Eager);
        let forced = TypecheckOptions {
            engine: Engine::Eager,
            ..Default::default()
        };
        assert_eq!(forced.engine_for(ResolvedRoute::Walk), Engine::Eager);
    }

    #[test]
    fn lazy_engine_respects_state_limit() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let tau1 = top(&al);
        let tau2 = all_leaves(&al, x);
        let opts = TypecheckOptions {
            engine: Engine::Lazy,
            state_limit: 1,
            ..Default::default()
        };
        match typecheck(&t, &tau1, &tau2, &opts) {
            Err(TypecheckError::TooManyStates { .. }) => {}
            other => panic!("expected budget abort, got {other:?}"),
        }
    }

    #[test]
    fn duplicator_typechecks() {
        // duplicator over all-x inputs: outputs are trees over {z, f, x}
        // with all leaves x: typechecks against that type; fails against
        // "no z" type.
        let al = alpha();
        let (t, out_al) = library::duplicator(&al).unwrap();
        let x_in = al.get("x").unwrap();
        let tau1 = all_leaves(&al, x_in);
        let x_out = out_al.get("x").unwrap();
        let tau2 = all_leaves(&out_al, x_out);
        let out = typecheck(&t, &tau1, &tau2, &TypecheckOptions::default()).unwrap();
        assert!(out.is_ok());

        // Now forbid z at the root: "root must be f" — duplicator always
        // outputs z at the root, so every input is a counterexample.
        let f_out = out_al.get("f").unwrap();
        let mut no_z_root = Nta::new(&out_al, 2);
        // state 0: any subtree; state 1: root-accepting only via f.
        for l in out_al.leaves() {
            no_z_root.add_leaf(l, State(0));
        }
        for b in out_al.binaries() {
            no_z_root.add_node(b, State(0), State(0), State(0));
        }
        no_z_root.add_node(f_out, State(0), State(0), State(1));
        no_z_root.add_final(State(1));
        match typecheck(&t, &tau1, &no_z_root, &TypecheckOptions::default()).unwrap() {
            TypecheckOutcome::CounterExample { input, bad_output } => {
                assert!(tau1.accepts(&input).unwrap());
                let bad = bad_output.unwrap();
                assert!(!no_z_root.accepts(&bad).unwrap());
            }
            TypecheckOutcome::Ok => panic!("should fail"),
        }
    }
}
