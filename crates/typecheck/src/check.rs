//! The end-to-end typechecking decision procedure (Theorem 4.4), with
//! counterexample extraction.

use crate::error::TypecheckError;
use crate::inverse::{violation_nta_sized, violations_within};
use xmltc_automata::{lazy, Nta};
use xmltc_core::{eval, PebbleTransducer};
use xmltc_obs as obs;
use xmltc_trees::{Alphabet, BinaryTree};

/// The Theorem 4.7 construction a machine's pebble count selects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResolvedRoute {
    /// Behaviour composition, for `k = 1`.
    Walk,
    /// MSO compilation, for `k ≥ 2`.
    Mso,
}

impl ResolvedRoute {
    /// The route's name in reports: `walk` or `mso`.
    pub fn name(self) -> &'static str {
        match self {
            ResolvedRoute::Walk => "walk",
            ResolvedRoute::Mso => "mso",
        }
    }
}

/// The emptiness search's name, kept only because the benchmark harness
/// (`benchmark/src/tcmix.rs`) compiles against it. Every emptiness check
/// runs the on-the-fly search of [`xmltc_automata::lazy`]; this selects
/// nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The on-the-fly search, which makes only the product pairs it
    /// reaches.
    Lazy,
}

/// Options for [`typecheck`].
#[derive(Clone, Copy, Debug)]
pub struct TypecheckOptions {
    /// Budget for intermediate automata (MSO subset constructions, walk
    /// DBTA states, lazy product configurations). `u32::MAX` = unlimited.
    pub state_limit: u32,
}

impl Default for TypecheckOptions {
    fn default() -> Self {
        TypecheckOptions {
            state_limit: 4_000_000,
        }
    }
}

impl TypecheckOptions {
    /// The route for a `k`-pebble machine: the walk when `k = 1`, MSO
    /// otherwise. No option selects it; it stays a method because the
    /// benchmark harness calls it as one.
    pub fn route_for(&self, k: u8) -> ResolvedRoute {
        if k == 1 {
            ResolvedRoute::Walk
        } else {
            ResolvedRoute::Mso
        }
    }

    /// Always [`Engine::Lazy`]; kept only because the benchmark harness
    /// names it.
    pub fn engine_for(&self, _route: ResolvedRoute) -> Engine {
        Engine::Lazy
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
/// regular tree language (Theorem 4.7), and search `τ₁ ∩ violations` for
/// its least tree (fewest nodes first, see [`Nta::witness`]) without
/// building the product. That tree is the counterexample input; the least
/// tree of the Proposition 3.8 output automaton of that input minus `τ₂`
/// is the bad output. Both depend on the languages alone, so every route
/// reports the same pair.
///
/// The walk here is the full one, over every tree of the input alphabet:
/// the benchmark harness's traced path rebuilds this decision layer by
/// layer with that walk and requires the same answers, including the
/// same budget skips. [`typecheck_within`] decides the same question with
/// the walk guided by `τ₁`.
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
    begin(t, input_type, opts)?;
    let (violations, dbta_transitions) = violation_nta_sized(t, output_type, opts)?;
    let outcome = decide_with_violations(t, input_type, output_type, &violations, opts);
    drop(violations);
    if dbta_transitions >= RELEASE_AFTER_DBTA_TRANSITIONS {
        release_free_memory();
    }
    outcome
}

/// [`typecheck`] with the Theorem 4.7 step guided by `τ₁`: the walk
/// composes only the subtrees some tree of `input_type` can contain
/// ([`crate::inverse::violations_within`]), and its automaton, for
/// `τ₁ ∩ violations`, goes to the same emptiness search and bad-output
/// extraction. The least counterexample depends on the languages alone,
/// so this returns what [`typecheck`] returns wherever both decide; it
/// decides more often under a budget, since the guided walk never finds
/// more signatures than the full walk.
///
/// The document path (`DocumentPipeline`, the `xmltc` CLI and `serve`)
/// decides through this. [`typecheck`] keeps the full walk, which the
/// benchmark harness's traced path replays layer by layer. As there, the
/// freed heap goes back to the OS after an automaton of 2¹⁴ or more
/// transitions.
pub fn typecheck_within(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
    opts: &TypecheckOptions,
) -> Result<TypecheckOutcome, TypecheckError> {
    let _span = obs::span("typecheck");
    begin(t, input_type, opts)?;
    let violations = violations_within(t, input_type, output_type, opts)?;
    let outcome = decide_with_violations(t, input_type, output_type, &violations, opts);
    let transitions = violations.n_transitions();
    drop(violations);
    if transitions >= RELEASE_AFTER_DBTA_TRANSITIONS {
        release_free_memory();
    }
    outcome
}

/// Walk automata with at least this many transitions leave megabytes of
/// freed heap behind them: the full walk's DBTA, its NTA expansion, the
/// trimmed copy and the emptiness search peak at ~200 bytes per
/// transition (~68 MB at 315 000).
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
/// cached, a typecheck reduces to this call — no `typecheck.walk` or
/// `typecheck.mso` work at all. The `violations`
/// automaton must be one that [`crate::inverse::violation_nta`] would
/// produce for `(t, output_type)`, or
/// [`crate::inverse::violations_within`] for `(t, input_type,
/// output_type)`: either meets `τ₁` in exactly the violating inputs, so
/// either gives the same answer. Pairing a stale automaton with a
/// different transducer or type yields garbage verdicts.
pub fn typecheck_with_violations(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
    violations: &Nta,
    opts: &TypecheckOptions,
) -> Result<TypecheckOutcome, TypecheckError> {
    let _span = obs::span("typecheck");
    begin(t, input_type, opts)?;
    obs::record("violation.cached", 1);
    obs::record("violation.states", violations.n_states() as u64);
    obs::record("violation.transitions", violations.n_transitions() as u64);
    decide_with_violations(t, input_type, output_type, violations, opts)
}

/// Shared head of the typecheck entry points: records the route with the
/// machine's size, and checks that `τ₁` is over the machine's input
/// alphabet.
fn begin(
    t: &PebbleTransducer,
    input_type: &Nta,
    opts: &TypecheckOptions,
) -> Result<(), TypecheckError> {
    let route = opts.route_for(t.k());
    obs::record("transducer.k", t.k() as u64);
    obs::record("transducer.states", t.core().n_states() as u64);
    obs::record("route.is_mso", matches!(route, ResolvedRoute::Mso) as u64);
    if !Alphabet::same(t.input_alphabet(), input_type.alphabet()) {
        return Err(TypecheckError::Tree(
            xmltc_trees::TreeError::AlphabetMismatch,
        ));
    }
    Ok(())
}

/// Shared tail of the typecheck entry points: the least tree of
/// `τ₁ ∩ violations`, searched on the fly, then Proposition 3.8 bad-output
/// extraction.
fn decide_with_violations(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
    violations: &Nta,
    opts: &TypecheckOptions,
) -> Result<TypecheckOutcome, TypecheckError> {
    let witness = {
        let _span = obs::span("automata.lazy");
        lazy::intersection_witness(input_type, violations, opts.state_limit)?
            .0
            .into_witness()
    };
    match witness {
        None => {
            obs::record("verdict.ok", 1);
            Ok(TypecheckOutcome::Ok)
        }
        Some(input) => {
            obs::record("verdict.ok", 0);
            let bad_output = extract_bad_output_with(t, &input, output_type, Engine::Lazy, opts)?;
            Ok(TypecheckOutcome::CounterExample { input, bad_output })
        }
    }
}

/// The least member of `T(input) ∖ τ₂` via Proposition 3.8: searches the
/// output automaton minus `τ₂` directly, determinizing `τ₂` on demand
/// instead of building its complement. The [`Engine`] argument is ignored;
/// it stays only because the benchmark harness passes one.
pub fn extract_bad_output_with(
    t: &PebbleTransducer,
    input: &BinaryTree,
    output_type: &Nta,
    _engine: Engine,
    opts: &TypecheckOptions,
) -> Result<Option<BinaryTree>, TypecheckError> {
    let _span = obs::span("typecheck.bad_output");
    let out_lang = eval::output_automaton(t, input)?.to_nta();
    let (outcome, _stats) = lazy::difference_witness(&out_lang, output_type, opts.state_limit)?;
    Ok(outcome.into_witness())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_automata::State;
    use xmltc_core::library;
    use xmltc_core::topdown_transducer::{Fragment, TopDownTransducer};
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

    /// The MSO route, which only `k ≥ 2` machines select, decides a
    /// 1-pebble machine as the walk does: its automaton for the same
    /// violation automaton gives the same least counterexample, the leaf
    /// y, which copy maps to itself, and the same pass.
    #[test]
    fn mso_route_agrees_on_k1() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let tau1 = top(&al);
        let tau2 = all_leaves(&al, x);
        let opts = TypecheckOptions::default();
        let v = crate::product::violation_automaton(&t, &tau2).unwrap();
        let mso = crate::mso_route::pebble_to_nta(&v, opts.state_limit)
            .unwrap()
            .0
            .trim();
        let walk = typecheck(&t, &tau1, &tau2, &opts).unwrap();
        let via_mso = typecheck_with_violations(&t, &tau1, &tau2, &mso, &opts).unwrap();
        for (route, outcome) in [("walk", walk), ("mso", via_mso)] {
            match outcome {
                TypecheckOutcome::Ok => panic!("{route}: should not typecheck"),
                TypecheckOutcome::CounterExample { input, bad_output } => {
                    assert_eq!(input.to_string(), "y", "{route}");
                    let bad = bad_output.expect("bad output extracted");
                    assert_eq!(bad.to_string(), "y", "{route}");
                }
            }
        }
        // And on the passing instance:
        assert!(typecheck(&t, &tau2, &tau2, &opts).unwrap().is_ok());
        assert!(typecheck_with_violations(&t, &tau2, &tau2, &mso, &opts)
            .unwrap()
            .is_ok());
    }

    #[test]
    fn emptiness_search_respects_state_limit() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let tau1 = top(&al);
        let tau2 = all_leaves(&al, x);
        let opts = TypecheckOptions { state_limit: 1 };
        match typecheck(&t, &tau1, &tau2, &opts) {
            Err(TypecheckError::TooManyStates { .. }) => {}
            other => panic!("expected budget abort, got {other:?}"),
        }
    }

    /// Embedded Definition 3.2 transducers are downward 1-pebble
    /// machines, so the exact route decides them directly.
    #[test]
    fn embedded_topdown_transducer_typechecks() {
        let al = Alphabet::ranked(&["x", "y"], &["f", "g"]);
        let [f, g, x, y] = ["f", "g", "x", "y"].map(|s| al.get(s).unwrap());
        let q = State(0);
        // Relabel everything: f,g ↦ g; x,y ↦ y.
        let mut td = TopDownTransducer::new(&al, &al, 1, q);
        for s in [f, g] {
            let body = Fragment::node(g, Fragment::recurse(1, q), Fragment::recurse(2, q));
            td.add_rule(s, q, body).unwrap();
        }
        for s in [x, y] {
            td.add_rule(s, q, Fragment::Leaf(y)).unwrap();
        }
        let t = td.to_pebble().unwrap();
        let tau1 = top(&al);
        // τ₂ = trees over {g, y} only: every output conforms.
        let mut tau2 = Nta::new(&al, 1);
        tau2.add_leaf(y, q);
        tau2.add_node(g, q, q, q);
        tau2.add_final(q);
        let opts = TypecheckOptions::default();
        assert!(typecheck(&t, &tau1, &tau2, &opts).unwrap().is_ok());
        // τ₃ = the leaf y alone: the output of any binary input violates it.
        let mut tau3 = Nta::new(&al, 1);
        tau3.add_leaf(y, q);
        tau3.add_final(q);
        match typecheck(&t, &tau1, &tau3, &opts).unwrap() {
            TypecheckOutcome::CounterExample { bad_output, .. } => {
                assert!(!tau3.accepts(&bad_output.unwrap()).unwrap());
            }
            TypecheckOutcome::Ok => panic!("outputs with a g violate τ₃"),
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
