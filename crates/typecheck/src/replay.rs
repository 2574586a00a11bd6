//! The replay verifier: independent end-to-end re-checking of extracted
//! counterexamples.
//!
//! [`crate::typecheck`] refutes `T(τ₁) ⊆ τ₂` with a pair `(input,
//! bad_output)` produced by automata constructions (Propositions 4.6 and
//! 3.8). Those constructions are exactly what a bug in the pipeline would
//! corrupt — so the claim is re-established here *without* them, from the
//! definitions alone:
//!
//! 1. `input ∈ τ₁` — direct membership on the input automaton;
//! 2. `bad_output ∈ T(input)` — an actual run of the transducer found by
//!    [`guided_trace`] (sound for nondeterministic machines, and the run
//!    doubles as the annotated trace for `xmltc explain`);
//! 3. `bad_output ∉ τ₂` — direct membership on the output automaton, with
//!    the [`rejection_point`] locating where acceptance fails.
//!
//! [`ReplayEvidence::verified`] holds exactly when all three legs confirm.
//! The differential harness and the test suite require it of every
//! counterexample the typechecker reports.

use crate::error::TypecheckError;
use xmltc_automata::witness::{rejection_point, RejectionPoint};
use xmltc_automata::Nta;
use xmltc_core::trace::{guided_trace, TraceStep, DEFAULT_TRACE_LIMIT};
use xmltc_core::PebbleTransducer;
use xmltc_trees::BinaryTree;

/// The outcome of replaying one counterexample.
#[derive(Clone, Debug)]
pub struct ReplayEvidence {
    /// Leg 1: the input is accepted by `τ₁`.
    pub input_in_type: bool,
    /// Leg 2: the transducer re-derived the bad output on the input.
    pub output_produced: bool,
    /// Leg 3: the bad output is rejected by `τ₂`.
    pub output_rejected: bool,
    /// The recorded run proving leg 2 (empty when it failed).
    pub trace: Vec<TraceStep>,
    /// Where `τ₂`'s runs on the bad output die (when leg 3 holds).
    pub rejection: Option<RejectionPoint>,
}

impl ReplayEvidence {
    /// True when all three legs confirm the counterexample.
    pub fn verified(&self) -> bool {
        self.input_in_type && self.output_produced && self.output_rejected
    }
}

/// Replays `(input, bad_output)` against the real transducer and the real
/// types. Use [`ReplayEvidence::verified`] for the verdict; the individual
/// legs say which part of the claim failed.
pub fn replay_counterexample(
    t: &PebbleTransducer,
    input_type: &Nta,
    output_type: &Nta,
    input: &BinaryTree,
    bad_output: &BinaryTree,
) -> Result<ReplayEvidence, TypecheckError> {
    let input_in_type = input_type.accepts(input)?;
    let trace = guided_trace(t, input, bad_output, DEFAULT_TRACE_LIMIT)?;
    let output_rejected = !output_type.accepts(bad_output)?;
    let rejection = if output_rejected {
        rejection_point(output_type, bad_output)?
    } else {
        None
    };
    Ok(ReplayEvidence {
        input_in_type,
        output_produced: trace.is_some(),
        output_rejected,
        trace: trace.unwrap_or_default(),
        rejection,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{typecheck, TypecheckOptions, TypecheckOutcome};
    use std::sync::Arc;
    use xmltc_automata::State;
    use xmltc_core::library;
    use xmltc_trees::{Alphabet, Symbol};

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    fn all_leaves(al: &Arc<Alphabet>, leaf_sym: Symbol) -> Nta {
        let mut a = Nta::new(al, 1);
        a.add_leaf(leaf_sym, State(0));
        for b in al.binaries() {
            a.add_node(b, State(0), State(0), State(0));
        }
        a.add_final(State(0));
        a
    }

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
    fn real_counterexamples_verify() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let tau1 = top(&al);
        let tau2 = all_leaves(&al, x);
        match typecheck(&t, &tau1, &tau2, &TypecheckOptions::default()).unwrap() {
            TypecheckOutcome::CounterExample { input, bad_output } => {
                let bad = bad_output.unwrap();
                let ev = replay_counterexample(&t, &tau1, &tau2, &input, &bad).unwrap();
                assert!(ev.verified(), "{ev:?}");
                assert!(!ev.trace.is_empty());
                assert!(ev.rejection.is_some());
            }
            TypecheckOutcome::Ok => panic!("should not typecheck"),
        }
    }

    #[test]
    fn forged_counterexamples_fail_the_right_leg() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let tau_x = all_leaves(&al, x);
        let tau_y = all_leaves(&al, y);
        let tx = BinaryTree::parse("x", &al).unwrap();
        let ty = BinaryTree::parse("y", &al).unwrap();
        // Input not in τ₁.
        let ev = replay_counterexample(&t, &tau_x, &tau_x, &ty, &ty).unwrap();
        assert!(!ev.input_in_type && !ev.verified());
        // Output not producible (copy maps x to x, never to y).
        let ev = replay_counterexample(&t, &tau_x, &tau_y, &tx, &ty).unwrap();
        assert!(!ev.output_produced && !ev.verified());
        // Output actually conforms to τ₂.
        let ev = replay_counterexample(&t, &tau_x, &tau_x, &tx, &tx).unwrap();
        assert!(!ev.output_rejected && !ev.verified());
        assert!(ev.rejection.is_none());
    }
}
