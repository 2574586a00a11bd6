//! Deterministic evaluation against the Proposition 3.8 oracle.
//!
//! `eval` runs a transducer deterministically; `output_automaton` builds
//! the automaton of every output the machine can produce on the input,
//! whatever its determinism. On a corpus sample the two must agree: every
//! successful run's output is accepted by `is_output` and is the only
//! member of `outputs(..)`. The outcome counts pin what `eval` reports on
//! machines that get stuck, are nondeterministic, loop or run long.

use xmltc::automata::enumerate::trees_up_to;
use xmltc::core::eval::{eval_with_limit, is_output, outputs};
use xmltc::core::MachineError;
use xmltc::dsl::{generate, Family, FAMILIES};
use xmltc::trees::BinaryTree;

const SEED: u64 = 0x5eed;

#[test]
fn corpus_runs_agree_with_the_output_automaton() {
    let (mut ok, mut looping, mut nondet, mut limit, mut stuck) = (0, 0, 0, 0, 0);
    for family in FAMILIES {
        for index in 0..100 {
            let case = generate(SEED, family, index).compile().expect("lowers");
            let t = &case.transducer;
            for tree in trees_up_to(&case.tau1, 4, 6) {
                match eval_with_limit(t, &tree, 2_000) {
                    Ok(out) => {
                        ok += 1;
                        let what = format!("{family} #{index} on {tree}");
                        assert!(is_output(t, &tree, &out).unwrap(), "{what}");
                        let all = outputs(t, &tree, out.depth() + 1, 2).unwrap();
                        assert_eq!(all, vec![out], "{what}");
                    }
                    Err(MachineError::NonTerminating { .. }) => looping += 1,
                    Err(MachineError::Nondeterministic { .. }) => nondet += 1,
                    Err(MachineError::StepLimit) => limit += 1,
                    Err(MachineError::Stuck { .. }) => stuck += 1,
                    Err(e) => panic!("{family} #{index} on {tree}: {e}"),
                }
            }
        }
    }
    assert_eq!(
        (ok, looping, nondet, limit, stuck),
        (60, 7, 362, 50, 383),
        "(ok, non-terminating, nondeterministic, step limit, stuck)"
    );
}

/// Near-universal #3 emits `g0(q1, q0)` from `q0` on every symbol, so its
/// output is infinite: the run ends at the step budget, with the pending
/// output on the heap, not on the call stack.
#[test]
fn unbounded_output_ends_at_the_step_budget() {
    let case = generate(SEED, Family::NearUniversal, 3)
        .compile()
        .expect("lowers");
    let tree = BinaryTree::parse("x0", &case.input).unwrap();
    assert!(matches!(
        eval_with_limit(&case.transducer, &tree, 100_000),
        Err(MachineError::StepLimit)
    ));
}
