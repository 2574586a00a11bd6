//! Guided replay: re-deriving a specific output tree through the real
//! transducer, recording the run.
//!
//! The typechecker's counterexample (`TypecheckOutcome::CounterExample`)
//! claims that on some valid input the transducer *can* produce a bad
//! output. [`guided_trace`] substantiates that claim by actually running
//! the machine: a backtracking search over the one-step semantics
//! ([`MachineCore::successors`](crate::machine::MachineCore::successors),
//! Definition 3.1) that only follows branches consistent with the target
//! tree. Success yields the full run — per-step state, pebble positions
//! and the rule fired — which is simultaneously the *replay proof* that
//! `target ∈ T(input)` (sound even for nondeterministic transducers, where
//! [`crate::eval::eval`] refuses to run) and the *annotated trace* shown
//! by `xmltc explain`.
//!
//! The search mirrors [`crate::eval`](mod@crate::eval)'s branch
//! structure: between two output actions the machine moves silently, so
//! failed configurations are memoized per silent segment (the remaining
//! obligation — the current output node — is constant there, making the
//! memo sound).

use crate::error::MachineError;
use crate::machine::{Config, PebbleTransducer, StepResult};
use xmltc_automata::witness::node_path;
use xmltc_trees::{Alphabet, BinaryTree, FxHashSet, NodeId, TreeError};

/// Default search budget (successor expansions) for [`guided_trace`].
pub const DEFAULT_TRACE_LIMIT: usize = 1_000_000;

/// One step of a replayed transducer run. All fields are rendered to
/// strings so the trace can cross crate boundaries into the obs report
/// without dragging machine internals along.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// State name before the step.
    pub state: String,
    /// Pebble level of that state (1-based).
    pub level: u8,
    /// Input symbol under the highest pebble.
    pub input_symbol: String,
    /// Node paths of the pebbles, lowest first.
    pub pebbles: Vec<String>,
    /// The rule fired, rendered.
    pub action: String,
    /// Path of the output node this step works toward.
    pub out_path: String,
}

/// Searches for a run of `t` on `input` producing exactly `target`,
/// returning the recorded steps, or `None` when `target ∉ T(input)`.
///
/// `limit` bounds the number of successor expansions explored (including
/// backtracked ones); exceeding it is [`MachineError::StepLimit`].
pub fn guided_trace(
    t: &PebbleTransducer,
    input: &BinaryTree,
    target: &BinaryTree,
    limit: usize,
) -> Result<Option<Vec<TraceStep>>, MachineError> {
    if !Alphabet::same(t.input_alphabet(), input.alphabet())
        || !Alphabet::same(t.output_alphabet(), target.alphabet())
    {
        return Err(MachineError::Tree(TreeError::AlphabetMismatch));
    }
    let mut steps = Vec::new();
    let mut budget = limit;
    let init = t.core().initial_config(input);
    let mut visited = FxHashSet::default();
    visited.insert(init.clone());
    let found = search(
        t,
        input,
        target,
        init,
        target.root(),
        "/",
        &mut visited,
        &mut steps,
        &mut budget,
    )?;
    Ok(if found { Some(steps) } else { None })
}

/// Tries every successor of `cfg` toward producing `target[out_node]`.
/// `visited` memoizes configurations that already failed (or are on the
/// current path) within this silent segment.
#[allow(clippy::too_many_arguments)]
fn search(
    t: &PebbleTransducer,
    input: &BinaryTree,
    target: &BinaryTree,
    cfg: Config,
    out_node: NodeId,
    out_path: &str,
    visited: &mut FxHashSet<Config>,
    steps: &mut Vec<TraceStep>,
    budget: &mut usize,
) -> Result<bool, MachineError> {
    if *budget == 0 {
        return Err(MachineError::StepLimit);
    }
    *budget -= 1;
    for step in t.core().successors(input, &cfg) {
        match step {
            StepResult::Moved(next) => {
                if !visited.insert(next.clone()) {
                    continue;
                }
                let mark = steps.len();
                steps.push(record(
                    t,
                    input,
                    &cfg,
                    move_action(t, input, &cfg, &next),
                    out_path,
                ));
                if search(
                    t, input, target, next, out_node, out_path, visited, steps, budget,
                )? {
                    return Ok(true);
                }
                // Backtrack the steps but keep `next` memoized: with the
                // same output obligation it can only fail again.
                steps.truncate(mark);
            }
            StepResult::Output0(a) => {
                if target.children(out_node).is_none() && target.symbol(out_node) == a {
                    let name = t.output_alphabet().name(a).to_string();
                    steps.push(record(t, input, &cfg, format!("output0 {name}"), out_path));
                    return Ok(true);
                }
            }
            StepResult::Output2(a, c1, c2) => {
                let Some((l, r)) = target.children(out_node) else {
                    continue;
                };
                if target.symbol(out_node) != a {
                    continue;
                }
                let mark = steps.len();
                let action = format!(
                    "output2 {} -> ({}, {})",
                    t.output_alphabet().name(a),
                    t.core().state_name(c1.state),
                    t.core().state_name(c2.state)
                );
                steps.push(record(t, input, &cfg, action, out_path));
                let lp = child_path(out_path, 'L');
                let rp = child_path(out_path, 'R');
                let mut vl = FxHashSet::default();
                vl.insert(c1.clone());
                let mut done = search(t, input, target, c1, l, &lp, &mut vl, steps, budget)?;
                if done {
                    let mut vr = FxHashSet::default();
                    vr.insert(c2.clone());
                    done = search(t, input, target, c2, r, &rp, &mut vr, steps, budget)?;
                }
                if done {
                    return Ok(true);
                }
                steps.truncate(mark);
            }
            StepResult::Branch0 | StepResult::Branch2(..) => {
                unreachable!("transducers have no branch transitions")
            }
        }
    }
    Ok(false)
}

fn child_path(out_path: &str, side: char) -> String {
    if out_path == "/" {
        format!("/{side}")
    } else {
        format!("{out_path}/{side}")
    }
}

fn record(
    t: &PebbleTransducer,
    input: &BinaryTree,
    cfg: &Config,
    action: String,
    out_path: &str,
) -> TraceStep {
    TraceStep {
        state: t.core().state_name(cfg.state).to_string(),
        level: t.core().level(cfg.state),
        input_symbol: t
            .input_alphabet()
            .name(input.symbol(cfg.current()))
            .to_string(),
        pebbles: cfg.pebbles.iter().map(|&n| node_path(input, n)).collect(),
        action,
        out_path: out_path.to_string(),
    }
}

fn move_action(t: &PebbleTransducer, input: &BinaryTree, cfg: &Config, next: &Config) -> String {
    let q = t.core().state_name(next.state);
    let at = node_path(input, next.current());
    match next.pebbles.len().cmp(&cfg.pebbles.len()) {
        std::cmp::Ordering::Greater => {
            format!("place pebble {} -> {q} @ {at}", next.pebbles.len())
        }
        std::cmp::Ordering::Less => {
            format!("pick pebble {} -> {q} @ {at}", cfg.pebbles.len())
        }
        std::cmp::Ordering::Equal => format!("move -> {q} @ {at}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::library;
    use std::sync::Arc;
    use xmltc_trees::Alphabet;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f", "g"])
    }

    #[test]
    fn trace_reproduces_the_deterministic_output() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let input = BinaryTree::parse("f(x, g(y, x))", &al).unwrap();
        let out = eval(&t, &input).unwrap();
        let trace = guided_trace(&t, &input, &out, DEFAULT_TRACE_LIMIT)
            .unwrap()
            .expect("the evaluated output must replay");
        // One output step per output node, plus the moves between them.
        let output_steps = trace
            .iter()
            .filter(|s| s.action.starts_with("output"))
            .count();
        assert_eq!(output_steps, out.len());
        // The first step starts at the initial state on the input root.
        assert_eq!(trace[0].pebbles, vec!["/".to_string()]);
        assert_eq!(trace[0].out_path, "/");
    }

    #[test]
    fn wrong_target_is_refused() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let input = BinaryTree::parse("f(x, y)", &al).unwrap();
        let wrong = BinaryTree::parse("f(y, y)", &al).unwrap();
        assert!(guided_trace(&t, &input, &wrong, DEFAULT_TRACE_LIMIT)
            .unwrap()
            .is_none());
    }

    #[test]
    fn budget_exhaustion_is_an_error() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let input = BinaryTree::parse("f(x, y)", &al).unwrap();
        let out = eval(&t, &input).unwrap();
        assert!(matches!(
            guided_trace(&t, &input, &out, 1),
            Err(MachineError::StepLimit)
        ));
    }
}
