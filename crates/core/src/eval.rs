//! Transducer evaluation and the Proposition 3.8 output-language automaton.

use crate::error::MachineError;
use crate::machine::{Action, Config, PebbleTransducer, StepResult};
use std::collections::VecDeque;
use xmltc_automata::{State, TdTa};
use xmltc_trees::tree::BinaryTreeBuilder;
use xmltc_trees::{Alphabet, BinaryTree, FxHashMap, NodeId, Symbol, TreeError};

/// Default step budget for [`eval`].
pub const DEFAULT_STEP_LIMIT: usize = 10_000_000;

/// Evaluates a *deterministic* transducer on `t`, producing the output tree.
///
/// Errors when the transducer is nondeterministic on this input
/// ([`MachineError::Nondeterministic`]), gets stuck
/// ([`MachineError::Stuck`]), loops without producing output
/// ([`MachineError::NonTerminating`]), or exceeds [`DEFAULT_STEP_LIMIT`]
/// total steps (use [`eval_with_limit`] for a custom budget — remember the
/// output can be exponentially larger than the input, Example 3.6).
pub fn eval(t: &PebbleTransducer, tree: &BinaryTree) -> Result<BinaryTree, MachineError> {
    eval_with_limit(t, tree, DEFAULT_STEP_LIMIT)
}

/// An output node under construction. The machine runs one branch at a
/// time; the others wait here, innermost last.
enum Frame {
    /// An `output2` node whose right branch has not started: the output
    /// symbol, the branch's state, and where its pebbles start in the
    /// pebble arena.
    Right(Symbol, State, usize),
    /// An `output2` node whose left child is built and whose right branch
    /// is running.
    Node(Symbol, NodeId),
}

/// Brent's cycle detection over one silent segment (the moves since the
/// last output): the machine is deterministic there, so it loops forever
/// iff a configuration repeats. One configuration is saved and compared
/// with every later one; it is replaced by the current one after 1, 2, 4,
/// … moves. Once the saved configuration lies on the cycle and the power
/// reaches the cycle's length, the cycle comes back to it, so a loop is
/// found within a constant factor of the moves it takes to close it.
struct Brent {
    state: State,
    pebbles: Vec<NodeId>,
    power: usize,
    moves: usize,
}

impl Brent {
    /// Starts a segment at configuration `(state, pebbles)`.
    fn start(&mut self, state: State, pebbles: &[NodeId]) {
        self.state = state;
        self.pebbles.clear();
        self.pebbles.extend_from_slice(pebbles);
        self.power = 1;
        self.moves = 0;
    }

    /// Records a move into `(state, pebbles)`; true when that
    /// configuration repeats the saved one.
    #[inline]
    fn repeats(&mut self, state: State, pebbles: &[NodeId]) -> bool {
        if state == self.state && pebbles == self.pebbles.as_slice() {
            return true;
        }
        self.moves += 1;
        if self.moves == self.power {
            let power = 2 * self.power;
            self.start(state, pebbles);
            self.power = power;
        }
        false
    }
}

/// [`eval`] with an explicit step budget.
///
/// Every rule application is one step. The machine runs on one pebble
/// stack updated in place; an `output2` saves the stack in a flat arena
/// for its right branch and runs the left one, so evaluation allocates
/// nothing per step and never recurses, whatever the size of the output.
pub fn eval_with_limit(
    t: &PebbleTransducer,
    tree: &BinaryTree,
    limit: usize,
) -> Result<BinaryTree, MachineError> {
    if !Alphabet::same(t.input_alphabet(), tree.alphabet()) {
        return Err(MachineError::Tree(TreeError::AlphabetMismatch));
    }
    let core = t.core();
    let name = |q: State| core.state_name(q).to_string();
    let mut builder = BinaryTreeBuilder::new(t.output_alphabet());
    let mut frames: Vec<Frame> = Vec::new();
    let mut arena: Vec<NodeId> = Vec::new();
    let mut pebbles: Vec<NodeId> = Vec::with_capacity(usize::from(t.k()));
    pebbles.push(tree.root());
    let mut state = core.initial();
    let mut brent = Brent {
        state,
        pebbles: pebbles.clone(),
        power: 1,
        moves: 0,
    };
    let mut steps = 0usize;
    loop {
        steps += 1;
        if steps > limit {
            return Err(MachineError::StepLimit);
        }
        let current = *pebbles.last().expect("configs have at least pebble 1");
        let mut fired = None;
        for (guard, action) in core.rules_at(state, tree.symbol(current)) {
            if !guard.matches(&pebbles, current) {
                continue;
            }
            let to = match *action {
                Action::Move(m, _) => match m.landing(tree, &pebbles) {
                    Some(to) => to,
                    None => continue,
                },
                _ => current,
            };
            if fired.is_some() {
                return Err(MachineError::Nondeterministic { state: name(state) });
            }
            fired = Some((action, to));
        }
        let Some((action, to)) = fired else {
            return Err(MachineError::Stuck { state: name(state) });
        };
        let mut done = match *action {
            Action::Move(m, q) => {
                m.make(&mut pebbles, to);
                state = q;
                if brent.repeats(state, &pebbles) {
                    return Err(MachineError::NonTerminating { state: name(state) });
                }
                continue;
            }
            Action::Output2(a, q1, q2) => {
                frames.push(Frame::Right(a, q2, arena.len()));
                arena.extend_from_slice(&pebbles);
                state = q1;
                brent.start(state, &pebbles);
                continue;
            }
            Action::Output0(a) => builder.leaf(a)?,
            Action::Branch0 | Action::Branch2(..) => {
                unreachable!("transducers have no branch transitions")
            }
        };
        // A subtree is complete: close the nodes it completes, up to the
        // innermost right branch still to run, and start that branch.
        loop {
            match frames.pop() {
                None => return Ok(builder.finish(done)),
                Some(Frame::Node(a, left)) => done = builder.node(a, left, done)?,
                Some(Frame::Right(a, q, at)) => {
                    frames.push(Frame::Node(a, done));
                    pebbles.clear();
                    pebbles.extend_from_slice(&arena[at..]);
                    arena.truncate(at);
                    state = q;
                    brent.start(state, &pebbles);
                    break;
                }
            }
        }
    }
}

/// **Proposition 3.8**: constructs, in time polynomial in `|tree|` (for
/// fixed `T`), a top-down tree automaton with silent transitions accepting
/// exactly `T(tree)` — the set of possible outputs of the (possibly
/// nondeterministic) transducer on this input.
///
/// States are the reachable configurations of `T` on `tree`; move
/// transitions become silent steps, `output2` becomes a branching
/// transition, `output0` becomes a final pair. The automaton doubles as a
/// DAG-sized encoding of the output set, which can be exponentially larger
/// than the input (Example 3.6) or even infinite.
pub fn output_automaton(t: &PebbleTransducer, tree: &BinaryTree) -> Result<TdTa, MachineError> {
    if !Alphabet::same(t.input_alphabet(), tree.alphabet()) {
        return Err(MachineError::Tree(TreeError::AlphabetMismatch));
    }
    let mut index: FxHashMap<Config, State> = FxHashMap::default();
    let mut queue: VecDeque<Config> = VecDeque::new();
    let init = t.core().initial_config(tree);
    let mut automaton = TdTa::new(t.output_alphabet(), 1, State(0));
    index.insert(init.clone(), State(0));
    queue.push_back(init);

    // Interns a configuration, allocating an automaton state on first sight.
    fn intern(
        cfg: Config,
        index: &mut FxHashMap<Config, State>,
        queue: &mut VecDeque<Config>,
        automaton: &mut TdTa,
    ) -> State {
        if let Some(&q) = index.get(&cfg) {
            return q;
        }
        let q = automaton.add_state();
        index.insert(cfg.clone(), q);
        queue.push_back(cfg);
        q
    }

    while let Some(cfg) = queue.pop_front() {
        let q = index[&cfg];
        for step in t.core().successors(tree, &cfg) {
            match step {
                StepResult::Moved(next) => {
                    let qn = intern(next, &mut index, &mut queue, &mut automaton);
                    automaton.add_silent_any(q, qn);
                }
                StepResult::Output0(a) => automaton.add_final_pair(a, q),
                StepResult::Output2(a, c1, c2) => {
                    let q1 = intern(c1, &mut index, &mut queue, &mut automaton);
                    let q2 = intern(c2, &mut index, &mut queue, &mut automaton);
                    automaton.add_transition(a, q, q1, q2);
                }
                StepResult::Branch0 | StepResult::Branch2(..) => {
                    unreachable!("transducers have no branch transitions")
                }
            }
        }
    }
    Ok(automaton)
}

/// Enumerates outputs of a (possibly nondeterministic) transducer on `tree`:
/// distinct trees of `T(tree)` with depth ≤ `max_depth`, at most `limit`.
pub fn outputs(
    t: &PebbleTransducer,
    tree: &BinaryTree,
    max_depth: usize,
    limit: usize,
) -> Result<Vec<BinaryTree>, MachineError> {
    let a = output_automaton(t, tree)?;
    Ok(xmltc_automata::enumerate::trees_up_to(
        &a.to_nta(),
        max_depth,
        limit,
    ))
}

/// Decision problem from Section 3.3: is `candidate ∈ T(tree)`? Polynomial
/// in `|tree|` and `|candidate|`.
pub fn is_output(
    t: &PebbleTransducer,
    tree: &BinaryTree,
    candidate: &BinaryTree,
) -> Result<bool, MachineError> {
    let a = output_automaton(t, tree)?;
    Ok(a.accepts(candidate)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::machine::{Guard, Move, SymSpec, TransducerBuilder};
    use std::sync::Arc;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f", "g"])
    }

    #[test]
    fn copy_transducer_is_identity() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        for src in ["x", "f(x, y)", "g(f(x, x), y)", "f(f(x, y), g(y, x))"] {
            let tree = BinaryTree::parse(src, &al).unwrap();
            let out = eval(&t, &tree).unwrap();
            assert_eq!(out.to_string(), tree.to_string(), "copy of {src}");
        }
    }

    #[test]
    fn output_automaton_accepts_exactly_the_output() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let tree = BinaryTree::parse("f(x, g(y, x))", &al).unwrap();
        let a = output_automaton(&t, &tree).unwrap();
        assert!(a.accepts(&tree).unwrap());
        let other = BinaryTree::parse("f(x, g(x, x))", &al).unwrap();
        assert!(!a.accepts(&other).unwrap());
        // And enumeration returns the single output.
        let outs = outputs(&t, &tree, 10, 10).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0], tree);
    }

    #[test]
    fn is_output_decision() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let tree = BinaryTree::parse("f(x, y)", &al).unwrap();
        assert!(is_output(&t, &tree, &tree).unwrap());
        let wrong = BinaryTree::parse("x", &al).unwrap();
        assert!(!is_output(&t, &tree, &wrong).unwrap());
    }

    #[test]
    fn step_limit_enforced() {
        let al = alpha();
        let t = library::copy(&al).unwrap();
        let tree = BinaryTree::parse("f(f(x, x), f(x, x))", &al).unwrap();
        assert!(matches!(
            eval_with_limit(&t, &tree, 3),
            Err(MachineError::StepLimit)
        ));
    }

    /// Builds a transducer over `alpha()` from `(symbol, state, action)`
    /// rules, `*` standing for every symbol. Its states are `{prefix}0` to
    /// `{prefix}{n - 1}`, the first initial; those from `split` on sit at
    /// level 2, and the machine then has two pebbles.
    fn machine(
        prefix: &str,
        n: usize,
        split: usize,
        rules: &[(&str, usize, Act)],
    ) -> PebbleTransducer {
        let al = alpha();
        let k = if split < n { 2 } else { 1 };
        let mut b = TransducerBuilder::new(&al, &al, k);
        let qs: Vec<State> = (0..n)
            .map(|i| {
                b.state(&format!("{prefix}{i}"), if i < split { 1 } else { 2 })
                    .unwrap()
            })
            .collect();
        b.set_initial(qs[0]);
        for &(sym, q, ref act) in rules {
            let spec = match sym {
                "*" => SymSpec::Any,
                name => SymSpec::One(al.get(name).unwrap()),
            };
            match *act {
                Act::Move(m, to) => b.move_rule(spec, qs[q], Guard::any(), m, qs[to]),
                Act::Out0(o) => b.output0(spec, qs[q], Guard::any(), al.get(o).unwrap()),
                Act::Out2(o, l, r) => {
                    b.output2(spec, qs[q], Guard::any(), al.get(o).unwrap(), qs[l], qs[r])
                }
            }
            .unwrap();
        }
        b.build().unwrap()
    }

    #[derive(Clone, Copy, Debug)]
    enum Act {
        Move(Move, usize),
        Out0(&'static str),
        Out2(&'static str, usize, usize),
    }

    fn run(t: &PebbleTransducer, src: &str, limit: usize) -> Result<String, MachineError> {
        let tree = BinaryTree::parse(src, t.input_alphabet()).unwrap();
        eval_with_limit(t, &tree, limit).map(|out| out.to_string())
    }

    /// The smallest budget under which `eval` succeeds: its step count.
    fn steps(t: &PebbleTransducer, src: &str) -> usize {
        let (mut lo, mut hi) = (1, 1 << 20);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if run(t, src, mid).is_ok() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn every_rule_application_is_one_step() {
        // Copy takes one step per output node and one per move down: 13
        // for this tree of 7 nodes and 6 edges, 1 for a leaf.
        let t = library::copy(&alpha()).unwrap();
        assert_eq!(steps(&t, "f(f(x, y), g(y, x))"), 13);
        assert_eq!(steps(&t, "x"), 1);
        assert!(matches!(
            run(&t, "f(f(x, y), g(y, x))", 12),
            Err(MachineError::StepLimit)
        ));
    }

    #[test]
    fn stuck_names_the_state_without_a_rule() {
        // q0 walks down-left into q1, which has no rule on `x`.
        let t = machine(
            "q",
            2,
            2,
            &[
                ("*", 0, Act::Move(Move::DownLeft, 1)),
                ("y", 1, Act::Out0("y")),
            ],
        );
        assert_eq!(run(&t, "f(y, x)", 100), Ok("y".into()));
        assert_eq!(
            run(&t, "f(x, y)", 100),
            Err(MachineError::Stuck { state: "q1".into() })
        );
    }

    #[test]
    fn nondeterministic_counts_only_applicable_rules() {
        // q1 has two rules on `x`, both applicable.
        let t = machine(
            "q",
            2,
            2,
            &[
                ("*", 0, Act::Move(Move::DownRight, 1)),
                ("x", 1, Act::Out0("x")),
                ("x", 1, Act::Move(Move::Stay, 0)),
                ("y", 1, Act::Out0("y")),
            ],
        );
        assert_eq!(run(&t, "f(x, y)", 100), Ok("y".into()));
        assert_eq!(
            run(&t, "f(y, x)", 100),
            Err(MachineError::Nondeterministic { state: "q1".into() })
        );
        // A move that cannot be made does not count: at the root only
        // down-left applies, at a left leaf only up-left.
        let t = machine(
            "q",
            2,
            2,
            &[
                ("f", 0, Act::Move(Move::DownLeft, 1)),
                ("f", 0, Act::Move(Move::UpLeft, 1)),
                ("x", 1, Act::Move(Move::UpLeft, 1)),
                ("x", 1, Act::Move(Move::DownLeft, 1)),
                ("f", 1, Act::Out0("y")),
            ],
        );
        assert_eq!(run(&t, "f(x, y)", 100), Ok("y".into()));
    }

    /// Loops are caught by Brent's method, which names a state on the
    /// cycle — the one in the configuration it saved, not necessarily the
    /// first state to repeat — and needs at most about three times the
    /// moves that first close the loop, so a budget that runs out in
    /// between wins.
    #[test]
    fn non_terminating_names_a_state_on_the_cycle() {
        // A stay cycle q2 → q3 → q4 → q2 after the prefix q0 → q1 → q2.
        let stay = |q: usize, to: usize| ("*", q, Act::Move(Move::Stay, to));
        let t = machine(
            "q",
            5,
            5,
            &[stay(0, 1), stay(1, 2), stay(2, 3), stay(3, 4), stay(4, 2)],
        );
        // The sixth move closes the loop a second time and finds it; the
        // fifth, which first repeats a configuration, does not.
        assert_eq!(
            run(&t, "x", 6),
            Err(MachineError::NonTerminating { state: "q3".into() })
        );
        assert_eq!(run(&t, "x", 5), Err(MachineError::StepLimit));
        // A down/up cycle between the root and its left child.
        let t = machine(
            "r",
            2,
            2,
            &[
                ("f", 0, Act::Move(Move::DownLeft, 1)),
                ("x", 1, Act::Move(Move::UpLeft, 0)),
            ],
        );
        assert_eq!(
            run(&t, "f(x, y)", 100),
            Err(MachineError::NonTerminating { state: "r1".into() })
        );
        assert_eq!(
            run(&t, "f(y, y)", 100),
            Err(MachineError::Stuck { state: "r1".into() })
        );
        // A cycle inside the right branch of an output2, after the left
        // branch has produced its leaf.
        let t = machine(
            "s",
            4,
            4,
            &[
                ("*", 0, Act::Out2("f", 1, 2)),
                ("*", 1, Act::Out0("x")),
                ("*", 2, Act::Move(Move::Stay, 3)),
                ("*", 3, Act::Move(Move::Stay, 2)),
            ],
        );
        assert_eq!(
            run(&t, "y", 100),
            Err(MachineError::NonTerminating { state: "s3".into() })
        );
        // Placing and picking a pebble changes the stack's height; the
        // configurations still repeat.
        let t = machine(
            "p",
            2,
            1,
            &[
                ("*", 0, Act::Move(Move::PlaceNew, 1)),
                ("*", 1, Act::Move(Move::PickCurrent, 0)),
            ],
        );
        assert_eq!(
            run(&t, "f(x, y)", 100),
            Err(MachineError::NonTerminating { state: "p1".into() })
        );
    }

    /// The right branch of an `output2` starts a segment of its own:
    /// passing through the configuration the left branch saved is no loop.
    #[test]
    fn each_branch_detects_loops_on_its_own() {
        let t = machine(
            "q",
            4,
            4,
            &[
                ("*", 0, Act::Out2("f", 1, 2)),
                ("*", 1, Act::Move(Move::Stay, 3)),
                ("*", 2, Act::Move(Move::Stay, 3)),
                ("*", 3, Act::Out0("x")),
            ],
        );
        assert_eq!(run(&t, "y", 100), Ok("f(x, x)".into()));
    }

    /// Shuffling the rules across (state, symbol) slots, each slot keeping
    /// its own order, changes neither the table nor anything read from it.
    #[test]
    fn rule_insertion_order_across_slots_changes_nothing() {
        let syms = ["x", "y", "f", "g"];
        let mut rng = xmltc_trees::SmallRng::seed_from_u64(0x0bde);
        for case in 0..64 {
            let n = rng.gen_range(2..6);
            let mut rules = Vec::new();
            for _ in 0..rng.gen_range(8..64) {
                let sym = *rng.choose(&syms);
                let q = rng.gen_range(0..n);
                let binary = sym == "f" || sym == "g";
                let act = match rng.gen_range(0..4) {
                    0 => Act::Out0(if rng.gen_bool(0.5) { "x" } else { "y" }),
                    1 => Act::Out2(
                        if binary { sym } else { "f" },
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                    ),
                    2 if binary => Act::Move(
                        if rng.gen_bool(0.5) {
                            Move::DownLeft
                        } else {
                            Move::DownRight
                        },
                        rng.gen_range(0..n),
                    ),
                    _ => Act::Move(
                        *rng.choose(&[Move::Stay, Move::UpLeft, Move::UpRight]),
                        rng.gen_range(0..n),
                    ),
                };
                rules.push((sym, q, act));
            }
            // Deal the slots' rule sequences out in a random interleaving.
            let slot = |r: &(&'static str, usize, Act)| (r.1, r.0);
            let mut order: Vec<_> = rules.iter().map(slot).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut taken = vec![false; rules.len()];
            let shuffled: Vec<_> = order
                .iter()
                .map(|&key| {
                    let i = (0..rules.len())
                        .find(|&i| !taken[i] && slot(&rules[i]) == key)
                        .unwrap();
                    taken[i] = true;
                    rules[i]
                })
                .collect();
            let (a, b) = (machine("q", n, n, &rules), machine("q", n, n, &shuffled));
            let listed = |t: &PebbleTransducer| -> Vec<_> {
                t.core()
                    .rules()
                    .map(|(s, q, g, act)| (s, q, g.clone(), act.clone()))
                    .collect()
            };
            assert_eq!(listed(&a), listed(&b), "case {case}");
            for src in ["x", "f(x, y)", "g(f(y, x), x)", "f(g(x, x), f(y, y))"] {
                let what = format!("case {case} on {src}");
                assert_eq!(run(&a, src, 500), run(&b, src, 500), "{what}");
                let automaton = |t: &PebbleTransducer| {
                    let tree = BinaryTree::parse(src, t.input_alphabet()).unwrap();
                    let outs = outputs(t, &tree, 6, 20).unwrap();
                    let outs: Vec<String> = outs.iter().map(BinaryTree::to_string).collect();
                    (output_automaton(t, &tree).unwrap(), outs)
                };
                let ((oa, outs_a), (ob, outs_b)) = (automaton(&a), automaton(&b));
                assert_eq!(outs_a, outs_b, "{what}");
                let shape = |o: &TdTa| {
                    let mut trans: Vec<_> = o.transitions().collect();
                    let mut finals: Vec<_> = o.final_pairs().collect();
                    trans.sort_unstable();
                    finals.sort_unstable();
                    (o.n_states(), o.n_transitions(), trans, finals)
                };
                assert_eq!(shape(&oa), shape(&ob), "{what}");
            }
        }
    }

    #[test]
    fn alphabet_mismatch() {
        let al = alpha();
        let other = alpha();
        let t = library::copy(&al).unwrap();
        let tree = BinaryTree::parse("x", &other).unwrap();
        assert!(eval(&t, &tree).is_err());
        assert!(output_automaton(&t, &tree).is_err());
    }
}
