//! Machine definitions: states, guards, actions, builders, and one-step
//! semantics shared by transducers and automata.

use crate::error::MachineError;
use std::sync::Arc;
use xmltc_automata::State;
use xmltc_trees::{Alphabet, BinaryTree, ChildSide, NodeId, Rank, Symbol};

/// A move-transition direction (Definition 3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Move {
    /// Keep the current pebble in place, change state only.
    Stay,
    /// Move the current pebble to the left child.
    DownLeft,
    /// Move the current pebble to the right child.
    DownRight,
    /// Move the current pebble to the parent — applicable only when the
    /// current node is a *left* child (this is how the machine senses which
    /// side it came from).
    UpLeft,
    /// Move up from a *right* child.
    UpRight,
    /// Place pebble `i+1` on the root; it becomes the current pebble.
    PlaceNew,
    /// Remove the current pebble `i > 1`; pebble `i-1` becomes current.
    PickCurrent,
}

impl Move {
    /// The node that is current after the move from the pebble stack
    /// `pebbles` (the current pebble last) on `t`, or `None` when the move
    /// cannot be made there: a walk's destination, the root for
    /// `PlaceNew`, and the node of the pebble below for `PickCurrent`.
    #[inline]
    pub(crate) fn landing(self, t: &BinaryTree, pebbles: &[NodeId]) -> Option<NodeId> {
        let current = *pebbles.last().expect("configs have at least pebble 1");
        match self {
            Move::Stay => Some(current),
            Move::DownLeft => t.children(current).map(|(l, _)| l),
            Move::DownRight => t.children(current).map(|(_, r)| r),
            Move::UpLeft => match t.parent(current)? {
                (parent, ChildSide::Left) => Some(parent),
                _ => None,
            },
            Move::UpRight => match t.parent(current)? {
                (parent, ChildSide::Right) => Some(parent),
                _ => None,
            },
            Move::PlaceNew => Some(t.root()),
            Move::PickCurrent => pebbles.len().checked_sub(2).map(|i| pebbles[i]),
        }
    }

    /// Makes the move on the pebble stack in place, given its
    /// [`landing`](Move::landing) node.
    #[inline]
    pub(crate) fn make(self, pebbles: &mut Vec<NodeId>, to: NodeId) {
        match self {
            Move::PlaceNew => pebbles.push(to),
            Move::PickCurrent => {
                pebbles.pop();
            }
            _ => *pebbles.last_mut().expect("configs have at least pebble 1") = to,
        }
    }
}

/// A per-pebble presence test in a guard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Presence {
    /// Don't care.
    Any,
    /// The pebble must sit on the current node (`bⱼ = 1`).
    Present,
    /// The pebble must not sit on the current node (`bⱼ = 0`).
    Absent,
}

/// A guard over the lower pebbles: entry `j` constrains pebble `j+1`
/// (1-based pebble `j+1`, i.e. the paper's `b_{j+1}`). Entries beyond the
/// vector's length are `Any`. A state of level `i` may constrain pebbles
/// `1..i-1` only.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Guard(pub Vec<Presence>);

impl Guard {
    /// The trivial guard (all `Any`).
    pub fn any() -> Guard {
        Guard(Vec::new())
    }

    /// Guard requiring pebble `j` (1-based) to be present on the current
    /// node.
    pub fn present(j: usize) -> Guard {
        let mut v = vec![Presence::Any; j];
        v[j - 1] = Presence::Present;
        Guard(v)
    }

    /// Guard requiring pebble `j` (1-based) to be absent from the current
    /// node.
    pub fn absent(j: usize) -> Guard {
        let mut v = vec![Presence::Any; j];
        v[j - 1] = Presence::Absent;
        Guard(v)
    }

    /// Does the guard match the given pebble positions at `current`?
    /// `positions` holds pebbles `1..=i`; the guard constrains `1..i`.
    pub fn matches(&self, positions: &[NodeId], current: NodeId) -> bool {
        self.0.iter().enumerate().all(|(j, p)| match p {
            Presence::Any => true,
            Presence::Present => positions.get(j) == Some(&current),
            Presence::Absent => positions.get(j) != Some(&current),
        })
    }
}

/// The action of a rule.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// A move transition entering the given state.
    Move(Move, State),
    /// Transducer: emit a leaf labeled with the output symbol; the branch
    /// halts.
    Output0(Symbol),
    /// Transducer: emit a binary output node and spawn two branches
    /// computing its children; both inherit all pebble positions.
    Output2(Symbol, State, State),
    /// Automaton: accept this branch.
    Branch0,
    /// Automaton: fork into two branches (and-alternation); the input head
    /// does not move.
    Branch2(State, State),
}

/// Selects which input symbols a rule covers, resolved at build time.
#[derive(Clone, Debug)]
pub enum SymSpec {
    /// A single symbol.
    One(Symbol),
    /// Every leaf symbol (`Σ₀`).
    Leaves,
    /// Every binary symbol (`Σ₂`).
    Binaries,
    /// Every symbol.
    Any,
    /// An explicit list.
    AnyOf(Vec<Symbol>),
    /// Every symbol except the listed ones.
    AllExcept(Vec<Symbol>),
}

impl SymSpec {
    fn resolve(&self, alphabet: &Alphabet) -> Vec<Symbol> {
        match self {
            SymSpec::One(s) => vec![*s],
            SymSpec::Leaves => alphabet.leaves(),
            SymSpec::Binaries => alphabet.binaries(),
            SymSpec::Any => alphabet.symbols().collect(),
            SymSpec::AnyOf(v) => v.clone(),
            SymSpec::AllExcept(v) => alphabet.symbols().filter(|s| !v.contains(s)).collect(),
        }
    }
}

/// A machine configuration `γ = (i, q⁽ⁱ⁾, x̄)`: the state determines the
/// level `i`, and `pebbles` holds the positions of pebbles `1..=i` (the
/// last entry is the current node).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Config {
    /// The machine state.
    pub state: State,
    /// Positions of pebbles `1..=level(state)`.
    pub pebbles: Vec<NodeId>,
}

impl Config {
    /// The node under the current pebble.
    pub fn current(&self) -> NodeId {
        *self.pebbles.last().expect("configs have at least pebble 1")
    }
}

/// One-step successor of a configuration.
#[derive(Clone, Debug)]
pub enum StepResult {
    /// A move transition produced a new configuration.
    Moved(Config),
    /// `output0`: a leaf is emitted; the branch halts.
    Output0(Symbol),
    /// `output2`: a binary node is emitted; two branches continue.
    Output2(Symbol, Config, Config),
    /// `branch0`: the branch accepts.
    Branch0,
    /// `branch2`: the branch forks.
    Branch2(Config, Config),
}

/// The state/rule core shared by transducers and automata.
///
/// The rules form one table, built once by the builder: every rule in
/// (state, symbol) order, each slot's rules in insertion order, and the
/// start of every slot's run. So [`MachineCore::rules_at`] is two loads
/// and a slice, and [`MachineCore::rules`] lists the rules in that
/// canonical order whatever order they were added in.
#[derive(Clone, Debug)]
pub struct MachineCore {
    input: Arc<Alphabet>,
    k: u8,
    levels: Vec<u8>,
    names: Vec<String>,
    initial: State,
    rules: Vec<(Guard, Action)>,
    /// `rules[slots[s]..slots[s + 1]]` are the rules of state `q` on
    /// symbol `a` for slot `s = q·|Σ| + a`.
    slots: Vec<u32>,
}

impl MachineCore {
    /// The input alphabet.
    pub fn input_alphabet(&self) -> &Arc<Alphabet> {
        &self.input
    }

    /// The number of pebbles `k`.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// Number of states.
    pub fn n_states(&self) -> u32 {
        self.levels.len() as u32
    }

    /// The level (`1..=k`) of a state.
    pub fn level(&self, q: State) -> u8 {
        self.levels[q.index()]
    }

    /// The state's name.
    pub fn state_name(&self, q: State) -> &str {
        &self.names[q.index()]
    }

    /// The initial state (level 1).
    pub fn initial(&self) -> State {
        self.initial
    }

    /// Total number of rules.
    pub fn n_rules(&self) -> usize {
        self.rules.len()
    }

    /// The rules of state `q` on symbol `a`, in the order they were added.
    #[inline]
    pub fn rules_at(&self, q: State, a: Symbol) -> &[(Guard, Action)] {
        let s = q.index() * self.input.len() + a.index();
        &self.rules[self.slots[s] as usize..self.slots[s + 1] as usize]
    }

    /// The rules of state `q` as `(symbol, guard, action)`, by symbol.
    pub fn state_rules(&self, q: State) -> impl Iterator<Item = (Symbol, &Guard, &Action)> + '_ {
        let sigma = self.input.len();
        let slots = &self.slots[q.index() * sigma..=(q.index() + 1) * sigma];
        slots.windows(2).enumerate().flat_map(move |(a, w)| {
            self.rules[w[0] as usize..w[1] as usize]
                .iter()
                .map(move |(g, act)| (Symbol(a as u32), g, act))
        })
    }

    /// Iterates over all rules as `(symbol, state, guard, action)`, in
    /// (state, symbol) order.
    pub fn rules(&self) -> impl Iterator<Item = (Symbol, State, &Guard, &Action)> + '_ {
        (0..self.n_states())
            .map(State)
            .flat_map(move |q| self.state_rules(q).map(move |(a, g, act)| (a, q, g, act)))
    }

    /// The initial configuration on `t`: pebble 1 on the root, initial
    /// state.
    pub fn initial_config(&self, t: &BinaryTree) -> Config {
        Config {
            state: self.initial,
            pebbles: vec![t.root()],
        }
    }

    /// All one-step successors of `cfg` on `t` (one entry per applicable
    /// rule; move transitions whose direction is impossible are skipped, as
    /// per the paper: "if a move in the specified direction is not
    /// possible, the transition does not apply").
    pub fn successors(&self, t: &BinaryTree, cfg: &Config) -> Vec<StepResult> {
        let current = cfg.current();
        let with = |state: State| Config {
            state,
            pebbles: cfg.pebbles.clone(),
        };
        let mut out = Vec::new();
        for (guard, action) in self.rules_at(cfg.state, t.symbol(current)) {
            if !guard.matches(&cfg.pebbles, current) {
                continue;
            }
            out.push(match *action {
                Action::Move(m, q) => {
                    let Some(to) = m.landing(t, &cfg.pebbles) else {
                        continue;
                    };
                    let mut next = with(q);
                    m.make(&mut next.pebbles, to);
                    StepResult::Moved(next)
                }
                Action::Output0(a) => StepResult::Output0(a),
                Action::Output2(a, q1, q2) => StepResult::Output2(a, with(q1), with(q2)),
                Action::Branch0 => StepResult::Branch0,
                Action::Branch2(q1, q2) => StepResult::Branch2(with(q1), with(q2)),
            });
        }
        out
    }
}

/// A k-pebble tree transducer `T = (Σ, Σ', Q, q₀, P)` (Definition 3.1).
#[derive(Clone, Debug)]
pub struct PebbleTransducer {
    core: MachineCore,
    output: Arc<Alphabet>,
}

impl PebbleTransducer {
    /// The shared machine core (states, rules, step semantics).
    pub fn core(&self) -> &MachineCore {
        &self.core
    }

    /// The output alphabet `Σ'`.
    pub fn output_alphabet(&self) -> &Arc<Alphabet> {
        &self.output
    }

    /// The input alphabet `Σ`.
    pub fn input_alphabet(&self) -> &Arc<Alphabet> {
        self.core.input_alphabet()
    }

    /// The number of pebbles.
    pub fn k(&self) -> u8 {
        self.core.k()
    }
}

/// A k-pebble tree automaton (Definition 4.5): a transducer whose output
/// transitions are replaced by `branch0` / `branch2`.
#[derive(Clone, Debug)]
pub struct PebbleAutomaton {
    core: MachineCore,
}

impl PebbleAutomaton {
    /// The shared machine core.
    pub fn core(&self) -> &MachineCore {
        &self.core
    }

    /// The input alphabet.
    pub fn input_alphabet(&self) -> &Arc<Alphabet> {
        self.core.input_alphabet()
    }

    /// The number of pebbles.
    pub fn k(&self) -> u8 {
        self.core.k()
    }

    /// Removes states unreachable in the rule graph (a tree-independent
    /// over-approximation of configuration reachability), renumbering the
    /// rest. Sound: a configuration `(q, x̄)` can only arise if `q` is
    /// rule-graph reachable from the initial state. Products built by the
    /// Proposition 4.6 construction shrink substantially under this trim.
    pub fn trim_states(&self) -> PebbleAutomaton {
        let core = &self.core;
        let n = core.n_states() as usize;
        let mut reach = vec![false; n];
        reach[core.initial.index()] = true;
        let mut stack = vec![core.initial];
        while let Some(q) = stack.pop() {
            for (_, _, action) in core.state_rules(q) {
                let targets = match *action {
                    Action::Move(_, t) => [Some(t), None],
                    Action::Branch2(a, b) => [Some(a), Some(b)],
                    _ => [None, None],
                };
                for t in targets.into_iter().flatten() {
                    if !reach[t.index()] {
                        reach[t.index()] = true;
                        stack.push(t);
                    }
                }
            }
        }
        let mut remap: Vec<Option<State>> = vec![None; n];
        let mut levels = Vec::new();
        let mut names = Vec::new();
        for i in 0..n {
            if reach[i] {
                remap[i] = Some(State(levels.len() as u32));
                levels.push(core.levels[i]);
                names.push(core.names[i].clone());
            }
        }
        // The renumbering keeps the states' order, so the rules stay in
        // (state, symbol) order.
        let sigma = core.input.len();
        let (mut keys, mut rules) = (Vec::new(), Vec::new());
        for (sym, q, guard, action) in core.rules() {
            let Some(nq) = remap[q.index()] else { continue };
            let new_action = match action {
                Action::Move(m, t) => match remap[t.index()] {
                    Some(nt) => Action::Move(*m, nt),
                    None => continue,
                },
                Action::Branch2(a, b) => match (remap[a.index()], remap[b.index()]) {
                    (Some(na), Some(nb)) => Action::Branch2(na, nb),
                    _ => continue,
                },
                other => other.clone(),
            };
            keys.push(nq.index() * sigma + sym.index());
            rules.push((guard.clone(), new_action));
        }
        let (rules, slots) = rule_table(keys, rules, levels.len() * sigma);
        PebbleAutomaton {
            core: MachineCore {
                input: Arc::clone(&core.input),
                k: core.k,
                levels,
                names,
                initial: remap[core.initial.index()].expect("initial is reachable"),
                rules,
                slots,
            },
        }
    }
}

/// Lays rules out as [`MachineCore`]'s table. `keys[i]` is rule `i`'s slot
/// `q·|Σ| + a`; the rules are sorted by slot, stably so that each slot
/// keeps its insertion order, but only when they are not in order already.
fn rule_table(
    keys: Vec<usize>,
    rules: Vec<(Guard, Action)>,
    n_slots: usize,
) -> (Vec<(Guard, Action)>, Vec<u32>) {
    let (keys, rules) = if keys.windows(2).all(|w| w[0] <= w[1]) {
        (keys, rules)
    } else {
        let mut keyed: Vec<_> = keys.into_iter().zip(rules).collect();
        keyed.sort_by_key(|&(key, _)| key);
        keyed.into_iter().unzip()
    };
    let mut slots = vec![0u32; n_slots + 1];
    for &key in &keys {
        slots[key + 1] += 1;
    }
    for s in 1..slots.len() {
        slots[s] += slots[s - 1];
    }
    (rules, slots)
}

struct BuilderCore {
    input: Arc<Alphabet>,
    k: u8,
    levels: Vec<u8>,
    names: Vec<String>,
    initial: Option<State>,
    /// Each rule's slot `q·|Σ| + a`, beside `rules`.
    keys: Vec<usize>,
    rules: Vec<(Guard, Action)>,
}

impl BuilderCore {
    fn new(input: &Arc<Alphabet>, k: u8) -> BuilderCore {
        BuilderCore {
            input: Arc::clone(input),
            k,
            levels: Vec::new(),
            names: Vec::new(),
            initial: None,
            keys: Vec::new(),
            rules: Vec::new(),
        }
    }

    fn state(&mut self, name: &str, level: u8) -> Result<State, MachineError> {
        if level == 0 || level > self.k {
            return Err(MachineError::IllTyped(format!(
                "state `{name}` declared at level {level}, but k = {}",
                self.k
            )));
        }
        let q = State(self.levels.len() as u32);
        self.levels.push(level);
        self.names.push(name.to_string());
        Ok(q)
    }

    fn check_state(&self, q: State) -> Result<(), MachineError> {
        if q.index() >= self.levels.len() {
            return Err(MachineError::IllTyped(format!("unknown state {q:?}")));
        }
        Ok(())
    }

    fn check_move(&self, q: State, m: Move, target: State) -> Result<(), MachineError> {
        self.check_state(q)?;
        self.check_state(target)?;
        let lq = self.levels[q.index()];
        let lt = self.levels[target.index()];
        let ok = match m {
            Move::Stay | Move::DownLeft | Move::DownRight | Move::UpLeft | Move::UpRight => {
                lq == lt
            }
            Move::PlaceNew => lt == lq + 1 && lt <= self.k,
            Move::PickCurrent => lq >= 2 && lt == lq - 1,
        };
        if !ok {
            return Err(MachineError::IllTyped(format!(
                "move {m:?} from `{}` (level {lq}) to `{}` (level {lt}) violates the stack discipline",
                self.names[q.index()],
                self.names[target.index()],
            )));
        }
        Ok(())
    }

    fn check_guard(&self, q: State, guard: &Guard) -> Result<(), MachineError> {
        let lq = self.levels[q.index()] as usize;
        if guard.0.len() > lq - 1 {
            return Err(MachineError::IllTyped(format!(
                "guard on `{}` (level {lq}) tests pebble {} — only pebbles 1..{} may be tested",
                self.names[q.index()],
                guard.0.len(),
                lq - 1
            )));
        }
        Ok(())
    }

    fn check_same_level(&self, q: State, q1: State, q2: State) -> Result<(), MachineError> {
        self.check_state(q)?;
        self.check_state(q1)?;
        self.check_state(q2)?;
        let l = self.levels[q.index()];
        if self.levels[q1.index()] != l || self.levels[q2.index()] != l {
            return Err(MachineError::IllTyped(format!(
                "spawned branches of `{}` must stay at level {l}",
                self.names[q.index()]
            )));
        }
        Ok(())
    }

    fn add_rule(
        &mut self,
        spec: &SymSpec,
        q: State,
        guard: Guard,
        action: Action,
    ) -> Result<(), MachineError> {
        self.check_state(q)?;
        self.check_guard(q, &guard)?;
        let sigma = self.input.len();
        let foreign = match spec {
            SymSpec::One(a) => a.index() >= sigma,
            SymSpec::AnyOf(v) => v.iter().any(|a| a.index() >= sigma),
            _ => false,
        };
        if foreign {
            return Err(MachineError::IllTyped(format!(
                "a rule of `{}` reads a symbol outside the input alphabet",
                self.names[q.index()]
            )));
        }
        let slot = |a: Symbol| q.index() * sigma + a.index();
        if let SymSpec::One(a) = *spec {
            self.keys.push(slot(a));
            self.rules.push((guard, action));
            return Ok(());
        }
        for a in spec.resolve(&self.input) {
            self.keys.push(slot(a));
            self.rules.push((guard.clone(), action.clone()));
        }
        Ok(())
    }

    fn finish(self) -> Result<MachineCore, MachineError> {
        let initial = self
            .initial
            .ok_or_else(|| MachineError::IllTyped("no initial state set".into()))?;
        if self.levels[initial.index()] != 1 {
            return Err(MachineError::IllTyped(
                "the initial state must be at level 1".into(),
            ));
        }
        let n_slots = self.levels.len() * self.input.len();
        let (rules, slots) = rule_table(self.keys, self.rules, n_slots);
        Ok(MachineCore {
            input: self.input,
            k: self.k,
            levels: self.levels,
            names: self.names,
            initial,
            rules,
            slots,
        })
    }
}

/// Builder for [`PebbleTransducer`]s; all rules are validated against the
/// stack discipline, level typing, and output-alphabet ranks as they are
/// added.
pub struct TransducerBuilder {
    core: BuilderCore,
    output: Arc<Alphabet>,
}

impl TransducerBuilder {
    /// Starts a transducer with the given alphabets and pebble count.
    pub fn new(input: &Arc<Alphabet>, output: &Arc<Alphabet>, k: u8) -> TransducerBuilder {
        TransducerBuilder {
            core: BuilderCore::new(input, k),
            output: Arc::clone(output),
        }
    }

    /// Declares a state at the given pebble level (1-based).
    pub fn state(&mut self, name: &str, level: u8) -> Result<State, MachineError> {
        self.core.state(name, level)
    }

    /// Sets the initial state (must be level 1).
    pub fn set_initial(&mut self, q: State) {
        self.core.initial = Some(q);
    }

    /// Adds a move rule `(a, guard, q) → (target, m)`.
    pub fn move_rule(
        &mut self,
        spec: SymSpec,
        q: State,
        guard: Guard,
        m: Move,
        target: State,
    ) -> Result<(), MachineError> {
        self.core.check_move(q, m, target)?;
        self.core.add_rule(&spec, q, guard, Action::Move(m, target))
    }

    /// Adds an output rule `(a, guard, q) → (a'₀, output0)`.
    pub fn output0(
        &mut self,
        spec: SymSpec,
        q: State,
        guard: Guard,
        out: Symbol,
    ) -> Result<(), MachineError> {
        if self.output.rank(out) != Rank::Leaf {
            return Err(MachineError::IllTyped(format!(
                "output0 symbol `{}` is not a leaf symbol of Σ'",
                self.output.name(out)
            )));
        }
        self.core.add_rule(&spec, q, guard, Action::Output0(out))
    }

    /// Adds an output rule `(a, guard, q) → (a'₂(q₁, q₂), output2)`.
    pub fn output2(
        &mut self,
        spec: SymSpec,
        q: State,
        guard: Guard,
        out: Symbol,
        q1: State,
        q2: State,
    ) -> Result<(), MachineError> {
        if self.output.rank(out) != Rank::Binary {
            return Err(MachineError::IllTyped(format!(
                "output2 symbol `{}` is not a binary symbol of Σ'",
                self.output.name(out)
            )));
        }
        self.core.check_same_level(q, q1, q2)?;
        self.core
            .add_rule(&spec, q, guard, Action::Output2(out, q1, q2))
    }

    /// Finalizes the transducer.
    pub fn build(self) -> Result<PebbleTransducer, MachineError> {
        Ok(PebbleTransducer {
            core: self.core.finish()?,
            output: self.output,
        })
    }
}

/// Rule-construction operations common to [`TransducerBuilder`] and
/// [`AutomatonBuilder`], so that reusable "subroutines" (like the pre-order
/// traversal of Example 3.4) can be spliced into either machine kind.
pub trait BuildRules {
    /// Declares a state at the given pebble level.
    fn mk_state(&mut self, name: &str, level: u8) -> Result<State, MachineError>;
    /// Adds a move rule.
    fn mk_move(
        &mut self,
        spec: SymSpec,
        q: State,
        guard: Guard,
        m: Move,
        target: State,
    ) -> Result<(), MachineError>;
}

impl BuildRules for TransducerBuilder {
    fn mk_state(&mut self, name: &str, level: u8) -> Result<State, MachineError> {
        self.state(name, level)
    }
    fn mk_move(
        &mut self,
        spec: SymSpec,
        q: State,
        guard: Guard,
        m: Move,
        target: State,
    ) -> Result<(), MachineError> {
        self.move_rule(spec, q, guard, m, target)
    }
}

/// Builder for [`PebbleAutomaton`]s.
pub struct AutomatonBuilder {
    core: BuilderCore,
}

impl AutomatonBuilder {
    /// Starts an automaton with the given input alphabet and pebble count.
    pub fn new(input: &Arc<Alphabet>, k: u8) -> AutomatonBuilder {
        AutomatonBuilder {
            core: BuilderCore::new(input, k),
        }
    }

    /// Declares a state at the given pebble level (1-based).
    pub fn state(&mut self, name: &str, level: u8) -> Result<State, MachineError> {
        self.core.state(name, level)
    }

    /// Sets the initial state (must be level 1).
    pub fn set_initial(&mut self, q: State) {
        self.core.initial = Some(q);
    }

    /// Adds a move rule.
    pub fn move_rule(
        &mut self,
        spec: SymSpec,
        q: State,
        guard: Guard,
        m: Move,
        target: State,
    ) -> Result<(), MachineError> {
        self.core.check_move(q, m, target)?;
        self.core.add_rule(&spec, q, guard, Action::Move(m, target))
    }

    /// Adds an accepting rule `(a, guard, q) → branch0`.
    pub fn branch0(&mut self, spec: SymSpec, q: State, guard: Guard) -> Result<(), MachineError> {
        self.core.add_rule(&spec, q, guard, Action::Branch0)
    }

    /// Adds a forking rule `(a, guard, q) → ((q₁, q₂), branch2)`.
    pub fn branch2(
        &mut self,
        spec: SymSpec,
        q: State,
        guard: Guard,
        q1: State,
        q2: State,
    ) -> Result<(), MachineError> {
        self.core.check_same_level(q, q1, q2)?;
        self.core.add_rule(&spec, q, guard, Action::Branch2(q1, q2))
    }

    /// Finalizes the automaton.
    pub fn build(self) -> Result<PebbleAutomaton, MachineError> {
        Ok(PebbleAutomaton {
            core: self.core.finish()?,
        })
    }
}

impl BuildRules for AutomatonBuilder {
    fn mk_state(&mut self, name: &str, level: u8) -> Result<State, MachineError> {
        self.state(name, level)
    }
    fn mk_move(
        &mut self,
        spec: SymSpec,
        q: State,
        guard: Guard,
        m: Move,
        target: State,
    ) -> Result<(), MachineError> {
        self.move_rule(spec, q, guard, m, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphas() -> (Arc<Alphabet>, Arc<Alphabet>) {
        (
            Alphabet::ranked(&["x", "y"], &["f"]),
            Alphabet::ranked(&["x", "y"], &["f"]),
        )
    }

    #[test]
    fn level_typing_enforced() {
        let (i, o) = alphas();
        let mut b = TransducerBuilder::new(&i, &o, 2);
        let q1 = b.state("q1", 1).unwrap();
        let q2 = b.state("q2", 2).unwrap();
        // place must go one level up.
        assert!(b
            .move_rule(SymSpec::Any, q1, Guard::any(), Move::PlaceNew, q2)
            .is_ok());
        assert!(b
            .move_rule(SymSpec::Any, q1, Guard::any(), Move::PlaceNew, q1)
            .is_err());
        // pick must go one level down, and never from level 1.
        assert!(b
            .move_rule(SymSpec::Any, q2, Guard::any(), Move::PickCurrent, q1)
            .is_ok());
        assert!(b
            .move_rule(SymSpec::Any, q1, Guard::any(), Move::PickCurrent, q1)
            .is_err());
        // plain moves stay on level.
        assert!(b
            .move_rule(SymSpec::Any, q1, Guard::any(), Move::DownLeft, q2)
            .is_err());
    }

    #[test]
    fn state_level_bounds() {
        let (i, o) = alphas();
        let mut b = TransducerBuilder::new(&i, &o, 1);
        assert!(b.state("ok", 1).is_ok());
        assert!(b.state("bad", 2).is_err());
        assert!(b.state("bad0", 0).is_err());
    }

    #[test]
    fn guards_limited_to_lower_pebbles() {
        let (i, o) = alphas();
        let mut b = TransducerBuilder::new(&i, &o, 2);
        let q1 = b.state("q1", 1).unwrap();
        let q2 = b.state("q2", 2).unwrap();
        // level 1: no guard allowed.
        assert!(b
            .move_rule(SymSpec::Any, q1, Guard::present(1), Move::Stay, q1)
            .is_err());
        // level 2: pebble 1 may be tested.
        assert!(b
            .move_rule(SymSpec::Any, q2, Guard::present(1), Move::Stay, q2)
            .is_ok());
    }

    #[test]
    fn output_rank_checked() {
        let (i, o) = alphas();
        let mut b = TransducerBuilder::new(&i, &o, 1);
        let q = b.state("q", 1).unwrap();
        let x = o.get("x").unwrap();
        let f = o.get("f").unwrap();
        assert!(b.output0(SymSpec::Any, q, Guard::any(), x).is_ok());
        assert!(b.output0(SymSpec::Any, q, Guard::any(), f).is_err());
        assert!(b.output2(SymSpec::Any, q, Guard::any(), f, q, q).is_ok());
        assert!(b.output2(SymSpec::Any, q, Guard::any(), x, q, q).is_err());
    }

    #[test]
    fn initial_must_be_level_one() {
        let (i, _) = alphas();
        let mut b = AutomatonBuilder::new(&i, 2);
        let q2 = b.state("q2", 2).unwrap();
        b.set_initial(q2);
        assert!(b.build().is_err());
        let mut b = AutomatonBuilder::new(&i, 2);
        let _ = b.state("x", 1).unwrap();
        assert!(b.build().is_err()); // no initial set
    }

    #[test]
    fn guard_matching() {
        let g = Guard(vec![Presence::Present, Presence::Absent]);
        let n = |i| NodeId(i);
        // pebbles 1,2 at nodes 5 and 7; current = pebble 3 at node 5.
        assert!(g.matches(&[n(5), n(7), n(5)], n(5)));
        // pebble 1 elsewhere.
        assert!(!g.matches(&[n(4), n(7), n(5)], n(5)));
        // pebble 2 on current.
        assert!(!g.matches(&[n(5), n(5), n(5)], n(5)));
        assert!(Guard::any().matches(&[n(1)], n(1)));
    }

    #[test]
    fn successors_respect_directions() {
        let (i, o) = alphas();
        let mut b = TransducerBuilder::new(&i, &o, 1);
        let q = b.state("q", 1).unwrap();
        let q2 = b.state("q2", 1).unwrap();
        b.move_rule(SymSpec::Any, q, Guard::any(), Move::DownLeft, q2)
            .unwrap();
        b.move_rule(SymSpec::Any, q, Guard::any(), Move::UpLeft, q2)
            .unwrap();
        b.set_initial(q);
        let t = b.build().unwrap();
        let tree = BinaryTree::parse("f(x, y)", &i).unwrap();
        // At the root: down-left applies, up-left does not.
        let cfg = t.core().initial_config(&tree);
        let succs = t.core().successors(&tree, &cfg);
        assert_eq!(succs.len(), 1);
        match &succs[0] {
            StepResult::Moved(c) => {
                assert_eq!(c.state, q2);
                assert_eq!(tree.symbol(c.current()), i.get("x").unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
