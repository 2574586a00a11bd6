//! The adversarial scenario corpus: seeded mass-generation of
//! `(transducer, τ₁, τ₂)` triples for the differential harness.
//!
//! Each [`Family`] names one way typecheckers get hurt in practice
//! (Frisch–Hosoya's observation that practical typecheckers live or die on
//! adversarial instance families): silent-transition chains that stress
//! ε-closure handling, deeply nested input types, near-empty and
//! near-universal output types, single-symbol alphabets, and automata
//! riddled with dead states. [`generate`] is a pure function of
//! `(corpus_seed, family, index)` — every case owns an **independent RNG
//! stream** derived by [`case_seed`], so adding a family or growing a run
//! never reshuffles existing cases, and any case can be regenerated from
//! its coordinates alone.
//!
//! All generated machines are 1-pebble transducers, keeping the corpus on
//! the cheap walk route (Theorem 4.7's `k = 1` specialization) so runs of
//! thousands of cases stay fast.

use crate::grammar::{GrammarError, TreeGrammar};
use crate::spec::{BuilderError, MachineSpec, Syms};
use std::fmt;
use std::sync::Arc;
use xmltc_automata::Nta;
use xmltc_core::machine::{Guard, Move, PebbleTransducer};
use xmltc_trees::{Alphabet, SmallRng};

/// The named adversarial families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Long chains of silent (non-emitting) walk rules, including silent
    /// cycles, before any output happens — stresses the walk's
    /// ε-behaviour and the lazy search's memoization.
    SilentChains,
    /// Input types forcing deeply nested trees; output types bounding
    /// depth — counterexamples hide far down.
    DeepNesting,
    /// Output types accepting almost nothing, so nearly every output is a
    /// violation and counterexamples are everywhere.
    NearEmpty,
    /// Output types accepting almost everything, so violations (when they
    /// exist at all) are needles in a haystack.
    NearUniversal,
    /// One leaf and one binary symbol on each side — degenerate alphabets
    /// where distinct states are the only information.
    SingleSymbol,
    /// Input grammars full of unproductive nonterminals and machines with
    /// unreachable states — stresses trimming and dead-state handling.
    DeadStates,
}

/// Recommended Theorem 4.7 state budget for corpus runs (the
/// `TypecheckOptions::state_limit` the differential harness and the
/// `xmltc corpus` CLI use unless overridden).
///
/// Corpus machines are tiny, but a rare draw — deep nesting combined with
/// a depth-bounding τ₂ — gives the walk construction thousands of DBTA
/// states whose signatures do not collapse (`deep-nesting` #335 at seed
/// `0xc0de` reaches 8 640), and its explicit transition table grows with
/// the square of the state count. Cases that terminate promptly need a
/// few hundred DBTA states at most (397 for the largest seen,
/// `silent-chains` #2214 at seed `0xeeb13198ca6b3a5`), so a budget of 800
/// gives 2× headroom while turning a pathological case into an explicit
/// resource skip (`TooManyStates`) within milliseconds instead of a hang.
/// Harness runs count such skips and bound their rate; they never
/// silently pass.
pub const CORPUS_STATE_LIMIT: u32 = 800;

/// Every family, in canonical order (stable: new families append).
pub const FAMILIES: [Family; 6] = [
    Family::SilentChains,
    Family::DeepNesting,
    Family::NearEmpty,
    Family::NearUniversal,
    Family::SingleSymbol,
    Family::DeadStates,
];

impl Family {
    /// The family's stable kebab-case name (CLI, reports, digests).
    pub fn name(self) -> &'static str {
        match self {
            Family::SilentChains => "silent-chains",
            Family::DeepNesting => "deep-nesting",
            Family::NearEmpty => "near-empty",
            Family::NearUniversal => "near-universal",
            Family::SingleSymbol => "single-symbol",
            Family::DeadStates => "dead-states",
        }
    }

    /// Parses a family name as printed by [`Family::name`].
    pub fn from_name(name: &str) -> Option<Family> {
        FAMILIES.iter().copied().find(|f| f.name() == name)
    }

    /// A fixed per-family salt folded into [`case_seed`]. Salts are
    /// arbitrary but frozen: changing one reshuffles that family's cases.
    fn salt(self) -> u64 {
        match self {
            Family::SilentChains => 0x51_1e_57_c4_a1_75_00_01,
            Family::DeepNesting => 0xde_e9_4e_57_19_6a_00_02,
            Family::NearEmpty => 0x4e_a7_e3_97_7b_0e_00_03,
            Family::NearUniversal => 0x4e_a7_04_1f_3a_1e_00_04,
            Family::SingleSymbol => 0x51_46_1e_5b_3c_0f_00_05,
            Family::DeadStates => 0xdd_ad_57_a7_e5_0d_00_06,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// splitmix64's finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG seed of case `(family, index)` under `corpus_seed`.
///
/// Each coordinate is mixed independently, so every case draws from its
/// own stream: generating case 500 never consumes randomness case 7 also
/// needs, and inserting a new family leaves all other families' cases
/// byte-identical (pinned by the golden digest test).
pub fn case_seed(corpus_seed: u64, family: Family, index: u64) -> u64 {
    mix(mix(corpus_seed ^ family.salt()) ^ mix(index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// One generated corpus case: a transducer spec plus input/output types,
/// all in declarative (renderable, shrinkable) form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The family this case was drawn from.
    pub family: Family,
    /// The case index within the family.
    pub index: u64,
    /// The per-case RNG seed ([`case_seed`]).
    pub seed: u64,
    /// Input-alphabet leaf symbol names.
    pub leaves: Vec<String>,
    /// Input-alphabet binary symbol names.
    pub binaries: Vec<String>,
    /// Output-alphabet leaf symbol names.
    pub out_leaves: Vec<String>,
    /// Output-alphabet binary symbol names.
    pub out_binaries: Vec<String>,
    /// The transducer, as a declarative spec.
    pub transducer: MachineSpec,
    /// The input type τ₁.
    pub tau1: TreeGrammar,
    /// The output type τ₂.
    pub tau2: TreeGrammar,
}

/// A [`Scenario`] lowered to the runtime representations the typechecking
/// pipeline consumes.
pub struct CompiledScenario {
    /// The input alphabet Σ.
    pub input: Arc<Alphabet>,
    /// The output alphabet Σ'.
    pub output: Arc<Alphabet>,
    /// The built transducer.
    pub transducer: PebbleTransducer,
    /// τ₁ as a tree automaton over Σ.
    pub tau1: Nta,
    /// τ₂ as a tree automaton over Σ'.
    pub tau2: Nta,
}

/// Why a scenario failed to lower.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The transducer spec was rejected.
    Builder(BuilderError),
    /// A grammar was rejected.
    Grammar(GrammarError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Builder(e) => write!(f, "transducer spec rejected: {e}"),
            ScenarioError::Grammar(e) => write!(f, "grammar rejected: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<BuilderError> for ScenarioError {
    fn from(e: BuilderError) -> ScenarioError {
        ScenarioError::Builder(e)
    }
}

impl From<GrammarError> for ScenarioError {
    fn from(e: GrammarError) -> ScenarioError {
        ScenarioError::Grammar(e)
    }
}

impl Scenario {
    /// The input alphabet Σ.
    pub fn input_alphabet(&self) -> Arc<Alphabet> {
        Alphabet::ranked(&self.leaves, &self.binaries)
    }

    /// The output alphabet Σ'.
    pub fn output_alphabet(&self) -> Arc<Alphabet> {
        Alphabet::ranked(&self.out_leaves, &self.out_binaries)
    }

    /// Lowers the scenario: builds the transducer and compiles both
    /// grammars. Generated scenarios always lower; hand-shrunk ones may
    /// not (the minimizer treats non-lowering candidates as invalid).
    pub fn compile(&self) -> Result<CompiledScenario, ScenarioError> {
        let input = self.input_alphabet();
        let output = self.output_alphabet();
        let transducer = self.transducer.build_transducer(&input, &output)?;
        let tau1 = self.tau1.compile(&input)?;
        let tau2 = self.tau2.compile(&output)?;
        Ok(CompiledScenario {
            input,
            output,
            transducer,
            tau1,
            tau2,
        })
    }

    /// The full textual form of the case: header, alphabets, transducer
    /// table, both grammars. Stable across runs; the digest hashes this.
    pub fn render(&self) -> String {
        let mut out = format!(
            "case family={} index={} seed={:#018x}\n",
            self.family, self.index, self.seed
        );
        out.push_str(&format!(
            "input leaves={{{}}} binaries={{{}}}\n",
            self.leaves.join(","),
            self.binaries.join(",")
        ));
        out.push_str(&format!(
            "output leaves={{{}}} binaries={{{}}}\n",
            self.out_leaves.join(","),
            self.out_binaries.join(",")
        ));
        out.push_str(&self.transducer.render());
        out.push_str(&self.tau1.render());
        out.push_str(&self.tau2.render());
        out
    }

    /// FNV-1a (64-bit) digest of [`Scenario::render`] — the case identity
    /// pinned by the golden test.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.render().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Generates case `index` of `family` under `corpus_seed`. Pure: the same
/// coordinates always yield the same scenario.
pub fn generate(corpus_seed: u64, family: Family, index: u64) -> Scenario {
    let seed = case_seed(corpus_seed, family, index);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (leaves, binaries, out_leaves, out_binaries) = alphabets(&mut rng, family);
    let transducer = machine(
        &mut rng,
        family,
        &leaves,
        &binaries,
        &out_leaves,
        &out_binaries,
    );
    let tau1 = input_grammar(&mut rng, family, &leaves, &binaries);
    let tau2 = output_grammar(&mut rng, family, &out_leaves, &out_binaries);
    Scenario {
        family,
        index,
        seed,
        leaves,
        binaries,
        out_leaves,
        out_binaries,
        transducer,
        tau1,
        tau2,
    }
}

type Names = (Vec<String>, Vec<String>, Vec<String>, Vec<String>);

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

fn alphabets(rng: &mut SmallRng, family: Family) -> Names {
    match family {
        Family::SingleSymbol => (names("x", 1), names("f", 1), names("o", 1), names("g", 1)),
        _ => (
            names("x", rng.gen_range(1..3)),
            names("f", rng.gen_range(1..3)),
            names("o", rng.gen_range(1..3)),
            names("g", rng.gen_range(1..3)),
        ),
    }
}

/// A random walk move at level 1 with its natural symbol restriction:
/// down-moves only fire on binary nodes (elsewhere they would never fire
/// and only pad the table).
fn random_walk(rng: &mut SmallRng, binaries: &[String]) -> (Syms, Move) {
    match rng.below(5) {
        0 => (Syms::Any, Move::Stay),
        1 => (Syms::one(rng.choose(binaries)), Move::DownLeft),
        2 => (Syms::Binaries, Move::DownRight),
        3 => (Syms::Any, Move::UpLeft),
        _ => (Syms::Any, Move::UpRight),
    }
}

fn machine(
    rng: &mut SmallRng,
    family: Family,
    leaves: &[String],
    binaries: &[String],
    out_leaves: &[String],
    out_binaries: &[String],
) -> MachineSpec {
    let (n_states, silent_head, extra_rules) = match family {
        Family::SilentChains => (rng.gen_range(6..11), rng.gen_range(4..8), 2),
        Family::DeepNesting => (rng.gen_range(3..6), 1, 2),
        Family::DeadStates => (rng.gen_range(3..6), 1, 1),
        Family::SingleSymbol => (rng.gen_range(2..5), 1, 2),
        _ => (rng.gen_range(2..6), 0, 2),
    };
    let silent_head = silent_head.min(n_states - 1);
    let mut m = MachineSpec::new(format!("{family}"), 1);
    for s in names("q", n_states) {
        m.state(s, 1);
    }
    m.initial("q0");
    let q = |i: usize| format!("q{i}");

    // Spine: every state reaches the next, so the whole machine is live.
    for i in 0..n_states - 1 {
        if i < silent_head {
            // Forced silent step, plus (sometimes) a competing silent rule
            // on another symbol set — nondeterministic silent branching.
            let (on, mv) = random_walk(rng, binaries);
            m.walk(on, q(i), Guard::any(), mv, q(i + 1));
            if rng.gen_bool(0.4) {
                let target = rng.gen_range(0..i + 2); // may loop back: silent cycle
                let (on, mv) = random_walk(rng, binaries);
                m.walk(on, q(i), Guard::any(), mv, q(target));
            }
        } else if !out_binaries.is_empty() && rng.gen_bool(0.5) {
            let l = q(i + 1);
            let r = q(rng.gen_range(0..n_states));
            m.emit_node(
                Syms::Any,
                q(i),
                Guard::any(),
                rng.choose(out_binaries),
                l,
                r,
            );
        } else {
            let (on, mv) = random_walk(rng, binaries);
            m.walk(on, q(i), Guard::any(), mv, q(i + 1));
        }
    }

    // Terminal state always has a way to finish the output.
    m.emit_leaf(
        Syms::Any,
        q(n_states - 1),
        Guard::any(),
        rng.choose(out_leaves),
    );

    // Extra random rules for nondeterminism.
    for _ in 0..extra_rules {
        let i = rng.gen_range(0..n_states);
        match rng.below(3) {
            0 => {
                let (on, mv) = random_walk(rng, binaries);
                m.walk(on, q(i), Guard::any(), mv, q(rng.gen_range(0..n_states)));
            }
            1 => {
                let on = if rng.gen_bool(0.5) {
                    Syms::Leaves
                } else {
                    Syms::one(rng.choose(leaves))
                };
                m.emit_leaf(on, q(i), Guard::any(), rng.choose(out_leaves));
            }
            _ => {
                let l = q(rng.gen_range(0..n_states));
                let r = q(rng.gen_range(0..n_states));
                m.emit_node(
                    Syms::Any,
                    q(i),
                    Guard::any(),
                    rng.choose(out_binaries),
                    l,
                    r,
                );
            }
        }
    }

    if family == Family::DeadStates {
        // Deliberately unreachable machinery: states no spine rule targets.
        m.allow_unreachable();
        let d = rng.gen_range(1..3);
        for j in 0..d {
            let name = format!("dead{j}");
            m.state(name.clone(), 1);
            m.emit_leaf(Syms::Any, name, Guard::any(), rng.choose(out_leaves));
        }
    }
    m
}

/// A random input grammar. Node productions point to strictly higher
/// nonterminal indices (a DAG), and the last nonterminal always derives a
/// leaf, so the grammar is productive unless a family wants otherwise.
fn input_grammar(
    rng: &mut SmallRng,
    family: Family,
    leaves: &[String],
    binaries: &[String],
) -> TreeGrammar {
    let mut g = TreeGrammar::new("tau1", "N0");
    let n = match family {
        Family::DeepNesting => rng.gen_range(4..8),
        _ => rng.gen_range(1..4),
    };
    let nt = |i: usize| format!("N{i}");
    for i in 0..n {
        if i + 1 < n {
            // The spine production: one level deeper.
            let (l, r) = if rng.gen_bool(0.5) {
                (nt(i + 1), nt(rng.gen_range(i + 1..n)))
            } else {
                (nt(rng.gen_range(i + 1..n)), nt(i + 1))
            };
            g.node(nt(i), rng.choose(binaries), l, r);
            if family != Family::DeepNesting && rng.gen_bool(0.4) {
                g.leaf(nt(i), rng.choose(leaves));
            }
        } else {
            g.leaf(nt(i), rng.choose(leaves));
            if rng.gen_bool(0.3) {
                g.leaf(nt(i), rng.choose(leaves));
            }
        }
    }
    if family == Family::DeadStates {
        // Unproductive machinery: nonterminals deriving nothing, plus
        // productions that can never complete because they use them.
        let d = rng.gen_range(1..3);
        for j in 0..d {
            g.node(
                nt(rng.gen_range(0..n)),
                rng.choose(binaries),
                format!("Z{j}"),
                nt(0),
            );
        }
    }
    g
}

fn output_grammar(
    rng: &mut SmallRng,
    family: Family,
    out_leaves: &[String],
    out_binaries: &[String],
) -> TreeGrammar {
    match family {
        Family::NearEmpty => {
            // τ₂ accepts a single leaf — or nothing at all.
            let mut g = TreeGrammar::new("tau2", "S");
            if rng.gen_bool(0.8) {
                g.leaf("S", rng.choose(out_leaves));
            }
            g
        }
        Family::NearUniversal => {
            let al = Alphabet::ranked(out_leaves, out_binaries);
            let mut g = TreeGrammar::universal("tau2", &al);
            // Occasionally poke one hole: drop a single production.
            if g.prods.len() > 1 && rng.gen_bool(0.6) {
                let i = rng.gen_range(0..g.prods.len());
                g.prods.remove(i);
            }
            g
        }
        Family::DeepNesting => {
            // Depth-bounded: D0 ⊇ trees of depth ≤ bound.
            let bound = rng.gen_range(2..5);
            let mut g = TreeGrammar::new("tau2", "D0");
            let nt = |i: usize| format!("D{i}");
            for i in 0..bound {
                for s in out_leaves {
                    g.leaf(nt(i), s);
                }
                if i + 1 < bound {
                    for s in out_binaries {
                        g.node(nt(i), s, nt(i + 1), nt(i + 1));
                    }
                }
            }
            g
        }
        _ => {
            // A small random grammar, same DAG scheme as the input side.
            let mut g = TreeGrammar::new("tau2", "M0");
            let n = rng.gen_range(1..4);
            let nt = |i: usize| format!("M{i}");
            for i in 0..n {
                if i + 1 < n {
                    g.node(
                        nt(i),
                        rng.choose(out_binaries),
                        nt(i + 1),
                        nt(rng.gen_range(i + 1..n)),
                    );
                    if rng.gen_bool(0.5) {
                        g.leaf(nt(i), rng.choose(out_leaves));
                    }
                } else {
                    g.leaf(nt(i), rng.choose(out_leaves));
                }
            }
            g
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure() {
        for &fam in &FAMILIES {
            let a = generate(7, fam, 3);
            let b = generate(7, fam, 3);
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn every_generated_case_lowers() {
        for &fam in &FAMILIES {
            for i in 0..25 {
                let s = generate(42, fam, i);
                let c = s
                    .compile()
                    .unwrap_or_else(|e| panic!("{fam} #{i} failed to lower: {e}\n{}", s.render()));
                assert_eq!(c.transducer.k(), 1);
            }
        }
    }

    #[test]
    fn streams_are_independent() {
        // A case's identity depends only on its coordinates.
        let before = generate(9, Family::DeepNesting, 11);
        // "Interleaving" other cases (even other families) changes nothing.
        let _ = generate(9, Family::SilentChains, 11);
        let _ = generate(9, Family::DeepNesting, 12);
        let after = generate(9, Family::DeepNesting, 11);
        assert_eq!(before, after);
    }

    #[test]
    fn family_names_round_trip() {
        for &fam in &FAMILIES {
            assert_eq!(Family::from_name(fam.name()), Some(fam));
        }
        assert_eq!(Family::from_name("nope"), None);
    }

    #[test]
    fn single_symbol_is_single() {
        let s = generate(3, Family::SingleSymbol, 0);
        assert_eq!((s.leaves.len(), s.binaries.len()), (1, 1));
        assert_eq!((s.out_leaves.len(), s.out_binaries.len()), (1, 1));
    }
}
