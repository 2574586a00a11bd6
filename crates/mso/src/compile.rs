//! Compilation of MSO formulas to symbolic tree automata.

use crate::cube::Cube;
use crate::formula::{Formula, VarKind};
use crate::symta::SymTa;
use std::fmt;
use std::sync::Arc;
use xmltc_automata::{Nta, State};
use xmltc_obs as obs;
use xmltc_trees::{Alphabet, Symbol};

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A variable was used without an enclosing binder.
    Unbound(String),
    /// A variable was used at the wrong order.
    WrongKind(String),
    /// The formula nests more quantifiers than the compiler has variable
    /// tracks ([`MAX_VARIABLES`]); checked before any compilation work.
    TooManyVariables {
        /// The formula's deepest quantifier nesting.
        depth: usize,
        /// The number of variables the compiler can track.
        cap: usize,
        /// The formula's size (node count).
        size: usize,
    },
    /// The intermediate automaton exceeded the configured state budget —
    /// the non-elementary blow-up in action (Theorem 4.8).
    StateLimit {
        /// The configured budget.
        limit: u32,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unbound(x) => write!(f, "unbound variable `{x}`"),
            CompileError::WrongKind(x) => write!(f, "variable `{x}` used at the wrong order"),
            CompileError::TooManyVariables { depth, cap, size } => write!(
                f,
                "the formula (size {size}) nests {depth} quantifiers, \
                 more than the {cap} variables the compiler can track"
            ),
            CompileError::StateLimit { limit } => {
                write!(f, "intermediate automaton exceeded {limit} states")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The most variables one point of a formula may have in scope: each takes
/// one bit of a [`Cube`].
pub const MAX_VARIABLES: usize = 64;

/// Resource accounting for a compilation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileStats {
    /// Largest intermediate automaton (states).
    pub max_states: u32,
    /// Number of determinizations performed (each potentially exponential).
    pub determinizations: u32,
    /// Total automaton operations.
    pub operations: u32,
}

struct Ctx {
    alphabet: Arc<Alphabet>,
    scope: Vec<(String, VarKind)>,
    stats: CompileStats,
    state_limit: u32,
}

impl Ctx {
    fn lookup(&self, name: &str, kind: VarKind) -> Result<usize, CompileError> {
        let (i, (_, k)) = self
            .scope
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (n, _))| n == name)
            .ok_or_else(|| CompileError::Unbound(name.to_string()))?;
        if *k != kind {
            return Err(CompileError::WrongKind(name.to_string()));
        }
        Ok(i)
    }

    fn note(&mut self, a: &SymTa) -> Result<(), CompileError> {
        self.stats.operations += 1;
        self.stats.max_states = self.stats.max_states.max(a.n_states());
        if a.n_states() > self.state_limit {
            return Err(CompileError::StateLimit {
                limit: self.state_limit,
            });
        }
        Ok(())
    }

    fn complement(&mut self, a: &SymTa) -> Result<SymTa, CompileError> {
        self.stats.determinizations += 1;
        let c = a
            .complement_limited(self.state_limit)
            .ok_or(CompileError::StateLimit {
                limit: self.state_limit,
            })?;
        self.note(&c)?;
        Ok(c)
    }
}

/// Compiles a *closed* formula to an equivalent tree automaton over `Σ`.
pub fn compile_sentence(f: &Formula, alphabet: &Arc<Alphabet>) -> Result<Nta, CompileError> {
    compile_sentence_limited(f, alphabet, u32::MAX).map(|(a, _)| a)
}

/// [`compile_sentence`] with a state budget and resource statistics. Each
/// intermediate automaton is checked against the budget, and exceeding it
/// aborts with [`CompileError::StateLimit`]. Complementation stops its
/// subset construction at the budget, but other operations are checked
/// only once built: an intersection ([`SymTa::intersect`]) first builds its
/// whole untrimmed product, up to the square of the budget, so one step
/// can still exhaust memory before the check sees it.
pub fn compile_sentence_limited(
    f: &Formula,
    alphabet: &Arc<Alphabet>,
    state_limit: u32,
) -> Result<(Nta, CompileStats), CompileError> {
    let _span = obs::span("mso.compile");
    let depth = f.quantifier_depth();
    if depth > MAX_VARIABLES {
        return Err(CompileError::TooManyVariables {
            depth,
            cap: MAX_VARIABLES,
            size: f.size(),
        });
    }
    let mut ctx = Ctx {
        alphabet: Arc::clone(alphabet),
        scope: Vec::new(),
        stats: CompileStats::default(),
        state_limit,
    };
    let result = compile(f, &mut ctx);
    // Record how far the compilation got even when it aborts on its state
    // budget — the report then shows the partial progress.
    obs::record("mso.max_states", ctx.stats.max_states as u64);
    obs::record("mso.determinizations", ctx.stats.determinizations as u64);
    obs::record("mso.operations", ctx.stats.operations as u64);
    let a = result?;
    debug_assert_eq!(a.n_tracks(), 0, "sentence left free tracks");
    Ok((a.to_nta(), ctx.stats))
}

fn compile(f: &Formula, ctx: &mut Ctx) -> Result<SymTa, CompileError> {
    let n = ctx.scope.len();
    let a = match f {
        Formula::True => SymTa::top(&ctx.alphabet, n),
        Formula::False => SymTa::new(&ctx.alphabet, n, 0),
        Formula::Label(x, sym) => atom_label(ctx, ctx.lookup(x, VarKind::First)?, *sym),
        Formula::Root(x) => atom_root(ctx, ctx.lookup(x, VarKind::First)?),
        Formula::Leaf(x) => atom_leaf(ctx, ctx.lookup(x, VarKind::First)?),
        Formula::Eq(x, y) => atom_eq(
            ctx,
            ctx.lookup(x, VarKind::First)?,
            ctx.lookup(y, VarKind::First)?,
        ),
        Formula::In(x, s) => atom_in(
            ctx,
            ctx.lookup(x, VarKind::First)?,
            ctx.lookup(s, VarKind::Second)?,
        ),
        Formula::Succ1(x, y) => atom_succ(
            ctx,
            ctx.lookup(x, VarKind::First)?,
            ctx.lookup(y, VarKind::First)?,
            true,
        ),
        Formula::Succ2(x, y) => atom_succ(
            ctx,
            ctx.lookup(x, VarKind::First)?,
            ctx.lookup(y, VarKind::First)?,
            false,
        ),
        Formula::Not(a) => {
            let inner = compile(a, ctx)?;
            ctx.complement(&inner)?
        }
        Formula::And(a, b) => {
            let left = compile(a, ctx)?;
            let right = compile(b, ctx)?;
            left.intersect(&right)
        }
        Formula::Or(a, b) => {
            let left = compile(a, ctx)?;
            let right = compile(b, ctx)?;
            left.union(&right)
        }
        Formula::Implies(a, b) => {
            let left = compile(a, ctx)?;
            let not_left = ctx.complement(&left)?;
            let right = compile(b, ctx)?;
            not_left.union(&right)
        }
        Formula::Exists(kind, name, body) => {
            // A sentence's scope never outgrows its quantifier depth, which
            // `compile_sentence_limited` checked against `MAX_VARIABLES`.
            let track = ctx.scope.len();
            ctx.scope.push((name.clone(), *kind));
            let inner = compile(body, ctx);
            ctx.scope.pop();
            let inner = inner?;
            let constrained = match kind {
                VarKind::First => {
                    inner.intersect(&SymTa::singleton(&ctx.alphabet, track + 1, track))
                }
                VarKind::Second => inner,
            };
            constrained.project(track).trim()
        }
        Formula::Forall(kind, name, body) => {
            // ∀v.φ  =  ¬∃v.¬φ
            let rewritten =
                Formula::Exists(*kind, name.clone(), Box::new(Formula::Not(body.clone())));
            let inner = compile(&rewritten, ctx)?;
            ctx.complement(&inner)?
        }
    };
    ctx.note(&a)?;
    Ok(a)
}

/// Weak `R_a(x)`: every marked node is labeled `a` (exact under the
/// singleton discipline enforced at the quantifier).
fn atom_label(ctx: &Ctx, track: usize, sym: Symbol) -> SymTa {
    let n = ctx.scope.len();
    let mut a = SymTa::new(&ctx.alphabet, n, 1);
    let q = State(0);
    for s in ctx.alphabet.leaves() {
        if s == sym {
            a.add_leaf(s, Cube::TOP, q);
        } else {
            a.add_leaf(s, Cube::single(track, false), q);
        }
    }
    for s in ctx.alphabet.binaries() {
        if s == sym {
            a.add_node(s, Cube::TOP, q, q, q);
        } else {
            a.add_node(s, Cube::single(track, false), q, q, q);
        }
    }
    a.add_final(q);
    a
}

/// `root(x)`: the unique marked node is the root.
fn atom_root(ctx: &Ctx, track: usize) -> SymTa {
    let n = ctx.scope.len();
    let mut a = SymTa::new(&ctx.alphabet, n, 2);
    let none = State(0);
    let here = State(1);
    for s in ctx.alphabet.leaves() {
        a.add_leaf(s, Cube::single(track, false), none);
        a.add_leaf(s, Cube::single(track, true), here);
    }
    for s in ctx.alphabet.binaries() {
        a.add_node(s, Cube::single(track, false), none, none, none);
        a.add_node(s, Cube::single(track, true), none, none, here);
    }
    a.add_final(here);
    a
}

/// Weak `leaf(x)`: every marked node is a leaf.
fn atom_leaf(ctx: &Ctx, track: usize) -> SymTa {
    let n = ctx.scope.len();
    let mut a = SymTa::new(&ctx.alphabet, n, 1);
    let q = State(0);
    for s in ctx.alphabet.leaves() {
        a.add_leaf(s, Cube::TOP, q);
    }
    for s in ctx.alphabet.binaries() {
        a.add_node(s, Cube::single(track, false), q, q, q);
    }
    a.add_final(q);
    a
}

/// Weak `x = y`: the two tracks agree at every node.
fn atom_eq(ctx: &Ctx, tx: usize, ty: usize) -> SymTa {
    let n = ctx.scope.len();
    let mut a = SymTa::new(&ctx.alphabet, n, 1);
    let q = State(0);
    let both = |v: bool| Cube::single(tx, v).and_single(ty, v);
    for s in ctx.alphabet.leaves() {
        a.add_leaf(s, both(false), q);
        a.add_leaf(s, both(true), q);
    }
    for s in ctx.alphabet.binaries() {
        a.add_node(s, both(false), q, q, q);
        a.add_node(s, both(true), q, q, q);
    }
    a.add_final(q);
    a
}

/// Weak `x ∈ S`: wherever `x` is marked, `S` is too.
fn atom_in(ctx: &Ctx, tx: usize, ts: usize) -> SymTa {
    let n = ctx.scope.len();
    let mut a = SymTa::new(&ctx.alphabet, n, 1);
    let q = State(0);
    let x0 = Cube::single(tx, false);
    let x1s1 = Cube::single(tx, true).and_single(ts, true);
    for s in ctx.alphabet.leaves() {
        a.add_leaf(s, x0, q);
        a.add_leaf(s, x1s1, q);
    }
    for s in ctx.alphabet.binaries() {
        a.add_node(s, x0, q, q, q);
        a.add_node(s, x1s1, q, q, q);
    }
    a.add_final(q);
    a
}

/// `succ1(x,y)` / `succ2(x,y)`: the `y`-marked node is the left (`left =
/// true`) or right child of the `x`-marked node. Exact under singletons.
fn atom_succ(ctx: &Ctx, tx: usize, ty: usize, left: bool) -> SymTa {
    let n = ctx.scope.len();
    let mut a = SymTa::new(&ctx.alphabet, n, 3);
    let blank = State(0); // no marks in the subtree
    let y_here = State(1); // y marked exactly at the subtree root
    let done = State(2); // matched pair inside the subtree
    let c = |xv: bool, yv: bool| Cube::single(tx, xv).and_single(ty, yv);
    for s in ctx.alphabet.leaves() {
        a.add_leaf(s, c(false, false), blank);
        a.add_leaf(s, c(false, true), y_here);
    }
    for s in ctx.alphabet.binaries() {
        a.add_node(s, c(false, false), blank, blank, blank);
        a.add_node(s, c(false, false), done, blank, done);
        a.add_node(s, c(false, false), blank, done, done);
        a.add_node(s, c(false, true), blank, blank, y_here);
        if left {
            a.add_node(s, c(true, false), y_here, blank, done);
        } else {
            a.add_node(s, c(true, false), blank, y_here, done);
        }
    }
    a.add_final(done);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use xmltc_trees::BinaryTree;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    fn check_agreement(f: &Formula, trees: &[&str]) {
        let al = alpha();
        let nta = compile_sentence(f, &al).expect("compiles");
        for src in trees {
            let t = BinaryTree::parse(src, &al).unwrap();
            let direct = f.eval(&t, &mut BTreeMap::new());
            let automaton = nta.accepts(&t).unwrap();
            assert_eq!(automaton, direct, "disagreement on {src} for {f}");
        }
    }

    #[test]
    fn variable_cap_is_checked_before_compiling() {
        // A 65th nested quantifier fails with depth, cap and size.
        let nest = |n: usize| {
            (0..n).fold(Formula::Root("v0".into()), |body, i| {
                Formula::exists1(format!("v{i}"), body)
            })
        };
        let al = alpha();
        assert_eq!(
            compile_sentence(&nest(65), &al).unwrap_err(),
            CompileError::TooManyVariables {
                depth: 65,
                cap: 64,
                size: 66
            }
        );
    }

    const TREES: [&str; 7] = [
        "x",
        "y",
        "f(x, y)",
        "f(y, x)",
        "f(x, f(x, x))",
        "f(f(y, x), x)",
        "f(f(x, x), f(x, y))",
    ];

    #[test]
    fn exists_label() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let f = Formula::exists1("v", Formula::Label("v".into(), y));
        check_agreement(&f, &TREES);
    }

    #[test]
    fn forall_label() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let f = Formula::forall1(
            "v",
            Formula::Leaf("v".into()).implies(Formula::Label("v".into(), x)),
        );
        check_agreement(&f, &TREES);
    }

    #[test]
    fn root_and_succ() {
        let al = alpha();
        let y = al.get("y").unwrap();
        // "the right child of the root is labeled y"
        let f = Formula::exists1(
            "u",
            Formula::exists1(
                "v",
                Formula::Root("u".into())
                    .and(Formula::Succ2("u".into(), "v".into()))
                    .and(Formula::Label("v".into(), y)),
            ),
        );
        check_agreement(&f, &TREES);
    }

    #[test]
    fn succ1_exact() {
        let al = alpha();
        let x = al.get("x").unwrap();
        // "some node's left child is labeled x"
        let f = Formula::exists1(
            "u",
            Formula::exists1(
                "v",
                Formula::Succ1("u".into(), "v".into()).and(Formula::Label("v".into(), x)),
            ),
        );
        check_agreement(&f, &TREES);
    }

    #[test]
    fn equality_and_negation() {
        let _al = alpha();
        // "there exist two distinct leaves" — true iff the tree is not a
        // single node.
        let f = Formula::exists1(
            "u",
            Formula::exists1(
                "v",
                Formula::Leaf("u".into())
                    .and(Formula::Leaf("v".into()))
                    .and(Formula::Eq("u".into(), "v".into()).not()),
            ),
        );
        check_agreement(&f, &TREES);
    }

    #[test]
    fn second_order_reachability() {
        // "every node with label y belongs to every succ-closed set
        // containing the root" — i.e. every y is a descendant of the root:
        // trivially true; and its negation is always false. Exercises ∀S.
        let al = alpha();
        let y = al.get("y").unwrap();
        let closed = Formula::forall1(
            "u",
            Formula::forall1(
                "v",
                Formula::In("u".into(), "S".into())
                    .and(
                        Formula::Succ1("u".into(), "v".into())
                            .or(Formula::Succ2("u".into(), "v".into())),
                    )
                    .implies(Formula::In("v".into(), "S".into())),
            ),
        );
        let f = Formula::forall1(
            "w",
            Formula::forall2(
                "S",
                Formula::exists1(
                    "r",
                    Formula::Root("r".into()).and(Formula::In("r".into(), "S".into())),
                )
                .and(closed)
                .implies(
                    Formula::Label("w".into(), y).implies(Formula::In("w".into(), "S".into())),
                ),
            ),
        );
        // Direct SO evaluation is exponential: restrict to small trees.
        check_agreement(&f, &["x", "y", "f(x, y)", "f(y, x)"]);
    }

    #[test]
    fn and_or_implies() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let some = |s| Formula::exists1("v", Formula::Label("v".into(), s));
        check_agreement(&some(x).clone().and(some(y).clone()), &TREES);
        check_agreement(&some(x).clone().or(some(y).clone()), &TREES);
        check_agreement(&some(x).implies(some(y)), &TREES);
    }

    #[test]
    fn unbound_and_kind_errors() {
        let al = alpha();
        let x = al.get("x").unwrap();
        assert!(matches!(
            compile_sentence(&Formula::Label("v".into(), x), &al),
            Err(CompileError::Unbound(_))
        ));
        let f = Formula::exists2("S", Formula::Label("S".into(), x));
        assert!(matches!(
            compile_sentence(&f, &al),
            Err(CompileError::WrongKind(_))
        ));
    }

    #[test]
    fn state_limit_aborts() {
        let al = alpha();
        let x = al.get("x").unwrap();
        // Something with a few alternations so intermediate automata have
        // more than one state.
        let f = Formula::forall1(
            "u",
            Formula::exists1(
                "v",
                Formula::Eq("u".into(), "v".into()).and(Formula::Label("v".into(), x)),
            )
            .or(Formula::Leaf("u".into()).not()),
        );
        assert!(matches!(
            compile_sentence_limited(&f, &al, 1),
            Err(CompileError::StateLimit { limit: 1 })
        ));
        let (nta, stats) = compile_sentence_limited(&f, &al, 10_000).unwrap();
        assert!(stats.max_states >= 1);
        assert!(stats.determinizations >= 1);
        let t = BinaryTree::parse("f(x, x)", &al).unwrap();
        let _ = nta.accepts(&t).unwrap();
    }
}
