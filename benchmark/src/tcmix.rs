//! `typecheck-mix`: each operation takes one typechecking problem from its
//! spec texts to a verdict, with no cache between operations.
//!
//! A cycle holds, in a seed-shuffled order:
//! - four heavy Q2-family problems (`root := a*`, a stylesheet
//!   interleaving `c` copies with `p` markers, against
//!   `result := ((a|b)^m)*`; it typechecks iff `c ≡ p ≡ 0 (mod m)`), two
//!   of which typecheck — the walk is most of their time, so they set
//!   `latency_ms_p99`;
//! - corpus case deep-nesting #335 under seed `0xc0de` at the corpus state
//!   budget (today a budget skip);
//! - one committed fixture triple, taken in turn;
//! - 54 corpus cases across the six families at the corpus budget —
//!   product, front end and lazy emptiness carry them, and they set
//!   `latency_ms_p50`.
//!
//! The seed changes tag names, corpus cases and order, never the number of
//! problems per cost stratum.

use crate::rec::{fnv, Op, Rec};
use crate::rng::Rng;
use xmltc_automata::lazy::{intersection_witness, LazyError};
use xmltc_automata::Nta;
use xmltc_core::PebbleTransducer;
use xmltc_dtd::Dtd;
use xmltc_transducer_dsl::corpus::{generate, Family, Scenario, CORPUS_STATE_LIMIT, FAMILIES};
use xmltc_trees::{decode, BinaryTree, EncodedAlphabet, RawTree, UnrankedTree};
use xmltc_typecheck::bounded::{bounded_typecheck, BoundedOutcome};
use xmltc_typecheck::check::{extract_bad_output_with, ResolvedRoute};
use xmltc_typecheck::walk::{walking_to_dbta_with, WalkOptions};
use xmltc_typecheck::{
    mso_route, replay_counterexample, typecheck, violation_automaton, Engine, TypecheckError,
    TypecheckOptions, TypecheckOutcome,
};
use xmltc_xml::raw_to_xml;
use xmltc_xmlql::pipeline::PipelineError;
use xmltc_xmlql::{DocumentPipeline, DocumentVerdict, Stylesheet};

/// Cycles per second of `--seconds`.
pub const CYCLES_PER_SECOND: f64 = 1.9;

/// The heavy Q2 slots of a cycle: `(m, c, p)`. Two typecheck
/// (`c ≡ p ≡ 0 mod m`), two do not; the typechecking m = 8 slot is the
/// slowest stratum and holds the 99th percentile.
const HEAVY: [(u32, u32, u32); 4] = [(6, 6, 5), (7, 7, 7), (8, 8, 7), (8, 8, 8)];
/// Corpus cases per cycle, spread over the six families: 90% of the
/// operations, so the median is a mid quantile of a large corpus sample.
const CORPUS_PER_CYCLE: usize = 54;
/// The ROADMAP's walk-cliff case.
const DEEP_SEED: u64 = 0xc0de;
const DEEP_INDEX: u64 = 335;

/// A committed fixture triple with the answer its comments state.
struct Fixture {
    dtd: &'static str,
    xsl: &'static str,
    out: &'static str,
    typechecks: bool,
}

const FIXTURES: [Fixture; 8] = [
    // q2_mod3_out.dtd: "true of Q2's image (3 + 3n children)".
    Fixture {
        dtd: "q2.dtd",
        xsl: "q2.xsl",
        out: "q2_mod3_out.dtd",
        typechecks: true,
    },
    // q2_mod2_out.dtd: "FALSE of Q2's image".
    Fixture {
        dtd: "q2.dtd",
        xsl: "q2.xsl",
        out: "q2_mod2_out.dtd",
        typechecks: false,
    },
    // even_a.dtd: "the inverse of the even-b output DTD ... is exactly the even-a input DTD".
    Fixture {
        dtd: "even_a.dtd",
        xsl: "relabel.xsl",
        out: "even_b.dtd",
        typechecks: true,
    },
    // any_a.dtd: "does NOT typecheck against the even-b output DTD".
    Fixture {
        dtd: "any_a.dtd",
        xsl: "relabel.xsl",
        out: "even_b.dtd",
        typechecks: false,
    },
    // empty_out.dtd: "every valid input is a counterexample".
    Fixture {
        dtd: "any_a.dtd",
        xsl: "relabel.xsl",
        out: "empty_out.dtd",
        typechecks: false,
    },
    // universal_out.dtd: "every transformation typechecks".
    Fixture {
        dtd: "any_a.dtd",
        xsl: "relabel.xsl",
        out: "universal_out.dtd",
        typechecks: true,
    },
    // single_out.dtd: "matching the identity image: typechecks".
    Fixture {
        dtd: "single.dtd",
        xsl: "single.xsl",
        out: "single_out.dtd",
        typechecks: true,
    },
    // single_out_strict.dtd: "the identity cannot typecheck".
    Fixture {
        dtd: "single.dtd",
        xsl: "single.xsl",
        out: "single_out_strict.dtd",
        typechecks: false,
    },
];

enum Kind {
    Q2 {
        m: u32,
        c: u32,
        p: u32,
        root: String,
        a: String,
        b: String,
        res: String,
    },
    Fixture {
        typechecks: bool,
    },
    Corpus(Box<Scenario>),
}

/// One typechecking problem: spec texts (document-level problems) or a
/// corpus scenario.
pub struct Problem {
    cls: String,
    pub name: String,
    kind: Kind,
    pub dtd: String,
    pub xsl: String,
    pub out: String,
}

impl Problem {
    /// The independent answer: the closed form for Q2, the comments for
    /// fixtures; `None` for corpus cases.
    pub fn typechecks(&self) -> Option<bool> {
        match &self.kind {
            Kind::Q2 { m, c, p, .. } => Some(c.is_multiple_of(*m) && p.is_multiple_of(*m)),
            Kind::Fixture { typechecks } => Some(*typechecks),
            Kind::Corpus(_) => None,
        }
    }
}

/// A verdict as the checks and the ledger see it.
enum Answer {
    Ok,
    Doc {
        input: RawTree,
        bad: Option<RawTree>,
    },
    Bin {
        input: BinaryTree,
        bad: Option<BinaryTree>,
    },
    /// The corpus state budget ran out: a correct, undecided outcome.
    Skip,
}

impl Answer {
    fn text(&self) -> String {
        match self {
            Answer::Ok => "typechecks".into(),
            Answer::Doc { input, bad } => format!(
                "cex {} -> {}",
                raw_to_xml(input),
                bad.as_ref().map_or("-".into(), raw_to_xml)
            ),
            Answer::Bin { input, bad } => format!(
                "cex {input} -> {}",
                bad.as_ref().map_or("-".into(), |b| b.to_string())
            ),
            Answer::Skip => "budget".into(),
        }
    }
}

fn corpus_opts() -> TypecheckOptions {
    TypecheckOptions {
        state_limit: CORPUS_STATE_LIMIT,
        ..TypecheckOptions::default()
    }
}

/// A Q2-family problem with seed-drawn tag names.
pub fn q2(rng: &mut Rng, m: u32, c: u32, p: u32) -> Problem {
    let (root, a, b, res) = (rng.name("r"), rng.name("a"), rng.name("b"), rng.name("res"));
    let mut items = Vec::new();
    for i in 0..c.max(p) {
        if i < p {
            items.push(b.clone());
        }
        if i < c {
            items.push("@apply".to_string());
        }
    }
    let group = vec![format!("({a}|{b})"); m as usize].join(".");
    let typechecks = c.is_multiple_of(m) && p.is_multiple_of(m);
    Problem {
        cls: format!("q2-m{m}-{}", if typechecks { "ok" } else { "cex" }),
        name: format!("q2 m={m} c={c} p={p} tags={root},{a},{b},{res}"),
        dtd: format!("{root} := {a}*\n{a} := @eps\n"),
        xsl: format!("{root} -> {res}({})\n{a} -> {a}\n", items.join(", ")),
        out: format!("{res} := ({group})*\n{a} := @eps\n{b} := @eps\n"),
        kind: Kind::Q2 {
            m,
            c,
            p,
            root,
            a,
            b,
            res,
        },
    }
}

fn corpus(cls: &str, seed: u64, family: Family, index: u64) -> Problem {
    Problem {
        cls: cls.into(),
        name: format!("corpus {} #{index} seed {seed:#x}", family.name()),
        kind: Kind::Corpus(Box::new(generate(seed, family, index))),
        dtd: String::new(),
        xsl: String::new(),
        out: String::new(),
    }
}

fn fixture(dir: &str, f: &Fixture) -> Result<Problem, String> {
    let read = |n: &str| {
        std::fs::read_to_string(format!("{dir}/{n}"))
            .map_err(|e| format!("cannot read {dir}/{n}: {e}"))
    };
    Ok(Problem {
        cls: "fixture".into(),
        name: format!("fixture {} {} {}", f.dtd, f.xsl, f.out),
        kind: Kind::Fixture {
            typechecks: f.typechecks,
        },
        dtd: read(f.dtd)?,
        xsl: read(f.xsl)?,
        out: read(f.out)?,
    })
}

/// Every committed fixture triple.
pub fn fixtures(dir: &str) -> Result<Vec<Problem>, String> {
    FIXTURES.iter().map(|f| fixture(dir, f)).collect()
}

/// The set-up's warm-up problems: every fixture and one light Q2 problem.
fn warmup(seed: u64, fixtures_dir: &str) -> Result<Vec<Problem>, String> {
    let mut v = fixtures(fixtures_dir)?;
    v.push(q2(&mut Rng::new(seed ^ 0x5e7), 4, 4, 4));
    Ok(v)
}

/// The run's problems, `cycles` cycles of 60.
fn plan(seed: u64, cycles: usize, fixtures_dir: &str) -> Result<Vec<Problem>, String> {
    let mut rng = Rng::new(seed);
    let corpus_seed = rng.next_u64();
    let fixture_base = rng.below(FIXTURES.len());
    let mut out = Vec::with_capacity(cycles * (HEAVY.len() + 2 + CORPUS_PER_CYCLE));
    for cycle in 0..cycles {
        let mut ps = Vec::with_capacity(HEAVY.len() + 2 + CORPUS_PER_CYCLE);
        for &(m, c, p) in &HEAVY {
            ps.push(q2(&mut rng, m, c, p));
        }
        ps.push(corpus(
            "deep335",
            DEEP_SEED,
            Family::DeepNesting,
            DEEP_INDEX,
        ));
        ps.push(fixture(
            fixtures_dir,
            &FIXTURES[(fixture_base + cycle) % FIXTURES.len()],
        )?);
        for j in 0..CORPUS_PER_CYCLE {
            let family = FAMILIES[(cycle * CORPUS_PER_CYCLE + j) % FAMILIES.len()];
            let index = (cycle * CORPUS_PER_CYCLE + j) as u64;
            ps.push(corpus("corpus", corpus_seed, family, index));
        }
        rng.shuffle(&mut ps);
        out.extend(ps);
    }
    Ok(out)
}

/// Digest of every input text of a plan.
fn digest(problems: &[Problem]) -> u64 {
    let mut h = 0u64;
    for p in problems {
        let text = match &p.kind {
            Kind::Corpus(s) => s.render(),
            _ => format!("{}\0{}\0{}", p.dtd, p.xsl, p.out),
        };
        h = fnv(format!("{h:x}{text}").as_bytes());
    }
    h
}

fn lift(e: PipelineError) -> Result<Answer, String> {
    match e {
        PipelineError::Typecheck(TypecheckError::TooManyStates { .. }) => Ok(Answer::Skip),
        e => Err(e.to_string()),
    }
}

fn from_outcome(r: Result<TypecheckOutcome, TypecheckError>) -> Result<Answer, String> {
    match r {
        Ok(TypecheckOutcome::Ok) => Ok(Answer::Ok),
        Ok(TypecheckOutcome::CounterExample { input, bad_output }) => Ok(Answer::Bin {
            input,
            bad: bad_output,
        }),
        Err(TypecheckError::TooManyStates { .. }) => Ok(Answer::Skip),
        Err(e) => Err(e.to_string()),
    }
}

/// The untraced operation: one whole public entry point.
fn solve(p: &Problem) -> Result<Answer, String> {
    if let Kind::Corpus(s) = &p.kind {
        let c = s.compile().map_err(|e| e.to_string())?;
        return from_outcome(typecheck(&c.transducer, &c.tau1, &c.tau2, &corpus_opts()));
    }
    let dtd = Dtd::parse_text(&p.dtd).map_err(|e| e.to_string())?;
    let sheet = Stylesheet::parse_text(&p.xsl).map_err(|e| e.to_string())?;
    let pipeline = match DocumentPipeline::new(sheet, dtd) {
        Ok(x) => x,
        Err(e) => return lift(e),
    };
    match pipeline.typecheck_against(&p.out) {
        Ok(DocumentVerdict::Ok) => Ok(Answer::Ok),
        Ok(DocumentVerdict::CounterExample { input, bad_output }) => Ok(Answer::Doc {
            input,
            bad: bad_output,
        }),
        Err(e) => lift(e),
    }
}

/// The traced operation: the same decision, one layer call at a time —
/// front end, Proposition 4.6 product, Theorem 4.7 walk, lazy emptiness,
/// bad-output extraction, decode.
fn solve_traced(
    p: &Problem,
    rec: &mut Rec,
    ctr: &mut Vec<(&'static str, f64)>,
) -> Result<Answer, String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    let (opts, t, tau1, tau2, encs): (
        _,
        PebbleTransducer,
        Nta,
        Nta,
        Option<(EncodedAlphabet, EncodedAlphabet)>,
    ) = match &p.kind {
        Kind::Corpus(sc) => {
            let c = rec
                .span("transducer-dsl.lower", || sc.compile())
                .map_err(|e| s(&e))?;
            (corpus_opts(), c.transducer, c.tau1, c.tau2, None)
        }
        _ => {
            let dtd = rec
                .span("dtd.parse", || Dtd::parse_text(&p.dtd))
                .map_err(|e| s(&e))?;
            let (t, enc_in, enc_out) = rec
                .span("xmlql.compile", || {
                    Stylesheet::parse_text(&p.xsl).and_then(|sh| sh.compile(dtd.alphabet()))
                })
                .map_err(|e| s(&e))?;
            let tau1 = rec
                .span("dtd.compile", || dtd.compile(&enc_in))
                .map_err(|e| s(&e))?;
            let out_dtd = rec
                .span("dtd.parse", || {
                    Dtd::parse_text_with(&p.out, enc_out.source())
                })
                .map_err(|e| s(&e))?;
            let tau2 = rec
                .span("dtd.compile", || out_dtd.compile(&enc_out))
                .map_err(|e| s(&e))?;
            (
                TypecheckOptions::default(),
                t,
                tau1,
                tau2,
                Some((enc_in, enc_out)),
            )
        }
    };
    ctr.push(("dtd.tau_states", (tau1.n_states() + tau2.n_states()) as f64));
    ctr.push(("xmlql.transducer_states", t.core().n_states() as f64));
    let route = opts.route_for(t.k());
    let engine = opts.engine_for(route);
    let v = rec
        .span("typecheck.product", || {
            violation_automaton(&t, &tau2).map(|v| v.trim_states())
        })
        .map_err(|e| s(&e))?;
    ctr.push((
        "typecheck.product.pebble_states",
        v.core().n_states() as f64,
    ));
    let violations = match route {
        ResolvedRoute::Walk => {
            let wopts = WalkOptions {
                limit: opts.state_limit,
                ..WalkOptions::default()
            };
            let built = rec.span("typecheck.walk", || {
                walking_to_dbta_with(&v, &wopts).map(|(d, ws)| (d.to_nta().trim(), ws))
            });
            let (nta, ws) = match built {
                Err(TypecheckError::TooManyStates { .. }) => return Ok(Answer::Skip),
                r => r.map_err(|e| s(&e))?,
            };
            ctr.push(("typecheck.walk.pairs", ws.pairs as f64));
            ctr.push(("typecheck.walk.compositions", ws.compositions as f64));
            ctr.push(("typecheck.walk.dbta_states", ws.dbta_states as f64));
            ctr.push(("typecheck.walk.fixpoint_steps", ws.fixpoint_steps as f64));
            ctr.push(("typecheck.walk.rounds", ws.rounds as f64));
            ctr.push(("typecheck.walk.memo_hit_rate", ws.memo_hit_rate()));
            ctr.push((
                "typecheck.walk.parallel_batches",
                ws.parallel_batches as f64,
            ));
            nta
        }
        ResolvedRoute::Mso => {
            match rec.span("typecheck.mso", || {
                mso_route::pebble_to_nta(&v, opts.state_limit)
            }) {
                Err(TypecheckError::TooManyStates { .. }) => return Ok(Answer::Skip),
                r => r.map_err(|e| s(&e))?.0.trim(),
            }
        }
    };
    let witness = if engine == Engine::Lazy {
        match rec.span("automata.lazy", || {
            intersection_witness(&tau1, &violations, opts.state_limit)
        }) {
            Ok((o, st)) => {
                ctr.push((
                    "automata.lazy.states_materialized",
                    st.states_materialized as f64,
                ));
                o.into_witness()
            }
            Err(LazyError::ConfigLimit { .. }) => return Ok(Answer::Skip),
            Err(e) => return Err(format!("{e:?}")),
        }
    } else {
        rec.span("automata.eager", || tau1.intersect(&violations).witness())
    };
    let Some(input) = witness else {
        return Ok(Answer::Ok);
    };
    let bad = match rec.span("typecheck.bad_output", || {
        extract_bad_output_with(&t, &input, &tau2, engine, &opts)
    }) {
        Err(TypecheckError::TooManyStates { .. }) => return Ok(Answer::Skip),
        r => r.map_err(|e| s(&e))?,
    };
    let Some((enc_in, enc_out)) = encs else {
        return Ok(Answer::Bin { input, bad });
    };
    rec.span("trees.decode", || {
        let input = decode(&input, &enc_in)?.to_raw();
        let bad = match bad {
            Some(b) => Some(decode(&b, &enc_out)?.to_raw()),
            None => None,
        };
        Ok(Answer::Doc { input, bad })
    })
    .map_err(|e: xmltc_trees::TreeError| e.to_string())
}

/// Confirms an answer against an independent one, outside the timed
/// region. `Ok(decided)` when it is correct.
fn check(p: &Problem, a: &Answer) -> Result<bool, String> {
    match (&p.kind, a) {
        (
            Kind::Q2 {
                m, c, p: markers, ..
            },
            Answer::Ok,
        ) => (c.is_multiple_of(*m) && markers.is_multiple_of(*m))
            .then_some(true)
            .ok_or("typechecks, closed form says no".into()),
        (
            Kind::Q2 {
                m,
                c,
                p: markers,
                root,
                a,
                b,
                res,
            },
            Answer::Doc { input, bad },
        ) => {
            let n = input.children.len() as u32;
            if input.name != *root
                || input
                    .children
                    .iter()
                    .any(|x| x.name != *a || !x.children.is_empty())
            {
                return Err(format!(
                    "counterexample input {} is not {root}({a}^n)",
                    raw_to_xml(input)
                ));
            }
            let bad = bad.as_ref().ok_or("no bad output")?;
            let len = markers + c * n;
            let mut want = Vec::new();
            for i in 0..(*c).max(*markers) {
                if i < *markers {
                    want.push(b.as_str());
                }
                if i < *c {
                    want.extend(std::iter::repeat_n(a.as_str(), n as usize));
                }
            }
            let got: Vec<&str> = bad.children.iter().map(|x| x.name.as_str()).collect();
            if bad.name != *res || got != want || len.is_multiple_of(*m) {
                return Err(format!(
                    "bad output for n={n} violates p + c·n ≢ 0 (mod {m})"
                ));
            }
            Ok(true)
        }
        (Kind::Fixture { typechecks }, Answer::Ok) => typechecks
            .then_some(true)
            .ok_or("typechecks, the fixture says no".into()),
        (Kind::Fixture { typechecks: false }, Answer::Doc { input, bad }) => {
            let dtd = Dtd::parse_text(&p.dtd).map_err(|e| e.to_string())?;
            let doc = UnrankedTree::from_raw(input, dtd.alphabet()).map_err(|e| e.to_string())?;
            dtd.validate(&doc)
                .map_err(|e| format!("counterexample input invalid: {e}"))?;
            let sheet = Stylesheet::parse_text(&p.xsl).map_err(|e| e.to_string())?;
            let out = sheet.apply(&doc).map_err(|e| e.to_string())?;
            if Some(&out) != bad.as_ref() {
                return Err("bad output is not the stylesheet's output".into());
            }
            let alphabet = sheet.output_alphabet();
            let out_dtd = Dtd::parse_text_with(&p.out, &alphabet).map_err(|e| e.to_string())?;
            let out_doc = UnrankedTree::from_raw(&out, &alphabet).map_err(|e| e.to_string())?;
            out_dtd
                .validate(&out_doc)
                .is_err()
                .then_some(true)
                .ok_or("bad output is valid".into())
        }
        (Kind::Corpus(sc), Answer::Ok) => {
            let c = sc.compile().map_err(|e| e.to_string())?;
            match bounded_typecheck(&c.transducer, &c.tau1, &c.tau2, 5, 16)
                .map_err(|e| e.to_string())?
            {
                BoundedOutcome::NoViolationFound { .. } => Ok(true),
                BoundedOutcome::CounterExample { .. } => {
                    Err("bounded search found a violation".into())
                }
            }
        }
        (Kind::Corpus(sc), Answer::Bin { input, bad }) => {
            // A fresh lowering has fresh alphabets: carry the trees over by
            // their text form.
            let c = sc.compile().map_err(|e| e.to_string())?;
            let bad = bad.as_ref().ok_or("no bad output")?;
            let input =
                BinaryTree::parse(&input.to_string(), &c.input).map_err(|e| e.to_string())?;
            let bad = BinaryTree::parse(&bad.to_string(), &c.output).map_err(|e| e.to_string())?;
            let ev = replay_counterexample(&c.transducer, &c.tau1, &c.tau2, &input, &bad)
                .map_err(|e| e.to_string())?;
            ev.verified()
                .then_some(true)
                .ok_or("replay did not confirm the counterexample".into())
        }
        (Kind::Corpus(_), Answer::Skip) => Ok(false),
        (_, a) => Err(format!("unexpected answer: {}", a.text())),
    }
}

/// Runs the workload: set-up, then every problem of the plan.
pub fn run(
    rec: &mut Rec,
    seed: u64,
    cycles: usize,
    trace: bool,
    fixtures_dir: &str,
) -> Result<(), String> {
    let warm = warmup(seed, fixtures_dir)?;
    let problems = plan(seed, cycles, fixtures_dir)?;
    rec.line(&format!(
        r#"{{"k":"meta","ops":{},"input_digest":"{:016x}"}}"#,
        problems.len(),
        digest(&problems)
    ));
    for _ in 0..crate::SETUP_REPEATS {
        rec.reference();
        let t0 = rec.now();
        for p in &warm {
            solve(p)?;
        }
        let t1 = rec.now();
        rec.setup(t0, t1, true);
    }
    rec.reference();
    for (i, p) in problems.iter().enumerate() {
        let mut op = Op {
            cls: p.cls.clone(),
            name: p.name.clone(),
            ..Op::default()
        };
        // In a traced run every other operation runs the traced sequence
        // first, so neither sequence always finds the caches warm.
        let traced_first = trace && i % 2 == 1;
        let mut traced = None;
        if traced_first {
            traced = Some(run_traced(p, rec, i, &mut op));
        }
        crate::host::reset_peak_rss();
        op.t0 = rec.now();
        let answer = solve(p);
        op.t1 = rec.now();
        op.rss_kb = crate::host::peak_rss_kb(std::process::id());
        if trace && !traced_first {
            traced = Some(run_traced(p, rec, i, &mut op));
        }
        let text = answer_text(&answer);
        op.digest = fnv(text.as_bytes());
        if let Some(t) = traced.filter(|t| *t != text) {
            op.note = Some(format!("wrong: traced run differs: {t} vs {text}"));
        }
        match answer.map(|a| (check(p, &a), a)) {
            Err(e) => op.note = Some(format!("error: {e}")),
            Ok((Err(e), _)) => op.note = Some(format!("wrong: {e}")),
            Ok((Ok(decided), a)) => {
                op.ok = op.note.is_none();
                op.decided = decided && op.ok;
                if matches!(a, Answer::Skip) {
                    op.note
                        .get_or_insert_with(|| "undecided: state budget".into());
                }
            }
        }
        rec.op(i as u64, &op);
        rec.pace(op.t1 - op.t0 + op.traced.map_or(0.0, |(a, b)| b - a));
    }
    Ok(())
}

/// Runs the traced sequence of one problem; returns its answer's text.
fn run_traced(p: &Problem, rec: &mut Rec, i: usize, op: &mut Op) -> String {
    rec.begin_op(i as u64);
    let t0 = rec.now();
    rec.open("typecheck.op");
    let traced = solve_traced(p, rec, &mut op.ctr);
    rec.close();
    op.traced = Some((t0, rec.now()));
    answer_text(&traced)
}

fn answer_text(a: &Result<Answer, String>) -> String {
    match a {
        Ok(a) => a.text(),
        Err(e) => format!("error {e}"),
    }
}
