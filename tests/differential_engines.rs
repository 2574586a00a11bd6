//! Differential validation of the emptiness search against oracles: the
//! library's on-the-fly search (`lazy`) and the built product automaton
//! (`eager`, [`Nta::witness`]) must return the same least counterexample,
//! byte for byte, on every instance, and the search's bad output must
//! equal the built complement's ([`Nta::inclusion_counterexample`]).
//! `typecheck::bounded` (exhaustive up to its depth bound) must never
//! contradict either. Every counterexample is independently re-verified
//! against `τ₂`.
//!
//! Seeded random (input DTD, transducer, output DTD) triples drawn from
//! the in-tree [`SmallRng`]. The Theorem 4.7 walk construction depends
//! only on (transducer, output DTD), so its (expensive) violation
//! automaton is computed once per such pair and shared by both sides,
//! which then differ only in the final emptiness check. Case count and
//! seed are overridable for the CI nightly-style run:
//!
//! ```text
//! XMLTC_DIFF_CASES=1000 XMLTC_DIFF_SEED=7 cargo test --test differential_engines
//! ```

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use xmltc::automata::{lazy, Nta};
use xmltc::dsl::{generate, minimize_scenario, Family, Scenario, CORPUS_STATE_LIMIT, FAMILIES};
use xmltc::dtd::Dtd;
use xmltc::obs::{DocumentRecord, ExplainReport, ReplayRecord, TraceStepRecord, TransformRecord};
use xmltc::trees::{BinaryTree, SmallRng};
use xmltc::typecheck::bounded::{bounded_typecheck, BoundedOutcome};
use xmltc::typecheck::differential::differential_emptiness;
use xmltc::typecheck::inverse::violation_nta;
use xmltc::typecheck::{replay_counterexample, ReplayEvidence, TypecheckError, TypecheckOptions};
use xmltc::xmlql::{Stylesheet, Template};

/// Input DTDs (the `τ₁` pool). All share the tag set `{root, a}` so any
/// stylesheet below compiles against them.
const INPUT_DTDS: [&str; 5] = [
    "root := a*\na := a*",
    "root := a.a*\na := a*",
    "root := a?\na := a?",
    "root := (a.a)*\na := a*",
    "root := a*\na := @eps",
];

/// Template bodies for the `root` tag.
const ROOT_BODIES: [&str; 4] = [
    "out(@apply)",
    "out(b, @apply)",
    "out(@apply, @apply)",
    "out",
];

/// Template bodies for the `a` tag.
const A_BODIES: [&str; 4] = ["a", "b", "a(@apply)", "b(@apply, b)"];

/// Output content models for `out` (the `τ₂` pool).
const SPECS: [&str; 6] = ["(a|b)*", "b*", "b.(a|b)*", "a*", "b?.(a|b)*", "@empty"];

/// One compiled (transducer, output DTD) pair with its violation
/// automaton — everything that does not depend on the input DTD.
struct Compiled {
    t: xmltc::core::PebbleTransducer,
    enc_in: xmltc::trees::EncodedAlphabet,
    tau2: Nta,
    violations: Nta,
}

/// Compiles a (stylesheet, spec) combo; tags the stylesheet can never
/// output become `@empty` in the content model.
fn compile(root_body: &str, a_body: &str, spec: &str) -> Compiled {
    let sheet = Stylesheet::new(vec![
        Template::parse("root", root_body).unwrap(),
        Template::parse("a", a_body).unwrap(),
    ]);
    // Any DTD with the {root, a} tag set yields the same input alphabet.
    let probe_dtd = Dtd::parse_text(INPUT_DTDS[0]).unwrap();
    let (t, enc_in, enc_out) = sheet.compile(probe_dtd.alphabet()).unwrap();
    let out_src = enc_out.source();
    let mut spec_text = spec.to_string();
    let avail: Vec<&str> = ["a", "b"]
        .into_iter()
        .filter(|t| out_src.get(t).is_some())
        .collect();
    let mut lines = Vec::new();
    for tag in ["a", "b"] {
        if avail.contains(&tag) {
            lines.push(format!("{tag} := ({})*", avail.join("|")));
        } else {
            spec_text = spec_text.replace(tag, "@empty");
        }
    }
    lines.insert(0, format!("out := {spec_text}"));
    let tau2 = Dtd::parse_text_with(&lines.join("\n"), out_src)
        .unwrap()
        .compile(&enc_out)
        .unwrap();
    let violations = violation_nta(&t, &tau2, &TypecheckOptions::default()).unwrap();
    Compiled {
        t,
        enc_in,
        tau2,
        violations,
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The least tree of `out_lang ∖ τ₂` two ways: the built complement's
/// (`eager`) and the library's on-the-fly search's (`lazy`), under the
/// library's default budget.
fn bad_outputs(out_lang: &Nta, tau2: &Nta) -> [Option<BinaryTree>; 2] {
    let limit = TypecheckOptions::default().state_limit;
    let (lazy, _) = lazy::difference_witness(out_lang, tau2, limit).unwrap();
    [out_lang.inclusion_counterexample(tau2), lazy.into_witness()]
}

/// The output automaton of `t` on `input` (Proposition 3.8).
fn output_language(t: &xmltc::core::PebbleTransducer, input: &BinaryTree) -> Nta {
    xmltc::core::output_automaton(t, input).unwrap().to_nta()
}

/// Re-verifies a counterexample independently of the search that found
/// it: the input must be in `τ₁`, the input's output language must leak
/// outside `τ₂`, and the bad output (the same tree from the search and the
/// built complement) must exhibit the leak.
fn verify_cex(ctx: &str, c: &Compiled, tau1: &Nta, input: &BinaryTree) {
    assert!(
        tau1.accepts(input).unwrap(),
        "{ctx}: cex input must be valid"
    );
    let out_lang = output_language(&c.t, input);
    let [eager, lazy] = bad_outputs(&out_lang, &c.tau2);
    let b = lazy.expect("bad output extracted for every counterexample");
    assert_eq!(
        eager.map(|t| t.to_string()),
        Some(b.to_string()),
        "{ctx}: the search and the built complement extract different bad outputs"
    );
    assert!(
        out_lang.accepts(&b).unwrap(),
        "{ctx}: bad output must be producible"
    );
    assert!(
        !c.tau2.accepts(&b).unwrap(),
        "{ctx}: bad output must be rejected by tau2"
    );
    // The replay verifier re-executes the pair through the real
    // transformer + validator and must confirm every leg.
    let ev = replay_counterexample(&c.t, tau1, &c.tau2, input, &b).unwrap();
    assert!(
        ev.verified(),
        "{ctx}: replay not confirmed (input_in_type={}, output_produced={}, output_rejected={})",
        ev.input_in_type,
        ev.output_produced,
        ev.output_rejected
    );
    dump_explain(&c.t, input, &b, &ev);
}

/// When `XMLTC_EXPLAIN_DIR` is set, writes both witnesses (the built
/// product's and the search's) for an instance they disagree on into that
/// directory, next to the explain reports the CI differential job
/// uploads.
fn dump_witnesses(ctx: &str, eager: &Option<BinaryTree>, lazy: &Option<BinaryTree>) {
    let Ok(dir) = std::env::var("XMLTC_EXPLAIN_DIR") else {
        return;
    };
    let n = EXPLAIN_DUMPS.fetch_add(1, Ordering::Relaxed);
    if n < EXPLAIN_DUMP_CAP && std::fs::create_dir_all(&dir).is_ok() {
        let body = format!("# {ctx}\neager: {eager:?}\nlazy:  {lazy:?}\n");
        let _ = std::fs::write(format!("{dir}/disagreement_{n:03}.txt"), body);
    }
}

/// Reports dumped so far when `XMLTC_EXPLAIN_DIR` is set (capped so a
/// counterexample-heavy run does not flood the artifact store).
static EXPLAIN_DUMPS: AtomicUsize = AtomicUsize::new(0);
const EXPLAIN_DUMP_CAP: usize = 32;

/// When `XMLTC_EXPLAIN_DIR` is set, writes the annotated explain report
/// (schema `xmltc.explain/2`) for a verified counterexample into that
/// directory — the CI differential job uploads them as artifacts.
fn dump_explain(
    t: &xmltc::core::PebbleTransducer,
    input: &BinaryTree,
    bad: &BinaryTree,
    ev: &ReplayEvidence,
) {
    let Ok(dir) = std::env::var("XMLTC_EXPLAIN_DIR") else {
        return;
    };
    let n = EXPLAIN_DUMPS.fetch_add(1, Ordering::Relaxed);
    if n >= EXPLAIN_DUMP_CAP {
        return;
    }
    let mut report = ExplainReport::ok("walk");
    report.verdict = "counterexample".into();
    report.input = Some(DocumentRecord {
        term: input.to_string(),
        xml: None,
    });
    report.output = Some(DocumentRecord {
        term: bad.to_string(),
        xml: None,
    });
    report.transform = Some(TransformRecord {
        k: t.k() as u64,
        states: t.core().n_states() as u64,
        total_steps: ev.trace.len() as u64,
        truncated: false,
        steps: ev
            .trace
            .iter()
            .map(|s| TraceStepRecord {
                state: s.state.clone(),
                level: s.level as u64,
                input_symbol: s.input_symbol.clone(),
                pebbles: s.pebbles.clone(),
                action: s.action.clone(),
                out_path: s.out_path.clone(),
            })
            .collect(),
    });
    report.replay = Some(ReplayRecord {
        input_in_type: ev.input_in_type,
        output_produced: ev.output_produced,
        output_rejected: ev.output_rejected,
        steps: ev.trace.len() as u64,
    });
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = format!("{dir}/cex_{n:03}.json");
        let _ = std::fs::write(path, report.to_json_string());
    }
}

#[test]
fn engines_never_disagree() {
    let cases = env_u64("XMLTC_DIFF_CASES", 200);
    let seed = env_u64("XMLTC_DIFF_SEED", 0x1e97);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cache: HashMap<(usize, usize, usize), Rc<Compiled>> = HashMap::new();
    let mut failing = 0u64;
    let mut ok = 0u64;
    for case in 0..cases {
        // Cycle the (transducer, spec) combos so coverage is exhaustive,
        // draw the input DTD randomly so the triples stay random.
        let combo = case as usize;
        let ri = combo % ROOT_BODIES.len();
        let ai = (combo / ROOT_BODIES.len()) % A_BODIES.len();
        let si = (combo / (ROOT_BODIES.len() * A_BODIES.len())) % SPECS.len();
        let input_dtd = *rng.choose(&INPUT_DTDS);
        let (root_body, a_body, spec) = (ROOT_BODIES[ri], A_BODIES[ai], SPECS[si]);
        let ctx = format!(
            "case {case} (seed {seed:#x}): dtd {:?}, root→{root_body}, a→{a_body}, spec {spec}",
            input_dtd.replace('\n', "; ")
        );
        let c = cache
            .entry((ri, ai, si))
            .or_insert_with(|| Rc::new(compile(root_body, a_body, spec)))
            .clone();
        let tau1 = Dtd::parse_text_with(input_dtd, c.enc_in.source())
            .unwrap()
            .compile(&c.enc_in)
            .unwrap();

        // The search and the built product return the same least witness.
        let eager_witness = tau1.intersect(&c.violations).witness();
        let (lazy_out, stats) =
            lazy::intersection_witness(&tau1, &c.violations, 4_000_000).unwrap();
        let lazy_witness = lazy_out.into_witness();
        let text = |w: &Option<BinaryTree>| w.as_ref().map(BinaryTree::to_string);
        if text(&eager_witness) != text(&lazy_witness) {
            dump_witnesses(&ctx, &eager_witness, &lazy_witness);
        }
        assert_eq!(
            text(&eager_witness),
            text(&lazy_witness),
            "{ctx}: the search and the built product disagree"
        );
        assert!(
            stats.states_materialized <= stats.states_eager,
            "{ctx}: the search made more pairs than the product has states"
        );

        // The bounded-exhaustive oracle: enumerates τ₁ inputs up to a
        // depth bound and checks each concretely.
        let bounded = bounded_typecheck(&c.t, &tau1, &c.tau2, 5, 16).unwrap();
        if let BoundedOutcome::CounterExample { input, .. } = &bounded {
            assert!(
                eager_witness.is_some(),
                "{ctx}: the search said OK but bounded found {input}"
            );
        }

        // The (shared) counterexample must verify independently.
        match &eager_witness {
            Some(w) => {
                failing += 1;
                verify_cex(&ctx, &c, &tau1, w);
            }
            None => ok += 1,
        }
    }
    // The pools must actually exercise both verdicts, or the comparison
    // proves nothing.
    assert!(failing > 0, "no failing instances in {cases} cases");
    assert!(ok > 0, "no passing instances in {cases} cases");
}

// ---------------------------------------------------------------------------
// Corpus-driven differential testing: builder-generated adversarial triples.
// ---------------------------------------------------------------------------

/// When `XMLTC_CORPUS_DIR` is set, writes the failing triple (original and
/// minimized renders) there so CI can upload it as an artifact.
fn dump_corpus_failure(ctx: &str, reason: &str, original: &Scenario, minimized: &Scenario) {
    let Ok(dir) = std::env::var("XMLTC_CORPUS_DIR") else {
        return;
    };
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = format!(
        "{dir}/fail_{}_{}.txt",
        original.family.name(),
        original.index
    );
    let body = format!(
        "# {ctx}\n# reason: {reason}\n\n## original\n{}\n## minimized\n{}",
        original.render(),
        minimized.render()
    );
    let _ = std::fs::write(path, body);
}

/// Shrinks a failing scenario with the greedy minimizer, dumps the triple
/// for CI, and fails the test with the *minimized* reproduction — the
/// contract that no disagreement is ever reported un-minimized.
fn fail_minimized(
    ctx: &str,
    scenario: &Scenario,
    reason: &str,
    still_fails: impl FnMut(&Scenario) -> bool,
) -> ! {
    let out = minimize_scenario(scenario, still_fails);
    dump_corpus_failure(ctx, reason, scenario, &out.scenario);
    panic!(
        "{ctx}: {reason}\nminimized reproduction ({} components removed, {} candidates tried):\n{}",
        out.removed,
        out.tried,
        out.scenario.render()
    );
}

/// Typecheck options for corpus runs: like the defaults, but with the
/// Theorem 4.7 state budget clamped to [`CORPUS_STATE_LIMIT`]
/// (`XMLTC_CORPUS_STATE_LIMIT` overrides). Rare draws make the walk
/// construction's per-state behaviour fixpoints explode; the tight budget
/// turns such cases into explicit, counted resource skips instead of
/// multi-minute hangs — essential under the CI job's rotating seeds.
fn corpus_opts() -> TypecheckOptions {
    TypecheckOptions {
        state_limit: env_u64("XMLTC_CORPUS_STATE_LIMIT", CORPUS_STATE_LIMIT as u64) as u32,
        ..TypecheckOptions::default()
    }
}

/// True when the candidate still lowers and the search and the built
/// product still return different witnesses for it — the minimizer
/// predicate for mismatches.
fn still_disagrees(cand: &Scenario) -> bool {
    let Ok(c) = cand.compile() else {
        return false;
    };
    differential_emptiness(&c.transducer, &c.tau1, &c.tau2, &corpus_opts())
        .map(|v| !v.agree())
        .unwrap_or(false)
}

/// Verifies a corpus counterexample end to end: input ∈ τ₁, the search
/// and the built complement extract the same concrete bad output, and the
/// replay verifier confirms all three legs on the real transducer. Any
/// failed leg reports a minimized triple.
fn verify_corpus_cex(
    ctx: &str,
    scenario: &Scenario,
    c: &xmltc::dsl::CompiledScenario,
    input: &BinaryTree,
) {
    assert!(
        c.tau1.accepts(input).unwrap(),
        "{ctx}: cex input must be valid\n{}",
        scenario.render()
    );
    let [bad, lazy_bad] = bad_outputs(&output_language(&c.transducer, input), &c.tau2);
    if bad != lazy_bad {
        let reason = format!(
            "the search and the built complement extract different bad outputs: \
             eager {bad:?}, lazy {lazy_bad:?}"
        );
        fail_minimized(ctx, scenario, &reason, |cand| {
            let Ok(cc) = cand.compile() else {
                return false;
            };
            let Ok(vv) = violations_of(&cc) else {
                return false;
            };
            let Some(w) = cc.tau1.intersect(&vv).witness() else {
                return false;
            };
            let [eager, lazy] = bad_outputs(&output_language(&cc.transducer, &w), &cc.tau2);
            eager != lazy
        });
    }
    let Some(b) = bad else {
        fail_minimized(
            ctx,
            scenario,
            "counterexample input has no extractable bad output",
            |cand| {
                let Ok(cc) = cand.compile() else {
                    return false;
                };
                let Ok(vv) = violations_of(&cc) else {
                    return false;
                };
                let Some(w) = cc.tau1.intersect(&vv).witness() else {
                    return false;
                };
                output_language(&cc.transducer, &w)
                    .inclusion_counterexample(&cc.tau2)
                    .is_none()
            },
        );
    };
    let ev = replay_counterexample(&c.transducer, &c.tau1, &c.tau2, input, &b).unwrap();
    if !ev.verified() {
        fail_minimized(
            ctx,
            scenario,
            "replay did not confirm the counterexample",
            {
                let input = input.clone();
                let b = b.clone();
                move |cand| {
                    let Ok(cc) = cand.compile() else {
                        return false;
                    };
                    replay_counterexample(&cc.transducer, &cc.tau1, &cc.tau2, &input, &b)
                        .map(|e| !e.verified())
                        .unwrap_or(false)
                }
            },
        );
    }
    dump_explain(&c.transducer, input, &b, &ev);
}

fn violations_of(c: &xmltc::dsl::CompiledScenario) -> Result<Nta, TypecheckError> {
    violation_nta(&c.transducer, &c.tau2, &corpus_opts())
}

/// Runs `cases` corpus cases of one family through the search and the
/// built product; returns
/// `(ok, failing, skipped)` verdict counts. Every witness disagreement and
/// every replay failure is reported as a minimized triple. A case whose
/// Theorem 4.7 construction exceeds the corpus state budget (see
/// [`corpus_opts`]) is counted in `skipped` — callers bound the skip rate
/// so a budget regression cannot silently hollow out the sweep.
fn run_corpus_family(family: Family, seed: u64, cases: u64) -> (u64, u64, u64) {
    let opts = corpus_opts();
    let (mut ok, mut failing, mut skipped) = (0u64, 0u64, 0u64);
    for index in 0..cases {
        let scenario = generate(seed, family, index);
        let ctx = format!("corpus {} #{index} (seed {seed:#x})", family.name());
        let c = scenario.compile().unwrap_or_else(|e| {
            panic!(
                "{ctx}: generated case does not lower: {e}\n{}",
                scenario.render()
            )
        });
        let v = match differential_emptiness(&c.transducer, &c.tau1, &c.tau2, &opts) {
            Ok(v) => v,
            Err(TypecheckError::TooManyStates { n }) => {
                eprintln!("{ctx}: resource skip (state budget exceeded at {n})");
                skipped += 1;
                continue;
            }
            Err(e) => panic!("{ctx}: pipeline error: {e}\n{}", scenario.render()),
        };
        // (No `states_materialized ≤ states_eager` assertion here: that
        // economy only kicks in once products are large; corpus cases are
        // deliberately tiny and the search's constant overhead can exceed
        // |τ₁|·|violations| on them.)
        if !v.agree() {
            let reason = format!(
                "the search and the built product return different witnesses: \
                 eager {:?}, lazy {:?}",
                v.eager_witness, v.lazy_witness
            );
            fail_minimized(&ctx, &scenario, &reason, still_disagrees);
        }
        match &v.eager_witness {
            Some(w) => {
                failing += 1;
                verify_corpus_cex(&ctx, &scenario, &c, w);
            }
            None => ok += 1,
        }
    }
    (ok, failing, skipped)
}

/// Asserts resource skips stay rare (≤ 2% of the sweep): the budget is
/// there to convert pathological walk-construction blowups into explicit
/// skips, not to quietly exempt whole families from coverage.
fn assert_skips_rare(ctx: &str, skipped: u64, total: u64) {
    assert!(
        skipped * 50 <= total,
        "{ctx}: {skipped} of {total} cases skipped on the state budget — \
         more than 2%; the corpus budget no longer fits the generator"
    );
}

/// The corpus sweep: every adversarial family, the search against the
/// built product, minimized reporting. `XMLTC_CORPUS_CASES` scales the per-family count — the CI
/// corpus job sets it so the total is ≥2000; the default keeps a plain
/// `cargo test` fast.
#[test]
fn corpus_families_agree() {
    let per_family = env_u64("XMLTC_CORPUS_CASES", 40);
    let seed = env_u64("XMLTC_CORPUS_SEED", 0xc0de);
    let (mut ok, mut failing, mut skipped) = (0u64, 0u64, 0u64);
    for &family in &FAMILIES {
        let (o, f, s) = run_corpus_family(family, seed, per_family);
        ok += o;
        failing += f;
        skipped += s;
    }
    // The corpus must exercise both verdicts or the comparison proves
    // nothing.
    assert!(failing > 0, "no failing corpus instances");
    assert!(ok > 0, "no passing corpus instances");
    assert_skips_rare("corpus sweep", skipped, per_family * FAMILIES.len() as u64);
}

/// Satellite focus: the silent-transition-heavy family alone, at depth —
/// long ε-chains and silent cycles are where the on-the-fly search and the
/// built product differ most, so this family gets its own ≥200-case run
/// with replay enforced on every counterexample (inside
/// `verify_corpus_cex`).
#[test]
fn silent_chains_stress() {
    let cases = env_u64("XMLTC_SILENT_CASES", 200);
    let seed = env_u64("XMLTC_CORPUS_SEED", 0xc0de) ^ 0x51f3;
    let (ok, failing, skipped) = run_corpus_family(Family::SilentChains, seed, cases);
    assert!(ok > 0, "no passing silent-chain instances in {cases}");
    assert!(failing > 0, "no failing silent-chain instances in {cases}");
    assert_skips_rare("silent-chain stress", skipped, cases);
}

/// Satellite: minimizer property test against the real differential
/// predicate — a shrunken failing case still fails (the minimizer's
/// invariant), and shrinking is deterministic for a fixed seed.
#[test]
fn minimizer_preserves_failure_and_is_deterministic() {
    let seed = env_u64("XMLTC_CORPUS_SEED", 0xc0de);
    let fails_eagerly = |cand: &Scenario| {
        let Ok(c) = cand.compile() else {
            return false;
        };
        // Budget-exceeded candidates count as "not failing": the predicate
        // stays total and deterministic, which is all the property needs.
        let Ok(v) = violations_of(&c) else {
            return false;
        };
        !c.tau1.intersect(&v).is_empty()
    };
    let mut shrunk = 0u64;
    for &family in &FAMILIES {
        for index in 0..10 {
            let scenario = generate(seed, family, index);
            let a = minimize_scenario(&scenario, fails_eagerly);
            let b = minimize_scenario(&scenario, fails_eagerly);
            assert_eq!(a.scenario, b.scenario, "shrinking must be deterministic");
            assert_eq!((a.removed, a.tried), (b.removed, b.tried));
            if fails_eagerly(&scenario) {
                // Shrunken case still fails…
                assert!(
                    fails_eagerly(&a.scenario),
                    "minimizer lost the failure:\n{}",
                    a.scenario.render()
                );
                shrunk += 1;
            } else {
                // …or shrinking was a no-op on a passing case.
                assert_eq!(a.scenario, scenario);
                assert_eq!(a.removed, 0);
            }
        }
    }
    assert!(shrunk > 0, "property test never saw a failing case");
}
