//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p xmltc-bench --bin run_experiments
//! ```
//!
//! Each experiment Eₙ maps to a claim of the paper (see DESIGN.md's
//! experiment index); output is markdown, and a machine-readable JSON dump
//! is written to `target/experiments.json`.

use std::time::Instant;
use xmltc_bench::*;
use xmltc_core::eval::{eval_with_limit, output_automaton};
use xmltc_core::{eval, library};
use xmltc_dtd::{Dtd, SpecializedDtd, TypeId};
use xmltc_obs::{Json, ToJson};
use xmltc_regex::Regex;
use xmltc_trees::{decode, encode, Alphabet, EncodedAlphabet, SmallRng, UnrankedTree};
use xmltc_typecheck::mso_route::pebble_to_nta;
use xmltc_typecheck::walk::walking_to_dbta;
use xmltc_typecheck::{typecheck, Engine, TypecheckOptions, TypecheckOutcome};

#[derive(Default)]
struct Report {
    rows: Vec<(String, Json)>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let mut report = Report::default();
    e1_encoding(&mut report);
    e2_prop38(&mut report);
    e3_duplicator(&mut report);
    e4_rotation(&mut report);
    e5_q1(&mut report);
    e6_precision(&mut report);
    e7_suite(&mut report);
    e8_routes(&mut report);
    e9_blowup(&mut report);
    e10_datajoin(&mut report);
    e11_separation(&mut report);
    e12_eval(&mut report);

    let json = Json::Array(
        report
            .rows
            .iter()
            .map(|(k, v)| Json::Array(vec![Json::Str(k.clone()), v.clone()]))
            .collect(),
    )
    .encode_pretty();
    let path = std::path::Path::new("target");
    let _ = std::fs::create_dir_all(path);
    let file = path.join("experiments.json");
    if std::fs::write(&file, json).is_ok() {
        println!("\n(JSON dump written to {})", file.display());
    }
}

fn record(report: &mut Report, key: &str, value: impl ToJson) {
    report.rows.push((key.to_string(), value.to_json()));
}

/// E1 — Figure 1: the encoding is a linear-time bijection.
fn e1_encoding(report: &mut Report) {
    println!("\n## E1 — binary encoding (Figure 1): linear-time bijection\n");
    println!("| nodes | encode (ms) | decode (ms) | round-trip |");
    println!("|---|---|---|---|");
    let al = Alphabet::unranked(&["a", "b", "c"]);
    let enc = EncodedAlphabet::new(&al);
    let mut rng = SmallRng::seed_from_u64(7);
    for depth in [6usize, 9, 12, 14] {
        let doc = xmltc_trees::generate::random_unranked(&al, depth, 3, &mut rng).unwrap();
        let t0 = Instant::now();
        let bt = encode(&doc, &enc).unwrap();
        let t_enc = ms(t0);
        let t0 = Instant::now();
        let back = decode(&bt, &enc).unwrap();
        let t_dec = ms(t0);
        let ok = back == doc;
        println!(
            "| {} | {t_enc:.3} | {t_dec:.3} | {} |",
            doc.len(),
            if ok { "ok" } else { "FAIL" }
        );
        record(report, "E1", (doc.len(), t_enc, t_dec, ok));
        assert!(ok);
    }
}

/// E2 — Prop 3.8: output automaton size O(|t|^k), PTIME construction.
fn e2_prop38(report: &mut Report) {
    println!("\n## E2 — Proposition 3.8: output-language automata in PTIME\n");
    println!("| machine | k | input nodes | A_t states | build (ms) |");
    println!("|---|---|---|---|---|");
    let al = ranked_alphabet();
    let copy = library::copy(&al).unwrap();
    for depth in [5usize, 8, 11] {
        let t = full_tree(&al, depth);
        let t0 = Instant::now();
        let a = output_automaton(&copy, &t).unwrap();
        let dt = ms(t0);
        println!(
            "| copy (Ex 3.3) | 1 | {} | {} | {dt:.2} |",
            t.len(),
            a.n_states()
        );
        record(report, "E2.copy", (t.len(), a.n_states(), dt));
    }
    let (q1, doc_al) = xmltc_xmlql::query::example_q1();
    let (trans, enc_in, _) = q1.compile().unwrap();
    for n in [2usize, 4, 6, 8] {
        let doc = flat_doc(&doc_al, n);
        let encoded = encode(&doc, &enc_in).unwrap();
        let t0 = Instant::now();
        let a = output_automaton(&trans, &encoded).unwrap();
        let dt = ms(t0);
        println!(
            "| Q1 (Ex 4.2) | 3 | {} | {} | {dt:.2} |",
            encoded.len(),
            a.n_states()
        );
        record(report, "E2.q1", (encoded.len(), a.n_states(), dt));
    }
}

/// E3 — Example 3.6: output exponential, automaton polynomial.
fn e3_duplicator(report: &mut Report) {
    println!("\n## E3 — Example 3.6: exponential outputs, DAG-sized automata\n");
    println!("| input nodes | output nodes | A_t states | materialize (ms) | automaton (ms) |");
    println!("|---|---|---|---|---|");
    let al = ranked_alphabet();
    let (dup, _) = library::duplicator(&al).unwrap();
    for depth in [3usize, 5, 7, 9] {
        let t = full_tree(&al, depth);
        let t0 = Instant::now();
        let out = eval_with_limit(&dup, &t, 500_000_000).unwrap();
        let t_mat = ms(t0);
        let t0 = Instant::now();
        let a = output_automaton(&dup, &t).unwrap();
        let t_aut = ms(t0);
        println!(
            "| {} | {} | {} | {t_mat:.2} | {t_aut:.2} |",
            t.len(),
            out.len(),
            a.n_states()
        );
        record(
            report,
            "E3",
            (t.len(), out.len(), a.n_states(), t_mat, t_aut),
        );
    }
}

/// E4 — Example 3.7 / Figure 2: rotation, including string reversal.
fn e4_rotation(report: &mut Report) {
    println!("\n## E4 — Example 3.7: rotation around a leaf (Figure 2)\n");
    let al = Alphabet::ranked(&["s", "x", "y"], &["r", "f", "g", "s2"]);
    let (t, _) = library::rotation(
        &al,
        al.get("s").unwrap(),
        al.get("s2").unwrap(),
        al.get("r").unwrap(),
    )
    .unwrap();
    let input = xmltc_trees::BinaryTree::parse("r(f(s, x), y)", &al).unwrap();
    let out = eval(&t, &input).unwrap();
    println!("- `r(f(s, x), y)` ↦ `{out}` (new root s2; fresh leaves m, n)");
    record(report, "E4.figure2", out.to_string());

    // String reversal timing on combs.
    println!("\n| comb nodes | rotate (ms) |");
    println!("|---|---|");
    let al2 = Alphabet::ranked(&["s", "pad"], &["r", "a", "s2"]);
    let (rot, _) = library::rotation(
        &al2,
        al2.get("s").unwrap(),
        al2.get("s2").unwrap(),
        al2.get("r").unwrap(),
    )
    .unwrap();
    for len in [16usize, 64, 256, 1024] {
        let mut word = vec![al2.get("r").unwrap()];
        word.extend(std::iter::repeat_n(al2.get("a").unwrap(), len));
        let comb = xmltc_trees::generate::right_comb(
            &word,
            al2.get("s").unwrap(),
            al2.get("pad").unwrap(),
            &al2,
        )
        .unwrap();
        let t0 = Instant::now();
        let _ = eval(&rot, &comb).unwrap();
        let dt = ms(t0);
        println!("| {} | {dt:.2} |", comb.len());
        record(report, "E4.comb", (comb.len(), dt));
    }
}

/// E5 — Example 4.2: Q1, non-regular image, inverse typing pointwise.
fn e5_q1(report: &mut Report) {
    println!("\n## E5 — Example 4.2: Q1 maps aⁿ to bⁿ²; inverse of (b.b)* is (a.a)*\n");
    println!("| n | output | T(aⁿ) ⊆ (b.b)* | expected (n even) |");
    println!("|---|---|---|---|");
    let (q, al) = xmltc_xmlql::query::example_q1();
    let (t, enc_in, enc_out) = q.compile().unwrap();
    let tau2 = Dtd::parse_text_with("result := (b.b)*\nb := @eps", enc_out.source())
        .unwrap()
        .compile(&enc_out)
        .unwrap()
        .complement()
        .to_nta();
    for n in 0..=6usize {
        let doc = flat_doc(&al, n);
        let encoded = encode(&doc, &enc_in).unwrap();
        let lang = output_automaton(&t, &encoded).unwrap().to_nta();
        let conforms = lang.intersect(&tau2).is_empty();
        println!(
            "| {n} | result(b^{}) | {} | {} |",
            n * n,
            conforms,
            n % 2 == 0
        );
        record(report, "E5", (n, n * n, conforms));
        assert_eq!(conforms, n % 2 == 0);
    }
    println!("\n(Q1 is a 3-pebble machine: its exact Theorem 4.7 conversion is priced by the");
    println!("non-elementary Theorem 4.8 — see E9; the pointwise checks above are exact.)");
}

/// E6 — Example 4.3: exact typechecking vs forward inference precision.
fn e6_precision(report: &mut Report) {
    println!("\n## E6 — Example 4.3: exact vs forward-inference typechecking of Q2\n");
    println!("| output spec | truth | exact verdict | forward verdict |");
    println!("|---|---|---|---|");
    let fx = q2_fixture();
    let opts = TypecheckOptions::default();
    let specs: Vec<(&str, &xmltc_automata::Nta, bool)> = vec![
        ("children ≡ 0 (mod 3)", &fx.tau2_mod3, true),
        ("b.a*.b.a*.b.a*", &fx.tau2_coarse, true),
    ];
    for (name, tau2, truth) in specs {
        let exact = typecheck(&fx.transducer, &fx.tau1, tau2, &opts)
            .unwrap()
            .is_ok();
        let fwd = fx.inferred_image.subset_of(tau2);
        println!("| {name} | holds | {} | {} |", verdict(exact), verdict(fwd));
        record(report, "E6", (name, truth, exact, fwd));
        assert!(exact, "exact typechecker must prove a true spec");
    }
    println!("\nThe mod-3 spec is *true* but the decoupling over-approximation cannot prove");
    println!("it — the incompleteness of forward inference the paper's Related Work notes.");
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "typechecks"
    } else {
        "rejected"
    }
}

/// E7 — Theorem 4.4: the decision procedure with counterexamples, final
/// emptiness decided by both the eager and the lazy engine.
fn e7_suite(report: &mut Report) {
    println!("\n## E7 — Theorem 4.4: end-to-end typechecking suite (exact, k = 1)\n");
    println!(
        "| case | verdict | counterexample input | eager (ms) | eager states | lazy (ms) | lazy states |"
    );
    println!("|---|---|---|---|---|---|---|");
    let fx = q2_fixture();
    let bad_spec = Dtd::parse_text_with(
        "result := a*.b?.a*\na := @eps\nb := @eps",
        fx.enc_out.source(),
    )
    .unwrap()
    .compile(&fx.enc_out)
    .unwrap();
    let cases: Vec<(&str, &xmltc_automata::Nta)> = vec![
        ("Q2 vs mod-3 (true)", &fx.tau2_mod3),
        ("Q2 vs b.a*.b.a*.b.a* (true)", &fx.tau2_coarse),
        ("Q2 vs ≤1 b (false)", &bad_spec),
    ];
    for (name, tau2) in cases {
        let run = |engine, states_key| {
            let opts = TypecheckOptions {
                engine,
                ..Default::default()
            };
            let t0 = Instant::now();
            let (out, rep) = xmltc_obs::with_report(|| {
                typecheck(&fx.transducer, &fx.tau1, tau2, &opts).unwrap()
            });
            let dt = ms(t0);
            let states = rep
                .span_metric("typecheck.emptiness", states_key)
                .unwrap_or(0);
            (out, dt, states)
        };
        let (eager_out, t_eager, s_eager) = run(Engine::Eager, "intersection.states");
        let (lazy_out, t_lazy, s_lazy) = run(Engine::Lazy, "lazy.states_materialized");
        assert_eq!(
            format!("{eager_out:?}"),
            format!("{lazy_out:?}"),
            "engines return different witnesses: {name}"
        );
        match eager_out {
            TypecheckOutcome::Ok => {
                assert!(
                    s_lazy < s_eager,
                    "{name}: lazy must materialize strictly fewer states"
                );
                println!(
                    "| {name} | typechecks | — | {t_eager:.1} | {s_eager} | {t_lazy:.1} | {s_lazy} |"
                );
                record(report, "E7", (name, true, t_eager, s_eager, t_lazy, s_lazy));
            }
            TypecheckOutcome::CounterExample { input, .. } => {
                let doc = decode(&input, &fx.enc_in)
                    .map(|d| d.to_string())
                    .unwrap_or_else(|_| input.to_string());
                println!(
                    "| {name} | REJECTED | `{doc}` | {t_eager:.1} | {s_eager} | {t_lazy:.1} | {s_lazy} |"
                );
                record(
                    report,
                    "E7",
                    (name, false, t_eager, s_eager, t_lazy, s_lazy),
                );
            }
        }
    }
    println!("\nState counts are the final emptiness check's: the eager engine's trimmed");
    println!("τ₁ × violations product vs the pairs of it the lazy search made; both");
    println!("engines report the same least counterexample.");
}

/// E8 — Theorem 4.7: behaviour route vs MSO route, same machines.
fn e8_routes(report: &mut Report) {
    println!("\n## E8 — Theorem 4.7: k-pebble → regular, two constructions\n");
    println!(
        "| machine states | walk (ms) | walk result states | MSO (ms) | MSO peak states | agree |"
    );
    println!("|---|---|---|---|---|---|");
    let al = ranked_alphabet();
    for m in [1usize, 2, 3, 4] {
        let a = walking_chain(&al, m);
        let t0 = Instant::now();
        let d = walking_to_dbta(&a).unwrap();
        let t_walk = ms(t0);
        let t0 = Instant::now();
        let (nta, stats) = pebble_to_nta(&a, 4_000_000).unwrap();
        let t_mso = ms(t0);
        // Agreement on a tree sample.
        let mut agree = true;
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..30 {
            let t = xmltc_trees::generate::random_binary(&al, 4, 0.7, &mut rng).unwrap();
            agree &= d.accepts(&t).unwrap() == nta.accepts(&t).unwrap();
        }
        println!(
            "| {} | {t_walk:.1} | {} | {t_mso:.1} | {} | {} |",
            a.core().n_states(),
            d.n_states(),
            stats.max_states,
            agree
        );
        record(
            report,
            "E8",
            (
                a.core().n_states(),
                t_walk,
                d.n_states(),
                t_mso,
                stats.max_states,
                agree,
            ),
        );
        assert!(agree);
    }
}

/// E9 — Theorem 4.8: the non-elementary wall.
fn e9_blowup(report: &mut Report) {
    println!("\n## E9 — Theorem 4.8: typechecking cost explodes with machine size / pebbles\n");
    println!("| machine | states | k | MSO peak states | determinizations | time (ms) | outcome |");
    println!("|---|---|---|---|---|---|---|");
    let al = ranked_alphabet();
    let budget = 300_000;
    for m in [1usize, 3, 5, 7] {
        let a = walking_chain(&al, m);
        run_mso_case(report, &format!("chain({m})"), &a, budget);
    }
    for k in [1u8, 2, 3] {
        let a = pebble_tower(&al, k);
        run_mso_case(report, &format!("tower(k={k})"), &a, budget);
    }
    let a = two_y_leaves(&al);
    run_mso_case(report, "two-y-leaves (k=2, guard)", &a, budget);
    println!("\nThe walk route handles the same chain machines in microseconds (E8): the");
    println!("pebble count — not the state count — is the fundamental price (Theorem 4.8).");

    // The lower bound's engine: star-free generalized expressions, whose
    // minimal DFAs explode with complement depth (Stockmeyer). Theorem 4.8
    // reduces their emptiness to k-pebble typechecking.
    println!("\n### E9b — star-free expressions (the Theorem 4.8 reduction source)\n");
    println!("One complement = one determinization = up to one exponential; nested");
    println!("complements tower (Stockmeyer). The classical witness `Σ*·a·Σ^(k-1)`:\n");
    println!("| k | expression size | minimal DFA states | compile (ms) |");
    println!("|---|---|---|---|");
    for k in [4usize, 8, 12, 16] {
        let (e, universe) = xmltc_regex::starfree::kth_from_end(k);
        let t0 = Instant::now();
        let d = e.to_dfa(&universe).minimize();
        let dt = ms(t0);
        println!("| {k} | {} | {} | {dt:.1} |", e.size(), d.len());
        record(report, "E9b", (k, e.size(), d.len(), dt));
        assert_eq!(d.len(), 1usize << k);
    }
}

fn run_mso_case(
    report: &mut Report,
    name: &str,
    a: &xmltc_core::machine::PebbleAutomaton,
    budget: u32,
) {
    let t0 = Instant::now();
    match pebble_to_nta(a, budget) {
        Ok((_, stats)) => {
            let dt = ms(t0);
            println!(
                "| {name} | {} | {} | {} | {} | {dt:.1} | completed |",
                a.core().n_states(),
                a.k(),
                stats.max_states,
                stats.determinizations
            );
            record(
                report,
                "E9",
                (name, a.core().n_states(), a.k(), stats.max_states, dt, true),
            );
        }
        Err(e) => {
            let dt = ms(t0);
            println!(
                "| {name} | {} | {} | > {budget} | — | {dt:.1} | aborted ({e}) |",
                a.core().n_states(),
                a.k()
            );
            record(
                report,
                "E9",
                (name, a.core().n_states(), a.k(), budget, dt, false),
            );
        }
    }
}

/// E10 — Section 5: data-value joins via independent nondeterministic
/// guesses.
fn e10_datajoin(report: &mut Report) {
    println!("\n## E10 — Section 5: independent data joins as nondeterministic guesses\n");
    // A relational-export shape: rows(pair*), pair := @eps. The "join"
    // compares each pair's two (abstracted) data values; per Section 5 the
    // comparison is replaced by a nondeterministic guess emitting eq or
    // neq. Typechecking must hold for EVERY guess outcome.
    use xmltc_core::machine::{Guard, Move};
    use xmltc_transducer_dsl::{MachineSpec, Syms};
    let input_dtd = Dtd::parse_text("rows := pair*\npair := @eps").unwrap();
    let enc_in = EncodedAlphabet::new(input_dtd.alphabet());
    let out_al = Alphabet::unranked(&["out", "eq", "neq"]);
    let enc_out = EncodedAlphabet::new(&out_al);
    let cons_in = enc_in.encoded().name(enc_in.cons()).to_string();
    let nil_in = enc_in.encoded().name(enc_in.nil()).to_string();
    let cons_out = enc_out.encoded().name(enc_out.cons()).to_string();
    let nil_out = enc_out.encoded().name(enc_out.nil()).to_string();

    let mut m = MachineSpec::new("datajoin", 1);
    m.state("start", 1)
        .state("nil", 1)
        .state("walk", 1)
        .state("enter", 1)
        .state("guess", 1)
        .state("adv", 1)
        .initial("start");
    m.emit_leaf(Syms::Any, "nil", Guard::any(), &nil_out);
    m.emit_node(Syms::Any, "start", Guard::any(), "out", "enter", "nil");
    m.walk(Syms::Any, "enter", Guard::any(), Move::DownLeft, "walk");
    // At a cons cell: one guessed verdict per pair — the x = y test of the
    // extended transducer replaced by a nondeterministic choice.
    m.emit_node(
        Syms::one(&cons_in),
        "walk",
        Guard::any(),
        &cons_out,
        "guess",
        "adv",
    );
    m.emit_node(
        Syms::one(&cons_in),
        "guess",
        Guard::any(),
        "eq",
        "nil",
        "nil",
    );
    m.emit_node(
        Syms::one(&cons_in),
        "guess",
        Guard::any(),
        "neq",
        "nil",
        "nil",
    );
    m.walk(
        Syms::one(&cons_in),
        "adv",
        Guard::any(),
        Move::DownRight,
        "walk",
    );
    m.emit_leaf(Syms::one(&nil_in), "walk", Guard::any(), &nil_out);
    let t = m
        .build_transducer(enc_in.encoded(), enc_out.encoded())
        .unwrap();

    let tau1 = input_dtd.compile(&enc_in).unwrap();
    let tau2 = Dtd::parse_text_with(
        "out := (eq|neq)*\neq := @eps\nneq := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    let t0 = Instant::now();
    let outcome = typecheck(&t, &tau1, &tau2, &TypecheckOptions::default()).unwrap();
    let dt = ms(t0);
    println!(
        "- nondeterministic join-abstraction typechecks over ALL guess outcomes: {} ({dt:.1} ms)",
        outcome.is_ok()
    );
    record(report, "E10", (outcome.is_ok(), dt));
    assert!(outcome.is_ok());

    // And a wrong spec (`eq` only) is caught: some guess emits neq.
    let tau2_eq = Dtd::parse_text_with("out := eq*\neq := @eps\nneq := @eps", enc_out.source())
        .unwrap()
        .compile(&enc_out)
        .unwrap();
    let outcome = typecheck(&t, &tau1, &tau2_eq, &TypecheckOptions::default()).unwrap();
    println!(
        "- spec `out := eq*` correctly rejected (a guess can emit neq): {}",
        !outcome.is_ok()
    );
    assert!(!outcome.is_ok());
}

/// E11 — Section 2.3: DTDs ⊊ specialized DTDs.
fn e11_separation(report: &mut Report) {
    println!("\n## E11 — Section 2.3: decoupled tags separate DTDs from regular tree languages\n");
    let al = Alphabet::unranked(&["a", "b", "c", "d"]);
    let a = al.get("a").unwrap();
    let b = al.get("b").unwrap();
    let c = al.get("c").unwrap();
    let d = al.get("d").unwrap();
    let spec = SpecializedDtd::new(
        &al,
        vec!["A".into(), "Bc".into(), "Bd".into(), "C".into(), "D".into()],
        vec![a, b, b, c, d],
        vec![
            Regex::sym(TypeId(1)).concat(Regex::sym(TypeId(2))),
            Regex::sym(TypeId(3)),
            Regex::sym(TypeId(4)),
            Regex::Epsilon,
            Regex::Epsilon,
        ],
        TypeId(0),
    );
    // The best plain DTD for the same documents: a := b.b; b := c|d.
    let mut dtd = Dtd::new(&al, a);
    dtd.set_rule(a, Regex::sym(b).concat(Regex::sym(b)));
    dtd.set_rule(b, Regex::sym(c).alt(Regex::sym(d)));
    let mut spec_count = 0;
    let mut dtd_count = 0;
    for doc in [
        "a(b(c), b(d))",
        "a(b(d), b(c))",
        "a(b(c), b(c))",
        "a(b(d), b(d))",
    ] {
        let t = UnrankedTree::parse(doc, &al).unwrap();
        let in_spec = spec.validates(&t).unwrap();
        let in_dtd = dtd.is_valid(&t);
        spec_count += in_spec as usize;
        dtd_count += in_dtd as usize;
        println!("- `{doc}`: specialized {} | best DTD {}", in_spec, in_dtd);
    }
    println!(
        "\nspecialized DTD pins the single intended document ({spec_count}/4); a plain DTD \
         cannot give the two b's different content ({dtd_count}/4 accepted)."
    );
    record(report, "E11", (spec_count, dtd_count));
    assert_eq!((spec_count, dtd_count), (1, 4));
}

/// E12 — Section 3.3: PTIME data complexity of evaluation.
fn e12_eval(report: &mut Report) {
    println!("\n## E12 — Section 3.3: evaluation scales polynomially\n");
    println!("| machine | input nodes | eval (ms) |");
    println!("|---|---|---|");
    let al = ranked_alphabet();
    let copy = library::copy(&al).unwrap();
    for depth in [8usize, 11, 14] {
        let t = full_tree(&al, depth);
        let t0 = Instant::now();
        let _ = eval(&copy, &t).unwrap();
        let dt = ms(t0);
        println!("| copy | {} | {dt:.2} |", t.len());
        record(report, "E12.copy", (t.len(), dt));
    }
    let fx = q2_fixture();
    let doc_al = fx.enc_in.source().clone();
    for n in [64usize, 256, 1024] {
        let doc = flat_doc(&doc_al, n);
        let encoded = encode(&doc, &fx.enc_in).unwrap();
        let t0 = Instant::now();
        let _ = eval(&fx.transducer, &encoded).unwrap();
        let dt = ms(t0);
        println!("| Q2 (XSLT) | {} | {dt:.2} |", encoded.len());
        record(report, "E12.q2", (encoded.len(), dt));
    }
}
