//! The Theorem 4.7 walk's DBTA states are child-projection signatures: the
//! acceptance bit plus, per binary symbol, the left and right child
//! projections a parent's composition reads. Subtrees whose behaviour
//! triples differ only outside those projections share one state, so the
//! DBTA, its transition table and everything downstream shrink while the
//! fixpoint work (one run per distinct projection pair) stays the same.
//! The last test pins what the final emptiness check materializes on the
//! same instance, per engine.

use xmltc::core::machine::PebbleAutomaton;
use xmltc::dtd::Dtd;
use xmltc::obs;
use xmltc::typecheck::walk::{walking_to_dbta_with, WalkOptions, WalkStats};
use xmltc::typecheck::{typecheck, violation_automaton, Engine, TypecheckOptions};
use xmltc::xmlql::Stylesheet;

fn walk(v: &PebbleAutomaton) -> WalkStats {
    let (d, stats) = walking_to_dbta_with(v, &WalkOptions::default()).unwrap();
    assert_eq!(stats.dbta_states, d.n_states() as u64);
    assert_eq!(stats.memo_hits + stats.memo_misses, stats.compositions);
    stats
}

/// The Q2 family of the typecheck-mix benchmark: `root := a*`, a
/// stylesheet interleaving `c` copies of the children with `p` `b`
/// markers, checked against `res := ((a|b)^m)*`.
fn q2_family(m: usize, c: usize, p: usize) -> PebbleAutomaton {
    let dtd = Dtd::parse_text("root := a*\na := @eps").unwrap();
    let mut items = Vec::new();
    for i in 0..c.max(p) {
        if i < p {
            items.push("b");
        }
        if i < c {
            items.push("@apply");
        }
    }
    let sheet =
        Stylesheet::parse_text(&format!("root -> res({})\na -> a", items.join(", "))).unwrap();
    let (t, _, enc_out) = sheet.compile(dtd.alphabet()).unwrap();
    let group = vec!["(a|b)"; m].join(".");
    let tau2 = Dtd::parse_text_with(
        &format!("res := ({group})*\na := @eps\nb := @eps"),
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    violation_automaton(&t, &tau2).unwrap().trim_states()
}

#[test]
fn q2_mod3_walk_has_nine_signature_states() {
    let fx = xmltc::bench::q2_fixture();
    let v = violation_automaton(&fx.transducer, &fx.tau2_mod3)
        .unwrap()
        .trim_states();
    let s = walk(&v);
    // Its 67 distinct behaviour triples collapse to 9 signatures; the
    // transition table is 3 binary symbols × 9².
    assert_eq!(s.dbta_states, 9);
    assert_eq!(s.pairs, 243);
    // One fixpoint run per distinct projection pair (66) plus the leaf.
    assert_eq!(s.memo_misses, 67);
    // The walk compiles the 227-state product's bisimulation quotient, 80
    // classes. The kernel evaluates their actions, not states: 3 364 action
    // evaluations, at most 32 queued at once. Every exit set lies within
    // the up-move targets, which fit one word.
    assert_eq!(s.classes, 80);
    assert_eq!(s.fixpoint_steps, 3364);
    assert_eq!(s.worklist_peak, 32);
    assert_eq!(s.words, 1);
    assert_eq!(s.kernel_rows, 3411);
    assert_eq!(s.projections_interned, 21);
    // The leaf plus one request per table entry; all but the 67 runs
    // above share a composition.
    assert_eq!(s.compositions, 244);
    assert_eq!(s.memo_hits, 177);
}

#[test]
fn q2_m8_walk_collapses_to_fourteen_signatures() {
    let s = walk(&q2_family(8, 8, 8));
    // 177 distinct behaviour triples, 14 signatures.
    assert_eq!(s.dbta_states, 14);
    // The 822-state product has 375 bisimulation classes.
    assert_eq!(s.classes, 375);
}

#[test]
fn q2_mod3_emptiness_materializes_54_eager_and_12_lazy_states() {
    let fx = xmltc::bench::q2_fixture();
    let emptiness_metric = |engine, metric| {
        let opts = TypecheckOptions {
            engine,
            ..Default::default()
        };
        let (outcome, report) =
            obs::with_report(|| typecheck(&fx.transducer, &fx.tau1, &fx.tau2_mod3, &opts).unwrap());
        assert!(outcome.is_ok());
        report
            .span_metric("typecheck.emptiness", metric)
            .unwrap_or_else(|| panic!("{engine:?} run reports {metric}"))
    };
    // The eager engine builds the whole trimmed τ₁ × violations product;
    // the lazy one makes only the 12 pairs of it that some tree reaches
    // (the instance typechecks, so its search runs to the end) and reports
    // the same product size as its bound.
    assert_eq!(emptiness_metric(Engine::Eager, "intersection.states"), 54);
    assert_eq!(
        emptiness_metric(Engine::Lazy, "lazy.states_materialized"),
        12
    );
    assert_eq!(emptiness_metric(Engine::Lazy, "lazy.states_eager"), 54);
}
