//! Pins the exact bytes of the Theorem 4.7 walk DBTA: state count, final
//! states, leaf transitions and the full binary transition table, folded
//! into one digest per machine in alphabet and state order. The kernel's
//! evaluation order may change how fast the least fixpoint is found, but
//! never which DBTA comes out, so these values do not move with it.

use xmltc::automata::{Dbta, State};
use xmltc::core::machine::PebbleAutomaton;
use xmltc::dsl::{generate, Family, CORPUS_STATE_LIMIT, FAMILIES};
use xmltc::dtd::Dtd;
use xmltc::typecheck::walk::{walking_to_dbta_with, WalkOptions};
use xmltc::typecheck::{violation_automaton, TypecheckError};
use xmltc::xmlql::Stylesheet;

/// FNV-1a over little-endian `u32` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A missing transition folds as `u32::MAX`.
fn state_word(q: Option<State>) -> u32 {
    q.map_or(u32::MAX, |q| q.0)
}

/// Folds a DBTA into `h` canonically: `n_states`, the sorted finals, the
/// leaf state of every leaf symbol, then `δ(a, s₁, s₂)` for every binary
/// symbol `a` and state pair, in alphabet and state order.
fn fold_dbta(h: &mut Fnv, d: &Dbta) {
    let n = d.n_states();
    h.word(n);
    h.word(d.finals().len() as u32);
    for q in d.finals().iter() {
        h.word(q.0);
    }
    let al = d.alphabet();
    for a in al.leaves() {
        h.word(state_word(d.leaf_state(a)));
    }
    for a in al.binaries() {
        for s1 in 0..n {
            for s2 in 0..n {
                h.word(state_word(d.node_state(a, State(s1), State(s2))));
            }
        }
    }
}

/// Folds one walk outcome: a DBTA, or the `n` of a budget abort (tagged
/// so it cannot collide with a state count).
fn fold_walk(h: &mut Fnv, v: &PebbleAutomaton, limit: u32) {
    match walking_to_dbta_with(v, &WalkOptions { limit }) {
        Ok((d, _)) => fold_dbta(h, &d),
        Err(TypecheckError::TooManyStates { n }) => {
            h.word(u32::MAX);
            h.word(n);
        }
        Err(e) => panic!("walk failed: {e}"),
    }
}

fn digest(v: &PebbleAutomaton, limit: u32) -> u64 {
    let mut h = Fnv::new();
    fold_walk(&mut h, v, limit);
    h.0
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

/// The violation automaton the walk route receives for a corpus case.
fn corpus_machine(seed: u64, family: Family, index: u64) -> PebbleAutomaton {
    let case = generate(seed, family, index).compile().unwrap();
    violation_automaton(&case.transducer, &case.tau2)
        .unwrap()
        .trim_states()
}

#[test]
fn q2_walk_dbtas_are_pinned() {
    let fx = xmltc::bench::q2_fixture();
    let v = violation_automaton(&fx.transducer, &fx.tau2_mod3)
        .unwrap()
        .trim_states();
    assert_eq!(digest(&v, u32::MAX), 0x890d_de55_897b_8115, "Q2/mod-3");
    let pins: [((usize, usize, usize), u64); 4] = [
        ((6, 6, 5), 0x9ae9_fb96_3494_cc23),
        ((7, 7, 7), 0xced9_4b3e_5c3d_6b15),
        ((8, 8, 7), 0xd19e_bf5b_2a48_7ad2),
        ((8, 8, 8), 0xe8e0_e6eb_2bca_095f),
    ];
    for ((m, c, p), want) in pins {
        let got = digest(&q2_family(m, c, p), u32::MAX);
        assert_eq!(got, want, "Q2 ({m}, {c}, {p})");
    }
}

#[test]
fn corpus_walk_dbtas_are_pinned() {
    const CASES: u64 = 50;
    let pins: [(Family, u64); 6] = [
        (Family::SilentChains, 0x3933_ec7b_f418_4c92),
        (Family::DeepNesting, 0x6590_30bb_9bae_09d0),
        (Family::NearEmpty, 0x2040_4f46_3a6f_9e42),
        (Family::NearUniversal, 0xbe3e_9aa2_36fa_f697),
        (Family::SingleSymbol, 0x3aec_283b_8237_cc16),
        (Family::DeadStates, 0xaac0_f977_8595_efc3),
    ];
    assert_eq!(pins.map(|(f, _)| f), FAMILIES);
    for (family, want) in pins {
        let mut h = Fnv::new();
        for index in 0..CASES {
            fold_walk(
                &mut h,
                &corpus_machine(0xc0de, family, index),
                CORPUS_STATE_LIMIT,
            );
        }
        assert_eq!(h.0, want, "{family} × {CASES} at seed 0xc0de");
    }
}

/// `deep-nesting` #335 has thousands of signatures; the budget stops it
/// at the first state past [`CORPUS_STATE_LIMIT`].
#[test]
fn deep_nesting_335_stops_at_the_budget() {
    let v = corpus_machine(0xc0de, Family::DeepNesting, 335);
    match walking_to_dbta_with(
        &v,
        &WalkOptions {
            limit: CORPUS_STATE_LIMIT,
        },
    ) {
        Err(TypecheckError::TooManyStates { n }) => assert_eq!(n, 801),
        other => panic!("expected a budget abort, got {:?}", other.map(|(_, s)| s)),
    }
}
