//! Shared fixtures for the experiment harness: the workloads, machines and
//! types `run_experiments` and the root integration tests use, and the
//! [`harness`] that times the `obs_overhead` bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use std::sync::Arc;
use xmltc_automata::Nta;
use xmltc_core::machine::{Guard, Move, PebbleAutomaton, Presence};
use xmltc_core::PebbleTransducer;
use xmltc_dtd::Dtd;
use xmltc_transducer_dsl::{MachineSpec, Syms};
use xmltc_trees::{Alphabet, BinaryTree, EncodedAlphabet, UnrankedTree};

/// The standard small ranked alphabet used by machine-level experiments.
pub fn ranked_alphabet() -> Arc<Alphabet> {
    Alphabet::ranked(&["x", "y"], &["f", "g"])
}

/// A full binary tree with `2^depth - 1` nodes over [`ranked_alphabet`].
pub fn full_tree(al: &Arc<Alphabet>, depth: usize) -> BinaryTree {
    xmltc_trees::generate::full_binary(depth, al.get("f").unwrap(), al.get("x").unwrap(), al)
        .unwrap()
}

/// The flat documents `root(aⁿ)` of Examples 4.2/4.3.
pub fn flat_doc(al: &Arc<Alphabet>, n: usize) -> UnrankedTree {
    xmltc_trees::generate::flat(al.get("root").unwrap(), al.get("a").unwrap(), n, al).unwrap()
}

/// The Example 4.3 pipeline: Q2's transducer, alphabets, input type
/// `root := a*` and the mod-3 output type the exact checker proves.
pub struct Q2Fixture {
    /// The compiled 1-pebble transducer.
    pub transducer: PebbleTransducer,
    /// Input encoding.
    pub enc_in: EncodedAlphabet,
    /// Output encoding.
    pub enc_out: EncodedAlphabet,
    /// `τ₁` = encodings of `root := a*`.
    pub tau1: Nta,
    /// `τ₂` = children count ≡ 0 (mod 3) — exact-only.
    pub tau2_mod3: Nta,
    /// `τ₂` = `b.a*.b.a*.b.a*` — provable by both routes.
    pub tau2_coarse: Nta,
    /// The forward-inference baseline's over-approximate image (decoupled
    /// specialized DTD, compiled).
    pub forward_image: Nta,
}

/// Builds the Q2 fixture.
pub fn q2_fixture() -> Q2Fixture {
    let q2 = xmltc_xmlql::xslt::example_q2();
    let input_dtd = Dtd::parse_text("root := a*\na := @eps").unwrap();
    let (transducer, enc_in, enc_out) = q2.compile(input_dtd.alphabet()).unwrap();
    let tau1 = input_dtd.compile(&enc_in).unwrap();
    let forward_image = q2
        .infer_image(&input_dtd, enc_out.source())
        .unwrap()
        .compile(&enc_out)
        .unwrap();
    let tau2_mod3 = Dtd::parse_text_with(
        "result := ((a|b).(a|b).(a|b))*\na := @eps\nb := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    let tau2_coarse = Dtd::parse_text_with(
        "result := b.a*.b.a*.b.a*\na := @eps\nb := @eps",
        enc_out.source(),
    )
    .unwrap()
    .compile(&enc_out)
    .unwrap();
    Q2Fixture {
        transducer,
        enc_in,
        enc_out,
        tau1,
        tau2_mod3,
        tau2_coarse,
        forward_image,
    }
}

/// A family of 1-pebble (tree-walking) automata of growing state count for
/// the Theorem 4.7 / Theorem 4.8 cost experiments: `chain(m)` walks to the
/// leftmost leaf through `m` intermediate states and accepts iff it is `y`,
/// after also and-branching at the root.
pub fn walking_chain(al: &Arc<Alphabet>, m: usize) -> PebbleAutomaton {
    let n = m.max(1);
    let mut s = MachineSpec::new("walking_chain", 1);
    for i in 0..n {
        s.state(format!("c{i}"), 1);
    }
    s.state("check", 1).state("lw", 1).state("rw", 1);
    s.initial("c0");
    // Chain of stays, then a branch: left walk and right walk must both
    // find y at their extreme leaf.
    for i in 0..n - 1 {
        s.walk(
            Syms::Any,
            format!("c{i}"),
            Guard::any(),
            Move::Stay,
            format!("c{}", i + 1),
        );
    }
    let last = format!("c{}", n - 1);
    s.fork(Syms::Binaries, &last, Guard::any(), "lw", "rw");
    s.walk(Syms::one("y"), &last, Guard::any(), Move::Stay, "check");
    s.accept(Syms::one("y"), "check", Guard::any());
    s.walk(Syms::Binaries, "lw", Guard::any(), Move::DownLeft, &last);
    s.walk(Syms::Binaries, "rw", Guard::any(), Move::DownRight, &last);
    s.build_automaton(al).unwrap()
}

/// A genuinely two-pebble automaton: accepts trees containing two
/// *distinct* `y` leaves. Pebble 1 walks nondeterministically to a `y`
/// leaf, places pebble 2, which must find another `y` leaf where pebble 1
/// is absent — the presence guard doing real work. (The language is
/// regular, as Theorem 4.7 promises; the machine is not expressible
/// without the pebble test.)
pub fn two_y_leaves(al: &Arc<Alphabet>) -> PebbleAutomaton {
    let mut s = MachineSpec::new("two_y_leaves", 2);
    s.state("w1", 1).state("w2", 2).initial("w1");
    s.walk(Syms::Binaries, "w1", Guard::any(), Move::DownLeft, "w1");
    s.walk(Syms::Binaries, "w1", Guard::any(), Move::DownRight, "w1");
    s.walk(Syms::one("y"), "w1", Guard::any(), Move::PlaceNew, "w2");
    s.walk(Syms::Binaries, "w2", Guard::any(), Move::DownLeft, "w2");
    s.walk(Syms::Binaries, "w2", Guard::any(), Move::DownRight, "w2");
    s.accept(Syms::one("y"), "w2", Guard::absent(1));
    s.build_automaton(al).unwrap()
}

/// A k-pebble automaton family parameterized by pebble count: pebble i
/// walks to the leftmost leaf, places the next pebble; the last level
/// accepts where all previous pebbles are present. Exercises place/pick
/// and guards at every level — the Theorem 4.8 blow-up driver.
pub fn pebble_tower(al: &Arc<Alphabet>, k: u8) -> PebbleAutomaton {
    let mut s = MachineSpec::new("pebble_tower", k);
    for lvl in 1..=k {
        s.state(format!("w{lvl}"), lvl);
    }
    s.initial("w1");
    for lvl in 1..=k {
        let w = format!("w{lvl}");
        s.walk(Syms::Binaries, &w, Guard::any(), Move::DownLeft, &w);
        if lvl < k {
            s.walk(
                Syms::Leaves,
                &w,
                Guard::any(),
                Move::PlaceNew,
                format!("w{}", lvl + 1),
            );
        } else {
            // Accept at a leaf where every previous pebble sits too (all
            // walked to the same leftmost leaf).
            let guard = Guard(vec![Presence::Present; (k - 1) as usize]);
            s.accept(Syms::Leaves, &w, guard);
        }
    }
    s.build_automaton(al).unwrap()
}
