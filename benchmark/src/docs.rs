//! `transform-docs`: each operation takes one XML text through parse →
//! validate → encode → eval → decode → serialize, on the process's main
//! thread (8 MiB stack, as `xmltc transform` runs). The walk never runs.
//!
//! Two pipelines are compiled in set-up: Q2 (`root := a*`, three markers
//! interleaved with three copies) for flat `root(aⁿ)` documents, and an
//! identity stylesheet over a recursive DTD for chains and random bushy
//! trees. Sizes follow a log-spaced ladder, 16 to 2 048 nodes, with the
//! same fixed count per rung for every shape, falling from 16 to 4 as
//! sizes grow. The counts put the median inside a dense cluster of
//! similar-cost rungs and the 99th percentile inside the flat-2 048 rung.
//! The last document of every cycle (0.44% of all) sits past today's
//! recursion limit — alternately a flat document of 8 000 children and a
//! chain 60 000 deep. It aborts the process; `run.py` counts it as failed
//! and resumes with the next cycle in a fresh process. The share is small
//! enough that when these documents later complete only `decided_share`
//! moves: they are the largest documents, ranked above the 99th
//! percentile either way.

use crate::rec::{fnv, Op, Rec};
use crate::rng::Rng;
use xmltc_core::PebbleTransducer;
use xmltc_dtd::Dtd;
use xmltc_trees::{decode, encode, EncodedAlphabet};
use xmltc_xml::{parse_document, raw_to_xml, to_xml};
use xmltc_xmlql::{DocumentPipeline, Stylesheet};

/// Cycles per second of `--seconds`.
pub const CYCLES_PER_SECOND: f64 = 2.5;

/// Documents per rung of the size ladder `16 << rung`, for each shape.
const PER_RUNG: [usize; 8] = [16, 14, 12, 10, 8, 6, 5, 4];
/// Documents per cycle: three shapes × the ladder, plus one past the
/// recursion limit.
pub const PER_CYCLE: usize = {
    let (mut n, mut k) = (1, 0);
    while k < PER_RUNG.len() {
        n += 3 * PER_RUNG[k];
        k += 1;
    }
    n
};
const PAST_FLAT: usize = 8_000;
const PAST_CHAIN: usize = 60_000;

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Flat,
    Chain,
    Bushy,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Flat => "flat",
            Shape::Chain => "chain",
            Shape::Bushy => "bushy",
        }
    }
}

/// Tag names of both pipelines, drawn from the seed.
pub struct Tags {
    root: String,
    a: String,
    b: String,
    res: String,
    doc: String,
    node: String,
    leaf: String,
}

impl Tags {
    pub fn new(seed: u64) -> Tags {
        let mut r = Rng::new(seed ^ 0x7a95);
        Tags {
            root: r.name("r"),
            a: r.name("a"),
            b: r.name("b"),
            res: r.name("res"),
            doc: r.name("d"),
            node: r.name("n"),
            leaf: r.name("l"),
        }
    }

    fn q2(&self) -> (String, String) {
        let (r, a, b, res) = (&self.root, &self.a, &self.b, &self.res);
        (
            format!("{r} := {a}*\n{a} := @eps\n"),
            format!("{r} -> {res}({b}, @apply, {b}, @apply, {b}, @apply)\n{a} -> {a}\n"),
        )
    }

    pub fn identity(&self) -> (String, String) {
        let (d, n, l) = (&self.doc, &self.node, &self.leaf);
        (
            format!("{d} := {n}*\n{n} := ({n}|{l})*\n{l} := @eps\n"),
            format!("{d} -> {d}(@apply)\n{n} -> {n}(@apply)\n{l} -> {l}\n"),
        )
    }
}

/// One document of the plan.
struct Doc {
    shape: Shape,
    size: usize,
    past_limit: bool,
    text: String,
}

fn flat(t: &Tags, n: usize) -> String {
    let mut s = format!("<{}>", t.root);
    for _ in 0..n {
        s.push_str(&format!("<{}/>", t.a));
    }
    s.push_str(&format!("</{}>", t.root));
    s
}

pub fn chain(t: &Tags, depth: usize) -> String {
    let mut s = format!("<{}>", t.doc);
    for _ in 0..depth {
        s.push_str(&format!("<{}>", t.node));
    }
    s.push_str(&format!("<{}/>", t.leaf));
    for _ in 0..depth {
        s.push_str(&format!("</{}>", t.node));
    }
    s.push_str(&format!("</{}>", t.doc));
    s
}

/// A random tree of `n` nodes under the document root: each new node hangs
/// under a uniformly chosen earlier non-leaf, which keeps depth
/// logarithmic. Serialized iteratively in the compact form `to_xml` writes.
pub fn bushy(t: &Tags, n: usize, rng: &mut Rng) -> String {
    // Node 0 is the document root; every other node is `node` or `leaf`.
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    let mut is_leaf = vec![false];
    let mut inner = vec![0usize];
    for i in 1..=n {
        let parent = inner[rng.below(inner.len())];
        kids[parent].push(i);
        let leaf = parent != 0 && rng.below(2) == 0;
        is_leaf.push(leaf);
        if !leaf {
            inner.push(i);
        }
    }
    let tag = |i: usize| {
        if i == 0 {
            &t.doc
        } else if is_leaf[i] {
            &t.leaf
        } else {
            &t.node
        }
    };
    let mut s = String::new();
    let mut stack = vec![(0usize, false)];
    while let Some((i, closing)) = stack.pop() {
        if closing {
            s.push_str(&format!("</{}>", tag(i)));
        } else if kids[i].is_empty() {
            s.push_str(&format!("<{}/>", tag(i)));
        } else {
            s.push_str(&format!("<{}>", tag(i)));
            stack.push((i, true));
            for &c in kids[i].iter().rev() {
                stack.push((c, false));
            }
        }
    }
    s
}

/// The documents of one cycle: the ladder in a seed-shuffled order, then
/// the document past the recursion limit.
fn cycle_docs(seed: u64, cycle: usize, t: &Tags) -> Vec<Doc> {
    let mut rng = Rng::new(seed.wrapping_add((cycle as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    let mut docs = Vec::with_capacity(PER_CYCLE);
    for shape in [Shape::Flat, Shape::Chain, Shape::Bushy] {
        for (rung, &count) in PER_RUNG.iter().enumerate() {
            let size = 16 << rung;
            for _ in 0..count {
                let text = match shape {
                    Shape::Flat => flat(t, size),
                    Shape::Chain => chain(t, size),
                    Shape::Bushy => bushy(t, size, &mut rng),
                };
                docs.push(Doc {
                    shape,
                    size,
                    past_limit: false,
                    text,
                });
            }
        }
    }
    rng.shuffle(&mut docs);
    // Last in its cycle, so every process that an abort ends has run
    // exactly one cycle from a fresh start.
    docs.push(if cycle.is_multiple_of(2) {
        Doc {
            shape: Shape::Flat,
            size: PAST_FLAT,
            past_limit: true,
            text: flat(t, PAST_FLAT),
        }
    } else {
        Doc {
            shape: Shape::Chain,
            size: PAST_CHAIN,
            past_limit: true,
            text: chain(t, PAST_CHAIN),
        }
    });
    docs
}

/// A compiled pipeline, plus — in a traced run — the pieces the traced
/// sequence calls directly.
struct Compiled {
    pipeline: DocumentPipeline,
    layers: Option<Layers>,
}

/// The front end compiled one layer at a time, for the traced sequence.
struct Layers {
    dtd: Dtd,
    t: PebbleTransducer,
    enc_in: EncodedAlphabet,
    enc_out: EncodedAlphabet,
}

fn compile(dtd: &str, xsl: &str, rec: &mut Rec, trace: bool) -> Result<Compiled, String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    let pipeline = DocumentPipeline::new(
        Stylesheet::parse_text(xsl).map_err(|e| s(&e))?,
        Dtd::parse_text(dtd).map_err(|e| s(&e))?,
    )
    .map_err(|e| s(&e))?;
    if !trace {
        return Ok(Compiled {
            pipeline,
            layers: None,
        });
    }
    let d = rec
        .span("dtd.parse", || Dtd::parse_text(dtd))
        .map_err(|e| s(&e))?;
    let (t, enc_in, enc_out) = rec
        .span("xmlql.compile", || {
            Stylesheet::parse_text(xsl).and_then(|sh| sh.compile(d.alphabet()))
        })
        .map_err(|e| s(&e))?;
    rec.span("dtd.compile", || d.compile(&enc_in))
        .map_err(|e| s(&e))?;
    let layers = Layers {
        dtd: d,
        t,
        enc_in,
        enc_out,
    };
    Ok(Compiled {
        pipeline,
        layers: Some(layers),
    })
}

/// The untraced operation: parse, the pipeline's whole transform, serialize.
fn transform(c: &Compiled, text: &str) -> Result<String, String> {
    let doc = parse_document(text, c.pipeline.input_dtd().alphabet()).map_err(|e| e.to_string())?;
    let out = c.pipeline.transform(&doc).map_err(|e| e.to_string())?;
    Ok(raw_to_xml(&out))
}

/// The traced operation: the six document calls, one span each.
fn transform_traced(
    c: &Layers,
    text: &str,
    rec: &mut Rec,
    ctr: &mut Vec<(&'static str, f64)>,
) -> Result<String, String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    let doc = rec
        .span("xml.parse", || parse_document(text, c.dtd.alphabet()))
        .map_err(|e| s(&e))?;
    ctr.push(("xml.nodes_in", doc.len() as f64));
    rec.span("dtd.validate", || c.dtd.validate(&doc))
        .map_err(|e| s(&e))?;
    let enc = rec
        .span("trees.encode", || encode(&doc, &c.enc_in))
        .map_err(|e| s(&e))?;
    let out = rec
        .span("core.eval", || xmltc_core::eval(&c.t, &enc))
        .map_err(|e| s(&e))?;
    let dec = rec
        .span("trees.decode", || decode(&out, &c.enc_out))
        .map_err(|e| s(&e))?;
    ctr.push(("core.nodes_out", dec.len() as f64));
    let xml = rec.span("xml.serialize", || to_xml(&dec));
    ctr.push(("xml.bytes_out", xml.len() as f64));
    Ok(xml)
}

/// Runs the traced sequence on one document; returns its output.
fn run_traced(c: &Compiled, text: &str, rec: &mut Rec, i: usize, op: &mut Op) -> String {
    rec.begin_op(i as u64);
    let t0 = rec.now();
    rec.open("transform.op");
    let layers = c.layers.as_ref().expect("a traced run compiles the layers");
    let out = transform_traced(layers, text, rec, &mut op.ctr);
    rec.close();
    op.traced = Some((t0, rec.now()));
    out.unwrap_or_else(|e| format!("error {e}"))
}

/// The closed-form output of a document.
fn expected(t: &Tags, d: &Doc) -> String {
    match d.shape {
        Shape::Chain | Shape::Bushy => d.text.clone(),
        Shape::Flat => {
            let mut s = format!("<{}>", t.res);
            for _ in 0..3 {
                s.push_str(&format!("<{}/>", t.b));
                for _ in 0..d.size {
                    s.push_str(&format!("<{}/>", t.a));
                }
            }
            s.push_str(&format!("</{}>", t.res));
            s
        }
    }
}

/// Runs the workload from operation `start` (0 for a fresh run).
pub fn run(
    rec: &mut Rec,
    seed: u64,
    cycles: usize,
    trace: bool,
    start: usize,
) -> Result<(), String> {
    let tags = Tags::new(seed);
    let (q2_dtd, q2_xsl) = tags.q2();
    let (id_dtd, id_xsl) = tags.identity();
    let digest = fnv(format!("{q2_dtd}{q2_xsl}{id_dtd}{id_xsl}").as_bytes());
    rec.line(&format!(
        r#"{{"k":"meta","ops":{},"input_digest":"{digest:016x}"}}"#,
        cycles * PER_CYCLE
    ));
    let warm = [
        flat(&tags, 64),
        chain(&tags, 64),
        bushy(&tags, 64, &mut Rng::new(seed)),
    ];
    // One set-up per process, as `xmltc transform` pays it: every process
    // contributes one cold set-up to `setup_s`.
    rec.reference();
    rec.begin_op(u64::MAX);
    let t0 = rec.now();
    let q2 = compile(&q2_dtd, &q2_xsl, rec, trace)?;
    let id = compile(&id_dtd, &id_xsl, rec, trace)?;
    transform(&q2, &warm[0])?;
    transform(&id, &warm[1])?;
    transform(&id, &warm[2])?;
    let t1 = rec.now();
    rec.setup(t0, t1, true);
    rec.reference();
    for cycle in start / PER_CYCLE..cycles {
        let docs = cycle_docs(seed, cycle, &tags);
        let cycle_digest = docs
            .iter()
            .fold(0u64, |h, d| fnv(format!("{h:x}{}", d.text).as_bytes()));
        rec.line(&format!(
            r#"{{"k":"cycle","c":{cycle},"digest":"{cycle_digest:016x}"}}"#
        ));
        for (j, d) in docs.iter().enumerate() {
            let i = cycle * PER_CYCLE + j;
            if i < start {
                continue;
            }
            let c = if d.shape == Shape::Flat { &q2 } else { &id };
            let cls = if d.past_limit {
                "past-limit".to_string()
            } else {
                format!("{}-{}", d.shape.name(), d.size)
            };
            let name = format!("{} {} nodes, cycle {cycle}", d.shape.name(), d.size);
            if d.past_limit {
                // This document ends the process today: write out the
                // scheduler counters the end record would carry.
                let (run_ns, wait_ns) = crate::host::schedstat(std::process::id());
                rec.line(&format!(
                    r#"{{"k":"sched","run_ns":{run_ns},"wait_ns":{wait_ns}}}"#
                ));
            }
            rec.line(&format!(
                r#"{{"k":"next","i":{i},"cls":"{cls}","name":"{name}"}}"#
            ));
            let mut op = Op {
                cls,
                name,
                ..Op::default()
            };
            // In a traced run every other operation runs the traced
            // sequence first, so neither sequence always finds the caches
            // warm.
            let traced_first = trace && i % 2 == 1;
            let mut traced = None;
            if traced_first {
                traced = Some(run_traced(c, &d.text, rec, i, &mut op));
            }
            crate::host::reset_peak_rss();
            op.t0 = rec.now();
            let out = transform(c, &d.text);
            op.t1 = rec.now();
            op.rss_kb = crate::host::peak_rss_kb(std::process::id());
            if trace && !traced_first {
                traced = Some(run_traced(c, &d.text, rec, i, &mut op));
            }
            let failed = out.as_ref().err().map(|e| format!("error: {e}"));
            let text = out.unwrap_or_else(|e| format!("error {e}"));
            op.digest = fnv(text.as_bytes());
            if traced.is_some_and(|t| t != text) {
                op.note = Some("wrong: traced run's output differs".into());
            }
            if failed.is_some() {
                op.note = failed;
            } else if text != expected(&tags, d) {
                op.note.get_or_insert_with(|| {
                    format!(
                        "wrong: output differs from the closed form: {}",
                        text.chars().take(80).collect::<String>()
                    )
                });
            }
            op.ok = op.note.is_none();
            op.decided = op.ok;
            rec.op(i as u64, &op);
            // Written per operation, so an abort loses no finished spans.
            rec.flush_spans();
            rec.pace(op.t1 - op.t0 + op.traced.map_or(0.0, |(a, b)| b - a));
        }
    }
    Ok(())
}
