//! The verdict-provenance report model behind `xmltc explain`.
//!
//! A "no" answer from the typechecker (Theorem 4.4) is only auditable if
//! it carries evidence: which valid input breaks the spec, what the
//! transducer actually does on it, which output it produces, and where
//! that output falls outside the output DTD. [`ExplainReport`] is the
//! serializable record of exactly that causal chain, assembled by the
//! pipeline layer and rendered here in two forms:
//!
//! * [`ExplainReport::to_json`] — the machine-readable document (schema
//!   `xmltc.explain/2`, golden-pinned) written by `xmltc typecheck
//!   --explain-out` and `xmltc explain --json`;
//! * [`ExplainReport::render_text`] — the human-readable report printed
//!   by `xmltc explain`.
//!
//! This crate is dependency-free by design, so the model holds only plain
//! strings and numbers: state *names*, tree *terms*, node *paths*,
//! production *text*. Higher layers (which own the trees, machines and
//! DTDs) populate it; nothing here can drift out of sync with the core
//! types because nothing here references them.

use crate::json::Json;

/// Version tag of the JSON encoding. Bump only with the golden tests.
pub const SCHEMA: &str = "xmltc.explain/2";

/// A document in the provenance chain (counterexample input or offending
/// output).
#[derive(Clone, Debug, PartialEq)]
pub struct DocumentRecord {
    /// Term syntax (`root(a, a)`).
    pub term: String,
    /// XML serialization, when the layer that built the report had one.
    pub xml: Option<String>,
}

/// One step of the pebble-transducer run on the counterexample input.
///
/// The configuration fields describe the machine *before* the action
/// fires; `out_path` is the output node under construction (`/`-separated
/// `L`/`R` segments, `/` = root).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStepRecord {
    /// State name.
    pub state: String,
    /// Pebble level of the state (1-based).
    pub level: u64,
    /// Input symbol under the current pebble.
    pub input_symbol: String,
    /// Node paths of pebbles `1..=level` in the input tree.
    pub pebbles: Vec<String>,
    /// The rule that fired, rendered (`move -> q2 @ /L`, `output2 out ->
    /// (q1, q2)`, `output0 b`).
    pub action: String,
    /// Path of the output node this step contributes to.
    pub out_path: String,
}

/// The transducer run: per-node states, pebble positions and rules fired.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformRecord {
    /// Pebble count of the machine.
    pub k: u64,
    /// State count of the machine.
    pub states: u64,
    /// Total steps of the replayed run (before truncation).
    pub total_steps: u64,
    /// True when `steps` was capped for report size.
    pub truncated: bool,
    /// The recorded steps.
    pub steps: Vec<TraceStepRecord>,
}

/// Where the offending output leaves the output DTD: the failing element,
/// its children word, the implicated production, and the exact path
/// through the content-model DFA.
#[derive(Clone, Debug, PartialEq)]
pub struct ViolationRecord {
    /// `"wrong-root"` or `"invalid-content"`.
    pub kind: String,
    /// 1-based child-index path of the failing element (`/` = root).
    pub path: String,
    /// Tag of the failing element.
    pub element: String,
    /// Its children word.
    pub word: Vec<String>,
    /// The implicated DTD production, rendered (`out := b.b+`).
    pub production: String,
    /// Index into `word` where acceptance became impossible
    /// (`word.len()` = the content ended too early).
    pub failed_at: u64,
    /// Content-DFA state sequence up to the failure point.
    pub dfa_states: Vec<u64>,
    /// Symbols that could have continued toward acceptance there.
    pub expected: Vec<String>,
}

/// The failure point in the compiled spec automaton `τ₂` over the encoded
/// output tree — the automaton-level twin of [`ViolationRecord`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpecAutomatonRecord {
    /// State count of `τ₂`.
    pub states: u64,
    /// Encoded-tree node path where every bottom-up run dies.
    pub rejection_path: String,
    /// States still reachable at that node (0 unless the root merely
    /// misses the final set).
    pub reachable_there: u64,
}

/// The replay verifier's independent re-check of the counterexample.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayRecord {
    /// The input is accepted by the input type `τ₁`.
    pub input_in_type: bool,
    /// The offending output was re-derived by stepping the real
    /// transducer on the input.
    pub output_produced: bool,
    /// The offending output is rejected by the output type `τ₂`.
    pub output_rejected: bool,
    /// Steps of the replayed run.
    pub steps: u64,
}

impl ReplayRecord {
    /// True when every leg of the replay confirms the verdict.
    pub fn verified(&self) -> bool {
        self.input_in_type && self.output_produced && self.output_rejected
    }
}

/// The full provenance report for one typechecking verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainReport {
    /// `"ok"` or `"counterexample"`.
    pub verdict: String,
    /// Resolved Theorem 4.7 route (`"walk"` / `"mso"`).
    pub route: String,
    /// The counterexample input document.
    pub input: Option<DocumentRecord>,
    /// The transducer run on it.
    pub transform: Option<TransformRecord>,
    /// The offending output document.
    pub output: Option<DocumentRecord>,
    /// The output-DTD validation failure.
    pub violation: Option<ViolationRecord>,
    /// The automaton-level failure point.
    pub spec_automaton: Option<SpecAutomatonRecord>,
    /// The replay verifier's verdict.
    pub replay: Option<ReplayRecord>,
}

impl ExplainReport {
    /// A report for a passing verdict (no sections).
    pub fn ok(route: &str) -> ExplainReport {
        ExplainReport {
            verdict: "ok".into(),
            route: route.into(),
            input: None,
            transform: None,
            output: None,
            violation: None,
            spec_automaton: None,
            replay: None,
        }
    }

    /// True when the verdict is `"ok"`.
    pub fn is_ok(&self) -> bool {
        self.verdict == "ok"
    }

    /// The machine-readable encoding (schema [`SCHEMA`]). Key order is
    /// part of the contract; sections that were not populated are omitted.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("verdict", Json::Str(self.verdict.clone())),
            ("route", Json::Str(self.route.clone())),
        ];
        if let Some(d) = &self.input {
            fields.push(("input", doc_json(d)));
        }
        if let Some(t) = &self.transform {
            fields.push((
                "transform",
                Json::obj(vec![
                    ("k", Json::U64(t.k)),
                    ("states", Json::U64(t.states)),
                    ("total_steps", Json::U64(t.total_steps)),
                    ("truncated", Json::Bool(t.truncated)),
                    (
                        "steps",
                        Json::Array(t.steps.iter().map(step_json).collect()),
                    ),
                ]),
            ));
        }
        if let Some(d) = &self.output {
            fields.push(("output", doc_json(d)));
        }
        if let Some(v) = &self.violation {
            fields.push((
                "violation",
                Json::obj(vec![
                    ("kind", Json::Str(v.kind.clone())),
                    ("path", Json::Str(v.path.clone())),
                    ("element", Json::Str(v.element.clone())),
                    ("word", str_array(&v.word)),
                    ("production", Json::Str(v.production.clone())),
                    ("failed_at", Json::U64(v.failed_at)),
                    (
                        "dfa_states",
                        Json::Array(v.dfa_states.iter().map(|&q| Json::U64(q)).collect()),
                    ),
                    ("expected", str_array(&v.expected)),
                ]),
            ));
        }
        if let Some(s) = &self.spec_automaton {
            fields.push((
                "spec_automaton",
                Json::obj(vec![
                    ("states", Json::U64(s.states)),
                    ("rejection_path", Json::Str(s.rejection_path.clone())),
                    ("reachable_there", Json::U64(s.reachable_there)),
                ]),
            ));
        }
        if let Some(r) = &self.replay {
            fields.push((
                "replay",
                Json::obj(vec![
                    ("input_in_type", Json::Bool(r.input_in_type)),
                    ("output_produced", Json::Bool(r.output_produced)),
                    ("output_rejected", Json::Bool(r.output_rejected)),
                    ("steps", Json::U64(r.steps)),
                    ("verified", Json::Bool(r.verified())),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// The pretty-printed JSON string the CLI writes.
    pub fn to_json_string(&self) -> String {
        self.to_json().encode_pretty()
    }

    /// The human-readable report printed by `xmltc explain`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let line = |out: &mut String, s: &str| {
            out.push_str(s);
            out.push('\n');
        };
        if self.is_ok() {
            line(
                &mut out,
                &format!("typechecks (route {}): nothing to explain", self.route),
            );
            return out;
        }
        line(
            &mut out,
            &format!("DOES NOT typecheck (route {})", self.route),
        );
        if let Some(d) = &self.input {
            line(&mut out, "");
            line(&mut out, "counterexample input");
            render_doc(&mut out, d);
        }
        if let Some(t) = &self.transform {
            line(&mut out, "");
            line(
                &mut out,
                &format!(
                    "transducer run (k = {}, {} states, {} steps{})",
                    t.k,
                    t.states,
                    t.total_steps,
                    if t.truncated { ", truncated" } else { "" }
                ),
            );
            for (i, s) in t.steps.iter().enumerate() {
                line(
                    &mut out,
                    &format!(
                        "  {:>3}. {} [{} @ {}] {} (out {})",
                        i + 1,
                        s.state,
                        s.input_symbol,
                        s.pebbles.join(","),
                        s.action,
                        s.out_path
                    ),
                );
            }
        }
        if let Some(d) = &self.output {
            line(&mut out, "");
            line(&mut out, "offending output");
            render_doc(&mut out, d);
        }
        if let Some(v) = &self.violation {
            line(&mut out, "");
            line(&mut out, "output-DTD violation");
            match v.kind.as_str() {
                "wrong-root" => {
                    line(
                        &mut out,
                        &format!(
                            "  root element is <{}>, the DTD requires <{}>",
                            v.element,
                            v.expected.join("|")
                        ),
                    );
                }
                _ => {
                    line(
                        &mut out,
                        &format!(
                            "  element <{}> at {}: children [{}] violate `{}`",
                            v.element,
                            v.path,
                            v.word.join(", "),
                            v.production
                        ),
                    );
                    let at = v.failed_at as usize;
                    let where_ = if at >= v.word.len() {
                        "content ends too early".to_string()
                    } else {
                        format!("child {} (<{}>) is not allowed here", at + 1, v.word[at])
                    };
                    line(
                        &mut out,
                        &format!("  content DFA {:?}: {}", v.dfa_states.as_slice(), where_),
                    );
                    line(
                        &mut out,
                        &format!(
                            "  acceptable next: {}",
                            if v.expected.is_empty() {
                                "(nothing — the content model is unsatisfiable from here)".into()
                            } else {
                                v.expected.join(", ")
                            }
                        ),
                    );
                }
            }
        }
        if let Some(s) = &self.spec_automaton {
            line(&mut out, "");
            line(
                &mut out,
                &format!(
                    "spec automaton ({} states): every run dies at encoded node {} ({} states reachable there)",
                    s.states, s.rejection_path, s.reachable_there
                ),
            );
        }
        if let Some(r) = &self.replay {
            line(&mut out, "");
            let mark = |b: bool| if b { "yes" } else { "NO" };
            line(
                &mut out,
                &format!(
                    "replay: input in tau1: {}; output re-derived by the transducer ({} steps): {}; output rejected by tau2: {}",
                    mark(r.input_in_type),
                    r.steps,
                    mark(r.output_produced),
                    mark(r.output_rejected)
                ),
            );
            line(
                &mut out,
                if r.verified() {
                    "replay verdict: counterexample independently confirmed"
                } else {
                    "replay verdict: NOT CONFIRMED — report this as a bug"
                },
            );
        }
        out
    }
}

fn doc_json(d: &DocumentRecord) -> Json {
    let mut fields = vec![("term", Json::Str(d.term.clone()))];
    if let Some(xml) = &d.xml {
        fields.push(("xml", Json::Str(xml.clone())));
    }
    Json::obj(fields)
}

fn step_json(s: &TraceStepRecord) -> Json {
    Json::obj(vec![
        ("state", Json::Str(s.state.clone())),
        ("level", Json::U64(s.level)),
        ("input_symbol", Json::Str(s.input_symbol.clone())),
        ("pebbles", str_array(&s.pebbles)),
        ("action", Json::Str(s.action.clone())),
        ("out_path", Json::Str(s.out_path.clone())),
    ])
}

fn str_array(v: &[String]) -> Json {
    Json::Array(v.iter().map(|s| Json::Str(s.clone())).collect())
}

fn render_doc(out: &mut String, d: &DocumentRecord) {
    out.push_str(&format!("  term: {}\n", d.term));
    if let Some(xml) = &d.xml {
        out.push_str(&format!("  xml:  {xml}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_report_is_minimal() {
        let r = ExplainReport::ok("walk");
        assert!(r.is_ok());
        let j = r.to_json();
        assert_eq!(j.at("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(j.at("verdict").and_then(Json::as_str), Some("ok"));
        assert!(j.at("input").is_none());
        assert!(r.render_text().contains("nothing to explain"));
    }

    #[test]
    fn replay_verified_requires_all_legs() {
        let mut r = ReplayRecord {
            input_in_type: true,
            output_produced: true,
            output_rejected: true,
            steps: 3,
        };
        assert!(r.verified());
        r.output_produced = false;
        assert!(!r.verified());
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let report = ExplainReport {
            verdict: "counterexample".into(),
            route: "walk".into(),
            input: Some(DocumentRecord {
                term: "root(a)".into(),
                xml: Some("<root><a/></root>".into()),
            }),
            transform: None,
            output: None,
            violation: None,
            spec_automaton: None,
            replay: Some(ReplayRecord {
                input_in_type: true,
                output_produced: true,
                output_rejected: true,
                steps: 2,
            }),
        };
        let parsed = Json::parse(&report.to_json_string()).unwrap();
        assert_eq!(
            parsed.at("input.term").and_then(Json::as_str),
            Some("root(a)")
        );
        assert_eq!(parsed.at("replay.verified"), Some(&Json::Bool(true)));
    }
}
