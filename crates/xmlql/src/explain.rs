//! Assembly of [`ExplainReport`]s: the document-level provenance behind
//! `xmltc explain`.
//!
//! [`DocumentPipeline::explain_against_with`] runs the same decision
//! procedure as `typecheck_against_with`, then — for a failing verdict —
//! gathers the full causal chain around the counterexample:
//!
//! * the input document, decoded and serialized;
//! * the transducer run re-deriving the offending output, via the replay
//!   verifier ([`xmltc_typecheck::replay`]) whose trace doubles as the
//!   proof that the output is really producible;
//! * the offending output document;
//! * the output-DTD violation, diagnosed at the grammar level
//!   ([`xmltc_dtd::Dtd::diagnose`]: implicated production, content-DFA
//!   path, expected symbols) and at the automaton level
//!   ([`xmltc_automata::witness::rejection_point`] on the compiled `τ₂`).
//!
//! Everything in the report is recomputed from first principles on the
//! finished counterexample, so the report cannot silently drift from the
//! verdict: if any leg of the replay fails to confirm, the report says so
//! (`replay.verified = false`) — and the test suite treats that as a bug.

use crate::error::QueryError;
use crate::pipeline::{DocumentPipeline, DocumentVerdict, PipelineError};
use xmltc_automata::witness::node_path;
use xmltc_dtd::{Diagnosis, Dtd};
use xmltc_obs::explain::{
    DocumentRecord, ExplainReport, ReplayRecord, SpecAutomatonRecord, TraceStepRecord,
    TransformRecord, ViolationRecord,
};
use xmltc_trees::{decode, UnrankedTree};
use xmltc_typecheck::{
    replay_counterexample, typecheck_within, TypecheckOptions, TypecheckOutcome,
};
use xmltc_xml::raw_to_xml;

/// Trace steps kept in a report; longer runs are truncated (the recorded
/// `total_steps` still reflects the full run).
pub const MAX_REPORT_STEPS: usize = 200;

impl DocumentPipeline {
    /// Typechecks against an output DTD under `opts` and assembles the
    /// provenance report alongside the verdict.
    pub fn explain_against_with(
        &self,
        output_dtd_text: &str,
        opts: &TypecheckOptions,
    ) -> Result<(DocumentVerdict, ExplainReport), PipelineError> {
        let out_dtd = Dtd::parse_text_with(output_dtd_text, self.enc_out().source())?;
        let tau2 = out_dtd.compile(self.enc_out())?;

        let route_name = opts.route_for(self.transducer().k()).name();

        let outcome = typecheck_within(self.transducer(), self.tau1(), &tau2, opts)?;
        let (input, bad_output) = match outcome {
            TypecheckOutcome::Ok => {
                return Ok((DocumentVerdict::Ok, ExplainReport::ok(route_name)))
            }
            TypecheckOutcome::CounterExample { input, bad_output } => (input, bad_output),
        };

        let mut report = ExplainReport::ok(route_name);
        report.verdict = "counterexample".into();

        let input_doc = decode(&input, self.enc_in()).map_err(QueryError::Tree)?;
        report.input = Some(document_record(&input_doc));

        let mut bad_raw = None;
        if let Some(bad) = &bad_output {
            let ev = replay_counterexample(self.transducer(), self.tau1(), &tau2, &input, bad)?;
            let total = ev.trace.len();
            report.transform = Some(TransformRecord {
                k: self.transducer().k() as u64,
                states: self.transducer().core().n_states() as u64,
                total_steps: total as u64,
                truncated: total > MAX_REPORT_STEPS,
                steps: ev
                    .trace
                    .iter()
                    .take(MAX_REPORT_STEPS)
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
            report.spec_automaton = ev.rejection.as_ref().map(|rp| SpecAutomatonRecord {
                states: tau2.n_states() as u64,
                rejection_path: node_path(bad, rp.node),
                reachable_there: rp.reachable.len() as u64,
            });
            report.replay = Some(ReplayRecord {
                input_in_type: ev.input_in_type,
                output_produced: ev.output_produced,
                output_rejected: ev.output_rejected,
                steps: total as u64,
            });

            let doc = decode(bad, self.enc_out()).map_err(QueryError::Tree)?;
            report.output = Some(document_record(&doc));
            report.violation = violation_record(&out_dtd, &doc);
            bad_raw = Some(doc.to_raw());
        }

        let verdict = DocumentVerdict::CounterExample {
            input: input_doc.to_raw(),
            bad_output: bad_raw,
        };
        Ok((verdict, report))
    }
}

/// Diagnoses why `doc` violates the output DTD, as a report record.
fn violation_record(out_dtd: &Dtd, doc: &UnrankedTree) -> Option<ViolationRecord> {
    out_dtd.diagnose(doc).map(|d| match d {
        Diagnosis::WrongRoot { expected, got } => ViolationRecord {
            kind: "wrong-root".into(),
            path: "/".into(),
            element: got,
            word: Vec::new(),
            production: String::new(),
            failed_at: 0,
            dfa_states: Vec::new(),
            expected: vec![expected],
        },
        Diagnosis::InvalidContent {
            path,
            element,
            word,
            production,
            failed_at,
            dfa_states,
            expected,
        } => ViolationRecord {
            kind: "invalid-content".into(),
            path,
            element,
            word,
            production,
            failed_at: failed_at as u64,
            dfa_states: dfa_states.into_iter().map(u64::from).collect(),
            expected,
        },
    })
}

fn document_record(doc: &UnrankedTree) -> DocumentRecord {
    let raw = doc.to_raw();
    DocumentRecord {
        xml: Some(raw_to_xml(&raw)),
        term: raw.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xslt::{Stylesheet, Template};

    fn pipeline() -> DocumentPipeline {
        let sheet = Stylesheet::new(vec![
            Template::parse("root", "out(b, @apply)").unwrap(),
            Template::parse("a", "b").unwrap(),
        ]);
        let dtd = Dtd::parse_text("root := a*\na := @eps").unwrap();
        DocumentPipeline::new(sheet, dtd).unwrap()
    }

    #[test]
    fn passing_spec_yields_minimal_report() {
        let p = pipeline();
        let (verdict, report) = p
            .explain_against_with("out := b+\nb := @eps", &TypecheckOptions::default())
            .unwrap();
        assert!(verdict.is_ok());
        assert!(report.is_ok());
        assert!(report.input.is_none() && report.replay.is_none());
    }

    #[test]
    fn failing_spec_yields_full_verified_report() {
        let p = pipeline();
        // `out := b.b+` requires ≥ 2 children; the empty input produces
        // out(b), which has exactly one.
        let (verdict, report) = p
            .explain_against_with("out := b.b+\nb := @eps", &TypecheckOptions::default())
            .unwrap();
        assert!(!verdict.is_ok());
        assert_eq!(report.verdict, "counterexample");
        let input = report.input.as_ref().unwrap();
        assert_eq!(input.term, "root");
        assert_eq!(input.xml.as_deref(), Some("<root/>"));
        let output = report.output.as_ref().unwrap();
        assert_eq!(output.term, "out(b)");
        let transform = report.transform.as_ref().unwrap();
        assert!(!transform.steps.is_empty());
        assert!(transform
            .steps
            .iter()
            .any(|s| s.action.starts_with("output2 out")));
        let violation = report.violation.as_ref().unwrap();
        assert_eq!(violation.kind, "invalid-content");
        assert_eq!(violation.element, "out");
        assert_eq!(violation.word, vec!["b"]);
        assert!(violation.production.contains("out := "));
        let replay = report.replay.as_ref().unwrap();
        assert!(replay.verified(), "replay must confirm: {replay:?}");
        assert!(report.spec_automaton.is_some());
        // The JSON form carries the same chain.
        let json = report.to_json();
        assert_eq!(
            json.at("replay.verified"),
            Some(&xmltc_obs::Json::Bool(true))
        );
        assert_eq!(
            json.at("violation.element")
                .and_then(xmltc_obs::Json::as_str),
            Some("out")
        );
    }
}
